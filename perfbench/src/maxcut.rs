//! `maxcut_table1`: the Table 1 binary's path. Every trial builds a random
//! 4-vertex max-cut problem and calls `maxcut::solve` for the ideal and the
//! offset OBC — build, non-parametric compile, scalar RK4 — through
//! `Ensemble::map`. A row is one Table 1 table over [`TRIALS`] trials;
//! the cycle has [`TABLES`] tables on disjoint trial seeds.

use crate::report::{mean, Checks, Obj};
use crate::trace::{Inner, Layers, Timed};
use crate::{base_report, layer_report, run_rows, Args, DynError, Mode, Row};
use ark_core::{CompiledSystem, Language};
use ark_ode::{wrap_phase, Rk4};
use ark_paradigms::maxcut::{
    build_maxcut_network, classify_phases, solve, CouplingKind, MaxCutProblem, SOLVE_DT, SOLVE_TIME,
};
use ark_paradigms::obc::{obc_language, ofs_obc_language};
use ark_sim::{seed_range, Ensemble};
use std::f64::consts::PI;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

/// Trials per table: the paper's 1000 random graphs.
const TRIALS: usize = 1000;
/// Distinct tables in the cycle.
const TABLES: usize = 4;
const VERTICES: usize = 4;
const COUPLINGS: [CouplingKind; 2] = [CouplingKind::Ideal, CouplingKind::Offset];
const TOLERANCES: [f64; 2] = [0.01 * PI, 0.1 * PI];
/// Recording stride of `maxcut::solve`'s RK4 integration.
const STRIDE: usize = 50;
/// Trials of table 0 re-driven through the timing wrappers.
const SAMPLE: usize = 64;

/// Trial seeds of table `k` for workload seed `seed`. Seed 0, table 0 is
/// `0..1000`, the `table1_maxcut` binary's trials.
fn table_seeds(seed: u64, k: usize) -> Vec<u64> {
    seed_range(((seed & 0xffff_ffff) << 32) + (k * TRIALS) as u64, TRIALS)
}

/// Table 1 counts: `[coupling][tolerance] -> (synchronized, solved)`.
type Cells = [[(u64, u64); 2]; 2];

/// One trial: both couplings, classified at both tolerances. `None` for a
/// coupling whose solve failed.
fn trial(ofs: &Language, t: u64) -> [Option<[(bool, bool); 2]>; 2] {
    let problem = MaxCutProblem::random(VERTICES, t);
    COUPLINGS.map(|coupling| {
        let outcome = solve(ofs, &problem, coupling, TOLERANCES[1], t).ok()?;
        Some(
            TOLERANCES.map(|d| match classify_phases(&outcome.phases, d) {
                Some(p) => (true, problem.cut_value(p) == outcome.optimum),
                None => (false, false),
            }),
        )
    })
}

/// One table. The first trial to start records in `first_trial` the time
/// since process start: the moment the first instance begins.
fn run_table(
    ofs: &Language,
    ens: &Ensemble,
    seeds: &[u64],
    busy_ns: Option<&AtomicU64>,
    first_trial: &OnceLock<f64>,
    process_start: Instant,
) -> Result<(Cells, u64, u64, f64), DynError> {
    let compiles = CompiledSystem::compile_count();
    let start = Instant::now();
    let trials = ens.map(seeds, |t| {
        first_trial.get_or_init(|| process_start.elapsed().as_secs_f64());
        let s = busy_ns.map(|_| Instant::now());
        let out = trial(ofs, t);
        if let (Some(b), Some(s)) = (busy_ns, s) {
            b.fetch_add(s.elapsed().as_nanos() as u64, Relaxed);
        }
        out
    });
    let secs = start.elapsed().as_secs_f64();
    let mut cells = Cells::default();
    let mut failed = 0;
    for t in &trials {
        for (vi, v) in t.iter().enumerate() {
            match v {
                Some(by_d) => {
                    for (di, &(sync, solved)) in by_d.iter().enumerate() {
                        cells[vi][di].0 += u64::from(sync);
                        cells[vi][di].1 += u64::from(solved);
                    }
                }
                None => failed += 1,
            }
        }
    }
    Ok((
        cells,
        failed,
        CompiledSystem::compile_count() - compiles,
        secs,
    ))
}

/// Table 1's shape: the offset solver loses heavily at `d = 0.01π` and
/// recovers at `d = 0.1π` — the `table1_maxcut` binary's two checks.
fn shape(cells: &Cells) -> (f64, f64, bool) {
    let pct = |x: u64| 100.0 * x as f64 / TRIALS as f64;
    let gap = pct(cells[0][0].0) - pct(cells[1][0].0);
    let recovered = pct(cells[1][1].0);
    (gap, recovered, gap > 15.0 && recovered > 85.0)
}

fn row(k: usize, cells: &Cells, failed: u64, compiles: u64, secs: f64) -> Row {
    let mut out = Obj::new();
    for (vi, name) in ["obc", "ofs"].iter().enumerate() {
        for (di, d) in ["0.01pi", "0.1pi"].iter().enumerate() {
            out.set(&format!("{name}_sync_{d}"), cells[vi][di].0);
            out.set(&format!("{name}_solved_{d}"), cells[vi][di].1);
        }
    }
    let (gap, recovered, ok) = shape(cells);
    out.set("offset_gap_points", gap);
    out.set("offset_recovered_pct", recovered);
    out.set("shape", if ok { "REPRODUCED" } else { "NOT reproduced" });
    out.set("failed", failed);
    out.set("compiles", compiles);
    Row {
        key: format!("table={k}"),
        items: (TRIALS * COUPLINGS.len()) as u64,
        failed,
        secs,
        out,
    }
}

/// Re-drive `seeds` through the public calls `maxcut::solve` makes, with
/// the RHS behind [`Timed`]; true when every final phase matches `solve`
/// bit for bit. `shape_sums` accumulates nodes, edges, RHS instructions
/// and registers over the solves.
fn redrive(
    ofs: &Language,
    seeds: &[u64],
    layers: &mut Layers,
    inner: &mut Inner,
    shape_sums: &mut [f64; 4],
) -> Result<bool, DynError> {
    let mut same = true;
    for &t in seeds {
        let problem = MaxCutProblem::random(VERTICES, t);
        for coupling in COUPLINGS {
            let graph = layers.time("core.func", || {
                build_maxcut_network(ofs, &problem, coupling, t)
            })?;
            let sys = layers.time("core.compile", || CompiledSystem::compile(ofs, &graph))?;
            shape_sums[0] += graph.num_nodes() as f64;
            shape_sums[1] += graph.num_edges() as f64;
            shape_sums[2] += sys.rhs_instruction_count() as f64;
            shape_sums[3] += sys.rhs_register_count() as f64;
            let timed = Timed::new(sys.bind());
            let start = Instant::now();
            let tr = Rk4 { dt: SOLVE_DT }.integrate(
                &timed,
                0.0,
                &sys.initial_state(),
                SOLVE_TIME,
                STRIDE,
            )?;
            let ns = start.elapsed().as_nanos() as f64;
            inner.add(&timed, ns, tr.stats().accepted, 1);
            let yf = tr.last().expect("nonempty trajectory").1;
            let phases: Vec<f64> = (0..VERTICES)
                .map(|i| wrap_phase(yf[sys.state_index(&format!("osc{i}")).expect("oscillator")]))
                .collect();
            let lib = solve(ofs, &problem, coupling, TOLERANCES[1], t)?;
            same &= phases
                .iter()
                .map(|p| p.to_bits())
                .eq(lib.phases.iter().map(|p| p.to_bits()));
        }
    }
    Ok(same)
}

pub fn run(args: &Args, checks: &mut Checks) -> Result<Obj, DynError> {
    let trace = args.mode == Mode::Trace;
    let mut layers = Layers::new(trace);
    let ofs = ofs_obc_language(&obc_language());
    let ens = Ensemble::new(args.workers);
    let first_trial = OnceLock::new();

    let (rows, first_row_s) = run_rows(args, TABLES, |k| {
        let seeds = table_seeds(args.seed, k);
        let (cells, failed, compiles, secs) =
            run_table(&ofs, &ens, &seeds, None, &first_trial, args.start)?;
        let (gap, recovered, ok) = shape(&cells);
        checks.check(
            &format!("Table 1 shape REPRODUCED table={k}"),
            ok,
            format!("offset gap {gap:.1} points at 0.01pi, offset sync {recovered:.1}% at 0.1pi"),
        );
        Ok(row(k, &cells, failed, compiles, secs))
    })?;

    let setup_s = first_trial.get().copied().unwrap_or_default();
    let mut report = base_report(args, setup_s, first_row_s, &rows, crate::items_per_s(&rows));
    let mut counters = Obj::new();
    if trace {
        let busy = AtomicU64::new(0);
        let mut traced = Vec::new();
        for k in 0..TABLES {
            let seeds = table_seeds(args.seed, k);
            let (cells, failed, compiles, secs) =
                run_table(&ofs, &ens, &seeds, Some(&busy), &first_trial, args.start)?;
            traced.push(row(k, &cells, failed, compiles, secs));
        }
        let same = rows
            .iter()
            .zip(&traced)
            .all(|(a, b)| a.out.to_string() == b.out.to_string());
        checks.check("traced tables equal untraced tables", same, "");
        let wall: f64 = traced.iter().map(|r| r.secs).sum();
        let busy_frac = busy.load(Relaxed) as f64 * 1e-9 / (wall * ens.workers() as f64);

        let mut inner = Inner::default();
        let mut sums = [0.0; 4];
        let sample = &table_seeds(args.seed, 0)[..SAMPLE];
        let same = redrive(&ofs, sample, &mut layers, &mut inner, &mut sums)?;
        checks.check(
            "re-driven solves equal maxcut::solve bit for bit",
            same,
            format!("{SAMPLE} trials"),
        );
        let solves = (SAMPLE * COUPLINGS.len()) as u64;
        // Work counts of the re-driven sample: exact, so goldens pin them.
        counters
            .set("sample_nodes", sums[0])
            .set("sample_edges", sums[1])
            .set("sample_rhs_instrs", sums[2])
            .set("sample_rhs_evals", inner.rhs_evals)
            .set("sample_steps", inner.steps);
        let items: u64 = traced.iter().map(|r| r.items).sum();
        let compiles: f64 = traced
            .iter()
            .map(|r| r.out.get("compiles").unwrap_or(0.0))
            .sum();
        report.set(
            "layers",
            layer_report(&[
                ("core.func.build_ms", layers.mean_ms("core.func")),
                ("core.func.nodes", mean(sums[0], solves)),
                ("core.func.edges", mean(sums[1], solves)),
                ("core.compile.ms", layers.mean_ms("core.compile")),
                ("core.compile.count", compiles / items as f64),
                ("expr.program.instrs_per_rhs", mean(sums[2], solves)),
                ("expr.program.registers", mean(sums[3], solves)),
                (
                    "expr.program.rhs_calls",
                    mean(inner.rhs_evals as f64, solves),
                ),
                ("expr.program.ns_per_rhs", inner.ns_per_rhs()),
                ("expr.program.rhs_share", inner.rhs_share()),
                (
                    "ode.solver.steps_accepted",
                    mean(inner.steps as f64, solves),
                ),
                (
                    "ode.solver.stepper_ns_per_step",
                    inner.stepper_ns_per_step(),
                ),
                ("sim.run.worker_busy_frac", busy_frac),
                (
                    "trace.overhead_frac",
                    1.0 - crate::items_per_s(&traced) / crate::items_per_s(&rows),
                ),
            ]),
        );
    }
    report.set("counters", counters);
    Ok(report)
}
