//! `yield_interp` / `yield_native`: the Figure 11 σ-sweep (6×6 CNN edge
//! detection, template-weight mismatch `GMismatch`, default
//! `RecoveryPolicy`) streamed through `Ensemble::run` on the laned engine.
//!
//! Setup builds, validates and compiles one parametric design per σ and,
//! on the native backend, forces the kernel builds with `native_status()`
//! so rustc is paid in `setup_s`, not hidden in the first row. A row is
//! one σ over [`ROW_INSTANCES`] fabricated instances (two 1024-seed
//! streaming blocks); every σ row uses the same seeds, as the figure does.

use crate::report::{checksum, mean, ms_since, Checks, Obj};
use crate::trace::{Inner, Layers, Timed};
use crate::{base_report, layer_report, run_rows, Args, DynError, Mode, Row};
use ark_core::validate::validate;
use ark_core::{Backend, CompiledSystem, EvalScratch, LaneScratch, Language, ParametricGraph};
use ark_expr::{CodegenCache, Provenance};
use ark_ode::{FinalState, LaneWorkspace, OdeWorkspace, Rk4, Solver};
use ark_paradigms::cnn::{
    build_cnn_parametric, cnn_language, grid_extern_registry, hw_cnn_language_sigma, run_cnn_yield,
    NonIdeality, EDGE_TEMPLATE,
};
use ark_paradigms::image::Image;
use ark_sim::reduce::{premap, Moments, Quantiles, Reducer, YieldCounter, STREAM_BLOCK};
use ark_sim::{seed_range, Ensemble, RecoveryPolicy, RecoveryReport};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// The σ rows of the sweep (the `fig11_yield` binary's values).
const SIGMAS: [f64; 6] = [0.02, 0.05, 0.10, 0.20, 0.40, 0.80];
/// Instances per σ row: two streaming blocks, one per worker on two cores.
const ROW_INSTANCES: usize = 2048;
const GRID: usize = 6;
const T_END: f64 = 2.0;
/// The CNN solver step of `ark_paradigms::cnn` (private there). The traced
/// run's parity check against `run_cnn_yield` pins this copy to it.
const DT: f64 = 2e-3;
/// Lane width the harness sets through `ARK_LANES`.
const LANES: usize = 4;
/// Seeds per row re-driven through the timing wrappers in a traced run.
const SAMPLE: usize = 32;
/// Seeds per row compared against the library's own `run_cnn_yield`.
const PARITY: usize = 256;
/// Seeds per checked row compared between the native and interpreted
/// backends on `yield_native`.
const BACKEND_PARITY: usize = 16;

/// One σ design, compiled once for all its instances.
struct Design {
    sigma: f64,
    lang: Language,
    pgraph: ParametricGraph,
    sys: CompiledSystem,
}

/// The row seeds of workload seed `seed`. Seed 0 gives `11..`, the seeds
/// of the `fig11_yield` binary; other seeds move to disjoint ranges.
fn row_seeds(seed: u64) -> Vec<u64> {
    seed_range(((seed & 0xffff_ffff) << 32) | 11, ROW_INSTANCES)
}

/// The wrong-pixel count of one instance's final state — the library's
/// readout (`read_output_dims` in `ark_paradigms::cnn`, private there),
/// including its per-pixel name lookups, so the benchmark reads out at the
/// library's cost.
fn wrong_pixels(
    sys: &CompiledSystem,
    expected: &Image,
    t: f64,
    state: &[f64],
    params: &[f64],
    scratch: &mut EvalScratch,
) -> usize {
    let algs = sys.eval_algebraics_with_params(t, state, params, scratch);
    Image::from_fn(GRID, GRID, |r, c| {
        algs[sys
            .algebraic_index(&format!("Out_{r}_{c}"))
            .expect("Out node is algebraic")]
    })
    .diff_count(expected)
}

fn row_key(sigma: f64) -> String {
    format!("sigma={sigma}")
}

fn prep(sys: &CompiledSystem, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let params = sys.sample_params(seed);
    let y0 = sys.initial_state_for(&params);
    (params, y0)
}

/// Spans recorded from the benchmark's own prep and readout closures
/// while `Ensemble::run` executes a traced row.
#[derive(Default)]
struct RowTrace {
    prep_ns: AtomicU64,
    prep_n: AtomicU64,
    read_ns: AtomicU64,
    read_n: AtomicU64,
    /// First and last activity of each worker thread during the row.
    active: Mutex<HashMap<ThreadId, (Instant, Instant)>>,
}

impl RowTrace {
    fn record(&self, start: Instant, ns: &AtomicU64, n: &AtomicU64) {
        let now = Instant::now();
        ns.fetch_add(
            u64::try_from((now - start).as_nanos()).unwrap_or(u64::MAX),
            Relaxed,
        );
        n.fetch_add(1, Relaxed);
        let mut active = self.active.lock().expect("trace lock poisoned");
        let e = active
            .entry(std::thread::current().id())
            .or_insert((start, now));
        e.0 = e.0.min(start);
        e.1 = e.1.max(now);
    }

    /// Summed worker activity over `workers × wall`.
    fn busy_frac(&self, workers: usize, wall_s: f64) -> f64 {
        let active = self.active.lock().expect("trace lock poisoned");
        let busy: f64 = active.values().map(|(a, b)| (*b - *a).as_secs_f64()).sum();
        busy / (workers as f64 * wall_s)
    }
}

/// Deterministic solver counts summed over a row's read-out instances.
#[derive(Default)]
struct Stats {
    rhs_evals: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    newton: AtomicU64,
}

/// The outputs and deterministic counts of one σ row.
#[derive(Debug, Clone, PartialEq)]
struct RowOut {
    report: RecoveryReport,
    pass: u64,
    mean_wrong: f64,
    std_wrong: f64,
    p50_wrong: f64,
    p95_wrong: f64,
    blocks: usize,
    compiles: u64,
    rhs_evals: u64,
    accepted: u64,
    rejected: u64,
    newton: u64,
}

impl RowOut {
    fn to_obj(&self, sigma: f64) -> Obj {
        let r = &self.report;
        Obj::new()
            .with("sigma", sigma)
            .with("instances", r.total())
            .with("completed", r.completed)
            .with("recovered", r.recovered)
            .with("failed", r.failed)
            .with("retry_attempts", r.retry_attempts)
            .with("pass", self.pass)
            .with("mean_wrong", self.mean_wrong)
            .with("std_wrong", self.std_wrong)
            .with("p50_wrong", self.p50_wrong)
            .with("p95_wrong", self.p95_wrong)
            .with("blocks", self.blocks)
            .with("compiles", self.compiles)
            .with("rhs_evals", self.rhs_evals)
            .with("steps_accepted", self.accepted)
            .with("steps_rejected", self.rejected)
            .with("newton_iters", self.newton)
    }
}

/// Run one σ row through the streaming recovering ensemble.
fn run_row(
    d: &Design,
    expected: &Image,
    seeds: &[u64],
    ens: &Ensemble,
    policy: &RecoveryPolicy,
    trace: Option<&RowTrace>,
) -> Result<(Row, RowOut), DynError> {
    let pixels = GRID * GRID;
    let reducer = (
        Moments,
        Quantiles::new(-0.5, pixels as f64 + 0.5, pixels + 1),
        premap(|wrong: f64| wrong == 0.0, YieldCounter),
    );
    let stats = Stats::default();
    let compiles = CompiledSystem::compile_count();
    let start = Instant::now();
    let ((moments, hist, counts), report) = ens
        .run(&d.sys, &Rk4 { dt: DT }, seeds, 0.0, T_END)
        .prep(|seed| {
            let t = trace.map(|_| Instant::now());
            let out = prep(&d.sys, seed);
            if let (Some(tr), Some(t)) = (trace, t) {
                tr.record(t, &tr.prep_ns, &tr.prep_n);
            }
            out
        })
        .with_recovery(policy)
        .reduce(
            |snap, scratch| {
                let t = trace.map(|_| Instant::now());
                let wrong =
                    wrong_pixels(&d.sys, expected, snap.t, snap.state, snap.params, scratch);
                stats
                    .rhs_evals
                    .fetch_add(snap.stats.rhs_evals as u64, Relaxed);
                stats
                    .accepted
                    .fetch_add(snap.stats.accepted as u64, Relaxed);
                stats
                    .rejected
                    .fetch_add(snap.stats.rejected as u64, Relaxed);
                stats
                    .newton
                    .fetch_add(snap.stats.newton_iters as u64, Relaxed);
                if let (Some(tr), Some(t)) = (trace, t) {
                    tr.record(t, &tr.read_ns, &tr.read_n);
                }
                Ok::<_, DynError>(wrong as f64)
            },
            &reducer,
        )?;
    let secs = start.elapsed().as_secs_f64();
    let out = RowOut {
        pass: counts.pass,
        mean_wrong: moments.mean,
        std_wrong: moments.std_dev(),
        p50_wrong: hist.quantile(0.5),
        p95_wrong: hist.quantile(0.95),
        blocks: seeds.len().div_ceil(STREAM_BLOCK),
        compiles: CompiledSystem::compile_count() - compiles,
        rhs_evals: stats.rhs_evals.into_inner(),
        accepted: stats.accepted.into_inner(),
        rejected: stats.rejected.into_inner(),
        newton: stats.newton.into_inner(),
        report,
    };
    let row = Row {
        key: row_key(d.sigma),
        items: seeds.len() as u64,
        failed: out.report.failed,
        secs,
        out: out.to_obj(d.sigma),
    };
    Ok((row, out))
}

/// Codegen provenance of the explicit kernel preparations of a traced
/// setup, plus the systems whose kernel is not active.
#[derive(Default)]
struct Codegen {
    compiled: u64,
    disk_hits: u64,
    memory_hits: u64,
    fallbacks: u64,
    prepare_ms: f64,
}

fn setup(
    backend: Backend,
    trace: bool,
    layers: &mut Layers,
    checks: &mut Checks,
) -> Result<(Vec<Design>, Codegen), DynError> {
    let base = cnn_language();
    let input = Image::test_blob(GRID, GRID);
    let externs = grid_extern_registry();
    let mut designs = Vec::new();
    for sigma in SIGMAS {
        let lang = hw_cnn_language_sigma(&base, sigma);
        let pcnn = layers.time("core.func", || {
            build_cnn_parametric(&lang, &input, &EDGE_TEMPLATE, NonIdeality::GMismatch)
        })?;
        let report = layers.time("core.validate", || {
            validate(&lang, &pcnn.pgraph.graph, &externs)
        })?;
        checks.check(
            &format!("valid design sigma={sigma}"),
            report.is_valid(),
            report.to_string(),
        );
        let sys = layers.time("core.compile", || {
            CompiledSystem::compile_parametric(&lang, &pcnn.pgraph)
        })?;
        designs.push(Design {
            sigma,
            lang,
            pgraph: pcnn.pgraph,
            sys,
        });
    }
    let mut cg = Codegen::default();
    if backend == Backend::Native {
        let start = Instant::now();
        for d in &designs {
            let progs = [d.sys.rhs_program(), d.sys.obs_program()];
            if trace {
                // Prepare through the shared cache first to learn where
                // each kernel came from; the programs' own preparation
                // below then finds it in memory.
                for prog in progs {
                    match CodegenCache::shared().prepare(prog) {
                        Ok((_, Provenance::Compiled)) => cg.compiled += 1,
                        Ok((_, Provenance::DiskCache)) => cg.disk_hits += 1,
                        Ok((_, Provenance::MemoryCache)) => cg.memory_hits += 1,
                        Err(_) => {}
                    }
                }
            }
            for prog in progs {
                let status = prog.native_status();
                if !status.is_active() {
                    cg.fallbacks += 1;
                }
                checks.check(
                    &format!("native kernel active sigma={}", d.sigma),
                    status.is_active(),
                    status.to_string(),
                );
            }
        }
        cg.prepare_ms = ms_since(start);
    }
    Ok((designs, cg))
}

/// Lines of generated kernel source and kernel libraries in the codegen
/// directory the harness gave this process.
fn codegen_dir_counts() -> (u64, u64) {
    let Some(dir) = std::env::var_os("ARK_CODEGEN_DIR") else {
        return (0, 0);
    };
    let (mut lines, mut libs) = (0u64, 0u64);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        match path.extension().and_then(|e| e.to_str()) {
            Some("rs") => {
                let src = std::fs::read_to_string(&path).unwrap_or_default();
                lines += src.lines().count() as u64;
            }
            Some("so") => libs += 1,
            _ => {}
        }
    }
    (lines, libs)
}

/// `(seed, wrong pixels, final-state checksum)` of every instance.
type Sample = Vec<(u64, usize, String)>;

/// Collects per-instance items, in seed order, through the engine's own
/// block structure.
struct Collect;

impl Reducer<(u64, usize, String)> for Collect {
    type Acc = Sample;
    type Output = Sample;
    fn new_acc(&self) -> Sample {
        Vec::new()
    }
    fn push(&self, acc: &mut Sample, item: (u64, usize, String)) {
        acc.push(item);
    }
    fn merge(&self, into: &mut Sample, from: Sample) {
        into.extend(from);
    }
    fn finish(&self, acc: Sample) -> Sample {
        acc
    }
}

/// The untraced engine's per-instance outputs for `seeds`.
fn engine_sample(
    d: &Design,
    expected: &Image,
    seeds: &[u64],
    ens: &Ensemble,
    policy: &RecoveryPolicy,
) -> Result<Sample, DynError> {
    let (items, _) = ens
        .run(&d.sys, &Rk4 { dt: DT }, seeds, 0.0, T_END)
        .prep(|seed| prep(&d.sys, seed))
        .with_recovery(policy)
        .reduce(
            |snap, scratch| {
                let wrong =
                    wrong_pixels(&d.sys, expected, snap.t, snap.state, snap.params, scratch);
                Ok::<_, DynError>((snap.seed, wrong, checksum(snap.state)))
            },
            &Collect,
        )?;
    Ok(items)
}

/// Re-drive `seeds` through public calls, mirroring the engine's laned
/// dispatch and scalar recovery ladder, with the RHS behind [`Timed`].
fn redrive(
    sys: &CompiledSystem,
    expected: &Image,
    seeds: &[u64],
    policy: &RecoveryPolicy,
    inner: &mut Inner,
) -> Sample {
    let n = sys.num_states();
    let solver = Rk4 { dt: DT };
    let mut lscratch = LaneScratch::<LANES>::default();
    let mut lws = LaneWorkspace::<LANES>::new(n);
    let mut scratch = sys.scratch();
    let mut ws = OdeWorkspace::new(n);
    let mut out = Vec::new();
    for group in seeds.chunks(LANES) {
        let prepped: Vec<_> = group.iter().map(|&s| prep(sys, s)).collect();
        let mut finals: Vec<Option<(f64, Vec<f64>)>> = vec![None; group.len()];
        if group.len() == LANES {
            let y0: Vec<[f64; LANES]> = (0..n)
                .map(|i| std::array::from_fn(|l| prepped[l].1[i]))
                .collect();
            let params: Vec<&[f64]> = prepped.iter().map(|(p, _)| p.as_slice()).collect();
            let mut obs = FinalState::new();
            let timed = Timed::new(sys.bind_lanes::<LANES>(&params, &mut lscratch));
            let t = Instant::now();
            let solved = solver.solve(&timed, 0.0, &y0, T_END, &mut obs, &mut lws);
            let ns = t.elapsed().as_nanos() as f64;
            if let Ok(stats) = solved {
                inner.add(&timed, ns, stats.accepted, LANES);
                for (l, f) in finals.iter_mut().enumerate() {
                    *f = Some((obs.time(), obs.lane_state(l).to_vec()));
                }
            }
        }
        // A failed group demotes to the scalar ladder, as in the engine.
        for (l, (params, y0)) in prepped.iter().enumerate() {
            if finals[l].is_some() {
                continue;
            }
            let timed = Timed::new(sys.bind_ref(params, &mut scratch));
            let mut obs = FinalState::new();
            let t = Instant::now();
            let mut solved = solver.solve(&timed, 0.0, y0, T_END, &mut obs, &mut ws);
            for attempt in 1..=policy.max_retries {
                if solved.is_ok() {
                    break;
                }
                obs = FinalState::new();
                solved = policy
                    .run_attempt(attempt, &timed, 0.0, y0, T_END, &mut obs, &mut ws)
                    .map(|(stats, _)| stats);
            }
            let ns = t.elapsed().as_nanos() as f64;
            if let Ok(stats) = solved {
                inner.add(&timed, ns, stats.accepted, 1);
                finals[l] = Some((obs.time(), obs.state().to_vec()));
            }
        }
        for ((&seed, (params, _)), f) in group.iter().zip(&prepped).zip(finals) {
            if let Some((t_final, state)) = f {
                let wrong = wrong_pixels(sys, expected, t_final, &state, params, &mut scratch);
                out.push((seed, wrong, checksum(&state)));
            }
        }
    }
    out
}

/// Compare the benchmark's row pipeline with the library's `run_cnn_yield`
/// on the first seeds of `d`'s row.
fn library_parity(
    d: &Design,
    expected: &Image,
    seeds: &[u64],
    ens: &Ensemble,
    policy: &RecoveryPolicy,
) -> Result<bool, DynError> {
    let input = Image::test_blob(GRID, GRID);
    let lib = run_cnn_yield(
        &d.lang,
        &input,
        &EDGE_TEMPLATE,
        NonIdeality::GMismatch,
        T_END,
        seeds,
        ens,
    )?;
    let (_, mine) = run_row(d, expected, seeds, ens, policy, None)?;
    Ok(mine.pass == lib.counts.pass
        && mine.mean_wrong.to_bits() == lib.wrong_pixels.mean.to_bits()
        && mine.std_wrong.to_bits() == lib.wrong_pixels.std_dev().to_bits()
        && mine.p95_wrong.to_bits() == lib.wrong_histogram.quantile(0.95).to_bits()
        && mine.report.failed == lib.recovery.failed
        && mine.report.recovered == lib.recovery.recovered)
}

pub fn run(args: &Args, backend: Backend, checks: &mut Checks) -> Result<Obj, DynError> {
    let trace = args.mode == Mode::Trace;
    let env_backend = Backend::from_env();
    checks.check(
        "ARK_BACKEND selects the workload backend",
        env_backend == backend,
        format!("{env_backend:?}"),
    );
    let ens = Ensemble::new(args.workers);
    checks.check(
        "ARK_LANES selects 4 lanes",
        ens.lanes() == LANES,
        ens.lanes().to_string(),
    );
    let policy = RecoveryPolicy::default();
    let mut layers = Layers::new(trace);
    let compiles = CompiledSystem::compile_count();
    let (designs, cg) = setup(backend, trace, &mut layers, checks)?;
    let setup_compiles = CompiledSystem::compile_count() - compiles;
    let setup_s = args.start.elapsed().as_secs_f64();
    // Kernels built by setup (a TR-BDF2 recovery could build a Jacobian
    // kernel later, in whichever rows need it).
    let (source_lines, kernels) = codegen_dir_counts();

    let expected = Image::test_blob(GRID, GRID).digital_edge_map();
    let seeds = row_seeds(args.seed);
    let mut outs = Vec::new();
    let (rows, first_row_s) = run_rows(args, designs.len(), |k| {
        let (row, out) = run_row(&designs[k], &expected, &seeds, &ens, &policy, None)?;
        outs.push(out);
        Ok(row)
    })?;

    if backend == Backend::Native {
        // Native kernels must reproduce the interpreter bit for bit.
        for d in [&designs[0], &designs[designs.len() - 1]] {
            let twin = CompiledSystem::compile_parametric(&d.lang, &d.pgraph)?
                .with_backend(Backend::Interp);
            let sample = &seeds[..BACKEND_PARITY];
            let native = redrive(&d.sys, &expected, sample, &policy, &mut Inner::default());
            let interp = redrive(&twin, &expected, sample, &policy, &mut Inner::default());
            checks.check(
                &format!("native matches interpreter bit for bit sigma={}", d.sigma),
                native.len() == BACKEND_PARITY && native == interp,
                format!("{BACKEND_PARITY} seeds"),
            );
        }
    }

    let sys0 = &designs[0].sys;
    let mut counters = Obj::new()
        .with("setup_compiles", setup_compiles)
        .with("instrs_per_rhs", sys0.rhs_instruction_count())
        .with("registers", sys0.rhs_register_count())
        .with("kernel_libraries", kernels)
        .with("kernel_source_lines", source_lines)
        .with("fallbacks", cg.fallbacks);
    let mut report = base_report(args, setup_s, first_row_s, &rows, crate::items_per_s(&rows));
    if trace {
        // One traced pass over the same rows: spans in the prep and
        // readout closures, worker activity per row.
        let mut traced = Vec::new();
        let mut traced_outs = Vec::new();
        let (mut prep_ns, mut prep_n, mut read_ns, mut read_n, mut busy) = (0, 0, 0, 0, 0.0);
        for d in &designs {
            let tr = RowTrace::default();
            let (row, out) = run_row(d, &expected, &seeds, &ens, &policy, Some(&tr))?;
            busy += tr.busy_frac(ens.workers(), row.secs);
            prep_ns += tr.prep_ns.load(Relaxed);
            prep_n += tr.prep_n.load(Relaxed);
            read_ns += tr.read_ns.load(Relaxed);
            read_n += tr.read_n.load(Relaxed);
            traced.push(row);
            traced_outs.push(out);
        }
        checks.check("traced rows equal untraced rows", traced_outs == outs, "");

        // RHS and stepper run only inside the engine: re-drive a sample.
        let mut inner = Inner::default();
        for d in &designs {
            let sample = &seeds[..SAMPLE];
            let engine = engine_sample(d, &expected, sample, &ens, &policy)?;
            let mine = redrive(&d.sys, &expected, sample, &policy, &mut inner);
            checks.check(
                &format!(
                    "re-driven sample equals the engine bit for bit sigma={}",
                    d.sigma
                ),
                engine == mine,
                format!("{SAMPLE} seeds"),
            );
        }
        for d in [&designs[0], &designs[designs.len() - 1]] {
            checks.check(
                &format!("pipeline matches run_cnn_yield sigma={}", d.sigma),
                library_parity(d, &expected, &seeds[..PARITY], &ens, &policy)?,
                format!("{PARITY} seeds"),
            );
        }

        let items: u64 = traced.iter().map(|r| r.items).sum();
        let sum = |f: fn(&RowOut) -> u64| traced_outs.iter().map(f).sum::<u64>() as f64;
        let per_item = |f: fn(&RowOut) -> u64| sum(f) / items as f64;
        let graph = &designs[0].pgraph.graph;
        report.set(
            "layers",
            layer_report(&[
                ("core.func.build_ms", layers.mean_ms("core.func")),
                ("core.func.nodes", graph.num_nodes() as f64),
                ("core.func.edges", graph.num_edges() as f64),
                ("core.validate.ms", layers.mean_ms("core.validate")),
                ("core.compile.ms", layers.mean_ms("core.compile")),
                ("core.compile.count", per_item(|o| o.compiles)),
                (
                    "expr.program.instrs_per_rhs",
                    sys0.rhs_instruction_count() as f64,
                ),
                ("expr.program.registers", sys0.rhs_register_count() as f64),
                ("expr.program.rhs_calls", per_item(|o| o.rhs_evals)),
                ("expr.program.ns_per_rhs", inner.ns_per_rhs()),
                ("expr.program.rhs_share", inner.rhs_share()),
                ("expr.codegen.prepare_ms", cg.prepare_ms),
                ("expr.codegen.source_lines", source_lines as f64),
                ("expr.codegen.compiled", kernels as f64),
                ("expr.codegen.disk_hits", cg.disk_hits as f64),
                ("expr.codegen.memory_hits", cg.memory_hits as f64),
                ("expr.codegen.fallbacks", cg.fallbacks as f64),
                ("ode.solver.steps_accepted", per_item(|o| o.accepted)),
                ("ode.solver.steps_rejected", per_item(|o| o.rejected)),
                (
                    "ode.solver.stepper_ns_per_step",
                    inner.stepper_ns_per_step(),
                ),
                ("ode.implicit.newton_iters", per_item(|o| o.newton)),
                ("sim.run.prep_us", mean(prep_ns as f64, prep_n) / 1e3),
                ("sim.run.readout_us", mean(read_ns as f64, read_n) / 1e3),
                ("sim.run.worker_busy_frac", busy / designs.len() as f64),
                (
                    "sim.run.blocks",
                    sum(|o| o.blocks as u64) / designs.len() as f64,
                ),
                ("sim.resilience.completed", sum(|o| o.report.completed)),
                ("sim.resilience.recovered", sum(|o| o.report.recovered)),
                ("sim.resilience.failed", sum(|o| o.report.failed)),
                (
                    "sim.resilience.retry_attempts",
                    sum(|o| o.report.retry_attempts),
                ),
                (
                    "trace.overhead_frac",
                    1.0 - crate::items_per_s(&traced) / crate::items_per_s(&rows),
                ),
            ]),
        );
        counters.set("codegen_compiled", cg.compiled);
        counters.set("codegen_disk_hits", cg.disk_hits);
        counters.set("codegen_memory_hits", cg.memory_hits);
    }
    report.set("counters", counters);
    Ok(report)
}
