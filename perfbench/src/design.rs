//! `design_sweep`: the designer's edit-compile-simulate loop, serially,
//! one fresh pipeline per design over a fixed list — CNN edge detectors
//! with nonidealities A–D at growing grid sizes, the Figure 4 linear and
//! branched t-lines, Van der Pol over a μ-sweep and Robertson under
//! TR-BDF2, and random GmC lines checked against their SPICE netlists.
//!
//! Every design parses its language from `.ark` text, builds, validates,
//! compiles, derives the Jacobian when the solver needs one, simulates
//! once and reads out. A row is one design; throughput is designs per
//! second over whole passes of the list.

use crate::report::{checksum, mean, Checks, Obj};
use crate::trace::{Inner, Layers, Timed};
use crate::{base_report, layer_report, Args, DynError, Mode, Row};
use ark_core::program::Program;
use ark_core::validate::{validate, ExternRegistry};
use ark_core::{language_to_source, CompiledSystem, Graph, Language};
use ark_ode::{
    relative_rmse, FinalState, OdeSystem, OdeWorkspace, Rk4, SolveStats, Solver, Strided, TrBdf2,
};
use ark_paradigms::cnn::{
    build_cnn, cnn_language, grid_extern_registry, hw_cnn_language, NonIdeality, EDGE_TEMPLATE,
};
use ark_paradigms::image::Image;
use ark_paradigms::stiff::{robertson_language, robertson_network, vdp_language, vdp_oscillator};
use ark_paradigms::tln::{
    branched_out_v, branched_tline, gmc_tln_language, linear_out_v, linear_tline, tln_language,
    TlineConfig,
};
use ark_spice::synth::synthesize;
use ark_spice::validate::random_gmc_tline;
use std::time::Instant;

/// Largest first: the first row (a cold process's first design) is then a
/// realistic design whose time is front end and simulation, not process
/// start-up.
const CNN_SIZES: [usize; 3] = [24, 12, 6];
const CNN_NONIDEALITIES: [NonIdeality; 4] = [
    NonIdeality::Ideal,
    NonIdeality::ZMismatch,
    NonIdeality::GMismatch,
    NonIdeality::NonIdealSat,
];
const CNN_T_END: f64 = 2.0;
const CNN_DT: f64 = 2e-3;
/// Figure 4: 26-segment linear line and the 8/10/8 branched line.
const TLINE_SEGMENTS: usize = 26;
const TLINE_BRANCH: (usize, usize, usize) = (8, 10, 8);
const TLINE_T_END: f64 = 8e-8;
const TLINE_DT: f64 = 2e-11;
const VDP_MUS: [f64; 3] = [10.0, 100.0, 1000.0];
const VDP_T_END: f64 = 3.0;
const ROBERTSON_T_END: f64 = 40.0;
/// Robertson at t = 40 (Hairer & Wanner, Solving ODEs II, §IV.10).
const ROBERTSON_REF: [f64; 3] = [0.715_827_1, 9.185_535e-6, 0.284_163_7];
/// Random §4.5 GmC lines per pass, and their cross-simulation settings
/// (the `spice_validation` binary's).
const GMC_LINES: u64 = 4;
const GMC_T_END: f64 = 2e-8;
const GMC_DT: f64 = 4e-11;
const GMC_STRIDE: usize = 4;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Cnn(usize, NonIdeality, u64),
    Linear,
    Branched,
    Vdp(f64),
    Robertson,
    Gmc(u64),
}

/// The design list of workload seed `seed`. Seed 0 draws the GmC lines of
/// the `spice_validation` binary's first seeds.
fn designs(seed: u64) -> Vec<(String, Kind)> {
    let base = (seed & 0xffff_ffff) << 32;
    let mut list = Vec::new();
    for size in CNN_SIZES {
        for (i, ni) in CNN_NONIDEALITIES.into_iter().enumerate() {
            let name = format!("cnn_{size}x{size}_{}", ["A", "B", "C", "D"][i]);
            list.push((name, Kind::Cnn(size, ni, base + size as u64)));
        }
    }
    list.push(("tline_linear".into(), Kind::Linear));
    list.push(("tline_branched".into(), Kind::Branched));
    for mu in VDP_MUS {
        list.push((format!("vdp_mu{mu}"), Kind::Vdp(mu)));
    }
    list.push(("robertson".into(), Kind::Robertson));
    for k in 0..GMC_LINES {
        list.push((format!("gmc_{k}"), Kind::Gmc(base + k)));
    }
    list
}

/// The `.ark` source of every language the sweep uses, rendered once.
struct Sources {
    cnn: String,
    tln: String,
    vdp: String,
    robertson: String,
}

impl Sources {
    fn new() -> Sources {
        let cnn = cnn_language();
        let tln = tln_language();
        Sources {
            cnn: language_to_source(&cnn) + &language_to_source(&hw_cnn_language(&cnn)),
            tln: language_to_source(&tln) + &language_to_source(&gmc_tln_language(&tln)),
            vdp: language_to_source(&vdp_language()),
            robertson: language_to_source(&robertson_language()),
        }
    }

    /// Source text and language name of a design kind.
    fn of(&self, kind: Kind) -> (&str, &str) {
        match kind {
            Kind::Cnn(..) => (&self.cnn, "hw_cnn"),
            Kind::Linear | Kind::Branched => (&self.tln, "tln"),
            Kind::Gmc(_) => (&self.tln, "gmc_tln"),
            Kind::Vdp(_) => (&self.vdp, "vdp"),
            Kind::Robertson => (&self.robertson, "robertson"),
        }
    }
}

fn build(kind: Kind, lang: &Language) -> Result<Graph, DynError> {
    Ok(match kind {
        Kind::Cnn(size, ni, seed) => {
            build_cnn(
                lang,
                &Image::test_blob(size, size),
                &EDGE_TEMPLATE,
                ni,
                seed,
            )?
            .graph
        }
        Kind::Linear => linear_tline(lang, TLINE_SEGMENTS, &TlineConfig::default(), 0)?,
        Kind::Branched => {
            let (before, branch, after) = TLINE_BRANCH;
            branched_tline(lang, before, branch, after, &TlineConfig::default(), 0)?
        }
        Kind::Vdp(mu) => vdp_oscillator(lang, mu)?,
        Kind::Robertson => robertson_network(lang)?,
        Kind::Gmc(seed) => random_gmc_tline(lang, seed)?,
    })
}

/// Integrate `sys` with the RHS behind [`Timed`] when tracing, adding the
/// explicit or implicit split to the matching totals.
fn simulate<V: Solver, O: ark_ode::Observer<f64>>(
    solver: &V,
    sys: &impl OdeSystem,
    y0: &[f64],
    t_end: f64,
    obs: &mut O,
    trace: Option<&mut Inner>,
) -> Result<SolveStats, DynError> {
    let mut ws = OdeWorkspace::new(y0.len());
    let Some(inner) = trace else {
        return Ok(solver.solve(sys, 0.0, y0, t_end, obs, &mut ws)?);
    };
    let timed = Timed::new(sys);
    let start = Instant::now();
    let stats = solver.solve(&timed, 0.0, y0, t_end, obs, &mut ws)?;
    let steps = stats.accepted + stats.rejected;
    inner.add(&timed, start.elapsed().as_nanos() as f64, steps, 1);
    Ok(stats)
}

/// Totals of a traced pass, beyond the span recorder.
#[derive(Default)]
struct Totals {
    explicit: Inner,
    implicit: Inner,
    designs: u64,
    implicit_designs: u64,
    nodes: u64,
    edges: u64,
    instrs: u64,
    registers: u64,
    compiles: u64,
    rhs_evals: u64,
    accepted: u64,
    rejected: u64,
    newton: u64,
    deriv_instrs: u64,
    deriv_nnz: u64,
}

/// One design through the whole pipeline. Returns its output row. The
/// first call records in `setup_s` the time since `process_start` at which
/// the first simulation begins.
#[allow(clippy::too_many_arguments)]
fn run_design(
    name: &str,
    kind: Kind,
    sources: &Sources,
    layers: &mut Layers,
    mut totals: Option<&mut Totals>,
    checks: &mut Checks,
    process_start: Instant,
    setup_s: &mut Option<f64>,
) -> Result<Row, DynError> {
    let start = Instant::now();
    let compiles = CompiledSystem::compile_count();
    let (text, lang_name) = sources.of(kind);
    let prog = layers.time("core.parse", || Program::parse(text))?;
    let lang = prog
        .language(lang_name)
        .ok_or_else(|| format!("{lang_name} missing from its .ark source"))?;
    let graph = layers.time("core.func", || build(kind, lang))?;
    let externs = match kind {
        Kind::Cnn(..) => grid_extern_registry(),
        _ => ExternRegistry::new(),
    };
    let report = layers.time("core.validate", || validate(lang, &graph, &externs))?;
    if !report.is_valid() {
        return Err(format!("{name} is not a valid design: {report}").into());
    }
    let sys = layers.time("core.compile", || CompiledSystem::compile(lang, &graph))?;
    let implicit = matches!(kind, Kind::Vdp(_) | Kind::Robertson);
    let (deriv_instrs, deriv_nnz) = if implicit {
        let jac = layers.time("expr.deriv", || sys.jacobian());
        (jac.instrs(), jac.nnz())
    } else {
        (0, 0)
    };

    let y0 = sys.initial_state();
    let bound = sys.bind();
    setup_s.get_or_insert_with(|| process_start.elapsed().as_secs_f64());
    let mut out = Obj::new()
        .with("nodes", graph.num_nodes())
        .with("edges", graph.num_edges())
        .with("states", sys.num_states())
        .with("instrs_per_rhs", sys.rhs_instruction_count())
        .with("jacobian_instrs", deriv_instrs)
        .with("jacobian_nnz", deriv_nnz);
    let inner = totals.as_deref_mut().map(|t| {
        if implicit {
            &mut t.implicit
        } else {
            &mut t.explicit
        }
    });
    let mut fin = FinalState::new();
    let stats = match kind {
        Kind::Cnn(size, ni, _) => {
            let stats = simulate(&Rk4 { dt: CNN_DT }, &bound, &y0, CNN_T_END, &mut fin, inner)?;
            let algs = sys.eval_algebraics(fin.time(), fin.state());
            let image = Image::from_fn(size, size, |r, c| {
                algs[sys
                    .algebraic_index(&format!("Out_{r}_{c}"))
                    .expect("Out node is algebraic")]
            });
            let wrong = image.diff_count(&Image::test_blob(size, size).digital_edge_map());
            out.set("wrong_pixels", wrong);
            if matches!(ni, NonIdeality::Ideal | NonIdeality::NonIdealSat) {
                checks.check(
                    &format!("{name} matches the digital edge map"),
                    wrong == 0,
                    format!("{wrong} wrong pixels"),
                );
            }
            stats
        }
        Kind::Linear | Kind::Branched => {
            let stats = simulate(
                &Rk4 { dt: TLINE_DT },
                &bound,
                &y0,
                TLINE_T_END,
                &mut fin,
                inner,
            )?;
            let node = match kind {
                Kind::Linear => linear_out_v(TLINE_SEGMENTS),
                _ => branched_out_v(TLINE_BRANCH.2),
            };
            let i = sys.state_index(&node).ok_or("OUT_V is a state")?;
            out.set("out_v", fin.state()[i]);
            stats
        }
        Kind::Vdp(_) => {
            let solver = TrBdf2::new(1e-6, 1e-9);
            let stats = simulate(&solver, &bound, &y0, VDP_T_END, &mut fin, inner)?;
            out.set(
                "x",
                fin.state()[sys.state_index("x").ok_or("x is a state")?],
            );
            stats
        }
        Kind::Robertson => {
            let solver = TrBdf2::new(1e-8, 1e-12);
            let stats = simulate(&solver, &bound, &y0, ROBERTSON_T_END, &mut fin, inner)?;
            let got: Vec<f64> = ["a", "b", "c"]
                .iter()
                .map(|s| sys.state_index(s).map(|i| fin.state()[i]))
                .collect::<Option<_>>()
                .ok_or("species are states")?;
            let err = got
                .iter()
                .zip(ROBERTSON_REF)
                .map(|(g, r)| (g - r).abs())
                .fold(0.0, f64::max);
            checks.check(
                "Robertson matches Hairer & Wanner to 5 decimals",
                err < 5e-6,
                format!("A={:.7} B={:.4e} C={:.7}", got[0], got[1], got[2]),
            );
            out.set("a", got[0]).set("b", got[1]).set("c", got[2]);
            stats
        }
        Kind::Gmc(_) => {
            let mut rec = Strided::every(GMC_STRIDE);
            let stats = simulate(&Rk4 { dt: GMC_DT }, &bound, &y0, GMC_T_END, &mut rec, inner)?;
            let dg = rec.into_trajectory();
            let nl = layers.time("spice.synth", || synthesize(lang, &graph))?;
            let spice = layers.time("spice.transient", || {
                nl.transient(GMC_T_END, GMC_DT, GMC_STRIDE)
            })?;
            // Worst per-node relative RMSE over the nodes that carry
            // signal, as `ark_spice::validate::dg_vs_netlist_rmse` rates it.
            let mut worst: f64 = 0.0;
            for (_, node) in graph.nodes() {
                let (Some(i), Some(j)) = (sys.state_index(&node.name), nl.node_index(&node.name))
                else {
                    continue;
                };
                let s = dg.resample(i, 0.0, GMC_T_END, 200);
                let rms = (s.iter().map(|x| x * x).sum::<f64>() / s.len() as f64).sqrt();
                if rms >= 1e-6 {
                    worst = worst.max(relative_rmse(&dg, i, &spice, j, 0.0, GMC_T_END, 200));
                }
            }
            checks.check(
                &format!("{name} SPICE RMSE under 1%"),
                worst < 0.01,
                format!("rmse {worst:.3e}"),
            );
            out.set("spice_rmse", worst);
            let (_, last) = dg.last().ok_or("empty trajectory")?;
            out.set("checksum", checksum(last));
            stats
        }
    };
    if !matches!(kind, Kind::Gmc(_)) {
        out.set("checksum", checksum(fin.state()));
    }
    let compiles = CompiledSystem::compile_count() - compiles;
    out.set("compiles", compiles)
        .set("rhs_evals", stats.rhs_evals)
        .set("steps_accepted", stats.accepted)
        .set("steps_rejected", stats.rejected)
        .set("newton_iters", stats.newton_iters);
    if let Some(t) = totals {
        t.designs += 1;
        t.implicit_designs += u64::from(implicit);
        t.nodes += graph.num_nodes() as u64;
        t.edges += graph.num_edges() as u64;
        t.instrs += sys.rhs_instruction_count() as u64;
        t.registers += sys.rhs_register_count() as u64;
        t.compiles += compiles;
        t.rhs_evals += stats.rhs_evals as u64;
        t.accepted += stats.accepted as u64;
        t.rejected += stats.rejected as u64;
        t.newton += stats.newton_iters as u64;
        t.deriv_instrs += deriv_instrs as u64;
        t.deriv_nnz += deriv_nnz as u64;
    }
    Ok(Row {
        key: name.to_string(),
        items: 1,
        failed: 0,
        secs: start.elapsed().as_secs_f64(),
        out,
    })
}

/// Designs per second of each complete pass over the list.
fn pass_rates(rows: &[Row], per_pass: usize) -> Vec<Row> {
    rows.chunks_exact(per_pass)
        .map(|pass| Row {
            key: "pass".into(),
            items: per_pass as u64,
            failed: 0,
            secs: pass.iter().map(|r| r.secs).sum(),
            out: Obj::new(),
        })
        .collect()
}

pub fn run(args: &Args, checks: &mut Checks) -> Result<Obj, DynError> {
    let trace = args.mode == Mode::Trace;
    let sources = Sources::new();
    let list = designs(args.seed);
    let mut layers = Layers::new(trace);
    let mut setup_s = None;

    // Whole passes only, so every rate covers the same design mix.
    let mut rows = Vec::new();
    let mut first_row_s = 0.0;
    let start = Instant::now();
    loop {
        for (name, kind) in &list {
            rows.push(run_design(
                name,
                *kind,
                &sources,
                &mut Layers::new(false),
                None,
                checks,
                args.start,
                &mut setup_s,
            )?);
            if rows.len() == 1 {
                first_row_s = args.start.elapsed().as_secs_f64();
            }
        }
        if args.mode == Mode::Trace || start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let passes = pass_rates(&rows, list.len());
    let setup_s = setup_s.unwrap_or_default();
    let mut report = base_report(
        args,
        setup_s,
        first_row_s,
        &rows,
        crate::items_per_s(&passes),
    );
    if trace {
        let mut totals = Totals::default();
        let mut traced = Vec::new();
        for (name, kind) in &list {
            traced.push(run_design(
                name,
                *kind,
                &sources,
                &mut layers,
                Some(&mut totals),
                checks,
                args.start,
                &mut None,
            )?);
        }
        let same = rows
            .iter()
            .zip(&traced)
            .all(|(a, b)| a.out.to_string() == b.out.to_string());
        checks.check("traced designs equal untraced designs", same, "");
        let t = &totals;
        let per = |x: u64| mean(x as f64, t.designs);
        let per_implicit = |x: u64| mean(x as f64, t.implicit_designs);
        report.set(
            "layers",
            layer_report(&[
                ("core.parse.ms", layers.mean_ms("core.parse")),
                ("core.func.build_ms", layers.mean_ms("core.func")),
                ("core.func.nodes", per(t.nodes)),
                ("core.func.edges", per(t.edges)),
                ("core.validate.ms", layers.mean_ms("core.validate")),
                ("core.compile.ms", layers.mean_ms("core.compile")),
                ("core.compile.count", per(t.compiles)),
                ("expr.program.instrs_per_rhs", per(t.instrs)),
                ("expr.program.registers", per(t.registers)),
                ("expr.program.rhs_calls", per(t.rhs_evals)),
                ("expr.program.ns_per_rhs", t.explicit.ns_per_rhs()),
                ("expr.program.rhs_share", t.explicit.rhs_share()),
                ("expr.deriv.ms", layers.mean_ms("expr.deriv")),
                ("expr.deriv.instrs", per_implicit(t.deriv_instrs)),
                ("expr.deriv.nnz", per_implicit(t.deriv_nnz)),
                ("ode.solver.steps_accepted", per(t.accepted)),
                ("ode.solver.steps_rejected", per(t.rejected)),
                (
                    "ode.solver.stepper_ns_per_step",
                    t.explicit.stepper_ns_per_step(),
                ),
                ("ode.implicit.newton_iters", per_implicit(t.newton)),
                (
                    "ode.implicit.ns_per_step",
                    mean(t.implicit.integrate_ns, t.implicit.steps),
                ),
                ("spice.synth_ms", layers.mean_ms("spice.synth")),
                ("spice.transient_ms", layers.mean_ms("spice.transient")),
                (
                    "trace.overhead_frac",
                    1.0 - crate::items_per_s(&pass_rates(&traced, list.len()))
                        / crate::items_per_s(&passes),
                ),
            ]),
        );
    }
    report.set("counters", Obj::new());
    Ok(report)
}
