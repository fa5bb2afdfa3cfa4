//! Right-hand-side microbenchmark: the fused `SystemProgram` interpreter vs
//! its native-codegen lowering, on the three paper workloads (Figure 11
//! CNN, Figure 4 GmC-TLN, Table 1 OBC max-cut), plus the compile-once
//! parametric ensembles vs the historical recompile-per-instance loops.
//!
//! Besides the criterion timings, the bench writes `BENCH_rhs.json` —
//! interpreted-instruction counts, register-file sizes, ns/RHS, and
//! ensemble wall times (scalar and lane-parallel) — so future PRs have a
//! perf trajectory to compare against. At full scale it refreshes the
//! committed baseline at the repo root; in smoke mode (any of the env
//! overrides below set) it writes `target/BENCH_rhs.json` instead, and it
//! refuses to overwrite a larger-scale baseline unless `ARK_BENCH_FORCE=1`
//! — so CI's tiny smoke numbers can never clobber the paper-scale file.
//!
//! Smoke-mode knobs (used by CI): `ARK_RHS_EVALS` overrides the number of
//! timed RHS evaluations, `ARK_RHS_ENSEMBLE_N` the ensemble instance count,
//! and `ARK_RHS_STREAM_N` the streaming-reduction instance count.

use ark_core::{Backend, CompiledSystem};
use ark_ode::{DormandPrince, LanedOdeSystem, Rk4, TrBdf2};
use ark_paradigms::cnn::{
    build_cnn, build_cnn_parametric, cnn_language, hw_cnn_language, run_cnn, run_cnn_ensemble,
    NonIdeality, EDGE_TEMPLATE,
};
use ark_paradigms::image::Image;
use ark_paradigms::maxcut::{solve, table1_cell_with, CouplingKind, MaxCutProblem};
use ark_paradigms::obc::{obc_language, ofs_obc_language};
use ark_paradigms::tln::{
    gmc_tln_language, linear_tline, tline_mismatch_ensemble, tln_language, MismatchKind,
    TlineConfig,
};
use ark_sim::{seed_range, Ensemble};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::f64::consts::PI;
use std::fmt::Write as _;
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Mean ns per RHS evaluation. The time grid cycles, so the fused path's
/// prologue cache almost never hits — this is its *conservative* cost.
fn time_rhs(sys: &CompiledSystem, evals: usize) -> f64 {
    let n = sys.num_states();
    let mut y = sys.initial_state();
    let mut dydt = vec![0.0; n];
    let mut scratch = sys.scratch();
    for k in 0..32 {
        // Warm caches and buffers.
        sys.rhs_with(k as f64 * 1e-3, &y, &mut dydt, &mut scratch);
    }
    let start = Instant::now();
    for k in 0..evals {
        let t = (k % 1024) as f64 * 1e-3;
        sys.rhs_with(t, &y, &mut dydt, &mut scratch);
        // Keep the state moving so values are not trivially constant.
        y[k % n] += dydt[k % n] * 1e-6;
    }
    black_box(&dydt);
    start.elapsed().as_nanos() as f64 / evals as f64
}

/// Mean ns per instance RHS on the 4-lane interpreter: `evals` laned calls
/// (each advancing four instances with distinct states) over `4 * evals`.
/// Same cycling time grid as [`time_rhs`], so the two are comparable.
fn time_rhs_laned4(sys: &CompiledSystem, evals: usize) -> f64 {
    const L: usize = 4;
    let n = sys.num_states();
    let y0 = sys.initial_state();
    let mut y: Vec<[f64; L]> = y0
        .iter()
        .map(|&v| std::array::from_fn(|l| v + l as f64 * 1e-3))
        .collect();
    let mut dydt = vec![[0.0; L]; n];
    let mut scratch = ark_expr::LaneScratch::<L>::default();
    let no_params: [&[f64]; L] = [&[]; L];
    let bound = sys.bind_lanes(&no_params, &mut scratch);
    for k in 0..32 {
        bound.rhs(k as f64 * 1e-3, &y, &mut dydt);
    }
    let start = Instant::now();
    for k in 0..evals {
        let t = (k % 1024) as f64 * 1e-3;
        bound.rhs(t, &y, &mut dydt);
        for (v, d) in y[k % n].iter_mut().zip(dydt[k % n]) {
            *v += d * 1e-6;
        }
    }
    black_box(&dydt);
    start.elapsed().as_nanos() as f64 / (evals * L) as f64
}

struct Workload {
    name: &'static str,
    sys: CompiledSystem,
}

struct WorkloadReport {
    name: &'static str,
    states: usize,
    algebraics: usize,
    fused_instrs: usize,
    fused_prologue: usize,
    fused_regs: usize,
    fused_consts: usize,
    fused_ns: f64,
    /// Per-instance ns of the same program on the 4-lane interpreter
    /// (CNN only: the path the Fig. 11 yield sweep runs).
    laned4_interp_ns: Option<f64>,
    /// Instruction count of the natively-compiled program — must equal
    /// `fused_instrs` (codegen lowers the same stream); `bench_check`
    /// enforces the parity.
    native_instrs: usize,
    native_ns: f64,
    /// Whether a generated kernel actually ran (false = interpreter
    /// fallback, e.g. no `rustc` on the host).
    native_active: bool,
}

struct EnsembleReport {
    name: &'static str,
    instances: usize,
    recompile_ms: f64,
    parametric_ms: f64,
    /// Same compile-once pipeline with 4-lane integration (single worker).
    laned4_ms: f64,
}

/// The lane-voting adaptive solver vs the scalar PI controller on a
/// Dormand–Prince ensemble (integration only, no readout).
struct VotingReport {
    name: &'static str,
    instances: usize,
    scalar_dp_ms: f64,
    voting_dp4_ms: f64,
}

/// The native-codegen backend vs the interpreter on a 4-lane parametric
/// ensemble (same fused program, same lane grouping — only the instruction
/// loops differ).
struct NativeEnsembleReport {
    name: &'static str,
    instances: usize,
    laned4_interp_ms: f64,
    laned4_native_ms: f64,
    native_active: bool,
}

/// The streaming reduction path (`EnsembleRun::reduce`) vs materializing
/// every trajectory and reducing afterwards, on the CNN workload.
struct StreamingReport {
    name: &'static str,
    instances: usize,
    streaming_ms: f64,
    materialized_ms: f64,
    /// Fixed per-worker accumulator footprint of the streaming path —
    /// deterministic and scale-independent, gated by `bench_check`.
    accumulator_bytes: usize,
    /// Bytes of trajectory sample storage the materializing path holds
    /// live at once for the same ensemble — the peak-RSS proxy (grows
    /// linearly with the instance count; the streaming path does not).
    materialized_bytes: usize,
}

/// Static-analysis summary of one workload's emitted programs (RHS,
/// observables, and Jacobian combined). `dead_instrs` and
/// `verifier_errors` are structural invariants — zero for every program
/// the builder emits — and `bench_check` gates them at zero; the warning
/// counts are informational.
struct AnalysisReport {
    name: &'static str,
    dead_instrs: usize,
    verifier_errors: usize,
    domain_warnings: usize,
    determinism_errors: usize,
}

fn measure_analysis() -> Vec<AnalysisReport> {
    workloads()
        .into_iter()
        .map(|w| {
            let jac = w.sys.jacobian();
            let reports = [
                ark_expr::analyze(w.sys.rhs_program()),
                ark_expr::analyze(w.sys.obs_program()),
                ark_expr::analyze(jac.program()),
            ];
            AnalysisReport {
                name: w.name,
                dead_instrs: reports.iter().map(|r| r.dead_instrs()).sum(),
                verifier_errors: reports.iter().map(|r| r.hard_errors()).sum(),
                domain_warnings: reports.iter().map(|r| r.domain.len()).sum(),
                determinism_errors: reports.iter().map(|r| r.determinism_errors()).sum(),
            }
        })
        .collect()
}

fn workloads() -> Vec<Workload> {
    let base = cnn_language();
    let hw = hw_cnn_language(&base);
    let input = Image::test_blob(8, 6);
    let cnn = build_cnn(&hw, &input, &EDGE_TEMPLATE, NonIdeality::GMismatch, 1).unwrap();
    let cnn_sys = CompiledSystem::compile(&hw, &cnn.graph).unwrap();

    let tbase = tln_language();
    let gmc = gmc_tln_language(&tbase);
    let cfg = TlineConfig {
        mismatch: MismatchKind::Gm,
        ..TlineConfig::default()
    };
    let tln = linear_tline(&gmc, 26, &cfg, 1).unwrap();
    let tln_sys = CompiledSystem::compile(&gmc, &tln).unwrap();

    let obase = obc_language();
    let ofs = ofs_obc_language(&obase);
    let problem = MaxCutProblem::random(6, 3);
    let obc = ark_paradigms::maxcut::build_maxcut_network(&ofs, &problem, CouplingKind::Offset, 3)
        .unwrap();
    let obc_sys = CompiledSystem::compile(&ofs, &obc).unwrap();

    vec![
        Workload {
            name: "cnn_fig11",
            sys: cnn_sys,
        },
        Workload {
            name: "tln_fig4",
            sys: tln_sys,
        },
        Workload {
            name: "obc_table1",
            sys: obc_sys,
        },
    ]
}

fn measure_ensembles(n: usize) -> Vec<EnsembleReport> {
    let mut out = Vec::new();
    let seeds = seed_range(0, n);
    // All rows are single-worker so the laned column isolates the
    // lane-parallel interpreter's speedup from thread parallelism.
    let scalar = Ensemble::serial().with_lanes(1);
    let laned = Ensemble::serial().with_lanes(4);

    // CNN: recompile-per-instance vs compile-once parametric (scalar and
    // 4-lane integration; the 4-lane pipeline reads out through the laned
    // group readout).
    let base = cnn_language();
    let hw = hw_cnn_language(&base);
    let input = Image::from_ascii(&["....", ".##.", ".##.", "...."]);
    let t = Instant::now();
    for &seed in &seeds {
        let inst = build_cnn(&hw, &input, &EDGE_TEMPLATE, NonIdeality::GMismatch, seed).unwrap();
        black_box(run_cnn(&hw, &inst, 1.0, &[]).unwrap());
    }
    let recompile_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut cnn_ms = [0.0f64; 2];
    for (slot, ens) in [(0usize, &scalar), (1usize, &laned)] {
        let t = Instant::now();
        black_box(
            run_cnn_ensemble(
                &hw,
                &input,
                &EDGE_TEMPLATE,
                NonIdeality::GMismatch,
                1.0,
                &[],
                &seeds,
                ens,
            )
            .unwrap(),
        );
        cnn_ms[slot] = t.elapsed().as_secs_f64() * 1e3;
    }
    out.push(EnsembleReport {
        name: "cnn_fig11",
        instances: n,
        recompile_ms,
        parametric_ms: cnn_ms[0],
        laned4_ms: cnn_ms[1],
    });

    // TLN: recompile-per-instance vs compile-once parametric.
    let tbase = tln_language();
    let gmc = gmc_tln_language(&tbase);
    let cfg = TlineConfig {
        mismatch: MismatchKind::Gm,
        ..TlineConfig::default()
    };
    let (segments, t_end, dt, stride) = (8, 2e-8, 5e-11, 16);
    let t = Instant::now();
    for &seed in &seeds {
        let g = linear_tline(&gmc, segments, &cfg, seed).unwrap();
        let sys = CompiledSystem::compile(&gmc, &g).unwrap();
        black_box(
            Rk4 { dt }
                .integrate(&sys.bind(), 0.0, &sys.initial_state(), t_end, stride)
                .unwrap(),
        );
    }
    let recompile_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut tln_ms = [0.0f64; 2];
    for (slot, ens) in [(0usize, &scalar), (1usize, &laned)] {
        let t = Instant::now();
        black_box(
            tline_mismatch_ensemble(&gmc, segments, &cfg, t_end, dt, stride, &seeds, ens).unwrap(),
        );
        tln_ms[slot] = t.elapsed().as_secs_f64() * 1e3;
    }
    out.push(EnsembleReport {
        name: "tln_fig4",
        instances: n,
        recompile_ms,
        parametric_ms: tln_ms[0],
        laned4_ms: tln_ms[1],
    });

    // OBC Table 1 cell: per-trial solve (rebuild + recompile) vs the
    // memoized per-topology-class sparse templates. Run at a multiple of
    // the base instance count — class memoization (and per-class lane
    // grouping) only amortizes once trials outnumber the distinct
    // topologies, which is the regime every real Table 1 cell runs in
    // (1000 trials vs ≤ 63 classes at n = 4).
    let obase = obc_language();
    let ofs = ofs_obc_language(&obase);
    let d = 0.1 * PI;
    let obc_trials = 32 * n;
    let obc_seeds = seed_range(0, obc_trials);
    let t = Instant::now();
    for &seed in &obc_seeds {
        let problem = MaxCutProblem::random(4, seed);
        black_box(solve(&ofs, &problem, CouplingKind::Offset, d, seed).unwrap());
    }
    let recompile_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut obc_ms = [0.0f64; 2];
    for (slot, ens) in [(0usize, &scalar), (1usize, &laned)] {
        let t = Instant::now();
        black_box(table1_cell_with(&ofs, CouplingKind::Offset, d, 4, obc_trials, 0, ens).unwrap());
        obc_ms[slot] = t.elapsed().as_secs_f64() * 1e3;
    }
    out.push(EnsembleReport {
        name: "obc_table1",
        instances: obc_trials,
        recompile_ms,
        parametric_ms: obc_ms[0],
        laned4_ms: obc_ms[1],
    });

    out
}

/// The lane-voting Dormand–Prince ensemble vs the scalar PI path on the
/// CNN workload (integration only — final state readout).
fn measure_voting(n: usize) -> Vec<VotingReport> {
    let seeds = seed_range(0, n);
    let base = cnn_language();
    let hw = hw_cnn_language(&base);
    let input = Image::from_ascii(&["....", ".##.", ".##.", "...."]);
    let pcnn = build_cnn_parametric(&hw, &input, &EDGE_TEMPLATE, NonIdeality::GMismatch).unwrap();
    let sys = CompiledSystem::compile_parametric(&hw, &pcnn.pgraph).unwrap();
    let dp = DormandPrince::new(1e-6, 1e-9);
    let run = |ens: &Ensemble, voting: bool| {
        let t = Instant::now();
        if voting {
            black_box(
                ens.run(&sys, &dp.voting(), &seeds, 0.0, 1.0)
                    .stride(5)
                    .trajectories()
                    .unwrap(),
            );
        } else {
            black_box(
                ens.run(&sys, &dp, &seeds, 0.0, 1.0)
                    .stride(5)
                    .trajectories()
                    .unwrap(),
            );
        }
        t.elapsed().as_secs_f64() * 1e3
    };
    let serial4 = Ensemble::serial().with_lanes(4);
    vec![VotingReport {
        name: "cnn_fig11",
        instances: n,
        scalar_dp_ms: run(&serial4, false),
        voting_dp4_ms: run(&serial4, true),
    }]
}

/// Interpreter vs native codegen on the 4-lane parametric CNN ensemble.
/// Two independently compiled systems over the same parametric graph, one
/// per backend, so each carries its own dispatch choice end to end.
fn measure_native(n: usize) -> Vec<NativeEnsembleReport> {
    let seeds = seed_range(0, n);
    let base = cnn_language();
    let hw = hw_cnn_language(&base);
    let input = Image::from_ascii(&["....", ".##.", ".##.", "...."]);
    let pcnn = build_cnn_parametric(&hw, &input, &EDGE_TEMPLATE, NonIdeality::GMismatch).unwrap();
    let interp = CompiledSystem::compile_parametric(&hw, &pcnn.pgraph)
        .unwrap()
        .with_backend(Backend::Interp);
    let native = CompiledSystem::compile_parametric(&hw, &pcnn.pgraph)
        .unwrap()
        .with_backend(Backend::Native);
    let solver = Rk4 { dt: 2e-3 };
    let ens = Ensemble::serial().with_lanes(4);
    let run = |sys: &CompiledSystem| {
        let t = Instant::now();
        black_box(
            ens.run(sys, &solver, &seeds, 0.0, 1.0)
                .stride(5)
                .trajectories()
                .unwrap(),
        );
        t.elapsed().as_secs_f64() * 1e3
    };
    // Warm both paths once so the native row never times the one-off
    // kernel compilation (cached on disk afterwards anyway).
    let warm = seed_range(0, 4.min(n));
    for sys in [&interp, &native] {
        black_box(
            ens.run(sys, &solver, &warm, 0.0, 0.01)
                .stride(5)
                .trajectories()
                .unwrap(),
        );
    }
    vec![NativeEnsembleReport {
        name: "cnn_fig11",
        instances: n,
        laned4_interp_ms: run(&interp),
        laned4_native_ms: run(&native),
        native_active: native.native_active(),
    }]
}

/// Streaming reduction vs materialize-then-reduce on the CNN workload:
/// same integrations, same online statistics, but the streaming path holds
/// only one fixed-size accumulator per worker while the materializing path
/// keeps every trajectory alive until the reduction.
fn measure_streaming(n: usize) -> Vec<StreamingReport> {
    use ark_ode::SolveError;
    use ark_sim::reduce::{
        premap, reduce_materialized, Histogram, MomentStats, Moments, Quantiles, Yield,
        YieldCounter,
    };
    let seeds = seed_range(0, n);
    let base = cnn_language();
    let hw = hw_cnn_language(&base);
    let input = Image::from_ascii(&["....", ".##.", ".##.", "...."]);
    let pcnn = build_cnn_parametric(&hw, &input, &EDGE_TEMPLATE, NonIdeality::GMismatch).unwrap();
    let sys = CompiledSystem::compile_parametric(&hw, &pcnn.pgraph).unwrap();
    let solver = Rk4 { dt: 2e-3 };
    let bins = 64usize;
    let reducer = (
        Moments,
        Quantiles::new(-2.0, 2.0, bins),
        premap(|v: f64| v > 0.0, YieldCounter),
    );
    // The fixed per-worker streaming state: one accumulator tuple, with
    // the histogram's bin payload counted explicitly.
    let accumulator_bytes = std::mem::size_of::<MomentStats>()
        + std::mem::size_of::<Histogram>()
        + bins * std::mem::size_of::<u64>()
        + std::mem::size_of::<Yield>();
    let ens = Ensemble::serial().with_lanes(4);
    let t = Instant::now();
    black_box(
        ens.run(&sys, &solver, &seeds, 0.0, 1.0)
            .reduce(
                |snap, _scratch| Ok::<_, SolveError>(snap.state[0]),
                &reducer,
            )
            .unwrap(),
    );
    let streaming_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let trajectories = ens
        .run(&sys, &solver, &seeds, 0.0, 1.0)
        .stride(5)
        .trajectories()
        .unwrap();
    let endpoints: Vec<f64> = trajectories
        .iter()
        .map(|tr| tr.last().unwrap().1[0])
        .collect();
    black_box(reduce_materialized(&reducer, &endpoints));
    let materialized_ms = t.elapsed().as_secs_f64() * 1e3;
    let per_sample = (sys.num_states() + 1) * std::mem::size_of::<f64>();
    let materialized_bytes: usize = trajectories.iter().map(|tr| tr.len() * per_sample).sum();
    vec![StreamingReport {
        name: "cnn_fig11",
        instances: n,
        streaming_ms,
        materialized_ms,
        accumulator_bytes,
        materialized_bytes,
    }]
}

/// The implicit-vs-explicit comparison on the stiff Van der Pol benchmark
/// (μ = 1000, t ∈ [0, 3]): compiled-Jacobian program size, step and Newton
/// counts (all deterministic and machine-independent — `bench_check` gates
/// them), plus wall-clock ns/accepted-step for both solvers.
struct StiffReport {
    name: &'static str,
    states: usize,
    rhs_instrs: usize,
    jacobian_instrs: usize,
    jacobian_nnz: usize,
    trbdf2_accepted: usize,
    trbdf2_rejected: usize,
    trbdf2_newton_iters: usize,
    trbdf2_rhs_evals: usize,
    dp45_accepted: usize,
    dp45_rejected: usize,
    dp45_rhs_evals: usize,
    trbdf2_ms: f64,
    dp45_ms: f64,
}

/// Van der Pol at μ = 1000 over t ∈ [0, 3] at rtol 1e-6 / atol 1e-9, same
/// compiled system for both solvers. The workload is tiny (two states, ~90
/// implicit steps) so it runs at full span even in smoke mode — which is
/// what keeps the gated counts identical between CI smoke runs and the
/// committed paper-scale baseline.
fn measure_stiff() -> Vec<StiffReport> {
    use ark_paradigms::stiff::{vdp_language, vdp_oscillator};
    let lang = vdp_language();
    let g = vdp_oscillator(&lang, 1000.0).unwrap();
    let sys = CompiledSystem::compile(&lang, &g).unwrap();
    let jac = sys.jacobian();
    let (jacobian_instrs, jacobian_nnz) = (jac.instrs(), jac.nnz());
    let y0 = sys.initial_state();
    let bound = sys.bind();
    let (t0, t1) = (0.0, 3.0);

    let implicit = TrBdf2::new(1e-6, 1e-9);
    black_box(implicit.integrate(&bound, t0, &y0, t1, usize::MAX).unwrap());
    let t = Instant::now();
    let tr = implicit.integrate(&bound, t0, &y0, t1, usize::MAX).unwrap();
    let trbdf2_ms = t.elapsed().as_secs_f64() * 1e3;

    let explicit = DormandPrince::new(1e-6, 1e-9);
    black_box(explicit.integrate(&bound, t0, &y0, t1).unwrap());
    let t = Instant::now();
    let dp = explicit.integrate(&bound, t0, &y0, t1).unwrap();
    let dp45_ms = t.elapsed().as_secs_f64() * 1e3;

    vec![StiffReport {
        name: "vdp_mu1000",
        states: sys.num_states(),
        rhs_instrs: sys.rhs_instruction_count(),
        jacobian_instrs,
        jacobian_nnz,
        trbdf2_accepted: tr.stats().accepted,
        trbdf2_rejected: tr.stats().rejected,
        trbdf2_newton_iters: tr.stats().newton_iters,
        trbdf2_rhs_evals: tr.stats().rhs_evals,
        dp45_accepted: dp.stats().accepted,
        dp45_rejected: dp.stats().rejected,
        dp45_rhs_evals: dp.stats().rhs_evals,
        trbdf2_ms,
        dp45_ms,
    }]
}

/// Fault-tolerance accounting on seeded-fault ensembles. Outcome counts
/// are pure functions of the seeds and the fault plans, so `bench_check`
/// gates them: `failed` growing means instances the recovery chain used to
/// absorb now abort, `recovered`/`retry_attempts` growing means the primary
/// solver started failing on instances it used to handle.
struct FaultRecoveryReport {
    name: &'static str,
    instances: usize,
    completed: u64,
    recovered: u64,
    failed: u64,
    retry_attempts: u64,
    ms: f64,
}

/// Two seeded-fault ensembles at a **fixed** 256-seed scale — deliberately
/// independent of the smoke-mode env knobs, so the gated outcome counts
/// are identical between CI smoke runs and the committed paper-scale
/// baseline (mirroring `measure_stiff`).
fn measure_fault_recovery() -> Vec<FaultRecoveryReport> {
    use ark_ode::SolveError;
    use ark_paradigms::cnn::{hw_cnn_language_sigma, run_cnn_yield_with};
    use ark_paradigms::tln::linear_tline_parametric;
    use ark_sim::reduce::Moments;
    use ark_sim::{FaultMode, FaultPlan, RecoveryPolicy};
    let mut out = Vec::new();

    // Fig11-style CNN yield with NaN-blowup faults: unrecoverable by
    // construction, so `failed` pins the plan's hit count exactly and
    // every faulty group exercises lane demotion.
    let base = cnn_language();
    let hw = hw_cnn_language_sigma(&base, 0.05);
    let input = Image::test_blob(6, 6);
    let seeds = seed_range(11, 256);
    let plans = [FaultPlan::one_in(16, FaultMode::Blowup)];
    let ens = Ensemble::serial().with_lanes(4);
    let t = Instant::now();
    let y = run_cnn_yield_with(
        &hw,
        &input,
        &EDGE_TEMPLATE,
        NonIdeality::GMismatch,
        2.0,
        &seeds,
        &ens,
        &RecoveryPolicy::default(),
        &plans,
    )
    .unwrap();
    out.push(FaultRecoveryReport {
        name: "cnn_blowup",
        instances: seeds.len(),
        completed: y.recovery.completed,
        recovered: y.recovery.recovered,
        failed: y.recovery.failed,
        retry_attempts: y.recovery.retry_attempts,
        ms: t.elapsed().as_secs_f64() * 1e3,
    });

    // GmC t-line with stiffened (finite) faulty instances: the fixed-step
    // primary blows up, the adaptive fallback chain rescues every hit —
    // `recovered` and `retry_attempts` gate the chain itself. `min_dt` is
    // scaled to the line's ~30 ns span (see the `RecoveryPolicy` docs).
    let gmc = gmc_tln_language(&tln_language());
    let cfg = TlineConfig {
        mismatch: MismatchKind::Cint,
        ..TlineConfig::default()
    };
    let pg = linear_tline_parametric(&gmc, 6, &cfg).unwrap();
    let sys = CompiledSystem::compile_parametric(&gmc, &pg).unwrap();
    let seeds = seed_range(0, 256);
    let plans = [FaultPlan::one_in(16, FaultMode::Stiffen { factor: 1e-2 })];
    let policy = RecoveryPolicy {
        min_dt: 1e-16,
        ..RecoveryPolicy::default()
    };
    let t = Instant::now();
    let (_, report) = Ensemble::serial()
        .with_lanes(4)
        .run(&sys, &Rk4 { dt: 5e-11 }, &seeds, 0.0, 3e-8)
        .prep(|seed| {
            let mut params = sys.sample_params(seed);
            ark_sim::faultpoint::corrupt_all(&plans, seed, &mut params, &mut []);
            let y0 = sys.initial_state_for(&params);
            (params, y0)
        })
        .with_recovery(&policy)
        .reduce(
            |snap, _scratch| Ok::<_, SolveError>(snap.state[0]),
            &Moments,
        )
        .unwrap();
    out.push(FaultRecoveryReport {
        name: "tln_stiffen",
        instances: seeds.len(),
        completed: report.completed,
        recovered: report.recovered,
        failed: report.failed,
        retry_attempts: report.retry_attempts,
        ms: t.elapsed().as_secs_f64() * 1e3,
    });
    out
}

/// The first unsigned integer following `key` in `text` (tiny scan over
/// our own generated JSON; no parser needed).
fn scan_u64(text: &str, key: &str) -> Option<u64> {
    let at = text.find(key)? + key.len();
    let digits: String = text[at..]
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Where this run's report may be written. Smoke mode (any env override
/// set) always goes to `target/BENCH_rhs.json`; a full-scale run refreshes
/// the committed repo-root baseline unless the existing file records a
/// *larger* scale (more timed evaluations or more ensemble instances), in
/// which case the run is diverted to `target/` too — set
/// `ARK_BENCH_FORCE=1` to overwrite anyway.
fn report_path(root: &str, smoke: bool, evals: usize, instances: usize) -> String {
    let committed = format!("{root}/BENCH_rhs.json");
    let diverted = format!("{root}/target/BENCH_rhs.json");
    if smoke {
        println!("smoke mode: writing {diverted} (committed baseline untouched)");
        return diverted;
    }
    if std::env::var("ARK_BENCH_FORCE").as_deref() == Ok("1") {
        return committed;
    }
    if let Ok(existing) = std::fs::read_to_string(&committed) {
        let old_evals = scan_u64(&existing, "\"rhs_evals\":");
        let old_inst = scan_u64(&existing, "\"instances\":");
        if old_evals.is_some_and(|e| e > evals as u64)
            || old_inst.is_some_and(|i| i > instances as u64)
        {
            println!(
                "refusing to overwrite larger-scale {committed} \
                 (set ARK_BENCH_FORCE=1 to force); writing {diverted}"
            );
            return diverted;
        }
    }
    committed
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    reports: &[WorkloadReport],
    ensembles: &[EnsembleReport],
    native_ens: &[NativeEnsembleReport],
    voting: &[VotingReport],
    streaming: &[StreamingReport],
    stiff: &[StiffReport],
    fault: &[FaultRecoveryReport],
    analysis: &[AnalysisReport],
    evals: usize,
    smoke: bool,
) {
    let mut j = String::from("{\n");
    let _ = writeln!(
        j,
        "  \"generated_by\": \"cargo bench -p ark-bench --bench rhs\","
    );
    let instances = ensembles.first().map_or(0, |e| e.instances);
    let _ = writeln!(
        j,
        "  \"config\": {{\n    \"rhs_evals\": {evals},\n    \"ensemble_instances\": {instances},\n    \
         \"smoke\": {smoke}\n  }},"
    );
    let _ = writeln!(j, "  \"workloads\": {{");
    for (i, r) in reports.iter().enumerate() {
        let comma = if i + 1 < reports.len() { "," } else { "" };
        let laned = r.laned4_interp_ns.map_or(String::new(), |ns| {
            format!("\n      \"laned4_interp_ns_per_rhs\": {ns:.1},")
        });
        let _ = writeln!(
            j,
            "    \"{}\": {{\n      \"states\": {},\n      \"algebraics\": {},\n      \
             \"fused_instructions_per_rhs\": {},\n      \
             \"fused_prologue_instructions\": {},\n      \
             \"fused_registers\": {},\n      \"fused_pooled_consts\": {},\n      \
             \"fused_ns_per_rhs\": {:.1},{}\n      \
             \"native_instructions_per_rhs\": {},\n      \
             \"native_ns_per_rhs\": {:.1},\n      \"native_speedup\": {:.2},\n      \
             \"native_speedup_x1000\": {},\n      \"native_active\": {}\n    }}{}",
            r.name,
            r.states,
            r.algebraics,
            r.fused_instrs,
            r.fused_prologue,
            r.fused_regs,
            r.fused_consts,
            r.fused_ns,
            laned,
            r.native_instrs,
            r.native_ns,
            r.fused_ns / r.native_ns.max(1e-9),
            (1000.0 * r.fused_ns / r.native_ns.max(1e-9)).round() as u64,
            u8::from(r.native_active),
            comma
        );
    }
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"ensembles\": {{");
    for (i, e) in ensembles.iter().enumerate() {
        let comma = if i + 1 < ensembles.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    \"{}\": {{\n      \"instances\": {},\n      \"recompile_per_instance_ms\": {:.1},\n      \
             \"compile_once_parametric_ms\": {:.1},\n      \"ensemble_speedup\": {:.2},\n      \
             \"laned4_ms\": {:.1},\n      \"laned_speedup\": {:.2}\n    }}{}",
            e.name,
            e.instances,
            e.recompile_ms,
            e.parametric_ms,
            e.recompile_ms / e.parametric_ms.max(1e-9),
            e.laned4_ms,
            e.parametric_ms / e.laned4_ms.max(1e-9),
            comma
        );
    }
    let _ = writeln!(j, "  }},");
    // Native-codegen A/B on the laned ensemble path. `native_active` (0/1)
    // records whether a generated kernel ran or the row silently measured
    // the interpreter fallback — timings from a fallback run are honest
    // but the speedup is then ~1.0 by construction.
    let _ = writeln!(j, "  \"native_ensemble\": {{");
    for (i, ne) in native_ens.iter().enumerate() {
        let comma = if i + 1 < native_ens.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    \"{}\": {{\n      \"instances\": {},\n      \"laned4_interp_ms\": {:.1},\n      \
             \"laned4_native_ms\": {:.1},\n      \"native_ensemble_speedup\": {:.2},\n      \
             \"native_active\": {}\n    }}{}",
            ne.name,
            ne.instances,
            ne.laned4_interp_ms,
            ne.laned4_native_ms,
            ne.laned4_interp_ms / ne.laned4_native_ms.max(1e-9),
            u8::from(ne.native_active),
            comma
        );
    }
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"voting_dp\": {{");
    for (i, v) in voting.iter().enumerate() {
        let comma = if i + 1 < voting.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    \"{}\": {{\n      \"instances\": {},\n      \"scalar_dp_ms\": {:.1},\n      \
             \"voting_dp4_ms\": {:.1},\n      \"voting_speedup\": {:.2}\n    }}{}",
            v.name,
            v.instances,
            v.scalar_dp_ms,
            v.voting_dp4_ms,
            v.scalar_dp_ms / v.voting_dp4_ms.max(1e-9),
            comma
        );
    }
    let _ = writeln!(j, "  }},");
    // `accumulator_bytes` is the streaming path's fixed per-worker state —
    // deterministic and machine-independent, so bench_check gates it. The
    // timings and the materialized-bytes proxy scale with the instance
    // count and stay ungated.
    let _ = writeln!(j, "  \"streaming_ensemble\": {{");
    for (i, s) in streaming.iter().enumerate() {
        let comma = if i + 1 < streaming.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    \"{}\": {{\n      \"instances\": {},\n      \"accumulator_bytes\": {},\n      \
             \"ns_per_instance\": {:.0},\n      \"streaming_ms\": {:.1},\n      \
             \"materialized_ms\": {:.1},\n      \"materialized_bytes\": {}\n    }}{}",
            s.name,
            s.instances,
            s.accumulator_bytes,
            s.streaming_ms * 1e6 / s.instances.max(1) as f64,
            s.streaming_ms,
            s.materialized_ms,
            s.materialized_bytes,
            comma
        );
    }
    let _ = writeln!(j, "  }},");
    // The stiff section's counts are deterministic (fixed-point float
    // arithmetic, no threading) and scale-independent, so bench_check
    // gates them even from smoke runs; only the ms timings float.
    let _ = writeln!(j, "  \"stiff_vdp\": {{");
    for (i, s) in stiff.iter().enumerate() {
        let comma = if i + 1 < stiff.len() { "," } else { "" };
        let implicit_steps = s.trbdf2_accepted + s.trbdf2_rejected;
        let explicit_steps = s.dp45_accepted + s.dp45_rejected;
        let _ = writeln!(
            j,
            "    \"{}\": {{\n      \"states\": {},\n      \"rhs_instructions\": {},\n      \
             \"jacobian_instructions\": {},\n      \"jacobian_nnz\": {},\n      \
             \"trbdf2_accepted_steps\": {},\n      \"trbdf2_rejected_steps\": {},\n      \
             \"trbdf2_newton_iters\": {},\n      \"trbdf2_rhs_evals\": {},\n      \
             \"dp45_accepted_steps\": {},\n      \"dp45_rejected_steps\": {},\n      \
             \"dp45_rhs_evals\": {},\n      \"step_advantage\": {:.1},\n      \
             \"trbdf2_ns_per_step\": {:.0},\n      \"dp45_ns_per_step\": {:.0}\n    }}{}",
            s.name,
            s.states,
            s.rhs_instrs,
            s.jacobian_instrs,
            s.jacobian_nnz,
            s.trbdf2_accepted,
            s.trbdf2_rejected,
            s.trbdf2_newton_iters,
            s.trbdf2_rhs_evals,
            s.dp45_accepted,
            s.dp45_rejected,
            s.dp45_rhs_evals,
            explicit_steps as f64 / implicit_steps.max(1) as f64,
            s.trbdf2_ms * 1e6 / implicit_steps.max(1) as f64,
            s.dp45_ms * 1e6 / explicit_steps.max(1) as f64,
            comma
        );
    }
    let _ = writeln!(j, "  }},");
    // Seeded-fault outcome counts: deterministic (fixed seeds, fixed
    // plans, fixed 256-instance scale even in smoke mode), so bench_check
    // gates all four counters; only the ms timing floats.
    let _ = writeln!(j, "  \"fault_recovery\": {{");
    for (i, f) in fault.iter().enumerate() {
        let comma = if i + 1 < fault.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    \"{}\": {{\n      \"instances\": {},\n      \"completed\": {},\n      \
             \"recovered\": {},\n      \"failed\": {},\n      \"retry_attempts\": {},\n      \
             \"ms\": {:.1}\n    }}{}",
            f.name, f.instances, f.completed, f.recovered, f.failed, f.retry_attempts, f.ms, comma
        );
    }
    let _ = writeln!(j, "  }},");
    // Static-analysis invariants over every emitted program (RHS +
    // observables + Jacobian per workload). All four counts are
    // deterministic; `bench_check` gates `dead_instrs` and
    // `verifier_errors` at zero.
    let _ = writeln!(j, "  \"analysis\": {{");
    for (i, a) in analysis.iter().enumerate() {
        let comma = if i + 1 < analysis.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    \"{}\": {{\n      \"dead_instrs\": {},\n      \"verifier_errors\": {},\n      \
             \"domain_warnings\": {},\n      \"determinism_errors\": {}\n    }}{}",
            a.name,
            a.dead_instrs,
            a.verifier_errors,
            a.domain_warnings,
            a.determinism_errors,
            comma
        );
    }
    let _ = writeln!(j, "  }}\n}}");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = report_path(root, smoke, evals, instances);
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&path, j).expect("write BENCH_rhs.json");
    println!("wrote {path}");
}

fn bench_rhs(c: &mut Criterion) {
    // Smoke mode = any scale override present in the environment; the
    // report then goes to target/ instead of the committed baseline.
    let smoke = std::env::var("ARK_RHS_EVALS").is_ok()
        || std::env::var("ARK_RHS_ENSEMBLE_N").is_ok()
        || std::env::var("ARK_RHS_STREAM_N").is_ok();
    let evals = env_usize("ARK_RHS_EVALS", 20_000);
    let ensemble_n = env_usize("ARK_RHS_ENSEMBLE_N", 8);
    let stream_n = env_usize("ARK_RHS_STREAM_N", 1024);

    // Second, independently compiled copy of each workload carrying the
    // native-codegen backend (`CompiledSystem` deliberately isn't `Clone`;
    // the builders are deterministic, so the programs are identical).
    let native_systems: Vec<CompiledSystem> = workloads()
        .into_iter()
        .map(|w| w.sys.with_backend(Backend::Native))
        .collect();

    let mut reports = Vec::new();
    for (w, native) in workloads().into_iter().zip(&native_systems) {
        let fused_ns = time_rhs(&w.sys, evals);
        let laned4_interp_ns = (w.name == "cnn_fig11").then(|| time_rhs_laned4(&w.sys, evals));
        let native_ns = time_rhs(native, evals);
        println!(
            "{}: {} fused instrs ({} prologue), \
             {:.0} ns -> {:.0} ns native per rhs ({})",
            w.name,
            w.sys.rhs_instruction_count(),
            w.sys.rhs_prologue_len(),
            fused_ns,
            native_ns,
            if native.native_active() {
                "compiled kernel"
            } else {
                "interpreter fallback"
            },
        );
        if let Some(ns) = laned4_interp_ns {
            println!("{}: {ns:.0} ns per rhs on the 4-lane interpreter", w.name);
        }
        reports.push(WorkloadReport {
            name: w.name,
            states: w.sys.num_states(),
            algebraics: w.sys.num_algebraics(),
            fused_instrs: w.sys.rhs_instruction_count(),
            fused_prologue: w.sys.rhs_prologue_len(),
            fused_regs: w.sys.rhs_register_count(),
            fused_consts: w.sys.rhs_const_count(),
            fused_ns,
            laned4_interp_ns,
            native_instrs: native.rhs_instruction_count(),
            native_ns,
            native_active: native.native_active(),
        });
        let mut group = c.benchmark_group(format!("rhs/{}", w.name));
        let sys = &w.sys;
        group.bench_function("fused", |b| {
            let n = sys.num_states();
            let y = sys.initial_state();
            let mut dydt = vec![0.0; n];
            let mut scratch = sys.scratch();
            b.iter(|| {
                sys.rhs_with(black_box(0.5), &y, &mut dydt, &mut scratch);
                black_box(dydt[0])
            })
        });
        group.bench_function("native", |b| {
            let n = native.num_states();
            let y = native.initial_state();
            let mut dydt = vec![0.0; n];
            let mut scratch = native.scratch();
            b.iter(|| {
                native.rhs_with(black_box(0.5), &y, &mut dydt, &mut scratch);
                black_box(dydt[0])
            })
        });
        group.finish();
    }
    let ensembles = measure_ensembles(ensemble_n);
    for e in &ensembles {
        println!(
            "{} ensemble x{}: recompile {:.1} ms, parametric {:.1} ms ({:.2}x), \
             4-lane {:.1} ms ({:.2}x over scalar parametric)",
            e.name,
            e.instances,
            e.recompile_ms,
            e.parametric_ms,
            e.recompile_ms / e.parametric_ms.max(1e-9),
            e.laned4_ms,
            e.parametric_ms / e.laned4_ms.max(1e-9),
        );
    }
    let native_ens = measure_native(ensemble_n);
    for ne in &native_ens {
        println!(
            "{} native ensemble x{}: 4-lane interp {:.1} ms, 4-lane native {:.1} ms ({:.2}x, {})",
            ne.name,
            ne.instances,
            ne.laned4_interp_ms,
            ne.laned4_native_ms,
            ne.laned4_interp_ms / ne.laned4_native_ms.max(1e-9),
            if ne.native_active {
                "compiled kernel"
            } else {
                "interpreter fallback"
            },
        );
    }
    let voting = measure_voting(ensemble_n);
    for v in &voting {
        println!(
            "{} voting-DP x{}: scalar {:.1} ms, 4-lane voting {:.1} ms ({:.2}x)",
            v.name,
            v.instances,
            v.scalar_dp_ms,
            v.voting_dp4_ms,
            v.scalar_dp_ms / v.voting_dp4_ms.max(1e-9),
        );
    }
    let streaming = measure_streaming(stream_n);
    for s in &streaming {
        println!(
            "{} streaming x{}: reduce {:.1} ms ({} accumulator bytes/worker) vs \
             materialize-then-reduce {:.1} ms ({} trajectory bytes)",
            s.name,
            s.instances,
            s.streaming_ms,
            s.accumulator_bytes,
            s.materialized_ms,
            s.materialized_bytes,
        );
    }
    let stiff = measure_stiff();
    for s in &stiff {
        let implicit_steps = s.trbdf2_accepted + s.trbdf2_rejected;
        let explicit_steps = s.dp45_accepted + s.dp45_rejected;
        println!(
            "{} stiff: trbdf2 {} steps / {} newton iters / {} rhs evals ({:.1} ms) vs \
             dp45 {} steps / {} rhs evals ({:.1} ms) — {:.1}x fewer steps; \
             jacobian program {} instrs, {} nonzeros",
            s.name,
            implicit_steps,
            s.trbdf2_newton_iters,
            s.trbdf2_rhs_evals,
            s.trbdf2_ms,
            explicit_steps,
            s.dp45_rhs_evals,
            s.dp45_ms,
            explicit_steps as f64 / implicit_steps.max(1) as f64,
            s.jacobian_instrs,
            s.jacobian_nnz,
        );
    }
    let fault = measure_fault_recovery();
    for f in &fault {
        println!(
            "{} fault recovery x{}: {} completed / {} recovered ({} retries) / {} failed \
             ({:.1} ms)",
            f.name, f.instances, f.completed, f.recovered, f.retry_attempts, f.failed, f.ms,
        );
    }
    let analysis = measure_analysis();
    for a in &analysis {
        println!(
            "{} analysis: {} dead instrs / {} verifier errors / {} domain warnings / \
             {} determinism errors",
            a.name, a.dead_instrs, a.verifier_errors, a.domain_warnings, a.determinism_errors,
        );
    }
    write_json(
        &reports,
        &ensembles,
        &native_ens,
        &voting,
        &streaming,
        &stiff,
        &fault,
        &analysis,
        evals,
        smoke,
    );
}

criterion_group!(benches, bench_rhs);
criterion_main!(benches);
