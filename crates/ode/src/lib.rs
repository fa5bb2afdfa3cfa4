//! # ark-ode: transient simulation substrate for Ark
//!
//! The Ark dynamical-system compiler (paper §5) lowers a dynamical graph to
//! a system of differential equations; this crate integrates those systems.
//! It provides:
//!
//! * [`Solver`] — the unified solver trait: one `solve` entry point over
//!   scalar (`f64`) and lane-batched (`[f64; L]`) integration, assembled
//!   from a [`Stepper`] (Butcher-stage arithmetic written once over both
//!   widths) and a [`StepControl`] policy ([`Fixed`], [`Adaptive`] PI
//!   control, lane-voting [`VotingAdaptive`]) — see [`solver`];
//! * [`Observer`] — streaming readout of a run: [`Strided`] /
//!   [`DenseRecorder`] trajectory recording (bit-identical to the
//!   pre-redesign paths), allocation-free [`FinalState`], and in-loop
//!   [`Probe`]s — see [`observe`];
//! * [`OdeSystem`] — the system interface ([`FnSystem`] and [`LinearSystem`]
//!   adapters included);
//! * [`Rk4`], [`Euler`] — fixed-step explicit solver configurations;
//! * [`DormandPrince`] — adaptive 5(4) embedded pair with PI step control
//!   and rejected-step accounting ([`SolveStats`]);
//!   [`VotingDormandPrince`] — its opt-in lane-batched voting form;
//! * [`TrBdf2`] — L-stable implicit TR-BDF2 with a damped-Newton inner loop
//!   over a factor-once LU ([`linalg`]), adaptive via its embedded error
//!   estimate or fixed-grid, consuming analytic Jacobians through
//!   [`OdeSystem::jacobian`] (finite-difference fallback) — the stepper for
//!   stiff designs where explicit methods need `h ≲ 1/λ` — see [`implicit`];
//! * [`OdeWorkspace`] — reusable integration buffers: [`Solver::solve`]
//!   through a reused workspace performs zero per-step allocations, the
//!   form the `ark-sim` ensemble engine runs per worker;
//! * [`LanedOdeSystem`] / [`LaneWorkspace`] — the lane-batched
//!   (struct-of-arrays) siblings: [`Rk4`] and [`Euler`] solved over them
//!   step `L` ensemble instances in lockstep, bit-identical per lane to the
//!   scalar path (the PI-adaptive solver deliberately has no laned form —
//!   see [`DormandPrince`]);
//! * [`Trajectory`] — recorded solutions (flat sample storage) with
//!   interpolation, windows, and resampling (observation windows for PUF
//!   responses, §2.2);
//! * analysis helpers: [`convergence_time`], [`ensemble_stats`] (mismatch
//!   envelopes, Fig. 4c/4d), [`relative_rmse`] (SPICE validation, §4.5),
//!   and phase utilities for oscillator readout (§7.2).
//!
//! # Examples
//!
//! ```
//! use ark_ode::{FnSystem, Rk4};
//!
//! // dV/dt = -V/RC with RC = 1.
//! let sys = FnSystem::new(1, |_t, y, dydt| dydt[0] = -y[0]);
//! let tr = Rk4 { dt: 1e-3 }.integrate(&sys, 0.0, &[1.0], 1.0, 10)?;
//! let v_end = tr.last().unwrap().1[0];
//! assert!((v_end - (-1.0f64).exp()).abs() < 1e-9);
//! # Ok::<(), ark_ode::SolveError>(())
//! ```

#![warn(missing_docs)]
// Unsafe code lives only in ark-expr's codegen dlopen path.
#![forbid(unsafe_code)]

pub mod analysis;
pub mod implicit;
pub mod integrate;
pub mod linalg;
pub mod observe;
pub mod solver;
pub mod system;
pub mod trajectory;

pub use analysis::{
    convergence_time, convergence_time_all, ensemble_stats, is_steady, phase_distance, wrap_phase,
    EnsembleStats,
};
pub use implicit::{NewtonCfg, TrBdf2};
pub use integrate::{DormandPrince, Euler, LaneError, Rk4, SolveError, VotingDormandPrince};
pub use observe::{DenseRecorder, FinalState, Observer, Probe, StepInfo, Strided};
pub use solver::{
    Adaptive, Dp45Stages, Elem, EmbeddedStepper, EulerStages, Fixed, LaneWorkspace, Method,
    OdeWorkspace, Rk4Stages, Solver, StepControl, Stepper, SystemOver, VotingAdaptive, Workspace,
};
pub use system::{FnLanedSystem, FnSystem, LanedOdeSystem, LinearSystem, OdeSystem, StageHint};
pub use trajectory::{relative_rmse, SolveStats, Trajectory};
