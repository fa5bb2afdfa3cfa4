//! The builder-style ensemble entry point: [`Ensemble::run`] returns an
//! [`EnsembleRun`] whose terminal methods either materialize results in
//! seed order or stream them through an online [`Reducer`].

use crate::reduce::{Reducer, STREAM_BLOCK};
use crate::resilience::{EnsembleError, InstanceOutcome, RecoveryPolicy, RecoveryReport};
use crate::{ClosureReadout, Ensemble, LaneReadout};
use ark_core::{CompiledSystem, EvalScratch, LaneScratch};
use ark_ode::{
    FinalState, Observer, OdeWorkspace, SolveError, SolveStats, Solver, Strided, Trajectory,
    Workspace,
};

/// An observer usable at every width the lane-group walker runs: scalar
/// (`f64`, and `[f64; 1]` for the walker's width-1 instantiation) plus each
/// laned interpreter width in [`crate::SUPPORTED_LANES`]. Blanket-implemented,
/// so any observer generic over `ark_ode`'s element type (like
/// [`FinalState`]) qualifies automatically; closure-based
/// [`Probe`](ark_ode::Probe)s do **not** (a closure has one concrete
/// argument type) — wrap bespoke per-step readout in a small struct
/// implementing [`Observer`] over `E: Elem` instead.
pub trait EnsembleObserver:
    Observer<f64> + Observer<[f64; 1]> + Observer<[f64; 4]> + Observer<[f64; 8]>
{
}

impl<O> EnsembleObserver for O where
    O: Observer<f64> + Observer<[f64; 1]> + Observer<[f64; 4]> + Observer<[f64; 8]>
{
}

/// One finished instance as seen by an [`EnsembleRun::reduce_observed`]
/// extractor: which lane of which observer holds it, plus the instance's
/// identity.
#[derive(Debug)]
pub struct Observed<'r, O> {
    /// Lane index of this instance within `obs` (0 on the scalar path).
    pub lane: usize,
    /// The instance's seed.
    pub seed: u64,
    /// The instance's parameter vector.
    pub params: &'r [f64],
    /// The observer that watched the run (shared by the whole lane group).
    pub obs: &'r O,
}

/// One finished instance as seen by an [`EnsembleRun::reduce`] extractor:
/// the final state captured by the built-in [`FinalState`] observer,
/// already sliced down to this instance's lane.
#[derive(Debug)]
pub struct FinalSnapshot<'r> {
    /// The instance's seed.
    pub seed: u64,
    /// The instance's parameter vector.
    pub params: &'r [f64],
    /// Time of the final state (the run's `t1` on success).
    pub t: f64,
    /// The instance's final state vector.
    pub state: &'r [f64],
    /// Solver statistics of the run (shared by the whole lane group).
    pub stats: SolveStats,
}

impl<'r> FinalSnapshot<'r> {
    /// Lane `lane` of a finished [`FinalState`] observer.
    fn of(seed: u64, params: &'r [f64], obs: &'r FinalState, lane: usize) -> Self {
        FinalSnapshot {
            seed,
            params,
            t: obs.time(),
            state: obs.lane_state(lane),
            stats: obs.stats(),
        }
    }
}

/// A configured ensemble integration, created by [`Ensemble::run`] —
/// compile-once/simulate-many over one shared [`CompiledSystem`], every
/// instance keyed by its seed.
///
/// Builder methods refine the run ([`EnsembleRun::stride`],
/// [`EnsembleRun::params`], [`EnsembleRun::prep`]); terminal methods
/// execute it. **Materializing** terminals return one value per seed, in
/// seed order:
///
/// * [`EnsembleRun::trajectories`] — recorded [`Trajectory`] per instance;
/// * [`EnsembleRun::map`] — per-instance readout of the trajectory;
/// * [`EnsembleRun::map_grouped`] — group-aware [`LaneReadout`], for
///   observation programs that evaluate through the laned interpreter.
///
/// **Streaming** terminals never materialize per-instance results: each
/// instance runs under an allocation-free observer and folds one item into
/// an online [`Reducer`] — memory stays O(accumulator) at any N:
///
/// * [`EnsembleRun::reduce`] — observe final states ([`FinalState`]);
/// * [`EnsembleRun::reduce_observed`] — bring your own observer factory.
///
/// Every terminal inherits the engine's determinism guarantee: results
/// depend only on the seeds, never on the worker count (see
/// [`Ensemble`]); on the default solvers they are also bit-identical
/// across lane widths.
#[derive(Debug, Clone, Copy)]
pub struct EnsembleRun<'a, S, P> {
    ens: Ensemble,
    sys: &'a CompiledSystem,
    solver: &'a S,
    seeds: &'a [u64],
    prep: P,
    t0: f64,
    t1: f64,
    stride: usize,
}

impl Ensemble {
    /// Configure an ensemble run of `sys` under `solver` over `[t0, t1]`,
    /// one instance per seed. Defaults: the canonical mismatch sampler
    /// ([`CompiledSystem::sample_params`] per seed, initial state derived
    /// from the sampled parameters) and stride 1; refine with the builder
    /// methods, then execute with a terminal method.
    pub fn run<'a, S: Solver + Sync>(
        &self,
        sys: &'a CompiledSystem,
        solver: &'a S,
        seeds: &'a [u64],
        t0: f64,
        t1: f64,
    ) -> EnsembleRun<'a, S, impl Fn(u64) -> (Vec<f64>, Vec<f64>) + Sync + 'a> {
        EnsembleRun {
            ens: *self,
            sys,
            solver,
            seeds,
            prep: move |seed| {
                let params = sys.sample_params(seed);
                let y0 = sys.initial_state_for(&params);
                (params, y0)
            },
            t0,
            t1,
            stride: 1,
        }
    }
}

impl<'a, S, P> EnsembleRun<'a, S, P>
where
    S: Solver + Sync,
    P: Fn(u64) -> (Vec<f64>, Vec<f64>) + Sync,
{
    /// Record every `stride`-th accepted step (plus the initial and final
    /// states) on the materializing terminals. Streaming terminals ignore
    /// the stride — their observers see every accepted step.
    pub fn stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Supply each instance's parameter vector explicitly; the initial
    /// state is derived from it
    /// ([`CompiledSystem::initial_state_for`]). Replaces the default
    /// sampled-mismatch prep.
    pub fn params<F>(
        self,
        params_for: F,
    ) -> EnsembleRun<'a, S, impl Fn(u64) -> (Vec<f64>, Vec<f64>) + Sync + 'a>
    where
        F: Fn(u64) -> Vec<f64> + Sync + 'a,
    {
        let sys = self.sys;
        self.prep(move |seed| {
            let params = params_for(seed);
            let y0 = sys.initial_state_for(&params);
            (params, y0)
        })
    }

    /// Full control over per-instance setup: `prep(seed)` returns the
    /// `(params, y0)` pair the instance integrates with (`params` empty
    /// for non-parametric systems). Replaces the default sampled-mismatch
    /// prep. The engine's determinism guarantee assumes the result depends
    /// only on the seed.
    pub fn prep<Q>(self, prep: Q) -> EnsembleRun<'a, S, Q>
    where
        Q: Fn(u64) -> (Vec<f64>, Vec<f64>) + Sync,
    {
        EnsembleRun {
            ens: self.ens,
            sys: self.sys,
            solver: self.solver,
            seeds: self.seeds,
            prep,
            t0: self.t0,
            t1: self.t1,
            stride: self.stride,
        }
    }

    /// Turn solver failures into per-instance *data* instead of aborts:
    /// the returned [`RecoveringRun`]'s terminal isolates each failing
    /// instance, retries it under `policy`'s deterministic fallback chain,
    /// and accounts for every instance in a [`RecoveryReport`] — see
    /// [`RecoveringRun::reduce`].
    pub fn with_recovery(self, policy: &'a RecoveryPolicy) -> RecoveringRun<'a, S, P> {
        RecoveringRun { run: self, policy }
    }

    /// Materialize one recorded [`Trajectory`] per instance, in seed
    /// order.
    ///
    /// # Errors
    ///
    /// The first (by seed order) solver error.
    pub fn trajectories(self) -> Result<Vec<Trajectory>, SolveError> {
        fn keep(
            _seed: u64,
            _params: &[f64],
            tr: Trajectory,
            _scratch: &mut EvalScratch,
        ) -> Result<Trajectory, SolveError> {
            Ok(tr)
        }
        self.map(keep)
    }

    /// Materialize one readout per instance, in seed order:
    /// `finish(seed, params, trajectory, scratch)` runs scalar on the
    /// worker that integrated the instance, with a worker-private
    /// [`EvalScratch`] for observation-program evaluation.
    ///
    /// # Errors
    ///
    /// The first (by seed order) integration or `finish` error. (When one
    /// lane group contains both a later-lane integration failure and an
    /// earlier-lane `finish` failure, the integration error wins —
    /// `finish` never runs for a group whose integration failed.)
    pub fn map<T, E, G>(self, finish: G) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send + From<EnsembleError>,
        G: Fn(u64, &[f64], Trajectory, &mut EvalScratch) -> Result<T, E> + Sync,
    {
        self.map_grouped(&ClosureReadout(finish))
    }

    /// Materialize through a group-aware [`LaneReadout`], in seed order:
    /// full lane groups are handed to [`LaneReadout::finish_group`], which
    /// can evaluate observation programs through the laned interpreter —
    /// amortizing readout the same way integration already is. Scalar
    /// tails, lane-incapable solvers, and `lanes = 1` engines go through
    /// [`LaneReadout::finish`].
    ///
    /// # Errors
    ///
    /// The first (by seed order) integration or readout error.
    pub fn map_grouped<T, E, R>(self, readout: &R) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send + From<EnsembleError>,
        R: LaneReadout<T, E>,
    {
        let groups = match self.width() {
            4 => self.map_at::<4, T, E, R>(readout),
            8 => self.map_at::<8, T, E, R>(readout),
            _ => self.map_at::<1, T, E, R>(readout),
        }?;
        Ok(groups.into_iter().flatten().collect())
    }

    /// [`EnsembleRun::map_grouped`] at lane width `L`: one lane group per
    /// work unit, which balances load at group granularity.
    fn map_at<const L: usize, T, E, R>(&self, readout: &R) -> Result<Vec<Vec<T>>, E>
    where
        T: Send,
        E: Send + From<EnsembleError>,
        R: LaneReadout<T, E>,
    {
        self.units::<L, _, _>(L, |bufs, group| {
            self.for_groups(
                group,
                bufs,
                Vec::with_capacity(L),
                || Strided::every(self.stride),
                |out, seeds, params, solved, bufs| {
                    let trs = solved?.into_trajectories();
                    let (lscratch, scratch) = (&mut bufs.obs_lscratch, &mut bufs.scratch);
                    readout.finish_group::<L>(seeds, params, trs, lscratch, scratch, out)?;
                    Ok(true)
                },
                |out, seed, params, _, solved, bufs| {
                    let tr = solved?.into_trajectory();
                    out.push(readout.finish(seed, params, tr, &mut bufs.scratch)?);
                    Ok(())
                },
            )
        })
    }

    /// Stream final states through an online [`Reducer`]: each instance
    /// runs under the allocation-free [`FinalState`] observer,
    /// `extract(snapshot, scratch)` turns its endpoint into one item
    /// (evaluate observation programs via
    /// [`CompiledSystem::eval_algebraics_with_params`] with the provided
    /// worker-private scratch), and the items fold into `reducer`.
    ///
    /// No trajectory is ever materialized: memory is
    /// O(workers · accumulator), independent of the seed count — the
    /// 10⁵⁺-instance yield sweeps run through here. Results are
    /// bit-identical for any worker count and lane width (see
    /// [`crate::reduce`] for the merge-order contract).
    ///
    /// # Errors
    ///
    /// The first (by seed order) integration or `extract` error.
    pub fn reduce<I, E, X, R>(self, extract: X, reducer: &R) -> Result<R::Output, E>
    where
        E: Send + From<EnsembleError>,
        X: Fn(&FinalSnapshot<'_>, &mut EvalScratch) -> Result<I, E> + Sync,
        R: Reducer<I>,
    {
        self.reduce_observed(
            FinalState::new,
            move |inst: &Observed<'_, FinalState>, scratch| {
                extract(
                    &FinalSnapshot::of(inst.seed, inst.params, inst.obs, inst.lane),
                    scratch,
                )
            },
            reducer,
        )
    }

    /// Stream through an online [`Reducer`] with a caller-supplied
    /// observer: `make_obs()` builds one fresh observer per lane group
    /// (per instance on the scalar path), the solver streams every
    /// accepted step into it, and `extract` turns each lane of the
    /// finished observer into one item for `reducer` — in seed order
    /// within the group.
    ///
    /// The observer must implement [`EnsembleObserver`] (i.e. be generic
    /// over the element width); [`FinalState`] qualifies, as does any
    /// custom struct implementing [`Observer`] over `E: Elem`.
    ///
    /// # Errors
    ///
    /// The first (by seed order) integration or `extract` error.
    pub fn reduce_observed<O, OF, I, E, X, R>(
        self,
        make_obs: OF,
        extract: X,
        reducer: &R,
    ) -> Result<R::Output, E>
    where
        O: EnsembleObserver,
        OF: Fn() -> O + Sync,
        E: Send + From<EnsembleError>,
        X: Fn(&Observed<'_, O>, &mut EvalScratch) -> Result<I, E> + Sync,
        R: Reducer<I>,
    {
        let blocks = match self.width() {
            4 => self.stream_at::<4, O, I, E, R>(&make_obs, &extract, reducer),
            8 => self.stream_at::<8, O, I, E, R>(&make_obs, &extract, reducer),
            _ => self.stream_at::<1, O, I, E, R>(&make_obs, &extract, reducer),
        }?;
        let mut total = reducer.new_acc();
        for partial in blocks {
            reducer.merge(&mut total, partial);
        }
        Ok(reducer.finish(total))
    }

    /// [`EnsembleRun::reduce_observed`] at lane width `L`: one accumulator
    /// per [`STREAM_BLOCK`] of seeds; any solver error aborts.
    fn stream_at<const L: usize, O, I, E, R>(
        &self,
        make_obs: &(impl Fn() -> O + Sync),
        extract: &(impl Fn(&Observed<'_, O>, &mut EvalScratch) -> Result<I, E> + Sync),
        reducer: &R,
    ) -> Result<Vec<R::Acc>, E>
    where
        O: Observer<f64> + Observer<[f64; L]>,
        E: Send + From<EnsembleError>,
        R: Reducer<I>,
    {
        let push = |acc: &mut R::Acc,
                    seeds: &[u64],
                    params: &[&[f64]],
                    solved: Solved<O>,
                    bufs: &mut LaneBufs<L>|
         -> Result<bool, E> {
            let obs = solved?;
            for (lane, (&seed, &params)) in seeds.iter().zip(params).enumerate() {
                let inst = Observed {
                    lane,
                    seed,
                    params,
                    obs: &obs,
                };
                reducer.push(acc, extract(&inst, &mut bufs.scratch)?);
            }
            Ok(true)
        };
        self.units::<L, _, _>(STREAM_BLOCK, |bufs, block| {
            self.for_groups(
                block,
                bufs,
                reducer.new_acc(),
                make_obs,
                push,
                |acc, seed, params, _, solved, bufs| {
                    push(acc, &[seed], &[params], solved, bufs).map(drop)
                },
            )
        })
    }

    /// The lane width instances integrate at: the engine's, or 1 for a
    /// solver without a laned form. Every terminal dispatches on it; the
    /// arms cover [`crate::SUPPORTED_LANES`].
    fn width(&self) -> usize {
        if self.solver.supports_lanes() {
            self.ens.lanes()
        } else {
            1
        }
    }

    /// The work-unit driver behind every terminal: split the seeds into
    /// units of `unit_len` *before* distribution to workers — so units, and
    /// the order their outputs come back in, never depend on the worker
    /// count — and run `job` on each, every worker reusing one
    /// [`LaneBufs`].
    fn units<const L: usize, U: Send, E: Send>(
        &self,
        unit_len: usize,
        job: impl Fn(&mut LaneBufs<L>, &[u64]) -> Result<U, E> + Sync,
    ) -> Result<Vec<U>, E> {
        let units: Vec<&[u64]> = self.seeds.chunks(unit_len).collect();
        let idx: Vec<u64> = (0..units.len() as u64).collect();
        self.ens.try_map_init(&idx, LaneBufs::default, |bufs, ui| {
            job(bufs, units[ui as usize])
        })
    }

    /// The lane-group walker: step through `unit` in groups of `L`. A full
    /// group whose initial states all have the system's dimension
    /// integrates laned under one observer and goes to `laned`, a failure
    /// attributed to the lowest failed lane's seed; `laned` returns `false`
    /// to demote the group. Every other instance — the `N % L` tail,
    /// malformed and demoted groups, and every instance when `L == 1` —
    /// integrates alone and goes to `scalar`. Both fold into `out`, the
    /// unit's output.
    fn for_groups<const L: usize, O, U, E>(
        &self,
        unit: &[u64],
        bufs: &mut LaneBufs<L>,
        mut out: U,
        make_obs: impl Fn() -> O,
        laned: impl Fn(&mut U, &[u64], &[&[f64]], Solved<O>, &mut LaneBufs<L>) -> Result<bool, E>,
        scalar: impl Fn(&mut U, u64, &[f64], &[f64], Solved<O>, &mut LaneBufs<L>) -> Result<(), E>,
    ) -> Result<U, E>
    where
        O: Observer<f64> + Observer<[f64; L]>,
    {
        let (sys, solver, t0, t1) = (self.sys, self.solver, self.t0, self.t1);
        let n = sys.num_states();
        for group in unit.chunks(L) {
            let prepped: Vec<(Vec<f64>, Vec<f64>)> =
                group.iter().map(|&s| (self.prep)(s)).collect();
            // `L > 1` folds away on the scalar instantiation.
            if L > 1 && group.len() == L && prepped.iter().all(|(_, y0)| y0.len() == n) {
                // Struct-of-arrays initial state, laned bind.
                bufs.y0.clear();
                bufs.y0.resize(n, [0.0; L]);
                for (l, (_, y0)) in prepped.iter().enumerate() {
                    for (i, &v) in y0.iter().enumerate() {
                        bufs.y0[i][l] = v;
                    }
                }
                let params: Vec<&[f64]> = prepped.iter().map(|(p, _)| p.as_slice()).collect();
                let mut obs = make_obs();
                let bound = sys.bind_lanes::<L>(&params, &mut bufs.lscratch);
                let solved = solver.solve(&bound, t0, &bufs.y0[..n], t1, &mut obs, &mut bufs.lws);
                let solved = solved.map(|_| obs).map_err(|source| {
                    // Attribute to the lowest failed lane (the instance
                    // whose error the drive loop reported); pre-flight
                    // errors carry no time and leave the lane masks
                    // stale, so they attribute to the group's first seed.
                    let lane = match source.time() {
                        Some(_) => bufs.lws.first_failed_lane().unwrap_or(0),
                        None => 0,
                    };
                    EnsembleError {
                        seed: group[lane],
                        source,
                    }
                });
                if laned(&mut out, group, &params, solved, bufs)? {
                    continue;
                }
            }
            for (&seed, (params, y0)) in group.iter().zip(&prepped) {
                let mut obs = make_obs();
                let bound = sys.bind_ref(params, &mut bufs.scratch);
                let solved = solver.solve(&bound, t0, y0, t1, &mut obs, &mut bufs.ws);
                let solved = solved
                    .map(|_| obs)
                    .map_err(|source| EnsembleError { seed, source });
                scalar(&mut out, seed, params, y0, solved, bufs)?;
            }
        }
        Ok(out)
    }
}

/// A solve's result as the walker hands it to a terminal: the finished
/// observer, or the error attributed to its instance.
type Solved<O> = Result<O, EnsembleError>;

/// Per-worker buffers of the lane-group walker: the scalar scratch and
/// workspace for single instances and readout, plus the lane scratch and
/// workspace for full groups. The observation programs get a lane scratch
/// of their own (`obs_lscratch`) so the RHS and observation constant pools
/// both stay primed across a worker's groups. All grow on demand.
struct LaneBufs<const L: usize> {
    scratch: EvalScratch,
    ws: OdeWorkspace,
    lscratch: LaneScratch<L>,
    obs_lscratch: LaneScratch<L>,
    lws: Workspace<[f64; L]>,
    /// Struct-of-arrays staging for the group's initial states.
    y0: Vec<[f64; L]>,
}

impl<const L: usize> Default for LaneBufs<L> {
    fn default() -> Self {
        LaneBufs {
            scratch: EvalScratch::default(),
            ws: OdeWorkspace::default(),
            lscratch: LaneScratch::default(),
            obs_lscratch: LaneScratch::default(),
            lws: Workspace::default(),
            y0: Vec::new(),
        }
    }
}

/// A fault-tolerant ensemble run, created by
/// [`EnsembleRun::with_recovery`]: per-instance failure isolation plus
/// deterministic recovery under a [`RecoveryPolicy`].
///
/// Where the plain streaming terminals abort the whole run on the first
/// solver error, the recovering terminal gives every instance a verdict
/// ([`InstanceOutcome`]): `Completed` on a clean primary solve,
/// `Recovered` when a retry under the policy's fallback chain succeeds,
/// `Failed` when the chain is exhausted — failed instances contribute no
/// item to the reducer but are counted (with first-failure provenance per
/// error kind) in the returned [`RecoveryReport`].
///
/// # Determinism
///
/// Retries run inside the streaming block that owns the instance, so the
/// block merge order — and every accumulator bit — is unchanged by
/// failures for any worker count. When one lane of an `L`-wide group
/// fails, the whole group is *demoted*: each of its instances re-runs
/// scalar under the primary solver first (exactly what a `lanes = 1`
/// engine runs), then walks the fallback chain if still failing — so
/// outcomes and accumulators are bit-identical across lane widths on the
/// default solvers. The lane-voting solvers keep their documented
/// exception (their step grid is keyed on the lane width).
#[derive(Debug, Clone, Copy)]
pub struct RecoveringRun<'a, S, P> {
    run: EnsembleRun<'a, S, P>,
    policy: &'a RecoveryPolicy,
}

impl<'a, S, P> RecoveringRun<'a, S, P>
where
    S: Solver + Sync,
    P: Fn(u64) -> (Vec<f64>, Vec<f64>) + Sync,
{
    /// Stream final states through an online [`Reducer`] with failure
    /// isolation: like [`EnsembleRun::reduce`], but a failing instance is
    /// retried under the policy instead of aborting the run, and the
    /// output is paired with the run's [`RecoveryReport`].
    ///
    /// `extract` sees only instances that produced a final state
    /// (`Completed` or `Recovered`); failed instances are accounted for in
    /// the report alone, so yield-style reducers should take their
    /// denominator from [`RecoveryReport::total`] (or add
    /// [`RecoveryReport::failed`] to the reduced count).
    ///
    /// # Errors
    ///
    /// Only `extract` errors abort (first in seed order) — solver errors
    /// are recovery work, not run failures. `E` therefore only needs
    /// `Send`.
    pub fn reduce<I, E, X, R>(
        self,
        extract: X,
        reducer: &R,
    ) -> Result<(R::Output, RecoveryReport), E>
    where
        E: Send,
        X: Fn(&FinalSnapshot<'_>, &mut EvalScratch) -> Result<I, E> + Sync,
        R: Reducer<I>,
    {
        let blocks = match self.run.width() {
            4 => self.recover_at::<4, I, E, R>(&extract, reducer),
            8 => self.recover_at::<8, I, E, R>(&extract, reducer),
            _ => self.recover_at::<1, I, E, R>(&extract, reducer),
        }?;
        let mut total = reducer.new_acc();
        let mut report = RecoveryReport::default();
        for (partial, rep) in blocks {
            reducer.merge(&mut total, partial);
            report.merge(rep);
        }
        // Static provenance rides along with the dynamic counts: if the
        // interval analysis proves an operation undefined for every input,
        // the report says so next to the failures it likely caused.
        report.domain_warnings = self.run.sys.domain_warnings();
        Ok((reducer.finish(total), report))
    }

    /// [`RecoveringRun::reduce`] at lane width `L`: the block structure of
    /// [`EnsembleRun::reduce_observed`], with a failed lane group demoted
    /// and a failed instance walking the fallback chain, every instance's
    /// verdict counted in its block's [`RecoveryReport`].
    fn recover_at<const L: usize, I, E, R>(
        &self,
        extract: &(impl Fn(&FinalSnapshot<'_>, &mut EvalScratch) -> Result<I, E> + Sync),
        reducer: &R,
    ) -> Result<Vec<(R::Acc, RecoveryReport)>, E>
    where
        E: Send,
        R: Reducer<I>,
    {
        let push = |(acc, report): &mut (R::Acc, RecoveryReport),
                    snap: Option<FinalSnapshot<'_>>,
                    outcome: &InstanceOutcome,
                    scratch: &mut EvalScratch|
         -> Result<(), E> {
            if let Some(snap) = snap {
                reducer.push(acc, extract(&snap, scratch)?);
            }
            report.push(outcome);
            Ok(())
        };
        self.run.units::<L, _, _>(STREAM_BLOCK, |bufs, block| {
            self.run.for_groups(
                block,
                bufs,
                (reducer.new_acc(), RecoveryReport::default()),
                FinalState::new,
                |out, seeds, params, solved, bufs| {
                    // On failure the whole group demotes: every lane re-runs
                    // scalar, so the healthy lanes produce exactly the items
                    // a lanes = 1 engine would have.
                    let Ok(obs) = solved else {
                        return Ok(false);
                    };
                    for (lane, (&seed, &params)) in seeds.iter().zip(params).enumerate() {
                        let snap = FinalSnapshot::of(seed, params, &obs, lane);
                        push(
                            out,
                            Some(snap),
                            &InstanceOutcome::Completed,
                            &mut bufs.scratch,
                        )?;
                    }
                    Ok(true)
                },
                |out, seed, params, y0, solved, bufs| {
                    let (outcome, obs) = match solved {
                        Ok(obs) => (InstanceOutcome::Completed, Some(obs)),
                        Err(e) => self.retry(seed, params, y0, e.source, bufs),
                    };
                    let snap = obs
                        .as_ref()
                        .map(|obs| FinalSnapshot::of(seed, params, obs, 0));
                    push(out, snap, &outcome, &mut bufs.scratch)
                },
            )
        })
    }

    /// Walk the policy's fallback chain for an instance whose primary
    /// solve failed with `last`. Returns the verdict plus the observer of
    /// the successful attempt (if any).
    fn retry<const L: usize>(
        &self,
        seed: u64,
        params: &[f64],
        y0: &[f64],
        mut last: SolveError,
        bufs: &mut LaneBufs<L>,
    ) -> (InstanceOutcome, Option<FinalState>) {
        let run = &self.run;
        let bound = run.sys.bind_ref(params, &mut bufs.scratch);
        for attempt in 1..=self.policy.max_retries {
            let mut obs = FinalState::new();
            match self.policy.run_attempt(
                attempt,
                &bound,
                run.t0,
                y0,
                run.t1,
                &mut obs,
                &mut bufs.ws,
            ) {
                Ok((_, final_solver)) => {
                    return (
                        InstanceOutcome::Recovered {
                            attempts: attempt,
                            final_solver,
                        },
                        Some(obs),
                    )
                }
                Err(e) => last = e,
            }
        }
        let t = last.time().unwrap_or(-1.0);
        (
            InstanceOutcome::Failed {
                error: last,
                t,
                seed,
            },
            None,
        )
    }
}
