//! Spans and counters recorded from the benchmark's own code, around calls
//! into each layer's public functions. Nothing here reaches inside the
//! program: layers that only run inside `Ensemble::run` (RHS, stepper) are
//! measured by re-driving a sample of instances through [`Timed`].

use ark_ode::{LanedOdeSystem, OdeSystem, StageHint};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer span totals: total milliseconds and call count per name.
/// Disabled recorders run the closure without reading the clock, so the
/// untraced runs pay nothing for the instrumentation points.
#[derive(Debug, Default)]
pub struct Layers {
    on: bool,
    spans: BTreeMap<&'static str, (f64, u64)>,
}

impl Layers {
    pub fn new(on: bool) -> Layers {
        Layers {
            on,
            spans: BTreeMap::new(),
        }
    }

    /// Run `f` as one span of `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let e = self.spans.entry(name).or_insert((0.0, 0));
        e.0 += start.elapsed().as_secs_f64() * 1e3;
        e.1 += 1;
        out
    }

    /// Mean span duration of `name` in milliseconds (0 when never seen).
    pub fn mean_ms(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |&(ms, n)| crate::report::mean(ms, n))
    }
}

/// An ODE system wrapper that times and counts every RHS call, forwarding
/// stage hints and Jacobians so the wrapped system computes exactly what
/// it computes unwrapped.
pub struct Timed<S> {
    inner: S,
    pub rhs_ns: Cell<u64>,
    pub rhs_calls: Cell<u64>,
}

impl<S> Timed<S> {
    pub fn new(inner: S) -> Timed<S> {
        Timed {
            inner,
            rhs_ns: Cell::new(0),
            rhs_calls: Cell::new(0),
        }
    }

    fn tick(&self, start: Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.rhs_ns.set(self.rhs_ns.get() + ns);
        self.rhs_calls.set(self.rhs_calls.get() + 1);
    }
}

impl<S: OdeSystem> OdeSystem for Timed<S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        let start = Instant::now();
        self.inner.rhs(t, y, dydt);
        self.tick(start);
    }

    fn stage_hint(&self, hint: StageHint) {
        self.inner.stage_hint(hint);
    }

    fn jacobian(&self, t: f64, y: &[f64], jac: &mut [f64]) -> bool {
        self.inner.jacobian(t, y, jac)
    }
}

impl<const L: usize, S: LanedOdeSystem<L>> LanedOdeSystem<L> for Timed<S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn rhs(&self, t: f64, y: &[[f64; L]], dydt: &mut [[f64; L]]) {
        let start = Instant::now();
        self.inner.rhs(t, y, dydt);
        self.tick(start);
    }

    fn stage_hint(&self, hint: StageHint) {
        self.inner.stage_hint(hint);
    }
}

/// Totals of a re-driven sample: integrate wall time, the RHS share of
/// it, and the work counts behind both. Times are per instance-evaluation:
/// a laned call over `L` instances counts as `L` evaluations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Inner {
    pub integrate_ns: f64,
    pub rhs_ns: f64,
    pub rhs_evals: u64,
    pub steps: u64,
}

impl Inner {
    /// Fold one solve over `lanes` instances into the totals.
    pub fn add<S>(&mut self, timed: &Timed<S>, integrate_ns: f64, steps: usize, lanes: usize) {
        self.integrate_ns += integrate_ns;
        self.rhs_ns += timed.rhs_ns.get() as f64;
        self.rhs_evals += timed.rhs_calls.get() * lanes as u64;
        self.steps += (steps * lanes) as u64;
    }

    pub fn ns_per_rhs(&self) -> f64 {
        crate::report::mean(self.rhs_ns, self.rhs_evals)
    }

    pub fn rhs_share(&self) -> f64 {
        if self.integrate_ns > 0.0 {
            self.rhs_ns / self.integrate_ns
        } else {
            0.0
        }
    }

    /// Stepper arithmetic per step: integrate time not spent in the RHS.
    pub fn stepper_ns_per_step(&self) -> f64 {
        crate::report::mean(self.integrate_ns - self.rhs_ns, self.steps)
    }
}
