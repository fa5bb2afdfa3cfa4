//! Streaming-reduction determinism suite: every online accumulator in
//! `ark_sim::reduce`, driven through the full `Ensemble::run(..).reduce`
//! pipeline, must match the materialize-then-reduce reference
//! (`reduce_materialized`) **bit for bit** — for every worker count and
//! lane width. The block-structured merge (one accumulator per
//! `STREAM_BLOCK`-seed block, merged serially in block order) is what makes
//! this hold; these properties pin it.

mod common;

use ark::ode::{Elem, Observer, Rk4, SolveError, SolveStats, StepInfo};
use ark::sim::reduce::{
    premap, reduce_materialized, Extrema, Histogram, MinMax, MomentStats, Moments, Quantiles,
    Reducer, Yield, YieldCounter, STREAM_BLOCK,
};
use ark::sim::{seed_range, Ensemble};
use common::{decay_params, decay_system};
use proptest::prelude::*;

fn assert_moments_bits(a: &MomentStats, b: &MomentStats, cx: &str) {
    assert_eq!(a.count, b.count, "{cx}: count");
    assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{cx}: mean");
    assert_eq!(a.m2.to_bits(), b.m2.to_bits(), "{cx}: m2");
}

fn assert_extrema_bits(a: &Extrema, b: &Extrema, cx: &str) {
    assert_eq!(a.count, b.count, "{cx}: count");
    assert_eq!(a.min.to_bits(), b.min.to_bits(), "{cx}: min");
    assert_eq!(a.max.to_bits(), b.max.to_bits(), "{cx}: max");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full accumulator suite (moments, extrema, quantile sketch, and
    /// a premapped yield counter, composed as one tuple reducer) streams to
    /// exactly the bits the materialized reference produces, for every
    /// worker count x lane width combination — including ensemble sizes
    /// with scalar tails and N < L.
    #[test]
    fn streaming_matches_materialized_bit_for_bit(
        n in 1usize..40,
        base in 0u64..256,
    ) {
        let (_lang, sys) = decay_system();
        let solver = Rk4 { dt: 2e-2 };
        let seeds = seed_range(base, n);
        // Materialized reference: endpoints in seed order, then the
        // canonical blocked reduction.
        let endpoints: Vec<f64> = Ensemble::serial()
            .with_lanes(1)
            .run(&sys, &solver, &seeds, 0.0, 1.0)
            .params(|s| decay_params(&sys, s))
            .map(|_, _, tr, _| Ok::<_, SolveError>(tr.last().unwrap().1[0]))
            .unwrap();
        let reducer = (
            Moments,
            MinMax,
            (
                Quantiles::new(0.0, 5.0, 32),
                premap(|v: f64| v > 1.0, YieldCounter),
            ),
        );
        let want: (MomentStats, Extrema, (Histogram, Yield)) =
            reduce_materialized(&reducer, &endpoints);
        for workers in [1usize, 2, 8] {
            for lanes in [1usize, 4, 8] {
                let got = Ensemble::new(workers)
                    .with_lanes(lanes)
                    .run(&sys, &solver, &seeds, 0.0, 1.0)
                    .params(|s| decay_params(&sys, s))
                    .reduce(
                        |snap, _scratch| Ok::<_, SolveError>(snap.state[0]),
                        &reducer,
                    )
                    .unwrap();
                let cx = format!("n={n} base={base} workers={workers} lanes={lanes}");
                assert_moments_bits(&got.0, &want.0, &cx);
                assert_extrema_bits(&got.1, &want.1, &cx);
                assert_eq!(got.2 .0, want.2 .0, "{cx}: histogram");
                assert_eq!(got.2 .1, want.2 .1, "{cx}: yield");
            }
        }
    }
}

/// Ensembles larger than one merge block keep the guarantee: the serial
/// streaming result equals both the materialized reference and every
/// multi-worker / laned streaming run, bit for bit.
#[test]
fn multi_block_ensembles_merge_deterministically() {
    let (_lang, sys) = decay_system();
    let solver = Rk4 { dt: 5e-2 };
    // > 2 * STREAM_BLOCK (1024) seeds, deliberately not block-aligned.
    let seeds = seed_range(7, 2500);
    let endpoints: Vec<f64> = Ensemble::serial()
        .with_lanes(1)
        .run(&sys, &solver, &seeds, 0.0, 0.5)
        .params(|s| decay_params(&sys, s))
        .map(|_, _, tr, _| Ok::<_, SolveError>(tr.last().unwrap().1[0]))
        .unwrap();
    let want = reduce_materialized(&(Moments, MinMax), &endpoints);
    for workers in [1usize, 3, 8] {
        for lanes in [1usize, 4, 8] {
            let got = Ensemble::new(workers)
                .with_lanes(lanes)
                .run(&sys, &solver, &seeds, 0.0, 0.5)
                .params(|s| decay_params(&sys, s))
                .reduce(
                    |snap, _scratch| Ok::<_, SolveError>(snap.state[0]),
                    &(Moments, MinMax),
                )
                .unwrap();
            let cx = format!("workers={workers} lanes={lanes}");
            assert_moments_bits(&got.0, &want.0, &cx);
            assert_extrema_bits(&got.1, &want.1, &cx);
        }
    }
}

/// A custom streaming observer, generic over the element width: the
/// per-lane running sum of `|y[0]|` over every sample the solver reports
/// (the initial state and each accepted step). A float sum in step order
/// is only bit-identical when every lane sees exactly the scalar sequence.
#[derive(Default)]
struct AbsArea(Vec<f64>);

impl<E: Elem> Observer<E> for AbsArea {
    fn start(&mut self, _t0: f64, y0: &[E], _planned_steps: Option<usize>) {
        self.0 = (0..E::WIDTH).map(|l| y0[0].get(l).abs()).collect();
    }

    fn record(&mut self, _t: f64, y: &[E], _info: StepInfo, alive: &[bool]) -> bool {
        for (l, (area, &live)) in self.0.iter_mut().zip(alive).enumerate() {
            if live {
                *area += y[0].get(l).abs();
            }
        }
        true
    }

    fn finish(&mut self, _stats: SolveStats) {}
}

/// Collects the streamed items in push order (blocks concatenated in merge
/// order), so a comparison covers every item and the order they fold in.
struct Collect;

impl Reducer<f64> for Collect {
    type Acc = Vec<f64>;
    type Output = Vec<f64>;

    fn new_acc(&self) -> Vec<f64> {
        Vec::new()
    }

    fn push(&self, acc: &mut Vec<f64>, item: f64) {
        acc.push(item);
    }

    fn merge(&self, into: &mut Vec<f64>, from: Vec<f64>) {
        into.extend(from);
    }

    fn finish(&self, acc: Vec<f64>) -> Vec<f64> {
        acc
    }
}

/// `reduce_observed` with a bring-your-own observer streams exactly the
/// items of a serial `lanes = 1` run — and of the same sums taken over
/// materialized stride-1 trajectories — for every lane width and worker
/// count, over more than two merge blocks with scalar tails.
#[test]
fn custom_observer_items_are_lane_and_worker_invariant() {
    let (_lang, sys) = decay_system();
    let solver = Rk4 { dt: 5e-2 };
    let seeds = seed_range(3, 2 * STREAM_BLOCK + 5);
    let areas = |ens: Ensemble| -> Vec<f64> {
        ens.run(&sys, &solver, &seeds, 0.0, 0.5)
            .params(|s| decay_params(&sys, s))
            .reduce_observed(
                AbsArea::default,
                |inst, _scratch| Ok::<_, SolveError>(inst.obs.0[inst.lane]),
                &Collect,
            )
            .unwrap()
    };
    let serial = areas(Ensemble::serial().with_lanes(1));
    let materialized: Vec<f64> = Ensemble::serial()
        .with_lanes(1)
        .run(&sys, &solver, &seeds, 0.0, 0.5)
        .params(|s| decay_params(&sys, s))
        .map(|_, _, tr, _| Ok::<_, SolveError>(tr.iter().fold(0.0, |a, (_, y)| a + y[0].abs())))
        .unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(serial.len(), seeds.len());
    assert_eq!(bits(&serial), bits(&materialized));
    for lanes in [1usize, 4, 8] {
        for workers in [1usize, 2] {
            let got = areas(Ensemble::new(workers).with_lanes(lanes));
            assert_eq!(bits(&got), bits(&serial), "lanes={lanes} workers={workers}");
        }
    }
}
