//! Lane-group partitioning suite: laned ensembles must be bit-identical to
//! the scalar path for *every* ensemble size — full groups, the `N % L`
//! scalar tail, and N < L (no full group at all) — at every saved
//! timestep, for both supported widths and across worker counts.
//!
//! CI's lane-matrix job additionally re-runs the golden suites with
//! `ARK_LANES` forced to 1/4/8; this file pins the partitioning logic
//! itself with explicit widths, independent of the environment.

mod common;

use ark::ode::Rk4;
use ark::paradigms::tln::{
    gmc_tln_language, tline_mismatch_ensemble, tln_language, MismatchKind, TlineConfig,
};
use ark::sim::{seed_range, Ensemble};
use common::{decay_params, decay_system};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For random ensemble sizes (deliberately biased to N % L != 0 and
    /// N < L), random strides, and both lane widths, the laned ensemble
    /// equals the scalar ensemble bit for bit at every saved timestep —
    /// `Trajectory` equality covers every sample value and the stats.
    #[test]
    fn laned_ensembles_match_serial_bit_for_bit(
        n in 1usize..14,
        base in 0u64..512,
        stride in 1usize..8,
    ) {
        let (_lang, sys) = decay_system();
        let seeds = seed_range(base, n);
        let solver = Rk4 { dt: 2e-2 };
        let scalar = Ensemble::serial()
            .with_lanes(1)
            .run(&sys, &solver, &seeds, 0.0, 1.0)
            .stride(stride)
            .params(|s| decay_params(&sys, s))
            .trajectories()
            .unwrap();
        for lanes in [4usize, 8] {
            for workers in [1usize, 2] {
                let laned = Ensemble::new(workers)
                    .with_lanes(lanes)
                    .run(&sys, &solver, &seeds, 0.0, 1.0)
                    .stride(stride)
                    .params(|s| decay_params(&sys, s))
                    .trajectories()
                    .unwrap();
                prop_assert_eq!(&scalar, &laned, "n={} lanes={} workers={}", n, lanes, workers);
            }
        }
    }
}

/// The real §2.4 TLN Monte Carlo through the public ensemble entry point:
/// sizes straddling the group boundary (N < L, N = L, N % L != 0) are
/// bit-identical across explicit lane widths and worker counts.
#[test]
fn tline_ensemble_tail_sizes_match_scalar() {
    let base = tln_language();
    let gmc = gmc_tln_language(&base);
    let cfg = TlineConfig {
        mismatch: MismatchKind::Both,
        ..TlineConfig::default()
    };
    let (segments, t_end, dt, stride) = (4, 1.0e-8, 1e-10, 8);
    for n in [1usize, 3, 4, 5, 9] {
        let seeds = seed_range(0, n);
        let scalar = tline_mismatch_ensemble(
            &gmc,
            segments,
            &cfg,
            t_end,
            dt,
            stride,
            &seeds,
            &Ensemble::serial().with_lanes(1),
        )
        .unwrap();
        for lanes in [4usize, 8] {
            let laned = tline_mismatch_ensemble(
                &gmc,
                segments,
                &cfg,
                t_end,
                dt,
                stride,
                &seeds,
                &Ensemble::new(2).with_lanes(lanes),
            )
            .unwrap();
            assert_eq!(scalar, laned, "n={n} lanes={lanes}");
        }
    }
}
