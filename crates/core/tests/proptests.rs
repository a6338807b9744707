//! Property-based tests on the port's layout and performance model.

use proptest::prelude::*;

use nbody::ic::{plummer, PlummerConfig};
use nbody_tt::layout::{split_tiles_to_cores, tilize_sources, tilize_targets, HostArrays};
use nbody_tt::perf_model::{RunModel, WormholePerfModel};
use tensix::{TILE_DIM, TILE_ELEMS};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Work splitting covers every tile exactly once, contiguously and
    /// front-loaded.
    #[test]
    fn split_covers_all_tiles(tiles in 0usize..500, cores in 1usize..80) {
        let split = split_tiles_to_cores(tiles, cores);
        prop_assert_eq!(split.len(), cores);
        let total: usize = split.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(total, tiles);
        // Contiguity and monotone starts.
        let mut next = 0;
        for (start, count) in &split {
            prop_assert_eq!(*start, next);
            next += count;
        }
        // Balance: no core differs from another by more than one tile.
        let max = split.iter().map(|(_, c)| *c).max().unwrap_or(0);
        let min = split.iter().map(|(_, c)| *c).min().unwrap_or(0);
        prop_assert!(max - min <= 1, "imbalance {max} vs {min}");
    }

    /// The Fig. 2 layout round-trips particle data exactly (FP32 grid), in
    /// both packed views.
    #[test]
    fn fig2_layout_roundtrip(n in 1usize..2200, seed in 0u64..100) {
        let sys = plummer(PlummerConfig { n, seed, ..PlummerConfig::default() });
        let arrays = HostArrays::from_system(&sys);
        let targets = tilize_targets(&arrays, TILE_DIM);
        let sources = tilize_sources(&arrays);
        prop_assert_eq!(targets[0].len(), n.div_ceil(TILE_ELEMS));
        prop_assert_eq!(sources[0].len(), n.div_ceil(TILE_ELEMS));
        // Both views unpack back to the FP32 arrays.
        let x = tensix::tile::unpack_vector(&targets[0], n);
        prop_assert_eq!(&x, &arrays.pos[0]);
        let m = tensix::tile::unpack_vector(&sources[0], n);
        prop_assert_eq!(&m, &arrays.mass);
        let y = tensix::tile::unpack_vector(&sources[2], n);
        prop_assert_eq!(&y, &arrays.pos[1]);
    }

    /// Device eval time is monotone in N and in core count (more cores
    /// never slower).
    #[test]
    fn perf_model_monotonicity(n in 1024usize..300_000) {
        let m = WormholePerfModel::default();
        prop_assert!(m.eval_seconds(n + 1024) >= m.eval_seconds(n));
        let double = WormholePerfModel { cores: 128, ..m };
        prop_assert!(double.eval_seconds(n) <= m.eval_seconds(n) + 1e-12);
        prop_assert!(m.io_seconds_optimized(n) < m.io_seconds(n));
        prop_assert!(m.step_seconds_optimized(n) < m.step_seconds(n));
    }

    /// The run model's headline ratios stay in the paper's neighbourhood for
    /// moderate perturbations of the step count (the one unconstrained
    /// calibration): speedup is step-count-invariant.
    #[test]
    fn speedup_independent_of_steps(steps in 10usize..2000) {
        let run = RunModel { steps, ..RunModel::default() };
        prop_assert!((run.speedup() - RunModel::default().speedup()).abs() < 1e-9);
        prop_assert!((run.energy_ratio() - RunModel::default().energy_ratio()).abs() < 1e-9);
    }
}
