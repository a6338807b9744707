//! Cross-layer fault-tolerance properties: the seeded fault injector, the
//! retry machinery and the campaign census, asserted across seeds rather
//! than at single pinned configurations.

use proptest::prelude::*;

use nbody::ic::{plummer, PlummerConfig};
use nbody_tt::{DeviceForcePipeline, ForceEvaluator, RetryPolicy};
use tensix::fault::{FaultClass, FaultConfig};
use tensix::{Device, DeviceConfig, PowerParams, TILE_ELEMS};
use tt_telemetry::campaign::{census, run_campaign, run_job, FaultPolicy, JobKind, JobSpec};

/// A short-timeline accelerated job spec: same structure as the paper
/// campaign, scaled down so seeded sweeps stay fast.
fn quick_spec(reset_failure_prob: f64) -> JobSpec {
    JobSpec {
        kind: JobKind::Accelerated,
        nominal_seconds: 40.0,
        time_jitter_frac: 0.0008,
        sleep_seconds: 10.0,
        cards: 4,
        active_card: 3,
        card_params: PowerParams::default(),
        host_sim_power_w: 152.7,
        host_idle_power_w: 130.0,
        reset_failure_prob,
        sample_interval: 1.0,
        faults: FaultPolicy::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The injected reset census behaves as Binomial(jobs, 1 − p) for any
    /// seed and failure probability — the injector neither clusters nor
    /// starves failures — and replays deterministically under its seed.
    #[test]
    fn reset_census_is_binomial_consistent(seed in 0u64..10_000, p in 0.05f64..0.95) {
        let jobs = 40usize;
        let spec = quick_spec(p);
        let c = census(&run_campaign(&spec, jobs, seed));
        prop_assert_eq!(c.submitted, jobs);
        prop_assert_eq!(c.succeeded + c.failed_reset, jobs);

        let mean = jobs as f64 * (1.0 - p);
        let sd = (jobs as f64 * p * (1.0 - p)).sqrt();
        // 4.5σ (+1 for the tails at extreme p): a false alarm over the
        // whole sweep has probability well under 1e-3.
        prop_assert!(
            (c.succeeded as f64 - mean).abs() < 4.5 * sd + 1.0,
            "{} successes vs Binomial mean {mean:.1}, sd {sd:.2}",
            c.succeeded
        );

        prop_assert_eq!(c, census(&run_campaign(&spec, jobs, seed)), "census must replay");
    }

    /// A job that came up only after reset retries measures exactly what
    /// the same job measures on a healthy card: the retries happen outside
    /// the measurement window and never double-count time or energy.
    #[test]
    fn retried_jobs_never_double_count(seed in 0u64..10_000) {
        let mut spec = quick_spec(0.48);
        spec.faults = FaultPolicy { reset_retries: 6, reset_backoff_s: 2.0 };
        let records = run_campaign(&spec, 12, seed);
        let healthy = quick_spec(0.0);
        for rec in records.iter().filter(|r| r.success() && r.reset_retries_used > 0) {
            let clean = run_job(&healthy, rec.job_id, seed);
            prop_assert_eq!(rec.time_to_solution, clean.time_to_solution);
            prop_assert_eq!(rec.total_energy_j, clean.total_energy_j);
            prop_assert_eq!(rec.peak_power_w, clean.peak_power_w);
            prop_assert_eq!(rec.sim_window, clean.sim_window);
            prop_assert!(rec.recovery_overhead_s > 0.0, "the backoff must be billed");
        }
    }
}

/// Particles of the retry property's launch: one target tile.
const RETRY_N: usize = 512;
/// DRAM reads of one `RETRY_N` launch: per target tile, 6 target pages and
/// 7 packed source pages per source tile.
const RETRY_READS: u64 = (6 + 7 * RETRY_N.div_ceil(TILE_ELEMS)) as u64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// An injected transient device fault followed by an in-place retry
    /// produces forces f64-bitwise identical to a fault-free evaluation
    /// (N = 512), wherever in the read stream the fault lands.
    #[test]
    fn fault_then_retry_is_bit_identical(seed in 0u64..1000, at in 1u64..=RETRY_READS) {
        let n = RETRY_N;
        let sys = plummer(PlummerConfig { n, seed: 2024, ..PlummerConfig::default() });
        let clean =
            DeviceForcePipeline::new(Device::new(0, DeviceConfig::default()), n, 0.01, 2)
                .unwrap();
        let clean_forces = clean.evaluate_checked(&sys).unwrap();

        // Every DRAM hit is uncorrectable; schedule one on the `at`-th read.
        let dev = Device::new(
            0,
            DeviceConfig {
                faults: FaultConfig { dram_uncorrectable_frac: 1.0, ..FaultConfig::default() },
                seed,
                ..DeviceConfig::default()
            },
        );
        dev.faults().schedule(FaultClass::DramRead, at);
        let faulty = DeviceForcePipeline::new(dev, n, 0.01, 2).unwrap();
        let forces = faulty.evaluate_with_retry(&sys, RetryPolicy::default()).unwrap();
        prop_assert_eq!(faulty.timing().retries, 1, "exactly one retry");
        prop_assert_eq!(&forces.acc, &clean_forces.acc);
        prop_assert_eq!(&forces.jerk, &clean_forces.jerk);
    }
}
