//! Property tests for the serving resilience invariants:
//!
//! 1. A job interrupted by device loss at *any* step resumes
//!    bitwise-identically on a *different* backend (checkpoint migration is
//!    lossless wherever the loss lands), shared-step and block-step jobs
//!    alike — block jobs mid-hierarchy, not from the start.
//! 2. Spare/fleet exhaustion degrades jobs to the CPU evaluator instead of
//!    failing them (no admitted job is ever lost to hardware faults).

use std::sync::Arc;

use nbody::ic::{plummer, IcKind, PlummerConfig};
use nbody_tt::{
    latest_checkpoint, resume_simulation_resilient, run_simulation, run_simulation_resilient,
    BlockStepConfig, DeviceForcePipeline, RecoveryConfig, RetryPolicy, SimulationConfig,
    SpillConfig,
};
use proptest::prelude::*;
use tensix::{Device, DeviceConfig, FaultClass, ScrubConfig, StormConfig};
use tt_server::{
    run_campaign, state_hash, BackendKind, BreakerConfig, JobRequest, ServerConfig, TenantSpec,
};

fn sim() -> SimulationConfig {
    SimulationConfig {
        eps: 0.05,
        cycles: 2,
        steps_per_cycle: 3,
        dt: 1.0 / 256.0,
        num_cores: 1,
        blocks: None,
    }
}

fn spill(tag: &str) -> SpillConfig {
    SpillConfig::new(
        std::env::temp_dir().join(format!("tt-serve-prop-{tag}-{}.ckpt", std::process::id())),
    )
}

fn quiet_device(id: usize) -> Arc<Device> {
    Device::new(id, DeviceConfig { reset_failure_prob: 0.0, ..DeviceConfig::default() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill the device at the k-th program launch for every stepping launch
    /// in the run (launch 1 is init — before the first checkpoint exists);
    /// the checkpoint-migrated resume on a different card must finish
    /// bitwise-identical to an uninterrupted golden run, for a shared-step
    /// and a block-step job. The resume continues from the newest
    /// checkpoint, so it runs only the iterations past it.
    #[test]
    fn migration_is_bitwise_wherever_the_loss_lands(
        loss_event in 2u64..=7,
        ic_seed in 0u64..1000,
    ) {
        let n = 48;
        let ics = || plummer(PlummerConfig { n, seed: 7000 + ic_seed, ..PlummerConfig::default() });
        let block = SimulationConfig {
            blocks: Some(BlockStepConfig { eta: 0.02, levels: 3 }),
            ..sim()
        };
        for cfg in [sim(), block] {
            // Golden: fault-free single card.
            let mut golden = ics();
            let eval = Arc::new(
                DeviceForcePipeline::new(quiet_device(0), n, cfg.eps, cfg.num_cores).unwrap(),
            );
            let golden_steps = run_simulation(&eval, &mut golden, cfg).steps;

            // Interrupted: same ICs, device dies at launch `loss_event`
            // (init is launch 1, then one launch per iteration).
            let tag = format!("mig{loss_event}-{ic_seed}-{}", cfg.blocks.is_some());
            let spill = spill(&tag);
            let victim = quiet_device(1);
            victim.faults().schedule(FaultClass::DeviceLoss, loss_event);
            let eval = Arc::new(
                DeviceForcePipeline::new(victim, n, cfg.eps, cfg.num_cores).unwrap(),
            );
            let recovery = RecoveryConfig {
                checkpoint_every: 1,
                retry: RetryPolicy::default(),
                max_recoveries: 0,
                spill: Some(spill.clone()),
            };
            let mut sys = ics();
            let err = run_simulation_resilient(&eval, &mut sys, cfg, recovery.clone())
                .expect_err("every loss event lands inside the run");
            prop_assert!(err.is_card_loss(), "unexpected error {}", err);

            // Migrate: newest checkpoint, different backend, resume.
            let (ckpt, iteration) = latest_checkpoint(&spill).unwrap();
            prop_assert_eq!(iteration as u64, loss_event - 2, "checkpoint before the loss");
            let eval = Arc::new(
                DeviceForcePipeline::new(quiet_device(2), n, cfg.eps, cfg.num_cores).unwrap(),
            );
            let mut resumed = ics();
            let out = resume_simulation_resilient(&eval, &mut resumed, &ckpt, iteration, cfg, recovery)
                .unwrap();
            prop_assert_eq!(
                state_hash(&resumed),
                state_hash(&golden),
                "loss at launch {} (blocks: {})",
                loss_event,
                cfg.blocks.is_some()
            );
            prop_assert_eq!(out.outcome.steps + iteration, golden_steps);
            if loss_event > 2 {
                prop_assert!(out.outcome.steps < golden_steps, "resume replayed the whole run");
            }
            spill.cleanup();
        }
    }

    /// A fleet whose every card dies at its first launch (and stays
    /// breaker-quarantined) still completes every admitted job, on the CPU,
    /// bitwise-identical to the CPU golden.
    #[test]
    fn fleet_exhaustion_degrades_instead_of_failing(
        seed in 0u64..1000,
        jobs in 2u64..=4,
        max_migrations in 0u32..=2,
    ) {
        let dir = std::env::temp_dir()
            .join(format!("tt-serve-prop-exh-{seed}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ServerConfig {
            tenants: vec![TenantSpec::default()],
            backends: vec![BackendKind::SingleCard, BackendKind::SingleCard],
            storm: StormConfig {
                seed,
                device_loss_prob: 0.0,
                eth_flap_prob: 0.0,
                dram_corruption_prob: 0.0,
                scrub: ScrubConfig::default(),
                scheduled_loss_prob: 1.0,
                scheduled_loss_window: 1,
                ..StormConfig::default()
            },
            breaker: BreakerConfig { threshold: 1, quarantine_s: 1e6 },
            recoveries_per_segment: 0,
            spill_dir: dir,
            ..ServerConfig::default()
        };
        let arrivals: Vec<(f64, JobRequest)> = (0..jobs)
            .map(|id| {
                (0.01 * id as f64, JobRequest {
                    job_id: id,
                    tenant: 0,
                    n: 48,
                    ic: IcKind::Plummer,
                    ic_seed: seed ^ id,
                    sim: sim(),
                    deadline_s: 1e6,
                    max_migrations,
                })
            })
            .collect();
        let report = run_campaign(&cfg, &arrivals, None);
        prop_assert_eq!(report.census.total, jobs as usize);
        prop_assert_eq!(report.census.shed, 0);
        prop_assert!(report.census.zero_lost_jobs(), "jobs: {:?}", report.jobs);
        // Both cards die and quarantine forever: at least the later jobs
        // must have degraded to the CPU, and none may have failed.
        prop_assert!(report.census.degraded_cpu > 0, "census: {:?}", report.census);
        for j in &report.jobs {
            prop_assert_eq!(j.bitwise_golden, Some(true), "job {} not golden", j.job_id);
        }
    }
}
