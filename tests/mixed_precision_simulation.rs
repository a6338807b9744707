//! Full mixed-precision Hermite simulations with the device in the loop:
//! energy conservation, trajectory agreement with the CPU reference, and
//! the virtual-time bookkeeping.

use std::sync::Arc;

use nbody::diagnostics::{angular_momentum, total_energy};
use nbody::force::{SimdKernel, ThreadedKernel};
use nbody::ic::{plummer, PlummerConfig};
use nbody::particle::ParticleSystem;
use nbody_tt::{
    run_simulation, CpuForceEvaluator, DeviceForcePipeline, SimulationConfig, SimulationOutcome,
};
use tensix::{Device, DeviceConfig};

/// The Hermite driver on one fresh card.
fn device_run(sys: &mut ParticleSystem, cfg: SimulationConfig) -> SimulationOutcome {
    let card = DeviceForcePipeline::new(
        Device::new(0, DeviceConfig::default()),
        sys.len(),
        cfg.eps,
        cfg.num_cores,
    )
    .unwrap();
    run_simulation(&Arc::new(card), sys, cfg)
}

fn config() -> SimulationConfig {
    SimulationConfig {
        eps: 0.03,
        cycles: 3,
        steps_per_cycle: 3,
        dt: 1.0 / 256.0,
        num_cores: 2,
        blocks: None,
    }
}

#[test]
fn device_simulation_paper_structure() {
    // cycles × steps mirrors the paper's "ten time cycles" structure.
    let mut sys = plummer(PlummerConfig { n: 256, seed: 21, ..PlummerConfig::default() });
    let out = device_run(&mut sys, config());
    assert_eq!(out.steps, 9);
    assert_eq!(out.kernel, "tenstorrent-wormhole");
    assert!(out.energy_error < 1e-4, "energy error {}", out.energy_error);
    let timing = out.timing.unwrap();
    assert_eq!(timing.evaluations, 10, "init + 9 steps");
    assert!(timing.device_seconds > 0.0 && timing.io_seconds > 0.0);
}

#[test]
fn device_and_cpu_trajectories_track() {
    let mk = || plummer(PlummerConfig { n: 200, seed: 22, ..PlummerConfig::default() });
    let cfg = config();
    let mut dev_sys = mk();
    let _ = device_run(&mut dev_sys, cfg);
    let mut cpu_sys = mk();
    let cpu = CpuForceEvaluator::new(ThreadedKernel::new(SimdKernel::new(cfg.eps), 3), 200);
    let _ = run_simulation(&Arc::new(cpu), &mut cpu_sys, cfg);

    let mut max_d: f64 = 0.0;
    for i in 0..dev_sys.len() {
        for k in 0..3 {
            max_d = max_d.max((dev_sys.pos[i][k] - cpu_sys.pos[i][k]).abs());
        }
    }
    assert!(max_d < 1e-5, "device vs cpu divergence {max_d}");
}

#[test]
fn conservation_laws_hold_through_offload() {
    let mut sys = plummer(PlummerConfig { n: 160, seed: 23, ..PlummerConfig::default() });
    let eps = 0.03;
    let l0 = angular_momentum(&sys);
    let e0 = total_energy(&sys, eps);
    let out = device_run(
        &mut sys,
        SimulationConfig {
            eps,
            cycles: 2,
            steps_per_cycle: 4,
            dt: 1.0 / 512.0,
            num_cores: 1,
            blocks: None,
        },
    );
    let l1 = angular_momentum(&sys);
    for k in 0..3 {
        assert!((l1[k] - l0[k]).abs() < 1e-5, "L[{k}] drift {} -> {}", l0[k], l1[k]);
    }
    assert!((out.initial_energy - e0).abs() < 1e-12);
    assert!(out.final_energy < 0.0, "cluster stays bound");
}

#[test]
fn longer_run_energy_stays_bounded() {
    let mut sys = plummer(PlummerConfig { n: 128, seed: 24, ..PlummerConfig::default() });
    let out = device_run(
        &mut sys,
        SimulationConfig {
            eps: 0.05,
            cycles: 5,
            steps_per_cycle: 8,
            dt: 1.0 / 256.0,
            num_cores: 1,
            blocks: None,
        },
    );
    assert_eq!(out.steps, 40);
    assert!(out.energy_error < 5e-4, "energy error {} over 40 steps", out.energy_error);
}
