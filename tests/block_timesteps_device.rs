//! Block individual time steps driving the device force pipeline — the
//! production-code configuration (hierarchical steps + offloaded forces).

use std::sync::Arc;

use nbody::diagnostics::{relative_energy_error, total_energy};
use nbody::ic::{king, plummer, KingConfig, PlummerConfig};
use nbody::particle::ParticleSystem;
use nbody::ReferenceKernel;
use nbody_tt::{
    run_block_simulation, BlockStepConfig, CpuForceEvaluator, DriverOutcome, ForceEvaluator,
    SimulationConfig, SingleCardEvaluator,
};
use tensix::{Device, DeviceConfig};

/// Block steps below a base step of 1/16, run to `t_end`.
fn block_config(eps: f64, eta: f64, levels: u32, t_end: f64) -> SimulationConfig {
    let dt = 1.0 / 16.0;
    SimulationConfig {
        eps,
        cycles: 1,
        steps_per_cycle: (t_end / dt).round() as usize,
        dt,
        num_cores: 1,
        blocks: Some(BlockStepConfig { eta, levels }),
    }
}

fn run<E: ForceEvaluator>(
    eval: E,
    sys: &mut ParticleSystem,
    cfg: SimulationConfig,
) -> DriverOutcome {
    run_block_simulation(&Arc::new(eval), sys, cfg).unwrap()
}

fn card(n: usize, eps: f64) -> SingleCardEvaluator {
    SingleCardEvaluator::new(Device::new(0, DeviceConfig::default()), n, eps, 1).unwrap()
}

#[test]
fn block_steps_on_device_conserve_energy() {
    let n = 128;
    let eps = 0.03;
    let mut sys = plummer(PlummerConfig { n, seed: 300, ..PlummerConfig::default() });
    let e0 = total_energy(&sys, eps);

    let out = run(card(n, eps), &mut sys, block_config(eps, 0.01, 5, 0.25));

    let err = relative_energy_error(total_energy(&sys, eps), e0);
    assert!(err < 1e-4, "energy error {err}");
    assert!(out.outcome.steps >= 4);
    assert!((sys.time - 0.25).abs() < 1e-9);
}

#[test]
fn device_block_run_tracks_cpu_block_run() {
    let n = 96;
    let eps = 0.05;
    let mk = || king(KingConfig { n, seed: 301, w0: 4.0 });
    let cfg = block_config(eps, 0.02, 4, 0.125);

    let mut dev_sys = mk();
    run(card(n, eps), &mut dev_sys, cfg);

    let mut cpu_sys = mk();
    run(CpuForceEvaluator::new(ReferenceKernel::new(eps), n), &mut cpu_sys, cfg);

    // FP32 device forces vs FP64 CPU forces can shift individual step
    // assignments, so compare trajectories loosely but meaningfully.
    let mut max_d: f64 = 0.0;
    for i in 0..n {
        for c in 0..3 {
            max_d = max_d.max((dev_sys.pos[i][c] - cpu_sys.pos[i][c]).abs());
        }
    }
    assert!(max_d < 1e-3, "device vs cpu block-step divergence {max_d}");
}
