//! Experiment E15 — block time steps against shared steps at equal
//! accuracy (extension).
//!
//! Runs a cold collapse (N = 4096, one core, to t = 0.25) once on block
//! steps (base dt = 1/16, three levels, η = 0.02) and on shared steps at
//! dt/2^k for k = 0..=3, all on the virtual clock. The baseline is the
//! coarsest shared step whose |dE/E| is at most the block run's, so the
//! speedup compares runs of equal accuracy, not a block run against a
//! shared run that is far more accurate. Writes one row per run to
//! `results/block_speedup.csv`, and exits non-zero unless the block run
//! beats that baseline and both hold |dE/E| < 1e-4.

use std::fs;
use std::sync::Arc;

use nbody::ic::IcKind;
use nbody_tt::{run_block_simulation, BlockStepConfig, DeviceForcePipeline, SimulationConfig};
use tensix::{Device, DeviceConfig};

/// Particle count: 4 target tiles on one core, so a gathered active
/// launch is genuinely smaller than the full-N grid.
const N: usize = 4096;
/// Levels of the block hierarchy below the base step.
const LEVELS: u32 = 3;

/// One fault-free run on a fresh one-core card: virtual device + PCIe
/// seconds, |dE/E| and particle evaluations.
fn run(config: SimulationConfig) -> (f64, f64, u64) {
    let mut sys = IcKind::ColdCollapse.build(N, 3);
    let device = Device::new(0, DeviceConfig::default());
    let card = Arc::new(DeviceForcePipeline::new(device, N, config.eps, 1).expect("pipeline"));
    let out = run_block_simulation(&card, &mut sys, config).expect("fault-free run");
    let timing = out.outcome.timing.expect("device run has timing");
    (
        timing.device_seconds + timing.io_seconds,
        out.outcome.energy_error,
        out.report.particle_evaluations,
    )
}

fn main() {
    let block = SimulationConfig {
        eps: 0.05,
        cycles: 1,
        steps_per_cycle: 4,
        dt: 1.0 / 16.0,
        num_cores: 1,
        blocks: Some(BlockStepConfig { eta: 0.02, levels: LEVELS }),
    };
    let mut runs = vec![("block".to_string(), block.dt, run(block))];
    for k in 0..=LEVELS {
        let refine = 1usize << k;
        let shared = SimulationConfig {
            blocks: None,
            dt: block.dt / refine as f64,
            steps_per_cycle: block.steps_per_cycle * refine,
            ..block
        };
        runs.push((format!("shared_dt/{refine}"), shared.dt, run(shared)));
    }

    println!("=== E15: block time steps vs shared steps at equal accuracy ===\n");
    println!("N = {N} cold collapse to t = 0.25 on one core (virtual device + PCIe seconds)\n");
    println!(" run            | dt        | virtual s | |dE/E|    | particle evals");
    let mut csv = String::from("run,dt,virtual_s,abs_energy_error,particle_evaluations\n");
    for (name, dt, (secs, de, evals)) in &runs {
        println!(" {name:<14} | {dt:<9} | {secs:>9.6} | {de:>9.3e} | {evals:>14}");
        csv.push_str(&format!("{name},{dt},{secs:.6},{de:.3e},{evals}\n"));
    }

    let (block_s, block_de, _) = runs[0].2;
    let (name, _, (base_s, base_de, _)) = runs[1..]
        .iter()
        .find(|(_, _, (_, de, _))| *de <= block_de)
        .expect("the finest shared step must be at least as accurate as the block run");
    let speedup = base_s / block_s;
    println!(
        "\nequal-accuracy baseline: {name} (|dE/E| {base_de:.3e} <= block {block_de:.3e}); \
         block steps are {speedup:.3}x faster"
    );
    assert!(speedup > 1.0, "block steps must beat the equal-accuracy shared run ({speedup:.3}x)");
    assert!(
        block_de < 1e-4 && *base_de < 1e-4,
        "both runs must hold |dE/E| < 1e-4 (block {block_de:.2e}, shared {base_de:.2e})"
    );

    fs::create_dir_all("results").ok();
    fs::write("results/block_speedup.csv", csv).ok();
    println!("raw data written to results/block_speedup.csv");
}
