//! Production-style run: the ingredients a real campaign combines —
//! a King-model cluster (tidally truncated, the observationally grounded
//! choice), *block individual time steps* (the efficiency feature of
//! production Hermite codes), and the force kernel offloaded to the
//! simulated Wormhole.
//!
//! ```sh
//! cargo run --release --example production_run
//! ```

use nbody::diagnostics::{lagrangian_radius, total_energy, virial_ratio};
use nbody::ic::{king, KingConfig};
use nbody_tt::BlockStepConfig;
use tt_nbody::prelude::*;

fn main() {
    let n = 512;
    let softening = 0.01;
    let mut cluster = king(KingConfig { n, seed: 11, w0: 6.0 });
    println!(
        "King W0=6 cluster: {n} bodies, E = {:.4}, Q = {:.3}, r50 = {:.3}",
        total_energy(&cluster, softening),
        virial_ratio(&cluster, softening),
        lagrangian_radius(&cluster, 0.5)
    );

    let device = create_device(0, DeviceConfig::default()).expect("device reset");
    let card =
        std::sync::Arc::new(SingleCardEvaluator::new(device, n, softening, 2).expect("pipeline"));

    // Block steps: base step 1/32, up to 6 halvings (finest 1/2048); the
    // device launches only the particles due at each block time.
    let config = SimulationConfig {
        eps: softening,
        cycles: 1,
        steps_per_cycle: 8,
        dt: 1.0 / 32.0,
        num_cores: 2,
        blocks: Some(BlockStepConfig { eta: 0.01, levels: 6 }),
    };
    let out = nbody_tt::run_block_simulation(&card, &mut cluster, config).expect("fault-free card");
    let ledger = &out.report;

    println!("\nblock-timestep run to t = 0.25:");
    println!("  {} block iterations", out.outcome.steps);
    println!("  {} particle force evaluations", ledger.particle_evaluations);
    println!("  smallest step used: {:.2e}", ledger.min_dt_used);
    let shared_equivalent = (0.25 / ledger.min_dt_used) as u64 * n as u64;
    println!(
        "  shared stepping at that dt would need {} evaluations ({:.1}x more)",
        shared_equivalent,
        shared_equivalent as f64 / ledger.particle_evaluations as f64
    );
    let err = out.outcome.energy_error;
    println!("  relative energy error: {err:.2e}");
    assert!(err < 1e-3, "energy error too large: {err}");
}
