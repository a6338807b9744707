//! Domain scenario: structural evolution of a dense star cluster — the
//! workload class motivating the paper (dense stellar systems as factories
//! of gravitational-wave sources).
//!
//! Evolves a Plummer sphere for a fraction of a crossing time with the
//! device-offloaded Hermite driver, tracking Lagrangian radii, energy
//! and the virial ratio, and cross-checks the trajectory against the CPU
//! mixed-precision reference.
//!
//! ```sh
//! cargo run --release --example star_cluster
//! ```

use nbody::diagnostics::{lagrangian_radius, total_energy, virial_ratio};
use nbody::ic::PlummerConfig;
use nbody::units::UnitSystem;
use tt_nbody::prelude::*;

fn main() {
    let n = 1024;
    let softening = 0.01;
    let units = UnitSystem::dense_cluster();
    let mut cluster = plummer(PlummerConfig { n, seed: 7, ..PlummerConfig::default() });
    let mut reference = cluster.clone();

    println!(
        "dense cluster: {n} bodies, unit mass {:.0} Msun, unit length {:.1} pc, \
         unit time {:.3} Myr",
        units.mass_msun,
        units.length_pc,
        units.time_unit_myr()
    );

    let device = create_device(0, DeviceConfig::default()).expect("device reset");
    let card =
        std::sync::Arc::new(SingleCardEvaluator::new(device, n, softening, 4).expect("pipeline"));
    let cpu_integ = Hermite4::new(ThreadedKernel::new(SimdKernel::new(softening), 4));

    let dt = 1.0 / 256.0;
    let segments = 4;
    let seg_steps = 7; // ~0.027 N-body time units per segment
    let segment = SimulationConfig {
        eps: softening,
        cycles: 1,
        steps_per_cycle: seg_steps,
        dt,
        num_cores: 4,
        blocks: None,
    };

    cpu_integ.initialize(&mut reference);
    println!("\n   t (Myr) |   r10%  |   r50%  |   r90%  |  Q=-T/W |     E");
    for seg in 0..=segments {
        if seg > 0 {
            let _ = run_simulation(&card, &mut cluster, segment);
            for _ in 0..seg_steps {
                cpu_integ.step(&mut reference, dt);
            }
        }
        println!(
            "  {:>8.4} | {:>7.4} | {:>7.4} | {:>7.4} | {:>7.4} | {:>8.5}",
            units.to_myr(cluster.time),
            lagrangian_radius(&cluster, 0.1),
            lagrangian_radius(&cluster, 0.5),
            lagrangian_radius(&cluster, 0.9),
            virial_ratio(&cluster, softening),
            total_energy(&cluster, softening),
        );
    }

    // Device vs CPU trajectory agreement (same algorithm, same precision).
    let mut max_dev: f64 = 0.0;
    for i in 0..n {
        for k in 0..3 {
            max_dev = max_dev.max((cluster.pos[i][k] - reference.pos[i][k]).abs());
        }
    }
    println!("\nmax |device - cpu| position deviation after the run: {max_dev:.2e}");
    assert!(max_dev < 1e-3, "trajectories must stay consistent");
    println!("device and CPU mixed-precision trajectories agree.");
}
