//! Stress scenario: cold collapse of a uniform sphere on the device.
//!
//! Zero initial velocities maximize the dynamic range the FP32 device kernel
//! must handle (deep collapse, strong close encounters) — a harsher
//! correctness test than the equilibrium Plummer workload. The run tracks
//! the collapse through the 10% Lagrangian radius and checks energy
//! conservation in the mixed-precision scheme.
//!
//! ```sh
//! cargo run --release --example cold_collapse
//! ```

use nbody::diagnostics::{lagrangian_radius, relative_energy_error, total_energy};
use nbody::ic::cold_collapse;
use tt_nbody::prelude::*;

fn main() {
    let n = 512;
    // Generous softening: collapse focuses the whole sphere through a small
    // volume, and the paper's kernel has no regularization.
    let softening = 0.05;
    let mut sphere = cold_collapse(n, 3, 1.0);

    let device = create_device(0, DeviceConfig::default()).expect("device reset");
    let card =
        std::sync::Arc::new(SingleCardEvaluator::new(device, n, softening, 2).expect("pipeline"));

    let e0 = total_energy(&sphere, softening);
    println!("cold uniform sphere: n = {n}, E0 = {e0:.5} (free-fall time ~ pi/2 * sqrt(R^3/2GM))");
    println!("\n      t  |  r10%   |  r50%   |  |dE/E|");

    // Free-fall time of a cold uniform unit sphere is ~1.11 N-body time
    // units; run to t = 1.25 to pass through maximum collapse.
    let segment = SimulationConfig {
        eps: softening,
        cycles: 1,
        steps_per_cycle: 64,
        dt: 1.0 / 512.0,
        num_cores: 2,
        blocks: None,
    };
    let mut min_r10 = f64::INFINITY;
    for _ in 0..10 {
        let _ = run_simulation(&card, &mut sphere, segment);
        let r10 = lagrangian_radius(&sphere, 0.1);
        min_r10 = min_r10.min(r10);
        let err = relative_energy_error(total_energy(&sphere, softening), e0);
        println!(
            "  {:>6.3} | {:>7.4} | {:>7.4} | {:>8.2e}",
            sphere.time,
            r10,
            lagrangian_radius(&sphere, 0.5),
            err
        );
    }

    assert!(min_r10 < 0.3, "the sphere must actually collapse (min r10 = {min_r10})");
    let final_err = relative_energy_error(total_energy(&sphere, softening), e0);
    assert!(final_err < 5e-3, "energy error {final_err} too large");
    println!("\ncollapse reproduced with |dE/E| = {final_err:.2e} in mixed precision.");
}
