//! Quickstart: evolve a small star cluster with the force kernel offloaded
//! to the (simulated) Tenstorrent Wormhole.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tt_nbody::prelude::*;

use nbody::diagnostics::virial_ratio;
use nbody::ic::PlummerConfig;

fn main() {
    // 1. Sample an equilibrium Plummer cluster (Hénon units: G = M = 1).
    let n = 512;
    let mut cluster = plummer(PlummerConfig { n, seed: 42, ..PlummerConfig::default() });
    println!("sampled a {n}-body Plummer sphere, virial ratio {:.3}", virial_ratio(&cluster, 0.0));

    // 2. Bring up a Wormhole card (CreateDevice resets it — on the paper's
    //    machine this step failed for 24 of 50 jobs; here the injector is
    //    off by default).
    let device = create_device(0, DeviceConfig::default()).expect("device reset");
    println!("device {} up: {} Tensix cores", device.id(), device.grid().num_cores());

    // 3. Build the force pipeline: Fig. 2 tile layout, read/compute/write
    //    kernels, FP32 math on the SFPU.
    let softening = 0.01;
    let cores = 2;
    let card = DeviceForcePipeline::new(device, n, softening, cores).expect("pipeline");
    let card = std::sync::Arc::new(card);

    // 4. Evolve with the 4th-order Hermite driver — prediction and
    //    correction in FP64 on the host, force and jerk in FP32 on the
    //    device (the paper's mixed-precision split).
    let config = SimulationConfig {
        eps: softening,
        cycles: 1,
        steps_per_cycle: 13,
        dt: 1.0 / 256.0,
        num_cores: cores,
        blocks: None,
    };
    let out = run_simulation(&card, &mut cluster, config);

    println!("evolved {} Hermite steps to t = {:.4}", out.steps, cluster.time);
    println!("relative energy error: {:.2e}", out.energy_error);

    // 5. Device-side accounting from the run.
    let timing = out.timing.expect("device runs report timing");
    println!(
        "device force evaluations: {} ({:.3} ms device time, {:.3} ms PCIe)",
        timing.evaluations,
        timing.device_seconds * 1e3,
        timing.io_seconds * 1e3
    );
}
