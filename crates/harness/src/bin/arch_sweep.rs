//! Experiment E14 — device-catalog cross-part sweep (extension): the same
//! paper-scale run (N = 102 400, ten cycles) projected on each catalog part
//! (`n150`, `n300`) and for both force-kernel formulations. Cycles/pair are
//! *measured* first by running each kernel functionally through the device
//! pipeline at a small N; the calibrated per-arch model (cores, clock, DRAM
//! channels all from `tensix::catalog`) then extrapolates to the full card.

use std::fs;
use std::path::Path;

use nbody::ic::{plummer, PlummerConfig};
use nbody_tt::perf_model::RunModel;
use nbody_tt::pipeline::DeviceForcePipeline;
use nbody_tt::{
    arch_run, ForceEvaluator, ForceKernelKind, WormholePerfModel, DEVICE_CYCLES_PER_PAIR,
};
use tensix::catalog::DeviceArch;
use tensix::Device;

/// Particle count of the functional cycles/pair measurement (2 cores).
const MEASURE_N: usize = 2048;

fn measured_cycles_per_pair(kind: ForceKernelKind) -> f64 {
    let sys = plummer(PlummerConfig { n: MEASURE_N, seed: 0x5c25, ..PlummerConfig::default() });
    let device = Device::new(0, DeviceArch::n300().device_config());
    let pipeline = DeviceForcePipeline::new_with_kernel(device, MEASURE_N, 0.01, 2, kind)
        .expect("pipeline for the measurement run");
    pipeline.evaluate_checked(&sys).expect("measurement evaluation");
    let unit = pipeline.work_unit_particles();
    let owned = MEASURE_N.div_ceil(unit).div_ceil(2) * unit;
    pipeline.timing().last_eval_cycles as f64 / (owned * MEASURE_N) as f64
}

fn main() {
    println!("=== E14: device-catalog cross-part sweep (fixed paper N) ===\n");
    let ew = measured_cycles_per_pair(ForceKernelKind::Elementwise);
    let mx = measured_cycles_per_pair(ForceKernelKind::Matrix);
    println!(
        "measured cycles/pair (functional pipeline, n = {MEASURE_N}): \
         elementwise {ew:.3} (calibrated {DEVICE_CYCLES_PER_PAIR}), matrix {mx:.3}\n"
    );

    println!(" part | cores | clock | elementwise (s) | matrix (s) | kernel speedup");
    let mut csv = String::from("part,cores,clock_ghz,elementwise_s,matrix_s,kernel_speedup\n");
    for arch in [DeviceArch::n150(), DeviceArch::n300()] {
        let run = arch_run(&arch);
        let t_ew = run.accel_seconds_multi_device(arch.chips);
        let matrix_run =
            RunModel { device: WormholePerfModel { cycles_per_pair: mx, ..run.device }, ..run };
        let t_mx = matrix_run.accel_seconds_multi_device(arch.chips);
        println!(
            " {:>4} | {:>5} | {:.2} GHz | {t_ew:>14.1} | {t_mx:>9.1} | {:>13.2}x",
            arch.name,
            arch.total_cores(),
            arch.clock_ghz,
            t_ew / t_mx
        );
        csv.push_str(&format!(
            "{},{},{:.2},{t_ew:.2},{t_mx:.2},{:.3}\n",
            arch.name,
            arch.total_cores(),
            arch.clock_ghz,
            t_ew / t_mx
        ));
    }
    println!(
        "\nfindings: the kernel speedup carries across parts (it is a cycles/pair\n\
         property), while the part ratio is set by core count x clock; the n300's\n\
         2nd chip only helps once the ring comm model is paid off."
    );
    fs::create_dir_all("results").ok();
    fs::write(Path::new("results/arch_sweep.csv"), csv).ok();
    println!("raw data written to results/arch_sweep.csv");
}
