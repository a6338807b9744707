//! Experiment E14 — device-catalog cross-part sweep (extension): the same
//! paper-scale run (N = 102 400, ten cycles) projected on each catalog part
//! (`n150`, `n300`) and for both force-kernel formulations. Cycles/pair are
//! *measured* first by running each kernel functionally through the device
//! pipeline at a small N ([`tt_harness::kernel_cycles`]); the calibrated
//! per-arch model (cores, clock, DRAM channels all from `tensix::catalog`)
//! then extrapolates to the full card. Exits non-zero unless the matrix
//! kernel measures below the calibrated elementwise cycles/pair.

use std::fs;
use std::path::Path;

use nbody_tt::perf_model::RunModel;
use nbody_tt::{arch_run, ForceKernelKind, WormholePerfModel, DEVICE_CYCLES_PER_PAIR};
use tensix::catalog::DeviceArch;
use tt_harness::{kernel_cycles, MEASURE_N};

fn main() {
    println!("=== E14: device-catalog cross-part sweep (fixed paper N) ===\n");
    let (_, ew) = kernel_cycles(ForceKernelKind::Elementwise);
    let (_, mx) = kernel_cycles(ForceKernelKind::Matrix);
    println!(
        "measured cycles/pair (functional pipeline, n = {MEASURE_N}, 2 cores): \
         elementwise {ew:.3} (calibrated {DEVICE_CYCLES_PER_PAIR}), matrix {mx:.3}\n"
    );
    // The matrix formulation's whole claim: modeled cycles/pair strictly
    // below the paper-calibrated elementwise figure.
    assert!(
        mx < DEVICE_CYCLES_PER_PAIR,
        "matrix kernel must beat the calibrated elementwise {DEVICE_CYCLES_PER_PAIR} cycles/pair \
         (measured {mx:.3})"
    );

    println!(" part | cores | clock | elementwise (s) | matrix (s) | kernel speedup");
    let mut csv = String::from(
        "part,cores,clock_ghz,elementwise_cycles_per_pair,matrix_cycles_per_pair,\
         elementwise_s,matrix_s,kernel_speedup\n",
    );
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
            "{},{},{:.2},{ew:.4},{mx:.4},{t_ew:.2},{t_mx:.2},{:.3}\n",
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
