//! Experiment E4 — the §3 correctness methodology: force and jerk from the
//! Wormhole pipeline vs the FP64 golden reference, across workloads, with
//! the paper's tolerances (acc within 0.05 %, jerk within 0.2 % of a typical
//! force magnitude).

use std::fs;
use std::path::Path;

use nbody::accuracy::compare_forces;
use nbody::force::ForceKernel;
use nbody::ic::{plummer, PlummerConfig};
use nbody::ReferenceKernel;
use nbody_tt::validate::{format_table, validation_suite};
use nbody_tt::{DeviceForcePipeline, ForceEvaluator};
use tensix::{DataFormat, Device, DeviceConfig};

fn main() {
    if tt_harness::maybe_run_profile() {
        return;
    }
    println!("=== E4: device-vs-golden accuracy (paper §3) ===\n");
    let device = Device::new(0, DeviceConfig::default());
    // Full functional execution; 2048-particle Plummer is the largest row.
    let rows = validation_suite(&device, 2048).expect("validation suite");
    let table = format_table(&rows);
    println!("{table}");
    let all_pass = rows.iter().all(nbody_tt::ValidationRow::passes);
    println!(
        "paper claim: all components within tolerance -> {}",
        if all_pass { "REPRODUCED" } else { "NOT reproduced" }
    );
    fs::create_dir_all("results").ok();
    fs::write(Path::new("results/accuracy_table.txt"), table).ok();
    println!("table written to results/accuracy_table.txt");
    assert!(all_pass, "accuracy table must pass");

    // Precision ablation: why the paper computes in FP32.
    println!("\n--- storage-format ablation (N = 512 Plummer) ---");
    let sys = plummer(PlummerConfig { n: 512, seed: 40, ..PlummerConfig::default() });
    let golden = ReferenceKernel::new(0.01).compute(&sys);
    for (label, format) in [
        ("FP32 (paper)", DataFormat::Float32),
        ("BF16", DataFormat::Float16b),
        ("FP16", DataFormat::Float16),
    ] {
        let p = DeviceForcePipeline::new_with_format(
            Device::new(0, DeviceConfig::default()),
            512,
            0.01,
            1,
            format,
        )
        .expect("pipeline");
        let cmp = compare_forces(&golden, &p.evaluate_checked(&sys).expect("eval"));
        println!(
            "{label:<13} max acc err {:.3e} | max jerk err {:.3e} | {}",
            cmp.max_acc_error,
            cmp.max_jerk_error,
            if cmp.passes() { "PASS" } else { "FAIL (motivates FP32)" }
        );
    }
}
