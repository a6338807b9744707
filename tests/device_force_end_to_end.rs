//! End-to-end force correctness: the full stack (tilize → DRAM →
//! read/compute/write kernels over circular buffers → untilize) against the
//! FP64 golden reference, at the paper's §3 tolerances.

use std::sync::Arc;

use nbody::accuracy::{compare_forces, ACC_TOLERANCE, JERK_TOLERANCE};
use nbody::force::{ForceKernel, ReferenceKernel, SimdKernel};
use nbody::ic::{
    plummer, two_cluster_merger, uniform_sphere, PlummerConfig, TwoClusterConfig, UniformConfig,
};
use nbody_tt::{DeviceForcePipeline, ForceEvaluator};
use tensix::{Device, DeviceConfig};

fn device() -> Arc<Device> {
    Device::new(0, DeviceConfig::default())
}

#[test]
fn plummer_various_sizes_meet_paper_tolerances() {
    for (n, cores) in [(128usize, 1usize), (500, 1), (1024, 1), (1500, 2)] {
        let sys = plummer(PlummerConfig { n, seed: n as u64, ..PlummerConfig::default() });
        let eps = 0.01;
        let pipeline = DeviceForcePipeline::new(device(), n, eps, cores).unwrap();
        let dev = pipeline.evaluate_checked(&sys).unwrap();
        let golden = ReferenceKernel::new(eps).compute(&sys);
        let cmp = compare_forces(&golden, &dev);
        assert!(
            cmp.max_acc_error <= ACC_TOLERANCE,
            "N={n}: acc error {:.3e} exceeds paper tolerance",
            cmp.max_acc_error
        );
        assert!(
            cmp.max_jerk_error <= JERK_TOLERANCE,
            "N={n}: jerk error {:.3e} exceeds paper tolerance",
            cmp.max_jerk_error
        );
    }
}

#[test]
fn device_matches_cpu_simd_kernel_closely() {
    // Same FP32 precision, so agreement should be tighter than vs FP64.
    let n = 768;
    let sys = plummer(PlummerConfig { n, seed: 9, ..PlummerConfig::default() });
    let eps = 0.02;
    let pipeline = DeviceForcePipeline::new(device(), n, eps, 1).unwrap();
    let dev = pipeline.evaluate_checked(&sys).unwrap();
    let simd = SimdKernel::new(eps).compute(&sys);
    let golden = ReferenceKernel::new(eps).compute(&sys);
    let dev_err = compare_forces(&golden, &dev).max_acc_error;
    let simd_err = compare_forces(&golden, &simd).max_acc_error;
    assert!(
        dev_err < 10.0 * simd_err.max(1e-7),
        "device error {dev_err:.2e} should be commensurate with SIMD f32 error {simd_err:.2e}"
    );
}

#[test]
fn non_equilibrium_workloads_validate() {
    let eps = 0.02;
    let merger = two_cluster_merger(TwoClusterConfig { n1: 300, n2: 212, ..Default::default() });
    let hot =
        uniform_sphere(UniformConfig { n: 400, seed: 5, virial_ratio: 1.5, ..Default::default() });
    for (label, sys) in [("merger", merger), ("hot-sphere", hot)] {
        let pipeline = DeviceForcePipeline::new(device(), sys.len(), eps, 1).unwrap();
        let dev = pipeline.evaluate_checked(&sys).unwrap();
        let golden = ReferenceKernel::new(eps).compute(&sys);
        let cmp = compare_forces(&golden, &dev);
        assert!(
            cmp.passes(),
            "{label}: acc {:.2e} jerk {:.2e}",
            cmp.max_acc_error,
            cmp.max_jerk_error
        );
    }
}

#[test]
fn momentum_conserved_by_device_forces() {
    let n = 640;
    let sys = plummer(PlummerConfig { n, seed: 77, ..PlummerConfig::default() });
    let pipeline = DeviceForcePipeline::new(device(), n, 0.01, 1).unwrap();
    let f = pipeline.evaluate_checked(&sys).unwrap();
    let typical: f64 =
        f.acc.iter().map(|a| (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt()).sum::<f64>()
            / n as f64;
    for c in 0..3 {
        let p: f64 = sys.mass.iter().zip(&f.acc).map(|(m, a)| m * a[c]).sum();
        assert!(
            p.abs() / typical < 1e-4,
            "net momentum flux component {c}: {p:.3e} (typical acc {typical:.3e})"
        );
    }
}

#[test]
fn repeated_evaluations_are_deterministic() {
    let n = 256;
    let sys = plummer(PlummerConfig { n, seed: 3, ..PlummerConfig::default() });
    let pipeline = DeviceForcePipeline::new(device(), n, 0.01, 1).unwrap();
    let a = pipeline.evaluate_checked(&sys).unwrap();
    let b = pipeline.evaluate_checked(&sys).unwrap();
    assert_eq!(a.acc, b.acc, "device evaluation must be bit-deterministic");
    assert_eq!(a.jerk, b.jerk);
    assert_eq!(pipeline.timing().evaluations, 2);
}

#[test]
fn core_count_does_not_change_results() {
    let n = 2048;
    let sys = plummer(PlummerConfig { n, seed: 4, ..PlummerConfig::default() });
    let one =
        DeviceForcePipeline::new(device(), n, 0.01, 1).unwrap().evaluate_checked(&sys).unwrap();
    let two =
        DeviceForcePipeline::new(device(), n, 0.01, 2).unwrap().evaluate_checked(&sys).unwrap();
    assert_eq!(one.acc, two.acc, "work distribution must not affect values");
    assert_eq!(one.jerk, two.jerk);
}
