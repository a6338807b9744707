//! Accuracy budget of the matrix-pipe force kernel.
//!
//! The blocked-matmul formulation trades exactness for throughput in two
//! places: bf16 hi/lo operand splits (a value is carried as two bf16 pages,
//! reconstructed from partial-product matmuls with the lo×lo term dropped),
//! and *decomposed quadratic forms* — s² and d·dv are assembled from
//! |r|²/r·v moment matmuls instead of differenced coordinates, so FP32
//! rounding of the individual moments is amplified by ~max(|rᵢ|²,|rⱼ|²)/s²
//! wherever two distant-from-origin particles sit close to each other.
//!
//! These tests pin that budget analytically: for random Plummer draws the
//! matrix kernel must agree with the elementwise kernel *per particle*
//! within a first-order quantization bound computed in FP64 from the same
//! state, and the E-series energy-conservation goldens must pass for both
//! kernels.

use std::sync::Arc;

use nbody::accuracy::{compare_forces, ACC_TOLERANCE, JERK_TOLERANCE};
use nbody::force::{ForceKernel, ReferenceKernel};
use nbody::ic::{plummer, PlummerConfig};
use nbody::particle::ParticleSystem;
use nbody_tt::{
    run_simulation, DeviceForcePipeline, ForceEvaluator, ForceKernelKind, SimulationConfig,
    SimulationOutcome,
};
use tensix::{Device, DeviceConfig};

/// Effective relative quantization step of the matrix kernel's operand
/// path. A bf16 hi/lo split pair carries ~16 mantissa bits (residual
/// ~2⁻¹⁶); the FP32 moment matmuls round at 2⁻²⁴ per term but accumulate
/// over the 32-wide k dimension. 2⁻¹⁴ gives the first-order bound ×4
/// headroom over both, so a failure here means a real kernel defect, not a
/// tight constant.
const EPS_Q: f64 = 1.0 / (1 << 14) as f64;

fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn norm(a: [f64; 3]) -> f64 {
    dot(a, a).sqrt()
}

/// First-order per-particle error bounds |Δacc|, |Δjerk| (per component)
/// for the matrix formulation, from the FP64 state: every pair contributes
/// its s³/α sensitivities to the decomposed-moment rounding `EPS_Q·M`,
/// where `M` majorizes the magnitudes the quadratic forms actually sum.
fn quantization_bounds(sys: &ParticleSystem, eps: f64) -> (Vec<f64>, Vec<f64>) {
    let n = sys.len();
    let mut acc_bound = vec![0.0f64; n];
    let mut jerk_bound = vec![0.0f64; n];
    let eps2 = eps * eps;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let (ri, rj) = (sys.pos[i], sys.pos[j]);
            let (vi, vj) = (sys.vel[i], sys.vel[j]);
            let d = [rj[0] - ri[0], rj[1] - ri[1], rj[2] - ri[2]];
            let dv = [vj[0] - vi[0], vj[1] - vi[1], vj[2] - vi[2]];
            let s2 = dot(d, d) + eps2;
            let s = s2.sqrt();
            let s3 = s2 * s;
            let m = sys.mass[j];
            // Magnitudes summed by the decomposed quadratic forms.
            let mq = dot(ri, ri) + 2.0 * dot(ri, rj).abs() + dot(rj, rj) + eps2;
            let mv = dot(ri, vi).abs() + dot(ri, vj).abs() + dot(rj, vi).abs() + dot(rj, vj).abs();
            let alpha = dot(d, dv) / s2;
            let r_max = norm(ri).max(norm(rj));
            let v_max = norm(vi).max(norm(vj));
            // δ(s²) ≤ EPS_Q·Mq amplified through s⁻³ (factor 3/2), plus the
            // bf16-split residual of the coordinates themselves.
            acc_bound[i] += m / s3 * EPS_Q * (1.5 * mq * norm(d) / s2 + 2.0 * r_max);
            // Jerk adds the α = (d·dv)/s² decomposition and dv splits.
            let d_alpha = EPS_Q * (mv + alpha.abs() * mq) / s2;
            jerk_bound[i] += m / s3
                * ((norm(dv) + 3.0 * alpha.abs() * norm(d)) * 1.5 * EPS_Q * mq / s2
                    + 3.0 * norm(d) * d_alpha
                    + 2.0 * EPS_Q * v_max
                    + 6.0 * alpha.abs() * EPS_Q * r_max);
        }
    }
    (acc_bound, jerk_bound)
}

fn device_forces(sys: &ParticleSystem, eps: f64, kind: ForceKernelKind) -> nbody::particle::Forces {
    let device = Device::new(0, DeviceConfig::default());
    let pipeline = DeviceForcePipeline::new_with_kernel(device, sys.len(), eps, 2, kind).unwrap();
    pipeline.evaluate_checked(sys).unwrap()
}

/// Matrix vs elementwise per-particle deviation stays inside the analytic
/// quantization bound on random Plummer draws, and both kernels hold their
/// E4-style tolerance against the FP64 reference (paper tolerances for the
/// elementwise kernel, the documented 2× budget for the matrix kernel —
/// 5× before the moment accumulators grew on-device Kahan compensation).
#[test]
fn matrix_kernel_within_quantization_bound_on_plummer_draws() {
    let eps = 0.05;
    for seed in [11u64, 12, 13] {
        let sys = plummer(PlummerConfig { n: 640, seed, ..PlummerConfig::default() });
        let elementwise = device_forces(&sys, eps, ForceKernelKind::Elementwise);
        let matrix = device_forces(&sys, eps, ForceKernelKind::Matrix);
        let (acc_bound, jerk_bound) = quantization_bounds(&sys, eps);

        for i in 0..sys.len() {
            for k in 0..3 {
                let da = (matrix.acc[i][k] - elementwise.acc[i][k]).abs();
                assert!(
                    da <= acc_bound[i],
                    "seed {seed} particle {i} axis {k}: |Δacc| {da:.3e} exceeds \
                     quantization bound {:.3e}",
                    acc_bound[i]
                );
                let dj = (matrix.jerk[i][k] - elementwise.jerk[i][k]).abs();
                assert!(
                    dj <= jerk_bound[i],
                    "seed {seed} particle {i} axis {k}: |Δjerk| {dj:.3e} exceeds \
                     quantization bound {:.3e}",
                    jerk_bound[i]
                );
            }
        }

        let golden = ReferenceKernel::new(eps).compute(&sys);
        let cmp_e = compare_forces(&golden, &elementwise);
        assert!(
            cmp_e.passes(),
            "seed {seed}: elementwise kernel must hold the paper tolerances \
             (acc {:.2e}, jerk {:.2e})",
            cmp_e.max_acc_error,
            cmp_e.max_jerk_error
        );
        let cmp_m = compare_forces(&golden, &matrix);
        assert!(
            cmp_m.max_acc_error <= 2.0 * ACC_TOLERANCE
                && cmp_m.max_jerk_error <= 2.0 * JERK_TOLERANCE,
            "seed {seed}: matrix kernel must stay inside its documented 2× budget \
             (acc {:.2e}, jerk {:.2e})",
            cmp_m.max_acc_error,
            cmp_m.max_jerk_error
        );
    }
}

fn energy_run(kind: ForceKernelKind) -> SimulationOutcome {
    let mut sys = plummer(PlummerConfig { n: 256, seed: 7, ..PlummerConfig::default() });
    let device = Device::new(0, DeviceConfig::default());
    let pipeline =
        Arc::new(DeviceForcePipeline::new_with_kernel(device, 256, 0.05, 2, kind).unwrap());
    run_simulation(
        &pipeline,
        &mut sys,
        SimulationConfig {
            eps: 0.05,
            cycles: 2,
            steps_per_cycle: 2,
            dt: 1.0 / 256.0,
            num_cores: 2,
            blocks: None,
        },
    )
}

/// The E-series energy-conservation goldens hold for both force kernels:
/// the Hermite loop with FP32 device forces conserves energy at the 1e-5
/// level over a few steps (golden 1e-4), and the matrix kernel's larger
/// per-force error budget still keeps it inside 1e-3.
#[test]
fn energy_conservation_goldens_both_kernels() {
    let e = energy_run(ForceKernelKind::Elementwise);
    assert_eq!(e.steps, 4);
    assert!(e.energy_error < 1e-4, "elementwise energy error {}", e.energy_error);
    assert!(e.initial_energy < 0.0, "bound cluster");

    let m = energy_run(ForceKernelKind::Matrix);
    assert_eq!(m.steps, 4);
    assert!(m.energy_error < 1e-3, "matrix energy error {}", m.energy_error);
    assert!(m.initial_energy < 0.0, "bound cluster");
}
