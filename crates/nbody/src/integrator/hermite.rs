//! 4th-order Hermite predictor–corrector.
//!
//! The scheme of Makino & Aarseth used by production direct N-body codes:
//!
//! predictor:  xₚ = x + v dt + a dt²/2 + ȧ dt³/6
//!             vₚ = v + a dt + ȧ dt²/2
//! evaluate:   (a₁, ȧ₁) at the predicted state           ← offloaded part
//! corrector:  v₁ = v + (a + a₁) dt/2 + (ȧ − ȧ₁) dt²/12
//!             x₁ = x + (v + v₁) dt/2 + (a − a₁) dt²/12
//!
//! One force evaluation per step; 4th-order accurate thanks to the jerk.
//! Prediction and correction run in FP64 on the host — the mixed-precision
//! split of the paper.

use crate::force::ForceKernel;
use crate::integrator::Integrator;
use crate::particle::{ParticleSystem, Vec3};

/// Hermite predictor: position and velocity `h` past the corrected state
/// `(x, v, a, ȧ)`. The one prediction formula of the workspace — the
/// shared-step [`Hermite4`] and the block-step drivers both call it, so
/// a shared step and a block step of the same length agree bitwise.
#[inline]
#[must_use]
pub fn hermite_predict(x: Vec3, v: Vec3, a: Vec3, j: Vec3, h: f64) -> (Vec3, Vec3) {
    let h2 = h * h / 2.0;
    let h3 = h * h * h / 6.0;
    let mut xp = [0.0; 3];
    let mut vp = [0.0; 3];
    for k in 0..3 {
        xp[k] = x[k] + v[k] * h + a[k] * h2 + j[k] * h3;
        vp[k] = v[k] + a[k] * h + j[k] * h * h / 2.0;
    }
    (xp, vp)
}

/// Hermite corrector: position and velocity after a step of length `h`
/// from the corrected state `(x, v, a, ȧ)`, given the force `(a₁, ȧ₁)`
/// evaluated at the predicted state. The one correction formula of the
/// workspace (see [`hermite_predict`]).
#[inline]
#[must_use]
pub fn hermite_correct(
    x: Vec3,
    v: Vec3,
    a: Vec3,
    j: Vec3,
    a1: Vec3,
    j1: Vec3,
    h: f64,
) -> (Vec3, Vec3) {
    let half = h / 2.0;
    let twelfth = h * h / 12.0;
    let mut x1 = [0.0; 3];
    let mut v1 = [0.0; 3];
    for k in 0..3 {
        v1[k] = v[k] + (a[k] + a1[k]) * half + (j[k] - j1[k]) * twelfth;
        x1[k] = x[k] + (v[k] + v1[k]) * half + (a[k] - a1[k]) * twelfth;
    }
    (x1, v1)
}

/// 4th-order Hermite integrator over any force kernel.
#[derive(Debug, Clone, Copy)]
pub struct Hermite4<K> {
    kernel: K,
}

impl<K: ForceKernel> Hermite4<K> {
    /// Integrator using `kernel` for force evaluations.
    #[must_use]
    pub fn new(kernel: K) -> Self {
        Hermite4 { kernel }
    }

    /// The underlying force kernel.
    #[must_use]
    pub fn kernel(&self) -> &K {
        &self.kernel
    }
}

impl<K: ForceKernel> Integrator for Hermite4<K> {
    fn name(&self) -> &'static str {
        "hermite4"
    }

    fn initialize(&self, system: &mut ParticleSystem) {
        let f = self.kernel.compute(system);
        system.set_forces(f.acc, f.jerk);
    }

    fn step(&self, system: &mut ParticleSystem, dt: f64) {
        // Save the t₀ state.
        let pos0 = system.pos.clone();
        let vel0 = system.vel.clone();
        let acc0 = system.acc.clone();
        let jerk0 = system.jerk.clone();

        // Predict in place (the kernel evaluates the predicted state).
        for i in 0..system.len() {
            (system.pos[i], system.vel[i]) =
                hermite_predict(pos0[i], vel0[i], acc0[i], jerk0[i], dt);
        }

        let f1 = self.kernel.compute(system);

        for i in 0..system.len() {
            (system.pos[i], system.vel[i]) =
                hermite_correct(pos0[i], vel0[i], acc0[i], jerk0[i], f1.acc[i], f1.jerk[i], dt);
        }
        system.set_forces(f1.acc, f1.jerk);
        system.time += dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::{angular_momentum, relative_energy_error, total_energy};
    use crate::force::ReferenceKernel;
    use crate::ic::{plummer, PlummerConfig};
    use crate::integrator::circular_binary;

    #[test]
    fn circular_orbit_stays_circular() {
        let mut s = circular_binary(1.0);
        let integ = Hermite4::new(ReferenceKernel::new(0.0));
        let period = std::f64::consts::TAU; // 2π √(r³/GM), r = GM = 1
        integ.evolve(&mut s, period, period / 256.0);
        // After one period the separation is still ~1 and positions return.
        let d = [s.pos[0][0] - s.pos[1][0], s.pos[0][1] - s.pos[1][1], s.pos[0][2] - s.pos[1][2]];
        let sep = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        assert!((sep - 1.0).abs() < 1e-6, "separation drifted to {sep}");
        assert!((s.pos[0][0] - 0.5).abs() < 1e-3, "did not return after a period");
    }

    #[test]
    fn energy_error_scales_as_dt4() {
        let err_at = |steps: usize| {
            let mut s = circular_binary(1.0);
            let integ = Hermite4::new(ReferenceKernel::new(0.0));
            let e0 = total_energy(&s, 0.0);
            integ.evolve(&mut s, 1.0, 1.0 / steps as f64);
            relative_energy_error(total_energy(&s, 0.0), e0)
        };
        let coarse = err_at(32);
        let fine = err_at(64);
        let order = (coarse / fine).log2();
        assert!(
            (3.3..5.0).contains(&order),
            "convergence order {order} (coarse {coarse:.3e}, fine {fine:.3e})"
        );
    }

    #[test]
    fn cluster_energy_conserved() {
        let mut s = plummer(PlummerConfig { n: 64, seed: 50, ..PlummerConfig::default() });
        let eps = 0.05;
        let integ = Hermite4::new(ReferenceKernel::new(eps));
        let e0 = total_energy(&s, eps);
        integ.evolve(&mut s, 0.5, 1.0 / 512.0);
        let err = relative_energy_error(total_energy(&s, eps), e0);
        // A 64-body softened cluster over half a time unit: the 4th-order
        // scheme holds energy to ~1e-6 at this step size.
        assert!(err < 1e-5, "energy error {err}");
    }

    #[test]
    fn angular_momentum_conserved() {
        let mut s = plummer(PlummerConfig { n: 32, seed: 51, ..PlummerConfig::default() });
        let integ = Hermite4::new(ReferenceKernel::new(0.01));
        let l0 = angular_momentum(&s);
        integ.evolve(&mut s, 0.25, 1.0 / 256.0);
        let l1 = angular_momentum(&s);
        for k in 0..3 {
            // Hermite is not symplectic; per-component drift at this step
            // size sits near 1e-6.
            assert!((l1[k] - l0[k]).abs() < 1e-5, "L[{k}] drifted {} -> {}", l0[k], l1[k]);
        }
    }

    #[test]
    fn time_advances() {
        let mut s = circular_binary(1.0);
        let integ = Hermite4::new(ReferenceKernel::new(0.0));
        integ.initialize(&mut s);
        integ.step(&mut s, 0.125);
        assert!((s.time - 0.125).abs() < 1e-15);
    }
}
