//! Time integrators.
//!
//! The paper's application is a Hermite-scheme direct N-body code: forces
//! *and jerks* feed a 4th-order predictor–corrector, with prediction and
//! correction in FP64 on the host. [`Hermite4`] is that scheme;
//! [`Leapfrog`] is the 2nd-order baseline used to demonstrate why the
//! Hermite scheme (and hence the jerk pipeline the paper offloads) earns its
//! extra cost.

mod block;
mod hermite;
mod leapfrog;
mod timestep;

pub use block::quantize_block_step;
pub use hermite::{hermite_correct, hermite_predict, Hermite4};
pub use leapfrog::Leapfrog;
pub use timestep::{aarseth_timestep, shared_timestep};

use crate::particle::ParticleSystem;

/// A time integrator advancing the system by fixed steps.
pub trait Integrator {
    /// Integrator name for reports.
    fn name(&self) -> &'static str;

    /// Prime `system.acc`/`system.jerk` before the first step.
    fn initialize(&self, system: &mut ParticleSystem);

    /// Advance by `dt` (N-body time units).
    fn step(&self, system: &mut ParticleSystem, dt: f64);

    /// Advance until `t_end` in fixed steps of `dt` (the final step is
    /// shortened to land exactly on `t_end`). Returns the number of steps.
    fn evolve(&self, system: &mut ParticleSystem, t_end: f64, dt: f64) -> usize {
        assert!(dt > 0.0, "time step must be positive");
        self.initialize(system);
        let mut steps = 0;
        while system.time < t_end - 1e-12 {
            let h = dt.min(t_end - system.time);
            self.step(system, h);
            steps += 1;
        }
        steps
    }
}

/// Build a two-body circular orbit (separation `r`, equal masses m = ½) —
/// the canonical integrator test case with analytic period 2π√(r³/GM).
#[must_use]
pub fn circular_binary(r: f64) -> ParticleSystem {
    let mut s = ParticleSystem::with_capacity(2);
    // Total mass 1, each on a circle of radius r/2: v² = G m_other²/(M r)
    // ⇒ for equal masses, orbital speed of each body v = √(GM/r)/2 · ... :
    // relative orbit: v_rel = √(GM/r); each body moves at v_rel/2.
    let v = (1.0f64 / r).sqrt() / 2.0;
    s.push(0.5, [r / 2.0, 0.0, 0.0], [0.0, v, 0.0]);
    s.push(0.5, [-r / 2.0, 0.0, 0.0], [0.0, -v, 0.0]);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::total_energy;
    use crate::force::ReferenceKernel;

    #[test]
    fn circular_binary_is_bound_and_balanced() {
        let s = circular_binary(1.0);
        assert!(total_energy(&s, 0.0) < 0.0);
        assert_eq!(s.com_velocity(), [0.0; 3]);
    }

    #[test]
    fn evolve_lands_exactly_on_t_end() {
        let mut s = circular_binary(1.0);
        let integ = Hermite4::new(ReferenceKernel::new(0.0));
        let steps = integ.evolve(&mut s, 0.25, 0.1);
        assert_eq!(steps, 3, "0.1 + 0.1 + 0.05");
        assert!((s.time - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn evolve_rejects_bad_dt() {
        let mut s = circular_binary(1.0);
        Hermite4::new(ReferenceKernel::new(0.0)).evolve(&mut s, 1.0, 0.0);
    }
}
