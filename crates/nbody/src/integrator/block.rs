//! Block (hierarchical) individual time steps.
//!
//! Production direct N-body codes — including the in-house code family the
//! paper accelerates — do not advance every particle with one shared step:
//! each particle gets an individual step quantized to a power-of-two
//! fraction of a base step ("block" steps), so tight binaries integrate on
//! small steps while the halo coasts on large ones. Force evaluations then
//! cost O(N_active · N) instead of O(N²) per smallest step.
//!
//! The scheme: particle `i` carries its last-corrected state at time `tᵢ`
//! and a step `dtᵢ = dt_max / 2^kᵢ` aligned to the block grid. Each
//! iteration advances the globally earliest due time; *every* particle is
//! predicted there (FP64 host work), but only the due ("active") particles
//! get a force evaluation and Hermite correction, after which their step is
//! re-chosen from the Aarseth criterion (growing only when the new time
//! stays block-aligned).
//!
//! The scheduler itself lives in the core crate, behind the force-evaluator
//! seam; this module owns the step quantization rule it shares with every
//! checkpoint and resume of a block hierarchy.

/// Largest power-of-two block step `dt_max / 2^k` that is ≤ `dt_raw`
/// (clamped to `levels` halvings below `dt_max`) and whose next firing from
/// relative time `t_rel` (time since the block grid's origin) stays on the
/// block grid: `t_rel` must be a multiple of the chosen step.
///
/// This is the one quantization rule of the block-timestep scheduler, so
/// checkpoint/resume of a block hierarchy re-derives identical steps.
/// With `levels = 0` every step is `dt_max`: shared stepping.
#[must_use]
pub fn quantize_block_step(dt_raw: f64, t_rel: f64, dt_max: f64, levels: u32) -> f64 {
    let dt_min = dt_max * 0.5f64.powi(levels.min(40) as i32);
    let mut dt = dt_max;
    while dt > dt_raw.max(dt_min) * (1.0 + 1e-12) {
        dt /= 2.0;
    }
    // Block alignment: t_rel must be a multiple of dt (up to rounding).
    while dt > dt_min && (t_rel / dt - (t_rel / dt).round()).abs() > 1e-9 {
        dt /= 2.0;
    }
    dt
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_stay_on_block_grid() {
        let dt_max = 0.25;
        // Quantized steps are dt_max / 2^k.
        for raw in [0.3, 0.2, 0.12, 0.05, 0.01, 1e-6] {
            let q = quantize_block_step(raw, 0.0, dt_max, 4);
            let k = (dt_max / q).log2().round();
            assert!(
                ((dt_max / q).log2() - k).abs() < 1e-9,
                "step {q} is not a power-of-two fraction"
            );
            assert!(q <= dt_max + 1e-15);
        }
        // Alignment: at t = 0.125 a step of 0.25 would leave the grid.
        let q = quantize_block_step(1.0, 0.125, dt_max, 4);
        assert!(q <= 0.125 + 1e-12, "misaligned step {q}");
        // Zero levels pin every particle to the base step.
        assert_eq!(quantize_block_step(1e-9, 0.0, dt_max, 0), dt_max);
    }
}
