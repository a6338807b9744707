//! Card power model.
//!
//! Reproduces the power behaviour the paper observes with `tt-smi` (Fig. 4):
//!
//! * idle cards draw 10–11 W;
//! * once a job starts, *all powered-on* cards rise — unused ones sit steady
//!   below 20 W;
//! * the active card fluctuates between 26 and 33 W, peaking during
//!   offloaded force computation and dipping while the host handles the
//!   non-offloaded (predictor/corrector) parts;
//! * after the job, idle power is slightly elevated relative to the pre-job
//!   baseline and only returns to nominal after a reset.
//!
//! A card's lifetime is a [`PowerTimeline`] — a piecewise sequence of
//! [`PowerState`]s over virtual time. Telemetry samplers evaluate
//! `power_at(t)`, which adds deterministic (seeded) fluctuation so repeated
//! experiments are reproducible.

/// Coarse power state of one card.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Card idle before any job.
    Idle,
    /// Job running on the host, this card powered but unused.
    PoweredUnused,
    /// This card actively computing, alternating device bursts and host
    /// phases.
    ComputeActive,
    /// Job finished, card idle but not yet reset (slightly elevated).
    PostRunIdle,
}

/// Wattage parameters, defaults matching Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Mean idle power (W).
    pub idle_w: f64,
    /// Half-range of idle wobble (W).
    pub idle_wobble_w: f64,
    /// Steady power of a powered-but-unused card during a job (W).
    pub powered_unused_w: f64,
    /// Active-card power during device compute bursts (W).
    pub active_peak_w: f64,
    /// Active-card power while the host handles non-offloaded work (W).
    pub active_trough_w: f64,
    /// Period of the burst/host alternation (s) — one Hermite step's
    /// offload/host cadence as seen at 1 Hz sampling.
    pub burst_period_s: f64,
    /// Fraction of each period spent in the device burst.
    pub burst_duty: f64,
    /// Post-run idle elevation above `idle_w` (W).
    pub post_run_elevation_w: f64,
}

impl Default for PowerParams {
    fn default() -> Self {
        PowerParams {
            idle_w: 10.5,
            idle_wobble_w: 0.5,
            powered_unused_w: 18.0,
            active_peak_w: 33.0,
            active_trough_w: 26.0,
            burst_period_s: 7.0,
            burst_duty: 0.72,
            post_run_elevation_w: 1.2,
        }
    }
}

/// One segment of a card's power history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSegment {
    /// Segment start (inclusive), virtual seconds.
    pub start: f64,
    /// Segment end (exclusive), virtual seconds.
    pub end: f64,
    /// State during the segment.
    pub state: PowerState,
}

/// Piecewise power history of one card.
#[derive(Debug, Clone, Default)]
pub struct PowerTimeline {
    params_seed: u64,
    params: Option<PowerParams>,
    segments: Vec<PowerSegment>,
}

impl PowerTimeline {
    /// Empty timeline with default parameters and a noise seed (per card, so
    /// the four cards of Fig. 4 wobble independently).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        PowerTimeline { params_seed: seed, params: None, segments: Vec::new() }
    }

    /// Override the wattage parameters.
    pub fn set_params(&mut self, params: PowerParams) {
        self.params = Some(params);
    }

    /// Active wattage parameters.
    #[must_use]
    pub fn params(&self) -> PowerParams {
        self.params.unwrap_or_default()
    }

    /// Append a segment of `duration` seconds in `state`, contiguous with the
    /// previous segment.
    ///
    /// # Panics
    /// Panics on negative duration.
    pub fn push(&mut self, state: PowerState, duration: f64) {
        assert!(duration >= 0.0, "segment duration must be non-negative");
        let start = self.end_time();
        self.segments.push(PowerSegment { start, end: start + duration, state });
    }

    /// End of the last segment (0 for an empty timeline).
    #[must_use]
    pub fn end_time(&self) -> f64 {
        self.segments.last().map_or(0.0, |s| s.end)
    }

    /// The segments recorded so far.
    #[must_use]
    pub fn segments(&self) -> &[PowerSegment] {
        &self.segments
    }

    /// Clear history (device reset also clears the post-run elevation).
    pub fn reset(&mut self) {
        self.segments.clear();
    }

    /// Instantaneous power draw at virtual time `t`, in watts. Times past the
    /// recorded history extend the last state (or idle for an empty
    /// timeline).
    #[must_use]
    pub fn power_at(&self, t: f64) -> f64 {
        let state = self
            .segments
            .iter()
            .find(|s| t >= s.start && t < s.end)
            .or(self.segments.last().filter(|s| t >= s.end))
            .map_or(PowerState::Idle, |s| s.state);
        let p = self.params();
        match state {
            PowerState::Idle => p.idle_w + self.wobble(t, p.idle_wobble_w),
            PowerState::PoweredUnused => p.powered_unused_w + self.wobble(t, 0.6),
            PowerState::PostRunIdle => {
                p.idle_w + p.post_run_elevation_w + self.wobble(t, p.idle_wobble_w)
            }
            PowerState::ComputeActive => {
                // Alternate device bursts (peak) with host phases (trough).
                let phase = (t / p.burst_period_s).fract();
                let base = if phase < p.burst_duty { p.active_peak_w } else { p.active_trough_w };
                (base + self.wobble(t, 1.0)).clamp(p.active_trough_w - 0.5, p.active_peak_w + 0.5)
            }
        }
    }

    /// Deterministic pseudo-noise in `[-amplitude, amplitude]`, a hash of the
    /// sample time and the card seed.
    fn wobble(&self, t: f64, amplitude: f64) -> f64 {
        let quantized = (t * 8.0).floor() as i64 as u64;
        let mut h = quantized ^ self.params_seed.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15;
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        let unit = (h as f64 / u64::MAX as f64) * 2.0 - 1.0;
        unit * amplitude
    }

    /// Exact energy (J) of the recorded history between `t0` and `t1`,
    /// integrating the mean power of each state (fluctuations average out;
    /// telemetry integrates sampled power instead, and tests compare the
    /// two).
    #[must_use]
    pub fn mean_energy(&self, t0: f64, t1: f64) -> f64 {
        let p = self.params();
        self.segments
            .iter()
            .map(|s| {
                let overlap = (s.end.min(t1) - s.start.max(t0)).max(0.0);
                let mean_w = match s.state {
                    PowerState::Idle => p.idle_w,
                    PowerState::PoweredUnused => p.powered_unused_w,
                    PowerState::PostRunIdle => p.idle_w + p.post_run_elevation_w,
                    PowerState::ComputeActive => {
                        p.active_peak_w * p.burst_duty + p.active_trough_w * (1.0 - p.burst_duty)
                    }
                };
                overlap * mean_w
            })
            .sum()
    }
}

/// Convenience: the mean active power implied by the default parameters,
/// used by the analytic energy model.
#[must_use]
pub fn mean_active_power(params: &PowerParams) -> f64 {
    params.active_peak_w * params.burst_duty + params.active_trough_w * (1.0 - params.burst_duty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_power_in_paper_band() {
        let tl = PowerTimeline::new(3);
        // Empty timeline defaults to idle.
        for i in 0..200 {
            let w = tl.power_at(i as f64 * 0.9);
            assert!((10.0..=11.0).contains(&w), "idle power {w} outside 10-11 W");
        }
    }

    #[test]
    fn powered_unused_below_20w() {
        let mut tl = PowerTimeline::new(7);
        tl.push(PowerState::PoweredUnused, 100.0);
        for i in 0..100 {
            let w = tl.power_at(i as f64);
            assert!(w < 20.0, "unused card must stay below 20 W, got {w}");
            assert!(w > 15.0);
        }
    }

    #[test]
    fn active_power_fluctuates_26_to_33() {
        let mut tl = PowerTimeline::new(11);
        tl.push(PowerState::ComputeActive, 300.0);
        let samples: Vec<f64> = (0..300).map(|i| tl.power_at(i as f64)).collect();
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((25.5..=27.5).contains(&lo), "trough {lo}");
        assert!((31.5..=33.5).contains(&hi), "peak {hi}");
        // It genuinely alternates.
        assert!(hi - lo > 4.0);
    }

    #[test]
    fn post_run_idle_slightly_elevated() {
        let mut tl = PowerTimeline::new(5);
        tl.push(PowerState::Idle, 120.0);
        tl.push(PowerState::ComputeActive, 300.0);
        tl.push(PowerState::PostRunIdle, 120.0);
        let pre: f64 = (0..100).map(|i| tl.power_at(i as f64)).sum::<f64>() / 100.0;
        let post: f64 = (0..100).map(|i| tl.power_at(430.0 + i as f64)).sum::<f64>() / 100.0;
        assert!(post > pre + 0.5, "post-run idle ({post}) must exceed pre-run ({pre})");
        assert!(post < pre + 3.0);
    }

    #[test]
    fn reset_clears_history() {
        let mut tl = PowerTimeline::new(1);
        tl.push(PowerState::ComputeActive, 10.0);
        tl.reset();
        assert_eq!(tl.end_time(), 0.0);
        assert!(tl.power_at(5.0) < 12.0);
    }

    #[test]
    fn mean_energy_integrates_segments() {
        let mut tl = PowerTimeline::new(0);
        tl.push(PowerState::Idle, 100.0);
        tl.push(PowerState::ComputeActive, 100.0);
        let p = tl.params();
        let idle = tl.mean_energy(0.0, 100.0);
        assert!((idle - p.idle_w * 100.0).abs() < 1e-9);
        let active = tl.mean_energy(100.0, 200.0);
        assert!((active - mean_active_power(&p) * 100.0).abs() < 1e-9);
        // Window clipping.
        assert!((tl.mean_energy(50.0, 150.0) - (idle / 2.0 + active / 2.0)).abs() < 1e-9);
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = PowerTimeline::new(42);
        let mut b = PowerTimeline::new(42);
        let mut c = PowerTimeline::new(43);
        for tl in [&mut a, &mut b, &mut c] {
            tl.push(PowerState::ComputeActive, 50.0);
        }
        let sa: Vec<f64> = (0..50).map(|i| a.power_at(i as f64)).collect();
        let sb: Vec<f64> = (0..50).map(|i| b.power_at(i as f64)).collect();
        let sc: Vec<f64> = (0..50).map(|i| c.power_at(i as f64)).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        PowerTimeline::new(0).push(PowerState::Idle, -1.0);
    }
}
