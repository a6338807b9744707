//! Deriving campaign job specs from the calibrated run model.
//!
//! The telemetry crate is deliberately generic; this module is where the
//! `nbody-tt` performance model meets the measurement machinery, producing
//! the exact job parameters of the paper's campaign.

use nbody_tt::perf_model::RunModel;
use tt_telemetry::campaign::{FaultPolicy, JobKind, JobSpec};

/// Fractional 1σ time jitter of accelerated runs (paper: 0.24 / 301.40).
pub const ACCEL_TIME_JITTER: f64 = 0.24 / 301.40;
/// Fractional 1σ time jitter of CPU runs (paper: 7.83 / 672.90) — "likely
/// due to variability in system load, resource contention, and operating
/// system scheduling".
pub const CPU_TIME_JITTER: f64 = 7.83 / 672.90;
/// Job-level reset failure probability (paper: 24 failures / 50 jobs).
pub const RESET_FAILURE_PROB: f64 = 24.0 / 50.0;
/// Sleep before and after each simulation, s.
pub const SLEEP_SECONDS: f64 = 120.0;

/// The accelerated-run job spec for a run model.
#[must_use]
pub fn accel_spec(run: &RunModel) -> JobSpec {
    JobSpec {
        kind: JobKind::Accelerated,
        nominal_seconds: run.accel_seconds(),
        time_jitter_frac: ACCEL_TIME_JITTER,
        sleep_seconds: SLEEP_SECONDS,
        cards: run.cards_installed,
        active_card: 3, // the Fig. 4 run used device 3
        card_params: run.card_power_params(),
        host_sim_power_w: run.cpu.total_power(1) + run.cpu.staging_power_w,
        host_idle_power_w: run.cpu.total_power(0),
        reset_failure_prob: RESET_FAILURE_PROB,
        sample_interval: 1.0,
        faults: FaultPolicy::default(),
    }
}

/// The CPU-only job spec for a run model.
#[must_use]
pub fn cpu_spec(run: &RunModel) -> JobSpec {
    JobSpec {
        kind: JobKind::CpuOnly,
        nominal_seconds: run.cpu_seconds(),
        time_jitter_frac: CPU_TIME_JITTER,
        sleep_seconds: SLEEP_SECONDS,
        cards: run.cards_installed,
        active_card: 3,
        card_params: run.card_power_params(),
        host_sim_power_w: run.cpu.total_power(run.cpu_threads),
        host_idle_power_w: run.cpu.total_power(0),
        reset_failure_prob: 0.0,
        sample_interval: 1.0,
        faults: FaultPolicy::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_tt::perf_model::paper_run;

    #[test]
    fn specs_match_paper_configuration() {
        let run = paper_run();
        let a = accel_spec(&run);
        assert_eq!(a.kind, JobKind::Accelerated);
        assert!((a.nominal_seconds - 301.4).abs() < 6.0);
        assert_eq!(a.cards, 4);
        assert!((a.reset_failure_prob - 0.48).abs() < 1e-12);
        assert!(a.host_sim_power_w > a.host_idle_power_w);

        let c = cpu_spec(&run);
        assert_eq!(c.kind, JobKind::CpuOnly);
        assert!((c.nominal_seconds - 672.9).abs() < 10.0);
        assert_eq!(c.reset_failure_prob, 0.0);
        assert!(c.time_jitter_frac > a.time_jitter_frac * 5.0);
    }
}
