//! The experiment implementations behind each figure and table.
//!
//! Binaries and benches call these; integration tests assert on the
//! returned structures. Experiment ids follow DESIGN.md: E1 = Fig. 3,
//! E2 = Fig. 4, E3 = Fig. 5, E4 = §3 accuracy, E5 = the reset census,
//! E6 = the multi-device scaling extension, E9 = the fault-tolerance
//! census (E5 re-run under a bounded reset-retry policy), E14 = the
//! force kernels' measured cycles/pair.

use nbody::ic::{plummer, PlummerConfig};
use nbody_tt::perf_model::{paper_run, RunModel};
use nbody_tt::{DeviceForcePipeline, ForceEvaluator, ForceKernelKind};
use tensix::catalog::DeviceArch;
use tensix::Device;
use tt_telemetry::campaign::{
    census, run_campaign, successes, CampaignCensus, FaultPolicy, JobRecord,
};
use tt_telemetry::sample::SampleSeries;
use tt_telemetry::stats::mean;

use crate::specs::{accel_spec, cpu_spec};

/// Fig. 3 / E1 (and the E5 census): time-to-solution distributions.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Successful accelerated times, s.
    pub accel_times: Vec<f64>,
    /// Successful CPU times, s.
    pub cpu_times: Vec<f64>,
    /// Accelerated jobs submitted (50 in the paper).
    pub accel_submitted: usize,
    /// Accelerated jobs that survived device reset (26 in the paper).
    pub accel_succeeded: usize,
    /// Mean speedup.
    pub speedup: f64,
}

/// Run E1: 50 accelerated submissions and 49 CPU jobs.
#[must_use]
pub fn run_fig3(run: &RunModel, seed: u64) -> Fig3Result {
    let accel_records = run_campaign(&accel_spec(run), 50, seed);
    let cpu_records = run_campaign(&cpu_spec(run), 49, seed.wrapping_add(1));
    let accel_times: Vec<f64> =
        successes(&accel_records).iter().filter_map(|r| r.time_to_solution).collect();
    let cpu_times: Vec<f64> =
        successes(&cpu_records).iter().filter_map(|r| r.time_to_solution).collect();
    let speedup = mean(&cpu_times) / mean(&accel_times);
    Fig3Result {
        accel_submitted: accel_records.len(),
        accel_succeeded: accel_times.len(),
        accel_times,
        cpu_times,
        speedup,
    }
}

/// Fig. 4 / E2: the power time series of one representative job.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// One series per card over the whole job.
    pub card_series: Vec<SampleSeries>,
    /// Simulation window (start, end) within the job.
    pub sim_window: (f64, f64),
}

/// Run E2: one successful accelerated job.
///
/// # Panics
/// Panics if no submission succeeds within 64 attempts (p_fail = 0.48 makes
/// that astronomically unlikely).
#[must_use]
pub fn run_fig4(run: &RunModel, seed: u64) -> Fig4Result {
    for attempt in 0..64 {
        let rec = tt_telemetry::campaign::run_job(&accel_spec(run), attempt, seed);
        if rec.success() {
            return Fig4Result { card_series: rec.card_series, sim_window: rec.sim_window };
        }
    }
    panic!("no accelerated job survived 64 reset attempts");
}

/// Fig. 5 / E3: energy-to-solution distributions.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Successful accelerated energies, kJ.
    pub accel_energy_kj: Vec<f64>,
    /// CPU energies, kJ.
    pub cpu_energy_kj: Vec<f64>,
    /// Mean energy ratio CPU/accel.
    pub energy_ratio: f64,
    /// Peak combined power of the accelerated runs, W.
    pub accel_peak_w: f64,
    /// Peak combined power of the CPU runs, W.
    pub cpu_peak_w: f64,
}

fn energies_kj(records: &[JobRecord]) -> Vec<f64> {
    successes(records).iter().filter_map(|r| r.total_energy_j).map(|e| e / 1e3).collect()
}

/// Run E3 over the same campaign sizes as E1.
#[must_use]
pub fn run_fig5(run: &RunModel, seed: u64) -> Fig5Result {
    let accel_records = run_campaign(&accel_spec(run), 50, seed);
    let cpu_records = run_campaign(&cpu_spec(run), 49, seed.wrapping_add(1));
    let accel = energies_kj(&accel_records);
    let cpu = energies_kj(&cpu_records);
    let peak = |records: &[JobRecord]| {
        successes(records).iter().filter_map(|r| r.peak_power_w).fold(0.0f64, f64::max)
    };
    Fig5Result {
        energy_ratio: mean(&cpu) / mean(&accel),
        accel_peak_w: peak(&accel_records),
        cpu_peak_w: peak(&cpu_records),
        accel_energy_kj: accel,
        cpu_energy_kj: cpu,
    }
}

/// E9: the fault-tolerance census — the paper's reset census (E5) run twice
/// with the same seed, once with the paper's one-shot submissions and once
/// with a bounded reset-retry budget.
#[derive(Debug, Clone, Copy)]
pub struct FaultCensusResult {
    /// The paper's behaviour: one reset attempt per job.
    pub baseline: CampaignCensus,
    /// The same 50 submissions under the retry policy.
    pub retried: CampaignCensus,
    /// The retry policy used.
    pub policy: FaultPolicy,
}

/// Run E9: 50 accelerated submissions, with and without reset retries.
/// Both campaigns replay the identical per-job fault streams, so the only
/// difference is the recovery policy.
#[must_use]
pub fn run_fault_census(run: &RunModel, seed: u64) -> FaultCensusResult {
    let baseline = census(&run_campaign(&accel_spec(run), 50, seed));
    let policy = FaultPolicy { reset_retries: 4, reset_backoff_s: 5.0 };
    let mut spec = accel_spec(run);
    spec.faults = policy;
    let retried = census(&run_campaign(&spec, 50, seed));
    FaultCensusResult { baseline, retried, policy }
}

/// E6: strong scaling over 1–4 devices at paper N, plus weak scaling
/// (N grows with √devices so per-device pair work stays constant).
#[derive(Debug, Clone)]
pub struct ScalingResult {
    /// (devices, time-to-solution s) with N fixed at the paper scale.
    pub strong: Vec<(usize, f64)>,
    /// (devices, N, time-to-solution s) with per-device work fixed.
    pub weak: Vec<(usize, usize, f64)>,
}

/// Run E6 analytically from the calibrated model.
#[must_use]
pub fn run_scaling(run: &RunModel) -> ScalingResult {
    let strong = (1..=4).map(|d| (d, run.accel_seconds_multi_device(d))).collect();
    let weak = (1..=4)
        .map(|d| {
            let n = (run.n as f64 * (d as f64).sqrt()) as usize;
            let scaled = RunModel { n, ..*run };
            (d, n, scaled.accel_seconds_multi_device(d))
        })
        .collect();
    ScalingResult { strong, weak }
}

/// E7: particle-count sweep — the paper's stated follow-up ("study the
/// effect of increasing the number of particles to assess suitability in
/// real HPC contexts"). One point per N from the calibrated model.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Particle count.
    pub n: usize,
    /// Accelerated per-step seconds.
    pub accel_step_s: f64,
    /// CPU per-step seconds.
    pub cpu_step_s: f64,
    /// Speedup (CPU / accelerated).
    pub speedup: f64,
}

/// Run E7 over a geometric N grid around the paper's configuration.
#[must_use]
pub fn run_n_sweep(run: &RunModel) -> Vec<SweepPoint> {
    [1024usize, 2048, 4096, 8192, 16_384, 32_768, 65_536, 102_400, 204_800, 409_600]
        .into_iter()
        .map(|n| {
            let accel = run.device.step_seconds(n);
            let cpu = run.cpu.force_eval_seconds(n, run.cpu_threads) + 5.0e-3;
            SweepPoint { n, accel_step_s: accel, cpu_step_s: cpu, speedup: cpu / accel }
        })
        .collect()
}

/// The N below which the CPU reference still wins (None if the device wins
/// everywhere on the grid).
#[must_use]
pub fn sweep_crossover(points: &[SweepPoint]) -> Option<usize> {
    points.iter().take_while(|p| p.speedup < 1.0).map(|p| p.n).last()
}

/// Particle count of E14's functional cycles/pair measurement.
pub const MEASURE_N: usize = 2048;

/// E14: one full-N force evaluation of `kind` at N = [`MEASURE_N`] on two
/// cores of an n300 chip, through the functional pipeline. Returns the
/// slowest core's compute cycles and the cycles per pair it owns: the
/// repository's one cycles/pair measurement, for both kernels.
///
/// # Panics
/// Panics if the pipeline cannot be built or the evaluation faults.
#[must_use]
pub fn kernel_cycles(kind: ForceKernelKind) -> (u64, f64) {
    let sys = plummer(PlummerConfig { n: MEASURE_N, seed: 0x5c25, ..PlummerConfig::default() });
    let device = Device::new(0, DeviceArch::n300().device_config());
    let pipeline = DeviceForcePipeline::new_with_kernel(device, MEASURE_N, 0.01, 2, kind)
        .expect("pipeline for the measurement run");
    pipeline.evaluate_checked(&sys).expect("measurement evaluation");
    let cycles = pipeline.timing().last_eval_cycles;
    let owned = pipeline.sizing(MEASURE_N).slowest_core_targets();
    (cycles, cycles as f64 / (owned * MEASURE_N) as f64)
}

/// Convenience: the paper's default run model.
#[must_use]
pub fn default_run() -> RunModel {
    paper_run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_telemetry::stats::std_dev;

    #[test]
    fn fig3_reproduces_distributions() {
        let run = default_run();
        let r = run_fig3(&run, 20_260_704);
        assert_eq!(r.accel_submitted, 50);
        assert!((15..=35).contains(&r.accel_succeeded), "{} successes", r.accel_succeeded);
        assert_eq!(r.cpu_times.len(), 49);
        assert!((r.speedup - 2.23).abs() < 0.12, "speedup {}", r.speedup);
        // CPU spread dominates, as in the paper.
        assert!(std_dev(&r.cpu_times) > 4.0 * std_dev(&r.accel_times));
    }

    #[test]
    fn fig4_windows_and_traces() {
        let run = default_run();
        let r = run_fig4(&run, 8);
        assert_eq!(r.card_series.len(), 4);
        let (t0, t1) = r.sim_window;
        assert!(t0 >= 119.0 && t1 > t0 + 250.0);
    }

    #[test]
    fn fig5_energy_ratio() {
        let run = default_run();
        let r = run_fig5(&run, 33);
        assert!((r.energy_ratio - 1.80).abs() < 0.15, "ratio {}", r.energy_ratio);
        assert!(r.accel_peak_w > r.cpu_peak_w);
        let am = mean(&r.accel_energy_kj);
        let cm = mean(&r.cpu_energy_kj);
        assert!((am - 71.56).abs() < 4.0, "accel {am} kJ");
        assert!((cm - 128.89).abs() < 7.0, "cpu {cm} kJ");
    }

    #[test]
    fn fault_census_recovers_the_campaign() {
        let run = default_run();
        let r = run_fault_census(&run, 20_260_704);
        // Baseline is E5: roughly half the jobs fail to start, all at reset.
        assert_eq!(r.baseline.submitted, 50);
        assert!((15..=35).contains(&r.baseline.succeeded), "{:?}", r.baseline);
        assert_eq!(r.baseline.succeeded + r.baseline.failed_reset, r.baseline.submitted);
        // Retried: p(5 straight reset failures) = 0.48^5 ≈ 2.5 %.
        assert!(r.retried.succeeded >= 45, "{:?}", r.retried);
        assert!(r.retried.reset_retries_used > 0);
        // Deterministic replay.
        let again = run_fault_census(&run, 20_260_704);
        assert_eq!(again.baseline, r.baseline);
        assert_eq!(again.retried, r.retried);
    }

    #[test]
    fn quoted_census_is_pinned() {
        // The seed `campaign_summary` and EXPERIMENTS quote: E5 is 25/50
        // (the paper's is 26/50), E9 with 4 retries is 48/50. Exact, so a
        // change to the reset path shows here instead of in results/.
        let r = run_fault_census(&default_run(), 0x5c25);
        let e5 = CampaignCensus {
            submitted: 50,
            succeeded: 25,
            failed_reset: 25,
            reset_retries_used: 0,
        };
        let e9 = CampaignCensus {
            submitted: 50,
            succeeded: 48,
            failed_reset: 2,
            reset_retries_used: 49,
        };
        assert_eq!(r.baseline, e5);
        assert_eq!(r.retried, e9);
    }

    #[test]
    fn n_sweep_shape() {
        let points = run_n_sweep(&default_run());
        assert_eq!(points.len(), 10);
        // Small N: overheads make the CPU win; the crossover sits in the
        // tens of thousands; the paper point lands near 2.2x.
        let crossover = sweep_crossover(&points).expect("a crossover must exist");
        assert!((4096..=65_536).contains(&crossover), "crossover at {crossover}");
        let paper = points.iter().find(|p| p.n == 102_400).unwrap();
        assert!((paper.speedup - 2.22).abs() < 0.15, "paper-point speedup {}", paper.speedup);
        // Large-N speedup keeps growing toward the compute-bound ratio.
        let last = points.last().unwrap();
        assert!(last.speedup > paper.speedup, "asymptotic speedup {}", last.speedup);
        assert!(last.speedup < 4.5, "bounded by the throughput ratio");
    }

    #[test]
    fn kernel_cycles_are_pinned() {
        // Integer cycle counts, exact: a kernel or cost-table change shows
        // here instead of drifting inside a tolerance.
        assert_eq!(kernel_cycles(ForceKernelKind::Elementwise).0, 5_661_368);
        assert_eq!(kernel_cycles(ForceKernelKind::Matrix).0, 5_006_536);
    }

    #[test]
    fn scaling_improves_with_devices() {
        let r = run_scaling(&default_run());
        assert_eq!(r.strong.len(), 4);
        assert!(r.strong[3].1 < r.strong[0].1);
        // Weak scaling: time grows slower than pair count (which doubles
        // per device doubling at N ∝ √d).
        assert!(r.weak[3].2 < r.weak[0].2 * 4.0);
    }
}
