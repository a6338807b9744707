//! Measurement-campaign orchestration.
//!
//! Reproduces the paper's experimental workflow: "Before starting the
//! simulation, we perform a device reset and surround the actual simulation
//! with a 120-second sleep period both before and after to allow the system
//! to relax to idle conditions. This workflow is typically repeated multiple
//! times per simulation" — including the failure mode where 24 of 50
//! submitted accelerated jobs never started because the device reset failed.
//!
//! A job produces: the time-to-solution (the simulation window only, as the
//! paper measures with `MPI_Wtime`), 1 Hz card power series (tt-smi), host
//! package energy via perf-style RAPL readers, the discrete-integral
//! energy-to-solution, and the peak combined power.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tensix::{Device, DeviceConfig, FaultConfig, PowerParams, PowerState};

use crate::energy::integrate_samples;
use crate::ipmi::DcmiPowerMeter;
use crate::profile::HostPowerProfile;
use crate::rapl::{read_energy_naive, read_energy_perf, RaplDomain};
use crate::retry::RetryCost;
use crate::sample::SampleSeries;
use crate::stats::standard_normal;
use crate::ttsmi::TtSmiSampler;

/// Which code a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Offloaded to one Wormhole card (1 OpenMP thread, 1 MPI task).
    Accelerated,
    /// CPU-only reference (32 OpenMP threads, 1 MPI task).
    CpuOnly,
}

/// Where in its lifecycle a failed job died.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailurePhase {
    /// The device reset failed and the job never started — the class behind
    /// the paper's "the remaining 24 failed to start due to errors occurring
    /// during the device reset phase".
    Reset,
    /// The card fell off the bus (or a kernel fault killed the run) inside
    /// the measurement window.
    MidRun,
    /// The job hung and was killed at its wall-clock budget.
    Timeout,
}

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job produced measurements.
    Success,
    /// The job died; the phase says where.
    Failed(FailurePhase),
}

/// Fault-tolerance policy for a campaign. The all-zeros [`Default`] is
/// exactly the paper's workflow — one reset attempt, no mid-run faults, no
/// recovery — so the census experiments reproduce unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPolicy {
    /// Extra reset attempts after a failed one (0 = the paper's one-shot
    /// submission behaviour).
    pub reset_retries: u32,
    /// Virtual backoff charged for the first reset retry, s; doubles on
    /// each further attempt. Accrues into
    /// [`JobRecord::recovery_overhead_s`], never into the measurement
    /// window.
    pub reset_backoff_s: f64,
    /// Probability the job hangs mid-run and is killed at its wall-clock
    /// budget ([`FailurePhase::Timeout`]; accelerated jobs only).
    pub hang_prob: f64,
    /// Probability the active card falls off the bus mid-simulation
    /// (accelerated jobs only).
    pub mid_run_loss_prob: f64,
    /// On a mid-run loss, resume from the last host-side checkpoint instead
    /// of failing the job.
    pub resume_from_checkpoint: bool,
    /// Fraction of the simulation redone after a checkpoint resume (the
    /// work since the last checkpoint).
    pub checkpoint_redo_frac: f64,
}

/// Parameters of a job, supplied by the caller (the harness derives them
/// from the calibrated run model).
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Accelerated or CPU-only.
    pub kind: JobKind,
    /// Nominal simulation duration, s (301.4 or 672.9 at paper scale).
    pub nominal_seconds: f64,
    /// Run-to-run time jitter (1σ, fractional). The paper's data implies
    /// ≈0.0008 for accelerated runs and ≈0.0116 for CPU runs.
    pub time_jitter_frac: f64,
    /// Sleep before and after the simulation, s (120 in the paper).
    pub sleep_seconds: f64,
    /// Cards installed (4).
    pub cards: usize,
    /// Which card computes (the paper's Fig. 4 run used device 3). For a
    /// multi-device job this is the first card of the ring.
    pub active_card: usize,
    /// Cards computing, as a ring starting at `active_card` (1 = the
    /// paper's single-card job; `active_card + devices` must fit in
    /// `cards`).
    pub devices: usize,
    /// Card wattage parameters (incl. the burst duty from the perf model).
    pub card_params: PowerParams,
    /// Host power during the simulation window, W.
    pub host_sim_power_w: f64,
    /// Host power during the sleeps, W.
    pub host_idle_power_w: f64,
    /// Probability a device reset fails and the job aborts (0.48 in the
    /// paper's campaign; only applies to accelerated jobs).
    pub reset_failure_prob: f64,
    /// tt-smi sampling interval, s.
    pub sample_interval: f64,
    /// Fault-tolerance policy (retries, mid-run faults, checkpoint resume).
    pub faults: FaultPolicy,
}

/// Outcome of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Sequential job id.
    pub job_id: usize,
    /// Accelerated or CPU-only.
    pub kind: JobKind,
    /// How the job ended, and where it died if it did.
    pub outcome: JobOutcome,
    /// Reset retries consumed before the device came up (0 on the paper's
    /// one-shot policy).
    pub reset_retries_used: u32,
    /// Virtual time spent on recovery — reset backoff and checkpoint redo —
    /// outside the measurement window, s.
    pub recovery_overhead_s: f64,
    /// Simulation wall time (MPI_Wtime window), s.
    pub time_to_solution: Option<f64>,
    /// Cards' energy over the simulation window, J.
    pub card_energy_j: Option<f64>,
    /// CPU packages' energy over the simulation window, J (perf-RAPL).
    pub cpu_energy_j: Option<f64>,
    /// The combined-package energy read the naive direct-register way
    /// (signed differencing, no wrap handling). The paper verified "both
    /// approaches yield equivalent results, except in cases where register
    /// overflows occur" — the long CPU jobs accumulate past the 32-bit
    /// counter wrap inside the measurement window and corrupt this value,
    /// which is why the paper (and the energy totals here) use the
    /// perf-style reader.
    pub cpu_energy_naive_j: Option<f64>,
    /// The combined-package energy via the perf-style reader, for the
    /// equivalence check against [`JobRecord::cpu_energy_naive_j`].
    pub cpu_energy_combined_j: Option<f64>,
    /// Total energy-to-solution, J.
    pub total_energy_j: Option<f64>,
    /// Peak combined power during the simulation, W.
    pub peak_power_w: Option<f64>,
    /// Per-card 1 Hz series over the whole job (Fig. 4 raw data).
    pub card_series: Vec<SampleSeries>,
    /// Host package series over the whole job.
    pub host_series: SampleSeries,
    /// `ipmitool dcmi power reading`-style whole-server series. Recorded —
    /// as the paper did — but excluded from the energy totals because the
    /// 4U chassis baseline dominates the signal.
    pub server_series: SampleSeries,
    /// Simulation window within the job timeline.
    pub sim_window: (f64, f64),
    /// Cycle-level cost attribution of the job, derived from the modeled
    /// timeline at the device clock (1 cycle = 1 ns): delivered work in
    /// `useful_cycles` (including any checkpoint-redone slice, also counted
    /// in `redo_cycles`), discarded work of failed jobs in `wasted_cycles`
    /// (a timeout burns its whole window; a mid-run loss is expected to
    /// burn half of it). Purely derived — no extra randomness — so census
    /// reproduction is untouched.
    pub retry_cost: RetryCost,
    /// CB producer stalls (`cb_reserve_back` blocking) observed by the job.
    /// The modeled campaign runner does not execute the functional
    /// pipeline, so it records zero; pipeline-backed runners fill this from
    /// their launch reports' `CbReport`s.
    pub cb_producer_stalls: u64,
    /// CB consumer stalls (`cb_wait_front` blocking). The modeled runner
    /// records the watchdog's one unresolved wait for a
    /// [`FailurePhase::Timeout`] job and zero otherwise.
    pub cb_consumer_stalls: u64,
    /// Per-ring-card split of [`JobRecord::retry_cost`] (one entry per
    /// computing card, cycle-exact: the entries sum back to the job total).
    /// Empty for jobs that died before any card computed.
    pub device_retry: Vec<RetryCost>,
    /// Ring members replaced by a spare mid-run. The modeled campaign
    /// runner records zero (its loss model is job-level); pipeline-backed
    /// runners fill this from `DriverOutcome::failovers`.
    pub failovers: u64,
}

impl JobRecord {
    /// A job that died in `phase` with nothing measured.
    #[must_use]
    pub fn failed(job_id: usize, kind: JobKind, phase: FailurePhase) -> Self {
        JobRecord {
            job_id,
            kind,
            outcome: JobOutcome::Failed(phase),
            reset_retries_used: 0,
            recovery_overhead_s: 0.0,
            time_to_solution: None,
            card_energy_j: None,
            cpu_energy_j: None,
            cpu_energy_naive_j: None,
            cpu_energy_combined_j: None,
            total_energy_j: None,
            peak_power_w: None,
            card_series: Vec::new(),
            host_series: SampleSeries::new("host"),
            server_series: SampleSeries::new("server"),
            sim_window: (0.0, 0.0),
            retry_cost: RetryCost::default(),
            cb_producer_stalls: 0,
            cb_consumer_stalls: 0,
            device_retry: Vec::new(),
            failovers: 0,
        }
    }

    /// Whether the job produced measurements.
    #[must_use]
    pub fn success(&self) -> bool {
        self.outcome == JobOutcome::Success
    }
}

/// Run one job.
#[must_use]
pub fn run_job(spec: &JobSpec, job_id: usize, seed: u64) -> JobRecord {
    assert!(spec.devices >= 1, "a job computes on at least one card");
    assert!(
        spec.active_card + spec.devices <= spec.cards,
        "ring of {} cards starting at {} does not fit in {} installed",
        spec.devices,
        spec.active_card,
        spec.cards
    );
    let ring = spec.active_card..spec.active_card + spec.devices;
    let mut rng =
        SmallRng::seed_from_u64(seed ^ (job_id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));

    // --- device reset phase (accelerated jobs only) ----------------------
    // The failure mode is per *job*: one bad reset anywhere aborts the
    // submission, and the paper's census (24/50) is the job-level rate, so
    // the injector arms only the card the job is about to use.
    let devices: Vec<_> = (0..spec.cards)
        .map(|id| {
            let injected = spec.kind == JobKind::Accelerated && id == spec.active_card;
            Device::new(
                id,
                DeviceConfig {
                    reset_failure_prob: if injected { spec.reset_failure_prob } else { 0.0 },
                    seed: seed.wrapping_add(job_id as u64 * 131),
                    // Mid-run hang/loss are drawn from the card's own seeded
                    // FaultPlan streams (ROADMAP "campaign/device fault
                    // unification"): the one device seed governs both the
                    // campaign census and launch-level injection.
                    faults: if injected {
                        FaultConfig {
                            kernel_stall_prob: spec.faults.hang_prob,
                            device_loss_prob: spec.faults.mid_run_loss_prob,
                            ..FaultConfig::default()
                        }
                    } else {
                        FaultConfig::default()
                    },
                    ..DeviceConfig::default()
                },
            )
        })
        .collect();
    let mut reset_retries_used: u32 = 0;
    let mut recovery_overhead_s: f64 = 0.0;
    for d in &devices {
        d.set_power_params(spec.card_params);
        let mut attempt: u32 = 0;
        loop {
            match d.reset() {
                Ok(()) => break,
                // A retry re-draws the card's seeded reset stream, so the
                // retry-disabled census is untouched: the first draw per
                // card is exactly the paper's one-shot roll.
                Err(_) if attempt < spec.faults.reset_retries => {
                    recovery_overhead_s +=
                        spec.faults.reset_backoff_s * f64::from(1u32 << attempt.min(16));
                    attempt += 1;
                    reset_retries_used += 1;
                }
                Err(_) => {
                    // "the remaining 24 failed to start due to errors
                    // occurring during the device reset phase".
                    let mut rec = JobRecord::failed(job_id, spec.kind, FailurePhase::Reset);
                    rec.reset_retries_used = reset_retries_used;
                    rec.recovery_overhead_s = recovery_overhead_s;
                    return rec;
                }
            }
        }
    }

    // --- timeline: sleep, simulate, sleep ---------------------------------
    let mut duration =
        spec.nominal_seconds * (1.0 + spec.time_jitter_frac * standard_normal(&mut rng));

    // --- mid-run faults ----------------------------------------------------
    // Hang and loss are drawn from the active card's seeded FaultPlan — the
    // same per-class streams the launch layer rolls — so one seed governs
    // both layers. The job rng consumes only the duration draw above and
    // each fault class has an independent stream, so the no-fault censuses
    // and every measurement reproduce whichever policy is active.
    let mut redo_cycles = 0u64;
    if spec.kind == JobKind::Accelerated {
        let plan = devices[spec.active_card].faults();
        if plan.roll_kernel_stall() {
            let mut rec = JobRecord::failed(job_id, spec.kind, FailurePhase::Timeout);
            rec.reset_retries_used = reset_retries_used;
            rec.recovery_overhead_s = recovery_overhead_s;
            // The hang burned its whole wall-clock budget for nothing, stuck
            // in one CB wait the watchdog eventually killed.
            rec.retry_cost.wasted_cycles = model_cycles(duration);
            rec.device_retry = split_retry(rec.retry_cost, spec.devices);
            rec.cb_consumer_stalls = 1;
            return rec;
        }
        if plan.roll_device_loss() {
            if spec.faults.resume_from_checkpoint {
                // Resume from the last host-side checkpoint: the window
                // stretches by the redone slice, and the redo is billed as
                // recovery overhead.
                let redo = duration * spec.faults.checkpoint_redo_frac;
                recovery_overhead_s += redo;
                duration += redo;
                redo_cycles = model_cycles(redo);
            } else {
                let mut rec = JobRecord::failed(job_id, spec.kind, FailurePhase::MidRun);
                rec.reset_retries_used = reset_retries_used;
                rec.recovery_overhead_s = recovery_overhead_s;
                // The loss lands uniformly in the window; bill the expected
                // half window as discarded work.
                rec.retry_cost.wasted_cycles = model_cycles(0.5 * duration);
                rec.device_retry = split_retry(rec.retry_cost, spec.devices);
                return rec;
            }
        }
    }
    let sim_start = spec.sleep_seconds;
    let sim_end = sim_start + duration;
    let total = sim_end + spec.sleep_seconds;

    for d in &devices {
        d.record_power(PowerState::Idle, spec.sleep_seconds);
        let compute_state = match spec.kind {
            JobKind::Accelerated if ring.contains(&d.id()) => PowerState::ComputeActive,
            JobKind::Accelerated => PowerState::PoweredUnused,
            // CPU-only runs leave the cards at their idle baseline.
            JobKind::CpuOnly => PowerState::Idle,
        };
        d.record_power(compute_state, duration);
        let tail = match spec.kind {
            JobKind::Accelerated => PowerState::PostRunIdle,
            JobKind::CpuOnly => PowerState::Idle,
        };
        d.record_power(tail, spec.sleep_seconds);
    }

    // --- sampling ----------------------------------------------------------
    let sampler = TtSmiSampler::new(devices, spec.sample_interval);
    let card_series = sampler.sample_job(total);

    let mut host_profile = HostPowerProfile::new(seed ^ 0xabcd);
    host_profile.push(spec.host_idle_power_w, spec.sleep_seconds);
    host_profile.push(spec.host_sim_power_w, duration);
    host_profile.push(spec.host_idle_power_w, spec.sleep_seconds);

    let mut host_series = SampleSeries::new("host");
    let meter = DcmiPowerMeter::default();
    let mut server_series = SampleSeries::new("server");
    let mut t = 0.25;
    while t < total {
        let host_w = host_profile.power_at(t);
        host_series.push(t, host_w);
        let rails: f64 = host_w
            + card_series
                .iter()
                .map(|s| {
                    // Nearest card sample at or before t (the DCMI poller reads the
                    // PSU, which integrates everything).
                    s.samples.iter().rev().find(|p| p.t <= t).map_or(10.5, |p| p.watts)
                })
                .sum::<f64>();
        server_series.push(t, meter.reading(rails));
        t += spec.sample_interval;
    }

    // --- energy over the simulation window only ---------------------------
    let card_energy: f64 =
        card_series.iter().map(|s| integrate_samples(&s.samples, sim_start, sim_end)).sum();
    // Two package domains, each carrying half the host power, read the
    // perf-stat way (overflow-corrected).
    let pkg0 = RaplDomain::new("package-0", &host_profile, 0.5);
    let pkg1 = RaplDomain::new("package-1", &host_profile, 0.5);
    let cpu_energy = read_energy_perf(&pkg0, sim_start, sim_end, spec.sample_interval)
        + read_energy_perf(&pkg1, sim_start, sim_end, spec.sample_interval);
    // The naive-vs-perf cross-check uses the combined-package counter (the
    // monitoring view that accumulates fastest and therefore wraps first).
    let combined = RaplDomain::new("packages", &host_profile, 1.0);
    let cpu_energy_naive = read_energy_naive(&combined, sim_start, sim_end, spec.sample_interval);
    let cpu_energy_combined = read_energy_perf(&combined, sim_start, sim_end, spec.sample_interval);

    // --- peak combined power ----------------------------------------------
    let mut peak: f64 = 0.0;
    for (i, host_sample) in host_series.window(sim_start, sim_end).iter().enumerate() {
        let cards_at: f64 = card_series
            .iter()
            .map(|s| s.window(sim_start, sim_end).get(i).map_or(0.0, |p| p.watts))
            .sum();
        peak = peak.max(cards_at + host_sample.watts);
    }

    JobRecord {
        job_id,
        kind: spec.kind,
        outcome: JobOutcome::Success,
        reset_retries_used,
        recovery_overhead_s,
        time_to_solution: Some(duration),
        card_energy_j: Some(card_energy),
        cpu_energy_j: Some(cpu_energy),
        cpu_energy_naive_j: Some(cpu_energy_naive),
        cpu_energy_combined_j: Some(cpu_energy_combined),
        total_energy_j: Some(card_energy + cpu_energy),
        peak_power_w: Some(peak),
        card_series,
        host_series,
        server_series,
        sim_window: (sim_start, sim_end),
        retry_cost: RetryCost {
            useful_cycles: model_cycles(duration),
            wasted_cycles: 0,
            redo_cycles,
        },
        cb_producer_stalls: 0,
        cb_consumer_stalls: 0,
        device_retry: split_retry(
            RetryCost { useful_cycles: model_cycles(duration), wasted_cycles: 0, redo_cycles },
            spec.devices,
        ),
        failovers: 0,
    }
}

/// Seconds of the modeled timeline at the device clock (1 cycle = 1 ns).
fn model_cycles(seconds: f64) -> u64 {
    (seconds * tensix::CLOCK_HZ) as u64
}

/// Split a job-level [`RetryCost`] evenly across the ring's cards,
/// cycle-exact (remainders go to the lowest-indexed cards, so the entries
/// always sum back to the total).
fn split_retry(total: RetryCost, devices: usize) -> Vec<RetryCost> {
    let d = devices.max(1) as u64;
    let share = |v: u64, i: u64| v / d + u64::from(i < v % d);
    (0..d)
        .map(|i| RetryCost {
            useful_cycles: share(total.useful_cycles, i),
            wasted_cycles: share(total.wasted_cycles, i),
            redo_cycles: share(total.redo_cycles, i),
        })
        .collect()
}

/// Run a campaign of `jobs` submissions.
#[must_use]
pub fn run_campaign(spec: &JobSpec, jobs: usize, seed: u64) -> Vec<JobRecord> {
    (0..jobs).map(|id| run_job(spec, id, seed)).collect()
}

/// Successful records only.
#[must_use]
pub fn successes(records: &[JobRecord]) -> Vec<&JobRecord> {
    records.iter().filter(|r| r.success()).collect()
}

/// Campaign tally by failure class — the structured version of the paper's
/// "26 ran successfully ... the remaining 24 failed to start".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignCensus {
    /// Jobs submitted.
    pub submitted: usize,
    /// Jobs that produced measurements.
    pub succeeded: usize,
    /// Jobs that died at device reset (failed to start).
    pub failed_reset: usize,
    /// Jobs that lost the card mid-simulation.
    pub failed_mid_run: usize,
    /// Jobs killed at their wall-clock budget.
    pub failed_timeout: usize,
    /// Reset retries consumed across the whole campaign.
    pub reset_retries_used: u64,
    /// Ring members replaced by a spare across the whole campaign
    /// (pipeline-backed runners only; the modeled runner reports zero).
    pub failovers: u64,
}

impl CampaignCensus {
    /// Failed jobs across all classes.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.failed_reset + self.failed_mid_run + self.failed_timeout
    }
}

/// Tally `records` by outcome class.
#[must_use]
pub fn census(records: &[JobRecord]) -> CampaignCensus {
    let mut c = CampaignCensus { submitted: records.len(), ..CampaignCensus::default() };
    for r in records {
        c.reset_retries_used += u64::from(r.reset_retries_used);
        c.failovers += r.failovers;
        match r.outcome {
            JobOutcome::Success => c.succeeded += 1,
            JobOutcome::Failed(FailurePhase::Reset) => c.failed_reset += 1,
            JobOutcome::Failed(FailurePhase::MidRun) => c.failed_mid_run += 1,
            JobOutcome::Failed(FailurePhase::Timeout) => c.failed_timeout += 1,
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, std_dev};

    fn accel_spec() -> JobSpec {
        JobSpec {
            kind: JobKind::Accelerated,
            nominal_seconds: 301.4,
            time_jitter_frac: 0.0008,
            sleep_seconds: 120.0,
            cards: 4,
            active_card: 3,
            devices: 1,
            card_params: PowerParams::default(),
            host_sim_power_w: 152.7,
            host_idle_power_w: 130.0,
            reset_failure_prob: 0.48,
            sample_interval: 1.0,
            faults: FaultPolicy::default(),
        }
    }

    fn cpu_spec() -> JobSpec {
        JobSpec {
            kind: JobKind::CpuOnly,
            nominal_seconds: 672.9,
            time_jitter_frac: 0.0116,
            host_sim_power_w: 149.5,
            reset_failure_prob: 0.0,
            ..accel_spec()
        }
    }

    #[test]
    fn accelerated_job_reproduces_fig4_shape() {
        let rec = run_job(&accel_spec(), 0, 42);
        assert!(rec.success());
        assert_eq!(rec.card_series.len(), 4);
        let (t0, t1) = rec.sim_window;
        // Pre-sleep: all cards idle 10–11 W.
        for s in &rec.card_series {
            for p in s.window(5.0, t0 - 5.0) {
                assert!((9.5..11.5).contains(&p.watts), "pre-sleep {}", p.watts);
            }
        }
        // During the simulation: unused cards < 20 W, active 26–33 W.
        for s in &rec.card_series[..3] {
            for p in s.window(t0 + 5.0, t1 - 5.0) {
                assert!(p.watts < 20.0, "unused card at {}", p.watts);
            }
        }
        let active = &rec.card_series[3];
        let active_w: Vec<f64> =
            active.window(t0 + 5.0, t1 - 5.0).iter().map(|p| p.watts).collect();
        assert!(active_w.iter().all(|w| (25.4..=33.6).contains(w)), "out-of-band sample");
        assert!(active_w.iter().any(|w| *w > 31.0), "peaks present");
        assert!(active_w.iter().any(|w| *w < 28.0), "troughs present");
        // Post-run idle slightly elevated vs pre-run.
        let pre = mean(
            &rec.card_series[0].window(5.0, t0 - 5.0).iter().map(|p| p.watts).collect::<Vec<_>>(),
        );
        let post = mean(
            &rec.card_series[0]
                .window(t1 + 5.0, t1 + spec_sleep() - 5.0)
                .iter()
                .map(|p| p.watts)
                .collect::<Vec<_>>(),
        );
        assert!(post > pre + 0.5, "post {post} vs pre {pre}");
    }

    fn spec_sleep() -> f64 {
        120.0
    }

    #[test]
    fn ring_job_powers_every_ring_card_and_splits_retry_cycle_exact() {
        // A 3-card ring starting at card 1: cards 1..4 compute, card 0 is
        // powered but unused, and the job's retry cycles split across the
        // ring so the per-device columns sum back to the job total.
        let spec = JobSpec { active_card: 1, devices: 3, reset_failure_prob: 0.0, ..accel_spec() };
        let rec = run_job(&spec, 0, 42);
        assert!(rec.success());
        let (t0, t1) = rec.sim_window;
        for s in &rec.card_series[1..4] {
            let w: Vec<f64> = s.window(t0 + 5.0, t1 - 5.0).iter().map(|p| p.watts).collect();
            assert!(w.iter().all(|x| (25.4..=33.6).contains(x)), "ring card idle during run");
        }
        for p in rec.card_series[0].window(t0 + 5.0, t1 - 5.0) {
            assert!(p.watts < 20.0, "non-ring card drawing {}", p.watts);
        }
        assert_eq!(rec.device_retry.len(), 3);
        let sum: u64 = rec.device_retry.iter().map(|c| c.useful_cycles).sum();
        assert_eq!(sum, rec.retry_cost.useful_cycles, "split must be cycle-exact");
        assert!(
            rec.device_retry[0].useful_cycles >= rec.device_retry[2].useful_cycles,
            "remainder cycles go to the lowest-indexed cards"
        );
        assert_eq!(rec.failovers, 0, "the modeled runner never promotes a spare");
        assert_eq!(census(&[rec]).failovers, 0);
    }

    #[test]
    fn ring_must_fit_in_the_installed_cards() {
        let spec = JobSpec { active_card: 3, devices: 2, ..accel_spec() };
        let err = std::panic::catch_unwind(|| run_job(&spec, 0, 1));
        assert!(err.is_err(), "ring 3..5 cannot fit in 4 cards");
    }

    #[test]
    fn campaign_census_matches_paper() {
        // 50 submissions at p = 0.48: the paper got 26 successes.
        let records = run_campaign(&accel_spec(), 50, 7);
        let ok = successes(&records).len();
        assert!((18..=34).contains(&ok), "{ok} successes out of 50");
        // CPU campaign never fails at reset.
        let cpu = run_campaign(&cpu_spec(), 49, 7);
        assert_eq!(successes(&cpu).len(), 49);
    }

    #[test]
    fn time_and_energy_statistics_paper_shaped() {
        let accel: Vec<JobRecord> = run_campaign(&accel_spec(), 40, 3);
        let cpu: Vec<JobRecord> = run_campaign(&cpu_spec(), 30, 4);
        let at: Vec<f64> = successes(&accel).iter().map(|r| r.time_to_solution.unwrap()).collect();
        let ct: Vec<f64> = successes(&cpu).iter().map(|r| r.time_to_solution.unwrap()).collect();
        assert!((mean(&at) - 301.4).abs() < 1.0, "accel mean {}", mean(&at));
        assert!((mean(&ct) - 672.9).abs() < 8.0, "cpu mean {}", mean(&ct));
        // CPU times vary more (the paper's observation).
        assert!(std_dev(&ct) / mean(&ct) > 3.0 * std_dev(&at) / mean(&at));

        let ae: Vec<f64> = successes(&accel).iter().map(|r| r.total_energy_j.unwrap()).collect();
        let ce: Vec<f64> = successes(&cpu).iter().map(|r| r.total_energy_j.unwrap()).collect();
        let ratio = mean(&ce) / mean(&ae);
        assert!((1.6..2.0).contains(&ratio), "energy ratio {ratio}");
        let speedup = mean(&ct) / mean(&at);
        assert!((2.1..2.4).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn peak_power_ordering() {
        let a = run_job(&accel_spec(), 1, 11);
        let c = run_job(&cpu_spec(), 1, 11);
        let ap = a.peak_power_w.unwrap();
        let cp = c.peak_power_w.unwrap();
        assert!(ap > cp, "accel peak {ap} must exceed cpu peak {cp}");
        assert!((235.0..275.0).contains(&ap), "accel peak {ap}");
        assert!((180.0..225.0).contains(&cp), "cpu peak {cp}");
    }

    #[test]
    fn server_power_baseline_dominates_as_paper_observed() {
        // The paper excluded the IPMI channel: "the elevated power usage of
        // the temporary host server ... having a high baseline power
        // consumption". The recorded server series reflects that.
        let rec = (0..32)
            .map(|attempt| run_job(&accel_spec(), attempt, 33))
            .find(|r| r.success())
            .expect("some job survives reset");
        let (t0, t1) = rec.sim_window;
        let sim: Vec<f64> =
            rec.server_series.window(t0 + 2.0, t1 - 2.0).iter().map(|p| p.watts).collect();
        let rails_estimate = 237.0; // cards + packages during the run
        let server = mean(&sim);
        assert!(server > rails_estimate + 200.0, "server reading {server} W");
        // Baseline fraction ≈ 50 %: unusable for per-component attribution.
        assert!(250.0 / server > 0.4, "baseline fraction too small to matter");
    }

    #[test]
    fn naive_rapl_reader_diverges_only_where_registers_wrap() {
        // Accelerated job: the per-package counter stays below one wrap over
        // the simulation window -> both readers agree, as the paper checked.
        let a = run_job(&accel_spec(), 2, 21);
        let perf = a.cpu_energy_combined_j.unwrap();
        let naive = a.cpu_energy_naive_j.unwrap();
        assert!(
            (perf - naive).abs() < 1.0,
            "accel window must not wrap: perf {perf} vs naive {naive}"
        );
        // CPU job: the combined counter accumulates ≈116 kJ by the end of
        // the simulation window and wraps at 65.5 kJ mid-window, corrupting
        // the naive reading.
        let c = run_job(&cpu_spec(), 2, 21);
        let perf = c.cpu_energy_combined_j.unwrap();
        let naive = c.cpu_energy_naive_j.unwrap();
        assert!(
            (perf - naive).abs() > 1000.0,
            "cpu window must wrap and corrupt the naive reader: perf {perf} vs naive {naive}"
        );
    }

    #[test]
    fn reset_retries_recover_the_campaign_without_touching_the_census() {
        // Retry-disabled: the paper's census, seed-deterministic.
        let baseline = census(&run_campaign(&accel_spec(), 50, 7));
        assert!((18..=34).contains(&baseline.succeeded), "{baseline:?}");
        assert_eq!(baseline.failed_reset, baseline.failed());
        assert_eq!(baseline.reset_retries_used, 0);

        // Same seed with a retry budget: p(all 5 attempts fail) = 0.48^5,
        // so ≥45/50 jobs must come up.
        let mut spec = accel_spec();
        spec.faults.reset_retries = 4;
        spec.faults.reset_backoff_s = 5.0;
        let retried = census(&run_campaign(&spec, 50, 7));
        assert!(retried.succeeded >= 45, "{retried:?}");
        assert!(retried.succeeded > baseline.succeeded);
        assert!(retried.reset_retries_used > 0);

        // Determinism: same seed, same censuses.
        assert_eq!(baseline, census(&run_campaign(&accel_spec(), 50, 7)));
        assert_eq!(retried, census(&run_campaign(&spec, 50, 7)));
    }

    #[test]
    fn reset_retries_do_not_perturb_the_measurement_window() {
        // A job that needed retries must measure exactly what a job on a
        // healthy card measures: recovery happens outside the window.
        let mut spec = accel_spec();
        spec.faults.reset_retries = 8;
        spec.faults.reset_backoff_s = 5.0;
        let records = run_campaign(&spec, 50, 7);
        let retried = records
            .iter()
            .find(|r| r.success() && r.reset_retries_used > 0)
            .expect("some job needed a retry at p = 0.48");

        let mut healthy_spec = accel_spec();
        healthy_spec.reset_failure_prob = 0.0;
        let healthy = run_job(&healthy_spec, retried.job_id, 7);
        assert_eq!(retried.time_to_solution, healthy.time_to_solution);
        assert_eq!(retried.total_energy_j, healthy.total_energy_j);
        assert_eq!(retried.peak_power_w, healthy.peak_power_w);
        assert_eq!(retried.sim_window, healthy.sim_window);
        assert!(retried.recovery_overhead_s >= 5.0, "backoff must be billed");
        assert_eq!(healthy.recovery_overhead_s, 0.0);
    }

    #[test]
    fn census_splits_failures_by_class() {
        let mut spec = accel_spec();
        spec.reset_failure_prob = 0.3;
        spec.faults.hang_prob = 0.15;
        spec.faults.mid_run_loss_prob = 0.25;
        let c = census(&run_campaign(&spec, 200, 13));
        assert_eq!(c.submitted, 200);
        assert_eq!(c.succeeded + c.failed(), c.submitted);
        assert!(c.failed_reset > 20, "{c:?}");
        assert!(c.failed_mid_run > 10, "{c:?}");
        assert!(c.failed_timeout > 5, "{c:?}");

        // Checkpoint resume converts mid-run losses into longer successes.
        let mut resume = spec;
        resume.faults.resume_from_checkpoint = true;
        resume.faults.checkpoint_redo_frac = 0.25;
        let cr = census(&run_campaign(&resume, 200, 13));
        assert_eq!(cr.failed_mid_run, 0, "{cr:?}");
        assert_eq!(cr.succeeded, c.succeeded + c.failed_mid_run, "same rolls, same classes");
        assert_eq!(cr.failed_timeout, c.failed_timeout);
        assert_eq!(cr.failed_reset, c.failed_reset);
    }

    #[test]
    fn checkpoint_resume_bills_the_redo() {
        let mut spec = accel_spec();
        spec.reset_failure_prob = 0.0;
        spec.faults.mid_run_loss_prob = 1.0;
        spec.faults.resume_from_checkpoint = true;
        spec.faults.checkpoint_redo_frac = 0.25;
        let resumed = run_job(&spec, 0, 42);
        assert!(resumed.success());

        let mut clean_spec = spec;
        clean_spec.faults.mid_run_loss_prob = 0.0;
        let clean = run_job(&clean_spec, 0, 42);
        let t_resumed = resumed.time_to_solution.unwrap();
        let t_clean = clean.time_to_solution.unwrap();
        assert!((t_resumed - 1.25 * t_clean).abs() < 1e-9, "{t_resumed} vs {t_clean}");
        assert!((resumed.recovery_overhead_s - 0.25 * t_clean).abs() < 1e-9);
        // The redone slice burns real energy — it must show up.
        assert!(resumed.total_energy_j.unwrap() > clean.total_energy_j.unwrap());
    }

    #[test]
    fn job_observability_columns_are_derived_deterministically() {
        // Success: the whole window is useful work, nothing wasted.
        let mut clean = accel_spec();
        clean.reset_failure_prob = 0.0;
        let ok = run_job(&clean, 0, 42);
        let t = ok.time_to_solution.unwrap();
        assert_eq!(ok.retry_cost.useful_cycles, (t * tensix::CLOCK_HZ) as u64);
        assert_eq!(ok.retry_cost.wasted_cycles, 0);
        assert_eq!((ok.cb_producer_stalls, ok.cb_consumer_stalls), (0, 0));

        // Timeout: the whole budget burned, one unresolved CB wait.
        let mut hang = clean;
        hang.faults.hang_prob = 1.0;
        let timed_out = run_job(&hang, 0, 42);
        assert_eq!(timed_out.outcome, JobOutcome::Failed(FailurePhase::Timeout));
        assert!(timed_out.retry_cost.wasted_cycles > 0);
        assert_eq!(timed_out.retry_cost.useful_cycles, 0);
        assert_eq!(timed_out.cb_consumer_stalls, 1);

        // Checkpoint resume: the redone quarter shows up in redo_cycles,
        // inside the useful bucket: overhead = 0.25 t / 1.25 t = 0.2.
        let mut resume = clean;
        resume.faults.mid_run_loss_prob = 1.0;
        resume.faults.resume_from_checkpoint = true;
        resume.faults.checkpoint_redo_frac = 0.25;
        let resumed = run_job(&resume, 0, 42);
        assert!(resumed.success());
        assert!(resumed.retry_cost.redo_cycles > 0);
        assert!(resumed.retry_cost.redo_cycles <= resumed.retry_cost.useful_cycles);
        assert!((resumed.retry_cost.overhead_ratio() - 0.2).abs() < 1e-6);

        // Mid-run loss without resume: expected half window discarded.
        let mut lossy = clean;
        lossy.faults.mid_run_loss_prob = 1.0;
        let lost = run_job(&lossy, 0, 42);
        assert_eq!(lost.outcome, JobOutcome::Failed(FailurePhase::MidRun));
        assert_eq!(lost.retry_cost.useful_cycles, 0);
        assert!(lost.retry_cost.wasted_cycles > 0);
        // Derivations are deterministic: same seed, same columns.
        let again = run_job(&lossy, 0, 42);
        assert_eq!(lost.retry_cost, again.retry_cost);
    }

    #[test]
    fn failed_job_has_no_measurements() {
        let mut spec = accel_spec();
        spec.reset_failure_prob = 1.0;
        let rec = run_job(&spec, 0, 5);
        assert!(!rec.success());
        assert!(rec.time_to_solution.is_none());
        assert!(rec.total_energy_j.is_none());
        assert!(rec.card_series.is_empty());
    }
}
