//! Seeded fault injection — the device's misbehaviour model.
//!
//! The paper documents one failure mode in detail (24 of 50 submitted jobs
//! died "during the device reset phase"), but a production campaign on
//! early-silicon accelerators sees a wider taxonomy. This module models the
//! classes the paper's workflow would have to survive:
//!
//! * transient NoC transaction errors (retransmitted at a cycle cost, or a
//!   hard [`crate::TensixError::NocTransactionFailed`] when the hardware
//!   retry budget is exhausted);
//! * DRAM read corruption, split into ECC-correctable events (latency
//!   penalty only) and uncorrectable ones
//!   ([`crate::TensixError::DramEccUncorrectable`]);
//! * ERISC link flaps on the chip-to-chip Ethernet ports (retransmit cost,
//!   or [`crate::TensixError::EthLinkDown`] when the flap persists);
//! * compute-kernel stalls/hangs (the kernel never makes progress; once
//!   the rest of its core can no longer move either, the command queue
//!   reports the stall as a structured error);
//! * mid-run device loss (the card falls off the PCIe bus; every subsequent
//!   operation fails with [`crate::TensixError::DeviceLost`] until a reset).
//!
//! Every class draws from its **own** seeded RNG stream, so arming one
//! injector never perturbs another class's event sequence — enabling the
//! reset injector alone reproduces the paper's E5 census bit-for-bit while
//! NoC/DRAM/loss probabilities stay configurable on top. For deterministic
//! tests, [`FaultPlan::schedule`] arms a one-shot fault at an exact event
//! index instead of a probability.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-class fault probabilities of one device. All default to zero (a
/// healthy card); the reset-failure probability lives separately in
/// [`crate::DeviceConfig::reset_failure_prob`] because the paper calibrates
/// it directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Per NoC transaction: probability of a transient transfer error. The
    /// transaction is retransmitted once at full cost; a second consecutive
    /// failure exhausts the hardware retry budget.
    pub noc_transient_prob: f64,
    /// Per DRAM tile read: probability the read returns corrupted data.
    pub dram_corruption_prob: f64,
    /// Fraction of DRAM corruption events the GDDR6 ECC cannot correct.
    pub dram_uncorrectable_frac: f64,
    /// Per Ethernet transfer: probability of an ERISC link flap. One flap
    /// costs a retransmit; two consecutive flaps take the link down.
    pub eth_flap_prob: f64,
    /// Per kernel-instance launch: probability the kernel stalls forever
    /// (models firmware lock-ups; caught by per-core deadlock detection).
    pub kernel_stall_prob: f64,
    /// Per program launch: probability the device falls off the bus.
    pub device_loss_prob: f64,
    /// Background ECC scrubbing of the card's DRAM (disabled by default).
    pub scrub: ScrubConfig,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            noc_transient_prob: 0.0,
            dram_corruption_prob: 0.0,
            dram_uncorrectable_frac: 0.0,
            eth_flap_prob: 0.0,
            kernel_stall_prob: 0.0,
            device_loss_prob: 0.0,
            scrub: ScrubConfig::default(),
        }
    }
}

/// Background DRAM ECC scrubbing: the patrol reader that walks the card's
/// GDDR6, rewriting correctable errors before they pile up into
/// uncorrectable ones.
///
/// Without scrubbing, every ECC-corrected read leaves a *standing* error in
/// DRAM; as standing errors accumulate, the chance that the next corruption
/// lands on an already-damaged word — and escalates to uncorrectable —
/// grows (`escalation_per_error`). A scrub sweep clears a `coverage`
/// fraction of the standing population every `interval_s` virtual seconds,
/// at the price of stealing `bandwidth_frac` of the DRAM read bandwidth
/// while enabled. This gives correctable-error accumulation and
/// uncorrectable escalation the realistic time dependence long fault storms
/// exercise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubConfig {
    /// Virtual seconds per full scrub sweep of the card's DRAM. Zero (the
    /// default) disables scrubbing entirely — no decay, no bandwidth tax.
    pub interval_s: f64,
    /// Fraction of standing correctable errors cleared per sweep.
    pub coverage: f64,
    /// Fraction of DRAM read bandwidth the scrubber steals while enabled
    /// (reads are slowed by `1 / (1 − bandwidth_frac)`).
    pub bandwidth_frac: f64,
    /// Extra uncorrectable-escalation probability per standing error,
    /// added to [`FaultConfig::dram_uncorrectable_frac`] (clamped to 1).
    pub escalation_per_error: f64,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            interval_s: 0.0,
            coverage: 0.8,
            bandwidth_frac: 0.02,
            escalation_per_error: 0.0,
        }
    }
}

impl ScrubConfig {
    /// Whether the scrubber runs at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.interval_s > 0.0
    }
}

/// Time-dependent scrub state: the standing correctable-error population
/// and the virtual timestamp of its last decay.
#[derive(Debug, Default)]
struct ScrubState {
    /// Standing (not-yet-scrubbed) correctable errors, fractional so decay
    /// composes smoothly.
    standing: f64,
    /// Virtual time of the last decay application.
    last_s: f64,
    /// Fractional errors cleared, accumulated until a whole one is counted.
    cleared_acc: f64,
}

/// The fault classes a [`FaultPlan`] can inject (used to address a class in
/// [`FaultPlan::schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Transient NoC transaction error.
    NocTransient,
    /// DRAM read corruption (severity decided by
    /// [`FaultConfig::dram_uncorrectable_frac`]).
    DramRead,
    /// ERISC Ethernet link flap.
    EthFlap,
    /// Compute/data-movement kernel stall.
    KernelStall,
    /// Mid-run device loss.
    DeviceLoss,
}

/// Outcome of one DRAM read roll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramReadFault {
    /// The read was clean.
    None,
    /// Corrupted but ECC-corrected: data intact, correction latency charged.
    Corrected,
    /// Uncorrectable: the read must fail.
    Uncorrectable,
}

/// Lifetime fault-event counters of one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient NoC errors recovered by retransmit.
    pub noc_transients: u64,
    /// Hard NoC transaction failures (retry budget exhausted).
    pub noc_failures: u64,
    /// ECC-corrected DRAM reads.
    pub dram_corrected: u64,
    /// Uncorrectable DRAM reads.
    pub dram_uncorrectable: u64,
    /// Ethernet link flaps recovered by retransmit.
    pub eth_flaps: u64,
    /// Injected kernel stalls.
    pub kernel_stalls: u64,
    /// Mid-run device losses.
    pub device_losses: u64,
    /// Standing correctable errors cleared by background scrub sweeps.
    pub dram_scrubbed: u64,
}

/// One fault class's event stream: an independent seeded RNG, an event
/// counter, and an optional one-shot scheduled event for deterministic
/// tests.
#[derive(Debug)]
struct ClassStream {
    rng: SmallRng,
    events: u64,
    scheduled: Option<u64>,
}

impl ClassStream {
    fn new(seed: u64) -> Self {
        ClassStream { rng: SmallRng::seed_from_u64(seed), events: 0, scheduled: None }
    }

    /// Advance the event counter and decide whether this event faults.
    fn roll(&mut self, prob: f64) -> bool {
        self.events += 1;
        if self.scheduled == Some(self.events) {
            self.scheduled = None;
            return true;
        }
        prob > 0.0 && self.rng.gen::<f64>() < prob
    }
}

/// The seeded, per-device fault injector.
///
/// Stream derivation: each class seeds its own xoshiro stream from
/// `base = seed + device_id` XOR a per-class salt, where `base` is the same
/// derivation the reset injector uses — so fault plans of different devices
/// and different classes are mutually independent, and the reset stream
/// (owned by [`crate::Device`], untouched here) is preserved exactly.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    noc: Mutex<ClassStream>,
    dram: Mutex<ClassStream>,
    eth: Mutex<ClassStream>,
    stall: Mutex<ClassStream>,
    loss: Mutex<ClassStream>,
    /// Fast path: false while every probability is zero and nothing is
    /// scheduled, so the per-transaction hooks cost one atomic load on a
    /// healthy device.
    armed: AtomicBool,
    scrub: Mutex<ScrubState>,
    stats: Mutex<FaultStats>,
}

const NOC_SALT: u64 = 0x6e6f_635f_7472_616e; // "noc_tran"
const DRAM_SALT: u64 = 0x6472_616d_5f65_6363; // "dram_ecc"
const ETH_SALT: u64 = 0x6574_685f_666c_6170; // "eth_flap"
const STALL_SALT: u64 = 0x6b72_6e6c_5f68_6e67; // "krnl_hng"
const LOSS_SALT: u64 = 0x6465_765f_6c6f_7373; // "dev_loss"

impl FaultPlan {
    /// Plan for device `device_id` under the device seed `seed`.
    #[must_use]
    pub fn new(device_id: usize, seed: u64, config: FaultConfig) -> Self {
        let base = seed.wrapping_add(device_id as u64);
        let armed = config.noc_transient_prob > 0.0
            || config.dram_corruption_prob > 0.0
            || config.eth_flap_prob > 0.0
            || config.kernel_stall_prob > 0.0
            || config.device_loss_prob > 0.0
            || config.scrub.enabled();
        FaultPlan {
            config,
            noc: Mutex::new(ClassStream::new(base ^ NOC_SALT)),
            dram: Mutex::new(ClassStream::new(base ^ DRAM_SALT)),
            eth: Mutex::new(ClassStream::new(base ^ ETH_SALT)),
            stall: Mutex::new(ClassStream::new(base ^ STALL_SALT)),
            loss: Mutex::new(ClassStream::new(base ^ LOSS_SALT)),
            armed: AtomicBool::new(armed),
            scrub: Mutex::new(ScrubState::default()),
            stats: Mutex::new(FaultStats::default()),
        }
    }

    /// The configured probabilities.
    #[must_use]
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// Arm a one-shot fault of `class` at exactly the `at_event`-th event
    /// (1-based) of that class's stream, regardless of probabilities.
    /// Deterministic-test hook: "lose the device at the 3rd program launch".
    pub fn schedule(&self, class: FaultClass, at_event: u64) {
        let stream = match class {
            FaultClass::NocTransient => &self.noc,
            FaultClass::DramRead => &self.dram,
            FaultClass::EthFlap => &self.eth,
            FaultClass::KernelStall => &self.stall,
            FaultClass::DeviceLoss => &self.loss,
        };
        stream.lock().scheduled = Some(at_event);
        self.armed.store(true, Ordering::Release);
    }

    /// Fast path: `true` when no fault class can ever fire (all
    /// probabilities zero, nothing scheduled). Callers skip rolling
    /// entirely, so a disarmed plan consumes no RNG draws.
    #[must_use]
    pub fn disarmed(&self) -> bool {
        !self.armed.load(Ordering::Acquire)
    }

    /// Roll one NoC transaction. `true` = transient error (caller charges
    /// the retransmit and rolls again; a second `true` in a row means the
    /// hardware retry budget is exhausted).
    #[must_use]
    pub fn roll_noc_transient(&self) -> bool {
        if self.disarmed() {
            return false;
        }
        let hit = self.noc.lock().roll(self.config.noc_transient_prob);
        if hit {
            self.stats.lock().noc_transients += 1;
        }
        hit
    }

    /// Record that a NoC transaction failed hard after retransmit.
    pub fn count_noc_failure(&self) {
        self.stats.lock().noc_failures += 1;
    }

    /// Roll one DRAM tile read at virtual time `now_s`.
    ///
    /// The scrub model runs here: standing correctable errors decay by
    /// `(1 − coverage)^sweeps` over the elapsed sweeps since the last roll,
    /// then the corruption roll fires as usual, with the uncorrectable
    /// escalation probability raised by `escalation_per_error` × the
    /// standing population. A corrected hit adds one standing error. RNG
    /// consumption does not depend on the scrub model or the clock (one
    /// roll, plus one severity draw when corrupted), so enabling the scrub
    /// model never perturbs the other fault streams or an unscrubbed DRAM
    /// sequence.
    #[must_use]
    pub fn roll_dram_read_at(&self, now_s: f64) -> DramReadFault {
        if self.disarmed() {
            return DramReadFault::None;
        }
        let scrub = self.config.scrub;
        let standing = {
            let mut st = self.scrub.lock();
            if scrub.enabled() && now_s > st.last_s {
                let sweeps = (now_s - st.last_s) / scrub.interval_s;
                let kept = (1.0 - scrub.coverage.clamp(0.0, 1.0)).powf(sweeps);
                let cleared = st.standing * (1.0 - kept);
                st.standing -= cleared;
                st.cleared_acc += cleared;
                let whole = st.cleared_acc.floor();
                if whole >= 1.0 {
                    st.cleared_acc -= whole;
                    self.stats.lock().dram_scrubbed += whole as u64;
                }
            }
            if now_s > st.last_s {
                st.last_s = now_s;
            }
            st.standing
        };
        let mut stream = self.dram.lock();
        if !stream.roll(self.config.dram_corruption_prob) {
            return DramReadFault::None;
        }
        // Severity from the same stream: correctable vs. not, with the
        // standing-error escalation on top.
        let escalated =
            (self.config.dram_uncorrectable_frac + scrub.escalation_per_error * standing).min(1.0);
        let uncorrectable = stream.rng.gen::<f64>() < escalated;
        drop(stream);
        if !uncorrectable {
            self.scrub.lock().standing += 1.0;
        }
        let mut stats = self.stats.lock();
        if uncorrectable {
            stats.dram_uncorrectable += 1;
            DramReadFault::Uncorrectable
        } else {
            stats.dram_corrected += 1;
            DramReadFault::Corrected
        }
    }

    /// Multiplicative DRAM read slowdown while the scrubber is enabled
    /// (`1 / (1 − bandwidth_frac)`), 1.0 otherwise.
    #[must_use]
    pub fn dram_scrub_slowdown(&self) -> f64 {
        let scrub = self.config.scrub;
        if scrub.enabled() {
            1.0 / (1.0 - scrub.bandwidth_frac.clamp(0.0, 0.9))
        } else {
            1.0
        }
    }

    /// Current standing (not-yet-scrubbed) correctable-error population.
    #[must_use]
    pub fn standing_correctable(&self) -> f64 {
        self.scrub.lock().standing
    }

    /// Roll one Ethernet transfer. `true` = link flap (caller charges a
    /// retransmit; a second `true` in a row takes the link down).
    #[must_use]
    pub fn roll_eth_flap(&self) -> bool {
        if self.disarmed() {
            return false;
        }
        let hit = self.eth.lock().roll(self.config.eth_flap_prob);
        if hit {
            self.stats.lock().eth_flaps += 1;
        }
        hit
    }

    /// Roll one kernel-instance launch. `true` = this instance stalls.
    #[must_use]
    pub fn roll_kernel_stall(&self) -> bool {
        if self.disarmed() {
            return false;
        }
        let hit = self.stall.lock().roll(self.config.kernel_stall_prob);
        if hit {
            self.stats.lock().kernel_stalls += 1;
        }
        hit
    }

    /// Roll one program launch. `true` = the device falls off the bus now.
    ///
    /// The roll itself does not touch [`FaultStats`]; the loss is counted
    /// once, by [`crate::Device::mark_lost`], whichever path triggers it.
    #[must_use]
    pub fn roll_device_loss(&self) -> bool {
        if self.disarmed() {
            return false;
        }
        self.loss.lock().roll(self.config.device_loss_prob)
    }

    /// Record a device loss. Called by [`crate::Device::mark_lost`], whether
    /// the loss came from a fired roll or was injected directly by a test.
    pub fn count_device_loss(&self) {
        self.stats.lock().device_losses += 1;
    }

    /// Lifetime event counters.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        *self.stats.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(prob: f64) -> FaultConfig {
        FaultConfig { device_loss_prob: prob, ..FaultConfig::default() }
    }

    #[test]
    fn disarmed_plan_never_fires() {
        let plan = FaultPlan::new(0, 1, FaultConfig::default());
        for _ in 0..100 {
            assert!(!plan.roll_noc_transient());
            assert_eq!(plan.roll_dram_read_at(0.0), DramReadFault::None);
            assert!(!plan.roll_eth_flap());
            assert!(!plan.roll_kernel_stall());
            assert!(!plan.roll_device_loss());
        }
        assert_eq!(plan.stats(), FaultStats::default());
    }

    #[test]
    fn streams_are_seeded_deterministic() {
        let run = |seed| {
            let plan = FaultPlan::new(2, seed, lossy(0.3));
            (0..64).map(|_| plan.roll_device_loss()).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn classes_are_independent_streams() {
        // Arming NoC faults must not change the device-loss sequence.
        let loss_only = FaultPlan::new(1, 5, lossy(0.25));
        let both = FaultPlan::new(1, 5, FaultConfig { noc_transient_prob: 0.5, ..lossy(0.25) });
        let a: Vec<bool> = (0..64)
            .map(|_| {
                let _ = loss_only.roll_noc_transient();
                loss_only.roll_device_loss()
            })
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|_| {
                let _ = both.roll_noc_transient();
                both.roll_device_loss()
            })
            .collect();
        assert_eq!(a, b, "NoC stream activity leaked into the loss stream");
    }

    #[test]
    fn scheduled_fault_fires_exactly_once_at_index() {
        let plan = FaultPlan::new(0, 0, FaultConfig::default());
        plan.schedule(FaultClass::DeviceLoss, 3);
        let seen: Vec<bool> = (0..6).map(|_| plan.roll_device_loss()).collect();
        assert_eq!(seen, vec![false, false, true, false, false, false]);
        assert_eq!(plan.stats().device_losses, 0, "counting is mark_lost's job");
    }

    #[test]
    fn dram_severity_follows_fraction() {
        let all_uncorrectable = FaultPlan::new(
            0,
            3,
            FaultConfig {
                dram_corruption_prob: 1.0,
                dram_uncorrectable_frac: 1.0,
                ..FaultConfig::default()
            },
        );
        assert_eq!(all_uncorrectable.roll_dram_read_at(0.0), DramReadFault::Uncorrectable);
        let all_corrected = FaultPlan::new(
            0,
            3,
            FaultConfig {
                dram_corruption_prob: 1.0,
                dram_uncorrectable_frac: 0.0,
                ..FaultConfig::default()
            },
        );
        assert_eq!(all_corrected.roll_dram_read_at(0.0), DramReadFault::Corrected);
        assert_eq!(all_corrected.stats().dram_corrected, 1);
    }

    #[test]
    fn stall_rate_tracks_probability() {
        let plan =
            FaultPlan::new(0, 77, FaultConfig { kernel_stall_prob: 0.2, ..FaultConfig::default() });
        let hits = (0..1000).filter(|_| plan.roll_kernel_stall()).count();
        assert!((140..=260).contains(&hits), "{hits} stalls at p=0.2");
        assert_eq!(plan.stats().kernel_stalls, hits as u64);
    }

    #[test]
    fn rolls_ignore_the_clock_without_scrub() {
        let cfg = FaultConfig {
            dram_corruption_prob: 0.3,
            dram_uncorrectable_frac: 0.2,
            ..FaultConfig::default()
        };
        let frozen = FaultPlan::new(0, 21, cfg);
        let moving = FaultPlan::new(0, 21, cfg);
        for i in 0..256 {
            let a = frozen.roll_dram_read_at(0.0);
            let b = moving.roll_dram_read_at(i as f64 * 0.01);
            assert_eq!(a, b, "event {i}: without scrub the clock must not matter");
        }
        assert_eq!(moving.dram_scrub_slowdown(), 1.0);
        assert_eq!(moving.stats().dram_scrubbed, 0);
    }

    #[test]
    fn standing_errors_escalate_without_scrub_and_decay_with_it() {
        let base = FaultConfig {
            dram_corruption_prob: 1.0,
            dram_uncorrectable_frac: 0.0,
            scrub: ScrubConfig { escalation_per_error: 0.01, ..ScrubConfig::default() },
            ..FaultConfig::default()
        };
        let uncorrectables = |cfg: FaultConfig| {
            let plan = FaultPlan::new(0, 33, cfg);
            let count = (0..400u64)
                .filter(|&i| plan.roll_dram_read_at(i as f64) == DramReadFault::Uncorrectable)
                .count() as u64;
            (count, plan.standing_correctable(), plan.stats())
        };

        // No scrub: every corrected error stands, so the escalation
        // probability climbs and uncorrectables appear over time.
        let (bare_unc, bare_standing, _) = uncorrectables(base);
        assert!(bare_unc > 0, "accumulation must escalate eventually");
        assert!(bare_standing > 10.0, "standing population grows without scrubbing");

        // Aggressive scrub: one sweep per virtual second clearing 80% keeps
        // the standing population (and thus escalation) near zero.
        let scrub_cfg = FaultConfig {
            scrub: ScrubConfig {
                interval_s: 1.0,
                escalation_per_error: 0.01,
                ..ScrubConfig::default()
            },
            ..base
        };
        let (scrub_unc, scrub_standing, scrub_stats) = uncorrectables(scrub_cfg);
        assert!(
            scrub_standing < 6.0,
            "scrub must bound the standing population, got {scrub_standing}"
        );
        assert!(scrub_stats.dram_scrubbed > 100, "sweeps clear errors over time");
        assert!(
            scrub_unc * 4 < bare_unc.max(4),
            "scrubbed card must escalate far less: {scrub_unc} vs {bare_unc}"
        );
        assert!(
            FaultPlan::new(0, 0, scrub_cfg).dram_scrub_slowdown() > 1.0,
            "scrub steals read bandwidth"
        );
    }
}
