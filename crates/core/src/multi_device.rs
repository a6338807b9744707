//! Multi-device force evaluation — the functional companion to the E6
//! scaling model.
//!
//! The paper's §5 roadmap: "extend our benchmarks to MPI with multiple
//! accelerators". This module distributes the Fig.-2 outer loop across
//! several simulated Wormhole cards: each device receives the full source
//! view (every card needs all particles, as in the single-card port) but
//! owns a contiguous slice of the target work units (1024-particle tiles,
//! or 32-particle blocks on the matrix kernel), and launches only those:
//! its runtime args cover its own units, so a card computes nothing it
//! does not keep. A card sizes its share's launch by the pipeline's own
//! unit rule ([`crate::pipeline::LaunchSizing`]), so a small share may run
//! as half tiles across the card's cores. After the per-card programs complete, the partial
//! results are exchanged in a ring all-gather over the 200 Gb/s Ethernet
//! links, exactly the work split and communication pattern the E6 model
//! charges for.
//!
//! Functional behaviour: results are bit-identical to the single-device
//! pipeline (same arithmetic, same order per target tile). Virtual timing:
//! the slowest card's program bounds the compute, plus the all-gather.
//! Full-N evaluation is the all-particles active set, so full and
//! block-step launches take the same path; a card whose share is empty
//! (N ≤ unit · (cards − 1) leaves the last cards without a unit) makes no
//! launch.
//!
//! The ring implements [`ForceEvaluator`], so the resilient Hermite driver
//! (`run_simulation_resilient`) treats it exactly like a single card:
//! transient faults retry in place through the shared retry driver, a lost
//! card fails over to a spare inside the evaluation, and once spares run
//! out the driver's checkpoint-restore path takes over via
//! [`ForceEvaluator::recover_device_loss`], which hands each dead member
//! to its own pipeline's reset and rebuild.

use std::sync::Arc;

use parking_lot::Mutex;

use nbody::particle::{Forces, ParticleSystem};
use tensix::ethernet::{EthLink, EthRing};
use tensix::{Device, Result, TensixError};
use ttmetal::{LaunchError, ProgramReport};

use crate::evaluator::{ActiveSet, ForceEvaluator};
use crate::layout::split_tiles_to_cores;
use crate::pipeline::{DeviceForcePipeline, ForceKernelKind, PipelineTiming, RetryPolicy};

/// Timing of a multi-device evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MultiDeviceTiming {
    /// Slowest per-card device seconds across all evaluations (the ring's
    /// critical path; cards run concurrently).
    pub device_seconds: f64,
    /// Ring all-gather seconds across all evaluations, including link-flap
    /// retransmits.
    pub comm_seconds: f64,
    /// Evaluations run.
    pub evaluations: u64,
    /// Cards replaced by a spare after a device loss or a dead link.
    pub failovers: u64,
    /// Aggregated per-device [`PipelineTiming`] — live cards (each carrying
    /// its own incarnations lost before a recovery) plus the accounting of
    /// cards retired by spare failover — so the three-bucket
    /// busy/redo/wasted split (and with it `retry_overhead_ratio`) stays
    /// meaningful for multi-card runs. Its
    /// `device_seconds` is total card occupancy (the *sum* over cards),
    /// unlike the critical-path `device_seconds` above.
    pub pipeline: PipelineTiming,
}

/// The mutable ring state: one pipeline per slot (each knows its card),
/// the spare pool, and the timing carried from cards replaced by a spare.
struct RingSlots {
    pipelines: Vec<DeviceForcePipeline>,
    spares: Vec<Arc<Device>>,
    /// Accounting absorbed from pipelines retired by spare failover
    /// (including the wasted cycles of their fatal attempts).
    carried: PipelineTiming,
}

/// A force pipeline spanning several devices.
pub struct MultiDevicePipeline {
    /// One single-card pipeline per device. Every card holds the full
    /// particle set as sources and launches only its share of the target
    /// tiles (gathered into its leading target pages, runtime args sized to
    /// the share), so the arithmetic per owned row is the single card's
    /// and results match bit for bit.
    slots: Mutex<RingSlots>,
    ring: EthRing,
    n: usize,
    eps: f64,
    cores_per_device: usize,
    kind: ForceKernelKind,
    timing: Mutex<MultiDeviceTiming>,
}

impl MultiDevicePipeline {
    /// Build over `devices`, splitting target tiles evenly; each card uses
    /// `cores_per_device` Tensix cores.
    ///
    /// # Errors
    /// DRAM exhaustion on any card.
    ///
    /// # Panics
    /// Panics on an empty device list or invalid `n`/`eps`/core counts
    /// (same contract as the single-card pipeline).
    pub fn new(
        devices: &[Arc<Device>],
        n: usize,
        eps: f64,
        cores_per_device: usize,
    ) -> Result<Self> {
        Self::with_spares(devices, &[], n, eps, cores_per_device)
    }

    /// Like [`Self::new`], but with `spares`: idle cards that an evaluation
    /// promotes into a slot whose card fell off the bus or whose ERISC link
    /// went down.
    ///
    /// # Errors
    /// DRAM exhaustion on any active card (spares allocate nothing until
    /// promoted).
    ///
    /// # Panics
    /// Same contract as [`Self::new`].
    pub fn with_spares(
        devices: &[Arc<Device>],
        spares: &[Arc<Device>],
        n: usize,
        eps: f64,
        cores_per_device: usize,
    ) -> Result<Self> {
        Self::with_spares_kernel(
            devices,
            spares,
            n,
            eps,
            cores_per_device,
            ForceKernelKind::default(),
        )
    }

    /// Like [`Self::with_spares`], with an explicit per-card force kernel.
    /// Failover builds the spare's pipeline with the same kind, and
    /// recovery rebuilds a member in place with its own, so a matrix-pipe
    /// ring stays matrix-pipe across card losses.
    ///
    /// # Errors
    /// DRAM exhaustion on any active card.
    ///
    /// # Panics
    /// Same contract as [`Self::new`].
    pub fn with_spares_kernel(
        devices: &[Arc<Device>],
        spares: &[Arc<Device>],
        n: usize,
        eps: f64,
        cores_per_device: usize,
        kind: ForceKernelKind,
    ) -> Result<Self> {
        assert!(!devices.is_empty(), "need at least one device");
        let pipelines = devices
            .iter()
            .map(|device| {
                DeviceForcePipeline::new_with_kernel(
                    Arc::clone(device),
                    n,
                    eps,
                    cores_per_device,
                    kind,
                )
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(MultiDevicePipeline {
            slots: Mutex::new(RingSlots {
                pipelines,
                spares: spares.to_vec(),
                carried: PipelineTiming::default(),
            }),
            ring: EthRing::homogeneous(devices.len(), EthLink::default()),
            n,
            eps,
            cores_per_device,
            kind,
            timing: Mutex::new(MultiDeviceTiming::default()),
        })
    }

    /// Number of devices.
    #[must_use]
    pub fn num_devices(&self) -> usize {
        self.slots.lock().pipelines.len()
    }

    /// Spare cards not yet promoted.
    #[must_use]
    pub fn spares_remaining(&self) -> usize {
        self.slots.lock().spares.len()
    }

    /// Accumulated timing, with [`MultiDeviceTiming::pipeline`] aggregated
    /// from the live cards and everything carried from retired ones.
    #[must_use]
    pub fn timing(&self) -> MultiDeviceTiming {
        let slots = self.slots.lock();
        let mut t = *self.timing.lock();
        t.pipeline = slots.carried;
        for p in &slots.pipelines {
            t.pipeline.absorb(p.timing());
        }
        t
    }

    /// Per-slot [`PipelineTiming`] of the *current* cards, recovered
    /// incarnations included (a card promoted from the spare pool reports
    /// only its own work; the accounting of cards it replaced lives in
    /// [`MultiDeviceTiming::pipeline`]).
    #[must_use]
    pub fn per_device_timing(&self) -> Vec<PipelineTiming> {
        self.slots.lock().pipelines.iter().map(DeviceForcePipeline::timing).collect()
    }

    /// The one ring launch: forces on the `active` targets against all `n`
    /// sources, full-N being [`ActiveSet::full`]. The active set is split
    /// across cards in whole work units of the card pipeline (1024-particle
    /// tiles, 32-particle matrix blocks; front-loaded, like the per-core
    /// split), so for a full set each card's share is exactly its owned
    /// unit range. Each non-empty share runs through the card pipeline's
    /// one launch driver under `policy` — gathered target units, a launch
    /// grid sized to the share — and a card with an empty share makes no
    /// launch. Row `k` of the result is the force on `active.indices()[k]`,
    /// bitwise identical to a single card's (per-target source order is
    /// unchanged).
    ///
    /// The gather leaves over each card's ERISC link: one flap costs a
    /// retransmit of the share, a second flap takes the link — and with it
    /// the card — down. A card that falls off the bus or loses its link is
    /// replaced by a spare and its share recomputed. The all-gather is
    /// charged by the largest share.
    fn ring_launch(
        &self,
        system: &ParticleSystem,
        active: &ActiveSet,
        policy: RetryPolicy,
    ) -> std::result::Result<Forces, LaunchError> {
        assert_eq!(system.len(), self.n, "pipeline built for n = {}", self.n);
        if active.is_empty() {
            return Ok(Forces::zeros(0));
        }
        let mut slots = self.slots.lock();
        let unit = self.kind.work_unit_particles();
        let shares: Vec<(usize, usize)> =
            split_tiles_to_cores(self.kind.work_units(active.len()), slots.pipelines.len())
                .into_iter()
                .map(|(first, units)| {
                    let start = (first * unit).min(active.len());
                    (start, (units * unit).min(active.len() - start))
                })
                .collect();
        let mut gathered = Forces::zeros(active.len());
        let mut slowest = 0.0f64;
        let mut flap_comm = 0.0f64;
        let mut failovers = 0u64;
        for (idx, &(start, count)) in shares.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let share =
                ActiveSet::from_indices(active.indices()[start..start + count].to_vec(), self.n);
            loop {
                let pipeline = &slots.pipelines[idx];
                let before = pipeline.timing().device_seconds;
                let attempt = pipeline.launch(system, &share, policy).and_then(|part| {
                    let plan = pipeline.device().faults();
                    if !plan.disarmed() && plan.roll_eth_flap() {
                        flap_comm += EthLink::default().transfer_seconds((count * 6 * 4) as u64);
                        if plan.roll_eth_flap() {
                            return Err(LaunchError::Device(TensixError::EthLinkDown {
                                link: idx,
                            }));
                        }
                    }
                    Ok(part)
                });
                match attempt {
                    Ok(part) => {
                        slowest =
                            slowest.max(slots.pipelines[idx].timing().device_seconds - before);
                        gathered.acc[start..start + count].copy_from_slice(&part.acc);
                        gathered.jerk[start..start + count].copy_from_slice(&part.jerk);
                        break;
                    }
                    Err(err) if err.is_card_loss() => {
                        let Some(spare) = slots.spares.pop() else {
                            return Err(err);
                        };
                        let fresh = DeviceForcePipeline::new_with_kernel(
                            spare,
                            self.n,
                            self.eps,
                            self.cores_per_device,
                            self.kind,
                        )?;
                        let old = std::mem::replace(&mut slots.pipelines[idx], fresh);
                        slots.carried.absorb(old.timing());
                        failovers += 1;
                    }
                    Err(err) => return Err(err),
                }
            }
        }
        let bytes_per_device = (shares.iter().map(|(_, c)| c).max().unwrap_or(&0) * 6 * 4) as u64;
        let comm = self.ring.allgather_seconds(bytes_per_device) + flap_comm;
        {
            let mut t = self.timing.lock();
            t.device_seconds += slowest;
            t.comm_seconds += comm;
            t.evaluations += 1;
            t.failovers += failovers;
        }
        Ok(gathered)
    }
}

impl ForceEvaluator for MultiDevicePipeline {
    fn backend(&self) -> &'static str {
        "tenstorrent-wormhole-ring"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn softening(&self) -> f64 {
        self.eps
    }

    fn evaluate_with_retry(
        &self,
        system: &ParticleSystem,
        policy: RetryPolicy,
    ) -> std::result::Result<Forces, LaunchError> {
        self.ring_launch(system, &ActiveSet::full(self.n), policy)
    }

    fn evaluate_active(
        &self,
        system: &ParticleSystem,
        active: &ActiveSet,
    ) -> std::result::Result<Forces, LaunchError> {
        // No transient retries here (the caller's policy arrives through
        // `evaluate_active_with_retry`); flaps and spare failover are still
        // absorbed.
        self.ring_launch(system, active, RetryPolicy::disabled())
    }

    fn evaluate_active_with_retry(
        &self,
        system: &ParticleSystem,
        active: &ActiveSet,
        policy: RetryPolicy,
    ) -> std::result::Result<Forces, LaunchError> {
        self.ring_launch(system, active, policy)
    }

    fn timing(&self) -> Option<PipelineTiming> {
        Some(MultiDevicePipeline::timing(self).pipeline)
    }

    /// Report of the landing attempt of the last ring member (in ring
    /// order) that has launched.
    fn last_launch_report(&self) -> Option<ProgramReport> {
        self.slots.lock().pipelines.iter().rev().find_map(DeviceForcePipeline::last_launch_report)
    }

    /// Hand every dead member to its own pipeline's recovery, which resets
    /// the card and rebuilds it in place with the lost accounting carried.
    /// Used by the resilient driver once the spare pool is exhausted; a
    /// dead-link failure leaves all cards alive and needs no rebuild (links
    /// are stateless per evaluation).
    fn recover_device_loss(&self, cause: LaunchError) -> std::result::Result<(), LaunchError> {
        if !cause.is_card_loss() {
            return Err(cause);
        }
        let slots = self.slots.lock();
        for pipeline in slots.pipelines.iter().filter(|p| !p.device().is_alive()) {
            pipeline.recover_device_loss(cause.clone())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody::ic::{plummer, PlummerConfig};
    use tensix::DeviceConfig;
    use ttmetal::open_cluster;

    fn cluster(k: usize) -> Vec<Arc<Device>> {
        open_cluster(k, DeviceConfig::default()).unwrap()
    }

    #[test]
    fn two_devices_match_single_device_bitwise() {
        let n = 2048 + 100;
        let sys = plummer(PlummerConfig { n, seed: 400, ..PlummerConfig::default() });
        let eps = 0.01;

        let single = DeviceForcePipeline::new(cluster(1).pop().unwrap(), n, eps, 1).unwrap();
        let single_forces = single.evaluate_checked(&sys).unwrap();

        let devices = cluster(2);
        let multi = MultiDevicePipeline::new(&devices, n, eps, 1).unwrap();
        assert_eq!(multi.num_devices(), 2);
        let multi_forces = multi.evaluate_checked(&sys).unwrap();

        assert_eq!(single_forces.acc, multi_forces.acc);
        assert_eq!(single_forces.jerk, multi_forces.jerk);
        let t = multi.timing();
        assert!(t.device_seconds > 0.0);
        assert!(t.comm_seconds > 0.0, "the all-gather must be charged");
        assert_eq!(t.evaluations, 1);
        // The aggregate carries the per-card three-bucket split: two cards,
        // one clean evaluation each.
        assert_eq!(t.pipeline.evaluations, 2);
        assert!(t.pipeline.busy_cycles > 0);
        assert_eq!(t.pipeline.wasted_cycles, 0);
        assert!(t.pipeline.device_seconds >= t.device_seconds, "sum bounds the critical path");
    }

    #[test]
    fn matrix_kernel_ring_matches_single_card_bitwise() {
        // The kernel kind must thread through the ring unchanged: a 2-card
        // matrix-pipe ring reproduces the single-card matrix pipeline bit
        // for bit (same arithmetic per owned slice, same gather order).
        let n = 1100;
        let sys = plummer(PlummerConfig { n, seed: 402, ..PlummerConfig::default() });
        let eps = 0.02;
        let single = DeviceForcePipeline::new_with_kernel(
            cluster(1).pop().unwrap(),
            n,
            eps,
            1,
            ForceKernelKind::Matrix,
        )
        .unwrap();
        let single_forces = single.evaluate_checked(&sys).unwrap();
        let devices = cluster(2);
        let multi = MultiDevicePipeline::with_spares_kernel(
            &devices,
            &[],
            n,
            eps,
            1,
            ForceKernelKind::Matrix,
        )
        .unwrap();
        let multi_forces = multi.evaluate_checked(&sys).unwrap();
        assert_eq!(single_forces.acc, multi_forces.acc);
        assert_eq!(single_forces.jerk, multi_forces.jerk);
    }

    #[test]
    fn four_devices_cover_all_particles() {
        let n = 1500;
        let sys = plummer(PlummerConfig { n, seed: 401, ..PlummerConfig::default() });
        let devices = cluster(4);
        let multi = MultiDevicePipeline::new(&devices, n, 0.02, 1).unwrap();
        let f = multi.evaluate_checked(&sys).unwrap();
        // No particle left at the zero placeholder: every slice was gathered.
        let zero_count = f.acc.iter().filter(|a| a[0] == 0.0 && a[1] == 0.0 && a[2] == 0.0).count();
        assert_eq!(zero_count, 0, "{zero_count} particles missing forces");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_cluster_rejected() {
        let _ = MultiDevicePipeline::new(&[], 64, 0.01, 1);
    }

    #[test]
    fn lost_card_fails_over_to_spare_bitwise() {
        use tensix::fault::FaultClass;

        // Two tiles, so card 1 owns the 76-particle tail tile and launches.
        let n = 1100;
        let sys = plummer(PlummerConfig { n, seed: 402, ..PlummerConfig::default() });
        let eps = 0.01;

        let clean_devices = cluster(2);
        let clean = MultiDevicePipeline::new(&clean_devices, n, eps, 1).unwrap();
        let clean_forces = clean.evaluate_checked(&sys).unwrap();
        assert_eq!(clean.timing().failovers, 0);

        // Card 1 dies on its first launch; the spare takes its slice over.
        let devices = cluster(2);
        devices[1].faults().schedule(FaultClass::DeviceLoss, 1);
        let spare = Device::new(9, DeviceConfig::default());
        let multi = MultiDevicePipeline::with_spares(&devices, &[spare], n, eps, 1).unwrap();
        assert_eq!(multi.spares_remaining(), 1);
        let forces = multi.evaluate_checked(&sys).unwrap();
        let t = multi.timing();
        assert_eq!(t.failovers, 1);
        assert_eq!(multi.spares_remaining(), 0);
        assert!(!devices[1].is_alive(), "the dead card stays dead");
        // The retired card's accounting is carried into the aggregate — the
        // per-card split the ring used to lose: one evaluation from the
        // surviving card, one from the promoted spare (the dead card landed
        // nothing before falling off the bus).
        assert_eq!(t.pipeline.evaluations, 2);
        assert!(t.pipeline.busy_cycles > 0);

        assert_eq!(forces.acc, clean_forces.acc, "failover must be invisible to physics");
        assert_eq!(forces.jerk, clean_forces.jerk);

        // The spare is consumed: a second loss has nothing to promote.
        devices[0].faults().schedule(FaultClass::DeviceLoss, 1);
        let err = multi.evaluate_checked(&sys).unwrap_err();
        assert!(matches!(err, LaunchError::DeviceLost { .. }), "{err:?}");
    }

    #[test]
    fn single_link_flap_costs_a_retransmit() {
        use tensix::fault::FaultClass;

        let n = 512;
        let sys = plummer(PlummerConfig { n, seed: 403, ..PlummerConfig::default() });

        let clean_devices = cluster(2);
        let clean = MultiDevicePipeline::new(&clean_devices, n, 0.01, 1).unwrap();
        let _ = clean.evaluate_checked(&sys).unwrap();

        let devices = cluster(2);
        devices[0].faults().schedule(FaultClass::EthFlap, 1);
        let multi = MultiDevicePipeline::new(&devices, n, 0.01, 1).unwrap();
        let forces = multi.evaluate_checked(&sys).unwrap();

        let t = multi.timing();
        assert_eq!(t.failovers, 0, "one flap only retransmits");
        assert!(
            t.comm_seconds > clean.timing().comm_seconds,
            "the retransmit must be charged: {} vs {}",
            t.comm_seconds,
            clean.timing().comm_seconds
        );
        assert_eq!(devices[0].faults().stats().eth_flaps, 1);

        // Physics unaffected.
        let clean_again = clean.evaluate_checked(&sys).unwrap();
        assert_eq!(forces.acc, clean_again.acc);
    }

    #[test]
    fn double_link_flap_downs_the_link_and_fails_over() {
        use tensix::fault::FaultConfig;

        // Two tiles, so card 1 owns one and gathers it over its link.
        let n = 1100;
        let sys = plummer(PlummerConfig { n, seed: 404, ..PlummerConfig::default() });

        // Both flap rolls hit: schedule the first, make the stream certain
        // for the second.
        let config = DeviceConfig {
            faults: FaultConfig { eth_flap_prob: 1.0, ..FaultConfig::default() },
            ..DeviceConfig::default()
        };
        let devices = vec![Device::new(0, DeviceConfig::default()), Device::new(1, config)];
        let spare = Device::new(9, DeviceConfig::default());
        let multi = MultiDevicePipeline::with_spares(&devices, &[spare], n, 0.01, 1).unwrap();
        let _ = devices; // rolls happen through multi's clones
        let forces = multi.evaluate_checked(&sys).unwrap();
        assert_eq!(multi.timing().failovers, 1, "dead link forces a spare promotion");

        let clean_devices = cluster(2);
        let clean = MultiDevicePipeline::new(&clean_devices, n, 0.01, 1).unwrap();
        let clean_forces = clean.evaluate_checked(&sys).unwrap();
        assert_eq!(forces.acc, clean_forces.acc);
    }

    #[test]
    fn transient_fault_on_a_ring_member_retries_in_place() {
        use tensix::fault::{FaultClass, FaultConfig};

        let n = 2048 + 100;
        let sys = plummer(PlummerConfig { n, seed: 405, ..PlummerConfig::default() });

        let clean_devices = cluster(2);
        let clean = MultiDevicePipeline::new(&clean_devices, n, 0.01, 2).unwrap();
        let clean_forces = clean.evaluate_checked(&sys).unwrap();

        // An uncorrectable DRAM read on card 0's 5th page: transient, so the
        // pipeline's retry driver recovers it inside the ring evaluation.
        // Card 0 spreads its two tiles over two cores, so the survivor's
        // tile is kept and only the faulted core's slice re-launches.
        let faulty = Device::new(
            0,
            DeviceConfig {
                faults: FaultConfig { dram_uncorrectable_frac: 1.0, ..FaultConfig::default() },
                seed: 7,
                ..DeviceConfig::default()
            },
        );
        faulty.faults().schedule(FaultClass::DramRead, 5);
        let devices = vec![faulty, Device::new(1, DeviceConfig::default())];
        let multi = MultiDevicePipeline::new(&devices, n, 0.01, 2).unwrap();
        let forces = multi.evaluate_with_retry(&sys, RetryPolicy::default()).unwrap();

        assert_eq!(forces.acc, clean_forces.acc, "in-place retry must be bit-identical");
        let t = multi.timing();
        assert_eq!(t.failovers, 0, "transient faults never consume a spare");
        assert_eq!(t.pipeline.retries, 1, "the retry driver retried once");
        assert_eq!(t.pipeline.partial_redos, 1, "ring shares keep partial-redo salvage");
        assert_eq!(t.pipeline.evaluations, 2, "failed attempt not counted");
    }

    #[test]
    fn ring_cards_launch_only_their_own_target_tiles() {
        // Each card launches its share of the target tiles, so a 2-card ring
        // halves one card's critical path while staying bitwise equal to it.
        let n = 2048;
        let sys = plummer(PlummerConfig { n, seed: 406, ..PlummerConfig::default() });
        let single = DeviceForcePipeline::new(cluster(1).pop().unwrap(), n, 0.01, 1).unwrap();
        let single_forces = single.evaluate_checked(&sys).unwrap();
        let ring = MultiDevicePipeline::new(&cluster(2), n, 0.01, 1).unwrap();
        let ring_forces = ring.evaluate_checked(&sys).unwrap();
        assert_eq!(ring_forces.acc, single_forces.acc);
        assert_eq!(ring_forces.jerk, single_forces.jerk);
        let (ring_s, single_s) = (ring.timing().device_seconds, single.timing().device_seconds);
        assert!(ring_s <= 0.55 * single_s, "critical path {ring_s} vs one card's {single_s}");

        // One tile: card 0 owns it all, card 1 makes no launch.
        let n = 1024;
        let sys = plummer(PlummerConfig { n, seed: 407, ..PlummerConfig::default() });
        let ring = MultiDevicePipeline::new(&cluster(2), n, 0.01, 1).unwrap();
        ring.evaluate_checked(&sys).unwrap();
        let per_device = ring.per_device_timing();
        assert_eq!((per_device[0].evaluations, per_device[1].evaluations), (1, 0));
    }

    #[test]
    fn matrix_ring_cards_launch_only_their_own_target_blocks() {
        // The matrix twin: each card launches its share of the 32-particle
        // target blocks, gathered with their own damping plan, so a 2-card
        // ring halves one card's critical path, bitwise equal to it.
        let n = 2048;
        let sys = plummer(PlummerConfig { n, seed: 406, ..PlummerConfig::default() });
        let matrix = |devices: &[Arc<Device>]| {
            MultiDevicePipeline::with_spares_kernel(
                devices,
                &[],
                n,
                0.01,
                1,
                ForceKernelKind::Matrix,
            )
            .unwrap()
        };
        let single = matrix(&cluster(1));
        let single_forces = single.evaluate_checked(&sys).unwrap();
        let ring = matrix(&cluster(2));
        let ring_forces = ring.evaluate_checked(&sys).unwrap();
        assert_eq!(ring_forces.acc, single_forces.acc);
        assert_eq!(ring_forces.jerk, single_forces.jerk);
        let (ring_s, single_s) = (ring.timing().device_seconds, single.timing().device_seconds);
        assert!(ring_s <= 0.55 * single_s, "critical path {ring_s} vs one card's {single_s}");
    }
}
