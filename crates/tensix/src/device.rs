//! The assembled Wormhole device.
//!
//! A [`Device`] bundles the Tensix grid, per-core L1 allocators, DRAM, NoC,
//! virtual clock and power timeline. It also models the one piece of
//! real-world misbehaviour the paper documents: device resets that fail —
//! 24 of the 50 submitted accelerated runs never started because of errors
//! "occurring during the device reset phase". The failure injector is seeded
//! so campaigns are reproducible.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::clock::DeviceClock;
use crate::cost::CostModel;
use crate::dram::DramModel;
use crate::error::{Result, TensixError};
use crate::fault::{FaultConfig, FaultPlan};
use crate::grid::{CoreCoord, GridSize};
use crate::l1::{L1Allocator, L1Region};
use crate::noc::NocModel;
use crate::power::{PowerState, PowerTimeline};
use tt_trace::TraceSink;

/// Default watchdog budget for blocking device-side waits (circular buffers
/// and semaphores). Generous enough that no legitimate kernel ever trips it;
/// tests shrink it via [`DeviceConfig::watchdog`].
pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);

/// Static device configuration.
#[derive(Debug, Clone, Copy)]
pub struct DeviceConfig {
    /// Compute grid (default: the 8×8 Wormhole grid).
    pub grid: GridSize,
    /// Timing cost model.
    pub costs: CostModel,
    /// Probability that a reset fails, as observed in the paper's campaign
    /// (24/50 = 0.48). Set to 0 for deterministic tests.
    pub reset_failure_prob: f64,
    /// Seed for the failure injector and power wobble.
    pub seed: u64,
    /// Mid-run fault injection rates (NoC, DRAM ECC, Ethernet, kernel stalls,
    /// device loss). All zero by default.
    pub faults: FaultConfig,
    /// Deadlock-watchdog budget for blocking CB/semaphore waits. Waits that
    /// exceed it are torn down as structured launch failures instead of
    /// hanging the host. Default: [`DEFAULT_WATCHDOG`] (30 s).
    pub watchdog: Duration,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            grid: GridSize::WORMHOLE,
            costs: CostModel::default(),
            reset_failure_prob: 0.0,
            seed: 0,
            faults: FaultConfig::default(),
            watchdog: DEFAULT_WATCHDOG,
        }
    }
}

/// Holder for the device's optional trace sink. Wrapped so [`Device`]
/// can keep deriving `Debug` without requiring `Debug` of the sink.
#[derive(Default)]
struct TraceSlot(Mutex<Option<Arc<dyn TraceSink>>>);

impl std::fmt::Debug for TraceSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = if self.0.lock().is_some() { "on" } else { "off" };
        write!(f, "TraceSlot({state})")
    }
}

/// Reset bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResetStats {
    /// Resets attempted.
    pub attempted: u64,
    /// Resets that failed (job never starts).
    pub failed: u64,
}

/// One simulated Wormhole card.
#[derive(Debug)]
pub struct Device {
    id: usize,
    config: DeviceConfig,
    l1: Vec<Mutex<L1Allocator>>,
    dram: DramModel,
    noc: NocModel,
    clock: DeviceClock,
    power: Mutex<PowerTimeline>,
    reset_rng: Mutex<SmallRng>,
    reset_stats: Mutex<ResetStats>,
    fault_plan: FaultPlan,
    alive: AtomicBool,
    /// Per-core completion watermarks: work units (tiles) a core's writer has
    /// fully committed to DRAM in the current program. The launch supervisor
    /// resets the board per launch and reads it on abort to build the
    /// completed-range inventory a partial redo resumes from.
    progress: Vec<AtomicU64>,
    /// Optional trace sink. `None` (the default) is the zero-cost-off
    /// path: the launch supervisor fetches it once per launch and hands
    /// kernel instances `None` emitters.
    trace: TraceSlot,
}

impl Device {
    /// Bring up a device with `id` and `config`.
    #[must_use]
    pub fn new(id: usize, config: DeviceConfig) -> Arc<Self> {
        let l1 = config.grid.full_range().iter().map(|c| Mutex::new(L1Allocator::new(c))).collect();
        Arc::new(Device {
            id,
            config,
            l1,
            dram: DramModel::new(),
            noc: NocModel::new(),
            clock: DeviceClock::new(),
            power: Mutex::new(PowerTimeline::new(config.seed ^ (id as u64) << 32)),
            reset_rng: Mutex::new(SmallRng::seed_from_u64(config.seed.wrapping_add(id as u64))),
            reset_stats: Mutex::new(ResetStats::default()),
            fault_plan: FaultPlan::new(id, config.seed, config.faults),
            alive: AtomicBool::new(true),
            progress: (0..config.grid.num_cores()).map(|_| AtomicU64::new(0)).collect(),
            trace: TraceSlot::default(),
        })
    }

    /// Device id (0–3 on the paper's four-card host).
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Static configuration.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Compute grid.
    #[must_use]
    pub fn grid(&self) -> GridSize {
        self.config.grid
    }

    /// DRAM subsystem.
    #[must_use]
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    /// NoC subsystem.
    #[must_use]
    pub fn noc(&self) -> &NocModel {
        &self.noc
    }

    /// Virtual clock.
    #[must_use]
    pub fn clock(&self) -> &DeviceClock {
        &self.clock
    }

    /// Cost model shortcut.
    #[must_use]
    pub fn costs(&self) -> &CostModel {
        &self.config.costs
    }

    /// Seeded mid-run fault injector.
    #[must_use]
    pub fn faults(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Deadlock-watchdog budget for blocking device-side waits.
    #[must_use]
    pub fn watchdog(&self) -> Duration {
        self.config.watchdog
    }

    /// Attach (or with `None`, detach) a trace sink. The sink survives
    /// [`Self::reset`] so a retried or multi-launch run traces end to
    /// end. Tracing never adds virtual cycles; results and timings are
    /// identical with or without a sink.
    pub fn set_trace_sink(&self, sink: Option<Arc<dyn TraceSink>>) {
        *self.trace.0.lock() = sink;
    }

    /// The currently attached trace sink, if any. Fetched once per
    /// launch by the command queue — per-event paths never touch this
    /// lock.
    #[must_use]
    pub fn trace_sink(&self) -> Option<Arc<dyn TraceSink>> {
        self.trace.0.lock().clone()
    }

    /// Whether the card is still on the bus. Cleared by [`Self::mark_lost`]
    /// (injected device loss); restored by a successful [`Self::reset`].
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Record that the card fell off the bus. Subsequent operations fail
    /// with [`TensixError::DeviceLost`] until the device is reset.
    pub fn mark_lost(&self) {
        self.alive.store(false, Ordering::Release);
        self.fault_plan.count_device_loss();
    }

    /// Fail fast if the card has fallen off the bus.
    ///
    /// # Errors
    /// [`TensixError::DeviceLost`] when [`Self::mark_lost`] was called and no
    /// successful reset has happened since.
    pub fn ensure_alive(&self) -> Result<()> {
        if self.is_alive() {
            Ok(())
        } else {
            Err(TensixError::DeviceLost { device_id: self.id })
        }
    }

    /// Allocate `len` bytes in `core`'s L1.
    ///
    /// # Errors
    /// Propagates [`TensixError::L1OutOfMemory`].
    ///
    /// # Panics
    /// Panics if `core` is off-grid.
    pub fn alloc_l1(&self, core: CoreCoord, len: usize) -> Result<L1Region> {
        let idx = self.config.grid.index_of(core);
        self.l1[idx].lock().alloc(len)
    }

    /// Free all L1 allocations on every core (program teardown).
    pub fn free_all_l1(&self) {
        for alloc in &self.l1 {
            alloc.lock().free_all();
        }
    }

    /// L1 bytes in use on `core`.
    ///
    /// # Panics
    /// Panics if `core` is off-grid.
    #[must_use]
    pub fn l1_used(&self, core: CoreCoord) -> usize {
        self.l1[self.config.grid.index_of(core)].lock().used()
    }

    /// Override the card's wattage parameters (campaigns tune the burst
    /// duty cycle from the perf model).
    pub fn set_power_params(&self, params: crate::power::PowerParams) {
        self.power.lock().set_params(params);
    }

    /// Append a power-state segment of `duration` virtual seconds and advance
    /// the device clock by the same amount.
    pub fn record_power(&self, state: PowerState, duration: f64) {
        self.power.lock().push(state, duration);
        self.clock.advance(duration);
    }

    /// Instantaneous power at virtual time `t`.
    #[must_use]
    pub fn power_at(&self, t: f64) -> f64 {
        self.power.lock().power_at(t)
    }

    /// Mean energy of the recorded power history between `t0` and `t1`.
    #[must_use]
    pub fn mean_energy(&self, t0: f64, t1: f64) -> f64 {
        self.power.lock().mean_energy(t0, t1)
    }

    /// Reset the device: clears DRAM, L1, stats, clock and power history —
    /// including the paper's slight post-run idle elevation, which "resolves
    /// upon resetting the cards".
    ///
    /// # Errors
    /// With probability `reset_failure_prob`, the reset fails and the job
    /// must be abandoned ([`TensixError::ResetFailed`]).
    pub fn reset(&self) -> Result<()> {
        let mut stats = self.reset_stats.lock();
        stats.attempted += 1;
        let failed = {
            let mut rng = self.reset_rng.lock();
            rng.gen::<f64>() < self.config.reset_failure_prob
        };
        if failed {
            stats.failed += 1;
            return Err(TensixError::ResetFailed { device_id: self.id });
        }
        drop(stats);
        self.dram.clear();
        self.noc.reset_stats();
        self.free_all_l1();
        self.clock.reset();
        self.power.lock().reset();
        self.reset_progress();
        self.alive.store(true, Ordering::Release);
        Ok(())
    }

    /// Reset bookkeeping.
    #[must_use]
    pub fn reset_stats(&self) -> ResetStats {
        *self.reset_stats.lock()
    }

    /// Zero every core's completion watermark. The launch supervisor calls
    /// this at the start of each program launch, so watermarks are always
    /// attempt-local.
    pub fn reset_progress(&self) {
        for w in &self.progress {
            w.store(0, Ordering::Release);
        }
    }

    /// Bump `core`'s completion watermark by one finished work unit (a tile
    /// whose outputs are fully committed to DRAM).
    ///
    /// # Panics
    /// Panics if `core` is off-grid.
    pub fn record_progress(&self, core: CoreCoord) {
        self.progress[self.config.grid.index_of(core)].fetch_add(1, Ordering::AcqRel);
    }

    /// Work units `core` has completed since the last
    /// [`Self::reset_progress`].
    ///
    /// # Panics
    /// Panics if `core` is off-grid.
    #[must_use]
    pub fn progress_of(&self, core: CoreCoord) -> u64 {
        self.progress[self.config.grid.index_of(core)].load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DataFormat;
    use crate::tile::Tile;

    #[test]
    fn device_assembles_64_cores() {
        let dev = Device::new(0, DeviceConfig::default());
        assert_eq!(dev.grid().num_cores(), 64);
        assert_eq!(dev.id(), 0);
    }

    #[test]
    fn l1_is_per_core() {
        let dev = Device::new(0, DeviceConfig::default());
        let a = CoreCoord::new(0, 0);
        let b = CoreCoord::new(1, 0);
        dev.alloc_l1(a, 1000).unwrap();
        assert_eq!(dev.l1_used(a), 1000);
        assert_eq!(dev.l1_used(b), 0);
        dev.free_all_l1();
        assert_eq!(dev.l1_used(a), 0);
    }

    #[test]
    fn reset_clears_state() {
        let dev = Device::new(0, DeviceConfig::default());
        let id = dev.dram().allocate(DataFormat::Float32, 2).unwrap();
        dev.dram().write_tile(id, 0, &Tile::splat(DataFormat::Float32, 1.0)).unwrap();
        dev.record_power(PowerState::ComputeActive, 10.0);
        assert!(dev.clock().now() > 0.0);
        dev.reset().unwrap();
        assert_eq!(dev.clock().now(), 0.0);
        assert!(dev.dram().read_tile(id, 0).is_err());
        assert_eq!(dev.reset_stats().attempted, 1);
        assert_eq!(dev.reset_stats().failed, 0);
    }

    #[test]
    fn reset_failure_rate_matches_configuration() {
        let dev = Device::new(
            0,
            DeviceConfig { reset_failure_prob: 0.48, seed: 1234, ..DeviceConfig::default() },
        );
        let mut failures = 0;
        for _ in 0..1000 {
            if dev.reset().is_err() {
                failures += 1;
            }
        }
        let stats = dev.reset_stats();
        assert_eq!(stats.attempted, 1000);
        assert_eq!(stats.failed, failures);
        // 48% ± 5% over 1000 trials.
        assert!((430..=530).contains(&failures), "{failures} failures");
    }

    #[test]
    fn reset_failures_are_seeded_deterministic() {
        let mk = |seed| {
            let dev = Device::new(
                0,
                DeviceConfig { reset_failure_prob: 0.48, seed, ..DeviceConfig::default() },
            );
            (0..50).map(|_| dev.reset().is_err()).collect::<Vec<_>>()
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn lost_device_errors_until_reset() {
        let dev = Device::new(3, DeviceConfig::default());
        assert!(dev.is_alive());
        assert_eq!(dev.ensure_alive(), Ok(()));
        dev.mark_lost();
        assert!(!dev.is_alive());
        assert_eq!(dev.ensure_alive(), Err(TensixError::DeviceLost { device_id: 3 }));
        assert_eq!(dev.faults().stats().device_losses, 1);
        dev.reset().unwrap();
        assert!(dev.is_alive());
    }

    #[test]
    fn power_recording_advances_clock() {
        let dev = Device::new(2, DeviceConfig::default());
        dev.record_power(PowerState::Idle, 120.0);
        dev.record_power(PowerState::ComputeActive, 300.0);
        assert!((dev.clock().now() - 420.0).abs() < 1e-9);
        assert!(dev.power_at(60.0) < 12.0);
        assert!(dev.power_at(200.0) > 25.0);
        let e = dev.mean_energy(120.0, 420.0);
        assert!(e > 26.0 * 300.0 && e < 33.0 * 300.0);
    }
}
