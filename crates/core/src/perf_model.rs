//! Calibrated performance and power model for paper-scale runs.
//!
//! The functional simulator executes the real pipeline for N up to a few
//! thousand; the paper's representative configuration (N = 102 400, ten time
//! cycles, ≈5–11 minutes of wall time per run) is evaluated analytically
//! from the same cost tables. One constant is *measured* from the functional
//! pipeline and two are *calibrated* against the paper's reported endpoints;
//! every derivation is spelled out below and re-checked by the unit tests.
//!
//! **Measured** — [`DEVICE_CYCLES_PER_PAIR`] = 2.727: compute-kernel cycles
//! per pair interaction, read off the cycle counters of a functional run
//! of the replicated-layout kernel (N = 1024, one core). The packed-view
//! kernel that replaced it measures 2.700 on the same run
//! (`crates/core/examples/calib.rs`); the paper model keeps 2.727. The slowest
//! core of the paper configuration owns ⌈100/64⌉ = 2 target tiles →
//! 2·1024·102 400 pairs → 0.572 s of device time per force evaluation at
//! 1 GHz.
//!
//! **Layouts.** [`RunModel::accel_seconds`] prices the paper's replicated
//! source layout, 7 N broadcast tiles per evaluation through host staging
//! and PCIe; that layout exists only here. The functional pipeline runs
//! the packed source view (7 ⌈N/1024⌉ tiles), which
//! [`RunModel::accel_seconds_optimized`] prices with the same compute term.
//!
//! **Calibrated** — [`STEPS_PER_CYCLE`] = 36: the paper does not state how
//! many Hermite steps one "time cycle" contains. With the device-eval,
//! PCIe and host-staging terms below, 10 × 36 = 360 evaluations put the
//! accelerated time-to-solution at ≈304 s against the paper's
//! 301.40 ± 0.24 s.
//!
//! **Calibrated** — [`CPU_EFF_CYCLES_PER_PAIR`] = 21.1: effective per-core
//! cycles per pair of the AVX-512 + OpenMP reference on the dual EPYC 9124
//! (32 threads at 3.71 GHz), including memory and scheduling effects,
//! chosen so 360 evaluations take ≈673 s against the paper's
//! 672.90 ± 7.83 s. (The ideal-flop bound would be ≈3.5 cycles/pair; the
//! gap is the usual distance between peak and sustained on a bandwidth- and
//! latency-affected O(N²) sweep.)
//!
//! **Power calibration.** The paper's own numbers pin the wattages: the
//! CPU-only run averages 128.89 kJ / 672.9 s ≈ 191.5 W (two packages +
//! four idle cards at 10.5 W ⇒ ≈74.8 W per loaded package); the
//! accelerated run averages 71.56 kJ / 301.4 s ≈ 237.4 W, of which the
//! cards account for ≈85 W (Fig. 4), leaving ≈152.6 W for the host —
//! *more* than under the 32-thread load, because tilizing and streaming
//! ≈2.9 GB per step over PCIe keeps the memory subsystem busy; that term is
//! `staging_power_w`.

use tensix::catalog::DeviceArch;
use tensix::cost::CostModel;
use tensix::ethernet::{EthLink, EthRing};
use tensix::power::{PowerParams, PowerState};
use tensix::TILE_ELEMS;
use ttmetal::PCIE_BYTES_PER_S;

/// Paper particle count.
pub const PAPER_N: usize = 102_400;
/// Paper "time cycles".
pub const PAPER_CYCLES: usize = 10;
/// Calibrated Hermite steps per time cycle (see module docs).
pub const STEPS_PER_CYCLE: usize = 36;
/// Measured compute cycles per pair interaction per Tensix core
/// (element-wise SFPU kernel; the matrix-pipe kernel is measured per run
/// by `bench_gate` and must land strictly below this).
pub const DEVICE_CYCLES_PER_PAIR: f64 = 2.727;
/// Calibrated effective CPU cycles per pair per core (AVX-512 reference).
pub const CPU_EFF_CYCLES_PER_PAIR: f64 = 21.1;
/// Host-memory staging bandwidth for tilize/untilize, bytes/s.
pub const HOST_STAGING_BYTES_PER_S: f64 = 20.0e9;

/// Model of the paper's host: dual-socket AMD EPYC 9124.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostCpuModel {
    /// Sockets.
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Boost clock, Hz.
    pub clock_hz: f64,
    /// Package idle power, W (RAPL package domain).
    pub pkg_idle_w: f64,
    /// Power bonus of one active core, W.
    pub active_bonus_w: f64,
    /// Sublinear exponent of the active-power scaling (boost clocks drop as
    /// more cores load up).
    pub active_exponent: f64,
    /// Extra host power while staging device transfers (tilize + PCIe DMA
    /// memory traffic during the accelerated run), W.
    pub staging_power_w: f64,
}

impl Default for HostCpuModel {
    fn default() -> Self {
        HostCpuModel {
            sockets: 2,
            cores_per_socket: 16,
            clock_hz: 3.71e9,
            pkg_idle_w: 65.0,
            active_bonus_w: 4.74,
            active_exponent: 0.26,
            staging_power_w: 18.0,
        }
    }
}

impl HostCpuModel {
    /// Total hardware threads (2 per core, as on the paper's host).
    #[must_use]
    pub fn hardware_threads(&self) -> usize {
        self.sockets * self.cores_per_socket * 2
    }

    /// Package power with `active` cores busy on that package.
    #[must_use]
    pub fn pkg_power(&self, active: usize) -> f64 {
        if active == 0 {
            self.pkg_idle_w
        } else {
            self.pkg_idle_w + self.active_bonus_w * (active as f64).powf(self.active_exponent)
        }
    }

    /// Total CPU power with `threads` busy threads pinned breadth-first
    /// across packages (`OMP_PLACES=cores`).
    #[must_use]
    pub fn total_power(&self, threads: usize) -> f64 {
        let per_pkg_capacity = self.cores_per_socket;
        let mut remaining = threads;
        let mut total = 0.0;
        for _ in 0..self.sockets {
            let here = remaining.min(per_pkg_capacity);
            remaining -= here;
            total += self.pkg_power(here);
        }
        total
    }

    /// Seconds for one force+jerk evaluation of `n` particles on `threads`
    /// threads of the AVX-512 reference.
    #[must_use]
    pub fn force_eval_seconds(&self, n: usize, threads: usize) -> f64 {
        let pairs = (n as f64) * (n as f64);
        pairs * CPU_EFF_CYCLES_PER_PAIR / (threads as f64 * self.clock_hz)
    }
}

/// Analytic model of the device-side force evaluation. All hardware
/// parameters (core count, clock, cost tables) come from a catalog entry
/// via [`WormholePerfModel::for_arch`]; `Default` is one chip of the
/// paper's n300, which reproduces every calibrated number exactly.
#[derive(Debug, Clone, Copy)]
pub struct WormholePerfModel {
    /// Device cost tables (for DRAM cross-checks).
    pub costs: CostModel,
    /// Tensix cores used.
    pub cores: usize,
    /// Compute cycles per pair per core.
    pub cycles_per_pair: f64,
    /// Tensix clock, Hz.
    pub clock_hz: f64,
}

impl Default for WormholePerfModel {
    fn default() -> Self {
        Self::for_arch(&DeviceArch::n300())
    }
}

impl WormholePerfModel {
    /// Per-chip model of a catalog part: grid, clock and cost tables come
    /// from the entry; the measured cycles/pair calibration is unchanged
    /// (it is a property of the kernel, not the part). Multi-chip cards
    /// scale via [`RunModel::accel_seconds_multi_device`].
    #[must_use]
    pub fn for_arch(arch: &DeviceArch) -> Self {
        WormholePerfModel {
            costs: arch.cost_model(),
            cores: arch.cores_per_chip(),
            cycles_per_pair: DEVICE_CYCLES_PER_PAIR,
            clock_hz: arch.clock_hz(),
        }
    }

    /// Device seconds for one evaluation: the slowest core owns
    /// ⌈T/cores⌉ target tiles, each interacting with all `n` sources.
    #[must_use]
    pub fn eval_seconds(&self, n: usize) -> f64 {
        let tiles = n.div_ceil(TILE_ELEMS);
        let slowest_tiles = tiles.div_ceil(self.cores);
        let pairs = (slowest_tiles * TILE_ELEMS) as f64 * n as f64;
        pairs * self.cycles_per_pair / self.clock_hz
    }

    /// PCIe transfer seconds per evaluation of the paper's replicated
    /// layout: 7 source-broadcast buffers of `n` tiles up, 6 target buffers
    /// up and 6 result buffers down of ⌈n/1024⌉ tiles each (FP32, 4 KiB per
    /// tile). Modelled only: the functional pipeline runs the packed view
    /// ([`Self::io_seconds_optimized`]).
    #[must_use]
    pub fn io_seconds(&self, n: usize) -> f64 {
        let tiles = n.div_ceil(TILE_ELEMS);
        let total_tiles = 7 * n + 12 * tiles;
        (total_tiles * 4096) as f64 / PCIE_BYTES_PER_S
    }

    /// Host staging seconds per evaluation of the paper's replicated layout
    /// (tilize of the 7 n-tile source view plus predictor/corrector
    /// arithmetic).
    #[must_use]
    pub fn host_seconds(&self, n: usize) -> f64 {
        let tilize_bytes = (7 * n * 4096) as f64;
        tilize_bytes / HOST_STAGING_BYTES_PER_S + 1.0e-9 * n as f64
    }

    /// PCIe seconds per evaluation of this code's data path, the packed
    /// source view: 19 pages per target tile (6 target and 7 source pages
    /// up, 6 result pages down) instead of the paper's 7 n + 12 ⌈n/1024⌉.
    #[must_use]
    pub fn io_seconds_optimized(&self, n: usize) -> f64 {
        let tiles = n.div_ceil(TILE_ELEMS);
        ((19 * tiles) * 4096) as f64 / PCIE_BYTES_PER_S
    }

    /// Host staging of the packed data path: only packed tiles.
    #[must_use]
    pub fn host_seconds_optimized(&self, n: usize) -> f64 {
        let tilize_bytes = (13 * n.div_ceil(TILE_ELEMS) * 4096) as f64;
        tilize_bytes / HOST_STAGING_BYTES_PER_S + 1.0e-9 * n as f64
    }

    /// Per-step wall time of the accelerated code on the packed data path.
    #[must_use]
    pub fn step_seconds_optimized(&self, n: usize) -> f64 {
        self.eval_seconds(n) + self.io_seconds_optimized(n) + self.host_seconds_optimized(n)
    }

    /// Full per-step wall time of the accelerated code on the paper's
    /// replicated layout.
    #[must_use]
    pub fn step_seconds(&self, n: usize) -> f64 {
        self.eval_seconds(n) + self.io_seconds(n) + self.host_seconds(n)
    }

    /// Fraction of a step the active card spends in device bursts (sets the
    /// Fig.-4 power duty cycle).
    #[must_use]
    pub fn burst_duty(&self, n: usize) -> f64 {
        self.eval_seconds(n) / self.step_seconds(n)
    }
}

/// The full representative-run model: both codes, times and energies.
#[derive(Debug, Clone, Copy)]
pub struct RunModel {
    /// Particle count.
    pub n: usize,
    /// Total Hermite steps (= force evaluations).
    pub steps: usize,
    /// Device model.
    pub device: WormholePerfModel,
    /// Host CPU model.
    pub cpu: HostCpuModel,
    /// CPU-run thread count (32 in the paper).
    pub cpu_threads: usize,
    /// Cards installed in the host (4 in the paper; all powered).
    pub cards_installed: usize,
    /// Card power parameters.
    pub card_power: PowerParams,
}

impl Default for RunModel {
    fn default() -> Self {
        RunModel {
            n: PAPER_N,
            steps: PAPER_CYCLES * STEPS_PER_CYCLE,
            device: WormholePerfModel::default(),
            cpu: HostCpuModel::default(),
            cpu_threads: 32,
            cards_installed: 4,
            card_power: PowerParams::default(),
        }
    }
}

impl RunModel {
    /// Accelerated time-to-solution (seconds).
    #[must_use]
    pub fn accel_seconds(&self) -> f64 {
        self.steps as f64 * self.device.step_seconds(self.n)
    }

    /// Projected time-to-solution on this code's packed data path (the
    /// functional pipeline's layout): same compute, ~1000× less source
    /// traffic over PCIe and host staging than the paper's replicated one.
    #[must_use]
    pub fn accel_seconds_optimized(&self) -> f64 {
        self.steps as f64 * self.device.step_seconds_optimized(self.n)
    }

    /// CPU-only time-to-solution (seconds).
    #[must_use]
    pub fn cpu_seconds(&self) -> f64 {
        let host_overhead = 5.0e-3; // parallel predictor/corrector etc.
        self.steps as f64 * (self.cpu.force_eval_seconds(self.n, self.cpu_threads) + host_overhead)
    }

    /// Speedup of the accelerated code (paper: 2.23×).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.cpu_seconds() / self.accel_seconds()
    }

    /// Mean power of the active card during the accelerated run, W.
    #[must_use]
    pub fn active_card_power(&self) -> f64 {
        let duty = self.device.burst_duty(self.n);
        self.card_power.active_peak_w * duty + self.card_power.active_trough_w * (1.0 - duty)
    }

    /// Mean total power during the accelerated run (cards + CPU packages).
    #[must_use]
    pub fn accel_mean_power(&self) -> f64 {
        let cards = self.active_card_power()
            + (self.cards_installed - 1) as f64 * self.card_power.powered_unused_w;
        cards + self.cpu.total_power(1) + self.cpu.staging_power_w
    }

    /// Mean total power during the CPU-only run. The cards idle at their
    /// pre-job baseline.
    #[must_use]
    pub fn cpu_mean_power(&self) -> f64 {
        self.cpu.total_power(self.cpu_threads.min(self.cpu.sockets * self.cpu.cores_per_socket))
            + self.cards_installed as f64 * self.card_power.idle_w
    }

    /// Accelerated energy-to-solution, J. As in the paper, counts the cards
    /// and CPU packages over the simulation window only.
    #[must_use]
    pub fn accel_energy(&self) -> f64 {
        self.accel_mean_power() * self.accel_seconds()
    }

    /// CPU-only energy-to-solution, J. The paper's CPU-run energy sums
    /// RAPL packages plus the idle draw of the (powered but unused) cards.
    #[must_use]
    pub fn cpu_energy(&self) -> f64 {
        (self.cpu.total_power(self.cpu_threads.min(32))) * self.cpu_seconds()
            + self.cards_installed as f64 * self.card_power.idle_w * self.cpu_seconds()
    }

    /// Energy ratio CPU/accelerated (paper: 1.80×).
    #[must_use]
    pub fn energy_ratio(&self) -> f64 {
        self.cpu_energy() / self.accel_energy()
    }

    /// Peak total power of the accelerated run (paper: ≈260 W).
    #[must_use]
    pub fn accel_peak_power(&self) -> f64 {
        self.card_power.active_peak_w
            + (self.cards_installed - 1) as f64 * (self.card_power.powered_unused_w + 1.0)
            + (self.cpu.total_power(1) + self.cpu.staging_power_w) * 1.05
    }

    /// Peak total power of the CPU-only run (paper: ≈210 W).
    #[must_use]
    pub fn cpu_peak_power(&self) -> f64 {
        self.cpu_mean_power() * 1.09
    }

    /// The `PowerState` duty description for the active card, used by the
    /// campaign to build Fig.-4 timelines.
    #[must_use]
    pub fn card_power_params(&self) -> PowerParams {
        PowerParams {
            burst_duty: self.device.burst_duty(self.n),
            burst_period_s: 7.0,
            ..self.card_power
        }
    }

    /// Accelerated time-to-solution with the Tensix clock scaled by
    /// `scale` (1.0 = the stock 1 GHz). Compute time scales as 1/s; PCIe
    /// and host staging are clock-independent.
    ///
    /// # Panics
    /// Panics on non-positive scales.
    #[must_use]
    pub fn accel_seconds_at_clock(&self, scale: f64) -> f64 {
        assert!(scale > 0.0, "clock scale must be positive");
        let eval = self.device.eval_seconds(self.n) / scale;
        let rest = self.device.io_seconds(self.n) + self.device.host_seconds(self.n);
        self.steps as f64 * (eval + rest)
    }

    /// Mean power of the active card at clock scale `s`: the burst phase
    /// splits into ~12 W of static/idle floor plus dynamic power scaling as
    /// s² (voltage tracks frequency); host phases are unaffected. The burst
    /// duty cycle itself shifts with the changed eval time.
    #[must_use]
    pub fn active_card_power_at_clock(&self, scale: f64) -> f64 {
        let eval = self.device.eval_seconds(self.n) / scale;
        let step = eval + self.device.io_seconds(self.n) + self.device.host_seconds(self.n);
        let duty = eval / step;
        let static_w = 12.0;
        let dyn_w = self.card_power.active_peak_w - static_w;
        let burst = static_w + dyn_w * scale * scale;
        burst * duty + self.card_power.active_trough_w * (1.0 - duty)
    }

    /// Active-card-only energy at clock scale `s` (the quantity a
    /// card-level DVFS study optimizes; experiment E8).
    #[must_use]
    pub fn active_card_energy_at_clock(&self, scale: f64) -> f64 {
        self.active_card_power_at_clock(scale) * self.accel_seconds_at_clock(scale)
    }

    /// Whole-system energy at clock scale `s`: active card + powered-idle
    /// cards + host, all integrated over the (clock-dependent) runtime.
    #[must_use]
    pub fn accel_energy_at_clock(&self, scale: f64) -> f64 {
        let cards = self.active_card_power_at_clock(scale)
            + (self.cards_installed - 1) as f64 * self.card_power.powered_unused_w;
        let total = cards + self.cpu.total_power(1) + self.cpu.staging_power_w;
        total * self.accel_seconds_at_clock(scale)
    }

    /// Multi-device strong-scaling estimate (experiment E6, the paper's
    /// stated next step): accelerated step time with `d` devices in an
    /// Ethernet ring, splitting target tiles across `64 d` cores and
    /// all-gathering the 12 per-axis result/position buffers each step.
    #[must_use]
    pub fn accel_seconds_multi_device(&self, devices: usize) -> f64 {
        assert!(devices > 0, "need at least one device");
        let model = WormholePerfModel { cores: self.device.cores * devices, ..self.device };
        let eval = model.eval_seconds(self.n);
        let io = self.device.io_seconds(self.n) / devices as f64;
        let host = self.device.host_seconds(self.n);
        let comm = if devices > 1 {
            let ring = EthRing::homogeneous(devices, EthLink::default());
            let bytes_per_device =
                (12 * self.n.div_ceil(TILE_ELEMS) * 4096) as u64 / devices as u64;
            ring.allgather_seconds(bytes_per_device)
        } else {
            0.0
        };
        self.steps as f64 * (eval + io + host + comm)
    }
}

/// Convenience: the paper's representative run.
#[must_use]
pub fn paper_run() -> RunModel {
    RunModel::default()
}

/// The representative run on an arbitrary catalog part: per-chip device
/// model from the entry; evaluate multi-chip cards with
/// [`RunModel::accel_seconds_multi_device`]`(arch.chips)`.
#[must_use]
pub fn arch_run(arch: &DeviceArch) -> RunModel {
    RunModel { device: WormholePerfModel::for_arch(arch), ..RunModel::default() }
}

/// Map a simulated accelerated run onto card power states for one job:
/// (pre-sleep idle, compute, post-sleep slightly-elevated idle).
#[must_use]
pub fn accel_job_states(run: &RunModel, sleep_s: f64) -> Vec<(PowerState, f64)> {
    vec![
        (PowerState::Idle, sleep_s),
        (PowerState::ComputeActive, run.accel_seconds()),
        (PowerState::PostRunIdle, sleep_s),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_eval_time_near_derivation() {
        let m = WormholePerfModel::default();
        // ⌈100/64⌉ = 2 tiles on the slowest core → 2·1024·102400 pairs at
        // 2.727 cycles/pair ≈ 0.572 s.
        let t = m.eval_seconds(PAPER_N);
        assert!((t - 0.572).abs() < 0.01, "eval seconds {t}");
        // Perfectly balanced at one tile per core for N = 65536.
        let t64 = m.eval_seconds(64 * 1024);
        assert!(t64 < t, "fewer tiles on the slowest core must be faster");
    }

    #[test]
    fn arch_models_derive_from_the_catalog() {
        // Default ≡ one n300 chip: the calibration is untouched.
        let d = WormholePerfModel::default();
        assert_eq!(d.cores, 64);
        assert!((d.clock_hz - 1.0e9).abs() < 1.0);
        // n150: 72 cores on one chip. At N = 72·1024 its grid fits exactly
        // one tile per core while the 64-core chip's slowest core owns two.
        let n150 = WormholePerfModel::for_arch(&DeviceArch::n150());
        assert_eq!(n150.cores, 72);
        assert!(n150.eval_seconds(72 * 1024) < d.eval_seconds(72 * 1024));
        // A full n300 card (2 chips over the Ethernet ring) beats an n150.
        let n150_card = arch_run(&DeviceArch::n150()).accel_seconds_multi_device(1);
        let n300_card = arch_run(&DeviceArch::n300()).accel_seconds_multi_device(2);
        assert!(n300_card < n150_card, "n300 {n300_card} vs n150 {n150_card}");
        // A down-clocked custom part is slower than the stock n300 chip.
        let slow = DeviceArch::parse("name=slow,clock_ghz=0.5").unwrap();
        let s = WormholePerfModel::for_arch(&slow);
        assert!(s.eval_seconds(PAPER_N) > d.eval_seconds(PAPER_N));
    }

    #[test]
    fn io_dominated_by_source_replication() {
        let m = WormholePerfModel::default();
        let io = m.io_seconds(PAPER_N);
        // 7·102400 + 12·100 tiles ≈ 2.94 GB over 24 GB/s ≈ 0.123 s.
        assert!((io - 0.1225).abs() < 0.005, "io seconds {io}");
    }

    #[test]
    fn accel_time_matches_paper() {
        let run = paper_run();
        let t = run.accel_seconds();
        // Paper: 301.40 ± 0.24 s. The model must land within ~2%.
        assert!((295.0..311.0).contains(&t), "accelerated time-to-solution {t}");
    }

    #[test]
    fn cpu_time_matches_paper() {
        let run = paper_run();
        let t = run.cpu_seconds();
        // Paper: 672.90 ± 7.83 s.
        assert!((660.0..690.0).contains(&t), "CPU time-to-solution {t}");
    }

    #[test]
    fn speedup_matches_paper() {
        // Paper: 2.23×.
        let s = paper_run().speedup();
        assert!((2.1..2.4).contains(&s), "speedup {s}");
    }

    #[test]
    fn energies_match_paper() {
        let run = paper_run();
        let accel_kj = run.accel_energy() / 1e3;
        let cpu_kj = run.cpu_energy() / 1e3;
        // Paper: 71.56 ± 0.13 kJ and 128.89 ± 1.52 kJ.
        assert!((68.0..76.0).contains(&accel_kj), "accel energy {accel_kj} kJ");
        assert!((123.0..135.0).contains(&cpu_kj), "cpu energy {cpu_kj} kJ");
        let ratio = run.energy_ratio();
        // Paper: 1.80×.
        assert!((1.65..1.95).contains(&ratio), "energy ratio {ratio}");
    }

    #[test]
    fn peak_powers_match_paper() {
        let run = paper_run();
        let accel = run.accel_peak_power();
        let cpu = run.cpu_peak_power();
        // Paper: ≈260 W vs ≈210 W.
        assert!((240.0..275.0).contains(&accel), "accel peak {accel}");
        assert!((195.0..225.0).contains(&cpu), "cpu peak {cpu}");
        assert!(accel > cpu, "accelerated run has the higher peak");
    }

    #[test]
    fn cpu_power_model_anchors() {
        let cpu = HostCpuModel::default();
        assert_eq!(cpu.hardware_threads(), 64);
        assert_eq!(cpu.pkg_power(0), 65.0);
        // 32 threads = 16 cores per package: the paper's CPU-run RAPL data
        // implies ≈150 W for both packages under full load.
        let full = cpu.total_power(32);
        assert!((145.0..155.0).contains(&full), "32-thread power {full}");
        // One thread loads one package only (staging power modeled apart).
        let single = cpu.total_power(1);
        assert!((130.0..140.0).contains(&single), "1-thread power {single}");
    }

    #[test]
    fn burst_duty_sets_fig4_shape() {
        let run = paper_run();
        let duty = run.device.burst_duty(run.n);
        assert!((0.5..0.9).contains(&duty), "burst duty {duty}");
        let p = run.card_power_params();
        assert_eq!(p.burst_duty, duty);
        // Active card mean power inside the paper's 26–33 W band.
        let mean = run.active_card_power();
        assert!((26.0..33.0).contains(&mean), "active card power {mean}");
    }

    #[test]
    fn optimized_pipeline_projection() {
        let run = paper_run();
        let opt = run.accel_seconds_optimized();
        let base = run.accel_seconds();
        // Removing ~0.27 s/step of PCIe + staging leaves the 0.57 s compute.
        assert!(opt < base * 0.75, "optimized {opt} vs baseline {base}");
        assert!(opt > base * 0.5, "compute still dominates");
        // Projected speedup over the CPU reference improves past 3x.
        let speedup = run.cpu_seconds() / opt;
        assert!((3.0..3.6).contains(&speedup), "projected speedup {speedup}");
    }

    #[test]
    fn multi_device_strong_scaling_monotonic() {
        let run = paper_run();
        let t1 = run.accel_seconds_multi_device(1);
        let t2 = run.accel_seconds_multi_device(2);
        let t4 = run.accel_seconds_multi_device(4);
        assert!((t1 - run.accel_seconds()).abs() / t1 < 1e-9);
        assert!(t2 < t1 && t4 < t2, "strong scaling must improve: {t1} {t2} {t4}");
        // But sublinearly (communication + unsplit host work).
        assert!(t4 > t1 / 4.0, "scaling cannot be superlinear");
    }

    #[test]
    fn clock_scaling_shapes() {
        let run = paper_run();
        // Unit scale reproduces the baseline exactly.
        assert!((run.accel_seconds_at_clock(1.0) - run.accel_seconds()).abs() < 1e-9);
        assert!((run.active_card_power_at_clock(1.0) - run.active_card_power()).abs() < 0.5);
        // Time falls monotonically with clock.
        assert!(run.accel_seconds_at_clock(1.2) < run.accel_seconds_at_clock(1.0));
        assert!(run.accel_seconds_at_clock(0.7) > run.accel_seconds_at_clock(1.0));
        // System-level energy: static power (host + idle cards) dominates,
        // so race-to-idle wins — energy falls as the clock rises.
        assert!(run.accel_energy_at_clock(1.2) < run.accel_energy_at_clock(1.0));
        assert!(run.accel_energy_at_clock(0.7) > run.accel_energy_at_clock(1.0));
        // Card-level energy has an interior optimum (the DVFS sweet spot of
        // the authors' prior clock-adjustment study): the minimum over a
        // clock grid lies strictly inside the sweep range.
        let grid: Vec<f64> = (0..=14).map(|i| 0.5 + 0.075 * f64::from(i)).collect();
        let energies: Vec<f64> = grid.iter().map(|s| run.active_card_energy_at_clock(*s)).collect();
        let (best, _) =
            energies.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).expect("non-empty grid");
        assert!(
            best > 0 && best < grid.len() - 1,
            "card-energy optimum must be interior, found at scale {}",
            grid[best]
        );
    }

    #[test]
    fn job_states_cover_the_fig4_phases() {
        let run = paper_run();
        let states = accel_job_states(&run, 120.0);
        assert_eq!(states.len(), 3);
        assert_eq!(states[0].0, PowerState::Idle);
        assert_eq!(states[1].0, PowerState::ComputeActive);
        assert_eq!(states[2].0, PowerState::PostRunIdle);
        assert!((states[1].1 - run.accel_seconds()).abs() < 1e-9);
    }
}
