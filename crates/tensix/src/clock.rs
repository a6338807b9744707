//! Virtual time: per-kernel cycle counters and the device-level clock.
//!
//! The simulator never ties results to host wall-clock. Every kernel instance
//! accumulates cycles from the cost tables; a program's device time is the
//! maximum across its kernel contexts (kernels on different cores and the
//! three pipeline stages within a core run concurrently); and the device
//! clock advances by those amounts plus explicitly modelled host phases.

use parking_lot::Mutex;

use crate::cost::{CostModel, CLOCK_HZ};

/// Cycle accumulator owned by one kernel execution context.
#[derive(Debug, Default, Clone, Copy)]
pub struct CycleCounter {
    cycles: u64,
}

impl CycleCounter {
    /// Fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        CycleCounter { cycles: 0 }
    }

    /// Charge `cycles`.
    pub fn add(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Cycles accumulated.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Seconds at the Tensix clock.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / CLOCK_HZ
    }
}

/// Timing record of one kernel run, labelled for reports.
#[derive(Debug, Clone, Default)]
pub struct KernelTiming {
    /// Human-readable kernel label ("reader", "compute", "writer").
    pub label: String,
    /// Linear core index the kernel ran on.
    pub core_index: usize,
    /// Cycles the kernel accumulated.
    pub cycles: u64,
    /// Cycles attributed to the matrix (FPU) pipe: matmuls, FPU element-wise
    /// and broadcast ops, reductions. Zero for data-movement kernels.
    pub matrix_cycles: u64,
    /// Cycles attributed to the vector (SFPU) pipe: transcendentals, unary
    /// and binary lane ops, fills and scales. Zero for data-movement kernels.
    pub vector_cycles: u64,
}

/// Device time for a set of concurrently executed kernels: the slowest
/// context bounds the program (the pipeline overlaps everything else).
#[must_use]
pub fn program_seconds(model: &CostModel, timings: &[KernelTiming]) -> f64 {
    let max_cycles = timings.iter().map(|t| t.cycles).max().unwrap_or(0);
    model.cycles_to_seconds(max_cycles)
}

/// Monotonic virtual clock for one device, in seconds.
#[derive(Debug, Default)]
pub struct DeviceClock {
    now: Mutex<f64>,
}

impl DeviceClock {
    /// Clock starting at t = 0.
    #[must_use]
    pub fn new() -> Self {
        DeviceClock::default()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> f64 {
        *self.now.lock()
    }

    /// Advance by `dt` seconds and return the new time.
    ///
    /// # Panics
    /// Panics on negative `dt` (virtual time is monotonic).
    pub fn advance(&self, dt: f64) -> f64 {
        assert!(dt >= 0.0, "virtual time cannot go backwards (dt = {dt})");
        let mut now = self.now.lock();
        *now += dt;
        *now
    }

    /// Reset to zero (device reset).
    pub fn reset(&self) {
        *self.now.lock() = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = CycleCounter::new();
        c.add(100);
        c.add(900);
        assert_eq!(c.cycles(), 1000);
        assert!((c.seconds() - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn program_time_is_slowest_kernel() {
        let model = CostModel::default();
        let timings = vec![
            KernelTiming { label: "reader".into(), cycles: 5_000, ..KernelTiming::default() },
            KernelTiming { label: "compute".into(), cycles: 20_000, ..KernelTiming::default() },
            KernelTiming { label: "writer".into(), cycles: 1_000, ..KernelTiming::default() },
            KernelTiming {
                label: "compute".into(),
                core_index: 1,
                cycles: 18_000,
                ..KernelTiming::default()
            },
        ];
        assert!((program_seconds(&model, &timings) - 20e-6).abs() < 1e-12);
        assert_eq!(program_seconds(&model, &[]), 0.0);
    }

    #[test]
    fn device_clock_monotonic() {
        let clk = DeviceClock::new();
        assert_eq!(clk.now(), 0.0);
        clk.advance(1.5);
        assert!((clk.advance(0.5) - 2.0).abs() < 1e-12);
        clk.reset();
        assert_eq!(clk.now(), 0.0);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn negative_advance_panics() {
        DeviceClock::new().advance(-1.0);
    }
}
