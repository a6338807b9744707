//! Structured launch failures.
//!
//! The command queue used to panic the host process when a kernel pipeline
//! deadlocked. [`LaunchError`] replaces that with a structured result: the
//! queue supervises every kernel instance, classifies panics, deadlocked
//! cores and injected faults, drops the faulting core's waiting kernels
//! once the core stops moving, and reports *which* kernel on *which* core
//! is the root cause.

use std::fmt;

use tensix::grid::CoreCoord;
use tensix::TensixError;

/// Per-core completed-work inventory attached to retryable launch failures.
///
/// `completed` counts work units (tiles) whose outputs the core's writer
/// fully committed to DRAM before the abort — i.e. the watermark a partial
/// redo may resume from. Counts are attempt-local: each launch resets the
/// device's progress board.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreProgress {
    /// The core the inventory describes.
    pub core: CoreCoord,
    /// Work units fully committed to DRAM by this core in the failed attempt.
    pub completed: u64,
}

/// Why a program launch failed.
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchError {
    /// A kernel panicked (assertion, injected fault, or NoC/DRAM error).
    KernelPanic {
        /// Kernel label.
        kernel: String,
        /// Core the instance ran on.
        core: CoreCoord,
        /// Panic message or fault description.
        message: String,
        /// Per-core completed-tile inventory at abort time.
        completed: Vec<CoreProgress>,
    },
    /// A core deadlocked: every unfinished kernel instance on it waited on
    /// a CB or semaphore nothing could change any more. `kernel` is the
    /// first of them in launch order.
    Deadlock {
        /// Kernel label.
        kernel: String,
        /// Core the instance ran on.
        core: CoreCoord,
        /// What the deadlock looked like.
        message: String,
        /// Per-core completed-tile inventory at abort time.
        completed: Vec<CoreProgress>,
    },
    /// A kernel hung without making progress (injected compute stall); the
    /// supervisor dropped it once the rest of its core stopped moving.
    Stall {
        /// Kernel label.
        kernel: String,
        /// Core the instance ran on.
        core: CoreCoord,
        /// Per-core completed-tile inventory at abort time.
        completed: Vec<CoreProgress>,
    },
    /// The card fell off the bus before or during the launch.
    DeviceLost {
        /// Device id that disappeared.
        device_id: usize,
    },
    /// A device-layer error before any kernel ran (e.g. CB config does not
    /// fit in L1).
    Device(TensixError),
}

impl LaunchError {
    /// The core of the root-cause kernel, when one is identified.
    #[must_use]
    pub fn faulting_core(&self) -> Option<CoreCoord> {
        match self {
            LaunchError::KernelPanic { core, .. }
            | LaunchError::Deadlock { core, .. }
            | LaunchError::Stall { core, .. } => Some(*core),
            _ => None,
        }
    }

    /// Short phase tag for failure taxonomies ("panic", "deadlock",
    /// "stall", "device-lost", "setup").
    #[must_use]
    pub fn phase(&self) -> &'static str {
        match self {
            LaunchError::KernelPanic { .. } => "panic",
            LaunchError::Deadlock { .. } => "deadlock",
            LaunchError::Stall { .. } => "stall",
            LaunchError::DeviceLost { .. } => "device-lost",
            LaunchError::Device(_) => "setup",
        }
    }

    /// Whether a retry of the same launch can plausibly succeed: true for
    /// one-shot kernel-level faults (panics, deadlocks, stalls), false for
    /// device loss (needs a reset + rebuild) and setup errors
    /// (deterministic, e.g. L1 overflow).
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            LaunchError::KernelPanic { .. }
                | LaunchError::Deadlock { .. }
                | LaunchError::Stall { .. }
        )
    }

    /// Whether this failure takes the whole card out of service: the card
    /// fell off the bus, or its ERISC chip-to-chip link died (a ring member
    /// without a link is as gone as a dead card). These are the failures a
    /// spare can absorb, and the ones in-place retries can never fix — the
    /// card's DRAM contents are unreachable.
    #[must_use]
    pub fn is_card_loss(&self) -> bool {
        matches!(
            self,
            LaunchError::DeviceLost { .. } | LaunchError::Device(TensixError::EthLinkDown { .. })
        )
    }

    /// Per-core completed-tile inventory of the failed attempt, when the
    /// supervisor captured one. Empty for device loss and setup errors (no
    /// kernel ran or the board is untrustworthy).
    #[must_use]
    pub fn completed_work(&self) -> &[CoreProgress] {
        match self {
            LaunchError::KernelPanic { completed, .. }
            | LaunchError::Deadlock { completed, .. }
            | LaunchError::Stall { completed, .. } => completed,
            _ => &[],
        }
    }
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::KernelPanic { kernel, core, message, .. } => {
                write!(f, "kernel '{kernel}' on core {core} panicked: {message}")
            }
            LaunchError::Deadlock { kernel, core, message, .. } => {
                write!(f, "kernel '{kernel}' on core {core} deadlocked: {message}")
            }
            LaunchError::Stall { kernel, core, .. } => {
                write!(f, "kernel '{kernel}' on core {core} stalled (no progress; cancelled)")
            }
            LaunchError::DeviceLost { device_id } => {
                write!(f, "device {device_id} fell off the bus during launch")
            }
            LaunchError::Device(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<TensixError> for LaunchError {
    fn from(e: TensixError) -> Self {
        match e {
            TensixError::DeviceLost { device_id } => LaunchError::DeviceLost { device_id },
            other => LaunchError::Device(other),
        }
    }
}

impl From<LaunchError> for TensixError {
    fn from(e: LaunchError) -> Self {
        match e {
            // Pass device-layer errors through unchanged so callers matching
            // on e.g. L1OutOfMemory keep working.
            LaunchError::Device(inner) => inner,
            LaunchError::DeviceLost { device_id } => TensixError::DeviceLost { device_id },
            other => TensixError::KernelFault { message: other.to_string() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_errors_roundtrip_unchanged() {
        let e = TensixError::DramOutOfMemory { requested: 8, available: 4 };
        let launch = LaunchError::from(e.clone());
        assert_eq!(TensixError::from(launch), e);
    }

    #[test]
    fn device_loss_maps_both_ways() {
        let launch = LaunchError::from(TensixError::DeviceLost { device_id: 2 });
        assert_eq!(launch, LaunchError::DeviceLost { device_id: 2 });
        assert_eq!(TensixError::from(launch), TensixError::DeviceLost { device_id: 2 });
    }

    #[test]
    fn kernel_failures_identify_core_and_phase() {
        let core = CoreCoord::new(3, 1);
        let e = LaunchError::Stall {
            kernel: "force-compute".into(),
            core,
            completed: vec![CoreProgress { core, completed: 2 }],
        };
        assert_eq!(e.faulting_core(), Some(core));
        assert_eq!(e.phase(), "stall");
        assert!(e.is_transient());
        assert_eq!(e.completed_work(), &[CoreProgress { core, completed: 2 }]);
        assert!(e.to_string().contains("force-compute"));
        let lost = LaunchError::DeviceLost { device_id: 0 };
        assert_eq!(lost.faulting_core(), None);
        assert!(!lost.is_transient());
    }
}
