//! Error types for the device simulator.

use std::fmt;

use crate::grid::CoreCoord;

/// Errors surfaced by the Tensix device model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensixError {
    /// L1 SRAM allocation failed (per-core capacity is 1.5 MB).
    L1OutOfMemory {
        /// Core whose L1 is exhausted.
        core: CoreCoord,
        /// Bytes requested.
        requested: usize,
        /// Bytes still available.
        available: usize,
    },
    /// DRAM allocation failed (12 GB GDDR6 per card).
    DramOutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes still available.
        available: usize,
    },
    /// Access to an address outside any allocated buffer.
    InvalidAddress {
        /// Offending byte address.
        addr: u64,
        /// Human-readable context.
        context: &'static str,
    },
    /// Device reset failed. The paper reports 24 of 50 submitted runs failing
    /// at exactly this stage; the simulator injects the same fault.
    ResetFailed {
        /// Device id that failed to come back.
        device_id: usize,
    },
    /// The dst register file cannot hold the requested tile index for the
    /// active data format (16 tiles in BF16, 8 in FP32).
    DstIndexOutOfRange {
        /// Requested dst tile index.
        index: usize,
        /// Capacity for the active format.
        capacity: usize,
    },
    /// A circular buffer identifier is not configured on this core.
    UnknownCircularBuffer {
        /// CB index (0..32).
        cb: usize,
        /// Core where the lookup happened.
        core: CoreCoord,
    },
    /// A kernel-level failure with no variant of its own: dst/src register
    /// misuse, a corrupt checkpoint spill, or a failed launch flattened into
    /// a `TensixError`.
    KernelFault {
        /// Description of the fault.
        message: String,
    },
    /// The card fell off the PCIe bus mid-run. Every subsequent operation
    /// fails with this error until the device is reset.
    DeviceLost {
        /// Device id that disappeared.
        device_id: usize,
    },
    /// A DRAM read hit an ECC error the GDDR6 controller could not correct.
    DramEccUncorrectable {
        /// Page (tile index) whose read failed.
        page: usize,
    },
    /// A NoC transaction failed and exhausted the hardware retransmit
    /// budget.
    NocTransactionFailed {
        /// What the transaction was doing.
        context: &'static str,
    },
    /// An Ethernet link flapped repeatedly and stayed down.
    EthLinkDown {
        /// Ring link index (device id on homogeneous rings).
        link: usize,
    },
    /// A checkpoint spill file could not be written or read (unwritable
    /// directory, disk full, missing file). Typed so long-lived serving can
    /// shed the job instead of unwinding.
    CheckpointIo {
        /// Spill path involved.
        path: String,
        /// Underlying IO error text.
        message: String,
    },
}

impl fmt::Display for TensixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensixError::L1OutOfMemory { core, requested, available } => write!(
                f,
                "L1 allocation of {requested} B failed on core {core}: {available} B available"
            ),
            TensixError::DramOutOfMemory { requested, available } => {
                write!(f, "DRAM allocation of {requested} B failed: {available} B available")
            }
            TensixError::InvalidAddress { addr, context } => {
                write!(f, "invalid address {addr:#x} ({context})")
            }
            TensixError::ResetFailed { device_id } => {
                write!(f, "device {device_id} failed to come out of reset")
            }
            TensixError::DstIndexOutOfRange { index, capacity } => {
                write!(f, "dst tile index {index} out of range (capacity {capacity})")
            }
            TensixError::UnknownCircularBuffer { cb, core } => {
                write!(f, "circular buffer {cb} is not configured on core {core}")
            }
            TensixError::KernelFault { message } => write!(f, "kernel fault: {message}"),
            TensixError::DeviceLost { device_id } => {
                write!(f, "device {device_id} fell off the bus (reset required)")
            }
            TensixError::DramEccUncorrectable { page } => {
                write!(f, "uncorrectable DRAM ECC error reading page {page}")
            }
            TensixError::NocTransactionFailed { context } => {
                write!(f, "NoC transaction failed after retransmit ({context})")
            }
            TensixError::EthLinkDown { link } => {
                write!(f, "ethernet link {link} down after repeated flaps")
            }
            TensixError::CheckpointIo { path, message } => {
                write!(f, "checkpoint IO on {path} failed: {message}")
            }
        }
    }
}

impl std::error::Error for TensixError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, TensixError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TensixError::L1OutOfMemory {
            core: CoreCoord::new(1, 2),
            requested: 4096,
            available: 100,
        };
        let s = e.to_string();
        assert!(s.contains("4096") && s.contains("100") && s.contains("x=1"));

        let e = TensixError::ResetFailed { device_id: 3 };
        assert!(e.to_string().contains("device 3"));

        let e = TensixError::DstIndexOutOfRange { index: 9, capacity: 8 };
        assert!(e.to_string().contains('9') && e.to_string().contains('8'));
    }
}
