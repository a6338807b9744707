//! # ttmetal — a TT-Metalium-style programming interface
//!
//! Rust rendition of the TT-Metalium SDK surface the paper's N-body port
//! uses, running against the `tensix` Wormhole simulator:
//!
//! * [`host`] — `create_device` / `open_cluster` / `close_device`, with the
//!   paper's reset-failure mode;
//! * [`buffer`] — interleaved DRAM buffers and kernel-side [`BufferRef`]s;
//! * [`program`] — kernels, circular-buffer declarations, runtime args;
//! * [`kernel`] — the [`DataMovementKernel`] / [`ComputeKernel`] traits and
//!   CB index conventions;
//! * [`context`] — the in-kernel API: [`KernelCtx`]'s `cb_wait_front` /
//!   `cb_pop_front` / `cb_reserve_back` / `cb_push_back`, shared by both
//!   kernel kinds, NoC async reads/writes,
//!   `copy_tile` / `pack_tile`, FPU `sub_tiles`-style binaries, and SFPU
//!   calls (`square_tile`, `rsqrt_tile`, `sub_binary_tile`, …);
//! * [`queue`] — `EnqueueWriteBuffer` / `EnqueueReadBuffer` /
//!   `EnqueueProgram` with per-program timing reports.
//!
//! Kernel bodies are `async`: a core's kernel instances run as cooperative
//! tasks on one host thread, so the read → compute → write dataflow
//! interleaves through the circular buffers with real back-pressure — the
//! execution model Section 2 of the paper describes — while a launch needs
//! no more host threads than the host has.

#![warn(missing_docs)]

pub mod buffer;
pub mod context;
pub mod error;
pub mod host;
pub mod kernel;
pub(crate) mod pool;
pub mod program;
pub mod queue;
pub mod semaphore;

pub use buffer::{Buffer, BufferRef};
pub use context::{CbMap, ComputeCtx, DataMovementCtx, KernelCtx, SemMap};
pub use error::{CoreProgress, LaunchError};
pub use host::{close_device, create_device, open_cluster};
pub use kernel::{cb_index, ComputeFn, ComputeKernel, DataMovementKernel, KernelFuture};
pub use program::{KernelId, Program};
pub use queue::{CbReport, CommandQueue, ProgramReport, PCIE_BYTES_PER_S};
pub use semaphore::Semaphore;
