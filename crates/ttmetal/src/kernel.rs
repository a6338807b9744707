//! Kernel traits and circular-buffer index conventions.
//!
//! A TT-Metalium program runs up to three kinds of kernels per Tensix core:
//! two *data-movement* kernels (on the RISC-V NC and B cores, one per NoC)
//! and one *compute* kernel (driving the UNPACK/MATH/PACK trio). In the
//! simulator a kernel is a Rust value implementing [`DataMovementKernel`] or
//! [`ComputeKernel`], whose body is an `async` block: the CB and semaphore
//! waits are `.await` points. The command queue runs a core's kernels as
//! cooperative tasks on one host thread, so the read → compute → write
//! pipeline interleaves through the circular buffers, as in the paper's
//! dataflow execution model.
//!
//! A kernel body resolves to a [`tensix::Result`]: a device fault is an
//! `Err` it returns with `?`, which the queue reports as a
//! [`crate::LaunchError`] once the rest of the core stops moving. A kernel
//! that panics has a bug: the panic reaches the launch's caller.

use std::future::Future;
use std::pin::Pin;

use crate::context::{ComputeCtx, DataMovementCtx};

/// One run of a kernel body: a future borrowing the kernel and its context,
/// resolving to the device fault that stopped it, if any. It is polled on
/// the thread that created it, so it need not be `Send`.
pub type KernelFuture<'a> = Pin<Box<dyn Future<Output = tensix::Result<()>> + 'a>>;

/// Circular-buffer indices, following the TT-Metalium convention.
pub mod cb_index {
    /// First input CB.
    pub const IN0: u8 = 0;
    /// Second input CB.
    pub const IN1: u8 = 1;
    /// Third input CB.
    pub const IN2: u8 = 2;
    /// Fourth input CB.
    pub const IN3: u8 = 3;
    /// Fifth input CB.
    pub const IN4: u8 = 4;
    /// Sixth input CB.
    pub const IN5: u8 = 5;
    /// Seventh input CB.
    pub const IN6: u8 = 6;
    /// Eighth input CB.
    pub const IN7: u8 = 7;
    /// First output CB.
    pub const OUT0: u8 = 16;
    /// Second output CB.
    pub const OUT1: u8 = 17;
    /// Third output CB.
    pub const OUT2: u8 = 18;
    /// Fourth output CB.
    pub const OUT3: u8 = 19;
    /// Fifth output CB.
    pub const OUT4: u8 = 20;
    /// Sixth output CB.
    pub const OUT5: u8 = 21;
    /// First intermediate (scratch) CB — the paper stages dx/dy/dz here.
    pub const INTERMED0: u8 = 24;
    /// Second intermediate CB.
    pub const INTERMED1: u8 = 25;
    /// Third intermediate CB.
    pub const INTERMED2: u8 = 26;
    /// Fourth intermediate CB.
    pub const INTERMED3: u8 = 27;
    /// Fifth intermediate CB.
    pub const INTERMED4: u8 = 28;
    /// Sixth intermediate CB.
    pub const INTERMED5: u8 = 29;
    /// Total number of CB slots per core.
    pub const NUM_CBS: usize = 32;
}

/// A data-movement kernel (reader or writer), executed on one of the two
/// "Baby" RISC-V data-movement cores.
pub trait DataMovementKernel: Send + Sync {
    /// Kernel body. Runs once per enqueue on every core in the kernel's core
    /// set, with per-core runtime arguments available through the context.
    fn run<'a>(&'a self, ctx: &'a mut DataMovementCtx) -> KernelFuture<'a>;
}

/// A compute kernel, executed on the UNPACK/MATH/PACK compute cores.
pub trait ComputeKernel: Send + Sync {
    /// Kernel body.
    fn run<'a>(&'a self, ctx: &'a mut ComputeCtx) -> KernelFuture<'a>;
}

impl<F> DataMovementKernel for F
where
    F: AsyncFn(&mut DataMovementCtx) -> tensix::Result<()> + Send + Sync,
{
    fn run<'a>(&'a self, ctx: &'a mut DataMovementCtx) -> KernelFuture<'a> {
        Box::pin(self(ctx))
    }
}

/// Wrapper so `async` closures can serve as compute kernels without
/// clashing with the blanket data-movement impl.
pub struct ComputeFn<F>(pub F);

impl<F> ComputeKernel for ComputeFn<F>
where
    F: AsyncFn(&mut ComputeCtx) -> tensix::Result<()> + Send + Sync,
{
    fn run<'a>(&'a self, ctx: &'a mut ComputeCtx) -> KernelFuture<'a> {
        Box::pin((self.0)(ctx))
    }
}
