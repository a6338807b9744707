//! Programs: kernels + circular buffer configuration + runtime args.
//!
//! A [`Program`] mirrors TT-Metalium's `Program` object: it declares which
//! circular buffers exist on which cores, which kernels run where, and the
//! per-core runtime arguments. It is inert until enqueued on a
//! [`crate::queue::CommandQueue`]; the same program can be enqueued many
//! times. The N-body force pipeline keeps one template program per card,
//! with no runtime args, and enqueues a slice of it with its own args on
//! every launch ([`Program::slice_for_cores`]).

use std::collections::HashMap;
use std::sync::Arc;

use tensix::cb::CircularBufferConfig;
use tensix::grid::{CoreCoord, CoreRange, CoreRangeSet};
use tensix::{DataFormat, NocId};
use tt_trace::RiscRole;

use crate::context::{ComputeCtx, DataMovementCtx, KernelCtx};
use crate::kernel::{cb_index, ComputeKernel, DataMovementKernel, KernelFuture};
use crate::semaphore::NUM_SEMAPHORES;

/// Handle to a kernel added to a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelId(pub(crate) usize);

#[derive(Clone)]
pub(crate) enum KernelBody {
    DataMovement { noc: NocId, kernel: Arc<dyn DataMovementKernel> },
    Compute { format: DataFormat, kernel: Arc<dyn ComputeKernel> },
}

impl KernelBody {
    /// The RISC-V core that runs the kernel: a data-movement kernel's NoC
    /// picks BRISC or NCRISC; compute runs on the TRISCs.
    pub(crate) fn role(&self) -> RiscRole {
        match self {
            KernelBody::DataMovement { noc: NocId::Noc0, .. } => RiscRole::Brisc,
            KernelBody::DataMovement { .. } => RiscRole::Ncrisc,
            KernelBody::Compute { .. } => RiscRole::Trisc,
        }
    }

    /// One instance of the kernel, running in its role's context around
    /// `ctx`.
    pub(crate) fn instance(&self, ctx: KernelCtx) -> KernelRun {
        match self {
            KernelBody::DataMovement { noc, kernel } => {
                KernelRun::DataMovement(Arc::clone(kernel), DataMovementCtx::new(ctx, *noc))
            }
            KernelBody::Compute { format, kernel } => {
                KernelRun::Compute(Arc::clone(kernel), ComputeCtx::new(ctx, *format))
            }
        }
    }
}

/// One kernel instance: the kernel and its role's context.
pub(crate) enum KernelRun {
    DataMovement(Arc<dyn DataMovementKernel>, DataMovementCtx),
    Compute(Arc<dyn ComputeKernel>, ComputeCtx),
}

impl KernelRun {
    /// The kernel's run on its context.
    pub(crate) fn start(&mut self) -> KernelFuture<'_> {
        match self {
            KernelRun::DataMovement(kernel, ctx) => kernel.run(ctx),
            KernelRun::Compute(kernel, ctx) => kernel.run(ctx),
        }
    }

    /// The shared context.
    pub(crate) fn ctx(&mut self) -> &mut KernelCtx {
        match self {
            KernelRun::DataMovement(_, ctx) => ctx,
            KernelRun::Compute(_, ctx) => ctx,
        }
    }

    /// The shared context back, with the compute instance's
    /// `[matrix, vector]` pipe cycles (zero for data movement).
    pub(crate) fn finish(self) -> (KernelCtx, [u64; 2]) {
        match self {
            KernelRun::DataMovement(_, ctx) => (ctx.into_kernel(), [0, 0]),
            KernelRun::Compute(_, ctx) => {
                let pipes = [ctx.matrix_cycles(), ctx.vector_cycles()];
                (ctx.into_kernel(), pipes)
            }
        }
    }
}

/// A kernel declaration. Its label and core set sit behind `Arc`s, so a
/// slice shares them instead of copying them.
pub(crate) struct KernelEntry {
    pub label: Arc<str>,
    pub cores: Arc<CoreRangeSet>,
    pub body: KernelBody,
}

/// Circular buffer declaration.
pub(crate) struct CbEntry {
    pub index: u8,
    pub cores: Arc<CoreRangeSet>,
    pub config: CircularBufferConfig,
}

/// Semaphore declaration (`CreateSemaphore`).
pub(crate) struct SemEntry {
    pub index: u8,
    pub cores: Arc<CoreRangeSet>,
    pub initial: u32,
}

/// A device program under construction.
#[derive(Default)]
pub struct Program {
    pub(crate) kernels: Vec<KernelEntry>,
    pub(crate) cbs: Vec<CbEntry>,
    pub(crate) sems: Vec<SemEntry>,
    /// Runtime args by (kernel index, core); an instance without an entry
    /// gets none.
    args: HashMap<(usize, CoreCoord), Arc<[u32]>>,
}

impl Program {
    /// Empty program.
    #[must_use]
    pub fn new() -> Self {
        Program::default()
    }

    /// Declare circular buffer `index` with `config` on every core in
    /// `cores` (`CreateCircularBuffer`).
    ///
    /// # Panics
    /// Panics on an out-of-range CB index or a duplicate declaration for the
    /// same index/range.
    pub fn add_circular_buffer(
        &mut self,
        cores: CoreRangeSet,
        index: u8,
        config: CircularBufferConfig,
    ) {
        assert!(
            (index as usize) < cb_index::NUM_CBS,
            "CB index {index} out of range (0..{})",
            cb_index::NUM_CBS
        );
        for existing in &self.cbs {
            if existing.index == index {
                let dup = existing.cores.iter().any(|c| cores.contains(c));
                assert!(!dup, "CB {index} declared twice for overlapping cores");
            }
        }
        self.cbs.push(CbEntry { index, cores: Arc::new(cores), config });
    }

    /// Declare semaphore `index` initialized to `initial` on every core in
    /// `cores` (`CreateSemaphore`). Each core gets its own counter, as on
    /// hardware (semaphores live in core-local L1).
    ///
    /// # Panics
    /// Panics on an out-of-range semaphore index or a duplicate declaration
    /// for overlapping cores.
    pub fn add_semaphore(&mut self, cores: CoreRangeSet, index: u8, initial: u32) {
        assert!(
            usize::from(index) < NUM_SEMAPHORES,
            "semaphore index {index} out of range (0..{NUM_SEMAPHORES})"
        );
        for existing in &self.sems {
            if existing.index == index {
                let dup = existing.cores.iter().any(|c| cores.contains(c));
                assert!(!dup, "semaphore {index} declared twice for overlapping cores");
            }
        }
        self.sems.push(SemEntry { index, cores: Arc::new(cores), initial });
    }

    /// Add a data-movement kernel on `cores`, bound to `noc`
    /// (`CreateKernel` with a `DataMovementConfig`).
    pub fn add_data_movement_kernel(
        &mut self,
        label: impl Into<String>,
        cores: CoreRangeSet,
        noc: NocId,
        kernel: Arc<dyn DataMovementKernel>,
    ) -> KernelId {
        self.kernels.push(KernelEntry {
            label: label.into().into(),
            cores: Arc::new(cores),
            body: KernelBody::DataMovement { noc, kernel },
        });
        KernelId(self.kernels.len() - 1)
    }

    /// Add a compute kernel on `cores` with math format `format`
    /// (`CreateKernel` with a `ComputeConfig`).
    pub fn add_compute_kernel(
        &mut self,
        label: impl Into<String>,
        cores: CoreRangeSet,
        format: DataFormat,
        kernel: Arc<dyn ComputeKernel>,
    ) -> KernelId {
        self.kernels.push(KernelEntry {
            label: label.into().into(),
            cores: Arc::new(cores),
            body: KernelBody::Compute { format, kernel },
        });
        KernelId(self.kernels.len() - 1)
    }

    /// Set per-core runtime args for one kernel (`SetRuntimeArgs`).
    ///
    /// # Panics
    /// Panics if `core` is not in the kernel's core set.
    pub fn set_runtime_args(
        &mut self,
        kernel: KernelId,
        core: CoreCoord,
        args: impl Into<Arc<[u32]>>,
    ) {
        let entry = &self.kernels[kernel.0];
        assert!(
            entry.cores.contains(core),
            "core {core} is not in the core set of kernel '{}'",
            entry.label
        );
        self.args.insert((kernel.0, core), args.into());
    }

    /// Number of kernels.
    #[must_use]
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// L1 bytes of CB storage this program needs on `core`.
    #[must_use]
    pub fn cb_bytes_on_core(&self, core: CoreCoord) -> usize {
        self.cbs.iter().filter(|e| e.cores.contains(core)).map(|e| e.config.total_bytes()).sum()
    }

    /// The runtime args of kernel number `kernel` on `core`.
    pub(crate) fn args_for(&self, kernel: usize, core: CoreCoord) -> Arc<[u32]> {
        self.args.get(&(kernel, core)).cloned().unwrap_or_default()
    }

    /// Set per-core runtime args for `core` on *every* kernel whose core set
    /// contains it. Programs like the force pipeline hand identical
    /// `[start, count, …]` args to their reader/compute/writer trio, so a
    /// launch can set one core's tile window in a single call without
    /// holding on to [`KernelId`]s. The kernels share one copy of `args`.
    pub fn set_runtime_args_all_kernels(&mut self, core: CoreCoord, args: impl Into<Arc<[u32]>>) {
        let args = args.into();
        for (k, entry) in self.kernels.iter().enumerate() {
            if entry.cores.contains(core) {
                self.args.insert((k, core), Arc::clone(&args));
            }
        }
    }

    /// Restrict the program to `cores`: kernels keep their order (and hence
    /// their [`KernelId`]s) but run only on those of `cores` in their core
    /// set, in the order of `cores`; CB and semaphore declarations outside
    /// `cores` are dropped. The slice shares the program's declarations and
    /// runtime args, so it can be given its own args with
    /// [`Self::set_runtime_args_all_kernels`] without disturbing the
    /// original program. A force launch slices its card's template program
    /// this way, and a partial redo slices the faulting cores again.
    #[must_use]
    pub fn slice_for_cores(&self, cores: &[CoreCoord]) -> Program {
        let set_of = |cores: &mut dyn Iterator<Item = &CoreCoord>| {
            Arc::new(CoreRangeSet::new(cores.map(|&c| CoreRange::single(c)).collect()))
        };
        // Declarations on every sliced core (all of them, in a template)
        // share one restricted set.
        let all = set_of(&mut cores.iter());
        let restrict = |set: &Arc<CoreRangeSet>| {
            if cores.iter().all(|&c| set.contains(c)) {
                Arc::clone(&all)
            } else {
                set_of(&mut cores.iter().filter(|&&c| set.contains(c)))
            }
        };
        let kernels = self
            .kernels
            .iter()
            .map(|entry| KernelEntry {
                label: Arc::clone(&entry.label),
                cores: restrict(&entry.cores),
                body: entry.body.clone(),
            })
            .collect();
        let cbs = self
            .cbs
            .iter()
            .map(|e| CbEntry { index: e.index, cores: restrict(&e.cores), config: e.config })
            .filter(|e| e.cores.num_cores() > 0)
            .collect();
        let sems = self
            .sems
            .iter()
            .map(|e| SemEntry { index: e.index, cores: restrict(&e.cores), initial: e.initial })
            .filter(|e| e.cores.num_cores() > 0)
            .collect();
        let args = self
            .args
            .iter()
            .filter(|((_, c), _)| cores.contains(c))
            .map(|(key, a)| (*key, Arc::clone(a)))
            .collect();
        Program { kernels, cbs, sems, args }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::DataMovementCtx;
    use tensix::grid::CoreRange;

    fn cores(n: usize) -> CoreRangeSet {
        CoreRangeSet::first_n(n, 8)
    }

    fn noop_dm() -> Arc<dyn DataMovementKernel> {
        Arc::new(async |_ctx: &mut DataMovementCtx| {})
    }

    #[test]
    fn build_program_with_cbs_and_kernels() {
        let mut p = Program::new();
        let cfg = CircularBufferConfig::new(2, DataFormat::Float32);
        p.add_circular_buffer(cores(4), cb_index::IN0, cfg);
        p.add_circular_buffer(cores(4), cb_index::OUT0, cfg);
        let k = p.add_data_movement_kernel("reader", cores(4), NocId::Noc0, noop_dm());
        p.set_runtime_args(k, CoreCoord::new(0, 0), vec![9]);
        assert_eq!(p.num_kernels(), 1);
        assert_eq!(p.cb_bytes_on_core(CoreCoord::new(0, 0)), 2 * 2 * 4096);
        assert_eq!(p.cb_bytes_on_core(CoreCoord::new(7, 7)), 0);
        // A core without args of its own gets none.
        assert_eq!(*p.args_for(0, CoreCoord::new(0, 0)), [9]);
        assert!(p.args_for(0, CoreCoord::new(1, 0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn duplicate_cb_rejected() {
        let mut p = Program::new();
        let cfg = CircularBufferConfig::new(2, DataFormat::Float32);
        p.add_circular_buffer(cores(4), cb_index::IN0, cfg);
        p.add_circular_buffer(cores(2), cb_index::IN0, cfg);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cb_index_range_checked() {
        let mut p = Program::new();
        p.add_circular_buffer(cores(1), 32, CircularBufferConfig::new(1, DataFormat::Float32));
    }

    #[test]
    #[should_panic(expected = "semaphore index 16 out of range")]
    fn semaphore_index_range_checked() {
        let mut p = Program::new();
        p.add_semaphore(cores(1), 15, 0);
        p.add_semaphore(cores(1), 16, 0);
    }

    #[test]
    #[should_panic(expected = "not in the core set")]
    fn runtime_args_for_foreign_core_rejected() {
        let mut p = Program::new();
        let k = p.add_data_movement_kernel("reader", cores(2), NocId::Noc0, noop_dm());
        p.set_runtime_args(k, CoreCoord::new(5, 5), vec![]);
    }

    #[test]
    fn slice_keeps_kernel_ids_and_drops_foreign_cores() {
        let mut p = Program::new();
        let cfg = CircularBufferConfig::new(2, DataFormat::Float32);
        p.add_circular_buffer(cores(4), cb_index::IN0, cfg);
        let k = p.add_data_movement_kernel("reader", cores(4), NocId::Noc0, noop_dm());
        for (i, core) in cores(4).iter().enumerate() {
            p.set_runtime_args(k, core, vec![i as u32, 1]);
        }
        let target = CoreCoord::new(2, 0);
        let mut slice = p.slice_for_cores(&[target]);
        // Kernel order (and thus ids/launch order) is preserved; only the
        // requested core survives.
        assert_eq!(slice.num_kernels(), 1);
        assert_eq!(slice.kernels[0].cores.iter().collect::<Vec<_>>(), vec![target]);
        assert_eq!(*slice.args_for(0, target), [2, 1]);
        assert_eq!(slice.cbs.len(), 1);
        assert!(slice.cb_bytes_on_core(target) > 0);
        assert_eq!(slice.cb_bytes_on_core(CoreCoord::new(0, 0)), 0);
        // Re-targeting the slice leaves the original program untouched.
        slice.set_runtime_args_all_kernels(target, vec![7, 9]);
        assert_eq!(*slice.args_for(0, target), [7, 9]);
        assert_eq!(*p.args_for(0, target), [2, 1]);
    }

    #[test]
    fn disjoint_core_sets_can_share_cb_index() {
        let mut p = Program::new();
        let cfg = CircularBufferConfig::new(1, DataFormat::Float32);
        let a = CoreRangeSet::new(vec![CoreRange::single(CoreCoord::new(0, 0))]);
        let b = CoreRangeSet::new(vec![CoreRange::single(CoreCoord::new(1, 0))]);
        p.add_circular_buffer(a, cb_index::IN0, cfg);
        p.add_circular_buffer(b, cb_index::IN0, cfg); // fine: disjoint
        assert_eq!(p.cbs.len(), 2);
    }
}
