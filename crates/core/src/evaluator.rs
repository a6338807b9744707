//! Backend-agnostic force evaluation — the seam between the Hermite driver
//! and whatever computes forces.
//!
//! [`ForceEvaluator`] abstracts the three execution paths (single-card
//! [`DeviceForcePipeline`], the multi-card ring
//! [`crate::multi_device::MultiDevicePipeline`], and the CPU reference via
//! [`CpuForceEvaluator`]) behind one trait the simulation drivers are
//! generic over, so checkpoint/restart, watchdogs and FP64 accumulation
//! work unchanged on any backend.
//!
//! Every evaluation is an active-set evaluation: full-N is the
//! [`ActiveSet::full`] case, so each backend has one launch path. On the
//! device that path is [`DeviceForcePipeline`]'s one retry/salvage/
//! partial-redo driver, which the single card, every ring member and the
//! tree's near-field patches all launch through; both force kernels launch
//! a subset at its own size. [`ForceEvaluator::evaluate_active_with_retry`]
//! hands that driver the caller's retry policy for any active set.

use nbody::force::ForceKernel;
use nbody::particle::{Forces, ParticleSystem};
use ttmetal::{LaunchError, ProgramReport};

use crate::pipeline::{DeviceForcePipeline, PipelineTiming, RetryPolicy};

/// The set of target particles due for a force evaluation — the primitive
/// the block-timestep scheduler launches with. Indices are kept sorted and
/// deduplicated; full-N is the special case [`ActiveSet::full`].
///
/// An active evaluation computes forces on *these* targets against **all**
/// `n` sources, so row `k` of the result corresponds to particle
/// `indices()[k]`. Backends pack the targets densely (gathered tiles on the
/// device, a front-permutation on the CPU) so the launch costs O(|A|·N)
/// instead of O(N²).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSet {
    indices: Vec<usize>,
    n: usize,
}

impl ActiveSet {
    /// Active set from target indices into a system of `n` particles.
    /// Indices are sorted and deduplicated.
    ///
    /// # Panics
    /// Panics if any index is `>= n`.
    #[must_use]
    pub fn from_indices(mut indices: Vec<usize>, n: usize) -> Self {
        indices.sort_unstable();
        indices.dedup();
        if let Some(&last) = indices.last() {
            assert!(last < n, "active index {last} out of range for n = {n}");
        }
        ActiveSet { indices, n }
    }

    /// The full-N set: every particle active (the shared-step special case).
    #[must_use]
    pub fn full(n: usize) -> Self {
        ActiveSet { indices: (0..n).collect(), n }
    }

    /// Whether every particle is active.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.indices.len() == self.n
    }

    /// Number of active targets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the set is empty (a degenerate block: nothing to launch).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Particle count of the system this set indexes into.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The sorted active indices.
    #[must_use]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Pack the membership into little-endian `u64` words (bit `i % 64` of
    /// word `i / 64` set iff particle `i` is active) — the checkpoint
    /// format's view of the set.
    #[must_use]
    pub fn bitmap(&self) -> Vec<u64> {
        let mut words = vec![0u64; self.n.div_ceil(64)];
        for &i in &self.indices {
            words[i / 64] |= 1u64 << (i % 64);
        }
        words
    }

    /// Rebuild a set from its [`Self::bitmap`] words.
    ///
    /// # Panics
    /// Panics if `words` is shorter than `n` bits or a bit past `n` is set.
    #[must_use]
    pub fn from_bitmap(words: &[u64], n: usize) -> Self {
        assert!(words.len() >= n.div_ceil(64), "bitmap too short for n = {n}");
        let mut indices = Vec::new();
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                let i = w * 64 + b;
                assert!(i < n, "bitmap bit {i} past n = {n}");
                indices.push(i);
                bits &= bits - 1;
            }
        }
        ActiveSet { indices, n }
    }
}

/// Gather the active rows of a full-system force evaluation, for a backend
/// that cannot pack a subset (the tree's masked walk).
#[must_use]
pub(crate) fn gather_rows(full: &Forces, active: &ActiveSet) -> Forces {
    let mut out = Forces::zeros(active.len());
    for (k, &i) in active.indices().iter().enumerate() {
        out.acc[k] = full.acc[i];
        out.jerk[k] = full.jerk[i];
    }
    out
}

/// A backend that can evaluate gravitational forces and jerks for a fixed
/// particle count, with structured errors, retries, and virtual-time
/// accounting.
///
/// Methods take `&self`: implementations use interior mutability so one
/// evaluator can sit behind an `Arc` shared by the Hermite driver's
/// launches and its recovery logic.
pub trait ForceEvaluator: Send + Sync {
    /// Name of the backend (reported as the outcome's kernel name).
    fn backend(&self) -> &'static str;

    /// Particle count the evaluator was built for.
    fn n(&self) -> usize;

    /// Plummer softening length.
    fn softening(&self) -> f64;

    /// One full-N force + jerk evaluation with structured launch errors:
    /// [`Self::evaluate_active`] on [`ActiveSet::full`].
    ///
    /// # Errors
    /// [`LaunchError`] identifying the faulting kernel/core, device loss, or
    /// a device-layer error.
    fn evaluate_checked(
        &self,
        system: &ParticleSystem,
    ) -> std::result::Result<Forces, LaunchError> {
        self.evaluate_active(system, &ActiveSet::full(self.n()))
    }

    /// [`Self::evaluate_checked`] with bounded in-place retries for
    /// transient faults (card loss is never retried in place).
    ///
    /// # Errors
    /// The final [`LaunchError`] when the retry budget is exhausted or the
    /// fault is not transient.
    fn evaluate_with_retry(
        &self,
        system: &ParticleSystem,
        policy: RetryPolicy,
    ) -> std::result::Result<Forces, LaunchError>;

    /// Forces and jerks on the `active` targets only, against **all** `n`
    /// sources: row `k` of the result is the force on particle
    /// `active.indices()[k]`. This is every backend's one launch path and
    /// the block-timestep scheduler's primitive; full-N evaluation is the
    /// [`ActiveSet::full`] case. Backends launch O(|A|·N) work for a subset
    /// (gathered target tiles on the device, a front-permutation plus range
    /// compute on the CPU).
    ///
    /// # Errors
    /// Same contract as [`Self::evaluate_checked`].
    fn evaluate_active(
        &self,
        system: &ParticleSystem,
        active: &ActiveSet,
    ) -> std::result::Result<Forces, LaunchError>;

    /// [`Self::evaluate_active`] with bounded in-place retries under
    /// `policy`: the block-timestep scheduler's launch. A full set takes
    /// [`Self::evaluate_with_retry`]; the default re-runs a failed subset
    /// launch whole, up to `policy.max_retries` times. Device backends
    /// override it with their one launch driver, so subset retries get the
    /// policy's partial-redo salvage and backoff billing too.
    ///
    /// # Errors
    /// Same contract as [`Self::evaluate_with_retry`].
    fn evaluate_active_with_retry(
        &self,
        system: &ParticleSystem,
        active: &ActiveSet,
        policy: RetryPolicy,
    ) -> std::result::Result<Forces, LaunchError> {
        if active.is_full() {
            return self.evaluate_with_retry(system, policy);
        }
        let mut attempt = 0u32;
        loop {
            match self.evaluate_active(system, active) {
                Ok(f) => return Ok(f),
                Err(e) if e.is_transient() && attempt < policy.max_retries => attempt += 1,
                Err(e) => return Err(e),
            }
        }
    }

    /// Accumulated virtual-time accounting, `None` for backends with no
    /// device clock (the CPU reference).
    fn timing(&self) -> Option<PipelineTiming>;

    /// Report of the most recent successful launch, `None` before the first
    /// evaluation or for backends without launch reports.
    fn last_launch_report(&self) -> Option<ProgramReport>;

    /// Try to absorb a card loss so the caller can restore its checkpoint
    /// and replay: reset dead cards, rebuild launch state. `Ok(())` means
    /// the evaluator is usable again; the default refuses (backends that
    /// cannot rebuild themselves surface the cause unchanged).
    ///
    /// # Errors
    /// The original `cause` when recovery is not supported, or the reset /
    /// rebuild failure when it is.
    fn recover_device_loss(&self, cause: LaunchError) -> std::result::Result<(), LaunchError> {
        Err(cause)
    }
}

// ---------------------------------------------------------------------------
// Trait implementations for the three execution paths.
// ---------------------------------------------------------------------------

impl ForceEvaluator for DeviceForcePipeline {
    fn backend(&self) -> &'static str {
        "tenstorrent-wormhole"
    }

    fn n(&self) -> usize {
        DeviceForcePipeline::n(self)
    }

    fn softening(&self) -> f64 {
        DeviceForcePipeline::softening(self)
    }

    fn evaluate_with_retry(
        &self,
        system: &ParticleSystem,
        policy: RetryPolicy,
    ) -> std::result::Result<Forces, LaunchError> {
        self.launch(system, &ActiveSet::full(self.n()), policy)
    }

    fn evaluate_active(
        &self,
        system: &ParticleSystem,
        active: &ActiveSet,
    ) -> std::result::Result<Forces, LaunchError> {
        self.launch(system, active, RetryPolicy::disabled())
    }

    fn evaluate_active_with_retry(
        &self,
        system: &ParticleSystem,
        active: &ActiveSet,
        policy: RetryPolicy,
    ) -> std::result::Result<Forces, LaunchError> {
        self.launch(system, active, policy)
    }

    fn timing(&self) -> Option<PipelineTiming> {
        Some(DeviceForcePipeline::timing(self))
    }

    fn last_launch_report(&self) -> Option<ProgramReport> {
        DeviceForcePipeline::last_launch_report(self)
    }

    fn recover_device_loss(&self, cause: LaunchError) -> std::result::Result<(), LaunchError> {
        DeviceForcePipeline::recover_device_loss(self, cause)
    }
}

/// A CPU force kernel behind the evaluator seam. Infallible, no device
/// clock: `timing()` is `None` and the retry policy is irrelevant.
pub struct CpuForceEvaluator<K: ForceKernel> {
    kernel: K,
    n: usize,
}

impl<K: ForceKernel> CpuForceEvaluator<K> {
    /// Wrap `kernel` for systems of `n` particles.
    #[must_use]
    pub fn new(kernel: K, n: usize) -> Self {
        CpuForceEvaluator { kernel, n }
    }

    /// The wrapped kernel.
    #[must_use]
    pub fn kernel(&self) -> &K {
        &self.kernel
    }
}

impl<K: ForceKernel> ForceEvaluator for CpuForceEvaluator<K> {
    fn backend(&self) -> &'static str {
        self.kernel.name()
    }

    fn n(&self) -> usize {
        self.n
    }

    fn softening(&self) -> f64 {
        self.kernel.softening()
    }

    fn evaluate_with_retry(
        &self,
        system: &ParticleSystem,
        _policy: RetryPolicy,
    ) -> std::result::Result<Forces, LaunchError> {
        Ok(self.kernel.compute(system))
    }

    fn evaluate_active(
        &self,
        system: &ParticleSystem,
        active: &ActiveSet,
    ) -> std::result::Result<Forces, LaunchError> {
        if active.is_empty() {
            return Ok(Forces::zeros(0));
        }
        if active.is_full() {
            return Ok(self.kernel.compute(system));
        }
        // Permute the active targets to the front and compute the contiguous
        // prefix against all sources — O(|A|·N). The permuted source order is
        // deterministic in the active set, so block-step runs replay bitwise.
        let n = system.len();
        let mut in_active = vec![false; n];
        for &i in active.indices() {
            in_active[i] = true;
        }
        let mut permuted = ParticleSystem::with_capacity(n);
        permuted.time = system.time;
        for &i in active.indices() {
            permuted.push(system.mass[i], system.pos[i], system.vel[i]);
        }
        for i in (0..n).filter(|i| !in_active[*i]) {
            permuted.push(system.mass[i], system.pos[i], system.vel[i]);
        }
        Ok(self.kernel.compute_range(&permuted, 0, active.len()))
    }

    fn timing(&self) -> Option<PipelineTiming> {
        None
    }

    fn last_launch_report(&self) -> Option<ProgramReport> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody::force::ReferenceKernel;
    use nbody::ic::{plummer, PlummerConfig};
    use std::sync::Arc;
    use tensix::{Device, DeviceConfig};

    fn device() -> Arc<Device> {
        Device::new(0, DeviceConfig::default())
    }

    #[test]
    fn pipeline_and_cpu_evaluators_share_the_seam() {
        let n = 96;
        let sys = plummer(PlummerConfig { n, seed: 90, ..PlummerConfig::default() });
        let dev: Arc<dyn ForceEvaluator> =
            Arc::new(DeviceForcePipeline::new(device(), n, 0.01, 1).unwrap());
        let cpu: Arc<dyn ForceEvaluator> =
            Arc::new(CpuForceEvaluator::new(ReferenceKernel::new(0.01), n));
        for ev in [&dev, &cpu] {
            assert_eq!(ev.n(), n);
            assert_eq!(ev.softening(), 0.01);
            let f = ev.evaluate_checked(&sys).unwrap();
            assert_eq!(f.len(), n);
        }
        assert!(dev.timing().is_some());
        assert!(cpu.timing().is_none());
        assert!(dev.timing().unwrap().busy_cycles > 0);
        assert!(dev.last_launch_report().is_some());
        assert!(cpu.last_launch_report().is_none());
    }

    #[test]
    fn cpu_evaluator_refuses_recovery() {
        let ev = CpuForceEvaluator::new(ReferenceKernel::new(0.01), 8);
        let err = ev.recover_device_loss(LaunchError::DeviceLost { device_id: 0 }).unwrap_err();
        assert!(matches!(err, LaunchError::DeviceLost { device_id: 0 }));
    }
}
