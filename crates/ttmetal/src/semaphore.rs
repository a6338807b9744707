//! Semaphores — TT-Metalium's second synchronization primitive.
//!
//! Besides circular buffers, kernels coordinate through L1 semaphores:
//! `CreateSemaphore` allocates a 32-bit counter per core, and kernels use
//! `noc_semaphore_set` / `noc_semaphore_inc` / `noc_semaphore_wait` to
//! implement barriers and producer tokens (real multi-core kernels use them
//! for multicast hand-shakes). The simulator backs each with an atomic
//! counter. A wait is a future over the counter's value, pending until a
//! peer kernel on the same core sets or increments it; each set and
//! increment bumps the core's [`ChangeCounter`], as CB pushes and pops do.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use tensix::cb::{until, ChangeCounter};

/// Semaphore slots per core: a program's semaphore indices are
/// `0..NUM_SEMAPHORES`.
pub const NUM_SEMAPHORES: usize = 16;

/// One L1 semaphore (a 32-bit counter). Clones share the counter.
#[derive(Debug, Clone)]
pub struct Semaphore {
    value: Arc<AtomicU32>,
    changes: ChangeCounter,
}

impl Semaphore {
    /// Semaphore initialized to `initial`, with a change counter of its own.
    #[must_use]
    pub fn new(initial: u32) -> Self {
        Self::on_core(initial, ChangeCounter::default())
    }

    /// Semaphore initialized to `initial` on the core whose changes
    /// `changes` counts.
    #[must_use]
    pub fn on_core(initial: u32, changes: ChangeCounter) -> Self {
        Semaphore { value: Arc::new(AtomicU32::new(initial)), changes }
    }

    /// `noc_semaphore_set`: overwrite the counter.
    pub fn set(&self, value: u32) {
        self.value.store(value, Ordering::Relaxed);
        self.changes.bump();
    }

    /// `noc_semaphore_inc`: add `delta` (wrapping, as the 32-bit counter
    /// does on hardware).
    pub fn inc(&self, delta: u32) {
        self.value.fetch_add(delta, Ordering::Relaxed);
        self.changes.bump();
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u32 {
        self.value.load(Ordering::Relaxed)
    }

    /// `noc_semaphore_wait`: wait until the counter equals `target`.
    pub async fn wait(&self, target: u32) {
        until(|| self.value() == target).await;
    }

    /// Wait until the counter is at least `target` (the common token
    /// pattern).
    pub async fn wait_min(&self, target: u32) {
        until(|| self.value() >= target).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::future::Future;
    use std::pin::pin;
    use std::task::{Context, Poll, Waker};

    fn poll<F: Future>(f: std::pin::Pin<&mut F>) -> Poll<F::Output> {
        f.poll(&mut Context::from_waker(Waker::noop()))
    }

    #[test]
    fn set_inc_value() {
        let s = Semaphore::new(0);
        assert_eq!(s.value(), 0);
        s.inc(3);
        assert_eq!(s.value(), 3);
        s.set(1);
        assert_eq!(s.value(), 1);
        s.inc(u32::MAX);
        assert_eq!(s.value(), 0, "wraps like the 32-bit hardware counter");
    }

    #[test]
    fn wait_resolves_at_target() {
        let s = Semaphore::new(0);
        let mut wait = pin!(s.wait(4));
        assert_eq!(poll(wait.as_mut()), Poll::Pending);
        s.inc(2);
        assert_eq!(poll(wait.as_mut()), Poll::Pending, "must still wait at 2");
        s.inc(2);
        assert_eq!(poll(wait.as_mut()), Poll::Ready(()));
    }

    #[test]
    fn producer_token_barrier() {
        // Four producers each post a token; a consumer proceeds at 4 —
        // the multicast-receiver handshake pattern. Every post counts as a
        // change.
        let changes = ChangeCounter::default();
        let s = Semaphore::on_core(0, changes.clone());
        let mut consumer = pin!(s.wait_min(4));
        for posted in 1..=4 {
            assert_eq!(poll(consumer.as_mut()), Poll::Pending);
            s.inc(1);
            assert_eq!(changes.get(), posted);
        }
        assert_eq!(poll(consumer.as_mut()), Poll::Ready(()));
        s.set(9);
        assert_eq!((s.value(), changes.get()), (9, 5));
    }
}
