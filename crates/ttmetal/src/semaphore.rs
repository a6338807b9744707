//! Semaphores — TT-Metalium's second synchronization primitive.
//!
//! Besides circular buffers, kernels coordinate through L1 semaphores:
//! `CreateSemaphore` allocates a 32-bit counter per core, and kernels use
//! `noc_semaphore_set` / `noc_semaphore_inc` / `noc_semaphore_wait` to
//! implement barriers and producer tokens (real multi-core kernels use them
//! for multicast hand-shakes). The simulator backs each with a
//! mutex+condvar counter whose waits share their core's exact deadlock
//! detection with its CBs ([`tensix::CoreWaits`]), and the command queue
//! poisons semaphores on abnormal teardown so blocked waiters unwind with a
//! typed [`tensix::fault::KernelInterrupt`] instead of hanging.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use tensix::fault::{raise_interrupt, CoreWaits, InterruptKind, ObjectWaits};

#[derive(Debug)]
struct SemState {
    value: u32,
    /// Set on abnormal program teardown; wakes blocked waiters with a typed
    /// interrupt instead of deadlocking.
    poisoned: bool,
    /// This semaphore's share of its core's deadlock detection.
    waits: ObjectWaits,
}

/// One L1 semaphore (a 32-bit counter). Clones share the counter.
#[derive(Debug, Clone)]
pub struct Semaphore {
    inner: Arc<(Mutex<SemState>, Condvar)>,
}

impl Semaphore {
    /// Semaphore initialized to `initial`, outside any launch: its waits
    /// block until satisfied or poisoned.
    #[must_use]
    pub fn new(initial: u32) -> Self {
        Self::on_core(initial, None)
    }

    /// Semaphore initialized to `initial` on the core `core` detects
    /// deadlocks for: a wait that completes a deadlock raises
    /// [`InterruptKind::Deadlock`].
    #[must_use]
    pub fn on_core(initial: u32, core: Option<Arc<CoreWaits>>) -> Self {
        let state = SemState { value: initial, poisoned: false, waits: ObjectWaits::new(core) };
        Semaphore { inner: Arc::new((Mutex::new(state), Condvar::new())) }
    }

    /// `noc_semaphore_set`: overwrite the counter.
    pub fn set(&self, value: u32) {
        self.update(|st| st.value = value);
    }

    /// `noc_semaphore_inc`: add `delta` (wrapping, as the 32-bit counter
    /// does on hardware).
    pub fn inc(&self, delta: u32) {
        self.update(|st| st.value = st.value.wrapping_add(delta));
    }

    /// Apply one change and wake every waiter.
    fn update(&self, change: impl FnOnce(&mut SemState)) {
        let (lock, cvar) = &*self.inner;
        let mut st = lock.lock();
        change(&mut st);
        st.waits.changed();
        cvar.notify_all();
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u32 {
        self.inner.0.lock().value
    }

    /// Poison the semaphore, waking any blocked waiter with a typed
    /// [`tensix::fault::KernelInterrupt`]. Used on abnormal program teardown.
    pub fn poison(&self) {
        self.update(|st| st.poisoned = true);
    }

    /// `noc_semaphore_wait`: block until the counter equals `target`.
    ///
    /// # Panics
    /// Raises a typed [`tensix::fault::KernelInterrupt`] if poisoned or if
    /// the wait deadlocks its core.
    pub fn wait(&self, target: u32) {
        let (lock, cvar) = &*self.inner;
        let mut st = lock.lock();
        let mut seen = None;
        while st.value != target {
            if st.poisoned {
                raise_interrupt(
                    InterruptKind::Poisoned,
                    format!("semaphore poisoned while waiting for value {target}"),
                );
            }
            if st.waits.park(&mut seen) {
                raise_interrupt(
                    InterruptKind::Deadlock,
                    format!("noc_semaphore_wait({target}) deadlocked at value {}", st.value),
                );
            }
            cvar.wait(&mut st);
        }
    }

    /// Wait until the counter is at least `target` (the common token
    /// pattern).
    ///
    /// # Panics
    /// Raises a typed [`tensix::fault::KernelInterrupt`] if poisoned or if
    /// the wait deadlocks its core.
    pub fn wait_min(&self, target: u32) {
        let (lock, cvar) = &*self.inner;
        let mut st = lock.lock();
        let mut seen = None;
        while st.value < target {
            if st.poisoned {
                raise_interrupt(
                    InterruptKind::Poisoned,
                    format!("semaphore poisoned while waiting for at least {target}"),
                );
            }
            if st.waits.park(&mut seen) {
                raise_interrupt(
                    InterruptKind::Deadlock,
                    format!("noc_semaphore_wait_min({target}) deadlocked at {}", st.value),
                );
            }
            cvar.wait(&mut st);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;
    use tensix::fault::KernelInterrupt;

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
    fn wait_blocks_until_target() {
        let s = Semaphore::new(0);
        let s2 = s.clone();
        let waiter = thread::spawn(move || {
            s2.wait(4);
            s2.value()
        });
        thread::sleep(Duration::from_millis(30));
        s.inc(2);
        thread::sleep(Duration::from_millis(10));
        assert!(!waiter.is_finished(), "must still be blocked at 2");
        s.inc(2);
        assert_eq!(waiter.join().unwrap(), 4);
    }

    #[test]
    fn producer_token_barrier() {
        // Four producers each post a token; a consumer proceeds at 4 —
        // the multicast-receiver handshake pattern.
        let s = Semaphore::new(0);
        thread::scope(|scope| {
            for _ in 0..4 {
                let p = s.clone();
                scope.spawn(move || p.inc(1));
            }
            let c = s.clone();
            scope.spawn(move || c.wait_min(4)).join().unwrap();
        });
        assert_eq!(s.value(), 4);
    }

    #[test]
    fn poison_wakes_blocked_waiter_with_typed_interrupt() {
        let s = Semaphore::new(0);
        let s2 = s.clone();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            s2.poison();
        });
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.wait(1)))
            .expect_err("wait must unwind once poisoned");
        let interrupt = payload.downcast::<KernelInterrupt>().expect("typed interrupt payload");
        assert_eq!(interrupt.kind, InterruptKind::Poisoned);
    }

    #[test]
    fn wait_that_parks_every_instance_raises_deadlock_interrupt() {
        // A core with one instance: its first park is a deadlock.
        let waits = Arc::new(CoreWaits::default());
        waits.add_instance();
        let s = Semaphore::on_core(0, Some(waits));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.wait_min(1)))
            .expect_err("a wait nothing can satisfy must unwind");
        let interrupt = payload.downcast::<KernelInterrupt>().expect("typed interrupt payload");
        assert_eq!(interrupt.kind, InterruptKind::Deadlock);
        assert!(interrupt.detail.contains("wait_min"));
    }
}
