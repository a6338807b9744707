//! Software-managed circular buffers (CBs).
//!
//! CBs are the producer/consumer channels between the data-movement and
//! compute kernels of a Tensix core. The paper's pipeline hinges on their
//! four control primitives, which we reproduce with identical semantics:
//!
//! * `cb_reserve_back(n)` — producer blocks until `n` pages are free, then
//!   reserves them (back-pressure: prevents overwriting unconsumed data);
//! * `cb_push_back(n)` — producer publishes `n` previously written pages;
//! * `cb_wait_front(n)` — consumer blocks until `n` pages are visible;
//! * `cb_pop_front(n)` — consumer releases `n` pages.
//!
//! One page holds one tile. The simulator backs each CB with a real
//! mutex/condvar channel so kernels running on separate OS threads exhibit
//! genuine overlap of computation and communication, exactly like the
//! dataflow execution model described in the paper.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::dtype::DataFormat;
use crate::fault::{raise_interrupt, CoreWaits, InterruptKind, ObjectWaits};
use crate::tile::Tile;

/// Lock-free predicate re-checks before a blocked CB primitive takes the
/// mutex and parks on the condvar. With zero-copy (`Arc`) pages the
/// critical sections around a page hand-off are tens of nanoseconds, so a
/// streaming producer/consumer pair otherwise degenerates into one futex
/// park/wake per page. Polling the occupancy mirrors (maintained outside
/// the lock) lets the peer's next push/pop land first and recovers the
/// hand-off without that round trip — the software analogue of a Tensix
/// core polling its CB read/write pointers in L1. A short `spin_loop`
/// burst catches a peer running on another hardware thread; after that a
/// bounded run of `yield_now` hands the timeslice directly to the peer,
/// which is the case that matters on oversubscribed or single-CPU hosts
/// (one `sched_yield` instead of a futex park *plus* the peer's wake).
/// Stall *statistics* are unaffected (a failed first check counts as a
/// stall either way).
const SPIN_RECHECKS: usize = 16;

/// `yield_now` handoffs after the spin burst; see [`SPIN_RECHECKS`].
const YIELD_RECHECKS: usize = 256;

/// Poll `ready` through the spin-then-yield ladder before the caller falls
/// back to parking. Returns `true` if the predicate was ever observed
/// unsatisfied (i.e. the caller stalled).
fn poll_before_park(ready: impl Fn() -> bool) -> bool {
    let mut stalled = false;
    for round in 0..SPIN_RECHECKS + YIELD_RECHECKS {
        if ready() {
            return stalled;
        }
        stalled = true;
        if round < SPIN_RECHECKS {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
    stalled
}

/// Static configuration of one circular buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircularBufferConfig {
    /// Capacity in pages (tiles). Double buffering uses 2, deeper pipelines
    /// more.
    pub num_pages: usize,
    /// Element format of each page.
    pub format: DataFormat,
}

impl CircularBufferConfig {
    /// Construct a config.
    ///
    /// # Panics
    /// Panics if `num_pages` is zero.
    #[must_use]
    pub fn new(num_pages: usize, format: DataFormat) -> Self {
        assert!(num_pages > 0, "a circular buffer needs at least one page");
        CircularBufferConfig { num_pages, format }
    }

    /// Total L1 bytes this CB occupies.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.num_pages * self.format.tile_bytes()
    }
}

/// Lifetime statistics of a CB, for tests and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CbStats {
    /// Pages ever published by the producer.
    pub pages_pushed: u64,
    /// Pages ever released by the consumer.
    pub pages_popped: u64,
    /// Maximum simultaneous occupancy (visible + reserved pages).
    pub max_occupancy: usize,
    /// Times `reserve_back` had to block.
    pub producer_stalls: u64,
    /// Times `wait_front` had to block.
    pub consumer_stalls: u64,
}

#[derive(Debug)]
struct CbState {
    /// Published pages, front = oldest.
    visible: VecDeque<Tile>,
    /// Pages written into reserved space but not yet published.
    staged: VecDeque<Tile>,
    /// Pages currently reserved by the producer (staged.len() <= reserved).
    reserved: usize,
    stats: CbStats,
    /// Set when the owning program is torn down mid-flight; wakes blocked
    /// kernels with a panic instead of deadlocking.
    poisoned: bool,
    /// This CB's share of its core's deadlock detection.
    waits: ObjectWaits,
}

/// The shared ring: guarded state plus lock-free occupancy mirrors that
/// waiters spin on before parking (see [`SPIN_RECHECKS`]). The mirrors are
/// only ever *written* under the mutex, so a reader that observes its
/// predicate satisfied and then takes the lock re-checks against the exact
/// state — the spin is a hint, never an authority.
#[derive(Debug)]
struct CbShared {
    state: Mutex<CbState>,
    cvar: Condvar,
    /// Mirror of `state.visible.len()`.
    visible_count: AtomicUsize,
    /// Mirror of `state.visible.len() + state.reserved`.
    used_count: AtomicUsize,
}

/// A circular buffer shared between the kernels of one core.
///
/// Cloning the handle is cheap (an `Arc`); all clones refer to the same ring.
#[derive(Debug, Clone)]
pub struct CircularBuffer {
    config: CircularBufferConfig,
    inner: Arc<CbShared>,
}

impl CircularBuffer {
    /// Create an empty CB outside any launch: its blocked primitives wait
    /// until satisfied or poisoned.
    #[must_use]
    pub fn new(config: CircularBufferConfig) -> Self {
        Self::on_core(config, None)
    }

    /// Create an empty CB on the core `core` detects deadlocks for. Real
    /// hardware would hang on a deadlocked pipeline; the simulator raises a
    /// [`InterruptKind::Deadlock`] interrupt in the wait that completes it.
    #[must_use]
    pub fn on_core(config: CircularBufferConfig, core: Option<Arc<CoreWaits>>) -> Self {
        CircularBuffer {
            config,
            inner: Arc::new(CbShared {
                state: Mutex::new(CbState {
                    visible: VecDeque::with_capacity(config.num_pages),
                    staged: VecDeque::new(),
                    reserved: 0,
                    stats: CbStats::default(),
                    poisoned: false,
                    waits: ObjectWaits::new(core),
                }),
                cvar: Condvar::new(),
                visible_count: AtomicUsize::new(0),
                used_count: AtomicUsize::new(0),
            }),
        }
    }

    /// This CB's configuration.
    #[must_use]
    pub fn config(&self) -> CircularBufferConfig {
        self.config
    }

    /// Block until `n` pages are free, then reserve them for the producer.
    /// Returns `true` if the call had to block (a producer stall) — the
    /// trace layer turns that into a `cb_stall` event.
    ///
    /// # Panics
    /// Panics if `n` exceeds the capacity (would deadlock on hardware).
    /// Raises a typed [`crate::fault::KernelInterrupt`] — caught and
    /// classified by the command queue — if the CB is poisoned or the wait
    /// deadlocks its core.
    pub fn reserve_back(&self, n: usize) -> bool {
        assert!(
            n <= self.config.num_pages,
            "cb_reserve_back({n}) exceeds capacity {} — permanent hang on hardware",
            self.config.num_pages
        );
        let inner = &*self.inner;
        // Lock-free fast path: poll the occupancy mirror while the ring
        // looks full, so the consumer's next pop is caught without a park.
        let mut stalled = poll_before_park(|| {
            inner.used_count.load(Ordering::Acquire) + n <= self.config.num_pages
        });
        let mut st = inner.state.lock();
        let mut seen = None;
        while st.visible.len() + st.reserved + n > self.config.num_pages {
            if st.poisoned {
                raise_interrupt(
                    InterruptKind::Poisoned,
                    format!("circular buffer poisoned while reserving {n} pages"),
                );
            }
            stalled = true;
            if st.waits.park(&mut seen) {
                raise_interrupt(
                    InterruptKind::Deadlock,
                    format!("cb_reserve_back({n}) deadlocked (capacity {})", self.config.num_pages),
                );
            }
            inner.cvar.wait(&mut st);
        }
        if stalled {
            st.stats.producer_stalls += 1;
        }
        st.reserved += n;
        let occ = st.visible.len() + st.reserved;
        inner.used_count.store(occ, Ordering::Release);
        st.stats.max_occupancy = st.stats.max_occupancy.max(occ);
        stalled
    }

    /// Write one tile into the reserved region (producer side, after
    /// [`CircularBuffer::reserve_back`]). The tile is quantized to the CB's
    /// format, modelling the packer.
    ///
    /// # Panics
    /// Panics if no reserved space remains.
    pub fn write_tile(&self, tile: &Tile) {
        let mut st = self.inner.state.lock();
        assert!(
            st.staged.len() < st.reserved,
            "write_tile without reserved space (staged {}, reserved {})",
            st.staged.len(),
            st.reserved
        );
        let converted = if tile.format() == self.config.format {
            tile.clone()
        } else {
            tile.convert(self.config.format)
        };
        st.staged.push_back(converted);
    }

    /// Publish `n` pages previously written with [`CircularBuffer::write_tile`].
    ///
    /// # Panics
    /// Panics if fewer than `n` pages are staged.
    pub fn push_back(&self, n: usize) {
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        assert!(
            st.staged.len() >= n && st.reserved >= n,
            "cb_push_back({n}) without matching reserve/write (staged {}, reserved {})",
            st.staged.len(),
            st.reserved
        );
        for _ in 0..n {
            let t = st.staged.pop_front().expect("staged length checked");
            st.visible.push_back(t);
        }
        st.reserved -= n;
        st.stats.pages_pushed += n as u64;
        inner.visible_count.store(st.visible.len(), Ordering::Release);
        st.waits.changed();
        inner.cvar.notify_all();
    }

    /// Block until `n` pages are visible to the consumer. Returns `true`
    /// if the call had to block (a consumer stall) — the trace layer
    /// turns that into a `cb_stall` event.
    ///
    /// # Panics
    /// Panics if `n` exceeds the capacity. Raises a typed
    /// [`crate::fault::KernelInterrupt`] if poisoned or if the wait
    /// deadlocks its core.
    pub fn wait_front(&self, n: usize) -> bool {
        assert!(
            n <= self.config.num_pages,
            "cb_wait_front({n}) exceeds capacity {} — permanent hang on hardware",
            self.config.num_pages
        );
        let inner = &*self.inner;
        // Lock-free fast path; see `reserve_back`.
        let mut stalled = poll_before_park(|| inner.visible_count.load(Ordering::Acquire) >= n);
        let mut st = inner.state.lock();
        let mut seen = None;
        while st.visible.len() < n {
            if st.poisoned {
                raise_interrupt(
                    InterruptKind::Poisoned,
                    format!("circular buffer poisoned while waiting for {n} pages"),
                );
            }
            stalled = true;
            if st.waits.park(&mut seen) {
                raise_interrupt(InterruptKind::Deadlock, format!("cb_wait_front({n}) deadlocked"));
            }
            inner.cvar.wait(&mut st);
        }
        if stalled {
            st.stats.consumer_stalls += 1;
        }
        stalled
    }

    /// Read the `idx`-th visible page (0 = oldest) without consuming it.
    /// Mirrors the compute kernel's `get_tile`/unpacker access after
    /// `cb_wait_front`.
    ///
    /// # Panics
    /// Panics if fewer than `idx + 1` pages are visible (call
    /// [`CircularBuffer::wait_front`] first).
    #[must_use]
    pub fn peek_tile(&self, idx: usize) -> Tile {
        let st = self.inner.state.lock();
        st.visible
            .get(idx)
            .unwrap_or_else(|| {
                panic!("peek_tile({idx}) with only {} visible pages", st.visible.len())
            })
            .clone()
    }

    /// Release `n` pages from the front.
    ///
    /// # Panics
    /// Panics if fewer than `n` pages are visible.
    pub fn pop_front(&self, n: usize) {
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        assert!(
            st.visible.len() >= n,
            "cb_pop_front({n}) with only {} visible pages",
            st.visible.len()
        );
        st.visible.drain(..n);
        st.stats.pages_popped += n as u64;
        inner.visible_count.store(st.visible.len(), Ordering::Release);
        inner.used_count.store(st.visible.len() + st.reserved, Ordering::Release);
        st.waits.changed();
        inner.cvar.notify_all();
    }

    /// Pages currently visible to the consumer.
    #[must_use]
    pub fn pages_visible(&self) -> usize {
        self.inner.state.lock().visible.len()
    }

    /// Lifetime statistics.
    #[must_use]
    pub fn stats(&self) -> CbStats {
        self.inner.state.lock().stats
    }

    /// Poison the CB, waking any blocked kernel with a typed
    /// [`crate::fault::KernelInterrupt`] of kind
    /// [`InterruptKind::Poisoned`]. Used on abnormal program teardown so
    /// sibling kernels unwind cleanly instead of deadlocking.
    pub fn poison(&self) {
        let mut st = self.inner.state.lock();
        st.poisoned = true;
        st.waits.changed();
        self.inner.cvar.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn cb(pages: usize) -> CircularBuffer {
        CircularBuffer::new(CircularBufferConfig::new(pages, DataFormat::Float32))
    }

    fn tile(v: f32) -> Tile {
        Tile::splat(DataFormat::Float32, v)
    }

    #[test]
    fn config_bytes() {
        let c = CircularBufferConfig::new(4, DataFormat::Float32);
        assert_eq!(c.total_bytes(), 4 * 4096);
        let c = CircularBufferConfig::new(2, DataFormat::Float16b);
        assert_eq!(c.total_bytes(), 2 * 2048);
    }

    #[test]
    fn fifo_order() {
        let cb = cb(4);
        cb.reserve_back(2);
        cb.write_tile(&tile(1.0));
        cb.write_tile(&tile(2.0));
        cb.push_back(2);
        cb.wait_front(2);
        assert_eq!(cb.peek_tile(0).get(0, 0), 1.0);
        assert_eq!(cb.peek_tile(1).get(0, 0), 2.0);
        cb.pop_front(1);
        assert_eq!(cb.peek_tile(0).get(0, 0), 2.0);
        cb.pop_front(1);
        assert_eq!(cb.pages_visible(), 0);
    }

    #[test]
    fn producer_blocks_until_consumer_pops() {
        let c = cb(2);
        c.reserve_back(2);
        c.write_tile(&tile(1.0));
        c.write_tile(&tile(2.0));
        c.push_back(2);

        let c2 = c.clone();
        let producer = thread::spawn(move || {
            // Blocks: ring is full.
            c2.reserve_back(1);
            c2.write_tile(&tile(3.0));
            c2.push_back(1);
        });
        thread::sleep(Duration::from_millis(50));
        assert_eq!(c.pages_visible(), 2, "third page must not be published yet");
        c.wait_front(1);
        c.pop_front(1);
        producer.join().unwrap();
        c.wait_front(2);
        assert_eq!(c.peek_tile(1).get(0, 0), 3.0);
        assert!(c.stats().producer_stalls >= 1);
    }

    #[test]
    fn consumer_blocks_until_producer_pushes() {
        let c = cb(2);
        let c2 = c.clone();
        let consumer = thread::spawn(move || {
            c2.wait_front(1);
            let t = c2.peek_tile(0);
            c2.pop_front(1);
            t.get(0, 0)
        });
        thread::sleep(Duration::from_millis(50));
        c.reserve_back(1);
        c.write_tile(&tile(7.0));
        c.push_back(1);
        assert_eq!(consumer.join().unwrap(), 7.0);
        assert!(c.stats().consumer_stalls >= 1);
    }

    #[test]
    fn pipeline_through_small_cb_preserves_all_pages() {
        // Stream 100 tiles through a 2-page CB; back-pressure must not drop
        // or duplicate any page.
        let c = cb(2);
        let prod = c.clone();
        let producer = thread::spawn(move || {
            for i in 0..100 {
                prod.reserve_back(1);
                prod.write_tile(&tile(i as f32));
                prod.push_back(1);
            }
        });
        let cons = c.clone();
        let consumer = thread::spawn(move || {
            let mut seen = Vec::new();
            for _ in 0..100 {
                cons.wait_front(1);
                seen.push(cons.peek_tile(0).get(0, 0));
                cons.pop_front(1);
            }
            seen
        });
        producer.join().unwrap();
        let seen = consumer.join().unwrap();
        assert_eq!(seen, (0..100).map(|i| i as f32).collect::<Vec<_>>());
        let stats = c.stats();
        assert_eq!(stats.pages_pushed, 100);
        assert_eq!(stats.pages_popped, 100);
        assert!(stats.max_occupancy <= 2);
    }

    #[test]
    fn cb_quantizes_to_its_format() {
        let c = CircularBuffer::new(CircularBufferConfig::new(1, DataFormat::Float16b));
        c.reserve_back(1);
        c.write_tile(&Tile::splat(DataFormat::Float32, 1.0 + 1.0 / 1024.0));
        c.push_back(1);
        c.wait_front(1);
        assert_eq!(c.peek_tile(0).get(0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn reserving_more_than_capacity_panics() {
        cb(2).reserve_back(3);
    }

    #[test]
    #[should_panic(expected = "without matching reserve")]
    fn push_without_reserve_panics() {
        cb(2).push_back(1);
    }

    #[test]
    #[should_panic(expected = "without reserved space")]
    fn write_without_reserve_panics() {
        cb(2).write_tile(&tile(0.0));
    }

    #[test]
    #[should_panic(expected = "only 0 visible")]
    fn pop_empty_panics() {
        cb(2).pop_front(1);
    }

    #[test]
    fn poison_wakes_blocked_consumer_with_typed_interrupt() {
        use crate::fault::KernelInterrupt;

        let c = cb(1);
        let c2 = c.clone();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            c2.poison();
        });
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.wait_front(1)))
            .expect_err("wait must unwind once poisoned");
        let interrupt = payload.downcast::<KernelInterrupt>().expect("typed interrupt payload");
        assert_eq!(interrupt.kind, InterruptKind::Poisoned);
        assert!(interrupt.detail.contains("poisoned"));
    }

    #[test]
    fn wait_that_parks_every_instance_raises_deadlock_interrupt() {
        use crate::fault::KernelInterrupt;

        // A core with one instance: its first park is a deadlock.
        let waits = Arc::new(CoreWaits::default());
        waits.add_instance();
        let c =
            CircularBuffer::on_core(CircularBufferConfig::new(1, DataFormat::Float32), Some(waits));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.wait_front(1)))
            .expect_err("a wait nothing can satisfy must unwind");
        let interrupt = payload.downcast::<KernelInterrupt>().expect("typed interrupt payload");
        assert_eq!(interrupt.kind, InterruptKind::Deadlock);
        assert!(interrupt.detail.contains("cb_wait_front"));
    }
}
