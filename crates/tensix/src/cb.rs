//! Software-managed circular buffers (CBs).
//!
//! CBs are the producer/consumer channels between the data-movement and
//! compute kernels of a Tensix core. The paper's pipeline hinges on their
//! four control primitives, which we reproduce with identical semantics:
//!
//! * `cb_reserve_back(n)` — producer waits until `n` pages are free, then
//!   reserves them (back-pressure: prevents overwriting unconsumed data);
//! * `cb_push_back(n)` — producer publishes `n` previously written pages;
//! * `cb_wait_front(n)` — consumer waits until `n` pages are visible;
//! * `cb_pop_front(n)` — consumer releases `n` pages.
//!
//! One page holds one tile. The two waits are futures over non-blocking
//! predicates: a core's kernels run as cooperative tasks on one host
//! thread (`ttmetal::queue`), so a wait the CB cannot satisfy yet returns
//! `Pending` and the peer kernel runs until it pushes or pops. Every push
//! and pop bumps the core's [`ChangeCounter`], which is how the executor
//! tells a core that is still moving from one that never will.

use std::collections::VecDeque;
use std::future::poll_fn;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Poll;

use parking_lot::Mutex;

use crate::dtype::DataFormat;
use crate::tile::Tile;

/// Counts the changes to one core's CBs and semaphores: every push, pop,
/// set and increment. Clones share the count. A round of polls over the
/// core's kernels in which none finishes and the count stays put leaves
/// every wait where it was, so the core can never move again.
#[derive(Debug, Clone, Default)]
pub struct ChangeCounter(Arc<AtomicU64>);

impl ChangeCounter {
    /// Record one change.
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Changes recorded so far.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Wait until `ready` holds, testing it once per poll. Resolves to whether
/// the first poll found it false: a stall.
pub async fn until(mut ready: impl FnMut() -> bool) -> bool {
    let mut stalled = false;
    poll_fn(move |_| {
        if ready() {
            Poll::Ready(stalled)
        } else {
            stalled = true;
            Poll::Pending
        }
    })
    .await
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
    /// Times `reserve_back` had to wait.
    pub producer_stalls: u64,
    /// Times `wait_front` had to wait.
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
}

/// A circular buffer shared between the kernels of one core.
///
/// Cloning the handle is cheap (an `Arc`); all clones refer to the same ring.
#[derive(Debug, Clone)]
pub struct CircularBuffer {
    config: CircularBufferConfig,
    state: Arc<Mutex<CbState>>,
    changes: ChangeCounter,
}

impl CircularBuffer {
    /// Create an empty CB with a change counter of its own.
    #[must_use]
    pub fn new(config: CircularBufferConfig) -> Self {
        Self::on_core(config, ChangeCounter::default())
    }

    /// Create an empty CB on the core whose changes `changes` counts.
    #[must_use]
    pub fn on_core(config: CircularBufferConfig, changes: ChangeCounter) -> Self {
        let state = CbState {
            visible: VecDeque::with_capacity(config.num_pages),
            staged: VecDeque::new(),
            reserved: 0,
            stats: CbStats::default(),
        };
        CircularBuffer { config, state: Arc::new(Mutex::new(state)), changes }
    }

    /// This CB's configuration.
    #[must_use]
    pub fn config(&self) -> CircularBufferConfig {
        self.config
    }

    /// Panic on a request no state of the ring could satisfy.
    fn check_fits(&self, what: &str, n: usize) {
        assert!(
            n <= self.config.num_pages,
            "{what}({n}) exceeds capacity {} — permanent hang on hardware",
            self.config.num_pages
        );
    }

    /// Reserve `n` pages for the producer if they are free, without
    /// waiting. Returns whether it reserved them.
    ///
    /// # Panics
    /// Panics if `n` exceeds the capacity (would hang on hardware).
    pub fn try_reserve_back(&self, n: usize) -> bool {
        self.check_fits("cb_reserve_back", n);
        let mut st = self.state.lock();
        let occ = st.visible.len() + st.reserved + n;
        if occ > self.config.num_pages {
            return false;
        }
        st.reserved += n;
        st.stats.max_occupancy = st.stats.max_occupancy.max(occ);
        true
    }

    /// Wait until `n` pages are free, then reserve them for the producer.
    /// Resolves to `true` if the first poll had to wait (a producer
    /// stall) — the trace layer turns that into a `cb_stall` event.
    ///
    /// # Panics
    /// Panics if `n` exceeds the capacity (would hang on hardware).
    pub async fn reserve_back(&self, n: usize) -> bool {
        let stalled = until(|| self.try_reserve_back(n)).await;
        if stalled {
            self.state.lock().stats.producer_stalls += 1;
        }
        stalled
    }

    /// Write one tile into the reserved region (producer side, after
    /// [`CircularBuffer::reserve_back`]). The tile is quantized to the CB's
    /// format, modelling the packer.
    ///
    /// # Panics
    /// Panics if no reserved space remains.
    pub fn write_tile(&self, tile: &Tile) {
        let mut st = self.state.lock();
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
        let mut st = self.state.lock();
        assert!(
            st.staged.len() >= n && st.reserved >= n,
            "cb_push_back({n}) without matching reserve/write (staged {}, reserved {})",
            st.staged.len(),
            st.reserved
        );
        let st = &mut *st;
        st.visible.extend(st.staged.drain(..n));
        st.reserved -= n;
        st.stats.pages_pushed += n as u64;
        self.changes.bump();
    }

    /// Whether `n` pages are visible to the consumer, without waiting.
    ///
    /// # Panics
    /// Panics if `n` exceeds the capacity (would hang on hardware).
    #[must_use]
    pub fn has_front(&self, n: usize) -> bool {
        self.check_fits("cb_wait_front", n);
        self.state.lock().visible.len() >= n
    }

    /// Wait until `n` pages are visible to the consumer. Resolves to
    /// `true` if the first poll had to wait (a consumer stall) — the trace
    /// layer turns that into a `cb_stall` event.
    ///
    /// # Panics
    /// Panics if `n` exceeds the capacity (would hang on hardware).
    pub async fn wait_front(&self, n: usize) -> bool {
        let stalled = until(|| self.has_front(n)).await;
        if stalled {
            self.state.lock().stats.consumer_stalls += 1;
        }
        stalled
    }

    /// Read the `idx`-th visible page (0 = oldest) without consuming it.
    /// Mirrors the compute kernel's `get_tile`/unpacker access after
    /// `cb_wait_front`.
    ///
    /// # Panics
    /// Panics if fewer than `idx + 1` pages are visible (wait with
    /// [`CircularBuffer::wait_front`] first).
    #[must_use]
    pub fn peek_tile(&self, idx: usize) -> Tile {
        let st = self.state.lock();
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
        let mut st = self.state.lock();
        assert!(
            st.visible.len() >= n,
            "cb_pop_front({n}) with only {} visible pages",
            st.visible.len()
        );
        st.visible.drain(..n);
        st.stats.pages_popped += n as u64;
        self.changes.bump();
    }

    /// Pages currently visible to the consumer.
    #[must_use]
    pub fn pages_visible(&self) -> usize {
        self.state.lock().visible.len()
    }

    /// Lifetime statistics.
    #[must_use]
    pub fn stats(&self) -> CbStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::future::Future;
    use std::pin::pin;
    use std::task::{Context, Waker};

    fn cb(pages: usize) -> CircularBuffer {
        CircularBuffer::new(CircularBufferConfig::new(pages, DataFormat::Float32))
    }

    fn tile(v: f32) -> Tile {
        Tile::splat(DataFormat::Float32, v)
    }

    fn push(c: &CircularBuffer, v: f32) {
        assert!(c.try_reserve_back(1));
        c.write_tile(&tile(v));
        c.push_back(1);
    }

    fn poll<F: Future>(f: std::pin::Pin<&mut F>) -> Poll<F::Output> {
        f.poll(&mut Context::from_waker(Waker::noop()))
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
        assert!(cb.try_reserve_back(2));
        cb.write_tile(&tile(1.0));
        cb.write_tile(&tile(2.0));
        cb.push_back(2);
        assert!(cb.has_front(2));
        assert_eq!(cb.peek_tile(0).get(0, 0), 1.0);
        assert_eq!(cb.peek_tile(1).get(0, 0), 2.0);
        cb.pop_front(1);
        assert_eq!(cb.peek_tile(0).get(0, 0), 2.0);
        cb.pop_front(1);
        assert_eq!(cb.pages_visible(), 0);
    }

    #[test]
    fn reserve_waits_until_consumer_pops() {
        let c = cb(2);
        push(&c, 1.0);
        push(&c, 2.0);
        let mut reserve = pin!(c.reserve_back(1));
        assert_eq!(poll(reserve.as_mut()), Poll::Pending, "ring is full");
        assert_eq!(poll(reserve.as_mut()), Poll::Pending, "nothing popped yet");
        c.pop_front(1);
        assert_eq!(poll(reserve.as_mut()), Poll::Ready(true), "a stalled reserve");
        c.write_tile(&tile(3.0));
        c.push_back(1);
        assert_eq!(c.peek_tile(1).get(0, 0), 3.0);
        assert_eq!(c.stats().producer_stalls, 1);
        assert_eq!(c.stats().max_occupancy, 2);
        assert_eq!(poll(pin!(c.reserve_back(0))), Poll::Ready(false));
    }

    #[test]
    fn wait_resolves_once_producer_pushes() {
        let c = cb(2);
        let mut wait = pin!(c.wait_front(1));
        assert_eq!(poll(wait.as_mut()), Poll::Pending);
        push(&c, 7.0);
        assert_eq!(poll(wait.as_mut()), Poll::Ready(true));
        assert_eq!(c.peek_tile(0).get(0, 0), 7.0);
        assert_eq!(poll(pin!(c.wait_front(1))), Poll::Ready(false), "no stall");
        assert_eq!(c.stats().consumer_stalls, 1);
    }

    #[test]
    fn pushes_and_pops_count_as_changes() {
        let changes = ChangeCounter::default();
        let c = CircularBuffer::on_core(
            CircularBufferConfig::new(2, DataFormat::Float32),
            changes.clone(),
        );
        assert!(c.try_reserve_back(2));
        c.write_tile(&tile(1.0));
        assert_eq!(changes.get(), 0, "reserving and writing change nothing a peer waits on");
        c.push_back(1);
        c.pop_front(1);
        assert_eq!(changes.get(), 2);
    }

    #[test]
    fn cb_quantizes_to_its_format() {
        let c = CircularBuffer::new(CircularBufferConfig::new(1, DataFormat::Float16b));
        assert!(c.try_reserve_back(1));
        c.write_tile(&Tile::splat(DataFormat::Float32, 1.0 + 1.0 / 1024.0));
        c.push_back(1);
        assert_eq!(c.peek_tile(0).get(0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn reserving_more_than_capacity_panics() {
        let _ = cb(2).try_reserve_back(3);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn waiting_for_more_than_capacity_panics() {
        let c = cb(2);
        let _ = poll(pin!(c.wait_front(3)));
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
}
