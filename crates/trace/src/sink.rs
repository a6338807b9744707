//! Trace sinks and the per-kernel span emitter.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::{EventKind, RiscRole, TraceEvent, HOST_CORE};

/// Destination for trace events.
///
/// Implementations must be cheap to call from kernel threads: the
/// simulator fetches the sink once per launch and each kernel instance
/// writes through its own [`SpanEmitter`], so a single short lock per
/// event is acceptable, but nothing here may touch the virtual clock.
pub trait TraceSink: Send + Sync {
    /// Whether events are actually collected. Emitters skip work when
    /// this is `false`.
    fn enabled(&self) -> bool;

    /// Record one event.
    fn record(&self, ev: TraceEvent);

    /// Open a new launch epoch and return its id. Event timestamps are
    /// relative to the epoch start.
    fn begin_epoch(&self) -> u32;

    /// Close an epoch, reporting its duration (the slowest kernel
    /// instance) in virtual cycles. Later epochs are rebased after it.
    fn end_epoch(&self, epoch: u32, dur_cycles: u64);

    /// Record a host-side point event (retry decision, teardown, launch
    /// abort). Host events sit between epochs at the current rebase
    /// point.
    fn host_instant(&self, name: &str, args: &[(&str, u64)]);
}

/// Sink that drops everything — the zero-cost-when-off path.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&self, _ev: TraceEvent) {}
    fn begin_epoch(&self) -> u32 {
        0
    }
    fn end_epoch(&self, _epoch: u32, _dur_cycles: u64) {}
    fn host_instant(&self, _name: &str, _args: &[(&str, u64)]) {}
}

#[derive(Debug, Default)]
struct MemState {
    events: VecDeque<TraceEvent>,
    /// Duration of each closed epoch, indexed by epoch id.
    epoch_durs: Vec<u64>,
    next_epoch: u32,
    host_seq: u64,
    /// Events evicted by the bounded (ring-buffer) mode.
    dropped: u64,
}

/// In-memory sink collecting events for export.
///
/// By default the sink is unbounded (every event is kept). With
/// [`MemorySink::bounded`] it becomes a drop-oldest ring buffer of the
/// last `capacity` events — the flight-recorder mode: always-on recording
/// whose memory footprint is constant however long the campaign runs, at
/// the cost of forgetting everything but the recent past. Evictions are
/// counted in [`MemorySink::dropped`], never silent.
#[derive(Debug, Default)]
pub struct MemorySink {
    state: Mutex<MemState>,
    /// `None` = unbounded; `Some(k)` = keep only the newest `k` events.
    capacity: Option<usize>,
}

impl MemorySink {
    /// New empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// New drop-oldest ring sink keeping at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a ring that can hold nothing records
    /// nothing, which is what [`NullSink`] is for.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "bounded sink needs capacity > 0 (use NullSink to disable)");
        MemorySink { state: Mutex::new(MemState::default()), capacity: Some(capacity) }
    }

    /// Ring capacity (`None` for the unbounded default).
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Events evicted so far by the bounded mode (0 when unbounded).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().events.len()
    }

    /// Whether no events have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw events in arrival order (timestamps still epoch-relative).
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.state.lock().events.iter().cloned().collect()
    }

    /// Export events in deterministic order with absolute timestamps.
    ///
    /// Each epoch is rebased onto the end of the previous one (epochs
    /// run back-to-back on the virtual clock), and events are sorted by
    /// `(epoch, ts, core, role, seq)` so identical runs export identical
    /// traces.
    #[must_use]
    pub fn export(&self) -> Vec<TraceEvent> {
        let st = self.state.lock();
        let mut bases = Vec::with_capacity(st.epoch_durs.len() + 1);
        let mut acc = 0u64;
        for dur in &st.epoch_durs {
            bases.push(acc);
            acc = acc.saturating_add(*dur);
        }
        bases.push(acc); // trailing host events land after the last epoch
        let mut out: Vec<TraceEvent> = st.events.iter().cloned().collect();
        drop(st);
        out.sort_by_key(TraceEvent::sort_key);
        for ev in &mut out {
            let base = bases.get(ev.epoch as usize).copied().unwrap_or(*bases.last().unwrap_or(&0));
            ev.ts = ev.ts.saturating_add(base);
        }
        out
    }
}

impl TraceSink for MemorySink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, ev: TraceEvent) {
        let mut st = self.state.lock();
        if let Some(cap) = self.capacity {
            while st.events.len() >= cap {
                st.events.pop_front();
                st.dropped += 1;
            }
        }
        st.events.push_back(ev);
    }

    fn begin_epoch(&self) -> u32 {
        let mut st = self.state.lock();
        let id = st.next_epoch;
        st.next_epoch += 1;
        st.epoch_durs.push(0);
        id
    }

    fn end_epoch(&self, epoch: u32, dur_cycles: u64) {
        let mut st = self.state.lock();
        if let Some(slot) = st.epoch_durs.get_mut(epoch as usize) {
            *slot = dur_cycles;
        }
    }

    fn host_instant(&self, name: &str, args: &[(&str, u64)]) {
        let (epoch, seq) = {
            let mut st = self.state.lock();
            let seq = st.host_seq;
            st.host_seq += 1;
            (st.next_epoch, seq)
        };
        self.record(TraceEvent {
            epoch,
            ts: 0,
            core: HOST_CORE,
            role: RiscRole::Host,
            seq,
            name: name.to_string(),
            kind: EventKind::Instant,
            args: args.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
        });
    }
}

/// Per-kernel-instance event writer.
///
/// One emitter per `(core, role)` track; it owns the track's sequence
/// counter and an open-span stack so aborted kernels can close whatever
/// spans they left open ([`SpanEmitter::close_all`]) and traces stay
/// well-nested even on faulty runs.
pub struct SpanEmitter {
    sink: Arc<dyn TraceSink>,
    epoch: u32,
    core: u32,
    role: RiscRole,
    seq: u64,
    open: Vec<String>,
}

impl std::fmt::Debug for SpanEmitter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanEmitter")
            .field("epoch", &self.epoch)
            .field("core", &self.core)
            .field("role", &self.role)
            .field("seq", &self.seq)
            .field("open", &self.open)
            .finish_non_exhaustive()
    }
}

impl SpanEmitter {
    /// New emitter for one `(core, role)` track within `epoch`.
    #[must_use]
    pub fn new(sink: Arc<dyn TraceSink>, epoch: u32, core: u32, role: RiscRole) -> Self {
        Self { sink, epoch, core, role, seq: 0, open: Vec::new() }
    }

    fn push(&mut self, ts: u64, name: &str, kind: EventKind, args: &[(&str, u64)]) {
        let seq = self.seq;
        self.seq += 1;
        self.sink.record(TraceEvent {
            epoch: self.epoch,
            ts,
            core: self.core,
            role: self.role,
            seq,
            name: name.to_string(),
            kind,
            args: args.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
        });
    }

    /// Open a span at virtual time `ts`.
    pub fn span_begin(&mut self, name: &str, ts: u64) {
        self.open.push(name.to_string());
        self.push(ts, name, EventKind::SpanBegin, &[]);
    }

    /// Close the innermost open span, which must be named `name`.
    pub fn span_end(&mut self, name: &str, ts: u64) {
        debug_assert_eq!(self.open.last().map(String::as_str), Some(name));
        self.open.pop();
        self.push(ts, name, EventKind::SpanEnd, &[]);
    }

    /// Close every open span at `ts` (innermost first). Used when a
    /// kernel aborts mid-span so the trace stays well-nested.
    pub fn close_all(&mut self, ts: u64) {
        while let Some(name) = self.open.pop() {
            self.push(ts, &name, EventKind::SpanEnd, &[]);
        }
    }

    /// Record a point event.
    pub fn instant(&mut self, name: &str, ts: u64, args: &[(&str, u64)]) {
        self.push(ts, name, EventKind::Instant, args);
    }

    /// Record a self-contained interval `[ts, ts + dur)`.
    pub fn complete(&mut self, name: &str, ts: u64, dur: u64, args: &[(&str, u64)]) {
        self.push(ts, name, EventKind::Complete { dur }, args);
    }

    /// Record a counter sample.
    pub fn counter(&mut self, name: &str, ts: u64, value: u64) {
        self.push(ts, name, EventKind::Counter { value }, &[]);
    }

    /// Number of spans currently open.
    #[must_use]
    pub fn open_depth(&self) -> usize {
        self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::check_nesting;

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.record(TraceEvent {
            epoch: 0,
            ts: 0,
            core: 0,
            role: RiscRole::Trisc,
            seq: 0,
            name: "x".into(),
            kind: EventKind::Instant,
            args: Vec::new(),
        });
        assert_eq!(sink.begin_epoch(), 0);
    }

    #[test]
    fn epochs_rebase_back_to_back() {
        let sink = Arc::new(MemorySink::new());
        let e0 = sink.begin_epoch();
        let mut em = SpanEmitter::new(sink.clone(), e0, 0, RiscRole::Trisc);
        em.span_begin("k", 0);
        em.span_end("k", 100);
        sink.end_epoch(e0, 100);

        let e1 = sink.begin_epoch();
        let mut em = SpanEmitter::new(sink.clone(), e1, 0, RiscRole::Trisc);
        em.span_begin("k", 0);
        em.span_end("k", 50);
        sink.end_epoch(e1, 50);

        let out = sink.export();
        let ts: Vec<u64> = out.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![0, 100, 100, 150]);
        check_nesting(&out).unwrap();
    }

    #[test]
    fn host_instants_land_between_epochs() {
        let sink = Arc::new(MemorySink::new());
        let e0 = sink.begin_epoch();
        sink.end_epoch(e0, 40);
        sink.host_instant("retry", &[("attempt", 1)]);
        let out = sink.export();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ts, 40);
        assert_eq!(out[0].core, HOST_CORE);
        assert_eq!(out[0].args, vec![("attempt".to_string(), 1)]);
    }

    #[test]
    fn close_all_closes_in_reverse_order() {
        let sink = Arc::new(MemorySink::new());
        let e = sink.begin_epoch();
        let mut em = SpanEmitter::new(sink.clone(), e, 2, RiscRole::Brisc);
        em.span_begin("kernel", 0);
        em.span_begin("tile", 3);
        assert_eq!(em.open_depth(), 2);
        em.close_all(7);
        assert_eq!(em.open_depth(), 0);
        sink.end_epoch(e, 7);
        check_nesting(&sink.export()).unwrap();
    }

    #[test]
    fn bounded_sink_drops_oldest_and_counts() {
        let sink = MemorySink::bounded(3);
        assert_eq!(sink.capacity(), Some(3));
        for i in 0..5u64 {
            sink.host_instant("ev", &[("i", i)]);
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        // The survivors are the *newest* three, in arrival order.
        let kept: Vec<u64> = sink.events().iter().map(|e| e.args[0].1).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        // Unbounded default keeps everything.
        let full = MemorySink::new();
        for i in 0..5u64 {
            full.host_instant("ev", &[("i", i)]);
        }
        assert_eq!(full.len(), 5);
        assert_eq!(full.dropped(), 0);
        assert_eq!(full.capacity(), None);
    }

    #[test]
    #[should_panic(expected = "capacity > 0")]
    fn zero_capacity_ring_is_rejected() {
        let _ = MemorySink::bounded(0);
    }

    #[test]
    fn export_order_is_deterministic_across_interleavings() {
        // Two cores writing at the same timestamps: order must come out
        // sorted by core then seq regardless of arrival order.
        let sink = Arc::new(MemorySink::new());
        let e = sink.begin_epoch();
        let mut a = SpanEmitter::new(sink.clone(), e, 1, RiscRole::Trisc);
        let mut b = SpanEmitter::new(sink.clone(), e, 0, RiscRole::Trisc);
        a.instant("x", 5, &[]);
        b.instant("x", 5, &[]);
        sink.end_epoch(e, 5);
        let out = sink.export();
        assert_eq!(out[0].core, 0);
        assert_eq!(out[1].core, 1);
    }
}
