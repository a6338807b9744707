//! The benchmark's own tracing: a [`ForceEvaluator`] wrapper that records a
//! host-wall span around every call into the force layer, under the
//! segment span the run loop opens, and tallies the launch report the call
//! left behind. Spans stay in memory until the run ends.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nbody::particle::{Forces, ParticleSystem};
use nbody_tt::{ActiveSet, ForceEvaluator, PipelineTiming, RetryPolicy};
use ttmetal::{LaunchError, ProgramReport};

/// One closed span on the host wall clock, in nanoseconds since the log
/// was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing segment span, `None` for segment spans.
    pub parent: Option<usize>,
}

/// In-memory span store shared by the run loop and the probe.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    open_segment: Mutex<Option<usize>>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            open_segment: Mutex::new(None),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a segment span; force spans recorded until [`Self::end_segment`]
    /// become its children.
    pub fn begin_segment(&self) {
        let now = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span { name: "segment", start_ns: now, end_ns: now, parent: None });
        *self.open_segment.lock().expect("span log poisoned") = Some(spans.len() - 1);
    }

    pub fn end_segment(&self) {
        let now = self.ns(Instant::now());
        if let Some(id) = self.open_segment.lock().expect("span log poisoned").take() {
            self.spans.lock().expect("span log poisoned")[id].end_ns = now;
        }
    }

    /// Drop every span recorded so far (warm-up work is not measured).
    pub fn clear(&self) {
        self.spans.lock().expect("span log poisoned").clear();
        *self.open_segment.lock().expect("span log poisoned") = None;
    }

    fn record(&self, name: &'static str, start: Instant, end: Instant) {
        let parent = *self.open_segment.lock().expect("span log poisoned");
        let span = Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Totals over closed segments: (segments, segment self-time ns, force
    /// span ns, force calls). Self time is the segment's duration minus
    /// the part its force children cover — the host work around the force
    /// layer (prediction, correction, diagnostics, scheduling).
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        let (mut force_ns, mut calls) = (0u64, 0u64);
        for s in spans.iter() {
            if let Some(p) = s.parent {
                let d = s.end_ns - s.start_ns;
                child_ns[p] += d;
                force_ns += d;
                calls += 1;
            }
        }
        let (mut segments, mut self_ns) = (0u64, 0u64);
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
            segments += 1;
            self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        }
        (segments, self_ns, force_ns, calls)
    }

    /// Chrome `traceEvents` JSON of every span (complete events, µs).
    pub fn to_chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Launch-report tallies over every successful call: the slowest compute
/// instance's matrix- and vector-pipe cycles per launch, and CB stalls.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaunchTally {
    pub matrix_cycles: u64,
    pub vector_cycles: u64,
    pub cb_stalls: u64,
}

impl LaunchTally {
    fn add(&mut self, report: &ProgramReport) {
        let compute = || report.timings.iter().filter(|k| k.label == "force-compute");
        self.matrix_cycles += compute().map(|k| k.matrix_cycles).max().unwrap_or(0);
        self.vector_cycles += compute().map(|k| k.vector_cycles).max().unwrap_or(0);
        self.cb_stalls += report
            .cb_stats
            .iter()
            .map(|c| c.stats.producer_stalls + c.stats.consumer_stalls)
            .sum::<u64>();
    }
}

/// A force evaluator that forwards to `inner` and traces each call.
pub struct Probe<E> {
    inner: E,
    log: Arc<SpanLog>,
    tally: Mutex<LaunchTally>,
}

impl<E: ForceEvaluator> Probe<E> {
    pub fn new(inner: E, log: Arc<SpanLog>) -> Self {
        Probe { inner, log, tally: Mutex::new(LaunchTally::default()) }
    }

    pub fn tally(&self) -> LaunchTally {
        *self.tally.lock().expect("tally poisoned")
    }

    fn traced<T>(
        &self,
        name: &'static str,
        call: impl FnOnce() -> Result<T, LaunchError>,
    ) -> Result<T, LaunchError> {
        let start = Instant::now();
        let result = call();
        self.log.record(name, start, Instant::now());
        if result.is_ok() {
            if let Some(report) = self.inner.last_launch_report() {
                self.tally.lock().expect("tally poisoned").add(&report);
            }
        }
        result
    }
}

impl<E: ForceEvaluator> ForceEvaluator for Probe<E> {
    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn softening(&self) -> f64 {
        self.inner.softening()
    }

    fn evaluate_checked(&self, system: &ParticleSystem) -> Result<Forces, LaunchError> {
        self.traced("evaluate", || self.inner.evaluate_checked(system))
    }

    fn evaluate_with_retry(
        &self,
        system: &ParticleSystem,
        policy: RetryPolicy,
    ) -> Result<Forces, LaunchError> {
        self.traced("evaluate_with_retry", || self.inner.evaluate_with_retry(system, policy))
    }

    fn evaluate_active(
        &self,
        system: &ParticleSystem,
        active: &ActiveSet,
    ) -> Result<Forces, LaunchError> {
        self.traced("evaluate_active", || self.inner.evaluate_active(system, active))
    }

    fn timing(&self) -> Option<PipelineTiming> {
        self.inner.timing()
    }

    fn last_launch_report(&self) -> Option<ProgramReport> {
        self.inner.last_launch_report()
    }

    fn recover_device_loss(&self, cause: LaunchError) -> Result<(), LaunchError> {
        self.inner.recover_device_loss(cause)
    }
}
