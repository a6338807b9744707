//! Pipeline profiling: per-kernel/per-core time breakdown and the
//! `--profile` traced demo run.
//!
//! [`ProfileReport`] digests a launch's kernel timings into where each core
//! spent its cycles: every kernel instance's busy share of its core's
//! critical path. It attributes no idle time to CB waits: a CB stall count
//! records the executor's poll order (a wait whose first poll was
//! pending), not device time.
//!
//! [`run_profiled_demo`] is the end-to-end observability check behind the
//! `--profile` flag: it runs one small force evaluation twice on
//! identically-seeded devices — tracing off, then tracing on — and
//! *asserts* the tracing contract (bit-identical forces, identical
//! [`PipelineTiming`], kernel span totals reconciling exactly with
//! `busy_cycles`) before writing the Chrome trace JSON and metrics dumps.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::sync::Arc;

use nbody::ic::{plummer, PlummerConfig};
use nbody_tt::{
    DeviceForcePipeline, ForceEvaluator, MultiDevicePipeline, MultiDeviceTiming, PipelineTiming,
};
use tensix::{Device, DeviceConfig, NocId};
use tt_trace::{
    check_monotonic_per_track, check_nesting, parse_chrome_trace, to_chrome_trace, EventKind,
    MemorySink, MetricsRegistry, TraceSink,
};
use ttmetal::{cb_index, ProgramReport};

/// One kernel instance's share of its core's time.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRow {
    /// Linear core index.
    pub core_index: usize,
    /// Kernel label ("reader" / "force-compute" / "writer").
    pub label: String,
    /// Cycles this instance ran for.
    pub cycles: u64,
    /// `cycles` over the core's slowest instance: 1.0 for the critical
    /// kernel, less for kernels that spent the difference blocked on CBs.
    pub busy_frac: f64,
}

/// Per-kernel/per-core profile of one launch.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// One row per kernel instance, sorted by `(core_index, label)`.
    pub rows: Vec<KernelRow>,
    /// Per-core critical-path cycles (the slowest instance on each core).
    pub core_cycles: Vec<(usize, u64)>,
}

impl ProfileReport {
    /// Build the profile from a launch report.
    #[must_use]
    pub fn from_report(report: &ProgramReport) -> Self {
        // Per-core critical path: the slowest kernel instance on that core.
        let mut core_max: BTreeMap<usize, u64> = BTreeMap::new();
        for t in &report.timings {
            let e = core_max.entry(t.core_index).or_insert(0);
            *e = (*e).max(t.cycles);
        }

        let mut rows: Vec<KernelRow> = report
            .timings
            .iter()
            .map(|t| {
                let epoch = core_max.get(&t.core_index).copied().unwrap_or(0);
                KernelRow {
                    core_index: t.core_index,
                    label: t.label.clone(),
                    cycles: t.cycles,
                    busy_frac: if epoch > 0 { t.cycles as f64 / epoch as f64 } else { 0.0 },
                }
            })
            .collect();
        rows.sort_by(|a, b| (a.core_index, &a.label).cmp(&(b.core_index, &b.label)));

        let core_cycles = core_max.into_iter().collect();
        ProfileReport { rows, core_cycles }
    }

    /// Sum of all kernel-instance cycles (reconciles with
    /// [`PipelineTiming::busy_cycles`] for a fault-free single evaluation).
    #[must_use]
    pub fn total_kernel_cycles(&self) -> u64 {
        self.rows.iter().map(|r| r.cycles).sum()
    }

    /// Render the per-kernel breakdown.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("per-kernel time breakdown (busy% of the core's critical path):\n");
        out.push_str("  core  kernel          cycles      busy%\n");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:>4}  {:<14} {:>10}  {:>6.1}%",
                r.core_index,
                r.label,
                r.cycles,
                r.busy_frac * 100.0
            );
        }
        out
    }
}

/// Harvest the device-wide metrics of one evaluation into a registry:
/// NoC bytes per link, DRAM traffic and bank conflicts, CB stall totals
/// and occupancy high-water marks, the dst-register spill proxy (pages
/// staged through the `INTERMED*` ring), and per-core busy ratios.
#[must_use]
pub fn harvest_metrics(device: &Device, report: &ProgramReport) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();

    for (noc, name) in [(NocId::Noc0, "noc0"), (NocId::Noc1, "noc1")] {
        m.inc(&format!("{name}.read_bytes"), device.noc().read_bytes(noc));
        m.inc(&format!("{name}.write_bytes"), device.noc().write_bytes(noc));
        m.inc(&format!("{name}.transactions"), device.noc().transactions(noc));
    }

    let dram = device.dram().stats();
    m.inc("dram.read_bytes", dram.read_bytes.iter().sum());
    m.inc("dram.write_bytes", dram.write_bytes.iter().sum());
    m.inc("dram.transactions", dram.transactions);
    m.inc("dram.bank_conflicts", dram.bank_conflicts);

    let mut spill_pages = 0u64;
    for cb in &report.cb_stats {
        m.inc("cb.producer_stalls", cb.stats.producer_stalls);
        m.inc("cb.consumer_stalls", cb.stats.consumer_stalls);
        m.set_gauge(
            &format!("cb.{}.core{}.max_occupancy", cb.index, cb.core_index),
            cb.stats.max_occupancy as f64,
        );
        if (cb_index::INTERMED0..=cb_index::INTERMED5).contains(&cb.index) {
            spill_pages += cb.stats.pages_pushed;
        }
    }
    // The paper's dst-register-pressure workaround made visible: every page
    // staged through the INTERMED ring is a tile that could not stay in dst.
    m.inc("dst.spill_pages", spill_pages);

    let profile = ProfileReport::from_report(report);
    for r in &profile.rows {
        m.set_gauge(&format!("core{}.{}.busy_ratio", r.core_index, r.label), r.busy_frac);
        m.observe("kernel_cycles", r.cycles);
    }
    m
}

/// Artifacts of one profiled demo evaluation.
#[derive(Debug)]
pub struct ProfileArtifacts {
    /// The per-kernel/per-core profile.
    pub report: ProfileReport,
    /// Number of trace events exported.
    pub trace_events: usize,
    /// Pipeline timing of the traced run.
    pub timing: PipelineTiming,
}

/// Run the traced demo evaluation and write `trace.json`, `metrics.csv`
/// and `metrics.json` under `out_dir`.
///
/// This is simultaneously the observability *demo* and the observability
/// *check*: it asserts bit-identical forces and identical
/// [`PipelineTiming`] between tracing-off and tracing-on runs, validates
/// the exported Chrome trace by parsing it back, and reconciles kernel
/// span totals against `busy_cycles`.
///
/// # Panics
/// Panics when any part of the tracing contract is violated or the
/// artifacts cannot be written.
pub fn run_profiled_demo(n: usize, num_cores: usize, out_dir: &Path) -> ProfileArtifacts {
    let sys = plummer(PlummerConfig { n, seed: 1905, ..PlummerConfig::default() });
    let eps = 0.01;

    // Baseline: tracing off.
    let plain_dev = Device::new(0, DeviceConfig::default());
    let plain = DeviceForcePipeline::new(plain_dev, n, eps, num_cores).expect("plain pipeline");
    let base = plain.evaluate_checked(&sys).expect("plain evaluation");

    // Traced run on an identically-configured device.
    let dev = Device::new(0, DeviceConfig::default());
    let sink = Arc::new(MemorySink::new());
    dev.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
    let traced = DeviceForcePipeline::new(dev, n, eps, num_cores).expect("traced pipeline");
    let forces = traced.evaluate_checked(&sys).expect("traced evaluation");

    assert_eq!(forces.acc, base.acc, "tracing must not change force results");
    assert_eq!(forces.jerk, base.jerk, "tracing must not change jerk results");
    assert_eq!(traced.timing(), plain.timing(), "tracing must not change PipelineTiming");

    let events = sink.export();
    check_nesting(&events).expect("trace spans must nest per track");
    let kernel_span_cycles: u64 = events
        .iter()
        .filter(|e| {
            matches!(e.kind, EventKind::SpanEnd)
                && ["reader", "force-compute", "writer"].contains(&e.name.as_str())
        })
        .map(|e| e.ts)
        .sum();
    assert_eq!(
        kernel_span_cycles,
        traced.timing().busy_cycles,
        "kernel spans must reconcile with busy_cycles"
    );

    let chrome = to_chrome_trace(&events);
    let parsed = parse_chrome_trace(&chrome).expect("exported trace must parse back");
    assert_eq!(parsed.len(), events.len() + count_tracks(&chrome), "round-trip event count");
    check_monotonic_per_track(&parsed).expect("trace timestamps must be monotonic per track");

    let report = traced.last_launch_report().expect("successful launch must store a report");
    let metrics = harvest_metrics(traced.device(), &report);
    let profile = ProfileReport::from_report(&report);
    assert_eq!(
        profile.total_kernel_cycles(),
        traced.timing().busy_cycles,
        "profile rows must reconcile with busy_cycles"
    );

    fs::create_dir_all(out_dir).expect("create profile output dir");
    fs::write(out_dir.join("trace.json"), &chrome).expect("write trace.json");
    fs::write(out_dir.join("metrics.csv"), metrics.to_csv()).expect("write metrics.csv");
    fs::write(out_dir.join("metrics.json"), metrics.to_json()).expect("write metrics.json");

    ProfileArtifacts { report: profile, trace_events: events.len(), timing: traced.timing() }
}

/// Number of `thread_name` metadata events in a serialized Chrome trace.
fn count_tracks(chrome: &str) -> usize {
    chrome.matches("\"thread_name\"").count()
}

/// Timing breakdown of one ring demo evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct RingDemo {
    /// Per-card pipeline timing, in ring order.
    pub per_device: Vec<PipelineTiming>,
    /// The ring aggregate (critical-path device time + all-gather comm).
    pub aggregate: MultiDeviceTiming,
}

/// Run the `--devices N` demo: the same force evaluation on a single card
/// with `devices × cores_per_device` cores and on a `devices`-card ring
/// with `cores_per_device` cores each. The tile split is identical, so the
/// two are *asserted* bitwise-equal before the timing breakdown is
/// returned — the ring axis is an observability demo and a correctness
/// check at once.
///
/// # Panics
/// Panics when either pipeline fails or the ring's forces differ from the
/// single card's in any bit.
#[must_use]
pub fn run_ring_demo(n: usize, devices: usize, cores_per_device: usize) -> RingDemo {
    let sys = plummer(PlummerConfig { n, seed: 1905, ..PlummerConfig::default() });
    let eps = 0.01;

    let single_dev = Device::new(0, DeviceConfig::default());
    let single = DeviceForcePipeline::new(single_dev, n, eps, devices * cores_per_device)
        .expect("single-card pipeline");
    let base = single.evaluate_checked(&sys).expect("single-card evaluation");

    let devs: Vec<_> = (0..devices).map(|id| Device::new(id, DeviceConfig::default())).collect();
    let ring = MultiDevicePipeline::new(&devs, n, eps, cores_per_device).expect("ring pipeline");
    let forces = ring.evaluate_checked(&sys).expect("ring evaluation");
    assert_eq!(forces.acc, base.acc, "ring split must not change accelerations");
    assert_eq!(forces.jerk, base.jerk, "ring split must not change jerks");

    RingDemo { per_device: ring.per_device_timing(), aggregate: ring.timing() }
}

/// Render the ring demo breakdown.
#[must_use]
pub fn render_ring_demo(demo: &RingDemo) -> String {
    let mut out = String::new();
    out.push_str("per-device ring breakdown:\n");
    out.push_str("  card  device_s    busy_cycles  retries\n");
    for (i, t) in demo.per_device.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:>4}  {:.6}  {:>12}  {:>7}",
            i, t.device_seconds, t.busy_cycles, t.retries
        );
    }
    let a = &demo.aggregate;
    let _ = writeln!(
        out,
        "  ring  device {:.6} s (critical path) + comm {:.6} s | occupancy {:.6} s",
        a.device_seconds, a.comm_seconds, a.pipeline.device_seconds
    );
    out
}

/// Parse the `--devices N` axis from the CLI args (default 1).
#[must_use]
pub fn devices_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--devices")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// When `--profile` is among the CLI args, run the traced demo evaluation
/// (N = 1024 over 2 cores), write the artifacts under `results/profile/`,
/// print the profile report, and return `true` (callers should then skip
/// their normal experiment). Returns `false` when the flag is absent.
pub fn maybe_run_profile() -> bool {
    if !std::env::args().any(|a| a == "--profile") {
        return false;
    }
    let out_dir = Path::new("results/profile");
    let artifacts = run_profiled_demo(1024, 2, out_dir);
    println!("=== pipeline profile (N = 1024, 2 cores) ===\n");
    println!("{}", artifacts.report.render());
    println!(
        "{} trace events | busy {} cycles | trace: {}",
        artifacts.trace_events,
        artifacts.timing.busy_cycles,
        out_dir.join("trace.json").display()
    );
    println!("open the trace in https://ui.perfetto.dev (Open trace file).");
    let devices = devices_arg();
    if devices > 1 {
        // One target tile per card, so every card owns work and launches.
        let n = 1024 * devices;
        let demo = run_ring_demo(n, devices, 1);
        println!("\n=== ring profile (N = {n}, {devices} cards × 1 core) ===\n");
        println!("{}", render_ring_demo(&demo));
        println!("ring forces verified bitwise-identical to the single card.");
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensix::clock::KernelTiming;

    fn mk_report() -> ProgramReport {
        ProgramReport {
            seconds: 1e-6,
            timings: vec![
                KernelTiming {
                    core_index: 0,
                    label: "reader".into(),
                    cycles: 600,
                    matrix_cycles: 0,
                    vector_cycles: 0,
                },
                KernelTiming {
                    core_index: 0,
                    label: "force-compute".into(),
                    cycles: 1000,
                    matrix_cycles: 400,
                    vector_cycles: 600,
                },
                KernelTiming {
                    core_index: 0,
                    label: "writer".into(),
                    cycles: 400,
                    matrix_cycles: 0,
                    vector_cycles: 0,
                },
            ],
            cb_stats: Vec::new(),
        }
    }

    #[test]
    fn profile_rows_and_busy_fracs() {
        let p = ProfileReport::from_report(&mk_report());
        assert_eq!(p.rows.len(), 3);
        assert_eq!(p.total_kernel_cycles(), 2000);
        let compute = p.rows.iter().find(|r| r.label == "force-compute").unwrap();
        assert!((compute.busy_frac - 1.0).abs() < 1e-12, "critical kernel is 100% busy");
        let writer = p.rows.iter().find(|r| r.label == "writer").unwrap();
        assert!((writer.busy_frac - 0.4).abs() < 1e-12);
    }

    #[test]
    fn ring_demo_breaks_down_per_device_and_stays_bitwise() {
        // run_ring_demo asserts bitwise equality internally; here we pin the
        // breakdown's shape.
        // Two tiles, so each card owns one and launches.
        let demo = run_ring_demo(1100, 2, 1);
        assert_eq!(demo.per_device.len(), 2);
        assert!(demo.per_device.iter().all(|t| t.evaluations == 1 && t.busy_cycles > 0));
        assert!(demo.aggregate.comm_seconds > 0.0, "ring all-gather must be billed");
        let occupancy: f64 = demo.per_device.iter().map(|t| t.device_seconds).sum();
        assert!((demo.aggregate.pipeline.device_seconds - occupancy).abs() < 1e-12);
        assert!(demo.aggregate.device_seconds <= occupancy, "critical path ≤ total occupancy");
        let rendered = render_ring_demo(&demo);
        assert!(rendered.contains("card"), "{rendered}");
        assert!(rendered.contains("critical path"), "{rendered}");
    }

    #[test]
    fn profiled_demo_end_to_end() {
        let dir = std::env::temp_dir().join("tt-harness-profile-test");
        let artifacts = run_profiled_demo(96, 1, &dir);
        assert!(artifacts.trace_events > 0);
        assert!(artifacts.report.total_kernel_cycles() > 0);
        let trace = fs::read_to_string(dir.join("trace.json")).unwrap();
        assert!(trace.contains("traceEvents"));
        let csv = fs::read_to_string(dir.join("metrics.csv")).unwrap();
        assert!(csv.lines().any(|l| l.starts_with("dram.bank_conflicts,")));
        assert!(csv.lines().any(|l| l.starts_with("dst.spill_pages,")));
        fs::remove_dir_all(&dir).ok();
    }
}
