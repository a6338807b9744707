//! Cross-layer observability contract: a traced device-pipeline run must
//! produce a valid, Perfetto-loadable Chrome trace with one track per
//! core×RISC role and reader/compute/writer spans; tracing must be
//! invisible to results and timing; and the profiling layer's cycle
//! accounting must reconcile exactly with the pipeline's.

use std::collections::BTreeSet;
use std::sync::Arc;

use nbody::ic::{plummer, PlummerConfig};
use nbody_tt::{DeviceForcePipeline, ForceEvaluator, RetryPolicy};
use tensix::{Device, DeviceConfig};
use tt_trace::{
    check_monotonic_per_track, check_nesting, parse_chrome_trace, to_chrome_trace, EventKind,
    MemorySink, RiscRole, TraceSink, HOST_CORE,
};

fn traced_device() -> (Arc<Device>, Arc<MemorySink>) {
    let dev = Device::new(0, DeviceConfig::default());
    let sink = Arc::new(MemorySink::new());
    dev.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
    (dev, sink)
}

#[test]
fn traced_run_produces_tracks_per_active_core_and_kernel_spans() {
    let n = 2048 + 512; // 3 target tiles over 2 cores
    let num_cores = 2;
    let sys = plummer(PlummerConfig { n, seed: 77, ..PlummerConfig::default() });
    let (dev, sink) = traced_device();
    let pipeline = DeviceForcePipeline::new(dev, n, 0.01, num_cores).unwrap();
    pipeline.evaluate_checked(&sys).unwrap();

    let events = sink.export();
    check_nesting(&events).expect("spans must nest");

    // Every active core fields all three RISC roles (reader on BRISC,
    // compute on TRISC, writer on NCRISC).
    let tracks: BTreeSet<(u32, RiscRole)> =
        events.iter().filter(|e| e.core != HOST_CORE).map(|e| (e.core, e.role)).collect();
    assert_eq!(tracks.len(), num_cores * 3, "3 tracks per active core: {tracks:?}");
    for name in ["reader", "force-compute", "writer"] {
        let spans = events
            .iter()
            .filter(|e| e.name == name && matches!(e.kind, EventKind::SpanBegin))
            .count();
        assert_eq!(spans, num_cores, "one {name} span per core");
    }

    // The serialized Chrome trace parses back with the same event count
    // and monotonic timestamps per track.
    let chrome = to_chrome_trace(&events);
    let parsed = parse_chrome_trace(&chrome).expect("valid trace JSON");
    let meta = chrome.matches("\"thread_name\"").count();
    assert_eq!(parsed.len(), events.len() + meta);
    assert_eq!(meta, num_cores * 3, "one thread_name per track");
    check_monotonic_per_track(&parsed).expect("monotonic ts per track");
}

#[test]
fn tracing_off_and_on_agree_bitwise() {
    let n = 512;
    let sys = plummer(PlummerConfig { n, seed: 78, ..PlummerConfig::default() });

    let plain =
        DeviceForcePipeline::new(Device::new(0, DeviceConfig::default()), n, 0.01, 1).unwrap();
    let base = plain.evaluate_checked(&sys).unwrap();

    let (dev, sink) = traced_device();
    let traced = DeviceForcePipeline::new(dev, n, 0.01, 1).unwrap();
    let forces = traced.evaluate_checked(&sys).unwrap();

    assert_eq!(forces.acc, base.acc, "forces must be bit-identical");
    assert_eq!(forces.jerk, base.jerk);
    assert_eq!(traced.timing(), plain.timing(), "PipelineTiming must be unchanged");
    assert!(!sink.export().is_empty(), "the traced run did record events");
}

#[test]
fn kernel_spans_reconcile_with_busy_cycles() {
    let n = 1024;
    let sys = plummer(PlummerConfig { n, seed: 79, ..PlummerConfig::default() });
    let (dev, sink) = traced_device();
    let pipeline = DeviceForcePipeline::new(dev, n, 0.01, 1).unwrap();
    pipeline.evaluate_checked(&sys).unwrap();

    // Kernel spans open at context cycle 0, so each SpanEnd timestamp is
    // that instance's cycle total; fault-free, their sum IS busy_cycles.
    let span_sum: u64 = sink
        .export()
        .iter()
        .filter(|e| {
            matches!(e.kind, EventKind::SpanEnd)
                && ["reader", "force-compute", "writer"].contains(&e.name.as_str())
        })
        .map(|e| e.ts)
        .sum();
    assert_eq!(span_sum, pipeline.timing().busy_cycles);

    let report = pipeline.last_launch_report().expect("report stored");
    let report_sum: u64 = report.timings.iter().map(|t| t.cycles).sum();
    assert_eq!(report_sum, span_sum, "launch report agrees with the trace");
}

#[test]
fn injected_fault_leaves_retry_marker_and_result_stays_correct() {
    use tensix::fault::{FaultClass, FaultConfig};

    let n = 96;
    let sys = plummer(PlummerConfig { n, seed: 80, ..PlummerConfig::default() });
    let clean =
        DeviceForcePipeline::new(Device::new(0, DeviceConfig::default()), n, 0.01, 1).unwrap();
    let base = clean.evaluate_checked(&sys).unwrap();

    let dev = Device::new(
        0,
        DeviceConfig {
            faults: FaultConfig { dram_uncorrectable_frac: 1.0, ..FaultConfig::default() },
            seed: 7,
            ..DeviceConfig::default()
        },
    );
    dev.faults().schedule(FaultClass::DramRead, 5);
    let sink = Arc::new(MemorySink::new());
    dev.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
    let pipeline = DeviceForcePipeline::new(dev, n, 0.01, 1).unwrap();
    let forces = pipeline.evaluate_with_retry(&sys, RetryPolicy::default()).unwrap();
    assert_eq!(forces.acc, base.acc, "retried result bit-identical");

    let events = sink.export();
    check_nesting(&events).expect("aborted attempt's spans are closed by teardown");
    let retry = events.iter().find(|e| e.name == "retry").expect("host retry marker");
    assert_eq!((retry.core, retry.role), (HOST_CORE, RiscRole::Host));
    assert!(
        events.iter().any(|e| e.name.starts_with("launch_abort:")),
        "the failed launch leaves an abort marker"
    );
}
