//! E11 — multi-tenant serving under a fault storm.
//!
//! Replays a seeded open-loop workload (default 120 jobs, three tenants at
//! a 3:2:1 mix) through the job server over a mixed fleet — three single
//! cards, a 2-card ring with one spare, and a storm-immune host tree-code
//! backend (its own golden class) — while a seeded fault storm
//! injects device losses, Ethernet flaps, and DRAM-ECC bursts. The
//! campaign is then replayed from the same seed and the two reports are
//! compared digest-for-digest.
//!
//! Prints the zero-lost-jobs verdict, the determinism verdict, the
//! per-tenant latency census, and the latency-attribution tables (queue /
//! service / retry / migration / degrade, per tenant and per backend
//! class); writes `results/serving_jobs.csv`, `results/serving_census.csv`,
//! and `results/serving_attribution.csv`. The always-on flight recorder
//! dumps JSON post-mortems to `results/postmortem/` on golden mismatch,
//! job loss, or breaker trip. With `--profile` the per-job span trees are
//! additionally rendered as a Chrome trace (`results/serving_trace.json`)
//! with one lane per tenant (queue waits) and one lane per backend.
//! Exits non-zero if any admitted job is lost, any completion mismatches
//! its fault-free golden, the replay digest differs, or the attribution
//! buckets fail to sum to the end-to-end latency exactly.
//!
//! Usage: `serve_storm [--jobs N] [--seed S] [--profile]`

use std::sync::Arc;

use tensix::StormConfig;
use tt_harness::{generate_load, LoadConfig};
use tt_server::{run_campaign, BackendKind, BreakerConfig, FlightConfig, ServerConfig, TenantSpec};
use tt_telemetry::attribution::{
    attribute, attributions_to_csv, rollup_by_class, rollup_by_tenant, rollups_to_table,
};
use tt_telemetry::serving::{census_to_csv, jobs_to_csv};
use tt_trace::serving::server_trace_to_chrome;
use tt_trace::MemorySink;

fn main() {
    let mut jobs = 120usize;
    let mut seed = 0xe10u64;
    let mut profile = false;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--profile" => {
                profile = true;
                i += 1;
            }
            "--jobs" => {
                jobs = args.get(i + 1).expect("--jobs takes a count").parse().expect("--jobs");
                i += 2;
            }
            "--seed" => {
                seed = args.get(i + 1).expect("--seed takes a u64").parse().expect("--seed");
                i += 2;
            }
            other => panic!("unknown flag {other}"),
        }
    }

    let load = LoadConfig { seed, jobs, rate_hz: 2000.0, deadline_s: 0.5, ..LoadConfig::default() };
    let arrivals = generate_load(&load).unwrap_or_else(|e| {
        eprintln!("invalid load config: {e}");
        std::process::exit(2);
    });
    let spill_dir = std::env::temp_dir().join(format!("tt-serve-e10-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).expect("spill dir");
    std::fs::create_dir_all("results").expect("results dir");

    let cfg = ServerConfig {
        tenants: vec![
            TenantSpec { weight: 3.0, max_queue: 24 },
            TenantSpec { weight: 2.0, max_queue: 24 },
            TenantSpec { weight: 1.0, max_queue: 24 },
        ],
        backends: vec![
            BackendKind::SingleCard,
            BackendKind::SingleCard,
            BackendKind::SingleCard,
            BackendKind::Ring { members: 2, spares: 1 },
            // Storm-immune host tree backend: its own golden class, never a
            // cross-class migration target.
            BackendKind::TreeHost { theta_milli: 600 },
        ],
        storm: StormConfig {
            seed,
            device_loss_prob: 0.02,
            eth_flap_prob: 0.01,
            dram_corruption_prob: 1e-4,
            scheduled_loss_prob: 0.5,
            ..StormConfig::default()
        },
        max_queue: 48,
        breaker: BreakerConfig { threshold: 2, quarantine_s: 0.005 },
        recoveries_per_segment: 0,
        spill_dir,
        flight: FlightConfig {
            dump_dir: Some("results/postmortem".into()),
            ..FlightConfig::default()
        },
        ..ServerConfig::default()
    };

    println!(
        "E11 fault-storm serving campaign: {} jobs, seed {:#x}, fleet 3x card + 1x ring(2+1) + 1x tree(θ=0.6)",
        jobs, seed
    );

    let sink = Arc::new(MemorySink::new());
    let report = run_campaign(&cfg, &arrivals, Some(sink.as_ref()));
    // The replay writes no post-mortems (same triggers would fire; the
    // first run's dumps are the record).
    let replay_cfg = ServerConfig {
        flight: FlightConfig { dump_dir: None, ..FlightConfig::default() },
        ..cfg.clone()
    };
    let replay = run_campaign(&replay_cfg, &arrivals, None);

    let c = &report.census;
    println!(
        "jobs admitted: {} completed: {} shed: {} lost: {}",
        c.total,
        c.completed,
        c.shed,
        c.total - c.completed - c.shed
    );
    println!("bitwise-identical to fault-free goldens: {}", c.bitwise_golden == c.completed);
    println!("deterministic replay digest match: {}", report.digest == replay.digest);
    let failovers: u64 = report.backends.iter().map(|b| b.failovers).sum();
    println!(
        "quarantines: {} migrations: {} recoveries: {} cpu-fallbacks: {} ring-failovers: {}",
        report.quarantines, c.migrations, c.recoveries, report.cpu_fallbacks, failovers
    );
    println!("latency p50: {:.6} s p99: {:.6} s (virtual)", c.p50_latency_s, c.p99_latency_s);
    for t in &c.tenants {
        println!(
            "  tenant {}: admitted {} completed {} shed {} degraded {} p50 {:.6} s p99 {:.6} s",
            t.tenant,
            t.admitted,
            t.completed,
            t.shed,
            t.degraded_cpu,
            t.p50_latency_s,
            t.p99_latency_s
        );
    }
    for b in &report.backends {
        println!(
            "  backend {}: completed {} terminal-faults {} quarantines {} failovers {}",
            b.label, b.completed, b.terminal_faults, b.quarantines, b.failovers
        );
    }
    println!("server trace events: {}", sink.export().len());

    // Latency attribution from the per-job span trees: buckets must sum to
    // end-to-end latency exactly (integer virtual nanoseconds) and replay
    // bitwise from the campaign seed.
    assert_eq!(report.spans.len(), report.jobs.len(), "one span tree per admitted job");
    let attributions: Vec<_> = report
        .spans
        .iter()
        .map(|t| attribute(t).unwrap_or_else(|e| panic!("malformed span tree: {e}")))
        .collect();
    for a in &attributions {
        assert_eq!(
            a.bucket_sum_ns(),
            a.total_ns,
            "job {}: attribution buckets must sum to end-to-end latency exactly",
            a.job_id
        );
    }
    assert_eq!(report.spans, replay.spans, "span trees must replay bitwise");
    let replay_attr: Vec<_> = replay.spans.iter().map(|t| attribute(t).unwrap()).collect();
    assert_eq!(
        attributions_to_csv(&attributions),
        attributions_to_csv(&replay_attr),
        "attribution must replay bitwise"
    );
    println!("attribution buckets sum exactly to latency: true (replay bitwise-identical: true)");
    print!("{}", rollups_to_table("per-tenant attribution:", &rollup_by_tenant(&attributions)));
    print!("{}", rollups_to_table("per-class attribution:", &rollup_by_class(&attributions)));

    // Flight recorder: every trigger is listed; dumped post-mortems name
    // their files.
    println!(
        "flight recorder: {} trigger(s), ring evictions: {}",
        report.postmortems.len(),
        report.flight_dropped
    );
    for pm in &report.postmortems {
        match (&pm.path, pm.job_id) {
            (Some(p), Some(j)) => println!(
                "flight-recorder dump: {} job={} t={:.6}s -> {}",
                pm.trigger.label(),
                j,
                pm.t_s,
                p.display()
            ),
            (Some(p), None) => println!(
                "flight-recorder dump: {} t={:.6}s -> {}",
                pm.trigger.label(),
                pm.t_s,
                p.display()
            ),
            (None, _) => println!(
                "flight-recorder trigger (not dumped): {} t={:.6}s",
                pm.trigger.label(),
                pm.t_s
            ),
        }
    }

    std::fs::write("results/serving_jobs.csv", jobs_to_csv(&report.jobs)).expect("jobs csv");
    std::fs::write("results/serving_census.csv", census_to_csv(c)).expect("census csv");
    std::fs::write("results/serving_attribution.csv", attributions_to_csv(&attributions))
        .expect("attribution csv");
    println!(
        "wrote results/serving_jobs.csv, results/serving_census.csv, results/serving_attribution.csv"
    );

    if profile {
        let labels: Vec<String> = report.backends.iter().map(|b| b.label.clone()).collect();
        let chrome = server_trace_to_chrome(&report.spans, &labels);
        std::fs::write("results/serving_trace.json", &chrome).expect("serving trace");
        println!(
            "wrote results/serving_trace.json ({} span trees, one lane per tenant + per backend)",
            report.spans.len()
        );
    }

    assert_eq!(c.total, jobs, "every submitted job must be accounted for");
    assert!(c.zero_lost_jobs(), "zero-lost-jobs invariant violated");
    assert_eq!(report.digest, replay.digest, "campaign must replay bitwise");
}
