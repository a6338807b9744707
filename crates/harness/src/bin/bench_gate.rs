//! Host wall-clock bench gate for the paths `perfbench` does not time.
//!
//! `perfbench` (`BENCHMARK.json`) is the repository's benchmark of record:
//! it times the single-card elementwise and matrix launch paths and reports
//! per-layer metrics on both clocks. This binary keeps only the host
//! wall-clock entries no `perfbench` workload covers:
//! `multi_device_time_to_solution` (one evaluation on a 2-card ring),
//! `cb_throughput` (circular-buffer streaming between one core's kernel
//! tasks), `tile_ops`
//! (FPU/SFPU tile math), `job_throughput` (draining the seeded serving
//! campaign [`tt_harness::bench_campaign`] through `tt-server`),
//! `serve_trace_overhead` (flight recorder on vs off, bounded by
//! [`RECORDER_BOUND`]) and
//! `tree_time_to_solution` (one Barnes-Hut evaluation at N = 1 000 000,
//! with a matched-N tree-vs-direct comparison in `tree_scaling`).
//! Deterministic virtual-clock figures are not gated here: they are pinned
//! exactly by the tests next to the code that produces them.
//!
//! Without arguments it measures and writes `BENCH_pipeline.json` at the
//! repo root (minting a baseline; mint from a clean tree so `commit` names
//! the measured code). With `--gate` it reads the committed file instead
//! and exits 1 if any entry regresses by more than [`TOLERANCE`]; it writes
//! nothing. Either way every entry is measured and printed first, and a
//! `serve_trace_overhead` above [`RECORDER_BOUND`] exits 1 too: the gate
//! fails, and a mint refuses to write the baseline. Every entry carries
//! `"clock": "host"`.
//!
//! Wall-clock numbers are the minimum of several repetitions after a warmup
//! pass, which keeps the 15% gate usable on a shared CI machine.

use std::sync::Arc;
use std::time::Instant;

use nbody::force::{ForceKernel, SimdKernel};
use nbody::ic::{plummer, PlummerConfig};
use nbody_tt::{ForceEvaluator, MultiDevicePipeline, TreeConfig, TreeForceEvaluator};
use tensix::cb::CircularBufferConfig;
use tensix::cost::ComputeCosts;
use tensix::grid::CoreRangeSet;
use tensix::tile::{Tile, TILE_DIM};
use tensix::{fpu, sfpu, DataFormat, Device, DeviceConfig, NocId};
use tt_harness::bench_campaign;
use tt_server::{run_campaign, ServerConfig};
use ttmetal::{cb_index, CommandQueue, DataMovementCtx, Program};

/// Allowed regression of any entry against the committed baseline.
const TOLERANCE: f64 = 0.15;
/// Largest allowed `serve_trace_overhead` (ring on / ring off): the
/// always-on flight recorder must cost under 2%.
const RECORDER_BOUND: f64 = 1.02;
/// The committed baseline, at the repo root.
const BASELINE: &str = "BENCH_pipeline.json";
/// Particle count for the multi-device ring bench.
const RING_N: usize = 4096;
/// Tiles streamed through the CB per repetition.
const CB_TILES: usize = 16384;
/// Tile-op mix repetitions per timed pass.
const TILE_OP_ITERS: usize = 10_000;
/// Particle count for the Barnes-Hut tree time-to-solution bench: the
/// scale the tree code exists for, far beyond any direct-sum bench here.
const TREE_N: usize = 1_000_000;
/// Matched-N comparison point where both the tree and the direct sum are
/// cheap enough to time head to head.
const TREE_MATCHED_N: usize = 16_384;
/// Timed repetitions per bench (the minimum is reported).
const REPS: usize = 5;

/// Best-of-`reps` wall clock after a warmup pass. The minimum — not the
/// median — is what a 15% gate needs on a shared single-core machine:
/// scheduling noise only ever adds time, so min-of-N converges on the
/// workload's true cost.
fn min_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// One full-N evaluation through a two-card ring (2 cores per card): the
/// per-card host pipelines, slice scatter/gather and the modeled
/// all-gather the resilient multi-device driver sits on.
fn bench_multi_device_time_to_solution() -> f64 {
    let sys = plummer(PlummerConfig { n: RING_N, seed: 0x5c25, ..PlummerConfig::default() });
    let devices =
        vec![Device::new(0, DeviceConfig::default()), Device::new(1, DeviceConfig::default())];
    let ring = MultiDevicePipeline::new(&devices, RING_N, 0.01, 2).unwrap();
    min_secs(REPS, || {
        let f = ring.evaluate_checked(&sys).unwrap();
        assert_eq!(f.acc.len(), RING_N);
    })
}

/// Producer/consumer tile streaming through one circular buffer — the
/// synchronization fabric of the read/compute/write pipeline: two kernels
/// of one core, run as the command queue's cooperative tasks.
fn bench_cb_throughput() -> f64 {
    let device = Device::new(0, DeviceConfig::default());
    let mut queue = CommandQueue::new(Arc::clone(&device));
    let core = CoreRangeSet::first_n(1, 8);
    let mut program = Program::new();
    let config = CircularBufferConfig::new(8, DataFormat::Float32);
    program.add_circular_buffer(core.clone(), cb_index::IN0, config);
    program.add_data_movement_kernel(
        "producer",
        core.clone(),
        NocId::Noc0,
        Arc::new(async |ctx: &mut DataMovementCtx| {
            let t = Tile::splat(DataFormat::Float32, 1.0);
            for _ in 0..CB_TILES {
                ctx.cb_reserve_back(cb_index::IN0, 1).await;
                ctx.cb_write_tile(cb_index::IN0, &t);
                ctx.cb_push_back(cb_index::IN0, 1);
            }
        }),
    );
    program.add_data_movement_kernel(
        "consumer",
        core,
        NocId::Noc1,
        Arc::new(async |ctx: &mut DataMovementCtx| {
            for _ in 0..CB_TILES {
                ctx.cb_wait_front(cb_index::IN0, 1).await;
                let _t = ctx.cb_peek_tile(cb_index::IN0, 0);
                ctx.cb_pop_front(cb_index::IN0, 1);
            }
        }),
    );
    min_secs(REPS, || {
        queue.enqueue_program(&program).unwrap();
    })
}

/// The FPU/SFPU tile-op mix used by the force kernel's interact() phases.
fn bench_tile_ops() -> f64 {
    let costs = ComputeCosts::default();
    let a = Tile::splat(DataFormat::Float32, 1.25);
    let b = Tile::splat(DataFormat::Float32, 0.75);
    min_secs(REPS, || {
        let mut out = Tile::zeros(DataFormat::Float32);
        let mut acc = Tile::zeros(DataFormat::Float32);
        let mut cycles = 0u64;
        for _ in 0..TILE_OP_ITERS {
            cycles += fpu::eltwise_binary(&costs, TILE_DIM, sfpu::BinaryOp::Sub, &a, &b, &mut out);
            cycles += sfpu::apply_unary(&costs, TILE_DIM, sfpu::UnaryOp::Square, &mut out);
            cycles += sfpu::apply_unary(&costs, TILE_DIM, sfpu::UnaryOp::RsqrtFast, &mut out);
            cycles += sfpu::apply_mad(&costs, TILE_DIM, &a, &b, &mut acc);
            cycles += fpu::matmul_tiles(&costs, &a, &b, &mut out, false);
            cycles += fpu::reduce_cols(&costs, &a, 0.5, &mut out);
        }
        assert!(cycles > 0);
        std::hint::black_box(&acc);
    })
}

/// Host wall clock to drain the bench campaign through the job server.
fn bench_job_throughput() -> f64 {
    let (cfg, arrivals) = bench_campaign(256);
    min_secs(REPS, || {
        let report = run_campaign(&cfg, &arrivals, None);
        assert!(report.census.zero_lost_jobs(), "bench campaign lost a job");
    })
}

/// The always-on flight-recorder ring vs a disabled recorder on the bench
/// campaign: the observability tax. The campaign is spill-I/O heavy, so
/// single off/on walls jitter by several percent in either direction; the
/// estimator is the *median of per-pair ratios* over interleaved off/on
/// runs — adjacent runs see the same machine load, and the median shrugs
/// off the heavy I/O tail. Returns the median ratio (lower is better,
/// baseline ≈ 1.0); `main` checks it against [`RECORDER_BOUND`].
fn bench_serve_trace_overhead() -> f64 {
    const PAIRS: usize = 9;
    let (cfg_off, arrivals) = bench_campaign(0);
    let (cfg_on, _) = bench_campaign(256);
    let timed = |cfg: &ServerConfig| {
        let t0 = Instant::now();
        let report = run_campaign(cfg, &arrivals, None);
        std::hint::black_box(report.flight_dropped);
        t0.elapsed().as_secs_f64()
    };
    let report = run_campaign(&cfg_off, &arrivals, None); // warmup
    assert!(report.postmortems.is_empty(), "disabled recorder must not trigger");
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|_| {
            let off = timed(&cfg_off);
            timed(&cfg_on) / off
        })
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    eprintln!("bench_gate:   on/off pair ratios: {ratios:.3?}");
    ratios[PAIRS / 2]
}

/// One Barnes-Hut force+jerk evaluation at N = `TREE_N` (θ = 0.6, host
/// near-field): the tree backend's time-to-solution inner loop at the
/// million-particle scale the backend exists for. A single timed pass, no
/// warmup — one evaluation is tens of seconds of deterministic work, so
/// scheduling noise is far below the gate tolerance, and min-of-5 would
/// cost minutes. Returns (wall seconds, interactions per evaluation).
fn bench_tree_time_to_solution() -> (f64, u64) {
    let sys = plummer(PlummerConfig { n: TREE_N, seed: 0x5c25, ..PlummerConfig::default() });
    let ev = TreeForceEvaluator::host(
        TREE_N,
        0.01,
        TreeConfig { theta: 0.6, leaf_capacity: 32, threads: 0 },
    );
    let t0 = Instant::now();
    let f = ev.evaluate_checked(&sys).unwrap();
    assert_eq!(f.acc.len(), TREE_N);
    let wall = t0.elapsed().as_secs_f64();
    (wall, ev.tree_cost().total_interactions())
}

/// Tree vs direct sum at a matched N where both are timeable: the
/// O(N log N) vs O(N²) evidence next to the 1M-particle number. Returns
/// (tree wall, direct wall) per evaluation.
fn bench_tree_vs_direct_matched() -> (f64, f64) {
    let sys =
        plummer(PlummerConfig { n: TREE_MATCHED_N, seed: 0x5c25, ..PlummerConfig::default() });
    let ev = TreeForceEvaluator::host(
        TREE_MATCHED_N,
        0.01,
        TreeConfig { theta: 0.6, leaf_capacity: 32, threads: 0 },
    );
    let tree = min_secs(3, || {
        let f = ev.evaluate_checked(&sys).unwrap();
        assert_eq!(f.acc.len(), TREE_MATCHED_N);
    });
    let kernel = SimdKernel::new(0.01);
    let direct = min_secs(3, || {
        let f = kernel.compute(&sys);
        assert_eq!(f.acc.len(), TREE_MATCHED_N);
    });
    (tree, direct)
}

fn git_commit() -> String {
    let head = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let Some(head) = head else { return "unknown".into() };
    let dirty = std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty());
    if dirty {
        format!("{head}-dirty")
    } else {
        head
    }
}

/// Minimal extraction of `"name": { ..., "value": <float> }` entries from
/// the committed baseline (avoids a JSON dependency; the file is ours).
fn baseline_value(json: &str, bench: &str) -> Option<f64> {
    let start = json.find(&format!("\"{bench}\""))?;
    let rest = &json[start..];
    let after = &rest[rest.find("\"value\"")? + "\"value\"".len()..];
    let tail = after[after.find(':')? + 1..].trim_start();
    let end = tail.find(|c: char| c == ',' || c == '}' || c.is_whitespace())?;
    tail[..end].parse().ok()
}

fn main() {
    // The serving benches inject (handled) device faults; keep their caught
    // panics out of the bench output.
    tt_server::install_fault_panic_filter();
    let gate = std::env::args().any(|a| a == "--gate");

    eprintln!("bench_gate: multi_device_time_to_solution (n = {RING_N}, 2 cards x 2 cores)...");
    let ring = bench_multi_device_time_to_solution();
    eprintln!("bench_gate:   {ring:.4} s");
    eprintln!("bench_gate: cb_throughput ({CB_TILES} tiles, depth 8)...");
    let cbt = bench_cb_throughput();
    eprintln!("bench_gate:   {cbt:.4} s");
    eprintln!("bench_gate: tile_ops ({TILE_OP_ITERS} iterations of the kernel mix)...");
    let ops = bench_tile_ops();
    eprintln!("bench_gate:   {ops:.4} s");
    eprintln!("bench_gate: job_throughput (bench campaign: 24 jobs, 2 cards, seeded storm)...");
    let serve_wall = bench_job_throughput();
    eprintln!("bench_gate:   {serve_wall:.4} s");
    eprintln!("bench_gate: serve_trace_overhead (flight-recorder ring on vs off)...");
    let trace_overhead = bench_serve_trace_overhead();
    eprintln!(
        "bench_gate:   {trace_overhead:.3}x (ring on / ring off; must stay <= {RECORDER_BOUND})"
    );
    eprintln!("bench_gate: tree_time_to_solution (n = {TREE_N}, θ = 0.6, one evaluation)...");
    let (tree_wall, tree_interactions) = bench_tree_time_to_solution();
    eprintln!("bench_gate:   {tree_wall:.4} s, {tree_interactions} interactions");
    eprintln!("bench_gate: tree vs direct at matched n = {TREE_MATCHED_N}...");
    let (tree_matched, direct_matched) = bench_tree_vs_direct_matched();
    eprintln!(
        "bench_gate:   tree {tree_matched:.4} s vs direct {direct_matched:.4} s ({:.1}x); \
         1M-particle tree touched {:.1}% of the direct sum's pairs",
        direct_matched / tree_matched,
        100.0 * tree_interactions as f64 / (TREE_N as f64 * (TREE_N - 1) as f64)
    );

    // (name, unit, value): lower is better for every entry.
    let results = [
        ("multi_device_time_to_solution", "s", ring),
        ("cb_throughput", "s", cbt),
        ("tile_ops", "s", ops),
        ("job_throughput", "s", serve_wall),
        ("serve_trace_overhead", "x", trace_overhead),
        ("tree_time_to_solution", "s", tree_wall),
    ];
    let recorder_broken = trace_overhead > RECORDER_BOUND;
    let recorder_fail = format!(
        "bench_gate: FAIL — serve_trace_overhead {trace_overhead:.3}x breaks the recorder bound \
         <= {RECORDER_BOUND}x"
    );

    if gate {
        let baseline = std::fs::read_to_string(BASELINE).expect("read the committed baseline");
        let mut failed = Vec::new();
        for (name, unit, value) in &results {
            let Some(old) = baseline_value(&baseline, name) else {
                eprintln!("bench_gate: {name}: no committed baseline entry, skipping gate");
                continue;
            };
            let ratio = value / old;
            let regressed = ratio > 1.0 + TOLERANCE;
            let verdict = if regressed { "REGRESSED" } else { "ok" };
            eprintln!(
                "bench_gate: {name}: {old:.4} {unit} -> {value:.4} {unit} ({ratio:.2}x) {verdict}"
            );
            if regressed {
                failed.push(*name);
            }
        }
        if !failed.is_empty() {
            eprintln!(
                "bench_gate: FAIL — wall-clock regression >{:.0}% on: {}",
                TOLERANCE * 100.0,
                failed.join(", ")
            );
        }
        if recorder_broken {
            eprintln!("{recorder_fail}");
        }
        if recorder_broken || !failed.is_empty() {
            std::process::exit(1);
        }
        eprintln!("bench_gate: every entry within {:.0}% of {BASELINE}", TOLERANCE * 100.0);
        return;
    }

    if recorder_broken {
        eprintln!("{recorder_fail}; {BASELINE} not written");
        std::process::exit(1);
    }
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"commit\": \"{}\",\n", git_commit()));
    json.push_str(&format!("  \"tolerance\": {TOLERANCE},\n"));
    json.push_str("  \"benches\": {\n");
    for (i, (name, unit, value)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{name}\": {{ \"clock\": \"host\", \"unit\": \"{unit}\", \"value\": {value:.6} }}{comma}\n"
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"tree_scaling\": {{ \"clock\": \"host\", \"n\": {TREE_N}, \"theta\": 0.6, \"interactions_per_eval\": {tree_interactions}, \"direct_pairs_at_n\": {}, \"matched_n\": {TREE_MATCHED_N}, \"tree_wall_s\": {tree_matched:.6}, \"direct_wall_s\": {direct_matched:.6}, \"tree_speedup_at_matched_n\": {:.2} }}\n",
        TREE_N as u128 * (TREE_N - 1) as u128,
        direct_matched / tree_matched
    ));
    json.push_str("}\n");
    std::fs::write(BASELINE, &json).expect("write BENCH_pipeline.json");
    eprintln!("bench_gate: wrote {BASELINE}");
}
