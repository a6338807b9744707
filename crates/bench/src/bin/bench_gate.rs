//! Hand-rolled wall-clock bench gate for the host simulator's hot path.
//!
//! The regression gate is a plain `std::time::Instant` binary. It runs quick versions of the hot-path
//! workloads named by the bench trajectory — `time_to_solution` (end-to-end
//! device force pipeline), `matrix_time_to_solution` (the same evaluation
//! through the matrix-pipe blocked-matmul kernel, with modeled cycles/pair
//! recorded for both kernels and asserted below the paper-calibrated
//! 2.727), the per-arch `time_to_solution_n150`/`_n300` (deterministic
//! modeled full-card paper runs from the device catalog),
//! `multi_device_time_to_solution` (2-card ring),
//! `cb_throughput` (cross-thread circular-buffer streaming), `tile_ops`
//! (FPU/SFPU tile math), the serving pair `job_throughput` (host wall
//! clock to drain a fixed seeded storm campaign through `tt-server`) /
//! `job_p99_latency` (the campaign's deterministic virtual p99 job
//! latency), and `tree_time_to_solution` (one Barnes-Hut force+jerk
//! evaluation at N = 1,000,000, with a matched-N tree-vs-direct scaling
//! comparison recorded alongside) — and writes `BENCH_pipeline.json` at
//! the repo root:
//!
//! ```text
//! { "commit": ..., "n": ..., "benches": { "<name>": { "wall_s": ... } } }
//! ```
//!
//! With `--gate`, the committed `BENCH_pipeline.json` is read first and the
//! run fails (exit 1) if any bench regresses by more than the tolerance
//! (default 15%, override with `TT_BENCH_TOLERANCE=0.25`). Without `--gate`
//! it only (re)writes the file — used to mint the first baseline.
//!
//! Wall-clock numbers are the minimum of several repetitions after a warmup
//! pass, which keeps the 15% gate usable on a shared CI machine.

use std::thread;
use std::time::Instant;

use nbody::force::{ForceKernel, SimdKernel};
use nbody::ic::{plummer, IcKind, PlummerConfig};
use nbody_tt::{
    arch_run, run_block_simulation, run_simulation, BlockStepConfig, DeviceForcePipeline,
    ForceEvaluator, ForceKernelKind, MultiDevicePipeline, SimulationConfig, TreeConfig,
    TreeForceEvaluator, DEVICE_CYCLES_PER_PAIR,
};
use tensix::catalog::DeviceArch;
use tensix::cb::{CircularBuffer, CircularBufferConfig};
use tensix::cost::ComputeCosts;
use tensix::tile::{Tile, TILE_DIM};
use tensix::{fpu, sfpu, DataFormat, Device, DeviceConfig, StormConfig};
use tt_harness::{generate_load, LoadConfig};
use tt_server::{run_campaign, BackendKind, FlightConfig, JobRequest, ServerConfig, TenantSpec};

/// Particle count for the end-to-end pipeline bench.
const PIPELINE_N: usize = 8192;
/// Particle count for the multi-device ring bench (smaller: the ring path
/// runs every card's pipeline on the host, so the same N costs ~2x).
const RING_N: usize = 4096;
/// Tiles streamed through the CB per repetition.
const CB_TILES: usize = 16384;
/// Tile-op mix repetitions per timed pass.
const TILE_OP_ITERS: usize = 10_000;
/// Jobs per serving-campaign repetition.
const SERVE_JOBS: usize = 24;
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

/// End-to-end force+jerk evaluation through the device pipeline (the
/// paper's time-to-solution inner loop), small-N quick mode. Returns
/// (wall seconds, modeled compute cycles per pair on the slowest core).
fn bench_time_to_solution_kernel(kind: ForceKernelKind) -> (f64, f64) {
    let sys = plummer(PlummerConfig { n: PIPELINE_N, seed: 0x5c25, ..PlummerConfig::default() });
    let device = Device::new(0, DeviceConfig::default());
    let pipeline = DeviceForcePipeline::new_with_kernel(device, PIPELINE_N, 0.01, 2, kind).unwrap();
    let wall = min_secs(REPS, || {
        let f = pipeline.evaluate_checked(&sys).unwrap();
        assert_eq!(f.acc.len(), PIPELINE_N);
    });
    // Interactions owned by the slowest core: the denominator that turns
    // the modeled compute cycles into cycles/pair, comparable across
    // kernels with different work-unit granularities.
    let slowest_pairs = pipeline.sizing(PIPELINE_N).slowest_core_targets() * PIPELINE_N;
    let cycles_per_pair = pipeline.timing().last_eval_cycles as f64 / slowest_pairs as f64;
    (wall, cycles_per_pair)
}

/// Modeled (virtual) full-card time-to-solution for one catalog part at the
/// paper configuration — deterministic by construction, so the 15% gate on
/// these entries catches perf-model regressions, not machine noise (the
/// same `wall_s`-slot reuse as `job_p99_latency`).
fn modeled_arch_seconds(arch: &DeviceArch) -> f64 {
    arch_run(arch).accel_seconds_multi_device(arch.chips)
}

/// The same end-to-end evaluation through a two-card ring (2 cores per
/// card): the ForceEvaluator ring path — per-card host pipelines, slice
/// scatter/gather and the modeled all-gather — the resilient multi-device
/// driver sits on.
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
/// synchronization fabric of the read/compute/write pipeline.
fn bench_cb_throughput() -> f64 {
    let cb = CircularBuffer::new(CircularBufferConfig::new(8, DataFormat::Float32));
    min_secs(REPS, || {
        thread::scope(|scope| {
            let producer = cb.clone();
            scope.spawn(move || {
                let t = Tile::splat(DataFormat::Float32, 1.0);
                for _ in 0..CB_TILES {
                    producer.reserve_back(1);
                    producer.write_tile(&t);
                    producer.push_back(1);
                }
            });
            let consumer = cb.clone();
            scope.spawn(move || {
                for _ in 0..CB_TILES {
                    consumer.wait_front(1);
                    let _t = consumer.peek_tile(0);
                    consumer.pop_front(1);
                }
            });
        });
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

/// The fixed seeded serving campaign shared by the serving benches:
/// `SERVE_JOBS` jobs, two single cards, a light fault storm. `last_k`
/// sizes the flight-recorder ring (0 disables it).
fn serve_bench_campaign(last_k: usize) -> (ServerConfig, Vec<(f64, JobRequest)>) {
    let load = LoadConfig {
        seed: 0xbe9c,
        jobs: SERVE_JOBS,
        rate_hz: 500.0,
        n_choices: vec![48, 64],
        deadline_s: 10.0,
        ..LoadConfig::default()
    };
    let arrivals = generate_load(&load).expect("bench load config is valid");
    let spill_dir = std::env::temp_dir().join(format!("tt-bench-serve-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).expect("spill dir");
    let cfg = ServerConfig {
        tenants: vec![TenantSpec::default(); 3],
        backends: vec![BackendKind::SingleCard, BackendKind::SingleCard],
        storm: StormConfig {
            seed: 0xbe9c,
            device_loss_prob: 0.01,
            scheduled_loss_prob: 0.25,
            ..StormConfig::default()
        },
        spill_dir,
        flight: FlightConfig { last_k, ..FlightConfig::default() },
        ..ServerConfig::default()
    };
    (cfg, arrivals)
}

/// A fixed seeded serving campaign through the `tt-server` job server:
/// `SERVE_JOBS` jobs, two single cards, a light fault storm. Returns the
/// host wall clock to drain the campaign (`job_throughput`) and the
/// campaign's p99 *virtual* job latency (`job_p99_latency`) — the latter is
/// deterministic by construction, so any change is a behavioral regression
/// in the serving policy, not machine noise.
fn bench_job_server() -> (f64, f64) {
    let (cfg, arrivals) = serve_bench_campaign(256);
    let mut p99 = 0.0;
    let wall = min_secs(REPS, || {
        let report = run_campaign(&cfg, &arrivals, None);
        assert!(report.census.zero_lost_jobs(), "bench campaign lost a job");
        p99 = report.census.p99_latency_s;
    });
    (wall, p99)
}

/// The always-on flight-recorder ring vs a disabled recorder on the same
/// seeded campaign: the observability tax. The campaign is spill-I/O
/// heavy, so single off/on walls jitter by several percent in either
/// direction; the estimator is the *median of per-pair ratios* over
/// interleaved off/on runs — adjacent runs see the same machine load, and
/// the median shrugs off the heavy I/O tail. Asserts the ring costs <2%
/// and returns the median ratio, recorded in the gate file (lower is
/// better, baseline ≈ 1.0).
fn bench_serve_trace_overhead() -> f64 {
    const PAIRS: usize = 9;
    let (cfg_off, arrivals) = serve_bench_campaign(0);
    let (cfg_on, _) = serve_bench_campaign(256);
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
    let ratio = ratios[PAIRS / 2];
    assert!(
        ratio <= 1.02,
        "flight-recorder ring must cost <2% vs disabled: median on/off ratio {ratio:.3}x \
         (pairs: {ratios:?})"
    );
    ratio
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

/// Particle count for the block-step vs shared-step comparison: 4 target
/// tiles on one core, so an active launch (gathered into its leading
/// tiles) is genuinely smaller than the full-N grid.
const BLOCK_N: usize = 4096;

/// Hierarchical block steps vs the shared-step integrator at *equal
/// energy error* on a cold collapse: the shared run must use the
/// hierarchy's finest step everywhere to match the block run's accuracy,
/// so it pays `2^levels` full-N launches per base step while the block
/// scheduler launches only the due particles. Both runs are virtual-time
/// deterministic (device + PCIe seconds from the same cost model), so the
/// ratio is a behavioral gate, not machine noise. Returns
/// (speedup, block dE/E, shared dE/E, mean active fraction).
fn bench_block_step_speedup() -> (f64, f64, f64, f64) {
    let levels = 3u32;
    let dt = 1.0 / 16.0;
    let config = SimulationConfig {
        eps: 0.05,
        cycles: 1,
        steps_per_cycle: 4, // t_end = 0.25: well into the collapse
        dt,
        num_cores: 1,
        blocks: Some(BlockStepConfig { eta: 0.02, levels }),
    };
    let make = || IcKind::ColdCollapse.build(BLOCK_N, 3);
    let virtual_s = |t: &nbody_tt::PipelineTiming| t.device_seconds + t.io_seconds;

    let mut block_sys = make();
    let card = std::sync::Arc::new(
        DeviceForcePipeline::new(Device::new(0, DeviceConfig::default()), BLOCK_N, config.eps, 1)
            .unwrap(),
    );
    let block = run_block_simulation(&card, &mut block_sys, config).unwrap();
    let block_s = virtual_s(&block.outcome.timing.expect("device run has timing"));

    let refine = 1usize << levels;
    let mut shared_sys = make();
    let shared_card = std::sync::Arc::new(
        DeviceForcePipeline::new(Device::new(1, DeviceConfig::default()), BLOCK_N, config.eps, 1)
            .unwrap(),
    );
    let shared = run_simulation(
        &shared_card,
        &mut shared_sys,
        SimulationConfig {
            blocks: None,
            dt: dt / refine as f64,
            steps_per_cycle: config.steps_per_cycle * refine,
            ..config
        },
    );
    let shared_s = virtual_s(&shared.timing.expect("device run has timing"));

    let active_frac = block.report.particle_evaluations as f64
        / (block.report.iterations as f64 * BLOCK_N as f64);
    (shared_s / block_s, block.outcome.energy_error, shared.energy_error, active_frac)
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

/// Minimal extraction of `"name": { "wall_s": <float> }` entries from the
/// committed baseline (avoids a JSON dependency; the file is ours).
fn baseline_wall_s(json: &str, bench: &str) -> Option<f64> {
    let key = format!("\"{bench}\"");
    let start = json.find(&key)?;
    let rest = &json[start..];
    let ws = rest.find("\"wall_s\"")?;
    let after = &rest[ws + "\"wall_s\"".len()..];
    let colon = after.find(':')?;
    let tail = after[colon + 1..].trim_start();
    let end = tail.find(|c: char| c == ',' || c == '}' || c.is_whitespace())?;
    tail[..end].parse().ok()
}

fn main() {
    // The serving bench injects (handled) device faults; keep their caught
    // panics out of the bench output.
    tt_server::install_fault_panic_filter();
    let args: Vec<String> = std::env::args().collect();
    // `--only <substr>` runs just the matching benches and prints their
    // walls without touching the JSON or the gate — a probe mode for
    // diagnosing a single regression without paying for the full suite.
    if let Some(pos) = args.iter().position(|a| a == "--only") {
        let pat = args.get(pos + 1).expect("--only needs a bench-name substring").clone();
        if "cb_throughput".contains(&pat) {
            for _ in 0..3 {
                eprintln!("bench_gate:   cb_throughput {:.6} s", bench_cb_throughput());
            }
        }
        if "time_to_solution".contains(&pat) {
            let (wall, cpp) = bench_time_to_solution_kernel(ForceKernelKind::Elementwise);
            eprintln!("bench_gate:   time_to_solution {wall:.6} s ({cpp:.3} cycles/pair)");
        }
        if "matrix_time_to_solution".contains(&pat) {
            let (wall, cpp) = bench_time_to_solution_kernel(ForceKernelKind::Matrix);
            eprintln!("bench_gate:   matrix_time_to_solution {wall:.6} s ({cpp:.3} cycles/pair)");
        }
        if "tile_ops".contains(&pat) {
            eprintln!("bench_gate:   tile_ops {:.6} s", bench_tile_ops());
        }
        return;
    }
    let gate = std::env::args().any(|a| a == "--gate");
    let out_path = "BENCH_pipeline.json";
    let tolerance: f64 =
        std::env::var("TT_BENCH_TOLERANCE").ok().and_then(|v| v.parse().ok()).unwrap_or(0.15);

    let baseline = std::fs::read_to_string(out_path).ok();

    eprintln!("bench_gate: time_to_solution (n = {PIPELINE_N}, 2 cores)...");
    let (tts, elementwise_cpp) = bench_time_to_solution_kernel(ForceKernelKind::Elementwise);
    eprintln!("bench_gate:   {tts:.4} s ({elementwise_cpp:.3} cycles/pair)");
    eprintln!("bench_gate: matrix_time_to_solution (n = {PIPELINE_N}, 2 cores, matrix pipe)...");
    let (matrix_tts, matrix_cpp) = bench_time_to_solution_kernel(ForceKernelKind::Matrix);
    eprintln!("bench_gate:   {matrix_tts:.4} s ({matrix_cpp:.3} cycles/pair)");
    // The matrix formulation's whole claim: modeled cycles/pair strictly
    // below the paper-calibrated elementwise 2.727.
    assert!(
        matrix_cpp < DEVICE_CYCLES_PER_PAIR,
        "matrix kernel must beat the calibrated elementwise {DEVICE_CYCLES_PER_PAIR} cycles/pair \
         (measured {matrix_cpp:.3})"
    );
    eprintln!("bench_gate: multi_device_time_to_solution (n = {RING_N}, 2 cards x 2 cores)...");
    let ring = bench_multi_device_time_to_solution();
    eprintln!("bench_gate:   {ring:.4} s");
    eprintln!("bench_gate: cb_throughput ({CB_TILES} tiles, depth 8)...");
    let cbt = bench_cb_throughput();
    eprintln!("bench_gate:   {cbt:.4} s");
    eprintln!("bench_gate: tile_ops ({TILE_OP_ITERS} iterations of the kernel mix)...");
    let ops = bench_tile_ops();
    eprintln!("bench_gate:   {ops:.4} s");
    eprintln!("bench_gate: job server ({SERVE_JOBS} jobs, 2 cards, seeded storm)...");
    let (serve_wall, serve_p99) = bench_job_server();
    eprintln!("bench_gate:   {serve_wall:.4} s wall, {serve_p99:.6} s virtual p99");
    eprintln!("bench_gate: tree_time_to_solution (n = {TREE_N}, θ = 0.6, one evaluation)...");
    let (tree_wall, tree_interactions) = bench_tree_time_to_solution();
    eprintln!("bench_gate:   {tree_wall:.4} s, {tree_interactions} interactions");
    eprintln!("bench_gate: serve_trace_overhead (flight-recorder ring on vs off)...");
    let trace_overhead = bench_serve_trace_overhead();
    eprintln!("bench_gate:   {trace_overhead:.3}x (ring on / ring off; must stay < 1.02)");
    eprintln!("bench_gate: block_step_speedup (n = {BLOCK_N} cold collapse, virtual time)...");
    let (block_speedup, block_de, shared_de, active_frac) = bench_block_step_speedup();
    eprintln!(
        "bench_gate:   {block_speedup:.2}x vs equal-accuracy shared step \
         (dE/E {block_de:.2e} vs {shared_de:.2e}, mean active fraction {active_frac:.3})"
    );
    // The hierarchy's whole claim: strictly faster than the shared-step
    // integrator once the shared run is forced to the accuracy-matching
    // fine step, with both runs inside the energy budget.
    assert!(
        block_speedup > 1.0,
        "block steps must beat the equal-accuracy shared run (got {block_speedup:.3}x)"
    );
    assert!(
        block_de < 1e-4 && shared_de < 1e-4,
        "both integrators must hold dE/E < 1e-4 (block {block_de:.2e}, shared {shared_de:.2e})"
    );
    eprintln!("bench_gate: tree vs direct at matched n = {TREE_MATCHED_N}...");
    let (tree_matched, direct_matched) = bench_tree_vs_direct_matched();
    eprintln!(
        "bench_gate:   tree {tree_matched:.4} s vs direct {direct_matched:.4} s ({:.1}x); \
         1M-particle tree touched {:.1}% of the direct sum's pairs",
        direct_matched / tree_matched,
        100.0 * tree_interactions as f64 / (TREE_N as f64 * (TREE_N - 1) as f64)
    );

    let n150 = DeviceArch::n150();
    let n300 = DeviceArch::n300();
    let (n150_s, n300_s) = (modeled_arch_seconds(&n150), modeled_arch_seconds(&n300));
    eprintln!(
        "bench_gate: modeled full-card paper run: n150 {n150_s:.2} s ({} cores), \
         n300 {n300_s:.2} s ({} cores)",
        n150.total_cores(),
        n300.total_cores()
    );

    // `job_p99_latency` reuses the `wall_s` slot for its (virtual) seconds,
    // `serve_trace_overhead` for its on/off ratio, `block_step_time_ratio`
    // for the block/shared virtual-time ratio (the reciprocal of the
    // speedup, so a shrinking block-step advantage regresses the gate), and
    // the per-arch `time_to_solution_n150`/`_n300` entries for their
    // modeled full-card seconds: same lower-is-better gate semantics.
    let results = [
        ("block_step_time_ratio", 1.0 / block_speedup),
        ("time_to_solution", tts),
        ("matrix_time_to_solution", matrix_tts),
        ("multi_device_time_to_solution", ring),
        ("cb_throughput", cbt),
        ("tile_ops", ops),
        ("job_throughput", serve_wall),
        ("job_p99_latency", serve_p99),
        ("serve_trace_overhead", trace_overhead),
        ("tree_time_to_solution", tree_wall),
        ("time_to_solution_n150", n150_s),
        ("time_to_solution_n300", n300_s),
    ];

    // Seed-commit wall clocks measured with this same binary on the scalar /
    // deep-copy implementation (commit 6b8f827, before the zero-copy PR), on
    // the machine that minted the committed baseline. Kept in the JSON so the
    // delivered speedup is machine-readable next to the current numbers.
    // Benches added later (the ring bench) have no seed number and are
    // skipped in `speedup_vs_seed`.
    let seed = seed_baseline::WALL_S;

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"commit\": \"{}\",\n", git_commit()));
    json.push_str(&format!("  \"n\": {PIPELINE_N},\n"));
    json.push_str(&format!("  \"tolerance\": {tolerance},\n"));
    json.push_str("  \"benches\": {\n");
    for (i, (name, wall)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {{ \"wall_s\": {wall:.6} }}{comma}\n"));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"tree_scaling\": {{ \"n\": {TREE_N}, \"theta\": 0.6, \"interactions_per_eval\": {tree_interactions}, \"direct_pairs_at_n\": {}, \"matched_n\": {TREE_MATCHED_N}, \"tree_wall_s\": {tree_matched:.6}, \"direct_wall_s\": {direct_matched:.6}, \"tree_speedup_at_matched_n\": {:.2} }},\n",
        TREE_N as u128 * (TREE_N - 1) as u128,
        direct_matched / tree_matched
    ));
    json.push_str(&format!(
        "  \"device_cycles_per_pair\": {{ \"paper_calibrated\": {DEVICE_CYCLES_PER_PAIR}, \"elementwise\": {elementwise_cpp:.4}, \"matrix\": {matrix_cpp:.4} }},\n",
    ));
    json.push_str(&format!(
        "  \"block_step\": {{ \"n\": {BLOCK_N}, \"speedup_vs_equal_accuracy_shared\": {block_speedup:.2}, \"block_energy_error\": {block_de:.3e}, \"shared_energy_error\": {shared_de:.3e}, \"mean_active_fraction\": {active_frac:.4} }},\n",
    ));
    json.push_str(&format!(
        "  \"seed_baseline\": {{ \"commit\": \"{}\", \"time_to_solution_wall_s\": {:.6}, \"cb_throughput_wall_s\": {:.6}, \"tile_ops_wall_s\": {:.6} }},\n",
        seed_baseline::COMMIT, seed[0].1, seed[1].1, seed[2].1
    ));
    json.push_str("  \"speedup_vs_seed\": {\n");
    let with_seed: Vec<_> = results
        .iter()
        .filter_map(|(name, wall)| {
            seed.iter().find(|(s, _)| s == name).map(|(_, sw)| (*name, sw / wall))
        })
        .collect();
    for (i, (name, speedup)) in with_seed.iter().enumerate() {
        let comma = if i + 1 < with_seed.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {speedup:.2}{comma}\n"));
    }
    json.push_str("  }\n}\n");

    let mut failed = Vec::new();
    if gate {
        if let Some(base) = &baseline {
            for (name, wall) in &results {
                if let Some(old) = baseline_wall_s(base, name) {
                    let ratio = wall / old;
                    let verdict = if ratio > 1.0 + tolerance { "REGRESSED" } else { "ok" };
                    eprintln!(
                        "bench_gate: {name}: {old:.4} s -> {wall:.4} s ({ratio:.2}x) {verdict}"
                    );
                    if ratio > 1.0 + tolerance {
                        failed.push(*name);
                    }
                } else {
                    eprintln!("bench_gate: {name}: no committed baseline entry, skipping gate");
                }
            }
        } else {
            eprintln!("bench_gate: no committed {out_path}; writing first baseline");
        }
    }

    std::fs::write(out_path, &json).expect("write BENCH_pipeline.json");
    eprintln!("bench_gate: wrote {out_path}");

    if !failed.is_empty() {
        eprintln!(
            "bench_gate: FAIL — wall-clock regression >{:.0}% on: {}",
            tolerance * 100.0,
            failed.join(", ")
        );
        std::process::exit(1);
    }
}

/// Measured once at the pre-optimization seed commit; see module docs.
mod seed_baseline {
    pub const COMMIT: &str = "6b8f827";
    /// Seed wall seconds by bench name (benches without a seed-commit
    /// measurement are absent).
    pub const WALL_S: [(&str, f64); 3] =
        [("time_to_solution", 4.629751), ("cb_throughput", 0.014566), ("tile_ops", 0.949089)];
}
