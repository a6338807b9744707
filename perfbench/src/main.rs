//! `perfbench` — the repository benchmark for the simulated Wormhole N-body
//! stack.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload shared_vector --seed 1 --seconds 12 --trace 0
//! ```
//!
//! A run draws its particle count from the seed, sets up one simulated
//! n300 card for the workload, then evolves *segments* back to back for
//! `--seconds` of host time. A segment is a fresh initial condition drawn
//! from the seed, integrated by the workload's driver on that card. The
//! last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.
//!
//! Every time names its clock. The *host wall clock* is what the
//! functional simulator costs to run. The *virtual device clock* is the
//! pipeline's own cycle-counter accounting — device compute, PCIe, and
//! discarded attempts plus retry backoff — which is the clock the paper's
//! claims are about.
//!
//! `--trace 0` reports the end-to-end metrics:
//! * `host_slowdown`: host seconds per useful pair interaction in the
//!   simulator over host seconds per pair of a plain FP32 direct sum on
//!   every host thread ([`native::Reference`]), timed right before and
//!   right after each segment; the median over segments. The ratio
//!   cancels most of the shared host's drifting speed, which the raw host
//!   rate (printed to stderr) does not;
//! * `virtual_pairs_per_s`: useful pair interactions per virtual second,
//!   pooled over the run (the virtual clock has no machine noise; pooling
//!   averages out which particles are active and where faults land);
//! * `setup_s`: building the card and its first force evaluation, the
//!   median of several set-ups;
//! * `peak_rss_mb`: the process's peak resident memory once the measured
//!   segments are done.
//!
//! A *useful* pair is one target against one source in a launch whose
//! result the integrator keeps: `N²` per shared step, `|A|·N` per block
//! iteration; padding, full-N fallbacks and retried work do not count.
//!
//! `--trace 1` wraps the card in a [`probe::Probe`] and reports per-layer
//! metrics named by crate, per segment. Its spans are written to
//! `<cargo target dir>/perfbench-trace/<workload>-<seed>.json`.
//!
//! Checks: every segment must conserve energy within the workload's bound;
//! one force evaluation per run must match the FP64 direct sum within the
//! kernel's accuracy bound; the fault-storm workload re-runs its first
//! measured segment on a fault-free card and requires a bitwise-identical
//! final state.

mod native;
mod probe;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use nbody::accuracy::{compare_forces, ACC_TOLERANCE, JERK_TOLERANCE};
use nbody::force::{ForceKernel, ReferenceKernel};
use nbody::ic::IcKind;
use nbody::particle::ParticleSystem;
use nbody_tt::{
    run_block_simulation, run_simulation, run_simulation_resilient, BlockStepConfig,
    ForceEvaluator, ForceKernelKind, PipelineTiming, RecoveryConfig, RetryPolicy, SimulationConfig,
    SingleCardEvaluator,
};
use tensix::{Device, DeviceArch, FaultConfig};
use ttmetal::LaunchError;

use native::Reference;
use probe::{Probe, SpanLog};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// How a workload advances a segment.
#[derive(Debug, Clone, Copy)]
enum Driver {
    /// Shared-step Hermite: every step is one full-N launch.
    Shared,
    /// Hierarchical block steps: each iteration launches the due subset.
    Blocks(BlockStepConfig),
    /// The checkpointing driver, retrying transient faults in place.
    Resilient(RetryPolicy),
}

/// One benchmark workload: the inputs and the driver that runs them.
#[derive(Debug, Clone, Copy)]
struct Workload {
    ic: IcKind,
    /// The run's particle count is drawn from `n_min..=n_max`. The range
    /// stays inside one target-tile count, so between seeds only the
    /// occupancy of the last tile changes.
    n_min: usize,
    n_max: usize,
    kernel: ForceKernelKind,
    cores: usize,
    eps: f64,
    /// Shared step, or the base (largest) block step.
    dt: f64,
    /// Steps (shared) or base steps (blocks) per segment.
    steps: usize,
    driver: Driver,
    faults: FaultConfig,
    /// Largest |ΔE/E| a segment may end with.
    energy_bound: f64,
}

impl Workload {
    /// The workloads, and why each exists:
    ///
    /// * `shared_vector` — the paper's configuration: a Plummer sphere,
    ///   shared-step Hermite, the element-wise SFPU kernel. Full-N launches
    ///   through tilize, PCIe, DRAM/NoC and the vector pipe.
    /// * `block_vector` — a King cluster on hierarchical block steps with
    ///   the element-wise kernel: launches gathered and sized to the active
    ///   set, host prediction of every particle per iteration.
    /// * `block_matrix` — the same cluster and hierarchy on the matrix-pipe
    ///   kernel, which today falls back to full-N launches for active sets:
    ///   the matrix pipe and the cost of that fallback.
    /// * `fault_storm` — the paper's configuration behind the checkpointing
    ///   driver on a card with seeded uncorrectable DRAM errors: retries,
    ///   partial redo of the faulted cores and wasted work.
    fn named(name: &str) -> Option<Workload> {
        let shared_vector = Workload {
            ic: IcKind::Plummer,
            n_min: 1984,
            n_max: 2048,
            kernel: ForceKernelKind::Elementwise,
            cores: 2,
            eps: 0.01,
            dt: 1.0 / 256.0,
            steps: 4,
            driver: Driver::Shared,
            faults: FaultConfig::default(),
            energy_bound: 1e-4,
        };
        let block_vector = Workload {
            ic: IcKind::King,
            eps: 0.05,
            dt: 1.0 / 16.0,
            steps: 1,
            driver: Driver::Blocks(BlockStepConfig { eta: 0.02, levels: 3 }),
            ..shared_vector
        };
        match name {
            "shared_vector" => Some(shared_vector),
            "block_vector" => Some(block_vector),
            // The matrix kernel costs several times the element-wise one in
            // host time per launch; half the particles keep its segments
            // short enough to take a median over. A quarter of them makes
            // the run-to-run spread of every metric wider, not narrower.
            "block_matrix" => Some(Workload {
                kernel: ForceKernelKind::Matrix,
                n_min: 992,
                n_max: 1024,
                ..block_vector
            }),
            "fault_storm" => Some(Workload {
                steps: 8,
                // A flat 1 ms backoff and a deep retry budget: a few faulted
                // launches per segment, never an exhausted one.
                driver: Driver::Resilient(RetryPolicy {
                    max_retries: 16,
                    backoff_base_s: 1e-3,
                    max_backoff_s: 1e-3,
                    ..RetryPolicy::default()
                }),
                faults: FaultConfig {
                    dram_corruption_prob: 1e-5,
                    dram_uncorrectable_frac: 1.0,
                    ..FaultConfig::default()
                },
                ..shared_vector
            }),
            _ => None,
        }
    }

    fn retry(&self) -> RetryPolicy {
        match self.driver {
            Driver::Resilient(policy) => policy,
            Driver::Shared | Driver::Blocks(_) => RetryPolicy::disabled(),
        }
    }

    /// Bound on the device forces' error against the FP64 direct sum, as a
    /// multiple of the paper's tolerances: the matrix kernel's decomposed
    /// quadratic forms are allowed twice the element-wise budget.
    fn accuracy_scale(&self) -> f64 {
        match self.kernel {
            ForceKernelKind::Elementwise => 1.0,
            ForceKernelKind::Matrix => 2.0,
        }
    }

    fn card(
        &self,
        n: usize,
        seed: u64,
        faults: FaultConfig,
    ) -> Result<SingleCardEvaluator, String> {
        let mut config = DeviceArch::n300().device_config();
        config.seed = seed;
        config.faults = faults;
        SingleCardEvaluator::new_with_kernel(
            Device::new(0, config),
            n,
            self.eps,
            self.cores,
            self.kernel,
        )
        .map_err(|e| format!("building the card: {e}"))
    }

    /// Evolve one segment; returns (useful pairs, |ΔE/E|).
    fn segment<E: ForceEvaluator>(
        &self,
        evaluator: &Arc<E>,
        system: &mut ParticleSystem,
    ) -> Result<(f64, f64), LaunchError> {
        let n = system.len() as f64;
        let config = SimulationConfig {
            eps: self.eps,
            cycles: 1,
            steps_per_cycle: self.steps,
            dt: self.dt,
            num_cores: self.cores,
            blocks: None,
        };
        match self.driver {
            Driver::Shared => {
                let out = run_simulation(evaluator, system, config);
                Ok((n * n * (out.steps + 1) as f64, out.energy_error))
            }
            Driver::Blocks(blocks) => {
                let out = run_block_simulation(
                    evaluator,
                    system,
                    SimulationConfig { blocks: Some(blocks), ..config },
                )?;
                Ok((n * out.report.particle_evaluations as f64, out.outcome.energy_error))
            }
            Driver::Resilient(retry) => {
                let recovery =
                    RecoveryConfig { checkpoint_every: 4, retry, max_recoveries: 0, spill: None };
                let out = run_simulation_resilient(evaluator, system, config, recovery)?;
                Ok((n * n * (out.outcome.steps + 1) as f64, out.outcome.energy_error))
            }
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// SplitMix64 of `seed` and a stream index: the per-run and per-segment
/// input draws.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The process's peak resident set so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Device compute, PCIe, and discarded attempts plus retry backoff.
fn virtual_seconds(t: &PipelineTiming) -> f64 {
    t.device_seconds + t.io_seconds + t.wasted_seconds
}

struct Segment {
    wall_s: f64,
    pairs: f64,
    /// The native reference's host seconds per pair, the mean of its
    /// timings right before and right after the segment (untraced runs
    /// only).
    reference_s: Option<f64>,
}

/// The measured part of a run.
struct Measurement {
    segments: Vec<Segment>,
    attempted: u64,
    failed: u64,
    /// Final state of the first measured segment.
    first_final: Option<ParticleSystem>,
    /// Accumulated timing and device counters over the measured segments.
    timing: PipelineTiming,
    noc_bytes: u64,
    dram_bytes: u64,
}

fn timing_delta(after: PipelineTiming, before: PipelineTiming) -> PipelineTiming {
    PipelineTiming {
        device_seconds: after.device_seconds - before.device_seconds,
        io_seconds: after.io_seconds - before.io_seconds,
        evaluations: after.evaluations - before.evaluations,
        retries: after.retries - before.retries,
        retry_backoff_seconds: after.retry_backoff_seconds - before.retry_backoff_seconds,
        busy_cycles: after.busy_cycles - before.busy_cycles,
        wasted_cycles: after.wasted_cycles - before.wasted_cycles,
        wasted_seconds: after.wasted_seconds - before.wasted_seconds,
        redo_cycles: after.redo_cycles - before.redo_cycles,
        redo_seconds: after.redo_seconds - before.redo_seconds,
        partial_redos: after.partial_redos - before.partial_redos,
        ..after
    }
}

/// Evolve segments `1, 2, …` until `seconds` of host time have passed.
fn measure<E: ForceEvaluator>(
    w: &Workload,
    evaluator: &Arc<E>,
    device: &Device,
    seconds: f64,
    ic: &dyn Fn(u64) -> ParticleSystem,
    log: Option<&SpanLog>,
    reference: Option<&Reference>,
) -> Measurement {
    let timing = || evaluator.timing().unwrap_or_default();
    let (timing0, noc0, dram0) =
        (timing(), device.noc().total_bytes(), device.dram().stats().total_bytes());
    let mut m = Measurement {
        segments: Vec::new(),
        attempted: 0,
        failed: 0,
        first_final: None,
        timing: PipelineTiming::default(),
        noc_bytes: 0,
        dram_bytes: 0,
    };
    let mut reference_before = reference.map(Reference::seconds_per_pair);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        m.attempted += 1;
        let mut system = ic(m.attempted);
        if let Some(log) = log {
            log.begin_segment();
        }
        let t0 = Instant::now();
        let result = w.segment(evaluator, &mut system);
        let wall_s = t0.elapsed().as_secs_f64();
        if let Some(log) = log {
            log.end_segment();
        }
        let reference_after = reference.map(Reference::seconds_per_pair);
        let reference_s = reference_before.zip(reference_after).map(|(b, a)| (b + a) / 2.0);
        reference_before = reference_after;
        match result {
            Ok((pairs, de)) if de <= w.energy_bound => {
                m.segments.push(Segment { wall_s, pairs, reference_s })
            }
            Ok((_, de)) => {
                m.failed += 1;
                eprintln!(
                    "segment {}: |dE/E| = {de:.3e} exceeds {:.1e}",
                    m.attempted, w.energy_bound
                );
            }
            Err(e) => {
                m.failed += 1;
                eprintln!("segment {}: {e}", m.attempted);
            }
        }
        if m.attempted == 1 {
            m.first_final = Some(system);
        }
    }
    m.timing = timing_delta(timing(), timing0);
    m.noc_bytes = device.noc().total_bytes() - noc0;
    m.dram_bytes = device.dram().stats().total_bytes() - dram0;
    m
}

/// One device force evaluation against the FP64 direct sum.
fn forces_accurate<E: ForceEvaluator>(
    w: &Workload,
    evaluator: &E,
    system: &ParticleSystem,
) -> bool {
    let Ok(test) = evaluator.evaluate_with_retry(system, w.retry()) else { return false };
    let cmp = compare_forces(&ReferenceKernel::new(w.eps).compute(system), &test);
    let scale = w.accuracy_scale();
    let ok =
        cmp.max_acc_error <= scale * ACC_TOLERANCE && cmp.max_jerk_error <= scale * JERK_TOLERANCE;
    if !ok {
        eprintln!(
            "force check failed: acc err {:.3e}, jerk err {:.3e} (scale {scale})",
            cmp.max_acc_error, cmp.max_jerk_error
        );
    }
    ok
}

/// Whether two states agree bit for bit in positions and velocities.
fn bitwise_equal(a: &ParticleSystem, b: &ParticleSystem) -> bool {
    let bits = |s: &ParticleSystem| -> Vec<u64> {
        s.pos.iter().chain(&s.vel).flat_map(|v| v.map(f64::to_bits)).collect()
    };
    bits(a) == bits(b)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn result_line(correct: bool, m: &Measurement, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for Metric { name, value, unit } in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        fields.join(", ")
    ))
}

fn run(w: &Workload, args: &Args) -> Result<String, String> {
    let n = w.n_min + (mix(args.seed, 0) % (w.n_max - w.n_min + 1) as u64) as usize;
    let ic = |k: u64| w.ic.build(n, mix(args.seed, k + 1));
    let first = ic(0);

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut card = None;
    for _ in 0..SETUP_REPS {
        drop(card.take());
        let t0 = Instant::now();
        let evaluator = w.card(n, args.seed, w.faults)?;
        evaluator
            .evaluate_with_retry(&first, w.retry())
            .map_err(|e| format!("set-up evaluation: {e}"))?;
        setups.push(t0.elapsed().as_secs_f64());
        card = Some(evaluator);
    }
    let card = card.expect("at least one set-up");
    let device = Arc::clone(card.device());

    // Each branch first runs one unmeasured segment, so caches, worker
    // pools and lazy state settle before timing starts.
    let warm_up = |e: LaunchError| format!("warm-up segment: {e}");

    let (m, correct_forces, metrics) = if args.trace {
        let log = Arc::new(SpanLog::new());
        let probe = Arc::new(Probe::new(card, Arc::clone(&log)));
        w.segment(&probe, &mut ic(0)).map_err(warm_up)?;
        log.clear();
        let tally0 = probe.tally();
        let m = measure(w, &probe, &device, args.seconds, &ic, Some(&log), None);
        let tally = probe.tally();
        let (segments, self_ns, force_ns, calls) = log.totals();
        write_trace(&args.workload, args.seed, &log.to_chrome_json());
        let per = |x: f64| x / segments.max(1) as f64;
        let t = m.timing;
        let metrics = vec![
            Metric { name: "nbody.host_ms", value: per(self_ns as f64 / 1e6), unit: "ms" },
            Metric { name: "core.force_ms", value: per(force_ns as f64 / 1e6), unit: "ms" },
            Metric { name: "core.force_calls", value: per(calls as f64), unit: "count" },
            Metric { name: "core.pcie_ms", value: per(t.io_seconds * 1e3), unit: "ms" },
            Metric { name: "core.retries", value: per(t.retries as f64), unit: "count" },
            Metric {
                name: "core.partial_redos",
                value: per(t.partial_redos as f64),
                unit: "count",
            },
            Metric { name: "tensix.device_ms", value: per(t.device_seconds * 1e3), unit: "ms" },
            Metric { name: "tensix.noc_bytes", value: per(m.noc_bytes as f64), unit: "B" },
            Metric { name: "tensix.dram_bytes", value: per(m.dram_bytes as f64), unit: "B" },
            Metric {
                name: "tensix.cb_stalls",
                value: per((tally.cb_stalls - tally0.cb_stalls) as f64),
                unit: "count",
            },
            Metric {
                name: "ttmetal.busy_cycles",
                value: per(t.busy_cycles as f64),
                unit: "cycles",
            },
            Metric {
                name: "ttmetal.matrix_cycles",
                value: per((tally.matrix_cycles - tally0.matrix_cycles) as f64),
                unit: "cycles",
            },
            Metric {
                name: "ttmetal.vector_cycles",
                value: per((tally.vector_cycles - tally0.vector_cycles) as f64),
                unit: "cycles",
            },
            Metric {
                name: "ttmetal.redo_cycles",
                value: per(t.redo_cycles as f64),
                unit: "cycles",
            },
            Metric {
                name: "ttmetal.wasted_cycles",
                value: per(t.wasted_cycles as f64),
                unit: "cycles",
            },
        ];
        (m, forces_accurate(w, &*probe, &first), metrics)
    } else {
        let evaluator = Arc::new(card);
        let reference = Reference::new();
        w.segment(&evaluator, &mut ic(0)).map_err(warm_up)?;
        let m = measure(w, &evaluator, &device, args.seconds, &ic, None, Some(&reference));
        let mut slowdown: Vec<f64> = m
            .segments
            .iter()
            .filter_map(|s| s.reference_s.map(|r| s.wall_s / s.pairs / r))
            .collect();
        let pairs: f64 = m.segments.iter().map(|s| s.pairs).sum();
        let wall: f64 = m.segments.iter().map(|s| s.wall_s).sum();
        eprintln!(
            "perfbench: {:.4e} useful pairs per host second; native reference on {} host threads",
            pairs / wall,
            reference.threads()
        );
        let metrics = vec![
            Metric {
                name: "host_slowdown",
                value: if slowdown.is_empty() { 0.0 } else { median(&mut slowdown) },
                unit: "x",
            },
            Metric {
                name: "virtual_pairs_per_s",
                value: pairs / virtual_seconds(&m.timing),
                unit: "1/s",
            },
            Metric { name: "setup_s", value: median(&mut setups), unit: "s" },
            Metric { name: "peak_rss_mb", value: peak_rss_mb()?, unit: "MB" },
        ];
        (m, forces_accurate(w, &*evaluator, &first), metrics)
    };

    let mut correct = correct_forces && m.failed == 0 && !m.segments.is_empty();
    if matches!(w.driver, Driver::Resilient(_)) {
        // Retries must be invisible: the first measured segment, replayed
        // on a card without faults, ends in the same state bit for bit.
        let clean = Arc::new(w.card(n, args.seed, FaultConfig::default())?);
        let mut replay = ic(1);
        let same = w.segment(&clean, &mut replay).is_ok()
            && m.first_final.as_ref().is_some_and(|s| bitwise_equal(s, &replay));
        if !same {
            eprintln!("fault-storm segment differs from its fault-free replay");
        }
        correct &= same;
    }
    result_line(correct, &m, &metrics)
}

/// Write the span trace next to the build outputs; a failure only warns.
fn write_trace(workload: &str, seed: u64, json: &str) {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&target).join("perfbench-trace");
    let path = dir.join(format!("{workload}-{seed}.json"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    // Injected device faults unwind with typed payloads that the drivers
    // catch; keep their default-hook reports off stderr.
    tt_server::install_fault_panic_filter();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::named(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    match run(&workload, &args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
