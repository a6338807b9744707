//! `tt-nbody` — command-line runner for the reproduction.
//!
//! ```text
//! tt-nbody run   [--ic plummer|king|uniform|collapse|merger|binary] [--n 512]
//!                [--backend device|tree|cpu|reference] [--integrator hermite|leapfrog]
//!                [--steps 32] [--dt 0.00390625] [--eps 0.01] [--cores 2]
//!                [--devices 1] [--spares 0] [--inject-loss 0]
//!                [--threads 4] [--seed 0]
//!                [--blocks] [--eta 0.02] [--levels 6]
//!                [--theta 0.6] [--leaf 32] [--near host|device] [--verify-direct]
//!                [--arch n150|n300|key=value,...] [--force-kernel elementwise|matrix]
//! tt-nbody validate [--n 1024]
//! tt-nbody model
//! ```
//!
//! `run` evolves a cluster and reports conservation diagnostics plus, for
//! the device backend, the virtual-time accounting. `validate` prints the
//! §3 accuracy table. `model` prints the calibrated paper-scale summary.
//!
//! The device and tree backends run the one Hermite driver of the core
//! crate; the `cpu` and `reference` backends drive the in-crate CPU kernels
//! with `--integrator hermite` (default) or `leapfrog`, and `cpu` takes the
//! driver too under `--blocks`.
//!
//! The device backend always runs the resilient driver: checkpoints,
//! in-place retries of transient faults, and recovery from card loss. On
//! one card, `--inject-loss L` kills the card at launch event `L` of the
//! run; the card resets and rebuilds itself, and the driver restores its
//! last checkpoint and replays. With `--devices N` (N > 1) the driver runs
//! over an N-card ring; `--spares` adds hot spares, and `--inject-loss L`
//! kills the last ring card at launch event `L` and then verifies the
//! surviving run against an unfaulted twin, bit for bit. That card must own
//! a target work unit (`--n` > unit · (devices − 1), the unit being 1024
//! particles, or 32 with `--force-kernel matrix`), or the loss is refused.
//!
//! `--backend tree` runs the Barnes-Hut tree code: `--theta` sets the
//! opening angle, `--leaf` the leaf capacity, and `--near device` routes
//! the near-field through the tiled device pipeline (host far-field either
//! way). `--verify-direct` first compares one tree force evaluation
//! against the FP64 direct sum and fails unless the worst relative error
//! is within the θ-dependent bound — an O(N²) check meant for small N.
//!
//! `--arch` selects a device-catalog part (`n150`, `n300`, or a custom
//! `key=value` spec) for every simulated card; the catalog summary line is
//! printed before device runs. `--force-kernel matrix` runs the pairwise
//! force/jerk loop as blocked matmuls on the FPU matrix pipe instead of
//! the element-wise SFPU kernel — on one card and on the ring alike
//! (failover and recovery preserve the kind); with `--verify-direct` a
//! single card's forces are first checked against the FP64 direct sum at
//! the kernel's bound.
//!
//! `--blocks` switches the device/cpu/tree backends from the shared-step
//! Hermite loop to hierarchical block time-steps: per-particle steps from
//! the Aarseth criterion (`--eta`), quantized to power-of-two fractions of
//! `--dt` (at most `--levels` halvings), with each block iteration
//! launching only the active subset through the backend's active-set path.
//! The run reports the active-fraction ledger next to the usual
//! conservation diagnostics.

use std::sync::Arc;

use nbody::diagnostics::{relative_energy_error, total_energy, virial_ratio};
use nbody::force::{ForceKernel, ReferenceKernel, SimdKernel, ThreadedKernel};
use nbody::ic::IcKind;
use nbody::integrator::{Hermite4, Integrator, Leapfrog};
use nbody::particle::ParticleSystem;
use nbody_tt::{
    run_block_simulation, run_simulation_resilient, BlockScheduler, BlockStepConfig,
    CpuForceEvaluator, DeviceForcePipeline, DriverOutcome, ForceEvaluator, ForceKernelKind,
    MultiDevicePipeline, RecoveryConfig, RetryPolicy, SimulationConfig, TreeConfig,
    TreeForceEvaluator,
};
use tensix::catalog::DeviceArch;
use tensix::fault::FaultClass;
use tensix::{Device, DeviceConfig};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    command: String,
    ic: String,
    n: usize,
    backend: String,
    integrator: String,
    steps: usize,
    dt: f64,
    eps: f64,
    cores: usize,
    devices: usize,
    spares: usize,
    inject_loss: u64,
    threads: usize,
    seed: u64,
    theta: f64,
    leaf: usize,
    near: String,
    verify_direct: bool,
    arch: String,
    force_kernel: ForceKernelKind,
    blocks: bool,
    eta: f64,
    levels: u32,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            command: "run".into(),
            ic: "plummer".into(),
            n: 512,
            backend: "device".into(),
            integrator: "hermite".into(),
            steps: 32,
            dt: 1.0 / 256.0,
            eps: 0.01,
            cores: 2,
            devices: 1,
            spares: 0,
            inject_loss: 0,
            threads: 4,
            seed: 0,
            theta: 0.6,
            leaf: 32,
            near: "host".into(),
            verify_direct: false,
            arch: "n300".into(),
            force_kernel: ForceKernelKind::Elementwise,
            blocks: false,
            eta: 0.02,
            levels: 6,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    opts.command = it.next().cloned().unwrap_or_else(|| "run".into());
    if !matches!(opts.command.as_str(), "run" | "validate" | "model") {
        return Err(format!("unknown command '{}'; expected run|validate|model", opts.command));
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("flag {flag} needs a value"));
        match flag.as_str() {
            "--ic" => opts.ic = value()?,
            "--n" => opts.n = value()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--backend" => opts.backend = value()?,
            "--integrator" => opts.integrator = value()?,
            "--steps" => opts.steps = value()?.parse().map_err(|e| format!("--steps: {e}"))?,
            "--dt" => opts.dt = value()?.parse().map_err(|e| format!("--dt: {e}"))?,
            "--eps" => opts.eps = value()?.parse().map_err(|e| format!("--eps: {e}"))?,
            "--cores" => opts.cores = value()?.parse().map_err(|e| format!("--cores: {e}"))?,
            "--devices" => {
                opts.devices = value()?.parse().map_err(|e| format!("--devices: {e}"))?;
            }
            "--spares" => {
                opts.spares = value()?.parse().map_err(|e| format!("--spares: {e}"))?;
            }
            "--inject-loss" => {
                opts.inject_loss = value()?.parse().map_err(|e| format!("--inject-loss: {e}"))?;
            }
            "--threads" => {
                opts.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--theta" => opts.theta = value()?.parse().map_err(|e| format!("--theta: {e}"))?,
            "--leaf" => opts.leaf = value()?.parse().map_err(|e| format!("--leaf: {e}"))?,
            "--near" => opts.near = value()?,
            "--verify-direct" => opts.verify_direct = true,
            "--arch" => opts.arch = value()?,
            "--force-kernel" => opts.force_kernel = value()?.parse()?,
            "--blocks" => opts.blocks = true,
            "--eta" => opts.eta = value()?.parse().map_err(|e| format!("--eta: {e}"))?,
            "--levels" => {
                opts.levels = value()?.parse().map_err(|e| format!("--levels: {e}"))?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
}

fn build_system(opts: &Options) -> Result<ParticleSystem, String> {
    Ok(opts.ic.parse::<IcKind>()?.build(opts.n, opts.seed))
}

/// The `cpu`/`reference` shared-step path: the in-crate integrators over a
/// CPU force kernel.
fn run_with_kernel<K: ForceKernel>(opts: &Options, sys: &mut ParticleSystem, kernel: K) {
    let e0 = total_energy(sys, opts.eps);
    let t_end = opts.steps as f64 * opts.dt;
    if opts.integrator == "leapfrog" {
        Leapfrog::new(kernel).evolve(sys, t_end, opts.dt);
    } else {
        Hermite4::new(kernel).evolve(sys, t_end, opts.dt);
    }
    let e1 = total_energy(sys, opts.eps);
    println!(
        "t = {:.5}, |dE/E| = {:.3e}, Q = {:.3}",
        sys.time,
        relative_energy_error(e1, e0),
        virial_ratio(sys, opts.eps)
    );
}

/// The driver's step schedule for the CLI: `--steps` base steps,
/// checkpointed every [`RecoveryConfig::default`] stride.
fn sim_config(opts: &Options) -> SimulationConfig {
    SimulationConfig {
        eps: opts.eps,
        cycles: opts.steps,
        steps_per_cycle: 1,
        dt: opts.dt,
        num_cores: opts.cores,
        blocks: opts.blocks.then_some(BlockStepConfig { eta: opts.eta, levels: opts.levels }),
    }
}

/// Print a driver run: conservation, the active-set launch ledger, the
/// recovery ledger (`failovers` is a ring's spare promotions, zero
/// elsewhere) and the card's virtual-time accounting.
fn report(out: &DriverOutcome, failovers: u64) {
    let o = &out.outcome;
    println!(
        "driver ({}): {} steps to t = {:.5}, |dE/E| = {:.3e}",
        o.kernel, o.steps, o.final_time, o.energy_error
    );
    println!(
        "active-set ledger: {:.1} full-N equivalents over {} launches \
         (mean active fraction {:.3}, min dt {:.2e})",
        out.report.full_equivalents(),
        out.report.iterations,
        out.report.mean_active_fraction(),
        out.report.min_dt()
    );
    println!(
        "failovers: {} | recoveries: {} | steps replayed: {}",
        failovers, out.recoveries, out.steps_replayed
    );
    if let Some(t) = o.timing {
        println!(
            "card occupancy {:.3} ms over {} evaluations ({} retries, {} partial redos)",
            t.device_seconds * 1e3,
            t.evaluations,
            t.retries,
            t.partial_redos
        );
    }
}

/// The `--devices N` ring path: the generic resilient Hermite driver over
/// an N-card ring with `--spares` hot spares. `--inject-loss L` kills the
/// last ring card at launch event `L`, then re-runs an unfaulted twin and
/// verifies the surviving run against it bit for bit.
fn run_ring(opts: &Options, sys: &mut ParticleSystem) -> Result<(), String> {
    let arch = DeviceArch::parse(&opts.arch)?;
    let mk_devices = |base: usize, count: usize| -> Vec<Arc<Device>> {
        (base..base + count).map(|id| Device::new(id, arch.device_config())).collect()
    };
    // One ring leg: the resilient driver over the ring pipeline, honoring
    // `--force-kernel`; failovers are the ring's own counter.
    let run_leg = |devices: &[Arc<Device>],
                   spares: &[Arc<Device>],
                   sys: &mut ParticleSystem,
                   quiet: bool|
     -> Result<nbody_tt::SimulationOutcome, String> {
        let ring = Arc::new(
            MultiDevicePipeline::with_spares_kernel(
                devices,
                spares,
                sys.len(),
                opts.eps,
                opts.cores,
                opts.force_kernel,
            )
            .map_err(|e| e.to_string())?,
        );
        let out = run_simulation_resilient(&ring, sys, sim_config(opts), RecoveryConfig::default())
            .map_err(|e| e.to_string())?;
        if !quiet {
            report(&out, ring.timing().failovers);
        }
        Ok(out.outcome)
    };

    let devices = mk_devices(0, opts.devices);
    let spares = mk_devices(opts.devices, opts.spares);
    if opts.inject_loss > 0 {
        // The loss lands on the last card, which launches only when it owns
        // a target work unit: the ring splits ⌈N/unit⌉ units front-loaded.
        let min_n = opts.force_kernel.work_unit_particles() * (opts.devices - 1) + 1;
        if sys.len() < min_n {
            return Err(format!(
                "--inject-loss targets card {}, which owns no target work unit at --n {}; \
                 use --n {min_n} or more",
                opts.devices - 1,
                sys.len()
            ));
        }
        devices[opts.devices - 1].faults().schedule(FaultClass::DeviceLoss, opts.inject_loss);
        println!(
            "injecting device loss on card {} at launch event {}",
            opts.devices - 1,
            opts.inject_loss
        );
    }
    println!("{} devices, {} spares:", opts.devices, opts.spares);
    let out = run_leg(&devices, &spares, sys, false)?;

    if opts.inject_loss > 0 {
        let mut clean_sys = build_system(opts)?;
        let clean = run_leg(&mk_devices(0, opts.devices), &[], &mut clean_sys, true)?;
        let same = sys
            .pos
            .iter()
            .chain(sys.vel.iter())
            .zip(clean_sys.pos.iter().chain(clean_sys.vel.iter()))
            .all(|(a, b)| (0..3).all(|k| a[k].to_bits() == b[k].to_bits()))
            && out.final_energy.to_bits() == clean.final_energy.to_bits();
        println!("bitwise-identical to unfaulted run: {same}");
        if !same {
            return Err("faulted ring run diverged from the unfaulted twin".into());
        }
    }
    Ok(())
}

/// Above this N the CLI skips the O(N²) energy diagnostic around a tree
/// run; the tree itself scales as O(N log N) and must not be gated on a
/// quadratic host sum at N ≥ 1M.
const ENERGY_CHECK_MAX_N: usize = 32_768;

/// One tree force evaluation against the FP64 direct sum: worst
/// rms-normalized acceleration error must sit inside the θ-dependent
/// monopole bound (plus an FP32 allowance when the near-field runs on the
/// device). O(N²) — intended for the small-N CI smoke.
fn verify_tree_against_direct(
    eval: &TreeForceEvaluator,
    sys: &ParticleSystem,
    eps: f64,
) -> Result<(), String> {
    let tree_f = eval.evaluate_checked(sys).map_err(|e| e.to_string())?;
    let reference = ReferenceKernel::new(eps).compute(sys);
    let typical =
        (reference.acc.iter().map(|a| a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sum::<f64>()
            / sys.len() as f64)
            .sqrt()
            .max(f64::MIN_POSITIVE);
    let mut worst = 0.0f64;
    for i in 0..sys.len() {
        let mut d2 = 0.0;
        for k in 0..3 {
            let d = tree_f.acc[i][k] - reference.acc[i][k];
            d2 += d * d;
        }
        worst = worst.max(d2.sqrt() / typical);
    }
    let theta = eval.theta();
    let fp32_allowance = if eval.backend().ends_with("hybrid") { 5e-3 } else { 0.0 };
    let bound = (theta * theta).max(1e-9) + fp32_allowance;
    if worst <= bound {
        println!("tree-vs-direct agreement: PASS (worst rel err {worst:.3e} <= bound {bound:.3e})");
        Ok(())
    } else {
        println!("tree-vs-direct agreement: FAIL (worst rel err {worst:.3e} > bound {bound:.3e})");
        Err(format!("tree force error {worst:.3e} exceeds bound {bound:.3e}"))
    }
}

/// The `--backend tree` path: Barnes-Hut evaluator behind the standard
/// integrator loop, with the tree-phase cost buckets reported afterwards.
fn run_tree(opts: &Options, sys: &mut ParticleSystem) -> Result<(), String> {
    let cfg = TreeConfig { theta: opts.theta, leaf_capacity: opts.leaf, threads: opts.threads };
    let eval = match opts.near.as_str() {
        "host" => Arc::new(TreeForceEvaluator::host(sys.len(), opts.eps, cfg)),
        "device" => {
            let device = Device::new(0, DeviceArch::parse(&opts.arch)?.device_config());
            Arc::new(TreeForceEvaluator::hybrid(device, sys.len(), opts.eps, opts.cores, cfg))
        }
        other => return Err(format!("unknown --near '{other}'; expected host|device")),
    };
    println!("tree backend: {} θ = {} leaf = {}", eval.backend(), opts.theta, opts.leaf);
    if opts.verify_direct {
        verify_tree_against_direct(&eval, sys, opts.eps)?;
    }
    if sys.len() <= ENERGY_CHECK_MAX_N {
        let out = run_block_simulation(&eval, sys, sim_config(opts)).map_err(|e| e.to_string())?;
        report(&out, 0);
    } else {
        // The driver's energy diagnostic is a quadratic host sum; step its
        // scheduler directly instead.
        let wall = std::time::Instant::now();
        let mut sched =
            BlockScheduler::new(Arc::clone(&eval), sys, sim_config(opts), RetryPolicy::disabled())
                .map_err(|e| e.to_string())?;
        while !sched.done(sys) {
            sched.step(sys).map_err(|e| e.to_string())?;
        }
        println!(
            "t = {:.5} after {} iterations in {:.2} s wall (energy check skipped at n > {})",
            sys.time,
            sched.report().iterations - 1,
            wall.elapsed().as_secs_f64(),
            ENERGY_CHECK_MAX_N
        );
    }
    report_tree_cost(&eval);
    Ok(())
}

/// Print the accumulated tree-phase cost buckets.
fn report_tree_cost(eval: &TreeForceEvaluator) {
    let cost = eval.tree_cost();
    println!(
        "tree cost: build {:.3} s walk {:.3} s near {:.3} s over {} evaluations",
        cost.build_seconds, cost.walk_seconds, cost.near_seconds, cost.evaluations
    );
    println!(
        "tree interactions: {} far + {} near ({:.1}% far), {:.0} per evaluation",
        cost.far_interactions,
        cost.near_interactions,
        100.0 * cost.far_fraction(),
        cost.interactions_per_eval()
    );
}

/// One pipeline force evaluation against the FP64 direct sum. The bound is
/// the kernel's own: paper tolerances for the element-wise SFPU kernel; 2×
/// those for the matrix-pipe kernel, whose decomposed quadratic forms
/// amplify FP32 rounding at the closest pairs (see the pipeline tests).
fn verify_device_against_direct(
    pipeline: &DeviceForcePipeline,
    sys: &ParticleSystem,
    opts: &Options,
) -> Result<(), String> {
    let dev = pipeline.evaluate_checked(sys).map_err(|e| e.to_string())?;
    let reference = ReferenceKernel::new(opts.eps).compute(sys);
    let cmp = nbody::accuracy::compare_forces(&reference, &dev);
    let scale = match pipeline.kernel_kind() {
        ForceKernelKind::Elementwise => 1.0,
        ForceKernelKind::Matrix => 2.0,
    };
    let (acc_bound, jerk_bound) =
        (scale * nbody::accuracy::ACC_TOLERANCE, scale * nbody::accuracy::JERK_TOLERANCE);
    let ok = cmp.max_acc_error <= acc_bound && cmp.max_jerk_error <= jerk_bound;
    println!(
        "{}",
        device_verdict(
            pipeline.kernel_kind().name(),
            (cmp.max_acc_error, acc_bound),
            (cmp.max_jerk_error, jerk_bound)
        )
    );
    if ok {
        Ok(())
    } else {
        Err(format!(
            "device force error (acc {:.3e}, jerk {:.3e}) exceeds the {} bound",
            cmp.max_acc_error,
            cmp.max_jerk_error,
            pipeline.kernel_kind().name()
        ))
    }
}

/// The device-vs-direct verdict line for `(error, bound)` pairs of the
/// acceleration and the jerk: each error prints `<=` its bound when within
/// it and `>` when over it.
fn device_verdict(kernel: &str, acc: (f64, f64), jerk: (f64, f64)) -> String {
    let within = |(err, bound): (f64, f64)| err <= bound;
    let op = |pair| if within(pair) { "<=" } else { ">" };
    let verdict = if within(acc) && within(jerk) { "PASS" } else { "FAIL" };
    format!(
        "device-vs-direct accuracy: {verdict} ({kernel} kernel: acc err {:.3e} {} {:.1e}, \
         jerk err {:.3e} {} {:.1e})",
        acc.0,
        op(acc),
        acc.1,
        jerk.0,
        op(jerk),
        jerk.1
    )
}

fn cmd_run(opts: &Options) -> Result<(), String> {
    let arch = DeviceArch::parse(&opts.arch)?;
    let mut sys = build_system(opts)?;
    println!(
        "{}-body {} cluster, backend {} ({}), integrator {}",
        opts.n, opts.ic, opts.backend, opts.cores, opts.integrator
    );
    if opts.backend == "device" {
        println!("{}", arch.summary());
        if opts.cores > arch.cores_per_chip() {
            return Err(format!(
                "--cores {} exceeds the {} grid ({} cores per chip)",
                opts.cores,
                arch.name,
                arch.cores_per_chip()
            ));
        }
    }
    if opts.force_kernel == ForceKernelKind::Matrix && opts.backend != "device" {
        return Err("--force-kernel matrix drives the device backend".into());
    }
    match opts.integrator.as_str() {
        "hermite" => {}
        "leapfrog" if matches!(opts.backend.as_str(), "cpu" | "reference") && !opts.blocks => {}
        "leapfrog" => {
            return Err("--integrator leapfrog runs on the cpu|reference backends \
                 without --blocks (device and tree backends run the Hermite driver)"
                .into())
        }
        other => return Err(format!("unknown integrator '{other}'; expected hermite|leapfrog")),
    }
    if opts.blocks && opts.backend == "reference" {
        return Err("--blocks drives the device|cpu|tree backends".into());
    }
    match opts.backend.as_str() {
        "device" if opts.devices > 1 => run_ring(opts, &mut sys)?,
        "device" => {
            let device = Device::new(0, arch.device_config());
            let card = Arc::new(
                DeviceForcePipeline::new_with_kernel(
                    Arc::clone(&device),
                    sys.len(),
                    opts.eps,
                    opts.cores,
                    opts.force_kernel,
                )
                .map_err(|e| e.to_string())?,
            );
            if opts.verify_direct {
                verify_device_against_direct(&card, &sys, opts)?;
            }
            if opts.inject_loss > 0 {
                // Scheduled after the verification, so `L` counts the
                // run's own launches.
                device.faults().schedule(FaultClass::DeviceLoss, opts.inject_loss);
                println!("injecting device loss at launch event {}", opts.inject_loss);
            }
            let out = run_simulation_resilient(
                &card,
                &mut sys,
                sim_config(opts),
                RecoveryConfig::default(),
            )
            .map_err(|e| e.to_string())?;
            report(&out, 0);
        }
        "tree" => run_tree(opts, &mut sys)?,
        "cpu" if opts.blocks => {
            let evaluator = Arc::new(CpuForceEvaluator::new(
                ThreadedKernel::new(SimdKernel::new(opts.eps), opts.threads),
                sys.len(),
            ));
            let out = run_block_simulation(&evaluator, &mut sys, sim_config(opts))
                .map_err(|e| e.to_string())?;
            report(&out, 0);
        }
        "cpu" => {
            run_with_kernel(
                opts,
                &mut sys,
                ThreadedKernel::new(SimdKernel::new(opts.eps), opts.threads),
            );
        }
        "reference" => run_with_kernel(opts, &mut sys, ReferenceKernel::new(opts.eps)),
        other => return Err(format!("unknown backend '{other}'")),
    }
    Ok(())
}

fn cmd_validate(opts: &Options) -> Result<(), String> {
    let device = Device::new(0, DeviceConfig::default());
    let rows = nbody_tt::validation_suite(&device, opts.n.max(512)).map_err(|e| e.to_string())?;
    println!("{}", nbody_tt::validate::format_table(&rows));
    if rows.iter().all(nbody_tt::ValidationRow::passes) {
        println!("all rows within the paper's tolerances.");
        Ok(())
    } else {
        Err("validation failed".into())
    }
}

fn cmd_model() {
    let run = nbody_tt::paper_run();
    println!("calibrated paper-scale model (N = {}, {} steps):", run.n, run.steps);
    println!("  accelerated time-to-solution: {:.1} s (paper 301.40)", run.accel_seconds());
    println!("  CPU time-to-solution:         {:.1} s (paper 672.90)", run.cpu_seconds());
    println!("  speedup:                      {:.2}x (paper 2.23x)", run.speedup());
    println!("  accelerated energy:           {:.2} kJ (paper 71.56)", run.accel_energy() / 1e3);
    println!("  CPU energy:                   {:.2} kJ (paper 128.89)", run.cpu_energy() / 1e3);
    println!("  energy ratio:                 {:.2}x (paper 1.80x)", run.energy_ratio());
    println!(
        "  this code's packed data path: {:.1} s ({:.2}x over CPU)",
        run.accel_seconds_optimized(),
        run.cpu_seconds() / run.accel_seconds_optimized()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: tt-nbody run|validate|model [--flags]  (see module docs)");
            std::process::exit(2);
        }
    };
    let result = match opts.command.as_str() {
        "validate" => cmd_validate(&opts),
        "model" => {
            cmd_model();
            Ok(())
        }
        _ => cmd_run(&opts),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let o = parse_args(&args(&["run"])).unwrap();
        assert_eq!(o, Options::default());
    }

    #[test]
    fn parse_full_flags() {
        let o = parse_args(&args(&[
            "run",
            "--ic",
            "king",
            "--n",
            "1000",
            "--backend",
            "cpu",
            "--integrator",
            "leapfrog",
            "--steps",
            "10",
            "--dt",
            "0.001",
            "--eps",
            "0.05",
            "--cores",
            "4",
            "--devices",
            "2",
            "--spares",
            "1",
            "--inject-loss",
            "3",
            "--threads",
            "8",
            "--seed",
            "7",
            "--theta",
            "0.45",
            "--leaf",
            "16",
            "--near",
            "device",
            "--verify-direct",
            "--arch",
            "n150",
            "--force-kernel",
            "matrix",
            "--blocks",
            "--eta",
            "0.01",
            "--levels",
            "8",
        ]))
        .unwrap();
        assert_eq!(o.ic, "king");
        assert_eq!(o.n, 1000);
        assert_eq!(o.backend, "cpu");
        assert_eq!(o.integrator, "leapfrog");
        assert_eq!(o.steps, 10);
        assert!((o.dt - 0.001).abs() < 1e-12);
        assert_eq!(o.devices, 2);
        assert_eq!(o.spares, 1);
        assert_eq!(o.inject_loss, 3);
        assert_eq!(o.seed, 7);
        assert!((o.theta - 0.45).abs() < 1e-12);
        assert_eq!(o.leaf, 16);
        assert_eq!(o.near, "device");
        assert!(o.verify_direct);
        assert_eq!(o.arch, "n150");
        assert_eq!(o.force_kernel, ForceKernelKind::Matrix);
        assert!(o.blocks);
        assert!((o.eta - 0.01).abs() < 1e-12);
        assert_eq!(o.levels, 8);
    }

    #[test]
    fn device_verdict_marks_each_error_against_its_bound() {
        assert_eq!(
            device_verdict("elementwise", (2.5e-4, 5e-4), (1e-3, 1e-3)),
            "device-vs-direct accuracy: PASS (elementwise kernel: acc err 2.500e-4 <= 5.0e-4, \
             jerk err 1.000e-3 <= 1.0e-3)"
        );
        assert_eq!(
            device_verdict("matrix", (2.171e-3, 1e-3), (1.5e-3, 2e-3)),
            "device-vs-direct accuracy: FAIL (matrix kernel: acc err 2.171e-3 > 1.0e-3, \
             jerk err 1.500e-3 <= 2.0e-3)"
        );
        assert_eq!(
            device_verdict("matrix", (1e-4, 1e-3), (f64::NAN, 2e-3)),
            "device-vs-direct accuracy: FAIL (matrix kernel: acc err 1.000e-4 <= 1.0e-3, \
             jerk err NaN > 2.0e-3)"
        );
    }

    #[test]
    fn matrix_kernel_device_run_verifies() {
        let o = Options {
            n: 128,
            steps: 2,
            cores: 1,
            // The 2x matrix accuracy budget is pinned at eps = 0.05 (the
            // accuracy suite's softening); the default 0.01 admits draws
            // whose closest pair lands marginally outside it at small n.
            eps: 0.05,
            arch: "n150".into(),
            force_kernel: ForceKernelKind::Matrix,
            verify_direct: true,
            ..Options::default()
        };
        cmd_run(&o).unwrap();
        // The matrix kernel rides the ring too, and a verified single card
        // survives a mid-run loss (the kind threads through failover and
        // recovery).
        cmd_run(&Options { devices: 2, verify_direct: false, ..o.clone() }).unwrap();
        cmd_run(&Options { inject_loss: 2, ..o.clone() }).unwrap();
        // But it stays a device kernel: CPU/tree backends reject it.
        assert!(cmd_run(&Options { backend: "cpu".into(), ..o.clone() }).is_err());
        // Unknown parts and oversubscribed grids are typed errors.
        assert!(cmd_run(&Options { arch: "p100".into(), ..o.clone() }).is_err());
        assert!(cmd_run(&Options { cores: 80, ..o }).is_err());
    }

    #[test]
    fn block_step_runs_across_backends() {
        let o = Options { n: 192, steps: 4, cores: 1, blocks: true, ..Options::default() };
        cmd_run(&o).unwrap();
        cmd_run(&Options { backend: "cpu".into(), threads: 2, ..o.clone() }).unwrap();
        cmd_run(&Options { backend: "tree".into(), threads: 1, ..o.clone() }).unwrap();
        cmd_run(&Options { inject_loss: 3, ..o.clone() }).unwrap();
        cmd_run(&Options { devices: 2, ..o.clone() }).unwrap();
        // The reference path has no evaluator behind it: --blocks is refused,
        // and so is leapfrog on the driver's backends.
        assert!(cmd_run(&Options { backend: "reference".into(), ..o.clone() }).is_err());
        assert!(cmd_run(&Options { integrator: "leapfrog".into(), ..o }).is_err());
    }

    #[test]
    fn tree_backend_runs_and_verifies_against_direct() {
        let o = Options {
            backend: "tree".into(),
            n: 384,
            steps: 2,
            verify_direct: true,
            threads: 1,
            ..Options::default()
        };
        cmd_run(&o).unwrap();
        // Hybrid near-field rides the device pipeline; same verification.
        let o = Options { near: "device".into(), cores: 1, ..o };
        cmd_run(&o).unwrap();
        // Unknown near-field mode is a parse-adjacent error, not a panic.
        let o = Options { near: "gpu".into(), ..o };
        assert!(cmd_run(&o).is_err());
    }

    #[test]
    fn ring_run_with_injected_loss_survives_and_verifies() {
        // The CLI's own twin-run bitwise check: a 2-card ring with a spare
        // and a mid-run loss must complete (and verify) end to end.
        // N = 1100 gives the last card a target tile, so the loss lands.
        let o = Options {
            n: 1100,
            steps: 4,
            devices: 2,
            spares: 1,
            inject_loss: 2,
            cores: 1,
            ..Options::default()
        };
        cmd_run(&o).unwrap();
        // A loss on a card that owns no tile could never fire: refused, with
        // the smallest N that works.
        let err = cmd_run(&Options { n: 1024, ..o }).unwrap_err();
        assert!(err.contains("use --n 1025 or more"), "{err}");
    }

    #[test]
    fn parse_rejects_unknowns() {
        assert!(parse_args(&args(&["fly"])).is_err());
        assert!(parse_args(&args(&["run", "--bogus", "1"])).is_err());
        assert!(parse_args(&args(&["run", "--n"])).is_err());
        assert!(parse_args(&args(&["run", "--n", "abc"])).is_err());
    }

    #[test]
    fn all_ics_build() {
        for ic in ["plummer", "king", "uniform", "collapse", "merger", "binary"] {
            let o = Options { ic: ic.into(), n: 64, ..Options::default() };
            let s = build_system(&o).unwrap();
            assert_eq!(s.len(), 64, "{ic}");
        }
        assert!(build_system(&Options { ic: "nope".into(), ..Options::default() }).is_err());
    }
}
