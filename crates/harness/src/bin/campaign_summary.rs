//! One-shot summary: runs E1–E3, E6 and E9 and prints the consolidated
//! paper-vs-measured table (the source of EXPERIMENTS.md's headline rows)
//! plus the reset census with and without retries.

use tt_harness::{
    default_run, render_table, run_fault_census, run_fig3, run_fig5, run_scaling, Comparison,
};
use tt_telemetry::stats::{mean, std_dev};

fn main() {
    let run = default_run();
    println!("=== consolidated campaign summary ===\n");
    println!(
        "representative simulation: N = {}, {} Hermite steps ({} cycles x {} steps)\n",
        run.n,
        run.steps,
        nbody_tt::perf_model::PAPER_CYCLES,
        nbody_tt::perf_model::STEPS_PER_CYCLE
    );

    let f3 = run_fig3(&run, 0x5c25);
    let f5 = run_fig5(&run, 0x0515);
    let sc = run_scaling(&run);

    let rows = vec![
        Comparison::new("E1 time accel mean", 301.40, mean(&f3.accel_times), "s"),
        Comparison::new("E1 time accel std", 0.24, std_dev(&f3.accel_times), "s"),
        Comparison::new("E1 time cpu mean", 672.90, mean(&f3.cpu_times), "s"),
        Comparison::new("E1 time cpu std", 7.83, std_dev(&f3.cpu_times), "s"),
        Comparison::new("E1 speedup", 2.23, f3.speedup, "x"),
        Comparison::new("E5 accel jobs completed / 50", 26.0, f3.accel_succeeded as f64, "jobs"),
        Comparison::new("E3 energy accel mean", 71.56, mean(&f5.accel_energy_kj), "kJ"),
        Comparison::new("E3 energy cpu mean", 128.89, mean(&f5.cpu_energy_kj), "kJ"),
        Comparison::new("E3 energy ratio", 1.80, f5.energy_ratio, "x"),
        Comparison::new("E3 peak power accel", 260.0, f5.accel_peak_w, "W"),
        Comparison::new("E3 peak power cpu", 210.0, f5.cpu_peak_w, "W"),
    ];
    println!("{}", render_table("headline metrics", &rows, 0.30));

    println!(
        "E6 strong scaling: 1 card {:.0} s -> 4 cards {:.0} s",
        sc.strong[0].1, sc.strong[3].1
    );

    // E9: the reset census, phrased as the paper reports it.
    let fc = run_fault_census(&run, 0x5c25);
    let b = fc.baseline;
    println!("\n=== E9 fault-tolerance census (50 accelerated submissions) ===\n");
    println!(
        "one-shot submissions (paper workflow): {} ran successfully, \
         {} failed to start due to errors occurring during the device reset phase",
        b.succeeded, b.failed_reset
    );
    let r = fc.retried;
    println!(
        "with {} reset retries ({}s backoff, doubling): {} ran successfully, \
         {} failed to start ({} retries consumed across the campaign)",
        fc.policy.reset_retries,
        fc.policy.reset_backoff_s,
        r.succeeded,
        r.failed_reset,
        r.reset_retries_used
    );

    // Per-job rows behind both censuses; schema documented on
    // `tt_telemetry::csvio::jobs_to_csv`.
    std::fs::create_dir_all("results").ok();
    let baseline_jobs = tt_telemetry::run_campaign(&tt_harness::accel_spec(&run), 50, 0x5c25);
    tt_telemetry::csvio::write_jobs_csv(
        std::path::Path::new("results/e5_census_jobs.csv"),
        &baseline_jobs,
    )
    .expect("write E5 census CSV");
    let mut retried_spec = tt_harness::accel_spec(&run);
    retried_spec.faults = fc.policy;
    let retried_jobs = tt_telemetry::run_campaign(&retried_spec, 50, 0x5c25);
    tt_telemetry::csvio::write_jobs_csv(
        std::path::Path::new("results/e9_census_jobs.csv"),
        &retried_jobs,
    )
    .expect("write E9 census CSV");
    println!(
        "\nper-job censuses written to results/e5_census_jobs.csv, results/e9_census_jobs.csv"
    );
}
