//! # tt-harness — experiment harness for every figure and table
//!
//! Regenerates the paper's evaluation artifacts from the simulator stack:
//! Fig. 3 (time-to-solution histograms + the 26/50 census), Fig. 4 (card
//! power time series), Fig. 5 (energy-to-solution histograms and peak
//! powers), the §3 accuracy table, and the multi-device scaling extension.
//! [`experiments`] holds the runnable experiments, [`plot`] the ASCII
//! figure renderers, [`report`] the paper-vs-measured tables and [`specs`]
//! the bridge from the calibrated run model to campaign job specs.
//!
//! Binaries (`cargo run -p tt-harness --bin <name>`): `fig3_time`,
//! `fig4_power`, `fig5_energy`, `accuracy_table`, `scaling`, `n_sweep`,
//! `clock_sweep`, `arch_sweep`, `block_speedup`, `campaign_summary`,
//! `serve_storm` — the E11 multi-tenant fault-storm serving campaign
//! driven by the open-loop [`loadgen`] through the `tt-server` job
//! server — and `bench_gate`, the host wall-clock gate for the paths
//! `perfbench` does not time.
//!
//! Passing `--profile` to `accuracy_table` or `fig3_time` runs the traced
//! observability demo instead (see [`profile`]): a small force evaluation
//! with device tracing on, exporting a Perfetto-loadable Chrome trace and
//! a metrics dump under `results/profile/`, and asserting that tracing is
//! invisible to results and timing.

#![warn(missing_docs)]

pub mod experiments;
pub mod loadgen;
pub mod plot;
pub mod profile;
pub mod report;
pub mod specs;

pub use experiments::{
    default_run, kernel_cycles, run_fault_census, run_fig3, run_fig4, run_fig5, run_n_sweep,
    run_scaling, sweep_crossover, FaultCensusResult, Fig3Result, Fig4Result, Fig5Result,
    ScalingResult, SweepPoint, MEASURE_N,
};
pub use loadgen::{bench_campaign, generate_load, LoadConfig, LoadGenError};
pub use plot::{render_histogram, render_timeseries};
pub use profile::{
    harvest_metrics, maybe_run_profile, run_profiled_demo, KernelRow, ProfileArtifacts,
    ProfileReport, StallAttribution,
};
pub use report::{all_within, render_table, Comparison};
pub use specs::{accel_spec, cpu_spec, ACCEL_TIME_JITTER, CPU_TIME_JITTER, RESET_FAILURE_PROB};
