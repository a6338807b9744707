//! # nbody-tt — the paper's contribution
//!
//! The gravitational force + jerk kernel of a direct N-body code, ported to
//! the Tenstorrent Wormhole through the TT-Metalium programming model:
//! Fig.-2 tile [`layout`], the read/compute/write [`kernels`], the
//! [`pipeline`] that assembles and drives them, and the calibrated
//! [`perf_model`] that extrapolates to the paper-scale configuration
//! (N = 102 400, ten cycles). [`validate`] reproduces the paper's §3
//! correctness methodology; [`simulation`] runs the full mixed-precision
//! Hermite loop — one driver for shared and block steps — with the device
//! in the loop.

#![warn(missing_docs)]

pub mod evaluator;
pub mod kernels;
pub mod layout;
pub mod multi_device;
pub mod perf_model;
pub mod pipeline;
pub mod simulation;
pub mod tree;
pub mod validate;

pub use evaluator::{ActiveSet, CpuForceEvaluator, ForceEvaluator};
pub use layout::{split_tiles_to_cores, tilize_sources, tilize_targets, HostArrays};
pub use multi_device::{MultiDevicePipeline, MultiDeviceTiming};
pub use perf_model::{
    arch_run, paper_run, HostCpuModel, RunModel, WormholePerfModel, CPU_EFF_CYCLES_PER_PAIR,
    DEVICE_CYCLES_PER_PAIR, PAPER_CYCLES, PAPER_N, STEPS_PER_CYCLE,
};
pub use pipeline::{DeviceForcePipeline, ForceKernelKind, PipelineTiming, RetryPolicy};
pub use simulation::{
    latest_checkpoint, read_checkpoint, resume_simulation_resilient, run_block_simulation,
    run_simulation, run_simulation_resilient, write_checkpoint, BlockCheckpoint, BlockScheduler,
    BlockStepConfig, DriverOutcome, RecoveryConfig, SimulationConfig, SimulationOutcome,
    SpillConfig,
};
pub use tree::{run_tree_simulation, TreeConfig, TreeForceEvaluator};
pub use validate::{validate_system, validation_suite, ValidationRow};

/// One Wormhole card as a [`ForceEvaluator`]: the pipeline itself, which
/// recovers from card loss on its own. The name `perfbench` builds its
/// card with.
pub type SingleCardEvaluator = DeviceForcePipeline;
