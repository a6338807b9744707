//! # tt-nbody — reproduction of the SC'25 Tenstorrent Wormhole N-body study
//!
//! Umbrella crate re-exporting the full stack:
//!
//! * [`tensix`] — the Wormhole n300 device simulator (tiles, circular
//!   buffers, SFPU/FPU, NoC, GDDR6, power model, reset-failure injection);
//! * [`ttmetal`] — the TT-Metalium-style host + kernel programming API;
//! * [`nbody`] — direct-summation N-body physics (ICs, force kernels,
//!   Hermite integrator, diagnostics);
//! * [`nbody_tt`] — the paper's contribution: the force+jerk pipeline on the
//!   device, plus the calibrated paper-scale performance model;
//! * [`tt_telemetry`] — tt-smi / RAPL / IPMI measurement emulation and the
//!   campaign runner;
//! * [`tt_harness`] — the experiments regenerating every figure and table.
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for paper-vs-measured
//! results.

#![warn(missing_docs)]

pub use nbody;
pub use nbody_tt;
pub use tensix;
pub use tt_harness;
pub use tt_telemetry;
pub use ttmetal;

/// Commonly used items for examples and downstream users.
pub mod prelude {
    pub use nbody::{
        plummer, ForceKernel, Forces, Hermite4, Integrator, ParticleSystem, PlummerConfig,
        ReferenceKernel, SimdKernel, ThreadedKernel,
    };
    pub use nbody_tt::{
        run_simulation, DeviceForcePipeline, SimulationConfig, SingleCardEvaluator,
    };
    pub use tensix::{Device, DeviceConfig};
    pub use ttmetal::{create_device, open_cluster, CommandQueue, Program};
}
