//! # nbody — direct-summation gravitational N-body physics
//!
//! The astrophysical substrate of the reproduction: particle systems in
//! Hénon units, equilibrium and merger initial conditions, O(N²) force +
//! jerk kernels at several precision/parallelism points, the 4th-order
//! Hermite integrator the paper's application uses, and the conserved-
//! quantity diagnostics and accuracy checks that validate everything.
//!
//! The kernels form the paper's comparison axis:
//! [`force::ReferenceKernel`] is the FP64 golden reference,
//! [`force::SimdKernel`] + [`force::ThreadedKernel`] stand in for the
//! AVX-512 + OpenMP CPU implementation, and the `nbody-tt` crate supplies
//! the Tenstorrent-offloaded kernel behind the same [`force::ForceKernel`]
//! trait.

#![warn(missing_docs)]

pub mod accuracy;
pub mod diagnostics;
pub mod force;
pub mod ic;
pub mod integrator;
pub mod particle;
pub mod units;

pub use accuracy::{compare_forces, ForceComparison, ACC_TOLERANCE, JERK_TOLERANCE};
pub use force::{
    pair_interactions, ForceKernel, ReferenceKernel, ScalarMixedKernel, SimdKernel, ThreadedKernel,
    SIMD_LANES,
};
pub use ic::{
    cold_collapse, king, plummer, solve_king_profile, two_cluster_merger, uniform_sphere,
    KingConfig, KingProfile, PlummerConfig, TwoClusterConfig, UniformConfig, PLUMMER_SCALE,
};
pub use integrator::{
    aarseth_timestep, circular_binary, hermite_correct, hermite_predict, shared_timestep, Hermite4,
    Integrator, Leapfrog,
};
pub use particle::{Forces, ParticleSystem, Vec3, G};
pub use units::UnitSystem;
