//! # tt-server — multi-tenant simulation serving over the evaluator fleet
//!
//! A long-running job server multiplexing many concurrent N-body simulation
//! jobs over a fleet of [`nbody_tt::ForceEvaluator`] backends: single-card
//! Wormhole pipelines, multi-card rings with spare pools, and the host CPU
//! reference. The server is a *deterministic discrete-event simulation of
//! serving*: all time is virtual (arrivals from the seeded load generator,
//! service from the device simulator's virtual clock), so an entire
//! fault-storm campaign — admission decisions, queue order, quarantines,
//! migrations, final states — replays bitwise from one campaign seed.
//!
//! The pieces:
//!
//! * [`job`] — job/tenant vocabulary and typed [`job::Rejection`]s;
//! * [`wfq`] — bounded admission queues with weighted fair queueing;
//! * [`breaker`] — per-backend circuit breaker with exponential quarantine
//!   and probation re-entry;
//! * [`server`] — the event loop: dispatch, checkpoint migration between
//!   backends on device loss (via the PR-5 content-hashed spill format),
//!   graceful degradation to the CPU evaluator, and golden verification of
//!   every completed job;
//! * [`recorder`] — the black-box flight recorder: an always-on bounded
//!   ring of server events that dumps a JSON post-mortem (last-K events +
//!   queue/breaker/fleet snapshot) on golden mismatch, job loss, or
//!   breaker trip.
//!
//! Every admitted job also leaves a causal span tree
//! (`tt_trace::serving::JobSpanTree`) in the campaign report: queue wait,
//! per-attempt service with backend id, failed attempts, migrations, and
//! CPU degradation as contiguous phases on the virtual clock — the input
//! to `tt_telemetry::attribution`.
//!
//! The zero-lost-jobs invariant the census asserts: every admitted job
//! either completes bitwise-identically to a fault-free golden run of its
//! backend class, or is deterministically shed with a typed rejection.

#![warn(missing_docs)]

pub mod breaker;
pub mod job;
pub mod recorder;
pub mod server;
pub mod wfq;

/// Install a process-wide panic hook that silences panics whose payload is a
/// [`tensix::TensixError`], leaving every other panic's report intact.
/// Nothing needs it any more: kernels return device faults as values, and no
/// workspace binary installs it. It stays only because `perfbench`, a
/// package outside the workspace, still calls it; delete both together.
pub fn install_fault_panic_filter() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<tensix::TensixError>().is_none() {
            default_hook(info);
        }
    }));
}

pub use breaker::{Breaker, BreakerConfig, BreakerState};
pub use job::{JobRequest, Rejection, TenantSpec};
pub use recorder::{
    FlightConfig, FlightRecorder, Postmortem, ServerSnapshot, SlotSnapshot, TriggerKind,
};
pub use server::{
    run_campaign, state_hash, BackendClass, BackendKind, BackendReport, CampaignReport,
    ServerConfig,
};
pub use wfq::{Admission, QueuedJob};
