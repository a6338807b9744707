//! # tt-telemetry — the paper's measurement substrate
//!
//! Everything Section 4 of the paper uses to produce its figures, as
//! simulation-backed equivalents: a [`ttsmi`] card power sampler (1 Hz), a
//! [`rapl`] package-energy counter with the 32-bit overflow quirk and both
//! the naive and `perf stat`-style readers, an [`ipmi`] whole-server meter
//! (with the high 4U baseline that made the paper discard it), [`csvio`]
//! persistence of timestamped samples, discrete [`energy`] integration over
//! the simulation window, and the [`campaign`] runner that wraps each
//! simulation in device resets and 120-second sleeps — including the
//! reset-failure census (26 of 50 accelerated jobs completing) and its
//! bounded reset-retry variant.
//!
//! ## Observability integration
//!
//! The measurement substrate also carries the device-trace layer's outputs
//! (the `tt-trace` crate): [`csvio`] dumps a `tt_trace::MetricsRegistry`
//! next to the power CSVs ([`csvio::write_metrics_csv`]) and renders
//! per-job census CSVs ([`csvio::jobs_to_csv`] documents the schema).

#![warn(missing_docs)]

pub mod attribution;
pub mod blockstep;
pub mod campaign;
pub mod csvio;
pub mod energy;
pub mod ipmi;
pub mod profile;
pub mod rapl;
pub mod sample;
pub mod serving;
pub mod stats;
pub mod tree;
pub mod ttsmi;

pub use attribution::{
    attribute, rollup_by_class, rollup_by_tenant, AttributionRollup, JobAttribution,
};
pub use blockstep::{BlockStepReport, ACTIVE_FRACTION_BINS};
pub use campaign::{
    census, run_campaign, run_job, successes, CampaignCensus, FailurePhase, FaultPolicy, JobKind,
    JobOutcome, JobRecord, JobSpec,
};
pub use energy::{integrate_samples, integrate_samples_trapezoid};
pub use profile::HostPowerProfile;
pub use rapl::{read_energy_naive, read_energy_perf, RaplDomain, RAPL_UNIT_J, RAPL_WRAP};
pub use sample::{PowerSample, SampleSeries};
pub use serving::{JobDisposition, ServedJob, ServingCensus, TenantCensus};
pub use stats::{max, mean, min, percentile, standard_normal, std_dev, Histogram};
pub use tree::TreeCost;
pub use ttsmi::TtSmiSampler;
