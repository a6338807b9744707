//! Seeded open-loop load generation for the serving experiments.
//!
//! Generates a Poisson arrival process over a weighted tenant mix — the
//! classic open-loop load model: arrivals do not wait for completions, so
//! overload actually overloads and admission control has something to do.
//! Everything derives from one seed, making a generated campaign a pure
//! value: the same `LoadConfig` always produces the same arrival list,
//! which the job server replays to the same outcomes.

use nbody::ic::IcKind;
use nbody_tt::SimulationConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tensix::StormConfig;
use tt_server::{BackendKind, FlightConfig, JobRequest, ServerConfig, TenantSpec};

/// Shape of one synthetic serving workload.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Seed for arrivals, tenant draws, and size draws.
    pub seed: u64,
    /// Jobs to generate.
    pub jobs: usize,
    /// Relative arrival share per tenant (index = tenant id). Need not be
    /// normalized.
    pub tenant_mix: Vec<f64>,
    /// Mean arrival rate, jobs per virtual second.
    pub rate_hz: f64,
    /// Particle counts drawn uniformly per job.
    pub n_choices: Vec<usize>,
    /// Initial-condition catalog entries drawn uniformly per job.
    pub ic_choices: Vec<IcKind>,
    /// Integration spec shared by all jobs.
    pub sim: SimulationConfig,
    /// Queue deadline per job, virtual seconds.
    pub deadline_s: f64,
    /// Migration budget per job.
    pub max_migrations: u32,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            seed: 0xe10,
            jobs: 120,
            tenant_mix: vec![3.0, 2.0, 1.0],
            rate_hz: 100.0,
            n_choices: vec![48, 64, 96],
            ic_choices: vec![IcKind::Plummer],
            sim: SimulationConfig {
                eps: 0.05,
                cycles: 2,
                steps_per_cycle: 2,
                dt: 1.0 / 256.0,
                num_cores: 1,
                blocks: None,
            },
            deadline_s: 1.0,
            max_migrations: 2,
        }
    }
}

/// Why a [`LoadConfig`] cannot generate a workload. Returned instead of
/// panicking: load configs arrive from campaign files and CLI flags, and a
/// malformed one is an input error, not a bug in the generator.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadGenError {
    /// `tenant_mix` is empty — there is no tenant to attribute arrivals to.
    EmptyTenantMix,
    /// A tenant weight is negative or NaN.
    InvalidTenantWeight {
        /// Offending tenant index.
        tenant: usize,
        /// The weight as configured.
        weight: f64,
    },
    /// Every tenant weight is zero, so no tenant can ever be drawn.
    ZeroTotalWeight,
    /// `n_choices` is empty — jobs have no particle count to draw.
    EmptySizeChoices,
    /// A particle count of zero (no backend accepts an empty system).
    ZeroParticleCount,
    /// `ic_choices` is empty — jobs have no initial conditions to draw.
    EmptyIcChoices,
    /// `rate_hz` is not a positive finite number.
    InvalidRate(
        /// The rate as configured.
        f64,
    ),
}

impl std::fmt::Display for LoadGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadGenError::EmptyTenantMix => write!(f, "tenant mix is empty"),
            LoadGenError::InvalidTenantWeight { tenant, weight } => {
                write!(f, "tenant {tenant} has invalid weight {weight}")
            }
            LoadGenError::ZeroTotalWeight => write!(f, "all tenant weights are zero"),
            LoadGenError::EmptySizeChoices => write!(f, "particle-count choices are empty"),
            LoadGenError::ZeroParticleCount => write!(f, "particle count choices include 0"),
            LoadGenError::EmptyIcChoices => write!(f, "initial-condition choices are empty"),
            LoadGenError::InvalidRate(r) => {
                write!(f, "arrival rate {r} must be positive and finite")
            }
        }
    }
}

impl std::error::Error for LoadGenError {}

impl LoadConfig {
    /// Check every field the generator depends on, up front.
    ///
    /// # Errors
    /// The first [`LoadGenError`] found, in field order.
    pub fn validate(&self) -> Result<(), LoadGenError> {
        if self.tenant_mix.is_empty() {
            return Err(LoadGenError::EmptyTenantMix);
        }
        for (tenant, &weight) in self.tenant_mix.iter().enumerate() {
            let ok = weight.is_finite() && weight >= 0.0;
            if !ok {
                return Err(LoadGenError::InvalidTenantWeight { tenant, weight });
            }
        }
        if self.tenant_mix.iter().sum::<f64>() <= 0.0 {
            return Err(LoadGenError::ZeroTotalWeight);
        }
        if self.n_choices.is_empty() {
            return Err(LoadGenError::EmptySizeChoices);
        }
        if self.n_choices.contains(&0) {
            return Err(LoadGenError::ZeroParticleCount);
        }
        if self.ic_choices.is_empty() {
            return Err(LoadGenError::EmptyIcChoices);
        }
        if !self.rate_hz.is_finite() || self.rate_hz <= 0.0 {
            return Err(LoadGenError::InvalidRate(self.rate_hz));
        }
        Ok(())
    }
}

/// Generate the arrival list: `(virtual arrival time, request)` pairs in
/// time order.
///
/// # Errors
/// [`LoadGenError`] when the config cannot produce a workload (empty
/// tenant mix or size list, bad weights, non-positive rate).
pub fn generate_load(cfg: &LoadConfig) -> Result<Vec<(f64, JobRequest)>, LoadGenError> {
    cfg.validate()?;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let total_weight: f64 = cfg.tenant_mix.iter().sum();
    let mut t = 0.0f64;
    Ok((0..cfg.jobs as u64)
        .map(|job_id| {
            // Exponential inter-arrival times -> Poisson process.
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / cfg.rate_hz;
            let mut pick = rng.gen_range(0.0..total_weight);
            let tenant = cfg
                .tenant_mix
                .iter()
                .position(|&w| {
                    pick -= w;
                    pick < 0.0
                })
                .unwrap_or(cfg.tenant_mix.len() - 1);
            let n = cfg.n_choices[rng.gen_range(0..cfg.n_choices.len())];
            let ic = cfg.ic_choices[rng.gen_range(0..cfg.ic_choices.len())];
            (
                t,
                JobRequest {
                    job_id,
                    tenant,
                    n,
                    ic,
                    ic_seed: cfg.seed ^ (0x1c5 << 32) ^ job_id,
                    sim: cfg.sim,
                    deadline_s: cfg.deadline_s,
                    max_migrations: cfg.max_migrations,
                },
            )
        })
        .collect())
}

/// The small seeded serving campaign `bench_gate` times: 24 jobs over two
/// single cards under a light fault storm. `last_k` sizes the
/// flight-recorder ring (0 disables it), so the recorder's overhead is
/// measured on the same jobs.
///
/// # Panics
/// Panics if the checkpoint spill directory cannot be created.
#[must_use]
pub fn bench_campaign(last_k: usize) -> (ServerConfig, Vec<(f64, JobRequest)>) {
    let load = LoadConfig {
        seed: 0xbe9c,
        jobs: 24,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_campaign_loses_no_job_and_its_p99_is_pinned() {
        tt_server::install_fault_panic_filter();
        let (cfg, arrivals) = bench_campaign(256);
        let census = tt_server::run_campaign(&cfg, &arrivals, None).census;
        assert!(census.zero_lost_jobs(), "bench campaign lost a job");
        // Virtual seconds, to the bit: any change is a serving-policy change.
        assert_eq!(census.p99_latency_s.to_bits(), 0.0011004430400000011f64.to_bits());
    }

    #[test]
    fn load_is_deterministic_and_ordered() {
        let cfg = LoadConfig { jobs: 50, ..LoadConfig::default() };
        let a = generate_load(&cfg).unwrap();
        let b = generate_load(&cfg).unwrap();
        assert_eq!(a.len(), 50);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "arrivals in time order");
        let other = generate_load(&LoadConfig { seed: 1, ..cfg }).unwrap();
        assert_ne!(a, other);
    }

    #[test]
    fn malformed_configs_yield_typed_errors_not_panics() {
        let base = LoadConfig::default;
        let cases: Vec<(LoadConfig, LoadGenError)> = vec![
            (LoadConfig { tenant_mix: vec![], ..base() }, LoadGenError::EmptyTenantMix),
            (
                LoadConfig { tenant_mix: vec![1.0, -2.0], ..base() },
                LoadGenError::InvalidTenantWeight { tenant: 1, weight: -2.0 },
            ),
            // All-zero weights used to slip past the old asserts and
            // panic inside gen_range(0.0..0.0).
            (LoadConfig { tenant_mix: vec![0.0, 0.0], ..base() }, LoadGenError::ZeroTotalWeight),
            (LoadConfig { n_choices: vec![], ..base() }, LoadGenError::EmptySizeChoices),
            (LoadConfig { n_choices: vec![64, 0], ..base() }, LoadGenError::ZeroParticleCount),
            (LoadConfig { ic_choices: vec![], ..base() }, LoadGenError::EmptyIcChoices),
            (LoadConfig { rate_hz: 0.0, ..base() }, LoadGenError::InvalidRate(0.0)),
            (LoadConfig { rate_hz: f64::NAN, ..base() }, LoadGenError::InvalidRate(f64::NAN)),
        ];
        for (cfg, want) in cases {
            let got = generate_load(&cfg).unwrap_err();
            // NaN != NaN, so compare the rendered error for that case.
            assert_eq!(format!("{got}"), format!("{want}"), "config {cfg:?}");
        }
    }

    #[test]
    fn nan_tenant_weight_is_rejected() {
        let cfg = LoadConfig { tenant_mix: vec![1.0, f64::NAN], ..LoadConfig::default() };
        assert!(matches!(cfg.validate(), Err(LoadGenError::InvalidTenantWeight { tenant: 1, .. })));
    }

    #[test]
    fn ic_choices_are_drawn_and_deterministic() {
        let cfg = LoadConfig {
            jobs: 200,
            ic_choices: vec![IcKind::Plummer, IcKind::BinaryRich, IcKind::ColdCollapse],
            ..LoadConfig::default()
        };
        let load = generate_load(&cfg).unwrap();
        for kind in &cfg.ic_choices {
            let got = load.iter().filter(|(_, r)| r.ic == *kind).count();
            assert!(got > 20, "{kind} drawn only {got}/200 times");
        }
        assert_eq!(load, generate_load(&cfg).unwrap());
    }

    #[test]
    fn tenant_mix_is_respected() {
        let cfg = LoadConfig { jobs: 600, tenant_mix: vec![3.0, 1.0], ..LoadConfig::default() };
        let load = generate_load(&cfg).unwrap();
        let t0 = load.iter().filter(|(_, r)| r.tenant == 0).count();
        // 3:1 mix -> ~450 of 600; allow generous slack.
        assert!((380..=520).contains(&t0), "tenant 0 got {t0}/600");
        let mean_gap = load.last().unwrap().0 / 600.0;
        assert!((mean_gap - 1.0 / cfg.rate_hz).abs() < 0.3 / cfg.rate_hz, "gap {mean_gap}");
    }
}
