//! Correctness validation against the golden reference (paper §3).
//!
//! "Force and jerk values computed by the Tenstorrent Wormhole processor are
//! compared against a naive, double-precision brute-force implementation of
//! the O(N²) algorithm executed on a conventional CPU." This module runs
//! that comparison across particle counts and initial conditions, producing
//! the rows of the accuracy table (experiment E4).

use std::sync::Arc;

use nbody::accuracy::{compare_forces, ForceComparison, ACC_TOLERANCE, JERK_TOLERANCE};
use nbody::force::ForceKernel;
use nbody::ic::{
    cold_collapse, king, plummer, two_cluster_merger, KingConfig, PlummerConfig, TwoClusterConfig,
};
use nbody::particle::ParticleSystem;
use nbody::ReferenceKernel;
use tensix::{Device, Result, TensixError};

use crate::evaluator::ForceEvaluator;
use crate::pipeline::DeviceForcePipeline;

/// One row of the accuracy table.
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// Workload label.
    pub workload: String,
    /// Particle count.
    pub n: usize,
    /// Softening used.
    pub eps: f64,
    /// Comparison statistics.
    pub comparison: ForceComparison,
}

impl ValidationRow {
    /// Whether this row meets the paper's tolerances (0.05% acc, 0.2% jerk).
    #[must_use]
    pub fn passes(&self) -> bool {
        self.comparison.passes()
    }
}

/// Validate the device pipeline for one system.
///
/// # Errors
/// Pipeline construction or kernel faults.
pub fn validate_system(
    device: &Arc<Device>,
    workload: &str,
    system: &ParticleSystem,
    eps: f64,
    num_cores: usize,
) -> Result<ValidationRow> {
    let pipeline = DeviceForcePipeline::new(Arc::clone(device), system.len(), eps, num_cores)?;
    let device_forces = pipeline.evaluate_checked(system).map_err(TensixError::from)?;
    let golden = ReferenceKernel::new(eps).compute(system);
    Ok(ValidationRow {
        workload: workload.to_string(),
        n: system.len(),
        eps,
        comparison: compare_forces(&golden, &device_forces),
    })
}

/// The standard validation suite: Plummer spheres at several N, a cold
/// collapse (maximum dynamic range) and a two-cluster merger.
///
/// # Errors
/// Any row's pipeline failing.
pub fn validation_suite(device: &Arc<Device>, max_n: usize) -> Result<Vec<ValidationRow>> {
    let eps = 0.01;
    let mut rows = Vec::new();
    for n in [256usize, 512, 1024, 2048] {
        if n > max_n {
            break;
        }
        let sys = plummer(PlummerConfig { n, seed: 7 + n as u64, ..PlummerConfig::default() });
        let cores = (n / 1024).clamp(1, 4);
        rows.push(validate_system(device, "plummer", &sys, eps, cores)?);
    }
    if max_n >= 512 {
        let sys = cold_collapse(512, 13, 1.0);
        rows.push(validate_system(device, "cold-collapse", &sys, eps, 1)?);
        let sys = two_cluster_merger(TwoClusterConfig { n1: 256, n2: 256, ..Default::default() });
        rows.push(validate_system(device, "two-cluster", &sys, eps, 1)?);
        let sys = king(KingConfig { n: 512, seed: 14, w0: 6.0 });
        rows.push(validate_system(device, "king-w6", &sys, eps, 1)?);
    }
    Ok(rows)
}

/// Render the table rows (for the harness binary and EXPERIMENTS.md).
#[must_use]
pub fn format_table(rows: &[ValidationRow]) -> String {
    let mut out = String::from(
        "workload       |     N | max acc err | tol     | max jerk err | tol     | verdict\n\
         ---------------+-------+-------------+---------+--------------+---------+--------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} | {:>5} | {:>11.3e} | {:.1e} | {:>12.3e} | {:.1e} | {}\n",
            r.workload,
            r.n,
            r.comparison.max_acc_error,
            ACC_TOLERANCE,
            r.comparison.max_jerk_error,
            JERK_TOLERANCE,
            if r.passes() { "PASS" } else { "FAIL" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensix::DeviceConfig;

    #[test]
    fn suite_passes_paper_tolerances() {
        let device = Device::new(0, DeviceConfig::default());
        let rows = validation_suite(&device, 512).unwrap();
        assert!(rows.len() >= 5);
        for r in &rows {
            assert!(
                r.passes(),
                "{} N={}: acc {:.2e} jerk {:.2e}",
                r.workload,
                r.n,
                r.comparison.max_acc_error,
                r.comparison.max_jerk_error
            );
        }
        let table = format_table(&rows);
        assert!(table.contains("PASS"));
        assert!(table.contains("plummer"));
        assert!(table.contains("cold-collapse"));
        assert!(table.contains("king-w6"));
    }
}
