//! CSV persistence for sampled data.
//!
//! "All sampled values are stored in csv files along with their
//! corresponding timestamps." Hand-rolled (the telemetry path carries no
//! external dependencies): one timestamp column plus one column per rail.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use tt_trace::MetricsRegistry;

use crate::campaign::{FailurePhase, JobKind, JobOutcome, JobRecord};
use crate::sample::{PowerSample, SampleSeries};

/// Render a set of equally-sampled series to CSV text: `t,rail1,rail2,…`.
/// Series may have different lengths; missing cells are left empty.
#[must_use]
pub fn to_csv(series: &[SampleSeries]) -> String {
    let mut out = String::from("t");
    for s in series {
        let _ = write!(out, ",{}", s.label);
    }
    out.push('\n');
    let rows = series.iter().map(|s| s.samples.len()).max().unwrap_or(0);
    for i in 0..rows {
        let t = series.iter().find_map(|s| s.samples.get(i).map(|p| p.t)).unwrap_or(i as f64);
        let _ = write!(out, "{t:.3}");
        for s in series {
            match s.samples.get(i) {
                Some(p) => {
                    let _ = write!(out, ",{:.4}", p.watts);
                }
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

/// Parse CSV text produced by [`to_csv`] back into series.
///
/// # Panics
/// Panics on malformed numeric cells (corrupt input is a test failure, not
/// a recoverable state).
#[must_use]
pub fn from_csv(text: &str) -> Vec<SampleSeries> {
    let mut lines = text.lines();
    let Some(header) = lines.next() else {
        return Vec::new();
    };
    let labels: Vec<&str> = header.split(',').skip(1).collect();
    let mut series: Vec<SampleSeries> =
        labels.iter().map(|l| SampleSeries::new(l.to_string())).collect();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let mut cells = line.split(',');
        let t: f64 = cells.next().expect("timestamp cell").parse().expect("timestamp");
        for (s, cell) in series.iter_mut().zip(cells) {
            if !cell.is_empty() {
                let watts: f64 = cell.parse().expect("power cell");
                s.samples.push(PowerSample { t, watts });
            }
        }
    }
    series
}

/// Write series to a CSV file.
///
/// # Errors
/// I/O errors from the filesystem.
pub fn write_csv(path: &Path, series: &[SampleSeries]) -> io::Result<()> {
    fs::write(path, to_csv(series))
}

/// Read series from a CSV file.
///
/// # Errors
/// I/O errors from the filesystem.
pub fn read_csv(path: &Path) -> io::Result<Vec<SampleSeries>> {
    Ok(from_csv(&fs::read_to_string(path)?))
}

/// Render campaign job records as per-job census CSV.
///
/// Schema (one row per submitted job; empty cells for measurements a
/// failed job never produced):
///
/// ```text
/// job_id,kind,outcome,reset_retries,recovery_s,time_s,card_energy_j,
/// cpu_energy_j,total_energy_j,peak_w
/// ```
///
/// * `kind` — `accel` or `cpu`;
/// * `outcome` — `success` or `reset`.
#[must_use]
pub fn jobs_to_csv(records: &[JobRecord]) -> String {
    let mut out = String::from(
        "job_id,kind,outcome,reset_retries,recovery_s,time_s,card_energy_j,cpu_energy_j,\
         total_energy_j,peak_w\n",
    );
    let opt = |v: Option<f64>| v.map_or(String::new(), |x| format!("{x:.4}"));
    for r in records {
        let kind = match r.kind {
            JobKind::Accelerated => "accel",
            JobKind::CpuOnly => "cpu",
        };
        let outcome = match r.outcome {
            JobOutcome::Success => "success",
            JobOutcome::Failed(FailurePhase::Reset) => "reset",
        };
        let _ = writeln!(
            out,
            "{},{},{},{},{:.4},{},{},{},{},{}",
            r.job_id,
            kind,
            outcome,
            r.reset_retries_used,
            r.recovery_overhead_s,
            opt(r.time_to_solution),
            opt(r.card_energy_j),
            opt(r.cpu_energy_j),
            opt(r.total_energy_j),
            opt(r.peak_power_w),
        );
    }
    out
}

/// Write campaign job records to a census CSV file (see [`jobs_to_csv`]
/// for the schema).
///
/// # Errors
/// I/O errors from the filesystem.
pub fn write_jobs_csv(path: &Path, records: &[JobRecord]) -> io::Result<()> {
    fs::write(path, jobs_to_csv(records))
}

/// Write a trace-layer metrics dump to a CSV file. The schema is
/// `metric,kind,value` with histogram expansion — see
/// [`MetricsRegistry::to_csv`].
///
/// # Errors
/// I/O errors from the filesystem.
pub fn write_metrics_csv(path: &Path, metrics: &MetricsRegistry) -> io::Result<()> {
    fs::write(path, metrics.to_csv())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(label: &str, n: usize, base: f64) -> SampleSeries {
        let mut s = SampleSeries::new(label);
        for i in 0..n {
            s.push(i as f64, base + i as f64 * 0.25);
        }
        s
    }

    #[test]
    fn roundtrip() {
        let series = vec![mk("device0", 5, 10.0), mk("device1", 5, 20.0)];
        let text = to_csv(&series);
        assert!(text.starts_with("t,device0,device1\n"));
        let back = from_csv(&text);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].label, "device0");
        assert_eq!(back[1].samples.len(), 5);
        assert!((back[1].samples[4].watts - 21.0).abs() < 1e-9);
    }

    #[test]
    fn ragged_series_leave_empty_cells() {
        let series = vec![mk("a", 3, 1.0), mk("b", 5, 2.0)];
        let text = to_csv(&series);
        let back = from_csv(&text);
        assert_eq!(back[0].samples.len(), 3);
        assert_eq!(back[1].samples.len(), 5);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("tt-nbody-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("power.csv");
        let series = vec![mk("server", 10, 200.0)];
        write_csv(&path, &series).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back[0].samples.len(), 10);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_input() {
        assert!(from_csv("").is_empty());
        assert_eq!(from_csv("t,a\n")[0].samples.len(), 0);
    }

    #[test]
    fn jobs_csv_carries_observability_columns() {
        let mut ok = JobRecord::failed(0, JobKind::Accelerated, FailurePhase::Reset);
        ok.outcome = JobOutcome::Success;
        ok.time_to_solution = Some(301.4);
        ok.total_energy_j = Some(12_345.6);
        ok.peak_power_w = Some(251.0);
        let mut reset = JobRecord::failed(1, JobKind::Accelerated, FailurePhase::Reset);
        reset.reset_retries_used = 2;
        reset.recovery_overhead_s = 15.0;
        let text = jobs_to_csv(&[ok, reset]);
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "job_id,kind,outcome,reset_retries,recovery_s,time_s,card_energy_j,cpu_energy_j,\
             total_energy_j,peak_w"
        );
        let row0 = lines.next().unwrap();
        assert_eq!(row0, "0,accel,success,0,0.0000,301.4000,,,12345.6000,251.0000");
        let row1 = lines.next().unwrap();
        assert_eq!(
            row1, "1,accel,reset,2,15.0000,,,,,",
            "failed job leaves measurement cells empty"
        );
    }

    #[test]
    fn metrics_csv_writes_registry_dump() {
        let dir = std::env::temp_dir().join("tt-nbody-metrics-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.csv");
        let mut m = MetricsRegistry::new();
        m.inc("dram.bank_conflicts", 3);
        write_metrics_csv(&path, &m).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("dram.bank_conflicts,counter,3"));
        std::fs::remove_file(path).ok();
    }
}
