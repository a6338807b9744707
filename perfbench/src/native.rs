//! The native reference that normalises the host clock: a plain FP32
//! Hermite direct sum (acceleration and jerk) on a fixed particle set,
//! run on every available host thread.
//!
//! On a shared host, CPU speed can drift by tens of percent over seconds
//! to minutes. The run loop times this loop right before and right after
//! every segment, so a segment's host time can be reported as a
//! *slowdown*: host seconds per useful pair in the simulator over host
//! seconds per pair in this loop, both measured under the same load. The
//! loop lives in the benchmark, so no change to the repository's crates
//! moves it.

use std::hint::black_box;
use std::time::Instant;

/// Particles in the reference set.
const N: usize = 256;
/// Full `N²` sweeps per thread in one timing.
const SWEEPS: usize = 256;
const EPS2: f32 = 1e-4;

pub struct Reference {
    pos: Vec<[f32; 3]>,
    vel: Vec<[f32; 3]>,
    threads: usize,
}

impl Reference {
    pub fn new() -> Self {
        // A fixed, well-spread set: the loop's cost must not depend on
        // the run's seed.
        let point = |i: usize, k: f32| {
            let x = i as f32;
            [(x * 0.37 + k).sin(), (x * 0.71 + k).cos(), (x * 1.31 + k).sin()]
        };
        Reference {
            pos: (0..N).map(|i| point(i, 0.0)).collect(),
            vel: (0..N).map(|i| point(i, 1.0)).collect(),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Host threads the loop runs on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Host seconds per pair interaction of the loop, run on every thread
    /// at once.
    pub fn seconds_per_pair(&self) -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                scope.spawn(|| {
                    for _ in 0..SWEEPS {
                        black_box(self.sweep(black_box(&self.pos), black_box(&self.vel)));
                    }
                });
            }
        });
        let pairs = (self.threads * SWEEPS * N * N) as f64;
        start.elapsed().as_secs_f64() / pairs
    }

    /// One `N²` sweep; returns a checksum of the accelerations and jerks.
    fn sweep(&self, pos: &[[f32; 3]], vel: &[[f32; 3]]) -> f32 {
        let mut sum = 0.0f32;
        for (pi, vi) in pos.iter().zip(vel) {
            let (mut acc, mut jerk) = ([0.0f32; 3], [0.0f32; 3]);
            for (pj, vj) in pos.iter().zip(vel) {
                let r = [pj[0] - pi[0], pj[1] - pi[1], pj[2] - pi[2]];
                let v = [vj[0] - vi[0], vj[1] - vi[1], vj[2] - vi[2]];
                let r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2] + EPS2;
                let rinv = 1.0 / r2.sqrt();
                let rinv3 = rinv * rinv * rinv;
                let rv = 3.0 * (r[0] * v[0] + r[1] * v[1] + r[2] * v[2]) * rinv * rinv;
                for k in 0..3 {
                    acc[k] += r[k] * rinv3;
                    jerk[k] += (v[k] - rv * r[k]) * rinv3;
                }
            }
            sum += acc.iter().chain(&jerk).sum::<f32>();
        }
        sum
    }
}
