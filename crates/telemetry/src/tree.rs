//! Tree-code cost accounting.
//!
//! The direct-sum pipeline reports its work through the three-bucket
//! `PipelineTiming` (busy / redo / wasted device cycles). A tree-code
//! evaluation has a different shape: a host-side octree *build*, a
//! traversal + far-field *walk*, and a *near-field* phase that either runs
//! on the host or routes interaction patches through the tiled device
//! pipeline. `TreeCost` carries those buckets alongside deterministic
//! interaction counts, so campaign telemetry and the bench gate can report
//! the O(N log N) split without reaching into the evaluator.
//!
//! Wall-clock seconds are measurement noise (they vary run to run); the
//! interaction and node counts are exact and bitwise-reproducible for a
//! fixed input, which is what the server's deterministic service model and
//! the scaling experiments key off.

/// Per-phase cost breakdown of Barnes-Hut evaluations in one window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TreeCost {
    /// Host seconds spent Morton-sorting and building the octree.
    pub build_seconds: f64,
    /// Host seconds spent traversing and evaluating the far-field
    /// multipoles.
    pub walk_seconds: f64,
    /// Seconds spent on the near-field phase (host direct pairs, or
    /// staging + launching device patches in hybrid mode).
    pub near_seconds: f64,
    /// Force evaluations accumulated into this window.
    pub evaluations: u64,
    /// Octree nodes allocated (arena length), summed over evaluations.
    pub nodes: u64,
    /// Leaves of the octree, summed over evaluations.
    pub leaves: u64,
    /// Particle–multipole interactions accepted by the opening criterion.
    pub far_interactions: u64,
    /// Particle–particle near-field interactions (direct pairs inside the
    /// interaction patches, self-pairs excluded).
    pub near_interactions: u64,
}

impl TreeCost {
    /// Fold another window into this one.
    pub fn absorb(&mut self, other: TreeCost) {
        self.build_seconds += other.build_seconds;
        self.walk_seconds += other.walk_seconds;
        self.near_seconds += other.near_seconds;
        self.evaluations += other.evaluations;
        self.nodes += other.nodes;
        self.leaves += other.leaves;
        self.far_interactions += other.far_interactions;
        self.near_interactions += other.near_interactions;
    }

    /// Total interactions evaluated (far multipoles + near pairs) — the
    /// deterministic work metric the server's service model charges for.
    #[must_use]
    pub fn total_interactions(&self) -> u64 {
        self.far_interactions + self.near_interactions
    }

    /// Interactions per evaluation; zero before the first evaluation.
    #[must_use]
    pub fn interactions_per_eval(&self) -> f64 {
        if self.evaluations == 0 {
            return 0.0;
        }
        self.total_interactions() as f64 / self.evaluations as f64
    }

    /// Fraction of interactions handled by the far-field multipole pass.
    /// Zero when nothing ran. High values (→ 1) are the tree-code win: at
    /// N = 1M with θ = 0.6 the far fraction dominates and total work is
    /// O(N log N) instead of N².
    #[must_use]
    pub fn far_fraction(&self) -> f64 {
        let total = self.total_interactions();
        if total == 0 {
            return 0.0;
        }
        self.far_interactions as f64 / total as f64
    }

    /// CSV header matching [`Self::csv_row`].
    #[must_use]
    pub fn csv_header() -> &'static str {
        "build_s,walk_s,near_s,evals,nodes,leaves,far_inter,near_inter"
    }

    /// One CSV row of this window.
    #[must_use]
    pub fn csv_row(&self) -> String {
        format!(
            "{:.6},{:.6},{:.6},{},{},{},{},{}",
            self.build_seconds,
            self.walk_seconds,
            self.near_seconds,
            self.evaluations,
            self.nodes,
            self.leaves,
            self.far_interactions,
            self.near_interactions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_every_bucket() {
        let mut a = TreeCost {
            build_seconds: 1.0,
            walk_seconds: 2.0,
            near_seconds: 3.0,
            evaluations: 1,
            nodes: 10,
            leaves: 4,
            far_interactions: 100,
            near_interactions: 50,
        };
        let b = TreeCost {
            build_seconds: 0.5,
            walk_seconds: 0.5,
            near_seconds: 0.5,
            evaluations: 2,
            nodes: 20,
            leaves: 8,
            far_interactions: 200,
            near_interactions: 100,
        };
        a.absorb(b);
        assert_eq!(a.evaluations, 3);
        assert_eq!(a.nodes, 30);
        assert_eq!(a.total_interactions(), 450);
        assert!((a.build_seconds - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ratios_are_zero_on_empty_window() {
        let c = TreeCost::default();
        assert_eq!(c.interactions_per_eval(), 0.0);
        assert_eq!(c.far_fraction(), 0.0);
    }

    #[test]
    fn far_fraction_and_csv_round_trip() {
        let c = TreeCost {
            far_interactions: 75,
            near_interactions: 25,
            evaluations: 1,
            ..TreeCost::default()
        };
        assert!((c.far_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(TreeCost::csv_header().split(',').count(), c.csv_row().split(',').count());
    }
}
