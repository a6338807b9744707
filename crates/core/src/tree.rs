//! Barnes-Hut tree-code force backend: O(N log N) to millions of particles.
//!
//! The direct-summation pipeline is O(N²) and caps practical N near the
//! paper's 102 400 particles. This module implements the standard escape
//! path as a new [`ForceEvaluator`]:
//!
//! * **Morton ordering** — positions quantized to a 2²¹ grid per axis and
//!   interleaved into 63-bit keys; particles are sorted by `(key, index)`
//!   so spatially adjacent particles are contiguous in memory and the sort
//!   is a total order (bitwise-reproducible regardless of input order ties).
//! * **Arena-allocated octree** — nodes live in one `Vec`, children are
//!   `u32` indices, and the Morton sort means every node's particles are a
//!   contiguous `order[start..end]` slice; no per-node allocation.
//! * **Opening-angle acceptance** — a cell of side `s` at distance `d`
//!   from the target leaf is accepted as a monopole when
//!   `s < θ·(d − r_t)`, where `r_t` is the target leaf's bounding radius.
//!   Grouping targets by leaf amortizes one traversal over `leaf_capacity`
//!   particles and keeps the interaction list identical for all of them.
//! * **Far/near split** — accepted cells are evaluated on the host in FP64
//!   (monopole force + jerk, using the cell's mass-weighted mean velocity);
//!   opened leaves form a near-field interaction patch evaluated either on
//!   the host (FP64 direct pairs) or routed through the existing tiled
//!   device pipeline ([`DeviceForcePipeline`]) as an all-pairs patch padded
//!   with zero-mass particles — the device kernel has no self-interaction
//!   branch and softening keeps every pair finite, so patch rows for the
//!   leaf's own particles are exactly the near-field sum.
//!
//! Determinism: the traversal is a fixed depth-first order, per-target
//! accumulation is far-list-then-near-list in list order, and threads only
//! ever write disjoint target rows — so results are bitwise identical
//! across repeat runs, thread counts, and checkpoint/restore through the
//! shared resilient driver.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use nbody::particle::{Forces, ParticleSystem, Vec3, G};
use tensix::{Device, TILE_ELEMS};
use tt_telemetry::TreeCost;
use ttmetal::{LaunchError, ProgramReport};

use crate::evaluator::{gather_rows, ActiveSet, ForceEvaluator};
use crate::pipeline::{DeviceForcePipeline, PipelineTiming, RetryPolicy};
use crate::simulation::{run_simulation, SimulationConfig, SimulationOutcome};

/// Morton grid resolution: 21 bits per axis → 63-bit keys.
const MAX_DEPTH: u32 = 21;
/// Arena sentinel for "no child".
const NIL: u32 = u32::MAX;
/// Half-diagonal factor: a cube of half-side `h` bounds its contents
/// within radius `h·√3` of its center.
const SQRT_3: f64 = 1.732_050_807_568_877_2;
/// Device patches are padded up to a multiple of this, so the lazily built
/// per-size pipeline cache stays small while patch sizes vary leaf to leaf.
const PATCH_ROUND: usize = 256;

/// Tuning knobs for the Barnes-Hut evaluator.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Opening angle θ. Smaller is more accurate and more expensive;
    /// θ → 0 degenerates to exact direct summation through the near-field
    /// path. The classic accuracy/speed sweet spot is 0.5–0.8.
    pub theta: f64,
    /// Maximum particles per leaf before a cell splits (subdivision also
    /// stops at the 21-level Morton depth limit).
    pub leaf_capacity: usize,
    /// Worker threads for the host walk; `0` means one per available core.
    /// Any value produces bitwise-identical forces — threads write
    /// disjoint target rows and per-target accumulation order is fixed.
    pub threads: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { theta: 0.6, leaf_capacity: 32, threads: 0 }
    }
}

// ---------------------------------------------------------------------------
// Morton keys
// ---------------------------------------------------------------------------

/// Spread the low 21 bits of `v` to every third bit (standard 3D Morton
/// bit-interleave magic).
#[inline]
#[must_use]
pub fn morton_spread(v: u64) -> u64 {
    let mut x = v & 0x1f_ffff;
    x = (x | x << 32) & 0x1f_0000_0000_ffff;
    x = (x | x << 16) & 0x1f_0000_ff00_00ff;
    x = (x | x << 8) & 0x100f_00f0_0f00_f00f;
    x = (x | x << 4) & 0x10c3_0c30_c30c_30c3;
    x = (x | x << 2) & 0x1249_2492_4924_9249;
    x
}

/// Interleave three 21-bit cell coordinates into a 63-bit Morton key
/// (x in bit 0 of each digit, y in bit 1, z in bit 2).
#[inline]
#[must_use]
pub fn morton_key(ix: u64, iy: u64, iz: u64) -> u64 {
    morton_spread(ix) | morton_spread(iy) << 1 | morton_spread(iz) << 2
}

// ---------------------------------------------------------------------------
// Octree
// ---------------------------------------------------------------------------

/// One octree cell in the arena.
#[derive(Debug, Clone)]
struct Node {
    /// Geometric cell center (from the Morton subdivision, not the COM).
    center: Vec3,
    /// Half the cell side.
    half: f64,
    /// Total mass of contained particles.
    mass: f64,
    /// Mass-weighted center of mass (cell center when massless).
    com: Vec3,
    /// Mass-weighted mean velocity — the monopole's velocity for jerk.
    vcom: Vec3,
    /// First particle in `Octree::order`.
    start: u32,
    /// Particle count under this cell.
    count: u32,
    /// Child arena indices per Morton digit ([`NIL`] = absent).
    children: [u32; 8],
    /// Whether this node is a leaf (owns its particles directly).
    leaf: bool,
}

/// Arena octree over a Morton-sorted particle order.
struct Octree {
    nodes: Vec<Node>,
    /// Original particle indices in Morton order; every node's particles
    /// are the contiguous slice `order[start..start + count]`.
    order: Vec<u32>,
    /// Arena indices of leaves, in depth-first (Morton) order.
    leaf_ids: Vec<u32>,
}

struct Builder<'a> {
    sys: &'a ParticleSystem,
    keys: &'a [u64],
    order: &'a [u32],
    leaf_capacity: usize,
    nodes: Vec<Node>,
    leaf_ids: Vec<u32>,
}

impl Builder<'_> {
    fn build_range(
        &mut self,
        start: usize,
        end: usize,
        depth: u32,
        center: Vec3,
        half: f64,
    ) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            center,
            half,
            mass: 0.0,
            com: center,
            vcom: [0.0; 3],
            start: start as u32,
            count: (end - start) as u32,
            children: [NIL; 8],
            leaf: false,
        });

        if end - start <= self.leaf_capacity || depth == MAX_DEPTH {
            let mut mass = 0.0;
            let mut com = [0.0; 3];
            let mut vcom = [0.0; 3];
            for &pi in &self.order[start..end] {
                let i = pi as usize;
                let m = self.sys.mass[i];
                mass += m;
                for k in 0..3 {
                    com[k] += m * self.sys.pos[i][k];
                    vcom[k] += m * self.sys.vel[i][k];
                }
            }
            let node = &mut self.nodes[id as usize];
            node.leaf = true;
            node.mass = mass;
            if mass > 0.0 {
                for k in 0..3 {
                    com[k] /= mass;
                    vcom[k] /= mass;
                }
                node.com = com;
                node.vcom = vcom;
            }
            self.leaf_ids.push(id);
            return id;
        }

        let shift = 3 * (MAX_DEPTH - 1 - depth);
        let mut children = [NIL; 8];
        let mut mass = 0.0;
        let mut com = [0.0; 3];
        let mut vcom = [0.0; 3];
        let mut s = start;
        for digit in 0..8u64 {
            let mut e = s;
            while e < end && (self.keys[self.order[e] as usize] >> shift) & 7 == digit {
                e += 1;
            }
            if e > s {
                let q = half * 0.5;
                let ccenter = [
                    center[0] + if digit & 1 != 0 { q } else { -q },
                    center[1] + if digit & 2 != 0 { q } else { -q },
                    center[2] + if digit & 4 != 0 { q } else { -q },
                ];
                let child = self.build_range(s, e, depth + 1, ccenter, q);
                children[digit as usize] = child;
                let c = &self.nodes[child as usize];
                mass += c.mass;
                for k in 0..3 {
                    com[k] += c.mass * c.com[k];
                    vcom[k] += c.mass * c.vcom[k];
                }
                s = e;
            }
        }
        let node = &mut self.nodes[id as usize];
        node.children = children;
        node.mass = mass;
        if mass > 0.0 {
            for k in 0..3 {
                com[k] /= mass;
                vcom[k] /= mass;
            }
            node.com = com;
            node.vcom = vcom;
        }
        id
    }
}

impl Octree {
    /// Build the tree: bounding cube → Morton keys → total-order sort →
    /// recursive subdivision down to `leaf_capacity`.
    fn build(sys: &ParticleSystem, leaf_capacity: usize) -> Octree {
        let n = sys.len();
        assert!(n > 0, "empty system");
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for p in &sys.pos {
            for k in 0..3 {
                lo[k] = lo[k].min(p[k]);
                hi[k] = hi[k].max(p[k]);
            }
        }
        let mut side: f64 = 0.0;
        for k in 0..3 {
            side = side.max(hi[k] - lo[k]);
        }
        // Degenerate (single particle / coincident) systems still need a
        // finite cube for the key mapping.
        side = side.max(1e-9) * (1.0 + 1e-12);
        let cells = (1u64 << MAX_DEPTH) as f64;
        let last = (1u64 << MAX_DEPTH) - 1;

        let keys: Vec<u64> = sys
            .pos
            .iter()
            .map(|p| {
                let cell = |k: usize| (((p[k] - lo[k]) / side * cells) as u64).min(last);
                morton_key(cell(0), cell(1), cell(2))
            })
            .collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| (keys[i as usize], i));

        let root_center = [lo[0] + side * 0.5, lo[1] + side * 0.5, lo[2] + side * 0.5];
        let mut b = Builder {
            sys,
            keys: &keys,
            order: &order,
            leaf_capacity: leaf_capacity.max(1),
            nodes: Vec::with_capacity(2 * n / leaf_capacity.max(1) + 16),
            leaf_ids: Vec::new(),
        };
        b.build_range(0, n, 0, root_center, side * 0.5);
        let Builder { nodes, leaf_ids, .. } = b;
        Octree { nodes, order, leaf_ids }
    }

    /// Collect the interaction lists for one target leaf: `far` receives
    /// accepted multipole cells, `near` receives opened leaves (always
    /// including the target itself). Fixed depth-first order.
    fn gather(&self, target: u32, theta: f64, far: &mut Vec<u32>, near: &mut Vec<u32>) {
        far.clear();
        near.clear();
        let t = &self.nodes[target as usize];
        let r_t = t.half * SQRT_3;
        self.visit(0, target, t.center, r_t, theta, far, near);
    }

    #[allow(clippy::too_many_arguments)]
    fn visit(
        &self,
        id: u32,
        target: u32,
        t_center: Vec3,
        r_t: f64,
        theta: f64,
        far: &mut Vec<u32>,
        near: &mut Vec<u32>,
    ) {
        if id == target {
            near.push(id);
            return;
        }
        let node = &self.nodes[id as usize];
        let dx = node.com[0] - t_center[0];
        let dy = node.com[1] - t_center[1];
        let dz = node.com[2] - t_center[2];
        let d = (dx * dx + dy * dy + dz * dz).sqrt();
        // Accept when the whole cell subtends less than θ from every
        // particle in the target leaf: s < θ·(d − r_t).
        let accepted = d > r_t && 2.0 * node.half < theta * (d - r_t);
        if accepted {
            far.push(id);
        } else if node.leaf {
            near.push(id);
        } else {
            for &c in &node.children {
                if c != NIL {
                    self.visit(c, target, t_center, r_t, theta, far, near);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Force evaluation
// ---------------------------------------------------------------------------

/// Monopole force + jerk of `node` on a target at (`pos`, `vel`) — the
/// same softened formulas as the FP64 reference kernel, with the cell's
/// COM standing in for a particle and its mass-weighted mean velocity
/// supplying the jerk's relative velocity.
#[inline]
fn monopole(node: &Node, pos: Vec3, vel: Vec3, e2: f64, acc: &mut Vec3, jerk: &mut Vec3) {
    let dx = node.com[0] - pos[0];
    let dy = node.com[1] - pos[1];
    let dz = node.com[2] - pos[2];
    let dvx = node.vcom[0] - vel[0];
    let dvy = node.vcom[1] - vel[1];
    let dvz = node.vcom[2] - vel[2];
    let r2 = dx * dx + dy * dy + dz * dz + e2;
    let rinv = 1.0 / r2.sqrt();
    let rinv2 = rinv * rinv;
    let mr3 = G * node.mass * rinv * rinv2;
    let rv3 = 3.0 * (dx * dvx + dy * dvy + dz * dvz) * rinv2;
    acc[0] += mr3 * dx;
    acc[1] += mr3 * dy;
    acc[2] += mr3 * dz;
    jerk[0] += mr3 * (dvx - rv3 * dx);
    jerk[1] += mr3 * (dvy - rv3 * dy);
    jerk[2] += mr3 * (dvz - rv3 * dz);
}

/// Softened pairwise force + jerk of source `j` on a target at
/// (`pos`, `vel`) — identical to the reference kernel's inner loop.
#[inline]
fn pairwise(
    sys: &ParticleSystem,
    j: usize,
    pos: Vec3,
    vel: Vec3,
    e2: f64,
    acc: &mut Vec3,
    jerk: &mut Vec3,
) {
    let dx = sys.pos[j][0] - pos[0];
    let dy = sys.pos[j][1] - pos[1];
    let dz = sys.pos[j][2] - pos[2];
    let dvx = sys.vel[j][0] - vel[0];
    let dvy = sys.vel[j][1] - vel[1];
    let dvz = sys.vel[j][2] - vel[2];
    let r2 = dx * dx + dy * dy + dz * dz + e2;
    let rinv = 1.0 / r2.sqrt();
    let rinv2 = rinv * rinv;
    let mr3 = G * sys.mass[j] * rinv * rinv2;
    let rv3 = 3.0 * (dx * dvx + dy * dvy + dz * dvz) * rinv2;
    acc[0] += mr3 * dx;
    acc[1] += mr3 * dy;
    acc[2] += mr3 * dz;
    jerk[0] += mr3 * (dvx - rv3 * dx);
    jerk[1] += mr3 * (dvy - rv3 * dy);
    jerk[2] += mr3 * (dvz - rv3 * dz);
}

/// Per-target results for one leaf chunk: `(original index, acc, jerk)`.
type LeafRows = Vec<(u32, Vec3, Vec3)>;

/// Evaluate one leaf's targets on the host (far multipoles + near direct
/// pairs), appending rows to `out`. Only targets marked in `mask` get
/// rows — sources are unaffected, so each computed row is bitwise
/// identical to the full-evaluation row. Returns (far, near) interaction
/// counts.
#[allow(clippy::too_many_arguments)]
fn eval_leaf_host(
    tree: &Octree,
    sys: &ParticleSystem,
    leaf: u32,
    e2: f64,
    far: &[u32],
    near: &[u32],
    mask: &[bool],
    out: &mut LeafRows,
) -> (u64, u64) {
    let node = &tree.nodes[leaf as usize];
    let (start, end) = (node.start as usize, (node.start + node.count) as usize);
    let mut far_count = 0u64;
    let mut near_count = 0u64;
    for &pi in &tree.order[start..end] {
        let i = pi as usize;
        if !mask[i] {
            continue;
        }
        let (pos, vel) = (sys.pos[i], sys.vel[i]);
        let mut acc = [0.0; 3];
        let mut jerk = [0.0; 3];
        for &nid in far {
            monopole(&tree.nodes[nid as usize], pos, vel, e2, &mut acc, &mut jerk);
        }
        far_count += far.len() as u64;
        for &lid in near {
            let l = &tree.nodes[lid as usize];
            let (ls, le) = (l.start as usize, (l.start + l.count) as usize);
            for &pj in &tree.order[ls..le] {
                if pj != pi {
                    pairwise(sys, pj as usize, pos, vel, e2, &mut acc, &mut jerk);
                    near_count += 1;
                }
            }
        }
        out.push((pi, acc, jerk));
    }
    (far_count, near_count)
}

// ---------------------------------------------------------------------------
// The evaluator
// ---------------------------------------------------------------------------

/// Where the near-field interaction patches are evaluated.
enum NearField {
    /// FP64 direct pairs on the host.
    Host,
    /// All-pairs patches through the tiled device pipeline (boxed: the
    /// device state dwarfs the unit `Host` variant).
    Device(Box<DeviceNear>),
}

/// Device near-field state: one lazily built [`DeviceForcePipeline`] per
/// padded patch size.
struct DeviceNear {
    device: Arc<Device>,
    num_cores: usize,
    pipelines: Mutex<HashMap<usize, DeviceForcePipeline>>,
    /// Timing absorbed from pipelines retired by device loss.
    retired: Mutex<PipelineTiming>,
    last_report: Mutex<Option<ProgramReport>>,
}

/// Barnes-Hut tree-code [`ForceEvaluator`]: host FP64 far-field, with the
/// near-field either on the host or routed through the tiled device
/// pipeline. Construct with [`TreeForceEvaluator::host`] or
/// [`TreeForceEvaluator::hybrid`].
pub struct TreeForceEvaluator {
    n: usize,
    eps: f64,
    cfg: TreeConfig,
    near: NearField,
    cost: Mutex<TreeCost>,
}

impl TreeForceEvaluator {
    /// Pure host tree: FP64 far-field monopoles and FP64 near-field pairs.
    /// This is the configuration that scales to N ≥ 1M.
    ///
    /// # Panics
    /// Panics if `n == 0`, `theta < 0`, or `theta` is non-finite.
    #[must_use]
    pub fn host(n: usize, eps: f64, cfg: TreeConfig) -> Self {
        assert!(n > 0, "empty system");
        assert!(cfg.theta.is_finite() && cfg.theta >= 0.0, "θ must be ≥ 0");
        TreeForceEvaluator {
            n,
            eps,
            cfg,
            near: NearField::Host,
            cost: Mutex::new(TreeCost::default()),
        }
    }

    /// Far/near hybrid: host FP64 far-field, device near-field. Each
    /// leaf's interaction patch is padded with zero-mass particles to a
    /// multiple of [`PATCH_ROUND`] and launched through a cached
    /// [`DeviceForcePipeline`] of that size, inheriting the shared
    /// retry/salvage driver and fault model.
    ///
    /// # Panics
    /// Same contract as [`TreeForceEvaluator::host`], plus `eps > 0` (the
    /// device kernel has no self-interaction branch; softening keeps the
    /// patch diagonal finite).
    #[must_use]
    pub fn hybrid(
        device: Arc<Device>,
        n: usize,
        eps: f64,
        num_cores: usize,
        cfg: TreeConfig,
    ) -> Self {
        assert!(eps > 0.0, "device near-field requires softening > 0");
        let mut ev = TreeForceEvaluator::host(n, eps, cfg);
        ev.near = NearField::Device(Box::new(DeviceNear {
            device,
            num_cores: num_cores.max(1),
            pipelines: Mutex::new(HashMap::new()),
            retired: Mutex::new(PipelineTiming::default()),
            last_report: Mutex::new(None),
        }));
        ev
    }

    /// Opening angle θ.
    #[must_use]
    pub fn theta(&self) -> f64 {
        self.cfg.theta
    }

    /// Accumulated tree-phase cost buckets (build/walk/near seconds plus
    /// deterministic node and interaction counts).
    #[must_use]
    pub fn tree_cost(&self) -> TreeCost {
        *self.cost.lock()
    }

    fn effective_threads(&self) -> usize {
        if self.cfg.threads > 0 {
            self.cfg.threads
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }
    }

    /// One evaluation: build, walk, far + near. Device patch launches run
    /// through the pipeline's one launch driver under `policy`. `mask`
    /// marks which targets get rows (all of them for the full set; leaves
    /// with no marked target are skipped outright); sources — and
    /// therefore the tree, the interaction lists, and every computed row —
    /// are untouched, so each row is the same bits under any mask.
    fn evaluate_tree(
        &self,
        sys: &ParticleSystem,
        policy: RetryPolicy,
        mask: &[bool],
    ) -> std::result::Result<Forces, LaunchError> {
        assert_eq!(sys.len(), self.n, "evaluator built for n = {}", self.n);

        let t0 = Instant::now();
        let tree = Octree::build(sys, self.cfg.leaf_capacity);
        let build_seconds = t0.elapsed().as_secs_f64();

        let (forces, walk_seconds, near_seconds, far_count, near_count) = match &self.near {
            NearField::Host => self.near_host(sys, &tree, mask),
            NearField::Device(_) => self.near_device(sys, &tree, policy, mask)?,
        };

        let mut cost = self.cost.lock();
        cost.build_seconds += build_seconds;
        cost.walk_seconds += walk_seconds;
        cost.near_seconds += near_seconds;
        cost.evaluations += 1;
        cost.nodes += tree.nodes.len() as u64;
        cost.leaves += tree.leaf_ids.len() as u64;
        cost.far_interactions += far_count;
        cost.near_interactions += near_count;
        Ok(forces)
    }

    /// Host walk: leaves are chunked over threads; every thread writes
    /// rows for its own leaves only, so any thread count produces the
    /// same bits. `mask` drops leaves with no marked target before the
    /// thread split and skips unmarked targets inside surviving leaves.
    fn near_host(
        &self,
        sys: &ParticleSystem,
        tree: &Octree,
        mask: &[bool],
    ) -> (Forces, f64, f64, u64, u64) {
        let t0 = Instant::now();
        let live: Vec<u32> = tree
            .leaf_ids
            .iter()
            .copied()
            .filter(|&lid| {
                let l = &tree.nodes[lid as usize];
                tree.order[l.start as usize..(l.start + l.count) as usize]
                    .iter()
                    .any(|&pi| mask[pi as usize])
            })
            .collect();
        let threads = self.effective_threads().min(live.len()).max(1);
        let chunk = live.len().div_ceil(threads).max(1);
        let results: Vec<(LeafRows, u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = live
                .chunks(chunk)
                .map(|leaves| {
                    scope.spawn(move || {
                        let mut far = Vec::new();
                        let mut near = Vec::new();
                        let mut rows = Vec::new();
                        let mut far_count = 0u64;
                        let mut near_count = 0u64;
                        for &leaf in leaves {
                            tree.gather(leaf, self.cfg.theta, &mut far, &mut near);
                            let (f, nn) = eval_leaf_host(
                                tree,
                                sys,
                                leaf,
                                self.eps * self.eps,
                                &far,
                                &near,
                                mask,
                                &mut rows,
                            );
                            far_count += f;
                            near_count += nn;
                        }
                        (rows, far_count, near_count)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let mut forces = Forces { acc: vec![[0.0; 3]; self.n], jerk: vec![[0.0; 3]; self.n] };
        let mut far_count = 0u64;
        let mut near_count = 0u64;
        for (rows, f, nn) in results {
            far_count += f;
            near_count += nn;
            for (i, acc, jerk) in rows {
                forces.acc[i as usize] = acc;
                forces.jerk[i as usize] = jerk;
            }
        }
        (forces, t0.elapsed().as_secs_f64(), 0.0, far_count, near_count)
    }

    /// Hybrid walk: host far-field, device near-field patches. Sequential
    /// over leaves — patch launches serialize on the device queue anyway,
    /// and the fixed order keeps timing/fault streams deterministic.
    /// `mask` skips leaves with no marked target entirely; surviving
    /// leaves still launch their full patch (unmarked leaf members remain
    /// sources for the marked ones), but only marked rows are read out —
    /// so each produced row matches the full evaluation bitwise.
    fn near_device(
        &self,
        sys: &ParticleSystem,
        tree: &Octree,
        policy: RetryPolicy,
        mask: &[bool],
    ) -> std::result::Result<(Forces, f64, f64, u64, u64), LaunchError> {
        let NearField::Device(dn) = &self.near else {
            unreachable!("near_device called on host evaluator")
        };
        let DeviceNear { device, num_cores, pipelines, last_report, .. } = dn.as_ref();

        let mut forces = Forces { acc: vec![[0.0; 3]; self.n], jerk: vec![[0.0; 3]; self.n] };
        let e2 = self.eps * self.eps;
        let mut far = Vec::new();
        let mut near = Vec::new();
        let mut far_count = 0u64;
        let mut near_count = 0u64;
        let mut walk_seconds = 0.0;
        let mut near_seconds = 0.0;

        for &leaf in &tree.leaf_ids {
            let node = &tree.nodes[leaf as usize];
            let (start, end) = (node.start as usize, (node.start + node.count) as usize);
            let targets = &tree.order[start..end];
            let is_live = |pi: u32| mask[pi as usize];
            if !targets.iter().any(|&pi| is_live(pi)) {
                continue;
            }
            let live_targets = targets.iter().filter(|&&pi| is_live(pi)).count();

            let tw = Instant::now();
            tree.gather(leaf, self.cfg.theta, &mut far, &mut near);

            // Far field on the host, FP64 — marked targets only.
            for &pi in targets {
                if !is_live(pi) {
                    continue;
                }
                let i = pi as usize;
                let mut acc = [0.0; 3];
                let mut jerk = [0.0; 3];
                for &nid in &far {
                    monopole(
                        &tree.nodes[nid as usize],
                        sys.pos[i],
                        sys.vel[i],
                        e2,
                        &mut acc,
                        &mut jerk,
                    );
                }
                far_count += far.len() as u64;
                forces.acc[i] = acc;
                forces.jerk[i] = jerk;
            }
            walk_seconds += tw.elapsed().as_secs_f64();

            // Near field: one all-pairs device patch, targets first so the
            // leaf's rows are the patch head. Count real pairs the same way
            // the host path does (self excluded).
            let tn = Instant::now();
            let mut patch = ParticleSystem::with_capacity(PATCH_ROUND);
            for &pi in targets {
                let i = pi as usize;
                patch.push(sys.mass[i], sys.pos[i], sys.vel[i]);
            }
            let mut real = targets.len();
            for &lid in &near {
                if lid == leaf {
                    continue;
                }
                let l = &tree.nodes[lid as usize];
                let (ls, le) = (l.start as usize, (l.start + l.count) as usize);
                for &pj in &tree.order[ls..le] {
                    let j = pj as usize;
                    patch.push(sys.mass[j], sys.pos[j], sys.vel[j]);
                }
                real += le - ls;
            }
            near_count += (live_targets * (real - 1)) as u64;
            let padded = real.div_ceil(PATCH_ROUND).max(1) * PATCH_ROUND;
            while patch.len() < padded {
                // Zero mass → zero force contribution; the remote park
                // position keeps padding clear of the cluster.
                patch.push(0.0, [1.0e6; 3], [0.0; 3]);
            }

            let mut map = pipelines.lock();
            if let std::collections::hash_map::Entry::Vacant(slot) = map.entry(padded) {
                let cores = (*num_cores).min(padded.div_ceil(TILE_ELEMS)).max(1);
                let p = DeviceForcePipeline::new(Arc::clone(device), padded, self.eps, cores)
                    .map_err(LaunchError::from)?;
                slot.insert(p);
            }
            let pipeline = map.get(&padded).expect("just inserted");
            let patch_forces = pipeline.launch(&patch, &ActiveSet::full(padded), policy)?;
            *last_report.lock() = pipeline.last_launch_report();
            drop(map);

            for (row, &pi) in targets.iter().enumerate() {
                if !is_live(pi) {
                    continue;
                }
                let i = pi as usize;
                for k in 0..3 {
                    forces.acc[i][k] += patch_forces.acc[row][k];
                    forces.jerk[i][k] += patch_forces.jerk[row][k];
                }
            }
            near_seconds += tn.elapsed().as_secs_f64();
        }
        Ok((forces, walk_seconds, near_seconds, far_count, near_count))
    }
}

impl ForceEvaluator for TreeForceEvaluator {
    fn backend(&self) -> &'static str {
        match self.near {
            NearField::Host => "barnes-hut",
            NearField::Device(_) => "barnes-hut-hybrid",
        }
    }

    fn n(&self) -> usize {
        self.n
    }

    fn softening(&self) -> f64 {
        self.eps
    }

    fn evaluate_with_retry(
        &self,
        system: &ParticleSystem,
        policy: RetryPolicy,
    ) -> std::result::Result<Forces, LaunchError> {
        self.evaluate_active_with_retry(system, &ActiveSet::full(self.n), policy)
    }

    fn evaluate_active(
        &self,
        system: &ParticleSystem,
        active: &ActiveSet,
    ) -> std::result::Result<Forces, LaunchError> {
        self.evaluate_active_with_retry(system, active, RetryPolicy::disabled())
    }

    /// The masked walk with `policy` handed to every near-field patch
    /// launch, so a transient fault retries that patch in place (partial
    /// redo, backoff billing) instead of re-running the whole walk.
    fn evaluate_active_with_retry(
        &self,
        system: &ParticleSystem,
        active: &ActiveSet,
        policy: RetryPolicy,
    ) -> std::result::Result<Forces, LaunchError> {
        if active.is_empty() {
            return Ok(Forces { acc: Vec::new(), jerk: Vec::new() });
        }
        let mut mask = vec![false; self.n];
        for &i in active.indices() {
            mask[i] = true;
        }
        let full = self.evaluate_tree(system, policy, &mask)?;
        Ok(gather_rows(&full, active))
    }

    fn timing(&self) -> Option<PipelineTiming> {
        match &self.near {
            NearField::Host => None,
            NearField::Device(dn) => {
                let mut t = *dn.retired.lock();
                for p in dn.pipelines.lock().values() {
                    t.absorb(p.timing());
                }
                Some(t)
            }
        }
    }

    fn last_launch_report(&self) -> Option<ProgramReport> {
        match &self.near {
            NearField::Host => None,
            NearField::Device(dn) => dn.last_report.lock().clone(),
        }
    }

    fn recover_device_loss(&self, cause: LaunchError) -> std::result::Result<(), LaunchError> {
        match &self.near {
            NearField::Host => Err(cause),
            NearField::Device(dn) => {
                if !cause.is_card_loss() {
                    return Err(cause);
                }
                let mut map = dn.pipelines.lock();
                let mut ret = dn.retired.lock();
                for p in map.values() {
                    ret.absorb(p.timing());
                }
                map.clear();
                dn.device.reset().map_err(LaunchError::from)?;
                Ok(())
            }
        }
    }
}

/// Convenience: build a host tree evaluator and run the standard Hermite
/// simulation, returning the outcome together with the accumulated
/// [`TreeCost`] buckets.
pub fn run_tree_simulation(
    system: &mut ParticleSystem,
    config: SimulationConfig,
    tree: TreeConfig,
) -> (SimulationOutcome, TreeCost) {
    let eval = Arc::new(TreeForceEvaluator::host(system.len(), config.eps, tree));
    let outcome = run_simulation(&eval, system, config);
    (outcome, eval.tree_cost())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody::force::{ForceKernel, ReferenceKernel};
    use nbody::ic::{plummer as plummer_ic, PlummerConfig};

    fn plummer(n: usize, seed: u64) -> ParticleSystem {
        plummer_ic(PlummerConfig { n, seed, ..PlummerConfig::default() })
    }

    #[test]
    fn morton_spread_places_every_third_bit() {
        assert_eq!(morton_spread(0b1), 0b1);
        assert_eq!(morton_spread(0b11), 0b1001);
        assert_eq!(morton_spread(0x1f_ffff), 0x1249_2492_4924_9249);
        assert_eq!(morton_key(1, 0, 0), 0b001);
        assert_eq!(morton_key(0, 1, 0), 0b010);
        assert_eq!(morton_key(0, 0, 1), 0b100);
    }

    #[test]
    fn every_particle_lands_in_exactly_one_leaf() {
        let sys = plummer(257, 7);
        let tree = Octree::build(&sys, 16);
        let mut seen = vec![false; sys.len()];
        for &lid in &tree.leaf_ids {
            let l = &tree.nodes[lid as usize];
            for &pi in &tree.order[l.start as usize..(l.start + l.count) as usize] {
                assert!(!seen[pi as usize], "particle in two leaves");
                seen[pi as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "particle missing from leaves");
        let root = &tree.nodes[0];
        let total: f64 = sys.mass.iter().sum();
        assert!((root.mass - total).abs() < 1e-12 * total.max(1.0));
    }

    #[test]
    fn theta_zero_reproduces_direct_sum_exactly_modulo_order() {
        // θ = 0 opens everything: the whole force is near-field direct
        // pairs, so the result matches the FP64 reference kernel to
        // round-off (summation order differs by the Morton sort).
        let sys = plummer(128, 11);
        let eps = 1e-3;
        let ev = TreeForceEvaluator::host(
            sys.len(),
            eps,
            TreeConfig { theta: 0.0, leaf_capacity: 8, threads: 1 },
        );
        let tree_f = ev.evaluate_checked(&sys).unwrap();
        let reference = ReferenceKernel::new(eps).compute(&sys);
        for i in 0..sys.len() {
            for k in 0..3 {
                let scale = reference.acc[i][k].abs().max(1.0);
                assert!(
                    (tree_f.acc[i][k] - reference.acc[i][k]).abs() < 1e-10 * scale,
                    "acc mismatch at particle {i} axis {k}"
                );
            }
        }
        let cost = ev.tree_cost();
        assert_eq!(cost.far_interactions, 0);
        assert_eq!(cost.near_interactions, (128 * 127) as u64);
    }

    #[test]
    fn forces_are_bitwise_identical_across_thread_counts() {
        let sys = plummer(512, 3);
        let mk = |threads| {
            TreeForceEvaluator::host(
                sys.len(),
                1e-3,
                TreeConfig { theta: 0.7, leaf_capacity: 16, threads },
            )
        };
        let a = mk(1).evaluate_checked(&sys).unwrap();
        let b = mk(4).evaluate_checked(&sys).unwrap();
        let c = mk(0).evaluate_checked(&sys).unwrap();
        for i in 0..sys.len() {
            for k in 0..3 {
                assert_eq!(a.acc[i][k].to_bits(), b.acc[i][k].to_bits());
                assert_eq!(a.acc[i][k].to_bits(), c.acc[i][k].to_bits());
                assert_eq!(a.jerk[i][k].to_bits(), b.jerk[i][k].to_bits());
                assert_eq!(a.jerk[i][k].to_bits(), c.jerk[i][k].to_bits());
            }
        }
    }

    #[test]
    fn accuracy_tightens_as_theta_shrinks() {
        let sys = plummer(1024, 5);
        let eps = 1e-3;
        let reference = ReferenceKernel::new(eps).compute(&sys);
        let typical: f64 =
            (reference.acc.iter().map(|a| a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sum::<f64>()
                / sys.len() as f64)
                .sqrt();
        let err = |theta: f64| {
            let ev = TreeForceEvaluator::host(
                sys.len(),
                eps,
                TreeConfig { theta, leaf_capacity: 16, threads: 0 },
            );
            let f = ev.evaluate_checked(&sys).unwrap();
            let mut worst = 0.0f64;
            for i in 0..sys.len() {
                let mut d2 = 0.0;
                for k in 0..3 {
                    let d = f.acc[i][k] - reference.acc[i][k];
                    d2 += d * d;
                }
                worst = worst.max(d2.sqrt() / typical);
            }
            worst
        };
        let loose = err(0.9);
        let tight = err(0.3);
        assert!(tight < loose, "θ=0.3 ({tight:.2e}) not tighter than θ=0.9 ({loose:.2e})");
        assert!(loose < 0.9 * 0.9, "θ=0.9 error {loose:.2e} above θ² bound");
        assert!(tight < 0.3 * 0.3, "θ=0.3 error {tight:.2e} above θ² bound");
    }

    #[test]
    fn tree_cost_buckets_accumulate_per_evaluation() {
        let sys = plummer(256, 9);
        let ev = TreeForceEvaluator::host(sys.len(), 1e-3, TreeConfig::default());
        ev.evaluate_checked(&sys).unwrap();
        ev.evaluate_checked(&sys).unwrap();
        let cost = ev.tree_cost();
        assert_eq!(cost.evaluations, 2);
        assert!(cost.nodes > 0 && cost.leaves > 0);
        assert!(cost.total_interactions() > 0);
        assert_eq!(cost.nodes % 2, 0, "same tree twice → even node total");
    }

    #[test]
    fn active_subset_rows_match_full_tree_evaluation_bitwise() {
        let sys = plummer(300, 13);
        let ev = TreeForceEvaluator::host(
            sys.len(),
            1e-3,
            TreeConfig { theta: 0.6, leaf_capacity: 16, threads: 0 },
        );
        let full = ev.evaluate_checked(&sys).unwrap();
        let active = ActiveSet::from_indices((0..sys.len()).step_by(7).collect(), sys.len());
        let rows = ev.evaluate_active(&sys, &active).unwrap();
        assert_eq!(rows.acc.len(), active.len());
        for (row, &i) in active.indices().iter().enumerate() {
            for k in 0..3 {
                assert_eq!(rows.acc[row][k].to_bits(), full.acc[i][k].to_bits());
                assert_eq!(rows.jerk[row][k].to_bits(), full.jerk[i][k].to_bits());
            }
        }
    }

    #[test]
    fn single_particle_system_is_force_free() {
        let mut sys = ParticleSystem::with_capacity(1);
        sys.push(1.0, [0.1, 0.2, 0.3], [0.0; 3]);
        let ev = TreeForceEvaluator::host(1, 1e-3, TreeConfig::default());
        let f = ev.evaluate_checked(&sys).unwrap();
        assert_eq!(f.acc[0], [0.0; 3]);
        assert_eq!(f.jerk[0], [0.0; 3]);
    }
}
