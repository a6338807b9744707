//! Fig. 2 data organization: particles → tiles.
//!
//! Two packed tile views of the particle data feed the elementwise device
//! pipeline, each quantity one particle per lane:
//!
//! * **target tiles** `[x, y, z, vx, vy, vz]` — "the column tiles ...
//!   distributed across Tensix cores"; 1024 particles per tile, or 512 per
//!   16-row half tile when a launch is cut into half-tile work units;
//! * **source tiles** `[m, x, y, z, vx, vy, vz]` — the same lanes plus the
//!   masses, always 1024 per tile, swept by every target tile. The compute
//!   kernel broadcasts one source lane at a time across a tile with a
//!   stride-0 unpack.
//!
//! The paper instead "create[s] copies of the data, organized into N tiles":
//! source tile `j` holds particle `j`'s value in all 1024 lanes, 7 N tiles
//! in all. Its DRAM, PCIe and staging cost is modelled in
//! [`crate::perf_model`]; the functional pipeline runs the packed view,
//! 7 ⌈N/1024⌉ tiles, with bitwise-equal forces.
//!
//! Padding: the tail of the last tile — and rows 16–31 of every half
//! tile — is filled with zero-mass particles parked at a remote position,
//! so they neither contribute force (mass 0) nor produce NaNs (nonzero
//! distance to every real particle).

use std::collections::HashMap;

use nbody::particle::ParticleSystem;
use tensix::tile::{pack_vector, pack_vector_rows, Tile, TILE_DIM, TILE_ELEMS};
use tensix::DataFormat;

/// Position far from any sane cluster coordinate, used for padding lanes.
pub const PAD_POSITION: f32 = 1.0e6;

/// Particles per matrix-kernel block: one 32×32 tile covers a
/// 32-target × 32-source block pair, so blocks are [`TILE_DIM`] particles.
pub const MATRIX_BLOCK: usize = TILE_DIM;

/// Upper bound on the source-chunk count of the matrix kernel: the device
/// flushes its FP32 accumulator tiles to DRAM once per chunk so the host
/// can finish the reduction in compensated FP64, and eight chunks bound
/// both the flush traffic and the f32 accumulation depth.
pub const MATRIX_MAX_CHUNKS: usize = 8;

/// Per-axis particle quantities in FP32, the host-side staging format.
#[derive(Debug, Clone, Default)]
pub struct HostArrays {
    /// Particle count (unpadded).
    pub n: usize,
    /// Masses.
    pub mass: Vec<f32>,
    /// Position components.
    pub pos: [Vec<f32>; 3],
    /// Velocity components.
    pub vel: [Vec<f32>; 3],
}

impl HostArrays {
    /// Convert the FP64 master state to FP32 arrays (the host side of the
    /// mixed-precision split).
    #[must_use]
    pub fn from_system(system: &ParticleSystem) -> Self {
        let n = system.len();
        let comp = |axis: usize, src: &[[f64; 3]]| -> Vec<f32> {
            src.iter().map(|v| v[axis] as f32).collect()
        };
        HostArrays {
            n,
            mass: system.mass.iter().map(|m| *m as f32).collect(),
            pos: [comp(0, &system.pos), comp(1, &system.pos), comp(2, &system.pos)],
            vel: [comp(0, &system.vel), comp(1, &system.vel), comp(2, &system.vel)],
        }
    }

    /// Number of target tiles: ⌈n / 1024⌉.
    #[must_use]
    pub fn num_target_tiles(&self) -> usize {
        self.n.div_ceil(TILE_ELEMS)
    }
}

/// Pack the six target-quantity views of `arrays` into `rows`-row tiles
/// (32: 1024 particles a page; 16: 512, a half tile): per-axis positions
/// padded at [`PAD_POSITION`], velocities zero-padded. Shared by the full-N
/// tilize and the active-subset gather path.
///
/// # Panics
/// Panics unless `rows` is 16 or 32.
#[must_use]
pub fn tilize_targets(arrays: &HostArrays, rows: usize) -> [Vec<Tile>; 6] {
    let pack = |values: &[f32], pad| pack_vector_rows(DataFormat::Float32, values, rows, pad);
    [
        pack(&arrays.pos[0], PAD_POSITION),
        pack(&arrays.pos[1], PAD_POSITION),
        pack(&arrays.pos[2], PAD_POSITION),
        pack(&arrays.vel[0], 0.0),
        pack(&arrays.vel[1], 0.0),
        pack(&arrays.vel[2], 0.0),
    ]
}

/// Gather the `active` targets of `arrays` into `out` as a dense prefix,
/// reusing `out`'s storage — the host side of dynamic tile packing. `out`
/// gets `n = active.len()`; tilized (via [`tilize_targets`] or
/// [`matrix_target_view`]), its pad lanes park at [`PAD_POSITION`] with zero
/// velocity exactly like a full-N tail, so an active-set launch rounds up
/// to whole work units without contributing spurious forces.
///
/// # Panics
/// Panics if an index is out of range.
pub fn gather_active_targets(arrays: &HostArrays, active: &[usize], out: &mut HostArrays) {
    let pick = |src: &[f32], dst: &mut Vec<f32>| {
        dst.clear();
        dst.extend(active.iter().map(|&i| src[i]));
    };
    out.n = active.len();
    pick(&arrays.mass, &mut out.mass);
    for axis in 0..3 {
        pick(&arrays.pos[axis], &mut out.pos[axis]);
        pick(&arrays.vel[axis], &mut out.vel[axis]);
    }
}

/// Pack the seven source-quantity tile views `[m, x, y, z, vx, vy, vz]`:
/// zero-padded masses followed by the whole-tile [`tilize_targets`] views
/// (FP32 tiles — "the Tenstorrent Wormhole accelerator supports up to
/// FP32").
#[must_use]
pub fn tilize_sources(arrays: &HostArrays) -> [Vec<Tile>; 7] {
    let [x, y, z, vx, vy, vz] = tilize_targets(arrays, TILE_DIM);
    [pack_vector(DataFormat::Float32, &arrays.mass, 0.0), x, y, z, vx, vy, vz]
}

/// CB page indices of the matrix-kernel operand groups (within one waited
/// group, in the order the reader pushes them).
pub mod matrix_pages {
    /// IN0 page 0: `A_POS[i][k] = r_i[k]` (k < 3), the target-position
    /// operand of the cross matmuls.
    pub const A_POS: usize = 0;
    /// IN0 page 1: `A_VEL[i][k] = v_i[k]`.
    pub const A_VEL: usize = 1;
    /// IN0 page 2: column 0 holds `|r_i|²` per target row.
    pub const COL_R2: usize = 2;
    /// IN0 page 3: column 0 holds `r_i·v_i` per target row.
    pub const COL_RV: usize = 3;
    /// IN1 page 0: `B_POST[k][j] = r_j[k]` — source positions transposed so
    /// `A_POS × B_POST` lands `r_i·r_j` at (i, j).
    pub const B_POST: usize = 0;
    /// IN1 page 1: `B_VELT[k][j] = v_j[k]`.
    pub const B_VELT: usize = 1;
    /// IN1 page 2: row 0 holds `m_j` per source column.
    pub const ROW_M: usize = 2;
    /// IN1 page 3: row 0 holds `|r_j|² + ε²` per source column (the
    /// softening enters the pair distance exactly once, here).
    pub const ROW_R2EPS: usize = 3;
    /// IN1 page 4: row 0 holds `r_j·v_j` per source column.
    pub const ROW_RV: usize = 4;
    /// Columns of the SRC_ATTR tiles (IN2's pages, BF16):
    /// `[x_j, y_j, z_j, vx_j, vy_j, vz_j, 1]`, so the accumulate matmuls
    /// `W × SRC_ATTR` and `G × SRC_ATTR` produce all seven moment sums per
    /// target row at once.
    pub const ATTR_COLS: usize = 7;
    /// `sources` index of the high SRC_ATTR page: `bf16(attr)`.
    pub const SRC_ATTR_HI: usize = 5;
    /// `sources` index of the low SRC_ATTR page: `bf16(attr − bf16(attr))`
    /// — the BF16 residual, so the hi+lo accumulate-matmul pair recovers
    /// ~16 mantissa bits of the source coordinates at full BF16 MAC rate.
    /// (The mass column's 1.0 is exact in BF16; its residual is 0.)
    pub const SRC_ATTR_LO: usize = 6;
}

/// Distance-squared damping added to every target row's *self-pair* lane:
/// `s²_ii ← s²_ii + DIAG_DAMP` collapses the softened self-weight
/// `W_ii = m_i/ε³` (easily ~10⁴·m) to ~`m·10⁻¹²`, so no huge self-term ever
/// enters the FP32 moment accumulation — without it, that term's rounding
/// alone sinks the force accuracy. Large enough to dwarf any real `|r|²`,
/// small enough that `s² + DIAG_DAMP` stays far from FP32 overflow.
pub const DIAG_DAMP: f32 = 1.0e8;

/// The diagonal-damping plan of one matrix launch over the gathered target
/// blocks of an active set.
///
/// Gathered row `k` of target block `g` is particle `i`, whose self-pair
/// sits in source block `i / 32` at lane `i % 32`. Each block's plan lists
/// `(source block, damping page)` pairs in source-block order; the page
/// holds [`DIAG_DAMP`] at `(k, i % 32)` for every row of the block whose
/// self-pair falls in that source block, and zero elsewhere. Adding a page
/// to a row with no self-pair in that block adds `+0.0`, which is exact, so
/// every gathered row sees the same `s²` as in a full evaluation. Pad rows
/// of the last block are damped on their own diagonal lane, as in a full-N
/// tail block, so the full set's plan is `[(b, DIAG_DAMP·I)]` for every
/// block `b` and ships one page.
#[derive(Debug)]
pub struct DampingPlan {
    /// The distinct damping pages; identical pages are kept once.
    pub pages: Vec<Tile>,
    /// The plan as runtime args, appended after `[start, count, n]`:
    /// `[G, off_0, …, off_G, src_0, page_0, src_1, page_1, …]`, where block
    /// `g`'s pairs are `off_g..off_{g+1}` of the pair list.
    pub args: Vec<u32>,
}

/// Build the [`DampingPlan`] of the sorted `active` indices, gathered into
/// ⌈|A|/32⌉ dense target blocks.
#[must_use]
pub fn damping_plan(active: &[usize]) -> DampingPlan {
    let blocks = active.len().div_ceil(MATRIX_BLOCK);
    let mut pages: Vec<Tile> = Vec::new();
    let mut page_of: HashMap<Vec<(usize, usize)>, u32> = HashMap::new();
    let mut offsets: Vec<u32> = vec![0];
    let mut pairs: Vec<u32> = Vec::new();
    for rows in active.chunks(MATRIX_BLOCK) {
        let groups: Vec<&[usize]> =
            rows.chunk_by(|a, b| a / MATRIX_BLOCK == b / MATRIX_BLOCK).collect();
        let mut k = 0;
        for (g, group) in groups.iter().enumerate() {
            let mut cells: Vec<(usize, usize)> =
                group.iter().enumerate().map(|(r, i)| (k + r, i % MATRIX_BLOCK)).collect();
            k += group.len();
            if g + 1 == groups.len() {
                cells.extend((rows.len()..MATRIX_BLOCK).map(|pad| (pad, pad)));
            }
            let next = pages.len() as u32;
            let page = *page_of.entry(cells).or_insert_with_key(|cells| {
                let mut t = Tile::zeros(DataFormat::Float32);
                for &(row, lane) in cells {
                    t.set(row, lane, DIAG_DAMP);
                }
                pages.push(t);
                next
            });
            pairs.extend([(group[0] / MATRIX_BLOCK) as u32, page]);
        }
        offsets.push((pairs.len() / 2) as u32);
    }
    let mut args = Vec::with_capacity(1 + offsets.len() + pairs.len());
    args.push(blocks as u32);
    args.extend(offsets);
    args.extend(pairs);
    DampingPlan { pages, args }
}

/// Split `x` into its BF16 value and the BF16-rounded residual:
/// `(hi, lo) = (bf16(x), bf16(x − hi))`, with `x ≈ hi + lo` to ~16 mantissa
/// bits. The host combine subtracts target coordinates through this same
/// split so the device and host agree bit-for-bit on what was accumulated.
#[must_use]
pub fn bf16_split(x: f32) -> (f32, f32) {
    let bf16 = DataFormat::Float16b;
    let hi = bf16.quantize(x);
    let lo = bf16.quantize(x - hi);
    (hi, lo)
}

/// Number of 32-particle blocks for `n` particles.
#[must_use]
pub fn num_matrix_blocks(n: usize) -> usize {
    n.div_ceil(MATRIX_BLOCK)
}

/// Source-chunk ranges `(start_block, block_count)` of the matrix kernel:
/// the `num_src_blocks` source blocks split over `min(8, num_src_blocks)`
/// chunks. The device flushes its accumulators per chunk and the host
/// combine sums the per-chunk partials — both sides call this function, so
/// the split is the single source of truth.
#[must_use]
pub fn matrix_chunks(num_src_blocks: usize) -> Vec<(usize, usize)> {
    assert!(num_src_blocks > 0, "empty system");
    split_tiles_to_cores(num_src_blocks, num_src_blocks.min(MATRIX_MAX_CHUNKS))
}

/// Particle `i`'s matrix-operand lane `(r, v, m)`, or `None` for a pad lane.
fn matrix_lane(arrays: &HostArrays, i: usize) -> Option<([f32; 3], [f32; 3], f32)> {
    (i < arrays.n).then(|| {
        (
            [arrays.pos[0][i], arrays.pos[1][i], arrays.pos[2][i]],
            [arrays.vel[0][i], arrays.vel[1][i], arrays.vel[2][i]],
            arrays.mass[i],
        )
    })
}

/// `a · b` in FP32, in the order both operand views use.
fn dot3(a: [f32; 3], b: [f32; 3]) -> f32 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// One target-side matrix operand view, one FP32 tile per 32-particle
/// block: `view` indexes `[A_POS, A_VEL, COL_R2, COL_RV]`. Pad lanes park at
/// [`PAD_POSITION`] with zero velocity (their output rows are discarded).
/// The launch builds, writes and drops one view at a time.
///
/// # Panics
/// Panics if `view` is not a target view.
#[must_use]
pub fn matrix_target_view(arrays: &HostArrays, view: usize) -> Vec<Tile> {
    let mut tiles = vec![Tile::zeros(DataFormat::Float32); num_matrix_blocks(arrays.n)];
    for (b, tile) in tiles.iter_mut().enumerate() {
        for lane in 0..MATRIX_BLOCK {
            let (r, v, _) = matrix_lane(arrays, b * MATRIX_BLOCK + lane).unwrap_or((
                [PAD_POSITION; 3],
                [0.0; 3],
                0.0,
            ));
            match view {
                matrix_pages::A_POS => (0..3).for_each(|k| tile.set(lane, k, r[k])),
                matrix_pages::A_VEL => (0..3).for_each(|k| tile.set(lane, k, v[k])),
                matrix_pages::COL_R2 => tile.set(lane, 0, dot3(r, r)),
                matrix_pages::COL_RV => tile.set(lane, 0, dot3(r, v)),
                _ => panic!("{view} is not a matrix target view"),
            }
        }
    }
    tiles
}

/// One source-side matrix operand view, one FP32 tile per 32-particle
/// block: `view` indexes
/// `[B_POST, B_VELT, ROW_M, ROW_R2EPS, ROW_RV, SRC_ATTR_HI, SRC_ATTR_LO]`
/// (the two SRC_ATTR pages hold BF16-representable values and pass through
/// their BF16 CB unchanged). Pad lanes carry zero mass — `W = m/s³ = 0`
/// kills the whole column — with `ROW_R2EPS = ε²` keeping `s²` positive
/// even against a target at the origin.
///
/// # Panics
/// Panics if `view` is not a source view.
#[must_use]
pub fn matrix_source_view(arrays: &HostArrays, eps_squared: f32, view: usize) -> Vec<Tile> {
    use matrix_pages::{B_POST, B_VELT, ROW_M, ROW_R2EPS, ROW_RV, SRC_ATTR_HI, SRC_ATTR_LO};
    let mut tiles = vec![Tile::zeros(DataFormat::Float32); num_matrix_blocks(arrays.n)];
    for (b, tile) in tiles.iter_mut().enumerate() {
        for lane in 0..MATRIX_BLOCK {
            let Some((r, v, m)) = matrix_lane(arrays, b * MATRIX_BLOCK + lane) else {
                if view == ROW_R2EPS {
                    tile.set(0, lane, eps_squared);
                }
                continue;
            };
            match view {
                B_POST => (0..3).for_each(|k| tile.set(k, lane, r[k])),
                B_VELT => (0..3).for_each(|k| tile.set(k, lane, v[k])),
                ROW_M => tile.set(0, lane, m),
                ROW_R2EPS => tile.set(0, lane, dot3(r, r) + eps_squared),
                ROW_RV => tile.set(0, lane, dot3(r, v)),
                SRC_ATTR_HI | SRC_ATTR_LO => {
                    let part = |x: f32| {
                        let (hi, lo) = bf16_split(x);
                        if view == SRC_ATTR_HI {
                            hi
                        } else {
                            lo
                        }
                    };
                    for k in 0..3 {
                        tile.set(lane, k, part(r[k]));
                        tile.set(lane, 3 + k, part(v[k]));
                    }
                    if view == SRC_ATTR_HI {
                        tile.set(lane, 6, 1.0);
                    }
                }
                _ => panic!("{view} is not a matrix source view"),
            }
        }
    }
    tiles
}

/// Split `num_tiles` target tiles across `num_cores` cores as evenly as
/// possible: returns `(start_tile, count)` per core, front-loaded like
/// TT-Metalium's `split_work_to_cores`.
#[must_use]
pub fn split_tiles_to_cores(num_tiles: usize, num_cores: usize) -> Vec<(usize, usize)> {
    assert!(num_cores > 0, "need at least one core");
    let base = num_tiles / num_cores;
    let extra = num_tiles % num_cores;
    let mut out = Vec::with_capacity(num_cores);
    let mut start = 0;
    for c in 0..num_cores {
        let count = base + usize::from(c < extra);
        out.push((start, count));
        start += count;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody::ic::{plummer, PlummerConfig};

    fn sys(n: usize) -> ParticleSystem {
        plummer(PlummerConfig { n, seed: 80, ..PlummerConfig::default() })
    }

    #[test]
    fn host_arrays_mirror_system() {
        let s = sys(100);
        let h = HostArrays::from_system(&s);
        assert_eq!(h.n, 100);
        assert_eq!(h.mass.len(), 100);
        assert_eq!(h.pos[2][7], s.pos[7][2] as f32);
        assert_eq!(h.vel[0][99], s.vel[99][0] as f32);
        assert_eq!(h.num_target_tiles(), 1);
    }

    #[test]
    fn target_tiles_are_padded() {
        let s = sys(100);
        let t = tilize_targets(&HostArrays::from_system(&s), TILE_DIM);
        assert_eq!(t[0].len(), 1);
        // Lane 100 onward is the parking position.
        assert_eq!(t[0][0].as_slice()[100], PAD_POSITION);
        assert_eq!(t[3][0].as_slice()[100], 0.0);
        // Real lanes hold the particle data.
        assert_eq!(t[1][0].as_slice()[5], s.pos[5][1] as f32);
    }

    #[test]
    fn source_tiles_pack_mass_ahead_of_the_target_view() {
        let s = sys(2048 + 10);
        let h = HostArrays::from_system(&s);
        let src = tilize_sources(&h);
        let tgt = tilize_targets(&h, TILE_DIM);
        assert!(src.iter().all(|q| q.len() == 3), "⌈n/1024⌉ tiles per quantity");
        assert_eq!(src[0][2].as_slice()[9], s.mass[2057] as f32);
        // Padding lanes carry zero mass, so they contribute nothing.
        assert_eq!(src[0][2].as_slice()[10], 0.0);
        for (q, tiles) in src[1..].iter().enumerate() {
            for (a, b) in tiles.iter().zip(&tgt[q]) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }
    }

    #[test]
    fn half_tile_targets_pack_512_a_page_and_park_rows_16_to_31() {
        let s = sys(700);
        let h = HostArrays::from_system(&s);
        let t = tilize_targets(&h, tensix::HALF_TILE_ROWS);
        assert_eq!(t[0].len(), 2, "⌈700/512⌉ half tiles");
        assert_eq!(t[0][1].as_slice()[0], s.pos[512][0] as f32);
        assert_eq!(t[0][0].get(16, 0), PAD_POSITION, "row 16 is padding");
        assert_eq!(t[4][0].get(31, 31), 0.0);
        assert_eq!(tensix::tile::unpack_vector_rows(&t[2], 16, 700), h.pos[2]);
    }

    #[test]
    fn work_split_even_and_frontloaded() {
        assert_eq!(split_tiles_to_cores(8, 4), vec![(0, 2), (2, 2), (4, 2), (6, 2)]);
        assert_eq!(split_tiles_to_cores(5, 3), vec![(0, 2), (2, 2), (4, 1)]);
        assert_eq!(split_tiles_to_cores(2, 4), vec![(0, 1), (1, 1), (2, 0), (2, 0)]);
        let split = split_tiles_to_cores(100, 64);
        assert_eq!(split.iter().map(|(_, c)| c).sum::<usize>(), 100);
        assert_eq!(split[0].1, 2);
        assert_eq!(split[63].1, 1);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = split_tiles_to_cores(4, 0);
    }

    #[test]
    fn matrix_operands_shape_and_padding() {
        use matrix_pages::*;
        let s = sys(70); // 3 blocks, last padded from lane 6
        let h = HostArrays::from_system(&s);
        let target = |view| matrix_target_view(&h, view);
        let source = |view| matrix_source_view(&h, 1e-4, view);
        assert_eq!(num_matrix_blocks(h.n), 3);
        assert_eq!(target(A_POS).len(), 3);
        assert_eq!(source(B_POST).len(), 3);

        // Real lanes: A_POS row i holds r_i, B_POST column j holds r_j.
        let (b, lane, i) = (1, 9, 41);
        let (hi, lo) = (source(SRC_ATTR_HI), source(SRC_ATTR_LO));
        for k in 0..3 {
            assert_eq!(target(A_POS)[b].get(lane, k), s.pos[i][k] as f32);
            assert_eq!(source(B_POST)[b].get(k, lane), s.pos[i][k] as f32);
            // SRC_ATTR is split hi/lo so the bf16 matmul path keeps ~16
            // mantissa bits: hi is the bf16 quantization, lo the residual.
            let (rh, rl) = bf16_split(s.pos[i][k] as f32);
            let (vh, vl) = bf16_split(s.vel[i][k] as f32);
            assert_eq!((hi[b].get(lane, k), lo[b].get(lane, k)), (rh, rl));
            assert_eq!((hi[b].get(lane, 3 + k), lo[b].get(lane, 3 + k)), (vh, vl));
        }
        assert_eq!(hi[b].get(lane, 6), 1.0);
        assert_eq!(lo[b].get(lane, 6), 0.0);
        let r2 = target(COL_R2)[b].get(lane, 0);
        assert!((f64::from(r2) - s.pos[i].iter().map(|x| x * x).sum::<f64>()).abs() < 1e-5);
        assert_eq!(source(ROW_R2EPS)[b].get(0, lane), r2 + 1e-4);

        // Pad lanes: parked targets, zero-mass sources, ε² keeps s² positive.
        let pad = 20; // particle 84 ≥ 70
        assert_eq!(target(A_POS)[2].get(pad, 0), PAD_POSITION);
        assert_eq!(source(ROW_M)[2].get(0, pad), 0.0);
        assert_eq!(source(ROW_R2EPS)[2].get(0, pad), 1e-4);
        assert_eq!(hi[2].get(pad, 6), 0.0);
    }

    /// The damping pages of `plan`'s block `g`, decoded from its args.
    fn plan_pairs(plan: &DampingPlan, g: usize) -> Vec<(usize, usize)> {
        let a = &plan.args;
        let pairs = 2 + a[0] as usize;
        (a[1 + g] as usize..a[2 + g] as usize)
            .map(|p| (a[pairs + 2 * p] as usize, a[pairs + 2 * p + 1] as usize))
            .collect()
    }

    #[test]
    fn full_damping_plan_is_one_identity_page() {
        // n = 70: three blocks, the last one padded; every block's plan is
        // its own source block on the one DIAG_DAMP·I page.
        let plan = damping_plan(&(0..70).collect::<Vec<_>>());
        assert_eq!(plan.pages.len(), 1);
        for i in 0..TILE_DIM {
            for j in 0..TILE_DIM {
                let want = if i == j { DIAG_DAMP } else { 0.0 };
                assert_eq!(plan.pages[0].get(i, j), want);
            }
        }
        assert_eq!(plan.args[0], 3);
        for g in 0..3 {
            assert_eq!(plan_pairs(&plan, g), vec![(g, 0)]);
        }
    }

    #[test]
    fn gathered_damping_plan_marks_each_self_pair() {
        // Rows 0..2 of gathered block 0 are particles 5 and 40 (source
        // blocks 0 and 1); row 2 is particle 41, also in block 1.
        let active = [5, 40, 41, 100];
        let plan = damping_plan(&active);
        assert_eq!(plan.args[0], 1);
        let pairs = plan_pairs(&plan, 0);
        assert_eq!(pairs.iter().map(|p| p.0).collect::<Vec<_>>(), vec![0, 1, 3]);
        let page = |src: usize| &plan.pages[pairs.iter().find(|p| p.0 == src).unwrap().1];
        let damped = |t: &Tile| {
            let mut cells = Vec::new();
            for i in 0..TILE_DIM {
                for j in 0..TILE_DIM {
                    if t.get(i, j) != 0.0 {
                        assert_eq!(t.get(i, j), DIAG_DAMP);
                        cells.push((i, j));
                    }
                }
            }
            cells
        };
        assert_eq!(damped(page(0)), vec![(0, 5)]);
        assert_eq!(damped(page(1)), vec![(1, 8), (2, 9)]);
        // The last group also damps the block's pad rows on their diagonal.
        let mut last = vec![(3, 4)];
        last.extend((4..TILE_DIM).map(|k| (k, k)));
        assert_eq!(damped(page(3)), last);
    }

    #[test]
    fn matrix_chunks_cover_all_blocks() {
        assert_eq!(matrix_chunks(1), vec![(0, 1)]);
        assert_eq!(matrix_chunks(3).len(), 3);
        let chunks = matrix_chunks(100);
        assert_eq!(chunks.len(), MATRIX_MAX_CHUNKS);
        assert_eq!(chunks.iter().map(|(_, c)| c).sum::<usize>(), 100);
        assert_eq!(num_matrix_blocks(70), 3);
        assert_eq!(num_matrix_blocks(64), 2);
    }
}
