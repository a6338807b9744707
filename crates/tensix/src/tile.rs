//! 32×32 tiles — the unit of data movement and compute on the Wormhole.
//!
//! A tile is a 32×32 matrix of scalars. In DRAM and L1 a tile is stored
//! *tilized*: split into four 16×16 faces (top-left, top-right, bottom-left,
//! bottom-right), each face row-major, faces concatenated. Tilizing makes each
//! tile contiguous in memory, which is what enables the efficient DRAM/NoC
//! streaming the paper relies on.
//!
//! The simulator keeps live tile values as `f32` and applies the storage
//! format's quantization on construction/packing, so FP32 tiles are exact and
//! BF16/FP16 tiles carry representative rounding error.
//!
//! Tile storage is shared copy-on-write (see [`Tile`]) and pooled: when the
//! last tile holding a 4 KiB array drops it, the array goes to a bounded
//! per-thread free list ([`POOL_TILES`]) instead of the allocator, and every
//! path that needs a new array takes one from that list first. A kernel
//! streaming tiles through CBs, dst and src registers therefore makes
//! almost no heap allocation once warm. New storage is always overwritten in full before any
//! tile can read it, so which array came back never shows in a value.

use std::cell::RefCell;
use std::sync::Arc;

use crate::dtype::DataFormat;

/// Elements along one side of a tile.
pub const TILE_DIM: usize = 32;
/// Elements in a full tile.
pub const TILE_ELEMS: usize = TILE_DIM * TILE_DIM;
/// Elements along one side of a face.
pub const FACE_DIM: usize = 16;
/// Elements in one face.
pub const FACE_ELEMS: usize = FACE_DIM * FACE_DIM;
/// Rows of a half tile: the 16×32 tile of faces 0–1 that TT-Metalium's
/// tiny-tile support also offers. It still occupies a whole page in DRAM
/// and L1; compute ops told to work on 16 rows touch only its top half.
pub const HALF_TILE_ROWS: usize = FACE_DIM;

/// Elements in the top `rows` rows of a tile: the lanes an op on a
/// `rows`-row tile computes, and the particles a page of that tile holds.
///
/// # Panics
/// Panics unless `rows` is [`HALF_TILE_ROWS`] or [`TILE_DIM`].
#[must_use]
pub fn row_elems(rows: usize) -> usize {
    assert!(rows == HALF_TILE_ROWS || rows == TILE_DIM, "a tile has 16 or 32 rows, not {rows}");
    rows * TILE_DIM
}

/// A 32×32 tile of scalars in a given storage format.
///
/// Internally values are stored in *row-major* order (not tilized); the
/// tilized byte layout is produced on demand by [`Tile::to_tilized`] and
/// consumed by [`Tile::from_tilized`].
///
/// The element storage is a shared [`Arc`] with copy-on-write semantics:
/// `Tile::clone` is a reference-count bump (so circular buffers, DRAM pages
/// and dst/src registers hand tiles around zero-copy), and the backing array
/// is only duplicated when a writer calls [`Tile::as_mut_slice`] (or
/// [`Tile::set`]) on a tile whose storage is still shared. Because the copy
/// happens *before* any element is written, readers holding older clones
/// always observe exactly the bits they would have observed under deep
/// copying — the sharing is invisible to simulated results.
///
/// Dropping the last tile that holds an array hands the array to this
/// thread's pool, and the constructors, [`Tile::convert`],
/// [`Tile::deep_clone`], the copy-on-write in [`Tile::as_mut_slice`] and
/// [`Tile::recycle`] misses take their storage from it before asking the
/// allocator.
#[derive(Clone, Debug)]
pub struct Tile {
    format: DataFormat,
    /// `Some` for the whole life of the tile: `Drop` takes the array out to
    /// hand it back to the pool.
    data: Option<Storage>,
}

/// The backing array of a tile.
type Storage = Arc<[f32; TILE_ELEMS]>;

/// Tile arrays each thread keeps for reuse: 32 × 4 KiB = 128 KiB. Arrays
/// dropped past it go back to the allocator. That covers the arrays one
/// core's force kernel frees before it needs them again, all but a few
/// hundred per evaluation for the matrix kernel's groups of target
/// blocks. 64 left the matrix kernel ~180 fewer allocations per
/// evaluation but kept the elementwise runs' peak memory ~2% higher:
/// pooled arrays never serve other allocations.
pub const POOL_TILES: usize = 32;

thread_local! {
    static POOL: RefCell<Vec<Storage>> = const { RefCell::new(Vec::new()) };
}

/// New storage, set in full by `fill`: an array from this thread's pool if
/// it has one, else a fresh allocation.
fn new_storage(fill: impl FnOnce(&mut [f32; TILE_ELEMS])) -> Storage {
    let pooled = POOL.try_with(|pool| pool.borrow_mut().pop()).ok().flatten();
    let mut data = pooled.unwrap_or_else(|| Arc::new([0.0; TILE_ELEMS]));
    // Pooled arrays have one owner, so this never copies.
    fill(Arc::make_mut(&mut data));
    data
}

/// Let go of `data`: into this thread's pool when this was its last owner
/// and the pool has room, else dropped as usual.
fn release(data: Storage) {
    // Tiles never hand out weak references: a lone strong count means no
    // other tile can read the array again.
    if Arc::strong_count(&data) != 1 {
        return;
    }
    // `try_with` fails only while the thread is tearing down its locals;
    // the array is then simply freed.
    let _ = POOL.try_with(move |pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < POOL_TILES {
            pool.push(data);
        }
    });
}

impl Drop for Tile {
    fn drop(&mut self) {
        if let Some(data) = self.data.take() {
            release(data);
        }
    }
}

impl Tile {
    /// A tile over new storage set in full by `fill`.
    fn filled(format: DataFormat, fill: impl FnOnce(&mut [f32; TILE_ELEMS])) -> Self {
        Tile { format, data: Some(new_storage(fill)) }
    }

    fn storage(&self) -> &Storage {
        self.data.as_ref().expect("a live tile holds its storage")
    }

    /// A tile of zeros.
    #[must_use]
    pub fn zeros(format: DataFormat) -> Self {
        Tile::filled(format, |d| d.fill(0.0))
    }

    /// A tile with every element equal to `v` (quantized to `format`).
    #[must_use]
    pub fn splat(format: DataFormat, v: f32) -> Self {
        let q = format.quantize(v);
        Tile::filled(format, |d| d.fill(q))
    }

    /// Build a tile from exactly [`TILE_ELEMS`] row-major values, quantizing
    /// to the storage format.
    ///
    /// # Panics
    /// Panics if `values.len() != 1024`.
    #[must_use]
    pub fn from_rowmajor(format: DataFormat, values: &[f32]) -> Self {
        assert_eq!(values.len(), TILE_ELEMS, "a tile holds exactly 1024 elements");
        Tile::filled(format, |d| {
            d.copy_from_slice(values);
            format.quantize_slice(d);
        })
    }

    /// Storage format of this tile.
    #[must_use]
    pub fn format(&self) -> DataFormat {
        self.format
    }

    /// Row-major element view.
    #[must_use]
    pub fn as_slice(&self) -> &[f32; TILE_ELEMS] {
        self.storage()
    }

    /// Mutable row-major element view. Callers are responsible for writing
    /// format-representable values (compute units quantize on pack).
    ///
    /// Copy-on-write point: if the backing storage is shared with other
    /// clones it is duplicated here, into pooled storage. Hot loops should
    /// hoist this call out of per-element iteration — each call re-checks
    /// Arc uniqueness.
    pub fn as_mut_slice(&mut self) -> &mut [f32; TILE_ELEMS] {
        let data = self.data.as_mut().expect("a live tile holds its storage");
        if Arc::strong_count(data) != 1 {
            let copy = new_storage(|d| d.copy_from_slice(&data[..]));
            release(std::mem::replace(data, copy));
        }
        // The storage has one owner now, so this never copies.
        Arc::make_mut(data)
    }

    /// A `format` tile that takes over `old`'s storage when `old` is the
    /// only owner of it and already holds `format` values, else a zero
    /// tile over pooled storage. Its values are whatever `old` held: for
    /// registers the next op overwrites (the rows it computes), so a
    /// register file can recycle one array per slot instead of taking one
    /// per op.
    #[must_use]
    pub fn recycle(old: Option<Tile>, format: DataFormat) -> Tile {
        match old {
            // A lone strong count means no clone can observe the reuse.
            Some(t) if t.format == format && Arc::strong_count(t.storage()) == 1 => t,
            old => {
                // Return `old`'s storage first, so the zero tile can take it.
                drop(old);
                Tile::zeros(format)
            }
        }
    }

    /// Force a deep copy of the backing storage — the pre-zero-copy `clone`
    /// behavior, kept so benchmarks can measure the cost the Arc/COW design
    /// removes.
    #[must_use]
    pub fn deep_clone(&self) -> Tile {
        Tile::filled(self.format, |d| d.copy_from_slice(self.as_slice()))
    }

    /// Element at matrix position (`row`, `col`).
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.as_slice()[row * TILE_DIM + col]
    }

    /// Set element at matrix position (`row`, `col`), quantizing to the
    /// storage format.
    pub fn set(&mut self, row: usize, col: usize, v: f32) {
        self.as_mut_slice()[row * TILE_DIM + col] = self.format.quantize(v);
    }

    /// Re-quantize every element to `format` and change the storage format.
    #[must_use]
    pub fn convert(&self, format: DataFormat) -> Tile {
        if self.format == DataFormat::Float32 && format == DataFormat::Float32 {
            // FP32 quantization is the identity, so conversion is a share.
            return self.clone();
        }
        Tile::filled(format, |d| {
            d.copy_from_slice(self.as_slice());
            format.quantize_slice(d);
        })
    }

    /// Produce the tilized (face-ordered) value sequence: face 0 (rows 0–15,
    /// cols 0–15), face 1 (rows 0–15, cols 16–31), face 2, face 3, each face
    /// row-major.
    #[must_use]
    pub fn to_tilized(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; TILE_ELEMS];
        for face in 0..4 {
            let row0 = (face / 2) * FACE_DIM;
            let col0 = (face % 2) * FACE_DIM;
            for r in 0..FACE_DIM {
                // One face row is 16 contiguous row-major elements.
                let src = (row0 + r) * TILE_DIM + col0;
                let dst = face * FACE_ELEMS + r * FACE_DIM;
                out[dst..dst + FACE_DIM].copy_from_slice(&self.as_slice()[src..src + FACE_DIM]);
            }
        }
        out
    }

    /// Reconstruct a tile from a tilized value sequence.
    ///
    /// # Panics
    /// Panics if `values.len() != 1024`.
    #[must_use]
    pub fn from_tilized(format: DataFormat, values: &[f32]) -> Self {
        assert_eq!(values.len(), TILE_ELEMS, "a tile holds exactly 1024 elements");
        // The four faces cover all 1024 elements.
        Tile::filled(format, |data| {
            for face in 0..4 {
                let row0 = (face / 2) * FACE_DIM;
                let col0 = (face % 2) * FACE_DIM;
                for r in 0..FACE_DIM {
                    let dst = (row0 + r) * TILE_DIM + col0;
                    let src = face * FACE_ELEMS + r * FACE_DIM;
                    data[dst..dst + FACE_DIM].copy_from_slice(&values[src..src + FACE_DIM]);
                }
            }
            format.quantize_slice(data);
        })
    }

    /// Packed size of this tile in bytes.
    #[must_use]
    pub fn packed_bytes(&self) -> usize {
        self.format.tile_bytes()
    }
}

/// Tilize a row-major matrix of `rows × cols` values (both multiples of 32)
/// into a row of tiles, tile-row-major: the tile covering matrix rows 0–31 and
/// cols 0–31 first, then cols 32–63, etc.
///
/// This is the host-side `tilize` operation TT-Metalium performs before
/// writing tensors to DRAM.
///
/// # Panics
/// Panics unless `rows` and `cols` are nonzero multiples of 32 and
/// `values.len() == rows * cols`.
#[must_use]
pub fn tilize(format: DataFormat, values: &[f32], rows: usize, cols: usize) -> Vec<Tile> {
    assert!(rows > 0 && rows.is_multiple_of(TILE_DIM), "rows must be a multiple of 32");
    assert!(cols > 0 && cols.is_multiple_of(TILE_DIM), "cols must be a multiple of 32");
    assert_eq!(values.len(), rows * cols);
    let tile_rows = rows / TILE_DIM;
    let tile_cols = cols / TILE_DIM;
    let mut tiles = Vec::with_capacity(tile_rows * tile_cols);
    let mut buf = [0.0f32; TILE_ELEMS];
    for tr in 0..tile_rows {
        for tc in 0..tile_cols {
            for r in 0..TILE_DIM {
                let src = (tr * TILE_DIM + r) * cols + tc * TILE_DIM;
                buf[r * TILE_DIM..(r + 1) * TILE_DIM].copy_from_slice(&values[src..src + TILE_DIM]);
            }
            tiles.push(Tile::from_rowmajor(format, &buf));
        }
    }
    tiles
}

/// Inverse of [`tilize`]: reassemble the row-major matrix from its tiles.
///
/// # Panics
/// Panics unless the tile count matches `rows/32 * cols/32`.
#[must_use]
pub fn untilize(tiles: &[Tile], rows: usize, cols: usize) -> Vec<f32> {
    assert!(rows.is_multiple_of(TILE_DIM) && cols.is_multiple_of(TILE_DIM));
    let tile_cols = cols / TILE_DIM;
    assert_eq!(tiles.len(), (rows / TILE_DIM) * tile_cols);
    let mut out = vec![0.0f32; rows * cols];
    for (i, tile) in tiles.iter().enumerate() {
        let tr = i / tile_cols;
        let tc = i % tile_cols;
        let data = tile.as_slice();
        for r in 0..TILE_DIM {
            let dst = (tr * TILE_DIM + r) * cols + tc * TILE_DIM;
            out[dst..dst + TILE_DIM].copy_from_slice(&data[r * TILE_DIM..(r + 1) * TILE_DIM]);
        }
    }
    out
}

/// Pack a flat vector of length `n` into `ceil(n / 1024)` tiles, padding the
/// tail with `pad`. This is the 1-D packing the N-body port uses: "organized
/// into tiles, where each tile holds 1024 elements".
#[must_use]
pub fn pack_vector(format: DataFormat, values: &[f32], pad: f32) -> Vec<Tile> {
    pack_vector_rows(format, values, TILE_DIM, pad)
}

/// [`pack_vector`] into `rows`-row tiles: `rows · 32` values per page, the
/// rest of each page (the tail, and rows `rows..32` of a half tile) padded
/// with `pad`.
///
/// # Panics
/// As [`row_elems`].
#[must_use]
pub fn pack_vector_rows(format: DataFormat, values: &[f32], rows: usize, pad: f32) -> Vec<Tile> {
    let per_page = row_elems(rows);
    let mut tiles = Vec::with_capacity(values.len().div_ceil(per_page));
    for chunk in values.chunks(per_page) {
        let mut buf = [pad; TILE_ELEMS];
        buf[..chunk.len()].copy_from_slice(chunk);
        tiles.push(Tile::from_rowmajor(format, &buf));
    }
    tiles
}

/// Inverse of [`pack_vector`]: flatten tiles and truncate to `n` values.
#[must_use]
pub fn unpack_vector(tiles: &[Tile], n: usize) -> Vec<f32> {
    unpack_vector_rows(tiles, TILE_DIM, n)
}

/// Inverse of [`pack_vector_rows`]: the top `rows` rows of each tile,
/// flattened and truncated to `n` values.
///
/// # Panics
/// As [`row_elems`].
#[must_use]
pub fn unpack_vector_rows(tiles: &[Tile], rows: usize, n: usize) -> Vec<f32> {
    let per_page = row_elems(rows);
    let mut out = Vec::with_capacity(tiles.len() * per_page);
    for t in tiles {
        out.extend_from_slice(&t.as_slice()[..per_page]);
    }
    out.truncate(n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32).collect()
    }

    #[test]
    fn splat_and_get() {
        let t = Tile::splat(DataFormat::Float32, 3.25);
        assert_eq!(t.get(0, 0), 3.25);
        assert_eq!(t.get(31, 31), 3.25);
    }

    #[test]
    fn from_rowmajor_roundtrip() {
        let vals = ramp(TILE_ELEMS);
        let t = Tile::from_rowmajor(DataFormat::Float32, &vals);
        assert_eq!(t.as_slice()[..], vals[..]);
        assert_eq!(t.get(1, 0), 32.0);
    }

    #[test]
    #[should_panic(expected = "1024")]
    fn from_rowmajor_wrong_len_panics() {
        let _ = Tile::from_rowmajor(DataFormat::Float32, &[0.0; 100]);
    }

    #[test]
    fn tilized_face_order() {
        let vals = ramp(TILE_ELEMS);
        let t = Tile::from_rowmajor(DataFormat::Float32, &vals);
        let tz = t.to_tilized();
        // First face element = matrix (0,0); second face starts at (0,16).
        assert_eq!(tz[0], 0.0);
        assert_eq!(tz[FACE_ELEMS], 16.0);
        // Third face starts at (16, 0) = 16*32.
        assert_eq!(tz[2 * FACE_ELEMS], 512.0);
        // Fourth face starts at (16,16).
        assert_eq!(tz[3 * FACE_ELEMS], 528.0);
    }

    #[test]
    fn tilized_roundtrip() {
        let vals = ramp(TILE_ELEMS);
        let t = Tile::from_rowmajor(DataFormat::Float32, &vals);
        let back = Tile::from_tilized(DataFormat::Float32, &t.to_tilized());
        assert_eq!(back.as_slice()[..], vals[..]);
    }

    #[test]
    fn tilize_untilize_identity() {
        let (rows, cols) = (64, 96);
        let vals = ramp(rows * cols);
        let tiles = tilize(DataFormat::Float32, &vals, rows, cols);
        assert_eq!(tiles.len(), 2 * 3);
        assert_eq!(untilize(&tiles, rows, cols), vals);
    }

    #[test]
    fn tilize_tile_ordering() {
        let (rows, cols) = (32, 64);
        let vals = ramp(rows * cols);
        let tiles = tilize(DataFormat::Float32, &vals, rows, cols);
        // Second tile covers cols 32..64 of row 0.
        assert_eq!(tiles[1].get(0, 0), 32.0);
    }

    #[test]
    fn bf16_tile_quantizes() {
        let t = Tile::splat(DataFormat::Float16b, 1.0 + 1.0 / 1024.0);
        // 1.0009765625 is not bf16-representable; snaps to 1.0.
        assert_eq!(t.get(0, 0), 1.0);
    }

    #[test]
    fn convert_changes_format_and_precision() {
        let t = Tile::splat(DataFormat::Float32, 1.0 + 1.0 / 1024.0);
        let b = t.convert(DataFormat::Float16b);
        assert_eq!(b.format(), DataFormat::Float16b);
        assert_eq!(b.get(5, 5), 1.0);
        assert_eq!(b.packed_bytes(), 2048);
    }

    #[test]
    fn pack_vector_pads_tail() {
        let vals = ramp(1500);
        let tiles = pack_vector(DataFormat::Float32, &vals, 0.0);
        assert_eq!(tiles.len(), 2);
        assert_eq!(tiles[1].as_slice()[1500 - 1024 - 1], vals[1500 - 1]);
        assert_eq!(tiles[1].as_slice()[1500 - 1024], 0.0, "tail is padded");
        assert_eq!(unpack_vector(&tiles, 1500), vals);
    }

    #[test]
    fn clone_is_shared_until_mutated() {
        let a = Tile::splat(DataFormat::Float32, 2.0);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(a.storage(), b.storage()), "clone must share storage");
        b.set(3, 4, 9.0);
        assert!(!Arc::ptr_eq(a.storage(), b.storage()), "mutation must un-share");
        assert_eq!(a.get(3, 4), 2.0, "older clone keeps its bits");
        assert_eq!(b.get(3, 4), 9.0);
        let c = a.deep_clone();
        assert!(!Arc::ptr_eq(a.storage(), c.storage()), "deep_clone never shares");
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn recycle_reuses_only_exclusive_storage_of_the_same_format() {
        let f = DataFormat::Float32;
        let owned = Tile::splat(f, 3.0);
        let ptr = Arc::as_ptr(owned.storage());
        let reused = Tile::recycle(Some(owned), f);
        assert_eq!(Arc::as_ptr(reused.storage()), ptr, "exclusive storage is reused");
        let shared = reused.clone();
        let fresh = Tile::recycle(Some(reused), f);
        assert!(!Arc::ptr_eq(fresh.storage(), shared.storage()), "shared storage is never written");
        assert_eq!(fresh.get(0, 0), 0.0);
        assert_eq!(
            Tile::recycle(Some(shared), DataFormat::Float16b).format(),
            DataFormat::Float16b
        );
    }

    #[test]
    fn dropped_storage_is_reused_and_overwritten_in_full() {
        let f = DataFormat::Float32;
        let t = Tile::splat(f, 5.0);
        let ptr = Arc::as_ptr(t.storage());
        drop(t);
        let z = Tile::zeros(f);
        assert_eq!(Arc::as_ptr(z.storage()), ptr, "the last owner's drop pools the array");
        assert!(z.as_slice().iter().all(|v| *v == 0.0));
        let shared = z.clone();
        drop(z);
        let fresh = Tile::splat(f, 1.0);
        assert_ne!(Arc::as_ptr(fresh.storage()), ptr, "a shared array is never pooled");
        assert_eq!(shared.get(0, 0), 0.0);
    }

    #[test]
    fn copy_on_write_takes_pooled_storage() {
        let f = DataFormat::Float32;
        let a = Tile::splat(f, 2.0);
        let mut b = a.clone();
        let spare = Tile::splat(f, 9.0);
        let ptr = Arc::as_ptr(spare.storage());
        drop(spare);
        b.set(0, 1, 4.0);
        assert_eq!(Arc::as_ptr(b.storage()), ptr);
        assert_eq!(b.as_slice()[..2], [2.0, 4.0], "the copy overwrites the pooled values");
        assert_eq!(a.get(0, 1), 2.0);
    }

    #[test]
    fn the_pool_holds_at_most_pool_tiles_arrays() {
        let f = DataFormat::Float32;
        drop((0..2 * POOL_TILES).map(|_| Tile::zeros(f)).collect::<Vec<_>>());
        assert_eq!(POOL.with(|p| p.borrow().len()), POOL_TILES);
    }

    #[test]
    fn convert_fp32_to_fp32_shares() {
        let a = Tile::splat(DataFormat::Float32, 1.5);
        let b = a.convert(DataFormat::Float32);
        assert!(Arc::ptr_eq(a.storage(), b.storage()));
    }

    #[test]
    fn half_tile_pages_hold_512_values_and_pad_rows_16_to_31() {
        let vals = ramp(700);
        let tiles = pack_vector_rows(DataFormat::Float32, &vals, HALF_TILE_ROWS, -1.0);
        assert_eq!(tiles.len(), 2);
        assert_eq!(tiles[1].get(0, 0), 512.0, "page 1 starts at value 512");
        assert_eq!(tiles[0].get(HALF_TILE_ROWS, 0), -1.0, "rows 16-31 are padding");
        assert_eq!(tiles[1].as_slice()[700 - 512], -1.0, "tail is padded");
        assert_eq!(unpack_vector_rows(&tiles, HALF_TILE_ROWS, 700), vals);
    }

    #[test]
    #[should_panic(expected = "16 or 32 rows")]
    fn other_row_counts_are_refused() {
        let _ = row_elems(8);
    }

    #[test]
    fn pack_vector_exact_multiple() {
        let vals = ramp(2048);
        let tiles = pack_vector(DataFormat::Float32, &vals, -1.0);
        assert_eq!(tiles.len(), 2);
        assert_eq!(unpack_vector(&tiles, 2048), vals);
    }
}
