//! The Tensix destination register file (`dst`).
//!
//! `dst` is a 32 KiB register file organized into 16 segments; compute
//! results land here before the packer moves them to SRAM. Capacity is 16
//! tiles in 16-bit formats and 8 tiles in FP32 — the constraint that forced
//! the paper's kernel to stage dx/dy/dz in L1 CBs instead of keeping them
//! resident. The acquire/commit/wait/release protocol coordinates the MATH
//! and PACK cores; the simulator enforces it so incorrectly synchronized
//! kernels fail loudly.

use crate::dtype::DataFormat;
use crate::error::{Result, TensixError};
use crate::tile::Tile;

/// Ownership phase of the dst register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DstPhase {
    /// Nobody holds dst.
    Idle,
    /// MATH holds dst (after `tile_regs_acquire`).
    Math,
    /// MATH committed; PACK may read (after `tile_regs_commit` +
    /// `tile_regs_wait`).
    Pack,
}

/// Simulated dst register file for one Tensix core.
#[derive(Debug)]
pub struct DstRegisters {
    format: DataFormat,
    tiles: Vec<Option<Tile>>,
    /// Storage of segments invalidated by `acquire`, kept for
    /// [`DstRegisters::output`] to recycle.
    stale: Vec<Option<Tile>>,
    phase: DstPhase,
}

impl DstRegisters {
    /// Create a dst file for the given math format. Capacity follows the
    /// format (16 tiles for 16-bit formats, 8 for FP32).
    #[must_use]
    pub fn new(format: DataFormat) -> Self {
        DstRegisters {
            format,
            tiles: (0..format.dst_capacity_tiles()).map(|_| None).collect(),
            stale: (0..format.dst_capacity_tiles()).map(|_| None).collect(),
            phase: DstPhase::Idle,
        }
    }

    /// Tile capacity for the active format.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.tiles.len()
    }

    /// Active math format.
    #[must_use]
    pub fn format(&self) -> DataFormat {
        self.format
    }

    /// `tile_regs_acquire`: MATH takes ownership. Clears previous contents.
    ///
    /// # Panics
    /// Panics if dst is already held (double acquire is a kernel bug).
    pub fn acquire(&mut self) {
        assert_eq!(self.phase, DstPhase::Idle, "tile_regs_acquire while dst is held");
        for (t, stale) in self.tiles.iter_mut().zip(&mut self.stale) {
            if let Some(tile) = t.take() {
                *stale = Some(tile);
            }
        }
        self.phase = DstPhase::Math;
    }

    /// `tile_regs_commit`: MATH hands dst to PACK.
    ///
    /// # Panics
    /// Panics unless MATH currently holds dst.
    pub fn commit(&mut self) {
        assert_eq!(self.phase, DstPhase::Math, "tile_regs_commit without acquire");
        self.phase = DstPhase::Pack;
    }

    /// `tile_regs_release`: PACK frees dst for the next iteration.
    ///
    /// # Panics
    /// Panics unless dst is in the pack phase.
    pub fn release(&mut self) {
        assert_eq!(self.phase, DstPhase::Pack, "tile_regs_release without commit");
        self.phase = DstPhase::Idle;
    }

    fn check_index(&self, index: usize) -> Result<()> {
        if index >= self.tiles.len() {
            return Err(TensixError::DstIndexOutOfRange { index, capacity: self.tiles.len() });
        }
        Ok(())
    }

    /// Write a tile into dst segment `index` (MATH phase only).
    ///
    /// # Errors
    /// [`TensixError::DstIndexOutOfRange`] if `index` exceeds the capacity —
    /// exactly the register-spill hazard the paper works around with L1 CBs.
    ///
    /// # Panics
    /// Panics if MATH does not hold dst.
    pub fn write(&mut self, index: usize, tile: Tile) -> Result<()> {
        assert_eq!(self.phase, DstPhase::Math, "dst write outside math phase");
        self.check_index(index)?;
        self.tiles[index] = Some(tile);
        Ok(())
    }

    /// The segment `index` as the output of an op that overwrites it (MATH
    /// phase only): a dst-format tile, recycling the segment's earlier
    /// storage when nothing else shares it (see [`Tile::recycle`]). Its
    /// values are stale until the op writes them.
    ///
    /// # Errors
    /// [`TensixError::DstIndexOutOfRange`] if `index` exceeds the capacity.
    ///
    /// # Panics
    /// Panics if MATH does not hold dst.
    pub fn output(&mut self, index: usize) -> Result<&mut Tile> {
        assert_eq!(self.phase, DstPhase::Math, "dst write outside math phase");
        self.check_index(index)?;
        let old = self.tiles[index].take().or_else(|| self.stale[index].take());
        Ok(self.tiles[index].insert(Tile::recycle(old, self.format)))
    }

    /// Read dst segment `index` during the MATH phase (for in-place SFPU ops
    /// and binary dst-dst ops).
    ///
    /// # Errors
    /// Out-of-range index, or reading a segment never written.
    pub fn read_math(&self, index: usize) -> Result<Tile> {
        assert_eq!(self.phase, DstPhase::Math, "dst math read outside math phase");
        self.check_index(index)?;
        self.tiles[index].clone().ok_or_else(|| TensixError::KernelFault {
            message: format!("dst[{index}] read before write"),
        })
    }

    /// Read dst segment `index` during the PACK phase.
    ///
    /// # Errors
    /// Out-of-range index, or reading a segment never written.
    ///
    /// # Panics
    /// Panics unless dst was committed.
    pub fn read_pack(&self, index: usize) -> Result<Tile> {
        assert_eq!(self.phase, DstPhase::Pack, "pack read before tile_regs_commit");
        self.check_index(index)?;
        self.tiles[index].clone().ok_or_else(|| TensixError::KernelFault {
            message: format!("dst[{index}] packed before write"),
        })
    }

    /// Mutable access to a written segment (MATH phase, SFPU in-place ops).
    ///
    /// # Errors
    /// Out-of-range index or unwritten segment.
    pub fn modify(&mut self, index: usize) -> Result<&mut Tile> {
        assert_eq!(self.phase, DstPhase::Math, "dst modify outside math phase");
        self.check_index(index)?;
        self.tiles[index].as_mut().ok_or_else(|| TensixError::KernelFault {
            message: format!("dst[{index}] modified before write"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(v: f32) -> Tile {
        Tile::splat(DataFormat::Float32, v)
    }

    #[test]
    fn capacity_follows_format() {
        assert_eq!(DstRegisters::new(DataFormat::Float32).capacity(), 8);
        assert_eq!(DstRegisters::new(DataFormat::Float16b).capacity(), 16);
    }

    #[test]
    fn acquire_write_commit_pack_cycle() {
        let mut dst = DstRegisters::new(DataFormat::Float32);
        dst.acquire();
        dst.write(0, tile(5.0)).unwrap();
        assert_eq!(dst.read_math(0).unwrap().get(0, 0), 5.0);
        dst.commit();
        assert_eq!(dst.read_pack(0).unwrap().get(1, 1), 5.0);
        dst.release();
        // Next acquire clears contents.
        dst.acquire();
        assert!(dst.read_math(0).is_err());
    }

    #[test]
    fn output_recycles_a_segments_storage_once_nothing_shares_it() {
        let mut dst = DstRegisters::new(DataFormat::Float32);
        dst.acquire();
        dst.output(2).unwrap().as_mut_slice().fill(7.0);
        dst.commit();
        let packed = dst.read_pack(2).unwrap();
        dst.release();
        dst.acquire();
        assert!(dst.read_math(2).is_err(), "acquire still invalidates the segment");
        // The packed page still shares the storage: the op gets a fresh tile.
        assert_eq!(dst.output(2).unwrap().get(0, 0), 0.0);
        assert_eq!(packed.get(0, 0), 7.0, "a packed page never changes under a later op");
        drop(packed);
        dst.commit();
        dst.release();
        dst.acquire();
        let out = dst.output(2).unwrap();
        assert_eq!(out.format(), DataFormat::Float32);
        out.as_mut_slice()[0] = 1.0;
        assert_eq!(dst.read_math(2).unwrap().get(0, 0), 1.0);
    }

    #[test]
    fn fp32_overflow_is_the_paper_spill_hazard() {
        let mut dst = DstRegisters::new(DataFormat::Float32);
        dst.acquire();
        for i in 0..8 {
            dst.write(i, tile(i as f32)).unwrap();
        }
        let err = dst.write(8, tile(8.0)).unwrap_err();
        assert_eq!(err, TensixError::DstIndexOutOfRange { index: 8, capacity: 8 });
        // The same index would be fine in BF16.
        let mut dst16 = DstRegisters::new(DataFormat::Float16b);
        dst16.acquire();
        dst16.write(8, Tile::splat(DataFormat::Float16b, 1.0)).unwrap();
    }

    #[test]
    #[should_panic(expected = "while dst is held")]
    fn double_acquire_panics() {
        let mut dst = DstRegisters::new(DataFormat::Float32);
        dst.acquire();
        dst.acquire();
    }

    #[test]
    #[should_panic(expected = "without acquire")]
    fn commit_without_acquire_panics() {
        DstRegisters::new(DataFormat::Float32).commit();
    }

    #[test]
    #[should_panic(expected = "before tile_regs_commit")]
    fn pack_read_before_commit_panics() {
        let mut dst = DstRegisters::new(DataFormat::Float32);
        dst.acquire();
        dst.write(0, tile(1.0)).unwrap();
        let _ = dst.read_pack(0);
    }

    #[test]
    fn modify_in_place() {
        let mut dst = DstRegisters::new(DataFormat::Float32);
        dst.acquire();
        dst.write(2, tile(3.0)).unwrap();
        dst.modify(2).unwrap().as_mut_slice()[0] = 9.0;
        assert_eq!(dst.read_math(2).unwrap().get(0, 0), 9.0);
    }
}
