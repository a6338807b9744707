//! srcA / srcB — the Tensix source registers.
//!
//! Fig. 1 of the paper: the unpacker "loads data from SRAM into two 4 KiB
//! source registers, srcA and srcB. Each of these registers are capable of
//! holding up to 1024 single-precision floating-point values." The FPU
//! consumes srcA/srcB pairs; the unpacker's address generator can load with
//! arbitrary strides — including stride 0, which replicates one scalar
//! across the whole register (the primitive behind the elementwise force
//! kernel's per-particle broadcasts).

use crate::cost::ComputeCosts;
use crate::error::{Result, TensixError};
use crate::tile::{row_elems, Tile, TILE_ELEMS};

/// Which source register an unpack targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcReg {
    /// srcA — conventionally fed by UNPACK from input operand 0.
    A,
    /// srcB — operand 1.
    B,
}

/// The pair of 4 KiB source registers of one Tensix core.
#[derive(Debug, Default)]
pub struct SrcRegisters {
    a: Option<Tile>,
    b: Option<Tile>,
}

impl SrcRegisters {
    /// Empty (invalid) registers; the unpacker must load before the FPU
    /// consumes.
    #[must_use]
    pub fn new() -> Self {
        SrcRegisters::default()
    }

    /// Unpack the top `rows` rows of a tile into the selected register (the
    /// page is handed over whole; rows past `rows` are don't-care). Returns
    /// the cycle cost of the unpack pass, half for a 16-row half tile.
    pub fn unpack_tile(
        &mut self,
        costs: &ComputeCosts,
        rows: usize,
        reg: SrcReg,
        tile: Tile,
    ) -> u64 {
        match reg {
            SrcReg::A => self.a = Some(tile),
            SrcReg::B => self.b = Some(tile),
        }
        costs.for_rows(rows).unpack_tile
    }

    /// Unpack with stride-0 addressing: element `lane` of `tile` (any of
    /// its 1024) replicated across the top `rows` rows of the register. Same
    /// cost as an unpack pass of `rows` rows (the address generator still
    /// issues one read per position).
    ///
    /// # Panics
    /// Panics if `lane >= 1024`.
    pub fn unpack_lane_broadcast(
        &mut self,
        costs: &ComputeCosts,
        rows: usize,
        reg: SrcReg,
        tile: &Tile,
        lane: usize,
    ) -> u64 {
        assert!(lane < TILE_ELEMS, "lane {lane} out of range");
        let value = tile.format().quantize(tile.as_slice()[lane]);
        let slot = match reg {
            SrcReg::A => &mut self.a,
            SrcReg::B => &mut self.b,
        };
        let old = slot.take();
        let splat = slot.insert(Tile::recycle(old, tile.format()));
        splat.as_mut_slice()[..row_elems(rows)].fill(value);
        costs.for_rows(rows).unpack_tile
    }

    /// Read the selected register for the FPU datapath.
    ///
    /// # Errors
    /// [`TensixError::KernelFault`] if the register was never loaded — the
    /// hardware would compute on stale garbage; the simulator refuses.
    pub fn read(&self, reg: SrcReg) -> Result<&Tile> {
        let slot = match reg {
            SrcReg::A => &self.a,
            SrcReg::B => &self.b,
        };
        slot.as_ref().ok_or_else(|| TensixError::KernelFault {
            message: format!("src{reg:?} consumed before any unpack"),
        })
    }

    /// Invalidate both registers (`tile_regs` handoff clears srcA/srcB
    /// validity on hardware bank swaps).
    pub fn clear(&mut self) {
        self.a = None;
        self.b = None;
    }

    /// Whether both registers hold valid data.
    #[must_use]
    pub fn both_valid(&self) -> bool {
        self.a.is_some() && self.b.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DataFormat;
    use crate::tile::{HALF_TILE_ROWS, TILE_DIM};

    fn costs() -> ComputeCosts {
        ComputeCosts::default()
    }

    fn ramp() -> Tile {
        let vals: Vec<f32> = (0..TILE_ELEMS as u32).map(|i| i as f32).collect();
        Tile::from_rowmajor(DataFormat::Float32, &vals)
    }

    #[test]
    fn unpack_and_read() {
        let mut src = SrcRegisters::new();
        assert!(!src.both_valid());
        let cycles = src.unpack_tile(&costs(), TILE_DIM, SrcReg::A, ramp());
        assert_eq!(cycles, costs().unpack_tile);
        src.unpack_tile(&costs(), TILE_DIM, SrcReg::B, Tile::splat(DataFormat::Float32, 2.0));
        assert!(src.both_valid());
        assert_eq!(src.read(SrcReg::A).unwrap().get(0, 5), 5.0);
        assert_eq!(src.read(SrcReg::B).unwrap().get(3, 3), 2.0);
    }

    #[test]
    fn read_before_unpack_faults() {
        let src = SrcRegisters::new();
        let err = src.read(SrcReg::A).unwrap_err();
        assert!(err.to_string().contains("before any unpack"), "{err}");
    }

    #[test]
    fn stride_zero_broadcast() {
        let mut src = SrcRegisters::new();
        let t = ramp();
        src.unpack_lane_broadcast(&costs(), TILE_DIM, SrcReg::A, &t, 777);
        let a = src.read(SrcReg::A).unwrap();
        assert!(a.as_slice().iter().all(|v| *v == 777.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn broadcast_lane_bounds_checked() {
        let mut src = SrcRegisters::new();
        src.unpack_lane_broadcast(&costs(), TILE_DIM, SrcReg::B, &ramp(), 1024);
    }

    #[test]
    fn half_tile_unpacks_cost_half_a_pass() {
        let mut src = SrcRegisters::new();
        let c = costs();
        assert_eq!(src.unpack_tile(&c, HALF_TILE_ROWS, SrcReg::A, ramp()), c.unpack_tile / 2);
        let cycles = src.unpack_lane_broadcast(&c, HALF_TILE_ROWS, SrcReg::B, &ramp(), 900);
        assert_eq!(cycles, c.unpack_tile / 2);
        assert!(src.read(SrcReg::B).unwrap().as_slice()[..512].iter().all(|v| *v == 900.0));
    }

    #[test]
    fn clear_invalidates() {
        let mut src = SrcRegisters::new();
        src.unpack_tile(&costs(), TILE_DIM, SrcReg::A, ramp());
        src.unpack_tile(&costs(), TILE_DIM, SrcReg::B, ramp());
        src.clear();
        assert!(!src.both_valid());
        assert!(src.read(SrcReg::B).is_err());
    }

    #[test]
    fn capacity_is_one_tile_of_fp32() {
        // 4 KiB = 1024 × f32: one full tile per register, per the paper.
        assert_eq!(TILE_ELEMS * 4, 4096);
    }
}
