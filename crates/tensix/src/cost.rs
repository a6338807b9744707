//! Cycle and bandwidth cost tables for the Wormhole timing model.
//!
//! The simulator separates *functional* execution (bit-accurate tile math)
//! from *timing*: every operation reports a cycle cost from this table, and
//! per-kernel cycle counters aggregate into device time at the 1 GHz "Baby"
//! RISC-V / Tensix clock. The constants are derived from public Wormhole
//! documentation (Tenstorrent ISA docs, corsix.org series) and calibrated so
//! the end-to-end N-body run reproduces the paper's measured throughput; see
//! `DESIGN.md` §5 for the arithmetic.

use crate::tile::{row_elems, TILE_ELEMS};

/// Tensix clock frequency in Hz (1 GHz per the paper's description of the
/// Baby RISC-V cores).
pub const CLOCK_HZ: f64 = 1.0e9;

/// Cycle costs of compute-pipeline operations, per 32×32 tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeCosts {
    /// Simple element-wise SFPU op (add/sub/mul/abs/copy-sign): the SFPU
    /// processes 32 lanes per cycle, so a 1024-element tile takes 32 cycles.
    pub sfpu_simple: u64,
    /// Transcendental SFPU op (rsqrt/recip/sqrt/exp/log): iterative, ~4× the
    /// simple-op latency.
    pub sfpu_transcendental: u64,
    /// Fused multiply-add on the SFPU (same throughput as simple ops).
    pub sfpu_mad: u64,
    /// FPU tile×tile matmul (32³ MACs at ~2048 MACs/cycle in 16-bit, half
    /// rate in FP32 → 32 cycles; we charge the FP32 rate since the paper's
    /// kernel runs FP32).
    pub fpu_matmul: u64,
    /// FPU tile×tile matmul at the full 16-bit MAC rate (32³ MACs at
    /// 2048 MACs/cycle → 16 cycles), charged when both source operands are
    /// 16-bit-or-narrower formats (BF16/FP16/BFP8). The matrix-pipe force
    /// kernel rides this rate for its accumulation matmuls.
    pub fpu_matmul_bf16: u64,
    /// FPU element-wise binary op via srcA/srcB (sub_tiles/add_tiles/
    /// mul_tiles); the tensor datapath retires 64 lanes/cycle.
    pub fpu_eltwise: u64,
    /// FPU row/column reduction of one tile.
    pub fpu_reduce: u64,
    /// Unpacker: CB page (L1) → srcA/srcB, 64 elements/cycle.
    pub unpack_tile: u64,
    /// Packer: dst segment → CB page (L1), 64 elements/cycle.
    pub pack_tile: u64,
    /// `copy_tile`: unpack + pass-through + dst write.
    pub copy_tile: u64,
    /// Fixed issue overhead charged once per tile op (instruction dispatch
    /// from the Baby RISC-V).
    pub issue_overhead: u64,
    /// Cost of a CB control primitive when it does not block.
    pub cb_op: u64,
}

impl Default for ComputeCosts {
    fn default() -> Self {
        ComputeCosts {
            sfpu_simple: 32,
            sfpu_transcendental: 128,
            sfpu_mad: 32,
            fpu_matmul: 32,
            fpu_matmul_bf16: 16,
            fpu_eltwise: 16,
            fpu_reduce: 32,
            unpack_tile: 16,
            pack_tile: 16,
            copy_tile: 32,
            issue_overhead: 4,
            cb_op: 8,
        }
    }
}

impl ComputeCosts {
    /// The table for ops on the top `rows` rows of a tile. A 16-row half
    /// tile is faces 0–1, so each per-element pass — SFPU, FPU
    /// element-wise, unpack, pack and copy — costs half; the issue overhead
    /// and CB control are per op and stay whole. Matmul and reduce costs
    /// stay whole too: those ops take whole tiles only.
    ///
    /// # Panics
    /// Panics unless `rows` is 16 or 32.
    #[must_use]
    pub fn for_rows(&self, rows: usize) -> ComputeCosts {
        let part = |cycles: u64| cycles * row_elems(rows) as u64 / TILE_ELEMS as u64;
        ComputeCosts {
            sfpu_simple: part(self.sfpu_simple),
            sfpu_transcendental: part(self.sfpu_transcendental),
            sfpu_mad: part(self.sfpu_mad),
            fpu_eltwise: part(self.fpu_eltwise),
            unpack_tile: part(self.unpack_tile),
            pack_tile: part(self.pack_tile),
            copy_tile: part(self.copy_tile),
            ..*self
        }
    }
}

/// NoC transaction cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocCosts {
    /// Fixed per-transaction latency in cycles (router traversal, command
    /// setup by the data-movement core).
    pub latency: u64,
    /// Payload bytes moved per cycle on one NoC link (64 B wide at 1 GHz
    /// ⇒ 64 GB/s per link).
    pub bytes_per_cycle: u64,
    /// Extra cycles per hop between tiles on the torus.
    pub per_hop: u64,
}

impl Default for NocCosts {
    fn default() -> Self {
        NocCosts { latency: 64, bytes_per_cycle: 64, per_hop: 1 }
    }
}

/// DRAM (GDDR6) cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramCosts {
    /// Aggregate bandwidth in bytes/second: 192-bit bus at 12 GT/s
    /// ⇒ 288 GB/s.
    pub bandwidth_bytes_per_s: f64,
    /// Access latency per transaction in seconds.
    pub latency_s: f64,
}

impl Default for DramCosts {
    fn default() -> Self {
        DramCosts { bandwidth_bytes_per_s: 288.0e9, latency_s: 120.0e-9 }
    }
}

/// Complete device cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostModel {
    /// Compute-pipeline costs.
    pub compute: ComputeCosts,
    /// NoC costs.
    pub noc: NocCosts,
    /// DRAM costs.
    pub dram: DramCosts,
}

impl CostModel {
    /// Convert a cycle count to seconds at the Tensix clock.
    #[must_use]
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / CLOCK_HZ
    }

    /// Cycles to move `bytes` over one NoC link across `hops` routers.
    #[must_use]
    pub fn noc_transfer_cycles(&self, bytes: usize, hops: usize) -> u64 {
        self.noc.latency
            + self.noc.per_hop * hops as u64
            + (bytes as u64).div_ceil(self.noc.bytes_per_cycle)
    }

    /// Seconds for the DRAM subsystem to service `bytes` of streaming
    /// traffic (all channels aggregated).
    #[must_use]
    pub fn dram_stream_seconds(&self, bytes: usize) -> f64 {
        self.dram.latency_s + bytes as f64 / self.dram.bandwidth_bytes_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_sfpu_is_32_lanes_per_cycle() {
        let c = ComputeCosts::default();
        // 1024 elements / 32 lanes = 32 cycles.
        assert_eq!(c.sfpu_simple, 1024 / 32);
        assert!(c.sfpu_transcendental > c.sfpu_simple);
    }

    #[test]
    fn half_tile_halves_per_element_costs_only() {
        let c = ComputeCosts::default();
        assert_eq!(c.for_rows(32), c);
        let h = c.for_rows(16);
        assert_eq!(
            [h.sfpu_simple, h.sfpu_transcendental, h.sfpu_mad, h.fpu_eltwise],
            [16, 64, 16, 8]
        );
        assert_eq!([h.unpack_tile, h.pack_tile, h.copy_tile], [8, 8, 16]);
        assert_eq!([h.issue_overhead, h.cb_op], [c.issue_overhead, c.cb_op]);
        assert_eq!([h.fpu_matmul, h.fpu_matmul_bf16, h.fpu_reduce], [32, 16, 32]);
    }

    #[test]
    fn bf16_matmul_is_double_rate() {
        let c = ComputeCosts::default();
        // 32768 MACs at 2048/clk in 16-bit, half rate in FP32.
        assert_eq!(c.fpu_matmul_bf16, 32_768 / 2048);
        assert_eq!(c.fpu_matmul, 2 * c.fpu_matmul_bf16);
    }

    #[test]
    fn cycles_to_seconds_at_1ghz() {
        let m = CostModel::default();
        assert!((m.cycles_to_seconds(1_000_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noc_transfer_scales_with_bytes_and_hops() {
        let m = CostModel::default();
        let small = m.noc_transfer_cycles(64, 1);
        let big = m.noc_transfer_cycles(4096, 1);
        assert!(big > small);
        assert_eq!(big - small, (4096 - 64) / 64);
        assert_eq!(m.noc_transfer_cycles(64, 5) - small, 4);
    }

    #[test]
    fn dram_bandwidth_matches_gddr6() {
        let m = CostModel::default();
        // 288 GB at 288 GB/s takes ~1 s.
        let t = m.dram_stream_seconds(288_000_000_000);
        assert!((t - 1.0).abs() < 1e-3);
    }
}
