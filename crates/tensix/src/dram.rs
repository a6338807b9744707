//! Off-chip GDDR6 DRAM model.
//!
//! The Wormhole n300 attaches 12 GB of GDDR6 through a 192-bit bus split into
//! six channels. TT-Metalium's default buffer layout is *interleaved*: a
//! buffer is a sequence of pages (one tile per page for tilized tensors) and
//! page `i` lives in bank `i mod num_banks`, spreading bandwidth across all
//! channels. The model is functional (tiles stored losslessly in their
//! format) plus accounting (bytes per channel, total transactions) feeding
//! the timing model.

use std::collections::HashMap;

use parking_lot::RwLock;

use crate::dtype::DataFormat;
use crate::error::{Result, TensixError};
use crate::grid::CoreCoord;
use crate::tile::Tile;

/// Number of GDDR6 channels on a Wormhole.
pub const DRAM_CHANNELS: usize = 6;
/// DRAM capacity in bytes (12 GB).
pub const DRAM_CAPACITY: u64 = 12 * 1024 * 1024 * 1024;

/// Identifier of an allocated DRAM buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub u64);

/// The stream a DRAM transaction belongs to: a core's NoC traffic, or the
/// host's PCIe transfers. Bank conflicts are counted within each stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramRequester {
    /// Host reads and writes over PCIe.
    Host,
    /// The kernels of one Tensix core.
    Core(CoreCoord),
}

/// Per-channel and aggregate traffic statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Bytes read per channel.
    pub read_bytes: [u64; DRAM_CHANNELS],
    /// Bytes written per channel.
    pub write_bytes: [u64; DRAM_CHANNELS],
    /// Total read/write transactions.
    pub transactions: u64,
    /// Transactions that hit the same channel as their requester's
    /// previous transaction. Interleaved layouts keep this near zero; a
    /// high count signals pathological page striding (bank camping).
    /// Counting per requester keeps it a property of each core's access
    /// pattern, whatever order the host runs the cores in.
    pub bank_conflicts: u64,
}

impl DramStats {
    /// Total bytes moved in either direction.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes.iter().sum::<u64>() + self.write_bytes.iter().sum::<u64>()
    }
}

/// Pages are stored sparsely: a 12 GB buffer costs host memory only for the
/// pages actually written (unwritten pages read back as zeros, like freshly
/// allocated GDDR6 after the memory controller scrubs it).
#[derive(Debug)]
struct DramBuffer {
    format: DataFormat,
    num_tiles: usize,
    pages: HashMap<usize, Tile>,
}

#[derive(Debug, Default)]
struct DramState {
    buffers: HashMap<BufferId, DramBuffer>,
    next_id: u64,
    allocated_bytes: u64,
    stats: DramStats,
    /// Channel of each requester's most recent transaction, for conflict
    /// detection.
    last_channel: HashMap<DramRequester, usize>,
}

impl DramState {
    fn account(&mut self, from: DramRequester, channel: usize) {
        self.stats.transactions += 1;
        if self.last_channel.insert(from, channel) == Some(channel) {
            self.stats.bank_conflicts += 1;
        }
    }
}

/// The DRAM subsystem of one device. Thread-safe; kernels on any core access
/// it through NoC transactions.
#[derive(Debug, Default)]
pub struct DramModel {
    state: RwLock<DramState>,
}

impl DramModel {
    /// Fresh, empty DRAM.
    #[must_use]
    pub fn new() -> Self {
        DramModel::default()
    }

    /// Allocate an interleaved buffer of `num_tiles` pages in `format`.
    ///
    /// # Errors
    /// [`TensixError::DramOutOfMemory`] when the 12 GB capacity is exceeded.
    pub fn allocate(&self, format: DataFormat, num_tiles: usize) -> Result<BufferId> {
        let bytes = (num_tiles * format.tile_bytes()) as u64;
        let mut st = self.state.write();
        if st.allocated_bytes + bytes > DRAM_CAPACITY {
            return Err(TensixError::DramOutOfMemory {
                requested: bytes as usize,
                available: (DRAM_CAPACITY - st.allocated_bytes) as usize,
            });
        }
        st.allocated_bytes += bytes;
        let id = BufferId(st.next_id);
        st.next_id += 1;
        st.buffers.insert(id, DramBuffer { format, num_tiles, pages: HashMap::new() });
        Ok(id)
    }

    /// Free a buffer. Freeing an unknown id is ignored (TT-Metalium buffers
    /// deallocate on drop and double-frees are benign there too).
    pub fn free(&self, id: BufferId) {
        let mut st = self.state.write();
        if let Some(buf) = st.buffers.remove(&id) {
            st.allocated_bytes -= (buf.num_tiles * buf.format.tile_bytes()) as u64;
        }
    }

    /// The DRAM channel (bank) holding page `page` of an interleaved buffer.
    #[must_use]
    pub fn channel_of_page(page: usize) -> usize {
        page % DRAM_CHANNELS
    }

    /// Read page (tile) `page` of buffer `id` for `from`, accounting the
    /// traffic.
    ///
    /// # Errors
    /// [`TensixError::InvalidAddress`] for unknown buffers or out-of-range
    /// pages.
    pub fn read_tile(&self, from: DramRequester, id: BufferId, page: usize) -> Result<Tile> {
        let mut st = self.state.write();
        let buf = st.buffers.get(&id).ok_or(TensixError::InvalidAddress {
            addr: id.0,
            context: "DRAM read from unallocated buffer",
        })?;
        if page >= buf.num_tiles {
            return Err(TensixError::InvalidAddress {
                addr: page as u64,
                context: "DRAM read past end of buffer",
            });
        }
        let tile = buf.pages.get(&page).cloned().unwrap_or_else(|| Tile::zeros(buf.format));
        let bytes = buf.format.tile_bytes() as u64;
        let channel = Self::channel_of_page(page);
        st.stats.read_bytes[channel] += bytes;
        st.account(from, channel);
        Ok(tile)
    }

    /// Host read of a contiguous range of pages starting at page 0 under
    /// one lock acquisition, accounting each page exactly as
    /// [`DramModel::read_tile`] from [`DramRequester::Host`] would (same
    /// per-page byte/transaction/bank-conflict sequence).
    ///
    /// # Errors
    /// [`TensixError::InvalidAddress`] for unknown buffers or if `count`
    /// exceeds the buffer length.
    pub fn read_tiles(&self, id: BufferId, count: usize) -> Result<Vec<Tile>> {
        let mut st = self.state.write();
        let buf = st.buffers.get(&id).ok_or(TensixError::InvalidAddress {
            addr: id.0,
            context: "DRAM read from unallocated buffer",
        })?;
        if count > buf.num_tiles {
            return Err(TensixError::InvalidAddress {
                addr: count as u64,
                context: "DRAM read past end of buffer",
            });
        }
        let format = buf.format;
        let bytes = format.tile_bytes() as u64;
        let mut tiles = Vec::with_capacity(count);
        for page in 0..count {
            tiles.push(
                st.buffers[&id].pages.get(&page).cloned().unwrap_or_else(|| Tile::zeros(format)),
            );
            let channel = Self::channel_of_page(page);
            st.stats.read_bytes[channel] += bytes;
            st.account(DramRequester::Host, channel);
        }
        Ok(tiles)
    }

    /// Host write of `tiles` to consecutive pages starting at page 0 under
    /// one lock acquisition, quantizing to the buffer's format and
    /// accounting each page exactly as [`DramModel::write_tile`] from
    /// [`DramRequester::Host`] would.
    ///
    /// # Errors
    /// [`TensixError::InvalidAddress`] for unknown buffers or if the tile
    /// count exceeds the buffer length.
    pub fn write_tiles(&self, id: BufferId, tiles: &[Tile]) -> Result<()> {
        let mut st = self.state.write();
        let buf = st.buffers.get_mut(&id).ok_or(TensixError::InvalidAddress {
            addr: id.0,
            context: "DRAM write to unallocated buffer",
        })?;
        let format = buf.format;
        if tiles.len() > buf.num_tiles {
            return Err(TensixError::InvalidAddress {
                addr: tiles.len() as u64,
                context: "DRAM write past end of buffer",
            });
        }
        let bytes = format.tile_bytes() as u64;
        for (page, tile) in tiles.iter().enumerate() {
            let stored = if tile.format() == format { tile.clone() } else { tile.convert(format) };
            st.buffers.get_mut(&id).expect("checked above").pages.insert(page, stored);
            let channel = Self::channel_of_page(page);
            st.stats.write_bytes[channel] += bytes;
            st.account(DramRequester::Host, channel);
        }
        Ok(())
    }

    /// Write page (tile) `page` of buffer `id` for `from`, quantizing to
    /// the buffer's format and accounting the traffic.
    ///
    /// # Errors
    /// [`TensixError::InvalidAddress`] for unknown buffers or out-of-range
    /// pages.
    pub fn write_tile(
        &self,
        from: DramRequester,
        id: BufferId,
        page: usize,
        tile: &Tile,
    ) -> Result<()> {
        let mut st = self.state.write();
        let buf = st.buffers.get_mut(&id).ok_or(TensixError::InvalidAddress {
            addr: id.0,
            context: "DRAM write to unallocated buffer",
        })?;
        let format = buf.format;
        if page >= buf.num_tiles {
            return Err(TensixError::InvalidAddress {
                addr: page as u64,
                context: "DRAM write past end of buffer",
            });
        }
        let stored = if tile.format() == format { tile.clone() } else { tile.convert(format) };
        buf.pages.insert(page, stored);
        let bytes = format.tile_bytes() as u64;
        let channel = Self::channel_of_page(page);
        st.stats.write_bytes[channel] += bytes;
        st.account(from, channel);
        Ok(())
    }

    /// Number of pages in a buffer.
    ///
    /// # Errors
    /// Unknown buffer id.
    pub fn buffer_len(&self, id: BufferId) -> Result<usize> {
        let st = self.state.read();
        st.buffers.get(&id).map(|b| b.num_tiles).ok_or(TensixError::InvalidAddress {
            addr: id.0,
            context: "buffer_len of unknown buffer",
        })
    }

    /// Bytes currently allocated.
    #[must_use]
    pub fn allocated_bytes(&self) -> u64 {
        self.state.read().allocated_bytes
    }

    /// Traffic statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> DramStats {
        self.state.read().stats.clone()
    }

    /// Reset traffic statistics (between experiment phases).
    pub fn reset_stats(&self) {
        let mut st = self.state.write();
        st.stats = DramStats::default();
        st.last_channel.clear();
    }

    /// Drop every buffer (device reset).
    pub fn clear(&self) {
        let mut st = self.state.write();
        st.buffers.clear();
        st.allocated_bytes = 0;
        st.stats = DramStats::default();
        st.last_channel.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DramRequester::Host;

    #[test]
    fn allocate_read_write_roundtrip() {
        let dram = DramModel::new();
        let id = dram.allocate(DataFormat::Float32, 4).unwrap();
        let t = Tile::splat(DataFormat::Float32, 2.5);
        dram.write_tile(Host, id, 2, &t).unwrap();
        assert_eq!(dram.read_tile(Host, id, 2).unwrap().get(0, 0), 2.5);
        assert_eq!(dram.read_tile(Host, id, 0).unwrap().get(0, 0), 0.0);
        assert_eq!(dram.buffer_len(id).unwrap(), 4);
    }

    #[test]
    fn interleaving_round_robins_channels() {
        assert_eq!(DramModel::channel_of_page(0), 0);
        assert_eq!(DramModel::channel_of_page(5), 5);
        assert_eq!(DramModel::channel_of_page(6), 0);
        assert_eq!(DramModel::channel_of_page(13), 1);
    }

    #[test]
    fn stats_account_per_channel() {
        let dram = DramModel::new();
        let id = dram.allocate(DataFormat::Float32, 12).unwrap();
        let t = Tile::zeros(DataFormat::Float32);
        for p in 0..12 {
            dram.write_tile(Host, id, p, &t).unwrap();
        }
        let stats = dram.stats();
        // 12 pages over 6 channels: 2 tiles (8192 B) each.
        assert!(stats.write_bytes.iter().all(|b| *b == 2 * 4096));
        assert_eq!(stats.transactions, 12);
        dram.read_tile(Host, id, 0).unwrap();
        assert_eq!(dram.stats().read_bytes[0], 4096);
        dram.reset_stats();
        assert_eq!(dram.stats().total_bytes(), 0);
    }

    #[test]
    fn bank_conflicts_count_repeated_channel_hits() {
        let dram = DramModel::new();
        let id = dram.allocate(DataFormat::Float32, 18).unwrap();
        let t = Tile::zeros(DataFormat::Float32);
        // Sequential pages round-robin the channels: no conflicts.
        for p in 0..12 {
            dram.write_tile(Host, id, p, &t).unwrap();
        }
        assert_eq!(dram.stats().bank_conflicts, 0);
        // Stride-6 pages camp on channel 0: every access after the first
        // conflicts with its predecessor.
        for p in [0, 6, 12] {
            dram.read_tile(Host, id, p).unwrap();
        }
        assert_eq!(dram.stats().bank_conflicts, 2);
        dram.reset_stats();
        assert_eq!(dram.stats().bank_conflicts, 0);
    }

    #[test]
    fn bank_conflicts_are_counted_within_each_requester() {
        let dram = DramModel::new();
        let id = dram.allocate(DataFormat::Float32, 12).unwrap();
        let (a, b) = (CoreCoord::new(0, 0), CoreCoord::new(1, 0));
        // Two cores each stream channels 0, 1, 2: interleaved back to back
        // on the device, but neither core repeats a channel.
        for p in 0..3 {
            dram.read_tile(DramRequester::Core(a), id, p).unwrap();
            dram.read_tile(DramRequester::Core(b), id, p + 6).unwrap();
        }
        assert_eq!(dram.stats().bank_conflicts, 0);
        // The host's transfers are a stream of their own.
        dram.read_tile(Host, id, 2).unwrap();
        assert_eq!(dram.stats().bank_conflicts, 0);
        dram.read_tile(DramRequester::Core(b), id, 2).unwrap();
        assert_eq!(dram.stats().bank_conflicts, 1, "core b hit channel 2 twice in a row");
    }

    #[test]
    fn capacity_enforced() {
        let dram = DramModel::new();
        // 12 GB / 4 KiB per FP32 tile = 3 145 728 tiles.
        let max_tiles = (DRAM_CAPACITY / 4096) as usize;
        let id = dram.allocate(DataFormat::Float32, max_tiles - 1).unwrap();
        assert!(dram.allocate(DataFormat::Float32, 2).is_err());
        dram.free(id);
        assert!(dram.allocate(DataFormat::Float32, 2).is_ok());
    }

    #[test]
    fn out_of_range_access_errors() {
        let dram = DramModel::new();
        let id = dram.allocate(DataFormat::Float32, 1).unwrap();
        assert!(dram.read_tile(Host, id, 1).is_err());
        assert!(dram.write_tile(Host, id, 9, &Tile::zeros(DataFormat::Float32)).is_err());
        assert!(dram.read_tile(Host, BufferId(999), 0).is_err());
    }

    #[test]
    fn buffer_format_quantizes_on_write() {
        let dram = DramModel::new();
        let id = dram.allocate(DataFormat::Float16b, 1).unwrap();
        let t = Tile::splat(DataFormat::Float32, 1.0 + 1.0 / 1024.0);
        dram.write_tile(Host, id, 0, &t).unwrap();
        assert_eq!(dram.read_tile(Host, id, 0).unwrap().get(0, 0), 1.0);
    }

    #[test]
    fn clear_resets_everything() {
        let dram = DramModel::new();
        let id = dram.allocate(DataFormat::Float32, 8).unwrap();
        dram.write_tile(Host, id, 0, &Tile::zeros(DataFormat::Float32)).unwrap();
        dram.clear();
        assert_eq!(dram.allocated_bytes(), 0);
        assert!(dram.read_tile(Host, id, 0).is_err());
    }
}
