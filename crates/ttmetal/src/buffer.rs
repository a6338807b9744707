//! Host-visible device buffers.
//!
//! Mirrors TT-Metalium's `Buffer` with the default *interleaved* layout:
//! a buffer is a sequence of tile-sized pages spread round-robin across the
//! DRAM banks. The host creates buffers, transfers tilized tensors in and
//! out through the command queue, and hands lightweight [`BufferRef`]s to
//! kernels (the hardware equivalent is passing the buffer base address as a
//! runtime argument).

use std::sync::Arc;

use tensix::dram::BufferId;
use tensix::{DataFormat, Device, DramRequester, Result, Tile};

/// A copyable, kernel-side reference to a DRAM buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferRef {
    /// DRAM allocation id (stands in for the base address).
    pub id: BufferId,
    /// Page format.
    pub format: DataFormat,
    /// Number of tile pages.
    pub num_tiles: usize,
}

/// An owned DRAM buffer; freed on drop.
#[derive(Debug)]
pub struct Buffer {
    device: Arc<Device>,
    reference: BufferRef,
}

impl Buffer {
    /// Allocate an interleaved DRAM buffer of `num_tiles` pages.
    ///
    /// # Errors
    /// Propagates DRAM out-of-memory.
    pub fn new(device: &Arc<Device>, format: DataFormat, num_tiles: usize) -> Result<Self> {
        let id = device.dram().allocate(format, num_tiles)?;
        Ok(Buffer { device: Arc::clone(device), reference: BufferRef { id, format, num_tiles } })
    }

    /// Kernel-side reference.
    #[must_use]
    pub fn reference(&self) -> BufferRef {
        self.reference
    }

    /// Page format.
    #[must_use]
    pub fn format(&self) -> DataFormat {
        self.reference.format
    }

    /// Number of tile pages.
    #[must_use]
    pub fn num_tiles(&self) -> usize {
        self.reference.num_tiles
    }

    /// Total packed size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.reference.num_tiles * self.reference.format.tile_bytes()
    }

    /// Direct host read of one page (bypassing the command queue; used by
    /// tests and debug tooling, not by the simulation pipeline).
    ///
    /// # Errors
    /// Out-of-range page.
    pub fn debug_read_tile(&self, page: usize) -> Result<Tile> {
        self.device.dram().read_tile(DramRequester::Host, self.reference.id, page)
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        self.device.dram().free(self.reference.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensix::DeviceConfig;

    #[test]
    fn buffer_allocates_and_frees_on_drop() {
        let dev = Device::new(0, DeviceConfig::default());
        let before = dev.dram().allocated_bytes();
        {
            let buf = Buffer::new(&dev, DataFormat::Float32, 10).unwrap();
            assert_eq!(buf.size_bytes(), 10 * 4096);
            assert_eq!(dev.dram().allocated_bytes(), before + 10 * 4096);
            assert_eq!(buf.num_tiles(), 10);
        }
        assert_eq!(dev.dram().allocated_bytes(), before);
    }

    #[test]
    fn reference_is_copyable_into_kernels() {
        let dev = Device::new(0, DeviceConfig::default());
        let buf = Buffer::new(&dev, DataFormat::Float16b, 3).unwrap();
        let r = buf.reference();
        let r2 = r; // Copy
        assert_eq!(r2.num_tiles, 3);
        assert_eq!(r2.format, DataFormat::Float16b);
    }

    #[test]
    fn debug_read_roundtrip() {
        let dev = Device::new(0, DeviceConfig::default());
        let buf = Buffer::new(&dev, DataFormat::Float32, 2).unwrap();
        dev.dram()
            .write_tile(
                DramRequester::Host,
                buf.reference().id,
                1,
                &Tile::splat(DataFormat::Float32, 4.5),
            )
            .unwrap();
        assert_eq!(buf.debug_read_tile(1).unwrap().get(0, 0), 4.5);
        assert!(buf.debug_read_tile(2).is_err());
    }
}
