//! Physical memory and the device (MMIO) interface.

use sea_isa::MemSize;
use sea_snapshot::PageStore;

/// Base physical address of the memory-mapped device window.
///
/// Accesses at or above this address bypass the cache hierarchy and are
/// routed to the [`Device`] attached to the system, mirroring the Zynq's
/// uncacheable peripheral region.
pub const DEVICE_BASE: u32 = 0xF000_0000;

/// A memory-mapped peripheral block.
///
/// `sea-platform` implements this for the Zynq-like board (UART, timer,
/// mailbox, watchdog). Offsets are relative to [`DEVICE_BASE`].
pub trait Device {
    /// MMIO read. Device registers are word-oriented; sub-word reads return
    /// the addressed bytes of the containing word.
    fn read(&mut self, offset: u32, size: MemSize) -> u32;

    /// MMIO write.
    fn write(&mut self, offset: u32, size: MemSize, value: u32);

    /// Level-triggered IRQ line, sampled between instructions. `now` is the
    /// current cycle count, which the device uses to advance its own state
    /// (e.g. the timer comparator).
    fn poll_irq(&mut self, now: u64) -> bool;
}

/// A device block with no registers and no interrupts. Useful in unit tests.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct NullDevice;

impl Device for NullDevice {
    fn read(&mut self, _offset: u32, _size: MemSize) -> u32 {
        0
    }

    fn write(&mut self, _offset: u32, _size: MemSize, _value: u32) {}

    fn poll_irq(&mut self, _now: u64) -> bool {
        false
    }
}

/// Physical memory (the board's DDR), stored as copy-on-write 4 KiB pages.
///
/// In the beam model DDR is *outside* the irradiated chip (the LANSCE spot
/// covers only the SoC), so this array is never a fault-injection target —
/// matching §IV-B of the paper.
///
/// The paged backing ([`sea_snapshot::PageStore`]) exists for checkpointing:
/// cloning a restored machine bumps one refcount on the shared page table
/// instead of copying the DDR image, and a run pays for the table (one
/// pointer per page, 128 KiB at 64 MiB) on its first write and for a page
/// when it first writes that page. The access API is unchanged from the
/// flat array it replaced, and all simulator accesses remain aligned
/// (≤ 4 bytes) or line-granular, so the page seams are invisible to the
/// timing model.
#[derive(Clone, Debug, PartialEq)]
pub struct PhysMemory {
    pages: PageStore,
}

impl PhysMemory {
    /// Allocates `size` bytes of zeroed memory (lazily — untouched pages
    /// all share one zero page).
    pub fn new(size: u32) -> PhysMemory {
        PhysMemory {
            pages: PageStore::new(size),
        }
    }

    /// Memory size in bytes.
    pub fn size(&self) -> u32 {
        self.pages.size()
    }

    /// Reads an aligned value of `size` at `paddr`.
    ///
    /// # Panics
    ///
    /// Panics if `paddr` is out of range (physical ranges are validated by
    /// the MMU before reaching memory).
    pub fn read(&self, paddr: u32, size: MemSize) -> u32 {
        match size {
            MemSize::Byte => {
                let mut b = [0u8; 1];
                self.pages.read_bytes(paddr, &mut b);
                b[0] as u32
            }
            MemSize::Half => {
                let mut b = [0u8; 2];
                self.pages.read_bytes(paddr, &mut b);
                u16::from_le_bytes(b) as u32
            }
            MemSize::Word => {
                let mut b = [0u8; 4];
                self.pages.read_bytes(paddr, &mut b);
                u32::from_le_bytes(b)
            }
        }
    }

    /// Writes an aligned value of `size` at `paddr`.
    pub fn write(&mut self, paddr: u32, size: MemSize, value: u32) {
        match size {
            MemSize::Byte => self.pages.write_bytes(paddr, &[value as u8]),
            MemSize::Half => self.pages.write_bytes(paddr, &(value as u16).to_le_bytes()),
            MemSize::Word => self.pages.write_bytes(paddr, &value.to_le_bytes()),
        }
    }

    /// Copies a byte slice into memory (used by the loader).
    pub fn write_bytes(&mut self, paddr: u32, data: &[u8]) {
        self.pages.write_bytes(paddr, data);
    }

    /// Reads a whole cache line.
    pub fn read_line(&self, paddr: u32, buf: &mut [u8]) {
        self.pages.read_bytes(paddr, buf);
    }

    /// Writes a whole cache line.
    pub fn write_line(&mut self, paddr: u32, buf: &[u8]) {
        self.pages.write_bytes(paddr, buf);
    }

    /// Number of pages physically shared (same allocation, the zero page
    /// counting as one) with `other` — the COW diagnostic tests check.
    pub fn shared_pages_with(&self, other: &PhysMemory) -> usize {
        self.pages.shared_pages_with(&other.pages)
    }

    /// Number of pages privately materialized beyond the shared zero page.
    pub fn populated_pages(&self) -> usize {
        self.pages.populated_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_all_sizes() {
        let mut m = PhysMemory::new(64);
        m.write(0, MemSize::Word, 0xA1B2_C3D4);
        assert_eq!(m.read(0, MemSize::Word), 0xA1B2_C3D4);
        assert_eq!(m.read(0, MemSize::Byte), 0xD4); // little endian
        assert_eq!(m.read(2, MemSize::Half), 0xA1B2);
        m.write(1, MemSize::Byte, 0xFF);
        assert_eq!(m.read(0, MemSize::Word), 0xA1B2_FFD4);
    }

    #[test]
    fn line_roundtrip() {
        let mut m = PhysMemory::new(128);
        let line: Vec<u8> = (0..32).collect();
        m.write_line(32, &line);
        let mut back = [0u8; 32];
        m.read_line(32, &mut back);
        assert_eq!(&back[..], &line[..]);
    }

    #[test]
    fn clone_is_cow_and_isolated() {
        let mut a = PhysMemory::new(64 * 1024);
        a.write(0, MemSize::Word, 0x1111_2222);
        let mut b = a.clone();
        assert_eq!(b.shared_pages_with(&a), 16);
        b.write(0, MemSize::Word, 0x9999_8888);
        assert_eq!(a.read(0, MemSize::Word), 0x1111_2222);
        assert_eq!(b.read(0, MemSize::Word), 0x9999_8888);
        assert_eq!(b.shared_pages_with(&a), 15);
    }

    #[test]
    fn snapshot_round_trip() {
        let mut m = PhysMemory::new(64 * 1024);
        m.write(4096, MemSize::Word, 0xCAFE_F00D);
        let t = m.clone();
        assert_eq!(t, m);
        assert_eq!(t.read(4096, MemSize::Word), 0xCAFE_F00D);
        assert_eq!(t.populated_pages(), 1);
    }
}
