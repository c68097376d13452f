//! Physical memory as copy-on-write 4 KiB pages behind a shared page table.
//!
//! The simulator's DDR is by far the largest piece of checkpointed state
//! (64 MiB under the default configuration, dwarfing the ~100 KiB of
//! caches/TLBs/registers). Campaigns restore the same golden image
//! thousands of times, so the store shares at two levels:
//!
//! * **Clone is O(1)** — the page table is itself behind an `Arc`, so
//!   `PageStore::clone` bumps one refcount whatever the memory size, and
//!   dropping a clone that never wrote drops one. (The table held one
//!   refcounted pointer per page before, almost all of them on one shared
//!   zero page: cloning a 64 MiB machine cost 157–186 µs on a 2-vCPU
//!   host. A machine clone is 5–8 µs now, most of it the caches.)
//! * **Writes privatize lazily** — the first write after a clone copies
//!   the table (one pointer per page, no page data) and then the written
//!   page only (`Arc::make_mut` on each); untouched pages stay shared for
//!   the run's whole lifetime. Two diverging clones never alias each
//!   other's writes.
//! * **Zero pages are free** — a table slot of `None` reads as the one
//!   static zero page, so a store materializes only pages that ever held
//!   data.

use std::sync::Arc;

/// Copy-on-write granularity, in bytes.
pub const PAGE_BYTES: usize = 4096;

/// One page of physical memory. Kept as a concrete sized type so
/// `Arc::make_mut` can clone it on first write.
#[derive(Clone)]
struct Page([u8; PAGE_BYTES]);

/// What every `None` slot reads as.
static ZERO_PAGE: Page = Page([0; PAGE_BYTES]);

/// A copy-on-write paged byte store with a flat `u32` address space.
///
/// Out-of-range accesses panic, matching the contract of the flat byte
/// array it replaces: physical ranges are validated by the MMU before
/// reaching memory, so an OOB address here is a simulator bug.
#[derive(Clone)]
pub struct PageStore {
    /// One slot per page; `None` is the all-zero page. Shared by clones
    /// until one of them writes.
    pages: Arc<Vec<Option<Arc<Page>>>>,
    size: u32,
}

impl PageStore {
    /// Allocates `size` addressable bytes, all zero. No page is
    /// materialized, whatever `size` is; the table costs one pointer per
    /// page.
    pub fn new(size: u32) -> PageStore {
        let n = (size as usize).div_ceil(PAGE_BYTES);
        PageStore {
            pages: Arc::new(vec![None; n]),
            size,
        }
    }

    /// Addressable bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    #[inline]
    fn check(&self, addr: u32, len: usize) {
        assert!(
            (addr as usize) + len <= self.size as usize,
            "physical access out of range: {addr:#010x}+{len} > {:#010x}",
            self.size
        );
    }

    #[inline]
    fn page(&self, index: usize) -> &Page {
        self.pages[index].as_deref().unwrap_or(&ZERO_PAGE)
    }

    /// Copy `out.len()` bytes starting at `addr` into `out`.
    #[inline]
    pub fn read_bytes(&self, addr: u32, out: &mut [u8]) {
        self.check(addr, out.len());
        let mut off = addr as usize;
        let mut done = 0;
        while done < out.len() {
            let page = off / PAGE_BYTES;
            let in_page = off % PAGE_BYTES;
            let n = (PAGE_BYTES - in_page).min(out.len() - done);
            out[done..done + n].copy_from_slice(&self.page(page).0[in_page..in_page + n]);
            off += n;
            done += n;
        }
    }

    /// Copy `data` into the store starting at `addr`, privatizing the
    /// table and each touched page.
    #[inline]
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        self.check(addr, data.len());
        if data.is_empty() {
            return;
        }
        let table = Arc::make_mut(&mut self.pages);
        let mut off = addr as usize;
        let mut done = 0;
        while done < data.len() {
            let page = off / PAGE_BYTES;
            let in_page = off % PAGE_BYTES;
            let n = (PAGE_BYTES - in_page).min(data.len() - done);
            let slot = table[page].get_or_insert_with(|| Arc::new(ZERO_PAGE.clone()));
            Arc::make_mut(slot).0[in_page..in_page + n].copy_from_slice(&data[done..done + n]);
            off += n;
            done += n;
        }
    }

    /// Number of page slots backed by the same page as `other`'s, the
    /// zero page counting as one page. Diagnostic for COW-isolation tests.
    pub fn shared_pages_with(&self, other: &PageStore) -> usize {
        if Arc::ptr_eq(&self.pages, &other.pages) {
            return self.pages.len();
        }
        self.pages
            .iter()
            .zip(other.pages.iter())
            .filter(|(a, b)| match (a, b) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            })
            .count()
    }

    /// Number of pages backed by their own allocation — the store's
    /// resident footprint beyond the zero page.
    pub fn populated_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Total page slots.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

impl PartialEq for PageStore {
    fn eq(&self, other: &PageStore) -> bool {
        if self.size != other.size {
            return false;
        }
        if Arc::ptr_eq(&self.pages, &other.pages) {
            return true;
        }
        self.pages
            .iter()
            .zip(other.pages.iter())
            .all(|(a, b)| match (a, b) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a.0 == b.0,
                (Some(p), None) | (None, Some(p)) => p.0 == ZERO_PAGE.0,
            })
    }
}

impl std::fmt::Debug for PageStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageStore")
            .field("size", &self.size)
            .field("pages", &self.pages.len())
            .field("populated", &self.populated_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_store_is_zero_and_unmaterialized() {
        let s = PageStore::new(64 * 1024);
        assert_eq!(s.size(), 64 * 1024);
        assert_eq!(s.page_count(), 16);
        assert_eq!(s.populated_pages(), 0);
        let mut buf = [0xFFu8; 8];
        s.read_bytes(60 * 1024, &mut buf);
        assert_eq!(buf, [0; 8]);
    }

    #[test]
    fn rw_across_page_boundary() {
        let mut s = PageStore::new(3 * PAGE_BYTES as u32);
        let data: Vec<u8> = (0..600).map(|i| (i % 251) as u8).collect();
        let addr = PAGE_BYTES as u32 - 100; // straddles pages 0 and 1
        s.write_bytes(addr, &data);
        let mut back = vec![0u8; data.len()];
        s.read_bytes(addr, &mut back);
        assert_eq!(back, data);
        assert_eq!(s.populated_pages(), 2);
    }

    #[test]
    fn clone_shares_until_write() {
        let mut a = PageStore::new(4 * PAGE_BYTES as u32);
        a.write_bytes(0, &[1, 2, 3]);
        let mut b = a.clone();
        assert_eq!(b.shared_pages_with(&a), 4);
        b.write_bytes(0, &[9]);
        // b privatized page 0; a is untouched.
        assert_eq!(b.shared_pages_with(&a), 3);
        let mut av = [0u8; 3];
        let mut bv = [0u8; 3];
        a.read_bytes(0, &mut av);
        b.read_bytes(0, &mut bv);
        assert_eq!(av, [1, 2, 3]);
        assert_eq!(bv, [9, 2, 3]);
    }

    #[test]
    fn divergent_clones_never_alias() {
        let base = PageStore::new(2 * PAGE_BYTES as u32);
        let mut x = base.clone();
        let mut y = base.clone();
        x.write_bytes(100, b"xx");
        y.write_bytes(100, b"yy");
        let mut xv = [0u8; 2];
        let mut yv = [0u8; 2];
        let mut bv = [0u8; 2];
        x.read_bytes(100, &mut xv);
        y.read_bytes(100, &mut yv);
        base.read_bytes(100, &mut bv);
        assert_eq!(&xv, b"xx");
        assert_eq!(&yv, b"yy");
        assert_eq!(bv, [0u8; 2]);
    }

    #[test]
    fn sparse_snapshot_round_trip() {
        let mut s = PageStore::new(8 * PAGE_BYTES as u32);
        s.write_bytes(3 * PAGE_BYTES as u32 + 7, b"deep");
        s.write_bytes(0, b"front");
        // A snapshot holds only the two written pages, shared with the
        // store it was taken from, and reads back what was written.
        let t = s.clone();
        assert_eq!(t.populated_pages(), 2);
        assert_eq!(t.shared_pages_with(&s), 8);
        assert!(t == s);
        let mut v = [0u8; 4];
        t.read_bytes(3 * PAGE_BYTES as u32 + 7, &mut v);
        assert_eq!(&v, b"deep");
    }

    #[test]
    #[should_panic(expected = "physical access out of range")]
    fn oob_access_panics() {
        let s = PageStore::new(16);
        let mut buf = [0u8; 4];
        s.read_bytes(14, &mut buf);
    }
}
