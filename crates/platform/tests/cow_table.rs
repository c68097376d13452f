//! DRAM clones are O(1): cloning a 64 MiB page store, or the physical
//! memory of a booted machine, allocates nothing and bumps one refcount on
//! the shared page table, and dropping a clone that never wrote frees
//! nothing. A clone's first write pays for one table copy (a pointer per
//! page) and one page, however many pages the machine has populated.
//! Heap use is measured with a counting global allocator, per thread.

use counting_alloc::net_of;
use sea_isa::{Asm, MemSize};
use sea_kernel::{user, KernelConfig};
use sea_microarch::{MachineConfig, PhysMemory};
use sea_platform::boot;
use sea_snapshot::{PageStore, PAGE_BYTES};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

const DRAM: u32 = 64 << 20;

/// Bytes a clone's first write may allocate: the table copy, one page,
/// and the two reference-count headers.
fn first_write_bound(page_count: usize) -> std::ops::RangeInclusive<isize> {
    let table = (page_count * std::mem::size_of::<usize>()) as isize;
    table..=table + PAGE_BYTES as isize + 128
}

fn booted_dram() -> PhysMemory {
    let mut a = Asm::new();
    let main = a.label("main");
    a.bind(main).unwrap();
    user::alive(&mut a);
    user::exit_with(&mut a, 0);
    let img = a.finish(main).unwrap();
    let (sys, _) = boot(
        MachineConfig::cortex_a9_scaled(),
        &img,
        &KernelConfig::default(),
    )
    .unwrap();
    sys.mem.phys
}

#[test]
fn cloning_a_64_mib_store_allocates_nothing() {
    let mut store = PageStore::new(DRAM);
    store.write_bytes(0, b"populated");
    let (clone, grew) = net_of(|| store.clone());
    assert_eq!(grew, 0, "clone allocated");
    assert_eq!(clone.shared_pages_with(&store), store.page_count());
    let ((), freed) = net_of(|| drop(clone));
    assert_eq!(freed, 0, "dropping an unwritten clone freed page memory");
}

#[test]
fn a_booted_machines_dram_clones_in_constant_space() {
    let dram = booted_dram();
    let pages = (DRAM as usize) / PAGE_BYTES;
    assert!(dram.populated_pages() > 0, "the loader wrote nothing");

    let (mut copy, grew) = net_of(|| dram.clone());
    assert_eq!(grew, 0, "clone allocated");
    assert_eq!(copy.shared_pages_with(&dram), pages);

    // The first write copies the table and one page — not the populated
    // pages, which stay shared.
    let top = DRAM - 4;
    let ((), grew) = net_of(|| copy.write(top, MemSize::Word, 0xDEAD_BEEF));
    assert!(first_write_bound(pages).contains(&grew), "{grew} bytes");
    assert_eq!(copy.shared_pages_with(&dram), pages - 1);
    assert_eq!(copy.populated_pages(), dram.populated_pages() + 1);
    assert_eq!(
        dram.read(top, MemSize::Word),
        0,
        "the original saw the write"
    );

    // Later writes to that page allocate nothing more.
    let ((), grew) = net_of(|| copy.write(top - 4, MemSize::Word, 1));
    assert_eq!(grew, 0);

    // Dropping the written clone frees exactly its table and its page.
    let written = first_write_bound(pages);
    let ((), freed) = net_of(|| drop(copy));
    assert!(written.contains(&-freed), "{freed} bytes");

    // A clone that never wrote frees nothing when it goes.
    let idle = dram.clone();
    let ((), freed) = net_of(|| drop(idle));
    assert_eq!(freed, 0);
}
