//! `PageStore` against a model: a flat `Vec<u8>` per store plus, per page,
//! the identity of the write that last produced it (0 = never written).
//! Random sequences of clones, writes, reads and drops must agree with the
//! model on every read, on `eq`, on `shared_pages_with` (two slots share a
//! page exactly when they carry the same identity, the zero page being
//! identity 0) and on `populated_pages`.

use proptest::prelude::*;
use sea_snapshot::{PageStore, PAGE_BYTES};

/// One store and its model.
#[derive(Clone)]
struct Modeled {
    store: PageStore,
    bytes: Vec<u8>,
    pages: Vec<u64>,
}

impl Modeled {
    fn new(size: u32) -> Modeled {
        Modeled {
            store: PageStore::new(size),
            bytes: vec![0; size as usize],
            pages: vec![0; (size as usize).div_ceil(PAGE_BYTES)],
        }
    }
}

/// Check every observable of `stores[a]` (and of the pair `a`, `b`)
/// against the model.
fn check(stores: &[Modeled], a: usize, b: usize) {
    let (x, y) = (&stores[a], &stores[b]);
    assert_eq!(x.store.size() as usize, x.bytes.len());
    let mut all = vec![0u8; x.bytes.len()];
    x.store.read_bytes(0, &mut all);
    assert_eq!(all, x.bytes, "store {a} reads differ from its model");
    assert_eq!(
        x.store.populated_pages(),
        x.pages.iter().filter(|&&id| id != 0).count()
    );
    if x.bytes.len() == y.bytes.len() {
        assert_eq!(x.store == y.store, x.bytes == y.bytes, "eq of {a} and {b}");
        let shared = x.pages.iter().zip(&y.pages).filter(|(p, q)| p == q).count();
        assert_eq!(x.store.shared_pages_with(&y.store), shared, "{a} vs {b}");
    }
}

/// `(op, store, other store, address, data)`; `op` picks clone, write,
/// rewrite (the bytes already there, so equal stores stop sharing pages),
/// read-and-compare, drop, or a fresh store of the same size.
type Op = (
    u8,
    prop::sample::Index,
    prop::sample::Index,
    prop::sample::Index,
    Vec<u8>,
);

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..7,
        any::<prop::sample::Index>(),
        any::<prop::sample::Index>(),
        any::<prop::sample::Index>(),
        prop_oneof![
            prop::collection::vec(any::<u8>(), 1..64),
            prop::collection::vec(any::<u8>(), 1..64),
            prop::collection::vec(any::<u8>(), 1..2 * PAGE_BYTES + 8),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn page_store_agrees_with_a_flat_model(
        // A few pages, or a hundred or so.
        pages in prop_oneof![1usize..6, 60usize..140],
        tail in 0usize..PAGE_BYTES,
        ops in prop::collection::vec(op(), 1..48),
    ) {
        // Sizes that end mid-page as well as on a boundary.
        let size = ((pages - 1) * PAGE_BYTES + tail.max(1)) as u32;
        let mut stores = vec![Modeled::new(size)];
        let mut next_id = 1u64;
        for (kind, a, b, at, data) in ops {
            let k = a.index(stores.len());
            match kind {
                // Clone twice as often as anything else.
                0 | 1 => stores.push(stores[k].clone()),
                2 | 3 => {
                    let len = data.len().min(size as usize);
                    let addr = at.index(size as usize - len + 1);
                    let s = &mut stores[k];
                    let data = if kind == 3 {
                        s.bytes[addr..addr + len].to_vec()
                    } else {
                        data
                    };
                    s.store.write_bytes(addr as u32, &data[..len]);
                    s.bytes[addr..addr + len].copy_from_slice(&data[..len]);
                    for p in addr / PAGE_BYTES..=(addr + len - 1) / PAGE_BYTES {
                        s.pages[p] = next_id;
                        next_id += 1;
                    }
                }
                4 => {
                    let len = data.len().min(size as usize);
                    let addr = at.index(size as usize - len + 1);
                    let mut out = vec![0xA5; len];
                    stores[k].store.read_bytes(addr as u32, &mut out);
                    prop_assert_eq!(&out[..], &stores[k].bytes[addr..addr + len]);
                }
                5 if stores.len() > 1 => {
                    stores.swap_remove(k);
                }
                _ => stores.push(Modeled::new(size)),
            }
            let k = k.min(stores.len() - 1);
            check(&stores, k, b.index(stores.len()));
        }
    }
}
