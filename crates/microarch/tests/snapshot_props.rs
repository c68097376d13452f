//! Property tests for checkpoint/restore: under any operation mix,
//! capturing a component (a clone), mutating the original further, and
//! restoring from the capture (another clone) must reproduce the component
//! exactly as it was at capture time — observably (identical subsequent
//! behavior) and in every cell a later run can read (`converges_with`).

use proptest::prelude::*;
use sea_isa::MemSize;
use sea_microarch::{Counters, MachineConfig, MemSystem, RegFile, Tlb, TlbEntry};

#[derive(Clone, Debug)]
enum Op {
    Write { addr: u32, value: u32 },
    Read { addr: u32 },
    Fetch { addr: u32 },
    Flush,
}

fn any_op(mem_bytes: u32) -> impl Strategy<Value = Op> {
    let addr = 0u32..(mem_bytes - 4);
    prop_oneof![
        (addr.clone(), any::<u32>()).prop_map(|(a, v)| Op::Write {
            addr: a & !3,
            value: v
        }),
        addr.clone().prop_map(|a| Op::Read { addr: a & !3 }),
        addr.prop_map(|a| Op::Fetch { addr: a & !3 }),
        Just(Op::Flush),
    ]
}

fn tiny_machine() -> MachineConfig {
    let mut cfg = MachineConfig::cortex_a9_scaled();
    cfg.l1i.size_bytes = 512;
    cfg.l1i.ways = 2;
    cfg.l1d.size_bytes = 512;
    cfg.l1d.ways = 2;
    cfg.l2.size_bytes = 2048;
    cfg.l2.ways = 2;
    cfg.mem_bytes = 64 * 1024;
    cfg
}

fn apply(sys: &mut MemSystem, ctr: &mut Counters, ops: &[Op]) -> Vec<u32> {
    let mut observed = Vec::new();
    for op in ops {
        match *op {
            Op::Write { addr, value } => {
                sys.write_data(addr, MemSize::Word, value, ctr);
            }
            Op::Read { addr } => observed.push(sys.read_data(addr, MemSize::Word, ctr).0),
            Op::Fetch { addr } => observed.push(sys.fetch(addr, ctr).0),
            Op::Flush => sys.clean_invalidate_all(),
        }
    }
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// capture → mutate → restore: the restored memory system equals a
    /// replay of the captured prefix, behaves like it afterwards, and its
    /// COW pages never alias the diverged original.
    #[test]
    fn memsys_restore_is_bit_identical(
        prefix in prop::collection::vec(any_op(64 * 1024), 1..100),
        mutation in prop::collection::vec(any_op(64 * 1024), 1..100),
        suffix in prop::collection::vec(any_op(64 * 1024), 1..100),
    ) {
        let cfg = tiny_machine();
        let mut sys = MemSystem::new(&cfg);
        let mut ctr = Counters::default();
        apply(&mut sys, &mut ctr, &prefix);

        let saved = sys.clone();
        // Mutate the original well past the capture point.
        apply(&mut sys, &mut ctr, &mutation);

        let mut replay = MemSystem::new(&cfg);
        apply(&mut replay, &mut Counters::default(), &prefix);
        let mut restored = saved.clone();
        prop_assert!(restored.converges_with(&replay),
            "the capture must not see the original's later writes");

        // The restored machine and the replay behave identically on the
        // suffix.
        let mut ctr_a = Counters::default();
        let mut ctr_b = Counters::default();
        let obs_a = apply(&mut restored, &mut ctr_a, &suffix);
        let obs_b = apply(&mut replay, &mut ctr_b, &suffix);
        prop_assert_eq!(obs_a, obs_b);
        prop_assert_eq!(ctr_a, ctr_b);
        prop_assert!(restored.converges_with(&replay));
    }

    /// Restored machines sharing a golden image never see each other's
    /// writes (COW isolation at the DRAM layer).
    #[test]
    fn cow_restores_are_isolated(
        addr in (0u32..64 * 1024 - 4).prop_map(|a| a & !3),
        va in any::<u32>(),
    ) {
        let vb = !va; // always differs from va
        let cfg = tiny_machine();
        let golden = MemSystem::new(&cfg);
        let mut a = golden.clone();
        let mut b = golden.clone();
        let mut ctr = Counters::default();
        a.write_data(addr, MemSize::Word, va, &mut ctr);
        b.write_data(addr, MemSize::Word, vb, &mut ctr);
        a.clean_invalidate_all();
        b.clean_invalidate_all();
        prop_assert_eq!(a.phys.read(addr, MemSize::Word), va);
        prop_assert_eq!(b.phys.read(addr, MemSize::Word), vb);
        prop_assert_eq!(golden.phys.read(addr, MemSize::Word), 0);
    }

    /// TLB capture and restore under random insert/lookup traffic.
    #[test]
    fn tlb_restore_is_bit_identical(
        inserts in prop::collection::vec((0u32..64, 0u32..1024), 1..80),
        lookups in prop::collection::vec(0u32..64, 1..80),
    ) {
        let mut t = Tlb::new(16);
        for &(vpn, ppn) in &inserts {
            t.insert(TlbEntry::new(vpn, ppn, true, vpn % 2 == 0, vpn % 3 == 0));
        }
        for &vpn in &lookups {
            t.lookup(vpn);
        }
        let (lookups_at, misses_at) = (t.lookups, t.misses);
        let saved = t.clone();
        for &vpn in &lookups {
            t.insert(TlbEntry::new(vpn + 64, vpn, true, true, true));
        }
        let restored = saved.clone();
        prop_assert!(restored.converges_with(&saved));
        prop_assert_eq!(restored.lookups, lookups_at);
        prop_assert_eq!(restored.misses, misses_at);
    }

    /// Register-file capture and restore under random bit flips.
    #[test]
    fn regfile_restore_is_bit_identical(
        bits in prop::collection::vec(0u64..sea_microarch::REGFILE_BITS, 1..64),
    ) {
        let mut rf = RegFile::new();
        for &b in &bits {
            rf.flip_bit(b);
        }
        let words_at = rf.words();
        let saved = rf.clone();
        for &b in &bits {
            rf.flip_bit(b ^ 1);
        }
        prop_assert_eq!(saved.clone().words(), words_at);
    }
}
