//! The execution-fast-path correctness bar at the campaign level: arming
//! the µop cache + translation latches must never change what a campaign
//! computes — every injected run classifies identically, and a journaled
//! campaign, from reset or checkpointed, writes the reference tier's
//! journal bytes.
//!
//! (The microarchitectural half of this bar — step-for-step lockstep of
//! counters and deep state fingerprints under flips in every component —
//! lives in `sea-microarch/tests/fastpath.rs`.)

mod equivalence;

use equivalence::{assert_row, classifies_identically, rows_where};
use proptest::prelude::*;
use sea_microarch::Component;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any random fault — any component, any bit, any strike cycle —
    /// classifies identically under every fast-path row as on the
    /// reference tier, down to the struck array and line-validity metadata.
    #[test]
    fn random_faults_classify_identically(
        row in any::<prop::sample::Index>(),
        which in 0usize..Component::ALL.len(),
        bit_frac in 0.0f64..1.0,
        cycle_frac in 0.0f64..1.0,
    ) {
        let rows = rows_where(|fast, _| fast);
        classifies_identically(rows[row.index(rows.len())], which, bit_frac, cycle_frac);
    }
}

#[test]
fn fastpath_campaign_journal_is_byte_identical_to_slow_campaign() {
    assert_row("fast path");
}

#[test]
fn fastpath_composes_with_checkpoint_restore() {
    assert_row("fast path + checkpoints");
}
