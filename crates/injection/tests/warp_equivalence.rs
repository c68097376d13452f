//! The two-tier execution engine's correctness bar at the campaign level:
//! arming the warp cursor (`CampaignConfig::warp`) must never change what
//! a campaign computes — every injected run classifies identically, and a
//! journaled campaign, from reset or checkpointed, writes the reference
//! tier's journal bytes.
//!
//! (The handoff bar: a machine cloned off the fault-free cursor is
//! *bit-exact* detailed state, indistinguishable from stepping a fresh
//! boot to the same cycle.)

mod equivalence;

use equivalence::{assert_row, booted, classifies_identically, fixture, rows_where, step_to};
use proptest::prelude::*;
use sea_microarch::Component;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The cursor mechanism in miniature: a fault-free machine advanced to
    /// cycle `c` (fast path armed, as the cursor always runs), cloned, and
    /// stepped on to cycle `n` is deep-fingerprint-identical to a fresh
    /// boot stepped straight to `n`. The workload's prefix crosses SVC
    /// mode changes and timer ticks, so the clone point can land anywhere
    /// around them.
    #[test]
    fn cursor_clone_then_detailed_matches_pure_detailed_stepping(
        c_frac in 0.0f64..1.0,
        n_frac in 0.0f64..1.0,
    ) {
        let cycles = fixture().1.cycles;
        let c = ((cycles as f64 * c_frac.min(n_frac)) as u64).min(cycles - 1);
        let n = ((cycles as f64 * c_frac.max(n_frac)) as u64).min(cycles - 1);
        let mut handed_off = booted(true, c).clone();
        handed_off.fastpath_disable();
        step_to(&mut handed_off, n);
        prop_assert_eq!(
            booted(false, n).state_fingerprint_deep(),
            handed_off.state_fingerprint_deep(),
            "cursor clone diverged: clone at {}, target {}", c, n
        );
    }

    /// Any random fault — any component, any bit, any strike cycle —
    /// classifies identically under every cursor row as on the reference
    /// tier.
    #[test]
    fn random_faults_classify_identically(
        row in any::<prop::sample::Index>(),
        which in 0usize..Component::ALL.len(),
        bit_frac in 0.0f64..1.0,
        cycle_frac in 0.0f64..1.0,
    ) {
        let rows = rows_where(|_, warp| warp);
        classifies_identically(rows[row.index(rows.len())], which, bit_frac, cycle_frac);
    }
}

#[test]
fn warp_campaign_journal_is_byte_identical_to_detailed_campaign() {
    assert_row("cursor");
}

#[test]
fn warp_composes_with_checkpoint_restore() {
    assert_row("cursor + checkpoints");
}
