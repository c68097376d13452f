//! The checkpoint correctness bar: restoring a checkpoint and running
//! forward must be bit-identical to running from reset, and a checkpointed
//! campaign must write the reference tier's journal bytes.

mod equivalence;

use equivalence::{assert_row, booted, fixture, step_to};

#[test]
fn restore_then_run_is_bit_identical_to_run_from_reset() {
    let (_, golden, ckpts) = fixture();
    // A target cycle past at least one non-zero checkpoint.
    let target = golden.cycles * 2 / 3;
    let mut restored = ckpts.restore_at(target).expect("a checkpoint");
    assert!(restored.cycles() <= target);
    let mut reset = booted(false, 0);
    // Identical at the target, and in lockstep past it.
    for at in [target, target + 5_000] {
        step_to(&mut restored, at);
        step_to(&mut reset, at);
        let (a, b) = (
            restored.state_fingerprint_deep(),
            reset.state_fingerprint_deep(),
        );
        assert_eq!(
            a, b,
            "restore-then-run diverged from run-from-reset at cycle {at}"
        );
    }
}

#[test]
fn checkpointed_campaign_journal_is_byte_identical_to_reset_campaign() {
    assert_row("checkpoints in memory");
}
