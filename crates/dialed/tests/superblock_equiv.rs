//! Dispatch-equivalence property for DIALED verification.
//!
//! The abstract-execution emulator has two dispatch configurations:
//! decode-every-step (the oracle) and superblock block-at-a-time dispatch.
//! A verifier's [`Report`] — attack findings, statistics, outcome — must be
//! **byte identical** across both, for honest and corrupted proofs alike:
//! the dispatch layer is a throughput optimisation, never an observable.

use dialed::prelude::*;
use proptest::prelude::*;

/// A looping op so superblock dispatch re-enters stitched blocks: the
/// `loop` body executes `r13 & 7 (+1)` times before the result is logged.
const OP: &str = "\
    .org 0xE000\n\
    op:\n\
     mov r15, r10\n\
     mov r13, r11\n\
     and #7, r11\n\
     inc r11\n\
    loop:\n\
     add r14, r10\n\
     dec r11\n\
     jnz loop\n\
     mov r10, &0x0060\n\
     ret\n";

/// Verifies `proof` under each dispatch configuration with a warm,
/// recycled workspace and asserts the reports are identical.
fn reports_agree(op: &InstrumentedOp, proof: &DialedProof, chal: &Challenge, seed: u64) -> Report {
    let verifier = DialedVerifier::new(op.clone(), KeyStore::from_seed(seed));
    let mut reports = Vec::new();
    for superblocks in [false, true] {
        let mut ws = EmuWorkspace::new();
        ws.set_dispatch(superblocks);
        // Verify twice so the second pass runs against warm blocks (the
        // interesting case for block reuse across proofs).
        let _ = verifier.verify_in(&mut ws, &VerifyRequest::new(proof, chal));
        reports.push(verifier.verify_in(&mut ws, &VerifyRequest::new(proof, chal)));
    }
    let (forced, superblock) = (reports.remove(0), reports.remove(0));
    assert_eq!(forced, superblock, "superblock dispatch changed the report");
    forced
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Honest proofs verify clean, identically, under both dispatch
    /// configurations.
    #[test]
    fn honest_reports_identical_across_dispatch_configs(
        args in proptest::array::uniform8(any::<u16>()),
        seed in any::<u64>(),
        round in any::<u64>(),
    ) {
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).expect("op builds");
        let mut dev = DialedDevice::new(op.clone(), KeyStore::from_seed(seed));
        dev.invoke(&args);
        let chal = Challenge::derive(b"sb-equiv", round);
        let proof = dev.prove(&chal);
        let report = reports_agree(&op, &proof, &chal, seed);
        prop_assert!(report.is_clean(), "{report}");
    }

    /// Corrupted proofs are rejected identically — the emulated trace the
    /// report is built from does not depend on the dispatch strategy even
    /// when the OR log steers execution somewhere unexpected.
    #[test]
    fn corrupted_reports_identical_across_dispatch_configs(
        args in proptest::array::uniform8(any::<u16>()),
        seed in any::<u64>(),
        offset in any::<u16>(),
        flip in 1u8..=255,
    ) {
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).expect("op builds");
        let mut dev = DialedDevice::new(op.clone(), KeyStore::from_seed(seed));
        dev.invoke(&args);
        let chal = Challenge::derive(b"sb-equiv-bad", 7);
        let mut proof = dev.prove(&chal);
        let len = proof.pox.or_data.len();
        proof.pox.or_data[usize::from(offset) % len] ^= flip;
        let report = reports_agree(&op, &proof, &chal, seed);
        prop_assert!(!report.is_clean(), "corrupted proof must not verify");
    }
}
