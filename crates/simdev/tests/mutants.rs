//! The mutation-engine oracle, property-tested: randomly parameterized
//! mutants from every attack family, forged against every scenario, must
//! produce exactly the verdict class their mutation requires — never an
//! acceptance, never a panic — under both verifier dispatch
//! configurations.

use proptest::prelude::*;
use proptest::strategy::Union;

use dialed::{DialedVerifier, EmuWorkspace, Verifier, VerifyRequest};
use simdev::{MutantForge, Mutation};
use std::sync::OnceLock;
use vrased::KeyStore;

/// The `superblocks` flag of both dispatch configurations: forced decode,
/// superblock block-at-a-time.
const DISPATCHES: [bool; 2] = [false, true];

/// One forge per scenario, built once: each construction runs a full
/// honest device round, so the property cases share them.
fn forges() -> &'static [MutantForge] {
    static FORGES: OnceLock<Vec<MutantForge>> = OnceLock::new();
    FORGES.get_or_init(|| {
        apps::lifecycle::lifecycles()
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let name = spec.scenario.name;
                MutantForge::for_scenario(
                    name,
                    KeyStore::from_seed(0xF0C0 + i as u64),
                    name.as_bytes(),
                )
            })
            .collect()
    })
}

/// Free-ranging mutation parameters: ranks, bit indices, and masks are
/// drawn from the full integer domain — the forge reduces them modulo the
/// honest proof's geometry, so every instance is applicable everywhere.
fn mutation_strategy() -> Union<Mutation> {
    prop_oneof![
        any::<usize>().prop_map(|bit| Mutation::TagBitFlip { bit }),
        any::<usize>().prop_map(|bit| Mutation::OrBitFlip { bit }),
        any::<usize>().prop_map(|bytes| Mutation::OrTruncate { bytes }),
        any::<usize>().prop_map(|bytes| Mutation::OrExtend { bytes }),
        any::<u16>().prop_map(|shrink| Mutation::BoundsForge { shrink }),
        any::<bool>().prop_map(|reseal| Mutation::ExecClearForge { reseal }),
        (any::<usize>(), any::<u16>()).prop_map(|(rank, xor)| Mutation::CfSplice { rank, xor }),
        any::<usize>().prop_map(|rank| Mutation::CfReorder { rank }),
        Just(Mutation::InputBranchFlip),
        (any::<usize>(), any::<u16>()).prop_map(|(arg, xor)| Mutation::HeadForge { arg, xor }),
        Just(Mutation::StaleChallenge),
        Just(Mutation::ImageMismatch),
        Just(Mutation::IrqWindow),
        Just(Mutation::DmaWrite),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn every_mutant_dies_exactly_as_required(
        scenario in 0usize..3,
        m in mutation_strategy(),
    ) {
        let forge = &forges()[scenario % forges().len()];
        let case = forge.forge(&m);
        let verifier = DialedVerifier::new(forge.op().clone(), forge.keystore().clone());
        let mut verdicts = Vec::new();
        for superblocks in DISPATCHES {
            let mut ws = EmuWorkspace::new();
            ws.set_dispatch(superblocks);
            let report =
                verifier.verify_in(&mut ws, &VerifyRequest::new(&case.proof, &case.challenge));
            if let Err(e) = case.expected.check(&report) {
                return Err(TestCaseError::fail(format!(
                    "{} / {:?} (superblocks={superblocks}): {e}",
                    forge.scenario_name(),
                    case.mutation,
                )));
            }
            verdicts.push(report.verdict);
        }
        // The oracle must not depend on how instructions are dispatched.
        prop_assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "{} / {:?}: dispatch-dependent verdicts {verdicts:?}",
            forge.scenario_name(),
            case.mutation,
        );
    }
}

/// The canonical catalog — every mutation kind, minimized parameters —
/// must hold on every scenario. This is the deterministic floor under the
/// randomized property above, and mirrors exactly what the committed
/// corpus was generated from.
#[test]
fn canonical_catalog_holds_on_every_scenario() {
    for forge in forges() {
        let verifier = DialedVerifier::new(forge.op().clone(), forge.keystore().clone());
        for m in Mutation::catalog() {
            let case = forge.forge(&m);
            let report = verifier.verify(&VerifyRequest::new(&case.proof, &case.challenge));
            case.expected.check(&report).unwrap_or_else(|e| {
                panic!("{} / {}: {e}", forge.scenario_name(), m.label());
            });
        }
    }
}
