//! Deterministic corpus replay: the canonical fleet, corpus generation,
//! and the two replay paths (in-process [`Fleet`] and the `fleet::net`
//! TCP server).
//!
//! # Determinism
//!
//! Challenges are derived from `(fleet label, device id, nonce)` and
//! session ids from issue order, so a fleet rebuilt with the same label,
//! the same registration order and the same issue sequence re-mints the
//! *identical* [`ChallengeMsg`](fleet::ChallengeMsg) stream. The corpus
//! pins that: every case
//! records the full challenge message it was minted against, and replay
//! asserts byte-exact equality before submitting anything. A mismatch
//! means challenge derivation, session-id allocation or registration
//! layout changed — which would silently invalidate every recorded proof
//! — and fails the replay loudly instead.
//!
//! # Canonical layout
//!
//! One shard (so session ids are dense), the fixed [`CORPUS_LABEL`], the
//! scenarios of [`lifecycles`] registered in
//! order, and [`DEVICES_PER_SCENARIO`] devices per scenario sharing one
//! per-scenario key seed. Each corpus case targets its own device: the
//! anti-replay window records accepted proof tags per device at *submit*
//! time, so tag-preserving mutants (e.g. an OR truncation that cannot
//! reseal) would otherwise shadow each other. The deliberate exception is
//! the `tag-replay` case, which reuses the honest case's device precisely
//! to hit that window.

use crate::corpus::{CorpusCase, Expect};
use crate::mutate::{Expectation, MutantForge, Mutation};
use apps::lifecycle::{lifecycles, LifecycleSpec};
use dialed::pipeline::InstrumentMode;
use dialed::report::{Finding, RejectClass, RejectReason, Verdict};
use fleet::wire::{Message, ProofMsg, SubmitMsg};
use fleet::{DeviceId, Fleet, FleetConfig, NetClient, NetConfig, NetServer, NetStats, SessionId};
use std::time::Duration;

/// The fleet label every corpus challenge is derived under.
pub const CORPUS_LABEL: &[u8] = b"simdev-corpus-v1";

/// Devices registered per scenario: one per proof-carrying case (the
/// honest baseline plus one per catalogued mutation; the tag-replay case
/// reuses the honest device).
pub const DEVICES_PER_SCENARIO: usize = 15;

/// The provisioning key seed shared by scenario `index`'s devices.
#[must_use]
pub fn scenario_seed(index: usize) -> u64 {
    0xD1A1_ED00 + index as u64
}

/// The canonical corpus fleet: fixed label, one shard, every scenario's
/// V1 image registered in [`lifecycles`] order with
/// [`DEVICES_PER_SCENARIO`] devices each.
#[must_use]
pub fn canonical_fleet() -> Fleet {
    canonical_fleet_with_devices().0
}

/// [`canonical_fleet`] plus the device ids, grouped by scenario index.
#[must_use]
pub fn canonical_fleet_with_devices() -> (Fleet, Vec<Vec<DeviceId>>) {
    let mut fleet = Fleet::new(FleetConfig {
        label: CORPUS_LABEL.to_vec(),
        shards: 1,
        workers: Some(2),
        ..FleetConfig::default()
    });
    let mut devices = Vec::new();
    for (i, spec) in lifecycles().iter().enumerate() {
        let image = spec.scenario.build(InstrumentMode::Full);
        let op = fleet.register_op(spec.scenario.name, image, vec![]);
        let devs = (0..DEVICES_PER_SCENARIO)
            .map(|_| fleet.register_device(op, scenario_seed(i)).expect("op just registered"))
            .collect();
        devices.push(devs);
    }
    (fleet, devices)
}

/// The spec for scenario index `s` (specs are not `Clone`; each forge
/// consumes one).
fn spec_at(s: usize) -> LifecycleSpec {
    lifecycles().into_iter().nth(s).unwrap_or_else(|| panic!("no scenario {s}"))
}

fn expect_for(expectation: &Expectation) -> Vec<Expect> {
    match expectation {
        Expectation::Reject(classes) => classes.iter().copied().map(Expect::Class).collect(),
        Expectation::Attack => vec![Expect::Verdict(Verdict::Attack)],
        // Robust mutations have no *required* outcome; generation pins the
        // observed one after the drain so replay still asserts determinism.
        Expectation::Robust => Vec::new(),
    }
}

/// Generates the full corpus against a fresh canonical fleet, validating
/// every case's expectation in the process (each mutant must die exactly
/// as its mutation class requires; the honest baselines must verify
/// Clean). Returned cases are in session order, ready to [`CorpusCase::save`].
///
/// # Errors
///
/// A description of the first case whose outcome violated its mutation's
/// expectation — a verifier or session-layer bug, not an I/O problem.
#[allow(clippy::too_many_lines)]
pub fn generate() -> Result<Vec<CorpusCase>, String> {
    let (mut fleet, devices) = canonical_fleet_with_devices();
    // (case, pin) — pin marks Robust cases whose observed verdict becomes
    // the recorded expectation after the drain.
    let mut cases: Vec<(CorpusCase, bool)> = Vec::new();
    // Cases that never reach the verifier (submit-layer rejects) need no
    // post-drain check; everything else is checked after one final drain.
    let mut submitted: Vec<usize> = Vec::new();
    let mut request = 0u64;

    for (s, devs) in devices.iter().enumerate() {
        let scenario = spec_at(s).scenario.name;
        let keystore = fleet.device_keystore(devs[0]).map_err(|e| e.to_string())?;

        // Case 0: the honest baseline — must verify Clean, and arms the
        // honest device's anti-replay window for the tag-replay case.
        let honest_ch = fleet.issue(devs[0], 0).map_err(|e| e.to_string())?;
        let forge = MutantForge::new(
            spec_at(s),
            keystore.clone(),
            honest_ch.challenge,
            honest_ch.challenge,
        );
        let honest_proof = forge.honest().clone();
        request += 1;
        let honest_case = CorpusCase {
            scenario: scenario.to_string(),
            name: "00-honest".to_string(),
            challenge: honest_ch,
            submit: SubmitMsg {
                request,
                body: ProofMsg {
                    session: honest_ch.session,
                    device: honest_ch.device,
                    proof: honest_proof.clone(),
                },
            },
            expect: vec![Expect::Verdict(Verdict::Clean)],
        };
        fleet
            .submit(
                SessionId(honest_ch.session),
                DeviceId(honest_ch.device),
                honest_proof.clone(),
                0,
            )
            .map_err(|e| format!("{scenario}/00-honest: submit rejected: {e}"))?;
        submitted.push(cases.len());
        cases.push((honest_case, false));

        // Cases 1..=N: one per catalogued mutation, each on its own device
        // with its own session — the proof is forged against that exact
        // challenge, so MAC-passing mutants (CF splices, reorders) stay
        // MAC-passing at replay.
        for (i, m) in Mutation::catalog().into_iter().enumerate() {
            let dev = devs[i + 1];
            let ch = fleet.issue(dev, 0).map_err(|e| e.to_string())?;
            let forge =
                MutantForge::new(spec_at(s), keystore.clone(), ch.challenge, honest_ch.challenge);
            let mutant = forge.forge(&m);
            let name = format!("{:02}-{}", i + 1, m.label());
            request += 1;
            let case = CorpusCase {
                scenario: scenario.to_string(),
                name: name.clone(),
                challenge: ch,
                submit: SubmitMsg {
                    request,
                    body: ProofMsg {
                        session: ch.session,
                        device: ch.device,
                        proof: mutant.proof.clone(),
                    },
                },
                expect: expect_for(&mutant.expected),
            };
            fleet
                .submit(SessionId(ch.session), DeviceId(ch.device), mutant.proof, 0)
                .map_err(|e| format!("{scenario}/{name}: submit rejected: {e}"))?;
            submitted.push(cases.len());
            cases.push((case, matches!(mutant.expected, Expectation::Robust)));
        }

        // Final case: replay the honest (accepted) proof against a fresh
        // session of the same device — the anti-replay window must kill it
        // at the session layer, before any cryptography.
        let ch = fleet.issue(devs[0], 0).map_err(|e| e.to_string())?;
        request += 1;
        let name = format!("{:02}-tag-replay", Mutation::catalog().len() + 1);
        let case = CorpusCase {
            scenario: scenario.to_string(),
            name: name.clone(),
            challenge: ch,
            submit: SubmitMsg {
                request,
                body: ProofMsg {
                    session: ch.session,
                    device: ch.device,
                    proof: honest_proof.clone(),
                },
            },
            expect: vec![Expect::Class(RejectClass::Session)],
        };
        match fleet.submit(SessionId(ch.session), DeviceId(ch.device), honest_proof, 0) {
            Err(e) if RejectReason::from(e).class() == RejectClass::Session => {}
            Err(e) => return Err(format!("{scenario}/{name}: wrong reject: {e}")),
            Ok(()) => return Err(format!("{scenario}/{name}: replayed proof accepted at submit")),
        }
        cases.push((case, false));
    }

    fleet.drain(0);

    for &idx in &submitted {
        let (case, pin) = &mut cases[idx];
        let session = SessionId(case.submit.body.session);
        let report = fleet
            .session(session)
            .and_then(|s| s.report.clone())
            .ok_or_else(|| format!("{}: no report after drain", case.id()))?;
        if *pin {
            // Robust mutation: record the outcome this verifier actually
            // produced, so replay pins determinism without overclaiming
            // detection.
            case.expect = match report.verdict {
                Verdict::Rejected => {
                    let class = report
                        .findings
                        .iter()
                        .find_map(|f| match f {
                            Finding::PoxRejected { reason } => Some(reason.class()),
                            _ => None,
                        })
                        .ok_or_else(|| format!("{}: rejected without reason", case.id()))?;
                    vec![Expect::Class(class)]
                }
                v => vec![Expect::Verdict(v)],
            };
        }
        case.check_report(&report)?;
    }

    Ok(cases.into_iter().map(|(c, _)| c).collect())
}

/// Aggregate outcome counts of one replay run. Derived purely from the
/// per-case outcomes, so the in-process and networked paths can be
/// compared for equality — and, over the network, cross-checked against
/// the server's own [`NetStats::rejects_by_class`] accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReplayStats {
    /// Cases replayed.
    pub cases: usize,
    /// Sessions that resolved `Clean`.
    pub clean: u64,
    /// Sessions that resolved `Attack`.
    pub attacks: u64,
    /// Rejections (submit-layer and verifier) by class.
    pub rejects_by_class: [u64; RejectClass::ALL.len()],
}

impl ReplayStats {
    fn note_class(&mut self, class: RejectClass) {
        self.rejects_by_class[class.index()] += 1;
    }
}

/// Replays `cases` (already in session order, as [`crate::corpus::load_dir`]
/// returns them) through a fresh in-process canonical fleet: re-issue and
/// assert every challenge, submit every recorded proof, drain once, check
/// every expectation.
///
/// # Errors
///
/// The first determinism or expectation violation.
pub fn replay_in_process(cases: &[CorpusCase]) -> Result<ReplayStats, String> {
    let mut fleet = canonical_fleet();
    let mut stats = ReplayStats { cases: cases.len(), ..ReplayStats::default() };
    let mut pending: Vec<&CorpusCase> = Vec::new();

    for case in cases {
        let issued = fleet
            .issue(DeviceId(case.challenge.device), 0)
            .map_err(|e| format!("{}: issue failed: {e}", case.id()))?;
        if issued != case.challenge {
            return Err(format!(
                "{}: challenge drift — recorded {:?}, reissued {:?}",
                case.id(),
                case.challenge,
                issued
            ));
        }
        let body = &case.submit.body;
        match fleet.submit(SessionId(body.session), DeviceId(body.device), body.proof.clone(), 0) {
            Ok(()) => pending.push(case),
            Err(e) => {
                let class = RejectReason::from(e).class();
                case.check_submit_reject(class)?;
                stats.note_class(class);
            }
        }
    }

    fleet.drain(0);

    for case in pending {
        let report = fleet
            .session(SessionId(case.submit.body.session))
            .and_then(|s| s.report.clone())
            .ok_or_else(|| format!("{}: no report after drain", case.id()))?;
        case.check_report(&report)?;
        match report.verdict {
            Verdict::Clean => stats.clean += 1,
            Verdict::Attack => stats.attacks += 1,
            Verdict::Rejected => {
                let class = report
                    .findings
                    .iter()
                    .find_map(|f| match f {
                        Finding::PoxRejected { reason } => Some(reason.class()),
                        _ => None,
                    })
                    .ok_or_else(|| format!("{}: rejected without reason", case.id()))?;
                stats.note_class(class);
            }
        }
    }

    Ok(stats)
}

/// Replays `cases` over the `fleet::net` TCP server: spawn the canonical
/// fleet behind a real socket, request every challenge through the wire
/// (asserting equality with the recorded frames), pipeline every
/// submission, and correlate the verdict/reject replies. The logical tick
/// is set to one hour so the whole replay happens at `now == 0` —
/// matching the recorded deadlines and the in-process path exactly.
///
/// On success also cross-checks the server's per-class reject counters
/// against the outcomes the client observed: every reject the corpus
/// expects must be accounted, by class, in [`NetStats`].
///
/// # Errors
///
/// The first I/O, determinism, expectation, or accounting violation.
pub fn replay_over_net(cases: &[CorpusCase]) -> Result<(ReplayStats, NetStats), String> {
    let fleet = canonical_fleet();
    let cfg = NetConfig { tick: Duration::from_secs(3600), ..NetConfig::default() };
    let handle = NetServer::spawn(fleet, cfg).map_err(|e| format!("spawn: {e}"))?;
    let mut client = NetClient::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut stats = ReplayStats { cases: cases.len(), ..ReplayStats::default() };

    // Phase 1: re-issue every challenge, in session order, call-and-wait
    // so the server's issue order matches generation exactly.
    for case in cases {
        let granted = client
            .request_challenge(case.challenge.device)
            .map_err(|e| format!("{}: issue I/O: {e}", case.id()))?
            .map_err(|m| format!("{}: issue rejected: {m:?}", case.id()))?;
        if granted != case.challenge {
            return Err(format!(
                "{}: challenge drift over net — recorded {:?}, granted {:?}",
                case.id(),
                case.challenge,
                granted
            ));
        }
    }

    // Phase 2: pipeline every submission; the connection preserves order,
    // so the anti-replay window sees submissions in session order.
    let mut by_request = std::collections::HashMap::new();
    for case in cases {
        let req = client
            .submit(case.submit.body.clone())
            .map_err(|e| format!("{}: submit I/O: {e}", case.id()))?;
        by_request.insert(req, case);
    }

    // Phase 3: every submission owes exactly one reply — a Verdict after
    // a drain, or an immediate Reject.
    for _ in 0..cases.len() {
        let msg = client.recv().map_err(|e| format!("recv: {e}"))?;
        match msg {
            Message::Verdict(v) => {
                let case = by_request
                    .remove(&v.request)
                    .ok_or_else(|| format!("uncorrelated verdict for request {}", v.request))?;
                case.check_report(&v.body.report)?;
                match v.body.report.verdict {
                    Verdict::Clean => stats.clean += 1,
                    Verdict::Attack => stats.attacks += 1,
                    Verdict::Rejected => {
                        let class = v
                            .body
                            .report
                            .findings
                            .iter()
                            .find_map(|f| match f {
                                Finding::PoxRejected { reason } => Some(reason.class()),
                                _ => None,
                            })
                            .ok_or_else(|| format!("{}: rejected without reason", case.id()))?;
                        stats.note_class(class);
                    }
                }
            }
            Message::Reject(r) => {
                let case = by_request
                    .remove(&r.request)
                    .ok_or_else(|| format!("uncorrelated reject for request {}", r.request))?;
                let class = r.reason.class();
                case.check_submit_reject(class)?;
                stats.note_class(class);
            }
            other => return Err(format!("unexpected reply {other:?}")),
        }
    }
    if !by_request.is_empty() {
        return Err(format!("{} submissions never answered", by_request.len()));
    }

    let (_fleet, net) = handle.shutdown().map_err(|_| "server thread panicked".to_string())?;

    // The server's own per-class accounting must match what the client
    // observed: every reject bucketed exactly once, by the same class.
    if net.rejects_by_class != stats.rejects_by_class {
        return Err(format!(
            "server reject accounting drift: server {:?}, client {:?}",
            net.rejects_by_class, stats.rejects_by_class
        ));
    }

    Ok((stats, net))
}
