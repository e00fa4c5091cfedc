//! The load generator's proof pool, precomputed off the clock.
//!
//! A twin in-memory `Fleet` (same label, op order, device order and key
//! seeds as the service) issues the nonce sequence every device will see,
//! and each device's `DialedDevice` proves every round ahead of time. The
//! timed phases then only assemble proofs from the pool, so device-side
//! HMAC never competes with the service for the cores.
//!
//! All devices of one app run the same operation on the same stimulus, so
//! they log the same OR: the pool keeps one template proof per app and one
//! tag per (device, round). Adversarial submissions are stored as the
//! mutation to apply plus, for resealed splices, the resealed tag.

use crate::world::{self, SplitMix64};
use apex::pox::StopReason;
use dialed::pipeline::InstrumentMode;
use dialed::report::{Finding, RejectClass, Report, Verdict};
use dialed::{DialedDevice, DialedProof, DialedVerifier, SlotClass};
use fleet::{DeviceId, FleetConfig};
use hacl::Digest;
use std::time::Instant;
use vrased::{Challenge, KeyStore};

/// What a device submits in one round.
#[derive(Clone, Copy, Debug)]
pub enum Sub {
    Honest,
    /// One tag bit flipped in transit.
    TagFlip {
        byte: u8,
        bit: u8,
    },
    /// One OR bit flipped in transit.
    OrFlip {
        byte: u16,
        bit: u8,
    },
    /// The OR cut short by `cut` bytes.
    OrTruncate {
        cut: u8,
    },
    /// A CF-Log slot spliced and the proof resealed under the device key.
    CfSplice {
        slot: u16,
        tag: Digest,
    },
    /// The device's last accepted submission replayed on the fresh
    /// session; the honest proof follows on the same session.
    Replay,
}

/// The outcome an operation must have.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expect {
    Clean,
    /// Attack verdict carrying a `LogDivergence` finding.
    Attack,
    Reject(RejectClass),
}

impl Expect {
    /// Checks a verdict report against this expectation.
    pub fn matches(self, report: &Report) -> bool {
        match (self, report.verdict) {
            (Expect::Clean, Verdict::Clean) => true,
            (Expect::Attack, Verdict::Attack) => {
                report.findings.iter().any(|f| matches!(f, Finding::LogDivergence { .. }))
            }
            (Expect::Reject(class), Verdict::Rejected) => report_class(report) == Some(class),
            _ => false,
        }
    }
}

/// The reject class a rejected report carries.
pub fn report_class(report: &Report) -> Option<RejectClass> {
    report.findings.iter().find_map(|f| match f {
        Finding::PoxRejected { reason } => Some(reason.class()),
        _ => None,
    })
}

/// One precomputed round of one device.
pub struct Round {
    pub nonce: u64,
    pub challenge: Challenge,
    /// The honest proof's tag for this round's challenge.
    pub tag: Digest,
    pub sub: Sub,
}

pub struct GenDevice {
    pub id: DeviceId,
    pub app: usize,
    pub rounds: Vec<Round>,
}

struct Template {
    proof: DialedProof,
    cf_slots: Vec<usize>,
}

pub struct Pool {
    templates: Vec<Template>,
    pub devices: Vec<GenDevice>,
    pub rounds: usize,
    pub precompute_s: f64,
}

/// Share of each submission kind in the attack mix, cumulative.
const MIX: [(f64, &str); 6] = [
    (0.50, "honest"),
    (0.60, "tag-bit-flip"),
    (0.70, "or-bit-flip"),
    (0.75, "or-truncate"),
    (0.90, "cf-splice"),
    (1.00, "replay"),
];

impl Pool {
    /// Precomputes `rounds` rounds for every device. Round 0 is always
    /// honest (the set-up's warm-up round); with `mix`, later rounds draw
    /// their submission from the attack mix.
    pub fn build(mode: InstrumentMode, seed: u64, rounds: usize, mix: bool) -> Self {
        let start = Instant::now();
        let apps = world::build_apps(mode);
        let templates: Vec<Template> = apps
            .iter()
            .map(|app| {
                let key = KeyStore::from_seed(0);
                let mut dev = DialedDevice::new(app.op.clone(), key.clone());
                (app.feed)(dev.platform_mut());
                let info = dev.invoke(&app.args);
                assert_eq!(info.stop, StopReason::ReachedStop, "{} did not complete", app.name);
                let proof = dev.prove(&Challenge::derive(b"perfbench-template", 0));
                let cf_slots = if mix {
                    let classes = DialedVerifier::new(app.op.clone(), key)
                        .or_slot_classes(&proof.pox.or_data);
                    (0..classes.len()).filter(|&i| classes[i] == SlotClass::ControlFlow).collect()
                } else {
                    Vec::new()
                };
                assert!(!mix || !cf_slots.is_empty(), "{}: no CF-Log slots", app.name);
                Template { proof, cf_slots }
            })
            .collect();

        // The twin: same construction as the service, in memory.
        let (mut twin, ids) = world::build_fleet(world::build_apps(mode), seed, None);
        let keys: Vec<KeyStore> =
            ids.iter().map(|id| twin.device_keystore(*id).expect("registered")).collect();
        let mut challenges: Vec<Vec<(u64, Challenge)>> =
            ids.iter().map(|_| Vec::with_capacity(rounds)).collect();
        let ttl = FleetConfig::default().challenge_ttl;
        for r in 0..rounds as u64 {
            let now = r * (ttl + 2);
            for (d, id) in ids.iter().enumerate() {
                let ch = twin.issue(*id, now).expect("registered");
                challenges[d].push((ch.nonce, ch.challenge));
            }
            // Expire and evict the unanswered sessions: the twin only
            // ever holds one round.
            let _ = twin.drain(now + ttl + 1);
            twin.prune_resolved(now + ttl + 2);
        }
        drop(twin);

        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let chunk = ids.len().div_ceil(threads);
        let mut jobs: Vec<_> = ids
            .iter()
            .zip(keys)
            .zip(challenges)
            .enumerate()
            .map(|(d, ((id, k), c))| (d, *id, k, c))
            .collect();
        let mut devices: Vec<GenDevice> = Vec::with_capacity(ids.len());
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            while !jobs.is_empty() {
                let rest = jobs.split_off(jobs.len().min(chunk));
                let mine = std::mem::replace(&mut jobs, rest);
                let (apps, templates) = (&apps, &templates);
                handles.push(scope.spawn(move || {
                    mine.into_iter()
                        .map(|(d, id, key, chals)| {
                            let app = world::app_of(d);
                            prove_device(&apps[app], &templates[app], d, id, &key, chals, seed, mix)
                        })
                        .collect::<Vec<_>>()
                }));
            }
            for h in handles {
                devices.extend(h.join().expect("generator thread panicked"));
            }
        });
        Self { templates, devices, rounds, precompute_s: start.elapsed().as_secs_f64() }
    }

    fn assemble(&self, d: usize, r: usize, sub: &Sub) -> DialedProof {
        let dev = &self.devices[d];
        let mut proof = self.templates[dev.app].proof.clone();
        proof.pox.tag = dev.rounds[r].tag;
        match *sub {
            Sub::Honest => {}
            Sub::TagFlip { byte, bit } => proof.pox.tag[usize::from(byte)] ^= 1 << bit,
            Sub::OrFlip { byte, bit } => proof.pox.or_data[usize::from(byte)] ^= 1 << bit,
            Sub::OrTruncate { cut } => {
                let keep = proof.pox.or_data.len() - usize::from(cut);
                proof.pox.or_data.truncate(keep);
            }
            Sub::CfSplice { slot, tag } => {
                let i = 2 * usize::from(slot);
                proof.pox.or_data[i] ^= 0x04;
                proof.pox.tag = tag;
            }
            Sub::Replay => unreachable!("a replay is assembled from the previous round"),
        }
        proof
    }

    /// The honest proof of device `d` for round `r`.
    pub fn honest(&self, d: usize, r: usize) -> DialedProof {
        self.assemble(d, r, &Sub::Honest)
    }

    /// The first proof device `d` submits in round `r` (for a replay, the
    /// replayed proof: the submission the device had accepted last round).
    pub fn submission(&self, d: usize, r: usize) -> DialedProof {
        let rounds = &self.devices[d].rounds;
        match rounds[r].sub {
            Sub::Replay => match rounds[r - 1].sub {
                Sub::Replay => self.honest(d, r - 1),
                prev => self.assemble(d, r - 1, &prev),
            },
            sub => self.assemble(d, r, &sub),
        }
    }

    /// The expected outcome of [`submission`](Self::submission).
    pub fn expect(&self, d: usize, r: usize) -> Expect {
        match self.devices[d].rounds[r].sub {
            Sub::Honest => Expect::Clean,
            Sub::TagFlip { .. } | Sub::OrFlip { .. } => Expect::Reject(RejectClass::Mac),
            Sub::OrTruncate { .. } => Expect::Reject(RejectClass::OrLength),
            Sub::CfSplice { .. } => Expect::Attack,
            Sub::Replay => Expect::Reject(RejectClass::Session),
        }
    }

    pub fn is_replay(&self, d: usize, r: usize) -> bool {
        matches!(self.devices[d].rounds[r].sub, Sub::Replay)
    }
}

/// Share labels of the attack mix, for the run's description.
pub fn mix_description() -> String {
    let mut prev = 0.0;
    MIX.iter()
        .map(|&(cum, name)| {
            let s = format!("{:.0}% {name}", 100.0 * (cum - prev));
            prev = cum;
            s
        })
        .collect::<Vec<_>>()
        .join(", ")
}

#[allow(clippy::too_many_arguments)]
fn prove_device(
    app: &world::App,
    template: &Template,
    d: usize,
    id: DeviceId,
    key: &KeyStore,
    chals: Vec<(u64, Challenge)>,
    seed: u64,
    mix: bool,
) -> GenDevice {
    let mut dev = DialedDevice::new(app.op.clone(), key.clone());
    (app.feed)(dev.platform_mut());
    let info = dev.invoke(&app.args);
    assert_eq!(info.stop, StopReason::ReachedStop, "{} device {d} did not complete", app.name);
    let mut rng = SplitMix64::new(world::key_seed(seed ^ 0x00AD_7E45_A21E_5EED, d));
    let rounds = chals
        .into_iter()
        .enumerate()
        .map(|(r, (nonce, challenge))| {
            let proof = dev.prove(&challenge);
            if r == 0 {
                assert!(
                    proof.pox.or_data == template.proof.pox.or_data
                        && proof.pox.cfg == template.proof.pox.cfg
                        && proof.pox.exec == template.proof.pox.exec,
                    "{} device {d} logged differently from its app template",
                    app.name
                );
            }
            let sub = if mix && r > 0 {
                draw(&mut rng, template, key, &challenge, app)
            } else {
                Sub::Honest
            };
            Round { nonce, challenge, tag: proof.pox.tag, sub }
        })
        .collect();
    GenDevice { id, app: world::app_of(d), rounds }
}

fn draw(
    rng: &mut SplitMix64,
    template: &Template,
    key: &KeyStore,
    challenge: &Challenge,
    app: &world::App,
) -> Sub {
    let u = rng.unit();
    let kind = MIX.iter().position(|&(cum, _)| u < cum).unwrap_or(MIX.len() - 1);
    let bit = rng.below(8) as u8;
    match kind {
        0 => Sub::Honest,
        1 => Sub::TagFlip { byte: rng.below(hacl::DIGEST_LEN) as u8, bit },
        2 => Sub::OrFlip { byte: rng.below(template.proof.pox.or_data.len()) as u16, bit },
        3 => Sub::OrTruncate { cut: 1 + rng.below(8) as u8 },
        4 => {
            let slot = template.cf_slots[rng.below(template.cf_slots.len())];
            let mut proof = template.proof.clone();
            proof.pox.or_data[2 * slot] ^= 0x04;
            proof.pox.reseal(key.clone(), challenge, &app.op.er_bytes);
            Sub::CfSplice { slot: slot as u16, tag: proof.pox.tag }
        }
        _ => Sub::Replay,
    }
}
