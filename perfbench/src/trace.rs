//! The traced run's per-layer split.
//!
//! Spans are recorded from the benchmark's own files, around public calls
//! into each layer — the program itself is not instrumented. Three parts:
//!
//! 1. client-side spans around each TCP request leg, plus the `NetStats`,
//!    digest-cache and superblock counters;
//! 2. the same traffic driven in-process through
//!    `Fleet::{issue, submit, drain, prune_resolved}` with the workload's
//!    durability ([`crate::inproc`]);
//! 3. a re-verification pass over (a sample of) each drain's jobs through
//!    `BatchVerifier::verify_batch`, `Verifier::verify_in`,
//!    `PoxVerifier::{check, precheck_mac_lanes}`, `abstract_execute_in`,
//!    `Policy::check`, `wire::{encode, decode}` and `Wal::append`
//!    ([`reverify`]).
//!
//! Self time is a layer's span minus its child spans, over the traced
//! phase's wall time `W`:
//!
//! ```text
//! W ─┬─ fleet::net      W − F − wire            (TCP only; absorbs socket,
//!    │                                            thread-hop and idle time)
//!    ├─ fleet::wire     Σ encode + decode of the four frames per attestation
//!    ├─ fleet           F − batch − store        (F = Σ in-process Fleet calls)
//!    │   ├─ fleet::store  3 WAL appends per attestation (durable only)
//!    │   └─ dialed::batch batch − MAC − verifier (Σ verify_batch walls)
//!    │       ├─ MAC        Σ precheck_mac_lanes (runs before the workers)
//!    │       └─ dialed::verifier (Σ verify_in − Σ check) / workers
//!    │           ├─ emulation   Σ abstract_execute_in / workers (incl. msp430)
//!    │           └─ dialed::policy Σ Policy::check / workers
//!    └─ residual        W − Σ self               (in-process: the benchmark's
//!                                                 own per-round work)
//! ```
//!
//! Parallel children are scaled by the batch engine's worker count to
//! wall-equivalent time. `abstract_execute_in` rebuilds the verifier's
//! site index on every call, so the outside-in emulation share is an
//! overestimate; msp430 dispatch runs inside it and has no public hook of
//! its own, so its self time is counted under emulation and the layer is
//! reported by its superblock counters.

use crate::gen::{Expect, Pool};
use crate::inproc::FleetSpans;
use crate::stats::{percentile, Outcome, Tally};
use crate::world;
use apex::pox::{MacCheckItem, PoxVerifier, MAX_MAC_LANES};
use dialed::pipeline::InstrumentMode;
use dialed::policy::Policy;
use dialed::report::RejectClass;
use dialed::request::{PerDevice, Verifier, VerifyRequest};
use dialed::verifier::{abstract_execute_in, DEFAULT_EMU_BUDGET};
use dialed::{BatchJob, BatchVerifier, DialedVerifier, EmuWorkspace};
use fleet::store::{encode_event, Wal};
use fleet::wire::{
    self, ChallengeMsg, GrantMsg, IssueMsg, Message, ProofMsg, ReportMsg, SubmitMsg, VerdictMsg,
};
use fleet::{DeviceId, OpId, SessionId, StateEvent};
use msp430::SuperblockStats;
use std::path::Path;
use std::time::Instant;
use vrased::{KeyStore, RaVerifier};

/// Proofs re-verified at most per traced run (drains are sampled evenly).
const REVERIFY_CAP: usize = 6000;

/// WAL events one attestation commits: issue, accepted proof, verdict.
const EVENTS_PER_ATTEST: f64 = 3.0;

/// Sums of the re-verification pass (seconds and counts).
#[derive(Default)]
pub struct Reverify {
    pub proofs: u64,
    pub workers: usize,
    pub batch_wall: f64,
    pub verify_in: f64,
    pub check: f64,
    pub lanes: f64,
    pub emu: f64,
    pub emu_proofs: u64,
    pub insns: u64,
    pub policy: f64,
    pub encode: f64,
    pub decode: f64,
    pub proof_frame_bytes: u64,
    pub wal_append: f64,
    pub wal_events: u64,
    pub wal_bytes: u64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Re-verifies an even sample of `batches` (each one drain's items)
/// through the verification layers' public functions, one layer at a
/// time. Every batch verdict is checked against the item's expectation.
pub fn reverify(
    pool: &Pool,
    mode: InstrumentMode,
    seed: u64,
    batches: &[Vec<(u32, u32)>],
    dir: &Path,
    tally: &mut Tally,
) -> Reverify {
    let apps = world::build_apps(mode);
    let (keyed, ids) = world::build_fleet(world::build_apps(mode), seed, None);
    let keys: Vec<RaVerifier> = ids
        .iter()
        .map(|id| RaVerifier::new(keyed.device_keystore(*id).expect("registered")))
        .collect();
    drop(keyed);
    let source = PerDevice::new(|d: u64| keys.get(d as usize));
    let placeholder = KeyStore::from_seed(0x7E57);
    let policies: Vec<Vec<Box<dyn Policy>>> = apps.iter().map(|a| (a.policies)()).collect();
    let engines: Vec<BatchVerifier<Box<dyn Verifier>>> = apps
        .iter()
        .map(|a| {
            let v: Box<dyn Verifier> = if mode == InstrumentMode::Full {
                let mut v = DialedVerifier::new(a.op.clone(), placeholder.clone());
                for p in (a.policies)() {
                    v = v.with_policy(p);
                }
                Box::new(v)
            } else {
                Box::new(PoxVerifier::new(placeholder.clone(), a.op.pox, a.op.er_bytes.clone()))
            };
            BatchVerifier::new(v)
        })
        .collect();
    let pox: Vec<PoxVerifier> = apps
        .iter()
        .map(|a| PoxVerifier::new(placeholder.clone(), a.op.pox, a.op.er_bytes.clone()))
        .collect();
    let mut wal = Wal::open(&dir.join("reverify.wal")).expect("open scratch WAL");
    let mut ws = EmuWorkspace::new();
    let mut emu_ws = EmuWorkspace::new();
    let mut rv = Reverify { workers: engines[0].workers(), ..Reverify::default() };

    let total: usize = batches.iter().map(Vec::len).sum();
    let stride = total.div_ceil(REVERIFY_CAP).max(1);
    for batch in batches.iter().step_by(stride) {
        for (app, engine) in engines.iter().enumerate() {
            let items: Vec<(usize, usize)> = batch
                .iter()
                .map(|&(d, r)| (d as usize, r as usize))
                .filter(|&(d, _)| pool.devices[d].app == app)
                .collect();
            if items.is_empty() {
                continue;
            }
            // The proof each item's drain verified: a replay died at
            // submit, so its drain saw the honest proof that followed.
            let drained = |d: usize, r: usize| {
                if pool.is_replay(d, r) {
                    (pool.honest(d, r), Expect::Clean)
                } else {
                    (pool.submission(d, r), pool.expect(d, r))
                }
            };
            let mut expects = Vec::with_capacity(items.len());
            let jobs: Vec<BatchJob> = items
                .iter()
                .map(|&(d, r)| {
                    let (proof, expect) = drained(d, r);
                    expects.push(expect);
                    BatchJob::new(pool.devices[d].id.0, proof, pool.devices[d].rounds[r].challenge)
                })
                .collect();

            let t = Instant::now();
            let report = engine.verify_batch(&jobs, Some(&source));
            rv.batch_wall += secs(t);
            for ((outcome, expect), &(d, r)) in report.outcomes.iter().zip(&expects).zip(&items) {
                tally
                    .report(*expect, &outcome.report, || format!("re-verify device {d} round {r}"));
            }

            let mut hints = [None; MAX_MAC_LANES];
            for chunk in jobs.chunks(MAX_MAC_LANES) {
                let lanes: Vec<MacCheckItem<'_>> = chunk
                    .iter()
                    .map(|j| MacCheckItem {
                        proof: &j.proof.pox,
                        challenge: &j.challenge,
                        ra: keys.get(j.device_id as usize),
                    })
                    .collect();
                let t = Instant::now();
                pox[app].precheck_mac_lanes(&lanes, &mut hints);
                rv.lanes += secs(t);
            }

            for (job, report) in jobs.iter().zip(&report.outcomes) {
                let req = VerifyRequest::new(&job.proof, &job.challenge)
                    .for_device(job.device_id)
                    .keys(&source);
                let t = Instant::now();
                let single = engine.verifier().verify_in(&mut ws, &req);
                rv.verify_in += secs(t);
                if single != report.report {
                    tally.mismatch(format!(
                        "device {}: verify_in disagrees with verify_batch",
                        job.device_id
                    ));
                }

                let ra = keys.get(job.device_id as usize);
                let t = Instant::now();
                let mac_ok = pox[app].check(&job.proof.pox, &job.challenge, ra).is_ok();
                rv.check += secs(t);

                if mode == InstrumentMode::Full && mac_ok {
                    let op = &apps[app].op;
                    let t = Instant::now();
                    let emu = abstract_execute_in(
                        &mut emu_ws,
                        op,
                        &job.proof.pox.or_data,
                        DEFAULT_EMU_BUDGET,
                    );
                    rv.emu += secs(t);
                    rv.emu_proofs += 1;
                    rv.insns += emu.trace.insn_count() as u64;
                    let t = Instant::now();
                    for p in &policies[app] {
                        std::hint::black_box(p.check(&emu));
                    }
                    rv.policy += secs(t);
                    emu_ws.reclaim(emu);
                }

                let (session, device) = (job.device_id, job.device_id);
                let challenge = ChallengeMsg {
                    session,
                    device,
                    nonce: 1,
                    deadline: 64,
                    challenge: job.challenge,
                };
                let frames = [
                    Message::Issue(IssueMsg { request: 1, device }),
                    Message::Grant(GrantMsg { request: 1, body: challenge }),
                    Message::Submit(SubmitMsg {
                        request: 2,
                        body: ProofMsg { session, device, proof: job.proof.clone() },
                    }),
                    Message::Verdict(VerdictMsg {
                        request: 2,
                        body: ReportMsg { session, device, report: report.report.clone() },
                    }),
                ];
                for (k, msg) in frames.iter().enumerate() {
                    let t = Instant::now();
                    let bytes = wire::encode(msg);
                    rv.encode += secs(t);
                    let t = Instant::now();
                    let back = wire::decode(&bytes);
                    rv.decode += secs(t);
                    if back.as_ref() != Ok(msg) {
                        tally.mismatch(format!("wire round trip changed a {k}-th frame"));
                    }
                    if k == 2 {
                        rv.proof_frame_bytes += bytes.len() as u64;
                    }
                }

                let events = [
                    StateEvent::ChallengeIssued {
                        session: SessionId(session),
                        device: DeviceId(device),
                        op: OpId(app as u32),
                        nonce: 1,
                        issued_at: 0,
                        deadline: 64,
                    },
                    StateEvent::ProofAccepted {
                        session: SessionId(session),
                        device: DeviceId(device),
                        proof: job.proof.clone(),
                    },
                    StateEvent::VerdictRecorded {
                        session: SessionId(session),
                        report: report.report.clone(),
                    },
                ];
                for ev in &events {
                    let t = Instant::now();
                    wal.append(ev).expect("scratch WAL append");
                    rv.wal_append += secs(t);
                    rv.wal_events += 1;
                    rv.wal_bytes += encode_event(ev).len() as u64 + 8;
                }
                rv.proofs += 1;
            }
        }
    }
    rv
}

/// Everything the per-layer report is computed from.
pub struct Inputs<'a> {
    pub nproc: usize,
    pub durable: bool,
    /// Traced phase wall time, seconds.
    pub wall: f64,
    /// Attestations per second, untraced and traced.
    pub rate_untraced: f64,
    pub rate_traced: f64,
    /// Outcomes of the traced phase.
    pub tally: &'a Tally,
    /// TCP only: the traced phase's client spans and server counters.
    pub net: Option<NetTrace>,
    /// In-process spans with the workload's durability, and the other.
    pub fleet: FleetSpans,
    pub alt: FleetSpans,
    pub rv: Reverify,
    pub superblocks: SuperblockStats,
    pub digest_hit_rate: f64,
    pub precompute_s: f64,
    pub lag_ms: Option<Vec<f64>>,
}

pub struct NetTrace {
    pub rtt_ms: Vec<f64>,
    pub frames_in: u64,
    pub frames_out: u64,
    pub shed: u64,
    pub expired: u64,
    pub protocol_errors: u64,
    pub submitted: u64,
    pub drains: u64,
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

impl Inputs<'_> {
    /// Prints the per-layer report and fills `out` with every per-layer
    /// metric of the result line.
    #[allow(clippy::too_many_lines)]
    pub fn report(mut self, out: &mut Outcome) {
        let rv = &self.rv;
        let f = &self.fleet;
        let (mem, dur) = if self.durable { (&self.alt, f) } else { (f, &self.alt) };
        let us = 1e6;
        let proofs = f.drained.max(1) as f64;
        let scale = proofs / rv.proofs.max(1) as f64;
        let workers = rv.workers.max(1) as f64;

        let wire_s =
            if self.net.is_some() { per(rv.encode + rv.decode, rv.proofs) * proofs } else { 0.0 };
        let store_s = if self.durable {
            per(rv.wal_append, rv.wal_events) * EVENTS_PER_ATTEST * proofs
        } else {
            0.0
        };
        let batch_s = rv.batch_wall * scale;
        let mac_s = rv.lanes * scale;
        let ver_s = (rv.verify_in - rv.check) / workers * scale;
        let emu_s = rv.emu / workers * scale;
        let pol_s = rv.policy / workers * scale;
        let fleet_total = f.total().as_secs_f64();
        let net_s = if self.net.is_some() { self.wall - fleet_total - wire_s } else { 0.0 };
        let layers = [
            ("fleet::net", "fleet_net", net_s),
            ("fleet::wire", "fleet_wire", wire_s),
            ("fleet", "fleet", fleet_total - batch_s - store_s),
            ("fleet::store", "fleet_store", store_s),
            ("dialed::batch", "dialed_batch", batch_s - mac_s - ver_s),
            ("MAC (apex/vrased/hacl)", "mac", mac_s),
            ("dialed::verifier", "dialed_verifier", ver_s - emu_s - pol_s),
            ("emulation (abstract_execute_in, incl. msp430)", "emulation", emu_s),
            ("dialed::policy", "dialed_policy", pol_s),
        ];
        let attributed: f64 = layers.iter().map(|l| l.2).sum();
        let residual = self.wall - attributed;

        println!("per-layer self time over W = {:.3} s ({} proofs drained):", self.wall, f.drained);
        for (name, _, s) in &layers {
            println!("  {name:<48} {:>9.4} s  {:>6.1}%", s, 100.0 * s / self.wall);
        }
        println!(
            "  {:<48} {:>9.4} s  {:>6.1}%",
            "unattributed residual",
            residual,
            100.0 * residual / self.wall
        );
        println!(
            "  msp430: no public hook separates dispatch from abstract_execute_in; \
             its time is inside the emulation row"
        );
        if self.net.is_some() {
            println!(
                "  note: fleet::net is W − F − wire, so it holds socket, thread-hop and idle time \
                 and the residual is 0 by construction"
            );
        } else {
            println!("  note: no sockets on this workload; the residual is the benchmark's own per-round work");
        }
        println!(
            "  note: abstract_execute_in rebuilds the site index per call, so the emulation share \
             is an overestimate{}",
            if ver_s - emu_s - pol_s < 0.0 {
                "; dialed::verifier's self time is negative by that excess"
            } else {
                ""
            }
        );

        let overhead = if self.rate_untraced > 0.0 {
            1.0 - self.rate_traced / self.rate_untraced
        } else {
            0.0
        };
        println!(
            "tracing overhead: traced {:.1} vs untraced {:.1} attest/s ({:+.2}%)",
            self.rate_traced,
            self.rate_untraced,
            100.0 * overhead
        );

        // Human-only metrics: timings that only some workloads have.
        match self.net.as_mut() {
            Some(net) => {
                let n = net.rtt_ms.len();
                println!(
                    "net.grant_rtt_p50_ms = {:.4}, net.grant_rtt_p99_ms = {:.4} ({n} samples)",
                    percentile(&mut net.rtt_ms, 0.5),
                    percentile(&mut net.rtt_ms, 0.99)
                );
                println!(
                    "net.proofs_per_drain = {:.1}, net.drains_per_s = {:.1}",
                    per(net.submitted as f64, net.drains),
                    net.drains as f64 / self.wall
                );
            }
            None => println!(
                "net.grant_rtt_p50_ms, net.grant_rtt_p99_ms, net.proofs_per_drain, net.drains_per_s: \
                 n/a (in-process workload, no sockets; net counters read 0)"
            ),
        }
        if rv.emu_proofs > 0 {
            let emu_us = per(rv.emu, rv.emu_proofs) * us;
            println!(
                "emu.us_per_proof = {emu_us:.3}, emu.ns_per_insn = {:.2}, policy.us_per_proof = {:.3}",
                1e9 * per(rv.emu, rv.insns),
                per(rv.policy, rv.emu_proofs) * us
            );
        } else {
            println!(
                "emu.us_per_proof, emu.ns_per_insn, policy.us_per_proof, msp430.*: n/a \
                 (Original-mode ops are verified at the PoX level, without abstract execution)"
            );
        }
        match self.lag_ms.as_mut() {
            Some(lag) => println!("gen.lag_p99_ms = {:.4}", percentile(lag, 0.99)),
            None => println!("gen.lag_p99_ms: n/a (closed loop, no schedule to fall behind)"),
        }

        let sb = self.superblocks;
        let dispatches = sb.hits + sb.misses + sb.restitches;
        let net = self.net.as_ref();
        let count = |g: fn(&NetTrace) -> u64| net.map_or(0.0, |n| g(n) as f64);
        out.push("fleet.issue_us", per(f.issue.as_secs_f64(), f.issues) * us, "us");
        out.push("fleet.submit_us", per(f.submit.as_secs_f64(), f.submits) * us, "us");
        out.push("fleet.prune_us", per(f.prune.as_secs_f64(), f.prunes) * us, "us");
        out.push("fleet.drain_us_per_proof", f.drain.as_secs_f64() / proofs * us, "us");
        out.push("fleet.proofs_per_drain", per(f.drained as f64, f.drains), "count");
        out.push(
            "fleet.drain_efficiency",
            rv.verify_in * scale / (f.drain.as_secs_f64() * self.nproc as f64),
            "ratio",
        );
        out.push("wal.append_us", per(rv.wal_append, rv.wal_events) * us, "us");
        out.push("wal.bytes_per_attest", per(rv.wal_bytes as f64, rv.proofs), "bytes");
        out.push(
            "wal.submit_overhead_us",
            (per(dur.submit.as_secs_f64(), dur.submits)
                - per(mem.submit.as_secs_f64(), mem.submits))
                * us,
            "us",
        );
        out.push("wire.encode_us", per(rv.encode, rv.proofs) * us, "us");
        out.push("wire.decode_us", per(rv.decode, rv.proofs) * us, "us");
        out.push("wire.proof_frame_bytes", per(rv.proof_frame_bytes as f64, rv.proofs), "bytes");
        out.push("batch.us_per_proof", per(rv.batch_wall, rv.proofs) * us, "us");
        out.push("batch.efficiency", rv.verify_in / (rv.batch_wall * workers), "ratio");
        out.push("mac.check_us", per(rv.check, rv.proofs) * us, "us");
        out.push("mac.lanes_us_per_proof", per(rv.lanes, rv.proofs) * us, "us");
        out.push("mac.er_digest_hit_rate", self.digest_hit_rate, "ratio");
        out.push("emu.insns_per_proof", per(rv.insns as f64, rv.emu_proofs), "count");
        out.push("msp430.superblock_hit_rate", per(sb.hits as f64, dispatches), "ratio");
        out.push("msp430.restitches", sb.restitches as f64, "count");
        out.push("net.frames_in", count(|n| n.frames_in), "count");
        out.push("net.frames_out", count(|n| n.frames_out), "count");
        out.push("net.shed", count(|n| n.shed), "count");
        out.push("net.expired", count(|n| n.expired), "count");
        out.push("net.protocol_errors", count(|n| n.protocol_errors), "count");
        out.push(
            "net.overhead_share",
            if net.is_some() { 1.0 - fleet_total / self.wall } else { 0.0 },
            "ratio",
        );
        out.push("verdict.clean", self.tally.clean as f64, "count");
        out.push("verdict.attack", self.tally.attack as f64, "count");
        for class in RejectClass::ALL {
            out.push(
                format!("reject.{}", class.label()),
                self.tally.rejects[class.index()] as f64,
                "count",
            );
        }
        out.push("gen.precompute_s", self.precompute_s, "s");
        for (_, key, s) in &layers {
            out.push(format!("share.{key}"), s / self.wall, "ratio");
        }
        out.push("share.residual", residual / self.wall, "ratio");
        out.push("trace.overhead", overhead, "ratio");
    }
}
