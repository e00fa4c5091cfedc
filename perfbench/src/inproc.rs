//! The in-process path: traffic driven straight through
//! `Fleet::{issue, submit, drain, prune_resolved}`, with no sockets.
//! It is the `fleet-attack-mix` workload, and the traced run's in-process
//! pass over the traffic a TCP workload carried.

use crate::gen::{Expect, Pool};
use crate::stats::Tally;
use crate::world;
use dialed::pipeline::InstrumentMode;
use dialed::report::{RejectClass, RejectReason};
use fleet::{Fleet, NetConfig, SessionError, SessionId};
use std::path::Path;
use std::time::{Duration, Instant};

/// Wall time spent inside each `Fleet` call (traced runs only).
#[derive(Default, Clone, Copy)]
pub struct FleetSpans {
    pub issue: Duration,
    pub submit: Duration,
    pub drain: Duration,
    pub prune: Duration,
    pub issues: u64,
    pub submits: u64,
    pub drains: u64,
    pub prunes: u64,
    /// Sessions the drains resolved.
    pub drained: u64,
}

impl FleetSpans {
    pub fn total(&self) -> Duration {
        self.issue + self.submit + self.drain + self.prune
    }
}

/// Runs `f`, adding its wall time to `acc` when spans are being recorded.
fn span<R>(on: bool, acc: &mut Duration, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed();
    r
}

/// The fleet's logical clock, derived from wall time as the TCP server
/// derives it.
pub fn ticks(elapsed: Duration) -> u64 {
    let tick = NetConfig::default().tick.as_nanos().max(1);
    u64::try_from(elapsed.as_nanos() / tick).unwrap_or(u64::MAX)
}

/// One drain's worth of traffic: issue to every `(device, round)` item,
/// submit each item's precomputed submission, drain, check every outcome,
/// prune. Latency is recorded from each item's issue to the end of the
/// drain that resolved it.
pub fn run_batch(
    fleet: &mut Fleet,
    pool: &Pool,
    items: &[(u32, u32)],
    now: u64,
    tally: &mut Tally,
    mut lat_ms: Option<&mut Vec<f64>>,
    spans: Option<&mut FleetSpans>,
) {
    let on = spans.is_some();
    let mut sp = FleetSpans::default();
    let mut issued: Vec<(Instant, Option<SessionId>)> = Vec::with_capacity(items.len());
    for &(d, r) in items {
        let (d, r) = (d as usize, r as usize);
        let (dev, round) = (&pool.devices[d], &pool.devices[d].rounds[r]);
        let t = Instant::now();
        let granted = span(on, &mut sp.issue, || fleet.issue(dev.id, now));
        sp.issues += 1;
        let session = match granted {
            Ok(ch) if ch.challenge == round.challenge && ch.nonce == round.nonce => {
                Some(SessionId(ch.session))
            }
            Ok(ch) => {
                tally.attempted += 1;
                tally.mismatch(format!("device {d} round {r}: granted nonce {} differs", ch.nonce));
                None
            }
            Err(e) => {
                tally.attempted += 1;
                tally.mismatch(format!("device {d} round {r}: issue failed: {e}"));
                None
            }
        };
        issued.push((t, session));
    }

    let mut pending: Vec<(usize, SessionId, Expect)> = Vec::with_capacity(items.len());
    for (i, &(d, r)) in items.iter().enumerate() {
        let (d, r) = (d as usize, r as usize);
        let Some(sid) = issued[i].1 else { continue };
        let id = pool.devices[d].id;
        let what = || format!("device {d} round {r}");
        let (proof, expect) = if pool.is_replay(d, r) {
            let replayed = pool.submission(d, r);
            let res = span(on, &mut sp.submit, || fleet.submit(sid, id, replayed, now));
            sp.submits += 1;
            match res {
                Err(e @ SessionError::ReplayedProof) => {
                    tally.reject(Expect::Reject(RejectClass::Session), &e.into(), what);
                    if let Some(lat) = lat_ms.as_deref_mut() {
                        lat.push(issued[i].0.elapsed().as_secs_f64() * 1e3);
                    }
                }
                Err(e) => tally.reject(Expect::Reject(RejectClass::Session), &e.into(), what),
                Ok(()) => {
                    tally.attempted += 1;
                    tally.mismatch(format!("{}: replayed proof accepted", what()));
                    continue;
                }
            }
            (pool.honest(d, r), Expect::Clean)
        } else {
            (pool.submission(d, r), pool.expect(d, r))
        };
        let res = span(on, &mut sp.submit, || fleet.submit(sid, id, proof, now));
        sp.submits += 1;
        match res {
            Ok(()) => pending.push((i, sid, expect)),
            Err(e) => tally.reject(expect, &RejectReason::from(e), what),
        }
    }

    let (stats, _) = span(on, &mut sp.drain, || fleet.drain(now));
    sp.drains += 1;
    sp.drained += stats.drained as u64;
    let done = Instant::now();
    for (i, sid, expect) in pending {
        let (d, r) = items[i];
        let what = || format!("device {d} round {r}");
        match fleet.session(sid).and_then(|s| s.report.as_ref()) {
            Some(report) => {
                tally.report(expect, report, what);
                if let Some(lat) = lat_ms.as_deref_mut() {
                    lat.push((done - issued[i].0).as_secs_f64() * 1e3);
                }
            }
            None => {
                tally.attempted += 1;
                tally.mismatch(format!("{}: no verdict after drain", what()));
            }
        }
    }
    span(on, &mut sp.prune, || fleet.prune_resolved(now));
    sp.prunes += 1;
    if let Some(spans) = spans {
        add(spans, &sp);
    }
}

fn add(a: &mut FleetSpans, b: &FleetSpans) {
    a.issue += b.issue;
    a.submit += b.submit;
    a.drain += b.drain;
    a.prune += b.prune;
    a.issues += b.issues;
    a.submits += b.submits;
    a.drains += b.drains;
    a.prunes += b.prunes;
    a.drained += b.drained;
}

/// Round `r` for every device, in registration order.
pub fn round_items(r: usize) -> Vec<(u32, u32)> {
    (0..world::DEVICES as u32).map(|d| (d, r as u32)).collect()
}

/// The service's set-up on the in-process path: build the ops, create the
/// fleet, register ops and devices, run the warm-up round (round 0).
pub fn setup(
    pool: &Pool,
    mode: InstrumentMode,
    seed: u64,
    dir: Option<&Path>,
    tally: &mut Tally,
) -> Fleet {
    let (mut fleet, ids) = world::build_fleet(world::build_apps(mode), seed, dir);
    assert!(
        ids.iter().zip(&pool.devices).all(|(a, b)| *a == b.id),
        "service and generator twin registered different device ids"
    );
    run_batch(&mut fleet, pool, &round_items(0), 0, tally, None, None);
    fleet
}

/// Result of one in-process phase.
pub struct Phase {
    pub tally: Tally,
    pub lat_ms: Vec<f64>,
    pub wall: f64,
    pub spans: FleetSpans,
    /// The drains this phase ran, as item lists (traced phases only).
    pub batches: Vec<Vec<(u32, u32)>>,
    /// The pool ran out before the deadline.
    pub exhausted: bool,
}

/// Full rounds (every device, rounds 1, 2, …) until `seconds` pass.
pub fn mix_phase(fleet: &mut Fleet, pool: &Pool, seconds: f64, trace: bool) -> Phase {
    let mut tally = Tally::default();
    let mut lat_ms = Vec::new();
    let mut spans = FleetSpans::default();
    let mut batches = Vec::new();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut r = 1;
    while r < pool.rounds && Instant::now() < deadline {
        let items = round_items(r);
        let now = ticks(t0.elapsed());
        run_batch(
            fleet,
            pool,
            &items,
            now,
            &mut tally,
            Some(&mut lat_ms),
            trace.then_some(&mut spans),
        );
        if trace {
            batches.push(items);
        }
        r += 1;
    }
    let exhausted = r >= pool.rounds && Instant::now() < deadline;
    Phase { tally, lat_ms, wall: t0.elapsed().as_secs_f64(), spans, batches, exhausted }
}

/// Replays recorded traffic in-process, `batch` items per drain, on a
/// freshly set-up fleet (durable under `dir` when given). Returns the
/// spans and the drains as item lists.
pub fn replay(
    pool: &Pool,
    mode: InstrumentMode,
    seed: u64,
    dir: Option<&Path>,
    traffic: &[(u32, u32)],
    batch: usize,
    tally: &mut Tally,
) -> (FleetSpans, Vec<Vec<(u32, u32)>>) {
    let mut fleet = setup(pool, mode, seed, dir, tally);
    let mut spans = FleetSpans::default();
    let t0 = Instant::now();
    let batches: Vec<Vec<(u32, u32)>> = traffic.chunks(batch.max(1)).map(<[_]>::to_vec).collect();
    for items in &batches {
        run_batch(&mut fleet, pool, items, ticks(t0.elapsed()), tally, None, Some(&mut spans));
    }
    (spans, batches)
}
