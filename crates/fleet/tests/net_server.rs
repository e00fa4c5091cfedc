//! The TCP frontend, end to end over loopback: honest round trips with
//! request multiplexing, load shedding at the ingest watermark, graceful
//! drain flushing every in-flight verdict, verdicts that never wait for
//! the sweep timer on a free core and at most one interval on a busy one,
//! and wall-clock session expiry.

use dialed::attest::DialedDevice;
use dialed::pipeline::{BuildOptions, InstrumentedOp};
use dialed::report::{RejectClass, RejectReason, Verdict};
use fleet::wire::Message;
use fleet::{
    DeviceId, Fleet, FleetConfig, NetClient, NetConfig, NetServer, NetServerHandle, StateEvent,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const OP_SRC: &str = "\
    .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";

/// A fleet with `n` registered devices and their device-side simulators.
fn fleet_with_devices(n: u64, cfg: FleetConfig) -> (Fleet, Vec<(DeviceId, DialedDevice)>) {
    let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
    let mut fleet = Fleet::new(cfg);
    let op_id = fleet.register_op("adder", op.clone(), vec![]);
    let devices = (0..n)
        .map(|seed| {
            let id = fleet.register_device(op_id, seed).unwrap();
            (id, DialedDevice::new(op.clone(), fleet.device_keystore(id).unwrap()))
        })
        .collect();
    (fleet, devices)
}

fn proof_for(device: &mut DialedDevice, chal: &fleet::ChallengeMsg) -> fleet::ProofMsg {
    device.invoke(&[0, 0, 0, 0, 0, 0, 2, 3]);
    fleet::ProofMsg {
        session: chal.session,
        device: chal.device,
        proof: device.prove(&chal.challenge),
    }
}

#[test]
fn honest_devices_round_trip_multiplexed() {
    let (fleet, mut devices) = fleet_with_devices(
        8,
        FleetConfig { workers: Some(2), shards: 4, ..FleetConfig::default() },
    );
    let handle = NetServer::spawn(
        fleet,
        NetConfig { drain_interval: Duration::from_millis(10), ..NetConfig::default() },
    )
    .unwrap();

    // All eight devices share one connection; pipeline every issue, then
    // every submit, correlating replies by request id.
    let mut client = NetClient::connect(handle.addr()).unwrap();
    let mut issue_reqs = HashMap::new();
    for (i, (id, _)) in devices.iter().enumerate() {
        issue_reqs.insert(client.issue(id.0).unwrap(), i);
    }
    let mut chals = HashMap::new();
    for _ in 0..devices.len() {
        match client.recv().unwrap() {
            Message::Grant(g) => {
                let i = issue_reqs[&g.request];
                chals.insert(i, g.body);
            }
            other => panic!("expected grant, got {other:?}"),
        }
    }

    let mut submit_reqs = HashMap::new();
    for (i, chal) in &chals {
        let msg = proof_for(&mut devices[*i].1, chal);
        submit_reqs.insert(client.submit(msg).unwrap(), *i);
    }
    let mut verdicts = 0;
    for _ in 0..devices.len() {
        match client.recv().unwrap() {
            Message::Verdict(v) => {
                let i = submit_reqs[&v.request];
                assert_eq!(v.body.device, devices[i].0 .0, "verdict routed to wrong device");
                assert_eq!(v.body.report.verdict, Verdict::Clean, "{:?}", v.body.report);
                verdicts += 1;
            }
            other => panic!("expected verdict, got {other:?}"),
        }
    }
    assert_eq!(verdicts, devices.len());

    let (fleet, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(stats.granted, 8);
    assert_eq!(stats.submitted, 8);
    assert_eq!(stats.verdicts, 8);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(fleet.pending(), 0, "graceful shutdown drains ingest");
}

/// Parks the core thread inside an admin closure, runs `queue` (which
/// sends `frames` requests), waits until all of them have been handed to
/// the core, and releases it. The core then applies the whole backlog
/// before its next drain, so the requests see each other's queue depth.
fn with_core_parked<R>(handle: &NetServerHandle, frames: u64, queue: impl FnOnce() -> R) -> R {
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            handle
                .admin(move |_| {
                    parked_tx.send(()).unwrap();
                    // A dropped sender (the test panicked) releases too.
                    let _ = release_rx.recv();
                })
                .expect("server alive");
        });
        parked_rx.recv().expect("core parked");
        let before = handle.stats().frames_in;
        let out = queue();
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.stats().frames_in < before + frames {
            assert!(Instant::now() < deadline, "queued requests never reached the core");
            std::thread::sleep(Duration::from_millis(1));
        }
        release_tx.send(()).unwrap();
        out
    })
}

#[test]
fn submissions_past_the_watermark_are_shed() {
    let (fleet, mut devices) = fleet_with_devices(
        6,
        FleetConfig { workers: Some(1), shards: 1, ..FleetConfig::default() },
    );
    // Tiny watermark, and every submit queued behind a parked core: the
    // queue backs up and the shed path must answer with explicit
    // backpressure.
    let handle =
        NetServer::spawn(fleet, NetConfig { shed_watermark: 2, ..NetConfig::default() }).unwrap();

    let mut client = NetClient::connect(handle.addr()).unwrap();
    let chals: Vec<_> = devices
        .iter()
        .map(|(id, _)| client.request_challenge(id.0).unwrap().expect("grant"))
        .collect();
    let reqs: Vec<u64> = with_core_parked(&handle, chals.len() as u64, || {
        devices
            .iter_mut()
            .zip(&chals)
            .map(|((_, device), chal)| client.submit(proof_for(device, chal)).unwrap())
            .collect()
    });
    // Queue position decides: the first `watermark` submissions are
    // accepted, every later one sees the depth at 2 and is shed.
    let (accepted, past) = reqs.split_at(2);

    // Graceful shutdown still owes the accepted two their verdicts; they
    // may arrive before or after it, interleaved with the shed rejects.
    let (_, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(stats.shed, 4);
    assert_eq!(stats.submitted, 2);
    let (mut flushed, mut shed) = (Vec::new(), Vec::new());
    loop {
        match client.recv() {
            Ok(Message::Verdict(v)) => flushed.push(v.request),
            Ok(Message::Reject(r)) => {
                match r.reason {
                    RejectReason::Overloaded { pending } => {
                        assert_eq!(pending, 2, "shed reports the observed depth");
                    }
                    other => panic!("expected Overloaded, got {other:?}"),
                }
                shed.push(r.request);
            }
            Ok(other) => panic!("expected verdict or shed reject, got {other:?}"),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => panic!("client read failed: {e}"),
        }
    }
    shed.sort_unstable();
    assert_eq!(shed, past, "every submission past the watermark is shed");
    flushed.sort_unstable();
    assert_eq!(flushed, accepted, "exactly the accepted submissions get verdicts");
}

#[test]
fn graceful_drain_loses_no_inflight_verdict() {
    let n = 24u64;
    let (fleet, mut devices) = fleet_with_devices(
        n,
        FleetConfig { workers: Some(2), shards: 4, ..FleetConfig::default() },
    );
    let handle = NetServer::spawn(fleet, NetConfig::default()).unwrap();

    let mut client = NetClient::connect(handle.addr()).unwrap();
    let chals: Vec<_> = devices
        .iter()
        .map(|(id, _)| client.request_challenge(id.0).unwrap().expect("grant"))
        .collect();
    // Every submit is queued behind the parked core; shutdown starts as
    // soon as it is released, while their verification is still owed.
    let mut submit_reqs: Vec<u64> = with_core_parked(&handle, n, || {
        devices
            .iter_mut()
            .zip(&chals)
            .map(|((_, device), chal)| client.submit(proof_for(device, chal)).unwrap())
            .collect()
    });

    let (fleet, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(stats.submitted, n, "all submissions were accepted before shutdown");
    assert_eq!(stats.verdicts, n, "every in-flight verdict was emitted");

    let mut flushed: Vec<u64> = Vec::new();
    loop {
        match client.recv() {
            Ok(Message::Verdict(v)) => {
                assert_eq!(v.body.report.verdict, Verdict::Clean);
                flushed.push(v.request);
            }
            Ok(other) => panic!("expected verdict, got {other:?}"),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => panic!("client read failed: {e}"),
        }
    }
    flushed.sort_unstable();
    submit_reqs.sort_unstable();
    assert_eq!(flushed, submit_reqs, "every accepted submission got its verdict frame");
    assert_eq!(fleet.pending(), 0);
}

#[test]
fn verdicts_do_not_wait_for_the_sweep_timer() {
    let (fleet, mut devices) = fleet_with_devices(
        1,
        FleetConfig { workers: Some(1), shards: 1, ..FleetConfig::default() },
    );
    // No sweep in the test's lifetime: only pending work can trigger the
    // drain that answers the submit.
    let handle = NetServer::spawn(
        fleet,
        NetConfig { drain_interval: Duration::from_secs(3600), ..NetConfig::default() },
    )
    .unwrap();

    let mut client = NetClient::connect(handle.addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let (id, device) = &mut devices[0];
    let chal = client.request_challenge(id.0).unwrap().expect("grant");
    let req = client.submit(proof_for(device, &chal)).unwrap();
    match client.recv().expect("verdict before the read timeout") {
        Message::Verdict(v) => {
            assert_eq!(v.request, req);
            assert_eq!(v.body.report.verdict, Verdict::Clean, "{:?}", v.body.report);
        }
        other => panic!("expected verdict, got {other:?}"),
    }

    let (_, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(stats.verdicts, 1);
}

/// A core that never finds its inbox empty still drains at least once
/// per `drain_interval`. Requests that add no pending proof (issues, shed or rejected
/// submits, admin calls) never trigger the flood cap, so a steady stream
/// of them must not hold back a verdict that is already owed. Slow admin
/// calls from four callers stand in for such a stream: while the core
/// runs one, the others are already queued behind it.
#[test]
fn a_busy_inbox_cannot_hold_back_a_pending_verdict() {
    let (fleet, mut devices) = fleet_with_devices(
        1,
        FleetConfig { workers: Some(1), shards: 1, ..FleetConfig::default() },
    );
    let handle = NetServer::spawn(fleet, NetConfig::default()).unwrap();

    let mut client = NetClient::connect(handle.addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let (id, device) = &mut devices[0];
    let chal = client.request_challenge(id.0).unwrap().expect("grant");
    let stop = AtomicBool::new(false);
    let admin_calls = AtomicU64::new(0);
    let reply = std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    handle
                        .admin(|_| std::thread::sleep(Duration::from_millis(2)))
                        .expect("server alive");
                    admin_calls.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        while admin_calls.load(Ordering::Relaxed) < 4 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let req = client.submit(proof_for(device, &chal)).unwrap();
        let reply = client.recv();
        stop.store(true, Ordering::Relaxed);
        (req, reply)
    });
    match reply {
        (req, Ok(Message::Verdict(v))) => {
            assert_eq!(v.request, req);
            assert_eq!(v.body.report.verdict, Verdict::Clean, "{:?}", v.body.report);
        }
        (_, other) => panic!("expected a verdict before the read timeout, got {other:?}"),
    }

    let (_, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(stats.verdicts, 1);
}

#[test]
fn drains_between_sweeps_commit_no_prune_record() {
    let dir = std::env::temp_dir()
        .join(format!("dialed-net-server-test-{}-no-prune", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
    // 1 ms ticks, 500-tick sessions: the first round's sessions are
    // prunable by the time the second round drains.
    let mut fleet = Fleet::durable(
        &dir,
        FleetConfig { workers: Some(1), shards: 2, challenge_ttl: 500, ..FleetConfig::default() },
    )
    .unwrap();
    let op_id = fleet.register_op("adder", op.clone(), vec![]);
    let mut devices: Vec<_> = (0..4)
        .map(|seed| {
            let id = fleet.register_device(op_id, seed).unwrap();
            (id, DialedDevice::new(op.clone(), fleet.device_keystore(id).unwrap()))
        })
        .collect();
    // Every submit drains at once (`drain_pending: 1`), but no sweep is
    // due while the test runs.
    let handle = NetServer::spawn(
        fleet,
        NetConfig {
            tick: Duration::from_millis(1),
            drain_pending: 1,
            drain_interval: Duration::from_secs(3600),
            ..NetConfig::default()
        },
    )
    .unwrap();

    let mut client = NetClient::connect(handle.addr()).unwrap();
    let mut attest = |client: &mut NetClient| {
        for (id, device) in &mut devices {
            let chal = client.request_challenge(id.0).unwrap().expect("grant");
            let req = client.submit(proof_for(device, &chal)).unwrap();
            match client.recv().unwrap() {
                Message::Verdict(v) => assert_eq!(v.request, req),
                other => panic!("expected verdict, got {other:?}"),
            }
        }
    };
    attest(&mut client);
    std::thread::sleep(Duration::from_millis(600));
    attest(&mut client);

    let (fleet, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(stats.verdicts, 8);
    drop(fleet);
    let mut events = Vec::new();
    for shard in std::fs::read_dir(&dir).unwrap() {
        let shard = shard.unwrap().path();
        if !shard.is_dir() {
            continue;
        }
        for file in std::fs::read_dir(&shard).unwrap() {
            let file = file.unwrap().path();
            if file.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("wal-")) {
                events.extend(fleet::store::read_events(&file).unwrap());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!events.is_empty(), "the shard WALs hold the run's events");
    assert!(
        !events.iter().any(|ev| matches!(ev, StateEvent::PruneSweep { .. })),
        "a drain with no sweep due committed a PruneSweep record"
    );
}

#[test]
fn sessions_expire_on_the_wall_clock() {
    // 5 ms ticks and the default 64-tick TTL: challenges die ~320 ms
    // after issue, driven purely by the server's drain timer.
    let (fleet, mut devices) = fleet_with_devices(
        1,
        FleetConfig { workers: Some(1), shards: 1, ..FleetConfig::default() },
    );
    let handle = NetServer::spawn(
        fleet,
        NetConfig {
            tick: Duration::from_millis(5),
            drain_interval: Duration::from_millis(10),
            ..NetConfig::default()
        },
    )
    .unwrap();

    let mut client = NetClient::connect(handle.addr()).unwrap();
    let (id, device) = &mut devices[0];
    let chal = client.request_challenge(id.0).unwrap().expect("grant");
    std::thread::sleep(Duration::from_millis(600));
    let req = client.submit(proof_for(device, &chal)).unwrap();
    match client.recv().unwrap() {
        Message::Reject(r) => {
            assert_eq!(r.request, req);
            assert!(
                matches!(r.reason, RejectReason::SessionViolation { .. }),
                "expired challenge must reject at the session layer: {:?}",
                r.reason
            );
        }
        other => panic!("expected expiry reject, got {other:?}"),
    }

    // A fresh challenge still works: expiry killed the session, not the
    // device or the connection.
    let chal = client.request_challenge(id.0).unwrap().expect("grant");
    let req = client.submit(proof_for(device, &chal)).unwrap();
    match client.recv().unwrap() {
        Message::Verdict(v) => {
            assert_eq!(v.request, req);
            assert_eq!(v.body.report.verdict, Verdict::Clean);
        }
        other => panic!("expected verdict, got {other:?}"),
    }

    let (_, stats) = handle.shutdown().expect("no server thread may panic");
    assert!(stats.session_rejects >= 1);
    assert!(stats.drains >= 2, "the wall clock must have driven idle drains");
}

#[test]
fn deregistration_races_an_open_networked_session() {
    // A device is deregistered (decommissioned, key revoked) while one of
    // its sessions is open over a live connection. The late submit must
    // get a structured session reject — not a panic, not a dropped
    // connection — and the connection must stay usable for other devices.
    let (fleet, mut devices) = fleet_with_devices(
        2,
        FleetConfig { workers: Some(1), shards: 1, ..FleetConfig::default() },
    );
    let handle = NetServer::spawn(
        fleet,
        NetConfig { drain_interval: Duration::from_millis(10), ..NetConfig::default() },
    )
    .unwrap();

    let mut client = NetClient::connect(handle.addr()).unwrap();
    let (doomed, doomed_dev) = &mut devices[0];
    let chal = client.request_challenge(doomed.0).unwrap().expect("grant");
    let proof = proof_for(doomed_dev, &chal);

    // The race, made deterministic: the admin closure runs on the core
    // thread, serialized with connection traffic, and `admin` blocks
    // until it has been applied — so the deregistration lands before the
    // submit below is processed.
    let doomed_id = *doomed;
    let expired = handle
        .admin(move |f| f.deregister_device(doomed_id))
        .expect("server alive")
        .expect("device was registered");
    assert_eq!(expired, 1, "the open session is expired by deregistration");

    let req = client.submit(proof).unwrap();
    match client.recv().unwrap() {
        Message::Reject(r) => {
            assert_eq!(r.request, req);
            assert_eq!(
                r.reason.class(),
                RejectClass::Session,
                "late submit must die at the session layer: {:?}",
                r.reason
            );
        }
        other => panic!("expected session reject, got {other:?}"),
    }

    // A fresh challenge for the deregistered device is refused too.
    let refused = client.request_challenge(doomed_id.0).unwrap();
    assert!(refused.is_err(), "deregistered device must not be granted a challenge");

    // The other device — same connection — is untouched.
    let (alive, alive_dev) = &mut devices[1];
    let chal = client.request_challenge(alive.0).unwrap().expect("grant");
    let req = client.submit(proof_for(alive_dev, &chal)).unwrap();
    match client.recv().unwrap() {
        Message::Verdict(v) => {
            assert_eq!(v.request, req);
            assert_eq!(v.body.report.verdict, Verdict::Clean, "{:?}", v.body.report);
        }
        other => panic!("expected verdict, got {other:?}"),
    }

    let (_, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(stats.protocol_errors, 0, "the race is not a protocol violation");
    assert!(
        stats.rejects_for(RejectClass::Session) >= 1,
        "the session-layer reject is accounted by class: {stats}"
    );
}
