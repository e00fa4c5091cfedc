//! Shared measurement helpers for the figure/table regeneration benches.
//!
//! Every bench target in `benches/` is a `harness = false` binary that
//! prints the corresponding table or figure series of the DIALED paper;
//! `cargo bench -p dialed-bench` therefore regenerates the full evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use apex::pox::StopReason;
use apps::Scenario;
use dialed::pipeline::{InstrumentMode, InstrumentedOp};
use dialed::prelude::*;

/// One measured configuration of one application.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Operation code size in bytes (Fig. 6a).
    pub code_bytes: usize,
    /// CPU cycles of the attested run (Fig. 6b).
    pub cycles: u64,
    /// Executed instructions.
    pub insns: usize,
    /// OR bytes consumed by the logs (Fig. 6c).
    pub log_bytes: usize,
}

/// Builds and runs `scenario` in `mode`, returning the paper's three
/// metrics.
///
/// # Panics
///
/// Panics if the app fails to build or run — these are fixed workloads, so
/// that is a harness bug.
#[must_use]
pub fn measure(scenario: &Scenario, mode: InstrumentMode) -> Measurement {
    let op = scenario.build(mode);
    let code_bytes = op.code_size();
    let ks = KeyStore::from_seed(0xBEEF);
    let mut dev = DialedDevice::new(op, ks);
    (scenario.feed)(dev.platform_mut());
    let info = dev.invoke(&scenario.args);
    assert_eq!(
        info.stop,
        StopReason::ReachedStop,
        "{} did not complete in mode {mode:?}: {:?}",
        scenario.name,
        dev.violation()
    );
    Measurement {
        code_bytes,
        cycles: info.cycles,
        insns: info.insns,
        log_bytes: info.log_bytes_used,
    }
}

/// Builds, runs *and verifies* a scenario end to end; returns the
/// verification report (used by the micro benches and smoke checks).
///
/// # Panics
///
/// Panics when the run does not complete.
#[must_use]
pub fn run_and_verify(scenario: &Scenario) -> Report {
    let op = scenario.build(InstrumentMode::Full);
    let ks = KeyStore::from_seed(0xF00D);
    let mut dev = DialedDevice::new(op.clone(), ks.clone());
    (scenario.feed)(dev.platform_mut());
    let info = dev.invoke(&scenario.args);
    assert_eq!(info.stop, StopReason::ReachedStop);
    let chal = Challenge::derive(b"bench", 1);
    let proof = dev.prove(&chal);
    let mut verifier = DialedVerifier::new(op, ks);
    for p in (scenario.policies)() {
        verifier = verifier.with_policy(p);
    }
    verifier.verify(&VerifyRequest::new(&proof, &chal))
}

/// Returns an [`InstrumentedOp`] for a scenario (bench setup helper).
///
/// # Panics
///
/// Panics if the app fails to build.
#[must_use]
pub fn build_op(scenario: &Scenario, mode: InstrumentMode) -> InstrumentedOp {
    scenario.build(mode)
}

/// An end-to-end fleet benchmark over the TCP frontend: a
/// [`NetServer`](fleet::NetServer) on loopback, `conns` client
/// connections each multiplexing a slice of the device population.
///
/// Measures the full networked path — wire encode, socket, frame
/// reassembly, core dispatch, sharded batch drain, verdict delivery — so
/// its devices/sec sits next to the in-process `fleet_throughput` number
/// as the "what the network layer costs" comparison.
pub struct NetFleetBench {
    handle: Option<fleet::NetServerHandle>,
    lanes: Vec<NetLane>,
    devices: usize,
}

struct NetLane {
    client: fleet::NetClient,
    devices: Vec<(fleet::DeviceId, DialedDevice)>,
}

/// One full round for one lane: pipelined issues, then pipelined
/// submissions, then every verdict. Returns how many verdicts were clean.
fn lane_round(lane: &mut NetLane) -> usize {
    use fleet::wire::Message;
    let mut issue_reqs = std::collections::HashMap::new();
    for (i, (id, _)) in lane.devices.iter().enumerate() {
        issue_reqs.insert(lane.client.issue(id.0).expect("send issue"), i);
    }
    let mut chals: Vec<Option<fleet::ChallengeMsg>> = vec![None; lane.devices.len()];
    for _ in 0..lane.devices.len() {
        match lane.client.recv().expect("grant") {
            Message::Grant(g) => chals[issue_reqs[&g.request]] = Some(g.body),
            other => panic!("expected grant, got {other:?}"),
        }
    }
    for (i, chal) in chals.into_iter().enumerate() {
        let chal = chal.expect("every device granted");
        let (id, dev) = &mut lane.devices[i];
        let proof = dev.prove(&chal.challenge);
        lane.client
            .submit(fleet::ProofMsg { session: chal.session, device: id.0, proof })
            .expect("send submit");
    }
    let mut clean = 0;
    for _ in 0..lane.devices.len() {
        match lane.client.recv().expect("verdict") {
            Message::Verdict(v) => {
                assert!(v.body.report.verdict == dialed::report::Verdict::Clean, "{v:?}");
                clean += 1;
            }
            other => panic!("expected verdict, got {other:?}"),
        }
    }
    clean
}

impl NetFleetBench {
    /// Provisions `devices` simulators of `scenario` in `mode`, spawns
    /// the server, connects `conns` lanes, and smoke-checks one round.
    ///
    /// # Panics
    ///
    /// Panics if the server cannot start or the smoke round does not
    /// verify every device.
    #[must_use]
    pub fn new(scenario: &Scenario, mode: InstrumentMode, devices: usize, conns: usize) -> Self {
        let op = scenario.build(mode);
        let mut fleet = fleet::Fleet::new(fleet::FleetConfig {
            workers: Some(4),
            shards: 4,
            // Rounds are wall-clock short; keep logical expiry out of the
            // measurement.
            challenge_ttl: 1 << 40,
            ..fleet::FleetConfig::default()
        });
        let op_id = fleet.register_op(scenario.name, op.clone(), (scenario.policies)());
        let mut lanes: Vec<Vec<(fleet::DeviceId, DialedDevice)>> =
            (0..conns).map(|_| Vec::new()).collect();
        for i in 0..devices {
            let id = fleet.register_device(op_id, 0x2E7 + i as u64).expect("op registered");
            let mut dev = DialedDevice::new(op.clone(), fleet.device_keystore(id).expect("device"));
            (scenario.feed)(dev.platform_mut());
            let info = dev.invoke(&scenario.args);
            assert_eq!(info.stop, StopReason::ReachedStop, "{}", scenario.name);
            lanes[i % conns].push((id, dev));
        }
        let handle = fleet::NetServer::spawn(fleet, fleet::NetConfig::default())
            .expect("bind loopback server");
        let lanes = lanes
            .into_iter()
            .map(|devices| NetLane {
                client: fleet::NetClient::connect(handle.addr()).expect("connect"),
                devices,
            })
            .collect();
        let mut bench = Self { handle: Some(handle), lanes, devices };
        assert_eq!(bench.round(), devices, "smoke round must verify every device");
        bench
    }

    /// One complete attestation round for every device, all lanes in
    /// parallel. Returns the number of clean verdicts.
    ///
    /// # Panics
    ///
    /// Panics on any socket error or non-clean verdict.
    pub fn round(&mut self) -> usize {
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                self.lanes.iter_mut().map(|lane| scope.spawn(|| lane_round(lane))).collect();
            handles.into_iter().map(|h| h.join().expect("lane panicked")).sum()
        })
    }

    /// The provisioned device count (one round = this many attestations).
    #[must_use]
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Runs timed rounds for roughly `budget`, returning sustained
    /// devices/sec (at least one round always runs).
    ///
    /// # Panics
    ///
    /// Propagates [`round`](Self::round) panics.
    pub fn sustained_devices_per_sec(&mut self, budget: std::time::Duration) -> f64 {
        let start = std::time::Instant::now();
        let mut attested = 0usize;
        while attested == 0 || start.elapsed() < budget {
            attested += self.round();
        }
        attested as f64 / start.elapsed().as_secs_f64()
    }

    /// Graceful shutdown; panics if any server thread panicked.
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked (the zero-panic contract).
    pub fn finish(mut self) -> fleet::NetStats {
        let handle = self.handle.take().expect("finish called once");
        drop(std::mem::take(&mut self.lanes));
        let (_, stats) = handle.shutdown().expect("no server thread may panic");
        stats
    }
}

/// Formats a percentage delta for table printing.
#[must_use]
pub fn pct(new: f64, old: f64) -> String {
    if old == 0.0 {
        return "–".to_string();
    }
    format!("{:+.0}%", 100.0 * (new - old) / old)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_cover_all_scenarios() {
        for s in apps::scenarios() {
            let m = measure(&s, InstrumentMode::Full);
            assert!(m.code_bytes > 0 && m.cycles > 0 && m.log_bytes > 0, "{}", s.name);
        }
    }

    #[test]
    fn end_to_end_verification_is_clean_for_all_scenarios() {
        for s in apps::scenarios() {
            let report = run_and_verify(&s);
            assert!(report.is_clean(), "{}: {report}", s.name);
        }
    }
}
