//! The TCP path: the service behind `fleet::net` on loopback, driven by
//! the closed-loop and open-loop clients.

use crate::gen::Pool;
use crate::stats::Tally;
use crate::world::{self, SplitMix64, StateDir};
use dialed::pipeline::InstrumentMode;
use dialed::report::RejectClass;
use fleet::wire::{self, FrameReader, IssueMsg, Message, ProofMsg, SubmitMsg};
use fleet::{NetConfig, NetServer, NetServerHandle, NetStats};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a client waits on a silent socket before failing the run.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One client connection: raw frames through the wire codec.
pub struct Conn {
    sock: TcpStream,
    frames: FrameReader,
    buf: Vec<u8>,
    out: Vec<u8>,
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        sock.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Self { sock, frames: FrameReader::new(1 << 20), buf: vec![0; 1 << 16], out: Vec::new() })
    }

    fn queue(&mut self, msg: &Message) {
        self.out.extend_from_slice(&wire::encode(msg));
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.out.is_empty() {
            self.sock.write_all(&self.out)?;
            self.out.clear();
        }
        Ok(())
    }

    /// Blocks until at least one message arrives; appends every message
    /// already decodable.
    fn recv(&mut self, into: &mut Vec<Message>) -> io::Result<()> {
        loop {
            while let Some(msg) = self.frames.poll().map_err(invalid)? {
                into.push(msg);
            }
            if !into.is_empty() {
                return Ok(());
            }
            let n = self.sock.read(&mut self.buf)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.frames.feed(&self.buf[..n]);
        }
    }
}

/// What one TCP phase observed.
#[derive(Default)]
pub struct Phase {
    pub tally: Tally,
    /// Issue (scheduled) → verdict, per completed attestation.
    pub lat_ms: Vec<f64>,
    /// Issue sent → grant received (traced phases only).
    pub rtt_ms: Vec<f64>,
    /// Open loop: how late each issue left against its schedule.
    pub lag_ms: Vec<f64>,
    /// Granted `(device, round)` pairs in grant order — the order the
    /// service consumed each device's nonces (traced phases only).
    pub traffic: Vec<(u32, u32)>,
    pub wall: f64,
    pub exhausted: bool,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.tally.merge(other.tally);
        self.lat_ms.extend(other.lat_ms);
        self.rtt_ms.extend(other.rtt_ms);
        self.lag_ms.extend(other.lag_ms);
        self.traffic.extend(other.traffic);
        self.exhausted |= other.exhausted;
    }
}

/// Closed loop over one connection: each device in `devs` runs
/// Issue → Grant → Submit → Verdict and starts its next round as soon as
/// its verdict arrives, from round `first` until `deadline` (or, with no
/// deadline, for exactly one round).
fn closed_lane(
    conn: &mut Conn,
    pool: &Pool,
    devs: &[usize],
    first: usize,
    deadline: Option<Instant>,
    trace: bool,
) -> io::Result<(Phase, Instant)> {
    let last_round = if deadline.is_some() { pool.rounds } else { first + 1 };
    let mut out = Phase::default();
    let mut round = vec![first; devs.len()];
    let mut sent = vec![Instant::now(); devs.len()];
    // Request id → lane-local device index.
    let mut owner: Vec<u32> = vec![u32::MAX];
    let mut last = Instant::now();
    let mut outstanding = devs.len();

    let issue = |conn: &mut Conn, owner: &mut Vec<u32>, sent: &mut [Instant], i: usize| {
        let request = owner.len() as u64;
        owner.push(i as u32);
        conn.queue(&Message::Issue(IssueMsg { request, device: pool.devices[devs[i]].id.0 }));
        sent[i] = Instant::now();
    };
    for i in 0..devs.len() {
        issue(conn, &mut owner, &mut sent, i);
    }
    conn.flush()?;

    let mut msgs = Vec::new();
    while outstanding > 0 {
        conn.recv(&mut msgs)?;
        for msg in msgs.drain(..) {
            let request = match &msg {
                Message::Grant(g) => g.request,
                Message::Verdict(v) => v.request,
                Message::Reject(r) => r.request,
                other => return Err(invalid(format!("unexpected server message {other:?}"))),
            };
            let Some(&i) = owner.get(request as usize).filter(|&&i| i != u32::MAX) else {
                return Err(invalid(format!("reply to unknown request {request}: {msg:?}")));
            };
            let i = i as usize;
            let (d, r) = (devs[i], round[i]);
            let what = || format!("device {d} round {r}");
            let now = Instant::now();
            let resolved = match msg {
                Message::Grant(g) => {
                    let expected = &pool.devices[d].rounds[r];
                    if g.body.challenge != expected.challenge
                        || g.body.nonce != expected.nonce
                        || g.body.device != pool.devices[d].id.0
                    {
                        out.tally.attempted += 1;
                        out.tally.mismatch(format!(
                            "{}: granted challenge differs from the generator's (nonce {} vs {})",
                            what(),
                            g.body.nonce,
                            expected.nonce
                        ));
                        outstanding -= 1;
                        continue;
                    }
                    if trace {
                        out.rtt_ms.push((now - sent[i]).as_secs_f64() * 1e3);
                        out.traffic.push((d as u32, r as u32));
                    }
                    let request = owner.len() as u64;
                    owner.push(i as u32);
                    let body = ProofMsg {
                        session: g.body.session,
                        device: g.body.device,
                        proof: pool.submission(d, r),
                    };
                    conn.queue(&Message::Submit(SubmitMsg { request, body }));
                    false
                }
                Message::Verdict(v) => {
                    let before = out.tally.completed;
                    out.tally.report(pool.expect(d, r), &v.body.report, what);
                    if out.tally.completed > before {
                        out.lat_ms.push((now - sent[i]).as_secs_f64() * 1e3);
                    }
                    true
                }
                Message::Reject(rej) => {
                    out.tally.reject(pool.expect(d, r), &rej.reason, what);
                    true
                }
                _ => unreachable!("filtered above"),
            };
            if resolved {
                last = now;
                round[i] += 1;
                let more = deadline.is_some_and(|dl| now < dl);
                if more && round[i] < last_round {
                    issue(conn, &mut owner, &mut sent, i);
                } else {
                    out.exhausted |= more;
                    outstanding -= 1;
                }
            }
        }
        conn.flush()?;
    }
    Ok((out, last))
}

/// Closed loop over every connection at once, one client thread each;
/// device `d` rides connection `d % conns.len()`.
pub fn closed_loop(
    conns: &mut [Conn],
    pool: &Pool,
    first: usize,
    seconds: Option<f64>,
    trace: bool,
) -> io::Result<Phase> {
    let t0 = Instant::now();
    let deadline = seconds.map(|s| t0 + Duration::from_secs_f64(s));
    let lanes = conns.len();
    let results: Vec<io::Result<(Phase, Instant)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(k, conn)| {
                let devs: Vec<usize> = (k..world::DEVICES).step_by(lanes).collect();
                scope.spawn(move || closed_lane(conn, pool, &devs, first, deadline, trace))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut phase = Phase::default();
    let mut last = t0;
    for r in results {
        let (p, l) = r?;
        phase.merge(p);
        last = last.max(l);
    }
    phase.wall = (last - t0).as_secs_f64();
    Ok(phase)
}

/// One scheduled arrival of the open loop.
pub struct Arrival {
    due: Duration,
    dev: u32,
    round: u32,
}

/// Poisson arrivals at `rate` per second for `seconds`, cycling through
/// the devices in a seeded order; each arrival is the device's next
/// round, starting at round 1. Returns the schedule and the pool rounds
/// it needs.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> (Vec<Arrival>, usize) {
    let mut rng = SplitMix64::new(seed ^ 0x5C4E_D01E);
    let mut order: Vec<u32> = (0..world::DEVICES as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut next_round = vec![1u32; world::DEVICES];
    let mut t = 0.0;
    let mut sched = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            break;
        }
        let dev = order[sched.len() % order.len()];
        let round = next_round[dev as usize];
        next_round[dev as usize] += 1;
        sched.push(Arrival { due: Duration::from_secs_f64(t), dev, round });
    }
    let rounds = next_round.iter().max().map_or(1, |&r| r as usize);
    (sched, rounds)
}

/// Open loop over one connection: a writer thread sends each Issue at
/// its scheduled time; this thread reads grants (and answers them with
/// the precomputed proof) and verdicts. Latency counts from the
/// *scheduled* issue time, so a late generator cannot hide a stall.
pub fn open_loop(
    conn: &mut Conn,
    pool: &Pool,
    sched: &[Arrival],
    trace: bool,
) -> io::Result<Phase> {
    let writer = Mutex::new(conn.sock.try_clone()?);
    let sent_ns: Vec<AtomicU64> = sched.iter().map(|_| AtomicU64::new(0)).collect();
    let t0 = Instant::now() + Duration::from_millis(1);
    let mut out = Phase::default();
    let write = |bytes: &[u8]| writer.lock().expect("writer lock poisoned").write_all(bytes);

    let (lags, read) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> io::Result<Vec<f64>> {
            let mut lags = Vec::with_capacity(sched.len());
            for (i, a) in sched.iter().enumerate() {
                let due = t0 + a.due;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let at = Instant::now();
                lags.push((at - due).as_secs_f64() * 1e3);
                sent_ns[i].store((at - t0).as_nanos() as u64, Ordering::Relaxed);
                let device = pool.devices[a.dev as usize].id.0;
                write(&wire::encode(&Message::Issue(IssueMsg {
                    request: 2 * i as u64 + 1,
                    device,
                })))?;
            }
            Ok(lags)
        });

        let mut read = || -> io::Result<Instant> {
            let mut msgs = Vec::new();
            let mut resolved = 0;
            let mut last = t0;
            while resolved < sched.len() {
                conn.recv(&mut msgs)?;
                for msg in msgs.drain(..) {
                    let request = match &msg {
                        Message::Grant(g) => g.request,
                        Message::Verdict(v) => v.request,
                        Message::Reject(r) => r.request,
                        other => {
                            return Err(invalid(format!("unexpected server message {other:?}")))
                        }
                    };
                    // Issue `i` is request 2i + 1, its submit 2i + 2;
                    // request 0 is a connection-level reject.
                    let Some(i) =
                        request.checked_sub(1).map(|r| r as usize / 2).filter(|&i| i < sched.len())
                    else {
                        return Err(invalid(format!("reply to unknown request {request}")));
                    };
                    let a = &sched[i];
                    let (d, r) = (a.dev as usize, a.round as usize);
                    let what = || format!("device {d} round {r}");
                    let now = Instant::now();
                    match msg {
                        Message::Grant(g) => {
                            let expected = &pool.devices[d].rounds[r];
                            if g.body.challenge != expected.challenge
                                || g.body.nonce != expected.nonce
                            {
                                out.tally.attempted += 1;
                                out.tally.mismatch(format!(
                                    "{}: granted challenge differs from the generator's",
                                    what()
                                ));
                                resolved += 1;
                                continue;
                            }
                            if trace {
                                let sent =
                                    t0 + Duration::from_nanos(sent_ns[i].load(Ordering::Relaxed));
                                out.rtt_ms.push((now - sent).as_secs_f64() * 1e3);
                                out.traffic.push((d as u32, r as u32));
                            }
                            let body = ProofMsg {
                                session: g.body.session,
                                device: g.body.device,
                                proof: pool.submission(d, r),
                            };
                            let submit = SubmitMsg { request: 2 * i as u64 + 2, body };
                            write(&wire::encode(&Message::Submit(submit)))?;
                        }
                        Message::Verdict(v) => {
                            let before = out.tally.completed;
                            out.tally.report(pool.expect(d, r), &v.body.report, what);
                            if out.tally.completed > before {
                                out.lat_ms.push((now - (t0 + a.due)).as_secs_f64() * 1e3);
                            }
                            resolved += 1;
                            last = now;
                        }
                        Message::Reject(rej) => {
                            out.tally.reject(pool.expect(d, r), &rej.reason, what);
                            resolved += 1;
                            last = now;
                        }
                        _ => unreachable!("filtered above"),
                    }
                }
            }
            Ok(last)
        };
        let read = read();
        let lags = sender.join().expect("generator thread panicked");
        (lags, read)
    });
    out.lag_ms = lags?;
    out.wall = (read? - t0).as_secs_f64();
    Ok(out)
}

/// A running service: the server, its state directory and the client
/// connections, plus every outcome its clients saw (for the
/// reject-class cross-check at shutdown).
pub struct Service {
    handle: NetServerHandle,
    dir: PathBuf,
    pub conns: Vec<Conn>,
    pub seen: Tally,
}

/// The service's set-up over TCP: build the ops, create the durable
/// fleet, register ops and devices, spawn the server, connect the
/// clients and run the warm-up round (round 0). Returns the service and
/// the set-up's wall time.
pub fn setup(
    pool: &Pool,
    mode: InstrumentMode,
    seed: u64,
    state: &mut StateDir,
    conns: usize,
) -> io::Result<(Service, f64)> {
    let t = Instant::now();
    let dir = state.fresh();
    let (fleet, ids) = world::build_fleet(world::build_apps(mode), seed, Some(&dir));
    assert!(
        ids.iter().zip(&pool.devices).all(|(a, b)| *a == b.id),
        "service and generator twin registered different device ids"
    );
    let handle = NetServer::spawn(fleet, NetConfig::default())?;
    let mut conns =
        (0..conns).map(|_| Conn::connect(handle.addr())).collect::<io::Result<Vec<_>>>()?;
    let warm = closed_loop(&mut conns, pool, 0, None, false)?;
    let elapsed = t.elapsed().as_secs_f64();
    Ok((Service { handle, dir, conns, seen: warm.tally }, elapsed))
}

impl Service {
    pub fn stats(&self) -> NetStats {
        self.handle.stats()
    }

    /// Graceful shutdown. Fails the run if a server thread panicked or the
    /// server's per-class reject counters disagree with what the clients
    /// saw. Returns the fleet's digest-cache stats and the final counters.
    pub fn shutdown(self) -> Result<(fleet::DigestCacheStats, NetStats), String> {
        let Service { handle, dir, conns, seen } = self;
        drop(conns);
        let result = handle.shutdown();
        StateDir::discard(&dir);
        let (fleet, stats) = result.map_err(|_| "a server thread panicked".to_string())?;
        for class in RejectClass::ALL {
            let (server, client) = (stats.rejects_for(class), seen.rejects[class.index()]);
            if server != client {
                return Err(format!(
                    "server counted {server} `{class}` rejects, clients saw {client}"
                ));
            }
        }
        Ok((fleet.digest_cache_stats(), stats))
    }
}
