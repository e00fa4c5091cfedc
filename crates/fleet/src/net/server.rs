//! The acceptor loop and the core thread — the half of the frontend that
//! owns the [`Fleet`].

use super::conn;
use super::drain::{ConnThreads, NetServerHandle};
use super::{bump, CoreMsg, NetConfig, Shared};
use crate::wire::{self, GrantMsg, Message, RejectMsg, VerdictMsg};
use crate::{DeviceId, Fleet, SessionId, SessionState};
use dialed::report::RejectReason;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

/// The TCP frontend. A unit struct: [`spawn`](NetServer::spawn) is the
/// whole API — it consumes a [`Fleet`] and returns a running server.
#[derive(Debug)]
pub struct NetServer;

impl NetServer {
    /// Binds `cfg.bind`, takes ownership of `fleet`, and starts the
    /// acceptor + core threads. The fleet is returned by
    /// [`NetServerHandle::shutdown`].
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind or the threads cannot spawn.
    pub fn spawn(fleet: Fleet, cfg: NetConfig) -> io::Result<NetServerHandle> {
        let listener = TcpListener::bind(&cfg.bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared::new(cfg));
        let threads = Arc::new(Mutex::new(ConnThreads::default()));
        let (core_tx, core_rx) = mpsc::channel::<CoreMsg>();

        let acceptor = {
            let shared = Arc::clone(&shared);
            let threads = Arc::clone(&threads);
            let core_tx = core_tx.clone();
            thread::Builder::new()
                .name("fleet-net-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared, &threads, &core_tx))?
        };

        let core = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("fleet-net-core".into())
                .spawn(move || Core::new(fleet, shared).run(&core_rx))?
        };

        Ok(NetServerHandle::new(addr, shared, threads, core_tx, acceptor, core))
    }
}

/// Accepts connections until the stop flag rises, shedding past the
/// connection cap and reaping finished connection threads as it goes.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    threads: &Arc<Mutex<ConnThreads>>,
    core_tx: &Sender<CoreMsg>,
) {
    let mut next_conn: u64 = 1;
    while !shared.stopping() {
        match listener.accept() {
            Ok((sock, _peer)) => {
                threads.lock().expect("conn thread registry poisoned").reap();
                let active = shared.active_conns.load(Ordering::Acquire);
                if active >= shared.cfg.max_conns as u64 {
                    bump(&shared.stats.conns_shed);
                    shed_connection(sock, active, shared);
                    continue;
                }
                let conn = next_conn;
                next_conn += 1;
                shared.active_conns.fetch_add(1, Ordering::AcqRel);
                match conn::spawn_conn(conn, sock, Arc::clone(shared), core_tx.clone()) {
                    Ok(pair) => {
                        bump(&shared.stats.conns_accepted);
                        threads.lock().expect("conn thread registry poisoned").push(pair);
                    }
                    Err(_) => {
                        // Thread spawn failed (resource exhaustion): the
                        // socket is already dropped; undo the slot.
                        shared.active_conns.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(shared.cfg.poll_interval);
            }
            Err(_) => thread::sleep(shared.cfg.poll_interval),
        }
    }
}

/// Tells a connection past the cap why it is being turned away: one
/// `Overloaded` reject frame, best-effort, then close.
fn shed_connection(mut sock: TcpStream, active: u64, shared: &Arc<Shared>) {
    let reason = RejectReason::Overloaded { pending: active };
    shared.stats.note_reject(&reason);
    let frame = wire::encode(&Message::Reject(RejectMsg { request: 0, reason }));
    let _ = sock.set_write_timeout(Some(shared.cfg.poll_interval));
    if sock.write_all(&frame).is_ok() {
        bump(&shared.stats.frames_out);
    }
}

/// The core: sole owner of the [`Fleet`], fed by every reader thread.
struct Core {
    fleet: Fleet,
    shared: Arc<Shared>,
    /// Reply channels of live connections, keyed by connection id.
    replies: HashMap<u64, Sender<Vec<u8>>>,
    /// Accepted-but-unresolved submissions: session id → who gets the
    /// verdict. Every entry is owed exactly one reply frame.
    inflight: HashMap<u64, (u64, u64)>,
    start: Instant,
}

impl Core {
    fn new(fleet: Fleet, shared: Arc<Shared>) -> Self {
        Self {
            fleet,
            shared,
            replies: HashMap::new(),
            inflight: HashMap::new(),
            start: Instant::now(),
        }
    }

    /// Wall clock → logical ticks (the unit of session deadlines).
    fn now(&self) -> u64 {
        let tick = self.shared.cfg.tick.as_nanos().max(1);
        u64::try_from(self.start.elapsed().as_nanos() / tick).unwrap_or(u64::MAX)
    }

    /// Processes commands until every sender is gone, then runs the final
    /// drain and flushes in-flight verdicts. Returns the fleet to the
    /// shutdown path.
    ///
    /// Work-conserving: after each command the core applies everything
    /// already queued behind it — until the inbox is empty,
    /// [`NetConfig::drain_pending`] proofs are pending, or
    /// [`NetConfig::drain_interval`] has passed since the last drain — and
    /// then drains whatever is pending. A verdict never waits on a timer
    /// while the core is free, and a busy core still drains at least once
    /// per interval, as a timer-driven one would. Under load the backlog
    /// grows between drains, and so do the batches. The interval also
    /// paces the sweeps: a drain on an idle server (wall-clock expiry)
    /// and the pruning of resolved sessions.
    ///
    /// Once every sender is gone the loop has already drained whatever
    /// the backlog left pending, so the final drain is a backstop.
    fn run(mut self, rx: &Receiver<CoreMsg>) -> Fleet {
        let (interval, cap) = (self.shared.cfg.drain_interval, self.shared.cfg.drain_pending);
        let mut last_sweep = Instant::now();
        let mut last_drain = last_sweep;
        loop {
            match rx.recv_timeout(interval) {
                Ok(msg) => {
                    let now = self.now();
                    self.handle(msg, now);
                    // Requests that add no pending proof (issues, shed
                    // submits, admin calls) never reach the cap, so the
                    // interval bounds the loop too: a flood of them
                    // cannot hold back a verdict already owed.
                    while self.fleet.pending() < cap && last_drain.elapsed() < interval {
                        let Ok(msg) = rx.try_recv() else { break };
                        let now = self.now();
                        self.handle(msg, now);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                // All senders gone: the acceptor, every reader, and the
                // handle have dropped theirs — and the channel is empty,
                // so the whole backlog has been applied. Shut down.
                Err(RecvTimeoutError::Disconnected) => break,
            }
            let sweep = last_sweep.elapsed() >= interval;
            if sweep || self.fleet.pending() > 0 {
                self.drain();
                last_drain = Instant::now();
            }
            if sweep {
                // Pruning scans every retained session and commits a
                // durable record per shard, so it runs at the sweep
                // cadence rather than after every drain.
                let now = self.now();
                self.fleet.prune_resolved(now);
                last_sweep = Instant::now();
            }
        }
        // Backstop: the loop drained before it could see the disconnect,
        // so nothing should be owed; resolve and emit anything that is.
        // Dropping `replies` afterwards lets the writers flush and exit.
        self.drain();
        debug_assert!(self.inflight.is_empty(), "final drain left verdicts unemitted");
        self.fleet
    }

    fn handle(&mut self, msg: CoreMsg, now: u64) {
        match msg {
            CoreMsg::Register { conn, reply } => {
                self.replies.insert(conn, reply);
            }
            CoreMsg::ConnClosed { conn } => {
                self.replies.remove(&conn);
                // Undeliverable verdicts die with the connection.
                self.inflight.retain(|_, &mut (c, _)| c != conn);
            }
            CoreMsg::Admin(f) => f(&mut self.fleet),
            CoreMsg::Issue { conn, request, device } => {
                match self.fleet.issue(DeviceId(device), now) {
                    Ok(body) => {
                        bump(&self.shared.stats.granted);
                        self.send(conn, &Message::Grant(GrantMsg { request, body }));
                    }
                    Err(e) => {
                        bump(&self.shared.stats.session_rejects);
                        self.reject(conn, request, e.into());
                    }
                }
            }
            CoreMsg::Submit { conn, request, body } => {
                // Backpressure before acceptance: if the target shard is
                // already past the watermark, shedding now (with the
                // observed depth) beats queueing work the drain cannot
                // chew through in time.
                let shard =
                    usize::try_from(body.session).unwrap_or(usize::MAX) % self.fleet.shards().len();
                let depth = self.fleet.shards()[shard].ingest_depth();
                if depth >= self.shared.cfg.shed_watermark {
                    bump(&self.shared.stats.shed);
                    self.reject(conn, request, RejectReason::Overloaded { pending: depth as u64 });
                    return;
                }
                let (session, device) = (SessionId(body.session), DeviceId(body.device));
                match self.fleet.submit(session, device, body.proof, now) {
                    Ok(()) => {
                        bump(&self.shared.stats.submitted);
                        self.inflight.insert(body.session, (conn, request));
                    }
                    Err(e) => {
                        bump(&self.shared.stats.session_rejects);
                        self.reject(conn, request, e.into());
                    }
                }
            }
        }
    }

    /// One verification pass: expire + drain the fleet, then resolve the
    /// in-flight table — verdict frames for sessions the batch engines
    /// settled, expiry rejects for sessions the clock killed first.
    fn drain(&mut self) {
        let now = self.now();
        let _ = self.fleet.drain(now);
        bump(&self.shared.stats.drains);

        let fleet = &self.fleet;
        let replies = &self.replies;
        let stats = &self.shared.stats;
        self.inflight.retain(|&session, &mut (conn, request)| {
            let Some(s) = fleet.session(SessionId(session)) else {
                return false; // pruned — nothing left to report
            };
            match s.state {
                // Still queued (a shed-heavy drain can leave work; the
                // next pass picks it up).
                SessionState::Issued | SessionState::Submitted => true,
                SessionState::Verified | SessionState::Rejected => {
                    if let Some(body) = fleet.report_msg(SessionId(session)) {
                        bump(&stats.verdicts);
                        // A rejected verdict is a reject the server
                        // produced: bucket it under the verifier's own
                        // reason class so network replays can account
                        // for every expected rejection exactly.
                        if s.state == SessionState::Rejected {
                            if let Some(reason) =
                                body.report.findings.iter().find_map(|f| match f {
                                    dialed::report::Finding::PoxRejected { reason } => Some(reason),
                                    _ => None,
                                })
                            {
                                stats.note_reject(reason);
                            }
                        }
                        send_to(replies, conn, &Message::Verdict(VerdictMsg { request, body }));
                    }
                    false
                }
                SessionState::Expired => {
                    bump(&stats.expired);
                    let reason =
                        RejectReason::from(crate::SessionError::Expired { deadline: s.deadline });
                    stats.note_reject(&reason);
                    send_to(replies, conn, &Message::Reject(RejectMsg { request, reason }));
                    false
                }
            }
        });
    }

    fn send(&self, conn: u64, msg: &Message) {
        send_to(&self.replies, conn, msg);
    }

    fn reject(&self, conn: u64, request: u64, reason: RejectReason) {
        self.shared.stats.note_reject(&reason);
        self.send(conn, &Message::Reject(RejectMsg { request, reason }));
    }
}

/// Hands an encoded frame to a connection's writer; a vanished writer
/// (peer already gone) just drops the frame.
fn send_to(replies: &HashMap<u64, Sender<Vec<u8>>>, conn: u64, msg: &Message) {
    if let Some(tx) = replies.get(&conn) {
        let _ = tx.send(wire::encode(msg));
    }
}
