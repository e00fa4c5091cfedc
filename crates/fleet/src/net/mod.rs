//! The networked fleet frontend: a hand-rolled TCP server speaking the
//! [`wire`](crate::wire) codec, so real devices (or simulated fleets) can
//! reach a [`Fleet`](crate::Fleet) over a socket instead of an in-process
//! call.
//!
//! # Architecture
//!
//! No async runtime exists in this build environment, so the server is
//! plain threads over blocking-with-timeout sockets:
//!
//! ```text
//!            ┌───────────┐   nonblocking accept loop
//!            │ acceptor  │── caps live connections, spawns per-conn pair
//!            └─────┬─────┘
//!        ┌─────────┼──────────┐
//!   ┌────▼───┐ ┌───▼────┐ ┌───▼────┐      one reader + one writer
//!   │ conn 0 │ │ conn 1 │ │ conn N │      thread per connection
//!   │ rd  wr │ │ rd  wr │ │ rd  wr │
//!   └──┬──▲──┘ └──┬──▲──┘ └──┬──▲──┘
//!      │  └───────┼──┴───────┼──┴─── encoded reply frames (mpsc)
//!      └──────────▼──────────▼────┐
//!                 │   core thread │  owns the Fleet: issues, submits,
//!                 │  (sole owner) │  sheds, drains, emits verdicts
//!                 └───────────────┘
//! ```
//!
//! * **Multiplexing.** Many devices share one connection; every request
//!   carries a client-chosen `request` id and every reply echoes it, so
//!   batch verdicts can return out of order (verification is batched —
//!   a submission's verdict arrives after the drain that verified it,
//!   interleaved with other devices' traffic on the same socket).
//! * **Hostile-input defense.** Each connection reads through a
//!   [`FrameReader`](crate::wire::FrameReader) with a frame-size cap
//!   ([`NetConfig::max_frame`]) and a stalled-frame deadline
//!   ([`NetConfig::idle_frame_timeout`], the slow-loris defense). Every
//!   violation is answered with a structured
//!   [`RejectMsg`](crate::wire::RejectMsg) before the connection closes.
//! * **Load shedding.** Before accepting a submission the core compares
//!   the target shard's [`ingest_depth`](crate::Shard::ingest_depth)
//!   against [`NetConfig::shed_watermark`] and answers
//!   [`RejectReason::Overloaded`] — explicit backpressure instead of
//!   unbounded queueing.
//! * **Work-conserving drains.** The core verifies as soon as proofs are
//!   pending: after each request it applies whatever else is already
//!   queued (up to [`NetConfig::drain_pending`] pending proofs, and for
//!   at most one [`NetConfig::drain_interval`] since the last drain),
//!   then drains. A lightly loaded core verifies each proof as it
//!   arrives; a busy one builds larger batches from the backlog a drain
//!   leaves. A flood of requests that add no proof (issues, shed
//!   submits) cannot push drains further apart than the interval.
//! * **Wall clock → logical clock.** The fleet's deadlines are logical
//!   ticks; the core derives `now` from elapsed wall time
//!   ([`NetConfig::tick`]) and sweeps every [`NetConfig::drain_interval`]
//!   — a drain even with no traffic, so sessions expire on real time,
//!   plus a prune of resolved sessions.
//! * **Graceful drain.** [`NetServerHandle::shutdown`] stops the
//!   acceptor, quiesces readers, lets the core chew through the command
//!   backlog (draining whatever it leaves pending, as it always does),
//!   flushes every in-flight verdict through the writers, and only then
//!   closes — no accepted submission loses its verdict. A final
//!   [`Fleet::drain`](crate::Fleet::drain) after the loop is a backstop
//!   that normally finds nothing owed. The `Fleet` comes back out for
//!   inspection or reuse.
//!
//! The module family: [`server`](self) core + acceptor live in
//! `server.rs`, per-connection reader/writer threads in `conn.rs`, the
//! shutdown lifecycle in `drain.rs`, and a small blocking [`NetClient`]
//! (tests, benches, soak harnesses) in `client.rs`.

mod client;
mod conn;
mod drain;
mod server;

pub use client::NetClient;
pub use drain::NetServerHandle;
pub use server::NetServer;

use crate::wire::ProofMsg;
use dialed::report::{RejectClass, RejectReason};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::time::Duration;

/// Tuning knobs for a [`NetServer`]. `Default` is sized for tests and
/// local soaks; production would raise the capacity knobs.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Bind address. Port 0 picks an ephemeral port (read it back from
    /// [`NetServerHandle::addr`]).
    pub bind: String,
    /// Per-frame payload cap in bytes; a frame announcing more is refused
    /// at its header (oversized-frame defense).
    pub max_frame: usize,
    /// Live-connection cap. Connections beyond it are answered with an
    /// [`Overloaded`](dialed::report::RejectReason::Overloaded) reject and
    /// closed without a thread being spawned.
    pub max_conns: usize,
    /// How long a connection may hold a frame incomplete before it is
    /// closed as a slow-loris writer. The clock starts when partial bytes
    /// arrive and only resets when a frame completes, so trickling one
    /// byte per poll does not defeat it.
    pub idle_frame_timeout: Duration,
    /// Granularity of accept/read polling (socket timeouts and the
    /// acceptor's idle sleep). Smaller is snappier shutdown, more wakeups.
    pub poll_interval: Duration,
    /// Per-shard ingest depth at which submissions are shed with
    /// [`Overloaded`](dialed::report::RejectReason::Overloaded).
    pub shed_watermark: usize,
    /// Flood cap: the fleet-wide pending count at which the core stops
    /// applying its queued requests and drains. The core drains as soon
    /// as its inbox is empty anyway; this only bounds how large a batch
    /// a backlog can build.
    pub drain_pending: usize,
    /// Sweep cadence: how often the core drains even when idle, so
    /// sessions expire on wall time, and prunes resolved sessions. Not a
    /// latency bound on a free core (it drains as soon as proofs are
    /// pending); on a busy core, the longest gap between drains.
    pub drain_interval: Duration,
    /// Wall-time length of one logical tick (the unit of the fleet's
    /// challenge deadlines).
    pub tick: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            bind: "127.0.0.1:0".to_string(),
            max_frame: 1 << 20,
            max_conns: 1024,
            idle_frame_timeout: Duration::from_secs(2),
            poll_interval: Duration::from_millis(5),
            shed_watermark: 4096,
            drain_pending: 512,
            drain_interval: Duration::from_millis(20),
            tick: Duration::from_millis(50),
        }
    }
}

/// Counter snapshot of a running (or finished) server; see
/// [`NetServerHandle::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted and given threads.
    pub conns_accepted: u64,
    /// Connections refused at the cap (answered `Overloaded`, closed).
    pub conns_shed: u64,
    /// Well-formed frames read off sockets.
    pub frames_in: u64,
    /// Frames written to sockets (grants, verdicts, rejects).
    pub frames_out: u64,
    /// Challenges granted.
    pub granted: u64,
    /// Submissions accepted into ingest (each owes a verdict).
    pub submitted: u64,
    /// Submissions shed at the ingest watermark (`Overloaded` replies).
    pub shed: u64,
    /// Session/registry-layer rejections (replays, duplicates, unknown
    /// principals, expired sessions at submit time).
    pub session_rejects: u64,
    /// Wire-protocol violations (bad magic/version, oversized or
    /// undecodable frames, stalled slow-loris frames, unexpected message
    /// types) — each answered with a structured reject, then closed.
    pub protocol_errors: u64,
    /// Verdict frames emitted after drains.
    pub verdicts: u64,
    /// In-flight submissions whose session expired before a drain
    /// resolved them (answered with an expiry reject).
    pub expired: u64,
    /// Drain passes run by the core.
    pub drains: u64,
    /// Every rejection this server produced, bucketed by
    /// [`RejectClass`] (indexed by [`RejectClass::index`]). Counts both
    /// pre-verification rejects (session violations, shed submissions,
    /// protocol errors, expiry) and post-drain verifier rejections, so a
    /// corpus replay over the network can account for every expected
    /// reject class exactly.
    pub rejects_by_class: [u64; RejectClass::ALL.len()],
}

impl NetStats {
    /// Rejections recorded for one [`RejectClass`].
    #[must_use]
    pub fn rejects_for(&self, class: RejectClass) -> u64 {
        self.rejects_by_class[class.index()]
    }

    /// Total rejections across every class.
    #[must_use]
    pub fn total_rejects(&self) -> u64 {
        self.rejects_by_class.iter().sum()
    }
}

impl std::fmt::Display for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conns {}/{} shed, frames {} in / {} out, granted {}, submitted {} \
             ({} shed, {} session-rejected, {} expired), verdicts {}, \
             protocol errors {}, drains {}",
            self.conns_accepted,
            self.conns_shed,
            self.frames_in,
            self.frames_out,
            self.granted,
            self.submitted,
            self.shed,
            self.session_rejects,
            self.expired,
            self.verdicts,
            self.protocol_errors,
            self.drains,
        )?;
        let mut sep = ", rejects by class: ";
        for class in RejectClass::ALL {
            let n = self.rejects_for(class);
            if n > 0 {
                write!(f, "{sep}{class} {n}")?;
                sep = ", ";
            }
        }
        Ok(())
    }
}

/// Live counters, shared by every server thread.
#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub(crate) conns_accepted: AtomicU64,
    pub(crate) conns_shed: AtomicU64,
    pub(crate) frames_in: AtomicU64,
    pub(crate) frames_out: AtomicU64,
    pub(crate) granted: AtomicU64,
    pub(crate) submitted: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) session_rejects: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) verdicts: AtomicU64,
    pub(crate) expired: AtomicU64,
    pub(crate) drains: AtomicU64,
    pub(crate) rejects_by_class: [AtomicU64; RejectClass::ALL.len()],
}

impl StatsInner {
    /// Buckets one rejection under its [`RejectClass`]. Every code path
    /// that emits a reject frame (or counts a shed connection) calls this
    /// exactly once, so the per-class counters sum to the rejects the
    /// server actually produced.
    pub(crate) fn note_reject(&self, reason: &RejectReason) {
        bump(&self.rejects_by_class[reason.class().index()]);
    }

    pub(crate) fn snapshot(&self) -> NetStats {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        NetStats {
            conns_accepted: get(&self.conns_accepted),
            conns_shed: get(&self.conns_shed),
            frames_in: get(&self.frames_in),
            frames_out: get(&self.frames_out),
            granted: get(&self.granted),
            submitted: get(&self.submitted),
            shed: get(&self.shed),
            session_rejects: get(&self.session_rejects),
            protocol_errors: get(&self.protocol_errors),
            verdicts: get(&self.verdicts),
            expired: get(&self.expired),
            drains: get(&self.drains),
            rejects_by_class: std::array::from_fn(|i| get(&self.rejects_by_class[i])),
        }
    }
}

pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// State shared by the acceptor, every connection thread, and the core.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) cfg: NetConfig,
    pub(crate) stop: AtomicBool,
    pub(crate) active_conns: AtomicU64,
    pub(crate) stats: StatsInner,
}

impl Shared {
    pub(crate) fn new(cfg: NetConfig) -> Self {
        Self {
            cfg,
            stop: AtomicBool::new(false),
            active_conns: AtomicU64::new(0),
            stats: StatsInner::default(),
        }
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Commands from connection readers (and the acceptor) to the core
/// thread, which is the sole owner of the [`Fleet`](crate::Fleet).
pub(crate) enum CoreMsg {
    /// A connection came up; `reply` feeds its writer thread.
    Register { conn: u64, reply: Sender<Vec<u8>> },
    /// A device asks for a challenge.
    Issue { conn: u64, request: u64, device: u64 },
    /// A device submits a proof for an open session.
    Submit { conn: u64, request: u64, body: ProofMsg },
    /// The peer went away (EOF, socket error, or a protocol violation) —
    /// the core forgets the connection and its undeliverable in-flight
    /// verdicts. *Not* sent when a reader quiesces for shutdown: those
    /// connections stay registered so shutdown's drains can still deliver.
    ConnClosed { conn: u64 },
    /// A management-plane operation against the live fleet (device
    /// deregistration, epoch rotation, …), run on the core thread between
    /// client requests — serialized with them, never concurrent. See
    /// [`NetServerHandle::admin`].
    Admin(Box<dyn FnOnce(&mut crate::Fleet) + Send>),
}

impl std::fmt::Debug for CoreMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreMsg::Register { conn, .. } => {
                f.debug_struct("Register").field("conn", conn).finish_non_exhaustive()
            }
            CoreMsg::Issue { conn, request, device } => f
                .debug_struct("Issue")
                .field("conn", conn)
                .field("request", request)
                .field("device", device)
                .finish(),
            CoreMsg::Submit { conn, request, body } => f
                .debug_struct("Submit")
                .field("conn", conn)
                .field("request", request)
                .field("session", &body.session)
                .finish_non_exhaustive(),
            CoreMsg::ConnClosed { conn } => {
                f.debug_struct("ConnClosed").field("conn", conn).finish()
            }
            CoreMsg::Admin(_) => f.debug_struct("Admin").finish_non_exhaustive(),
        }
    }
}
