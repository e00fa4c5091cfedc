//! Per-connection reader and writer threads.
//!
//! The reader pulls bytes through a [`FrameReader`] (frame-size cap,
//! fail-fast magic/version checks) and forwards decoded requests to the
//! core; the writer serialises reply frames from an unbounded channel so
//! the reader — and, more importantly, the core — never blocks on a slow
//! peer's send buffer. One connection carries any number of devices.

use super::{bump, CoreMsg, Shared};
use crate::wire::{self, Message, RejectMsg};
use dialed::report::RejectReason;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Why the reader loop ended — decides whether the core should forget
/// the connection or keep it for the final-drain verdict flush.
enum Exit {
    /// Peer closed, errored, or violated the protocol: the connection is
    /// dead, its in-flight verdicts are undeliverable.
    Peer,
    /// Server shutdown: the socket is still healthy, the writer must stay
    /// deliverable for the final drain.
    Quiesce,
}

/// Spawns the reader/writer pair for one accepted connection. Returns
/// `(reader, writer)` join handles.
pub(crate) fn spawn_conn(
    conn: u64,
    sock: TcpStream,
    shared: Arc<Shared>,
    core_tx: Sender<CoreMsg>,
) -> io::Result<(JoinHandle<()>, JoinHandle<()>)> {
    let _ = sock.set_nodelay(true);
    sock.set_read_timeout(Some(shared.cfg.poll_interval))?;
    let wsock = sock.try_clone()?;
    let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();

    // Registered before the reader exists, on the same channel the reader
    // will use, so the core always sees Register before the first request.
    let _ = core_tx.send(CoreMsg::Register { conn, reply: reply_tx.clone() });

    let writer = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name(format!("fleet-net-wr-{conn}"))
            .spawn(move || write_loop(wsock, &reply_rx, &shared))?
    };
    let reader = {
        thread::Builder::new().name(format!("fleet-net-rd-{conn}")).spawn(move || {
            let exit = read_loop(conn, &sock, &shared, &core_tx, &reply_tx);
            if matches!(exit, Exit::Peer) {
                let _ = core_tx.send(CoreMsg::ConnClosed { conn });
            }
            shared.active_conns.fetch_sub(1, Ordering::AcqRel);
            // reply_tx and core_tx drop here; the writer exits once
            // the core also lets go of its reply sender.
        })?
    };
    Ok((reader, writer))
}

/// Drains encoded reply frames onto the socket until every sender is
/// gone, then closes the write half — the orderly FIN the client's final
/// `read` sees after its last verdict.
fn write_loop(mut sock: TcpStream, rx: &Receiver<Vec<u8>>, shared: &Arc<Shared>) {
    let mut healthy = true;
    for frame in rx {
        // Keep consuming after a write error so senders never observe a
        // wedged channel; the frames just die.
        if healthy && sock.write_all(&frame).is_ok() {
            bump(&shared.stats.frames_out);
        } else {
            healthy = false;
        }
    }
    let _ = sock.shutdown(Shutdown::Write);
}

/// The reader: poll the socket, assemble frames, dispatch requests.
/// Every protocol violation is answered with a structured reject frame
/// before the connection dies.
fn read_loop(
    conn: u64,
    sock: &TcpStream,
    shared: &Arc<Shared>,
    core_tx: &Sender<CoreMsg>,
    reply_tx: &Sender<Vec<u8>>,
) -> Exit {
    let mut frames = wire::FrameReader::new(shared.cfg.max_frame);
    let mut buf = vec![0u8; 16 * 1024];
    // `Read` for `&TcpStream`: the reader borrows the socket it shares
    // with `spawn_conn`'s cleanup path.
    let mut sock = sock;
    // Slow-loris clock: set while a frame sits incomplete, reset only by
    // frame completion — a peer trickling one byte per poll still hits
    // the deadline.
    let mut partial_since: Option<Instant> = None;

    loop {
        if shared.stopping() {
            return Exit::Quiesce;
        }
        match sock.read(&mut buf) {
            Ok(0) => return Exit::Peer,
            Ok(n) => {
                frames.feed(&buf[..n]);
                loop {
                    match frames.poll() {
                        Ok(Some(msg)) => {
                            bump(&shared.stats.frames_in);
                            if !dispatch(conn, msg, core_tx, reply_tx, shared) {
                                return Exit::Peer;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            protocol_reject(reply_tx, shared, &e.to_string());
                            return Exit::Peer;
                        }
                    }
                }
                partial_since = if frames.buffered() > 0 {
                    partial_since.or_else(|| Some(Instant::now()))
                } else {
                    None
                };
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if let Some(since) = partial_since {
                    if since.elapsed() >= shared.cfg.idle_frame_timeout {
                        protocol_reject(
                            reply_tx,
                            shared,
                            &format!(
                                "incomplete frame stalled ({} bytes buffered)",
                                frames.buffered()
                            ),
                        );
                        return Exit::Peer;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Exit::Peer,
        }
    }
}

/// Routes one decoded message. Returns `false` when the message type is
/// not a client request — the violation is answered and the connection
/// must close.
fn dispatch(
    conn: u64,
    msg: Message,
    core_tx: &Sender<CoreMsg>,
    reply_tx: &Sender<Vec<u8>>,
    shared: &Arc<Shared>,
) -> bool {
    match msg {
        Message::Issue(m) => {
            let _ = core_tx.send(CoreMsg::Issue { conn, request: m.request, device: m.device });
            true
        }
        Message::Submit(m) => {
            let _ = core_tx.send(CoreMsg::Submit { conn, request: m.request, body: m.body });
            true
        }
        // Server-to-client and bare (pre-envelope) messages are not valid
        // requests on this frontend.
        other => {
            protocol_reject(
                reply_tx,
                shared,
                &format!("unexpected {} message from client", other.name()),
            );
            false
        }
    }
}

/// One structured reject frame for a stream-level violation (`request` 0:
/// the error belongs to the connection, not to any request).
fn protocol_reject(reply_tx: &Sender<Vec<u8>>, shared: &Arc<Shared>, detail: &str) {
    bump(&shared.stats.protocol_errors);
    let reason = RejectReason::MalformedSubmission { detail: detail.to_string() };
    shared.stats.note_reject(&reason);
    let frame = wire::encode(&Message::Reject(RejectMsg { request: 0, reason }));
    let _ = reply_tx.send(frame);
}

impl Message {
    /// Short name for diagnostics.
    fn name(&self) -> &'static str {
        match self {
            Message::Challenge(_) => "challenge",
            Message::Proof(_) => "proof",
            Message::Report(_) => "report",
            Message::Issue(_) => "issue",
            Message::Grant(_) => "grant",
            Message::Submit(_) => "submit",
            Message::Verdict(_) => "verdict",
            Message::Reject(_) => "reject",
        }
    }
}
