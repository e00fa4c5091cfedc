//! A small blocking client for the networked frontend — the device side
//! of the TCP protocol, used by tests, benches, and soak harnesses. One
//! client (one connection) can carry any number of simulated devices;
//! requests may be pipelined and replies correlated by request id.

use crate::wire::{self, ChallengeMsg, FrameReader, IssueMsg, Message, ProofMsg, SubmitMsg};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking protocol client over one TCP connection.
#[derive(Debug)]
pub struct NetClient {
    sock: TcpStream,
    frames: FrameReader,
    next_request: u64,
}

impl NetClient {
    /// Connects to a server (typically [`NetServerHandle::addr`]).
    ///
    /// [`NetServerHandle::addr`]: super::NetServerHandle::addr
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let sock = TcpStream::connect(addr)?;
        let _ = sock.set_nodelay(true);
        Ok(Self { sock, frames: FrameReader::new(1 << 20), next_request: 1 })
    }

    /// Sends a raw message (tests use this to speak protocol violations
    /// on purpose).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send(&mut self, msg: &Message) -> io::Result<()> {
        self.sock.write_all(&wire::encode(msg))
    }

    /// Sends raw bytes, bypassing the codec entirely (adversarial tests:
    /// garbage, truncated frames, hostile length prefixes).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.sock.write_all(bytes)
    }

    /// Blocks for the next server message.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` on a clean server close, `InvalidData` if the
    /// server's bytes fail the codec, otherwise the socket error.
    pub fn recv(&mut self) -> io::Result<Message> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.frames.poll() {
                Ok(Some(msg)) => return Ok(msg),
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
            let n = self.sock.read(&mut buf)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.frames.feed(&buf[..n]);
        }
    }

    /// Bounds how long [`recv`](Self::recv) blocks; `None` waits forever.
    /// A `recv` that times out fails with `WouldBlock` or `TimedOut`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (a zero duration is refused).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.sock.set_read_timeout(timeout)
    }

    /// Pipelines an `Issue` request for `device`; returns the request id
    /// to correlate the eventual `Grant`/`Reject`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn issue(&mut self, device: u64) -> io::Result<u64> {
        let request = self.fresh_request();
        self.send(&Message::Issue(IssueMsg { request, device }))?;
        Ok(request)
    }

    /// Pipelines a `Submit` carrying `body`; returns the request id to
    /// correlate the eventual `Verdict`/`Reject`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn submit(&mut self, body: ProofMsg) -> io::Result<u64> {
        let request = self.fresh_request();
        self.send(&Message::Submit(SubmitMsg { request, body }))?;
        Ok(request)
    }

    /// Convenience call-and-wait: requests a challenge for `device` and
    /// blocks until the correlated reply arrives. `Ok(Ok(challenge))` on
    /// grant, `Ok(Err(reject_message))` on a correlated rejection.
    ///
    /// # Errors
    ///
    /// Socket errors, plus `InvalidData` if the server replies out of
    /// protocol (an uncorrelated or non-issue reply).
    pub fn request_challenge(&mut self, device: u64) -> io::Result<Result<ChallengeMsg, Message>> {
        let request = self.issue(device)?;
        match self.recv()? {
            Message::Grant(g) if g.request == request => Ok(Ok(g.body)),
            Message::Reject(r) if r.request == request || r.request == 0 => {
                Ok(Err(Message::Reject(r)))
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("uncorrelated reply to issue: {other:?}"),
            )),
        }
    }

    /// A request id no other request on this connection has used.
    fn fresh_request(&mut self) -> u64 {
        let id = self.next_request;
        self.next_request += 1;
        id
    }
}
