//! Graceful-drain lifecycle: the server handle and the shutdown
//! sequencing that guarantees no accepted submission loses its verdict.

use super::{CoreMsg, NetStats, Shared};
use crate::Fleet;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Join handles of every live connection's reader/writer pair. Readers
/// and writers are kept apart because shutdown must join them on
/// opposite sides of the core's exit (see [`NetServerHandle::shutdown`]).
#[derive(Default)]
pub(crate) struct ConnThreads {
    readers: Vec<JoinHandle<()>>,
    writers: Vec<JoinHandle<()>>,
    /// Panic payloads harvested while reaping finished threads.
    panics: Vec<Box<dyn std::any::Any + Send + 'static>>,
}

impl std::fmt::Debug for ConnThreads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnThreads")
            .field("readers", &self.readers.len())
            .field("writers", &self.writers.len())
            .field("panics", &self.panics.len())
            .finish()
    }
}

impl ConnThreads {
    pub(crate) fn push(&mut self, pair: (JoinHandle<()>, JoinHandle<()>)) {
        self.readers.push(pair.0);
        self.writers.push(pair.1);
    }

    /// Joins threads that already finished (connections that came and
    /// went), so a long-lived server does not accumulate handles. A
    /// finished thread's `join` cannot block; a panic is kept for
    /// shutdown to report rather than swallowed here.
    pub(crate) fn reap(&mut self) {
        for list in [&mut self.readers, &mut self.writers] {
            let mut i = 0;
            while i < list.len() {
                if list[i].is_finished() {
                    if let Err(panic) = list.swap_remove(i).join() {
                        // Re-raise at shutdown: zero-panic is part of the
                        // server's contract and must not be lost to reaping.
                        self.panics.push(panic);
                    }
                } else {
                    i += 1;
                }
            }
        }
    }
}

/// A running [`NetServer`](super::NetServer).
///
/// Dropping the handle without calling [`shutdown`](Self::shutdown) stops
/// the server *eventually* (the stop flag rises and threads exit on their
/// next poll) but does not wait, flush in-flight verdicts, or surface
/// panics — call `shutdown` for the graceful path.
#[derive(Debug)]
pub struct NetServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Arc<Mutex<ConnThreads>>,
    core_tx: Option<Sender<CoreMsg>>,
    acceptor: Option<JoinHandle<()>>,
    core: Option<JoinHandle<Fleet>>,
}

impl NetServerHandle {
    pub(crate) fn new(
        addr: SocketAddr,
        shared: Arc<Shared>,
        threads: Arc<Mutex<ConnThreads>>,
        core_tx: Sender<CoreMsg>,
        acceptor: JoinHandle<()>,
        core: JoinHandle<Fleet>,
    ) -> Self {
        Self {
            addr,
            shared,
            threads,
            core_tx: Some(core_tx),
            acceptor: Some(acceptor),
            core: Some(core),
        }
    }

    /// The bound address (resolves port 0 binds).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counter snapshot.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.shared.stats.snapshot()
    }

    /// Connections currently holding threads.
    #[must_use]
    pub fn active_conns(&self) -> u64 {
        self.shared.active_conns.load(Ordering::Acquire)
    }

    /// Runs a management-plane operation against the live fleet on the
    /// core thread — serialized with client traffic, never concurrent
    /// with it — and blocks until it has been applied, returning its
    /// result. `None` if the server is already shutting down.
    ///
    /// This is how an operator deregisters a device (or rotates the
    /// provisioning epoch) while networked sessions are open: any
    /// in-flight submission racing the change is answered with a
    /// structured session reject, exactly as the in-process API would.
    pub fn admin<R, F>(&self, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut Fleet) -> R + Send + 'static,
    {
        let core_tx = self.core_tx.as_ref()?;
        let (tx, rx) = std::sync::mpsc::channel();
        let wrapped = Box::new(move |fleet: &mut Fleet| {
            let _ = tx.send(f(fleet));
        });
        core_tx.send(CoreMsg::Admin(wrapped)).ok()?;
        rx.recv().ok()
    }

    /// Graceful drain:
    ///
    /// 1. raise the stop flag — the acceptor refuses new connections;
    /// 2. join the acceptor, then every reader (they quiesce within one
    ///    poll interval, leaving their sockets open for replies);
    /// 3. close the command channel — the core applies the entire
    ///    remaining backlog, drains what it leaves pending, emits every
    ///    in-flight verdict, runs a backstop [`Fleet::drain`], and
    ///    returns the [`Fleet`];
    /// 4. join the writers — they flush those final frames and send FIN.
    ///
    /// In-flight submissions are accepted work: every one of them gets
    /// its verdict (or expiry reject) frame before any socket closes.
    ///
    /// # Errors
    ///
    /// Returns the first panic payload if any server thread panicked —
    /// the soak tests lean on this to assert zero panics end-to-end.
    pub fn shutdown(mut self) -> std::thread::Result<(Fleet, NetStats)> {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join()?;
        }
        let (readers, writers, reaped) = {
            let mut t = self.threads.lock().expect("conn thread registry poisoned");
            (
                std::mem::take(&mut t.readers),
                std::mem::take(&mut t.writers),
                std::mem::take(&mut t.panics),
            )
        };
        if let Some(panic) = reaped.into_iter().next() {
            return Err(panic);
        }
        for reader in readers {
            reader.join()?;
        }
        // Readers are gone; dropping our sender disconnects the channel
        // once the core has consumed the backlog.
        drop(self.core_tx.take());
        let fleet = match self.core.take() {
            Some(core) => core.join()?,
            None => unreachable!("shutdown consumes self; core taken once"),
        };
        for writer in writers {
            writer.join()?;
        }
        Ok((fleet, self.shared.stats.snapshot()))
    }
}

impl Drop for NetServerHandle {
    fn drop(&mut self) {
        // Best-effort stop for the non-graceful path; threads detach and
        // exit on their next poll.
        self.shared.stop.store(true, Ordering::Release);
        drop(self.core_tx.take());
    }
}
