//! The sock fabric's side of a process world ([`RemoteWorld`]): there is no
//! shared memory to hold a command word, so the control plane is frames on
//! the links and an inbox ([`CtrlState`]) the link threads fill.
//!
//! Bootstrap is a rendezvous instead of an attach: rank 0 binds a listener
//! (`MPISIM_SOCK_ADDR`, or an auto-assigned UDS path) before re-exec'ing
//! the workers; each worker binds its own listener, dials rank 0 with
//! retry/backoff, announces itself with a JOIN frame carrying its address,
//! receives the full address TABLE back, and mesh-connects to every
//! lower-ranked worker. Deposits to a peer whose dial has not landed yet
//! simply queue in the link's replay buffer — no completion barrier is
//! needed.
//!
//! The epoch barrier is two-phase: every worker reports DONE to rank 0,
//! which then broadcasts a release word. Deaths travel as DEATH frames; a
//! vanished host is caught by the link heartbeat/reconnect machinery
//! itself.
//!
//! [`RemoteWorld`]: crate::RemoteWorld

use super::link::{auto_addr, is_uds, K_CMD, K_DEATH, K_DONE, K_JOIN, K_TABLE};
use super::SockTransport;
use crate::env::{self, Worker};
use crate::transport::remote::{ControlPlane, Planes, CMD_STOP};
use crate::transport::Transport;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Marks the command word that releases an epoch's barrier (bit 63 is
/// outside the shared `(job, epoch)` encoding).
const RELEASE: u64 = 1 << 63;

/// Driver: bind the listener workers will dial.
pub(crate) fn drive(n_ranks: usize) -> (Planes, String) {
    let sock = if n_ranks == 1 {
        SockTransport::loopback(1) // no peers: plain loopback fabric
    } else {
        let spec = env::get().sock_addr.clone().unwrap_or_else(auto_addr);
        SockTransport::bind(0, n_ranks, &spec)
    };
    let addr = sock.listener_addr.clone();
    ((Arc::clone(&sock) as _, sock), addr)
}

/// Worker: bind a listener of the driver's address family (so a TCP
/// rendezvous yields a TCP mesh — the cross-host shape — and a UDS one
/// stays on disk), dial the driver, and announce that address. Never
/// `MPISIM_SOCK_ADDR`: a worker inherits the driver's bind spec, and a
/// fixed `host:port` there is the driver's own port.
pub(crate) fn join(worker: &Worker, n_ranks: usize) -> Planes {
    let rank = worker.rank;
    let listen_spec = if is_uds(&worker.rendezvous) {
        auto_addr()
    } else {
        "127.0.0.1:0".to_string()
    };
    let sock = SockTransport::bind(rank, n_ranks, &listen_spec);
    sock.connect_to(0, &worker.rendezvous)
        .unwrap_or_else(|e| panic!("rank {rank} cannot join the world: {e}"));
    let mut join = Vec::with_capacity(8 + sock.listener_addr.len());
    join.extend_from_slice(&(rank as u32).to_le_bytes());
    join.extend_from_slice(&(sock.listener_addr.len() as u32).to_le_bytes());
    join.extend_from_slice(sock.listener_addr.as_bytes());
    sock.send_to_driver(K_JOIN, &join);
    (Arc::clone(&sock) as _, sock)
}

/// Control-plane inbox: epoch commands, completions, death notices,
/// bootstrap join/table traffic and drain tokens, posted by the link
/// threads and awaited here.
#[derive(Default)]
pub(crate) struct CtrlState {
    pub cmds: VecDeque<u64>,
    pub dones: Vec<(usize, u64)>,
    pub joins: Vec<(usize, String)>,
    pub table: Option<Vec<String>>,
    /// Loopback `drain_in_flight`: the last `FLUSH` token pushed through
    /// the self-link, and the highest its link thread has seen come back
    /// round.
    pub flush_sent: u64,
    pub flushed: u64,
}

#[derive(Default)]
pub(crate) struct Ctrl {
    pub st: Mutex<CtrlState>,
    pub cv: Condvar,
}

impl Ctrl {
    /// Put something in the inbox and wake whoever awaits it.
    pub(super) fn post(&self, put: impl FnOnce(&mut CtrlState)) {
        put(&mut self.st.lock());
        self.cv.notify_all();
    }
}

impl SockTransport {
    /// Park on the control inbox until `take` finds what it is waiting
    /// for, running `stall` each stall period that brings nothing.
    fn await_ctrl<T>(
        &self,
        stall: &dyn Fn(),
        mut take: impl FnMut(&mut CtrlState) -> Option<T>,
    ) -> T {
        let period = Duration::from_millis(crate::stall::stall_ms());
        let mut st = self.ctrl.st.lock();
        loop {
            if let Some(found) = take(&mut st) {
                return found;
            }
            if self.ctrl.cv.wait_for(&mut st, period).timed_out() {
                drop(st);
                stall();
                st = self.ctrl.st.lock();
            }
        }
    }

    fn broadcast(&self, kind: u8, body: &[u8]) {
        for link in self.links.iter().flatten() {
            link.send_frame(kind, body);
        }
    }

    fn send_to_driver(&self, kind: u8, body: &[u8]) {
        self.links[0]
            .as_ref()
            .expect("driver link")
            .send_frame(kind, body);
    }
}

impl ControlPlane for SockTransport {
    /// Collect one JOIN per worker, then broadcast the address table.
    fn bootstrap_driver(&self, stall: &dyn Fn()) {
        let n_ranks = self.n_procs;
        if n_ranks == 1 {
            return;
        }
        let mut addrs = vec![String::new(); n_ranks];
        addrs[0] = self.listener_addr.clone();
        let mut joined = 1;
        self.await_ctrl(stall, |st| {
            for (rank, addr) in st.joins.drain(..) {
                assert!(
                    rank < n_ranks && addrs[rank].is_empty(),
                    "bogus or duplicate JOIN from rank {rank}"
                );
                addrs[rank] = addr;
                joined += 1;
            }
            (joined == n_ranks).then_some(())
        });
        let mut table = Vec::new();
        table.extend_from_slice(&(n_ranks as u32).to_le_bytes());
        for a in &addrs {
            table.extend_from_slice(&(a.len() as u32).to_le_bytes());
            table.extend_from_slice(a.as_bytes());
        }
        self.broadcast(K_TABLE, &table);
        // keep the driver's own copy: `scrub` finds a reaped worker's UDS
        // listener path by its table entry
        self.ctrl.st.lock().table = Some(addrs);
    }

    /// Await the address table, then mesh-connect to the lower ranks.
    fn bootstrap_worker(&self, stall: &dyn Fn()) {
        let rank = self.my_proc;
        let table = self.await_ctrl(stall, |st| st.table.take());
        assert_eq!(
            table.len(),
            self.n_procs,
            "rank {rank}: address table covers {} ranks, world has {}",
            table.len(),
            self.n_procs
        );
        for (peer, addr) in table.iter().enumerate().take(rank).skip(1) {
            self.connect_to(peer, addr)
                .unwrap_or_else(|e| panic!("rank {rank} cannot mesh with rank {peer}: {e}"));
        }
    }

    fn publish(&self, word: u64) {
        // (a one-rank world's only link is its own loopback)
        if self.n_procs > 1 {
            self.broadcast(K_CMD, &word.to_le_bytes());
        }
    }

    /// Commands arrive as events, in order: the next one is the one.
    fn await_cmd(&self, _epoch: u64, stall: &dyn Fn()) -> u64 {
        self.await_ctrl(stall, |st| st.cmds.pop_front())
    }

    fn close_epoch(&self, epoch: u64, stall: &dyn Fn()) {
        let rank = self.my_proc;
        if rank == 0 {
            let workers = self.n_procs - 1;
            self.await_ctrl(stall, |st| {
                let done = st.dones.iter().filter(|(_, e)| *e == epoch).count();
                (done == workers).then(|| st.dones.retain(|(_, e)| *e != epoch))
            });
            self.publish(RELEASE | epoch);
        } else {
            let mut done = Vec::with_capacity(12);
            done.extend_from_slice(&(rank as u32).to_le_bytes());
            done.extend_from_slice(&epoch.to_le_bytes());
            self.send_to_driver(K_DONE, &done);
            let word = self.await_cmd(epoch, stall);
            assert_ne!(word, CMD_STOP, "driver stopped inside epoch {epoch}");
            assert_eq!(
                word,
                RELEASE | epoch,
                "epoch protocol desync on rank {rank}: command word {word:#x} \
                 arrived inside epoch {epoch} instead of its release"
            );
        }
    }

    fn announce_death(&self, rank: usize) {
        self.ctrl.post(|_| self.note_rank_panic(Some(rank)));
        self.broadcast(K_DEATH, &(rank as u32).to_le_bytes());
    }

    /// Wait (two seconds at most) until every queued frame has reached the
    /// kernel's socket buffers: they survive process exit, the link
    /// threads do not.
    fn flush(&self) {
        let deadline = Instant::now() + Duration::from_secs(2);
        for link in self.links.iter().flatten() {
            loop {
                {
                    let st = link.st.lock();
                    if st.dead || st.shutdown || st.writer_sock.is_none() || st.sent >= st.tx_seq {
                        break;
                    }
                }
                if Instant::now() >= deadline {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Remove `rank`'s UDS listener path: this process's own on a path that
    /// exits without dropping the transport, or — on the driver, by the
    /// address table — that of a reaped worker, which if it died without
    /// unwinding (the `SIGKILL` shape, a fault-plan kill) never removed it
    /// itself. Removing one twice is a harmless no-op.
    fn scrub(&self, rank: usize) {
        let addr = if rank == self.my_proc {
            Some(self.listener_addr.clone())
        } else {
            let st = self.ctrl.st.lock();
            st.table.as_ref().and_then(|t| t.get(rank).cloned())
        };
        if let Some(addr) = addr.filter(|a| is_uds(a)) {
            let _ = std::fs::remove_file(addr);
        }
    }
}
