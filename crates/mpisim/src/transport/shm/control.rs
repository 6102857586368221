//! The shm fabric's side of a process world ([`RemoteWorld`]): the segment
//! header *is* the control plane — a command word with a futex, a
//! sense-reversing barrier, a death flag, and the pid slots the peers'
//! liveness sweeps read.
//!
//! [`RemoteWorld`]: crate::RemoteWorld

use super::segment::Segment;
use super::ShmTransport;
use crate::env::Worker;
use crate::transport::remote::{ControlPlane, Planes, CMD_STOP, EPOCH_MASK};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn planes(transport: Arc<ShmTransport>) -> Planes {
    (Arc::clone(transport.segment()) as _, transport)
}

/// Driver: create the segment workers will attach to by path.
pub(crate) fn drive(n_ranks: usize) -> (Planes, String) {
    let transport = ShmTransport::create(n_ranks);
    let seg = transport.segment();
    seg.pid_slot(0).store(std::process::id(), Ordering::SeqCst);
    let path = seg.path().to_string_lossy().into_owned();
    (planes(transport), path)
}

/// Worker: attach to the driver's segment.
pub(crate) fn join(worker: &Worker, n_ranks: usize) -> Planes {
    let transport = ShmTransport::attach(&worker.rendezvous);
    let seg = transport.segment();
    assert_eq!(
        seg.n_ranks(),
        n_ranks,
        "worker launched for a {n_ranks}-rank world but the segment has {}",
        seg.n_ranks()
    );
    seg.pid_slot(worker.rank)
        .store(std::process::id(), Ordering::SeqCst);
    planes(transport)
}

impl ControlPlane for Segment {
    /// The attach barrier.
    fn bootstrap_driver(&self, stall: &dyn Fn()) {
        self.barrier(stall);
        // every process holds a mapping now; drop the /dev/shm name so the
        // segment cannot outlive the world
        self.unlink();
    }

    fn bootstrap_worker(&self, stall: &dyn Fn()) {
        self.barrier(stall); // attach barrier
    }

    fn publish(&self, word: u64) {
        self.post_cmd(word);
    }

    /// The word lives in the header, so the previous epoch's stays visible
    /// until the driver overwrites it: park past it.
    fn await_cmd(&self, epoch: u64, stall: &dyn Fn()) -> u64 {
        loop {
            let cmd = self.read_cmd();
            if cmd == CMD_STOP || cmd & EPOCH_MASK >= epoch {
                return cmd;
            }
            self.park_cmd();
            if self.read_cmd() == cmd {
                stall(); // nothing moved
            }
        }
    }

    fn close_epoch(&self, _epoch: u64, stall: &dyn Fn()) {
        self.barrier(stall);
    }

    fn announce_death(&self, rank: usize) {
        self.note_rank_death(rank);
    }
}
