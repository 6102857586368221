//! The shm fabric's side of a process world ([`RemoteWorld`]): the segment
//! header *is* the control plane — a command word with a futex, a
//! sense-reversing barrier, a death flag, and pid slots that let the
//! attach barrier heal a worker that died before it ever attached.
//!
//! [`RemoteWorld`]: crate::RemoteWorld

use super::segment::Segment;
use super::ShmTransport;
use crate::env::{self, Worker};
use crate::transport::remote::{ControlPlane, Planes, Workers, CMD_STOP, EPOCH_MASK};
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
    if let Some((rank, marker)) = &env::get().attach_fail_once {
        if *rank == worker.rank
            && std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(marker)
                .is_ok()
        {
            // deterministic pre-attach death for the respawn tests
            std::process::exit(17);
        }
    }
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
    /// The attach barrier, with a self-healing stall probe. A worker that
    /// dies BEFORE storing its pid slot is invisible to the fabric's death
    /// detection (zero pid slots are skipped, and the watchdog is not
    /// running yet), so the barrier would hang forever; respawn such
    /// workers with a capped per-rank budget, aborting loudly past it.
    /// Workers that died AFTER attaching are caught by `stall`'s pid sweep
    /// as usual.
    fn bootstrap_driver(&self, workers: &Workers, stall: &dyn Fn()) {
        let respawn_max = env::get().respawn_max;
        let used = std::cell::RefCell::new(vec![0u32; self.n_ranks()]);
        self.barrier(&|| {
            stall();
            for rank in workers.ranks() {
                if self.pid_slot(rank).load(Ordering::SeqCst) != 0 {
                    continue; // attached; no longer this loop's problem
                }
                let Some(status) = workers.exited(rank) else {
                    continue;
                };
                let used = &mut used.borrow_mut()[rank];
                assert!(
                    *used < respawn_max,
                    "worker rank {rank} died before attaching ({status}) and \
                     exhausted its respawn budget of {respawn_max} (MPISIM_RESPAWN_MAX)"
                );
                *used += 1;
                eprintln!(
                    "mpisim: worker rank {rank} exited before attaching \
                     ({status}); respawning (attempt {used}/{respawn_max})"
                );
                std::thread::sleep(std::time::Duration::from_millis(20 * *used as u64));
                workers.respawn(rank);
            }
        });
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
