//! Ranks as separate OS processes, on any fabric that crosses an address
//! space.
//!
//! `RemoteWorld::launch` (reached through [`crate::World::spawn`]) is the
//! SPMD entry point: rank 0 — the *driver* — creates the fabric and
//! re-execs the current binary once per peer rank in a hidden worker mode
//! (environment keys owned by `env.rs`, the original argv preserved so
//! workers land in the same `main` path). Every process then runs the same
//! program; each [`RemoteWorld::run`] call is one epoch, opened by a
//! command word the driver publishes and closed by an all-ranks barrier.
//!
//! Everything about that lifecycle that does not depend on the fabric
//! lives here: the one-launch guard, worker re-exec, the rule that a
//! worker dying before it joins fails the bootstrap (no worker is ever
//! restarted), the child-reaping watchdog, the command-word encoding, the
//! epoch calls, the deadline on every protocol wait, and shutdown. What
//! does depend on it sits behind `ControlPlane`, implemented by the shm
//! `Segment` (a command word and a barrier in the segment header)
//! and the sock mesh (`CMD`/`DONE`/`DEATH` frames over the links).
//!
//! Death containment mirrors the thread pool's guarantee: a rank that
//! panics announces its death before dying, and the driver's watchdog
//! announces it for workers that die *without* unwinding (SIGKILL,
//! `exit`), so every peer blocked in the fabric aborts loudly on its next
//! stall probe instead of deadlocking. Clean exits after the stop command
//! are not deaths.

use super::Transport;
use crate::ctx::RankCtx;
use crate::env;
use crate::runtime::{world_state, Fabric};
use crate::state::{WaitChans, WaitGuard, WorldState};
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::process::{Child, ExitStatus};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Epoch command word: `(job << JOB_SHIFT) | epoch`, or [`CMD_STOP`]. Job
/// indices stay below 2¹⁵, so bit 63 is free for a fabric's private use.
const JOB_SHIFT: u32 = 48;
pub(crate) const EPOCH_MASK: u64 = (1 << JOB_SHIFT) - 1;
/// The command word meaning "shut down".
pub(crate) const CMD_STOP: u64 = u64::MAX;

/// What a process world needs from its fabric beyond moving ranks' bytes.
/// `stall` arguments are the caller's `WaitGuard::tick` — the same
/// liveness-and-deadline probe the fabric's own waits run: an
/// implementation calls it whenever a stall period passes with nothing
/// new, and it panics (with a [`crate::StallReport`]) rather than let the
/// wait outlive a dead peer or the world's deadline.
pub(crate) trait ControlPlane: Send + Sync {
    /// Driver: return once every re-exec'd worker has joined the fabric.
    /// Here `stall` also panics once any worker has exited.
    fn bootstrap_driver(&self, stall: &dyn Fn());

    /// Worker `rank`: return once this process can reach every peer.
    fn bootstrap_worker(&self, rank: usize, stall: &dyn Fn());

    /// Driver: make `word` the command every worker sees next.
    fn publish(&self, word: u64);

    /// Worker `rank`: block until the driver's command for `epoch` — or
    /// the stop command — is visible, and return the word.
    fn await_cmd(&self, rank: usize, epoch: u64, stall: &dyn Fn()) -> u64;

    /// All ranks: the barrier that closes `epoch`. While `rank` waits in
    /// it, it keeps running `drain` (`Transport::progress`): no peer waits
    /// on a frame its sender stopped pushing.
    fn close_epoch(&self, epoch: u64, rank: usize, drain: &dyn Fn(), stall: &dyn Fn());

    /// Tell every process that `rank` died, so their blocked waits abort.
    fn announce_death(&self, rank: usize);

    /// Best-effort wait until what this process published or announced can
    /// survive its exit.
    fn flush(&self) {}

    /// Remove what `rank`'s process left in the file system to be found by
    /// (this process on a path that exits without unwinding, or a worker
    /// the watchdog reaped).
    fn scrub(&self, _rank: usize) {}
}

/// A fabric's two faces, as its `drive`/`join` constructors hand them out.
pub(crate) type Planes = (Arc<dyn ControlPlane>, Arc<dyn Transport>);

/// The worker processes a driver re-exec'd: index `i` is rank `i + 1`.
struct Workers(RefCell<Vec<Child>>);

impl Workers {
    fn spawn(fabric: Fabric, n_ranks: usize, rendezvous: &str) -> Self {
        let exec = |rank| {
            env::worker_command(fabric, rank, rendezvous)
                .spawn()
                .unwrap_or_else(|e| panic!("spawn worker rank {rank}: {e}"))
        };
        Workers(RefCell::new((1..n_ranks).map(exec).collect()))
    }

    fn ranks(&self) -> std::ops::Range<usize> {
        1..self.0.borrow().len() + 1
    }

    /// `rank`'s exit status, once its process has exited.
    fn exited(&self, rank: usize) -> Option<ExitStatus> {
        self.0.borrow_mut()[rank - 1].try_wait().ok().flatten()
    }

    fn pid(&self, rank: usize) -> u32 {
        self.0.borrow()[rank - 1].id()
    }

    fn kill(&self, rank: usize) {
        let kid = &mut self.0.borrow_mut()[rank - 1];
        let _ = kid.kill();
        let _ = kid.wait();
    }
}

/// An SPMD world whose ranks are separate OS processes, communicating over
/// the shm fabric (one host) or the sock fabric (Unix-domain or TCP, per
/// the rendezvous address).
///
/// All ranks construct it through [`crate::World::spawn`] and then execute
/// the same sequence of [`RemoteWorld::run`] calls; results are per-rank
/// local (there is no cross-process result gather — ranks exchange what
/// they need through the fabric itself). Dropping it shuts the world
/// down: rank 0 publishes the stop command and reaps its children; workers
/// wait for the stop command and exit, never returning to the caller's
/// code after the world.
pub struct RemoteWorld {
    state: Arc<WorldState>,
    ctl: Arc<dyn ControlPlane>,
    rank: usize,
    epoch: Cell<u64>,
    /// Rank 0 only: the child reaper, and the flag that tells it exits are
    /// now expected.
    watchdog: Option<(Arc<AtomicBool>, std::thread::JoinHandle<()>)>,
}

impl RemoteWorld {
    /// World rank of this process.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn n_ranks(&self) -> usize {
        self.state.n_ranks
    }

    /// Launch (or, in a re-exec'd worker, join) a process world of
    /// `n_ranks` ranks; returns once every rank has joined. One launch per
    /// process execution: the re-exec protocol cannot nest.
    pub(crate) fn launch(fabric: Fabric, n_ranks: usize) -> RemoteWorld {
        static LAUNCHED: AtomicBool = AtomicBool::new(false);
        assert!(
            !LAUNCHED.swap(true, Ordering::SeqCst),
            "World::spawn called twice in one process execution"
        );
        assert!(n_ranks >= 1, "a process world needs at least one rank");
        match &env::get().worker {
            None => Self::drive(fabric, n_ranks),
            Some(worker) => Self::join(fabric, n_ranks, worker),
        }
    }

    fn drive(fabric: Fabric, n_ranks: usize) -> RemoteWorld {
        let ((ctl, transport), rendezvous) = match fabric {
            Fabric::Shm => super::shm::control::drive(n_ranks),
            Fabric::Sock => super::sock::control::drive(n_ranks),
            Fabric::Thread => panic!(
                "thread-fabric ranks cannot live in separate processes: \
                 spawn over Fabric::Shm or Fabric::Sock"
            ),
        };
        let state = world_state(n_ranks, None, transport, None);
        let workers = Workers::spawn(fabric, n_ranks, &rendezvous);
        let wait = state.begin_wait(0, "bootstrap", WaitChans::Keys(&[]));
        ctl.bootstrap_driver(&|| {
            wait.tick();
            // a worker that dies before it joins announced nothing; as an
            // MPI job whose rank dies in `MPI_Init`, the world fails (the
            // unwind drops the planes, which remove the segment or socket)
            for rank in workers.ranks() {
                if let Some(status) = workers.exited(rank) {
                    panic!("worker rank {rank} exited during bootstrap ({status})");
                }
            }
        });
        drop(wait);
        let shutting_down = Arc::new(AtomicBool::new(false));
        let watchdog = std::thread::Builder::new()
            .name("mpisim-watchdog".into())
            .spawn({
                let (ctl, shutting_down) = (Arc::clone(&ctl), Arc::clone(&shutting_down));
                move || watchdog(&*ctl, &shutting_down, workers)
            })
            .expect("spawn watchdog thread");
        RemoteWorld {
            state,
            ctl,
            rank: 0,
            epoch: Cell::new(0),
            watchdog: Some((shutting_down, watchdog)),
        }
    }

    fn join(fabric: Fabric, n_ranks: usize, worker: &env::Worker) -> RemoteWorld {
        let rank = worker.rank;
        assert!(
            worker.fabric == fabric && rank < n_ranks,
            "this process was re-exec'd as rank {rank} of a {} world and cannot \
             join a {n_ranks}-rank {} world",
            worker.fabric.name(),
            fabric.name()
        );
        let (ctl, transport) = match fabric {
            Fabric::Shm => super::shm::control::join(worker, n_ranks),
            Fabric::Sock => super::sock::control::join(worker, n_ranks),
            Fabric::Thread => unreachable!("no worker is re-exec'd for the thread fabric"),
        };
        let state = world_state(n_ranks, None, transport, None);
        let wait = state.begin_wait(rank, "bootstrap", WaitChans::Keys(&[]));
        ctl.bootstrap_worker(rank, &|| wait.tick());
        drop(wait);
        RemoteWorld {
            state,
            ctl,
            rank,
            epoch: Cell::new(0),
            watchdog: None,
        }
    }

    /// Run one SPMD epoch: every rank of the world calls `run` with the
    /// same closure (same program, same call sequence) and gets its own
    /// rank's result. Rank 0 opens the epoch by publishing the command
    /// word; workers wait for it; an all-ranks barrier closes the epoch.
    ///
    /// A panic in this rank's closure is announced to the world (so
    /// blocked peers abort) and then propagates — from worker processes
    /// via exit code 101, which rank 0's watchdog also observes.
    pub fn run<F, R>(&self, f: F) -> R
    where
        F: FnOnce(&mut RankCtx) -> R,
    {
        if self.rank == 0 {
            return self.epoch_job(0, f); // job index 0: the SPMD closure
        }
        let epoch = self.epoch.get() + 1;
        let job = self.await_cmd(epoch);
        assert!(job.is_some(), "driver stopped before epoch {epoch}");
        self.epoch.set(epoch);
        self.in_epoch(epoch, f)
    }

    /// The driver side of [`RemoteWorld::run`] (rank 0 only): open an
    /// epoch by publishing `job` in the command word, then run `f` as rank
    /// 0's share of it.
    fn epoch_job<F, R>(&self, job: usize, f: F) -> R
    where
        F: FnOnce(&mut RankCtx) -> R,
    {
        assert!(
            (job as u64) < (1 << 15),
            "job index overflows the command word"
        );
        let epoch = self.epoch.get() + 1;
        self.epoch.set(epoch);
        self.ctl.publish(((job as u64) << JOB_SHIFT) | epoch);
        self.in_epoch(epoch, f)
    }

    /// The deadline-and-forensics guard of one epoch-protocol wait: ticked
    /// from the control plane's stall probe, like the fabric's own waits.
    fn guard(&self, kind: &'static str) -> WaitGuard<'_> {
        self.state.begin_wait(self.rank, kind, WaitChans::Keys(&[]))
    }

    /// Wait for the driver's command for `epoch`: `Some(job)`, or `None`
    /// on the stop command.
    fn await_cmd(&self, epoch: u64) -> Option<usize> {
        let wait = self.guard("epoch-command wait");
        let word = self.ctl.await_cmd(self.rank, epoch, &|| wait.tick());
        if word == CMD_STOP {
            return None;
        }
        assert_eq!(
            word & EPOCH_MASK,
            epoch,
            "epoch protocol desync on rank {}: the driver's command {word:#x} is \
             not for epoch {epoch}",
            self.rank
        );
        Some((word >> JOB_SHIFT) as usize)
    }

    /// This rank's share of an opened epoch, then the closing barrier — or,
    /// when `f` panics, the death protocol.
    fn in_epoch<R>(&self, epoch: u64, f: impl FnOnce(&mut RankCtx) -> R) -> R {
        self.state.set_epoch(epoch); // stall reports name it
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut ctx = RankCtx::new(Arc::clone(&self.state), self.rank);
            f(&mut ctx)
        }));
        match result {
            Ok(r) => {
                let wait = self.guard("epoch barrier");
                let drain = || _ = self.state.progress(self.rank);
                self.ctl
                    .close_epoch(epoch, self.rank, &drain, &|| wait.tick());
                r
            }
            Err(p) => {
                // announce (attributed to this rank) BEFORE dying so peers
                // blocked on this rank's messages abort instead of waiting
                // forever
                self.ctl.announce_death(self.rank);
                self.ctl.flush();
                if self.rank != 0 {
                    eprintln!(
                        "mpisim: rank {} panicked; aborting the epoch across the world",
                        self.rank
                    );
                    self.ctl.scrub(self.rank);
                    std::process::exit(101);
                }
                resume_unwind(p);
            }
        }
    }
}

/// Rank 0's child reaper. While the world runs, a worker that exits for
/// any reason is a death (panicking workers exit nonzero *after*
/// announcing it themselves; this catches SIGKILL and stray `exit` calls,
/// which announce nothing). Once the world is shutting down, exits are
/// expected: give each child a grace period, then kill stragglers so
/// `drop` cannot hang.
fn watchdog(ctl: &dyn ControlPlane, shutting_down: &AtomicBool, workers: Workers) {
    let mut live: Vec<usize> = workers.ranks().collect();
    while !shutting_down.load(Ordering::SeqCst) {
        live.retain(|&rank| {
            let Some(status) = workers.exited(rank) else {
                return true;
            };
            // the flag goes up before the stop command is published, so an
            // exit observed with it up may be a clean one
            if !shutting_down.load(Ordering::SeqCst) {
                eprintln!(
                    "mpisim: worker rank {rank} (pid {}) exited mid-world ({status}); \
                     aborting the epoch",
                    workers.pid(rank)
                );
                ctl.announce_death(rank);
            }
            ctl.scrub(rank);
            false
        });
        std::thread::sleep(Duration::from_millis(10));
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    for rank in live {
        while workers.exited(rank).is_none() {
            if Instant::now() >= deadline {
                eprintln!("mpisim: worker rank {rank} ignored the stop command; killing it");
                workers.kill(rank);
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        ctl.scrub(rank);
    }
}

impl Drop for RemoteWorld {
    fn drop(&mut self) {
        if let Some((shutting_down, watchdog)) = self.watchdog.take() {
            shutting_down.store(true, Ordering::SeqCst);
            self.ctl.publish(CMD_STOP);
            self.ctl.flush();
            let _ = watchdog.join();
            return;
        }
        // hold the process alive until the stop command (rank 0's watchdog
        // treats an early exit as a death); losing the world instead exits
        // nonzero so the failure stays visible
        let lost = |why: String| -> ! {
            eprintln!(
                "mpisim: rank {} lost the world awaiting the stop command: {why}",
                self.rank
            );
            self.ctl.scrub(self.rank);
            std::process::exit(102);
        };
        let word = self.ctl.await_cmd(self.rank, self.epoch.get() + 1, &|| {
            if let Some(msg) = self.state.peer_failure() {
                lost(msg);
            }
        });
        if word != CMD_STOP {
            lost(format!("stray command word {word:#x}"));
        }
        self.ctl.scrub(self.rank);
        // workers never run the program past the world
        std::process::exit(0);
    }
}
