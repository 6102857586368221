//! Launching SPMD worlds. *What* a world runs on is one value — a
//! [`WorldConfig`]: a [`Fabric`] and an optional [`FaultPlan`] — and *how*
//! it lives is the method called on it: a one-shot world
//! ([`WorldConfig::run`], one epoch of a fresh pool) or a pooled persistent
//! one ([`WorldConfig::pool`], a [`WorldPool`] that keeps its rank threads
//! — and their pre-matched channel registry — warm across closures).
//! [`World`] is the sugar over it: the configuration the environment
//! names, the modeled (virtual clock) worlds, and [`World::spawn`] for
//! ranks as OS processes.

use crate::ctx::RankCtx;
use crate::env;
use crate::state::{ModelCtx, WorldState};
use crate::transport::fault::{FaultPlan, FaultTransport};
use crate::transport::remote::RemoteWorld;
use crate::transport::shm::ShmTransport;
use crate::transport::sock::SockTransport;
use crate::transport::thread::ThreadTransport;
use crate::transport::Transport;
use locality::Topology;
use parking_lot::{Condvar, Mutex};
use perfmodel::CostModel;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Structured failure of one pooled epoch (see [`WorldPool::try_run`]):
/// which rank failed first (by rank order), with what panic payload, plus
/// every other rank that failed the same epoch. A stalled epoch surfaces
/// here too — the deadline abort is a panic whose message carries the
/// [`crate::StallReport`].
#[derive(Debug)]
pub struct EpochError {
    /// Lowest-ranked failure of the epoch.
    pub rank: usize,
    /// Its panic payload, rendered (`String`/`&str` payloads verbatim).
    pub message: String,
    /// All failures of the epoch, in rank order (`(rank, message)`).
    pub failures: Vec<(usize, String)>,
}

impl std::fmt::Display for EpochError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "epoch failed on rank {}: {}", self.rank, self.message)?;
        if self.failures.len() > 1 {
            write!(f, " (and {} more rank failures)", self.failures.len() - 1)?;
        }
        Ok(())
    }
}

impl std::error::Error for EpochError {}

/// Render a caught panic payload (`String`/`&str` payloads verbatim) — for
/// error values and for tests asserting on what a world died of.
pub fn panic_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Where a world's bytes move (DESIGN.md §8, §10). Every protocol is
/// byte-identical on all three, which is why tests iterate [`Fabric::ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fabric {
    /// In-process mailboxes and typed channels; zero serialization.
    Thread,
    /// SPSC byte rings and futex parking in one `/dev/shm` segment.
    Shm,
    /// Framed, sequenced, acknowledged stream sockets (Unix-domain or TCP).
    Sock,
}

impl Fabric {
    pub const ALL: [Fabric; 3] = [Fabric::Thread, Fabric::Shm, Fabric::Sock];

    /// The name [`RankCtx::fabric`] and stall reports use, and the value
    /// `MPISIM_TRANSPORT` selects it by.
    pub fn name(self) -> &'static str {
        match self {
            Fabric::Thread => "thread",
            Fabric::Shm => "shm",
            Fabric::Sock => "sock",
        }
    }
}

/// What a world of rank threads runs on: a fabric, and the deterministic
/// [`FaultPlan`] it runs under. Without an explicit plan the world takes
/// `MPISIM_FAULTS`; its wait deadline is the plan's `deadline_ms`, else
/// `MPISIM_DEADLINE_MS` — an explicit plan never touches the process
/// environment.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    fabric: Fabric,
    faults: Option<FaultPlan>,
}

impl WorldConfig {
    /// Worlds over `fabric`, with ranks as threads of this process. On the
    /// shm and sock fabrics that is the whole wire path (rings and futexes;
    /// framing, acks and reconnects over a loopback socket) without
    /// process management; for ranks as OS processes see [`World::spawn`].
    pub fn new(fabric: Fabric) -> Self {
        Self {
            fabric,
            faults: None,
        }
    }

    /// The configuration [`World::run`] and [`World::pool`] use: the fabric
    /// `MPISIM_TRANSPORT` names (default: thread).
    fn from_env() -> Self {
        Self::new(env::get().transport)
    }

    /// Run under `plan`: delivery delays, legal reorders, spurious
    /// wakeups, link severs and rank kills replay identically for one
    /// seed. In a pool every epoch runs under the same plan (op counters
    /// keep advancing across epochs, so a kill index lands in whichever
    /// epoch reaches it).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Run `f` on `n_ranks` ranks (one OS thread each) and return each
    /// rank's result, indexed by rank: one epoch of a fresh
    /// [`WorldConfig::pool`]. Panics in any rank propagate to the caller.
    pub fn run<F, R>(&self, n_ranks: usize, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Send + Sync,
        R: Send + 'static,
    {
        self.pool(n_ranks).run(f)
    }

    /// Create a persistent pooled world of `n_ranks` ranks: the threads
    /// (and the world's pre-matched channel registry) stay alive across
    /// [`WorldPool::run`] calls, so repeated closures measure transport,
    /// not thread startup.
    pub fn pool(&self, n_ranks: usize) -> WorldPool {
        WorldPool::launch(self.state(n_ranks, None))
    }

    fn state(&self, n_ranks: usize, model: Option<ModelCtx>) -> Arc<WorldState> {
        // only the thread fabric carries a modeled arrival stamp
        debug_assert!(
            model.is_none() || self.fabric == Fabric::Thread,
            "a cost model runs on the thread fabric only"
        );
        let inner: Arc<dyn Transport> = match self.fabric {
            Fabric::Thread => Arc::new(ThreadTransport::new(n_ranks)),
            Fabric::Shm => {
                let t = ShmTransport::create(n_ranks);
                // all ranks are threads of this process: nobody will attach
                // by path, so drop the name immediately (the mapping lives on)
                t.segment().unlink();
                t
            }
            Fabric::Sock => SockTransport::loopback(n_ranks),
        };
        world_state(n_ranks, model, inner, self.faults.clone())
    }
}

/// Build a world state over `inner` — the one place a fabric is wrapped by
/// a fault plan (the given one, else `MPISIM_FAULTS`) and the wait
/// deadline is resolved (the plan's `deadline_ms`, else
/// `MPISIM_DEADLINE_MS`).
pub(crate) fn world_state(
    n_ranks: usize,
    model: Option<ModelCtx>,
    inner: Arc<dyn Transport>,
    plan: Option<FaultPlan>,
) -> Arc<WorldState> {
    let env = env::get();
    let plan = plan.or_else(|| env.faults.clone());
    let deadline = plan.as_ref().and_then(|p| p.deadline()).or(env.deadline_ms);
    let transport = match plan {
        Some(p) => FaultTransport::wrap(n_ranks, p, inner),
        None => inner,
    };
    WorldState::with_transport_deadline(n_ranks, model, transport, deadline)
}

/// Entry point: spawn `n` ranks, each running the same closure.
pub struct World;

impl World {
    /// [`WorldConfig::run`] on the environment's configuration: `f` on
    /// `n_ranks` rank threads without a cost model (virtual clocks stay at
    /// zero), over the thread fabric unless `MPISIM_TRANSPORT` says
    /// otherwise.
    pub fn run<F, R>(n_ranks: usize, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Send + Sync,
        R: Send + 'static,
    {
        WorldConfig::from_env().run(n_ranks, f)
    }

    /// [`WorldConfig::pool`] on the environment's configuration.
    pub fn pool(n_ranks: usize) -> WorldPool {
        WorldConfig::from_env().pool(n_ranks)
    }

    /// Benchmark-pinned: the frozen `perfbench/` package calls this name.
    /// Goes when `perfbench/` is next open; use [`WorldConfig::pool`].
    #[doc(hidden)]
    pub fn pool_shm(n_ranks: usize) -> WorldPool {
        WorldConfig::new(Fabric::Shm).pool(n_ranks)
    }

    /// Benchmark-pinned, like [`World::pool_shm`].
    #[doc(hidden)]
    pub fn pool_sock(n_ranks: usize) -> WorldPool {
        WorldConfig::new(Fabric::Sock).pool(n_ranks)
    }

    /// Launch `n_ranks` as separate OS processes over `fabric` (shm or
    /// sock) and return this process's [`RemoteWorld`] handle. Rank 0 (the
    /// caller) re-execs itself `n_ranks - 1` times in a hidden worker
    /// mode; workers join the world inside this call and never return
    /// from its epoch loop. Workers inherit the environment, so a process
    /// world is configured by it (`MPISIM_FAULTS`, `MPISIM_DEADLINE_MS`,
    /// `MPISIM_SOCK_ADDR`, …) and every process resolves the same values.
    pub fn spawn(fabric: Fabric, n_ranks: usize) -> RemoteWorld {
        RemoteWorld::launch(fabric, n_ranks)
    }

    /// Run with a cost model attached: each rank's virtual clock advances
    /// with every message according to `model` over `topo`'s locality
    /// classes. The world size is `topo.n_ranks()`. One epoch of a fresh
    /// [`World::pool_modeled`].
    pub fn run_modeled<F, R>(topo: Topology, model: Arc<dyn CostModel>, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Send + Sync,
        R: Send + 'static,
    {
        Self::pool_modeled(topo, model).run(f)
    }

    /// Pooled counterpart of [`World::run_modeled`]; each epoch's virtual
    /// clocks start from zero.
    pub fn pool_modeled(topo: Topology, model: Arc<dyn CostModel>) -> WorldPool {
        // modeled worlds are thread-fabric worlds: the virtual clock prices
        // the messages, the fabric only has to deliver them
        let n = topo.n_ranks();
        let state = WorldConfig::new(Fabric::Thread).state(n, Some(ModelCtx { model, topo }));
        WorldPool::launch(state)
    }
}

/// A type-erased epoch job borrowing the caller's environment for `'env`.
type JobFor<'env> = Arc<dyn Fn(&mut RankCtx) -> Box<dyn Any + Send> + Send + Sync + 'env>;
/// The storable form: every rank runs it once per epoch.
type Job = JobFor<'static>;

struct PoolCtrl {
    /// Monotonic epoch counter; workers run one job per increment.
    epoch: u64,
    job: Option<Job>,
    /// Per-rank result of the current epoch (`Err` carries a panic).
    results: Vec<Option<std::thread::Result<Box<dyn Any + Send>>>>,
    /// Ranks still running the current epoch.
    remaining: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Arc<WorldState>,
    ctrl: Mutex<PoolCtrl>,
    /// Workers park here between epochs.
    work_cv: Condvar,
    /// The driver parks here until `remaining` reaches zero.
    done_cv: Condvar,
    /// Serializes drivers: held across the whole of [`WorldPool::run`] so
    /// a second concurrent caller cannot install its epoch between the
    /// first epoch's completion and its result collection.
    epoch_lock: Mutex<()>,
    /// Ranks whose closure has returned this epoch, and those of them
    /// still pushing queued sends, whom the last to return wakes.
    returned: AtomicUsize,
    draining: AtomicUsize,
}

/// A persistent SPMD world: rank threads spawned once and reused for many
/// closures via an epoch protocol.
///
/// [`WorldPool::run`] has the same shape as [`World::run`], but the rank
/// threads — and the underlying `WorldState`, including its pre-matched
/// persistent channel registry — survive between calls. Re-registering a
/// collective with the same tags on a warm pool re-attaches to the
/// existing (drained) channels, and no per-call thread spawn/join cost is
/// paid: hundreds of `start`/`wait` iterations can run on one warm world,
/// which is what exposes true transport time in the benches.
///
/// Each epoch gets fresh [`RankCtx`]es (virtual clocks restart at zero).
/// A panic in any rank propagates from `run` once every rank has finished
/// the epoch: a panicking rank raises a world-wide flag that aborts peers
/// blocked waiting on its messages (their stall probes check it), so a
/// partial-rank panic ends the epoch loudly instead of deadlocking it.
/// In-flight traffic of the failed epoch (mailbox envelopes, undelivered
/// channel payloads) is then drained so it cannot leak into later epochs,
/// and the pool stays usable.
pub struct WorldPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorldPool {
    fn launch(state: Arc<WorldState>) -> Self {
        let n = state.n_ranks;
        let shared = Arc::new(PoolShared {
            state,
            ctrl: Mutex::new(PoolCtrl {
                epoch: 0,
                job: None,
                results: (0..n).map(|_| None).collect(),
                remaining: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            epoch_lock: Mutex::new(()),
            returned: AtomicUsize::new(0),
            draining: AtomicUsize::new(0),
        });
        let handles = (0..n)
            .map(|rank| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mpisim-pool-{rank}"))
                    .spawn(move || Self::worker(shared, rank))
                    .expect("spawn pool rank thread")
            })
            .collect();
        Self { shared, handles }
    }

    fn worker(shared: Arc<PoolShared>, rank: usize) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut ctrl = shared.ctrl.lock();
                loop {
                    if ctrl.shutdown {
                        return;
                    }
                    if ctrl.epoch > seen {
                        seen = ctrl.epoch;
                        break ctrl.job.clone().expect("epoch has a job");
                    }
                    shared.work_cv.wait(&mut ctrl);
                }
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut ctx = RankCtx::new(Arc::clone(&shared.state), rank);
                job(&mut ctx)
            }));
            if result.is_err() {
                // peers blocked on this rank's messages must not wait
                // forever: their stall probes see the flag and abort
                shared.state.note_rank_panic(Some(rank));
            }
            // queued sends must reach running ranks; the last to return wakes
            let (state, n) = (&shared.state, shared.state.n_ranks);
            let last = shared.returned.fetch_add(1, Ordering::SeqCst) + 1 == n;
            if last && shared.draining.load(Ordering::SeqCst) > 0 {
                state.wake_ranks();
            }
            if !state.progress(rank) {
                shared.draining.fetch_add(1, Ordering::SeqCst);
                state.drain_outbound(rank, &|| shared.returned.load(Ordering::SeqCst) == n);
                shared.draining.fetch_sub(1, Ordering::SeqCst);
            }
            // drop this worker's job handle BEFORE reporting completion:
            // `run` may only return once no worker can still hold (and
            // later drop) a closure borrowing the caller's environment
            drop(job);
            let mut ctrl = shared.ctrl.lock();
            ctrl.results[rank] = Some(result);
            ctrl.remaining -= 1;
            if ctrl.remaining == 0 {
                shared.done_cv.notify_all();
            }
        }
    }

    /// World size of the pool.
    pub fn n_ranks(&self) -> usize {
        self.shared.state.n_ranks
    }

    /// Run `f` on every rank of the warm world and return each rank's
    /// result, indexed by rank — [`World::run`] semantics without the
    /// per-call thread spawn. Panics in any rank propagate to the caller
    /// after all ranks finish the epoch; the pool remains usable.
    pub fn run<'env, F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Send + Sync + 'env,
        R: Send + 'static,
    {
        let results = self.epoch_results(Arc::new(move |ctx| Box::new(f(ctx)) as _));
        let mut out = Vec::with_capacity(results.len());
        let mut panic: Option<Box<dyn Any + Send>> = None;
        for r in results {
            match r {
                Ok(b) => out.push(*b.downcast::<R>().expect("epoch result type")),
                Err(p) => panic = panic.or(Some(p)),
            }
        }
        if let Some(p) = panic {
            // a rank died mid-closure: whatever it (or its peers) left in
            // flight must not leak into the next epoch's matching
            self.shared.state.drain_in_flight();
            resume_unwind(p);
        }
        out
    }

    /// [`WorldPool::run`] with graceful degradation: a failed epoch comes
    /// back as a structured [`EpochError`] — which rank failed first and
    /// with what payload (a fault-plan kill, a deadline abort carrying its
    /// [`crate::StallReport`], or an application panic) — instead of
    /// re-panicking the caller. The failed epoch's in-flight traffic is
    /// drained either way, so the pool stays usable for the next epoch.
    pub fn try_run<'env, F, R>(&self, f: F) -> Result<Vec<R>, EpochError>
    where
        F: Fn(&mut RankCtx) -> R + Send + Sync + 'env,
        R: Send + 'static,
    {
        let results = self.epoch_results(Arc::new(move |ctx| Box::new(f(ctx)) as _));
        let mut out = Vec::with_capacity(results.len());
        let mut failures: Vec<(usize, String)> = Vec::new();
        for (rank, r) in results.into_iter().enumerate() {
            match r {
                Ok(b) => out.push(*b.downcast::<R>().expect("epoch result type")),
                Err(p) => failures.push((rank, panic_message(p.as_ref()))),
            }
        }
        if failures.is_empty() {
            return Ok(out);
        }
        self.shared.state.drain_in_flight();
        let (rank, message) = failures[0].clone();
        Err(EpochError {
            rank,
            message,
            failures,
        })
    }

    /// Post one epoch and collect every rank's raw result. The common body
    /// of [`WorldPool::run`] and [`WorldPool::try_run`].
    fn epoch_results<'env>(
        &self,
        job: JobFor<'env>,
    ) -> Vec<std::thread::Result<Box<dyn Any + Send>>> {
        let n = self.n_ranks();
        // SAFETY: extend the job's lifetime to 'static for storage in the
        // long-lived pool. The borrow cannot escape this call: it blocks
        // until every worker has finished the epoch AND dropped its clone
        // of the job (workers drop before reporting completion), and the
        // control slot's clone is cleared below before returning.
        let job: Job = unsafe { std::mem::transmute::<JobFor<'env>, Job>(job) };
        // one driver at a time: held until results are collected, so a
        // concurrent `run` can neither interleave its epoch with ours nor
        // steal our results
        let _epoch = self.shared.epoch_lock.lock();
        let mut ctrl = self.shared.ctrl.lock();
        debug_assert_eq!(ctrl.remaining, 0, "epoch_lock held with ranks in flight");
        self.shared.state.clear_rank_panic();
        self.shared.returned.store(0, Ordering::SeqCst);
        ctrl.job = Some(job);
        ctrl.epoch += 1;
        // mirror the epoch id into the world so stall reports can name it
        self.shared.state.set_epoch(ctrl.epoch);
        ctrl.remaining = n;
        ctrl.results.iter_mut().for_each(|r| *r = None);
        self.shared.work_cv.notify_all();
        while ctrl.remaining > 0 {
            self.shared.done_cv.wait(&mut ctrl);
        }
        ctrl.job = None;
        ctrl.results
            .iter_mut()
            .map(|r| r.take().expect("every rank reported"))
            .collect()
    }
}

impl Drop for WorldPool {
    fn drop(&mut self) {
        {
            let mut ctrl = self.shared.ctrl.lock();
            ctrl.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_indexed_by_rank() {
        let out = World::run(7, |ctx| ctx.rank() * ctx.rank());
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36]);
    }

    /// The one launcher: every fabric × lifecycle × {no plan, a perturbing
    /// plan} carries the same ring to the same answer, and the world says
    /// which fabric it is on.
    #[test]
    fn every_fabric_lifecycle_and_plan_runs_the_same_ring() {
        let ring = |ctx: &mut RankCtx| {
            let comm = ctx.comm_world();
            let (n, r) = (ctx.size(), ctx.rank());
            ctx.send(&comm, (r + 1) % n, 3, &[r as u64 * 7]);
            let got: Vec<u64> = ctx.recv(&comm, (r + n - 1) % n, 3);
            (ctx.fabric(), got[0])
        };
        let perturb_plan = FaultPlan::seeded(5)
            .delays(250, 100)
            .reorder(200)
            .spurious(150)
            .deadline_ms(30_000);
        for fabric in Fabric::ALL {
            let want: Vec<_> = [3, 0, 1, 2].map(|left| (fabric.name(), left * 7)).into();
            for config in [
                WorldConfig::new(fabric),
                WorldConfig::new(fabric).faults(perturb_plan.clone()),
            ] {
                assert_eq!(config.run(4, ring), want, "{config:?} one-shot");
                let pool = config.pool(4);
                for epoch in 0..2 {
                    assert_eq!(pool.run(ring), want, "{config:?} pool epoch {epoch}");
                }
            }
        }
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |ctx| {
            assert_eq!(ctx.size(), 1);
            "ok"
        });
        assert_eq!(out, vec!["ok"]);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn rank_panic_propagates() {
        World::run(3, |ctx| {
            if ctx.rank() == 2 {
                panic!("deliberate");
            }
        });
    }

    #[test]
    fn compute_charging_only_when_modeled() {
        let out = World::run(2, |ctx| {
            ctx.charge_compute(1.5);
            ctx.clock()
        });
        // Unmodeled worlds still accumulate explicit compute charges —
        // they simply never add communication time.
        assert_eq!(out, vec![1.5, 1.5]);
    }

    #[test]
    fn pool_reuses_threads_across_epochs() {
        let pool = World::pool(5);
        assert_eq!(pool.n_ranks(), 5);
        let out = pool.run(|ctx| ctx.rank() * ctx.rank());
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
        // a second epoch with a different result type, on the same threads
        let names: Vec<String> = pool.run(|ctx| format!("r{}", ctx.rank()));
        assert_eq!(names[3], "r3");
        // borrowed environment: closures may capture references
        let base = [10usize, 20, 30, 40, 50];
        let out = pool.run(|ctx| base[ctx.rank()] + 1);
        assert_eq!(out, vec![11, 21, 31, 41, 51]);
    }

    #[test]
    fn pool_epochs_communicate_independently() {
        let pool = World::pool(4);
        for epoch in 0..3u64 {
            let out = pool.run(|ctx| {
                let comm = ctx.comm_world();
                let right = (ctx.rank() + 1) % ctx.size();
                let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
                ctx.send(&comm, right, 0, &[ctx.rank() as u64 + 100 * epoch]);
                let v: Vec<u64> = ctx.recv(&comm, left, 0);
                v[0]
            });
            assert_eq!(
                out,
                vec![
                    3 + 100 * epoch,
                    100 * epoch,
                    1 + 100 * epoch,
                    2 + 100 * epoch
                ]
            );
        }
    }

    #[test]
    fn pool_panic_propagates_and_pool_survives() {
        let pool = World::pool(3);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // every rank panics, so the epoch terminates cleanly
            pool.run(|ctx| -> usize { panic!("epoch failed on rank {}", ctx.rank()) });
        }));
        assert!(r.is_err());
        // the pool is still usable after a panicked epoch
        let out = pool.run(|ctx| ctx.rank() + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn pool_partial_rank_panic_does_not_hang() {
        // rank 0 dies before sending; rank 1 is blocked waiting for its
        // message. The stall probe must abort rank 1, the epoch must end
        // with a panic, and the pool must stay usable.
        let pool = World::pool(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|ctx| {
                let comm = ctx.comm_world();
                if ctx.rank() == 0 {
                    panic!("rank 0 dies before sending");
                }
                let mut recv = ctx.recv_chan_init::<u64>(&comm, 0, 5, 1);
                recv.start();
                recv.wait_with(ctx, |d| d[0])
            });
        }));
        assert!(r.is_err());
        let out = pool.run(|ctx| ctx.rank() * 10);
        assert_eq!(out, vec![0, 10]);
    }

    #[test]
    fn scoped_partial_rank_panic_does_not_hang() {
        // the same guarantee for one-shot worlds: a blocked plain recv
        // aborts when its peer dies
        let r = std::panic::catch_unwind(|| {
            World::run(2, |ctx| {
                let comm = ctx.comm_world();
                if ctx.rank() == 0 {
                    panic!("rank 0 dies before sending");
                }
                let v: Vec<u64> = ctx.recv(&comm, 0, 5);
                v[0]
            });
        });
        assert!(r.is_err());
    }

    #[test]
    fn pool_drains_in_flight_traffic_after_panic() {
        // epoch 1: rank 0 deposits a persistent payload, a plain envelope
        // and an oversized plain payload, then every rank panics before
        // rank 1 receives any of them. Epoch 2 reuses all three
        // signatures: it must see the NEW messages, not epoch 1's stale
        // ones — wherever the fabric had parked them (mailboxes; on shm
        // segment rings and, for the payload that overflows the 256 KiB
        // mailbox ring, the sender-side spill outbox; on sock the link).
        let big_len = 80_000usize; // u64s: ~640 KB
        for fabric in Fabric::ALL {
            let pool = WorldConfig::new(fabric).pool(2);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(|ctx| {
                    let comm = ctx.comm_world();
                    if ctx.rank() == 0 {
                        let send = ctx.send_chan_init::<u64>(&comm, 1, 3, 1);
                        send.start_with(ctx, |b| b.push(111));
                        ctx.send(&comm, 1, 4, &[222u64]);
                        let big = vec![333u64; big_len];
                        ctx.send(&comm, 1, 5, &big);
                    }
                    panic!("abandon epoch");
                });
            }));
            assert!(r.is_err());
            let out = pool.run(|ctx| {
                let comm = ctx.comm_world();
                if ctx.rank() == 0 {
                    let send = ctx.send_chan_init::<u64>(&comm, 1, 3, 1);
                    send.start_with(ctx, |b| b.push(1111));
                    ctx.send(&comm, 1, 4, &[2222u64]);
                    ctx.send(&comm, 1, 5, &[3333u64]);
                    0
                } else {
                    let mut recv = ctx.recv_chan_init::<u64>(&comm, 0, 3, 1);
                    recv.start();
                    let a = recv.wait_with(ctx, |d| d[0]);
                    let b: Vec<u64> = ctx.recv(&comm, 0, 4);
                    let c: Vec<u64> = ctx.recv(&comm, 0, 5);
                    assert_eq!(c.len(), 1, "epoch 1's big payload leaked into epoch 2");
                    a + b[0] + c[0]
                }
            });
            assert_eq!(out[1], 1111 + 2222 + 3333, "{fabric:?}");
        }
    }

    #[test]
    fn pool_modeled_clocks_reset_per_epoch() {
        use perfmodel::PostalModel;
        let topo = Topology::block_nodes(2, 1);
        let model = Arc::new(PostalModel::new(1e-6, 1e-9));
        let pool = World::pool_modeled(topo, model);
        let expect = 1e-6 + 1000.0 * 1e-9;
        for _ in 0..2 {
            let clocks = pool.run(|ctx| {
                let comm = ctx.comm_world();
                if ctx.rank() == 0 {
                    ctx.send(&comm, 1, 0, &[0u8; 1000]);
                } else {
                    let _: Vec<u8> = ctx.recv(&comm, 0, 0);
                }
                ctx.clock()
            });
            // fresh RankCtx per epoch: clocks do not accumulate across runs
            assert!((clocks[1] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn pool_persistent_channels_stay_warm() {
        // the same persistent signature re-registered across epochs
        // re-attaches to the drained channel and keeps delivering
        let pool = World::pool(2);
        for epoch in 0..3u64 {
            let out = pool.run(|ctx| {
                let comm = ctx.comm_world();
                if ctx.rank() == 0 {
                    let send = ctx.send_chan_init::<u64>(&comm, 1, 7, 1);
                    send.start_with(ctx, |buf| buf.push(epoch * 11));
                    0
                } else {
                    let mut recv = ctx.recv_chan_init::<u64>(&comm, 0, 7, 1);
                    recv.start();
                    recv.wait_with(ctx, |data| data[0])
                }
            });
            assert_eq!(out[1], epoch * 11);
        }
    }
}
