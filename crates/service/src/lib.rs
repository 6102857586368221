//! The **solve service**: a multi-tenant job scheduler on one warm
//! [`WorldPool`] (DESIGN.md §12).
//!
//! The paper's collectives amortize setup across many iterations of one
//! solver; this crate amortizes the *world* across many solvers. A
//! [`SolveService`] owns a warm pool and accepts a stream of independent
//! jobs — each its own right-hand side and/or hierarchy, packaged as a
//! [`JobLogic`]. `run_pending` schedules every queued job onto the pool
//! in **one epoch**: per-rank, each admitted job becomes a task of the
//! scheduler's plain poll/park loop, so K tenants' halo exchanges are in
//! flight at once and the rank parks exactly once — on the union of every
//! tenant's wake set — instead of serializing job after job.
//!
//! A job pays for what is its own, and shares what setup it can. Planning
//! is shared: `run_pending` resolves ONE [`NeighborBatch`] per distinct
//! job *shape* — equal topology, backend and patterns, or, for a job
//! object a warm shape ran in its last call, that shape by identity. So is
//! registration: the jobs of a shape take turns on a few **lanes**, each
//! one persistent session — a [`Comm::dup_for`](mpisim::Comm::dup_for) communicator and one
//! `init_all` of the shape's batch — that a job runs on as the next
//! iterations, the way the paper's persistent collectives amortize setup
//! over many `MPI_Start`s. Both outlive the epoch: the service keeps the
//! four shapes it used most recently — each one's resolution and every
//! lane it holds that every job on it finished on — and the control
//! fabric, so an epoch of shapes that came back within the last four
//! resolves, registers and synchronizes nothing before it runs. A
//! [`Backend::Tuned`] shape is no exception: its measured decision is a
//! persistent reduction its `test` completes, so its jobs take turns on
//! lanes like any other's, and a lane's probe phase, paid by its first
//! jobs, carries over to the jobs after them. What the ranks hold beyond
//! the warm shapes — a shape that dropped off the four, a lane a job
//! failed on — every rank frees ([`mpisim::RankCtx::comm_free`]) in one
//! pool run before the next epoch, at the next call's start or before a rerun,
//! and before anything registers. So the pool holds the four warm
//! shapes' lanes — each shape as many as the most one call of it was
//! dealt while it stayed warm, `min(window, jobs of the shape)`, so at
//! most the window under a bounded one — the lanes the last call used
//! beyond those, and the control fabric, however many jobs it has served;
//! [`SolveService::into_pool`] frees it all.
//!
//! Isolation is per job, on three axes:
//!
//! * **channels** — every lane drives a [`Comm::dup_for`](mpisim::Comm::dup_for) duplicate of the
//!   world communicator under a stream id minted for it alone, so its
//!   channel keys can never alias another lane's — lanes sharing a
//!   resolved batch, tag bases included, still own disjoint channels —
//!   or a failed tenant's stale traffic from an earlier epoch. Jobs that
//!   take turns on one lane never see each other's traffic: channels are
//!   FIFO, and a rank starts a lane's next job only after finishing the
//!   previous one there, which consumed exactly what its peers sent it;
//! * **panics** — each task is polled under `catch_unwind`: a seeded
//!   `kill=` fault (or plain bug) inside one tenant resolves that task to
//!   `Err` (and it is never polled again),
//!   the scheduler absorbs the transport-level death flag
//!   ([`mpisim::RankCtx::absorb_rank_failure`]) and broadcasts a cancel token on
//!   the job's control channels, and every *other* tenant's result stays
//!   byte-identical to a solo run. The failure closes its lane on every
//!   rank; the jobs that lane still held run again in a follow-up epoch
//!   of the same `run_pending`, so none of them reports another's failure;
//! * **stalls** — a wait-deadline abort while parked degrades to failing
//!   the rank's still-running jobs *with job attribution* (the deadline
//!   dump names every tenant it takes down), not to a hung world.
//!
//! Admission control ([`SolveService::max_concurrent`]) bounds how many
//! jobs a rank *drives* concurrently, and the same window sets how many
//! lanes a shape gets: `min(window, jobs of the shape)`. The default window
//! is unbounded, which gives every job a lane of its own. Every lane is
//! registered at the start of the first epoch that deals it, with no
//! barrier: registration is create-or-attach on every fabric, so a fast
//! rank can deposit into a lane a slow rank has not opened yet, or is
//! still driving the job before on.

mod jobs;
mod scheduler;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

use locality::Topology;
use mpi_advance::tagspace::{TagLease, TagSpace};
use mpi_advance::{Backend, CommPattern, EntryId, NeighborBatch, NeighborRequest, ResolvedBatch};
use mpisim::{panic_message, World, WorldPool};

/// Globally-unique job identifier, assigned at submit time and never
/// reused. It names the job in its [`JobReport`] and keys nothing else: a
/// job runs on a lane whose [`mpisim::Comm::dup_for`] stream id is drawn
/// from the same counter when the lane is opened, so no two lanes (across
/// all epochs of the service) and no lane and job share an id.
pub type JobId = u64;

/// What a job computes: its communication shape plus a per-rank state
/// machine. One batch entry per pattern; each of the [`JobLogic::iters`]
/// iterations posts every entry and folds each entry's arrived ghost
/// values into the rank state the moment they land.
pub trait JobLogic: Send + Sync {
    /// One halo pattern per batch entry, the same for as long as the object
    /// lives: a warm shape does not ask again a job object it ran before.
    fn patterns(&self) -> Vec<CommPattern>;
    /// Whole-batch iterations the job runs.
    fn iters(&self) -> usize;
    /// Build rank `rank`'s worker state (called on the rank thread).
    fn rank_state(&self, rank: usize) -> Box<dyn RankState>;
}

/// A job's rank-local worker. `absorb` must be independent of the order
/// entries retire within one iteration (entries may complete in delivery
/// order) for the job's result to be deterministic under multi-tenancy.
pub trait RankState {
    /// Entry `e`'s send values for iteration `iter`, aligned with
    /// `req.input_index()`.
    fn input(&mut self, iter: usize, e: EntryId, req: &dyn NeighborRequest) -> Vec<f64>;
    /// Entry `e`'s ghost values for iteration `iter` arrived, aligned
    /// with `req.output_index()`.
    fn absorb(&mut self, iter: usize, e: EntryId, req: &dyn NeighborRequest, output: &[f64]);
    /// The rank's result, after the last iteration.
    fn finish(self: Box<Self>) -> Vec<f64>;
}

/// One tenant's submission: a name (for failure attribution), the
/// topology its batch plans against, the backend every entry runs on,
/// and the logic itself.
pub struct JobSpec {
    pub name: String,
    pub topo: Topology,
    pub backend: Backend,
    pub logic: Arc<dyn JobLogic>,
}

impl JobSpec {
    /// A job with the default model-driven backend ([`Backend::Auto`]).
    pub fn new(name: impl Into<String>, topo: Topology, logic: Arc<dyn JobLogic>) -> Self {
        Self {
            name: name.into(),
            topo,
            backend: Backend::Auto,
            logic,
        }
    }

    /// Override the backend every entry of the job runs on.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
}

/// Why a job failed: which ranks reported it, what each of them knows,
/// and the most specific of those accounts.
#[derive(Debug, Clone)]
pub struct JobError {
    /// Ranks that reported the failure, ascending.
    pub ranks: Vec<usize>,
    /// What the lowest rank on which the failure *originated* (a tenant
    /// panic, a deadline dump) says — a rank that merely holds a peer's
    /// cancel token speaks only when no rank originated anything.
    pub message: String,
    /// Every reporting rank's own account, ascending by rank.
    pub causes: Vec<(usize, String)>,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed on ranks {:?}: {}", self.ranks, self.message)
    }
}

/// One job's outcome: per-rank results (indexed by rank) or the failure.
/// A failure is *this job's alone* — the reports of the other jobs in the
/// same epoch are unaffected.
pub struct JobReport {
    pub id: JobId,
    pub name: String,
    pub outcome: Result<Vec<Vec<f64>>, JobError>,
}

pub(crate) struct QueuedJob {
    pub(crate) id: JobId,
    pub(crate) name: String,
    pub(crate) topo: Topology,
    pub(crate) backend: Backend,
    pub(crate) logic: Arc<dyn JobLogic>,
}

/// How many shapes the service keeps warm between calls, most recently
/// used first.
const WARM_SHAPES: usize = 4;

/// How the tag space's exhaustion panic begins
/// ([`TagSpace::lease_for`]): a shape that fails to resolve with it may
/// be short of spans that lanes the ranks hold still lease.
const TAGS_EXHAUSTED: &str = "tag space exhausted";

/// A job shape the service has resolved: what jobs are matched to it by,
/// its resolution, and the stream ids of its lanes every rank keeps warm,
/// in the order a deal takes them.
struct Shape {
    backend: Backend,
    topo: Topology,
    /// `Arc<Vec<_>>`'s `==` compares pointers first (`Arc<[_]>`'s does not).
    patterns: Arc<Vec<CommPattern>>,
    /// The jobs of the last call that used the shape. A `Weak` keeps its
    /// allocation, so no other job can take its address while it is here.
    jobs: Vec<Weak<dyn JobLogic>>,
    batch: ResolvedBatch,
    lanes: Vec<u64>,
}

impl Shape {
    /// Resolve a shape here, on the submitting thread, before any rank
    /// observes it: resolution leases spans from the process-global
    /// TagSpace, and per-rank resolution order would not be deterministic.
    /// A shape that cannot resolve returns the resolver's panic message.
    fn resolve(
        backend: Backend,
        topo: &Topology,
        patterns: &Arc<Vec<CommPattern>>,
    ) -> Result<Self, String> {
        catch_unwind(AssertUnwindSafe(|| {
            patterns
                .iter()
                .fold(NeighborBatch::new(topo), |b, p| b.entry(p, backend))
                .into_resolved()
        }))
        .map(|batch| Self {
            backend,
            topo: topo.clone(),
            patterns: Arc::clone(patterns),
            jobs: Vec::new(),
            batch,
            lanes: Vec::new(),
        })
        .map_err(|payload| panic_message(&*payload))
    }

    /// Whether the shape ran `q`'s very object, on its backend and topology.
    fn ran(&self, q: &QueuedJob) -> bool {
        self.backend == q.backend
            && (self.jobs.iter()).any(|job| std::ptr::addr_eq(job.as_ptr(), Arc::as_ptr(&q.logic)))
            && self.topo == q.topo
    }
}

/// The multi-tenant scheduler: a warm [`WorldPool`], a job queue, and an
/// admission window. See the crate docs for the isolation contract.
pub struct SolveService {
    pool: WorldPool,
    max_concurrent: usize,
    /// Monotone source of job ids and of lane and control stream ids;
    /// none is ever reused across epochs.
    next_id: JobId,
    queue: Vec<QueuedJob>,
    /// One leased tag span for the per-peer cancel-token channels (they
    /// live on a dedicated dup'd communicator, so one channel per peer
    /// serves every job).
    ctl_lease: TagLease,
    /// At most [`WARM_SHAPES`] shapes with a lane warm, most recently used
    /// first. While a call runs: the ones it has no job for.
    warm: Vec<Shape>,
    /// The stream ids of every lane some rank may hold: what the last
    /// epoch dealt or kept idle, or the last release kept — and after an
    /// epoch error, what came before it too.
    held: Vec<u64>,
    /// The control fabric's stream id while every rank keeps it.
    ctl_stream: Option<u64>,
    /// Each rank's kept lanes and control fabric, by rank.
    kept: Vec<Mutex<scheduler::Kept>>,
    /// Epochs run, the stamp of each epoch's cancel tokens.
    epochs: u64,
}

/// Rank `rank`'s kept state. A rank that panicked holding it failed its
/// epoch, and after a failed epoch every rank frees all it keeps — which
/// is sound whatever step the panic cut short, since each kept lane is
/// whole — so a poisoned slot is used as it is.
fn kept_of(kept: &[Mutex<scheduler::Kept>], rank: usize) -> MutexGuard<'_, scheduler::Kept> {
    kept[rank].lock().unwrap_or_else(PoisonError::into_inner)
}

impl SolveService {
    /// A service on a fresh warm pool of `n_ranks` thread-fabric ranks.
    pub fn new(n_ranks: usize) -> Self {
        Self::with_pool(World::pool(n_ranks))
    }

    /// A service on an existing warm pool (any fabric, any fault plan).
    pub fn with_pool(pool: WorldPool) -> Self {
        Self {
            kept: (0..pool.n_ranks()).map(|_| Mutex::default()).collect(),
            pool,
            max_concurrent: usize::MAX,
            next_id: 1,
            queue: Vec::new(),
            ctl_lease: TagSpace::global().lease_for(1, "service-ctl"),
            warm: Vec::new(),
            held: Vec::new(),
            ctl_stream: None,
            epochs: 0,
        }
    }

    /// Free what the service keeps warm on every rank — its lanes and the
    /// control fabric — and hand back the pool, its registry as the
    /// service found it.
    pub fn into_pool(mut self) -> WorldPool {
        self.ctl_stream = None;
        self.release(Vec::new());
        self.pool
    }

    /// Free, on every rank at once, every lane it holds but `keep`'s, and
    /// the control fabric unless the service keeps it: the one path that
    /// frees anything a call left registered.
    fn release(&mut self, keep: Vec<u64>) {
        let (kept, ctl) = (&self.kept, self.ctl_stream);
        self.pool
            .run(|ctx| kept_of(kept, ctx.rank()).evict(ctx, |stream| keep.contains(&stream), ctl));
        self.held = keep;
    }

    /// Bound how many jobs each rank drives concurrently (default:
    /// unbounded), and with it how many lanes the jobs of one shape take
    /// turns on: `min(k, jobs of the shape)`. `1` serializes tenants on one
    /// lane per shape — the bench baseline.
    pub fn max_concurrent(mut self, k: usize) -> Self {
        assert!(k >= 1, "the admission window must admit at least one job");
        self.max_concurrent = k;
        self
    }

    /// The warm pool (e.g. to check its size).
    pub fn pool(&self) -> &WorldPool {
        &self.pool
    }

    /// Queue a job for the next `run_pending` epoch.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        assert_eq!(
            spec.topo.n_ranks(),
            self.pool.n_ranks(),
            "job topology must match the pool's world size"
        );
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push(QueuedJob {
            id,
            name: spec.name,
            topo: spec.topo,
            backend: spec.backend,
            logic: spec.logic,
        });
        id
    }

    /// Run every queued job in one epoch on the warm pool and report each
    /// job's outcome, in submission order. Tenant failures are isolated
    /// per job: the jobs a failure stopped only because they shared its
    /// lane run again in a follow-up epoch of the same call, so each report
    /// is the job's own failure or its solo bytes. A shape that cannot
    /// resolve (tag space exhausted, a pattern over another rank count than
    /// its topology) fails the jobs of that shape, with the resolver's
    /// message and no ranks, and the other shapes run; only a failure the
    /// scheduler itself cannot attribute (a rank dying outside any task)
    /// fails an epoch, and then *every* job driven in it reports that epoch
    /// error. A shape among the four most recently used is not resolved
    /// again, and its jobs take its warm lanes first; the lanes it does not
    /// deal, and the warm shapes this call has no job for, stay warm. What
    /// an earlier call left registered beyond the warm shapes — a shape
    /// that dropped off the four, a lane a job failed on — every rank frees
    /// before this call's epoch starts. A shape the tag space cannot serve
    /// makes the idle shapes yield too — their lanes freed on every rank,
    /// their tags with them — and resolves once more.
    pub fn run_pending(&mut self) -> Vec<JobReport> {
        let queued = std::mem::take(&mut self.queue);
        if queued.is_empty() {
            return Vec::new();
        }
        // a job a warm shape ran takes its patterns; only the others are asked
        let patterns: Vec<Arc<Vec<CommPattern>>> = (queued.iter())
            .map(|q| match self.warm.iter().find(|w| w.ran(q)) {
                Some(w) => Arc::clone(&w.patterns),
                None => q.logic.patterns().into(),
            })
            .collect();
        // One resolution per distinct shape: tenants of one hierarchy under
        // one backend share a plan, its routings and its tag lease, and
        // each initializes them on its own communicator (DESIGN.md §12).
        let keys: Vec<_> = queued
            .iter()
            .zip(&patterns)
            .map(|(q, pats)| (q.backend, &q.topo, pats))
            .collect();
        let (shape_of, first_of) = group_equal(&keys);
        // A warm shape brings its resolution and its lanes; the warm shapes
        // this call has no job for stay in the list, idle, in their order.
        let found: Vec<Option<Shape>> = first_of
            .iter()
            .map(|&j| {
                let w = (self.warm.iter())
                    .position(|w| (w.backend, &w.topo, &w.patterns) == keys[j])?;
                Some(self.warm.remove(w))
            })
            .collect();
        let resolve = |j: usize| Shape::resolve(keys[j].0, keys[j].1, keys[j].2);
        let mut shapes: Vec<Result<Shape, String>> = first_of
            .iter()
            .zip(found)
            .map(|(&j, found)| found.map_or_else(|| resolve(j), Ok))
            .collect();
        // What the ranks hold beyond the warm shapes — the lanes of a shape
        // that dropped off the four, a closed lane, all of a failed
        // epoch — goes now, on every rank before any registers: on
        // shm a ring is recycled once its last attacher lets go, and a rank
        // that registered before a slower peer had freed would carve a
        // fresh one. A miss the tag space cannot serve may be short of the
        // spans such a lane still leases — a lane's session holds its
        // shape's lease as much as the shape does — so then the idle shapes
        // yield theirs too, and it resolves again.
        let short =
            |s: &Result<Shape, String>| s.as_ref().is_err_and(|why| why.contains(TAGS_EXHAUSTED));
        let retry = shapes.iter().any(short);
        if retry {
            self.warm.clear();
        }
        if self.free_unkept(&shapes) && retry {
            for (shape, &j) in shapes.iter_mut().zip(&first_of) {
                if short(shape) {
                    *shape = resolve(j);
                }
            }
        }
        // each job's outcome once it has one: a shape that cannot resolve
        // fails its jobs here, before any rank sees them
        let mut outcomes: Vec<Option<Result<Vec<Vec<f64>>, JobError>>> = shape_of
            .iter()
            .map(|&s| {
                let why = shapes[s].as_ref().err()?;
                Some(Err(JobError {
                    ranks: Vec::new(),
                    message: why.clone(),
                    causes: Vec::new(),
                }))
            })
            .collect();
        let mut pending: Vec<usize> = (0..queued.len())
            .filter(|&k| outcomes[k].is_none())
            .collect();
        while !pending.is_empty() {
            // a rerun's epoch starts, like the call's first, on what the
            // shapes keep: the lanes the epoch before closed go first
            self.free_unkept(&shapes);
            let jobs: Vec<(&QueuedJob, usize)> =
                pending.iter().map(|&k| (&queued[k], shape_of[k])).collect();
            let mut rerun = Vec::new();
            match self.epoch(&jobs, &mut shapes) {
                Ok(per_job) => {
                    for (&k, rows) in pending.iter().zip(per_job) {
                        if stopped_by_its_lane(&rows) {
                            rerun.push(k);
                        } else {
                            outcomes[k] = Some(job_outcome(&queued[k].name, rows));
                        }
                    }
                }
                // Unattributable epoch failure: every job driven in the
                // epoch reports it (and the pool stays usable for the next,
                // with nothing kept).
                Err(err) => pending
                    .iter()
                    .for_each(|&k| outcomes[k] = Some(Err(err.clone()))),
            }
            // a lane closes only under a job that failed itself, and that
            // job is not run again
            assert!(
                rerun.len() < pending.len(),
                "every job of an epoch stopped by a closed lane, none failed"
            );
            pending = rerun;
        }
        // the shapes this call used, naming its jobs, go to the front; past
        // the bound a shape drops off, and its lanes go at the next call's start
        shapes.iter_mut().flatten().for_each(|s| s.jobs.clear());
        for (q, &s) in queued.iter().zip(&shape_of) {
            (shapes[s].iter_mut()).for_each(|shape| shape.jobs.push(Arc::downgrade(&q.logic)));
        }
        let used = (shapes.into_iter().filter_map(Result::ok)).filter(|s| !s.lanes.is_empty());
        let idle = std::mem::take(&mut self.warm);
        self.warm = used.chain(idle).take(WARM_SHAPES).collect();
        queued
            .iter()
            .zip(outcomes)
            .map(|(q, outcome)| JobReport {
                id: q.id,
                name: q.name.clone(),
                outcome: outcome.expect("every job has an outcome"),
            })
            .collect()
    }

    /// Free, on every rank, what the ranks hold that neither a warm shape
    /// nor one of `shapes` keeps; whether there was any.
    fn free_unkept(&mut self, shapes: &[Result<Shape, String>]) -> bool {
        let keep: Vec<u64> = (self.warm.iter().chain(shapes.iter().flatten()))
            .flat_map(|s| s.lanes.iter().copied())
            .collect();
        let freed = self.held.iter().any(|stream| !keep.contains(stream));
        if freed {
            self.release(keep);
        }
        freed
    }

    /// Drive `jobs` — each with its shape — in one epoch on the pool: deal
    /// them onto lanes, a shape's warm ones first, and return, per job,
    /// what each rank (in rank order) returned for it. Afterwards a shape's
    /// warm lanes are the ones of this deal that every job on them finished
    /// on, on every rank, then the warm ones the deal left idle: none of
    /// any shape, idle ones included, after an epoch error.
    fn epoch(
        &mut self,
        jobs: &[(&QueuedJob, usize)],
        shapes: &mut [Result<Shape, String>],
    ) -> Result<Vec<Vec<scheduler::Row>>, JobError> {
        let shape_of: Vec<usize> = jobs.iter().map(|&(_, s)| s).collect();
        let warm: Vec<&[u64]> = shapes
            .iter()
            .map(|s| s.as_ref().map_or(&[][..], |s| &s.lanes[..]))
            .collect();
        // a lane or control fabric opened in this epoch takes a stream id
        // of its own from the job-id counter — never a job's, never reused
        // — so nothing of an earlier epoch can alias it
        let next_id = &mut self.next_id;
        let mut mint = || {
            *next_id += 1;
            *next_id - 1
        };
        let (lane_of, deal) =
            scheduler::deal_lanes(&shape_of, self.max_concurrent, &warm, &mut mint);
        let cold_ctl = self.ctl_stream.is_none().then(mint);
        self.ctl_stream = self.ctl_stream.or(cold_ctl);
        self.epochs += 1;
        let dealt = |stream: u64| deal.iter().any(|lane| lane.stream == stream);
        let idle: Vec<u64> = (self.warm.iter().chain(shapes.iter().flatten()))
            .flat_map(|s| s.lanes.iter().copied())
            .filter(|&stream| !dealt(stream))
            .collect();
        // every rank holds what the epoch names once its prologue is over
        let named: Vec<u64> = (deal.iter().map(|lane| lane.stream))
            .chain(idle.iter().copied())
            .collect();
        let ep = scheduler::Epoch {
            jobs: jobs
                .iter()
                .zip(&lane_of)
                .map(|(&(q, _), &l)| (q, l))
                .collect(),
            lanes: deal
                .iter()
                .map(|&lane| {
                    let shape = shapes[lane.shape].as_ref();
                    (lane, &shape.expect("a dealt shape resolved").batch)
                })
                .collect(),
            stamp: self.epochs,
            max_concurrent: self.max_concurrent,
        };
        let (pool, kept, tag) = (&self.pool, &self.kept, self.ctl_lease.entry_base(0));
        // a cold control fabric opens in a run of its own: every rank
        // starts the epoch holding it, so one that leaves can tell its peers
        let open = |s| pool.try_run(|ctx| kept_of(kept, ctx.rank()).open_control(ctx, s, tag));
        let drive =
            |_| pool.try_run(|ctx| scheduler::drive_rank(ctx, &mut kept_of(kept, ctx.rank()), &ep));
        let per_rank = match cold_ctl.map_or(Ok(Vec::new()), open).and_then(drive) {
            Ok(per_rank) => {
                self.held = named;
                per_rank
            }
            Err(e) => {
                // a rank died outside any task or opening the control
                // fabric: nothing is kept, not even an idle shape, and a
                // rank it cut short may still hold what it held before —
                // the next epoch's release frees it all, control included
                shapes.iter_mut().flatten().for_each(|s| s.lanes.clear());
                self.warm.clear();
                self.held.extend(named);
                self.ctl_stream = None;
                return Err(JobError {
                    ranks: e.failures.iter().map(|(r, _)| *r).collect(),
                    message: format!("epoch failed: {e}"),
                    causes: e.failures,
                });
            }
        };
        let mut per_job: Vec<Vec<_>> = jobs.iter().map(|_| Vec::new()).collect();
        for rr in per_rank {
            assert_eq!(rr.len(), jobs.len());
            for (rows, res) in per_job.iter_mut().zip(rr) {
                rows.push(res);
            }
        }
        // a job that did not finish everywhere may have left traffic, or a
        // closed session, on its lane
        let mut lane_ok = vec![true; deal.len()];
        for (rows, &l) in per_job.iter().zip(&lane_of) {
            lane_ok[l] &= rows.iter().all(Result::is_ok);
        }
        for (s, shape) in shapes.iter_mut().enumerate() {
            if let Ok(shape) = shape {
                let idle = shape.lanes.iter().copied().filter(|&stream| !dealt(stream));
                shape.lanes = (deal.iter().zip(&lane_ok))
                    .filter(|&(lane, &ok)| ok && lane.shape == s)
                    .map(|(lane, _)| lane.stream)
                    .chain(idle)
                    .collect();
            }
        }
        Ok(per_job)
    }
}

/// Only its lane closing kept the job from finishing: some rank says
/// [`scheduler::Cause::Lane`] and no rank says it failed.
fn stopped_by_its_lane(rows: &[scheduler::Row]) -> bool {
    rows.iter().any(Result::is_err)
        && rows
            .iter()
            .all(|r| matches!(r, Ok(_) | Err(scheduler::Cause::Lane)))
}

/// Group `items` by equality: for each item the index of its group, groups
/// numbered in order of first appearance, and for each group the index of
/// its first item. Plain `==` — no hash to collide; an epoch has few
/// distinct shapes.
fn group_equal<T: PartialEq>(items: &[T]) -> (Vec<usize>, Vec<usize>) {
    let mut first_of: Vec<usize> = Vec::new();
    let group_of = items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            first_of
                .iter()
                .position(|&f| items[f] == *item)
                .unwrap_or_else(|| {
                    first_of.push(i);
                    first_of.len() - 1
                })
        })
        .collect();
    (group_of, first_of)
}

/// One job's outcome from what each rank (in rank order) returned for it.
fn job_outcome(name: &str, rows: Vec<scheduler::Row>) -> Result<Vec<Vec<f64>>, JobError> {
    let mut oks = Vec::with_capacity(rows.len());
    let mut causes: Vec<(usize, String)> = Vec::new();
    let mut originated: Option<usize> = None;
    for (r, res) in rows.into_iter().enumerate() {
        let text = match res {
            Ok(x) => {
                oks.push(x);
                continue;
            }
            Err(scheduler::Cause::Here(text)) => {
                originated.get_or_insert(causes.len());
                text
            }
            Err(scheduler::Cause::Relayed { from }) => {
                format!("job {name:?} cancelled: tenant failed on rank {from}")
            }
            Err(scheduler::Cause::Lane) => {
                format!("job {name:?} stopped: a job before it on its lane failed")
            }
        };
        causes.push((r, text));
    }
    if causes.is_empty() {
        return Ok(oks);
    }
    Err(JobError {
        ranks: causes.iter().map(|(r, _)| *r).collect(),
        message: causes[originated.unwrap_or(0)].1.clone(),
        causes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::tests::Ring;
    use mpi_advance::Protocol;

    /// Held by every test of this crate that leases from the process-wide
    /// tag space, since one of them takes all of it.
    pub(crate) fn tag_space() -> MutexGuard<'static, ()> {
        static TAGS: Mutex<()> = Mutex::new(());
        TAGS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    const N: usize = 4;

    /// Run one `ring` job under `backend` on `svc`, check its bytes, and
    /// return the backends of the shapes then warm.
    fn ring_call(svc: &mut SolveService, ring: &Ring, backend: Backend) -> Vec<Backend> {
        let spec = JobSpec::new("ring", Topology::block_nodes(N, 2), Arc::new(ring.clone()));
        svc.submit(spec.backend(backend));
        let mut reports = svc.run_pending();
        let got = reports.remove(0).outcome.unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(got, ring.expected_all());
        svc.warm.iter().map(|s| s.backend).collect()
    }

    /// Every span of the tag space a one-pattern shape could lease, held;
    /// `miss` over `ring` can then not resolve.
    fn hold_the_tag_space(ring: &Ring, miss: Backend) -> Vec<TagLease> {
        let held: Vec<TagLease> =
            std::iter::from_fn(|| catch_unwind(|| TagSpace::global().lease(1)).ok()).collect();
        let topo = Topology::block_nodes(N, 2);
        let why = Shape::resolve(miss, &topo, &ring.patterns().into()).err();
        assert!(why.is_some_and(|why| why.contains(TAGS_EXHAUSTED)));
        held
    }

    /// With the tag space held so that a new shape cannot lease, a miss
    /// takes the tags of the shape a call before left warm: the idle shape
    /// yields — its lanes freed on every rank, which frees its lease — and
    /// the miss resolves, runs, and is then the only shape warm.
    #[test]
    fn idle_shapes_yield_their_tags_to_a_miss_that_cannot_lease() {
        let _tags = tag_space();
        let ring = Ring::new(N, 2, 0);
        let [idle, miss] =
            [Protocol::StandardHypre, Protocol::StandardNeighbor].map(Backend::Protocol);
        let mut svc = SolveService::new(N);
        assert_eq!(ring_call(&mut svc, &ring, idle), [idle]);
        let held = hold_the_tag_space(&ring, miss);
        assert_eq!(ring_call(&mut svc, &ring, miss), [miss]);
        drop(held);
    }

    /// A job whose `iters` panics: its rank dies at admission, outside any
    /// task, and its epoch fails as a whole.
    struct DiesAtAdmission(Ring);

    impl JobLogic for DiesAtAdmission {
        fn patterns(&self) -> Vec<CommPattern> {
            self.0.patterns()
        }
        fn iters(&self) -> usize {
            panic!("no iteration count")
        }
        fn rank_state(&self, rank: usize) -> Box<dyn RankState> {
            self.0.rank_state(rank)
        }
    }

    /// Lanes no warm shape names yield their tags too: after an epoch
    /// error nothing is warm, but every rank still holds the failed
    /// epoch's lanes, and with them their shape's lease. A miss the tag
    /// space cannot serve frees them and resolves.
    #[test]
    fn lanes_an_epoch_error_left_yield_their_tags_to_a_miss() {
        let _tags = tag_space();
        let ring = Ring::new(N, 2, 0);
        let [failed, miss] =
            [Protocol::StandardHypre, Protocol::StandardNeighbor].map(Backend::Protocol);
        let mut svc = SolveService::new(N);
        let jobs: [Arc<dyn JobLogic>; 2] = [
            Arc::new(ring.clone()),
            Arc::new(DiesAtAdmission(ring.clone())),
        ];
        for job in jobs {
            let spec = JobSpec::new("ring", Topology::block_nodes(N, 2), job);
            svc.submit(spec.backend(failed));
        }
        for report in svc.run_pending() {
            let err = report.outcome.expect_err("the epoch failed");
            assert!(err.message.contains("epoch failed"), "{err}");
        }
        assert!(svc.warm.is_empty());
        let held = hold_the_tag_space(&ring, miss);
        assert_eq!(ring_call(&mut svc, &ring, miss), [miss]);
        drop(held);
    }

    #[test]
    fn equal_shapes_share_a_group_in_order_of_first_appearance() {
        let ring = |n: usize, shift: usize| {
            CommPattern::new(
                n,
                (0..n).map(|r| vec![((r + shift) % n, vec![r])]).collect(),
            )
        };
        let two_per_node = Topology::block_nodes(4, 2);
        let one_node = Topology::block_nodes(4, 4);
        let hypre = Backend::Protocol(Protocol::StandardHypre);
        let levels = vec![ring(4, 1), ring(4, 2)];
        // one index of one pattern differs
        let mut off_by_one = levels.clone();
        off_by_one[1] = CommPattern::new(
            4,
            (0..4)
                .map(|r| vec![((r + 2) % 4, vec![(r + 1) % 4])])
                .collect(),
        );
        let shapes = [
            (Backend::Auto, &two_per_node, &levels),
            (hypre, &two_per_node, &levels),
            (Backend::Auto, &two_per_node, &levels.clone()),
            (Backend::Auto, &one_node, &levels),
            (Backend::Auto, &two_per_node, &off_by_one),
            (hypre, &two_per_node.clone(), &levels),
            (Backend::Auto, &one_node, &levels),
        ];
        let (group_of, first_of) = group_equal(&shapes);
        assert_eq!(group_of, [0, 1, 0, 2, 3, 1, 2]);
        assert_eq!(first_of, [0, 1, 3, 4]);
        assert_eq!(group_equal::<u8>(&[]), (vec![], vec![]));
    }
}
