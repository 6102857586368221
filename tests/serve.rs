//! Acceptance suite for the async solve service (`make test-serve`).
//!
//! Six contracts from DESIGN.md §12, each exercised end to end on the
//! warm pool:
//!
//! * **Equivalence** — K jobs driven concurrently produce byte-identical
//!   results to the same K jobs driven one at a time, and both match the
//!   serial reference replay, on every fabric.
//! * **Tenant isolation** — a seeded `kill=` fault that takes down one
//!   tenant mid-epoch fails *that* job with an attributed error while
//!   every surviving tenant's result stays byte-identical to its solo
//!   run — including the jobs that took turns with it on one lane, which
//!   the failure stops and `run_pending` runs again.
//! * **Deadline attribution** — a wedged tenant trips the wait deadline
//!   and the resulting per-job errors name the jobs that were running on
//!   the parked rank.
//! * **Sharing** — tenants of one shape (topology, backend, patterns)
//!   share one resolution per epoch and take turns on a few lanes, and
//!   share nothing else: bytes equal to each job alone, one tag lease per
//!   shape, and a shape that cannot resolve fails its own jobs only.
//! * **Warm set** — the four most recently used shapes are kept, with
//!   every lane they hold: an epoch of such shapes opens no lane and
//!   registers nothing, a fifth shape evicts the least recently used, and
//!   an epoch that deals fewer lanes keeps the rest — a shape holds no
//!   more than the most one call of it was dealt, a `Tuned` shape's as
//!   much as any other's; a call asks the jobs a warm shape ran in its
//!   last call for nothing, and keeps no job alive; a lane some job
//!   failed on and anything an epoch error left warm are never dealt
//!   again; a cancel token left over from a killed epoch cancels nothing
//!   in the next; and a rank dying outside any task ends its epoch at
//!   once on every rank.
//! * **Lifetime** — thousands of jobs through one warm pool leave the
//!   registry gauge, the shm table and the process's memory where the
//!   first epoch left them — or, cycling more shapes than are kept warm,
//!   where the first cycle left them — and the service's release leaves
//!   the gauge where it found it.

use std::f64::consts::FRAC_PI_4;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amg::{Hierarchy, HierarchyOptions, JacobiJob};
use locality::Topology;
use mpi_advance::{Backend, CommPattern, EntryId, NeighborRequest, Protocol};
use mpisim::{Fabric, FaultPlan, RegistryGauge, WorldConfig, WorldPool};
use proptest::prelude::*;
use service::{JobLogic, JobReport, JobSpec, RankState, SolveService};
use sparse::gen::diffusion::paper_problem;
use sparse::gen::diffusion_2d_7pt;

const RANKS: usize = 4;

fn topo() -> Topology {
    Topology::block_nodes(RANKS, 2)
}

/// A small AMG hierarchy plus K relaxation jobs with distinct right-hand
/// sides — the standard multi-tenant workload for this suite.
fn tenant_jobs(k: usize) -> Vec<Arc<JacobiJob>> {
    let a = diffusion_2d_7pt(16, 8, 0.001, FRAC_PI_4);
    let n = a.n_rows();
    let h = Hierarchy::setup(a, HierarchyOptions::default());
    (0..k)
        .map(|j| {
            let seed = 0.11 + 0.17 * j as f64;
            let rhs: Vec<f64> = (0..n).map(|i| (seed * i as f64).cos()).collect();
            Arc::new(JacobiJob::relaxation(&h, RANKS, &rhs, 0.8, 5))
        })
        .collect()
}

fn submit_all(svc: &mut SolveService, jobs: &[Arc<JacobiJob>]) {
    for (k, j) in jobs.iter().enumerate() {
        svc.submit(JobSpec::new(
            format!("tenant-{k}"),
            topo(),
            Arc::clone(j) as Arc<dyn JobLogic>,
        ));
    }
}

fn expect_ok(reports: &[JobReport], jobs: &[Arc<JacobiJob>], label: &str) {
    assert_eq!(reports.len(), jobs.len(), "{label}");
    for (k, rep) in reports.iter().enumerate() {
        let got = rep
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{label}: job {k} failed: {e}"));
        assert_eq!(got, &jobs[k].reference_results(), "{label}: tenant {k}");
    }
}

/// K jobs overlapped on one warm pool == the same K jobs driven
/// sequentially == the serial reference, byte for byte, on all three
/// fabrics.
#[test]
fn concurrent_jobs_match_sequential_and_reference() {
    let jobs = tenant_jobs(4);
    for fabric in Fabric::ALL {
        let name = fabric.name();
        let mk_pool = |n_ranks| WorldConfig::new(fabric).pool(n_ranks);
        let mut conc = SolveService::with_pool(mk_pool(RANKS));
        submit_all(&mut conc, &jobs);
        let concurrent = conc.run_pending();
        expect_ok(&concurrent, &jobs, &format!("{name}/concurrent"));

        let mut seq = SolveService::with_pool(mk_pool(RANKS)).max_concurrent(1);
        submit_all(&mut seq, &jobs);
        let sequential = seq.run_pending();
        expect_ok(&sequential, &jobs, &format!("{name}/sequential"));

        for (c, s) in concurrent.iter().zip(&sequential) {
            assert_eq!(
                c.outcome.as_ref().unwrap(),
                s.outcome.as_ref().unwrap(),
                "{name}: overlap must not change bytes"
            );
        }
    }
}

/// The service outlives its epochs: the same warm pool accepts a second
/// round of submissions, and dup'd communicator ids never collide across
/// epochs.
#[test]
fn warm_pool_accepts_successive_rounds() {
    let jobs = tenant_jobs(2);
    let mut svc = SolveService::new(RANKS);
    for round in 0..3 {
        submit_all(&mut svc, &jobs);
        expect_ok(&svc.run_pending(), &jobs, &format!("round {round}"));
    }
}

/// The kill points of a scan: the four `fixed` ones, then every 10th op
/// of the epoch's first 200.
fn kill_scan(fixed: [u64; 4]) -> impl Iterator<Item = u64> {
    let stride = (10..=200)
        .step_by(10)
        .filter(move |nth| !fixed.contains(nth));
    fixed.into_iter().chain(stride)
}

/// Seeded fault: rank 1 dies at its nth transport operation. Scanning
/// nth moves the kill across tenants' traffic; wherever it lands, the
/// dead tenant's report is attributed and every surviving tenant is
/// byte-identical to its solo run. At least one nth in the scan must
/// actually split the tenants (some killed, some survivors) for the
/// isolation claim to be exercised — where one does depends on how the
/// tenants interleave on rank 1, so past its four fixed points the scan
/// strides over the epoch's op range until it has seen one.
#[test]
fn kill_fails_one_tenant_and_spares_the_rest() {
    let jobs = tenant_jobs(3);
    let mut saw_split = false;
    for (i, nth) in kill_scan([40, 80, 120, 160]).enumerate() {
        if i >= 4 && saw_split {
            break;
        }
        let plan = FaultPlan::seeded(7).kill(1, nth);
        let mut svc =
            SolveService::with_pool(WorldConfig::new(Fabric::Thread).faults(plan).pool(RANKS));
        submit_all(&mut svc, &jobs);
        let reports = svc.run_pending();
        let failed: Vec<usize> = (0..jobs.len())
            .filter(|&k| reports[k].outcome.is_err())
            .collect();
        if !failed.is_empty() && failed.len() < jobs.len() {
            saw_split = true;
        }
        for (k, rep) in reports.iter().enumerate() {
            match &rep.outcome {
                Ok(got) => assert_eq!(
                    got,
                    &jobs[k].reference_results(),
                    "nth={nth}: surviving tenant {k} must be byte-identical to solo"
                ),
                Err(e) => {
                    assert!(
                        e.message.contains("rank 1") || e.message.contains("rank 1's"),
                        "nth={nth}: failure must be attributed to the dead rank: {e}"
                    );
                    assert!(
                        e.ranks.contains(&0) || e.ranks.contains(&1),
                        "nth={nth}: error must carry reporting ranks: {:?}",
                        e.ranks
                    );
                }
            }
        }
    }
    assert!(
        saw_split,
        "the nth scan never split the tenants; isolation was not exercised"
    );
}

/// Kill containment under locality-aware protocols. With 8 ranks at 4
/// per node, [`service::JobSpec`]'s default `Backend::Auto` plans
/// aggregated protocols. Their local-gather steps used to block
/// *synchronously* inside a task's poll — a rank stuck there can never
/// see a cancel token, because its scheduler never regains control; its
/// only way out is the transport death flag, which is why absorption is
/// per rank: the failing rank absorbing the flag for itself must not
/// steal the abort from peers still blocked on the dead tenant's
/// traffic. The gather completes in `test` now, so a peer sits in the
/// park instead; the rule stays for whatever a poll may still block in.
/// (Regression: this exact shape used to hang the epoch forever.)
#[test]
fn kill_is_contained_under_locality_protocols() {
    const N: usize = 8;
    let topo = Topology::block_nodes(N, 4);
    let a = diffusion_2d_7pt(24, 12, 0.001, FRAC_PI_4);
    let n = a.n_rows();
    let h = Hierarchy::setup(a, HierarchyOptions::default());
    let jobs: Vec<Arc<JacobiJob>> = (0..6)
        .map(|j| {
            let seed = 0.11 + 0.17 * j as f64;
            let rhs: Vec<f64> = (0..n).map(|i| (seed * i as f64).cos()).collect();
            Arc::new(JacobiJob::relaxation(&h, N, &rhs, 0.8, 4))
        })
        .collect();
    let mut saw_split = false;
    for (i, nth) in kill_scan([20, 40, 60, 90]).enumerate() {
        if i >= 4 && saw_split {
            break;
        }
        let plan = FaultPlan::seeded(7).kill(1, nth);
        let mut svc =
            SolveService::with_pool(WorldConfig::new(Fabric::Thread).faults(plan).pool(N))
                .max_concurrent(3);
        for (k, j) in jobs.iter().enumerate() {
            svc.submit(JobSpec::new(
                format!("tenant-{k}"),
                topo.clone(),
                Arc::clone(j) as Arc<dyn JobLogic>,
            ));
        }
        // the real regression check is that run_pending RETURNS — the
        // epoch used to hang with a peer stuck in a synchronous
        // local-gather recv that no cancel token could reach
        let reports = svc.run_pending();
        let mut survivors = 0;
        for (k, rep) in reports.iter().enumerate() {
            match &rep.outcome {
                Ok(got) => {
                    assert_eq!(
                        got,
                        &jobs[k].reference_results(),
                        "nth={nth}: surviving tenant {k} must be byte-identical to solo"
                    );
                    survivors += 1;
                }
                Err(e) => assert!(
                    e.message.contains("rank 1"),
                    "nth={nth}: failure must be attributed to the dead rank: {e}"
                ),
            }
        }
        if survivors > 0 && survivors < jobs.len() {
            saw_split = true;
        }
    }
    assert!(
        saw_split,
        "no nth in the scan split the tenants; isolation was not exercised"
    );
}

// ---------------------------------------------------------------------
// deadline attribution: a wedged tenant names itself in the dump
// ---------------------------------------------------------------------

/// Wraps a job so one rank wedges (sleeps) inside its first input
/// callback — long enough to trip the epoch's wait deadline on every
/// other rank.
struct StallJob {
    inner: Arc<JacobiJob>,
    stall_rank: usize,
    stall: Duration,
}

struct StallState {
    inner: Box<dyn RankState>,
    stall: Option<Duration>,
}

impl JobLogic for StallJob {
    fn patterns(&self) -> Vec<CommPattern> {
        JobLogic::patterns(&*self.inner)
    }
    fn iters(&self) -> usize {
        JobLogic::iters(&*self.inner)
    }
    fn rank_state(&self, rank: usize) -> Box<dyn RankState> {
        Box::new(StallState {
            inner: JobLogic::rank_state(&*self.inner, rank),
            stall: (rank == self.stall_rank).then_some(self.stall),
        })
    }
}

impl RankState for StallState {
    fn input(&mut self, iter: usize, e: EntryId, req: &dyn NeighborRequest) -> Vec<f64> {
        if let Some(d) = self.stall.take() {
            std::thread::sleep(d);
        }
        self.inner.input(iter, e, req)
    }
    fn absorb(&mut self, iter: usize, e: EntryId, req: &dyn NeighborRequest, output: &[f64]) {
        self.inner.absorb(iter, e, req, output)
    }
    fn finish(self: Box<Self>) -> Vec<f64> {
        self.inner.finish()
    }
}

/// With one tenant wedged on rank 3 past the wait deadline, the parked
/// ranks dump every job still running there — the per-job errors carry
/// the job names, so the operator can see exactly which tenants were in
/// flight.
#[test]
fn deadline_dump_attributes_running_jobs() {
    let jobs = tenant_jobs(2);
    let stalled = Arc::new(StallJob {
        inner: Arc::clone(&jobs[0]),
        stall_rank: RANKS - 1,
        stall: Duration::from_millis(1500),
    });
    let plan = FaultPlan::seeded(1).deadline_ms(300);
    let mut svc =
        SolveService::with_pool(WorldConfig::new(Fabric::Thread).faults(plan).pool(RANKS));
    svc.submit(JobSpec::new(
        "tenant-wedged",
        topo(),
        stalled as Arc<dyn JobLogic>,
    ));
    svc.submit(JobSpec::new(
        "tenant-bystander",
        topo(),
        Arc::clone(&jobs[1]) as Arc<dyn JobLogic>,
    ));
    let reports = svc.run_pending();
    let wedged = reports[0].outcome.as_ref().unwrap_err();
    assert!(
        wedged.message.contains("parked") || wedged.message.contains("cancelled"),
        "wedged tenant's error must come from the park/cancel path: {wedged}"
    );
    // at least one rank's dump names the in-flight jobs
    let dumped: Vec<&service::JobError> = reports
        .iter()
        .filter_map(|r| r.outcome.as_ref().err())
        .collect();
    assert!(
        dumped
            .iter()
            .any(|e| e.message.contains("tenant-wedged") && e.message.contains("parked")),
        "no deadline dump attributed the wedged tenant by name: {dumped:?}"
    );
    // … and says how far it got (which levels retire without rank 3 is
    // the hierarchy's business, so only the shape is pinned)
    assert!(
        dumped
            .iter()
            .any(|e| e.message.contains("tenant-wedged (iter 0, retired ")),
        "no deadline dump says how far the wedged tenant got: {dumped:?}"
    );
}

/// The shape the benchmark's `service_16r --pmis-seed 1` used to wedge
/// on — 24 tenants per epoch under `Fully_Optimized_Neighbor`, window 4,
/// 16 ranks at 4 per region — for 100 epochs of one warm pool. Ranks
/// retire and admit tenants in whatever order traffic lands, so while
/// `start` completed the staging step synchronously a rank could sit
/// inside one tenant's `start_all`, waiting on a peer that was waiting for
/// this rank to `test` another tenant. Two sweeps per tenant (the
/// benchmark runs one) put a `start_all` behind traffic in every tenant:
/// the benchmark wedged about one epoch in 200, this wedged in the first.
/// Every epoch must return, under the deadline, with the serial
/// reference's bytes.
#[test]
fn many_tenants_under_full_neighbor_never_wedge() {
    const N: usize = 16;
    const TENANTS: usize = 24;
    const EPOCHS: usize = 100;
    let topo = Topology::block_nodes(N, 4);
    let options = HierarchyOptions {
        seed: 1,
        ..HierarchyOptions::default()
    };
    let h = Hierarchy::setup(paper_problem(32, 16), options);
    let n = h.levels[0].a.n_rows();
    let jobs: Vec<Arc<JacobiJob>> = (0..TENANTS)
        .map(|j| {
            let w = 0.11 + 0.17 * j as f64;
            let rhs: Vec<f64> = (0..n).map(|i| (w * i as f64).cos()).collect();
            Arc::new(JacobiJob::relaxation(&h, N, &rhs, 0.8, 2))
        })
        .collect();
    let expect: Vec<Vec<Vec<f64>>> = jobs.iter().map(|j| j.reference_results()).collect();
    let plan = FaultPlan::seeded(1).deadline_ms(10_000);
    let pool = WorldConfig::new(Fabric::Thread).faults(plan).pool(N);
    let mut svc = SolveService::with_pool(pool).max_concurrent(4);
    for epoch in 0..EPOCHS {
        for (k, j) in jobs.iter().enumerate() {
            let spec = JobSpec::new(
                format!("tenant-{k}"),
                topo.clone(),
                Arc::clone(j) as Arc<dyn JobLogic>,
            );
            svc.submit(spec.backend(Backend::Protocol(Protocol::FullNeighbor)));
        }
        let got: Vec<Vec<Vec<f64>>> = svc
            .run_pending()
            .into_iter()
            .enumerate()
            .map(|(k, rep)| {
                rep.outcome
                    .unwrap_or_else(|e| panic!("epoch {epoch}: tenant {k} failed: {e}"))
            })
            .collect();
        assert_eq!(got, expect, "epoch {epoch} changed bytes");
    }
}

// ---------------------------------------------------------------------
// lanes: a failure closes its lane, and the lane's other jobs run again
// ---------------------------------------------------------------------

/// Wraps a job to count its `rank_state` calls per rank and, on rank
/// `boom_on`, to panic in its first iteration.
struct Counted {
    inner: Arc<JacobiJob>,
    boom_on: Option<usize>,
    calls: Vec<AtomicUsize>,
}

struct BoomState {
    inner: Box<dyn RankState>,
    boom: bool,
}

impl JobLogic for Counted {
    fn patterns(&self) -> Vec<CommPattern> {
        JobLogic::patterns(&*self.inner)
    }
    fn iters(&self) -> usize {
        JobLogic::iters(&*self.inner)
    }
    fn rank_state(&self, rank: usize) -> Box<dyn RankState> {
        self.calls[rank].fetch_add(1, Ordering::SeqCst);
        Box::new(BoomState {
            inner: JobLogic::rank_state(&*self.inner, rank),
            boom: self.boom_on == Some(rank),
        })
    }
}

impl RankState for BoomState {
    fn input(&mut self, iter: usize, e: EntryId, req: &dyn NeighborRequest) -> Vec<f64> {
        assert!(!(self.boom && iter == 0), "tenant boom in iteration 0");
        self.inner.input(iter, e, req)
    }
    fn absorb(&mut self, iter: usize, e: EntryId, req: &dyn NeighborRequest, output: &[f64]) {
        self.inner.absorb(iter, e, req, output)
    }
    fn finish(self: Box<Self>) -> Vec<f64> {
        self.inner.finish()
    }
}

/// Six tenants of one shape, window 2: lane 0 takes tenants 0, 2, 4 and
/// lane 1 tenants 1, 3, 5. Tenant 1 panics on rank 2 in iteration 0, which
/// closes lane 1 on every rank. Tenant 1 fails, attributed to rank 2; its
/// lane-mates, stopped or never admitted, run again in a follow-up epoch
/// of the same call; and every other report is the reference's bytes.
#[test]
fn a_failed_tenant_closes_its_lane_and_its_lane_mates_rerun() {
    const BOOM_RANK: usize = 2;
    let tenants: Vec<Arc<Counted>> = tenant_jobs(6)
        .into_iter()
        .enumerate()
        .map(|(k, inner)| {
            Arc::new(Counted {
                inner,
                boom_on: (k == 1).then_some(BOOM_RANK),
                calls: (0..RANKS).map(|_| AtomicUsize::new(0)).collect(),
            })
        })
        .collect();
    let mut svc = SolveService::new(RANKS).max_concurrent(2);
    for (k, t) in tenants.iter().enumerate() {
        let logic = Arc::clone(t) as Arc<dyn JobLogic>;
        svc.submit(JobSpec::new(format!("tenant-{k}"), topo(), logic));
    }
    let reports = svc.run_pending();
    let err = reports[1].outcome.as_ref().expect_err("tenant 1 panicked");
    assert!(err.message.contains("tenant boom"), "{err}");
    let here: Vec<usize> = err
        .causes
        .iter()
        .filter(|(_, text)| text.contains("tenant boom"))
        .map(|(r, _)| *r)
        .collect();
    assert_eq!(here, [BOOM_RANK], "{err:?}");
    let calls = |k: usize| -> Vec<usize> {
        tenants[k]
            .calls
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .collect()
    };
    for k in [0, 2, 3, 4, 5] {
        let got = reports[k]
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("tenant {k} failed: {e}"));
        assert_eq!(got, &tenants[k].inner.reference_results(), "tenant {k}");
    }
    for k in [0, 2, 4] {
        assert_eq!(calls(k), [1; RANKS], "tenant {k} ran once");
    }
    // Rank 2 closed lane 1 in its first poll round, before either
    // lane-mate could be admitted there, so the state each built on rank 2
    // is the rerun's — on another rank it may be a second one, if the
    // lane-mate started there before the cancel token arrived.
    for k in [3, 5] {
        let c = calls(k);
        assert_eq!(c[BOOM_RANK], 1, "tenant {k}: {c:?}");
        assert!(c.iter().all(|&n| (1..=2).contains(&n)), "tenant {k}: {c:?}");
    }
}

// ---------------------------------------------------------------------
// sharing: one resolution per shape per epoch
// ---------------------------------------------------------------------

/// `k` relaxation jobs over `h` with distinct right-hand sides.
fn jobs_over(h: &Hierarchy, k: usize, sweeps: usize) -> Vec<Arc<JacobiJob>> {
    let n = h.levels[0].a.n_rows();
    (0..k)
        .map(|j| {
            let seed = 0.11 + 0.17 * j as f64;
            let rhs: Vec<f64> = (0..n).map(|i| (seed * i as f64).cos()).collect();
            Arc::new(JacobiJob::relaxation(h, RANKS, &rhs, 0.8, sweeps))
        })
        .collect()
}

/// One epoch mixing two hierarchies × three backends, three tenants per
/// shape, window 2: six shapes resolve once each and their tenants — same
/// plans, same routings, same tag bases, different communicators — return
/// the bytes each returns alone in an epoch, which are the reference's.
#[test]
fn tenants_of_one_shape_share_a_resolution_and_nothing_else() {
    let backends = [
        Backend::Protocol(Protocol::StandardHypre),
        Backend::Protocol(Protocol::FullNeighbor),
        Backend::Auto,
    ];
    let hierarchies = [(16, 8), (12, 12)].map(|(w, h)| {
        Hierarchy::setup(
            diffusion_2d_7pt(w, h, 0.001, FRAC_PI_4),
            HierarchyOptions::default(),
        )
    });
    // interleaved, so tenants of one shape are not neighbours in the queue
    let mut tenants: Vec<(Arc<JacobiJob>, Backend)> = Vec::new();
    let per_hierarchy = hierarchies.each_ref().map(|h| jobs_over(h, 3, 3));
    for t in 0..3 {
        for jobs in &per_hierarchy {
            for backend in backends {
                tenants.push((Arc::clone(&jobs[t]), backend));
            }
        }
    }
    let submit = |svc: &mut SolveService, (job, backend): &(Arc<JacobiJob>, Backend)| {
        let logic = Arc::clone(job) as Arc<dyn JobLogic>;
        svc.submit(JobSpec::new("tenant", topo(), logic).backend(*backend));
    };
    for fabric in Fabric::ALL {
        let name = fabric.name();
        let mut shared =
            SolveService::with_pool(WorldConfig::new(fabric).pool(RANKS)).max_concurrent(2);
        tenants.iter().for_each(|t| submit(&mut shared, t));
        let together = shared.run_pending();
        assert_eq!(together.len(), tenants.len());
        let mut solo = SolveService::with_pool(WorldConfig::new(fabric).pool(RANKS));
        for (k, (rep, tenant)) in together.iter().zip(&tenants).enumerate() {
            let got = rep
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("{name}: tenant {k} failed: {e}"));
            submit(&mut solo, tenant);
            let alone = solo.run_pending().remove(0).outcome.expect("a job alone");
            assert_eq!(got, &alone, "{name}: tenant {k} shared vs alone");
            assert_eq!(got, &tenant.0.reference_results(), "{name}: tenant {k}");
        }
    }
}

/// 600 tenants of one shape, three levels each, in ONE epoch. A resolution
/// per job leased 600 × 3 tag spans where the process has 511 ("tag space
/// exhausted" at the 171st); a resolution per shape leases 3.
#[test]
fn six_hundred_tenants_of_one_shape_need_one_tag_lease() {
    const TENANTS: usize = 600;
    let h = Hierarchy::setup(
        diffusion_2d_7pt(16, 8, 0.001, FRAC_PI_4),
        HierarchyOptions::default(),
    );
    assert!(h.levels.len() >= 3, "{} levels", h.levels.len());
    let jobs = jobs_over(&h, 4, 1);
    let expect: Vec<Vec<Vec<f64>>> = jobs.iter().map(|j| j.reference_results()).collect();
    let mut svc = SolveService::new(RANKS).max_concurrent(8);
    for k in 0..TENANTS {
        let logic = Arc::clone(&jobs[k % jobs.len()]) as Arc<dyn JobLogic>;
        let spec = JobSpec::new(format!("tenant-{k}"), topo(), logic);
        svc.submit(spec.backend(Backend::Protocol(Protocol::FullNeighbor)));
    }
    for (k, rep) in svc.run_pending().into_iter().enumerate() {
        let got = rep
            .outcome
            .unwrap_or_else(|e| panic!("tenant {k} failed: {e}"));
        assert_eq!(got, expect[k % jobs.len()], "tenant {k}");
    }
}

/// A job whose patterns span another world than its topology.
struct WrongWorld(Arc<JacobiJob>);

impl JobLogic for WrongWorld {
    fn patterns(&self) -> Vec<CommPattern> {
        vec![CommPattern::new(
            2,
            vec![vec![(1, vec![0])], vec![(0, vec![1])]],
        )]
    }
    fn iters(&self) -> usize {
        1
    }
    fn rank_state(&self, rank: usize) -> Box<dyn RankState> {
        JobLogic::rank_state(&*self.0, rank)
    }
}

/// A shape that cannot resolve fails the jobs of that shape — with the
/// resolver's message and no ranks, it never reached one — and the rest of
/// the queue runs.
#[test]
fn a_shape_that_cannot_resolve_fails_its_own_jobs_only() {
    let jobs = tenant_jobs(2);
    let mut svc = SolveService::new(RANKS);
    let mut submit =
        |name: &str, logic: Arc<dyn JobLogic>| svc.submit(JobSpec::new(name, topo(), logic));
    submit("good-0", Arc::clone(&jobs[0]) as _);
    submit("bad-0", Arc::new(WrongWorld(Arc::clone(&jobs[0]))));
    submit("good-1", Arc::clone(&jobs[1]) as _);
    submit("bad-1", Arc::new(WrongWorld(Arc::clone(&jobs[1]))));
    let reports = svc.run_pending();
    let names: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["good-0", "bad-0", "good-1", "bad-1"]);
    for (rep, job) in [(&reports[0], &jobs[0]), (&reports[2], &jobs[1])] {
        let got = rep.outcome.as_ref().expect("the other shape runs");
        assert_eq!(got, &job.reference_results(), "{}", rep.name);
    }
    for rep in [&reports[1], &reports[3]] {
        let err = rep.outcome.as_ref().expect_err("cannot resolve");
        assert!(err.ranks.is_empty() && err.causes.is_empty(), "{err:?}");
        assert!(err.message.contains("rank count mismatch"), "{err}");
    }
    // and the service is as good as new
    submit_all(&mut svc, &jobs);
    expect_ok(&svc.run_pending(), &jobs, "the epoch after");
}

// ---------------------------------------------------------------------
// the warm set: the four most recently used shapes are kept
// ---------------------------------------------------------------------

/// The registry gauge of `pool` between epochs, as rank 0 reads it.
fn gauge(pool: &WorldPool) -> RegistryGauge {
    pool.run(|ctx| ctx.stall_report().registry)[0]
}

/// The gauge but for segment bytes, which a freed ring keeps on a free
/// list.
fn rows(g: RegistryGauge) -> RegistryGauge {
    RegistryGauge { shm_bytes: 0, ..g }
}

/// What [`rounds`] saw: every round's reports, the gauge after it, and
/// how many lanes and control fabrics each round but the last opened.
struct Rounds {
    reports: Vec<Vec<JobReport>>,
    gauges: Vec<RegistryGauge>,
    opened: Vec<u64>,
}

/// One `run_pending` call's tenants, each with its backend.
type Round = Vec<(Arc<dyn JobLogic>, Backend)>;

/// Run each of `rounds` as one `run_pending`. Job ids and the stream ids
/// of lanes and control fabrics come from one counter, so how far a
/// round's first job id jumps past the last one before it is how many the
/// rounds between opened.
fn rounds(svc: &mut SolveService, rounds: &[Round]) -> Rounds {
    let mut seen = Rounds {
        reports: Vec::new(),
        gauges: Vec::new(),
        opened: Vec::new(),
    };
    for round in rounds {
        for (k, (logic, backend)) in round.iter().enumerate() {
            let spec = JobSpec::new(format!("tenant-{k}"), topo(), Arc::clone(logic));
            svc.submit(spec.backend(*backend));
        }
        seen.reports.push(svc.run_pending());
        seen.gauges.push(gauge(svc.pool()));
    }
    seen.opened = opened(&seen.reports);
    seen
}

/// How many lanes and control fabrics each of the calls that returned
/// `reports` but the last opened.
fn opened(reports: &[Vec<JobReport>]) -> Vec<u64> {
    (reports.windows(2))
        .map(|w| w[1][0].id - w[0].last().expect("a round has jobs").id - 1)
        .collect()
}

/// `jobs` as a round of tenants under `backend`.
fn round(jobs: &[Arc<JacobiJob>], backend: Backend) -> Round {
    jobs.iter().map(|j| (Arc::clone(j) as _, backend)).collect()
}

/// Each of `jobs` as a round of its own under `backend`.
fn each(jobs: &[Arc<JacobiJob>], backend: Backend) -> Vec<Round> {
    jobs.iter()
        .map(|j| round(std::slice::from_ref(j), backend))
        .collect()
}

const HYPRE: Backend = Backend::Protocol(Protocol::StandardHypre);
const FULL: Backend = Backend::Protocol(Protocol::FullNeighbor);

/// One-job epochs of one shape: the first opens a lane and the control
/// fabric, and every later one runs on them — it opens nothing, and the
/// registry gauge, which the first left above idle, stays where the first
/// left it — with the reference's bytes, on all three fabrics.
#[test]
fn one_job_epochs_of_one_shape_share_one_lane() {
    let jobs = tenant_jobs(4);
    let calls = each(&jobs, Backend::Auto);
    for fabric in Fabric::ALL {
        let name = fabric.name();
        let mut svc = SolveService::with_pool(WorldConfig::new(fabric).pool(RANKS));
        let idle = gauge(svc.pool());
        let seen = rounds(&mut svc, &calls);
        for (k, reports) in seen.reports.iter().enumerate() {
            expect_ok(reports, &jobs[k..=k], &format!("{name} epoch {k}"));
        }
        assert_eq!(seen.opened, [2, 0, 0], "{name}");
        assert_ne!(
            seen.gauges[0], idle,
            "{name}: the first epoch keeps its lane"
        );
        assert!(
            seen.gauges.iter().all(|g| *g == seen.gauges[0]),
            "{name}: {:?}",
            seen.gauges
        );
    }
}

/// Wraps a job to count how often the service asks it for its patterns.
struct Asked {
    inner: Arc<JacobiJob>,
    asked: AtomicUsize,
}

impl JobLogic for Asked {
    fn patterns(&self) -> Vec<CommPattern> {
        self.asked.fetch_add(1, Ordering::SeqCst);
        JobLogic::patterns(&*self.inner)
    }
    fn iters(&self) -> usize {
        JobLogic::iters(&*self.inner)
    }
    fn rank_state(&self, rank: usize) -> Box<dyn RankState> {
        JobLogic::rank_state(&*self.inner, rank)
    }
}

/// A warm call knows the jobs it ran by identity. The first call asks each
/// of four jobs for its patterns once; a repeat with the same `Arc`s asks
/// none and opens nothing; the same `Arc`s under another backend are
/// another shape, asked once each; and fresh wrappers over the same jobs
/// are asked once each but open nothing, since equality, not identity,
/// decides a miss. Every call returns the reference's bytes, and the
/// service keeps no job alive after it.
#[test]
fn a_warm_call_asks_the_jobs_it_ran_for_nothing() {
    let inner = tenant_jobs(4);
    let wrap = || -> Vec<Arc<Asked>> {
        (inner.iter())
            .map(|j| {
                Arc::new(Asked {
                    inner: Arc::clone(j),
                    asked: AtomicUsize::new(0),
                })
            })
            .collect()
    };
    let (jobs, fresh) = (wrap(), wrap());
    // each call's tenants, backend, and how often each is asked
    let calls = [
        (&jobs, Backend::Auto, 1),
        (&jobs, Backend::Auto, 0),
        (&jobs, HYPRE, 1),
        (&fresh, Backend::Auto, 1),
        (&fresh, Backend::Auto, 0),
    ];
    let mut svc = SolveService::new(RANKS);
    let mut reports = Vec::new();
    for (k, &(tenants, backend, asks)) in calls.iter().enumerate() {
        let call: Round = (tenants.iter())
            .map(|t| (Arc::clone(t) as _, backend))
            .collect();
        reports.extend(rounds(&mut svc, &[call]).reports);
        expect_ok(&reports[k], &inner, &format!("call {k}"));
        for (t, tenant) in tenants.iter().enumerate() {
            let asked = tenant.asked.swap(0, Ordering::SeqCst);
            assert_eq!(asked, asks, "call {k}: tenant {t}");
            assert_eq!(Arc::strong_count(tenant), 1, "call {k}: tenant {t}");
        }
    }
    assert_eq!(opened(&reports), [5, 0, 4, 0]);
}

/// The warm set holds the four most recently used shapes. One-job calls
/// of five shapes — one hierarchy under the four protocols and `Auto` —
/// each open a lane; the first shape drops off the four after the fifth
/// call, and its lanes go at the start of the next: after a repeat of the
/// fifth shape, which opens nothing, the gauge reads what a service that
/// only ran the last four reads. When the first shape comes back it opens
/// a lane again, and then it is warm.
#[test]
fn the_least_recently_used_shape_past_the_bound_is_evicted() {
    let jobs = tenant_jobs(1);
    let backends: Vec<Backend> = (Protocol::ALL.map(Backend::Protocol).into_iter())
        .chain([Backend::Auto])
        .collect();
    let mut calls: Vec<Round> = backends.iter().map(|&b| round(&jobs, b)).collect();
    calls.extend([4, 0, 0].map(|s| round(&jobs, backends[s])));
    for fabric in Fabric::ALL {
        let name = fabric.name();
        let mut svc = SolveService::with_pool(WorldConfig::new(fabric).pool(RANKS));
        let seen = rounds(&mut svc, &calls);
        for (k, reports) in seen.reports.iter().enumerate() {
            expect_ok(reports, &jobs, &format!("{name} call {k}"));
        }
        assert_eq!(seen.opened, [2, 1, 1, 1, 1, 0, 1], "{name}");
        let mut fresh = SolveService::with_pool(WorldConfig::new(fabric).pool(RANKS));
        let last_four = rounds(&mut fresh, &calls[1..5]);
        let last_four = rows(last_four.gauges[3]);
        assert_ne!(
            rows(seen.gauges[4]),
            last_four,
            "{name}: freed before the next call"
        );
        assert_eq!(rows(seen.gauges[5]), last_four, "{name}");
    }
}

/// Shapes that come back every few calls stay warm: three backends in
/// rotation, two tenants a call, window 2. The first round opens each
/// shape's two lanes and the control fabric; the second opens nothing, and
/// the gauge after each of its calls reads what the first round left.
#[test]
fn shapes_rotating_across_calls_stay_warm() {
    let jobs = tenant_jobs(2);
    let rotation = [FULL, HYPRE, Backend::Auto];
    // two rounds, and one call more to read what the last one opened
    let calls: Vec<Round> = (rotation.iter().cycle().take(7))
        .map(|&b| round(&jobs, b))
        .collect();
    for fabric in Fabric::ALL {
        let name = fabric.name();
        let mut svc =
            SolveService::with_pool(WorldConfig::new(fabric).pool(RANKS)).max_concurrent(2);
        let seen = rounds(&mut svc, &calls);
        for (k, reports) in seen.reports.iter().enumerate() {
            expect_ok(reports, &jobs, &format!("{name} call {k}"));
        }
        assert_eq!(seen.opened, [3, 2, 2, 0, 0, 0], "{name}");
        assert!(
            seen.gauges[2..].iter().all(|g| *g == seen.gauges[2]),
            "{name}: {:?}",
            seen.gauges
        );
    }
}

/// A warm shape keeps every lane it holds, dealt or not. Window 4: a
/// four-job call opens four lanes, a one-job call after it runs on the
/// first and keeps the other three, and a four-job call after that opens
/// nothing; the gauge does not move.
#[test]
fn a_one_job_epoch_keeps_the_lanes_it_does_not_deal() {
    let jobs = tenant_jobs(4);
    let sizes = [4, 1, 4, 1];
    let calls: Vec<Round> = sizes
        .iter()
        .map(|&k| round(&jobs[..k], Backend::Auto))
        .collect();
    for fabric in Fabric::ALL {
        let name = fabric.name();
        let mut svc =
            SolveService::with_pool(WorldConfig::new(fabric).pool(RANKS)).max_concurrent(4);
        let seen = rounds(&mut svc, &calls);
        for (reports, &k) in seen.reports.iter().zip(&sizes) {
            expect_ok(reports, &jobs[..k], name);
        }
        assert_eq!(seen.opened, [5, 0, 0], "{name}");
        assert!(
            seen.gauges.iter().all(|g| *g == seen.gauges[0]),
            "{name}: {:?}",
            seen.gauges
        );
    }
}

/// What a burst leaves warm: a shape keeps as many lanes as the most one
/// call of it was dealt, `min(window, jobs)`, and no more. A four-job call
/// and then calls of one and two jobs, under the default window and under
/// window 2: the burst opens four lanes or two, the calls after it open
/// nothing, and the gauge after every call reads what a fresh service
/// reads after one call of four or two jobs.
#[test]
fn a_burst_leaves_a_shape_the_lanes_it_was_dealt_and_no_more() {
    let jobs = tenant_jobs(4);
    let sizes = [4, 1, 2, 1];
    let calls: Vec<Round> = sizes
        .iter()
        .map(|&k| round(&jobs[..k], Backend::Auto))
        .collect();
    for fabric in Fabric::ALL {
        let name = fabric.name();
        for (window, lanes) in [(usize::MAX, 4), (2, 2)] {
            let service = || {
                SolveService::with_pool(WorldConfig::new(fabric).pool(RANKS)).max_concurrent(window)
            };
            let seen = rounds(&mut service(), &calls);
            for (reports, &k) in seen.reports.iter().zip(&sizes) {
                expect_ok(reports, &jobs[..k], name);
            }
            assert_eq!(seen.opened, [lanes + 1, 0, 0], "{name} window {window}");
            let dealt = rounds(
                &mut service(),
                &[round(&jobs[..lanes as usize], Backend::Auto)],
            );
            for g in &seen.gauges {
                assert_eq!(*g, dealt.gauges[0], "{name} window {window}");
            }
        }
    }
}

/// A lane some job failed on is never dealt again, and a failure in one
/// shape leaves another shape's idle lanes warm. Window 2: a `Hypre` call
/// opens two lanes and the control fabric; then, under `Auto`, tenant 0
/// panics on rank 2 on lane 0 while tenant 1 finishes on lane 1, so the
/// next `Auto` call's two tenants take lane 1 and one new lane — a kept
/// lane 0 would have opened none — and the `Hypre` call after that opens
/// nothing. Every tenant but the failed one returns the reference's bytes.
#[test]
fn a_lane_a_tenant_failed_on_is_not_dealt_again() {
    let jobs = tenant_jobs(5);
    let boom = Arc::new(Counted {
        inner: Arc::clone(&jobs[0]),
        boom_on: Some(2),
        calls: (0..RANKS).map(|_| AtomicUsize::new(0)).collect(),
    });
    let first = vec![
        (boom as Arc<dyn JobLogic>, Backend::Auto),
        (Arc::clone(&jobs[1]) as _, Backend::Auto),
    ];
    let calls = [
        round(&jobs[..2], HYPRE),
        first,
        round(&jobs[2..4], Backend::Auto),
        round(&jobs[..2], HYPRE),
        round(&jobs[4..], Backend::Auto),
    ];
    for fabric in Fabric::ALL {
        let name = fabric.name();
        let mut svc =
            SolveService::with_pool(WorldConfig::new(fabric).pool(RANKS)).max_concurrent(2);
        let seen = rounds(&mut svc, &calls);
        let err = seen.reports[1][0].outcome.as_ref().expect_err("tenant 0");
        assert!(err.message.contains("tenant boom"), "{name}: {err}");
        expect_ok(&seen.reports[1][1..], &jobs[1..2], name);
        for (k, want) in [
            (0, &jobs[..2]),
            (2, &jobs[2..4]),
            (3, &jobs[..2]),
            (4, &jobs[4..]),
        ] {
            expect_ok(&seen.reports[k], want, &format!("{name} call {k}"));
        }
        assert_eq!(seen.opened, [3, 2, 1, 0], "{name}");
    }
}

/// Wraps a job so every rank dies outside any task: the scheduler reads
/// `iters` when it admits the job, not inside the task's poll, so the
/// epoch fails as a whole.
struct DiesAtAdmission(Arc<JacobiJob>);

impl JobLogic for DiesAtAdmission {
    fn patterns(&self) -> Vec<CommPattern> {
        JobLogic::patterns(&*self.0)
    }
    fn iters(&self) -> usize {
        panic!("no iteration count")
    }
    fn rank_state(&self, rank: usize) -> Box<dyn RankState> {
        JobLogic::rank_state(&*self.0, rank)
    }
}

/// After an epoch error nothing is warm, not even a shape the failed
/// epoch did not deal. An `Auto` lane and a `Hypre` lane are warm; the
/// `Auto` one runs a failing epoch — a tenant of its shape dies at
/// admission on every rank — and the next `Auto` call opens a lane and a
/// control fabric again, returns the reference's bytes, and leaves the
/// gauge where the first call left it: nothing the failed epoch held or
/// kept idle is still registered. The `Hypre` shape's next call opens its
/// lane again, and the gauge reads what it read with both shapes warm.
#[test]
fn an_epoch_error_leaves_nothing_warm() {
    let jobs = tenant_jobs(3);
    let dies: Arc<dyn JobLogic> = Arc::new(DiesAtAdmission(Arc::clone(&jobs[1])));
    let auto = Backend::Auto;
    let calls = [
        round(&jobs[..1], auto),
        round(&jobs[..1], HYPRE),
        vec![(Arc::clone(&jobs[1]) as _, auto), (Arc::clone(&dies), auto)],
        round(&jobs[2..], auto),
        round(&jobs[..1], HYPRE),
        round(&jobs[..1], auto),
    ];
    for fabric in Fabric::ALL {
        let name = fabric.name();
        let mut svc = SolveService::with_pool(WorldConfig::new(fabric).pool(RANKS));
        let seen = rounds(&mut svc, &calls);
        for rep in &seen.reports[2] {
            let err = rep.outcome.as_ref().expect_err("the epoch failed");
            assert!(err.message.contains("epoch failed"), "{name}: {err}");
        }
        for (k, want) in [
            (0, &jobs[..1]),
            (1, &jobs[..1]),
            (3, &jobs[2..]),
            (4, &jobs[..1]),
        ] {
            expect_ok(&seen.reports[k], want, &format!("{name} call {k}"));
        }
        expect_ok(&seen.reports[5], &jobs[..1], name);
        // the failed epoch ran on the warm lane and one new one, and the
        // calls after it open a lane and the control fabric again, then
        // the idle shape's lane again
        assert_eq!(seen.opened, [2, 1, 1, 2, 1], "{name}");
        assert_eq!(rows(seen.gauges[3]), rows(seen.gauges[0]), "{name}");
        for g in &seen.gauges[4..] {
            assert_eq!(rows(*g), rows(seen.gauges[1]), "{name}");
        }
    }
}

/// A `Backend::Tuned` shape stays warm like any other: its decision is a
/// persistent reduction, so one-job calls of it run on one kept lane —
/// the first opens it and the control fabric, the later ones open nothing
/// and leave the gauge where the first left it. The lane's probe phase
/// carries over from job to job: at the default budget of twelve probe
/// iterations, the third job's five include the decision. Every job
/// returns the reference's bytes, on all three fabrics.
#[test]
fn a_tuned_shape_stays_warm() {
    let jobs = tenant_jobs(3);
    let calls = each(&jobs, Backend::Tuned);
    for fabric in Fabric::ALL {
        let name = fabric.name();
        let mut svc = SolveService::with_pool(WorldConfig::new(fabric).pool(RANKS));
        let seen = rounds(&mut svc, &calls);
        for (k, reports) in seen.reports.iter().enumerate() {
            expect_ok(reports, &jobs[k..=k], &format!("{name} epoch {k}"));
        }
        assert_eq!(seen.opened, [2, 0], "{name}");
        for g in &seen.gauges {
            assert_eq!(rows(*g), rows(seen.gauges[0]), "{name}");
        }
    }
}

/// Six `Backend::Tuned` tenants in one call, window 4: they take turns on
/// four lanes. At seven sweeps a job, the second tenant on each of two
/// lanes makes that lane's decision (past the default twelve probe
/// iterations) while the other lanes' tenants still probe. Every tenant
/// returns the reference's bytes, on all three fabrics.
#[test]
fn tuned_tenants_take_turns_on_lanes() {
    let h = Hierarchy::setup(
        diffusion_2d_7pt(16, 8, 0.001, FRAC_PI_4),
        HierarchyOptions::default(),
    );
    let jobs = jobs_over(&h, 6, 7);
    for fabric in Fabric::ALL {
        let name = fabric.name();
        let mut svc =
            SolveService::with_pool(WorldConfig::new(fabric).pool(RANKS)).max_concurrent(4);
        let seen = rounds(&mut svc, &[round(&jobs, Backend::Tuned)]);
        expect_ok(&seen.reports[0], &jobs, name);
    }
}

/// Cancel tokens travel on the kept control fabric, so one can land after
/// its epoch, on a rank that finished the job it names before it arrived.
/// Each is stamped with its epoch and dropped by a later one: a kill at
/// every one of rank 1's ops from the 1st to the 200th, each followed by a
/// clean epoch of the same tenants on the same service, on all three
/// fabrics — every clean tenant returns the reference's bytes. A kill that
/// fails no tenant (it landed in a park, or past the epoch) leaves no token
/// and is passed over. Without the stamp, most runs of this scan end in a
/// clean epoch cancelled by a stale token.
///
/// The scan's first ops are the tenants' own traffic (see
/// [`an_early_kill_fails_one_tenant_not_the_epoch`]). Wherever the kill
/// lands, a peer may have absorbed rank 1's death and parked for a token;
/// rank 1's scheduler sends the killed job's, or — leaving the epoch
/// outside any task — the token naming no job, on the control fabric it
/// holds from the epoch's start. So with a 10 s wait deadline set, no
/// killed epoch fails on the deadline, and each returns well within it
/// (tens of ms; 5 s leaves a loaded machine its slack).
#[test]
fn a_token_from_a_killed_epoch_cancels_nothing_in_the_next() {
    let jobs = tenant_jobs(3);
    for fabric in Fabric::ALL {
        let name = fabric.name();
        let mut kills = 0;
        for nth in 1..=200 {
            let plan = FaultPlan::seeded(7).kill(1, nth).deadline_ms(10_000);
            let pool = WorldConfig::new(fabric).faults(plan).pool(RANKS);
            let mut svc = SolveService::with_pool(pool).max_concurrent(2);
            submit_all(&mut svc, &jobs);
            let started = Instant::now();
            let reports = svc.run_pending();
            let took = started.elapsed();
            assert!(
                took < Duration::from_secs(5),
                "{name} nth={nth}: the killed epoch took {took:?}"
            );
            let failed: Vec<_> = reports
                .iter()
                .filter_map(|r| r.outcome.as_ref().err())
                .collect();
            if failed.is_empty() {
                continue;
            }
            for err in failed {
                assert!(
                    !err.message.contains("wait deadline"),
                    "{name} nth={nth}: the deadline ended the killed epoch: {err}"
                );
            }
            kills += 1;
            submit_all(&mut svc, &jobs);
            expect_ok(
                &svc.run_pending(),
                &jobs,
                &format!("{name} nth={nth}: the epoch after the kill"),
            );
        }
        assert!(kills >= 20, "{name}: only {kills} kills failed a tenant");
    }
}

/// A kill at rank 1's op 1 on a fresh service fails one tenant, not the
/// epoch. Neither the run that opens the control fabric nor the prologue
/// that opens the lanes has a counted op — they register, and nothing
/// waits for the peers — so rank 1's first ops are its tenants' traffic
/// and the kill lands in a task: exactly one job fails, attributed to the
/// kill, the others return the reference's bytes, and the call returns
/// well within the 10 s wait deadline, on all three fabrics.
#[test]
fn an_early_kill_fails_one_tenant_not_the_epoch() {
    let jobs = tenant_jobs(3);
    for fabric in Fabric::ALL {
        let name = fabric.name();
        let plan = FaultPlan::seeded(7).kill(1, 1).deadline_ms(10_000);
        let pool = WorldConfig::new(fabric).faults(plan).pool(RANKS);
        let mut svc = SolveService::with_pool(pool).max_concurrent(2);
        submit_all(&mut svc, &jobs);
        let started = Instant::now();
        let reports = svc.run_pending();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(5),
            "{name}: the call took {took:?}"
        );
        let mut failed = 0;
        for (k, rep) in reports.iter().enumerate() {
            match &rep.outcome {
                Ok(got) => assert_eq!(got, &jobs[k].reference_results(), "{name}: tenant {k}"),
                Err(e) => {
                    failed += 1;
                    assert!(
                        e.message.contains("killed by fault plan at transport op 1"),
                        "{name}: tenant {k}: {e}"
                    );
                }
            }
        }
        assert_eq!(failed, 1, "{name}: one tenant fails, not the epoch");
    }
}

// ---------------------------------------------------------------------
// lifetime: a warm pool serves for as long as it likes
// ---------------------------------------------------------------------

/// Resident set of this process in kB, where `/proc` says (Linux).
fn vm_rss_kb() -> Option<f64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"));
    let kb = line.map(|v| v.trim().trim_end_matches("kB").trim().parse());
    Some(
        kb.expect("VmRSS in /proc/self/status")
            .expect("VmRSS in kB"),
    )
}

/// One call of the soak: tenant k of `jobs` under `Auto` for even k and
/// `odd` for odd k, each result checked against `expect`; the gauge after.
fn soak_call(
    svc: &mut SolveService,
    jobs: &[Arc<JacobiJob>],
    expect: &[Vec<Vec<f64>>],
    odd: Backend,
    label: &str,
) -> RegistryGauge {
    for (k, j) in jobs.iter().enumerate() {
        let spec = JobSpec::new(
            format!("tenant-{k}"),
            topo(),
            Arc::clone(j) as Arc<dyn JobLogic>,
        );
        svc.submit(match k % 2 {
            0 => spec,
            _ => spec.backend(odd),
        });
    }
    for (k, rep) in svc.run_pending().into_iter().enumerate() {
        let got = rep
            .outcome
            .unwrap_or_else(|e| panic!("{label}: tenant {k} failed: {e}"));
        assert_eq!(got, expect[k], "{label}: tenant {k}");
    }
    gauge(svc.pool())
}

/// Two runs of `total` small jobs, each through ONE warm pool per fabric,
/// ten a call under two backends, every result bit-checked. In the first
/// run the odd tenants are `Hypre` every call: after every call the
/// registry gauge — registered channels, shm table rows and segment bytes,
/// sock deliver hooks — reads what it read after the first one (the same
/// two shapes every call, on the lanes the first one left warm: nothing of
/// a retired job is left). In the second they cycle through the four
/// protocols, one a call, beside `Auto`: five shapes through four slots,
/// so every call misses one, whose old lanes — dropped off the four the
/// call before — every rank frees before any registers, and opens it
/// again. Once the cycle has come round the gauge, segment bytes included,
/// reads the same after every call: the rings the miss registers are the
/// ones its old lanes freed. In both, once the service releases its warm
/// set the gauge reads what it read before the first call, but for segment
/// bytes; and with `flat_rss` the process is no larger after the last job
/// than after the first tenth.
fn soak(total: usize, flat_rss: bool) {
    const PER_EPOCH: usize = 10;
    let jobs = tenant_jobs(PER_EPOCH);
    let cycle = Protocol::ALL.map(Backend::Protocol);
    // the odd tenants' backend in each call of the first run, the second
    let runs: [&dyn Fn(usize) -> Backend; 2] = [&|_| HYPRE, &|call| cycle[call % cycle.len()]];
    let expect: Vec<Vec<Vec<f64>>> = jobs.iter().map(|j| j.reference_results()).collect();
    for fabric in Fabric::ALL {
        let name = fabric.name();
        for (run, odd) in runs.iter().enumerate() {
            let mut svc =
                SolveService::with_pool(WorldConfig::new(fabric).pool(RANKS)).max_concurrent(3);
            let idle = gauge(svc.pool());
            // the call from which the gauge stays where it is
            let settles = [0, cycle.len() - 1][run];
            let mut settled: Option<RegistryGauge> = None;
            let mut rss_at_a_tenth = None;
            for call in 0..total / PER_EPOCH {
                let label = format!("{name} run {run}, call {call}");
                let now = soak_call(&mut svc, &jobs, &expect, odd(call), &label);
                if call >= settles {
                    assert_eq!(
                        now,
                        *settled.get_or_insert(now),
                        "{name}: the gauge moved in run {run}, call {call}"
                    );
                }
                if flat_rss && (call + 1) * PER_EPOCH == total / 10 {
                    rss_at_a_tenth = vm_rss_kb();
                }
            }
            // all that is left of {total} jobs is the warm set, and the
            // shape that last dropped off it, and once those are released,
            // segment bytes on free lists
            let released = gauge(&svc.into_pool());
            assert_eq!(
                RegistryGauge {
                    shm_bytes: idle.shm_bytes,
                    ..released
                },
                idle,
                "{name} run {run}: something of a retired job is still registered"
            );
            // within 5 % — or within 1 MiB, for a process this small is
            // mostly allocator arenas still settling (the probe behind this
            // test levels off after ~10⁴ jobs, 6 % up); a service that
            // leaked its communicators added tens of kB per job
            if let (Some(early), Some(late)) = (rss_at_a_tenth, vm_rss_kb()) {
                assert!(
                    late - early <= (early * 0.05).max(1024.0),
                    "{name} run {run}: VmRSS {early} kB after {} jobs, {late} kB after {total}",
                    total / 10
                );
            }
        }
    }
}

/// ROADMAP item 1b's acceptance at a tenth of its length (the full one is
/// [`five_thousand_jobs_leave_one_warm_pool_as_they_found_it`]).
#[test]
fn five_hundred_jobs_leave_one_warm_pool_as_they_found_it() {
    soak(500, false);
}

/// ROADMAP item 1b's acceptance: 5000 jobs through one pool per fabric,
/// flat registry, bounded shm table, flat memory. Run alone and in
/// release by `make test-serve` — `VmRSS` is the whole process's, and the
/// other tests of this file would move it.
#[test]
#[ignore = "the long soak: make test-serve runs it in release"]
fn five_thousand_jobs_leave_one_warm_pool_as_they_found_it() {
    soak(5000, true);
}

// ---------------------------------------------------------------------
// dup'd-communicator isolation, property-tested
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Two tenants running the *same* pattern with the *same* tags on
    /// dup'd communicators never cross traffic: each result is
    /// byte-identical to the job's solo run, across problem shapes.
    #[test]
    fn dup_comm_isolation(w in 8usize..20, h in 4usize..10, sweeps in 1usize..6) {
        let a = diffusion_2d_7pt(w, h, 0.001, FRAC_PI_4);
        let n = a.n_rows();
        let hier = Hierarchy::setup(a, HierarchyOptions::default());
        let rhs: Vec<f64> = (0..n).map(|i| (0.11 * i as f64).cos()).collect();
        let job = Arc::new(JacobiJob::relaxation(&hier, RANKS, &rhs, 0.8, sweeps));
        let reference = job.reference_results();

        // solo run
        let mut solo = SolveService::new(RANKS);
        solo.submit(JobSpec::new("solo", topo(), Arc::clone(&job) as Arc<dyn JobLogic>));
        let solo_out = solo.run_pending().remove(0).outcome.unwrap();
        prop_assert_eq!(&solo_out, &reference);

        // two identical tenants, overlapped on dup'd comms
        let mut both = SolveService::new(RANKS);
        for k in 0..2 {
            both.submit(JobSpec::new(
                format!("twin-{k}"),
                topo(),
                Arc::clone(&job) as Arc<dyn JobLogic>,
            ));
        }
        for rep in both.run_pending() {
            prop_assert_eq!(rep.outcome.unwrap(), solo_out.clone());
        }
    }
}
