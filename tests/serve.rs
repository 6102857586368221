//! Acceptance suite for the async solve service (`make test-serve`).
//!
//! Three contracts from DESIGN.md §12, each exercised end to end on the
//! warm pool:
//!
//! * **Equivalence** — K jobs driven concurrently produce byte-identical
//!   results to the same K jobs driven one at a time, and both match the
//!   serial reference replay, on every fabric.
//! * **Tenant isolation** — a seeded `kill=` fault that takes down one
//!   tenant mid-epoch fails *that* job with an attributed error while
//!   every surviving tenant's result stays byte-identical to its solo
//!   run.
//! * **Deadline attribution** — a wedged tenant trips the wait deadline
//!   and the resulting per-job errors name the jobs that were running on
//!   the parked rank.

use std::f64::consts::FRAC_PI_4;
use std::sync::Arc;
use std::time::Duration;

use amg::{Hierarchy, HierarchyOptions, JacobiJob};
use locality::Topology;
use mpi_advance::{Backend, CommPattern, EntryId, NeighborRequest, Protocol};
use mpisim::{Fabric, FaultPlan, WorldConfig};
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
