//! A warm call allocates only what the job API forces: repeat a call of
//! Jacobi tenants the service has already run, and each rank thread
//! allocates, per job, one input `Vec` per entry per sweep, the rank-state
//! box and that state's iterate and two scratch buffers — no per-rank
//! constants, no outputs, no per-sweep collection — plus a fixed amount
//! for the call itself.
//!
//! One test in this binary: the counter is per thread, and each rank
//! thread reads its own in a pool run of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::f64::consts::FRAC_PI_4;
use std::sync::Arc;

use amg::{Hierarchy, HierarchyOptions, JacobiJob};
use locality::Topology;
use service::{JobLogic, JobSpec, SolveService};
use sparse::gen::diffusion_2d_7pt;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// thread-local `Cell` that allocates nothing itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

const RANKS: usize = 4;
const SWEEPS: usize = 3;
/// Jobs per call, three to a lane, so that one allocation more per job
/// shows in every call and the lanes' outputs pass from job to job.
const JOBS: usize = 12;
const WINDOW: usize = 4;

/// Allocations a rank thread makes for one call beyond its jobs': the
/// drive's task, result, running and completed tables, and the pool run's
/// result box.
const PER_CALL: usize = 5;

/// Warm calls a rank has to show a call that allocates exactly its budget.
/// A call on which its channels run further ahead than ever before adds
/// one payload buffer per new high-water mark — allocated at the
/// registered length, so filling it never grows it — and tenants' timing
/// decides when; the marks settle, so each rank's least call is exact. In
/// 10 runs every rank had shown an exact call within 4 warm calls.
const WARM_CALLS: usize = 8;

/// Allocations each rank thread has made so far, by rank.
fn counts(svc: &SolveService) -> Vec<usize> {
    svc.pool().run(|_| ALLOCS.with(Cell::get))
}

/// Each rank thread's allocations over one `run_pending` of `jobs`, less
/// what the two pool runs that read the counters add between the reads
/// (`gap`, measured with nothing between them). Every outcome is checked
/// against the reference.
fn call_allocs(svc: &mut SolveService, jobs: &[Arc<JacobiJob>], gap: &[usize]) -> Vec<usize> {
    for (k, job) in jobs.iter().enumerate() {
        svc.submit(JobSpec::new(
            format!("tenant-{k}"),
            Topology::block_nodes(RANKS, 2),
            Arc::clone(job) as Arc<dyn JobLogic>,
        ));
    }
    let before = counts(svc);
    let reports = svc.run_pending();
    let after = counts(svc);
    for (k, rep) in reports.iter().enumerate() {
        let got = rep.outcome.as_ref().expect("a healthy tenant completes");
        assert_eq!(got, &jobs[k].reference_results(), "tenant {k}");
    }
    (0..RANKS).map(|r| after[r] - before[r] - gap[r]).collect()
}

#[test]
fn a_warm_call_allocates_what_the_job_api_forces_and_no_more() {
    let a = diffusion_2d_7pt(16, 8, 0.001, FRAC_PI_4);
    let n = a.n_rows();
    let h = Hierarchy::setup(a, HierarchyOptions::default());
    let jobs: Vec<Arc<JacobiJob>> = (0..JOBS)
        .map(|j| {
            let seed = 0.11 + 0.17 * j as f64;
            let rhs: Vec<f64> = (0..n).map(|i| (seed * i as f64).cos()).collect();
            Arc::new(JacobiJob::relaxation(&h, RANKS, &rhs, 0.8, SWEEPS))
        })
        .collect();
    let levels = jobs[0].n_levels();
    // one input per entry per sweep, the state box, its iterate and its
    // ghost and product scratch; the result is the iterate
    let per_job = levels * SWEEPS + 4;
    let budget = JOBS * per_job + PER_CALL;

    let mut svc = SolveService::new(RANKS).max_concurrent(WINDOW);
    let c0 = counts(&svc);
    let c1 = counts(&svc);
    let gap: Vec<usize> = (0..RANKS).map(|r| c1[r] - c0[r]).collect();

    // the warm-up call resolves, opens the lanes and the control fabric
    let cold = call_allocs(&mut svc, &jobs, &gap);
    let mut least = [usize::MAX; RANKS];
    let mut seen = Vec::new();
    for _ in 0..WARM_CALLS {
        let warm = call_allocs(&mut svc, &jobs, &gap);
        for (l, &w) in least.iter_mut().zip(&warm) {
            *l = (*l).min(w);
        }
        seen.push(warm);
        if least.iter().all(|&l| l <= budget) {
            return;
        }
    }
    panic!(
        "no warm call of {JOBS} jobs ({levels} levels, {SWEEPS} sweeps) stayed within \
         {budget} allocations a rank ({per_job} a job, {PER_CALL} a call): the cold \
         call made {cold:?}, the warm calls {seen:?}"
    );
}
