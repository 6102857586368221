//! Multi-tenant solve-service throughput: the `service_32ranks` group
//! pushes the same twenty-four AMG relaxation jobs through one warm
//! [`SolveService`] two ways —
//!
//! * `concurrent_24jobs`: all tenants submitted together and driven in
//!   ONE epoch — the scheduler admits four at a time (an admission
//!   window keeps each park's channel set bounded), registration /
//!   barrier / control-fabric setup happen once, and each rank
//!   interleaves the admitted jobs' retirement (traffic overlap on
//!   top, where cores allow);
//! * `sequential_24jobs`: the no-service workflow — each job submitted
//!   and run in its own epoch on the same warm pool, paying the epoch
//!   dispatch, the registration barrier, and the control fabric
//!   twenty-four times, with zero cross-job overlap.
//!
//! Both sides run the identical solve path (dup'd communicators,
//! delivery-order retirement), so the pair prices exactly what the
//! multi-tenant scheduler amortizes. `scripts/bench_compare --service`
//! pairs the entries and GATES concurrent >= 1.2x sequential jobs/sec:
//! if batching tenants into one epoch ever stops paying for the
//! scheduler's bookkeeping, the regression fails CI.

use std::sync::Arc;

use amg::JacobiJob;
use bench_suite::workload::{paper_hierarchy, paper_topology};
use criterion::{BenchmarkId, Criterion};
use service::{JobLogic, JobSpec, SolveService};

const RANKS: usize = 32;
const JOBS: usize = 24;
const SWEEPS: usize = 1;

/// The tenants: one shared hierarchy, distinct right-hand sides —
/// independent solves sized so a single job leaves the epoch's fixed
/// costs visible (the service's amortization target), not buried under
/// compute.
fn tenant_jobs() -> Vec<Arc<JacobiJob>> {
    let h = paper_hierarchy(32, 16);
    let n = h.levels[0].a.n_rows();
    (0..JOBS)
        .map(|j| {
            let seed = 0.11 + 0.17 * j as f64;
            let rhs: Vec<f64> = (0..n).map(|i| (seed * i as f64).cos()).collect();
            Arc::new(JacobiJob::relaxation(&h, RANKS, &rhs, 0.8, SWEEPS))
        })
        .collect()
}

fn submit(svc: &mut SolveService, k: usize, job: &Arc<JacobiJob>) {
    svc.submit(JobSpec::new(
        format!("tenant-{k}"),
        paper_topology(RANKS),
        Arc::clone(job) as Arc<dyn JobLogic>,
    ));
}

fn bench_service(c: &mut Criterion) {
    let jobs = tenant_jobs();
    let mut group = c.benchmark_group("service_32ranks");
    group.sample_size(10);

    let mut batched = SolveService::new(RANKS).max_concurrent(4);
    group.bench_function(BenchmarkId::from_parameter("concurrent_24jobs"), |b| {
        b.iter(|| {
            for (k, j) in jobs.iter().enumerate() {
                submit(&mut batched, k, j);
            }
            let reports = batched.run_pending();
            assert!(reports.iter().all(|r| r.outcome.is_ok()));
            reports.len()
        })
    });
    drop(batched);

    let mut one_at_a_time = SolveService::new(RANKS);
    group.bench_function(BenchmarkId::from_parameter("sequential_24jobs"), |b| {
        b.iter(|| {
            let mut done = 0;
            for (k, j) in jobs.iter().enumerate() {
                submit(&mut one_at_a_time, k, j);
                let reports = one_at_a_time.run_pending();
                assert!(reports.iter().all(|r| r.outcome.is_ok()));
                done += reports.len();
            }
            done
        })
    });
    group.finish();
}

criterion::criterion_group!(benches, bench_service);
criterion::criterion_main!(benches);
