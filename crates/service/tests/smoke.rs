//! Crate-level smoke tests: the service round-trips an AMG relaxation
//! job against its serial reference on every fabric. The full acceptance
//! suite (kill isolation, deadline attribution, dup-comm proptests)
//! lives in the umbrella crate's `tests/serve.rs` (`make test-serve`).

use std::f64::consts::FRAC_PI_4;
use std::sync::Arc;

use amg::{Hierarchy, HierarchyOptions, JacobiJob};
use locality::Topology;
use mpisim::{Fabric, WorldConfig};
use service::{JobSpec, SolveService};
use sparse::gen::diffusion_2d_7pt;

const RANKS: usize = 4;

fn jobs(k: usize) -> Vec<Arc<JacobiJob>> {
    let a = diffusion_2d_7pt(16, 8, 0.001, FRAC_PI_4);
    let n = a.n_rows();
    let h = Hierarchy::setup(a, HierarchyOptions::default());
    (0..k)
        .map(|j| {
            let seed = 0.11 + 0.12 * j as f64;
            let rhs: Vec<f64> = (0..n).map(|i| (seed * i as f64).cos()).collect();
            Arc::new(JacobiJob::relaxation(&h, RANKS, &rhs, 0.8, 5))
        })
        .collect()
}

fn check(mut svc: SolveService, jobs: &[Arc<JacobiJob>], label: &str) {
    for (k, j) in jobs.iter().enumerate() {
        svc.submit(JobSpec::new(
            format!("tenant-{k}"),
            Topology::block_nodes(RANKS, 2),
            Arc::clone(j) as _,
        ));
    }
    let reports = svc.run_pending();
    assert_eq!(reports.len(), jobs.len(), "{label}");
    for (k, rep) in reports.iter().enumerate() {
        let got = rep.outcome.as_ref().expect(label);
        assert_eq!(got, &jobs[k].reference_results(), "{label}: tenant {k}");
    }
}

#[test]
fn two_tenants_match_reference() {
    check(SolveService::new(RANKS), &jobs(2), "thread");
}

#[test]
fn two_tenants_match_reference_on_shm_and_sock() {
    let jobs = jobs(2);
    for fabric in [Fabric::Shm, Fabric::Sock] {
        let pool = WorldConfig::new(fabric).pool(RANKS);
        check(SolveService::with_pool(pool), &jobs, fabric.name());
    }
}
