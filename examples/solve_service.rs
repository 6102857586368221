//! The solve service, end to end (DESIGN.md §12).
//!
//! The paper's collectives amortize setup across the iterations of one
//! solver; [`SolveService`] amortizes the *world* across many solvers.
//! This example stands up a warm 8-rank pool, submits six AMG relaxation
//! tenants with distinct right-hand sides, and drives them all in ONE
//! epoch — each job on its own dup'd communicator, each rank parking
//! once on the union of every tenant's wake set. It then shows the two
//! properties that make that safe to rely on:
//!
//! 1. the pool is warm — a second round of submissions reuses it, and
//!    job ids (hence communicator streams) never collide across epochs;
//! 2. failures are per tenant — a seeded `kill=` fault takes down one
//!    job with an attributed error while every other tenant's result
//!    stays byte-identical to the fault-free run.
//!
//! Run with: `cargo run --release --example solve_service`

use std::f64::consts::FRAC_PI_4;
use std::sync::Arc;

use amg::{Hierarchy, HierarchyOptions, JacobiJob};
use locality::Topology;
use mpisim::{Fabric, FaultPlan, WorldConfig};
use service::{JobLogic, JobSpec, SolveService};
use sparse::gen::diffusion_2d_7pt;

const RANKS: usize = 8;
const TENANTS: usize = 6;

fn main() {
    // One shared AMG hierarchy (a 24x12 diffusion problem), six tenants
    // that each relax a different right-hand side on it.
    let a = diffusion_2d_7pt(24, 12, 0.001, FRAC_PI_4);
    let n = a.n_rows();
    let hier = Hierarchy::setup(a, HierarchyOptions::default());
    let topo = Topology::block_nodes(RANKS, 4);
    let jobs: Vec<Arc<JacobiJob>> = (0..TENANTS)
        .map(|j| {
            let seed = 0.11 + 0.17 * j as f64;
            let rhs: Vec<f64> = (0..n).map(|i| (seed * i as f64).cos()).collect();
            Arc::new(JacobiJob::relaxation(&hier, RANKS, &rhs, 0.8, 4))
        })
        .collect();
    let submit_all = |svc: &mut SolveService| {
        for (k, j) in jobs.iter().enumerate() {
            svc.submit(JobSpec::new(
                format!("tenant-{k}"),
                topo.clone(),
                Arc::clone(j) as Arc<dyn JobLogic>,
            ));
        }
    };

    // -- round 1: six tenants, one epoch, one park per rank ------------
    let mut svc = SolveService::new(RANKS).max_concurrent(3);
    submit_all(&mut svc);
    let round1 = svc.run_pending();
    for (k, rep) in round1.iter().enumerate() {
        let got = rep.outcome.as_ref().expect("fault-free tenant");
        assert_eq!(got, &jobs[k].reference_results());
        println!(
            "round 1  {:<10} ok: {} ranks, byte-identical to the serial reference",
            rep.name,
            got.len()
        );
    }

    // -- round 2: the pool is warm, the id space is not reused ---------
    submit_all(&mut svc);
    let round2 = svc.run_pending();
    assert!(round2.iter().all(|r| r.outcome.is_ok()));
    println!("\nround 2  same warm pool, {TENANTS} fresh jobs, all ok\n");

    // -- fault round: one tenant dies, the rest are untouched ----------
    // Rank 1 is killed at its 60th transport operation — mid-epoch, in
    // the middle of some tenant's traffic. The scheduler absorbs the
    // death, cancels exactly the jobs that rank was carrying (with the
    // failing rank named in the error), and every surviving tenant
    // still matches the reference byte for byte.
    let plan = FaultPlan::seeded(7).kill(1, 60);
    let pool = WorldConfig::new(Fabric::Thread).faults(plan).pool(RANKS);
    let mut faulty = SolveService::with_pool(pool);
    submit_all(&mut faulty);
    let reports = faulty.run_pending();
    let mut survivors = 0;
    for (k, rep) in reports.iter().enumerate() {
        match &rep.outcome {
            Ok(got) => {
                assert_eq!(got, &jobs[k].reference_results());
                survivors += 1;
            }
            Err(e) => println!("faulted  {:<10} failed (isolated): {e}", rep.name),
        }
    }
    println!("faulted  {survivors}/{TENANTS} tenants survived, byte-identical to fault-free runs");
    assert!(survivors > 0, "the kill should not take every tenant down");
}
