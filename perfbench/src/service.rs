//! Tenants submitted to one `SolveService` and run one epoch at a time,
//! every outcome compared bit for bit with a serial replay.
//!
//! `service_16r` runs Jacobi tenants. The per-layer ledger also prices
//! the service layer on the other workloads' own patterns and fabric,
//! with tenants that only exchange.

use std::sync::Arc;
use std::time::Instant;

use locality::Topology;
use mpi_advance::{Backend, CommPattern, EntryId, NeighborRequest};
use mpisim::WorldPool;
use service::{JobLogic, JobSpec, RankState, SolveService};

use crate::calib::Calibration;
use crate::metrics::Checks;
use crate::trace::Rec;
use crate::workloads::Problem;

/// A tenant that exchanges the workload's patterns once and returns, per
/// entry, the sum of the ghost values it received.
struct ExchangeJob {
    patterns: Vec<CommPattern>,
    xs: Arc<Vec<Vec<f64>>>,
}

struct ExchangeState {
    xs: Arc<Vec<Vec<f64>>>,
    sums: Vec<f64>,
}

impl JobLogic for ExchangeJob {
    fn patterns(&self) -> Vec<CommPattern> {
        self.patterns.clone()
    }

    fn iters(&self) -> usize {
        1
    }

    fn rank_state(&self, _rank: usize) -> Box<dyn RankState> {
        Box::new(ExchangeState {
            xs: Arc::clone(&self.xs),
            sums: vec![0.0; self.patterns.len()],
        })
    }
}

impl RankState for ExchangeState {
    fn input(&mut self, _iter: usize, e: EntryId, req: &dyn NeighborRequest) -> Vec<f64> {
        req.input_index().iter().map(|&g| self.xs[e][g]).collect()
    }

    fn absorb(&mut self, _iter: usize, e: EntryId, _req: &dyn NeighborRequest, output: &[f64]) {
        self.sums[e] = output.iter().sum();
    }

    fn finish(self: Box<Self>) -> Vec<f64> {
        self.sums
    }
}

/// The jobs of one epoch and, per job, the per-rank results they must
/// return.
#[derive(Clone)]
pub struct Tenants {
    pub topo: Topology,
    logic: Vec<Arc<dyn JobLogic>>,
    expect: Vec<Vec<Vec<f64>>>,
}

impl Tenants {
    /// `service_16r`'s Jacobi tenants against `reference_results`.
    pub fn jacobi(p: &Problem) -> Self {
        Self {
            topo: p.topo.clone(),
            logic: p
                .jobs
                .iter()
                .map(|j| Arc::clone(j) as Arc<dyn JobLogic>)
                .collect(),
            expect: p.jobs.iter().map(|j| j.reference_results()).collect(),
        }
    }

    /// `n` identical tenants exchanging `p`'s patterns.
    pub fn exchange(p: &Problem, n: usize) -> Self {
        let xs = Arc::new(p.xs.clone());
        let job: Arc<dyn JobLogic> = Arc::new(ExchangeJob {
            patterns: p.patterns.clone(),
            xs: Arc::clone(&xs),
        });
        // ghost values arrive sorted by global index, as dst_indices is
        let expect: Vec<Vec<f64>> = (0..p.spec.ranks)
            .map(|r| {
                p.patterns
                    .iter()
                    .zip(xs.iter())
                    .map(|(pat, x)| pat.dst_indices(r).iter().map(|&g| x[g]).sum())
                    .collect()
            })
            .collect();
        Self {
            topo: p.topo.clone(),
            logic: vec![job; n],
            expect: vec![expect; n],
        }
    }

    pub fn len(&self) -> usize {
        self.logic.len()
    }
}

pub struct ServiceLive {
    pub svc: SolveService,
    pub tenants: Tenants,
    pub checks: Checks,
    calibration: Calibration,
    calibrations: u64,
}

impl ServiceLive {
    pub fn new(pool: WorldPool, window: usize, tenants: Tenants) -> Self {
        Self {
            calibration: Calibration::new(pool.n_ranks()),
            calibrations: 0,
            svc: SolveService::with_pool(pool).max_concurrent(window),
            tenants,
            checks: Checks::default(),
        }
    }

    /// One calibration among the service's own rank threads, in an epoch
    /// of its own: seconds per hop (see `calib`).
    pub fn hop_seconds(&mut self) -> f64 {
        let (calibration, call) = (&self.calibration, self.calibrations);
        self.calibrations += 1;
        self.svc
            .pool()
            .run(|ctx| calibration.hop_seconds(ctx.rank(), call))[0]
    }

    /// Submit the first `n_jobs` tenants under `backend`, run them in one
    /// epoch, check every outcome; wall seconds of submit + `run_pending`.
    pub fn epoch(&mut self, backend: Backend, n_jobs: usize, rec: &mut impl Rec, op: u64) -> f64 {
        rec.enter("service.epoch", op);
        let t0 = Instant::now();
        for (k, job) in self.tenants.logic[..n_jobs].iter().enumerate() {
            self.svc.submit(
                JobSpec::new(
                    format!("tenant-{k}"),
                    self.tenants.topo.clone(),
                    Arc::clone(job),
                )
                .backend(backend),
            );
        }
        let reports = self.svc.run_pending();
        let wall = t0.elapsed().as_secs_f64();
        rec.exit();
        let mut failed = n_jobs.abs_diff(reports.len()) as u64;
        for (report, want) in reports.iter().zip(&self.tenants.expect) {
            let same = match &report.outcome {
                Ok(got) => {
                    got.len() == want.len()
                        && got.iter().zip(want).all(|(g, w)| {
                            g.len() == w.len()
                                && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits())
                        })
                }
                Err(_) => false,
            };
            failed += u64::from(!same);
        }
        self.checks.add(
            &format!("a service epoch of {n_jobs} under {backend:?}"),
            n_jobs as u64,
            failed,
        );
        wall
    }
}
