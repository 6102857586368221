//! The six workloads and the inputs each one builds from `--seed`.
//!
//! `--seed` feeds the vectors the exchanges carry and the tenants'
//! right-hand sides: every seed gives the same amount of work, so runs
//! with different seeds compare. `--pmis-seed` (default 0) feeds
//! `HierarchyOptions::seed`, the PMIS tie-breaks that shape every coarse
//! level's halo pattern: another value is another problem instance, with
//! other message counts and other times. The program under test only
//! ever receives the generated inputs.

use std::sync::Arc;

use amg::{DistributedHierarchy, Hierarchy, HierarchyOptions, JacobiJob};
use locality::Topology;
use mpi_advance::CommPattern;
use mpisim::{World, WorldPool};
use sparse::gen::diffusion::paper_problem;
use sparse::{build_comm_pkgs, Csr, ParCsr, Partition};

use crate::trace::Spans;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fabric {
    Thread,
    Shm,
    Sock,
}

impl Fabric {
    pub fn pool(self, n_ranks: usize) -> WorldPool {
        match self {
            Fabric::Thread => World::pool(n_ranks),
            Fabric::Shm => World::pool_shm(n_ranks),
            Fabric::Sock => World::pool_sock(n_ranks),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// One collective: the busiest level of an AMG hierarchy.
    HaloLevel,
    /// One collective: the fine-level halo of the grid, no hierarchy.
    HaloFine,
    /// Every level as one `NeighborBatch`, SpMV per level as it lands.
    AmgBatch,
    /// Tenants of a `SolveService`, every level of a small hierarchy each.
    Service,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub fabric: Fabric,
    pub ranks: usize,
    pub ppn: usize,
    pub nx: usize,
    pub ny: usize,
    /// Iterations between the two barriers of one timed block
    /// (`service_16r`: when the traced run drives a tenant's batch
    /// directly; its own blocks are epochs).
    pub iters_per_block: usize,
}

/// Tenants per service epoch, their admission window and sweeps.
pub const JOBS: usize = 24;
pub const WINDOW: usize = 4;
const SWEEPS: usize = 1;
const OMEGA: f64 = 0.8;

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "halo_small_16r",
        why: "thread fabric, busiest 128x64 AMG level: ~220 messages of ~6 values, message-count-bound, the paper's target regime",
        kind: Kind::HaloLevel,
        fabric: Fabric::Thread,
        ranks: 16,
        ppn: 4,
        nx: 128,
        ny: 64,
        iters_per_block: 100,
    },
    Spec {
        name: "halo_bulk_16r",
        why: "thread fabric, fine level of the paper's 1024x512 grid: 30 messages of 8 KiB, byte-bound, aggregation has nothing to merge",
        kind: Kind::HaloFine,
        fabric: Fabric::Thread,
        ranks: 16,
        ppn: 4,
        nx: 1024,
        ny: 512,
        iters_per_block: 100,
    },
    Spec {
        name: "amg_batch_16r",
        why: "every 128x64 level as one NeighborBatch, start_all then wait_any with SpMV per level: many live collectives, set-park path",
        kind: Kind::AmgBatch,
        fabric: Fabric::Thread,
        ranks: 16,
        ppn: 4,
        nx: 128,
        ny: 64,
        iters_per_block: 10,
    },
    Spec {
        name: "halo_small_8r_shm",
        why: "busiest 128x64 level at 8 ranks on the shm fabric: rings, futex parking, outbox and flusher; thread-fabric work predicts no change",
        kind: Kind::HaloLevel,
        fabric: Fabric::Shm,
        ranks: 8,
        ppn: 4,
        nx: 128,
        ny: 64,
        iters_per_block: 100,
    },
    Spec {
        name: "halo_small_8r_sock",
        why: "the same on the sock fabric over UDS loopback: framing, serialisation, a syscall per frame, acks, reader threads; not a real link",
        kind: Kind::HaloLevel,
        fabric: Fabric::Sock,
        ranks: 8,
        ppn: 4,
        nx: 128,
        ny: 64,
        iters_per_block: 20,
    },
    Spec {
        name: "service_16r",
        why: "SolveService with 24 Jacobi tenants per epoch, window 4: Comm::dup, registration barrier, control fabric, futures, scheduler",
        kind: Kind::Service,
        fabric: Fabric::Thread,
        ranks: 16,
        ppn: 4,
        nx: 32,
        ny: 16,
        iters_per_block: 10,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One collective's operator: the global matrix, its row partition and,
/// where the workload computes on arrival, every rank's split.
pub struct Level {
    pub a: Csr,
    pub part: Partition,
    pub mats: Vec<ParCsr>,
}

#[derive(Clone, Copy)]
pub struct Seeds {
    pub values: u64,
    pub pmis: u64,
}

pub struct Problem {
    pub spec: &'static Spec,
    pub seeds: Seeds,
    pub topo: Topology,
    /// One pattern per live collective (one for the halo workloads).
    pub patterns: Vec<CommPattern>,
    pub levels: Vec<Level>,
    /// The vector each collective exchanges, by global index.
    pub xs: Vec<Vec<f64>>,
    /// `service_16r` only: the tenants.
    pub jobs: Vec<Arc<JacobiJob>>,
}

fn hierarchy(spec: &Spec, pmis_seed: u64, rec: &mut Spans) -> Hierarchy {
    let a = paper_problem(spec.nx, spec.ny);
    let options = HierarchyOptions {
        seed: pmis_seed,
        ..HierarchyOptions::default()
    };
    rec.scope("amg.setup", |_| Hierarchy::setup(a, options))
}

/// Values of collective `entry`: in [-1, 1] so the SpMV check holds to
/// 1e-12, and different for every seed.
fn vector(n: usize, entry: usize, seed: u64) -> Vec<f64> {
    let phase = (seed % 1024) as f64 * 0.61 + entry as f64;
    (0..n).map(|g| (0.37 * g as f64 + phase).sin()).collect()
}

impl Problem {
    /// Everything up to the communication packages. Spans are recorded
    /// around the calls into `amg` and `sparse`.
    pub fn build(spec: &'static Spec, seeds: Seeds, rec: &mut Spans) -> Self {
        let seed = seeds.values;
        let topo = Topology::block_nodes(spec.ranks, spec.ppn);
        let mut jobs = Vec::new();
        let (patterns, levels): (Vec<CommPattern>, Vec<Level>) = match spec.kind {
            Kind::HaloFine => {
                let a = paper_problem(spec.nx, spec.ny);
                let part = Partition::block(a.n_rows(), spec.ranks);
                let pkgs = rec.scope("sparse.commpkg", |_| build_comm_pkgs(&a, &part));
                let level = Level {
                    a,
                    part,
                    mats: Vec::new(),
                };
                (vec![CommPattern::from_comm_pkgs(&pkgs)], vec![level])
            }
            Kind::HaloLevel | Kind::AmgBatch | Kind::Service => {
                let h = hierarchy(spec, seeds.pmis, rec);
                let dist = rec.scope("amg.dist_build", |_| {
                    DistributedHierarchy::build(&h, spec.ranks)
                });
                if spec.kind == Kind::Service {
                    let n = h.levels[0].a.n_rows();
                    jobs = (0..JOBS)
                        .map(|j| {
                            let w = 0.11 + 0.17 * j as f64 + 0.013 * (seed % 1024) as f64;
                            let rhs: Vec<f64> = (0..n).map(|i| (w * i as f64).cos()).collect();
                            Arc::new(JacobiJob::relaxation(&h, spec.ranks, &rhs, OMEGA, SWEEPS))
                        })
                        .collect();
                }
                let keep: Vec<usize> = if spec.kind == Kind::HaloLevel {
                    // first level with the most messages
                    let msgs: Vec<usize> = dist
                        .levels
                        .iter()
                        .map(|l| l.pattern().total_msgs())
                        .collect();
                    let most = *msgs.iter().max().expect("hierarchy has levels");
                    vec![msgs.iter().position(|&m| m == most).expect("max exists")]
                } else {
                    (0..dist.levels.len()).collect()
                };
                let split = spec.kind == Kind::AmgBatch;
                let patterns = keep.iter().map(|&l| dist.levels[l].pattern()).collect();
                let levels = keep
                    .iter()
                    .map(|&l| {
                        let a = h.levels[l].a.clone();
                        let part = dist.levels[l].part.clone();
                        let mats = if split {
                            ParCsr::split_all(&a, &part)
                        } else {
                            Vec::new()
                        };
                        Level { a, part, mats }
                    })
                    .collect();
                (patterns, levels)
            }
        };
        let xs = levels
            .iter()
            .enumerate()
            .map(|(e, l)| vector(l.a.n_rows(), e, seed))
            .collect();
        Self {
            spec,
            seeds,
            topo,
            patterns,
            levels,
            xs,
            jobs,
        }
    }

    /// Every rank's split of every level: what the traced run of
    /// `service_16r` needs to drive one tenant's batch directly, and the
    /// service itself does not (the jobs hold their own).
    pub fn split_levels(&mut self) {
        for l in &mut self.levels {
            l.mats = ParCsr::split_all(&l.a, &l.part);
        }
    }

    /// Whether an iteration retires entries with `wait_any` and runs that
    /// level's SpMV as it lands (the batch lifecycle), or is one
    /// collective's plain `start` + `wait`.
    pub fn batch_lifecycle(&self) -> bool {
        !self.levels[0].mats.is_empty()
    }
}
