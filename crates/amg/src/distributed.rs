//! Distributed views of the hierarchy: the per-level communication
//! patterns that the paper's experiments measure.
//!
//! The solve-phase SpMV communication on level ℓ is fully determined by
//! `A_ℓ`'s sparsity structure and the row partition. Each level is
//! block-partitioned over `P` ranks exactly as Hypre's ParCSR does; the
//! resulting [`CommPkg`]s are what the neighborhood collectives in
//! `mpi-advance` are initialized from.

use crate::hierarchy::Hierarchy;
use mpi_advance::CommPattern;
use sparse::{build_comm_pkgs, CommPkg, Csr, ParCsr, Partition};

/// One level's distributed structure.
pub struct DistLevel {
    /// Level index (0 = finest).
    pub level: usize,
    /// Global rows on this level.
    pub n_rows: usize,
    /// Row partition over the ranks.
    pub part: Partition,
    /// Per-rank halo-exchange pattern for `y = A_ℓ x`.
    pub pkgs: Vec<CommPkg>,
}

impl DistLevel {
    /// Max over ranks of the number of messages sent.
    pub fn max_send_msgs(&self) -> usize {
        self.pkgs.iter().map(|p| p.sends.len()).max().unwrap_or(0)
    }

    /// Number of ranks owning at least one row.
    pub fn active_ranks(&self) -> usize {
        self.part.active_ranks().count()
    }

    /// The level's halo-exchange pattern, ready to be an entry of an
    /// `mpi_advance::NeighborBatch`.
    pub fn pattern(&self) -> CommPattern {
        CommPattern::from_comm_pkgs(&self.pkgs)
    }
}

/// The whole hierarchy partitioned over `P` ranks.
pub struct DistributedHierarchy {
    pub n_ranks: usize,
    pub levels: Vec<DistLevel>,
}

impl DistributedHierarchy {
    /// Partition every level of `h` over `n_ranks` ranks (balanced blocks)
    /// and derive each level's communication package.
    pub fn build(h: &Hierarchy, n_ranks: usize) -> Self {
        let levels = h
            .levels
            .iter()
            .enumerate()
            .map(|(level, l)| {
                let part = Partition::block(l.a.n_rows(), n_ranks);
                let pkgs = build_comm_pkgs(&l.a, &part);
                DistLevel {
                    level,
                    n_rows: l.a.n_rows(),
                    part,
                    pkgs,
                }
            })
            .collect();
        Self { n_ranks, levels }
    }

    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Every level's halo-exchange pattern, in level order — the entry
    /// list for one `mpi_advance::NeighborBatch` serving the whole
    /// hierarchy (the solve keeps one persistent collective live per
    /// level, so they should be planned, tagged, and staged as one
    /// session).
    pub fn patterns(&self) -> Vec<CommPattern> {
        self.levels.iter().map(DistLevel::pattern).collect()
    }
}

/// Per-rank matrix pieces of one level, for executing distributed SpMVs on
/// the simulator (built on demand — storing them for every rank at paper
/// scale would be wasteful).
pub fn split_level(a: &Csr, part: &Partition) -> Vec<ParCsr> {
    ParCsr::split_all(a, part)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{Hierarchy, HierarchyOptions};
    use sparse::commpkg::validate_comm_pkgs;
    use sparse::gen::diffusion_2d_7pt;

    fn small_hierarchy() -> Hierarchy {
        let a = diffusion_2d_7pt(32, 16, 0.001, std::f64::consts::FRAC_PI_4);
        Hierarchy::setup(a, HierarchyOptions::default())
    }

    #[test]
    fn all_levels_have_valid_pkgs() {
        let h = small_hierarchy();
        let d = DistributedHierarchy::build(&h, 8);
        assert_eq!(d.n_levels(), h.n_levels());
        for lvl in &d.levels {
            validate_comm_pkgs(&lvl.pkgs);
            assert_eq!(lvl.pkgs.len(), 8);
        }
    }

    #[test]
    fn coarse_levels_have_fewer_active_ranks() {
        let h = small_hierarchy();
        let d = DistributedHierarchy::build(&h, 64);
        let first = &d.levels[0];
        let last = d.levels.last().unwrap();
        assert_eq!(first.active_ranks(), 64);
        // the coarsest level has fewer rows than ranks
        assert!(last.n_rows < 64, "coarsest has {} rows", last.n_rows);
        assert!(last.active_ranks() <= last.n_rows);
    }

    #[test]
    fn message_counts_grow_toward_middle_levels() {
        // The paper's motivating observation: communication requirements
        // are largest near the middle of the hierarchy (coarser = denser
        // rows, but coarsest = too few rows to need many partners).
        let h = small_hierarchy();
        let d = DistributedHierarchy::build(&h, 16);
        let counts: Vec<usize> = d.levels.iter().map(DistLevel::max_send_msgs).collect();
        let fine = counts[0];
        let mid_max = *counts.iter().max().unwrap();
        assert!(
            mid_max >= fine,
            "expected a middle level to need at least as many messages: {counts:?}"
        );
    }

    #[test]
    fn whole_hierarchy_exchanges_as_one_batch_on_one_pool() {
        // the solve-phase shape: one warm pooled world, one NeighborBatch
        // holding every level's collective, all levels posted with ONE
        // start_all and retired by wait_any as their traffic lands — each
        // level's "smoothing" (here: the delivery check) runs the moment
        // its halo completes, never behind a slower level's
        use locality::Topology;
        use mpi_advance::{Backend, NeighborBatch, Protocol};
        use mpisim::World;

        const RANKS: usize = 8;
        let h = small_hierarchy();
        let d = DistributedHierarchy::build(&h, RANKS);
        let patterns = d.patterns();
        assert_eq!(patterns.len(), d.n_levels());
        let topo = Topology::block_nodes(RANKS, 4);
        let mut batch = NeighborBatch::new(&topo);
        for p in &patterns {
            batch = batch.entry(p, Backend::Protocol(Protocol::FullNeighbor));
        }
        let pool = World::pool(RANKS);
        let ok = pool.run(|ctx| {
            let comm = ctx.comm_world();
            let mut session = batch.init_all(ctx, &comm);
            let inputs: Vec<Vec<f64>> = session
                .requests()
                .iter()
                .map(|r| r.input_index().iter().map(|&i| i as f64).collect())
                .collect();
            let mut ghosts: Vec<Vec<f64>> = session
                .requests()
                .iter()
                .map(|r| vec![f64::NAN; r.output_index().len()])
                .collect();
            session.start_all(ctx, &inputs);
            let mut ok = true;
            let mut retired = 0;
            while session.in_flight() > 0 {
                let lvl = session.wait_any(ctx, &mut ghosts);
                retired += 1;
                ok &= session
                    .entry(lvl)
                    .output_index()
                    .iter()
                    .zip(&ghosts[lvl])
                    .all(|(&i, &v)| v == i as f64);
            }
            ok && retired == d.n_levels()
        });
        assert!(ok.into_iter().all(|b| b), "a level's halo exchange failed");
    }

    #[test]
    fn more_ranks_mean_no_fewer_partners_at_fine_level() {
        let h = small_hierarchy();
        let d4 = DistributedHierarchy::build(&h, 4);
        let d16 = DistributedHierarchy::build(&h, 16);
        assert!(
            d16.levels[0].max_send_msgs() >= d4.levels[0].max_send_msgs(),
            "strong scaling should not reduce per-rank message counts"
        );
    }
}
