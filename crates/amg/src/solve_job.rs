//! Job-shaped solve entry: the AMG solve phase packaged for a
//! multi-tenant scheduler (`crates/service`).
//!
//! A *job* is one tenant's unit of work on a shared warm world: here,
//! weighted-Jacobi relaxation sweeps over **every** level of one AMG
//! hierarchy against that tenant's right-hand side. Each level is one
//! batch entry (its halo-exchange pattern); each sweep posts all levels'
//! exchanges at once and runs a level's relaxation the moment its ghost
//! values land — the paper's all-levels-as-one-session communication
//! shape, with the smoother as the per-entry compute.
//!
//! The struct is deliberately framework-free: it exposes the pieces a
//! scheduler needs (`patterns`, `sweeps`, `rank_state`) as inherent
//! methods and leaves the scheduler's job trait to the service crate, so
//! `amg` keeps depending only on `sparse` + `mpi-advance`.
//!
//! Determinism contract: levels share no state, so the per-rank update is
//! independent of the order entries retire within a sweep, and every
//! arithmetic step matches [`JacobiJob::reference_results`] — the same
//! sweeps computed serially on the same per-rank split matrices. A job's
//! distributed result is therefore byte-identical run to run, alone or
//! next to other tenants, which is what the service's equivalence and
//! fault-isolation suites assert.

use crate::distributed::{split_level, DistributedHierarchy};
use crate::hierarchy::Hierarchy;
use mpi_advance::{CommPattern, NeighborRequest};
use sparse::ParCsr;
use std::sync::Arc;

/// One level's shared (rank-independent) data.
struct JobLevel {
    /// Rank `r`'s split of the level matrix, shared by every rank state
    /// built from it.
    mats: Vec<Arc<ParCsr>>,
    /// Halo-exchange pattern for `y = A_l x`.
    pattern: CommPattern,
    /// Global right-hand side for the level.
    rhs: Vec<f64>,
}

/// All-levels weighted-Jacobi relaxation over one hierarchy, shaped as a
/// schedulable job: N batch entries (one per level), `sweeps` iterations,
/// per-rank state machines built on the rank threads.
pub struct JacobiJob {
    levels: Vec<JobLevel>,
    n_ranks: usize,
    omega: f64,
    sweeps: usize,
}

impl JacobiJob {
    /// Package `sweeps` damped-Jacobi sweeps over every level of `h`,
    /// partitioned over `n_ranks` balanced row blocks. The fine level
    /// relaxes against `rhs_fine` (the tenant's right-hand side); coarser
    /// levels get a deterministic synthetic right-hand side so their
    /// exchanges carry meaningful data too.
    pub fn relaxation(
        h: &Hierarchy,
        n_ranks: usize,
        rhs_fine: &[f64],
        omega: f64,
        sweeps: usize,
    ) -> Self {
        assert!(sweeps > 0, "a job must run at least one sweep");
        assert_eq!(
            rhs_fine.len(),
            h.levels[0].a.n_rows(),
            "rhs length must match the fine level"
        );
        let dist = DistributedHierarchy::build(h, n_ranks);
        let levels = h
            .levels
            .iter()
            .zip(&dist.levels)
            .map(|(l, d)| {
                let rhs = if d.level == 0 {
                    rhs_fine.to_vec()
                } else {
                    // deterministic, level-dependent, nonzero
                    (0..l.a.n_rows())
                        .map(|i| (0.37 * i as f64 + d.level as f64).sin())
                        .collect()
                };
                JobLevel {
                    mats: split_level(&l.a, &d.part)
                        .into_iter()
                        .map(Arc::new)
                        .collect(),
                    pattern: d.pattern(),
                    rhs,
                }
            })
            .collect();
        Self {
            levels,
            n_ranks,
            omega,
            sweeps,
        }
    }

    /// One halo pattern per level — the job's batch entries, finest first.
    pub fn patterns(&self) -> Vec<CommPattern> {
        self.levels.iter().map(|l| l.pattern.clone()).collect()
    }

    /// Whole-batch iterations the job runs.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Ranks the job was partitioned for.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Levels (= batch entries).
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Build rank `rank`'s worker state (call on the rank's own thread).
    pub fn rank_state(&self, rank: usize) -> JacobiRankState {
        let levels = self
            .levels
            .iter()
            .map(|l| LevelState::new(&l.mats[rank], &l.rhs))
            .collect();
        JacobiRankState {
            levels,
            omega: self.omega,
        }
    }

    /// The same sweeps computed without any fabric: per rank, the result
    /// `finish` would return — ghost values read straight out of the
    /// global iterate. Arithmetic matches the distributed path exactly
    /// (same split matrices, same accumulation order), so distributed
    /// results must be **byte-identical** to this, not merely close.
    pub fn reference_results(&self) -> Vec<Vec<f64>> {
        let per_level: Vec<Vec<Vec<f64>>> = self
            .levels
            .iter()
            .map(|l| {
                let n = l.rhs.len();
                let mut x = vec![0.0; n];
                let states: Vec<LevelState> = (0..self.n_ranks)
                    .map(|r| LevelState::new(&l.mats[r], &l.rhs))
                    .collect();
                for _ in 0..self.sweeps {
                    let x_old = x.clone();
                    for (r, st) in states.iter().enumerate() {
                        let range = st.mat.part.range(r);
                        let ghost: Vec<f64> =
                            st.mat.col_map_offd.iter().map(|&g| x_old[g]).collect();
                        let y = st.mat.spmv(&x_old[range.clone()], &ghost);
                        for (i, gi) in range.enumerate() {
                            x[gi] = x_old[gi] + self.omega * st.inv_diag[i] * (st.b[i] - y[i]);
                        }
                    }
                }
                // split the converged-by-sweeps iterate back per rank
                (0..self.n_ranks)
                    .map(|r| x[l.mats[r].part.range(r)].to_vec())
                    .collect()
            })
            .collect();
        (0..self.n_ranks)
            .map(|r| {
                per_level
                    .iter()
                    .flat_map(|lv| lv[r].iter().copied())
                    .collect()
            })
            .collect()
    }
}

/// One level's per-rank Jacobi state.
struct LevelState {
    mat: Arc<ParCsr>,
    /// Local iterate (owned rows).
    x: Vec<f64>,
    /// Local right-hand side.
    b: Vec<f64>,
    /// 1 / A_ii per owned row.
    inv_diag: Vec<f64>,
    /// For ghost column `j`: its position in the entry's `output_index`
    /// (built on first absorb — the index only exists on the request).
    ghost_pos: Option<Vec<usize>>,
    /// Ghost values of the current sweep, in `col_map_offd` order.
    ghost: Vec<f64>,
}

impl LevelState {
    fn new(mat: &Arc<ParCsr>, rhs: &[f64]) -> Self {
        let range = mat.part.range(mat.rank);
        let inv_diag = (0..range.len())
            .map(|i| {
                let d = mat.diag.get(i, i);
                assert!(d != 0.0, "Jacobi needs a nonzero diagonal");
                1.0 / d
            })
            .collect();
        Self {
            mat: Arc::clone(mat),
            x: vec![0.0; range.len()],
            b: rhs[range].to_vec(),
            inv_diag,
            ghost_pos: None,
            ghost: vec![0.0; mat.col_map_offd.len()],
        }
    }
}

/// Rank-local worker: produces each entry's send values and folds each
/// entry's arrived ghost values into one damped-Jacobi sweep of that
/// level. Entries are independent, so absorb order within a sweep does
/// not affect the result.
pub struct JacobiRankState {
    levels: Vec<LevelState>,
    omega: f64,
}

impl JacobiRankState {
    /// Entry `e`'s send values for the current sweep, aligned with
    /// `req.input_index()` (global row ids owned by this rank).
    pub fn input(&mut self, e: usize, req: &dyn NeighborRequest) -> Vec<f64> {
        let st = &self.levels[e];
        let first = st.mat.part.first_row(st.mat.rank);
        req.input_index().iter().map(|&g| st.x[g - first]).collect()
    }

    /// Entry `e`'s ghost values landed (aligned with
    /// `req.output_index()`): run one damped-Jacobi update of the level.
    pub fn absorb(&mut self, e: usize, req: &dyn NeighborRequest, output: &[f64]) {
        let st = &mut self.levels[e];
        let pos = st.ghost_pos.get_or_insert_with(|| {
            // both ascending (`output_index` is the pattern's
            // `dst_indices`), so one merge walk finds every position
            let out = req.output_index();
            let mut p = 0;
            st.mat
                .col_map_offd
                .iter()
                .map(|&g| {
                    while out.get(p).is_some_and(|&o| o < g) {
                        p += 1;
                    }
                    assert_eq!(
                        out.get(p),
                        Some(&g),
                        "entry output_index must cover every ghost column"
                    );
                    p
                })
                .collect()
        });
        for (j, &p) in pos.iter().enumerate() {
            st.ghost[j] = output[p];
        }
        let y = st.mat.spmv(&st.x, &st.ghost);
        for (i, x) in st.x.iter_mut().enumerate() {
            *x += self.omega * st.inv_diag[i] * (st.b[i] - y[i]);
        }
    }

    /// The rank's result: every level's local iterate, finest first.
    pub fn finish(self) -> Vec<f64> {
        self.levels.into_iter().flat_map(|l| l.x).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{Hierarchy, HierarchyOptions};
    use sparse::gen::diffusion_2d_7pt;
    use std::f64::consts::FRAC_PI_4;

    fn small_job(n_ranks: usize, sweeps: usize) -> JacobiJob {
        let a = diffusion_2d_7pt(16, 8, 0.001, FRAC_PI_4);
        let n = a.n_rows();
        let h = Hierarchy::setup(a, HierarchyOptions::default());
        let rhs: Vec<f64> = (0..n).map(|i| (0.11 * i as f64).cos()).collect();
        JacobiJob::relaxation(&h, n_ranks, &rhs, 0.8, sweeps)
    }

    #[test]
    fn reference_sweeps_reduce_the_fine_residual() {
        let job = small_job(4, 8);
        let per_rank = job.reference_results();
        // reassemble the fine-level iterate
        let fine_len = job.levels[0].rhs.len();
        let mut x = Vec::with_capacity(fine_len);
        for (r, res) in per_rank.iter().enumerate() {
            let local = job.levels[0].mats[r].part.range(r).len();
            x.extend_from_slice(&res[..local]);
        }
        assert_eq!(x.len(), fine_len);
        // one serial residual check against the assembled fine matrix
        let l = &job.levels[0];
        let mut r2 = 0.0;
        let mut b2 = 0.0;
        for (rank, mat) in l.mats.iter().enumerate() {
            let range = mat.part.range(rank);
            let ghost: Vec<f64> = mat.col_map_offd.iter().map(|&g| x[g]).collect();
            let y = mat.spmv(&x[range.clone()], &ghost);
            for (i, gi) in range.enumerate() {
                r2 += (l.rhs[gi] - y[i]) * (l.rhs[gi] - y[i]);
                b2 += l.rhs[gi] * l.rhs[gi];
            }
        }
        assert!(
            r2.sqrt() < 0.9 * b2.sqrt(),
            "8 damped-Jacobi sweeps should shrink the residual: \
             ||r|| = {} vs ||b|| = {}",
            r2.sqrt(),
            b2.sqrt()
        );
    }

    #[test]
    fn rank_states_cover_all_levels_and_rows() {
        let job = small_job(4, 2);
        let total: usize = (0..4)
            .map(|r| {
                let st = job.rank_state(r);
                st.levels.iter().map(|l| l.x.len()).sum::<usize>()
            })
            .sum();
        let expect: usize = job.levels.iter().map(|l| l.rhs.len()).sum();
        assert_eq!(total, expect);
        assert_eq!(job.patterns().len(), job.n_levels());
    }
}
