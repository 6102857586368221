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
//! Every job on one hierarchy and rank count shares one `Split` of it,
//! which the hierarchy keeps behind a `Weak`: a job owns only its fine
//! right-hand side, so its tenants read one copy of the operator.
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
use std::sync::{Arc, OnceLock, PoisonError};

/// One level as one rank holds it: built once per hierarchy and rank
/// count, read — never written — by every rank state any job on the split
/// builds for that rank.
struct RankLevel {
    /// The rank's split of the level matrix.
    mat: ParCsr,
    /// Where the level's rows start in the rank's iterate (every level's
    /// owned rows, finest first).
    offset: usize,
    /// Local right-hand side of a coarse level; `None` on the fine level,
    /// whose right-hand side is each job's own.
    b: Option<Vec<f64>>,
    /// Built by the level's first update on this rank and kept for every
    /// later run of any job on the split.
    derived: OnceLock<Derived>,
}

/// What a level's update needs beyond the split: the rank builds it on
/// its own thread, the first time it relaxes the level.
struct Derived {
    /// 1 / A_ii per owned row.
    inv_diag: Vec<f64>,
    /// For ghost column `j`: its position in the entry's `output_index`.
    ghost_pos: Vec<usize>,
}

impl RankLevel {
    fn rows(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.mat.local_rows()
    }

    /// The level's derived constants, built on first use against
    /// `output_index` — the entry's, which is the level pattern's
    /// `dst_indices` for this rank.
    fn derived(&self, output_index: &[usize]) -> &Derived {
        self.derived.get_or_init(|| {
            let mat = &self.mat;
            let inv_diag = (0..mat.local_rows())
                .map(|i| {
                    let d = mat.diag.get(i, i);
                    assert!(d != 0.0, "Jacobi needs a nonzero diagonal");
                    1.0 / d
                })
                .collect();
            // both ascending, so one merge walk finds every position
            let mut p = 0;
            let ghost_pos = mat
                .col_map_offd
                .iter()
                .map(|&g| {
                    while output_index.get(p).is_some_and(|&o| o < g) {
                        p += 1;
                    }
                    assert_eq!(
                        output_index.get(p),
                        Some(&g),
                        "entry output_index must cover every ghost column"
                    );
                    p
                })
                .collect();
            Derived {
                inv_diag,
                ghost_pos,
            }
        })
    }

    /// One damped-Jacobi update of the owned rows `x` against the ghost
    /// values `ghost` (in `col_map_offd` order) and the job's `fine`
    /// right-hand side, with `y` as the product's scratch. The distributed
    /// path and the reference both run this.
    fn relax(
        &self,
        d: &Derived,
        fine: &[f64],
        x: &mut [f64],
        ghost: &[f64],
        y: &mut [f64],
        omega: f64,
    ) {
        let b = (self.b.as_deref()).unwrap_or_else(|| &fine[self.mat.part.range(self.mat.rank)]);
        self.mat.spmv_into(x, ghost, y);
        for (i, x) in x.iter_mut().enumerate() {
            *x += omega * d.inv_diag[i] * (b[i] - y[i]);
        }
    }
}

/// A hierarchy split over some number of ranks: what every job on it reads
/// and no job writes.
pub(crate) struct Split {
    /// Rows and nnz of every level it was split from, finest first.
    shape: Vec<(usize, usize)>,
    /// One halo pattern per level, finest first.
    patterns: Vec<CommPattern>,
    /// Per rank, every level as that rank holds it, finest first.
    ranks: Vec<Arc<[RankLevel]>>,
}

impl Split {
    /// Partition every level of `h` over `n_ranks` balanced row blocks and
    /// split it per rank.
    fn build(h: &Hierarchy, n_ranks: usize) -> Self {
        let dist = DistributedHierarchy::build(h, n_ranks);
        let mut ranks: Vec<Vec<RankLevel>> = (0..n_ranks)
            .map(|_| Vec::with_capacity(h.levels.len()))
            .collect();
        let patterns = h
            .levels
            .iter()
            .zip(&dist.levels)
            .map(|(l, d)| {
                for (r, mat) in split_level(&l.a, &d.part).into_iter().enumerate() {
                    // deterministic, level-dependent, nonzero
                    let b = (d.level > 0).then(|| {
                        (d.part.range(r))
                            .map(|i| (0.37 * i as f64 + d.level as f64).sin())
                            .collect()
                    });
                    let offset = ranks[r].last().map_or(0, |lv| lv.rows().end);
                    ranks[r].push(RankLevel {
                        mat,
                        offset,
                        b,
                        derived: OnceLock::new(),
                    });
                }
                d.pattern()
            })
            .collect();
        Self {
            shape: Self::shape_of(h).collect(),
            patterns,
            ranks: ranks.into_iter().map(Arc::from).collect(),
        }
    }

    fn shape_of(h: &Hierarchy) -> impl Iterator<Item = (usize, usize)> + '_ {
        h.levels.iter().map(|l| (l.a.n_rows(), l.a.nnz()))
    }
}

impl Hierarchy {
    /// The split over `n_ranks` ranks that the jobs on this hierarchy
    /// hold, built if none holds one, or if the levels no longer have the
    /// rows and nnz it was split from.
    fn split(&self, n_ranks: usize) -> Arc<Split> {
        // a panicking build leaves the memo as it was, so poison is moot
        let mut memo = self.splits.lock().unwrap_or_else(PoisonError::into_inner);
        let hit = memo
            .iter()
            .find(|e| e.0 == n_ranks)
            .and_then(|e| e.1.upgrade());
        if let Some(s) = hit.filter(|s| s.shape.iter().copied().eq(Split::shape_of(self))) {
            return s;
        }
        let s = Arc::new(Split::build(self, n_ranks));
        memo.retain(|(n, s)| *n != n_ranks && s.strong_count() > 0);
        memo.push((n_ranks, Arc::downgrade(&s)));
        s
    }
}

/// All-levels weighted-Jacobi relaxation over one hierarchy, shaped as a
/// schedulable job: N batch entries (one per level), `sweeps` iterations,
/// per-rank state machines built on the rank threads. What a rank reads
/// and never writes is computed once per hierarchy and rank count — the
/// split here, the rest at each level's first update on each rank — so a
/// job holds only its fine right-hand side, and a job the service runs
/// again builds only its iterate and scratch buffers.
pub struct JacobiJob {
    split: Arc<Split>,
    /// The fine level's right-hand side, every rank's rows.
    rhs: Arc<[f64]>,
    omega: f64,
    sweeps: usize,
}

impl JacobiJob {
    /// Package `sweeps` damped-Jacobi sweeps over every level of `h`,
    /// partitioned over `n_ranks` balanced row blocks. The fine level
    /// relaxes against `rhs_fine` (the tenant's right-hand side); coarser
    /// levels get a deterministic synthetic right-hand side so their
    /// exchanges carry meaningful data too. Every job on `h` and `n_ranks`
    /// shares one split of the hierarchy.
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
        Self {
            split: h.split(n_ranks),
            rhs: Arc::from(rhs_fine),
            omega,
            sweeps,
        }
    }

    /// One halo pattern per level — the job's batch entries, finest first.
    pub fn patterns(&self) -> Vec<CommPattern> {
        self.split.patterns.clone()
    }

    /// Whole-batch iterations the job runs.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Ranks the job was partitioned for.
    pub fn n_ranks(&self) -> usize {
        self.split.ranks.len()
    }

    /// Levels (= batch entries).
    pub fn n_levels(&self) -> usize {
        self.split.patterns.len()
    }

    /// Build rank `rank`'s worker state (call on the rank's own thread):
    /// its iterate and two scratch buffers, nothing else.
    pub fn rank_state(&self, rank: usize) -> JacobiRankState {
        let levels = Arc::clone(&self.split.ranks[rank]);
        let widest = |f: fn(&ParCsr) -> usize| levels.iter().map(|l| f(&l.mat)).max().unwrap_or(0);
        JacobiRankState {
            x: vec![0.0; levels.last().map_or(0, |l| l.rows().end)],
            ghost: vec![0.0; widest(ParCsr::n_ghost)],
            y: vec![0.0; widest(ParCsr::local_rows)],
            levels,
            rhs: Arc::clone(&self.rhs),
            omega: self.omega,
        }
    }

    /// The same sweeps computed without any fabric: per rank, the result
    /// `finish` would return — ghost values read straight out of the
    /// global iterate. Arithmetic matches the distributed path exactly
    /// (same split matrices, same update), so distributed results must be
    /// **byte-identical** to this, not merely close.
    pub fn reference_results(&self) -> Vec<Vec<f64>> {
        let mut states: Vec<JacobiRankState> =
            (0..self.n_ranks()).map(|r| self.rank_state(r)).collect();
        for l in 0..self.n_levels() {
            let mut x = vec![0.0; self.split.ranks[0][l].mat.global_cols];
            for _ in 0..self.sweeps {
                let x_old = x.clone();
                for (r, st) in states.iter_mut().enumerate() {
                    let lv = &st.levels[l];
                    let d = lv.derived(&self.split.patterns[l].dst_indices(r));
                    let range = lv.mat.part.range(r);
                    let ghost: Vec<f64> = lv.mat.col_map_offd.iter().map(|&g| x_old[g]).collect();
                    let y = &mut st.y[..range.len()];
                    lv.relax(d, &self.rhs, &mut x[range], &ghost, y, self.omega);
                }
            }
            // split the iterate back per rank
            for (r, st) in states.iter_mut().enumerate() {
                let lv = &st.levels[l];
                st.x[lv.rows()].copy_from_slice(&x[lv.mat.part.range(r)]);
            }
        }
        states.into_iter().map(JacobiRankState::finish).collect()
    }
}

/// Rank-local worker: produces each entry's send values and folds each
/// entry's arrived ghost values into one damped-Jacobi sweep of that
/// level. Entries are independent, so absorb order within a sweep does
/// not affect the result.
pub struct JacobiRankState {
    levels: Arc<[RankLevel]>,
    /// The job's fine right-hand side.
    rhs: Arc<[f64]>,
    /// Every level's local iterate, finest first: the result.
    x: Vec<f64>,
    /// Ghost values of the level being absorbed, in `col_map_offd` order.
    ghost: Vec<f64>,
    /// The product of the level being absorbed.
    y: Vec<f64>,
    omega: f64,
}

impl JacobiRankState {
    /// Entry `e`'s send values for the current sweep, aligned with
    /// `req.input_index()` (global row ids owned by this rank).
    pub fn input(&mut self, e: usize, req: &dyn NeighborRequest) -> Vec<f64> {
        let lv = &self.levels[e];
        let x = &self.x[lv.rows()];
        let first = lv.mat.part.first_row(lv.mat.rank);
        req.input_index().iter().map(|&g| x[g - first]).collect()
    }

    /// Entry `e`'s ghost values landed (aligned with
    /// `req.output_index()`): run one damped-Jacobi update of the level.
    pub fn absorb(&mut self, e: usize, req: &dyn NeighborRequest, output: &[f64]) {
        let lv = &self.levels[e];
        let d = lv.derived(req.output_index());
        let ghost = &mut self.ghost[..d.ghost_pos.len()];
        for (g, &p) in ghost.iter_mut().zip(&d.ghost_pos) {
            *g = output[p];
        }
        let y = &mut self.y[..lv.mat.local_rows()];
        lv.relax(d, &self.rhs, &mut self.x[lv.rows()], ghost, y, self.omega);
    }

    /// The rank's result: every level's local iterate, finest first.
    pub fn finish(self) -> Vec<f64> {
        self.x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{Hierarchy, HierarchyOptions};
    use sparse::gen::{diffusion_2d_7pt, laplace_2d_5pt};
    use std::f64::consts::FRAC_PI_4;
    use std::sync::Weak;

    fn hierarchy() -> Hierarchy {
        let a = diffusion_2d_7pt(16, 8, 0.001, FRAC_PI_4);
        Hierarchy::setup(a, HierarchyOptions::default())
    }

    /// Tenant `j`'s job on `h`: its own right-hand side, ω and sweeps.
    fn job_on(h: &Hierarchy, n_ranks: usize, j: usize, omega: f64, sweeps: usize) -> JacobiJob {
        let w = 0.11 + 0.17 * j as f64;
        let rhs: Vec<f64> = (0..h.levels[0].a.n_rows())
            .map(|i| (w * i as f64).cos())
            .collect();
        JacobiJob::relaxation(h, n_ranks, &rhs, omega, sweeps)
    }

    fn small_job(n_ranks: usize, sweeps: usize) -> JacobiJob {
        job_on(&hierarchy(), n_ranks, 0, 0.8, sweeps)
    }

    fn bits(job: &JacobiJob) -> Vec<Vec<u64>> {
        (job.reference_results().iter())
            .map(|r| r.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// Tenant `j`'s reference on a hierarchy of its own, set up afresh.
    fn alone(n_ranks: usize, j: usize, omega: f64, sweeps: usize) -> Vec<Vec<u64>> {
        bits(&job_on(&hierarchy(), n_ranks, j, omega, sweeps))
    }

    #[test]
    fn jobs_on_one_hierarchy_and_rank_count_share_one_exact_split() {
        let h = hierarchy();
        let four = [(0, 0.8, 3), (1, 0.6, 5), (2, 0.8, 1)];
        let jobs: Vec<JacobiJob> = (four.iter())
            .map(|&(j, omega, sweeps)| job_on(&h, 4, j, omega, sweeps))
            .collect();
        let eight = [job_on(&h, 8, 3, 0.7, 2), job_on(&h, 8, 4, 0.8, 2)];
        for job in &jobs[1..] {
            assert!(Arc::ptr_eq(&jobs[0].split, &job.split));
        }
        assert!(Arc::ptr_eq(&eight[0].split, &eight[1].split));
        assert!(!Arc::ptr_eq(&jobs[0].split, &eight[0].split));
        // the first reference builds the shared constants, the later ones
        // read them
        for (job, &(j, omega, sweeps)) in jobs.iter().zip(&four) {
            assert_eq!(bits(job), alone(4, j, omega, sweeps), "tenant {j}");
        }
        assert_eq!(bits(&eight[0]), alone(8, 3, 0.7, 2));
        assert_eq!(bits(&eight[1]), alone(8, 4, 0.8, 2));
    }

    #[test]
    fn a_split_no_job_holds_is_rebuilt() {
        let h = hierarchy();
        let first = job_on(&h, 4, 0, 0.8, 3);
        let gone: Weak<Split> = Arc::downgrade(&first.split);
        drop(first);
        assert!(gone.upgrade().is_none(), "the hierarchy pins no split");
        let next = job_on(&h, 4, 1, 0.8, 3);
        assert!(!Weak::ptr_eq(&gone, &Arc::downgrade(&next.split)));
        assert_eq!(h.splits.lock().unwrap().len(), 1, "the dead entry is gone");
        assert_eq!(bits(&next), alone(4, 1, 0.8, 3));
    }

    #[test]
    fn a_replaced_level_is_split_again() {
        let mut h = hierarchy();
        let old = job_on(&h, 4, 0, 0.8, 3);
        let before = bits(&old);
        let replacement = laplace_2d_5pt(5, 5);
        let l = &h.levels[1].a;
        assert_ne!(
            (l.n_rows(), l.nnz()),
            (replacement.n_rows(), replacement.nnz())
        );
        h.levels[1].a = replacement.clone();
        let new = job_on(&h, 4, 0, 0.8, 3);
        assert!(!Arc::ptr_eq(&old.split, &new.split));
        assert!(Arc::ptr_eq(&new.split, &job_on(&h, 4, 1, 0.8, 3).split));
        let mut fresh = hierarchy();
        fresh.levels[1].a = replacement;
        assert_eq!(bits(&new), bits(&job_on(&fresh, 4, 0, 0.8, 3)));
        assert_ne!(bits(&new), before, "the new job runs on the new level");
        assert_eq!(bits(&old), before, "the old job keeps its split");
    }

    #[test]
    fn reference_sweeps_reduce_the_fine_residual() {
        let job = small_job(4, 8);
        let per_rank = job.reference_results();
        // reassemble the fine-level iterate
        let fine = |r: usize| &job.split.ranks[r][0];
        let fine_len = fine(0).mat.global_cols;
        let mut x = Vec::with_capacity(fine_len);
        for (r, res) in per_rank.iter().enumerate() {
            x.extend_from_slice(&res[fine(r).rows()]);
        }
        assert_eq!(x.len(), fine_len);
        // one serial residual check against the assembled fine matrix
        let mut r2 = 0.0;
        let mut b2 = 0.0;
        for r in 0..job.n_ranks() {
            let mat = &fine(r).mat;
            let range = mat.part.range(r);
            let ghost: Vec<f64> = mat.col_map_offd.iter().map(|&g| x[g]).collect();
            let y = mat.spmv(&x[range.clone()], &ghost);
            for (bi, yi) in job.rhs[range].iter().zip(&y) {
                r2 += (bi - yi) * (bi - yi);
                b2 += bi * bi;
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
        let total: usize = (0..4).map(|r| job.rank_state(r).x.len()).sum();
        let expect: usize = job.split.ranks[0].iter().map(|l| l.mat.global_cols).sum();
        assert_eq!(total, expect);
        assert_eq!(job.patterns().len(), job.n_levels());
    }
}
