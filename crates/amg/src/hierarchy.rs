//! Hierarchy construction (the AMG setup phase).

use crate::coarsen::{count_coarse, pmis};
use crate::dense::DenseLu;
use crate::interp::classical_interpolation;
use crate::solve_job::Split;
use crate::strength::strength_matrix;
use sparse::spgemm::rap;
use sparse::Csr;
use std::sync::{Mutex, Weak};

/// Setup options.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyOptions {
    /// Strength threshold θ (Hypre default 0.25).
    pub theta: f64,
    /// Stop coarsening below this many rows.
    pub max_coarse: usize,
    /// Hard cap on the number of levels.
    pub max_levels: usize,
    /// Seed for the PMIS random tiebreakers.
    pub seed: u64,
}

impl Default for HierarchyOptions {
    fn default() -> Self {
        Self {
            theta: 0.25,
            max_coarse: 40,
            max_levels: 25,
            seed: 0,
        }
    }
}

/// One level of the hierarchy: its operator and the interpolation down to
/// it (absent on the coarsest level).
pub struct Level {
    /// The level operator `A_ℓ`.
    pub a: Csr,
    /// Interpolation from level ℓ+1 up to level ℓ (`P_ℓ`), if ℓ is not the
    /// coarsest.
    pub p: Option<Csr>,
}

/// A complete AMG hierarchy. Its levels are fixed once set up: every
/// `JacobiJob` built on it shares one split of them per rank count, which
/// is rebuilt only when a level's rows or nnz no longer match it.
pub struct Hierarchy {
    pub levels: Vec<Level>,
    /// Direct solver for the coarsest operator.
    pub coarse_solver: DenseLu,
    pub options: HierarchyOptions,
    /// The live split per rank count, held by the jobs built on it.
    pub(crate) splits: Mutex<Vec<(usize, Weak<Split>)>>,
}

impl Hierarchy {
    /// BoomerAMG-style setup: strength → PMIS → direct interpolation →
    /// Galerkin RAP, repeated until the operator is small.
    pub fn setup(a: Csr, options: HierarchyOptions) -> Self {
        assert_eq!(a.n_rows(), a.n_cols(), "AMG needs a square operator");
        let mut levels: Vec<Level> = Vec::new();
        let mut current = a;
        while current.n_rows() > options.max_coarse && levels.len() + 1 < options.max_levels {
            let s = strength_matrix(&current, options.theta);
            let cf = pmis(&s, options.seed.wrapping_add(levels.len() as u64));
            let nc = count_coarse(&cf);
            if nc == 0 || nc == current.n_rows() {
                break; // coarsening stalled
            }
            let (p, _) = classical_interpolation(&current, &s, &cf);
            let coarse = rap(&current, &p);
            levels.push(Level {
                a: current,
                p: Some(p),
            });
            current = coarse;
        }
        let coarse_solver = DenseLu::factor(&current);
        levels.push(Level {
            a: current,
            p: None,
        });
        Self {
            levels,
            coarse_solver,
            options,
            splits: Mutex::default(),
        }
    }

    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Rows per level, fine to coarse.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.a.n_rows()).collect()
    }

    /// Operator complexity: Σ nnz(A_ℓ) / nnz(A_0).
    pub fn operator_complexity(&self) -> f64 {
        let total: usize = self.levels.iter().map(|l| l.a.nnz()).sum();
        total as f64 / self.levels[0].a.nnz() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen::{diffusion_2d_7pt, laplace_2d_5pt};

    #[test]
    fn laplacian_hierarchy_shrinks() {
        let a = laplace_2d_5pt(32, 32);
        let h = Hierarchy::setup(a, HierarchyOptions::default());
        let sizes = h.level_sizes();
        assert!(sizes.len() >= 3, "expected multiple levels, got {sizes:?}");
        for w in sizes.windows(2) {
            assert!(w[1] < w[0], "levels must shrink: {sizes:?}");
        }
        assert!(*sizes.last().unwrap() <= 40);
        // reasonable operator complexity for classical AMG
        assert!(h.operator_complexity() < 5.0);
    }

    #[test]
    fn anisotropic_hierarchy_has_many_levels() {
        // 1-D strong coupling ⇒ slow (factor ~2) coarsening ⇒ deep
        // hierarchy, matching the ~17 levels of the paper's 524k problem.
        let a = diffusion_2d_7pt(64, 32, 0.001, std::f64::consts::FRAC_PI_4);
        let h = Hierarchy::setup(a, HierarchyOptions::default());
        assert!(
            h.n_levels() >= 5,
            "got {} levels: {:?}",
            h.n_levels(),
            h.level_sizes()
        );
    }

    #[test]
    fn galerkin_operator_is_symmetric() {
        let a = laplace_2d_5pt(16, 16);
        let h = Hierarchy::setup(a, HierarchyOptions::default());
        for l in &h.levels[1..] {
            assert!(l.a.frob_distance(&l.a.transpose()) < 1e-9);
        }
    }

    #[test]
    fn tiny_matrix_single_level() {
        let a = laplace_2d_5pt(3, 3);
        let h = Hierarchy::setup(a, HierarchyOptions::default());
        assert_eq!(h.n_levels(), 1);
        assert!(h.levels[0].p.is_none());
    }
}
