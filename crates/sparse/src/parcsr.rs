//! Hypre-style distributed matrix view: `diag` + `offd` blocks.
//!
//! Each rank owns a contiguous block of rows. Columns inside the owned
//! range go in the `diag` block (indexed by local column); all others go in
//! the `offd` block, whose compressed columns map to global columns via
//! `col_map_offd`. A distributed SpMV multiplies `diag` by the local vector
//! and `offd` by ghost values received from the owners of the
//! `col_map_offd` entries — this receive set *is* the irregular
//! communication pattern the paper optimizes.

use crate::csr::Csr;
use crate::partition::Partition;

/// One rank's portion of a distributed CSR matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ParCsr {
    /// The global row partition (shared by all ranks).
    pub part: Partition,
    /// This rank.
    pub rank: usize,
    /// Local rows × local columns (owned range), local column indices.
    pub diag: Csr,
    /// Local rows × ghost columns, compressed column indices.
    pub offd: Csr,
    /// Global column of each compressed offd column, ascending.
    pub col_map_offd: Vec<usize>,
    /// Number of global columns.
    pub global_cols: usize,
}

impl ParCsr {
    /// Extract rank `rank`'s portion of the square global matrix `a`
    /// partitioned by `part` (rows and columns partitioned identically).
    pub fn from_global(a: &Csr, part: &Partition, rank: usize) -> Self {
        assert_eq!(a.n_rows(), part.n_rows(), "partition must cover all rows");
        assert_eq!(
            a.n_rows(),
            a.n_cols(),
            "ParCsr::from_global expects square matrices"
        );
        let range = part.range(rank);
        let first = range.start;
        let local_n = range.len();

        let ghost = Self::ghost_cols(a, part, rank);

        let ghost_idx = |c: usize| ghost.binary_search(&c).expect("ghost column present");

        let mut d_rowptr = Vec::with_capacity(local_n + 1);
        let mut o_rowptr = Vec::with_capacity(local_n + 1);
        d_rowptr.push(0usize);
        o_rowptr.push(0usize);
        let mut d_cols = Vec::new();
        let mut d_vals = Vec::new();
        let mut o_cols = Vec::new();
        let mut o_vals = Vec::new();

        for r in range.clone() {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if range.contains(&c) {
                    d_cols.push(c - first);
                    d_vals.push(v);
                } else {
                    o_cols.push(ghost_idx(c));
                    o_vals.push(v);
                }
            }
            d_rowptr.push(d_cols.len());
            o_rowptr.push(o_cols.len());
        }

        let diag = Csr::new(local_n, local_n, d_rowptr, d_cols, d_vals);
        let offd = Csr::new(local_n, ghost.len(), o_rowptr, o_cols, o_vals);
        Self {
            part: part.clone(),
            rank,
            diag,
            offd,
            col_map_offd: ghost,
            global_cols: a.n_cols(),
        }
    }

    /// Rank `rank`'s ghost columns — the global columns its rows of `a`
    /// touch outside its own range, ascending: what
    /// [`ParCsr::from_global`] stores as `col_map_offd`, without building
    /// the split.
    pub fn ghost_cols(a: &Csr, part: &Partition, rank: usize) -> Vec<usize> {
        let range = part.range(rank);
        let mut ghost: Vec<usize> = Vec::new();
        for r in range.clone() {
            let (cols, _) = a.row(r);
            ghost.extend(cols.iter().filter(|c| !range.contains(c)));
        }
        ghost.sort_unstable();
        ghost.dedup();
        ghost
    }

    /// All ranks' portions at once.
    pub fn split_all(a: &Csr, part: &Partition) -> Vec<ParCsr> {
        (0..part.n_parts())
            .map(|r| Self::from_global(a, part, r))
            .collect()
    }

    /// Number of locally owned rows.
    pub fn local_rows(&self) -> usize {
        self.diag.n_rows()
    }

    /// Number of ghost columns (off-process vector entries needed).
    pub fn n_ghost(&self) -> usize {
        self.col_map_offd.len()
    }

    /// `y = A_local · [x_local ; x_ghost]`, where `x_ghost[i]` is the value
    /// of global column `col_map_offd[i]`.
    pub fn spmv(&self, x_local: &[f64], x_ghost: &[f64]) -> Vec<f64> {
        self.check_operands(x_local, x_ghost);
        (0..self.local_rows())
            .map(|r| self.row_product(r, x_local, x_ghost))
            .collect()
    }

    /// [`ParCsr::spmv`] into a caller-provided buffer of `local_rows()`.
    pub fn spmv_into(&self, x_local: &[f64], x_ghost: &[f64], y: &mut [f64]) {
        self.check_operands(x_local, x_ghost);
        assert_eq!(y.len(), self.local_rows(), "y length mismatch");
        for (r, yr) in y.iter_mut().enumerate() {
            *yr = self.row_product(r, x_local, x_ghost);
        }
    }

    fn check_operands(&self, x_local: &[f64], x_ghost: &[f64]) {
        assert_eq!(x_local.len(), self.local_rows(), "x_local length mismatch");
        assert_eq!(x_ghost.len(), self.n_ghost(), "x_ghost length mismatch");
    }

    /// Row `r` of the product: its diag part and its offd part, each
    /// summed from `0.0` in index order, then added — the arithmetic of
    /// `diag.spmv` followed by `offd.spmv_add_into`, in one pass.
    #[inline]
    fn row_product(&self, r: usize, x_local: &[f64], x_ghost: &[f64]) -> f64 {
        let dot = |m: &Csr, x: &[f64]| {
            let (cols, vals) = m.row(r);
            cols.iter()
                .zip(vals)
                .fold(0.0, |acc, (&c, &v)| acc + v * x[c])
        };
        dot(&self.diag, x_local) + dot(&self.offd, x_ghost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::vector::random_vec;

    fn tridiag(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn split_shapes() {
        let a = tridiag(10);
        let part = Partition::block(10, 3);
        let p1 = ParCsr::from_global(&a, &part, 1);
        assert_eq!(p1.local_rows(), 3);
        // rank 1 owns rows 4..7; ghosts are columns 3 and 7
        assert_eq!(p1.col_map_offd, vec![3, 7]);
        assert_eq!(p1.diag.n_cols(), 3);
        assert_eq!(p1.offd.n_cols(), 2);
    }

    #[test]
    fn distributed_spmv_matches_serial() {
        let n = 37;
        let a = tridiag(n);
        let part = Partition::block(n, 5);
        let x = random_vec(n, 3);
        let serial = a.spmv(&x);
        for rank in 0..5 {
            let p = ParCsr::from_global(&a, &part, rank);
            let range = part.range(rank);
            let x_local = &x[range.clone()];
            let x_ghost: Vec<f64> = p.col_map_offd.iter().map(|&c| x[c]).collect();
            let y = p.spmv(x_local, &x_ghost);
            // diag-then-offd accumulation reorders the row sum relative to
            // the serial global-column-order sum (exactly as Hypre's split
            // does), so boundary rows can differ by rounding — compare to
            // a tight tolerance, not bit-for-bit.
            for (got, want) in y.iter().zip(&serial[range]) {
                assert!(
                    (got - want).abs() <= 1e-14 * want.abs().max(1.0),
                    "{got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn empty_rank_is_fine() {
        let a = tridiag(3);
        let part = Partition::block(3, 6);
        let p = ParCsr::from_global(&a, &part, 5);
        assert_eq!(p.local_rows(), 0);
        assert_eq!(p.n_ghost(), 0);
        assert!(p.spmv(&[], &[]).is_empty());
    }

    #[test]
    fn single_rank_has_no_ghosts() {
        let a = tridiag(8);
        let part = Partition::block(8, 1);
        let p = ParCsr::from_global(&a, &part, 0);
        assert_eq!(p.n_ghost(), 0);
        assert_eq!(p.diag, a);
    }
}
