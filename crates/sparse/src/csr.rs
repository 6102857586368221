//! Compressed sparse row matrices.

use crate::coo::Coo;

/// A CSR matrix with `f64` values. Column indices within each row are kept
/// sorted and unique (enforced by the constructors).
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    rowptr: Vec<usize>,
    colind: Vec<usize>,
    vals: Vec<f64>,
}

impl Csr {
    /// Build from raw arrays, validating the invariants.
    pub fn new(
        n_rows: usize,
        n_cols: usize,
        rowptr: Vec<usize>,
        colind: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(
            rowptr.len(),
            n_rows + 1,
            "rowptr must have n_rows+1 entries"
        );
        assert_eq!(rowptr[0], 0, "rowptr must start at 0");
        assert_eq!(
            *rowptr.last().unwrap(),
            colind.len(),
            "rowptr end must equal nnz"
        );
        assert_eq!(colind.len(), vals.len(), "colind/vals length mismatch");
        for r in 0..n_rows {
            assert!(rowptr[r] <= rowptr[r + 1], "rowptr must be non-decreasing");
            let cols = &colind[rowptr[r]..rowptr[r + 1]];
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "row {r}: columns must be sorted and unique");
            }
            if let Some(&last) = cols.last() {
                assert!(last < n_cols, "row {r}: column {last} out of {n_cols}");
            }
        }
        Self {
            n_rows,
            n_cols,
            rowptr,
            colind,
            vals,
        }
    }

    /// An empty (all-zero) matrix.
    pub fn zero(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            rowptr: vec![0; n_rows + 1],
            colind: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// The identity of size `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            n_rows: n,
            n_cols: n,
            rowptr: (0..=n).collect(),
            colind: (0..n).collect(),
            vals: vec![1.0; n],
        }
    }

    /// Convert from COO, sorting columns and summing duplicates. Entries
    /// that sum to exactly zero are kept (structural nonzeros). Past two
    /// duplicates of one position their summation order is unspecified
    /// (the per-row sort is unstable), so the sum's last bits may differ
    /// from an entry-order sum.
    pub fn from_coo(coo: &Coo) -> Self {
        let mut per_row: Vec<usize> = vec![0; coo.n_rows + 1];
        for &(r, _, _) in &coo.entries {
            per_row[r + 1] += 1;
        }
        for i in 0..coo.n_rows {
            per_row[i + 1] += per_row[i];
        }
        // bucket entries by row
        let mut cols = vec![0usize; coo.entries.len()];
        let mut vals = vec![0.0f64; coo.entries.len()];
        let mut cursor = per_row.clone();
        for &(r, c, v) in &coo.entries {
            let p = cursor[r];
            cols[p] = c;
            vals[p] = v;
            cursor[r] += 1;
        }
        // sort each row and merge duplicates
        let mut rowptr = Vec::with_capacity(coo.n_rows + 1);
        rowptr.push(0);
        let mut out_cols = Vec::with_capacity(cols.len());
        let mut out_vals = Vec::with_capacity(vals.len());
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..coo.n_rows {
            scratch.clear();
            scratch.extend(
                cols[per_row[r]..per_row[r + 1]]
                    .iter()
                    .copied()
                    .zip(vals[per_row[r]..per_row[r + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = scratch[i].1;
                i += 1;
                while i < scratch.len() && scratch[i].0 == c {
                    v += scratch[i].1;
                    i += 1;
                }
                out_cols.push(c);
                out_vals.push(v);
            }
            rowptr.push(out_cols.len());
        }
        Self {
            n_rows: coo.n_rows,
            n_cols: coo.n_cols,
            rowptr,
            colind: out_cols,
            vals: out_vals,
        }
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    pub fn nnz(&self) -> usize {
        self.colind.len()
    }

    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    pub fn colind(&self) -> &[usize] {
        &self.colind
    }

    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Columns and values of row `r`.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let (a, b) = (self.rowptr[r], self.rowptr[r + 1]);
        (&self.colind[a..b], &self.vals[a..b])
    }

    pub fn row_nnz(&self, r: usize) -> usize {
        self.rowptr[r + 1] - self.rowptr[r]
    }

    /// Value at `(r, c)` (0.0 when structurally zero). O(log row nnz).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&c) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// `y = A x`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.spmv_into(x, &mut y);
        y
    }

    /// `y = A x` into a caller-provided buffer.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "x length mismatch");
        assert_eq!(y.len(), self.n_rows, "y length mismatch");
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for i in self.rowptr[r]..self.rowptr[r + 1] {
                acc += self.vals[i] * x[self.colind[i]];
            }
            *yr = acc;
        }
    }

    /// `y += A x`.
    pub fn spmv_add_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "x length mismatch");
        assert_eq!(y.len(), self.n_rows, "y length mismatch");
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for i in self.rowptr[r]..self.rowptr[r + 1] {
                acc += self.vals[i] * x[self.colind[i]];
            }
            *yr += acc;
        }
    }

    /// `y = Aᵀ x` without materializing the transpose (the restriction
    /// operation of multigrid).
    pub fn spmv_transpose(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_rows, "x length mismatch");
        let mut y = vec![0.0; self.n_cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for i in self.rowptr[r]..self.rowptr[r + 1] {
                y[self.colind[i]] += self.vals[i] * xr;
            }
        }
        y
    }

    /// Transpose (counting sort; O(nnz + n)).
    pub fn transpose(&self) -> Csr {
        let mut rowptr = vec![0usize; self.n_cols + 1];
        for &c in &self.colind {
            rowptr[c + 1] += 1;
        }
        for i in 0..self.n_cols {
            rowptr[i + 1] += rowptr[i];
        }
        let mut colind = vec![0usize; self.nnz()];
        let mut vals = vec![0.0f64; self.nnz()];
        let mut cursor = rowptr.clone();
        for r in 0..self.n_rows {
            for i in self.rowptr[r]..self.rowptr[r + 1] {
                let c = self.colind[i];
                let p = cursor[c];
                colind[p] = r;
                vals[p] = self.vals[i];
                cursor[c] += 1;
            }
        }
        // rows of the transpose come out sorted because we sweep r ascending
        Csr {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            rowptr,
            colind,
            vals,
        }
    }

    /// The diagonal as a dense vector (square or rectangular; missing
    /// diagonal entries are 0).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.n_rows.min(self.n_cols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Extract a sub-matrix of the given row range with all columns.
    pub fn row_slice(&self, rows: std::ops::Range<usize>) -> Csr {
        assert!(rows.end <= self.n_rows);
        let base = self.rowptr[rows.start];
        let rowptr: Vec<usize> = self.rowptr[rows.start..=rows.end]
            .iter()
            .map(|&p| p - base)
            .collect();
        let colind = self.colind[base..self.rowptr[rows.end]].to_vec();
        let vals = self.vals[base..self.rowptr[rows.end]].to_vec();
        Csr {
            n_rows: rows.len(),
            n_cols: self.n_cols,
            rowptr,
            colind,
            vals,
        }
    }

    /// Dense representation (test helper; avoid on large matrices).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.n_cols]; self.n_rows];
        for (r, dr) in d.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                dr[c] = v;
            }
        }
        d
    }

    /// Frobenius-norm distance to another matrix (test helper).
    pub fn frob_distance(&self, other: &Csr) -> f64 {
        assert_eq!(self.n_rows, other.n_rows);
        assert_eq!(self.n_cols, other.n_cols);
        let mut acc = 0.0;
        for r in 0..self.n_rows {
            let (c1, v1) = self.row(r);
            let (c2, v2) = other.row(r);
            let mut i = 0;
            let mut j = 0;
            while i < c1.len() || j < c2.len() {
                if j >= c2.len() || (i < c1.len() && c1[i] < c2[j]) {
                    acc += v1[i] * v1[i];
                    i += 1;
                } else if i >= c1.len() || c2[j] < c1[i] {
                    acc += v2[j] * v2[j];
                    j += 1;
                } else {
                    let d = v1[i] - v2[j];
                    acc += d * d;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [1 0 2]
        // [0 3 0]
        let mut coo = Coo::new(2, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        Csr::from_coo(&coo)
    }

    #[test]
    fn basic_accessors() {
        let m = sample();
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0), (&[0usize, 2][..], &[1.0, 2.0][..]));
        assert_eq!(m.get(1, 1), 3.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.row_nnz(0), 2);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let x = vec![1.0, 10.0, 100.0];
        assert_eq!(m.spmv(&x), vec![201.0, 30.0]);
    }

    #[test]
    fn spmv_add_accumulates() {
        let m = sample();
        let x = vec![1.0, 1.0, 1.0];
        let mut y = vec![100.0, 100.0];
        m.spmv_add_into(&x, &mut y);
        assert_eq!(y, vec![103.0, 103.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn identity_spmv_is_noop() {
        let i = Csr::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.spmv(&x), x);
    }

    #[test]
    fn row_slice_extracts() {
        let m = sample();
        let s = m.row_slice(1..2);
        assert_eq!(s.n_rows(), 1);
        assert_eq!(s.get(0, 1), 3.0);
    }

    #[test]
    fn diagonal_of_rectangular() {
        let m = sample();
        assert_eq!(m.diagonal(), vec![1.0, 3.0]);
    }

    #[test]
    fn frob_distance_zero_for_equal() {
        let m = sample();
        assert_eq!(m.frob_distance(&m.clone()), 0.0);
        let z = Csr::zero(2, 3);
        assert!((m.frob_distance(&z) - (1.0f64 + 4.0 + 9.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn unsorted_columns_rejected() {
        Csr::new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_column_rejected() {
        Csr::new(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }
}
