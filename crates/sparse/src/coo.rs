//! Coordinate-format builder.

/// A matrix under construction as `(row, col, value)` triplets. Duplicate
/// entries are summed on conversion to CSR.
///
/// Its remaining users are the matrices with no grid structure to exploit:
/// `gen::random_spd`, AMG interpolation (`amg::interp`), and tests. The
/// stencil generators assemble CSR directly (`gen::stencil`).
#[derive(Debug, Clone, Default)]
pub struct Coo {
    pub n_rows: usize,
    pub n_cols: usize,
    pub entries: Vec<(usize, usize, f64)>,
}

impl Coo {
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            entries: Vec::new(),
        }
    }

    /// Add `value` at `(row, col)` (accumulates with other pushes to the
    /// same position).
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.n_rows, "row {row} out of {}", self.n_rows);
        debug_assert!(col < self.n_cols, "col {col} out of {}", self.n_cols);
        self.entries.push((row, col, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;

    #[test]
    fn duplicates_sum_in_csr() {
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(0, 0, 2.0);
        c.push(1, 1, 5.0);
        let m = Csr::from_coo(&c);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 1), 5.0);
        assert_eq!(m.get(0, 1), 0.0);
    }
}
