//! Stencil application on regular grids (Dirichlet boundaries), assembled
//! straight into CSR.
//!
//! Grid point `(x, y, z)` is row `(z·ny + y)·nx + x`, so an offset
//! `(dx, dy, dz)` whose target lies inside the grid lands on column
//! `row + shift`, with the linear shift `(dz·ny + dy)·nx + dx`. Hence:
//! - sorting the offsets once by shift sorts every row's columns;
//! - two distinct offsets never land on the same column of one row, since
//!   their in-grid targets are distinct grid points. Only equal offsets
//!   need merging, and they are merged once, before the grid pass.
//!
//! So one pass over the grid writes `rowptr`/`colind`/`vals` directly,
//! with no `(row, col, value)` triplets staged and no per-row sort.

use crate::csr::Csr;

/// A 2-D stencil: offsets `(dx, dy)` with coefficients.
#[derive(Debug, Clone)]
pub struct Stencil2d {
    pub entries: Vec<(i32, i32, f64)>,
}

impl Stencil2d {
    pub fn new(entries: Vec<(i32, i32, f64)>) -> Self {
        assert!(!entries.is_empty());
        Self { entries }
    }

    /// Sum of all coefficients (≈0 for conservative operators away from
    /// boundaries).
    pub fn row_sum(&self) -> f64 {
        self.entries.iter().map(|e| e.2).sum()
    }
}

/// Apply a 2-D stencil on an `nx × ny` grid (row-major: index = y·nx + x),
/// dropping entries that fall outside the grid (homogeneous Dirichlet).
pub fn apply_stencil_2d(st: &Stencil2d, nx: usize, ny: usize) -> Csr {
    let offsets = st.entries.iter().map(|&(dx, dy, c)| ([dx, dy, 0], c));
    assemble(offsets, [nx, ny, 1])
}

/// Apply a 3-D stencil (offsets `(dx, dy, dz)`) on an `nx × ny × nz` grid,
/// index = (z·ny + y)·nx + x.
pub fn apply_stencil_3d(entries: &[(i32, i32, i32, f64)], nx: usize, ny: usize, nz: usize) -> Csr {
    let offsets = entries.iter().map(|&(dx, dy, dz, c)| ([dx, dy, dz], c));
    assemble(offsets, [nx, ny, nz])
}

/// The `n × n` operator of `entries` (offsets `[dx, dy, dz]`) on a grid of
/// `dims = [nx, ny, nz]`, keeping an entry only where its target is inside
/// the grid. Equal offsets are summed in entry order.
fn assemble(entries: impl ExactSizeIterator<Item = ([i32; 3], f64)>, dims: [usize; 3]) -> Csr {
    let mut merged: Vec<([i64; 3], f64)> = Vec::with_capacity(entries.len());
    for (off, c) in entries {
        let off = off.map(i64::from);
        match merged.iter_mut().find(|(o, _)| *o == off) {
            Some((_, v)) => *v += c,
            None => merged.push((off, c)),
        }
    }
    let [nx, ny, nz] = dims.map(|d| d as i64);
    let shift = |[dx, dy, dz]: [i64; 3]| (dz * ny + dy) * nx + dx;
    merged.sort_by_key(|&(off, _)| shift(off));

    let n = dims.iter().product::<usize>();
    let mut rowptr = Vec::with_capacity(n + 1);
    let mut colind = Vec::with_capacity(n * merged.len());
    let mut vals = Vec::with_capacity(n * merged.len());
    rowptr.push(0);
    let mut row = 0i64;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                for &(off @ [dx, dy, dz], c) in &merged {
                    if (0..nx).contains(&(x + dx))
                        && (0..ny).contains(&(y + dy))
                        && (0..nz).contains(&(z + dz))
                    {
                        colind.push((row + shift(off)) as usize);
                        vals.push(c);
                    }
                }
                rowptr.push(colind.len());
                row += 1;
            }
        }
    }
    Csr::new(n, n, rowptr, colind, vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_row_has_full_stencil() {
        let st = Stencil2d::new(vec![
            (0, 0, 4.0),
            (-1, 0, -1.0),
            (1, 0, -1.0),
            (0, -1, -1.0),
            (0, 1, -1.0),
        ]);
        let a = apply_stencil_2d(&st, 5, 5);
        // center row (2,2) = index 12 has 5 entries
        assert_eq!(a.row_nnz(12), 5);
        // corner row has 3 entries
        assert_eq!(a.row_nnz(0), 3);
        assert_eq!(a.get(12, 12), 4.0);
        assert_eq!(a.get(12, 11), -1.0);
        assert_eq!(a.get(12, 7), -1.0);
    }

    #[test]
    fn grid_shape() {
        let st = Stencil2d::new(vec![(0, 0, 1.0)]);
        let a = apply_stencil_2d(&st, 3, 7);
        assert_eq!(a.n_rows(), 21);
        assert_eq!(a.nnz(), 21);
    }

    #[test]
    fn stencil_3d_interior_count() {
        let mut entries = Vec::new();
        for dz in -1..=1 {
            for dy in -1..=1 {
                for dx in -1..=1 {
                    let c = if (dx, dy, dz) == (0, 0, 0) {
                        26.0
                    } else {
                        -1.0
                    };
                    entries.push((dx, dy, dz, c));
                }
            }
        }
        let a = apply_stencil_3d(&entries, 4, 4, 4);
        assert_eq!(a.n_rows(), 64);
        // fully interior point (1..3 in each dim): 27 entries
        let idx = (4 + 1) * 4 + 1;
        assert_eq!(a.row_nnz(idx), 27);
        // corner: 8 entries
        assert_eq!(a.row_nnz(0), 8);
    }
}
