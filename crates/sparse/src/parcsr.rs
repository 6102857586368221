//! Hypre-style distributed matrix view: `diag` + `offd` blocks.
//!
//! Each rank owns a contiguous block of rows. Columns inside the owned
//! range go in the `diag` block (indexed by local column); all others go in
//! the `offd` block, whose compressed columns map to global columns via
//! `col_map_offd`. A distributed SpMV multiplies `diag` by the local vector
//! and `offd` by ghost values received from the owners of the
//! `col_map_offd` entries — this receive set *is* the irregular
//! communication pattern the paper optimizes.
//!
//! Both blocks are a [`ChunkedBlock`]: sliced ELL (SELL-C-σ with C = 4,
//! σ = 1; Kreutzer et al., SIAM J. Sci. Comput. 2014). The rows go in
//! chunks of [`CHUNK_ROWS`], each chunk as wide as its longest row, with
//! the chunk's entries column-major (`u32` columns), so the product runs
//! a chunk at a time with one accumulator per row and no per-row branch
//! or row-pointer lookup. A row shorter than its chunk is padded with
//! value `0.0` at column `n_cols`, one past the operand, which the kernel
//! reads as `0.0` through `x.get(c)`: a padded slot adds `+0.0`, and a sum
//! that starts at `+0.0` is never `−0.0` (a sum is `−0.0` only when both
//! terms are), so adding `+0.0` leaves it bit for bit as it was,
//! infinities and NaNs included. Each row's diag and offd sums are thus
//! the CSR product's, the same additions in the same order
//! (`proptests::one_pass_spmv_matches_two_pass_*`). CSR stays the
//! assembly format and is not kept beside the chunks, which take 0.75× the
//! CSR blocks' bytes on the 128×64 paper problem over 16 ranks (padding
//! 9.8 % of the stored entries), 0.81× on the 32×16 one.

use crate::csr::Csr;
use crate::partition::Partition;
use std::ops::Range;

/// Rows per chunk of a [`ChunkedBlock`].
pub const CHUNK_ROWS: usize = 4;

/// One block of a [`ParCsr`] in chunks of [`CHUNK_ROWS`] rows: slot `j`
/// of row `i` sits at `chunk_ptr[i / CHUNK_ROWS] + CHUNK_ROWS * j +
/// i % CHUNK_ROWS`, and a row's slots past its length hold the padding
/// column `n_cols` with value `0.0`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkedBlock {
    n_rows: usize,
    n_cols: usize,
    /// Stored entries, padding not counted.
    nnz: usize,
    /// Where each chunk's slots start, then the slot count: chunk `k` is
    /// `(chunk_ptr[k + 1] - chunk_ptr[k]) / CHUNK_ROWS` wide, the length
    /// of its longest row.
    chunk_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl ChunkedBlock {
    /// Chunk the rows of `a`.
    pub fn from_csr(a: &Csr) -> Self {
        Self::from_rows(a.n_rows(), a.n_cols(), |r| {
            let (cols, vals) = a.row(r);
            cols.iter().copied().zip(vals.iter().copied())
        })
    }

    /// `n_rows` rows, row `r`'s entries `(column, value)` given by `row(r)`
    /// with columns ascending, unique and below `n_cols`.
    fn from_rows<I: Iterator<Item = (usize, f64)>>(
        n_rows: usize,
        n_cols: usize,
        row: impl Fn(usize) -> I,
    ) -> Self {
        let pad = u32::try_from(n_cols).expect("a block's columns and its padding column fit u32");
        let lens: Vec<usize> = (0..n_rows).map(|r| row(r).count()).collect();
        let mut chunk_ptr = Vec::with_capacity(lens.len().div_ceil(CHUNK_ROWS) + 1);
        chunk_ptr.push(0);
        for chunk in lens.chunks(CHUNK_ROWS) {
            let width = chunk.iter().copied().max().unwrap_or(0);
            chunk_ptr.push(chunk_ptr[chunk_ptr.len() - 1] + CHUNK_ROWS * width);
        }
        let slots = chunk_ptr[chunk_ptr.len() - 1];
        let (mut cols, mut vals) = (vec![pad; slots], vec![0.0; slots]);
        for r in 0..n_rows {
            let first = chunk_ptr[r / CHUNK_ROWS] + r % CHUNK_ROWS;
            let mut prev = None;
            for (j, (c, v)) in row(r).enumerate() {
                assert!(c < n_cols && prev < Some(c), "row {r}: bad column {c}");
                cols[first + CHUNK_ROWS * j] = c as u32;
                vals[first + CHUNK_ROWS * j] = v;
                prev = Some(c);
            }
        }
        Self {
            n_rows,
            n_cols,
            nnz: lens.iter().sum(),
            chunk_ptr,
            cols,
            vals,
        }
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Stored entries, padding not counted.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Row `i`'s entries `(column, value)`, columns ascending.
    fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(i < self.n_rows, "row {i} out of {}", self.n_rows);
        let slots = self.chunk_ptr[i / CHUNK_ROWS]..self.chunk_ptr[i / CHUNK_ROWS + 1];
        let cols = self.cols[slots.clone()].iter().skip(i % CHUNK_ROWS);
        let vals = self.vals[slots].iter().skip(i % CHUNK_ROWS);
        cols.step_by(CHUNK_ROWS)
            .zip(vals.step_by(CHUNK_ROWS))
            .map(|(&c, &v)| (c as usize, v))
            .take_while(|&(c, _)| c < self.n_cols)
    }

    /// Value at `(i, j)` (0.0 when not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.row(i).find(|&(c, _)| c == j).map_or(0.0, |(_, v)| v)
    }

    /// The block as CSR, entry for entry.
    pub fn to_csr(&self) -> Csr {
        let mut rowptr = Vec::with_capacity(self.n_rows + 1);
        rowptr.push(0);
        let mut cols = Vec::with_capacity(self.nnz);
        let mut vals = Vec::with_capacity(self.nnz);
        for i in 0..self.n_rows {
            for (c, v) in self.row(i) {
                cols.push(c);
                vals.push(v);
            }
            rowptr.push(cols.len());
        }
        Csr::new(self.n_rows, self.n_cols, rowptr, cols, vals)
    }

    /// Chunk `k`'s row sums against `x` (of `n_cols`), each from `+0.0` in
    /// slot order: a padded slot reads `x.get(n_cols)`, so it adds
    /// `0.0 * 0.0`. Always inlined: as a call it returned the sums through
    /// memory, and the product ran ≈ 1.2× slower.
    #[inline(always)]
    fn chunk_sums(&self, k: usize, x: &[f64]) -> [f64; CHUNK_ROWS] {
        let slots = self.chunk_ptr[k]..self.chunk_ptr[k + 1];
        let (cols, _) = self.cols[slots.clone()].as_chunks::<CHUNK_ROWS>();
        let (vals, _) = self.vals[slots].as_chunks::<CHUNK_ROWS>();
        let mut acc = [0.0; CHUNK_ROWS];
        for (cs, vs) in cols.iter().zip(vals) {
            for ((acc, &c), &v) in acc.iter_mut().zip(cs).zip(vs) {
                *acc += v * x.get(c as usize).copied().unwrap_or(0.0);
            }
        }
        acc
    }
}

/// One rank's portion of a distributed CSR matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ParCsr {
    /// The global row partition (shared by all ranks).
    pub part: Partition,
    /// This rank.
    pub rank: usize,
    /// Local rows × local columns (owned range), local column indices.
    pub diag: ChunkedBlock,
    /// Local rows × ghost columns, compressed column indices.
    pub offd: ChunkedBlock,
    /// Global column of each compressed offd column, ascending.
    pub col_map_offd: Vec<usize>,
    /// Number of global columns.
    pub global_cols: usize,
}

impl ParCsr {
    /// Extract rank `rank`'s portion of the square global matrix `a`
    /// partitioned by `part` (rows and columns partitioned identically),
    /// chunking straight from `a`'s rows.
    pub fn from_global(a: &Csr, part: &Partition, rank: usize) -> Self {
        assert_eq!(a.n_rows(), part.n_rows(), "partition must cover all rows");
        assert_eq!(
            a.n_rows(),
            a.n_cols(),
            "ParCsr::from_global expects square matrices"
        );
        let range = part.range(rank);
        let (first, end) = (range.start, range.end);
        let ghost = Self::ghost_cols(a, part, rank);
        // each ghost's index in a table over the columns below and above
        // the owned range that the ghosts span: a lookup per entry, no search
        let lo = ghost.first().map_or(first, |&g| g.min(first));
        let hi = ghost.last().map_or(end, |&g| end.max(g + 1));
        let slot = |c: usize| {
            if c < first {
                c - lo
            } else {
                first - lo + c - end
            }
        };
        let mut ghost_idx = vec![0u32; first - lo + hi - end];
        for (i, &g) in ghost.iter().enumerate() {
            ghost_idx[slot(g)] = i as u32;
        }
        // a row's columns ascend, so its diag entries are one run
        let runs: Vec<Range<usize>> = range
            .clone()
            .map(|r| {
                let cols = a.row(r).0;
                cols.partition_point(|&c| c < first)..cols.partition_point(|&c| c < end)
            })
            .collect();
        let entries = |i: usize, s: Range<usize>| {
            let (cols, vals) = a.row(first + i);
            cols[s.clone()].iter().copied().zip(vals[s].iter().copied())
        };
        let n = range.len();
        let diag = ChunkedBlock::from_rows(n, n, |i| {
            entries(i, runs[i].clone()).map(|(c, v)| (c - first, v))
        });
        let offd = ChunkedBlock::from_rows(n, ghost.len(), |i| {
            let len = a.row_nnz(first + i);
            entries(i, 0..runs[i].start)
                .chain(entries(i, runs[i].end..len))
                .map(|(c, v)| (ghost_idx[slot(c)] as usize, v))
        });
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
        let mut y = vec![0.0; self.local_rows()];
        self.spmv_into(x_local, x_ghost, &mut y);
        y
    }

    /// [`ParCsr::spmv`] into a caller-provided buffer of `local_rows()`:
    /// a chunk at a time, each row its diag sum plus its offd sum — the
    /// arithmetic of `diag.spmv` followed by `offd.spmv_add_into` on the
    /// CSR blocks, in one pass.
    pub fn spmv_into(&self, x_local: &[f64], x_ghost: &[f64], y: &mut [f64]) {
        assert_eq!(x_local.len(), self.local_rows(), "x_local length mismatch");
        assert_eq!(x_ghost.len(), self.n_ghost(), "x_ghost length mismatch");
        assert_eq!(y.len(), self.local_rows(), "y length mismatch");
        for (k, y) in y.chunks_mut(CHUNK_ROWS).enumerate() {
            let diag = self.diag.chunk_sums(k, x_local);
            let offd = self.offd.chunk_sums(k, x_ghost);
            for ((y, d), o) in y.iter_mut().zip(diag).zip(offd) {
                *y = d + o;
            }
        }
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
        assert_eq!((p1.diag.nnz(), p1.offd.nnz()), (7, 2));
        assert_eq!((p1.diag.get(0, 0), p1.diag.get(0, 2)), (2.0, 0.0));
        assert_eq!((p1.offd.get(0, 0), p1.offd.get(2, 1)), (-1.0, -1.0));
    }

    #[test]
    fn padding_adds_nothing_against_an_infinite_operand() {
        // rows of 3, 0, 1 and 2 entries, then one alone in its chunk
        let rowptr = vec![0, 3, 3, 4, 6, 7];
        let cols = vec![0, 1, 2, 1, 1, 2, 2];
        let vals = vec![1.0, -0.0, 2.0, 3.0, -0.0, 4.0, 5.0];
        let a = Csr::new(5, 3, rowptr, cols, vals);
        let b = ChunkedBlock::from_csr(&a);
        let x = [f64::INFINITY, -0.0, 1.0];
        let sums = [b.chunk_sums(0, &x), b.chunk_sums(1, &x)].concat();
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sums[..5]), bits(&a.spmv(&x)));
        assert_eq!(
            bits(&a.spmv(&x)),
            bits(&[f64::INFINITY, 0.0, 0.0, 4.0, 5.0])
        );
        assert_eq!((b.to_csr(), b.nnz()), (a, 7));
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
        assert_eq!(p.diag.to_csr(), a);
    }
}
