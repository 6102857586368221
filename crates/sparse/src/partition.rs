//! Contiguous row partitions over ranks.

use serde::{Deserialize, Serialize};

/// A partition of `0..n` rows into `P` contiguous blocks, one per rank —
/// the distribution Hypre's IJ interface produces and the paper's
/// experiments use.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// `starts[p] .. starts[p+1]` is rank `p`'s row range; length P+1.
    starts: Vec<usize>,
}

impl Partition {
    /// Balanced block partition of `n` rows over `p` ranks: the first
    /// `n % p` ranks get one extra row. Ranks may own zero rows when
    /// `p > n` (as happens on the coarsest AMG levels — paper §4.1 notes
    /// few processes participate there).
    pub fn block(n: usize, p: usize) -> Self {
        assert!(p > 0, "need at least one rank");
        let base = n / p;
        let extra = n % p;
        let mut starts = Vec::with_capacity(p + 1);
        let mut acc = 0;
        starts.push(0);
        for r in 0..p {
            acc += base + usize::from(r < extra);
            starts.push(acc);
        }
        Self { starts }
    }

    /// Number of ranks.
    pub fn n_parts(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total number of rows.
    pub fn n_rows(&self) -> usize {
        *self.starts.last().unwrap()
    }

    /// Rank `p`'s row range.
    pub fn range(&self, p: usize) -> std::ops::Range<usize> {
        self.starts[p]..self.starts[p + 1]
    }

    /// First row of rank `p`.
    pub fn first_row(&self, p: usize) -> usize {
        self.starts[p]
    }

    /// Number of rows owned by rank `p`.
    pub fn local_size(&self, p: usize) -> usize {
        self.starts[p + 1] - self.starts[p]
    }

    /// The rank owning `row` (binary search).
    pub fn owner(&self, row: usize) -> usize {
        assert!(row < self.n_rows(), "row {row} out of {}", self.n_rows());
        // partition_point returns the count of starts <= row; the owner is
        // that index minus one. Empty blocks share a boundary; skip them by
        // searching for the last start not exceeding `row`.
        let idx = self.starts.partition_point(|&s| s <= row) - 1;
        debug_assert!(self.range(idx).contains(&row));
        idx
    }

    /// Ranks owning at least one row.
    pub fn active_ranks(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n_parts()).filter(|&p| self.local_size(p) > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_balanced() {
        let p = Partition::block(10, 3);
        assert_eq!(p.local_size(0), 4);
        assert_eq!(p.local_size(1), 3);
        assert_eq!(p.local_size(2), 3);
        assert_eq!(p.n_rows(), 10);
        assert_eq!(p.range(1), 4..7);
    }

    #[test]
    fn owner_consistent_with_range() {
        let p = Partition::block(23, 5);
        for row in 0..23 {
            let o = p.owner(row);
            assert!(p.range(o).contains(&row));
        }
    }

    #[test]
    fn more_ranks_than_rows() {
        let p = Partition::block(3, 8);
        assert_eq!(p.active_ranks().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(p.owner(2), 2);
        assert_eq!(p.local_size(7), 0);
    }

    #[test]
    fn single_rank_owns_everything() {
        let p = Partition::block(100, 1);
        assert_eq!(p.owner(99), 0);
        assert_eq!(p.local_size(0), 100);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn owner_out_of_range_panics() {
        Partition::block(4, 2).owner(4);
    }
}
