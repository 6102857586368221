//! Collective operations built over point-to-point messages.
//!
//! Every collective draws a fresh tag from the communicator's collective
//! sequence, so back-to-back collectives never cross-match. All members must
//! call collectives in the same order (MPI semantics).

use crate::comm::Comm;
use crate::ctx::RankCtx;
use crate::elem::Elem;

/// Element-wise combining operator used by reductions: `acc ⟵ op(acc, in)`.
pub type ReduceOp<T> = fn(&mut T, &T);

/// Sum for numeric reductions.
pub fn op_sum_f64(acc: &mut f64, x: &f64) {
    *acc += *x;
}

/// Sum for counters.
pub fn op_sum_u64(acc: &mut u64, x: &u64) {
    *acc += *x;
}

/// Max for counters.
pub fn op_max_u64(acc: &mut u64, x: &u64) {
    if *x > *acc {
        *acc = *x;
    }
}

impl RankCtx {
    /// `MPI_Barrier`: dissemination algorithm, ⌈log₂ P⌉ rounds.
    pub fn barrier(&mut self, comm: &Comm) {
        let tag = comm.next_coll_tag();
        let n = comm.size();
        if n == 1 {
            return;
        }
        let me = comm.rank();
        let mut dist = 1;
        while dist < n {
            let to = (me + dist) % n;
            let from = (me + n - dist) % n;
            self.send_internal::<u8>(comm, to, tag, &[]);
            let _: Vec<u8> = self.recv_internal(comm, from, tag);
            dist <<= 1;
        }
    }

    /// `MPI_Bcast`: binomial tree from `root`. On non-roots, `buf` is
    /// replaced with the broadcast data.
    pub fn bcast<T: Elem>(&mut self, comm: &Comm, root: usize, buf: &mut Vec<T>) {
        let tag = comm.next_coll_tag();
        let n = comm.size();
        if n == 1 {
            return;
        }
        // Rotate so the root is virtual rank 0.
        let vrank = (comm.rank() + n - root) % n;
        if vrank != 0 {
            // Receive from parent: clear the highest set bit.
            let parent_v = vrank & (vrank - 1);
            let parent = (parent_v + root) % n;
            *buf = self.recv_internal(comm, parent, tag);
        }
        // Forward to children: set bits above the highest set bit of vrank.
        let lowest = if vrank == 0 {
            n.next_power_of_two()
        } else {
            vrank & vrank.wrapping_neg()
        };
        let mut bit = 1;
        while bit < lowest && vrank + bit < n {
            let child = (vrank + bit + root) % n;
            self.send_internal(comm, child, tag, buf);
            bit <<= 1;
        }
    }

    /// `MPI_Reduce` with an element-wise operator; `root` receives the
    /// combined vector, other ranks receive `None`.
    pub fn reduce<T: Elem>(
        &mut self,
        comm: &Comm,
        root: usize,
        data: &[T],
        op: ReduceOp<T>,
    ) -> Option<Vec<T>> {
        let tag = comm.next_coll_tag();
        let n = comm.size();
        let vrank = (comm.rank() + n - root) % n;
        let mut acc: Vec<T> = data.to_vec();
        // Binomial tree combine toward virtual rank 0.
        let mut bit = 1;
        while bit < n {
            if vrank & bit != 0 {
                let parent = ((vrank ^ bit) + root) % n;
                self.send_internal(comm, parent, tag, &acc);
                return None;
            }
            if vrank + bit < n {
                let child = (vrank + bit + root) % n;
                let other: Vec<T> = self.recv_internal(comm, child, tag);
                assert_eq!(other.len(), acc.len(), "reduce length mismatch");
                for (a, b) in acc.iter_mut().zip(other.iter()) {
                    op(a, b);
                }
            }
            bit <<= 1;
        }
        Some(acc)
    }

    /// `MPI_Allreduce` (reduce to rank 0, then broadcast).
    pub fn allreduce<T: Elem>(&mut self, comm: &Comm, data: &[T], op: ReduceOp<T>) -> Vec<T> {
        let mut out = self.reduce(comm, 0, data, op).unwrap_or_default();
        self.bcast(comm, 0, &mut out);
        out
    }

    /// `MPI_Gatherv` to `root`: returns `(concatenated, counts)` on the
    /// root, `None` elsewhere. Contributions may have different lengths.
    pub fn gatherv<T: Elem>(
        &mut self,
        comm: &Comm,
        root: usize,
        mine: &[T],
    ) -> Option<(Vec<T>, Vec<usize>)> {
        let tag = comm.next_coll_tag();
        let n = comm.size();
        if comm.rank() == root {
            let mut counts = vec![0usize; n];
            let mut parts: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
            parts[root] = mine.to_vec();
            counts[root] = mine.len();
            for r in 0..n {
                if r == root {
                    continue;
                }
                let v: Vec<T> = self.recv_internal(comm, r, tag);
                counts[r] = v.len();
                parts[r] = v;
            }
            let mut all = Vec::with_capacity(counts.iter().sum());
            for p in parts {
                all.extend(p);
            }
            Some((all, counts))
        } else {
            self.send_internal(comm, root, tag, mine);
            None
        }
    }

    /// `MPI_Allgatherv`: every rank receives `(concatenated, counts)` in
    /// rank order.
    pub fn allgatherv<T: Elem>(&mut self, comm: &Comm, mine: &[T]) -> (Vec<T>, Vec<usize>) {
        let gathered = self.gatherv(comm, 0, mine);
        let (mut all, mut counts) = match gathered {
            Some((a, c)) => (a, c),
            None => (Vec::new(), Vec::new()),
        };
        self.bcast(comm, 0, &mut all);
        let mut counts_u64: Vec<u64> = counts.iter().map(|&c| c as u64).collect();
        self.bcast(comm, 0, &mut counts_u64);
        counts = counts_u64.iter().map(|&c| c as usize).collect();
        (all, counts)
    }

    /// `MPI_Allgather` of fixed-size contributions.
    pub fn allgather<T: Elem>(&mut self, comm: &Comm, mine: &[T]) -> Vec<T> {
        let (all, counts) = self.allgatherv(comm, mine);
        debug_assert!(counts.iter().all(|&c| c == mine.len()));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::World;

    #[test]
    fn barrier_completes_all_sizes() {
        for n in [1, 2, 3, 5, 8, 13] {
            World::run(n, |ctx| {
                let comm = ctx.comm_world();
                for _ in 0..3 {
                    ctx.barrier(&comm);
                }
            });
        }
    }

    #[test]
    fn bcast_all_roots_all_sizes() {
        for n in [1, 2, 3, 6, 9] {
            for root in 0..n {
                let out = World::run(n, move |ctx| {
                    let comm = ctx.comm_world();
                    let mut buf = if ctx.rank() == root {
                        vec![7u32, 8, 9]
                    } else {
                        Vec::new()
                    };
                    ctx.bcast(&comm, root, &mut buf);
                    buf
                });
                assert!(out.iter().all(|v| *v == vec![7, 8, 9]), "n={n} root={root}");
            }
        }
    }

    #[test]
    fn reduce_sum_every_root() {
        for n in [1, 2, 4, 7] {
            for root in 0..n {
                let out = World::run(n, move |ctx| {
                    let comm = ctx.comm_world();
                    ctx.reduce(&comm, root, &[ctx.rank() as u64, 1], op_sum_u64)
                });
                let expect_sum = (n as u64 * (n as u64 - 1)) / 2;
                for (r, res) in out.iter().enumerate() {
                    if r == root {
                        assert_eq!(res.as_ref().unwrap(), &vec![expect_sum, n as u64]);
                    } else {
                        assert!(res.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_max() {
        let out = World::run(6, |ctx| {
            let comm = ctx.comm_world();
            ctx.allreduce(&comm, &[(ctx.rank() as u64 * 37) % 11], op_max_u64)
        });
        let expect = (0..6u64).map(|r| (r * 37) % 11).max().unwrap();
        assert!(out.iter().all(|v| v[0] == expect));
    }

    #[test]
    fn allgatherv_variable_lengths() {
        let out = World::run(4, |ctx| {
            let comm = ctx.comm_world();
            let mine: Vec<u32> = (0..ctx.rank() as u32).collect();
            ctx.allgatherv(&comm, &mine)
        });
        let expect_data = vec![0u32, 0, 1, 0, 1, 2];
        let expect_counts = vec![0usize, 1, 2, 3];
        for (all, counts) in out {
            assert_eq!(all, expect_data);
            assert_eq!(counts, expect_counts);
        }
    }

    #[test]
    fn consecutive_collectives_do_not_cross_match() {
        let out = World::run(4, |ctx| {
            let comm = ctx.comm_world();
            let a = ctx.allreduce(&comm, &[1u64], op_sum_u64);
            let b = ctx.allreduce(&comm, &[10u64], op_sum_u64);
            ctx.barrier(&comm);
            let c = ctx.allgather(&comm, &[ctx.rank() as u64]);
            (a[0], b[0], c)
        });
        for (a, b, c) in out {
            assert_eq!(a, 4);
            assert_eq!(b, 40);
            assert_eq!(c, vec![0, 1, 2, 3]);
        }
    }
}
