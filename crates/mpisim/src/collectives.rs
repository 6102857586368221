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

    /// `MPI_Bcast` from rank 0 along a binomial tree: on every other rank
    /// `buf` is replaced with rank 0's.
    pub(crate) fn bcast<T: Elem>(&mut self, comm: &Comm, buf: &mut Vec<T>) {
        let tag = comm.next_coll_tag();
        let (n, me) = (comm.size(), comm.rank());
        if me != 0 {
            // the parent clears the lowest set bit
            *buf = self.recv_internal(comm, me & (me - 1), tag);
        }
        // the children set one bit below it
        let lowest = if me == 0 {
            n.next_power_of_two()
        } else {
            me & me.wrapping_neg()
        };
        let mut bit = 1;
        while bit < lowest && me + bit < n {
            self.send_internal(comm, me + bit, tag, buf);
            bit <<= 1;
        }
    }

    /// `MPI_Reduce` to rank 0 along a binomial tree, with an element-wise
    /// operator: rank 0 receives the combined vector, the others `None`.
    pub(crate) fn reduce<T: Elem>(
        &mut self,
        comm: &Comm,
        data: &[T],
        op: ReduceOp<T>,
    ) -> Option<Vec<T>> {
        let tag = comm.next_coll_tag();
        let (n, me) = (comm.size(), comm.rank());
        let mut acc: Vec<T> = data.to_vec();
        let mut bit = 1;
        while bit < n {
            if me & bit != 0 {
                self.send_internal(comm, me ^ bit, tag, &acc);
                return None;
            }
            if me + bit < n {
                let other: Vec<T> = self.recv_internal(comm, me + bit, tag);
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
        let mut out = self.reduce(comm, data, op).unwrap_or_default();
        self.bcast(comm, &mut out);
        out
    }

    /// `MPI_Gatherv` to rank 0: every rank's contribution, concatenated in
    /// rank order, on rank 0; `None` elsewhere.
    pub(crate) fn gatherv<T: Elem>(&mut self, comm: &Comm, mine: &[T]) -> Option<Vec<T>> {
        let tag = comm.next_coll_tag();
        if comm.rank() != 0 {
            self.send_internal(comm, 0, tag, mine);
            return None;
        }
        let mut all = mine.to_vec();
        for r in 1..comm.size() {
            all.extend(self.recv_internal::<T>(comm, r, tag));
        }
        Some(all)
    }

    /// `MPI_Allgather` of fixed-size contributions: every rank receives
    /// them concatenated in rank order (gather to rank 0, then broadcast).
    pub fn allgather<T: Elem>(&mut self, comm: &Comm, mine: &[T]) -> Vec<T> {
        let mut all = self.gatherv(comm, mine).unwrap_or_default();
        self.bcast(comm, &mut all);
        debug_assert_eq!(all.len(), mine.len() * comm.size());
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
    fn bcast_all_sizes() {
        for n in [1, 2, 3, 6, 9] {
            let out = World::run(n, move |ctx| {
                let comm = ctx.comm_world();
                let mut buf = if ctx.rank() == 0 {
                    vec![7u32, 8, 9]
                } else {
                    Vec::new()
                };
                ctx.bcast(&comm, &mut buf);
                buf
            });
            assert!(out.iter().all(|v| *v == vec![7, 8, 9]), "n={n}");
        }
    }

    #[test]
    fn reduce_sum_all_sizes() {
        for n in [1, 2, 4, 7] {
            let out = World::run(n, move |ctx| {
                let comm = ctx.comm_world();
                ctx.reduce(&comm, &[ctx.rank() as u64, 1], op_sum_u64)
            });
            let expect_sum = (n as u64 * (n as u64 - 1)) / 2;
            assert_eq!(out[0].as_ref().unwrap(), &vec![expect_sum, n as u64]);
            assert!(out[1..].iter().all(Option::is_none), "n={n}");
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
