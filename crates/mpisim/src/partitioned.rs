//! Partitioned point-to-point communication (MPI 4, `MPI_Psend_init` /
//! `MPI_Precv_init` / `MPI_Pready` / `MPI_Parrived`).
//!
//! Partitioned communication extends the persistent interface so that
//! independently-produced chunks of one large message can be handed to the
//! transport as they become ready, instead of waiting for the whole buffer
//! (paper §2.1 and §5, citing Grant et al. "Finepoints"). The paper's
//! future-work section proposes combining it with locality-aware
//! aggregation — `mpi_advance::collective` consumes this API for that
//! extension.
//!
//! Semantics implemented here: each partition travels as its own message
//! the moment `pready` is called; the receive side completes when all
//! partitions have arrived (`wait`), and individual partitions can be
//! polled with `parrived`. Like the plain persistent requests, every
//! partition's signature is matched to its peer **once at init time**: each
//! partition owns a pre-matched channel, so `pready` deposits into the
//! partition's slot and `parrived`/`wait` copy straight into the registered
//! buffer window — no mailbox probing or scanning per iteration.

use crate::comm::{Comm, USER_TAG_LIMIT};
use crate::ctx::RankCtx;
use crate::elem::{elem_bytes, Elem};
use crate::persistent::SharedBuf;
use crate::state::{ChanRegistrar, Channel, WaitChans};
use std::sync::Arc;

/// Reserved tag stride so each partition gets a distinct sub-tag.
const PART_TAG_STRIDE: u64 = 1 << 20;

fn part_tag(tag: u64, partition: usize) -> u64 {
    // fold the partition index into the tag space above the user tag
    tag + PART_TAG_STRIDE * (partition as u64 + 1)
}

/// Partitioned persistent send of a buffer split at explicit boundaries
/// (equal chunks via [`RankCtx::psend_init`], arbitrary chunks via
/// [`RankCtx::psend_init_parts`]).
pub struct PsendReq<T: Elem> {
    dst_world: usize,
    buf: SharedBuf<T>,
    /// Prefix offsets: partition `p` covers `bounds[p] .. bounds[p+1]`.
    bounds: Vec<usize>,
    /// One pre-matched channel per partition.
    chans: Vec<Arc<Channel<T>>>,
    ready: Vec<bool>,
}

impl<T: Elem> PsendReq<T> {
    /// Range of `partition` within the buffer.
    pub fn partition_range(&self, partition: usize) -> std::ops::Range<usize> {
        assert!(
            partition + 1 < self.bounds.len(),
            "partition {partition} out of range"
        );
        self.bounds[partition]..self.bounds[partition + 1]
    }

    /// Begin a new iteration: all partitions become not-ready.
    pub fn start(&mut self) {
        assert!(
            self.ready.iter().all(|&r| !r) || self.ready.iter().all(|&r| r),
            "start in the middle of an iteration"
        );
        self.ready.iter_mut().for_each(|r| *r = false);
    }

    /// `MPI_Pready`: partition `partition` of the buffer is final; ship it.
    pub fn pready(&mut self, ctx: &mut RankCtx, partition: usize) {
        let range = self.partition_range(partition);
        assert!(
            !self.ready[partition],
            "partition {partition} marked ready twice"
        );
        self.ready[partition] = true;
        // program-ordered fault-injection point: one op per shipped partition
        ctx.world
            .inject(ctx.rank, crate::transport::FaultOp::ChanPush);
        let guard = self.buf.read();
        let arrival = ctx.charge_send(self.dst_world, range.len() * elem_bytes::<T>());
        self.chans[partition].push(&guard[range], arrival);
    }

    /// Complete the iteration (all partitions must have been made ready).
    pub fn wait(&self) {
        assert!(
            self.ready.iter().all(|&r| r),
            "wait with partitions never marked ready: {:?}",
            self.ready
                .iter()
                .enumerate()
                .filter(|(_, &r)| !r)
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        );
    }

    pub fn n_parts(&self) -> usize {
        self.bounds.len() - 1
    }
}

/// Partitioned persistent receive matching a [`PsendReq`] with the same
/// geometry.
pub struct PrecvReq<T: Elem> {
    buf: SharedBuf<T>,
    bounds: Vec<usize>,
    chans: Vec<Arc<Channel<T>>>,
    /// Per partition, the payload buffer its last take consumed, returned
    /// to the channel by the next take (see [`Channel::try_pop`]).
    back: Vec<Vec<Vec<T>>>,
    arrived: Vec<bool>,
}

impl<T: Elem> PrecvReq<T> {
    fn partition_range(&self, partition: usize) -> std::ops::Range<usize> {
        self.bounds[partition]..self.bounds[partition + 1]
    }

    /// Begin a new iteration.
    pub fn start(&mut self) {
        self.arrived.iter_mut().for_each(|a| *a = false);
    }

    /// `MPI_Parrived`: has `partition` already landed? (Non-blocking; if it
    /// has, it is drained into the buffer.)
    pub fn parrived(&mut self, ctx: &mut RankCtx, partition: usize) -> bool {
        if self.arrived[partition] {
            return true;
        }
        let range = self.partition_range(partition);
        let chan = &self.chans[partition];
        let back = &mut self.back[partition];
        let Some((data, arrival)) = chan.try_pop(back) else {
            return false;
        };
        assert_eq!(
            data.len(),
            range.len(),
            "partition {partition} (channel {:?}): expected {} elements, got {}",
            chan.key(),
            range.len(),
            data.len()
        );
        self.buf.write()[range].clone_from_slice(&data);
        back.push(data);
        ctx.charge_recv(arrival);
        self.arrived[partition] = true;
        true
    }

    /// Block until `partition` has been delivered, without consuming it
    /// and without holding the buffer lock; the stall probe keeps peer
    /// death, the deadline and mixed plain traffic loud (see
    /// [`crate::RecvChan::wait_take`]).
    fn park(&self, ctx: &RankCtx, partition: usize) {
        let chan = &self.chans[partition];
        let keys = [chan.key()];
        ctx.world.park_on(
            ctx.rank,
            "partitioned recv",
            WaitChans::Keys(&keys),
            |stall| chan.wait_nonempty(stall),
        );
    }

    /// Block until every partition has arrived.
    pub fn wait(&mut self, ctx: &mut RankCtx) {
        for p in 0..self.n_parts() {
            while !self.parrived(ctx, p) {
                self.park(ctx, p);
            }
        }
    }

    /// Non-blocking [`PrecvReq::wait`]: drain every partition that has
    /// already been delivered into the buffer and report whether the whole
    /// receive is complete. The completion-driven lifecycle
    /// (`NeighborRequest::test`) makes progress through this.
    pub fn try_wait(&mut self, ctx: &mut RankCtx) -> bool {
        let mut done = true;
        // deliberately not short-circuiting: every arrived partition
        // drains this round, whatever order they landed in
        for p in 0..self.n_parts() {
            done &= self.parrived(ctx, p);
        }
        done
    }

    /// Append a type-erased handle per **unarrived** partition channel, for
    /// parking on the set ([`RankCtx::wait_any`]).
    pub fn pending_chan_ids(&self, out: &mut Vec<crate::ChanId>) {
        for (p, arrived) in self.arrived.iter().enumerate() {
            if !arrived {
                out.push(self.chans[p].id());
            }
        }
    }

    pub fn n_parts(&self) -> usize {
        self.bounds.len() - 1
    }
}

/// Build equal-chunk boundaries (the final chunk absorbs the remainder).
fn equal_bounds(total_len: usize, n_parts: usize) -> Vec<usize> {
    assert!(n_parts > 0, "need at least one partition");
    assert!(n_parts <= total_len.max(1), "more partitions than elements");
    let part_len = total_len / n_parts;
    let mut bounds: Vec<usize> = (0..n_parts).map(|p| p * part_len).collect();
    bounds.push(total_len);
    bounds
}

fn validate_bounds(bounds: &[usize], total_len: usize) {
    assert!(bounds.len() >= 2, "bounds need at least one partition");
    assert_eq!(bounds[0], 0, "bounds must start at 0");
    assert_eq!(
        *bounds.last().unwrap(),
        total_len,
        "bounds must cover the buffer"
    );
    for w in bounds.windows(2) {
        assert!(w[0] <= w[1], "bounds must be non-decreasing");
    }
}

impl ChanRegistrar<'_> {
    /// [`RankCtx::psend_init_parts`] under the held registry lock.
    pub fn psend_init_parts<T: Elem>(
        &mut self,
        comm: &Comm,
        dst: usize,
        tag: u64,
        buf: SharedBuf<T>,
        bounds: Vec<usize>,
    ) -> PsendReq<T> {
        assert!(
            tag < USER_TAG_LIMIT / 2,
            "tag {tag} too large for partitioned sub-tags"
        );
        validate_bounds(&bounds, buf.read().len());
        let n_parts = bounds.len() - 1;
        let chans = (0..n_parts)
            .map(|p| {
                self.channel_sized(
                    (comm.ctx_id, comm.rank(), dst, part_tag(tag, p)),
                    comm.world_rank(dst),
                    bounds[p + 1] - bounds[p],
                )
            })
            .collect();
        PsendReq {
            dst_world: comm.world_rank(dst),
            buf,
            bounds,
            chans,
            ready: vec![true; n_parts], // "completed" state before first start
        }
    }

    /// [`RankCtx::precv_init_parts`] under the held registry lock.
    pub fn precv_init_parts<T: Elem>(
        &mut self,
        comm: &Comm,
        src: usize,
        tag: u64,
        buf: SharedBuf<T>,
        bounds: Vec<usize>,
    ) -> PrecvReq<T> {
        assert!(
            tag < USER_TAG_LIMIT / 2,
            "tag {tag} too large for partitioned sub-tags"
        );
        validate_bounds(&bounds, buf.read().len());
        let n_parts = bounds.len() - 1;
        let chans = (0..n_parts)
            .map(|p| {
                self.channel_sized(
                    (comm.ctx_id, src, comm.rank(), part_tag(tag, p)),
                    comm.world_rank(comm.rank()),
                    bounds[p + 1] - bounds[p],
                )
            })
            .collect();
        PrecvReq {
            buf,
            bounds,
            chans,
            back: (0..n_parts).map(|_| Vec::new()).collect(),
            arrived: vec![false; n_parts],
        }
    }
}

impl RankCtx {
    /// `MPI_Psend_init`: register a partitioned send of the whole shared
    /// buffer, split into `n_parts` equal chunks.
    pub fn psend_init<T: Elem>(
        &self,
        comm: &Comm,
        dst: usize,
        tag: u64,
        buf: SharedBuf<T>,
        n_parts: usize,
    ) -> PsendReq<T> {
        let total_len = buf.read().len();
        self.psend_init_parts(comm, dst, tag, buf, equal_bounds(total_len, n_parts))
    }

    /// Partitioned send with explicit partition boundaries (prefix offsets,
    /// `bounds[p] .. bounds[p+1]` per partition). Used by the
    /// locality-aware partitioned collectives, whose partitions are the
    /// variable-sized contributions of each staging rank.
    pub fn psend_init_parts<T: Elem>(
        &self,
        comm: &Comm,
        dst: usize,
        tag: u64,
        buf: SharedBuf<T>,
        bounds: Vec<usize>,
    ) -> PsendReq<T> {
        self.chan_registrar()
            .psend_init_parts(comm, dst, tag, buf, bounds)
    }

    /// `MPI_Precv_init` with equal chunks.
    pub fn precv_init<T: Elem>(
        &self,
        comm: &Comm,
        src: usize,
        tag: u64,
        buf: SharedBuf<T>,
        n_parts: usize,
    ) -> PrecvReq<T> {
        let total_len = buf.read().len();
        self.precv_init_parts(comm, src, tag, buf, equal_bounds(total_len, n_parts))
    }

    /// Partitioned receive with explicit boundaries (must mirror the
    /// sender's).
    pub fn precv_init_parts<T: Elem>(
        &self,
        comm: &Comm,
        src: usize,
        tag: u64,
        buf: SharedBuf<T>,
        bounds: Vec<usize>,
    ) -> PrecvReq<T> {
        self.chan_registrar()
            .precv_init_parts(comm, src, tag, buf, bounds)
    }
}

#[cfg(test)]
mod tests {
    use crate::persistent::shared_buf;
    use crate::runtime::World;

    #[test]
    fn partitions_cover_buffer_with_remainder() {
        World::run(1, |ctx| {
            let comm = ctx.comm_world();
            let buf = shared_buf(vec![0u8; 10]);
            let req = ctx.psend_init(&comm, 0, 0, buf, 3);
            assert_eq!(req.partition_range(0), 0..3);
            assert_eq!(req.partition_range(1), 3..6);
            assert_eq!(req.partition_range(2), 6..10); // remainder absorbed
        });
    }

    #[test]
    fn partitioned_roundtrip_out_of_order() {
        World::run(2, |ctx| {
            let comm = ctx.comm_world();
            const N: usize = 12;
            const PARTS: usize = 4;
            if ctx.rank() == 0 {
                let buf = shared_buf(vec![0.0f64; N]);
                let mut req = ctx.psend_init(&comm, 1, 3, buf.clone(), PARTS);
                for it in 0..3 {
                    req.start();
                    // partitions become ready out of order
                    for &p in &[2usize, 0, 3, 1] {
                        let range = req.partition_range(p);
                        {
                            let mut g = buf.write();
                            for i in range.clone() {
                                g[i] = (it * 100 + i) as f64;
                            }
                        }
                        req.pready(ctx, p);
                    }
                    req.wait();
                }
            } else {
                let buf = shared_buf(vec![0.0f64; N]);
                let mut req = ctx.precv_init(&comm, 0, 3, buf.clone(), PARTS);
                for it in 0..3 {
                    req.start();
                    req.wait(ctx);
                    let g = buf.read();
                    for i in 0..N {
                        assert_eq!(g[i], (it * 100 + i) as f64, "iter {it} elem {i}");
                    }
                }
            }
        });
    }

    #[test]
    fn parrived_polls_individual_partitions() {
        World::run(2, |ctx| {
            let comm = ctx.comm_world();
            if ctx.rank() == 0 {
                let buf = shared_buf(vec![7u32; 8]);
                let mut req = ctx.psend_init(&comm, 1, 0, buf, 2);
                req.start();
                req.pready(ctx, 1); // only the second partition so far
                                    // signal "partition 1 sent" out of band
                ctx.send(&comm, 1, 9, &[1u8]);
                let _: Vec<u8> = ctx.recv(&comm, 1, 10); // wait for probe check
                req.pready(ctx, 0);
                req.wait();
            } else {
                let buf = shared_buf(vec![0u32; 8]);
                let mut req = ctx.precv_init(&comm, 0, 0, buf.clone(), 2);
                req.start();
                let _: Vec<u8> = ctx.recv(&comm, 0, 9);
                // partition 1 must be observable, partition 0 must not
                while !req.parrived(ctx, 1) {
                    std::thread::yield_now();
                }
                assert!(!req.parrived(ctx, 0));
                ctx.send(&comm, 0, 10, &[1u8]);
                req.wait(ctx);
                assert!(buf.read().iter().all(|&v| v == 7));
            }
        });
    }

    #[test]
    #[should_panic(expected = "ready twice")]
    fn double_pready_panics() {
        World::run(1, |ctx| {
            let comm = ctx.comm_world();
            let buf = shared_buf(vec![0u8; 4]);
            let mut req = ctx.psend_init(&comm, 0, 0, buf, 2);
            req.start();
            req.pready(ctx, 0);
            req.pready(ctx, 0);
        });
    }

    #[test]
    #[should_panic(expected = "never marked ready")]
    fn wait_before_all_ready_panics() {
        World::run(1, |ctx| {
            let comm = ctx.comm_world();
            let buf = shared_buf(vec![0u8; 4]);
            let mut req = ctx.psend_init(&comm, 0, 0, buf, 2);
            req.start();
            req.pready(ctx, 0);
            req.wait();
        });
    }
}
