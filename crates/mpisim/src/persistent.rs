//! Persistent point-to-point requests (`MPI_Send_init` / `MPI_Recv_init` /
//! `MPI_Start` / `MPI_Wait`).
//!
//! Persistent communication initializes a message once and then restarts it
//! every iteration (paper §2: "persistent communication reduces
//! initialization costs by having an initialization so that all overhead is
//! only incurred once").
//!
//! Registration is where the amortization happens in this simulator too:
//! `send_chan_init`/`recv_chan_init` resolve the message signature
//! `(context, src, dst, tag)` to a **pre-matched channel** once, so every
//! iteration moves values through that channel slot — a FIFO whose payload
//! buffers are recycled. The unexpected-message mailbox and its linear
//! matching scan are only paid by non-persistent traffic.
//!
//! The requests are **buffer-less halves**, [`SendChan`] and [`RecvChan`]:
//! a send gathers its payload straight into the channel's recycled wire
//! buffer ([`SendChan::start_with`]) and a receive hands the delivered
//! payload out in place ([`RecvChan::try_take`] to poll,
//! [`RecvChan::wait_with`]/[`RecvChan::wait_take`] to block), with no
//! registered window in between. A caller that wants one keeps its own
//! buffer and copies at the two ends.
//!
//! A persistent send therefore matches a persistent receive registered with
//! the same signature on the peer (the paper's collectives always register
//! both sides at init). Mixing persistent and plain traffic on one
//! signature is unsupported; a persistent wait that finds the matching
//! message in the plain mailbox panics with a diagnostic rather than
//! hanging (and so does a plain `recv` facing a persistent send).

use crate::comm::{Comm, USER_TAG_LIMIT};
use crate::ctx::RankCtx;
use crate::elem::{elem_bytes, Elem};
use crate::state::{ChanRegistrar, Channel};
use std::sync::Arc;

/// The buffer-less half of a persistent send: a pre-matched channel plus
/// the registered message length. [`SendChan::start_with`] gathers the
/// payload **directly into the channel's recycled wire buffer** — the
/// zero-copy send path.
pub struct SendChan<T: Elem> {
    dst: usize,
    dst_world: usize,
    chan: Arc<Channel<T>>,
    len: usize,
}

impl<T: Elem> SendChan<T> {
    /// Start one instance of the send. `fill` receives the channel's
    /// cleared, recycled payload buffer and must write exactly the
    /// registered number of elements into it — the caller's copy map runs
    /// once, straight into the wire buffer, with no intermediate staging
    /// window.
    pub fn start_with(&self, ctx: &mut RankCtx, fill: impl FnOnce(&mut Vec<T>)) {
        // program-ordered fault-injection point: one op per started send
        // (see `transport::fault` — poll paths are deliberately uncounted)
        ctx.world
            .inject(ctx.rank, crate::transport::FaultOp::ChanPush);
        let arrival = ctx.charge_send(self.dst_world, self.len * elem_bytes::<T>());
        let len = self.len;
        let fill = |buf: &mut Vec<T>| {
            fill(buf);
            assert_eq!(
                buf.len(),
                len,
                "persistent send fill produced {} elements, registered {len}",
                buf.len(),
            );
        };
        let (world, rank) = (&ctx.world, ctx.rank);
        self.chan
            .push_with(arrival, fill, &|raw, push| world.wait_room(rank, raw, push));
    }

    pub fn dst(&self) -> usize {
        self.dst
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The buffer-less half of a persistent receive: a pre-matched channel
/// plus the registered message length. [`RecvChan::wait_with`] hands the
/// delivered payload to a consumer **by reference, straight off the
/// channel** — the zero-copy receive path; [`RecvChan::wait_take`] lends
/// the payload buffer out for longer-lived consumption (return it with
/// [`RecvChan::recycle`]).
pub struct RecvChan<T: Elem> {
    src: usize,
    chan: Arc<Channel<T>>,
    len: usize,
    started: bool,
    /// Payload buffers handed back with [`RecvChan::recycle`]; the next
    /// take returns them to the channel (see [`Channel::try_pop`]).
    back: Vec<Vec<T>>,
}

impl<T: Elem> RecvChan<T> {
    /// Start one instance of the receive.
    pub fn start(&mut self) {
        assert!(!self.started, "receive started twice without wait");
        self.started = true;
    }

    /// Block until the matching message arrives and take its payload
    /// buffer off the channel. The caller reads (scatters from) the buffer
    /// and hands it back with [`RecvChan::recycle`] so the steady state
    /// stays allocation-free. Between takes the rank parks in
    /// [`RankCtx::wait_any`] on this one channel, whose stall probe bails
    /// out (with stall forensics) if a peer rank died this epoch or the
    /// wait deadline expired, and makes a plain send aimed at this
    /// persistent receive fail loudly instead of hanging both ranks.
    pub fn wait_take(&mut self, ctx: &mut RankCtx) -> Vec<T> {
        assert!(self.started, "wait_take on a receive that was not started");
        // program-ordered fault-injection point: one op per blocking take
        ctx.world
            .inject(ctx.rank, crate::transport::FaultOp::ChanPop);
        let id = [self.chan.id()];
        loop {
            if let Some(data) = self.try_take(ctx) {
                return data;
            }
            ctx.wait_any(&id);
        }
    }

    /// Non-blocking [`RecvChan::wait_take`]: if the matching message has
    /// already been delivered, consume it (merging its modeled arrival into
    /// the clock) and hand its payload out; otherwise leave the receive
    /// started and return `None`. The completion-driven lifecycle
    /// (`NeighborRequest::test`) drains arrivals through this.
    pub fn try_take(&mut self, ctx: &mut RankCtx) -> Option<Vec<T>> {
        assert!(self.started, "try_take on a receive that was not started");
        let (data, arrival) = self.chan.try_pop(&mut self.back)?;
        self.started = false;
        assert_eq!(
            data.len(),
            self.len,
            "persistent recv from {} (channel {:?}): expected {} elements, got {}",
            self.src,
            self.chan.key(),
            self.len,
            data.len()
        );
        ctx.charge_recv(arrival);
        Some(data)
    }

    /// Type-erased handle for arrival polling this receive's channel as
    /// part of a set ([`RankCtx::poll_any`] / [`RankCtx::wait_any`]).
    pub fn chan_id(&self) -> crate::ChanId {
        self.chan.id()
    }

    /// Block until the matching message arrives and run `consume` on the
    /// payload in place (no copy into a registered window); the buffer is
    /// recycled afterwards.
    pub fn wait_with<R>(&mut self, ctx: &mut RankCtx, consume: impl FnOnce(&[T]) -> R) -> R {
        let data = self.wait_take(ctx);
        let out = consume(&data);
        self.back.push(data);
        out
    }

    /// Return a payload buffer taken with [`RecvChan::wait_take`] or
    /// [`RecvChan::try_take`]. It goes back to the channel with the next
    /// take, inside that take's lock acquisition.
    pub fn recycle(&mut self, buf: Vec<T>) {
        self.back.push(buf);
    }

    pub fn src(&self) -> usize {
        self.src
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl ChanRegistrar<'_> {
    /// [`RankCtx::send_chan_init`] within this registration pass.
    pub fn send_chan_init<T: Elem>(
        &mut self,
        comm: &Comm,
        dst: usize,
        tag: u64,
        len: usize,
    ) -> SendChan<T> {
        assert!(
            tag < USER_TAG_LIMIT,
            "tag {tag} in reserved collective space"
        );
        assert!(dst < comm.size(), "dst {dst} out of range");
        SendChan {
            dst,
            dst_world: comm.world_rank(dst),
            chan: self.channel_sized(
                (comm.ctx_id, comm.rank(), dst, tag),
                comm.world_rank(dst),
                len,
            ),
            len,
        }
    }

    /// [`RankCtx::recv_chan_init`] within this registration pass.
    pub fn recv_chan_init<T: Elem>(
        &mut self,
        comm: &Comm,
        src: usize,
        tag: u64,
        len: usize,
    ) -> RecvChan<T> {
        assert!(
            tag < USER_TAG_LIMIT,
            "tag {tag} in reserved collective space"
        );
        assert!(src < comm.size(), "src {src} out of range");
        RecvChan {
            src,
            chan: self.channel_sized(
                (comm.ctx_id, src, comm.rank(), tag),
                comm.world_rank(comm.rank()),
                len,
            ),
            len,
            started: false,
            back: Vec::new(),
        }
    }
}

impl RankCtx {
    /// Register a buffer-less persistent send of `len` elements to
    /// communicator rank `dst`: the payload is gathered straight into the
    /// channel's recycled wire buffer on every
    /// [`SendChan::start_with`] — no registered staging window.
    pub fn send_chan_init<T: Elem>(
        &self,
        comm: &Comm,
        dst: usize,
        tag: u64,
        len: usize,
    ) -> SendChan<T> {
        self.chan_registrar().send_chan_init(comm, dst, tag, len)
    }

    /// Register a buffer-less persistent receive of `len` elements from
    /// communicator rank `src`: [`RecvChan::wait_with`] /
    /// [`RecvChan::wait_take`] hand the payload out in place instead of
    /// copying it into a registered window.
    pub fn recv_chan_init<T: Elem>(
        &self,
        comm: &Comm,
        src: usize,
        tag: u64,
        len: usize,
    ) -> RecvChan<T> {
        self.chan_registrar().recv_chan_init(comm, src, tag, len)
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::World;

    #[test]
    fn persistent_roundtrip_many_iterations() {
        let out = World::run(2, |ctx| {
            let comm = ctx.comm_world();
            if ctx.rank() == 0 {
                let send = ctx.send_chan_init::<f64>(&comm, 1, 0, 4);
                let mut acc = 0.0;
                for it in 0..10 {
                    send.start_with(ctx, |buf| buf.extend((0..4).map(|i| (it * 4 + i) as f64)));
                    acc += it as f64;
                }
                acc
            } else {
                let mut recv = ctx.recv_chan_init::<f64>(&comm, 0, 0, 4);
                let mut acc = 0.0;
                for _ in 0..10 {
                    recv.start();
                    acc += recv.wait_with(ctx, |data| data.iter().sum::<f64>());
                }
                acc
            }
        });
        // sum over iterations of (4it + 0+1+2+3)
        let expect: f64 = (0..10).map(|it| (4 * it * 4 + 6) as f64).sum();
        assert_eq!(out[1], expect);
    }

    #[test]
    fn sender_runs_ahead_of_receiver() {
        // buffered semantics: several iterations may be in flight; the
        // channel queues them FIFO and never blocks the sender
        let out = World::run(2, |ctx| {
            let comm = ctx.comm_world();
            if ctx.rank() == 0 {
                let send = ctx.send_chan_init::<u64>(&comm, 1, 2, 1);
                for it in 0..5u64 {
                    send.start_with(ctx, |buf| buf.push(it * 11));
                }
                0
            } else {
                let mut recv = ctx.recv_chan_init::<u64>(&comm, 0, 2, 1);
                let mut acc = 0;
                for _ in 0..5 {
                    recv.start();
                    acc = acc * 100 + recv.wait_with(ctx, |data| data[0]);
                }
                acc
            }
        });
        assert_eq!(out[1], 11223344); // 0,11,22,33,44 in order
    }

    #[test]
    #[should_panic(expected = "mixing a plain send with a persistent receive")]
    fn mixed_plain_send_persistent_recv_panics() {
        World::run(2, |ctx| {
            let comm = ctx.comm_world();
            if ctx.rank() == 0 {
                // plain send on the signature the peer registered a
                // persistent receive for: lands in the mailbox the
                // pre-matched channel bypasses
                ctx.send(&comm, 1, 5, &[1.0f64]);
            } else {
                let mut recv = ctx.recv_chan_init::<f64>(&comm, 0, 5, 1);
                recv.start();
                recv.wait_take(ctx); // must panic with a diagnostic, not hang
            }
        });
    }

    #[test]
    #[should_panic(expected = "mixing a persistent send with a plain recv")]
    fn mixed_persistent_send_plain_recv_panics() {
        World::run(2, |ctx| {
            let comm = ctx.comm_world();
            if ctx.rank() == 0 {
                // persistent send bypasses the mailbox the peer's plain
                // recv blocks on
                let send = ctx.send_chan_init::<f64>(&comm, 1, 6, 1);
                send.start_with(ctx, |buf| buf.push(1.0));
            } else {
                let _: Vec<f64> = ctx.recv(&comm, 0, 6); // must panic, not hang
            }
        });
    }

    #[test]
    fn chan_gather_scatter_roundtrip() {
        // zero-copy halves: gather into the wire buffer on send, scatter
        // straight from the payload on receive — no registered windows
        let out = World::run(2, |ctx| {
            let comm = ctx.comm_world();
            if ctx.rank() == 0 {
                let values = [3.0f64, 1.0, 4.0, 1.0, 5.0];
                let picks = [4usize, 0, 2];
                let send = ctx.send_chan_init::<f64>(&comm, 1, 0, picks.len());
                let mut acc = 0.0;
                for it in 0..4 {
                    send.start_with(ctx, |buf| {
                        buf.extend(picks.iter().map(|&p| values[p] + it as f64))
                    });
                    acc += it as f64;
                }
                acc
            } else {
                let mut recv = ctx.recv_chan_init::<f64>(&comm, 0, 0, 3);
                let mut acc = 0.0;
                for _ in 0..4 {
                    recv.start();
                    acc += recv.wait_with(ctx, |data| data.iter().sum::<f64>());
                }
                acc
            }
        });
        // per iteration: (5+it) + (3+it) + (4+it) = 12 + 3it
        let expect: f64 = (0..4).map(|it| (12 + 3 * it) as f64).sum();
        assert_eq!(out[1], expect);
    }

    #[test]
    fn chan_wait_take_lends_the_payload() {
        let out = World::run(2, |ctx| {
            let comm = ctx.comm_world();
            if ctx.rank() == 0 {
                let send = ctx.send_chan_init::<u64>(&comm, 1, 1, 2);
                for it in 0..3u64 {
                    send.start_with(ctx, |buf| buf.extend([it, it * 10]));
                }
                0
            } else {
                let mut recv = ctx.recv_chan_init::<u64>(&comm, 0, 1, 2);
                let mut acc = 0;
                for _ in 0..3 {
                    recv.start();
                    let data = recv.wait_take(ctx);
                    acc = acc * 100 + data[0] + data[1];
                    recv.recycle(data);
                }
                acc
            }
        });
        assert_eq!(out[1], 11 * 100 + 22); // iterations 0, 11, 22 in order
    }

    #[test]
    #[should_panic(expected = "fill produced 2 elements, registered 3")]
    fn chan_fill_length_mismatch_panics() {
        World::run(1, |ctx| {
            let comm = ctx.comm_world();
            let send = ctx.send_chan_init::<u8>(&comm, 0, 0, 3);
            send.start_with(ctx, |buf| buf.extend([1, 2]));
        });
    }

    #[test]
    #[should_panic(expected = "started twice")]
    fn double_start_panics() {
        World::run(1, |ctx| {
            let comm = ctx.comm_world();
            let mut r = ctx.recv_chan_init::<u8>(&comm, 0, 0, 1);
            r.start();
            r.start();
        });
    }
}
