//! The per-rank handle: point-to-point operations and the virtual clock.

use crate::comm::{Comm, USER_TAG_LIMIT};
use crate::elem::{elem_bytes, Elem};
use crate::state::{Envelope, Payload, WorldState};
use crate::transport::PayloadMode;
use std::sync::Arc;

/// Handle through which a rank's SPMD closure talks to the world.
pub struct RankCtx {
    pub(crate) world: Arc<WorldState>,
    /// World rank of this context.
    pub(crate) rank: usize,
    /// Virtual clock in seconds (always 0 when running unmodeled).
    pub(crate) clock: f64,
}

impl RankCtx {
    pub(crate) fn new(world: Arc<WorldState>, rank: usize) -> Self {
        Self {
            world,
            rank,
            clock: 0.0,
        }
    }

    /// World rank of this process.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.world.n_ranks
    }

    /// The world communicator containing every rank.
    pub fn comm_world(&self) -> Comm {
        Comm::world(self.world.n_ranks, self.rank)
    }

    /// Current virtual time of this rank (0 if unmodeled).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Charge local computation time to the virtual clock.
    pub fn charge_compute(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.clock += seconds;
    }

    /// True when a cost model is attached.
    pub fn is_modeled(&self) -> bool {
        self.world.model.is_some()
    }

    /// Which fabric this world moves bytes over (`"thread"`, `"shm"`, or
    /// `"sock"`) — the same string stall forensics report. Protocol
    /// autotuning keys its persistent profile cache by this, since a
    /// winner measured on one fabric says nothing about another.
    pub fn fabric(&self) -> &'static str {
        self.world.fabric()
    }

    // ---- internal helpers -------------------------------------------------

    /// Modeled transfer time of a message to world rank `dst`, or 0.
    pub(crate) fn model_msg_time(&self, dst_world: usize, bytes: usize) -> f64 {
        match &self.world.model {
            Some(m) => m
                .model
                .msg_time(m.topo.classify(self.rank, dst_world), bytes),
            None => 0.0,
        }
    }

    pub(crate) fn model_match_time(&self, queue_len: usize) -> f64 {
        match &self.world.model {
            Some(m) => m.model.match_time(queue_len),
            None => 0.0,
        }
    }

    /// Charge the virtual clock for injecting `bytes` to world rank
    /// `dst_world` and return the modeled arrival time (the persistent
    /// channels' counterpart of the mailbox send path).
    pub(crate) fn charge_send(&mut self, dst_world: usize, bytes: usize) -> f64 {
        let arrival = self.clock + self.model_msg_time(dst_world, bytes);
        self.clock = arrival;
        arrival
    }

    /// Merge a received message's modeled arrival time into the virtual
    /// clock. Pre-matched channels pay no queue-search term — that is the
    /// point of matching at init time (`match_time(0)` in model terms).
    pub(crate) fn charge_recv(&mut self, arrival: f64) {
        self.clock = self.clock.max(arrival);
    }

    /// Open the world's persistent-channel registry for a bulk
    /// registration pass: every signature resolved through the returned
    /// [`crate::ChanRegistrar`] shares one guard — shared while every
    /// signature is found, exclusive from the first miss — so a whole
    /// collective's (or a whole batch's) channels register in a single
    /// pass over the registry. Do not call other registration methods or
    /// move traffic while the registrar is alive — it holds the registry
    /// lock.
    pub fn chan_registrar(&self) -> crate::state::ChanRegistrar<'_> {
        self.world.chan_registrar()
    }

    /// Non-blocking arrival poll over a set of persistent channels: the
    /// index of the first channel with a delivered, unconsumed message, or
    /// `None` if nothing has arrived yet. The completion-driven request
    /// lifecycle (`NeighborRequest::test`) is built on this plus
    /// [`crate::RecvChan::try_take`].
    pub fn poll_any(&self, chans: &[crate::ChanId]) -> Option<usize> {
        self.world.poll_any(self.rank, chans)
    }

    /// Block until **some** channel of the set has a message and return its
    /// index. Yield-spins briefly, then sleeps on this rank's park point
    /// (woken by whichever deposit lands first) — so a caller looping
    /// `wait_any` completes receives in **delivery order**, not the order
    /// the channels were registered in. Panics via the stall probe if a
    /// peer rank died this epoch.
    ///
    /// The arrival is only *observed*, never consumed: take it off with the
    /// owning receive half (e.g. [`crate::RecvChan::try_take`]), which is
    /// also where the modeled clock merge happens.
    pub fn wait_any(&self, chans: &[crate::ChanId]) -> usize {
        self.world.wait_any(self.rank, chans)
    }

    /// The world as stall forensics see it, taken from a live run instead
    /// of an expired deadline: parked waits, queue depths, and every
    /// rank's [`crate::ParkCounts`].
    pub fn stall_report(&self) -> crate::StallReport {
        self.world.stall_report()
    }

    /// Send `data` to communicator rank `dst` (buffered semantics: completes
    /// locally). `tag` must be below the user tag limit.
    pub fn send<T: Elem>(&mut self, comm: &Comm, dst: usize, tag: u64, data: &[T]) {
        assert!(
            tag < USER_TAG_LIMIT,
            "tag {tag} in reserved collective space"
        );
        self.send_internal(comm, dst, tag, data);
    }

    /// Tag-unchecked send used by collectives.
    pub(crate) fn send_internal<T: Elem>(&mut self, comm: &Comm, dst: usize, tag: u64, data: &[T]) {
        let dst_world = comm.world_rank(dst);
        let bytes = data.len() * elem_bytes::<T>();
        // Sender is occupied for the injection portion of the transfer; for
        // simplicity the full postal time is charged (α-dominated patterns
        // make the distinction immaterial at the scales studied here).
        let arrival = self.charge_send(dst_world, bytes);
        let payload = match self.world.payload_mode() {
            PayloadMode::Typed => Payload::typed(data.to_vec()),
            PayloadMode::Bytes => Payload::bytes_from(data),
        };
        self.world.deposit(
            self.rank,
            dst_world,
            Envelope {
                ctx_id: comm.ctx_id,
                src: comm.rank(),
                tag,
                arrival,
                payload,
            },
        );
    }

    /// Blocking matched receive from communicator rank `src` with `tag`.
    pub fn recv<T: Elem>(&mut self, comm: &Comm, src: usize, tag: u64) -> Vec<T> {
        assert!(
            tag < USER_TAG_LIMIT,
            "tag {tag} in reserved collective space"
        );
        self.recv_internal(comm, src, tag)
    }

    pub(crate) fn recv_internal<T: Elem>(&mut self, comm: &Comm, src: usize, tag: u64) -> Vec<T> {
        let (env, searched) = self
            .world
            .match_recv(self.rank, comm.ctx_id, src, comm.rank(), tag);
        self.clock = self.clock.max(env.arrival) + self.model_match_time(searched);
        env.payload.take::<T>().unwrap_or_else(|sent| {
            panic!(
                "datatype mismatch receiving from rank {src} tag {tag}: \
                 sent {sent}, receiving {}",
                std::any::type_name::<T>()
            )
        })
    }

    /// Split `comm` by `color`; ranks with equal color form a new
    /// communicator ordered by `key` (ties broken by old rank). Collective.
    pub fn comm_split(&mut self, comm: &Comm, color: u64, key: u64) -> Comm {
        // Gather (color, key, world_rank) from every member.
        let mine = [color, key, self.rank as u64];
        let all = self.allgather(comm, &mine);
        let ctx_id = comm.child_ctx_id(color);
        let mut members: Vec<(u64, u64)> = all
            .chunks_exact(3)
            .filter(|c| c[0] == color)
            .map(|c| (c[1], c[2]))
            .collect();
        members.sort_unstable();
        let ranks: Vec<usize> = members.iter().map(|&(_, w)| w as usize).collect();
        let my_rank = ranks
            .iter()
            .position(|&w| w == self.rank)
            .expect("calling rank is in its own color group");
        Comm {
            ctx_id,
            ranks: Arc::new(ranks),
            my_rank,
            coll_seq: std::cell::Cell::new(0),
            split_seq: std::cell::Cell::new(0),
            dup_seq: std::cell::Cell::new(0),
        }
    }

    /// `MPI_Comm_free` for a duplicated or split communicator, without the
    /// collective: the world forgets every persistent channel registered on
    /// `comm`'s context. Each member calls it when it is done with the
    /// communicator; it moves no traffic and never blocks, and a call after
    /// the first finds nothing to do.
    ///
    /// Contract: **every member has registered what it will register on
    /// this communicator** (a barrier after the registration pass gives
    /// that, and so does a `WorldPool::run` boundary between registering
    /// and freeing). Requests initialized before the call keep working —
    /// each owns its channels, and what the fabric keeps per channel
    /// (queues, a shm table row and ring, a sock deliver hook) is returned
    /// when the last of them drops. A registration on the context *after*
    /// a member freed it makes a fresh channel its peer never attaches to:
    /// the blocked side ends in a deadline abort, loudly, not in a hang.
    pub fn comm_free(&self, comm: &Comm) {
        assert_ne!(comm.ctx_id, 0, "the world communicator cannot be freed");
        self.world.free_context(comm.ctx_id);
    }

    /// Absorb the recorded rank-death marker **for this rank**, if one
    /// is set.
    ///
    /// This is the service-layer recovery hook: a scheduler that contains a
    /// tenant's panic (e.g. a seeded `kill=` fault) inside one task calls
    /// this to absorb the peer-death flag the fault path raised, so *this
    /// rank's* blocked waits stop aborting. The flag itself stays raised
    /// for the rest of the epoch — peers that are still blocked on the
    /// dead tenant's traffic (possibly deep inside a synchronous protocol
    /// step) need the abort it drives to escape; each absorbs it for
    /// itself when its own recovery runs. Returns the failure message the
    /// first time this rank absorbs it, `None` thereafter (so a caller
    /// can tell a fresh death from one it has already handled). Outside
    /// such a scheduler the flag should be left alone — it is what makes
    /// deadlocks-after-death loud.
    pub fn absorb_rank_failure(&self) -> Option<String> {
        self.world.absorb_rank_failure(self.rank())
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::World;

    #[test]
    fn ring_exchange() {
        let out = World::run(5, |ctx| {
            let comm = ctx.comm_world();
            let n = ctx.size();
            let right = (ctx.rank() + 1) % n;
            let left = (ctx.rank() + n - 1) % n;
            ctx.send(&comm, right, 0, &[ctx.rank() as u32 * 10]);
            let v: Vec<u32> = ctx.recv(&comm, left, 0);
            v[0]
        });
        assert_eq!(out, vec![40, 0, 10, 20, 30]);
    }

    #[test]
    fn tags_keep_messages_apart() {
        let out = World::run(2, |ctx| {
            let comm = ctx.comm_world();
            if ctx.rank() == 0 {
                ctx.send(&comm, 1, 1, &[1i64]);
                ctx.send(&comm, 1, 2, &[2i64]);
                0
            } else {
                // receive in reverse tag order
                let b: Vec<i64> = ctx.recv(&comm, 0, 2);
                let a: Vec<i64> = ctx.recv(&comm, 0, 1);
                (b[0] * 10 + a[0]) as i32
            }
        });
        assert_eq!(out[1], 21);
    }

    #[test]
    #[should_panic(expected = "datatype mismatch")]
    fn datatype_mismatch_panics() {
        World::run(2, |ctx| {
            let comm = ctx.comm_world();
            if ctx.rank() == 0 {
                ctx.send(&comm, 1, 0, &[1.0f64]);
            } else {
                let _: Vec<u32> = ctx.recv(&comm, 0, 0);
            }
        });
    }

    #[test]
    fn comm_split_groups_by_color() {
        let out = World::run(6, |ctx| {
            let comm = ctx.comm_world();
            let color = (ctx.rank() % 2) as u64;
            let sub = ctx.comm_split(&comm, color, ctx.rank() as u64);
            // ring within the subcommunicator
            let n = sub.size();
            let right = (sub.rank() + 1) % n;
            let left = (sub.rank() + n - 1) % n;
            ctx.send(&sub, right, 3, &[ctx.rank() as u64]);
            let v: Vec<u64> = ctx.recv(&sub, left, 3);
            (sub.size(), v[0])
        });
        // evens: 0,2,4; odds: 1,3,5
        assert_eq!(out[0], (3, 4));
        assert_eq!(out[2], (3, 0));
        assert_eq!(out[1], (3, 5));
        assert_eq!(out[5], (3, 3));
    }

    #[test]
    fn modeled_clock_advances() {
        use locality::Topology;
        use perfmodel::PostalModel;
        use std::sync::Arc;
        let topo = Topology::block_nodes(2, 1); // two nodes, 1 rank each
        let model = Arc::new(PostalModel::new(1e-6, 1e-9));
        let clocks = World::run_modeled(topo, model, |ctx| {
            let comm = ctx.comm_world();
            if ctx.rank() == 0 {
                ctx.send(&comm, 1, 0, &[0u8; 1000]);
            } else {
                let _: Vec<u8> = ctx.recv(&comm, 0, 0);
            }
            ctx.clock()
        });
        let expect = 1e-6 + 1000.0 * 1e-9;
        assert!((clocks[0] - expect).abs() < 1e-12);
        assert!((clocks[1] - expect).abs() < 1e-12);
    }
}
