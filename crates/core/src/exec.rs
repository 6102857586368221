//! Executing a plan as real persistent communication on `mpisim`.
//!
//! [`NeighborExec`] is the per-rank persistent collective object — the
//! analogue of the request returned by `MPI_Neighbor_alltoallv_init`, and
//! the one implementation of the ℓ→s→g→r lifecycle. All routing (buffer
//! layouts, staging copy maps, request registration) comes from
//! [`RankRouting`] and is fixed at init; each iteration only moves values
//! through `start`/`test`/`wait` (the paper's Algorithms 4–6) — with one
//! deliberate difference: Algorithm 5 *completes* the s step inside
//! `MPI_Start`, and here `start` only posts. Every receive of the
//! lifecycle, staging included, completes in `test`, so a request blocks
//! only in `wait` and a rank driving several requests can never be held
//! inside one of them while a peer waits on another.
//!
//! # One wire
//!
//! Every backend runs the same ℓ, s, g and r steps. Each inter-region
//! (`g`) message is one persistent send, gathered from its partitions and
//! shipped once the whole s step is in, and each g receive is one
//! channel. [`crate::Backend::Partitioned`] runs on this
//! wire too: its routing is split at the partition bounds at resolution
//! ([`RankRouting::split_at_partitions`]), so each staging rank's
//! contribution travels as a g message of its own and nothing here knows
//! about partitions.
//!
//! # Zero-copy staging
//!
//! Every step runs on the buffer-less channel halves: a send gathers its
//! values straight into the pre-matched channel's recycled wire buffer
//! ([`SendChan::start_with`]), a receive scatters straight from the
//! delivered payload — no per-iteration allocations. Every copy map is a
//! list of maximal runs ([`Run`], [`FwdRun`]; see [`crate::routing`]): a
//! gather appends one slice per run, a scatter copies one slice per run,
//! and only a run too short for a `memcpy` call to pay (under
//! `SHORT_RUN` values) is moved value by value. The g and r steps are the
//! same shape: a gather over payloads held off their channels. `test`
//! holds each delivered s payload until the s step is complete, then
//! gathers each g send **straight into its wire buffer**, partition by
//! partition — a staged partition is the whole held payload of its s
//! receive, the one own-input partition a small stash `start` filled from
//! the input — and recycles the payloads. Likewise it borrows each g
//! payload off the channel, scatters ghost values into the output, feeds
//! the r-step forwards from the same borrowed payload, and recycles it.
//! No step has a receive window or a staging buffer.
//!
//! Construct requests through [`crate::NeighborAlltoallv`] or
//! [`crate::NeighborBatch`].

use crate::collective::Protocol;
use crate::neighbor::NeighborRequest;
use crate::routing::{FwdRun, GPartRoute, GSendRoute, PartSource, RankRouting, RecvRoute, Run};
use crate::tagspace::TagLease;
use mpisim::{ChanId, ChanRegistrar, Comm, RankCtx, RecvChan, SendChan};
use std::sync::Arc;

/// Runs shorter than this are moved value by value: a `memcpy` call costs
/// more than the one to three moves it would replace, and irregular
/// (coarse-level) maps are made of such runs.
const SHORT_RUN: usize = 4;

/// Append one run's values to a wire buffer: a block copy, or the
/// element loop when the run is short.
#[inline]
fn append_run(buf: &mut Vec<f64>, src: &[f64]) {
    if src.len() < SHORT_RUN {
        for &v in src {
            buf.push(v);
        }
    } else {
        buf.extend_from_slice(src);
    }
}

/// Copy `src` through a map of runs into `dst` (`run.from` indexes `src`,
/// `run.to` indexes `dst`), each run the same way.
fn copy_runs(runs: &[Run], src: &[f64], dst: &mut [f64]) {
    for r in runs {
        let (s, d) = (&src[r.from..r.from + r.len], &mut dst[r.to..r.to + r.len]);
        if r.len < SHORT_RUN {
            for (d, s) in d.iter_mut().zip(s) {
                *d = *s;
            }
        } else {
            d.copy_from_slice(s);
        }
    }
}

/// A send gathered through a copy map of runs `R`: [`Run`]s out of the
/// input (ℓ, s), the partitions of a g send ([`GPartRoute`]s) or
/// [`FwdRun`]s out of the g payloads (r). The runs are in slot order and
/// cover the message, so gathering is appending.
struct SendExec<R> {
    req: SendChan<f64>,
    runs: Vec<R>,
}

impl<R> SendExec<R> {
    fn register(
        reg: &mut ChanRegistrar,
        comm: &Comm,
        dst: usize,
        tag: u64,
        len: usize,
        runs: Vec<R>,
    ) -> Self {
        Self {
            req: reg.send_chan_init(comm, dst, tag, len),
            runs,
        }
    }

    /// Start one instance: append each run's span of values (resolved by
    /// `span`) directly to the channel's wire buffer.
    fn start_gather<'a>(&self, ctx: &mut RankCtx, span: impl Fn(&R) -> &'a [f64]) {
        let runs = &self.runs;
        self.req.start_with(ctx, |buf| {
            for r in runs {
                append_run(buf, span(r));
            }
        });
    }
}

/// A receive delivered straight into the output vector.
struct RecvExec {
    req: RecvChan<f64>,
    /// Runs from slot positions to output positions.
    outputs: Vec<Run>,
}

impl RecvExec {
    fn register_all(routes: Vec<RecvRoute>, reg: &mut ChanRegistrar, comm: &Comm) -> Vec<Self> {
        routes
            .into_iter()
            .map(|r| Self {
                req: reg.recv_chan_init(comm, r.src, r.tag, r.len),
                outputs: r.outputs,
            })
            .collect()
    }

    /// Non-blocking completion: if the payload has arrived, scatter it
    /// straight into `output` (no intermediate receive window) and report
    /// completion; otherwise leave the receive pending. One resumable
    /// completion step of the lifecycle's `test`.
    fn try_scatter(&mut self, ctx: &mut RankCtx, output: &mut [f64]) -> bool {
        match self.req.try_take(ctx) {
            Some(data) => {
                copy_runs(&self.outputs, &data, output);
                self.req.recycle(data);
                true
            }
            None => false,
        }
    }
}

/// A g send: one persistent message gathered from its partitions, in
/// slot order — a staged partition is its s receive's held payload, the
/// own-input one (at most one: origins are distinct per partition) is
/// `own`.
struct GSend {
    send: SendExec<GPartRoute>,
    /// This rank's own partition (empty if none), copied out of the input
    /// by `start` through the runs of its [`PartSource::Input`].
    own: Vec<f64>,
}

impl GSend {
    fn register(g: GSendRoute, reg: &mut ChanRegistrar, comm: &Comm) -> Self {
        let own_part = g
            .parts
            .iter()
            .find(|p| matches!(p.source, PartSource::Input(_)));
        Self {
            own: vec![0.0; own_part.map_or(0, |p| p.range.len())],
            send: SendExec::register(reg, comm, g.dst, g.tag, g.len, g.parts),
        }
    }

    /// Copy this rank's own partition out of the input.
    fn stash(&mut self, input: &[f64]) {
        for part in &self.send.runs {
            if let PartSource::Input(runs) = &part.source {
                copy_runs(runs, input, &mut self.own);
            }
        }
    }

    /// Ship the message: each partition in slot order, out of the held s
    /// payloads and the stash.
    fn ship(&self, ctx: &mut RankCtx, staged: &[Option<Vec<f64>>]) {
        self.send.start_gather(ctx, |part| match part.source {
            PartSource::Staged { s_recv } => staged[s_recv].as_deref().expect("s payload held"),
            PartSource::Input(_) => &self.own,
        });
    }
}

/// The persistent neighborhood collective of one rank.
pub(crate) struct NeighborExec {
    input_index: Vec<usize>,
    output_index: Vec<usize>,
    local_sends: Vec<SendExec<Run>>,
    local_recvs: Vec<RecvExec>,
    s_sends: Vec<SendExec<Run>>,
    s_recvs: Vec<RecvChan<f64>>,
    /// Held s payloads of the current iteration, slotted by s receive
    /// until the g sends gather from them. Buffers recycle, so capacity
    /// is reused.
    staged: Vec<Option<Vec<f64>>>,
    g_sends: Vec<GSend>,
    g_recvs: Vec<RecvExec>,
    /// Borrowed g payloads of the current iteration, slotted by g receive
    /// (arrival order fills them in any order; the r forwards index by
    /// g-message position). Buffers recycle, so capacity is reused.
    payloads: Vec<Option<Vec<f64>>>,
    r_sends: Vec<SendExec<FwdRun>>,
    r_recvs: Vec<RecvExec>,
    /// Per-iteration completion state, reset by `start`: which receives of
    /// each step have been drained by `test`.
    local_done: Vec<bool>,
    /// The staging receive the s step stands on: they complete in
    /// registration order, whatever order they land in.
    s_next: usize,
    /// The g sends ship once, after the whole s step; nothing else of the
    /// iteration is drained before they are out.
    g_started: bool,
    g_done: Vec<bool>,
    /// The r step opens only after every g payload is in (its forwards
    /// read from them); set by the `test` call that drains the last g.
    r_started: bool,
    r_done: Vec<bool>,
    /// Whole-iteration doneness: `test` is a no-op once set (an inactive
    /// persistent request, in MPI terms).
    done: bool,
    protocol: Protocol,
    /// Scratch for the pending-channel set `wait` parks on.
    chan_scratch: Vec<ChanId>,
    /// Requests outlive their builder; holding the lease keeps the tag
    /// span from being re-used while this request's channels are live.
    _lease: Option<Arc<TagLease>>,
}

impl NeighborExec {
    /// Register this rank's requests from a precomputed routing (the
    /// analogue of `MPI_Neighbor_alltoallv_init`). All channels resolve
    /// through the caller's held [`ChanRegistrar`], so a batch registers
    /// every entry in a single pass over the registry.
    pub(crate) fn register(
        routing: RankRouting,
        reg: &mut ChanRegistrar,
        comm: &Comm,
        protocol: Protocol,
        lease: Option<Arc<TagLease>>,
    ) -> Self {
        let local_sends = routing
            .local_sends
            .into_iter()
            .map(|s| SendExec::register(reg, comm, s.dst, s.tag, s.len, s.sources))
            .collect();
        let local_recvs = RecvExec::register_all(routing.local_recvs, reg, comm);
        // the largest set `wait` can park on — every ℓ, g and r receive, or
        // the one staging receive the s step stands on — so the scratch
        // never grows after init
        let n_pending = (local_recvs.len() + routing.g_recvs.len() + routing.r_recvs.len()).max(1);
        let s_sends = routing
            .s_sends
            .into_iter()
            .map(|s| SendExec::register(reg, comm, s.dst, s.tag, s.len, s.sources))
            .collect();
        let s_recvs: Vec<RecvChan<f64>> = routing
            .s_recvs
            .into_iter()
            .map(|r| reg.recv_chan_init(comm, r.src, r.tag, r.len))
            .collect();
        let g_sends = routing
            .g_sends
            .into_iter()
            .map(|g| GSend::register(g, reg, comm))
            .collect();
        let g_recvs: Vec<RecvExec> = routing
            .g_recvs
            .into_iter()
            .map(|r| RecvExec {
                req: reg.recv_chan_init(comm, r.src, r.tag, r.len),
                outputs: r.outputs,
            })
            .collect();
        let r_sends = routing
            .r_sends
            .into_iter()
            .map(|s| SendExec::register(reg, comm, s.dst, s.tag, s.len, s.sources))
            .collect();
        let r_recvs = RecvExec::register_all(routing.r_recvs, reg, comm);
        Self {
            input_index: routing.input_index,
            output_index: routing.output_index,
            local_done: vec![false; local_recvs.len()],
            staged: s_recvs.iter().map(|_| None).collect(),
            s_next: 0,
            g_done: vec![false; g_recvs.len()],
            payloads: g_recvs.iter().map(|_| None).collect(),
            r_started: false,
            r_done: vec![false; r_recvs.len()],
            // inactive until the first start: nothing held back, and
            // test/wait are no-ops, as on an inactive persistent MPI request
            g_started: true,
            done: true,
            local_sends,
            local_recvs,
            s_sends,
            s_recvs,
            g_sends,
            g_recvs,
            r_sends,
            r_recvs,
            protocol,
            chan_scratch: Vec::with_capacity(n_pending),
            _lease: lease,
        }
    }

    /// The s step and the g sends it gates, as one resumable step: take
    /// every staging payload that has been delivered, **in registration
    /// order**, and hold it off its channel; once the last one is in,
    /// gather every g send from the held payloads and recycle them.
    /// Returns whether the g step is out. Never blocks. The order and the
    /// single shipping point are what make the virtual clock a function of
    /// the plan rather than of thread timing.
    fn advance_s(&mut self, ctx: &mut RankCtx) -> bool {
        if self.g_started {
            return true;
        }
        while let Some(recv) = self.s_recvs.get_mut(self.s_next) {
            let Some(data) = recv.try_take(ctx) else {
                return false;
            };
            self.staged[self.s_next] = Some(data);
            self.s_next += 1;
        }
        for send in &self.g_sends {
            send.ship(ctx, &self.staged);
        }
        for (recv, slot) in self.s_recvs.iter_mut().zip(&mut self.staged) {
            if let Some(data) = slot.take() {
                recv.recycle(data);
            }
        }
        self.g_started = true;
        true
    }
}

impl NeighborRequest for NeighborExec {
    fn input_index(&self) -> &[usize] {
        &self.input_index
    }

    fn output_index(&self) -> &[usize] {
        &self.output_index
    }

    /// `MPI_Start`: begin one iteration. `input[i]` is the current value of
    /// `input_index()[i]`. Posts the ℓ and s sends and opens the ℓ, s and g
    /// receives; never blocks. Where Algorithm 5 completes the s step here,
    /// this leaves it to [`NeighborRequest::test`] like every other
    /// receive, taking only what has already been delivered.
    fn start(&mut self, ctx: &mut RankCtx, input: &[f64]) {
        assert_eq!(input.len(), self.input_index.len(), "input length mismatch");

        // fresh iteration: nothing drained yet (a start racing an
        // unfinished iteration trips the receives' double-start assert)
        self.local_done.fill(false);
        self.s_next = 0;
        self.g_started = false;
        self.g_done.fill(false);
        self.r_started = false;
        self.r_done.fill(false);
        self.done = false;

        // ℓ: start sends and receives
        let input_span = |r: &Run| &input[r.from..r.from + r.len];
        for send in &self.local_sends {
            send.start_gather(ctx, input_span);
        }
        for recv in &mut self.local_recvs {
            recv.req.start();
        }

        for send in &self.s_sends {
            send.start_gather(ctx, input_span);
        }
        for recv in &mut self.s_recvs {
            recv.start();
        }

        // g: this rank's own contributions are stashed now (the input is
        // not at hand where the g sends ship)
        for send in &mut self.g_sends {
            send.stash(input);
        }
        for recv in &mut self.g_recvs {
            recv.req.start();
        }

        self.advance_s(ctx);
    }

    /// `MPI_Test`: non-blocking progress. Completes the s step first (in
    /// registration order) and ships the g sends; until they are out
    /// nothing else is drained. From then on drains every payload that has
    /// been delivered — in arrival order, not posting order — scatters its
    /// ghost values into `output`, advances the ℓ→g→r state machine (the r
    /// forwards fire from the `test` call that completes the last g
    /// receive), and reports whether the whole iteration has completed.
    /// Once complete, further calls are no-ops returning `true` (an
    /// inactive persistent request).
    fn test(&mut self, ctx: &mut RankCtx, output: &mut [f64]) -> bool {
        assert_eq!(
            output.len(),
            self.output_index.len(),
            "output length mismatch"
        );
        if self.done {
            return true;
        }
        if !self.advance_s(ctx) {
            return false;
        }

        for (recv, done) in self.local_recvs.iter_mut().zip(&mut self.local_done) {
            if !*done {
                *done = recv.try_scatter(ctx, output);
            }
        }

        // borrow each delivered g payload off its channel, scatter the
        // slots that terminate here, and keep the payload for the r
        // forwards
        let g = self.g_recvs.iter_mut().zip(&mut self.g_done);
        for ((recv, done), slot) in g.zip(&mut self.payloads) {
            if *done {
                continue;
            }
            if let Some(data) = recv.req.try_take(ctx) {
                copy_runs(&recv.outputs, &data, output);
                *slot = Some(data);
                *done = true;
            }
        }

        // r: opens once every g payload is in (each forward may read from
        // any of them); the borrowed payloads are recycled afterwards
        if !self.r_started && self.g_done.iter().all(|&d| d) {
            let payloads = &self.payloads;
            for send in &self.r_sends {
                send.start_gather(ctx, |r| {
                    let data = payloads[r.g_msg].as_ref().expect("g payload drained");
                    &data[r.pos..r.pos + r.len]
                });
            }
            for (recv, slot) in self.g_recvs.iter_mut().zip(&mut self.payloads) {
                if let Some(data) = slot.take() {
                    recv.req.recycle(data);
                }
            }
            for recv in &mut self.r_recvs {
                recv.req.start();
            }
            self.r_started = true;
        }
        if self.r_started {
            for (recv, done) in self.r_recvs.iter_mut().zip(&mut self.r_done) {
                if !*done {
                    *done = recv.try_scatter(ctx, output);
                }
            }
        }

        self.done =
            self.r_started && self.local_done.iter().all(|&d| d) && self.r_done.iter().all(|&d| d);
        self.done
    }

    /// Every receive the current iteration is still blocked on — the set a
    /// caller parks on between `test` calls: the one staging receive the s
    /// step stands on while the g sends are held back, the undrained ℓ and
    /// g receives after. Receives of the not-yet-opened r step are
    /// excluded: they cannot be necessary before the g payloads land (and
    /// `test` opens them then).
    fn pending_chans(&self, out: &mut Vec<ChanId>) {
        if !self.g_started {
            out.push(self.s_recvs[self.s_next].chan_id());
            return;
        }
        let ell = self.local_recvs.iter().zip(&self.local_done);
        for (recv, done) in ell.chain(self.g_recvs.iter().zip(&self.g_done)) {
            if !done {
                out.push(recv.req.chan_id());
            }
        }
        if self.r_started {
            for (recv, done) in self.r_recvs.iter().zip(&self.r_done) {
                if !done {
                    out.push(recv.req.chan_id());
                }
            }
        }
    }

    fn chan_scratch(&mut self) -> &mut Vec<ChanId> {
        &mut self.chan_scratch
    }

    fn protocol(&self) -> Protocol {
        self.protocol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::Backend;
    use crate::pattern::CommPattern;
    use crate::tagspace::SPAN;
    use locality::Topology;
    use mpisim::{Fabric, FaultPlan, World, WorldConfig, WorldPool};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Whether a request's routing is split at the partition bounds.
    const BOTH_ROUTINGS: [bool; 2] = [false, true];

    /// Counts this thread's heap allocations (a rank is a thread), so a
    /// test can assert that a stretch of code makes none.
    struct CountingAlloc;

    thread_local! {
        static ALLOCS: Cell<usize> = const { Cell::new(0) };
    }

    // SAFETY: every call is forwarded unchanged to `System`; the counter
    // is a thread-local `Cell` that allocates nothing itself.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;

    /// One rank's request on its routing of `routings` (every rank's, from
    /// one sweep of the plan), split at the partition bounds if
    /// `partitioned` (as `Backend::Partitioned` resolves it).
    fn init(
        routings: &[RankRouting],
        ctx: &RankCtx,
        comm: &Comm,
        partitioned: bool,
    ) -> NeighborExec {
        let mut routing = routings[comm.rank()].clone();
        if partitioned {
            routing = routing.split_at_partitions();
        }
        let reg = &mut ctx.chan_registrar();
        NeighborExec::register(routing, reg, comm, Protocol::FullNeighbor, None)
    }

    fn bidirectional() -> CommPattern {
        // two regions exchanging in both directions plus local traffic
        CommPattern::new(
            8,
            vec![
                vec![(1, vec![0]), (5, vec![0, 1])],
                vec![(4, vec![10]), (6, vec![11])],
                vec![(7, vec![20, 21])],
                vec![],
                vec![(0, vec![40]), (1, vec![40]), (2, vec![41])],
                vec![(6, vec![50])],
                vec![(3, vec![60]), (0, vec![61])],
                vec![],
            ],
        )
    }

    /// Run `protocol` on `pattern`, split or not, as an epoch of `pool`,
    /// with input value `10·index + iteration`, and check every ghost value
    /// arrives correctly over several iterations with changing values.
    fn roundtrip(
        pool: &WorldPool,
        pattern: &CommPattern,
        topo: &Topology,
        protocol: Protocol,
        partitioned: bool,
    ) {
        let routings = RankRouting::build_all(pattern, &protocol.plan(pattern, topo), 100);
        let results = pool.run(|ctx| {
            let comm = ctx.comm_world();
            let mut nb = init(&routings, ctx, &comm, partitioned);
            let mut got = Vec::new();
            for it in 0..3usize {
                let input: Vec<f64> = nb
                    .input_index()
                    .iter()
                    .map(|&i| (10 * i + it) as f64)
                    .collect();
                let mut output = vec![f64::NAN; nb.output_index().len()];
                nb.start(ctx, &input);
                nb.wait(ctx, &mut output);
                got.push((nb.output_index().to_vec(), output));
            }
            got
        });
        for (rank, iters) in results.iter().enumerate() {
            for (it, (idx, vals)) in iters.iter().enumerate() {
                assert_eq!(idx, &pattern.dst_indices(rank));
                for (&i, &v) in idx.iter().zip(vals) {
                    assert_eq!(
                        v,
                        (10 * i + it) as f64,
                        "rank {rank} iter {it} index {i} ({protocol}, partitioned={partitioned})"
                    );
                }
            }
        }
    }

    /// Every protocol, and the split routing of each aggregated plan (what
    /// `Backend::Partitioned` runs), as successive epochs of one
    /// warm pool — the steady-state shape the benches and the AMG driver
    /// rely on.
    fn roundtrip_all(pattern: &CommPattern, topo: &Topology) {
        let pool = World::pool(pattern.n_ranks);
        for protocol in Protocol::ALL {
            roundtrip(&pool, pattern, topo, protocol, false);
            if matches!(protocol, Protocol::PartialNeighbor | Protocol::FullNeighbor) {
                roundtrip(&pool, pattern, topo, protocol, true);
            }
        }
    }

    #[test]
    fn example_2_1_all_protocols_deliver() {
        roundtrip_all(&CommPattern::example_2_1(), &Topology::block_nodes(8, 4));
    }

    #[test]
    fn bidirectional_pattern_all_protocols() {
        roundtrip_all(&bidirectional(), &Topology::block_nodes(8, 4));
    }

    #[test]
    fn empty_pattern_is_a_noop() {
        roundtrip_all(&CommPattern::empty(4), &Topology::block_nodes(4, 2));
    }

    #[test]
    fn three_regions_with_dedup() {
        // value fanned out to many destinations across several regions
        let pattern = CommPattern::new(
            12,
            vec![
                vec![
                    (4, vec![7]),
                    (5, vec![7]),
                    (6, vec![7]),
                    (8, vec![7]),
                    (11, vec![7]),
                ],
                vec![(0, vec![13])],
                vec![],
                vec![],
                vec![(8, vec![42]), (9, vec![42]), (10, vec![42, 43])],
                vec![],
                vec![],
                vec![],
                vec![(0, vec![80]), (1, vec![80, 81]), (2, vec![82])],
                vec![],
                vec![],
                vec![],
            ],
        );
        roundtrip_all(&pattern, &Topology::block_nodes(12, 4));
    }

    /// Copy maps of every shape on an 8-rank, two-region world. Rank `r`
    /// owns the 64 indices from `own(r)` and sends across the regions a
    /// block of 24 (one long run, block-copied), every third of it (runs
    /// of one: the same inputs strided) and an overlapping block of 8 (the
    /// same value bound for several ranks of one region — sent twice
    /// through the s step by the partial protocol, and once, feeding
    /// several r forwards, by the full one), plus a block of 12 to a
    /// region-mate.
    fn run_shapes(own: impl Fn(usize) -> usize) -> CommPattern {
        let sends = (0..8)
            .map(|r| {
                let (b, near, far) = (own(r), r / 4 * 4, (1 - r / 4) * 4);
                vec![
                    (far + r % 4, (b..b + 24).collect()),
                    (far + (r + 1) % 4, (b..b + 24).step_by(3).collect()),
                    (far + (r + 2) % 4, (b + 4..b + 12).collect()),
                    (near + (r + 1) % 4, (b + 8..b + 20).collect()),
                ]
            })
            .collect();
        CommPattern::new(8, sends)
    }

    #[test]
    fn contiguous_strided_and_duplicated_sources_deliver() {
        roundtrip_all(&run_shapes(|r| 64 * r), &Topology::block_nodes(8, 4));
    }

    #[test]
    fn descending_ownership_delivers() {
        // higher ranks own lower indices: a g buffer is origin-major, so
        // its consecutive partitions land at descending output positions
        // and the r forwards read it out of slot order
        roundtrip_all(&run_shapes(|r| 64 * (7 - r)), &Topology::block_nodes(8, 4));
    }

    #[test]
    fn dense_pattern_delivers() {
        // the aggregating plans' leaders here ship g messages whose own
        // partition sits between two staged ones: the gather must walk
        // the partitions in slot order
        let topo = Topology::block_nodes(16, 4);
        roundtrip_all(&CommPattern::all_to_all_regions(&topo), &topo);
    }

    #[test]
    fn amg_level_delivers() {
        use sparse::gen::diffusion::paper_problem;
        use sparse::{build_comm_pkgs, Partition};
        let a = paper_problem(32, 16);
        let part = Partition::block(a.n_rows(), 12);
        let pattern = CommPattern::from_comm_pkgs(&build_comm_pkgs(&a, &part));
        roundtrip_all(&pattern, &Topology::block_nodes(12, 4));
    }

    #[test]
    fn pooled_world_reuses_collectives_across_patterns() {
        // one warm pool drives two different patterns in sequence, split
        // and not
        let pool = World::pool(8);
        let topo = Topology::block_nodes(8, 4);
        for pattern in [CommPattern::example_2_1(), bidirectional()] {
            for partitioned in BOTH_ROUTINGS {
                roundtrip(&pool, &pattern, &topo, Protocol::FullNeighbor, partitioned);
            }
        }
    }

    #[test]
    fn two_collectives_coexist_via_tag_base() {
        let pattern = CommPattern::example_2_1();
        let topo = Topology::block_nodes(8, 4);
        let plan_a = Protocol::PartialNeighbor.plan(&pattern, &topo);
        let plan_b = Protocol::FullNeighbor.plan(&pattern, &topo);
        let routings_a = RankRouting::build_all(&pattern, &plan_a, 0);
        let routings_b = RankRouting::build_all(&pattern, &plan_b, SPAN);
        // every pairing of split and unsplit routings; one tag span apart
        // (partition sub-tags live above the step tags)
        for (split_a, split_b) in BOTH_ROUTINGS
            .into_iter()
            .flat_map(|a| BOTH_ROUTINGS.map(|b| (a, b)))
        {
            let ok = World::run(8, |ctx| {
                let comm = ctx.comm_world();
                let mut a = init(&routings_a, ctx, &comm, split_a);
                let mut b = init(&routings_b, ctx, &comm, split_b);
                let input_a: Vec<f64> = a.input_index().iter().map(|&i| i as f64).collect();
                let input_b: Vec<f64> =
                    b.input_index().iter().map(|&i| 1000.0 + i as f64).collect();
                let mut out_a = vec![0.0; a.output_index().len()];
                let mut out_b = vec![0.0; b.output_index().len()];
                // interleave the two collectives
                a.start(ctx, &input_a);
                b.start(ctx, &input_b);
                b.wait(ctx, &mut out_b);
                a.wait(ctx, &mut out_a);
                let ok_a = a
                    .output_index()
                    .iter()
                    .zip(&out_a)
                    .all(|(&i, &v)| v == i as f64);
                let ok_b = b
                    .output_index()
                    .iter()
                    .zip(&out_b)
                    .all(|(&i, &v)| v == 1000.0 + i as f64);
                ok_a && ok_b
            });
            assert!(ok.into_iter().all(|b| b), "split ({split_a}, {split_b})");
        }
    }

    #[test]
    fn start_returns_before_any_peer_has_started() {
        // even ranks start and only then meet the odd ranks at a barrier
        // the odd ranks pass before they start: a start that waited for a
        // staging message would never reach it (the deadline makes that a
        // loud abort)
        let topo = Topology::block_nodes(16, 4);
        let pattern = CommPattern::all_to_all_regions(&topo);
        let routings =
            RankRouting::build_all(&pattern, &Protocol::FullNeighbor.plan(&pattern, &topo), 100);
        for partitioned in BOTH_ROUTINGS {
            let faults = FaultPlan::seeded(1).deadline_ms(3_000);
            let world = WorldConfig::new(Fabric::Thread).faults(faults);
            let ok = world.run(16, |ctx| {
                let comm = ctx.comm_world();
                let mut nb = init(&routings, ctx, &comm, partitioned);
                let input: Vec<f64> = nb.input_index().iter().map(|&i| i as f64).collect();
                let mut output = vec![f64::NAN; nb.output_index().len()];
                if ctx.rank() % 2 == 0 {
                    nb.start(ctx, &input);
                    ctx.barrier(&comm);
                } else {
                    ctx.barrier(&comm);
                    nb.start(ctx, &input);
                }
                nb.wait(ctx, &mut output);
                nb.output_index()
                    .iter()
                    .zip(&output)
                    .all(|(&i, &v)| v == i as f64)
            });
            assert!(ok.into_iter().all(|b| b), "partitioned={partitioned}");
        }
    }

    #[test]
    fn steady_state_iteration_allocates_nothing() {
        // wire buffers recycle, copy maps are fixed at init and `wait`
        // parks through the request's own scratch: once every buffer has
        // reached its size, start/wait touch the heap on no rank — for
        // every protocol, and for both aggregating ones split at their
        // partition bounds (`Backend::Partitioned`)
        let topo = Topology::block_nodes(16, 4);
        let pattern = CommPattern::all_to_all_regions(&topo);
        let cases = Protocol::ALL.map(|p| (p, false)).into_iter().chain([
            (Protocol::PartialNeighbor, true),
            (Protocol::FullNeighbor, true),
        ]);
        for (protocol, partitioned) in cases {
            let routings = RankRouting::build_all(&pattern, &protocol.plan(&pattern, &topo), 100);
            let allocs = World::run(16, |ctx| {
                let comm = ctx.comm_world();
                let mut nb = init(&routings, ctx, &comm, partitioned);
                let input: Vec<f64> = nb.input_index().iter().map(|&i| i as f64).collect();
                let mut output = vec![f64::NAN; nb.output_index().len()];
                steady_state_allocs(ctx, &comm, |ctx| {
                    nb.start(ctx, &input);
                    nb.wait(ctx, &mut output);
                })
            });
            assert_eq!(allocs, vec![0; 16], "{protocol}, partitioned={partitioned}");
        }
    }

    #[test]
    fn steady_state_batch_session_allocates_nothing() {
        // the batch path: entries initialized together and driven by the
        // session verbs, held payloads, ready queue and park scratch
        // included
        let topo = Topology::block_nodes(16, 4);
        let pattern = CommPattern::all_to_all_regions(&topo);
        let batch = crate::NeighborBatch::new(&topo)
            .entry(&pattern, Backend::Protocol(Protocol::FullNeighbor))
            .entry(&pattern, Backend::Protocol(Protocol::FullNeighbor))
            .entry(&pattern, Backend::Protocol(Protocol::PartialNeighbor))
            .entry(&pattern, Backend::Partitioned(Protocol::FullNeighbor));
        let allocs = World::run(16, |ctx| {
            let comm = ctx.comm_world();
            let mut session = batch.init_all(ctx, &comm);
            let inputs: Vec<Vec<f64>> = session
                .requests()
                .iter()
                .map(|r| r.input_index().iter().map(|&i| i as f64).collect())
                .collect();
            let mut outputs: Vec<Vec<f64>> = session
                .requests()
                .iter()
                .map(|r| vec![f64::NAN; r.output_index().len()])
                .collect();
            steady_state_allocs(ctx, &comm, |ctx| {
                session.start_all(ctx, &inputs);
                session.wait_all(ctx, &mut outputs);
            })
        });
        assert_eq!(allocs, vec![0; 16]);
    }

    /// This rank's heap allocations over 8 iterations, after 2 that let
    /// every buffer reach its size. A barrier before each keeps every
    /// channel at one buffer in flight, so none grows its pool late; only
    /// the iteration itself is counted.
    fn steady_state_allocs(
        ctx: &mut RankCtx,
        comm: &Comm,
        mut iteration: impl FnMut(&mut RankCtx),
    ) -> usize {
        let mut allocs = 0;
        for it in 0..10 {
            ctx.barrier(comm);
            let before = ALLOCS.with(Cell::get);
            iteration(ctx);
            if it >= 2 {
                allocs += ALLOCS.with(Cell::get) - before;
            }
        }
        allocs
    }

    #[test]
    fn test_on_an_inactive_request_is_a_noop_true() {
        // before the first start — and after an iteration completes — the
        // request is inactive: test must report done without touching any
        // receive (MPI_Test on an inactive persistent request)
        let pattern = CommPattern::example_2_1();
        let topo = Topology::block_nodes(8, 4);
        let routings =
            RankRouting::build_all(&pattern, &Protocol::FullNeighbor.plan(&pattern, &topo), 100);
        for partitioned in BOTH_ROUTINGS {
            let ok = World::run(8, |ctx| {
                let comm = ctx.comm_world();
                let mut nb = init(&routings, ctx, &comm, partitioned);
                let mut output = vec![f64::NAN; nb.output_index().len()];
                let before = nb.test(ctx, &mut output);
                let input: Vec<f64> = nb.input_index().iter().map(|&i| i as f64).collect();
                nb.start(ctx, &input);
                nb.wait(ctx, &mut output);
                before && nb.test(ctx, &mut output)
            });
            assert!(ok.into_iter().all(|b| b), "partitioned={partitioned}");
        }
    }
}
