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
//! # Two wires, one state machine
//!
//! The ℓ, s, and r steps are identical for every backend; only the
//! inter-region (`g`) step has two wires ([`Wire`]), matched only where
//! they genuinely differ — registration, what an arriving staging message
//! triggers, shipping, draining in `test`, the r-forward lookup, and which
//! channel(s) a pending g receive waits on:
//!
//! * **plain** — each g message is one persistent send gathered from its
//!   window of the request's arena, shipped once staging completes;
//! * **partitioned** — the combination the paper's §5 proposes ("large
//!   messages have been optimized separately with both locality-aware
//!   methods and partitioned communication. The combination of these
//!   optimizations, partitioning locality-aware messages, can have an even
//!   large impact"): the origin-major g layout's partition bounds become
//!   real partitioned requests, one partition per staging rank, and each
//!   partition is injected (`MPI_Pready`-style) as its staging message is
//!   taken instead of after the whole s step.
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
//! `SHORT_RUN` values) is moved value by value. The only buffers a
//! request owns are the g buffers, and every staging payload is copied
//! **directly into its partition's window** of the g send buffer it
//! feeds, so staged values land wire-ready with no intermediate `s`
//! buffer and no second copy. On the plain wire all g send buffers alias
//! **one arena allocation per request** (or per batch), and `test` borrows
//! each g payload off the channel, scatters ghost values into the output,
//! feeds the r-step forwards from the same borrowed payload, and recycles
//! it — no g receive window at all. Only the partitioned g receive keeps a
//! registered window: partitions complete independently into one buffer,
//! and the r-step forwards read from it.
//!
//! Construct requests through [`crate::NeighborAlltoallv`] or
//! [`crate::NeighborBatch`].

use crate::collective::Protocol;
use crate::neighbor::NeighborRequest;
use crate::routing::{
    FwdRun, GRecvRoute, GSendRoute, PartSource, RankRouting, RecvRoute, Run, SRecvRoute,
};
use crate::tagspace::TagLease;
use mpisim::persistent::shared_buf;
use mpisim::{
    ChanId, ChanRegistrar, Comm, PrecvReq, PsendReq, RankCtx, RecvChan, SendChan, SharedBuf,
};
use std::ops::Range;
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
/// input (ℓ, s) or [`FwdRun`]s out of the g payloads (r). The runs are in
/// slot order and cover the message, so gathering is appending.
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

/// A staging receive and the window of the g send partition it fills —
/// staged data is copied there wire-ready.
struct SRecv {
    req: RecvChan<f64>,
    /// Where the payload lands: a range of the arena (plain wire) or of
    /// g send `g_send`'s buffer (partitioned wire).
    win: Range<usize>,
    /// Which g send and partition this staging message fills (what the
    /// partitioned wire marks ready on arrival).
    g_send: usize,
    partition: usize,
}

impl SRecv {
    fn register(
        route: SRecvRoute,
        reg: &mut ChanRegistrar,
        comm: &Comm,
        win: Range<usize>,
    ) -> Self {
        // hard check: an oversized staging receive would overrun into the
        // next partition's window
        assert_eq!(win.len(), route.len, "staging/partition length mismatch");
        Self {
            req: reg.recv_chan_init(comm, route.src, route.tag, route.len),
            win,
            g_send: route.g_send,
            partition: route.partition,
        }
    }
}

/// Plain-wire g send: one persistent message gathered from its arena
/// window.
struct GSend {
    req: SendChan<f64>,
    win: Range<usize>,
    /// The partition fed by this rank's own input (empty if none), as
    /// runs from input positions to positions of the window.
    input_runs: Vec<Run>,
}

/// Partitioned-wire g send: one partition per contributing origin.
struct GPsend {
    req: PsendReq<f64>,
    buf: SharedBuf<f64>,
    /// Partitions fed by this rank's own input: (partition index, runs
    /// from input positions to positions of `buf`).
    input_parts: Vec<(usize, Vec<Run>)>,
}

/// Partitioned-wire g receive: partitions assemble into one window.
struct GPrecv {
    req: PrecvReq<f64>,
    buf: SharedBuf<f64>,
    outputs: Vec<Run>,
}

/// How the inter-region (`g`) messages travel. Everything else about a
/// request is wire-independent.
enum Wire {
    Plain {
        /// One allocation backing every g send buffer; staging payloads
        /// are copied into it.
        arena: SharedBuf<f64>,
        sends: Vec<GSend>,
        recvs: Vec<RecvExec>,
        /// Borrowed g payloads of the current iteration, slotted by g
        /// receive (arrival order fills them in any order; the r forwards
        /// index by g-message position). Buffers recycle, so capacity is
        /// reused.
        payloads: Vec<Option<Vec<f64>>>,
    },
    Partitioned {
        sends: Vec<GPsend>,
        recvs: Vec<GPrecv>,
    },
}

impl Wire {
    /// Register the g step and the staging receives that fill its send
    /// buffers. `window = Some((arena, base))` selects the plain wire,
    /// staging in `arena[base ..]`; `None` selects the partitioned wire,
    /// whose buffers stay per-message (a partitioned send covers its whole
    /// buffer).
    fn register(
        g_sends: Vec<GSendRoute>,
        g_recvs: Vec<GRecvRoute>,
        s_recvs: Vec<SRecvRoute>,
        reg: &mut ChanRegistrar,
        comm: &Comm,
        window: Option<(SharedBuf<f64>, usize)>,
    ) -> (Self, Vec<SRecv>) {
        match window {
            Some((arena, base)) => {
                let offsets: Vec<usize> = g_sends
                    .iter()
                    .scan(base, |off, g| {
                        let o = *off;
                        *off += g.len;
                        Some(o)
                    })
                    .collect();
                let end = base + g_sends.iter().map(|g| g.len).sum::<usize>();
                assert!(
                    end <= arena.read().len(),
                    "arena window {base}..{end} out of arena of len {}",
                    arena.read().len()
                );
                let s_recvs = s_recvs
                    .into_iter()
                    .map(|r| {
                        let g = &g_sends[r.g_send];
                        let win = offsets[r.g_send] + g.bounds[r.partition]
                            ..offsets[r.g_send] + g.bounds[r.partition + 1];
                        SRecv::register(r, reg, comm, win)
                    })
                    .collect();
                let sends = g_sends
                    .into_iter()
                    .zip(&offsets)
                    .map(|(g, &off)| GSend {
                        req: reg.send_chan_init(comm, g.dst, g.tag, g.len),
                        win: off..off + g.len,
                        // origins are distinct per partition, so at most
                        // one is this rank's own; staged partitions are
                        // written as their s receives complete
                        input_runs: g
                            .parts
                            .into_iter()
                            .find_map(|part| match part.source {
                                PartSource::Input(runs) => Some(runs),
                                PartSource::Staged { .. } => None,
                            })
                            .unwrap_or_default(),
                    })
                    .collect();
                // the plain wire ignores the partition bounds
                let recvs: Vec<RecvExec> = g_recvs
                    .into_iter()
                    .map(|r| RecvExec {
                        req: reg.recv_chan_init(comm, r.src, r.tag, r.len),
                        outputs: r.outputs,
                    })
                    .collect();
                let payloads = recvs.iter().map(|_| None).collect();
                let wire = Wire::Plain {
                    arena,
                    sends,
                    recvs,
                    payloads,
                };
                (wire, s_recvs)
            }
            None => {
                // g sends first: the staging receives fill their buffers
                let sends: Vec<GPsend> = g_sends
                    .into_iter()
                    .map(|g| {
                        let buf = shared_buf(vec![0.0f64; g.len]);
                        GPsend {
                            req: reg.psend_init_parts(comm, g.dst, g.tag, buf.clone(), g.bounds),
                            buf,
                            input_parts: g
                                .parts
                                .into_iter()
                                .enumerate()
                                .filter_map(|(pidx, part)| match part.source {
                                    PartSource::Input(runs) => Some((pidx, runs)),
                                    PartSource::Staged { .. } => None,
                                })
                                .collect(),
                        }
                    })
                    .collect();
                let s_recvs = s_recvs
                    .into_iter()
                    .map(|r| {
                        let gs = &sends[r.g_send];
                        let win = gs.req.partition_range(r.partition);
                        SRecv::register(r, reg, comm, win)
                    })
                    .collect();
                let recvs = g_recvs
                    .into_iter()
                    .map(|r| {
                        let buf = shared_buf(vec![0.0f64; r.len]);
                        GPrecv {
                            req: reg.precv_init_parts(comm, r.src, r.tag, buf.clone(), r.bounds),
                            buf,
                            outputs: r.outputs,
                        }
                    })
                    .collect();
                (Wire::Partitioned { sends, recvs }, s_recvs)
            }
        }
    }

    /// Append the channel(s) g receive `i` still waits on: its one
    /// channel, or every unarrived partition's.
    fn pending_chans(&self, i: usize, out: &mut Vec<ChanId>) {
        match self {
            Wire::Plain { recvs, .. } => out.push(recvs[i].req.chan_id()),
            Wire::Partitioned { recvs, .. } => recvs[i].req.pending_chan_ids(out),
        }
    }
}

/// The persistent neighborhood collective of one rank, on either wire.
pub(crate) struct NeighborExec {
    input_index: Vec<usize>,
    output_index: Vec<usize>,
    local_sends: Vec<SendExec<Run>>,
    local_recvs: Vec<RecvExec>,
    s_sends: Vec<SendExec<Run>>,
    s_recvs: Vec<SRecv>,
    wire: Wire,
    r_sends: Vec<SendExec<FwdRun>>,
    r_recvs: Vec<RecvExec>,
    /// Per-iteration completion state, reset by `start`: which receives of
    /// each step have been drained by `test`. A partitioned g receive is
    /// done when **all** of its partitions have arrived and its ghost
    /// slots are scattered.
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
    /// analogue of `MPI_Neighbor_alltoallv_init`). `window` picks the g
    /// wire — see [`Wire::register`]: `Some` is the window a
    /// [`crate::NeighborBatch`] carves for this entry out of the
    /// batch-shared arena, `None` the partitioned wire. All channels
    /// resolve through the caller's held [`ChanRegistrar`], so a batch
    /// registers every entry in a single pass over the registry.
    pub(crate) fn register(
        routing: RankRouting,
        reg: &mut ChanRegistrar,
        comm: &Comm,
        window: Option<(SharedBuf<f64>, usize)>,
        protocol: Protocol,
        lease: Option<Arc<TagLease>>,
    ) -> Self {
        let local_sends = routing
            .local_sends
            .into_iter()
            .map(|s| SendExec::register(reg, comm, s.dst, s.tag, s.len, s.sources))
            .collect();
        let local_recvs = RecvExec::register_all(routing.local_recvs, reg, comm);
        let n_g = routing.g_recvs.len();
        // the largest set `wait` can park on — every ℓ and r receive and
        // every g partition, or the one staging receive the s step stands
        // on — so the scratch never grows after init
        let n_pending = (local_recvs.len()
            + routing.r_recvs.len()
            + routing
                .g_recvs
                .iter()
                .map(|g| g.bounds.len() - 1)
                .sum::<usize>())
        .max(1);
        let s_sends = routing
            .s_sends
            .into_iter()
            .map(|s| SendExec::register(reg, comm, s.dst, s.tag, s.len, s.sources))
            .collect();
        let (wire, s_recvs) = Wire::register(
            routing.g_sends,
            routing.g_recvs,
            routing.s_recvs,
            reg,
            comm,
            window,
        );
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
            s_next: 0,
            g_done: vec![false; n_g],
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
            wire,
            r_sends,
            r_recvs,
            protocol,
            chan_scratch: Vec::with_capacity(n_pending),
            _lease: lease,
        }
    }

    /// The s step and the g sends it gates, as one resumable step: take
    /// every staging payload that has been delivered, **in registration
    /// order**, into its partition's window (the partitioned wire injects
    /// that partition right there), and ship the g sends once the last one
    /// is in. Returns whether the g step is out. Never blocks. The order
    /// and the single shipping point are what make the virtual clock a
    /// function of the plan rather than of thread timing.
    fn advance_s(&mut self, ctx: &mut RankCtx) -> bool {
        if self.g_started {
            return true;
        }
        while let Some(sr) = self.s_recvs.get_mut(self.s_next) {
            let Some(data) = sr.req.try_take(ctx) else {
                return false;
            };
            match &mut self.wire {
                Wire::Plain { arena, .. } => {
                    arena.write()[sr.win.clone()].copy_from_slice(&data);
                }
                Wire::Partitioned { sends, .. } => {
                    let gs = &mut sends[sr.g_send];
                    gs.buf.write()[sr.win.clone()].copy_from_slice(&data);
                    gs.req.pready(ctx, sr.partition);
                }
            }
            sr.req.recycle(data);
            self.s_next += 1;
        }
        match &self.wire {
            Wire::Plain { arena, sends, .. } => {
                let arena = arena.read();
                for send in sends {
                    let win = &arena[send.win.clone()];
                    send.req.start_with(ctx, |buf| buf.extend_from_slice(win));
                }
            }
            Wire::Partitioned { sends, .. } => {
                for gs in sends {
                    gs.req.wait();
                }
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
        for sr in &mut self.s_recvs {
            sr.req.start();
        }

        // g: this rank's own contributions go into the send buffers now
        // (their windows are disjoint from the staged ones)
        match &mut self.wire {
            Wire::Plain {
                arena,
                sends,
                recvs,
                ..
            } => {
                let mut arena = arena.write();
                for send in sends.iter() {
                    copy_runs(&send.input_runs, input, &mut arena[send.win.clone()]);
                }
                for recv in recvs {
                    recv.req.start();
                }
            }
            // the partitioned g opens before staging completes: the
            // leader's own partitions are injected right away
            Wire::Partitioned { sends, recvs } => {
                for gs in sends {
                    gs.req.start();
                    for (pidx, runs) in &gs.input_parts {
                        copy_runs(runs, input, &mut gs.buf.write());
                        gs.req.pready(ctx, *pidx);
                    }
                }
                for gr in recvs {
                    gr.req.start();
                }
            }
        }

        self.advance_s(ctx);
    }

    /// `MPI_Test`: non-blocking progress. Completes the s step first (in
    /// registration order) and ships the g sends; until they are out
    /// nothing else is drained. From then on drains every payload (and
    /// partition) that has been delivered — in arrival order, not posting
    /// order — scatters its ghost values into `output`, advances the
    /// ℓ→g→r state machine (the r forwards fire from the `test` call that
    /// completes the last g receive), and reports whether the whole
    /// iteration has completed. Once complete, further calls are no-ops
    /// returning `true` (an inactive persistent request).
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

        match &mut self.wire {
            // borrow each delivered payload off its channel, scatter the
            // slots that terminate here, and keep the payload for the r
            // forwards
            Wire::Plain {
                recvs, payloads, ..
            } => {
                for ((recv, done), slot) in recvs.iter_mut().zip(&mut self.g_done).zip(payloads) {
                    if *done {
                        continue;
                    }
                    if let Some(data) = recv.req.try_take(ctx) {
                        copy_runs(&recv.outputs, &data, output);
                        *slot = Some(data);
                        *done = true;
                    }
                }
            }
            // a partitioned receive completes — and scatters — when its
            // last partition lands
            Wire::Partitioned { recvs, .. } => {
                for (gr, done) in recvs.iter_mut().zip(&mut self.g_done) {
                    if !*done && gr.req.try_wait(ctx) {
                        copy_runs(&gr.outputs, &gr.buf.read(), output);
                        *done = true;
                    }
                }
            }
        }

        // r: opens once every g payload is in (each forward may read from
        // any of them)
        if !self.r_started && self.g_done.iter().all(|&d| d) {
            match &mut self.wire {
                // the borrowed payloads are recycled afterwards
                Wire::Plain {
                    recvs, payloads, ..
                } => {
                    for send in &self.r_sends {
                        send.start_gather(ctx, |r| {
                            let data = payloads[r.g_msg].as_ref().expect("g payload drained");
                            &data[r.pos..r.pos + r.len]
                        });
                    }
                    for (recv, slot) in recvs.iter_mut().zip(payloads) {
                        if let Some(data) = slot.take() {
                            recv.req.recycle(data);
                        }
                    }
                }
                // hold one read guard per g buffer across all r forwards
                Wire::Partitioned { recvs, .. } => {
                    let g_bufs: Vec<_> = recvs.iter().map(|g| g.buf.read()).collect();
                    for send in &self.r_sends {
                        send.start_gather(ctx, |r| &g_bufs[r.g_msg][r.pos..r.pos + r.len]);
                    }
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
            out.push(self.s_recvs[self.s_next].req.chan_id());
            return;
        }
        for (recv, done) in self.local_recvs.iter().zip(&self.local_done) {
            if !done {
                out.push(recv.req.chan_id());
            }
        }
        for (i, done) in self.g_done.iter().enumerate() {
            if !done {
                self.wire.pending_chans(i, out);
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

    fn is_partitioned(&self) -> bool {
        matches!(self.wire, Wire::Partitioned { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::Plan;
    use crate::pattern::CommPattern;
    use crate::tagspace::SPAN;
    use locality::Topology;
    use mpisim::{Fabric, FaultPlan, World, WorldConfig, WorldPool};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    const BOTH_WIRES: [bool; 2] = [false, true];

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

    /// One rank's request for `plan` on the chosen wire, staging plain g
    /// sends in a private arena.
    fn init(
        pattern: &CommPattern,
        plan: &Plan,
        ctx: &RankCtx,
        comm: &Comm,
        tag_base: u64,
        partitioned: bool,
    ) -> NeighborExec {
        let routing = RankRouting::build(pattern, plan, comm.rank(), tag_base);
        let window = (!partitioned).then(|| {
            let total: usize = routing.g_sends.iter().map(|g| g.len).sum();
            (shared_buf(vec![0.0f64; total]), 0)
        });
        let reg = &mut ctx.chan_registrar();
        NeighborExec::register(routing, reg, comm, window, Protocol::FullNeighbor, None)
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

    /// Run `protocol` on `pattern` over one wire as an epoch of `pool`,
    /// with input value `10·index + iteration`, and check every ghost value
    /// arrives correctly over several iterations with changing values.
    fn roundtrip(
        pool: &WorldPool,
        pattern: &CommPattern,
        topo: &Topology,
        protocol: Protocol,
        partitioned: bool,
    ) {
        let plan = protocol.plan(pattern, topo);
        let results = pool.run(|ctx| {
            let comm = ctx.comm_world();
            let mut nb = init(pattern, &plan, ctx, &comm, 100, partitioned);
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

    /// Every protocol on every wire its plan can run on (the partitioned
    /// wire applies to aggregated plans only), as successive epochs of one
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
        // one warm pool drives two different patterns in sequence, on both
        // wires
        let pool = World::pool(8);
        let topo = Topology::block_nodes(8, 4);
        for pattern in [CommPattern::example_2_1(), bidirectional()] {
            for partitioned in BOTH_WIRES {
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
        // every wire pairing, including plain alongside partitioned; one
        // tag span apart (partition sub-tags live above the step tags)
        for (wire_a, wire_b) in BOTH_WIRES
            .into_iter()
            .flat_map(|a| BOTH_WIRES.map(|b| (a, b)))
        {
            let ok = World::run(8, |ctx| {
                let comm = ctx.comm_world();
                let mut a = init(&pattern, &plan_a, ctx, &comm, 0, wire_a);
                let mut b = init(&pattern, &plan_b, ctx, &comm, SPAN, wire_b);
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
            assert!(ok.into_iter().all(|b| b), "wires ({wire_a}, {wire_b})");
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
        let plan = Protocol::FullNeighbor.plan(&pattern, &topo);
        for partitioned in BOTH_WIRES {
            let faults = FaultPlan::seeded(1).deadline_ms(3_000);
            let world = WorldConfig::new(Fabric::Thread).faults(faults);
            let ok = world.run(16, |ctx| {
                let comm = ctx.comm_world();
                let mut nb = init(&pattern, &plan, ctx, &comm, 100, partitioned);
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
        // reached its size, start/wait touch the heap on no rank (plain
        // wire; the partitioned r step collects its read guards in a Vec)
        let topo = Topology::block_nodes(16, 4);
        let pattern = CommPattern::all_to_all_regions(&topo);
        for protocol in Protocol::ALL {
            let plan = protocol.plan(&pattern, &topo);
            let allocs = World::run(16, |ctx| {
                let comm = ctx.comm_world();
                let mut nb = init(&pattern, &plan, ctx, &comm, 100, false);
                let input: Vec<f64> = nb.input_index().iter().map(|&i| i as f64).collect();
                let mut output = vec![f64::NAN; nb.output_index().len()];
                // a barrier between iterations keeps every channel at one
                // buffer in flight, so none grows its pool late; only the
                // iteration itself is counted
                let mut iterate = |n| {
                    let mut allocs = 0;
                    for _ in 0..n {
                        ctx.barrier(&comm);
                        let before = ALLOCS.with(Cell::get);
                        nb.start(ctx, &input);
                        nb.wait(ctx, &mut output);
                        allocs += ALLOCS.with(Cell::get) - before;
                    }
                    allocs
                };
                iterate(2);
                iterate(8)
            });
            assert_eq!(allocs, vec![0; 16], "{protocol}");
        }
    }

    #[test]
    fn test_on_an_inactive_request_is_a_noop_true() {
        // before the first start — and after an iteration completes — the
        // request is inactive: test must report done without touching any
        // receive (MPI_Test on an inactive persistent request)
        let pattern = CommPattern::example_2_1();
        let topo = Topology::block_nodes(8, 4);
        let plan = Protocol::FullNeighbor.plan(&pattern, &topo);
        for partitioned in BOTH_WIRES {
            let ok = World::run(8, |ctx| {
                let comm = ctx.comm_world();
                let mut nb = init(&pattern, &plan, ctx, &comm, 100, partitioned);
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
