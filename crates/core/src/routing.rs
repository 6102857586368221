//! Per-rank routing: the staging machinery behind the executor.
//!
//! A [`Plan`] is a *global* description of one collective. Before a rank
//! can post requests it must derive its local view: which buffers to
//! register, which tag each message uses, where each send-buffer slot gets
//! its value from, and where each received slot is delivered. That
//! derivation — the copy-map construction — lives here, so the executor
//! (`exec`) only moves the bytes and never decides what goes where.
//!
//! A copy map is a list of **maximal runs** ([`Run`], [`FwdRun`]), not one
//! entry per value: consecutive values whose source and destination
//! positions both advance by one are one run, found once here — at
//! resolution, before any channel is registered — and the executor moves a
//! run as one slice copy. A structured halo (a grid row, a block of a
//! fine-level boundary) is a single run per message, so its map is three
//! words and its gather a `memcpy`; an irregular coarse-level message is
//! runs of one to three values, which cost what per-value entries cost.
//! There is no other representation and nothing to configure.
//!
//! Inter-region (`g`) messages are laid out **origin-major**: the slots
//! contributed by each staging rank form one contiguous run, recorded in
//! [`GSendRoute::bounds`]. A g message ships as one message;
//! [`RankRouting::split_at_partitions`] turns each partition into a g
//! message of its own (what [`crate::Backend::Partitioned`] runs, the
//! paper's §5 combination). Both sides of a message derive the same
//! layout from the shared plan, so matching is deterministic. A run that
//! reads a g buffer never crosses a partition bound, so each lies in the
//! part of the buffer one partition delivers — which is what makes the
//! split exact.
//!
//! One intra-region message per pair and phase: an ℓ message rides as the
//! tail of its pair's first s message ([`SRecvRoute::outputs`]), or failing
//! that its first r message ([`RSendRoute::tail`]); the [`Plan`] is unchanged.
//!
//! There is one derivation: [`RankRouting::build_all`] derives **every**
//! rank's view in a single sweep of the plan — O(M + N) total. Each
//! message is visited once and contributes to its two endpoints; slot
//! positions resolve through a precomputed inverse-index table (global
//! index → input position) and binary searches over sorted ghost lists, not
//! per-rank hash maps. Every builder initializes through it, once per batch
//! entry ([`RankRouting::build_all_batch`]). Its reference is the test
//! oracle (`oracle::ValueMaps`), which re-derives each rank's messages,
//! tags, partitions, copy maps, staging links and rides value by value
//! from the plan (property-tested).

use crate::agg::{Plan, PlanMsg, SlotArena};
use crate::pattern::CommPattern;
use std::ops::Range;

/// Tag layout: `tag_base + step*4096 + seq`, where `seq` disambiguates
/// multiple messages between the same rank pair within a step (e.g. one s
/// message per region pair). Both sides derive `seq` from the shared plan
/// order, so matching is unambiguous.
pub const STEP_TAG_STRIDE: u64 = 4096;

/// Sub-tag layout of a split g message: partition `p` of the message on
/// `tag` travels on `tag + (p + 1) · PART_TAG_STRIDE`, above every step
/// tag of its span ([`crate::tagspace::SPAN`] holds 1023 partitions).
const PART_TAG_STRIDE: u64 = 1 << 20;

/// Step identifiers used in the tag layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Local = 0,
    S = 1,
    G = 2,
    R = 3,
}

/// Assign tags to a step's messages in shared plan order.
///
/// Step lists are sorted by `(src, dst)` — messages of one rank pair are
/// adjacent — so the per-pair sequence number is the position within the
/// current run; no per-call map is needed. The sortedness is a hard
/// precondition: unsorted input would silently assign one tag to several
/// same-pair messages, so it panics instead (one comparison per message,
/// already paid by the run detection).
pub fn msg_tags(msgs: &[PlanMsg], step: Step, tag_base: u64) -> Vec<u64> {
    let step_base = tag_base + (step as u64) * STEP_TAG_STRIDE;
    let mut tags = Vec::with_capacity(msgs.len());
    let mut seq = 0u64;
    for (i, m) in msgs.iter().enumerate() {
        if i > 0 && (msgs[i - 1].src, msgs[i - 1].dst) == (m.src, m.dst) {
            seq += 1;
        } else {
            assert!(
                i == 0 || (msgs[i - 1].src, msgs[i - 1].dst) < (m.src, m.dst),
                "step messages must be (src, dst)-sorted for tag assignment"
            );
            seq = 0;
        }
        tags.push(step_base + seq);
    }
    tags
}

/// One maximal run of a copy map: the `len` consecutive values at source
/// positions `from..from + len` land at destination positions
/// `to..to + len`. What "source" and "destination" index is stated where
/// the map is declared; a message buffer is always indexed by slot
/// position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub from: usize,
    pub to: usize,
    pub len: usize,
}

/// One maximal run of an r-step forward: the next `len` slots of the send
/// buffer are slots `pos..pos + len` of g receive `g_msg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FwdRun {
    /// Index into [`RankRouting::g_recvs`].
    pub g_msg: usize,
    pub pos: usize,
    pub len: usize,
}

/// Append one value to a copy map kept as maximal runs: a `(from, to)`
/// pair advancing both sides of the last run by one extends it, anything
/// else opens the next. `bounds` are the partition bounds of the g buffer
/// `from` indexes (empty for any other source): a run never continues
/// across one, so a run over a g buffer lies inside one partition.
fn push_run(out: &mut Vec<Run>, from: usize, to: usize, bounds: &[usize]) {
    match out.last_mut() {
        Some(r)
            if r.from + r.len == from
                && r.to + r.len == to
                && bounds.binary_search(&from).is_err() =>
        {
            r.len += 1
        }
        _ => out.push(Run { from, to, len: 1 }),
    }
}

/// A whole per-value copy map — `(from, to)` pairs in map order, not
/// reading a g buffer — as maximal runs.
fn runs(pairs: impl IntoIterator<Item = (usize, usize)>) -> Vec<Run> {
    let mut out = Vec::new();
    for (from, to) in pairs {
        push_run(&mut out, from, to, &[]);
    }
    out
}

/// Append `runs` to the copy map `out` with their `from` and `to` sides
/// shifted by `(df, dt)`, keeping `out`'s runs maximal.
fn append_shifted(out: &mut Vec<Run>, runs: &[Run], (df, dt): (usize, usize)) {
    for r in runs {
        push_run(out, r.from + df, r.to + dt, &[]);
        out.last_mut().expect("pushed").len += r.len - 1;
    }
}

/// The first of `routes` (sorted by `peer`) whose peer is `p`.
fn first<T>(routes: &mut [T], peer: impl Fn(&T) -> usize, p: usize) -> Option<&mut T> {
    let k = routes.partition_point(|x| peer(x) < p);
    routes.get_mut(k).filter(|x| peer(x) == p)
}

/// An r send's per-slot `(g receive, slot position)` sources, in slot
/// order, as maximal runs; like [`push_run`], none crosses a partition
/// bound of the g receive it reads.
fn fwd_runs(
    sources: impl IntoIterator<Item = (usize, usize)>,
    g_recvs: &[GRecvRoute],
) -> Vec<FwdRun> {
    let mut out: Vec<FwdRun> = Vec::new();
    for (g_msg, pos) in sources {
        match out.last_mut() {
            Some(r)
                if r.g_msg == g_msg
                    && r.pos + r.len == pos
                    && g_recvs[g_msg].bounds.binary_search(&pos).is_err() =>
            {
                r.len += 1
            }
            _ => out.push(FwdRun { g_msg, pos, len: 1 }),
        }
    }
    out
}

/// Where one partition of a `g` send gets its values from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartSource {
    /// This rank's own contribution: runs from input positions to
    /// positions within the partition.
    Input(Vec<Run>),
    /// The payload prefix of s receive `s_recv` ([`RankRouting::s_recvs`])
    /// as long as the partition, in order (staging ranks sort their s
    /// slots into the partition's slot order); a ridden ℓ tail follows it.
    Staged { s_recv: usize },
}

/// One origin's contiguous run inside a `g` send buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GPartRoute {
    pub origin: usize,
    /// Slot range of this partition within the send buffer.
    pub range: Range<usize>,
    pub source: PartSource,
}

/// A send whose slots all come straight from this rank's input
/// (`ℓ` and `s` steps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendRoute {
    pub dst: usize,
    pub tag: u64,
    pub len: usize,
    /// Runs from input positions to slot positions, in slot order; every
    /// slot is covered once.
    pub sources: Vec<Run>,
}

/// A receive delivered straight into the output vector (`ℓ`, `g`, `r`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvRoute {
    pub src: usize,
    pub tag: u64,
    pub len: usize,
    /// Runs from slot positions to output positions; every slot is
    /// covered once.
    pub outputs: Vec<Run>,
}

/// An inter-region send: origin-major buffer with partition bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GSendRoute {
    pub dst: usize,
    pub tag: u64,
    pub len: usize,
    /// Prefix offsets per partition (len = parts.len() + 1).
    pub bounds: Vec<usize>,
    pub parts: Vec<GPartRoute>,
}

/// An inter-region receive: origin-major buffer with partition bounds,
/// plus delivery and forwarding maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GRecvRoute {
    pub src: usize,
    pub tag: u64,
    pub len: usize,
    /// Prefix offsets per partition (mirrors the sender's bounds).
    pub bounds: Vec<usize>,
    /// Runs from slot positions to output positions, over the slots whose
    /// final destination is this rank; none crosses a partition bound.
    pub outputs: Vec<Run>,
}

/// An s-step receive at a sending leader, payload `[staged partition | ℓ
/// values]`: the prefix fills one partition of one `g` send, the one whose
/// source is [`PartSource::Staged`] naming it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SRecvRoute {
    pub src: usize,
    pub tag: u64,
    pub len: usize,
    /// Runs from ℓ tail slot positions to output positions (or none).
    pub outputs: Vec<Run>,
}

/// An r-step send at a receiving leader, payload `[forwards | ℓ values]`:
/// each forward is a received `g` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RSendRoute {
    pub dst: usize,
    pub tag: u64,
    pub len: usize,
    /// Runs of g receive slots, in slot order of this send.
    pub sources: Vec<FwdRun>,
    /// Runs from input positions to positions within the ℓ tail (or none).
    pub tail: Vec<Run>,
}

/// Everything one rank needs to register and drive its part of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankRouting {
    pub me: usize,
    /// Global indices whose values the caller provides to `start`, sorted.
    pub input_index: Vec<usize>,
    /// Global indices `wait` produces, sorted.
    pub output_index: Vec<usize>,
    pub local_sends: Vec<SendRoute>,
    pub local_recvs: Vec<RecvRoute>,
    pub s_sends: Vec<SendRoute>,
    pub s_recvs: Vec<SRecvRoute>,
    pub g_sends: Vec<GSendRoute>,
    pub g_recvs: Vec<GRecvRoute>,
    pub r_sends: Vec<RSendRoute>,
    pub r_recvs: Vec<RecvRoute>,
}

/// One g message's slots reordered origin-major, with partition bounds.
struct GLayout {
    /// Arena positions sorted by (origin, index, first final dst).
    order: Vec<usize>,
    /// Origins in ascending order, one partition each.
    origins: Vec<usize>,
    /// Prefix offsets per partition (len = origins.len() + 1).
    bounds: Vec<usize>,
}

fn g_layout(slots: &SlotArena, m: &PlanMsg) -> GLayout {
    let mut order: Vec<usize> = m.slots.clone().collect();
    // the key is unique per slot, so the unstable sort is deterministic
    order.sort_unstable_by_key(|&p| (slots.origin(p), slots.index(p), slots.final_dsts(p)[0]));
    let mut origins = Vec::new();
    let mut bounds = vec![0usize];
    for (i, &p) in order.iter().enumerate() {
        let o = slots.origin(p);
        if origins.last() != Some(&o) {
            if !origins.is_empty() {
                bounds.push(i);
            }
            origins.push(o);
        }
    }
    bounds.push(order.len());
    GLayout {
        order,
        origins,
        bounds,
    }
}

/// Sort an s message's slots to the per-origin order of the g partition.
fn s_order(slots: &SlotArena, m: &PlanMsg) -> Vec<usize> {
    let mut order: Vec<usize> = m.slots.clone().collect();
    order.sort_unstable_by_key(|&p| (slots.index(p), slots.final_dsts(p)[0]));
    order
}

/// `(sending leader, origin, first index, first fd)` of a g partition —
/// the key an s message resolves its partition through. Unique: an index
/// has one origin, and one first destination per region pair.
type PartKey = (usize, usize, usize, usize);
/// `(receiving leader, index, final dst)` — the key an r slot resolves its
/// delivered g value through.
type FwdKey = (usize, usize, usize);

impl RankRouting {
    /// Derive **every** rank's routing in one sweep of the plan; the
    /// result is indexed by rank.
    ///
    /// Every rank must see the *same* `pattern`/`plan` (deterministic
    /// planning makes this trivially true). `tag_base` isolates concurrent
    /// collectives on the same communicator; use a distinct base per
    /// persistent object (e.g. per AMG level). Each message is visited once
    /// and contributes routes to both of its endpoints, and each g layout
    /// is computed once for both, so the whole-world derivation is
    /// O(M + N) in the plan size M and rank count N.
    pub fn build_all(pattern: &CommPattern, plan: &Plan, tag_base: u64) -> Vec<RankRouting> {
        let n = plan.n_ranks;
        let inputs = pattern.all_src_indices();
        let inv = crate::pattern::InverseIndex::from_inputs(&inputs);
        let outputs = pattern.all_dst_indices();
        let out_pos = |rank: usize, i: usize| {
            outputs[rank]
                .binary_search(&i)
                .expect("slot index in the receiver's ghost set")
        };

        let mut routings: Vec<RankRouting> = (0..n)
            .map(|me| RankRouting {
                me,
                input_index: Vec::new(),
                output_index: Vec::new(),
                local_sends: Vec::new(),
                local_recvs: Vec::new(),
                s_sends: Vec::new(),
                s_recvs: Vec::new(),
                g_sends: Vec::new(),
                g_recvs: Vec::new(),
                r_sends: Vec::new(),
                r_recvs: Vec::new(),
            })
            .collect();

        // ℓ
        let local_tags = msg_tags(&plan.local, Step::Local, tag_base);
        for (m, &tag) in plan.local.iter().zip(&local_tags) {
            routings[m.src].local_sends.push(SendRoute {
                dst: m.dst,
                tag,
                len: m.n_values(),
                sources: runs(
                    plan.local_slots
                        .iter_range(m.slots.clone())
                        .enumerate()
                        .map(|(p, sl)| (inv.input_pos(sl.index), p)),
                ),
            });
            routings[m.dst].local_recvs.push(RecvRoute {
                src: m.src,
                tag,
                len: m.n_values(),
                outputs: runs(
                    plan.local_slots
                        .iter_range(m.slots.clone())
                        .enumerate()
                        .map(|(p, sl)| (p, out_pos(m.dst, sl.index))),
                ),
            });
        }

        // g: one shared layout per message feeds both endpoints.
        let mut part_of: Vec<(PartKey, (usize, usize))> = Vec::new();
        let mut fwd: Vec<(FwdKey, (usize, usize))> = Vec::new();
        let g_tags = msg_tags(&plan.g_step, Step::G, tag_base);
        for (m, &tag) in plan.g_step.iter().zip(&g_tags) {
            let layout = g_layout(&plan.g_slots, m);

            let g_send_idx = routings[m.src].g_sends.len();
            let parts = layout
                .origins
                .iter()
                .enumerate()
                .map(|(p, &origin)| {
                    let range = layout.bounds[p]..layout.bounds[p + 1];
                    let source = if origin == m.src {
                        PartSource::Input(runs(range.clone().map(|slot| {
                            let i = plan.g_slots.index(layout.order[slot]);
                            (inv.input_pos(i), slot - range.start)
                        })))
                    } else {
                        let first = plan.g_slots.get(layout.order[range.start]);
                        part_of.push((
                            (m.src, origin, first.index, first.final_dsts[0]),
                            (g_send_idx, p),
                        ));
                        PartSource::Staged { s_recv: usize::MAX }
                    };
                    GPartRoute {
                        origin,
                        range,
                        source,
                    }
                })
                .collect();
            routings[m.src].g_sends.push(GSendRoute {
                dst: m.dst,
                tag,
                len: layout.order.len(),
                bounds: layout.bounds.clone(),
                parts,
            });

            let g_recv_idx = routings[m.dst].g_recvs.len();
            let mut outs = Vec::new();
            for (pos, &ap) in layout.order.iter().enumerate() {
                let sl = plan.g_slots.get(ap);
                for &fd in sl.final_dsts {
                    if fd == m.dst {
                        push_run(&mut outs, pos, out_pos(m.dst, sl.index), &layout.bounds);
                    } else {
                        fwd.push(((m.dst, sl.index, fd), (g_recv_idx, pos)));
                    }
                }
            }
            routings[m.dst].g_recvs.push(GRecvRoute {
                src: m.src,
                tag,
                len: layout.order.len(),
                bounds: layout.bounds,
                outputs: outs,
            });
        }
        part_of.sort_unstable();
        fwd.sort_unstable();

        // s
        let s_tags = msg_tags(&plan.s_step, Step::S, tag_base);
        for (m, &tag) in plan.s_step.iter().zip(&s_tags) {
            let order = s_order(&plan.s_slots, m);
            routings[m.src].s_sends.push(SendRoute {
                dst: m.dst,
                tag,
                len: order.len(),
                sources: runs(
                    order
                        .iter()
                        .enumerate()
                        .map(|(p, &ap)| (inv.input_pos(plan.s_slots.index(ap)), p)),
                ),
            });
            let first = plan.s_slots.get(order[0]);
            let key: PartKey = (m.dst, m.src, first.index, first.final_dsts[0]);
            let k = part_of
                .binary_search_by_key(&key, |e| e.0)
                .expect("staging message matches a g partition");
            let (g_send, partition) = part_of[k].1;
            let leader = &mut routings[m.dst];
            let part = &mut leader.g_sends[g_send].parts[partition];
            assert_eq!(
                part.range.len(),
                order.len(),
                "staging/partition length mismatch"
            );
            part.source = PartSource::Staged {
                s_recv: leader.s_recvs.len(),
            };
            leader.s_recvs.push(SRecvRoute {
                src: m.src,
                tag,
                len: order.len(),
                outputs: Vec::new(),
            });
        }
        for r in &routings {
            for g in &r.g_sends {
                for part in &g.parts {
                    assert_ne!(
                        part.source,
                        PartSource::Staged { s_recv: usize::MAX },
                        "rank {}: partition from origin {} never staged",
                        r.me,
                        part.origin
                    );
                }
            }
        }

        // r
        let r_tags = msg_tags(&plan.r_step, Step::R, tag_base);
        for (m, &tag) in plan.r_step.iter().zip(&r_tags) {
            let sources = fwd_runs(
                plan.r_slots.iter_range(m.slots.clone()).map(|sl| {
                    let key: FwdKey = (m.src, sl.index, m.dst);
                    let k = fwd
                        .binary_search_by_key(&key, |e| e.0)
                        .expect("forwarded value was delivered by a g receive");
                    fwd[k].1
                }),
                &routings[m.src].g_recvs,
            );
            routings[m.src].r_sends.push(RSendRoute {
                dst: m.dst,
                tag,
                len: m.n_values(),
                sources,
                tail: Vec::new(),
            });
            routings[m.dst].r_recvs.push(RecvRoute {
                src: m.src,
                tag,
                len: m.n_values(),
                outputs: runs(
                    plan.r_slots
                        .iter_range(m.slots.clone())
                        .enumerate()
                        .map(|(p, sl)| (p, out_pos(m.dst, sl.index))),
                ),
            });
        }

        // ℓ rides, a post-pass: an ℓ message joins its pair's first s (else r)
        // message as a tail; each endpoint decides from its own routes.
        for r in &mut routings {
            r.local_sends.retain_mut(|l| {
                if let Some(s) = first(&mut r.s_sends, |s| s.dst, l.dst) {
                    append_shifted(&mut s.sources, &l.sources, (0, s.len));
                    s.len += l.len;
                } else if let Some(s) = first(&mut r.r_sends, |s| s.dst, l.dst) {
                    (s.tail, s.len) = (std::mem::take(&mut l.sources), s.len + l.len);
                } else {
                    return true;
                }
                false
            });
            r.local_recvs.retain(|l| {
                let (outputs, len) = if let Some(x) = first(&mut r.s_recvs, |x| x.src, l.src) {
                    (&mut x.outputs, &mut x.len)
                } else if let Some(x) = first(&mut r.r_recvs, |x| x.src, l.src) {
                    (&mut x.outputs, &mut x.len)
                } else {
                    return true;
                };
                append_shifted(outputs, &l.outputs, (*len, 0));
                *len += l.len;
                false
            });
        }

        for (r, (ii, oi)) in routings.iter_mut().zip(inputs.into_iter().zip(outputs)) {
            r.input_index = ii;
            r.output_index = oi;
        }
        routings
    }

    /// This routing with every g message split at its partition bounds —
    /// what [`crate::Backend::Partitioned`] runs. Partition `p` of a g
    /// message becomes a g message of its own on the sub-tag `tag + (p + 1)
    /// · 2²⁰`, in message-then-partition order, and every run over a g
    /// buffer is rebased into the message holding it. A partition keeps its
    /// source, so the s receives are untouched: a staged partition still
    /// names the receive that fills it. Exact because no run over a g
    /// buffer crosses a partition bound, and both endpoints split the same
    /// layout, so they agree on every sub-tag and length.
    pub fn split_at_partitions(self) -> Self {
        let split_tag = |tag: u64, p: usize| {
            let sub = (p as u64 + 1) * PART_TAG_STRIDE;
            assert!(
                sub < crate::tagspace::SPAN,
                "partition {p} overflows its tag span"
            );
            tag + sub
        };
        // the first split message of each g receive
        let recv_first: Vec<usize> = (self.g_recvs.iter())
            .scan(0, |next, g| {
                let first = *next;
                *next += g.bounds.len() - 1;
                Some(first)
            })
            .collect();

        let g_sends = self
            .g_sends
            .into_iter()
            .flat_map(|g| {
                let (dst, tag) = (g.dst, g.tag);
                g.parts.into_iter().enumerate().map(move |(p, part)| {
                    let len = part.range.len();
                    GSendRoute {
                        dst,
                        tag: split_tag(tag, p),
                        len,
                        bounds: vec![0, len],
                        parts: vec![GPartRoute {
                            origin: part.origin,
                            range: 0..len,
                            source: part.source,
                        }],
                    }
                })
            })
            .collect();
        // the receive's outputs are in slot order, so each partition's
        // runs are one contiguous stretch of them
        let g_recvs = self
            .g_recvs
            .iter()
            .flat_map(|g| {
                g.bounds.windows(2).enumerate().map(move |(p, w)| {
                    let (lo, hi) = (w[0], w[1]);
                    let first = g.outputs.partition_point(|r| r.from < lo);
                    let end = g.outputs.partition_point(|r| r.from < hi);
                    GRecvRoute {
                        src: g.src,
                        tag: split_tag(g.tag, p),
                        len: hi - lo,
                        bounds: vec![0, hi - lo],
                        outputs: g.outputs[first..end]
                            .iter()
                            .map(|r| Run {
                                from: r.from - lo,
                                ..*r
                            })
                            .collect(),
                    }
                })
            })
            .collect();
        let r_sends = self
            .r_sends
            .into_iter()
            .map(|s| RSendRoute {
                sources: s
                    .sources
                    .into_iter()
                    .map(|f| {
                        let bounds = &self.g_recvs[f.g_msg].bounds;
                        let p = bounds.partition_point(|&b| b <= f.pos) - 1;
                        FwdRun {
                            g_msg: recv_first[f.g_msg] + p,
                            pos: f.pos - bounds[p],
                            len: f.len,
                        }
                    })
                    .collect(),
                ..s
            })
            .collect();
        Self {
            g_sends,
            g_recvs,
            r_sends,
            ..self
        }
    }
}

/// One entry of a batch routing sweep: a pattern, its resolved plan and
/// the tag base carved for it.
pub struct BatchEntryPlan<'a> {
    pub pattern: &'a CommPattern,
    pub plan: &'a Plan,
    pub tag_base: u64,
    /// Has no effect: no code reads it. It stays only because the
    /// benchmark under `perfbench/` builds this struct by literal; ROADMAP
    /// item 1A(e) deletes it.
    pub shared_arena: bool,
}

impl RankRouting {
    /// Derive every rank's routing for **every** entry of a batch in one
    /// fused sweep: each entry's plan is walked once (the
    /// [`RankRouting::build_all`] single-pass derivation) and the results
    /// are transposed per rank — `out[rank][e]` is `rank`'s routing for
    /// entry `e`. Total work is O(ΣMᵢ + E·N) over E entries with plan
    /// sizes Mᵢ on N ranks.
    pub fn build_all_batch(entries: &[BatchEntryPlan]) -> Vec<Vec<RankRouting>> {
        let n = match entries.first() {
            Some(e) => e.plan.n_ranks,
            None => return Vec::new(),
        };
        let mut out: Vec<Vec<RankRouting>> =
            (0..n).map(|_| Vec::with_capacity(entries.len())).collect();
        for e in entries {
            assert_eq!(e.plan.n_ranks, n, "batch entries must share a rank count");
            let routings = Self::build_all(e.pattern, e.plan, e.tag_base);
            for (per_rank, routing) in out.iter_mut().zip(routings) {
                per_rank.push(routing);
            }
        }
        out
    }
}

/// Every rank's routing re-derived from the plan value by value, one rank
/// at a time — the reference [`RankRouting::build_all`] is tested
/// against. It shares no lookup with the sweep: a tag counts the earlier
/// messages of its step between the same pair, partition bounds count the
/// slots of each origin, a staged partition finds the s receive that
/// fills it by slot content, and an ℓ message finds the s or r message it
/// rides by scanning the step lists for the pair's first.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use std::collections::BTreeMap;

    /// A message's `(peer, tag, len)`: the peer is a send's destination and
    /// a receive's source.
    pub(crate) type Head = (usize, u64, usize);
    /// `(position, position)` pairs of a per-value map.
    pub(crate) type Pairs = Vec<(usize, usize)>;
    /// A g partition's origin, slot range and source.
    pub(crate) type Part = (usize, Range<usize>, PartMap);

    /// Where a g partition's values come from: the input position feeding
    /// each slot, or the s receive that fills it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) enum PartMap {
        Input(Vec<usize>),
        Staged(usize),
    }

    /// The sorted `(index, first final dst)` of arena positions `ps`: what
    /// identifies a g partition and the s message that fills it.
    fn content(slots: &SlotArena, ps: impl Iterator<Item = usize>) -> Vec<(usize, usize)> {
        let mut c: Vec<_> = ps
            .map(|p| (slots.index(p), slots.final_dsts(p)[0]))
            .collect();
        c.sort_unstable();
        c
    }

    /// One rank's routing with one entry per value, message by message in
    /// routing order, each message with its [`Head`].
    #[derive(Debug, Default, PartialEq, Eq)]
    pub(crate) struct ValueMaps {
        pub input_index: Vec<usize>,
        pub output_index: Vec<usize>,
        /// Input position feeding each slot, per ℓ / s send.
        pub local_sends: Vec<(Head, Vec<usize>)>,
        pub s_sends: Vec<(Head, Vec<usize>)>,
        /// `(slot position, output position)` pairs of the ridden ℓ tail,
        /// per s receive.
        pub s_recvs: Vec<(Head, Pairs)>,
        /// `(slot position, output position)` pairs, per ℓ / r receive.
        pub local_recvs: Vec<(Head, Pairs)>,
        pub r_recvs: Vec<(Head, Pairs)>,
        /// Per g send, its partition bounds and each partition's origin,
        /// slot range and source.
        pub g_sends: Vec<(Head, Vec<usize>, Vec<Part>)>,
        /// Per g receive, its partition bounds and `(slot position, output
        /// position)` pairs.
        pub g_recvs: Vec<(Head, Vec<usize>, Pairs)>,
        /// `(g receive, slot position)` feeding each forward slot, and the
        /// input position feeding each slot of the ridden ℓ tail, per r
        /// send.
        pub r_sends: Vec<(Head, Pairs, Vec<usize>)>,
    }

    impl ValueMaps {
        /// Rank `me`'s maps, value by value from the plan.
        pub(crate) fn derive(pattern: &CommPattern, plan: &Plan, me: usize, tag_base: u64) -> Self {
            let input_index = pattern.src_indices(me);
            let output_index = pattern.dst_indices(me);
            let in_pos = |i: usize| input_index.binary_search(&i).unwrap();
            let out_pos = |i: usize| output_index.binary_search(&i).unwrap();
            let delivered = |slots: &SlotArena, m: &PlanMsg| -> Pairs {
                slots
                    .iter_range(m.slots.clone())
                    .enumerate()
                    .map(|(p, sl)| (p, out_pos(sl.index)))
                    .collect()
            };
            // the send and receive heads of message `i` of a step; its
            // sequence number counts the step's earlier same-pair messages
            let heads = |msgs: &[PlanMsg], i: usize, step: Step| -> (Head, Head) {
                let m = &msgs[i];
                let seq = msgs[..i]
                    .iter()
                    .filter(|x| (x.src, x.dst) == (m.src, m.dst))
                    .count();
                let tag = tag_base + step as u64 * STEP_TAG_STRIDE + seq as u64;
                ((m.dst, tag, m.n_values()), (m.src, tag, m.n_values()))
            };
            let pair = |m: &PlanMsg| (m.src, m.dst);
            let ell = |m: &PlanMsg| plan.local.iter().find(|l| pair(l) == pair(m));
            // the ℓ message riding message `i` of a step: the pair's, if
            // `i` is the pair's first message of the step and no earlier
            // step of s and r carries it
            let rider = |msgs: &[PlanMsg], i: usize, earlier: &[PlanMsg]| {
                let m = &msgs[i];
                let first = msgs.iter().position(|x| pair(x) == pair(m)) == Some(i);
                ell(m).filter(|_| first && !earlier.iter().any(|x| pair(x) == pair(m)))
            };
            let ell_inputs = |l: Option<&PlanMsg>| -> Vec<usize> {
                l.map_or(Vec::new(), |l| {
                    let slots = plan.local_slots.iter_range(l.slots.clone());
                    slots.map(|sl| in_pos(sl.index)).collect()
                })
            };
            // the ridden tail's `(slot position, output position)` pairs,
            // after the `at` slots of the message it rides
            let ell_outputs = |l: Option<&PlanMsg>, at: usize| -> Pairs {
                l.map_or(Vec::new(), |l| {
                    let tail = delivered(&plan.local_slots, l).into_iter();
                    tail.map(|(p, o)| (at + p, o)).collect()
                })
            };
            let ridden_len = |l: Option<&PlanMsg>| l.map_or(0, PlanMsg::n_values);
            let mut v = Self {
                input_index: input_index.clone(),
                output_index: output_index.clone(),
                ..Self::default()
            };
            for (i, m) in plan.local.iter().enumerate() {
                if plan
                    .s_step
                    .iter()
                    .chain(&plan.r_step)
                    .any(|x| pair(x) == pair(m))
                {
                    continue; // it rides
                }
                let (send, recv) = heads(&plan.local, i, Step::Local);
                if m.src == me {
                    let slots = plan.local_slots.iter_range(m.slots.clone());
                    v.local_sends
                        .push((send, slots.map(|sl| in_pos(sl.index)).collect()));
                }
                if m.dst == me {
                    v.local_recvs.push((recv, delivered(&plan.local_slots, m)));
                }
            }
            // the slot content of each s message this rank receives
            let mut staged = Vec::new();
            for (i, m) in plan.s_step.iter().enumerate() {
                let (mut send, mut recv) = heads(&plan.s_step, i, Step::S);
                let l = rider(&plan.s_step, i, &[]);
                send.2 += ridden_len(l);
                recv.2 += ridden_len(l);
                if m.src == me {
                    let order = s_order(&plan.s_slots, m);
                    let inputs = order.iter().map(|&ap| in_pos(plan.s_slots.index(ap)));
                    v.s_sends
                        .push((send, inputs.chain(ell_inputs(l)).collect()));
                }
                if m.dst == me {
                    v.s_recvs.push((recv, ell_outputs(l, m.n_values())));
                    staged.push(content(&plan.s_slots, m.slots.clone()));
                }
            }
            // (index, final dst) → (g receive, slot position)
            let mut fwd: Vec<((usize, usize), (usize, usize))> = Vec::new();
            for (i, m) in plan.g_step.iter().enumerate() {
                if m.src != me && m.dst != me {
                    continue;
                }
                let (send, recv) = heads(&plan.g_step, i, Step::G);
                let order = g_layout(&plan.g_slots, m).order;
                // one partition per origin, in ascending origin order
                let mut per_origin: BTreeMap<usize, usize> = BTreeMap::new();
                for &ap in &order {
                    *per_origin.entry(plan.g_slots.origin(ap)).or_default() += 1;
                }
                let mut bounds = vec![0];
                for k in per_origin.values() {
                    bounds.push(bounds.last().unwrap() + k);
                }
                if m.src == me {
                    let parts = per_origin.keys().enumerate().map(|(p, &origin)| {
                        let range = bounds[p]..bounds[p + 1];
                        let slots = &order[range.clone()];
                        let source = if origin == me {
                            let inputs = slots.iter().map(|&ap| in_pos(plan.g_slots.index(ap)));
                            PartMap::Input(inputs.collect())
                        } else {
                            let want = content(&plan.g_slots, slots.iter().copied());
                            let s = staged.iter().position(|c| *c == want);
                            PartMap::Staged(s.expect("an s message carries the partition"))
                        };
                        (origin, range, source)
                    });
                    v.g_sends.push((send, bounds.clone(), parts.collect()));
                }
                if m.dst == me {
                    let mut outputs = Vec::new();
                    for (pos, &ap) in order.iter().enumerate() {
                        let sl = plan.g_slots.get(ap);
                        for &fd in sl.final_dsts {
                            if fd == me {
                                outputs.push((pos, out_pos(sl.index)));
                            } else {
                                fwd.push(((sl.index, fd), (v.g_recvs.len(), pos)));
                            }
                        }
                    }
                    v.g_recvs.push((recv, bounds, outputs));
                }
            }
            fwd.sort_unstable();
            for (i, m) in plan.r_step.iter().enumerate() {
                let (mut send, mut recv) = heads(&plan.r_step, i, Step::R);
                let l = rider(&plan.r_step, i, &plan.s_step);
                send.2 += ridden_len(l);
                recv.2 += ridden_len(l);
                if m.src == me {
                    let sources = plan.r_slots.iter_range(m.slots.clone()).map(|sl| {
                        let k = fwd
                            .binary_search_by_key(&(sl.index, m.dst), |e| e.0)
                            .unwrap();
                        fwd[k].1
                    });
                    v.r_sends.push((send, sources.collect(), ell_inputs(l)));
                }
                if m.dst == me {
                    let mut outputs = delivered(&plan.r_slots, m);
                    outputs.extend(ell_outputs(l, m.n_values()));
                    v.r_recvs.push((recv, outputs));
                }
            }
            v
        }

        /// The same maps read back out of a routing's runs.
        pub(crate) fn expand(r: &RankRouting) -> Self {
            let froms = |runs: &[Run]| -> Vec<usize> {
                runs.iter().flat_map(|r| r.from..r.from + r.len).collect()
            };
            let pairs = |runs: &[Run]| -> Pairs {
                runs.iter()
                    .flat_map(|r| (0..r.len).map(move |k| (r.from + k, r.to + k)))
                    .collect()
            };
            let sends = |sends: &[SendRoute]| -> Vec<(Head, Vec<usize>)> {
                (sends.iter())
                    .map(|s| ((s.dst, s.tag, s.len), froms(&s.sources)))
                    .collect()
            };
            let recvs = |recvs: &[RecvRoute]| -> Vec<(Head, Pairs)> {
                (recvs.iter())
                    .map(|x| ((x.src, x.tag, x.len), pairs(&x.outputs)))
                    .collect()
            };
            let part = |part: &GPartRoute| {
                let source = match &part.source {
                    PartSource::Input(runs) => PartMap::Input(froms(runs)),
                    PartSource::Staged { s_recv } => PartMap::Staged(*s_recv),
                };
                (part.origin, part.range.clone(), source)
            };
            Self {
                input_index: r.input_index.clone(),
                output_index: r.output_index.clone(),
                local_sends: sends(&r.local_sends),
                s_sends: sends(&r.s_sends),
                s_recvs: (r.s_recvs.iter())
                    .map(|s| ((s.src, s.tag, s.len), pairs(&s.outputs)))
                    .collect(),
                local_recvs: recvs(&r.local_recvs),
                r_recvs: recvs(&r.r_recvs),
                g_sends: (r.g_sends.iter())
                    .map(|g| {
                        let parts = g.parts.iter().map(part).collect();
                        ((g.dst, g.tag, g.len), g.bounds.clone(), parts)
                    })
                    .collect(),
                g_recvs: (r.g_recvs.iter())
                    .map(|g| ((g.src, g.tag, g.len), g.bounds.clone(), pairs(&g.outputs)))
                    .collect(),
                r_sends: (r.r_sends.iter())
                    .map(|s| {
                        let sources = s.sources.iter();
                        let slots =
                            sources.flat_map(|f| (f.pos..f.pos + f.len).map(|pos| (f.g_msg, pos)));
                        ((s.dst, s.tag, s.len), slots.collect(), froms(&s.tail))
                    })
                    .collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AssignStrategy;
    use locality::Topology;

    fn example() -> (CommPattern, Topology) {
        (CommPattern::example_2_1(), Topology::block_nodes(8, 4))
    }

    #[test]
    fn g_layout_origin_major() {
        let mut slots = SlotArena::new();
        slots.push(9, 2, [4]);
        slots.push(1, 0, [5]);
        slots.push(5, 2, [6]);
        slots.push(3, 1, [4]);
        let m = PlanMsg {
            src: 0,
            dst: 4,
            slots: 0..4,
        };
        let l = g_layout(&slots, &m);
        assert_eq!(l.origins, vec![0, 1, 2]);
        assert_eq!(l.bounds, vec![0, 1, 2, 4]);
        assert_eq!(slots.index(l.order[2]), 5); // origin 2 sorted by index
        assert_eq!(slots.index(l.order[3]), 9);
    }

    #[test]
    fn tags_disambiguate_same_pair_messages() {
        let msg = |src, dst| PlanMsg {
            src,
            dst,
            slots: 0..1,
        };
        let msgs = vec![msg(0, 1), msg(0, 1), msg(2, 1)];
        let tags = msg_tags(&msgs, Step::S, 100);
        assert_eq!(tags[0], 100 + STEP_TAG_STRIDE);
        assert_eq!(tags[1], 100 + STEP_TAG_STRIDE + 1);
        assert_eq!(tags[2], 100 + STEP_TAG_STRIDE);
    }

    #[test]
    #[should_panic(expected = "sorted for tag assignment")]
    fn unsorted_messages_rejected_by_tagging() {
        let msg = |src, dst| PlanMsg {
            src,
            dst,
            slots: 0..1,
        };
        // same-pair messages separated by another pair would alias tags
        msg_tags(&[msg(0, 1), msg(2, 1), msg(0, 1)], Step::S, 0);
    }

    #[test]
    fn standard_plan_routes_have_no_staging() {
        let (pattern, topo) = example();
        let plan = Plan::standard(&pattern, &topo);
        for (me, r) in RankRouting::build_all(&pattern, &plan, 0)
            .iter()
            .enumerate()
        {
            assert!(r.s_sends.is_empty() && r.s_recvs.is_empty());
            assert!(r.r_sends.is_empty() && r.r_recvs.is_empty());
            for g in &r.g_sends {
                assert_eq!(g.parts.len(), 1, "standard g messages have one origin");
                assert_eq!(g.parts[0].origin, me);
            }
        }
    }

    #[test]
    fn aggregated_routing_is_consistent_across_ranks() {
        let (pattern, topo) = example();
        let plan = Plan::aggregated(&pattern, &topo, true, AssignStrategy::LoadBalanced);
        let routings = RankRouting::build_all(&pattern, &plan, 0);
        // every send matches a receive with the same tag and length
        for r in &routings {
            for s in &r.s_sends {
                let peer = &routings[s.dst];
                let m = peer
                    .s_recvs
                    .iter()
                    .find(|x| x.src == r.me && x.tag == s.tag)
                    .expect("matching s recv");
                assert_eq!(m.len, s.len);
            }
            for g in &r.g_sends {
                let peer = &routings[g.dst];
                let m = peer
                    .g_recvs
                    .iter()
                    .find(|x| x.src == r.me && x.tag == g.tag)
                    .expect("matching g recv");
                assert_eq!(m.len, g.len);
                assert_eq!(m.bounds, g.bounds);
            }
            for s in &r.r_sends {
                assert!(s.len > 0);
            }
        }
    }

    #[test]
    fn batch_sweep_matches_independent_build_all() {
        let (pattern, topo) = example();
        let plan_a = Plan::aggregated(&pattern, &topo, true, AssignStrategy::LoadBalanced);
        let plan_b = Plan::standard(&pattern, &topo);
        let batch = RankRouting::build_all_batch(&[
            BatchEntryPlan {
                pattern: &pattern,
                plan: &plan_a,
                tag_base: 1 << 30,
                shared_arena: true,
            },
            BatchEntryPlan {
                pattern: &pattern,
                plan: &plan_b,
                tag_base: 2 << 30,
                shared_arena: true,
            },
            BatchEntryPlan {
                pattern: &pattern,
                plan: &plan_a,
                tag_base: 3 << 30,
                shared_arena: false,
            },
        ]);
        let a = RankRouting::build_all(&pattern, &plan_a, 1 << 30);
        let b = RankRouting::build_all(&pattern, &plan_b, 2 << 30);
        let c = RankRouting::build_all(&pattern, &plan_a, 3 << 30);
        assert_eq!(batch.len(), 8);
        for (rank, br) in batch.iter().enumerate() {
            // per-entry routings identical to independent sweeps
            assert_eq!(br[0], a[rank]);
            assert_eq!(br[1], b[rank]);
            assert_eq!(br[2], c[rank]);
        }
    }

    #[test]
    fn block_row_stencil_messages_are_single_runs() {
        // a 2-D stencil split by block rows: every neighbour wants one
        // whole grid row, consecutive in the sender's input and in the
        // receiver's ghosts — each message (each partition of an
        // aggregated one) is one run, however the plan routes it
        use crate::collective::Protocol;
        use sparse::gen::laplace::laplace_2d_9pt;
        use sparse::{build_comm_pkgs, Partition};
        let (nx, ny, n) = (24, 16, 8);
        let a = laplace_2d_9pt(nx, ny);
        let part = Partition::block(nx * ny, n);
        let pattern = CommPattern::from_comm_pkgs(&build_comm_pkgs(&a, &part));
        let topo = Topology::block_nodes(n, 4);
        for protocol in Protocol::ALL {
            let plan = protocol.plan(&pattern, &topo);
            for r in RankRouting::build_all(&pattern, &plan, 0) {
                for s in r.local_sends.iter().chain(&r.s_sends) {
                    assert_eq!((s.sources.len(), s.len), (1, nx), "{protocol}: {s:?}");
                }
                for x in r.local_recvs.iter().chain(&r.r_recvs) {
                    assert_eq!((x.outputs.len(), x.len), (1, nx), "{protocol}: {x:?}");
                }
                for part in r.g_sends.iter().flat_map(|g| &g.parts) {
                    if let PartSource::Input(runs) = &part.source {
                        assert_eq!((runs.len(), part.range.len()), (1, nx), "{protocol}");
                    }
                }
                for g in &r.g_recvs {
                    assert!(g.outputs.len() <= 1, "{protocol}: {g:?}");
                }
                for s in &r.r_sends {
                    assert_eq!((s.sources.len(), s.len), (1, nx), "{protocol}: {s:?}");
                }
            }
        }
    }

    #[test]
    fn staged_partitions_resolve_to_s_recvs() {
        let (pattern, topo) = example();
        let plan = Plan::aggregated(&pattern, &topo, false, AssignStrategy::RoundRobin);
        let leader = plan.g_step[0].src;
        let r = &RankRouting::build_all(&pattern, &plan, 7)[leader];
        assert_eq!(r.g_sends.len(), 1);
        let staged: Vec<usize> = r.g_sends[0]
            .parts
            .iter()
            .filter_map(|p| match p.source {
                PartSource::Staged { s_recv } => Some(s_recv),
                PartSource::Input(_) => None,
            })
            .collect();
        // every s receive fills exactly one distinct partition
        let mut sorted = staged.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), staged.len());
        assert_eq!(staged.len(), r.s_recvs.len());
    }
}
