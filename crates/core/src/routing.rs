//! Per-rank routing: the staging machinery shared by both wires of the
//! executor.
//!
//! A [`Plan`] is a *global* description of one collective. Before a rank
//! can post requests it must derive its local view: which buffers to
//! register, which tag each message uses, where each send-buffer slot gets
//! its value from, and where each received slot is delivered. That
//! derivation — the copy-map construction — is identical for both wires
//! of the executor (`exec`, plain persistent or partitioned g messages);
//! it lives here so the wires only differ in *how* they move the bytes,
//! not in how they decide what goes where.
//!
//! Inter-region (`g`) messages are laid out **origin-major**: the slots
//! contributed by each staging rank form one contiguous run, recorded in
//! [`GSendRoute::bounds`]. The plain wire ignores the bounds and ships
//! the buffer as a single message; the partitioned wire registers one
//! partition per run and injects each as its staging message is received
//! (`MPI_Pready`-style, the paper's §5 combination). Both sides of a
//! message derive the same layout from the shared plan, so matching is
//! deterministic.
//!
//! Two construction paths exist:
//!
//! * [`RankRouting::build`] derives one rank's view by scanning the plan —
//!   O(plan) per rank, so initializing a whole world this way is O(N·M).
//! * [`RankRouting::build_all`] derives **every** rank's view in a single
//!   sweep of the plan — O(M + N) total. Each message is visited once and
//!   contributes to its two endpoints; slot positions resolve through a
//!   precomputed inverse-index table (global index → input position) and
//!   binary searches over sorted ghost lists, not per-rank hash maps. The
//!   unified [`crate::NeighborAlltoallv`] builder initializes through this
//!   path. Both paths produce identical routings (property-tested).

use crate::agg::{Plan, PlanMsg, SlotArena};
use crate::pattern::CommPattern;
use std::ops::Range;

/// Tag layout: `tag_base + step*4096 + seq`, where `seq` disambiguates
/// multiple messages between the same rank pair within a step (e.g. one s
/// message per region pair). Both sides derive `seq` from the shared plan
/// order, so matching is unambiguous.
pub const STEP_TAG_STRIDE: u64 = 4096;

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

/// Where one partition of a `g` send gets its values from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartSource {
    /// This rank's own contribution: `input[p]` for each listed position.
    Input(Vec<usize>),
    /// The whole buffer of the `idx`-th s-step receive, in order (staging
    /// ranks sort their s slots into the partition's slot order).
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
    /// Input position feeding each slot.
    pub sources: Vec<usize>,
}

/// A receive delivered straight into the output vector (`ℓ`, `g`, `r`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvRoute {
    pub src: usize,
    pub tag: u64,
    pub len: usize,
    /// `(slot position, output position)` pairs delivered here.
    pub outputs: Vec<(usize, usize)>,
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
    /// Slots whose final destination is this rank.
    pub outputs: Vec<(usize, usize)>,
}

/// An s-step receive at a sending leader: it fills exactly one partition
/// of one `g` send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SRecvRoute {
    pub src: usize,
    pub tag: u64,
    pub len: usize,
    /// Index into [`RankRouting::g_sends`].
    pub g_send: usize,
    /// Partition of that send this staging message fills.
    pub partition: usize,
}

/// An r-step send at a receiving leader: each slot forwards a received
/// `g` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RSendRoute {
    pub dst: usize,
    pub tag: u64,
    /// `(g receive index, slot position)` feeding each slot.
    pub sources: Vec<(usize, usize)>,
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
    /// Build rank `me`'s routing for `plan`. Every rank must construct the
    /// *same* `pattern`/`plan` (deterministic planning makes this trivially
    /// true). `tag_base` isolates concurrent collectives on the same
    /// communicator; use a distinct base per persistent object (e.g. per
    /// AMG level).
    ///
    /// This scans the whole plan for one rank; when every rank's routing is
    /// needed, [`RankRouting::build_all`] derives all of them in a single
    /// sweep instead.
    pub fn build(pattern: &CommPattern, plan: &Plan, me: usize, tag_base: u64) -> Self {
        let input_index = pattern.src_indices(me);
        let output_index = pattern.dst_indices(me);
        // every input-position lookup is for a slot this rank owns, so its
        // own sorted input list is the whole search space — no global
        // inverse index needed on the per-rank path
        let in_pos = |i: usize| {
            input_index
                .binary_search(&i)
                .expect("slot index in this rank's input set")
        };
        let out_pos = |i: usize| {
            output_index
                .binary_search(&i)
                .expect("slot index in this rank's ghost set")
        };

        // ℓ step: direct sends from input to output.
        let mut local_sends = Vec::new();
        let mut local_recvs = Vec::new();
        let local_tags = msg_tags(&plan.local, Step::Local, tag_base);
        for (m, &tag) in plan.local.iter().zip(&local_tags) {
            if m.src == me {
                local_sends.push(SendRoute {
                    dst: m.dst,
                    tag,
                    sources: plan
                        .local_slots
                        .iter_range(m.slots.clone())
                        .map(|sl| in_pos(sl.index))
                        .collect(),
                });
            }
            if m.dst == me {
                local_recvs.push(RecvRoute {
                    src: m.src,
                    tag,
                    len: m.n_values(),
                    outputs: plan
                        .local_slots
                        .iter_range(m.slots.clone())
                        .enumerate()
                        .map(|(p, sl)| (p, out_pos(sl.index)))
                        .collect(),
                });
            }
        }

        // g step: origin-major layout with partition bounds. While walking,
        // record at the sending leader which (origin, leading slot) each
        // staged partition corresponds to — an s message is matched to its
        // partition by its first slot, which is unique across g messages
        // (an index has one origin and one first destination per region).
        let mut g_sends: Vec<GSendRoute> = Vec::new();
        let mut g_recvs = Vec::new();
        // (me, origin, leading index, leading fd) → (g send, partition)
        let mut part_of: Vec<(PartKey, (usize, usize))> = Vec::new();
        // forwarding map for r: (me, index, final dst) → (g recv, slot pos)
        let mut fwd: Vec<(FwdKey, (usize, usize))> = Vec::new();
        let g_tags = msg_tags(&plan.g_step, Step::G, tag_base);
        for (m, &tag) in plan.g_step.iter().zip(&g_tags) {
            if m.src != me && m.dst != me {
                continue; // don't lay out messages this rank never touches
            }
            let layout = g_layout(&plan.g_slots, m);
            if m.src == me {
                let parts = layout
                    .origins
                    .iter()
                    .enumerate()
                    .map(|(p, &origin)| {
                        let range = layout.bounds[p]..layout.bounds[p + 1];
                        let source = if origin == me {
                            PartSource::Input(
                                layout.order[range.clone()]
                                    .iter()
                                    .map(|&ap| in_pos(plan.g_slots.index(ap)))
                                    .collect(),
                            )
                        } else {
                            let first = plan.g_slots.get(layout.order[range.start]);
                            part_of.push((
                                (me, origin, first.index, first.final_dsts[0]),
                                (g_sends.len(), p),
                            ));
                            // resolved to an s receive in the s pass below
                            PartSource::Staged { s_recv: usize::MAX }
                        };
                        GPartRoute {
                            origin,
                            range,
                            source,
                        }
                    })
                    .collect();
                g_sends.push(GSendRoute {
                    dst: m.dst,
                    tag,
                    len: layout.order.len(),
                    bounds: layout.bounds.clone(),
                    parts,
                });
            }
            if m.dst == me {
                let mut outputs = Vec::new();
                for (pos, &ap) in layout.order.iter().enumerate() {
                    let sl = plan.g_slots.get(ap);
                    for &fd in sl.final_dsts {
                        if fd == me {
                            outputs.push((pos, out_pos(sl.index)));
                        } else {
                            fwd.push(((me, sl.index, fd), (g_recvs.len(), pos)));
                        }
                    }
                }
                g_recvs.push(GRecvRoute {
                    src: m.src,
                    tag,
                    len: layout.order.len(),
                    bounds: layout.bounds,
                    outputs,
                });
            }
        }
        part_of.sort_unstable();
        fwd.sort_unstable();

        // s step: staging ranks ship their contribution to the sending
        // leader in the partition's slot order; the leader resolves which
        // partition each staging message fills.
        let mut s_sends = Vec::new();
        let mut s_recvs = Vec::new();
        let s_tags = msg_tags(&plan.s_step, Step::S, tag_base);
        for (m, &tag) in plan.s_step.iter().zip(&s_tags) {
            if m.src != me && m.dst != me {
                continue;
            }
            let order = s_order(&plan.s_slots, m);
            if m.src == me {
                s_sends.push(SendRoute {
                    dst: m.dst,
                    tag,
                    sources: order
                        .iter()
                        .map(|&ap| in_pos(plan.s_slots.index(ap)))
                        .collect(),
                });
            }
            if m.dst == me {
                let first = plan.s_slots.get(order[0]);
                let key: PartKey = (me, m.src, first.index, first.final_dsts[0]);
                let k = part_of
                    .binary_search_by_key(&key, |e| e.0)
                    .expect("staging message matches a g partition");
                let (g_send, partition) = part_of[k].1;
                let part = &mut g_sends[g_send].parts[partition];
                assert_eq!(
                    part.range.len(),
                    order.len(),
                    "staging/partition length mismatch"
                );
                part.source = PartSource::Staged {
                    s_recv: s_recvs.len(),
                };
                s_recvs.push(SRecvRoute {
                    src: m.src,
                    tag,
                    len: order.len(),
                    g_send,
                    partition,
                });
            }
        }
        for g in &g_sends {
            for part in &g.parts {
                assert_ne!(
                    part.source,
                    PartSource::Staged { s_recv: usize::MAX },
                    "rank {me}: partition from origin {} never staged",
                    part.origin
                );
            }
        }

        // r step: receiving leaders forward delivered g values.
        let mut r_sends = Vec::new();
        let mut r_recvs = Vec::new();
        let r_tags = msg_tags(&plan.r_step, Step::R, tag_base);
        for (m, &tag) in plan.r_step.iter().zip(&r_tags) {
            if m.src == me {
                r_sends.push(RSendRoute {
                    dst: m.dst,
                    tag,
                    sources: plan
                        .r_slots
                        .iter_range(m.slots.clone())
                        .map(|sl| {
                            let key: FwdKey = (me, sl.index, m.dst);
                            let k = fwd
                                .binary_search_by_key(&key, |e| e.0)
                                .expect("forwarded value was delivered by a g receive");
                            fwd[k].1
                        })
                        .collect(),
                });
            }
            if m.dst == me {
                r_recvs.push(RecvRoute {
                    src: m.src,
                    tag,
                    len: m.n_values(),
                    outputs: plan
                        .r_slots
                        .iter_range(m.slots.clone())
                        .enumerate()
                        .map(|(p, sl)| (p, out_pos(sl.index)))
                        .collect(),
                });
            }
        }

        Self {
            me,
            input_index,
            output_index,
            local_sends,
            local_recvs,
            s_sends,
            s_recvs,
            g_sends,
            g_recvs,
            r_sends,
            r_recvs,
        }
    }

    /// Derive **every** rank's routing in one sweep of the plan.
    ///
    /// Each message is visited once and contributes routes to both of its
    /// endpoints, so the whole-world derivation is O(M + N) in the plan
    /// size M and rank count N — against O(N·M) for N calls to
    /// [`RankRouting::build`]. The g layouts are also computed once per
    /// message instead of once per endpoint. Produces routings identical
    /// to the per-rank path.
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
                sources: plan
                    .local_slots
                    .iter_range(m.slots.clone())
                    .map(|sl| inv.input_pos(sl.index))
                    .collect(),
            });
            routings[m.dst].local_recvs.push(RecvRoute {
                src: m.src,
                tag,
                len: m.n_values(),
                outputs: plan
                    .local_slots
                    .iter_range(m.slots.clone())
                    .enumerate()
                    .map(|(p, sl)| (p, out_pos(m.dst, sl.index)))
                    .collect(),
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
                        PartSource::Input(
                            layout.order[range.clone()]
                                .iter()
                                .map(|&ap| inv.input_pos(plan.g_slots.index(ap)))
                                .collect(),
                        )
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
                        outs.push((pos, out_pos(m.dst, sl.index)));
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
                sources: order
                    .iter()
                    .map(|&ap| inv.input_pos(plan.s_slots.index(ap)))
                    .collect(),
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
                g_send,
                partition,
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
            routings[m.src].r_sends.push(RSendRoute {
                dst: m.dst,
                tag,
                sources: plan
                    .r_slots
                    .iter_range(m.slots.clone())
                    .map(|sl| {
                        let key: FwdKey = (m.src, sl.index, m.dst);
                        let k = fwd
                            .binary_search_by_key(&key, |e| e.0)
                            .expect("forwarded value was delivered by a g receive");
                        fwd[k].1
                    })
                    .collect(),
            });
            routings[m.dst].r_recvs.push(RecvRoute {
                src: m.src,
                tag,
                len: m.n_values(),
                outputs: plan
                    .r_slots
                    .iter_range(m.slots.clone())
                    .enumerate()
                    .map(|(p, sl)| (p, out_pos(m.dst, sl.index)))
                    .collect(),
            });
        }

        for (r, (ii, oi)) in routings.iter_mut().zip(inputs.into_iter().zip(outputs)) {
            r.input_index = ii;
            r.output_index = oi;
        }
        routings
    }
}

/// One entry of a batch routing sweep: a pattern, its resolved plan, the
/// tag base carved for it, and whether its request takes its g-send
/// buffers from the batch-shared arena (the plain wire does; the
/// partitioned wire owns per-message partitioned buffers).
pub struct BatchEntryPlan<'a> {
    pub pattern: &'a CommPattern,
    pub plan: &'a Plan,
    pub tag_base: u64,
    pub shared_arena: bool,
}

/// Everything one rank needs to register and drive **every** entry of a
/// batch: the per-entry routings plus the layout of the rank's single
/// staging arena (each shared-arena entry's g sends occupy one contiguous
/// window of it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRankRouting {
    /// This rank's routing for each entry, in batch order.
    pub entries: Vec<RankRouting>,
    /// Offset of each entry's g-send window within the rank's batch arena
    /// (`None` for entries that do not stage through the shared arena).
    pub arena_off: Vec<Option<usize>>,
    /// Total arena elements this rank allocates for the whole batch.
    pub arena_len: usize,
}

impl RankRouting {
    /// Derive every rank's routing for **every** entry of a batch in one
    /// fused sweep: each entry's plan is walked once (the
    /// [`RankRouting::build_all`] single-pass derivation), results are
    /// transposed into per-rank [`BatchRankRouting`]s, and the shared
    /// staging arena is laid out per rank — one allocation covering all
    /// entries' g sends instead of one arena per request. Total work is
    /// O(ΣMᵢ + E·N) over E entries with plan sizes Mᵢ on N ranks.
    pub fn build_all_batch(entries: &[BatchEntryPlan]) -> Vec<BatchRankRouting> {
        let n = match entries.first() {
            Some(e) => e.plan.n_ranks,
            None => return Vec::new(),
        };
        let mut out: Vec<BatchRankRouting> = (0..n)
            .map(|_| BatchRankRouting {
                entries: Vec::with_capacity(entries.len()),
                arena_off: Vec::with_capacity(entries.len()),
                arena_len: 0,
            })
            .collect();
        for e in entries {
            assert_eq!(e.plan.n_ranks, n, "batch entries must share a rank count");
            let routings = Self::build_all(e.pattern, e.plan, e.tag_base);
            for (rank, routing) in routings.into_iter().enumerate() {
                let br = &mut out[rank];
                let off = if e.shared_arena {
                    let g_total: usize = routing.g_sends.iter().map(|g| g.len).sum();
                    let o = br.arena_len;
                    br.arena_len += g_total;
                    Some(o)
                } else {
                    None
                };
                br.arena_off.push(off);
                br.entries.push(routing);
            }
        }
        out
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
        for me in 0..8 {
            let r = RankRouting::build(&pattern, &plan, me, 0);
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
        let routings: Vec<RankRouting> = (0..8)
            .map(|me| RankRouting::build(&pattern, &plan, me, 0))
            .collect();
        // every send matches a receive with the same tag and length
        for r in &routings {
            for s in &r.s_sends {
                let peer = &routings[s.dst];
                let m = peer
                    .s_recvs
                    .iter()
                    .find(|x| x.src == r.me && x.tag == s.tag)
                    .expect("matching s recv");
                assert_eq!(m.len, s.sources.len());
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
                let dst = s.sources.len();
                assert!(dst > 0);
            }
        }
    }

    #[test]
    fn build_all_matches_per_rank_build() {
        let (pattern, topo) = example();
        for (dedup, strategy) in [
            (false, AssignStrategy::RoundRobin),
            (true, AssignStrategy::LoadBalanced),
        ] {
            let plan = Plan::aggregated(&pattern, &topo, dedup, strategy);
            let all = RankRouting::build_all(&pattern, &plan, 512);
            for (me, r) in all.iter().enumerate() {
                assert_eq!(r, &RankRouting::build(&pattern, &plan, me, 512));
            }
        }
        let plan = Plan::standard(&pattern, &topo);
        let all = RankRouting::build_all(&pattern, &plan, 0);
        for (me, r) in all.iter().enumerate() {
            assert_eq!(r, &RankRouting::build(&pattern, &plan, me, 0));
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
            assert_eq!(br.entries[0], a[rank]);
            assert_eq!(br.entries[1], b[rank]);
            assert_eq!(br.entries[2], c[rank]);
            // arena: entry 0 at offset 0, entry 1 right behind it, the
            // non-shared entry 2 gets no window and adds no length
            let g_total = |r: &RankRouting| r.g_sends.iter().map(|g| g.len).sum::<usize>();
            assert_eq!(br.arena_off[0], Some(0));
            assert_eq!(br.arena_off[1], Some(g_total(&a[rank])));
            assert_eq!(br.arena_off[2], None);
            assert_eq!(br.arena_len, g_total(&a[rank]) + g_total(&b[rank]));
        }
    }

    #[test]
    fn staged_partitions_resolve_to_s_recvs() {
        let (pattern, topo) = example();
        let plan = Plan::aggregated(&pattern, &topo, false, AssignStrategy::RoundRobin);
        let leader = plan.g_step[0].src;
        let r = RankRouting::build(&pattern, &plan, leader, 7);
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
