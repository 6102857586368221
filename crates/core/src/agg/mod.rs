//! The locality-aware aggregation planner (paper §3.2–3.3).
//!
//! A [`Plan`] describes one persistent neighborhood collective as four step
//! message lists (paper Algorithm 4):
//!
//! * `ℓ` (`local`) — fully local messages: source and destination share a
//!   region; sent directly.
//! * `s` (`s_step`) — initial intra-region redistribution: each rank ships
//!   the data bound for remote region *B* to the region's sending leader
//!   for *B*.
//! * `g` (`g_step`) — inter-region communication: exactly one message per
//!   (source region, destination region) pair with traffic.
//! * `r` (`r_step`) — final intra-region redistribution from the receiving
//!   leader to the final destinations.
//!
//! [`Plan::standard`] puts every pattern message directly in `ℓ`/`g` with
//! empty `s`/`r` — the §3.1 standard implementation — so all protocols
//! share one statistics/execution/cost machinery.
//!
//! With `dedup = true` (the §3.3 API extension) a value crosses a region
//! pair **once** regardless of how many final destinations need it; the
//! receiving leader expands it locally.
//!
//! ## Storage layout
//!
//! Slots live in one CSR-style arena per step ([`SlotArena`]): SoA columns
//! for the per-slot value index and origin rank, plus a single shared
//! final-destination pool with prefix offsets. A [`PlanMsg`] is a header —
//! `(src, dst)` plus a contiguous slot range into its step's arena — so
//! building a plan performs O(1) *vector* allocations per step (amortized
//! growth of the arena columns) instead of one `Vec` per slot, and the
//! grouping work in [`Plan::aggregated`] is a handful of flat sorts rather
//! than `BTreeMap` insertions per slot.

pub mod assign;
pub mod verify;

pub use assign::{AssignStrategy, LeaderAssignment};

use crate::pattern::CommPattern;
use locality::Topology;
use std::ops::Range;

/// One inter-region demand, sorted by (src region, dst region, value
/// index, final destination); the origin tags along (each index has a
/// unique origin, so it never participates in the ordering).
type Demand = (usize, usize, usize, usize, usize);

/// CSR-style slot storage of one plan step.
///
/// Column `i` of a step's arena holds slot `i`'s global value index and
/// origin rank; its final destinations are `fds[fd_off[i]..fd_off[i+1]]`.
/// Exactly one destination for `ℓ`/`r` slots and for non-dedup `g` slots;
/// possibly several for dedup `g` (and their staged `s` copies), where the
/// receiving leader fans the value out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotArena {
    index: Vec<usize>,
    origin: Vec<usize>,
    fds: Vec<usize>,
    fd_off: Vec<usize>,
}

/// A borrowed view of one slot in a [`SlotArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRef<'a> {
    /// Global index of the value (the §3.3 extension's `send_idx`).
    pub index: usize,
    /// Rank owning the value.
    pub origin: usize,
    /// Final destination ranks served by this slot, ascending.
    pub final_dsts: &'a [usize],
}

impl Default for SlotArena {
    fn default() -> Self {
        Self::new()
    }
}

impl SlotArena {
    pub fn new() -> Self {
        Self {
            index: Vec::new(),
            origin: Vec::new(),
            fds: Vec::new(),
            fd_off: vec![0],
        }
    }

    /// Number of slots stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Append one slot; returns its position.
    pub fn push(
        &mut self,
        index: usize,
        origin: usize,
        fds: impl IntoIterator<Item = usize>,
    ) -> usize {
        self.index.push(index);
        self.origin.push(origin);
        self.fds.extend(fds);
        debug_assert!(
            self.fds.len() > *self.fd_off.last().expect("offsets start at [0]"),
            "slot needs at least one final destination"
        );
        self.fd_off.push(self.fds.len());
        self.index.len() - 1
    }

    /// Value index of slot `i`.
    pub fn index(&self, i: usize) -> usize {
        self.index[i]
    }

    /// Origin rank of slot `i`.
    pub fn origin(&self, i: usize) -> usize {
        self.origin[i]
    }

    /// Final destinations of slot `i`.
    pub fn final_dsts(&self, i: usize) -> &[usize] {
        &self.fds[self.fd_off[i]..self.fd_off[i + 1]]
    }

    /// Full view of slot `i`.
    pub fn get(&self, i: usize) -> SlotRef<'_> {
        SlotRef {
            index: self.index[i],
            origin: self.origin[i],
            final_dsts: self.final_dsts(i),
        }
    }

    /// Iterate the slots of `range` (a message's slots).
    pub fn iter_range(&self, range: Range<usize>) -> impl Iterator<Item = SlotRef<'_>> {
        range.map(move |i| self.get(i))
    }
}

/// One planned message: endpoints plus its contiguous slot range within
/// the owning step's [`SlotArena`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanMsg {
    pub src: usize,
    pub dst: usize,
    pub slots: Range<usize>,
}

impl PlanMsg {
    /// Number of values in the payload (message size in values; bytes are
    /// `8×` this for `f64` data).
    pub fn n_values(&self) -> usize {
        self.slots.len()
    }
}

/// A complete communication plan for one pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub n_ranks: usize,
    /// True when built by [`Plan::aggregated`].
    pub aggregated: bool,
    /// True when duplicate values are removed from inter-region messages.
    pub dedup: bool,
    pub local: Vec<PlanMsg>,
    pub s_step: Vec<PlanMsg>,
    pub g_step: Vec<PlanMsg>,
    pub r_step: Vec<PlanMsg>,
    /// Slot arenas backing the message headers above, one per step.
    pub local_slots: SlotArena,
    pub s_slots: SlotArena,
    pub g_slots: SlotArena,
    pub r_slots: SlotArena,
}

impl Plan {
    /// The §3.1 standard implementation: every pattern message goes
    /// directly to its destination. Same-region messages land in `local`,
    /// the rest in `g_step`; `s`/`r` stay empty.
    pub fn standard(pattern: &CommPattern, topo: &Topology) -> Self {
        assert_eq!(pattern.n_ranks, topo.n_ranks());
        let mut local = Vec::new();
        let mut g_step = Vec::new();
        let mut local_slots = SlotArena::new();
        let mut g_slots = SlotArena::new();
        for (src, list) in pattern.sends.iter().enumerate() {
            for (dst, indices) in list {
                let (arena, msgs) = if topo.same_region(src, *dst) {
                    (&mut local_slots, &mut local)
                } else {
                    (&mut g_slots, &mut g_step)
                };
                let start = arena.len();
                for &i in indices {
                    arena.push(i, src, [*dst]);
                }
                msgs.push(PlanMsg {
                    src,
                    dst: *dst,
                    slots: start..arena.len(),
                });
            }
        }
        Self {
            n_ranks: pattern.n_ranks,
            aggregated: false,
            dedup: false,
            local,
            s_step: Vec::new(),
            g_step,
            r_step: Vec::new(),
            local_slots,
            s_slots: SlotArena::new(),
            g_slots,
            r_slots: SlotArena::new(),
        }
    }

    /// Three-step locality-aware aggregation (§3.2), optionally with
    /// duplicate removal (§3.3). All grouping is sort-based over flat
    /// vectors: one demand sort per plan, then linear walks over the runs.
    pub fn aggregated(
        pattern: &CommPattern,
        topo: &Topology,
        dedup: bool,
        strategy: AssignStrategy,
    ) -> Self {
        assert_eq!(pattern.n_ranks, topo.n_ranks());
        let mut local = Vec::new();
        let mut local_slots = SlotArena::new();

        // Flat inter-region demand list; everything below works on runs of
        // this one sorted vector.
        let mut demands: Vec<Demand> = Vec::new();
        for (src, list) in pattern.sends.iter().enumerate() {
            for (dst, indices) in list {
                if topo.same_region(src, *dst) {
                    let start = local_slots.len();
                    for &i in indices {
                        local_slots.push(i, src, [*dst]);
                    }
                    local.push(PlanMsg {
                        src,
                        dst: *dst,
                        slots: start..local_slots.len(),
                    });
                } else {
                    let pair = (topo.region_of(src), topo.region_of(*dst));
                    demands.extend(indices.iter().map(|&i| (pair.0, pair.1, i, *dst, src)));
                }
            }
        }
        // (pair, index, fd) is unique, so the unstable sort is deterministic
        // and yields exactly the slot order the routing layer expects.
        demands.sort_unstable();

        // Inter-region volumes (in values) drive load balancing, and each
        // member's share of a pair breaks its ties; one pass over the
        // sorted runs. `count` is per rank and zero between pairs: a pair's
        // origins and final destinations lie in different regions, so one
        // array holds both sides.
        let mut volumes: Vec<((usize, usize), usize)> = Vec::new();
        let mut send_shares: Vec<assign::Share> = Vec::new();
        let mut recv_shares: Vec<assign::Share> = Vec::new();
        let mut count = vec![0usize; topo.n_ranks()];
        let mut d = 0;
        while d < demands.len() {
            let pair = (demands[d].0, demands[d].1);
            let end = demands[d..]
                .iter()
                .position(|x| (x.0, x.1) != pair)
                .map_or(demands.len(), |p| d + p);
            // demands are index-sorted within the pair: under dedup a value
            // counts once, at the start of its index run
            let mut v = 0;
            for (j, &(_, _, index, fd, origin)) in demands[d..end].iter().enumerate() {
                if !dedup || j == 0 || demands[d + j - 1].2 != index {
                    count[origin] += 1;
                    v += 1;
                }
                count[fd] += 1;
            }
            let k = volumes.len();
            for (region, shares) in [(pair.0, &mut send_shares), (pair.1, &mut recv_shares)] {
                for &r in topo.region_members(region) {
                    if count[r] > 0 {
                        shares.push((k, r, std::mem::take(&mut count[r])));
                    }
                }
            }
            volumes.push((pair, v));
            d = end;
        }
        let leaders = assign::assign_leaders(&volumes, &send_shares, &recv_shares, topo, strategy);

        let mut s_step = Vec::new();
        let mut g_step = Vec::new();
        let mut r_step = Vec::new();
        let mut s_slots = SlotArena::new();
        let mut g_slots = SlotArena::new();
        let mut r_slots = SlotArena::new();
        // reused per-pair scratch for the s/r grouping sorts and the dedup
        // fan-out lists
        let mut by_origin: Vec<(usize, usize)> = Vec::new();
        let mut by_fd: Vec<(usize, usize)> = Vec::new();
        let mut fds: Vec<usize> = Vec::new();

        let mut d = 0;
        while d < demands.len() {
            let pair = (demands[d].0, demands[d].1);
            let end = demands[d..]
                .iter()
                .position(|x| (x.0, x.1) != pair)
                .map_or(demands.len(), |p| d + p);
            let (lead_send, lead_recv) = leaders.get(pair);

            // g slots for this pair, sorted by (index, fd) by construction.
            let g_start = g_slots.len();
            if dedup {
                // one slot per unique value index, fanning out to all its
                // final destinations in the pair's destination region
                let mut k = d;
                while k < end {
                    let index = demands[k].2;
                    let run = demands[k..end]
                        .iter()
                        .position(|x| x.2 != index)
                        .map_or(end, |p| k + p);
                    let origin = demands[k].4;
                    debug_assert!(
                        demands[k..run].iter().all(|x| x.4 == origin),
                        "one owner per value index"
                    );
                    // fds ascend within the index run (the demand sort);
                    // dedup defends against repeated (index, fd) demands
                    // from a pattern that bypassed `CommPattern::new`
                    fds.clear();
                    fds.extend(demands[k..run].iter().map(|x| x.3));
                    fds.dedup();
                    g_slots.push(index, origin, fds.iter().copied());
                    k = run;
                }
            } else {
                for &(_, _, index, fd, origin) in &demands[d..end] {
                    g_slots.push(index, origin, [fd]);
                }
            }
            let g_range = g_start..g_slots.len();

            // s step: origins that are not the sending leader forward their
            // slots to it (one message per origin per region pair). Group
            // by a flat sort on (origin, slot position) — slots of one
            // origin keep their (index, fd) order.
            by_origin.clear();
            by_origin.extend(
                g_range
                    .clone()
                    .filter(|&p| g_slots.origin(p) != lead_send)
                    .map(|p| (g_slots.origin(p), p)),
            );
            by_origin.sort_unstable();
            let mut k = 0;
            while k < by_origin.len() {
                let origin = by_origin[k].0;
                let run = by_origin[k..]
                    .iter()
                    .position(|x| x.0 != origin)
                    .map_or(by_origin.len(), |p| k + p);
                let start = s_slots.len();
                for &(_, p) in &by_origin[k..run] {
                    s_slots.push(
                        g_slots.index(p),
                        origin,
                        g_slots.final_dsts(p).iter().copied(),
                    );
                }
                s_step.push(PlanMsg {
                    src: origin,
                    dst: lead_send,
                    slots: start..s_slots.len(),
                });
                k = run;
            }

            // r step: the receiving leader forwards each delivered value to
            // every final destination other than itself (one message per
            // destination per region pair). Same flat-sort grouping.
            by_fd.clear();
            for p in g_range.clone() {
                by_fd.extend(
                    g_slots
                        .final_dsts(p)
                        .iter()
                        .filter(|&&fd| fd != lead_recv)
                        .map(|&fd| (fd, p)),
                );
            }
            by_fd.sort_unstable();
            let mut k = 0;
            while k < by_fd.len() {
                let fd = by_fd[k].0;
                let run = by_fd[k..]
                    .iter()
                    .position(|x| x.0 != fd)
                    .map_or(by_fd.len(), |p| k + p);
                let start = r_slots.len();
                for &(_, p) in &by_fd[k..run] {
                    r_slots.push(g_slots.index(p), g_slots.origin(p), [fd]);
                }
                r_step.push(PlanMsg {
                    src: lead_recv,
                    dst: fd,
                    slots: start..r_slots.len(),
                });
                k = run;
            }

            g_step.push(PlanMsg {
                src: lead_send,
                dst: lead_recv,
                slots: g_range,
            });
            d = end;
        }

        // Header lists must be (src, dst)-sorted for tag derivation; the
        // sorts are stable, so same-pair messages keep region-pair order.
        // `local` is already sorted (the pattern iterates src then dst).
        debug_assert!(local
            .windows(2)
            .all(|w| (w[0].src, w[0].dst) <= (w[1].src, w[1].dst)));
        s_step.sort_by_key(|m| (m.src, m.dst));
        g_step.sort_by_key(|m| (m.src, m.dst));
        r_step.sort_by_key(|m| (m.src, m.dst));

        Self {
            n_ranks: pattern.n_ranks,
            aggregated: true,
            dedup,
            local,
            s_step,
            g_step,
            r_step,
            local_slots,
            s_slots,
            g_slots,
            r_slots,
        }
    }

    /// All four step lists with their names, in execution order.
    pub fn steps(&self) -> [(&'static str, &[PlanMsg]); 4] {
        [
            ("local", self.local.as_slice()),
            ("s", self.s_step.as_slice()),
            ("g", self.g_step.as_slice()),
            ("r", self.r_step.as_slice()),
        ]
    }

    /// Total inter-region values moved per iteration.
    pub fn global_values(&self) -> usize {
        self.g_step.iter().map(PlanMsg::n_values).sum()
    }

    /// Total inter-region messages per iteration.
    pub fn global_msgs(&self) -> usize {
        self.g_step.len()
    }

    /// Total intra-region messages per iteration (ℓ + s + r).
    pub fn local_msgs(&self) -> usize {
        self.local.len() + self.s_step.len() + self.r_step.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::verify::verify_plan;
    use crate::pattern::CommPattern;
    use crate::stats::PlanStats;

    fn example() -> (CommPattern, Topology) {
        (CommPattern::example_2_1(), Topology::block_nodes(8, 4))
    }

    #[test]
    fn arena_stores_soa_slots() {
        let mut a = SlotArena::new();
        a.push(7, 1, [4]);
        a.push(9, 2, [4, 5, 6]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(0).index, 7);
        assert_eq!(a.get(0).final_dsts, &[4][..]);
        assert_eq!(a.get(1).origin, 2);
        assert_eq!(a.final_dsts(1), &[4, 5, 6][..]);
        let all: Vec<usize> = a.iter_range(0..2).map(|s| s.index).collect();
        assert_eq!(all, vec![7, 9]);
    }

    #[test]
    fn standard_matches_figure_3() {
        let (pattern, topo) = example();
        let plan = Plan::standard(&pattern, &topo);
        // Figure 3: 15 inter-region messages, no local ones in the example
        assert_eq!(plan.global_msgs(), 15);
        assert!(plan.local.is_empty());
        assert_eq!(plan.global_values(), 17);
        verify_plan(&pattern, &plan, &topo);
    }

    #[test]
    fn partial_aggregation_matches_figure_4() {
        let (pattern, topo) = example();
        let plan = Plan::aggregated(&pattern, &topo, false, AssignStrategy::RoundRobin);
        // One region pair with traffic ⇒ exactly one inter-region message.
        assert_eq!(plan.global_msgs(), 1);
        // Duplicates still cross: 17 value slots.
        assert_eq!(plan.global_values(), 17);
        verify_plan(&pattern, &plan, &topo);
    }

    #[test]
    fn full_aggregation_matches_figure_5() {
        let (pattern, topo) = example();
        let plan = Plan::aggregated(&pattern, &topo, true, AssignStrategy::RoundRobin);
        assert_eq!(plan.global_msgs(), 1);
        // Each of the 8 values crosses the region pair exactly once.
        assert_eq!(plan.global_values(), 8);
        verify_plan(&pattern, &plan, &topo);
    }

    #[test]
    fn s_step_skips_the_leader_itself() {
        let (pattern, topo) = example();
        let plan = Plan::aggregated(&pattern, &topo, false, AssignStrategy::RoundRobin);
        let leader = plan.g_step[0].src;
        assert!(plan
            .s_step
            .iter()
            .all(|m| m.src != leader && m.dst == leader));
        // three non-leader origins send s messages
        assert_eq!(plan.s_step.len(), 3);
    }

    #[test]
    fn r_step_covers_non_leader_destinations() {
        let (pattern, topo) = example();
        let plan = Plan::aggregated(&pattern, &topo, true, AssignStrategy::RoundRobin);
        let recv_leader = plan.g_step[0].dst;
        assert!(plan
            .r_step
            .iter()
            .all(|m| m.src == recv_leader && m.dst != recv_leader));
        // all four region-1 processes need data; leader keeps its own
        assert_eq!(plan.r_step.len(), 3);
    }

    #[test]
    fn dedup_never_increases_global_volume() {
        let (pattern, topo) = example();
        let partial = Plan::aggregated(&pattern, &topo, false, AssignStrategy::RoundRobin);
        let full = Plan::aggregated(&pattern, &topo, true, AssignStrategy::RoundRobin);
        assert!(full.global_values() <= partial.global_values());
        // and the s step shrinks identically
        let s_partial: usize = partial.s_step.iter().map(PlanMsg::n_values).sum();
        let s_full: usize = full.s_step.iter().map(PlanMsg::n_values).sum();
        assert!(s_full <= s_partial);
    }

    #[test]
    fn dedup_g_slots_fan_out_sorted() {
        let (pattern, topo) = example();
        let plan = Plan::aggregated(&pattern, &topo, true, AssignStrategy::RoundRobin);
        for m in &plan.g_step {
            for s in plan.g_slots.iter_range(m.slots.clone()) {
                assert!(!s.final_dsts.is_empty());
                assert!(s.final_dsts.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn single_region_pattern_is_all_local() {
        let pattern = CommPattern::new(
            4,
            vec![
                vec![(1, vec![0]), (2, vec![1])],
                vec![(3, vec![2])],
                vec![],
                vec![(0, vec![3])],
            ],
        );
        let topo = Topology::block_nodes(4, 4); // one region
        let plan = Plan::aggregated(&pattern, &topo, true, AssignStrategy::RoundRobin);
        assert_eq!(plan.global_msgs(), 0);
        assert!(plan.s_step.is_empty() && plan.r_step.is_empty());
        assert_eq!(plan.local.len(), 4);
        verify_plan(&pattern, &plan, &topo);
    }

    /// A 1-D block-row chain: each rank sends its first two values to its
    /// left neighbour and its last two to its right one, so every region
    /// pair has one owner and one consumer.
    fn chain(n: usize) -> CommPattern {
        const B: usize = 8;
        let sends = (0..n)
            .map(|r| {
                let mut list = Vec::new();
                if r > 0 {
                    list.push((r - 1, vec![r * B, r * B + 1]));
                }
                if r + 1 < n {
                    list.push((r + 1, vec![r * B + B - 2, r * B + B - 1]));
                }
                list
            })
            .collect();
        CommPattern::new(n, sends)
    }

    #[test]
    fn load_balanced_leaders_own_and_need_the_chains_values() {
        let topo = Topology::block_nodes(16, 4);
        let pattern = chain(16);
        let standard = PlanStats::of(&Plan::standard(&pattern, &topo));
        for dedup in [false, true] {
            let plan = Plan::aggregated(&pattern, &topo, dedup, AssignStrategy::LoadBalanced);
            verify_plan(&pattern, &plan, &topo);
            assert!(plan.s_step.is_empty(), "dedup {dedup}: {:?}", plan.s_step);
            assert!(plan.r_step.is_empty(), "dedup {dedup}: {:?}", plan.r_step);
            assert_eq!(PlanStats::of(&plan), standard, "dedup {dedup}");
        }
    }

    #[test]
    fn empty_pattern_empty_plan() {
        let pattern = CommPattern::empty(8);
        let topo = Topology::block_nodes(8, 4);
        for plan in [
            Plan::standard(&pattern, &topo),
            Plan::aggregated(&pattern, &topo, true, AssignStrategy::LoadBalanced),
        ] {
            assert_eq!(plan.global_msgs() + plan.local_msgs(), 0);
            verify_plan(&pattern, &plan, &topo);
        }
    }
}
