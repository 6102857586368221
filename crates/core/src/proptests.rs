//! Property-based tests over random communication patterns.

use crate::agg::verify::verify_plan;
use crate::agg::{AssignStrategy, Plan};
use crate::analytic::iteration_time;
use crate::collective::Protocol;
use crate::pattern::CommPattern;
use crate::routing::oracle::ValueMaps;
use crate::routing::{PartSource, RankRouting, Run};
use crate::stats::PlanStats;
use locality::Topology;
use perfmodel::LocalityModel;
use proptest::prelude::*;

/// Indices each rank owns: rank r owns [r·K, (r+1)·K), so indices are
/// globally unique by construction.
const K: usize = 32;

/// Normalize raw per-rank `(dst, local indices)` draws into a pattern:
/// self-sends dropped, one sorted unique list per destination.
fn pattern_from_raw(n: usize, raw: Vec<Vec<(usize, Vec<usize>)>>) -> CommPattern {
    let mut sends: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); n];
    for (src, list) in raw.into_iter().enumerate() {
        let mut per_dst: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for (dst, idx) in list {
            if dst == src {
                continue;
            }
            per_dst
                .entry(dst)
                .or_default()
                .extend(idx.iter().map(|&i| src * K + i));
        }
        for (dst, mut idx) in per_dst {
            idx.sort_unstable();
            idx.dedup();
            sends[src].push((dst, idx));
        }
    }
    CommPattern::new(n, sends)
}

/// Random pattern over `n` ranks: each rank sends to a few random peers a
/// few indices drawn from its own index space.
fn arb_pattern(n: usize) -> impl Strategy<Value = CommPattern> {
    prop::collection::vec(
        prop::collection::vec((0usize..n, prop::collection::vec(0usize..K, 1..6)), 0..5),
        n..=n,
    )
    .prop_map(move |raw| pattern_from_raw(n, raw))
}

/// Like [`arb_pattern`], but each send is a block of consecutive indices
/// plus a few scattered ones — copy maps with long runs, short runs and
/// breaks between them.
fn arb_blocky_pattern(n: usize) -> impl Strategy<Value = CommPattern> {
    let send = (
        0usize..n,
        0usize..K,
        1usize..16,
        prop::collection::vec(0usize..K, 0..3),
    )
        .prop_map(|(dst, start, len, mut idx)| {
            idx.extend(start..(start + len).min(K));
            (dst, idx)
        });
    prop::collection::vec(prop::collection::vec(send, 0..5), n..=n)
        .prop_map(move |raw| pattern_from_raw(n, raw))
}

/// Structural checks on one copy map kept as runs. `side` picks the
/// position a run has in the map's message buffer, and `slots` is the
/// range those must cover exactly once, in order — `None` for a g
/// receive's outputs, which cover only the slots that terminate here (in
/// increasing order). `bounds` are the partition bounds of the g buffer
/// `from` indexes, empty otherwise: no run crosses one, and two runs that
/// would merge are apart only at one.
fn check_runs(
    runs: &[Run],
    side: impl Fn(&Run) -> usize,
    slots: Option<std::ops::Range<usize>>,
    bounds: &[usize],
) -> Result<(), TestCaseError> {
    prop_assert!(runs.iter().all(|r| r.len > 0), "empty run in {:?}", runs);
    match slots {
        Some(slots) => {
            let mut next = slots.start;
            for r in runs {
                prop_assert_eq!(side(r), next, "gap or overlap in {:?}", runs);
                next += r.len;
            }
            prop_assert_eq!(next, slots.end, "{:?} does not cover its slots", runs);
        }
        None => {
            for w in runs.windows(2) {
                prop_assert!(
                    side(&w[0]) + w[0].len <= side(&w[1]),
                    "overlap in {:?}",
                    runs
                );
            }
        }
    }
    for w in runs.windows(2) {
        let mergeable = w[0].from + w[0].len == w[1].from && w[0].to + w[0].len == w[1].to;
        prop_assert!(
            !mergeable || bounds.contains(&w[1].from),
            "{:?} not maximal",
            runs
        );
    }
    if !bounds.is_empty() {
        for r in runs {
            let p = bounds.partition_point(|&b| b <= r.from);
            prop_assert!(r.from + r.len <= bounds[p], "{:?} crosses {:?}", r, bounds);
        }
    }
    Ok(())
}

/// [`check_runs`] over every copy map of one rank's routing.
fn check_routing_runs(r: &RankRouting) -> Result<(), TestCaseError> {
    for s in r.local_sends.iter().chain(&r.s_sends) {
        check_runs(&s.sources, |r| r.to, Some(0..s.len), &[])?;
    }
    for x in r.local_recvs.iter().chain(&r.r_recvs) {
        check_runs(&x.outputs, |r| r.from, Some(0..x.len), &[])?;
    }
    for g in &r.g_sends {
        for part in &g.parts {
            if let PartSource::Input(runs) = &part.source {
                check_runs(runs, |r| r.to, Some(0..part.range.len()), &[])?;
            }
        }
    }
    for g in &r.g_recvs {
        check_runs(&g.outputs, |r| r.from, None, &g.bounds)?;
    }
    for s in &r.r_sends {
        prop_assert_eq!(s.sources.iter().map(|f| f.len).sum::<usize>(), s.len);
        for f in &s.sources {
            let bounds = &r.g_recvs[f.g_msg].bounds;
            let p = bounds.partition_point(|&b| b <= f.pos);
            prop_assert!(
                f.len > 0 && f.pos + f.len <= bounds[p],
                "{:?} crosses {:?}",
                f,
                bounds
            );
        }
        for w in s.sources.windows(2) {
            let mergeable = w[0].g_msg == w[1].g_msg && w[0].pos + w[0].len == w[1].pos;
            let at_bound = r.g_recvs[w[1].g_msg].bounds.contains(&w[1].pos);
            prop_assert!(!mergeable || at_bound, "{:?} not maximal", s.sources);
        }
    }
    Ok(())
}

/// The staging links of one routing are a bijection: every staged
/// partition names a distinct s receive, in range and of the partition's
/// length, and every s receive is named once.
fn check_staging(r: &RankRouting) -> Result<(), TestCaseError> {
    let mut named = vec![0usize; r.s_recvs.len()];
    for part in r.g_sends.iter().flat_map(|g| &g.parts) {
        if let PartSource::Staged { s_recv } = part.source {
            prop_assert!(s_recv < named.len(), "{:?} names no s receive", part);
            prop_assert_eq!(r.s_recvs[s_recv].len, part.range.len());
            named[s_recv] += 1;
        }
    }
    prop_assert!(
        named.iter().all(|&k| k == 1),
        "s receives named {:?} times",
        named
    );
    Ok(())
}

/// Checks `split` is `unsplit` split at its partition bounds (see
/// `split_routing_expands_to_the_same_value_maps`): the unsplit routing's
/// value maps with partition `p` of each g message renumbered into a
/// message of its own, in message-then-partition order, on the sub-tag
/// `tag + (p + 1) << 20`.
fn check_split(unsplit: &RankRouting, split: &RankRouting) -> Result<(), TestCaseError> {
    check_routing_runs(split)?;
    check_staging(split)?;
    let old = ValueMaps::expand(unsplit);
    let sub_tag = |tag: u64, p: usize| tag + ((p as u64 + 1) << 20);
    let g_sends = (old.g_sends.iter())
        .flat_map(|&((dst, tag, _), _, ref parts)| {
            parts
                .iter()
                .enumerate()
                .map(move |(p, (origin, range, source))| {
                    let len = range.len();
                    let part = (*origin, 0..len, source.clone());
                    ((dst, sub_tag(tag, p), len), vec![0, len], vec![part])
                })
        })
        .collect();
    let g_recvs = (old.g_recvs.iter())
        .flat_map(|&((src, tag, _), ref bounds, ref outputs)| {
            bounds.windows(2).enumerate().map(move |(p, w)| {
                let (lo, hi) = (w[0], w[1]);
                let inside = outputs.iter().filter(|&&(pos, _)| lo <= pos && pos < hi);
                let outputs = inside.map(|&(pos, out)| (pos - lo, out)).collect();
                ((src, sub_tag(tag, p), hi - lo), vec![0, hi - lo], outputs)
            })
        })
        .collect();
    // the split message slot `pos` of g receive `g` lands in, and its
    // position there
    let split_pos = |g: usize, pos: usize| {
        let bounds = &old.g_recvs[g].1;
        let p = (0..bounds.len() - 1)
            .find(|&p| bounds[p] <= pos && pos < bounds[p + 1])
            .expect("slot inside its buffer");
        let before: usize = old.g_recvs[..g].iter().map(|g| g.1.len() - 1).sum();
        (before + p, pos - bounds[p])
    };
    let r_sends = (old.r_sends.iter())
        .map(|(head, sources)| {
            let sources = sources.iter().map(|&(g, pos)| split_pos(g, pos));
            (*head, sources.collect())
        })
        .collect();
    let want = ValueMaps {
        g_sends,
        g_recvs,
        r_sends,
        ..old
    };
    prop_assert_eq!(ValueMaps::expand(split), want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every protocol's plan delivers every (value, destination) demand
    /// exactly once, for random patterns, region sizes, and strategies.
    #[test]
    fn plans_route_exactly(
        pattern in arb_pattern(12),
        ppn in 1usize..7,
        dedup in any::<bool>(),
        lb in any::<bool>(),
    ) {
        let topo = Topology::block_nodes(12, ppn);
        let strategy = if lb { AssignStrategy::LoadBalanced } else { AssignStrategy::RoundRobin };
        verify_plan(&pattern, &Plan::standard(&pattern, &topo), &topo);
        verify_plan(&pattern, &Plan::aggregated(&pattern, &topo, dedup, strategy), &topo);
    }

    /// Aggregation never sends more inter-region messages than standard,
    /// and dedup never moves more inter-region bytes than partial.
    #[test]
    fn aggregation_reduces_global_traffic(pattern in arb_pattern(16), ppn in 2usize..6) {
        let topo = Topology::block_nodes(16, ppn);
        let st = PlanStats::of(&Plan::standard(&pattern, &topo));
        let partial = PlanStats::of(&Plan::aggregated(&pattern, &topo, false, AssignStrategy::LoadBalanced));
        let full = PlanStats::of(&Plan::aggregated(&pattern, &topo, true, AssignStrategy::LoadBalanced));
        prop_assert!(partial.total_global_msgs <= st.total_global_msgs);
        prop_assert!(full.total_global_msgs == partial.total_global_msgs);
        prop_assert!(full.total_global_bytes <= partial.total_global_bytes);
        // partial moves exactly the standard inter-region volume
        prop_assert_eq!(partial.total_global_bytes, st.total_global_bytes);
    }

    /// The modeled iteration time of the dynamic selector is the minimum of
    /// the candidates (sanity of `choose_protocol`).
    #[test]
    fn selector_picks_minimum(pattern in arb_pattern(8), ppn in 1usize..5) {
        let topo = Topology::block_nodes(8, ppn);
        let model = LocalityModel::lassen();
        let (winner, t) = crate::collective::choose_protocol(&pattern, &topo, &model);
        for p in crate::collective::Protocol::ALL {
            let plan = p.plan(&pattern, &topo);
            let tp = iteration_time(&plan, &topo, &model, p.is_wrapped()).total;
            prop_assert!(t <= tp + 1e-15, "{winner} ({t}) beaten by {p} ({tp})");
        }
    }

    /// Every rank's routing is exactly what the oracle derives on its own —
    /// input and output index, each message's peer, tag and length, g
    /// partition bounds and origins, the s receive filling each staged
    /// partition, and the copy maps value by value; every run is maximal,
    /// every buffer slot is covered once, no run over a g buffer crosses a
    /// partition bound, and the staging links are a bijection — for every
    /// protocol and both leader strategies.
    #[test]
    fn run_maps_expand_to_the_per_value_maps(
        pattern in arb_blocky_pattern(12),
        ppn in 1usize..7,
        lb in any::<bool>(),
    ) {
        let topo = Topology::block_nodes(12, ppn);
        let strategy = if lb { AssignStrategy::LoadBalanced } else { AssignStrategy::RoundRobin };
        for protocol in Protocol::ALL {
            let plan = protocol.plan_with(&pattern, &topo, strategy);
            for (me, routing) in RankRouting::build_all(&pattern, &plan, 4096).iter().enumerate() {
                prop_assert_eq!(
                    ValueMaps::expand(routing),
                    ValueMaps::derive(&pattern, &plan, me, 4096),
                    "rank {} under {}", me, protocol
                );
                check_routing_runs(routing)?;
                check_staging(routing)?;
            }
        }
    }

    /// Splitting a routing at its partition bounds (`Backend::Partitioned`)
    /// leaves one partition per g message, each on the sub-tag `tag + (p +
    /// 1) << 20` of the message it came from, with its partition's length,
    /// origin and source, so a staged partition still names the s receive
    /// that fills it; the per-value maps are the unsplit routing's,
    /// renumbered into the split messages — for both aggregating protocols
    /// and both leader strategies.
    #[test]
    fn split_routing_expands_to_the_same_value_maps(
        pattern in arb_blocky_pattern(12),
        ppn in 1usize..7,
    ) {
        let topo = Topology::block_nodes(12, ppn);
        for protocol in [Protocol::PartialNeighbor, Protocol::FullNeighbor] {
            for strategy in [AssignStrategy::LoadBalanced, AssignStrategy::RoundRobin] {
                let plan = protocol.plan_with(&pattern, &topo, strategy);
                for routing in RankRouting::build_all(&pattern, &plan, 4096) {
                    let split = routing.clone().split_at_partitions();
                    check_split(&routing, &split)?;
                }
            }
        }
    }

    /// Load-balanced leader assignment never has a worse max send volume
    /// than round-robin.
    #[test]
    fn load_balance_no_worse(pattern in arb_pattern(16), ppn in 2usize..6) {
        let topo = Topology::block_nodes(16, ppn);
        let rr = Plan::aggregated(&pattern, &topo, true, AssignStrategy::RoundRobin);
        let lb = Plan::aggregated(&pattern, &topo, true, AssignStrategy::LoadBalanced);
        let max_vol = |plan: &Plan| {
            let mut v = vec![0usize; 16];
            for m in &plan.g_step {
                v[m.src] += m.n_values();
            }
            v.into_iter().max().unwrap_or(0)
        };
        prop_assert!(max_vol(&lb) <= max_vol(&rr));
    }
}
