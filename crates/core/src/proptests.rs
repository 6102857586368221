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
                check_runs(runs, |r| r.to, Some(part.range.clone()), &[])?;
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

    /// The single-sweep `RankRouting::build_all` produces routings
    /// byte-identical to the per-rank `RankRouting::build` path, for every
    /// protocol over random patterns, region sizes, and strategies.
    #[test]
    fn build_all_matches_per_rank_build(
        pattern in arb_pattern(12),
        ppn in 1usize..7,
        dedup in any::<bool>(),
        lb in any::<bool>(),
    ) {
        let topo = Topology::block_nodes(12, ppn);
        let strategy = if lb { AssignStrategy::LoadBalanced } else { AssignStrategy::RoundRobin };
        for plan in [
            Plan::standard(&pattern, &topo),
            Plan::aggregated(&pattern, &topo, dedup, strategy),
        ] {
            let all = RankRouting::build_all(&pattern, &plan, 4096);
            prop_assert_eq!(all.len(), 12);
            for (me, routing) in all.iter().enumerate() {
                let single = RankRouting::build(&pattern, &plan, me, 4096);
                prop_assert_eq!(routing, &single, "rank {} diverged", me);
            }
        }
    }

    /// The copy maps routing emits as runs are exactly the per-value maps
    /// (the oracle derivation), every run is maximal, every buffer slot is
    /// covered once, and no run over a g buffer crosses a partition bound —
    /// for every protocol and both leader strategies.
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
                    ValueMaps::derive(&pattern, &plan, me),
                    "rank {} under {}", me, protocol
                );
                check_routing_runs(routing)?;
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
