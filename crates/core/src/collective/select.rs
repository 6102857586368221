//! Model-driven dynamic protocol selection.
//!
//! Paper §5: "a simple performance measure is needed within the
//! neighborhood collective to dynamically select the optimal communication
//! strategy" — and §4.2's scaling figures already assume it ("summing up
//! the least expensive of standard communication and the given optimized
//! neighbor collective at each step"). This module implements that
//! selection: evaluate each candidate's plan under the performance model at
//! init time and keep the cheapest.

use crate::agg::Plan;
use crate::analytic::iteration_time;
use crate::collective::Protocol;
use crate::pattern::CommPattern;
use locality::Topology;
use perfmodel::CostModel;

/// Plan every candidate and rank them by modeled per-iteration time,
/// cheapest first. The sort is stable, so equal-cost candidates keep the
/// caller's order.
fn ranked(
    candidates: &[Protocol],
    pattern: &CommPattern,
    topo: &Topology,
    model: &dyn CostModel,
) -> Vec<(Protocol, Plan, f64)> {
    assert!(!candidates.is_empty());
    let mut ranked: Vec<(Protocol, Plan, f64)> = candidates
        .iter()
        .map(|&p| {
            let plan = p.plan(pattern, topo);
            let t = iteration_time(&plan, topo, model, p.is_wrapped()).total;
            (p, plan, t)
        })
        .collect();
    ranked.sort_by(|a, b| a.2.total_cmp(&b.2));
    ranked
}

/// Pick the protocol with the lowest modeled per-iteration time for
/// `pattern` among `candidates` (the first listed, on a tie). Returns the
/// winner, its (reusable) plan, and its modeled time.
pub fn choose_with(
    candidates: &[Protocol],
    pattern: &CommPattern,
    topo: &Topology,
    model: &dyn CostModel,
) -> (Protocol, Plan, f64) {
    ranked(candidates, pattern, topo, model).swap_remove(0)
}

/// Pick among every protocol. Returns the winner and its modeled time.
pub fn choose_protocol(
    pattern: &CommPattern,
    topo: &Topology,
    model: &dyn CostModel,
) -> (Protocol, f64) {
    let (p, _, t) = choose_with(&Protocol::ALL, pattern, topo, model);
    (p, t)
}

/// Model-ranked probe candidates for `Backend::Tuned`: every protocol in
/// `candidates` whose modeled per-iteration time is within `factor` of
/// the best, cheapest first, each with its (reusable) plan and modeled
/// time. `factor` ≥ 1.0; 1.0 admits only the model's best (ties
/// included), `INFINITY` admits everything. The returned order is the
/// probe order *and* the tie-break order — an unmeasured or tied
/// candidate falls back to the model's preference.
pub fn candidates_within(
    candidates: &[Protocol],
    pattern: &CommPattern,
    topo: &Topology,
    model: &dyn CostModel,
    factor: f64,
) -> Vec<(Protocol, Plan, f64)> {
    assert!(factor >= 1.0, "admission factor must be >= 1.0");
    let mut ranked = ranked(candidates, pattern, topo, model);
    let cutoff = ranked[0].2 * factor;
    ranked.retain(|&(_, _, t)| t <= cutoff);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::LocalityModel;

    #[test]
    fn dense_irregular_pattern_selects_aggregation() {
        // Many small inter-region messages per rank → aggregation wins.
        let topo = Topology::block_nodes(32, 4);
        let pattern = CommPattern::all_to_all_regions(&topo);
        let model = LocalityModel::lassen();
        let (winner, _) = choose_protocol(&pattern, &topo, &model);
        assert!(
            matches!(winner, Protocol::PartialNeighbor | Protocol::FullNeighbor),
            "got {winner}"
        );
    }

    #[test]
    fn sparse_neighbor_pattern_keeps_standard() {
        // One tiny message to the next node: aggregation adds pure overhead,
        // so the selector must keep a standard protocol (paper §5: optimized
        // collectives can *increase* costs for light patterns).
        let pattern = CommPattern::new(
            8,
            vec![
                vec![(4, vec![0])],
                vec![],
                vec![],
                vec![],
                vec![(0, vec![100])],
                vec![],
                vec![],
                vec![],
            ],
        );
        let topo = Topology::block_nodes(8, 4);
        let model = LocalityModel::lassen();
        let (winner, _) = choose_protocol(&pattern, &topo, &model);
        assert_eq!(winner, Protocol::StandardHypre);
    }

    #[test]
    fn equal_cost_candidates_keep_the_listed_order() {
        // one inter-region value: nothing to deduplicate, so Partial and
        // Full build the same plan and tie exactly — the first listed wins
        let pattern = CommPattern::new(
            8,
            vec![
                vec![(4, vec![0])],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
            ],
        );
        let topo = Topology::block_nodes(8, 4);
        let model = LocalityModel::lassen();
        for order in [
            [Protocol::PartialNeighbor, Protocol::FullNeighbor],
            [Protocol::FullNeighbor, Protocol::PartialNeighbor],
        ] {
            let (winner, _, t) = choose_with(&order, &pattern, &topo, &model);
            let tied = candidates_within(&order, &pattern, &topo, &model, 1.0);
            assert_eq!(winner, order[0]);
            assert_eq!(tied.len(), 2, "an exact tie admits both at factor 1.0");
            assert_eq!([tied[0].0, tied[1].0], order);
            assert!(tied.iter().all(|c| c.2 == t));
        }
    }

    #[test]
    fn candidates_within_ranks_cheapest_first_and_filters() {
        let topo = Topology::block_nodes(32, 4);
        let pattern = CommPattern::all_to_all_regions(&topo);
        let model = LocalityModel::lassen();
        let all = candidates_within(&Protocol::ALL, &pattern, &topo, &model, f64::INFINITY);
        assert_eq!(all.len(), 3, "INFINITY admits every candidate");
        assert!(all.windows(2).all(|w| w[0].2 <= w[1].2), "cheapest first");
        // the head of the ranking is exactly choose_protocol's winner
        let (winner, t) = choose_protocol(&pattern, &topo, &model);
        assert_eq!(all[0].0, winner);
        assert!((all[0].2 - t).abs() < 1e-15);
        // factor 1.0 admits only the best (ties impossible here: standard
        // vs aggregated costs differ by construction on this pattern)
        let best_only = candidates_within(&Protocol::ALL, &pattern, &topo, &model, 1.0);
        assert!(!best_only.is_empty() && best_only.len() < 3);
        assert_eq!(best_only[0].0, winner);
    }
}
