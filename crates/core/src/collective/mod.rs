//! The communication protocols of the paper's evaluation (§4), one per
//! distinct plan, and the model-driven dynamic selection the paper
//! proposes as future work (§5).

pub mod select;

pub use select::choose_protocol;

use crate::agg::{AssignStrategy, Plan};
use crate::pattern::CommPattern;
use locality::Topology;
use serde::{Deserialize, Serialize};

/// The protocols compared throughout §4, one per distinct plan. The
/// paper's fourth series, "Unoptimized Neighbor" (§3.1), sends Standard
/// Hypre's messages through the neighborhood-collective wrapper: the
/// same plan, costed with `wrapped = true` (see `bench`'s figure series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// Persistent point-to-point as implemented in Hypre 2.28.
    StandardHypre,
    /// Locality-aware three-step aggregation (§3.2) — "partially optimized".
    PartialNeighbor,
    /// Aggregation plus duplicate removal (§3.3) — "fully optimized".
    FullNeighbor,
}

impl Protocol {
    /// All three, in the paper's presentation order.
    pub const ALL: [Protocol; 3] = [
        Protocol::StandardHypre,
        Protocol::PartialNeighbor,
        Protocol::FullNeighbor,
    ];

    /// Stable identifier: the variant name, used as the protocol key in
    /// persistent profile-cache entries (the label has spaces and can
    /// drift with figure wording; this cannot).
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::StandardHypre => "StandardHypre",
            Protocol::PartialNeighbor => "PartialNeighbor",
            Protocol::FullNeighbor => "FullNeighbor",
        }
    }

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Protocol::StandardHypre => "Standard Hypre",
            Protocol::PartialNeighbor => "Partially Optimized Neighbor",
            Protocol::FullNeighbor => "Fully Optimized Neighbor",
        }
    }

    /// Build this protocol's communication plan for `pattern`.
    /// Aggregating protocols assign leaders load-balanced, ties going to
    /// the member that already owns (sending) or needs (receiving) most of
    /// a region pair's values, so a pair with one owner and one consumer
    /// takes no s or r hop.
    pub fn plan(&self, pattern: &CommPattern, topo: &Topology) -> Plan {
        let lb = AssignStrategy::LoadBalanced;
        match self {
            Protocol::StandardHypre => Plan::standard(pattern, topo),
            Protocol::PartialNeighbor => Plan::aggregated(pattern, topo, false, lb),
            Protocol::FullNeighbor => Plan::aggregated(pattern, topo, true, lb),
        }
    }

    /// Whether Start/Wait run through the neighborhood-collective wrapper.
    pub fn is_wrapped(&self) -> bool {
        !matches!(self, Protocol::StandardHypre)
    }

    /// Whether this protocol needs the indices extension of §3.3.
    pub fn needs_indices(&self) -> bool {
        matches!(self, Protocol::FullNeighbor)
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::verify::verify_plan;

    #[test]
    fn all_protocols_produce_valid_plans() {
        let pattern = CommPattern::example_2_1();
        let topo = Topology::block_nodes(8, 4);
        for p in Protocol::ALL {
            let plan = p.plan(&pattern, &topo);
            verify_plan(&pattern, &plan, &topo);
            assert_eq!(
                plan.aggregated,
                matches!(p, Protocol::PartialNeighbor | Protocol::FullNeighbor)
            );
            assert_eq!(plan.dedup, p.needs_indices());
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Protocol::StandardHypre.label(), "Standard Hypre");
        assert_eq!(
            Protocol::FullNeighbor.to_string(),
            "Fully Optimized Neighbor"
        );
    }

    #[test]
    fn wrapping_flags() {
        assert!(!Protocol::StandardHypre.is_wrapped());
        assert!(Protocol::PartialNeighbor.is_wrapped());
        assert!(Protocol::FullNeighbor.needs_indices());
        assert!(!Protocol::PartialNeighbor.needs_indices());
    }
}
