//! Analytic cost evaluation of plans at paper scale.
//!
//! Executing 2048 ranks as threads is neither possible nor meaningful on a
//! single host, so the figures are regenerated by evaluating the *exact*
//! message lists of each plan under the locality-aware performance model
//! (see DESIGN.md §1). Constants that stand in for implementation overheads
//! (request setup, planner work) are calibrated to land the paper's
//! magnitudes and are documented here; every scaling trend comes from the
//! plans themselves, not from the constants. The figures price the paper's
//! step lists on purpose; the virtual clock runs the wire, where ℓ messages
//! ride s or r ones ([`crate::routing`]): a named term of their difference.

use crate::agg::{Plan, PlanMsg};
use crate::stats::VALUE_BYTES;
use locality::Topology;
use perfmodel::{CostModel, PhaseEval};
use serde::{Deserialize, Serialize};

/// Seconds to set up one persistent request (`MPI_Send_init`/`MPI_Recv_init`).
pub const C_REQ_SETUP: f64 = 2.0e-7;

/// Seconds of planner work per value slot touched during aggregation setup
/// (index maps, dedup hashing, buffer layout).
pub const C_SLOT_SETUP: f64 = 3.0e-8;

/// Seconds per value slot for re-expanding deduplicated slots when the
/// partially-optimized collective wraps the fully-optimized planner
/// (paper §4: "the former simply wraps the latter. The partially optimized
/// initialization time could be further reduced by implementing it
/// directly").
pub const C_EXPAND: f64 = 2.0e-8;

/// Seconds of O(P) scanning per rank of the communicator during aggregated
/// setup (leader tables, region bookkeeping).
pub const C_RANK_SCAN: f64 = 1.5e-8;

/// Per-message overhead of the neighborhood-collective wrapper relative to
/// raw persistent point-to-point (bookkeeping in Start/Wait).
pub const C_WRAPPER: f64 = 5.0e-8;

/// Seconds of processing per adjacency edge during "spectrum-like"
/// (allgather-based) graph creation.
pub const C_EDGE_SCAN: f64 = 1.8e-7;

/// Seconds per locally-held pattern value during "mvapich-like"
/// (personalized) graph creation.
pub const C_LOCAL_SETUP: f64 = 2.0e-6;

/// Per-iteration cost breakdown of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationCost {
    pub local: f64,
    pub s: f64,
    pub g: f64,
    pub r: f64,
    /// Modeled Start+Wait time of one iteration.
    pub total: f64,
}

fn phase_of(msgs: &[PlanMsg], topo: &Topology) -> PhaseEval {
    let mut p = PhaseEval::new(topo.n_ranks());
    for m in msgs {
        p.add(topo, m.src, m.dst, m.n_values() * VALUE_BYTES);
    }
    p
}

/// Modeled Start+Wait time of one iteration of `plan`.
///
/// Standard plans start everything at once (Algorithms 2–3): one phase over
/// ℓ ∪ g. Aggregated plans follow Algorithms 5–6: fully-local messages
/// overlap the `s → g → r` chain, so the iteration takes
/// `max(t_ℓ, t_s + t_g + t_r)`.
///
/// `wrapped` adds the per-message neighborhood-collective bookkeeping
/// overhead (distinguishes Standard-Hypre from the unoptimized neighbor
/// collective, which the paper reports as performing similarly).
pub fn iteration_time(
    plan: &Plan,
    topo: &Topology,
    model: &dyn CostModel,
    wrapped: bool,
) -> IterationCost {
    let wrapper = if wrapped {
        let n_msgs = plan.local.len() + plan.s_step.len() + plan.g_step.len() + plan.r_step.len();
        // bookkeeping is distributed; charge the busiest-rank share
        C_WRAPPER * (n_msgs as f64 / plan.n_ranks.max(1) as f64).ceil()
    } else {
        0.0
    };

    if !plan.aggregated {
        // single phase over all messages
        let mut p = phase_of(&plan.local, topo);
        for m in &plan.g_step {
            p.add(topo, m.src, m.dst, m.n_values() * VALUE_BYTES);
        }
        let t = p.time(model, topo) + wrapper;
        return IterationCost {
            local: t,
            s: 0.0,
            g: t,
            r: 0.0,
            total: t,
        };
    }

    let t_l = phase_of(&plan.local, topo).time(model, topo);
    let t_s = phase_of(&plan.s_step, topo).time(model, topo);
    let t_g = phase_of(&plan.g_step, topo).time(model, topo);
    let t_r = phase_of(&plan.r_step, topo).time(model, topo);
    let total = t_l.max(t_s + t_g + t_r) + wrapper;
    IterationCost {
        local: t_l,
        s: t_s,
        g: t_g,
        r: t_r,
        total,
    }
}

/// Modeled Start+Wait time of one iteration under **partitioned**
/// locality-aware execution (§5's combination, as MPI 4.0 partitioned
/// requests would run it): staging (`s`) overlaps inter-region injection
/// (`g`), so the chain `t_s + t_g` collapses to `max(t_s, t_g)` (+ the
/// final redistribution). The executor does not overlap them —
/// [`crate::Backend::Partitioned`] ships its split messages after the s
/// step — so this is the model the `ablation_partitioned` figure draws.
pub fn iteration_time_partitioned(
    plan: &Plan,
    topo: &Topology,
    model: &dyn CostModel,
) -> IterationCost {
    assert!(
        plan.aggregated,
        "partitioned execution applies to aggregated plans"
    );
    let t_l = phase_of(&plan.local, topo).time(model, topo);
    let t_s = phase_of(&plan.s_step, topo).time(model, topo);
    let t_g = phase_of(&plan.g_step, topo).time(model, topo);
    let t_r = phase_of(&plan.r_step, topo).time(model, topo);
    let total = t_l.max(t_s.max(t_g) + t_r);
    IterationCost {
        local: t_l,
        s: t_s,
        g: t_g,
        r: t_r,
        total,
    }
}

/// Modeled cost of `MPI_Neighbor_alltoallv_init` for `plan` (excluding
/// graph creation, which Figure 6 reports separately).
///
/// * Standard implementations only register persistent requests.
/// * Aggregated implementations additionally pay planner work proportional
///   to the slots each rank touches, O(P) leader-table scans, and an
///   intra-region coordination allgather for load balancing.
/// * The partially-optimized implementation wraps the fully-optimized one
///   (paper §4: "the former simply wraps the latter"), re-expanding the
///   deduplicated slots — so its init is *more* expensive than full.
pub fn init_time(plan: &Plan, topo: &Topology, model: &dyn CostModel) -> f64 {
    let n = topo.n_ranks();
    // per-rank request registrations
    let mut reqs = vec![0usize; n];
    // per-rank slots touched during planning
    let mut slots = vec![0usize; n];
    for (_, msgs) in plan.steps() {
        for m in msgs {
            reqs[m.src] += 1;
            reqs[m.dst] += 1;
            slots[m.src] += m.n_values();
            slots[m.dst] += m.n_values();
        }
    }
    let max_req = reqs.iter().copied().max().unwrap_or(0);
    let max_slots = slots.iter().copied().max().unwrap_or(0);

    let mut t = C_REQ_SETUP * max_req as f64;
    if plan.aggregated {
        t += C_SLOT_SETUP * max_slots as f64;
        t += C_RANK_SCAN * n as f64;
        // intra-region coordination: allgather of per-pair volumes
        let ppn = topo.region_members(0).len().max(1);
        let coord_steps = (ppn as f64).log2().ceil().max(1.0);
        let pair_bytes = plan.g_step.len().div_ceil(topo.n_regions().max(1)) * 16;
        t += coord_steps * model.msg_time(locality::LocalityClass::IntraSocket, pair_bytes.max(16));
        if !plan.dedup {
            // partial wraps full: pays the dedup planning AND the
            // re-expansion of duplicate slots
            t += C_EXPAND * max_slots as f64;
        }
    }
    t
}

/// Modeled cost of one `MPI_Dist_graph_create_adjacent` call for the
/// pattern underlying `plan`'s standard form (Figure 6).
///
/// `spectrum_like = true` models the allgather-everything implementation;
/// `false` models the personalized (MVAPICH-like) one, whose work scales
/// with per-rank local state rather than global edges.
pub fn graph_creation_time(
    plan: &Plan,
    topo: &Topology,
    model: &dyn CostModel,
    spectrum_like: bool,
) -> f64 {
    let n = topo.n_ranks();
    let all_msgs = || plan.local.iter().chain(&plan.g_step);
    let total_edges: usize = plan.local.len() + plan.g_step.len();
    let log_p = (n as f64).log2().ceil().max(1.0);
    let alpha_inter = model.msg_time(locality::LocalityClass::InterNode, 8);

    if spectrum_like {
        // allgatherv of the adjacency (8 bytes/edge), then every rank scans
        // the full global edge list
        let bytes = total_edges * 8;
        let gather = 2.0 * log_p * alpha_inter
            + 2.0 * model.msg_time(locality::LocalityClass::InterNode, bytes / n.max(1));
        gather + C_EDGE_SCAN * total_edges as f64
    } else {
        // handshakes with each neighbor + local pattern registration
        let mut per_rank_vol = vec![0usize; n];
        let mut per_rank_deg = vec![0usize; n];
        for m in all_msgs() {
            per_rank_vol[m.src] += m.n_values();
            per_rank_vol[m.dst] += m.n_values();
            per_rank_deg[m.src] += 1;
            per_rank_deg[m.dst] += 1;
        }
        let max_vol = per_rank_vol.iter().copied().max().unwrap_or(0);
        let max_deg = per_rank_deg.iter().copied().max().unwrap_or(0);
        max_deg as f64 * alpha_inter + log_p * alpha_inter + C_LOCAL_SETUP * max_vol as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AssignStrategy;
    use crate::pattern::CommPattern;
    use perfmodel::LocalityModel;

    fn setup() -> (CommPattern, Topology, LocalityModel) {
        (
            CommPattern::example_2_1(),
            Topology::block_nodes(8, 4),
            LocalityModel::lassen(),
        )
    }

    #[test]
    fn aggregation_cheaper_per_iteration_on_many_small_messages() {
        // The regime the paper targets: tens of inter-region messages per
        // process (middle AMG levels). On light patterns like Example 2.1
        // standard communication wins — exactly the paper's Figure 11
        // fine-level observation — so the winning case needs density.
        let topo = Topology::block_nodes(32, 4);
        let pattern = CommPattern::all_to_all_regions(&topo);
        let model = LocalityModel::lassen();
        let std_t = iteration_time(&Plan::standard(&pattern, &topo), &topo, &model, false);
        let agg = Plan::aggregated(&pattern, &topo, false, AssignStrategy::LoadBalanced);
        let agg_t = iteration_time(&agg, &topo, &model, true);
        assert!(
            agg_t.total < std_t.total,
            "aggregated {} should beat standard {}",
            agg_t.total,
            std_t.total
        );
    }

    #[test]
    fn standard_wins_on_light_patterns() {
        // ... and conversely (paper §5: optimized collectives "are capable
        // of greatly increasing communication costs" for light patterns).
        let (pattern, topo, model) = setup();
        let std_t = iteration_time(&Plan::standard(&pattern, &topo), &topo, &model, false);
        let agg = Plan::aggregated(&pattern, &topo, false, AssignStrategy::RoundRobin);
        let agg_t = iteration_time(&agg, &topo, &model, true);
        assert!(std_t.total < agg_t.total);
    }

    #[test]
    fn dedup_no_slower_per_iteration() {
        let (pattern, topo, model) = setup();
        let partial = Plan::aggregated(&pattern, &topo, false, AssignStrategy::RoundRobin);
        let full = Plan::aggregated(&pattern, &topo, true, AssignStrategy::RoundRobin);
        let tp = iteration_time(&partial, &topo, &model, true).total;
        let tf = iteration_time(&full, &topo, &model, true).total;
        assert!(tf <= tp + 1e-12);
    }

    #[test]
    fn init_ordering_matches_figure_7() {
        let (pattern, topo, model) = setup();
        let std_plan = Plan::standard(&pattern, &topo);
        let partial = Plan::aggregated(&pattern, &topo, false, AssignStrategy::RoundRobin);
        let full = Plan::aggregated(&pattern, &topo, true, AssignStrategy::RoundRobin);
        let t_std = init_time(&std_plan, &topo, &model);
        let t_partial = init_time(&partial, &topo, &model);
        let t_full = init_time(&full, &topo, &model);
        // standard is minimal; partial exceeds full (it wraps it)
        assert!(t_std < t_full, "std {t_std} full {t_full}");
        assert!(t_full < t_partial, "full {t_full} partial {t_partial}");
    }

    #[test]
    fn wrapper_overhead_is_small_but_positive() {
        let (pattern, topo, model) = setup();
        let plan = Plan::standard(&pattern, &topo);
        let bare = iteration_time(&plan, &topo, &model, false).total;
        let wrapped = iteration_time(&plan, &topo, &model, true).total;
        assert!(wrapped > bare);
        assert!(
            wrapped < bare * 1.2,
            "wrapper must be minor: {bare} vs {wrapped}"
        );
    }

    #[test]
    fn spectrum_like_graph_creation_scales_worse() {
        // The distinguishing property of Figure 6 is *scaling*: the
        // spectrum-like cost grows with the global edge count while the
        // mvapich-like cost tracks per-rank state. Compare growth rates
        // between a small and a large world.
        let model = LocalityModel::lassen();
        let cost = |ranks: usize, spectrum: bool| {
            let topo = Topology::block_nodes(ranks, 4);
            let pattern = CommPattern::all_to_all_regions(&topo);
            let plan = Plan::standard(&pattern, &topo);
            graph_creation_time(&plan, &topo, &model, spectrum)
        };
        let spectrum_growth = cost(64, true) / cost(16, true);
        let mvapich_growth = cost(64, false) / cost(16, false);
        assert!(
            spectrum_growth > 2.0 * mvapich_growth,
            "spectrum {spectrum_growth}x vs mvapich {mvapich_growth}x"
        );
    }

    #[test]
    fn empty_plan_costs_little() {
        let topo = Topology::block_nodes(8, 4);
        let model = LocalityModel::lassen();
        let plan = Plan::standard(&CommPattern::empty(8), &topo);
        assert_eq!(iteration_time(&plan, &topo, &model, false).total, 0.0);
        assert_eq!(init_time(&plan, &topo, &model), 0.0);
    }
}
