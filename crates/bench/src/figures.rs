//! Shared evaluation helpers for the figure binaries.

use crate::workload::{level_patterns, LevelPattern};
use amg::Hierarchy;
use locality::Topology;
use mpi_advance::analytic::{graph_creation_time, init_time, iteration_time};
use mpi_advance::collective::select::choose_with;
use mpi_advance::{PlanStats, Protocol};
use perfmodel::LocalityModel;

/// The model every figure uses (Lassen-like, see `perfmodel::params`).
pub fn paper_model() -> LocalityModel {
    LocalityModel::lassen()
}

/// The paper's four series in its presentation order: the protocol whose
/// plan is costed, and whether Start/Wait run through the
/// neighborhood-collective wrapper. "Unoptimized Neighbor" (§3.1) is
/// Standard Hypre's plan behind the wrapper.
pub const SERIES: [(Protocol, bool); 4] = [
    (Protocol::StandardHypre, false),
    (Protocol::StandardHypre, true),
    (Protocol::PartialNeighbor, true),
    (Protocol::FullNeighbor, true),
];

/// Per-level Start+Wait times of `protocol`'s plan (Figure 11's series).
pub fn per_level_times(
    levels: &[LevelPattern],
    topo: &Topology,
    protocol: Protocol,
    wrapped: bool,
    model: &LocalityModel,
) -> Vec<f64> {
    levels
        .iter()
        .map(|lp| iteration_time(&protocol.plan(&lp.pattern, topo), topo, model, wrapped).total)
        .collect()
}

/// Per-level init costs of `protocol` (Figure 7's intercepts).
pub fn per_level_init(
    levels: &[LevelPattern],
    topo: &Topology,
    protocol: Protocol,
    model: &LocalityModel,
) -> Vec<f64> {
    levels
        .iter()
        .map(|lp| init_time(&protocol.plan(&lp.pattern, topo), topo, model))
        .collect()
}

/// Per-level plan statistics (Figures 8–10).
pub fn per_level_stats(
    levels: &[LevelPattern],
    topo: &Topology,
    protocol: Protocol,
) -> Vec<PlanStats> {
    levels
        .iter()
        .map(|lp| PlanStats::of(&protocol.plan(&lp.pattern, topo)))
        .collect()
}

/// Sum over levels of the best of {standard, `optimized`} per level — the
/// paper's scaling methodology (§4.2: "summing up the least expensive of
/// standard communication and the given optimized neighbor collective at
/// each step").
pub fn best_of_total(
    levels: &[LevelPattern],
    topo: &Topology,
    optimized: Protocol,
    model: &LocalityModel,
) -> f64 {
    levels
        .iter()
        .map(|lp| {
            choose_with(
                &[Protocol::StandardHypre, optimized],
                &lp.pattern,
                topo,
                model,
            )
            .2
        })
        .sum()
}

/// Sum over levels of one series' iteration time (the standard lines of
/// Figures 12–13).
pub fn plain_total(
    levels: &[LevelPattern],
    topo: &Topology,
    protocol: Protocol,
    wrapped: bool,
    model: &LocalityModel,
) -> f64 {
    per_level_times(levels, topo, protocol, wrapped, model)
        .iter()
        .sum()
}

/// Total graph-creation cost: one `MPI_Dist_graph_create_adjacent` per
/// level (Figure 6's series).
pub fn graph_creation_total(
    levels: &[LevelPattern],
    topo: &Topology,
    model: &LocalityModel,
    spectrum_like: bool,
) -> f64 {
    levels
        .iter()
        .map(|lp| {
            let plan = Protocol::StandardHypre.plan(&lp.pattern, topo);
            graph_creation_time(&plan, topo, model, spectrum_like)
        })
        .sum()
}

/// Find where line `a0 + iters·a1` crosses below `b0 + iters·b1`
/// (fractional iterations; `None` if it never does).
pub fn crossover(init_a: f64, iter_a: f64, init_b: f64, iter_b: f64) -> Option<f64> {
    // a = expensive-init/cheap-iteration candidate, b = baseline
    if iter_a >= iter_b {
        return None;
    }
    Some((init_a - init_b) / (iter_b - iter_a))
}

/// Convenience: hierarchy → level patterns + the topology used.
pub fn build_levels(h: &Hierarchy, n_ranks: usize) -> (Vec<LevelPattern>, Topology) {
    (
        level_patterns(h, n_ranks),
        crate::workload::paper_topology(n_ranks),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::paper_hierarchy;

    #[test]
    fn per_level_series_have_hierarchy_length() {
        let h = paper_hierarchy(64, 32);
        let (levels, topo) = build_levels(&h, 16);
        let model = paper_model();
        for (p, wrapped) in SERIES {
            assert_eq!(
                per_level_times(&levels, &topo, p, wrapped, &model).len(),
                h.n_levels()
            );
        }
    }

    #[test]
    fn unoptimized_neighbor_is_hypre_behind_the_wrapper() {
        let h = paper_hierarchy(64, 32);
        let (levels, topo) = build_levels(&h, 32);
        let model = paper_model();
        let [hypre, unopt, ..] = SERIES;
        assert_eq!(hypre, (Protocol::StandardHypre, false));
        assert_eq!(unopt, (Protocol::StandardHypre, true));
        let init = |(p, _): (Protocol, bool)| {
            let init = per_level_init(&levels, &topo, p, &model);
            init.into_iter().map(f64::to_bits).collect::<Vec<_>>()
        };
        assert_eq!(init(unopt), init(hypre));
        let time = |(p, wrapped)| per_level_times(&levels, &topo, p, wrapped, &model);
        for (level, (h, w)) in time(hypre).iter().zip(&time(unopt)).enumerate() {
            assert!(
                *h < *w && *w < 1.2 * *h,
                "level {level}: hypre {h}, wrapped {w}"
            );
        }
    }

    #[test]
    fn crossover_math() {
        // a: init 10, slope 1; b: init 0, slope 2 → crossover at 10
        assert_eq!(crossover(10.0, 1.0, 0.0, 2.0), Some(10.0));
        assert_eq!(crossover(10.0, 2.0, 0.0, 1.0), None);
    }

    #[test]
    fn graph_creation_scaling_shapes() {
        // Figure 6's defining property at test scale: the spectrum-like
        // cost grows with process count much faster than the mvapich-like
        // cost on a strong-scaled problem.
        let h = paper_hierarchy(64, 32);
        let model = paper_model();
        let cost = |p: usize, spectrum: bool| {
            let (levels, topo) = build_levels(&h, p);
            graph_creation_total(&levels, &topo, &model, spectrum)
        };
        let spectrum_growth = cost(64, true) / cost(8, true);
        let mvapich_growth = cost(64, false) / cost(8, false);
        assert!(
            spectrum_growth > 2.0 * mvapich_growth,
            "spectrum {spectrum_growth}x vs mvapich {mvapich_growth}x"
        );
    }

    #[test]
    fn init_totals_follow_figure_7_ordering() {
        let h = paper_hierarchy(64, 32);
        let (levels, topo) = build_levels(&h, 32);
        let model = paper_model();
        let total = |p: Protocol| {
            per_level_init(&levels, &topo, p, &model)
                .iter()
                .sum::<f64>()
        };
        let std_n = total(Protocol::StandardHypre);
        let partial = total(Protocol::PartialNeighbor);
        let full = total(Protocol::FullNeighbor);
        assert!(std_n < full && full < partial, "{std_n} {full} {partial}");
    }

    #[test]
    fn stats_series_match_figures_8_9_shape() {
        let h = paper_hierarchy(64, 32);
        let (levels, topo) = build_levels(&h, 32);
        let st = per_level_stats(&levels, &topo, Protocol::StandardHypre);
        let fu = per_level_stats(&levels, &topo, Protocol::FullNeighbor);
        let peak_std_global = st.iter().map(|s| s.max_global_msgs).max().unwrap();
        let peak_opt_global = fu.iter().map(|s| s.max_global_msgs).max().unwrap();
        let peak_std_local = st.iter().map(|s| s.max_local_msgs).max().unwrap();
        let peak_opt_local = fu.iter().map(|s| s.max_local_msgs).max().unwrap();
        assert!(peak_opt_global < peak_std_global);
        assert!(peak_opt_local > peak_std_local);
    }

    #[test]
    fn best_of_never_exceeds_plain_standard() {
        let h = paper_hierarchy(64, 32);
        let (levels, topo) = build_levels(&h, 32);
        let model = paper_model();
        let std_total = plain_total(&levels, &topo, Protocol::StandardHypre, false, &model);
        let best = best_of_total(&levels, &topo, Protocol::FullNeighbor, &model);
        assert!(best <= std_total + 1e-12);
    }
}
