//! Integration of the full paper pipeline: AMG hierarchy → per-level
//! patterns → neighborhood collectives, checking the qualitative claims of
//! the evaluation section at test scale.

use amg::{solve, DistributedHierarchy, Hierarchy, HierarchyOptions, SolveOptions};
use locality::Topology;
use mpi_advance::analytic::{init_time, iteration_time};
use mpi_advance::{CommPattern, PlanStats, Protocol};
use perfmodel::LocalityModel;
use sparse::gen::diffusion::paper_problem;
use sparse::vector::random_vec;

fn hierarchy() -> Hierarchy {
    Hierarchy::setup(paper_problem(64, 32), HierarchyOptions::default())
}

fn patterns(h: &Hierarchy, ranks: usize) -> Vec<CommPattern> {
    DistributedHierarchy::build(h, ranks)
        .levels
        .iter()
        .map(|l| l.pattern())
        .collect()
}

#[test]
fn solver_converges_on_paper_problem() {
    let h = hierarchy();
    let a = &h.levels[0].a;
    let x_true = random_vec(a.n_rows(), 0);
    let b = a.spmv(&x_true);
    let res = solve(
        &h,
        &b,
        &SolveOptions {
            max_iters: 200,
            ..Default::default()
        },
    );
    assert!(res.converged, "AMG failed on the paper problem");
}

#[test]
fn aggregation_trades_global_for_local_on_every_busy_level() {
    // Figures 8/9 shape at test scale.
    let h = hierarchy();
    let topo = Topology::block_nodes(32, 8);
    for pattern in patterns(&h, 32) {
        if pattern.total_msgs() == 0 {
            continue;
        }
        let st = PlanStats::of(&Protocol::StandardHypre.plan(&pattern, &topo));
        let fu = PlanStats::of(&Protocol::FullNeighbor.plan(&pattern, &topo));
        assert!(fu.total_global_msgs <= st.total_global_msgs);
    }
}

#[test]
fn dedup_reduces_volume_on_communication_heavy_levels() {
    // Figure 10 shape: the rotated anisotropic stencil duplicates boundary
    // values across destinations, so dedup must win somewhere.
    let h = hierarchy();
    let topo = Topology::block_nodes(32, 8);
    let mut any_reduction = false;
    for pattern in patterns(&h, 32) {
        let pa = PlanStats::of(&Protocol::PartialNeighbor.plan(&pattern, &topo));
        let fu = PlanStats::of(&Protocol::FullNeighbor.plan(&pattern, &topo));
        assert!(fu.total_global_bytes <= pa.total_global_bytes);
        if fu.total_global_bytes < pa.total_global_bytes {
            any_reduction = true;
        }
    }
    assert!(any_reduction, "dedup never reduced inter-region volume");
}

#[test]
fn optimized_wins_where_standard_peaks() {
    // Figure 11 shape: at the level where standard communication is most
    // expensive (the communication-dominated middle of the hierarchy),
    // aggregation must beat it. Needs a hierarchy deep enough for the
    // middle levels to reach the many-messages-per-process regime.
    let h = Hierarchy::setup(paper_problem(128, 64), HierarchyOptions::default());
    let ranks = 64;
    let topo = Topology::block_nodes(ranks, 16);
    let model = LocalityModel::lassen();
    let times: Vec<(f64, f64)> = patterns(&h, ranks)
        .iter()
        .map(|p| {
            let t_std = iteration_time(
                &Protocol::StandardHypre.plan(p, &topo),
                &topo,
                &model,
                false,
            )
            .total;
            let t_ful =
                iteration_time(&Protocol::FullNeighbor.plan(p, &topo), &topo, &model, true).total;
            (t_std, t_ful)
        })
        .collect();
    let peak = times
        .iter()
        .enumerate()
        .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
        .unwrap()
        .0;
    let (t_std, t_ful) = times[peak];
    assert!(
        t_ful < t_std,
        "fully optimized ({t_ful:.2e}) should beat standard ({t_std:.2e}) at peak level {peak}"
    );
}

#[test]
fn init_cost_ordering_holds_over_the_hierarchy() {
    // Figure 7's intercept ordering: standard < full < partial.
    let h = hierarchy();
    let topo = Topology::block_nodes(32, 8);
    let model = LocalityModel::lassen();
    let mut std_total = 0.0;
    let mut partial_total = 0.0;
    let mut full_total = 0.0;
    for pattern in patterns(&h, 32) {
        std_total += init_time(
            &Protocol::StandardHypre.plan(&pattern, &topo),
            &topo,
            &model,
        );
        partial_total += init_time(
            &Protocol::PartialNeighbor.plan(&pattern, &topo),
            &topo,
            &model,
        );
        full_total += init_time(&Protocol::FullNeighbor.plan(&pattern, &topo), &topo, &model);
    }
    assert!(
        std_total < full_total,
        "std {std_total} < full {full_total}"
    );
    assert!(
        full_total < partial_total,
        "full {full_total} < partial {partial_total}"
    );
}

#[test]
fn coarse_levels_engage_few_ranks() {
    // §4.1: "the coarsest levels are small enough in dimension that few
    // processes participate in communication".
    let h = hierarchy();
    let dist = DistributedHierarchy::build(&h, 64);
    let coarsest = dist.levels.last().unwrap();
    assert!(coarsest.active_ranks() < 64);
}
