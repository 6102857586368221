//! Dynamic protocol selection across an AMG hierarchy.
//!
//! The paper's future-work proposal (§5): "a simple performance measure is
//! needed within the neighborhood collective to dynamically select the
//! optimal communication strategy". This example implements it — on every
//! level of a rotated anisotropic diffusion hierarchy the model-driven
//! selector picks the cheapest protocol, and the summed cost is compared
//! against committing to any single protocol everywhere.
//!
//! Run with: `cargo run --release --example dynamic_selection`

use amg::{DistributedHierarchy, Hierarchy, HierarchyOptions};
use locality::Topology;
use mpi_advance::analytic::iteration_time;
use mpi_advance::{Backend, NeighborBatch, Protocol};
use perfmodel::LocalityModel;
use sparse::gen::diffusion::paper_problem;

const RANKS: usize = 128;
const PPN: usize = 16;

fn main() {
    let a = paper_problem(256, 128);
    let h = Hierarchy::setup(a, HierarchyOptions::default());
    let dist = DistributedHierarchy::build(&h, RANKS);
    let topo = Topology::block_nodes(RANKS, PPN);
    let model = LocalityModel::lassen();

    println!(
        "{:<6} {:>9} {:>10} {:>12}  selected protocol",
        "level", "rows", "msgs", "time s"
    );
    let mut committed = [0.0f64; Protocol::ALL.len()];
    let mut selected_total = 0.0;
    for dlvl in &dist.levels {
        let pattern = dlvl.pattern();
        for (i, p) in Protocol::ALL.into_iter().enumerate() {
            committed[i] +=
                iteration_time(&p.plan(&pattern, &topo), &topo, &model, p.is_wrapped()).total;
        }
        if pattern.total_msgs() == 0 {
            println!(
                "{:<6} {:>9} {:>10} {:>12}  (idle)",
                dlvl.level, dlvl.n_rows, 0, "-"
            );
            continue;
        }
        // Backend::Auto resolves exactly this selection at init time.
        let coll = NeighborBatch::new(&topo)
            .entry(&pattern, Backend::Auto)
            .cost_model(&model);
        let (winner, plan) = &coll.plans()[0];
        let t = iteration_time(plan, &topo, &model, winner.is_wrapped()).total;
        selected_total += t;
        println!(
            "{:<6} {:>9} {:>10} {:>12.3e}  {}",
            dlvl.level,
            dlvl.n_rows,
            pattern.total_msgs(),
            t,
            winner.label()
        );
    }

    println!("\ntotal per-iteration cost committing to one protocol everywhere:");
    for (i, p) in Protocol::ALL.into_iter().enumerate() {
        println!("  {:<30} {:.3e} s", p.label(), committed[i]);
    }
    println!("  {:<30} {:.3e} s", "dynamic selection", selected_total);
    let best_committed = committed.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "\ndynamic selection is {:.1}% better than the best single protocol",
        100.0 * (best_committed - selected_total) / best_committed
    );
    assert!(selected_total <= best_committed + 1e-12);
}
