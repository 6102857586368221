//! Headline results table: the paper's abstract/§4 claims side by side with
//! the reproduction's measurements at the paper's scale.

use bench_suite::figures::{
    best_of_total, build_levels, crossover, paper_model, per_level_init, per_level_stats,
    per_level_times, plain_total, SERIES,
};
use bench_suite::workload::{paper_hierarchy, weak_scaling_grid, PAPER_NX, PAPER_NY};
use mpi_advance::stats::VALUE_BYTES;
use mpi_advance::Protocol;

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let (nx, ny, p) = if small {
        (128, 64, 64)
    } else {
        (PAPER_NX, PAPER_NY, 2048)
    };
    let model = paper_model();

    eprintln!("# building strong-scaled hierarchy {}x{}...", nx, ny);
    let h = paper_hierarchy(nx, ny);
    let (levels, topo) = build_levels(&h, p);

    // strong-scaling speedups at the largest scale
    let std_total = plain_total(&levels, &topo, Protocol::StandardHypre, false, &model);
    let partial = best_of_total(&levels, &topo, Protocol::PartialNeighbor, &model);
    let full = best_of_total(&levels, &topo, Protocol::FullNeighbor, &model);

    // crossovers (Figure 7)
    let init: Vec<f64> = SERIES
        .iter()
        .map(|&(pr, _)| per_level_init(&levels, &topo, pr, &model).iter().sum())
        .collect();
    let iter: Vec<f64> = SERIES
        .iter()
        .map(|&(pr, w)| per_level_times(&levels, &topo, pr, w, &model).iter().sum())
        .collect();
    let x_partial = crossover(init[2], iter[2], init[0], iter[0]);
    let x_full = crossover(init[3], iter[3], init[0], iter[0]);

    // dedup reduction (Figure 10)
    let pa = per_level_stats(&levels, &topo, Protocol::PartialNeighbor);
    let fu = per_level_stats(&levels, &topo, Protocol::FullNeighbor);
    let best_cut = pa
        .iter()
        .zip(&fu)
        .filter(|(a, _)| a.max_global_bytes > 0)
        .map(|(a, b)| {
            100.0 * (a.max_global_bytes - b.max_global_bytes) as f64 / a.max_global_bytes as f64
        })
        .fold(0.0f64, f64::max);
    let _ = VALUE_BYTES;

    // weak scaling at the largest scale
    let (wnx, wny) = weak_scaling_grid(p);
    eprintln!("# building weak-scaled hierarchy {}x{}...", wnx, wny);
    let hw = paper_hierarchy(wnx, wny);
    let (wlevels, wtopo) = build_levels(&hw, p);
    let w_std = plain_total(&wlevels, &wtopo, Protocol::StandardHypre, false, &model);
    let w_partial = best_of_total(&wlevels, &wtopo, Protocol::PartialNeighbor, &model);
    let w_full = best_of_total(&wlevels, &wtopo, Protocol::FullNeighbor, &model);

    println!("claim,paper,measured");
    println!(
        "strong scaling partial speedup @{p},1.32x,{:.2}x",
        std_total / partial
    );
    println!(
        "strong scaling full extra speedup @{p},+0.07x,+{:.2}x",
        std_total / full - std_total / partial
    );
    println!(
        "weak scaling partial speedup @{p},1.96x,{:.2}x",
        w_std / w_partial
    );
    println!(
        "weak scaling full extra speedup @{p},+0.21x,+{:.2}x",
        w_std / w_full - w_std / w_partial
    );
    println!(
        "crossover iterations partial,40,{}",
        x_partial.map_or("never".into(), |v| format!("{v:.0}"))
    );
    println!(
        "crossover iterations full,22,{}",
        x_full.map_or("never".into(), |v| format!("{v:.0}"))
    );
    println!("max dedup volume reduction,35%,{best_cut:.0}%");
}
