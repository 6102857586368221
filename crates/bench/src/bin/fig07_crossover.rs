//! Figure 7: initialization + per-iteration cost over iteration counts at
//! 2048 processes; crossover iterations against Standard Hypre.
//!
//! Paper reference points: the partially optimized implementation pays off
//! after ≈ 40 iterations, the fully optimized one after ≈ 22; standard
//! neighbor init is minimal; partial init exceeds full init (partial wraps
//! full).

use bench_suite::figures::{
    build_levels, crossover, paper_model, per_level_init, per_level_times, SERIES,
};
use bench_suite::workload::{paper_hierarchy, PAPER_NX, PAPER_NY};

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let (nx, ny, p) = if small {
        (128, 64, 64)
    } else {
        (PAPER_NX, PAPER_NY, 2048)
    };

    eprintln!("# building hierarchy for {}x{}...", nx, ny);
    let h = paper_hierarchy(nx, ny);
    let (levels, topo) = build_levels(&h, p);
    let model = paper_model();

    // totals over the hierarchy: init once per level, Start+Wait per level
    // per iteration
    let mut init = Vec::new();
    let mut per_iter = Vec::new();
    for (proto, wrapped) in SERIES {
        init.push(
            per_level_init(&levels, &topo, proto, &model)
                .iter()
                .sum::<f64>(),
        );
        per_iter.push(
            per_level_times(&levels, &topo, proto, wrapped, &model)
                .iter()
                .sum::<f64>(),
        );
    }

    println!("figure,iterations,standard_hypre_s,standard_neighbor_s,partial_s,full_s");
    for iters in (0..=60).step_by(5) {
        let cost: Vec<String> = (0..4)
            .map(|i| format!("{:.6}", init[i] + iters as f64 * per_iter[i]))
            .collect();
        println!("fig7,{iters},{}", cost.join(","));
    }

    let x_partial = crossover(init[2], per_iter[2], init[0], per_iter[0]);
    let x_full = crossover(init[3], per_iter[3], init[0], per_iter[0]);
    println!(
        "# init costs (s): {:?}",
        init.iter().map(|v| format!("{v:.5}")).collect::<Vec<_>>()
    );
    println!(
        "# per-iter costs (s): {:?}",
        per_iter
            .iter()
            .map(|v| format!("{v:.6}"))
            .collect::<Vec<_>>()
    );
    println!(
        "# crossover vs Standard Hypre: partial = {} iters (paper: 40), full = {} iters (paper: 22)",
        x_partial.map_or("never".into(), |v| format!("{v:.0}")),
        x_full.map_or("never".into(), |v| format!("{v:.0}")),
    );
    assert!(
        init[1] < init[3] && init[3] < init[2],
        "expected standard < full < partial init ordering"
    );
}
