//! Figure 11: modeled Start+Wait cost of the SpMV communication on each
//! level of the hierarchy at 2048 processes, all four series.
//!
//! Paper reference points: fine levels favor standard communication
//! (aggregation overhead dominates); optimized collectives win near the
//! middle of the hierarchy where message counts peak; the coarsest levels
//! involve so few processes that all protocols converge.

use bench_suite::figures::{build_levels, paper_model, per_level_times, SERIES};
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

    let series: Vec<Vec<f64>> = SERIES
        .iter()
        .map(|&(proto, wrapped)| per_level_times(&levels, &topo, proto, wrapped, &model))
        .collect();

    println!("figure,level,rows,standard_hypre_s,standard_neighbor_s,partial_s,full_s");
    for (i, lp) in levels.iter().enumerate() {
        println!(
            "fig11,{},{},{:.8},{:.8},{:.8},{:.8}",
            lp.level, lp.n_rows, series[0][i], series[1][i], series[2][i], series[3][i]
        );
    }

    // shape checks mirroring the paper's observations
    let peak_level = (0..levels.len())
        .max_by(|&a, &b| series[0][a].total_cmp(&series[0][b]))
        .unwrap();
    println!("# standard communication peaks at level {peak_level}");
    println!(
        "# at the peak: standard {:.2e}s, partial {:.2e}s, full {:.2e}s",
        series[0][peak_level], series[2][peak_level], series[3][peak_level]
    );
    assert!(
        series[3][peak_level] < series[0][peak_level],
        "optimized collectives must win at the communication-dominated level"
    );
    assert!(
        series[2][0] >= series[0][0],
        "standard should be at least as good as aggregation on the fine level"
    );
}
