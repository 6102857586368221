//! Figure 12: strong scaling of the total SpMV communication over every
//! level of the hierarchy, 524 288-row system, 32–2048 processes.
//!
//! The partially/fully optimized series use the standard protocol on any
//! level where it is faster (the paper's per-level selection methodology).
//!
//! Paper reference points: partial achieves 1.32× over standard at 2048
//! processes; full adds another 0.07×.

use bench_suite::figures::{best_of_total, build_levels, paper_model, plain_total};
use bench_suite::workload::{paper_hierarchy, PAPER_NX, PAPER_NY};
use mpi_advance::Protocol;

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let (nx, ny, procs): (usize, usize, Vec<usize>) = if small {
        (128, 64, vec![8, 16, 32, 64])
    } else {
        (PAPER_NX, PAPER_NY, vec![32, 64, 128, 256, 512, 1024, 2048])
    };

    eprintln!("# building hierarchy for {}x{}...", nx, ny);
    let h = paper_hierarchy(nx, ny);
    let model = paper_model();

    println!("figure,procs,standard_hypre_s,standard_neighbor_s,partial_s,full_s,partial_speedup,full_speedup");
    let mut last = (0.0, 0.0, 0.0);
    for &p in &procs {
        let (levels, topo) = build_levels(&h, p);
        let std_h = plain_total(&levels, &topo, Protocol::StandardHypre, false, &model);
        let std_n = plain_total(&levels, &topo, Protocol::StandardHypre, true, &model);
        let partial = best_of_total(&levels, &topo, Protocol::PartialNeighbor, &model);
        let full = best_of_total(&levels, &topo, Protocol::FullNeighbor, &model);
        let sp = std_h / partial;
        let sf = std_h / full;
        last = (std_h, partial, full);
        println!("fig12,{p},{std_h:.7},{std_n:.7},{partial:.7},{full:.7},{sp:.2},{sf:.2}");
    }
    let (std_h, partial, full) = last;
    println!(
        "# paper at 2048: partial speedup 1.32x, full adds +0.07x; measured: partial {:.2}x, full {:.2}x",
        std_h / partial,
        std_h / full
    );
    assert!(partial <= std_h && full <= partial + 1e-12);
}
