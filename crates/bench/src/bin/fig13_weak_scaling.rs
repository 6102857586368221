//! Figure 13: weak scaling of the total SpMV communication over every
//! level of the hierarchy, 256 rows per process (524 288 rows at 2048
//! processes), 32–2048 processes.
//!
//! Paper reference points: at 2048 cores, locality-aware aggregation gives
//! 1.96× and duplicate removal a further 0.21×.

use bench_suite::figures::{best_of_total, build_levels, paper_model, plain_total};
use bench_suite::workload::{paper_hierarchy, weak_scaling_grid};
use mpi_advance::Protocol;

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let procs: Vec<usize> = if small {
        vec![8, 16, 32]
    } else {
        vec![32, 64, 128, 256, 512, 1024, 2048]
    };
    let model = paper_model();

    println!("figure,procs,rows,standard_hypre_s,standard_neighbor_s,partial_s,full_s,partial_speedup,full_speedup");
    let mut last = (0.0, 0.0, 0.0);
    for &p in &procs {
        let (nx, ny) = weak_scaling_grid(p);
        eprintln!("# {p} procs: building hierarchy for {nx}x{ny}...");
        let h = paper_hierarchy(nx, ny);
        let (levels, topo) = build_levels(&h, p);
        let std_h = plain_total(&levels, &topo, Protocol::StandardHypre, false, &model);
        let std_n = plain_total(&levels, &topo, Protocol::StandardHypre, true, &model);
        let partial = best_of_total(&levels, &topo, Protocol::PartialNeighbor, &model);
        let full = best_of_total(&levels, &topo, Protocol::FullNeighbor, &model);
        last = (std_h, partial, full);
        println!(
            "fig13,{p},{},{std_h:.7},{std_n:.7},{partial:.7},{full:.7},{:.2},{:.2}",
            nx * ny,
            std_h / partial,
            std_h / full
        );
    }
    let (std_h, partial, full) = last;
    println!(
        "# paper at 2048: partial 1.96x, full adds +0.21x; measured: partial {:.2}x, full {:.2}x",
        std_h / partial,
        std_h / full
    );
    assert!(full <= partial + 1e-12 && partial <= std_h);
}
