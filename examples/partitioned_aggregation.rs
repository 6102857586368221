//! Partitioned locality-aware aggregation — the paper's §5 combination.
//!
//! Runs the fully optimized neighborhood collective with its inter-region
//! messages whole and split at their partition bounds
//! (`Backend::Partitioned`) on the simulated runtime with the virtual
//! clock attached, and reports the end-to-end iteration time of each.
//!
//! Run with: `cargo run --release --example partitioned_aggregation`

use locality::Topology;
use mpi_advance::{Backend, CommPattern, NeighborAlltoallv, Protocol};
use mpisim::World;
use perfmodel::LocalityModel;
use std::sync::Arc;

fn staggered_pattern() -> CommPattern {
    // region 0 stages very uneven contributions toward region 1
    let idx = |base: usize, n: usize| (base..base + n).collect::<Vec<usize>>();
    CommPattern::new(
        8,
        vec![
            vec![(4, idx(0, 2_000))],
            vec![(5, idx(100_000, 6_000))],
            vec![(6, idx(200_000, 10_000))],
            vec![(7, idx(300_000, 30_000))],
            vec![],
            vec![],
            vec![],
            vec![],
        ],
    )
}

fn run(pattern: &CommPattern, topo: &Topology, partitioned: bool) -> f64 {
    let backend = if partitioned {
        Backend::Partitioned(Protocol::FullNeighbor)
    } else {
        Backend::Protocol(Protocol::FullNeighbor)
    };
    let coll = NeighborAlltoallv::new(pattern, topo).backend(backend);
    let mut m = LocalityModel::lassen();
    m.queue_coeff = 0.0;
    let model = Arc::new(m);
    let clocks = World::run_modeled(topo.clone(), model, |ctx| {
        let comm = ctx.comm_world();
        let input = vec![1.0f64; pattern.src_indices(ctx.rank()).len()];
        let mut output = vec![0.0; pattern.dst_indices(ctx.rank()).len()];
        ctx.barrier(&comm);
        let t0 = ctx.clock();
        let mut nb = coll.init(ctx, &comm);
        for _ in 0..10 {
            nb.start_wait(ctx, &input, &mut output);
        }
        ctx.clock() - t0
    });
    clocks.into_iter().fold(0.0, f64::max) / 10.0
}

fn main() {
    let pattern = staggered_pattern();
    let topo = Topology::block_nodes(8, 4);

    println!("staggered large-message aggregation, 8 ranks, 2 regions:");
    let plain = run(&pattern, &topo, false);
    let parted = run(&pattern, &topo, true);
    println!("  plain aggregated iteration:        {plain:.3e} s");
    println!("  partitioned aggregated iteration:  {parted:.3e} s");
    println!(
        "  delta: {:+.1}% (one message per staging rank instead of one per region pair)",
        100.0 * (parted - plain) / plain
    );
}
