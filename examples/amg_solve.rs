//! BoomerAMG solve with neighborhood-collective SpMV communication.
//!
//! Reproduces the paper's application scenario in miniature: a rotated
//! anisotropic diffusion system is solved with AMG, and the SpMV
//! halo exchange on every level runs through a persistent neighborhood
//! collective on the simulated MPI runtime. The whole hierarchy is driven
//! the way a real solve drives it — **one warm `WorldPool`, one
//! `NeighborBatch` holding every level's collective**: the batch plans all
//! levels up front and, since every level runs the same backend, plans
//! them as one union collective — one message per rank pair and step for
//! the whole hierarchy — routed in one fused sweep and registered in a
//! single pass; one **`start_all`** posts that collective and a
//! **`wait_any`** loop retires the levels, together and in level order,
//! once it lands, running each level's SpMV as its level is retired
//! (levels on different backends would be separate collectives, retired
//! in delivery order). The distributed SpMV results are checked against
//! the serial operator, and the per-level communication statistics are
//! reported.
//!
//! Run with: `cargo run --release --example amg_solve`

use amg::{solve, DistributedHierarchy, Hierarchy, HierarchyOptions, SolveOptions};
use locality::Topology;
use mpi_advance::{Backend, NeighborBatch, PlanStats, Protocol};
use mpisim::World;
use sparse::gen::diffusion::paper_problem;
use sparse::vector::random_vec;
use sparse::ParCsr;

const RANKS: usize = 16;
const PPN: usize = 4;

fn main() {
    // The paper's PDE at a laptop-friendly size.
    let (nx, ny) = (128, 64);
    let a = paper_problem(nx, ny);
    println!(
        "rotated anisotropic diffusion: {} rows, {} nnz",
        a.n_rows(),
        a.nnz()
    );

    // --- serial AMG solve (the solver whose SpMVs we distribute) --------
    let h = Hierarchy::setup(a.clone(), HierarchyOptions::default());
    println!("hierarchy: {} levels {:?}", h.n_levels(), h.level_sizes());
    let x_true = random_vec(a.n_rows(), 42);
    let b = a.spmv(&x_true);
    let result = solve(&h, &b, &SolveOptions::default());
    println!(
        "AMG solve: converged = {}, cycles = {}, avg residual reduction = {:.3}\n",
        result.converged,
        result.residual_history.len() - 1,
        result.avg_convergence_factor()
    );

    // --- per-level communication statistics ------------------------------
    let dist = DistributedHierarchy::build(&h, RANKS);
    let topo = Topology::block_nodes(RANKS, PPN);
    let patterns = dist.patterns();

    println!(
        "{:<6} {:>8} {:>10} {:>12} {:>12} {:>14}",
        "level", "rows", "std msgs", "opt global", "opt local", "dedup save"
    );
    for (lvl, (dlvl, pattern)) in dist.levels.iter().zip(&patterns).enumerate() {
        if pattern.total_msgs() == 0 {
            println!("{lvl:<6} {:>8} (no communication)", dlvl.n_rows);
            continue;
        }
        let st = PlanStats::of(&Protocol::StandardHypre.plan(pattern, &topo));
        let pa = PlanStats::of(&Protocol::PartialNeighbor.plan(pattern, &topo));
        let fu = PlanStats::of(&Protocol::FullNeighbor.plan(pattern, &topo));
        let save = if pa.total_global_bytes > 0 {
            100.0 * (pa.total_global_bytes - fu.total_global_bytes) as f64
                / pa.total_global_bytes as f64
        } else {
            0.0
        };
        println!(
            "{lvl:<6} {:>8} {:>10} {:>12} {:>12} {:>13.1}%",
            dlvl.n_rows, st.total_global_msgs, fu.total_global_msgs, fu.total_local_msgs, save
        );
    }

    // --- every level's SpMV through ONE batch on ONE pooled world --------
    // One session owns the hierarchy: all levels planned/tagged/staged
    // together, all simultaneously live, registered in a single pass over
    // the warm world's channel registry.
    let mut batch = NeighborBatch::new(&topo);
    for pattern in &patterns {
        batch = batch.entry(pattern, Backend::Protocol(Protocol::FullNeighbor));
    }
    let xs: Vec<Vec<f64>> = dist
        .levels
        .iter()
        .map(|dlvl| random_vec(dlvl.n_rows, dlvl.level as u64))
        .collect();
    let pars: Vec<Vec<ParCsr>> = dist
        .levels
        .iter()
        .map(|dlvl| ParCsr::split_all(&h.levels[dlvl.level].a, &dlvl.part))
        .collect();

    let pool = World::pool(RANKS);
    let results = pool.run(|ctx| {
        let comm = ctx.comm_world();
        let me = ctx.rank();
        // MPI_Neighbor_alltoallv_init × n_levels, as one operation
        let mut session = batch.init_all(ctx, &comm);
        // post every level's exchange with ONE call: the levels share a
        // backend, so start_all runs them as one union collective, and
        // wait_any retires them together, in level order, once it lands —
        // each level's SpMV runs as its level is retired. (Levels on
        // different backends are separate collectives: wait_any retires
        // whichever lands first, and its SpMV overlaps the others'
        // traffic.)
        let inputs: Vec<Vec<f64>> = session
            .requests()
            .iter()
            .enumerate()
            .map(|(lvl, req)| req.input_index().iter().map(|&i| xs[lvl][i]).collect())
            .collect();
        let mut ghosts: Vec<Vec<f64>> = session
            .requests()
            .iter()
            .map(|req| vec![0.0; req.output_index().len()])
            .collect();
        session.start_all(ctx, &inputs);
        let mut ys: Vec<Vec<f64>> = vec![Vec::new(); session.len()];
        while session.in_flight() > 0 {
            let lvl = session.wait_any(ctx, &mut ghosts);
            let range = dist.levels[lvl].part.range(me);
            // ghosts arrive ordered by global index = col_map_offd order
            ys[lvl] = pars[lvl][me].spmv(&xs[lvl][range], &ghosts[lvl]);
        }
        ys
    });

    for (lvl, dlvl) in dist.levels.iter().enumerate() {
        let serial = h.levels[lvl].a.spmv(&xs[lvl]);
        let mut y = Vec::with_capacity(dlvl.n_rows);
        for rank_results in &results {
            y.extend(&rank_results[lvl]);
        }
        let max_err = y
            .iter()
            .zip(&serial)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-12, "level {lvl} SpMV mismatch: {max_err}");
    }
    println!(
        "\nall {} levels posted with one start_all as one union collective and",
        dist.n_levels()
    );
    println!("retired by wait_any in level order, each level's SpMV as it is retired;");
    println!("every distributed SpMV matches the serial operator bit-for-bit ✓");
}
