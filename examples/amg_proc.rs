//! BoomerAMG SpMV halo exchange with ranks as **real OS processes**.
//!
//! The same application scenario as `amg_solve`, deployed as a process
//! world: `World::spawn` re-execs this binary once per rank and all halo
//! traffic crosses true process boundaries. The fabric is the first
//! argument. On `shm` (the default) every rank attaches to one `/dev/shm`
//! segment and talks over its SPSC rings — plain mailbox sends,
//! pre-matched persistent channels, and futex parking included; on `sock`
//! the ranks rendezvous over rank 0's listener and mesh up with framed,
//! acknowledged stream sockets. Every process builds the hierarchy, the
//! batch, and the serial reference deterministically, so each rank
//! verifies its own slice of every level's distributed SpMV against the
//! serial operator *inside* an epoch: any divergence aborts the whole
//! world loudly.
//!
//! For the thread-deployment shapes, `MPISIM_TRANSPORT=shm|sock` routes
//! `World::run` / `World::pool` over the same fabrics with ranks as
//! threads (see `amg_solve`), which is how the wire paths are exercised
//! without process management.
//!
//! Run with: `cargo run --release --example amg_proc [shm|sock]`

use amg::{DistributedHierarchy, Hierarchy, HierarchyOptions};
use locality::Topology;
use mpi_advance::{Backend, NeighborBatch, Protocol};
use mpisim::{Fabric, World};
use sparse::gen::diffusion::paper_problem;
use sparse::vector::random_vec;
use sparse::ParCsr;

const RANKS: usize = 8;
const PPN: usize = 4;

fn main() {
    // (worker processes re-enter this main with the same arguments)
    let fabric = match std::env::args().nth(1).as_deref() {
        None | Some("shm") => Fabric::Shm,
        Some("sock") => Fabric::Sock,
        Some(other) => panic!("unknown fabric {other:?}: expected shm or sock"),
    };

    // identical deterministic setup in every process (the batch's tag
    // lease comes from each process's fresh tag space, so all ranks carve
    // the same namespaces)
    let a = paper_problem(128, 64);
    let h = Hierarchy::setup(a, HierarchyOptions::default());
    let dist = DistributedHierarchy::build(&h, RANKS);
    let topo = Topology::block_nodes(RANKS, PPN);
    let patterns = dist.patterns();
    let mut batch = NeighborBatch::new(&topo);
    for pattern in &patterns {
        batch = batch.entry(pattern, Backend::Protocol(Protocol::FullNeighbor));
    }
    let xs: Vec<Vec<f64>> = dist
        .levels
        .iter()
        .map(|dlvl| random_vec(dlvl.n_rows, dlvl.level as u64))
        .collect();
    let serial: Vec<Vec<f64>> = dist
        .levels
        .iter()
        .enumerate()
        .map(|(lvl, dlvl)| h.levels[dlvl.level].a.spmv(&xs[lvl]))
        .collect();

    let world = World::spawn(fabric, RANKS);
    let me = world.rank();
    if me == 0 {
        println!(
            "hierarchy: {} levels {:?}; {RANKS} rank processes on the {} fabric",
            h.n_levels(),
            h.level_sizes(),
            fabric.name()
        );
    }
    let errs = world.run(|ctx| {
        let me = ctx.rank();
        let pars: Vec<ParCsr> = dist
            .levels
            .iter()
            .map(|dlvl| ParCsr::split_all(&h.levels[dlvl.level].a, &dlvl.part).swap_remove(me))
            .collect();
        let comm = ctx.comm_world();
        let mut session = batch.init_all(ctx, &comm);
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
        // one start_all posts every level's exchange across the process
        // fabric; wait_any retires levels in delivery order, each level's
        // SpMV overlapping the slower levels' in-flight traffic
        session.start_all(ctx, &inputs);
        let mut errs = vec![f64::NAN; session.len()];
        while session.in_flight() > 0 {
            let lvl = session.wait_any(ctx, &mut ghosts);
            let range = dist.levels[lvl].part.range(me);
            let y = pars[lvl].spmv(&xs[lvl][range.clone()], &ghosts[lvl]);
            let err = y
                .iter()
                .zip(&serial[lvl][range])
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(
                err < 1e-12,
                "rank {me} level {lvl}: distributed SpMV diverged ({err:.3e})"
            );
            errs[lvl] = err;
        }
        errs
    });

    if me == 0 {
        for (lvl, (dlvl, err)) in dist.levels.iter().zip(&errs).enumerate() {
            println!(
                "level {lvl:<2} {:>8} rows  rank-0 max |err| = {err:.3e}",
                dlvl.n_rows
            );
        }
        println!(
            "\nall {} levels exchanged across {RANKS} OS processes and verified",
            dist.n_levels()
        );
    }
}
