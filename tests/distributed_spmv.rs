//! End-to-end integration: distributed SpMV through every protocol on the
//! simulated MPI runtime must reproduce the serial operator exactly, for
//! grid and random matrices across partitionings and region sizes.

use locality::Topology;
use mpi_advance::{Backend, CommPattern, NeighborBatch, Protocol};
use mpisim::World;
use sparse::gen::diffusion::paper_problem;
use sparse::gen::{laplace_2d_5pt, random_spd};
use sparse::vector::random_vec;
use sparse::{build_comm_pkgs, Csr, ParCsr, Partition};

/// Distributed SpMV of `a` over `ranks` ranks with `ppn` ranks per node,
/// using `protocol` for the halo exchange; asserts equality with serial.
fn check_spmv(a: &Csr, ranks: usize, ppn: usize, protocol: Protocol, seed: u64) {
    let part = Partition::block(a.n_rows(), ranks);
    let pkgs = build_comm_pkgs(a, &part);
    let pattern = CommPattern::from_comm_pkgs(&pkgs);
    let topo = Topology::block_nodes(ranks, ppn);
    let coll = NeighborBatch::new(&topo).entry(&pattern, Backend::Protocol(protocol));
    let pars: Vec<ParCsr> = ParCsr::split_all(a, &part);
    let x = random_vec(a.n_rows(), seed);
    let serial = a.spmv(&x);

    let results = World::run(ranks, |ctx| {
        let comm = ctx.comm_world();
        let me = ctx.rank();
        let mut nb = coll.init_all(ctx, &comm).into_requests().remove(0);
        let input: Vec<f64> = nb.input_index().iter().map(|&i| x[i]).collect();
        let mut ghost = vec![0.0; nb.output_index().len()];
        nb.start_wait(ctx, &input, &mut ghost);
        // ghost values arrive sorted by global index — exactly the order of
        // col_map_offd
        assert_eq!(nb.output_index(), pars[me].col_map_offd.as_slice());
        pars[me].spmv(&x[part.range(me)], &ghost)
    });

    let mut y = Vec::with_capacity(a.n_rows());
    for r in results {
        y.extend(r);
    }
    for (i, (got, want)) in y.iter().zip(&serial).enumerate() {
        assert!(
            (got - want).abs() < 1e-12,
            "row {i} mismatch under {protocol}: {got} vs {want}"
        );
    }
}

#[test]
fn laplacian_all_protocols() {
    let a = laplace_2d_5pt(16, 16);
    for protocol in Protocol::ALL {
        check_spmv(&a, 8, 4, protocol, 1);
    }
}

#[test]
fn rotated_anisotropic_all_protocols() {
    let a = paper_problem(32, 16);
    for protocol in Protocol::ALL {
        check_spmv(&a, 16, 4, protocol, 2);
    }
}

#[test]
fn random_irregular_all_protocols() {
    // irregular (non-grid) sparsity exercises many-destination fan-outs
    let a = random_spd(300, 12, 99);
    for protocol in Protocol::ALL {
        check_spmv(&a, 12, 4, protocol, 3);
    }
}

#[test]
fn uneven_partitions_and_region_sizes() {
    let a = paper_problem(20, 13); // 260 rows, not divisible by ranks
    for (ranks, ppn) in [(7, 3), (9, 4), (5, 5), (11, 2)] {
        check_spmv(&a, ranks, ppn, Protocol::FullNeighbor, ranks as u64);
    }
}

#[test]
fn more_ranks_than_coarse_rows() {
    // ranks outnumber matrix rows: some ranks own nothing
    let a = laplace_2d_5pt(3, 3);
    check_spmv(&a, 16, 4, Protocol::FullNeighbor, 4);
    check_spmv(&a, 16, 4, Protocol::PartialNeighbor, 5);
}

#[test]
fn repeated_iterations_with_fresh_values() {
    // persistent requests must transport *current* buffer contents
    let a = laplace_2d_5pt(12, 12);
    let ranks = 6;
    let part = Partition::block(a.n_rows(), ranks);
    let pkgs = build_comm_pkgs(&a, &part);
    let pattern = CommPattern::from_comm_pkgs(&pkgs);
    let topo = Topology::block_nodes(ranks, 3);
    let coll =
        NeighborBatch::new(&topo).entry(&pattern, Backend::Protocol(Protocol::PartialNeighbor));
    let pars: Vec<ParCsr> = ParCsr::split_all(&a, &part);

    let iters = 5u64;
    let results = World::run(ranks, |ctx| {
        let comm = ctx.comm_world();
        let me = ctx.rank();
        let mut nb = coll.init_all(ctx, &comm).into_requests().remove(0);
        let mut outs = Vec::new();
        for it in 0..iters {
            let x = random_vec(a.n_rows(), it);
            let input: Vec<f64> = nb.input_index().iter().map(|&i| x[i]).collect();
            let mut ghost = vec![0.0; nb.output_index().len()];
            nb.start_wait(ctx, &input, &mut ghost);
            outs.push(pars[me].spmv(&x[part.range(me)], &ghost));
        }
        outs
    });

    for it in 0..iters {
        let x = random_vec(a.n_rows(), it);
        let serial = a.spmv(&x);
        let mut y = Vec::new();
        for r in &results {
            y.extend_from_slice(&r[it as usize]);
        }
        for (got, want) in y.iter().zip(&serial) {
            assert!((got - want).abs() < 1e-12, "iteration {it} mismatch");
        }
    }
}
