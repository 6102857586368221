//! A complete distributed solver on the simulated runtime: unpreconditioned
//! conjugate gradients where **every** SpMV halo exchange runs through a
//! persistent neighborhood collective and every reduction through the
//! simulated MPI collectives — the paper's application scenario end to end
//! (irregular communication inside an iterative solver, §1).

use locality::Topology;
use mpi_advance::{Backend, CommPattern, NeighborBatch, Protocol};
use mpisim::collectives::op_sum_f64;
use mpisim::World;
use sparse::gen::diffusion::paper_problem;
use sparse::vector::{norm2, random_vec};
use sparse::{build_comm_pkgs, Csr, ParCsr, Partition};

/// Distributed CG for `A x = b`, returning the global solution and the
/// number of iterations. SPMD over `ranks` simulated processes.
fn distributed_cg(
    a: &Csr,
    b: &[f64],
    ranks: usize,
    ppn: usize,
    protocol: Protocol,
    tol: f64,
    max_iters: usize,
) -> (Vec<f64>, usize) {
    let n = a.n_rows();
    let part = Partition::block(n, ranks);
    let pkgs = build_comm_pkgs(a, &part);
    let pattern = CommPattern::from_comm_pkgs(&pkgs);
    let topo = Topology::block_nodes(ranks, ppn);
    let coll = NeighborBatch::new(&topo).entry(&pattern, Backend::Protocol(protocol));
    let pars: Vec<ParCsr> = ParCsr::split_all(a, &part);

    let results = World::run(ranks, |ctx| {
        let comm = ctx.comm_world();
        let me = ctx.rank();
        let par = &pars[me];
        let range = part.range(me);
        let local_n = range.len();
        let b_local = &b[range.clone()];

        let mut nb = coll.init_all(ctx, &comm).into_requests().remove(0);
        // positions of the exported values within the local vector
        let export: Vec<usize> = nb.input_index().iter().map(|&g| g - range.start).collect();

        let mut ghost = vec![0.0f64; nb.output_index().len()];
        // distributed SpMV: halo exchange + local diag/offd multiply
        macro_rules! spmv {
            ($v:expr) => {{
                let input: Vec<f64> = export.iter().map(|&pos| $v[pos]).collect();
                nb.start_wait(ctx, &input, &mut ghost);
                par.spmv(&$v, &ghost)
            }};
        }
        let dot = |ctx: &mut mpisim::RankCtx, u: &[f64], v: &[f64]| -> f64 {
            let local: f64 = u.iter().zip(v).map(|(a, b)| a * b).sum();
            ctx.allreduce(&comm, &[local], op_sum_f64)[0]
        };

        let mut x = vec![0.0f64; local_n];
        let mut r = b_local.to_vec();
        let mut p = r.clone();
        let mut rr = dot(ctx, &r, &r);
        let b_norm = dot(ctx, b_local, b_local).sqrt().max(f64::MIN_POSITIVE);
        let mut iters = 0;
        for _ in 0..max_iters {
            if rr.sqrt() / b_norm < tol {
                break;
            }
            iters += 1;
            let ap = spmv!(p);
            let pap = dot(ctx, &p, &ap);
            let alpha = rr / pap;
            for i in 0..local_n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            let rr_new = dot(ctx, &r, &r);
            let beta = rr_new / rr;
            rr = rr_new;
            for i in 0..local_n {
                p[i] = r[i] + beta * p[i];
            }
        }
        (x, iters)
    });

    let mut x = Vec::with_capacity(n);
    let mut iters = 0;
    for (xl, it) in results {
        x.extend(xl);
        iters = it;
    }
    (x, iters)
}

#[test]
fn distributed_cg_solves_the_paper_problem() {
    let a = paper_problem(24, 24);
    let x_true = random_vec(a.n_rows(), 21);
    let b = a.spmv(&x_true);
    let (x, iters) = distributed_cg(&a, &b, 12, 4, Protocol::FullNeighbor, 1e-10, 3000);
    let err: Vec<f64> = x.iter().zip(&x_true).map(|(a, b)| a - b).collect();
    assert!(
        norm2(&err) / norm2(&x_true) < 1e-6,
        "CG failed after {iters} iterations, rel err {}",
        norm2(&err) / norm2(&x_true)
    );
    assert!(iters > 0);
}

#[test]
fn all_protocols_agree_bit_for_bit() {
    // The communication protocol must not change the numerics at all:
    // identical iteration counts and identical solutions.
    let a = paper_problem(16, 16);
    let b = a.spmv(&random_vec(a.n_rows(), 22));
    let runs: Vec<(Vec<f64>, usize)> = Protocol::ALL
        .iter()
        .map(|&p| distributed_cg(&a, &b, 8, 4, p, 1e-8, 2000))
        .collect();
    for other in &runs[1..] {
        assert_eq!(
            runs[0].1, other.1,
            "iteration counts differ across protocols"
        );
        for (a, b) in runs[0].0.iter().zip(&other.0) {
            assert_eq!(a, b, "solutions differ bit-for-bit across protocols");
        }
    }
}

#[test]
fn ranks_do_not_change_the_math() {
    // Same solve distributed over different rank counts converges to the
    // same solution (CG trajectories differ only by floating-point
    // summation order in the local dots, which block partitioning keeps
    // identical here because dot ordering is rank-major either way).
    let a = paper_problem(12, 12);
    let x_true = random_vec(a.n_rows(), 23);
    let b = a.spmv(&x_true);
    for ranks in [2, 6, 9] {
        let (x, _) = distributed_cg(&a, &b, ranks, 3, Protocol::PartialNeighbor, 1e-10, 2000);
        let err: Vec<f64> = x.iter().zip(&x_true).map(|(a, b)| a - b).collect();
        assert!(norm2(&err) / norm2(&x_true) < 1e-6, "ranks={ranks}");
    }
}
