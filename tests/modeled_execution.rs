//! Integration of the virtual-clock execution path: running protocols on
//! `World::run_modeled` yields per-rank clocks whose ordering matches the
//! analytic evaluation.

use locality::Topology;
use mpi_advance::{Backend, CommPattern, NeighborAlltoallv, Protocol};
use mpisim::World;
use perfmodel::{LocalityModel, PostalModel};
use std::sync::Arc;

/// Execute `protocol` on the modeled world and return the max rank clock
/// after `iters` iterations (init excluded by subtracting the post-init
/// clock).
fn modeled_clock(pattern: &CommPattern, topo: &Topology, protocol: Protocol, iters: usize) -> f64 {
    let coll = NeighborAlltoallv::new(pattern, topo).protocol(protocol);
    // Disable the queue-search term: it charges by the actual mailbox depth
    // at match time, which depends on thread arrival order and would make
    // the clock comparison flaky. The postal arrival times themselves merge
    // through max() and are deterministic.
    let mut m = LocalityModel::lassen();
    m.queue_coeff = 0.0;
    let model = Arc::new(m);
    let clocks = World::run_modeled(topo.clone(), model, |ctx| {
        let comm = ctx.comm_world();
        let mut nb = coll.init(ctx, &comm);
        let input: Vec<f64> = nb.input_index().iter().map(|&i| i as f64).collect();
        let mut output = vec![0.0; nb.output_index().len()];
        // synchronize clocks after init so we measure iterations only
        ctx.barrier(&comm);
        let t0 = ctx.clock();
        for _ in 0..iters {
            nb.start(ctx, &input);
            nb.wait(ctx, &mut output);
        }
        ctx.clock() - t0
    });
    clocks.into_iter().fold(0.0, f64::max)
}

#[test]
fn aggregation_beats_standard_on_dense_pattern_clock() {
    // Many small inter-region messages per rank is the regime aggregation
    // targets; the *executed* virtual time must agree with the analytic
    // claim there.
    let topo = Topology::block_nodes(32, 4);
    let pattern = CommPattern::all_to_all_regions(&topo);
    let t_std = modeled_clock(&pattern, &topo, Protocol::StandardHypre, 10);
    let t_ful = modeled_clock(&pattern, &topo, Protocol::FullNeighbor, 10);
    assert!(
        t_ful < t_std,
        "executed virtual time: full {t_ful:.2e} should beat standard {t_std:.2e}"
    );
}

#[test]
fn dedup_clock_no_worse_than_partial() {
    let pattern = CommPattern::example_2_1();
    let topo = Topology::block_nodes(8, 4);
    let t_partial = modeled_clock(&pattern, &topo, Protocol::PartialNeighbor, 10);
    let t_full = modeled_clock(&pattern, &topo, Protocol::FullNeighbor, 10);
    assert!(
        t_full <= t_partial * 1.05,
        "full {t_full} vs partial {t_partial}"
    );
}

#[test]
fn clocks_scale_linearly_with_iterations() {
    let pattern = CommPattern::example_2_1();
    let topo = Topology::block_nodes(8, 4);
    let t1 = modeled_clock(&pattern, &topo, Protocol::StandardHypre, 5);
    let t2 = modeled_clock(&pattern, &topo, Protocol::StandardHypre, 10);
    let ratio = t2 / t1;
    assert!((1.6..=2.4).contains(&ratio), "expected ~2x, got {ratio}");
}

/// Executed virtual time of an aggregated plan with its g messages whole
/// or split at their partition bounds (`Backend::Partitioned`).
fn agg_clock(pattern: &CommPattern, topo: &Topology, partitioned: bool) -> f64 {
    let backend = if partitioned {
        Backend::Partitioned(Protocol::PartialNeighbor)
    } else {
        Backend::Protocol(Protocol::PartialNeighbor)
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
        for _ in 0..3 {
            nb.start_wait(ctx, &input, &mut output);
        }
        ctx.clock() - t0
    });
    clocks.into_iter().fold(0.0, f64::max)
}

#[test]
fn partitioned_near_parity_on_large_staggered_messages() {
    // §5's combination targets LARGE messages, where splitting a g message
    // at its partition bounds costs little: per-partition rendezvous
    // handshakes against the same sender-serialized bytes, so we assert
    // near-parity here.
    let topo = Topology::block_nodes(8, 4);
    let idx = |base: usize, n: usize| (base..base + n).collect::<Vec<usize>>();
    let pattern = CommPattern::new(
        8,
        vec![
            vec![(4, idx(0, 4_000))],
            vec![(5, idx(100_000, 8_000))],
            vec![(6, idx(200_000, 12_000))],
            vec![(7, idx(300_000, 40_000))], // the big, late contribution
            vec![],
            vec![],
            vec![],
            vec![],
        ],
    );
    let plain = agg_clock(&pattern, &topo, false);
    let parted = agg_clock(&pattern, &topo, true);
    assert!(
        parted <= plain * 1.10,
        "partitioned {parted:.3e} should be within 10% of plain {plain:.3e}"
    );
}

#[test]
fn partitioned_loses_on_tiny_messages() {
    // ... and conversely: with α-dominated single-value contributions the
    // extra per-partition message overhead makes partitioning a loss —
    // which is why the paper scopes it to large messages.
    let topo = Topology::block_nodes(16, 4);
    let pattern = CommPattern::all_to_all_regions(&topo);
    let plain = agg_clock(&pattern, &topo, false);
    let parted = agg_clock(&pattern, &topo, true);
    assert!(
        parted >= plain * 0.95,
        "tiny-message partitioning unexpectedly won: {parted:.3e} vs {plain:.3e}"
    );
}

#[test]
fn postal_model_collective_costs_logarithmic() {
    // sanity of the modeled collectives themselves: a barrier's virtual
    // time grows like log P, not P
    let time_for = |n: usize| {
        let topo = Topology::block_nodes(n, 4);
        let model = Arc::new(PostalModel::new(1e-6, 0.0));
        let clocks = World::run_modeled(topo, model, |ctx| {
            let comm = ctx.comm_world();
            ctx.barrier(&comm);
            ctx.clock()
        });
        clocks.into_iter().fold(0.0, f64::max)
    };
    let t8 = time_for(8);
    let t64 = time_for(64);
    // dissemination barrier: ⌈log2 P⌉ rounds ⇒ 3α vs 6α
    assert!(t64 < t8 * 3.0, "barrier not logarithmic: {t8} -> {t64}");
}
