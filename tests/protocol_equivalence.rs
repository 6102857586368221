//! Cross-protocol equivalence: for random communication patterns on block
//! topologies, every backend of a one-entry `NeighborBatch` — the
//! paper protocols, the §5 partitioned combination, model-driven
//! auto-selection, and measured tuned selection (exercised mid-probe:
//! candidates hot-swap under the caller) — must deliver byte-identical
//! ghost values to a direct
//! exchange computed straight from the pattern. Each backend runs in a
//! one-shot spawned world, inside a shared warm [`WorldPool`], over
//! the cross-process shared-memory fabric ([`Fabric::Shm`] — the same
//! `ShmTransport` that backs ranks-as-OS-processes, exercised here with
//! rank threads), and over the socket fabric ([`Fabric::Sock`] — every
//! message framed, sequenced, and pushed through a real socket), so the
//! zero-copy pooled path and both wire paths are pinned byte-for-byte to
//! the same reference.
//!
//! A second property pins the [`NeighborBatch`] session API to the same
//! reference: a batch of N random (pattern, backend) entries — planned,
//! tagged, and staged together; spawned, pooled, and over the shm fabric
//! — must deliver byte-identical outputs to N independent one-entry
//! batches,
//! **whichever lifecycle drives it**: the completion-driven
//! `start_all`/`wait_any` retire loop, `start_all`/`wait_all` (both run
//! every union of entries that share a backend as one collective),
//! entries started one by one in an order that differs by rank (each on
//! its own collective, built at its first such start), and a session that
//! alternates `start_all` and one-by-one iterations are all pinned against
//! the independent `start_wait` reference.
//!
//! A count test pins what `init_all` registers: a union's channels and
//! nothing of its entries' own collectives until an entry is started on
//! its own.
//!
//! A final deterministic test pins `wait_any`'s ordering contract itself:
//! entries retire in **delivery** order, not init order, under a skewed
//! modeled topology whose send order is forced by out-of-band handshakes.
//!
//! Both properties additionally re-run sampled configurations under
//! seeded [`FaultPlan`] schedules (delivery delays, tag-legal reorders,
//! spurious wakeups) on both fabrics: injected faults perturb timing and
//! interleaving but must never change a single output byte.

use locality::Topology;
use mpi_advance::{tagspace, Backend, CommPattern, NeighborBatch, Protocol};
use mpisim::{Fabric, FaultPlan, World, WorldConfig, WorldPool};
use proptest::prelude::*;

/// A seeded timing-perturbation schedule (delays + tag-legal reorders +
/// spurious wakeups — no kills): the fault layer must be semantically
/// invisible, so every faulted run below is held to the same byte-exact
/// reference as the fault-free ones. The deadline is a safety net that
/// turns a chaos-induced hang into a loud failure.
fn perturb_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .delays(200, 120)
        .reorder(150)
        .spurious(100)
        .deadline_ms(30_000)
}

/// Random pattern over `n` ranks: each rank sends a few indices drawn from
/// its own index space (rank r owns [r·K, (r+1)·K), so origins are unique
/// by construction) to a few random peers.
fn arb_pattern(n: usize) -> impl Strategy<Value = CommPattern> {
    const K: usize = 16;
    prop::collection::vec(
        prop::collection::vec((0usize..n, prop::collection::vec(0usize..K, 1..5)), 0..4),
        n..=n,
    )
    .prop_map(move |raw| {
        let mut sends: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); n];
        for (src, list) in raw.into_iter().enumerate() {
            let mut per_dst: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
            for (dst, idx) in list {
                if dst == src {
                    continue;
                }
                per_dst
                    .entry(dst)
                    .or_default()
                    .extend(idx.iter().map(|&i| src * K + i));
            }
            for (dst, mut idx) in per_dst {
                idx.sort_unstable();
                idx.dedup();
                sends[src].push((dst, idx));
            }
        }
        CommPattern::new(n, sends)
    })
}

/// The value rank-owned index `i` carries in iteration `it`.
fn value(i: usize, it: u64) -> f64 {
    (i as f64) * 16.0 + (it as f64) * 0.25
}

/// Direct exchange: the ghost values each rank must end up with, computed
/// from the pattern alone (no communication).
fn expected_outputs(pattern: &CommPattern, it: u64) -> Vec<Vec<f64>> {
    (0..pattern.n_ranks)
        .map(|r| {
            pattern
                .dst_indices(r)
                .iter()
                .map(|&i| value(i, it))
                .collect()
        })
        .collect()
}

/// Iterations every body below drives: enough for an alternating session
/// to go from `start_all` to one-by-one starts and back.
const ITERS: u64 = 3;

/// One rank's SPMD body: [`ITERS`] iterations, raw output bits per
/// iteration.
fn backend_body(
    coll: &NeighborBatch,
    ctx: &mut mpisim::RankCtx,
    comm: &mpisim::Comm,
) -> Vec<Vec<u64>> {
    let mut req = coll.init_all(ctx, comm).into_requests().remove(0);
    let mut iters = Vec::new();
    for it in 0..ITERS {
        let input: Vec<f64> = req.input_index().iter().map(|&i| value(i, it)).collect();
        let mut output = vec![f64::NAN; req.output_index().len()];
        req.start_wait(ctx, &input, &mut output);
        iters.push(output.iter().map(|v| v.to_bits()).collect());
    }
    iters
}

/// Run `backend` in a fresh spawned world for [`ITERS`] iterations and collect
/// every rank's raw output bytes.
fn run_backend(pattern: &CommPattern, topo: &Topology, backend: Backend) -> Vec<Vec<Vec<u64>>> {
    let coll = NeighborBatch::new(topo).entry(pattern, backend);
    World::run(pattern.n_ranks, |ctx| {
        let comm = ctx.comm_world();
        backend_body(&coll, ctx, &comm)
    })
}

/// Run `backend` as one epoch of a shared warm pool — the pooled,
/// zero-copy steady-state path.
fn run_backend_pooled(
    pool: &WorldPool,
    pattern: &CommPattern,
    topo: &Topology,
    backend: Backend,
) -> Vec<Vec<Vec<u64>>> {
    let coll = NeighborBatch::new(topo).entry(pattern, backend);
    pool.run(|ctx| {
        let comm = ctx.comm_world();
        backend_body(&coll, ctx, &comm)
    })
}

/// Run `backend` in a fresh world over `fabric`, ranks as threads. On
/// shm that is the byte-payload `ShmTransport` wire path (mailbox rings,
/// chunking, pre-matched ring channels); on sock, every plain envelope and
/// persistent payload framed, sequenced, and acknowledged through a real
/// socket of the loopback mesh.
fn run_backend_on(
    fabric: Fabric,
    pattern: &CommPattern,
    topo: &Topology,
    backend: Backend,
) -> Vec<Vec<Vec<u64>>> {
    let coll = NeighborBatch::new(topo).entry(pattern, backend);
    WorldConfig::new(fabric).run(pattern.n_ranks, |ctx| {
        let comm = ctx.comm_world();
        backend_body(&coll, ctx, &comm)
    })
}

/// Every backend, for the batch property's per-entry draws. `Tuned`
/// rides with the default probe budget (12 ≫ the [`ITERS`] iterations
/// driven here), so these cases pin the **mid-probe** behavior: candidates
/// hot-swap under the caller's feet and every byte must still match.
const ALL_BACKENDS: [Backend; 7] = [
    Backend::Protocol(Protocol::StandardHypre),
    Backend::Protocol(Protocol::PartialNeighbor),
    Backend::Protocol(Protocol::FullNeighbor),
    Backend::Partitioned(Protocol::PartialNeighbor),
    Backend::Partitioned(Protocol::FullNeighbor),
    Backend::Auto,
    Backend::Tuned,
];

/// Which session lifecycle drives a batch's iterations.
#[derive(Clone, Copy, Debug)]
enum Lifecycle {
    /// `start_all` then one `wait_all` (internally a wait-any loop).
    WaitAll,
    /// `start_all` then an explicit `wait_any` retire loop — the
    /// completion-driven shape.
    WaitAny,
    /// Every entry started on its own with `start`, in an order that
    /// differs by rank, then a `wait_any` retire loop: each entry on its
    /// own collective, entries retiring in delivery order.
    OneByOne,
    /// `WaitAny` and `OneByOne` iterations in turn, from `WaitAny`.
    Alternating,
}

/// The lifecycles the batch property drives.
const LIFECYCLES: [Lifecycle; 4] = [
    Lifecycle::WaitAny,
    Lifecycle::WaitAll,
    Lifecycle::OneByOne,
    Lifecycle::Alternating,
];

/// One rank's SPMD body over a whole batch: [`ITERS`] iterations per
/// entry, every entry live together (the shape sessions exist for),
/// started and retired through the given lifecycle, raw output bits per
/// entry per iteration.
fn batch_body(
    batch: &NeighborBatch,
    lifecycle: Lifecycle,
    ctx: &mut mpisim::RankCtx,
    comm: &mpisim::Comm,
) -> Vec<Vec<Vec<u64>>> {
    let mut session = batch.init_all(ctx, comm);
    let n = session.len();
    let mut per_entry: Vec<Vec<Vec<u64>>> = vec![Vec::new(); n];
    for it in 0..ITERS {
        let lifecycle = match lifecycle {
            Lifecycle::Alternating if it % 2 == 0 => Lifecycle::WaitAny,
            Lifecycle::Alternating => Lifecycle::OneByOne,
            other => other,
        };
        let inputs: Vec<Vec<f64>> = session
            .requests()
            .iter()
            .map(|r| r.input_index().iter().map(|&i| value(i, it)).collect())
            .collect();
        let mut outputs: Vec<Vec<f64>> = session
            .requests()
            .iter()
            .map(|r| vec![f64::NAN; r.output_index().len()])
            .collect();
        match lifecycle {
            Lifecycle::OneByOne => {
                for k in 0..n {
                    let e = (k + ctx.rank()) % n;
                    session.start(ctx, e, &inputs[e]);
                }
            }
            _ => session.start_all(ctx, &inputs),
        }
        match lifecycle {
            Lifecycle::WaitAll => session.wait_all(ctx, &mut outputs),
            _ => {
                let mut retired = vec![false; n];
                while session.in_flight() > 0 {
                    let e = session.wait_any(ctx, &mut outputs);
                    assert!(!std::mem::replace(&mut retired[e], true), "entry {e} twice");
                }
            }
        }
        for (e, output) in outputs.iter().enumerate() {
            per_entry[e].push(output.iter().map(|v| v.to_bits()).collect());
        }
    }
    per_entry
}

proptest! {
    // Each case spins up one thread-world per backend; keep the count
    // modest so tier-1 stays fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every protocol, the partitioned backends, Auto and Tuned agree with
    /// the direct exchange bit for bit, for random patterns and region
    /// sizes.
    #[test]
    fn all_backends_match_direct_exchange(
        pattern in arb_pattern(8),
        ppn in 1usize..5,
    ) {
        let topo = Topology::block_nodes(8, ppn);
        let mut backends: Vec<Backend> =
            Protocol::ALL.into_iter().map(Backend::Protocol).collect();
        backends.push(Backend::Partitioned(Protocol::PartialNeighbor));
        backends.push(Backend::Partitioned(Protocol::FullNeighbor));
        backends.push(Backend::Auto);
        backends.push(Backend::Tuned);

        let expected: Vec<Vec<Vec<u64>>> = (0..ITERS)
            .map(|it| {
                expected_outputs(&pattern, it)
                    .into_iter()
                    .map(|vals| vals.into_iter().map(f64::to_bits).collect())
                    .collect()
            })
            .collect();

        // one warm pool shared by every backend of this case: epochs must
        // not leak state into each other, and the pooled zero-copy path
        // must match the spawned path bit for bit
        let pool = World::pool(8);
        for backend in backends {
            let got = run_backend(&pattern, &topo, backend);
            let pooled = run_backend_pooled(&pool, &pattern, &topo, backend);
            let shm = run_backend_on(Fabric::Shm, &pattern, &topo, backend);
            let sock = run_backend_on(Fabric::Sock, &pattern, &topo, backend);
            for (rank, iters) in got.iter().enumerate() {
                for (it, bits) in iters.iter().enumerate() {
                    prop_assert_eq!(
                        bits,
                        &expected[it][rank],
                        "{:?} diverged at rank {} iteration {}",
                        backend,
                        rank,
                        it
                    );
                    prop_assert_eq!(
                        &pooled[rank][it],
                        bits,
                        "{:?} pooled world diverged from spawned world at rank {} iteration {}",
                        backend,
                        rank,
                        it
                    );
                    prop_assert_eq!(
                        &shm[rank][it],
                        bits,
                        "{:?} shm world diverged from thread world at rank {} iteration {}",
                        backend,
                        rank,
                        it
                    );
                    prop_assert_eq!(
                        &sock[rank][it],
                        bits,
                        "{:?} sock world diverged from thread world at rank {} iteration {}",
                        backend,
                        rank,
                        it
                    );
                }
            }
        }

        // the same exchange under seeded delay/reorder fault schedules —
        // one representative backend per execution engine — must stay
        // byte-identical on both fabrics
        for (seed, backend) in [
            (40u64, Backend::Protocol(Protocol::StandardHypre)),
            (41, Backend::Partitioned(Protocol::FullNeighbor)),
            (42, Backend::Auto),
            (43, Backend::Tuned),
        ] {
            let coll = NeighborBatch::new(&topo).entry(&pattern, backend);
            let faulted = WorldConfig::new(Fabric::Thread).faults(perturb_plan(seed)).run(8, |ctx| {
                let comm = ctx.comm_world();
                backend_body(&coll, ctx, &comm)
            });
            let faulted_shm = WorldConfig::new(Fabric::Shm).faults(perturb_plan(seed ^ 0xa5)).run(8, |ctx| {
                let comm = ctx.comm_world();
                backend_body(&coll, ctx, &comm)
            });
            let faulted_sock = WorldConfig::new(Fabric::Sock).faults(perturb_plan(seed ^ 0x5a)).run(8, |ctx| {
                let comm = ctx.comm_world();
                backend_body(&coll, ctx, &comm)
            });
            for rank in 0..8 {
                for it in 0..ITERS as usize {
                    prop_assert_eq!(
                        &faulted[rank][it],
                        &expected[it][rank],
                        "{:?} under fault seed {} diverged at rank {} iteration {}",
                        backend,
                        seed,
                        rank,
                        it
                    );
                    prop_assert_eq!(
                        &faulted_shm[rank][it],
                        &expected[it][rank],
                        "{:?} under shm fault seed {} diverged at rank {} iteration {}",
                        backend,
                        seed ^ 0xa5,
                        rank,
                        it
                    );
                    prop_assert_eq!(
                        &faulted_sock[rank][it],
                        &expected[it][rank],
                        "{:?} under sock fault seed {} diverged at rank {} iteration {}",
                        backend,
                        seed ^ 0x5a,
                        rank,
                        it
                    );
                }
            }
        }
    }

    /// A `NeighborBatch` of random (pattern, backend) entries delivers
    /// byte-identical outputs to the same entries initialized as N
    /// independent one-entry batches — in a fresh spawned
    /// world and as an epoch of a shared warm pool alike, and through
    /// **every** session lifecycle: the completion-driven
    /// `start_all`/`wait_any` retire loop, `start_all`/`wait_all`,
    /// one-by-one starts in a rank-dependent order, and the alternation
    /// of `start_all` and one-by-one iterations in one session.
    #[test]
    fn batch_matches_independent_inits(
        patterns in prop::collection::vec(arb_pattern(8), 1..4),
        backend_picks in prop::collection::vec(0usize..ALL_BACKENDS.len(), 3),
        ppn in 1usize..5,
    ) {
        let topo = Topology::block_nodes(8, ppn);
        let entries: Vec<(&CommPattern, Backend)> = patterns
            .iter()
            .zip(&backend_picks)
            .map(|(p, &b)| (p, ALL_BACKENDS[b]))
            .collect();

        // reference: each entry as its own independent collective, driven
        // by N blocking start_waits
        let independent: Vec<Vec<Vec<Vec<u64>>>> = entries
            .iter()
            .map(|&(pattern, backend)| run_backend(pattern, &topo, backend))
            .collect();

        let mut batch = NeighborBatch::new(&topo);
        for &(pattern, backend) in &entries {
            batch = batch.entry(pattern, backend);
        }
        let pool = World::pool(8);
        for lifecycle in LIFECYCLES {
            let batched = World::run(8, |ctx| {
                let comm = ctx.comm_world();
                batch_body(&batch, lifecycle, ctx, &comm)
            });
            let pooled = pool.run(|ctx| {
                let comm = ctx.comm_world();
                batch_body(&batch, lifecycle, ctx, &comm)
            });
            let shm = WorldConfig::new(Fabric::Shm).run(8, |ctx| {
                let comm = ctx.comm_world();
                batch_body(&batch, lifecycle, ctx, &comm)
            });
            let sock = WorldConfig::new(Fabric::Sock).run(8, |ctx| {
                let comm = ctx.comm_world();
                batch_body(&batch, lifecycle, ctx, &comm)
            });

            for (rank, per_entry) in batched.iter().enumerate() {
                prop_assert_eq!(per_entry.len(), entries.len());
                for (e, iters) in per_entry.iter().enumerate() {
                    for (it, bits) in iters.iter().enumerate() {
                        prop_assert_eq!(
                            bits,
                            &independent[e][rank][it],
                            "{:?} batch entry {} ({:?}) diverged from its independent \
                             init at rank {} iteration {}",
                            lifecycle,
                            e,
                            entries[e].1,
                            rank,
                            it
                        );
                        prop_assert_eq!(
                            &pooled[rank][e][it],
                            bits,
                            "{:?} pooled batch diverged from spawned batch at entry {} \
                             rank {} iteration {}",
                            lifecycle,
                            e,
                            rank,
                            it
                        );
                        prop_assert_eq!(
                            &shm[rank][e][it],
                            bits,
                            "{:?} shm batch diverged from thread batch at entry {} \
                             rank {} iteration {}",
                            lifecycle,
                            e,
                            rank,
                            it
                        );
                        prop_assert_eq!(
                            &sock[rank][e][it],
                            bits,
                            "{:?} sock batch diverged from thread batch at entry {} \
                             rank {} iteration {}",
                            lifecycle,
                            e,
                            rank,
                            it
                        );
                    }
                }
            }
        }

        // the session under a seeded delay/reorder fault schedule, in
        // every lifecycle but `WaitAll` (a `wait_any` loop itself): wait_any
        // retires entries in (perturbed) delivery order, yet every output
        // must stay byte-identical
        for (seed, lifecycle) in [
            (77u64, Lifecycle::WaitAny),
            (177, Lifecycle::OneByOne),
            (277, Lifecycle::Alternating),
        ] {
            let faulted = WorldConfig::new(Fabric::Thread).faults(perturb_plan(seed)).run(8, |ctx| {
                let comm = ctx.comm_world();
                batch_body(&batch, lifecycle, ctx, &comm)
            });
            let faulted_shm = WorldConfig::new(Fabric::Shm).faults(perturb_plan(seed + 1)).run(8, |ctx| {
                let comm = ctx.comm_world();
                batch_body(&batch, lifecycle, ctx, &comm)
            });
            let faulted_sock = WorldConfig::new(Fabric::Sock).faults(perturb_plan(seed + 2)).run(8, |ctx| {
                let comm = ctx.comm_world();
                batch_body(&batch, lifecycle, ctx, &comm)
            });
            for rank in 0..8 {
                for e in 0..entries.len() {
                    for it in 0..ITERS as usize {
                        prop_assert_eq!(
                            &faulted[rank][e][it],
                            &independent[e][rank][it],
                            "{:?} faulted batch diverged at entry {} rank {} iteration {}",
                            lifecycle,
                            e,
                            rank,
                            it
                        );
                        prop_assert_eq!(
                            &faulted_shm[rank][e][it],
                            &independent[e][rank][it],
                            "{:?} faulted shm batch diverged at entry {} rank {} iteration {}",
                            lifecycle,
                            e,
                            rank,
                            it
                        );
                        prop_assert_eq!(
                            &faulted_sock[rank][e][it],
                            &independent[e][rank][it],
                            "{:?} faulted sock batch diverged at entry {} rank {} iteration {}",
                            lifecycle,
                            e,
                            rank,
                            it
                        );
                    }
                }
            }
        }
    }
}

/// Deterministic smoke for the mixed-backend session: one batch holding a
/// plain-protocol entry, a partitioned entry, and an Auto entry over
/// different patterns, all live and interleaved on one communicator.
#[test]
fn mixed_backend_batch_matches_direct_exchange() {
    let topo = Topology::block_nodes(8, 4);
    let fine = CommPattern::example_2_1();
    let mid = CommPattern::new(
        8,
        vec![
            vec![(1, vec![0]), (5, vec![0, 1])],
            vec![(4, vec![10]), (6, vec![11])],
            vec![(7, vec![20, 21])],
            vec![],
            vec![(0, vec![40]), (1, vec![40]), (2, vec![41])],
            vec![(6, vec![50])],
            vec![(3, vec![60]), (0, vec![61])],
            vec![],
        ],
    );
    let coarse = CommPattern::example_2_1();
    let batch = NeighborBatch::new(&topo)
        .entry(&fine, Backend::Protocol(Protocol::FullNeighbor))
        .entry(&mid, Backend::Partitioned(Protocol::PartialNeighbor))
        .entry(&coarse, Backend::Auto);
    let patterns = [&fine, &mid, &coarse];

    let got = World::run(8, |ctx| {
        let comm = ctx.comm_world();
        batch_body(&batch, Lifecycle::WaitAny, ctx, &comm)
    });
    for (rank, per_entry) in got.iter().enumerate() {
        for (e, iters) in per_entry.iter().enumerate() {
            for (it, bits) in iters.iter().enumerate() {
                let expected: Vec<u64> = expected_outputs(patterns[e], it as u64)[rank]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(bits, &expected, "entry {e} rank {rank} iteration {it}");
            }
        }
    }
}

/// `wait_any` must retire entries in **delivery** order, not init order.
///
/// Deterministic by construction: on a skewed modeled topology (two nodes
/// joined by a slow postal link), rank 1 starts the *last* entry first and
/// gates the first entry's start on an out-of-band ack that rank 0 sends
/// only after `wait_any` has retired the last entry — so at rank 0's first
/// `wait_any`, entry 1's traffic is the only traffic in the world, and at
/// its second, entry 0's is. An init-order (or channel-registration-order)
/// wait would block on entry 0 and deadlock; completing in delivery order
/// is what makes the skew harmless.
#[test]
fn wait_any_retires_entries_in_delivery_order() {
    use std::sync::Arc;

    // entry 0: rank 1 owns index 10, sends it to rank 0
    // entry 1: rank 1 owns index 20, sends it to rank 0
    let a = CommPattern::new(2, vec![vec![], vec![(0, vec![10])]]);
    let b = CommPattern::new(2, vec![vec![], vec![(0, vec![20])]]);
    let topo = Topology::block_nodes(2, 1); // one rank per node: inter-node link
    let batch = NeighborBatch::new(&topo)
        .entry(&a, Backend::Protocol(Protocol::StandardHypre))
        .entry(&b, Backend::Protocol(Protocol::StandardHypre));
    const ACK: u64 = 7;
    // leases start at one span, so no collective tag is the plain-send ack
    assert!(batch.tag_bases().iter().all(|&b| b >= tagspace::SPAN));

    let model = Arc::new(perfmodel::PostalModel::new(5e-6, 2e-9));
    let orders = mpisim::World::run_modeled(topo.clone(), model, |ctx| {
        let comm = ctx.comm_world();
        let mut session = batch.init_all(ctx, &comm);
        let mut outputs: Vec<Vec<f64>> = session
            .requests()
            .iter()
            .map(|r| vec![f64::NAN; r.output_index().len()])
            .collect();
        if ctx.rank() == 0 {
            // receiver: both entries posted up front, in init order
            session.start(ctx, 0, &[]);
            session.start(ctx, 1, &[]);
            let first = session.wait_any(ctx, &mut outputs);
            ctx.send(&comm, 1, ACK, &[1u8]); // release entry 0's traffic
            let second = session.wait_any(ctx, &mut outputs);
            assert_eq!(outputs[0], vec![10.0]);
            assert_eq!(outputs[1], vec![20.0]);
            vec![first, second]
        } else {
            // sender: entry 1 (init-order LAST) goes first; entry 0 only
            // after rank 0 has demonstrably retired entry 1
            session.start(ctx, 1, &[20.0]);
            let _: Vec<u8> = ctx.recv(&comm, 0, ACK);
            session.start(ctx, 0, &[10.0]);
            let first = session.wait_any(ctx, &mut outputs);
            let second = session.wait_any(ctx, &mut outputs);
            vec![first, second]
        }
    });
    assert_eq!(
        orders[0],
        vec![1, 0],
        "wait_any must follow delivery order, not init order"
    );
}

/// `init_all` registers a union's channels and nothing of its entries'
/// own collectives: with three entries on one backend, the registry
/// holds exactly what a one-entry batch of the shifted union registers —
/// strictly fewer channels than the entries' own collectives, which
/// appear only when each entry is first started on its own. A
/// `start_all` iteration registers nothing.
#[test]
fn a_union_registers_fewer_channels_than_its_entries() {
    let topo = Topology::block_nodes(16, 4);
    let dense = CommPattern::all_to_all_regions(&topo);
    // the same pairs, other index sets: a second and third "level"
    let shifted = |by: usize| {
        let sends = (dense.sends.iter())
            .map(|list| {
                let l = list
                    .iter()
                    .map(|(d, idx)| (*d, idx.iter().map(|&i| i + by).collect()));
                l.collect()
            })
            .collect();
        CommPattern::new(16, sends)
    };
    let levels = [dense.clone(), shifted(1000), shifted(5)];
    // the union as the batch builds it: each level's indices past the
    // largest index of the levels before it
    let mut sends: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); 16];
    let mut next = 0;
    for level in &levels {
        let mut top = 0;
        for (src, list) in level.sends.iter().enumerate() {
            for (dst, idx) in list {
                top = top.max(idx[idx.len() - 1] + 1);
                match sends[src].iter_mut().find(|(d, _)| d == dst) {
                    Some((_, to)) => to.extend(idx.iter().map(|&i| i + next)),
                    None => sends[src].push((*dst, idx.iter().map(|&i| i + next).collect())),
                }
            }
        }
        next += top;
    }
    let union = CommPattern::new(16, sends);

    // channels one world holds after `init_all` of a one-entry batch
    let registered = |pattern: &CommPattern, backend: Backend| {
        let batch = NeighborBatch::new(&topo).entry(pattern, backend);
        World::run(16, |ctx| {
            let comm = ctx.comm_world();
            let _session = batch.init_all(ctx, &comm);
            ctx.barrier(&comm);
            ctx.stall_report().registry.channels
        })[0]
    };
    for backend in [
        Backend::Protocol(Protocol::FullNeighbor),
        Backend::Protocol(Protocol::StandardHypre),
        Backend::Partitioned(Protocol::FullNeighbor),
        Backend::Auto,
    ] {
        let own: usize = levels.iter().map(|l| registered(l, backend)).sum();
        let mut batch = NeighborBatch::new(&topo);
        for level in &levels {
            batch = batch.entry(level, backend);
        }
        let counts = World::run(16, |ctx| {
            let comm = ctx.comm_world();
            let mut session = batch.init_all(ctx, &comm);
            // read between two barriers: every rank has registered what
            // comes before, and none has gone on to register more
            let count = |ctx: &mut mpisim::RankCtx| {
                ctx.barrier(&comm);
                let channels = ctx.stall_report().registry.channels;
                ctx.barrier(&comm);
                channels
            };
            let inputs: Vec<Vec<f64>> = (session.requests().iter())
                .map(|r| r.input_index().iter().map(|&i| i as f64).collect())
                .collect();
            let mut outputs: Vec<Vec<f64>> = (session.requests().iter())
                .map(|r| vec![f64::NAN; r.output_index().len()])
                .collect();
            let at_init = count(ctx);
            session.start_all(ctx, &inputs);
            session.wait_all(ctx, &mut outputs);
            let after_start_all = count(ctx);
            for (e, input) in inputs.iter().enumerate() {
                session.start(ctx, e, input);
            }
            session.wait_all(ctx, &mut outputs);
            [at_init, after_start_all, count(ctx)]
        });
        let [at_init, after_start_all, after_own] = counts[0];
        assert_eq!(at_init, registered(&union, backend), "{backend:?}");
        assert!(at_init < own, "{backend:?}: union {at_init}, entries {own}");
        assert_eq!(after_start_all, at_init, "{backend:?}");
        assert_eq!(after_own - after_start_all, own, "{backend:?}");
    }
}
