//! Thread-vs-process transport cost: the `steady_state_8proc` group runs
//! the same steady-state workload — 100 `start_wait` iterations of the
//! busiest AMG-level pattern at 8 ranks — twice per backend:
//!
//! * `process_<backend>`: ranks are **real OS processes** on the
//!   cross-process shared-memory fabric ([`World::spawn`]).
//!   This binary re-execs itself once per worker rank; workers loop in
//!   [`RemoteWorld::serve`] over a fixed job table while rank 0 drives one
//!   [`RemoteWorld::epoch_job`] per criterion iteration, so the measured
//!   cost is the epoch protocol plus the exchange itself — no process
//!   spawning on the hot path.
//! * `thread_<backend>`: the identical body on one warm in-process pool
//!   ([`World::pool`]), the same shape as the protocols bench's
//!   `steady_state_32ranks` group.
//! * `sock_<backend>`: the identical body on a warm pool over the socket
//!   fabric's loopback mesh ([`Fabric::Sock`]) — ranks stay threads,
//!   but every message crosses a real stream socket with framing,
//!   sequencing, acks, and heartbeats. The delta against `thread_` prices
//!   the wire protocol itself, with no process-management noise.
//!
//! The `sock_link_burst` group prices the socket link itself, below the
//! collectives: one rank pushes a burst of 256 one-element persistent
//! messages (`K_CHAN` frames) through the loopback link and the other
//! takes them all, so frames per second is 256 over the reported time —
//! what one writer/reader pair moves when frames arrive faster than
//! syscalls return.
//!
//! `scripts/bench_compare` pairs the sides and REPORTS the
//! process/thread and sock/thread ratios without gating them — crossing
//! real address spaces or a socket is allowed to cost more than
//! in-process handoff; the ratios are tracked, not enforced. Run
//! `make bench-transport` for the paired report.
//!
//! SPMD determinism: every process (driver and re-execed workers) builds
//! the same collectives and forces their resolution — including the tag
//! lease from the process-global tag space — *before* the world spawns,
//! so all ranks agree on every tag base without sharing memory. The
//! driver's extra thread-pool benches reuse the already-resolved
//! builders, so they cannot skew its lease order.

use bench_suite::workload::{level_patterns, paper_hierarchy};
use criterion::{BenchmarkId, Criterion};
use locality::Topology;
use mpi_advance::{CommPattern, NeighborAlltoallv, Protocol};
use mpisim::{Fabric, RankCtx, RemoteWorld, World, WorldConfig};

/// One entry of the workers' serve-job table (borrows the collectives).
type Job<'a> = Box<dyn Fn(&mut RankCtx) + 'a>;

const RANKS: usize = 8;
const PPN: usize = 4;
/// Iterations per epoch/sample, matching the protocols bench's pooled
/// steady-state group: enough to make epoch dispatch negligible against
/// transport.
const STEADY_ITERS: usize = 100;

/// The level with the most messages at 8 ranks — the same
/// communication-dominated shape the protocols bench measures at 32.
fn busiest_pattern() -> CommPattern {
    let h = paper_hierarchy(128, 64);
    level_patterns(&h, RANKS)
        .into_iter()
        .max_by_key(|lp| lp.pattern.total_msgs())
        .expect("hierarchy has levels")
        .pattern
}

/// The two ends of the paper's protocol spectrum: the Hypre baseline and
/// the fully optimized neighborhood collective. Two backends keep the
/// 8-process fleet's wall clock in check; the full sweep lives in the
/// protocols bench.
fn backends() -> Vec<(String, Protocol)> {
    [Protocol::StandardHypre, Protocol::FullNeighbor]
        .into_iter()
        .map(|p| (p.label().replace(' ', "_"), p))
        .collect()
}

/// One steady-state sample: init once, then `STEADY_ITERS` exchanges.
/// Identical for worker serve jobs, driver epochs, and the thread pool.
fn steady_body(coll: &NeighborAlltoallv, ctx: &mut RankCtx) -> f64 {
    let comm = ctx.comm_world();
    let mut nb = coll.init(ctx, &comm);
    let input: Vec<f64> = nb.input_index().iter().map(|&i| i as f64).collect();
    let mut output = vec![0.0; nb.output_index().len()];
    for _ in 0..STEADY_ITERS {
        nb.start_wait(ctx, &input, &mut output);
    }
    output.first().copied().unwrap_or(0.0)
}

fn bench_transport(c: &mut Criterion, world: &RemoteWorld, colls: &[(String, NeighborAlltoallv)]) {
    let mut group = c.benchmark_group("steady_state_8proc");
    group.sample_size(10);

    for (job, (label, coll)) in colls.iter().enumerate() {
        group.bench_function(
            BenchmarkId::from_parameter(format!("process_{label}")),
            |b| b.iter(|| world.epoch_job(job, |ctx| steady_body(coll, ctx))),
        );
    }

    let pool = World::pool(RANKS);
    for (label, coll) in colls {
        group.bench_function(
            BenchmarkId::from_parameter(format!("thread_{label}")),
            |b| b.iter(|| pool.run(|ctx| steady_body(coll, ctx))),
        );
    }
    drop(pool);

    let sock_pool = WorldConfig::new(Fabric::Sock).pool(RANKS);
    for (label, coll) in colls {
        group.bench_function(BenchmarkId::from_parameter(format!("sock_{label}")), |b| {
            b.iter(|| sock_pool.run(|ctx| steady_body(coll, ctx)))
        });
    }
    group.finish();
}

/// Small frames per burst of the `sock_link_burst` group.
const BURST: usize = 256;

fn bench_link_burst(c: &mut Criterion) {
    let pool = WorldConfig::new(Fabric::Sock).pool(2);
    let mut group = c.benchmark_group("sock_link_burst");
    group.sample_size(10);
    group.bench_function(
        BenchmarkId::from_parameter(format!("{BURST}_frames")),
        |b| {
            b.iter(|| {
                pool.run(|ctx| {
                    let comm = ctx.comm_world();
                    if ctx.rank() == 0 {
                        let tx = ctx.send_chan_init::<u64>(&comm, 1, 7, 1);
                        for i in 0..BURST as u64 {
                            tx.start_with(ctx, |buf| buf.push(i));
                        }
                        0
                    } else {
                        let mut rx = ctx.recv_chan_init::<u64>(&comm, 0, 7, 1);
                        (0..BURST).fold(0, |sum, _| {
                            rx.start();
                            let got = rx.wait_take(ctx);
                            let sum = sum + got[0];
                            rx.recycle(got);
                            sum
                        })
                    }
                })
            })
        },
    );
    group.finish();
}

fn main() {
    // identical deterministic setup in every process, BEFORE the world
    // spawns: plan() resolves each builder — leasing its tag base from
    // this process's fresh tag space — so driver and workers carve the
    // same namespaces in the same order
    let pattern = busiest_pattern();
    let topo = Topology::block_nodes(RANKS, PPN);
    let colls: Vec<(String, NeighborAlltoallv)> = backends()
        .into_iter()
        .map(|(label, p)| {
            let coll = NeighborAlltoallv::new(&pattern, &topo).protocol(p);
            coll.plan();
            (label, coll)
        })
        .collect();

    let world = World::spawn(Fabric::Shm, RANKS);
    if world.rank() != 0 {
        // worker: serve the job table until rank 0's stop command, then
        // drop the world (which exits the process)
        let jobs: Vec<Job<'_>> = colls
            .iter()
            .map(|(_, coll)| {
                Box::new(move |ctx: &mut RankCtx| {
                    steady_body(coll, ctx);
                }) as Job<'_>
            })
            .collect();
        let table: Vec<&dyn Fn(&mut RankCtx)> = jobs.iter().map(|j| j.as_ref()).collect();
        world.serve(&table);
        drop(world);
        return;
    }

    // driver: rank 0 runs criterion (honoring --test smoke mode and name
    // filters) and stops the worker fleet when the world drops
    let mut c = Criterion::default();
    bench_transport(&mut c, &world, &colls);
    bench_link_burst(&mut c);
    c.finalize();
}
