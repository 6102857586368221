//! Planner and registration cost at 256 ranks — the scale the repository's
//! benchmark (`perfbench/`, 8–16 ranks) has no row for: plan construction
//! per protocol, routing derivation (one sweep of the plan for every rank),
//! the size of the copy maps that derivation leaves with the requests (runs
//! and bytes against the values they move), persistent init per protocol on
//! a warm pooled world, and one `NeighborBatch::init_all` over 8 AMG-level
//! patterns vs 8 independent inits (one registry pass per rank against
//! eight). Wall-clock best of a few repetitions:
//! report-only, like the figures.

use std::hint::black_box;
use std::time::Instant;

use bench_suite::workload::{level_patterns, paper_hierarchy, paper_topology};
use mpi_advance::routing::PartSource;
use mpi_advance::{Backend, CommPattern, NeighborAlltoallv, NeighborBatch, Protocol, RankRouting};
use mpisim::World;

const RANKS: usize = 256;
const N_PATTERNS: usize = 8;

fn ms<R>(mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64() * 1e3
}

fn best_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps).map(|_| ms(&mut f)).fold(f64::INFINITY, f64::min)
}

/// Add one rank's copy maps to `total = [runs, bytes, values]`: how many
/// runs they hold, what those occupy, and how many values they move per
/// iteration — the entries a per-value map would hold.
fn add_copy_map_size(r: &RankRouting, total: &mut [usize; 3]) {
    let mut add = |runs: usize, bytes: usize, values: usize| {
        total[0] += runs;
        total[1] += bytes;
        total[2] += values;
    };
    let own_parts = r.g_sends.iter().flat_map(|g| &g.parts);
    let run_maps = (r.local_sends.iter().chain(&r.s_sends).map(|s| &s.sources))
        .chain(r.local_recvs.iter().chain(&r.r_recvs).map(|x| &x.outputs))
        .chain(r.g_recvs.iter().map(|g| &g.outputs))
        .chain(own_parts.filter_map(|part| match &part.source {
            PartSource::Input(runs) => Some(runs),
            PartSource::Staged { .. } => None,
        }));
    for runs in run_maps {
        let values = runs.iter().map(|r| r.len).sum();
        add(runs.len(), std::mem::size_of_val(runs.as_slice()), values);
    }
    for fwds in r.r_sends.iter().map(|s| &s.sources) {
        let values = fwds.iter().map(|f| f.len).sum();
        add(fwds.len(), std::mem::size_of_val(fwds.as_slice()), values);
    }
}

fn main() {
    eprintln!("# building hierarchy for 256x128...");
    let h = paper_hierarchy(256, 128);
    // communicating levels, busiest first
    let mut levels: Vec<CommPattern> = level_patterns(&h, RANKS)
        .into_iter()
        .map(|lp| lp.pattern)
        .filter(|p| p.total_msgs() > 0)
        .collect();
    levels.sort_by_key(|p| std::cmp::Reverse(p.total_msgs()));
    let busiest = &levels[0];
    let topo = paper_topology(RANKS);
    let label = |p: Protocol| p.label().replace(' ', "_");

    println!("planner_scale,quantity,variant,best_ms");
    for p in Protocol::ALL {
        let t = best_ms(10, || p.plan(busiest, &topo).global_msgs());
        println!("planner_scale,plan_build,{},{t:.3}", label(p));
    }

    // uncached routing derivation, so a regression cannot hide behind the
    // builders' caches the init rows below go through
    let plan = Protocol::FullNeighbor.plan(busiest, &topo);
    let sweep = best_ms(5, || RankRouting::build_all(busiest, &plan, 0).len());
    println!("planner_scale,routing_build,build_all_sweep,{sweep:.3}");

    // what the requests keep of that derivation, summed over the ranks
    for p in Protocol::ALL {
        let mut size = [0; 3];
        for r in &RankRouting::build_all(busiest, &p.plan(busiest, &topo), 0) {
            add_copy_map_size(r, &mut size);
        }
        let [runs, bytes, values] = size;
        println!(
            "# copy maps at {RANKS} ranks, {}: {runs} runs ({bytes} B) for {values} values",
            label(p)
        );
    }

    // one builder per collective, init per epoch of one warm world (the
    // SPMD shape): planning is amortized, registration is what is timed
    let pool = World::pool(RANKS);
    for p in Protocol::ALL {
        let coll = NeighborAlltoallv::new(busiest, &topo).protocol(p);
        let t = best_ms(8, || {
            pool.run(|ctx| coll.init(ctx, &ctx.comm_world()).input_index().len())
        });
        println!("planner_scale,neighbor_init,{},{t:.3}", label(p));
    }

    // repeat patterns when the hierarchy has fewer communicating levels
    // than entries (residual/restriction exchanges share a level's shape)
    let patterns: Vec<&CommPattern> = (0..N_PATTERNS).map(|i| &levels[i % levels.len()]).collect();
    let full = Backend::Protocol(Protocol::FullNeighbor);
    let batch = (patterns.iter()).fold(NeighborBatch::new(&topo), |b, p| b.entry(p, full));
    let colls: Vec<NeighborAlltoallv> = (patterns.iter())
        .map(|p| NeighborAlltoallv::new(p, &topo).backend(full))
        .collect();
    // the two sides alternate so host drift lands on both
    let (mut batched, mut per_pattern) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..20 {
        batched = batched.min(ms(|| {
            pool.run(|ctx| batch.init_all(ctx, &ctx.comm_world()).len())
        }));
        per_pattern = per_pattern.min(ms(|| {
            pool.run(|ctx| {
                let comm = ctx.comm_world();
                let reqs: Vec<_> = colls.iter().map(|c| c.init(ctx, &comm)).collect();
                reqs.len()
            })
        }));
    }
    println!("planner_scale,batch_init,batch_{N_PATTERNS}patterns,{batched:.3}");
    println!("planner_scale,batch_init,per_pattern_{N_PATTERNS}patterns,{per_pattern:.3}");
    println!(
        "# batch / per-pattern init at {RANKS} ranks: {:.2} (below 1 = the batch is cheaper)",
        batched / per_pattern
    );
}
