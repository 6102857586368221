//! The per-layer ledger: each layer timed from outside, through its
//! public functions, on the workload's own patterns, rank count and
//! fabric. Counts come from the planner's own structures and repeat
//! exactly.

use std::hint::black_box;
use std::time::Instant;

use amg::{DistributedHierarchy, Hierarchy, HierarchyOptions};
use mpi_advance::routing::BatchEntryPlan;
use mpi_advance::stats::VALUE_BYTES;
use mpi_advance::tagspace::SPAN;
use mpi_advance::{choose_protocol, iteration_time, Backend, Plan, PlanStats, Protocol};
use mpi_advance::{NeighborBatch, RankRouting, TunePolicy};
use mpisim::WorldPool;
use perfmodel::LocalityModel;
use sparse::gen::diffusion::paper_problem;
use sparse::{build_comm_pkgs, ParCsr};

use crate::exchange::{self, BlockPlan, Live, Mode, Refs, FULL};
use crate::metrics::{median, quantile, Checks, Report};
use crate::service::{ServiceLive, Tenants};
use crate::trace::{self_times, Off, Rec, Span, Spans};
use crate::workloads::{Fabric, Kind, Problem, WINDOW};

/// Run `f` at least `min` times and until `budget_s` is spent; seconds of
/// every run.
fn time_reps<T>(min: usize, budget_s: f64, mut f: impl FnMut() -> T) -> Vec<f64> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || started.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        black_box(f());
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

fn put_median(report: &mut Report, name: &'static str, seconds: &[f64], scale: f64) {
    report.put(name, median(seconds) * scale, seconds.len());
}

fn plans(p: &Problem, protocol: Protocol) -> Vec<Plan> {
    p.patterns
        .iter()
        .map(|pat| protocol.plan(pat, &p.topo))
        .collect()
}

/// Bytes one iteration sends over all steps, all ranks, all entries.
pub fn bytes_sent(plans: &[Plan]) -> usize {
    plans
        .iter()
        .flat_map(|plan| plan.steps())
        .flat_map(|(_, msgs)| msgs.iter())
        .map(|m| m.n_values() * VALUE_BYTES)
        .sum()
}

/// `core.agg.*`: the quantities of the paper's Figures 8-10, summed over
/// the workload's entries per rank before taking max and deviation.
fn agg_counts(p: &Problem, report: &mut Report) -> usize {
    let full = plans(p, Protocol::FullNeighbor);
    let partial = plans(p, Protocol::PartialNeighbor);
    let hypre = plans(p, Protocol::StandardHypre);
    let n = p.spec.ranks;
    let (mut local, mut global, mut gbytes) = (vec![0usize; n], vec![0usize; n], vec![0usize; n]);
    for plan in &full {
        for m in plan.local.iter().chain(&plan.s_step).chain(&plan.r_step) {
            local[m.src] += 1;
        }
        for m in &plan.g_step {
            global[m.src] += 1;
            gbytes[m.src] += m.n_values() * VALUE_BYTES;
        }
    }
    if let [plan] = full.as_slice() {
        let s = PlanStats::of(plan);
        assert_eq!(
            (s.max_local_msgs, s.max_global_msgs, s.max_global_bytes),
            (
                *local.iter().max().unwrap_or(&0),
                *global.iter().max().unwrap_or(&0),
                *gbytes.iter().max().unwrap_or(&0)
            ),
            "ledger counts disagree with PlanStats"
        );
    }
    let total = |v: &[usize]| v.iter().sum::<usize>() as f64;
    let most = |v: &[usize]| v.iter().copied().max().unwrap_or(0) as f64;
    let mean = total(&global) / n as f64;
    let var = global
        .iter()
        .map(|&g| (g as f64 - mean).powi(2))
        .sum::<f64>()
        / n as f64;
    let gvalues = |plans: &[Plan]| plans.iter().map(Plan::global_values).sum::<usize>() as f64;
    let sent = bytes_sent(&full);
    report.put("core.agg.msgs_global", total(&global), 1);
    report.put(
        "core.agg.msgs_global_hypre",
        hypre.iter().map(Plan::global_msgs).sum::<usize>() as f64,
        1,
    );
    report.put("core.agg.msgs_local", total(&local), 1);
    report.put("core.agg.msgs_global_max", most(&global), 1);
    report.put("core.agg.msgs_local_max", most(&local), 1);
    report.put("core.agg.bytes_global_max", most(&gbytes), 1);
    report.put("core.agg.msgs_global_std", var.sqrt(), 1);
    report.put("core.agg.bytes_sent_total", sent as f64, 1);
    report.put(
        "core.agg.dedup_ratio",
        if gvalues(&partial) > 0.0 {
            gvalues(&full) / gvalues(&partial)
        } else {
            1.0
        },
        1,
    );
    sent
}

/// Planner, selection and routing, called directly.
fn planning(p: &Problem, report: &mut Report, rec: &mut Spans, budget_s: f64) {
    let t = time_reps(3, budget_s, || {
        rec.scope("core.agg.plan", |_| plans(p, Protocol::FullNeighbor))
    });
    put_median(report, "core.agg.plan_ms", &t, 1e3);

    let model = LocalityModel::lassen();
    let t = time_reps(3, budget_s, || {
        for pat in &p.patterns {
            black_box(choose_protocol(pat, &p.topo, &model));
        }
    });
    put_median(report, "core.collective.select_us", &t, 1e6);

    let full = plans(p, Protocol::FullNeighbor);
    let entries: Vec<BatchEntryPlan<'_>> = p
        .patterns
        .iter()
        .zip(&full)
        .enumerate()
        .map(|(e, (pattern, plan))| BatchEntryPlan {
            pattern,
            plan,
            tag_base: (e as u64 + 1) * SPAN,
            shared_arena: true,
        })
        .collect();
    let t = time_reps(3, budget_s, || {
        rec.scope("core.routing.build", |_| {
            RankRouting::build_all_batch(&entries)
        })
    });
    put_median(report, "core.routing.build_ms", &t, 1e3);
}

/// Problem construction: comm packages on the workload's first level;
/// hierarchy set-up and its distribution on the workload's own grid
/// (`halo_bulk_16r` has no hierarchy: it probes the 128x64 reference).
fn construction(p: &Problem, report: &mut Report, budget_s: f64) {
    let l = &p.levels[0];
    let t = time_reps(3, budget_s, || build_comm_pkgs(&l.a, &l.part));
    put_median(report, "sparse.commpkg_ms", &t, 1e3);

    let (nx, ny) = match p.spec.kind {
        Kind::HaloFine => (128, 64),
        _ => (p.spec.nx, p.spec.ny),
    };
    let options = HierarchyOptions {
        seed: p.seeds.pmis,
        ..HierarchyOptions::default()
    };
    let mut setup = Vec::new();
    let mut dist = Vec::new();
    let started = Instant::now();
    while setup.len() < 3 || started.elapsed().as_secs_f64() < budget_s {
        let a = paper_problem(nx, ny);
        let t = Instant::now();
        let h = Hierarchy::setup(a, options);
        setup.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(DistributedHierarchy::build(&h, p.spec.ranks));
        dist.push(t.elapsed().as_secs_f64());
    }
    put_median(report, "amg.setup_ms", &setup, 1e3);
    put_median(report, "amg.dist_build_ms", &dist, 1e3);
}

/// One rank's SpMV on the workload's first level, and the host's copy
/// rate at the bytes one iteration moves.
fn kernels(p: &Problem, sent_bytes: usize, iter_us: f64, report: &mut Report, budget_s: f64) {
    let l = &p.levels[0];
    let mat = ParCsr::from_global(&l.a, &l.part, 0);
    let x = &p.xs[0];
    let x_local = &x[l.part.range(0)];
    let ghost: Vec<f64> = mat.col_map_offd.iter().map(|&g| x[g]).collect();
    let t = time_reps(20, budget_s, || mat.spmv(x_local, &ghost));
    let flops = 2.0 * (mat.diag.nnz() + mat.offd.nnz()) as f64;
    put_median(report, "sparse.spmv_us", &t, 1e6);
    report.put("sparse.spmv_gflops", flops / median(&t) / 1e9, t.len());

    // in-cache rate: the buffers are the size of one iteration's traffic
    // and are copied again and again; no DRAM figure is claimed
    let words = (sent_bytes / 8).max(512);
    let src = vec![1.0f64; words];
    let mut dst = vec![0.0f64; words];
    let copies = (1 << 22) / (words * 8) + 1;
    let t = time_reps(20, budget_s, || {
        for _ in 0..copies {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
        }
    });
    let rate = (copies * words * 8) as f64 / median(&t);
    let floor_us = sent_bytes as f64 / rate * 1e6;
    report.put("host.memcpy_gbps", rate / 1e9, t.len());
    report.put("host.iter_floor_us", floor_us, t.len());
    report.put("host.iter_over_floor", iter_us / floor_us, t.len());
}

/// 2-rank ping-pong on the workload's fabric: persistent channels at
/// 8 B and 64 KiB, and the mailbox path.
fn transport(fabric: Fabric, report: &mut Report, rounds: usize) {
    const CHUNK: usize = 50;
    let pool = fabric.pool(2);
    let chan_rtt = |len: usize, chunks: usize| -> Vec<f64> {
        let per_rank = pool.run(|ctx| {
            let comm = ctx.comm_world();
            let peer = 1 - ctx.rank();
            let (tag_out, tag_in) = if ctx.rank() == 0 { (1, 2) } else { (2, 1) };
            let tx = ctx.send_chan_init::<f64>(&comm, peer, tag_out + 2 * len as u64, len);
            let mut rx = ctx.recv_chan_init::<f64>(&comm, peer, tag_in + 2 * len as u64, len);
            let payload = vec![0.5f64; len];
            let mut times = Vec::with_capacity(chunks);
            for _ in 0..chunks {
                ctx.barrier(&comm);
                let t0 = Instant::now();
                for _ in 0..CHUNK {
                    if ctx.rank() == 0 {
                        tx.start_with(ctx, |buf| buf.extend_from_slice(&payload));
                        rx.start();
                        rx.wait_with(ctx, |got| black_box(got[0]));
                    } else {
                        rx.start();
                        rx.wait_with(ctx, |got| black_box(got[0]));
                        tx.start_with(ctx, |buf| buf.extend_from_slice(&payload));
                    }
                }
                times.push(t0.elapsed().as_secs_f64() / CHUNK as f64);
            }
            times
        });
        per_rank.into_iter().next().expect("rank 0")
    };
    let chunks = (rounds / CHUNK).max(10);
    let small = chan_rtt(1, chunks);
    put_median(report, "mpisim.transport.rtt_us_8B", &small, 1e6);
    let big = chan_rtt(8192, chunks);
    put_median(report, "mpisim.transport.rtt_us_64KiB", &big, 1e6);
    report.put(
        "mpisim.transport.gbps_64KiB",
        2.0 * 65536.0 / median(&big) / 1e9,
        big.len(),
    );
    let p2p = pool.run(|ctx| {
        let comm = ctx.comm_world();
        let peer = 1 - ctx.rank();
        let mut times = Vec::with_capacity(chunks);
        for _ in 0..chunks {
            ctx.barrier(&comm);
            let t0 = Instant::now();
            for _ in 0..CHUNK {
                if ctx.rank() == 0 {
                    ctx.send(&comm, peer, 9, &[0.5f64]);
                    black_box(ctx.recv::<f64>(&comm, peer, 9));
                } else {
                    black_box(ctx.recv::<f64>(&comm, peer, 9));
                    ctx.send(&comm, peer, 9, &[0.5f64]);
                }
            }
            times.push(t0.elapsed().as_secs_f64() / CHUNK as f64);
        }
        times
    });
    put_median(report, "mpisim.transport.p2p_rtt_us", &p2p[0], 1e6);
}

/// Pool launch, the empty epoch, barrier and allreduce at the workload's
/// rank count and fabric.
fn runtime(p: &Problem, pool: &WorldPool, report: &mut Report, rec: &mut Spans, budget_s: f64) {
    let mut launch = Vec::new();
    let mut first_init = Vec::new();
    for _ in 0..3 {
        let b = exchange::builder(p, FULL);
        let t = Instant::now();
        let fresh = rec.scope("mpisim.runtime.pool_launch", |_| {
            p.spec.fabric.pool(p.spec.ranks)
        });
        launch.push(t.elapsed().as_secs_f64());
        // a fresh builder on a fresh pool: resolution (plan, tags,
        // routing) and first registration of every channel
        let t = Instant::now();
        fresh.run(|ctx| {
            let comm = ctx.comm_world();
            b.init_all(ctx, &comm).len()
        });
        first_init.push(t.elapsed().as_secs_f64());
    }
    put_median(report, "mpisim.runtime.pool_launch_ms", &launch, 1e3);
    put_median(report, "core.batch.first_init_ms", &first_init, 1e3);

    let t = time_reps(50, budget_s, || pool.run(|ctx| ctx.rank()));
    put_median(report, "mpisim.runtime.epoch_us", &t, 1e6);

    const CHUNK: usize = 20;
    let chunks = 25;
    let times = pool.run(|ctx| {
        let comm = ctx.comm_world();
        let mut barrier = Vec::with_capacity(chunks);
        let mut allreduce = Vec::with_capacity(chunks);
        for _ in 0..chunks {
            ctx.barrier(&comm);
            let t0 = Instant::now();
            for _ in 0..CHUNK {
                ctx.barrier(&comm);
            }
            barrier.push(t0.elapsed().as_secs_f64() / CHUNK as f64);
            let t0 = Instant::now();
            for _ in 0..CHUNK {
                black_box(ctx.allreduce(&comm, &[1.0f64], mpisim::collectives::op_sum_f64));
            }
            allreduce.push(t0.elapsed().as_secs_f64() / CHUNK as f64);
        }
        (barrier, allreduce)
    });
    put_median(report, "mpisim.collectives.barrier_us", &times[0].0, 1e6);
    put_median(report, "mpisim.collectives.allreduce_us", &times[0].1, 1e6);
}

/// The virtual-clock time of the paper's protocol and its baseline, and
/// the planner's analytic prediction against it.
fn modeled(p: &Problem, report: &mut Report) {
    const ITERS: usize = 100;
    let full_us = exchange::modeled_iter_us(p, FULL, ITERS);
    let hypre_us = exchange::modeled_iter_us(p, exchange::HYPRE, ITERS);
    let model = exchange::lassen_no_queue();
    let analytic_us: f64 = plans(p, Protocol::FullNeighbor)
        .iter()
        .map(|plan| iteration_time(plan, &p.topo, &model, true).total * 1e6)
        .sum();
    report.put("perfmodel.modeled_iter_us", full_us, ITERS);
    report.put("perfmodel.modeled_iter_us_hypre", hypre_us, ITERS);
    report.put("perfmodel.analytic_over_modeled", analytic_us / full_us, 1);
}

struct Blocks<'a, 'p> {
    live: &'a Live<'p>,
    refs: &'a Refs,
    seconds: f64,
    checks: Checks,
}

impl<'p> Blocks<'_, 'p> {
    fn plan(&self, builders: usize, mode: Mode, min: usize) -> BlockPlan {
        BlockPlan {
            blocks_per_builder: self.live.blocks_for(self.seconds, builders, min),
            iters: self.live.p.spec.iters_per_block,
            mode,
        }
    }

    fn run(
        &mut self,
        phase: &str,
        builders: &[&NeighborBatch<'p>],
        mode: Mode,
    ) -> exchange::BlocksOut {
        let plan = self.plan(builders.len(), mode, 15);
        self.run_plan(phase, builders, &plan, |_| Off)
    }

    fn run_plan<R: Rec>(
        &mut self,
        phase: &str,
        builders: &[&NeighborBatch<'p>],
        plan: &BlockPlan,
        recorder: impl Fn(i32) -> R + Send + Sync,
    ) -> exchange::BlocksOut {
        let live = self.live;
        let out = exchange::run_blocks(live.p, self.refs, &live.pool, builders, plan, recorder);
        self.checks.add(phase, out.attempted, out.failed);
        out
    }
}

/// `Backend::Tuned` with the default policy and a fresh profile
/// directory: iterations spent probing, the tuned steady state against
/// the best static backend, and the init of a cache hit.
fn tuned(blocks: &mut Blocks<'_, '_>, report: &mut Report, dir: &std::path::Path) {
    let p = blocks.live.p;
    let _ = std::fs::remove_dir_all(dir);
    let policy = TunePolicy::default().with_profile_dir(dir);
    let probe = exchange::builder(p, Backend::Tuned).tune_policy(policy.clone());
    let probing = blocks.live.pool.run(|ctx| {
        let comm = ctx.comm_world();
        let mut session = probe.init_all(ctx, &comm);
        let inputs: Vec<Vec<f64>> = session
            .requests()
            .iter()
            .map(|r| vec![1.0; r.input_index().len()])
            .collect();
        let mut outputs: Vec<Vec<f64>> = session
            .requests()
            .iter()
            .map(|r| vec![0.0; r.output_index().len()])
            .collect();
        let mut iters = 0usize;
        // one more iteration than the probes: the deciding one
        while iters < 4096 && session.requests().iter().any(|r| r.is_probing()) {
            session.start_all(ctx, &inputs);
            session.wait_all(ctx, &mut outputs);
            iters += 1;
        }
        iters
    });
    drop(probe);
    report.put("core.tune.probe_iters", probing[0] as f64, 1);

    // the tuned steady state beside the two static backends, blocks
    // alternating, so the ratio is taken inside one run
    let warm = exchange::builder(p, Backend::Tuned).tune_policy(policy);
    let live = blocks.live;
    let out = blocks.run(
        "tuned",
        &[&warm, &live.builders[0], &live.builders[1]],
        Mode::Native,
    );
    let us: Vec<f64> = out.iter_s.iter().map(|v| median(v) * 1e6).collect();
    report.put(
        "core.tune.tuned_over_best",
        us[0] / us[1].min(us[2]),
        out.iter_s[0].len(),
    );
    let init = exchange::measure_init(&blocks.live.pool, &warm, 3);
    report.put(
        "tuner.cache_hit_init_us",
        median(&init.rank_us),
        init.rank_us.len(),
    );
    drop(warm);
    let _ = std::fs::remove_dir_all(dir);
}

/// Epochs of the service layer: one tenant alone, `n` tenants in one
/// epoch, and the same `n` in an epoch each.
#[derive(Default)]
pub struct ServiceTimes {
    single: Vec<f64>,
    together: Vec<f64>,
    apart: Vec<f64>,
}

impl ServiceTimes {
    pub fn measure(&mut self, live: &mut ServiceLive, n: usize, reps: usize) {
        for _ in 0..reps {
            for _ in 0..2 {
                self.single.push(live.epoch(Backend::Auto, 1, &mut Off, 0));
            }
            self.together
                .push(live.epoch(Backend::Auto, n, &mut Off, 0));
            self.apart.push(
                (0..n)
                    .map(|_| live.epoch(Backend::Auto, 1, &mut Off, 0))
                    .sum::<f64>(),
            );
        }
    }

    pub fn report(&self, report: &mut Report) {
        put_median(report, "service.single_job_ms", &self.single, 1e3);
        report.put(
            "service.concurrent_over_sequential",
            median(&self.apart) / median(&self.together),
            self.together.len(),
        );
    }
}

/// `loop.*`: how the main loop's blocks (or epochs) spread over the run.
pub fn loop_shape(block_s: &[f64], report: &mut Report) {
    let ms: Vec<f64> = block_s.iter().map(|s| s * 1e3).collect();
    let p50 = median(&ms);
    let edge = (ms.len() / 4).clamp(1, 20);
    report.put("loop.block_ms_p50", p50, ms.len());
    report.put("loop.block_ms_p95", quantile(&ms, 0.95), ms.len());
    report.put("loop.block_ms_max", quantile(&ms, 1.0), ms.len());
    report.put(
        "loop.drift_ratio",
        median(&ms[ms.len() - edge..]) / median(&ms[..edge]),
        2 * edge,
    );
    report.put(
        "loop.stall_outliers",
        ms.iter().filter(|&&b| b > p50 + 40.0).count() as f64,
        ms.len(),
    );
}

/// Spans one rank keeps of the traced loop, so the trace file of a
/// 16-rank workload stays near 10 MB.
const SPAN_CAP: usize = 9_000;

/// Per iteration on each rank: time in the posting span(s) and in the
/// retiring span(s), from the traced loop's spans.
fn post_and_retire(spans: &[Vec<Span>]) -> (Vec<f64>, Vec<f64>) {
    let mut post = Vec::new();
    let mut retire = Vec::new();
    for rank in spans {
        let mut acc: std::collections::BTreeMap<u64, (u64, u64)> = Default::default();
        for s in rank {
            match s.name {
                "core.exec.start" | "core.batch.start_all" => {
                    acc.entry(s.op).or_default().0 += s.dur_ns()
                }
                "core.exec.wait" | "core.batch.wait_any" => {
                    acc.entry(s.op).or_default().1 += s.dur_ns()
                }
                _ => {}
            }
        }
        for (a, b) in acc.into_values() {
            post.push(a as f64 / 1e3);
            retire.push(b as f64 / 1e3);
        }
    }
    (post, retire)
}

/// Self time of everything strictly under `core.exec.iter` on rank 0,
/// per iteration, in microseconds. In the block loop only the spans
/// inside an iteration have a parent.
fn covered_us(rank0: &[Span]) -> f64 {
    let own = self_times(rank0);
    let iters = rank0.iter().filter(|s| s.name == "core.exec.iter").count();
    let inside: u64 = rank0
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.has_parent())
        .map(|(_, &ns)| ns)
        .sum();
    inside as f64 / 1e3 / iters.max(1) as f64
}

/// The traced run of an exchange problem: the three-backend loop
/// untraced, the paper's protocol again with spans on, the sub-runs and
/// the probes. Returns every recorder's spans.
pub fn exchange_ledger(
    live: &Live<'_>,
    refs: &Refs,
    seconds: f64,
    report: &mut Report,
    setup_rec: &mut Spans,
    scratch: &std::path::Path,
    own_loop: bool,
) -> (Vec<Vec<Span>>, Checks) {
    let p = live.p;
    let mut blocks = Blocks {
        live,
        refs,
        seconds: seconds / 5.0,
        checks: Checks::default(),
    };

    // the main loop, untraced: its shape, p95, and Auto against the best
    let main = blocks.run("main loop", &live.builder_refs(), Mode::Native);
    let us: Vec<f64> = main.iter_s.iter().map(|v| median(v) * 1e6).collect();
    let best_static = us[0].min(us[1]);
    report.put(
        "core.collective.auto_over_best",
        us[2] / best_static,
        main.iter_s[2].len(),
    );
    let full_us: Vec<f64> = main.iter_s[0].iter().map(|s| s * 1e6).collect();
    report.put(
        "core.exec.iter_us_p95",
        quantile(&full_us, 0.95),
        full_us.len(),
    );
    if own_loop {
        loop_shape(&main.block_s, report);
    }

    // the paper's protocol alone, spans off then on: the difference is
    // what tracing costs
    blocks.seconds = seconds / 16.0;
    let spans_per_iter = if p.batch_lifecycle() {
        2 + 2 * p.patterns.len()
    } else {
        3
    };
    let plan = {
        let mut plan = blocks.plan(1, Mode::Native, 15);
        let cap = SPAN_CAP / (spans_per_iter * plan.iters);
        plan.blocks_per_builder = plan.blocks_per_builder.min(cap.max(15));
        plan
    };
    let capacity = plan.blocks_per_builder * plan.iters * spans_per_iter + 64;
    let alone = blocks.run_plan("untraced loop", &[&live.builders[0]], &plan, |_| Off);
    let traced = blocks.run_plan("traced loop", &[&live.builders[0]], &plan, |rank| {
        Spans::new(rank, capacity)
    });
    let traced_us = median(&traced.iter_s[0]) * 1e6;
    // the two loops run one after the other on a host whose speed
    // wanders, so the ratio is taken between calibrated times
    report.put(
        "trace.overhead_ratio",
        median(&traced.iter_cal_us[0]) / median(&alone.iter_cal_us[0]),
        traced.iter_s[0].len(),
    );
    let (post, retire) = post_and_retire(&traced.spans);
    let (post_us, retire_us) = (median(&post), median(&retire));
    report.put("core.exec.start_us", post_us, post.len());
    report.put("core.exec.wait_us", retire_us, retire.len());
    report.put(
        "core.exec.wait_share",
        retire_us / (post_us + retire_us),
        retire.len(),
    );
    report.put(
        "core.exec.span_cover",
        covered_us(&traced.spans[0]) / traced_us,
        traced.iter_s[0].len(),
    );
    let mut all_spans = traced.spans;

    // sub-runs: the same iteration driven in other ways, other backends
    blocks.seconds = seconds / 16.0;
    let polled = {
        let plan = blocks.plan(1, Mode::Poll, 15);
        let cap = SPAN_CAP / (8 * spans_per_iter * plan.iters);
        let plan = BlockPlan {
            blocks_per_builder: plan.blocks_per_builder.min(cap.max(4)),
            ..plan
        };
        blocks.run_plan("poll mode", &[&live.builders[0]], &plan, |rank| {
            Spans::new(rank, SPAN_CAP)
        })
    };
    let iters = polled.poll.iters.max(1) as f64;
    report.put(
        "core.exec.tests_per_iter",
        polled.poll.tests as f64 / iters,
        polled.poll.iters as usize,
    );
    report.put(
        "core.exec.useful_test_ratio",
        polled.poll.useful as f64 / polled.poll.tests.max(1) as f64,
        polled.poll.tests as usize,
    );
    report.put(
        "core.exec.park_us",
        polled.poll.park_ns as f64 / 1e3 / iters,
        polled.poll.iters as usize,
    );
    all_spans.extend(polled.spans);

    let partial = exchange::builder(p, Backend::Protocol(Protocol::PartialNeighbor));
    let partitioned = exchange::builder(p, Backend::Partitioned(Protocol::FullNeighbor));
    let out = blocks.run(
        "partial and partitioned",
        &[&partial, &partitioned],
        Mode::Native,
    );
    report.put(
        "core.exec.iter_us_partial",
        median(&out.iter_s[0]) * 1e6,
        out.iter_s[0].len(),
    );
    report.put(
        "core.exec.iter_us_partitioned",
        median(&out.iter_s[1]) * 1e6,
        out.iter_s[1].len(),
    );
    drop((partial, partitioned));

    // the two ways run one after the other, twice: calibrated times
    let mut any = Vec::new();
    let mut all = Vec::new();
    blocks.seconds = seconds / 40.0;
    for _ in 0..2 {
        any.extend(
            blocks
                .run("wait_any", &[&live.builders[0]], Mode::SessionAny)
                .iter_cal_us
                .remove(0),
        );
        all.extend(
            blocks
                .run("wait_all", &[&live.builders[0]], Mode::SessionAll)
                .iter_cal_us
                .remove(0),
        );
    }
    report.put(
        "core.batch.wait_any_over_wait_all",
        median(&any) / median(&all),
        any.len(),
    );

    blocks.seconds = seconds / 16.0;
    tuned(&mut blocks, report, &scratch.join("profile"));

    let init = exchange::measure_init(&live.pool, &live.builders[0], 5);
    report.put(
        "core.batch.init_us_rank_p50",
        median(&init.rank_us),
        init.rank_us.len(),
    );

    // probes below the collectives and beside them
    let budget = seconds / 40.0;
    let sent = agg_counts(p, report);
    planning(p, report, setup_rec, budget);
    construction(p, report, budget);
    kernels(p, sent, us[0], report, budget);
    transport(p.spec.fabric, report, 1000);
    runtime(p, &live.pool, report, setup_rec, budget);
    modeled(p, report);
    (all_spans, blocks.checks)
}

/// The service layer on an exchange workload's own patterns and fabric,
/// with tenants that only exchange. Every job dups a communicator whose
/// channels are never released, and the shm fabric's table holds 4096 of
/// them, so each repetition gets a fresh pool and runs eleven jobs.
pub fn service_probe(p: &Problem, report: &mut Report) -> Checks {
    let tenants = Tenants::exchange(p, WINDOW);
    let mut times = ServiceTimes::default();
    let mut checks = Checks::default();
    for _ in 0..5 {
        let pool = p.spec.fabric.pool(p.spec.ranks);
        let mut live = ServiceLive::new(pool, WINDOW, tenants.clone());
        live.epoch(Backend::Auto, 1, &mut Off, 0);
        times.measure(&mut live, WINDOW, 1);
        checks.add("service probe", live.checks.attempted, live.checks.failed);
    }
    times.report(report);
    checks
}
