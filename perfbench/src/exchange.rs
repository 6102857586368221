//! The exchange loops: blocks of iterations between two barriers on a
//! warm pool, timed on rank 0, every block's last iteration checked.
//!
//! One driver thread posts epochs; the rank threads are the system under
//! test. Every world here has more ranks than the box has cores, so no
//! wall-clock scaling is derived from these numbers.

use std::sync::Arc;
use std::time::Instant;

use mpi_advance::{Backend, BatchRequest, NeighborBatch, Protocol};
use mpisim::{ChanId, RankCtx, World, WorldPool};
use perfmodel::LocalityModel;

use crate::calib::{calibrated_us, Calibration};
use crate::trace::{Off, Rec, Span, Spans};
use crate::workloads::Problem;

/// The three backends whose blocks alternate inside one epoch, so machine
/// noise hits them equally: the paper's protocol, its baseline, and the
/// default front door.
pub const FULL: Backend = Backend::Protocol(Protocol::FullNeighbor);
pub const HYPRE: Backend = Backend::Protocol(Protocol::StandardHypre);
pub const BACKENDS: [Backend; 3] = [FULL, HYPRE, Backend::Auto];

pub fn builder(p: &Problem, backend: Backend) -> NeighborBatch<'_> {
    let mut b = NeighborBatch::new(&p.topo);
    for pattern in &p.patterns {
        b = b.entry(pattern, backend);
    }
    b
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// The workload's own lifecycle: one collective's `start` + `wait`,
    /// or `start_all` + `wait_any` with SpMV per entry as it lands.
    Native,
    /// `start_all`, retire with `wait_any`, compute per entry.
    SessionAny,
    /// `start_all`, `wait_all`, then compute in bulk.
    SessionAll,
    /// `test` + `pending_chans` + `ctx.wait_any` driven by hand.
    Poll,
}

/// Serial results the SpMV of a batch iteration is checked against:
/// `A x` and `A 1` per level, so `A (x + s)` is known for every shift.
pub struct Refs {
    ax: Vec<Vec<f64>>,
    a1: Vec<Vec<f64>>,
}

impl Refs {
    pub fn of(p: &Problem) -> Self {
        if !p.batch_lifecycle() {
            return Self {
                ax: Vec::new(),
                a1: Vec::new(),
            };
        }
        let ax = p
            .levels
            .iter()
            .zip(&p.xs)
            .map(|(l, x)| l.a.spmv(x))
            .collect();
        let a1 = p
            .levels
            .iter()
            .map(|l| l.a.spmv(&vec![1.0; l.a.n_rows()]))
            .collect();
        Self { ax, a1 }
    }
}

#[derive(Default, Clone, Copy)]
pub struct PollStats {
    pub iters: u64,
    pub tests: u64,
    pub useful: u64,
    pub park_ns: u64,
}

/// One rank's session on one builder, with its buffers.
struct Lane {
    session: BatchRequest,
    inputs: Vec<Vec<f64>>,
    outputs: Vec<Vec<f64>>,
}

/// One rank's side of the measured loop.
struct RankSide<'a> {
    p: &'a Problem,
    me: usize,
    batch: bool,
    compute: bool,
    x_local: Vec<Vec<f64>>,
    y: Vec<Vec<f64>>,
    chans: Vec<ChanId>,
    poll: PollStats,
}

fn shift_of(block: usize) -> f64 {
    (block % 16) as f64 * 0.0625
}

impl<'a> RankSide<'a> {
    fn new(p: &'a Problem, me: usize, compute: bool) -> Self {
        let n = p.levels.len();
        Self {
            p,
            me,
            batch: p.batch_lifecycle(),
            compute: compute && p.batch_lifecycle(),
            x_local: vec![Vec::new(); n],
            y: vec![Vec::new(); n],
            chans: Vec::new(),
            poll: PollStats::default(),
        }
    }

    fn lane(&self, ctx: &mut RankCtx, b: &NeighborBatch<'_>, rec: &mut impl Rec) -> Lane {
        let comm = ctx.comm_world();
        rec.enter("core.batch.init_all", 0);
        let session = b.init_all(ctx, &comm);
        rec.exit();
        let inputs = session
            .requests()
            .iter()
            .map(|r| vec![0.0; r.input_index().len()])
            .collect();
        let outputs = session
            .requests()
            .iter()
            .map(|r| vec![0.0; r.output_index().len()])
            .collect();
        Lane {
            session,
            inputs,
            outputs,
        }
    }

    /// New values for the block, so a stale delivery cannot pass the check.
    fn load(&mut self, lane: &mut Lane, block: usize) {
        let s = shift_of(block);
        for (e, req) in lane.session.requests().iter().enumerate() {
            let x = &self.p.xs[e];
            for (v, &g) in lane.inputs[e].iter_mut().zip(req.input_index()) {
                *v = x[g] + s;
            }
            if self.compute {
                let range = self.p.levels[e].part.range(self.me);
                self.x_local[e].clear();
                self.x_local[e].extend(x[range].iter().map(|v| v + s));
            }
        }
    }

    /// The block's last iteration delivered the block's values — bit for
    /// bit — and, where the workload computes, `y = A x` to 1e-12.
    fn check(&self, lane: &Lane, refs: &Refs, block: usize) -> bool {
        let s = shift_of(block);
        let mut ok = true;
        for (e, req) in lane.session.requests().iter().enumerate() {
            let x = &self.p.xs[e];
            ok &= lane.outputs[e]
                .iter()
                .zip(req.output_index())
                .all(|(&v, &g)| v == x[g] + s);
            if self.compute {
                let first = self.p.levels[e].part.first_row(self.me);
                ok &= self.y[e].len() == self.p.levels[e].part.local_size(self.me);
                ok &= self.y[e].iter().enumerate().all(|(i, &got)| {
                    let want = refs.ax[e][first + i] + s * refs.a1[e][first + i];
                    (got - want).abs() <= 1e-12 * (1.0 + want.abs())
                });
            }
        }
        ok
    }

    fn spmv(&mut self, lane: &Lane, e: usize, rec: &mut impl Rec, op: u64) {
        rec.enter("sparse.spmv", op);
        self.y[e] = self.p.levels[e].mats[self.me].spmv(&self.x_local[e], &lane.outputs[e]);
        rec.exit();
    }

    fn iterate(
        &mut self,
        ctx: &mut RankCtx,
        lane: &mut Lane,
        mode: Mode,
        rec: &mut impl Rec,
        op: u64,
    ) {
        rec.enter("core.exec.iter", op);
        match mode {
            Mode::Native if !self.batch => {
                let req = &mut lane.session.requests_mut()[0];
                rec.enter("core.exec.start", op);
                req.start(ctx, &lane.inputs[0]);
                rec.exit();
                rec.enter("core.exec.wait", op);
                req.wait(ctx, &mut lane.outputs[0]);
                rec.exit();
            }
            Mode::Native | Mode::SessionAny => {
                rec.enter("core.batch.start_all", op);
                lane.session.start_all(ctx, &lane.inputs);
                rec.exit();
                while lane.session.in_flight() > 0 {
                    rec.enter("core.batch.wait_any", op);
                    let e = lane.session.wait_any(ctx, &mut lane.outputs);
                    rec.exit();
                    if self.compute {
                        self.spmv(lane, e, rec, op);
                    }
                }
            }
            Mode::SessionAll => {
                rec.enter("core.batch.start_all", op);
                lane.session.start_all(ctx, &lane.inputs);
                rec.exit();
                rec.enter("core.batch.wait_all", op);
                lane.session.wait_all(ctx, &mut lane.outputs);
                rec.exit();
                if self.compute {
                    for e in 0..lane.outputs.len() {
                        self.spmv(lane, e, rec, op);
                    }
                }
            }
            Mode::Poll => self.iterate_polled(ctx, lane, rec, op),
        }
        rec.exit();
    }

    /// What `wait`/`wait_any` do inside, done from outside so each test
    /// and each park can be counted and timed. A test is useful when it
    /// retired an entry or shrank the set of receives still waited on.
    fn iterate_polled(&mut self, ctx: &mut RankCtx, lane: &mut Lane, rec: &mut impl Rec, op: u64) {
        rec.enter("core.batch.start_all", op);
        lane.session.start_all(ctx, &lane.inputs);
        rec.exit();
        self.poll.iters += 1;
        let mut waited_on = usize::MAX;
        while lane.session.in_flight() > 0 {
            rec.enter("core.exec.test", op);
            let done = lane.session.test_any(ctx, &mut lane.outputs);
            rec.exit();
            self.poll.tests += 1;
            self.chans.clear();
            lane.session.pending_chans(&mut self.chans);
            if done.is_some() || self.chans.len() < waited_on {
                self.poll.useful += 1;
            }
            waited_on = self.chans.len();
            match done {
                Some(e) if self.compute => self.spmv(lane, e, rec, op),
                Some(_) => {}
                None if self.chans.is_empty() => {}
                None => {
                    rec.enter("mpisim.wait_any", op);
                    let t = Instant::now();
                    ctx.wait_any(&self.chans);
                    self.poll.park_ns += t.elapsed().as_nanos() as u64;
                    rec.exit();
                }
            }
        }
    }
}

pub struct BlockPlan {
    pub blocks_per_builder: usize,
    pub iters: usize,
    pub mode: Mode,
}

pub struct BlocksOut {
    /// Per builder, per block: seconds per iteration, timed on rank 0.
    pub iter_s: Vec<Vec<f64>>,
    /// Per builder, per block: the same in calibrated microseconds - the
    /// block's time over the hop time measured right before and after
    /// it, scaled to the nominal hop (see `calib`).
    pub iter_cal_us: Vec<Vec<f64>>,
    /// Every block in run order: rank 0's wall seconds.
    pub block_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// One recorder per rank (empty when untraced).
    pub spans: Vec<Vec<Span>>,
    pub poll: PollStats,
}

/// One epoch: every builder's session live at once, blocks alternating
/// between them. `barrier → iters × iterate → barrier`, timed on rank 0,
/// with one calibration before the first block and after each.
pub fn run_blocks<R: Rec>(
    p: &Problem,
    refs: &Refs,
    pool: &WorldPool,
    builders: &[&NeighborBatch<'_>],
    plan: &BlockPlan,
    recorder: impl Fn(i32) -> R + Send + Sync,
) -> BlocksOut {
    let nb = builders.len();
    let calibration = Calibration::new(pool.n_ranks());
    let per_rank = pool.run(|ctx| {
        let comm = ctx.comm_world();
        let mut hops = vec![calibration.hop_seconds(ctx.rank(), 0)];
        let mut rec = recorder(ctx.rank() as i32);
        let mut side = RankSide::new(p, ctx.rank(), true);
        let mut lanes: Vec<Lane> = builders
            .iter()
            .map(|b| side.lane(ctx, b, &mut rec))
            .collect();
        let mut times = Vec::with_capacity(plan.blocks_per_builder * nb);
        let mut failed = 0u64;
        for block in 0..plan.blocks_per_builder * nb {
            let lane = &mut lanes[block % nb];
            side.load(lane, block);
            ctx.barrier(&comm);
            let t0 = Instant::now();
            for k in 0..plan.iters {
                let op = (block * plan.iters + k) as u64;
                side.iterate(ctx, lane, plan.mode, &mut rec, op);
            }
            ctx.barrier(&comm);
            times.push(t0.elapsed().as_secs_f64());
            failed += u64::from(!side.check(lane, refs, block));
            hops.push(calibration.hop_seconds(ctx.rank(), block as u64 + 1));
        }
        (times, hops, failed, rec.into_spans(), side.poll)
    });
    let n_ranks = per_rank.len() as u64;
    let mut out = BlocksOut {
        iter_s: vec![Vec::new(); nb],
        iter_cal_us: vec![Vec::new(); nb],
        block_s: Vec::new(),
        attempted: n_ranks * (plan.blocks_per_builder * nb) as u64,
        failed: 0,
        spans: Vec::new(),
        poll: PollStats::default(),
    };
    for (rank, (times, hops, failed, spans, poll)) in per_rank.into_iter().enumerate() {
        if rank == 0 {
            for (block, &t) in times.iter().enumerate() {
                let iter_s = t / plan.iters as f64;
                let hop_s = (hops[block] + hops[block + 1]) / 2.0;
                out.iter_s[block % nb].push(iter_s);
                out.iter_cal_us[block % nb].push(calibrated_us(iter_s, hop_s));
            }
            out.block_s = times;
        }
        out.failed += failed;
        out.spans.push(spans);
        out.poll.iters += poll.iters;
        out.poll.tests += poll.tests;
        out.poll.useful += poll.useful;
        out.poll.park_ns += poll.park_ns;
    }
    out
}

pub struct InitTimes {
    /// Per block: rank 0's wall milliseconds per re-init, calibrated like
    /// [`BlocksOut::iter_cal_us`].
    pub world_cal_ms: Vec<f64>,
    /// Every rank's own `init_all` call in microseconds.
    pub rank_us: Vec<f64>,
}

/// Re-inits per timed block: a warm `init_all` costs a few microseconds
/// per rank and a barrier at 16 ranks on 2 cores about 200, so one
/// re-init between two barriers would time the barrier.
const INITS_PER_BLOCK: usize = 50;

/// Warm re-inits: the builder is built once, as SPMD code does; each
/// repetition registers every entry again on the warm pool and drops the
/// session. `barrier -> 50 x (init_all, drop) -> barrier`, rank 0's wall
/// time over 50.
pub fn measure_init(pool: &WorldPool, b: &NeighborBatch<'_>, blocks: usize) -> InitTimes {
    let calibration = Calibration::new(pool.n_ranks());
    let per_rank = pool.run(|ctx| {
        let comm = ctx.comm_world();
        let mut world = Vec::with_capacity(blocks);
        let mut hops = vec![calibration.hop_seconds(ctx.rank(), 0)];
        let mut own = Vec::with_capacity(blocks * INITS_PER_BLOCK);
        for block in 0..blocks {
            ctx.barrier(&comm);
            let t0 = Instant::now();
            for _ in 0..INITS_PER_BLOCK {
                let t = Instant::now();
                let session = b.init_all(ctx, &comm);
                own.push(t.elapsed().as_secs_f64() * 1e6);
                drop(session);
            }
            ctx.barrier(&comm);
            world.push(t0.elapsed().as_secs_f64() * 1e3 / INITS_PER_BLOCK as f64);
            hops.push(calibration.hop_seconds(ctx.rank(), block as u64 + 1));
        }
        (world, hops, own)
    });
    let mut out = InitTimes {
        world_cal_ms: Vec::new(),
        rank_us: Vec::new(),
    };
    for (rank, (world, hops, own)) in per_rank.into_iter().enumerate() {
        if rank == 0 {
            out.world_cal_ms = world
                .iter()
                .zip(hops.windows(2))
                .map(|(ms, hop)| calibrated_us(ms * 1e-3, (hop[0] + hop[1]) / 2.0) * 1e-3)
                .collect();
        }
        out.rank_us.extend(own);
    }
    out
}

/// The Lassen locality model without its queue-search term, which charges
/// by mailbox depth at match time and so depends on thread arrival order.
pub fn lassen_no_queue() -> LocalityModel {
    let mut m = LocalityModel::lassen();
    m.queue_coeff = 0.0;
    m
}

/// Per-iteration virtual-clock microseconds of `backend` on a modeled
/// world, max over ranks, communication only. Every entry runs alone
/// and the entries are summed: with several collectives in flight on one
/// rank the order they retire in (a race between threads) leaks into the
/// clock, alone each repeats exactly.
pub fn modeled_iter_us(p: &Problem, backend: Backend, iters: usize) -> f64 {
    let pool = World::pool_modeled(p.topo.clone(), Arc::new(lassen_no_queue()));
    p.patterns
        .iter()
        .map(|pattern| {
            let b = NeighborBatch::new(&p.topo).entry(pattern, backend);
            let clocks = pool.run(|ctx| {
                let comm = ctx.comm_world();
                let mut req = b.init_all(ctx, &comm).into_requests().remove(0);
                let input = vec![1.0; req.input_index().len()];
                let mut output = vec![0.0; req.output_index().len()];
                ctx.barrier(&comm);
                let t0 = ctx.clock();
                for _ in 0..iters {
                    req.start_wait(ctx, &input, &mut output);
                }
                ctx.clock() - t0
            });
            clocks.into_iter().fold(0.0, f64::max) / iters as f64 * 1e6
        })
        .sum()
}

/// A planned, launched exchange workload whose every builder has run its
/// first iteration.
pub struct Live<'p> {
    pub p: &'p Problem,
    pub pool: WorldPool,
    /// One builder per entry of [`BACKENDS`].
    pub builders: Vec<NeighborBatch<'p>>,
    /// Seconds per iteration seen by [`Live::warm_up`], all backends
    /// averaged.
    warm_iter_s: f64,
}

impl<'p> Live<'p> {
    /// Plan + routing (the builders resolve both), pool launch, first
    /// `init_all` and first iteration of every backend: the rest of
    /// set-up after the problem.
    pub fn start(p: &'p Problem, refs: &Refs, rec: &mut Spans) -> Self {
        let builders: Vec<NeighborBatch<'p>> = BACKENDS.iter().map(|&b| builder(p, b)).collect();
        rec.scope("core.batch.resolve", |_| {
            for b in &builders {
                let _ = b.tag_bases();
            }
        });
        let pool = rec.scope("mpisim.runtime.pool_launch", |_| {
            p.spec.fabric.pool(p.spec.ranks)
        });
        let mut live = Self {
            p,
            pool,
            builders,
            warm_iter_s: 0.0,
        };
        rec.scope("perfbench.first_iteration", |_| live.blocks(refs, 1, 1));
        live
    }

    fn blocks(&mut self, refs: &Refs, blocks_per_builder: usize, iters: usize) {
        let plan = BlockPlan {
            blocks_per_builder,
            iters,
            mode: Mode::Native,
        };
        let out = run_blocks(
            self.p,
            refs,
            &self.pool,
            &self.builder_refs(),
            &plan,
            |_| Off,
        );
        assert_eq!(out.failed, 0, "warm-up delivered wrong values");
        let last: Vec<f64> = out.iter_s.iter().map(|v| v[v.len() - 1]).collect();
        self.warm_iter_s = last.iter().sum::<f64>() / last.len() as f64;
    }

    /// Two blocks per backend, not timed as set-up (how long a benchmark
    /// warms up is its own choice): they fill the channels' buffer pools
    /// and tell [`Live::blocks_for`] how long a block takes.
    pub fn warm_up(&mut self, refs: &Refs) {
        self.blocks(refs, 2, self.p.spec.iters_per_block);
    }

    pub fn builder_refs(&self) -> Vec<&NeighborBatch<'p>> {
        self.builders.iter().collect()
    }

    /// Blocks per builder that fill `seconds`, at least `min`.
    pub fn blocks_for(&self, seconds: f64, builders: usize, min: usize) -> usize {
        let block_s = self.warm_iter_s * self.p.spec.iters_per_block as f64;
        ((seconds / (block_s * builders as f64)) as usize).max(min)
    }
}
