//! One workload, one process: trials of set-up and measurement until
//! `--seconds` are spent (untraced), or one set-up and the per-layer
//! ledger (traced); every output checked.

use std::path::Path;
use std::time::Instant;

use crate::calib;
use crate::exchange::{self, BlockPlan, Live, Mode, Refs, BACKENDS, FULL};
use crate::layers;
use crate::metrics::{median, Checks, Measured, Report};
use crate::service::{ServiceLive, Tenants};
use crate::trace::{self, Off, Rec, Span, Spans, DRIVER};
use crate::workloads::{Kind, Problem, Seeds, Spec, WINDOW};

/// Seconds of timed blocks (or epochs) per trial of an untraced run, and
/// the fewest trials a run makes. The traced run sets up once.
const SLICE_S: f64 = 1.0;
const MIN_TRIALS: usize = 3;

pub struct Outcome {
    pub traced: bool,
    pub checks: Checks,
    pub metrics: Vec<Measured>,
}

/// `VmHWM` of this process in MB.
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// A service on a fresh pool and its first job under every backend: the
/// rest of the service workload's set-up after the problem.
fn start_service(p: &Problem, tenants: Tenants, rec: &mut Spans) -> ServiceLive {
    let pool = rec.scope("mpisim.runtime.pool_launch", |_| {
        p.spec.fabric.pool(p.spec.ranks)
    });
    let mut live = ServiceLive::new(pool, WINDOW, tenants);
    rec.scope("perfbench.first_iteration", |rec| {
        for backend in BACKENDS {
            live.epoch(backend, 1, rec, 0);
        }
    });
    live
}

/// One full epoch per backend, not timed as set-up (how long a benchmark
/// warms up is its own choice).
fn warm_up_service(live: &mut ServiceLive) {
    for backend in BACKENDS {
        live.epoch(backend, live.tenants.len(), &mut Off, 0);
    }
    assert_eq!(
        live.checks.failed, 0,
        "warm-up epoch returned a wrong result"
    );
}

/// Times the parts of one set-up, each divided by the host's compute
/// kernel run right before and after it and scaled to the nominal kernel
/// time.
struct SetupClock {
    kernel_s: f64,
    calibrated_s: f64,
}

impl SetupClock {
    fn start() -> Self {
        Self {
            kernel_s: calib::compute_seconds(),
            calibrated_s: 0.0,
        }
    }

    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let raw = t.elapsed().as_secs_f64();
        let after = calib::compute_seconds();
        self.calibrated_s += raw / ((self.kernel_s + after) / 2.0) * calib::NOMINAL_COMPUTE_S;
        self.kernel_s = after;
        out
    }
}

/// What the trials of one untraced run add up to. Each trial sets the
/// workload up from scratch and measures on what it set up for
/// [`SLICE_S`]; trials repeat until `--seconds` are spent. The host's
/// speed wanders on the scale of a second, and thread placement and
/// memory layout differ from one pool to the next, so many short trials
/// see more of both than one long one. Timed samples of all trials are
/// pooled and each metric is their median.
#[derive(Default)]
struct Trials {
    setup_s: Vec<f64>,
    init_ms: Vec<f64>,
    iter_us: [Vec<f64>; 3],
    checks: Checks,
}

impl Trials {
    fn more(&self, started: Instant, seconds: f64) -> bool {
        self.setup_s.len() < MIN_TRIALS || started.elapsed().as_secs_f64() < seconds
    }

    fn finish(self, rss_mb: f64) -> Outcome {
        let mut report = Report::new(false);
        report.put("setup_s", median(&self.setup_s), self.setup_s.len());
        report.put("init_ms", median(&self.init_ms), self.init_ms.len());
        for (name, samples) in ["iter_us", "iter_us_hypre", "iter_us_auto"]
            .into_iter()
            .zip(&self.iter_us)
        {
            report.put(name, median(samples), samples.len());
        }
        report.put("rss_mb", rss_mb, 1);
        Outcome {
            traced: false,
            checks: self.checks,
            metrics: report.finish(),
        }
    }
}

/// End-to-end numbers of an exchange workload.
fn exchange_untraced(spec: &'static Spec, seeds: Seeds, seconds: f64, rec: &mut Spans) -> Outcome {
    let mut trials = Trials::default();
    let mut rss = 0.0;
    let started = Instant::now();
    while trials.more(started, seconds) {
        // what the checker compares against is not part of set-up
        let mut clock = SetupClock::start();
        let problem = clock.time(|| Problem::build(spec, seeds, rec));
        let refs = Refs::of(&problem);
        let mut live = clock.time(|| Live::start(&problem, &refs, rec));
        trials.setup_s.push(clock.calibrated_s);
        live.warm_up(&refs);

        let init = exchange::measure_init(&live.pool, &live.builders[0], 20);
        trials.init_ms.extend(init.world_cal_ms);

        let plan = BlockPlan {
            blocks_per_builder: live.blocks_for(SLICE_S, BACKENDS.len(), 5),
            iters: spec.iters_per_block,
            mode: Mode::Native,
        };
        let out = exchange::run_blocks(
            &problem,
            &refs,
            &live.pool,
            &live.builder_refs(),
            &plan,
            |_| Off,
        );
        trials.checks.add("main loop", out.attempted, out.failed);
        for (all, times) in trials.iter_us.iter_mut().zip(out.iter_cal_us) {
            all.extend(times);
        }
        // how many trials fit depends on the host's speed: the high-water
        // mark is read after a fixed amount of work
        if trials.setup_s.len() == 1 {
            rss = rss_mb();
        }
    }
    trials.finish(rss)
}

/// Epochs of all tenants, backends alternating, until `seconds` are
/// spent and at least `min_rounds` rounds are done, a calibration between
/// every two. Per backend: wall seconds with the hop seconds measured
/// around the epoch; and every epoch's wall seconds in run order.
struct Epochs {
    per_backend: Vec<Vec<(f64, f64)>>,
    all: Vec<f64>,
}

fn service_epochs(
    live: &mut ServiceLive,
    seconds: f64,
    min_rounds: usize,
    rec: &mut impl Rec,
) -> Epochs {
    let jobs = live.tenants.len();
    let mut out = Epochs {
        per_backend: vec![Vec::new(); BACKENDS.len()],
        all: Vec::new(),
    };
    let started = Instant::now();
    let mut hop = live.hop_seconds();
    while started.elapsed().as_secs_f64() < seconds || out.all.len() < min_rounds * BACKENDS.len() {
        for (b, &backend) in BACKENDS.iter().enumerate() {
            let wall = live.epoch(backend, jobs, rec, out.all.len() as u64);
            let after = live.hop_seconds();
            out.per_backend[b].push((wall, (hop + after) / 2.0));
            out.all.push(wall);
            hop = after;
        }
    }
    out
}

/// End-to-end numbers of the service workload. `iter_us*` is the median
/// epoch divided by its tenants: microseconds per job, so jobs per second
/// is its inverse. `init_ms` is one tenant alone in an epoch: what an idle
/// service adds to a job (dup, registration barrier, init, one sweep).
fn service_untraced(spec: &'static Spec, seeds: Seeds, seconds: f64, rec: &mut Spans) -> Outcome {
    let mut trials = Trials::default();
    let mut rss = 0.0;
    let started = Instant::now();
    while trials.more(started, seconds) {
        let mut clock = SetupClock::start();
        let problem = clock.time(|| Problem::build(spec, seeds, rec));
        let tenants = Tenants::jacobi(&problem);
        let mut live = clock.time(|| start_service(&problem, tenants, rec));
        trials.setup_s.push(clock.calibrated_s);
        warm_up_service(&mut live);

        for _ in 0..8 {
            let hop = live.hop_seconds();
            let wall = live.epoch(FULL, 1, &mut Off, 0);
            trials.init_ms.push(calib::calibrated_us(wall, hop) * 1e-3);
        }

        // Every job's dup'd communicator keeps its channels for the life
        // of the pool, so memory grows with the jobs served: read the
        // high-water mark at a fixed amount of work - the first trial's
        // set-up, single jobs and twelve epochs - not after however many
        // epochs fit.
        let t = Instant::now();
        let first = service_epochs(&mut live, 0.0, 4, &mut Off);
        if trials.setup_s.len() == 1 {
            rss = rss_mb();
        }
        let rest = service_epochs(&mut live, SLICE_S - t.elapsed().as_secs_f64(), 0, &mut Off);
        let jobs = problem.jobs.len() as f64;
        for part in [first, rest] {
            for (all, epochs) in trials.iter_us.iter_mut().zip(part.per_backend) {
                all.extend(
                    epochs
                        .iter()
                        .map(|&(wall, hop)| calib::calibrated_us(wall / jobs, hop)),
                );
            }
        }
        let c = live.checks;
        trials.checks.add("service epochs", c.attempted, c.failed);
    }
    trials.finish(rss)
}

/// The per-layer ledger of an exchange workload.
fn exchange_traced(
    spec: &'static Spec,
    seeds: Seeds,
    seconds: f64,
    rec: &mut Spans,
    scratch: &Path,
) -> (Outcome, Vec<Vec<Span>>) {
    let problem = Problem::build(spec, seeds, rec);
    let refs = Refs::of(&problem);
    let mut live = Live::start(&problem, &refs, rec);
    live.warm_up(&refs);
    let mut report = Report::new(true);
    let (spans, mut checks) =
        layers::exchange_ledger(&live, &refs, seconds, &mut report, rec, scratch, true);
    drop(live);
    let probe = layers::service_probe(&problem, &mut report);
    checks.add("the service layer", probe.attempted, probe.failed);
    let outcome = Outcome {
        traced: true,
        checks,
        metrics: report.finish(),
    };
    (outcome, spans)
}

/// The per-layer ledger of the service workload: the service's own
/// epochs with a span each, then the layers under it measured on one
/// tenant's batch, driven directly on a pool of the same size.
fn service_traced(
    spec: &'static Spec,
    seeds: Seeds,
    seconds: f64,
    rec: &mut Spans,
    scratch: &Path,
) -> (Outcome, Vec<Vec<Span>>) {
    let mut problem = Problem::build(spec, seeds, rec);
    problem.split_levels();
    let mut live = start_service(&problem, Tenants::jacobi(&problem), rec);
    warm_up_service(&mut live);
    let mut report = Report::new(true);
    let epochs = service_epochs(&mut live, seconds / 4.0, 10, rec);
    layers::loop_shape(&epochs.all, &mut report);
    let mut times = layers::ServiceTimes::default();
    times.measure(&mut live, problem.jobs.len(), 5);
    times.report(&mut report);
    let mut checks = live.checks;
    drop(live);

    let refs = Refs::of(&problem);
    let mut direct = Live::start(&problem, &refs, rec);
    direct.warm_up(&refs);
    let (spans, ledger) =
        layers::exchange_ledger(&direct, &refs, seconds, &mut report, rec, scratch, false);
    checks.add(
        "the tenant batch driven directly",
        ledger.attempted,
        ledger.failed,
    );
    let outcome = Outcome {
        traced: true,
        checks,
        metrics: report.finish(),
    };
    (outcome, spans)
}

pub fn workload(
    spec: &'static Spec,
    seeds: Seeds,
    seconds: f64,
    traced: bool,
    root: &Path,
    scratch: &Path,
) -> Outcome {
    trace::now_ns();
    let mut rec = Spans::new(DRIVER, 4096);
    let service = spec.kind == Kind::Service;
    if !traced {
        return if service {
            service_untraced(spec, seeds, seconds, &mut rec)
        } else {
            exchange_untraced(spec, seeds, seconds, &mut rec)
        };
    }
    let (outcome, mut spans) = if service {
        service_traced(spec, seeds, seconds, &mut rec, scratch)
    } else {
        exchange_traced(spec, seeds, seconds, &mut rec, scratch)
    };
    spans.insert(0, rec.into_spans());
    let path = root.join(format!("trace-{}.jsonl", spec.name));
    match trace::write_jsonl(&path, &spans) {
        Ok(n) => eprintln!("perfbench: {n} spans in {}", path.display()),
        Err(e) => panic!("write {}: {e}", path.display()),
    }
    outcome
}
