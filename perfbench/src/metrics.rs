//! The metric ledger: every name the benchmark prints, with its unit,
//! direction, regression bound (end to end) or the end-to-end metric and
//! workload it should move (per layer). `BENCHMARK.json` is generated
//! from these tables (`--manifest`), so the two cannot drift.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Must be bit-equal between two runs of one commit and seed.
    pub exact: bool,
    /// The end-to-end metric it should move, and where.
    pub moves: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", 0.25),
    e2e("init_ms", "ms", 0.25),
    e2e("iter_us", "us", 0.25),
    e2e("iter_us_hypre", "us", 0.25),
    e2e("iter_us_auto", "us", 0.25),
    e2e("rss_mb", "MB", 0.25),
];

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        exact: false,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
        exact: false,
        moves,
    }
}

const fn exact(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        exact: true,
        moves,
    }
}

const AGG: &str = "iter_us, perfmodel.modeled_iter_us on halo_small_*; none on halo_bulk_16r";

pub const PER_LAYER: &[PerLayer] = &[
    exact("core.agg.msgs_global", "count", AGG),
    exact("core.agg.msgs_global_hypre", "count", AGG),
    exact("core.agg.msgs_local", "count", AGG),
    exact("core.agg.msgs_global_max", "count", AGG),
    exact("core.agg.msgs_local_max", "count", AGG),
    exact("core.agg.bytes_global_max", "B", AGG),
    exact("core.agg.msgs_global_std", "count", AGG),
    exact("core.agg.bytes_sent_total", "B", AGG),
    exact("core.agg.dedup_ratio", "ratio", AGG),
    lower("core.agg.plan_ms", "ms", "setup_s"),
    lower("core.collective.select_us", "us", "setup_s"),
    lower(
        "core.collective.auto_over_best",
        "ratio",
        "iter_us_auto, chiefly halo_bulk_16r",
    ),
    lower(
        "core.routing.build_ms",
        "ms",
        "setup_s, most on amg_batch_16r",
    ),
    lower("core.batch.first_init_ms", "ms", "setup_s"),
    lower("core.batch.init_us_rank_p50", "us", "init_ms"),
    lower(
        "core.batch.wait_any_over_wait_all",
        "ratio",
        "iter_us on amg_batch_16r",
    ),
    lower(
        "core.exec.start_us",
        "us",
        "iter_us on halo_bulk_16r (gather + push)",
    ),
    lower(
        "core.exec.wait_us",
        "us",
        "iter_us on halo_small_* (blocked on peers + scatter)",
    ),
    lower("core.exec.wait_share", "ratio", "iter_us"),
    lower(
        "core.exec.span_cover",
        "ratio",
        "none: self times under core.exec.iter / traced iteration",
    ),
    lower(
        "core.exec.tests_per_iter",
        "count",
        "iter_us on halo_small_*",
    ),
    higher(
        "core.exec.useful_test_ratio",
        "ratio",
        "iter_us on halo_small_*",
    ),
    lower(
        "core.exec.park_us",
        "us",
        "iter_us: time waiting for other ranks",
    ),
    lower("core.exec.iter_us_p95", "us", "iter_us"),
    lower(
        "core.exec.iter_us_partial",
        "us",
        "iter_us when dedup is off",
    ),
    lower(
        "core.exec.iter_us_partitioned",
        "us",
        "iter_us if the partitioned executor is kept",
    ),
    lower(
        "mpisim.transport.rtt_us_8B",
        "us",
        "iter_us on halo_small_*",
    ),
    lower(
        "mpisim.transport.rtt_us_64KiB",
        "us",
        "iter_us on halo_bulk_16r",
    ),
    higher(
        "mpisim.transport.gbps_64KiB",
        "GB/s",
        "iter_us on halo_bulk_16r",
    ),
    lower(
        "mpisim.transport.p2p_rtt_us",
        "us",
        "init_ms, mpisim.collectives.*",
    ),
    lower("mpisim.runtime.pool_launch_ms", "ms", "setup_s"),
    lower(
        "mpisim.runtime.epoch_us",
        "us",
        "init_ms; iter_us on service_16r",
    ),
    lower(
        "mpisim.collectives.barrier_us",
        "us",
        "init_ms; iter_us on service_16r",
    ),
    lower(
        "mpisim.collectives.allreduce_us",
        "us",
        "iter_us on service_16r, tuner decision",
    ),
    lower(
        "sparse.spmv_us",
        "us",
        "iter_us on amg_batch_16r and service_16r only",
    ),
    higher(
        "sparse.spmv_gflops",
        "GFLOP/s",
        "iter_us on amg_batch_16r only",
    ),
    lower("sparse.commpkg_ms", "ms", "setup_s"),
    lower("amg.setup_ms", "ms", "setup_s"),
    lower("amg.dist_build_ms", "ms", "setup_s"),
    lower("core.tune.probe_iters", "count", "init_ms"),
    lower(
        "core.tune.tuned_over_best",
        "ratio",
        "iter_us_auto's measured counterpart",
    ),
    lower("tuner.cache_hit_init_us", "us", "init_ms"),
    exact(
        "perfmodel.modeled_iter_us",
        "us",
        "iter_us on the thread workloads",
    ),
    exact(
        "perfmodel.modeled_iter_us_hypre",
        "us",
        "iter_us_hypre on the thread workloads",
    ),
    exact(
        "perfmodel.analytic_over_modeled",
        "ratio",
        "none: guards the planner's own prediction",
    ),
    lower("service.single_job_ms", "ms", "init_ms on service_16r"),
    higher(
        "service.concurrent_over_sequential",
        "ratio",
        "iter_us on service_16r",
    ),
    lower(
        "loop.block_ms_p50",
        "ms",
        "iter_us (service_16r: the epoch)",
    ),
    lower(
        "loop.block_ms_p95",
        "ms",
        "iter_us (service_16r: the epoch)",
    ),
    lower(
        "loop.block_ms_max",
        "ms",
        "iter_us (service_16r: the epoch)",
    ),
    lower(
        "loop.drift_ratio",
        "ratio",
        "iter_us, rss_mb on service_16r",
    ),
    lower("loop.stall_outliers", "count", "iter_us on service_16r"),
    higher(
        "host.memcpy_gbps",
        "GB/s",
        "none: the host's in-cache copy rate",
    ),
    lower(
        "host.iter_floor_us",
        "us",
        "none: bytes of one iteration at host.memcpy_gbps",
    ),
    lower("host.iter_over_floor", "ratio", "iter_us"),
    lower(
        "trace.overhead_ratio",
        "ratio",
        "none: traced / untraced iter_us",
    ),
];

/// Output checks made and failed; a failure names its phase on stderr.
#[derive(Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn add(&mut self, phase: &str, attempted: u64, failed: u64) {
        if failed > 0 {
            eprintln!("perfbench: {failed} of {attempted} output checks failed in {phase}");
        }
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// One measured value with the number of samples behind it.
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics one workload run reports, checked against the ledger.
pub struct Report {
    pub traced: bool,
    pub metrics: Vec<Measured>,
}

impl Report {
    pub fn new(traced: bool) -> Self {
        Self {
            traced,
            metrics: Vec::new(),
        }
    }

    fn unit_of(&self, name: &str) -> &'static str {
        let unit = if self.traced {
            PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit)
        } else {
            END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit)
        };
        unit.unwrap_or_else(|| panic!("metric {name} is not in the ledger for this mode"))
    }

    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name} reported twice"
        );
        let unit = self.unit_of(name);
        self.metrics.push(Measured {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Every ledger metric of this mode must be present, in ledger order.
    pub fn finish(mut self) -> Vec<Measured> {
        let names: Vec<&'static str> = if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let at = self
                .metrics
                .iter()
                .position(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            out.push(self.metrics.swap_remove(at));
        }
        out
    }
}

/// Linear-interpolated quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}
