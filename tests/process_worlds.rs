//! Acceptance tests for process worlds: ranks as real OS processes over
//! `World::spawn(fabric, n)`, on the shm fabric (one `/dev/shm` segment)
//! and the sock fabric (a mesh of stream sockets, UDS by default, TCP on
//! demand).
//!
//! `harness = false`: the binary dispatches on its arguments. Given
//! `<fabric> <scenario>` it is a scenario process — rank 0 of its own
//! process world, which re-execs the remaining ranks, which land back in
//! `main` with the same arguments. Given just `shm` or `sock` it
//! orchestrates that fabric's scenarios, and given anything else (nothing,
//! or a libtest filter) both fabrics': it re-runs itself once per scenario
//! as a subprocess. This keeps the one-launch-per-process rule of
//! `World::spawn` intact while letting one `cargo test` invocation cover
//! all scenarios.
//!
//! Scenarios on both fabrics:
//! - `equivalence`: mixed plain/persistent/collective traffic on 4 process
//!   ranks, byte-identical to the same closure on the thread transport.
//! - `amg`: the paper pipeline — every AMG level's halo exchange through
//!   one `NeighborBatch` session on 8 process ranks, byte-identical to the
//!   thread-transport run.
//! - `death`: a worker process exits mid-epoch without announcing anything
//!   (the `SIGKILL` shape); every surviving rank must abort loudly instead
//!   of deadlocking, and the scenario process must exit nonzero.
//! - `faultkill`: `MPISIM_FAULTS` kills a non-driver rank at a chosen
//!   transport op; the watchdog and the peers' liveness probes (pid sweeps
//!   on shm, dead links on sock) must end the world loudly within the
//!   fault plan's deadline.
//! - `prejoin`: a worker exits before it joins the world (a rank that dies
//!   in `MPI_Init`); nothing restarts it, so the driver's bootstrap must
//!   abort loudly, naming the rank and its exit status.
//!
//! On sock only:
//! - `tcp`: the equivalence traffic with `MPISIM_SOCK_ADDR=127.0.0.1:0`,
//!   so the rendezvous AND the whole mesh run over TCP — the cross-host
//!   shape.
//! - `drop`: `MPISIM_FAULTS` severs live inter-process links mid-epoch
//!   (80‰ of deposits). Every severed link must reconnect and resume from
//!   its replay buffer; the run must stay byte-identical to the thread
//!   reference.
//!
//! Around each fabric's scenarios the orchestrator snapshots where that
//! fabric leaves files — `mpisim-*` segments under `/dev/shm`,
//! `mpisim-sock-*` UDS listener paths under the temp directory — and fails
//! if any outlives its world; not even the aborted worlds may leave one
//! behind. A scenario's stderr is captured: the should-fail ones must name
//! the dead rank there, and it is shown only when a scenario ends the
//! wrong way.

use amg::{DistributedHierarchy, Hierarchy, HierarchyOptions};
use locality::Topology;
use mpi_advance::{Backend, CommPattern, NeighborBatch, Protocol};
use mpisim::{Fabric, RankCtx, World};
use sparse::gen::diffusion::paper_problem;
use sparse::vector::random_vec;
use sparse::ParCsr;
use std::io::Read;
use std::time::{Duration, Instant};

/// One scenario: its name, its body, and whether its process must succeed.
type Scenario = (&'static str, fn(Fabric), bool);

fn scenarios(fabric: Fabric) -> Vec<Scenario> {
    let mut all: Vec<Scenario> = vec![
        ("equivalence", scenario_equivalence, true),
        ("amg", scenario_amg, true),
    ];
    if fabric == Fabric::Sock {
        all.extend([
            ("tcp", scenario_tcp as fn(Fabric), true),
            // transient faults: severed links must resume invisibly
            ("drop", scenario_drop, true),
        ]);
    }
    // death containment: the world must end LOUDLY (nonzero exit), and
    // within the deadline (a deadlock would hang the orchestrator)
    all.extend([
        ("death", scenario_death as fn(Fabric), false),
        ("faultkill", scenario_faultkill, false),
        ("prejoin", scenario_prejoin, false),
    ]);
    all
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fabric = args.first().and_then(|name| {
        [Fabric::Shm, Fabric::Sock]
            .into_iter()
            .find(|f| f.name() == name)
    });
    match (fabric, args.get(1)) {
        (Some(fabric), Some(name)) => {
            let (_, body, _) = scenarios(fabric)
                .into_iter()
                .find(|(n, ..)| n == name)
                .unwrap_or_else(|| panic!("no {} scenario {name:?}", fabric.name()));
            body(fabric);
        }
        (Some(fabric), None) => orchestrate(fabric),
        _ => [Fabric::Shm, Fabric::Sock]
            .into_iter()
            .for_each(orchestrate),
    }
}

// ---- orchestrator ---------------------------------------------------------

fn orchestrate(fabric: Fabric) {
    let before = leftovers(fabric);
    for (name, _, expect_success) in scenarios(fabric) {
        run_scenario(fabric, name, expect_success);
    }
    let leaked: Vec<String> = leftovers(fabric)
        .into_iter()
        .filter(|f| !before.contains(f))
        .collect();
    assert!(
        leaked.is_empty(),
        "{} worlds leaked {leaked:?}",
        fabric.name()
    );
    println!("process_worlds: all {} scenarios passed", fabric.name());
}

/// The files `fabric`'s worlds create and must remove: shm segments
/// (driver-side unlink after the attach barrier + `Drop`), or
/// auto-assigned UDS listener paths (scrubbed on every exit path, and by
/// the driver for a worker it reaped).
fn leftovers(fabric: Fabric) -> Vec<String> {
    let (dir, prefix) = match fabric {
        Fabric::Shm => ("/dev/shm".into(), "mpisim-"),
        _ => (std::env::temp_dir(), "mpisim-sock-"),
    };
    match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with(prefix))
            .collect(),
        Err(_) => Vec::new(),
    }
}

fn run_scenario(fabric: Fabric, name: &str, expect_success: bool) {
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(&exe)
        .args([fabric.name(), name])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn scenario process");
    // the scenario's worker processes inherit the pipe: drain it as they
    // write, and read to the end only once the last of them is gone
    let mut pipe = child.stderr.take().expect("piped stderr");
    let stderr = std::thread::spawn(move || {
        let mut bytes = Vec::new();
        let _ = pipe.read_to_end(&mut bytes);
        String::from_utf8_lossy(&bytes).into_owned()
    });
    let deadline = Instant::now() + Duration::from_secs(300);
    let status = loop {
        match child.try_wait().expect("poll scenario process") {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("scenario {name} deadlocked (no exit before the deadline)");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let stderr = stderr.join().expect("stderr reader");
    // every should-fail scenario loses rank 2
    let names_the_dead = expect_success || stderr.contains("rank 2");
    if status.success() != expect_success || !names_the_dead {
        eprint!("{stderr}");
    }
    assert_eq!(
        status.success(),
        expect_success,
        "{} scenario {name}: unexpected exit {status}",
        fabric.name()
    );
    assert!(
        names_the_dead,
        "{} scenario {name}: nothing the dying world said names rank 2",
        fabric.name()
    );
    println!(
        "process_worlds: {} scenario {name} ok ({status})",
        fabric.name()
    );
}

// ---- equivalence ----------------------------------------------------------

/// Mixed traffic exercising every fabric seam: plain mailbox sends (small
/// and large), persistent channels, and a collective.
fn traffic(ctx: &mut RankCtx) -> Vec<u64> {
    let comm = ctx.comm_world();
    let n = ctx.size();
    let r = ctx.rank();
    let right = (r + 1) % n;
    let left = (r + n - 1) % n;
    let mut out = Vec::new();

    // plain ring
    ctx.send(&comm, right, 1, &[(r as u64) * 3 + 1]);
    out.extend(ctx.recv::<u64>(&comm, left, 1));

    // oversized plain payload: on shm it streams through the bounded
    // mailbox ring in chunks (reassembled receiver-side); on sock it spans
    // many wire frames' worth of data and (under the drop scenario)
    // straddles link severs mid-message
    let big: Vec<u64> = (0..80_000).map(|i| (r as u64) << 32 | i).collect();
    ctx.send(&comm, right, 2, &big);
    let got: Vec<u64> = ctx.recv(&comm, left, 2);
    out.push(got.len() as u64);
    out.push(got[79_999]);

    // persistent channels, two iterations on one registration
    let send = ctx.send_chan_init::<u64>(&comm, right, 3, 1);
    let mut recv = ctx.recv_chan_init::<u64>(&comm, left, 3, 1);
    for it in 0..2u64 {
        send.start_with(ctx, |b| b.push(r as u64 * 100 + it));
        recv.start();
        out.push(recv.wait_with(ctx, |d| d[0]));
    }

    // collective
    out.extend(ctx.allgather(&comm, &[r as u64 * 7 + 5]));
    out
}

/// The shared body of the should-succeed traffic scenarios: run `traffic`
/// on a 4-rank process world, derive the thread-transport reference
/// independently in every process (deterministic), then assert this
/// process's rank INSIDE an epoch, so a mismatch in any process aborts
/// the whole world loudly. Only rank 0 comes back: dropping the world is
/// where a worker process ends.
fn assert_traffic_matches_thread_world(fabric: Fabric, what: &str) {
    const N: usize = 4;
    let world = World::spawn(fabric, N);
    let mine = world.run(traffic);
    let reference = World::run(N, traffic);
    let rank = world.rank();
    world.run(move |_ctx| {
        assert_eq!(
            mine, reference[rank],
            "rank {rank}: {what} traffic diverged from the thread world"
        );
    });
}

fn scenario_equivalence(fabric: Fabric) {
    assert_traffic_matches_thread_world(fabric, "process-world");
}

// ---- amg ------------------------------------------------------------------

const AMG_RANKS: usize = 8;

/// The amg_solve example's core at test scale: hierarchy, per-level
/// patterns, one batch holding every level's collective, and the input /
/// operator data. Built ONCE per process and shared across rank closures
/// — a `NeighborBatch` leases its entries' tag namespaces from the
/// process-global `TagSpace`, so thread-world ranks must share one batch
/// (per-rank batches would lease disjoint tag ranges and never match).
/// Each process builds its own identical copy: the leased bases are
/// deterministic in a fresh process, so process ranks agree with each
/// other and with the thread-world reference.
struct AmgSetup {
    h: Hierarchy,
    dist: DistributedHierarchy,
    topo: Topology,
    patterns: Vec<CommPattern>,
    xs: Vec<Vec<f64>>,
}

impl AmgSetup {
    fn build() -> Self {
        let h = Hierarchy::setup(paper_problem(64, 32), HierarchyOptions::default());
        let dist = DistributedHierarchy::build(&h, AMG_RANKS);
        let topo = Topology::block_nodes(AMG_RANKS, 4);
        let patterns = dist.patterns();
        let xs: Vec<Vec<f64>> = dist
            .levels
            .iter()
            .map(|dlvl| random_vec(dlvl.n_rows, dlvl.level as u64))
            .collect();
        Self {
            h,
            dist,
            topo,
            patterns,
            xs,
        }
    }

    /// The one batch holding every level's collective, borrowing `self`
    /// (a `NeighborBatch` borrows its topology and patterns, so it lives
    /// in the caller's frame).
    fn batch(&self) -> NeighborBatch<'_> {
        let mut batch = NeighborBatch::new(&self.topo);
        for pattern in &self.patterns {
            batch = batch.entry(pattern, Backend::Protocol(Protocol::FullNeighbor));
        }
        batch
    }

    /// Every AMG level's halo exchange through one batch session, returning
    /// this rank's per-level SpMV output bits.
    fn run(&self, batch: &NeighborBatch<'_>, ctx: &mut RankCtx) -> Vec<Vec<u64>> {
        let me = ctx.rank();
        let pars: Vec<ParCsr> = self
            .dist
            .levels
            .iter()
            .map(|dlvl| ParCsr::split_all(&self.h.levels[dlvl.level].a, &dlvl.part).swap_remove(me))
            .collect();
        let comm = ctx.comm_world();
        let mut session = batch.init_all(ctx, &comm);
        let inputs: Vec<Vec<f64>> = session
            .requests()
            .iter()
            .enumerate()
            .map(|(lvl, req)| req.input_index().iter().map(|&i| self.xs[lvl][i]).collect())
            .collect();
        let mut ghosts: Vec<Vec<f64>> = session
            .requests()
            .iter()
            .map(|req| vec![0.0; req.output_index().len()])
            .collect();
        session.start_all(ctx, &inputs);
        let mut ys: Vec<Vec<u64>> = vec![Vec::new(); session.len()];
        while session.in_flight() > 0 {
            let lvl = session.wait_any(ctx, &mut ghosts);
            let range = self.dist.levels[lvl].part.range(me);
            ys[lvl] = pars[lvl]
                .spmv(&self.xs[lvl][range], &ghosts[lvl])
                .iter()
                .map(|v| v.to_bits())
                .collect();
        }
        ys
    }
}

fn scenario_amg(fabric: Fabric) {
    let setup = AmgSetup::build();
    let batch = setup.batch();
    let world = World::spawn(fabric, AMG_RANKS);
    let mine = world.run(|ctx| setup.run(&batch, ctx));
    let reference = World::run(AMG_RANKS, |ctx| setup.run(&batch, ctx));
    let rank = world.rank();
    world.run(move |_ctx| {
        for (lvl, (got, want)) in mine.iter().zip(&reference[rank]).enumerate() {
            assert_eq!(
                got, want,
                "rank {rank} level {lvl}: process-world SpMV diverged from the thread world"
            );
        }
    });
}

// ---- tcp (sock) -----------------------------------------------------------

/// The same equivalence bar over TCP: the driver binds `127.0.0.1:0`, and
/// workers match its address family, so rendezvous and mesh both run over
/// TCP streams — the shape the fabric takes across hosts.
fn scenario_tcp(fabric: Fabric) {
    // a bind spec set from outside wins; workers inherit the driver's
    if std::env::var("MPISIM_SOCK_ADDR").is_err() {
        std::env::set_var("MPISIM_SOCK_ADDR", "127.0.0.1:0");
    }
    assert_traffic_matches_thread_world(fabric, "TCP socket-world");
}

// ---- drop (sock) ----------------------------------------------------------

/// `MPISIM_FAULTS` severs live sockets under real traffic in every process
/// of the world (each deposit has an 80‰ chance of tearing down its link
/// first). The connector side must redial with backoff, resume from the
/// replay buffer, and deliver exactly once — byte-identical results prove
/// the reconnect machinery is semantically invisible. The thread-world
/// reference parses the same spec, but `sever_link` is a no-op there, so
/// it computes the undisturbed answer.
fn scenario_drop(fabric: Fabric) {
    if std::env::var("MPISIM_FAULTS").is_err() {
        std::env::set_var("MPISIM_FAULTS", "11:drop=80,deadline=60000");
    }
    assert_traffic_matches_thread_world(fabric, "link-dropping socket-world");
}

// ---- death ----------------------------------------------------------------

fn scenario_death(fabric: Fabric) {
    const N: usize = 4;
    let world = World::spawn(fabric, N);
    world.run(|ctx| {
        let comm = ctx.comm_world();
        if ctx.rank() == 2 {
            // die WITHOUT unwinding: no panic hook, nothing announced —
            // the shape a SIGKILL leaves behind. Rank 0's watchdog and the
            // peers' own probes (pid sweeps on shm, heartbeat-fed link
            // state on sock) must turn the silence into loud aborts.
            std::process::exit(7);
        }
        // everyone else blocks on traffic rank 2 will never send
        let _: Vec<u64> = ctx.recv(&comm, 2, 9);
        unreachable!("rank {} completed a recv from a dead rank", ctx.rank());
    });
    unreachable!("the epoch with a dead rank reported success");
}

// ---- faultkill ------------------------------------------------------------

/// `MPISIM_FAULTS` kills worker rank 2 at its 5th counted transport op.
/// Every process of the world (driver and workers alike) parses the same
/// spec from the environment, so the kill replays identically; the
/// watchdog and the peers' liveness probes must end the epoch loudly well
/// inside the plan's deadline.
fn scenario_faultkill(fabric: Fabric) {
    const N: usize = 4;
    if std::env::var("MPISIM_FAULTS").is_err() {
        std::env::set_var("MPISIM_FAULTS", "5:kill=2@5,deadline=20000");
    }
    let world = World::spawn(fabric, N);
    world.run(|ctx| {
        let comm = ctx.comm_world();
        for it in 0..16u64 {
            let right = (ctx.rank() + 1) % ctx.size();
            let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
            ctx.send(&comm, right, it, &[ctx.rank() as u64 + it]);
            let _: Vec<u64> = ctx.recv(&comm, left, it);
        }
        unreachable!("rank {} outlived the fault plan's kill", ctx.rank());
    });
    unreachable!("the epoch with a killed rank reported success");
}

// ---- prejoin --------------------------------------------------------------

/// Worker rank 2 exits with status 17 before it calls `World::spawn`, so
/// it never joins. The driver must not restart it: its bootstrap aborts,
/// and the joined workers lose their driver and abort too.
fn scenario_prejoin(fabric: Fabric) {
    // the launcher's worker key, `<fabric>:<rank>:<rendezvous>`
    let worker = std::env::var("MPISIM_WORKER").unwrap_or_default();
    if worker.split(':').nth(1) == Some("2") {
        std::process::exit(17);
    }
    let _world = World::spawn(fabric, 4);
    unreachable!("a world bootstrapped without one of its workers");
}
