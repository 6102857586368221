//! Chaos tests: deterministic fault injection over every fabric (thread,
//! shm, sock).
//!
//! The fault layer's contract is that every perturbation it injects is
//! *semantically invisible* — delays, tag-legal reorders, and spurious
//! wakeups may shake the schedule, but a faulted world must deliver
//! byte-identical results to a fault-free one. Kills and deadlocks, by
//! contrast, must end loudly and quickly: a killed rank aborts its world
//! within the wait deadline, the abort names the dead rank in a
//! [`mpisim::StallReport`], and a pooled world degrades gracefully into a
//! structured [`EpochError`] and stays usable for the next epoch.

use locality::Topology;
use mpi_advance::{Backend, CommPattern, NeighborBatch, Protocol, TunePolicy};
use mpisim::collectives::op_sum_u64;
use mpisim::{panic_message, Fabric, FaultPlan, RankCtx, World, WorldConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The value rank-owned index `i` carries in iteration `it`.
fn value(i: usize, it: u64) -> f64 {
    (i as f64) * 16.0 + (it as f64) * 0.25
}

/// One rank's SPMD body: a mixed workload touching every op class the
/// fault layer counts — a persistent neighbor collective (channel
/// push/pop + wait_any), a partitioned one, plain ring sends/recvs
/// (deposit + match_recv), and a collective — returning raw result bits.
fn chaos_body(full: &NeighborBatch, part: &NeighborBatch, ctx: &mut RankCtx) -> Vec<u64> {
    let comm = ctx.comm_world();
    let mut bits = Vec::new();
    let mut req_full = full.init_all(ctx, &comm).into_requests().remove(0);
    let mut req_part = part.init_all(ctx, &comm).into_requests().remove(0);
    for it in 0..2u64 {
        for req in [&mut req_full, &mut req_part] {
            let input: Vec<f64> = req.input_index().iter().map(|&i| value(i, it)).collect();
            let mut output = vec![f64::NAN; req.output_index().len()];
            req.start_wait(ctx, &input, &mut output);
            bits.extend(output.iter().map(|v| v.to_bits()));
        }
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        ctx.send(&comm, right, 40 + it, &[ctx.rank() as u64 * 7 + it]);
        let got: Vec<u64> = ctx.recv(&comm, left, 40 + it);
        bits.extend(got);
        bits.extend(ctx.allreduce(&comm, &[ctx.rank() as u64 + it], op_sum_u64));
    }
    bits
}

/// Run the mixed workload in a world built by `launch`.
fn run_chaos_world(
    launch: impl FnOnce(&(dyn Fn(&mut RankCtx) -> Vec<u64> + Sync)) -> Vec<Vec<u64>>,
) -> Vec<Vec<u64>> {
    let pattern = CommPattern::example_2_1();
    let topo = Topology::block_nodes(pattern.n_ranks, 4);
    let full = NeighborBatch::new(&topo).entry(&pattern, Backend::Protocol(Protocol::FullNeighbor));
    let part =
        NeighborBatch::new(&topo).entry(&pattern, Backend::Partitioned(Protocol::PartialNeighbor));
    launch(&move |ctx| chaos_body(&full, &part, ctx))
}

/// A timing-perturbation plan (no kills): delays on a quarter of counted
/// ops, held/reordered deposits, spurious wakeups. The deadline is a
/// safety net so a chaos-induced hang fails the test instead of wedging
/// the suite.
fn perturb_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .delays(250, 150)
        .reorder(200)
        .spurious(150)
        .deadline_ms(30_000)
}

/// A fault-free plan (deadline only) must not change results — and must
/// not even wrap the transport (pinned by a unit test; end-to-end here).
#[test]
fn fault_free_plan_is_byte_identical() {
    let reference = run_chaos_world(|f| World::run(8, f));
    let thread = |plan: FaultPlan| WorldConfig::new(Fabric::Thread).faults(plan);
    let idle = FaultPlan::seeded(11).deadline_ms(30_000);
    let idle = run_chaos_world(|f| thread(idle).run(8, f));
    assert_eq!(reference, idle, "a no-fault plan changed results");
    // delay-only: every counted op sleeps, nothing else is perturbed
    let delays = FaultPlan::seeded(12).delays(1000, 60).deadline_ms(30_000);
    let delayed = run_chaos_world(|f| thread(delays).run(8, f));
    assert_eq!(reference, delayed, "a delay-only plan changed results");
}

/// ≥20 seeded schedules (10 thread + 10 shm), each mixing delays,
/// reorders, and spurious wakeups, all byte-identical to the fault-free
/// run on the same fabric.
#[test]
fn seeded_schedules_are_byte_identical_thread() {
    let reference = run_chaos_world(|f| World::run(8, f));
    for seed in 0..10u64 {
        let thread = WorldConfig::new(Fabric::Thread).faults(perturb_plan(seed));
        let faulted = run_chaos_world(|f| thread.run(8, f));
        assert_eq!(faulted, reference, "thread schedule seed {seed} diverged");
    }
}

#[test]
fn seeded_schedules_are_byte_identical_shm() {
    let shm = WorldConfig::new(Fabric::Shm);
    let reference = run_chaos_world(|f| shm.run(8, f));
    for seed in 100..110u64 {
        let faulted = run_chaos_world(|f| shm.clone().faults(perturb_plan(seed)).run(8, f));
        assert_eq!(faulted, reference, "shm schedule seed {seed} diverged");
    }
}

#[test]
fn seeded_schedules_are_byte_identical_sock() {
    let sock = WorldConfig::new(Fabric::Sock);
    let reference = run_chaos_world(|f| sock.run(8, f));
    for seed in 200..206u64 {
        let faulted = run_chaos_world(|f| sock.clone().faults(perturb_plan(seed)).run(8, f));
        assert_eq!(faulted, reference, "sock schedule seed {seed} diverged");
    }
}

/// Transient disconnects on the socket fabric: `drops` severs the link
/// mid-epoch *before* chosen deposits, so the frame rides the reconnected
/// link's replay. Reconnect-with-resume must make every drop semantically
/// invisible — byte-identical results, exactly-once delivery — across
/// several seeds and drop rates.
#[test]
fn sock_link_drops_resume_byte_identically() {
    let sock = WorldConfig::new(Fabric::Sock);
    let reference = run_chaos_world(|f| sock.run(8, f));
    for (seed, permille) in [(300u64, 40u16), (301, 120), (302, 250)] {
        let plan = FaultPlan::seeded(seed).drops(permille).deadline_ms(30_000);
        let faulted = run_chaos_world(|f| sock.clone().faults(plan).run(8, f));
        assert_eq!(
            faulted, reference,
            "sock drop schedule seed {seed} ({permille}permille) diverged"
        );
    }
    // drops composed with the full perturbation mix: still invisible
    for seed in 310..313u64 {
        let plan = perturb_plan(seed).drops(80);
        let faulted = run_chaos_world(|f| sock.clone().faults(plan).run(8, f));
        assert_eq!(
            faulted, reference,
            "sock drop+perturb schedule seed {seed} diverged"
        );
    }
}

/// Ring traffic that keeps every rank's op counter advancing long enough
/// for any kill index used below to land mid-workload.
fn ring_body(ctx: &mut RankCtx) -> u64 {
    let comm = ctx.comm_world();
    let mut acc = 0u64;
    for it in 0..16u64 {
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        ctx.send(&comm, right, it, &[ctx.rank() as u64 + it]);
        let got: Vec<u64> = ctx.recv(&comm, left, it);
        acc += got[0];
    }
    acc
}

/// Kill matrix, one-shot worlds: both fabrics × several op indices. The
/// world must abort well inside the deadline, and the propagated panic
/// must either be the victim's own kill message or a peer abort whose
/// stall report names the dead rank.
#[test]
fn kill_schedules_abort_one_shot_worlds() {
    for on in Fabric::ALL {
        let fabric = on.name();
        for (victim, nth) in [(1usize, 5u64), (2, 17)] {
            let plan = FaultPlan::seeded(9).kill(victim, nth).deadline_ms(10_000);
            let world = WorldConfig::new(on).faults(plan);
            let start = Instant::now();
            let err = catch_unwind(AssertUnwindSafe(|| world.run(4, ring_body)))
                .expect_err("a killed rank must fail the world");
            let elapsed = start.elapsed();
            assert!(
                elapsed < Duration::from_secs(15),
                "kill ({fabric}, rank {victim} @ op {nth}) took {elapsed:?} to abort"
            );
            let msg = panic_message(&*err);
            assert!(
                msg.contains("killed by fault plan")
                    || msg.contains(&format!("dead rank: {victim}")),
                "kill ({fabric}, rank {victim} @ op {nth}): abort names neither the \
                 kill nor the dead rank:\n{msg}"
            );
        }
    }
}

/// Kill matrix, pooled worlds: a kill schedule surfaces as a structured
/// [`mpisim::EpochError`] naming the victim, and the pool stays usable
/// for the next (fault-free, counters past the kill index) epoch.
#[test]
fn kill_schedules_degrade_gracefully_in_pools() {
    for on in Fabric::ALL {
        let fabric = on.name();
        for (victim, nth) in [(1usize, 5u64), (3, 17)] {
            let plan = FaultPlan::seeded(21).kill(victim, nth).deadline_ms(10_000);
            let pool = WorldConfig::new(on).faults(plan).pool(4);
            let start = Instant::now();
            let err = pool
                .try_run(ring_body)
                .expect_err("a killed rank must fail the epoch");
            let elapsed = start.elapsed();
            assert!(
                elapsed < Duration::from_secs(15),
                "pooled kill ({fabric}, rank {victim} @ op {nth}) took {elapsed:?}"
            );
            assert!(
                err.failures
                    .iter()
                    .any(|(r, m)| *r == victim && m.contains("killed by fault plan")),
                "pooled kill ({fabric}, rank {victim} @ op {nth}): EpochError does \
                 not attribute the kill: {err}"
            );
            assert!(err.to_string().contains("epoch failed on rank"));
            // graceful degradation: the pool survives the killed epoch
            // (the victim's op counter is already past the kill index)
            let out = pool.run(|ctx| ctx.rank() * 10);
            assert_eq!(
                out,
                vec![0, 10, 20, 30],
                "pool unusable after kill ({fabric})"
            );
        }
    }
}

/// The fault plan's op axis is program order, however long a rank parks.
/// In epoch 1 rank 0 sleeps before each of its pushes and rank 1 polls
/// with `try_take` and parks in `wait_any` between polls, then answers
/// each message: rank 1's counted ops are its `MSGS` answers, and the
/// parks count none. A kill at op `MSGS` therefore lands at epoch 2's
/// first op, every run.
#[test]
fn a_kill_lands_at_the_same_program_point_however_long_a_rank_parks() {
    const MSGS: u64 = 4;
    let exchange = |ctx: &mut RankCtx, late: bool| {
        let comm = ctx.comm_world();
        let peer = 1 - ctx.rank();
        let tx = ctx.send_chan_init::<u64>(&comm, peer, 1 + ctx.rank() as u64, 1);
        let mut rx = ctx.recv_chan_init::<u64>(&comm, peer, 2 - ctx.rank() as u64, 1);
        for i in 0..MSGS {
            if ctx.rank() == 0 {
                if late {
                    std::thread::sleep(Duration::from_millis(2));
                }
                tx.start_with(ctx, |buf| buf.push(i));
            }
            rx.start();
            let got = loop {
                match rx.try_take(ctx) {
                    Some(got) => break got,
                    None => _ = ctx.wait_any(&[rx.chan_id()]),
                }
            };
            assert_eq!(got, [i]);
            rx.recycle(got);
            if ctx.rank() == 1 {
                tx.start_with(ctx, |buf| buf.push(i));
            }
        }
    };
    for run in 0..3 {
        let plan = FaultPlan::seeded(run).kill(1, MSGS).deadline_ms(10_000);
        let pool = WorldConfig::new(Fabric::Thread).faults(plan).pool(2);
        if let Err(err) = pool.try_run(|ctx| exchange(ctx, true)) {
            panic!("run {run}: the kill landed in epoch 1: {err}");
        }
        let err = pool
            .try_run(|ctx| exchange(ctx, false))
            .expect_err("the kill lands in epoch 2");
        let at = format!("killed by fault plan at transport op {MSGS} (ChanPush");
        assert!(
            err.failures.iter().any(|(r, m)| *r == 1 && m.contains(&at)),
            "run {run}: not rank 1's first op of epoch 2: {err}"
        );
    }
}

/// An application panic (not a fault-plan kill) also comes back as a
/// structured `EpochError` attributing the right rank.
#[test]
fn application_panic_becomes_epoch_error() {
    let pool = World::pool(3);
    let err = pool
        .try_run(|ctx| {
            if ctx.rank() == 2 {
                panic!("deliberate chaos-test failure");
            }
            ctx.rank()
        })
        .expect_err("rank 2 panicked");
    assert_eq!(err.rank, 2);
    assert!(err.message.contains("deliberate chaos-test failure"));
    assert_eq!(pool.run(|ctx| ctx.rank()), vec![0, 1, 2]);
}

/// A mutual-recv deadlock hits the plan's deadline and aborts with a
/// stall-forensics dump instead of hanging — on both fabrics.
#[test]
fn deadline_expiry_dumps_a_stall_report() {
    let deadlock = |ctx: &mut RankCtx| {
        let comm = ctx.comm_world();
        let peer = 1 - ctx.rank();
        let _: Vec<u64> = ctx.recv(&comm, peer, 9); // nobody ever sends
    };
    for on in Fabric::ALL {
        let fabric = on.name();
        let world = WorldConfig::new(on).faults(FaultPlan::seeded(3).deadline_ms(400));
        let start = Instant::now();
        let err = catch_unwind(AssertUnwindSafe(|| world.run(2, deadlock)))
            .expect_err("the deadlocked world must abort");
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(10),
            "deadline abort ({fabric}) took {elapsed:?}"
        );
        let msg = panic_message(&*err);
        // the joined payload is either a rank's own deadline abort, or —
        // when one rank's deadline fires first — its peer's death abort
        // (also carrying the stall report, which then names the victim)
        assert!(
            msg.contains("wait deadline of 400 ms") || msg.contains("peer rank panicked"),
            "deadline abort ({fabric}) names neither the deadline nor a dead peer:\n{msg}"
        );
        assert!(
            msg.contains("StallReport"),
            "deadline abort ({fabric}) carries no stall report:\n{msg}"
        );
        assert!(
            msg.contains("blocked"),
            "stall report ({fabric}) shows no parked wait:\n{msg}"
        );
        assert!(
            msg.contains("parks (timed out) per rank: ["),
            "stall report ({fabric}) carries no park counters:\n{msg}"
        );
        assert!(
            msg.contains(&format!("transport fabric: {fabric}")),
            "stall report ({fabric}) does not name its transport fabric:\n{msg}"
        );
        if fabric == "sock" {
            // the sock report's transport section carries per-link state
            assert!(
                msg.contains("link to proc"),
                "sock stall report carries no link forensics:\n{msg}"
            );
        }
    }
}

/// `MPI_Start` is local: ranks may start two live collectives in
/// different orders. Even ranks start entry 0 then 1, odd ranks 1 then 0;
/// a `start` that blocked on its staging receives would close a cycle
/// (each rank waits inside one entry for a peer that is waiting inside the
/// other), and so would a `Backend::Tuned` decision that blocked in
/// `start`: the two entries' probe budgets end at iteration 8, so their
/// decisions run in opposite orders too. The deadline makes a cycle a loud
/// abort instead of a hung test.
#[test]
fn starts_in_opposite_orders_complete() {
    let topo = Topology::block_nodes(16, 4);
    let pattern = CommPattern::all_to_all_regions(&topo);
    let policy = TunePolicy::default()
        .with_probe_iters(8)
        .with_factor(1.0e12); // admit every protocol to the shortlist
    for backend in [
        Backend::Protocol(Protocol::FullNeighbor),
        Backend::Partitioned(Protocol::FullNeighbor),
        Backend::Tuned,
    ] {
        let batch = NeighborBatch::new(&topo)
            .entry(&pattern, backend)
            .entry(&pattern, backend)
            .tune_policy(policy.clone());
        for on in Fabric::ALL {
            let plan = FaultPlan::seeded(1).deadline_ms(3_000);
            let ok = WorldConfig::new(on).faults(plan).run(16, |ctx| {
                let comm = ctx.comm_world();
                let mut session = batch.init_all(ctx, &comm);
                let order = if ctx.rank() % 2 == 0 { [0, 1] } else { [1, 0] };
                let mut outputs: Vec<Vec<f64>> = (0..2)
                    .map(|e| vec![f64::NAN; session.entry(e).output_index().len()])
                    .collect();
                let mut ok = true;
                for it in 0..20u64 {
                    let salt = |e: usize| it + 100 * e as u64;
                    for e in order {
                        let input: Vec<f64> = session
                            .entry(e)
                            .input_index()
                            .iter()
                            .map(|&i| value(i, salt(e)))
                            .collect();
                        session.start(ctx, e, &input);
                    }
                    session.wait_all(ctx, &mut outputs);
                    for (e, output) in outputs.iter().enumerate() {
                        let idx = session.entry(e).output_index();
                        ok &= idx
                            .iter()
                            .zip(output)
                            .all(|(&i, v)| v.to_bits() == value(i, salt(e)).to_bits());
                    }
                }
                ok
            });
            assert!(
                ok.into_iter().all(|b| b),
                "{backend:?} on {} delivered wrong values",
                on.name()
            );
        }
    }
}
