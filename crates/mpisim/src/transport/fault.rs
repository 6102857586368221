//! Deterministic fault injection: a `Transport` wrapper that perturbs
//! timing, ordering, and liveness without ever changing bytes.
//!
//! `FaultTransport` wraps any inner fabric and drives
//! every perturbation from a seeded [`FaultPlan`]:
//!
//! * **delays** — short deterministic sleeps at every counted op
//!   (`deposit`, a matched receive, channel push/pop) and at the entry of
//!   every wait (`Transport::enter_wait`), shaking out scan-then-park races;
//! * **reorder** — a chosen deposit is *held* and released after later
//!   traffic: by the next deposit, receive try or park-loop check in its
//!   process (`Transport::progress`, which a returning rank's epoch-end
//!   wait runs too), or at once when its receiver already has its park
//!   flag up — no helper thread, no clock. Holding is tag-legal:
//!   two envelopes with equal `(src, dst, ctx, tag)` are never swapped
//!   (MPI non-overtaking), only cross-signature overtaking is provoked;
//! * **drop** — a chosen deposit first severs the link it is about to
//!   ride (`Transport::sever_link`; a real teardown only on the sock
//!   fabric);
//! * **spurious** — extra run-queue turns at a wait's entry
//!   (`Transport::enter_wait`), emulating spurious wakeups;
//! * **kill** — `panic!` on a chosen rank at exactly the Nth counted
//!   transport op, exercising the death-detection machinery. Kills fire
//!   only at counted ops, never in `enter_wait`.
//!
//! Where each acts: reorder and drop fire only in `deposit`, that is, at
//! plain sends. A matched receive and persistent-channel push and pop
//! report through `Transport::inject`, which only counts the op — so it
//! delays and kills, never holds or severs. Traffic on persistent
//! channels — every neighborhood collective, and the solve service's
//! control fabric — is therefore perturbed only by delay, spurious (its
//! receives park in `WorldState::wait_any`) and kill.
//!
//! Every *decision* (hold? delay how long? die here?) is a pure function
//! of `(seed, rank, per-rank op index)`, so a failing schedule replays
//! from its seed alone. Ops are counted only at call sites that occur in
//! deterministic program order per rank (`deposit`, and the
//! `Transport::inject` hooks: a matched receive, a started send, a
//! blocking take) — never from timing-dependent paths: the tries of a
//! receive (`try_match`), and a wait's entry (`enter_wait`), whose park
//! a rank reaches only when nothing it polled was ready. `enter_wait`
//! takes its delay and spurious decisions from the rank's current op index without advancing it.
//!
//! Select a plan with `MPISIM_FAULTS=<seed>:<spec>` (see
//! [`FaultPlan::parse`]) or programmatically via
//! [`crate::WorldConfig::faults`].

use super::park::ParkWords;
use super::{ChanFabric, FaultOp, Transport};
use crate::stall::StallReport;
use crate::state::{ChanKey, Envelope};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SALT_DELAY: u64 = 0x64656c61;
const SALT_REORDER: u64 = 0x72656f72;
const SALT_SPURIOUS: u64 = 0x73707572;
const SALT_DROP: u64 = 0x64726f70;

/// splitmix64-style hash of one (seed, salt, rank, op) coordinate — the
/// source of every fault decision.
fn mix(seed: u64, salt: u64, rank: usize, op: u64) -> u64 {
    let mut x = seed
        ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (rank as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ op.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// A seeded, fully deterministic fault schedule (see the module docs).
///
/// Build one with the fluent constructors and hand it to
/// [`crate::WorldConfig::faults`], or parse the `MPISIM_FAULTS` grammar
/// with [`FaultPlan::parse`].
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    delay_permille: u16,
    delay_max_us: u32,
    reorder_permille: u16,
    spurious_permille: u16,
    drop_permille: u16,
    kills: Vec<(usize, u64)>,
    deadline_ms: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Delay roughly `permille`/1000 of counted ops by a deterministic
    /// amount in `[0, max_us)` microseconds.
    pub fn delays(mut self, permille: u16, max_us: u32) -> Self {
        self.delay_permille = permille.min(1000);
        self.delay_max_us = max_us.max(1);
        self
    }

    /// Hold roughly `permille`/1000 of deposits for later release
    /// (tag-legal cross-signature reordering). Deposits are plain sends
    /// only: persistent-channel traffic is never held.
    pub fn reorder(mut self, permille: u16) -> Self {
        self.reorder_permille = permille.min(1000);
        self
    }

    /// Inject spurious run-queue turns on roughly `permille`/1000 of the
    /// waits a rank enters (`Transport::enter_wait`).
    pub fn spurious(mut self, permille: u16) -> Self {
        self.spurious_permille = permille.min(1000);
        self
    }

    /// Kill `rank` (panic) at exactly its `nth` counted transport op.
    pub fn kill(mut self, rank: usize, nth: u64) -> Self {
        self.kills.push((rank, nth));
        self
    }

    /// Sever the destination's socket link on roughly `permille`/1000 of
    /// deposits, exercising reconnect-with-resume deterministically. The
    /// deposit itself still happens — replay after reconnect must make the
    /// drop semantically invisible. No-op off the sock fabric. Deposits
    /// are plain sends only: a persistent-channel push never severs (its
    /// frames still ride a link another deposit severed).
    pub fn drops(mut self, permille: u16) -> Self {
        self.drop_permille = permille.min(1000);
        self
    }

    /// Attach a wait deadline to worlds running this plan, overriding
    /// `MPISIM_DEADLINE_MS` (see [`crate::StallReport`]).
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The wait-deadline override carried by this plan, if any.
    pub(crate) fn deadline(&self) -> Option<u64> {
        self.deadline_ms
    }

    fn is_noop(&self) -> bool {
        self.delay_permille == 0
            && self.reorder_permille == 0
            && self.spurious_permille == 0
            && self.drop_permille == 0
            && self.kills.is_empty()
    }

    /// Parse the `MPISIM_FAULTS` grammar:
    ///
    /// ```text
    /// <seed>:<op>[,<op>]*
    /// op := delay=<permille>[/<max_us>us]
    ///     | reorder=<permille>
    ///     | spurious=<permille>
    ///     | drop=<permille>
    ///     | kill=<rank>@<nth>
    ///     | deadline=<ms>
    /// ```
    ///
    /// Example: `7:delay=200/300us,reorder=100,kill=2@40,deadline=10000`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (seed, ops) = spec
            .split_once(':')
            .ok_or_else(|| format!("fault spec {spec:?}: expected <seed>:<op>[,<op>]*"))?;
        let seed: u64 = seed
            .trim()
            .parse()
            .map_err(|_| format!("fault spec {spec:?}: seed {seed:?} is not a u64"))?;
        let mut plan = FaultPlan::seeded(seed);
        for op in ops.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (name, val) = op
                .split_once('=')
                .ok_or_else(|| format!("fault op {op:?}: expected <name>=<value>"))?;
            let parse_u = |s: &str, what: &str| -> Result<u64, String> {
                s.trim()
                    .parse::<u64>()
                    .map_err(|_| format!("fault op {op:?}: {what} {s:?} is not a number"))
            };
            match name.trim() {
                "delay" => {
                    let (permille, max_us) = match val.split_once('/') {
                        Some((p, rest)) => {
                            let us = rest.strip_suffix("us").unwrap_or(rest);
                            (parse_u(p, "permille")?, parse_u(us, "max delay")?)
                        }
                        None => (parse_u(val, "permille")?, 300),
                    };
                    plan = plan.delays(permille.min(1000) as u16, max_us as u32);
                }
                "reorder" => plan = plan.reorder(parse_u(val, "permille")?.min(1000) as u16),
                "spurious" => plan = plan.spurious(parse_u(val, "permille")?.min(1000) as u16),
                "drop" => plan = plan.drops(parse_u(val, "permille")?.min(1000) as u16),
                "kill" => {
                    let (rank, nth) = val
                        .split_once('@')
                        .ok_or_else(|| format!("fault op {op:?}: expected kill=<rank>@<nth>"))?;
                    plan = plan.kill(parse_u(rank, "rank")? as usize, parse_u(nth, "op index")?);
                }
                "deadline" => plan = plan.deadline_ms(parse_u(val, "deadline")?),
                other => {
                    return Err(format!(
                        "fault op {op:?}: unknown fault kind {other:?} \
                         (expected delay/reorder/spurious/drop/kill/deadline)"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

/// One envelope held back for tag-legal reordering.
type Held = (usize, usize, Envelope);

/// The fault-injecting [`Transport`] wrapper. See the module docs.
pub(crate) struct FaultTransport {
    inner: Arc<dyn Transport>,
    plan: FaultPlan,
    /// Per-rank counted-op index (the schedule's time axis).
    ops: Vec<AtomicU64>,
    /// At most one deposit held back for reordering at a time.
    held: Mutex<Option<Held>>,
}

impl FaultTransport {
    /// Wrap `inner` under `plan`. Returns `inner` untouched for a no-op
    /// plan so the fault-free configuration costs nothing.
    pub(crate) fn wrap(
        n_ranks: usize,
        plan: FaultPlan,
        inner: Arc<dyn Transport>,
    ) -> Arc<dyn Transport> {
        if plan.is_noop() {
            return inner;
        }
        Arc::new(FaultTransport {
            inner,
            plan,
            ops: (0..n_ranks).map(|_| AtomicU64::new(0)).collect(),
            held: Mutex::new(None),
        })
    }

    fn chance(&self, salt: u64, rank: usize, op: u64, permille: u16) -> Option<u64> {
        if permille == 0 {
            return None;
        }
        let h = mix(self.plan.seed, salt, rank, op);
        (h % 1000 < permille as u64).then_some(h)
    }

    /// Count one op for `rank`; apply the schedule's kill and delay
    /// decisions for this coordinate. Returns the op index.
    fn tick(&self, rank: usize, op: FaultOp) -> u64 {
        let n = self.ops[rank].fetch_add(1, Ordering::Relaxed);
        if self.plan.kills.iter().any(|&(r, at)| r == rank && at == n) {
            self.flush_held();
            self.inner.note_rank_panic(Some(rank));
            panic!(
                "rank {rank} killed by fault plan at transport op {n} ({op:?}, seed {})",
                self.plan.seed
            );
        }
        self.delay(rank, n);
        n
    }

    /// The schedule's delay decision for `(rank, n)`.
    fn delay(&self, rank: usize, n: u64) {
        if let Some(h) = self.chance(SALT_DELAY, rank, n, self.plan.delay_permille) {
            let us = (h >> 10) % self.plan.delay_max_us.max(1) as u64;
            std::thread::sleep(Duration::from_micros(us));
        }
    }

    /// Release the held deposit, if any. Safe from any thread that holds
    /// no inner-transport locks.
    fn flush_held(&self) {
        let prev = self.held.lock().take();
        if let Some((s, d, e)) = prev {
            self.inner.deposit(s, d, e);
        }
    }

    /// Hold `env` (releasing the previous one). Then, as a deposit would,
    /// tell its receiver: release it at once if the receiver is parked,
    /// else bump its park point, so a park it is about to enter fails and
    /// its next check (`try_match` flushes) finds the hold.
    fn hold(&self, src: usize, dst: usize, env: Envelope) {
        let prev = self.held.lock().replace((src, dst, env));
        if let Some((s, d, e)) = prev {
            self.inner.deposit(s, d, e);
        }
        let point = self.inner.park_point(dst);
        match point.parked() {
            true => self.flush_held(),
            false => point.notify(),
        }
    }
}

impl Transport for FaultTransport {
    fn fabric(&self) -> &'static str {
        self.inner.fabric()
    }

    fn deposit(&self, src_world: usize, dst_world: usize, env: Envelope) {
        let n = self.tick(src_world, FaultOp::Deposit);
        if self
            .chance(SALT_DROP, src_world, n, self.plan.drop_permille)
            .is_some()
        {
            // sever BEFORE the deposit: the frame rides the reconnected
            // link's replay, so the drop must be semantically invisible
            self.inner.sever_link(dst_world);
        }
        if self.plan.reorder_permille == 0 {
            return self.inner.deposit(src_world, dst_world, env);
        }
        if self
            .chance(SALT_REORDER, src_world, n, self.plan.reorder_permille)
            .is_some()
        {
            return self.hold(src_world, dst_world, env);
        }
        let prev = self.held.lock().take();
        match prev {
            // equal signature: the held envelope was sent first and MPI
            // non-overtaking applies — release it ahead of the new one
            Some((s, d, e))
                if s == src_world
                    && d == dst_world
                    && e.ctx_id == env.ctx_id
                    && e.src == env.src
                    && e.tag == env.tag =>
            {
                self.inner.deposit(s, d, e);
                self.inner.deposit(src_world, dst_world, env);
            }
            // different signature: deliver the new envelope FIRST — this
            // is the reorder (tag-legal: matching is exact-signature)
            Some((s, d, e)) => {
                self.inner.deposit(src_world, dst_world, env);
                self.inner.deposit(s, d, e);
            }
            None => self.inner.deposit(src_world, dst_world, env),
        }
    }

    fn try_match(
        &self,
        global_dst: usize,
        ctx_id: u64,
        src: usize,
        tag: u64,
    ) -> Option<(Envelope, usize)> {
        // un-counted (a receive counts through `inject`, and how often it
        // tries is timing), but a held envelope must become visible to it
        self.flush_held();
        self.inner.try_match(global_dst, ctx_id, src, tag)
    }

    fn park_point(&self, rank: usize) -> &ParkWords {
        self.inner.park_point(rank)
    }

    fn enter_wait(&self, rank: usize) -> &ParkWords {
        // not counted: whether a rank parks at all depends on timing
        let n = self.ops[rank].load(Ordering::Relaxed);
        self.delay(rank, n);
        if self
            .chance(SALT_SPURIOUS, rank, n, self.plan.spurious_permille)
            .is_some()
        {
            // spurious wakeup: a few extra run-queue turns before the wait's
            // first readiness check, perturbing the scan-then-park interleaving
            for _ in 0..4 {
                std::thread::yield_now();
            }
        }
        self.inner.enter_wait(rank)
    }

    fn make_channel(
        &self,
        key: ChanKey,
        dst_world: usize,
        kind: u8,
        len_hint: usize,
    ) -> ChanFabric {
        self.inner.make_channel(key, dst_world, kind, len_hint)
    }

    fn drain_in_flight(&self) {
        *self.held.lock() = None;
        self.inner.drain_in_flight();
    }

    fn note_rank_panic(&self, rank: Option<usize>) {
        self.inner.note_rank_panic(rank);
    }

    fn clear_rank_panic(&self) {
        self.inner.clear_rank_panic();
    }

    fn dead_rank(&self) -> Option<usize> {
        self.inner.dead_rank()
    }

    fn peer_failure(&self) -> Option<String> {
        self.inner.peer_failure()
    }

    fn progress(&self, rank: usize) -> bool {
        self.flush_held(); // un-counted: how often a rank checks is timing
        self.inner.progress(rank)
    }

    fn inject(&self, rank: usize, op: FaultOp) {
        self.tick(rank, op);
    }

    fn release_context(&self, ctx_id: u64) {
        // not a counted op: a free moves no traffic, and the schedule's
        // time axis must not depend on when jobs retire
        self.inner.release_context(ctx_id);
    }

    fn sever_link(&self, peer_world: usize) {
        self.inner.sever_link(peer_world);
    }

    fn forensics(&self, report: &mut StallReport) {
        self.inner.forensics(report);
        if self.held.try_lock().is_some_and(|h| h.is_some()) {
            report.outbox_depth += 1; // the held envelope is in-flight limbo
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Payload;
    use crate::transport::park::park_until;
    use crate::transport::thread::ThreadTransport;

    fn env_msg(src: usize, tag: u64, val: u32) -> Envelope {
        Envelope {
            ctx_id: 0,
            src,
            tag,
            arrival: 0.0,
            payload: Payload::of(&[val]),
        }
    }

    fn wrapped(n: usize, plan: FaultPlan) -> Arc<dyn Transport> {
        FaultTransport::wrap(n, plan, Arc::new(ThreadTransport::new(n)))
    }

    /// A blocking receive from rank 0 at the transport level: `dst` tries
    /// the match, parking between tries.
    fn take_blocking(t: &dyn Transport, dst: usize, tag: u64) -> (Envelope, usize) {
        park_until(t.enter_wait(dst), || t.try_match(dst, 0, 0, tag), &|| {})
    }

    #[test]
    fn parse_full_grammar() {
        let p =
            FaultPlan::parse("7:delay=200/300us,reorder=100,spurious=50,kill=2@40,deadline=9000")
                .expect("valid spec");
        assert_eq!(p.seed, 7);
        assert_eq!((p.delay_permille, p.delay_max_us), (200, 300));
        assert_eq!(p.reorder_permille, 100);
        assert_eq!(p.spurious_permille, 50);
        assert_eq!(p.kills, vec![(2, 40)]);
        assert_eq!(p.deadline_ms, Some(9000));
    }

    #[test]
    fn parse_drop_spec() {
        let p = FaultPlan::parse("11:drop=40").expect("valid spec");
        assert_eq!(p.seed, 11);
        assert_eq!(p.drop_permille, 40);
        assert!(!p.is_noop(), "a drop-only plan must wrap the transport");
        assert!(FaultPlan::parse("11:drop=lots").is_err());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("no-colon").is_err());
        assert!(FaultPlan::parse("x:delay=10").is_err());
        assert!(FaultPlan::parse("1:frobnicate=3").is_err());
        assert!(FaultPlan::parse("1:kill=2").is_err());
        assert!(FaultPlan::parse("1:kill=a@b").is_err());
    }

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        for op in 0..64u64 {
            assert_eq!(mix(9, SALT_DELAY, 1, op), mix(9, SALT_DELAY, 1, op));
        }
        assert_ne!(mix(9, SALT_DELAY, 1, 0), mix(10, SALT_DELAY, 1, 0));
    }

    #[test]
    fn noop_plan_returns_the_inner_transport() {
        let inner: Arc<dyn Transport> = Arc::new(ThreadTransport::new(2));
        let wrapped = FaultTransport::wrap(2, FaultPlan::seeded(3).deadline_ms(50), inner.clone());
        assert!(Arc::ptr_eq(&wrapped, &inner), "no-op plan must not wrap");
    }

    #[test]
    fn kill_fires_at_the_exact_op_index() {
        let t = wrapped(2, FaultPlan::seeded(1).kill(0, 2));
        t.deposit(0, 1, env_msg(0, 1, 10)); // op 0
        t.deposit(0, 1, env_msg(0, 2, 11)); // op 1
        let t2 = Arc::clone(&t);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            t2.deposit(0, 1, env_msg(0, 3, 12)); // op 2 — dies here
        }))
        .expect_err("op 2 must kill rank 0");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("rank 0 killed by fault plan at transport op 2"));
        assert_eq!(t.dead_rank(), Some(0));
        assert!(t.peer_failure().expect("flag raised").contains("rank 0"));
    }

    #[test]
    fn reorder_preserves_same_signature_fifo() {
        // every deposit is chosen for holding (1000‰): the wrapper must
        // still deliver equal signatures in send order
        let t = wrapped(2, FaultPlan::seeded(5).reorder(1000));
        t.deposit(0, 1, env_msg(0, 7, 1));
        t.deposit(0, 1, env_msg(0, 7, 2));
        t.deposit(0, 1, env_msg(0, 7, 3));
        let take = |e: Envelope| e.payload.take::<u32>().expect("u32");
        let (a, _) = take_blocking(&*t, 1, 7);
        let (b, _) = take_blocking(&*t, 1, 7);
        let (c, _) = take_blocking(&*t, 1, 7);
        assert_eq!(
            (take(a), take(b), take(c)),
            (vec![1], vec![2], vec![3]),
            "same-signature FIFO must survive reordering"
        );
    }

    #[test]
    fn held_deposit_reaches_a_parked_receiver() {
        // the receiver parks FIRST; the lone deposit is then held, and no
        // further traffic comes to release it: the holder sees the
        // receiver's park flag and releases it. (That this happens before
        // the receiver's stall period ends is checked with a long period in
        // tests/indirect_wakes.rs.)
        let t = wrapped(2, FaultPlan::seeded(5).reorder(1000));
        let t2 = Arc::clone(&t);
        let recv = std::thread::spawn(move || {
            let (e, _) = take_blocking(&*t2, 1, 9);
            e.payload.take::<u32>().expect("u32")
        });
        std::thread::sleep(Duration::from_millis(30));
        t.deposit(0, 1, env_msg(0, 9, 77));
        assert_eq!(recv.join().expect("receiver completes"), vec![77]);
    }
}
