//! Transport abstraction: where a world's bytes actually move.
//!
//! `mpisim`'s matching engine, persistent channels, and completion-driven
//! lifecycle (DESIGN.md §3–§7) are all expressed against a handful of
//! seams in `state.rs`: envelope deposit / matched take on the plain
//! mailbox path, channel registration, a rank's park point, and
//! failed-epoch draining. This module lifts those seams into a
//! `Transport` trait so the same `RankCtx` programs run over different
//! fabrics:
//!
//! * `thread::ThreadTransport` — the in-process fabric: one mutexed
//!   mailbox per rank. It owns the in-process storage (mailboxes, the
//!   typed `ThreadChan` of a persistent channel) and a heap `ParkWords`
//!   per rank.
//! * `shm::ShmTransport` — a cross-process shared-memory fabric: ranks
//!   may live in separate OS processes on one host, mailboxes and
//!   persistent channels are SPSC byte rings inside one `/dev/shm`
//!   segment, and each rank's `ParkWords` lives in the segment too.
//! * `sock::SockTransport` — framed, sequenced, acknowledged stream
//!   sockets (Unix-domain or TCP), one link per peer process, with
//!   reconnect-with-resume. Only its send half is its own: what its
//!   link threads read lands in an embedded `ThreadTransport`,
//!   which is the whole receive half.
//!
//! A plain send is one byte form on every fabric: the payload's bytes plus
//! the element type's one-byte [`crate::Elem::KIND`] (`state::Payload`),
//! which the byte fabrics carry in the envelope header (`wire`). Element
//! types are sealed plain-old-data, so the byte views below (`bytes_of`,
//! `vec_extend_bytes`) rest on the `T: Elem` bound, not on a runtime check.
//!
//! Whatever a rank is blocked on, it sleeps in one place on every fabric:
//! its `park::ParkWords`, a futex word (`futex`), through
//! `park::park_until`, which only `WorldState` calls for a receive — a
//! fabric hands out the park point and never blocks a receiver itself
//! (DESIGN.md §7). The one other sleeper is a producer facing a full shm
//! ring, on the ring's own `ParkWords`.
//!
//! `fault::FaultTransport` wraps any of them under a seeded fault plan.
//! [`remote::RemoteWorld`] runs ranks as re-exec'd worker processes over
//! the shm or sock fabric with the same closure-per-epoch protocol as
//! [`crate::WorldPool`].

pub mod fault;
pub(crate) mod futex;
pub(crate) mod park;
pub mod remote;
pub mod shm;
pub mod sock;
pub(crate) mod thread;
pub(crate) mod wire;

use crate::elem::Elem;
use crate::stall::StallReport;
use crate::state::{ChanKey, Envelope};
use park::ParkWords;
pub(crate) use shm::ring::ShmChanRaw;
pub(crate) use sock::SockChanWire;
use std::collections::VecDeque;
use std::sync::Arc;

/// Turns of the run queue a blocked party lets pass before it parks in the
/// kernel — a receive on a persistent channel or a set of them (the `spin`
/// `WorldState::wait_any` gives [`park::park_until`]) and both sock link
/// threads. In the steady state
/// the matching send is usually a runnable peer away, so cycling the run
/// queue a few times picks the message up for the cost of a `sched_yield`
/// instead of a futex park + wake round trip (which dominates per-message
/// latency on oversubscribed hosts). Bounded, so a genuinely absent sender
/// still lands in the blocking wait.
pub(crate) const PARK_SPIN: u32 = 24;

/// What a wait does when a peer rank's death ends it, in every fabric's
/// [`Transport::peer_failure`]: the wait may be a receive, a park in
/// `wait_any` or a bootstrap barrier, so the text names none of them.
pub(crate) const ABANDONED: &str = "abandoning blocked operation";

/// [`Transport::peer_failure`]'s text for a rank that panicked (and, when
/// one was recorded, which).
pub(crate) fn rank_panic_failure(dead: Option<usize>) -> String {
    let who = dead
        .map(|r| format!(" (rank {r} died)"))
        .unwrap_or_default();
    format!("a peer rank panicked this epoch; {ABANDONED}{who}")
}

/// The transport operations a [`fault::FaultTransport`] counts — its
/// schedule's op axis, each in program order on its rank.
/// `Deposit` is intercepted directly by the wrapper; the others report
/// through [`Transport::inject`] from their call sites: `MatchRecv` from a
/// plain receive (`WorldState::match_recv`), `ChanPush`/`ChanPop` from
/// persistent-channel traffic, which bypasses the trait (channels are used
/// directly once created). A [`Transport::enter_wait`] is perturbed but
/// not counted: whether a rank parks depends on timing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FaultOp {
    Deposit,
    MatchRecv,
    ChanPush,
    ChanPop,
}

/// Where a persistent channel's wire buffers live, decided by the fabric
/// at registration time ([`Transport::make_channel`]).
pub(crate) enum ChanFabric {
    /// In-process typed channel, no wire buffers at all: just where its
    /// receiving rank sleeps.
    Local(Arc<ParkWords>),
    /// SPSC byte ring inside the shared segment, and the
    /// registration-table row the channel gives back when it drops.
    Shm(ShmChanRaw, usize),
    /// Socket fabric: a local typed queue on the receiving side plus a
    /// framed-stream route on the sending side (either may be absent,
    /// depending on which side of the channel this process hosts).
    Sock(SockChanWire),
}

/// The fabric a [`crate::state::WorldState`] moves bytes over.
///
/// Object-safe: the world holds an `Arc<dyn Transport>`. No method blocks
/// a receiver: a fabric offers a non-blocking matched take
/// ([`Transport::try_match`]) and a rank's park point
/// ([`Transport::enter_wait`]), and `WorldState` runs every blocking receive —
/// its readiness loop, its park and its stall probe (peer death, the
/// deadline, the mixed plain/persistent-traffic checks) — itself.
pub(crate) trait Transport: Send + Sync {
    /// Which fabric this is (`"thread"` / `"shm"` / `"sock"`), the
    /// [`crate::StallReport::fabric`] string. Exposed through
    /// [`crate::RankCtx::fabric`] so protocol-selection caches can key
    /// measured timings by the fabric that produced them.
    fn fabric(&self) -> &'static str;

    /// Deposit an envelope in `dst_world`'s mailbox and wake any waiter.
    /// `src_world` identifies the producing rank — the shm fabric routes
    /// each (src, dst) pair over its own single-producer ring.
    fn deposit(&self, src_world: usize, dst_world: usize, env: Envelope);

    /// Non-blocking matched receive for `global_dst`: take the first
    /// delivered envelope with the given (ctx, src, tag), with the queue
    /// length that was searched (for queue-cost charging).
    fn try_match(
        &self,
        global_dst: usize,
        ctx_id: u64,
        src: usize,
        tag: u64,
    ) -> Option<(Envelope, usize)>;

    /// Enter one wait of `rank`, returning where it sleeps: the park point
    /// every deposit addressed to it notifies, on which
    /// [`crate::state::WorldState`] parks it between tries of a receive
    /// (DESIGN.md §7). Not an accessor: call it exactly once per wait,
    /// before the wait's first readiness check, because a wrapper may
    /// perturb there (the fault wrapper delays, releases its held deposit
    /// and yields).
    fn enter_wait(&self, rank: usize) -> &ParkWords;

    /// Fabric hook for persistent-channel creation: where the channel's
    /// wire buffers live. `dst_world` is the receiving side's world rank
    /// (byte fabrics route the channel over the right peer link); `kind`
    /// is the element type's [`crate::Elem::KIND`] (the shm table checks
    /// it across processes); `len_hint` is the registered per-message
    /// element count (0 when unknown) and sizes preallocated buffers.
    fn make_channel(&self, key: ChanKey, dst_world: usize, kind: u8, len_hint: usize)
        -> ChanFabric;

    /// Discard transport-held in-flight traffic (mailbox envelopes / shm
    /// ring contents). Registry-held channel payloads are drained by the
    /// world via the per-channel drain hooks; both passes together give
    /// the failed-epoch drain guarantee. Quiescent use only: no rank may
    /// be moving traffic concurrently.
    fn drain_in_flight(&self);

    /// Record that a rank of the current epoch panicked (or died).
    /// `Some(rank)` names the victim (first writer wins) so stall
    /// forensics and peer-death aborts can report *who* died; `None`
    /// raises the flag without attribution.
    fn note_rank_panic(&self, rank: Option<usize>);

    /// Clear the panic marker (and any recorded dead rank) at the start
    /// of a fresh epoch.
    fn clear_rank_panic(&self);

    /// The rank recorded via [`Transport::note_rank_panic`], if any.
    fn dead_rank(&self) -> Option<usize>;

    /// If a peer rank died this epoch, the abort message describing the
    /// failure; `None` while all peers are healthy. May have side
    /// effects (the shm fabric records a newly-observed pid death).
    fn peer_failure(&self) -> Option<String>;

    /// Fault-injection hook for the program-ordered operations that do not
    /// go through [`Transport::deposit`]: a plain receive, a
    /// persistent-channel push or blocking take. A bare fabric ignores it;
    /// a [`fault::FaultTransport`] counts the op against `rank`'s schedule
    /// and may delay or kill here.
    fn inject(&self, _rank: usize, _op: FaultOp) {}

    /// A member freed communicator context `ctx_id`
    /// ([`crate::state::WorldState::free_context`]): discard what the
    /// fabric holds for that context outside any channel. What a channel
    /// owns goes back when its last handle drops, not here — a member that
    /// frees early must not take a slower member's traffic away. Only the
    /// socket fabric holds anything of the kind (payloads that arrived for
    /// a channel nobody registered); never blocks.
    fn release_context(&self, _ctx_id: u64) {}

    /// Sever the connection to `peer_world`'s host mid-epoch (the
    /// `drop=<permille>` fault). Only the socket fabric has connections to
    /// sever; everywhere else this is a no-op. The severed link must heal
    /// itself (reconnect-with-resume) or degrade to a loud peer-death.
    fn sever_link(&self, _peer_world: usize) {}

    /// Fill the fabric's share of a stall report: queue depths, park
    /// counters, outbox depth, peer liveness, link state and the fabric's
    /// share of the registry gauge. The world fills the rest (waits,
    /// epoch, dead rank, fabric name, channel count). Must not block:
    /// sample with `try_lock` and report `None` where a lock is contended.
    fn forensics(&self, report: &mut StallReport);
}

/// Take the first envelope of a mailbox queue with the given (ctx, src,
/// tag), with the queue length searched — the one matching rule of every
/// fabric's [`Transport::try_match`].
pub(crate) fn take_match(
    q: &mut VecDeque<Envelope>,
    ctx_id: u64,
    src: usize,
    tag: u64,
) -> Option<(Envelope, usize)> {
    let searched = q.len();
    let pos = q
        .iter()
        .position(|e| e.ctx_id == ctx_id && e.src == src && e.tag == tag)?;
    Some((q.remove(pos).expect("position valid"), searched))
}

/// Append the concatenation of two byte slices (a possibly-wrapped ring
/// message, a frame's payload) to a typed buffer.
pub(crate) fn vec_extend_bytes<T: Elem>(buf: &mut Vec<T>, a: &[u8], b: &[u8]) {
    let sz = std::mem::size_of::<T>();
    let total = a.len() + b.len();
    assert_eq!(
        total % sz,
        0,
        "payload of {total} bytes is not a whole number of {} elements",
        std::any::type_name::<T>(),
    );
    let add = total / sz;
    buf.reserve(add);
    // SAFETY: `reserve` made room for `add` more elements behind `len`, the
    // two copies fill exactly those `add * sz` bytes from slices that cannot
    // overlap a `&mut Vec`, and `T: Elem` is a primitive integer or float
    // (the trait is sealed), for which any bytes are a value.
    unsafe {
        let dst = (buf.as_mut_ptr() as *mut u8).add(buf.len() * sz);
        std::ptr::copy_nonoverlapping(a.as_ptr(), dst, a.len());
        std::ptr::copy_nonoverlapping(b.as_ptr(), dst.add(a.len()), b.len());
        buf.set_len(buf.len() + add);
    }
}

/// View a typed slice as raw bytes (the send boundary of every byte
/// payload).
pub(crate) fn bytes_of<T: Elem>(data: &[T]) -> &[u8] {
    // SAFETY: the view covers exactly the slice's own `size_of_val` bytes
    // for the slice's lifetime, `u8` has no alignment, and `T: Elem` is a
    // primitive integer or float (the trait is sealed): no padding, so
    // every one of those bytes is initialized.
    unsafe { std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data)) }
}

#[cfg(test)]
mod tests {
    use super::shm::ShmTransport;
    use super::sock::SockTransport;
    use super::thread::ThreadTransport;
    use super::Transport;

    #[test]
    fn a_rank_panic_abandons_a_blocked_operation_on_every_fabric() {
        let fabrics: [std::sync::Arc<dyn Transport>; 3] = [
            std::sync::Arc::new(ThreadTransport::new(2)),
            ShmTransport::create(2),
            SockTransport::loopback(2),
        ];
        for t in fabrics {
            t.note_rank_panic(Some(1));
            assert_eq!(
                t.peer_failure().as_deref(),
                Some("a peer rank panicked this epoch; abandoning blocked operation (rank 1 died)"),
                "{} fabric",
                t.fabric()
            );
        }
    }
}
