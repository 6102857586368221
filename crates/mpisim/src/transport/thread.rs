//! The in-process fabric: one mutexed mailbox per rank, typed payloads,
//! one park point per rank. This is the transport every thread-backed
//! world ([`crate::World::run`], [`crate::WorldPool`]) uses by default, and
//! the receive half of the socket fabric, whose reader threads deposit into
//! an embedded [`ThreadTransport`] (see [`super::sock::SockTransport`]).
//!
//! It owns the in-process storage types: the mailbox of a rank, the
//! [`ThreadChan`] body of a persistent channel, and the [`RankPark`] every
//! blocked receive of a rank sleeps on.

use super::{
    park_until, ChanFabric, ParkPoint, PayloadMode, Transport, TransportForensics, PARK_SPIN,
};
use crate::stall::{ParkCounts, RegistryGauge};
use crate::state::{ChanId, ChanKey, Envelope, WorldState};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sentinel for "no rank recorded" in `dead_rank`.
const NO_RANK: usize = usize::MAX;

/// How long a blocked wait sleeps between stall probes.
fn stall_period() -> Duration {
    Duration::from_millis(crate::stall::stall_ms())
}

/// The park point of one world rank: the only place that rank sleeps,
/// whatever it is blocked on — a mailbox envelope, one channel, any channel
/// of a set. Every deposit addressed to the rank calls
/// [`RankPark::notify`]; the rank sleeps through [`super::park_until`].
/// (The shm fabric's counterpart is `segment::ParkWords`; DESIGN.md §7
/// states the handshake once for both.)
#[derive(Default)]
pub(crate) struct RankPark {
    st: Mutex<ParkState>,
    cv: Condvar,
}

#[derive(Default)]
struct ParkState {
    /// Deposit generation: bumped by every deposit to this rank.
    seq: u64,
    /// The rank is waiting on `cv`: only then does a deposit pay the wake.
    parked: bool,
    counts: ParkCounts,
}

impl RankPark {
    /// Record one deposit — the caller has already published the message —
    /// and wake the rank if it is asleep. No wake is lost (DESIGN.md §7):
    /// `seq` and `parked` only move under `st`, so this bump falls before
    /// the parker's `generation()` read (which then sees the message),
    /// between that read and `park_past` (which then does not sleep), or
    /// after `park_past` queued the rank on `cv` (which the notify reaches).
    fn notify(&self) {
        let mut st = self.st.lock();
        st.seq += 1;
        let asleep = st.parked;
        // after the unlock: a rank woken under the lock would only block
        // on it again
        drop(st);
        if asleep {
            self.cv.notify_all();
        }
    }
}

impl ParkPoint for RankPark {
    fn generation(&self) -> u64 {
        self.st.lock().seq
    }

    fn park_past(&self, seen: u64) -> bool {
        let mut st = self.st.lock();
        while st.seq == seen {
            st.parked = true;
            st.counts.parks += 1;
            let timed_out = self.cv.wait_for(&mut st, stall_period()).timed_out();
            st.parked = false;
            if timed_out && st.seq == seen {
                st.counts.park_timeouts += 1;
                return false;
            }
        }
        true
    }
}

/// The in-process channel body: a FIFO of typed `Vec<T>` payloads whose
/// every push notifies the receiving rank's park point.
pub(crate) struct ThreadChan<T> {
    state: Mutex<ChanState<T>>,
    /// Pending-message count mirrored outside the typed state, so poll
    /// paths (and the [`ChanId`]s that share it) probe it lock-free.
    pending: Arc<AtomicUsize>,
    /// Where the receiving rank sleeps (a channel has one receiver).
    park: Arc<RankPark>,
}

struct ChanState<T> {
    /// Delivered-but-unconsumed payloads with their modeled arrival times.
    pending: VecDeque<(Vec<T>, f64)>,
    /// Consumed payload buffers, reused by the next send.
    spare: Vec<Vec<T>>,
}

impl<T> ThreadChan<T> {
    pub(crate) fn new(park: Arc<RankPark>) -> Self {
        Self {
            state: Mutex::new(ChanState {
                pending: VecDeque::new(),
                spare: Vec::new(),
            }),
            pending: Arc::default(),
            park,
        }
    }

    /// The delivered-but-unconsumed message count, shared with this
    /// channel's [`ChanId`]s.
    pub(crate) fn pending(&self) -> &Arc<AtomicUsize> {
        &self.pending
    }

    pub(crate) fn push_with(&self, arrival: f64, fill: impl FnOnce(&mut Vec<T>)) {
        let mut buf = self.state.lock().spare.pop().unwrap_or_default();
        buf.clear();
        fill(&mut buf);
        let mut st = self.state.lock();
        st.pending.push_back((buf, arrival));
        self.pending.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.park.notify();
    }

    pub(crate) fn wait_nonempty(&self, stall_probe: impl Fn()) {
        let ready = || (self.pending.load(Ordering::Relaxed) > 0).then_some(());
        park_until(&*self.park, PARK_SPIN, ready, &stall_probe)
    }

    pub(crate) fn try_pop(&self) -> Option<(Vec<T>, f64)> {
        // lock-free empty probe first: `test` loops call this on channels
        // that usually have nothing yet
        if self.pending.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let msg = self.state.lock().pending.pop_front()?;
        self.pending.fetch_sub(1, Ordering::Relaxed);
        Some(msg)
    }

    pub(crate) fn recycle(&self, buf: Vec<T>) {
        self.state.lock().spare.push(buf);
    }

    pub(crate) fn drain_pending(&self) {
        let mut st = self.state.lock();
        while let Some((buf, _)) = st.pending.pop_front() {
            self.pending.fetch_sub(1, Ordering::Relaxed);
            st.spare.push(buf);
        }
    }
}

pub(crate) struct ThreadTransport {
    /// Unexpected-message queue of each rank.
    mailboxes: Vec<Mutex<VecDeque<Envelope>>>,
    /// The park point of each world rank. Lives with the transport (like
    /// the channel registry) so pooled epochs reuse it warm.
    parks: Vec<Arc<RankPark>>,
    /// Set when a rank of the current pool epoch panicked: blocked
    /// receives check it from their stall probes and abort loudly instead
    /// of waiting forever for a message the dead rank will never send.
    rank_panicked: AtomicBool,
    /// Which rank raised the flag (first writer wins), for forensics.
    dead_rank: AtomicUsize,
}

impl ThreadTransport {
    pub fn new(n_ranks: usize) -> Self {
        Self {
            mailboxes: (0..n_ranks).map(|_| Mutex::default()).collect(),
            parks: (0..n_ranks).map(|_| Arc::default()).collect(),
            rank_panicked: AtomicBool::new(false),
            dead_rank: AtomicUsize::new(NO_RANK),
        }
    }

    /// World size (one mailbox per rank).
    pub(crate) fn n_ranks(&self) -> usize {
        self.mailboxes.len()
    }

    /// Where `rank` sleeps — what a channel it receives on must notify.
    pub(crate) fn park_of(&self, rank: usize) -> Arc<RankPark> {
        Arc::clone(&self.parks[rank])
    }
}

impl Transport for ThreadTransport {
    fn mode(&self) -> PayloadMode {
        PayloadMode::Typed
    }

    fn fabric(&self) -> &'static str {
        "thread"
    }

    fn deposit(&self, _src_world: usize, dst_world: usize, env: Envelope) {
        self.mailboxes[dst_world].lock().push_back(env);
        self.parks[dst_world].notify();
    }

    fn match_recv(
        &self,
        global_dst: usize,
        ctx_id: u64,
        src: usize,
        tag: u64,
        stall: &dyn Fn(),
    ) -> (Envelope, usize) {
        let take = || {
            let mut q = self.mailboxes[global_dst].lock();
            let searched = q.len();
            let pos = q
                .iter()
                .position(|e| e.ctx_id == ctx_id && e.src == src && e.tag == tag)?;
            Some((q.remove(pos).expect("position valid"), searched))
        };
        park_until(&*self.parks[global_dst], 0, take, stall)
    }

    fn probe(&self, global_dst: usize, ctx_id: u64, src: usize, tag: u64) -> bool {
        let q = self.mailboxes[global_dst].lock();
        q.iter()
            .any(|e| e.ctx_id == ctx_id && e.src == src && e.tag == tag)
    }

    fn wait_any(
        &self,
        global_rank: usize,
        chans: &[ChanId],
        start: usize,
        stall: &dyn Fn(),
    ) -> usize {
        let scan = || WorldState::poll_any_from(chans, start);
        park_until(&*self.parks[global_rank], PARK_SPIN, scan, stall)
    }

    fn make_channel(
        &self,
        _key: ChanKey,
        dst_world: usize,
        _elem_bytes: usize,
        _type_name: &'static str,
        _len_hint: usize,
    ) -> ChanFabric {
        // in-process channels stay typed; no wire buffers
        ChanFabric::Local(self.park_of(dst_world))
    }

    fn drain_in_flight(&self) {
        for mb in &self.mailboxes {
            mb.lock().clear();
        }
    }

    fn note_rank_panic(&self, rank: Option<usize>) {
        if let Some(r) = rank {
            let _ =
                self.dead_rank
                    .compare_exchange(NO_RANK, r, Ordering::AcqRel, Ordering::Relaxed);
        }
        self.rank_panicked.store(true, Ordering::Release);
    }

    fn clear_rank_panic(&self) {
        self.rank_panicked.store(false, Ordering::Release);
        self.dead_rank.store(NO_RANK, Ordering::Release);
    }

    fn dead_rank(&self) -> Option<usize> {
        match self.dead_rank.load(Ordering::Acquire) {
            NO_RANK => None,
            r => Some(r),
        }
    }

    fn peer_failure(&self) -> Option<String> {
        if !self.rank_panicked.load(Ordering::Acquire) {
            return None;
        }
        let who = match self.dead_rank() {
            Some(r) => format!(" (rank {r} died)"),
            None => String::new(),
        };
        Some(format!(
            "a peer rank panicked this epoch; abandoning blocked receive{who}"
        ))
    }

    fn forensics(&self) -> TransportForensics {
        TransportForensics {
            fabric: "thread",
            mailbox_depths: self
                .mailboxes
                .iter()
                .map(|mb| mb.try_lock().map(|q| q.len()))
                .collect(),
            park_counts: self
                .parks
                .iter()
                .map(|p| p.st.try_lock().map(|st| st.counts))
                .collect(),
            outbox_depth: 0,
            peers: Vec::new(),
            links: Vec::new(),
            registry: RegistryGauge::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Payload;

    fn env(ctx_id: u64, src: usize, tag: u64, val: u32) -> Envelope {
        Envelope {
            ctx_id,
            src,
            tag,
            arrival: 0.0,
            payload: Payload::typed(vec![val]),
        }
    }

    fn take_u32(payload: Payload) -> Vec<u32> {
        payload.take::<u32>().expect("u32 payload")
    }

    #[test]
    fn deposit_then_match() {
        let w = WorldState::new(2, None);
        w.deposit(0, 1, env(0, 0, 5, 42));
        let (got, searched) = w.match_recv(1, 0, 0, 1, 5);
        assert_eq!(searched, 1);
        assert_eq!(take_u32(got.payload), vec![42]);
    }

    #[test]
    fn matching_respects_tag_and_ctx() {
        let w = WorldState::new(1, None);
        w.deposit(0, 0, env(0, 0, 1, 10));
        w.deposit(0, 0, env(1, 0, 2, 20));
        w.deposit(0, 0, env(0, 0, 2, 30));
        // match ctx 0 / tag 2 skips both earlier non-matching envelopes
        let (got, _) = w.match_recv(0, 0, 0, 0, 2);
        assert_eq!(take_u32(got.payload), vec![30]);
        assert!(w.probe(0, 0, 0, 1));
        assert!(w.probe(0, 1, 0, 2));
        assert!(!w.probe(0, 0, 0, 2));
    }

    #[test]
    fn non_overtaking_same_signature() {
        let w = WorldState::new(1, None);
        w.deposit(0, 0, env(0, 3, 9, 1));
        w.deposit(0, 0, env(0, 3, 9, 2));
        let (a, _) = w.match_recv(0, 0, 3, 0, 9);
        let (b, _) = w.match_recv(0, 0, 3, 0, 9);
        assert_eq!(take_u32(a.payload), vec![1]);
        assert_eq!(take_u32(b.payload), vec![2]);
    }

    #[test]
    fn blocking_recv_wakes_on_deposit() {
        let w = WorldState::new(1, None);
        let w2 = Arc::clone(&w);
        let t = std::thread::spawn(move || {
            let (env, _) = w2.match_recv(0, 0, 0, 0, 7);
            take_u32(env.payload)
        });
        std::thread::sleep(Duration::from_millis(20));
        w.deposit(0, 0, env(0, 0, 7, 99));
        assert_eq!(t.join().unwrap(), vec![99]);
    }

    #[test]
    fn channel_fifo_and_reuse() {
        let w = WorldState::new(2, None);
        let c = w.channel::<u32>((0, 0, 1, 7));
        assert!(!c.ready());
        c.push(&[1, 2], 0.5);
        c.push(&[3, 4], 1.5);
        assert!(c.ready());
        c.wait_nonempty(|| {});
        let (buf, arrival) = c.try_pop().expect("delivered");
        assert_eq!((buf.as_slice(), arrival), ([1, 2].as_slice(), 0.5));
        c.recycle(buf);
        c.wait_nonempty(|| {});
        let (buf, arrival) = c.try_pop().expect("delivered");
        assert_eq!((buf.as_slice(), arrival), ([3, 4].as_slice(), 1.5));
        c.recycle(buf);
        assert!(!c.ready());
        // both sides resolve to the same slot
        let c2 = w.channel::<u32>((0, 0, 1, 7));
        c2.push(&[9, 9], 0.0);
        assert!(c.ready());
    }

    #[test]
    fn channel_blocking_wait_wakes_on_push() {
        let w = WorldState::new(1, None);
        let c = w.channel::<u8>((0, 0, 0, 1));
        let c2 = w.channel::<u8>((0, 0, 0, 1));
        let t = std::thread::spawn(move || {
            c2.wait_nonempty(|| {});
            let (buf, _) = c2.try_pop().expect("delivered");
            buf[0]
        });
        std::thread::sleep(Duration::from_millis(20));
        c.push(&[42], 0.0);
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn try_pop_is_nonblocking_and_fifo() {
        let w = WorldState::new(1, None);
        let c = w.channel::<u32>((0, 0, 0, 2));
        assert!(c.try_pop().is_none());
        c.push(&[7], 0.25);
        c.push(&[8], 0.75);
        let (buf, arrival) = c.try_pop().expect("message delivered");
        assert_eq!((buf.as_slice(), arrival), ([7].as_slice(), 0.25));
        c.recycle(buf);
        let (buf, _) = c.try_pop().expect("second message delivered");
        assert_eq!(buf.as_slice(), [8].as_slice());
        c.recycle(buf);
        assert!(c.try_pop().is_none());
    }

    #[test]
    fn one_park_point_serves_every_wait_of_a_rank() {
        // rank 0 sleeps in a plain receive; a channel push addressed to it
        // goes through the same park point, so it wakes, finds its
        // envelope still missing and parks again; the envelope ends it
        let t = Arc::new(ThreadTransport::new(1));
        let w = WorldState::with_transport_deadline(1, None, Arc::clone(&t) as _, None);
        let parks_of = |t: &ThreadTransport| t.forensics().park_counts[0].map(|c| c.parks);
        let c = w.channel::<u8>((0, 0, 0, 1));
        c.push(&[1], 0.0);
        assert_eq!(parks_of(&t), Some(0), "nobody asleep, nobody parked");
        let w2 = Arc::clone(&w);
        let recv = std::thread::spawn(move || take_u32(w2.match_recv(0, 0, 0, 0, 7).0.payload));
        let asleep_for_the = |nth: u64| loop {
            let st = t.parks[0].st.lock();
            if st.parked && st.counts.parks >= nth {
                break;
            }
            drop(st);
            std::thread::yield_now();
        };
        asleep_for_the(1);
        c.push(&[2], 0.0);
        asleep_for_the(2);
        w.deposit(0, 0, env(0, 0, 7, 99));
        assert_eq!(recv.join().unwrap(), vec![99]);
        assert!(!t.parks[0].st.lock().parked);
    }

    #[test]
    fn wait_any_parks_on_the_set_and_wakes_on_either_channel() {
        // the receiver waits for BOTH channels; a deposit into the second
        // one (registered last) must wake it
        let w = WorldState::new(1, None);
        let a = w.channel::<u8>((0, 0, 0, 20));
        let b = w.channel::<u8>((0, 0, 0, 21));
        let w2 = Arc::clone(&w);
        let (aid, bid) = (a.id(), b.id());
        let t = std::thread::spawn(move || w2.wait_any(0, &[aid, bid]));
        // let the receiver get past the spin phase and genuinely park
        std::thread::sleep(Duration::from_millis(30));
        b.push(&[9], 0.0);
        assert_eq!(t.join().unwrap(), 1);
        b.try_pop()
            .expect("wait_any leaves the message on the channel");
        // and again for the other channel, now that the wait set is warm
        let (aid, bid) = (a.id(), b.id());
        let w2 = Arc::clone(&w);
        let t = std::thread::spawn(move || w2.wait_any(0, &[aid, bid]));
        std::thread::sleep(Duration::from_millis(30));
        a.push(&[3], 0.0);
        assert_eq!(t.join().unwrap(), 0);
    }
}
