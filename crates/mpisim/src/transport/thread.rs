//! The in-process fabric: one mutexed mailbox per rank, typed payloads,
//! condvar wakeups. This is the transport every thread-backed world
//! ([`crate::World::run`], [`crate::WorldPool`]) uses by default, and the
//! receive half of the socket fabric, whose reader threads deposit into an
//! embedded [`ThreadTransport`] (see [`super::sock::SockTransport`]).
//!
//! It owns the in-process storage types: the [`Mailbox`] of a rank, the
//! [`ThreadChan`] body of a persistent channel, and the [`WaitSet`] a rank
//! parks on when it waits for a whole set of channels.

use super::{ChanFabric, PayloadMode, Transport, TransportForensics, PARK_SPIN};
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

/// Unexpected-message queue of one rank.
#[derive(Default)]
struct Mailbox {
    queue: Mutex<VecDeque<Envelope>>,
    cv: Condvar,
}

/// The park-point of one rank's blocked `wait_any`: a seq counter bumped
/// (with a wake) by every deposit into a channel the rank watches.
///
/// One `WaitSet` exists per world rank. A receiver that wants to block on
/// a *set* of channels attaches its rank's wait set to each of them and
/// parks here instead of on any single channel's condvar — so the first
/// arrival on **any** watched channel wakes it, and receives complete in
/// delivery order rather than the order the channels were initialized in.
/// (The shm fabric's counterpart is the per-rank `ws_seq` futex word plus
/// each ring's watcher slot.)
struct WaitSet {
    /// Deposit generation: bumped under the lock by every push into a
    /// watched channel. The parking protocol re-reads it to close the
    /// scan-then-park race (a push between the scan and the park bumps the
    /// generation, so the park returns immediately).
    seq: Mutex<u64>,
    cv: Condvar,
}

impl WaitSet {
    /// Current deposit generation. Read BEFORE scanning the channel set.
    fn generation(&self) -> u64 {
        *self.seq.lock()
    }

    /// Record one deposit and wake any parked receiver.
    fn notify(&self) {
        *self.seq.lock() += 1;
        self.cv.notify_all();
    }

    /// Park until the generation moves past `seen`, invoking `stall_probe`
    /// periodically while blocked.
    fn park_past(&self, seen: u64, stall_probe: impl Fn()) {
        let mut seq = self.seq.lock();
        while *seq == seen {
            if self.cv.wait_for(&mut seq, stall_period()).timed_out() {
                stall_probe();
            }
        }
    }
}

/// The untyped face of a [`ThreadChan`], shared with the [`ChanId`]s that
/// poll and park on it.
#[derive(Default)]
pub(crate) struct ChanPoll {
    /// Pending-message count mirrored outside the typed state so poll
    /// paths can probe it lock-free.
    pending: AtomicUsize,
    /// The receiving rank's [`WaitSet`], while it is parked on a set
    /// containing this channel.
    watcher: Mutex<Option<Arc<WaitSet>>>,
}

impl ChanPoll {
    /// Delivered-but-unconsumed message count.
    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// Route this channel's deposit wakes to `ws`. Idempotent for the
    /// common case (a rank re-parking on the same channel); a channel has
    /// a single receiver, so at most one wait set is ever interested.
    fn attach(&self, ws: &Arc<WaitSet>) {
        let mut watcher = self.watcher.lock();
        if watcher.as_ref().is_none_or(|w| !Arc::ptr_eq(w, ws)) {
            *watcher = Some(Arc::clone(ws));
        }
    }

    /// Undo [`ChanPoll::attach`] once the park is over, so senders stop
    /// paying the watcher wake on every subsequent deposit (channels — and
    /// their watcher slots — live as long as the warm world).
    fn detach(&self, ws: &Arc<WaitSet>) {
        let mut watcher = self.watcher.lock();
        if watcher.as_ref().is_some_and(|w| Arc::ptr_eq(w, ws)) {
            *watcher = None;
        }
    }
}

/// The in-process channel body: a flag (non-empty `pending`) plus a
/// condvar, payloads moved as typed `Vec<T>`s.
pub(crate) struct ThreadChan<T> {
    state: Mutex<ChanState<T>>,
    cv: Condvar,
    poll: Arc<ChanPoll>,
}

struct ChanState<T> {
    /// Delivered-but-unconsumed payloads with their modeled arrival times.
    pending: VecDeque<(Vec<T>, f64)>,
    /// Consumed payload buffers, reused by the next send.
    spare: Vec<Vec<T>>,
}

impl<T> ThreadChan<T> {
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(ChanState {
                pending: VecDeque::new(),
                spare: Vec::new(),
            }),
            cv: Condvar::new(),
            poll: Arc::default(),
        }
    }

    /// What a [`ChanId`] of this channel polls and parks on.
    pub(crate) fn poll(&self) -> &Arc<ChanPoll> {
        &self.poll
    }

    pub(crate) fn push_with(&self, arrival: f64, fill: impl FnOnce(&mut Vec<T>)) {
        let mut buf = self.state.lock().spare.pop().unwrap_or_default();
        buf.clear();
        fill(&mut buf);
        let mut st = self.state.lock();
        st.pending.push_back((buf, arrival));
        self.poll.pending.fetch_add(1, Ordering::Relaxed);
        self.cv.notify_all();
        drop(st);
        // wake a receiver parked on a channel SET containing this channel
        // (no-op — one uncontended lock — until the receiver first parks)
        if let Some(ws) = self.poll.watcher.lock().as_ref() {
            ws.notify();
        }
    }

    pub(crate) fn wait_nonempty(&self, stall_probe: impl Fn()) {
        // the empty probe is the lock-free pending counter, so spinning
        // adds no mutex traffic on the path the sender needs
        for _ in 0..PARK_SPIN {
            if self.poll.pending() > 0 {
                return;
            }
            std::thread::yield_now();
        }
        let mut st = self.state.lock();
        while st.pending.is_empty() {
            if self.cv.wait_for(&mut st, stall_period()).timed_out() {
                stall_probe();
            }
        }
    }

    pub(crate) fn try_pop(&self) -> Option<(Vec<T>, f64)> {
        // lock-free empty probe first: `test` loops call this on channels
        // that usually have nothing yet
        if self.poll.pending() == 0 {
            return None;
        }
        let msg = self.state.lock().pending.pop_front()?;
        self.poll.pending.fetch_sub(1, Ordering::Relaxed);
        Some(msg)
    }

    pub(crate) fn recycle(&self, buf: Vec<T>) {
        self.state.lock().spare.push(buf);
    }

    pub(crate) fn drain_pending(&self) {
        let mut st = self.state.lock();
        while let Some((buf, _)) = st.pending.pop_front() {
            self.poll.pending.fetch_sub(1, Ordering::Relaxed);
            st.spare.push(buf);
        }
    }
}

pub(crate) struct ThreadTransport {
    /// Unexpected-message queue of each rank.
    mailboxes: Vec<Mailbox>,
    /// One park point per world rank for completion-driven receives over
    /// channel sets. Lives with the transport (like the channel registry)
    /// so pooled epochs reuse it warm.
    wait_sets: Vec<Arc<WaitSet>>,
    /// Set when a rank of the current pool epoch panicked: blocked
    /// receives check it from their stall probes and abort loudly instead
    /// of waiting forever for a message the dead rank will never send.
    rank_panicked: AtomicBool,
    /// Which rank raised the flag (first writer wins), for forensics.
    dead_rank: AtomicUsize,
}

impl ThreadTransport {
    pub fn new(n_ranks: usize) -> Self {
        let wait_set = || WaitSet {
            seq: Mutex::new(0),
            cv: Condvar::new(),
        };
        Self {
            mailboxes: (0..n_ranks).map(|_| Mailbox::default()).collect(),
            wait_sets: (0..n_ranks).map(|_| Arc::new(wait_set())).collect(),
            rank_panicked: AtomicBool::new(false),
            dead_rank: AtomicUsize::new(NO_RANK),
        }
    }

    /// World size (one mailbox per rank).
    pub(crate) fn n_ranks(&self) -> usize {
        self.mailboxes.len()
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
        let mb = &self.mailboxes[dst_world];
        mb.queue.lock().push_back(env);
        // after the unlock: a receiver woken under the lock would only
        // block on it again
        mb.cv.notify_all();
    }

    fn match_recv(
        &self,
        global_dst: usize,
        ctx_id: u64,
        src: usize,
        tag: u64,
        stall: &dyn Fn(),
    ) -> (Envelope, usize) {
        let mb = &self.mailboxes[global_dst];
        let mut q = mb.queue.lock();
        loop {
            let searched = q.len();
            if let Some(pos) = q
                .iter()
                .position(|e| e.ctx_id == ctx_id && e.src == src && e.tag == tag)
            {
                let env = q.remove(pos).expect("position valid");
                return (env, searched);
            }
            if mb.cv.wait_for(&mut q, stall_period()).timed_out() {
                stall();
            }
        }
    }

    fn probe(&self, global_dst: usize, ctx_id: u64, src: usize, tag: u64) -> bool {
        let q = self.mailboxes[global_dst].queue.lock();
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
        for _ in 0..PARK_SPIN {
            if let Some(i) = WorldState::poll_any_from(chans, start) {
                return i;
            }
            std::thread::yield_now();
        }
        let ws = &self.wait_sets[global_rank];
        for c in chans {
            c.thread_poll().attach(ws);
        }
        let found = loop {
            // generation BEFORE the scan: a deposit racing with the scan
            // bumps it, so the park below returns without sleeping
            let seen = ws.generation();
            if let Some(i) = WorldState::poll_any_from(chans, start) {
                break i;
            }
            ws.park_past(seen, stall);
        };
        // stop routing deposit wakes to this rank once it is running again
        for c in chans {
            c.thread_poll().detach(ws);
        }
        found
    }

    fn make_channel(
        &self,
        _key: ChanKey,
        _dst_world: usize,
        _elem_bytes: usize,
        _type_name: &'static str,
        _len_hint: usize,
    ) -> ChanFabric {
        ChanFabric::Local // in-process channels stay typed; no wire buffers
    }

    fn drain_in_flight(&self) {
        for mb in &self.mailboxes {
            mb.queue.lock().clear();
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
                .map(|mb| mb.queue.try_lock().map(|q| q.len()))
                .collect(),
            outbox_depth: 0,
            peers: Vec::new(),
            links: Vec::new(),
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
    fn wait_any_parks_on_the_set_and_wakes_on_either_channel() {
        // the receiver parks on BOTH channels; a deposit into the second
        // one (registered last) must wake it — the park is on the set, not
        // on any single channel's condvar
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
