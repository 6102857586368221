//! The in-process fabric: one mutexed mailbox per rank, one heap
//! [`ParkWords`] per rank. This is the transport every
//! thread-backed world ([`crate::World::run`], [`crate::WorldPool`]) uses
//! by default, and the receive half of the socket fabric, whose reader
//! threads deposit into an embedded [`ThreadTransport`] (see
//! [`super::sock::SockTransport`]).
//!
//! It owns the in-process storage types: the mailbox of a rank and the
//! [`ThreadChan`] body of a persistent channel. A message costs one lock
//! acquisition to deposit, one to take, and an atomic bump of the
//! receiver's park point; a wake only when the receiver sleeps.

use super::park::ParkWords;
use super::{rank_panic_failure, take_match, ChanFabric, Transport};
use crate::stall::StallReport;
use crate::state::{ChanKey, Envelope};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Sentinel for "no rank recorded" in `dead_rank`.
const NO_RANK: usize = usize::MAX;

/// The in-process channel body: a FIFO of typed `Vec<T>` payloads, each
/// with its modeled arrival stamp (the thread fabric is the one a cost
/// model runs on), whose every push notifies the receiving rank's park
/// point.
pub(crate) struct ThreadChan<T> {
    state: Mutex<ChanState<T>>,
    /// Pending-message count mirrored outside the typed state, so poll
    /// paths (and the [`ChanId`]s that share it) probe it lock-free.
    pending: Arc<AtomicUsize>,
    /// Where the receiving rank sleeps (a channel has one receiver).
    park: Arc<ParkWords>,
}

struct ChanState<T> {
    /// Delivered-but-unconsumed payloads with their modeled arrival times.
    pending: VecDeque<(Vec<T>, f64)>,
    /// Consumed payload buffers, reused by the next send.
    spare: Vec<Vec<T>>,
}

impl<T> ThreadChan<T> {
    pub(crate) fn new(park: Arc<ParkWords>) -> Self {
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

    /// Take a spare buffer, fill it and enqueue it under one lock
    /// acquisition, then bump the receiver's park point. The `Relaxed`
    /// count increment is published by that `SeqCst` bump: a parker that
    /// reads the bumped generation also sees the count (DESIGN.md §7).
    pub(crate) fn push_with(&self, arrival: f64, fill: impl FnOnce(&mut Vec<T>)) {
        let mut st = self.state.lock();
        let mut buf = st.spare.pop().unwrap_or_default();
        buf.clear();
        fill(&mut buf);
        st.pending.push_back((buf, arrival));
        self.pending.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.park.notify();
    }

    /// Take the next message, handing the buffers in `back` (payloads
    /// earlier takes lent out) to the spare pool under the same lock
    /// acquisition. A take that finds nothing leaves them in `back`.
    pub(crate) fn try_pop(&self, back: &mut Vec<Vec<T>>) -> Option<(Vec<T>, f64)> {
        // lock-free empty probe first: `test` loops call this on channels
        // that usually have nothing yet
        if self.pending.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut st = self.state.lock();
        let msg = st.pending.pop_front()?;
        self.pending.fetch_sub(1, Ordering::Relaxed);
        st.spare.append(back);
        Some(msg)
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
    parks: Vec<Arc<ParkWords>>,
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
    pub(crate) fn park_of(&self, rank: usize) -> Arc<ParkWords> {
        Arc::clone(&self.parks[rank])
    }
}

impl Transport for ThreadTransport {
    fn fabric(&self) -> &'static str {
        "thread"
    }

    fn deposit(&self, _src_world: usize, dst_world: usize, env: Envelope) {
        self.mailboxes[dst_world].lock().push_back(env);
        self.parks[dst_world].notify();
    }

    fn try_match(
        &self,
        global_dst: usize,
        ctx_id: u64,
        src: usize,
        tag: u64,
    ) -> Option<(Envelope, usize)> {
        take_match(&mut self.mailboxes[global_dst].lock(), ctx_id, src, tag)
    }

    fn enter_wait(&self, rank: usize) -> &ParkWords {
        &self.parks[rank]
    }

    fn make_channel(&self, _key: ChanKey, dst_world: usize, _kind: u8, _len: usize) -> ChanFabric {
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
        Some(rank_panic_failure(self.dead_rank()))
    }

    fn forensics(&self, report: &mut StallReport) {
        report.mailbox_depths = self
            .mailboxes
            .iter()
            .map(|mb| mb.try_lock().map(|q| q.len()))
            .collect();
        report.park_counts = self.parks.iter().map(|p| p.counts()).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{Payload, WorldState};
    use crate::transport::park::park_until;
    use crate::transport::shm::ShmTransport;
    use crate::transport::sock::SockTransport;
    use crate::transport::PARK_SPIN;
    use crate::Fabric;
    use std::time::Duration;

    fn env(ctx_id: u64, src: usize, tag: u64, val: u32) -> Envelope {
        Envelope {
            ctx_id,
            src,
            tag,
            arrival: 0.0,
            payload: Payload::of(&[val]),
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
        let t = ThreadTransport::new(1);
        t.deposit(0, 0, env(0, 0, 1, 10));
        t.deposit(0, 0, env(1, 0, 2, 20));
        t.deposit(0, 0, env(0, 0, 2, 30));
        let take = |ctx_id, tag| t.try_match(0, ctx_id, 0, tag);
        // match ctx 0 / tag 2 skips both earlier non-matching envelopes
        let (got, searched) = take(0, 2).expect("delivered");
        assert_eq!((take_u32(got.payload), searched), (vec![30], 3));
        assert_eq!(take(0, 1).map(|(e, _)| take_u32(e.payload)), Some(vec![10]));
        assert_eq!(take(1, 2).map(|(e, _)| take_u32(e.payload)), Some(vec![20]));
        assert!(take(0, 2).is_none());
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
        let mut back = Vec::new();
        let (buf, arrival) = c.try_pop(&mut back).expect("delivered");
        assert_eq!((buf.as_slice(), arrival), ([1, 2].as_slice(), 0.5));
        back.push(buf);
        let (buf, arrival) = c.try_pop(&mut back).expect("delivered");
        assert_eq!((buf.as_slice(), arrival), ([3, 4].as_slice(), 1.5));
        assert!(back.is_empty(), "the take handed the first buffer back");
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
        let w2 = Arc::clone(&w);
        let t = std::thread::spawn(move || loop {
            if let Some((buf, _)) = c2.try_pop(&mut Vec::new()) {
                break buf[0];
            }
            w2.wait_any(0, &[c2.id()]);
        });
        std::thread::sleep(Duration::from_millis(20));
        c.push(&[42], 0.0);
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn try_pop_is_nonblocking_and_fifo() {
        let w = WorldState::new(1, None);
        let c = w.channel::<u32>((0, 0, 0, 2));
        let mut back = Vec::new();
        assert!(c.try_pop(&mut back).is_none());
        c.push(&[7], 0.25);
        c.push(&[8], 0.75);
        let (buf, arrival) = c.try_pop(&mut back).expect("message delivered");
        assert_eq!((buf.as_slice(), arrival), ([7].as_slice(), 0.25));
        back.push(buf);
        let (buf, _) = c.try_pop(&mut back).expect("second message delivered");
        assert_eq!(buf.as_slice(), [8].as_slice());
        back.push(buf);
        assert!(c.try_pop(&mut back).is_none());
        assert_eq!(back.len(), 1, "a take that finds nothing keeps the buffers");
    }

    #[test]
    fn a_channel_moves_every_message_intact_under_load() {
        // one sender up to AHEAD messages ahead of one receiver that hands
        // some payloads back at once and holds others across later takes
        const N: u64 = 100_000;
        const AHEAD: u64 = 8;
        let c = ThreadChan::<u64>::new(Arc::default());
        let msg = |i: u64| (0..i % 13).map(move |j| i << 8 | j);
        let taken = AtomicUsize::new(0);
        let (mut back, mut held) = (Vec::new(), Vec::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..N {
                    while i >= taken.load(Ordering::Relaxed) as u64 + AHEAD {
                        std::thread::yield_now();
                    }
                    c.push_with(i as f64, |buf| buf.extend(msg(i)));
                }
            });
            for i in 0..N {
                let (buf, arrival) =
                    park_until(&c.park, PARK_SPIN, || c.try_pop(&mut back), &|| {});
                assert_eq!(arrival, i as f64, "FIFO");
                assert!(buf.iter().copied().eq(msg(i)), "message {i}: {buf:?}");
                taken.store(i as usize + 1, Ordering::Relaxed);
                if i % 3 == 0 {
                    held.push(buf);
                } else {
                    back.push(buf);
                }
                if held.len() == 3 {
                    back.append(&mut held);
                }
            }
        });
        // buffers circulate: as many as the window needs, not one a message
        let alive = c.state.lock().spare.len() + back.len() + held.len();
        assert!(alive <= 2 * AHEAD as usize + 4, "{alive} buffers");

        // a partial run: drained, the channel is empty and carries on
        for i in 0..5 {
            c.push_with(i as f64, |buf| buf.extend(msg(i)));
        }
        let (buf, _) = c.try_pop(&mut back).expect("delivered");
        back.push(buf);
        c.drain_pending();
        assert_eq!(c.pending().load(Ordering::Relaxed), 0);
        assert!(c.try_pop(&mut back).is_none());
        c.push_with(7.0, |buf| buf.extend(msg(7)));
        let (buf, arrival) = c.try_pop(&mut back).expect("delivered after the drain");
        assert_eq!(arrival, 7.0);
        assert!(buf.iter().copied().eq(msg(7)));
    }

    #[test]
    fn one_park_point_serves_every_wait_of_a_rank() {
        // rank 0 sleeps in a plain receive; a channel push addressed to it
        // goes through the same park point, so it wakes, finds its
        // envelope still missing and parks again; the envelope ends it
        for fabric in Fabric::ALL {
            let t: Arc<dyn Transport> = match fabric {
                Fabric::Thread => Arc::new(ThreadTransport::new(1)),
                Fabric::Shm => {
                    let t = ShmTransport::create(1);
                    t.segment().unlink();
                    t
                }
                Fabric::Sock => SockTransport::loopback(1),
            };
            let w = WorldState::with_transport_deadline(1, None, Arc::clone(&t), None);
            let parks_of = |t: &dyn Transport| t.enter_wait(0).counts().parks;
            let c = w.channel::<u8>((0, 0, 0, 1));
            c.push(&[1], 0.0);
            while !c.ready() {
                std::thread::yield_now(); // the sock fabric delivers off a reader
            }
            assert_eq!(parks_of(&*t), 0, "{fabric:?}: nobody asleep, nobody parked");
            let w2 = Arc::clone(&w);
            let recv = std::thread::spawn(move || take_u32(w2.match_recv(0, 0, 0, 0, 7).0.payload));
            // a park is counted once the rank has committed to it: a deposit
            // from then on either wakes it or keeps it from sleeping
            let asleep_for_the = |nth: u64| {
                while parks_of(&*t) < nth {
                    std::thread::yield_now();
                }
            };
            asleep_for_the(1);
            c.push(&[2], 0.0);
            asleep_for_the(2);
            w.deposit(0, 0, env(0, 0, 7, 99));
            assert_eq!(recv.join().unwrap(), vec![99], "{fabric:?}");
        }
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
        b.try_pop(&mut Vec::new())
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
