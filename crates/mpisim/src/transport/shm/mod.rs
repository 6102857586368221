//! The cross-process shared-memory fabric.
//!
//! All cross-rank state lives in one `segment::Segment`: plain sends
//! travel over per-(src, dst) SPSC byte rings and are matched against a
//! receiver-local unexpected queue; persistent channels are byte rings
//! allocated through the segment's registration table (the pre-matched
//! handshake); a rank sleeps on one process-shared futex, its
//! `crate::transport::park::ParkWords` in the segment, with the
//! fabric-wide stall period
//! (`MPISIM_STALL_MS`, see `crate::stall::stall_ms`), so every blocked
//! operation re-probes for peer death (flag + pid sweep) and aborts loudly
//! instead of deadlocking.
//!
//! The same transport serves both deployment shapes: rank threads of one
//! process ([`crate::Fabric::Shm`] under a [`crate::WorldConfig`] — the
//! fabric under test without process management) and ranks as separate
//! OS processes ([`crate::World::spawn`], through `control`).

pub(crate) mod control;
pub(crate) mod ring;
pub(crate) mod segment;

use super::park::park_until;
use super::wire::{decode_envelope, encode_env_hdr, ENV_HDR};
use super::{ChanFabric, Transport, PARK_SPIN};
use crate::elem::kind_bytes;
use crate::stall::{PeerStatus, StallReport};
use crate::state::{ChanId, ChanKey, Envelope, Payload, WorldState};
use parking_lot::{Condvar, Mutex};
use ring::ShmChanRaw;
use segment::Segment;
use std::collections::VecDeque;
use std::sync::Arc;

/// Data capacity of each (src, dst) mailbox ring, in bytes (a power of
/// two). A plain send larger than half of it streams through in chunks.
pub(crate) const MAILBOX_CAP: u64 = 256 << 10;

/// Largest ring frame a plain send takes: an envelope's first frame
/// carries the header and as much payload as fits, the rest follows in
/// continuation frames of this size.
const MAX_CHUNK: usize = (MAILBOX_CAP / 2) as usize;
const _: () = assert!(ENV_HDR < MAX_CHUNK);

/// Messages of its registered length a persistent-channel ring holds: how
/// far a sender may run ahead of its receiver before `start` blocks.
pub(crate) const RING_DEPTH: u64 = 8;

/// Receiver-local unexpected-message state of one rank.
struct RecvState {
    q: VecDeque<Envelope>,
    /// Reassembly slots for oversized plain sends, one per source: an
    /// envelope whose payload is still streaming in as continuation
    /// frames over that source's mailbox ring, with the byte count still
    /// outstanding. Per-ring FIFO makes continuations unambiguous.
    partial: Vec<Option<(Envelope, usize)>>,
}

/// One mailbox frame spilled to the sender-side outbox: the exact byte
/// image `ShmChanRaw::try_push` would have written, FIFO per (src, dst).
struct Frame {
    arrival: f64,
    bytes: Vec<u8>,
}

struct OutboxState {
    /// Spilled frames per (src, dst) pair, indexed `src * n + dst`.
    pending: Vec<VecDeque<Frame>>,
    /// True while a pair has spilled frames (or is mid-drain): deposits
    /// on that pair must queue behind them to preserve FIFO, and only the
    /// flusher pushes that ring (keeping it single-producer).
    spilling: Vec<bool>,
    /// Total spilled frames across all pairs.
    live: usize,
    shutdown: bool,
}

/// Sender-side spill buffer making `deposit` non-blocking. The thread
/// transport's deposit never blocks (unbounded mailboxes), so protocols
/// may legally have every rank send before any rank receives; with
/// bounded mailbox rings that pattern would deadlock all senders on full
/// rings. Frames that don't fit are queued here and a dedicated flusher
/// thread retires them as the receiver drains ring space.
struct Outbox {
    state: Mutex<OutboxState>,
    cv: Condvar,
}

pub(crate) struct ShmTransport {
    seg: Arc<Segment>,
    /// Receiver-side unexpected-message queues, one per world rank. Only
    /// rank r's process (or thread) touches queue r — rings are pumped
    /// into it on that rank's receive path, so the queue itself never
    /// crosses a process boundary.
    local_mb: Vec<Mutex<RecvState>>,
    outbox: Arc<Outbox>,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ShmTransport {
    /// Create the fabric (segment creator: in-process worlds, and rank 0
    /// of a process world).
    pub fn create(n_ranks: usize) -> Arc<Self> {
        Arc::new(Self::over(Segment::create(n_ranks)))
    }

    /// Attach to an existing fabric (worker processes).
    pub fn attach(path: &str) -> Arc<Self> {
        Arc::new(Self::over(Segment::attach(path)))
    }

    fn over(seg: Arc<Segment>) -> Self {
        let n = seg.n_ranks();
        let outbox = Arc::new(Outbox {
            state: Mutex::new(OutboxState {
                pending: (0..n * n).map(|_| VecDeque::new()).collect(),
                spilling: vec![false; n * n],
                live: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let flusher = {
            let (seg, outbox) = (Arc::clone(&seg), Arc::clone(&outbox));
            std::thread::Builder::new()
                .name("mpisim-shm-flusher".into())
                .spawn(move || run_flusher(&seg, &outbox))
                .expect("spawn shm flusher thread")
        };
        Self {
            seg,
            local_mb: (0..n)
                .map(|_| {
                    Mutex::new(RecvState {
                        q: VecDeque::new(),
                        partial: (0..n).map(|_| None).collect(),
                    })
                })
                .collect(),
            outbox,
            flusher: Mutex::new(Some(flusher)),
        }
    }

    pub fn segment(&self) -> &Arc<Segment> {
        &self.seg
    }

    fn mailbox_ring(&self, src: usize, dst: usize) -> ShmChanRaw {
        ShmChanRaw::new(Arc::clone(&self.seg), self.seg.mailbox_ring_off(src, dst))
    }

    /// Deliver one mailbox frame on the (src, dst) ring without ever
    /// blocking: a direct `try_push` when the pair isn't spilling and the
    /// ring has room, otherwise a spill to the outbox for the flusher.
    /// Caller holds the outbox lock, which is what serializes the rank's
    /// deposit path against the flusher (each ring keeps one producer at
    /// a time; the `spilling` flag only transitions under this lock).
    fn send_frame(
        &self,
        st: &mut OutboxState,
        src: usize,
        dst: usize,
        arrival: f64,
        parts: &[&[u8]],
    ) {
        let idx = src * self.seg.n_ranks() + dst;
        if !st.spilling[idx] && self.mailbox_ring(src, dst).try_push(arrival, parts) {
            return;
        }
        st.spilling[idx] = true;
        let mut bytes = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for p in parts {
            bytes.extend_from_slice(p);
        }
        st.pending[idx].push_back(Frame { arrival, bytes });
        st.live += 1;
        self.outbox.cv.notify_one();
    }

    /// Drain every inbound mailbox ring of `dst` into its local unexpected
    /// queue (preserving per-source FIFO order, which is what MPI's
    /// non-overtaking rule requires), reassembling chunked envelopes.
    fn pump(&self, dst: usize, st: &mut RecvState) {
        for src in 0..self.seg.n_ranks() {
            let ring = self.mailbox_ring(src, dst);
            loop {
                let partial = &mut st.partial[src];
                let q = &mut st.q;
                let popped = ring.try_pop_with(|arrival, a, b| {
                    let done = match partial.take() {
                        // continuation frame: the whole frame is payload
                        Some((mut env, remaining)) => {
                            let bytes = &mut env.payload.bytes;
                            debug_assert!(a.len() + b.len() <= remaining);
                            bytes.extend_from_slice(a);
                            bytes.extend_from_slice(b);
                            (env, remaining - a.len() - b.len())
                        }
                        None => {
                            let mut raw = Vec::with_capacity(a.len() + b.len());
                            raw.extend_from_slice(a);
                            raw.extend_from_slice(b);
                            decode_envelope(arrival, &raw)
                        }
                    };
                    match done {
                        (env, 0) => q.push_back(env),
                        still_short => *partial = Some(still_short),
                    }
                });
                if popped.is_none() {
                    break;
                }
            }
        }
    }
}

/// Flusher loop: retire spilled outbox frames into their mailbox rings as
/// receivers free ring space. `try_push`-only, FIFO per pair; a pair's
/// `spilling` flag clears (returning it to the direct deposit path) only
/// once its queue drains, so frame order is preserved. When no frame fits
/// yet, polls with a short timed wait — simpler than parking one thread
/// on n² per-ring space futexes, and the deposit side still notifies it
/// immediately of fresh spills.
fn run_flusher(seg: &Arc<Segment>, outbox: &Outbox) {
    let n = seg.n_ranks();
    let mut st = outbox.state.lock();
    loop {
        while st.live == 0 && !st.shutdown {
            outbox.cv.wait(&mut st);
        }
        if st.shutdown {
            return;
        }
        let mut progressed = false;
        for idx in 0..n * n {
            if st.pending[idx].is_empty() {
                continue;
            }
            let ring = ShmChanRaw::new(Arc::clone(seg), seg.mailbox_ring_off(idx / n, idx % n));
            while let Some(f) = st.pending[idx].front() {
                if !ring.try_push(f.arrival, &[&f.bytes]) {
                    break;
                }
                st.pending[idx].pop_front();
                st.live -= 1;
                progressed = true;
            }
            if st.pending[idx].is_empty() {
                st.spilling[idx] = false;
            }
        }
        if !progressed && st.live > 0 {
            let _ = outbox
                .cv
                .wait_for(&mut st, std::time::Duration::from_micros(500));
        }
    }
}

impl Transport for ShmTransport {
    fn fabric(&self) -> &'static str {
        "shm"
    }

    fn deposit(&self, src_world: usize, dst_world: usize, env: Envelope) {
        let Payload { kind, bytes: data } = &env.payload;
        let hdr = encode_env_hdr(env.ctx_id, env.src, env.tag, *kind, data.len());
        // Payloads larger than a fraction of the ring stream through it in
        // chunks (the receiver reassembles; see `RecvState::partial`), so a
        // single plain send is never bounded by the ring capacity. Each
        // frame gets its own wake so an already-parked receiver starts
        // draining mid-message. Deposit itself NEVER blocks — frames that
        // don't fit spill to the outbox (see `Outbox`) — matching the
        // thread transport's unbounded buffered-send semantics: protocols
        // where every rank sends before any rank receives must not
        // deadlock on full rings.
        let first = data.len().min(MAX_CHUNK - ENV_HDR);
        let mut st = self.outbox.state.lock();
        self.send_frame(
            &mut st,
            src_world,
            dst_world,
            env.arrival,
            &[&hdr, &data[..first]],
        );
        let mut off = first;
        while off < data.len() {
            let end = (off + MAX_CHUNK).min(data.len());
            self.send_frame(&mut st, src_world, dst_world, 0.0, &[&data[off..end]]);
            off = end;
        }
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
            let mut st = self.local_mb[global_dst].lock();
            self.pump(global_dst, &mut st);
            let searched = st.q.len();
            let pos =
                st.q.iter()
                    .position(|e| e.ctx_id == ctx_id && e.src == src && e.tag == tag)?;
            Some((st.q.remove(pos).expect("position valid"), searched))
        };
        park_until(self.seg.park(global_dst), 0, take, stall)
    }

    fn probe(&self, global_dst: usize, ctx_id: u64, src: usize, tag: u64) -> bool {
        let mut st = self.local_mb[global_dst].lock();
        self.pump(global_dst, &mut st);
        st.q.iter()
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
        park_until(self.seg.park(global_rank), PARK_SPIN, scan, stall)
    }

    fn make_channel(
        &self,
        key: ChanKey,
        dst_world: usize,
        kind: u8,
        len_hint: usize,
    ) -> ChanFabric {
        let msg = 16 + (kind_bytes(kind) * len_hint.max(1)) as u64;
        let ring_bytes = (RING_DEPTH * msg).next_power_of_two().max(64 << 10);
        let (row, off) = self.seg.register_channel(key, dst_world, kind, ring_bytes);
        ChanFabric::Shm(ShmChanRaw::new(Arc::clone(&self.seg), off), row)
    }

    fn drain_in_flight(&self) {
        {
            let mut st = self.outbox.state.lock();
            st.pending.iter_mut().for_each(VecDeque::clear);
            st.spilling.iter_mut().for_each(|s| *s = false);
            st.live = 0;
        }
        let n = self.seg.n_ranks();
        for dst in 0..n {
            for src in 0..n {
                self.mailbox_ring(src, dst).drain();
            }
            let mut st = self.local_mb[dst].lock();
            st.q.clear();
            st.partial.iter_mut().for_each(|p| *p = None);
        }
        // persistent-channel rings are drained by the registry's typed
        // drain hooks (WorldState::drain_in_flight runs both passes)
    }

    fn note_rank_panic(&self, rank: Option<usize>) {
        match rank {
            Some(r) => self.seg.note_rank_death(r),
            None => self.seg.note_rank_panic(),
        }
    }

    fn clear_rank_panic(&self) {
        self.seg.clear_rank_panic();
    }

    fn dead_rank(&self) -> Option<usize> {
        self.seg.dead_rank()
    }

    fn peer_failure(&self) -> Option<String> {
        self.seg.peer_failure()
    }

    fn forensics(&self, report: &mut StallReport) {
        let n = self.seg.n_ranks();
        // try_lock only: forensics run from stall closures that may already
        // hold a mailbox lock; a contended depth reports as unknown rather
        // than deadlocking the dump.
        report.mailbox_depths = (0..n)
            .map(|dst| {
                self.local_mb[dst].try_lock().map(|st| {
                    let in_rings: usize = (0..n)
                        .map(|src| self.mailbox_ring(src, dst).msg_count())
                        .sum();
                    st.q.len() + in_rings
                })
            })
            .collect();
        report.outbox_depth = self.outbox.state.try_lock().map_or(0, |st| st.live);
        report.peers = (0..n)
            .filter_map(|r| {
                let pid = self
                    .seg
                    .pid_slot(r)
                    .load(std::sync::atomic::Ordering::SeqCst);
                (pid != 0).then(|| PeerStatus {
                    rank: r,
                    pid,
                    alive: segment::pid_alive(pid),
                })
            })
            .collect();
        report.park_counts = (0..n).map(|r| self.seg.park(r).counts()).collect();
        (report.registry.shm_rows, report.registry.shm_bytes) = self.seg.table_gauge();
    }
}

impl Drop for ShmTransport {
    fn drop(&mut self) {
        {
            let mut st = self.outbox.state.lock();
            st.shutdown = true;
            self.outbox.cv.notify_all();
        }
        if let Some(h) = self.flusher.lock().take() {
            let _ = h.join();
        }
    }
}
