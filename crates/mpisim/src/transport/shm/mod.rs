//! The cross-process shared-memory fabric.
//!
//! All cross-rank state lives in one `segment::Segment`: plain sends
//! travel over per-(src, dst) SPSC byte rings and are matched against a
//! receiver-local unexpected queue; persistent channels are byte rings
//! allocated through the segment's registration table (the pre-matched
//! handshake); a rank sleeps on one process-shared futex, its
//! `crate::transport::park::ParkWords` in the segment, with the
//! fabric-wide stall period (`MPISIM_STALL_MS`, see
//! `crate::stall::stall_ms`), so every blocked operation re-probes for
//! peer death (flag + pid sweep) and aborts loudly instead of deadlocking.
//!
//! The same transport serves both deployment shapes: rank threads of one
//! process ([`crate::Fabric::Shm`] under a [`crate::WorldConfig`] — the
//! fabric under test without process management) and ranks as separate
//! OS processes ([`crate::World::spawn`], through `control`).

pub(crate) mod control;
pub(crate) mod ring;
pub(crate) mod segment;

use super::park::ParkWords;
use super::wire::{decode_envelope, encode_env_hdr, ENV_HDR};
use super::{take_match, ChanFabric, Transport};
use crate::elem::kind_bytes;
use crate::stall::{PeerStatus, StallReport};
use crate::state::{ChanKey, Envelope, Payload};
use parking_lot::Mutex;
use ring::ShmChanRaw;
use segment::Segment;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
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

/// Per destination, the mailbox frames a rank's plain sends found no ring
/// room for, in send order: deposit never blocks, as on the thread fabric,
/// and the sender pushes its spill itself (`Transport::progress`).
type Spill = Vec<VecDeque<Vec<u8>>>;

pub(crate) struct ShmTransport {
    seg: Arc<Segment>,
    /// Receiver-side unexpected-message queues, one per world rank. Only
    /// rank r's process (or thread) touches queue r — rings are pumped
    /// into it on that rank's receive path, so the queue itself never
    /// crosses a process boundary.
    local_mb: Vec<Mutex<RecvState>>,
    /// Sender-side spill per world rank, used by its process alone; the
    /// lock keeps the rank its rings' one producer (a held deposit is
    /// pushed from another thread).
    spill: Vec<Mutex<Spill>>,
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
            spill: (0..n)
                .map(|_| Mutex::new(vec![VecDeque::new(); n]))
                .collect(),
        }
    }

    pub fn segment(&self) -> &Arc<Segment> {
        &self.seg
    }

    fn mailbox_ring(&self, src: usize, dst: usize) -> ShmChanRaw {
        ShmChanRaw::new(Arc::clone(&self.seg), self.seg.mailbox_ring_off(src, dst))
    }

    /// Deliver one mailbox frame on the (src, dst) ring without blocking,
    /// else spill it (the first names `src` as waiting: pops notify it).
    fn send_frame(&self, sp: &mut Spill, src: usize, dst: usize, parts: &[&[u8]]) {
        let ring = self.mailbox_ring(src, dst);
        if sp[dst].is_empty() {
            if ring.try_push(parts) {
                return;
            }
            ring.set_waiting(Some(src));
        }
        sp[dst].push_back(parts.concat());
    }

    /// Push `src`'s spill, FIFO per pair, as far as the rings have room;
    /// whether all is out.
    fn flush(&self, src: usize, sp: &mut Spill) -> bool {
        for (dst, q) in sp.iter_mut().enumerate().filter(|(_, q)| !q.is_empty()) {
            let ring = self.mailbox_ring(src, dst);
            while q.front().is_some_and(|f| ring.try_push(&[f])) {
                q.pop_front();
            }
            if q.is_empty() {
                ring.set_waiting(None);
            }
        }
        sp.iter().all(VecDeque::is_empty)
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
                let popped = ring.try_pop_with(|a, b| {
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
                            decode_envelope(&raw)
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
        // don't fit spill (see `Spill`) behind what the rank spilled
        // before — matching the thread transport's unbounded buffered-send
        // semantics: protocols where every rank sends before any rank
        // receives must not deadlock on full rings.
        let first = data.len().min(MAX_CHUNK - ENV_HDR);
        let mut sp = self.spill[src_world].lock();
        self.flush(src_world, &mut sp);
        self.send_frame(&mut sp, src_world, dst_world, &[&hdr, &data[..first]]);
        let mut off = first;
        while off < data.len() {
            let end = (off + MAX_CHUNK).min(data.len());
            self.send_frame(&mut sp, src_world, dst_world, &[&data[off..end]]);
            off = end;
        }
    }

    fn try_match(
        &self,
        global_dst: usize,
        ctx_id: u64,
        src: usize,
        tag: u64,
    ) -> Option<(Envelope, usize)> {
        let mut st = self.local_mb[global_dst].lock();
        self.pump(global_dst, &mut st);
        take_match(&mut st.q, ctx_id, src, tag)
    }

    fn park_point(&self, rank: usize) -> &ParkWords {
        self.seg.park(rank)
    }

    fn progress(&self, rank: usize) -> bool {
        self.flush(rank, &mut self.spill[rank].lock())
    }

    fn make_channel(
        &self,
        key: ChanKey,
        dst_world: usize,
        kind: u8,
        len_hint: usize,
    ) -> ChanFabric {
        let msg = ring::frame_bytes(kind_bytes(kind) * len_hint.max(1));
        let ring_bytes = (RING_DEPTH * msg).next_power_of_two().max(64 << 10);
        let (row, off) = self.seg.register_channel(key, dst_world, kind, ring_bytes);
        ChanFabric::Shm(ShmChanRaw::new(Arc::clone(&self.seg), off), row)
    }

    fn drain_in_flight(&self) {
        for sp in &self.spill {
            sp.lock().iter_mut().for_each(VecDeque::clear);
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
        let spilled = |sp: &Spill| sp.iter().map(VecDeque::len).sum::<usize>();
        let spill = self.spill.iter().filter_map(Mutex::try_lock);
        report.outbox_depth = spill.map(|sp| spilled(&sp)).sum();
        report.peers = (0..n)
            .filter_map(|r| {
                let pid = self.seg.pid_slot(r).load(Ordering::SeqCst);
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
