//! Shared world state: the matching engine and the registry of pre-matched
//! persistent channels, expressed against a `Transport` fabric.
//!
//! `WorldState` owns the *semantics* — signature matching, the channel
//! registry, the mixed plain/persistent-traffic diagnostics, failed-epoch
//! draining — and delegates the *mechanics* of moving bytes (mailboxes,
//! channel storage, parking/wakeups, death detection) to an
//! `Arc<dyn Transport>`, which also owns the storage types: the
//! in-process ones live in `crate::transport::thread`, the shm rings in
//! [`crate::transport::shm`], the socket channel in
//! [`crate::transport::sock`].

use crate::elem::{kind_name, Elem};
use crate::stall::{RankWait, RegistryGauge, StallReport};
use crate::transport::park::park_until;
use crate::transport::shm::ring::{Room, ShmChan};
use crate::transport::sock::chan::SockChan;
use crate::transport::thread::ThreadChan;
use crate::transport::{
    bytes_of, vec_extend_bytes, ChanFabric, FaultOp, ShmChanRaw, Transport, PARK_SPIN,
};
use locality::Topology;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use perfmodel::CostModel;
use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A plain-send payload, in the one form every fabric moves: the element
/// type's [`Elem::KIND`] and the elements' bytes. The byte fabrics put both
/// on the wire as they are ([`crate::transport::wire`]).
pub(crate) struct Payload {
    pub kind: u8,
    pub bytes: Vec<u8>,
}

impl Payload {
    /// Package `data` (copies its bytes, at the send boundary).
    pub fn of<T: Elem>(data: &[T]) -> Self {
        Payload {
            kind: T::KIND,
            bytes: bytes_of(data).to_vec(),
        }
    }

    /// Recover the typed payload; `Err(sent_kind)` when the receiver's
    /// element type does not match the sender's.
    pub fn take<T: Elem>(self) -> Result<Vec<T>, u8> {
        if self.kind != T::KIND {
            return Err(self.kind);
        }
        let mut out = Vec::new();
        vec_extend_bytes(&mut out, &self.bytes, &[]);
        Ok(out)
    }
}

/// A message in flight.
pub(crate) struct Envelope {
    /// Communicator context the message belongs to.
    pub ctx_id: u64,
    /// Source rank *within that communicator*.
    pub src: usize,
    pub tag: u64,
    /// Modeled arrival time at the destination: thread fabric only, the
    /// one a cost model runs on ([`crate::World::pool_modeled`]). 0 when
    /// unmodeled, and on the byte fabrics, whose wires carry no stamp.
    pub arrival: f64,
    pub payload: Payload,
}

/// Modeled-time configuration shared by all ranks.
pub(crate) struct ModelCtx {
    pub model: Arc<dyn CostModel>,
    pub topo: Topology,
}

/// Signature of a pre-matched persistent channel:
/// `(context id, src comm rank, dst comm rank, tag)`.
pub(crate) type ChanKey = (u64, usize, usize, u64);

/// One communicator context's registered channels, by the rest of their
/// signature: `(src comm rank, dst comm rank, tag)`.
type CtxChans = HashMap<(usize, usize, u64), ChanSlot, BuildHasherDefault<WordHasher>>;

/// The registry: context first, so that freeing a communicator
/// ([`WorldState::free_context`]) is one removal under the exclusive
/// guard.
type Registry = HashMap<u64, CtxChans, BuildHasherDefault<WordHasher>>;

/// The registry's hasher: one multiply-rotate per key word. A warm
/// registration is two lookups (context, then signature) per signature;
/// with SipHash, when they ran under a world-wide mutex, the second one
/// showed in `init_ms` (+12 % on `halo_small_16r`). The keys — context
/// ids, ranks, tags — are the program's own, never input.
#[derive(Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.write_u64(*b as u64);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Registry slot: the registry's own handle to a channel, by what it needs
/// of one without knowing the element type.
type ChanSlot = Arc<dyn AnyChan>;

/// A [`Channel<T>`] with `T` erased: the element type's kind (for mismatch
/// diagnostics), the pending-message probe — so the plain mailbox path
/// can detect mixed traffic —, the drain — so the registry can discard
/// undelivered payloads after a panicked pool epoch —, and the way back to
/// the typed channel.
trait AnyChan: Send + Sync {
    fn kind(&self) -> u8;
    fn pending_len(&self) -> usize;
    fn drain_pending(&self);
    fn into_any(self: Arc<Self>) -> Arc<dyn Any + Send + Sync>;
}

impl<T: Elem> AnyChan for Channel<T> {
    fn kind(&self) -> u8 {
        T::KIND
    }

    fn pending_len(&self) -> usize {
        Channel::pending_len(self)
    }

    fn drain_pending(&self) {
        Channel::drain_pending(self)
    }

    fn into_any(self: Arc<Self>) -> Arc<dyn Any + Send + Sync> {
        self
    }
}

/// Type-erased handle to one persistent channel, for completion-driven
/// receives over a **set** of channels ([`crate::RankCtx::poll_any`] /
/// [`crate::RankCtx::wait_any`]). Cloneable and independent of the
/// channel's element type, so one wait set can mix channels of different
/// datatypes (e.g. every receive of a whole collective batch).
///
/// Obtain one from the receive half that owns the channel
/// ([`crate::RecvChan::chan_id`]).
#[derive(Clone)]
pub struct ChanId {
    /// The channel's signature, for blocked-receive diagnostics (the
    /// mixed plain/persistent-traffic probe).
    pub(crate) key: ChanKey,
    imp: ChanIdImp,
}

#[derive(Clone)]
enum ChanIdImp {
    /// Thread (and sock) fabric: the channel's lock-free pending counter.
    Thread(Arc<AtomicUsize>),
    /// Shm fabric: the ring itself, whose message count is the
    /// cross-process counterpart.
    Shm(ShmChanRaw),
}

impl ChanId {
    /// Would a non-blocking pop on this channel succeed right now?
    pub fn ready(&self) -> bool {
        match &self.imp {
            ChanIdImp::Thread(pending) => pending.load(Ordering::Relaxed) > 0,
            ChanIdImp::Shm(raw) => raw.msg_count() > 0,
        }
    }
}

/// A pre-matched persistent channel: the rendezvous a `send_chan_init` /
/// `recv_chan_init` pair shares, created once at registration time.
///
/// Every iteration's `start`/`wait` goes straight through this slot
/// instead of packaging a fresh payload and linearly scanning
/// the destination's mutexed mailbox. Payload buffers are recycled, so the
/// steady-state iteration allocates nothing. FIFO delivery preserves
/// buffered-send semantics (a sender may run several iterations ahead) and
/// MPI's non-overtaking order for equal signatures.
///
/// The storage is the world's transport's business: a mutexed
/// in-process queue ([`ThreadChan`]), an SPSC byte ring inside the shared
/// segment ([`ShmChan`]), or a socket route into a peer's in-process queue
/// ([`SockChan`]). The API is identical either way, and small: a push
/// ([`Channel::push_with`]), a take ([`Channel::try_pop`]) and a readiness
/// count ([`ChanId::ready`]); a receiver that must block parks in
/// [`WorldState::wait_any`] between takes. Only the thread body carries
/// the modeled arrival stamp: a model implies the thread fabric, so the
/// byte bodies pop 0.0.
pub(crate) struct Channel<T> {
    key: ChanKey,
    imp: ChanImp<T>,
}

enum ChanImp<T> {
    Thread(ThreadChan<T>),
    Shm(ShmChan<T>),
    Sock(SockChan<T>),
}

impl<T: Elem> Channel<T> {
    /// The channel for `key` over the storage its fabric chose; `len`, the
    /// registered length, sizes its new payload buffers.
    fn new(key: ChanKey, fabric: ChanFabric, len: usize) -> Self {
        let imp = match fabric {
            ChanFabric::Local(park) => ChanImp::Thread(ThreadChan::new(park, len)),
            ChanFabric::Shm(raw, row) => ChanImp::Shm(ShmChan::new(raw, row, len)),
            ChanFabric::Sock(wire) => ChanImp::Sock(SockChan::new(key, wire, len)),
        };
        Self { key, imp }
    }

    /// Type-erased handle for set-polling this channel (see [`ChanId`]).
    pub fn id(&self) -> ChanId {
        let imp = match &self.imp {
            ChanImp::Thread(c) => ChanIdImp::Thread(Arc::clone(c.pending())),
            ChanImp::Shm(c) => ChanIdImp::Shm(c.raw().clone()),
            // the sock receive queue is an in-process ThreadChan
            ChanImp::Sock(c) => ChanIdImp::Thread(Arc::clone(c.local.pending())),
        };
        ChanId { key: self.key, imp }
    }

    /// Deposit one message (buffered semantics: a sender may run many
    /// iterations ahead; the shm ring bounds that depth by its capacity).
    #[cfg(test)]
    pub fn push(&self, data: &[T], arrival: f64) {
        let full: Room = &|_, _| panic!("a test channel filled up");
        self.push_with(arrival, |buf| buf.extend_from_slice(data), full);
    }

    /// Deposit one message by filling the channel's recycled payload buffer
    /// directly — the zero-copy send path. `fill` receives a cleared spare
    /// buffer and writes the payload into it, so senders gather values
    /// straight into the wire buffer instead of staging them in their own
    /// window first. `fill` may run under the channel's lock: it must not
    /// touch a channel itself. `arrival` is dropped off the thread fabric.
    /// A full shm ring parks the sender in `room` ([`WorldState::wait_room`]).
    pub fn push_with(&self, arrival: f64, fill: impl FnOnce(&mut Vec<T>), room: Room<'_>) {
        match &self.imp {
            ChanImp::Thread(c) => c.push_with(arrival, fill),
            ChanImp::Shm(c) => c.push_with(fill, room),
            ChanImp::Sock(c) => c.push_with(fill),
        }
    }

    /// Take the next message off the queue, with its modeled arrival
    /// stamp, if one has been delivered; `None` otherwise. Never blocks.
    ///
    /// Hands the payload buffer out instead of copying into a
    /// caller-provided slice: copy after popping, then put the buffer in
    /// `back`, the receiver's own list of consumed payloads, which the next
    /// take that finds a message hands back to the channel inside its own
    /// lock acquisition — a message costs the receiver one acquisition, not
    /// a second one to recycle.
    pub fn try_pop(&self, back: &mut Vec<Vec<T>>) -> Option<(Vec<T>, f64)> {
        match &self.imp {
            ChanImp::Thread(c) => c.try_pop(back),
            ChanImp::Shm(c) => Some((c.try_pop(back)?, 0.0)),
            ChanImp::Sock(c) => c.local.try_pop(back),
        }
    }

    /// Discard every undelivered payload (buffers go back to the spare
    /// pool). Used to reset a warm world after a panicked epoch.
    pub fn drain_pending(&self) {
        match &self.imp {
            ChanImp::Thread(c) => c.drain_pending(),
            ChanImp::Shm(c) => c.drain_pending(),
            ChanImp::Sock(c) => c.local.drain_pending(),
        }
    }

    /// Would [`Channel::try_pop`] yield a message? (Receive paths just try;
    /// set polls go through [`ChanId::ready`].)
    #[cfg(test)]
    pub fn ready(&self) -> bool {
        self.pending_len() > 0
    }

    /// Delivered-but-unconsumed message count — also the untyped
    /// mixed-traffic probe ([`WorldState::channel_pending`]).
    fn pending_len(&self) -> usize {
        match &self.imp {
            ChanImp::Thread(c) => c.pending().load(Ordering::Relaxed),
            ChanImp::Shm(c) => c.raw().msg_count(),
            ChanImp::Sock(c) => c.local.pending().load(Ordering::Relaxed),
        }
    }

    /// Signature of this channel, for receive-side diagnostics.
    pub fn key(&self) -> ChanKey {
        self.key
    }
}

/// One pass over the world's persistent-channel registry: every signature
/// resolved through it shares one guard, so registering a whole
/// collective — or a whole batch of collectives
/// ([`mpi-advance`'s `NeighborBatch`]) — is a single pass over the
/// registry instead of one lock round trip per message.
///
/// A pass starts under the registry's **shared** guard and attaches every
/// signature it finds there, so warm passes — a re-init over a pooled
/// world, where every channel is already registered — run side by side on
/// every rank. At its first miss it drops the shared guard and finishes
/// under the **exclusive** one, where each signature is created or
/// attached as one map entry: the race between two ranks creating one
/// channel, and a cold pass, behave as under a plain mutex.
///
/// Obtain one with [`crate::RankCtx::chan_registrar`]; the registration
/// methods (`send_chan_init`, `recv_chan_init`) mirror
/// the [`crate::RankCtx`] ones. Registration never blocks on traffic, so
/// holding the guard across a batch is deadlock-free — but do not
/// call `start`/`wait` (or any `RankCtx` registration method, which takes
/// the same lock) while a registrar is alive: a pass that holds the shared
/// guard and asks for the exclusive one deadlocks, just as a second
/// acquisition of a mutex would.
pub struct ChanRegistrar<'a> {
    registry: &'a RwLock<Registry>,
    /// The shared guard of a pass that has found every signature so far;
    /// `None` from its first miss on.
    shared: Option<RwLockReadGuard<'a, Registry>>,
    /// The exclusive guard the pass finishes under after a miss.
    exclusive: Option<RwLockWriteGuard<'a, Registry>>,
    transport: &'a Arc<dyn Transport>,
}

impl ChanRegistrar<'_> {
    /// Get-or-create the persistent channel for `key` in this pass.
    /// `len_hint` is the registered per-message element count, which sizes
    /// the channel's wire buffers on fabrics that must allocate them up
    /// front (the shm rings); 0 falls back to the fabric minimum.
    /// `dst_world` is the receiving rank's world rank — the routing
    /// coordinate fabrics with per-peer wires (the sock links) key on.
    pub(crate) fn channel_sized<T: Elem>(
        &mut self,
        key: ChanKey,
        dst_world: usize,
        len_hint: usize,
    ) -> Arc<Channel<T>> {
        if let Some(map) = &self.shared {
            let (ctx_id, src, dst, tag) = key;
            if let Some(slot) = map.get(&ctx_id).and_then(|c| c.get(&(src, dst, tag))) {
                return typed(slot, key);
            }
            // released before the exclusive guard is asked for: a thread
            // holding both would wait on itself
            self.shared = None;
        }
        let map = self.exclusive.get_or_insert_with(|| self.registry.write());
        WorldState::channel_in(map, self.transport, key, dst_world, len_hint)
    }
}

/// The typed channel behind a registry slot; a slot registered with
/// another element type is a loud panic.
fn typed<T: Elem>(slot: &ChanSlot, key: ChanKey) -> Arc<Channel<T>> {
    let registered = kind_name(slot.kind());
    Arc::downcast::<Channel<T>>(Arc::clone(slot).into_any()).unwrap_or_else(|_| {
        panic!(
            "persistent channel {key:?} datatype mismatch: registered {registered}, \
             requested {}",
            kind_name(T::KIND)
        )
    })
}

/// State shared by every rank of a world.
pub(crate) struct WorldState {
    pub n_ranks: usize,
    pub model: Option<ModelCtx>,
    /// The fabric this world moves bytes over.
    transport: Arc<dyn Transport>,
    /// Pre-matched persistent channels, keyed by context, then by the rest
    /// of the signature. A context's entries live until one of its members
    /// frees the communicator ([`WorldState::free_context`], the
    /// `MPI_Comm_free` counterpart) — the world communicator's for as long
    /// as the world. A pooled world ([`crate::WorldPool`]) keeps its
    /// `WorldState` across epochs, so re-registering a signature of a live
    /// context re-attaches to the (drained) channel — re-init on a warm
    /// world is a lookup, not a rendezvous. The registry holds one handle
    /// to each channel and the endpoints hold theirs: what the fabric keeps
    /// per channel (heap queues, a shm table row and its ring, a sock
    /// deliver hook) goes back when the last handle drops. Registration
    /// passes ([`ChanRegistrar`]) and the readers below share it; creating
    /// a channel and freeing a context take it exclusively.
    channels: RwLock<Registry>,
    /// Per-rank scan rotor for [`WorldState::poll_any`] /
    /// [`WorldState::wait_any`]: each call starts its readiness scan one
    /// position further, so a permanently-hot low-index channel cannot
    /// starve the rest of the set.
    rotors: Vec<AtomicUsize>,
    /// What each locally-hosted rank is currently blocked on, registered
    /// lazily by [`WaitGuard`] once a wait survives its first stall probe.
    /// The raw material of [`WorldState::stall_report`].
    parked: Vec<Mutex<Option<ParkInfo>>>,
    /// Epoch counter mirrored from the pool / proc-world driver, so stall
    /// reports can say *which* epoch wedged (a one-shot world runs one
    /// pool epoch, so it reports 1).
    epoch: AtomicU64,
    /// Hard bound on any single blocked wait, in milliseconds
    /// (`MPISIM_DEADLINE_MS`, or a [`crate::FaultPlan::deadline_ms`]
    /// override). `None` = block indefinitely.
    deadline_ms: Option<u64>,
    /// Which locally-hosted ranks have absorbed the current epoch's
    /// rank-death marker ([`crate::RankCtx::absorb_rank_failure`]).
    /// Absorption is **per rank**: the transport flag itself stays
    /// raised until the next epoch, so a rank that absorbs a tenant's
    /// death cannot steal the abort from a peer still blocked inside a
    /// synchronous wait on the dead tenant's traffic.
    absorbed_failure: Vec<AtomicBool>,
}

/// One registered blocked wait (see [`WorldState::parked`]).
struct ParkInfo {
    kind: &'static str,
    chans: Vec<ChanKey>,
    since: Instant,
}

/// What a [`WaitGuard`] is parked on — borrowed from the caller so guard
/// creation allocates nothing; signatures are materialized only if the
/// wait actually stalls.
#[derive(Clone, Copy)]
pub(crate) enum WaitChans<'a> {
    Keys(&'a [ChanKey]),
    Ids(&'a [ChanId]),
}

impl WaitChans<'_> {
    fn keys(&self) -> impl Iterator<Item = ChanKey> + '_ {
        let (keys, ids): (&[ChanKey], &[ChanId]) = match *self {
            WaitChans::Keys(keys) => (keys, &[]),
            WaitChans::Ids(ids) => (&[], ids),
        };
        keys.iter().copied().chain(ids.iter().map(|c| c.key))
    }
}

/// Deadline + forensics guard around one blocked wait. Created at wait
/// entry, ticked from the wait's stall probe, cleared on drop.
///
/// `tick` upgrades the stall probe from a liveness hack into a deadlock
/// detector: on peer death it aborts with the failure message *plus* a
/// [`StallReport`]; past the world's deadline it aborts with the report
/// instead of blocking forever.
pub(crate) struct WaitGuard<'a> {
    world: &'a WorldState,
    rank: usize,
    kind: &'static str,
    chans: WaitChans<'a>,
    start: Instant,
    registered: Cell<bool>,
}

impl WaitGuard<'_> {
    /// Stall-probe body: register the parked wait (first tick only), then
    /// abort loudly on peer death or deadline expiry.
    pub(crate) fn tick(&self) {
        if !self.registered.get() {
            *self.world.parked[self.rank].lock() = Some(ParkInfo {
                kind: self.kind,
                chans: self.chans.keys().collect(),
                since: self.start,
            });
            self.registered.set(true);
        }
        // a rank that absorbed the epoch's death marker (service-layer
        // tenant recovery) keeps waiting — its scheduler already knows;
        // everyone else aborts loudly
        if !self.world.absorbed_failure[self.rank].load(Ordering::Acquire) {
            if let Some(msg) = self.world.transport.peer_failure() {
                panic!("{msg}\n{}", self.world.stall_report());
            }
        }
        if let Some(ms) = self.world.deadline_ms {
            let waited = self.start.elapsed().as_millis() as u64;
            if waited >= ms {
                panic!(
                    "wait deadline of {ms} ms (MPISIM_DEADLINE_MS) expired after \
                     {waited} ms blocked in {} on rank {}\n{}",
                    self.kind,
                    self.rank,
                    self.world.stall_report()
                );
            }
        }
    }
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        if self.registered.get() {
            *self.world.parked[self.rank].lock() = None;
        }
    }
}

impl WorldState {
    /// Test-only convenience: a thread-fabric world with no wait deadline.
    #[cfg(test)]
    pub fn new(n_ranks: usize, model: Option<ModelCtx>) -> Arc<Self> {
        let transport: Arc<dyn Transport> =
            Arc::new(crate::transport::thread::ThreadTransport::new(n_ranks));
        Self::with_transport_deadline(n_ranks, model, transport, None)
    }

    /// Build a world over an explicit fabric with an explicit wait
    /// deadline (`None` = never). Callers resolve the deadline themselves
    /// (plan override, then `MPISIM_DEADLINE_MS`) — the programmatic
    /// fault-injection entry point ([`crate::WorldConfig::faults`]) must
    /// not mutate the process environment.
    pub fn with_transport_deadline(
        n_ranks: usize,
        model: Option<ModelCtx>,
        transport: Arc<dyn Transport>,
        deadline_ms: Option<u64>,
    ) -> Arc<Self> {
        assert!(n_ranks > 0);
        if let Some(m) = &model {
            assert_eq!(
                m.topo.n_ranks(),
                n_ranks,
                "topology rank count must match world size"
            );
        }
        Arc::new(Self {
            n_ranks,
            model,
            transport,
            channels: RwLock::new(Registry::default()),
            rotors: (0..n_ranks).map(|_| AtomicUsize::new(0)).collect(),
            parked: (0..n_ranks).map(|_| Mutex::new(None)).collect(),
            epoch: AtomicU64::new(0),
            deadline_ms,
            absorbed_failure: (0..n_ranks).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// Open a deadline/forensics guard around one blocked wait. The stall
    /// probe of the wait must call [`WaitGuard::tick`].
    pub(crate) fn begin_wait<'a>(
        &'a self,
        rank: usize,
        kind: &'static str,
        chans: WaitChans<'a>,
    ) -> WaitGuard<'a> {
        WaitGuard {
            world: self,
            rank,
            kind,
            chans,
            start: Instant::now(),
            registered: Cell::new(false),
        }
    }

    /// Assemble the forensic dump of the current (apparent) stall: every
    /// locally-registered parked wait, transport queue depths, peer pid
    /// liveness, the epoch id, and the recorded dead rank (if any).
    pub fn stall_report(&self) -> StallReport {
        let waits = self
            .parked
            .iter()
            .enumerate()
            .filter_map(|(rank, slot)| {
                slot.try_lock().and_then(|info| {
                    info.as_ref().map(|p| RankWait {
                        rank,
                        kind: p.kind,
                        chans: p.chans.clone(),
                        waited_ms: p.since.elapsed().as_millis() as u64,
                    })
                })
            })
            .collect();
        let mut report = StallReport {
            epoch: self.epoch.load(Ordering::Relaxed),
            dead_rank: self.transport.dead_rank(),
            waits,
            fabric: self.transport.fabric(),
            mailbox_depths: Vec::new(),
            park_counts: Vec::new(),
            outbox_depth: 0,
            peers: Vec::new(),
            links: Vec::new(),
            registry: RegistryGauge {
                // never held across a wait, so a short block is all
                // this can cost (`match_recv`'s probe reads it too)
                channels: self.channels.read().values().map(CtxChans::len).sum(),
                ..RegistryGauge::default()
            },
        };
        self.transport.forensics(&mut report);
        report
    }

    /// Mirror the driver's epoch counter into stall forensics.
    pub(crate) fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
    }

    /// Why a blocked wait should give up: a rank died or a link is gone.
    pub(crate) fn peer_failure(&self) -> Option<String> {
        self.transport.peer_failure()
    }

    /// Fault-injection hook for ops that bypass the transport trait
    /// (persistent-channel push/pop) — a no-op on bare fabrics.
    pub(crate) fn inject(&self, rank: usize, op: FaultOp) {
        self.transport.inject(rank, op);
    }

    /// Which fabric this world moves bytes over (`"thread"` / `"shm"` /
    /// `"sock"`). Stable across the world's lifetime — cache keys built
    /// from it stay valid for every epoch of a pooled world.
    pub(crate) fn fabric(&self) -> &'static str {
        self.transport.fabric()
    }

    /// Readiness scan over a channel set starting at `start` (wrapping):
    /// index of the first channel holding a delivered, unconsumed message,
    /// else `None`. The rotated entry point transports poll with.
    pub(crate) fn poll_any_from(chans: &[ChanId], start: usize) -> Option<usize> {
        let n = chans.len();
        (0..n).map(|i| (start + i) % n).find(|&i| chans[i].ready())
    }

    /// Non-blocking arrival poll over a channel set for `global_rank`:
    /// index of a channel holding a delivered, unconsumed message, else
    /// `None`. The scan origin rotates per call (see
    /// [`WorldState::poll_any_from`]), so repeated polls over a set with
    /// several hot channels visit all of them instead of always reporting
    /// the lowest ready index.
    pub(crate) fn poll_any(&self, global_rank: usize, chans: &[ChanId]) -> Option<usize> {
        if chans.is_empty() {
            return None;
        }
        let start = self.rotors[global_rank].fetch_add(1, Ordering::Relaxed) % chans.len();
        Self::poll_any_from(chans, start)
    }

    /// Block `global_rank`, on its park point, until **some** channel of
    /// the set has a message, returning its index — woken by whichever
    /// deposit lands first, so completion follows delivery order instead
    /// of channel order. Every blocking persistent receive parks here
    /// (`RecvChan::wait_take` on a set of one), spinning [`PARK_SPIN`]
    /// turns first. The park runs under a deadline/forensics guard, and
    /// its stall probe keeps peer death and the mixed plain/persistent
    /// misuse loud: a plain send aimed at a persistent signature lands in
    /// the mailbox these channels bypass, and would otherwise hang the
    /// blocked rank silently. ([`WorldState::match_recv`] is the reverse
    /// direction.)
    pub(crate) fn wait_any(&self, global_rank: usize, chans: &[ChanId]) -> usize {
        assert!(!chans.is_empty(), "wait_any on an empty channel set");
        let start = self.rotors[global_rank].fetch_add(1, Ordering::Relaxed) % chans.len();
        let guard = self.begin_wait(global_rank, "wait_any", WaitChans::Ids(chans));
        let stall = || {
            guard.tick();
            for &ChanId { key, .. } in chans {
                let (ctx_id, src, _, tag) = key;
                // a hit panics, so the envelope it takes fails with its epoch
                assert!(
                    self.transport
                        .try_match(global_rank, ctx_id, src, tag)
                        .is_none(),
                    "wait_any blocked on channel {key:?}, from {src} tag {tag}: matching \
                     message sits in the plain mailbox — mixing a plain send with a \
                     persistent receive on one signature is unsupported (use \
                     send_chan_init on the sender)"
                );
            }
        };
        let scan = || Self::poll_any_from(chans, start);
        self.park(global_rank, PARK_SPIN, scan, &stall)
    }

    /// Every rank wait: `spin` run-queue turns on `ready`, then park until
    /// it yields, pushing the rank's queued sends ([`Transport::progress`])
    /// at every check from there on — only then, so a spinning rank pays
    /// nothing for a fabric that never queues.
    ///
    /// Channel waits spin [`PARK_SPIN`] turns. Plain receives — what
    /// barrier and allreduce are made of — spin none: a rank spinning in a
    /// barrier takes the CPU from the ranks that have not reached it yet,
    /// and when those are still registering (a re-init loop closing on a
    /// barrier) registration pays for it. Measured with warm registration
    /// passes running side by side and plain receives at `PARK_SPIN`, 3
    /// alternating runs a side on a 2-core box, `init_ms` rose on every
    /// thread-fabric workload that times it: `halo_bulk_16r` 0.0137 →
    /// 0.0185 ms, `amg_batch_16r` 0.0729 → 0.1217, `halo_small_16r` 0.0173
    /// → 0.0292.
    fn park<R>(
        &self,
        rank: usize,
        spin: u32,
        ready: impl Fn() -> Option<R>,
        stall: &dyn Fn(),
    ) -> R {
        let point = self.transport.enter_wait(rank);
        for _ in 0..spin {
            if let Some(r) = ready() {
                return r;
            }
            std::thread::yield_now();
        }
        let ready = || {
            self.progress(rank);
            ready()
        };
        park_until(point, ready, stall)
    }

    /// [`Transport::progress`]: `true` once `rank` has nothing queued.
    pub(crate) fn progress(&self, rank: usize) -> bool {
        self.transport.progress(rank)
    }

    /// A returned rank's epoch-end wait: push its queued sends until none
    /// is left or `released` (all ranks returned: [`WorldState::wake_ranks`]).
    pub(crate) fn drain_outbound(&self, rank: usize, released: &dyn Fn() -> bool) {
        let done = || (self.progress(rank) || released()).then_some(());
        self.park(rank, 0, done, &|| {});
    }

    /// Park `rank` until `push` goes in, named as waiting on the full shm
    /// ring `raw`, so every pop notifies it.
    pub(crate) fn wait_room(&self, rank: usize, raw: &ShmChanRaw, push: &dyn Fn() -> bool) {
        raw.set_waiting(Some(rank));
        let guard = self.begin_wait(rank, "full shm ring", WaitChans::Keys(&[]));
        self.park(rank, 0, || push().then_some(()), &|| guard.tick());
        raw.set_waiting(None);
    }

    /// Notify every rank's park point, as a deposit would.
    pub(crate) fn wake_ranks(&self) {
        (0..self.n_ranks).for_each(|r| self.transport.park_point(r).notify());
    }

    /// Record that a rank of the current epoch panicked (pool worker).
    /// `Some(rank)` names the victim for stall forensics.
    pub(crate) fn note_rank_panic(&self, rank: Option<usize>) {
        self.transport.note_rank_panic(rank);
    }

    /// Clear the panic marker (and every rank's absorbed-it marker) at
    /// the start of a fresh epoch.
    pub(crate) fn clear_rank_panic(&self) {
        self.transport.clear_rank_panic();
        for a in &self.absorbed_failure {
            a.store(false, Ordering::Release);
        }
    }

    /// Absorb the current rank-death marker **for `rank` only**,
    /// returning the failure message the first time this rank absorbs
    /// it (see [`crate::RankCtx::absorb_rank_failure`]). The transport
    /// flag is left raised — clearing it here would race peers still
    /// blocked in synchronous waits on the dead tenant's traffic, whose
    /// only way out is the abort that flag drives.
    pub(crate) fn absorb_rank_failure(&self, rank: usize) -> Option<String> {
        let msg = self.transport.peer_failure()?;
        if self.absorbed_failure[rank].swap(true, Ordering::AcqRel) {
            return None; // this rank already absorbed the epoch's failure
        }
        Some(msg)
    }

    /// Get-or-create the persistent channel for `key` — whichever side
    /// registers first creates it; the other side attaches to the same
    /// slot, completing the match once at init time.
    #[cfg(test)]
    pub fn channel<T: Elem>(&self, key: ChanKey) -> Arc<Channel<T>> {
        Self::channel_in(&mut self.channels.write(), &self.transport, key, key.2, 0)
    }

    /// Get-or-create under an already-held exclusive guard — where a
    /// registration pass ([`ChanRegistrar`]) resolves its signatures from
    /// its first miss on. The transport decides where the channel's wire
    /// buffers live (process heap vs. shared segment).
    fn channel_in<T: Elem>(
        map: &mut Registry,
        transport: &Arc<dyn Transport>,
        key: ChanKey,
        dst_world: usize,
        len_hint: usize,
    ) -> Arc<Channel<T>> {
        let (ctx_id, src, dst, tag) = key;
        let slot = map
            .entry(ctx_id)
            .or_default()
            .entry((src, dst, tag))
            .or_insert_with(|| {
                let fabric = transport.make_channel(key, dst_world, T::KIND, len_hint);
                Arc::new(Channel::<T>::new(key, fabric, len_hint))
            });
        typed(slot, key)
    }

    /// Open the channel registry for a bulk registration pass, under its
    /// shared guard.
    pub(crate) fn chan_registrar(&self) -> ChanRegistrar<'_> {
        ChanRegistrar {
            registry: &self.channels,
            shared: Some(self.channels.read()),
            exclusive: None,
            transport: &self.transport,
        }
    }

    /// Discard all in-flight traffic: every transport-held envelope
    /// (mailbox queues / shm mailbox rings) and every undelivered
    /// persistent-channel payload, via the per-channel drain hooks —
    /// so the failed-epoch guarantee holds identically on every fabric.
    /// Registrations (the channel registry itself) survive. A pooled world
    /// calls this after a panicked epoch so stale messages cannot leak
    /// into the next one.
    pub fn drain_in_flight(&self) {
        self.transport.drain_in_flight();
        for slot in self.channels.read().values().flat_map(CtxChans::values) {
            slot.drain_pending();
        }
    }

    /// Free communicator context `ctx_id`: forget every channel registered
    /// on it and whatever the fabric holds for it outside a channel. The
    /// caller's contract (see [`crate::RankCtx::comm_free`]): every member
    /// has registered what it will register on this context. Handles
    /// obtained before keep delivering — they own their channel — and a
    /// second call finds nothing to do. One removal under the registry's
    /// exclusive guard; the slots drop after it is released.
    pub(crate) fn free_context(&self, ctx_id: u64) {
        let freed = self.channels.write().remove(&ctx_id);
        self.transport.release_context(ctx_id);
        drop(freed);
    }

    /// Does the persistent channel for `key` exist with messages pending?
    /// Untyped — used by the plain receive path to diagnose mixed traffic.
    pub fn channel_pending(&self, key: &ChanKey) -> bool {
        let (ctx_id, src, dst, tag) = *key;
        self.channels
            .read()
            .get(&ctx_id)
            .and_then(|chans| chans.get(&(src, dst, tag)))
            .is_some_and(|slot| slot.pending_len() > 0)
    }

    /// Deposit an envelope in `global_dst`'s mailbox and wake any waiter.
    /// `src_world` identifies the producing rank (the shm fabric routes
    /// each (src, dst) pair over its own single-producer ring).
    pub fn deposit(&self, src_world: usize, global_dst: usize, env: Envelope) {
        self.transport.deposit(src_world, global_dst, env);
    }

    /// Blocking matched receive for `global_dst`: first envelope with the
    /// given (ctx, src, tag). Returns the envelope and the queue length that
    /// was searched (for queue-cost charging). Counts one
    /// [`FaultOp::MatchRecv`], then parks on the rank's park point with no
    /// spin (see [`park_until`]) between tries. `dst_comm_rank` is the
    /// receiver's rank within the communicator — the channel-signature
    /// coordinate used to diagnose a persistent send aimed at this plain
    /// receive (which would otherwise hang silently: persistent sends
    /// bypass the mailbox).
    pub fn match_recv(
        &self,
        global_dst: usize,
        ctx_id: u64,
        src: usize,
        dst_comm_rank: usize,
        tag: u64,
    ) -> (Envelope, usize) {
        // program-ordered fault-injection point: one op per plain receive
        self.inject(global_dst, FaultOp::MatchRecv);
        let chan_key: ChanKey = (ctx_id, src, dst_comm_rank, tag);
        let keys = [chan_key];
        let guard = self.begin_wait(global_dst, "plain recv", WaitChans::Keys(&keys));
        let stall = || {
            guard.tick();
            assert!(
                !self.channel_pending(&chan_key),
                "plain recv from {src} tag {tag}: matching message sits on a \
                 persistent channel — mixing a persistent send with a plain \
                 recv on one signature is unsupported (use recv_chan_init on \
                 the receiver)"
            );
        };
        let take = || self.transport.try_match(global_dst, ctx_id, src, tag);
        self.park(global_dst, 0, take, &stall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn payload_bytes_roundtrip_and_mismatch() {
        let p = Payload::of(&[1.5f64, -2.25, 8.0]);
        let back = p.take::<f64>().expect("same type roundtrips");
        assert_eq!(back, vec![1.5, -2.25, 8.0]);
        let p = Payload::of(&[7u32]);
        let err = p.take::<f64>().expect_err("kind mismatch");
        assert_eq!(err, u32::KIND);
    }

    #[test]
    fn poll_any_from_scans_from_the_start_position() {
        let w = WorldState::new(1, None);
        let a = w.channel::<u8>((0, 0, 0, 10));
        let b = w.channel::<u8>((0, 0, 0, 11));
        let ids = [a.id(), b.id()];
        assert_eq!(WorldState::poll_any_from(&ids, 0), None);
        b.push(&[1], 0.0);
        assert_eq!(WorldState::poll_any_from(&ids, 0), Some(1));
        a.push(&[2], 0.0);
        // both ready: the start position picks the winner
        assert_eq!(WorldState::poll_any_from(&ids, 0), Some(0));
        assert_eq!(WorldState::poll_any_from(&ids, 1), Some(1));
    }

    #[test]
    fn poll_any_rotation_visits_every_hot_channel() {
        // two channels permanently hot: the rotating scan start must
        // surface BOTH across consecutive polls — a fixed first-ready scan
        // would report index 0 forever and starve channel 1
        let w = WorldState::new(1, None);
        let a = w.channel::<u8>((0, 0, 0, 30));
        let b = w.channel::<u8>((0, 0, 0, 31));
        a.push(&[1], 0.0);
        b.push(&[2], 0.0);
        let ids = [a.id(), b.id()];
        let seen: std::collections::HashSet<usize> = (0..4)
            .map(|_| w.poll_any(0, &ids).expect("both channels are hot"))
            .collect();
        assert_eq!(
            seen.len(),
            2,
            "rotating poll_any must visit both hot channels"
        );
    }

    #[test]
    #[should_panic(expected = "datatype mismatch: registered u32, requested f64")]
    fn channel_type_mismatch_panics() {
        let w = WorldState::new(1, None);
        let _ = w.channel::<u32>((0, 0, 0, 3));
        let _ = w.channel::<f64>((0, 0, 0, 3));
    }

    #[test]
    #[should_panic(expected = "datatype mismatch: registered u32, requested f64")]
    fn shared_pass_type_mismatch_panics() {
        // the key exists, so the lookup is a hit under the shared guard
        let w = WorldState::new(1, None);
        let _ = w.channel::<u32>((0, 0, 0, 3));
        let _ = w.chan_registrar().channel_sized::<f64>((0, 0, 0, 3), 0, 0);
    }

    /// How long one side of a two-registrar test waits for the other
    /// before failing, so an exclusive registry fails the test instead of
    /// hanging it.
    const MEET: Duration = Duration::from_secs(5);

    #[test]
    fn warm_registrars_do_not_exclude_each_other() {
        let w = WorldState::new(2, None);
        let key = (0, 0, 1, 5);
        let _ = w.channel::<u8>(key);
        // a warm pass held open on this thread
        let mut held = w.chan_registrar();
        let _ = held.channel_sized::<u8>(key, 1, 0);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let chan = w.chan_registrar().channel_sized::<u8>(key, 1, 0);
                tx.send(chan.key()).expect("the test thread waits");
            });
            let attached = rx.recv_timeout(MEET);
            drop(held);
            assert_eq!(
                attached.expect("a second warm pass waited on the first"),
                key
            );
        });
    }

    #[test]
    fn shared_passes_missing_one_key_get_one_channel() {
        // both passes are open under the shared guard before either
        // looks the new key up; both miss it, and whichever reaches the
        // exclusive guard second attaches to what the first created
        let w = WorldState::new(2, None);
        let key = (0, 0, 1, 9);
        let (a_tx, a_rx) = mpsc::channel();
        let (b_tx, b_rx) = mpsc::channel();
        let (a, b) = std::thread::scope(|s| {
            let side = |opened: mpsc::Sender<()>, other: mpsc::Receiver<()>| {
                let w = &w;
                s.spawn(move || {
                    let mut reg = w.chan_registrar();
                    opened.send(()).expect("the other side waits");
                    other
                        .recv_timeout(MEET)
                        .expect("the other pass opened beside this one");
                    reg.channel_sized::<u8>(key, 1, 0)
                })
            };
            let a = side(a_tx, b_rx);
            let b = side(b_tx, a_rx);
            (a.join().expect("side a"), b.join().expect("side b"))
        });
        assert!(Arc::ptr_eq(&a, &b), "one channel, not two");
        a.push(&[7], 0.0);
        assert!(b.ready(), "a push on one handle shows through the other");
    }
}
