//! The shared segment: one `/dev/shm` file mapped by every process of the
//! fabric, holding all cross-process state.
//!
//! Layout (all offsets 8-aligned, pointers never cross the boundary —
//! every cross-process reference is a byte offset from the mapping base):
//!
//! ```text
//! [SegHeader]                    magic, alloc bump, panic flag,
//!                                epoch command word, barrier words
//! [pids;    n_ranks  × u32]      attached process of each rank (liveness)
//! [parks;   n_ranks  × 64 B]     per-rank park point ([`ParkWords`])
//! [table;   TABLE_CAP × slot]    persistent-channel registration table
//! [mailbox rings; n² × ring]     plain-send SPSC byte rings (src → dst)
//! [bump area]                    persistent-channel rings, allocated on
//!                                registration, recycled through per-size
//!                                free lists once every attacher let go
//! ```
//!
//! The creator initializes everything before publishing `magic`; workers
//! attach read-write and verify `magic` + the rank count. `/dev/shm` is a
//! tmpfs, so the generous default size only commits pages actually
//! touched.
//!
//! The park points are the type every fabric's ranks sleep on
//! ([`crate::transport::park`]), placed here so any process can wake any
//! rank. The control plane waits on them too: a rank awaiting the command
//! word or the barrier parks on its own point, which whoever moves either
//! notifies.

use super::ring::RING_HDR;
use super::MAILBOX_CAP;
use crate::elem::kind_name;
use crate::state::ChanKey;
use crate::transport::park::{park_until, ParkWords};
use crate::transport::remote::CMD_STOP;
use crate::transport::{rank_panic_failure, ABANDONED};
use std::fs::OpenOptions;
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

const MAGIC: u64 = 0x6d70_6973_696d_0010; // "mpisim", layout v16
const ALIGN: u64 = 64;

/// Fixed capacity of the channel registration table. A world holds one
/// slot per *live* persistent signature — a slot goes back when every
/// attacher has dropped its channel; exceeding this is a loud panic, not
/// silent corruption.
pub(crate) const TABLE_CAP: usize = 4096;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_SHARED: i32 = 1;
const ESRCH: i32 = 3;

#[repr(C)]
struct SegHeader {
    magic: AtomicU64,
    n_ranks: AtomicU64,
    seg_len: AtomicU64,
    /// Bump allocator head for the free area at the end of the segment.
    alloc_next: AtomicU64,
    /// Set when a rank of the current epoch panicked or its process died.
    rank_panicked: AtomicU32,
    /// Epoch command word (see `transport::remote`): `(job << 48) | epoch`,
    /// or [`CMD_STOP`].
    epoch_cmd: AtomicU64,
    /// Sense-reversing barrier: generation + count of ranks in (its waiters
    /// sleep on their park points).
    barrier_gen: AtomicU32,
    barrier_count: AtomicU32,
    /// Spinlock guarding the registration table.
    table_lock: AtomicU32,
    /// Which rank raised `rank_panicked`, as rank+1 (0 = unattributed).
    /// First writer wins; read by stall forensics to name the dead rank.
    dead_rank: AtomicU32,
    /// Offset of the first mailbox ring.
    mailbox_base: AtomicU64,
    /// Rows of the table that have ever been in use and not been trimmed
    /// since: every live row is below it. Under the table lock.
    table_len: AtomicU32,
    /// Freed channel rings, one intrusive list per size class (a ring's
    /// capacity is a power of two; the class is its exponent): offset of
    /// the first free ring, 0 = none. Under the table lock.
    free_rings: [AtomicU64; 64],
}

const HDR_SIZE: u64 = 1024; // > size_of::<SegHeader>(), room to grow
const _: () = assert!(std::mem::size_of::<SegHeader>() as u64 <= HDR_SIZE);

#[repr(C)]
struct TableSlot {
    /// Channels attached to this row, one per process that registered its
    /// key; 0 = the row is empty. Written under the table lock, and last
    /// when a row is filled.
    attached: AtomicU32,
    /// The element type's [`crate::Elem::KIND`], checked by every attacher.
    kind: AtomicU32,
    key: [AtomicU64; 4],
    ring_off: AtomicU64,
}

/// One cache line per row.
const SLOT_SIZE: u64 = 64;
const _: () = assert!(std::mem::size_of::<TableSlot>() as u64 <= SLOT_SIZE);

/// One park point per cache line: ranks must not share one.
const PARK_STRIDE: u64 = 64;
const _: () = assert!(std::mem::size_of::<ParkWords>() as u64 == PARK_STRIDE);

/// One process's mapping of the fabric's shared segment.
pub(crate) struct Segment {
    base: *mut u8,
    len: usize,
    path: PathBuf,
    /// Only the creating process unlinks the backing file.
    created: bool,
    unlinked: AtomicBool,
}

// SAFETY: `base` — the only field that is not plain owned data — is no
// thread-local resource: it points at a `MAP_SHARED` mapping that stays
// valid until `Drop` unmaps it, wherever the `Segment` has moved to by then.
unsafe impl Send for Segment {}
// SAFETY: nothing is reachable through `&Segment` but atomics (the header,
// the per-rank words, the table) and ring data areas, whose plain byte
// copies are ordered by each ring's head/tail protocol (`ring.rs`) between
// exactly one producer and one consumer — the discipline that already has
// to hold across processes holds across threads.
unsafe impl Sync for Segment {}

impl Segment {
    fn offsets(n: u64) -> (u64, u64, u64, u64) {
        let pids = HDR_SIZE;
        let parks = align(pids + 4 * n);
        let table = align(parks + PARK_STRIDE * n);
        let bump = align(table + SLOT_SIZE * TABLE_CAP as u64);
        (pids, parks, table, bump)
    }

    /// Create and initialize the fabric segment for `n_ranks` ranks.
    pub fn create(n_ranks: usize) -> Arc<Segment> {
        let n = n_ranks as u64;
        let mailbox_total = n * n * (RING_HDR + MAILBOX_CAP);
        let default_len = (mailbox_total + (192 << 20)).max(256 << 20);
        let len = crate::env::get()
            .shm_bytes
            .unwrap_or(default_len)
            .max(mailbox_total + (16 << 20));

        static SEQ: AtomicU64 = AtomicU64::new(0);
        // Name collision (a stale file from a dead process that recycled
        // our pid, or a crashed earlier run): sweep dead-owner leftovers
        // and retry with backoff on the next sequence number instead of
        // aborting the world on the first EEXIST.
        let (file, path) = (0..100)
            .find_map(|attempt| {
                let path = PathBuf::from(format!(
                    "/dev/shm/mpisim-{}-{}",
                    std::process::id(),
                    SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                match OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create_new(true)
                    .open(&path)
                {
                    Ok(f) => Some((f, path)),
                    Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                        sweep_stale_segments();
                        std::thread::sleep(std::time::Duration::from_millis(1 + attempt));
                        None
                    }
                    Err(e) => panic!("create shm segment {}: {e}", path.display()),
                }
            })
            .expect("create shm segment: 100 consecutive name collisions");
        file.set_len(len).expect("size shm segment");
        let seg = Segment::map(file, path, len as usize, true);

        let (_, _, _, bump) = Self::offsets(n);
        let h = seg.header();
        h.n_ranks.store(n, Ordering::Relaxed);
        h.seg_len.store(len, Ordering::Relaxed);
        h.alloc_next.store(bump, Ordering::Relaxed);
        // the attach barrier reuses the epoch barrier words, all zero
        let mailbox_base = seg.alloc(mailbox_total);
        h.mailbox_base.store(mailbox_base, Ordering::Relaxed);
        for i in 0..(n * n) {
            super::ring::init_ring(
                &seg,
                mailbox_base + i * (RING_HDR + MAILBOX_CAP),
                MAILBOX_CAP,
                (i % n) as usize, // ring i carries src i / n → dst i % n
            );
        }
        // publish: attachers spin on magic before touching anything else
        h.magic.store(MAGIC, Ordering::SeqCst);
        Arc::new(seg)
    }

    /// Map an existing fabric segment (worker processes). Transient
    /// failures — the file not yet visible, or `magic` not yet published
    /// by the creator — are retried with backoff for roughly two seconds
    /// before giving up; a worker that still loses the race exits, and its
    /// driver fails the bootstrap.
    pub fn attach(path: &str) -> Arc<Segment> {
        const ATTEMPTS: u32 = 20;
        let mut last_err = String::new();
        for attempt in 0..ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(std::time::Duration::from_millis(10 * attempt as u64));
            }
            let file = match OpenOptions::new().read(true).write(true).open(path) {
                Ok(f) => f,
                Err(e) => {
                    last_err = format!("attach shm segment {path}: {e}");
                    continue;
                }
            };
            let len = file.metadata().expect("stat shm segment").len() as usize;
            let seg = Segment::map(file, PathBuf::from(path), len, false);
            if seg.header().magic.load(Ordering::SeqCst) == MAGIC {
                return Arc::new(seg);
            }
            last_err = format!("shm segment {path} has no initialized fabric (version mismatch?)");
        }
        panic!("{last_err} ({ATTEMPTS} attempts)");
    }

    fn map(file: std::fs::File, path: PathBuf, len: usize, created: bool) -> Segment {
        // SAFETY: a fresh shared mapping at an address of the kernel's
        // choosing aliases no Rust object; `file` is open read-write and
        // `len` bytes long (set by `create`, read from its metadata by
        // `attach`). Failure is checked below before `base` is used.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        assert!(
            !base.is_null() && base as isize != -1,
            "mmap of shm segment failed ({})",
            std::io::Error::last_os_error()
        );
        // the fd is only needed for the mapping; the mapping keeps the
        // file's pages alive even after close + unlink
        drop(file);
        Segment {
            base,
            len,
            path,
            created,
            unlinked: AtomicBool::new(false),
        }
    }

    /// Remove the backing file (idempotent; creator only). The mapping —
    /// and therefore the fabric — stays fully usable: tmpfs pages live
    /// until the last process unmaps.
    pub fn unlink(&self) {
        if self.created && !self.unlinked.swap(true, Ordering::SeqCst) {
            let _ = std::fs::remove_file(&self.path);
        }
    }

    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    fn header(&self) -> &SegHeader {
        // SAFETY: the mapping is page-aligned, at least `HDR_SIZE` >
        // `size_of::<SegHeader>()` bytes long and lives as long as `self`;
        // the header is nothing but atomics, valid for any bit pattern and
        // for shared access from every process.
        unsafe { &*(self.base as *const SegHeader) }
    }

    pub fn n_ranks(&self) -> usize {
        self.header().n_ranks.load(Ordering::Relaxed) as usize
    }

    /// Raw pointer at a byte offset. The caller is responsible for staying
    /// inside regions it owns under the fabric's protocols.
    pub(crate) fn at(&self, off: u64) -> *mut u8 {
        debug_assert!((off as usize) < self.len);
        // SAFETY: offsets come from `offsets()`, `alloc` (which asserts it
        // stays inside `len`) or a table slot written from one of those, so
        // the sum stays inside the one mapping `base` points into.
        unsafe { self.base.add(off as usize) }
    }

    pub(crate) fn atomic_u32(&self, off: u64) -> &AtomicU32 {
        debug_assert_eq!(off % 4, 0);
        // SAFETY: `off` is one of the 4-aligned per-rank words `offsets()`
        // lays out inside the mapping (which outlives the borrow), only
        // ever accessed as an `AtomicU32`, by every process.
        unsafe { &*(self.at(off) as *const AtomicU32) }
    }

    /// Bump-allocate `bytes` from the free area; 64-aligned.
    pub fn alloc(&self, bytes: u64) -> u64 {
        let need = align(bytes);
        let off = self.header().alloc_next.fetch_add(need, Ordering::SeqCst);
        assert!(
            off + need <= self.len as u64,
            "shm segment exhausted allocating {bytes} bytes (len {}; raise MPISIM_SHM_BYTES)",
            self.len
        );
        off
    }

    // ---- per-rank words ---------------------------------------------------

    pub fn pid_slot(&self, rank: usize) -> &AtomicU32 {
        let (pids, ..) = Self::offsets(self.n_ranks() as u64);
        self.atomic_u32(pids + 4 * rank as u64)
    }

    /// Where `rank` sleeps, and what a deposit addressed to it notifies.
    pub fn park(&self, rank: usize) -> &ParkWords {
        assert!(rank < self.n_ranks(), "park point of rank {rank}");
        let (_, parks, ..) = Self::offsets(self.n_ranks() as u64);
        // SAFETY: `rank < n_ranks`, so the words lie inside the park region
        // `offsets()` reserves (64-aligned — `ParkWords`' alignment — and
        // `PARK_STRIDE` = `size_of::<ParkWords>()` apart, inside the mapping
        // that outlives the borrow); they are nothing but atomics — valid
        // for any bit pattern and for shared access from every process.
        unsafe { &*(self.at(parks + PARK_STRIDE * rank as u64) as *const ParkWords) }
    }

    // ---- death containment ------------------------------------------------

    pub fn note_rank_panic(&self) {
        self.header().rank_panicked.store(1, Ordering::SeqCst);
        // latency only — every park also times out and re-probes
        for r in 0..self.n_ranks() {
            self.park(r).wake();
        }
    }

    /// [`Segment::note_rank_panic`] with attribution: record *which* rank
    /// died (first writer wins) before raising the flag, so stall
    /// forensics can name it.
    pub fn note_rank_death(&self, rank: usize) {
        let _ = self.header().dead_rank.compare_exchange(
            0,
            rank as u32 + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        self.note_rank_panic();
    }

    /// The rank recorded by [`Segment::note_rank_death`], if any.
    pub fn dead_rank(&self) -> Option<usize> {
        match self.header().dead_rank.load(Ordering::SeqCst) {
            0 => None,
            r => Some(r as usize - 1),
        }
    }

    pub fn clear_rank_panic(&self) {
        self.header().rank_panicked.store(0, Ordering::SeqCst);
        self.header().dead_rank.store(0, Ordering::SeqCst);
    }

    pub fn rank_panicked(&self) -> bool {
        self.header().rank_panicked.load(Ordering::SeqCst) != 0
    }

    /// The stall probe of every wait in the fabric: the abort message
    /// if a peer rank panicked or an attached peer *process* no longer
    /// exists (SIGKILL leaves no flag behind — the pid sweep catches it),
    /// else `None`. Clean worker exits after a [`CMD_STOP`] are not
    /// deaths. Records a newly-observed pid death as a side effect.
    pub fn peer_failure(&self) -> Option<String> {
        if self.rank_panicked() {
            return Some(rank_panic_failure(self.dead_rank()));
        }
        let stopping = self.read_cmd() == CMD_STOP;
        for r in 0..self.n_ranks() {
            let pid = self.pid_slot(r).load(Ordering::SeqCst);
            if pid == 0 || (stopping && r != 0) {
                continue; // not attached yet, or shutting down cleanly
            }
            if !pid_alive(pid) {
                self.note_rank_death(r);
                return Some(format!(
                    "rank {r} process (pid {pid}) died; {ABANDONED} on the shm fabric"
                ));
            }
        }
        None
    }

    // ---- epoch protocol ---------------------------------------------------

    pub fn post_cmd(&self, cmd: u64) {
        self.header().epoch_cmd.store(cmd, Ordering::SeqCst);
        self.notify_ranks();
    }

    pub fn read_cmd(&self) -> u64 {
        self.header().epoch_cmd.load(Ordering::SeqCst)
    }

    /// Notify every rank's park point: the command word or barrier moved.
    fn notify_ranks(&self) {
        (0..self.n_ranks()).for_each(|r| self.park(r).notify());
    }

    /// The control plane's one wait: park `rank` until `done` yields; `stall`
    /// runs only if `done` is still empty then (no false death on exits).
    pub fn park_rank<R>(&self, rank: usize, done: impl Fn() -> Option<R>, stall: &dyn Fn()) -> R {
        let stall = || {
            if done().is_none() {
                stall();
            }
        };
        park_until(self.park(rank), &done, &stall)
    }

    /// All-ranks sense-reversing barrier ([`Segment::park_rank`]).
    /// `drain` runs in each of the wait's readiness checks: a rank that
    /// returned with plain sends still spilled keeps pushing them (a pop
    /// from a ring it spilled on notifies its point) until the barrier
    /// opens.
    pub fn barrier(&self, rank: usize, drain: &dyn Fn(), stall: &dyn Fn()) {
        let h = self.header();
        let gen = h.barrier_gen.load(Ordering::SeqCst);
        if h.barrier_count.fetch_add(1, Ordering::SeqCst) as usize + 1 == self.n_ranks() {
            h.barrier_count.store(0, Ordering::SeqCst);
            h.barrier_gen.fetch_add(1, Ordering::SeqCst);
            return self.notify_ranks();
        }
        let open = || {
            drain();
            (h.barrier_gen.load(Ordering::SeqCst) != gen).then_some(())
        };
        self.park_rank(rank, open, stall);
    }

    // ---- registration table -----------------------------------------------

    fn table_slot(&self, i: usize) -> &TableSlot {
        let (_, _, table, _) = Self::offsets(self.n_ranks() as u64);
        // SAFETY: `i < TABLE_CAP` at every caller, so the slot lies inside
        // the table region `offsets()` reserves (64-aligned, `SLOT_SIZE` ≥
        // `size_of::<TableSlot>()` apart); a slot is nothing but atomics.
        unsafe { &*(self.at(table + SLOT_SIZE * i as u64) as *const TableSlot) }
    }

    /// The pre-matched registration handshake: whichever process registers
    /// `key` first takes a row and a ring for it; the other side attaches to
    /// the same row by key lookup, completing the match at init time
    /// (mirroring the in-process channel registry). `dst_world` is the world
    /// rank that consumes the ring. Returns the row — what
    /// [`Segment::release_channel`] gives back — and the ring's offset.
    pub fn register_channel(
        &self,
        key: ChanKey,
        dst_world: usize,
        kind: u8,
        ring_bytes: u64,
    ) -> (usize, u64) {
        let k = [key.0, key.1 as u64, key.2 as u64, key.3];
        let h = self.header();
        let _guard = TableLock::acquire(self);
        // a match anywhere among the live rows wins over the first hole:
        // freed rows leave holes below rows that are still attached
        let len = h.table_len.load(Ordering::SeqCst) as usize;
        let mut hole = None;
        for i in 0..len {
            let slot = self.table_slot(i);
            let attached = slot.attached.load(Ordering::SeqCst);
            if attached == 0 {
                hole.get_or_insert(i);
                continue;
            }
            if slot
                .key
                .iter()
                .zip(k)
                .all(|(s, v)| s.load(Ordering::SeqCst) == v)
            {
                let registered = slot.kind.load(Ordering::SeqCst);
                assert!(
                    registered == kind as u32,
                    "persistent channel {key:?} datatype mismatch across the shm \
                     fabric: peer registered {}, this rank requested {}",
                    kind_name(registered as u8),
                    kind_name(kind),
                );
                slot.attached.store(attached + 1, Ordering::SeqCst);
                return (i, slot.ring_off.load(Ordering::SeqCst));
            }
        }
        let row = hole.unwrap_or_else(|| {
            assert!(
                len < TABLE_CAP,
                "shm channel table full ({TABLE_CAP} signatures live)"
            );
            h.table_len.store(len as u32 + 1, Ordering::SeqCst);
            len
        });
        let free = &h.free_rings[ring_bytes.trailing_zeros() as usize];
        let off = match free.load(Ordering::SeqCst) {
            0 => self.alloc(RING_HDR + ring_bytes),
            off => {
                free.store(
                    super::ring::next_free(self, off).load(Ordering::SeqCst),
                    Ordering::SeqCst,
                );
                off
            }
        };
        super::ring::init_ring(self, off, ring_bytes, dst_world);
        let slot = self.table_slot(row);
        for (dst, v) in slot.key.iter().zip(k) {
            dst.store(v, Ordering::SeqCst);
        }
        slot.kind.store(kind as u32, Ordering::SeqCst);
        slot.ring_off.store(off, Ordering::SeqCst);
        slot.attached.store(1, Ordering::SeqCst);
        (row, off)
    }

    /// One attacher of `row` dropped its channel. With the last one the
    /// row empties and its ring goes on the free list of its size, for the
    /// next registration of that size. Runs from `Drop`, so it never
    /// panics: if a peer died holding the table lock the row is left as it
    /// is — that world registers nothing more.
    pub fn release_channel(&self, row: usize) {
        let h = self.header();
        let Ok(_guard) = TableLock::acquire_unless_dead(self) else {
            return;
        };
        let slot = self.table_slot(row);
        let attached = slot.attached.load(Ordering::SeqCst);
        slot.attached
            .store(attached.saturating_sub(1), Ordering::SeqCst);
        if attached != 1 {
            return;
        }
        let off = slot.ring_off.load(Ordering::SeqCst);
        let free = &h.free_rings[super::ring::ring_cap(self, off).trailing_zeros() as usize];
        super::ring::next_free(self, off).store(free.load(Ordering::SeqCst), Ordering::SeqCst);
        free.store(off, Ordering::SeqCst);
        // keep the scanned prefix as short as the live rows allow
        let mut len = h.table_len.load(Ordering::SeqCst) as usize;
        while len > 0 && self.table_slot(len - 1).attached.load(Ordering::SeqCst) == 0 {
            len -= 1;
        }
        h.table_len.store(len as u32, Ordering::SeqCst);
    }

    /// Table rows in use and segment bytes handed out so far — the shm
    /// share of [`crate::RegistryGauge`]. Lock-free reads of a moving
    /// target: exact only while nobody registers or releases.
    pub fn table_gauge(&self) -> (usize, u64) {
        let h = self.header();
        let len = (h.table_len.load(Ordering::SeqCst) as usize).min(TABLE_CAP);
        let rows = (0..len)
            .filter(|&i| self.table_slot(i).attached.load(Ordering::SeqCst) != 0)
            .count();
        (rows, h.alloc_next.load(Ordering::SeqCst))
    }

    /// Mailbox ring (src → dst) offset.
    pub fn mailbox_ring_off(&self, src: usize, dst: usize) -> u64 {
        let n = self.n_ranks() as u64;
        let base = self.header().mailbox_base.load(Ordering::Relaxed);
        base + (src as u64 * n + dst as u64) * (RING_HDR + MAILBOX_CAP)
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        self.unlink();
        // SAFETY: `base`/`len` are exactly what `mmap` returned in `map`,
        // and `&mut self` in `Drop` means no borrow into the mapping is left
        // (every accessor ties its result to `&self`).
        unsafe {
            munmap(self.base, self.len);
        }
    }
}

/// RAII spinlock over the registration table: released on drop, so a
/// panic inside `register_channel` (table full, datatype mismatch) cannot
/// wedge the other processes' registrations.
struct TableLock<'a> {
    seg: &'a Segment,
}

impl<'a> TableLock<'a> {
    fn acquire(seg: &'a Segment) -> Self {
        Self::acquire_unless_dead(seg).unwrap_or_else(|why| panic!("{why}"))
    }

    /// `Err` with the failure message when a peer died while the lock was
    /// contended: its holder's process may be the one that died.
    fn acquire_unless_dead(seg: &'a Segment) -> Result<Self, String> {
        let lock = &seg.header().table_lock;
        let mut spins = 0u32;
        while lock
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            spins += 1;
            if spins.is_multiple_of(1024) {
                if let Some(why) = seg.peer_failure() {
                    return Err(why);
                }
            }
            std::thread::yield_now();
        }
        Ok(Self { seg })
    }
}

impl Drop for TableLock<'_> {
    fn drop(&mut self) {
        self.seg.header().table_lock.store(0, Ordering::SeqCst);
    }
}

/// Liveness probe by pid: true while the process exists.
pub(crate) fn pid_alive(pid: u32) -> bool {
    // SAFETY: signal 0 delivers nothing — `kill` only reports whether the
    // pid exists — and the call touches no memory of ours.
    let gone = unsafe { kill(pid as i32, 0) } == -1
        && std::io::Error::last_os_error().raw_os_error() == Some(ESRCH);
    !gone
}

/// Remove `/dev/shm/mpisim-<pid>-<seq>` files whose creating process no
/// longer exists — leftovers of SIGKILLed runs, which never reach their
/// `Drop`/unlink guard. Called on a name collision in [`Segment::create`],
/// so one crashed run cannot strand tmpfs pages forever.
pub(crate) fn sweep_stale_segments() {
    let Ok(entries) = std::fs::read_dir("/dev/shm") else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(rest) = name.to_str().and_then(|n| n.strip_prefix("mpisim-")) else {
            continue;
        };
        let Some(pid) = rest
            .split_once('-')
            .and_then(|(pid, _seq)| pid.parse::<u32>().ok())
        else {
            continue;
        };
        if !pid_alive(pid) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

fn align(off: u64) -> u64 {
    off.div_ceil(ALIGN) * ALIGN
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Elem;

    #[test]
    fn create_attach_roundtrip() {
        let seg = Segment::create(3);
        assert_eq!(seg.n_ranks(), 3);
        let seg2 = Segment::attach(seg.path().to_str().unwrap());
        assert_eq!(seg2.n_ranks(), 3);
        // both mappings see the same memory
        seg.pid_slot(1).store(4242, Ordering::SeqCst);
        assert_eq!(seg2.pid_slot(1).load(Ordering::SeqCst), 4242);
        seg.unlink();
    }

    #[test]
    fn registration_is_get_or_create_by_key() {
        let seg = Segment::create(2);
        let a = seg.register_channel((1, 0, 1, 9), 1, f64::KIND, 1 << 12);
        let b = seg.register_channel((1, 0, 1, 9), 1, f64::KIND, 1 << 12);
        let c = seg.register_channel((1, 1, 0, 9), 0, f64::KIND, 1 << 12);
        assert_eq!(a, b);
        assert_ne!(a.0, c.0);
        assert_ne!(a.1, c.1);
        seg.unlink();
    }

    #[test]
    fn a_row_and_its_ring_go_back_with_the_last_attacher() {
        let seg = Segment::create(2);
        seg.unlink();
        let reg = |tag: u64, bytes: u64| seg.register_channel((1, 0, 1, tag), 1, f64::KIND, bytes);
        let (a, a_ring) = reg(1, 1 << 12);
        let (b, _) = reg(2, 1 << 12);
        let (c, _) = reg(3, 1 << 13);
        assert_eq!(reg(1, 1 << 12).0, a); // a second attacher of row a
        assert_eq!((a, b, c), (0, 1, 2));
        let used = seg.table_gauge();
        assert_eq!(used.0, 3);

        seg.release_channel(a);
        assert_eq!(seg.table_gauge().0, 3, "one attacher of two is left");
        // a match above a hole is found before the hole is taken
        seg.release_channel(a);
        assert_eq!(seg.table_gauge().0, 2);
        assert_eq!(reg(3, 1 << 13).0, c);
        seg.release_channel(c);

        // the hole and the freed ring of that size are reused; another
        // size takes fresh segment bytes
        let (d, d_ring) = reg(4, 1 << 12);
        assert_eq!((d, d_ring), (a, a_ring));
        assert_eq!(seg.table_gauge(), used);
        let (e, _) = reg(5, 1 << 14);
        assert_eq!(e, 3);
        assert!(seg.table_gauge().1 > used.1);

        // releasing the top rows trims the scanned prefix
        for row in [e, c, b, d] {
            seg.release_channel(row);
        }
        assert_eq!(seg.table_gauge().0, 0);
        assert_eq!(seg.header().table_len.load(Ordering::SeqCst), 0);
    }

    #[test]
    #[should_panic(expected = "datatype mismatch across the shm fabric: peer registered \
                               f64, this rank requested u32")]
    fn registration_datatype_mismatch_panics() {
        let seg = Segment::create(2);
        seg.register_channel((1, 0, 1, 9), 1, f64::KIND, 1 << 12);
        seg.register_channel((1, 0, 1, 9), 1, u32::KIND, 1 << 12);
    }

    #[test]
    fn barrier_releases_all_ranks() {
        let seg = Segment::create(4);
        std::thread::scope(|s| {
            for rank in 0..4 {
                let seg = &seg;
                s.spawn(move || {
                    for _ in 0..50 {
                        seg.barrier(rank, &|| {}, &|| {});
                    }
                });
            }
        });
        seg.unlink();
    }

    #[test]
    fn peer_failure_sees_the_panic_flag() {
        let seg = Segment::create(2);
        seg.note_rank_panic();
        let why = seg.peer_failure().expect("the flag is a failure");
        assert!(why.contains("peer rank panicked"), "{why}");
    }

    #[test]
    fn rank_death_is_attributed_first_writer_wins() {
        let seg = Segment::create(4);
        assert_eq!(seg.dead_rank(), None);
        seg.note_rank_death(2);
        seg.note_rank_death(3); // later report must not overwrite
        assert_eq!(seg.dead_rank(), Some(2));
        assert!(seg
            .peer_failure()
            .expect("flag raised")
            .contains("rank 2 died"));
        seg.clear_rank_panic();
        assert_eq!(seg.dead_rank(), None);
        assert!(seg.peer_failure().is_none());
        seg.unlink();
    }

    #[test]
    fn create_retries_past_a_name_collision() {
        // Plant live-owner files at the next few sequence numbers:
        // create() must skip over them (the owner — us — is alive, so the
        // sweep may not remove them) and still produce a working segment.
        // `create_new` planting never clobbers a concurrent test's real
        // segment; a lost race just plants fewer blockers.
        let seq: u64 = {
            let probe = Segment::create(1);
            let name = probe
                .path()
                .file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .to_owned();
            probe.unlink();
            name.rsplit('-').next().unwrap().parse().unwrap()
        };
        let blockers: Vec<PathBuf> = (1..=4)
            .map(|d| {
                PathBuf::from(format!(
                    "/dev/shm/mpisim-{}-{}",
                    std::process::id(),
                    seq + d
                ))
            })
            .filter(|p| {
                OpenOptions::new()
                    .write(true)
                    .create_new(true)
                    .open(p)
                    .is_ok()
            })
            .collect();
        let seg = Segment::create(2);
        assert!(
            blockers.iter().all(|b| b.as_path() != seg.path()),
            "create must not reuse a colliding name"
        );
        assert_eq!(seg.n_ranks(), 2);
        seg.unlink();
        for b in blockers {
            let _ = std::fs::remove_file(b);
        }
    }

    #[test]
    fn sweep_removes_only_dead_owner_segments() {
        // a file named for a pid that cannot exist (> pid_max) is stale
        let stale = PathBuf::from("/dev/shm/mpisim-4194399-0");
        std::fs::write(&stale, b"stale").expect("plant stale file");
        // one owned by this (live) process must survive the sweep
        let live = PathBuf::from(format!("/dev/shm/mpisim-{}-999999", std::process::id()));
        std::fs::write(&live, b"live").expect("plant live file");
        sweep_stale_segments();
        assert!(!stale.exists(), "dead-owner segment must be swept");
        assert!(live.exists(), "live-owner segment must survive");
        let _ = std::fs::remove_file(&live);
    }
}
