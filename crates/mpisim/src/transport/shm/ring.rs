//! SPSC byte rings inside the shared segment, and the typed channel view
//! over them.
//!
//! One ring has exactly one producer (the sending rank) and one consumer
//! (the receiving rank, recorded in the header as the ring's `owner`: every
//! push notifies that rank's park point, and that is where it sleeps when
//! the ring is empty) — the fabric guarantees this by construction:
//! mailbox rings are per (src, dst) pair, persistent-channel rings carry
//! one pre-matched signature. head/tail are monotonic byte counters; the
//! data area is a power-of-two so positions wrap by masking, and every
//! copy handles the wrap by splitting into two `memcpy`s. A producer that
//! finds the ring full sleeps on the ring's own park point (`space` in the
//! header), which every pop notifies: a wake only while it is asleep.
//!
//! Message frame: `[payload_len: u32][pad: u32][payload]`, padded to 8
//! bytes ([`frame_bytes`]). No modeled-clock stamp rides along: a cost
//! model runs on the thread fabric only. The frame is written and read as
//! raw bytes (via the wrapped copy), so nothing in the ring ever needs
//! alignment beyond the header word atomics.

use super::segment::Segment;
use crate::elem::Elem;
use crate::transport::park::{park_until, ParkWords};
use crate::transport::{bytes_of, vec_extend_bytes};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

#[repr(C)]
struct RingHdr {
    /// Bytes consumed (monotonic; consumer-written).
    head: AtomicU64,
    /// Bytes produced (monotonic; producer-written).
    tail: AtomicU64,
    /// Data-area capacity in bytes (power of two).
    cap: AtomicU64,
    /// Delivered, unconsumed messages — the cross-process `ready` probe.
    msg_count: AtomicU64,
    /// World rank of the consumer, fixed at `init_ring`.
    owner: AtomicU32,
    /// While the ring sits on one of the segment's free lists: offset of
    /// the next free ring of its size (0 = last).
    next_free: AtomicU64,
    /// Where the producer sleeps while the ring is full; every pop
    /// notifies it. Never reset: any generation serves a parker, and no
    /// producer is asleep on a ring that sits on a free list.
    space: ParkWords,
}

/// Byte offset from a ring's base to its data area.
pub(crate) const RING_HDR: u64 = 128;
const _: () = assert!(std::mem::size_of::<RingHdr>() as u64 == RING_HDR);
const MSG_HDR: usize = 8;

/// Ring bytes one message of `payload` bytes occupies: its header and
/// payload, padded to 8.
pub(crate) fn frame_bytes(payload: usize) -> u64 {
    (MSG_HDR + payload).next_multiple_of(8) as u64
}

pub(crate) fn init_ring(seg: &Segment, off: u64, cap_bytes: u64, owner: usize) {
    assert!(cap_bytes.is_power_of_two(), "ring capacity must be 2^k");
    let hdr = ShmChanRaw::hdr_at(seg, off);
    hdr.head.store(0, Ordering::SeqCst);
    hdr.tail.store(0, Ordering::SeqCst);
    hdr.msg_count.store(0, Ordering::SeqCst);
    hdr.owner.store(owner as u32, Ordering::SeqCst);
    hdr.cap.store(cap_bytes, Ordering::SeqCst);
}

/// Capacity of the initialized ring at `off` — its free-list size class.
pub(crate) fn ring_cap(seg: &Segment, off: u64) -> u64 {
    ShmChanRaw::hdr_at(seg, off).cap.load(Ordering::SeqCst)
}

/// The free-list link of the ring at `off` (see `Segment::release_channel`).
pub(crate) fn next_free(seg: &Segment, off: u64) -> &AtomicU64 {
    &ShmChanRaw::hdr_at(seg, off).next_free
}

/// Untyped handle to one ring: a segment reference plus the ring's offset.
/// Cloneable and process-local (the offset is the cross-process part).
#[derive(Clone)]
pub(crate) struct ShmChanRaw {
    seg: Arc<Segment>,
    off: u64,
}

impl ShmChanRaw {
    pub fn new(seg: Arc<Segment>, off: u64) -> Self {
        Self { seg, off }
    }

    pub fn seg(&self) -> &Arc<Segment> {
        &self.seg
    }

    fn hdr(&self) -> &RingHdr {
        Self::hdr_at(&self.seg, self.off)
    }

    fn hdr_at(seg: &Segment, off: u64) -> &RingHdr {
        // SAFETY: `off` is a ring base handed out by `Segment::alloc`
        // (64-aligned — the header's alignment — with `RING_HDR` + capacity
        // bytes inside the mapping, which `seg` keeps alive), the header is
        // nothing but atomics — valid for any bit pattern and for shared
        // access from every process — and it is `RING_HDR` bytes long.
        unsafe { &*(seg.at(off) as *const RingHdr) }
    }

    fn data(&self) -> *mut u8 {
        self.seg.at(self.off + RING_HDR)
    }

    fn cap(&self) -> u64 {
        self.hdr().cap.load(Ordering::Relaxed)
    }

    pub fn msg_count(&self) -> usize {
        self.hdr().msg_count.load(Ordering::SeqCst) as usize
    }

    /// Copy `src` into the data area at monotonic position `pos`.
    fn write_wrapped(&self, pos: u64, src: &[u8]) {
        let cap = self.cap();
        let start = (pos & (cap - 1)) as usize;
        let first = src.len().min(cap as usize - start);
        // SAFETY: `start < cap` and `first <= cap - start`, so the first copy
        // ends inside the `cap`-byte data area and the second (the wrapped
        // rest, `<= cap` by `try_push`'s capacity check) starts at its base;
        // `src` is a Rust slice and cannot overlap the mapping. The bytes
        // lie between `head` and the unpublished tail, where only this
        // ring's single producer writes.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.data().add(start), first);
            if first < src.len() {
                std::ptr::copy_nonoverlapping(
                    src.as_ptr().add(first),
                    self.data(),
                    src.len() - first,
                );
            }
        }
    }

    /// The two byte slices covering `len` bytes at monotonic position
    /// `pos` (second is empty unless the range wraps).
    fn slices(&self, pos: u64, len: usize) -> (&[u8], &[u8]) {
        let cap = self.cap();
        let start = (pos & (cap - 1)) as usize;
        let first = len.min(cap as usize - start);
        // SAFETY: both ranges lie inside the `cap`-byte data area (as in
        // `write_wrapped`); the single consumer calls this for a message the
        // producer published with a `Release` store of `tail` that the
        // consumer's `msg_count` load observed, and the producer does not
        // write those bytes again until `head` has moved past them — which
        // only happens after the borrow ends (`try_pop_with`).
        unsafe {
            (
                std::slice::from_raw_parts(self.data().add(start), first),
                std::slice::from_raw_parts(self.data(), len - first),
            )
        }
    }

    /// Deposit one message without blocking: returns `false` (writing
    /// nothing) when the ring lacks space for the whole frame. A single
    /// message larger than the whole ring is a loud panic: a channel ring
    /// is sized for [`super::RING_DEPTH`] messages of the registered
    /// length, and plain sends are chunked to fit the mailbox rings.
    pub fn try_push(&self, parts: &[&[u8]]) -> bool {
        let payload: usize = parts.iter().map(|p| p.len()).sum();
        let need = frame_bytes(payload);
        let hdr = self.hdr();
        let cap = self.cap();
        assert!(
            need <= cap,
            "shm ring message of {payload} bytes exceeds the ring capacity of \
             {cap} bytes (a persistent channel's ring holds {} messages of the \
             length it was registered with — register the real length)",
            super::RING_DEPTH
        );
        let tail = hdr.tail.load(Ordering::Relaxed); // single producer
        if cap - (tail - hdr.head.load(Ordering::Acquire)) < need {
            return false;
        }
        let mut frame = [0u8; MSG_HDR];
        frame[0..4].copy_from_slice(&(payload as u32).to_le_bytes());
        self.write_wrapped(tail, &frame);
        let mut pos = tail + MSG_HDR as u64;
        for p in parts {
            self.write_wrapped(pos, p);
            pos += p.len() as u64;
        }
        hdr.tail.store(tail + need, Ordering::Release);
        hdr.msg_count.fetch_add(1, Ordering::SeqCst);
        self.owner_park().notify();
        true
    }

    /// Where this ring's consumer sleeps.
    fn owner_park(&self) -> &ParkWords {
        self.seg
            .park(self.hdr().owner.load(Ordering::Relaxed) as usize)
    }

    /// Deposit one message, given as the concatenation of `parts`.
    /// Blocks while the ring is full (the channel's buffered-send depth
    /// is the ring capacity), parked on the ring's `space` point; `stall`
    /// runs whenever a park ends with nothing popped.
    pub fn push(&self, parts: &[&[u8]], stall: &dyn Fn()) {
        let pushed = || self.try_push(parts).then_some(());
        park_until(&self.hdr().space, 0, pushed, stall);
    }

    /// Consume the next message if one is delivered: `f` sees the
    /// (possibly wrapped) payload as two byte slices, which are only valid
    /// during the call. Single consumer.
    pub fn try_pop_with<R>(&self, f: impl FnOnce(&[u8], &[u8]) -> R) -> Option<R> {
        let hdr = self.hdr();
        if hdr.msg_count.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let head = hdr.head.load(Ordering::Relaxed); // single consumer
        let mut frame = [0u8; MSG_HDR];
        let (a, b) = self.slices(head, MSG_HDR);
        frame[..a.len()].copy_from_slice(a);
        frame[a.len()..].copy_from_slice(b);
        let payload = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
        let (pa, pb) = self.slices(head + MSG_HDR as u64, payload);
        let r = f(pa, pb);
        hdr.head
            .store(head + frame_bytes(payload), Ordering::Release);
        hdr.msg_count.fetch_sub(1, Ordering::SeqCst);
        hdr.space.notify();
        Some(r)
    }

    /// Consume and discard everything delivered. Quiescent use only (the
    /// failed-epoch drain): no concurrent producer or consumer.
    pub fn drain(&self) {
        while self.try_pop_with(|_, _| ()).is_some() {}
    }
}

/// Typed view over one shm ring: the shared-memory counterpart of the
/// in-process `Channel<T>` body. Payload buffers are recycled — a send's
/// through a process-local spare pool, a take's through the buffers its
/// receiver hands back — so the ring slots are the wire buffers, the
/// `Vec<T>`s are the gather/scatter staging surfaces, and the steady state
/// allocates nothing.
pub(crate) struct ShmChan<T> {
    raw: ShmChanRaw,
    /// The registration-table row this channel is attached to
    /// (`Segment::register_channel`), given back on drop.
    row: usize,
    spare: Mutex<Vec<Vec<T>>>,
}

impl<T> Drop for ShmChan<T> {
    fn drop(&mut self) {
        self.raw.seg.release_channel(self.row);
    }
}

impl<T: Elem> ShmChan<T> {
    /// The typed view of a ring registered as table row `row`.
    pub fn new(raw: ShmChanRaw, row: usize) -> Self {
        Self {
            raw,
            row,
            spare: Mutex::new(Vec::new()),
        }
    }

    pub fn raw(&self) -> &ShmChanRaw {
        &self.raw
    }

    pub fn push_with(&self, fill: impl FnOnce(&mut Vec<T>)) {
        let mut buf = self.spare.lock().pop().unwrap_or_default();
        buf.clear();
        fill(&mut buf);
        self.raw
            .push(&[bytes_of(&buf)], &|| self.raw.seg().check_alive());
        self.spare.lock().push(buf);
    }

    /// Copy the next message out of the ring into a buffer the receiver
    /// handed back (`back`), or a spare one.
    pub fn try_pop(&self, back: &mut Vec<Vec<T>>) -> Option<Vec<T>> {
        if self.raw.msg_count() == 0 {
            return None;
        }
        let mut buf = back
            .pop()
            .unwrap_or_else(|| self.spare.lock().pop().unwrap_or_default());
        buf.clear();
        if self
            .raw
            .try_pop_with(|a, b| vec_extend_bytes(&mut buf, a, b))
            .is_none()
        {
            back.push(buf);
            return None;
        }
        Some(buf)
    }

    pub fn drain_pending(&self) {
        self.raw.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Elem;

    fn ring(cap: u64) -> ShmChanRaw {
        let seg = Segment::create(2);
        seg.unlink();
        let off = seg.alloc(RING_HDR + cap);
        init_ring(&seg, off, cap, 1);
        ShmChanRaw::new(seg, off)
    }

    #[test]
    fn a_message_occupies_its_header_and_payload_padded_to_8() {
        let r = ring(256);
        for payload in 0..=17usize {
            let tail = r.hdr().tail.load(Ordering::Relaxed);
            r.push(&[&vec![7u8; payload]], &|| {});
            let used = r.hdr().tail.load(Ordering::Relaxed) - tail;
            assert_eq!(
                used,
                (8 + payload).next_multiple_of(8) as u64,
                "{payload} B"
            );
            let got = r.try_pop_with(|a, b| a.len() + b.len());
            assert_eq!(got, Some(payload));
        }
    }

    #[test]
    fn fifo_roundtrip_with_wraparound() {
        let r = ring(256);
        // frames are 8 + pad8(24) = 32 bytes; push/pop enough of them to
        // wrap the 256-byte ring several times
        for i in 0..32u64 {
            let payload: Vec<u8> = (0..24).map(|j| (i as u8).wrapping_add(j)).collect();
            r.push(&[&payload], &|| {});
            if i % 2 == 1 {
                for k in [i - 1, i] {
                    let got = r
                        .try_pop_with(|a, b| {
                            let mut v = a.to_vec();
                            v.extend_from_slice(b);
                            v
                        })
                        .expect("message delivered");
                    assert_eq!(got[0], k as u8);
                    assert_eq!(got.len(), 24);
                }
            }
        }
        assert_eq!(r.msg_count(), 0);
    }

    #[test]
    fn full_ring_blocks_until_consumed() {
        let r = ring(128);
        let r2 = r.clone();
        // capacity 128 holds exactly two 40-byte frames plus change
        r.push(&[&[1u8; 32]], &|| {});
        r.push(&[&[2u8; 32]], &|| {});
        let t = std::thread::spawn(move || {
            r2.push(&[&[3u8; 32]], &|| {});
            r2.push(&[&[4u8; 32]], &|| {}); // blocks: 160 > 128
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while r.hdr().space.counts().parks == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the producer of a full ring never parked"
            );
            std::thread::yield_now();
        }
        let mut seen = Vec::new();
        for _ in 0..4 {
            loop {
                if let Some(b) = r.try_pop_with(|a, _| a[0]) {
                    seen.push(b);
                    break;
                }
                std::thread::yield_now();
            }
        }
        t.join().unwrap();
        assert_eq!(seen, vec![1, 2, 3, 4]);
        // the producer slept on `space`; that a pop's notify, not the stall
        // period, ends such a park is checked with a long period in
        // tests/indirect_wakes.rs
        assert!(r.hdr().space.counts().parks >= 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the ring capacity")]
    fn oversized_message_panics() {
        let r = ring(64);
        r.push(&[&[0u8; 4096]], &|| {});
    }

    #[test]
    fn typed_channel_recycles_buffers() {
        let seg = Segment::create(2);
        seg.unlink();
        let (row, off) = seg.register_channel((1, 0, 1, 7), 1, f64::KIND, 4096);
        let c = ShmChan::<f64>::new(ShmChanRaw::new(seg, off), row);
        let mut back = Vec::new();
        c.push_with(|b| b.extend_from_slice(&[1.0, 2.0, 3.0]));
        let buf = c.try_pop(&mut back).expect("delivered");
        assert_eq!(buf.as_slice(), [1.0, 2.0, 3.0].as_slice());
        let ptr = buf.as_ptr();
        back.push(buf);
        c.push_with(|b| b.extend_from_slice(&[4.0]));
        // the handed-back buffer is the one the next take fills
        let buf = c.try_pop(&mut back).expect("delivered");
        assert_eq!(buf.as_slice(), [4.0].as_slice());
        assert_eq!(buf.as_ptr(), ptr);
        assert!(back.is_empty());
    }
}
