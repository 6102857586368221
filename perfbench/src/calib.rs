//! Calibration against the host, measured at the same moment as the work.
//!
//! The reference box is a 2-core VM whose speed drifts by tens of percent
//! within seconds (a single-threaded spin loop reads 125-195 ms for the
//! same work, the same exchange 56-100 us per iteration), so raw
//! wall-clock medians of two runs of one commit differ by more than any
//! useful regression bound. Every timed block is therefore preceded and
//! followed by two token rings among the same rank threads, built on
//! `std::sync` alone - none of the repo's code - and the block's time is
//! divided by the rings' hop time. One ring polls with `yield_now` before
//! it blocks, as `mpisim`'s waits do; the other blocks at once. An
//! exchange is a mix of both kinds of waiting, and dividing by the
//! geometric mean of the two hop times was the steadiest of the
//! normalisations tried on all three fabrics (run-to-run spread 0.03-0.08
//! against 0.07-0.18 raw). What slows the host's thread hand-offs slows
//! numerator and denominator alike; what a change to the repo saves shows
//! only in the numerator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Hop time the calibrated metrics are scaled to: the geometric mean of
/// the two rings' hops on the reference box in a typical phase. A
/// calibrated `us` reads as microseconds on a host whose hop takes this
/// long.
pub const NOMINAL_HOP_US: f64 = 7.5;

/// The same for [`compute_seconds`].
pub const NOMINAL_COMPUTE_S: f64 = 0.016;

/// Hops per ring per calibration, whatever the number of ranks.
const HOPS: usize = 64;

/// Polls before a waiter of the polling ring blocks: what `mpisim`'s own
/// `wait_any` does on every fabric.
const YIELD_SPINS: usize = 24;

struct Slot {
    lap: AtomicU64,
    lock: Mutex<()>,
    arrived: Condvar,
}

struct Ring {
    slots: Vec<Slot>,
    spins: usize,
}

impl Ring {
    fn new(n_ranks: usize, spins: usize) -> Self {
        Self {
            spins,
            slots: (0..n_ranks)
                .map(|_| Slot {
                    lap: AtomicU64::new(0),
                    lock: Mutex::new(()),
                    arrived: Condvar::new(),
                })
                .collect(),
        }
    }

    fn pass(&self, to: usize, lap: u64) {
        let slot = &self.slots[to];
        slot.lap.store(lap, Ordering::SeqCst);
        // taking the lock orders this after a waiter's check-then-wait
        drop(slot.lock.lock().expect("ring slot"));
        slot.arrived.notify_one();
    }

    fn take(&self, me: usize, lap: u64) {
        let slot = &self.slots[me];
        for _ in 0..self.spins {
            if slot.lap.load(Ordering::SeqCst) >= lap {
                return;
            }
            std::thread::yield_now();
        }
        let mut guard = slot.lock.lock().expect("ring slot");
        while slot.lap.load(Ordering::SeqCst) < lap {
            guard = slot.arrived.wait(guard).expect("ring slot");
        }
    }

    /// The token goes round, rank 0 to rank 0, until [`HOPS`] hops are
    /// made. Seconds per hop, as rank `me` saw it.
    fn hop_seconds(&self, me: usize, call: u64) -> f64 {
        let n = self.slots.len();
        let laps = HOPS.div_ceil(n) as u64;
        let next = (me + 1) % n;
        let t0 = Instant::now();
        for lap in call * laps + 1..=(call + 1) * laps {
            if me == 0 {
                self.pass(next, lap);
                self.take(0, lap);
            } else {
                self.take(me, lap);
                self.pass(next, lap);
            }
        }
        t0.elapsed().as_secs_f64() / (laps as usize * n) as f64
    }
}

/// The two rings of one world.
pub struct Calibration {
    polling: Ring,
    blocking: Ring,
}

impl Calibration {
    pub fn new(n_ranks: usize) -> Self {
        Self {
            polling: Ring::new(n_ranks, YIELD_SPINS),
            blocking: Ring::new(n_ranks, 0),
        }
    }

    /// Every rank of the world calls this with the same `call` number
    /// (0, 1, 2, ...). Geometric mean of the two rings' seconds per hop.
    pub fn hop_seconds(&self, me: usize, call: u64) -> f64 {
        let a = self.polling.hop_seconds(me, call);
        let b = self.blocking.hop_seconds(me, call);
        (a * b).sqrt()
    }
}

/// `seconds` in calibrated microseconds, given the hop seconds measured
/// around it.
pub fn calibrated_us(seconds: f64, hop_seconds: f64) -> f64 {
    seconds / hop_seconds * NOMINAL_HOP_US
}

/// Single-thread calibration for set-up: seconds to allocate, fill, sort
/// and index 64 vectors of 2-128 KiB. Set-up is computation on freshly
/// allocated memory, and on this host the cost of that (page faults,
/// allocator state) wanders apart from plain arithmetic: a cache-resident
/// integer kernel left set-up medians of two rounds of ten runs 17-20 %
/// apart, this one about 1 %.
pub fn compute_seconds() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut keep: Vec<Vec<u64>> = Vec::new();
    for i in 0..64usize {
        let n = 256 + (i * 37 % 64) * 256;
        let mut v: Vec<u64> = Vec::with_capacity(n);
        for _ in 0..n {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            v.push(x >> 11);
        }
        v.sort_unstable();
        keep.push(v);
    }
    let mut index = std::collections::BTreeMap::new();
    for v in &keep {
        for &k in v.iter().step_by(16) {
            *index.entry(k & 0xffff).or_insert(0u64) += 1;
        }
    }
    std::hint::black_box((&keep, &index));
    t0.elapsed().as_secs_f64()
}
