//! The park point: the one place a world rank sleeps, whatever it is
//! blocked on — a mailbox envelope, one channel, any channel of a set —
//! on every fabric. The thread fabric allocates one [`ParkWords`] per rank
//! (the sock fabric's receive half is a thread fabric, so it shares them);
//! the shm fabric keeps them in its segment, so any process can wake any
//! rank. Every deposit addressed to a rank calls [`ParkWords::notify`],
//! and so does a pop from an shm ring the rank waits for room on; the
//! rank sleeps through [`park_until`]. DESIGN.md §7 states the handshake.

use super::futex;
use crate::stall::ParkCounts;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// The park point of one world rank (or of one shm ring's producer).
/// Nothing but atomics in a fixed layout, so it is valid on the heap and
/// inside the shared segment alike; one per cache line, so ranks never
/// share one.
#[repr(C, align(64))]
#[derive(Default)]
pub(crate) struct ParkWords {
    /// The futex word: the deposit generation in bits 1.., bumped by two
    /// by every deposit addressed to this rank (every pop, for a ring's
    /// producer), and the `parked` flag in
    /// bit 0, raised by the rank as it commits to sleeping and cleared by
    /// the first deposit that finds it raised — the one that pays the wake.
    seq: AtomicU32,
    /// [`ParkCounts`], written by the owning rank only.
    parks: AtomicU64,
    park_timeouts: AtomicU64,
}

const PARKED: u32 = 1;

impl ParkWords {
    /// Record one deposit — the caller has already published the message —
    /// and wake the rank if it is asleep. The bump reports atomically
    /// whether the rank was parked at that instant, and clearing the flag
    /// is a second atomic step only the first such deposit wins, so a
    /// burst of deposits to a sleeping rank pays one `FUTEX_WAKE`, not one
    /// each (DESIGN.md §7).
    pub(crate) fn notify(&self) {
        if self.seq.fetch_add(2, Ordering::SeqCst) & PARKED != 0
            && self.seq.fetch_and(!PARKED, Ordering::SeqCst) & PARKED != 0
        {
            futex::wake_all(&self.seq);
        }
    }

    /// Wake the rank without a deposit (a peer died): its park reports
    /// nothing deposited, so its stall probe runs at once.
    pub(crate) fn wake(&self) {
        futex::wake_all(&self.seq);
    }

    pub(crate) fn counts(&self) -> ParkCounts {
        ParkCounts {
            parks: self.parks.load(Ordering::Relaxed),
            park_timeouts: self.park_timeouts.load(Ordering::Relaxed),
        }
    }

    /// Whether the rank has its flag up: committed to sleeping, or asleep.
    pub(crate) fn parked(&self) -> bool {
        self.seq.load(Ordering::SeqCst) & PARKED != 0
    }

    /// The current deposit generation. Read it BEFORE checking readiness:
    /// a deposit racing the check moves it, and [`ParkWords::park_past`]
    /// then returns without sleeping.
    fn generation(&self) -> u32 {
        self.seq.load(Ordering::SeqCst) & !PARKED
    }

    /// Sleep until the generation has moved past `seen`, for at most one
    /// stall period (`MPISIM_STALL_MS`). `false` when it has not moved:
    /// the caller's stall probe is due. The flag goes up only on the very
    /// value `seen` (a deposit since moved the word and the exchange
    /// fails), and `FUTEX_WAIT` compares the word with that value as it
    /// queues the rank, so no bump after it can outrun the sleep.
    fn park_past(&self, seen: u32) -> bool {
        if self
            .seq
            .compare_exchange(seen, seen | PARKED, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return true;
        }
        self.parks.fetch_add(1, Ordering::Relaxed);
        let timed_out = futex::wait(&self.seq, seen | PARKED, crate::stall::stall_ms());
        // lower the flag unless a deposit already has
        let moved = self.seq.fetch_and(!PARKED, Ordering::SeqCst) & !PARKED != seen;
        if timed_out && !moved {
            self.park_timeouts.fetch_add(1, Ordering::Relaxed);
        }
        moved
    }
}

/// Block the calling rank on `point` until `ready` yields: the one sleep
/// of a rank, each caller with its own readiness check — a matched plain
/// receive, a `wait_any` over a set of channels (a blocking take on one
/// channel parks there too), a push into a full shm ring and a returned
/// rank's epoch-end wait, all run by `WorldState`, and the shm control
/// plane's waits. `stall` runs whenever a park ends with nothing deposited
/// (it aborts on peer death, deadline expiry and mixed plain/persistent
/// traffic).
pub(crate) fn park_until<R>(
    point: &ParkWords,
    mut ready: impl FnMut() -> Option<R>,
    stall: &dyn Fn(),
) -> R {
    loop {
        let seen = point.generation();
        if let Some(r) = ready() {
            return r;
        }
        if !point.park_past(seen) {
            stall();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_park_ends_by_a_deposit_or_is_counted_as_timed_out() {
        let p = ParkWords::default();
        let counts = |parks, park_timeouts| ParkCounts {
            parks,
            park_timeouts,
        };
        // a deposit between the generation read and the park: no sleep
        let seen = p.generation();
        p.notify();
        assert!(p.park_past(seen));
        assert_eq!(p.counts(), counts(0, 0));
        // nothing deposited: one whole stall period, reported as such
        assert!(!p.park_past(p.generation()));
        assert_eq!(p.counts(), counts(1, 1));
        // a deposit that finds the rank asleep wakes it, and lowers the
        // flag, so the deposits behind it pay no wake
        let seen = p.generation();
        std::thread::scope(|s| {
            s.spawn(|| {
                while p.seq.load(Ordering::SeqCst) & PARKED == 0 {
                    std::thread::yield_now();
                }
                p.notify();
                assert_eq!(p.seq.load(Ordering::SeqCst) & PARKED, 0);
                p.notify();
            });
            while !p.park_past(seen) {}
        });
        assert_eq!(p.seq.load(Ordering::SeqCst) & PARKED, 0);
        assert_eq!(p.generation(), seen + 4);
    }
}
