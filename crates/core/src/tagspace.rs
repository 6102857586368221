//! Leased tag namespaces for concurrently live collectives.
//!
//! Every live collective needs a private tag range on its communicator:
//! the routing layer lays out `tag_base + step·4096 + seq` per message and,
//! splitting a g message at its partition bounds
//! ([`crate::RankRouting::split_at_partitions`]), folds `(partition + 1)
//! << 20` on top, so one collective occupies up to [`SPAN`] tags. The old allocator was a global
//! atomic counter that silently wrapped after [`CAPACITY`] allocations —
//! the 512th *live* collective would re-use the first one's range and
//! cross-deliver without a diagnostic.
//!
//! This module replaces it with a real allocator:
//!
//! * [`TagSpace::lease`] hands out a contiguous range of spans
//!   ([`TagLease`]) — one span per collective, N spans for an N-entry
//!   [`crate::NeighborBatch`] — so a batch carves its entries' namespaces
//!   from one lease instead of N atomic fetches.
//! * Dropping a lease returns its range to a free list keyed by span
//!   count; a churny workload (collectives created and dropped per solve)
//!   re-uses the same handful of bases forever instead of marching toward
//!   the wrap.
//! * Exhaustion is **loud**: holding more than [`CAPACITY`] spans live at
//!   once panics with a diagnostic instead of silently aliasing tag space.
//!
//! * Hand-picked bases remain possible ([`TagSpace::pin`], what the
//!   `tag_base` builder setters use): a pinned range is registered with
//!   the allocator so later leases skip it — a pin inside the leaseable
//!   range `[SPAN, 2³⁹)` cannot silently alias a future lease. Collisions
//!   between pins, or with leases taken before the pin, stay the caller's
//!   contract.
//!
//! Ranges freed with one span count are only re-used by leases of the same
//! span count (exact-size free lists, no splitting/merging) — fresh space
//! is consumed otherwise, which the exhaustion check still bounds.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Tags per leased span: room for the four step namespaces (`step·4096 +
/// seq`) plus up to 1023 partition sub-tags (`(partition + 1) << 20`).
pub const SPAN: u64 = 1 << 30;
/// Leases live in `[SPAN, WRAP)`, keeping `[0, SPAN)` free for
/// hand-picked bases and every tag, partition sub-tags included, in the
/// lower half of the simulator's user tag space.
const WRAP: u64 = 1 << 39;
/// Spans that can be simultaneously live: 511.
pub const CAPACITY: u64 = WRAP / SPAN - 1;

/// A pool of tag spans. One process-global instance backs every
/// builder-allocated base ([`TagSpace::global`]); tests create private
/// pools so exhausting one cannot poison unrelated collectives.
#[derive(Default)]
pub struct TagSpace {
    state: Mutex<PoolState>,
}

#[derive(Default)]
struct PoolState {
    /// Bump pointer over never-used space, in spans from [`SPAN`].
    next: u64,
    /// Freed ranges by exact span count.
    free: HashMap<u64, Vec<u64>>,
    /// Spans currently leased, for the exhaustion diagnostic.
    live: u64,
    /// Caller-pinned tag ranges (`[start, end)`, raw tags): the bump
    /// pointer skips them so a lease never aliases a pinned collective.
    pinned: Vec<(u64, u64)>,
}

/// An exclusively held contiguous range of tag spans — allocator-chosen
/// ([`TagSpace::lease`], returned to the free list on drop) or
/// caller-pinned ([`TagSpace::pin`], unregistered from the pinned set on
/// drop).
pub struct TagLease {
    pool: Arc<TagSpace>,
    base: u64,
    spans: u64,
    pinned: bool,
}

impl TagSpace {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The process-global pool behind builder-allocated tag bases.
    pub fn global() -> &'static Arc<TagSpace> {
        static GLOBAL: OnceLock<Arc<TagSpace>> = OnceLock::new();
        GLOBAL.get_or_init(TagSpace::new)
    }

    /// Lease `spans` contiguous spans. Panics when the pool cannot satisfy
    /// the request — more than [`CAPACITY`] spans live, or no fresh space
    /// and no freed range of exactly `spans` spans.
    pub fn lease(self: &Arc<Self>, spans: u64) -> TagLease {
        self.lease_for(spans, "collective")
    }

    /// [`TagSpace::lease`] with a named owner: the exhaustion panic then
    /// says WHOSE lease pushed the pool over — with hundreds of live
    /// collectives, "tag space exhausted" alone doesn't tell the caller
    /// which batch to drop.
    pub fn lease_for(self: &Arc<Self>, spans: u64, owner: &str) -> TagLease {
        assert!(spans > 0, "a lease needs at least one span");
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let base = if let Some(base) = st.free.get_mut(&spans).and_then(|v| v.pop()) {
            base
        } else {
            // bump allocation, skipping any caller-pinned range
            loop {
                let start = SPAN + st.next * SPAN;
                let end = start + spans * SPAN;
                match st
                    .pinned
                    .iter()
                    .filter(|&&(ps, pe)| ps < end && start < pe)
                    .map(|&(_, pe)| pe)
                    .max()
                {
                    // place the candidate just past the pin (strictly
                    // advances: the pin's end lies beyond the old start)
                    Some(pe) => st.next = (pe - SPAN).div_ceil(SPAN),
                    None => break,
                }
            }
            assert!(
                st.next + spans <= CAPACITY,
                "tag space exhausted leasing for {owner}: {} spans live, {spans} \
                 more requested (capacity {CAPACITY}); too many simultaneously \
                 live collectives — drop finished builders/batches so their \
                 leases free",
                st.live,
            );
            let b = SPAN + st.next * SPAN;
            st.next += spans;
            b
        };
        st.live += spans;
        TagLease {
            pool: Arc::clone(self),
            base,
            spans,
            pinned: false,
        }
    }

    /// Register a caller-pinned range of `spans` spans at `base`: future
    /// leases will never overlap it (the caller still owns collisions
    /// between pins, and against leases taken *before* the pin). Held
    /// until the returned lease drops.
    pub fn pin(self: &Arc<Self>, base: u64, spans: u64) -> TagLease {
        assert!(spans > 0, "a pin needs at least one span");
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.pinned.push((base, base + spans * SPAN));
        TagLease {
            pool: Arc::clone(self),
            base,
            spans,
            pinned: true,
        }
    }

    /// Spans currently leased (diagnostics/tests).
    pub fn live_spans(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .live
    }
}

impl TagLease {
    /// First tag of the lease.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of contiguous spans held.
    pub fn spans(&self) -> u64 {
        self.spans
    }

    /// Tag base of the `i`-th span — how a batch carves one namespace per
    /// entry out of its single lease.
    pub fn entry_base(&self, i: usize) -> u64 {
        assert!((i as u64) < self.spans, "entry {i} outside the lease");
        self.base + (i as u64) * SPAN
    }
}

impl Drop for TagLease {
    fn drop(&mut self) {
        // recover the state even if a panic (e.g. the exhaustion
        // diagnostic) poisoned the mutex — the pool's invariants are
        // simple counters mutated atomically under the lock
        let mut st = self
            .pool
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if self.pinned {
            let range = (self.base, self.base + self.spans * SPAN);
            if let Some(i) = st.pinned.iter().position(|&r| r == range) {
                st.pinned.swap_remove(i);
            }
        } else {
            st.live -= self.spans;
            st.free.entry(self.spans).or_default().push(self.base);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leases_are_disjoint_while_live() {
        let pool = TagSpace::new();
        let leases: Vec<TagLease> = (0..8).map(|_| pool.lease(1)).collect();
        let mut bases: Vec<u64> = leases.iter().map(TagLease::base).collect();
        bases.sort_unstable();
        bases.dedup();
        assert_eq!(bases.len(), 8, "live leases must not share a base");
        assert_eq!(pool.live_spans(), 8);
    }

    #[test]
    fn freed_bases_are_reused() {
        let pool = TagSpace::new();
        let first = pool.lease(1).base();
        // churn far past the old allocator's 511-live capacity: with
        // drop-time reuse the pool never consumes fresh space
        for _ in 0..10_000 {
            assert_eq!(pool.lease(1).base(), first);
        }
        assert_eq!(pool.live_spans(), 0);
    }

    #[test]
    fn batch_lease_carves_contiguous_entry_bases() {
        let pool = TagSpace::new();
        let lease = pool.lease(4);
        for i in 0..4 {
            assert_eq!(lease.entry_base(i), lease.base() + i as u64 * SPAN);
        }
        // the next lease must not overlap any of the four entry spans
        let other = pool.lease(1);
        assert!(other.base() >= lease.base() + 4 * SPAN);
    }

    #[test]
    #[should_panic(expected = "entry 2 outside the lease")]
    fn entry_base_outside_lease_panics() {
        let pool = TagSpace::new();
        pool.lease(2).entry_base(2);
    }

    #[test]
    fn leases_skip_pinned_ranges() {
        let pool = TagSpace::new();
        // pin squarely inside the leaseable range, wider than one span
        let pin = pool.pin(2 * SPAN, 3);
        for _ in 0..4 {
            let l = pool.lease(1);
            let (ls, le) = (l.base(), l.base() + SPAN);
            assert!(
                le <= 2 * SPAN || ls >= 5 * SPAN,
                "lease [{ls}, {le}) overlaps the pinned range"
            );
            std::mem::forget(l); // keep live so the next lease advances
        }
        drop(pin);
        // once the pin is gone, the skipped space is NOT reclaimed (bump
        // pointer already moved past) — but new pins can take it again
        let repin = pool.pin(2 * SPAN, 3);
        assert_eq!(repin.entry_base(0), 2 * SPAN);
    }

    /// Regression for the pre-batch `alloc_tag_base` hazard: the global
    /// atomic wrapped after [`CAPACITY`] allocations, so the 512th *live*
    /// collective silently aliased the first one's tag range. The
    /// allocator must refuse loudly instead — and the diagnostic must say
    /// WHOSE lease overflowed the pool, how big it was, and how many spans
    /// were already live, so the caller knows which batch to drop.
    #[test]
    fn span_512_live_panics_instead_of_wrapping() {
        let pool = TagSpace::new();
        let _live: Vec<TagLease> = (0..CAPACITY - 1).map(|_| pool.lease(1)).collect();
        let pool2 = Arc::clone(&pool);
        // a 3-span batch lease where only 1 span remains (the old
        // allocator handed back base 0's span here)
        let err = std::thread::spawn(move || {
            let _overflow = pool2.lease_for(3, "NeighborBatch[3 entries]");
        })
        .join()
        .expect_err("overflow lease must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is a formatted message");
        for needle in [
            "tag space exhausted",
            "NeighborBatch[3 entries]",
            &format!("{} spans live", CAPACITY - 1),
            "3 more requested",
        ] {
            assert!(msg.contains(needle), "diagnostic {msg:?} lacks {needle:?}");
        }
    }
}
