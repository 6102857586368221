//! Communicators: ordered groups of ranks with an isolated matching context.

use std::cell::Cell;
use std::sync::Arc;

/// Tag space reserved for internal collective traffic. User tags must stay
/// below this bound (checked on every p2p call).
pub(crate) const USER_TAG_LIMIT: u64 = 1 << 40;

/// A communicator: an ordered set of world ranks plus a context id that
/// isolates its message matching from every other communicator.
///
/// Each rank holds its own `Comm` value (cheap to clone; the rank list is
/// shared). Collective operations must be invoked in the same order by all
/// members, as in MPI.
#[derive(Clone)]
pub struct Comm {
    /// Matching context for point-to-point traffic on this communicator.
    pub(crate) ctx_id: u64,
    /// world rank of each communicator rank, in communicator order.
    pub(crate) ranks: Arc<Vec<usize>>,
    /// This process's rank within the communicator.
    pub(crate) my_rank: usize,
    /// Sequence number isolating successive collectives on this comm.
    pub(crate) coll_seq: Cell<u64>,
    /// Number of `split`s performed, for deterministic child context ids.
    pub(crate) split_seq: Cell<u64>,
    /// Number of `dup`s performed, for deterministic duplicate context ids.
    pub(crate) dup_seq: Cell<u64>,
}

/// Sequence-slot salt separating [`Comm::dup`] ids from split ids.
const DUP_SALT: u64 = 0xA0761D6478BD642F;
/// Sequence-slot salt separating [`Comm::dup_for`] ids from both of the
/// above, so caller-chosen streams never collide with counter-driven dups.
const DUP_STREAM_SALT: u64 = 0xE7037ED1A0B428DB;

impl Comm {
    pub(crate) fn world(n_ranks: usize, my_rank: usize) -> Self {
        Self {
            ctx_id: 0,
            ranks: Arc::new((0..n_ranks).collect()),
            my_rank,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
            dup_seq: Cell::new(0),
        }
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// Calling process's rank within this communicator.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// World rank of communicator rank `r`.
    pub fn world_rank(&self, r: usize) -> usize {
        self.ranks[r]
    }

    /// Communicator rank of world rank `w`, if a member.
    pub fn rank_of_world(&self, w: usize) -> Option<usize> {
        self.ranks.iter().position(|&x| x == w)
    }

    /// Next collective tag (same on all members because collectives are
    /// called in identical order).
    pub(crate) fn next_coll_tag(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        USER_TAG_LIMIT + s
    }

    /// Deterministic context id for the `split_seq`-th split with `color`.
    /// All members compute the same id with no communication.
    pub(crate) fn child_ctx_id(&self, color: u64) -> u64 {
        let s = self.split_seq.get();
        self.split_seq.set(s + 1);
        self.mixed_ctx_id(s, color)
    }

    /// SplitMix64-style mixing keeps ids unique with overwhelming
    /// probability across any realistic number of splits and dups.
    fn mixed_ctx_id(&self, seq: u64, color: u64) -> u64 {
        let mut z = self
            .ctx_id
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(seq.wrapping_mul(0xBF58476D1CE4E5B9))
            .wrapping_add(color.wrapping_mul(0x94D049BB133111EB))
            .wrapping_add(0xD6E8FEB86659FD93);
        z ^= z >> 30;
        z = z.wrapping_mul(0xBF58476D1CE4E5B9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        z | 1 // never collide with the world context 0
    }

    /// Duplicate this communicator: same ranks and rank order, but a fresh
    /// matching context. Point-to-point traffic, persistent channels and
    /// tag bases on the duplicate never alias the parent's (or any
    /// sibling's) because the context id participates in every channel
    /// key, so identical `(src, dst, tag)` signatures on two duplicates
    /// resolve to distinct channels. No communication: all members derive
    /// the same id from the shared `(parent ctx, dup count)` state, as in
    /// `MPI_Comm_dup`. The duplicate starts with fresh collective/split/
    /// dup sequence counters.
    pub fn dup(&self) -> Comm {
        let s = self.dup_seq.get();
        self.dup_seq.set(s + 1);
        self.duplicate_with_ctx(self.mixed_ctx_id(DUP_SALT, s))
    }

    /// [`Comm::dup`] with a caller-chosen stream id instead of the local
    /// dup counter. Two calls with the same `stream` on the same parent
    /// yield the same context id — this is for callers that need context
    /// ids stable across independently-constructed parents (a job
    /// scheduler handing each job a globally unique stream so traffic
    /// from a failed job in one epoch can never alias a later job's,
    /// even though `comm_world()` restarts the dup counter every epoch).
    pub fn dup_for(&self, stream: u64) -> Comm {
        self.duplicate_with_ctx(self.mixed_ctx_id(DUP_STREAM_SALT, stream))
    }

    fn duplicate_with_ctx(&self, ctx_id: u64) -> Comm {
        Comm {
            ctx_id,
            ranks: Arc::clone(&self.ranks),
            my_rank: self.my_rank,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
            dup_seq: Cell::new(0),
        }
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("ctx_id", &self.ctx_id)
            .field("size", &self.size())
            .field("rank", &self.my_rank)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_comm_identity() {
        let c = Comm::world(8, 3);
        assert_eq!(c.size(), 8);
        assert_eq!(c.rank(), 3);
        assert_eq!(c.world_rank(5), 5);
        assert_eq!(c.rank_of_world(7), Some(7));
    }

    #[test]
    fn coll_tags_advance() {
        let c = Comm::world(2, 0);
        let t0 = c.next_coll_tag();
        let t1 = c.next_coll_tag();
        assert_eq!(t1, t0 + 1);
        assert!(t0 >= USER_TAG_LIMIT);
    }

    #[test]
    fn child_ctx_ids_deterministic_and_distinct() {
        let a = Comm::world(4, 0);
        let b = Comm::world(4, 2);
        // Same split sequence + color on different ranks → same id.
        let ia = a.child_ctx_id(5);
        let ib = b.child_ctx_id(5);
        assert_eq!(ia, ib);
        // Different colors at the same split → different ids.
        let a2 = Comm::world(4, 0);
        let x = a2.child_ctx_id(1);
        let a3 = Comm::world(4, 0);
        let y = a3.child_ctx_id(2);
        assert_ne!(x, y);
        // Successive splits differ even with the same color.
        let c = Comm::world(4, 1);
        let first = c.child_ctx_id(9);
        let second = c.child_ctx_id(9);
        assert_ne!(first, second);
    }

    #[test]
    fn dup_ctx_ids_deterministic_distinct_and_fresh() {
        let a = Comm::world(4, 0);
        let b = Comm::world(4, 2);
        // Same dup sequence on different ranks → same id (no communication).
        let da = a.dup();
        let db = b.dup();
        assert_eq!(da.ctx_id, db.ctx_id);
        assert_ne!(da.ctx_id, a.ctx_id);
        // Ranks and rank order carry over.
        assert_eq!(da.size(), 4);
        assert_eq!(da.rank(), 0);
        assert_eq!(db.rank(), 2);
        // Successive dups differ; a dup of a dup differs from both.
        let da2 = a.dup();
        assert_ne!(da.ctx_id, da2.ctx_id);
        let grand = da.dup();
        assert_ne!(grand.ctx_id, da.ctx_id);
        assert_ne!(grand.ctx_id, da2.ctx_id);
        // Fresh counters: the duplicate's first collective tag restarts.
        let _ = a.next_coll_tag();
        assert_eq!(da.next_coll_tag(), USER_TAG_LIMIT);
    }

    #[test]
    fn dup_for_streams_are_stable_and_disjoint_from_dup() {
        let a = Comm::world(4, 0);
        let b = Comm::world(4, 3);
        // Same stream on independently-built parents → same id.
        assert_eq!(a.dup_for(7).ctx_id, b.dup_for(7).ctx_id);
        // Distinct streams → distinct ids.
        assert_ne!(a.dup_for(7).ctx_id, a.dup_for(8).ctx_id);
        // Stream-driven ids never collide with counter-driven dup ids
        // for small stream values (the salts separate the families).
        let counter_ids: Vec<u64> = (0..16).map(|_| a.dup().ctx_id).collect();
        for s in 0..16 {
            assert!(!counter_ids.contains(&a.dup_for(s).ctx_id));
        }
        // ...or with split ids at matching colors.
        let c = Comm::world(4, 0);
        let split_id = c.child_ctx_id(3);
        assert_ne!(c.dup_for(3).ctx_id, split_id);
    }
}
