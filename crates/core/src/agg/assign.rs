//! Leader assignment: which rank in a region handles which remote region.
//!
//! Paper §3.2: "Methods of aggregation ... partition the communication
//! across all processes per region so that each sends a minimal portion of
//! messages for small data sizes, or an equal portion of data when sizes
//! are large", and §2: "each process in a region communicates with a unique
//! subset of other regions".
//!
//! Load balancing spreads the g volume; it says nothing about *which* of
//! several equally loaded members takes a pair. That choice decides the
//! intra-region hops: every value a sending leader does not originate costs
//! an s message, every value its receiving leader does not need costs an r
//! message. So ties go to the member holding the largest [`Share`] of the
//! pair, which on a fine level (one owner and one consumer per region
//! pair) removes the s and r steps altogether. Only ties change: each
//! region's multiset of member loads evolves exactly as under a
//! lowest-rank tie-break, so the balance is the same.

use locality::Topology;
use std::cmp::Reverse;

/// Per-pair inter-region volumes, sorted ascending by region pair (the
/// order [`crate::agg::Plan::aggregated`] produces them in).
pub type PairVolumes = [((usize, usize), usize)];

/// One member's share of one region pair: `(position of the pair in the
/// volumes, rank, values)`. On the sending side the values are those the
/// rank originates (unique indices under dedup); on the receiving side,
/// the demands whose final destination is the rank. Share lists are
/// sorted by position; a member with no share is absent.
pub type Share = (usize, usize, usize);

/// How inter-region work is spread over a region's ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignStrategy {
    /// Deterministic striping: the leader for remote region `b` within
    /// region `a` is member `b mod |a|`. No setup cost, ignores volumes.
    RoundRobin,
    /// Greedy balance: region pairs are assigned (largest volume first) to
    /// the member with the least accumulated volume. This is the load
    /// balancing the paper amortizes inside
    /// `MPI_Neighbor_alltoallv_init`. Among equally loaded members the one
    /// with the largest [`Share`] of the pair leads, then the lowest rank:
    /// a leader that already owns (sending) or needs (receiving) the
    /// values saves the s or r hop they would otherwise take.
    LoadBalanced,
}

/// Chosen leaders for every ordered region pair with traffic, stored as a
/// pair-sorted flat vector (binary-searched lookups, no tree nodes).
#[derive(Debug, Clone)]
pub struct LeaderAssignment {
    /// `((src_region, dst_region), (sending leader, receiving leader))`,
    /// sorted by pair.
    map: Vec<((usize, usize), (usize, usize))>,
}

impl LeaderAssignment {
    /// Leaders of `pair`. Panics when the pair carried no traffic.
    pub fn get(&self, pair: (usize, usize)) -> (usize, usize) {
        let i = self
            .map
            .binary_search_by_key(&pair, |e| e.0)
            .unwrap_or_else(|_| panic!("region pair {pair:?} carried no traffic"));
        self.map[i].1
    }

    pub fn iter(&self) -> impl Iterator<Item = (&(usize, usize), &(usize, usize))> {
        self.map.iter().map(|(pair, leaders)| (pair, leaders))
    }

    /// Max over ranks of the inter-region volume assigned to them as
    /// senders (the balance metric).
    pub fn max_send_volume(&self, volumes: &PairVolumes, n_ranks: usize) -> usize {
        let mut per_rank = vec![0usize; n_ranks];
        for &(pair, (s, _)) in &self.map {
            let i = volumes
                .binary_search_by_key(&pair, |e| e.0)
                .expect("volume recorded for every assigned pair");
            per_rank[s] += volumes[i].1;
        }
        per_rank.into_iter().max().unwrap_or(0)
    }
}

/// Assign a sending and receiving leader to every region pair in
/// `volumes` (values per pair per iteration, sorted by pair).
/// `send_shares`/`recv_shares` break load-balanced ties (see
/// [`AssignStrategy::LoadBalanced`]); empty lists mean lowest rank wins.
pub fn assign_leaders(
    volumes: &PairVolumes,
    send_shares: &[Share],
    recv_shares: &[Share],
    topo: &Topology,
    strategy: AssignStrategy,
) -> LeaderAssignment {
    debug_assert!(volumes.windows(2).all(|w| w[0].0 < w[1].0), "pair-sorted");
    let mut map = Vec::with_capacity(volumes.len());
    match strategy {
        AssignStrategy::RoundRobin => {
            for &((a, b), _) in volumes {
                let ma = topo.region_members(a);
                let mb = topo.region_members(b);
                let send = ma[b % ma.len()];
                let recv = mb[a % mb.len()];
                map.push(((a, b), (send, recv)));
            }
        }
        AssignStrategy::LoadBalanced => {
            // accumulated volume per rank, for each side separately
            let mut send_load = vec![0usize; topo.n_ranks()];
            let mut recv_load = vec![0usize; topo.n_ranks()];
            map.extend(volumes.iter().map(|&(pair, _)| (pair, (0, 0))));
            // biggest pairs first; ties broken by pair id for determinism
            let mut order: Vec<usize> = (0..volumes.len()).collect();
            order.sort_by_key(|&k| (Reverse(volumes[k].1), k));
            for k in order {
                let ((a, b), v) = volumes[k];
                let send = least_loaded(topo.region_members(a), &send_load, send_shares, k);
                let recv = least_loaded(topo.region_members(b), &recv_load, recv_shares, k);
                send_load[send] += v;
                recv_load[recv] += v;
                map[k].1 = (send, recv);
            }
        }
    }
    // invariants: leaders live in their own regions
    for &((a, b), (s, r)) in &map {
        debug_assert_eq!(topo.region_of(s), a);
        debug_assert_eq!(topo.region_of(r), b);
    }
    LeaderAssignment { map }
}

/// The member of `members` with the least `load`; ties go to the largest
/// share of pair `k`, then to the lowest rank.
fn least_loaded(members: &[usize], load: &[usize], shares: &[Share], k: usize) -> usize {
    let shares = &shares[shares.partition_point(|s| s.0 < k)..shares.partition_point(|s| s.0 <= k)];
    let share = |r: usize| shares.iter().find(|s| s.1 == r).map_or(0, |s| s.2);
    *members
        .iter()
        .min_by_key(|&&r| (load[r], Reverse(share(r)), r))
        .expect("non-empty region")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn volumes(pairs: &[((usize, usize), usize)]) -> Vec<((usize, usize), usize)> {
        let mut v = pairs.to_vec();
        v.sort_unstable_by_key(|e| e.0);
        v
    }

    #[test]
    fn round_robin_stripes_regions() {
        let topo = Topology::block_nodes(16, 4); // 4 regions of 4
        let v = volumes(&[((0, 1), 10), ((0, 2), 10), ((0, 3), 10)]);
        let la = assign_leaders(&v, &[], &[], &topo, AssignStrategy::RoundRobin);
        // sending leaders in region 0 stripe over members 1, 2, 3
        assert_eq!(la.get((0, 1)).0, 1);
        assert_eq!(la.get((0, 2)).0, 2);
        assert_eq!(la.get((0, 3)).0, 3);
        // receiving leaders: member (0 mod 4) = first member of each region
        assert_eq!(la.get((0, 1)).1, 4);
        assert_eq!(la.get((0, 2)).1, 8);
    }

    #[test]
    fn load_balance_beats_round_robin_on_skew() {
        // 3 regions of 4: region 0 sends a huge volume to region 1 and a
        // tiny one to region 2; round-robin pins both to fixed members
        // regardless of volume.
        let topo = Topology::block_nodes(12, 4);
        let v = volumes(&[((0, 1), 1000), ((0, 2), 1), ((1, 2), 500), ((2, 0), 300)]);
        let rr = assign_leaders(&v, &[], &[], &topo, AssignStrategy::RoundRobin);
        let lb = assign_leaders(&v, &[], &[], &topo, AssignStrategy::LoadBalanced);
        assert!(
            lb.max_send_volume(&v, 12) <= rr.max_send_volume(&v, 12),
            "load balancing should not be worse"
        );
    }

    #[test]
    fn load_balance_spreads_equal_pairs() {
        // 4 equal pairs out of region 0 need 4 remote regions: 5 regions of 4
        let topo = Topology::block_nodes(20, 4);
        let v = volumes(&[((0, 1), 7), ((0, 2), 7), ((0, 3), 7), ((0, 4), 7)]);
        let lb = assign_leaders(&v, &[], &[], &topo, AssignStrategy::LoadBalanced);
        let mut leaders: Vec<usize> = v.iter().map(|&(p, _)| lb.get(p).0).collect();
        leaders.sort_unstable();
        leaders.dedup();
        assert_eq!(
            leaders.len(),
            4,
            "four distinct leaders for four equal pairs"
        );
    }

    #[test]
    fn load_balance_ties_go_to_the_largest_share() {
        let topo = Topology::block_nodes(8, 4); // 2 regions of 4
        let v = volumes(&[((0, 1), 5), ((1, 0), 3)]);
        // pair 0 = (0, 1): rank 2 originates most, rank 7 needs most;
        // pair 1 = (1, 0): no shares, so the lowest rank leads
        let send = [(0, 1, 1), (0, 2, 4)];
        let recv = [(0, 5, 2), (0, 7, 3)];
        let lb = assign_leaders(&v, &send, &recv, &topo, AssignStrategy::LoadBalanced);
        assert_eq!(lb.get((0, 1)), (2, 7));
        assert_eq!(lb.get((1, 0)), (4, 0));
        let plain = assign_leaders(&v, &[], &[], &topo, AssignStrategy::LoadBalanced);
        assert_eq!(plain.get((0, 1)), (0, 4));
    }

    #[test]
    fn leaders_stay_in_their_regions() {
        let topo = Topology::block_nodes(32, 8);
        let v = volumes(&[((0, 1), 5), ((1, 0), 9), ((2, 3), 2), ((3, 1), 4)]);
        for strategy in [AssignStrategy::RoundRobin, AssignStrategy::LoadBalanced] {
            let la = assign_leaders(&v, &[], &[], &topo, strategy);
            for (&(a, b), &(s, r)) in la.iter() {
                assert_eq!(topo.region_of(s), a);
                assert_eq!(topo.region_of(r), b);
            }
        }
    }

    #[test]
    fn missing_pair_panics() {
        let topo = Topology::block_nodes(8, 4);
        let v = volumes(&[((0, 1), 3)]);
        let la = assign_leaders(&v, &[], &[], &topo, AssignStrategy::RoundRobin);
        assert_eq!(la.get((0, 1)).0 / 4, 0);
        let r = std::panic::catch_unwind(|| la.get((1, 0)));
        assert!(r.is_err());
    }
}
