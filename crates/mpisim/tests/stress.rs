//! Stress/soak tests of the simulated MPI runtime: randomized traffic,
//! nested communicators, collective batteries across world sizes.

use mpisim::collectives::{op_max_u64, op_sum_f64, op_sum_u64};
use mpisim::World;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Randomized point-to-point soak: every rank sends a deterministic random
/// schedule of messages; receivers know the schedule (same seed) and check
/// every payload.
#[test]
fn randomized_p2p_soak() {
    const N: usize = 8;
    const MSGS: usize = 200;
    // schedule[k] = (src, dst, tag, len) — generated identically everywhere
    let schedule: Vec<(usize, usize, u64, usize)> = {
        let mut rng = StdRng::seed_from_u64(2024);
        (0..MSGS)
            .map(|_| {
                let src = rng.gen_range(0..N);
                let mut dst = rng.gen_range(0..N);
                if dst == src {
                    dst = (dst + 1) % N;
                }
                (src, dst, rng.gen_range(0..8u64), rng.gen_range(1..64usize))
            })
            .collect()
    };
    let payload = |k: usize, len: usize| -> Vec<u64> {
        (0..len as u64).map(|i| (k as u64) << 16 | i).collect()
    };

    World::run(N, |ctx| {
        let comm = ctx.comm_world();
        // send in schedule order; receive in schedule order (per-source
        // FIFO per tag keeps this deterministic)
        for (k, &(src, dst, tag, len)) in schedule.iter().enumerate() {
            if ctx.rank() == src {
                ctx.send(&comm, dst, tag, &payload(k, len));
            }
        }
        for (k, &(src, dst, tag, len)) in schedule.iter().enumerate() {
            if ctx.rank() == dst {
                let got: Vec<u64> = ctx.recv(&comm, src, tag);
                assert_eq!(got, payload(k, len), "message {k} corrupted");
            }
        }
    });
}

/// The collectives on every world size 1..=9, with value checks.
#[test]
fn collective_battery_all_sizes() {
    for n in 1..=9usize {
        World::run(n, move |ctx| {
            let comm = ctx.comm_world();
            let me = ctx.rank() as u64;

            let sum = ctx.allreduce(&comm, &[me + 1], op_sum_u64);
            assert_eq!(sum[0], (n as u64 * (n as u64 + 1)) / 2);

            let max = ctx.allreduce(&comm, &[me * me], op_max_u64);
            assert_eq!(max[0], ((n as u64 - 1) * (n as u64 - 1)));

            let gathered = ctx.allgather(&comm, &[me]);
            assert_eq!(gathered, (0..n as u64).collect::<Vec<_>>());

            ctx.barrier(&comm);

            let fsum = ctx.allreduce(&comm, &[0.5f64], op_sum_f64);
            assert!((fsum[0] - n as f64 * 0.5).abs() < 1e-12);
        });
    }
}

/// Collectives on split sub-communicators run independently and correctly.
#[test]
fn collectives_on_subcommunicators() {
    World::run(12, |ctx| {
        let comm = ctx.comm_world();
        let color = (ctx.rank() % 3) as u64;
        let sub = ctx.comm_split(&comm, color, ctx.rank() as u64);
        assert_eq!(sub.size(), 4);
        // sum of world ranks within the color group
        let s = ctx.allreduce(&sub, &[ctx.rank() as u64], op_sum_u64);
        let expect: u64 = (0..12u64).filter(|r| r % 3 == color).sum();
        assert_eq!(s[0], expect);
        // and a nested split of the split
        let sub2 = ctx.comm_split(&sub, (sub.rank() % 2) as u64, 0);
        assert_eq!(sub2.size(), 2);
        ctx.barrier(&sub2);
    });
}

/// Large payloads survive intact (exercise buffering, not just tiny
/// messages).
#[test]
fn large_payload_roundtrip() {
    World::run(2, |ctx| {
        let comm = ctx.comm_world();
        let n = 1 << 18; // 256k doubles = 2 MB
        if ctx.rank() == 0 {
            let data: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
            ctx.send(&comm, 1, 0, &data);
        } else {
            let got: Vec<f64> = ctx.recv(&comm, 0, 0);
            assert_eq!(got.len(), n);
            assert_eq!(got[12345], 12345.0 * 0.25);
            assert_eq!(got[n - 1], (n - 1) as f64 * 0.25);
        }
    });
}

/// Many persistent exchanges interleaved with collectives do not
/// cross-match.
#[test]
fn persistent_and_collectives_interleaved() {
    World::run(4, |ctx| {
        let comm = ctx.comm_world();
        let peer = ctx.rank() ^ 1;
        let send = ctx.send_chan_init::<u64>(&comm, peer, 5, 1);
        let mut recv = ctx.recv_chan_init::<u64>(&comm, peer, 5, 1);
        for it in 0..20u64 {
            let mine = ctx.rank() as u64 * 1000 + it;
            send.start_with(ctx, |buf| buf.push(mine));
            recv.start();
            // a collective in the middle of the exchange
            let total = ctx.allreduce(&comm, &[it], op_sum_u64);
            assert_eq!(total[0], it * 4);
            let got = recv.wait_with(ctx, |data| data[0]);
            assert_eq!(got, peer as u64 * 1000 + it);
        }
    });
}

/// Modeled worlds accumulate strictly increasing clocks under traffic, and
/// collective clocks grow with world size.
#[test]
fn modeled_clocks_accumulate() {
    use locality::Topology;
    use perfmodel::PostalModel;
    use std::sync::Arc;
    let max_clock = |n: usize, rounds: usize| -> f64 {
        let topo = Topology::block_nodes(n, 4);
        let model = Arc::new(PostalModel::new(1e-6, 1e-9));
        World::run_modeled(topo, model, move |ctx| {
            let comm = ctx.comm_world();
            for _ in 0..rounds {
                ctx.allreduce(&comm, &[1u64], op_sum_u64);
            }
            ctx.clock()
        })
        .into_iter()
        .fold(0.0, f64::max)
    };
    let t1 = max_clock(8, 1);
    let t5 = max_clock(8, 5);
    assert!(t5 > 4.0 * t1 && t5 < 6.0 * t1, "t1={t1} t5={t5}");
    assert!(max_clock(16, 1) > max_clock(2, 1));
}
