//! The wake protocol under load: every kind of receive a rank can sleep in
//! — a single channel's `wait_with`, `wait_any` over a set, a plain `recv`,
//! a barrier — mixed for more than 10⁵ messages on every fabric, and no
//! park of any rank ends by the stall period. A lost wake is otherwise
//! silent: the stall probe re-checks and the message is found one period
//! late.
//!
//! Dense traffic alone would hide one — the next deposit to the same rank
//! wakes it anyway — so every fourth round a token also laps the ring
//! while every rank that has passed it on sleeps until rank 0 has it back:
//! each hop is then the only deposit in the world, to a rank that is
//! asleep, and only that deposit's wake can end the park.

use mpisim::{Fabric, ParkCounts, RankCtx, WorldConfig};

const N: usize = 8;
const ROUNDS: u64 = 2500;
/// Messages a rank sends per round: one ring channel, [`SET`] set
/// channels, one plain send.
const PER_ROUND: u64 = 2 + SET.len() as u64;
/// Strides of the channels a rank retires with `wait_any`.
const SET: [usize; 3] = [2, 3, 5];
const CHAN_LEN: usize = 4;

/// What `src` sends on `tag` in `round` — the receiver recomputes it.
fn payload(src: usize, tag: u64, round: u64, len: usize) -> Vec<u64> {
    (0..len as u64)
        .map(|i| (src as u64) << 48 | tag << 40 | round << 8 | i)
        .collect()
}

fn traffic(ctx: &mut RankCtx) -> ParkCounts {
    let comm = ctx.comm_world();
    let me = ctx.rank();
    let to = |stride: usize| (me + stride) % N;
    let from = |stride: usize| (me + N - stride) % N;

    let ring_tx = ctx.send_chan_init::<u64>(&comm, to(1), 0, CHAN_LEN);
    let mut ring_rx = ctx.recv_chan_init::<u64>(&comm, from(1), 0, CHAN_LEN);
    let set_tx = SET.map(|s| ctx.send_chan_init::<u64>(&comm, to(s), 1, CHAN_LEN));
    let mut set_rx = SET.map(|s| ctx.recv_chan_init::<u64>(&comm, from(s), 1, CHAN_LEN));
    let token_tx = ctx.send_chan_init::<u64>(&comm, to(1), 3, 1);
    let mut token_rx = ctx.recv_chan_init::<u64>(&comm, from(1), 3, 1);

    for round in 0..ROUNDS {
        // now and then one rank is late, so its receivers are past their
        // spin and genuinely asleep when the deposits land
        if round % 256 == 0 && me == (round / 256) as usize % N {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        ring_tx.start_with(ctx, |buf| buf.extend(payload(me, 0, round, CHAN_LEN)));
        for tx in &set_tx {
            tx.start_with(ctx, |buf| buf.extend(payload(me, 1, round, CHAN_LEN)));
        }
        let plain_len = 1 + (round as usize + me) % 9;
        ctx.send(&comm, to(4), 2, &payload(me, 2, round, plain_len));

        ring_rx.start();
        ring_rx.wait_with(ctx, |got| {
            assert_eq!(
                got,
                payload(from(1), 0, round, CHAN_LEN),
                "ring, round {round}"
            );
        });

        set_rx.iter_mut().for_each(|rx| rx.start());
        let mut pending: Vec<usize> = (0..SET.len()).collect();
        while !pending.is_empty() {
            let ids: Vec<_> = pending.iter().map(|&i| set_rx[i].chan_id()).collect();
            let i = pending.remove(ctx.wait_any(&ids));
            let got = set_rx[i].try_take(ctx).expect("wait_any reported it");
            assert_eq!(
                got,
                payload(from(SET[i]), 1, round, CHAN_LEN),
                "set, round {round}"
            );
            set_rx[i].recycle(got);
        }

        let got: Vec<u64> = ctx.recv(&comm, from(4), 2);
        let sent_len = 1 + (round as usize + from(4)) % 9;
        assert_eq!(
            got,
            payload(from(4), 2, round, sent_len),
            "plain, round {round}"
        );

        if round % 64 == 63 {
            ctx.barrier(&comm);
        }

        // the token lap, by a different kind of wait each time
        if round % 4 == 3 {
            let lap = round / 4;
            let pass = |ctx: &mut RankCtx| match lap % 3 {
                2 => ctx.send(&comm, to(1), 4, &[lap]),
                _ => token_tx.start_with(ctx, |buf| buf.push(lap)),
            };
            let mut take = |ctx: &mut RankCtx| match lap % 3 {
                0 => {
                    token_rx.start();
                    token_rx.wait_with(ctx, |got| got[0])
                }
                1 => {
                    token_rx.start();
                    ctx.wait_any(&[token_rx.chan_id()]);
                    let got = token_rx.try_take(ctx).expect("wait_any reported it");
                    let token = got[0];
                    token_rx.recycle(got);
                    token
                }
                _ => ctx.recv::<u64>(&comm, from(1), 4)[0],
            };
            if me == 0 {
                pass(ctx);
                assert_eq!(take(ctx), lap, "token back, lap {lap}");
                for rank in 1..N {
                    ctx.send(&comm, rank, 5, &[lap]);
                }
            } else {
                assert_eq!(take(ctx), lap, "token, lap {lap}");
                pass(ctx);
                assert_eq!(ctx.recv::<u64>(&comm, 0, 5), [lap], "lap {lap} over");
            }
        }
    }
    ctx.stall_report().park_counts[me]
}

#[test]
fn no_park_ends_by_the_stall_period_on_any_fabric() {
    // the assertion is about wakes, not about how long the scheduler of a
    // loaded box may keep a sender off the CPU: a period no live sender
    // is ever late by (read once, at the first world this process builds)
    std::env::set_var("MPISIM_STALL_MS", "2000");
    assert!(N as u64 * ROUNDS * PER_ROUND >= 100_000);
    for fabric in Fabric::ALL {
        let counts = WorldConfig::new(fabric).run(N, traffic);
        let name = fabric.name();
        for (rank, c) in counts.iter().enumerate() {
            assert_eq!(c.park_timeouts, 0, "{name} rank {rank}: {c:?}");
        }
        assert!(
            counts.iter().any(|c| c.parks > 0),
            "{name}: no rank ever slept, the run checked nothing: {counts:?}"
        );
    }
}
