//! The two sleeps no deposit addressed to the sleeper ends: a producer
//! parked on a full shm ring, woken by the consumer's pop, and a receiver
//! parked before its message was held back by a fault plan's reorder,
//! woken when the wrapper's flusher releases it. A lost wake of either is
//! otherwise silent: the sleeper's stall period ends the park and the
//! retry succeeds, one period late.
//!
//! Both checks run with a stall period no live peer is ever late by on a
//! loaded box, so a park that ends by it means a wake went missing.

use mpisim::{Fabric, FaultPlan, RankCtx, WorldConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The stall period of every world in this process (read once, at the
/// first world it builds).
const STALL: Duration = Duration::from_millis(2000);

fn long_stall_period() {
    std::env::set_var("MPISIM_STALL_MS", STALL.as_millis().to_string());
}

/// Elements per message: 8 KiB frames, so a persistent-channel ring
/// holds a couple of dozen at most and fills within [`MSGS`].
const LEN: usize = 1024;
const MSGS: u64 = 48;

#[test]
fn a_pop_wakes_the_producer_of_a_full_shm_ring() {
    long_stall_period();
    let pushes = WorldConfig::new(Fabric::Shm).run(2, |ctx: &mut RankCtx| {
        let comm = ctx.comm_world();
        let mut took = Vec::new();
        if ctx.rank() == 0 {
            let tx = ctx.send_chan_init::<u64>(&comm, 1, 0, LEN);
            for i in 0..MSGS {
                let t = Instant::now();
                tx.start_with(ctx, |buf| buf.resize(LEN, i));
                took.push(t.elapsed());
            }
        } else {
            let mut rx = ctx.recv_chan_init::<u64>(&comm, 0, 0, LEN);
            for i in 0..MSGS {
                // slower than the producer: once the ring is full, each
                // push sleeps until this pop frees its space
                std::thread::sleep(Duration::from_millis(2));
                rx.start();
                rx.wait_with(ctx, |got| assert!(got.iter().all(|&v| v == i), "msg {i}"));
            }
        }
        took
    });
    let took = &pushes[0];
    let slowest = took.iter().max().expect("pushes timed");
    assert!(
        *slowest < STALL,
        "a push into a full ring ended by the stall period ({slowest:?}): a pop's \
         space wake was lost"
    );
    assert!(
        took.iter().any(|t| *t >= Duration::from_millis(1)),
        "the producer never waited on a full ring, the run checked nothing: {took:?}"
    );
}

#[test]
fn the_flusher_wakes_a_receiver_parked_before_its_message_was_held() {
    long_stall_period();
    // rank 1's park count before its receive, published once taken
    let parks_before = AtomicU64::new(u64::MAX);
    let received = AtomicBool::new(false);
    // every deposit is chosen for holding: the lone send is held back
    let plan = FaultPlan::seeded(5).reorder(1000);
    let counts = WorldConfig::new(Fabric::Thread)
        .faults(plan)
        .run(2, |ctx: &mut RankCtx| {
            let comm = ctx.comm_world();
            let parks = |ctx: &RankCtx| ctx.stall_report().park_counts[1].parks;
            if ctx.rank() == 0 {
                // send only once rank 1 sleeps in its receive; nothing this
                // rank does afterwards touches the transport (a later op of
                // it would release the held message), so only the flusher can
                let asleep = |ctx: &RankCtx| match parks_before.load(Ordering::Acquire) {
                    u64::MAX => false,
                    before => parks(ctx) > before,
                };
                while !asleep(ctx) {
                    std::thread::yield_now();
                }
                ctx.send(&comm, 1, 9, &[77u32]);
                while !received.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            } else {
                parks_before.store(parks(ctx), Ordering::Release);
                assert_eq!(ctx.recv::<u32>(&comm, 0, 9), [77]);
                received.store(true, Ordering::Release);
            }
            ctx.stall_report().park_counts[1]
        });
    let receiver = counts[1];
    assert_eq!(
        receiver.park_timeouts, 0,
        "the receiver waited out its stall period: the flusher did not release \
         the held message ({receiver:?})"
    );
}
