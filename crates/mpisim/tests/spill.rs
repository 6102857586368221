//! A sender that overfills its shm mailbox ring and returns at once: the
//! frames the ring had no room for wait in the sender's own spill queue,
//! and the sender keeps pushing them from its epoch-end wait until the
//! receiver, which starts receiving only after the sender has returned,
//! has taken every one. Every message arrives, in send order, on a
//! one-shot world and on every epoch of a pool. (The same with ranks as
//! processes, where the wait is the closing barrier, is the `overfill`
//! scenario of the workspace's `tests/process_worlds.rs`.)

use mpisim::{Fabric, RankCtx, WorldConfig};
use std::sync::atomic::{AtomicBool, Ordering};

/// 24 messages of 32 KiB: three times the 256 KiB mailbox ring.
const MSGS: u64 = 24;
const LEN: u64 = 4096;

fn message(epoch: u64, i: u64) -> Vec<u64> {
    (0..LEN).map(|j| epoch << 48 | i << 32 | j).collect()
}

/// Rank 0 sends everything and returns; rank 1 waits until it has, then
/// takes the messages one by one and checks each.
fn overfill(ctx: &mut RankCtx, epoch: u64, returned: &AtomicBool) -> u64 {
    let comm = ctx.comm_world();
    if ctx.rank() == 0 {
        for i in 0..MSGS {
            ctx.send(&comm, 1, 7, &message(epoch, i));
        }
        returned.store(true, Ordering::Release);
        return 0;
    }
    // from here on rank 0 makes no transport call of its closure's: what
    // it spilled moves only from its epoch-end wait
    while !returned.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    for i in 0..MSGS {
        let got: Vec<u64> = ctx.recv(&comm, 0, 7);
        assert!(
            got == message(epoch, i),
            "epoch {epoch}: message {i} out of order"
        );
    }
    MSGS
}

#[test]
fn an_overfilled_mailbox_ring_drains_after_its_sender_returned() {
    let shm = WorldConfig::new(Fabric::Shm);
    let returned = AtomicBool::new(false);
    assert_eq!(shm.run(2, |ctx| overfill(ctx, 0, &returned)), [0, MSGS]);
    let pool = shm.pool(2);
    for epoch in 1..4 {
        returned.store(false, Ordering::Release);
        let got = pool.run(|ctx| overfill(ctx, epoch, &returned));
        assert_eq!(got, [0, MSGS], "pool epoch {epoch}");
    }
}
