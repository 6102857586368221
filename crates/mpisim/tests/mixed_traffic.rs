//! Mixing plain and persistent traffic on one signature is unsupported,
//! and says so instead of hanging: whichever wait the receiver is blocked
//! in, on whichever fabric, its stall probe finds the message sitting on
//! the path that wait bypasses and aborts naming the signature and the
//! side to fix.

use mpisim::persistent::shared_buf;
use mpisim::{Fabric, RankCtx, WorldConfig};

/// The blocked wait of one row; rank 0 sends the other way round.
#[derive(Clone, Copy, Debug)]
enum Blocked {
    /// `RecvChan::wait_take`, blocking on the one channel by hand.
    Persistent,
    /// `PrecvReq::wait`, facing a plain send on partition 0's sub-tag.
    Partitioned,
    /// `RankCtx::wait_any` over the one channel, where the
    /// completion-driven `wait` parks.
    WaitAny,
    /// The reverse direction: a plain `recv` facing a persistent send.
    PlainRecv,
}

/// Sub-tag of partition 0 of a partitioned message with user tag `tag`.
fn part0(tag: u64) -> u64 {
    tag + (1 << 20)
}

fn offend(ctx: &mut RankCtx, wait: Blocked, tag: u64) {
    let comm = ctx.comm_world();
    match wait {
        Blocked::PlainRecv => ctx
            .send_chan_init::<f64>(&comm, 1, tag, 1)
            .start_with(ctx, |buf| buf.push(1.0)),
        Blocked::Partitioned => ctx.send(&comm, 1, part0(tag), &[1.0f64]),
        _ => ctx.send(&comm, 1, tag, &[1.0f64]),
    }
}

fn block(ctx: &mut RankCtx, wait: Blocked, tag: u64) {
    let comm = ctx.comm_world();
    match wait {
        Blocked::Persistent => {
            let mut recv = ctx.recv_chan_init::<f64>(&comm, 0, tag, 1);
            recv.start();
            recv.wait_take(ctx);
        }
        Blocked::WaitAny => {
            let mut recv = ctx.recv_chan_init::<f64>(&comm, 0, tag, 1);
            recv.start();
            ctx.wait_any(&[recv.chan_id()]);
        }
        Blocked::Partitioned => {
            let mut recv = ctx.precv_init(&comm, 0, tag, shared_buf(vec![0.0f64; 2]), 2);
            recv.start();
            recv.wait(ctx);
        }
        Blocked::PlainRecv => drop(ctx.recv::<f64>(&comm, 0, tag)),
    }
}

#[test]
fn every_blocked_wait_on_every_fabric_names_the_signature_and_the_side_to_fix() {
    const WAITS: [Blocked; 4] = [
        Blocked::Persistent,
        Blocked::Partitioned,
        Blocked::WaitAny,
        Blocked::PlainRecv,
    ];
    // every row runs; the failure lists all that are wrong
    let mut wrong = Vec::new();
    for fabric in Fabric::ALL {
        let pool = WorldConfig::new(fabric).pool(2);
        for (tag, wait) in (3u64..).zip(WAITS) {
            let row = format!("{} / {wait:?}", fabric.name());
            let err = pool
                .try_run(|ctx| match ctx.rank() {
                    0 => offend(ctx, wait, tag),
                    _ => block(ctx, wait, tag),
                })
                .expect_err(&row);
            let msg = &err.message;
            if err.rank != 1 {
                wrong.push(format!("{row}: not the blocked receiver aborted: {err}"));
            }
            let (sits, mixing, side, sig_tag) = match wait {
                Blocked::PlainRecv => (
                    "sits on a persistent channel",
                    "mixing a persistent send with a plain recv",
                    "on the receiver",
                    tag,
                ),
                Blocked::Partitioned => (
                    "sits in the plain mailbox",
                    "mixing a plain send with a persistent receive",
                    "on the sender",
                    part0(tag),
                ),
                _ => (
                    "sits in the plain mailbox",
                    "mixing a plain send with a persistent receive",
                    "on the sender",
                    tag,
                ),
            };
            for phrase in [sits, mixing, side] {
                if !msg.contains(phrase) {
                    wrong.push(format!("{row} lacks {phrase:?}: {msg}"));
                }
            }
            // the signature, either spelled out or as the channel key's tail
            let named = [
                format!("from 0 tag {sig_tag}"),
                format!(", 0, 1, {sig_tag})"),
            ];
            if !named.iter().any(|n| msg.contains(n)) {
                wrong.push(format!(
                    "{row} does not name the signature (src 0, tag {sig_tag}): {msg}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
