//! A communicator has a lifetime: `RankCtx::comm_free` makes the world
//! forget a duplicated communicator's channels, on every fabric, and what
//! the fabric kept for them goes back once the handles are dropped — so a
//! warm world can serve dup'd communicators for as long as it likes.

use mpisim::{Comm, Fabric, FaultPlan, RankCtx, RegistryGauge, WorldConfig, WorldPool};

const N: usize = 4;
const LEN: usize = 3;

fn payload(src: usize, stream: u64, msg: usize) -> Vec<u64> {
    (0..LEN as u64)
        .map(|i| (src as u64) << 48 | stream << 16 | (msg as u64) << 8 | i)
        .collect()
}

/// The gauge between epochs: no request of an earlier epoch is alive.
fn gauge(pool: &WorldPool) -> RegistryGauge {
    pool.run(|ctx| ctx.stall_report().registry)[0]
}

/// Ring traffic on `world.dup_for(stream)`: register, barrier (the
/// contract of `comm_free`: every member has registered), free — on every
/// rank **before any message moves**, and a second time — then `msgs`
/// messages over the handles obtained before. Returns the gauge rank 0
/// read after its frees, while every rank's handles were still alive.
fn ring_on_a_freed_comm(ctx: &mut RankCtx, stream: u64, msgs: usize) -> RegistryGauge {
    let world = ctx.comm_world();
    let comm: Comm = world.dup_for(stream);
    let me = ctx.rank();
    let tx = ctx.send_chan_init::<u64>(&comm, (me + 1) % N, 9, LEN);
    let mut rx = ctx.recv_chan_init::<u64>(&comm, (me + N - 1) % N, 9, LEN);
    ctx.barrier(&world);
    ctx.comm_free(&comm);
    ctx.comm_free(&comm);
    ctx.barrier(&world);
    let freed = ctx.stall_report().registry;
    for m in 0..msgs {
        tx.start_with(ctx, |buf| buf.extend(payload(me, stream, m)));
        rx.start();
        rx.wait_with(ctx, |got| {
            assert_eq!(got, payload((me + N - 1) % N, stream, m), "message {m}");
        });
    }
    // nobody drops a handle before rank 0 has sampled the gauge
    ctx.barrier(&world);
    freed
}

#[test]
fn a_freed_communicator_is_forgotten_and_its_handles_still_deliver() {
    for fabric in Fabric::ALL {
        let name = fabric.name();
        let pool = WorldConfig::new(fabric).pool(N);
        let idle = gauge(&pool);
        assert_eq!(idle.channels, 0, "{name}: a fresh world");

        let freed = pool.run(|ctx| ring_on_a_freed_comm(ctx, 1, 5))[0];
        // the registry forgot the context at the first free …
        assert_eq!(freed.channels, 0, "{name}: keys gone after free");
        // … while the fabric still served the live handles
        match fabric {
            Fabric::Thread => {}
            Fabric::Shm => assert_eq!(freed.shm_rows, N, "{name}: rows held by handles"),
            Fabric::Sock => assert_eq!(freed.sock_deliver, N, "{name}: hooks held by handles"),
        }
        // with the handles gone, so is everything the fabric kept
        let after = gauge(&pool);
        assert_eq!(
            RegistryGauge {
                shm_bytes: idle.shm_bytes,
                ..after
            },
            idle,
            "{name}: the gauge is back where the epoch found it"
        );

        // the same (src, dst, tag) keys on a NEW context: fresh channels,
        // and on shm the freed rings are the ones reused
        pool.run(|ctx| ring_on_a_freed_comm(ctx, 2, 5));
        assert_eq!(gauge(&pool), after, "{name}: a second communicator");
    }
}

/// No barrier is needed between registration and traffic: registration
/// is create-or-attach on every fabric, so a persistent deposit that
/// beats its receiver's registration waits for it. Rank 0
/// registers a send on a duplicated communicator, starts it, and only then
/// tells rank 1 by a plain message; rank 1 registers the receive after
/// that message, and the receive attaches to the send's channel and takes
/// the payload. Every rank then frees the communicator in a pool run of
/// its own — the run boundary is what gives `comm_free`'s contract — and
/// the gauge is back where the pool started, but for segment bytes.
#[test]
fn a_deposit_that_beats_its_receivers_registration_is_delivered() {
    const STREAM: u64 = 3;
    for fabric in Fabric::ALL {
        let name = fabric.name();
        let plan = FaultPlan::seeded(0).deadline_ms(10_000);
        let pool = WorldConfig::new(fabric).faults(plan).pool(N);
        let idle = gauge(&pool);
        let got = pool.run(|ctx| {
            let world = ctx.comm_world();
            let comm = world.dup_for(STREAM);
            match ctx.rank() {
                0 => {
                    let tx = ctx.send_chan_init::<u64>(&comm, 1, 9, LEN);
                    tx.start_with(ctx, |buf| buf.extend(payload(0, STREAM, 0)));
                    ctx.send(&world, 1, 9, &[7u64]);
                    None
                }
                1 => {
                    assert_eq!(ctx.recv::<u64>(&world, 0, 9), [7], "{name}");
                    let mut rx = ctx.recv_chan_init::<u64>(&comm, 0, 9, LEN);
                    rx.start();
                    Some(rx.wait_with(ctx, <[u64]>::to_vec))
                }
                _ => None,
            }
        });
        assert_eq!(got[1], Some(payload(0, STREAM, 0)), "{name}");
        assert_eq!(
            gauge(&pool).channels,
            1,
            "{name}: both halves on one channel"
        );
        pool.run(|ctx| ctx.comm_free(&ctx.comm_world().dup_for(STREAM)));
        let freed = gauge(&pool);
        assert_eq!(
            RegistryGauge {
                shm_bytes: idle.shm_bytes,
                ..freed
            },
            idle,
            "{name}: the gauge is back where the pool started"
        );
    }
}

/// Register → free → register, far past what the shm segment could hold
/// if nothing came back: 10 000 communicators × 2 channels want 20 000
/// table rows (of 4096) and 1.2 GB of rings (of 192 MB).
#[test]
fn ten_thousand_communicators_fit_in_a_default_shm_segment() {
    const ROUNDS: u64 = 10_000;
    let pool = WorldConfig::new(Fabric::Shm).pool(2);
    let first = pool.run(|ctx| ring_between_two(ctx, 1..2))[0];
    assert_eq!(first.0, 2, "one row per direction");
    let last = pool.run(|ctx| ring_between_two(ctx, 2..ROUNDS + 1))[0];
    // a rank may register the next communicator while its peer still
    // holds the last one's handles: two communicators' worth at most
    assert!(last.0 <= 4, "{} table rows in use", last.0);
    assert!(
        last.1 - first.1 <= 2 * (65 << 10),
        "the segment grew by {} bytes over {ROUNDS} communicators",
        last.1 - first.1
    );
    assert_eq!(gauge(&pool).shm_rows, 0);
}

/// One communicator per stream, one message each way on it, freed; the
/// shm table rows in use and segment bytes handed out as rank 0 saw them
/// inside the last one.
fn ring_between_two(ctx: &mut RankCtx, streams: std::ops::Range<u64>) -> (usize, u64) {
    let world = ctx.comm_world();
    let (me, peer) = (ctx.rank(), 1 - ctx.rank());
    let mut seen = (0, 0);
    for stream in streams {
        let comm = world.dup_for(stream);
        let tx = ctx.send_chan_init::<u64>(&comm, peer, 9, LEN);
        let mut rx = ctx.recv_chan_init::<u64>(&comm, peer, 9, LEN);
        ctx.barrier(&world);
        let g = ctx.stall_report().registry;
        seen = (g.shm_rows, g.shm_bytes);
        ctx.comm_free(&comm);
        tx.start_with(ctx, |buf| buf.extend(payload(me, stream, 0)));
        rx.start();
        rx.wait_with(ctx, |got| assert_eq!(got, payload(peer, stream, 0)));
    }
    seen
}
