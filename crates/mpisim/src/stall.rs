//! Stall-probe cadence, wait deadlines, and stall forensics.
//!
//! Every blocking primitive in the runtime wakes on a short timer (the
//! *stall probe*) to re-check peer liveness instead of parking forever.
//! Two knobs (parsed with the rest of the environment in `env.rs`) govern
//! that machinery:
//!
//! * `MPISIM_STALL_MS` — the probe period (default 50 ms). Lower values
//!   tighten failure-detection latency at the cost of more wakeups.
//! * `MPISIM_DEADLINE_MS` — an optional hard bound on any single blocked
//!   wait. When it expires the world assembles a [`StallReport`] and
//!   aborts with the dump instead of hanging, turning the stall probe
//!   into a deadlock detector.
//!
//! A deadline can also be attached programmatically to one world via
//! [`FaultPlan::deadline_ms`](crate::FaultPlan::deadline_ms), which takes
//! precedence over the environment for that world only.

use std::fmt;

/// Stall-probe period in milliseconds (`MPISIM_STALL_MS`, default 50),
/// resolved once per process with the rest of the environment.
pub(crate) fn stall_ms() -> u64 {
    crate::env::get().stall_ms
}

/// What one rank was blocked on when a stall report was assembled.
#[derive(Debug, Clone)]
pub struct RankWait {
    /// World rank of the blocked party.
    pub rank: usize,
    /// Which primitive it was parked in (`"plain recv"`, `"wait_any"`, …).
    pub kind: &'static str,
    /// The channel signatures it was waiting on, as `(ctx, src, dst, tag)`.
    pub chans: Vec<(u64, usize, usize, u64)>,
    /// How long it had been blocked when the report was taken.
    pub waited_ms: u64,
}

/// How often one rank's park point put it to sleep, since the world was
/// built. Plain counters only the rank itself writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParkCounts {
    /// Times the rank went to sleep in the kernel (a channel receive spins
    /// first; a message that lands during the spin costs no park).
    pub parks: u64,
    /// Parks that ended by the stall period (`MPISIM_STALL_MS`) instead
    /// of a wake. A healthy run waiting on live senders reads 0: a
    /// timeout is a sender that was late by a whole period, or a lost wake.
    pub park_timeouts: u64,
}

/// What the world keeps per registered persistent channel — all of it
/// given back once a communicator is freed ([`crate::RankCtx::comm_free`])
/// and the handles to its channels are dropped, so an epoch that frees
/// every communicator it duplicated leaves this gauge where it found it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryGauge {
    /// Channels in this process's registry.
    pub channels: usize,
    /// Shm fabric: rows of the segment's registration table in use.
    pub shm_rows: usize,
    /// Shm fabric: bytes of the segment handed out so far (a freed ring
    /// is recycled, not returned, so this levels off instead of falling).
    pub shm_bytes: u64,
    /// Sock fabric: receive hooks registered with the link threads.
    pub sock_deliver: usize,
    /// Sock fabric: payloads that arrived for a channel nobody here has
    /// registered.
    pub sock_undelivered: usize,
}

/// Liveness of one attached peer process (shm fabric only).
#[derive(Debug, Clone, Copy)]
pub struct PeerStatus {
    pub rank: usize,
    pub pid: u32,
    pub alive: bool,
}

/// Health of one socket link (sock fabric only): connection state,
/// queued-but-unsent frames, sent-but-unacknowledged frames, and how
/// long ago the peer was last heard from.
#[derive(Debug, Clone)]
pub struct LinkStatus {
    /// Peer process index the link reaches.
    pub peer: usize,
    /// `"connecting"` (never yet connected), `"connected"`,
    /// `"reconnecting"`, `"dead"`, or `"busy"` when the link lock was
    /// contended at sampling time.
    pub state: &'static str,
    /// Frames queued for the link thread but not yet written.
    pub outbox: usize,
    /// Sequenced frames written but not yet acknowledged (replay buffer).
    pub unacked: usize,
    /// Milliseconds since any frame (heartbeats included) arrived.
    pub heartbeat_age_ms: u64,
    /// Sequenced frames written since the link was created (re-sends
    /// after a reconnect count again).
    pub frames_tx: u64,
    /// `write` cycles of the link thread; `frames_tx / write_calls` is
    /// how many frames one syscall carried.
    pub write_calls: u64,
    /// Sequenced frames accepted in order.
    pub frames_rx: u64,
    /// `read` calls of the link thread.
    pub read_calls: u64,
    /// Times a wake from a sender, an install, a sever or teardown ended
    /// the link thread's park.
    pub writer_wakes: u64,
}

/// A forensic dump of the world at the moment a wait deadline expired
/// (or a peer death was observed inside a guarded wait).
///
/// Assembled by the runtime and carried in the abort panic message; all
/// fields are best-effort snapshots — a depth of `None` means the owning
/// lock was held by a blocked rank and could not be sampled.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// Epoch counter of the world (1 for one-shot worlds: they run one
    /// pool epoch).
    pub epoch: u64,
    /// Rank known to have died/panicked, when the transport recorded one.
    pub dead_rank: Option<usize>,
    /// Every locally-observable parked wait. In a process world
    /// ([`crate::RemoteWorld`]) this covers only the reporting process's
    /// rank; with ranks as threads it covers all ranks.
    pub waits: Vec<RankWait>,
    /// Unexpected-message queue depth per destination rank mailbox.
    pub mailbox_depths: Vec<Option<usize>>,
    /// Park counters per world rank (atomics, so always readable).
    pub park_counts: Vec<ParkCounts>,
    /// Which fabric the world runs over (`"thread"` / `"shm"` / `"sock"`).
    pub fabric: &'static str,
    /// Frames still queued in the shm outbox (or summed across all socket
    /// link outboxes; 0 for the thread fabric).
    pub outbox_depth: usize,
    /// Attached peer pids and their liveness (empty for the thread fabric).
    pub peers: Vec<PeerStatus>,
    /// Per-peer socket link state (empty off the sock fabric).
    pub links: Vec<LinkStatus>,
    /// Occupancy of the channel registry and of what the fabric keeps per
    /// channel.
    pub registry: RegistryGauge,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "StallReport (epoch {}):", self.epoch)?;
        match self.dead_rank {
            Some(r) => writeln!(f, "  dead rank: {r}")?,
            None => writeln!(f, "  dead rank: none recorded")?,
        }
        if self.waits.is_empty() {
            writeln!(f, "  parked waits: none observed")?;
        } else {
            for w in &self.waits {
                write!(
                    f,
                    "  rank {} blocked {} ms in {} on ",
                    w.rank, w.waited_ms, w.kind
                )?;
                if w.chans.is_empty() {
                    writeln!(f, "(no channel signature)")?;
                } else {
                    let sigs: Vec<String> = w
                        .chans
                        .iter()
                        .map(|(ctx, src, dst, tag)| {
                            format!("(ctx {ctx}, src {src}, dst {dst}, tag {tag})")
                        })
                        .collect();
                    writeln!(f, "{}", sigs.join(", "))?;
                }
            }
        }
        let depths: Vec<String> = self
            .mailbox_depths
            .iter()
            .map(|d| match d {
                Some(n) => n.to_string(),
                None => "?".into(),
            })
            .collect();
        writeln!(
            f,
            "  mailbox unexpected-queue depths: [{}]",
            depths.join(", ")
        )?;
        let parks: Vec<String> = self
            .park_counts
            .iter()
            .map(|c| format!("{} ({})", c.parks, c.park_timeouts))
            .collect();
        writeln!(f, "  parks (timed out) per rank: [{}]", parks.join(", "))?;
        writeln!(f, "  transport fabric: {}", self.fabric)?;
        writeln!(f, "  outbox depth: {}", self.outbox_depth)?;
        let g = &self.registry;
        write!(f, "  channels registered: {}", g.channels)?;
        match self.fabric {
            "shm" => writeln!(
                f,
                " (shm table rows {} of {}, {} segment bytes)",
                g.shm_rows,
                crate::transport::shm::segment::TABLE_CAP,
                g.shm_bytes
            )?,
            "sock" => writeln!(
                f,
                " (sock deliver hooks {}, undelivered {})",
                g.sock_deliver, g.sock_undelivered
            )?,
            _ => writeln!(f)?,
        }
        if self.peers.is_empty() {
            write!(f, "  peers: in-process (thread fabric)")?;
        } else {
            let peers: Vec<String> = self
                .peers
                .iter()
                .map(|p| {
                    format!(
                        "rank {} pid {} {}",
                        p.rank,
                        p.pid,
                        if p.alive { "alive" } else { "DEAD" }
                    )
                })
                .collect();
            write!(f, "  peers: {}", peers.join(", "))?;
        }
        for l in &self.links {
            write!(
                f,
                "\n  link to proc {}: {} (outbox {}, unacked {}, last heard {} ms ago)",
                l.peer, l.state, l.outbox, l.unacked, l.heartbeat_age_ms
            )?;
            write!(
                f,
                "\n    {} frames in {} writes, {} frames in {} reads, {} writer wakes",
                l.frames_tx, l.write_calls, l.frames_rx, l.read_calls, l.writer_wakes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_report_display_mentions_every_section() {
        let report = StallReport {
            epoch: 3,
            dead_rank: Some(2),
            waits: vec![RankWait {
                rank: 1,
                kind: "plain recv",
                chans: vec![(0, 2, 1, 9)],
                waited_ms: 5001,
            }],
            mailbox_depths: vec![Some(0), None, Some(4)],
            park_counts: vec![
                ParkCounts {
                    parks: 12,
                    park_timeouts: 1,
                },
                ParkCounts::default(),
            ],
            fabric: "sock",
            outbox_depth: 7,
            peers: vec![PeerStatus {
                rank: 2,
                pid: 4242,
                alive: false,
            }],
            links: vec![LinkStatus {
                peer: 2,
                state: "reconnecting",
                outbox: 3,
                unacked: 11,
                heartbeat_age_ms: 812,
                frames_tx: 640,
                write_calls: 20,
                frames_rx: 512,
                read_calls: 16,
                writer_wakes: 9,
            }],
            registry: RegistryGauge {
                channels: 31,
                sock_deliver: 30,
                sock_undelivered: 2,
                ..RegistryGauge::default()
            },
        };
        let text = report.to_string();
        assert!(text.contains("StallReport (epoch 3)"));
        assert!(text.contains("dead rank: 2"));
        assert!(text.contains("rank 1 blocked 5001 ms in plain recv"));
        assert!(text.contains("(ctx 0, src 2, dst 1, tag 9)"));
        assert!(text.contains("[0, ?, 4]"));
        assert!(text.contains("parks (timed out) per rank: [12 (1), 0 (0)]"));
        assert!(text.contains("transport fabric: sock"));
        assert!(text.contains("outbox depth: 7"));
        assert!(text.contains("channels registered: 31 (sock deliver hooks 30, undelivered 2)"));
        assert!(text.contains("pid 4242 DEAD"));
        assert!(text.contains(
            "link to proc 2: reconnecting (outbox 3, unacked 11, last heard 812 ms ago)"
        ));
        assert!(text.contains("640 frames in 20 writes, 512 frames in 16 reads, 9 writer wakes"));
    }

    #[test]
    fn stall_period_has_a_sane_default() {
        // The test binary does not set MPISIM_STALL_MS; the default holds.
        assert!(stall_ms() >= 1);
    }
}
