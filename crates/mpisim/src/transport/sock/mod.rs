//! The socket fabric: ranks exchange framed envelopes over TCP or
//! Unix-domain stream connections, one full-duplex link per peer process.
//!
//! Topologies:
//!
//! * **loopback** (`SockTransport::loopback`) — every rank lives in this
//!   process and ALL plain-send / persistent-channel traffic rides one
//!   self-link through a real socket ([`crate::Fabric::Sock`] under a
//!   [`crate::WorldConfig`]). This is the equivalence surface: the full
//!   wire path runs in-process.
//! * **multi-process** (`SockTransport::bind`) — one rank per OS
//!   process, meshed via rendezvous bootstrap (`control`, driven by
//!   [`crate::RemoteWorld`]).
//!
//! Every link, self or remote, is one thread running one loop
//! (`run_link`): it writes its cycles and reads its connection, a
//! self-link reading back what it wrote, and a replaced connection's
//! reader drops at its next turn, so frames reach their consumers in
//! sequence order from one thread. Besides the links, a transport has one
//! accept thread.
//!
//! Failure semantics (the point of this fabric — DESIGN.md §10): connects
//! retry with capped exponential backoff + jitter; idle links carry
//! heartbeats so a silent peer is detected within the reconnect window; a
//! severed connection reconnects and *resumes* from the receiver's
//! cumulative sequence number (replay buffer upstream, duplicate-drop
//! downstream — exactly-once); permanent loss marks the link dead, which
//! every blocked wait observes through `peer_failure` within one stall
//! probe and degrades to a loud abort / [`crate::EpochError`].

pub(crate) mod chan;
pub(crate) mod control;
pub(crate) mod link;

use super::park::ParkWords;
use super::thread::ThreadTransport;
use super::wire::{decode_envelope, encode_env_hdr, ENV_HDR, ENV_LEN_AT};
use super::PARK_SPIN;
use super::{ChanFabric, Transport};
use crate::stall::StallReport;
use crate::state::{ChanKey, Envelope, Payload, WordHasher};
use control::Ctrl;
use link::{
    auto_addr, connect_once, connect_retry, encode_frame, encode_frame_into, invalid_data,
    poll_ready, Accept, Frame, FrameReader, Link, Listener, RxCursor, Stream, ACK_EVERY, DIAL,
    IO_BATCH, K_ACK, K_CHAN, K_CMD, K_DATA, K_DEATH, K_DONE, K_FLUSH, K_HELLO, K_JOIN, K_TABLE,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// What a persistent channel needs from the socket fabric, decided at
/// registration ([`Transport::make_channel`]): the link to push over (if
/// the receiving rank is reached through a socket), the transport to
/// register a delivery closure with (if this process hosts the receiver),
/// and where the receiving rank sleeps.
pub(crate) struct SockChanWire {
    pub route: Option<Arc<Link>>,
    pub register: Option<Arc<SockTransport>>,
    pub park: Arc<ParkWords>,
}

/// Receive-side delivery hook of a registered persistent channel: called
/// by the link thread with the payload's wire bytes; `Err` says why the
/// bytes cannot be a payload of this channel.
pub(crate) type DeliverFn = Arc<dyn Fn(&[u8]) -> Result<(), String> + Send + Sync>;

/// Bytes of a `K_DATA` body ahead of the envelope: `[src u32][dst u32]`,
/// the world ranks it travels between.
const DATA_PREFIX: usize = 8;

/// The handshake frame: who is calling and what it has received so far.
fn hello_frame(proc: usize, rx_seq: u64) -> Vec<u8> {
    let mut hello = [0u8; 12];
    hello[..4].copy_from_slice(&(proc as u32).to_le_bytes());
    hello[4..].copy_from_slice(&rx_seq.to_le_bytes());
    encode_frame(K_HELLO, 0, &hello)
}

/// Parse a [`hello_frame`] into `(proc, rx_seq)`.
fn parse_hello(f: &Frame<'_>) -> std::io::Result<(usize, u64)> {
    let proc = f.body.first_chunk::<4>();
    let rx_seq = f.body.get(4..).and_then(|b| b.first_chunk::<8>());
    match (f.kind, proc, rx_seq) {
        (K_HELLO, Some(proc), Some(rx_seq)) => Ok((
            u32::from_le_bytes(*proc) as usize,
            u64::from_le_bytes(*rx_seq),
        )),
        _ => Err(invalid_data("connection did not open with HELLO")),
    }
}

struct ChanTable {
    /// One hook per live channel this process receives on: registered by
    /// the channel, removed when the channel drops.
    deliver: HashMap<ChanKey, DeliverFn>,
    /// Payloads that arrived before the receiving side registered — or,
    /// for a failed tenant's stragglers, after its channel dropped; those
    /// go with the communicator ([`Transport::release_context`]).
    undelivered: HashMap<ChanKey, Vec<Vec<u8>>>,
}

/// A link thread's copy of the deliver hooks its `CHAN` frames found,
/// good while the table's generation is the one it was filled at:
/// [`SockTransport::register_deliver`] and
/// [`SockTransport::unregister_deliver`] bump the generation under the
/// table lock, and a frame that sees it changed clears the cache first.
/// So the table is locked only on a miss — a key's first frame since a
/// registration changed, or a frame for a key nobody registered yet,
/// whose payload is stashed in `undelivered` as before. A key enters the
/// cache only from the table, never from the wire, so the registry's
/// [`WordHasher`] (no defence against crafted collisions) serves it.
#[derive(Default)]
struct HookCache {
    gen: u64,
    hooks: HashMap<ChanKey, DeliverFn, BuildHasherDefault<WordHasher>>,
}

pub(crate) struct SockTransport {
    pub(crate) my_proc: usize,
    n_procs: usize,
    /// Concrete address our listener answers on (what peers dial).
    pub(crate) listener_addr: String,
    /// The receive half, whole: what the link threads read — and
    /// what a rank sends itself — is deposited here, and every matched
    /// take, park point and rank-death flag is this transport's.
    rx: ThreadTransport,
    /// Per-peer-process links; `None` at `my_proc` in multi-process
    /// worlds (a loopback world has its self-link at index 0).
    pub(crate) links: Vec<Option<Arc<Link>>>,
    chans: Mutex<ChanTable>,
    /// Bumped under the `chans` lock by every registration change; what
    /// a [`HookCache`] checks itself against.
    chans_gen: AtomicU64,
    pub(crate) ctrl: Ctrl,
    accept_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// The writing end of the accept thread's wake pair, for `Drop`.
    accept_wake: UnixStream,
    /// Every link's thread.
    link_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    me: Mutex<Weak<SockTransport>>,
}

impl SockTransport {
    /// All ranks in this process; every message crosses a real socket
    /// through one self-link. Listens on `MPISIM_SOCK_ADDR` if set (a UDS
    /// path or TCP `host:port`; port 0 allocates), else an auto-assigned
    /// UDS path.
    pub(crate) fn loopback(n_ranks: usize) -> Arc<SockTransport> {
        let spec = crate::env::get()
            .sock_addr
            .clone()
            .unwrap_or_else(auto_addr);
        let t = Self::bind_inner(n_ranks, 0, 1, &spec);
        t.dial_self();
        t
    }

    /// Connect a loopback world's self-link through its own listener.
    fn dial_self(&self) {
        let link = self.links[0].as_ref().expect("loopback self-link").clone();
        *link.dial_addr.lock() = Some(self.listener_addr.clone());
        let stream = connect_retry(&self.listener_addr, DIAL).unwrap_or_else(|e| {
            panic!(
                "sock loopback: cannot dial own listener {}: {e}",
                self.listener_addr
            )
        });
        handshake_connect(self.my_proc, &link, stream)
            .unwrap_or_else(|e| panic!("sock loopback: self-link handshake failed: {e}"));
    }

    /// One rank per process: bind a listener and create unconnected links
    /// to every peer. The [`control`] plane drives the rendezvous dialing.
    pub(crate) fn bind(my_proc: usize, n_procs: usize, listen_spec: &str) -> Arc<SockTransport> {
        Self::bind_inner(n_procs, my_proc, n_procs, listen_spec)
    }

    fn bind_inner(
        n_ranks: usize,
        my_proc: usize,
        n_procs: usize,
        listen_spec: &str,
    ) -> Arc<SockTransport> {
        let (listener, listener_addr) = Listener::bind(listen_spec)
            .unwrap_or_else(|e| panic!("sock fabric: cannot bind {listen_spec:?}: {e}"));
        let (wake_rx, accept_wake) = UnixStream::pair().expect("sock accept wake pair");
        let links: Vec<Option<Arc<Link>>> = (0..n_procs)
            .map(|p| {
                if n_procs == 1 {
                    Some(Link::new(0, 0, true))
                } else if p == my_proc {
                    None
                } else {
                    Some(Link::new(p, p, false))
                }
            })
            .collect();
        let t = Arc::new(SockTransport {
            my_proc,
            n_procs,
            listener_addr,
            rx: ThreadTransport::new(n_ranks),
            links,
            chans: Mutex::new(ChanTable {
                deliver: HashMap::new(),
                undelivered: HashMap::new(),
            }),
            chans_gen: AtomicU64::new(0),
            ctrl: Ctrl::default(),
            accept_thread: Mutex::new(None),
            accept_wake,
            link_threads: Mutex::new(Vec::new()),
            me: Mutex::new(Weak::new()),
        });
        *t.me.lock() = Arc::downgrade(&t);
        {
            let mut threads = t.link_threads.lock();
            for link in t.links.iter().flatten() {
                let (l, weak) = (Arc::clone(link), Arc::downgrade(&t));
                let name = match l.self_loop {
                    true => "mpisim-sock-self".to_string(),
                    false => format!("mpisim-sock-l{}", l.peer_proc),
                };
                let spawned = std::thread::Builder::new()
                    .name(name)
                    .spawn(move || run_link(weak, l, my_proc));
                threads.push(spawned.expect("spawn sock link thread"));
            }
        }
        let weak = Arc::downgrade(&t);
        *t.accept_thread.lock() = Some(
            std::thread::Builder::new()
                .name("mpisim-sock-accept".into())
                .spawn(move || run_accept(weak, listener, wake_rx))
                .expect("spawn sock accept"),
        );
        t
    }

    pub(crate) fn proc_of(&self, rank: usize) -> usize {
        if self.n_procs == 1 {
            0
        } else {
            rank
        }
    }

    fn hosted(&self, rank: usize) -> bool {
        self.n_procs == 1 || rank == self.my_proc
    }

    fn me(&self) -> Arc<SockTransport> {
        self.me.lock().upgrade().expect("transport alive")
    }

    /// Dial `proc`'s listener and complete the handshake (bootstrap and
    /// mesh connects; the link thread redials itself, [`reconnect`]).
    pub(crate) fn connect_to(&self, proc: usize, addr: &str) -> Result<(), String> {
        let link = self.links[proc].as_ref().expect("link exists").clone();
        *link.dial_addr.lock() = Some(addr.to_string());
        let stream = connect_retry(addr, DIAL).map_err(|e| {
            format!(
                "connect to proc {proc} at {addr} failed after {} attempts: {e}",
                DIAL.retries + 1
            )
        })?;
        handshake_connect(self.my_proc, &link, stream)
            .map_err(|e| format!("handshake with proc {proc} at {addr} failed: {e}"))
    }

    /// Accept-side handshake: identify the peer from its HELLO, reply
    /// with our cumulative receive seq, install both directions (or just
    /// the reading end for a loopback self-link). The frame reader that
    /// read the HELLO goes on to the link thread with whatever else it
    /// already buffered.
    fn handle_accept(&self, mut stream: Stream) -> std::io::Result<()> {
        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        let mut frames = FrameReader::new(stream.try_clone()?);
        let (proc, peer_rx) = parse_hello(&frames.read_frame()?)?;
        let self_link = self.links[0].as_ref().filter(|l| l.self_loop);
        if let Some(link) = self_link.filter(|_| proc == self.my_proc) {
            link.install_reader(stream, frames);
            return Ok(());
        }
        let link = match self.links.get(proc).and_then(|l| l.as_ref()) {
            Some(l) => Arc::clone(l),
            None => return Err(invalid_data(format!("HELLO from unknown proc {proc}"))),
        };
        let my_rx = link.st.lock().rx_seq;
        stream.write_all(&hello_frame(self.my_proc, my_rx))?;
        stream.set_nonblocking()?;
        link.install(stream, frames, peer_rx).map_err(invalid_data)
    }

    /// The link thread's read: deliver what `frames` holds, then read and
    /// deliver until the socket is empty or [`READS_PER_TURN`] reads have
    /// landed, so a peer that never pauses cannot starve the thread's
    /// writes. `InvalidData` on a frame no healthy peer sends.
    fn read_burst(
        &self,
        link: &Link,
        cursor: &mut RxCursor,
        hooks: &mut HookCache,
        frames: &mut FrameReader<Stream>,
    ) -> std::io::Result<()> {
        loop {
            while let Some(f) = frames.next_buffered()? {
                self.receive(link, cursor, hooks, f).map_err(invalid_data)?;
            }
            if frames.reads >= READS_PER_TURN || !frames.fill_now()? {
                return Ok(());
            }
        }
    }

    /// Sequence one frame on `cursor` and route it to its consumer. `Err`
    /// on a frame no healthy peer sends.
    fn receive(
        &self,
        link: &Link,
        cursor: &mut RxCursor,
        hooks: &mut HookCache,
        f: Frame<'_>,
    ) -> Result<(), String> {
        if f.kind == K_ACK {
            let cum_rx = f.body.first_chunk::<8>().ok_or("ACK frame without a seq")?;
            return link.apply_ack(u64::from_le_bytes(*cum_rx));
        }
        match cursor.accept(link, f.seq)? {
            Accept::Duplicate => Ok(()),
            Accept::Fresh => self.dispatch(hooks, f.kind, f.body),
        }
    }

    /// Route an incoming sequenced frame to its consumer. Every field is
    /// length-checked: the body is whatever the wire said.
    fn dispatch(&self, hooks: &mut HookCache, kind: u8, body: &[u8]) -> Result<(), String> {
        let short = || {
            format!(
                "kind-{kind} frame with a malformed {}-byte body",
                body.len()
            )
        };
        let u32_at = |o: usize| {
            let b = body.get(o..).and_then(|b| b.first_chunk::<4>());
            b.map(|b| u32::from_le_bytes(*b) as usize).ok_or_else(short)
        };
        let u64_at = |o: usize| {
            let b = body.get(o..).and_then(|b| b.first_chunk::<8>());
            b.map(|b| u64::from_le_bytes(*b)).ok_or_else(short)
        };
        match kind {
            K_DATA => {
                // [src u32][dst u32] + one whole envelope
                let (src, dst) = (u32_at(0)?, u32_at(4)?);
                let data_len = u32_at(DATA_PREFIX + ENV_LEN_AT)?;
                if dst >= self.rx.n_ranks() || body.len() != DATA_PREFIX + ENV_HDR + data_len {
                    return Err(short());
                }
                let (env, _) = decode_envelope(&body[DATA_PREFIX..]);
                self.rx.deposit(src, dst, env);
            }
            K_CHAN => {
                let (key, payload) = chan::split_frame(body).ok_or_else(short)?;
                self.deliver_chan(hooks, key, payload)?;
            }
            K_CMD => {
                let cmd = u64_at(0)?;
                self.ctrl.post(|st| st.cmds.push_back(cmd));
            }
            K_DONE => {
                let done = (u32_at(0)?, u64_at(4)?);
                self.ctrl.post(|st| st.dones.push(done));
            }
            K_DEATH => {
                let rank = u32_at(0)?;
                self.ctrl.post(|_| self.note_rank_panic(Some(rank)));
            }
            K_FLUSH => {
                let token = u64_at(0)?;
                self.ctrl.post(|st| st.flushed = st.flushed.max(token));
            }
            K_JOIN => {
                let (rank, alen) = (u32_at(0)?, u32_at(4)?);
                let addr = body.get(8..8 + alen).ok_or_else(short)?;
                let addr = String::from_utf8_lossy(addr).into_owned();
                self.ctrl.post(|st| st.joins.push((rank, addr)));
            }
            K_TABLE => {
                let mut addrs = Vec::new();
                let mut off = 4;
                for _ in 0..u32_at(0)? {
                    let len = u32_at(off)?;
                    off += 4;
                    let addr = body.get(off..off + len).ok_or_else(short)?;
                    addrs.push(String::from_utf8_lossy(addr).into_owned());
                    off += len;
                }
                self.ctrl.post(|st| st.table = Some(addrs));
            }
            other => return Err(format!("unknown frame kind {other}")),
        }
        Ok(())
    }

    /// Hand a `CHAN` payload to its channel's deliver hook, from `hooks`
    /// while they are current, else from the table (and into `hooks`);
    /// with no hook registered for `key`, stash it for the registration.
    fn deliver_chan(
        &self,
        hooks: &mut HookCache,
        key: ChanKey,
        payload: &[u8],
    ) -> Result<(), String> {
        // Acquire pairs with the Release bump of a registration change: a
        // frame sent after the change returned sees the new generation
        let gen = self.chans_gen.load(Ordering::Acquire);
        if gen != hooks.gen {
            hooks.hooks.clear();
            hooks.gen = gen;
        }
        if let Some(f) = hooks.hooks.get(&key) {
            return f(payload);
        }
        let f = {
            let mut ch = self.chans.lock();
            match ch.deliver.get(&key) {
                Some(f) => Arc::clone(f),
                None => {
                    // receiver not registered yet: stash for the drain at
                    // registration time
                    ch.undelivered
                        .entry(key)
                        .or_default()
                        .push(payload.to_vec());
                    return Ok(());
                }
            }
        };
        // filed under the generation read above: a change since then
        // clears it at the next frame
        hooks.hooks.entry(key).or_insert(f)(payload)
    }

    /// Register the receiving side of a persistent channel, handing it the
    /// payloads that raced ahead first, under the table lock: a frame read
    /// meanwhile waits and lands behind them.
    pub(crate) fn register_deliver(&self, key: ChanKey, f: DeliverFn) {
        let mut ch = self.chans.lock();
        for bytes in ch.undelivered.remove(&key).unwrap_or_default() {
            // on the registering rank's thread: its panic is already loud
            f(&bytes).unwrap_or_else(|e| panic!("sock channel {key:?}: {e}"));
        }
        ch.deliver.insert(key, f);
        self.chans_gen.fetch_add(1, Ordering::Release);
    }

    /// The channel that registered `f` for `key` dropped: stop delivering
    /// to it. A hook some later registration of the key put in its place
    /// is not this channel's to remove.
    pub(crate) fn unregister_deliver(&self, key: ChanKey, f: &DeliverFn) {
        let mut ch = self.chans.lock();
        if ch.deliver.get(&key).is_some_and(|cur| Arc::ptr_eq(cur, f)) {
            ch.deliver.remove(&key);
            self.chans_gen.fetch_add(1, Ordering::Release);
        }
    }

    /// The first dead link, for failure reporting.
    fn dead_link(&self) -> Option<(usize, usize, String)> {
        for link in self.links.iter().flatten() {
            let st = link.st.lock();
            if st.dead {
                let note = st
                    .dead_note
                    .clone()
                    .unwrap_or_else(|| "no reason recorded".into());
                return Some((link.peer_proc, link.blame, note));
            }
        }
        None
    }
}

impl Transport for SockTransport {
    fn fabric(&self) -> &'static str {
        "sock"
    }

    fn deposit(&self, src_world: usize, dst_world: usize, env: Envelope) {
        match &self.links[self.proc_of(dst_world)] {
            Some(link) => {
                let Payload { kind, bytes } = &env.payload;
                link.send_frame_with(K_DATA, |body| {
                    body.extend_from_slice(&(src_world as u32).to_le_bytes());
                    body.extend_from_slice(&(dst_world as u32).to_le_bytes());
                    body.extend_from_slice(&encode_env_hdr(
                        env.ctx_id,
                        env.src,
                        env.tag,
                        *kind,
                        bytes.len(),
                    ));
                    body.extend_from_slice(bytes);
                });
            }
            // own rank in a multi-process world: no wire to cross
            None => self.rx.deposit(src_world, dst_world, env),
        }
    }

    fn try_match(
        &self,
        global_dst: usize,
        ctx_id: u64,
        src: usize,
        tag: u64,
    ) -> Option<(Envelope, usize)> {
        self.rx.try_match(global_dst, ctx_id, src, tag)
    }

    fn park_point(&self, rank: usize) -> &ParkWords {
        self.rx.park_point(rank)
    }

    fn make_channel(&self, _key: ChanKey, dst_world: usize, _kind: u8, _len: usize) -> ChanFabric {
        ChanFabric::Sock(SockChanWire {
            route: self.links[self.proc_of(dst_world)].clone(),
            register: self.hosted(dst_world).then(|| self.me()),
            park: self.rx.park_of(dst_world),
        })
    }

    fn drain_in_flight(&self) {
        if self.n_procs == 1 {
            // force everything queued ahead through the self-link first:
            // a token pushed behind it, awaited in the control inbox
            if let Some(link) = &self.links[0] {
                if !link.st.lock().dead {
                    let token = {
                        let mut st = self.ctrl.st.lock();
                        st.flush_sent += 1;
                        st.flush_sent
                    };
                    link.send_frame(K_FLUSH, &token.to_le_bytes());
                    // a link that dies mid-drain times out into the sweep
                    let deadline = Instant::now() + Duration::from_secs(2);
                    let mut st = self.ctrl.st.lock();
                    while st.flushed < token {
                        let left = deadline.saturating_duration_since(Instant::now());
                        if self.ctrl.cv.wait_for(&mut st, left).timed_out() {
                            break;
                        }
                    }
                }
            }
        }
        self.rx.drain_in_flight();
        self.chans.lock().undelivered.clear();
    }

    fn note_rank_panic(&self, rank: Option<usize>) {
        self.rx.note_rank_panic(rank);
    }

    fn clear_rank_panic(&self) {
        // link death is permanent and NOT cleared here: a world whose
        // fabric lost a host cannot start a healthy epoch
        self.rx.clear_rank_panic();
    }

    fn dead_rank(&self) -> Option<usize> {
        let blamed = || self.dead_link().map(|(_, blame, _)| blame);
        self.rx.dead_rank().or_else(blamed)
    }

    fn peer_failure(&self) -> Option<String> {
        match self.dead_link() {
            Some((proc, blame, note)) => Some(format!(
                "sock link to proc {proc} (rank {blame}) is dead: {note}"
            )),
            None => self.rx.peer_failure(),
        }
    }

    fn release_context(&self, ctx_id: u64) {
        // empty but for a failed tenant's stragglers
        let mut ch = self.chans.lock();
        ch.undelivered.retain(|key, _| key.0 != ctx_id);
    }

    fn sever_link(&self, peer_world: usize) {
        if let Some(link) = &self.links[self.proc_of(peer_world)] {
            link.disconnect();
        }
    }

    fn forensics(&self, report: &mut StallReport) {
        self.rx.forensics(report);
        report.links = self.links.iter().flatten().map(|l| l.status()).collect();
        report.outbox_depth = report.links.iter().map(|l| l.outbox).sum();
        // the table lock is held per hook-cache miss and per registration,
        // never across a wait: taking it here cannot wedge the reporter
        let ch = self.chans.lock();
        report.registry.sock_deliver = ch.deliver.len();
        report.registry.sock_undelivered = ch.undelivered.values().map(Vec::len).sum();
    }
}

impl Drop for SockTransport {
    fn drop(&mut self) {
        for link in self.links.iter().flatten() {
            link.close();
        }
        let me = std::thread::current().id();
        for h in self.link_threads.get_mut().drain(..) {
            // the last handle may drop on a link thread, mid-read: it
            // sees the shutdown at its next turn
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
        let _ = (&self.accept_wake).write(&[1]);
        if let Some(h) = self.accept_thread.get_mut().take() {
            let _ = h.join();
        }
        if link::is_uds(&self.listener_addr) {
            let _ = std::fs::remove_file(&self.listener_addr);
        }
    }
}

/// Accept thread: sleep in one `poll` on the (non-blocking) listener and
/// the wake pair `Drop` writes to, then handshake every connection that
/// came (a failed handshake is dropped: a half-dialed peer retries), until
/// the transport is gone.
fn run_accept(t: Weak<SockTransport>, listener: Listener, wake: UnixStream) {
    loop {
        match listener.try_accept() {
            Ok(Some(stream)) => {
                let Some(t) = t.upgrade() else { return };
                let _ = t.handle_accept(stream);
            }
            _ if t.strong_count() == 0 => return,
            _ => _ = poll_ready(&wake, Some(&listener), None, None),
        }
    }
}

/// How long a handshake waits for the other side's HELLO.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Reads one turn of a link thread may take before it writes again.
const READS_PER_TURN: u64 = 16;

/// Connector-side handshake on a fresh stream: send HELLO with our
/// cumulative receive seq, await the peer's (remote links), install. From
/// the install on only the link thread writes the stream, non-blocking.
fn handshake_connect(my_proc: usize, link: &Link, mut stream: Stream) -> std::io::Result<()> {
    let my_rx = link.st.lock().rx_seq;
    stream.write_all(&hello_frame(my_proc, my_rx))?;
    if link.self_loop {
        // the peer is this very process: its cumulative rx IS ours, and
        // the accepted end arrives through our own accept loop
        stream.set_nonblocking()?;
        return link.install_writer(stream, my_rx).map_err(invalid_data);
    }
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let mut frames = FrameReader::new(stream.try_clone()?);
    let (_, peer_rx) = parse_hello(&frames.read_frame()?)?;
    stream.set_nonblocking()?;
    link.install(stream, frames, peer_rx).map_err(invalid_data)
}

/// The link thread's connection broke under its reader: unless a
/// replacement is already installed or the link torn down, mark the link
/// disconnected — which starts the passive side's loss clock — and on the
/// connector side redial.
fn heal(my_proc: usize, link: &Link) {
    let dial = {
        let mut st = link.st.lock();
        if st.shutdown || st.dead || st.incoming.is_some() {
            return; // replaced or torn down; nothing to heal
        }
        st.lose_conn();
        link.dial_addr.lock().clone()
    };
    if let Some(addr) = dial {
        reconnect(my_proc, link, &addr);
    }
}

/// Connector-side reconnect, run by the link thread: redial on [`DIAL`]'s
/// schedule, then permanent failure. Teardown cuts a wait short.
fn reconnect(my_proc: usize, link: &Link, addr: &str) {
    let mut last = String::from("no attempt made");
    for attempt in 0..=DIAL.retries {
        let st = match attempt {
            0 => link.st.lock(),
            _ => link.park(link.st.lock(), DIAL.delay(attempt - 1), None, None),
        };
        if st.dead || st.shutdown {
            return;
        }
        drop(st);
        match connect_once(addr).and_then(|s| handshake_connect(my_proc, link, s)) {
            Ok(()) => return,
            Err(e) => last = e.to_string(),
        }
    }
    link.fail(format!(
        "reconnect to proc {} at {addr} failed after {} attempts: {last}",
        link.peer_proc,
        DIAL.retries + 1
    ));
}

/// A link's one thread, self or remote. Each turn it takes up a newly
/// installed connection's reader — the replaced one drops, and what it
/// still held comes back through replay — then cuts a cycle of every
/// frame not yet written (on a remote link with an owed ack or an idle
/// heartbeat added) and writes what the socket takes of it without
/// blocking, then reads without blocking and publishes the burst's cursor
/// once. So one thread delivers a link's frames, in sequence order
/// whatever connection they came on, and a cycle larger than the socket
/// buffer alternates writes with reads instead of blocking the thread
/// that drains the other direction. A turn with nothing written or read
/// yields; after [`PARK_SPIN`] of them (or at once, with no connection)
/// it parks in one `poll` ([`Link::park`]) on its reading end, its
/// writing end while output is pending, and the wake pair, for at most a
/// heartbeat period. On a remote link a heartbeat finding the peer silent
/// past the liveness window forces a reconnect, and a passive side
/// disconnected past [`DIAL`]'s window declares the peer lost. When its
/// connection breaks, the connector side redials from this thread.
fn run_link(t: Weak<SockTransport>, link: Arc<Link>, my_proc: usize) {
    let hb = Duration::from_millis(crate::stall::stall_ms());
    let window = Duration::from_millis(DIAL.window_ms());
    let silence_limit = DIAL.window_ms().max(4 * crate::stall::stall_ms()) * 4;
    let mut last_hb = Instant::now();
    // the cycle being written, how much of it is out, and the connection
    // it was cut for
    let mut out: Vec<u8> = Vec::new();
    let mut written = 0;
    let mut out_sock: Option<Arc<Stream>> = None;
    let mut reader: Option<FrameReader<Stream>> = None;
    let mut cursor = RxCursor::new(&link.st.lock());
    let mut hooks = HookCache::default();
    // turns since the last one that cut, wrote or read anything
    let mut idle_turns = 0;
    let mut st = link.st.lock();
    loop {
        if st.shutdown || st.dead {
            return;
        }
        if let Some(frames) = st.incoming.take() {
            // it may hold frames the handshake read past the HELLO, which
            // no `poll` would report
            reader = Some(frames);
            idle_turns = 0;
        }
        cursor.sync(&st);
        let connected = link.connected(&st);
        let passive = || link.dial_addr.lock().is_none();
        if !connected && st.disconnected_since.is_some_and(|t| t.elapsed() > window) && passive() {
            drop(st);
            link.fail(format!(
                "peer proc {} did not reconnect within {} ms",
                link.peer_proc,
                DIAL.window_ms()
            ));
            return;
        }
        let cut_for_now =
            matches!((&out_sock, &st.writer_sock), (Some(a), Some(b)) if Arc::ptr_eq(a, b));
        if written == out.len() || !cut_for_now {
            // done, or cut for a connection since replaced, whose resume
            // rewound the send cursor to write it again
            if out.capacity() > 2 * IO_BATCH {
                out = Vec::new(); // a lone large frame passed through
            }
            out.clear();
            written = 0;
            out_sock = None;
            if connected {
                let frames = st.take_cycle(&mut out);
                let beat = !link.self_loop && frames == 0 && last_hb.elapsed() >= hb;
                if beat && link.silence_ms() > silence_limit {
                    // half-open link: we can write but the peer has gone
                    // silent — force a reconnect cycle
                    st.lose_conn();
                    continue;
                }
                // an owed ack rides the cycle's write; an idle link beats
                if beat || st.rx_since_ack >= ACK_EVERY {
                    st.rx_since_ack = 0;
                    last_hb = Instant::now();
                    let rx_seq = st.rx_seq;
                    encode_frame_into(&mut out, K_ACK, 0, |b| {
                        b.extend_from_slice(&rx_seq.to_le_bytes())
                    });
                }
                if !out.is_empty() {
                    st.write_calls += 1;
                    out_sock = st.writer_sock.clone();
                    idle_turns = 0;
                }
            }
        }
        if idle_turns >= PARK_SPIN || (!connected && reader.is_none()) {
            idle_turns = 0;
            let read = reader.as_ref().map(FrameReader::source);
            st = link.park(st, hb, read, out_sock.as_deref());
            continue;
        }
        drop(st);
        let mut progress = false;
        if let Some(sock) = &out_sock {
            match sock.write_now(&out[written..]) {
                Ok(n) => {
                    written += n;
                    progress |= n > 0;
                }
                Err(_) => {
                    // the next read sees the break; a write to a
                    // connection since replaced fails too, and is no
                    // reason to drop its successor
                    let mut st = link.st.lock();
                    if st
                        .writer_sock
                        .as_ref()
                        .is_some_and(|s| Arc::ptr_eq(s, sock))
                    {
                        st.lose_conn();
                    }
                }
            }
        }
        if let Some(frames) = &mut reader {
            let burst = match t.upgrade() {
                Some(t) => t.read_burst(&link, &mut cursor, &mut hooks, frames),
                None => return,
            };
            let reads = std::mem::take(&mut frames.reads);
            progress |= reads > 0;
            cursor.publish(&link, reads);
            match burst {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    link.fail_malformed(&e);
                    return;
                }
                Err(_) => {
                    reader = None;
                    heal(my_proc, &link);
                }
            }
        }
        if progress {
            idle_turns = 0;
        } else {
            idle_turns += 1;
            std::thread::yield_now();
        }
        st = link.st.lock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{Channel, WorldState};
    use crate::transport::bytes_of;
    use crate::transport::park::park_until;
    use crate::Elem;

    const DST: usize = 1;

    /// An unconnected 2-rank loopback transport (dial it with
    /// `dial_self`) and the world state whose channels ride it.
    fn loopback_pair() -> (Arc<SockTransport>, Arc<WorldState>) {
        let t = SockTransport::bind_inner(2, 0, 1, &auto_addr());
        let world = WorldState::with_transport_deadline(2, None, t.clone(), None);
        (t, world)
    }

    fn link_of(t: &SockTransport) -> &Link {
        t.links[0].as_ref().expect("self-link")
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Message `i` of case `case`: distinct in content and in length.
    fn message(case: u64, i: u64) -> Vec<u64> {
        (0..1 + i % 5).map(|j| case << 32 | i << 8 | j).collect()
    }

    /// Take `n` messages off `chan`, parking its receiver (rank `DST`)
    /// between takes, and check each.
    fn pop_expecting(world: &WorldState, chan: &Channel<u64>, case: u64, n: u64) {
        pop_at(world, DST, chan, case, n);
    }

    /// [`pop_expecting`] for a receiver at `rank`.
    fn pop_at(world: &WorldState, rank: usize, chan: &Channel<u64>, case: u64, n: u64) {
        let mut back = Vec::new();
        for i in 0..n {
            let got = loop {
                match chan.try_pop(&mut back) {
                    Some((got, _)) => break got,
                    None => _ = world.wait_any(rank, &[chan.id()]),
                }
            };
            assert_eq!(got, message(case, i), "case {case}, message {i}");
            back.push(got);
        }
        std::thread::sleep(Duration::from_millis(2));
        assert!(!chan.ready(), "case {case}: a message arrived twice");
    }

    #[test]
    fn a_burst_leaves_in_few_writes_and_wakes_nobody() {
        const BURST: u64 = 256;
        let (t, world) = loopback_pair();
        let chan = world.channel::<u64>((0, 0, DST, 7));
        for i in 0..BURST {
            chan.push(&message(0, i), 0.0);
        }
        t.dial_self();
        pop_expecting(&world, &chan, 0, BURST);
        // a burst publishes its counts after it delivered
        wait_until("the last burst was published", || {
            link_of(&t).st.lock().frames_rx >= BURST
        });
        let st = link_of(&t).st.lock();
        println!(
            "burst of {BURST}: {} frames in {} writes, {} frames in {} reads, {} writer wakes",
            st.frames_tx, st.write_calls, st.frames_rx, st.read_calls, st.writer_wakes
        );
        assert_eq!((st.frames_tx, st.frames_rx), (BURST, BURST));
        assert!(st.frames_tx / st.write_calls >= 8, "frames per write");
        assert!(st.frames_rx / st.read_calls >= 8, "frames per read");
        // the wake of the install that completes the pair of ends is the
        // only one: nothing was queued after it, and a self-link owes no
        // ack
        assert!(st.writer_wakes <= 1, "reader-initiated writer wakes");
    }

    #[test]
    fn severing_after_every_frame_resumes_exactly_once_in_order() {
        const N: u64 = 64;
        let (t, world) = loopback_pair();
        t.dial_self();
        let chan = world.channel::<u64>((0, 0, DST, 7));
        for k in 0..N {
            let before = link_of(&t).st.lock().reconnects;
            for i in 0..N {
                chan.push(&message(k, i), 0.0);
                if i == k {
                    t.sever_link(DST);
                }
            }
            pop_expecting(&world, &chan, k, N);
            wait_until("the link reconnected", || {
                link_of(&t).st.lock().reconnects > before
            });
        }
    }

    #[test]
    fn severing_with_frames_queued_behind_an_unconnected_writer_loses_none() {
        const N: u64 = 64;
        let (t, world) = loopback_pair();
        let chan = world.channel::<u64>((0, 0, DST, 7));
        for i in 0..8 {
            chan.push(&message(0, i), 0.0);
        }
        {
            let st = link_of(&t).st.lock();
            assert_eq!((st.tx_seq, st.sent), (8, 0), "all queued, none written");
        }
        t.sever_link(DST);
        t.dial_self();
        // and once more while the queued run may be anywhere in flight
        t.sever_link(DST);
        for i in 8..N {
            chan.push(&message(0, i), 0.0);
        }
        pop_expecting(&world, &chan, 0, N);
        assert!(link_of(&t).st.lock().reconnects >= 1);
    }

    /// Dial `t` posing as proc `as_proc`, then say `bytes`.
    fn inject(t: &SockTransport, as_proc: usize, bytes: &[u8]) {
        let mut raw = connect_once(&t.listener_addr).expect("dial");
        raw.write_all(&hello_frame(as_proc, 0)).expect("hello");
        raw.write_all(bytes).expect("inject");
        // keep the socket open past the reader's verdict: EOF is not the point
        wait_until("the link died", || t.peer_failure().is_some());
    }

    /// The sequenced frames queued on `t`'s self-link, oldest first: the
    /// kind byte and the body of each.
    fn queued_bodies(t: &SockTransport) -> Vec<(u8, Vec<u8>)> {
        let st = link_of(t).st.lock();
        st.replay.iter().map(|f| (f[4], f[16..].to_vec())).collect()
    }

    #[test]
    fn a_chan_body_is_its_key_and_payload_and_a_data_body_its_ranks_and_envelope() {
        let (t, world) = loopback_pair();
        let chan = world.channel::<u64>((3, 0, DST, 7));
        chan.push(&[11, 22, 33], 0.0);
        world.deposit(
            0,
            DST,
            Envelope {
                ctx_id: 3,
                src: 0,
                tag: 9,
                arrival: 0.0,
                payload: Payload::of(&[44u32, 55]),
            },
        );
        let [(chan_kind, chan_body), (data_kind, data_body)] = &queued_bodies(&t)[..] else {
            panic!("two frames queued");
        };
        assert_eq!((*chan_kind, *data_kind), (K_CHAN, K_DATA));
        // K_CHAN: 32 header bytes, the channel's key, then the payload
        assert_eq!(chan_body.len(), 32 + 3 * 8);
        let (key, payload) = chan::split_frame(chan_body).expect("a whole header");
        assert_eq!(key, (3, 0, DST, 7));
        assert_eq!(payload, bytes_of(&[11u64, 22, 33]));
        // K_DATA: an 8-byte prefix of world ranks, then one envelope
        assert_eq!(data_body.len(), 8 + ENV_HDR + 2 * 4);
        assert_eq!(data_body[..8], [0, 0, 0, 0, DST as u8, 0, 0, 0]);
        let (env, remaining) = decode_envelope(&data_body[8..]);
        assert_eq!((env.ctx_id, env.src, env.tag, remaining), (3, 0, 9, 0));
        assert_eq!(env.payload.take::<u32>(), Ok(vec![44, 55]));
    }

    #[test]
    fn malformed_frames_kill_the_link_loudly_and_say_why() {
        let chan_body_too_short = encode_frame(K_CHAN, 1, &[0; 31]);
        let data_body_lies_about_its_length = {
            let mut body = vec![0u8; 8];
            body.extend_from_slice(&encode_env_hdr(0, 0, 0, u64::KIND, 1000));
            body.extend_from_slice(&[7; 24]);
            encode_frame(K_DATA, 1, &body)
        };
        let data_for_a_rank_that_does_not_exist = {
            let mut body = vec![0u8; 8];
            body[4] = 200;
            body.extend_from_slice(&encode_env_hdr(0, 0, 0, u8::KIND, 0));
            encode_frame(K_DATA, 1, &body)
        };
        let ack_of_the_future = encode_frame(K_ACK, 0, &7u64.to_le_bytes());
        let cases: [(Vec<u8>, &str); 7] = [
            (encode_frame(99, 1, b""), "unknown frame kind 99"),
            (encode_frame(K_CMD, 5, &[0; 8]), "seq 5 after 0"),
            (vec![0xff; 16], "declares 4294967295 bytes"),
            (
                chan_body_too_short,
                "kind-2 frame with a malformed 31-byte body",
            ),
            (
                data_body_lies_about_its_length,
                "kind-1 frame with a malformed 61-byte body",
            ),
            (
                data_for_a_rank_that_does_not_exist,
                "kind-1 frame with a malformed 37-byte body",
            ),
            (
                ack_of_the_future,
                "acknowledged seq 7 but only 0 were ever sent",
            ),
        ];
        for (bytes, why) in cases {
            // proc 0 of a 2-process world, its link to proc 1 not yet up
            let t = SockTransport::bind(0, 2, &auto_addr());
            inject(&t, 1, &bytes);
            let failure = t.peer_failure().expect("dead link");
            assert!(
                failure.contains("sock link to proc 1 (rank 1) is dead"),
                "{failure}"
            );
            assert!(failure.contains(why), "{why}: {failure}");
            assert!(t.links[1].as_ref().expect("link").st.lock().dead, "{why}");
        }
    }

    #[test]
    fn the_receive_half_is_the_embedded_thread_transport() {
        // proc 0 of a 2-process world, its link to proc 1 not yet up
        let t = SockTransport::bind(0, 2, &auto_addr());
        // an own-rank deposit crosses no wire ...
        let own = Envelope {
            ctx_id: 0,
            src: 1,
            tag: 5,
            arrival: 0.0,
            payload: Payload::of(&[11u64]),
        };
        t.deposit(0, 0, own);
        let (env, _) = t.try_match(0, 0, 1, 5).expect("delivered at once");
        assert_eq!(env.payload.take::<u64>().expect("u64 payload"), [11]);
        // ... and a K_DATA frame off the wire lands in the same mailbox
        let mut body = vec![0u8; 8]; // src 1, dst 0
        body[0] = 1;
        body.extend_from_slice(&encode_env_hdr(0, 1, 6, u64::KIND, 8));
        body.extend_from_slice(&22u64.to_le_bytes());
        let mut raw = connect_once(&t.listener_addr).expect("dial");
        raw.write_all(&hello_frame(1, 0)).expect("hello");
        raw.write_all(&encode_frame(K_DATA, 1, &body))
            .expect("data");
        let (env, _) = park_until(t.enter_wait(0), || t.try_match(0, 0, 1, 6), &|| {});
        assert_eq!(env.payload.take::<u64>().expect("u64 payload"), [22]);
        let report = WorldState::with_transport_deadline(2, None, t.clone(), None).stall_report();
        assert_eq!(report.mailbox_depths, [Some(0), Some(0)]);

        // the rank-death flag is the thread transport's ...
        assert_eq!((t.peer_failure(), t.dead_rank()), (None, None));
        t.note_rank_panic(Some(1));
        let failure = t.peer_failure().expect("flag raised");
        assert!(failure.contains("rank 1 died"), "{failure}");
        assert_eq!(t.dead_rank(), Some(1));
        // ... a dead link outranks it ...
        t.links[1].as_ref().expect("link").fail("cable cut".into());
        let failure = t.peer_failure().expect("dead link");
        assert!(
            failure.contains("sock link to proc 1 (rank 1) is dead: cable cut"),
            "{failure}"
        );
        // ... and outlives the flag, which a fresh epoch clears
        t.clear_rank_panic();
        let failure = t.peer_failure().expect("link death is permanent");
        assert!(failure.contains("cable cut"), "{failure}");
        assert_eq!(t.dead_rank(), Some(1), "blamed on the dead link's rank");
    }

    #[test]
    fn a_self_link_receiving_what_it_never_sent_dies() {
        let t = SockTransport::loopback(2);
        inject(&t, 0, &encode_frame(K_CMD, 1, &[0; 8]));
        let failure = t.peer_failure().expect("dead link");
        assert!(
            failure.contains("seq 1 but only 0 were ever sent"),
            "{failure}"
        );
    }

    #[test]
    fn a_payload_that_is_no_whole_number_of_elements_kills_the_link() {
        let t = SockTransport::bind(0, 2, &auto_addr());
        let world = WorldState::with_transport_deadline(2, None, t.clone(), None);
        let _chan = world.channel::<u64>((0, 1, 0, 7));
        let mut body = Vec::new();
        for word in [0u64, 1, 0, 7] {
            body.extend_from_slice(&word.to_le_bytes());
        }
        body.extend_from_slice(&[1, 2, 3]);
        inject(&t, 1, &encode_frame(K_CHAN, 1, &body));
        let failure = t.peer_failure().expect("dead link");
        assert!(
            failure.contains("3 bytes is not a whole number of u64"),
            "{failure}"
        );
    }

    /// Queue a `K_CHAN` frame for `key` on `t`'s self-link.
    fn send_chan(t: &SockTransport, key: ChanKey, payload: &[u8]) {
        link_of(t).send_frame_with(K_CHAN, |body| {
            for word in [key.0, key.1 as u64, key.2 as u64, key.3] {
                body.extend_from_slice(&word.to_le_bytes());
            }
            body.extend_from_slice(payload);
        });
    }

    type Log = Arc<Mutex<Vec<Vec<u8>>>>;

    /// A deliver hook that records every payload it is handed in `log`.
    fn recording(log: &Log) -> DeliverFn {
        let log = Arc::clone(log);
        Arc::new(move |bytes: &[u8]| {
            log.lock().push(bytes.to_vec());
            Ok(())
        })
    }

    #[test]
    fn a_hook_replaced_between_two_frames_never_sees_the_second() {
        let (t, _world) = loopback_pair();
        t.dial_self();
        let key = (0, 0, DST, 7);
        let (old_log, new_log) = (Log::default(), Log::default());
        let old = recording(&old_log);
        t.register_deliver(key, Arc::clone(&old));
        send_chan(&t, key, b"first");
        wait_until("the first frame reached the old hook", || {
            old_log.lock().len() == 1
        });
        // the channel drops and its key is registered again
        t.unregister_deliver(key, &old);
        t.register_deliver(key, recording(&new_log));
        send_chan(&t, key, b"second");
        wait_until("the second frame reached the new hook", || {
            new_log.lock().len() == 1
        });
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(*old_log.lock(), [b"first".to_vec()]);
        assert_eq!(*new_log.lock(), [b"second".to_vec()]);
    }

    #[test]
    fn a_frame_ahead_of_its_registration_waits_and_is_drained_by_it() {
        let (t, _world) = loopback_pair();
        t.dial_self();
        let (seen, early) = ((0, 0, DST, 7), (0, 0, DST, 8));
        // a hook already in the link thread's cache, for a neighbouring key
        let seen_log = Log::default();
        t.register_deliver(seen, recording(&seen_log));
        send_chan(&t, seen, b"warm");
        wait_until("the cache knows a hook", || seen_log.lock().len() == 1);
        send_chan(&t, early, b"early");
        wait_until("the early frame was stashed", || {
            t.chans
                .lock()
                .undelivered
                .get(&early)
                .is_some_and(|p| p.len() == 1)
        });
        let log = Log::default();
        t.register_deliver(early, recording(&log));
        assert_eq!(*log.lock(), [b"early".to_vec()], "drained at registration");
        assert!(t.chans.lock().undelivered.is_empty());
        send_chan(&t, early, b"late");
        wait_until("a later frame reached the hook", || log.lock().len() == 2);
        assert_eq!(log.lock()[1], b"late");
        assert_eq!(seen_log.lock().len(), 1);
    }

    #[test]
    fn a_frame_read_while_the_stash_is_delivered_lands_behind_it() {
        let (t, _world) = loopback_pair();
        t.dial_self();
        let key = (0, 0, DST, 9);
        send_chan(&t, key, b"stashed");
        wait_until("the first frame was stashed", || {
            t.chans.lock().undelivered.contains_key(&key)
        });
        // the first call, the stashed payload's, lets the next frame go
        // out and gives the link thread a while to deliver it before
        // recording its own payload: a hook visible before the stash is in
        // would record the second frame first, from the link thread
        let log = Log::default();
        let hook: DeliverFn = {
            let (t, log) = (Arc::downgrade(&t), Arc::clone(&log));
            Arc::new(move |bytes: &[u8]| {
                if bytes == b"stashed" {
                    send_chan(&t.upgrade().expect("transport alive"), key, b"next");
                    let deadline = Instant::now() + Duration::from_millis(300);
                    while log.lock().is_empty() && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                log.lock().push(bytes.to_vec());
                Ok(())
            })
        };
        t.register_deliver(key, hook);
        wait_until("both frames were delivered", || log.lock().len() == 2);
        assert_eq!(*log.lock(), [b"stashed".to_vec(), b"next".to_vec()]);
    }

    #[test]
    fn a_payload_past_the_socket_buffer_round_trips_on_a_loopback_link() {
        // 4 MiB, where the kernel's socket buffer is some hundreds of KiB
        // (Linux: net.core.wmem_default, 208 KiB by default): one frame the
        // link thread can only move by alternating writes with reads of
        // its own socket, over UDS and over TCP
        const LEN: u64 = 1 << 19;
        let big: Vec<u64> = (0..LEN)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        for spec in [auto_addr(), "127.0.0.1:0".to_string()] {
            let t = SockTransport::bind_inner(2, 0, 1, &spec);
            t.dial_self();
            let world = WorldState::with_transport_deadline(2, None, t.clone(), None);
            let (done, finished) = std::sync::mpsc::channel();
            let sent = big.clone();
            std::thread::spawn(move || {
                // once on a persistent channel ...
                let chan = world.channel::<u64>((0, 0, DST, 7));
                chan.push(&sent, 0.0);
                let mut back = Vec::new();
                let got = loop {
                    match chan.try_pop(&mut back) {
                        Some((got, _)) => break got,
                        None => _ = world.wait_any(DST, &[chan.id()]),
                    }
                };
                let by_chan = got == sent;
                // ... and once as a plain send
                world.deposit(
                    0,
                    DST,
                    Envelope {
                        ctx_id: 0,
                        src: 0,
                        tag: 9,
                        arrival: 0.0,
                        payload: Payload::of(&sent),
                    },
                );
                let (env, _) = world.match_recv(DST, 0, 0, DST, 9);
                let by_send = env.payload.take::<u64>() == Ok(sent);
                let _ = done.send((by_chan, by_send));
            });
            let (by_chan, by_send) = finished
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("{spec}: 4 MiB did not round-trip within 20 s"));
            assert!(by_chan, "{spec}: the channel payload came back altered");
            assert!(by_send, "{spec}: the plain send came back altered");
            // a burst publishes its counts after it delivered
            wait_until("the burst was published", || {
                link_of(&t).st.lock().frames_rx == 2
            });
            let reads = link_of(&t).st.lock().read_calls;
            assert!(reads > 2, "{spec}: each frame arrived in one read");
        }
    }

    #[test]
    fn a_remote_link_severed_from_both_ends_resumes_exactly_once_in_order() {
        // two processes' transports in one: proc 1 dials proc 0, and each
        // side severs the link after every `EVERY`-th of its first
        // `SEVERED` pushes, pushing on once it has resumed; the last
        // 2 × ACK_EVERY pushes ride one connection
        const N: u64 = 4 * ACK_EVERY + 5;
        const SEVERED: u64 = N - 2 * ACK_EVERY;
        const EVERY: u64 = 9;
        let t = [
            SockTransport::bind(0, 2, &auto_addr()),
            SockTransport::bind(1, 2, &auto_addr()),
        ];
        let worlds = t
            .clone()
            .map(|t| WorldState::with_transport_deadline(2, None, t, None));
        t[1].connect_to(0, &t[0].listener_addr)
            .expect("dial proc 0");
        std::thread::scope(|s| {
            for p in 0..2 {
                // rank p lives on proc p, sends on one channel and
                // receives on the other
                let (t, world, peer) = (&t[p], &worlds[p], 1 - p);
                let tx = world.channel::<u64>((0, p, peer, 7));
                let rx = world.channel::<u64>((0, peer, p, 7));
                let link = t.links[peer].as_ref().expect("link to the peer");
                s.spawn(move || {
                    for i in 0..N {
                        tx.push(&message(p as u64, i), 0.0);
                        if i < SEVERED && i % EVERY == 0 {
                            let before = link.st.lock().reconnects;
                            t.sever_link(peer);
                            wait_until("the link resumed", || link.st.lock().reconnects > before);
                        }
                    }
                });
                s.spawn(move || pop_at(world, p, &rx, peer as u64, N));
            }
        });
        let link = |p: usize| t[p].links[1 - p].clone().expect("link to the peer");
        for p in 0..2 {
            assert!(link(p).st.lock().reconnects > 0, "proc {p} never resumed");
        }
        // each side's acks ride its link thread's cycles: the replay
        // buffers, which no resume trimmed since the last sever, drain
        // once traffic stops
        wait_until("both replay buffers drained", || {
            (0..2).all(|p| (link(p).st.lock().replay.len() as u64) < ACK_EVERY)
        });
    }
}
