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
use super::{ChanFabric, Transport};
use crate::stall::StallReport;
use crate::state::{ChanId, ChanKey, Envelope, Payload};
use control::Ctrl;
use link::{
    auto_addr, connect_once, connect_retry, encode_frame, invalid_data, Accept, Frame, FrameReader,
    Link, Listener, Stream, DIAL, K_ACK, K_CHAN, K_CMD, K_DATA, K_DEATH, K_DONE, K_FLUSH, K_HELLO,
    K_JOIN, K_TABLE,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
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
/// by the link reader with the payload's arrival stamp and wire bytes;
/// `Err` says why the bytes cannot be a payload of this channel.
pub(crate) type DeliverFn = Arc<dyn Fn(f64, &[u8]) -> Result<(), String> + Send + Sync>;

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
    undelivered: HashMap<ChanKey, Vec<(f64, Vec<u8>)>>,
}

pub(crate) struct SockTransport {
    pub(crate) my_proc: usize,
    n_procs: usize,
    /// Concrete address our listener answers on (what peers dial).
    pub(crate) listener_addr: String,
    /// The receive half, whole: what the readers take off the wire — and
    /// what a rank sends itself — is deposited here, and every matched
    /// receive, probe, park and rank-death flag is this transport's.
    rx: ThreadTransport,
    /// Per-peer-process links; `None` at `my_proc` in multi-process
    /// worlds (a loopback world has its self-link at index 0).
    pub(crate) links: Vec<Option<Arc<Link>>>,
    chans: Mutex<ChanTable>,
    pub(crate) ctrl: Ctrl,
    shutdown: Arc<AtomicBool>,
    accept_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    writer_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
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
        self.handshake_connect(&link, stream)
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
            ctrl: Ctrl::default(),
            shutdown: Arc::new(AtomicBool::new(false)),
            accept_thread: Mutex::new(None),
            writer_threads: Mutex::new(Vec::new()),
            me: Mutex::new(Weak::new()),
        });
        *t.me.lock() = Arc::downgrade(&t);
        {
            let mut writers = t.writer_threads.lock();
            for link in t.links.iter().flatten() {
                let l = Arc::clone(link);
                writers.push(
                    std::thread::Builder::new()
                        .name(format!("mpisim-sock-w{}", l.peer_proc))
                        .spawn(move || link::run_writer(l))
                        .expect("spawn sock writer"),
                );
            }
        }
        let weak = Arc::downgrade(&t);
        let shutdown = Arc::clone(&t.shutdown);
        *t.accept_thread.lock() = Some(
            std::thread::Builder::new()
                .name("mpisim-sock-accept".into())
                .spawn(move || run_accept(weak, listener, shutdown))
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
    /// mesh connects; reconnects reuse [`SockTransport::reconnect`]).
    pub(crate) fn connect_to(&self, proc: usize, addr: &str) -> Result<(), String> {
        let link = self.links[proc].as_ref().expect("link exists").clone();
        *link.dial_addr.lock() = Some(addr.to_string());
        let stream = connect_retry(addr, DIAL).map_err(|e| {
            format!(
                "connect to proc {proc} at {addr} failed after {} attempts: {e}",
                DIAL.retries + 1
            )
        })?;
        self.handshake_connect(&link, stream)
            .map_err(|e| format!("handshake with proc {proc} at {addr} failed: {e}"))
    }

    /// Connector-side handshake on a fresh stream: send HELLO with our
    /// cumulative receive seq, await the peer's (remote links), install.
    fn handshake_connect(&self, link: &Arc<Link>, mut stream: Stream) -> std::io::Result<()> {
        let my_rx = link.st.lock().rx_seq;
        stream.write_all(&hello_frame(self.my_proc, my_rx))?;
        if link.self_loop {
            // the peer is this very process: its cumulative rx IS ours,
            // and the accepted end arrives through our own accept loop
            return link.install_writer(stream, my_rx).map_err(invalid_data);
        }
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let mut frames = FrameReader::new(stream.try_clone()?);
        let (_, peer_rx) = parse_hello(&frames.read_frame()?)?;
        stream.set_read_timeout(None)?;
        let gen = link.install(stream, peer_rx).map_err(invalid_data)?;
        self.spawn_reader(Arc::clone(link), frames, gen);
        Ok(())
    }

    /// Accept-side handshake: identify the peer from its HELLO, reply
    /// with our cumulative receive seq, install both directions (or just
    /// the reading end for a loopback self-link). The frame reader that
    /// read the HELLO goes on to the reader thread with whatever else it
    /// already buffered.
    fn handle_accept(&self, mut stream: Stream) -> std::io::Result<()> {
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let mut frames = FrameReader::new(stream.try_clone()?);
        let (proc, peer_rx) = parse_hello(&frames.read_frame()?)?;
        stream.set_read_timeout(None)?;
        if proc == self.my_proc {
            let link = self.links[self.proc_of(0)]
                .as_ref()
                .expect("self-link exists")
                .clone();
            let gen = link.install_reader(stream);
            self.spawn_reader(link, frames, gen);
            return Ok(());
        }
        let link = match self.links.get(proc).and_then(|l| l.as_ref()) {
            Some(l) => Arc::clone(l),
            None => return Err(invalid_data(format!("HELLO from unknown proc {proc}"))),
        };
        let my_rx = link.st.lock().rx_seq;
        stream.write_all(&hello_frame(self.my_proc, my_rx))?;
        let gen = link.install(stream, peer_rx).map_err(invalid_data)?;
        self.spawn_reader(link, frames, gen);
        Ok(())
    }

    fn spawn_reader(&self, link: Arc<Link>, frames: FrameReader<Stream>, gen: u64) {
        let weak = self.me.lock().clone();
        std::thread::Builder::new()
            .name(format!("mpisim-sock-r{}", link.peer_proc))
            .spawn(move || run_reader(weak, link, frames, gen))
            .expect("spawn sock reader");
    }

    /// Connector-side reconnect loop, run by the reader that observed the
    /// break: capped exponential backoff, then permanent failure.
    fn reconnect(&self, link: Arc<Link>, addr: &str) {
        let mut last = String::from("no attempt made");
        for attempt in 0..=DIAL.retries {
            {
                let st = link.st.lock();
                if st.dead || st.shutdown {
                    return;
                }
            }
            match connect_once(addr) {
                Ok(stream) => match self.handshake_connect(&link, stream) {
                    Ok(()) => return,
                    Err(e) => last = e.to_string(),
                },
                Err(e) => last = e.to_string(),
            }
            if attempt < DIAL.retries {
                std::thread::sleep(Duration::from_millis(
                    (DIAL.backoff_ms << attempt.min(16)).min(1000),
                ));
            }
        }
        link.fail(format!(
            "reconnect to proc {} at {addr} failed after {} attempts: {last}",
            link.peer_proc,
            DIAL.retries + 1
        ));
    }

    /// Sequence one frame read by the reader of generation `gen` and route
    /// it to its consumer. `Ok(false)` when that reader has been replaced
    /// and must stop; `Err` on a frame no healthy peer sends.
    fn receive(&self, link: &Link, gen: u64, f: Frame<'_>) -> Result<bool, String> {
        if f.kind == K_ACK {
            let cum_rx = f.body.first_chunk::<8>().ok_or("ACK frame without a seq")?;
            link.apply_ack(u64::from_le_bytes(*cum_rx))?;
            return Ok(true);
        }
        match link.accept(gen, f.seq)? {
            Accept::Stale => return Ok(false),
            Accept::Duplicate => {}
            Accept::Fresh => self.dispatch(f.kind, f.body)?,
        }
        Ok(true)
    }

    /// Route an incoming sequenced frame to its consumer. Every field is
    /// length-checked: the body is whatever the wire said.
    fn dispatch(&self, kind: u8, body: &[u8]) -> Result<(), String> {
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
                // [src u32][dst u32][arrival u64] + one whole envelope
                let (src, dst) = (u32_at(0)?, u32_at(4)?);
                let arrival = f64::from_bits(u64_at(8)?);
                let data_len = u32_at(16 + ENV_LEN_AT)?;
                if dst >= self.rx.n_ranks() || body.len() != 16 + ENV_HDR + data_len {
                    return Err(short());
                }
                let (env, _) = decode_envelope(arrival, &body[16..]);
                self.rx.deposit(src, dst, env);
            }
            K_CHAN => {
                let (key, arrival, payload) = chan::split_frame(body).ok_or_else(short)?;
                let f = {
                    let mut ch = self.chans.lock();
                    match ch.deliver.get(&key) {
                        Some(f) => Arc::clone(f),
                        None => {
                            // receiver not registered yet: stash for the
                            // drain at registration time
                            ch.undelivered
                                .entry(key)
                                .or_default()
                                .push((arrival, payload.to_vec()));
                            return Ok(());
                        }
                    }
                };
                f(arrival, payload)?;
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

    /// Register the receiving side of a persistent channel and drain any
    /// payloads that raced ahead of registration.
    pub(crate) fn register_deliver(&self, key: ChanKey, f: DeliverFn) {
        let pending = {
            let mut ch = self.chans.lock();
            let pending = ch.undelivered.remove(&key).unwrap_or_default();
            ch.deliver.insert(key, Arc::clone(&f));
            pending
        };
        for (arrival, bytes) in pending {
            // on the registering rank's thread: its panic is already loud
            f(arrival, &bytes).unwrap_or_else(|e| panic!("sock channel {key:?}: {e}"));
        }
    }

    /// The channel that registered `f` for `key` dropped: stop delivering
    /// to it. A hook some later registration of the key put in its place
    /// is not this channel's to remove.
    pub(crate) fn unregister_deliver(&self, key: ChanKey, f: &DeliverFn) {
        let mut ch = self.chans.lock();
        if ch.deliver.get(&key).is_some_and(|cur| Arc::ptr_eq(cur, f)) {
            ch.deliver.remove(&key);
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
                    body.extend_from_slice(&env.arrival.to_bits().to_le_bytes());
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

    fn match_recv(
        &self,
        global_dst: usize,
        ctx_id: u64,
        src: usize,
        tag: u64,
        stall: &dyn Fn(),
    ) -> (Envelope, usize) {
        self.rx.match_recv(global_dst, ctx_id, src, tag, stall)
    }

    fn probe(&self, global_dst: usize, ctx_id: u64, src: usize, tag: u64) -> bool {
        self.rx.probe(global_dst, ctx_id, src, tag)
    }

    fn wait_any(
        &self,
        global_rank: usize,
        chans: &[ChanId],
        start: usize,
        stall: &dyn Fn(),
    ) -> usize {
        self.rx.wait_any(global_rank, chans, start, stall)
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
                    let deadline = Instant::now() + Duration::from_secs(2);
                    let mut st = self.ctrl.st.lock();
                    while st.flushed < token {
                        let Some(left) = deadline
                            .checked_duration_since(Instant::now())
                            .filter(|d| !d.is_zero())
                        else {
                            break; // link died mid-drain; fall through to the sweep
                        };
                        self.ctrl.cv.wait_for(&mut st, left);
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
        // the table lock is held per frame and per registration, never
        // across a wait: taking it here cannot wedge the reporter
        let ch = self.chans.lock();
        report.registry.sock_deliver = ch.deliver.len();
        report.registry.sock_undelivered = ch.undelivered.values().map(Vec::len).sum();
    }
}

impl Drop for SockTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for link in self.links.iter().flatten() {
            link.close();
        }
        for h in self.writer_threads.get_mut().drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.accept_thread.get_mut().take() {
            let _ = h.join();
        }
        if link::is_uds(&self.listener_addr) {
            let _ = std::fs::remove_file(&self.listener_addr);
        }
    }
}

/// Accept thread: poll the (non-blocking) listener, handshake each
/// arrival. Failed handshakes are dropped — a half-dialed peer retries.
fn run_accept(t: Weak<SockTransport>, listener: Listener, shutdown: Arc<AtomicBool>) {
    while !shutdown.load(Ordering::Acquire) {
        match listener.try_accept() {
            Ok(Some(stream)) => {
                let Some(t) = t.upgrade() else { return };
                let _ = t.handle_accept(stream);
            }
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Per-connection reader: pull everything the socket has per `read`,
/// decode the frames in place, enforce the sequence discipline
/// (duplicates from replay dropped, gaps fatal), dispatch, and — when the
/// stream breaks and this side is the connector — run the reconnect loop.
/// A frame no healthy peer sends kills the link, with the reason.
fn run_reader(t: Weak<SockTransport>, link: Arc<Link>, mut frames: FrameReader<Stream>, gen: u64) {
    let broke = 'conn: loop {
        link.note_reads(std::mem::take(&mut frames.reads));
        {
            // not held across the blocking read below: the transport
            // must be droppable, and a replacing reader must get in
            let Some(t) = t.upgrade() else { return };
            let _in_order = link.rx_order.lock();
            loop {
                let verdict = match frames.next_buffered() {
                    Ok(Some(f)) => t.receive(&link, gen, f),
                    Ok(None) => break,
                    Err(e) => break 'conn e,
                };
                match verdict {
                    Ok(true) => {}
                    Ok(false) => return, // replaced; the rest comes back through replay
                    Err(why) => break 'conn invalid_data(why),
                }
            }
        }
        if let Err(e) = frames.fill() {
            break e;
        }
    };
    if broke.kind() == std::io::ErrorKind::InvalidData {
        link.fail(format!(
            "malformed traffic from proc {}: {broke}",
            link.peer_proc
        ));
        return;
    }
    let dial = {
        let st = link.st.lock();
        if st.shutdown || st.dead || st.reader_gen != gen {
            return; // replaced or torn down; nothing to heal
        }
        link.dial_addr.lock().clone()
    };
    // disconnect() also starts the passive-side loss clock; with no dial
    // address this is the passive side, and the writer's window decides
    // its fate
    link.disconnect();
    if let Some(addr) = dial {
        let Some(t) = t.upgrade() else { return };
        t.reconnect(link, &addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{Channel, WorldState};
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

    fn pop_expecting(chan: &Channel<u64>, case: u64, n: u64) {
        let mut back = Vec::new();
        for i in 0..n {
            chan.wait_nonempty(|| {});
            let (got, _) = chan.try_pop(&mut back).expect("delivered");
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
        pop_expecting(&chan, 0, BURST);
        let st = link_of(&t).st.lock();
        println!(
            "burst of {BURST}: {} frames in {} writes, {} frames in {} reads, {} writer wakes",
            st.frames_tx, st.write_calls, st.frames_rx, st.read_calls, st.writer_wakes
        );
        assert_eq!((st.frames_tx, st.frames_rx), (BURST, BURST));
        assert!(st.frames_tx / st.write_calls >= 8, "frames per write");
        assert!(st.frames_rx / st.read_calls >= 8, "frames per read");
        // the install's wake is the only one: nothing was queued after
        // it, and a self-link's reader owes the writer no ack
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
            pop_expecting(&chan, k, N);
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
        pop_expecting(&chan, 0, N);
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

    #[test]
    fn malformed_frames_kill_the_link_loudly_and_say_why() {
        let chan_body_too_short = encode_frame(K_CHAN, 1, &[0; 39]);
        let data_body_lies_about_its_length = {
            let mut body = vec![0u8; 16];
            body.extend_from_slice(&encode_env_hdr(0, 0, 0, u64::KIND, 1000));
            body.extend_from_slice(&[7; 24]);
            encode_frame(K_DATA, 1, &body)
        };
        let data_for_a_rank_that_does_not_exist = {
            let mut body = vec![0u8; 16];
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
                "kind-2 frame with a malformed 39-byte body",
            ),
            (
                data_body_lies_about_its_length,
                "kind-1 frame with a malformed 69-byte body",
            ),
            (
                data_for_a_rank_that_does_not_exist,
                "kind-1 frame with a malformed 45-byte body",
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
        let take = |t: &SockTransport, tag: u64| {
            let (env, _) = t.match_recv(0, 0, 1, tag, &|| {});
            env.payload.take::<u64>().expect("u64 payload")
        };
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
        assert!(t.probe(0, 0, 1, 5));
        assert_eq!(take(&t, 5), [11]);
        // ... and a K_DATA frame off the wire lands in the same mailbox
        let mut body = vec![0u8; 16]; // src 1, dst 0, arrival 0.0
        body[0] = 1;
        body.extend_from_slice(&encode_env_hdr(0, 1, 6, u64::KIND, 8));
        body.extend_from_slice(&22u64.to_le_bytes());
        let mut raw = connect_once(&t.listener_addr).expect("dial");
        raw.write_all(&hello_frame(1, 0)).expect("hello");
        raw.write_all(&encode_frame(K_DATA, 1, &body))
            .expect("data");
        assert_eq!(take(&t, 6), [22]);
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
        for word in [0u64, 1, 0, 7, 0] {
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
}
