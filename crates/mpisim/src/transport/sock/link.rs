//! Socket-fabric link layer: stream/listener abstraction over TCP and
//! Unix-domain sockets, the length-prefixed frame codec, capped
//! exponential-backoff connect, and the per-peer [`Link`] state machine
//! (outbox, replay buffer, sequence numbers, liveness clock).
//!
//! One [`Link`] carries ALL traffic between two processes over a single
//! full-duplex connection: plain-send envelopes, persistent-channel
//! payloads, control words, and heartbeats. Sequenced frames get a
//! per-link monotonic sequence number and stay in the replay buffer until
//! cumulatively acknowledged, so a severed connection resumes exactly
//! where it left off (exactly-once: the receiver drops seqs it has
//! already seen, and a gap kills the link).
//!
//! Every link, remote or loopback, is driven by one thread (the transport's
//! `run_link`), and the link pays per *cycle*, not per frame: senders
//! encode straight into recycled frame buffers and wake the thread only
//! when it is parked; each turn it coalesces everything queued since its
//! last one into one non-blocking `write`, takes whatever the kernel has
//! in one non-blocking `read`, parses the frames where they landed, and
//! publishes what the burst accepted under the link lock once
//! ([`RxCursor`]). A turn with nothing to do yields; after
//! [`PARK_SPIN`](crate::transport::PARK_SPIN) of them the thread sleeps
//! in one `poll(2)` ([`Link::park`]) on its reading end, its writing end
//! while output is pending, and a wake pair that senders, installs,
//! severs and teardown write one byte to while it is parked.

use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frame kinds. `HELLO` and `ACK` are unsequenced (seq 0); everything
/// else is sequenced and replayed across reconnects.
pub(crate) const K_DATA: u8 = 1; // plain-send envelope
pub(crate) const K_CHAN: u8 = 2; // persistent-channel payload
pub(crate) const K_HELLO: u8 = 3; // handshake: [proc u32][last_rx u64]
pub(crate) const K_ACK: u8 = 4; // cumulative ack / heartbeat: [cum_rx u64]
pub(crate) const K_CMD: u8 = 5; // epoch command word: [word u64]
pub(crate) const K_DONE: u8 = 6; // epoch completion: [rank u32][epoch u64]
pub(crate) const K_DEATH: u8 = 7; // rank death notice: [rank u32]
pub(crate) const K_FLUSH: u8 = 8; // drain round-trip token: [token u64]
pub(crate) const K_JOIN: u8 = 9; // bootstrap: [rank u32][addr_len u32][addr]
pub(crate) const K_TABLE: u8 = 10; // bootstrap: [n u32]([len u32][addr])*n

/// Bytes of frame header after the 4-byte length prefix:
/// `[kind u8][pad 3][seq u64]`.
const FRAME_HDR: usize = 12;

/// Largest `len` a frame may declare. The sender asserts it, the decoder
/// rejects anything above it before sizing a buffer from the wire.
const MAX_FRAME: usize = 1 << 28;

/// Bytes one link moves per syscall when traffic is small: the frame
/// reader's buffer (grown only for a frame that exceeds it) and the
/// budget of frames the link thread coalesces into one `write` (a larger
/// frame goes alone).
pub(crate) const IO_BATCH: usize = 64 << 10;

/// Hard cap on unacknowledged sequenced frames. A healthy peer acks every
/// few frames and on every heartbeat, so hitting this means the peer has
/// stopped consuming for far longer than any reconnect window — degrade
/// loudly instead of buffering without bound.
const REPLAY_CAP: usize = 1 << 16;

/// Acknowledged frame buffers kept for reuse by the next sends, and the
/// largest capacity worth keeping.
const POOL_FRAMES: usize = 256;
const POOL_FRAME_BYTES: usize = 2 * IO_BATCH;

/// Append one frame to `out`: `[len u32][kind u8][pad 3][seq u64][body]`
/// where `len` counts everything after the length prefix and `body` is
/// whatever the closure appends.
pub(crate) fn encode_frame_into(
    out: &mut Vec<u8>,
    kind: u8,
    seq: u64,
    body: impl FnOnce(&mut Vec<u8>),
) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.push(kind);
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&seq.to_le_bytes());
    body(out);
    let len = out.len() - at - 4;
    assert!(
        len <= MAX_FRAME,
        "sock frame of {len} bytes exceeds the {MAX_FRAME}-byte frame cap"
    );
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// One frame in a buffer of its own (handshakes; data frames are encoded
/// in place by [`Link::send_frame_with`]).
pub(crate) fn encode_frame(kind: u8, seq: u64, body: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(4 + FRAME_HDR + body.len());
    encode_frame_into(&mut f, kind, seq, |b| b.extend_from_slice(body));
    f
}

pub(crate) fn invalid_data(why: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why.into())
}

/// One decoded frame, borrowed from its [`FrameReader`]'s buffer.
#[derive(Debug, PartialEq)]
pub(crate) struct Frame<'a> {
    pub kind: u8,
    pub seq: u64,
    pub body: &'a [u8],
}

/// Frame decoder over a byte stream. One reusable buffer takes whatever
/// the source has per `read` — a whole burst of small frames, typically —
/// and frames are parsed where they landed; only a frame that straddles
/// the buffer's end is moved (its prefix, to the front), and only a frame
/// larger than the buffer grows it.
pub(crate) struct FrameReader<R> {
    src: R,
    buf: Vec<u8>,
    /// Unparsed bytes are `buf[head..tail]`.
    head: usize,
    tail: usize,
    /// `read`s done since the owner last took the count (the link
    /// thread folds them into [`LinkState::read_calls`], the handshake's
    /// included: a burst can arrive with the HELLO).
    pub reads: u64,
}

impl<R: Read> FrameReader<R> {
    pub fn new(src: R) -> Self {
        Self {
            src,
            buf: vec![0; IO_BATCH],
            head: 0,
            tail: 0,
            reads: 0,
        }
    }

    /// Wire size (prefix included) of the frame at `head`, once its
    /// length prefix is buffered. The declared length is validated here,
    /// before anything is sized or indexed by it.
    fn frame_size(&self) -> std::io::Result<Option<usize>> {
        let Some(prefix) = self.buf[self.head..self.tail].first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if !(FRAME_HDR..=MAX_FRAME).contains(&len) {
            return Err(invalid_data(format!(
                "sock frame declares {len} bytes (header is {FRAME_HDR}, cap is {MAX_FRAME})"
            )));
        }
        Ok(Some(4 + len))
    }

    /// Wire size of the frame at `head` if all of it is buffered.
    fn whole_frame(&self) -> std::io::Result<Option<usize>> {
        Ok(self
            .frame_size()?
            .filter(|size| self.tail - self.head >= *size))
    }

    /// Consume the whole frame of `size` wire bytes at `head`.
    fn take(&mut self, size: usize) -> Frame<'_> {
        let f = &self.buf[self.head..self.head + size];
        self.head += size;
        let seq = *f[8..].first_chunk::<8>().expect("frame holds its header");
        Frame {
            kind: f[4],
            seq: u64::from_le_bytes(seq),
            body: &f[4 + FRAME_HDR..],
        }
    }

    /// The byte source.
    pub fn source(&self) -> &R {
        &self.src
    }

    /// The next frame if all of it is already buffered; never reads.
    pub fn next_buffered(&mut self) -> std::io::Result<Option<Frame<'_>>> {
        Ok(self.whole_frame()?.map(|size| self.take(size)))
    }

    /// Make room for the rest of the frame at `head`: move its prefix to
    /// the front if it would run past the buffer's end, and grow the
    /// buffer only for a frame larger than it.
    fn make_room(&mut self) -> std::io::Result<()> {
        if self.head == self.tail {
            (self.head, self.tail) = (0, 0);
        }
        let need = self.frame_size()?.unwrap_or(4);
        if self.head + need > self.buf.len() {
            self.buf.copy_within(self.head..self.tail, 0);
            (self.head, self.tail) = (0, self.tail - self.head);
            if need > self.buf.len() {
                self.buf.resize(need.next_power_of_two(), 0);
            }
        }
        Ok(())
    }

    /// Count a `read` of `n` bytes into `buf[tail..]`. End of stream is an
    /// error: a link never expects one.
    fn landed(&mut self, n: usize) -> std::io::Result<()> {
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        self.tail += n;
        self.reads += 1;
        Ok(())
    }

    /// One `read` of whatever the source has, after making room for the
    /// rest of the frame at `head`.
    pub fn fill(&mut self) -> std::io::Result<()> {
        self.make_room()?;
        loop {
            match self.src.read(&mut self.buf[self.tail..]) {
                Ok(n) => return self.landed(n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Block until one whole frame is buffered and return it (handshakes;
    /// the link thread drains [`FrameReader::next_buffered`] between
    /// [`FrameReader::fill_now`]s instead).
    pub fn read_frame(&mut self) -> std::io::Result<Frame<'_>> {
        let size = loop {
            if let Some(size) = self.whole_frame()? {
                break size;
            }
            self.fill()?;
        };
        Ok(self.take(size))
    }
}

/// `true` if `spec` names a Unix-domain socket path rather than a TCP
/// `host:port` endpoint.
pub(crate) fn is_uds(spec: &str) -> bool {
    spec.starts_with('/') || !spec.contains(':')
}

/// One bidirectional byte stream, TCP or Unix-domain.
#[derive(Debug)]
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// Shut down both directions; the link thread's next read on any
    /// clone of this socket sees EOF (the lever behind `sever_link` and
    /// half-open detection).
    pub fn shutdown_both(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }

    pub fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }

    /// Write what the socket takes of `buf` without waiting for room (on
    /// an end [`Stream::set_nonblocking`] made so): the bytes written,
    /// fewer than `buf.len()` when the socket filled.
    pub fn write_now(&self, buf: &[u8]) -> std::io::Result<usize> {
        let mut done = 0;
        while done < buf.len() {
            match (&mut &*self).write(&buf[done..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => done += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(done)
    }

    /// `O_NONBLOCK` on the open socket: a `write` takes what fits and
    /// reports `WouldBlock` instead of waiting for room. Set on every end a
    /// link thread writes, once its handshake is done.
    pub fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(true),
            Stream::Unix(s) => s.set_nonblocking(true),
        }
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// One entry of `poll(2)`'s descriptor array.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

// No `libc` crate is vendored; like the shm fabric's calls these are
// declared against the C library the std binary already links.
extern "C" {
    fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
}

/// This one `recv` returns `EAGAIN` instead of blocking (per call: a
/// self-link's reading end is not `O_NONBLOCK`, nor is an end mid-handshake).
const MSG_DONTWAIT: i32 = 0x40;

/// `poll` events: bytes to read, room to write.
const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

impl Stream {
    /// A read that never blocks: `WouldBlock` when the socket is empty.
    fn read_now(&self, buf: &mut [u8]) -> std::io::Result<usize> {
        // SAFETY: `as_raw_fd` is this stream's open socket and `buf` is an
        // exclusively borrowed buffer of `buf.len()` writable bytes, the
        // most `recv` stores.
        let n = unsafe { recv(self.as_raw_fd(), buf.as_mut_ptr(), buf.len(), MSG_DONTWAIT) };
        usize::try_from(n).map_err(|_| std::io::Error::last_os_error())
    }
}

/// Sleep in one `poll` until `wake` or `read` has bytes (or a connection),
/// `write` has room, or `timeout`, if any, passes; a hang-up or error on
/// any of them ends it too. Whether `wake` had bytes.
pub(crate) fn poll_ready(
    wake: &UnixStream,
    read: Option<&dyn AsRawFd>,
    write: Option<&dyn AsRawFd>,
    timeout: Option<Duration>,
) -> bool {
    // a negative descriptor is one `poll` skips
    let entry = |s: Option<&dyn AsRawFd>, events| PollFd {
        fd: s.map_or(-1, |s| s.as_raw_fd()),
        events,
        revents: 0,
    };
    let mut fds = [
        PollFd {
            fd: wake.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        },
        entry(read, POLLIN),
        entry(write, POLLOUT),
    ];
    let timeout_ms = timeout.map_or(-1, |t| t.as_millis().min(i32::MAX as u128) as i32);
    // SAFETY: `fds` is an array of `fds.len()` initialised entries, each
    // descriptor kept open for the call by the borrow it came from; `poll`
    // writes only their `revents`. An interrupted call (-1) leaves them
    // zero, which the caller takes for a timeout.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
    fds[0].revents & POLLIN != 0
}

impl FrameReader<Stream> {
    /// [`FrameReader::fill`] that never blocks: `Ok(false)` when the
    /// socket has nothing to read.
    pub fn fill_now(&mut self) -> std::io::Result<bool> {
        self.make_room()?;
        loop {
            match self.src.read_now(&mut self.buf[self.tail..]) {
                Ok(n) => return self.landed(n).map(|()| true),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A blocking read: handshakes only, on an end not yet `O_NONBLOCK`.
impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

/// Writing needs only a shared handle (as for the std socket types), so
/// the link thread writes through the `Arc` the link state holds.
impl Write for &Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => (&*s).write(buf),
            Stream::Unix(s) => (&*s).write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(()) // sockets have no user-space write buffer
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        (&*self).write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A bound rendezvous endpoint, TCP or Unix-domain.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

static AUTO_ADDR: AtomicU64 = AtomicU64::new(0);

/// A fresh auto-assigned Unix-domain socket path under the temp dir.
pub(crate) fn auto_addr() -> String {
    let n = AUTO_ADDR.fetch_add(1, Ordering::Relaxed);
    crate::env::temp_dir()
        .join(format!("mpisim-sock-{}-{n}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

impl Listener {
    /// Bind `spec` (UDS path or TCP `host:port`; port 0 allocates).
    /// Returns the listener and the concrete address peers should dial.
    pub fn bind(spec: &str) -> std::io::Result<(Listener, String)> {
        if is_uds(spec) {
            let l = UnixListener::bind(spec)?;
            l.set_nonblocking(true)?;
            Ok((Listener::Unix(l), spec.to_string()))
        } else {
            let l = TcpListener::bind(spec)?;
            l.set_nonblocking(true)?;
            let actual = l.local_addr()?.to_string();
            Ok((Listener::Tcp(l), actual))
        }
    }

    /// Non-blocking accept (listeners are bound non-blocking: the accept
    /// thread sleeps in `poll_ready` on the listener and its wake pair,
    /// then takes what came). Accepted streams are blocking.
    pub fn try_accept(&self) -> std::io::Result<Option<Stream>> {
        let got = match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    s.set_nodelay(true)?;
                    Some(Stream::Tcp(s))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Some(Stream::Unix(s))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
        };
        Ok(got)
    }
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }
}

/// Retry/backoff policy for dialing a peer: `retries` further attempts
/// after the first, `backoff_ms` doubled per attempt, capped at 1 s, plus
/// deterministic jitter.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RetryCfg {
    pub retries: u64,
    pub backoff_ms: u64,
}

/// What every link dials and redials with. Its [`RetryCfg::window_ms`]
/// (4.9 s) is also how long a severed link may stay down before the
/// passive side declares the peer lost.
pub(crate) const DIAL: RetryCfg = RetryCfg {
    retries: 8,
    backoff_ms: 10,
};

impl RetryCfg {
    /// The un-jittered wait after failed attempt `attempt` (from 0).
    fn base_ms(&self, attempt: u64) -> u64 {
        (self.backoff_ms << attempt.min(16)).min(1000)
    }

    /// How long to wait after failed attempt `attempt` (from 0) before
    /// the next: the one schedule every dial and redial sleeps.
    pub fn delay(&self, attempt: u64) -> Duration {
        let base = self.base_ms(attempt);
        // deterministic jitter: spread simultaneous dials without a RNG
        let jitter = (std::process::id() as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt)
            % (base / 2 + 1);
        Duration::from_millis(base + jitter)
    }

    /// Upper bound on how long a full retry schedule can take — the
    /// passive side uses it as its disconnected-too-long window.
    pub fn window_ms(&self) -> u64 {
        (0..=self.retries)
            .map(|a| self.base_ms(a) * 3 / 2)
            .sum::<u64>()
            .max(500)
    }
}

/// Dial `addr` once.
pub(crate) fn connect_once(addr: &str) -> std::io::Result<Stream> {
    if is_uds(addr) {
        Ok(Stream::Unix(UnixStream::connect(addr)?))
    } else {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(Stream::Tcp(s))
    }
}

/// Dial `addr` with capped exponential backoff + jitter. `1 + retries`
/// total attempts.
pub(crate) fn connect_retry(addr: &str, cfg: RetryCfg) -> std::io::Result<Stream> {
    let mut last = None;
    for attempt in 0..=cfg.retries {
        match connect_once(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
        if attempt < cfg.retries {
            std::thread::sleep(cfg.delay(attempt));
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("no connect attempts made")))
}

/// Mutable half of a [`Link`].
pub(crate) struct LinkState {
    /// Socket the link thread writes to (`None` while disconnected). On a
    /// remote link it carries both directions, so shutting it down also
    /// ends the stream the thread reads.
    pub writer_sock: Option<Arc<Stream>>,
    /// Self-link only: the accepted end the link thread reads from, kept
    /// so `disconnect` can shut it down.
    pub reader_sock: Option<Stream>,
    /// A newly installed connection's frame reader (holding whatever the
    /// handshake buffered past the HELLO), waiting for the link thread to
    /// take it up in place of the one it replaces.
    pub incoming: Option<FrameReader<Stream>>,
    /// Every unacknowledged sequenced frame, seq-contiguous: entry `i`
    /// carries seq `acked + 1 + i` and the last one `tx_seq`. Doubles as
    /// the outbox: entries from index `sent - acked` on have not been
    /// written yet.
    pub replay: VecDeque<Vec<u8>>,
    /// Acknowledged frame buffers awaiting reuse.
    pool: Vec<Vec<u8>>,
    /// Last sequence number assigned to an outgoing frame.
    pub tx_seq: u64,
    /// Last seq physically written on the CURRENT connection (reset to
    /// the peer's cumulative rx on reconnect, which is what makes resume
    /// work: the link thread re-sends everything the peer missed). Never
    /// behind `acked`.
    pub sent: u64,
    /// Last in-order seq received from the peer.
    pub rx_seq: u64,
    /// Peer's cumulative ack of our frames.
    pub acked: u64,
    /// Frames received since we last acked; at [`ACK_EVERY`] the link
    /// thread's next cycle carries an ack.
    pub rx_since_ack: u64,
    /// The link thread is parked in its `poll`. Whoever changes what it
    /// waits for — a sender, an install, a sever, teardown — writes the
    /// wake byte only then, and clears this: one byte wakes a park.
    parked: bool,
    /// Sequenced frames written, counting re-sends after a reconnect.
    pub frames_tx: u64,
    /// `write` cycles of the link thread (acks and heartbeats included).
    pub write_calls: u64,
    /// Sequenced frames accepted in order (duplicates not counted).
    pub frames_rx: u64,
    /// `read` calls of the link thread.
    pub read_calls: u64,
    /// Times a wake byte ended the link thread's park.
    pub writer_wakes: u64,
    /// Completed reconnects (forensics).
    pub reconnects: u64,
    /// When the link lost its connection; `None` while connected (or
    /// never yet connected — bootstrap dials don't start the clock).
    pub disconnected_since: Option<Instant>,
    /// Permanent failure: set once, never cleared. Senders drop, blocked
    /// waits surface it through `peer_failure`.
    pub dead: bool,
    /// Why the link died.
    pub dead_note: Option<String>,
    /// Orderly transport teardown (distinct from `dead`: not an error).
    pub shutdown: bool,
}

impl LinkState {
    /// Shut down whatever sockets are installed; the link thread's next
    /// read and write on them fail.
    fn drop_socks(&mut self) {
        if let Some(s) = self.writer_sock.take() {
            s.shutdown_both();
        }
        if let Some(s) = self.reader_sock.take() {
            s.shutdown_both();
        }
    }

    /// Lose the connection: shut it down and start the disconnected
    /// clock, which the passive side's loss check and the reconnect count
    /// read.
    pub fn lose_conn(&mut self) {
        self.drop_socks();
        self.disconnected_since.get_or_insert_with(Instant::now);
    }

    /// Move the next cycle into `out`: every frame not yet written on
    /// this connection, up to [`IO_BATCH`] bytes (a larger frame goes
    /// alone). Returns how many frames it took.
    pub fn take_cycle(&mut self, out: &mut Vec<u8>) -> u64 {
        let mut frames = 0;
        for f in self.replay.range((self.sent - self.acked) as usize..) {
            if frames > 0 && out.len() + f.len() > IO_BATCH {
                break;
            }
            out.extend_from_slice(f);
            frames += 1;
        }
        self.sent += frames;
        self.frames_tx += frames;
        frames
    }

    /// Retire every frame up to the cumulative ack `cum` (≤ `tx_seq`),
    /// keeping the buffers for reuse. An ack can overtake the send cursor
    /// right after a resume rewound it (the replaced connection's reader
    /// was still draining its socket), so the cursor follows.
    fn trim(&mut self, cum: u64) {
        if cum <= self.acked {
            return;
        }
        for f in self.replay.drain(..(cum - self.acked) as usize) {
            if self.pool.len() < POOL_FRAMES && f.capacity() <= POOL_FRAME_BYTES {
                self.pool.push(f);
            }
        }
        self.acked = cum;
        self.sent = self.sent.max(cum);
    }
}

/// Receiver acks at least every this many sequenced frames (heartbeats
/// ack anyway on idle links).
pub(crate) const ACK_EVERY: u64 = 64;

/// The link thread's receive cursor: the sequence discipline runs on its
/// own copy of `rx_seq`, frame by frame and without the link lock, and
/// [`RxCursor::publish`] writes what a burst accepted back under the lock
/// once. Only the link thread advances `rx_seq`, whichever connection
/// the frames came on, so a cursor stays valid from one burst to the next.
pub(crate) struct RxCursor {
    /// Last seq accepted in order.
    rx_seq: u64,
    /// Self-link: the last seq sent as of the last sync. Everything the
    /// link thread reads it wrote before the read, so a seq past it was
    /// never sent.
    tx_seq: u64,
    /// Frames accepted since the last publish.
    fresh: u64,
}

impl RxCursor {
    /// A cursor at `st`'s position.
    pub fn new(st: &LinkState) -> Self {
        let mut cursor = RxCursor {
            rx_seq: 0,
            tx_seq: 0,
            fresh: 0,
        };
        cursor.sync(st);
        cursor
    }

    /// Catch up with the link: `rx_seq` as published, `tx_seq` as sent.
    pub fn sync(&mut self, st: &LinkState) {
        self.rx_seq = st.rx_seq;
        self.tx_seq = st.tx_seq;
    }

    /// Sequence discipline for one received sequenced frame: exactly-once
    /// and in order. A gap is a protocol violation (`Err`), and so is a
    /// self-link frame never sent.
    pub fn accept(&mut self, link: &Link, seq: u64) -> Result<Accept, String> {
        if seq <= self.rx_seq {
            return Ok(Accept::Duplicate);
        }
        if seq != self.rx_seq + 1 {
            return Err(format!(
                "sequence gap from proc {}: seq {seq} after {} (exactly-once violated)",
                link.peer_proc, self.rx_seq
            ));
        }
        if link.self_loop && seq > self.tx_seq {
            // received means sent on a self-link
            return Err(link.never_sent(seq, self.tx_seq));
        }
        self.rx_seq = seq;
        self.fresh += 1;
        Ok(Accept::Fresh)
    }

    /// End a burst of `reads` `read`s: publish the cursor, count the
    /// frames and reads, and settle the acks — locally on a self-link
    /// (both ends share this state), else by counting what the next ack
    /// owes. One lock acquisition, none for a burst that read and
    /// accepted nothing.
    pub fn publish(&mut self, link: &Link, reads: u64) {
        if reads == 0 && self.fresh == 0 {
            return;
        }
        link.touch();
        let mut st = link.st.lock();
        st.read_calls += reads;
        st.rx_seq = self.rx_seq;
        st.frames_rx += self.fresh;
        if link.self_loop {
            st.trim(self.rx_seq);
        } else {
            st.rx_since_ack += self.fresh;
        }
        self.fresh = 0;
    }
}

/// What the sequence discipline made of one received frame.
#[derive(Debug, PartialEq)]
pub(crate) enum Accept {
    /// Next in order: dispatch it.
    Fresh,
    /// Already seen (a replay after reconnect): drop it.
    Duplicate,
}

/// One peer-process connection: all state shared between the link's
/// thread, depositing ranks, and forensics.
pub(crate) struct Link {
    /// Peer process index this link reaches.
    pub peer_proc: usize,
    /// World rank to blame when the link dies (the peer's rank under
    /// one-rank-per-process worlds; rank 0 of a loopback self-link).
    pub blame: usize,
    /// Loopback self-link: the link thread writes the client end and
    /// reads the accepted end, acks short-circuit locally.
    pub self_loop: bool,
    /// Address to (re)dial, for the connector side; `None` on the
    /// passive side (the peer reconnects to us).
    pub dial_addr: Mutex<Option<String>>,
    pub st: Mutex<LinkState>,
    /// The wake pair: a byte written to `wake_tx` ends the link thread's
    /// `poll`, which watches `wake_rx`. Both ends are non-blocking.
    wake_rx: UnixStream,
    wake_tx: UnixStream,
    /// Liveness clock: ms since `base` when the peer was last heard from.
    pub last_rx_ms: AtomicU64,
    base: Instant,
}

impl Link {
    pub fn new(peer_proc: usize, blame: usize, self_loop: bool) -> Arc<Link> {
        let (wake_rx, wake_tx) = UnixStream::pair().expect("sock link wake pair");
        for end in [&wake_rx, &wake_tx] {
            end.set_nonblocking(true).expect("non-blocking wake pair");
        }
        Arc::new(Link {
            peer_proc,
            blame,
            self_loop,
            dial_addr: Mutex::new(None),
            st: Mutex::new(LinkState {
                writer_sock: None,
                reader_sock: None,
                incoming: None,
                replay: VecDeque::new(),
                pool: Vec::new(),
                tx_seq: 0,
                sent: 0,
                rx_seq: 0,
                acked: 0,
                rx_since_ack: 0,
                parked: false,
                frames_tx: 0,
                write_calls: 0,
                frames_rx: 0,
                read_calls: 0,
                writer_wakes: 0,
                reconnects: 0,
                disconnected_since: None,
                dead: false,
                dead_note: None,
                shutdown: false,
            }),
            wake_rx,
            wake_tx,
            last_rx_ms: AtomicU64::new(0),
            base: Instant::now(),
        })
    }

    /// Record that the peer was heard from just now.
    pub fn touch(&self) {
        self.last_rx_ms
            .store(self.base.elapsed().as_millis() as u64, Ordering::Release);
    }

    /// Milliseconds since the peer was last heard from.
    pub fn silence_ms(&self) -> u64 {
        (self.base.elapsed().as_millis() as u64)
            .saturating_sub(self.last_rx_ms.load(Ordering::Acquire))
    }

    /// Whether the link thread has somewhere to write: a socket, and on a
    /// self-link the accepted end to read it back from as well.
    pub fn connected(&self, st: &LinkState) -> bool {
        st.writer_sock.is_some() && (!self.self_loop || st.reader_sock.is_some())
    }

    /// Release `st`, waking the link thread if it is parked.
    fn wake(&self, mut st: MutexGuard<'_, LinkState>) {
        let parked = std::mem::take(&mut st.parked);
        drop(st);
        if parked {
            // a full pair already holds a wake
            let _ = (&self.wake_tx).write(&[1]);
        }
    }

    /// Park the link thread in one `poll` for at most `timeout`, until the
    /// wake pair or `read` has bytes or `write` has room, releasing `st`
    /// meanwhile, and count the wakes that came through the pair.
    pub fn park<'a>(
        &'a self,
        mut st: MutexGuard<'a, LinkState>,
        timeout: Duration,
        read: Option<&Stream>,
        write: Option<&Stream>,
    ) -> MutexGuard<'a, LinkState> {
        st.parked = true;
        drop(st);
        let (read, write) = (read.map(|s| s as _), write.map(|s| s as _));
        let woken = poll_ready(&self.wake_rx, read, write, Some(timeout));
        if woken {
            let _ = (&self.wake_rx).read(&mut [0; 64]);
        }
        let mut st = self.st.lock();
        st.parked = false;
        st.writer_wakes += u64::from(woken);
        st
    }

    /// Queue one sequenced frame. Never blocks; frames queued while the
    /// link is down ride the replay buffer through the next reconnect.
    pub fn send_frame(&self, kind: u8, body: &[u8]) {
        self.send_frame_with(kind, |b| b.extend_from_slice(body));
    }

    /// [`Link::send_frame`] with the body written by `body` straight into
    /// the queued frame (a recycled buffer), outside the link lock.
    pub fn send_frame_with(&self, kind: u8, body: impl FnOnce(&mut Vec<u8>)) {
        let mut f = self.st.lock().pool.pop().unwrap_or_default();
        f.clear();
        encode_frame_into(&mut f, kind, 0, body); // seq: assigned under the lock
        let mut st = self.st.lock();
        if st.dead || st.shutdown {
            return; // peer_failure() reports the death; don't pile on
        }
        assert!(
            st.replay.len() < REPLAY_CAP,
            "sock link to proc {}: replay buffer overflow ({} unacknowledged frames) — \
             peer stopped consuming",
            self.peer_proc,
            st.replay.len(),
        );
        st.tx_seq += 1;
        f[8..16].copy_from_slice(&st.tx_seq.to_le_bytes());
        st.replay.push_back(f);
        // a parked thread with no socket has nothing to do with the frame;
        // the install that brings one wakes it
        if self.connected(&st) {
            self.wake(st);
        }
    }

    /// Sever the current connection (`sever_link`: an injected `drop=`
    /// fault, or a test). The link thread's next read sees the break: on
    /// the connector side it redials, and the passive side's
    /// disconnected-too-long clock starts.
    pub fn disconnect(&self) {
        let mut st = self.st.lock();
        st.lose_conn();
        self.wake(st);
    }

    /// Permanent failure: record the reason and tear the link down.
    pub fn fail(&self, note: String) {
        let mut st = self.st.lock();
        if st.dead || st.shutdown {
            return;
        }
        st.dead = true;
        st.dead_note = Some(note);
        st.drop_socks();
        self.wake(st);
    }

    /// The peer sent a frame no healthy peer sends: fail with `why`.
    pub fn fail_malformed(&self, why: &std::io::Error) {
        self.fail(format!(
            "malformed traffic from proc {}: {why}",
            self.peer_proc
        ));
    }

    /// Orderly teardown at transport drop.
    pub fn close(&self) {
        let mut st = self.st.lock();
        st.shutdown = true;
        st.drop_socks();
        self.wake(st);
    }

    /// Install a fresh connection carrying both directions (remote
    /// links): `stream` to write, and `frames`, its reader holding
    /// whatever the handshake buffered, for the link thread to take up at
    /// its next turn in place of the replaced connection's. `peer_rx` is
    /// the peer's cumulative receive seq from its HELLO: everything after
    /// it gets re-sent.
    pub fn install(
        &self,
        stream: Stream,
        frames: FrameReader<Stream>,
        peer_rx: u64,
    ) -> Result<(), String> {
        let mut st = self.st.lock();
        self.resume(&mut st, peer_rx)?;
        st.drop_socks();
        st.writer_sock = Some(Arc::new(stream));
        st.incoming = Some(frames);
        self.touch();
        self.wake(st);
        Ok(())
    }

    /// Self-link: install only the writing end (the client side of the
    /// loopback connection, non-blocking). The accepted end arrives
    /// separately through the accept loop ([`Link::install_reader`]); the
    /// link thread is woken by whichever of the two completes the pair.
    pub fn install_writer(&self, stream: Stream, peer_rx: u64) -> Result<(), String> {
        let mut st = self.st.lock();
        self.resume(&mut st, peer_rx)?;
        if let Some(s) = st.writer_sock.replace(Arc::new(stream)) {
            s.shutdown_both();
        }
        self.touch();
        if self.connected(&st) {
            self.wake(st);
        }
        Ok(())
    }

    /// Self-link: install the reading end — `stream`, and `frames`, its
    /// reader with whatever the handshake buffered — for the link thread
    /// to take up.
    pub fn install_reader(&self, stream: Stream, frames: FrameReader<Stream>) {
        let mut st = self.st.lock();
        if let Some(s) = st.reader_sock.replace(stream) {
            s.shutdown_both();
        }
        st.incoming = Some(frames);
        self.touch();
        if self.connected(&st) {
            self.wake(st);
        }
    }

    /// Rewind the send cursor to what the peer actually has, dropping
    /// acknowledged frames from replay, and count the reconnect.
    fn resume(&self, st: &mut LinkState, peer_rx: u64) -> Result<(), String> {
        self.check_ack(st, peer_rx)?;
        st.trim(peer_rx);
        st.sent = st.acked;
        if st.disconnected_since.take().is_some() {
            st.reconnects += 1;
        }
        Ok(())
    }

    /// A peer cannot have received what was never sent.
    fn check_ack(&self, st: &LinkState, cum_rx: u64) -> Result<(), String> {
        if cum_rx > st.tx_seq {
            return Err(self.never_sent(cum_rx, st.tx_seq));
        }
        Ok(())
    }

    fn never_sent(&self, seq: u64, tx_seq: u64) -> String {
        format!(
            "proc {} acknowledged seq {seq} but only {tx_seq} were ever sent",
            self.peer_proc
        )
    }

    /// Apply a cumulative ack from the peer.
    pub fn apply_ack(&self, cum_rx: u64) -> Result<(), String> {
        let mut st = self.st.lock();
        self.check_ack(&st, cum_rx)?;
        st.trim(cum_rx);
        Ok(())
    }

    /// Forensic snapshot; `"busy"` when the state lock is contended.
    pub fn status(&self) -> crate::stall::LinkStatus {
        let mut status = crate::stall::LinkStatus {
            peer: self.peer_proc,
            state: "busy",
            outbox: 0,
            unacked: 0,
            heartbeat_age_ms: self.silence_ms(),
            frames_tx: 0,
            write_calls: 0,
            frames_rx: 0,
            read_calls: 0,
            writer_wakes: 0,
        };
        if let Some(st) = self.st.try_lock() {
            status.state = if st.dead {
                "dead"
            } else if st.writer_sock.is_some() {
                "connected"
            } else if st.disconnected_since.is_some() {
                "reconnecting"
            } else {
                "connecting"
            };
            status.outbox = (st.tx_seq - st.sent) as usize;
            status.unacked = st.replay.len();
            status.frames_tx = st.frames_tx;
            status.write_calls = st.write_calls;
            status.frames_rx = st.frames_rx;
            status.read_calls = st.read_calls;
            status.writer_wakes = st.writer_wakes;
        }
        status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Owned = (u8, u64, Vec<u8>);

    fn owned(f: Frame<'_>) -> Owned {
        (f.kind, f.seq, f.body.to_vec())
    }

    fn wire(frames: &[Owned]) -> Vec<u8> {
        let mut out = Vec::new();
        for (kind, seq, body) in frames {
            encode_frame_into(&mut out, *kind, *seq, |b| b.extend_from_slice(body));
        }
        out
    }

    /// A byte source that hands its data out in the given chunk sizes
    /// (cycled), the way a stream socket may.
    struct Chunked {
        data: Vec<u8>,
        pos: usize,
        chunks: Vec<usize>,
        turn: usize,
    }

    impl Chunked {
        fn new(data: Vec<u8>, chunks: Vec<usize>) -> Self {
            Self {
                data,
                pos: 0,
                chunks,
                turn: 0,
            }
        }
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            assert!(!buf.is_empty(), "decoder asked for zero bytes");
            let chunk = self.chunks[self.turn % self.chunks.len()];
            self.turn += 1;
            let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Decode until the stream ends; the frames, the error that ended
    /// it, and how many source bytes the decoder took.
    fn decode_all(data: Vec<u8>, chunks: Vec<usize>) -> (Vec<Owned>, std::io::Error, usize) {
        let mut rd = FrameReader::new(Chunked::new(data, chunks));
        let mut got = Vec::new();
        let err = loop {
            match rd.read_frame() {
                Ok(f) => got.push(owned(f)),
                Err(e) => break e,
            }
        };
        (got, err, rd.src.pos)
    }

    fn frames_strategy() -> impl Strategy<Value = Vec<Owned>> {
        // mostly small bodies, now and then one past the initial buffer
        let body = (0usize..40, 0usize..300, any::<u8>()).prop_map(|(big, len, fill)| {
            let len = if big == 0 { IO_BATCH + len } else { len };
            (0..len)
                .map(|i| fill.wrapping_add(i as u8))
                .collect::<Vec<u8>>()
        });
        prop::collection::vec((any::<u8>(), any::<u64>(), body), 1..24)
    }

    proptest! {
        #[test]
        fn decoder_is_indifferent_to_chunking(
            frames in frames_strategy(),
            chunks in prop::collection::vec(1usize..40, 1..8),
            whole in any::<bool>(),
        ) {
            let data = wire(&frames);
            let total = data.len();
            // either dribble the stream in or let every read take all there is
            let chunks = if whole { vec![usize::MAX] } else { chunks };
            let (got, err, taken) = decode_all(data, chunks);
            prop_assert_eq!(got, frames);
            prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
            prop_assert_eq!(taken, total);
        }

        #[test]
        fn truncated_stream_yields_the_whole_frames_then_eof(
            frames in frames_strategy(),
            chunk in 1usize..5000,
            cut in 0.0f64..1.0,
        ) {
            let mut data = wire(&frames);
            let cut = (data.len() as f64 * cut) as usize;
            data.truncate(cut);
            // the frames that fit entirely before the cut
            let mut end = 0;
            let whole: Vec<Owned> = frames
                .into_iter()
                .take_while(|f| {
                    end += 4 + FRAME_HDR + f.2.len();
                    end <= cut
                })
                .collect();
            let (got, err, taken) = decode_all(data, vec![chunk]);
            prop_assert_eq!(got, whole);
            prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
            prop_assert_eq!(taken, cut);
        }
    }

    #[test]
    fn one_byte_reads_split_every_prefix_and_header() {
        let frames = vec![
            (K_CHAN, 1, b"first".to_vec()),
            (K_ACK, 0, Vec::new()),
            (K_DATA, u64::MAX, vec![7; 1000]),
        ];
        let (got, err, _) = decode_all(wire(&frames), vec![1]);
        assert_eq!(got, frames);
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_frame_larger_than_the_buffer_grows_it_once() {
        let frames = vec![
            (K_CHAN, 1, vec![1; 100]),
            (K_DATA, 2, vec![2; 3 * IO_BATCH]),
            (K_CHAN, 3, vec![3; 100]),
        ];
        let mut rd = FrameReader::new(Chunked::new(wire(&frames), vec![usize::MAX]));
        for want in &frames {
            assert_eq!(&owned(rd.read_frame().expect("frame")), want);
        }
        assert_eq!(rd.buf.len(), (3 * IO_BATCH + 16).next_power_of_two());
    }

    #[test]
    fn declared_lengths_outside_header_to_cap_are_invalid_and_size_nothing() {
        for len in [0u32, FRAME_HDR as u32 - 1, MAX_FRAME as u32 + 1, u32::MAX] {
            let mut data = len.to_le_bytes().to_vec();
            data.extend_from_slice(&[0; 64]);
            let mut rd = FrameReader::new(Chunked::new(data, vec![3]));
            let err = rd.read_frame().expect_err("must reject");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "len {len}");
            assert_eq!(rd.buf.len(), IO_BATCH, "len {len} sized the buffer");
            assert_eq!(rd.src.pos, 6, "len {len}: read on past the bad prefix");
        }
    }

    fn uds_pair() -> (Stream, Stream) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        (Stream::Unix(a), Stream::Unix(b))
    }

    /// Install `s` as a remote link's connection, as a handshake that read
    /// `peer_rx` from the peer's HELLO does.
    fn install(link: &Link, s: Stream, peer_rx: u64) -> Result<(), String> {
        let frames = FrameReader::new(s.try_clone().expect("dup"));
        link.install(s, frames, peer_rx)
    }

    /// Seqs of the frames the link thread has yet to write.
    fn pending_seqs(st: &LinkState) -> Vec<u64> {
        st.replay
            .range((st.sent - st.acked) as usize..)
            .map(|f| u64::from_le_bytes(f[8..16].try_into().unwrap()))
            .collect()
    }

    #[test]
    fn read_now_never_blocks_and_sees_data_and_eof() {
        let (mut a, b) = uds_pair();
        let mut buf = [0u8; 8];
        let empty = b.read_now(&mut buf).expect_err("nothing was written");
        assert_eq!(empty.kind(), std::io::ErrorKind::WouldBlock);
        a.write_all(b"abc").expect("write");
        assert_eq!(b.read_now(&mut buf).expect("data"), 3);
        assert_eq!(&buf[..3], b"abc");
        a.shutdown_both();
        assert_eq!(b.read_now(&mut buf).expect("eof"), 0);
    }

    #[test]
    fn frame_roundtrips_over_a_loopback_stream() {
        let (l, addr) = Listener::bind(&auto_addr()).expect("bind uds");
        let mut client = connect_once(&addr).expect("connect");
        client
            .write_all(&encode_frame(K_DATA, 7, b"payload"))
            .expect("write");
        let server = loop {
            if let Some(s) = l.try_accept().expect("accept") {
                break s;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let mut frames = FrameReader::new(server);
        let f = frames.read_frame().expect("read frame");
        assert_eq!(owned(f), (K_DATA, 7, b"payload".to_vec()));
        let _ = std::fs::remove_file(&addr);
    }

    #[test]
    fn addr_classification() {
        assert!(is_uds("/tmp/mpisim-sock-1"));
        assert!(is_uds("plain-name"));
        assert!(!is_uds("127.0.0.1:4000"));
        assert!(!is_uds("host.example:9"));
    }

    #[test]
    fn connect_retry_reports_the_last_error_after_exhaustion() {
        let cfg = RetryCfg {
            retries: 2,
            backoff_ms: 1,
        };
        let err = connect_retry("/nonexistent-dir/mpisim-no-such-socket", cfg)
            .expect_err("must exhaust retries");
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn replay_resumes_from_the_peers_cumulative_ack() {
        let link = Link::new(1, 1, false);
        link.send_frame(K_DATA, b"a"); // seq 1
        link.send_frame(K_DATA, b"b"); // seq 2
        link.send_frame(K_DATA, b"c"); // seq 3
        {
            let mut st = link.st.lock();
            st.sent = 3; // pretend all were written on a now-dead conn
        }
        // peer says it saw up to 1: frames 2 and 3 must become pending again
        let (ours, _theirs) = uds_pair();
        install(&link, ours, 1).expect("install");
        let st = link.st.lock();
        assert_eq!(st.sent, 1);
        assert_eq!(st.acked, 1);
        assert_eq!(pending_seqs(&st), vec![2, 3]);
    }

    #[test]
    fn acks_trim_the_replay_buffer_and_recycle_its_frames() {
        let link = Link::new(0, 0, false);
        for _ in 0..5 {
            link.send_frame(K_CMD, &7u64.to_le_bytes());
        }
        link.apply_ack(3).expect("ack");
        {
            let st = link.st.lock();
            assert_eq!(st.acked, 3);
            assert_eq!(st.replay.len(), 2);
            assert_eq!(st.pool.len(), 3);
            assert_eq!(pending_seqs(&st), vec![4, 5]);
        }
        link.send_frame(K_CMD, &8u64.to_le_bytes());
        let st = link.st.lock();
        assert_eq!(st.pool.len(), 2, "the send reused an acknowledged buffer");
        assert_eq!(pending_seqs(&st), vec![4, 5, 6]);
    }

    #[test]
    fn an_ack_ahead_of_the_send_cursor_moves_the_cursor() {
        // after a resume rewound `sent`, the replaced connection's reader
        // may still report frames it had already taken off its socket
        let link = Link::new(1, 1, false);
        for _ in 0..4 {
            link.send_frame(K_CMD, &1u64.to_le_bytes());
        }
        link.apply_ack(3).expect("ack");
        let st = link.st.lock();
        assert_eq!((st.acked, st.sent), (3, 3));
        assert_eq!(pending_seqs(&st), vec![4]);
    }

    #[test]
    fn an_ack_of_frames_never_sent_is_a_protocol_violation() {
        let link = Link::new(1, 1, false);
        link.send_frame(K_CMD, &1u64.to_le_bytes());
        let err = link.apply_ack(2).expect_err("acked the future");
        assert!(err.contains("acknowledged seq 2"), "{err}");
        let (ours, _theirs) = uds_pair();
        assert!(install(&link, ours, 9).is_err(), "HELLO from the future");
        assert!(link.st.lock().writer_sock.is_none(), "nothing installed");
    }

    /// A cursor at `link`'s position.
    fn cursor(link: &Link) -> RxCursor {
        RxCursor::new(&link.st.lock())
    }

    /// Install `s` as a self-link's reading end.
    fn install_reader(link: &Link, s: Stream) {
        link.install_reader(s.try_clone().expect("dup"), FrameReader::new(s))
    }

    #[test]
    fn sequence_discipline_drops_duplicates_and_rejects_gaps() {
        let link = Link::new(1, 1, false);
        let (ours, _theirs) = uds_pair();
        install(&link, ours, 0).expect("install");
        let mut rx = cursor(&link);
        assert_eq!(rx.accept(&link, 1), Ok(Accept::Fresh));
        assert_eq!(rx.accept(&link, 2), Ok(Accept::Fresh));
        assert_eq!(rx.accept(&link, 2), Ok(Accept::Duplicate));
        let err = rx.accept(&link, 4).expect_err("gap");
        assert!(err.contains("seq 4 after 2"), "{err}");
        assert_eq!(link.st.lock().rx_seq, 0, "published mid-burst");
        rx.publish(&link, 1);
        let st = link.st.lock();
        assert_eq!((st.rx_seq, st.frames_rx, st.read_calls), (2, 2, 1));
    }

    #[test]
    fn a_self_link_cursor_trims_what_a_burst_accepted_once() {
        let link = Link::new(0, 0, true);
        let (a, _a) = uds_pair();
        for word in 0..5u64 {
            link.send_frame(K_CMD, &word.to_le_bytes());
        }
        install_reader(&link, a);
        let mut rx = cursor(&link);
        for seq in 1..=4 {
            assert_eq!(rx.accept(&link, seq), Ok(Accept::Fresh));
        }
        assert_eq!(link.st.lock().replay.len(), 5, "trimmed mid-burst");
        rx.publish(&link, 1);
        {
            let st = link.st.lock();
            assert_eq!((st.acked, st.replay.len(), st.pool.len()), (4, 1, 4));
            assert_eq!(st.rx_since_ack, 0, "a self-link owes no ack");
        }
        // received means sent: seq 6 never was
        assert_eq!(rx.accept(&link, 5), Ok(Accept::Fresh));
        let err = rx.accept(&link, 6).expect_err("never sent");
        assert!(err.contains("seq 6 but only 5 were ever sent"), "{err}");
    }
}
