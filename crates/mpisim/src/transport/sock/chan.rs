//! The socket fabric's persistent-channel body, and both ends of the
//! `K_CHAN` frame that carries its payloads:
//! `[ctx u64][src u64][dst u64][tag u64]` + data. No modeled-clock stamp
//! rides along: a cost model runs on the thread fabric only.

use super::link::{Link, K_CHAN};
use super::{DeliverFn, SockChanWire, SockTransport};
use crate::elem::{elem_bytes, Elem};
use crate::state::ChanKey;
use crate::transport::thread::ThreadChan;
use crate::transport::{bytes_of, vec_extend_bytes};
use parking_lot::Mutex;
use std::sync::Arc;

/// Bytes of a `K_CHAN` body ahead of the payload.
const CHAN_HDR: usize = 32;

/// Socket-fabric channel body. The receive side is an ordinary in-process
/// [`ThreadChan`] fed by the link thread (via the transport's
/// deliver hook); the send side serializes each payload straight into a
/// `K_CHAN` frame of the peer's [`Link`], which owns sequencing,
/// acknowledgement, and replay-on-reconnect. A channel whose two endpoints
/// live in the same process (`route: None`) skips the wire entirely and
/// pushes straight into the local queue — byte-identical semantics, no
/// serialization round trip.
pub(crate) struct SockChan<T> {
    pub(crate) local: Arc<ThreadChan<T>>,
    key: ChanKey,
    route: Option<Arc<Link>>,
    /// The deliver hook this channel registered, and with whom (when this
    /// process hosts the receiving rank): unregistered on drop.
    hook: Option<(Arc<SockTransport>, DeliverFn)>,
    /// The typed staging buffer `fill` writes into, held for the whole
    /// send — one lock acquisition per frame, and a channel has one
    /// sender, so nobody waits on it; reused, so steady-state sends
    /// allocate nothing. The frame itself is the link's recycled buffer.
    scratch: Mutex<Vec<T>>,
}

impl<T: Elem> SockChan<T> {
    /// A local receive queue plus an optional wire route. If this process
    /// hosts the receiving rank, hook the transport's deliver table so the
    /// link thread deserializes arriving frames straight into the local
    /// queue.
    pub(crate) fn new(key: ChanKey, wire: SockChanWire) -> Self {
        let local = Arc::new(ThreadChan::new(wire.park));
        let hook = wire.register.map(|t| {
            let local = Arc::clone(&local);
            let f: DeliverFn = Arc::new(move |bytes: &[u8]| {
                if !bytes.len().is_multiple_of(elem_bytes::<T>()) {
                    return Err(format!(
                        "payload of {} bytes is not a whole number of {} elements",
                        bytes.len(),
                        std::any::type_name::<T>()
                    ));
                }
                local.push_with(0.0, |buf| vec_extend_bytes(buf, bytes, &[]));
                Ok(())
            });
            t.register_deliver(key, Arc::clone(&f));
            (t, f)
        });
        Self {
            local,
            key,
            route: wire.route,
            hook,
            scratch: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn push_with(&self, fill: impl FnOnce(&mut Vec<T>)) {
        let Some(link) = &self.route else {
            return self.local.push_with(0.0, fill);
        };
        let mut vals = self.scratch.lock();
        vals.clear();
        fill(&mut vals);
        let (ctx_id, src, dst, tag) = self.key;
        link.send_frame_with(K_CHAN, |body| {
            for word in [ctx_id, src as u64, dst as u64, tag] {
                body.extend_from_slice(&word.to_le_bytes());
            }
            body.extend_from_slice(bytes_of(&vals));
        });
    }
}

impl<T> Drop for SockChan<T> {
    fn drop(&mut self) {
        if let Some((t, f)) = &self.hook {
            t.unregister_deliver(self.key, f);
        }
    }
}

/// Take a `K_CHAN` body apart: the channel it is for and its payload.
/// `None` for a body shorter than the header.
pub(super) fn split_frame(body: &[u8]) -> Option<(ChanKey, &[u8])> {
    let (hdr, payload) = body.split_first_chunk::<CHAN_HDR>()?;
    let word = |i: usize| u64::from_le_bytes(hdr[8 * i..][..8].try_into().expect("8 bytes"));
    let key = (word(0), word(1) as usize, word(2) as usize, word(3));
    Some((key, payload))
}
