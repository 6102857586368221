//! Shared wire encoding of plain-send envelopes.
//!
//! Both byte fabrics — the shm mailbox rings and the socket fabric's
//! framed streams — carry the same envelope image:
//! `[ctx_id: u64][src: u64][tag: u64][payload_len: u32][kind: u8]`
//! followed by the payload bytes, all little-endian. `kind` is the
//! element type's [`crate::Elem::KIND`]. The arrival stamp rides outside
//! this image (in the shm ring's message header, or the socket frame's
//! body prefix).
//!
//! The shm fabric may split one envelope across several ring frames
//! (bounded rings force chunking; see `RecvState::partial`), so
//! [`decode_envelope`] reports how many payload bytes are still
//! outstanding. A stream fabric sends the whole envelope in one frame and
//! checks its length against `payload_len` first.

use crate::state::{Envelope, Payload};

/// Byte length of the envelope header.
pub(crate) const ENV_HDR: usize = 29;

/// Offset of `payload_len` in the header.
pub(crate) const ENV_LEN_AT: usize = 24;

/// Encode the fixed header of one envelope. `data_len` is the FULL
/// payload length (even when the first frame carries only a prefix).
pub(crate) fn encode_env_hdr(
    ctx_id: u64,
    src: usize,
    tag: u64,
    kind: u8,
    data_len: usize,
) -> [u8; ENV_HDR] {
    let mut hdr = [0u8; ENV_HDR];
    hdr[0..8].copy_from_slice(&ctx_id.to_le_bytes());
    hdr[8..16].copy_from_slice(&(src as u64).to_le_bytes());
    hdr[16..24].copy_from_slice(&tag.to_le_bytes());
    hdr[ENV_LEN_AT..28].copy_from_slice(&(data_len as u32).to_le_bytes());
    hdr[28] = kind;
    hdr
}

/// Parse an envelope's FIRST frame; returns the envelope (payload possibly
/// incomplete) and the byte count still to arrive as continuation frames.
pub(crate) fn decode_envelope(arrival: f64, raw: &[u8]) -> (Envelope, usize) {
    let u64_at = |o: usize| u64::from_le_bytes(raw[o..o + 8].try_into().unwrap());
    let payload_len = u32::from_le_bytes(raw[ENV_LEN_AT..28].try_into().unwrap()) as usize;
    let got = raw.len() - ENV_HDR;
    debug_assert!(got <= payload_len);
    let mut bytes = Vec::with_capacity(payload_len);
    bytes.extend_from_slice(&raw[ENV_HDR..]);
    let env = Envelope {
        ctx_id: u64_at(0),
        src: u64_at(8) as usize,
        tag: u64_at(16),
        arrival,
        payload: Payload {
            kind: raw[28],
            bytes,
        },
    };
    (env, payload_len - got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Elem;

    #[test]
    fn envelope_header_roundtrips() {
        let payload = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let hdr = encode_env_hdr(7, 3, 42, u64::KIND, payload.len());
        let mut raw = hdr.to_vec();
        raw.extend_from_slice(&payload);
        let (env, remaining) = decode_envelope(1.5, &raw);
        assert_eq!(remaining, 0);
        assert_eq!((env.ctx_id, env.src, env.tag), (7, 3, 42));
        assert_eq!(env.arrival, 1.5);
        assert_eq!(env.payload.kind, u64::KIND);
        assert_eq!(env.payload.bytes, payload);
        assert_eq!(env.payload.take::<u64>(), Ok(vec![0x0807_0605_0403_0201]));
    }

    #[test]
    fn the_header_carries_every_kind() {
        for kind in [u8::KIND, i32::KIND, usize::KIND, f32::KIND, f64::KIND] {
            let (env, remaining) = decode_envelope(0.0, &encode_env_hdr(1, 2, 3, kind, 0));
            assert_eq!((env.payload.kind, remaining), (kind, 0));
            assert!(env.payload.bytes.is_empty());
        }
    }

    #[test]
    fn partial_first_frame_reports_outstanding_bytes() {
        let hdr = encode_env_hdr(0, 1, 2, u8::KIND, 10);
        let mut raw = hdr.to_vec();
        raw.extend_from_slice(&[9u8; 4]); // 4 of 10 payload bytes
        let (env, remaining) = decode_envelope(0.0, &raw);
        assert_eq!(remaining, 6);
        assert_eq!(env.payload.kind, u8::KIND);
    }
}
