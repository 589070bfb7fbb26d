//! Shared frame format and statistics for the sliding-window protocols.
//!
//! Go-Back-N and Selective Repeat share one wire format: a kind octet, a
//! 32-bit sequence number, a CRC-16 over the whole frame, and the
//! payload. As with ARQ, the checksum is part of the declarative
//! definition, so no unverified frame reaches window logic.

use netdsl_core::packet::{Coverage, Len, PacketSpec, Value};
use netdsl_core::DslError;
use netdsl_netsim::scenario::FramePath;
use netdsl_netsim::SimCore;
use netdsl_wire::checksum::ChecksumKind;

use crate::codec::window_codec;
use crate::driver::Io;

/// Frame kind: payload-carrying.
pub const KIND_DATA: u64 = 1;
/// Frame kind: acknowledgement.
pub const KIND_ACK: u64 = 2;

/// Builds the window-protocol frame spec:
///
/// ```text
/// kind:8  seq:32  chk:16(CRC-16 whole-frame)  payload:*
/// ```
pub fn window_spec() -> PacketSpec {
    PacketSpec::builder("window")
        .enumerated("kind", 8, &[KIND_DATA, KIND_ACK])
        .uint("seq", 32)
        .checksum("chk", ChecksumKind::Crc16Ccitt, Coverage::Whole)
        .bytes("payload", Len::Rest)
        .build()
        .expect("window spec is well-formed")
}

/// A decoded, validated window-protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowFrame {
    /// Data packet `seq` with its payload.
    Data {
        /// Absolute sequence number.
        seq: u32,
        /// Payload bytes.
        payload: Vec<u8>,
    },
    /// Acknowledgement. Go-Back-N reads it cumulatively ("everything up
    /// to and including `seq` received"); Selective Repeat individually.
    Ack {
        /// Acknowledged sequence number.
        seq: u32,
    },
}

impl WindowFrame {
    /// Encodes to wire bytes via the interpretive path — see
    /// [`WindowFrame::encode_via`] to select.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_via(FramePath::Interpreted)
    }

    /// Encodes to wire bytes through the selected frame path (the two
    /// paths are byte-identical).
    pub fn encode_via(&self, path: FramePath) -> Vec<u8> {
        match path {
            FramePath::Interpreted => {
                let spec = window_spec();
                let mut v = spec.value();
                match self {
                    WindowFrame::Data { seq, payload } => {
                        v.set("kind", Value::Uint(KIND_DATA));
                        v.set("seq", Value::Uint(u64::from(*seq)));
                        v.set("payload", Value::Bytes(payload.clone()));
                    }
                    WindowFrame::Ack { seq } => {
                        v.set("kind", Value::Uint(KIND_ACK));
                        v.set("seq", Value::Uint(u64::from(*seq)));
                        v.set("payload", Value::Bytes(Vec::new()));
                    }
                }
                spec.encode(&v).expect("well-typed frame always encodes")
            }
            FramePath::Compiled => {
                let (kind, seq, payload): (u64, u64, &[u8]) = match self {
                    WindowFrame::Data { seq, payload } => (KIND_DATA, u64::from(*seq), payload),
                    WindowFrame::Ack { seq } => (KIND_ACK, u64::from(*seq), &[]),
                };
                crate::codec::compiled_encode(window_codec(), kind, seq, payload)
            }
        }
    }

    /// Encodes a data frame for a **borrowed** payload into `out`
    /// (cleared first) — the pooled transmit path: no payload clone,
    /// and on the compiled path the frame is written straight into the
    /// caller's (arena) buffer.
    pub fn encode_data_into(path: FramePath, seq: u32, payload: &[u8], out: &mut Vec<u8>) {
        match path {
            FramePath::Interpreted => {
                // The interpretive encoder builds an owned tree; reuse
                // it and copy out (the interpreted path is the slow
                // reference by design).
                let frame = WindowFrame::Data {
                    seq,
                    payload: payload.to_vec(),
                }
                .encode_via(path);
                out.clear();
                out.extend_from_slice(&frame);
            }
            FramePath::Compiled => crate::codec::compiled_encode_into(
                window_codec(),
                KIND_DATA,
                u64::from(seq),
                payload,
                out,
            ),
        }
    }

    /// Encodes an ack frame into `out` (cleared first); see
    /// [`WindowFrame::encode_data_into`].
    pub fn encode_ack_into(path: FramePath, seq: u32, out: &mut Vec<u8>) {
        match path {
            FramePath::Interpreted => {
                let frame = WindowFrame::Ack { seq }.encode_via(path);
                out.clear();
                out.extend_from_slice(&frame);
            }
            FramePath::Compiled => crate::codec::compiled_encode_into(
                window_codec(),
                KIND_ACK,
                u64::from(seq),
                &[],
                out,
            ),
        }
    }

    /// Decodes and validates wire bytes via the interpretive path — see
    /// [`WindowFrame::decode_via`] to select.
    ///
    /// # Errors
    ///
    /// Checksum failures, truncation, unknown kinds.
    pub fn decode(frame: &[u8]) -> Result<WindowFrame, DslError> {
        WindowFrame::decode_via(FramePath::Interpreted, frame)
    }

    /// Decodes and validates wire bytes through the selected frame path
    /// (verdict-equivalent; the compiled path decodes zero-copy).
    ///
    /// # Errors
    ///
    /// As for [`WindowFrame::decode`].
    pub fn decode_via(path: FramePath, frame: &[u8]) -> Result<WindowFrame, DslError> {
        WindowFrame::decode_with(path, frame, |decoded| {
            decoded.map(|f| match f {
                WindowRef::Data { seq, payload } => WindowFrame::Data {
                    seq,
                    payload: payload.to_vec(),
                },
                WindowRef::Ack { seq } => WindowFrame::Ack { seq },
            })
        })
    }

    /// Decodes like [`WindowFrame::decode_via`] but hands `f` the frame
    /// with its payload still borrowed, so a receiver copies it only
    /// when it delivers or buffers it.
    pub(crate) fn decode_with<R>(
        path: FramePath,
        frame: &[u8],
        f: impl FnOnce(Result<WindowRef<'_>, DslError>) -> R,
    ) -> R {
        crate::codec::decode_with(path, window_spec, window_codec, frame, |fields| {
            f(fields.and_then(|(kind, seq, payload)| {
                let seq = seq as u32;
                match kind {
                    KIND_DATA => Ok(WindowRef::Data { seq, payload }),
                    KIND_ACK => Ok(WindowRef::Ack { seq }),
                    other => Err(DslError::Wire(netdsl_wire::WireError::InvalidValue {
                        field: "kind",
                        value: other,
                    })),
                }
            }))
        })
    }
}

/// A validated [`WindowFrame`] whose payload is still borrowed from the
/// decoder.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WindowRef<'p> {
    Data { seq: u32, payload: &'p [u8] },
    Ack { seq: u32 },
}

/// Transmits a data frame for `payload`, honouring the engine core:
/// on [`SimCore::Pooled`] the frame is encoded straight into a pooled
/// arena buffer with the payload borrowed (no clone); on
/// [`SimCore::Legacy`] it reproduces the pre-arena transmit exactly —
/// payload clone into the frame value, fresh `Vec` per encode — which
/// is what experiment E13 measures against.
pub(crate) fn send_data(io: &mut Io<'_>, path: FramePath, seq: u32, payload: &[u8]) {
    match io.core() {
        SimCore::Pooled => {
            io.send_with(|buf| WindowFrame::encode_data_into(path, seq, payload, buf))
        }
        SimCore::Legacy => io.send(
            WindowFrame::Data {
                seq,
                payload: payload.to_vec(),
            }
            .encode_via(path),
        ),
    }
}

/// Transmits an ack frame, honouring the engine core (see
/// [`send_data`]).
pub(crate) fn send_ack(io: &mut Io<'_>, path: FramePath, seq: u32) {
    match io.core() {
        SimCore::Pooled => io.send_with(|buf| WindowFrame::encode_ack_into(path, seq, buf)),
        SimCore::Legacy => io.send(WindowFrame::Ack { seq }.encode_via(path)),
    }
}

/// Transfer statistics common to both window protocols.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Data frames transmitted (including retransmissions).
    pub frames_sent: u64,
    /// Retransmissions only.
    pub retransmissions: u64,
    /// Messages fully acknowledged.
    pub delivered: u64,
}

/// Outcome of a complete window-protocol transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowOutcome {
    /// Every message delivered in order, exactly once?
    pub success: bool,
    /// Virtual ticks consumed.
    pub elapsed: u64,
    /// Sender statistics.
    pub stats: WindowStats,
    /// What the receiver delivered.
    pub delivered: Vec<Vec<u8>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips() {
        let d = WindowFrame::Data {
            seq: 0xDEAD_BEEF,
            payload: vec![1, 2, 3],
        };
        assert_eq!(WindowFrame::decode(&d.encode()).unwrap(), d);
        let a = WindowFrame::Ack { seq: 42 };
        assert_eq!(WindowFrame::decode(&a.encode()).unwrap(), a);
    }

    #[test]
    fn corruption_rejected() {
        let wire = WindowFrame::Data {
            seq: 7,
            payload: vec![9; 16],
        }
        .encode();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x10;
            assert!(WindowFrame::decode(&bad).is_err(), "byte {i}");
        }
    }

    #[test]
    fn ack_frames_are_seven_bytes() {
        assert_eq!(WindowFrame::Ack { seq: 0 }.encode().len(), 1 + 4 + 2);
    }
}
