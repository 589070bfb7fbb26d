//! The paper's §3.4 stop-and-wait ARQ transport protocol.
//!
//! "We consider a simple transport protocol with automatic repeat request
//! (ARQ), where packets consist of a sequence number, a list of bytes (the
//! payload) and a checksum calculated from the sequence number and
//! payload. All packets must be acknowledged by the receiver before any
//! more packets can be sent."
//!
//! Split across three layers, mirroring the paper's framework:
//!
//! * [`packet`](self) — the wire format, defined declaratively: the
//!   checksum constraint is part of the definition, so decoding yields a
//!   validated value or an error, never an unvalidated packet (item 2 of
//!   §3.4: "packets are verified on receipt, and no processing occurs on
//!   unverified packets");
//! * [`typestate`] — the faithful `SendTrans` GADT encoding: `SEND`,
//!   `OK`, `FAIL`, `TIMEOUT`, `FINISH` with compile-time-checked
//!   endpoints, and `send_packet` returning the paper's `NextSent` sum
//!   (items 3–4);
//! * [`session`] — full sender/receiver endpoints over the simulator
//!   with retransmission, used by the experiments;
//! * [`compiled`] — the same sending endpoint driven by the compiled
//!   transition-table engine ([`netdsl_core::fsm_compiled`]), selected
//!   per scenario via `FsmPath::Compiled`.

pub mod compiled;
pub mod session;
pub mod typestate;

use netdsl_core::packet::{Coverage, Len, PacketSpec, Value};
use netdsl_core::DslError;
use netdsl_netsim::scenario::FramePath;
use netdsl_wire::checksum::ChecksumKind;

use crate::codec::arq_codec;
use crate::driver::Io;

/// Frame kind discriminator: a data packet.
pub const KIND_DATA: u64 = 1;
/// Frame kind discriminator: an acknowledgement.
pub const KIND_ACK: u64 = 2;

/// Builds the ARQ packet spec:
///
/// ```text
/// kind:8  seq:8  chk:8  payload:*        chk = check(kind‖seq‖payload)
/// ```
///
/// (The paper's `Pkt seq chk data` plus a kind octet so data and acks
/// share one format; `check` is [`netdsl_wire::checksum::arq_check`].)
pub fn arq_spec() -> PacketSpec {
    PacketSpec::builder("arq")
        .enumerated("kind", 8, &[KIND_DATA, KIND_ACK])
        .uint("seq", 8)
        .checksum(
            "chk",
            ChecksumKind::Arq,
            Coverage::Fields(vec!["kind".into(), "seq".into(), "payload".into()]),
        )
        .bytes("payload", Len::Rest)
        .build()
        .expect("arq spec is well-formed")
}

/// A decoded, **validated** ARQ frame.
///
/// Only [`ArqFrame::decode`] produces these, and it runs the full
/// declarative validation (including the checksum), so holding an
/// `ArqFrame` is holding the paper's `ChkPacket` certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArqFrame {
    /// A payload-carrying packet.
    Data {
        /// Sequence number.
        seq: u8,
        /// Payload bytes.
        payload: Vec<u8>,
    },
    /// An acknowledgement of `seq`.
    Ack {
        /// Sequence number being acknowledged.
        seq: u8,
    },
}

impl ArqFrame {
    /// Encodes to wire bytes (checksum filled in by the spec), via the
    /// interpretive path — see [`ArqFrame::encode_via`] to select.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_via(FramePath::Interpreted)
    }

    /// Encodes to wire bytes through the selected frame path. Both
    /// paths produce byte-identical frames; the compiled one runs the
    /// cached `netdsl-codec` program instead of re-walking the spec.
    pub fn encode_via(&self, path: FramePath) -> Vec<u8> {
        match path {
            FramePath::Interpreted => {
                let spec = arq_spec();
                let mut v = spec.value();
                match self {
                    ArqFrame::Data { seq, payload } => {
                        v.set("kind", Value::Uint(KIND_DATA));
                        v.set("seq", Value::Uint(u64::from(*seq)));
                        v.set("payload", Value::Bytes(payload.clone()));
                    }
                    ArqFrame::Ack { seq } => {
                        v.set("kind", Value::Uint(KIND_ACK));
                        v.set("seq", Value::Uint(u64::from(*seq)));
                        v.set("payload", Value::Bytes(Vec::new()));
                    }
                }
                spec.encode(&v).expect("well-typed frame always encodes")
            }
            FramePath::Compiled => {
                let (kind, seq, payload): (u64, u64, &[u8]) = match self {
                    ArqFrame::Data { seq, payload } => (KIND_DATA, u64::from(*seq), payload),
                    ArqFrame::Ack { seq } => (KIND_ACK, u64::from(*seq), &[]),
                };
                crate::codec::compiled_encode(arq_codec(), kind, seq, payload)
            }
        }
    }

    /// Encodes a data frame for a **borrowed** payload into `out`
    /// (cleared first) — the pooled transmit path; see
    /// [`crate::window::WindowFrame::encode_data_into`] for the
    /// windowed twin.
    pub fn encode_data_into(path: FramePath, seq: u8, payload: &[u8], out: &mut Vec<u8>) {
        match path {
            FramePath::Interpreted => {
                let frame = ArqFrame::Data {
                    seq,
                    payload: payload.to_vec(),
                }
                .encode_via(path);
                out.clear();
                out.extend_from_slice(&frame);
            }
            FramePath::Compiled => crate::codec::compiled_encode_into(
                arq_codec(),
                KIND_DATA,
                u64::from(seq),
                payload,
                out,
            ),
        }
    }

    /// Encodes an ack frame into `out` (cleared first).
    pub fn encode_ack_into(path: FramePath, seq: u8, out: &mut Vec<u8>) {
        match path {
            FramePath::Interpreted => {
                let frame = ArqFrame::Ack { seq }.encode_via(path);
                out.clear();
                out.extend_from_slice(&frame);
            }
            FramePath::Compiled => {
                crate::codec::compiled_encode_into(arq_codec(), KIND_ACK, u64::from(seq), &[], out)
            }
        }
    }

    /// Decodes and validates wire bytes via the interpretive path — see
    /// [`ArqFrame::decode_via`] to select.
    ///
    /// # Errors
    ///
    /// * [`DslError::ChecksumFailed`] for corrupted frames;
    /// * [`DslError::Wire`] wire errors for truncation;
    /// * [`DslError::InvalidEnumValue`] for unknown frame kinds;
    /// * [`DslError::WrongKind`] is impossible (kinds checked here).
    pub fn decode(frame: &[u8]) -> Result<ArqFrame, DslError> {
        ArqFrame::decode_via(FramePath::Interpreted, frame)
    }

    /// Decodes and validates wire bytes through the selected frame
    /// path. Accept/reject verdicts agree between the paths; the
    /// compiled one decodes zero-copy into a thread-local scratch view
    /// and copies only the payload out.
    ///
    /// # Errors
    ///
    /// As for [`ArqFrame::decode`].
    pub fn decode_via(path: FramePath, frame: &[u8]) -> Result<ArqFrame, DslError> {
        ArqFrame::decode_with(path, frame, |decoded| {
            decoded.map(|f| match f {
                ArqRef::Data { seq, payload } => ArqFrame::Data {
                    seq,
                    payload: payload.to_vec(),
                },
                ArqRef::Ack { seq } => ArqFrame::Ack { seq },
            })
        })
    }

    /// Decodes like [`ArqFrame::decode_via`] but hands `f` the frame
    /// with its payload still borrowed, so a receiver copies it only
    /// when it keeps it.
    pub(crate) fn decode_with<R>(
        path: FramePath,
        frame: &[u8],
        f: impl FnOnce(Result<ArqRef<'_>, DslError>) -> R,
    ) -> R {
        crate::codec::decode_with(path, arq_spec, arq_codec, frame, |fields| {
            f(fields.and_then(|(kind, seq, payload)| {
                let seq = seq as u8;
                match kind {
                    KIND_DATA => Ok(ArqRef::Data { seq, payload }),
                    KIND_ACK => Ok(ArqRef::Ack { seq }),
                    other => Err(DslError::Wire(netdsl_wire::WireError::InvalidValue {
                        field: "kind",
                        value: other,
                    })),
                }
            }))
        })
    }
}

/// A validated [`ArqFrame`] whose payload is still borrowed from the
/// decoder.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ArqRef<'p> {
    Data { seq: u8, payload: &'p [u8] },
    Ack { seq: u8 },
}

/// Transmits an ARQ data frame, encoded into an arena buffer with the
/// payload borrowed.
pub(crate) fn send_data(io: &mut Io<'_>, path: FramePath, seq: u8, payload: &[u8]) {
    io.send_with(|buf| ArqFrame::encode_data_into(path, seq, payload, buf));
}

/// Transmits an ARQ ack frame, encoded into an arena buffer.
pub(crate) fn send_ack(io: &mut Io<'_>, path: FramePath, seq: u8) {
    io.send_with(|buf| ArqFrame::encode_ack_into(path, seq, buf));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_frame_roundtrip() {
        let f = ArqFrame::Data {
            seq: 9,
            payload: b"abc".to_vec(),
        };
        let wire = f.encode();
        assert_eq!(wire.len(), 3 + 3);
        assert_eq!(ArqFrame::decode(&wire).unwrap(), f);
    }

    #[test]
    fn ack_frame_roundtrip() {
        let f = ArqFrame::Ack { seq: 200 };
        let wire = f.encode();
        assert_eq!(wire.len(), 3);
        assert_eq!(ArqFrame::decode(&wire).unwrap(), f);
    }

    #[test]
    fn corruption_anywhere_is_rejected() {
        let wire = ArqFrame::Data {
            seq: 5,
            payload: vec![1, 2, 3, 4],
        }
        .encode();
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    ArqFrame::decode(&bad).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn unknown_kind_rejected_both_directions() {
        // The enumerated `kind` field refuses value 3 at encode time…
        let spec = arq_spec();
        let mut v = spec.value();
        v.set("kind", Value::Uint(3));
        v.set("seq", Value::Uint(0));
        v.set("payload", Value::Bytes(vec![]));
        assert!(
            spec.encode(&v).is_err(),
            "cannot even build an ill-kinded frame"
        );

        // …and a hand-forged kind-3 frame with a *valid* checksum is
        // refused at decode time by the same declared constraint.
        let chk = netdsl_wire::checksum::arq_check(0, &[3, 0]);
        let forged = vec![3u8, 0, chk];
        assert!(ArqFrame::decode(&forged).is_err());
    }

    #[test]
    fn truncated_rejected() {
        assert!(ArqFrame::decode(&[1, 2]).is_err());
        assert!(ArqFrame::decode(&[]).is_err());
    }
}
