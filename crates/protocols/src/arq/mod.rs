//! The paper's §3.4 stop-and-wait ARQ transport protocol.
//!
//! "We consider a simple transport protocol with automatic repeat request
//! (ARQ), where packets consist of a sequence number, a list of bytes (the
//! payload) and a checksum calculated from the sequence number and
//! payload. All packets must be acknowledged by the receiver before any
//! more packets can be sent."
//!
//! Split across four layers, mirroring the paper's framework:
//!
//! * [`arq_spec`] — the wire format, defined declaratively: the
//!   checksum constraint is part of the definition, so decoding yields a
//!   validated value or an error, never an unvalidated packet (item 2 of
//!   §3.4: "packets are verified on receipt, and no processing occurs on
//!   unverified packets"). Its frames are [`ArqFrame`], the suite's one
//!   [`Frame`] type over this format, which the window protocols share
//!   with their own spec;
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

use netdsl_core::packet::{Coverage, Len, PacketSpec};
use netdsl_wire::checksum::ChecksumKind;

use crate::codec::{Arq, Frame, KIND_ACK, KIND_DATA};

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

/// A decoded, **validated** ARQ frame: the suite's one [`Frame`] type
/// over the [`Arq`] format, so its `seq` is 8 bits wide.
pub type ArqFrame = Frame<Arq>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::arq_codec;
    use netdsl_core::packet::Value;
    use netdsl_netsim::scenario::FramePath;

    /// Every check runs on both frame paths, so the compiled codec's
    /// rejections are pinned here directly, not only through replays.
    const PATHS: [FramePath; 2] = [FramePath::Interpreted, FramePath::Compiled];

    #[test]
    fn data_frame_roundtrip() {
        let f = ArqFrame::Data {
            seq: 9,
            payload: b"abc".to_vec(),
        };
        for path in PATHS {
            let wire = f.encode_via(path);
            assert_eq!(wire.len(), 3 + 3, "{path:?}");
            assert_eq!(wire, f.encode(), "{path:?}");
            assert_eq!(ArqFrame::decode_via(path, &wire).unwrap(), f, "{path:?}");
        }
    }

    #[test]
    fn ack_frame_roundtrip() {
        let f = ArqFrame::Ack { seq: 200 };
        for path in PATHS {
            let wire = f.encode_via(path);
            assert_eq!(wire.len(), 3, "{path:?}");
            assert_eq!(ArqFrame::decode_via(path, &wire).unwrap(), f, "{path:?}");
        }
    }

    #[test]
    fn corruption_anywhere_is_rejected() {
        let wire = ArqFrame::Data {
            seq: 5,
            payload: vec![1, 2, 3, 4],
        }
        .encode();
        for path in PATHS {
            for byte in 0..wire.len() {
                for bit in 0..8 {
                    let mut bad = wire.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        ArqFrame::decode_via(path, &bad).is_err(),
                        "{path:?}: flip of byte {byte} bit {bit} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_kind_rejected_both_directions() {
        // The enumerated `kind` field refuses value 3 at encode time, on
        // either codec…
        let spec = arq_spec();
        let mut v = spec.value();
        v.set("kind", Value::Uint(3));
        v.set("seq", Value::Uint(0));
        v.set("payload", Value::Bytes(vec![]));
        assert!(
            spec.encode(&v).is_err(),
            "cannot even build an ill-kinded frame"
        );
        assert!(arq_codec().codec().encode_packet_value(&v).is_err());

        // …and a hand-forged kind-3 frame with a *valid* checksum is
        // refused at decode time by the same declared constraint.
        let chk = netdsl_wire::checksum::arq_check(0, &[3, 0]);
        let forged = vec![3u8, 0, chk];
        for path in PATHS {
            assert!(ArqFrame::decode_via(path, &forged).is_err(), "{path:?}");
        }
    }

    #[test]
    fn truncated_rejected() {
        for path in PATHS {
            assert!(ArqFrame::decode_via(path, &[1, 2]).is_err(), "{path:?}");
            assert!(ArqFrame::decode_via(path, &[]).is_err(), "{path:?}");
        }
    }
}
