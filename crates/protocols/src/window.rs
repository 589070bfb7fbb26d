//! Shared frame format for the sliding-window protocols.
//!
//! Go-Back-N and Selective Repeat share one wire format: a kind octet, a
//! 32-bit sequence number, a CRC-16 over the whole frame, and the
//! payload. As with ARQ, the checksum is part of the declarative
//! definition, so no unverified frame reaches window logic.

use netdsl_core::packet::{Coverage, Len, PacketSpec};
use netdsl_wire::checksum::ChecksumKind;

use crate::codec::{Frame, Window, KIND_ACK, KIND_DATA};

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

/// A decoded, validated window-protocol frame: the suite's one
/// [`Frame`] type over the [`Window`] format, so its `seq` is an
/// absolute 32-bit sequence number.
pub type WindowFrame = Frame<Window>;

#[cfg(test)]
mod tests {
    use super::*;
    use netdsl_netsim::scenario::FramePath;

    /// Every check runs on both frame paths.
    const PATHS: [FramePath; 2] = [FramePath::Interpreted, FramePath::Compiled];

    #[test]
    fn frame_roundtrips() {
        let d = WindowFrame::Data {
            seq: 0xDEAD_BEEF,
            payload: vec![1, 2, 3],
        };
        let a = WindowFrame::Ack { seq: 42 };
        for path in PATHS {
            for f in [&d, &a] {
                let wire = f.encode_via(path);
                assert_eq!(wire, f.encode(), "{path:?}");
                assert_eq!(
                    &WindowFrame::decode_via(path, &wire).unwrap(),
                    f,
                    "{path:?}"
                );
            }
        }
    }

    #[test]
    fn corruption_rejected() {
        let wire = WindowFrame::Data {
            seq: 7,
            payload: vec![9; 16],
        }
        .encode();
        for path in PATHS {
            for i in 0..wire.len() {
                let mut bad = wire.clone();
                bad[i] ^= 0x10;
                assert!(
                    WindowFrame::decode_via(path, &bad).is_err(),
                    "{path:?}: byte {i}"
                );
            }
        }
    }

    #[test]
    fn ack_frames_are_seven_bytes() {
        for path in PATHS {
            let wire = WindowFrame::Ack { seq: 0 }.encode_via(path);
            assert_eq!(wire.len(), 1 + 4 + 2, "{path:?}");
        }
    }
}
