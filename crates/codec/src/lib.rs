//! # netdsl-codec — the compiled codec engine
//!
//! The paper's first pillar is that packet descriptions carry their
//! semantic constraints so that *parsing is validating*. The
//! interpretive executor of that claim
//! ([`PacketSpec::decode`](netdsl_core::packet::PacketSpec::decode))
//! re-walks the field tree, allocates a name-keyed
//! [`PacketValue`](netdsl_core::packet::PacketValue) and copies every
//! payload byte on each frame. This crate keeps the *same semantics*
//! but treats the spec as **compiler input** instead:
//!
//! * [`lower()`](lower()) compiles a `PacketSpec` into a
//!   [`CompiledCodec`] — a
//!   flat [`Op`] program with every field name resolved to a dense
//!   index and every coverage resolved to index lists, once;
//! * the register-style interpreter executes that program over borrowed
//!   `&[u8]` frames with **zero-copy decode** (a [`FieldView`] of
//!   offsets/lengths into the frame instead of an allocated map) and
//!   batch APIs ([`CompiledCodec::decode_batch`],
//!   [`CompiledCodec::encode_into`]) that reuse caller buffers.
//!
//! Accept/reject verdicts match the interpretive walker frame-for-frame
//! and encoded frames are byte-identical (pinned by the differential
//! proptest suite in `tests/differential.rs`); experiment **E12**
//! (`e12_codec_throughput`) measures the speedup. The lowering pattern
//! follows `reo_rs`' move from interpreting a coordination DSL to
//! compiling it into executable structures. See `docs/CODEC.md` for the
//! op table, lowering rules and the zero-copy contract.
//!
//! ```
//! use netdsl_codec::lower;
//! use netdsl_core::packet::{Coverage, Len, PacketSpec, Value};
//! use netdsl_wire::checksum::ChecksumKind;
//!
//! let spec = PacketSpec::builder("arq")
//!     .uint("seq", 8)
//!     .checksum("chk", ChecksumKind::Arq, Coverage::Whole)
//!     .bytes("data", Len::Rest)
//!     .build()
//!     .unwrap();
//! let codec = lower(&spec).unwrap();
//!
//! // Encode through the interpretive path, decode zero-copy.
//! let mut v = spec.value();
//! v.set("seq", Value::Uint(7));
//! v.set("data", Value::Bytes(b"hello".to_vec()));
//! let wire = spec.encode(&v).unwrap();
//!
//! let frame = codec.decode(&wire).unwrap();
//! assert_eq!(frame.uint("seq"), Some(7));
//! assert_eq!(frame.bytes("data"), Some(&b"hello"[..])); // borrowed, not copied
//!
//! // Corruption is rejected by the same compiled program.
//! let mut bad = wire.clone();
//! bad[3] ^= 1;
//! assert!(codec.decode(&bad).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod ir;
pub mod lower;

pub use exec::{BatchSummary, FieldView, Frame, Values};
pub use ir::{CompiledCodec, CoverageIr, FieldIx, Op};
pub use lower::lower;

#[cfg(test)]
mod tests {
    use super::*;
    use netdsl_core::packet::{Coverage, Len, PacketSpec, Value};
    use netdsl_core::DslError;
    use netdsl_wire::checksum::ChecksumKind;

    fn arq_spec() -> PacketSpec {
        PacketSpec::builder("arq")
            .enumerated("kind", 8, &[1, 2])
            .uint("seq", 8)
            .checksum(
                "chk",
                ChecksumKind::Arq,
                Coverage::Fields(vec!["kind".into(), "seq".into(), "payload".into()]),
            )
            .bytes("payload", Len::Rest)
            .build()
            .unwrap()
    }

    fn ipv4ish_spec() -> PacketSpec {
        PacketSpec::builder("ipv4ish")
            .constant("version", 4, 4)
            .length_scaled(
                "ihl",
                4,
                Coverage::Fields(vec![
                    "version".into(),
                    "ihl".into(),
                    "total_length".into(),
                    "checksum".into(),
                ]),
                4,
                0,
            )
            .length("total_length", 16, Coverage::Whole)
            .checksum("checksum", ChecksumKind::Internet, Coverage::Whole)
            .bytes("payload", Len::Rest)
            .build()
            .unwrap()
    }

    #[test]
    fn lowering_resolves_names_and_defers_checks() {
        let codec = lower(&arq_spec()).unwrap();
        assert_eq!(codec.name(), "arq");
        assert_eq!(codec.field_count(), 4);
        assert_eq!(codec.field_index("chk"), Some(2));
        assert_eq!(codec.min_frame_len(), 3);
        assert!(matches!(codec.ops()[0], Op::Enum { bits: 8, .. }));
        assert!(matches!(codec.ops()[3], Op::BytesRest { .. }));
        // Exactly the checksum is deferred.
        assert_eq!(codec.disassemble().matches("checksum").count(), 1);
    }

    #[test]
    fn compiled_decode_matches_interpretive_accept() {
        let spec = arq_spec();
        let codec = lower(&spec).unwrap();
        let mut v = spec.value();
        v.set("kind", Value::Uint(1));
        v.set("seq", Value::Uint(9));
        v.set("payload", Value::Bytes(b"abc".to_vec()));
        let wire = spec.encode(&v).unwrap();

        let frame = codec.decode(&wire).unwrap();
        assert_eq!(frame.uint("kind"), Some(1));
        assert_eq!(frame.uint("seq"), Some(9));
        assert_eq!(frame.bytes("payload"), Some(&b"abc"[..]));
        // Span table points into the original frame.
        let payload = frame.bytes("payload").unwrap();
        let base = wire.as_ptr() as usize;
        let p = payload.as_ptr() as usize;
        assert!(p >= base && p < base + wire.len(), "zero-copy payload");
        // Round-trip through the owned bridge equals interpretive decode.
        assert_eq!(frame.to_packet_value(), *spec.decode(&wire).unwrap());
    }

    #[test]
    fn compiled_decode_rejects_what_interpretive_rejects() {
        let spec = arq_spec();
        let codec = lower(&spec).unwrap();
        let mut v = spec.value();
        v.set("kind", Value::Uint(2));
        v.set("seq", Value::Uint(1));
        v.set("payload", Value::Bytes(vec![5, 6, 7]));
        let wire = spec.encode(&v).unwrap();
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[byte] ^= 1 << bit;
                assert_eq!(
                    codec.decode(&bad).is_ok(),
                    spec.decode(&bad).is_ok(),
                    "verdicts diverge at byte {byte} bit {bit}"
                );
            }
        }
        assert!(codec.decode(&[]).is_err());
        assert!(codec.decode(&wire[..2]).is_err());
    }

    #[test]
    fn compiled_encode_is_byte_identical() {
        let spec = ipv4ish_spec();
        let codec = lower(&spec).unwrap();
        let mut v = spec.value();
        v.set("payload", Value::Bytes(vec![1, 2, 3, 4, 5]));
        let interpretive = spec.encode(&v).unwrap();
        let compiled = codec.encode_packet_value(&v).unwrap();
        assert_eq!(compiled, interpretive);
        assert!(spec.decode(&compiled).is_ok());
        assert!(codec.decode(&interpretive).is_ok());
    }

    #[test]
    fn encode_into_reuses_the_buffer() {
        let spec = arq_spec();
        let codec = lower(&spec).unwrap();
        let payload = vec![7u8; 32];
        let mut values = codec.values();
        values
            .set_uint(codec.field_index("kind").unwrap(), 1)
            .set_uint(codec.field_index("seq").unwrap(), 3)
            .set_bytes(codec.field_index("payload").unwrap(), &payload);
        let mut out = Vec::new();
        codec.encode_into(&values, &mut out).unwrap();
        let first = out.clone();
        let cap = out.capacity();
        let ptr = out.as_ptr();
        codec.encode_into(&values, &mut out).unwrap();
        assert_eq!(out, first, "stable output");
        assert_eq!(out.capacity(), cap, "no regrowth");
        assert_eq!(out.as_ptr(), ptr, "no reallocation");
    }

    #[test]
    fn encode_guards_mirror_interpretive_errors() {
        let spec = arq_spec();
        let codec = lower(&spec).unwrap();
        // Missing payload.
        let mut values = codec.values();
        values
            .set_uint(codec.field_index("kind").unwrap(), 1)
            .set_uint(codec.field_index("seq").unwrap(), 0);
        assert!(matches!(
            codec.encode(&values),
            Err(DslError::MissingField { .. })
        ));
        // Enum violation.
        let empty: &[u8] = &[];
        values.set_bytes(codec.field_index("payload").unwrap(), empty);
        values.set_uint(codec.field_index("kind").unwrap(), 3);
        assert!(matches!(
            codec.encode(&values),
            Err(DslError::InvalidEnumValue { .. })
        ));
    }

    #[test]
    fn decode_batch_reuses_one_view_and_counts() {
        let spec = arq_spec();
        let codec = lower(&spec).unwrap();
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for i in 0..10u64 {
            let mut v = spec.value();
            v.set("kind", Value::Uint(1 + i % 2));
            v.set("seq", Value::Uint(i));
            v.set("payload", Value::Bytes(vec![i as u8; i as usize]));
            frames.push(spec.encode(&v).unwrap());
        }
        frames[3][0] ^= 0xFF; // corrupt one
        let mut seen_ok = 0;
        let summary = codec.decode_batch(
            frames.iter().map(Vec::as_slice),
            |i, frame, res| match res {
                Ok(view) => {
                    seen_ok += 1;
                    assert_eq!(view.uint(1), i as u64, "seq register");
                    assert_eq!(view.bytes(frame, 3).len(), i);
                }
                Err(_) => assert_eq!(i, 3, "only the corrupted frame rejects"),
            },
        );
        assert_eq!(summary.frames, 10);
        assert_eq!(summary.accepted, 9);
        assert_eq!(summary.rejected, 1);
        assert_eq!(seen_ok, 9);
        assert!((summary.accept_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn prefixed_and_fixed_byte_runs_roundtrip() {
        let spec = PacketSpec::builder("udpish")
            .uint("port", 16)
            .length_scaled("length", 16, Coverage::Whole, 1, 0)
            .bytes(
                "body",
                Len::Prefixed {
                    field: "length".into(),
                    unit: 1,
                    bias: -4,
                },
            )
            .build()
            .unwrap();
        let codec = lower(&spec).unwrap();
        let mut v = spec.value();
        v.set("port", Value::Uint(53));
        v.set("body", Value::Bytes(b"dns".to_vec()));
        let wire = spec.encode(&v).unwrap();
        assert_eq!(codec.encode_packet_value(&v).unwrap(), wire);
        let frame = codec.decode(&wire).unwrap();
        assert_eq!(frame.bytes("body"), Some(&b"dns"[..]));
        // Truncated prefix run rejects in both paths.
        assert!(codec.decode(&wire[..5]).is_err());
        assert!(spec.decode(&wire[..5]).is_err());
    }

    #[test]
    fn disassembly_lists_every_op() {
        let codec = lower(&ipv4ish_spec()).unwrap();
        let asm = codec.disassemble();
        for name in ["version", "ihl", "total_length", "checksum", "payload"] {
            assert!(asm.contains(name), "{asm}");
        }
        assert!(asm.contains("whole-frame"));
        assert!(asm.contains("const"));
        assert!(asm.contains("rest"));
    }

    #[test]
    fn wide_specs_spill_their_tables_to_the_heap() {
        // More fields than the inline tables hold: encode must still be
        // byte-identical to the interpretive walker.
        let mut builder = PacketSpec::builder("wide");
        for i in 0..20 {
            builder = builder.uint(&format!("f{i}"), 8);
        }
        let spec = builder
            .checksum("chk", ChecksumKind::Arq, Coverage::Whole)
            .bytes("payload", Len::Rest)
            .build()
            .unwrap();
        let codec = lower(&spec).unwrap();
        assert_eq!(codec.field_count(), 22);
        let mut v = spec.value();
        for i in 0..20u64 {
            v.set(&format!("f{i}"), Value::Uint(i * 7));
        }
        v.set("payload", Value::Bytes(b"tail".to_vec()));
        let wire = spec.encode(&v).unwrap();
        assert_eq!(codec.encode_packet_value(&v).unwrap(), wire);
        assert_eq!(codec.decode(&wire).unwrap().uint("f19"), Some(133));
    }

    #[test]
    fn sub_byte_coverage_matches_interpretive() {
        let spec = PacketSpec::builder("s")
            .uint("hi", 4)
            .uint("lo", 4)
            .checksum("ck", ChecksumKind::Arq, Coverage::Fields(vec!["hi".into()]))
            .build()
            .unwrap();
        let codec = lower(&spec).unwrap();
        let mut v = spec.value();
        v.set("hi", Value::Uint(0xA));
        v.set("lo", Value::Uint(0xB));
        let wire = spec.encode(&v).unwrap();
        assert_eq!(codec.encode_packet_value(&v).unwrap(), wire);
        assert!(codec.decode(&wire).is_ok());
    }
}
