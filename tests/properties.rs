//! Property-based integration tests: the invariants the paper's type
//! system is meant to guarantee, checked across random workloads,
//! impairments and seeds.

use proptest::prelude::*;

use netdsl::core::packet::{Coverage, Len, PacketSpec, Value};
use netdsl::netsim::LinkConfig;
use netdsl::protocols::{arq, gbn, sr};
use netdsl::wire::checksum::ChecksumKind;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exactly-once, in-order delivery for stop-and-wait under arbitrary
    /// loss/corruption/duplication — the paper's §3.4 guarantees as a
    /// universally-quantified property.
    #[test]
    fn arq_delivers_exactly_once_in_order(
        seed in 0u64..1000,
        loss in 0.0f64..0.35,
        corrupt in 0.0f64..0.2,
        duplicate in 0.0f64..0.2,
        n in 1usize..15,
    ) {
        let messages: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 8]).collect();
        let cfg = LinkConfig::reliable(3)
            .with_loss(loss)
            .with_corrupt(corrupt)
            .with_duplicate(duplicate);
        let out = arq::session::run_transfer(messages.clone(), cfg, seed, 60, 300, 500_000_000);
        prop_assert!(out.success, "stats {:?}", out.stats);
        prop_assert_eq!(out.delivered, messages);
    }

    /// The same property for both windowed protocols, adding jitter
    /// (reordering).
    #[test]
    fn window_protocols_deliver_exactly_once_in_order(
        seed in 0u64..1000,
        loss in 0.0f64..0.25,
        jitter in 0u64..15,
        window in 2u32..10,
        n in 1usize..15,
    ) {
        let messages: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 8]).collect();
        let cfg = LinkConfig::reliable(3).with_loss(loss).with_jitter(jitter);
        let g = gbn::run_transfer(messages.clone(), window, cfg.clone(), seed, 120, 500, 500_000_000);
        prop_assert!(g.success);
        prop_assert_eq!(&g.delivered, &messages);
        let s = sr::run_transfer(messages.clone(), window, cfg, seed, 120, 500, 500_000_000);
        prop_assert!(s.success);
        prop_assert_eq!(&s.delivered, &messages);
    }

    /// Declarative codec round-trip for a spec exercising every field
    /// kind, over arbitrary field values.
    #[test]
    fn packet_spec_roundtrip(
        sensor in 0u64..0xFFFF,
        reading in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let spec = PacketSpec::builder("prop")
            .constant("magic", 8, 0x7E)
            .uint("sensor", 16)
            .length("len", 16, Coverage::Whole)
            .uint("reading", 32)
            .checksum("crc", ChecksumKind::Crc16Ccitt, Coverage::Whole)
            .bytes("payload", Len::Rest)
            .build()
            .unwrap();
        let mut v = spec.value();
        v.set("sensor", Value::Uint(sensor));
        v.set("reading", Value::Uint(u64::from(reading)));
        v.set("payload", Value::Bytes(payload.clone()));
        let wire = spec.encode(&v).unwrap();
        let back = spec.decode(&wire).unwrap();
        prop_assert_eq!(back.uint("sensor").unwrap(), sensor);
        prop_assert_eq!(back.uint("reading").unwrap(), u64::from(reading));
        prop_assert_eq!(back.bytes("payload").unwrap(), &payload[..]);
        prop_assert_eq!(back.uint("len").unwrap(), wire.len() as u64);
    }

    /// Single-bit corruption of any position is always rejected by the
    /// CRC-protected spec — no corrupted frame ever decodes.
    #[test]
    fn packet_spec_rejects_any_single_bit_flip(
        payload in proptest::collection::vec(any::<u8>(), 0..32),
        flip_byte in 0usize..64,
        flip_bit in 0u8..8,
    ) {
        let spec = PacketSpec::builder("flip")
            .uint("id", 16)
            .checksum("crc", ChecksumKind::Crc32Ieee, Coverage::Whole)
            .bytes("payload", Len::Rest)
            .build()
            .unwrap();
        let mut v = spec.value();
        v.set("id", Value::Uint(42));
        v.set("payload", Value::Bytes(payload));
        let mut wire = spec.encode(&v).unwrap();
        let idx = flip_byte % wire.len();
        wire[idx] ^= 1 << flip_bit;
        prop_assert!(spec.decode(&wire).is_err());
    }

    /// ARQ frames survive encode→decode for every seq/payload, and the
    /// typed decode refuses every truncation.
    #[test]
    fn arq_frame_total_roundtrip(seq in any::<u8>(), payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let f = arq::ArqFrame::Data { seq, payload };
        let wire = f.encode();
        prop_assert_eq!(arq::ArqFrame::decode(&wire).unwrap(), f);
        for cut in 0..wire.len().min(3) {
            prop_assert!(arq::ArqFrame::decode(&wire[..cut]).is_err());
        }
    }

    /// TFTP transfers arbitrary file contents byte-exactly across block
    /// boundaries (including the empty-terminator edge cases).
    #[test]
    fn tftp_transfers_arbitrary_files(
        len in 0usize..2048,
        seed in 0u64..100,
        loss in 0.0f64..0.2,
    ) {
        let file: Vec<u8> = (0..len).map(|i| (i * 37 + seed as usize) as u8).collect();
        let out = netdsl::protocols::tftp::send_file(
            &file,
            LinkConfig::lossy(2, loss),
            seed,
            80,
            200,
            500_000_000,
        );
        prop_assert!(out.success);
        prop_assert_eq!(out.received, file);
    }

    /// Distance-vector advertisements round-trip for arbitrary entry
    /// sets, and corruption is always caught.
    #[test]
    fn dv_advert_total_roundtrip(
        origin in any::<u16>(),
        entries in proptest::collection::vec((any::<u16>(), 0u8..16), 0..20),
        flip in 0usize..128,
    ) {
        use netdsl::protocols::dv::{Advert, AdvertEntry};
        let advert = Advert {
            origin,
            entries: entries
                .iter()
                .map(|&(dest, metric)| AdvertEntry { dest, metric })
                .collect(),
        };
        let wire = advert.encode();
        prop_assert_eq!(Advert::decode(&wire).unwrap(), advert);
        let mut bad = wire.clone();
        let idx = flip % bad.len();
        bad[idx] ^= 0x04;
        prop_assert!(Advert::decode(&bad).is_err(), "bit flip at {} undetected", idx);
    }

    /// DER ↔ PacketSpec independence: any content survives both notations
    /// (they are different encodings of the same abstract message).
    #[test]
    fn asn1_and_dsl_preserve_the_same_content(
        seq in 0u64..256,
        data in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use netdsl::asn1::{der, AsnValue};
        let asn = AsnValue::Sequence(vec![
            AsnValue::Integer(seq as i64),
            AsnValue::OctetString(data.clone()),
        ]);
        let via_der = der::decode(&der::encode(&asn)).unwrap();
        prop_assert_eq!(&via_der, &asn);

        let spec = netdsl::protocols::arq::arq_spec();
        let frame = netdsl::protocols::arq::ArqFrame::Data {
            seq: seq as u8,
            payload: data.clone(),
        };
        let via_dsl = spec.decode(&frame.encode()).unwrap();
        prop_assert_eq!(via_dsl.uint("seq").unwrap(), seq);
        prop_assert_eq!(via_dsl.bytes("payload").unwrap(), &data[..]);
    }

    /// The simulator conserves frames: sent = delivered + lost when
    /// duplication is off (conservation law).
    #[test]
    fn simulator_conserves_frames(seed in any::<u64>(), loss in 0.0f64..1.0, n in 1u32..200) {
        let mut sim = netdsl::netsim::Simulator::new(seed);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::lossy(1, loss));
        for _ in 0..n {
            sim.send(ab, vec![0; 4]);
        }
        while sim.step().is_some() {}
        let st = sim.link_stats(ab);
        prop_assert_eq!(st.sent, u64::from(n));
        prop_assert_eq!(st.delivered + st.lost, u64::from(n));
    }
}
