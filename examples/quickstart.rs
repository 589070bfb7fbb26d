//! Quickstart: define a packet, check its state machine, run a transfer.
//!
//! Walks the three pillars of the paper's DSL in ~80 lines:
//! (i) a declarative packet format with a checksum constraint,
//! (ii) a verified state machine, (iii) execution over a lossy network.
//!
//! Run with: `cargo run --example quickstart`

use netdsl::core::fsm::paper_sender_spec;
use netdsl::core::packet::{Coverage, Len, PacketSpec, Value};
use netdsl::netsim::LinkConfig;
use netdsl::protocols::arq::session::run_transfer;
use netdsl::verify::props::check_spec;
use netdsl::verify::Limits;
use netdsl::wire::checksum::ChecksumKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── (i) packets: the paper's ARQ packet, declaratively ─────────────
    let spec = PacketSpec::builder("arq")
        .uint("seq", 8)
        .checksum(
            "chk",
            ChecksumKind::Arq,
            Coverage::Fields(vec!["seq".into(), "data".into()]),
        )
        .bytes("data", Len::Rest)
        .build()?;

    let mut pkt = spec.value();
    pkt.set("seq", Value::Uint(7));
    pkt.set("data", Value::Bytes(b"hello, netdsl".to_vec()));
    let wire = spec.encode(&pkt)?;
    println!(
        "encoded frame ({} bytes), checksum auto-filled:",
        wire.len()
    );
    println!("{}", netdsl::wire::hexdump::hexdump(&wire));

    // Decoding validates everything; the result is a witness.
    let decoded = spec.decode(&wire)?;
    println!("decoded seq = {}", decoded.uint("seq")?);

    // A corrupted frame never reaches protocol logic:
    let mut bad = wire.clone();
    bad[3] ^= 0x01;
    assert!(spec.decode(&bad).is_err());
    println!("corrupted frame rejected by the definition itself\n");

    // ── (ii) behaviour: the §3.4 sender, exhaustively verified ─────────
    let sender = paper_sender_spec(7);
    let report = check_spec(&sender, Limits::default());
    println!(
        "model-checked `{}`: {} states, {} transitions",
        report.spec, report.states, report.transitions
    );
    println!(
        "  soundness={:?} determinism={:?} completeness={:?} termination={:?}\n",
        report.soundness, report.determinism, report.completeness, report.termination
    );
    assert!(report.all_hold());

    // ── (iii) execution: a transfer over a 20%-lossy link ──────────────
    let messages: Vec<Vec<u8>> = (0..10)
        .map(|i| format!("message #{i}").into_bytes())
        .collect();
    let out = run_transfer(messages, LinkConfig::lossy(5, 0.2), 42, 100, 10, 1_000_000);
    println!(
        "transfer over 20% loss: success={} elapsed={} ticks, {} frames ({} retransmissions)",
        out.success, out.elapsed, out.stats.frames_sent, out.stats.retransmissions
    );
    assert!(out.success);
    Ok(())
}
