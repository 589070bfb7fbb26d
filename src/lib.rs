//! # netdsl — correct-by-construction network protocols
//!
//! Facade crate re-exporting the whole workspace, which reproduces
//! *"Domain Specific Languages (DSLs) for Network Protocols"* (Bhatti,
//! Brady, Hammond, McKinna — ICDCS 2009): a protocol-definition DSL in
//! which packet formats (with semantic constraints), state machines (with
//! soundness and completeness guarantees) and their execution live in one
//! framework.
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`wire`] | `netdsl-wire` | bit-granular I/O, checksums |
//! | [`abnf`] | `netdsl-abnf` | RFC 5234 grammars (syntactic baseline 1) |
//! | [`asn1`] | `netdsl-asn1` | ASN.1 + DER (syntactic baseline 2) |
//! | [`core`] | `netdsl-core` | the DSL: packet specs, witnesses, typestate & reified FSMs |
//! | [`codec`] | `netdsl-codec` | compiled codec engine: flat IR + zero-copy batch interpreter |
//! | [`verify`] | `netdsl-verify` | model checker + behavioural test generation |
//! | [`obs`] | `netdsl-obs` | telemetry: metric registry, flight recorder, progress sinks |
//! | [`netsim`] | `netdsl-netsim` | deterministic network simulator |
//! | [`protocols`] | `netdsl-protocols` | ARQ (§3.4), GBN, SR, handshake, IPv4, UDP, TFTP, baseline |
//! | [`adapt`] | `netdsl-adapt` | fuzzy QoS, trust routing, adaptive timers |
//!
//! # Quickstart
//!
//! ```
//! use netdsl::protocols::arq::session::run_transfer;
//! use netdsl::netsim::LinkConfig;
//!
//! let messages = vec![b"hello".to_vec(), b"world".to_vec()];
//! let out = run_transfer(messages, LinkConfig::lossy(5, 0.2), 42, 100, 10, 1_000_000);
//! assert!(out.success);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// RFC 5234 ABNF grammars — the paper's first syntactic baseline.
///
/// ```
/// let g = netdsl::abnf::Grammar::parse("num = 1*3DIGIT\n").unwrap();
/// assert!(g.matches("num", b"123").unwrap());
/// assert!(!g.matches("num", b"12345").unwrap());
/// ```
pub use netdsl_abnf as abnf;

/// Behavioural adaptation: fuzzy QoS, trust routing, adaptive timers.
///
/// ```
/// let mut rto = netdsl::adapt::RtoEstimator::new(3000, 100, 60_000);
/// rto.on_sample(50);
/// assert!(rto.rto() < 3000, "RTO converges after a sample");
/// ```
pub use netdsl_adapt as adapt;

/// Experiment machinery: the benchmark-report schema every harness
/// emits ([`bench::report`]), the campaign builders behind the
/// E-harnesses ([`bench::harnesses`]), and the drivers composing
/// `protocols` × `adapt`. The artifact format and CI gating are
/// documented in `docs/BENCHMARKS.md`.
///
/// ```
/// use netdsl::bench::report::{BenchReport, Metric};
/// let mut r = BenchReport::new("doc", "facade doctest");
/// r.push(Metric::new("latency", "ms").with_samples([1.0, 2.0, 4.0]));
/// let back = BenchReport::from_json_str(&r.to_json_string()).unwrap();
/// assert_eq!(back, r);
/// assert_eq!(back.metrics[0].aggregate().median(), 2.0);
/// ```
pub use netdsl_bench as bench;

/// ASN.1 + DER — the paper's second syntactic baseline.
///
/// ```
/// use netdsl::asn1::{der, AsnValue};
/// let v = AsnValue::Integer(300);
/// assert_eq!(der::decode(&der::encode(&v)).unwrap(), v);
/// ```
pub use netdsl_asn1 as asn1;

/// The compiled codec engine: [`lower`](codec::lower()) compiles a
/// [`PacketSpec`](core::packet::PacketSpec) to a flat IR program, and
/// the register-style interpreter decodes borrowed frames zero-copy
/// (span table instead of an allocated value map) with batch APIs.
/// Behaviour matches the interpretive walker verdict-for-verdict;
/// experiment E12 tracks the speedup. See `docs/CODEC.md`.
///
/// ```
/// use netdsl::core::packet::{Coverage, Len, PacketSpec, Value};
/// use netdsl::wire::checksum::ChecksumKind;
///
/// let spec = PacketSpec::builder("ping")
///     .uint("seq", 16)
///     .checksum("ck", ChecksumKind::Crc16Ccitt, Coverage::Whole)
///     .bytes("body", Len::Rest)
///     .build()
///     .unwrap();
/// let codec = netdsl::codec::lower(&spec).unwrap();
///
/// let mut v = spec.value();
/// v.set("seq", Value::Uint(99));
/// v.set("body", Value::Bytes(b"zero-copy".to_vec()));
/// let wire = codec.encode_packet_value(&v).unwrap();
/// assert_eq!(wire, spec.encode(&v).unwrap(), "byte-identical paths");
///
/// let frame = codec.decode(&wire).unwrap();
/// assert_eq!(frame.uint("seq"), Some(99));
/// assert_eq!(frame.bytes("body"), Some(&b"zero-copy"[..]));
/// ```
pub use netdsl_codec as codec;

/// The DSL itself: packet specs, witnesses, typestate and reified FSMs.
///
/// ```
/// use netdsl::core::fsm::paper_sender_spec;
/// let spec = paper_sender_spec(7);
/// assert_eq!(spec.name(), "paper-arq-sender");
/// ```
pub use netdsl_core as core;

/// Deterministic network simulator (loss, duplication, corruption,
/// jitter) with a zero-allocation frame hot path: payloads live in a
/// refcounted arena ([`netsim::PayloadArena`]) and events schedule on a
/// hierarchical timer wheel (`docs/SIMCORE.md`, experiment E13).
///
/// ```
/// use netdsl::netsim::{EventRef, LinkConfig, Simulator};
/// let mut sim = Simulator::new(1);
/// let (a, b) = (sim.add_node(), sim.add_node());
/// let link = sim.add_link(a, b, LinkConfig::reliable(3));
/// // Allocation-free handle path: encode into a pooled buffer…
/// let frame = sim.alloc_payload_with(|buf| buf.extend_from_slice(&[0x42]));
/// assert!(sim.send_ref(link, frame));
/// // …and detach/recycle on delivery.
/// let Some(EventRef::Frame { payload, .. }) = sim.step_ref() else {
///     unreachable!()
/// };
/// let bytes = sim.detach_payload(payload);
/// assert_eq!(bytes, vec![0x42]);
/// sim.recycle_payload(bytes);
/// ```
pub use netdsl_netsim as netsim;

/// Homegrown telemetry: a static metric registry (counters and
/// log-bucketed histograms; zero steady-state allocation, deterministic
/// cross-thread snapshots), the flight recorder of structured engine
/// events (a bounded ring, or the transcript golden traces are projected
/// from), and campaign progress sinks. `set_metrics_enabled` turns the
/// registry on for the process; scenarios ask for a recorder via
/// [`netsim::ObsConfig`]. Telemetry is **not** a parity axis and never
/// changes a result. See `docs/OBSERVABILITY.md`.
///
/// ```
/// use netdsl::obs::{set_metrics_enabled, snapshot, Counter};
/// static DOC_HITS: Counter = Counter::new("doc.hits");
/// set_metrics_enabled(true);
/// DOC_HITS.incr();
/// assert!(DOC_HITS.value() >= 1);
/// assert!(snapshot().counter("doc.hits").is_some());
/// ```
pub use netdsl_obs as obs;

/// Declarative scenario campaigns: labelled sweeps over protocols ×
/// links × topologies × traffic × seeds, expanded to a grid and run in
/// parallel with deterministic per-scenario seeding. The tutorial lives
/// in `docs/SCENARIOS.md`; drivers for the protocol suite are in
/// [`protocols::scenario`].
///
/// ```
/// use netdsl::campaign::{Campaign, Sweep};
/// use netdsl::scenario::ProtocolSpec;
/// use netdsl::netsim::LinkConfig;
/// use netdsl::protocols::scenario::{SuiteDriver, STOP_AND_WAIT};
///
/// let report = Campaign::new("doc", 7)
///     .protocols(Sweep::single("sw", ProtocolSpec::new(STOP_AND_WAIT)))
///     .links(Sweep::single("lossy", LinkConfig::lossy(3, 0.2)))
///     .seeds(Sweep::seeds(2))
///     .run(&SuiteDriver::new(), 2);
/// assert_eq!(report.succeeded, 2);
/// assert_eq!(report.cells[0].goodput.count(), 2); // one cell, two seeds
/// ```
pub use netdsl_netsim::campaign;

/// Scenario descriptions ([`Scenario`](scenario::Scenario),
/// [`ProtocolSpec`](scenario::ProtocolSpec), faults, traffic patterns)
/// and the [`ScenarioDriver`](scenario::ScenarioDriver) plug-in trait
/// that campaign execution dispatches through.
pub use netdsl_netsim::scenario;

/// Protocols written in the DSL: ARQ (§3.4), GBN, SR, handshake, IPv4,
/// UDP, TFTP and the hand-rolled baseline.
///
/// ```
/// let spec = netdsl::protocols::ipv4::ipv4_spec();
/// assert_eq!(spec.name(), "ipv4");
/// ```
pub use netdsl_protocols as protocols;

/// Model checker and behavioural test generation over reified specs.
///
/// ```
/// use netdsl::core::fsm::paper_sender_spec;
/// use netdsl::verify::{props::check_spec, Limits};
/// let report = check_spec(&paper_sender_spec(3), Limits::default());
/// assert!(report.all_hold());
/// ```
pub use netdsl_verify as verify;

/// Bit-granular wire I/O and checksums.
///
/// ```
/// use netdsl::wire::checksum::{arq_check, arq_verify};
/// let c = arq_check(1, b"payload");
/// assert!(arq_verify(1, b"payload", c));
/// ```
pub use netdsl_wire as wire;
