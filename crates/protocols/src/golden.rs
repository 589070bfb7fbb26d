//! Golden-trace recorder for the pairwise protocol suite, plus the
//! committed fixture corpus.
//!
//! [`record`] runs a scenario exactly as
//! [`SuiteDriver`](crate::scenario::SuiteDriver) does — the same
//! [`suite_session`](crate::scenario::suite_session) endpoints through
//! the same pump — with the simulator's golden capture on. Every suite
//! endpoint is [`Observable`], so each delivery gets a frame-validation
//! [`Verdict`] and an FNV digest of the receiving endpoint's observable
//! state attached. The resulting [`GoldenTrace`] serializes
//! deterministically and — because verdicts are computed with the
//! reference interpreted codec and digests cover only
//! engine-independent state — every supported `FramePath` × `FsmPath`
//! combination of the same scenario must produce the
//! **byte-identical** transcript (`tests/golden_parity.rs`).
//! Unsupported combinations refuse loudly with the same
//! [`ScenarioError::Unsupported`] the driver raises.
//!
//! [`corpus`] defines the committed fixture set under `tests/golden/`
//! (regenerated by the `tools/golden` binary; `--check` gates CI).

use netdsl_netsim::golden::Digest;
use netdsl_netsim::scenario::{
    EngineConfig, ProtocolSpec, Scenario, ScenarioError, TrafficPattern,
};
use netdsl_netsim::{
    FlightRecording, GoldenResult, GoldenScenario, GoldenTrace, LinkConfig, Simulator, Verdict,
};

use crate::arq::compiled::FsmSender;
use crate::arq::session::{SwReceiver, SwSender};
use crate::arq::ArqFrame;
use crate::baseline::{self, CReceiver, CSender};
use crate::driver::Endpoint;
use crate::gbn::{GbnReceiver, GbnSender};
use crate::scenario::{run_alone, BASELINE, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT};
use crate::sr::{SrReceiver, SrSender};
use crate::window::WindowFrame;

/// A suite endpoint as the golden recorder sees it at each delivery.
///
/// The validator sees only wire bytes and the digest only the
/// endpoint's public observable state — nothing engine-specific, which
/// is what lets one fixture be the oracle for every engine combination.
pub trait Observable: Endpoint {
    /// Whether the reference interpreted codec accepts `frame`.
    fn frame_ok(frame: &[u8]) -> bool;

    /// FNV digest of the endpoint's observable state.
    fn digest(&self) -> u64;

    /// The annotation of a frame this endpoint has just handled: the
    /// validator's verdict on it and the post-dispatch state digest.
    fn annotation(&self, frame: &[u8]) -> (Verdict, u64) {
        let verdict = if Self::frame_ok(frame) {
            Verdict::Valid
        } else {
            Verdict::Corrupt
        };
        (verdict, self.digest())
    }
}

// ---------------------------------------------------------------------
// Frame validators (reference interpreted codec, so verdicts are
// engine-independent by construction) and state digests. Senders fold
// their counters and outcome flags; receivers additionally fold every
// delivered payload, so a single mis-delivered byte anywhere in the run
// shifts all subsequent digests. The typestate and compiled
// stop-and-wait senders fold the same fields in the same order — their
// behavioural equivalence is what makes one fixture the oracle for
// both.
// ---------------------------------------------------------------------

fn arq_frame_ok(frame: &[u8]) -> bool {
    ArqFrame::decode(frame).is_ok()
}

fn window_frame_ok(frame: &[u8]) -> bool {
    WindowFrame::decode(frame).is_ok()
}

fn fold_messages(mut d: Digest, messages: &[Vec<u8>]) -> Digest {
    d = d.u64(messages.len() as u64);
    for m in messages {
        d = d.u64(m.len() as u64).bytes(m);
    }
    d
}

/// The counters and outcome flags every counting sender folds first.
fn sender_digest(sent: u64, retransmitted: u64, delivered: u64, ok: bool, failed: bool) -> Digest {
    Digest::new()
        .u64(sent)
        .u64(retransmitted)
        .u64(delivered)
        .u64(ok as u64)
        .u64(failed as u64)
}

impl Observable for SwSender {
    fn frame_ok(frame: &[u8]) -> bool {
        arq_frame_ok(frame)
    }
    fn digest(&self) -> u64 {
        let s = self.stats();
        sender_digest(
            s.frames_sent,
            s.retransmissions,
            s.delivered,
            self.succeeded(),
            self.failed(),
        )
        .u64(self.final_seq().map_or(0, |seq| seq as u64 + 1))
        .finish()
    }
}

impl Observable for FsmSender {
    fn frame_ok(frame: &[u8]) -> bool {
        arq_frame_ok(frame)
    }
    fn digest(&self) -> u64 {
        let s = self.stats();
        sender_digest(
            s.frames_sent,
            s.retransmissions,
            s.delivered,
            self.succeeded(),
            self.failed(),
        )
        .u64(self.final_seq().map_or(0, |seq| seq as u64 + 1))
        .finish()
    }
}

impl Observable for SwReceiver {
    fn frame_ok(frame: &[u8]) -> bool {
        arq_frame_ok(frame)
    }
    fn digest(&self) -> u64 {
        let d = Digest::new().u64(self.rejected()).u64(self.acks_sent());
        fold_messages(d, self.delivered()).finish()
    }
}

impl Observable for GbnSender {
    fn frame_ok(frame: &[u8]) -> bool {
        window_frame_ok(frame)
    }
    fn digest(&self) -> u64 {
        let s = self.stats();
        sender_digest(
            s.frames_sent,
            s.retransmissions,
            s.delivered,
            self.succeeded(),
            self.failed(),
        )
        .finish()
    }
}

impl Observable for GbnReceiver {
    fn frame_ok(frame: &[u8]) -> bool {
        window_frame_ok(frame)
    }
    fn digest(&self) -> u64 {
        fold_messages(Digest::new().u64(self.out_of_order()), self.delivered()).finish()
    }
}

impl Observable for SrSender {
    fn frame_ok(frame: &[u8]) -> bool {
        window_frame_ok(frame)
    }
    fn digest(&self) -> u64 {
        let s = self.stats();
        sender_digest(
            s.frames_sent,
            s.retransmissions,
            s.delivered,
            self.succeeded(),
            self.failed(),
        )
        .finish()
    }
}

impl Observable for SrReceiver {
    fn frame_ok(frame: &[u8]) -> bool {
        window_frame_ok(frame)
    }
    fn digest(&self) -> u64 {
        fold_messages(Digest::new().u64(self.buffered_count()), self.delivered()).finish()
    }
}

impl Observable for CSender {
    fn frame_ok(frame: &[u8]) -> bool {
        baseline_frame_ok(frame)
    }
    fn digest(&self) -> u64 {
        // The baseline sender keeps no counters (that is its point) —
        // the digest covers what little it observably exposes.
        Digest::new()
            .u64(self.succeeded() as u64)
            .u64(self.messages().len() as u64)
            .finish()
    }
}

impl Observable for CReceiver {
    fn frame_ok(frame: &[u8]) -> bool {
        baseline_frame_ok(frame)
    }
    fn digest(&self) -> u64 {
        fold_messages(Digest::new(), self.delivered()).finish()
    }
}

fn baseline_frame_ok(frame: &[u8]) -> bool {
    let (mut kind, mut seq, mut payload) = (0u8, 0u8, Vec::new());
    baseline::parse_frame(frame, &mut kind, &mut seq, &mut payload) == baseline::E_OK
}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

/// Runs the scenario alone with golden capture on and folds the
/// transcript and result into a trace; the simulator comes back for
/// whatever else it recorded.
fn capture(scenario: &Scenario) -> Result<(GoldenTrace, Simulator), ScenarioError> {
    let (result, mut sim) = run_alone(scenario, true)?;
    let trace = GoldenTrace {
        name: scenario.name.clone(),
        scenario: GoldenScenario::from_scenario(scenario),
        events: sim.take_golden_events(),
        result: GoldenResult::from_result(&result),
    };
    Ok((trace, sim))
}

/// Records the canonical transcript of one scenario.
///
/// This is [`SuiteDriver`](crate::scenario::SuiteDriver)'s own run —
/// same endpoints, same pump, same refusals (non-duplex topologies;
/// [`FsmPath::Compiled`](netdsl_netsim::scenario::FsmPath) outside
/// stop-and-wait) — with capture on, so a recorded trace describes
/// precisely what the driver does.
pub fn record(scenario: &Scenario) -> Result<GoldenTrace, ScenarioError> {
    capture(scenario).map(|(trace, _)| trace)
}

/// [`record`] with a flight recorder riding along: the run also
/// captures the [`FlightRecording`] of engine-level events. The golden
/// transcript must be unaffected by the recorder (telemetry is not a
/// parity axis), and the flight `Send`/`Deliver`/`Drop`/`Corrupt`
/// subsequence must mirror the golden `Sent`/`Delivered`/`Lost`/
/// `Corrupted` events one-for-one — `tests/flight_parity.rs` pins both.
pub fn record_with_flight(
    scenario: &Scenario,
) -> Result<(GoldenTrace, FlightRecording), ScenarioError> {
    let mut scenario = scenario.clone();
    scenario.protocol.obs = scenario.protocol.obs.with_flight();
    let (trace, mut sim) = capture(&scenario)?;
    let flight = sim
        .take_flight()
        .expect("the scenario asks for a flight recorder");
    Ok((trace, flight))
}

// ---------------------------------------------------------------------
// Engine-axis product and fixture corpus
// ---------------------------------------------------------------------

/// A copy of `scenario` with its engine configuration replaced (all
/// other inputs untouched, so its golden transcript must not change).
/// The full 4-combination product comes from [`EngineConfig::all`];
/// protocols without a compiled control FSM refuse the
/// `FsmPath::Compiled` half loudly (see
/// [`crate::scenario::validate_engine`]) and the
/// parity suite asserts exactly that refusal and replays the rest.
pub fn with_combo(scenario: &Scenario, config: EngineConfig) -> Scenario {
    let mut s = scenario.clone();
    s.protocol = s.protocol.clone().with_engine(config);
    s
}

/// Short fixture-name key for a protocol constant.
fn short_name(protocol: &str) -> &'static str {
    match protocol {
        STOP_AND_WAIT => "sw",
        GO_BACK_N => "gbn",
        SELECTIVE_REPEAT => "sr",
        BASELINE => "baseline",
        _ => unreachable!("corpus covers the suite protocols"),
    }
}

/// The committed fixture corpus: every suite protocol crossed with the
/// four impairment families (loss / corruption / duplication /
/// reordering), plus one mid-run outage fixture exercising the fault
/// schedule. Scenarios are small on purpose — a fixture is a readable
/// JSON file of a few hundred events, not a benchmark.
///
/// Fixture names double as the file stems under `tests/golden/`;
/// engine axes are left at their defaults (the recorded transcript is
/// axis-independent regardless).
pub fn corpus() -> Vec<Scenario> {
    let protocols = [
        (STOP_AND_WAIT, 1u32, 80u64),
        (GO_BACK_N, 4, 120),
        (SELECTIVE_REPEAT, 4, 120),
        (BASELINE, 1, 80),
    ];
    let impairments = [
        ("loss", LinkConfig::lossy(3, 0.2)),
        ("corrupt", LinkConfig::reliable(3).with_corrupt(0.15)),
        ("dup", LinkConfig::reliable(3).with_duplicate(0.3)),
        ("reorder", LinkConfig::reliable(2).with_jitter(8)),
    ];
    let mut fixtures = Vec::new();
    for (i, (protocol, window, timeout)) in protocols.iter().enumerate() {
        for (j, (impairment, link)) in impairments.iter().enumerate() {
            fixtures.push(
                Scenario::new(
                    ProtocolSpec::new(*protocol)
                        .with_window(*window)
                        .with_timeout(*timeout)
                        .with_retries(300),
                    link.clone(),
                )
                .with_name(format!("{}-{}", short_name(protocol), impairment))
                .with_traffic(TrafficPattern::messages(6, 12))
                .with_seed(101 + (i * impairments.len() + j) as u64)
                .with_deadline(200_000),
            );
        }
    }
    // A mid-run outage: partition both directions, then repair — the
    // fault schedule is part of the serialized scenario and must replay.
    fixtures.push(
        Scenario::new(
            ProtocolSpec::new(STOP_AND_WAIT)
                .with_timeout(80)
                .with_retries(300),
            LinkConfig::reliable(3),
        )
        .with_name("sw-outage")
        .with_traffic(TrafficPattern::messages(6, 12))
        .with_fault(netdsl_netsim::Fault::partition(10))
        .with_fault(netdsl_netsim::Fault::repair(400, 3))
        .with_seed(90)
        .with_deadline(200_000),
    );
    // Fault-kind fixtures: one per non-link fault family, exercising
    // the crash/restart, flap, clock-skew and burst paths of the fault
    // engine end to end. In these and the outage above, every planned
    // action falls inside the transfer, so each lands on its tick
    // (`tests/golden_parity.rs` checks the flight events).
    use netdsl_netsim::scenario::{FaultDirection, FaultNode};
    fixtures.push(
        Scenario::new(
            ProtocolSpec::new(STOP_AND_WAIT)
                .with_timeout(80)
                .with_retries(12),
            LinkConfig::reliable(3),
        )
        .with_name("sw-crash")
        .with_traffic(TrafficPattern::messages(6, 12))
        .with_fault(netdsl_netsim::Fault::crash(15, FaultNode::B))
        .with_fault(netdsl_netsim::Fault::restart(250, FaultNode::B))
        .with_seed(140)
        .with_deadline(200_000),
    );
    fixtures.push(
        Scenario::new(
            ProtocolSpec::new(GO_BACK_N)
                .with_window(4)
                .with_timeout(120)
                .with_retries(300),
            LinkConfig::reliable(3),
        )
        .with_name("gbn-flap")
        .with_traffic(TrafficPattern::messages(6, 12))
        .with_fault(netdsl_netsim::Fault::flap(
            5,
            FaultDirection::Forward,
            LinkConfig::lossy(1, 1.0),
            100,
            20,
            2,
        ))
        .with_seed(141)
        .with_deadline(200_000),
    );
    fixtures.push(
        Scenario::new(
            ProtocolSpec::new(SELECTIVE_REPEAT)
                .with_window(4)
                .with_timeout(120)
                .with_retries(300),
            LinkConfig::lossy(3, 0.2),
        )
        .with_name("sr-skew")
        .with_traffic(TrafficPattern::messages(6, 12))
        .with_fault(netdsl_netsim::Fault::clock_skew(25, FaultNode::A, 5, 4))
        .with_seed(142)
        .with_deadline(200_000),
    );
    fixtures.push(
        Scenario::new(
            ProtocolSpec::new(STOP_AND_WAIT)
                .with_timeout(80)
                .with_retries(300),
            LinkConfig::reliable(3),
        )
        .with_name("sw-burst")
        .with_traffic(TrafficPattern::messages(6, 12))
        .with_fault(netdsl_netsim::Fault::burst(
            10,
            FaultDirection::Both,
            LinkConfig::reliable(3).with_corrupt(0.8),
            200,
        ))
        .with_seed(143)
        .with_deadline(200_000),
    );
    fixtures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SuiteDriver;
    use netdsl_netsim::scenario::{FsmPath, ScenarioDriver, TopologySpec};

    #[test]
    fn corpus_is_large_and_uniquely_named() {
        let corpus = corpus();
        assert!(corpus.len() >= 12, "corpus has {} fixtures", corpus.len());
        let mut names: Vec<&str> = corpus.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), corpus.len(), "fixture names are unique");
    }

    #[test]
    fn recording_matches_the_driver_result() {
        // The recorder must describe exactly what SuiteDriver does: the
        // embedded result equals the driver's result for every fixture.
        let driver = SuiteDriver::new();
        for scenario in corpus() {
            let trace = record(&scenario).unwrap();
            let result = driver.run(&scenario).unwrap();
            assert_eq!(
                trace.result,
                GoldenResult::from_result(&result),
                "{}: recorder and driver disagree",
                scenario.name
            );
            assert!(!trace.events.is_empty(), "{}", scenario.name);
        }
    }

    #[test]
    fn recording_honours_the_retransmit_policy() {
        // Adaptive retransmission under a forward-path flap: the
        // recorder builds the driver's own endpoints, so it runs the
        // adaptive timers too rather than a fixed-timeout twin.
        use netdsl_netsim::scenario::{Fault, FaultDirection, RetransmitPolicy};
        let adaptive = RetransmitPolicy::AdaptiveRto {
            min_rto: 4,
            max_rto: 2_000,
        };
        for (protocol, window, timeout) in [
            (STOP_AND_WAIT, 1, 80),
            (GO_BACK_N, 4, 120),
            (SELECTIVE_REPEAT, 4, 120),
        ] {
            let scenario = Scenario::new(
                ProtocolSpec::new(protocol)
                    .with_window(window)
                    .with_timeout(timeout)
                    .with_retries(300)
                    .with_retransmit(adaptive),
                LinkConfig::reliable(3),
            )
            .with_traffic(TrafficPattern::messages(32, 16))
            .with_fault(Fault::flap(
                30,
                FaultDirection::Forward,
                LinkConfig::lossy(1, 1.0),
                150,
                250,
                2,
            ))
            .with_seed(7)
            .with_deadline(1_000_000);
            let driven = SuiteDriver::new().run(&scenario).unwrap();
            assert_eq!(
                record(&scenario).unwrap().result,
                GoldenResult::from_result(&driven),
                "{protocol}: recorder and driver disagree"
            );
        }
    }

    #[test]
    fn every_delivery_is_annotated() {
        for scenario in corpus() {
            let trace = record(&scenario).unwrap();
            for ev in &trace.events {
                use netdsl_netsim::GoldenEventKind;
                if ev.kind == GoldenEventKind::Delivered {
                    assert!(ev.verdict.is_some(), "{}: unannotated delivery", trace.name);
                    assert!(ev.digest.is_some(), "{}: missing digest", trace.name);
                    assert!(
                        !ev.bytes.is_empty(),
                        "{}: delivery without bytes",
                        trace.name
                    );
                } else {
                    assert!(ev.verdict.is_none(), "{}", trace.name);
                }
            }
        }
    }

    #[test]
    fn corrupt_links_yield_corrupt_verdicts() {
        let scenario = corpus()
            .into_iter()
            .find(|s| s.name == "sw-corrupt")
            .unwrap();
        let trace = record(&scenario).unwrap();
        let corrupt = trace
            .events
            .iter()
            .filter(|e| e.verdict == Some(Verdict::Corrupt))
            .count();
        assert!(corrupt > 0, "0.15 corruption never produced a bad frame");
        let valid = trace
            .events
            .iter()
            .filter(|e| e.verdict == Some(Verdict::Valid))
            .count();
        assert!(valid > corrupt, "most frames still verify");
    }

    #[test]
    fn unsupported_combos_refuse_loudly() {
        let base = corpus().into_iter().find(|s| s.name == "gbn-loss").unwrap();
        let refused = with_combo(
            &base,
            EngineConfig {
                fsm_path: FsmPath::Compiled,
                ..EngineConfig::default()
            },
        );
        assert!(matches!(
            record(&refused),
            Err(ScenarioError::Unsupported(_))
        ));
        let line = base.with_topology(TopologySpec::Line { nodes: 3 });
        assert!(matches!(
            record(&line),
            Err(ScenarioError::UnsupportedTopology(_))
        ));
    }

    #[test]
    fn with_combo_touches_only_the_engine_axes() {
        let base = corpus().into_iter().find(|s| s.name == "sw-loss").unwrap();
        for config in EngineConfig::all() {
            let variant = with_combo(&base, config);
            assert_eq!(variant.protocol.engine(), config);
            assert_eq!(variant.seed, base.seed);
            assert_eq!(variant.link, base.link);
            assert_eq!(variant.traffic, base.traffic);
        }
    }
}
