//! Golden-trace recorder for the pairwise protocol suite, plus the
//! committed fixture corpus.
//!
//! [`record_flight`] runs a scenario exactly as
//! [`SuiteDriver`](crate::scenario::SuiteDriver) does — the same
//! [`suite_session`](crate::scenario::suite_session) endpoints through
//! the same pump — under a flight recorder of the caller's choice, and
//! returns the recording. [`record`] is that run under a transcript
//! recorder ([`FlightMode::Transcript`]), which keeps every frame's
//! wire bytes and, since every suite endpoint is [`Observable`], an FNV
//! digest of the receiving endpoint's observable state after each
//! delivery. The [`GoldenTrace`] is the recording's projection
//! ([`golden::project`]), each delivery's [`Verdict`] computed from
//! its bytes by the protocol's reference validator (its interpreted
//! codec). Because verdicts and digests cover only engine-independent
//! state, every supported `FramePath` × `FsmPath` combination of the
//! same scenario must produce the **byte-identical** transcript
//! (`tests/golden_parity.rs`). Unsupported combinations refuse loudly
//! with the same [`ScenarioError::Unsupported`] the driver raises.
//!
//! [`corpus`] defines the committed fixture set under `tests/golden/`
//! (regenerated by the `tools/golden` binary; `--check` gates CI).
//!
//! [`Verdict`]: netdsl_netsim::Verdict

use netdsl_netsim::golden::{self, Digest};
use netdsl_netsim::scenario::{
    EngineConfig, ProtocolSpec, Scenario, ScenarioError, ScenarioResult, TrafficPattern,
};
use netdsl_netsim::{
    FlightMode, FlightRecording, GoldenResult, GoldenScenario, GoldenTrace, LinkConfig,
};

use crate::arq::compiled::FsmSender;
use crate::arq::session::{SwReceiver, SwSender};
use crate::arq::ArqFrame;
use crate::baseline::{self, CReceiver, CSender};
use crate::driver::{Endpoint, Sink};
use crate::gbn::{GbnReceiver, GbnSender};
use crate::scenario::{run_alone, BASELINE, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT};
use crate::sr::{SrReceiver, SrSender};
use crate::window::WindowFrame;

/// A suite endpoint as the golden recorder sees it after each delivery.
///
/// The digest sees only the endpoint's public observable state —
/// nothing engine-specific, which is what lets one fixture be the
/// oracle for every engine combination.
pub trait Observable: Endpoint {
    /// FNV digest of the endpoint's observable state; a receiver's
    /// covers what its session has `delivered`.
    fn digest(&self, delivered: &Sink) -> u64;
}

// ---------------------------------------------------------------------
// State digests. Senders fold their counters and outcome flags;
// receivers additionally fold every payload the session's sink has
// taken, so a single mis-delivered byte anywhere in the run shifts all
// subsequent digests. The typestate and compiled stop-and-wait senders
// fold the same fields in the same order — their behavioural
// equivalence is what makes one fixture the oracle for both.
// ---------------------------------------------------------------------

fn fold_delivered(d: Digest, delivered: &Sink) -> Digest {
    delivered.fold(d.u64(delivered.len() as u64), |d, m| {
        d.u64(m.len() as u64).bytes(m)
    })
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
    fn digest(&self, _: &Sink) -> u64 {
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
    fn digest(&self, _: &Sink) -> u64 {
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
    fn digest(&self, delivered: &Sink) -> u64 {
        let d = Digest::new().u64(self.rejected()).u64(self.acks_sent());
        fold_delivered(d, delivered).finish()
    }
}

impl Observable for GbnSender {
    fn digest(&self, _: &Sink) -> u64 {
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
    fn digest(&self, delivered: &Sink) -> u64 {
        fold_delivered(Digest::new().u64(self.out_of_order()), delivered).finish()
    }
}

impl Observable for SrSender {
    fn digest(&self, _: &Sink) -> u64 {
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
    fn digest(&self, delivered: &Sink) -> u64 {
        fold_delivered(Digest::new().u64(self.buffered_count()), delivered).finish()
    }
}

impl Observable for CSender {
    fn digest(&self, _: &Sink) -> u64 {
        // The baseline sender keeps no counters (that is its point) —
        // the digest covers what little it observably exposes.
        Digest::new()
            .u64(self.succeeded() as u64)
            .u64(self.messages().len() as u64)
            .finish()
    }
}

impl Observable for CReceiver {
    fn digest(&self, delivered: &Sink) -> u64 {
        fold_delivered(Digest::new(), delivered).finish()
    }
}

/// The reference validator of a suite protocol's frames: whether its
/// interpreted codec accepts them, so verdicts are engine-independent
/// by construction.
fn validator(protocol: &str) -> fn(&[u8]) -> bool {
    match protocol {
        STOP_AND_WAIT => |frame| ArqFrame::decode(frame).is_ok(),
        GO_BACK_N | SELECTIVE_REPEAT => |frame| WindowFrame::decode(frame).is_ok(),
        BASELINE => |frame| {
            let (mut kind, mut seq, mut payload) = (0u8, 0u8, Vec::new());
            baseline::parse_frame(frame, &mut kind, &mut seq, &mut payload) == baseline::E_OK
        },
        other => unreachable!("{other} is not a suite protocol"),
    }
}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

/// Runs `scenario` alone, as
/// [`SuiteDriver`](crate::scenario::SuiteDriver) does, under the flight
/// recorder `flight` in place of the one its
/// [`ObsConfig`](netdsl_netsim::ObsConfig) selects, and returns its
/// result and recording. It refuses what the driver refuses
/// (non-duplex topologies;
/// [`FsmPath::Compiled`](netdsl_netsim::scenario::FsmPath) outside
/// stop-and-wait).
pub fn record_flight(
    scenario: &Scenario,
    flight: FlightMode,
) -> Result<(ScenarioResult, FlightRecording), ScenarioError> {
    let mut scenario = scenario.clone();
    scenario.protocol.obs.flight = Some(flight);
    let (result, mut sim) = run_alone(&scenario)?;
    let recording = sim.take_flight().expect("the scenario installs a recorder");
    Ok((result, recording))
}

/// Records the canonical transcript of one scenario: its
/// [`record_flight`] run under a transcript recorder, projected by
/// [`trace_of`], so a recorded trace describes precisely what the
/// driver does.
pub fn record(scenario: &Scenario) -> Result<GoldenTrace, ScenarioError> {
    let (result, recording) = record_flight(scenario, FlightMode::Transcript)?;
    Ok(trace_of(scenario, &result, &recording))
}

/// The golden trace of a suite scenario's run, from its result and its
/// transcript recording: the recording's frame events
/// ([`golden::project`]), each delivery judged by the protocol's
/// reference validator.
///
/// # Panics
///
/// Panics if `scenario` names no suite protocol, or if `recording` was
/// not made in transcript mode.
pub fn trace_of(
    scenario: &Scenario,
    result: &ScenarioResult,
    recording: &FlightRecording,
) -> GoldenTrace {
    GoldenTrace {
        name: scenario.name.clone(),
        scenario: GoldenScenario::from_scenario(scenario),
        events: golden::project(recording, validator(&scenario.protocol.name)),
        result: GoldenResult::from_result(result),
    }
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
    // A crash-restart of the receiver, then of the sender, which
    // restarts from its first message.
    for (name, node) in [
        ("sw-crash", FaultNode::B),
        ("sw-sender-crash", FaultNode::A),
    ] {
        fixtures.push(
            Scenario::new(
                ProtocolSpec::new(STOP_AND_WAIT)
                    .with_timeout(80)
                    .with_retries(12),
                LinkConfig::reliable(3),
            )
            .with_name(name)
            .with_traffic(TrafficPattern::messages(6, 12))
            .with_fault(netdsl_netsim::Fault::crash(15, node))
            .with_fault(netdsl_netsim::Fault::restart(250, node))
            .with_seed(140)
            .with_deadline(200_000),
        );
    }
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
    use netdsl_netsim::Verdict;

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
                if ev.kind == netdsl_netsim::FlightKind::Deliver {
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
