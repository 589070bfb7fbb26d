//! Flight-recorder projection suite: a golden transcript is not
//! captured on its own, it is the projection of the simulator's one
//! recorder run in transcript mode. For every committed fixture, the
//! default ring recording equals the transcript recording with its
//! digest events removed — same kinds, ticks, subjects and details, so
//! a transcript adds digests and nothing else — and the transcript's
//! projection serializes to the committed JSON.

use std::path::PathBuf;

use netdsl::netsim::{FlightKind, FlightMode};
use netdsl::obs::{FlightRecording, DEFAULT_FLIGHT_CAPACITY};
use netdsl::protocols::golden::{corpus, record_flight, trace_of, with_combo};
use netdsl::protocols::scenario::STOP_AND_WAIT;
use netdsl::scenario::{EngineConfig, FsmPath};

const RING: FlightMode = FlightMode::Ring(DEFAULT_FLIGHT_CAPACITY);

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

#[test]
fn flight_frame_events_mirror_every_committed_fixture() {
    for scenario in &corpus() {
        let committed = std::fs::read_to_string(fixture_path(&scenario.name)).unwrap();
        let (ring_result, ring) = record_flight(scenario, RING).unwrap();
        let (result, transcript) = record_flight(scenario, FlightMode::Transcript).unwrap();
        assert_eq!(
            ring.dropped, 0,
            "{}: fixture overflowed the default flight capacity",
            scenario.name
        );
        assert_eq!(
            ring_result, result,
            "{}: the recorder moved the result",
            scenario.name
        );

        let undigested: Vec<_> = transcript
            .events
            .iter()
            .filter(|e| e.kind != FlightKind::Digest)
            .copied()
            .collect();
        assert_eq!(
            ring.events, undigested,
            "{}: the ring is not the transcript less its digests",
            scenario.name
        );
        let count = |kind| transcript.events.iter().filter(|e| e.kind == kind).count();
        assert_eq!(
            count(FlightKind::Digest),
            count(FlightKind::Deliver),
            "{}: one digest per handled delivery",
            scenario.name
        );

        assert_eq!(
            trace_of(scenario, &result, &transcript).to_json_string(),
            committed,
            "{}: the projection drifted from the committed fixture",
            scenario.name
        );
    }
}

#[test]
fn flight_recordings_are_timer_aware_and_roundtrip_canonically() {
    // Beyond the frame events, a lossy fixture's flight holds the
    // timer-level story the golden trace omits — and the whole
    // recording survives its canonical JSON byte-for-byte.
    let scenario = corpus()
        .into_iter()
        .find(|s| s.name == "sw-loss")
        .expect("corpus names are stable");
    let (_, flight) = record_flight(&scenario, RING).unwrap();
    let counts = flight.kind_counts();
    let of = |k: FlightKind| {
        counts
            .iter()
            .find(|(kind, _)| *kind == k)
            .map_or(0, |(_, n)| *n)
    };
    assert!(of(FlightKind::TimerSet) > 0, "ARQ arms timers");
    assert!(of(FlightKind::Drop) > 0, "lossy fixture drops frames");
    assert!(
        of(FlightKind::ArqTimeout) > 0 && of(FlightKind::Retransmit) > 0,
        "drops must surface as protocol-level timeout + retransmit events"
    );

    let json = flight.to_json_string();
    let back = FlightRecording::from_json_str(&json).expect("canonical JSON parses");
    assert_eq!(back.to_json_string(), json, "roundtrip is byte-stable");
    assert_eq!(back.events, flight.events);
    assert_eq!(
        (back.capacity, back.recorded),
        (flight.capacity, flight.recorded)
    );
}

#[test]
fn both_stop_and_wait_engines_record_the_same_flight() {
    // Golden projections keep only frame events, so the fixtures alone
    // cannot tell whether the compiled-FSM sender reports its timeouts
    // and retransmissions; the ring recordings must match in full.
    let mut compared = 0;
    for scenario in corpus().iter().filter(|s| s.protocol.name == STOP_AND_WAIT) {
        let [typestate, compiled] = [FsmPath::Typestate, FsmPath::Compiled].map(|fsm_path| {
            let engine = EngineConfig {
                fsm_path,
                ..scenario.protocol.engine()
            };
            record_flight(&with_combo(scenario, engine), RING).unwrap()
        });
        assert_eq!(typestate.0, compiled.0, "{}: results differ", scenario.name);
        assert_eq!(
            typestate.1.events, compiled.1.events,
            "{}: the FSM paths record different flights",
            scenario.name
        );
        compared += 1;
    }
    assert!(compared > 0, "the corpus has stop-and-wait fixtures");
}
