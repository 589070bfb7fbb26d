//! Flight-recorder parity suite: the flight recorder rides the exact
//! hook sites of the golden-trace capture, so for every committed
//! fixture the recorder's frame-level subsequence (`Send` / `Drop` /
//! `Corrupt` / `Deliver`) must mirror the golden transcript's
//! `Sent` / `Lost` / `Corrupted` / `Delivered` events one-for-one —
//! same order, same ticks, same link, same byte counts. And because
//! telemetry is **not** a parity axis, recording a flight must leave
//! the golden transcript byte-identical to the committed fixture.

use std::path::PathBuf;

use netdsl::netsim::{FlightKind, GoldenEventKind};
use netdsl::obs::FlightRecording;
use netdsl::protocols::golden::{corpus, record_with_flight};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// The golden kind each frame-level flight kind mirrors (`None` for
/// protocol- and timer-level kinds the golden transcript never records).
fn golden_twin(kind: FlightKind) -> Option<GoldenEventKind> {
    match kind {
        FlightKind::Send => Some(GoldenEventKind::Sent),
        FlightKind::Drop => Some(GoldenEventKind::Lost),
        FlightKind::Corrupt => Some(GoldenEventKind::Corrupted),
        FlightKind::Deliver => Some(GoldenEventKind::Delivered),
        _ => None,
    }
}

#[test]
fn flight_frame_events_mirror_every_committed_fixture() {
    for scenario in &corpus() {
        let committed = std::fs::read_to_string(fixture_path(&scenario.name)).unwrap();
        let (trace, flight) = record_with_flight(scenario).unwrap();
        assert_eq!(
            trace.to_json_string(),
            committed,
            "{}: installing a flight recorder changed the transcript",
            scenario.name
        );
        assert_eq!(
            flight.dropped, 0,
            "{}: fixture overflowed the default flight capacity",
            scenario.name
        );

        let frame_events: Vec<_> = flight
            .events
            .iter()
            .filter(|e| golden_twin(e.kind).is_some())
            .collect();
        assert_eq!(
            frame_events.len(),
            trace.events.len(),
            "{}: flight frame-event count diverges from the golden trace",
            scenario.name
        );
        for (flight_ev, golden_ev) in frame_events.iter().zip(&trace.events) {
            assert_eq!(
                golden_twin(flight_ev.kind),
                Some(golden_ev.kind),
                "{}: event kind order diverges at tick {}",
                scenario.name,
                golden_ev.at
            );
            assert_eq!(
                flight_ev.at, golden_ev.at,
                "{}: {:?} recorded at the wrong tick",
                scenario.name, golden_ev.kind
            );
            assert_eq!(
                flight_ev.subject, golden_ev.link as u64,
                "{}: {:?} attributed to the wrong link",
                scenario.name, golden_ev.kind
            );
            if matches!(flight_ev.kind, FlightKind::Send | FlightKind::Deliver) {
                assert_eq!(
                    flight_ev.detail,
                    golden_ev.bytes.len() as u64,
                    "{}: {:?} byte count diverges",
                    scenario.name,
                    golden_ev.kind
                );
            }
        }
    }
}

#[test]
fn flight_recordings_are_timer_aware_and_roundtrip_canonically() {
    // Beyond the frame mirror, a lossy fixture's flight holds the
    // timer-level story the golden trace omits — and the whole
    // recording survives its canonical JSON byte-for-byte.
    let scenario = corpus()
        .into_iter()
        .find(|s| s.name == "sw-loss")
        .expect("corpus names are stable");
    let (_, flight) = record_with_flight(&scenario).unwrap();
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
