//! The observability layer end to end: metric registry, flight
//! recorder, and the triage views `tools/obs_report` renders from them.
//!
//! A stop-and-wait transfer runs over a lossy link with full telemetry
//! requested via [`ObsConfig`] — the same scenario twice, once bare and
//! once instrumented, to show the results are identical (telemetry is
//! not a parity axis). Then the run's metric snapshot and flight
//! recording are printed as canonical JSON, the exact documents
//! `obs_report` consumes (see `docs/OBSERVABILITY.md`), followed by the
//! flight recording of a faulted transfer, whose fault timeline shows
//! every fault landing on its scheduled tick.
//!
//! Run with: `cargo run --example observability`

use netdsl::netsim::LinkConfig;
use netdsl::netsim::ObsConfig;
use netdsl::obs::{reset_all, snapshot, FlightKind};
use netdsl::protocols::golden::record_with_flight;
use netdsl::protocols::scenario::{SuiteDriver, STOP_AND_WAIT};
use netdsl::scenario::{
    Fault, FaultDirection, FaultNode, ProtocolSpec, Scenario, ScenarioDriver, TrafficPattern,
};

/// A small lossy transfer: enough drops for the flight recorder to have
/// a story to tell, small enough that the JSON stays readable.
fn scenario(obs: ObsConfig) -> Scenario {
    Scenario::new(
        ProtocolSpec::new(STOP_AND_WAIT)
            .with_timeout(40)
            .with_retries(50)
            .with_obs(obs),
        LinkConfig::lossy(2, 0.25),
    )
    .with_name("obs-demo")
    .with_traffic(TrafficPattern::messages(6, 16))
    .with_seed(7)
    .with_deadline(100_000)
}

/// The `sw-crash` golden fixture's transfer with a clock skew and a
/// lossy forward link added, so that one recording holds every kind of
/// fault action: the source of `tools/testdata/fault_flight.json`.
fn faulted_scenario() -> Scenario {
    Scenario::new(
        ProtocolSpec::new(STOP_AND_WAIT)
            .with_timeout(80)
            .with_retries(12),
        LinkConfig::reliable(3),
    )
    .with_name("obs-faults")
    .with_traffic(TrafficPattern::messages(6, 12))
    .with_fault(Fault::crash(15, FaultNode::B))
    .with_fault(Fault::clock_skew(60, FaultNode::A, 5, 4))
    .with_fault(Fault::restart(250, FaultNode::B))
    .with_fault(Fault::link(
        300,
        FaultDirection::Forward,
        LinkConfig::lossy(3, 0.3),
    ))
    .with_seed(140)
    .with_deadline(200_000)
}

fn main() {
    let driver = SuiteDriver::new();

    // Telemetry must never change a result: same scenario, with and
    // without the registry and recorder, bit-identical outcome.
    let bare = driver.run(&scenario(ObsConfig::off())).unwrap();
    reset_all();
    let observed = driver
        .run(&scenario(ObsConfig::off().with_metrics().with_flight()))
        .unwrap();
    assert_eq!(bare, observed, "telemetry is not a parity axis");
    println!(
        "run: {} messages delivered in {} ticks, {} retransmissions",
        observed.messages_delivered, observed.elapsed, observed.retransmissions
    );
    println!("     (identical with telemetry off — obs never changes results)\n");

    // The metric registry: every engine and protocol counter the run
    // touched, merged across threads, sorted by name.
    let snap = snapshot();
    println!("metric snapshot ({} counters):", snap.counters.len());
    for (name, value) in &snap.counters {
        println!("  {name:<24} {value}");
    }
    for h in &snap.histograms {
        println!(
            "  {:<24} count {} sum {} mean {:.1}",
            h.name,
            h.count,
            h.sum,
            h.mean()
        );
    }

    // The flight recorder: a bounded ring of tick-stamped engine and
    // protocol events, captured per simulator.
    let (_, flight) = record_with_flight(&scenario(ObsConfig::off())).unwrap();
    println!(
        "\nflight recording: {} events (capacity {}, dropped {}):",
        flight.events.len(),
        flight.capacity,
        flight.dropped
    );
    for (kind, count) in flight.kind_counts() {
        if count > 0 {
            println!("  {:<12} {count}", kind.as_str());
        }
    }
    let timeouts = flight
        .events
        .iter()
        .filter(|e| e.kind == FlightKind::ArqTimeout)
        .count();
    println!("\nfirst 8 events of the wire story ({timeouts} ARQ timeouts total):");
    for e in flight.events.iter().take(8) {
        println!(
            "  t={:<4} {:<12} subject={} detail={}",
            e.at,
            e.kind.as_str(),
            e.subject,
            e.detail
        );
    }

    // Faults are queue events: each lands on the tick it was scheduled
    // for, before any frame or timer due on that tick.
    let (_, faulted) = record_with_flight(&faulted_scenario()).unwrap();
    println!("\nfault events of a crash/skew/restart/link-fault transfer:");
    for e in faulted
        .events
        .iter()
        .filter(|e| e.kind == FlightKind::Fault)
    {
        println!("  t={:<4} subject={} detail={}", e.at, e.subject, e.detail);
    }

    // The canonical JSON documents `tools/obs_report` renders — dumped
    // between markers so scripts can slice them out.
    println!("\n--- metrics.json ---");
    print!("{}", snap.to_json_string());
    println!("--- flight.json ---");
    print!("{}", flight.to_json_string());
    println!("--- fault_flight.json ---");
    print!("{}", faulted.to_json_string());
    println!("--- end ---");
}
