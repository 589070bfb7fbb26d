//! Failure injection: partitions, repairs, crashes, asymmetric
//! impairments and adversarial frames, across the protocol suite.
//!
//! End states are expressed declaratively through the scenario layer
//! ([`Scenario`] + [`Fault`] schedules run by [`SuiteDriver`]); where a
//! test must see *when* something happened, the flight recording of the
//! same run shows it.

use netdsl::campaign::BatchDriver;
use netdsl::netsim::{FlightKind, FlightMode, LinkConfig, Simulator};
use netdsl::protocols::arq;
use netdsl::protocols::golden::record_flight;
use netdsl::protocols::multiplex::MultiSessionDriver;
use netdsl::protocols::scenario::{SuiteDriver, BASELINE, STOP_AND_WAIT};
use netdsl::scenario::{
    EngineConfig, Fault, FaultDirection, FaultNode, FsmPath, ProtocolSpec, Scenario,
    ScenarioDriver, ScenarioResult, TrafficPattern,
};

/// Runs `scenario` solo and as a one-session batch, asserts the two
/// agree, and returns the result.
fn solo_and_batched(scenario: &Scenario) -> ScenarioResult {
    let solo = SuiteDriver::new().run(scenario).unwrap();
    let batched = MultiSessionDriver::new().run_batch(std::slice::from_ref(scenario));
    assert_eq!(batched[0].as_ref().unwrap(), &solo, "solo vs batched");
    solo
}

/// Stop-and-wait over a clean delay-3 link with `faults` scheduled: the
/// first frame reaches B at tick 3.
fn clean_sw(faults: &[Fault]) -> Scenario {
    faults.iter().fold(
        Scenario::new(
            ProtocolSpec::new(STOP_AND_WAIT)
                .with_timeout(40)
                .with_retries(10),
            LinkConfig::reliable(3),
        )
        .with_traffic(TrafficPattern::messages(3, 8))
        .with_seed(3),
        |s, f| s.with_fault(f.clone()),
    )
}

#[test]
fn transfer_survives_a_temporary_partition() {
    // Two scheduled link faults: both directions die at tick 10, right
    // after the session starts, and are repaired at 5 000.
    // Retransmission carries the session across the outage.
    let scenario = Scenario::new(
        ProtocolSpec::new(STOP_AND_WAIT)
            .with_timeout(60)
            .with_retries(1000),
        LinkConfig::reliable(3),
    )
    .with_traffic(TrafficPattern::messages(10, 4))
    .with_seed(5)
    .with_fault(Fault::link(
        10,
        FaultDirection::Both,
        LinkConfig::lossy(3, 1.0),
    ))
    .with_fault(Fault::link(
        5_000,
        FaultDirection::Both,
        LinkConfig::reliable(3),
    ));
    let r = solo_and_batched(&scenario);
    assert!(r.success, "repair lets the session complete: {r:?}");
    assert_eq!(r.messages_delivered, 10);
    assert!(r.elapsed > 5_000, "cannot finish while partitioned");
    assert!(r.link.lost > 0, "frames sent during the outage die");
}

#[test]
fn a_crash_lands_before_the_frame_delivered_on_its_tick() {
    // B crashes at tick 3, the tick the first frame reaches it. The
    // fault was queued before the session started, so it pops first
    // and the frame dies: B never delivers anything.
    let scenario = clean_sw(&[Fault::crash(3, FaultNode::B)]);
    let r = solo_and_batched(&scenario);
    assert!(!r.success, "{r:?}");
    assert_eq!(r.messages_delivered, 0);
    assert_eq!(r.link.delivered, 0, "every frame to B dies");
}

#[test]
fn crash_and_restart_one_tick_apart_kill_the_frame_in_flight() {
    // B crashes at 1 and restarts at 2, while the first frame to it is
    // due at 3. Each fault lands on its tick, so the frame, queued
    // before the crash, dies; B comes back empty and takes the
    // retransmission instead.
    let scenario = clean_sw(&[
        Fault::crash(1, FaultNode::B),
        Fault::restart(2, FaultNode::B),
    ]);
    let r = solo_and_batched(&scenario);
    assert!(r.success, "the restarted receiver completes: {r:?}");
    assert_eq!(r.link.lost, 1, "the frame in flight died with the crash");
    assert_eq!(r.retransmissions, 1);
    let (_, flight) = record_flight(&scenario, FlightMode::Transcript).unwrap();
    let story: Vec<(u64, FlightKind)> = flight
        .events
        .iter()
        .filter(|e| matches!(e.kind, FlightKind::Fault | FlightKind::Drop))
        .map(|e| (e.at, e.kind))
        .collect();
    assert_eq!(
        story,
        [
            (1, FlightKind::Fault),
            (2, FlightKind::Fault),
            (3, FlightKind::Drop)
        ]
    );
}

#[test]
fn a_crash_restart_lands_alike_on_every_stop_and_wait_implementation() {
    // Either node crashes and restarts, mid-transfer or before it
    // starts, on a clean and a lossy link. Every stop-and-wait
    // implementation resets on restart, so the compiled-FSM sender
    // replays the typestate one exactly, and the baseline, which keeps
    // no counters of its own, matches it on everything it observes.
    let compiled = EngineConfig {
        fsm_path: FsmPath::Compiled,
        ..EngineConfig::default()
    };
    let mut cases = 0;
    for node in [FaultNode::A, FaultNode::B] {
        for link in [LinkConfig::reliable(3), LinkConfig::lossy(3, 0.2)] {
            for (crash, restart) in [(1, 2), (40, 90), (15, 250)] {
                for seed in 1..=6 {
                    let scenario = |protocol: ProtocolSpec| {
                        Scenario::new(protocol.with_timeout(40).with_retries(30), link.clone())
                            .with_traffic(TrafficPattern::messages(8, 12))
                            .with_fault(Fault::crash(crash, node))
                            .with_fault(Fault::restart(restart, node))
                            .with_seed(seed)
                    };
                    let sw = ProtocolSpec::new(STOP_AND_WAIT);
                    let typestate = solo_and_batched(&scenario(sw.clone()));
                    let fsm = solo_and_batched(&scenario(sw.with_engine(compiled)));
                    let case = format!("{node:?} {crash}/{restart} seed {seed} on {link:?}");
                    assert_eq!(fsm, typestate, "compiled FSM, {case}");
                    let c = solo_and_batched(&scenario(ProtocolSpec::new(BASELINE)));
                    assert_eq!(
                        (c.success, c.messages_delivered, c.elapsed, c.link),
                        (
                            typestate.success,
                            typestate.messages_delivered,
                            typestate.elapsed,
                            typestate.link
                        ),
                        "baseline, {case}"
                    );
                    cases += usize::from(typestate.success);
                }
            }
        }
    }
    assert!(cases > 0, "some restarted session completes");
}

#[test]
fn asymmetric_loss_only_acks_dropped() {
    // Data flows cleanly; every impairment falls on the ack path. The
    // sender must retransmit, and the receiver must suppress the
    // resulting duplicates. Declarative: a Reverse-direction fault at
    // tick 0 turns the duplex link asymmetric.
    let scenario = Scenario::new(
        ProtocolSpec::new(STOP_AND_WAIT).with_timeout(60),
        LinkConfig::reliable(3),
    )
    .with_traffic(TrafficPattern::messages(8, 12))
    .with_seed(6)
    .with_fault(Fault::link(
        0,
        FaultDirection::Reverse,
        LinkConfig::lossy(3, 0.5),
    ));
    let r = SuiteDriver::new().run(&scenario).unwrap();
    assert!(r.success, "{r:?}");
    assert_eq!(r.messages_delivered, 8, "duplicates suppressed");
    assert!(r.retransmissions > 0, "lost acks must force retransmission");
}

#[test]
fn adversarial_garbage_frames_are_inert() {
    // A hostile third party injects random garbage at the receiver; the
    // declarative validation must reject all of it and the session must
    // still complete untainted.
    let mut sim = Simulator::new(9);
    let a = sim.add_node();
    let b = sim.add_node();
    let ab = sim.add_link(a, b, LinkConfig::reliable(1));
    // Garbage of every length 0..64, plus near-valid frames with a bad
    // checksum.
    for len in 0..64usize {
        sim.send(ab, vec![0x5A; len]);
    }
    let mut near = arq::ArqFrame::Data {
        seq: 0,
        payload: b"evil".to_vec(),
    }
    .encode();
    near[2] ^= 0xFF; // break the checksum
    sim.send(ab, near);

    // Pump manually: every delivery goes to the receiver.
    while let Some(ev) = sim.step() {
        if let netdsl::netsim::Event::Frame { payload, .. } = ev {
            assert!(
                arq::ArqFrame::decode(&payload).is_err(),
                "garbage {payload:?} must not decode"
            );
        }
    }
}

#[test]
fn extreme_jitter_reordering_is_survivable() {
    let scenario = Scenario::new(
        ProtocolSpec::new(STOP_AND_WAIT)
            .with_timeout(200)
            .with_retries(100),
        LinkConfig::reliable(2).with_jitter(40),
    )
    .with_traffic(TrafficPattern::messages(15, 10))
    .with_seed(11)
    .with_deadline(50_000_000);
    let r = SuiteDriver::new().run(&scenario).unwrap();
    assert!(r.success, "{r:?}");
    assert_eq!(r.messages_delivered, 15);
}

/// The worst-case channel, applied identically to the DSL ARQ and the
/// hand-rolled baseline via one scenario shape — the declarative layer
/// makes the pairing explicit.
fn worst_case(protocol: &str) -> Scenario {
    Scenario::new(
        ProtocolSpec::new(protocol)
            .with_timeout(250)
            .with_retries(500),
        LinkConfig::reliable(4)
            .with_loss(0.25)
            .with_corrupt(0.15)
            .with_duplicate(0.15)
            .with_jitter(20),
    )
    .with_traffic(TrafficPattern::messages(12, 16))
    .with_seed(17)
}

#[test]
fn combined_worst_case_channel() {
    let r = SuiteDriver::new().run(&worst_case(STOP_AND_WAIT)).unwrap();
    assert!(r.success, "{r:?}");
    assert_eq!(r.messages_delivered, 12);
}

#[test]
fn baseline_survives_the_same_worst_case() {
    let r = SuiteDriver::new().run(&worst_case(BASELINE)).unwrap();
    assert!(r.success, "{r:?}");
    assert_eq!(r.messages_delivered, 12);
}

#[test]
fn zero_length_and_max_length_payloads() {
    let weird = vec![Vec::new(), vec![0xFF; 1024], Vec::new(), vec![0x00; 512]];
    let out = arq::session::run_transfer(
        weird.clone(),
        LinkConfig::lossy(2, 0.2),
        19,
        80,
        50,
        50_000_000,
    );
    assert!(out.success);
    assert_eq!(out.delivered, weird);
}
