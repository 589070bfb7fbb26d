//! Adaptive retransmission (RFC 6298 SRTT/RTTVAR + Karn + backoff) and
//! the fault engine, end to end: the `RetransmitPolicy` axis must be
//! deterministic across both drivers, the fault kinds must land
//! identically solo and multiplexed — each grid runs as one batch whose
//! sessions share a simulator — and the invariant monitor must hold
//! over the whole grid.
//!
//! Estimator-level properties (bound clamping, Karn's discard, backoff
//! reset on a clean sample) are unit-tested in `netdsl-adapt`; this
//! suite checks the same behaviours *through the protocol stack*.

use netdsl::netsim::campaign::BatchDriver;
use netdsl::netsim::check_result;
use netdsl::netsim::LinkConfig;
use netdsl::protocols::multiplex::MultiSessionDriver;
use netdsl::protocols::scenario::{SuiteDriver, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT};
use netdsl::scenario::{
    EngineConfig, Fault, FaultDirection, FaultNode, FsmPath, ProtocolSpec, RetransmitPolicy,
    Scenario, ScenarioDriver, ScenarioResult, TrafficPattern,
};

const ADAPTIVE: RetransmitPolicy = RetransmitPolicy::AdaptiveRto {
    min_rto: 4,
    max_rto: 2_000,
};

fn scenario(protocol: &str, policy: RetransmitPolicy) -> Scenario {
    Scenario::new(
        ProtocolSpec::new(protocol)
            .with_window(4)
            .with_timeout(90)
            .with_retries(200)
            .with_retransmit(policy),
        LinkConfig::lossy(3, 0.2),
    )
    .with_name(format!("adaptive-rto/{protocol}"))
    .with_traffic(TrafficPattern::messages(12, 16))
    .with_seed(0xADA)
    .with_deadline(1_000_000)
}

/// Runs every scenario of `grid` solo and the whole grid as **one**
/// multiplexed batch, whose sessions share a simulator; asserts the two
/// agree scenario by scenario and returns the results.
fn solo_and_batched(grid: &[Scenario]) -> Vec<ScenarioResult> {
    let batched = MultiSessionDriver::new().run_batch(grid);
    grid.iter()
        .zip(batched)
        .map(|(s, mux)| {
            let solo = SuiteDriver::new().run(s).expect("valid scenario");
            assert_eq!(
                solo,
                mux.expect("valid scenario"),
                "{}: solo vs batched",
                s.name
            );
            solo
        })
        .collect()
}

#[test]
fn adaptive_runs_are_bit_identical_across_drivers() {
    let grid: Vec<Scenario> = [STOP_AND_WAIT, GO_BACK_N, SELECTIVE_REPEAT]
        .into_iter()
        .map(|protocol| scenario(protocol, ADAPTIVE))
        .collect();
    for (s, r) in grid.iter().zip(solo_and_batched(&grid)) {
        assert!(r.success, "{}: {r:?}", s.name);
        check_result(s, &r).assert_ok(&s.name);
    }
}

#[test]
fn failed_sessions_report_their_last_event_solo_and_batched() {
    // Sessions that can never finish (the sender gave up, the receiver
    // is still waiting) leave cancelled timers queued after their last
    // event. Those are not events of the session: `elapsed` is the tick
    // of its last dispatched event, solo and batched alike.
    let probe = |protocol: &str, policy, seed| {
        Scenario::new(
            ProtocolSpec::new(protocol)
                .with_window(4)
                .with_timeout(40)
                .with_retries(3)
                .with_retransmit(policy),
            LinkConfig::lossy(3, 0.3),
        )
        .with_name(format!("elapsed/{protocol}/{seed}"))
        .with_traffic(TrafficPattern::messages(8, 8))
        .with_seed(seed)
    };
    let grid = [
        probe(STOP_AND_WAIT, ADAPTIVE, 5),
        probe(SELECTIVE_REPEAT, RetransmitPolicy::Fixed, 16),
        scenario(GO_BACK_N, RetransmitPolicy::Fixed),
    ];
    let results = solo_and_batched(&grid);
    assert!(!results[0].success && !results[1].success);
    assert_eq!((results[0].elapsed, results[1].elapsed), (1188, 172));
}

#[test]
fn adaptive_runs_are_reproducible() {
    let s = scenario(SELECTIVE_REPEAT, ADAPTIVE);
    let a = SuiteDriver::new().run(&s).unwrap();
    let b = SuiteDriver::new().run(&s).unwrap();
    assert_eq!(a, b, "same seed, same result — the estimator is pure");
}

#[test]
fn adaptive_beats_fixed_when_the_timeout_undershoots_the_rtt() {
    // Delay 30 each way ⇒ RTT 60, timer armed at 30: the fixed arm
    // spuriously retransmits (nearly) every frame; Karn + backoff let
    // the adaptive arm escape and the estimator then learns the RTT.
    let cell = |policy| {
        let s = Scenario::new(
            ProtocolSpec::new(STOP_AND_WAIT)
                .with_timeout(30)
                .with_retries(200)
                .with_retransmit(policy),
            LinkConfig::reliable(30),
        )
        .with_traffic(TrafficPattern::messages(24, 16))
        .with_seed(3)
        .with_deadline(1_000_000);
        SuiteDriver::new().run(&s).unwrap()
    };
    let fixed = cell(RetransmitPolicy::Fixed);
    let adaptive = cell(ADAPTIVE);
    assert!(fixed.success && adaptive.success);
    assert!(
        adaptive.retransmissions * 4 < fixed.retransmissions,
        "adaptive {} vs fixed {}",
        adaptive.retransmissions,
        fixed.retransmissions
    );
}

#[test]
fn backed_off_failure_is_bounded_by_the_rto_cap() {
    // A crashed receiver that never comes back dooms the transfer; the
    // sender must exhaust its retry budget and report a clean failure
    // within retries × max_rto — the cap is what makes doomed senders
    // terminate long before an uncapped exponential would.
    let s = Scenario::new(
        ProtocolSpec::new(STOP_AND_WAIT)
            .with_timeout(80)
            .with_retries(20)
            .with_retransmit(ADAPTIVE),
        LinkConfig::reliable(3),
    )
    .with_traffic(TrafficPattern::messages(4, 16))
    .with_seed(11)
    .with_deadline(1_000_000)
    .with_fault(Fault::crash(10, FaultNode::B));
    let r = SuiteDriver::new().run(&s).unwrap();
    assert!(!r.success, "no receiver, no success");
    assert!(
        r.elapsed <= 21 * 2_000,
        "retry budget × RTO cap bounds the failure, got {}",
        r.elapsed
    );
    check_result(&s, &r).assert_ok("bounded failure");
}

#[test]
fn every_fault_kind_lands_identically_solo_and_multiplexed() {
    let plans: Vec<(&str, Vec<Fault>)> = vec![
        (
            "crash-restart",
            vec![
                Fault::crash(20, FaultNode::B),
                Fault::restart(400, FaultNode::B),
            ],
        ),
        (
            "flap",
            vec![Fault::flap(
                30,
                FaultDirection::Forward,
                LinkConfig::lossy(1, 1.0),
                150,
                250,
                2,
            )],
        ),
        (
            "skew",
            vec![
                Fault::link(10, FaultDirection::Forward, LinkConfig::lossy(3, 0.25)),
                Fault::clock_skew(25, FaultNode::A, 5, 4),
            ],
        ),
        (
            "burst",
            vec![Fault::burst(
                30,
                FaultDirection::Both,
                LinkConfig::reliable(3).with_corrupt(0.6),
                300,
            )],
        ),
    ];
    let mut grid = Vec::new();
    for (label, faults) in plans {
        for protocol in [STOP_AND_WAIT, GO_BACK_N, SELECTIVE_REPEAT] {
            for policy in [RetransmitPolicy::Fixed, ADAPTIVE] {
                let mut s = Scenario::new(
                    ProtocolSpec::new(protocol)
                        .with_window(4)
                        .with_timeout(90)
                        .with_retries(200)
                        .with_retransmit(policy),
                    LinkConfig::reliable(3),
                )
                .with_name(format!("fault-parity/{label}/{protocol}/{policy:?}"))
                .with_traffic(TrafficPattern::messages(24, 16))
                .with_seed(0xFA17)
                .with_deadline(1_000_000);
                for fault in &faults {
                    s = s.with_fault(fault.clone());
                }
                grid.push(s);
            }
        }
    }
    for (s, r) in grid.iter().zip(solo_and_batched(&grid)) {
        check_result(s, &r).assert_ok(&s.name);
    }
}

#[test]
fn a_fault_scheduled_after_the_last_event_never_lands() {
    // The transfer finishes long before the crash is due. The session
    // closes once both endpoints are done, so the queued fault is
    // discarded instead of resurrecting a finished session — also when
    // a neighbour in the batch keeps the simulator running past its
    // tick.
    let mut base = scenario(GO_BACK_N, RetransmitPolicy::Fixed);
    base.link = LinkConfig::reliable(3);
    let quiet = SuiteDriver::new().run(&base).unwrap();
    let s = base
        .clone()
        .with_fault(Fault::crash(quiet.elapsed + 1_000, FaultNode::B))
        .with_fault(Fault::restart(quiet.elapsed + 2_000, FaultNode::B));
    let mut neighbour = base.clone().with_traffic(TrafficPattern::messages(400, 16));
    neighbour.link = LinkConfig::lossy(3, 0.2);
    let results = solo_and_batched(&[s, neighbour]);
    assert_eq!(results[0], quiet, "late fault must not change the run");
    assert!(
        results[1].elapsed > quiet.elapsed + 2_000,
        "the neighbour runs past both fault boundaries"
    );
}

#[test]
fn invariant_monitor_flags_dishonest_results() {
    let s = scenario(STOP_AND_WAIT, RetransmitPolicy::Fixed);
    let mut r = SuiteDriver::new().run(&s).unwrap();
    check_result(&s, &r).assert_ok("honest result");
    r.messages_delivered -= 1;
    let report = check_result(&s, &r);
    assert!(
        !report.ok(),
        "success with missing deliveries must be flagged"
    );
}

#[test]
fn adaptive_policy_is_refused_where_it_cannot_apply() {
    use netdsl::protocols::scenario::BASELINE;
    // The hand-rolled baseline hard-codes its fixed timer.
    let s = Scenario::new(
        ProtocolSpec::new(BASELINE)
            .with_timeout(60)
            .with_retransmit(ADAPTIVE),
        LinkConfig::reliable(3),
    )
    .with_traffic(TrafficPattern::messages(4, 8));
    assert!(SuiteDriver::new().run(&s).is_err());
    // So does the compiled control-FSM engine.
    let s = Scenario::new(
        ProtocolSpec::new(STOP_AND_WAIT)
            .with_timeout(60)
            .with_engine(EngineConfig {
                fsm_path: FsmPath::Compiled,
                ..EngineConfig::default()
            })
            .with_retransmit(ADAPTIVE),
        LinkConfig::reliable(3),
    )
    .with_traffic(TrafficPattern::messages(4, 8));
    assert!(SuiteDriver::new().run(&s).is_err());
}
