//! The metric registry's totals after a fixed campaign, value for
//! value.
//!
//! The simulator, the ARQ endpoints, the RTO estimator and the batch
//! driver all feed the process-wide registry. However they feed it —
//! one update per event, or one per simulator — a snapshot taken after
//! the same sessions must read the same: every counter present with
//! the same value, and `sim.frame_bytes` with the same count, sum and
//! buckets. The constants below were printed by the per-event
//! implementation.
//!
//! The campaign runs twice: solo (`Campaign::run` through
//! `SuiteDriver`), then batched (`run_streaming` through
//! `MultiSessionDriver`), with `reset_all` between them. It covers
//! every suite protocol, the compiled control FSM, both retransmission
//! policies where valid, a clean and an impaired link, and each fault
//! family. The registry is process-global, so this binary holds one
//! test.

use netdsl::campaign::{Campaign, StreamOptions, Sweep};
use netdsl::netsim::LinkConfig;
use netdsl::obs::{reset_all, set_metrics_enabled, snapshot, HistogramSnapshot, MetricsSnapshot};
use netdsl::protocols::multiplex::MultiSessionDriver;
use netdsl::protocols::scenario::{
    SuiteDriver, BASELINE, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT,
};
use netdsl::scenario::{
    EngineConfig, Fault, FaultDirection, FaultNode, FsmPath, ProtocolSpec, RetransmitPolicy,
    TrafficPattern,
};

const ADAPTIVE: RetransmitPolicy = RetransmitPolicy::AdaptiveRto {
    min_rto: 4,
    max_rto: 2_000,
};

/// Every suite protocol under each policy it accepts: the compiled FSM
/// and the baseline run fixed timers only.
fn protocols() -> Sweep<ProtocolSpec> {
    let sw = ProtocolSpec::new(STOP_AND_WAIT)
        .with_timeout(60)
        .with_retries(30);
    let gbn = ProtocolSpec::new(GO_BACK_N)
        .with_window(4)
        .with_timeout(80)
        .with_retries(30);
    let sr = ProtocolSpec::new(SELECTIVE_REPEAT)
        .with_window(4)
        .with_timeout(80)
        .with_retries(30);
    let compiled = EngineConfig {
        fsm_path: FsmPath::Compiled,
        ..EngineConfig::default()
    };
    Sweep::grid([
        ("sw", sw.clone()),
        ("sw-adaptive", sw.clone().with_retransmit(ADAPTIVE)),
        ("sw-fsm", sw.with_engine(compiled)),
        ("gbn4", gbn.clone()),
        ("gbn4-adaptive", gbn.with_retransmit(ADAPTIVE)),
        ("sr4", sr.clone()),
        ("sr4-adaptive", sr.with_retransmit(ADAPTIVE)),
        (
            "base",
            ProtocolSpec::new(BASELINE)
                .with_timeout(60)
                .with_retries(30),
        ),
    ])
}

/// One fault plan per family, each scheduled in every scenario of its
/// campaign.
fn fault_plans() -> Vec<(&'static str, Vec<Fault>)> {
    vec![
        ("none", vec![]),
        (
            "crash-a",
            vec![
                Fault::crash(20, FaultNode::A),
                Fault::restart(200, FaultNode::A),
            ],
        ),
        (
            "crash-b",
            vec![
                Fault::crash(20, FaultNode::B),
                Fault::restart(200, FaultNode::B),
            ],
        ),
        (
            "flap",
            vec![Fault::flap(
                30,
                FaultDirection::Forward,
                LinkConfig::lossy(1, 1.0),
                100,
                150,
                2,
            )],
        ),
        (
            "burst",
            vec![Fault::burst(
                30,
                FaultDirection::Both,
                LinkConfig::reliable(3).with_corrupt(0.6),
                200,
            )],
        ),
        ("skew", vec![Fault::clock_skew(25, FaultNode::A, 5, 4)]),
    ]
}

fn campaigns() -> Vec<Campaign> {
    fault_plans()
        .into_iter()
        .map(|(label, faults)| {
            let campaign = Campaign::new(format!("metrics-{label}"), 0x3E7)
                .protocols(protocols())
                .links(Sweep::grid([
                    ("clean", LinkConfig::reliable(3)),
                    (
                        "impaired",
                        LinkConfig::lossy(3, 0.1)
                            .with_corrupt(0.05)
                            .with_duplicate(0.05)
                            .with_jitter(4),
                    ),
                ]))
                .traffic(Sweep::single("six", TrafficPattern::messages(6, 24)))
                .seeds(Sweep::seeds(3))
                .deadline(1_000_000);
            faults.into_iter().fold(campaign, Campaign::fault)
        })
        .collect()
}

/// Every counter of `snap` with its value, and its one histogram.
fn assert_snapshot(
    arm: &str,
    snap: &MetricsSnapshot,
    counters: &[(&str, u64)],
    frame_bytes: (u64, u64, &[(u32, u64)]),
) {
    let got: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .map(|(n, v)| (n.as_str(), *v))
        .collect();
    assert_eq!(got, counters, "{arm}: counters");
    let (count, sum, buckets) = frame_bytes;
    let want = HistogramSnapshot {
        name: "sim.frame_bytes".to_string(),
        count,
        sum,
        buckets: buckets.to_vec(),
    };
    assert_eq!(snap.histograms, [want], "{arm}: histograms");
}

const SOLO_COUNTERS: &[(&str, u64)] = &[
    ("arq.frames_rejected", 810),
    ("arq.retransmissions", 615),
    ("arq.rto_backoffs", 545),
    ("arq.timeouts", 631),
    ("fault.injected", 398),
    ("sim.frames_corrupted", 235),
    ("sim.frames_delivered", 5468),
    ("sim.frames_dropped", 666),
    ("sim.frames_sent", 5958),
    ("sim.timers_cancelled", 1601),
    ("sim.timers_fired", 1732),
    ("sim.timers_set", 3373),
];

/// The solo counts plus the batch driver's own session counter.
const BATCH_COUNTERS: &[(&str, u64)] = &[
    ("arq.frames_rejected", 810),
    ("arq.retransmissions", 615),
    ("arq.rto_backoffs", 545),
    ("arq.timeouts", 631),
    ("fault.injected", 398),
    ("mux.sessions_run", 288),
    ("sim.frames_corrupted", 235),
    ("sim.frames_delivered", 5468),
    ("sim.frames_dropped", 666),
    ("sim.frames_sent", 5958),
    ("sim.timers_cancelled", 1601),
    ("sim.timers_fired", 1732),
    ("sim.timers_set", 3373),
];

/// `sim.frame_bytes` as `(count, sum, buckets)`, the same for both
/// arms (bucket `k > 0` counts sizes in `[2^(k-1), 2^k)`).
const FRAME_BYTES: (u64, u64, &[(u32, u64)]) = (5958, 123_966, &[(2, 868), (3, 1176), (5, 3914)]);

#[test]
fn a_fixed_campaign_publishes_the_same_counts_solo_and_batched() {
    set_metrics_enabled(true);
    let campaigns = campaigns();

    reset_all();
    for c in &campaigns {
        let report = c.run(&SuiteDriver::new(), 2);
        assert_eq!(report.errors().count(), 0, "{}", c.name());
    }
    let solo = snapshot();

    reset_all();
    let opts = StreamOptions {
        chunk: 16,
        raw_cap: 64,
    };
    for c in &campaigns {
        let report = c.run_streaming(&MultiSessionDriver::new(), 2, opts);
        assert_eq!(report.errors, 0, "{}", c.name());
    }
    let batched = snapshot();
    set_metrics_enabled(false);

    assert_snapshot("solo", &solo, SOLO_COUNTERS, FRAME_BYTES);
    assert_snapshot("batched", &batched, BATCH_COUNTERS, FRAME_BYTES);
}
