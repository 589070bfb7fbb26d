//! Golden-trace parity suite: the committed corpus under
//! `tests/golden/` is the behavioural contract of the whole engine.
//!
//! Every fixture is replayed under the **full engine-axis product** —
//! [`EngineConfig::all`]: `FramePath` (compiled / interpreted) ×
//! `FsmPath` (typestate / compiled), 4 combinations — and each
//! supported combination must reproduce the committed transcript
//! **byte-for-byte**: same events at the same ticks, same wire bytes,
//! same verdicts, same endpoint-state digests, same serialized JSON.
//! Combinations a protocol refuses (a compiled control FSM exists only
//! for stop-and-wait) must refuse loudly, not fall back silently. The recorder is the solo driver's own run. The
//! batch path runs each session exactly as the solo driver does, on one
//! simulator reset between sessions: the whole corpus also runs as one
//! [`MultiSessionDriver`] batch against solo results, and a 10k-session
//! streaming campaign must be bit-identical across worker-thread
//! counts.
//!
//! A property test widens the net beyond the committed corpus: random
//! small scenarios across all four protocols and random impairments
//! must also transcribe identically across every supported combo. And
//! because campaign workers record from worker threads, recording must
//! be thread-independent too.
//!
//! Regenerating after an intentional behaviour change:
//! `cargo run -p netdsl-tools --bin golden` (CI runs `--check`).

use std::path::PathBuf;

use proptest::prelude::*;

use netdsl::campaign::{BatchDriver, Campaign, StreamOptions, Sweep};
use netdsl::netsim::{FlightKind, FlightMode, GoldenTrace, LinkConfig};
use netdsl::obs::DEFAULT_FLIGHT_CAPACITY;
use netdsl::protocols::golden::{corpus, record, record_flight, with_combo};
use netdsl::protocols::multiplex::MultiSessionDriver;
use netdsl::protocols::scenario::{BASELINE, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT};
use netdsl::scenario::{
    EngineConfig, FaultAction, FaultDirection, FaultPlan, FramePath, FsmPath, ProtocolSpec,
    Scenario, ScenarioDriver, TrafficPattern,
};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Only stop-and-wait has a compiled control FSM; everything else must
/// refuse `FsmPath::Compiled`.
fn supported(scenario: &Scenario, config: EngineConfig) -> bool {
    config.fsm_path == FsmPath::Typestate || scenario.protocol.name == STOP_AND_WAIT
}

#[test]
fn corpus_spans_every_protocol_and_impairment() {
    let fixtures = corpus();
    assert!(
        fixtures.len() >= 12,
        "corpus must stay ≥ 12 fixtures, has {}",
        fixtures.len()
    );
    for protocol in ["sw", "gbn", "sr", "baseline"] {
        for impairment in ["loss", "corrupt", "dup", "reorder"] {
            assert!(
                fixtures
                    .iter()
                    .any(|s| s.name == format!("{protocol}-{impairment}")),
                "corpus lost {protocol}-{impairment}"
            );
        }
    }
}

#[test]
fn committed_corpus_replays_byte_identically_under_every_engine_combo() {
    let fixtures = corpus();
    let combos = EngineConfig::all();
    assert_eq!(combos.len(), 4, "2 frame paths × 2 FSM paths");
    for scenario in &fixtures {
        let path = fixture_path(&scenario.name);
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: committed fixture unreadable ({e}); \
                 run `cargo run -p netdsl-tools --bin golden`",
                path.display()
            )
        });
        let parsed = GoldenTrace::from_json_str(&committed)
            .unwrap_or_else(|e| panic!("{}: fixture does not parse: {e}", scenario.name));
        assert_eq!(parsed.name, scenario.name, "fixture name matches its file");
        assert_eq!(
            parsed.to_json_string(),
            committed,
            "{}: committed fixture is not in canonical serialization",
            scenario.name
        );

        for &combo in &combos {
            let variant = with_combo(scenario, combo);
            if supported(scenario, combo) {
                let replay = record(&variant).unwrap_or_else(|e| {
                    panic!(
                        "{} under [{}]: recording failed: {e}",
                        scenario.name,
                        combo.label()
                    )
                });
                assert_eq!(
                    replay.to_json_string(),
                    committed,
                    "{} under [{}]: transcript drifted from the committed fixture",
                    scenario.name,
                    combo.label()
                );
            } else {
                assert!(
                    record(&variant).is_err(),
                    "{} under [{}]: must refuse loudly, not fall back",
                    scenario.name,
                    combo.label()
                );
            }
        }
    }
}

#[test]
fn every_fixture_fault_lands_on_its_scheduled_tick() {
    // Faults are queue events: every expanded action of a fault-bearing
    // fixture lands while the transfer still runs, and its flight
    // events (one per mutated link or node, detail = action kind) carry
    // the tick the action was scheduled for.
    let mut carrying = 0;
    for scenario in corpus() {
        let plan = FaultPlan::from_scenario(&scenario);
        if plan.is_empty() {
            continue;
        }
        carrying += 1;
        let due: Vec<(u64, u64)> = plan
            .actions
            .iter()
            .flat_map(|planned| match &planned.action {
                FaultAction::Link { direction, .. } => {
                    vec![(planned.at, 1); 1 + usize::from(*direction == FaultDirection::Both)]
                }
                FaultAction::Crash(_) => vec![(planned.at, 2)],
                FaultAction::Restart(_) => vec![(planned.at, 3)],
                FaultAction::ClockSkew { .. } => vec![(planned.at, 4)],
            })
            .collect();
        let (_, flight) =
            record_flight(&scenario, FlightMode::Ring(DEFAULT_FLIGHT_CAPACITY)).unwrap();
        assert_eq!(
            flight.dropped, 0,
            "{}: flight ring overflowed",
            scenario.name
        );
        let landed: Vec<(u64, u64)> = flight
            .events
            .iter()
            .filter(|e| e.kind == FlightKind::Fault)
            .map(|e| (e.at, e.detail))
            .collect();
        assert_eq!(landed, due, "{}: faults off their ticks", scenario.name);
    }
    assert_eq!(carrying, 6, "fault-bearing fixtures");
}

#[test]
fn batched_fixture_corpus_matches_solo_results() {
    // The whole corpus as ONE batch of sessions sharing a simulator:
    // every per-scenario result must equal the standalone driver's.
    let fixtures = corpus();
    let solo = netdsl::protocols::scenario::SuiteDriver::new();
    let batched = MultiSessionDriver::new().run_batch(&fixtures);
    for (scenario, got) in fixtures.iter().zip(batched) {
        let want = solo.run(scenario).unwrap();
        assert_eq!(
            got.unwrap(),
            want,
            "{}: batched session diverges from the solo run",
            scenario.name
        );
    }
}

#[test]
fn recording_is_identical_across_threads() {
    // Campaign workers record from worker threads; the transcript must
    // not depend on which thread does the recording.
    let scenario = corpus()
        .into_iter()
        .find(|s| s.name == "gbn-reorder")
        .expect("corpus names are stable");
    let here = record(&scenario).unwrap().to_json_string();
    let moved = scenario.clone();
    let there = std::thread::spawn(move || record(&moved).unwrap().to_json_string())
        .join()
        .expect("recording thread completes");
    assert_eq!(here, there, "recording depends on the recording thread");
    // And the default-axes recording is the committed fixture.
    assert_eq!(
        here,
        std::fs::read_to_string(fixture_path("gbn-reorder")).unwrap()
    );
}

#[test]
fn streaming_ten_thousand_sessions_is_bit_identical_across_worker_counts() {
    // A 10_000-scenario campaign (4 protocols × 2 links × 1250 seeds)
    // streamed through the multiplexed driver must produce the same
    // report — every moment, every extremum, every raw sample, every
    // error string — no matter how many worker threads ran it or how
    // the chunks interleaved.
    let campaign = Campaign::new("mux-determinism", 41)
        .protocols(Sweep::grid([
            (
                "sw",
                ProtocolSpec::new(STOP_AND_WAIT)
                    .with_timeout(40)
                    .with_retries(50),
            ),
            (
                "gbn",
                ProtocolSpec::new(GO_BACK_N)
                    .with_window(4)
                    .with_timeout(60)
                    .with_retries(50),
            ),
            (
                "sr",
                ProtocolSpec::new(SELECTIVE_REPEAT)
                    .with_window(4)
                    .with_timeout(60)
                    .with_retries(50),
            ),
            (
                "base",
                ProtocolSpec::new(BASELINE)
                    .with_timeout(40)
                    .with_retries(50),
            ),
        ]))
        .links(Sweep::grid([
            ("clean", LinkConfig::reliable(2)),
            ("lossy", LinkConfig::lossy(2, 0.15)),
        ]))
        .traffic(Sweep::grid([("tiny", TrafficPattern::messages(2, 8))]))
        .seeds(Sweep::seeds(1250));
    assert_eq!(campaign.scenario_count(), 10_000);

    let driver = MultiSessionDriver::new();
    let opts = StreamOptions {
        chunk: 512,
        raw_cap: 2048,
    };
    let reference = campaign.run_streaming(&driver, 1, opts);
    assert_eq!(reference.executed, 10_000);
    assert!(
        reference.succeeded > 9_000,
        "tiny transfers overwhelmingly succeed, got {}",
        reference.succeeded
    );
    for threads in [2, 8] {
        let report = campaign.run_streaming(&driver, threads, opts);
        assert_eq!(
            report, reference,
            "streaming report differs at {threads} worker threads"
        );
    }
    // Chunk geometry changes which sessions share a simulator, but
    // never any per-scenario result, and every sample is folded in
    // expansion order whatever the chunks: the report is identical.
    let rechunked = campaign.run_streaming(
        &driver,
        4,
        StreamOptions {
            chunk: 640,
            raw_cap: 2048,
        },
    );
    assert_eq!(rechunked, reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The parity property behind the corpus, over scenarios nobody
    /// hand-picked: any small scenario, any seed, any mix of loss and
    /// corruption — every supported engine combo produces the same
    /// serialized transcript, and unsupported combos refuse.
    #[test]
    fn engine_axes_never_change_the_transcript(
        protocol_idx in 0usize..4,
        loss_pct in 0u32..30,
        corrupt_pct in 0u32..15,
        messages in 2usize..6,
        seed in 0u64..10_000,
    ) {
        let (protocol, window, timeout) = [
            (STOP_AND_WAIT, 1u32, 60u64),
            (GO_BACK_N, 4, 100),
            (SELECTIVE_REPEAT, 4, 100),
            (BASELINE, 1, 60),
        ][protocol_idx];
        let link = LinkConfig::lossy(2, f64::from(loss_pct) / 100.0)
            .with_corrupt(f64::from(corrupt_pct) / 100.0);
        let scenario = Scenario::new(
            ProtocolSpec::new(protocol)
                .with_window(window)
                .with_timeout(timeout)
                .with_retries(200),
            link,
        )
        .with_name(format!("prop-{protocol_idx}-{loss_pct}-{corrupt_pct}-{seed}"))
        .with_traffic(TrafficPattern::messages(messages, 8))
        .with_seed(seed)
        .with_deadline(100_000);

        let mut reference: Option<String> = None;
        let mut replayed = 0usize;
        for combo in EngineConfig::all() {
            let variant = with_combo(&scenario, combo);
            if supported(&scenario, combo) {
                let text = record(&variant).unwrap().to_json_string();
                match &reference {
                    Some(first) => prop_assert_eq!(
                        first, &text,
                        "combo [{}] diverged on {}", combo.label(), scenario.name
                    ),
                    None => reference = Some(text),
                }
                replayed += 1;
            } else {
                prop_assert!(
                    record(&variant).is_err(),
                    "combo [{}] must refuse {}", combo.label(), scenario.name
                );
            }
        }
        let expected = if protocol == STOP_AND_WAIT { 4 } else { 2 };
        prop_assert_eq!(replayed, expected, "supported-combo count");
    }
}

// Also used as a free sanity anchor: FramePath and FsmPath appear in
// `EngineConfig::all()`; reference them so the import list stays honest.
#[test]
fn engine_combo_axes_cover_both_values_of_every_axis() {
    let combos = EngineConfig::all();
    for frame in [FramePath::Interpreted, FramePath::Compiled] {
        assert!(combos.iter().any(|c| c.frame_path == frame));
    }
    for fsm in [FsmPath::Typestate, FsmPath::Compiled] {
        assert!(combos.iter().any(|c| c.fsm_path == fsm));
    }
}

/// FNV-1a over every field of every result of a grid the fixtures miss,
/// in order. Recorded once; a change that moves any session's counters,
/// ticks or link statistics moves it.
const RESULTS_DIGEST: u64 = 0x8625_7305_8243_0df4;

/// The grid: stop-and-wait on both FSM paths, go-back-N and selective
/// repeat with window 8, and the baseline × both frame paths × fixed and
/// adaptive retransmission (where the protocol has it) × an impaired
/// and a clean link × no fault, a receiver and a sender crash-restart, a
/// flap and a burst × one 8-byte message, 40 × 300 B (past the 251-byte
/// payload period) and 300 × 16 B (message index past 251).
fn results_grid() -> Vec<Scenario> {
    use netdsl::scenario::{Fault, FaultNode, RetransmitPolicy};
    let adaptive = RetransmitPolicy::AdaptiveRto {
        min_rto: 4,
        max_rto: 2_000,
    };
    let mut protocols = Vec::new();
    for frame_path in [FramePath::Compiled, FramePath::Interpreted] {
        let engine = |fsm_path| EngineConfig {
            frame_path,
            fsm_path,
            ..EngineConfig::default()
        };
        let typestate = engine(FsmPath::Typestate);
        let sw = ProtocolSpec::new(STOP_AND_WAIT).with_timeout(60);
        let gbn = ProtocolSpec::new(GO_BACK_N)
            .with_window(8)
            .with_timeout(120);
        let sr = ProtocolSpec::new(SELECTIVE_REPEAT)
            .with_window(8)
            .with_timeout(120);
        for spec in [sw.clone(), gbn, sr] {
            protocols.push(spec.clone().with_engine(typestate));
            protocols.push(spec.with_engine(typestate).with_retransmit(adaptive));
        }
        protocols.push(sw.with_engine(engine(FsmPath::Compiled)));
        protocols.push(
            ProtocolSpec::new(BASELINE)
                .with_timeout(60)
                .with_engine(typestate),
        );
    }
    let links = [
        LinkConfig::reliable(3)
            .with_loss(0.1)
            .with_jitter(6)
            .with_duplicate(0.05)
            .with_corrupt(0.05),
        LinkConfig::reliable(3),
    ];
    let crash = |node| vec![Fault::crash(40, node), Fault::restart(90, node)];
    let faults = [
        vec![],
        crash(FaultNode::B),
        crash(FaultNode::A),
        vec![Fault::flap(
            20,
            FaultDirection::Forward,
            LinkConfig::lossy(1, 1.0),
            60,
            40,
            2,
        )],
        vec![Fault::burst(
            30,
            FaultDirection::Both,
            LinkConfig::reliable(3).with_corrupt(0.8),
            100,
        )],
    ];
    let traffic = [
        TrafficPattern::messages(1, 8),
        TrafficPattern::messages(40, 300),
        TrafficPattern::messages(300, 16),
    ];
    let mut grid = Vec::new();
    for protocol in &protocols {
        for link in &links {
            for schedule in &faults {
                for pattern in traffic {
                    let scenario = Scenario::new(protocol.clone().with_retries(40), link.clone())
                        .with_traffic(pattern)
                        .with_seed(1_000 + grid.len() as u64)
                        .with_deadline(2_000_000);
                    grid.push(
                        schedule
                            .iter()
                            .fold(scenario, |s, f| s.with_fault(f.clone())),
                    );
                }
            }
        }
    }
    grid
}

#[test]
fn results_over_the_wide_grid_keep_their_digest() {
    use netdsl::netsim::golden::Digest;
    let grid = results_grid();
    assert_eq!(grid.len(), 480);
    let solo = netdsl::protocols::scenario::SuiteDriver::new();
    let batched = MultiSessionDriver::new().run_batch(&grid);
    let mut digest = Digest::new();
    for (scenario, got) in grid.iter().zip(batched) {
        let r = solo.run(scenario).unwrap();
        assert_eq!(
            got.unwrap(),
            r,
            "{}: batch diverges from solo",
            scenario.name
        );
        digest = digest
            .u64(r.success as u64)
            .u64(r.elapsed)
            .u64(r.messages_offered)
            .u64(r.messages_delivered)
            .u64(r.payload_bytes)
            .u64(r.frames_sent)
            .u64(r.retransmissions)
            .u64(r.link.sent)
            .u64(r.link.delivered)
            .u64(r.link.lost)
            .u64(r.link.duplicated)
            .u64(r.link.corrupted);
    }
    let digest = digest.finish();
    assert_eq!(
        digest, RESULTS_DIGEST,
        "a session's results moved: {digest:#018x}"
    );
}
