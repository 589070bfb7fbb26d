//! Integration suite for the declarative campaign layer: determinism
//! under parallelism, the acceptance sweep (3 protocols × 3 links ×
//! 4 seeds on ≥ 2 threads), failure injection expressed as data, and
//! the `BENCH_QUICK` contract (quick mode shrinks workloads, never the
//! sweep grid) plus the campaign → benchmark-report bridge.

use proptest::prelude::*;

use netdsl::bench::harnesses;
use netdsl::bench::report::BenchReport;
use netdsl::campaign::{Campaign, Sweep};
use netdsl::netsim::LinkConfig;
use netdsl::protocols::scenario::{
    SuiteDriver, BASELINE, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT,
};
use netdsl::scenario::{
    Fault, FaultDirection, ProtocolSpec, Scenario, ScenarioDriver, TrafficPattern,
};

/// The acceptance-criteria campaign: ≥ 3 protocols × ≥ 3 link
/// conditions × ≥ 4 seeds from one definition.
fn acceptance_campaign(base_seed: u64) -> Campaign {
    Campaign::new("acceptance", base_seed)
        .protocols(Sweep::grid([
            ("sw", ProtocolSpec::new(STOP_AND_WAIT)),
            (
                "gbn8",
                ProtocolSpec::new(GO_BACK_N)
                    .with_window(8)
                    .with_retries(400),
            ),
            (
                "sr8",
                ProtocolSpec::new(SELECTIVE_REPEAT)
                    .with_window(8)
                    .with_retries(400),
            ),
        ]))
        .links(Sweep::grid([
            ("clean", LinkConfig::reliable(3)),
            ("lossy", LinkConfig::lossy(3, 0.2)),
            ("harsh", LinkConfig::harsh(3)),
        ]))
        .traffic(Sweep::single("12x24", TrafficPattern::messages(12, 24)))
        .seeds(Sweep::seeds(4))
}

#[test]
fn acceptance_sweep_runs_and_parallel_matches_sequential() {
    let campaign = acceptance_campaign(99);
    assert_eq!(campaign.scenarios().len(), 36, "3 × 3 × 4");

    let driver = SuiteDriver::new();
    let parallel = campaign.run(&driver, 2);
    let sequential = campaign.run(&driver, 1);
    assert_eq!(
        parallel, sequential,
        "2-thread report bit-identical to 1-thread"
    );

    let agg = parallel.aggregate();
    assert_eq!(agg.runs, 36);
    assert_eq!(agg.errors, 0);
    assert_eq!(agg.succeeded, 36, "every cell completes its transfer");
    assert!(agg.goodput.min() > 0.0);

    // Aggregate percentile queries agree across the two reports too.
    let (p, s) = (parallel.aggregate(), sequential.aggregate());
    for q in [0.0, 25.0, 50.0, 95.0, 100.0] {
        assert_eq!(p.goodput.percentile(q), s.goodput.percentile(q));
        assert_eq!(p.latency.percentile(q), s.latency.percentile(q));
        assert_eq!(p.retransmits.percentile(q), s.retransmits.percentile(q));
    }
}

#[test]
fn campaign_reruns_are_bit_identical() {
    let campaign = acceptance_campaign(7);
    let driver = SuiteDriver::new();
    assert_eq!(campaign.run(&driver, 3), campaign.run(&driver, 3));
}

#[test]
fn arena_recycling_never_changes_campaign_reports() {
    // Campaign workers recycle one payload arena (and timer wheel) per
    // thread across scenarios; the first run starts cold, every later
    // run on the same threads starts warm. Same seeds must still give
    // byte-identical reports — slot reuse is invisible to results.
    let campaign = acceptance_campaign(41);
    let driver = SuiteDriver::new();
    let cold = campaign.run(&driver, 2);
    for rerun in 0..3 {
        assert_eq!(
            cold,
            campaign.run(&driver, 2),
            "warm-arena rerun {rerun} diverged"
        );
    }
    // And a differently-threaded warm run still matches.
    assert_eq!(cold, campaign.run(&driver, 1));
}

#[test]
fn frame_paths_produce_identical_campaign_reports() {
    // The compiled codec and the reference interpreter are behaviourally
    // identical; a whole campaign — faults, duplication, corruption,
    // jitter included — must come out bit-for-bit the same on both.
    use netdsl::scenario::{EngineConfig, FramePath};
    let with_path = |frame_path: FramePath| {
        let engine = EngineConfig {
            frame_path,
            ..EngineConfig::default()
        };
        acceptance_campaign(23)
            .protocols(Sweep::grid([
                ("sw", ProtocolSpec::new(STOP_AND_WAIT).with_engine(engine)),
                (
                    "gbn8",
                    ProtocolSpec::new(GO_BACK_N)
                        .with_window(8)
                        .with_retries(400)
                        .with_engine(engine),
                ),
                (
                    "sr8",
                    ProtocolSpec::new(SELECTIVE_REPEAT)
                        .with_window(8)
                        .with_retries(400)
                        .with_engine(engine),
                ),
            ]))
            .fault(Fault::partition(400))
            .fault(Fault::repair(2_000, 3))
    };
    let driver = SuiteDriver::new();
    let compiled = with_path(FramePath::Compiled).run(&driver, 2);
    let interpreted = with_path(FramePath::Interpreted).run(&driver, 2);
    // The reports differ only in the protocol specs they carry (the
    // frame_path value); results must be identical cell-for-cell.
    assert_eq!(compiled.runs.len(), interpreted.runs.len());
    for (c, i) in compiled.runs.iter().zip(&interpreted.runs) {
        assert_eq!(c.scenario.name, i.scenario.name);
        assert_eq!(
            c.outcome, i.outcome,
            "{} diverged across frame paths",
            c.scenario.name
        );
    }
}

#[test]
fn common_random_numbers_across_protocols() {
    // Scenarios differing only on non-seed axes share a derived seed, so
    // every protocol faces the same channel randomness per replicate.
    let scenarios = acceptance_campaign(3).scenarios();
    for a in &scenarios {
        for b in &scenarios {
            if a.labels.seed == b.labels.seed {
                assert_eq!(a.seed, b.seed, "{} vs {}", a.name, b.name);
            } else {
                assert_ne!(a.seed, b.seed, "{} vs {}", a.name, b.name);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole determinism property: for any base seed and thread
    /// count, a campaign with fixed seeds produces a bit-identical
    /// report — parallelism must never leak into results.
    #[test]
    fn campaign_determinism_under_parallelism(
        base_seed in 0u64..10_000,
        threads in 2usize..6,
    ) {
        let campaign = Campaign::new("prop", base_seed)
            .protocols(
                Sweep::single("sw", ProtocolSpec::new(STOP_AND_WAIT).with_timeout(40))
                    .and("base", ProtocolSpec::new(BASELINE).with_timeout(40)),
            )
            .links(Sweep::grid([
                ("lossy", LinkConfig::lossy(2, 0.25)),
                ("noisy", LinkConfig::reliable(2).with_corrupt(0.2).with_jitter(6)),
            ]))
            .traffic(Sweep::single("6x8", TrafficPattern::messages(6, 8)))
            .seeds(Sweep::seeds(2));
        let driver = SuiteDriver::new();
        let multi = campaign.run(&driver, threads);
        let single = campaign.run(&driver, 1);
        prop_assert_eq!(multi, single);
    }
}

#[test]
fn quick_and_full_mode_share_scenario_labels() {
    // The BENCH_QUICK contract: quick mode shrinks workloads and
    // measurement budgets, never the sweep grid — every harness
    // campaign expands to the same scenario names, axis labels and
    // derived seeds in both modes, so BENCH_*.json artifacts stay
    // comparable cell-for-cell across modes.
    for (name, builder) in [
        ("e4", harnesses::e4_campaign as fn(bool) -> Campaign),
        ("e8", harnesses::e8_campaign),
        ("e9", harnesses::e9_campaign),
        ("e11", harnesses::e11_campaign),
    ] {
        let full = builder(false).scenarios();
        let quick = builder(true).scenarios();
        assert_eq!(full.len(), quick.len(), "{name}: grid size");
        for (f, q) in full.iter().zip(&quick) {
            assert_eq!(f.name, q.name, "{name}: scenario name");
            assert_eq!(f.labels, q.labels, "{name}: axis labels");
            assert_eq!(f.seed, q.seed, "{name}: derived seed");
            assert!(
                q.traffic.count <= f.traffic.count,
                "{name}: quick workloads never grow"
            );
        }
    }
}

#[test]
fn campaign_reports_roundtrip_through_the_bench_schema() {
    // A campaign run converted to the benchmark-report schema survives
    // serialize → parse unchanged — what CI's bench-smoke job gates on.
    let run = acceptance_campaign(11).run(&SuiteDriver::new(), 2);
    let report = BenchReport::from_campaign("acceptance", "acceptance sweep", &run);
    assert_eq!(
        report.metrics.len(),
        3 * 3 * 5,
        "3 protocols × 3 links × 5 metric kinds"
    );
    assert!(
        report
            .metrics
            .iter()
            .filter(|m| m.name == "goodput")
            .all(|m| m.samples.len() == 4),
        "one goodput sample per seed replicate"
    );
    let parsed = BenchReport::from_json_str(&report.to_json_string()).unwrap();
    assert_eq!(parsed, report);
}

#[test]
fn failure_injection_expressed_declaratively() {
    // The imperative partition/repair test from tests/failure_injection.rs
    // as pure data: a partition 50 ticks in, repaired at tick 5000.
    let scenario = Scenario::new(
        ProtocolSpec::new(STOP_AND_WAIT)
            .with_timeout(60)
            .with_retries(1000),
        LinkConfig::reliable(3),
    )
    .with_traffic(TrafficPattern::messages(10, 16))
    .with_seed(5)
    .with_fault(Fault::partition(50))
    .with_fault(Fault::repair(5_000, 3));

    let result = SuiteDriver::new().run(&scenario).unwrap();
    assert!(
        result.success,
        "repair lets the session complete: {result:?}"
    );
    assert!(result.elapsed > 5_000, "completion only after the repair");
    assert!(result.retransmissions > 0, "the outage forced retries");
}

#[test]
fn declarative_fault_campaign_sweeps_protocols_through_an_outage() {
    // Every protocol in the suite survives the same declarative outage.
    let campaign = Campaign::new("outage", 41)
        .protocols(Sweep::grid([
            ("sw", ProtocolSpec::new(STOP_AND_WAIT).with_retries(1000)),
            (
                "gbn4",
                ProtocolSpec::new(GO_BACK_N)
                    .with_window(4)
                    .with_retries(1000),
            ),
            (
                "sr4",
                ProtocolSpec::new(SELECTIVE_REPEAT)
                    .with_window(4)
                    .with_retries(1000),
            ),
            ("baseline", ProtocolSpec::new(BASELINE).with_retries(1000)),
        ]))
        .links(Sweep::single("clean", LinkConfig::reliable(3)))
        .traffic(Sweep::single("8x16", TrafficPattern::messages(8, 16)))
        .seeds(Sweep::seeds(2))
        .fault(Fault::partition(40))
        .fault(Fault::repair(4_000, 3));

    let report = campaign.run(&SuiteDriver::new(), 2);
    let agg = report.aggregate();
    assert_eq!(agg.runs, 8);
    assert_eq!(agg.succeeded, 8, "all protocols ride out the partition");
}

#[test]
fn asymmetric_fault_hits_only_the_ack_path() {
    let scenario = Scenario::new(
        ProtocolSpec::new(STOP_AND_WAIT).with_timeout(60),
        LinkConfig::reliable(3),
    )
    .with_traffic(TrafficPattern::messages(8, 16))
    .with_seed(6)
    .with_fault(Fault::link(
        0,
        FaultDirection::Reverse,
        LinkConfig::lossy(3, 0.5),
    ));

    let result = SuiteDriver::new().run(&scenario).unwrap();
    assert!(result.success);
    assert!(
        result.retransmissions > 0,
        "lost acks must force retransmission"
    );
    assert_eq!(
        result.messages_delivered, 8,
        "duplicates suppressed at the receiver"
    );
}
