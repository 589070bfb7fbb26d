//! E17 — chaos recovery: deterministic fault campaigns × retransmission
//! policy, with the invariant monitor riding every cell.
//!
//! The fault engine (`docs/FAULTS.md`) promises three things this
//! harness turns into numbers and assertions:
//!
//! 1. **Determinism across drivers** — every cell runs twice, solo
//!    ([`SuiteDriver`]) and batched ([`MultiSessionDriver`]), and
//!    the two results must be equal field-for-field before anything is
//!    reported. Crash/restart, flap, skew and burst cells all cross
//!    this bar.
//! 2. **Safety and liveness under chaos** — `netdsl_netsim::check_result`
//!    audits every cell result: no duplicate or corrupted delivery, no
//!    dishonest success, and a repaired schedule either completes or
//!    fails its bounded retry budget before the deadline (no hangs).
//! 3. **Adaptive recovery pays** — on a misconfigured-timeout cell
//!    (fixed RTO armed *below* the path RTT) the Jacobson/Karn adaptive
//!    policy must strictly reduce retransmissions. The gated metric is
//!    `adaptive_recovery_gain` = (fixed retransmissions + 1) /
//!    (adaptive retransmissions + 1) per protocol; CI requires the
//!    committed full-depth mean ≥ 1.2 via `tools/check_bench_json
//!    --min-metric` (the observed gain is far higher).
//!
//! [`SuiteDriver`]: netdsl_protocols::scenario::SuiteDriver
//! [`MultiSessionDriver`]: netdsl_protocols::multiplex::MultiSessionDriver

use netdsl_bench::report::{self, BenchReport, Metric};
use netdsl_netsim::campaign::BatchDriver;
use netdsl_netsim::scenario::{
    Fault, FaultDirection, FaultNode, ProtocolSpec, RetransmitPolicy, Scenario, ScenarioDriver,
    ScenarioResult, TrafficPattern,
};
use netdsl_netsim::{check_result, LinkConfig};
use netdsl_protocols::multiplex::MultiSessionDriver;
use netdsl_protocols::scenario::{SuiteDriver, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT};

/// The adaptive arm: Jacobson/Karn with the initial RTO taken from each
/// spec's `timeout`. The backoff cap is chosen so the retry budget —
/// not the deadline — is what bounds a doomed sender: 300 retries ×
/// 2 000 ticks ≪ the 1M-tick cell deadline, which is exactly the
/// "bounded failure, never a hang" shape the invariant monitor audits.
/// (An earlier cap of 100 000 made the crash cells hang past their
/// deadline undecided, and the monitor rejected the whole campaign.)
const ADAPTIVE: RetransmitPolicy = RetransmitPolicy::AdaptiveRto {
    min_rto: 4,
    max_rto: 2_000,
};

/// The fault-plan grid: one family per fault kind the engine supports.
/// Every action is a queue event that lands on its tick, solo and
/// batched alike. Crash hits the receiver mid-transfer; the restart
/// comes back long before the sender's retry budget runs out.
fn fault_plans() -> Vec<(&'static str, Vec<Fault>)> {
    vec![
        ("none", vec![]),
        (
            "crash",
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
        // Skew alone is invisible on a clean link (no timer ever
        // fires), so the cell also degrades the forward path: the
        // sender's retransmission timers then run at 5/4 rate while it
        // recovers real loss.
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
    ]
}

/// The protocols with an adaptive-capable sender (the baseline and the
/// compiled FSM hard-code the fixed arm and are refused by
/// `validate_engine`, so they have no adaptive column to sweep).
fn protocols() -> Vec<(&'static str, ProtocolSpec)> {
    vec![
        (
            "sw",
            ProtocolSpec::new(STOP_AND_WAIT)
                .with_timeout(80)
                .with_retries(300),
        ),
        (
            "gbn4",
            ProtocolSpec::new(GO_BACK_N)
                .with_window(4)
                .with_timeout(120)
                .with_retries(300),
        ),
        (
            "sr4",
            ProtocolSpec::new(SELECTIVE_REPEAT)
                .with_window(4)
                .with_timeout(120)
                .with_retries(300),
        ),
    ]
}

/// Builds one cell's scenarios: a protocol × fault plan × policy triple
/// swept over `seeds` RNG streams. 32 messages keep every transfer
/// running well past the fault window (the windowed protocols clear 8
/// messages in ~12 ticks on this link — before the earliest fault), and
/// give the adaptive estimator enough fresh sends to learn from.
fn cell(
    label: &str,
    spec: &ProtocolSpec,
    link: &LinkConfig,
    faults: &[Fault],
    policy: RetransmitPolicy,
    seeds: u64,
) -> Vec<Scenario> {
    (0..seeds)
        .map(|seed| {
            let mut s = Scenario::new(spec.clone().with_retransmit(policy), link.clone())
                .with_name(format!("{label}/s{seed}"))
                .with_traffic(TrafficPattern::messages(32, 16))
                .with_seed(0xE17 + seed * 7919)
                .with_deadline(1_000_000);
            for fault in faults {
                s = s.with_fault(fault.clone());
            }
            s
        })
        .collect()
}

/// Runs one cell under both drivers, asserts solo ≡ mux per scenario,
/// audits every result with the invariant monitor, and returns the solo
/// results.
fn run_cell(scenarios: &[Scenario]) -> Vec<ScenarioResult> {
    let solo = SuiteDriver::new();
    let results: Vec<ScenarioResult> = scenarios
        .iter()
        .map(|s| solo.run(s).expect("cell scenario is valid"))
        .collect();
    let mux = MultiSessionDriver::new().run_batch(scenarios);
    for ((scenario, want), got) in scenarios.iter().zip(&results).zip(mux) {
        let got = got.expect("cell scenario is valid");
        assert_eq!(
            &got, want,
            "{}: solo and multiplexed drivers diverge under faults",
            scenario.name
        );
        check_result(scenario, &got).assert_ok(&scenario.name);
    }
    results
}

fn total_retransmissions(results: &[ScenarioResult]) -> u64 {
    results.iter().map(|r| r.retransmissions).sum()
}

fn main() {
    let quick = report::quick();
    let seeds = if quick { 2 } else { 8 };

    println!("E17: chaos recovery (fault-plan grid × retransmit policy, invariant-audited)\n");

    let mut out = BenchReport::new(
        "e17_chaos_recovery",
        "fault campaigns across retransmit policies: solo≡mux parity, invariant audit, \
         adaptive recovery gain",
    );

    // --- The chaos grid: every fault family × both policies. ---------
    let base_link = LinkConfig::reliable(3);
    let mut audited = 0usize;
    for (proto_label, spec) in protocols() {
        for (fault_label, faults) in fault_plans() {
            for (policy_label, policy) in
                [("fixed", RetransmitPolicy::Fixed), ("adaptive", ADAPTIVE)]
            {
                let label = format!("{proto_label}-{fault_label}-{policy_label}");
                let scenarios = cell(&label, &spec, &base_link, &faults, policy, seeds);
                let results = run_cell(&scenarios);
                audited += results.len();
                out.push(
                    Metric::new("retransmissions", "frames")
                        .with_axis("protocol", proto_label)
                        .with_axis("faults", fault_label)
                        .with_axis("policy", policy_label)
                        .with_samples(results.iter().map(|r| r.retransmissions as f64)),
                );
                out.push(
                    Metric::new("recovery_elapsed", "ticks")
                        .with_axis("protocol", proto_label)
                        .with_axis("faults", fault_label)
                        .with_axis("policy", policy_label)
                        .with_samples(results.iter().map(|r| r.elapsed as f64)),
                );
                let completed = results.iter().filter(|r| r.success).count();
                println!(
                    "{label:>22}: {completed}/{} completed, {} retransmissions",
                    results.len(),
                    total_retransmissions(&results),
                );
            }
        }
    }

    // --- The gated cell: a fixed RTO armed below the path RTT. -------
    // Delay 30 each way ⇒ RTT 60; the spec's timeout is 30, so the
    // fixed arm fires a spurious retransmission for (nearly) every
    // frame while the adaptive arm measures the RTT and stops. The
    // `+ 1` keeps the ratio finite when a policy retransmits nothing.
    println!();
    let misconf_link = LinkConfig::reliable(30);
    let mut gains = Vec::new();
    for (proto_label, spec) in protocols() {
        let spec = spec.with_timeout(30);
        let mut totals = [0u64; 2];
        for (k, policy) in [RetransmitPolicy::Fixed, ADAPTIVE].into_iter().enumerate() {
            let label = format!("{proto_label}-misconf-{k}");
            let scenarios = cell(&label, &spec, &misconf_link, &[], policy, seeds);
            let results = run_cell(&scenarios);
            audited += results.len();
            assert!(
                results.iter().all(|r| r.success),
                "{proto_label}: misconfigured-timeout cell must still complete"
            );
            totals[k] = total_retransmissions(&results);
        }
        let [fixed, adaptive] = totals;
        let gain = (fixed + 1) as f64 / (adaptive + 1) as f64;
        println!(
            "{proto_label:>22}: misconfigured RTO — fixed {fixed} vs adaptive {adaptive} \
             retransmissions (gain {gain:.2}×)"
        );
        gains.push((proto_label, gain));
    }
    out.push(
        Metric::new("adaptive_recovery_gain", "ratio")
            .with_axis(
                "comparison",
                "fixed vs adaptive retransmissions, RTO armed below path RTT",
            )
            .with_samples(gains.iter().map(|(_, g)| *g)),
    );

    println!(
        "\n{audited} cell results audited: solo ≡ mux, invariants clean (no duplicate or \
         corrupted delivery, no dishonest success, bounded failure before deadline)"
    );
    println!("expected shape: adaptive_recovery_gain ≫ 1 on the misconfigured cell — the");
    println!("Jacobson/Karn estimator learns the RTT the fixed timer undershoots.");

    out.write();

    // Alias artifact pinning the subsystem's acceptance path
    // (`bench-results/BENCH_E17.json`): same measurements under the
    // short id, gated by CI on `adaptive_recovery_gain`.
    let mut alias = BenchReport::new("E17", "alias of e17_chaos_recovery (fault-engine gate)");
    alias.metrics = out.metrics.clone();
    alias.write();
}
