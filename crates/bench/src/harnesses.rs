//! Campaign builders shared by the harness mains and the test suite.
//!
//! The campaign-style experiments (E4 goodput, E8 timers, E9 trust
//! routing, E11 campaign throughput) define their sweeps here so that
//! the bench binaries and `tests/campaign.rs` construct the *same*
//! campaigns. Each builder takes `quick: bool` (the bench mains pass
//! [`report::quick()`](crate::report::quick)) and obeys one contract:
//! **quick mode changes workload sizes, never axis labels** — the
//! scenario label sets of `xx_campaign(true)` and `xx_campaign(false)`
//! are identical, so `BENCH_QUICK=1` artifacts stay comparable
//! cell-for-cell with full-depth ones.

use netdsl_netsim::campaign::{Campaign, Sweep};
use netdsl_netsim::scenario::{
    EngineConfig, FramePath, ProtocolSpec, TopologySpec, TrafficPattern,
};
use netdsl_netsim::LinkConfig;
use netdsl_protocols::scenario::{GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT};

use crate::adaptive_arq::adaptive_stop_and_wait;
use crate::campaign_drivers::{FIXED_PATH, RANDOM_PATH, TRUST_LEARNING};
use crate::workload;

/// Picks `full` or `small` by mode — the builders' only quick/full knob.
fn pick(quick: bool, full: usize, small: usize) -> usize {
    if quick {
        small
    } else {
        full
    }
}

/// Protocol-axis labels of [`e4_campaign`], in column order.
pub const E4_PROTOCOLS: [&str; 5] = ["SW", "GBN w=4", "GBN w=8", "SR w=8", "SR w=16"];

/// E4 — ARQ goodput vs loss: protocols × loss grid × 3 seed
/// replicates. Quick mode shrinks the per-scenario transfer from 60 to
/// 12 messages.
pub fn e4_campaign(quick: bool) -> Campaign {
    let messages = pick(quick, 60, 12);
    let protocols = Sweep::grid([
        (
            E4_PROTOCOLS[0],
            ProtocolSpec::new(STOP_AND_WAIT)
                .with_timeout(150)
                .with_retries(200),
        ),
        (
            E4_PROTOCOLS[1],
            ProtocolSpec::new(GO_BACK_N)
                .with_window(4)
                .with_timeout(150)
                .with_retries(400),
        ),
        (
            E4_PROTOCOLS[2],
            ProtocolSpec::new(GO_BACK_N)
                .with_window(8)
                .with_timeout(150)
                .with_retries(400),
        ),
        (
            E4_PROTOCOLS[3],
            ProtocolSpec::new(SELECTIVE_REPEAT)
                .with_window(8)
                .with_timeout(150)
                .with_retries(400),
        ),
        (
            E4_PROTOCOLS[4],
            ProtocolSpec::new(SELECTIVE_REPEAT)
                .with_window(16)
                .with_timeout(150)
                .with_retries(400),
        ),
    ]);
    let links = Sweep::grid(
        workload::loss_sweep()
            .into_iter()
            .map(|p| (format!("{p:.2}"), LinkConfig::lossy(10, p))),
    );
    Campaign::new("e4-goodput", 0xE4)
        .protocols(protocols)
        .links(links)
        .traffic(Sweep::single(
            "msgs",
            TrafficPattern::messages(messages, 64),
        ))
        .seeds(Sweep::seeds(3))
        .deadline(500_000_000)
}

/// Protocol-axis labels of [`e8_campaign`], in column order.
pub const E8_PROTOCOLS: [&str; 4] = ["fixed 30", "fixed 150", "fixed 600", "adaptive"];

/// Link delays swept by [`e8_campaign`] (RTT = 2·delay).
pub const E8_DELAYS: [u64; 3] = [5, 30, 75];

/// Loss rates swept by [`e8_campaign`].
pub const E8_LOSSES: [f64; 2] = [0.0, 0.1];

/// E8 — fixed vs adaptive retransmission timers across delay × loss,
/// every cell the suite's stop-and-wait sender: the adaptive one is
/// [`adaptive_stop_and_wait`] from an initial RTO of 150 ticks.
/// Quick mode shrinks the transfer from 40 to 10 messages.
pub fn e8_campaign(quick: bool) -> Campaign {
    let messages = pick(quick, 40, 10);
    let fixed = |t: u64| {
        ProtocolSpec::new(STOP_AND_WAIT)
            .with_timeout(t)
            .with_retries(400)
    };
    Campaign::new("e8-timers", 0xE8)
        .protocols(
            Sweep::grid([
                (E8_PROTOCOLS[0], fixed(30)),
                (E8_PROTOCOLS[1], fixed(150)),
                (E8_PROTOCOLS[2], fixed(600)),
            ])
            .and(E8_PROTOCOLS[3], adaptive_stop_and_wait(150, 400)),
        )
        .links(Sweep::grid(E8_DELAYS.into_iter().flat_map(|delay| {
            E8_LOSSES.into_iter().map(move |loss| {
                (
                    format!("delay {delay}, loss {loss}"),
                    LinkConfig::lossy(delay, loss),
                )
            })
        })))
        .traffic(Sweep::single(
            "msgs",
            TrafficPattern::messages(messages, 32),
        ))
        .seeds(Sweep::seeds(1))
        .deadline(500_000_000)
}

/// Disjoint relay paths in the [`e9_campaign`] topology.
pub const E9_PATHS: usize = 4;

/// Relays per path in the [`e9_campaign`] topology.
pub const E9_HOPS: usize = 2;

/// Protocol-axis labels of [`e9_campaign`], in column order.
pub const E9_PROTOCOLS: [&str; 3] = ["trust", "random", "fixed"];

/// E9 — trust routing over compromised relays: path-selection policy ×
/// compromise level × 3 seed replicates. Quick mode shrinks the session
/// from 300 to 100 rounds (still enough for the ε-greedy learner to
/// separate from random selection).
pub fn e9_campaign(quick: bool) -> Campaign {
    let rounds = pick(quick, 300, 100);
    Campaign::new("e9-trust", 0xE9)
        .protocols(Sweep::grid([
            (E9_PROTOCOLS[0], ProtocolSpec::new(TRUST_LEARNING)),
            (E9_PROTOCOLS[1], ProtocolSpec::new(RANDOM_PATH)),
            (E9_PROTOCOLS[2], ProtocolSpec::new(FIXED_PATH)),
        ]))
        .links(Sweep::single("relay-net", LinkConfig::reliable(1)))
        .topologies(Sweep::grid((0..=E9_PATHS).map(|k| {
            (
                format!("k={k}"),
                TopologySpec::ParallelPaths {
                    paths: E9_PATHS,
                    hops: E9_HOPS,
                    compromised: k,
                },
            )
        })))
        .traffic(Sweep::single("rounds", TrafficPattern::messages(rounds, 8)))
        .seeds(Sweep::seeds(3))
}

/// E11 — the campaign-throughput workload: a protocol × link sweep
/// sized to exercise the simulator hot path (payload moves, heap
/// churn, per-cell stats merging) rather than any protocol claim.
/// Quick mode shrinks the per-scenario transfer from 48 to 10 messages.
pub fn e11_campaign(quick: bool) -> Campaign {
    let messages = pick(quick, 48, 10);
    Campaign::new("e11-throughput", 0xE11)
        .protocols(Sweep::grid([
            ("sw", ProtocolSpec::new(STOP_AND_WAIT).with_retries(400)),
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
            ("lossy", LinkConfig::lossy(3, 0.15)),
            (
                "noisy",
                LinkConfig::reliable(3).with_corrupt(0.1).with_jitter(4),
            ),
        ]))
        .traffic(Sweep::single(
            "msgs",
            TrafficPattern::messages(messages, 256),
        ))
        .seeds(Sweep::seeds(3))
}

/// E12 — end-to-end frame-path comparison: the suite protocols with
/// the codec path fixed per campaign (interpreted vs compiled), over
/// clean and lossy links. Quick mode shrinks the per-scenario transfer
/// from 64×256 B to 16×64 B messages; axes (incl. the 4 seed
/// replicates) are identical across modes and across paths, so the two
/// campaigns are comparable cell-for-cell.
pub fn e12_campaign(quick: bool, path: FramePath) -> Campaign {
    let messages = pick(quick, 64, 16);
    let size = pick(quick, 256, 64);
    let engine = EngineConfig {
        frame_path: path,
        ..EngineConfig::default()
    };
    Campaign::new(format!("e12-{}", path.as_str()), 0xE12)
        .protocols(Sweep::grid([
            (
                "gbn8",
                ProtocolSpec::new(GO_BACK_N)
                    .with_window(8)
                    .with_timeout(120)
                    .with_retries(400)
                    .with_engine(engine),
            ),
            (
                "sr8",
                ProtocolSpec::new(SELECTIVE_REPEAT)
                    .with_window(8)
                    .with_timeout(120)
                    .with_retries(400)
                    .with_engine(engine),
            ),
        ]))
        .links(Sweep::grid([
            ("clean", LinkConfig::reliable(2)),
            ("lossy", LinkConfig::lossy(2, 0.1)),
        ]))
        .traffic(Sweep::single(
            "bulk",
            TrafficPattern::messages(messages, size),
        ))
        .seeds(Sweep::seeds(4))
}

/// E13 — the simulation-core campaign: the suite protocols on the
/// compiled frame path, so codec cost is minimal and engine cost
/// (payload arena, timer wheel, pump) dominates. Quick mode shrinks the
/// per-scenario transfer from 48 to 12 messages but keeps the 512 B
/// payload size, so the per-frame cost profile stays representative.
pub fn e13_campaign(quick: bool) -> Campaign {
    let messages = pick(quick, 48, 12);
    let size = 512;
    let engine = EngineConfig {
        frame_path: FramePath::Compiled,
        ..EngineConfig::default()
    };
    let proto = move |name: &str, window: u32| {
        ProtocolSpec::new(name)
            .with_window(window)
            .with_timeout(150)
            .with_retries(400)
            .with_engine(engine)
    };
    Campaign::new("e13", 0xE13)
        .protocols(Sweep::grid([
            ("sw", proto(STOP_AND_WAIT, 1)),
            ("gbn8", proto(GO_BACK_N, 8)),
            ("sr8", proto(SELECTIVE_REPEAT, 8)),
        ]))
        .links(Sweep::grid([
            ("clean", LinkConfig::reliable(3)),
            ("lossy", LinkConfig::lossy(3, 0.15)),
        ]))
        .traffic(Sweep::single(
            "bulk",
            TrafficPattern::messages(messages, size),
        ))
        .seeds(Sweep::seeds(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick-mode contract: workloads shrink, labels do not.
    #[test]
    fn quick_mode_preserves_scenario_labels() {
        for (name, builder) in [
            ("e4", e4_campaign as fn(bool) -> Campaign),
            ("e8", e8_campaign),
            ("e9", e9_campaign),
            ("e11", e11_campaign),
            ("e12-interpreted", |q| {
                e12_campaign(q, FramePath::Interpreted)
            }),
            ("e12-compiled", |q| e12_campaign(q, FramePath::Compiled)),
            ("e13", e13_campaign),
        ] {
            let full = builder(false).scenarios();
            let quick = builder(true).scenarios();
            assert_eq!(full.len(), quick.len(), "{name}: scenario counts");
            for (f, q) in full.iter().zip(&quick) {
                assert_eq!(f.name, q.name, "{name}: scenario names");
                assert_eq!(f.labels, q.labels, "{name}: axis labels");
                assert_eq!(f.seed, q.seed, "{name}: derived seeds");
            }
        }
    }

    #[test]
    fn e8_adaptive_cells_complete_on_the_suite_driver() {
        // The adaptive cell is the suite's stop-and-wait sender under
        // AdaptiveRto: it completes every delay × loss cell, and on a
        // clean link whose RTT its initial RTO covers it never
        // retransmits.
        use netdsl_netsim::scenario::ScenarioDriver;
        use netdsl_protocols::scenario::SuiteDriver;
        let campaign = e8_campaign(true);
        let adaptive: Vec<_> = campaign
            .scenarios()
            .into_iter()
            .filter(|s| s.labels.protocol == E8_PROTOCOLS[3])
            .collect();
        assert_eq!(adaptive.len(), E8_DELAYS.len() * E8_LOSSES.len());
        for s in &adaptive {
            let r = SuiteDriver::new().run(s).unwrap();
            assert!(r.success, "{}: {r:?}", s.name);
            if s.link.loss == 0.0 && 2 * s.link.delay < 150 {
                assert_eq!(r.retransmissions, 0, "{}", s.name);
            }
        }
    }

    #[test]
    fn quick_mode_shrinks_workloads() {
        for builder in [e4_campaign, e8_campaign, e9_campaign, e11_campaign] {
            let full = builder(false).scenarios();
            let quick = builder(true).scenarios();
            assert!(quick[0].traffic.count < full[0].traffic.count);
        }
    }
}
