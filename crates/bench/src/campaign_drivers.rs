//! Campaign drivers that compose crates the protocol suite cannot.
//!
//! The `protocols` and `adapt` crates deliberately do not depend on each
//! other, so the scenario driver that combines them lives here:
//! [`RelayDriver`] — source-routed relaying over parallel paths with
//! trust-learning / random / fixed path selection ([`TRUST_LEARNING`],
//! [`RANDOM_PATH`], [`FIXED_PATH`]), the E9 environment. (Adaptive
//! retransmission needs no driver of its own: it is the suite's
//! `RetransmitPolicy::AdaptiveRto`, see
//! [`adaptive_stop_and_wait`](crate::adaptive_arq::adaptive_stop_and_wait).)
//!
//! Combine it with the protocol suite through
//! [`DriverSet`](netdsl_netsim::scenario::DriverSet):
//!
//! ```
//! use netdsl_bench::campaign_drivers::RelayDriver;
//! use netdsl_netsim::scenario::DriverSet;
//! use netdsl_protocols::scenario::SuiteDriver;
//!
//! let driver = DriverSet::new().with(SuiteDriver::new()).with(RelayDriver::new());
//! ```

use netdsl_adapt::trust::{run_relay_session_over, Policy};
use netdsl_netsim::scenario::{
    Scenario, ScenarioDriver, ScenarioError, ScenarioResult, TopologySpec,
};
use netdsl_netsim::LinkStats;

/// Protocol key for ε-greedy trust-learning path selection.
pub const TRUST_LEARNING: &str = "trust-learning";
/// Protocol key for uniformly random path selection.
pub const RANDOM_PATH: &str = "random-path";
/// Protocol key for always using path 0.
pub const FIXED_PATH: &str = "fixed-path";

/// [`ScenarioDriver`] for the relay-path policies; requires a
/// [`TopologySpec::ParallelPaths`] topology, whose `compromised` count
/// selects how many paths are hostile. The scenario's link axis sets
/// the impairments of every honest link (compromised relays still
/// override their outgoing links). `traffic.count` is the number of
/// rounds; a scenario succeeds when every round's message is delivered.
/// Fault schedules are rejected — the relay session has no mid-run
/// reconfiguration hook, and silently ignoring an axis would fake sweep
/// cells.
#[derive(Debug, Default, Clone, Copy)]
pub struct RelayDriver;

impl RelayDriver {
    /// A new stateless driver.
    pub fn new() -> Self {
        RelayDriver
    }
}

impl ScenarioDriver for RelayDriver {
    fn supports(&self, protocol: &str) -> bool {
        matches!(protocol, TRUST_LEARNING | RANDOM_PATH | FIXED_PATH)
    }

    fn run(&self, scenario: &Scenario) -> Result<ScenarioResult, ScenarioError> {
        let TopologySpec::ParallelPaths {
            paths,
            hops,
            compromised,
        } = scenario.topology
        else {
            return Err(ScenarioError::UnsupportedTopology(format!(
                "relay policies need ParallelPaths, got {:?}",
                scenario.topology
            )));
        };
        let policy = match scenario.protocol.name.as_str() {
            TRUST_LEARNING => Policy::TrustLearning,
            RANDOM_PATH => Policy::Random,
            FIXED_PATH => Policy::Fixed,
            other => return Err(ScenarioError::UnknownProtocol(other.to_string())),
        };
        if !scenario.faults.is_empty() {
            return Err(ScenarioError::Unsupported(
                "relay sessions have no mid-run fault hook".into(),
            ));
        }
        let rounds = scenario.traffic.count as u64;
        let compromised: Vec<usize> = (0..compromised).collect();
        let outcome = run_relay_session_over(
            paths,
            hops,
            scenario.link.clone(),
            &compromised,
            policy,
            rounds,
            scenario.seed,
        );
        Ok(ScenarioResult {
            success: outcome.delivered == rounds,
            elapsed: outcome.elapsed,
            messages_offered: rounds,
            messages_delivered: outcome.delivered,
            payload_bytes: outcome.delivered * scenario.traffic.size as u64,
            frames_sent: outcome.sent,
            retransmissions: 0,
            link: LinkStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdsl_netsim::scenario::{DriverSet, ProtocolSpec, TrafficPattern};
    use netdsl_netsim::LinkConfig;
    use netdsl_protocols::scenario::{SuiteDriver, STOP_AND_WAIT};

    #[test]
    fn adaptive_driver_completes_a_lossy_transfer() {
        // The composed set hands adaptive stop-and-wait to the suite.
        let s = Scenario::new(
            crate::adaptive_arq::adaptive_stop_and_wait(300, 100),
            LinkConfig::lossy(5, 0.2),
        )
        .with_traffic(TrafficPattern::messages(10, 16))
        .with_seed(3);
        let set = DriverSet::new()
            .with(SuiteDriver::new())
            .with(RelayDriver::new());
        let r = set.run(&s).unwrap();
        assert!(r.success, "{r:?}");
        assert_eq!(r.messages_delivered, 10);
    }

    #[test]
    fn relay_driver_maps_policies_and_compromise() {
        let clean = Scenario::new(ProtocolSpec::new(TRUST_LEARNING), LinkConfig::reliable(1))
            .with_topology(TopologySpec::ParallelPaths {
                paths: 3,
                hops: 2,
                compromised: 0,
            })
            .with_traffic(TrafficPattern::messages(50, 8))
            .with_seed(5);
        let r = RelayDriver::new().run(&clean).unwrap();
        assert!(r.success, "no compromise → full delivery: {r:?}");
        assert!(r.elapsed > 0);

        let hostile = clean.clone().with_topology(TopologySpec::ParallelPaths {
            paths: 3,
            hops: 2,
            compromised: 3,
        });
        let r = RelayDriver::new().run(&hostile).unwrap();
        assert!(
            r.delivery_ratio() < 0.5,
            "all paths hostile → mostly lost: {r:?}"
        );
    }

    #[test]
    fn driver_set_composes_suite_and_extensions() {
        let set = DriverSet::new()
            .with(SuiteDriver::new())
            .with(RelayDriver::new());
        for name in [STOP_AND_WAIT, TRUST_LEARNING] {
            assert!(set.supports(name), "{name}");
        }
        assert!(!set.supports("nonesuch"));
    }

    #[test]
    fn relay_driver_honours_the_link_axis() {
        let on = |link: LinkConfig| {
            Scenario::new(ProtocolSpec::new(FIXED_PATH), link)
                .with_topology(TopologySpec::ParallelPaths {
                    paths: 2,
                    hops: 2,
                    compromised: 0,
                })
                .with_traffic(TrafficPattern::messages(100, 8))
                .with_seed(9)
        };
        let clean = RelayDriver::new()
            .run(&on(LinkConfig::reliable(1)))
            .unwrap();
        let lossy = RelayDriver::new()
            .run(&on(LinkConfig::lossy(1, 0.4)))
            .unwrap();
        assert!(clean.success);
        assert!(
            lossy.messages_delivered < clean.messages_delivered,
            "link impairments must reach the relay session: {lossy:?}"
        );
    }

    #[test]
    fn relay_driver_rejects_fault_schedules() {
        use netdsl_netsim::scenario::Fault;
        let s = Scenario::new(ProtocolSpec::new(TRUST_LEARNING), LinkConfig::reliable(1))
            .with_topology(TopologySpec::ParallelPaths {
                paths: 2,
                hops: 1,
                compromised: 0,
            })
            .with_fault(Fault::partition(10));
        assert!(matches!(
            RelayDriver::new().run(&s),
            Err(ScenarioError::Unsupported(_))
        ));
    }

    #[test]
    fn relay_driver_rejects_duplex_topology() {
        let s = Scenario::new(ProtocolSpec::new(TRUST_LEARNING), LinkConfig::reliable(1));
        assert!(matches!(
            RelayDriver::new().run(&s),
            Err(ScenarioError::UnsupportedTopology(_))
        ));
    }
}
