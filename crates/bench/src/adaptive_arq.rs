//! Adaptive stop-and-wait — the adaptive arm of experiment E8.
//!
//! It has no sender of its own: it is the suite's stop-and-wait sender
//! under `RetransmitPolicy::AdaptiveRto` (Jacobson/Karn, RFC 6298
//! style), seeded from the spec's `timeout`, and any driver that
//! supports `STOP_AND_WAIT` runs it. [`adaptive_stop_and_wait`] names
//! that spec so the E8 campaign and the tests build the same one.

use netdsl_netsim::scenario::{ProtocolSpec, RetransmitPolicy};
use netdsl_protocols::scenario::STOP_AND_WAIT;

/// E8's adaptive policy: a 4-tick RTO floor and a backoff cap far above
/// any RTT the E8 grid sweeps.
pub const ADAPTIVE_RTO: RetransmitPolicy = RetransmitPolicy::AdaptiveRto {
    min_rto: 4,
    max_rto: 100_000,
};

/// Stop-and-wait under [`ADAPTIVE_RTO`], starting from `initial_rto`
/// ticks and giving up after `max_retries` retransmissions of one frame.
pub fn adaptive_stop_and_wait(initial_rto: u64, max_retries: u32) -> ProtocolSpec {
    ProtocolSpec::new(STOP_AND_WAIT)
        .with_timeout(initial_rto)
        .with_retries(max_retries)
        .with_retransmit(ADAPTIVE_RTO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdsl_netsim::scenario::{Scenario, ScenarioDriver, TrafficPattern};
    use netdsl_netsim::LinkConfig;
    use netdsl_protocols::scenario::SuiteDriver;

    #[test]
    fn adaptive_transfer_succeeds_on_reliable_link() {
        // A 500-tick initial RTO covers the 20-tick RTT, so no frame
        // is ever sent twice.
        let s = Scenario::new(adaptive_stop_and_wait(500, 5), LinkConfig::reliable(10))
            .with_traffic(TrafficPattern::messages(20, 16))
            .with_seed(1)
            .with_deadline(1_000_000);
        let r = SuiteDriver::new().run(&s).unwrap();
        assert!(r.success, "{r:?}");
        assert_eq!(r.messages_delivered, 20);
        assert_eq!(r.retransmissions, 0);
    }
}
