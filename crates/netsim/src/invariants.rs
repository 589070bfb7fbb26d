//! Machine-checked robustness invariants for scenario runs.
//!
//! The paper argues that the bulk of a real protocol implementation is
//! error handling the formal notations never capture; the chaos
//! campaigns (bench E17) exist to exercise exactly that code, and this
//! module is the oracle that decides whether a run under faults was
//! *correct*. Two families of properties, per `docs/FAULTS.md`:
//!
//! * **Safety** — nothing wrong was ever accepted: no corrupted payload
//!   reaches the application, nothing is delivered twice or out of
//!   order (a suite session checks each delivery as it arrives), and
//!   the counters conserve (a link cannot deliver more copies than it
//!   transmitted).
//! * **Liveness given repair** — if the fault plan ends with the world
//!   repaired ([`FaultPlan::ends_repaired`]), the transfer either
//!   completes or reports a *clean bounded-retry failure* strictly
//!   before the deadline. A run that limps to the tick budget without
//!   deciding is a hang, and hangs are bugs even under chaos.
//!
//! The checker is pure data → report: drivers stay oblivious, tests
//! and the E17 harness call [`check_result`] on whatever
//! ([`Scenario`], [`ScenarioResult`]) pairs they already have.

use std::fmt;

use crate::scenario::{FaultPlan, Scenario, ScenarioResult};

/// The outcome of an invariant check: empty means every property held.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvariantReport {
    /// Human-readable descriptions of every violated invariant.
    pub violations: Vec<String>,
}

impl InvariantReport {
    /// `true` when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with the full violation list unless the report is clean —
    /// the one-liner tests and harnesses use.
    ///
    /// # Panics
    ///
    /// Panics if any invariant was violated, naming `context`.
    pub fn assert_ok(&self, context: &str) {
        assert!(
            self.ok(),
            "invariant violations in {context}:\n  {}",
            self.violations.join("\n  ")
        );
    }

    fn violate(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            write!(f, "all invariants held")
        } else {
            write!(
                f,
                "{} violation(s): {}",
                self.violations.len(),
                self.violations.join("; ")
            )
        }
    }
}

/// Checks every result-level invariant of one finished run.
///
/// ```
/// use netdsl_netsim::{invariants, LinkConfig, Scenario};
/// use netdsl_netsim::scenario::ProtocolSpec;
/// # use netdsl_netsim::{LinkStats, ScenarioResult};
/// let scenario = Scenario::new(ProtocolSpec::new("stop-and-wait"), LinkConfig::reliable(3));
/// let result = ScenarioResult {
///     success: true, elapsed: 120, messages_offered: 4, messages_delivered: 4,
///     payload_bytes: 4 * scenario.traffic.size as u64, frames_sent: 4,
///     retransmissions: 0,
///     link: LinkStats { sent: 8, delivered: 8, lost: 0, duplicated: 0, corrupted: 0 },
/// };
/// assert!(invariants::check_result(&scenario, &result).ok());
/// ```
pub fn check_result(scenario: &Scenario, result: &ScenarioResult) -> InvariantReport {
    let mut report = InvariantReport::default();

    // -- Safety: the application never sees more, or other, data than
    //    was offered.
    if result.messages_delivered > result.messages_offered {
        report.violate(format!(
            "duplicate delivery: {} messages delivered but only {} offered",
            result.messages_delivered, result.messages_offered
        ));
    }
    let expected_bytes = result.messages_delivered * scenario.traffic.size as u64;
    if result.payload_bytes != expected_bytes {
        report.violate(format!(
            "payload conservation: {} bytes delivered for {} messages of {} bytes \
             (corrupted or truncated payload accepted?)",
            result.payload_bytes, result.messages_delivered, scenario.traffic.size
        ));
    }

    // -- Safety: link counters conserve. Every delivered or lost copy
    //    must have been transmitted (originals + duplicates).
    let copies = result.link.sent + result.link.duplicated;
    if result.link.delivered > copies {
        report.violate(format!(
            "link conservation: {} copies delivered but only {} transmitted",
            result.link.delivered, copies
        ));
    }
    if result.link.delivered + result.link.lost > copies {
        report.violate(format!(
            "link conservation: delivered {} + lost {} exceeds {} transmitted copies",
            result.link.delivered, result.link.lost, copies
        ));
    }

    // -- Consistency: a successful run delivered the whole workload.
    if result.success && result.messages_delivered != result.messages_offered {
        report.violate(format!(
            "success claimed with {} of {} messages delivered",
            result.messages_delivered, result.messages_offered
        ));
    }

    // -- Liveness given repair: when the fault plan leaves the world
    //    repaired, a failure must be a decided bounded-retry failure,
    //    not a run that burned the whole tick budget (a hang).
    let plan = FaultPlan::from_scenario(scenario);
    if plan.ends_repaired(&scenario.link) && !result.success && result.elapsed >= scenario.deadline
    {
        report.violate(format!(
            "liveness: world ends repaired yet the run hit the {} tick deadline undecided \
             (elapsed {})",
            scenario.deadline, result.elapsed
        ));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::scenario::{Fault, ProtocolSpec, TrafficPattern};
    use crate::stats::LinkStats;

    fn scenario() -> Scenario {
        Scenario::new(ProtocolSpec::new("stop-and-wait"), LinkConfig::reliable(3))
            .with_traffic(TrafficPattern::messages(4, 8))
            .with_deadline(10_000)
    }

    fn clean_result() -> ScenarioResult {
        ScenarioResult {
            success: true,
            elapsed: 500,
            messages_offered: 4,
            messages_delivered: 4,
            payload_bytes: 32,
            frames_sent: 4,
            retransmissions: 0,
            link: LinkStats {
                sent: 8,
                delivered: 8,
                lost: 0,
                duplicated: 0,
                corrupted: 0,
            },
        }
    }

    #[test]
    fn clean_run_passes() {
        let report = check_result(&scenario(), &clean_result());
        report.assert_ok("clean run");
        assert_eq!(report.to_string(), "all invariants held");
    }

    #[test]
    fn duplicate_delivery_is_flagged() {
        let mut r = clean_result();
        r.messages_delivered = 5;
        r.payload_bytes = 40;
        let report = check_result(&scenario(), &r);
        assert!(!report.ok());
        assert!(report.violations[0].contains("duplicate delivery"));
    }

    #[test]
    fn corrupted_payload_bytes_are_flagged() {
        let mut r = clean_result();
        r.payload_bytes = 31;
        let report = check_result(&scenario(), &r);
        assert!(!report.ok());
        assert!(report.violations[0].contains("payload conservation"));
    }

    #[test]
    fn link_overdelivery_is_flagged() {
        let mut r = clean_result();
        r.link.delivered = 9;
        let report = check_result(&scenario(), &r);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("link conservation")));
    }

    #[test]
    fn dishonest_success_is_flagged() {
        let mut r = clean_result();
        r.messages_delivered = 3;
        r.payload_bytes = 24;
        let report = check_result(&scenario(), &r);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("success claimed")));
    }

    #[test]
    fn deadline_hang_under_repaired_world_is_flagged() {
        let mut r = clean_result();
        r.success = false;
        r.messages_delivered = 3;
        r.payload_bytes = 24;
        r.elapsed = 10_000;
        let report = check_result(&scenario(), &r);
        assert!(report.violations.iter().any(|v| v.contains("liveness")));

        // A decided failure (retries exhausted before the deadline) is
        // clean...
        r.elapsed = 900;
        check_result(&scenario(), &r).assert_ok("bounded-retry failure");

        // ...and so is timing out while the world is still broken.
        r.elapsed = 10_000;
        let broken = scenario().with_fault(Fault::partition(100));
        check_result(&broken, &r).assert_ok("unrepaired world");
    }
}
