//! Batch session driver: many scenarios, **one** simulator, one session
//! after another.
//!
//! [`SuiteDriver`](crate::scenario::SuiteDriver) builds a simulator per
//! scenario, checking a warm core out of the thread-local pool and
//! returning it on drop. [`MultiSessionDriver`] keeps one simulator
//! for a whole batch instead and runs the scenarios back to back on
//! it: before each session it empties the simulator in place with
//! [`Simulator::reset`] and reseeds it with the session's seed.
//! Only one session's endpoints are alive at a time.
//!
//! **Parity holds by construction.** A reset simulator is observably
//! identical to a fresh one on the same seed, and each session then
//! runs exactly as a solo run does — same endpoints
//! ([`suite_session`]), same pump (see [`crate::driver`]), same result
//! fold — so its result is bit-identical to what a standalone
//! [`SuiteDriver`] run of the same scenario produces.
//! `tests/golden_parity.rs` runs the committed fixture corpus as one
//! batch against solo runs.
//!
//! [`SuiteDriver`]: crate::scenario::SuiteDriver

use netdsl_netsim::campaign::BatchDriver;
use netdsl_netsim::scenario::{Scenario, ScenarioError, ScenarioResult};
use netdsl_netsim::Simulator;
use netdsl_obs::Counter;

use crate::scenario::{
    run_session, suite_session, BASELINE, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT,
};

static MUX_SESSIONS_RUN: Counter = Counter::new("mux.sessions_run");

/// [`BatchDriver`] that runs a batch of duplex suite scenarios back to
/// back on one reset simulator. Results come back in batch order,
/// bit-identical to standalone
/// [`SuiteDriver`](crate::scenario::SuiteDriver) runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct MultiSessionDriver;

impl MultiSessionDriver {
    /// A new driver (stateless — every batch is self-contained).
    pub fn new() -> Self {
        MultiSessionDriver
    }
}

impl BatchDriver for MultiSessionDriver {
    fn supports(&self, protocol: &str) -> bool {
        matches!(
            protocol,
            STOP_AND_WAIT | GO_BACK_N | SELECTIVE_REPEAT | BASELINE
        )
    }

    fn run_batch(&self, batch: &[Scenario]) -> Vec<Result<ScenarioResult, ScenarioError>> {
        let mut warm: Option<Simulator> = None;
        batch
            .iter()
            .map(|scenario| {
                // Scenarios the solo driver would refuse error in place.
                let ends = suite_session(scenario)?;
                MUX_SESSIONS_RUN.incr();
                let sim = match &mut warm {
                    Some(sim) => {
                        sim.reset(scenario.seed);
                        sim
                    }
                    None => warm.insert(Simulator::new(scenario.seed)),
                };
                Ok(run_session(sim, scenario, ends))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SuiteDriver;
    use netdsl_netsim::scenario::{
        EngineConfig, FramePath, FsmPath, ProtocolSpec, ScenarioDriver, TopologySpec,
        TrafficPattern,
    };
    use netdsl_netsim::LinkConfig;

    /// A deliberately heterogeneous batch: every protocol, varied
    /// impairments, both frame paths, a compiled FSM, a fault schedule
    /// and a deadline-bound lossy session.
    fn mixed_batch() -> Vec<Scenario> {
        let mk = |name: &str, window: u32, link: LinkConfig, seed: u64| {
            Scenario::new(
                ProtocolSpec::new(name).with_window(window).with_timeout(90),
                link,
            )
            .with_traffic(TrafficPattern::messages(8, 16))
            .with_seed(seed)
        };
        let mut batch = vec![
            mk(STOP_AND_WAIT, 1, LinkConfig::lossy(3, 0.2), 7),
            mk(GO_BACK_N, 4, LinkConfig::reliable(3).with_corrupt(0.15), 8),
            mk(
                SELECTIVE_REPEAT,
                4,
                LinkConfig::reliable(2).with_jitter(8),
                9,
            ),
            mk(BASELINE, 1, LinkConfig::reliable(3).with_duplicate(0.3), 10),
            mk(STOP_AND_WAIT, 1, LinkConfig::lossy(4, 0.3), 11)
                .with_fault(netdsl_netsim::Fault::partition(40))
                .with_fault(netdsl_netsim::Fault::repair(1_000, 4)),
            // Total loss + finite deadline: exercises the past-deadline
            // close, which leaves the session's events queued for the
            // next session's reset to discard.
            mk(STOP_AND_WAIT, 1, LinkConfig::lossy(3, 1.0), 12).with_deadline(600),
        ];
        batch[1].protocol = batch[1].protocol.clone().with_engine(EngineConfig {
            frame_path: FramePath::Interpreted,
            ..EngineConfig::default()
        });
        batch[4].protocol = batch[4].protocol.clone().with_engine(EngineConfig {
            fsm_path: FsmPath::Compiled,
            ..EngineConfig::default()
        });
        batch
    }

    #[test]
    fn batched_sessions_match_solo_runs_bit_for_bit() {
        let batch = mixed_batch();
        let solo = SuiteDriver::new();
        let expected: Vec<_> = batch.iter().map(|s| solo.run(s).unwrap()).collect();
        let got = MultiSessionDriver::new().run_batch(&batch);
        for ((scenario, want), got) in batch.iter().zip(&expected).zip(got) {
            assert_eq!(
                &got.unwrap(),
                want,
                "{}: multiplexed diverges",
                scenario.name
            );
        }
    }

    #[test]
    fn many_identical_sessions_do_not_perturb_each_other() {
        // 64 copies of one lossy scenario back to back on one simulator
        // must all reproduce the standalone result — the reset between
        // sessions is what isolates them.
        let base = mixed_batch().remove(0);
        let want = SuiteDriver::new().run(&base).unwrap();
        let batch: Vec<_> = std::iter::repeat_with(|| base.clone()).take(64).collect();
        for got in MultiSessionDriver::new().run_batch(&batch) {
            assert_eq!(got.unwrap(), want);
        }
    }

    #[test]
    fn invalid_scenarios_error_in_place_without_poisoning_the_batch() {
        let mut batch = mixed_batch();
        let good = batch[0].clone();
        batch[1] = good.clone().with_topology(TopologySpec::Line { nodes: 3 });
        batch[3] = Scenario::new(ProtocolSpec::new("nonesuch"), LinkConfig::reliable(3));
        // Compiled FSM on go-back-n: no driver, must refuse.
        batch[2] = Scenario::new(
            ProtocolSpec::new(GO_BACK_N)
                .with_window(4)
                .with_engine(EngineConfig {
                    fsm_path: FsmPath::Compiled,
                    ..EngineConfig::default()
                }),
            LinkConfig::reliable(3),
        );
        let results = MultiSessionDriver::new().run_batch(&batch);
        assert!(matches!(
            results[1],
            Err(ScenarioError::UnsupportedTopology(_))
        ));
        assert!(matches!(results[2], Err(ScenarioError::Unsupported(_))));
        assert!(matches!(results[3], Err(ScenarioError::UnknownProtocol(_))));
        let want = SuiteDriver::new().run(&batch[0]).unwrap();
        assert_eq!(
            *results[0].as_ref().unwrap(),
            want,
            "valid slots unaffected"
        );
    }

    #[test]
    fn batch_results_come_back_in_batch_order() {
        // Interleave frame paths so each session resumes the shared
        // simulator after one that ran the other codec.
        let base = mixed_batch().remove(0);
        let batch: Vec<_> = (0..10)
            .map(|i| {
                let mut s = base.clone().with_seed(100 + i as u64);
                if i % 2 == 1 {
                    s.protocol = s.protocol.clone().with_engine(EngineConfig {
                        frame_path: FramePath::Interpreted,
                        ..EngineConfig::default()
                    });
                }
                s
            })
            .collect();
        let solo = SuiteDriver::new();
        let got = MultiSessionDriver::new().run_batch(&batch);
        for (scenario, got) in batch.iter().zip(got) {
            assert_eq!(
                got.unwrap(),
                solo.run(scenario).unwrap(),
                "{}",
                scenario.name
            );
        }
    }
}
