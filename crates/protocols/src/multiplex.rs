//! Multiplexed session driver: many scenarios, **one** simulator.
//!
//! [`SuiteDriver`](crate::scenario::SuiteDriver) builds a fresh
//! [`Simulator`] — arena, timer wheel, RNG — per scenario. That is the
//! right shape for isolation, but a campaign of a million tiny sessions
//! pays the world-construction cost a million times and keeps only two
//! nodes busy per wheel. [`MultiSessionDriver`] instead runs a whole
//! batch of scenarios as *sessions* of a single simulator: every session
//! gets its own node pair, duplex links and seeded RNG stream (see
//! [`Simulator::add_session`]), while the timer wheel, payload arena and
//! event queue are shared.
//!
//! **Parity is the contract.** Each session's transcript — frame bytes,
//! timer firings, retransmission counts, elapsed ticks, link counters —
//! is bit-identical to what a standalone [`SuiteDriver`] run of the same
//! scenario produces. Both run through the crate's one pump (see
//! [`crate::driver`]), a solo run being a batch of one: the per-session
//! RNG streams make impairment draws independent of batch composition;
//! popping one event at a time in global `(at, seq)` order preserves
//! each session's relative event order, and applies its faults before
//! the next event pops; and folding a session's result the moment it
//! closes keeps out the events the simulator pops for it afterwards.
//! `tests/golden_parity.rs` runs the committed fixture corpus as one
//! batch against solo runs.
//!
//! [`SuiteDriver`]: crate::scenario::SuiteDriver

use netdsl_netsim::campaign::BatchDriver;
use netdsl_netsim::scenario::{Scenario, ScenarioError, ScenarioResult};
use netdsl_netsim::{ObsConfig, SimCore, Simulator};
use netdsl_obs::{Counter, Gauge};

use crate::driver::{pump, Slot};
use crate::scenario::{
    session_result, suite_session, SuiteSession, BASELINE, GO_BACK_N, SELECTIVE_REPEAT,
    STOP_AND_WAIT,
};

static MUX_SESSIONS_RUN: Counter = Counter::new("mux.sessions_run");
static MUX_OPEN_SESSIONS: Gauge = Gauge::new("mux.open_sessions");

/// [`BatchDriver`] that multiplexes a batch of duplex suite scenarios
/// onto shared simulators — one per engine core present in the batch,
/// since [`SimCore`] decides the simulator's construction. Results come
/// back in batch order, bit-identical to standalone
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
        let mut results: Vec<Option<Result<ScenarioResult, ScenarioError>>> =
            batch.iter().map(|_| None).collect();
        // Scenarios the solo driver would refuse error in place; the
        // rest group by engine core (batch order preserved within a
        // group).
        let mut pooled = Vec::new();
        let mut legacy = Vec::new();
        for (i, scenario) in batch.iter().enumerate() {
            match suite_session(scenario) {
                Err(e) => results[i] = Some(Err(e)),
                Ok(ends) => match scenario.protocol.sim_core {
                    SimCore::Pooled => pooled.push((i, ends)),
                    SimCore::Legacy => legacy.push((i, ends)),
                },
            }
        }
        for (core, group) in [(SimCore::Pooled, pooled), (SimCore::Legacy, legacy)] {
            if !group.is_empty() {
                run_group(core, group, batch, &mut results);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every batch slot is filled"))
            .collect()
    }
}

/// Runs one core's worth of validated scenarios as sessions of a single
/// simulator and writes each result into its batch slot as the session
/// closes.
fn run_group(
    core: SimCore,
    group: Vec<(usize, Box<dyn SuiteSession>)>,
    batch: &[Scenario],
    results: &mut [Option<Result<ScenarioResult, ScenarioError>>],
) {
    // World building: the first scenario seeds the constructor (its RNG
    // stream is session 0), every further scenario is an added session.
    // The simulator is shared, so it observes the union of what the
    // member scenarios ask for (flight capacity takes the max).
    let mut sim = Simulator::with_core(batch[group[0].0].seed, core);
    let mut index = Vec::with_capacity(group.len());
    let mut slots = Vec::with_capacity(group.len());
    let mut obs = ObsConfig::off();
    for (k, (i, ends)) in group.into_iter().enumerate() {
        let scenario = &batch[i];
        let session = if k == 0 {
            sim.default_session()
        } else {
            sim.add_session(scenario.seed)
        };
        slots.push(Slot::wire(&mut sim, session, scenario.link.clone(), ends).schedule(scenario));
        index.push(i);
        obs = obs.union(scenario.protocol.obs);
    }
    sim.set_obs(obs);
    // Metric updates elsewhere self-gate, so the two batch-level
    // instruments are unconditional; the open-sessions gauge moves by
    // delta so concurrent groups on other threads compose.
    MUX_SESSIONS_RUN.add(slots.len() as u64);
    MUX_OPEN_SESSIONS.add(slots.len() as i64);

    // All starts happen at tick 0, before any event is popped — just as
    // each standalone run starts its endpoints before pumping.
    for slot in &mut slots {
        slot.start(&mut sim);
    }
    pump(&mut sim, &mut slots, |sim, k, slot| {
        MUX_OPEN_SESSIONS.add(-1);
        results[index[k]] = Some(Ok(session_result(sim, slot)));
    });
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
    /// impairments, both engine cores, both frame paths, a compiled
    /// FSM, a fault schedule and a deadline-bound lossy session.
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
            // close, after which the session's events are still popped.
            mk(STOP_AND_WAIT, 1, LinkConfig::lossy(3, 1.0), 12).with_deadline(600),
        ];
        batch[1].protocol = batch[1].protocol.clone().with_engine(EngineConfig {
            frame_path: FramePath::Compiled,
            ..EngineConfig::default()
        });
        batch[2].protocol = batch[2].protocol.clone().with_engine(EngineConfig {
            sim_core: SimCore::Legacy,
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
        // 64 copies of one lossy scenario in a shared simulator must all
        // reproduce the standalone result — the per-session RNG streams
        // are what isolates them.
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
        // Interleave cores so the two groups scatter back into slots.
        let base = mixed_batch().remove(0);
        let batch: Vec<_> = (0..10)
            .map(|i| {
                let mut s = base.clone().with_seed(100 + i as u64);
                if i % 2 == 1 {
                    s.protocol = s.protocol.clone().with_engine(EngineConfig {
                        sim_core: SimCore::Legacy,
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
