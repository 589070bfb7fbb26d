//! Campaign driver for the pairwise protocol suite.
//!
//! [`SuiteDriver`] plugs the protocols of this crate into the
//! declarative scenario layer of
//! [`netdsl_netsim::scenario`]: a [`Scenario`] names one of
//! [`STOP_AND_WAIT`], [`GO_BACK_N`], [`SELECTIVE_REPEAT`] or
//! [`BASELINE`]; [`suite_session`] — the one place a [`ProtocolSpec`]
//! turns into endpoints — builds the matching pair, and the driver runs
//! it alone through the crate's one pump (see [`crate::driver`]),
//! applying any scheduled [`Fault`]s mid-run (expanded to a primitive
//! [`FaultPlan`]), and reports a protocol-independent
//! [`ScenarioResult`].
//!
//! No session holds a copy of its transfer. The sender borrows each
//! message from the one table [`TrafficPattern::generate`] builds, and
//! the session's [`Sink`] checks every payload the receiver delivers
//! against the scenario's traffic as it arrives, so the result folds
//! from the sink's count rather than from a comparison of two lists.
//!
//! [`Fault`]: netdsl_netsim::scenario::Fault
//! [`FaultPlan`]: netdsl_netsim::scenario::FaultPlan
//! [`TrafficPattern::generate`]: netdsl_netsim::scenario::TrafficPattern::generate
//!
//! ```
//! use netdsl_netsim::scenario::{ProtocolSpec, Scenario, ScenarioDriver, TrafficPattern};
//! use netdsl_netsim::LinkConfig;
//! use netdsl_protocols::scenario::{SuiteDriver, STOP_AND_WAIT};
//!
//! let scenario = Scenario::new(
//!     ProtocolSpec::new(STOP_AND_WAIT).with_timeout(60),
//!     LinkConfig::lossy(3, 0.2),
//! )
//! .with_traffic(TrafficPattern::messages(10, 16))
//! .with_seed(7);
//!
//! let result = SuiteDriver::new().run(&scenario).unwrap();
//! assert!(result.success);
//! assert_eq!(result.messages_delivered, 10);
//! ```

use std::ops::Range;

use netdsl_netsim::scenario::{
    EngineConfigError, FsmPath, Messages, ProtocolSpec, RetransmitPolicy, Scenario, ScenarioDriver,
    ScenarioError, ScenarioResult, TopologySpec,
};
use netdsl_netsim::{Simulator, Tick, TimerToken};

use crate::arq::compiled::FsmSender;
use crate::arq::session::{SwReceiver, SwSender};
use crate::baseline::{CReceiver, CSender};
use crate::driver::{Duplex, Endpoint, Io, SessionEndpoints, Sink, Slot};
use crate::gbn::{GbnReceiver, GbnSender};
use crate::golden::Observable;
use crate::sr::{SrReceiver, SrSender};

/// Protocol key for the §3.4 typestate stop-and-wait ARQ.
pub const STOP_AND_WAIT: &str = "stop-and-wait";
/// Protocol key for Go-Back-N (window from [`ProtocolSpec::window`]).
///
/// [`ProtocolSpec::window`]: netdsl_netsim::scenario::ProtocolSpec
pub const GO_BACK_N: &str = "go-back-n";
/// Protocol key for Selective Repeat (window from `ProtocolSpec::window`).
pub const SELECTIVE_REPEAT: &str = "selective-repeat";
/// Protocol key for the hand-rolled C-style baseline ARQ.
pub const BASELINE: &str = "baseline";

/// [`ScenarioDriver`] over this crate's pairwise protocols
/// ([`STOP_AND_WAIT`], [`GO_BACK_N`], [`SELECTIVE_REPEAT`],
/// [`BASELINE`]); duplex topologies only.
#[derive(Debug, Default, Clone, Copy)]
pub struct SuiteDriver;

impl SuiteDriver {
    /// A new driver (stateless — every run is self-contained).
    pub fn new() -> Self {
        SuiteDriver
    }
}

/// Runs `a` and `b` as `scenario`'s one session — its seed, link,
/// observability request, deadline and fault plan, with a sink checking
/// every delivery against its traffic — through the pump, and folds the
/// outcome into the driver-independent result shape. `stats_of`
/// extracts `(sender_succeeded, frames_sent, retransmissions)`;
/// `messages_of` borrows the sender's messages, which count as offered;
/// `delivered_of` reads the receiver's own count of deliveries, which
/// must agree with the sink's for the session to succeed.
pub fn drive_duplex<A: Endpoint, B: Endpoint>(
    scenario: &Scenario,
    a: A,
    b: B,
    stats_of: impl FnOnce(&Duplex<A, B>) -> (bool, u64, u64),
    messages_of: impl Fn(&A) -> &Messages,
    delivered_of: impl Fn(&B) -> Range<usize>,
) -> ScenarioResult {
    let mut duplex = Duplex::for_scenario(scenario, a, b);
    let elapsed = duplex.run(scenario.deadline);
    let (succeeded, frames_sent, retransmissions) = stats_of(&duplex);
    let agree = delivered_of(duplex.b()).len() == duplex.delivered().len();
    fold(
        duplex.sim(),
        elapsed,
        (succeeded && agree, frames_sent, retransmissions),
        messages_of(duplex.a()).len(),
        duplex.delivered(),
    )
}

/// The one [`ScenarioResult`] fold, taken when a session closes.
/// `outcome` is `(sender_succeeded, frames_sent, retransmissions)`, and
/// the session succeeds if the sender did and the sink saw exactly the
/// `offered` messages, each at its position. The link counters are those
/// of the session's simulator.
fn fold(
    sim: &Simulator,
    elapsed: Tick,
    outcome: (bool, u64, u64),
    offered: usize,
    delivered: &Sink,
) -> ScenarioResult {
    let (sender_succeeded, frames_sent, retransmissions) = outcome;
    ScenarioResult {
        success: sender_succeeded && delivered.in_order() && delivered.len() == offered,
        elapsed,
        messages_offered: offered as u64,
        messages_delivered: delivered.len() as u64,
        payload_bytes: delivered.payload_bytes(),
        frames_sent,
        retransmissions,
        link: sim.total_stats(),
    }
}

/// Runs `ends` as `scenario`'s one session on `sim` — fresh, or reset
/// to the scenario's seed — through the pump, and folds its result.
pub(crate) fn run_session(
    sim: &mut Simulator,
    scenario: &Scenario,
    ends: Box<dyn SuiteSession>,
) -> ScenarioResult {
    let mut slot = Slot::for_scenario(sim, scenario, ends);
    slot.start(sim);
    let elapsed = slot.pump(sim);
    let ab_sent = sim.link_stats(slot.world.link_ab).sent;
    fold(
        sim,
        elapsed,
        slot.ends.outcome(ab_sent),
        scenario.traffic.count,
        &slot.sink,
    )
}

/// Runs one suite scenario alone on a simulator of its own and returns
/// its result and simulator. The solo driver runs it with `golden` off;
/// the golden recorder runs it with capture on and takes the transcript
/// from the simulator.
pub(crate) fn run_alone(
    scenario: &Scenario,
    golden: bool,
) -> Result<(ScenarioResult, Simulator), ScenarioError> {
    let ends = suite_session(scenario)?;
    let mut sim = Simulator::new(scenario.seed);
    sim.record_golden(golden);
    let result = run_session(&mut sim, scenario, ends);
    Ok((result, sim))
}

/// Validates a protocol spec's engine configuration — the **single**
/// refusal path for unsupported axis combinations, through
/// [`suite_session`].
///
/// The invalid combinations are the ones that would silently measure
/// something other than what the sweep cell claims:
///
/// - [`FsmPath::Compiled`] on a protocol other than [`STOP_AND_WAIT`]:
///   only the §3.4 spec is reified and lowered to a transition table,
///   and silently falling back to the typestate engine would let a
///   sweep label a cell "compiled" while measuring something else —
///   the same honesty rule the driver applies to fault schedules.
/// - [`RetransmitPolicy::AdaptiveRto`] on the compiled FSM path or on
///   [`BASELINE`]: the transition table and the hand-rolled C-style
///   sender both hard-code the constant-timeout arm, so an "adaptive"
///   cell there would quietly run fixed timers.
pub fn validate_engine(spec: &ProtocolSpec) -> Result<(), EngineConfigError> {
    if spec.fsm_path == FsmPath::Compiled && spec.name != STOP_AND_WAIT {
        return Err(EngineConfigError {
            protocol: spec.name.clone(),
            config: spec.engine(),
            reason: "only stop-and-wait has a compiled control-FSM driver".to_string(),
        });
    }
    if matches!(spec.retransmit, RetransmitPolicy::AdaptiveRto { .. }) {
        if spec.fsm_path == FsmPath::Compiled {
            return Err(EngineConfigError {
                protocol: spec.name.clone(),
                config: spec.engine(),
                reason: "the compiled control-FSM driver supports fixed retransmission only"
                    .to_string(),
            });
        }
        if spec.name == BASELINE {
            return Err(EngineConfigError {
                protocol: spec.name.clone(),
                config: spec.engine(),
                reason: "the baseline ARQ supports fixed retransmission only".to_string(),
            });
        }
    }
    Ok(())
}

/// A suite session: its endpoints plus what the result fold reads off
/// them (what they delivered, the fold reads off the session's sink).
pub trait SuiteSession: SessionEndpoints {
    /// `(sender_succeeded, frames_sent, retransmissions)`. `ab_sent` is
    /// the session's A→B link send counter, for endpoints (the baseline)
    /// that keep no counters of their own.
    fn outcome(&self, ab_sent: u64) -> (bool, u64, u64);
}

/// The one [`SuiteSession`] implementation: two suite endpoints plus a
/// plain-function outcome extractor (monomorphic per endpoint pair, no
/// captures). Every frame it hands over is annotated for the golden
/// recorder through [`Io::annotate_golden`], which costs one branch
/// when capture is off.
pub struct Pair<A, B> {
    a: A,
    b: B,
    stats: fn(&A, &B, u64) -> (bool, u64, u64),
}

impl<A: Observable, B: Observable> Pair<A, B> {
    /// Bundles two endpoints with their outcome extractor.
    pub fn new(a: A, b: B, stats: fn(&A, &B, u64) -> (bool, u64, u64)) -> Self {
        Pair { a, b, stats }
    }
}

impl<A: Observable, B: Observable> SessionEndpoints for Pair<A, B> {
    fn start_a(&mut self, io: &mut Io<'_>) {
        self.a.start(io);
    }
    fn start_b(&mut self, io: &mut Io<'_>) {
        self.b.start(io);
    }
    fn frame_a(&mut self, frame: &[u8], io: &mut Io<'_>) {
        self.a.on_frame(frame, io);
        let a = &self.a;
        io.annotate_golden(|delivered| a.annotation(frame, delivered));
    }
    fn frame_b(&mut self, frame: &[u8], io: &mut Io<'_>) {
        self.b.on_frame(frame, io);
        let b = &self.b;
        io.annotate_golden(|delivered| b.annotation(frame, delivered));
    }
    fn timer_a(&mut self, token: TimerToken, io: &mut Io<'_>) {
        self.a.on_timer(token, io);
    }
    fn timer_b(&mut self, token: TimerToken, io: &mut Io<'_>) {
        self.b.on_timer(token, io);
    }
    fn reset_a(&mut self) {
        self.a.reset();
    }
    fn reset_b(&mut self) {
        self.b.reset();
    }
    fn done(&self) -> bool {
        self.a.done() && self.b.done()
    }
}

impl<A: Observable, B: Observable> SuiteSession for Pair<A, B> {
    fn outcome(&self, ab_sent: u64) -> (bool, u64, u64) {
        (self.stats)(&self.a, &self.b, ab_sent)
    }
}

/// Builds the endpoints of one suite scenario — the **only** place a
/// [`ProtocolSpec`] turns into endpoints, shared by the solo driver,
/// the batch driver and the golden recorder. Refuses non-duplex
/// topologies, unknown protocols and the engine combinations
/// [`validate_engine`] rejects.
pub fn suite_session(scenario: &Scenario) -> Result<Box<dyn SuiteSession>, ScenarioError> {
    if scenario.topology != TopologySpec::Duplex {
        return Err(ScenarioError::UnsupportedTopology(format!(
            "{} runs duplex topologies only, got {:?}",
            scenario.protocol.name, scenario.topology
        )));
    }
    let spec = &scenario.protocol;
    validate_engine(spec)?;
    // One table the sender lends every message from; the session's
    // sink checks deliveries against the traffic itself.
    let messages = scenario.traffic.generate();
    let n = messages.len();
    Ok(match spec.name.as_str() {
        // Stop-and-wait is the one protocol with a reified control
        // spec, so it honours the FsmPath axis: the same scenario runs
        // on the typestate engine or the compiled transition-table
        // engine, transcript-identically.
        STOP_AND_WAIT => match spec.fsm_path {
            FsmPath::Typestate => Box::new(Pair::new(
                SwSender::new(messages, spec.timeout, spec.max_retries)
                    .with_frame_path(spec.frame_path)
                    .with_retransmit(spec.retransmit),
                SwReceiver::new(n).with_frame_path(spec.frame_path),
                |a, _, _| {
                    let s = a.stats();
                    (a.succeeded(), s.frames_sent, s.retransmissions)
                },
            )),
            FsmPath::Compiled => Box::new(Pair::new(
                FsmSender::new(messages, spec.timeout, spec.max_retries)
                    .with_frame_path(spec.frame_path),
                SwReceiver::new(n).with_frame_path(spec.frame_path),
                |a, _, _| {
                    let s = a.stats();
                    (a.succeeded(), s.frames_sent, s.retransmissions)
                },
            )),
        },
        GO_BACK_N => Box::new(Pair::new(
            GbnSender::new(messages, spec.window, spec.timeout, spec.max_retries)
                .with_frame_path(spec.frame_path)
                .with_retransmit(spec.retransmit),
            GbnReceiver::new(n).with_frame_path(spec.frame_path),
            |a, _, _| {
                let s = a.stats();
                (a.succeeded(), s.frames_sent, s.retransmissions)
            },
        )),
        SELECTIVE_REPEAT => Box::new(Pair::new(
            SrSender::new(messages, spec.window, spec.timeout, spec.max_retries)
                .with_frame_path(spec.frame_path)
                .with_retransmit(spec.retransmit),
            SrReceiver::new(n, spec.window).with_frame_path(spec.frame_path),
            |a, _, _| {
                let s = a.stats();
                (a.succeeded(), s.frames_sent, s.retransmissions)
            },
        )),
        BASELINE => Box::new(Pair::new(
            CSender::new(messages, spec.timeout, spec.max_retries),
            CReceiver::new(n),
            // The baseline keeps no counters (that is its point); every
            // `sent` on the data-direction link is a data frame, and
            // anything beyond one per delivered message was a
            // retransmission.
            |a, b, ab_sent| {
                (
                    a.succeeded(),
                    ab_sent,
                    ab_sent.saturating_sub(b.delivered().len() as u64),
                )
            },
        )),
        other => return Err(ScenarioError::UnknownProtocol(other.to_string())),
    })
}

impl ScenarioDriver for SuiteDriver {
    fn supports(&self, protocol: &str) -> bool {
        matches!(
            protocol,
            STOP_AND_WAIT | GO_BACK_N | SELECTIVE_REPEAT | BASELINE
        )
    }

    fn run(&self, scenario: &Scenario) -> Result<ScenarioResult, ScenarioError> {
        run_alone(scenario, false).map(|(result, _)| result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdsl_netsim::scenario::{
        EngineConfig, Fault, FaultDirection, ProtocolSpec, TrafficPattern,
    };
    use netdsl_netsim::LinkConfig;

    fn base(name: &str) -> Scenario {
        Scenario::new(
            ProtocolSpec::new(name).with_window(8).with_timeout(100),
            LinkConfig::lossy(3, 0.2),
        )
        .with_traffic(TrafficPattern::messages(12, 24))
        .with_seed(11)
    }

    #[test]
    fn every_suite_protocol_completes_a_lossy_transfer() {
        let driver = SuiteDriver::new();
        for name in [STOP_AND_WAIT, GO_BACK_N, SELECTIVE_REPEAT, BASELINE] {
            let r = driver.run(&base(name)).unwrap();
            assert!(r.success, "{name} failed: {r:?}");
            assert_eq!(r.messages_delivered, 12, "{name}");
            assert_eq!(r.payload_bytes, 12 * 24, "{name}");
            assert!(r.frames_sent >= 12, "{name}");
            assert!(r.link.sent > 0, "{name} records link counters");
        }
    }

    #[test]
    fn same_seed_replays_bit_identically() {
        let driver = SuiteDriver::new();
        let r1 = driver.run(&base(STOP_AND_WAIT)).unwrap();
        let r2 = driver.run(&base(STOP_AND_WAIT)).unwrap();
        assert_eq!(r1, r2, "bit-identical replay");
    }

    #[test]
    fn partition_and_repair_fault_schedule() {
        let scenario = base(STOP_AND_WAIT)
            .with_fault(Fault::partition(50))
            .with_fault(Fault::repair(5_000, 3));
        let r = SuiteDriver::new().run(&scenario).unwrap();
        assert!(r.success, "session survives the outage: {r:?}");
        assert!(r.retransmissions > 0, "outage forces retransmission");
        assert!(r.elapsed > 5_000, "completion only after repair");
    }

    #[test]
    fn unknown_protocol_and_topology_error() {
        let driver = SuiteDriver::new();
        assert!(!driver.supports("nonesuch"));
        assert!(matches!(
            driver.run(&base("nonesuch")),
            Err(ScenarioError::UnknownProtocol(_))
        ));
        let bad_topo = base(STOP_AND_WAIT).with_topology(TopologySpec::Line { nodes: 3 });
        assert!(matches!(
            driver.run(&bad_topo),
            Err(ScenarioError::UnsupportedTopology(_))
        ));
    }

    #[test]
    fn compiled_frame_path_replays_interpreted_runs_exactly() {
        use netdsl_netsim::scenario::FramePath;
        // Same seed + same semantics ⇒ the whole simulation transcript
        // (and therefore the result) is identical — the strongest
        // end-to-end statement of codec equivalence.
        let driver = SuiteDriver::new();
        for name in [STOP_AND_WAIT, GO_BACK_N, SELECTIVE_REPEAT] {
            let interpreted = base(name);
            let mut compiled = base(name);
            compiled.protocol = compiled.protocol.clone().with_engine(EngineConfig {
                frame_path: FramePath::Compiled,
                ..EngineConfig::default()
            });
            let ri = driver.run(&interpreted).unwrap();
            let rc = driver.run(&compiled).unwrap();
            assert_eq!(ri, rc, "{name}: frame paths diverge");
            assert!(rc.success, "{name}");
        }
    }

    #[test]
    fn compiled_fsm_path_replays_typestate_runs_exactly() {
        // The control-FSM twin of the frame-path test above: the same
        // scenario driven by the typestate machine and by the compiled
        // transition-table stepper produces an identical result —
        // timing, frame counts, retransmissions, link counters and all.
        let driver = SuiteDriver::new();
        for seed in [3, 11, 42] {
            let typestate = base(STOP_AND_WAIT).with_seed(seed);
            let mut compiled = base(STOP_AND_WAIT).with_seed(seed);
            compiled.protocol = compiled.protocol.clone().with_engine(EngineConfig {
                fsm_path: FsmPath::Compiled,
                ..EngineConfig::default()
            });
            let rt = driver.run(&typestate).unwrap();
            let rc = driver.run(&compiled).unwrap();
            assert_eq!(rt, rc, "seed {seed}: fsm paths diverge");
            assert!(rc.success, "seed {seed}");
        }
    }

    #[test]
    fn compiled_fsm_path_refused_without_a_driver() {
        // Protocols without a reified control spec must refuse the axis
        // loudly rather than silently measure the typestate engine.
        let driver = SuiteDriver::new();
        for name in [GO_BACK_N, SELECTIVE_REPEAT, BASELINE] {
            let mut scenario = base(name);
            scenario.protocol = scenario.protocol.clone().with_engine(EngineConfig {
                fsm_path: FsmPath::Compiled,
                ..EngineConfig::default()
            });
            assert!(
                matches!(driver.run(&scenario), Err(ScenarioError::Unsupported(_))),
                "{name} must refuse FsmPath::Compiled"
            );
        }
    }

    #[test]
    fn reverse_only_fault_hits_the_ack_path() {
        // Kill only the ack path from the start; the sender must
        // retransmit even though data flows cleanly.
        let scenario = base(STOP_AND_WAIT).with_fault(Fault::link(
            0,
            FaultDirection::Reverse,
            LinkConfig::lossy(3, 0.5),
        ));
        let r = SuiteDriver::new().run(&scenario).unwrap();
        assert!(r.success);
        assert!(r.retransmissions > 0, "lost acks force retries");
    }
}
