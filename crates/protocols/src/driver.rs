//! Event-loop harness: connects protocol endpoints to the simulator.
//!
//! An [`Endpoint`] is a mailbox-style protocol participant: it reacts to
//! delivered frames and timer expiries through an [`Io`] handle that lets
//! it transmit, arm timers and read the virtual clock. Two endpoints
//! joined by a duplex link form a session ([`SessionEndpoints`]), and
//! every session in this crate runs through **one** event loop, the
//! crate-private pump: [`Duplex`] (one session of any two endpoints),
//! the suite's solo driver and golden recorder, and the multiplexed
//! batch driver all call it. A solo run is a batch of one session.

use netdsl_netsim::scenario::{
    apply_fault, FaultNode, FaultPlan, FaultWorld, PlannedFault, Scenario,
};
use netdsl_netsim::{
    EventRef, LinkConfig, LinkId, NodeId, SessionId, SimCore, Simulator, Tick, TimerToken, Verdict,
};

/// I/O capabilities handed to an endpoint during a callback.
#[derive(Debug)]
pub struct Io<'a> {
    sim: &'a mut Simulator,
    node: NodeId,
    out_link: LinkId,
}

impl<'a> Io<'a> {
    /// Builds the handle for one endpoint callback. Crate-internal: the
    /// pump wraps every dispatch in one of these.
    pub(crate) fn new(sim: &'a mut Simulator, node: NodeId, out_link: LinkId) -> Io<'a> {
        Io {
            sim,
            node,
            out_link,
        }
    }
}

impl Io<'_> {
    /// Transmits a frame on this endpoint's outgoing link.
    pub fn send(&mut self, frame: Vec<u8>) {
        self.sim.send(self.out_link, frame);
    }

    /// Transmits a frame encoded by `fill` directly into a pooled
    /// arena buffer — the allocation-free send path. Endpoints that
    /// honour the engine core (see [`Io::core`]) use this on
    /// [`SimCore::Pooled`] and fall back to [`Io::send`] on
    /// [`SimCore::Legacy`].
    pub fn send_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        let frame = self.sim.alloc_payload_with(fill);
        self.sim.send_ref(self.out_link, frame);
    }

    /// Which engine core the underlying simulator runs on.
    pub fn core(&self) -> SimCore {
        self.sim.core()
    }

    /// Arms a timer that will fire `delay` ticks from now with `token`.
    pub fn set_timer(&mut self, delay: Tick, token: TimerToken) {
        self.sim.set_timer(self.node, delay, token);
    }

    /// Cancels pending timers carrying `token`.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.sim.cancel_timer(self.node, token);
    }

    /// Current virtual time.
    pub fn now(&self) -> Tick {
        self.sim.now()
    }

    /// Attaches a validation verdict and endpoint state digest to the
    /// frame currently being dispatched. `annotation` runs only while
    /// the simulator has golden-trace capture on (see
    /// [`Simulator::record_golden`](netdsl_netsim::Simulator::record_golden)
    /// and [`crate::golden`]), so the call costs one branch otherwise.
    pub fn annotate_golden(&mut self, annotation: impl FnOnce() -> (Verdict, u64)) {
        self.sim.annotate_delivery(annotation);
    }

    /// Records a protocol-level flight event (ARQ timeout, retransmit,
    /// codec reject, …) with this endpoint's node as the subject. A
    /// no-op unless the scenario installed a flight recorder
    /// ([`netdsl_netsim::ObsConfig`]), so endpoints call it
    /// unconditionally.
    pub fn flight_event(&mut self, kind: netdsl_netsim::FlightKind, detail: u64) {
        self.sim.flight_protocol_event(kind, self.node, detail);
    }
}

/// A protocol participant driven by frames and timers.
pub trait Endpoint {
    /// Called once before the first event, to kick things off.
    fn start(&mut self, io: &mut Io<'_>);

    /// A frame arrived (possibly corrupted, duplicated or reordered by
    /// the network — validating it is the endpoint's job).
    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>);

    /// A timer armed via [`Io::set_timer`] fired.
    fn on_timer(&mut self, token: TimerToken, io: &mut Io<'_>);

    /// `true` once this endpoint needs no more events (used by the pump
    /// to detect completion).
    fn done(&self) -> bool;

    /// Discards all protocol state, returning the endpoint to its
    /// freshly-constructed condition — the *total state loss* a
    /// [`FaultKind::Restart`](netdsl_netsim::FaultKind::Restart)
    /// models. The driver calls [`Endpoint::start`] again afterwards.
    /// Endpoints that allocate monotone timer tokens keep their token
    /// counters so post-restart timers never alias retracted ones.
    /// Default: no-op (stateless endpoints).
    fn reset(&mut self) {}
}

/// One session's pair of endpoints, as the pump dispatches to them —
/// object-safe, so a batch can mix protocols. `a` is the sender side
/// (transmits on the session's A→B link), `b` the receiver side.
pub trait SessionEndpoints {
    /// Kicks off the A endpoint (called once, before any event).
    fn start_a(&mut self, io: &mut Io<'_>);
    /// Kicks off the B endpoint.
    fn start_b(&mut self, io: &mut Io<'_>);
    /// A frame arrived at the A endpoint.
    fn frame_a(&mut self, frame: &[u8], io: &mut Io<'_>);
    /// A frame arrived at the B endpoint.
    fn frame_b(&mut self, frame: &[u8], io: &mut Io<'_>);
    /// A timer fired on the A endpoint's node.
    fn timer_a(&mut self, token: TimerToken, io: &mut Io<'_>);
    /// A timer fired on the B endpoint's node.
    fn timer_b(&mut self, token: TimerToken, io: &mut Io<'_>);
    /// Total state loss on the A endpoint (a crash-restart fault). The
    /// pump calls `start_a` again afterwards.
    fn reset_a(&mut self);
    /// Total state loss on the B endpoint.
    fn reset_b(&mut self);
    /// `true` once both endpoints need no more events.
    fn done(&self) -> bool;
}

/// Any two endpoints, dispatched as they are (what [`Duplex`] runs).
impl<A: Endpoint, B: Endpoint> SessionEndpoints for (A, B) {
    fn start_a(&mut self, io: &mut Io<'_>) {
        self.0.start(io);
    }
    fn start_b(&mut self, io: &mut Io<'_>) {
        self.1.start(io);
    }
    fn frame_a(&mut self, frame: &[u8], io: &mut Io<'_>) {
        self.0.on_frame(frame, io);
    }
    fn frame_b(&mut self, frame: &[u8], io: &mut Io<'_>) {
        self.1.on_frame(frame, io);
    }
    fn timer_a(&mut self, token: TimerToken, io: &mut Io<'_>) {
        self.0.on_timer(token, io);
    }
    fn timer_b(&mut self, token: TimerToken, io: &mut Io<'_>) {
        self.1.on_timer(token, io);
    }
    fn reset_a(&mut self) {
        self.0.reset();
    }
    fn reset_b(&mut self) {
        self.1.reset();
    }
    fn done(&self) -> bool {
        self.0.done() && self.1.done()
    }
}

/// A boxed session (the batch's type-erased slots) dispatches through
/// its box.
impl<S: SessionEndpoints + ?Sized> SessionEndpoints for Box<S> {
    fn start_a(&mut self, io: &mut Io<'_>) {
        (**self).start_a(io);
    }
    fn start_b(&mut self, io: &mut Io<'_>) {
        (**self).start_b(io);
    }
    fn frame_a(&mut self, frame: &[u8], io: &mut Io<'_>) {
        (**self).frame_a(frame, io);
    }
    fn frame_b(&mut self, frame: &[u8], io: &mut Io<'_>) {
        (**self).frame_b(frame, io);
    }
    fn timer_a(&mut self, token: TimerToken, io: &mut Io<'_>) {
        (**self).timer_a(token, io);
    }
    fn timer_b(&mut self, token: TimerToken, io: &mut Io<'_>) {
        (**self).timer_b(token, io);
    }
    fn reset_a(&mut self) {
        (**self).reset_a();
    }
    fn reset_b(&mut self) {
        (**self).reset_b();
    }
    fn done(&self) -> bool {
        (**self).done()
    }
}

/// One session inside the pump: its endpoints, where they sit in the
/// simulator, its deadline and fault schedule, and its clock.
#[derive(Debug)]
pub(crate) struct Slot<S> {
    pub(crate) ends: S,
    pub(crate) world: FaultWorld,
    deadline: Tick,
    /// The expanded primitive fault schedule, sorted and cut to
    /// `at < deadline` (a later fault could only land after the
    /// session's closing event).
    faults: Vec<PlannedFault>,
    next_fault: usize,
    /// The tick of the session's last dispatched event: its `elapsed`.
    /// Cancelled timers and dead events the simulator skips are not
    /// events of the session and never move it.
    pub(crate) now: Tick,
    open: bool,
}

impl<S: SessionEndpoints> Slot<S> {
    /// Wires `ends` into `sim` as `session`'s two new nodes joined by a
    /// duplex `link`, with no deadline and no faults.
    pub(crate) fn wire(sim: &mut Simulator, session: SessionId, link: LinkConfig, ends: S) -> Self {
        let node_a = sim.add_node_for(session);
        let node_b = sim.add_node_for(session);
        let (link_ab, link_ba) = sim.add_duplex(node_a, node_b, link);
        Slot {
            ends,
            world: FaultWorld {
                node_a,
                node_b,
                link_ab,
                link_ba,
            },
            deadline: Tick::MAX,
            faults: Vec::new(),
            next_fault: 0,
            now: 0,
            open: false,
        }
    }

    /// Takes `scenario`'s deadline and expanded fault plan.
    pub(crate) fn schedule(mut self, scenario: &Scenario) -> Self {
        let deadline = scenario.deadline;
        self.deadline = deadline;
        self.faults = FaultPlan::from_scenario(scenario).actions;
        self.faults.retain(|f| f.at < deadline);
        self
    }

    /// The world `scenario` runs in alone: a simulator on its seed,
    /// engine core and observability request, with the scenario's one
    /// session wired in and scheduled.
    pub(crate) fn alone(scenario: &Scenario, ends: S) -> (Simulator, Self) {
        let mut sim = Simulator::with_core(scenario.seed, scenario.protocol.sim_core);
        sim.set_obs(scenario.protocol.obs);
        let session = sim.default_session();
        let slot = Slot::wire(&mut sim, session, scenario.link.clone(), ends).schedule(scenario);
        (sim, slot)
    }

    /// Starts both endpoints, A first, before any event is popped.
    pub(crate) fn start(&mut self, sim: &mut Simulator) {
        let w = self.world;
        self.ends.start_a(&mut Io::new(sim, w.node_a, w.link_ab));
        self.ends.start_b(&mut Io::new(sim, w.node_b, w.link_ba));
    }

    /// The N = 1 entry: pumps this session alone until it closes and
    /// returns its clock. No result table, no node map: the pump runs
    /// over this one slot.
    pub(crate) fn pump_alone(&mut self, sim: &mut Simulator) -> Tick {
        pump(sim, std::slice::from_mut(self), |_, _, _| {});
        self.now
    }

    /// Whether the session still takes events: some endpoint is not
    /// done, and its last event did not pass the deadline.
    fn live(&self) -> bool {
        !self.ends.done() && self.now <= self.deadline
    }

    /// Bookkeeping after each dispatched event: the session clock moves
    /// to the event's tick; every fault strictly before that tick lands
    /// (the one-event overshoot of `docs/FAULTS.md`: a fault applies
    /// after the first event past it), a restart resetting and
    /// re-starting its endpoint; and the session closes once both
    /// endpoints are done or the event passed the deadline.
    fn settle(&mut self, sim: &mut Simulator) {
        self.now = sim.now();
        while let Some(fault) = self.faults.get(self.next_fault) {
            if fault.at >= self.now {
                break;
            }
            self.next_fault += 1;
            let w = self.world;
            match apply_fault(sim, &w, fault) {
                Some(FaultNode::A) => {
                    self.ends.reset_a();
                    self.ends.start_a(&mut Io::new(sim, w.node_a, w.link_ab));
                }
                Some(FaultNode::B) => {
                    self.ends.reset_b();
                    self.ends.start_b(&mut Io::new(sim, w.node_b, w.link_ba));
                }
                None => {}
            }
        }
        self.open = self.live();
    }
}

/// The one event loop. Pops one event at a time with
/// [`Simulator::step_ref`] and dispatches it to the session owning its
/// node — slot `k` owns nodes `2k` and `2k + 1`, as every caller wires
/// them — then settles that session. `close` runs once per slot, at
/// the moment the session closes (at entry for one that is already
/// done), with the simulator as it stands then: that is when drivers
/// fold the session's result. Events popped for a closed session while
/// its neighbours keep running are dropped and cannot touch it.
/// Returns once every session has closed; any still open when the
/// queue drains close then.
pub(crate) fn pump<S: SessionEndpoints>(
    sim: &mut Simulator,
    slots: &mut [Slot<S>],
    mut close: impl FnMut(&Simulator, usize, &Slot<S>),
) {
    // A legacy-core run is a measurement baseline: it reconstructs the
    // whole pre-simcore hot path, including the byte-at-a-time checksum
    // engine and the per-frame buffer free. Checksum values are
    // identical either way, so results never depend on the mode.
    let legacy = sim.core() == SimCore::Legacy;
    let restore_fast_path = legacy && !netdsl_wire::checksum::set_reference_mode(true);
    let mut open = 0;
    for (k, slot) in slots.iter_mut().enumerate() {
        slot.open = slot.live();
        if slot.open {
            open += 1;
        } else {
            close(sim, k, slot);
        }
    }
    while open > 0 {
        let Some(event) = sim.step_ref() else {
            break;
        };
        let (EventRef::Frame { node, .. } | EventRef::Timer { node, .. }) = event;
        let k = node.index() / 2;
        let slot = &mut slots[k];
        let w = slot.world;
        debug_assert!(
            node == w.node_a || node == w.node_b,
            "node {node:?} outside slot {k}"
        );
        match event {
            EventRef::Frame { payload, .. } => {
                if !slot.open {
                    sim.release_payload(payload);
                    continue;
                }
                // The payload buffer is detached from the arena (a move,
                // not a copy), handed over by reference and recycled
                // afterwards: no allocation in steady state.
                let frame = sim.detach_payload(payload);
                if node == w.node_a {
                    slot.ends
                        .frame_a(&frame, &mut Io::new(sim, w.node_a, w.link_ab));
                } else {
                    slot.ends
                        .frame_b(&frame, &mut Io::new(sim, w.node_b, w.link_ba));
                }
                if !legacy {
                    sim.recycle_payload(frame);
                }
            }
            EventRef::Timer { token, .. } => {
                if !slot.open {
                    continue;
                }
                if node == w.node_a {
                    slot.ends
                        .timer_a(token, &mut Io::new(sim, w.node_a, w.link_ab));
                } else {
                    slot.ends
                        .timer_b(token, &mut Io::new(sim, w.node_b, w.link_ba));
                }
            }
        }
        slot.settle(sim);
        if !slot.open {
            open -= 1;
            close(sim, k, slot);
        }
    }
    for (k, slot) in slots.iter_mut().enumerate() {
        if slot.open {
            slot.open = false;
            close(sim, k, slot);
        }
    }
    if restore_fast_path {
        netdsl_wire::checksum::set_reference_mode(false);
    }
}

/// Two endpoints joined by a duplex link: one session on its own
/// simulator, run through the pump.
#[derive(Debug)]
pub struct Duplex<A, B> {
    sim: Simulator,
    slot: Slot<(A, B)>,
}

impl<A: Endpoint, B: Endpoint> Duplex<A, B> {
    /// Builds the two-node world with symmetric link configuration on
    /// the default (pooled) engine core.
    pub fn new(seed: u64, config: LinkConfig, a: A, b: B) -> Self {
        Duplex::with_core(seed, config, SimCore::default(), a, b)
    }

    /// Builds the two-node world on an explicit engine core (the two
    /// cores replay each other bit-identically; `Legacy` is the E13
    /// measurement baseline).
    pub fn with_core(seed: u64, config: LinkConfig, core: SimCore, a: A, b: B) -> Self {
        let mut sim = Simulator::with_core(seed, core);
        let session = sim.default_session();
        let slot = Slot::wire(&mut sim, session, config, (a, b));
        Duplex { sim, slot }
    }

    /// The world `scenario` runs in: its seed, engine core, link,
    /// observability request, deadline and fault plan.
    pub(crate) fn for_scenario(scenario: &Scenario, a: A, b: B) -> Self {
        let (sim, slot) = Slot::alone(scenario, (a, b));
        Duplex { sim, slot }
    }

    /// Starts both endpoints and runs until both report done, the
    /// simulation quiesces, or an event passes `deadline` (that event
    /// is still dispatched). Returns the tick of the last dispatched
    /// event (0 if none).
    pub fn run(&mut self, deadline: Tick) -> Tick {
        self.slot.start(&mut self.sim);
        self.resume(deadline)
    }

    /// The left endpoint.
    pub fn a(&self) -> &A {
        &self.slot.ends.0
    }

    /// The right endpoint.
    pub fn b(&self) -> &B {
        &self.slot.ends.1
    }

    /// The simulator (for link statistics after a run).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable simulator access between pump phases — used by failure-
    /// injection tests to repair or degrade links mid-session.
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// Tears the world down into its endpoints (and simulator), so
    /// callers can move results (e.g. a receiver's delivered payloads)
    /// out instead of copying them.
    pub fn into_parts(self) -> (A, B, Simulator) {
        let (a, b) = self.slot.ends;
        (a, b, self.sim)
    }

    /// Continues pumping without re-running `start` (for staged runs
    /// around a mid-session reconfiguration). Semantics otherwise match
    /// [`Duplex::run`].
    pub fn resume(&mut self, deadline: Tick) -> Tick {
        self.slot.deadline = deadline;
        self.slot.pump_alone(&mut self.sim)
    }

    /// The duplex world's fault coordinates, for
    /// [`netdsl_netsim::apply_fault`].
    pub fn fault_world(&self) -> FaultWorld {
        self.slot.world
    }

    /// Restarts endpoint A after a crash: total protocol state loss
    /// ([`Endpoint::reset`]) followed by a fresh [`Endpoint::start`].
    pub fn restart_a(&mut self) {
        self.slot.ends.reset_a();
        let w = self.slot.world;
        self.slot
            .ends
            .start_a(&mut Io::new(&mut self.sim, w.node_a, w.link_ab));
    }

    /// Restarts endpoint B after a crash (see [`Duplex::restart_a`]).
    pub fn restart_b(&mut self) {
        self.slot.ends.reset_b();
        let w = self.slot.world;
        self.slot
            .ends
            .start_b(&mut Io::new(&mut self.sim, w.node_b, w.link_ba));
    }

    /// The A→B link id (for stats lookups).
    pub fn link_ab(&self) -> LinkId {
        self.slot.world.link_ab
    }

    /// The B→A link id.
    pub fn link_ba(&self) -> LinkId {
        self.slot.world.link_ba
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping endpoint: sends "ping", waits for "pong", done.
    struct Ping {
        got_pong: bool,
    }

    impl Endpoint for Ping {
        fn start(&mut self, io: &mut Io<'_>) {
            io.send(b"ping".to_vec());
        }
        fn on_frame(&mut self, frame: &[u8], _io: &mut Io<'_>) {
            if frame == b"pong" {
                self.got_pong = true;
            }
        }
        fn on_timer(&mut self, _t: TimerToken, _io: &mut Io<'_>) {}
        fn done(&self) -> bool {
            self.got_pong
        }
    }

    /// Pong endpoint: answers any frame with "pong".
    struct Pong {
        replied: bool,
    }

    impl Endpoint for Pong {
        fn start(&mut self, _io: &mut Io<'_>) {}
        fn on_frame(&mut self, _frame: &[u8], io: &mut Io<'_>) {
            io.send(b"pong".to_vec());
            self.replied = true;
        }
        fn on_timer(&mut self, _t: TimerToken, _io: &mut Io<'_>) {}
        fn done(&self) -> bool {
            self.replied
        }
    }

    #[test]
    fn ping_pong_completes() {
        let mut d = Duplex::new(
            0,
            LinkConfig::reliable(3),
            Ping { got_pong: false },
            Pong { replied: false },
        );
        let end = d.run(100);
        assert!(d.a().got_pong);
        assert!(d.b().replied);
        assert_eq!(end, 6, "two 3-tick hops");
    }

    #[test]
    fn run_respects_deadline_on_lossy_silence() {
        // Total loss: ping never arrives; the pump must stop (quiescence).
        let mut d = Duplex::new(
            0,
            LinkConfig::lossy(3, 1.0),
            Ping { got_pong: false },
            Pong { replied: false },
        );
        d.run(1000);
        assert!(!d.a().got_pong);
    }

    #[test]
    fn timers_reach_endpoints() {
        struct TimerUser {
            fired: bool,
        }
        impl Endpoint for TimerUser {
            fn start(&mut self, io: &mut Io<'_>) {
                io.set_timer(5, 42);
            }
            fn on_frame(&mut self, _: &[u8], _: &mut Io<'_>) {}
            fn on_timer(&mut self, token: TimerToken, _: &mut Io<'_>) {
                assert_eq!(token, 42);
                self.fired = true;
            }
            fn done(&self) -> bool {
                self.fired
            }
        }
        struct Inert;
        impl Endpoint for Inert {
            fn start(&mut self, _: &mut Io<'_>) {}
            fn on_frame(&mut self, _: &[u8], _: &mut Io<'_>) {}
            fn on_timer(&mut self, _: TimerToken, _: &mut Io<'_>) {}
            fn done(&self) -> bool {
                true
            }
        }
        let mut d = Duplex::new(
            0,
            LinkConfig::reliable(1),
            TimerUser { fired: false },
            Inert,
        );
        d.run(100);
        assert!(d.a().fired);
    }
}
