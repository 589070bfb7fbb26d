//! Event-loop harness: connects protocol endpoints to the simulator.
//!
//! An [`Endpoint`] is a mailbox-style protocol participant: it reacts to
//! delivered frames and timer expiries through an [`Io`] handle that lets
//! it transmit, arm timers, read the virtual clock and deliver payloads
//! to the application. Two endpoints joined by a duplex link form a
//! session ([`SessionEndpoints`]), and every session in this crate runs
//! through **one** event loop, the crate-private pump: [`Duplex`] (one
//! session of any two endpoints), the suite's solo driver, which is
//! also the golden recorder's run, and the batch driver, which runs its
//! sessions back to back on one reset simulator, all call it. A scenario's faults are events
//! in the same queue as its frames and timers, so each lands on its
//! scheduled tick (`docs/FAULTS.md` §2).
//!
//! The session, not its receiver, owns what is delivered: every
//! [`Io::deliver`] lands in the session's [`Sink`], which checks each
//! payload as it arrives (`ChkPacket` at the application boundary).

use std::cell::OnceCell;

use netdsl_netsim::scenario::{
    apply_fault, FaultNode, FaultPlan, FaultWorld, Messages, PlannedFault, Scenario, TrafficPattern,
};
use netdsl_netsim::{EventRef, LinkConfig, LinkId, NodeId, Simulator, Tick, TimerToken};

/// I/O capabilities handed to an endpoint during a callback.
#[derive(Debug)]
pub struct Io<'a> {
    sim: &'a mut Simulator,
    sink: &'a mut Sink,
    node: NodeId,
    out_link: LinkId,
}

impl<'a> Io<'a> {
    /// The handle for a callback on `node`, one of `w`'s two: the pump
    /// wraps every dispatch in one of these.
    fn on(sim: &'a mut Simulator, sink: &'a mut Sink, w: &FaultWorld, node: NodeId) -> Io<'a> {
        let out_link = if node == w.node_a {
            w.link_ab
        } else {
            w.link_ba
        };
        Io {
            sim,
            sink,
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
    /// arena buffer — the allocation-free send path every suite
    /// endpoint uses.
    pub fn send_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        let frame = self.sim.alloc_payload_with(fill);
        self.sim.send_ref(self.out_link, frame);
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

    /// Hands the next in-order payload to the application: the
    /// session's [`Sink`]. Receivers call it once per message, in order.
    pub fn deliver(&mut self, payload: &[u8]) {
        self.sink.deliver(payload);
    }

    /// Records the state digest of this endpoint, which has just
    /// handled the frame being dispatched; `digest` sees what the
    /// session has delivered so far. It runs only under a transcript
    /// recorder (see
    /// [`Simulator::flight_digest`](netdsl_netsim::Simulator::flight_digest)
    /// and [`crate::golden`]), so the call costs one branch otherwise.
    pub fn record_digest(&mut self, digest: impl FnOnce(&Sink) -> u64) {
        let sink = &*self.sink;
        self.sim.flight_digest(self.node, || digest(sink));
    }

    /// Records a protocol-level flight event (ARQ timeout, retransmit,
    /// codec reject, …) with this endpoint's node as the subject. A
    /// no-op unless the scenario installed a flight recorder, ring or
    /// transcript ([`netdsl_netsim::ObsConfig`]), so endpoints call it
    /// unconditionally.
    pub fn flight_event(&mut self, kind: netdsl_netsim::FlightKind, detail: u64) {
        self.sim.flight_protocol_event(kind, self.node, detail);
    }
}

/// Where a session's receiver delivers ([`Io::deliver`]). A scenario's
/// sink checks that each delivery is the offered message at the next
/// position ([`TrafficPattern::is_message`]) and keeps only a count;
/// from the first that is not, it keeps copies, so the delivered
/// sequence stays exact. A [`Duplex::new`] world's sink keeps a copy of
/// every delivery.
#[derive(Debug, Default)]
pub struct Sink {
    /// The traffic deliveries are checked against; `None` collects.
    expect: Option<TrafficPattern>,
    /// `expect`'s offered messages, generated at the first
    /// [`Sink::fold`] and kept for the session's later ones.
    offered: OnceCell<Messages>,
    /// Leading deliveries, each the offered message at its position.
    matched: usize,
    /// Copies of every delivery after the matched ones.
    copies: Vec<Vec<u8>>,
}

impl Sink {
    fn deliver(&mut self, payload: &[u8]) {
        match self.expect {
            Some(traffic)
                if self.copies.is_empty() && traffic.is_message(self.matched, payload) =>
            {
                self.matched += 1;
            }
            _ => self.copies.push(payload.to_vec()),
        }
    }

    /// Forgets every delivery, gone with the receiver's restarted node.
    fn clear(&mut self) {
        self.matched = 0;
        self.copies.clear();
    }

    /// Deliveries so far.
    pub fn len(&self) -> usize {
        self.matched + self.copies.len()
    }

    /// `true` before the first delivery.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` while every delivery has been the offered message at its
    /// position (never for a sink that collects, which checks nothing).
    pub(crate) fn in_order(&self) -> bool {
        self.expect.is_some() && self.copies.is_empty()
    }

    /// Payload bytes delivered.
    pub(crate) fn payload_bytes(&self) -> u64 {
        let size = self.expect.map_or(0, |t| t.size);
        let copied: usize = self.copies.iter().map(Vec::len).sum();
        (self.matched * size + copied) as u64
    }

    /// The copies kept: every delivery of a collecting sink, or a
    /// checking sink's deliveries from its first mismatch on.
    pub fn copies(&self) -> &[Vec<u8>] {
        &self.copies
    }

    /// Folds `f` over every delivery, in order; a checking sink reads
    /// its matched messages from the offered table (the golden digests'
    /// path).
    pub(crate) fn fold<T>(&self, init: T, f: impl FnMut(T, &[u8]) -> T) -> T {
        let offered = self
            .expect
            .map(|t| self.offered.get_or_init(|| t.generate()));
        let matched = offered.iter().flat_map(|m| m.iter().take(self.matched));
        matched
            .chain(self.copies.iter().map(Vec::as_slice))
            .fold(init, f)
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

/// One session on its simulator: its endpoints, where they sit, what
/// they delivered, its deadline and fault plan, and its clock.
#[derive(Debug)]
pub(crate) struct Slot<S> {
    pub(crate) ends: S,
    pub(crate) world: FaultWorld,
    pub(crate) sink: Sink,
    deadline: Tick,
    /// The expanded primitive fault plan. The simulator queue holds one
    /// [`EventRef::Fault`] per action, carrying its index here.
    faults: Vec<PlannedFault>,
    /// The tick of the session's last dispatched event: its `elapsed`.
    /// Cancelled timers and dead events the simulator skips are not
    /// events of the session and never move it.
    now: Tick,
}

impl<S: SessionEndpoints> Slot<S> {
    /// Wires `ends` into `sim` as two new nodes joined by a duplex
    /// `link`, with no deadline, no faults and a collecting sink.
    pub(crate) fn wire(sim: &mut Simulator, link: LinkConfig, ends: S) -> Self {
        let node_a = sim.add_node();
        let node_b = sim.add_node();
        let (link_ab, link_ba) = sim.add_duplex(node_a, node_b, link);
        Slot {
            ends,
            world: FaultWorld {
                node_a,
                node_b,
                link_ab,
                link_ba,
            },
            sink: Sink::default(),
            deadline: Tick::MAX,
            faults: Vec::new(),
            now: 0,
        }
    }

    /// Wires `ends` into `sim` as `scenario`'s session: its
    /// observability request, link, deadline and expanded fault plan,
    /// each action queued as a fault event on its tick, and a sink that
    /// checks every delivery against its traffic. The faults are queued
    /// before the endpoints start, so on its tick a fault comes before
    /// every frame and timer. `sim` is fresh or reset, on `scenario`'s
    /// seed.
    pub(crate) fn for_scenario(sim: &mut Simulator, scenario: &Scenario, ends: S) -> Self {
        sim.set_obs(scenario.protocol.obs);
        let mut slot = Slot::wire(sim, scenario.link.clone(), ends);
        slot.sink.expect = Some(scenario.traffic);
        slot.deadline = scenario.deadline;
        slot.faults = FaultPlan::from_scenario(scenario).actions;
        for (index, fault) in slot.faults.iter().enumerate() {
            sim.schedule_fault(fault.at, index);
        }
        slot
    }

    /// Starts both endpoints, A first, before any event is popped.
    pub(crate) fn start(&mut self, sim: &mut Simulator) {
        let w = self.world;
        let sink = &mut self.sink;
        self.ends.start_a(&mut Io::on(sim, sink, &w, w.node_a));
        self.ends.start_b(&mut Io::on(sim, sink, &w, w.node_b));
    }

    /// The one event loop. Pops one event at a time with
    /// [`Simulator::step_ref`] and dispatches it: a frame or a timer to
    /// the endpoint on its node, a fault through [`apply_fault`] (a
    /// restart resets and re-starts its endpoint, and a restart of B
    /// also empties the sink). It stops once both
    /// endpoints are done, an event passed the deadline or the queue
    /// drained, so a fault due after that never lands. Returns the
    /// session's clock: the tick of its last dispatched event.
    pub(crate) fn pump(&mut self, sim: &mut Simulator) -> Tick {
        let w = self.world;
        let sink = &mut self.sink;
        while !self.ends.done() && self.now <= self.deadline {
            let Some(event) = sim.step_ref() else {
                break;
            };
            self.now = sim.now();
            match event {
                EventRef::Frame { node, payload, .. } => {
                    // The payload buffer is detached from the arena (a
                    // move, not a copy), handed over by reference and
                    // recycled afterwards: no allocation in steady state.
                    let frame = sim.detach_payload(payload);
                    let io = &mut Io::on(sim, sink, &w, node);
                    if node == w.node_a {
                        self.ends.frame_a(&frame, io);
                    } else {
                        self.ends.frame_b(&frame, io);
                    }
                    sim.recycle_payload(frame);
                }
                EventRef::Timer { node, token } => {
                    let io = &mut Io::on(sim, sink, &w, node);
                    if node == w.node_a {
                        self.ends.timer_a(token, io);
                    } else {
                        self.ends.timer_b(token, io);
                    }
                }
                EventRef::Fault { index } => match apply_fault(sim, &w, &self.faults[index]) {
                    Some(FaultNode::A) => {
                        self.ends.reset_a();
                        self.ends.start_a(&mut Io::on(sim, sink, &w, w.node_a));
                    }
                    Some(FaultNode::B) => {
                        self.ends.reset_b();
                        sink.clear();
                        self.ends.start_b(&mut Io::on(sim, sink, &w, w.node_b));
                    }
                    None => {}
                },
            }
        }
        self.now
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
    /// Builds the two-node world with symmetric link configuration.
    pub fn new(seed: u64, config: LinkConfig, a: A, b: B) -> Self {
        let mut sim = Simulator::new(seed);
        let slot = Slot::wire(&mut sim, config, (a, b));
        Duplex { sim, slot }
    }

    /// The world `scenario` runs in: its seed, link, observability
    /// request, deadline and fault plan.
    pub(crate) fn for_scenario(scenario: &Scenario, a: A, b: B) -> Self {
        let mut sim = Simulator::new(scenario.seed);
        let slot = Slot::for_scenario(&mut sim, scenario, (a, b));
        Duplex { sim, slot }
    }

    /// Starts both endpoints and runs until both report done, the
    /// simulation quiesces, or an event passes `deadline` (that event
    /// is still dispatched). Returns the tick of the last dispatched
    /// event (0 if none).
    pub fn run(&mut self, deadline: Tick) -> Tick {
        self.slot.deadline = deadline;
        self.slot.start(&mut self.sim);
        self.slot.pump(&mut self.sim)
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

    /// What B delivered. A [`Duplex::new`] world keeps a copy of every
    /// delivery ([`Sink::copies`]).
    pub fn delivered(&self) -> &Sink {
        &self.slot.sink
    }

    /// Tears the world down into the copies its sink kept, moved out
    /// rather than copied.
    pub fn into_delivered(self) -> Vec<Vec<u8>> {
        self.slot.sink.copies
    }

    /// The A→B link id (for stats lookups).
    pub fn link_ab(&self) -> LinkId {
        self.slot.world.link_ab
    }
}

/// A suite sender's transmission statistics: stop-and-wait (either
/// engine), Go-Back-N and Selective Repeat count the same three things.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Data frames transmitted (including retransmissions).
    pub frames_sent: u64,
    /// Retransmissions only.
    pub retransmissions: u64,
    /// Messages acknowledged end to end.
    pub delivered: u64,
}

/// Outcome of a complete transfer on a [`Duplex`] world: what the
/// stop-and-wait, Go-Back-N and Selective Repeat `run_transfer`s
/// return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferOutcome {
    /// Did every message arrive (in order, exactly once)?
    pub success: bool,
    /// Virtual ticks consumed.
    pub elapsed: u64,
    /// Sender statistics.
    pub stats: SenderStats,
    /// Payloads the receiver delivered.
    pub delivered: Vec<Vec<u8>>,
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
    fn delivery_prefix_rule() {
        let traffic = TrafficPattern::messages(3, 2);
        let offered = traffic.generate();
        let sink = |deliveries: &[&[u8]]| {
            let mut sink = Sink {
                expect: Some(traffic),
                ..Sink::default()
            };
            deliveries.iter().for_each(|d| sink.deliver(d));
            sink
        };
        let prefix = sink(&[offered.get(0), offered.get(1)]);
        assert!(prefix.in_order() && prefix.len() == 2 && prefix.copies().is_empty());
        let complete = sink(&offered.iter().collect::<Vec<_>>());
        assert!(complete.in_order() && complete.payload_bytes() == 6);

        let corrupted = sink(&[offered.get(0), &[3, 9]]);
        assert!(!corrupted.in_order());
        let seen = corrupted.fold(Vec::new(), |mut seen, m| {
            seen.push(m.to_vec());
            seen
        });
        assert_eq!(seen, [offered.get(0), &[3, 9]]);

        let too_many = sink(&[
            offered.get(0),
            offered.get(1),
            offered.get(2),
            offered.get(2),
        ]);
        assert!(!too_many.in_order() && too_many.len() == 4);
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
