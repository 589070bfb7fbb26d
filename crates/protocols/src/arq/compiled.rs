//! Stop-and-wait sender driven by the compiled transition-table engine.
//!
//! The third execution of the same §3.4 control machine: where
//! [`super::typestate`] checks transitions at compile time and the
//! reified [`paper_sender_spec`] is what the model checker explores,
//! [`FsmSender`] *runs* that reified spec on the endpoint hot path — the
//! lowered [`CompiledFsm`] steps `SEND`/`OK`/`TIMEOUT`/`RETRY`/`FINISH`
//! for every frame, so the object the verifier exhausts is literally the
//! object the simulator executes ("one spec, executed and
//! model-checked"). Retry budgets and message bookkeeping stay outside
//! the spec: they are deployment policy, not protocol control state.
//!
//! Behaviour is identical to [`SwSender`](super::session::SwSender)
//! (same frames, same timers, same statistics, and the same
//! `ArqTimeout` and `Retransmit` flight events) — a scenario replayed
//! on either engine produces the same transcript and the same flight
//! recording, which `netdsl-netsim`'s
//! [`FsmPath`](netdsl_netsim::scenario::FsmPath) axis, the suite
//! driver's replay test and `tests/flight_parity.rs` turn into an
//! end-to-end equivalence statement.

use std::sync::OnceLock;

use netdsl_core::fsm::{paper_sender_spec, EventId, StateId, VarId};
use netdsl_core::fsm_compiled::{lower, CompiledFsm, Stepper};
use netdsl_netsim::scenario::{FramePath, Messages};
use netdsl_netsim::{FlightKind, TimerToken};

use crate::driver::{Endpoint, Io, SenderStats};

use super::typestate::ValidAck;
use super::ArqFrame;

/// The lowered §3.4 sender artifact (8-bit sequence space), shared by
/// every [`FsmSender`] — lowering happens once per process, like the
/// cached compiled codecs in [`crate::codec`].
pub fn sender_fsm() -> &'static CompiledFsm {
    static FSM: OnceLock<CompiledFsm> = OnceLock::new();
    FSM.get_or_init(|| lower(&paper_sender_spec(255)).expect("paper sender spec lowers"))
}

/// Pre-resolved ids into [`sender_fsm`], so the event loop never does a
/// name lookup.
#[derive(Debug, Clone, Copy)]
struct Ids {
    send: EventId,
    ok: EventId,
    timeout: EventId,
    finish: EventId,
    retry: EventId,
    wait: StateId,
    timeout_state: StateId,
    seq: VarId,
}

impl Ids {
    fn resolve(fsm: &CompiledFsm) -> Ids {
        let spec = fsm.spec();
        let ev = |n: &str| spec.event_id(n).expect("paper sender event");
        Ids {
            send: ev("SEND"),
            ok: ev("OK"),
            timeout: ev("TIMEOUT"),
            finish: ev("FINISH"),
            retry: ev("RETRY"),
            wait: spec.state_id("Wait").expect("paper sender state"),
            timeout_state: spec.state_id("Timeout").expect("paper sender state"),
            seq: fsm.var_index("seq").expect("paper sender variable"),
        }
    }
}

/// Stop-and-wait sending endpoint whose control state lives in a
/// [`Stepper`] over the compiled paper spec. Drop-in replacement for
/// [`SwSender`](super::session::SwSender), selected per scenario via
/// [`netdsl_netsim::scenario::FsmPath::Compiled`].
#[derive(Debug)]
pub struct FsmSender {
    messages: Messages,
    next_msg: usize,
    stepper: Stepper<'static>,
    ids: Ids,
    timeout: u64,
    max_retries: u32,
    attempt: u64,
    /// Retransmissions of the current message (reset on OK) — budget
    /// policy kept outside the spec, mirroring the typestate
    /// machine's `retries` field.
    retries: u32,
    failed: bool,
    stats: SenderStats,
    path: FramePath,
}

impl FsmSender {
    /// Creates a sender for `messages` with the given retransmission
    /// timeout (ticks) and retry budget per message.
    pub fn new(messages: impl Into<Messages>, timeout: u64, max_retries: u32) -> Self {
        let fsm = sender_fsm();
        FsmSender {
            messages: messages.into(),
            next_msg: 0,
            stepper: Stepper::new(fsm),
            ids: Ids::resolve(fsm),
            timeout,
            max_retries,
            attempt: 0,
            retries: 0,
            failed: false,
            stats: SenderStats::default(),
            path: FramePath::default(),
        }
    }

    /// Selects the frame codec path (builder style).
    #[must_use]
    pub fn with_frame_path(mut self, path: FramePath) -> Self {
        self.path = path;
        self
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// The messages this sender offers.
    pub fn messages(&self) -> &Messages {
        &self.messages
    }

    /// `true` if every message was acknowledged (the machine reached its
    /// terminal `Sent` state).
    pub fn succeeded(&self) -> bool {
        self.stepper.is_terminal()
    }

    /// `true` if the retry budget was exhausted on some message.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// The sequence number the machine ended on (final state only).
    pub fn final_seq(&self) -> Option<u8> {
        self.done().then_some(self.seq())
    }

    /// The current sequence number, straight from the FSM register.
    fn seq(&self) -> u8 {
        self.stepper.reg(self.ids.seq) as u8
    }

    fn step(&mut self, event: EventId) {
        self.stepper
            .apply(event)
            .expect("endpoint only drives spec-legal events");
    }

    /// Transmit the current message and arm the timer (Ready → Wait), or
    /// FINISH when the message list is exhausted.
    fn launch(&mut self, io: &mut Io<'_>) {
        if self.next_msg >= self.messages.len() {
            self.step(self.ids.finish);
            return;
        }
        let seq = self.seq();
        ArqFrame::send_data(io, self.path, seq, self.messages.get(self.next_msg));
        self.step(self.ids.send);
        self.stats.frames_sent += 1;
        self.attempt += 1;
        io.set_timer(self.timeout, self.attempt);
    }
}

impl Endpoint for FsmSender {
    fn start(&mut self, io: &mut Io<'_>) {
        self.launch(io);
    }

    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>) {
        // Acks outside Wait (duplicates after we moved on) are ignored.
        if self.stepper.state() != self.ids.wait {
            return;
        }
        let awaited = self.seq();
        // Same ChkPacket discipline as the typestate sender: only a
        // validated ack of the awaited sequence number drives OK.
        if ValidAck::validate_via(self.path, frame, awaited).is_some() {
            io.cancel_timer(self.attempt);
            self.step(self.ids.ok); // Wait → Ready, seq := seq + 1 (spec effect)
            self.stats.delivered += 1;
            self.next_msg += 1;
            self.retries = 0;
            self.launch(io);
        }
        // Invalid or stale frames: stay in Wait, the timer drives a
        // retransmission — identical to SwSender's no-op arm.
    }

    fn on_timer(&mut self, token: TimerToken, io: &mut Io<'_>) {
        if token != self.attempt || self.stepper.state() != self.ids.wait {
            return;
        }
        self.step(self.ids.timeout); // Wait → Timeout
        io.flight_event(FlightKind::ArqTimeout, self.attempt);
        if self.retries >= self.max_retries {
            self.failed = true;
            debug_assert_eq!(self.stepper.state(), self.ids.timeout_state);
            return;
        }
        self.step(self.ids.retry); // Timeout → Ready
        self.retries += 1;
        self.stats.retransmissions += 1;
        io.flight_event(FlightKind::Retransmit, self.stats.retransmissions);
        self.launch(io);
    }

    fn done(&self) -> bool {
        self.stepper.is_terminal() || self.failed
    }

    fn reset(&mut self) {
        // As `SwSender::reset`: position, machine state and retries go;
        // the message store, stats and the monotone attempt counter stay.
        self.next_msg = 0;
        self.stepper.reset();
        self.retries = 0;
        self.failed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::super::session::{SwReceiver, SwSender};
    use super::*;
    use crate::driver::Duplex;
    use netdsl_netsim::LinkConfig;

    fn msgs(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("message-{i}").into_bytes())
            .collect()
    }

    fn run_fsm(
        messages: Vec<Vec<u8>>,
        config: LinkConfig,
        seed: u64,
        timeout: u64,
        max_retries: u32,
        deadline: u64,
    ) -> (bool, SenderStats, Vec<Vec<u8>>, u64) {
        let n = messages.len();
        let mut duplex = Duplex::new(
            seed,
            config,
            FsmSender::new(messages, timeout, max_retries),
            SwReceiver::new(n),
        );
        let elapsed = duplex.run(deadline);
        let ok = duplex.a().succeeded() && duplex.a().messages() == duplex.delivered().copies();
        let stats = duplex.a().stats();
        (ok, stats, duplex.into_delivered(), elapsed)
    }

    #[test]
    fn perfect_link_transfer_completes() {
        let (ok, stats, delivered, _) =
            run_fsm(msgs(10), LinkConfig::reliable(2), 1, 50, 5, 10_000);
        assert!(ok);
        assert_eq!(delivered.len(), 10);
        assert_eq!(stats.retransmissions, 0);
        assert_eq!(stats.frames_sent, 10);
    }

    #[test]
    fn lossy_link_recovers_via_retransmission() {
        let (ok, stats, delivered, _) =
            run_fsm(msgs(20), LinkConfig::lossy(2, 0.3), 7, 50, 20, 1_000_000);
        assert!(ok, "30% loss must be survivable");
        assert_eq!(delivered.len(), 20);
        assert!(stats.retransmissions > 0);
    }

    #[test]
    fn hopeless_link_fails_cleanly() {
        let (ok, stats, delivered, _) =
            run_fsm(msgs(3), LinkConfig::lossy(2, 1.0), 1, 20, 3, 100_000);
        assert!(!ok);
        assert!(delivered.is_empty());
        assert_eq!(stats.frames_sent, 4, "1 initial + 3 retries on message 0");
    }

    #[test]
    fn empty_message_list_finishes_immediately() {
        let (ok, stats, _, _) = run_fsm(vec![], LinkConfig::reliable(1), 0, 10, 1, 100);
        assert!(ok);
        assert_eq!(stats.frames_sent, 0);
    }

    #[test]
    fn sequence_wraps_beyond_256_messages() {
        let (ok, _, delivered, _) =
            run_fsm(msgs(300), LinkConfig::reliable(1), 2, 20, 3, 1_000_000);
        assert!(ok, "8-bit sequence space wraps via the spec's Add effect");
        assert_eq!(delivered.len(), 300);
    }

    /// The strongest unit-level equivalence statement: identical stats,
    /// delivery and timing against the typestate sender on identical
    /// seeded worlds, across clean, lossy and duplicating links.
    #[test]
    fn replays_typestate_sender_exactly() {
        for (config, seed) in [
            (LinkConfig::reliable(2), 1u64),
            (LinkConfig::lossy(2, 0.3), 7),
            (LinkConfig::reliable(2).with_duplicate(0.5), 5),
            (LinkConfig::harsh(3), 11),
        ] {
            let n = 25;
            let mut ts = Duplex::new(
                seed,
                config.clone(),
                SwSender::new(msgs(n), 50, 30),
                SwReceiver::new(n),
            );
            let ts_elapsed = ts.run(2_000_000);
            let (ok, stats, delivered, elapsed) =
                run_fsm(msgs(n), config.clone(), seed, 50, 30, 2_000_000);
            assert_eq!(ts.a().succeeded(), ok, "{config:?}");
            assert_eq!(ts.a().stats(), stats, "{config:?}");
            assert_eq!(ts.delivered().copies(), &delivered[..], "{config:?}");
            assert_eq!(ts_elapsed, elapsed, "{config:?}");
            assert_eq!(ts.a().final_seq(), Some((n % 256) as u8), "{config:?}");
        }
    }

    #[test]
    fn failed_budget_matches_typestate_final_state() {
        let mut ts = Duplex::new(
            1,
            LinkConfig::lossy(2, 1.0),
            SwSender::new(msgs(3), 20, 3),
            SwReceiver::new(3),
        );
        ts.run(100_000);
        let mut fsm = Duplex::new(
            1,
            LinkConfig::lossy(2, 1.0),
            FsmSender::new(msgs(3), 20, 3),
            SwReceiver::new(3),
        );
        fsm.run(100_000);
        assert!(ts.a().failed() && fsm.a().failed());
        assert_eq!(ts.a().final_seq(), fsm.a().final_seq());
        assert!(fsm.a().done() && !fsm.a().succeeded());
    }
}
