//! Stop-and-wait ARQ sender/receiver endpoints over the simulator.
//!
//! The sender's control state is held **in the typestate machine** (so
//! the static transition discipline of [`super::typestate`] is what
//! actually runs); the event-loop interface requires storing it in an
//! enum over states, which is the standard bridge between typestate code
//! and dynamic event sources — every state *change* still goes through a
//! typed transition.

use std::ops::Range;

use netdsl_adapt::PolicyRto;
use netdsl_netsim::scenario::{FramePath, Messages};
use netdsl_netsim::{FlightKind, RetransmitPolicy, TimerToken};
use netdsl_obs::Counter;

use crate::codec::Frame;
use crate::driver::{Duplex, Endpoint, Io, SenderStats, TransferOutcome};

use super::typestate::{new_sender, Finish, Ok_, Retry, Send, Sender, Timeout, ValidAck};
use super::{typestate, ArqFrame};

/// ARQ-level metrics (`netdsl-obs`): inert until the registry is
/// enabled, one sharded relaxed add each otherwise.
static ARQ_TIMEOUTS: Counter = Counter::new("arq.timeouts");
static ARQ_RETRANSMISSIONS: Counter = Counter::new("arq.retransmissions");
static ARQ_FRAMES_REJECTED: Counter = Counter::new("arq.frames_rejected");

/// The sender's control state, one arm per typestate.
#[derive(Debug)]
enum St {
    Ready(Sender<typestate::Ready>),
    Wait(Sender<typestate::Wait>),
    Done(Sender<typestate::Sent>),
    Failed(Sender<typestate::TimedOut>),
    /// Transient marker while a transition is in flight.
    Poisoned,
}

/// Stop-and-wait sending endpoint: transmits `messages` in order, each
/// acknowledged before the next, with timeout-driven retransmission.
#[derive(Debug)]
pub struct SwSender {
    messages: Messages,
    next_msg: usize,
    st: St,
    timeout: u64,
    max_retries: u32,
    attempt: u64,
    stats: SenderStats,
    path: FramePath,
    policy: RetransmitPolicy,
    rto: PolicyRto,
}

impl SwSender {
    /// Creates a sender for `messages` with the given retransmission
    /// timeout (ticks) and retry budget per message.
    pub fn new(messages: impl Into<Messages>, timeout: u64, max_retries: u32) -> Self {
        SwSender {
            messages: messages.into(),
            next_msg: 0,
            st: St::Ready(new_sender()),
            timeout,
            max_retries,
            attempt: 0,
            stats: SenderStats::default(),
            path: FramePath::default(),
            policy: RetransmitPolicy::Fixed,
            rto: PolicyRto::Fixed(timeout),
        }
    }

    /// Selects the frame codec path (builder style).
    #[must_use]
    pub fn with_frame_path(mut self, path: FramePath) -> Self {
        self.path = path;
        self
    }

    /// Selects the retransmission-timer policy (builder style). The
    /// default [`RetransmitPolicy::Fixed`] arms every timer with the
    /// constructor's `timeout`, exactly as before the policy axis
    /// existed.
    #[must_use]
    pub fn with_retransmit(mut self, policy: RetransmitPolicy) -> Self {
        self.rto = PolicyRto::from_policy(&policy, self.timeout);
        self.policy = policy;
        self
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// The messages this sender offers (what a completed transfer must
    /// have delivered).
    pub fn messages(&self) -> &Messages {
        &self.messages
    }

    /// `true` if every message was acknowledged.
    pub fn succeeded(&self) -> bool {
        matches!(self.st, St::Done(_))
    }

    /// `true` if the retry budget was exhausted on some message.
    pub fn failed(&self) -> bool {
        matches!(self.st, St::Failed(_))
    }

    /// The sequence number the machine ended on (final state only).
    pub fn final_seq(&self) -> Option<u8> {
        match &self.st {
            St::Done(m) => Some(m.data().seq),
            St::Failed(m) => Some(m.data().seq),
            _ => None,
        }
    }

    /// Transmit the current message and arm the timer (Ready → Wait).
    /// `retransmit` poisons the adaptive RTT sample per Karn's rule.
    fn launch(&mut self, io: &mut Io<'_>, retransmit: bool) {
        let St::Ready(machine) = std::mem::replace(&mut self.st, St::Poisoned) else {
            unreachable!("launch only called in Ready");
        };
        if self.next_msg >= self.messages.len() {
            self.st = St::Done(machine.step(Finish));
            return;
        }
        let seq = machine.data().seq;
        // The wire frame borrows the payload from the message store,
        // encoded straight into an arena buffer; SEND copies nothing.
        ArqFrame::send_data(io, self.path, seq, self.messages.get(self.next_msg));
        let waiting = machine.step(Send);
        self.stats.frames_sent += 1;
        self.attempt += 1;
        self.rto.on_send(io.now(), retransmit);
        io.set_timer(self.rto.rto(), self.attempt);
        self.st = St::Wait(waiting);
    }
}

impl Endpoint for SwSender {
    fn start(&mut self, io: &mut Io<'_>) {
        self.launch(io, false);
    }

    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>) {
        // Acks arriving outside Wait (e.g. duplicated acks after we moved
        // on) are ignored without touching the state.
        if !matches!(self.st, St::Wait(_)) {
            return;
        }
        let St::Wait(machine) = std::mem::replace(&mut self.st, St::Poisoned) else {
            unreachable!("checked above");
        };
        let awaited = machine.data().seq;
        match ValidAck::validate_via(self.path, frame, awaited) {
            Some(ack) => {
                io.cancel_timer(self.attempt);
                self.rto.on_ack(io.now());
                let ready = machine.step(Ok_ { ack });
                self.stats.delivered += 1;
                self.next_msg += 1;
                self.st = St::Ready(ready);
                self.launch(io, false);
            }
            None => {
                // Invalid or stale frame while waiting: stay in Wait (the
                // timer will drive a retransmission). Semantically a no-op
                // event, not a FAIL — FAIL is used when the budget allows
                // an *immediate* resend on provable rejection, which the
                // lossy-channel deployment cannot distinguish from noise.
                self.st = St::Wait(machine);
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, io: &mut Io<'_>) {
        if token != self.attempt {
            return; // stale timer from an earlier attempt
        }
        if !matches!(self.st, St::Wait(_)) {
            return;
        }
        let St::Wait(machine) = std::mem::replace(&mut self.st, St::Poisoned) else {
            unreachable!("checked above");
        };
        // TIMEOUT : Wait → TimedOut.
        let timed_out = machine.step(Timeout);
        ARQ_TIMEOUTS.incr();
        io.flight_event(FlightKind::ArqTimeout, self.attempt);
        self.rto.on_timeout();
        if timed_out.data().retries >= self.max_retries {
            self.st = St::Failed(timed_out);
            return;
        }
        // RETRY : TimedOut → Ready, then relaunch (retransmission).
        let ready = timed_out.step(Retry);
        self.stats.retransmissions += 1;
        ARQ_RETRANSMISSIONS.incr();
        io.flight_event(FlightKind::Retransmit, self.stats.retransmissions);
        self.st = St::Ready(ready);
        self.launch(io, true);
    }

    fn done(&self) -> bool {
        matches!(self.st, St::Done(_) | St::Failed(_))
    }

    fn reset(&mut self) {
        // Total state loss, except: the message store (the application
        // re-offers the workload), the accumulated stats (observational,
        // like the simulator trace), and the attempt counter (monotone
        // timer tokens must never alias retracted pre-crash timers).
        self.next_msg = 0;
        self.st = St::Ready(new_sender());
        // Learned SRTT/backoff dies with the node.
        self.rto = PolicyRto::from_policy(&self.policy, self.timeout);
    }
}

/// Stop-and-wait receiving endpoint: delivers in-order payloads exactly
/// once ([`Io::deliver`]), acknowledging every valid data frame.
#[derive(Debug, Default)]
pub struct SwReceiver {
    expected: u8,
    delivered: usize,
    acks_sent: u64,
    rejected: u64,
    expect_total: usize,
    path: FramePath,
}

impl SwReceiver {
    /// Creates a receiver expecting `expect_total` messages (used only
    /// for the `done` signal; the protocol itself is open-ended).
    pub fn new(expect_total: usize) -> Self {
        SwReceiver {
            expect_total,
            ..SwReceiver::default()
        }
    }

    /// Selects the frame codec path (builder style).
    #[must_use]
    pub fn with_frame_path(mut self, path: FramePath) -> Self {
        self.path = path;
        self
    }

    /// The indices of the messages delivered to the application, in
    /// order: `0..n`.
    pub fn delivered(&self) -> Range<usize> {
        0..self.delivered
    }

    /// Frames rejected (corrupt, duplicate, or out of order).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Acks transmitted.
    pub fn acks_sent(&self) -> u64 {
        self.acks_sent
    }
}

impl Endpoint for SwReceiver {
    fn start(&mut self, _io: &mut Io<'_>) {}

    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>) {
        ArqFrame::decode_with(self.path, frame, |decoded| match decoded {
            Ok(Frame::Data { seq, payload }) => {
                if seq == self.expected {
                    // In-order: deliver exactly once, ack, advance.
                    io.deliver(payload);
                    self.delivered += 1;
                    ArqFrame::send_ack(io, self.path, seq);
                    self.acks_sent += 1;
                    self.expected = self.expected.wrapping_add(1);
                } else if seq == self.expected.wrapping_sub(1) {
                    // Duplicate of the last delivered packet (its ack was
                    // lost): re-ack but do not re-deliver.
                    ArqFrame::send_ack(io, self.path, seq);
                    self.acks_sent += 1;
                    self.rejected += 1;
                    ARQ_FRAMES_REJECTED.incr();
                } else {
                    self.rejected += 1;
                    ARQ_FRAMES_REJECTED.incr();
                }
            }
            Ok(Frame::Ack { .. }) => {
                self.rejected += 1; // acks don't belong at the receiver
                ARQ_FRAMES_REJECTED.incr();
            }
            Err(_) => {
                // Checksum/structure failure: the declarative validation
                // rejected the frame before any protocol processing —
                // §3.4 item 2 in action.
                self.rejected += 1;
                ARQ_FRAMES_REJECTED.incr();
                io.flight_event(FlightKind::CodecReject, frame.len() as u64);
            }
        });
    }

    fn on_timer(&mut self, _token: TimerToken, _io: &mut Io<'_>) {}

    fn done(&self) -> bool {
        self.delivered >= self.expect_total
    }

    fn reset(&mut self) {
        // Total state loss: everything delivered so far is gone with
        // the crashed node; only the configuration survives.
        self.expected = 0;
        self.delivered = 0;
        self.acks_sent = 0;
        self.rejected = 0;
    }
}

/// Convenience harness: runs a complete stop-and-wait transfer of
/// `messages` over a link with the given configuration and seed.
pub fn run_transfer(
    messages: impl Into<Messages>,
    config: netdsl_netsim::LinkConfig,
    seed: u64,
    timeout: u64,
    max_retries: u32,
    deadline: u64,
) -> TransferOutcome {
    let messages: Messages = messages.into();
    let n = messages.len();
    let mut duplex = Duplex::new(
        seed,
        config,
        SwSender::new(messages, timeout, max_retries),
        SwReceiver::new(n),
    );
    let elapsed = duplex.run(deadline);
    // Compare the collected copies with the sender's own message store,
    // then move them out.
    let success = duplex.a().succeeded() && duplex.a().messages() == duplex.delivered().copies();
    let stats = duplex.a().stats();
    TransferOutcome {
        success,
        elapsed,
        stats,
        delivered: duplex.into_delivered(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdsl_netsim::LinkConfig;

    fn msgs(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("message-{i}").into_bytes())
            .collect()
    }

    #[test]
    fn perfect_link_delivers_everything_without_retransmission() {
        let out = run_transfer(msgs(10), LinkConfig::reliable(2), 1, 50, 5, 10_000);
        assert!(out.success);
        assert_eq!(out.delivered.len(), 10);
        assert_eq!(out.stats.retransmissions, 0);
        assert_eq!(out.stats.frames_sent, 10);
    }

    #[test]
    fn lossy_link_recovers_via_retransmission() {
        let out = run_transfer(msgs(20), LinkConfig::lossy(2, 0.3), 7, 50, 20, 1_000_000);
        assert!(out.success, "30% loss must be survivable: {out:?}");
        assert_eq!(out.delivered.len(), 20);
        assert!(
            out.stats.retransmissions > 0,
            "loss must have forced retries"
        );
    }

    #[test]
    fn corrupting_link_never_delivers_garbage() {
        let out = run_transfer(
            msgs(10),
            LinkConfig::reliable(2).with_corrupt(0.4),
            3,
            50,
            30,
            1_000_000,
        );
        assert!(out.success);
        for (i, m) in out.delivered.iter().enumerate() {
            assert_eq!(m, &format!("message-{i}").into_bytes(), "payload integrity");
        }
    }

    #[test]
    fn duplicating_link_never_double_delivers() {
        let out = run_transfer(
            msgs(15),
            LinkConfig::reliable(2).with_duplicate(0.5),
            5,
            50,
            10,
            1_000_000,
        );
        assert!(out.success);
        assert_eq!(out.delivered.len(), 15, "exactly-once delivery");
    }

    #[test]
    fn hopeless_link_fails_cleanly() {
        let out = run_transfer(msgs(3), LinkConfig::lossy(2, 1.0), 1, 20, 3, 100_000);
        assert!(!out.success);
        assert!(out.delivered.is_empty());
        // 1 initial + 3 retries on message 0:
        assert_eq!(out.stats.frames_sent, 4);
    }

    #[test]
    fn harsh_channel_stress() {
        let out = run_transfer(msgs(30), LinkConfig::harsh(3), 11, 120, 50, 5_000_000);
        assert!(out.success, "harsh channel: {:?}", out.stats);
        assert_eq!(out.delivered.len(), 30);
    }

    #[test]
    fn empty_message_list_finishes_immediately() {
        let out = run_transfer(
            Vec::<Vec<u8>>::new(),
            LinkConfig::reliable(1),
            0,
            10,
            1,
            100,
        );
        assert!(out.success);
        assert_eq!(out.stats.frames_sent, 0);
    }

    #[test]
    fn sequence_wraps_beyond_256_messages() {
        let out = run_transfer(msgs(300), LinkConfig::reliable(1), 2, 20, 3, 1_000_000);
        assert!(out.success, "8-bit sequence space wraps transparently");
        assert_eq!(out.delivered.len(), 300);
    }
}
