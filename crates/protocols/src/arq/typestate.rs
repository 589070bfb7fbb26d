//! The faithful typestate encoding of the paper's §3.4 sender.
//!
//! Paper (dependent types)            | here (typestate Rust)
//! -----------------------------------|---------------------------------
//! `data SendSt = Ready … \| Wait …`  | marker types [`Ready`], [`Wait`], [`TimedOut`], [`Sent`]
//! `SendTrans : SendSt → SendSt → ⋆`  | [`Send`], [`Ok_`], [`Fail`], [`Timeout`], [`Finish`], [`Retry`] implementing `Transition` with typed endpoints
//! `OK : ChkPacket … → SendTrans …`   | [`Ok_`] demands a [`ValidAck`], constructible only by validating a received frame against the awaited sequence number
//! `execTrans`                        | [`netdsl_core::typestate::Machine::step`]
//! `sendPacket : … → IO (NextSent s)` | [`send_packet`] returning [`NextSent`]
//!
//! The guarantees claimed in §3.4 hold structurally:
//!
//! 1. the packet format is the declarative [`super::arq_spec`];
//! 2. no processing of unverified packets — [`Ok_`] cannot be built
//!    without a [`ValidAck`] witness;
//! 3. invalid transitions do not compile (e.g. `TIMEOUT` after `OK` —
//!    see the compile-fail test below);
//! 4. [`send_packet`]'s return type proves it ends ready-for-next or
//!    timed-out, never stuck waiting.

use netdsl_core::typestate::{Machine, State, Transition};

use super::ArqFrame;

/// Sender state: ready to send the packet numbered `data.seq`.
#[derive(Debug)]
pub struct Ready;
/// Sender state: awaiting the acknowledgement of `data.seq`.
#[derive(Debug)]
pub struct Wait;
/// Sender state: the wait timed out.
#[derive(Debug)]
pub struct TimedOut;
/// Sender state: transmission finished (terminal).
#[derive(Debug)]
pub struct Sent;

impl State for Ready {
    const NAME: &'static str = "Ready";
}
impl State for Wait {
    const NAME: &'static str = "Wait";
}
impl State for TimedOut {
    const NAME: &'static str = "Timeout";
}
impl State for Sent {
    const NAME: &'static str = "Sent";
}

/// Runtime data shared by every sender state (the state *index* — the
/// current sequence number — lives here; the control state lives in the
/// type).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SenderData {
    /// Sequence number of the packet being (or about to be) sent.
    pub seq: u8,
    /// Retransmissions of the current packet so far.
    pub retries: u32,
    /// Total frames handed to the network.
    pub frames_sent: u64,
    /// Packets acknowledged.
    pub acked: u64,
}

/// A machine in a given control state.
pub type Sender<S> = Machine<S, SenderData>;

/// Creates a fresh sender, ready to send sequence number 0.
pub fn new_sender() -> Sender<Ready> {
    Machine::new(SenderData::default())
}

/// Witness that a frame is a checksum-valid acknowledgement of the
/// *awaited* sequence number. The only constructor is
/// [`ValidAck::validate`] — the `ChkPacket` discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidAck {
    seq: u8,
}

impl ValidAck {
    /// Validates `frame` as an ACK of exactly `expected`.
    ///
    /// Returns `None` for corrupt frames, data frames, or acks of any
    /// other sequence number.
    pub fn validate(frame: &[u8], expected: u8) -> Option<ValidAck> {
        ValidAck::validate_via(
            netdsl_netsim::scenario::FramePath::Interpreted,
            frame,
            expected,
        )
    }

    /// As [`ValidAck::validate`], decoding through the selected frame
    /// path (the witness discipline is identical either way).
    pub fn validate_via(
        path: netdsl_netsim::scenario::FramePath,
        frame: &[u8],
        expected: u8,
    ) -> Option<ValidAck> {
        match ArqFrame::decode_via(path, frame) {
            Ok(ArqFrame::Ack { seq }) if seq == expected => Some(ValidAck { seq }),
            _ => None,
        }
    }

    /// The acknowledged sequence number.
    pub fn seq(self) -> u8 {
        self.seq
    }
}

/// `SEND : List Byte → SendTrans (Ready seq) (Wait seq)`
///
/// The payload goes on the wire straight from the sender's message
/// store; the transition carries only the state change, so it copies
/// nothing. Stop-and-wait means no second `SEND` while an
/// acknowledgement is outstanding — rejected by the type checker:
///
/// ```compile_fail
/// use netdsl_protocols::arq::typestate::{new_sender, Send};
/// let m = new_sender();
/// let m = m.step(Send); // Ready → Wait
/// let m = m.step(Send); // ERROR: Send needs Ready
/// ```
#[derive(Debug)]
pub struct Send;

impl Transition<SenderData> for Send {
    type From = Ready;
    type To = Wait;

    fn apply(self, d: &mut SenderData) {
        d.frames_sent += 1;
    }
}

/// `OK : ChkPacket (Pkt seq …) → SendTrans (Wait seq) (Ready (seq+1))`
///
/// Constructing one *requires* the [`ValidAck`] witness.
#[derive(Debug)]
pub struct Ok_ {
    /// Proof the awaited acknowledgement arrived intact.
    pub ack: ValidAck,
}

impl Transition<SenderData> for Ok_ {
    type From = Wait;
    type To = Ready;

    fn apply(self, d: &mut SenderData) {
        debug_assert_eq!(self.ack.seq(), d.seq, "witness matches machine index");
        d.seq = d.seq.wrapping_add(1);
        d.retries = 0;
        d.acked += 1;
    }
}

/// `FAIL : SendTrans (Wait seq) (Ready seq)` — give up on this wait (e.g.
/// a negative acknowledgement) and return to `Ready` with the *same*
/// sequence number.
#[derive(Debug)]
pub struct Fail;

impl Transition<SenderData> for Fail {
    type From = Wait;
    type To = Ready;

    fn apply(self, d: &mut SenderData) {
        d.retries += 1;
    }
}

/// `TIMEOUT : SendTrans (Wait seq) (Timeout seq)`
///
/// §3.4 item 3: "timeout cannot occur if an acknowledgement has been
/// received and acted on". After `OK` the machine is `Ready`, and
/// `Timeout` only applies to `Wait`, so the violation is a compile error:
///
/// ```compile_fail
/// use netdsl_protocols::arq::typestate::{new_sender, Send, Ok_, Timeout, ValidAck};
/// use netdsl_protocols::arq::ArqFrame;
/// let m = new_sender();
/// let m = m.step(Send);                     // Ready → Wait
/// let ack = ValidAck::validate(&ArqFrame::Ack { seq: 0 }.encode(), 0).unwrap();
/// let m = m.step(Ok_ { ack });              // Wait → Ready
/// let m = m.step(Timeout);                  // ERROR: Timeout needs Wait
/// ```
#[derive(Debug)]
pub struct Timeout;

impl Transition<SenderData> for Timeout {
    type From = Wait;
    type To = TimedOut;

    fn apply(self, _: &mut SenderData) {}
}

/// `FINISH : SendTrans (Ready seq) (Sent seq)`
#[derive(Debug)]
pub struct Finish;

impl Transition<SenderData> for Finish {
    type From = Ready;
    type To = Sent;

    fn apply(self, _: &mut SenderData) {}
}

/// Recovery transition `Timeout → Ready` (the caller of the paper's
/// `sendPacket` holds a `SendMachine (Timeout seq)` in the `Failure` arm
/// and may "try again"; this is the try-again edge).
#[derive(Debug)]
pub struct Retry;

impl Transition<SenderData> for Retry {
    type From = TimedOut;
    type To = Ready;

    fn apply(self, d: &mut SenderData) {
        d.retries += 1;
    }
}

/// The paper's `NextSent seq`: after attempting a send, the machine is
/// *either* ready for the next packet *or* timed out — provably nothing
/// else.
#[derive(Debug)]
pub enum NextSent {
    /// `NextReady : SendMachine (ReadyToSend (seq+1)) → NextSent seq`
    NextReady(Sender<Ready>),
    /// `Failure : SendMachine (Timeout seq) → NextSent seq`
    Failure(Sender<TimedOut>),
}

/// The synchronous channel `send_packet` drives: transmit a frame, then
/// block until a reply frame or a timeout.
pub trait ArqChannel {
    /// Hands a frame to the network.
    fn transmit(&mut self, frame: &[u8]);

    /// Blocks until a frame arrives for the sender (`Some`) or the
    /// retransmission timeout expires (`None`).
    fn await_reply(&mut self) -> Option<Vec<u8>>;
}

/// The paper's `sendPacket`: sends `payload` as the machine's current
/// sequence number and waits for the acknowledgement, retrying on
/// invalid replies up to `max_fails` times.
///
/// ```text
/// sendPacket : (seq : Byte) → List Byte →
///              SendMachine (ReadyToSend seq) → IO (NextSent seq)
/// ```
///
/// The return type guarantees the §3.4 item-4 property: the machine ends
/// consistently — `NextReady` (acknowledged, sequence advanced) or
/// `Failure` (timed out, ready to retry) — and the type checker enforces
/// that both arms are constructed through legal transitions only.
pub fn send_packet<C: ArqChannel>(
    machine: Sender<Ready>,
    payload: &[u8],
    channel: &mut C,
    max_fails: u32,
) -> NextSent {
    let seq = machine.data().seq;
    let frame = ArqFrame::Data {
        seq,
        payload: payload.to_vec(),
    }
    .encode();

    // SEND : Ready → Wait
    let mut waiting = machine.step(Send);
    channel.transmit(&frame);

    let mut fails = 0;
    loop {
        match channel.await_reply() {
            Some(reply) => match ValidAck::validate(&reply, seq) {
                // OK : Wait → Ready(seq+1), witness in hand.
                Some(ack) => return NextSent::NextReady(waiting.step(Ok_ { ack })),
                // Invalid/corrupt/foreign reply: FAIL back to Ready and
                // retransmit, unless the fail budget is spent.
                None => {
                    fails += 1;
                    if fails > max_fails {
                        return NextSent::Failure(waiting.step(Timeout));
                    }
                    let ready = waiting.step(Fail);
                    channel.transmit(&frame);
                    waiting = ready.step(Send);
                }
            },
            // TIMEOUT : Wait → Timeout.
            None => return NextSent::Failure(waiting.step(Timeout)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scripted channel: pops pre-programmed replies.
    struct Script {
        transmitted: Vec<Vec<u8>>,
        replies: Vec<Option<Vec<u8>>>,
    }

    impl Script {
        fn new(replies: Vec<Option<Vec<u8>>>) -> Self {
            Script {
                transmitted: Vec::new(),
                replies,
            }
        }
    }

    impl ArqChannel for Script {
        fn transmit(&mut self, frame: &[u8]) {
            self.transmitted.push(frame.to_vec());
        }
        fn await_reply(&mut self) -> Option<Vec<u8>> {
            if self.replies.is_empty() {
                None
            } else {
                self.replies.remove(0)
            }
        }
    }

    #[test]
    fn happy_path_advances_sequence() {
        let m = new_sender();
        let ack = ArqFrame::Ack { seq: 0 }.encode();
        let mut ch = Script::new(vec![Some(ack)]);
        match send_packet(m, b"hello", &mut ch, 3) {
            NextSent::NextReady(m) => {
                assert_eq!(m.data().seq, 1);
                assert_eq!(m.data().acked, 1);
                assert_eq!(m.data().frames_sent, 1);
            }
            NextSent::Failure(_) => panic!("should have been acknowledged"),
        }
        assert_eq!(ch.transmitted.len(), 1);
    }

    #[test]
    fn timeout_yields_failure_with_seq_preserved() {
        let m = new_sender();
        let mut ch = Script::new(vec![None]);
        match send_packet(m, b"x", &mut ch, 3) {
            NextSent::Failure(m) => {
                assert_eq!(m.data().seq, 0, "sequence not advanced");
                assert_eq!(m.state_name(), "Timeout");
            }
            NextSent::NextReady(_) => panic!("nothing acknowledged"),
        }
    }

    #[test]
    fn corrupt_replies_trigger_fail_then_retransmit() {
        let m = new_sender();
        let good = ArqFrame::Ack { seq: 0 }.encode();
        let mut corrupt = good.clone();
        corrupt[2] ^= 0xFF;
        let wrong_seq = ArqFrame::Ack { seq: 7 }.encode();
        let mut ch = Script::new(vec![Some(corrupt), Some(wrong_seq), Some(good)]);
        match send_packet(m, b"y", &mut ch, 5) {
            NextSent::NextReady(m) => {
                assert_eq!(m.data().seq, 1);
                assert_eq!(m.data().retries, 0, "OK resets the retry counter");
            }
            NextSent::Failure(_) => panic!("good ack eventually arrived"),
        }
        assert_eq!(ch.transmitted.len(), 3, "one initial + two retransmits");
    }

    #[test]
    fn fail_budget_exhaustion_times_out() {
        let m = new_sender();
        let bad = ArqFrame::Ack { seq: 9 }.encode();
        let mut ch = Script::new(vec![Some(bad.clone()), Some(bad.clone()), Some(bad)]);
        match send_packet(m, b"z", &mut ch, 2) {
            NextSent::Failure(m) => assert_eq!(m.state_name(), "Timeout"),
            NextSent::NextReady(_) => panic!("no valid ack existed"),
        }
    }

    #[test]
    fn retry_from_timeout_reaches_ready_again() {
        let m = new_sender();
        let mut ch = Script::new(vec![None]);
        let NextSent::Failure(timed_out) = send_packet(m, b"a", &mut ch, 0) else {
            panic!("expected failure");
        };
        let ready = timed_out.step(Retry);
        assert_eq!(ready.state_name(), "Ready");
        assert_eq!(ready.data().retries, 1);
        // And a clean finish from Ready.
        let done = ready.step(Finish);
        assert_eq!(done.state_name(), "Sent");
    }

    #[test]
    fn valid_ack_witness_rejects_everything_else() {
        let ack0 = ArqFrame::Ack { seq: 0 }.encode();
        assert!(ValidAck::validate(&ack0, 0).is_some());
        assert!(ValidAck::validate(&ack0, 1).is_none(), "wrong seq");
        let data = ArqFrame::Data {
            seq: 0,
            payload: vec![1],
        }
        .encode();
        assert!(ValidAck::validate(&data, 0).is_none(), "data is not an ack");
        let mut corrupt = ack0.clone();
        corrupt[1] ^= 1;
        assert!(ValidAck::validate(&corrupt, 0).is_none(), "corrupt");
        assert!(ValidAck::validate(&[], 0).is_none(), "truncated");
    }
}
