//! The "C sockets style" baseline ARQ — experiment E6's comparator.
//!
//! The paper's §1 claims that in traditional sockets code "typically, 50%
//! or more of the code will deal with error checking or other software
//! control functions rather than the functionality of the protocol, and
//! it is not easy to separate these aspects". This module reproduces that
//! style *deliberately*: integer error codes, out-parameters, manual
//! bounds checks at every byte access, hand-maintained state integers and
//! checksum plumbing — no `PacketSpec`, no typestate, no witnesses.
//!
//! It is wire-compatible with [`crate::arq`] (same frame layout and
//! checksum), which the cross-implementation tests exploit, and
//! behaviourally equivalent (stop-and-wait, timeout retransmission,
//! duplicate suppression). The E6 analyser classifies this file's lines
//! against the DSL implementation's.

use std::ops::Range;

use netdsl_netsim::scenario::Messages;
use netdsl_netsim::{LinkConfig, TimerToken};
use netdsl_wire::checksum::arq_check;

use crate::driver::{Duplex, Endpoint, Io};

// ---- error codes, C style -------------------------------------------------

/// Operation succeeded.
pub const E_OK: i32 = 0;
/// Frame shorter than the fixed header.
pub const E_TRUNC: i32 = -1;
/// Checksum verification failed.
pub const E_BADSUM: i32 = -2;
/// Unknown frame kind.
pub const E_BADKIND: i32 = -3;
/// Operation invalid in the current state.
pub const E_STATE: i32 = -4;
/// Retry budget exhausted.
pub const E_TIMEDOUT: i32 = -5;

// ---- frame layout, hand-maintained ----------------------------------------

const OFF_KIND: usize = 0;
const OFF_SEQ: usize = 1;
const OFF_CHK: usize = 2;
const OFF_PAYLOAD: usize = 3;
const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;

/// Serialises a frame. Every caller must remember the layout; nothing
/// checks that `kind` is meaningful.
pub fn build_frame(kind: u8, seq: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(OFF_PAYLOAD + payload.len());
    buf.push(kind);
    buf.push(seq);
    buf.push(0); // checksum placeholder
    buf.extend_from_slice(payload);
    // Checksum over kind, seq and payload — must mirror the receiver's
    // recomputation *exactly*, by hand.
    let mut sum_input = Vec::with_capacity(2 + payload.len());
    sum_input.push(kind);
    sum_input.push(seq);
    sum_input.extend_from_slice(payload);
    buf[OFF_CHK] = arq_check(0, &sum_input);
    buf
}

/// Parses a frame C-style: out-parameters, integer status. Every byte
/// access is manually bounds-checked.
pub fn parse_frame(
    buf: &[u8],
    out_kind: &mut u8,
    out_seq: &mut u8,
    out_payload: &mut Vec<u8>,
) -> i32 {
    if buf.len() < OFF_PAYLOAD {
        return E_TRUNC;
    }
    let kind = buf[OFF_KIND];
    if kind != KIND_DATA && kind != KIND_ACK {
        return E_BADKIND;
    }
    let seq = buf[OFF_SEQ];
    let chk = buf[OFF_CHK];
    let payload = &buf[OFF_PAYLOAD..];
    let mut sum_input = Vec::with_capacity(2 + payload.len());
    sum_input.push(kind);
    sum_input.push(seq);
    sum_input.extend_from_slice(payload);
    if arq_check(0, &sum_input) != chk {
        return E_BADSUM;
    }
    *out_kind = kind;
    *out_seq = seq;
    out_payload.clear();
    out_payload.extend_from_slice(payload);
    E_OK
}

// ---- sender, state ints and manual bookkeeping -----------------------------

const ST_READY: i32 = 0;
const ST_WAIT: i32 = 1;
const ST_DONE: i32 = 2;
const ST_FAILED: i32 = 3;

/// Stop-and-wait sender in the traditional style: the state is an `i32`,
/// transitions are assignments, and every handler re-checks every
/// precondition because nothing else will.
#[derive(Debug)]
pub struct CSender {
    state: i32,
    seq: u8,
    msg_idx: usize,
    messages: Messages,
    timeout: u64,
    retries: u32,
    max_retries: u32,
    attempt: u64,
    /// Frames sent, including retransmissions.
    pub frames_sent: u64,
    /// Retransmissions only.
    pub retransmissions: u64,
    /// Last error code observed (E_OK if none).
    pub last_error: i32,
}

impl CSender {
    /// Creates a sender for `messages`.
    pub fn new(messages: impl Into<Messages>, timeout: u64, max_retries: u32) -> Self {
        CSender {
            state: ST_READY,
            seq: 0,
            msg_idx: 0,
            messages: messages.into(),
            timeout,
            retries: 0,
            max_retries,
            attempt: 0,
            frames_sent: 0,
            retransmissions: 0,
            last_error: E_OK,
        }
    }

    /// `true` if every message was acknowledged.
    pub fn succeeded(&self) -> bool {
        self.state == ST_DONE
    }

    /// The messages this sender offers (what a completed transfer must
    /// have delivered).
    pub fn messages(&self) -> &Messages {
        &self.messages
    }

    fn xmit(&mut self, io: &mut Io<'_>) -> i32 {
        if self.state != ST_READY {
            return E_STATE;
        }
        if self.msg_idx >= self.messages.len() {
            self.state = ST_DONE;
            return E_OK;
        }
        let frame = build_frame(KIND_DATA, self.seq, self.messages.get(self.msg_idx));
        io.send(frame);
        self.frames_sent += 1;
        self.attempt += 1;
        io.set_timer(self.timeout, self.attempt);
        self.state = ST_WAIT;
        E_OK
    }
}

impl Endpoint for CSender {
    fn start(&mut self, io: &mut Io<'_>) {
        let rc = self.xmit(io);
        if rc != E_OK {
            self.last_error = rc;
        }
    }

    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>) {
        // Must manually guard the state before touching anything.
        if self.state != ST_WAIT {
            return;
        }
        let mut kind: u8 = 0;
        let mut seq: u8 = 0;
        let mut payload = Vec::new();
        let rc = parse_frame(frame, &mut kind, &mut seq, &mut payload);
        if rc != E_OK {
            // Corrupt or truncated: record and wait for the timer.
            self.last_error = rc;
            return;
        }
        if kind != KIND_ACK {
            return;
        }
        if seq != self.seq {
            return; // stale ack
        }
        io.cancel_timer(self.attempt);
        self.seq = self.seq.wrapping_add(1);
        self.msg_idx += 1;
        self.retries = 0;
        self.state = ST_READY;
        let rc = self.xmit(io);
        if rc != E_OK {
            self.last_error = rc;
        }
    }

    fn on_timer(&mut self, token: TimerToken, io: &mut Io<'_>) {
        if token != self.attempt {
            return;
        }
        if self.state != ST_WAIT {
            return;
        }
        if self.retries >= self.max_retries {
            self.state = ST_FAILED;
            self.last_error = E_TIMEDOUT;
            return;
        }
        self.retries += 1;
        self.retransmissions += 1;
        self.state = ST_READY;
        let rc = self.xmit(io);
        if rc != E_OK {
            self.last_error = rc;
        }
    }

    fn done(&self) -> bool {
        self.state == ST_DONE || self.state == ST_FAILED
    }

    fn reset(&mut self) {
        // Every state int by hand; counters and `attempt` survive.
        self.state = ST_READY;
        self.seq = 0;
        self.msg_idx = 0;
        self.retries = 0;
    }
}

/// Stop-and-wait receiver in the traditional style.
#[derive(Debug, Default)]
pub struct CReceiver {
    expected: u8,
    delivered: usize,
    expect_total: usize,
    /// Last error code observed.
    pub last_error: i32,
}

impl CReceiver {
    /// Creates a receiver for `expect_total` messages.
    pub fn new(expect_total: usize) -> Self {
        CReceiver {
            expect_total,
            ..CReceiver::default()
        }
    }

    /// The indices of the messages delivered, in order: `0..n`.
    pub fn delivered(&self) -> Range<usize> {
        0..self.delivered
    }
}

impl Endpoint for CReceiver {
    fn start(&mut self, _io: &mut Io<'_>) {}

    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>) {
        let mut kind: u8 = 0;
        let mut seq: u8 = 0;
        let mut payload = Vec::new();
        let rc = parse_frame(frame, &mut kind, &mut seq, &mut payload);
        if rc != E_OK {
            self.last_error = rc;
            return;
        }
        if kind != KIND_DATA {
            return;
        }
        if seq == self.expected {
            io.deliver(&payload);
            self.delivered += 1;
            io.send(build_frame(KIND_ACK, seq, &[]));
            self.expected = self.expected.wrapping_add(1);
        } else if seq == self.expected.wrapping_sub(1) {
            io.send(build_frame(KIND_ACK, seq, &[]));
        }
    }

    fn on_timer(&mut self, _token: TimerToken, _io: &mut Io<'_>) {}

    fn done(&self) -> bool {
        self.delivered >= self.expect_total
    }

    fn reset(&mut self) {
        self.expected = 0;
        self.delivered = 0;
    }
}

/// Runs a complete baseline transfer (mirror of
/// [`crate::arq::session::run_transfer`]).
pub fn run_transfer(
    messages: impl Into<Messages>,
    config: LinkConfig,
    seed: u64,
    timeout: u64,
    max_retries: u32,
    deadline: u64,
) -> (bool, u64, Vec<Vec<u8>>) {
    let messages: Messages = messages.into();
    let n = messages.len();
    let mut duplex = Duplex::new(
        seed,
        config,
        CSender::new(messages, timeout, max_retries),
        CReceiver::new(n),
    );
    let elapsed = duplex.run(deadline);
    // Compare the collected copies with the sender's message store, then
    // move them out (the C style stays inside the endpoints).
    let success = duplex.a().succeeded() && duplex.a().messages() == duplex.delivered().copies();
    (success, elapsed, duplex.into_delivered())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arq::ArqFrame;

    fn msgs(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("c-{i}").into_bytes()).collect()
    }

    #[test]
    fn parse_rejects_each_failure_mode_with_its_code() {
        let mut k = 0u8;
        let mut s = 0u8;
        let mut p = Vec::new();
        assert_eq!(parse_frame(&[1, 2], &mut k, &mut s, &mut p), E_TRUNC);
        let mut good = build_frame(KIND_DATA, 5, b"hi");
        assert_eq!(parse_frame(&good, &mut k, &mut s, &mut p), E_OK);
        assert_eq!((k, s, p.as_slice()), (KIND_DATA, 5, b"hi".as_slice()));
        good[4] ^= 0xFF;
        assert_eq!(parse_frame(&good, &mut k, &mut s, &mut p), E_BADSUM);
        let bad_kind = build_frame(9, 0, &[]);
        assert_eq!(parse_frame(&bad_kind, &mut k, &mut s, &mut p), E_BADKIND);
    }

    #[test]
    fn wire_compatible_with_dsl_arq() {
        // Frames built by the baseline decode through the DSL and vice
        // versa — same layout, same checksum.
        let c_frame = build_frame(KIND_DATA, 7, b"interop");
        assert_eq!(
            ArqFrame::decode(&c_frame).unwrap(),
            ArqFrame::Data {
                seq: 7,
                payload: b"interop".to_vec()
            }
        );
        let dsl_frame = ArqFrame::Ack { seq: 9 }.encode();
        let mut k = 0u8;
        let mut s = 0u8;
        let mut p = Vec::new();
        assert_eq!(parse_frame(&dsl_frame, &mut k, &mut s, &mut p), E_OK);
        assert_eq!((k, s), (KIND_ACK, 9));
    }

    #[test]
    fn baseline_transfer_succeeds_on_lossy_link() {
        let (ok, _t, delivered) =
            run_transfer(msgs(20), LinkConfig::lossy(2, 0.3), 7, 50, 20, 1_000_000);
        assert!(ok);
        assert_eq!(delivered.len(), 20);
    }

    #[test]
    fn baseline_and_dsl_deliver_identically_on_the_same_seed() {
        // Same seed, same link, same workload: both implementations must
        // deliver the same messages (the network draws the same random
        // stream because frame counts match step for step).
        for seed in [1, 7, 42] {
            let cfg = LinkConfig::lossy(2, 0.2);
            let (ok_c, _, del_c) = run_transfer(msgs(10), cfg.clone(), seed, 50, 20, 1_000_000);
            let dsl = crate::arq::session::run_transfer(msgs(10), cfg, seed, 50, 20, 1_000_000);
            assert!(ok_c && dsl.success);
            assert_eq!(del_c, dsl.delivered, "seed {seed}");
        }
    }

    #[test]
    fn cross_implementation_interop_dsl_sender_c_receiver() {
        let mut duplex = Duplex::new(
            3,
            LinkConfig::lossy(2, 0.15),
            crate::arq::session::SwSender::new(msgs(12), 50, 20),
            CReceiver::new(12),
        );
        duplex.run(1_000_000);
        assert!(duplex.a().succeeded());
        assert_eq!(duplex.delivered().copies(), &msgs(12)[..]);
    }

    #[test]
    fn cross_implementation_interop_c_sender_dsl_receiver() {
        let mut duplex = Duplex::new(
            4,
            LinkConfig::lossy(2, 0.15),
            CSender::new(msgs(12), 50, 20),
            crate::arq::session::SwReceiver::new(12),
        );
        duplex.run(1_000_000);
        assert!(duplex.a().succeeded());
        assert_eq!(duplex.delivered().copies(), &msgs(12)[..]);
    }

    #[test]
    fn dead_link_sets_timed_out_error() {
        let mut duplex = Duplex::new(
            1,
            LinkConfig::lossy(1, 1.0),
            CSender::new(msgs(2), 20, 3),
            CReceiver::new(2),
        );
        duplex.run(1_000_000);
        assert!(!duplex.a().succeeded());
        assert_eq!(duplex.a().last_error, E_TIMEDOUT);
    }
}
