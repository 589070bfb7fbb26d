//! Stop-and-wait sender with an adaptive retransmission timer — the
//! experiment E8 vehicle.
//!
//! Identical protocol behaviour to
//! [`netdsl_protocols::arq::session::SwSender`], but the retransmission
//! timeout comes from [`ArqRto`] (RFC 6298 smoothing + Karn + backoff,
//! the same adapter the suite senders use under
//! `RetransmitPolicy::AdaptiveRto`) instead of a fixed constant.
//! Predates that policy axis; kept as the standalone E8 vehicle.

use netdsl_adapt::ArqRto;
use netdsl_netsim::scenario::Messages;
use netdsl_netsim::{LinkConfig, TimerToken};
use netdsl_protocols::arq::session::{SenderStats, SwReceiver};
use netdsl_protocols::arq::ArqFrame;
use netdsl_protocols::driver::{Duplex, Endpoint, Io};

/// Stop-and-wait sender whose timeout adapts to measured RTT.
#[derive(Debug)]
pub struct AdaptiveSwSender {
    messages: Messages,
    next_msg: usize,
    seq: u8,
    waiting: bool,
    rto: ArqRto,
    initial_rto: u64,
    max_retries: u32,
    retries: u32,
    attempt: u64,
    stats: SenderStats,
    failed: bool,
}

impl AdaptiveSwSender {
    /// Creates a sender with the given initial RTO and bounds.
    pub fn new(messages: impl Into<Messages>, initial_rto: u64, max_retries: u32) -> Self {
        AdaptiveSwSender {
            messages: messages.into(),
            next_msg: 0,
            seq: 0,
            waiting: false,
            rto: ArqRto::new(initial_rto, 4, 100_000),
            initial_rto,
            max_retries,
            retries: 0,
            attempt: 0,
            stats: SenderStats::default(),
            failed: false,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// `true` once every message is acknowledged.
    pub fn succeeded(&self) -> bool {
        !self.failed && self.next_msg >= self.messages.len()
    }

    /// The adaptive timer (for post-run inspection).
    pub fn estimator(&self) -> &ArqRto {
        &self.rto
    }

    /// The messages this sender offers (what a completed transfer must
    /// have delivered).
    pub fn messages(&self) -> &Messages {
        &self.messages
    }

    fn launch(&mut self, io: &mut Io<'_>, retransmit: bool) {
        if self.next_msg >= self.messages.len() {
            return;
        }
        let frame = ArqFrame::Data {
            seq: self.seq,
            payload: self.messages.get(self.next_msg).to_vec(),
        }
        .encode();
        io.send(frame);
        self.stats.frames_sent += 1;
        if retransmit {
            self.stats.retransmissions += 1;
        }
        // Karn's rule lives in the adapter: a retransmission poisons the
        // in-flight RTT measurement until the next fresh send.
        self.rto.on_send(io.now(), retransmit);
        self.attempt += 1;
        self.waiting = true;
        io.set_timer(self.rto.rto(), self.attempt);
    }
}

impl Endpoint for AdaptiveSwSender {
    fn start(&mut self, io: &mut Io<'_>) {
        self.launch(io, false);
    }

    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>) {
        if !self.waiting {
            return;
        }
        let Ok(ArqFrame::Ack { seq }) = ArqFrame::decode(frame) else {
            return;
        };
        if seq != self.seq {
            return;
        }
        io.cancel_timer(self.attempt);
        // RTT sampling with Karn's algorithm: only unambiguous samples
        // (the adapter discards the measurement after a retransmission).
        self.rto.on_ack(io.now());
        self.stats.delivered += 1;
        self.seq = self.seq.wrapping_add(1);
        self.next_msg += 1;
        self.retries = 0;
        self.waiting = false;
        self.launch(io, false);
    }

    fn on_timer(&mut self, token: TimerToken, io: &mut Io<'_>) {
        if token != self.attempt || !self.waiting {
            return;
        }
        if self.retries >= self.max_retries {
            self.failed = true;
            self.waiting = false;
            return;
        }
        self.retries += 1;
        self.rto.on_timeout();
        self.launch(io, true);
    }

    fn done(&self) -> bool {
        self.failed || self.next_msg >= self.messages.len()
    }

    fn reset(&mut self) {
        // As `SwSender::reset`: position, state, retries and the learned
        // RTO go; stats and the monotone attempt counter stay.
        self.next_msg = 0;
        self.seq = 0;
        self.waiting = false;
        self.retries = 0;
        self.failed = false;
        self.rto = ArqRto::new(self.initial_rto, 4, 100_000);
    }
}

/// Outcome of an adaptive-timer transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveOutcome {
    /// All messages delivered?
    pub success: bool,
    /// Ticks consumed.
    pub elapsed: u64,
    /// Sender statistics.
    pub stats: SenderStats,
}

/// Runs a transfer with the adaptive sender over the given link.
pub fn run_adaptive_transfer(
    messages: impl Into<Messages>,
    config: LinkConfig,
    seed: u64,
    initial_rto: u64,
    max_retries: u32,
    deadline: u64,
) -> AdaptiveOutcome {
    let messages: Messages = messages.into();
    let n = messages.len();
    let mut duplex = Duplex::new(
        seed,
        config,
        AdaptiveSwSender::new(messages, initial_rto, max_retries),
        SwReceiver::new(n),
    );
    let elapsed = duplex.run(deadline);
    AdaptiveOutcome {
        success: duplex.a().succeeded() && duplex.a().messages() == duplex.delivered().copies(),
        elapsed,
        stats: duplex.a().stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::messages;

    #[test]
    fn adaptive_transfer_succeeds_on_reliable_link() {
        let out = run_adaptive_transfer(
            messages(20, 16),
            LinkConfig::reliable(10),
            1,
            500,
            5,
            1_000_000,
        );
        assert!(out.success);
        assert_eq!(out.stats.retransmissions, 0);
    }

    #[test]
    fn estimator_learns_the_rtt() {
        let msgs = messages(30, 8);
        let n = msgs.len();
        let mut duplex = Duplex::new(
            2,
            LinkConfig::reliable(25), // RTT = 50
            AdaptiveSwSender::new(msgs, 1000, 5),
            SwReceiver::new(n),
        );
        duplex.run(1_000_000);
        assert!(duplex.a().succeeded());
        let srtt = duplex.a().estimator().srtt().unwrap();
        assert!((45..=55).contains(&srtt), "learned srtt {srtt}");
        assert!(
            duplex.a().estimator().rto() < 200,
            "rto tightened from 1000"
        );
    }

    #[test]
    fn adaptive_beats_misconfigured_fixed_timer_on_overhead() {
        // Fixed timer of 30 ticks against a 60-tick RTT: every packet
        // spuriously retransmits. The adaptive sender starts at the same
        // bad 30 but learns.
        let cfg = LinkConfig::reliable(30);
        let adaptive = run_adaptive_transfer(messages(40, 8), cfg.clone(), 3, 30, 20, 10_000_000);
        let fixed = netdsl_protocols::arq::session::run_transfer(
            messages(40, 8),
            cfg,
            3,
            30, // fixed timeout below the RTT
            20,
            10_000_000,
        );
        assert!(adaptive.success && fixed.success);
        assert!(
            adaptive.stats.retransmissions * 4 < fixed.sender.retransmissions,
            "adaptive {} vs fixed {}",
            adaptive.stats.retransmissions,
            fixed.sender.retransmissions
        );
    }

    #[test]
    fn survives_loss_with_backoff() {
        let out = run_adaptive_transfer(
            messages(20, 8),
            LinkConfig::lossy(10, 0.25),
            7,
            100,
            30,
            10_000_000,
        );
        assert!(out.success, "{:?}", out.stats);
    }
}
