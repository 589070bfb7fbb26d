//! Selective Repeat sliding-window ARQ.
//!
//! The second windowed extension: per-packet timers and individual
//! acknowledgements, so a single loss retransmits a single packet. The
//! receiver buffers out-of-order arrivals inside its window and delivers
//! the contiguous prefix — exactly-once, in-order delivery to the
//! application is preserved (property-tested in `tests/`).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use netdsl_adapt::PolicyRto;
use netdsl_netsim::scenario::FramePath;
use netdsl_netsim::{LinkConfig, RetransmitPolicy, Tick, TimerToken};

use crate::driver::{Duplex, Endpoint, Io};
use crate::window::{send_ack, send_data, WindowFrame, WindowOutcome, WindowRef, WindowStats};

/// Selective Repeat sending endpoint.
#[derive(Debug)]
pub struct SrSender {
    messages: Vec<Vec<u8>>,
    window: u32,
    timeout: u64,
    max_retries: u32,
    /// First unacknowledged sequence number.
    base: u32,
    /// Next never-sent sequence number.
    next: u32,
    /// Per-outstanding-packet retry counts (absent = acknowledged).
    outstanding: BTreeMap<u32, u32>,
    stats: WindowStats,
    failed: bool,
    path: FramePath,
    policy: RetransmitPolicy,
    rto: PolicyRto,
    /// Launch tick of each packet transmitted exactly once (adaptive
    /// policy only); a retransmission evicts its entry per Karn's rule.
    send_times: BTreeMap<u32, Tick>,
}

impl SrSender {
    /// Creates a sender with the given window, per-packet timeout and
    /// per-packet retry budget.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(messages: Vec<Vec<u8>>, window: u32, timeout: u64, max_retries: u32) -> Self {
        assert!(window > 0, "window must be at least 1");
        SrSender {
            messages,
            window,
            timeout,
            max_retries,
            base: 0,
            next: 0,
            outstanding: BTreeMap::new(),
            stats: WindowStats::default(),
            failed: false,
            path: FramePath::default(),
            policy: RetransmitPolicy::Fixed,
            rto: PolicyRto::Fixed(timeout),
            send_times: BTreeMap::new(),
        }
    }

    /// Selects the frame codec path (builder style).
    #[must_use]
    pub fn with_frame_path(mut self, path: FramePath) -> Self {
        self.path = path;
        self
    }

    /// Selects the retransmission-timer policy (builder style; the
    /// default fixed policy arms every timer with the constructor's
    /// `timeout`, exactly as before).
    #[must_use]
    pub fn with_retransmit(mut self, policy: RetransmitPolicy) -> Self {
        self.rto = PolicyRto::from_policy(&policy, self.timeout);
        self.policy = policy;
        self
    }

    /// Statistics so far.
    pub fn stats(&self) -> WindowStats {
        self.stats
    }

    /// The messages this sender offers (what a completed transfer must
    /// have delivered).
    pub fn messages(&self) -> &[Vec<u8>] {
        &self.messages
    }

    /// `true` once every message is acknowledged.
    pub fn succeeded(&self) -> bool {
        !self.failed && self.base as usize >= self.messages.len()
    }

    /// `true` if some packet ran out of retries.
    pub fn failed(&self) -> bool {
        self.failed
    }

    fn transmit(&mut self, seq: u32, io: &mut Io<'_>) {
        // The payload is borrowed straight from the message store — a
        // retransmission costs no clone.
        send_data(io, self.path, seq, &self.messages[seq as usize]);
        self.stats.frames_sent += 1;
        // Per-packet timer: token is the sequence number itself.
        io.set_timer(self.rto.rto(), u64::from(seq));
    }

    fn fill_window(&mut self, io: &mut Io<'_>) {
        while self.next < self.base + self.window && (self.next as usize) < self.messages.len() {
            let seq = self.next;
            self.outstanding.insert(seq, 0);
            self.transmit(seq, io);
            if self.rto.is_adaptive() {
                self.send_times.insert(seq, io.now());
            }
            self.next += 1;
        }
    }
}

impl Endpoint for SrSender {
    fn start(&mut self, io: &mut Io<'_>) {
        self.fill_window(io);
    }

    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>) {
        let Ok(WindowFrame::Ack { seq }) = WindowFrame::decode_via(self.path, frame) else {
            return;
        };
        if self.outstanding.remove(&seq).is_some() {
            if let Some(sent) = self.send_times.remove(&seq) {
                self.rto.on_sample(io.now() - sent);
            }
            self.stats.delivered += 1;
            io.cancel_timer(u64::from(seq));
            // Advance base over the acknowledged prefix.
            while self.base < self.next && !self.outstanding.contains_key(&self.base) {
                self.base += 1;
            }
            self.fill_window(io);
        }
    }

    fn on_timer(&mut self, token: TimerToken, io: &mut Io<'_>) {
        let seq = token as u32;
        let Some(retries) = self.outstanding.get_mut(&seq) else {
            return; // acknowledged in the meantime: stale timer
        };
        *retries += 1;
        self.rto.on_timeout();
        if *retries > self.max_retries {
            self.failed = true;
            return;
        }
        // Karn: this packet's eventual ack is now ambiguous.
        self.send_times.remove(&seq);
        self.stats.retransmissions += 1;
        self.transmit(seq, io);
    }

    fn done(&self) -> bool {
        self.failed || self.base as usize >= self.messages.len()
    }

    fn reset(&mut self) {
        // Total state loss except messages (re-offered), stats
        // (observational) — SR timer tokens are sequence numbers, so
        // nothing monotone needs preserving (retracted pre-crash timers
        // can never fire again thanks to the crash watermark).
        self.base = 0;
        self.next = 0;
        self.outstanding.clear();
        self.failed = false;
        self.send_times.clear();
        self.rto = PolicyRto::from_policy(&self.policy, self.timeout);
    }
}

/// Selective Repeat receiving endpoint: acks every valid data frame,
/// buffers out-of-order arrivals, delivers the contiguous prefix.
#[derive(Debug, Default)]
pub struct SrReceiver {
    expected: u32,
    window: u32,
    buffer: BTreeMap<u32, Vec<u8>>,
    delivered: Vec<Vec<u8>>,
    expect_total: usize,
    buffered_count: u64,
    path: FramePath,
}

impl SrReceiver {
    /// Creates a receiver for `expect_total` messages with the given
    /// buffering window.
    pub fn new(expect_total: usize, window: u32) -> Self {
        SrReceiver {
            window,
            expect_total,
            ..SrReceiver::default()
        }
    }

    /// Selects the frame codec path (builder style).
    #[must_use]
    pub fn with_frame_path(mut self, path: FramePath) -> Self {
        self.path = path;
        self
    }

    /// Payloads delivered in order.
    pub fn delivered(&self) -> &[Vec<u8>] {
        &self.delivered
    }

    /// Takes the delivered payloads out without copying.
    pub fn into_delivered(self) -> Vec<Vec<u8>> {
        self.delivered
    }

    /// Frames accepted out of order (buffered rather than discarded —
    /// the efficiency SR buys over GBN).
    pub fn buffered_count(&self) -> u64 {
        self.buffered_count
    }
}

impl Endpoint for SrReceiver {
    fn start(&mut self, _io: &mut Io<'_>) {}

    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>) {
        WindowFrame::decode_with(self.path, frame, |decoded| {
            let Ok(WindowRef::Data { seq, payload }) = decoded else {
                return;
            };
            if seq >= self.expected && seq < self.expected + self.window {
                if seq == self.expected {
                    // Deliver it, then the contiguous prefix it unblocked.
                    self.delivered.push(payload.to_vec());
                    self.expected += 1;
                    while let Some(p) = self.buffer.remove(&self.expected) {
                        self.delivered.push(p);
                        self.expected += 1;
                    }
                } else {
                    match self.buffer.entry(seq) {
                        Entry::Vacant(slot) => {
                            self.buffered_count += 1;
                            slot.insert(payload.to_vec());
                        }
                        // A duplicate refreshes the buffered copy in place.
                        Entry::Occupied(mut slot) => {
                            let kept = slot.get_mut();
                            kept.clear();
                            kept.extend_from_slice(payload);
                        }
                    }
                }
                send_ack(io, self.path, seq);
            } else if seq < self.expected {
                // Already delivered: the ack must have been lost; re-ack
                // (no payload copy).
                send_ack(io, self.path, seq);
            }
            // Beyond the window: drop silently (sender cannot legally be there).
        });
    }

    fn on_timer(&mut self, _token: TimerToken, _io: &mut Io<'_>) {}

    fn done(&self) -> bool {
        self.delivered.len() >= self.expect_total
    }

    fn reset(&mut self) {
        self.expected = 0;
        self.buffer.clear();
        self.delivered.clear();
        self.buffered_count = 0;
    }
}

/// Runs a complete Selective Repeat transfer.
pub fn run_transfer(
    messages: Vec<Vec<u8>>,
    window: u32,
    config: LinkConfig,
    seed: u64,
    timeout: u64,
    max_retries: u32,
    deadline: u64,
) -> WindowOutcome {
    let n = messages.len();
    let mut duplex = Duplex::new(
        seed,
        config,
        SrSender::new(messages, window, timeout, max_retries),
        SrReceiver::new(n, window),
    );
    let elapsed = duplex.run(deadline);
    // Compare by slice against the sender's own message store and move
    // the delivered payloads out — no full-transfer copies.
    let success = duplex.a().succeeded() && duplex.b().delivered() == duplex.a().messages();
    let stats = duplex.a().stats();
    let (_, receiver, _) = duplex.into_parts();
    WindowOutcome {
        success,
        elapsed,
        stats,
        delivered: receiver.into_delivered(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msgs(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("sr-{i}").into_bytes()).collect()
    }

    #[test]
    fn reliable_link_no_retransmissions() {
        let out = run_transfer(msgs(50), 8, LinkConfig::reliable(5), 1, 100, 5, 1_000_000);
        assert!(out.success);
        assert_eq!(out.stats.frames_sent, 50);
        assert_eq!(out.stats.retransmissions, 0);
    }

    #[test]
    fn single_loss_retransmits_single_packet() {
        // Find a seed where exactly one frame is lost, then check SR only
        // resent that one.
        for seed in 0..200 {
            let out = run_transfer(
                msgs(20),
                8,
                LinkConfig::lossy(3, 0.03),
                seed,
                100,
                10,
                10_000_000,
            );
            if out.success && out.stats.retransmissions == 1 {
                assert_eq!(out.stats.frames_sent, 21, "exactly one extra frame");
                return;
            }
        }
        panic!("no seed produced a single-loss run");
    }

    #[test]
    fn survives_heavy_loss() {
        let out = run_transfer(
            msgs(30),
            8,
            LinkConfig::lossy(3, 0.3),
            5,
            100,
            40,
            10_000_000,
        );
        assert!(out.success, "{:?}", out.stats);
    }

    #[test]
    fn out_of_order_arrivals_buffered_not_discarded() {
        let cfg = LinkConfig::reliable(3).with_jitter(25);
        let n = msgs(40).len();
        let mut duplex = Duplex::new(
            17,
            cfg,
            SrSender::new(msgs(40), 8, 200, 20),
            SrReceiver::new(n, 8),
        );
        duplex.run(10_000_000);
        assert!(duplex.a().succeeded());
        assert_eq!(duplex.b().delivered(), &msgs(40)[..], "order restored");
        assert!(
            duplex.b().buffered_count() > 0,
            "jitter should have produced out-of-order buffering"
        );
    }

    #[test]
    fn corruption_and_duplication_handled() {
        let cfg = LinkConfig::reliable(3)
            .with_corrupt(0.15)
            .with_duplicate(0.15);
        let out = run_transfer(msgs(25), 6, cfg, 23, 100, 40, 10_000_000);
        assert!(out.success);
        assert_eq!(out.delivered, msgs(25));
    }

    #[test]
    fn dead_link_fails_cleanly() {
        let out = run_transfer(msgs(5), 4, LinkConfig::lossy(1, 1.0), 1, 50, 3, 1_000_000);
        assert!(!out.success);
    }

    #[test]
    fn sr_beats_gbn_on_lossy_pipelined_links() {
        // The headline E4 comparison in miniature: identical conditions,
        // SR retransmits less than GBN.
        let cfg = LinkConfig::lossy(10, 0.15);
        let sr = run_transfer(msgs(60), 8, cfg.clone(), 31, 150, 60, 50_000_000);
        let gbn = crate::gbn::run_transfer(msgs(60), 8, cfg, 31, 150, 60, 50_000_000);
        assert!(sr.success && gbn.success);
        assert!(
            sr.stats.retransmissions < gbn.stats.retransmissions,
            "SR {} vs GBN {}",
            sr.stats.retransmissions,
            gbn.stats.retransmissions
        );
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        SrSender::new(msgs(1), 0, 10, 1);
    }
}
