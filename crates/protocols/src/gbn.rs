//! Go-Back-N sliding-window ARQ.
//!
//! The first of the "library of functionality" extensions the paper's
//! §1.1 motivates: once the stop-and-wait machine exists, windowed
//! variants should be buildable "quickly and easily" from the same
//! ingredients — the declarative [`crate::window::WindowFrame`]
//! format and the endpoint/driver substrate.
//!
//! Sender keeps up to `window` unacknowledged packets in flight with one
//! timer on the window base; a timeout retransmits the entire window
//! (the protocol's defining trade-off, visible in experiment E4 against
//! Selective Repeat). Acks are cumulative.

use std::collections::BTreeMap;

use netdsl_adapt::PolicyRto;
use netdsl_netsim::scenario::FramePath;
use netdsl_netsim::{LinkConfig, RetransmitPolicy, Tick, TimerToken};

use crate::driver::{Duplex, Endpoint, Io};
use crate::window::{send_ack, send_data, WindowFrame, WindowOutcome, WindowRef, WindowStats};

/// Go-Back-N sending endpoint.
#[derive(Debug)]
pub struct GbnSender {
    messages: Vec<Vec<u8>>,
    window: u32,
    timeout: u64,
    max_retries: u32,
    /// First unacknowledged sequence number.
    base: u32,
    /// Next sequence number to transmit.
    next: u32,
    attempt: u64,
    retries: u32,
    stats: WindowStats,
    failed: bool,
    path: FramePath,
    policy: RetransmitPolicy,
    rto: PolicyRto,
    /// Launch tick of each in-flight packet that has been transmitted
    /// exactly once (adaptive policy only) — the unambiguous RTT
    /// samples Karn's rule accepts. A window retransmission clears it.
    send_times: BTreeMap<u32, Tick>,
}

impl GbnSender {
    /// Creates a sender for `messages` with the given window size,
    /// retransmission timeout and per-window retry budget.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` (configuration bug).
    pub fn new(messages: Vec<Vec<u8>>, window: u32, timeout: u64, max_retries: u32) -> Self {
        assert!(window > 0, "window must be at least 1");
        GbnSender {
            messages,
            window,
            timeout,
            max_retries,
            base: 0,
            next: 0,
            attempt: 0,
            retries: 0,
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

    /// `true` if the retry budget ran out.
    pub fn failed(&self) -> bool {
        self.failed
    }

    fn transmit(&mut self, seq: u32, io: &mut Io<'_>) {
        // The payload is borrowed straight from the message store — a
        // retransmission costs no clone.
        send_data(io, self.path, seq, &self.messages[seq as usize]);
        self.stats.frames_sent += 1;
    }

    /// Sends every unsent packet that fits in the window.
    fn fill_window(&mut self, io: &mut Io<'_>) {
        while self.next < self.base + self.window && (self.next as usize) < self.messages.len() {
            let seq = self.next;
            self.transmit(seq, io);
            if self.rto.is_adaptive() {
                self.send_times.insert(seq, io.now());
            }
            if self.base == self.next {
                self.arm_timer(io);
            }
            self.next += 1;
        }
    }

    fn arm_timer(&mut self, io: &mut Io<'_>) {
        self.attempt += 1;
        io.set_timer(self.rto.rto(), self.attempt);
    }
}

impl Endpoint for GbnSender {
    fn start(&mut self, io: &mut Io<'_>) {
        self.fill_window(io);
    }

    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>) {
        let Ok(WindowFrame::Ack { seq }) = WindowFrame::decode_via(self.path, frame) else {
            return; // corrupt or not an ack: ignore
        };
        // Cumulative: everything ≤ seq is acknowledged.
        if seq >= self.base && seq < self.next {
            if self.rto.is_adaptive() {
                // The RTT of the packet this ack names, if it was only
                // ever transmitted once (Karn); earlier acked entries
                // are dropped unsampled (their acks are implied, not
                // observed).
                if let Some(sent) = self.send_times.remove(&seq) {
                    self.rto.on_sample(io.now() - sent);
                }
                self.send_times = self.send_times.split_off(&(seq + 1));
            }
            let newly = seq - self.base + 1;
            self.base = seq + 1;
            self.stats.delivered += u64::from(newly);
            self.retries = 0;
            io.cancel_timer(self.attempt);
            if self.base < self.next {
                self.arm_timer(io); // restart for the new base
            }
            self.fill_window(io);
        }
    }

    fn on_timer(&mut self, token: TimerToken, io: &mut Io<'_>) {
        if token != self.attempt || self.base >= self.next {
            return; // stale timer, or nothing outstanding
        }
        self.retries += 1;
        self.rto.on_timeout();
        if self.retries > self.max_retries {
            self.failed = true;
            return;
        }
        // Go back N: retransmit the whole outstanding window. Every
        // outstanding packet is now ambiguous under Karn's rule.
        self.send_times.clear();
        for seq in self.base..self.next {
            self.transmit(seq, io);
            self.stats.retransmissions += 1;
        }
        self.arm_timer(io);
    }

    fn done(&self) -> bool {
        self.failed || self.base as usize >= self.messages.len()
    }

    fn reset(&mut self) {
        // Total state loss except messages (re-offered), stats
        // (observational) and the monotone timer-token counter.
        self.base = 0;
        self.next = 0;
        self.retries = 0;
        self.failed = false;
        self.send_times.clear();
        self.rto = PolicyRto::from_policy(&self.policy, self.timeout);
    }
}

/// Go-Back-N receiving endpoint: accepts only the next in-sequence
/// packet, cumulative-acks everything received so far.
#[derive(Debug, Default)]
pub struct GbnReceiver {
    expected: u32,
    delivered: Vec<Vec<u8>>,
    expect_total: usize,
    out_of_order: u64,
    path: FramePath,
}

impl GbnReceiver {
    /// Creates a receiver for `expect_total` messages.
    pub fn new(expect_total: usize) -> Self {
        GbnReceiver {
            expect_total,
            ..GbnReceiver::default()
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

    /// Frames discarded as out of order (GBN's inefficiency, measured).
    pub fn out_of_order(&self) -> u64 {
        self.out_of_order
    }
}

impl Endpoint for GbnReceiver {
    fn start(&mut self, _io: &mut Io<'_>) {}

    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>) {
        WindowFrame::decode_with(self.path, frame, |decoded| {
            let Ok(WindowRef::Data { seq, payload }) = decoded else {
                return; // corrupt frames never reach protocol logic
            };
            if seq == self.expected {
                self.delivered.push(payload.to_vec());
                self.expected += 1;
                send_ack(io, self.path, seq);
            } else {
                // Dropped without copying its payload.
                self.out_of_order += 1;
                // Re-ack the last in-order packet so the sender advances.
                if self.expected > 0 {
                    send_ack(io, self.path, self.expected - 1);
                }
            }
        });
    }

    fn on_timer(&mut self, _token: TimerToken, _io: &mut Io<'_>) {}

    fn done(&self) -> bool {
        self.delivered.len() >= self.expect_total
    }

    fn reset(&mut self) {
        self.expected = 0;
        self.delivered.clear();
        self.out_of_order = 0;
    }
}

/// Runs a complete Go-Back-N transfer (see
/// [`run_transfer`](crate::arq::session::run_transfer) for the
/// stop-and-wait equivalent).
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
        GbnSender::new(messages, window, timeout, max_retries),
        GbnReceiver::new(n),
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
        (0..n).map(|i| format!("gbn-{i}").into_bytes()).collect()
    }

    #[test]
    fn reliable_link_pipelines_without_retransmission() {
        let out = run_transfer(msgs(50), 8, LinkConfig::reliable(5), 1, 100, 5, 1_000_000);
        assert!(out.success);
        assert_eq!(out.stats.frames_sent, 50);
        assert_eq!(out.stats.retransmissions, 0);
    }

    #[test]
    fn window_pipelining_beats_stop_and_wait_on_delay() {
        // Same workload, same 20-tick delay: window 8 should finish far
        // faster than window 1 (which is stop-and-wait).
        let wide = run_transfer(msgs(40), 8, LinkConfig::reliable(20), 1, 200, 5, 10_000_000);
        let narrow = run_transfer(msgs(40), 1, LinkConfig::reliable(20), 1, 200, 5, 10_000_000);
        assert!(wide.success && narrow.success);
        assert!(
            wide.elapsed * 3 < narrow.elapsed,
            "pipelining gain: {} vs {}",
            wide.elapsed,
            narrow.elapsed
        );
    }

    #[test]
    fn survives_loss() {
        let out = run_transfer(
            msgs(30),
            4,
            LinkConfig::lossy(3, 0.2),
            9,
            100,
            30,
            10_000_000,
        );
        assert!(out.success, "{:?}", out.stats);
        assert!(out.stats.retransmissions > 0);
    }

    #[test]
    fn survives_corruption_and_duplication() {
        let cfg = LinkConfig::reliable(3)
            .with_corrupt(0.15)
            .with_duplicate(0.1);
        let out = run_transfer(msgs(25), 4, cfg, 13, 100, 40, 10_000_000);
        assert!(out.success);
        assert_eq!(out.delivered, msgs(25), "in order, exactly once");
    }

    #[test]
    fn reordering_jitter_handled() {
        let cfg = LinkConfig::reliable(3).with_jitter(20);
        let out = run_transfer(msgs(30), 4, cfg, 21, 150, 30, 10_000_000);
        assert!(out.success);
    }

    #[test]
    fn dead_link_fails_cleanly() {
        let out = run_transfer(msgs(5), 4, LinkConfig::lossy(1, 1.0), 1, 50, 3, 1_000_000);
        assert!(!out.success);
        assert!(out.delivered.is_empty());
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        GbnSender::new(msgs(1), 0, 10, 1);
    }

    #[test]
    fn empty_transfer_succeeds_trivially() {
        let out = run_transfer(vec![], 4, LinkConfig::reliable(1), 0, 10, 1, 100);
        assert!(out.success);
    }
}
