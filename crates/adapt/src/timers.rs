//! Adaptive retransmission timers (the paper's §1.1 "tuning protocol
//! operation", ref \[5\]).
//!
//! [`RtoEstimator`] is the RFC 6298 estimator: smoothed RTT + 4× RTT
//! variance, Karn's algorithm (samples from retransmitted packets are
//! discarded — they are ambiguous), and exponential backoff on timeout.
//! Experiment E8 runs a stop-and-wait transfer with this estimator
//! against fixed timers across drifting RTTs, measuring retransmission
//! overhead and completion time.

use netdsl_netsim::{RetransmitPolicy, Tick};
use netdsl_obs::Counter;

/// Exponential backoffs applied by adaptive ARQ timers (never bumped
/// under [`RetransmitPolicy::Fixed`], whose timers are constant).
static RTO_BACKOFFS: Counter = Counter::new("arq.rto_backoffs");

/// RFC 6298-style retransmission-timeout estimator over virtual ticks.
#[derive(Debug, Clone, PartialEq)]
pub struct RtoEstimator {
    srtt: Option<f64>,
    rttvar: f64,
    rto: f64,
    min_rto: f64,
    max_rto: f64,
    backoff: u32,
}

impl RtoEstimator {
    /// Creates an estimator with an initial RTO and clamping bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are inverted or non-positive.
    pub fn new(initial_rto: Tick, min_rto: Tick, max_rto: Tick) -> Self {
        assert!(min_rto > 0 && min_rto <= max_rto, "invalid RTO bounds");
        RtoEstimator {
            srtt: None,
            rttvar: 0.0,
            rto: (initial_rto as f64).clamp(min_rto as f64, max_rto as f64),
            min_rto: min_rto as f64,
            max_rto: max_rto as f64,
            backoff: 0,
        }
    }

    /// Current retransmission timeout (with any active backoff applied).
    pub fn rto(&self) -> Tick {
        let backed = self.rto * f64::from(1u32 << self.backoff.min(16));
        backed.clamp(self.min_rto, self.max_rto).round() as Tick
    }

    /// Smoothed RTT estimate, if any sample has been accepted.
    pub fn srtt(&self) -> Option<Tick> {
        self.srtt.map(|s| s.round() as Tick)
    }

    /// Feeds an RTT sample from a packet that was transmitted **once**
    /// (Karn's algorithm: call [`RtoEstimator::on_ambiguous_sample`] for
    /// retransmitted packets instead).
    pub fn on_sample(&mut self, rtt: Tick) {
        const ALPHA: f64 = 1.0 / 8.0;
        const BETA: f64 = 1.0 / 4.0;
        let r = rtt as f64;
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar = (1.0 - BETA) * self.rttvar + BETA * (srtt - r).abs();
                self.srtt = Some((1.0 - ALPHA) * srtt + ALPHA * r);
            }
        }
        self.rto = (self.srtt.expect("just set") + (4.0 * self.rttvar).max(1.0))
            .clamp(self.min_rto, self.max_rto);
        self.backoff = 0;
    }

    /// A sample from a retransmitted packet: discarded (ambiguous). Per
    /// Karn's algorithm the backoff is **retained** until a sample from an
    /// unretransmitted packet arrives — clearing it here would re-trigger
    /// the spurious-retransmission loop the backoff just escaped.
    pub fn on_ambiguous_sample(&mut self) {
        // Deliberately no-op; kept as an explicit API so call sites
        // document where Karn's discard happens.
    }

    /// A retransmission timeout fired: back off exponentially.
    pub fn on_timeout(&mut self) {
        self.backoff = self.backoff.saturating_add(1);
    }
}

/// [`RtoEstimator`] plus the per-packet bookkeeping a stop-and-wait
/// style sender needs: when the outstanding frame was launched and
/// whether it has been retransmitted (Karn's rule makes its RTT sample
/// ambiguous). Window protocols keep their own per-sequence send
/// timestamps and feed [`PolicyRto::on_sample`] directly.
#[derive(Debug, Clone, PartialEq)]
pub struct ArqRto {
    est: RtoEstimator,
    sent_at: Option<Tick>,
    retransmitted: bool,
}

impl ArqRto {
    /// An adaptive ARQ timer starting from `initial_rto`, clamped to
    /// `[min_rto, max_rto]` (see [`RtoEstimator::new`]).
    pub fn new(initial_rto: Tick, min_rto: Tick, max_rto: Tick) -> Self {
        ArqRto {
            est: RtoEstimator::new(initial_rto, min_rto, max_rto),
            sent_at: None,
            retransmitted: false,
        }
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> Tick {
        self.est.rto()
    }

    /// The outstanding frame was (re)launched at `now`. A fresh launch
    /// starts a new RTT measurement; a retransmission poisons it per
    /// Karn's rule.
    pub fn on_send(&mut self, now: Tick, retransmit: bool) {
        if retransmit {
            self.retransmitted = true;
        } else {
            self.sent_at = Some(now);
            self.retransmitted = false;
        }
    }

    /// The outstanding frame was acknowledged at `now`: feeds the RTT
    /// sample when unambiguous, discards it (keeping any backoff)
    /// otherwise.
    pub fn on_ack(&mut self, now: Tick) {
        match self.sent_at.take() {
            Some(sent) if !self.retransmitted => self.est.on_sample(now - sent),
            _ => self.est.on_ambiguous_sample(),
        }
        self.retransmitted = false;
    }

    /// An unambiguous RTT sample measured by the caller (window
    /// protocols with per-sequence timestamps).
    pub fn on_sample(&mut self, rtt: Tick) {
        self.est.on_sample(rtt);
    }

    /// A retransmission timer fired: exponential backoff (counted in
    /// the `arq.rto_backoffs` metric).
    pub fn on_timeout(&mut self) {
        RTO_BACKOFFS.incr();
        self.est.on_timeout();
    }

    /// Smoothed RTT estimate, if any sample has been accepted.
    pub fn srtt(&self) -> Option<Tick> {
        self.est.srtt()
    }
}

/// The retransmission-timer axis as one value: the constant timer the
/// suite protocols always had, or an [`ArqRto`]. Every hook is a no-op
/// on the [`PolicyRto::Fixed`] arm — fixed-policy runs make exactly
/// the calls they made before this type existed, which is what keeps
/// the committed golden fixtures bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyRto {
    /// Constant retransmission timeout.
    Fixed(Tick),
    /// Adaptive SRTT/RTTVAR timer with Karn's rule and backoff.
    Adaptive(ArqRto),
}

impl PolicyRto {
    /// Builds the timer a [`RetransmitPolicy`] selects, seeding the
    /// adaptive estimator's initial RTO from the spec's fixed
    /// `timeout`.
    pub fn from_policy(policy: &RetransmitPolicy, timeout: Tick) -> Self {
        match *policy {
            RetransmitPolicy::Fixed => PolicyRto::Fixed(timeout),
            RetransmitPolicy::AdaptiveRto { min_rto, max_rto } => {
                PolicyRto::Adaptive(ArqRto::new(timeout, min_rto, max_rto))
            }
        }
    }

    /// Whether the adaptive arm is active.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, PolicyRto::Adaptive(_))
    }

    /// The timeout to arm the next retransmission timer with.
    pub fn rto(&self) -> Tick {
        match self {
            PolicyRto::Fixed(t) => *t,
            PolicyRto::Adaptive(a) => a.rto(),
        }
    }

    /// See [`ArqRto::on_send`]. No-op when fixed.
    pub fn on_send(&mut self, now: Tick, retransmit: bool) {
        if let PolicyRto::Adaptive(a) = self {
            a.on_send(now, retransmit);
        }
    }

    /// See [`ArqRto::on_ack`]. No-op when fixed.
    pub fn on_ack(&mut self, now: Tick) {
        if let PolicyRto::Adaptive(a) = self {
            a.on_ack(now);
        }
    }

    /// See [`ArqRto::on_sample`]. No-op when fixed.
    pub fn on_sample(&mut self, rtt: Tick) {
        if let PolicyRto::Adaptive(a) = self {
            a.on_sample(rtt);
        }
    }

    /// See [`ArqRto::on_timeout`]. No-op when fixed — in particular a
    /// fixed-policy timeout never touches the `arq.rto_backoffs`
    /// counter.
    pub fn on_timeout(&mut self) {
        if let PolicyRto::Adaptive(a) = self {
            a.on_timeout();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initialises_srtt() {
        let mut e = RtoEstimator::new(100, 10, 10_000);
        assert_eq!(e.srtt(), None);
        e.on_sample(50);
        assert_eq!(e.srtt(), Some(50));
        // rto = srtt + 4·(rtt/2) = 50 + 100 = 150.
        assert_eq!(e.rto(), 150);
    }

    #[test]
    fn second_sample_applies_rfc_6298_gains() {
        // RFC 6298 §2.3: RTTVAR <- (1 - 1/4)·RTTVAR + 1/4·|SRTT - R'|,
        // then SRTT <- (1 - 1/8)·SRTT + 1/8·R'. After samples 100 and 200:
        // RTTVAR = 3/4·50 + 1/4·100 = 62.5 and SRTT = 7/8·100 + 1/8·200
        // = 112.5, so RTO = 112.5 + 4·62.5 = 362.5. Any other gain moves
        // one of the two rounded values.
        let mut e = RtoEstimator::new(1_000, 1, 10_000);
        e.on_sample(100);
        e.on_sample(200);
        assert_eq!(e.srtt(), Some(113));
        assert_eq!(e.rto(), 363);
    }

    #[test]
    fn estimator_converges_on_stable_rtt() {
        let mut e = RtoEstimator::new(1000, 10, 10_000);
        for _ in 0..100 {
            e.on_sample(40);
        }
        let srtt = e.srtt().unwrap();
        assert!((38..=42).contains(&srtt), "srtt {srtt}");
        // Variance collapses, so RTO approaches srtt (clamped by the +max(1)).
        assert!(e.rto() < 60, "rto {}", e.rto());
    }

    #[test]
    fn rto_tracks_rtt_increase() {
        let mut e = RtoEstimator::new(100, 10, 10_000);
        for _ in 0..20 {
            e.on_sample(40);
        }
        let before = e.rto();
        for _ in 0..20 {
            e.on_sample(400);
        }
        assert!(e.rto() > before * 3, "{} → {}", before, e.rto());
    }

    #[test]
    fn timeout_backs_off_exponentially_and_sample_resets() {
        let mut e = RtoEstimator::new(100, 10, 100_000);
        e.on_sample(100);
        let base = e.rto();
        e.on_timeout();
        assert_eq!(e.rto(), base * 2);
        e.on_timeout();
        assert_eq!(e.rto(), base * 4);
        e.on_sample(100);
        assert!(e.rto() <= base, "fresh sample clears backoff");
    }

    #[test]
    fn ambiguous_samples_do_not_move_srtt_and_keep_backoff() {
        let mut e = RtoEstimator::new(100, 10, 10_000);
        e.on_sample(50);
        let srtt = e.srtt();
        e.on_timeout();
        e.on_ambiguous_sample(); // retransmitted packet's ack
        assert_eq!(e.srtt(), srtt, "Karn: no update from retransmits");
        assert_eq!(e.rto(), 300, "backoff retained until a clean sample");
        e.on_sample(50);
        // srtt stays 50, rttvar decays 25 → 18.75, rto = 50 + 75 = 125.
        assert_eq!(e.rto(), 125, "clean sample clears backoff");
    }

    #[test]
    fn rto_clamped_to_bounds() {
        let mut e = RtoEstimator::new(100, 50, 200);
        for _ in 0..50 {
            e.on_sample(1);
        }
        assert!(e.rto() >= 50);
        for _ in 0..20 {
            e.on_timeout();
        }
        assert!(e.rto() <= 200);
    }

    #[test]
    #[should_panic(expected = "bounds")]
    fn inverted_bounds_panic() {
        RtoEstimator::new(100, 500, 50);
    }

    #[test]
    fn arq_rto_measures_clean_round_trips_only() {
        let mut t = ArqRto::new(200, 4, 100_000);
        t.on_send(10, false);
        t.on_ack(60); // clean 50-tick sample
        assert_eq!(t.srtt(), Some(50));
        let clean = t.rto();

        t.on_send(100, false);
        t.on_timeout();
        t.on_send(100 + t.rto(), true); // retransmission
        t.on_ack(500);
        assert_eq!(t.srtt(), Some(50), "Karn: retransmitted sample discarded");
        assert!(t.rto() > clean, "backoff retained after ambiguous ack");

        t.on_send(600, false);
        t.on_ack(650);
        assert!(t.rto() <= clean, "clean sample clears backoff");
    }

    #[test]
    fn policy_rto_fixed_arm_is_inert() {
        let mut p = PolicyRto::from_policy(&RetransmitPolicy::Fixed, 300);
        assert!(!p.is_adaptive());
        assert_eq!(p.rto(), 300);
        p.on_send(0, false);
        p.on_timeout();
        p.on_ack(5_000);
        p.on_sample(1);
        assert_eq!(p.rto(), 300, "fixed timers never move");
    }

    #[test]
    fn policy_rto_adaptive_arm_seeds_from_the_spec_timeout() {
        let policy = RetransmitPolicy::AdaptiveRto {
            min_rto: 8,
            max_rto: 4_000,
        };
        let mut p = PolicyRto::from_policy(&policy, 300);
        assert!(p.is_adaptive());
        assert_eq!(p.rto(), 300, "initial RTO is the fixed timeout");
        p.on_send(0, false);
        p.on_ack(40);
        assert!(p.rto() < 300, "estimator takes over after a sample");
        assert!(p.rto() >= 8);
        for _ in 0..32 {
            p.on_timeout();
        }
        assert!(p.rto() <= 4_000, "backoff capped at max_rto");
    }
}
