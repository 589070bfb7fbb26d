//! The four workloads, their inputs, and the untraced production run.
//!
//! Every workload is a set of [`Campaign`]s whose seed axis is sized from
//! `--seconds`, so a run's work is fixed before anything is timed and is
//! the same on every commit. A round runs that work once through the
//! public drivers; every round runs identical sessions, so rounds differ
//! only in wall time and their results must agree bit for bit.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use netdsl::campaign::{derive_seed, BatchDriver, Campaign, StreamOptions, Sweep};
use netdsl::netsim::{check_result, LinkConfig};
use netdsl::protocols::multiplex::MultiSessionDriver;
use netdsl::protocols::scenario::{
    SuiteDriver, BASELINE, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT,
};
use netdsl::scenario::{
    EngineConfig, Fault, FaultDirection, FaultNode, FramePath, ProtocolSpec, RetransmitPolicy,
    Scenario, ScenarioDriver, ScenarioError, ScenarioResult, TrafficPattern,
};

use crate::stats::{quartiles, weighted_quantile};
use crate::Measured;

/// Timed rounds per run, each after a set-up of its own.
pub const ROUNDS: usize = 40;
/// Warm-up sessions per protocol in each set-up.
const WARM_UP: usize = 64;

/// Which public driver a workload's production path runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `Campaign::run_streaming` over `MultiSessionDriver::run_batch`.
    Streamed,
    /// `SuiteDriver::run`, one session at a time, each timed on its own.
    Solo,
}

/// One workload: its campaigns and the rate that sizes its work.
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// The production driver.
    pub driver: Driver,
    /// Sessions per second on the reference machine at the commit that
    /// introduced the benchmark. With `--seconds` it fixes the sessions
    /// per round, so two commits always run identical work.
    rate: f64,
    /// The campaigns (seed axis unset) for a base seed.
    campaigns: fn(u64) -> Vec<Campaign>,
}

/// Every workload, in `--all` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "campaign-tiny",
        driver: Driver::Streamed,
        rate: 480_000.0,
        campaigns: campaign_tiny,
    },
    Workload {
        name: "bulk-small",
        driver: Driver::Solo,
        rate: 550.0,
        campaigns: bulk_small,
    },
    Workload {
        name: "bulk-large",
        driver: Driver::Solo,
        rate: 560.0,
        campaigns: bulk_large,
    },
    Workload {
        name: "chaos-recovery",
        driver: Driver::Streamed,
        rate: 27_000.0,
        campaigns: chaos_recovery,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Every workload runs the compiled frame path, the one later work
/// builds on; the interpreted walker stays an oracle in the tests.
fn engine() -> EngineConfig {
    EngineConfig {
        frame_path: FramePath::Compiled,
        ..EngineConfig::default()
    }
}

fn spec(name: &str, window: u32, timeout: u64) -> ProtocolSpec {
    ProtocolSpec::new(name)
        .with_window(window)
        .with_timeout(timeout)
        .with_engine(engine())
}

/// One-message sessions on clean links: per-session fixed cost
/// (expansion, world and endpoint set-up, result fold) dominates.
fn campaign_tiny(seed: u64) -> Vec<Campaign> {
    vec![Campaign::new("campaign-tiny", derive_seed(seed, 0))
        .protocols(Sweep::grid([
            ("sw", spec(STOP_AND_WAIT, 1, 150)),
            ("gbn4", spec(GO_BACK_N, 4, 150)),
            ("sr4", spec(SELECTIVE_REPEAT, 4, 150)),
            ("base", spec(BASELINE, 1, 150)),
        ]))
        .links(Sweep::grid(
            (1..=8).map(|d| (format!("d{d}"), LinkConfig::reliable(d))),
        ))
        .traffic(Sweep::single("1x8B", TrafficPattern::messages(1, 8)))]
}

/// Many small frames through loss, corruption, duplication and jitter
/// (which reorders): per-frame cost at the smallest useful frame.
fn bulk_small(seed: u64) -> Vec<Campaign> {
    let link = LinkConfig {
        loss: 0.10,
        duplicate: 0.01,
        corrupt: 0.02,
        delay: 2,
        jitter: 2,
    };
    vec![Campaign::new("bulk-small", derive_seed(seed, 0))
        .protocols(Sweep::grid([
            ("sw", spec(STOP_AND_WAIT, 1, 16)),
            ("gbn8", spec(GO_BACK_N, 8, 16)),
            ("sr8", spec(SELECTIVE_REPEAT, 8, 16)),
            ("base", spec(BASELINE, 1, 16)),
        ]))
        .links(Sweep::single("lossy-jitter", link))
        .traffic(Sweep::single(
            "1000x64B",
            TrafficPattern::messages(1000, 64),
        ))]
}

/// The same layers byte by byte: large frames, light impairment.
fn bulk_large(seed: u64) -> Vec<Campaign> {
    let link = LinkConfig::lossy(2, 0.01).with_corrupt(0.002);
    vec![Campaign::new("bulk-large", derive_seed(seed, 0))
        .protocols(Sweep::grid([
            ("sw", spec(STOP_AND_WAIT, 1, 16)),
            ("gbn16", spec(GO_BACK_N, 16, 16)),
            ("sr16", spec(SELECTIVE_REPEAT, 16, 16)),
            ("base", spec(BASELINE, 1, 16)),
        ]))
        .links(Sweep::single("light", link))
        .traffic(Sweep::single(
            "500x1400B",
            TrafficPattern::messages(500, 1400),
        ))]
}

/// The fault families of the chaos grid that sessions recover from,
/// under fixed and adaptive retransmission. Crash + restart is left out:
/// the suite protocols cannot recover a receiver's lost state, so every
/// such session fails, and this benchmark runs only work that succeeds.
fn chaos_recovery(seed: u64) -> Vec<Campaign> {
    let adaptive = RetransmitPolicy::AdaptiveRto {
        min_rto: 4,
        max_rto: 2_000,
    };
    let mut protocols = Sweep::grid(Vec::<(String, ProtocolSpec)>::new());
    for (label, spec) in [
        ("sw", spec(STOP_AND_WAIT, 1, 80)),
        ("gbn4", spec(GO_BACK_N, 4, 120)),
        ("sr4", spec(SELECTIVE_REPEAT, 4, 120)),
    ] {
        let spec = spec.with_retries(300);
        protocols = protocols
            .and(format!("{label}-fixed"), spec.clone())
            .and(format!("{label}-adaptive"), spec.with_retransmit(adaptive));
    }
    let families: [(&str, Vec<Fault>); 3] = [
        (
            "flap",
            vec![Fault::flap(
                30,
                FaultDirection::Forward,
                LinkConfig::lossy(1, 1.0),
                150,
                250,
                2,
            )],
        ),
        (
            "skew",
            vec![
                Fault::link(10, FaultDirection::Forward, LinkConfig::lossy(3, 0.25)),
                Fault::clock_skew(25, FaultNode::A, 5, 4),
            ],
        ),
        (
            "burst",
            vec![Fault::burst(
                30,
                FaultDirection::Both,
                LinkConfig::reliable(3).with_corrupt(0.6),
                300,
            )],
        ),
    ];
    families
        .into_iter()
        .enumerate()
        .map(|(k, (family, faults))| {
            let campaign = Campaign::new(format!("chaos-{family}"), derive_seed(seed, k as u64))
                .protocols(protocols.clone())
                .links(Sweep::single("clean", LinkConfig::reliable(3)))
                .traffic(Sweep::single("32x16B", TrafficPattern::messages(32, 16)))
                .deadline(1_000_000);
            faults.into_iter().fold(campaign, Campaign::fault)
        })
        .collect()
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The campaigns with their seed axis set.
    pub campaigns: Vec<Campaign>,
    /// Solo workloads only: the materialised expansion, built in set-up.
    pub scenarios: Vec<Scenario>,
    /// Sessions per round.
    pub sessions: usize,
    /// Seed replicates per campaign cell.
    pub replicates: usize,
}

impl Inputs {
    /// The `g`-th session of a round, in run order.
    pub fn scenario(&self, g: usize) -> Scenario {
        if let Some(s) = self.scenarios.get(g) {
            return s.clone();
        }
        let mut idx = g;
        for campaign in &self.campaigns {
            if idx < campaign.scenario_count() {
                return campaign.scenario_at(idx);
            }
            idx -= campaign.scenario_count();
        }
        panic!("session {g} is past the round's {} sessions", self.sessions)
    }
}

/// Builds a workload's inputs and warms every protocol up: the part of a
/// run that `setup_s` times.
pub fn set_up(w: &Workload, seed: u64, seconds: f64) -> Inputs {
    let campaigns = (w.campaigns)(seed);
    let cells: usize = campaigns.iter().map(Campaign::scenario_count).sum();
    let target = w.rate * seconds / ROUNDS as f64;
    let replicates = ((target / cells as f64).round() as usize).max(1);
    let campaigns: Vec<Campaign> = campaigns
        .into_iter()
        .map(|c| c.seeds(Sweep::seeds(replicates as u64)))
        .collect();
    let scenarios = match w.driver {
        Driver::Solo => campaigns.iter().flat_map(Campaign::scenarios).collect(),
        Driver::Streamed => Vec::new(),
    };
    let inputs = Inputs {
        sessions: cells * replicates,
        campaigns,
        scenarios,
        replicates,
    };
    warm_up(w, &inputs);
    inputs
}

/// Runs the first sessions of each protocol once, untimed, so lazy
/// codec lowering and first-touch allocation land in set-up.
fn warm_up(w: &Workload, inputs: &Inputs) {
    let first = &inputs.campaigns[0];
    let mut seen: Vec<String> = Vec::new();
    for cell in 0..first.scenario_count() / inputs.replicates {
        let lo = cell * inputs.replicates;
        let head = first.scenario_at(lo);
        if seen.contains(&head.labels.protocol) {
            continue;
        }
        seen.push(head.labels.protocol.clone());
        let (batch, results) = match w.driver {
            Driver::Solo => {
                let result = SuiteDriver::new().run(&head);
                (vec![head], vec![result])
            }
            Driver::Streamed => {
                let batch: Vec<Scenario> = (lo..lo + WARM_UP.min(inputs.replicates))
                    .map(|i| first.scenario_at(i))
                    .collect();
                let results = MultiSessionDriver::new().run_batch(&batch);
                (batch, results)
            }
        };
        for (s, r) in batch.iter().zip(results) {
            let r = r.unwrap_or_else(|e| panic!("{}: warm-up session errored: {e}", s.name));
            check_result(s, &r).assert_ok(&s.name);
        }
    }
}

/// One round's fold of the audited results.
#[derive(Debug, Default)]
pub struct Tally {
    /// Sessions run, and those that did not complete their transfer.
    pub sessions: u64,
    pub failed: u64,
    /// Link counters summed over every session.
    pub sent: u64,
    pub delivered: u64,
    pub lost: u64,
    pub corrupted: u64,
    /// Data frames the senders sent, and how many were retransmissions.
    pub frames_sent: u64,
    pub retransmissions: u64,
    /// Payload delivered by successful sessions.
    pub goodput_bytes: u64,
    /// Order-sensitive hash of every result: equal rounds ran equal work.
    pub digest: u64,
    /// Seconds inside the production driver's calls.
    pub driver_s: f64,
    /// Seconds the benchmark spent auditing results.
    pub audit_s: f64,
    /// Wall milliseconds of each driver call, with the sessions it
    /// carried: a session's result exists once its call returns.
    pub latency: Vec<(f64, u64)>,
    /// When each call's results had been audited.
    marks: Vec<Instant>,
}

/// A driver call seen by the traced run: start, end and first session.
pub type Call = (Instant, Instant, usize);

/// What the audit keeps across rounds.
#[derive(Debug, Default)]
pub struct Audit {
    replicates: usize,
    /// Successful sessions' virtual `elapsed`, as a histogram per cell.
    cells: Vec<BTreeMap<u64, u64>>,
    /// The traced run keeps every `every`-th result (none when 0) and the
    /// driver calls that start below session `calls_below`.
    every: usize,
    calls_below: usize,
    pub kept: Vec<ScenarioResult>,
    pub calls: Vec<Call>,
}

impl Audit {
    pub fn new(inputs: &Inputs) -> Audit {
        Audit {
            replicates: inputs.replicates,
            cells: vec![BTreeMap::new(); inputs.sessions / inputs.replicates],
            ..Audit::default()
        }
    }

    /// Keeps every `every`-th result and the calls starting below
    /// session `calls_below` (builder style).
    pub fn keeping(mut self, every: usize, calls_below: usize) -> Audit {
        self.every = every;
        self.calls_below = calls_below;
        self
    }

    /// Folds one driver call covering sessions `first..` of the round.
    /// Any invariant violation, driver error or result mismatch panics:
    /// the benchmark reports numbers only for correct runs.
    fn call(
        &mut self,
        (start, end): (Instant, Instant),
        first: usize,
        batch: &[Scenario],
        results: &[Result<ScenarioResult, ScenarioError>],
        tally: &mut Tally,
    ) {
        assert_eq!(results.len(), batch.len(), "one result per session");
        tally.driver_s += (end - start).as_secs_f64();
        tally
            .latency
            .push(((end - start).as_secs_f64() * 1e3, batch.len() as u64));
        if first < self.calls_below {
            self.calls.push((start, end, first));
        }
        for (k, (s, r)) in batch.iter().zip(results).enumerate() {
            let r = r
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: driver error: {e}", s.name));
            check_result(s, r).assert_ok(&s.name);
            tally.sessions += 1;
            if r.success {
                tally.goodput_bytes += r.payload_bytes;
                *self.cells[(first + k) / self.replicates]
                    .entry(r.elapsed)
                    .or_default() += 1;
            } else {
                tally.failed += 1;
            }
            tally.sent += r.link.sent;
            tally.delivered += r.link.delivered;
            tally.lost += r.link.lost;
            tally.corrupted += r.link.corrupted;
            tally.frames_sent += r.frames_sent;
            tally.retransmissions += r.retransmissions;
            for word in [
                r.elapsed,
                r.link.sent,
                r.link.delivered,
                r.retransmissions,
                r.payload_bytes,
                u64::from(r.success),
            ] {
                tally.digest = (tally.digest ^ word).wrapping_mul(0x0000_0100_0000_01B3);
            }
            if self.every > 0 && (first + k).is_multiple_of(self.every) {
                self.kept.push(r.clone());
            }
        }
        let audited = Instant::now();
        tally.audit_s += (audited - end).as_secs_f64();
        tally.marks.push(audited);
    }

    /// Each campaign cell's median virtual `elapsed` over its successful
    /// sessions (cells without one are skipped).
    fn cell_medians(&self) -> Vec<f64> {
        self.cells
            .iter()
            .filter_map(|hist| {
                let total: u64 = hist.values().sum();
                let mut seen = 0;
                hist.iter().find_map(|(&elapsed, &n)| {
                    seen += n;
                    (2 * seen >= total).then_some(elapsed as f64)
                })
            })
            .collect()
    }
}

/// The `BatchDriver` the streamed workloads hand to
/// `Campaign::run_streaming`: `MultiSessionDriver` with every call timed
/// and every result audited.
struct Audited<'a> {
    fold: Mutex<Fold<'a>>,
}

struct Fold<'a> {
    audit: &'a mut Audit,
    tally: &'a mut Tally,
    /// Round index of the next session; one worker streams chunks in
    /// campaign order.
    next: usize,
}

impl BatchDriver for Audited<'_> {
    fn supports(&self, protocol: &str) -> bool {
        MultiSessionDriver::new().supports(protocol)
    }

    fn run_batch(&self, batch: &[Scenario]) -> Vec<Result<ScenarioResult, ScenarioError>> {
        let start = Instant::now();
        let results = MultiSessionDriver::new().run_batch(batch);
        let end = Instant::now();
        let mut fold = self.fold.lock().expect("an audit panic ends the run");
        let first = fold.next;
        let Fold { audit, tally, .. } = &mut *fold;
        audit.call((start, end), first, batch, &results, tally);
        fold.next += batch.len();
        results
    }
}

/// One timed round.
pub struct Round {
    /// Wall seconds of the whole round.
    pub wall: f64,
    /// The round's wall time cut at the end of every driver call: piece
    /// `k` is everything between the results of calls `k - 1` and `k`.
    pub pieces: Vec<f64>,
    pub tally: Tally,
}

/// Runs one round of the workload's sessions through its driver.
pub fn round(w: &Workload, inputs: &Inputs, audit: &mut Audit) -> Round {
    let mut tally = Tally::default();
    let start = Instant::now();
    match w.driver {
        Driver::Solo => {
            let solo = SuiteDriver::new();
            for (g, s) in inputs.scenarios.iter().enumerate() {
                let t0 = Instant::now();
                let r = solo.run(s);
                let t1 = Instant::now();
                audit.call((t0, t1), g, std::slice::from_ref(s), &[r], &mut tally);
            }
        }
        Driver::Streamed => {
            let mut first = 0;
            for campaign in &inputs.campaigns {
                let n = campaign.scenario_count();
                let driver = Audited {
                    fold: Mutex::new(Fold {
                        audit: &mut *audit,
                        tally: &mut tally,
                        next: first,
                    }),
                };
                // One worker thread: with the caller that is two threads,
                // which is what the reference machine has.
                let report = campaign.run_streaming(&driver, 1, StreamOptions::default());
                let next = driver.fold.into_inner().expect("audit state").next;
                assert_eq!(report.executed, n, "{}: executed", campaign.name());
                assert_eq!(report.errors, 0, "{}: errors", campaign.name());
                assert_eq!(
                    next,
                    first + n,
                    "{}: every session audited",
                    campaign.name()
                );
                first = next;
            }
        }
    }
    let end = Instant::now();
    let mut cuts = vec![start];
    cuts.append(&mut tally.marks);
    cuts.push(end);
    Round {
        wall: (end - start).as_secs_f64(),
        pieces: cuts
            .windows(2)
            .map(|c| (c[1] - c[0]).as_secs_f64())
            .collect(),
        tally,
    }
}

/// `VmHWM` of this process in MB (10^6 bytes).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib * 1024.0 / 1e6
}

/// The untraced run: [`ROUNDS`] times a set-up and a timed round;
/// returns every end-to-end metric plus `(attempted, failed)` sessions.
///
/// Every set-up and every round repeat the same work, so each set-up,
/// each piece of a round (see [`Round::pieces`]) and each driver call is
/// timed once per round, and the timed metrics use the fastest of those
/// repeats: interference from other work on the host only ever slows a
/// piece down.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> (Vec<Measured>, u64, u64) {
    let mut setups = Vec::with_capacity(ROUNDS);
    let mut audit = None;
    let rounds: Vec<Round> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            let inputs = set_up(w, seed, seconds);
            setups.push(start.elapsed().as_secs_f64());
            let audit = audit.get_or_insert_with(|| Audit::new(&inputs));
            round(w, &inputs, audit)
        })
        .collect();
    let audit = audit.expect("at least one round");
    let work = &rounds[0].tally;
    for (k, r) in rounds.iter().enumerate() {
        assert_eq!(
            r.tally.digest, work.digest,
            "round {k} produced different results from round 0"
        );
    }

    let fastest = |times: &dyn Fn(&Round) -> Vec<f64>| -> Vec<f64> {
        rounds
            .iter()
            .map(times)
            .reduce(|a, b| a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect())
            .expect("at least one round")
    };
    let wall: f64 = fastest(&|r| r.pieces.clone()).iter().sum();
    let calls: Vec<(f64, u64)> = fastest(&|r| r.tally.latency.iter().map(|c| c.0).collect())
        .into_iter()
        .zip(work.latency.iter().map(|c| c.1))
        .collect();
    // A rate over the fastest pieces; the quartiles and samples are the
    // plain per-round rates, which show how much the host interfered.
    let rate = |name: &'static str, amount: f64| {
        let raw: Vec<f64> = rounds.iter().map(|r| amount / r.wall).collect();
        Measured::new(name, amount / wall)
            .spread(ROUNDS, quartiles(&raw))
            .with_samples(raw)
    };
    let latency = |name: &'static str, q: f64| {
        Measured::new(name, weighted_quantile(&calls, q))
            .spread(
                calls.len(),
                (
                    weighted_quantile(&calls, 0.25),
                    weighted_quantile(&calls, 0.75),
                ),
            )
            .with_samples(calls.iter().map(|c| c.0).collect())
    };
    let attempted: u64 = rounds.iter().map(|r| r.tally.sessions).sum();
    let failed: u64 = rounds.iter().map(|r| r.tally.failed).sum();
    let success = (attempted - failed) as f64 / attempted as f64;
    let cell_medians = audit.cell_medians();
    let metrics = vec![
        Measured::new(
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
        )
        .spread(ROUNDS, quartiles(&setups))
        .with_samples(setups),
        rate("sessions_per_s", work.sessions as f64),
        rate("frames_per_s", work.sent as f64),
        rate("goodput_mb_per_s", work.goodput_bytes as f64 / 1e6),
        latency("session_ms_p50", 0.5),
        latency("session_ms_p90", 0.9),
        Measured::new("success_ratio", success).spread(attempted as usize, (success, success)),
        // The mean over campaign cells of each cell's median: one pooled
        // median would jump between protocols whose times differ by
        // orders of magnitude as the seed changes.
        Measured::new(
            "recovery_ticks_p50",
            cell_medians.iter().sum::<f64>() / cell_medians.len().max(1) as f64,
        )
        .spread(cell_medians.len(), quartiles(&cell_medians))
        .with_samples(cell_medians),
        Measured::new("peak_rss_mb", peak_rss_mb()),
    ];
    (metrics, attempted, failed)
}
