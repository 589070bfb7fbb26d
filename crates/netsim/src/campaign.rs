//! Cartesian scenario sweeps executed in parallel.
//!
//! A [`Campaign`] is the declarative counterpart of the hand-wired
//! experiment harnesses: each axis — protocols, link conditions,
//! topologies, traffic patterns, seeds — is a labelled [`Sweep`], the
//! campaign expands their cartesian product into [`Scenario`]s, and
//! [`Campaign::run`] executes them across std threads. Three properties
//! make the sweeps trustworthy:
//!
//! * **deterministic seeding** — each scenario's simulator seed is drawn
//!   from a ChaCha stream keyed by the campaign base seed and that
//!   scenario's seed-axis value, so seeds never depend on expansion
//!   order or scheduling;
//! * **common random numbers** — scenarios that differ only on non-seed
//!   axes share the same simulator seed, so protocol A and protocol B
//!   face the *same* channel randomness (the classic variance-reduction
//!   device for paired comparisons);
//! * **schedule independence** — outcomes are folded in expansion
//!   order whichever thread ran them, so a run on 8 threads is
//!   bit-identical to a run on 1 (there is a property test for this in
//!   `tests/campaign.rs`).
//!
//! One executor runs every campaign, and every run returns one
//! [`CampaignReport`]. Workers steal chunks of the expansion, generate
//! each chunk's scenarios on demand ([`Campaign::scenario_at`]) and hand
//! them to a [`BatchDriver`], which may run the chunk's sessions back to
//! back on one simulator; every [`ScenarioDriver`] is one. Each outcome
//! is then folded, in expansion order, into its [`Cell`]: one
//! combination of the non-seed axes, whose seed replicates are a
//! contiguous run of the expansion because seeds vary fastest.
//! [`Campaign::run`] keeps every raw sample — right for sweeps you want
//! to slice afterwards. [`Campaign::run_streaming`] keeps at most
//! [`StreamOptions::raw_cap`] per metric — right for 10⁶-scenario sweeps
//! that must not hold 10⁶ results in memory.
//!
//! ```
//! use netdsl_netsim::campaign::{Campaign, Sweep};
//! use netdsl_netsim::scenario::ProtocolSpec;
//! use netdsl_netsim::LinkConfig;
//!
//! let campaign = Campaign::new("doc", 1)
//!     .protocols(Sweep::grid([("sw", ProtocolSpec::new("stop-and-wait"))]))
//!     .links(Sweep::grid([
//!         ("clean", LinkConfig::reliable(2)),
//!         ("lossy", LinkConfig::lossy(2, 0.2)),
//!     ]))
//!     .seeds(Sweep::seeds(3));
//! assert_eq!(campaign.scenarios().len(), 6); // 1 protocol × 2 links × 3 seeds
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Instant;

use netdsl_obs::{ProgressSink, ProgressUpdate};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

use crate::link::LinkConfig;
use crate::scenario::{
    Fault, ProtocolSpec, Scenario, ScenarioDriver, ScenarioError, ScenarioLabels, ScenarioResult,
    TopologySpec, TrafficPattern,
};
use crate::Tick;

/// One labelled campaign axis: an ordered list of `(label, value)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep<T> {
    entries: Vec<(String, T)>,
}

impl<T> Sweep<T> {
    /// An axis holding exactly one value.
    pub fn single(label: impl Into<String>, value: T) -> Self {
        Sweep {
            entries: vec![(label.into(), value)],
        }
    }

    /// An axis over all the given `(label, value)` pairs.
    pub fn grid<L: Into<String>>(entries: impl IntoIterator<Item = (L, T)>) -> Self {
        Sweep {
            entries: entries.into_iter().map(|(l, v)| (l.into(), v)).collect(),
        }
    }

    /// Appends one more entry (builder style).
    #[must_use]
    pub fn and(mut self, label: impl Into<String>, value: T) -> Self {
        self.entries.push((label.into(), value));
        self
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the axis has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(label, value)` pairs in sweep order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, T)> {
        self.entries.iter()
    }

    /// The labels in sweep order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(l, _)| l.as_str())
    }
}

impl Sweep<u64> {
    /// The canonical seed axis: `n` replicates labelled `s0..s{n-1}`
    /// with axis values `0..n`. The axis value is *not* the simulator
    /// seed — the campaign derives that through ChaCha (see
    /// [`derive_seed`]) — it only identifies the replicate.
    pub fn seeds(n: u64) -> Self {
        Sweep {
            entries: (0..n).map(|i| (format!("s{i}"), i)).collect(),
        }
    }
}

/// Derives the simulator seed for one scenario from the campaign base
/// seed and the scenario's seed-axis value, via a ChaCha12 stream. The
/// derivation is a pure function of `(base_seed, axis_seed)`: it does
/// not depend on where the scenario sits in the expansion, which axes
/// exist, or how many threads run the campaign.
pub fn derive_seed(base_seed: u64, axis_seed: u64) -> u64 {
    // Golden-ratio mixing keeps consecutive axis seeds far apart in the
    // ChaCha key space.
    let key = base_seed ^ axis_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ChaCha12Rng::seed_from_u64(key).next_u64()
}

/// A declarative sweep over protocols × links × topologies × traffic ×
/// seeds. See the [module docs](self) for the determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    name: String,
    base_seed: u64,
    deadline: Tick,
    protocols: Sweep<ProtocolSpec>,
    links: Sweep<LinkConfig>,
    topologies: Sweep<TopologySpec>,
    traffic: Sweep<TrafficPattern>,
    seeds: Sweep<u64>,
    faults: Vec<Fault>,
}

impl Campaign {
    /// An empty campaign: one duplex topology, default traffic, one
    /// seed replicate, no faults. Protocols and links start empty and
    /// must be populated for the campaign to expand to anything.
    pub fn new(name: impl Into<String>, base_seed: u64) -> Self {
        Campaign {
            name: name.into(),
            base_seed,
            deadline: 500_000_000,
            protocols: Sweep {
                entries: Vec::new(),
            },
            links: Sweep {
                entries: Vec::new(),
            },
            topologies: Sweep::single("duplex", TopologySpec::Duplex),
            traffic: Sweep::single("default", TrafficPattern::default()),
            seeds: Sweep::seeds(1),
            faults: Vec::new(),
        }
    }

    /// Campaign name (used as the scenario-name prefix).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the protocol axis (builder style).
    #[must_use]
    pub fn protocols(mut self, protocols: Sweep<ProtocolSpec>) -> Self {
        self.protocols = protocols;
        self
    }

    /// Sets the link-condition axis (builder style).
    #[must_use]
    pub fn links(mut self, links: Sweep<LinkConfig>) -> Self {
        self.links = links;
        self
    }

    /// Sets the topology axis (builder style).
    #[must_use]
    pub fn topologies(mut self, topologies: Sweep<TopologySpec>) -> Self {
        self.topologies = topologies;
        self
    }

    /// Sets the traffic axis (builder style).
    #[must_use]
    pub fn traffic(mut self, traffic: Sweep<TrafficPattern>) -> Self {
        self.traffic = traffic;
        self
    }

    /// Sets the seed axis (builder style).
    #[must_use]
    pub fn seeds(mut self, seeds: Sweep<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Schedules a fault in every scenario (builder style).
    #[must_use]
    pub fn fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Sets the per-scenario virtual-time budget (builder style).
    #[must_use]
    pub fn deadline(mut self, deadline: Tick) -> Self {
        self.deadline = deadline;
        self
    }

    /// Number of scenarios the cartesian product expands to, without
    /// materialising any of them.
    pub fn scenario_count(&self) -> usize {
        self.cell_count() * self.seeds.len()
    }

    /// Number of combinations of the non-seed axes.
    fn cell_count(&self) -> usize {
        self.protocols.len() * self.links.len() * self.topologies.len() * self.traffic.len()
    }

    /// The protocol, link, topology and traffic entries of cell `c`, the
    /// `c`-th combination of the non-seed axes (traffic varies fastest).
    fn cell_axes(&self, c: usize) -> [usize; 4] {
        let mut rest = c;
        let traffic = rest % self.traffic.len();
        rest /= self.traffic.len();
        let topology = rest % self.topologies.len();
        rest /= self.topologies.len();
        let link = rest % self.links.len();
        [rest / self.links.len(), link, topology, traffic]
    }

    /// Builds the `idx`-th scenario of the expansion on demand — the
    /// streaming counterpart of [`Campaign::scenarios`]. The order is
    /// fixed (protocol-major, then link, topology, traffic, seed), and
    /// `scenario_at(i)` equals `scenarios()[i]` for every in-range
    /// index, so [`Campaign::run_streaming`] can sweep 10⁶ scenarios
    /// while only ever holding one worker chunk in memory.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.scenario_count()`.
    pub fn scenario_at(&self, idx: usize) -> Scenario {
        assert!(
            idx < self.scenario_count(),
            "scenario index {idx} out of range ({} scenarios)",
            self.scenario_count()
        );
        // Seeds vary fastest: scenario `idx` is replicate `idx % seeds`
        // of cell `idx / seeds`.
        let replicates = self.seeds.len();
        let [pi, li, ti, tri] = self.cell_axes(idx / replicates);
        let (proto_label, protocol) = &self.protocols.entries[pi];
        let (link_label, link) = &self.links.entries[li];
        let (topo_label, topo) = &self.topologies.entries[ti];
        let (traffic_label, traffic) = &self.traffic.entries[tri];
        let (seed_label, axis_seed) = &self.seeds.entries[idx % replicates];
        // `campaign/protocol/link/topology/traffic/seed`, built in one
        // allocation of exact size.
        let parts = [
            self.name.as_str(),
            proto_label,
            link_label,
            topo_label,
            traffic_label,
            seed_label,
        ];
        let mut name =
            String::with_capacity(parts.iter().map(|p| p.len()).sum::<usize>() + parts.len() - 1);
        for (k, part) in parts.into_iter().enumerate() {
            if k > 0 {
                name.push('/');
            }
            name.push_str(part);
        }
        Scenario {
            name,
            protocol: protocol.clone(),
            link: link.clone(),
            topology: *topo,
            traffic: *traffic,
            faults: self.faults.clone(),
            seed: derive_seed(self.base_seed, *axis_seed),
            deadline: self.deadline,
            labels: ScenarioLabels {
                protocol: proto_label.clone(),
                link: link_label.clone(),
                topology: topo_label.clone(),
                traffic: traffic_label.clone(),
                seed: seed_label.clone(),
            },
        }
    }

    /// Expands the cartesian product into concrete scenarios, in a fixed
    /// order (protocol-major, then link, topology, traffic, seed).
    pub fn scenarios(&self) -> Vec<Scenario> {
        (0..self.scenario_count())
            .map(|i| self.scenario_at(i))
            .collect()
    }

    /// The report before anything ran: zero counts, and one empty
    /// [`Cell`] per combination of the non-seed axes, in expansion
    /// order.
    fn empty_report(&self) -> CampaignReport {
        let cells = (0..self.cell_count()).map(|c| {
            let [pi, li, ti, tri] = self.cell_axes(c);
            Cell::new(
                &self.protocols.entries[pi].0,
                &self.links.entries[li].0,
                &self.topologies.entries[ti].0,
                &self.traffic.entries[tri].0,
            )
        });
        CampaignReport {
            campaign: self.name.clone(),
            executed: 0,
            succeeded: 0,
            failed: 0,
            errors: 0,
            cells: cells.collect(),
            error_sample: Vec::new(),
        }
    }

    /// Executes every scenario on `threads` worker threads (clamped to
    /// at least 1) and returns the report with every raw sample kept.
    /// This is the streaming executor with one scenario per chunk, no
    /// sample cap, and workers that never wait for the fold, so one
    /// slow early scenario does not idle the rest. The report is a pure
    /// function of the campaign and driver: thread count only changes
    /// wall-clock time.
    pub fn run(&self, driver: &dyn BatchDriver, threads: usize) -> CampaignReport {
        let opts = StreamOptions {
            chunk: 1,
            raw_cap: self.scenario_count(),
        };
        self.execute(driver, threads, opts, None, false)
    }

    /// Executes the whole expansion without ever materialising it:
    /// workers steal fixed-size chunks of scenario indices, generate
    /// each chunk's scenarios on demand via [`Campaign::scenario_at`],
    /// hand the chunk to the [`BatchDriver`], and fold every outcome
    /// into its cell **strictly in expansion order**, so the report is
    /// bit-identical across thread counts and chunk sizes (f64 addition
    /// is folded in one fixed order).
    ///
    /// Peak memory is `O(threads × chunk + raw_cap + cells)`: one chunk
    /// of scenarios per worker, the digests of at most `2 × threads`
    /// finished chunks waiting for a slower earlier one, at most
    /// `raw_cap` raw samples per metric, and one small entry per cell.
    /// A 10⁶-scenario sweep therefore runs on all cores without holding
    /// 10⁶ results, names, or samples.
    pub fn run_streaming(
        &self,
        driver: &dyn BatchDriver,
        threads: usize,
        opts: StreamOptions,
    ) -> CampaignReport {
        self.execute(driver, threads, opts, None, true)
    }

    /// [`Campaign::run_streaming`] with a live [`ProgressSink`]: the
    /// executing worker reports after every finished chunk (chunks and
    /// scenarios done, aggregate scenarios/s, reservoir bound,
    /// per-worker scenario counts), and one final `done` update follows
    /// the last fold. Progress is observational only — the report is
    /// bit-identical to [`Campaign::run_streaming`] whatever the sink
    /// does.
    pub fn run_streaming_with(
        &self,
        driver: &dyn BatchDriver,
        threads: usize,
        opts: StreamOptions,
        sink: &dyn ProgressSink,
    ) -> CampaignReport {
        self.execute(driver, threads, opts, Some(sink), true)
    }

    /// The one executor behind [`Campaign::run`] and
    /// [`Campaign::run_streaming_with`]. Workers steal chunks of
    /// `opts.chunk` scenario indices (atomic counter), build each
    /// chunk's scenarios into a buffer they keep across chunks, run it
    /// through [`run_chunk`] and digest it ([`Digest::of`]) outside the
    /// lock. Digests reach the [`Tally`] strictly in chunk-index order:
    /// one that finishes early waits in the pending map. When `bounded`,
    /// no worker starts a chunk `2 × workers` or more ahead of the fold,
    /// which bounds the pending map; otherwise workers never wait.
    /// `sink`, if any, hears after every chunk and once at the end, and
    /// `opts.raw_cap` is the retention bound those updates report.
    fn execute(
        &self,
        driver: &dyn BatchDriver,
        threads: usize,
        opts: StreamOptions,
        sink: Option<&dyn ProgressSink>,
        bounded: bool,
    ) -> CampaignReport {
        let n = self.scenario_count();
        let (chunk, raw_cap) = (opts.chunk.max(1), opts.raw_cap);
        let chunks = n.div_ceil(chunk);
        let workers = threads.max(1).min(chunks.max(1));
        let merger = Merger {
            state: Mutex::new(Merge {
                tally: Tally {
                    report: self.empty_report(),
                    replicates: self.seeds.len(),
                    next: 0,
                    room: [raw_cap; 5],
                },
                next: 0,
                pending: BTreeMap::new(),
                failed: false,
            }),
            merged: Condvar::new(),
            lag: bounded.then_some(2 * workers),
        };
        let next = AtomicUsize::new(0);
        let chunks_done = AtomicUsize::new(0);
        let scenarios_done = AtomicUsize::new(0);
        let shard_scenarios: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let started = Instant::now();
        // Per chunk, `reservoir` is the fold-bound estimate; the final
        // update carries the exact occupancy. Without a sink no update is
        // built.
        let update = |chunks_done, scenarios_done: usize, reservoir, done| {
            let Some(sink) = sink else { return };
            let elapsed = started.elapsed().as_secs_f64();
            sink.progress(&ProgressUpdate {
                chunks_done,
                chunks_total: chunks,
                scenarios_done,
                scenarios_total: n,
                scenarios_per_sec: if elapsed > 0.0 {
                    scenarios_done as f64 / elapsed
                } else {
                    0.0
                },
                reservoir,
                raw_cap,
                shard_scenarios: shard_scenarios
                    .iter()
                    .map(|s| s.load(Ordering::Relaxed))
                    .collect(),
                done,
            });
        };

        thread::scope(|scope| {
            for shard in &shard_scenarios {
                let (merger, next, update) = (&merger, &next, &update);
                let (chunks_done, scenarios_done) = (&chunks_done, &scenarios_done);
                scope.spawn(move || {
                    let _fail = FailOnPanic(merger);
                    let mut batch: Vec<Scenario> = Vec::with_capacity(chunk);
                    loop {
                        let c = next.fetch_add(1, Ordering::SeqCst);
                        if c >= chunks {
                            break;
                        }
                        let lo = c * chunk;
                        let hi = (lo + chunk).min(n);
                        batch.clear();
                        batch.extend((lo..hi).map(|i| self.scenario_at(i)));
                        if !merger.start(c) {
                            return;
                        }
                        let outcomes = run_chunk(driver, &batch);
                        merger.finish(c, Digest::of(&batch, &outcomes));
                        shard.fetch_add((hi - lo) as u64, Ordering::Relaxed);
                        let scenarios =
                            scenarios_done.fetch_add(hi - lo, Ordering::SeqCst) + (hi - lo);
                        let done_chunks = chunks_done.fetch_add(1, Ordering::SeqCst) + 1;
                        update(done_chunks, scenarios, scenarios.min(raw_cap), false);
                    }
                });
            }
        });

        let m = merger.state.into_inner().expect("workers joined");
        assert_eq!(m.next, chunks, "every chunk folded");
        let report = m.tally.finish();
        let retained = report.cells.iter().map(|c| c.success.samples().len());
        update(chunks, n, retained.sum(), true);
        report
    }
}

/// A scenario's result, or why no driver could execute it.
type Outcome = Result<ScenarioResult, ScenarioError>;

/// One run as the report folds it. This is the one rule behind every
/// campaign statistic: goodput, latency and retransmits come from
/// successful runs, delivery from every executed run, and the success
/// series from every run, with errors as 0.
#[derive(Debug, Clone, Copy)]
enum Run {
    /// No driver could execute the scenario.
    Error,
    /// Executed without completing the workload.
    Failed { delivery: f64 },
    /// Completed the workload.
    Succeeded {
        delivery: f64,
        goodput: f64,
        latency: f64,
        retransmits: f64,
    },
}

impl Run {
    fn of(outcome: &Outcome) -> Run {
        match outcome {
            Err(_) => Run::Error,
            Ok(r) if r.success => Run::Succeeded {
                delivery: r.delivery_ratio(),
                goodput: r.goodput(),
                latency: r.latency_per_message(),
                retransmits: r.retransmit_rate(),
            },
            Ok(r) => Run::Failed {
                delivery: r.delivery_ratio(),
            },
        }
    }
}

/// What the fold keeps of one finished chunk. The worker builds it
/// outside the lock, and it is what waits in the pending map when the
/// chunk finishes early.
struct Digest {
    /// Every run, in chunk order.
    runs: Vec<Run>,
    /// The names of the chunk's first 16 errors, with the errors.
    errors: Vec<(String, String)>,
}

impl Digest {
    /// Digests one chunk's outcomes, index for index with `batch`.
    fn of(batch: &[Scenario], outcomes: &[Outcome]) -> Digest {
        let errors = batch
            .iter()
            .zip(outcomes)
            .filter_map(|(scenario, outcome)| {
                let e = outcome.as_ref().err()?;
                Some((scenario.name.clone(), e.to_string()))
            });
        Digest {
            runs: outcomes.iter().map(Run::of).collect(),
            errors: errors.take(ERROR_SAMPLE_CAP).collect(),
        }
    }
}

/// The report being folded: the next run's expansion index, the seed
/// replicates per cell, and how many raw samples each metric may still
/// keep (in [`Cell`] field order).
struct Tally {
    report: CampaignReport,
    replicates: usize,
    next: usize,
    room: [usize; 5],
}

impl Tally {
    /// Folds one digested chunk; chunks arrive in chunk-index order, so
    /// every cell sees its runs, and every sum its samples, in expansion
    /// order.
    fn fold(&mut self, chunk: Digest) {
        for run in chunk.runs {
            self.report.cells[self.next / self.replicates].add(run, &mut self.room);
            self.next += 1;
        }
        let room = ERROR_SAMPLE_CAP - self.report.error_sample.len();
        self.report
            .error_sample
            .extend(chunk.errors.into_iter().take(room));
    }

    /// The finished report, its totals summed over the cells.
    fn finish(mut self) -> CampaignReport {
        let r = &mut self.report;
        for cell in &r.cells {
            r.executed += cell.executed;
            r.succeeded += cell.succeeded;
            r.failed += cell.failed;
            r.errors += cell.errors;
        }
        self.report
    }
}

/// The chunk-order fold the workers share.
struct Merger {
    state: Mutex<Merge>,
    merged: Condvar,
    /// How many chunks a worker may run ahead of the oldest unfolded
    /// one, which bounds the pending map; `None` when workers never
    /// wait.
    lag: Option<usize>,
}

/// The fold so far, the next chunk it expects, digests of chunks that
/// finished ahead of it, and whether a worker has panicked.
struct Merge {
    tally: Tally,
    next: usize,
    pending: BTreeMap<usize, Digest>,
    failed: bool,
}

impl Merger {
    fn lock(&self) -> MutexGuard<'_, Merge> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until chunk `c` is within `lag` chunks of the fold; `false`
    /// once a worker has panicked.
    fn start(&self, c: usize) -> bool {
        let mut m = self.lock();
        if let Some(lag) = self.lag {
            while c >= m.next + lag && !m.failed {
                m = self.merged.wait(m).unwrap_or_else(PoisonError::into_inner);
            }
        }
        !m.failed
    }

    /// Folds chunk `c` if it is next in order, then every pending chunk
    /// that now follows; a chunk that arrives early waits in the
    /// pending map.
    fn finish(&self, c: usize, chunk: Digest) {
        let mut guard = self.lock();
        let m = &mut *guard;
        if c != m.next {
            m.pending.insert(c, chunk);
            return;
        }
        m.tally.fold(chunk);
        m.next += 1;
        while let Some(chunk) = m.pending.remove(&m.next) {
            m.tally.fold(chunk);
            m.next += 1;
        }
        drop(guard);
        // Only a bounded run's workers ever wait in `start`.
        if self.lag.is_some() {
            self.merged.notify_all();
        }
    }
}

/// Stops the waiting workers if the worker holding it unwinds, so a
/// panicking driver fails the run instead of stalling it.
struct FailOnPanic<'a>(&'a Merger);

impl Drop for FailOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.lock().failed = true;
            self.0.merged.notify_all();
        }
    }
}

/// Runs one chunk through the batch driver and returns its outcomes in
/// chunk order. Scenarios the driver does not support become
/// `UnknownProtocol` errors in place, and only the supported remainder
/// reaches [`BatchDriver::run_batch`]. The common all-supported chunk
/// goes to the driver as is.
fn run_chunk(driver: &dyn BatchDriver, batch: &[Scenario]) -> Vec<Outcome> {
    let supported = |s: &Scenario| driver.supports(&s.protocol.name);
    if batch.iter().all(supported) {
        let outcomes = driver.run_batch(batch);
        assert_eq!(outcomes.len(), batch.len(), "run_batch preserves arity");
        return outcomes;
    }
    let sub: Vec<Scenario> = batch.iter().filter(|s| supported(s)).cloned().collect();
    let mut results = driver.run_batch(&sub).into_iter();
    assert_eq!(results.len(), sub.len(), "run_batch preserves arity");
    batch
        .iter()
        .map(|scenario| {
            if supported(scenario) {
                results.next().expect("one result per supported scenario")
            } else {
                Err(ScenarioError::UnknownProtocol(
                    scenario.protocol.name.clone(),
                ))
            }
        })
        .collect()
}

/// A driver that executes a whole chunk of scenarios in one call — e.g.
/// back to back on one simulator that it resets between sessions.
/// Campaigns hand each stolen chunk to [`run_batch`] so the driver can
/// amortise per-scenario setup across the chunk.
///
/// Every [`ScenarioDriver`] is a `BatchDriver` whose batch runs one
/// scenario at a time, so any per-scenario driver runs and streams as
/// is.
///
/// [`run_batch`]: BatchDriver::run_batch
pub trait BatchDriver: Sync {
    /// `true` if this driver knows how to execute the named protocol.
    fn supports(&self, protocol: &str) -> bool;

    /// Executes every scenario of the batch, returning outcomes in
    /// batch order: `out[i]` belongs to `batch[i]`, and
    /// `out.len() == batch.len()`.
    fn run_batch(&self, batch: &[Scenario]) -> Vec<Result<ScenarioResult, ScenarioError>>;
}

impl<D: ScenarioDriver + ?Sized> BatchDriver for D {
    fn supports(&self, protocol: &str) -> bool {
        ScenarioDriver::supports(self, protocol)
    }

    fn run_batch(&self, batch: &[Scenario]) -> Vec<Result<ScenarioResult, ScenarioError>> {
        batch.iter().map(|s| self.run(s)).collect()
    }
}

/// How a streaming run chunks work and bounds raw-sample memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOptions {
    /// Scenarios per work-stealing chunk (clamped to at least 1). The
    /// chunk is also the batch handed to [`BatchDriver::run_batch`], so
    /// it sets how many scenarios a worker holds at once.
    pub chunk: usize,
    /// Maximum raw samples retained per metric across the whole report:
    /// the first `raw_cap` in expansion order, wherever their cells
    /// are. Every [`StreamAggregate`]'s moments stay exact.
    pub raw_cap: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            chunk: 512,
            raw_cap: 4096,
        }
    }
}

/// Streaming counterpart of [`Aggregate`](crate::stats::Aggregate):
/// exact count / sum / mean / min / max over *every* sample, plus the
/// raw samples the report had room for (see
/// [`StreamOptions::raw_cap`]), in scenario order, so a 10⁶-run sweep
/// retains `O(raw_cap)` memory instead of `O(runs)`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamAggregate {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    samples: Vec<f64>,
}

impl StreamAggregate {
    fn new() -> Self {
        StreamAggregate {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            samples: Vec::new(),
        }
    }

    /// Folds in one sample, and keeps it raw while `room` lasts.
    fn push(&mut self, sample: f64, room: &mut usize) {
        self.count += 1;
        self.sum += sample;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
        if *room > 0 {
            *room -= 1;
            self.samples.push(sample);
        }
    }

    /// Samples folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum over every sample.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean over every sample (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The retained raw samples, in scenario order: every sample when
    /// the report came from [`Campaign::run`].
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// How many failing scenario names a report retains.
const ERROR_SAMPLE_CAP: usize = 16;

/// What a campaign run produced: exact counts, and one [`Cell`] per
/// combination of the non-seed axes, in expansion order. The same
/// report comes from [`Campaign::run`] (every raw sample kept) and
/// [`Campaign::run_streaming`] (at most `raw_cap` per metric).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Name of the campaign that ran.
    pub campaign: String,
    /// Scenarios run (the full expansion), errors included.
    pub executed: usize,
    /// Runs whose workload completed correctly.
    pub succeeded: usize,
    /// Runs that executed but did not complete the workload.
    pub failed: usize,
    /// Runs no driver could execute.
    pub errors: usize,
    /// One entry per combination of the non-seed axes.
    pub cells: Vec<Cell>,
    /// Up to 16 `(scenario name, error)` pairs, in scenario order.
    pub error_sample: Vec<(String, String)>,
}

/// One combination of the non-seed axes, with its seed replicates
/// folded: its labels, its run counts, and one [`StreamAggregate`] per
/// metric. Goodput, latency and retransmits cover successful runs only
/// (a failed run has no meaningful goodput); delivery covers every
/// executed run (partial delivery is the interesting signal there);
/// success is 1 or 0 for every run, with driver errors as 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Protocol-axis label.
    pub protocol: String,
    /// Link-axis label.
    pub link: String,
    /// Topology-axis label.
    pub topology: String,
    /// Traffic-axis label.
    pub traffic: String,
    /// Seed replicates run, errors included.
    pub executed: usize,
    /// Runs whose workload completed correctly.
    pub succeeded: usize,
    /// Runs that executed but did not complete the workload.
    pub failed: usize,
    /// Runs no driver could execute.
    pub errors: usize,
    /// Goodput (payload bytes / 1000 ticks) over successful runs.
    pub goodput: StreamAggregate,
    /// Ticks per delivered message over successful runs.
    pub latency: StreamAggregate,
    /// Retransmissions per offered message over successful runs.
    pub retransmits: StreamAggregate,
    /// Delivery ratio over every executed run.
    pub delivery: StreamAggregate,
    /// 1 for a successful run and 0 otherwise, over every run.
    pub success: StreamAggregate,
}

impl Cell {
    fn new(protocol: &str, link: &str, topology: &str, traffic: &str) -> Cell {
        Cell {
            protocol: protocol.to_string(),
            link: link.to_string(),
            topology: topology.to_string(),
            traffic: traffic.to_string(),
            executed: 0,
            succeeded: 0,
            failed: 0,
            errors: 0,
            goodput: StreamAggregate::new(),
            latency: StreamAggregate::new(),
            retransmits: StreamAggregate::new(),
            delivery: StreamAggregate::new(),
            success: StreamAggregate::new(),
        }
    }

    /// Folds one run; `room` holds the raw samples each metric may
    /// still keep, in field order.
    fn add(&mut self, run: Run, room: &mut [usize; 5]) {
        let [goodput, latency, retransmits, delivery, success] = room;
        self.executed += 1;
        let ok = match run {
            Run::Error => {
                self.errors += 1;
                0.0
            }
            Run::Failed { delivery: d } => {
                self.failed += 1;
                self.delivery.push(d, delivery);
                0.0
            }
            Run::Succeeded {
                delivery: d,
                goodput: g,
                latency: l,
                retransmits: r,
            } => {
                self.succeeded += 1;
                self.goodput.push(g, goodput);
                self.latency.push(l, latency);
                self.retransmits.push(r, retransmits);
                self.delivery.push(d, delivery);
                1.0
            }
        };
        self.success.push(ok, success);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::LinkStats;

    /// Driver whose result encodes the scenario seed, to observe
    /// expansion and scheduling behaviour.
    struct Echo;

    impl ScenarioDriver for Echo {
        fn supports(&self, protocol: &str) -> bool {
            protocol != "unknown"
        }
        fn run(&self, scenario: &Scenario) -> Result<ScenarioResult, ScenarioError> {
            Ok(ScenarioResult {
                success: scenario.link.loss < 0.5,
                elapsed: 1000,
                messages_offered: scenario.traffic.count as u64,
                messages_delivered: scenario.traffic.count as u64,
                payload_bytes: scenario.seed % 10_000,
                frames_sent: scenario.traffic.count as u64,
                retransmissions: 0,
                link: LinkStats::default(),
            })
        }
    }

    fn small_campaign() -> Campaign {
        Campaign::new("t", 42)
            .protocols(
                Sweep::grid([("p1", ProtocolSpec::new("a"))]).and("p2", ProtocolSpec::new("b")),
            )
            .links(Sweep::grid([
                ("clean", LinkConfig::reliable(1)),
                ("dead", LinkConfig::lossy(1, 1.0)),
            ]))
            .seeds(Sweep::seeds(3))
    }

    #[test]
    fn expansion_is_the_cartesian_product_in_fixed_order() {
        let scenarios = small_campaign().scenarios();
        assert_eq!(scenarios.len(), 2 * 2 * 3);
        assert_eq!(scenarios[0].name, "t/p1/clean/duplex/default/s0");
        assert_eq!(scenarios[11].name, "t/p2/dead/duplex/default/s2");
        // Common random numbers: same seed replicate → same derived seed
        // across protocols and links.
        assert_eq!(scenarios[0].seed, scenarios[3].seed);
        assert_eq!(scenarios[0].seed, scenarios[6].seed);
        // Different replicates differ.
        assert_ne!(scenarios[0].seed, scenarios[1].seed);
    }

    #[test]
    fn scenario_at_matches_the_materialised_expansion() {
        let wide = small_campaign()
            .topologies(Sweep::grid([
                ("duplex", TopologySpec::Duplex),
                ("duplex-b", TopologySpec::Duplex),
            ]))
            .traffic(Sweep::grid([
                ("one", TrafficPattern::messages(1, 8)),
                ("two", TrafficPattern::messages(2, 8)),
                ("three", TrafficPattern::messages(3, 8)),
            ]));
        for c in [small_campaign(), wide] {
            let all = c.scenarios();
            assert_eq!(all.len(), c.scenario_count());
            for (i, scenario) in all.iter().enumerate() {
                assert_eq!(*scenario, c.scenario_at(i), "index {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scenario_at_rejects_out_of_range_indices() {
        let c = small_campaign();
        let _ = c.scenario_at(c.scenario_count());
    }

    #[test]
    fn streaming_matches_the_materialised_run() {
        let c = small_campaign();
        let report = c.run(&Echo, 2);
        // With room for every sample the two entry points agree exactly.
        assert_eq!(c.run_streaming(&Echo, 2, StreamOptions::default()), report);
        // And a cell's raw samples are its replicates' results, in
        // scenario order.
        let scenarios = c.scenarios();
        for (k, cell) in report.cells.iter().enumerate() {
            let replicates = &scenarios[3 * k..3 * (k + 1)];
            let goodput: Vec<f64> = replicates
                .iter()
                .map(|s| Echo.run(s).unwrap())
                .filter(|r| r.success)
                .map(|r| r.goodput())
                .collect();
            assert_eq!(cell.goodput.samples(), &goodput[..], "cell {k}");
        }
    }

    #[test]
    fn streaming_progress_reports_every_chunk_and_a_final_merge() {
        struct Collect(Mutex<Vec<ProgressUpdate>>);
        impl ProgressSink for Collect {
            fn progress(&self, update: &ProgressUpdate) {
                self.0.lock().unwrap().push(update.clone());
            }
        }
        let c = small_campaign();
        let opts = StreamOptions {
            chunk: 5,
            ..StreamOptions::default()
        };
        let sink = Collect(Mutex::new(Vec::new()));
        let observed = c.run_streaming_with(&Echo, 3, opts, &sink);
        assert_eq!(
            observed,
            c.run_streaming(&Echo, 3, opts),
            "progress is observational only"
        );
        let updates = sink.0.into_inner().unwrap();
        let chunks = c.scenario_count().div_ceil(5);
        assert_eq!(updates.len(), chunks + 1, "one per chunk plus the merge");
        let last = updates.last().unwrap();
        assert!(last.done, "final update closes the run");
        assert_eq!(last.scenarios_done, c.scenario_count());
        assert_eq!(last.chunks_done, chunks);
        assert_eq!(
            last.shard_scenarios.iter().sum::<u64>(),
            c.scenario_count() as u64,
            "every scenario is attributed to a worker shard"
        );
        let retained = observed.cells.iter().map(|c| c.success.samples().len());
        assert_eq!(
            last.reservoir,
            retained.sum::<usize>(),
            "final update carries exact reservoir occupancy"
        );
        assert!(updates.iter().rev().skip(1).all(|u| !u.done));
    }

    #[test]
    fn streaming_is_bit_identical_across_thread_and_chunk_choices() {
        // Goodput a seventh of the payload is inexact in binary floats,
        // so a sum that added per-chunk subtotals together would move its
        // last bits with the chunk size.
        struct Sevenths;
        impl ScenarioDriver for Sevenths {
            fn supports(&self, _: &str) -> bool {
                true
            }
            fn run(&self, scenario: &Scenario) -> Result<ScenarioResult, ScenarioError> {
                Echo.run(scenario).map(|r| ScenarioResult {
                    elapsed: 7_000,
                    ..r
                })
            }
        }
        let sevenths = Campaign::new("sevenths", 7)
            .protocols(Sweep::single("p", ProtocolSpec::new("a")))
            .links(Sweep::single("clean", LinkConfig::reliable(1)))
            .seeds(Sweep::seeds(300));
        let cases: [(Campaign, &dyn BatchDriver); 2] =
            [(small_campaign(), &Echo), (sevenths, &Sevenths)];
        for (c, driver) in cases {
            let reference = c.run_streaming(driver, 1, StreamOptions::default());
            for threads in [2, 4, 8] {
                for chunk in [1, 2, 5, 64] {
                    let opts = StreamOptions {
                        chunk,
                        ..StreamOptions::default()
                    };
                    assert_eq!(
                        reference,
                        c.run_streaming(driver, threads, opts),
                        "{} threads={threads} chunk={chunk}",
                        c.name()
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_merges_chunks_that_finish_out_of_order() {
        // The first chunk is slow, so later chunks finish first, wait in
        // the pending map (and workers that run too far ahead wait for
        // the fold to catch up); both reports must still fold in order.
        struct SlowFirst;
        impl BatchDriver for SlowFirst {
            fn supports(&self, protocol: &str) -> bool {
                ScenarioDriver::supports(&Echo, protocol)
            }
            fn run_batch(&self, batch: &[Scenario]) -> Vec<Result<ScenarioResult, ScenarioError>> {
                if batch[0].name.ends_with("/clean/duplex/default/s0")
                    && batch[0].labels.protocol == "p1"
                {
                    thread::sleep(std::time::Duration::from_millis(20));
                }
                Echo.run_batch(batch)
            }
        }
        let c = small_campaign();
        let opts = StreamOptions {
            chunk: 1,
            raw_cap: 5,
        };
        let reference = c.run_streaming(&Echo, 1, opts);
        assert_eq!(reference, c.run_streaming(&SlowFirst, 4, opts));
        assert_eq!(c.run(&Echo, 1), c.run(&SlowFirst, 4));
    }

    #[test]
    fn a_panicking_driver_fails_a_multi_threaded_stream_instead_of_stalling_it() {
        // Workers that ran ahead wait for the merge; when the chunk they
        // wait on panics they must give up, so the panic reaches the
        // caller.
        struct PanicFirst;
        impl BatchDriver for PanicFirst {
            fn supports(&self, protocol: &str) -> bool {
                ScenarioDriver::supports(&Echo, protocol)
            }
            fn run_batch(&self, batch: &[Scenario]) -> Vec<Result<ScenarioResult, ScenarioError>> {
                if batch[0].name == "t/p1/clean/duplex/default/s0" {
                    thread::sleep(std::time::Duration::from_millis(20));
                    panic!("driver failure");
                }
                Echo.run_batch(batch)
            }
        }
        let opts = StreamOptions {
            chunk: 1,
            ..StreamOptions::default()
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            small_campaign().run_streaming(&PanicFirst, 3, opts)
        }));
        assert!(run.is_err(), "the driver's panic propagates");
    }

    #[test]
    fn streaming_caps_raw_samples_but_keeps_exact_moments() {
        let c = small_campaign();
        let opts = StreamOptions {
            chunk: 3,
            raw_cap: 2,
        };
        let capped = c.run_streaming(&Echo, 4, opts);
        let full = c.run(&Echo, 1);
        assert_eq!(capped.executed, 12);
        // The cap spans the whole report: the first two samples of each
        // metric in expansion order, wherever their cells are.
        let delivery = |r: &CampaignReport| -> Vec<f64> {
            let cells = r.cells.iter();
            cells.flat_map(|c| c.delivery.samples()).copied().collect()
        };
        assert_eq!(delivery(&capped), delivery(&full)[..2]);
        for (a, b) in capped.cells.iter().zip(&full.cells) {
            assert_eq!(a.executed, b.executed);
            assert_eq!(a.succeeded, b.succeeded);
            for (x, y) in [
                (&a.goodput, &b.goodput),
                (&a.delivery, &b.delivery),
                (&a.success, &b.success),
            ] {
                assert_eq!(x.count(), y.count());
                assert_eq!(x.sum(), y.sum());
                assert_eq!(x.mean(), y.mean());
                assert_eq!(x.min(), y.min());
                assert_eq!(x.max(), y.max());
            }
        }
    }

    #[test]
    fn streaming_surfaces_unknown_protocols_as_bounded_error_samples() {
        let c = Campaign::new("e", 0)
            .protocols(Sweep::single("bad", ProtocolSpec::new("unknown")))
            .links(Sweep::single("clean", LinkConfig::reliable(1)))
            .seeds(Sweep::seeds(40));
        let streamed = c.run_streaming(&Echo, 2, StreamOptions::default());
        assert_eq!(streamed.errors, 40);
        assert_eq!(streamed.executed, 40);
        assert_eq!(streamed.error_sample.len(), 16, "error sample is bounded");
        assert_eq!(streamed.error_sample[0].0, "e/bad/clean/duplex/default/s0");
    }

    #[test]
    fn derive_seed_is_pure_and_spreads() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }

    #[test]
    fn thread_counts_do_not_change_the_report() {
        let c = small_campaign();
        let one = c.run(&Echo, 1);
        for threads in [2, 4, 8] {
            assert_eq!(one, c.run(&Echo, threads), "threads={threads}");
        }
    }

    #[test]
    fn report_counts_and_distributions() {
        let report = small_campaign().run(&Echo, 2);
        assert_eq!(report.executed, 12);
        assert_eq!(report.succeeded, 6, "dead links fail");
        assert_eq!(report.failed, 6);
        assert_eq!(report.errors, 0);
        let count = |metric: fn(&Cell) -> &StreamAggregate| -> u64 {
            report.cells.iter().map(|c| metric(c).count()).sum()
        };
        assert_eq!(count(|c| &c.goodput), 6, "successful runs only");
        assert_eq!(count(|c| &c.delivery), 12, "every executed run");
        assert_eq!(count(|c| &c.success), 12, "every run");
    }

    #[test]
    fn cells_follow_the_non_seed_axes_in_expansion_order() {
        let report = small_campaign().run(&Echo, 2);
        let labels: Vec<[&str; 4]> = report
            .cells
            .iter()
            .map(|c| [&*c.protocol, &*c.link, &*c.topology, &*c.traffic])
            .collect();
        assert_eq!(
            labels,
            [
                ["p1", "clean", "duplex", "default"],
                ["p1", "dead", "duplex", "default"],
                ["p2", "clean", "duplex", "default"],
                ["p2", "dead", "duplex", "default"],
            ]
        );
        for cell in &report.cells {
            let clean = cell.link == "clean";
            assert_eq!(cell.executed, 3);
            assert_eq!(cell.succeeded, if clean { 3 } else { 0 });
            assert_eq!(cell.success.mean(), if clean { 1.0 } else { 0.0 });
        }
    }

    #[test]
    fn one_failing_cell_is_named_and_every_other_cell_stays_clean() {
        // Every session of (p2, l1) fails; chunks of 5 straddle the
        // 4-replicate cells, so each cell is folded from two chunks.
        struct FailOne;
        impl ScenarioDriver for FailOne {
            fn supports(&self, _: &str) -> bool {
                true
            }
            fn run(&self, scenario: &Scenario) -> Result<ScenarioResult, ScenarioError> {
                let broken = scenario.labels.protocol == "p2" && scenario.labels.link == "l1";
                Echo.run(scenario).map(|r| ScenarioResult {
                    success: !broken,
                    messages_delivered: if broken { 0 } else { r.messages_delivered },
                    ..r
                })
            }
        }
        let c = Campaign::new("f", 3)
            .protocols(Sweep::grid([
                ("p1", ProtocolSpec::new("a")),
                ("p2", ProtocolSpec::new("a")),
            ]))
            .links(Sweep::grid(
                (0..3).map(|k| (format!("l{k}"), LinkConfig::reliable(1))),
            ))
            .traffic(Sweep::single("four", TrafficPattern::messages(4, 8)))
            .seeds(Sweep::seeds(4));
        let opts = StreamOptions {
            chunk: 5,
            raw_cap: 3,
        };
        let streamed = c.run_streaming(&FailOne, 3, opts);
        let full = c.run(&FailOne, 3);
        for report in [&streamed, &full] {
            assert_eq!((report.executed, report.failed), (24, 4));
            assert_eq!(report.cells.len(), 6);
            for cell in &report.cells {
                let broken = cell.protocol == "p2" && cell.link == "l1";
                let (succeeded, failed) = if broken { (0, 4) } else { (4, 0) };
                let name = format!("{}/{}", cell.protocol, cell.link);
                assert_eq!((cell.succeeded, cell.failed), (succeeded, failed), "{name}");
                assert_eq!(cell.executed, 4, "{name}");
                assert_eq!(cell.errors, 0, "{name}");
                let delivered = if broken { 0.0 } else { 1.0 };
                assert_eq!(cell.delivery.max(), Some(delivered), "{name}");
                assert_eq!(cell.success.sum(), succeeded as f64, "{name}");
            }
        }
    }

    #[test]
    fn unknown_protocols_surface_as_errors() {
        let c = Campaign::new("e", 0)
            .protocols(Sweep::single("bad", ProtocolSpec::new("unknown")))
            .links(Sweep::single("clean", LinkConfig::reliable(1)));
        let report = c.run(&Echo, 1);
        assert_eq!(report.errors, 1);
        assert_eq!(report.cells[0].errors, 1);
        assert_eq!(
            report.cells[0].success.samples(),
            [0.0],
            "errors count as 0"
        );
        assert_eq!(report.error_sample.len(), 1);
    }

    #[test]
    fn more_threads_than_scenarios_is_fine() {
        let c = Campaign::new("tiny", 0)
            .protocols(Sweep::single("p", ProtocolSpec::new("a")))
            .links(Sweep::single("l", LinkConfig::reliable(1)));
        let report = c.run(&Echo, 64);
        assert_eq!(report.executed, 1);
        assert_eq!(report.cells.len(), 1);
    }
}
