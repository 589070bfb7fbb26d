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
//! One executor runs every campaign. Workers steal chunks of the
//! expansion, generate each chunk's scenarios on demand
//! ([`Campaign::scenario_at`]) and hand them to a [`BatchDriver`], which
//! may run the chunk's sessions back to back on one simulator; every
//! [`ScenarioDriver`] is one. Each outcome then goes to one fold, in
//! expansion order. [`Campaign::run`] runs one-scenario chunks and keeps
//! every [`ScenarioRun`] — right for sweeps you want to slice
//! afterwards. [`Campaign::run_streaming`] folds outcomes into
//! [`StreamAggregate`]s with a bounded raw-sample reservoir — right for
//! 10⁶-scenario sweeps that must not hold 10⁶ results in memory.
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
    EngineConfig, Fault, ProtocolSpec, Scenario, ScenarioDriver, ScenarioError, ScenarioLabels,
    ScenarioResult, TopologySpec, TrafficPattern,
};
use crate::stats::Aggregate;
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

/// A declarative sweep over protocols × engines × links × topologies ×
/// traffic × seeds. See the [module docs](self) for the determinism
/// contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    name: String,
    base_seed: u64,
    deadline: Tick,
    protocols: Sweep<ProtocolSpec>,
    /// `None` = engines not swept: scenarios keep whatever engine their
    /// protocol spec carries, and the engine label is `"default"`.
    engines: Option<Sweep<EngineConfig>>,
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
            engines: None,
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

    /// Sets the engine-configuration axis (builder style). Every
    /// scenario cell then runs once per [`EngineConfig`] entry, with the
    /// config applied over the protocol spec
    /// ([`ProtocolSpec::with_engine`]) — so engine-product sweeps (e.g.
    /// the golden-parity 4-combo loop over [`EngineConfig::all`]) stop
    /// hand-rolling the cartesian product. Campaigns that never call
    /// this keep their protocol specs' own engine settings untouched.
    #[must_use]
    pub fn engines(mut self, engines: Sweep<EngineConfig>) -> Self {
        self.engines = Some(engines);
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
    /// materialising any of them (an unset engine axis counts as one
    /// implicit entry).
    pub fn scenario_count(&self) -> usize {
        self.protocols.len()
            * self.engines.as_ref().map_or(1, Sweep::len)
            * self.links.len()
            * self.topologies.len()
            * self.traffic.len()
            * self.seeds.len()
    }

    /// Builds the `idx`-th scenario of the expansion on demand — the
    /// streaming counterpart of [`Campaign::scenarios`]. The order is
    /// fixed (protocol-major, then engine, link, topology, traffic,
    /// seed), and `scenario_at(i)` equals `scenarios()[i]` for every
    /// in-range index, so [`Campaign::run_streaming`] can sweep 10⁶
    /// scenarios while only ever holding one worker chunk in memory.
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
        // Decompose innermost-axis-last: seeds vary fastest.
        let mut rest = idx;
        let si = rest % self.seeds.len();
        rest /= self.seeds.len();
        let tri = rest % self.traffic.len();
        rest /= self.traffic.len();
        let ti = rest % self.topologies.len();
        rest /= self.topologies.len();
        let li = rest % self.links.len();
        rest /= self.links.len();
        let engines_len = self.engines.as_ref().map_or(1, Sweep::len);
        let ei = rest % engines_len;
        rest /= engines_len;
        let pi = rest;

        let (proto_label, proto) = &self.protocols.entries[pi];
        let engine = self.engines.as_ref().map(|e| &e.entries[ei]);
        let (link_label, link) = &self.links.entries[li];
        let (topo_label, topo) = &self.topologies.entries[ti];
        let (traffic_label, traffic) = &self.traffic.entries[tri];
        let (seed_label, axis_seed) = &self.seeds.entries[si];
        let engine_label = engine.map_or("default", |(l, _)| l.as_str());
        let protocol = match engine {
            Some((_, config)) => proto.clone().with_engine(*config),
            None => proto.clone(),
        };
        // `campaign/protocol/engine/link/topology/traffic/seed`, built in
        // one allocation of exact size.
        let parts = [
            self.name.as_str(),
            proto_label,
            engine_label,
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
            protocol,
            link: link.clone(),
            topology: *topo,
            traffic: *traffic,
            faults: self.faults.clone(),
            seed: derive_seed(self.base_seed, *axis_seed),
            deadline: self.deadline,
            labels: ScenarioLabels {
                protocol: proto_label.clone(),
                engine: engine_label.to_string(),
                link: link_label.clone(),
                topology: topo_label.clone(),
                traffic: traffic_label.clone(),
                seed: seed_label.clone(),
            },
        }
    }

    /// Expands the cartesian product into concrete scenarios, in a fixed
    /// order (protocol-major, then engine, link, topology, traffic,
    /// seed).
    pub fn scenarios(&self) -> Vec<Scenario> {
        (0..self.scenario_count())
            .map(|i| self.scenario_at(i))
            .collect()
    }

    /// Executes every scenario on `threads` worker threads (clamped to
    /// at least 1) and returns the per-scenario outcomes in expansion
    /// order. This is the streaming executor with one scenario per chunk
    /// and a fold that keeps every [`ScenarioRun`], so the report is a
    /// pure function of the campaign and driver: thread count only
    /// changes wall-clock time.
    pub fn run(&self, driver: &dyn BatchDriver, threads: usize) -> CampaignReport {
        let n = self.scenario_count();
        let opts = StreamOptions {
            chunk: 1,
            raw_cap: n,
        };
        CampaignReport {
            campaign: self.name.clone(),
            runs: self.execute(driver, threads, opts, None, Vec::with_capacity(n)),
        }
    }

    /// Executes the whole expansion without ever materialising it:
    /// workers steal fixed-size chunks of scenario indices, generate
    /// each chunk's scenarios on demand via [`Campaign::scenario_at`],
    /// hand the chunk to the [`BatchDriver`], and fold every outcome
    /// into the report's [`StreamAggregate`]s **strictly in expansion
    /// order**, so the report is bit-identical across thread counts and
    /// chunk sizes (f64 addition is folded in one fixed order).
    ///
    /// Peak memory is `O(threads × chunk + raw_cap)`: one chunk of
    /// scenarios per worker, the samples of at most `2 × threads`
    /// finished chunks waiting for a slower earlier one, and the
    /// report's bounded sample reservoirs. A 10⁶-scenario sweep
    /// therefore runs on all cores without holding 10⁶ results, names,
    /// or samples.
    pub fn run_streaming(
        &self,
        driver: &dyn BatchDriver,
        threads: usize,
        opts: StreamOptions,
    ) -> StreamingReport {
        let report = StreamingReport::empty(self.name.clone(), opts.raw_cap);
        self.execute(driver, threads, opts, None, report)
    }

    /// [`Campaign::run_streaming`] with a live [`ProgressSink`]: the
    /// executing worker reports after every finished chunk (chunks and
    /// cells done, aggregate cells/s, reservoir bound, per-worker cell
    /// counts), and one final `done` update follows the last fold.
    /// Progress is observational only — the report is bit-identical to
    /// [`Campaign::run_streaming`] whatever the sink does.
    pub fn run_streaming_with(
        &self,
        driver: &dyn BatchDriver,
        threads: usize,
        opts: StreamOptions,
        sink: &dyn ProgressSink,
    ) -> StreamingReport {
        let report = StreamingReport::empty(self.name.clone(), opts.raw_cap);
        self.execute(driver, threads, opts, Some(sink), report)
    }

    /// The one executor behind [`Campaign::run`] and
    /// [`Campaign::run_streaming_with`]. Workers steal chunks of
    /// `opts.chunk` scenario indices (atomic counter), build each
    /// chunk's scenarios into a buffer they keep across chunks, run it
    /// through [`run_chunk`] and digest it ([`Fold::digest`]) outside
    /// the lock. Digested chunks reach `fold` strictly in chunk-index
    /// order: one that finishes early waits in the pending map. For a
    /// [`Fold::BOUNDED`] fold no worker starts a chunk `2 × workers` or
    /// more ahead of the fold, which bounds the pending map. `sink`, if
    /// any, hears after every chunk and once at the end, and
    /// `opts.raw_cap` is the retention bound those updates report.
    fn execute<F: Fold>(
        &self,
        driver: &dyn BatchDriver,
        threads: usize,
        opts: StreamOptions,
        sink: Option<&dyn ProgressSink>,
        fold: F,
    ) -> F {
        let n = self.scenario_count();
        let (chunk, raw_cap) = (opts.chunk.max(1), opts.raw_cap);
        let chunks = n.div_ceil(chunk);
        let workers = threads.max(1).min(chunks.max(1));
        let merger = Merger {
            state: Mutex::new(Merge {
                fold,
                next: 0,
                pending: BTreeMap::new(),
                failed: false,
            }),
            merged: Condvar::new(),
            lag: if F::BOUNDED { 2 * workers } else { chunks },
        };
        let next = AtomicUsize::new(0);
        let chunks_done = AtomicUsize::new(0);
        let cells_done = AtomicUsize::new(0);
        let shard_cells: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let started = Instant::now();
        // Per chunk, `reservoir` is the fold-bound estimate; the final
        // update carries the exact occupancy. Without a sink no update is
        // built.
        let update = |chunks_done, cells_done: usize, reservoir, done| {
            let Some(sink) = sink else { return };
            let elapsed = started.elapsed().as_secs_f64();
            sink.progress(&ProgressUpdate {
                chunks_done,
                chunks_total: chunks,
                cells_done,
                cells_total: n,
                cells_per_sec: if elapsed > 0.0 {
                    cells_done as f64 / elapsed
                } else {
                    0.0
                },
                reservoir,
                raw_cap,
                shard_cells: shard_cells
                    .iter()
                    .map(|s| s.load(Ordering::Relaxed))
                    .collect(),
                done,
            });
        };

        thread::scope(|scope| {
            for shard in &shard_cells {
                let (merger, next, update) = (&merger, &next, &update);
                let (chunks_done, cells_done) = (&chunks_done, &cells_done);
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
                        merger.finish(c, F::digest(&mut batch, outcomes));
                        shard.fetch_add((hi - lo) as u64, Ordering::Relaxed);
                        let done_cells =
                            cells_done.fetch_add(hi - lo, Ordering::SeqCst) + (hi - lo);
                        let done_chunks = chunks_done.fetch_add(1, Ordering::SeqCst) + 1;
                        update(done_chunks, done_cells, done_cells.min(raw_cap), false);
                    }
                });
            }
        });

        let m = merger.state.into_inner().expect("workers joined");
        assert_eq!(m.next, chunks, "every chunk folded");
        update(chunks, n, m.fold.retained(), true);
        m.fold
    }
}

/// A scenario's result, or why no driver could execute it.
type Outcome = Result<ScenarioResult, ScenarioError>;

/// What the executor folds finished chunks into, in chunk order.
trait Fold: Send {
    /// `true` when the fold's memory is bounded, so the finished chunks
    /// waiting for it must be bounded too. A fold that keeps every run
    /// holds them all anyway, and its workers never wait.
    const BOUNDED: bool;

    /// What the fold keeps of one finished chunk: the worker builds it
    /// outside the lock, and it is what waits in the pending map when
    /// the chunk finishes early.
    type Chunk: Send;

    /// Takes what the fold needs from one chunk's outcomes, index for
    /// index with `scenarios`. It may move the scenarios out; the
    /// worker clears the buffer anyway.
    fn digest(scenarios: &mut Vec<Scenario>, outcomes: Vec<Outcome>) -> Self::Chunk;

    /// Folds one digested chunk; chunks arrive in chunk-index order.
    fn fold(&mut self, chunk: Self::Chunk);

    /// Raw samples (or runs) held so far, for the final progress update.
    fn retained(&self) -> usize;
}

/// [`Campaign::run`]'s fold: every scenario with its outcome.
impl Fold for Vec<ScenarioRun> {
    const BOUNDED: bool = false;
    type Chunk = Vec<ScenarioRun>;

    fn digest(scenarios: &mut Vec<Scenario>, outcomes: Vec<Outcome>) -> Self::Chunk {
        let runs = scenarios.drain(..).zip(outcomes);
        runs.map(|(scenario, outcome)| ScenarioRun { scenario, outcome })
            .collect()
    }

    fn fold(&mut self, mut chunk: Self::Chunk) {
        self.append(&mut chunk);
    }

    fn retained(&self) -> usize {
        self.len()
    }
}

/// [`Campaign::run_streaming`]'s fold: bounded aggregates, no records.
impl Fold for StreamingReport {
    const BOUNDED: bool = true;
    /// The chunk's [`Tally`], and the names of its first 16 errors.
    type Chunk = (Tally, Vec<(String, String)>);

    fn digest(scenarios: &mut Vec<Scenario>, outcomes: Vec<Outcome>) -> Self::Chunk {
        let errors = scenarios
            .iter()
            .zip(&outcomes)
            .filter_map(|(scenario, outcome)| {
                let e = outcome.as_ref().err()?;
                Some((scenario.name.clone(), e.to_string()))
            });
        let errors = errors.take(ERROR_SAMPLE_CAP).collect();
        (Tally::of(outcomes.iter()), errors)
    }

    /// Adds the chunk's counts and pushes its samples one at a time, so
    /// every sum is folded in expansion order.
    fn fold(&mut self, (tally, errors): Self::Chunk) {
        self.executed += tally.runs;
        self.succeeded += tally.succeeded;
        self.failed += tally.failed;
        self.errors += tally.errors;
        for (agg, samples) in [
            (&mut self.goodput, tally.goodput),
            (&mut self.latency, tally.latency),
            (&mut self.retransmits, tally.retransmits),
            (&mut self.delivery, tally.delivery),
        ] {
            samples.into_iter().for_each(|sample| agg.push(sample));
        }
        let room = ERROR_SAMPLE_CAP - self.error_sample.len();
        self.error_sample.extend(errors.into_iter().take(room));
    }

    fn retained(&self) -> usize {
        self.delivery.samples().len()
    }
}

/// The chunk-order fold the workers share.
struct Merger<F: Fold> {
    state: Mutex<Merge<F>>,
    merged: Condvar,
    /// How many chunks a worker may run ahead of the oldest unfolded
    /// one, which bounds the pending map.
    lag: usize,
}

/// The fold so far, the next chunk it expects, digested chunks that
/// finished ahead of it, and whether a worker has panicked.
struct Merge<F: Fold> {
    fold: F,
    next: usize,
    pending: BTreeMap<usize, F::Chunk>,
    failed: bool,
}

impl<F: Fold> Merger<F> {
    fn lock(&self) -> MutexGuard<'_, Merge<F>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until chunk `c` is within `lag` chunks of the fold; `false`
    /// once a worker has panicked.
    fn start(&self, c: usize) -> bool {
        let mut m = self.lock();
        while c >= m.next + self.lag && !m.failed {
            m = self.merged.wait(m).unwrap_or_else(PoisonError::into_inner);
        }
        !m.failed
    }

    /// Folds chunk `c` if it is next in order, then every pending chunk
    /// that now follows; a chunk that arrives early waits in the
    /// pending map.
    fn finish(&self, c: usize, chunk: F::Chunk) {
        let mut guard = self.lock();
        let m = &mut *guard;
        if c != m.next {
            m.pending.insert(c, chunk);
            return;
        }
        m.fold.fold(chunk);
        m.next += 1;
        while let Some(chunk) = m.pending.remove(&m.next) {
            m.fold.fold(chunk);
            m.next += 1;
        }
        drop(guard);
        // Only a bounded fold's workers ever wait in `start`.
        if F::BOUNDED {
            self.merged.notify_all();
        }
    }
}

/// Stops the waiting workers if the worker holding it unwinds, so a
/// panicking driver fails the run instead of stalling it.
struct FailOnPanic<'a, F: Fold>(&'a Merger<F>);

impl<F: Fold> Drop for FailOnPanic<'_, F> {
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
    /// Maximum raw samples retained per metric across the whole run
    /// (the [`StreamAggregate`] reservoir bound).
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

/// Streaming counterpart of [`Aggregate`]: exact count / sum / mean /
/// min / max over *every* sample, plus a bounded reservoir holding the
/// first `cap` samples in scenario order, so a 10⁶-run sweep retains
/// `O(cap)` memory instead of `O(runs)`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamAggregate {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    cap: usize,
    reservoir: Vec<f64>,
}

impl StreamAggregate {
    /// An empty aggregate retaining at most `cap` raw samples.
    pub fn new(cap: usize) -> Self {
        StreamAggregate {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            cap,
            reservoir: Vec::new(),
        }
    }

    /// Folds in one sample.
    pub fn push(&mut self, sample: f64) {
        self.count += 1;
        self.sum += sample;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
        if self.reservoir.len() < self.cap {
            self.reservoir.push(sample);
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

    /// The retained raw samples: the first `min(cap, count)` samples in
    /// scenario order.
    pub fn samples(&self) -> &[f64] {
        &self.reservoir
    }
}

/// How many failing scenario names a streaming report retains.
const ERROR_SAMPLE_CAP: usize = 16;

/// What a [`Campaign::run_streaming`] sweep produced: exact counts and
/// streaming distributions, but no per-scenario records — memory stays
/// bounded no matter how many scenarios ran.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingReport {
    /// Name of the campaign that ran.
    pub campaign: String,
    /// Scenarios executed (the full expansion).
    pub executed: usize,
    /// Runs whose workload completed correctly.
    pub succeeded: usize,
    /// Runs that executed but did not complete the workload.
    pub failed: usize,
    /// Runs no driver could execute.
    pub errors: usize,
    /// Goodput distribution over successful runs.
    pub goodput: StreamAggregate,
    /// Per-message latency distribution over successful runs.
    pub latency: StreamAggregate,
    /// Retransmit-rate distribution over successful runs.
    pub retransmits: StreamAggregate,
    /// Delivery-ratio distribution over all executed runs.
    pub delivery: StreamAggregate,
    /// Up to 16 `(scenario name, error)` pairs, in scenario order.
    pub error_sample: Vec<(String, String)>,
}

impl StreamingReport {
    fn empty(campaign: String, raw_cap: usize) -> Self {
        StreamingReport {
            campaign,
            executed: 0,
            succeeded: 0,
            failed: 0,
            errors: 0,
            goodput: StreamAggregate::new(raw_cap),
            latency: StreamAggregate::new(raw_cap),
            retransmits: StreamAggregate::new(raw_cap),
            delivery: StreamAggregate::new(raw_cap),
            error_sample: Vec::new(),
        }
    }
}

/// One scenario plus what running it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Its result, or why no driver could execute it.
    pub outcome: Result<ScenarioResult, ScenarioError>,
}

/// Everything a campaign run produced, in expansion order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Name of the campaign that ran.
    pub campaign: String,
    /// Per-scenario outcomes.
    pub runs: Vec<ScenarioRun>,
}

impl CampaignReport {
    /// Aggregate over every run.
    pub fn aggregate(&self) -> Summary {
        Summary::of(self.runs.iter())
    }

    /// Aggregates per group, keyed by `key(scenario)`; groups are sorted
    /// by key. Typical keys join axis labels, e.g.
    /// `|s| format!("{}/{}", s.labels.link, s.labels.protocol)`.
    pub fn group_by<F>(&self, key: F) -> BTreeMap<String, Summary>
    where
        F: Fn(&Scenario) -> String,
    {
        let mut groups: BTreeMap<String, Vec<&ScenarioRun>> = BTreeMap::new();
        for run in &self.runs {
            groups.entry(key(&run.scenario)).or_default().push(run);
        }
        groups
            .into_iter()
            .map(|(k, runs)| (k, Summary::of(runs.into_iter())))
            .collect()
    }

    /// The runs whose driver errored (unknown protocol, bad topology).
    pub fn errors(&self) -> impl Iterator<Item = &ScenarioRun> {
        self.runs.iter().filter(|r| r.outcome.is_err())
    }
}

/// Cross-run statistics for a set of scenario runs.
///
/// The percentile distributions cover *successful* runs only (a run that
/// failed has no meaningful goodput); `succeeded`/`failed`/`errors`
/// count every run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Total runs in the group.
    pub runs: usize,
    /// Runs whose workload completed correctly.
    pub succeeded: usize,
    /// Runs that executed but did not complete the workload.
    pub failed: usize,
    /// Runs no driver could execute.
    pub errors: usize,
    /// Goodput distribution (payload bytes / 1000 ticks).
    pub goodput: Aggregate,
    /// Per-message latency distribution (ticks per delivered message).
    pub latency: Aggregate,
    /// Retransmit-rate distribution (retransmissions per message).
    pub retransmits: Aggregate,
    /// Delivery-ratio distribution over *all* executed runs (including
    /// failures — partial delivery is the interesting signal there).
    pub delivery: Aggregate,
}

impl Summary {
    /// Tallies `runs` ([`Tally::of`]) and sorts each metric's samples
    /// into an [`Aggregate`].
    fn of<'a>(runs: impl Iterator<Item = &'a ScenarioRun>) -> Summary {
        let t = Tally::of(runs.map(|run| &run.outcome));
        Summary {
            runs: t.runs,
            succeeded: t.succeeded,
            failed: t.failed,
            errors: t.errors,
            goodput: Aggregate::from_samples(t.goodput),
            latency: Aggregate::from_samples(t.latency),
            retransmits: Aggregate::from_samples(t.retransmits),
            delivery: Aggregate::from_samples(t.delivery),
        }
    }
}

/// Run counts and every sample of a sequence of outcomes, in order. It
/// is the one rule behind every campaign statistic, which [`Summary`]
/// and [`StreamingReport`] both fold through: goodput, latency and
/// retransmits come from successful runs, delivery from every executed
/// run, and errors are counted apart.
struct Tally {
    runs: usize,
    succeeded: usize,
    failed: usize,
    errors: usize,
    goodput: Vec<f64>,
    latency: Vec<f64>,
    retransmits: Vec<f64>,
    delivery: Vec<f64>,
}

impl Tally {
    /// Fills one pre-sized buffer per metric in a single pass: per-cell
    /// summaries are built thousands of times per campaign report.
    fn of<'a>(outcomes: impl Iterator<Item = &'a Outcome>) -> Tally {
        let expected = outcomes.size_hint().0;
        let mut t = Tally {
            runs: 0,
            succeeded: 0,
            failed: 0,
            errors: 0,
            goodput: Vec::with_capacity(expected),
            latency: Vec::with_capacity(expected),
            retransmits: Vec::with_capacity(expected),
            delivery: Vec::with_capacity(expected),
        };
        for outcome in outcomes {
            t.runs += 1;
            match outcome {
                Ok(r) => {
                    t.delivery.push(r.delivery_ratio());
                    if r.success {
                        t.succeeded += 1;
                        t.goodput.push(r.goodput());
                        t.latency.push(r.latency_per_message());
                        t.retransmits.push(r.retransmit_rate());
                    } else {
                        t.failed += 1;
                    }
                }
                Err(_) => t.errors += 1,
            }
        }
        t
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
        assert_eq!(scenarios[0].name, "t/p1/default/clean/duplex/default/s0");
        assert_eq!(scenarios[11].name, "t/p2/default/dead/duplex/default/s2");
        assert_eq!(scenarios[0].labels.engine, "default");
        // Common random numbers: same seed replicate → same derived seed
        // across protocols and links.
        assert_eq!(scenarios[0].seed, scenarios[3].seed);
        assert_eq!(scenarios[0].seed, scenarios[6].seed);
        // Different replicates differ.
        assert_ne!(scenarios[0].seed, scenarios[1].seed);
    }

    #[test]
    fn engine_axis_multiplies_the_expansion_and_rewrites_the_spec() {
        use crate::scenario::FramePath;
        let engines = Sweep::grid(
            EngineConfig::all()
                .into_iter()
                .map(|cfg| (cfg.label(), cfg)),
        );
        let c = small_campaign().engines(engines);
        let scenarios = c.scenarios();
        assert_eq!(scenarios.len(), 2 * 4 * 2 * 3);
        // The engine label sits between protocol and link, and the spec
        // actually carries the swept config.
        assert_eq!(
            scenarios[0].name,
            "t/p1/compiled/typestate/clean/duplex/default/s0"
        );
        assert_eq!(scenarios[0].labels.engine, "compiled/typestate");
        assert_eq!(scenarios[0].protocol.engine(), EngineConfig::default());
        let interpreted = scenarios
            .iter()
            .find(|s| s.labels.engine.starts_with("interpreted/"))
            .expect("interpreted engine cells exist");
        assert_eq!(
            interpreted.protocol.engine().frame_path,
            FramePath::Interpreted
        );
        // Engine is a non-seed axis: common random numbers hold across it.
        assert_eq!(scenarios[0].seed, scenarios[6].seed);
    }

    #[test]
    fn scenario_at_matches_the_materialised_expansion() {
        let engines = Sweep::grid(
            EngineConfig::all()
                .into_iter()
                .map(|cfg| (cfg.label(), cfg)),
        );
        for c in [small_campaign(), small_campaign().engines(engines)] {
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
        let summary = report.aggregate();
        let streamed = c.run_streaming(&Echo, 2, StreamOptions::default());
        assert_eq!(streamed.executed, summary.runs);
        assert_eq!(streamed.succeeded, summary.succeeded);
        assert_eq!(streamed.failed, summary.failed);
        assert_eq!(streamed.errors, summary.errors);
        assert_eq!(streamed.goodput.count(), summary.goodput.count() as u64);
        assert_eq!(streamed.delivery.count(), summary.delivery.count() as u64);
        // With an uncapped reservoir the raw samples are exactly the
        // materialised ones, in scenario order.
        let goodput: Vec<f64> = report
            .runs
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .filter(|r| r.success)
            .map(|r| r.goodput())
            .collect();
        assert_eq!(streamed.goodput.samples(), &goodput[..]);
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
        assert_eq!(last.cells_done, c.scenario_count());
        assert_eq!(last.chunks_done, chunks);
        assert_eq!(
            last.shard_cells.iter().sum::<u64>(),
            c.scenario_count() as u64,
            "every cell is attributed to a worker shard"
        );
        assert_eq!(
            last.reservoir,
            observed.delivery.samples().len(),
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
                if batch[0].name == "t/p1/default/clean/duplex/default/s0" {
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
        let full = c.run_streaming(&Echo, 1, StreamOptions::default());
        assert_eq!(capped.delivery.count(), 12);
        assert!(capped.delivery.samples().len() <= 2, "reservoir is bounded");
        assert_eq!(capped.delivery.samples(), &full.delivery.samples()[..2]);
        assert_eq!(capped.goodput.sum(), full.goodput.sum());
        assert_eq!(capped.goodput.mean(), full.goodput.mean());
        assert_eq!(capped.goodput.min(), full.goodput.min());
        assert_eq!(capped.goodput.max(), full.goodput.max());
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
        assert_eq!(
            streamed.error_sample[0].0,
            "e/bad/default/clean/duplex/default/s0"
        );
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
    fn summary_counts_and_distributions() {
        let report = small_campaign().run(&Echo, 2);
        let s = report.aggregate();
        assert_eq!(s.runs, 12);
        assert_eq!(s.succeeded, 6, "dead links fail");
        assert_eq!(s.failed, 6);
        assert_eq!(s.errors, 0);
        assert_eq!(s.goodput.count(), 6);
        assert_eq!(s.delivery.count(), 12);
    }

    #[test]
    fn group_by_splits_on_axis_labels() {
        let report = small_campaign().run(&Echo, 2);
        let groups = report.group_by(|s| s.labels.link.clone());
        assert_eq!(groups.len(), 2);
        assert_eq!(groups["clean"].succeeded, 6);
        assert_eq!(groups["dead"].succeeded, 0);
    }

    #[test]
    fn unknown_protocols_surface_as_errors() {
        let c = Campaign::new("e", 0)
            .protocols(Sweep::single("bad", ProtocolSpec::new("unknown")))
            .links(Sweep::single("clean", LinkConfig::reliable(1)));
        let report = c.run(&Echo, 1);
        assert_eq!(report.errors().count(), 1);
        assert_eq!(report.aggregate().errors, 1);
    }

    #[test]
    fn more_threads_than_scenarios_is_fine() {
        let c = Campaign::new("tiny", 0)
            .protocols(Sweep::single("p", ProtocolSpec::new("a")))
            .links(Sweep::single("l", LinkConfig::reliable(1)));
        let report = c.run(&Echo, 64);
        assert_eq!(report.runs.len(), 1);
    }
}
