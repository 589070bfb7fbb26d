//! E15 — the batch session engine, measured.
//!
//! `MultiSessionDriver` runs a whole chunk of scenarios back to back on
//! one simulator, reset in place between sessions, and campaigns
//! stream over it instead of materialising per-scenario runs
//! (`docs/SESSIONS.md`). The arm and metric names still say
//! "multiplexed" and "mux", after the driver's module. Two claims are
//! pinned here:
//!
//! * **Throughput:** aggregate sessions/s at 10 000 tiny sessions, the
//!   batch driver against *N independent simulators* — the legacy
//!   core, which builds a fresh arena and event queue per scenario
//!   with no cross-scenario reuse (the same independent baseline E13
//!   gates its pooled-core speedup against). The gated `mux_speedup`
//!   metric is that ratio; CI asserts the committed full-depth mean
//!   via `tools/check_bench_json --min-metric`. The warm recycled solo
//!   path (`SoloBatch(SuiteDriver)`, which checks a core out of the
//!   thread-local pool per session) is also timed and reported as
//!   `warm_solo_ratio`, ungated: per-session work (frames, endpoint
//!   logic, verification) is paid identically in both arms, so the
//!   ratio shows only what resetting one simulator in place saves over
//!   the pool checkout, the drop and the per-session result fold.
//! * **Memory-bounded scale:** a 1 048 576-session sweep through
//!   [`Campaign::run_streaming`] completes with the raw-sample
//!   reservoir capped (asserted ≤ `raw_cap` on every aggregate) — the
//!   million-session contract: memory stays O(chunk + raw_cap), not
//!   O(sessions), where the materialising `Campaign::run` would hold a
//!   million `ScenarioRun`s.
//!
//! Equivalence is asserted before anything is timed: the batched
//! sessions must reproduce the solo results bit-for-bit across the whole
//! grid (the same guarantee `tests/golden_parity.rs` pins
//! fixture-by-fixture), and the independent-baseline arm must agree
//! cell-for-cell too (engine cores change speed, never results). Speed
//! without equivalence would be measuring a different simulator.

use std::hint::black_box;
use std::time::Instant;

use netdsl_bench::report::{self, BenchReport, Metric};
use netdsl_bench::stages;
use netdsl_netsim::campaign::{BatchDriver, Campaign, SoloBatch, StreamOptions, Sweep};
use netdsl_netsim::scenario::{EngineConfig, ProtocolSpec, Scenario, TrafficPattern};
use netdsl_netsim::{LinkConfig, LogProgress, SimCore};
use netdsl_protocols::multiplex::MultiSessionDriver;
use netdsl_protocols::scenario::{
    SuiteDriver, BASELINE, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT,
};

/// Scenarios per `run_batch` call in the timed multiplexed runs.
const CHUNK: usize = 512;

/// Sessions in the head-to-head comparison (both modes: the claim is
/// pinned *at* 10k sessions, so quick mode shrinks reps, not N).
const HEAD_SESSIONS: u64 = 10_000;

/// Sessions in the streaming smoke (2^20: the million-session bound).
const STREAM_SESSIONS: usize = 1 << 20;

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// The suite protocols on tiny transfers: fixed per-session work keeps
/// the engine (not the protocol) the thing being measured.
fn protocol_axis() -> Sweep<ProtocolSpec> {
    Sweep::grid([
        (
            "sw",
            ProtocolSpec::new(STOP_AND_WAIT)
                .with_timeout(40)
                .with_retries(50),
        ),
        (
            "gbn4",
            ProtocolSpec::new(GO_BACK_N)
                .with_window(4)
                .with_timeout(60)
                .with_retries(50),
        ),
        (
            "sr4",
            ProtocolSpec::new(SELECTIVE_REPEAT)
                .with_window(4)
                .with_timeout(60)
                .with_retries(50),
        ),
        ("base", ProtocolSpec::new(BASELINE).with_timeout(40)),
    ])
}

/// The 10k-session head-to-head campaign: 4 protocols × 2 links ×
/// 1250 seed replicates of a 2-message session.
fn head_campaign() -> Campaign {
    Campaign::new("e15-head", 0xE15)
        .protocols(protocol_axis())
        .links(Sweep::grid([
            ("clean", LinkConfig::reliable(2)),
            ("lossy", LinkConfig::lossy(2, 0.15)),
        ]))
        .traffic(Sweep::single("tiny", TrafficPattern::messages(2, 16)))
        .seeds(Sweep::seeds(HEAD_SESSIONS / 8))
}

/// The million-session streaming campaign: 4 protocols × 256 link
/// delays × 1024 seed replicates of a 1-message session = 2^20 cells.
/// Axes are split so the expanded label vectors stay O(thousands) even
/// though the product is a million.
fn stream_campaign() -> Campaign {
    Campaign::new("e15-stream", 0xE150)
        .protocols(protocol_axis())
        .links(Sweep::grid(
            (0..256u64).map(|d| (format!("d{d}"), LinkConfig::reliable(1 + d % 8))),
        ))
        .traffic(Sweep::single("one", TrafficPattern::messages(1, 8)))
        .seeds(Sweep::seeds(1024))
}

/// The same grid re-pinned to an explicit engine core — the axis of the
/// independent-simulators baseline (results are core-invariant; only
/// the engine underneath changes).
fn with_core(scenarios: &[Scenario], core: SimCore) -> Vec<Scenario> {
    scenarios
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.protocol = s.protocol.clone().with_engine(EngineConfig {
                sim_core: core,
                ..EngineConfig::default()
            });
            s
        })
        .collect()
}

/// Runs every scenario through `driver` in `chunk`-sized batches,
/// returning sessions/s.
fn batched_rate(driver: &dyn BatchDriver, scenarios: &[Scenario], chunk: usize) -> f64 {
    let start = Instant::now();
    for batch in scenarios.chunks(chunk) {
        black_box(driver.run_batch(batch));
    }
    scenarios.len() as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let quick = report::quick();
    let reps = if quick { 3 } else { 7 };
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());

    println!("E15: batched sessions (one reset simulator per chunk) vs independent simulators\n");

    let head = head_campaign();
    let scenarios = head.scenarios();
    assert_eq!(scenarios.len(), HEAD_SESSIONS as usize, "head grid size");
    let independent = with_core(&scenarios, SimCore::Legacy);
    let mux = MultiSessionDriver::new();
    let solo = SoloBatch(SuiteDriver::new());

    // Equivalence first: the batch driver must reproduce the solo
    // path bit-for-bit across the whole 10k-scenario grid, and the
    // independent-core baseline must produce the same results again.
    for (batch, base) in scenarios.chunks(CHUNK).zip(independent.chunks(CHUNK)) {
        let muxed = mux.run_batch(batch);
        let soloed = solo.run_batch(batch);
        let baseline = solo.run_batch(base);
        for (((m, s), l), scenario) in muxed.iter().zip(&soloed).zip(&baseline).zip(batch) {
            assert_eq!(m, s, "multiplexed diverged from solo on {}", scenario.name);
            assert_eq!(
                s, l,
                "legacy core diverged from pooled on {}",
                scenario.name
            );
        }
    }
    println!(
        "equivalence: {} sessions bit-identical across all three arms (chunk {CHUNK})\n",
        scenarios.len()
    );

    let mut out = BenchReport::new(
        "e15_session_mux",
        "multiplexed session engine: chunks run back to back on one reset simulator vs one simulator per scenario",
    );

    // Head-to-head throughput. Arms interleave within each rep so drift
    // (thermal, scheduler) hits all three alike.
    let mut mux_rates = Vec::with_capacity(reps);
    let mut solo_rates = Vec::with_capacity(reps);
    let mut indep_rates = Vec::with_capacity(reps);
    let mut speedups = Vec::with_capacity(reps);
    let mut warm_ratios = Vec::with_capacity(reps);
    for _ in 0..reps {
        let m = batched_rate(&mux, &scenarios, CHUNK);
        let s = batched_rate(&solo, &scenarios, CHUNK);
        let l = batched_rate(&solo, &independent, CHUNK);
        mux_rates.push(m);
        solo_rates.push(s);
        indep_rates.push(l);
        speedups.push(m / l);
        warm_ratios.push(m / s);
    }
    println!(
        "sessions   ({} × chunk {CHUNK}): multiplexed {:>9.0}/s   warm solo {:>9.0}/s   independent {:>9.0}/s",
        scenarios.len(),
        mean(&mux_rates),
        mean(&solo_rates),
        mean(&indep_rates),
    );
    println!(
        "           mux_speedup (vs independent) {:.2}x   warm_solo_ratio {:.2}x",
        mean(&speedups),
        mean(&warm_ratios),
    );

    // The million-session streaming smoke: bounded memory, all cores.
    let stream = stream_campaign();
    assert_eq!(stream.scenario_count(), STREAM_SESSIONS, "streaming grid");
    let opts = StreamOptions {
        chunk: 4096,
        raw_cap: 1024,
    };
    // A million sessions take a while: a throttled progress sink logs
    // one line a second (chunks done, cells/s, reservoir occupancy,
    // per-shard counts) so the run is watchable instead of silent.
    let progress = LogProgress::new("e15-stream");
    let start = Instant::now();
    let streamed = stream.run_streaming_with(&mux, threads, opts, &progress);
    let stream_rate = STREAM_SESSIONS as f64 / start.elapsed().as_secs_f64();
    assert_eq!(streamed.executed, STREAM_SESSIONS, "every cell executed");
    assert_eq!(streamed.errors, 0, "no streaming cell may error");
    assert_eq!(
        streamed.succeeded, STREAM_SESSIONS,
        "every session completes"
    );
    for (name, agg) in [
        ("goodput", &streamed.goodput),
        ("latency", &streamed.latency),
        ("retransmits", &streamed.retransmits),
        ("delivery", &streamed.delivery),
    ] {
        assert!(
            agg.samples().len() <= opts.raw_cap,
            "{name} reservoir exceeded the raw-sample cap: {} > {}",
            agg.samples().len(),
            opts.raw_cap
        );
    }
    println!(
        "streaming  ({STREAM_SESSIONS} sessions × {threads} threads, chunk {}, raw cap {}): {stream_rate:>9.0} sessions/s",
        opts.chunk, opts.raw_cap
    );

    for (driver, samples) in [
        ("multiplexed", &mux_rates),
        ("solo", &solo_rates),
        ("independent", &indep_rates),
    ] {
        out.push(
            Metric::new("session_throughput", "sessions/s")
                .with_axis("driver", driver)
                .with_axis("sessions", HEAD_SESSIONS.to_string())
                .with_axis("chunk", CHUNK.to_string())
                .with_samples(samples.iter().copied()),
        );
    }
    out.push(
        Metric::new("mux_speedup", "ratio")
            .with_axis(
                "comparison",
                "multiplexed vs N independent simulators (legacy core, fresh arena+queue each)",
            )
            .with_axis("sessions", HEAD_SESSIONS.to_string())
            .with_samples(speedups.iter().copied()),
    );
    out.push(
        Metric::new("warm_solo_ratio", "ratio")
            .with_axis(
                "comparison",
                "multiplexed vs warm recycled solo (thread-local core pool)",
            )
            .with_axis("sessions", HEAD_SESSIONS.to_string())
            .with_samples(warm_ratios.iter().copied()),
    );
    out.push(
        Metric::new("stream_throughput", "sessions/s")
            .with_axis("sessions", STREAM_SESSIONS.to_string())
            .with_axis("threads", threads.to_string())
            .with_axis("chunk", opts.chunk.to_string())
            .with_sample(stream_rate),
    );
    out.push(
        Metric::new("stream_success", "ratio")
            .with_axis("sessions", STREAM_SESSIONS.to_string())
            .with_sample(streamed.succeeded as f64 / streamed.executed as f64),
    );

    // Advisory on the live run (a preempted runner must not redden CI
    // through scheduler noise); the hard gate is enforced by
    // `check_bench_json --min-metric` on the committed full-depth
    // BENCH_E15.json.
    let speedup = mean(&speedups);
    if speedup < 1.0 {
        eprintln!(
            "WARNING: multiplexed engine only {speedup:.2}x over independent simulators this \
             run (expected ≥ 1x); likely measurement noise"
        );
    }
    // Stage attribution rides along (and into the E15 alias below) so a
    // mux regression can be localised to schedule/deliver vs codec.
    stages::attach(&mut out, reps, report::scaled(20_000, 2_000));

    println!("\nexpected shape: mux_speedup ≥ 1 vs independent simulators, warm_solo_ratio a");
    println!("little above 1 (a reset in place saves only the pool checkout and drop); streaming");
    println!("memory stays O(raw_cap), not O(sessions) (docs/SESSIONS.md).");

    out.write();

    // Alias artifact pinning the subsystem's acceptance path
    // (`bench-results/BENCH_E15.json`): same measurements under the
    // short id, schema-valid on its own, gated by CI on `mux_speedup`.
    let mut alias = BenchReport::new("E15", "alias of e15_session_mux (session-mux gate)");
    alias.metrics = out.metrics.clone();
    alias.write();
}
