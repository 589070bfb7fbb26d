//! E16 — the cost of watching: instrumentation overhead, measured.
//!
//! The observability layer (`netdsl-obs`, `docs/OBSERVABILITY.md`)
//! promises to be ignorable: the simulator counts frames, timers and
//! faults in plain fields and hands them to the metric registry once,
//! when it drops; protocol counters self-gate on one relaxed atomic
//! load; the flight recorder is one branch when absent; and a run with
//! telemetry must get the **same results** — telemetry is not a parity
//! axis. This harness pins the price of the enabled path on the most
//! instrumented workload we have, the batched session campaign of E15:
//!
//! * **disabled arm** — the metric switch off, no flight recorder: the
//!   exact configuration every other E-harness measures;
//! * **enabled arm** — the metric registry on (`set_metrics_enabled`)
//!   *and* a flight recorder installed for every session: every
//!   protocol counter, one publish per batch simulator and every ring
//!   write live.
//!
//! Arms interleave within each rep so scheduler and thermal drift hit
//! both alike, and the enabled arm's per-cell results are asserted
//! equal to the disabled arm's before anything is reported. The gated
//! metric is `overhead_ratio` = enabled sessions/s ÷ disabled
//! sessions/s; CI requires the committed full-depth mean ≥ 0.9 (≤ 10%
//! overhead) via `tools/check_bench_json --min-metric`.

use std::hint::black_box;
use std::time::Instant;

use netdsl_bench::report::{self, BenchReport, Metric};
use netdsl_netsim::campaign::{BatchDriver, Campaign, Sweep};
use netdsl_netsim::scenario::{ProtocolSpec, Scenario, TrafficPattern};
use netdsl_netsim::{LinkConfig, ObsConfig};
use netdsl_protocols::multiplex::MultiSessionDriver;
use netdsl_protocols::scenario::{BASELINE, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT};

/// Scenarios per `run_batch` call (same geometry as E15's timed arm).
const CHUNK: usize = 512;

/// Sessions per measured pass.
const SESSIONS: u64 = 10_000;

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// The E15 head grid: 4 protocols × 2 links × tiny 2-message transfers.
fn campaign() -> Campaign {
    Campaign::new("e16-obs", 0xE16)
        .protocols(Sweep::grid([
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
        ]))
        .links(Sweep::grid([
            ("clean", LinkConfig::reliable(2)),
            ("lossy", LinkConfig::lossy(2, 0.15)),
        ]))
        .traffic(Sweep::single("tiny", TrafficPattern::messages(2, 16)))
        .seeds(Sweep::seeds(SESSIONS / 8))
}

/// The grid with a flight recorder installed for every session; the
/// enabled arm also turns the metric registry on around it.
fn instrumented(scenarios: &[Scenario]) -> Vec<Scenario> {
    scenarios
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.protocol.obs = ObsConfig::off().with_flight();
            s
        })
        .collect()
}

/// Runs every scenario through `driver` in `CHUNK`-sized batches,
/// returning sessions/s.
fn rate(driver: &dyn BatchDriver, scenarios: &[Scenario]) -> f64 {
    let start = Instant::now();
    for batch in scenarios.chunks(CHUNK) {
        black_box(driver.run_batch(batch));
    }
    scenarios.len() as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let quick = report::quick();
    let reps = if quick { 3 } else { 7 };

    println!("E16: instrumentation overhead (metrics + flight recorder vs telemetry off)\n");

    let grid = campaign();
    let plain = grid.scenarios();
    assert_eq!(plain.len(), SESSIONS as usize, "grid size");
    let wired = instrumented(&plain);
    let mux = MultiSessionDriver::new();

    // Equivalence first: telemetry must not change a single result.
    for (batch, obs_batch) in plain.chunks(CHUNK).zip(wired.chunks(CHUNK)) {
        let bare = mux.run_batch(batch);
        netdsl_obs::set_metrics_enabled(true);
        let observed = mux.run_batch(obs_batch);
        netdsl_obs::set_metrics_enabled(false);
        for ((b, o), scenario) in bare.iter().zip(&observed).zip(batch) {
            assert_eq!(b, o, "telemetry changed the result of {}", scenario.name);
        }
    }
    println!(
        "equivalence: {} sessions bit-identical with and without telemetry (chunk {CHUNK})\n",
        plain.len()
    );

    let mut disabled_rates = Vec::with_capacity(reps);
    let mut enabled_rates = Vec::with_capacity(reps);
    let mut ratios = Vec::with_capacity(reps);
    for _ in 0..reps {
        let off = rate(&mux, &plain);
        netdsl_obs::set_metrics_enabled(true);
        let on = rate(&mux, &wired);
        netdsl_obs::set_metrics_enabled(false);
        disabled_rates.push(off);
        enabled_rates.push(on);
        ratios.push(on / off);
    }

    // The enabled arm must actually have counted something, or the
    // ratio above measured nothing.
    let frames = netdsl_obs::snapshot()
        .counter("sim.frames_sent")
        .unwrap_or(0);
    assert!(frames > 0, "enabled arm recorded no frames");

    println!(
        "sessions   ({SESSIONS} × chunk {CHUNK}): disabled {:>9.0}/s   enabled {:>9.0}/s",
        mean(&disabled_rates),
        mean(&enabled_rates),
    );
    println!(
        "           overhead_ratio {:.3} (≥ 0.9 required: ≤ 10% cost)   frames counted {frames}",
        mean(&ratios),
    );

    let mut out = BenchReport::new(
        "e16_obs_overhead",
        "observability overhead: multiplexed campaign with metrics + flight vs telemetry off",
    );
    for (arm, samples) in [("disabled", &disabled_rates), ("enabled", &enabled_rates)] {
        out.push(
            Metric::new("session_throughput", "sessions/s")
                .with_axis("telemetry", arm)
                .with_axis("sessions", SESSIONS.to_string())
                .with_axis("chunk", CHUNK.to_string())
                .with_samples(samples.iter().copied()),
        );
    }
    out.push(
        Metric::new("overhead_ratio", "ratio")
            .with_axis("comparison", "telemetry enabled vs disabled, same grid")
            .with_axis("sessions", SESSIONS.to_string())
            .with_samples(ratios.iter().copied()),
    );

    let ratio = mean(&ratios);
    if ratio < 0.9 {
        eprintln!(
            "WARNING: instrumentation cost {:.1}% this run (budget 10%); the hard gate is \
             check_bench_json --min-metric on the committed full-depth artifact",
            (1.0 - ratio) * 100.0
        );
    }

    println!("\nexpected shape: overhead_ratio ≈ 1 — the simulator counts in plain fields and");
    println!("publishes once per simulator (once per batch here), a protocol counter is one");
    println!("sharded atomic add per timeout or reject, and the flight ring is one branch");
    println!("plus a fixed-size slot write (docs/OBSERVABILITY.md).");

    out.write();

    // Alias artifact pinning the subsystem's acceptance path
    // (`bench-results/BENCH_E16.json`): same measurements under the
    // short id, gated by CI on `overhead_ratio`.
    let mut alias = BenchReport::new("E16", "alias of e16_obs_overhead (observability gate)");
    alias.metrics = out.metrics.clone();
    alias.write();
}
