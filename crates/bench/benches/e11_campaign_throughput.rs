//! E11 — campaign and simulator throughput: the measurement layer's
//! first payoff.
//!
//! Unlike E1–E10 this harness reproduces no paper claim; it tracks the
//! ROADMAP's "fast as the hardware allows" goal by measuring the
//! engine itself, so the netsim hot-path work (payload moves instead of
//! per-copy clones in `Simulator::send`, pre-sized event heap, batched
//! per-cell stats merging) shows up as a number CI can watch.
//! Series: raw frame throughput through `send` + `step`; end-to-end
//! campaign scenario throughput on the protocol suite; and per-cell
//! summary throughput over the resulting report.
//! Expected shape: every throughput trending up across commits.

use std::hint::black_box;
use std::time::Instant;

use netdsl_bench::harnesses;
use netdsl_bench::report::{self, BenchReport, Metric};
use netdsl_bench::workload;
use netdsl_netsim::{LinkConfig, Simulator};
use netdsl_protocols::scenario::SuiteDriver;

const PAYLOAD: usize = 1024;
const THREADS: usize = 4;

/// Pumps `n` frames through a duplex link, returning frames/second.
fn frame_throughput(n: usize) -> f64 {
    let payload = workload::file(PAYLOAD);
    let mut sim = Simulator::new(7);
    let a = sim.add_node();
    let b = sim.add_node();
    let (ab, _) = sim.add_duplex(a, b, LinkConfig::reliable(1));
    let start = Instant::now();
    for _ in 0..n {
        sim.send(ab, payload.clone());
        black_box(sim.step());
    }
    n as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let quick = report::quick();
    let reps = if quick { 3 } else { 5 };
    let frames = report::scaled(50_000, 5_000);
    let campaign = harnesses::e11_campaign(quick);
    let scenarios = campaign.scenarios().len();

    println!("E11: engine throughput (simulator hot path + campaign layer)\n");

    let moves: Vec<f64> = (0..reps).map(|_| frame_throughput(frames)).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "frame path ({PAYLOAD}B × {frames}): {:>12.0} frames/s",
        mean(&moves)
    );

    let driver = SuiteDriver::new();
    let mut scen_rates = Vec::with_capacity(reps);
    let mut last_report = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = campaign.run(&driver, THREADS);
        scen_rates.push(scenarios as f64 / start.elapsed().as_secs_f64());
        last_report = Some(r);
    }
    let campaign_report = last_report.expect("reps >= 1");
    println!(
        "campaign   ({scenarios} scenarios × {THREADS} threads): {:>12.1} scenarios/s",
        mean(&scen_rates)
    );

    // Per-cell summary construction over the report (the batched
    // stats-merging path).
    let summary_iters = report::scaled(400, 50);
    let mut cell_rates = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let mut cells = 0;
        for _ in 0..summary_iters {
            cells += black_box(
                campaign_report.group_by(|s| format!("{}|{}", s.labels.link, s.labels.protocol)),
            )
            .len();
        }
        cell_rates.push(cells as f64 / start.elapsed().as_secs_f64());
    }
    println!(
        "summaries  (group_by link|protocol):      {:>12.0} cells/s",
        mean(&cell_rates)
    );

    let mut out = BenchReport::new(
        "e11_campaign_throughput",
        "engine throughput: simulator hot path and campaign layer",
    );
    out.push(
        Metric::new("frame_throughput", "frames/s")
            .with_axis("payload", format!("{PAYLOAD}B"))
            .with_axis("variant", "move")
            .with_samples(moves.iter().copied())
            .with_throughput("bytes/s", mean(&moves) * PAYLOAD as f64),
    );
    out.push(
        Metric::new("campaign_throughput", "scenarios/s")
            .with_axis("threads", THREADS.to_string())
            .with_axis("driver", "suite")
            .with_samples(scen_rates.iter().copied()),
    );
    out.push(
        Metric::new("summary_throughput", "cells/s")
            .with_axis("group_by", "link|protocol")
            .with_samples(cell_rates.iter().copied()),
    );

    // Campaign-level correctness context rides along so throughput can
    // never silently trade away delivery.
    let agg = campaign_report.aggregate();
    assert_eq!(agg.errors, 0, "no sweep cell may error");
    out.push(
        Metric::new("campaign_success", "ratio")
            .with_sample(agg.succeeded as f64 / agg.runs as f64),
    );

    println!("\nexpected shape: frame, campaign and summary throughput trend up across commits.");

    out.write();
}
