//! E4 — ARQ goodput vs loss: stop-and-wait, Go-Back-N, Selective Repeat.
//!
//! Claim (paper §3.4 items 3–4 + §1.1): the DSL machinery supports real
//! protocol families whose behaviour under harsh conditions can be
//! studied; the protocols must deliver correctly at every loss rate (or
//! fail cleanly) and the windowed variants must win once loss and delay
//! make stop-and-wait idle.
//! Series: goodput (payload bytes / 1000 ticks) for loss p ∈ {0, .05, …,
//! .5}, window ∈ {1 (SW), 4, 8, 16} where applicable.
//! Expected shape: goodput decreasing in p; SR ≥ GBN ≥ SW for p > 0;
//! window gains shrink as loss grows (retransmission storms).
//!
//! Since PR 2 the whole sweep is one declarative [`Campaign`]: protocols
//! × loss grid × seed replicates, expanded and executed in parallel.
//! Since PR 3 the campaign lives in [`harnesses::e4_campaign`]
//! (`BENCH_QUICK=1` shrinks the transfers, never the axis grid) and the
//! run is serialized as `bench-results/BENCH_e4_arq_goodput.json`.
//!
//! [`Campaign`]: netdsl_netsim::campaign::Campaign

use netdsl_bench::harnesses::{self, E4_PROTOCOLS};
use netdsl_bench::report::{self, BenchReport};
use netdsl_bench::workload;
use netdsl_protocols::scenario::SuiteDriver;

const THREADS: usize = 4;

fn main() {
    let campaign = harnesses::e4_campaign(report::quick());
    let scenarios = campaign.scenarios();
    let messages = scenarios[0].traffic.count;
    let size = scenarios[0].traffic.size;

    println!("E4: goodput (payload bytes / 1000 ticks) vs loss probability");
    println!("workload: {messages} × {size}B messages, delay 10 ticks, mean of 3 seeds");
    println!(
        "campaign: {} scenarios on {THREADS} threads\n",
        scenarios.len()
    );

    let run = campaign.run(&SuiteDriver::new(), THREADS);
    let cell = |link: &str, protocol: &str| {
        let mut cells = run.cells.iter();
        cells
            .find(|c| c.link == link && c.protocol == protocol)
            .expect("every link × protocol cell ran")
    };

    println!(
        "{:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "loss", E4_PROTOCOLS[0], E4_PROTOCOLS[1], E4_PROTOCOLS[2], E4_PROTOCOLS[3], E4_PROTOCOLS[4]
    );
    for p in workload::loss_sweep() {
        let row: Vec<f64> = E4_PROTOCOLS
            .iter()
            .map(|proto| cell(&format!("{p:.2}"), proto).goodput.mean())
            .collect();
        println!(
            "{p:>5.2} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            row[0], row[1], row[2], row[3], row[4]
        );
    }
    println!("\nexpected shape: columns fall with loss; SR ≥ GBN ≥ SW at equal window.");

    BenchReport::from_campaign(
        "e4_arq_goodput",
        "ARQ goodput vs loss: SW / GBN / SR over a lossy duplex link",
        &run,
    )
    .write();
}
