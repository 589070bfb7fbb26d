//! Declarative scenario campaigns: one definition, a grid of runs.
//!
//! Sweeps three protocols × three link conditions × four seed
//! replicates (36 scenarios) from a single `Campaign` value, executes
//! them on four worker threads, and prints cross-run percentile
//! statistics per cell — then demonstrates the determinism contract by
//! re-running single-threaded and comparing reports.
//!
//! Run with `cargo run --example campaign_sweep`.

use netdsl::netsim::campaign::{Campaign, Sweep};
use netdsl::netsim::scenario::{ProtocolSpec, TrafficPattern};
use netdsl::netsim::{Aggregate, LinkConfig};
use netdsl::protocols::scenario::{SuiteDriver, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT};

fn main() {
    let campaign = Campaign::new("sweep-demo", 2024)
        .protocols(Sweep::grid([
            ("stop-and-wait", ProtocolSpec::new(STOP_AND_WAIT)),
            (
                "go-back-n w=8",
                ProtocolSpec::new(GO_BACK_N)
                    .with_window(8)
                    .with_retries(400),
            ),
            (
                "sel-repeat w=8",
                ProtocolSpec::new(SELECTIVE_REPEAT)
                    .with_window(8)
                    .with_retries(400),
            ),
        ]))
        .links(Sweep::grid([
            ("clean", LinkConfig::reliable(5)),
            ("lossy 20%", LinkConfig::lossy(5, 0.2)),
            ("harsh", LinkConfig::harsh(5)),
        ]))
        .traffic(Sweep::single("30x48", TrafficPattern::messages(30, 48)))
        .seeds(Sweep::seeds(4));

    let scenarios = campaign.scenarios();
    println!(
        "campaign {:?}: {} scenarios (3 protocols × 3 links × 4 seeds)\n",
        campaign.name(),
        scenarios.len()
    );

    let driver = SuiteDriver::new();
    let report = campaign.run(&driver, 4);

    println!(
        "{:<16} {:<11} {:>4} {:>12} {:>12} {:>10}",
        "protocol", "link", "ok", "goodput p50", "goodput p95", "retx/msg"
    );
    // One cell per protocol × link, in expansion order; `run` keeps
    // every replicate's sample, so percentiles come from the cell's own.
    for cell in &report.cells {
        let goodput = Aggregate::from_samples(cell.goodput.samples().iter().copied());
        println!(
            "{:<16} {:<11} {:>2}/{:<2} {:>12.1} {:>12.1} {:>10.2}",
            cell.protocol,
            cell.link,
            cell.succeeded,
            cell.executed,
            goodput.median(),
            goodput.percentile(95.0),
            cell.retransmits.mean(),
        );
    }

    // The determinism contract: same campaign, any thread count, same
    // report — every scenario's randomness is fixed by its derived seed.
    let single = campaign.run(&driver, 1);
    assert_eq!(report, single, "parallel == sequential, bit for bit");
    println!("\n4-thread report identical to 1-thread report ✓");
}
