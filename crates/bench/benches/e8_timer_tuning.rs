//! E8 — adaptive retransmission timers vs fixed (paper §1.1, ref [5]).
//!
//! Claim: "adaptation of protocol timers to reduce overhead in dynamic
//! MANET routing" — applied here to the ARQ retransmission timer.
//! Series: retransmission overhead (retx per message) and completion
//! time for fixed timeouts {30, 150, 600} vs the RFC 6298-style adaptive
//! estimator, across link delays {5, 30, 75} (RTT = 2·delay) and loss
//! {0, 0.1}, real transfers over the simulator.
//! Expected shape: each fixed timer is good at exactly one RTT (too
//! short → spurious retransmissions; too long → slow loss recovery);
//! the adaptive timer tracks every RTT with near-minimal overhead.
//!
//! The sweep is one declarative [`Campaign`] (built by
//! [`harnesses::e8_campaign`]; `BENCH_QUICK=1` shrinks the transfers)
//! run by the protocol suite's driver: every cell is its stop-and-wait
//! sender, the fixed ones under `RetransmitPolicy::Fixed` and the
//! adaptive one under `RetransmitPolicy::AdaptiveRto`. The run is
//! serialized as `bench-results/BENCH_e8_timer_tuning.json`.
//!
//! [`Campaign`]: netdsl_netsim::campaign::Campaign

use netdsl_bench::harnesses::{self, E8_DELAYS, E8_LOSSES, E8_PROTOCOLS};
use netdsl_bench::report::{self, BenchReport};
use netdsl_protocols::scenario::SuiteDriver;

const THREADS: usize = 4;

fn main() {
    let campaign = harnesses::e8_campaign(report::quick());
    let n = campaign.scenarios()[0].traffic.count;

    println!("E8: retransmissions per message (and completion ticks) vs timer policy\n");
    println!(
        "{:<22} {:>16} {:>16} {:>16} {:>16}",
        "delay / loss", E8_PROTOCOLS[0], E8_PROTOCOLS[1], E8_PROTOCOLS[2], E8_PROTOCOLS[3]
    );

    let run = campaign.run(&SuiteDriver::new(), THREADS);
    let cell = |link: &str, protocol: &str| {
        let mut cells = run.cells.iter();
        cells
            .find(|c| c.link == link && c.protocol == protocol)
            .expect("every link × protocol cell ran")
    };

    for delay in E8_DELAYS {
        for loss in E8_LOSSES {
            let link = format!("delay {delay}, loss {loss}");
            let row: Vec<String> = E8_PROTOCOLS
                .iter()
                .map(|proto| {
                    let s = cell(&link, proto);
                    if s.succeeded == s.executed {
                        format!(
                            "{:.2} ({:.0})",
                            s.retransmits.mean(),
                            s.latency.mean() * n as f64
                        )
                    } else {
                        "fail".to_string()
                    }
                })
                .collect();
            println!(
                "{link:<22} {:>16} {:>16} {:>16} {:>16}",
                row[0], row[1], row[2], row[3]
            );
        }
    }
    println!("\nexpected shape: fixed 30 melts down at delay 30/75 (spurious retx);");
    println!("fixed 600 crawls under loss (slow recovery); adaptive is near-best everywhere.");

    BenchReport::from_campaign(
        "e8_timer_tuning",
        "fixed vs adaptive retransmission timers across delay × loss",
        &run,
    )
    .write();
}
