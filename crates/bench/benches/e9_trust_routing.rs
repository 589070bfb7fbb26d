//! E9 — dependable communication over untrusted relays (§1.1, ref [12]).
//!
//! Claim: "a node may need to support communication in environments
//! where there is a high risk that relay nodes or end-systems may be
//! compromised … use of routing through secure, exploratory learning of
//! forwarding behaviour."
//! Series: delivery ratio vs number of compromised paths (out of 4
//! disjoint 2-relay paths, compromised relays drop 90% of traffic) for
//! trust-learning, random, and fixed path selection; 3 seeds averaged.
//! Expected shape: trust-learning degrades only when honest paths run
//! out; random degrades linearly; fixed collapses at the first
//! compromise (its path is index 0).
//!
//! The sweep is one declarative [`Campaign`] (built by
//! [`harnesses::e9_campaign`]; `BENCH_QUICK=1` shrinks the session
//! length): the policy is the protocol axis, the compromise level is
//! the topology axis, and replication is the seed axis. The run is
//! serialized as `bench-results/BENCH_e9_trust_routing.json`.
//!
//! [`Campaign`]: netdsl_netsim::campaign::Campaign

use netdsl_bench::campaign_drivers::RelayDriver;
use netdsl_bench::harnesses::{self, E9_HOPS, E9_PATHS, E9_PROTOCOLS};
use netdsl_bench::report::{self, BenchReport};

const THREADS: usize = 4;

fn main() {
    let campaign = harnesses::e9_campaign(report::quick());
    let rounds = campaign.scenarios()[0].traffic.count;

    println!(
        "E9: delivery ratio vs compromised paths ({E9_PATHS} paths, {E9_HOPS} relays each, {rounds} rounds)"
    );
    println!(
        "campaign: {} scenarios on {THREADS} threads\n",
        campaign.scenarios().len()
    );
    println!(
        "{:>13} {:>10} {:>10} {:>10}",
        "#compromised", E9_PROTOCOLS[0], E9_PROTOCOLS[1], E9_PROTOCOLS[2]
    );

    let run = campaign.run(&RelayDriver::new(), THREADS);
    let ratio = |k: usize, proto: &str| {
        let mut cells = run.cells.iter();
        let topology = format!("k={k}");
        cells
            .find(|c| c.topology == topology && c.protocol == proto)
            .expect("every topology × protocol cell ran")
            .delivery
            .mean()
    };

    let mut prev_trust = 1.0;
    for k in 0..=E9_PATHS {
        let trust = ratio(k, "trust");
        let random = ratio(k, "random");
        let fixed = ratio(k, "fixed");
        println!(
            "{k:>13} {:>9.1}% {:>9.1}% {:>9.1}%",
            trust * 100.0,
            random * 100.0,
            fixed * 100.0
        );
        if (1..E9_PATHS).contains(&k) {
            assert!(trust > random, "learning beats random at k={k}");
            assert!(trust > fixed, "learning beats fixed at k={k}");
        }
        assert!(trust <= prev_trust + 0.05, "ratio non-increasing in k");
        prev_trust = trust;
    }
    println!("\nexpected shape: trust stays high until k = {E9_PATHS}; random falls ~linearly;");
    println!("fixed collapses at k = 1 (it always uses path 0, the first compromised).");

    BenchReport::from_campaign(
        "e9_trust_routing",
        "delivery ratio vs compromised relay paths per selection policy",
        &run,
    )
    .write();
}
