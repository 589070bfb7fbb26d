//! `netbench` — the repository benchmark.
//!
//! Four fixed-work workloads run through the public drivers of the
//! protocol simulator. An untraced run (`--trace 0`) reports the
//! end-to-end metrics; a traced run (`--trace 1`) reports per-layer
//! time and counts. Each run prints one line per metric and, as its last
//! line, one JSON object:
//!
//! ```text
//! {"correct":true,"attempted":…,"failed":…,"metrics":{"name":{"value":…,"unit":"…"},…}}
//! ```
//!
//! and writes a `netdsl-bench/1` report (plus, when traced, the span
//! sample as JSON lines) under `$BENCH_RESULTS_DIR`, by default
//! `bench-results/netbench/`. Any failed check panics, so the process
//! exits non-zero without a result. See README.md for the workloads and
//! metrics.

mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use netdsl::bench::report::{BenchReport, Metric, Mode};
use serde::json::Value;

use crate::workloads::{Workload, WORKLOADS};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Timed seconds per run on the reference machine when `--seconds` is
/// not given (BENCHMARK.json's `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;
/// `--smoke` work: enough to exercise every path, never for reporting.
const SMOKE_SECONDS: f64 = 1.0;

/// Every end-to-end metric an untraced run prints, with its unit.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("frames_per_s", "1/s"),
    ("goodput_mb_per_s", "MB/s"),
    ("session_ms_p50", "ms"),
    ("session_ms_p90", "ms"),
    ("success_ratio", "ratio"),
    ("recovery_ticks_p50", "ticks"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric a traced run prints, with its unit.
const PER_LAYER: [(&str, &str); 25] = [
    ("campaign.expand_ns", "ns"),
    ("campaign.fold_ns", "ns"),
    ("bench.audit_ns", "ns"),
    ("multiplex.batch_ns", "ns"),
    ("scenario.session_ns", "ns"),
    ("protocols.endpoint_ns", "ns"),
    ("protocols.endpoint_share", "ratio"),
    ("protocols.events_per_session", "count"),
    ("protocols.retransmit_ratio", "ratio"),
    ("netsim.sim_ns", "ns"),
    ("netsim.setup_ns", "ns"),
    ("netsim.frames_per_session", "count"),
    ("netsim.loss_ratio", "ratio"),
    ("netsim.corrupt_ratio", "ratio"),
    ("netsim.timers_set_per_session", "count"),
    ("netsim.timer_cancel_ratio", "ratio"),
    ("codec.decode_ns", "ns"),
    ("codec.encode_ns", "ns"),
    ("codec.reject_ratio", "ratio"),
    ("wire.checksum_ns_per_kib", "ns/KiB"),
    ("faults.plan_ns", "ns"),
    ("faults.actions_per_session", "count"),
    ("faults.injected_per_session", "count"),
    ("adapt.rto_backoffs_per_session", "count"),
    ("trace.overhead_ratio", "ratio"),
];

const USAGE: &str = "usage: netbench (--workload NAME | --all) [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke]";

/// One reported metric: its value, how many samples stand behind it,
/// their first and third quartile, and the raw samples for the report.
pub struct Measured {
    name: &'static str,
    value: f64,
    n: usize,
    p25: f64,
    p75: f64,
    samples: Vec<f64>,
}

impl Measured {
    /// A single measured value.
    pub fn new(name: &'static str, value: f64) -> Measured {
        Measured {
            name,
            value,
            n: 1,
            p25: value,
            p75: value,
            samples: vec![value],
        }
    }

    /// Sets the sample count and quartiles behind the value.
    pub fn spread(mut self, n: usize, (p25, p75): (f64, f64)) -> Measured {
        self.n = n;
        self.p25 = p25;
        self.p75 = p75;
        self
    }

    /// Sets the raw samples written to the report.
    pub fn with_samples(mut self, samples: Vec<f64>) -> Measured {
        self.samples = samples;
        self
    }
}

struct Args {
    workload: Option<&'static Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(workloads::find(&name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        args.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --workload and --all".into());
    }
    Ok(args)
}

fn results_dir() -> PathBuf {
    match std::env::var("BENCH_RESULTS_DIR") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("bench-results/netbench"),
    }
}

/// `--all`: each workload in its own process, one after another, so
/// peak memory and lazily built state belong to one workload each.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().expect("run a workload process");
        if !status.success() {
            eprintln!("netbench: {} failed: {status}", w.name);
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Limits glibc's allocator to one arena. By default each thread may get
/// an arena of its own, and as every round's streaming worker is a fresh
/// thread, peak memory of the same work then varied by half between runs.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only changes an allocator tunable. It runs before
    // this process starts a thread, and `M_ARENA_MAX` with a positive
    // value is a documented glibc parameter.
    if unsafe { mallopt(M_ARENA_MAX, 1) } != 1 {
        eprintln!("netbench: mallopt(M_ARENA_MAX) failed; peak_rss_mb may vary between runs");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("netbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.all {
        return run_all(&args);
    }
    let w = args.workload.expect("checked by parse_args");
    let seconds = if args.smoke {
        SMOKE_SECONDS
    } else {
        args.seconds
    };
    let dir = results_dir();
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let id = format!(
        "netbench_{}{}",
        w.name,
        if args.trace { "_trace" } else { "" }
    );
    let (metrics, attempted, failed, table) = if args.trace {
        let spans = dir.join(format!("{id}_spans.jsonl"));
        let (m, a, f) = trace::run(w, args.seed, seconds, &spans);
        (m, a, f, &PER_LAYER[..])
    } else {
        let (m, a, f) = workloads::run(w, args.seed, seconds);
        (m, a, f, &END_TO_END[..])
    };
    let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, expected, "the run produced a different metric set");

    let mut report = BenchReport::new(id, format!("netbench {} (seed {})", w.name, args.seed));
    if args.smoke {
        report.mode = Mode::Quick;
    }
    let mut json = Value::object();
    for (m, (_, unit)) in metrics.iter().zip(table) {
        assert!(m.value.is_finite(), "{} is not finite", m.name);
        println!(
            "{} {} {} {unit} (n={}, p25={}, p75={})",
            w.name, m.name, m.value, m.n, m.p25, m.p75
        );
        report.push(
            Metric::new(m.name, *unit)
                .with_axis("workload", w.name)
                .with_axis("seed", args.seed.to_string())
                .with_samples(m.samples.iter().copied()),
        );
        json = json.set(
            m.name,
            Value::object().set("value", m.value).set("unit", *unit),
        );
    }
    report
        .write_to(&dir)
        .unwrap_or_else(|e| panic!("write the report under {}: {e}", dir.display()));
    println!(
        "{}",
        Value::object()
            .set("correct", true)
            .set("attempted", attempted as f64)
            .set("failed", failed as f64)
            .set("metrics", json)
    );
    ExitCode::SUCCESS
}
