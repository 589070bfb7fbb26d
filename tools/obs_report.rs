//! Triage renderer for observability dumps: turns the canonical JSON
//! documents the `netdsl-obs` layer emits into aligned tables.
//!
//! ```text
//! cargo run -p netdsl-tools --bin obs_report -- <dump.json>...
//! ```
//!
//! Each file is dispatched on its `schema` field:
//!
//! * `netdsl-metrics/2` — a [`MetricsSnapshot`]: counters as a
//!   name/value table, histograms with count, sum, mean and their
//!   occupied log2 buckets rendered as value ranges;
//! * `netdsl-flight/1` — a [`FlightRecording`]: ring header (capacity,
//!   recorded, dropped), per-kind event counts, and the head and tail
//!   of the event sequence.
//!
//! Exit code 0 when every file rendered; 1 after printing what was
//! wrong with each file that did not (unreadable, unparseable, or an
//! unknown schema).

use std::process::ExitCode;

use netdsl_obs::{
    FlightRecording, HistogramSnapshot, MetricsSnapshot, FLIGHT_SCHEMA, METRICS_SCHEMA,
};
use serde::json::Value;

/// Events shown from each end of a flight recording.
const FLIGHT_HEAD_TAIL: usize = 8;

/// The value range a log2 bucket covers (bucket 0 is exactly zero,
/// bucket `k > 0` is `[2^(k-1), 2^k)`).
fn bucket_range(k: u32) -> String {
    if k == 0 {
        "0".to_string()
    } else {
        format!("{}..{}", 1u128 << (k - 1), 1u128 << k)
    }
}

fn render_histogram(h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = h
        .buckets
        .iter()
        .map(|&(k, n)| format!("[{}]={n}", bucket_range(k)))
        .collect();
    format!(
        "  {:<26} count {:<8} sum {:<10} mean {:<8.1} {}\n",
        h.name,
        h.count,
        h.sum,
        h.mean(),
        buckets.join(" ")
    )
}

fn render_metrics(name: &str, snap: &MetricsSnapshot) -> String {
    let mut out = format!(
        "{name}: metrics snapshot ({} counters, {} histograms)\n",
        snap.counters.len(),
        snap.histograms.len()
    );
    if !snap.counters.is_empty() {
        out.push_str("\n  counter                    value\n");
        for (metric, value) in &snap.counters {
            out.push_str(&format!("  {metric:<26} {value}\n"));
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("\n  histogram                  (bucket ranges are [2^(k-1), 2^k))\n");
        for h in &snap.histograms {
            out.push_str(&render_histogram(h));
        }
    }
    out
}

/// Decodes a fault event's `detail` discriminant (the encoding the
/// fault engine documents on [`netdsl_obs::FlightKind::Fault`]).
fn fault_action(detail: u64) -> &'static str {
    match detail {
        1 => "link reconfigured",
        2 => "node crashed",
        3 => "node restarted",
        4 => "clock skewed",
        _ => "unknown action",
    }
}

fn render_flight(name: &str, flight: &FlightRecording) -> String {
    let mut out = format!(
        "{name}: flight recording (capacity {}, recorded {}, dropped {})\n",
        flight.capacity, flight.recorded, flight.dropped
    );
    if flight.dropped > 0 {
        out.push_str(&format!(
            "  NOTE: ring overflowed — the oldest {} events were overwritten\n",
            flight.dropped
        ));
    }
    out.push_str("\n  kind         count\n");
    for (kind, count) in flight.kind_counts() {
        if count > 0 {
            out.push_str(&format!("  {:<12} {count}\n", kind.as_str()));
        }
    }
    let shown = |out: &mut String, range: &[netdsl_obs::FlightEvent]| {
        for e in range {
            out.push_str(&format!(
                "  t={:<8} {:<12} subject={:<6} detail={}\n",
                e.at,
                e.kind.as_str(),
                e.subject,
                e.detail
            ));
        }
    };
    // Faults are rare, load-bearing events: even when the ring elides
    // the middle of the sequence below, the full fault timeline is
    // worth its own table.
    let faults: Vec<&netdsl_obs::FlightEvent> = flight
        .events
        .iter()
        .filter(|e| e.kind == netdsl_obs::FlightKind::Fault)
        .collect();
    if !faults.is_empty() {
        out.push_str("\n  fault timeline:\n");
        for e in &faults {
            out.push_str(&format!(
                "  t={:<8} {:<18} target={}\n",
                e.at,
                fault_action(e.detail),
                e.subject
            ));
        }
    }
    let n = flight.events.len();
    if n <= 2 * FLIGHT_HEAD_TAIL {
        out.push_str(&format!("\n  all {n} events:\n"));
        shown(&mut out, &flight.events);
    } else {
        out.push_str(&format!("\n  first {FLIGHT_HEAD_TAIL} of {n} events:\n"));
        shown(&mut out, &flight.events[..FLIGHT_HEAD_TAIL]);
        out.push_str(&format!(
            "  … {} elided …\n  last {FLIGHT_HEAD_TAIL} events:\n",
            n - 2 * FLIGHT_HEAD_TAIL
        ));
        shown(&mut out, &flight.events[n - FLIGHT_HEAD_TAIL..]);
    }
    out
}

/// Renders one dump, dispatching on its `schema` member.
fn render(name: &str, text: &str) -> Result<String, String> {
    let v = Value::parse(text).map_err(|e| format!("{name}: bad JSON: {e}"))?;
    match v.get("schema").and_then(Value::as_str) {
        Some(METRICS_SCHEMA) => {
            let snap = MetricsSnapshot::from_json(&v).map_err(|e| format!("{name}: {e}"))?;
            Ok(render_metrics(name, &snap))
        }
        Some(FLIGHT_SCHEMA) => {
            let flight = FlightRecording::from_json(&v).map_err(|e| format!("{name}: {e}"))?;
            Ok(render_flight(name, &flight))
        }
        Some(other) => Err(format!(
            "{name}: unknown schema {other:?} (renderable: {METRICS_SCHEMA:?}, {FLIGHT_SCHEMA:?})"
        )),
        None => Err(format!("{name}: missing schema member")),
    }
}

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() || files.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: obs_report <dump.json>...");
        println!("renders {METRICS_SCHEMA} and {FLIGHT_SCHEMA} dumps as triage tables");
        return if files.is_empty() {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    let mut failed = false;
    for (i, file) in files.iter().enumerate() {
        if i > 0 {
            println!();
        }
        let rendered = std::fs::read_to_string(file)
            .map_err(|e| format!("{file}: unreadable: {e}"))
            .and_then(|text| render(file, &text));
        match rendered {
            Ok(table) => print!("{table}"),
            Err(problem) => {
                eprintln!("FAIL {problem}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn fixture(name: &str) -> String {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("testdata")
            .join(name);
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: fixture unreadable: {e}", path.display()))
    }

    #[test]
    fn metrics_fixture_renders_counters_and_histograms() {
        let out = render("metrics_snapshot.json", &fixture("metrics_snapshot.json")).unwrap();
        assert!(out.contains("metrics snapshot"));
        assert!(out.contains("sim.frames_sent"), "counter table:\n{out}");
        assert!(out.contains("arq.retransmissions"));
        assert!(out.contains("sim.frame_bytes"), "histogram row:\n{out}");
        assert!(out.contains("mean"), "histogram stats:\n{out}");
    }

    #[test]
    fn flight_fixture_renders_kind_counts_and_events() {
        let out = render("flight_recording.json", &fixture("flight_recording.json")).unwrap();
        assert!(out.contains("flight recording"));
        assert!(out.contains("dropped 0"));
        for kind in ["send", "deliver", "drop", "timer_set", "arq_timeout"] {
            assert!(out.contains(kind), "kind table must list {kind}:\n{out}");
        }
        assert!(out.contains("t=0"), "event rows:\n{out}");
    }

    #[test]
    fn fault_fixture_renders_the_fault_timeline() {
        let out = render("fault_flight.json", &fixture("fault_flight.json")).unwrap();
        assert!(out.contains("fault timeline:"), "timeline section:\n{out}");
        for action in [
            "node crashed",
            "node restarted",
            "clock skewed",
            "link reconfigured",
        ] {
            assert!(
                out.contains(action),
                "timeline must decode {action}:\n{out}"
            );
        }
        // Faults are queue events, so the timeline carries each fault's
        // scheduled tick: the crash at 15, the restart at 250.
        assert!(out.contains("t=15       node crashed"), "{out}");
        assert!(out.contains("t=250      node restarted"), "{out}");
    }

    #[test]
    fn faultless_recordings_render_no_timeline() {
        let out = render("flight_recording.json", &fixture("flight_recording.json")).unwrap();
        assert!(!out.contains("fault timeline"), "{out}");
    }

    #[test]
    fn log2_buckets_render_as_value_ranges() {
        assert_eq!(bucket_range(0), "0");
        assert_eq!(bucket_range(1), "1..2");
        assert_eq!(bucket_range(5), "16..32");
    }

    #[test]
    fn unknown_schemas_and_bad_json_are_refused() {
        assert!(render("x", "{ not json").is_err());
        assert!(render("x", "{\"schema\": \"netdsl-bench/1\"}")
            .unwrap_err()
            .contains("unknown schema"));
        assert!(render("x", "{}").unwrap_err().contains("missing schema"));
    }
}
