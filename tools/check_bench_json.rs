//! CI gate for benchmark artifacts: validates every
//! `bench-results/BENCH_*.json` against the shared report schema.
//!
//! ```text
//! cargo run -p netdsl-tools --bin check_bench_json -- \
//!     [--expect <id>]... [--expect-benches <benches-dir>]... \
//!     [--min-metric <id>:<metric>:<min>]... [dir]
//! ```
//!
//! Checks, per file: parses as a schema-valid
//! [`BenchReport`] (which re-derives
//! the `stats` blocks from the samples — a tampered or truncated
//! artifact fails), the id matches the file name, the report carries at
//! least one metric, and at least one metric carries samples.
//!
//! Expectations come in two forms. `--expect e4_arq_goodput`
//! (repeatable) names one required artifact id. `--expect-benches
//! crates/bench/benches` **discovers** the expected ids from the bench
//! target sources themselves — every `*.rs` file stem in the directory
//! becomes a required id — so adding a harness (E12, E13, …)
//! automatically extends the CI gate with no hardcoded list to forget;
//! a bench that stops emitting JSON fails the pipeline instead of
//! silently thinning the trajectory. Corollary: every `*.rs` file in
//! the benches directory is treated as a harness; bench-support helper
//! modules belong in the crate's `src/`, not alongside the targets.
//!
//! `--min-metric <id>:<metric>:<min>` (repeatable) additionally gates a
//! performance claim: the named report must carry the named metric and
//! its sample mean must be ≥ `min`. The floor applies to every metric of
//! that name in the report, so one floor on E15's `session_throughput`
//! gates both of its arms. This is how CI's absolute throughput floors
//! (`--min-metric E13:campaign_throughput:<scenarios/s>`) turn a
//! slowdown of the simulation core into a red build.
//!
//! Exit code 0 when everything passes; 1 otherwise, after printing
//! every problem found.

use std::path::PathBuf;
use std::process::ExitCode;

use netdsl_bench::report::BenchReport;

/// Expected ids discovered from a benches directory: one per `*.rs`
/// file stem.
fn bench_stems(dir: &PathBuf) -> Result<Vec<String>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut stems: Vec<String> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "rs"))
        .filter_map(|p| p.file_stem().and_then(|s| s.to_str()).map(String::from))
        .collect();
    stems.sort();
    if stems.is_empty() {
        return Err(format!("no *.rs bench targets in {}", dir.display()));
    }
    Ok(stems)
}

/// One `--min-metric` expectation: report `id` must carry `metric`
/// with a sample mean of at least `min`.
struct MetricFloor {
    id: String,
    metric: String,
    min: f64,
}

fn parse_metric_floor(spec: &str) -> Result<MetricFloor, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [id, metric, min] = parts[..] else {
        return Err(format!("expected <id>:<metric>:<min>, got {spec:?}"));
    };
    let min: f64 = min
        .parse()
        .map_err(|e| format!("bad minimum in {spec:?}: {e}"))?;
    Ok(MetricFloor {
        id: id.to_string(),
        metric: metric.to_string(),
        min,
    })
}

/// What validating one artifact found.
struct Validated {
    /// The report, whenever the text parsed: the artifact is present
    /// even if it fails a check.
    report: Option<BenchReport>,
    /// Human-readable confirmations of the gates it passed.
    confirmations: Vec<String>,
    /// Everything wrong with it.
    problems: Vec<String>,
}

/// Validates one artifact's text end to end: schema parse, filename/id
/// agreement, non-emptiness, and any matching metric floors.
fn validate_artifact(name: &str, text: &str, floors: &[MetricFloor]) -> Validated {
    let mut v = Validated {
        report: None,
        confirmations: Vec::new(),
        problems: Vec::new(),
    };
    let report = match BenchReport::from_json_str(text) {
        Ok(report) => report,
        Err(e) => {
            v.problems.push(format!("{name}: {e}"));
            return v;
        }
    };
    if format!("BENCH_{}.json", report.id) != name {
        v.problems.push(format!(
            "{name}: id {:?} does not match file name",
            report.id
        ));
    }
    if report.metrics.is_empty() {
        v.problems
            .push(format!("{name}: report carries no metrics"));
    } else if report.metrics.iter().all(|m| m.samples.is_empty()) {
        v.problems
            .push(format!("{name}: every metric is empty of samples"));
    }
    for floor in floors.iter().filter(|f| f.id == report.id) {
        let means: Vec<f64> = report
            .metrics
            .iter()
            .filter(|m| m.name == floor.metric && !m.samples.is_empty())
            .map(|m| m.samples.iter().sum::<f64>() / m.samples.len() as f64)
            .collect();
        if means.is_empty() {
            v.problems.push(format!(
                "{name}: gated metric {:?} is missing or empty",
                floor.metric
            ));
        } else if let Some(&low) = means
            .iter()
            .find(|&&mean| !(mean.is_finite() && mean >= floor.min))
        {
            v.problems.push(format!(
                "{name}: {} mean {low:.3} is below the required {:.3}",
                floor.metric, floor.min
            ));
        } else {
            v.confirmations.push(format!(
                "gate {name}: {} mean {:.3} ≥ {:.3}",
                floor.metric,
                means.iter().fold(f64::INFINITY, |a, &b| a.min(b)),
                floor.min
            ));
        }
    }
    v.report = Some(report);
    v
}

/// Checks a directory's artifacts, given as `(file name, text)`,
/// against the schema, the `floors` and the `expected` ids. Returns the
/// lines to print for what passed and every problem found. Each failure
/// is reported once: an artifact that parsed is present, whatever check
/// it fails.
fn check(
    artifacts: &[(String, String)],
    expected: &[String],
    floors: &[MetricFloor],
) -> (Vec<String>, Vec<String>) {
    let (mut lines, mut problems) = (Vec::new(), Vec::new());
    let mut present: Vec<String> = Vec::new();
    for (name, text) in artifacts {
        let v = validate_artifact(name, text, floors);
        let Some(report) = v.report else {
            problems.extend(v.problems);
            continue;
        };
        if v.problems.is_empty() {
            lines.extend(v.confirmations);
            let samples: usize = report.metrics.iter().map(|m| m.samples.len()).sum();
            lines.push(format!(
                "ok   {name}: {} mode, {} metrics, {samples} samples",
                report.mode.as_str(),
                report.metrics.len()
            ));
        }
        problems.extend(v.problems);
        present.push(report.id);
    }
    for id in expected {
        if !present.contains(id) {
            problems.push(format!("expected artifact BENCH_{id}.json is missing"));
        }
    }
    for floor in floors {
        if !present.contains(&floor.id) && !expected.contains(&floor.id) {
            problems.push(format!(
                "gated artifact BENCH_{}.json was never validated",
                floor.id
            ));
        }
    }
    (lines, problems)
}

fn main() -> ExitCode {
    let mut expected: Vec<String> = Vec::new();
    let mut floors: Vec<MetricFloor> = Vec::new();
    let mut dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--expect" => match args.next() {
                Some(id) => expected.push(id),
                None => {
                    eprintln!("--expect needs a report id");
                    return ExitCode::FAILURE;
                }
            },
            "--expect-benches" => match args.next() {
                Some(benches) => match bench_stems(&PathBuf::from(&benches)) {
                    Ok(stems) => {
                        println!(
                            "discovered {} expected ids from {benches}: {}",
                            stems.len(),
                            stems.join(", ")
                        );
                        expected.extend(stems);
                    }
                    Err(e) => {
                        eprintln!("FAIL: --expect-benches {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--expect-benches needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--min-metric" => match args.next().as_deref().map(parse_metric_floor) {
                Some(Ok(floor)) => floors.push(floor),
                Some(Err(e)) => {
                    eprintln!("--min-metric: {e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--min-metric needs <id>:<metric>:<min>");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: check_bench_json [--expect <id>]... [--expect-benches <dir>]... \
                     [--min-metric <id>:<metric>:<min>]... [dir]"
                );
                return ExitCode::SUCCESS;
            }
            other if dir.is_none() && !other.starts_with('-') => {
                dir = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let dir = dir.unwrap_or_else(|| PathBuf::from("bench-results"));

    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("FAIL: cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();

    if paths.is_empty() {
        eprintln!("FAIL: no BENCH_*.json artifacts in {}", dir.display());
        return ExitCode::FAILURE;
    }

    let mut problems: Vec<String> = Vec::new();
    let mut artifacts: Vec<(String, String)> = Vec::new();
    for path in &paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        match std::fs::read_to_string(path) {
            Ok(text) => artifacts.push((name.to_string(), text)),
            Err(e) => problems.push(format!("{name}: unreadable: {e}")),
        }
    }
    let (lines, found) = check(&artifacts, &expected, &floors);
    for line in lines {
        println!("{line}");
    }
    problems.extend(found);

    if problems.is_empty() {
        println!("all {} artifacts are schema-valid", paths.len());
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("FAIL {p}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdsl_bench::report::Metric;

    fn fixture(id: &str) -> BenchReport {
        let mut r = BenchReport::new(id, "check_bench_json fixture");
        r.push(
            Metric::new("goodput", "bytes/1000ticks")
                .with_axis("protocol", "SW")
                .with_samples([10.5, 11.25, 13.0]),
        );
        r
    }

    #[test]
    fn parse_metric_floor_accepts_the_documented_form() {
        let floor = parse_metric_floor("E13:campaign_speedup:1.5").unwrap();
        assert_eq!(floor.id, "E13");
        assert_eq!(floor.metric, "campaign_speedup");
        assert_eq!(floor.min, 1.5);
    }

    #[test]
    fn parse_metric_floor_rejects_wrong_arity_and_bad_numbers() {
        assert!(parse_metric_floor("E13:campaign_speedup").is_err());
        assert!(parse_metric_floor("E13:a:b:1.5").is_err());
        assert!(parse_metric_floor("E13:campaign_speedup:fast").is_err());
    }

    #[test]
    fn bench_stems_discovers_sorted_rs_stems_and_rejects_empty_dirs() {
        let dir = std::env::temp_dir().join(format!("netdsl-stems-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for f in ["e2_b.rs", "e1_a.rs", "notes.txt"] {
            std::fs::write(dir.join(f), "").unwrap();
        }
        assert_eq!(bench_stems(&dir).unwrap(), vec!["e1_a", "e2_b"]);
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(bench_stems(&empty).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_artifacts_are_rejected() {
        let v = validate_artifact("BENCH_x.json", "{ not json", &[]);
        assert!(v.report.is_none() && !v.problems.is_empty());
        // Schema-invalid (truncated stats) text also fails.
        let text = fixture("x").to_json_string().replace("10.5", "99.5");
        assert!(validate_artifact("BENCH_x.json", &text, &[])
            .report
            .is_none());
    }

    #[test]
    fn filename_id_mismatch_and_empty_reports_are_rejected() {
        let text = fixture("x").to_json_string();
        let problems = validate_artifact("BENCH_y.json", &text, &[]).problems;
        assert!(problems.iter().any(|p| p.contains("does not match")));

        let mut empty = fixture("x");
        empty.metrics.clear();
        let problems = validate_artifact("BENCH_x.json", &empty.to_json_string(), &[]).problems;
        assert!(problems.iter().any(|p| p.contains("no metrics")));
    }

    #[test]
    fn metric_floors_gate_means() {
        let text = fixture("x").to_json_string();
        let passing = parse_metric_floor("x:goodput:11").unwrap();
        let v = validate_artifact("BENCH_x.json", &text, &[passing]);
        assert!(v.problems.is_empty());
        assert_eq!(v.confirmations.len(), 1, "passing gate is confirmed");
        let failing = parse_metric_floor("x:goodput:12").unwrap();
        let problems = validate_artifact("BENCH_x.json", &text, &[failing]).problems;
        assert!(problems.iter().any(|p| p.contains("below the required")));
        let absent = parse_metric_floor("x:latency:1").unwrap();
        let problems = validate_artifact("BENCH_x.json", &text, &[absent]).problems;
        assert!(problems.iter().any(|p| p.contains("missing or empty")));
    }

    #[test]
    fn an_expected_artifact_below_its_floor_is_reported_once() {
        // Present and parsed, but under its floor: one problem, the
        // floor's, and no claim that the file is missing.
        let artifacts = [("BENCH_x.json".to_string(), fixture("x").to_json_string())];
        let floors = [parse_metric_floor("x:goodput:12").unwrap()];
        let (_, problems) = check(&artifacts, &["x".to_string()], &floors);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("below the required"), "{problems:?}");
        let (lines, problems) = check(&artifacts, &["x".to_string(), "y".to_string()], &[]);
        assert!(lines.iter().any(|l| l.starts_with("ok   BENCH_x.json")));
        assert_eq!(problems, ["expected artifact BENCH_y.json is missing"]);
    }
}
