//! The shared benchmark-report schema every experiment harness emits.
//!
//! A [`BenchReport`] is what one harness run produced: an id (the bench
//! target name), a human title, the measurement [`Mode`], and a list of
//! [`Metric`]s — each a named series with scenario axes, raw samples,
//! derived [`Aggregate`] percentiles
//! and optional throughput. Reports serialize through the serde shim's
//! JSON model to `bench-results/BENCH_<id>.json`, the machine-readable
//! artifact CI tracks and gates on (see `docs/BENCHMARKS.md`).
//!
//! The schema is versioned (`"schema": "netdsl-bench/1"`) and
//! round-trips exactly: `parse(serialize(r)) == r`. The `stats` block in
//! each serialized metric is *derived* from the samples at write time
//! and re-validated at parse time, so a hand-edited or truncated
//! artifact fails loudly instead of gating CI on stale numbers.
//!
//! Criterion-style harnesses (E1–E3) emit this schema through the
//! criterion shim's JSON sink without touching this module; campaign
//! harnesses (E4, E8, E9) convert a [`CampaignReport`] with
//! [`BenchReport::from_campaign`]; bespoke harnesses (E5–E7, E10–E17)
//! build [`Metric`]s directly.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use netdsl_netsim::campaign::CampaignReport;
use netdsl_netsim::stats::Aggregate;
use serde::json::{JsonError, Value};
use serde::{Deserialize, Serialize};

/// Schema identifier every report carries; bump on breaking changes.
pub const SCHEMA: &str = "netdsl-bench/1";

/// `true` when `BENCH_QUICK` asks harnesses to shrink their sweeps to
/// CI-smoke size. Campaign sweeps must keep their axis label sets
/// identical between modes — only workload sizes and measurement
/// budgets shrink — so quick and full artifacts stay comparable
/// cell-for-cell (`tests/campaign.rs` pins this for every
/// [`harnesses`](crate::harnesses) builder). Non-campaign harnesses
/// that sweep *spec sizes* (E5, E10) may instead cap their size lists,
/// making quick metrics a prefix of the full set.
pub fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Picks the workload size for the current mode.
pub fn scaled(full: usize, quick_size: usize) -> usize {
    if quick() {
        quick_size
    } else {
        full
    }
}

/// Which measurement budget a report was produced under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// `BENCH_QUICK=1`: shrunken workloads, CI smoke tier.
    Quick,
    /// The default, full-depth measurement.
    Full,
}

impl Mode {
    /// The mode the current process runs under (from `BENCH_QUICK`).
    pub fn current() -> Mode {
        if quick() {
            Mode::Quick
        } else {
            Mode::Full
        }
    }

    /// The serialized spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Quick => "quick",
            Mode::Full => "full",
        }
    }
}

/// A derived rate attached to a metric (e.g. bytes/s for codecs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Throughput {
    /// Rate unit, e.g. `"bytes/s"`, `"scenarios/s"`.
    pub unit: String,
    /// The rate itself.
    pub rate: f64,
}

/// One measured series: a name, the scenario axes that locate it in its
/// sweep, the raw samples, and an optional derived throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, unique within a report together with its axes.
    pub name: String,
    /// Unit of each sample, e.g. `"ns/iter"`, `"bytes/1000ticks"`.
    pub unit: String,
    /// Ordered `(axis, label)` pairs, e.g. `("loss", "0.10")`.
    pub axes: Vec<(String, String)>,
    /// Raw samples (finite; one per replicate / batch).
    pub samples: Vec<f64>,
    /// Optional derived rate.
    pub throughput: Option<Throughput>,
}

impl Metric {
    /// A metric with no axes, samples or throughput yet.
    pub fn new(name: impl Into<String>, unit: impl Into<String>) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            axes: Vec::new(),
            samples: Vec::new(),
            throughput: None,
        }
    }

    /// Appends one scenario axis (builder style).
    ///
    /// # Panics
    ///
    /// Panics when `axis` repeats an existing axis name — axes
    /// serialize as JSON object members, where a repeat would silently
    /// collapse; that is a harness construction bug, not data.
    #[must_use]
    pub fn with_axis(mut self, axis: impl Into<String>, label: impl Into<String>) -> Metric {
        let axis = axis.into();
        assert!(
            self.axes.iter().all(|(a, _)| *a != axis),
            "metric {:?}: duplicate axis {axis:?}",
            self.name
        );
        self.axes.push((axis, label.into()));
        self
    }

    /// Appends one sample (builder style). Non-finite samples are
    /// dropped, mirroring [`Aggregate::from_samples`] — JSON cannot
    /// carry them and they would poison every downstream comparison.
    #[must_use]
    pub fn with_sample(mut self, sample: f64) -> Metric {
        if sample.is_finite() {
            self.samples.push(sample);
        }
        self
    }

    /// Appends samples (builder style), dropping non-finite ones (see
    /// [`Metric::with_sample`]).
    #[must_use]
    pub fn with_samples(mut self, samples: impl IntoIterator<Item = f64>) -> Metric {
        self.samples
            .extend(samples.into_iter().filter(|s| s.is_finite()));
        self
    }

    /// Sets the derived throughput (builder style).
    #[must_use]
    pub fn with_throughput(mut self, unit: impl Into<String>, rate: f64) -> Metric {
        self.throughput = Some(Throughput {
            unit: unit.into(),
            rate,
        });
        self
    }

    /// The samples summarised as percentiles — what the serialized
    /// `stats` block is derived from.
    pub fn aggregate(&self) -> Aggregate {
        Aggregate::from_samples(self.samples.iter().copied())
    }

    fn to_json(&self) -> Value {
        let mut axes = Value::object();
        for (axis, label) in &self.axes {
            axes = axes.set(axis.clone(), label.clone());
        }
        let a = self.aggregate();
        let stats = Value::object()
            .set("count", a.count())
            .set("mean", a.mean())
            .set("min", a.min())
            .set("max", a.max())
            .set("p50", a.percentile(50.0))
            .set("p90", a.percentile(90.0))
            .set("p99", a.percentile(99.0));
        let throughput = match &self.throughput {
            Some(t) => Value::object()
                .set("unit", t.unit.clone())
                .set("rate", t.rate),
            None => Value::Null,
        };
        Value::object()
            .set("name", self.name.clone())
            .set("unit", self.unit.clone())
            .set("axes", axes)
            .set(
                "samples",
                // Belt and braces for direct `samples` mutation: only
                // finite values serialize (matching the builders and
                // the stats derivation), so a written artifact is
                // always parseable.
                Value::Array(
                    self.samples
                        .iter()
                        .filter(|s| s.is_finite())
                        .map(|&s| Value::Number(s))
                        .collect(),
                ),
            )
            .set("stats", stats)
            .set("throughput", throughput)
    }

    fn from_json(v: &Value) -> Result<Metric, SchemaError> {
        let name = require_str(v, "name")?.to_string();
        let unit = require_str(v, "unit")?.to_string();
        let axes_obj = v
            .get("axes")
            .and_then(Value::as_object)
            .ok_or_else(|| SchemaError::invalid("metric `axes` must be an object"))?;
        let mut axes = Vec::with_capacity(axes_obj.len());
        for (axis, label) in axes_obj {
            let label = label.as_str().ok_or_else(|| {
                SchemaError::invalid(format!("axis {axis:?} label must be a string"))
            })?;
            axes.push((axis.clone(), label.to_string()));
        }
        let sample_values = v
            .get("samples")
            .and_then(Value::as_array)
            .ok_or_else(|| SchemaError::invalid("metric `samples` must be an array"))?;
        let mut samples = Vec::with_capacity(sample_values.len());
        for s in sample_values {
            let n = s.as_f64().filter(|n| n.is_finite()).ok_or_else(|| {
                SchemaError::invalid(format!("metric {name:?}: non-numeric sample"))
            })?;
            samples.push(n);
        }
        let throughput = match v.get("throughput") {
            None | Some(Value::Null) => None,
            Some(t) => Some(Throughput {
                unit: require_str(t, "unit")?.to_string(),
                rate: t
                    .get("rate")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| SchemaError::invalid("throughput `rate` must be a number"))?,
            }),
        };
        let metric = Metric {
            name,
            unit,
            axes,
            samples,
            throughput,
        };
        metric.check_stats(v)?;
        Ok(metric)
    }

    /// Verifies the serialized `stats` block against a recomputation
    /// from the samples — the integrity check behind the CI gate.
    fn check_stats(&self, v: &Value) -> Result<(), SchemaError> {
        let stats = v
            .get("stats")
            .ok_or_else(|| SchemaError::invalid("metric missing `stats`"))?;
        let a = self.aggregate();
        let expectations = [
            ("count", a.count() as f64),
            ("mean", a.mean()),
            ("min", a.min()),
            ("max", a.max()),
            ("p50", a.percentile(50.0)),
            ("p90", a.percentile(90.0)),
            ("p99", a.percentile(99.0)),
        ];
        for (key, expected) in expectations {
            let got = stats
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| SchemaError::invalid(format!("stats missing `{key}`")))?;
            let tolerance = 1e-9 * expected.abs().max(1.0);
            if (got - expected).abs() > tolerance {
                return Err(SchemaError::invalid(format!(
                    "metric {:?}: stats.{key} = {got} disagrees with samples ({expected})",
                    self.name
                )));
            }
        }
        Ok(())
    }
}

/// Everything one harness run measured, ready to serialize.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Stable report id — the bench target name (`e4_arq_goodput`, …).
    pub id: String,
    /// Human-readable one-line description.
    pub title: String,
    /// Measurement mode the run used.
    pub mode: Mode,
    /// The measured series.
    pub metrics: Vec<Metric>,
}

impl BenchReport {
    /// An empty report in the current process mode (see [`Mode::current`]).
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> BenchReport {
        BenchReport {
            id: id.into(),
            title: title.into(),
            mode: Mode::current(),
            metrics: Vec::new(),
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Converts a campaign run into report metrics: each cell (one
    /// combination of the non-seed axes, in expansion order) yields
    /// goodput / latency / retransmit / delivery / success series whose
    /// samples are its per-replicate values, as the campaign's
    /// [`Cell`](netdsl_netsim::campaign::Cell) folded them.
    ///
    /// # Panics
    ///
    /// Panics if the report did not keep every sample, as a capped
    /// [`run_streaming`](netdsl_netsim::campaign::Campaign::run_streaming)
    /// may not; [`Campaign::run`](netdsl_netsim::campaign::Campaign::run)
    /// always does.
    pub fn from_campaign(
        id: impl Into<String>,
        title: impl Into<String>,
        report: &CampaignReport,
    ) -> BenchReport {
        let mut out = BenchReport::new(id, title);
        for cell in &report.cells {
            for (name, unit, series) in [
                ("goodput", "bytes/1000ticks", &cell.goodput),
                ("latency", "ticks/msg", &cell.latency),
                ("retransmits", "retx/msg", &cell.retransmits),
                ("delivery", "ratio", &cell.delivery),
                ("success", "ratio", &cell.success),
            ] {
                assert_eq!(
                    series.samples().len() as u64,
                    series.count(),
                    "{name} of {}/{}: the report must keep every sample",
                    cell.protocol,
                    cell.link
                );
                out.push(
                    Metric::new(name, unit)
                        .with_axis("protocol", cell.protocol.clone())
                        .with_axis("link", cell.link.clone())
                        .with_axis("topology", cell.topology.clone())
                        .with_axis("traffic", cell.traffic.clone())
                        .with_samples(series.samples().iter().copied()),
                );
            }
        }
        out
    }

    /// The report as a JSON tree.
    pub fn to_json(&self) -> Value {
        Value::object()
            .set("schema", SCHEMA)
            .set("id", self.id.clone())
            .set("title", self.title.clone())
            .set("mode", self.mode.as_str())
            .set(
                "metrics",
                Value::Array(self.metrics.iter().map(Metric::to_json).collect()),
            )
    }

    /// The report as pretty-printed JSON text (what gets written).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Parses and validates a JSON tree.
    pub fn from_json(v: &Value) -> Result<BenchReport, SchemaError> {
        let schema = require_str(v, "schema")?;
        if schema != SCHEMA {
            return Err(SchemaError::invalid(format!(
                "unsupported schema {schema:?} (expected {SCHEMA:?})"
            )));
        }
        let id = require_str(v, "id")?.to_string();
        if id.is_empty() {
            return Err(SchemaError::invalid("`id` must be non-empty"));
        }
        let title = require_str(v, "title")?.to_string();
        let mode = match require_str(v, "mode")? {
            "quick" => Mode::Quick,
            "full" => Mode::Full,
            other => {
                return Err(SchemaError::invalid(format!(
                    "`mode` must be \"quick\" or \"full\", got {other:?}"
                )))
            }
        };
        let metric_values = v
            .get("metrics")
            .and_then(Value::as_array)
            .ok_or_else(|| SchemaError::invalid("`metrics` must be an array"))?;
        let metrics = metric_values
            .iter()
            .map(Metric::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            id,
            title,
            mode,
            metrics,
        })
    }

    /// Parses and validates JSON text.
    pub fn from_json_str(text: &str) -> Result<BenchReport, SchemaError> {
        BenchReport::from_json(&Value::parse(text)?)
    }

    /// The artifact path this report serializes to, under `dir`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.id)
    }

    /// Writes the report to `dir/BENCH_<id>.json`, creating `dir`.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json_string())?;
        Ok(path)
    }

    /// Writes the report to the default results directory (see
    /// [`results_dir`]) and prints the path, as every harness does last.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure — a harness whose artifact silently
    /// vanished would defeat the CI gate the artifact exists for.
    pub fn write(&self) -> PathBuf {
        let dir = results_dir();
        let path = self
            .write_to(&dir)
            .unwrap_or_else(|e| panic!("write bench report to {}: {e}", dir.display()));
        println!("\nwrote {}", path.display());
        path
    }
}

/// Where benchmark artifacts go: `$BENCH_RESULTS_DIR` when set, else
/// `bench-results/` under the nearest ancestor of the current directory
/// holding `Cargo.lock` (cargo runs bench binaries with the *package*
/// directory as cwd, so this finds the workspace root). The criterion
/// shim's sink resolves the same way.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("BENCH_RESULTS_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join("bench-results");
        }
        if !dir.pop() {
            return PathBuf::from("bench-results");
        }
    }
}

fn require_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, SchemaError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| SchemaError::invalid(format!("missing or non-string `{key}`")))
}

/// Why a report failed to parse or validate.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// The text was not JSON at all.
    Json(JsonError),
    /// The JSON does not satisfy the report schema.
    Invalid(String),
}

impl SchemaError {
    fn invalid(msg: impl Into<String>) -> SchemaError {
        SchemaError::Invalid(msg.into())
    }
}

impl From<JsonError> for SchemaError {
    fn from(e: JsonError) -> SchemaError {
        SchemaError::Json(e)
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Json(e) => write!(f, "{e}"),
            SchemaError::Invalid(msg) => write!(f, "schema violation: {msg}"),
        }
    }
}

impl std::error::Error for SchemaError {}

#[cfg(test)]
mod tests {
    use super::*;
    use netdsl_netsim::campaign::{Campaign, Sweep};
    use netdsl_netsim::scenario::{
        ProtocolSpec, Scenario, ScenarioDriver, ScenarioError, ScenarioResult,
    };
    use netdsl_netsim::{LinkConfig, LinkStats};

    fn sample_report() -> BenchReport {
        let mut r = BenchReport {
            id: "unit_test".into(),
            title: "round-trip fixture".into(),
            mode: Mode::Full,
            metrics: Vec::new(),
        };
        r.push(
            Metric::new("goodput", "bytes/1000ticks")
                .with_axis("protocol", "SW")
                .with_axis("loss", "0.10")
                .with_samples([12.5, 11.25, 13.0])
                .with_throughput("bytes/s", 1250.0),
        );
        r.push(Metric::new("states", "count").with_sample(4096.0));
        r
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = sample_report();
        let parsed = BenchReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn tampered_stats_fail_validation() {
        let text = sample_report().to_json_string().replace("12.5", "99.5");
        match BenchReport::from_json_str(&text) {
            Err(SchemaError::Invalid(msg)) => assert!(msg.contains("disagrees"), "{msg}"),
            other => panic!("tampering must be caught, got {other:?}"),
        }
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let text = sample_report()
            .to_json_string()
            .replace(SCHEMA, "netdsl-bench/0");
        assert!(matches!(
            BenchReport::from_json_str(&text),
            Err(SchemaError::Invalid(_))
        ));
    }

    #[test]
    fn malformed_json_reports_a_parse_error() {
        assert!(matches!(
            BenchReport::from_json_str("{ not json"),
            Err(SchemaError::Json(_))
        ));
    }

    struct Echo;

    impl ScenarioDriver for Echo {
        fn supports(&self, protocol: &str) -> bool {
            protocol != "unknown"
        }
        fn run(&self, s: &Scenario) -> Result<ScenarioResult, ScenarioError> {
            Ok(ScenarioResult {
                success: s.link.loss < 0.5,
                elapsed: 1000,
                messages_offered: 4,
                messages_delivered: 4,
                payload_bytes: 64 + s.seed % 7,
                frames_sent: 4,
                retransmissions: 1,
                link: LinkStats::default(),
            })
        }
    }

    #[test]
    fn from_campaign_groups_by_non_seed_axes() {
        let campaign = Campaign::new("c", 1)
            .protocols(Sweep::grid([
                ("p1", ProtocolSpec::new("a")),
                ("p2", ProtocolSpec::new("b")),
            ]))
            .links(Sweep::grid([
                ("clean", LinkConfig::reliable(1)),
                ("dead", LinkConfig::lossy(1, 1.0)),
            ]))
            .seeds(Sweep::seeds(3));
        let report = BenchReport::from_campaign("t", "t", &campaign.run(&Echo, 2));
        // 2 protocols × 2 links = 4 groups × 5 metric kinds.
        assert_eq!(report.metrics.len(), 20);
        let goodput_p1_clean = report
            .metrics
            .iter()
            .find(|m| {
                m.name == "goodput"
                    && m.axes.contains(&("protocol".into(), "p1".into()))
                    && m.axes.contains(&("link".into(), "clean".into()))
            })
            .unwrap();
        assert_eq!(goodput_p1_clean.samples.len(), 3, "one per seed replicate");
        let success_dead = report
            .metrics
            .iter()
            .find(|m| m.name == "success" && m.axes.contains(&("link".into(), "dead".into())))
            .unwrap();
        assert_eq!(success_dead.aggregate().mean(), 0.0, "dead links fail");
        // And the whole thing still round-trips.
        let parsed = BenchReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn write_to_creates_the_artifact() {
        let dir = std::env::temp_dir().join(format!("netdsl-report-{}", std::process::id()));
        let r = sample_report();
        let path = r.write_to(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "BENCH_unit_test.json");
        let parsed = BenchReport::from_json_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed, r);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_finite_samples_are_dropped_everywhere() {
        let m = Metric::new("x", "u").with_sample(f64::NAN).with_samples([
            1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]);
        assert_eq!(m.samples, vec![1.0], "builders drop non-finite");
        // Even direct field mutation cannot produce an unparseable file.
        let mut direct = Metric::new("y", "u").with_sample(2.0);
        direct.samples.push(f64::NAN);
        let mut r = sample_report();
        r.push(direct);
        let parsed = BenchReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(parsed.metrics.last().unwrap().samples, vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate axis")]
    fn duplicate_axis_names_panic() {
        let _ = Metric::new("x", "u")
            .with_axis("loss", "0.1")
            .with_axis("loss", "0.2");
    }

    #[test]
    fn empty_samples_serialize_and_parse() {
        let mut r = sample_report();
        r.push(Metric::new("nothing", "count"));
        let parsed = BenchReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(parsed, r);
    }
}
