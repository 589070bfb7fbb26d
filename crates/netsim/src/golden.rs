//! Golden-trace transcripts: the canonical, serialized record of one
//! scenario execution that every engine variant must reproduce
//! byte-for-byte.
//!
//! The paper's core complaint is the *transcription gap*: a spec
//! verified in one formalism and an implementation in another drift
//! apart silently. This workspace carries four engine variants of the
//! same protocol specs ([`FramePath`](crate::scenario::FramePath)
//! interpreted/compiled, [`FsmPath`](crate::scenario::FsmPath)
//! typestate/compiled), and the golden corpus is what keeps them
//! honest: a [`GoldenTrace`] captures every frame event (tick,
//! direction, wire bytes, delivery verdict, receiving-endpoint state
//! digest) plus the scenario inputs and the final result, serialized
//! deterministically via the serde shim's `json` module. Crucially the
//! serialized form carries **no engine-axis fields** — one canonical
//! transcript per fixture, which every supported codec × FSM
//! combination must replay byte-identically (`tests/golden_parity.rs`).
//!
//! A transcript is not captured separately: it is the [`project`]ion
//! of the simulator's one recorder run in transcript mode
//! ([`FlightMode::Transcript`]), which keeps every frame's wire bytes
//! and a digest event after each delivery. The `netdsl-protocols`
//! recorder supplies the protocol's reference frame validator, which
//! the projection runs on each delivered frame for its verdict. The
//! committed corpus under `tests/golden/` is regenerated by the
//! `tools/golden` binary (`--check` mode gates CI). See
//! `docs/ARCHITECTURE.md`.
//!
//! [`FlightMode::Transcript`]: netdsl_obs::FlightMode::Transcript

use std::fmt;

use netdsl_obs::{FlightKind, FlightRecording};
use serde::json::Value;

use crate::link::LinkConfig;
use crate::scenario::{
    Fault, FaultDirection, FaultKind, FaultNode, RetransmitPolicy, Scenario, ScenarioResult,
    TopologySpec,
};
use crate::stats::LinkStats;
use crate::Tick;

/// Schema identifier embedded in every serialized golden trace.
pub const SCHEMA: &str = "netdsl-golden/1";

/// The frame event kinds a transcript keeps, with their serialized
/// labels.
const FRAME_KINDS: [(FlightKind, &str); 4] = [
    (FlightKind::Send, "sent"),
    (FlightKind::Drop, "lost"),
    (FlightKind::Corrupt, "corrupted"),
    (FlightKind::Deliver, "delivered"),
];

/// Outcome of frame validation at the receiving endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The frame decoded and its checksum verified.
    Valid,
    /// The frame was rejected (truncation, bad checksum, bad kind…).
    Corrupt,
}

impl Verdict {
    /// Canonical serialized label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Valid => "valid",
            Verdict::Corrupt => "corrupt",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "valid" => Verdict::Valid,
            "corrupt" => Verdict::Corrupt,
            _ => return None,
        })
    }
}

/// One recorded frame event, in engine execution order.
///
/// `bytes` holds the wire bytes as they crossed that point (the
/// possibly-corrupted copy for deliveries); `verdict` and `digest` are
/// only present on [`FlightKind::Deliver`] events: the validator's
/// answer on the delivered bytes, and the digest the endpoint took
/// after it processed the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenEvent {
    /// Virtual time of the event.
    pub at: Tick,
    /// What happened: a `Send`, `Drop`, `Corrupt` or `Deliver`
    /// (serialized as `sent`, `lost`, `corrupted`, `delivered`).
    pub kind: FlightKind,
    /// Raw index of the link involved (0 = a→b, 1 = b→a on a duplex).
    pub link: usize,
    /// Wire bytes (empty for loss/corruption markers).
    pub bytes: Vec<u8>,
    /// Validation outcome at the receiving endpoint (deliveries only).
    pub verdict: Option<Verdict>,
    /// FNV-1a digest of the receiving endpoint's observable state after
    /// it processed the frame (deliveries only).
    pub digest: Option<u64>,
}

impl GoldenEvent {
    fn to_json(&self) -> Value {
        let label = FRAME_KINDS
            .iter()
            .find(|(kind, _)| *kind == self.kind)
            .map_or(self.kind.as_str(), |(_, label)| label);
        let mut v = Value::object()
            .set("at", self.at as f64)
            .set("kind", label)
            .set("link", self.link);
        if !self.bytes.is_empty() {
            v = v.set("bytes", hex_encode(&self.bytes));
        }
        if let Some(verdict) = self.verdict {
            v = v.set("verdict", verdict.as_str());
        }
        if let Some(digest) = self.digest {
            v = v.set("digest", format!("{digest:016x}"));
        }
        v
    }

    fn from_json(v: &Value) -> Result<Self, GoldenError> {
        let label = get_str(v, "kind")?;
        let (kind, _) = FRAME_KINDS
            .into_iter()
            .find(|(_, l)| *l == label)
            .ok_or_else(|| GoldenError::invalid("unknown event kind"))?;
        let bytes = match v.get("bytes") {
            Some(b) => hex_decode(
                b.as_str()
                    .ok_or_else(|| GoldenError::invalid("event bytes must be a hex string"))?,
            )?,
            None => Vec::new(),
        };
        let verdict = match v.get("verdict") {
            Some(s) => Some(
                s.as_str()
                    .and_then(Verdict::from_str)
                    .ok_or_else(|| GoldenError::invalid("unknown verdict"))?,
            ),
            None => None,
        };
        let digest = match v.get("digest") {
            Some(s) => Some(
                s.as_str()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| GoldenError::invalid("digest must be a hex string"))?,
            ),
            None => None,
        };
        Ok(GoldenEvent {
            at: get_u64(v, "at")?,
            kind,
            link: get_u64(v, "link")? as usize,
            bytes,
            verdict,
            digest,
        })
    }
}

/// Projects a transcript recording onto its frame events: every
/// `Send`, `Drop`, `Corrupt` and `Deliver` in recording order, sends
/// and deliveries with their wire bytes, and each delivery with
/// `frame_ok`'s verdict on its bytes and the digest event that follows
/// it. Timer, protocol and fault events are left out.
///
/// # Panics
///
/// Panics if `recording` holds fewer wire bytes than its sends and
/// deliveries claim: it was not recorded in transcript mode.
pub fn project(recording: &FlightRecording, frame_ok: impl Fn(&[u8]) -> bool) -> Vec<GoldenEvent> {
    let mut wire = recording.wire.as_slice();
    let mut events: Vec<GoldenEvent> = Vec::new();
    let mut last_delivery: Option<usize> = None;
    for e in &recording.events {
        let bytes = match e.kind {
            FlightKind::Send | FlightKind::Deliver => {
                let (bytes, rest) = wire.split_at(e.detail as usize);
                wire = rest;
                bytes.to_vec()
            }
            FlightKind::Drop | FlightKind::Corrupt => Vec::new(),
            FlightKind::Digest => {
                if let Some(i) = last_delivery.take() {
                    events[i].digest = Some(e.detail);
                }
                continue;
            }
            _ => continue,
        };
        let verdict = (e.kind == FlightKind::Deliver).then(|| {
            last_delivery = Some(events.len());
            if frame_ok(&bytes) {
                Verdict::Valid
            } else {
                Verdict::Corrupt
            }
        });
        events.push(GoldenEvent {
            at: e.at,
            kind: e.kind,
            link: e.subject as usize,
            bytes,
            verdict,
            digest: None,
        });
    }
    events
}

/// The scenario inputs a golden trace was recorded from — everything
/// needed to re-run it, **deliberately excluding** the engine axes
/// (`frame_path`, `fsm_path`): a fixture pins behaviour,
/// and all engine combinations must reproduce it.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenScenario {
    /// Protocol key (`"stop-and-wait"`, `"go-back-n"`, …).
    pub protocol: String,
    /// Sliding-window size.
    pub window: u32,
    /// Retransmission timeout in ticks.
    pub timeout: Tick,
    /// Retry budget per message.
    pub max_retries: u32,
    /// Base link impairments.
    pub link: LinkConfig,
    /// Number of application messages offered.
    pub messages: usize,
    /// Size of each message in bytes.
    pub message_size: usize,
    /// Scheduled mid-run faults, sorted by time. Link reconfigurations
    /// keep their original `{at, direction, link}` serialized shape
    /// (committed fixtures stay byte-identical); the newer kinds
    /// (flap, burst, crash, restart, skew) carry a `kind` tag.
    pub faults: Vec<Fault>,
    /// Retransmission policy. Serialized only when adaptive, so
    /// fixed-policy fixtures keep their original bytes.
    pub retransmit: RetransmitPolicy,
    /// Simulator seed.
    pub seed: u64,
    /// Virtual-time budget.
    pub deadline: Tick,
}

impl GoldenScenario {
    /// Extracts the engine-independent inputs from a scenario.
    ///
    /// # Panics
    ///
    /// Panics on non-duplex topologies — the golden corpus covers the
    /// pairwise suite, whose driver refuses everything else anyway.
    pub fn from_scenario(scenario: &Scenario) -> Self {
        assert!(
            scenario.topology == TopologySpec::Duplex,
            "golden traces cover duplex scenarios only"
        );
        GoldenScenario {
            protocol: scenario.protocol.name.clone(),
            window: scenario.protocol.window,
            timeout: scenario.protocol.timeout,
            max_retries: scenario.protocol.max_retries,
            link: scenario.link.clone(),
            messages: scenario.traffic.count,
            message_size: scenario.traffic.size,
            faults: scenario.sorted_faults(),
            retransmit: scenario.protocol.retransmit,
            seed: scenario.seed,
            deadline: scenario.deadline,
        }
    }

    fn to_json(&self) -> Value {
        let mut v = Value::object()
            .set("protocol", self.protocol.as_str())
            .set("window", self.window)
            .set("timeout", self.timeout as f64)
            .set("max_retries", self.max_retries)
            .set("link", link_to_json(&self.link))
            .set(
                "traffic",
                Value::object()
                    .set("count", self.messages)
                    .set("size", self.message_size),
            )
            .set(
                "faults",
                Value::Array(self.faults.iter().map(fault_to_json).collect()),
            );
        if let RetransmitPolicy::AdaptiveRto { min_rto, max_rto } = self.retransmit {
            v = v.set(
                "retransmit",
                Value::object()
                    .set("policy", self.retransmit.as_str())
                    .set("min_rto", min_rto as f64)
                    .set("max_rto", max_rto as f64),
            );
        }
        v.set("seed", self.seed as f64)
            .set("deadline", self.deadline as f64)
    }

    fn from_json(v: &Value) -> Result<Self, GoldenError> {
        let traffic = v
            .get("traffic")
            .ok_or_else(|| GoldenError::missing("traffic"))?;
        let faults = v
            .get("faults")
            .and_then(Value::as_array)
            .ok_or_else(|| GoldenError::missing("faults"))?
            .iter()
            .map(fault_from_json)
            .collect::<Result<Vec<_>, GoldenError>>()?;
        let retransmit = match v.get("retransmit") {
            None => RetransmitPolicy::Fixed,
            Some(r) => match get_str(r, "policy")? {
                "adaptive-rto" => RetransmitPolicy::AdaptiveRto {
                    min_rto: get_u64(r, "min_rto")?,
                    max_rto: get_u64(r, "max_rto")?,
                },
                other => {
                    return Err(GoldenError::invalid(format!(
                        "unknown retransmit policy {other:?}"
                    )))
                }
            },
        };
        Ok(GoldenScenario {
            protocol: get_str(v, "protocol")?.to_string(),
            window: get_u64(v, "window")? as u32,
            timeout: get_u64(v, "timeout")?,
            max_retries: get_u64(v, "max_retries")? as u32,
            link: link_from_json(v.get("link").ok_or_else(|| GoldenError::missing("link"))?)?,
            messages: get_u64(traffic, "count")? as usize,
            message_size: get_u64(traffic, "size")? as usize,
            faults,
            retransmit,
            seed: get_u64(v, "seed")?,
            deadline: get_u64(v, "deadline")?,
        })
    }
}

/// The engine-independent outcome of the recorded run (the
/// [`ScenarioResult`] fields plus the merged link counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenResult {
    /// Did the whole workload complete correctly?
    pub success: bool,
    /// Virtual time consumed.
    pub elapsed: Tick,
    /// Messages offered.
    pub messages_offered: u64,
    /// Messages delivered in order.
    pub messages_delivered: u64,
    /// Payload bytes delivered end-to-end.
    pub payload_bytes: u64,
    /// Data frames transmitted (including retransmissions).
    pub frames_sent: u64,
    /// Retransmissions only.
    pub retransmissions: u64,
    /// Combined per-link counters.
    pub link: LinkStats,
}

impl GoldenResult {
    /// Folds a driver result into the golden shape.
    pub fn from_result(r: &ScenarioResult) -> Self {
        GoldenResult {
            success: r.success,
            elapsed: r.elapsed,
            messages_offered: r.messages_offered,
            messages_delivered: r.messages_delivered,
            payload_bytes: r.payload_bytes,
            frames_sent: r.frames_sent,
            retransmissions: r.retransmissions,
            link: r.link,
        }
    }

    fn to_json(&self) -> Value {
        Value::object()
            .set("success", self.success)
            .set("elapsed", self.elapsed as f64)
            .set("messages_offered", self.messages_offered as f64)
            .set("messages_delivered", self.messages_delivered as f64)
            .set("payload_bytes", self.payload_bytes as f64)
            .set("frames_sent", self.frames_sent as f64)
            .set("retransmissions", self.retransmissions as f64)
            .set(
                "link",
                Value::object()
                    .set("sent", self.link.sent as f64)
                    .set("delivered", self.link.delivered as f64)
                    .set("lost", self.link.lost as f64)
                    .set("duplicated", self.link.duplicated as f64)
                    .set("corrupted", self.link.corrupted as f64),
            )
    }

    fn from_json(v: &Value) -> Result<Self, GoldenError> {
        let link = v
            .get("link")
            .ok_or_else(|| GoldenError::missing("result link"))?;
        Ok(GoldenResult {
            success: v
                .get("success")
                .and_then(Value::as_bool)
                .ok_or_else(|| GoldenError::missing("success"))?,
            elapsed: get_u64(v, "elapsed")?,
            messages_offered: get_u64(v, "messages_offered")?,
            messages_delivered: get_u64(v, "messages_delivered")?,
            payload_bytes: get_u64(v, "payload_bytes")?,
            frames_sent: get_u64(v, "frames_sent")?,
            retransmissions: get_u64(v, "retransmissions")?,
            link: LinkStats {
                sent: get_u64(link, "sent")?,
                delivered: get_u64(link, "delivered")?,
                lost: get_u64(link, "lost")?,
                duplicated: get_u64(link, "duplicated")?,
                corrupted: get_u64(link, "corrupted")?,
            },
        })
    }
}

/// One complete canonical transcript: scenario inputs, every frame
/// event in execution order, and the final result.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenTrace {
    /// Fixture name (the file stem under `tests/golden/`).
    pub name: String,
    /// Engine-independent scenario inputs.
    pub scenario: GoldenScenario,
    /// Frame events in engine execution order.
    pub events: Vec<GoldenEvent>,
    /// Final outcome.
    pub result: GoldenResult,
}

impl GoldenTrace {
    /// Serializes to the canonical JSON tree.
    pub fn to_json(&self) -> Value {
        Value::object()
            .set("schema", SCHEMA)
            .set("name", self.name.as_str())
            .set("scenario", self.scenario.to_json())
            .set(
                "events",
                Value::Array(self.events.iter().map(GoldenEvent::to_json).collect()),
            )
            .set("result", self.result.to_json())
    }

    /// Serializes to the canonical JSON text — the exact bytes committed
    /// under `tests/golden/` and compared by the parity suite. The form
    /// is deterministic: fixed member order, `f64` shortest round-trip
    /// numbers, lowercase hex, trailing newline.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Parses and validates a canonical JSON tree.
    pub fn from_json(v: &Value) -> Result<Self, GoldenError> {
        let schema = get_str(v, "schema")?;
        if schema != SCHEMA {
            return Err(GoldenError::invalid(format!(
                "unsupported schema {schema:?} (expected {SCHEMA:?})"
            )));
        }
        let events = v
            .get("events")
            .and_then(Value::as_array)
            .ok_or_else(|| GoldenError::missing("events"))?
            .iter()
            .map(GoldenEvent::from_json)
            .collect::<Result<Vec<_>, GoldenError>>()?;
        for pair in events.windows(2) {
            if pair[1].at < pair[0].at {
                return Err(GoldenError::invalid("event times must be nondecreasing"));
            }
        }
        Ok(GoldenTrace {
            name: get_str(v, "name")?.to_string(),
            scenario: GoldenScenario::from_json(
                v.get("scenario")
                    .ok_or_else(|| GoldenError::missing("scenario"))?,
            )?,
            events,
            result: GoldenResult::from_json(
                v.get("result")
                    .ok_or_else(|| GoldenError::missing("result"))?,
            )?,
        })
    }

    /// Parses and validates canonical JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, GoldenError> {
        let v = Value::parse(text).map_err(|e| GoldenError::invalid(format!("bad JSON: {e}")))?;
        GoldenTrace::from_json(&v)
    }
}

/// Why a golden trace failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenError(String);

impl GoldenError {
    fn missing(field: &str) -> Self {
        GoldenError(format!("missing or mistyped field {field:?}"))
    }

    fn invalid(what: impl Into<String>) -> Self {
        GoldenError(what.into())
    }
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid golden trace: {}", self.0)
    }
}

impl std::error::Error for GoldenError {}

// ---------------------------------------------------------------------
// Digest and hex helpers
// ---------------------------------------------------------------------

/// Incremental FNV-1a (64-bit) hasher for endpoint state digests.
///
/// Deliberately simple and dependency-free: digests only need to be
/// deterministic and sensitive, not cryptographic.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Digest(Self::OFFSET)
    }

    /// Folds raw bytes into the digest.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds a counter into the digest (little-endian).
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The final digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// Lowercase hex encoding of `bytes`.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    s
}

/// Decodes lowercase/uppercase hex into bytes.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, GoldenError> {
    if !s.len().is_multiple_of(2) {
        return Err(GoldenError::invalid("hex string has odd length"));
    }
    let digits: Vec<u32> = s
        .chars()
        .map(|c| {
            c.to_digit(16)
                .ok_or_else(|| GoldenError::invalid(format!("bad hex digit {c:?}")))
        })
        .collect::<Result<_, _>>()?;
    Ok(digits
        .chunks(2)
        .map(|pair| ((pair[0] << 4) | pair[1]) as u8)
        .collect())
}

fn link_to_json(config: &LinkConfig) -> Value {
    Value::object()
        .set("delay", config.delay as f64)
        .set("jitter", config.jitter as f64)
        .set("loss", config.loss)
        .set("duplicate", config.duplicate)
        .set("corrupt", config.corrupt)
}

fn link_from_json(v: &Value) -> Result<LinkConfig, GoldenError> {
    let config = LinkConfig {
        delay: get_u64(v, "delay")?,
        jitter: get_u64(v, "jitter")?,
        loss: get_f64(v, "loss")?,
        duplicate: get_f64(v, "duplicate")?,
        corrupt: get_f64(v, "corrupt")?,
    };
    if !config.is_valid() {
        return Err(GoldenError::invalid("link probabilities outside [0, 1]"));
    }
    Ok(config)
}

/// One fault's canonical JSON. [`FaultKind::Link`] keeps the original
/// untagged `{at, direction, link}` shape so pre-fault-engine fixtures
/// serialize byte-identically; every newer kind carries a `kind` tag.
fn fault_to_json(fault: &Fault) -> Value {
    let at = Value::object().set("at", fault.at as f64);
    match &fault.kind {
        FaultKind::Link { direction, config } => at
            .set("direction", direction_str(*direction))
            .set("link", link_to_json(config)),
        FaultKind::Flap {
            direction,
            down,
            down_for,
            up_for,
            count,
        } => at
            .set("kind", "flap")
            .set("direction", direction_str(*direction))
            .set("link", link_to_json(down))
            .set("down_for", *down_for as f64)
            .set("up_for", *up_for as f64)
            .set("count", *count),
        FaultKind::Burst {
            direction,
            config,
            duration,
        } => at
            .set("kind", "burst")
            .set("direction", direction_str(*direction))
            .set("link", link_to_json(config))
            .set("duration", *duration as f64),
        FaultKind::Crash { node } => at.set("kind", "crash").set("node", node.as_str()),
        FaultKind::Restart { node } => at.set("kind", "restart").set("node", node.as_str()),
        FaultKind::ClockSkew { node, numer, denom } => at
            .set("kind", "skew")
            .set("node", node.as_str())
            .set("numer", *numer)
            .set("denom", *denom),
    }
}

fn fault_from_json(v: &Value) -> Result<Fault, GoldenError> {
    let at = get_u64(v, "at")?;
    let fault_link = |v: &Value| {
        link_from_json(
            v.get("link")
                .ok_or_else(|| GoldenError::missing("fault link"))?,
        )
    };
    let kind = match v.get("kind") {
        None => FaultKind::Link {
            direction: direction_from_str(get_str(v, "direction")?)?,
            config: fault_link(v)?,
        },
        Some(k) => match k.as_str() {
            Some("flap") => FaultKind::Flap {
                direction: direction_from_str(get_str(v, "direction")?)?,
                down: fault_link(v)?,
                down_for: get_u64(v, "down_for")?,
                up_for: get_u64(v, "up_for")?,
                count: get_u64(v, "count")? as u32,
            },
            Some("burst") => FaultKind::Burst {
                direction: direction_from_str(get_str(v, "direction")?)?,
                config: fault_link(v)?,
                duration: get_u64(v, "duration")?,
            },
            Some("crash") => FaultKind::Crash {
                node: node_from_str(get_str(v, "node")?)?,
            },
            Some("restart") => FaultKind::Restart {
                node: node_from_str(get_str(v, "node")?)?,
            },
            Some("skew") => FaultKind::ClockSkew {
                node: node_from_str(get_str(v, "node")?)?,
                numer: get_u64(v, "numer")? as u32,
                denom: get_u64(v, "denom")? as u32,
            },
            _ => return Err(GoldenError::invalid("unknown fault kind")),
        },
    };
    Ok(Fault { at, kind })
}

fn node_from_str(s: &str) -> Result<FaultNode, GoldenError> {
    Ok(match s {
        "a" => FaultNode::A,
        "b" => FaultNode::B,
        _ => return Err(GoldenError::invalid("unknown fault node")),
    })
}

fn direction_str(d: FaultDirection) -> &'static str {
    match d {
        FaultDirection::Forward => "forward",
        FaultDirection::Reverse => "reverse",
        FaultDirection::Both => "both",
    }
}

fn direction_from_str(s: &str) -> Result<FaultDirection, GoldenError> {
    Ok(match s {
        "forward" => FaultDirection::Forward,
        "reverse" => FaultDirection::Reverse,
        "both" => FaultDirection::Both,
        _ => return Err(GoldenError::invalid("unknown fault direction")),
    })
}

fn get_u64(v: &Value, field: &str) -> Result<u64, GoldenError> {
    v.get(field)
        .and_then(Value::as_u64)
        .ok_or_else(|| GoldenError::missing(field))
}

fn get_f64(v: &Value, field: &str) -> Result<f64, GoldenError> {
    v.get(field)
        .and_then(Value::as_f64)
        .ok_or_else(|| GoldenError::missing(field))
}

fn get_str<'a>(v: &'a Value, field: &str) -> Result<&'a str, GoldenError> {
    v.get(field)
        .and_then(Value::as_str)
        .ok_or_else(|| GoldenError::missing(field))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Fault, ProtocolSpec, TrafficPattern};

    fn sample_trace() -> GoldenTrace {
        let scenario = Scenario::new(
            ProtocolSpec::new("stop-and-wait").with_timeout(100),
            LinkConfig::lossy(3, 0.2),
        )
        .with_traffic(TrafficPattern::messages(2, 4))
        .with_fault(Fault::partition(50))
        .with_seed(7);
        GoldenTrace {
            name: "sample".into(),
            scenario: GoldenScenario::from_scenario(&scenario),
            events: vec![
                GoldenEvent {
                    at: 0,
                    kind: FlightKind::Send,
                    link: 0,
                    bytes: vec![1, 0, 0xab, 0xcd],
                    verdict: None,
                    digest: None,
                },
                GoldenEvent {
                    at: 3,
                    kind: FlightKind::Deliver,
                    link: 0,
                    bytes: vec![1, 0, 0xab, 0xcd],
                    verdict: Some(Verdict::Valid),
                    digest: Some(0xdead_beef),
                },
            ],
            result: GoldenResult {
                success: true,
                elapsed: 42,
                messages_offered: 2,
                messages_delivered: 2,
                payload_bytes: 8,
                frames_sent: 3,
                retransmissions: 1,
                link: LinkStats {
                    sent: 5,
                    delivered: 4,
                    lost: 1,
                    duplicated: 0,
                    corrupted: 0,
                },
            },
        }
    }

    #[test]
    fn round_trips_through_json() {
        let trace = sample_trace();
        let text = trace.to_json_string();
        let back = GoldenTrace::from_json_str(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_json_string(), text, "re-serialization is stable");
    }

    #[test]
    fn serialization_is_deterministic() {
        let trace = sample_trace();
        assert_eq!(trace.to_json_string(), trace.to_json_string());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut v = sample_trace().to_json();
        v = v.set("schema", "netdsl-golden/999");
        assert!(GoldenTrace::from_json(&v).is_err());
    }

    #[test]
    fn decreasing_event_times_are_rejected() {
        let mut trace = sample_trace();
        trace.events.swap(0, 1);
        let text = trace.to_json_string();
        let err = GoldenTrace::from_json_str(&text).unwrap_err();
        assert!(err.to_string().contains("nondecreasing"), "{err}");
    }

    #[test]
    fn bad_hex_and_bad_verdicts_are_rejected() {
        let good = sample_trace().to_json_string();
        assert!(good.contains("0100abcd"), "wire bytes serialize as hex");
        let bad_hex = good.replace("0100abcd", "0100abcg");
        assert!(GoldenTrace::from_json_str(&bad_hex).is_err());
        let bad_verdict = good.replace("\"valid\"", "\"maybe\"");
        assert!(GoldenTrace::from_json_str(&bad_verdict).is_err());
    }

    #[test]
    fn projection_keeps_frame_events_with_verdicts_and_digests() {
        use netdsl_obs::FlightEvent;
        let ev = |at, kind, subject, detail| FlightEvent {
            at,
            kind,
            subject,
            detail,
        };
        // A send, its delivery, the receiver's ack (sent while it
        // handles the delivery, before its digest), a loss and a
        // corrupted delivery the validator refuses.
        let recording = FlightRecording {
            capacity: 8,
            recorded: 8,
            dropped: 0,
            events: vec![
                ev(0, FlightKind::Send, 0, 2),
                ev(0, FlightKind::TimerSet, 0, 1),
                ev(3, FlightKind::Deliver, 0, 2),
                ev(3, FlightKind::Send, 1, 1),
                ev(3, FlightKind::Drop, 1, 0),
                ev(3, FlightKind::Digest, 1, 0xd1),
                ev(5, FlightKind::Corrupt, 0, 0),
                ev(8, FlightKind::Deliver, 0, 2),
            ],
            wire: vec![1, 2, 1, 2, 9, 1, 3],
        };
        let events = project(&recording, |frame| frame[0] == 1);
        let shape: Vec<_> = events
            .iter()
            .map(|e| {
                (
                    e.at,
                    e.kind,
                    e.link,
                    e.bytes.as_slice(),
                    e.verdict,
                    e.digest,
                )
            })
            .collect();
        assert_eq!(
            shape,
            [
                (0, FlightKind::Send, 0, &[1, 2][..], None, None),
                (
                    3,
                    FlightKind::Deliver,
                    0,
                    &[1, 2],
                    Some(Verdict::Valid),
                    Some(0xd1)
                ),
                (3, FlightKind::Send, 1, &[9], None, None),
                (3, FlightKind::Drop, 1, &[], None, None),
                (5, FlightKind::Corrupt, 0, &[], None, None),
                (
                    8,
                    FlightKind::Deliver,
                    0,
                    &[1, 3],
                    Some(Verdict::Valid),
                    None
                ),
            ]
        );
        let refused = project(&recording, |frame| frame == [1, 2]);
        assert_eq!(refused[5].verdict, Some(Verdict::Corrupt));
    }

    #[test]
    fn hex_round_trip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert!(hex_decode("abc").is_err(), "odd length");
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = Digest::new().u64(1).u64(2).finish();
        let b = Digest::new().u64(2).u64(1).finish();
        assert_ne!(a, b);
        assert_eq!(a, Digest::new().u64(1).u64(2).finish());
    }

    #[test]
    fn golden_scenario_excludes_engine_axes() {
        // The serialized form must be identical whatever engine axes the
        // source scenario selects — that is what makes one fixture the
        // oracle for every combination.
        use crate::scenario::{EngineConfig, FramePath, FsmPath};
        let base = Scenario::new(ProtocolSpec::new("go-back-n"), LinkConfig::reliable(2));
        let mut variant = base.clone();
        variant.protocol = variant
            .protocol
            .clone()
            .with_engine(EngineConfig::new(FramePath::Interpreted, FsmPath::Compiled));
        assert_eq!(
            GoldenScenario::from_scenario(&base),
            GoldenScenario::from_scenario(&variant)
        );
    }
}
