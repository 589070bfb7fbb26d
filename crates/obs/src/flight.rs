//! The flight recorder: a bounded, preallocated ring of tick-stamped
//! structured events.
//!
//! A [`FlightRecorder`] answers "what was the engine doing just now"
//! without unbounded memory: the ring is allocated once at install time
//! and recording overwrites the oldest entry past capacity, counting
//! what it evicted. It is the simulator's only per-event trace: frame
//! totals live in the link counters and the `sim.*` metrics. Events are
//! [`Copy`] and carry no heap data — recording a [`FlightEvent`] is a
//! couple of stores, so a recorder on the simulator hot path does not
//! disturb the `alloc_zero` invariant; with no recorder installed the
//! hot path pays one branch on an `Option`.
//!
//! A finished ring converts into a [`FlightRecording`] — the
//! serializable dump (`netdsl-flight/1`) that `tools/obs_report`
//! renders and the flight-parity suite replays against the golden
//! corpus.

use std::fmt;

use serde::json::Value;

/// Schema identifier embedded in every serialized recording.
pub const FLIGHT_SCHEMA: &str = "netdsl-flight/1";

/// What one flight-recorder entry describes.
///
/// The frame kinds (`Send`/`Deliver`/`Drop`/`Corrupt`) are recorded at
/// the exact hook points golden capture uses, so their subsequence
/// matches a fixture's golden event sequence one-for-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlightKind {
    /// A frame was handed to a link (`subject` = link, `detail` =
    /// payload bytes).
    Send,
    /// A frame copy reached the receiving endpoint (`subject` = link,
    /// `detail` = payload bytes).
    Deliver,
    /// The loss process dropped a frame (`subject` = link).
    Drop,
    /// The corruption process flipped a bit in a delivered copy
    /// (`subject` = link).
    Corrupt,
    /// A timer was armed (`subject` = node, `detail` = token).
    TimerSet,
    /// A timer fired (`subject` = node, `detail` = token).
    TimerFire,
    /// Pending timers with a token were cancelled (`subject` = node,
    /// `detail` = token).
    TimerCancel,
    /// An ARQ sender's retransmission timer expired (`subject` = node,
    /// `detail` = attempt token).
    ArqTimeout,
    /// An ARQ sender retransmitted (`subject` = node, `detail` =
    /// retransmission count so far).
    Retransmit,
    /// A received frame failed codec validation (`subject` = node).
    CodecReject,
    /// A scheduled fault was applied to the world (`subject` = node or
    /// link index, `detail` = fault-action discriminant: 1 link
    /// reconfiguration, 2 crash, 3 restart, 4 clock skew).
    Fault,
}

impl FlightKind {
    /// Canonical serialized label.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::Send => "send",
            FlightKind::Deliver => "deliver",
            FlightKind::Drop => "drop",
            FlightKind::Corrupt => "corrupt",
            FlightKind::TimerSet => "timer_set",
            FlightKind::TimerFire => "timer_fire",
            FlightKind::TimerCancel => "timer_cancel",
            FlightKind::ArqTimeout => "arq_timeout",
            FlightKind::Retransmit => "retransmit",
            FlightKind::CodecReject => "codec_reject",
            FlightKind::Fault => "fault",
        }
    }

    /// Every kind, in serialization order (for report tables).
    pub const ALL: [FlightKind; 11] = [
        FlightKind::Send,
        FlightKind::Deliver,
        FlightKind::Drop,
        FlightKind::Corrupt,
        FlightKind::TimerSet,
        FlightKind::TimerFire,
        FlightKind::TimerCancel,
        FlightKind::ArqTimeout,
        FlightKind::Retransmit,
        FlightKind::CodecReject,
        FlightKind::Fault,
    ];

    fn from_str(s: &str) -> Option<Self> {
        FlightKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

impl fmt::Display for FlightKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded event: a virtual-time stamp, a kind, and two
/// kind-specific integers (see [`FlightKind`] for what `subject` and
/// `detail` mean per kind). Deliberately [`Copy`] with no heap data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Virtual time of the event.
    pub at: u64,
    /// What happened.
    pub kind: FlightKind,
    /// Kind-specific: the link or node involved.
    pub subject: u64,
    /// Kind-specific: payload bytes, timer token, or counts.
    pub detail: u64,
}

impl FlightEvent {
    fn to_json(self) -> Value {
        Value::object()
            .set("at", self.at as f64)
            .set("kind", self.kind.as_str())
            .set("subject", self.subject as f64)
            .set("detail", self.detail as f64)
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .and_then(FlightKind::from_str)
            .ok_or("missing or unknown event kind")?;
        let field = |name: &str| {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or mistyped event field {name:?}"))
        };
        Ok(FlightEvent {
            at: field("at")?,
            kind,
            subject: field("subject")?,
            detail: field("detail")?,
        })
    }
}

/// The bounded ring itself. Created at an explicit capacity (the whole
/// allocation happens here), recording is overwrite-past-capacity.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cap: usize,
    ring: Vec<FlightEvent>,
    /// Oldest entry once the ring has wrapped.
    head: usize,
    recorded: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (0 keeps only the
    /// recorded count — every event is evicted immediately).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            cap: capacity,
            ring: Vec::with_capacity(capacity),
            head: 0,
            recorded: 0,
        }
    }

    /// Empties the recorder for reuse at `capacity`, keeping the ring's
    /// allocation: afterwards it behaves as `FlightRecorder::new(capacity)`.
    pub fn reset(&mut self, capacity: usize) {
        self.ring.clear();
        self.ring.reserve(capacity);
        self.cap = capacity;
        self.head = 0;
        self.recorded = 0;
    }

    /// Records one event, evicting the oldest past capacity.
    pub fn record(&mut self, event: FlightEvent) {
        self.recorded += 1;
        if self.ring.len() < self.cap {
            self.ring.push(event);
        } else if self.cap > 0 {
            self.ring[self.head] = event;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` if nothing was ever recorded or everything was evicted.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever recorded (retained + evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted past capacity.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.ring.len() as u64
    }

    /// The retained events in recording order (oldest first).
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }

    /// Converts into the serializable dump.
    #[must_use]
    pub fn into_recording(self) -> FlightRecording {
        FlightRecording {
            capacity: self.cap as u64,
            recorded: self.recorded,
            dropped: self.dropped(),
            events: self.events(),
        }
    }
}

/// A finished recording: ring bookkeeping plus the retained events in
/// order. Serializes to the `netdsl-flight/1` JSON form rendered by
/// `tools/obs_report`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecording {
    /// Ring capacity the recorder ran with.
    pub capacity: u64,
    /// Total events recorded (retained + evicted).
    pub recorded: u64,
    /// Events evicted past capacity.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<FlightEvent>,
}

impl FlightRecording {
    /// How many retained events carry each kind, in [`FlightKind::ALL`]
    /// order (zero-count kinds included).
    pub fn kind_counts(&self) -> Vec<(FlightKind, u64)> {
        FlightKind::ALL
            .into_iter()
            .map(|k| (k, self.events.iter().filter(|e| e.kind == k).count() as u64))
            .collect()
    }

    /// Serializes to the canonical JSON tree.
    pub fn to_json(&self) -> Value {
        Value::object()
            .set("schema", FLIGHT_SCHEMA)
            .set("capacity", self.capacity as f64)
            .set("recorded", self.recorded as f64)
            .set("dropped", self.dropped as f64)
            .set(
                "events",
                Value::Array(self.events.iter().map(|e| e.to_json()).collect()),
            )
    }

    /// Serializes to canonical JSON text (deterministic member order,
    /// trailing newline).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Parses a canonical JSON tree back into a recording.
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped field, the schema
    /// mismatch, or the event-order violation.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing schema")?;
        if schema != FLIGHT_SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (expected {FLIGHT_SCHEMA:?})"
            ));
        }
        let field = |name: &str| {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or mistyped field {name:?}"))
        };
        let events = v
            .get("events")
            .and_then(Value::as_array)
            .ok_or("missing events")?
            .iter()
            .map(FlightEvent::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        for pair in events.windows(2) {
            if pair[1].at < pair[0].at {
                return Err("event times must be nondecreasing".to_string());
            }
        }
        Ok(FlightRecording {
            capacity: field("capacity")?,
            recorded: field("recorded")?,
            dropped: field("dropped")?,
            events,
        })
    }

    /// Parses canonical JSON text.
    ///
    /// # Errors
    ///
    /// As for [`FlightRecording::from_json`], plus JSON syntax errors.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = Value::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
        FlightRecording::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: FlightKind) -> FlightEvent {
        FlightEvent {
            at,
            kind,
            subject: at % 2,
            detail: at * 10,
        }
    }

    #[test]
    fn ring_keeps_the_newest_entries_and_counts_evictions() {
        let mut r = FlightRecorder::new(3);
        for at in 0..5 {
            r.record(ev(at, FlightKind::Send));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 2);
        let ats: Vec<u64> = r.events().iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![2, 3, 4], "oldest first, newest retained");
    }

    #[test]
    fn reset_behaves_like_a_new_recorder() {
        let mut r = FlightRecorder::new(3);
        for at in 0..5 {
            r.record(ev(at, FlightKind::Send));
        }
        r.reset(2);
        assert!(r.is_empty());
        assert_eq!((r.capacity(), r.recorded()), (2, 0));
        for at in 10..13 {
            r.record(ev(at, FlightKind::Deliver));
        }
        let mut fresh = FlightRecorder::new(2);
        for at in 10..13 {
            fresh.record(ev(at, FlightKind::Deliver));
        }
        assert_eq!(r.into_recording(), fresh.into_recording());
    }

    #[test]
    fn zero_capacity_only_counts() {
        let mut r = FlightRecorder::new(0);
        r.record(ev(1, FlightKind::Drop));
        r.record(ev(2, FlightKind::Drop));
        assert!(r.is_empty());
        assert_eq!(r.recorded(), 2);
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn recording_round_trips_through_json() {
        let mut r = FlightRecorder::new(8);
        r.record(ev(0, FlightKind::Send));
        r.record(ev(3, FlightKind::Deliver));
        r.record(ev(3, FlightKind::TimerSet));
        r.record(ev(9, FlightKind::Retransmit));
        let rec = r.into_recording();
        let text = rec.to_json_string();
        let back = FlightRecording::from_json_str(&text).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.to_json_string(), text, "re-serialization is stable");
    }

    #[test]
    fn bad_schema_kind_and_order_are_rejected() {
        let mut r = FlightRecorder::new(4);
        r.record(ev(5, FlightKind::Send));
        r.record(ev(7, FlightKind::Deliver));
        let good = r.into_recording().to_json_string();
        let bad_schema = good.replace(FLIGHT_SCHEMA, "netdsl-flight/999");
        assert!(FlightRecording::from_json_str(&bad_schema).is_err());
        let bad_kind = good.replace("\"deliver\"", "\"teleport\"");
        assert!(FlightRecording::from_json_str(&bad_kind).is_err());
        let out_of_order = FlightRecording {
            capacity: 4,
            recorded: 2,
            dropped: 0,
            events: vec![ev(7, FlightKind::Send), ev(5, FlightKind::Deliver)],
        };
        assert!(FlightRecording::from_json_str(&out_of_order.to_json_string()).is_err());
    }

    #[test]
    fn kind_counts_cover_every_kind() {
        let mut r = FlightRecorder::new(8);
        r.record(ev(0, FlightKind::Send));
        r.record(ev(1, FlightKind::Send));
        r.record(ev(2, FlightKind::CodecReject));
        let counts = r.into_recording().kind_counts();
        assert_eq!(counts.len(), FlightKind::ALL.len());
        assert!(counts.contains(&(FlightKind::Send, 2)));
        assert!(counts.contains(&(FlightKind::CodecReject, 1)));
        assert!(counts.contains(&(FlightKind::Fault, 0)));
    }
}
