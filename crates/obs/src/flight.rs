//! The flight recorder: the simulator's one per-event trace, a stream
//! of tick-stamped structured events, in one of two [`FlightMode`]s.
//!
//! * A **ring** answers "what was the engine doing just now" without
//!   unbounded memory: allocated once at install time, it overwrites
//!   the oldest entry past capacity, counting what it evicted. Events
//!   are [`Copy`] with no heap data, so recording is a couple of stores
//!   and a ring keeps the `alloc_zero` invariant.
//! * A **transcript** evicts nothing, keeps the wire bytes of every
//!   `Send` and `Deliver` (each event's `detail` is their length), and
//!   takes one [`FlightKind::Digest`] per delivery an endpoint handled.
//!   A golden transcript (`netdsl_netsim::golden`) is its projection.
//!
//! With no recorder installed the hot path pays one branch on an
//! `Option`. A finished recorder converts into a [`FlightRecording`] —
//! the serializable dump (`netdsl-flight/1`) `tools/obs_report` renders.

use std::fmt;

use serde::json::Value;

use crate::config::FlightMode;

/// Schema identifier embedded in every serialized recording.
pub const FLIGHT_SCHEMA: &str = "netdsl-flight/1";

/// What one flight-recorder entry describes.
///
/// The frame kinds (`Send`/`Deliver`/`Drop`/`Corrupt`) are the events a
/// golden transcript keeps, in recording order.
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
    /// The endpoint that has just handled the latest `Deliver` digested
    /// its observable state (`subject` = node, `detail` = FNV digest).
    /// Transcripts only.
    Digest,
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
            FlightKind::Digest => "digest",
        }
    }

    /// Every kind, in serialization order (for report tables).
    pub const ALL: [FlightKind; 12] = [
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
        FlightKind::Digest,
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

/// The recorder itself. A ring is created at an explicit capacity (the
/// whole allocation happens here) and overwrites past it; a transcript
/// grows and keeps wire bytes.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cap: usize,
    ring: Vec<FlightEvent>,
    /// Oldest entry once the ring has wrapped.
    head: usize,
    recorded: u64,
    /// A transcript's wire bytes of every `Send` and `Deliver`, in
    /// recording order; `None` for a ring.
    wire: Option<Vec<u8>>,
}

impl FlightRecorder {
    /// A ring holding at most `capacity` events (0 keeps only the
    /// recorded count — every event is evicted immediately).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            cap: capacity,
            ring: Vec::with_capacity(capacity),
            head: 0,
            recorded: 0,
            wire: None,
        }
    }

    /// The recorder `mode` asks for. A ring reuses `spare`'s
    /// allocation when there is one.
    #[must_use]
    pub fn for_mode(mode: FlightMode, spare: Option<Box<Self>>) -> Box<Self> {
        let mut recorder = spare.unwrap_or_else(|| Box::new(FlightRecorder::new(0)));
        match mode {
            FlightMode::Ring(capacity) => recorder.reset(capacity as usize),
            FlightMode::Transcript => {
                recorder.reset(0);
                recorder.cap = usize::MAX;
                recorder.wire = Some(Vec::new());
            }
        }
        recorder
    }

    /// Empties the recorder for reuse as a ring of `capacity`, keeping
    /// its allocation: afterwards it behaves as
    /// `FlightRecorder::new(capacity)`.
    pub fn reset(&mut self, capacity: usize) {
        self.ring.clear();
        self.ring.reserve(capacity);
        self.cap = capacity;
        self.head = 0;
        self.recorded = 0;
        self.wire = None;
    }

    /// `true` for a transcript recorder.
    pub fn is_transcript(&self) -> bool {
        self.wire.is_some()
    }

    /// Events the recorder's allocation holds: a ring's capacity, or as
    /// many as a transcript grew to (what a pool of spares bounds).
    pub fn allocated(&self) -> usize {
        self.ring.capacity()
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

    /// Records a `Send` or `Deliver` of `wire` (its length is the
    /// event's `detail`); a transcript also keeps the bytes.
    pub fn record_frame(&mut self, event: FlightEvent, wire: &[u8]) {
        if let Some(kept) = &mut self.wire {
            kept.extend_from_slice(wire);
        }
        self.record(event);
    }

    /// Converts into the serializable dump: the retained events oldest
    /// first. A transcript's capacity is the number of events it
    /// recorded, all of them retained.
    #[must_use]
    pub fn into_recording(mut self) -> FlightRecording {
        self.ring.rotate_left(self.head);
        let held = self.ring.len() as u64;
        FlightRecording {
            capacity: self
                .wire
                .as_ref()
                .map_or(self.cap as u64, |_| self.recorded),
            recorded: self.recorded,
            dropped: self.recorded - held,
            events: self.ring,
            wire: self.wire.unwrap_or_default(),
        }
    }
}

/// A finished recording: ring bookkeeping plus the retained events in
/// order. Serializes to the `netdsl-flight/1` JSON form rendered by
/// `tools/obs_report`; the form carries the events only, so a
/// transcript's wire bytes reach disk through its golden projection.
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
    /// A transcript's wire bytes: those of every `Send` and `Deliver`,
    /// in event order, each as long as its event's `detail`. Empty for a
    /// ring.
    pub wire: Vec<u8>,
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
    /// mismatch, the event-order violation, or the ring counter that
    /// contradicts the events: a recorder retains
    /// `min(recorded, capacity)` events and drops the rest.
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
        let (capacity, recorded, dropped) =
            (field("capacity")?, field("recorded")?, field("dropped")?);
        let held = events.len() as u64;
        if held != recorded.min(capacity) {
            return Err(format!(
                "{held} events contradict \"recorded\" {recorded} and \"capacity\" {capacity}: \
                 a recorder retains the smaller of the two"
            ));
        }
        if dropped != recorded - held {
            return Err(format!(
                "\"dropped\" {dropped} contradicts \"recorded\" {recorded} less {held} retained events"
            ));
        }
        Ok(FlightRecording {
            capacity,
            recorded,
            dropped,
            events,
            wire: Vec::new(),
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
        let rec = r.into_recording();
        assert_eq!((rec.events.len(), rec.recorded, rec.dropped), (3, 5, 2));
        let ats: Vec<u64> = rec.events.iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![2, 3, 4], "oldest first, newest retained");
    }

    #[test]
    fn reset_behaves_like_a_new_recorder() {
        let mut r = FlightRecorder::new(3);
        for at in 0..5 {
            r.record(ev(at, FlightKind::Send));
        }
        r.reset(2);
        let empty = r.clone().into_recording();
        assert!(empty.events.is_empty());
        assert_eq!((empty.capacity, empty.recorded), (2, 0));
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
    fn a_transcript_keeps_every_event_and_the_frames_wire_bytes() {
        let mut t = FlightRecorder::for_mode(FlightMode::Transcript, None);
        let mut ring = FlightRecorder::for_mode(FlightMode::Ring(2), Some(t.clone()));
        assert!(t.is_transcript() && !ring.is_transcript());
        for (at, wire) in [(0, &[1u8, 2][..]), (1, &[3][..]), (2, &[4, 5, 6][..])] {
            let send = FlightEvent {
                detail: wire.len() as u64,
                ..ev(at, FlightKind::Send)
            };
            t.record_frame(send, wire);
            ring.record_frame(send, wire);
        }
        let rec = t.into_recording();
        assert_eq!((rec.capacity, rec.recorded, rec.dropped), (3, 3, 0));
        assert_eq!(rec.wire, [1, 2, 3, 4, 5, 6]);
        let back = FlightRecording::from_json_str(&rec.to_json_string()).unwrap();
        assert_eq!(back.events, rec.events, "the dump keeps the events");
        let rec = ring.into_recording();
        assert_eq!((rec.capacity, rec.dropped), (2, 1));
        assert!(rec.wire.is_empty(), "a ring keeps no bytes");
    }

    #[test]
    fn zero_capacity_only_counts() {
        let mut r = FlightRecorder::new(0);
        r.record(ev(1, FlightKind::Drop));
        r.record(ev(2, FlightKind::Drop));
        let rec = r.into_recording();
        assert!(rec.events.is_empty());
        assert_eq!((rec.recorded, rec.dropped), (2, 2));
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
            wire: Vec::new(),
        };
        assert!(FlightRecording::from_json_str(&out_of_order.to_json_string()).is_err());
    }

    #[test]
    fn counters_that_contradict_the_events_are_rejected() {
        let mut r = FlightRecorder::new(2);
        for at in 0..3 {
            r.record(ev(at, FlightKind::Send));
        }
        let good = r.into_recording();
        assert!(FlightRecording::from_json_str(&good.to_json_string()).is_ok());
        let over_capacity = FlightRecording {
            capacity: 1,
            ..good.clone()
        };
        let err = FlightRecording::from_json_str(&over_capacity.to_json_string()).unwrap_err();
        assert!(err.contains("\"capacity\""), "{err}");
        let miscounted = FlightRecording { dropped: 0, ..good };
        let err = FlightRecording::from_json_str(&miscounted.to_json_string()).unwrap_err();
        assert!(err.contains("\"dropped\""), "{err}");
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
