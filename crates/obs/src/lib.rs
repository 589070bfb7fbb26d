//! In-engine telemetry for the netdsl workspace.
//!
//! The engines of this workspace (compiled codec, pooled sim core,
//! compiled FSM, batched sessions) report performance through
//! post-hoc `BENCH_*.json` artifacts; this crate makes runs
//! *explainable while they happen* without giving up the zero-alloc
//! invariants those engines are built on. Three pieces
//! (`docs/OBSERVABILITY.md`):
//!
//! * [`metrics`] — a static registry of [`Counter`]s and log-bucketed
//!   [`Histogram`]s with thread-sharded atomic cells. Statics are
//!   `const`-constructed and register themselves lazily on first touch
//!   (the one and only allocation); a counter update after warm-up is
//!   a thread-local lookup plus one relaxed atomic add, so the
//!   `alloc_zero` invariant holds with metrics enabled. A hot path
//!   counts into plain fields and a [`Tally`] instead, and adds them to
//!   the registry once (the simulator does so when it drops). A
//!   [`MetricsSnapshot`] merges every shard deterministically (sorted
//!   by metric name, thread-count invariant) and serializes to
//!   canonical JSON via the serde shim.
//! * [`flight`] — the one recorder of tick-stamped [`FlightEvent`]s
//!   (sends, deliveries, drops, timer traffic, ARQ timeouts/retransmits,
//!   codec rejects, faults): a bounded, preallocated ring whose
//!   recording is allocation-free, or a transcript that keeps every
//!   event and frame byte, from which golden transcripts are projected.
//!   When no recorder is installed the hot path pays a single branch.
//!   Selected per scenario through [`ObsConfig`] on
//!   `netdsl_netsim::scenario::EngineConfig`.
//! * [`progress`] — a [`ProgressSink`] fed by streaming campaigns
//!   (chunks done, cells/s, reservoir occupancy, per-worker session
//!   counts), with [`LogProgress`] as the ready-made one-line stderr
//!   reporter for long smokes.
//!
//! ```
//! use netdsl_obs::{Counter, set_metrics_enabled, snapshot};
//!
//! static DEMO_EVENTS: Counter = Counter::new("demo.events");
//! set_metrics_enabled(true);
//! DEMO_EVENTS.add(3);
//! let snap = snapshot();
//! assert_eq!(snap.counter("demo.events"), Some(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod flight;
pub mod metrics;
pub mod progress;

pub use config::{FlightMode, ObsConfig, DEFAULT_FLIGHT_CAPACITY};
pub use flight::{FlightEvent, FlightKind, FlightRecorder, FlightRecording, FLIGHT_SCHEMA};
pub use metrics::{
    metrics_enabled, reset_all, set_metrics_enabled, snapshot, Counter, Histogram,
    HistogramSnapshot, MetricsSnapshot, Tally, METRICS_SCHEMA,
};
pub use progress::{LogProgress, NullProgress, ProgressSink, ProgressUpdate};
