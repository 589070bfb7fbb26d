//! # netdsl-netsim — deterministic discrete-event network simulator
//!
//! The paper has no testbed (it is a position paper); per the reproduction
//! plan (DESIGN.md §3, substitutions) protocols are exercised over a
//! simulated network instead. The simulator is:
//!
//! * **deterministic** — all randomness comes from a seeded ChaCha stream,
//!   event ties break on insertion order, so every run is replayable;
//! * **impairment-complete** — links model loss, corruption (bit flips),
//!   duplication, reordering (delay jitter) and propagation delay;
//! * **protocol-agnostic** — endpoints exchange raw byte frames and timer
//!   events through a mailbox interface, so the DSL runtime, the baseline
//!   sockets-style code, and the adaptation layers all run on it unchanged;
//! * **allocation-free in steady state** — frame payloads live in a
//!   refcounted [`arena`], events schedule on a hierarchical
//!   timer wheel, and both structures recycle across simulator lifetimes
//!   (see `docs/SIMCORE.md`).
//!
//! On top of the engine sit the declarative experiment layers: a
//! [`scenario`] describes one run (protocol × topology × link × traffic ×
//! faults × seed) as plain data executed by a pluggable
//! [`ScenarioDriver`], and a [`campaign`] expands labelled sweeps into
//! scenario grids and runs them across threads with deterministic
//! per-scenario seeding. See `docs/SCENARIOS.md` for the tutorial.
//!
//! # Examples
//!
//! ```
//! use netdsl_netsim::{Simulator, LinkConfig, Event};
//!
//! let mut sim = Simulator::new(1); // seed
//! let a = sim.add_node();
//! let b = sim.add_node();
//! let ab = sim.add_link(a, b, LinkConfig::reliable(5)); // 5-tick delay
//!
//! sim.send(ab, b"ping".to_vec());
//! match sim.step() {
//!     Some(Event::Frame { node, payload, .. }) => {
//!         assert_eq!(node, b);
//!         assert_eq!(payload, b"ping");
//!         assert_eq!(sim.now(), 5);
//!     }
//!     other => panic!("expected frame, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod campaign;
pub mod golden;
pub mod invariants;
pub mod link;
pub mod scenario;
pub mod sim;
pub mod stats;
pub mod topology;
mod wheel;

pub use arena::{ArenaStats, PayloadArena, PayloadRef};
pub use campaign::{
    BatchDriver, Campaign, CampaignReport, Cell, StreamAggregate, StreamOptions, Sweep,
};
pub use golden::{GoldenEvent, GoldenResult, GoldenScenario, GoldenTrace, Verdict};
pub use invariants::{check_result, InvariantReport};
pub use link::LinkConfig;
pub use netdsl_obs::{
    FlightKind, FlightMode, FlightRecording, LogProgress, ObsConfig, ProgressSink, ProgressUpdate,
};
pub use scenario::{
    apply_fault, EngineConfig, EngineConfigError, Fault, FaultAction, FaultKind, FaultNode,
    FaultPlan, FaultWorld, Messages, PlannedFault, ProtocolSpec, RetransmitPolicy, Scenario,
    ScenarioDriver, ScenarioResult, TopologySpec, TrafficPattern,
};
pub use sim::{Event, EventRef, LinkId, NodeId, Simulator, TimerToken};
pub use stats::{Aggregate, LinkStats};
pub use topology::Topology;

/// Virtual time, in abstract ticks.
pub type Tick = u64;
