//! Declarative scenario descriptions and the driver plug-in interface.
//!
//! A [`Scenario`] bundles everything one simulated experiment needs —
//! which protocol to run ([`ProtocolSpec`]), the shape of the network
//! ([`TopologySpec`]), the link impairments ([`LinkConfig`]), the offered
//! workload ([`TrafficPattern`]), any mid-run [`Fault`]s, and the RNG
//! seed — as plain data. Execution is delegated to a [`ScenarioDriver`]:
//! this crate knows nothing about concrete protocols, so drivers live in
//! downstream crates (`netdsl-protocols` ships `SuiteDriver` for the
//! pairwise ARQ family; `netdsl-bench` adds the trust-relay driver).
//!
//! Scenarios are usually not written by hand but expanded from a
//! [`Campaign`](crate::campaign::Campaign) sweep; see the
//! [`campaign`](crate::campaign) module.

use std::fmt;

use netdsl_obs::ObsConfig;

use crate::link::LinkConfig;
use crate::sim::{LinkId, NodeId, Simulator};
use crate::stats::LinkStats;
use crate::Tick;

/// How a driver should encode and decode wire frames.
///
/// Plain data at this layer: the scenario layer knows nothing about
/// codecs, it only carries the selection. Drivers that own a compiled
/// fast path (`netdsl-protocols`' `SuiteDriver`, backed by
/// `netdsl-codec`) dispatch on it; the two paths are behaviourally
/// equivalent (pinned by differential tests), so campaigns can put the
/// frame path on an axis and measure pure codec cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FramePath {
    /// The tree-walking `PacketSpec::encode`/`decode` interpreter: the
    /// spec's reference semantics, which the compiled codec is tested
    /// against.
    Interpreted,
    /// The compiled flat-IR codec engine (zero-copy decode): the
    /// production path.
    #[default]
    Compiled,
}

impl FramePath {
    /// Canonical axis label (`"interpreted"` / `"compiled"`).
    pub fn as_str(self) -> &'static str {
        match self {
            FramePath::Interpreted => "interpreted",
            FramePath::Compiled => "compiled",
        }
    }
}

/// How a driver should run its protocol control state machine.
///
/// The FSM twin of [`FramePath`]: plain data carrying a selection that
/// FSM-aware drivers (`netdsl-protocols`' stop-and-wait arm) dispatch
/// on. [`FsmPath::Typestate`] runs the statically-checked typestate
/// machine; [`FsmPath::Compiled`] drives the same control logic from the
/// lowered transition-table engine (`netdsl-core::fsm_compiled`) over
/// the reified paper spec. The two are behaviourally equivalent (pinned
/// by replay tests), so campaigns can put pure control-engine cost on an
/// axis. Drivers without a reified control FSM must refuse
/// [`FsmPath::Compiled`] loudly rather than silently fall back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsmPath {
    /// The compile-time-checked typestate machines.
    #[default]
    Typestate,
    /// The compiled transition-table stepper over the reified spec.
    Compiled,
}

impl FsmPath {
    /// Canonical axis label (`"typestate"` / `"compiled"`).
    pub fn as_str(self) -> &'static str {
        match self {
            FsmPath::Typestate => "typestate",
            FsmPath::Compiled => "compiled",
        }
    }
}

/// One value naming the complete engine configuration: which frame
/// codec path and control-FSM engine a driver should run.
///
/// A single value keeps the configuration coherent — a sweep cell, a
/// golden replay and a bench harness all pass the same thing — and
/// gives unsupported combinations one loud refusal path
/// ([`EngineConfigError`]) instead of scattered ones. All engine
/// configurations of a given scenario are **behaviourally identical**
/// (bit-identical transcripts, pinned by `tests/golden_parity.rs`);
/// they differ only in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineConfig {
    /// Which frame codec path endpoints should use.
    pub frame_path: FramePath,
    /// Which control-FSM engine endpoints should use.
    pub fsm_path: FsmPath,
    /// What the engine should observe while running ([`ObsConfig`]):
    /// metrics, and no flight recorder, a ring or a transcript. Unlike
    /// the two engine axes this is **not** a parity axis — it must never
    /// change a run's result, and a ring records what a transcript does
    /// less its digests (pinned by `tests/flight_parity.rs`, overhead
    /// measured by bench E16) — so [`EngineConfig::label`] and golden
    /// fixtures ignore it.
    pub obs: ObsConfig,
}

impl EngineConfig {
    /// An explicit configuration (the `Default` impl is the compiled /
    /// typestate engine with observability off).
    pub fn new(frame_path: FramePath, fsm_path: FsmPath) -> Self {
        EngineConfig {
            frame_path,
            fsm_path,
            obs: ObsConfig::default(),
        }
    }

    /// Selects the observability configuration (builder style).
    #[must_use]
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// The full engine product: every `FramePath` × `FsmPath`
    /// combination (4 total), in a fixed order that starts at the
    /// default (frame-path-major, then FSM path). This is the canonical
    /// enumeration sweeps and the golden-parity suite iterate instead
    /// of hand-rolling the cartesian product.
    pub fn all() -> Vec<EngineConfig> {
        let mut combos = Vec::with_capacity(4);
        for frame_path in [FramePath::Compiled, FramePath::Interpreted] {
            for fsm_path in [FsmPath::Typestate, FsmPath::Compiled] {
                combos.push(EngineConfig::new(frame_path, fsm_path));
            }
        }
        combos
    }

    /// Canonical axis label, axes joined by `/` (e.g.
    /// `"compiled/typestate"`).
    pub fn label(&self) -> String {
        format!("{}/{}", self.frame_path.as_str(), self.fsm_path.as_str())
    }
}

/// The one loud refusal for engine configurations a driver cannot
/// honour (e.g. [`FsmPath::Compiled`] for a protocol without a reified
/// control FSM). Drivers construct this from their single validation
/// point instead of formatting ad-hoc refusal strings at every call
/// site; it converts into [`ScenarioError::Unsupported`] so existing
/// error plumbing is untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfigError {
    /// The protocol that refused the configuration.
    pub protocol: String,
    /// The configuration that was refused.
    pub config: EngineConfig,
    /// Why the driver cannot honour it.
    pub reason: String,
}

impl fmt::Display for EngineConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "protocol {:?} cannot run engine config [{}]: {}",
            self.protocol,
            self.config.label(),
            self.reason
        )
    }
}

impl std::error::Error for EngineConfigError {}

impl From<EngineConfigError> for ScenarioError {
    fn from(e: EngineConfigError) -> Self {
        ScenarioError::Unsupported(e.to_string())
    }
}

/// How an ARQ sender schedules retransmissions.
///
/// This is a **protocol tuning knob** on [`ProtocolSpec`], deliberately
/// *not* an [`EngineConfig`] axis: engine axes are behaviour-preserving
/// (every combination replays the same transcript), whereas the
/// retransmit policy genuinely changes timer behaviour. The default
/// [`RetransmitPolicy::Fixed`] is bit-identical to the pre-policy
/// engine, which is what keeps the committed golden fixtures valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetransmitPolicy {
    /// Every retransmission timer is armed with the constant
    /// [`ProtocolSpec::timeout`] — the original behaviour.
    #[default]
    Fixed,
    /// Jacobson SRTT/RTTVAR estimation with Karn's rule and capped
    /// exponential backoff (implemented once in `netdsl-adapt`'s
    /// `timers` module). The initial RTO is [`ProtocolSpec::timeout`];
    /// subsequent RTOs are clamped to `[min_rto, max_rto]`.
    /// Deterministic — driven entirely by virtual time.
    AdaptiveRto {
        /// Lower clamp for the computed RTO, in ticks.
        min_rto: Tick,
        /// Upper clamp (backoff cap), in ticks.
        max_rto: Tick,
    },
}

impl RetransmitPolicy {
    /// Canonical axis label (`"fixed"` / `"adaptive-rto"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            RetransmitPolicy::Fixed => "fixed",
            RetransmitPolicy::AdaptiveRto { .. } => "adaptive-rto",
        }
    }
}

/// Which protocol a driver should run, plus its tuning knobs.
///
/// The `name` is a driver-defined key (e.g. `netdsl-protocols`'
/// `SuiteDriver` understands `"stop-and-wait"`, `"go-back-n"`,
/// `"selective-repeat"` and `"baseline"`); unknown names surface as
/// [`ScenarioError::UnknownProtocol`] so that typos fail loudly instead
/// of silently skipping a sweep cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolSpec {
    /// Driver-defined protocol key.
    pub name: String,
    /// Sliding-window size (1 = stop-and-wait for windowed drivers).
    pub window: u32,
    /// Retransmission timeout in ticks (initial RTO for adaptive timers).
    pub timeout: Tick,
    /// Retry budget per message before the sender gives up.
    pub max_retries: u32,
    /// Which frame codec path endpoints should use.
    pub frame_path: FramePath,
    /// Which control-FSM engine endpoints should use (see [`FsmPath`]).
    pub fsm_path: FsmPath,
    /// What the driver's simulator should observe while running. Not a
    /// parity axis (see [`EngineConfig::obs`]): drivers install it with
    /// `Simulator::set_obs`, and it never changes the transcript.
    pub obs: ObsConfig,
    /// How ARQ senders schedule retransmissions (fixed timeout vs
    /// adaptive RTO — see [`RetransmitPolicy`]).
    pub retransmit: RetransmitPolicy,
}

impl ProtocolSpec {
    /// A spec for `name` with default tuning (window 1, timeout 150,
    /// 200 retries, compiled frame path, typestate FSM, observability
    /// off).
    pub fn new(name: impl Into<String>) -> Self {
        ProtocolSpec {
            name: name.into(),
            window: 1,
            timeout: 150,
            max_retries: 200,
            frame_path: FramePath::default(),
            fsm_path: FsmPath::default(),
            obs: ObsConfig::default(),
            retransmit: RetransmitPolicy::default(),
        }
    }

    /// Selects the complete engine configuration in one step (builder
    /// style) — the canonical way to pick the frame codec path and
    /// control-FSM engine together.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.frame_path = engine.frame_path;
        self.fsm_path = engine.fsm_path;
        self.obs = engine.obs;
        self
    }

    /// The engine configuration this spec currently carries.
    pub fn engine(&self) -> EngineConfig {
        EngineConfig {
            frame_path: self.frame_path,
            fsm_path: self.fsm_path,
            obs: self.obs,
        }
    }

    /// Selects the observability configuration (builder style).
    #[must_use]
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the window size (builder style).
    #[must_use]
    pub fn with_window(mut self, window: u32) -> Self {
        self.window = window;
        self
    }

    /// Sets the retransmission timeout (builder style).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Tick) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the per-message retry budget (builder style).
    #[must_use]
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Selects the retransmission policy (builder style).
    #[must_use]
    pub fn with_retransmit(mut self, retransmit: RetransmitPolicy) -> Self {
        self.retransmit = retransmit;
        self
    }
}

/// The shape of the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// Two endpoints joined by one duplex link (the pairwise-protocol
    /// harness shape).
    Duplex,
    /// A line `a—b—…` of `nodes` nodes.
    Line {
        /// Total node count (≥ 2).
        nodes: usize,
    },
    /// `paths` disjoint relay paths of `hops` relays each between a
    /// source and a destination, with the first `compromised` paths
    /// hostile (their relays drop most traffic) — the E9 environment.
    ParallelPaths {
        /// Number of disjoint relay paths.
        paths: usize,
        /// Relays per path.
        hops: usize,
        /// How many paths (taken from index 0 upward) are compromised.
        compromised: usize,
    },
}

/// Deterministic offered load: `count` messages of `size` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficPattern {
    /// Number of application messages to transfer.
    pub count: usize,
    /// Size of each message in bytes.
    pub size: usize,
}

impl TrafficPattern {
    /// `count` messages of `size` bytes each.
    pub fn messages(count: usize, size: usize) -> Self {
        TrafficPattern { count, size }
    }

    /// Total payload bytes offered.
    pub fn payload_bytes(&self) -> u64 {
        (self.count * self.size) as u64
    }

    /// Builds the messages, every one a window of a single table of
    /// `251 + size` bytes, so every run of a pattern sees the same bytes.
    ///
    /// Byte `j` of message `i` is `(131·i + 31·j) mod 251`. The committed
    /// golden fixtures and every recorded benchmark result depend on
    /// these exact bytes. Because 31 · 69 ≡ 131 (mod 251), that is byte
    /// `69·i mod 251 + j` of the table `31·k mod 251`, so message `i` is
    /// the `size`-byte window starting there: one allocation, whatever
    /// the count.
    ///
    /// ```
    /// use netdsl_netsim::scenario::TrafficPattern;
    /// let t = TrafficPattern::messages(3, 8);
    /// assert_eq!(t.generate(), t.generate());
    /// assert_eq!(t.generate().len(), 3);
    /// assert_eq!(t.generate().get(1).len(), 8);
    /// assert_eq!(t.generate().get(1)[2], (131 + 2 * 31) % 251);
    /// ```
    pub fn generate(&self) -> Messages {
        let len = PAYLOAD_PERIOD + self.size;
        let mut table = Vec::with_capacity(len);
        while table.len() < len {
            let take = (len - table.len()).min(PAYLOAD_PERIOD);
            table.extend_from_slice(&PAYLOAD_CYCLE[..take]);
        }
        Messages(Source::Table {
            table,
            count: self.count,
            size: self.size,
        })
    }

    /// Whether `payload` is message `i` of [`generate`](Self::generate)'s
    /// output, compared with one static period, not a built message: a
    /// scenario session's check of every delivery.
    pub fn is_message(&self, i: usize, payload: &[u8]) -> bool {
        let start = window_start(i);
        let period = &PAYLOAD_CYCLE[start..start + PAYLOAD_PERIOD];
        i < self.count
            && payload.len() == self.size
            && payload
                .chunks(PAYLOAD_PERIOD)
                .all(|piece| piece == &period[..piece.len()])
    }
}

/// Period of [`TrafficPattern::generate`]'s content in the byte index.
const PAYLOAD_PERIOD: usize = 251;

/// `31·k mod 251` for `k` in `0..502`: two periods, so any window of
/// [`PAYLOAD_PERIOD`] bytes starting in the first is contiguous.
const PAYLOAD_CYCLE: [u8; 2 * PAYLOAD_PERIOD] = {
    let mut cycle = [0; 2 * PAYLOAD_PERIOD];
    let mut k = 0;
    while k < cycle.len() {
        cycle[k] = (31 * k % PAYLOAD_PERIOD) as u8;
        k += 1;
    }
    cycle
};

/// Where message `i` of a generated pattern starts in its table.
fn window_start(i: usize) -> usize {
    i % PAYLOAD_PERIOD * 69 % PAYLOAD_PERIOD
}

/// The messages a sender offers, lent out one at a time and never
/// copied: [`TrafficPattern::generate`]'s windows of one table, or any
/// other content given as a `Vec<Vec<u8>>`. Equality compares content.
#[derive(Debug, Clone)]
pub struct Messages(Source);

#[derive(Debug, Clone)]
enum Source {
    /// `count` windows of `size` bytes of a generated table.
    Table {
        table: Vec<u8>,
        count: usize,
        size: usize,
    },
    Owned(Vec<Vec<u8>>),
}

impl Messages {
    /// Number of messages.
    pub fn len(&self) -> usize {
        match &self.0 {
            Source::Table { count, .. } => *count,
            Source::Owned(messages) => messages.len(),
        }
    }

    /// `true` if there are no messages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Message `i`; panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> &[u8] {
        match &self.0 {
            Source::Table { table, count, size } => {
                assert!(i < *count, "message {i} of {count}");
                let start = window_start(i);
                &table[start..start + size]
            }
            Source::Owned(messages) => &messages[i],
        }
    }

    /// The messages in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl From<Vec<Vec<u8>>> for Messages {
    fn from(messages: Vec<Vec<u8>>) -> Self {
        Messages(Source::Owned(messages))
    }
}

impl PartialEq for Messages {
    fn eq(&self, other: &Messages) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl PartialEq<[Vec<u8>]> for Messages {
    fn eq(&self, other: &[Vec<u8>]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().map(Vec::as_slice))
    }
}

impl Default for TrafficPattern {
    fn default() -> Self {
        TrafficPattern::messages(32, 32)
    }
}

/// Which direction(s) of the scenario's duplex link a fault hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDirection {
    /// The sender→receiver (data) direction.
    Forward,
    /// The receiver→sender (ack) direction.
    Reverse,
    /// Both directions.
    Both,
}

/// Which endpoint of a duplex scenario a node-level fault hits.
///
/// Scenarios are protocol-agnostic data, so node faults name the
/// endpoint *role* (`A` is the sender side, `B` the receiver side);
/// drivers resolve the role to a concrete
/// [`NodeId`] through [`FaultWorld`].
///
/// [`NodeId`]: crate::sim::NodeId
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultNode {
    /// The initiating (sender) endpoint.
    A,
    /// The responding (receiver) endpoint.
    B,
}

impl FaultNode {
    /// Canonical label (`"a"` / `"b"`).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultNode::A => "a",
            FaultNode::B => "b",
        }
    }
}

/// What a scheduled [`Fault`] does when it takes effect.
///
/// The compound kinds ([`FaultKind::Flap`], [`FaultKind::Burst`])
/// describe *schedules*; [`FaultPlan::from_scenario`] expands them into
/// primitive [`FaultAction`]s before a driver ever sees them, so every
/// driver applies the exact same action sequence (solo ≡ batched).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Reconfigure the affected direction(s) to `config` — the original
    /// fault primitive (partition, repair, impairment change).
    Link {
        /// Affected direction(s).
        direction: FaultDirection,
        /// The link configuration in force from the fault tick onward.
        config: LinkConfig,
    },
    /// A periodic up/down schedule: `count` cycles, each `down_for`
    /// ticks on the `down` config followed by `up_for` ticks back on
    /// the scenario's base link config.
    Flap {
        /// Affected direction(s).
        direction: FaultDirection,
        /// Link configuration during the down phase of each cycle.
        down: LinkConfig,
        /// Ticks each down phase lasts.
        down_for: Tick,
        /// Ticks each recovered phase lasts before the next cycle.
        up_for: Tick,
        /// Number of down/up cycles.
        count: u32,
    },
    /// A bounded impairment burst: `config` holds for `duration` ticks,
    /// then the direction(s) revert to the scenario's base link config.
    /// Corruption and duplication storms are bursts whose config sets
    /// the corresponding probabilities high.
    Burst {
        /// Affected direction(s).
        direction: FaultDirection,
        /// Link configuration during the burst.
        config: LinkConfig,
        /// Ticks the burst lasts.
        duration: Tick,
    },
    /// The endpoint goes dark: frames already in flight toward it are
    /// dropped on arrival, its pending timers are retracted, and it
    /// processes nothing until a matching [`FaultKind::Restart`].
    Crash {
        /// Which endpoint crashes.
        node: FaultNode,
    },
    /// The endpoint comes back with **total state loss**: the driver
    /// resets the endpoint to its freshly-constructed protocol state
    /// and starts it again (events scheduled before the crash stay
    /// retracted).
    Restart {
        /// Which endpoint restarts.
        node: FaultNode,
    },
    /// From the fault tick on, every timer the endpoint arms runs at
    /// `numer`/`denom` of its nominal duration (applied at timer-set
    /// time, so already-armed timers are unaffected). `5/4` models a
    /// clock running 25 % slow (timeouts stretch), `1/2` one running
    /// fast.
    ClockSkew {
        /// Which endpoint's clock skews.
        node: FaultNode,
        /// Tick-rate multiplier numerator (≥ 1).
        numer: u32,
        /// Tick-rate multiplier denominator (≥ 1).
        denom: u32,
    },
}

/// A scheduled mid-run fault: at tick `at`, `kind` takes effect. The
/// original link-reconfiguration fault survives as [`FaultKind::Link`]
/// (and the [`Fault::both`] / [`Fault::partition`] / [`Fault::repair`]
/// constructors), joined by node crash/restart, link flap schedules,
/// impairment bursts and per-node clock skew. See `docs/FAULTS.md`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Virtual time at which the fault takes effect.
    pub at: Tick,
    /// What happens.
    pub kind: FaultKind,
}

impl Fault {
    /// A link fault hitting `direction` at `at`.
    pub fn link(at: Tick, direction: FaultDirection, config: LinkConfig) -> Self {
        Fault {
            at,
            kind: FaultKind::Link { direction, config },
        }
    }

    /// A link fault hitting both directions at `at`.
    pub fn both(at: Tick, config: LinkConfig) -> Self {
        Fault::link(at, FaultDirection::Both, config)
    }

    /// A total two-way partition starting at `at` (loss 1.0, delay kept
    /// at 1 so stragglers still burn simulated time).
    pub fn partition(at: Tick) -> Self {
        Fault::both(at, LinkConfig::lossy(1, 1.0))
    }

    /// A two-way repair to a clean link at `at`.
    pub fn repair(at: Tick, delay: Tick) -> Self {
        Fault::both(at, LinkConfig::reliable(delay))
    }

    /// A flap schedule starting at `at`: `count` cycles of `down_for`
    /// ticks on `down`, each followed by `up_for` ticks back on the
    /// scenario's base link config.
    pub fn flap(
        at: Tick,
        direction: FaultDirection,
        down: LinkConfig,
        down_for: Tick,
        up_for: Tick,
        count: u32,
    ) -> Self {
        assert!(count > 0, "a flap schedule needs at least one cycle");
        assert!(
            down_for > 0,
            "a flap's down phase must last at least a tick"
        );
        Fault {
            at,
            kind: FaultKind::Flap {
                direction,
                down,
                down_for,
                up_for,
                count,
            },
        }
    }

    /// An impairment burst: `config` holds on `direction` for
    /// `duration` ticks starting at `at`, then reverts to the
    /// scenario's base link config.
    pub fn burst(at: Tick, direction: FaultDirection, config: LinkConfig, duration: Tick) -> Self {
        assert!(duration > 0, "a burst must last at least a tick");
        Fault {
            at,
            kind: FaultKind::Burst {
                direction,
                config,
                duration,
            },
        }
    }

    /// A node crash at `at` (dark until a later [`Fault::restart`]).
    pub fn crash(at: Tick, node: FaultNode) -> Self {
        Fault {
            at,
            kind: FaultKind::Crash { node },
        }
    }

    /// A node restart (with total state loss) at `at`.
    pub fn restart(at: Tick, node: FaultNode) -> Self {
        Fault {
            at,
            kind: FaultKind::Restart { node },
        }
    }

    /// A per-node clock skew from `at` on: timers armed by `node` run
    /// at `numer`/`denom` of their nominal duration.
    pub fn clock_skew(at: Tick, node: FaultNode, numer: u32, denom: u32) -> Self {
        assert!(numer >= 1 && denom >= 1, "skew ratio terms must be ≥ 1");
        Fault {
            at,
            kind: FaultKind::ClockSkew { node, numer, denom },
        }
    }
}

/// A primitive, driver-applicable fault effect — what [`FaultKind`]
/// expands to. One action maps to exactly one simulator mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Reconfigure the affected direction(s).
    Link {
        /// Affected direction(s).
        direction: FaultDirection,
        /// The new configuration.
        config: LinkConfig,
    },
    /// Crash the endpoint.
    Crash(FaultNode),
    /// Restart the endpoint with state loss.
    Restart(FaultNode),
    /// Skew the endpoint's timer clock.
    ClockSkew {
        /// Which endpoint's clock skews.
        node: FaultNode,
        /// Tick-rate multiplier numerator.
        numer: u32,
        /// Tick-rate multiplier denominator.
        denom: u32,
    },
}

/// One expanded fault: a primitive action and the tick it fires at.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedFault {
    /// Virtual time at which the action takes effect.
    pub at: Tick,
    /// The primitive effect.
    pub action: FaultAction,
}

/// The fully-expanded, time-sorted fault schedule of one scenario.
///
/// Compound kinds (flaps, bursts) are unrolled into primitive
/// [`FaultAction`]s here — **once**, from scenario data alone — so
/// solo, batched and recorded runs all iterate the identical action
/// sequence. Expansion is a pure
/// function of the scenario (restores revert to `scenario.link`), and
/// the sort is stable: actions at the same tick apply in scenario
/// declaration order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The primitive actions, sorted by activation time.
    pub actions: Vec<PlannedFault>,
}

impl FaultPlan {
    /// Expands a scenario's fault schedule into the primitive plan.
    pub fn from_scenario(scenario: &Scenario) -> Self {
        let base = &scenario.link;
        let mut actions = Vec::new();
        for fault in &scenario.faults {
            match &fault.kind {
                FaultKind::Link { direction, config } => actions.push(PlannedFault {
                    at: fault.at,
                    action: FaultAction::Link {
                        direction: *direction,
                        config: config.clone(),
                    },
                }),
                FaultKind::Flap {
                    direction,
                    down,
                    down_for,
                    up_for,
                    count,
                } => {
                    for cycle in 0..u64::from(*count) {
                        let start = fault.at + cycle * (down_for + up_for);
                        actions.push(PlannedFault {
                            at: start,
                            action: FaultAction::Link {
                                direction: *direction,
                                config: down.clone(),
                            },
                        });
                        actions.push(PlannedFault {
                            at: start + down_for,
                            action: FaultAction::Link {
                                direction: *direction,
                                config: base.clone(),
                            },
                        });
                    }
                }
                FaultKind::Burst {
                    direction,
                    config,
                    duration,
                } => {
                    actions.push(PlannedFault {
                        at: fault.at,
                        action: FaultAction::Link {
                            direction: *direction,
                            config: config.clone(),
                        },
                    });
                    actions.push(PlannedFault {
                        at: fault.at + duration,
                        action: FaultAction::Link {
                            direction: *direction,
                            config: base.clone(),
                        },
                    });
                }
                FaultKind::Crash { node } => actions.push(PlannedFault {
                    at: fault.at,
                    action: FaultAction::Crash(*node),
                }),
                FaultKind::Restart { node } => actions.push(PlannedFault {
                    at: fault.at,
                    action: FaultAction::Restart(*node),
                }),
                FaultKind::ClockSkew { node, numer, denom } => actions.push(PlannedFault {
                    at: fault.at,
                    action: FaultAction::ClockSkew {
                        node: *node,
                        numer: *numer,
                        denom: *denom,
                    },
                }),
            }
        }
        actions.sort_by_key(|a| a.at);
        FaultPlan { actions }
    }

    /// `true` when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Number of primitive actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// `true` when the world the plan leaves behind can still deliver:
    /// no endpoint is left crashed without a restart, and the final
    /// configuration of each direction has loss below 1.0. This is the
    /// precondition of the liveness invariant — a transfer under a plan
    /// that ends repaired must either complete or fail its retry budget
    /// cleanly (see [`crate::invariants`]).
    pub fn ends_repaired(&self, base: &LinkConfig) -> bool {
        let mut forward = base.clone();
        let mut reverse = base.clone();
        let mut down = [false, false];
        for planned in &self.actions {
            match &planned.action {
                FaultAction::Link { direction, config } => match direction {
                    FaultDirection::Forward => forward = config.clone(),
                    FaultDirection::Reverse => reverse = config.clone(),
                    FaultDirection::Both => {
                        forward = config.clone();
                        reverse = config.clone();
                    }
                },
                FaultAction::Crash(node) => down[(*node == FaultNode::B) as usize] = true,
                FaultAction::Restart(node) => down[(*node == FaultNode::B) as usize] = false,
                FaultAction::ClockSkew { .. } => {}
            }
        }
        !down[0] && !down[1] && forward.loss < 1.0 && reverse.loss < 1.0
    }
}

/// The concrete duplex world a [`FaultPlan`] applies to: the two
/// endpoint nodes and the two directed links between them, as every
/// driver builds them (A's data link `link_ab`, B's ack link
/// `link_ba`). Resolving [`FaultNode`] roles through this struct is
/// what lets the solo and batch drivers share one applier.
#[derive(Debug, Clone, Copy)]
pub struct FaultWorld {
    /// The initiating (sender) endpoint's node.
    pub node_a: NodeId,
    /// The responding (receiver) endpoint's node.
    pub node_b: NodeId,
    /// The A→B (data) link.
    pub link_ab: LinkId,
    /// The B→A (ack) link.
    pub link_ba: LinkId,
}

impl FaultWorld {
    /// Resolves a fault-node role to the concrete node.
    pub fn node(&self, role: FaultNode) -> NodeId {
        match role {
            FaultNode::A => self.node_a,
            FaultNode::B => self.node_b,
        }
    }
}

/// Applies one primitive fault to the simulator — the **single**
/// application path of every driver, which is what pins solo ≡
/// batched fault behaviour. Emits a `fault.injected` count and a
/// [`FlightKind::Fault`](netdsl_obs::FlightKind) event per simulator
/// mutation.
///
/// Returns the endpoint role the caller must reset and re-start when
/// the action was a [`FaultAction::Restart`] (endpoint state loss is
/// the driver's job — the simulator only owns frames and timers).
pub fn apply_fault(
    sim: &mut Simulator,
    world: &FaultWorld,
    fault: &PlannedFault,
) -> Option<FaultNode> {
    match &fault.action {
        FaultAction::Link { direction, config } => {
            if matches!(direction, FaultDirection::Forward | FaultDirection::Both) {
                sim.reconfigure_link(world.link_ab, config.clone());
                sim.note_fault(world.link_ab.index() as u64, 1);
            }
            if matches!(direction, FaultDirection::Reverse | FaultDirection::Both) {
                sim.reconfigure_link(world.link_ba, config.clone());
                sim.note_fault(world.link_ba.index() as u64, 1);
            }
            None
        }
        FaultAction::Crash(role) => {
            let node = world.node(*role);
            sim.crash_node(node);
            sim.note_fault(node.index() as u64, 2);
            None
        }
        FaultAction::Restart(role) => {
            let node = world.node(*role);
            sim.restart_node(node);
            sim.note_fault(node.index() as u64, 3);
            Some(*role)
        }
        FaultAction::ClockSkew { node, numer, denom } => {
            let node = world.node(*node);
            sim.set_clock_skew(node, *numer, *denom);
            sim.note_fault(node.index() as u64, 4);
            None
        }
    }
}

/// Axis labels a scenario inherited from its campaign (empty strings for
/// hand-built scenarios).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScenarioLabels {
    /// Protocol-axis label.
    pub protocol: String,
    /// Link-axis label.
    pub link: String,
    /// Topology-axis label.
    pub topology: String,
    /// Traffic-axis label.
    pub traffic: String,
    /// Seed-axis label.
    pub seed: String,
}

/// One fully-specified experiment, as data.
///
/// Build directly for one-off tests, or let
/// [`Campaign::scenarios`](crate::campaign::Campaign::scenarios) expand
/// a sweep into many.
///
/// ```
/// use netdsl_netsim::scenario::{ProtocolSpec, Scenario};
/// use netdsl_netsim::LinkConfig;
///
/// let s = Scenario::new(
///     ProtocolSpec::new("stop-and-wait"),
///     LinkConfig::lossy(5, 0.2),
/// )
/// .with_seed(42);
/// assert_eq!(s.protocol.name, "stop-and-wait");
/// assert_eq!(s.seed, 42);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable name (campaign expansion joins the axis labels).
    pub name: String,
    /// Protocol to run and its tuning.
    pub protocol: ProtocolSpec,
    /// Link impairment configuration.
    pub link: LinkConfig,
    /// Network shape.
    pub topology: TopologySpec,
    /// Offered workload.
    pub traffic: TrafficPattern,
    /// Scheduled mid-run faults (link reconfigurations, node
    /// crash/restart, flap schedules, clock skew), in any order.
    pub faults: Vec<Fault>,
    /// Simulator seed (fully determines all randomness).
    pub seed: u64,
    /// Virtual-time budget; drivers stop pumping past this tick.
    pub deadline: Tick,
    /// Campaign axis labels (empty for hand-built scenarios).
    pub labels: ScenarioLabels,
}

impl Scenario {
    /// A duplex scenario with default traffic, no faults, seed 0 and a
    /// generous deadline.
    pub fn new(protocol: ProtocolSpec, link: LinkConfig) -> Self {
        Scenario {
            name: protocol.name.clone(),
            protocol,
            link,
            topology: TopologySpec::Duplex,
            traffic: TrafficPattern::default(),
            faults: Vec::new(),
            seed: 0,
            deadline: 500_000_000,
            labels: ScenarioLabels::default(),
        }
    }

    /// Sets the name (builder style).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the topology (builder style).
    #[must_use]
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the traffic pattern (builder style).
    #[must_use]
    pub fn with_traffic(mut self, traffic: TrafficPattern) -> Self {
        self.traffic = traffic;
        self
    }

    /// Adds a scheduled fault (builder style).
    #[must_use]
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Sets the seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the virtual-time budget (builder style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Tick) -> Self {
        self.deadline = deadline;
        self
    }

    /// The faults sorted by activation time (what drivers should apply).
    pub fn sorted_faults(&self) -> Vec<Fault> {
        let mut faults = self.faults.clone();
        faults.sort_by_key(|f| f.at);
        faults
    }
}

/// What one scenario execution produced, in driver-independent terms.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Did the whole workload complete correctly?
    pub success: bool,
    /// Virtual time consumed. The suite drivers report the tick of the
    /// session's last dispatched event (0 if none), never that of a
    /// cancelled timer the simulator skipped after it.
    pub elapsed: Tick,
    /// Messages offered by the traffic pattern.
    pub messages_offered: u64,
    /// Messages delivered to the receiving application.
    pub messages_delivered: u64,
    /// Payload bytes delivered end-to-end.
    pub payload_bytes: u64,
    /// Data frames transmitted (including retransmissions).
    pub frames_sent: u64,
    /// Retransmissions only.
    pub retransmissions: u64,
    /// Combined per-link counters over every link in the scenario
    /// (built with [`LinkStats::merge`]).
    pub link: LinkStats,
}

impl ScenarioResult {
    /// Goodput in payload bytes per 1000 ticks (0 when no time elapsed).
    pub fn goodput(&self) -> f64 {
        if self.elapsed == 0 {
            0.0
        } else {
            self.payload_bytes as f64 * 1000.0 / self.elapsed as f64
        }
    }

    /// Mean ticks per delivered message (0 when nothing was delivered).
    pub fn latency_per_message(&self) -> f64 {
        if self.messages_delivered == 0 {
            0.0
        } else {
            self.elapsed as f64 / self.messages_delivered as f64
        }
    }

    /// Retransmissions per offered message.
    pub fn retransmit_rate(&self) -> f64 {
        if self.messages_offered == 0 {
            0.0
        } else {
            self.retransmissions as f64 / self.messages_offered as f64
        }
    }

    /// Fraction of offered messages delivered.
    pub fn delivery_ratio(&self) -> f64 {
        if self.messages_offered == 0 {
            0.0
        } else {
            self.messages_delivered as f64 / self.messages_offered as f64
        }
    }
}

/// Why a driver could not execute a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// No driver recognises the protocol name.
    UnknownProtocol(String),
    /// The driver recognises the protocol but not the requested topology.
    UnsupportedTopology(String),
    /// The driver recognises the protocol but cannot honour some other
    /// part of the scenario (e.g. a fault schedule it has no hook for).
    /// Failing loudly here is what keeps sweep cells honest — a driver
    /// must never silently ignore an axis.
    Unsupported(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownProtocol(name) => {
                write!(f, "no driver supports protocol {name:?}")
            }
            ScenarioError::UnsupportedTopology(what) => {
                write!(f, "unsupported topology: {what}")
            }
            ScenarioError::Unsupported(what) => {
                write!(f, "driver cannot honour scenario: {what}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Executes scenarios. Implementations must be [`Sync`]: the campaign
/// runner shares one driver across its worker threads, so drivers keep
/// per-run state on the stack (each [`run`](ScenarioDriver::run) builds
/// its own [`Simulator`] from `scenario.seed`).
///
/// [`Simulator`]: crate::sim::Simulator
pub trait ScenarioDriver: Sync {
    /// `true` if this driver can execute scenarios naming `protocol`.
    fn supports(&self, protocol: &str) -> bool;

    /// Executes one scenario to completion.
    fn run(&self, scenario: &Scenario) -> Result<ScenarioResult, ScenarioError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_config_covers_the_full_product_without_duplicates() {
        let all = EngineConfig::all();
        assert_eq!(all.len(), 4, "2 frame paths × 2 FSM paths");
        let mut labels: Vec<String> = all.iter().map(EngineConfig::label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4, "labels are unique");
        assert_eq!(all[0], EngineConfig::default(), "product starts at default");
        assert_eq!(EngineConfig::default().label(), "compiled/typestate");
    }

    #[test]
    fn with_engine_and_single_axis_delegates_agree() {
        let engine = EngineConfig::new(FramePath::Interpreted, FsmPath::Compiled);
        assert_eq!(ProtocolSpec::new("x").with_engine(engine).engine(), engine);
    }

    #[test]
    fn engine_config_error_is_loud_and_converts() {
        let err = EngineConfigError {
            protocol: "go-back-n".into(),
            config: EngineConfig::default(),
            reason: "no compiled control-FSM driver".into(),
        };
        let text = err.to_string();
        assert!(text.contains("go-back-n"), "{text}");
        assert!(text.contains("compiled/typestate"), "{text}");
        assert!(matches!(
            ScenarioError::from(err),
            ScenarioError::Unsupported(_)
        ));
    }

    #[test]
    fn generated_traffic_is_the_per_byte_formula_past_its_period() {
        // Counts and sizes on both sides of the 251-byte period and of
        // its double, which the golden fixtures (6 × 12 B) never reach.
        for count in [0, 1, 250, 251, 252, 503] {
            for size in [0, 1, 250, 251, 252, 502, 503, 1400] {
                let oracle: Vec<Vec<u8>> = (0..count)
                    .map(|i| {
                        (0..size)
                            .map(|j| ((i * 131 + j * 31) % 251) as u8)
                            .collect()
                    })
                    .collect();
                let pattern = TrafficPattern::messages(count, size);
                assert_eq!(
                    pattern.generate(),
                    Messages::from(oracle.clone()),
                    "{count} × {size} B"
                );
                for (i, message) in oracle.iter().enumerate() {
                    assert!(pattern.is_message(i, message), "{count} × {size} B: {i}");
                }
            }
        }
    }

    #[test]
    fn is_message_rejects_any_other_payload() {
        let pattern = TrafficPattern::messages(300, 600);
        let messages = pattern.generate();
        let mut wrong = messages.get(260).to_vec();
        assert!(pattern.is_message(260, &wrong));
        assert!(!pattern.is_message(259, &wrong), "another index");
        assert!(!pattern.is_message(260, &wrong[..599]), "truncated");
        wrong[555] ^= 1;
        assert!(!pattern.is_message(260, &wrong), "one byte past the period");
        assert!(!pattern.is_message(300, messages.get(49)), "past the count");
        assert_eq!(messages, messages.clone());
        assert_ne!(messages, TrafficPattern::messages(300, 599).generate());
    }

    #[test]
    fn sorted_faults_orders_by_activation_time() {
        let s = Scenario::new(ProtocolSpec::new("x"), LinkConfig::default())
            .with_fault(Fault::repair(100, 1))
            .with_fault(Fault::partition(10));
        let sorted = s.sorted_faults();
        assert_eq!(sorted[0].at, 10);
        assert_eq!(sorted[1].at, 100);
    }

    #[test]
    fn flap_and_burst_expand_to_sorted_primitive_links() {
        let base = LinkConfig::reliable(3);
        let s = Scenario::new(ProtocolSpec::new("x"), base.clone())
            .with_fault(Fault::flap(
                100,
                FaultDirection::Forward,
                LinkConfig::lossy(1, 1.0),
                50,
                150,
                2,
            ))
            .with_fault(Fault::burst(
                120,
                FaultDirection::Both,
                LinkConfig::reliable(3).with_corrupt(0.9),
                30,
            ));
        let plan = FaultPlan::from_scenario(&s);
        let ticks: Vec<Tick> = plan.actions.iter().map(|a| a.at).collect();
        // Flap: down 100, up 150, down 300, up 350; burst: on 120, off 150.
        assert_eq!(ticks, vec![100, 120, 150, 150, 300, 350]);
        let mut sorted = ticks.clone();
        sorted.sort_unstable();
        assert_eq!(ticks, sorted, "plan is time-sorted");
        assert!(plan
            .actions
            .iter()
            .all(|a| matches!(a.action, FaultAction::Link { .. })));
        // The flap's up phases and the burst's end restore the base link.
        let restores = plan
            .actions
            .iter()
            .filter(|a| matches!(&a.action, FaultAction::Link { config, .. } if *config == base))
            .count();
        assert_eq!(restores, 3);
        assert!(plan.ends_repaired(&base));
    }

    #[test]
    fn crash_without_restart_does_not_end_repaired() {
        let base = LinkConfig::reliable(3);
        let crashed = Scenario::new(ProtocolSpec::new("x"), base.clone())
            .with_fault(Fault::crash(50, FaultNode::B));
        assert!(!FaultPlan::from_scenario(&crashed).ends_repaired(&base));
        let recovered = crashed.with_fault(Fault::restart(90, FaultNode::B));
        assert!(FaultPlan::from_scenario(&recovered).ends_repaired(&base));
        let partitioned =
            Scenario::new(ProtocolSpec::new("x"), base.clone()).with_fault(Fault::partition(10));
        assert!(!FaultPlan::from_scenario(&partitioned).ends_repaired(&base));
        let skewed = Scenario::new(ProtocolSpec::new("x"), base.clone())
            .with_fault(Fault::clock_skew(10, FaultNode::A, 5, 4));
        assert!(FaultPlan::from_scenario(&skewed).ends_repaired(&base));
    }

    #[test]
    fn retransmit_policy_defaults_to_fixed_and_labels_cleanly() {
        let spec = ProtocolSpec::new("x");
        assert_eq!(spec.retransmit, RetransmitPolicy::Fixed);
        assert_eq!(spec.retransmit.as_str(), "fixed");
        let adaptive = spec.with_retransmit(RetransmitPolicy::AdaptiveRto {
            min_rto: 4,
            max_rto: 4_000,
        });
        assert_eq!(adaptive.retransmit.as_str(), "adaptive-rto");
        // Policy is protocol tuning, not an engine axis: the engine
        // config round-trips without touching it.
        let engine = adaptive.engine();
        assert_eq!(
            adaptive.clone().with_engine(engine).retransmit,
            adaptive.retransmit
        );
    }

    #[test]
    fn result_derived_metrics() {
        let r = ScenarioResult {
            success: true,
            elapsed: 2000,
            messages_offered: 10,
            messages_delivered: 8,
            payload_bytes: 4000,
            frames_sent: 14,
            retransmissions: 4,
            link: LinkStats::default(),
        };
        assert!((r.goodput() - 2000.0).abs() < 1e-9);
        assert!((r.latency_per_message() - 250.0).abs() < 1e-9);
        assert!((r.retransmit_rate() - 0.4).abs() < 1e-9);
        assert!((r.delivery_ratio() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn zero_denominators_are_zero_not_nan() {
        let r = ScenarioResult {
            success: false,
            elapsed: 0,
            messages_offered: 0,
            messages_delivered: 0,
            payload_bytes: 0,
            frames_sent: 0,
            retransmissions: 0,
            link: LinkStats::default(),
        };
        assert_eq!(r.goodput(), 0.0);
        assert_eq!(r.latency_per_message(), 0.0);
        assert_eq!(r.retransmit_rate(), 0.0);
        assert_eq!(r.delivery_ratio(), 0.0);
    }
}
