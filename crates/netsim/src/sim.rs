//! The discrete-event engine.
//!
//! Since the zero-allocation core landed (see `docs/SIMCORE.md`) the
//! engine has two cooperating layers on its hot path:
//!
//! * frame payloads live in a [`PayloadArena`] — handles move through
//!   the event queue, duplication bumps a refcount, and freed slots
//!   (plus the arena itself, recycled thread-locally across simulator
//!   lifetimes) are reused, so a warm campaign worker allocates nothing
//!   per frame;
//! * events are scheduled by a hierarchical timer wheel (the private
//!   `wheel` module) instead of a binary heap, preserving the exact
//!   `(at, seq)` pop order (property-tested against the heap, which is
//!   retained as [`SimCore::Legacy`] — the measurement baseline of
//!   experiment E13 and the ordering oracle of the wheel tests).
//!
//! The original `Vec<u8>`-owning API ([`Simulator::send`],
//! [`Simulator::step`]) still works and is what one-off tests use; the
//! handle API ([`Simulator::send_ref`], [`Simulator::step_ref`]) is the
//! allocation-free path the protocol pump drives.
//!
//! [`Simulator::reset`] empties a simulator in place for its next
//! owner, which is how a batch driver runs its sessions back to back on
//! one warm simulator (see `docs/SESSIONS.md`).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use netdsl_obs::{
    Counter, FlightEvent, FlightKind, FlightRecorder, FlightRecording, Histogram, ObsConfig,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::arena::{PayloadArena, PayloadRef};
use crate::golden::{GoldenEvent, GoldenEventKind, Verdict};
use crate::link::LinkConfig;
use crate::stats::LinkStats;
use crate::wheel::TimerWheel;
use crate::Tick;

/// Identifies a node in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifies a unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// The raw index of this link.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Opaque caller-chosen identifier carried by timer events.
pub type TimerToken = u64;

/// Which engine internals a simulator runs on.
///
/// The two cores are **behaviourally identical** — same RNG draw
/// sequence, same event order, bit-identical transcripts (pinned by
/// `tests/wheel_oracle.rs` and the campaign determinism tests) — they
/// differ only in cost. Campaigns can therefore put the core on an
/// axis (`ProtocolSpec::with_sim_core`) and measure pure engine
/// overhead, which is exactly what experiment E13 does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimCore {
    /// Payload arena + timer wheel; zero allocation in steady state.
    #[default]
    Pooled,
    /// The pre-arena core: binary-heap scheduler, owned `Vec<u8>`
    /// frame buffers allocated and dropped per hop. Kept as the E13
    /// measurement baseline and the wheel's ordering oracle.
    Legacy,
}

impl SimCore {
    /// Canonical axis label (`"pooled"` / `"legacy"`).
    pub fn as_str(self) -> &'static str {
        match self {
            SimCore::Pooled => "pooled",
            SimCore::Legacy => "legacy",
        }
    }
}

/// Something delivered to a node by the simulator, with the frame
/// payload owned (see [`EventRef`] for the zero-copy form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A frame arrived at `node` over `link`.
    Frame {
        /// Destination node.
        node: NodeId,
        /// Link the frame travelled over.
        link: LinkId,
        /// Frame contents (possibly corrupted in transit).
        payload: Vec<u8>,
    },
    /// A timer set with [`Simulator::set_timer`] fired at `node`.
    Timer {
        /// The node whose timer fired.
        node: NodeId,
        /// The token the caller supplied.
        token: TimerToken,
    },
    /// A fault scheduled with [`Simulator::schedule_fault`] is due.
    Fault {
        /// The index the caller supplied.
        index: usize,
    },
}

/// Something delivered to a node, with the frame payload still in the
/// arena — the allocation-free counterpart of [`Event`] returned by
/// [`Simulator::step_ref`]. Read frame bytes with
/// [`Simulator::payload`] or take them with
/// [`Simulator::detach_payload`]; every handle must be consumed
/// (`detach_payload` / `release_payload`) before the slot can recycle.
#[derive(Debug)]
pub enum EventRef {
    /// A frame arrived at `node` over `link`.
    Frame {
        /// Destination node.
        node: NodeId,
        /// Link the frame travelled over.
        link: LinkId,
        /// Handle to the frame contents in the simulator's arena.
        payload: PayloadRef,
    },
    /// A timer fired at `node`.
    Timer {
        /// The node whose timer fired.
        node: NodeId,
        /// The token the caller supplied.
        token: TimerToken,
    },
    /// A fault scheduled with [`Simulator::schedule_fault`] is due. The
    /// simulator only keeps its time; the caller applies it.
    Fault {
        /// The index the caller supplied.
        index: usize,
    },
}

#[derive(Debug)]
struct Link {
    from: NodeId,
    to: NodeId,
    config: LinkConfig,
    stats: LinkStats,
}

/// Node and link tables. Pooled cores recycle them with the arena and
/// the wheel: both vectors keep their capacity, and so do the emptied
/// cancel lists of the nodes the departing owner created.
#[derive(Debug, Default)]
struct Tables {
    /// Nodes created so far; node ids are `0..nodes`.
    nodes: usize,
    links: Vec<Link>,
    /// Pending lazy timer cancellations, indexed by node so the
    /// pop-time lookup scans one node's handful of in-flight cancels.
    node_cancels: Vec<Vec<TimerToken>>,
}

impl Tables {
    /// Entries per table a recycled core keeps, far more than the
    /// two-node worlds of the suite drivers. Larger tables shrink back,
    /// like the arena's slab.
    const RETAIN: usize = 256;

    /// Empties every table for the next owner. Costs O(this owner's
    /// nodes), however large an earlier owner grew the tables.
    fn reset(&mut self) {
        self.links.clear();
        self.links.shrink_to(Self::RETAIN);
        self.node_cancels.truncate(self.nodes.min(Self::RETAIN));
        for list in &mut self.node_cancels {
            list.clear();
        }
        self.nodes = 0;
    }
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Pending {
    Frame {
        link: LinkId,
        to: NodeId,
        payload: PayloadRef,
    },
    Timer {
        node: NodeId,
        token: TimerToken,
    },
    Fault {
        index: usize,
    },
}

/// Heap entry ordered by `(at, seq)` via the derived field-order
/// comparison; `seq` is a monotone insertion counter, so it is unique
/// per entry and the trailing `what` field never actually participates
/// in a comparison — the ordering is total and ties at equal `at`
/// resolve by insertion order (property-tested in
/// `tests/heap_order.rs`, and the timer wheel reproduces it exactly).
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Scheduled {
    at: Tick,
    seq: u64,
    what: Pending,
}

/// The event queue behind one simulator: the wheel (pooled core) or
/// the original binary heap (legacy core / oracle).
#[derive(Debug)]
enum Queue {
    Wheel(TimerWheel<Pending>),
    Heap(BinaryHeap<Reverse<Scheduled>>),
}

impl Queue {
    fn push(&mut self, at: Tick, seq: u64, what: Pending) {
        match self {
            Queue::Wheel(w) => w.push(at, seq, what),
            Queue::Heap(h) => h.push(Reverse(Scheduled { at, seq, what })),
        }
    }

    fn pop(&mut self) -> Option<(Tick, u64, Pending)> {
        match self {
            Queue::Wheel(w) => w.pop(),
            Queue::Heap(h) => h.pop().map(|Reverse(s)| (s.at, s.seq, s.what)),
        }
    }

    fn clear(&mut self) {
        match self {
            Queue::Wheel(w) => w.reset(),
            Queue::Heap(h) => h.clear(),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Queue::Wheel(w) => w.is_empty(),
            Queue::Heap(h) => h.is_empty(),
        }
    }
}

/// What a pooled simulator takes from and returns to [`CORE_POOL`].
type PooledCore = (PayloadArena, TimerWheel<Pending>, Tables);

thread_local! {
    /// Warm `(arena, wheel, tables)` cores recycled across pooled
    /// simulators on this thread — how a campaign worker runs thousands
    /// of scenarios without re-growing any of them. Capacities persist;
    /// all contents are reset between owners.
    ///
    /// Checkout is a `pop` (exclusive ownership transfer), so any
    /// number of pooled simulators alive on one thread at once — e.g. a
    /// golden recorder nested inside a campaign worker — each hold
    /// disjoint structures and never observe each other's state. There
    /// is a regression test for exactly this
    /// (`two_live_pooled_simulators_on_one_thread_stay_disjoint`).
    static CORE_POOL: RefCell<Vec<PooledCore>> = const { RefCell::new(Vec::new()) };
}

/// Warm cores retained **per thread**, however many simulators each
/// worker creates or holds alive — returning a core to a full pool
/// just drops it. Sized so a worker holding a few concurrent
/// simulators (nested helper simulations) still recycles all of them.
const CORE_POOL_CAP: usize = 8;

/// Engine metrics (`netdsl-obs`). The statics are inert until
/// [`netdsl_obs::set_metrics_enabled`] turns the registry on — each
/// update is then one thread-sharded relaxed add, so the hot path stays
/// allocation-free (pinned by `tests/alloc_zero.rs`).
static FRAMES_SENT: Counter = Counter::new("sim.frames_sent");
static FRAMES_DELIVERED: Counter = Counter::new("sim.frames_delivered");
static FRAMES_DROPPED: Counter = Counter::new("sim.frames_dropped");
static FRAMES_CORRUPTED: Counter = Counter::new("sim.frames_corrupted");
static TIMERS_SET: Counter = Counter::new("sim.timers_set");
static TIMERS_FIRED: Counter = Counter::new("sim.timers_fired");
static TIMERS_CANCELLED: Counter = Counter::new("sim.timers_cancelled");
static FRAME_BYTES: Histogram = Histogram::new("sim.frame_bytes");
static FAULTS_INJECTED: Counter = Counter::new("fault.injected");

/// Golden-trace capture state, boxed behind an `Option` so the hot path
/// pays one predictable branch when recording is off (the default).
#[derive(Debug, Default)]
struct GoldenLog {
    events: Vec<GoldenEvent>,
    /// Index of the most recent `Delivered` event, pending annotation.
    last_delivery: Option<usize>,
}

/// A deterministic discrete-event network simulator.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Simulator {
    time: Tick,
    seq: u64,
    queue: Queue,
    arena: PayloadArena,
    core: SimCore,
    /// The impairment RNG stream, seeded by the constructor or
    /// [`Simulator::reset`].
    rng: ChaCha12Rng,
    tables: Tables,
    golden: Option<Box<GoldenLog>>,
    /// Flight recorder, boxed behind an `Option` like golden capture:
    /// the hot path pays one branch when no recorder is installed.
    flight: Option<Box<FlightRecorder>>,
    /// A recorder that [`Simulator::reset`] or [`Simulator::set_obs`]
    /// removed, kept so that the next one installed reuses its ring: a
    /// batch that resets one simulator per session allocates it once.
    spare_flight: Option<Box<FlightRecorder>>,
    /// Fast-path flag for node-level fault state: `false` until the
    /// first crash or clock skew, so un-faulted runs pay exactly one
    /// predictable branch per pop and per timer arm (the bit-identical
    /// guarantee behind the committed golden fixtures).
    faulted: bool,
    /// `node_down[n]`: node `n` is currently crashed (frames addressed
    /// to it are dropped at pop time, its timers are retracted).
    node_down: Vec<bool>,
    /// `crash_floor[n]`: the event-sequence watermark taken when node
    /// `n` last crashed. Queued events with a smaller sequence number
    /// were scheduled before the crash and stay dead even after a
    /// restart — this is what "in-flight frames are dropped and pending
    /// timers retracted" means, implemented in O(1) at crash time.
    crash_floor: Vec<u64>,
    /// `node_skew[n]`: `(numer, denom)` tick-rate multiplier applied to
    /// node `n`'s timer delays at set time (`(1, 1)` = no skew).
    node_skew: Vec<(u32, u32)>,
}

impl Simulator {
    /// Creates a simulator whose randomness is fully determined by
    /// `seed`, on the default [`SimCore::Pooled`] core.
    pub fn new(seed: u64) -> Self {
        Simulator::with_core(seed, SimCore::default())
    }

    /// Creates a simulator on an explicit engine core. The pooled core
    /// draws its arena, wheel and node and link tables from a
    /// thread-local recycling pool (returned, reset, on drop); the
    /// legacy core allocates fresh so baseline measurements stay honest.
    pub fn with_core(seed: u64, core: SimCore) -> Self {
        let (arena, queue, tables) = match core {
            SimCore::Pooled => {
                let (arena, wheel, tables) = CORE_POOL
                    .with(|pool| pool.borrow_mut().pop())
                    .unwrap_or_default();
                (arena, Queue::Wheel(wheel), tables)
            }
            SimCore::Legacy => (
                PayloadArena::new(),
                // Pre-sized as the original engine was: window
                // protocols keep dozens of frames and timers in flight.
                Queue::Heap(BinaryHeap::with_capacity(256)),
                Tables::default(),
            ),
        };
        Simulator {
            time: 0,
            seq: 0,
            queue,
            arena,
            core,
            rng: ChaCha12Rng::seed_from_u64(seed),
            tables,
            golden: None,
            flight: None,
            spare_flight: None,
            faulted: false,
            node_down: Vec::new(),
            crash_floor: Vec::new(),
            node_skew: Vec::new(),
        }
    }

    /// Empties this simulator in place and reseeds it: afterwards it is
    /// observably identical to `Simulator::with_core(seed, self.core())`
    /// — clock, event sequence, queue, arena, nodes, links, pending
    /// cancels, fault state, golden log and flight recorder all start
    /// over — while its structures keep their capacity. Outstanding
    /// [`PayloadRef`]s are invalidated.
    pub fn reset(&mut self, seed: u64) {
        self.clear();
        self.rng = ChaCha12Rng::seed_from_u64(seed);
    }

    /// Everything [`Simulator::reset`] empties; also what a pooled core
    /// goes through on its way back to the pool.
    fn clear(&mut self) {
        self.time = 0;
        self.seq = 0;
        self.queue.clear();
        self.arena.reset();
        self.tables.reset();
        self.golden = None;
        self.park_flight();
        self.faulted = false;
        self.node_down.clear();
        self.crash_floor.clear();
        self.node_skew.clear();
    }

    /// Installs a scenario's observability request: turns the
    /// process-wide metric registry on when asked (enabling is sticky —
    /// see [`ObsConfig::metrics`]) and installs or removes the flight
    /// recorder. Telemetry never changes behaviour: transcripts, RNG
    /// draws and results are identical with or without it (pinned by
    /// the flight-parity suite; overhead measured by bench E16).
    pub fn set_obs(&mut self, cfg: ObsConfig) {
        if cfg.metrics {
            netdsl_obs::set_metrics_enabled(true);
        }
        self.park_flight();
        if cfg.flight {
            let recorder = match self.spare_flight.take() {
                Some(mut recorder) => {
                    recorder.reset(cfg.flight_cap());
                    recorder
                }
                None => Box::new(FlightRecorder::new(cfg.flight_cap())),
            };
            self.flight = Some(recorder);
        }
    }

    /// Uninstalls the flight recorder, keeping it as the spare.
    fn park_flight(&mut self) {
        if let Some(recorder) = self.flight.take() {
            self.spare_flight = Some(recorder);
        }
    }

    /// Removes the flight recorder, returning what it captured (or
    /// `None` when none was installed).
    pub fn take_flight(&mut self) -> Option<FlightRecording> {
        self.flight.take().map(|r| r.into_recording())
    }

    /// Records a protocol-level flight event (`ArqTimeout`,
    /// `Retransmit`, `CodecReject`, …) stamped with the current virtual
    /// time and `node` as the subject. A no-op without a recorder —
    /// endpoints can call this unconditionally.
    pub fn flight_protocol_event(&mut self, kind: FlightKind, node: NodeId, detail: u64) {
        self.flight_record(kind, node.index() as u64, detail);
    }

    #[inline]
    fn flight_record(&mut self, kind: FlightKind, subject: u64, detail: u64) {
        if let Some(f) = &mut self.flight {
            f.record(FlightEvent {
                at: self.time,
                kind,
                subject,
                detail,
            });
        }
    }

    /// Switches golden-trace capture on or off (off by default, so the
    /// zero-allocation hot path is untouched in normal runs). While on,
    /// every frame event is logged with its full wire bytes; deliveries
    /// can then be annotated with a verdict and endpoint digest via
    /// [`Simulator::annotate_delivery`]. See [`crate::golden`].
    pub fn record_golden(&mut self, on: bool) {
        self.golden = on.then(Box::default);
    }

    /// Attaches the validation verdict and endpoint state digest that
    /// `annotation` computes to the most recently delivered frame. Call
    /// between a [`Simulator::step_ref`] that returned a frame and the
    /// next step. `annotation` runs only when golden capture is on and
    /// that delivery is still unannotated.
    pub fn annotate_delivery(&mut self, annotation: impl FnOnce() -> (Verdict, u64)) {
        let Some(golden) = &mut self.golden else {
            return;
        };
        let Some(idx) = golden.last_delivery.take() else {
            return;
        };
        let (verdict, digest) = annotation();
        let ev = &mut golden.events[idx];
        debug_assert_eq!(ev.kind, GoldenEventKind::Delivered);
        ev.verdict = Some(verdict);
        ev.digest = Some(digest);
    }

    /// Takes the captured golden events, leaving capture enabled with an
    /// empty log.
    pub fn take_golden_events(&mut self) -> Vec<GoldenEvent> {
        match &mut self.golden {
            Some(golden) => {
                golden.last_delivery = None;
                std::mem::take(&mut golden.events)
            }
            None => Vec::new(),
        }
    }

    /// Which engine core this simulator runs on.
    pub fn core(&self) -> SimCore {
        self.core
    }

    /// Current virtual time.
    pub fn now(&self) -> Tick {
        self.time
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.tables.nodes);
        self.tables.nodes += 1;
        id
    }

    /// Number of nodes created so far.
    pub fn node_count(&self) -> usize {
        self.tables.nodes
    }

    /// Adds a unidirectional link `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if `config` carries probabilities outside `[0, 1]`, or if
    /// `from` or `to` is not a node of this simulator — both are
    /// configuration bugs, not runtime conditions.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, config: LinkConfig) -> LinkId {
        assert!(config.is_valid(), "link probabilities must lie in [0, 1]");
        let nodes = self.tables.nodes;
        assert!(
            from.0 < nodes && to.0 < nodes,
            "link {from:?} -> {to:?} joins a node this simulator does not have ({nodes} nodes)"
        );
        let id = LinkId(self.tables.links.len());
        self.tables.links.push(Link {
            from,
            to,
            config,
            stats: LinkStats::default(),
        });
        id
    }

    /// Adds a bidirectional link as a pair of unidirectional ones,
    /// returning `(a→b, b→a)`.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, config: LinkConfig) -> (LinkId, LinkId) {
        let ab = self.add_link(a, b, config.clone());
        let ba = self.add_link(b, a, config);
        (ab, ba)
    }

    /// Endpoints of a link as `(from, to)`.
    pub fn link_endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        let l = &self.tables.links[link.0];
        (l.from, l.to)
    }

    /// Per-link delivery statistics.
    pub fn link_stats(&self, link: LinkId) -> &LinkStats {
        &self.tables.links[link.0].stats
    }

    /// Counters of every link folded into one [`LinkStats`] — what the
    /// scenario aggregation layer records for a whole run.
    ///
    /// ```
    /// use netdsl_netsim::{LinkConfig, Simulator};
    /// let mut sim = Simulator::new(0);
    /// let (a, b) = (sim.add_node(), sim.add_node());
    /// let (ab, ba) = sim.add_duplex(a, b, LinkConfig::reliable(1));
    /// sim.send(ab, vec![1]);
    /// sim.send(ba, vec![2]);
    /// assert_eq!(sim.total_stats().sent, 2);
    /// ```
    pub fn total_stats(&self) -> LinkStats {
        self.tables
            .links
            .iter()
            .fold(LinkStats::default(), |acc, l| acc.merge(l.stats))
    }

    /// Replaces a link's impairment configuration mid-run (used by the
    /// adaptation experiments to model changing network conditions).
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`Simulator::add_link`]).
    pub fn reconfigure_link(&mut self, link: LinkId, config: LinkConfig) {
        assert!(config.is_valid(), "link probabilities must lie in [0, 1]");
        self.tables.links[link.0].config = config;
    }

    // ------------------------------------------------------------------
    // Payload arena access
    // ------------------------------------------------------------------

    /// Copies `bytes` into the payload arena (recycled buffer, no
    /// steady-state allocation) and returns the handle.
    pub fn alloc_payload(&mut self, bytes: &[u8]) -> PayloadRef {
        self.arena.alloc(bytes)
    }

    /// Hands `fill` an empty recycled buffer to encode a frame into
    /// and returns the handle — the zero-allocation send path:
    ///
    /// ```
    /// use netdsl_netsim::{LinkConfig, Simulator};
    /// let mut sim = Simulator::new(0);
    /// let (a, b) = (sim.add_node(), sim.add_node());
    /// let ab = sim.add_link(a, b, LinkConfig::reliable(1));
    /// let frame = sim.alloc_payload_with(|buf| buf.extend_from_slice(b"hi"));
    /// sim.send_ref(ab, frame);
    /// ```
    pub fn alloc_payload_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> PayloadRef {
        self.arena.alloc_with(fill)
    }

    /// The bytes behind a payload handle.
    pub fn payload(&self, h: &PayloadRef) -> &[u8] {
        self.arena.get(h)
    }

    /// Consumes a handle, taking the bytes out of the arena (a move
    /// when it is the last reference). Return the buffer with
    /// [`Simulator::recycle_payload`] once read to keep the steady
    /// state allocation-free.
    pub fn detach_payload(&mut self, h: PayloadRef) -> Vec<u8> {
        self.arena.detach(h)
    }

    /// Returns a detached buffer's capacity to the arena.
    pub fn recycle_payload(&mut self, buf: Vec<u8>) {
        self.arena.recycle(buf);
    }

    /// Drops a payload handle without reading it.
    pub fn release_payload(&mut self, h: PayloadRef) {
        self.arena.release(h);
    }

    /// The payload arena (statistics for tests and benchmarks).
    pub fn arena(&self) -> &PayloadArena {
        &self.arena
    }

    fn push(&mut self, at: Tick, what: Pending) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, what);
    }

    /// Appends one golden event (capture must be on) and returns its
    /// index in the log.
    fn push_golden(&mut self, kind: GoldenEventKind, link: LinkId, bytes: Vec<u8>) -> usize {
        let at = self.time;
        let golden = self.golden.as_mut().expect("golden capture enabled");
        golden.events.push(GoldenEvent {
            at,
            kind,
            link: link.index(),
            bytes,
            verdict: None,
            digest: None,
        });
        golden.events.len() - 1
    }

    /// Transmits `payload` over `link`, applying the link's
    /// impairments. Compatibility wrapper over [`Simulator::send_ref`]:
    /// adopts the buffer into the arena without copying.
    ///
    /// Returns `true` if at least one copy of the frame was scheduled for
    /// delivery (i.e. the frame was not lost). Protocol code normally
    /// ignores the return value — a real sender cannot observe loss — but
    /// tests and statistics use it.
    pub fn send(&mut self, link: LinkId, payload: Vec<u8>) -> bool {
        let h = self.arena.insert(payload);
        self.send_ref(link, h)
    }

    /// Transmits the payload behind `h` over `link`, applying the
    /// link's impairments — the allocation-free send path. The handle
    /// is always consumed (released immediately on loss).
    ///
    /// Returns `true` if at least one copy was scheduled for delivery.
    pub fn send_ref(&mut self, link: LinkId, payload: PayloadRef) -> bool {
        let (loss, duplicate, corrupt, delay, jitter, to) = {
            let l = &self.tables.links[link.0];
            (
                l.config.loss,
                l.config.duplicate,
                l.config.corrupt,
                l.config.delay,
                l.config.jitter,
                l.to,
            )
        };
        let len = self.arena.get(&payload).len();
        self.tables.links[link.0].stats.sent += 1;
        FRAMES_SENT.incr();
        FRAME_BYTES.observe(len as u64);
        self.flight_record(FlightKind::Send, link.index() as u64, len as u64);
        if self.golden.is_some() {
            let wire = self.arena.get(&payload).to_vec();
            self.push_golden(GoldenEventKind::Sent, link, wire);
        }

        if self.rng.random_bool(loss) {
            self.tables.links[link.0].stats.lost += 1;
            FRAMES_DROPPED.incr();
            self.flight_record(FlightKind::Drop, link.index() as u64, 0);
            if self.golden.is_some() {
                self.push_golden(GoldenEventKind::Lost, link, Vec::new());
            }
            self.arena.release(payload);
            return false;
        }

        // A duplicated frame shares the sender's bytes: the second
        // delivery is a refcount bump, not a clone (the pre-arena
        // engine cloned here). The copy is scheduled first, exactly as
        // the original engine did, so RNG draw order and event seq
        // assignment — and therefore whole transcripts — are unchanged.
        if self.rng.random_bool(duplicate) {
            self.tables.links[link.0].stats.duplicated += 1;
            let copy = self.arena.retain(&payload);
            self.schedule_delivery(link, to, corrupt, delay, jitter, copy);
        }
        self.schedule_delivery(link, to, corrupt, delay, jitter, payload);
        true
    }

    /// Applies per-copy impairments (corruption, jitter) to one frame
    /// and queues its delivery.
    fn schedule_delivery(
        &mut self,
        link: LinkId,
        to: NodeId,
        corrupt: f64,
        delay: Tick,
        jitter: Tick,
        frame: PayloadRef,
    ) {
        let len = self.arena.get(&frame).len();
        let mut frame = frame;
        if len > 0 && self.rng.random_bool(corrupt) {
            let byte = self.rng.random_range(0..len);
            let bit = self.rng.random_range(0..8u8);
            // Copy-on-write: corrupting one duplicate must not touch
            // the other copy's bytes.
            frame = self.arena.make_unique(frame);
            self.arena.get_mut(&frame)[byte] ^= 1 << bit;
            self.tables.links[link.0].stats.corrupted += 1;
            FRAMES_CORRUPTED.incr();
            self.flight_record(FlightKind::Corrupt, link.index() as u64, 0);
            if self.golden.is_some() {
                self.push_golden(GoldenEventKind::Corrupted, link, Vec::new());
            }
        }
        let extra = if jitter > 0 {
            self.rng.random_range(0..=jitter)
        } else {
            0
        };
        let at = self.time + delay + extra;
        self.push(
            at,
            Pending::Frame {
                link,
                to,
                payload: frame,
            },
        );
    }

    /// Schedules a timer event for `node` to fire `delay` ticks from now.
    ///
    /// When a clock skew is installed for `node` (see
    /// [`Simulator::set_clock_skew`]) the delay is scaled by the node's
    /// tick-rate multiplier at set time — the skewed node *believes* it
    /// armed `delay` ticks, but the shared simulation clock sees
    /// `delay * numer / denom`.
    pub fn set_timer(&mut self, node: NodeId, delay: Tick, token: TimerToken) {
        let delay = if self.faulted {
            self.skewed_delay(node, delay)
        } else {
            delay
        };
        let at = self.time + delay;
        TIMERS_SET.incr();
        self.flight_record(FlightKind::TimerSet, node.index() as u64, token);
        self.push(at, Pending::Timer { node, token });
    }

    /// Schedules fault `index` to come due at tick `at` as an
    /// [`EventRef::Fault`]. Like any event it pops in `(at, seq)` order,
    /// so a fault scheduled before a session starts precedes every
    /// frame and timer due on its tick. What the fault does is up to
    /// the caller (see [`apply_fault`](crate::scenario::apply_fault)).
    pub fn schedule_fault(&mut self, at: Tick, index: usize) {
        self.push(at, Pending::Fault { index });
    }

    /// Cancels all pending timers for `node` carrying `token`.
    ///
    /// Cancellation is lazy: the events stay queued but are skipped when
    /// popped, which keeps cancellation O(1). The pending set is kept
    /// per node, so the pop-time check stays proportional to one node's
    /// few outstanding cancels.
    pub fn cancel_timer(&mut self, node: NodeId, token: TimerToken) {
        let ix = node.index();
        let cancels = &mut self.tables.node_cancels;
        if cancels.len() <= ix {
            cancels.resize_with(ix + 1, Vec::new);
        }
        cancels[ix].push(token);
        TIMERS_CANCELLED.incr();
        self.flight_record(FlightKind::TimerCancel, ix as u64, token);
    }

    /// Removes one pending lazy cancellation for `(node, token)` and
    /// reports whether one existed: [`Simulator::step_ref`] skips the
    /// timer event it popped when this returns `true`.
    fn consume_cancellation(&mut self, node: NodeId, token: TimerToken) -> bool {
        let Some(list) = self.tables.node_cancels.get_mut(node.index()) else {
            return false;
        };
        if let Some(idx) = list.iter().position(|&t| t == token) {
            list.swap_remove(idx);
            true
        } else {
            false
        }
    }

    // ------------------------------------------------------------------
    // Node-level faults (crash / restart / clock skew)
    // ------------------------------------------------------------------

    /// Crashes `node`: frames addressed to it and timers it armed are
    /// dropped at pop time from now on. The crash takes an
    /// event-sequence watermark, so everything queued *before* the
    /// crash stays dead even after [`Simulator::restart_node`] — a
    /// restarted endpoint comes back with empty mailboxes, exactly the
    /// state loss the fault models. O(1): nothing is scanned or
    /// removed from the queue.
    pub fn crash_node(&mut self, node: NodeId) {
        let ix = node.index();
        if self.node_down.len() <= ix {
            self.node_down.resize(ix + 1, false);
            self.crash_floor.resize(ix + 1, 0);
        }
        self.node_down[ix] = true;
        self.crash_floor[ix] = self.seq;
        self.faulted = true;
    }

    /// Brings a crashed node back up. Events scheduled before the crash
    /// remain dead (the crash watermark persists); events scheduled
    /// from now on are delivered normally. The caller is responsible
    /// for resetting and restarting the endpoint's protocol state.
    pub fn restart_node(&mut self, node: NodeId) {
        if let Some(down) = self.node_down.get_mut(node.index()) {
            *down = false;
        }
    }

    /// Installs a tick-rate multiplier for `node`: timer delays it arms
    /// from now on are scaled to `delay * numer / denom` (integer
    /// arithmetic, deterministic). `(1, 1)` removes the skew.
    ///
    /// # Panics
    ///
    /// Panics if either ratio term is zero.
    pub fn set_clock_skew(&mut self, node: NodeId, numer: u32, denom: u32) {
        assert!(numer >= 1 && denom >= 1, "skew ratio terms must be >= 1");
        let ix = node.index();
        if self.node_skew.len() <= ix {
            self.node_skew.resize(ix + 1, (1, 1));
        }
        self.node_skew[ix] = (numer, denom);
        self.faulted = true;
    }

    /// Records one fault application in the observability layer: bumps
    /// the `fault.injected` counter and logs a [`FlightKind::Fault`]
    /// event (`subject` = node or link index, `detail` = fault-kind
    /// discriminant). Called by [`crate::scenario::apply_fault`] so
    /// every driver reports faults identically.
    pub fn note_fault(&mut self, subject: u64, detail: u64) {
        FAULTS_INJECTED.incr();
        self.flight_record(FlightKind::Fault, subject, detail);
    }

    /// Whether a popped event belongs to a crashed node or predates its
    /// crash watermark. Only consulted when `self.faulted` is set.
    fn event_is_dead(&self, node: NodeId, seq: u64) -> bool {
        let ix = node.index();
        self.node_down.get(ix).copied().unwrap_or(false)
            || seq < self.crash_floor.get(ix).copied().unwrap_or(0)
    }

    /// Loss bookkeeping for a frame killed by a node crash — mirrors
    /// the loss path of [`Simulator::send_ref`] (stats, metrics,
    /// flight, golden) and releases the payload.
    fn note_crash_drop(&mut self, link: LinkId, payload: PayloadRef) {
        self.tables.links[link.0].stats.lost += 1;
        FRAMES_DROPPED.incr();
        self.flight_record(FlightKind::Drop, link.index() as u64, 0);
        if self.golden.is_some() {
            self.push_golden(GoldenEventKind::Lost, link, Vec::new());
        }
        self.arena.release(payload);
    }

    /// A node's timer delay scaled by its installed clock skew, if any.
    fn skewed_delay(&self, node: NodeId, delay: Tick) -> Tick {
        match self.node_skew.get(node.index()) {
            Some(&(numer, denom)) if (numer, denom) != (1, 1) => {
                delay * Tick::from(numer) / Tick::from(denom)
            }
            _ => delay,
        }
    }

    /// Advances to the next event and returns it with the frame payload
    /// still in the arena — the allocation-free pump path. Returns
    /// `None` when the simulation has quiesced.
    pub fn step_ref(&mut self) -> Option<EventRef> {
        while let Some((at, seq, what)) = self.queue.pop() {
            debug_assert!(at >= self.time, "time never runs backwards");
            self.time = at;
            match what {
                Pending::Frame { link, to, payload } => {
                    if self.faulted && self.event_is_dead(to, seq) {
                        self.note_crash_drop(link, payload);
                        continue;
                    }
                    let len = self.arena.get(&payload).len();
                    self.tables.links[link.0].stats.delivered += 1;
                    FRAMES_DELIVERED.incr();
                    self.flight_record(FlightKind::Deliver, link.index() as u64, len as u64);
                    if self.golden.is_some() {
                        let wire = self.arena.get(&payload).to_vec();
                        let idx = self.push_golden(GoldenEventKind::Delivered, link, wire);
                        self.golden.as_mut().unwrap().last_delivery = Some(idx);
                    }
                    return Some(EventRef::Frame {
                        node: to,
                        link,
                        payload,
                    });
                }
                Pending::Timer { node, token } => {
                    // Cancellations are consumed before the dead check
                    // so a dead timer still eats its pending cancel —
                    // otherwise a stale cancel could kill a reused
                    // token armed after a restart.
                    if self.consume_cancellation(node, token) {
                        continue;
                    }
                    if self.faulted && self.event_is_dead(node, seq) {
                        continue;
                    }
                    TIMERS_FIRED.incr();
                    self.flight_record(FlightKind::TimerFire, node.index() as u64, token);
                    return Some(EventRef::Timer { node, token });
                }
                Pending::Fault { index } => return Some(EventRef::Fault { index }),
            }
        }
        None
    }

    /// Advances to the next event and returns it with an owned payload,
    /// or `None` when the simulation has quiesced (no frames in flight,
    /// no timers pending). Compatibility wrapper over
    /// [`Simulator::step_ref`] — the payload buffer is moved out of the
    /// arena, not copied, so the cost matches the pre-arena engine.
    pub fn step(&mut self) -> Option<Event> {
        Some(match self.step_ref()? {
            EventRef::Frame {
                node,
                link,
                payload,
            } => Event::Frame {
                node,
                link,
                payload: self.arena.detach(payload),
            },
            EventRef::Timer { node, token } => Event::Timer { node, token },
            EventRef::Fault { index } => Event::Fault { index },
        })
    }

    /// `true` when no events remain queued.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }
}

impl Drop for Simulator {
    fn drop(&mut self) {
        if self.core != SimCore::Pooled {
            return;
        }
        CORE_POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < CORE_POOL_CAP {
                self.clear();
                let queue = std::mem::replace(&mut self.queue, Queue::Heap(BinaryHeap::new()));
                if let Queue::Wheel(wheel) = queue {
                    let arena = std::mem::take(&mut self.arena);
                    pool.push((arena, wheel, std::mem::take(&mut self.tables)));
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_link_delivers_everything_in_order() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(3));
        sim.send(ab, vec![1]);
        sim.send(ab, vec![2]);
        let e1 = sim.step().unwrap();
        let e2 = sim.step().unwrap();
        assert!(sim.step().is_none());
        match (e1, e2) {
            (Event::Frame { payload: p1, .. }, Event::Frame { payload: p2, .. }) => {
                assert_eq!(p1, vec![1]);
                assert_eq!(p2, vec![2]);
            }
            other => panic!("unexpected events {other:?}"),
        }
        assert_eq!(sim.now(), 3);
    }

    #[test]
    fn total_loss_link_delivers_nothing() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::lossy(1, 1.0));
        assert!(!sim.send(ab, vec![42]));
        assert!(sim.step().is_none());
        assert_eq!(sim.link_stats(ab).lost, 1);
        assert_eq!(sim.link_stats(ab).delivered, 0);
        assert_eq!(sim.arena().live(), 0, "lost frame's slot was released");
    }

    #[test]
    fn loss_rate_is_statistically_plausible() {
        let mut sim = Simulator::new(7);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::lossy(1, 0.3));
        for _ in 0..10_000 {
            sim.send(ab, vec![0]);
        }
        let lost = sim.link_stats(ab).lost as f64 / 10_000.0;
        assert!((0.27..0.33).contains(&lost), "observed loss {lost}");
    }

    #[test]
    fn duplication_schedules_two_copies() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(1).with_duplicate(1.0));
        sim.send(ab, vec![9]);
        assert!(matches!(sim.step(), Some(Event::Frame { .. })));
        assert!(matches!(sim.step(), Some(Event::Frame { .. })));
        assert!(sim.step().is_none());
        assert_eq!(sim.link_stats(ab).duplicated, 1);
        assert_eq!(sim.link_stats(ab).delivered, 2);
    }

    #[test]
    fn duplicates_share_one_arena_slot() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(1).with_duplicate(1.0));
        let h = sim.alloc_payload(&[5; 64]);
        sim.send_ref(ab, h);
        assert_eq!(sim.arena().live(), 1, "duplicate is a refcount, not a slot");
        let (e1, e2) = (sim.step().unwrap(), sim.step().unwrap());
        match (e1, e2) {
            (Event::Frame { payload: p1, .. }, Event::Frame { payload: p2, .. }) => {
                assert_eq!(p1, p2);
                assert_eq!(p1, vec![5; 64]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(sim.arena().live(), 0);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut sim = Simulator::new(3);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(1).with_corrupt(1.0));
        let original = vec![0u8; 8];
        sim.send(ab, original.clone());
        match sim.step().unwrap() {
            Event::Frame { payload, .. } => {
                let flipped: u32 = payload
                    .iter()
                    .zip(&original)
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                assert_eq!(flipped, 1, "exactly one bit flipped");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn corrupting_one_duplicate_leaves_the_other_intact() {
        // Duplication + certain corruption: each copy is corrupted
        // independently (copy-on-write in the arena), so the two
        // deliveries must differ from each other in exactly the ways
        // two independent single-bit flips can.
        let mut sim = Simulator::new(11);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(
            a,
            b,
            LinkConfig::reliable(1)
                .with_duplicate(1.0)
                .with_corrupt(1.0),
        );
        let original = vec![0u8; 16];
        sim.send(ab, original.clone());
        let mut frames = Vec::new();
        while let Some(Event::Frame { payload, .. }) = sim.step() {
            frames.push(payload);
        }
        assert_eq!(frames.len(), 2);
        for f in &frames {
            let flips: u32 = f.iter().map(|b| b.count_ones()).sum();
            assert_eq!(flips, 1, "each copy has exactly one flipped bit");
        }
        assert_eq!(sim.link_stats(ab).corrupted, 2);
    }

    #[test]
    fn jitter_can_reorder_frames() {
        // With delay 1 and jitter 50, two back-to-back frames reorder for
        // some seed; find one deterministically.
        let mut reordered = false;
        for seed in 0..50 {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node();
            let b = sim.add_node();
            let ab = sim.add_link(a, b, LinkConfig::reliable(1).with_jitter(50));
            sim.send(ab, vec![1]);
            sim.send(ab, vec![2]);
            let first = match sim.step().unwrap() {
                Event::Frame { payload, .. } => payload[0],
                _ => unreachable!(),
            };
            if first == 2 {
                reordered = true;
                break;
            }
        }
        assert!(reordered, "jitter never reordered frames across 50 seeds");
    }

    #[test]
    fn timers_fire_at_the_right_time_and_cancel() {
        let mut sim = Simulator::new(0);
        let n = sim.add_node();
        sim.set_timer(n, 10, 1);
        sim.set_timer(n, 5, 2);
        sim.set_timer(n, 7, 3);
        sim.cancel_timer(n, 3);
        assert_eq!(sim.step(), Some(Event::Timer { node: n, token: 2 }));
        assert_eq!(sim.now(), 5);
        assert_eq!(sim.step(), Some(Event::Timer { node: n, token: 1 }));
        assert_eq!(sim.now(), 10);
        assert!(sim.step().is_none());
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node();
            let b = sim.add_node();
            let ab = sim.add_link(a, b, LinkConfig::harsh(5));
            let mut log = Vec::new();
            for i in 0..100u8 {
                sim.send(ab, vec![i]);
            }
            while let Some(ev) = sim.step() {
                if let Event::Frame { payload, .. } = ev {
                    log.push((sim.now(), payload));
                }
            }
            log
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100), "different seeds should differ");
    }

    #[test]
    fn cores_replay_each_other_bit_identically() {
        // The engine-core determinism contract: same seed ⇒ identical
        // transcript whichever scheduler/buffer strategy runs it.
        let run = |core: SimCore| {
            let mut sim = Simulator::with_core(42, core);
            let a = sim.add_node();
            let b = sim.add_node();
            let ab = sim.add_link(a, b, LinkConfig::harsh(5));
            let mut log = Vec::new();
            for i in 0..200u8 {
                sim.send(ab, vec![i; 8]);
            }
            sim.set_timer(a, 1000, 7);
            sim.schedule_fault(700, 3);
            while let Some(ev) = sim.step() {
                match ev {
                    Event::Frame { payload, .. } => log.push((sim.now(), payload)),
                    Event::Timer { token, .. } => log.push((sim.now(), vec![token as u8])),
                    Event::Fault { index } => log.push((sim.now(), vec![0xF0, index as u8])),
                }
            }
            log
        };
        assert_eq!(run(SimCore::Pooled), run(SimCore::Legacy));
    }

    #[test]
    fn duplex_links_are_symmetric() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let (ab, ba) = sim.add_duplex(a, b, LinkConfig::reliable(2));
        assert_eq!(sim.link_endpoints(ab), (a, b));
        assert_eq!(sim.link_endpoints(ba), (b, a));
        sim.send(ab, vec![1]);
        sim.send(ba, vec![2]);
        let mut got = Vec::new();
        while let Some(Event::Frame { node, payload, .. }) = sim.step() {
            got.push((node, payload[0]));
        }
        assert!(got.contains(&(b, 1)));
        assert!(got.contains(&(a, 2)));
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn invalid_link_config_panics() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_link(a, b, LinkConfig::reliable(1).with_loss(2.0));
    }

    #[test]
    #[should_panic(expected = "does not have")]
    fn links_must_join_nodes_of_this_simulator() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        sim.add_link(a, NodeId(1), LinkConfig::reliable(1));
    }

    #[test]
    fn trace_records_send_and_delivery() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(1));
        // The frame event trace is the flight recorder; the link
        // counters keep the totals.
        sim.set_obs(ObsConfig::off().with_flight());
        sim.send(ab, vec![0; 16]);
        sim.step();
        let rec = sim.take_flight().expect("recorder installed");
        let events: Vec<_> = rec.events.iter().map(|e| (e.kind, e.detail)).collect();
        assert_eq!(
            events,
            vec![(FlightKind::Send, 16), (FlightKind::Deliver, 16)]
        );
        let stats = sim.link_stats(ab);
        assert_eq!((stats.sent, stats.delivered), (1, 1));
    }

    #[test]
    fn reconfigure_link_changes_behaviour() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(1));
        sim.reconfigure_link(ab, LinkConfig::lossy(1, 1.0));
        assert!(!sim.send(ab, vec![1]));
    }

    #[test]
    fn send_ref_round_trip_reuses_slots() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(1));
        for i in 0..100u8 {
            let h = sim.alloc_payload_with(|buf| buf.extend_from_slice(&[i; 32]));
            sim.send_ref(ab, h);
            let Some(EventRef::Frame { payload, .. }) = sim.step_ref() else {
                panic!("expected a frame");
            };
            assert_eq!(sim.payload(&payload), &[i; 32][..]);
            let buf = sim.detach_payload(payload);
            sim.recycle_payload(buf);
        }
        let stats = sim.arena().stats();
        assert!(
            stats.slots_created <= 2,
            "steady state reuses slots: {stats:?}"
        );
        assert_eq!(stats.payloads, 100);
    }

    #[test]
    fn golden_capture_logs_wire_bytes_and_annotations() {
        use crate::golden::{GoldenEventKind, Verdict};
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(2));
        sim.record_golden(true);
        sim.send(ab, vec![7, 8, 9]);
        let ev = sim.step_ref().unwrap();
        let EventRef::Frame { payload, .. } = ev else {
            panic!("expected a frame");
        };
        sim.release_payload(payload);
        sim.annotate_delivery(|| (Verdict::Valid, 0x1234));
        let events = sim.take_golden_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, GoldenEventKind::Sent);
        assert_eq!(events[0].bytes, vec![7, 8, 9]);
        assert_eq!(events[0].verdict, None);
        assert_eq!(events[1].kind, GoldenEventKind::Delivered);
        assert_eq!(events[1].at, 2);
        assert_eq!(events[1].verdict, Some(Verdict::Valid));
        assert_eq!(events[1].digest, Some(0x1234));
        assert!(sim.take_golden_events().is_empty(), "log was drained");
    }

    #[test]
    fn flight_recorder_mirrors_the_golden_hook_sites() {
        let mut sim = Simulator::new(3);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(2));
        sim.set_obs(ObsConfig::off().with_flight_capacity(64));
        sim.send(ab, vec![1, 2, 3]);
        sim.set_timer(a, 5, 9);
        sim.cancel_timer(a, 9);
        while sim.step().is_some() {}
        let rec = sim.take_flight().expect("recorder installed");
        let kinds: Vec<FlightKind> = rec.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FlightKind::Send,
                FlightKind::TimerSet,
                FlightKind::TimerCancel,
                FlightKind::Deliver,
            ],
            "cancelled timer never fires"
        );
        assert_eq!(rec.events[0].subject, ab.index() as u64);
        assert_eq!(rec.events[0].detail, 3, "send carries payload bytes");
        assert_eq!(rec.events[3].at, 2, "delivery stamped at delivery time");
        assert!(sim.take_flight().is_none(), "take removes the recorder");
    }

    #[test]
    fn observability_does_not_change_the_transcript() {
        let run = |obs: ObsConfig| {
            let mut sim = Simulator::new(42);
            sim.set_obs(obs);
            let a = sim.add_node();
            let b = sim.add_node();
            let ab = sim.add_link(a, b, LinkConfig::harsh(5));
            let mut log = Vec::new();
            for i in 0..100u8 {
                sim.send(ab, vec![i; 8]);
            }
            while let Some(Event::Frame { payload, .. }) = sim.step() {
                log.push((sim.now(), payload));
            }
            log
        };
        let plain = run(ObsConfig::off());
        assert_eq!(plain, run(ObsConfig::off().with_flight()));
        assert_eq!(plain, run(ObsConfig::off().with_flight_capacity(4)));
    }

    #[test]
    fn golden_capture_off_records_nothing_and_annotation_is_inert() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(1));
        sim.send(ab, vec![1]);
        sim.step();
        sim.annotate_delivery(|| unreachable!("capture is off"));
        assert!(sim.take_golden_events().is_empty());
    }

    /// Runs a lossy unidirectional workload and logs `(at, payload)` of
    /// every delivery — the reference transcript of an unfaulted run.
    fn standalone_transcript(seed: u64, tag: u8) -> Vec<(Tick, Vec<u8>)> {
        let mut sim = Simulator::new(seed);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::harsh(5));
        for i in 0..100u8 {
            sim.send(ab, vec![tag, i]);
        }
        let mut log = Vec::new();
        while let Some(Event::Frame { payload, .. }) = sim.step() {
            log.push((sim.now(), payload));
        }
        log
    }

    #[test]
    fn consume_cancellation_removes_exactly_one_entry() {
        let mut sim = Simulator::new(0);
        let n = sim.add_node();
        sim.cancel_timer(n, 7);
        assert!(sim.consume_cancellation(n, 7));
        assert!(!sim.consume_cancellation(n, 7), "entry was consumed");
    }

    #[test]
    fn two_live_pooled_simulators_on_one_thread_stay_disjoint() {
        // A golden recorder nested in a campaign worker keeps two
        // pooled simulators alive on one thread at once. Checkout is a
        // pop: they must own disjoint structures.
        let work = |sim: &mut Simulator, tag: u8| {
            let a = sim.add_node();
            let b = sim.add_node();
            let ab = sim.add_link(a, b, LinkConfig::reliable(1));
            sim.send(ab, vec![tag; 64]);
        };
        // Warm the pool with two cores.
        {
            let mut w1 = Simulator::new(1);
            let mut w2 = Simulator::new(2);
            work(&mut w1, 0);
            work(&mut w2, 0);
            while w1.step().is_some() {}
            while w2.step().is_some() {}
        }
        let mut s1 = Simulator::new(1);
        let mut s2 = Simulator::new(2);
        work(&mut s1, 1);
        work(&mut s2, 2);
        // Each simulator sees only its own in-flight payload.
        assert_eq!(s1.arena().live(), 1);
        assert_eq!(s2.arena().live(), 1);
        let Some(Event::Frame { payload, .. }) = s1.step() else {
            panic!("s1 delivers its own frame");
        };
        assert_eq!(payload, vec![1; 64]);
        let Some(Event::Frame { payload, .. }) = s2.step() else {
            panic!("s2 delivers its own frame");
        };
        assert_eq!(payload, vec![2; 64]);
        assert!(s1.step().is_none());
        assert!(s2.step().is_none());
    }

    /// Two nodes over a lossy duplex link: frames both ways and timers
    /// on both nodes under token 7, every event logged with its tick.
    fn lossy_transcript(sim: &mut Simulator) -> Vec<(Tick, Event)> {
        let a = sim.add_node();
        let b = sim.add_node();
        let (ab, ba) = sim.add_duplex(a, b, LinkConfig::harsh(5));
        for i in 0..50u8 {
            sim.send(ab, vec![1, i]);
            sim.send(ba, vec![2, i]);
        }
        sim.set_timer(a, 40, 7);
        sim.set_timer(b, 60, 7);
        let mut log = Vec::new();
        while let Some(ev) = sim.step() {
            log.push((sim.now(), ev));
        }
        log
    }

    /// A dirty owner: a node crashed and restarted (its crash watermark
    /// stays), a skewed clock, frames and timers still queued, a lazy
    /// cancel pending, golden capture and a flight recorder on.
    fn dirty_simulator(core: SimCore) -> Simulator {
        let mut sim = Simulator::with_core(3, core);
        sim.record_golden(true);
        sim.set_obs(ObsConfig::off().with_flight());
        let a = sim.add_node();
        let b = sim.add_node();
        let (ab, ba) = sim.add_duplex(a, b, LinkConfig::harsh(5));
        for i in 0..20u8 {
            sim.send(ab, vec![i; 4]);
        }
        sim.step();
        sim.crash_node(b);
        sim.restart_node(b);
        sim.set_clock_skew(a, 5, 4);
        sim.set_timer(a, 30, 7);
        sim.cancel_timer(b, 7);
        sim.send(ba, vec![9; 4]);
        assert!(!sim.is_quiescent());
        sim
    }

    #[test]
    fn reset_leaves_a_simulator_identical_to_a_fresh_one() {
        // A new legacy core never touches the pool, and the two cores
        // replay each other bit-identically: the clean reference.
        let fresh = lossy_transcript(&mut Simulator::with_core(11, SimCore::Legacy));
        assert!(fresh.iter().any(|(_, e)| matches!(e, Event::Timer { .. })));
        for core in [SimCore::Pooled, SimCore::Legacy] {
            let mut sim = dirty_simulator(core);
            sim.reset(11);
            assert_eq!(sim.node_count(), 0, "{core:?}");
            assert_eq!(sim.total_stats(), LinkStats::default(), "{core:?}");
            assert!(sim.take_flight().is_none(), "{core:?}");
            assert!(sim.take_golden_events().is_empty(), "{core:?}");
            assert!(sim.is_quiescent(), "{core:?}");
            assert_eq!(sim.now(), 0, "{core:?}");
            assert_eq!(
                lossy_transcript(&mut sim),
                fresh,
                "{core:?}: reset leaks state"
            );
            let built = lossy_transcript(&mut Simulator::with_core(11, core));
            assert_eq!(built, fresh, "{core:?}: a new simulator differs");
        }
        // A dropped pooled core goes back to the pool through the same
        // clearing code, and the next simulator on this thread gets it.
        drop(dirty_simulator(SimCore::Pooled));
        assert_eq!(
            lossy_transcript(&mut Simulator::new(11)),
            fresh,
            "a recycled core leaks state"
        );
    }

    #[test]
    fn core_pool_is_bounded_per_thread() {
        // Dropping more pooled simulators than the cap retains only
        // CORE_POOL_CAP cores on this thread; the rest are dropped.
        let _hold: Vec<Simulator> = (0..CORE_POOL_CAP + 4)
            .map(|i| Simulator::new(i as u64))
            .collect();
        drop(_hold);
        let pooled = CORE_POOL.with(|pool| pool.borrow().len());
        assert!(
            pooled <= CORE_POOL_CAP,
            "pool holds {pooled} cores, cap is {CORE_POOL_CAP}"
        );
    }

    #[test]
    fn pooled_cores_recycle_across_simulators() {
        // Warm a simulator on this thread, drop it, and check the next
        // one starts from recycled structures (same slot count, no new
        // slab growth for the same workload).
        let work = |sim: &mut Simulator| {
            let a = sim.add_node();
            let b = sim.add_node();
            let ab = sim.add_link(a, b, LinkConfig::reliable(1));
            for _ in 0..32 {
                sim.send(ab, vec![7; 128]);
            }
            while sim.step().is_some() {}
        };
        let mut first = Simulator::new(1);
        work(&mut first);
        let warm = first.arena().stats();
        drop(first);
        let mut second = Simulator::new(1);
        work(&mut second);
        let stats = second.arena().stats();
        assert!(
            stats.payloads > warm.payloads,
            "second simulator inherited the recycled arena"
        );
        assert_eq!(
            stats.slots_created, warm.slots_created,
            "warm arena served the same workload without slab growth"
        );
    }

    #[test]
    fn crash_drops_in_flight_frames_and_retracts_timers() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(5));
        sim.send(ab, vec![1]);
        sim.set_timer(b, 3, 7);
        sim.set_timer(a, 4, 8);
        sim.crash_node(b);
        // B's timer and the in-flight frame die at pop time; A's timer
        // still fires.
        let mut seen = Vec::new();
        while let Some(ev) = sim.step() {
            seen.push(ev);
        }
        assert_eq!(seen.len(), 1);
        assert!(matches!(seen[0], Event::Timer { node, token: 8 } if node == a));
        let stats = sim.link_stats(ab);
        assert_eq!((stats.sent, stats.delivered, stats.lost), (1, 0, 1));
        assert_eq!(sim.now(), 5, "dead events still burn virtual time");
    }

    #[test]
    fn crash_floor_survives_restart() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(5));
        sim.send(ab, vec![1]); // scheduled before the crash: dead forever
        sim.crash_node(b);
        sim.restart_node(b);
        sim.send(ab, vec![2]); // scheduled after the restart: delivered
        let mut delivered = Vec::new();
        while let Some(Event::Frame { payload, .. }) = sim.step() {
            delivered.push(payload);
        }
        assert_eq!(delivered, vec![vec![2]]);
        let stats = sim.link_stats(ab);
        assert_eq!((stats.delivered, stats.lost), (1, 1));
    }

    #[test]
    fn clock_skew_scales_timer_delays_at_set_time() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.set_timer(a, 100, 1); // armed before the skew: unscaled
        sim.set_clock_skew(a, 5, 4);
        sim.set_timer(a, 100, 2); // 100 * 5/4 = 125
        sim.set_timer(b, 100, 3); // other node: unscaled
        let mut fired = Vec::new();
        while let Some(Event::Timer { token, .. }) = sim.step() {
            fired.push((sim.now(), token));
        }
        assert_eq!(fired, vec![(100, 1), (100, 3), (125, 2)]);
        sim.set_clock_skew(a, 1, 1);
        sim.set_timer(a, 100, 4);
        while let Some(Event::Timer { token, .. }) = sim.step() {
            assert_eq!((sim.now(), token), (225, 4), "(1, 1) removes the skew");
        }
    }

    #[test]
    fn unfaulted_runs_pay_no_fault_bookkeeping() {
        // The fast-path flag: a run that never crashes or skews must
        // produce the exact transcript it did before the fault engine
        // existed (this is the golden-fixture compatibility guarantee).
        let plain = standalone_transcript(11, 9);
        assert!(!plain.is_empty());
        let mut sim = Simulator::new(11);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::harsh(5));
        // Crash (and restart) an unrelated third node: dead checks are
        // keyed per node, so the transcript is unchanged.
        let c = sim.add_node();
        sim.crash_node(c);
        sim.restart_node(c);
        for i in 0..100u8 {
            sim.send(ab, vec![9, i]);
        }
        let mut log = Vec::new();
        while let Some(Event::Frame { payload, .. }) = sim.step() {
            log.push((sim.now(), payload));
        }
        assert_eq!(log, plain);
    }

    #[test]
    fn note_fault_records_a_flight_event() {
        let mut sim = Simulator::new(0);
        sim.set_obs(ObsConfig::off().with_flight());
        sim.note_fault(3, 2);
        let rec = sim.take_flight().unwrap();
        assert_eq!(rec.events.len(), 1);
        assert_eq!(rec.events[0].kind, FlightKind::Fault);
        assert_eq!((rec.events[0].subject, rec.events[0].detail), (3, 2));
    }
}
