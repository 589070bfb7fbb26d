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
//!   `wheel` module) in exact `(at, seq)` pop order, property-tested
//!   against a binary-heap model of the queue (the wheel's unit tests
//!   and `tests/wheel_oracle.rs`).
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

use netdsl_obs::{
    Counter, FlightEvent, FlightKind, FlightRecorder, FlightRecording, Histogram, ObsConfig, Tally,
    DEFAULT_FLIGHT_CAPACITY,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::arena::{PayloadArena, PayloadRef};
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

/// Node and link tables. The core pool recycles them with the arena and
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

#[derive(Debug)]
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

/// What a simulator takes from and returns to [`CORE_POOL`]: its
/// arena, wheel and tables, and its spare flight recorder.
type PooledCore = (
    PayloadArena,
    TimerWheel<Pending>,
    Tables,
    Option<Box<FlightRecorder>>,
);

thread_local! {
    /// Warm `(arena, wheel, tables, spare recorder)` cores recycled
    /// across the simulators on this thread — how a campaign worker runs
    /// thousands of scenarios without re-growing any of them. Capacities
    /// persist; all contents are reset between owners.
    ///
    /// Checkout is a `pop` (exclusive ownership transfer), so any
    /// number of simulators alive on one thread at once — e.g. a
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

/// Engine metrics (`netdsl-obs`). No frame or timer path touches them:
/// a simulator counts into its links' [`LinkStats`] and its [`Counts`],
/// and adds the totals here once, when it drops while
/// [`netdsl_obs::set_metrics_enabled`] has the registry on.
static FRAMES_SENT: Counter = Counter::new("sim.frames_sent");
static FRAMES_DELIVERED: Counter = Counter::new("sim.frames_delivered");
static FRAMES_DROPPED: Counter = Counter::new("sim.frames_dropped");
static FRAMES_CORRUPTED: Counter = Counter::new("sim.frames_corrupted");
static TIMERS_SET: Counter = Counter::new("sim.timers_set");
static TIMERS_FIRED: Counter = Counter::new("sim.timers_fired");
static TIMERS_CANCELLED: Counter = Counter::new("sim.timers_cancelled");
static FRAME_BYTES: Histogram = Histogram::new("sim.frame_bytes");
static FAULTS_INJECTED: Counter = Counter::new("fault.injected");

/// What a simulator counts for the metric registry beside its links'
/// [`LinkStats`], as plain fields.
#[derive(Debug, Default)]
struct Counts {
    /// Link counts of the sessions [`Simulator::reset`] has closed.
    closed: LinkStats,
    timers_set: u64,
    timers_fired: u64,
    timers_cancelled: u64,
    faults_injected: u64,
    /// Sizes of the frames sent.
    frame_bytes: Tally,
}

impl Counts {
    /// Adds these counts, with the open session's link counts `open`, to
    /// the registry. Zeros are skipped, so a metric that no session
    /// touched stays absent from snapshots.
    fn publish(&self, open: LinkStats) {
        let links = self.closed.merge(open);
        for (counter, n) in [
            (&FRAMES_SENT, links.sent),
            (&FRAMES_DELIVERED, links.delivered),
            (&FRAMES_DROPPED, links.lost),
            (&FRAMES_CORRUPTED, links.corrupted),
            (&TIMERS_SET, self.timers_set),
            (&TIMERS_FIRED, self.timers_fired),
            (&TIMERS_CANCELLED, self.timers_cancelled),
            (&FAULTS_INJECTED, self.faults_injected),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
        if self.frame_bytes.count() > 0 {
            FRAME_BYTES.add(&self.frame_bytes);
        }
    }
}

/// A deterministic discrete-event network simulator.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Simulator {
    time: Tick,
    seq: u64,
    /// Pending events, popped in ascending `(at, seq)`: `seq` is the
    /// monotone insertion counter, so ties at equal `at` resolve by
    /// insertion order (property-tested in `tests/heap_order.rs`).
    queue: TimerWheel<Pending>,
    arena: PayloadArena,
    /// The impairment RNG stream, seeded by the constructor or
    /// [`Simulator::reset`].
    rng: ChaCha12Rng,
    tables: Tables,
    /// The one event recorder — a ring, or a transcript that golden
    /// traces are projected from — boxed behind an `Option`: the hot
    /// path pays one branch when none is installed.
    flight: Option<Box<FlightRecorder>>,
    /// A recorder that [`Simulator::reset`] or [`Simulator::set_obs`]
    /// removed, kept so that the next one installed reuses its ring: a
    /// batch that resets one simulator per session allocates it once,
    /// and the core pool hands it to the next simulator on the thread.
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
    counts: Counts,
}

impl Simulator {
    /// Creates a simulator whose randomness is fully determined by
    /// `seed`. Its arena, wheel, node and link tables and spare flight
    /// recorder come from a thread-local recycling pool, and go back to
    /// it, reset, on drop.
    pub fn new(seed: u64) -> Self {
        let (arena, queue, tables, spare_flight) = CORE_POOL
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_default();
        Simulator {
            time: 0,
            seq: 0,
            queue,
            arena,
            rng: ChaCha12Rng::seed_from_u64(seed),
            tables,
            flight: None,
            spare_flight,
            faulted: false,
            node_down: Vec::new(),
            crash_floor: Vec::new(),
            node_skew: Vec::new(),
            counts: Counts::default(),
        }
    }

    /// Empties this simulator in place and reseeds it: afterwards it is
    /// observably identical to `Simulator::new(seed)` — clock, event
    /// sequence, queue, arena, nodes, links, pending cancels, fault
    /// state and flight recorder all start over — while its
    /// structures keep their capacity. Outstanding [`PayloadRef`]s are
    /// invalidated. Only the counts this simulator publishes to the
    /// metric registry when it drops carry over.
    pub fn reset(&mut self, seed: u64) {
        self.counts.closed = self.counts.closed.merge(self.total_stats());
        self.clear();
        self.rng = ChaCha12Rng::seed_from_u64(seed);
    }

    /// Everything [`Simulator::reset`] empties; also what a core goes
    /// through on its way back to the pool.
    fn clear(&mut self) {
        self.time = 0;
        self.seq = 0;
        self.queue.reset();
        self.arena.reset();
        self.tables.reset();
        self.park_flight();
        self.faulted = false;
        self.node_down.clear();
        self.crash_floor.clear();
        self.node_skew.clear();
    }

    /// Installs the flight recorder a scenario's [`ObsConfig`] selects,
    /// or none. The metric registry is not per scenario:
    /// [`netdsl_obs::set_metrics_enabled`] turns it on, and the
    /// simulator publishes its counts when it drops. Telemetry never
    /// changes behaviour: RNG draws and results are identical with or
    /// without it, and a ring records what a transcript does less its
    /// digests (pinned by `tests/flight_parity.rs`; overhead measured
    /// by bench E16).
    pub fn set_obs(&mut self, cfg: ObsConfig) {
        self.park_flight();
        self.flight = cfg
            .flight
            .map(|mode| FlightRecorder::for_mode(mode, self.spare_flight.take()));
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

    /// Records a [`FlightKind::Digest`] of `node`'s endpoint, which has
    /// just handled the latest delivery. `digest` runs only under a
    /// transcript recorder, so the call costs one branch otherwise.
    pub fn flight_digest(&mut self, node: NodeId, digest: impl FnOnce() -> u64) {
        if self.flight.as_ref().is_some_and(|f| f.is_transcript()) {
            self.flight_record(FlightKind::Digest, node.index() as u64, digest());
        }
    }

    /// Records a `Send` or `Deliver` of the payload behind `frame`,
    /// whose length is the event's detail (a transcript also keeps its
    /// bytes).
    #[inline]
    fn flight_frame(&mut self, kind: FlightKind, link: LinkId, frame: &PayloadRef) {
        if let Some(f) = &mut self.flight {
            let wire = self.arena.get(frame);
            let event = FlightEvent {
                at: self.time,
                kind,
                subject: link.index() as u64,
                detail: wire.len() as u64,
            };
            f.record_frame(event, wire);
        }
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
        self.counts.frame_bytes.record(len as u64);
        self.flight_frame(FlightKind::Send, link, &payload);

        if self.rng.random_bool(loss) {
            self.tables.links[link.0].stats.lost += 1;
            self.flight_record(FlightKind::Drop, link.index() as u64, 0);
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
            self.flight_record(FlightKind::Corrupt, link.index() as u64, 0);
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
        self.counts.timers_set += 1;
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
        self.counts.timers_cancelled += 1;
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

    /// Records one fault application in the observability layer: counts
    /// it toward `fault.injected`, which the registry hears when the
    /// simulator drops, and logs a [`FlightKind::Fault`] event
    /// (`subject` = node or link index, `detail` = fault-kind
    /// discriminant). Called by [`crate::scenario::apply_fault`] so
    /// every driver reports faults identically.
    pub fn note_fault(&mut self, subject: u64, detail: u64) {
        self.counts.faults_injected += 1;
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
    /// the loss path of [`Simulator::send_ref`] (stats and flight) and
    /// releases the payload.
    fn note_crash_drop(&mut self, link: LinkId, payload: PayloadRef) {
        self.tables.links[link.0].stats.lost += 1;
        self.flight_record(FlightKind::Drop, link.index() as u64, 0);
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
                    self.tables.links[link.0].stats.delivered += 1;
                    self.flight_frame(FlightKind::Deliver, link, &payload);
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
                    self.counts.timers_fired += 1;
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
        if netdsl_obs::metrics_enabled() {
            self.counts.publish(self.total_stats());
        }
        CORE_POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < CORE_POOL_CAP {
                self.clear();
                // The placeholder must not allocate: a dropped simulator
                // leaves an empty wheel behind, not a fresh one.
                let wheel = std::mem::replace(&mut self.queue, TimerWheel::empty());
                let arena = std::mem::take(&mut self.arena);
                let tables = std::mem::take(&mut self.tables);
                // A transcript that grew past a default ring is dropped,
                // as oversized tables shrink back.
                let spare = self
                    .spare_flight
                    .take()
                    .filter(|r| r.allocated() <= DEFAULT_FLIGHT_CAPACITY as usize);
                pool.push((arena, wheel, tables, spare));
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
        // The core-pool determinism contract: same seed ⇒ identical
        // transcript whether the simulator's structures are built fresh
        // (a new thread's pool is empty) or recycled from a dirty owner.
        let run = || {
            let mut sim = Simulator::new(42);
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
        let fresh = std::thread::spawn(run).join().unwrap();
        drop(dirty_simulator());
        assert_eq!(run(), fresh);
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

    const TRANSCRIPT: ObsConfig = ObsConfig {
        flight: Some(netdsl_obs::FlightMode::Transcript),
    };

    #[test]
    fn golden_capture_logs_wire_bytes_and_annotations() {
        // Golden capture is a transcript recorder: it keeps the wire
        // bytes of sends and deliveries and takes the endpoint's digest.
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(2));
        sim.set_obs(TRANSCRIPT);
        sim.send(ab, vec![7, 8, 9]);
        let ev = sim.step_ref().unwrap();
        let EventRef::Frame { payload, .. } = ev else {
            panic!("expected a frame");
        };
        sim.release_payload(payload);
        sim.flight_digest(b, || 0x1234);
        let rec = sim.take_flight().expect("recorder installed");
        let events: Vec<_> = rec
            .events
            .iter()
            .map(|e| (e.at, e.kind, e.subject, e.detail))
            .collect();
        assert_eq!(
            events,
            [
                (0, FlightKind::Send, ab.index() as u64, 3),
                (2, FlightKind::Deliver, ab.index() as u64, 3),
                (2, FlightKind::Digest, b.index() as u64, 0x1234),
            ]
        );
        assert_eq!(rec.wire, [7, 8, 9, 7, 8, 9], "sent, then delivered");
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
        assert_eq!(plain, run(TRANSCRIPT));
    }

    #[test]
    fn golden_capture_off_records_nothing_and_annotation_is_inert() {
        // Without a transcript recorder no digest is computed, and a
        // ring keeps no wire bytes.
        for obs in [ObsConfig::off(), ObsConfig::off().with_flight()] {
            let mut sim = Simulator::new(0);
            sim.set_obs(obs);
            let a = sim.add_node();
            let b = sim.add_node();
            let ab = sim.add_link(a, b, LinkConfig::reliable(1));
            sim.send(ab, vec![1]);
            sim.step();
            sim.flight_digest(b, || unreachable!("capture is off"));
            if let Some(rec) = sim.take_flight() {
                assert_eq!(rec.events.len(), 2);
                assert!(rec.wire.is_empty());
            }
        }
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
    /// cancel pending, a transcript recorder on and a ring as spare.
    fn dirty_simulator() -> Simulator {
        let mut sim = Simulator::new(3);
        sim.set_obs(ObsConfig::off().with_flight());
        sim.set_obs(TRANSCRIPT);
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
        // A new thread's pool is empty, so the simulator built there
        // never held anyone's state: the clean reference.
        let fresh = std::thread::spawn(|| lossy_transcript(&mut Simulator::new(11)))
            .join()
            .unwrap();
        assert!(fresh.iter().any(|(_, e)| matches!(e, Event::Timer { .. })));
        let mut sim = dirty_simulator();
        sim.reset(11);
        assert_eq!(sim.node_count(), 0);
        assert_eq!(sim.total_stats(), LinkStats::default());
        assert!(sim.take_flight().is_none());
        assert!(sim.is_quiescent());
        assert_eq!(sim.now(), 0);
        assert_eq!(lossy_transcript(&mut sim), fresh, "reset leaks state");
        // A dropped core goes back to the pool through the same clearing
        // code, and the next simulator on this thread gets it.
        drop(sim);
        drop(dirty_simulator());
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
    fn the_core_pool_keeps_a_ring_empty_and_drops_a_grown_transcript() {
        let ring = ObsConfig::off().with_flight();
        let pooled_spare =
            || CORE_POOL.with(|pool| pool.borrow().last().map(|core| core.3.is_some()));
        let mut sim = Simulator::new(1);
        sim.set_obs(ring);
        assert!(!lossy_transcript(&mut sim).is_empty());
        drop(sim);
        assert_eq!(pooled_spare(), Some(true), "the ring is pooled");
        let mut next = Simulator::new(1);
        next.set_obs(ring);
        let recording = next.take_flight().expect("a ring is installed");
        assert_eq!(
            (recording.recorded, recording.events.len()),
            (0, 0),
            "a pooled ring carries no events into its next owner"
        );
        drop(next);

        let mut sim = Simulator::new(2);
        sim.set_obs(TRANSCRIPT);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(1));
        for _ in 0..DEFAULT_FLIGHT_CAPACITY {
            sim.send(ab, vec![0]);
        }
        while sim.step().is_some() {}
        drop(sim);
        assert_eq!(pooled_spare(), Some(false), "a grown transcript is dropped");
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
