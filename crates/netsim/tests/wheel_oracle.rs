//! End-to-end scheduler equivalence: a simulator (timer wheel + payload
//! arena) must replay a `BinaryHeap` model of its event queue
//! **bit-identically** under arbitrary schedules — the heap is the
//! ordering oracle the wheel is verified against. Complements the
//! in-module wheel-vs-heap unit proptests (`src/wheel.rs`), which drive
//! the structures directly.
//!
//! The link loses and duplicates frames but never corrupts or jitters
//! them, so every scheduled copy's tick and bytes are known to the
//! model. How many copies a send scheduled is read from the link's
//! statistics; the model owns everything else: `(at, seq)` order, the
//! lazy-cancel rule and the clock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use netdsl_netsim::{Event, LinkConfig, Simulator, Tick};

/// Link delay of the schedule's one link.
const DELAY: Tick = 3;

/// One step of a random schedule, applied identically to the simulator
/// and the model.
#[derive(Debug, Clone)]
enum Op {
    /// Send a frame of `len` bytes (contents derived from the index).
    Send { len: usize },
    /// Arm a timer `delay` ticks out (delays reach deep into the
    /// wheel's far/overflow level). Tokens repeat, so several pending
    /// timers can carry one.
    Timer { delay: Tick, token: u64 },
    /// Cancel `token`: the next timer carrying it that pops is skipped.
    Cancel { token: u64 },
    /// Schedule a fault `delay` ticks out, tagged with the entry index.
    Fault { delay: Tick },
    /// Pop up to `n` events before continuing to schedule.
    Step { n: usize },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..64).prop_map(|len| Op::Send { len }),
        (prop_oneof![0u64..8, 0u64..2_000, 0u64..100_000], 0u64..4)
            .prop_map(|(delay, token)| Op::Timer { delay, token }),
        (0u64..4).prop_map(|token| Op::Cancel { token }),
        prop_oneof![0u64..8, 0u64..2_000].prop_map(|delay| Op::Fault { delay }),
        (1usize..4).prop_map(|n| Op::Step { n }),
    ]
}

/// An event as the transcript records it, and as the model queues it.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Logged {
    Frame(Vec<u8>),
    Timer(u64),
    Fault(usize),
}

impl From<Event> for Logged {
    fn from(event: Event) -> Self {
        match event {
            Event::Frame { payload, .. } => Logged::Frame(payload),
            Event::Timer { token, .. } => Logged::Timer(token),
            Event::Fault { index } => Logged::Fault(index),
        }
    }
}

/// One transcript entry: the clock when the event popped, and the event.
type Entry = (Tick, Logged);

/// The simulator's event queue as the pre-wheel engine kept it: a
/// binary heap ordered by `(at, seq)`, with lazy timer cancellation.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(Tick, u64, Logged)>>,
    seq: u64,
    now: Tick,
    /// Cancelled timer tokens not yet consumed, as a multiset.
    cancels: Vec<u64>,
}

impl HeapModel {
    /// Queues `event` `delay` ticks from now.
    fn push(&mut self, delay: Tick, event: Logged) {
        self.heap.push(Reverse((self.now + delay, self.seq, event)));
        self.seq += 1;
    }

    /// Pops like `Simulator::step`: the next popped timer that carries
    /// a cancelled token consumes that cancel and is skipped, though
    /// its tick still moves the clock.
    fn step(&mut self) -> Option<Entry> {
        while let Some(Reverse((at, _, event))) = self.heap.pop() {
            self.now = at;
            if let Logged::Timer(token) = event {
                if let Some(i) = self.cancels.iter().position(|&t| t == token) {
                    self.cancels.swap_remove(i);
                    continue;
                }
            }
            return Some((at, event));
        }
        None
    }
}

/// Runs one schedule on a simulator and on the heap model and returns
/// both transcripts of every event, simulator first.
fn transcripts(seed: u64, plan: &[Op]) -> (Vec<Entry>, Vec<Entry>) {
    let mut sim = Simulator::new(seed);
    let a = sim.add_node();
    let b = sim.add_node();
    let ab = sim.add_link(a, b, LinkConfig::lossy(DELAY, 0.2).with_duplicate(0.2));
    let mut model = HeapModel::default();
    let (mut simulated, mut modelled) = (Vec::new(), Vec::new());
    for (i, op) in plan.iter().enumerate() {
        match *op {
            Op::Send { len } => {
                let before = *sim.link_stats(ab);
                let payload = vec![i as u8; len];
                sim.send(ab, payload.clone());
                let after = sim.link_stats(ab);
                let copies = if after.lost > before.lost {
                    0
                } else {
                    1 + after.duplicated - before.duplicated
                };
                for _ in 0..copies {
                    model.push(DELAY, Logged::Frame(payload.clone()));
                }
            }
            Op::Timer { delay, token } => {
                sim.set_timer(a, delay, token);
                model.push(delay, Logged::Timer(token));
            }
            Op::Cancel { token } => {
                sim.cancel_timer(a, token);
                model.cancels.push(token);
            }
            Op::Fault { delay } => {
                sim.schedule_fault(sim.now() + delay, i);
                model.push(delay, Logged::Fault(i));
            }
            Op::Step { n } => {
                for _ in 0..n {
                    let Some(ev) = sim.step() else { break };
                    simulated.push((sim.now(), ev.into()));
                }
                modelled.extend(std::iter::from_fn(|| model.step()).take(n));
            }
        }
    }
    while let Some(ev) = sim.step() {
        simulated.push((sim.now(), ev.into()));
    }
    modelled.extend(std::iter::from_fn(|| model.step()));
    (simulated, modelled)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The simulator's transcript equals the heap model's for any
    /// schedule and seed: same event order, same times, same payload
    /// bytes.
    #[test]
    fn simulator_replays_the_heap_model(
        seed in 0u64..1_000,
        plan in proptest::collection::vec(op(), 1..80),
    ) {
        let (simulated, modelled) = transcripts(seed, &plan);
        prop_assert_eq!(simulated, modelled);
    }
}

/// Deterministic regression: long-delay timers cross several wheel
/// chunks while short-delay frames interleave — the cascade path.
#[test]
fn cascading_far_timers_match_the_heap() {
    let plan: Vec<Op> = (0..50)
        .flat_map(|i| {
            [
                Op::Timer {
                    delay: (i % 7) * 1_500,
                    token: i,
                },
                Op::Send { len: 16 },
                Op::Step { n: 1 },
            ]
        })
        .collect();
    let (simulated, modelled) = transcripts(9, &plan);
    assert!(simulated.len() > 50, "the schedule ran");
    assert_eq!(simulated, modelled);
}
