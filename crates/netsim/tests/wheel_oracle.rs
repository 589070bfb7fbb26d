//! End-to-end scheduler equivalence: a simulator on the pooled core
//! (timer wheel + payload arena) must replay a simulator on the legacy
//! core (binary heap + owned buffers) **bit-identically** under
//! arbitrary schedules — the heap is the ordering oracle the wheel is
//! verified against. Complements the in-module wheel-vs-heap unit
//! proptests (`src/wheel.rs`), which drive the structures directly.

use proptest::prelude::*;

use netdsl_netsim::{Event, LinkConfig, SimCore, Simulator, Tick};

/// One step of a random schedule, applied identically to both cores.
#[derive(Debug, Clone)]
enum Op {
    /// Send a frame of `len` bytes (contents derived from the index).
    Send { len: usize },
    /// Arm a timer `delay` ticks out (delays reach deep into the
    /// wheel's far/overflow level).
    Timer { delay: Tick },
    /// Cancel the timer armed by schedule entry `which` (mod count).
    Cancel { which: usize },
    /// Schedule a fault `delay` ticks out, tagged with the entry index.
    Fault { delay: Tick },
    /// Pop up to `n` events before continuing to schedule.
    Step { n: usize },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..64).prop_map(|len| Op::Send { len }),
        prop_oneof![0u64..8, 0u64..2_000, 0u64..100_000].prop_map(|delay| Op::Timer { delay }),
        (0usize..16).prop_map(|which| Op::Cancel { which }),
        prop_oneof![0u64..8, 0u64..2_000].prop_map(|delay| Op::Fault { delay }),
        (1usize..4).prop_map(|n| Op::Step { n }),
    ]
}

/// One transcript entry: `(now, discriminant, payload, token or index)`.
fn entry(now: Tick, event: Event) -> (Tick, u8, Vec<u8>) {
    match event {
        Event::Frame { payload, .. } => (now, 0, payload),
        Event::Timer { token, .. } => (now, 1, token.to_le_bytes().to_vec()),
        Event::Fault { index } => (now, 2, (index as u64).to_le_bytes().to_vec()),
    }
}

/// Runs one schedule on the given core and returns the full transcript
/// of every event.
fn transcript(core: SimCore, seed: u64, plan: &[Op]) -> Vec<(Tick, u8, Vec<u8>)> {
    let mut sim = Simulator::with_core(seed, core);
    let a = sim.add_node();
    let b = sim.add_node();
    let ab = sim.add_link(a, b, LinkConfig::harsh(3));
    let mut log = Vec::new();
    let mut timer_token = 0u64;
    for (i, op) in plan.iter().enumerate() {
        match *op {
            Op::Send { len } => {
                sim.send(ab, vec![i as u8; len]);
            }
            Op::Timer { delay } => {
                sim.set_timer(a, delay, timer_token);
                timer_token += 1;
            }
            Op::Cancel { which } => {
                if timer_token > 0 {
                    sim.cancel_timer(a, which as u64 % timer_token);
                }
            }
            Op::Fault { delay } => sim.schedule_fault(sim.now() + delay, i),
            Op::Step { n } => {
                for _ in 0..n {
                    let Some(ev) = sim.step() else { break };
                    log.push(entry(sim.now(), ev));
                }
            }
        }
    }
    while let Some(ev) = sim.step() {
        log.push(entry(sim.now(), ev));
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pooled core's transcript equals the legacy core's for any
    /// schedule and seed: same event order, same times, same (possibly
    /// impaired) payload bytes.
    #[test]
    fn pooled_core_replays_legacy_core(
        seed in 0u64..1_000,
        plan in proptest::collection::vec(op(), 1..80),
    ) {
        prop_assert_eq!(
            transcript(SimCore::Pooled, seed, &plan),
            transcript(SimCore::Legacy, seed, &plan)
        );
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
                },
                Op::Send { len: 16 },
                Op::Step { n: 1 },
            ]
        })
        .collect();
    assert_eq!(
        transcript(SimCore::Pooled, 9, &plan),
        transcript(SimCore::Legacy, 9, &plan)
    );
}
