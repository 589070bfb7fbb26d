//! Property tests for the event queue's ordering contract: events pop
//! in ascending `(at, seq)`, a total order because `seq` is the
//! simulator's unique insertion counter, so time never runs backwards
//! and events scheduled for the *same* tick pop in insertion order —
//! the determinism guarantee every replayable scenario rests on.

use proptest::prelude::*;

use netdsl_netsim::{Event, LinkConfig, Simulator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Timers with arbitrary (heavily colliding) delays fire in
    /// `(tick, insertion order)` — a stable total order.
    #[test]
    fn equal_tick_timers_pop_in_insertion_order(
        delays in proptest::collection::vec(0u64..6, 1..40),
    ) {
        let mut sim = Simulator::new(0);
        let node = sim.add_node();
        for (token, &delay) in delays.iter().enumerate() {
            sim.set_timer(node, delay, token as u64);
        }
        let mut popped = Vec::new();
        while let Some(Event::Timer { token, .. }) = sim.step() {
            popped.push((sim.now(), token));
        }
        // Stable sort of (delay, insertion index) is exactly the
        // required pop order; token uniqueness makes it total.
        let mut expected: Vec<(u64, u64)> = delays
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, i as u64))
            .collect();
        expected.sort();
        prop_assert_eq!(popped, expected);
    }

    /// Frames racing through a fixed-delay link (every delivery lands on
    /// the same tick pattern) arrive in send order.
    #[test]
    fn equal_tick_frames_deliver_in_send_order(
        count in 1usize..30,
        delay in 0u64..5,
    ) {
        let mut sim = Simulator::new(1);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(delay));
        for i in 0..count {
            sim.send(ab, vec![i as u8]);
        }
        let mut got = Vec::new();
        while let Some(Event::Frame { payload, .. }) = sim.step() {
            prop_assert!(sim.now() == delay, "all deliveries on one tick");
            got.push(payload[0]);
        }
        let expected: Vec<u8> = (0..count as u8).collect();
        prop_assert_eq!(got, expected);
    }

    /// Timers, frames and faults interleaved on colliding ticks still
    /// pop in a single global `(tick, insertion)` order.
    #[test]
    fn mixed_event_kinds_share_one_total_order(
        plan in proptest::collection::vec((0u64..4, 0u8..3), 1..30),
    ) {
        let mut sim = Simulator::new(2);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(0));
        let mut expected: Vec<(u64, u64)> = Vec::new();
        for (i, &(delay, kind)) in plan.iter().enumerate() {
            let id = i as u64;
            match kind {
                0 => {
                    sim.set_timer(a, delay, id);
                    expected.push((delay, id));
                }
                1 => {
                    sim.schedule_fault(delay, i);
                    expected.push((delay, id));
                }
                _ => {
                    // A reliable zero-delay link delivers at `now + 0`:
                    // frames here always land at tick 0 alongside
                    // delay-0 timers and faults.
                    sim.send(ab, vec![id as u8]);
                    expected.push((0, id));
                }
            }
        }
        expected.sort();
        let mut popped = Vec::new();
        loop {
            match sim.step() {
                Some(Event::Timer { token, .. }) => popped.push((sim.now(), token)),
                Some(Event::Frame { payload, .. }) => {
                    popped.push((sim.now(), u64::from(payload[0])))
                }
                Some(Event::Fault { index }) => popped.push((sim.now(), index as u64)),
                None => break,
            }
        }
        prop_assert_eq!(popped, expected);
    }
}
