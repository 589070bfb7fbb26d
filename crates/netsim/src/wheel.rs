//! Hierarchical timer wheel: the simulator's event scheduler.
//!
//! Replaces the old `BinaryHeap<Reverse<Scheduled>>` (still available
//! as [`SimCore::Legacy`](crate::sim::SimCore) — it is both the E13
//! baseline and the ordering oracle for this module's property tests).
//!
//! Two levels:
//!
//! * a **near ring** of [`SLOTS`] one-tick buckets covering the window
//!   `[base, base + SLOTS)`, with an occupancy bitmap so finding the
//!   next non-empty bucket is a handful of word scans — almost every
//!   event in a protocol run (link delay + jitter, retransmission
//!   timers) lands here and never touches a map;
//! * a **far overflow** keyed by chunk (`at / SLOTS`) for events beyond
//!   the window. When the near ring drains, the lowest chunk cascades
//!   into the ring in one pass; emptied chunk vectors are kept and
//!   reused, so chunk churn performs no steady-state allocation either.
//!
//! The ordering contract is exactly the heap's: entries pop in
//! ascending `(at, seq)` where `seq` is the caller's monotone insertion
//! counter — so simultaneous events pop in insertion order and a replay
//! is bit-identical regardless of scheduler. Property tests below (and
//! `tests/wheel_oracle.rs` end-to-end) pin the equivalence against a
//! real `BinaryHeap` oracle.
//!
//! Pushing is only legal at or after the last popped tick (`at` never
//! precedes the cursor) — trivially true for a discrete-event simulator
//! whose delays are unsigned offsets from *now*.

use std::collections::{BTreeMap, VecDeque};

use crate::Tick;

/// Near-ring size in one-tick slots (must be a power of two).
pub(crate) const SLOTS: usize = 1 << 9;
const MASK: u64 = (SLOTS as u64) - 1;
const WORDS: usize = SLOTS / 64;

/// A two-level timer wheel holding entries of type `E` ordered by
/// `(at, seq)`.
#[derive(Debug)]
pub(crate) struct TimerWheel<E> {
    /// Absolute tick of near slot 0; always a multiple of [`SLOTS`].
    base: Tick,
    /// Near-ring scan cursor: every slot below it is empty.
    cursor: usize,
    /// One-tick buckets. Entries are appended in ascending `seq` (the
    /// caller's counter is globally monotone and a cascade preserves
    /// push order into emptied slots), so the front of a bucket is
    /// always its minimum — pops are O(1) even for huge same-tick
    /// bursts, where a min-scan would be quadratic.
    near: Vec<VecDeque<(Tick, u64, E)>>,
    /// One bit per near slot, set while the slot is non-empty.
    occupied: [u64; WORDS],
    near_len: usize,
    /// Chunk id (`at / SLOTS`) → its events, unordered within.
    far: BTreeMap<u64, Vec<(Tick, u64, E)>>,
    /// Emptied chunk vectors kept for reuse.
    spare_chunks: Vec<Vec<(Tick, u64, E)>>,
    len: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        TimerWheel {
            base: 0,
            cursor: 0,
            near: (0..SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; WORDS],
            near_len: 0,
            far: BTreeMap::new(),
            spare_chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<E> TimerWheel<E> {
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        TimerWheel::default()
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `entry` at `(at, seq)`. `at` must not precede the last
    /// popped tick and `seq` must be unique (the simulator's monotone
    /// event counter guarantees both).
    pub(crate) fn push(&mut self, at: Tick, seq: u64, entry: E) {
        debug_assert!(at >= self.base, "scheduling into the past");
        if at - self.base < SLOTS as Tick {
            let idx = (at & MASK) as usize;
            debug_assert!(idx >= self.cursor, "scheduling behind the scan cursor");
            debug_assert!(
                self.near[idx].back().is_none_or(|&(_, s, _)| s < seq),
                "slot seq order must stay ascending"
            );
            self.near[idx].push_back((at, seq, entry));
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.near_len += 1;
        } else {
            self.far
                .entry(at >> SLOTS.trailing_zeros())
                .or_insert_with(|| self.spare_chunks.pop().unwrap_or_default())
                .push((at, seq, entry));
        }
        self.len += 1;
    }

    /// First set bit at or after `self.cursor`, if any.
    fn next_occupied(&self) -> Option<usize> {
        let mut word = self.cursor / 64;
        let mut bits = self.occupied[word] & (!0u64 << (self.cursor % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= WORDS {
                return None;
            }
            bits = self.occupied[word];
        }
    }

    /// Moves the lowest far chunk into the near ring. Caller ensures
    /// the ring is empty and `far` is not.
    fn cascade(&mut self) {
        let (&chunk, _) = self.far.first_key_value().expect("cascade with far events");
        let mut events = self.far.remove(&chunk).expect("chunk present");
        self.base = chunk << SLOTS.trailing_zeros();
        self.cursor = 0;
        for (at, seq, entry) in events.drain(..) {
            let idx = (at & MASK) as usize;
            debug_assert!(
                self.near[idx].back().is_none_or(|&(_, s, _)| s < seq),
                "cascade preserves ascending seq per slot"
            );
            self.near[idx].push_back((at, seq, entry));
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.near_len += 1;
        }
        self.recycle_chunk(events);
    }

    /// Parks an emptied chunk vector for reuse, subject to the same
    /// retention bounds as [`reset`](TimerWheel::reset) — an oversized
    /// burst chunk (or an unbounded parade of distinct chunks) must not
    /// accumulate in the pool.
    fn recycle_chunk(&mut self, chunk: Vec<(Tick, u64, E)>) {
        if chunk.capacity() <= Self::RETAIN_ENTRIES && self.spare_chunks.len() < Self::RETAIN_CHUNKS
        {
            self.spare_chunks.push(chunk);
        }
    }

    /// Removes and returns the entry with the smallest `(at, seq)`.
    pub(crate) fn pop(&mut self) -> Option<(Tick, u64, E)> {
        if self.len == 0 {
            return None;
        }
        if self.near_len == 0 {
            self.cascade();
        }
        let idx = self
            .next_occupied()
            .expect("near_len > 0 implies an occupied slot");
        let slot = &mut self.near[idx];
        // All entries in a one-tick slot share `at` and sit in
        // ascending seq order (see the field docs), so the front is
        // the global minimum.
        let entry = slot.pop_front().expect("occupied slot is non-empty");
        if slot.is_empty() {
            self.occupied[idx / 64] &= !(1 << (idx % 64));
        }
        self.cursor = idx;
        self.near_len -= 1;
        self.len -= 1;
        Some(entry)
    }

    /// Entry capacity above which a slot or chunk vector is dropped on
    /// [`reset`](TimerWheel::reset) instead of retained, and the cap on
    /// parked spare chunk vectors — so one burst-heavy scenario cannot
    /// pin its peak in the recycle pool forever.
    const RETAIN_ENTRIES: usize = 1024;
    const RETAIN_CHUNKS: usize = 32;

    /// Empties the wheel in place, keeping ordinary slot and chunk
    /// capacity (outliers beyond `RETAIN_ENTRIES` are dropped) — how a
    /// recycled simulator core starts its next scenario without
    /// reallocating.
    pub(crate) fn reset(&mut self) {
        for word in 0..WORDS {
            let mut bits = self.occupied[word];
            while bits != 0 {
                let idx = word * 64 + bits.trailing_zeros() as usize;
                if self.near[idx].capacity() > Self::RETAIN_ENTRIES {
                    self.near[idx] = VecDeque::new();
                } else {
                    self.near[idx].clear();
                }
                bits &= bits - 1;
            }
            self.occupied[word] = 0;
        }
        while let Some((_, mut chunk)) = self.far.pop_first() {
            chunk.clear();
            self.recycle_chunk(chunk);
        }
        // The spare pool itself may hold vectors recycled mid-run
        // before these bounds applied to them (or under an older
        // bound): prune it to the same invariant.
        self.spare_chunks
            .retain(|c| c.capacity() <= Self::RETAIN_ENTRIES);
        self.spare_chunks.truncate(Self::RETAIN_CHUNKS);
        self.base = 0;
        self.cursor = 0;
        self.near_len = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    #[test]
    fn pops_in_at_then_seq_order() {
        let mut w = TimerWheel::new();
        w.push(5, 0, "a");
        w.push(3, 1, "b");
        w.push(5, 2, "c");
        w.push(3, 3, "d");
        let order: Vec<_> = std::iter::from_fn(|| w.pop()).collect();
        assert_eq!(
            order,
            vec![(3, 1, "b"), (3, 3, "d"), (5, 0, "a"), (5, 2, "c")]
        );
    }

    #[test]
    fn far_events_cascade_in_order() {
        let mut w = TimerWheel::new();
        // Spread across several chunks, out of order.
        w.push(SLOTS as Tick * 7 + 3, 0, 0);
        w.push(1, 1, 1);
        w.push(SLOTS as Tick * 2, 2, 2);
        w.push(SLOTS as Tick * 7 + 3, 3, 3);
        let popped: Vec<_> = std::iter::from_fn(|| w.pop()).map(|(_, _, e)| e).collect();
        assert_eq!(popped, vec![1, 2, 0, 3]);
        assert!(w.is_empty());
    }

    #[test]
    fn pushes_interleave_with_pops_at_the_same_tick() {
        let mut w = TimerWheel::new();
        w.push(4, 0, "first");
        assert_eq!(w.pop(), Some((4, 0, "first")));
        // Delay-0 push at the current tick must pop before later ticks.
        w.push(4, 1, "second");
        w.push(9, 2, "third");
        assert_eq!(w.pop(), Some((4, 1, "second")));
        assert_eq!(w.pop(), Some((9, 2, "third")));
    }

    #[test]
    fn peek_reaches_into_far_chunks() {
        // The earliest entry of a far chunk comes out first, whatever
        // the order the chunk received its entries in.
        let mut w = TimerWheel::new();
        w.push(SLOTS as Tick * 3 + 17, 0, ());
        w.push(SLOTS as Tick * 3 + 4, 1, ());
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop(), Some((SLOTS as Tick * 3 + 4, 1, ())));
    }

    #[test]
    fn reset_clears_but_preserves_capacity() {
        let mut w = TimerWheel::new();
        for i in 0..100u64 {
            w.push(i * 11, i, i);
        }
        w.reset();
        assert!(w.is_empty());
        w.push(2, 0, 42);
        assert_eq!(w.pop(), Some((2, 0, 42)));
    }

    /// Drives the wheel and a `BinaryHeap` oracle through the same
    /// random schedule of pushes (with colliding ticks, far-chunk
    /// delays and interleaved pops) and requires identical pop
    /// sequences — the `(at, seq)` contract the simulator rests on.
    fn oracle_run(plan: &[(u64, u8)]) {
        let mut wheel = TimerWheel::new();
        let mut heap: BinaryHeap<Reverse<(Tick, u64)>> = BinaryHeap::new();
        let mut now: Tick = 0;
        for (seq, &(delay, pops)) in plan.iter().enumerate() {
            let seq = seq as u64;
            // Delays mix slot-local, cross-chunk and far-future.
            let at = now + delay;
            wheel.push(at, seq, seq);
            heap.push(Reverse((at, seq)));
            for _ in 0..pops {
                let got = wheel.pop();
                let want = heap.pop().map(|Reverse((at, s))| (at, s, s));
                assert_eq!(got, want, "wheel diverged from heap oracle");
                if let Some((at, _, _)) = got {
                    now = at;
                }
            }
        }
        loop {
            let got = wheel.pop();
            let want = heap.pop().map(|Reverse((at, s))| (at, s, s));
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn wheel_matches_heap_oracle(
            plan in proptest::collection::vec(
                (
                    prop_oneof![
                        0u64..4,                       // colliding ticks
                        0u64..(2 * SLOTS as u64),      // around the ring boundary
                        0u64..(20 * SLOTS as u64),     // deep far chunks
                    ],
                    0u8..3,
                ),
                1..60,
            ),
        ) {
            oracle_run(&plan);
        }
    }

    #[test]
    fn oracle_holds_on_chunk_boundary_schedules() {
        // Deterministic boundary stress: everything lands exactly on
        // multiples of the ring size.
        let plan: Vec<(u64, u8)> = (0..40)
            .map(|i| ((i % 5) * SLOTS as u64, (i % 3) as u8))
            .collect();
        oracle_run(&plan);
    }
}
