//! Slab-backed payload arena: refcounted frame buffers with slot reuse.
//!
//! The simulator's frame hot path used to allocate a fresh `Vec<u8>`
//! per hop (encode → send → queue → deliver → drop). The arena replaces
//! that churn with recycled slots: a payload lives in one slot for its
//! whole life, handles ([`PayloadRef`]) move through the event queue,
//! duplication bumps a refcount instead of cloning bytes, and a freed
//! slot's buffer keeps its capacity for the next frame — so the steady
//! state of a long simulation performs **no heap allocation at all** on
//! the frame path (pinned by `tests/alloc_zero.rs` with a counting
//! global allocator).
//!
//! Handle rules (see `docs/SIMCORE.md` for the full lifecycle):
//!
//! * a `PayloadRef` is **not** `Clone`/`Copy` — every handle owns
//!   exactly one reference, and sharing goes through
//!   [`PayloadArena::retain`];
//! * every handle must come back, via [`release`](PayloadArena::release)
//!   (drop the reference) or [`detach`](PayloadArena::detach) (take the
//!   bytes out);
//! * buffers obtained from `detach` should be returned with
//!   [`recycle`](PayloadArena::recycle) once read, so their capacity
//!   feeds later [`alloc`](PayloadArena::alloc) calls.
//!
//! The arena is deliberately panic-happy about misuse (releasing a free
//! slot is a bug in the engine, not a runtime condition), and its
//! observable behaviour never depends on slot numbering: recycling a
//! warm arena across scenarios is byte-for-byte invisible to a
//! deterministic simulation (pinned by `tests/campaign.rs`).

/// A reference-counted handle to one payload buffer in a
/// [`PayloadArena`].
///
/// Deliberately neither `Clone` nor `Copy`: each value represents
/// exactly one reference, taken with [`PayloadArena::alloc`] (and
/// friends) or [`PayloadArena::retain`] and consumed by
/// [`PayloadArena::release`] / [`PayloadArena::detach`]. The ordering
/// derives exist so queue entries containing handles can derive their
/// own orderings; they compare slot numbers and mean nothing across
/// arenas.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PayloadRef(pub(crate) u32);

#[derive(Debug, Default)]
struct Slot {
    buf: Vec<u8>,
    refs: u32,
}

/// Allocation counters for one arena (monotone over its lifetime,
/// surviving arena recycling across simulator lifetimes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Slots created (upper bound on slab growth).
    pub slots_created: u64,
    /// Allocations served entirely from recycled slots/buffers.
    pub reused: u64,
    /// Payloads that entered the arena (all `alloc*`/`insert` calls).
    pub payloads: u64,
}

/// A slab of reusable payload buffers addressed by [`PayloadRef`].
#[derive(Debug, Default)]
pub struct PayloadArena {
    slots: Vec<Slot>,
    /// Slot indices with `refs == 0`, ready for reuse.
    free: Vec<u32>,
    /// Buffers handed back via [`recycle`](PayloadArena::recycle),
    /// waiting to back a slot whose own buffer was stolen by
    /// [`detach`](PayloadArena::detach).
    spare: Vec<Vec<u8>>,
    /// One past the highest slot index handed out since the last
    /// [`reset`](PayloadArena::reset) — what the next reset keeps, so
    /// its cost tracks this owner's actual usage rather than the
    /// largest simulation that ever warmed the arena.
    hwm: usize,
    stats: ArenaStats,
}

impl PayloadArena {
    /// An empty arena.
    pub fn new() -> Self {
        PayloadArena::default()
    }

    /// Number of live (referenced) payloads.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Lifetime allocation counters.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Pops a free slot (backing it with a spare buffer if its own was
    /// stolen) or grows the slab by one.
    fn grab_slot(&mut self) -> u32 {
        let ix = if let Some(ix) = self.free.pop() {
            let slot = &mut self.slots[ix as usize];
            if slot.buf.capacity() == 0 {
                if let Some(buf) = self.spare.pop() {
                    slot.buf = buf;
                }
            }
            self.stats.reused += 1;
            ix
        } else {
            let ix = u32::try_from(self.slots.len()).expect("arena slot count fits in u32");
            self.slots.push(Slot {
                buf: self.spare.pop().unwrap_or_default(),
                refs: 0,
            });
            self.stats.slots_created += 1;
            ix
        };
        self.hwm = self.hwm.max(ix as usize + 1);
        ix
    }

    /// Copies `bytes` into a recycled buffer and returns its handle.
    pub fn alloc(&mut self, bytes: &[u8]) -> PayloadRef {
        self.alloc_with(|buf| buf.extend_from_slice(bytes))
    }

    /// Hands `fill` an empty (capacity-retaining) buffer to encode into
    /// and returns the handle — the zero-allocation steady-state entry
    /// point for protocol encoders.
    pub fn alloc_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> PayloadRef {
        let ix = self.grab_slot();
        let slot = &mut self.slots[ix as usize];
        slot.buf.clear();
        fill(&mut slot.buf);
        slot.refs = 1;
        self.stats.payloads += 1;
        PayloadRef(ix)
    }

    /// Adopts an owned buffer without copying (the compatibility path
    /// behind `Simulator::send`'s `Vec<u8>` signature).
    pub fn insert(&mut self, buf: Vec<u8>) -> PayloadRef {
        let ix = self.grab_slot();
        let slot = &mut self.slots[ix as usize];
        // The adopted buffer replaces the slot's recycled one; keep the
        // larger of the two capacities in play by sparing the old one.
        let old = std::mem::replace(&mut slot.buf, buf);
        slot.refs = 1;
        if old.capacity() > 0 && self.has_room_for_spare() {
            self.spare.push(old);
        }
        self.stats.payloads += 1;
        PayloadRef(ix)
    }

    /// The payload bytes behind a handle.
    pub fn get(&self, h: &PayloadRef) -> &[u8] {
        let slot = &self.slots[h.0 as usize];
        debug_assert!(slot.refs > 0, "read through a dead handle");
        &slot.buf
    }

    /// Mutable bytes behind a handle. The handle must be unique
    /// (`refs == 1`) — use [`make_unique`](PayloadArena::make_unique)
    /// first when it might be shared (per-copy corruption).
    pub(crate) fn get_mut(&mut self, h: &PayloadRef) -> &mut Vec<u8> {
        let slot = &mut self.slots[h.0 as usize];
        debug_assert_eq!(slot.refs, 1, "mutating a shared payload");
        &mut slot.buf
    }

    /// Takes another reference to the same bytes (what link duplication
    /// does instead of cloning the payload).
    pub fn retain(&mut self, h: &PayloadRef) -> PayloadRef {
        let slot = &mut self.slots[h.0 as usize];
        debug_assert!(slot.refs > 0, "retain of a dead handle");
        slot.refs += 1;
        PayloadRef(h.0)
    }

    /// Ensures the handle is the sole reference to its bytes, copying
    /// them into a fresh slot if shared — copy-on-write for the
    /// corruption impairment, so flipping a bit in one duplicate never
    /// touches the other.
    pub(crate) fn make_unique(&mut self, h: PayloadRef) -> PayloadRef {
        if self.slots[h.0 as usize].refs == 1 {
            return h;
        }
        let src = h.0 as usize;
        let copy = self.alloc_with(|_| {});
        // Split-borrow via index juggling: copy slot ≠ src slot because
        // src has refs > 1 and the copy came from the free list.
        let (a, b) = if src < copy.0 as usize {
            let (lo, hi) = self.slots.split_at_mut(copy.0 as usize);
            (&lo[src], &mut hi[0])
        } else {
            let (lo, hi) = self.slots.split_at_mut(src);
            (&hi[0], &mut lo[copy.0 as usize])
        };
        b.buf.extend_from_slice(&a.buf);
        self.release(h);
        copy
    }

    /// Drops one reference; at zero the slot returns to the free list
    /// with its buffer capacity intact.
    pub fn release(&mut self, h: PayloadRef) {
        let slot = &mut self.slots[h.0 as usize];
        assert!(slot.refs > 0, "release of a dead handle");
        slot.refs -= 1;
        if slot.refs == 0 {
            self.free.push(h.0);
        }
    }

    /// Consumes the handle and takes the bytes out: a move when this is
    /// the last reference (the slot's buffer is stolen), a copy into a
    /// recycled buffer when duplicates are still in flight. Pair with
    /// [`recycle`](PayloadArena::recycle) to keep the steady state
    /// allocation-free.
    pub fn detach(&mut self, h: PayloadRef) -> Vec<u8> {
        let slot = &mut self.slots[h.0 as usize];
        assert!(slot.refs > 0, "detach of a dead handle");
        if slot.refs == 1 {
            slot.refs = 0;
            let buf = std::mem::take(&mut slot.buf);
            self.free.push(h.0);
            buf
        } else {
            slot.refs -= 1;
            let bytes_ptr = h.0 as usize;
            let mut buf = self.spare.pop().unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(&self.slots[bytes_ptr].buf);
            buf
        }
    }

    /// Returns a buffer taken with [`detach`](PayloadArena::detach) to
    /// the spare pool so later allocations reuse its capacity.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        if buf.capacity() > 0 && self.has_room_for_spare() {
            self.spare.push(buf);
        }
    }

    /// A spare backs a slot whose buffer was detached, so the pool
    /// keeps one per slot plus one and drops the rest. The extra one is
    /// for the reply a handler encodes while the pump still holds the
    /// frame it is handling detached: without it a one-slot session
    /// allocates its reply buffer afresh, and drops one, every session.
    fn has_room_for_spare(&self) -> bool {
        self.spare.len() <= self.slots.len()
    }

    /// Upper bounds on what [`reset`](PayloadArena::reset) keeps: one
    /// scenario with an unusually large in-flight peak must not pin
    /// that peak in the recycle pool for the process lifetime.
    const RETAIN_SLOTS: usize = 4096;
    const RETAIN_BUF_BYTES: usize = 64 * 1024;

    /// Forgets every live handle and rebuilds the free list, keeping
    /// ordinary buffer capacity (bounded by `RETAIN_SLOTS` slots of
    /// `RETAIN_BUF_BYTES` each; outliers are dropped) — how a campaign
    /// worker recycles one arena across scenarios. Any outstanding
    /// [`PayloadRef`] is invalidated.
    ///
    /// Retention is bounded by the *departing owner's* slot high-water
    /// mark, not just the static cap: a reset costs O(slots this run
    /// touched), and one simulation that grew the slab to thousands of
    /// slots stops taxing every later small simulation on the thread
    /// with an O(`RETAIN_SLOTS`) sweep (the slab re-shrinks to the next
    /// owner's working set after one recycle generation).
    pub(crate) fn reset(&mut self) {
        self.slots.truncate(self.hwm.min(Self::RETAIN_SLOTS));
        for slot in &mut self.slots {
            slot.refs = 0;
            if slot.buf.capacity() > Self::RETAIN_BUF_BYTES {
                slot.buf = Vec::new();
            }
        }
        self.spare
            .retain(|buf| buf.capacity() <= Self::RETAIN_BUF_BYTES);
        self.spare.truncate(self.slots.len() + 1);
        self.free.clear();
        self.free.extend((0..self.slots.len() as u32).rev());
        self.hwm = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_release_roundtrip() {
        let mut a = PayloadArena::new();
        let h = a.alloc(b"hello");
        assert_eq!(a.get(&h), b"hello");
        assert_eq!(a.live(), 1);
        a.release(h);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn slots_are_reused_after_release() {
        let mut a = PayloadArena::new();
        let h1 = a.alloc(&[1; 100]);
        a.release(h1);
        let h2 = a.alloc(&[2; 50]);
        assert_eq!(a.stats().slots_created, 1, "second alloc reused the slot");
        assert_eq!(a.stats().reused, 1);
        assert_eq!(a.get(&h2), &[2; 50][..]);
    }

    #[test]
    fn retain_shares_bytes_and_counts_references() {
        let mut a = PayloadArena::new();
        let h = a.alloc(b"shared");
        let h2 = a.retain(&h);
        assert_eq!(a.live(), 1, "one slot, two references");
        a.release(h);
        assert_eq!(a.get(&h2), b"shared", "still alive through the twin");
        a.release(h2);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn make_unique_copies_only_when_shared() {
        let mut a = PayloadArena::new();
        let h = a.alloc(b"solo");
        let h = a.make_unique(h);
        assert_eq!(a.stats().slots_created, 1, "unique handle untouched");

        let h2 = a.retain(&h);
        let h2 = a.make_unique(h2);
        assert_ne!(h.0, h2.0, "shared handle moved to its own slot");
        a.get_mut(&h2)[0] = b'g';
        assert_eq!(a.get(&h), b"solo", "original unaffected");
        assert_eq!(a.get(&h2), b"golo");
        a.release(h);
        a.release(h2);
    }

    #[test]
    fn detach_moves_last_reference_and_copies_shared_ones() {
        let mut a = PayloadArena::new();
        let h = a.alloc(b"bytes");
        let h2 = a.retain(&h);
        let copy = a.detach(h2);
        assert_eq!(copy, b"bytes");
        assert_eq!(a.live(), 1, "original reference still live");
        let moved = a.detach(h);
        assert_eq!(moved, b"bytes");
        assert_eq!(a.live(), 0);
        a.recycle(copy);
        a.recycle(moved);
        let h = a.alloc(b"x");
        assert_eq!(a.get(&h), b"x");
    }

    #[test]
    fn alloc_with_hands_out_an_empty_buffer() {
        let mut a = PayloadArena::new();
        let h = a.alloc(&[9; 64]);
        a.release(h);
        let h = a.alloc_with(|buf| {
            assert!(buf.is_empty(), "recycled buffer arrives cleared");
            assert!(buf.capacity() >= 64, "capacity survived recycling");
            buf.push(1);
        });
        assert_eq!(a.get(&h), &[1]);
        a.release(h);
    }

    #[test]
    fn insert_adopts_without_copying() {
        let mut a = PayloadArena::new();
        let buf = vec![7; 32];
        let ptr = buf.as_ptr();
        let h = a.insert(buf);
        assert_eq!(a.get(&h).as_ptr(), ptr, "no copy on adoption");
        a.release(h);
    }

    #[test]
    fn reset_frees_everything_but_keeps_capacity() {
        let mut a = PayloadArena::new();
        let _leaked = a.alloc(&[1; 128]);
        let _leaked2 = a.alloc(&[2; 128]);
        a.reset();
        assert_eq!(a.live(), 0);
        let created = a.stats().slots_created;
        let h = a.alloc_with(|buf| {
            assert!(buf.capacity() >= 128, "capacity survived reset");
            buf.push(3);
        });
        assert_eq!(a.stats().slots_created, created, "no new slot after reset");
        a.release(h);
    }

    #[test]
    fn reset_retention_tracks_the_departing_owners_usage() {
        // A large owner (a window-heavy session) grows the slab; after its
        // reset a small owner must not inherit — or keep re-paying for —
        // the peak. One recycle generation later the slab is back to the
        // small owner's working set.
        let mut a = PayloadArena::new();
        let handles: Vec<_> = (0..1000).map(|_| a.alloc(&[7; 16])).collect();
        for h in handles {
            a.release(h);
        }
        a.reset();
        assert_eq!(a.slots.len(), 1000, "big owner's reset keeps its peak");
        let h = a.alloc(&[1; 16]);
        a.release(h);
        a.reset();
        assert_eq!(
            a.slots.len(),
            1,
            "slab re-shrinks to the next owner's usage"
        );
        a.reset();
        assert_eq!(a.slots.len(), 0, "an untouched arena retains nothing");
    }

    #[test]
    #[should_panic(expected = "dead handle")]
    fn double_release_panics() {
        let mut a = PayloadArena::new();
        let h = a.alloc(b"x");
        let twin = PayloadRef(h.0);
        a.release(h);
        a.release(twin);
    }
}
