//! The zero-allocation acceptance test for the simulation core: once
//! warm, the frame hot path — encode into an arena buffer, send,
//! schedule through the timer wheel, deliver, detach, recycle — must
//! perform **zero** heap allocations per frame. Demonstrated at the
//! allocator shim level: a counting `#[global_allocator]` wraps the
//! system allocator and the steady-state loop is required to leave the
//! counter of its own thread untouched. The same allocator tracks live
//! heap bytes process-wide, which pins the streaming campaign's memory
//! bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use netdsl_netsim::scenario::{ProtocolSpec, Scenario, ScenarioDriver, ScenarioError};
use netdsl_netsim::{
    Campaign, EventRef, LinkConfig, LinkStats, ScenarioResult, Simulator, StreamOptions, Sweep,
};

/// Live heap bytes are tracked process-wide, so the tests in this
/// binary must not run concurrently — the default parallel harness
/// would let the owned-buffer test's allocations land inside the
/// streaming test's high-water mark. Each test holds this lock for its
/// whole body.
static SERIAL: Mutex<()> = Mutex::new(());

/// System allocator wrapper that counts every allocation entry point
/// (alloc, alloc_zeroed, realloc) per thread and tracks the bytes
/// currently live plus their high-water mark. Deallocations are not
/// counted — the zero-allocation property is "no new memory", not "no
/// frees".
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. The simulator runs on the
    /// test's own thread, so counting per thread keeps the harness's
    /// work on its other threads (starting the next test, reporting
    /// the last one) out of a zero-allocation window.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        grew(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            shrank(layout.size() - new_size);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations this thread has made so far.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The most heap `f` held live at once, above what was live before it.
fn peak_live_bytes(f: impl FnOnce()) -> u64 {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - base
}

/// Pumps `frames` frames (with per-frame retransmission timers, like a
/// window protocol would arm) through the pooled hot path.
fn pump(sim: &mut Simulator, ab: netdsl_netsim::LinkId, node: netdsl_netsim::NodeId, frames: u64) {
    for i in 0..frames {
        let payload = sim.alloc_payload_with(|buf| {
            buf.extend_from_slice(&[i as u8; 256]);
        });
        sim.send_ref(ab, payload);
        sim.set_timer(node, 40, i);
        sim.cancel_timer(node, i);
        loop {
            match sim.step_ref() {
                Some(EventRef::Frame { payload, .. }) => {
                    assert_eq!(sim.payload(&payload)[0], i as u8);
                    let buf = sim.detach_payload(payload);
                    sim.recycle_payload(buf);
                }
                Some(EventRef::Timer { .. } | EventRef::Fault { .. }) => {}
                None => break,
            }
        }
    }
}

#[test]
fn frame_hot_path_is_allocation_free_once_warm() {
    let _serial = SERIAL
        .lock()
        .expect("counter tests never panic while locked");
    let mut sim = Simulator::new(3);
    let a = sim.add_node();
    let b = sim.add_node();
    let ab = sim.add_link(a, b, LinkConfig::reliable(5));

    // Warm-up: grows the arena slot, the wheel's touched slots and the
    // cancel list to their steady-state sizes.
    pump(&mut sim, ab, a, 200);

    let before = allocations();
    pump(&mut sim, ab, a, 1_000);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "frame hot path allocated {} times across 1000 frames",
        after - before
    );
}

#[test]
fn frame_hot_path_stays_allocation_free_with_metrics_enabled() {
    // Observability must not cost the alloc_zero invariant: with the
    // global metric switch on, the hot path still counts into plain
    // simulator fields, and a dropped simulator adds its totals to
    // pre-sized thread-sharded cells. The only allocation metrics ever
    // perform is lazy registration (one Vec push per metric,
    // process-wide), which the first simulator's publish absorbs here;
    // the window below covers a warm simulator's frames and its
    // publish. Thread-count invariance of the cross-shard snapshot
    // merge is pinned in the obs crate's own suite.
    let _serial = SERIAL
        .lock()
        .expect("counter tests never panic while locked");
    netdsl_obs::set_metrics_enabled(true);
    let warm_world = || {
        let mut sim = Simulator::new(3);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, b, LinkConfig::reliable(5));
        pump(&mut sim, ab, a, 200);
        (sim, ab, a)
    };
    drop(warm_world());

    let (mut sim, ab, a) = warm_world();
    let before = allocations();
    pump(&mut sim, ab, a, 1_000);
    drop(sim);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "metrics-enabled hot path and publish allocated {} times across 1000 frames",
        after - before
    );
    let snap = netdsl_obs::snapshot();
    let sent = snap.counter("sim.frames_sent").unwrap_or(0);
    assert!(sent >= 1_400, "counters should have observed the pump");
    // A publish skips zeros: no simulator in this binary loses or
    // corrupts a frame, so those counters never registered.
    assert_eq!(snap.counter("sim.frames_dropped"), None);
    assert_eq!(snap.counter("sim.frames_corrupted"), None);
}

#[test]
fn every_dropped_simulator_publishes_pooled_or_not() {
    // A thread's core pool keeps only a few cores, so most of these
    // simulators drop without returning theirs; each must still add
    // its counts to the registry. (Here because it needs the registry
    // on, which this binary's lock already serializes.)
    let _serial = SERIAL
        .lock()
        .expect("counter tests never panic while locked");
    netdsl_obs::set_metrics_enabled(true);
    let sent = || netdsl_obs::snapshot().counter("sim.frames_sent");
    let before = sent().unwrap_or(0);
    let live: Vec<Simulator> = (0..64)
        .map(|seed| {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node();
            let b = sim.add_node();
            let ab = sim.add_link(a, b, LinkConfig::reliable(1));
            sim.send(ab, vec![seed as u8]);
            sim
        })
        .collect();
    assert_eq!(
        sent().unwrap_or(0),
        before,
        "live simulators publish nothing"
    );
    drop(live);
    assert_eq!(sent(), Some(before + 64));
}

#[test]
fn owned_buffer_sends_allocate_per_frame_for_contrast() {
    // The owned `send(Vec)` API: every send allocates the buffer it
    // hands over. This guards the test harness itself — if the counter
    // stopped counting, the zero assertion above would be vacuous.
    let _serial = SERIAL
        .lock()
        .expect("counter tests never panic while locked");
    let mut sim = Simulator::new(3);
    let a = sim.add_node();
    let b = sim.add_node();
    let ab = sim.add_link(a, b, LinkConfig::reliable(5));
    for i in 0..64u64 {
        sim.send(ab, vec![i as u8; 256]);
        while sim.step().is_some() {}
    }
    let before = allocations();
    for i in 0..64u64 {
        sim.send(ab, vec![i as u8; 256]);
        while sim.step().is_some() {}
    }
    assert!(
        allocations() - before >= 64,
        "owned-buffer path must allocate at least once per frame"
    );
}

#[test]
fn streaming_memory_stays_flat_as_the_chunk_count_grows() {
    // Campaign::run_streaming promises O(threads x chunk + raw_cap +
    // cells) memory: ten times the chunks of one cell on one thread must
    // not raise the live-heap high-water mark. (Keeping every chunk's
    // partial until the end made it grow with the chunk count.)
    let _serial = SERIAL
        .lock()
        .expect("counter tests never panic while locked");
    struct Echo;
    impl ScenarioDriver for Echo {
        fn supports(&self, _protocol: &str) -> bool {
            true
        }
        fn run(&self, scenario: &Scenario) -> Result<ScenarioResult, ScenarioError> {
            Ok(ScenarioResult {
                success: true,
                elapsed: scenario.seed % 1000,
                messages_offered: 1,
                messages_delivered: 1,
                payload_bytes: 8,
                frames_sent: 1,
                retransmissions: 0,
                link: LinkStats::default(),
            })
        }
    }
    let campaign = |chunks: u64| {
        Campaign::new("memory", 1)
            .protocols(Sweep::single("p", ProtocolSpec::new("p")))
            .links(Sweep::single("l", LinkConfig::reliable(1)))
            .seeds(Sweep::seeds(64 * chunks))
    };
    let opts = StreamOptions {
        chunk: 64,
        raw_cap: 256,
    };
    let (few, many) = (campaign(20), campaign(200));
    let run = |c: &Campaign| {
        let report = c.run_streaming(&Echo, 1, opts);
        assert_eq!(report.errors, 0);
        assert_eq!(report.cells[0].delivery.samples().len(), 256);
    };
    run(&few); // warm-up
    let few_peak = peak_live_bytes(|| run(&few));
    let many_peak = peak_live_bytes(|| run(&many));
    assert!(
        many_peak <= few_peak + few_peak / 4,
        "10x the chunks raised peak live heap from {few_peak} to {many_peak} bytes"
    );
}
