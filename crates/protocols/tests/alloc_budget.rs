//! Allocation budgets for the protocol hot paths, measured with a
//! counting `#[global_allocator]` (the style of
//! `crates/netsim/tests/alloc_zero.rs`):
//!
//! * a warm compiled encode of the suite wire formats allocates nothing;
//! * one-message stop-and-wait sessions, run warm one at a time through
//!   the solo driver or as one batch, stay within a pinned number of
//!   allocations per session — the ones a session inherently owns;
//! * generating a session's traffic allocates one table, whatever the
//!   message count;
//! * a warm clean-link session of any windowed suite protocol, fixed or
//!   adaptive, allocates as often for 5,000 messages as for 500, and a
//!   selective-repeat receiver on an impaired link adds at most one
//!   window of reorder buffers;
//! * go-back-N's adaptive RTO bookkeeping allocates no more per
//!   cumulative ACK than the fixed policy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netdsl_netsim::campaign::BatchDriver;
use netdsl_netsim::scenario::{
    EngineConfig, FramePath, ProtocolSpec, Scenario, ScenarioDriver, ScenarioError, ScenarioResult,
    TrafficPattern,
};
use netdsl_netsim::{LinkConfig, RetransmitPolicy};
use netdsl_protocols::arq::ArqFrame;
use netdsl_protocols::codec::{arq_codec, window_codec};
use netdsl_protocols::multiplex::MultiSessionDriver;
use netdsl_protocols::scenario::{SuiteDriver, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT};
use netdsl_protocols::window::WindowFrame;

/// System allocator wrapper counting allocation entry points (alloc,
/// alloc_zeroed, realloc) per thread, so the test harness's own threads
/// never land in a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations `f` performs on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn warm_compiled_encode_allocates_nothing() {
    let payload = [0x5A; 64];
    let mut out = Vec::new();
    for suite in [arq_codec(), window_codec()] {
        let codec = suite.codec();
        let mut encode = |seq: u64| {
            let mut values = codec.values();
            values
                .set_uint(suite.kind, 1)
                .set_uint(suite.seq, seq)
                .set_bytes(suite.payload, &payload);
            codec.encode_into(&values, &mut out).expect("valid frame");
        };
        encode(0); // grows `out` to the frame size
        let n = allocations_in(|| (0..1000).for_each(|seq| encode(seq % 200)));
        assert_eq!(
            n,
            0,
            "{}: warm encode_into allocated {n} times",
            codec.name()
        );
    }
    // The frame-level entry points the endpoints transmit through.
    let n = allocations_in(|| {
        for seq in 0..200u8 {
            ArqFrame::encode_data_into(FramePath::Compiled, seq, &payload, &mut out);
            ArqFrame::encode_ack_into(FramePath::Compiled, seq, &mut out);
            WindowFrame::encode_data_into(FramePath::Compiled, seq.into(), &payload, &mut out);
            WindowFrame::encode_ack_into(FramePath::Compiled, seq.into(), &mut out);
        }
    });
    assert_eq!(n, 0, "warm frame encoders allocated {n} times");
}

/// Allocations one session of the sessions below inherently owns:
///
/// * 1 — the offered traffic (`TrafficPattern::generate`: one table
///   every message is a window of);
/// * 1 — the boxed endpoint pair.
///
/// The typestate `SEND` copies no payload, and the session's sink checks
/// each delivery against the traffic without keeping it. Everything
/// else — simulator tables, arena (including the buffer the receiver
/// encodes its ACK into while the data frame is out for delivery),
/// wheel, frame encoding and decoding — is recycled once warm; the
/// batch's result vector adds well under one allocation per session.
const ALLOCS_PER_SESSION: u64 = 2;

/// 512 one-message stop-and-wait sessions on clean links.
fn sessions() -> Vec<Scenario> {
    let spec = ProtocolSpec::new(STOP_AND_WAIT).with_engine(EngineConfig {
        frame_path: FramePath::Compiled,
        ..EngineConfig::default()
    });
    (0..512)
        .map(|i| {
            Scenario::new(spec.clone(), LinkConfig::reliable(1 + i % 8))
                .with_traffic(TrafficPattern::messages(1, 8))
                .with_seed(i)
        })
        .collect()
}

fn check(results: Vec<Result<ScenarioResult, ScenarioError>>) {
    for r in results {
        assert!(r.expect("session runs").success);
    }
}

/// Fails unless `n` allocations over `sessions` sessions fit the budget.
fn assert_within_budget(path: &str, n: u64, sessions: usize) {
    let per_session = n as f64 / sessions as f64;
    assert!(
        n <= ALLOCS_PER_SESSION * sessions as u64 + 64,
        "{path} allocated {per_session:.2} times per session (budget {ALLOCS_PER_SESSION})"
    );
}

#[test]
fn warm_run_batch_stays_within_the_per_session_budget() {
    let batch = sessions();
    let driver = MultiSessionDriver::new();
    check(driver.run_batch(&batch)); // warm-up: pools, codecs, scratch
    let mut results = Vec::new();
    let n = allocations_in(|| results = driver.run_batch(&batch));
    check(results);
    assert_within_budget("run_batch", n, batch.len());
}

#[test]
fn warm_solo_runs_stay_within_the_per_session_budget() {
    let batch = sessions();
    let driver = SuiteDriver::new();
    let run_all = || batch.iter().map(|s| driver.run(s)).collect::<Vec<_>>();
    check(run_all()); // warm-up: the core pool, codecs, scratch
    let mut results = Vec::with_capacity(batch.len());
    let n = allocations_in(|| results.extend(batch.iter().map(|s| driver.run(s))));
    check(results);
    assert_within_budget("SuiteDriver::run", n, batch.len());
}

#[test]
fn generated_traffic_allocates_one_table() {
    let traffic = TrafficPattern::messages(300, 600);
    let mut messages = None;
    let n = allocations_in(|| messages = Some(traffic.generate()));
    assert_eq!(messages.map(|m| m.len()), Some(300));
    assert_eq!(n, 1, "generate() allocated {n} times for 300 messages");
}

/// Allocations of one warm solo session of `traffic` over `link`, and
/// its result. Two runs of the same session warm it first: the arena
/// settles which recycled buffer backs which frame only on the second.
fn session_allocations(
    spec: &ProtocolSpec,
    link: LinkConfig,
    traffic: TrafficPattern,
) -> (u64, ScenarioResult) {
    let scenario = Scenario::new(spec.clone(), link)
        .with_traffic(traffic)
        .with_seed(5);
    let driver = SuiteDriver::new();
    check((0..2).map(|_| driver.run(&scenario)).collect());
    let mut result = None;
    let n = allocations_in(|| result = Some(driver.run(&scenario)));
    let result = result.expect("ran").expect("session runs");
    assert!(result.success, "{result:?}");
    (n, result)
}

const ADAPTIVE: RetransmitPolicy = RetransmitPolicy::AdaptiveRto {
    min_rto: 4,
    max_rto: 2_000,
};

#[test]
fn warm_sessions_allocate_the_same_for_any_message_count() {
    for (name, window) in [
        (STOP_AND_WAIT, 1),
        (GO_BACK_N, 4),
        (GO_BACK_N, 16),
        (SELECTIVE_REPEAT, 4),
        (SELECTIVE_REPEAT, 16),
    ] {
        for policy in [RetransmitPolicy::Fixed, ADAPTIVE] {
            let spec = ProtocolSpec::new(name)
                .with_window(window)
                .with_timeout(150)
                .with_retransmit(policy);
            let clean = LinkConfig::reliable(3);
            let (few, _) =
                session_allocations(&spec, clean.clone(), TrafficPattern::messages(500, 64));
            let (many, _) = session_allocations(&spec, clean, TrafficPattern::messages(5_000, 64));
            assert_eq!(
                few,
                many,
                "{name} window {window} {}: {few} allocations for 500 messages, {many} for 5,000",
                policy.as_str()
            );
        }
    }
}

#[test]
fn selective_repeat_reorder_buffers_stay_within_one_window() {
    // bulk-large's session: every loss on its light link holds later
    // payloads in the receiver's reorder slots, whose buffers are
    // reused, so the link adds at most a window of them. A corrupted
    // frame costs one allocation more: the codec's rejection carries
    // the name of the field that failed.
    let spec = ProtocolSpec::new(SELECTIVE_REPEAT)
        .with_window(16)
        .with_timeout(16);
    let bulk = TrafficPattern::messages(500, 1_400);
    let (clean, _) = session_allocations(&spec, LinkConfig::reliable(2), bulk);
    let light = LinkConfig::lossy(2, 0.01).with_corrupt(0.002);
    let (impaired, result) = session_allocations(&spec, light, bulk);
    assert!(
        result.link.lost > 0 && result.retransmissions > 0,
        "{result:?}"
    );
    let rejected = result.link.corrupted;
    assert!(
        impaired <= clean + 16 + rejected,
        "sr16 allocated {impaired} times on bulk-large's link ({rejected} frames corrupted), \
         {clean} on a clean one"
    );
}

/// 64 go-back-N (window 4) sessions of 32 × 16 B on clean links.
fn gbn_sessions(policy: RetransmitPolicy) -> Vec<Scenario> {
    let spec = ProtocolSpec::new(GO_BACK_N)
        .with_window(4)
        .with_retransmit(policy);
    (0..64)
        .map(|i| {
            Scenario::new(spec.clone(), LinkConfig::reliable(3))
                .with_traffic(TrafficPattern::messages(32, 16))
                .with_seed(i)
        })
        .collect()
}

#[test]
fn adaptive_go_back_n_allocates_nothing_per_cumulative_ack() {
    let driver = SuiteDriver::new();
    let per_session = |policy| {
        let batch = gbn_sessions(policy);
        check(batch.iter().map(|s| driver.run(s)).collect()); // warm-up
        let mut results = Vec::with_capacity(batch.len());
        let n = allocations_in(|| results.extend(batch.iter().map(|s| driver.run(s))));
        check(results);
        n as f64 / batch.len() as f64
    };
    let fixed = per_session(RetransmitPolicy::Fixed);
    let adaptive = per_session(ADAPTIVE);
    // The RTT-sample map's first leaf is the only allocation the
    // adaptive policy may add; 32 cumulative ACKs must add none.
    assert!(
        adaptive <= fixed + 2.0,
        "go-back-N allocated {adaptive:.1} times per session under AdaptiveRto, {fixed:.1} under Fixed"
    );
}
