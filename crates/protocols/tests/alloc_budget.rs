//! Allocation budgets for the protocol hot paths, measured with a
//! counting `#[global_allocator]` (the style of
//! `crates/netsim/tests/alloc_zero.rs`):
//!
//! * a warm compiled encode of the suite wire formats allocates nothing;
//! * one-message stop-and-wait sessions, run warm one at a time through
//!   the solo driver or as one batch, stay within a pinned number of
//!   allocations per session — the ones a session inherently owns;
//! * generating a session's traffic allocates the message list and one
//!   buffer per message, never a regrowth;
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
use netdsl_protocols::scenario::{SuiteDriver, GO_BACK_N, STOP_AND_WAIT};
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
/// * 2 — the offered traffic (`TrafficPattern::generate`: the message
///   list and its one message);
/// * 1 — the boxed endpoint pair;
/// * 1 — the stop-and-wait sender's typestate `Send`, which owns a copy
///   of the in-flight payload;
/// * 2 — the receiver's delivered list and the one payload copy it keeps.
///
/// Everything else — simulator tables, arena (including the buffer the
/// receiver encodes its ACK into while the data frame is out for
/// delivery), wheel, frame encoding and decoding — is recycled once
/// warm; the batch's result vector adds well under one allocation per
/// session.
const ALLOCS_PER_SESSION: u64 = 6;

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
fn generated_traffic_allocates_the_list_and_one_buffer_per_message() {
    let traffic = TrafficPattern::messages(300, 600);
    let mut messages = Vec::new();
    let n = allocations_in(|| messages = traffic.generate());
    assert_eq!(messages.len(), 300);
    assert_eq!(n, 301, "generate() allocated {n} times for 300 messages");
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
    let adaptive = per_session(RetransmitPolicy::AdaptiveRto {
        min_rto: 4,
        max_rto: 2_000,
    });
    // The RTT-sample map's first leaf is the only allocation the
    // adaptive policy may add; 32 cumulative ACKs must add none.
    assert!(
        adaptive <= fixed + 2.0,
        "go-back-N allocated {adaptive:.1} times per session under AdaptiveRto, {fixed:.1} under Fixed"
    );
}
