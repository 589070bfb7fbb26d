//! The traced run: per-layer time from spans recorded at the calls the
//! benchmark makes into the program, plus counts from the metric
//! registry. Nothing inside the program is instrumented for this.
//!
//! After the same set-up as an untraced run it makes these passes:
//!
//! 1. one production round with the metric registry on, keeping the
//!    results of a sample of at most [`SAMPLE`] sessions spread evenly
//!    over the round;
//! 2. a replay of `Campaign::scenario_at` over the round's indices;
//! 3. the sample through the solo world with wrapped endpoints that
//!    capture received frames, untimed;
//! 4. over the sample, chunk by chunk: the multiplexed driver, then for
//!    each session the solo driver and the solo world again with timed
//!    endpoints — each must reproduce the production result;
//! 5. replays of the captured frames through the compiled codec and the
//!    CRC-16.
//!
//! The layer times are then reconciled ([`reconcile`]) and the spans of
//! the first [`SPAN_SESSIONS`] sampled sessions are written out as JSON
//! lines.

use std::cell::RefCell;
use std::hint::black_box;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

use netdsl::campaign::BatchDriver;
use netdsl::netsim::{FaultPlan, ScenarioResult, Simulator};
use netdsl::obs::{reset_all, set_metrics_enabled, snapshot};
use netdsl::protocols::arq::session::{SwReceiver, SwSender};
use netdsl::protocols::arq::ArqFrame;
use netdsl::protocols::baseline::{CReceiver, CSender};
use netdsl::protocols::driver::{Endpoint, Io};
use netdsl::protocols::gbn::{GbnReceiver, GbnSender};
use netdsl::protocols::multiplex::MultiSessionDriver;
use netdsl::protocols::scenario::{
    drive_duplex, validate_engine, SuiteDriver, BASELINE, GO_BACK_N, SELECTIVE_REPEAT,
    STOP_AND_WAIT,
};
use netdsl::protocols::sr::{SrReceiver, SrSender};
use netdsl::protocols::window::WindowFrame;
use netdsl::scenario::{FramePath, FsmPath, Scenario, ScenarioDriver, ScenarioError};
use netdsl::wire::checksum::crc16_ccitt;
use serde::json::Value;

use crate::workloads::{round, set_up, Audit, Driver, Round, Workload};
use crate::Measured;

/// Most sessions re-run through the other drivers and the timed endpoints.
const SAMPLE: usize = 65_536;
/// Sampled sessions whose individual spans are kept and written out.
const SPAN_SESSIONS: usize = 256;
/// Frames captured for the codec and checksum replays.
const FRAMES: usize = 65_536;
/// Sessions per chunk of the sample passes (the streaming chunk size).
const CHUNK: usize = 512;
/// Repetitions of each replay and calibration; the fastest is kept.
const REPEATS: usize = 5;
/// Frames per replay chunk: at the largest frame, about 90 KiB.
const REPLAY_CHUNK: usize = 64;
/// One endpoint callback in this many is timed. Timing costs two clock
/// reads, as much as a short callback itself; sampling keeps that cost
/// out of the session being measured.
const TIME_ONE_IN: u64 = 8;
/// How far two timings of the same work may disagree before the trace is
/// rejected: the traced sessions against the untraced solo driver (the
/// decorator costs 0-8 % on the reference machine), and the codec replay
/// against the endpoint time it must fit in (on `bulk-large` the codec
/// is 80-95 % of it, so timing noise alone can push the replay past).
const TOLERANCE: f64 = 0.15;

/// The span kinds: one per boundary the benchmark calls across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// One production driver call (`run_batch` or `SuiteDriver::run`).
    Driver,
    /// One sampled session of the timed pass.
    Session,
    /// `FaultPlan::from_scenario`.
    FaultPlan,
    /// `Simulator::new`, two `add_node`s and `add_duplex`.
    SimSetup,
    /// `drive_duplex` with timed endpoints.
    Drive,
    /// `Endpoint::start`, `on_frame` and `on_timer`.
    Start,
    Frame,
    Timer,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Driver => "driver.call",
            Kind::Session => "session",
            Kind::FaultPlan => "faults.plan",
            Kind::SimSetup => "netsim.setup",
            Kind::Drive => "scenario.drive_duplex",
            Kind::Start => "protocols.start",
            Kind::Frame => "protocols.on_frame",
            Kind::Timer => "protocols.on_timer",
        }
    }
}

/// One recorded span. `session` is the session's index in the round
/// (for a driver call, the first session it carried).
#[derive(Debug, Clone, Copy)]
struct Span {
    kind: Kind,
    start: Instant,
    end: Instant,
    id: u32,
    parent: Option<u32>,
    session: Option<usize>,
}

/// Which codec a session's frames go through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Codec {
    Arq,
    Window,
    /// The hand-rolled baseline frame: no DSL codec.
    Baseline,
}

fn codec_of(s: &Scenario) -> Codec {
    match s.protocol.name.as_str() {
        STOP_AND_WAIT => Codec::Arq,
        GO_BACK_N | SELECTIVE_REPEAT => Codec::Window,
        _ => Codec::Baseline,
    }
}

/// Totals of the timed pass, plus the spans of its first sessions.
#[derive(Debug, Default)]
struct Recorder {
    spans: Vec<Span>,
    next_id: u32,
    /// The session being driven, and the id its `Drive` span will get.
    session: usize,
    drive: u32,
    codec: Option<Codec>,
    keep: bool,
    /// Endpoint callbacks, all and timed, with the timed nanoseconds: in
    /// every session and in sessions whose frames use a DSL codec.
    callbacks: u64,
    timed: u64,
    timed_ns: u64,
    codec_callbacks: u64,
    codec_timed: u64,
    codec_timed_ns: u64,
    codec_frames_in: u64,
    /// Nanoseconds in `drive_duplex`, the fault plan and the world set-up.
    drive_ns: u64,
    plan_ns: u64,
    setup_ns: u64,
    /// A capturing recorder times nothing and keeps every `stride`-th
    /// received frame for the replays.
    stride: Option<u64>,
    until_capture: u64,
    frames: Vec<(Codec, Vec<u8>)>,
    /// State of the sequence that picks the timed callbacks.
    pick: u64,
}

impl Recorder {
    /// A recorder that times sampled callbacks.
    fn timing() -> Recorder {
        Recorder {
            pick: 0x9E37_79B9_7F4A_7C15,
            ..Recorder::default()
        }
    }

    /// A recorder that captures [`FRAMES`] frames spread evenly over a
    /// pass expected to deliver about `frames`.
    fn capturing(frames: u64) -> Recorder {
        Recorder {
            stride: Some(frames.div_ceil(FRAMES as u64).max(1)),
            ..Recorder::default()
        }
    }

    fn id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    fn push(&mut self, kind: Kind, (start, end): (Instant, Instant), id: u32, parent: Option<u32>) {
        self.spans.push(Span {
            kind,
            start,
            end,
            id,
            parent,
            session: Some(self.session),
        });
    }

    /// Opens session `g`, keeping its spans when `keep`; its callbacks
    /// hang off the `Drive` span.
    fn begin(&mut self, g: usize, codec: Codec, keep: bool) {
        self.session = g;
        self.codec = Some(codec);
        self.keep = keep;
        self.drive = self.id();
    }

    /// Counts a callback about to run and says whether to time it: one in
    /// [`TIME_ONE_IN`], picked by a xorshift sequence so that no protocol
    /// rhythm aliases with it. A capturing recorder keeps the frame when
    /// due instead.
    fn arrive(&mut self, frame: Option<&[u8]>) -> bool {
        let codec = self.codec.unwrap_or(Codec::Baseline);
        self.callbacks += 1;
        if codec != Codec::Baseline {
            self.codec_callbacks += 1;
            self.codec_frames_in += u64::from(frame.is_some());
        }
        if let Some(stride) = self.stride {
            if let Some(frame) = frame {
                if self.until_capture == 0 && self.frames.len() < FRAMES {
                    self.frames.push((codec, frame.to_vec()));
                    self.until_capture = stride;
                }
                self.until_capture -= 1;
            }
            return false;
        }
        self.pick ^= self.pick << 13;
        self.pick ^= self.pick >> 7;
        self.pick ^= self.pick << 17;
        self.pick & (TIME_ONE_IN - 1) == 0
    }

    fn timed(&mut self, kind: Kind, start: Instant, end: Instant) {
        let ns = (end - start).as_nanos() as u64;
        self.timed += 1;
        self.timed_ns += ns;
        if self.codec != Some(Codec::Baseline) {
            self.codec_timed += 1;
            self.codec_timed_ns += ns;
        }
        if self.keep {
            let (id, parent) = (self.id(), Some(self.drive));
            self.push(kind, (start, end), id, parent);
        }
    }

    /// Closes the session: `t` holds the start, the plan/set-up/drive
    /// boundaries and the end.
    fn end(&mut self, t: [Instant; 5]) {
        self.plan_ns += (t[1] - t[0]).as_nanos() as u64;
        self.setup_ns += (t[2] - t[1]).as_nanos() as u64;
        self.drive_ns += (t[4] - t[3]).as_nanos() as u64;
        if self.keep {
            let session = self.id();
            self.push(Kind::Session, (t[0], t[4]), session, None);
            let plan = self.id();
            self.push(Kind::FaultPlan, (t[0], t[1]), plan, Some(session));
            let setup = self.id();
            self.push(Kind::SimSetup, (t[1], t[2]), setup, Some(session));
            self.push(Kind::Drive, (t[3], t[4]), self.drive, Some(session));
        }
    }
}

/// An endpoint whose callbacks are sampled into a [`Recorder`].
struct Timed<'r, E> {
    inner: E,
    rec: &'r RefCell<Recorder>,
}

fn timed<E>(rec: &RefCell<Recorder>, inner: E) -> Timed<'_, E> {
    Timed { inner, rec }
}

impl<E> Timed<'_, E> {
    /// Runs one callback, timing it when the recorder picks it.
    fn call(&mut self, kind: Kind, frame: Option<&[u8]>, f: impl FnOnce(&mut E)) {
        if self.rec.borrow_mut().arrive(frame) {
            let t0 = Instant::now();
            f(&mut self.inner);
            let t1 = Instant::now();
            self.rec.borrow_mut().timed(kind, t0, t1);
        } else {
            f(&mut self.inner);
        }
    }
}

impl<E: Endpoint> Endpoint for Timed<'_, E> {
    fn start(&mut self, io: &mut Io<'_>) {
        self.call(Kind::Start, None, |e| e.start(io));
    }

    fn on_frame(&mut self, frame: &[u8], io: &mut Io<'_>) {
        self.call(Kind::Frame, Some(frame), |e| e.on_frame(frame, io));
    }

    fn on_timer(&mut self, token: u64, io: &mut Io<'_>) {
        self.call(Kind::Timer, None, |e| e.on_timer(token, io));
    }

    fn done(&self) -> bool {
        self.inner.done()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// `SuiteDriver::run` with timed endpoints: the same constructors and
/// result fold, through the public `drive_duplex`.
fn drive_timed(s: &Scenario, rec: &RefCell<Recorder>) -> Result<ScenarioResult, ScenarioError> {
    let spec = &s.protocol;
    validate_engine(spec)?;
    if spec.fsm_path != FsmPath::Typestate {
        return Err(ScenarioError::Unsupported(
            "the timed endpoints cover the typestate FSM path".into(),
        ));
    }
    let messages = s.traffic.generate();
    let n = messages.len();
    let path = spec.frame_path;
    Ok(match spec.name.as_str() {
        STOP_AND_WAIT => drive_duplex(
            s,
            timed(
                rec,
                SwSender::new(messages, spec.timeout, spec.max_retries)
                    .with_frame_path(path)
                    .with_retransmit(spec.retransmit),
            ),
            timed(rec, SwReceiver::new(n).with_frame_path(path)),
            |d| {
                let a = &d.a().inner;
                (
                    a.succeeded(),
                    a.stats().frames_sent,
                    a.stats().retransmissions,
                )
            },
            |a| a.inner.messages(),
            |b| b.inner.delivered(),
        ),
        GO_BACK_N => drive_duplex(
            s,
            timed(
                rec,
                GbnSender::new(messages, spec.window, spec.timeout, spec.max_retries)
                    .with_frame_path(path)
                    .with_retransmit(spec.retransmit),
            ),
            timed(rec, GbnReceiver::new(n).with_frame_path(path)),
            |d| {
                let a = &d.a().inner;
                (
                    a.succeeded(),
                    a.stats().frames_sent,
                    a.stats().retransmissions,
                )
            },
            |a| a.inner.messages(),
            |b| b.inner.delivered(),
        ),
        SELECTIVE_REPEAT => drive_duplex(
            s,
            timed(
                rec,
                SrSender::new(messages, spec.window, spec.timeout, spec.max_retries)
                    .with_frame_path(path)
                    .with_retransmit(spec.retransmit),
            ),
            timed(rec, SrReceiver::new(n, spec.window).with_frame_path(path)),
            |d| {
                let a = &d.a().inner;
                (
                    a.succeeded(),
                    a.stats().frames_sent,
                    a.stats().retransmissions,
                )
            },
            |a| a.inner.messages(),
            |b| b.inner.delivered(),
        ),
        BASELINE => drive_duplex(
            s,
            timed(rec, CSender::new(messages, spec.timeout, spec.max_retries)),
            timed(rec, CReceiver::new(n)),
            |d| {
                // As the suite driver does: the baseline keeps no
                // counters, so they come from the data-direction link.
                let sent = d.sim().link_stats(d.link_ab()).sent;
                let delivered = d.b().inner.delivered().len() as u64;
                (
                    d.a().inner.succeeded(),
                    sent,
                    sent.saturating_sub(delivered),
                )
            },
            |a| a.inner.messages(),
            |b| b.inner.delivered(),
        ),
        other => return Err(ScenarioError::UnknownProtocol(other.to_string())),
    })
}

/// One sampled session through the timed endpoints, after timing the
/// fault-plan expansion and the simulator set-up the driver performs.
fn timed_session(s: &Scenario, g: usize, keep: bool, rec: &RefCell<Recorder>) -> ScenarioResult {
    let t0 = Instant::now();
    black_box(FaultPlan::from_scenario(black_box(s)));
    let t1 = Instant::now();
    let mut sim = Simulator::new(s.seed);
    let (a, b) = (sim.add_node(), sim.add_node());
    black_box(sim.add_duplex(a, b, s.link.clone()));
    let t2 = Instant::now();
    drop(black_box(sim));
    rec.borrow_mut().begin(g, codec_of(s), keep);
    let t3 = Instant::now();
    let result = drive_timed(s, rec).unwrap_or_else(|e| panic!("{}: {e}", s.name));
    let t4 = Instant::now();
    rec.borrow_mut().end([t0, t1, t2, t3, t4]);
    result
}

/// The mean interval between two back-to-back clock reads: what a timed
/// callback's measured duration holds beyond the callback itself.
fn empty_interval_ns() -> f64 {
    const N: u32 = 100_000;
    (0..REPEATS)
        .map(|_| {
            let mut total = 0;
            for _ in 0..N {
                let t0 = Instant::now();
                total += (Instant::now() - t0).as_nanos();
            }
            total as f64 / f64::from(N)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Per-frame replay costs of the captured frames.
struct Replay {
    decode_ns: f64,
    encode_ns: f64,
    reject_ratio: f64,
    checksum_ns_per_kib: f64,
}

/// A frame the compiled codec accepted, ready to be encoded again.
enum Decoded {
    ArqData(u8, Vec<u8>),
    ArqAck(u8),
    WindowData(u32, Vec<u8>),
    WindowAck(u32),
}

fn decode(codec: Codec, frame: &[u8]) -> Option<Decoded> {
    const P: FramePath = FramePath::Compiled;
    match codec {
        Codec::Arq => match ArqFrame::decode_via(P, frame).ok()? {
            ArqFrame::Data { seq, payload } => Some(Decoded::ArqData(seq, payload)),
            ArqFrame::Ack { seq } => Some(Decoded::ArqAck(seq)),
        },
        Codec::Window => match WindowFrame::decode_via(P, frame).ok()? {
            WindowFrame::Data { seq, payload } => Some(Decoded::WindowData(seq, payload)),
            WindowFrame::Ack { seq } => Some(Decoded::WindowAck(seq)),
        },
        Codec::Baseline => None,
    }
}

fn encode(frame: &Decoded, out: &mut Vec<u8>) {
    const P: FramePath = FramePath::Compiled;
    match frame {
        Decoded::ArqData(seq, payload) => ArqFrame::encode_data_into(P, *seq, payload, out),
        Decoded::ArqAck(seq) => ArqFrame::encode_ack_into(P, *seq, out),
        Decoded::WindowData(seq, payload) => WindowFrame::encode_data_into(P, *seq, payload, out),
        Decoded::WindowAck(seq) => WindowFrame::encode_ack_into(P, *seq, out),
    }
}

/// The fastest of `REPEATS` runs of `f`, in seconds: interference from
/// other work on the host only ever slows a run down.
fn fastest(mut f: impl FnMut()) -> f64 {
    (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Seconds to apply `f` to every item, as the sum over chunks of
/// [`REPLAY_CHUNK`] items of each chunk's fastest pass. A chunk is hot in
/// cache after its first pass, as a frame is when an endpoint handles it
/// right after the link delivered it; one pass over every frame would
/// time cache misses instead.
fn per_chunk<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    items
        .chunks(REPLAY_CHUNK)
        .map(|chunk| fastest(|| chunk.iter().for_each(&mut f)))
        .sum()
}

/// Replays the captured frames through `decode_via`, the
/// `encode_*_into` functions and `crc16_ccitt`. Every accepted frame
/// must encode back to the bytes that were received.
fn replay(frames: &[(Codec, Vec<u8>)]) -> Replay {
    let coded: Vec<(Codec, &[u8])> = frames
        .iter()
        .filter(|(c, _)| *c != Codec::Baseline)
        .map(|(c, f)| (*c, f.as_slice()))
        .collect();
    let accepted: Vec<(Decoded, &[u8])> = coded
        .iter()
        .filter_map(|&(c, f)| decode(c, f).map(|d| (d, f)))
        .collect();
    let mut out = Vec::new();
    for (d, original) in &accepted {
        encode(d, &mut out);
        assert_eq!(
            &out, original,
            "a received frame does not re-encode to itself"
        );
    }
    let decode_s = per_chunk(&coded, |&(c, f)| {
        black_box(decode(c, black_box(f)));
    });
    let encode_s = per_chunk(&accepted, |(d, _)| {
        encode(d, &mut out);
        black_box(&out);
    });
    let bytes: usize = frames.iter().map(|(_, f)| f.len()).sum();
    let checksum_s = per_chunk(frames, |(_, f)| {
        black_box(crc16_ccitt(black_box(f)));
    });
    let coded_n = coded.len().max(1) as f64;
    Replay {
        decode_ns: decode_s * 1e9 / coded_n,
        encode_ns: encode_s * 1e9 / accepted.len().max(1) as f64,
        reject_ratio: (coded.len() - accepted.len()) as f64 / coded_n,
        checksum_ns_per_kib: checksum_s * 1e9 * 1024.0 / bytes.max(1) as f64,
    }
}

/// The reconciliation the traced numbers must pass; each failure names
/// the broken condition.
fn reconcile(checks: &[(bool, String)]) {
    let failed: Vec<&str> = checks
        .iter()
        .filter(|(ok, _)| !ok)
        .map(|(_, what)| what.as_str())
        .collect();
    assert!(
        failed.is_empty(),
        "the trace does not reconcile:\n  {}",
        failed.join("\n  ")
    );
}

/// Writes spans as JSON lines, times in nanoseconds from `epoch`.
fn write_spans(path: &Path, epoch: Instant, spans: &[Span]) {
    let file =
        std::fs::File::create(path).unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
    let mut out = BufWriter::new(file);
    let ns = |t: Instant| (t - epoch).as_nanos() as f64;
    for s in spans {
        let line = Value::object()
            .set("name", s.kind.name())
            .set("start_ns", ns(s.start))
            .set("end_ns", ns(s.end))
            .set("id", s.id)
            .set("parent", s.parent.map_or(Value::Null, Value::from))
            .set("session", s.session.map_or(Value::Null, Value::from));
        writeln!(out, "{line}").unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    out.flush()
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// The traced run; returns every per-layer metric plus `(attempted,
/// failed)` sessions of the traced production round.
pub fn run(w: &Workload, seed: u64, seconds: f64, spans_path: &Path) -> (Vec<Measured>, u64, u64) {
    let inputs = set_up(w, seed, seconds);
    let n = inputs.sessions;
    // Every `stride`-th session of the round forms the sample, so it
    // covers every protocol and cell of the campaign order.
    let stride = n.div_ceil(SAMPLE);
    let sampled: Vec<usize> = (0..n).step_by(stride).collect();
    let sample = sampled.len();

    let mut audit = Audit::new(&inputs).keeping(stride, SPAN_SESSIONS);
    set_metrics_enabled(true);
    reset_all();
    let Round { wall, tally, .. } = round(w, &inputs, &mut audit);
    let counters = snapshot();
    set_metrics_enabled(false);
    let round_start = audit.calls.first().map(|c| c.0);
    let counter = |name: &str| counters.counter(name).unwrap_or(0) as f64;

    let expand_s = {
        let start = Instant::now();
        for c in &inputs.campaigns {
            for i in 0..c.scenario_count() {
                black_box(c.scenario_at(i));
            }
        }
        start.elapsed().as_secs_f64()
    };

    // Frames for the replays come from an untimed pass of their own, so
    // that copying them costs the timed pass nothing; it also warms the
    // timed endpoints' code up. The production round's deliveries, scaled
    // to the sample, set the capture stride.
    let capture = RefCell::new(Recorder::capturing(
        tally.delivered * sample as u64 / n as u64,
    ));
    for &g in &sampled {
        let s = inputs.scenario(g);
        capture.borrow_mut().begin(g, codec_of(&s), false);
        drive_timed(&s, &capture).unwrap_or_else(|e| panic!("{}: {e}", s.name));
    }

    let rec = RefCell::new(Recorder::timing());
    let (mut solo_s, mut mux_s) = (0.0, 0.0);
    let (mut codec_sent, mut plan_actions) = (0u64, 0usize);
    for (chunk, indices) in sampled.chunks(CHUNK).enumerate() {
        let batch: Vec<Scenario> = indices.iter().map(|&g| inputs.scenario(g)).collect();
        let start = Instant::now();
        let muxed = MultiSessionDriver::new().run_batch(&batch);
        mux_s += start.elapsed().as_secs_f64();
        // Solo and timed runs of each session back to back, so that
        // interference from the host hits both sides of the comparison.
        for (k, (s, &g)) in batch.iter().zip(indices).enumerate() {
            let i = chunk * CHUNK + k;
            let want = &audit.kept[i];
            let start = Instant::now();
            let solo = SuiteDriver::new().run(s);
            solo_s += start.elapsed().as_secs_f64();
            for (driver, got) in [("solo", &solo), ("multiplexed", &muxed[k])] {
                assert_eq!(
                    got.as_ref().ok(),
                    Some(want),
                    "{}: the {driver} driver disagrees with the production run",
                    s.name
                );
            }
            let got = timed_session(s, g, i < SPAN_SESSIONS, &rec);
            assert_eq!(
                &got, want,
                "{}: the timed endpoints disagree with the production run",
                s.name
            );
            if codec_of(s) != Codec::Baseline {
                codec_sent += got.link.sent;
            }
            plan_actions += FaultPlan::from_scenario(s).len();
        }
    }
    let mut rec = rec.into_inner();
    let replay = replay(&capture.into_inner().frames);
    let empty_ns = empty_interval_ns();

    // Layer arithmetic. The round's wall time splits into expansion (in
    // the round only when streamed), driver calls, the benchmark's audit
    // and the campaign fold, which is what remains. Inside the timed
    // pass, `drive_duplex` splits into endpoint callbacks and the
    // simulator, which is what remains. Endpoint time is scaled up from
    // the timed callbacks, each less one empty clock interval.
    let per_session = |s: f64| s * 1e9 / n as f64;
    let sample_f = sample as f64;
    let in_round_expand = if w.driver == Driver::Streamed {
        expand_s
    } else {
        0.0
    };
    let fold_s = wall - in_round_expand - tally.driver_s - tally.audit_s;
    let scaled = |ns: u64, timed: u64, all: u64| {
        (ns as f64 - timed as f64 * empty_ns) * all as f64 / timed.max(1) as f64
    };
    let endpoint_ns = scaled(rec.timed_ns, rec.timed, rec.callbacks);
    let codec_endpoint_ns = scaled(rec.codec_timed_ns, rec.codec_timed, rec.codec_callbacks);
    let drive_ns = rec.drive_ns as f64;
    let sim_ns = drive_ns - endpoint_ns;
    let solo_ns = solo_s * 1e9 / sample_f;
    let overhead = drive_ns / sample_f / solo_ns;
    let codec_ns =
        replay.decode_ns * rec.codec_frames_in as f64 + replay.encode_ns * codec_sent as f64;
    println!(
        "{} reconcile: fold {:.1} ns/session, simulator {:.1} ns/event, codec replay {:.3} of \
         codec-session endpoint time, traced sessions {:.3} of untraced",
        w.name,
        per_session(fold_s),
        sim_ns / rec.callbacks.max(1) as f64,
        codec_ns / codec_endpoint_ns,
        overhead,
    );
    reconcile(&[
        (
            fold_s >= 0.0,
            format!("campaign fold is negative: {fold_s:.6} s"),
        ),
        (
            sim_ns >= 0.0,
            format!("simulator time is negative: {sim_ns:.0} ns"),
        ),
        (
            codec_ns <= (1.0 + TOLERANCE) * codec_endpoint_ns,
            format!(
                "codec replay ({codec_ns:.0} ns) exceeds the endpoint time of its sessions \
                 ({codec_endpoint_ns:.0} ns) by more than {TOLERANCE}"
            ),
        ),
        (
            (overhead - 1.0).abs() <= TOLERANCE,
            format!(
                "traced sessions take {overhead:.3} of the untraced solo driver's time, \
                 beyond {TOLERANCE}"
            ),
        ),
    ]);

    if let Some(epoch) = round_start {
        let base = rec.next_id;
        let mut spans: Vec<Span> = audit
            .calls
            .iter()
            .enumerate()
            .map(|(k, &(start, end, first))| Span {
                kind: Kind::Driver,
                start,
                end,
                id: base + 1 + k as u32,
                parent: None,
                session: Some(first),
            })
            .collect();
        spans.append(&mut rec.spans);
        write_spans(spans_path, epoch, &spans);
    }

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let metrics = vec![
        Measured::new("campaign.expand_ns", per_session(expand_s)),
        Measured::new("campaign.fold_ns", per_session(fold_s)),
        Measured::new("bench.audit_ns", per_session(tally.audit_s)),
        Measured::new(
            "multiplex.batch_ns",
            match w.driver {
                Driver::Streamed => per_session(tally.driver_s),
                Driver::Solo => mux_s * 1e9 / sample_f,
            },
        ),
        Measured::new(
            "scenario.session_ns",
            match w.driver {
                Driver::Solo => per_session(tally.driver_s),
                Driver::Streamed => solo_ns,
            },
        ),
        Measured::new(
            "protocols.endpoint_ns",
            ratio(endpoint_ns, rec.callbacks as f64),
        ),
        Measured::new("protocols.endpoint_share", ratio(endpoint_ns, drive_ns)),
        Measured::new(
            "protocols.events_per_session",
            rec.callbacks as f64 / sample_f,
        ),
        Measured::new(
            "protocols.retransmit_ratio",
            ratio(tally.retransmissions as f64, tally.frames_sent as f64),
        ),
        Measured::new("netsim.sim_ns", ratio(sim_ns, rec.callbacks as f64)),
        Measured::new("netsim.setup_ns", rec.setup_ns as f64 / sample_f),
        Measured::new("netsim.frames_per_session", tally.sent as f64 / n as f64),
        Measured::new(
            "netsim.loss_ratio",
            ratio(tally.lost as f64, tally.sent as f64),
        ),
        Measured::new(
            "netsim.corrupt_ratio",
            ratio(tally.corrupted as f64, tally.delivered as f64),
        ),
        Measured::new(
            "netsim.timers_set_per_session",
            counter("sim.timers_set") / n as f64,
        ),
        Measured::new(
            "netsim.timer_cancel_ratio",
            ratio(counter("sim.timers_cancelled"), counter("sim.timers_set")),
        ),
        Measured::new("codec.decode_ns", replay.decode_ns),
        Measured::new("codec.encode_ns", replay.encode_ns),
        Measured::new("codec.reject_ratio", replay.reject_ratio),
        Measured::new("wire.checksum_ns_per_kib", replay.checksum_ns_per_kib),
        Measured::new("faults.plan_ns", rec.plan_ns as f64 / sample_f),
        Measured::new("faults.actions_per_session", plan_actions as f64 / sample_f),
        Measured::new(
            "faults.injected_per_session",
            counter("fault.injected") / n as f64,
        ),
        Measured::new(
            "adapt.rto_backoffs_per_session",
            counter("arq.rto_backoffs") / n as f64,
        ),
        Measured::new("trace.overhead_ratio", overhead),
    ];
    (metrics, tally.sessions, tally.failed)
}
