//! Stage-attributed perf triage: one canonical microbench per pipeline
//! stage, shared by the engine harnesses (E11–E14).
//!
//! The end-to-end numbers those harnesses report (scenarios/s, frames/s)
//! say *that* the engine got faster or slower, not *where*. This module
//! decomposes one frame's life into the canonical [`STAGES`] —
//!
//! * `encode` — frame construction into a reused buffer
//!   ([`WindowFrame::encode_data_into`], compiled path);
//! * `checksum` — the CRC-16/CCITT pass over a wire frame;
//! * `schedule` — enqueueing a frame into the pooled simulator
//!   (arena allocation + `send_ref`);
//! * `deliver` — draining it back out (`step_ref` + detach + recycle);
//! * `decode` — the compiled zero-copy decode
//!   ([`WindowFrame::decode_via`]);
//! * `verify` — the interpretive `PacketSpec` validation walk, the
//!   reference verdict path the golden-trace corpus uses
//!
//! — and measures each in isolation, emitting one [`STAGE_METRIC`]
//! series per stage with a `stage` axis. Every harness that calls
//! [`attach`] therefore carries the same six labelled series, so a
//! regression in any one artifact can be attributed to a stage by
//! diffing like-labelled rows across commits. `tools/check_bench_json`
//! pins the contract: a `stage` axis label outside [`STAGES`] fails CI,
//! and `--expect-stages <id>` requires an artifact to carry all six.
//!
//! These are harness-level microbenches — the simulator hot path itself
//! stays uninstrumented (and zero-allocation).

use std::hint::black_box;
use std::time::{Duration, Instant};

use netdsl_netsim::scenario::FramePath;
use netdsl_netsim::{EventRef, LinkConfig, Simulator};
use netdsl_protocols::window::{window_spec, WindowFrame};
use netdsl_wire::checksum::crc16_ccitt;

use crate::report::{BenchReport, Metric};

/// The canonical stage labels, in pipeline order. `check_bench_json`
/// rejects any `stage` axis label outside this set.
pub const STAGES: [&str; 6] = [
    "encode", "checksum", "schedule", "deliver", "decode", "verify",
];

/// The metric name every stage series uses.
pub const STAGE_METRIC: &str = "stage_time";

/// Payload size the stage corpus uses — small enough that per-frame
/// overheads (the thing being attributed) dominate the byte work.
const PAYLOAD: usize = 64;

fn encode_ns(iters: usize, payload: &[u8]) -> f64 {
    let mut buf = Vec::new();
    let start = Instant::now();
    for i in 0..iters {
        WindowFrame::encode_data_into(FramePath::Compiled, i as u32, payload, &mut buf);
        black_box(buf.len());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn checksum_ns(iters: usize, frame: &[u8]) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(crc16_ccitt(black_box(frame)));
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Times enqueue (arena alloc + `send_ref`) and drain (`step_ref` +
/// detach + recycle) separately, in chunks so the event queue stays
/// realistically small, returning (schedule ns/op, deliver ns/op).
fn transport_ns(iters: usize, payload: &[u8]) -> (f64, f64) {
    const CHUNK: usize = 256;
    let mut sim = Simulator::new(7);
    let a = sim.add_node();
    let b = sim.add_node();
    let (ab, _) = sim.add_duplex(a, b, LinkConfig::reliable(1));
    let mut schedule = Duration::ZERO;
    let mut deliver = Duration::ZERO;
    let mut done = 0usize;
    while done < iters {
        let n = CHUNK.min(iters - done);
        let start = Instant::now();
        for _ in 0..n {
            let h = sim.alloc_payload_with(|buf| buf.extend_from_slice(payload));
            sim.send_ref(ab, h);
        }
        schedule += start.elapsed();
        let start = Instant::now();
        while let Some(ev) = sim.step_ref() {
            if let EventRef::Frame { payload, .. } = ev {
                let buf = sim.detach_payload(payload);
                black_box(buf.len());
                sim.recycle_payload(buf);
            }
        }
        deliver += start.elapsed();
        done += n;
    }
    (
        schedule.as_nanos() as f64 / iters as f64,
        deliver.as_nanos() as f64 / iters as f64,
    )
}

fn decode_ns(iters: usize, frame: &[u8]) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(WindowFrame::decode_via(
            FramePath::Compiled,
            black_box(frame),
        ))
        .expect("stage corpus frame is valid");
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn verify_ns(iters: usize, frame: &[u8]) -> f64 {
    let spec = window_spec();
    let start = Instant::now();
    for _ in 0..iters {
        black_box(spec.decode(black_box(frame))).expect("stage corpus frame is valid");
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Runs every stage microbench `reps` times at `iters` operations each
/// and returns the six [`STAGE_METRIC`] series, one per [`STAGES`]
/// entry, in pipeline order.
pub fn profile(reps: usize, iters: usize) -> Vec<Metric> {
    let payload = vec![0x5Au8; PAYLOAD];
    let frame = WindowFrame::Data {
        seq: 7,
        payload: payload.clone(),
    }
    .encode_via(FramePath::Compiled);

    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); STAGES.len()];
    for _ in 0..reps.max(1) {
        samples[0].push(encode_ns(iters, &payload));
        samples[1].push(checksum_ns(iters, &frame));
        let (schedule, deliver) = transport_ns(iters, &payload);
        samples[2].push(schedule);
        samples[3].push(deliver);
        samples[4].push(decode_ns(iters, &frame));
        samples[5].push(verify_ns(iters, &frame));
    }
    STAGES
        .iter()
        .zip(samples)
        .map(|(stage, s)| {
            Metric::new(STAGE_METRIC, "ns/op")
                .with_axis("stage", *stage)
                .with_samples(s)
        })
        .collect()
}

/// Profiles every stage and pushes the series into `report`, printing
/// the per-stage means — the one call each engine harness makes.
pub fn attach(report: &mut BenchReport, reps: usize, iters: usize) {
    println!("\nstage attribution ({PAYLOAD}B frame, {iters} ops × {reps} reps):");
    for metric in profile(reps, iters) {
        let a = metric.aggregate();
        let stage = metric
            .axes
            .iter()
            .find(|(axis, _)| axis == "stage")
            .map(|(_, label)| label.as_str())
            .unwrap_or("?");
        println!("  {stage:<9} {:>9.1} ns/op", a.mean());
        report.push(metric);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_covers_every_stage_in_order() {
        let metrics = profile(1, 64);
        assert_eq!(metrics.len(), STAGES.len());
        for (metric, stage) in metrics.iter().zip(STAGES) {
            assert_eq!(metric.name, STAGE_METRIC);
            assert_eq!(metric.unit, "ns/op");
            assert_eq!(metric.axes, vec![("stage".to_string(), stage.to_string())]);
            assert_eq!(metric.samples.len(), 1);
            assert!(metric.samples[0] >= 0.0);
        }
    }

    #[test]
    fn attach_threads_stage_series_into_a_report() {
        let mut r = BenchReport::new("stage_unit", "stage attach fixture");
        attach(&mut r, 2, 64);
        for stage in STAGES {
            let m = r
                .metrics
                .iter()
                .find(|m| {
                    m.name == STAGE_METRIC
                        && m.axes.contains(&("stage".to_string(), stage.to_string()))
                })
                .unwrap_or_else(|| panic!("missing stage series {stage:?}"));
            assert_eq!(m.samples.len(), 2);
        }
        // And the augmented report still round-trips the schema.
        let parsed = BenchReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(parsed, r);
    }
}
