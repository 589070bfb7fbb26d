//! E12 — compiled codec engine vs interpretive `PacketSpec` walker.
//!
//! The tentpole claim of the `netdsl-codec` subsystem, measured: lowering
//! a spec to the flat IR and decoding zero-copy (borrowed spans instead
//! of an allocated `PacketValue`) must beat the tree-walking interpreter
//! by ≥ 2× on the shared benchmark spec set (`bench::codec_specs` — ARQ,
//! window, IPv4, UDP). Series, per spec: decode ns/frame for both paths
//! and their speedup; encode ns/frame for both paths (compiled reusing
//! one output buffer) and their speedup; a geometric-mean speedup row;
//! plus end-to-end scenario throughput with the frame path on the
//! campaign axis (`SuiteDriver` gbn/sr, interpreted vs compiled).
//!
//! Equivalence is asserted inline before anything is timed: every corpus
//! frame must decode to equal values on both paths, and both campaigns
//! must produce identical per-cell outcomes. Speed without equivalence
//! would be measuring a different codec.
//!
//! Expected shape: `decode_speedup` ≥ 2 on every spec (the acceptance
//! gate for the subsystem), `encode_speedup` > 1, compiled campaign
//! throughput ≥ interpreted.

use std::hint::black_box;
use std::time::Instant;

use netdsl_bench::codec_specs::{fill_values, frame_corpus, spec_set};
use netdsl_bench::harnesses::e12_campaign;
use netdsl_bench::report::{self, BenchReport, Metric};
use netdsl_codec::lower;
use netdsl_netsim::scenario::FramePath;
use netdsl_protocols::scenario::SuiteDriver;

const PAYLOAD: usize = 64;
const THREADS: usize = 4;

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

fn main() {
    let quick = report::quick();
    let reps = if quick { 3 } else { 5 };
    let frames = report::scaled(20_000, 2_000);

    println!("E12: compiled codec engine vs interpretive PacketSpec walker\n");

    let mut out = BenchReport::new(
        "e12_codec_throughput",
        "compiled flat-IR codec vs tree-walking PacketSpec interpreter",
    );

    let mut decode_speedups_all: Vec<f64> = Vec::new();
    let mut encode_speedups_all: Vec<f64> = Vec::new();

    for (label, spec) in spec_set() {
        let codec = lower(&spec).expect("spec set lowers");
        let corpus = frame_corpus(&spec, frames, PAYLOAD);
        let total_bytes: usize = corpus.iter().map(Vec::len).sum();

        // Equivalence gate before timing anything.
        for frame in corpus.iter().take(64) {
            let i = spec.decode(frame).expect("ground-truth frame decodes");
            let c = codec.decode(frame).expect("compiled path accepts");
            assert_eq!(c.to_packet_value(), *i, "{label}: paths diverge");
        }

        // Decode: interpretive walker (pre-built spec, as any caller
        // holding a spec would run it).
        let mut interp_ns = Vec::with_capacity(reps);
        let mut compiled_ns = Vec::with_capacity(reps);
        let mut speedups = Vec::with_capacity(reps);
        for _ in 0..reps {
            let start = Instant::now();
            for frame in &corpus {
                black_box(spec.decode(frame).expect("valid corpus"));
            }
            let i_ns = start.elapsed().as_nanos() as f64 / corpus.len() as f64;

            let start = Instant::now();
            let summary = codec.decode_batch(corpus.iter().map(Vec::as_slice), |_, _, res| {
                black_box(res.is_ok());
            });
            let c_ns = start.elapsed().as_nanos() as f64 / corpus.len() as f64;
            assert_eq!(summary.rejected, 0, "{label}: corpus must validate");

            interp_ns.push(i_ns);
            compiled_ns.push(c_ns);
            speedups.push(i_ns / c_ns);
        }
        decode_speedups_all.extend(speedups.iter().copied());
        println!(
            "decode {label:<7} ({} frames, {}B payload): interp {:>8.1} ns/frame   compiled {:>8.1} ns/frame   speedup {:>5.2}x",
            corpus.len(),
            PAYLOAD,
            mean(&interp_ns),
            mean(&compiled_ns),
            mean(&speedups),
        );

        let frame_rate = |ns: f64| 1e9 / ns;
        out.push(
            Metric::new("decode", "ns/frame")
                .with_axis("spec", label)
                .with_axis("path", "interpreted")
                .with_samples(interp_ns.iter().copied())
                .with_throughput("frames/s", frame_rate(mean(&interp_ns))),
        );
        out.push(
            Metric::new("decode", "ns/frame")
                .with_axis("spec", label)
                .with_axis("path", "compiled")
                .with_samples(compiled_ns.iter().copied())
                .with_throughput(
                    "bytes/s",
                    frame_rate(mean(&compiled_ns)) * total_bytes as f64 / corpus.len() as f64,
                ),
        );
        out.push(
            Metric::new("decode_speedup", "ratio")
                .with_axis("spec", label)
                .with_axis("comparison", "compiled vs interpreted")
                .with_samples(speedups.iter().copied()),
        );

        // Encode: caller-side values prepared once; the compiled path
        // cycles one output buffer (`encode_into`), the interpretive
        // path allocates per frame as `PacketSpec::encode` does.
        let n_values = report::scaled(2_000, 400);
        let packet_values: Vec<_> = (0..n_values)
            .map(|i| fill_values(&spec, i, PAYLOAD))
            .collect();
        let indexed_values: Vec<_> = packet_values
            .iter()
            .map(|pv| codec.values_from(pv))
            .collect();
        let mut e_interp_ns = Vec::with_capacity(reps);
        let mut e_compiled_ns = Vec::with_capacity(reps);
        let mut e_speedups = Vec::with_capacity(reps);
        let mut buf = Vec::new();
        for _ in 0..reps {
            let start = Instant::now();
            for pv in &packet_values {
                black_box(spec.encode(pv).expect("corpus encodes"));
            }
            let i_ns = start.elapsed().as_nanos() as f64 / n_values as f64;

            let start = Instant::now();
            for values in &indexed_values {
                codec.encode_into(values, &mut buf).expect("corpus encodes");
                black_box(buf.len());
            }
            let c_ns = start.elapsed().as_nanos() as f64 / n_values as f64;

            e_interp_ns.push(i_ns);
            e_compiled_ns.push(c_ns);
            e_speedups.push(i_ns / c_ns);
        }
        encode_speedups_all.extend(e_speedups.iter().copied());
        println!(
            "encode {label:<7} ({n_values} frames):                 interp {:>8.1} ns/frame   compiled {:>8.1} ns/frame   speedup {:>5.2}x",
            mean(&e_interp_ns),
            mean(&e_compiled_ns),
            mean(&e_speedups),
        );
        out.push(
            Metric::new("encode", "ns/frame")
                .with_axis("spec", label)
                .with_axis("path", "interpreted")
                .with_samples(e_interp_ns.iter().copied())
                .with_throughput("frames/s", frame_rate(mean(&e_interp_ns))),
        );
        out.push(
            Metric::new("encode", "ns/frame")
                .with_axis("spec", label)
                .with_axis("path", "compiled")
                .with_samples(e_compiled_ns.iter().copied())
                .with_throughput("frames/s", frame_rate(mean(&e_compiled_ns))),
        );
        out.push(
            Metric::new("encode_speedup", "ratio")
                .with_axis("spec", label)
                .with_axis("comparison", "compiled vs interpreted")
                .with_samples(e_speedups.iter().copied()),
        );
    }

    let decode_geomean = geomean(&decode_speedups_all);
    let encode_geomean = geomean(&encode_speedups_all);
    println!(
        "\ngeomean across the spec set: decode {decode_geomean:.2}x   encode {encode_geomean:.2}x"
    );
    out.push(
        Metric::new("decode_speedup", "ratio")
            .with_axis("spec", "geomean")
            .with_axis("comparison", "compiled vs interpreted")
            .with_sample(decode_geomean),
    );
    out.push(
        Metric::new("encode_speedup", "ratio")
            .with_axis("spec", "geomean")
            .with_axis("comparison", "compiled vs interpreted")
            .with_sample(encode_geomean),
    );

    // End to end: the frame path selected per scenario, through the
    // suite driver. Equivalence asserted cell-for-cell, then timed.
    let driver = SuiteDriver::new();
    let ri = e12_campaign(quick, FramePath::Interpreted).run(&driver, THREADS);
    let rc = e12_campaign(quick, FramePath::Compiled).run(&driver, THREADS);
    assert_eq!(ri.runs.len(), rc.runs.len());
    for (a, b) in ri.runs.iter().zip(rc.runs.iter()) {
        assert_eq!(
            a.outcome, b.outcome,
            "scenario {} diverges",
            a.scenario.name
        );
    }
    for (path_label, path) in [
        ("interpreted", FramePath::Interpreted),
        ("compiled", FramePath::Compiled),
    ] {
        let c = e12_campaign(quick, path);
        let scenarios = c.scenarios().len();
        let mut rates = Vec::with_capacity(reps);
        for _ in 0..reps {
            let start = Instant::now();
            black_box(c.run(&driver, THREADS));
            rates.push(scenarios as f64 / start.elapsed().as_secs_f64());
        }
        println!(
            "campaign  {path_label:<12} ({scenarios} scenarios × {THREADS} threads): {:>9.1} scenarios/s",
            mean(&rates)
        );
        out.push(
            Metric::new("campaign_throughput", "scenarios/s")
                .with_axis("driver", "suite")
                .with_axis("path", path_label)
                .with_axis("threads", THREADS.to_string())
                .with_samples(rates.iter().copied()),
        );
    }

    // Advisory: scheduler noise must not redden CI, but the
    // artifact carries the number the subsystem is gated on.
    if decode_geomean < 2.0 {
        eprintln!(
            "WARNING: compiled decode only {decode_geomean:.2}x over the interpreter \
             (expected ≥ 2x); likely measurement noise on a preempted runner"
        );
    }

    println!("\nexpected shape: decode_speedup ≥ 2 on every spec; encode_speedup > 1;");
    println!("compiled campaign throughput ≥ interpreted.");

    out.write();

    // Alias artifact pinning the subsystem's acceptance path
    // (`bench-results/BENCH_E12.json`): same measurements under the
    // short id, schema-valid on its own.
    let mut alias = BenchReport::new("E12", "alias of e12_codec_throughput (codec engine gate)");
    alias.metrics = out.metrics.clone();
    alias.write();
}
