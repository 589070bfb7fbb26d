//! Frame-level differential over the committed golden corpus.
//!
//! Every frame a fixture under `tests/golden/` recorded — each `sent`
//! frame and each `delivered` copy, corrupted or not — is decoded by
//! both frame paths of its wire format: the interpreted walk of the
//! declarative spec and the compiled `netdsl-codec` program. The two
//! must return the same verdict and the same frame, every accepted
//! frame must re-encode to its input bytes on both paths, and every
//! delivery's verdict must be the one the fixture recorded. The
//! golden replays show that whole sessions agree; this shows it frame
//! by frame, on the frames those sessions actually put on the wire.

use std::fmt::Debug;
use std::path::PathBuf;

use netdsl::netsim::{FlightKind, GoldenEvent, GoldenTrace, Verdict};
use netdsl::protocols::arq::ArqFrame;
use netdsl::protocols::scenario::{BASELINE, GO_BACK_N, SELECTIVE_REPEAT, STOP_AND_WAIT};
use netdsl::protocols::window::WindowFrame;
use netdsl::scenario::FramePath;

const PATHS: [FramePath; 2] = [FramePath::Interpreted, FramePath::Compiled];

fn fixtures() -> Vec<GoldenTrace> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap();
            GoldenTrace::from_json_str(&text)
                .unwrap_or_else(|e| panic!("{}: {e:?}", path.display()))
        })
        .collect()
}

/// Frames checked and frames rejected in one fixture.
#[derive(Debug, Default)]
struct Tally {
    frames: usize,
    rejected: usize,
}

/// Runs every check on `trace`'s frame events through one format's
/// `decode_via` and `encode_via`.
fn differential<T: Debug + PartialEq, E: Debug>(
    trace: &GoldenTrace,
    decode_via: fn(FramePath, &[u8]) -> Result<T, E>,
    encode_via: fn(&T, FramePath) -> Vec<u8>,
) -> Tally {
    let mut tally = Tally::default();
    let framed = |e: &&GoldenEvent| matches!(e.kind, FlightKind::Send | FlightKind::Deliver);
    for (i, event) in trace.events.iter().filter(framed).enumerate() {
        let at = format!(
            "{} frame {i} ({:?} at {})",
            trace.name, event.kind, event.at
        );
        let bytes = &event.bytes;
        let [interpreted, compiled] = PATHS.map(|path| decode_via(path, bytes));
        assert_eq!(
            interpreted.is_ok(),
            compiled.is_ok(),
            "{at}: the paths disagree on the verdict ({interpreted:?} / {compiled:?})"
        );
        assert_eq!(
            interpreted.as_ref().ok(),
            compiled.as_ref().ok(),
            "{at}: the paths decode different frames"
        );
        tally.frames += 1;
        match &interpreted {
            Ok(frame) => {
                for path in PATHS {
                    assert_eq!(
                        &encode_via(frame, path),
                        bytes,
                        "{at}: {path:?} does not re-encode the accepted frame to its input"
                    );
                }
            }
            Err(_) => {
                tally.rejected += 1;
                assert_eq!(
                    event.kind,
                    FlightKind::Deliver,
                    "{at}: a sender put a frame on the wire that its format rejects"
                );
            }
        }
        if event.kind == FlightKind::Deliver {
            let verdict = if interpreted.is_ok() {
                Verdict::Valid
            } else {
                Verdict::Corrupt
            };
            assert_eq!(
                event.verdict,
                Some(verdict),
                "{at}: the decoders' verdict is not the recorded one"
            );
        }
    }
    tally
}

#[test]
fn both_frame_paths_agree_on_every_recorded_frame() {
    let fixtures = fixtures();
    assert!(!fixtures.is_empty(), "no golden fixtures found");
    let mut total = Tally::default();
    for trace in &fixtures {
        let tally = match trace.scenario.protocol.as_str() {
            // The baseline speaks the ARQ wire format, so the ARQ codec
            // must read its frames as well.
            STOP_AND_WAIT | BASELINE => {
                differential(trace, ArqFrame::decode_via, ArqFrame::encode_via)
            }
            GO_BACK_N | SELECTIVE_REPEAT => {
                differential(trace, WindowFrame::decode_via, WindowFrame::encode_via)
            }
            other => panic!("{}: unknown protocol {other:?}", trace.name),
        };
        assert!(tally.frames > 0, "{}: no frames recorded", trace.name);
        total.frames += tally.frames;
        total.rejected += tally.rejected;
    }
    assert!(
        total.rejected > 0,
        "the corpus must exercise rejections: {total:?}"
    );
}
