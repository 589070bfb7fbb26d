//! Compiled frame codecs for the protocol suite.
//!
//! Each wire format of this crate ([`arq_spec`](crate::arq::arq_spec),
//! [`window_spec`](crate::window::window_spec)) is lowered **once** by
//! `netdsl-codec` into a [`SuiteCodec`] — the compiled program plus the
//! pre-resolved field indices the endpoints read — and cached for the
//! process. Endpoints select between the interpretive and compiled
//! paths per scenario through [`FramePath`] (see
//! [`ProtocolSpec::with_frame_path`]); the two paths are behaviourally
//! equivalent, which the tests here and the differential suite in
//! `netdsl-codec` pin down.
//!
//! [`ProtocolSpec::with_frame_path`]: netdsl_netsim::scenario::ProtocolSpec::with_frame_path
//!
//! Decoding borrows a thread-local scratch [`FieldView`] and hands the
//! payload to the endpoint as a slice of the frame, and encoding keeps
//! its tables inline, so the compiled hot path performs no steady-state
//! allocation: a receiver copies a payload only when it keeps it.

use std::cell::RefCell;
use std::sync::OnceLock;

use netdsl_codec::{lower, CompiledCodec, FieldIx, FieldView};
use netdsl_core::packet::{PacketSpec, PacketValue};
use netdsl_core::DslError;
use netdsl_netsim::scenario::FramePath;

/// A compiled suite wire format: the program plus the field indices the
/// endpoints touch (`kind`, `seq`, `payload`), resolved once.
#[derive(Debug)]
pub struct SuiteCodec {
    codec: CompiledCodec,
    /// Index of the frame-kind discriminator field.
    pub kind: FieldIx,
    /// Index of the sequence-number field.
    pub seq: FieldIx,
    /// Index of the payload byte run.
    pub payload: FieldIx,
}

impl SuiteCodec {
    fn new(spec: &PacketSpec) -> SuiteCodec {
        let codec = lower(spec).expect("suite specs always lower");
        let ix = |name: &str| {
            codec
                .field_index(name)
                .unwrap_or_else(|| panic!("suite spec {:?} has a {name} field", spec.name()))
        };
        SuiteCodec {
            kind: ix("kind"),
            seq: ix("seq"),
            payload: ix("payload"),
            codec,
        }
    }

    /// The compiled program itself.
    pub fn codec(&self) -> &CompiledCodec {
        &self.codec
    }
}

/// The compiled §3.4 ARQ codec (`kind:8 seq:8 chk:8 payload:*`),
/// lowered on first use and shared for the process lifetime.
pub fn arq_codec() -> &'static SuiteCodec {
    static CODEC: OnceLock<SuiteCodec> = OnceLock::new();
    CODEC.get_or_init(|| SuiteCodec::new(&crate::arq::arq_spec()))
}

/// The compiled sliding-window codec
/// (`kind:8 seq:32 chk:16 payload:*`), lowered on first use.
pub fn window_codec() -> &'static SuiteCodec {
    static CODEC: OnceLock<SuiteCodec> = OnceLock::new();
    CODEC.get_or_init(|| SuiteCodec::new(&crate::window::window_spec()))
}

thread_local! {
    /// Scratch view reused by every compiled decode on this thread.
    static SCRATCH: RefCell<FieldView> = RefCell::new(FieldView::new());
}

/// Runs `f` with the thread's scratch [`FieldView`] (zero-allocation
/// steady state for compiled decodes).
fn with_scratch_view<R>(f: impl FnOnce(&mut FieldView) -> R) -> R {
    SCRATCH.with(|view| f(&mut view.borrow_mut()))
}

/// Compiled encode of one suite frame (`kind`, `seq`, `payload`) —
/// the shared body behind `ArqFrame::encode_via` and
/// `WindowFrame::encode_via`, so the compiled-path protocol (indexed
/// values, program execution) lives in exactly one place.
pub(crate) fn compiled_encode(suite: &SuiteCodec, kind: u64, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    compiled_encode_into(suite, kind, seq, payload, &mut out);
    out
}

/// Compiled encode of one suite frame into a caller-reused buffer
/// (cleared first) — the body behind the pooled transmit path, where
/// `out` is an arena buffer and a warm encode allocates nothing.
pub(crate) fn compiled_encode_into(
    suite: &SuiteCodec,
    kind: u64,
    seq: u64,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    let mut values = suite.codec().values();
    values
        .set_uint(suite.kind, kind)
        .set_uint(suite.seq, seq)
        .set_bytes(suite.payload, payload);
    suite
        .codec()
        .encode_into(&values, out)
        .expect("well-typed frame always encodes");
}

/// Decodes and validates one suite frame through `path` and hands `f`
/// its `(kind, seq, payload)` — the shared body behind the `ArqFrame`
/// and `WindowFrame` decoders. The payload is borrowed: from `frame` on
/// the compiled path (zero-copy, through the scratch view), from the
/// walker's decoded value on the interpreted one.
pub(crate) fn decode_with<R>(
    path: FramePath,
    spec: fn() -> PacketSpec,
    suite: fn() -> &'static SuiteCodec,
    frame: &[u8],
    f: impl FnOnce(Result<(u64, u64, &[u8]), DslError>) -> R,
) -> R {
    fn walked(v: &PacketValue) -> Result<(u64, u64, &[u8]), DslError> {
        Ok((v.uint("kind")?, v.uint("seq")?, v.bytes("payload")?))
    }
    match path {
        FramePath::Interpreted => match spec().decode(frame) {
            Ok(checked) => f(walked(&checked)),
            Err(e) => f(Err(e)),
        },
        FramePath::Compiled => {
            let suite = suite();
            f(with_scratch_view(|view| {
                suite.codec().decode_into(frame, view)?;
                Ok((
                    view.uint(suite.kind),
                    view.uint(suite.seq),
                    view.bytes(frame, suite.payload),
                ))
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdsl_core::packet::Value;

    #[test]
    fn cached_codecs_resolve_their_fields() {
        let arq = arq_codec();
        assert_eq!(arq.codec().name(), "arq");
        assert_eq!(usize::from(arq.kind), 0);
        assert_eq!(usize::from(arq.payload), 3);
        let win = window_codec();
        assert_eq!(win.codec().name(), "window");
        assert_eq!(win.codec().min_frame_len(), 1 + 4 + 2);
    }

    #[test]
    fn compiled_and_interpretive_suite_frames_are_byte_identical() {
        for (spec, suite) in [
            (crate::arq::arq_spec(), arq_codec()),
            (crate::window::window_spec(), window_codec()),
        ] {
            let mut v = spec.value();
            v.set("kind", Value::Uint(1));
            v.set("seq", Value::Uint(3));
            v.set("payload", Value::Bytes(b"payload".to_vec()));
            let interpretive = spec.encode(&v).unwrap();
            let compiled = suite.codec().encode_packet_value(&v).unwrap();
            assert_eq!(interpretive, compiled, "{}", spec.name());
        }
    }
}
