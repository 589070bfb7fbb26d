//! The protocol suite's one frame type and its compiled codecs.
//!
//! The suite speaks two wire formats, [`arq_spec`](crate::arq::arq_spec)
//! and [`window_spec`](crate::window::window_spec). Each is a
//! [`Format`]: its declarative spec, its compiled codec and the width
//! of its sequence number. One [`Frame`] type encodes, decodes and
//! validates the frames of both:
//! [`ArqFrame`](crate::arq::ArqFrame) is `Frame<Arq>` and
//! [`WindowFrame`](crate::window::WindowFrame) is `Frame<Window>`.
//!
//! Each spec is lowered **once** by `netdsl-codec` into a
//! [`SuiteCodec`] — the compiled program plus the pre-resolved field
//! indices the endpoints read — and cached for the process. Endpoints
//! select between the interpretive and compiled paths per scenario
//! through [`FramePath`] (see [`ProtocolSpec::with_engine`]), which
//! `Frame` matches in one encode body and one decode body. The two
//! paths are behaviourally equivalent: the tests here, the frame-level
//! differential over the golden corpus (`tests/frame_differential.rs`)
//! and the differential suite in `netdsl-codec` pin that down.
//!
//! [`ProtocolSpec::with_engine`]: netdsl_netsim::scenario::ProtocolSpec::with_engine
//!
//! Decoding borrows a thread-local scratch [`FieldView`] and hands the
//! payload to the endpoint as a slice of the frame, and encoding keeps
//! its tables inline, so the compiled hot path performs no steady-state
//! allocation: a receiver copies a payload only when it keeps it.

use std::cell::RefCell;
use std::sync::OnceLock;

use netdsl_codec::{lower, CompiledCodec, FieldIx, FieldView};
use netdsl_core::packet::{PacketSpec, PacketValue, Value};
use netdsl_core::DslError;
use netdsl_netsim::scenario::FramePath;
use netdsl_wire::WireError;

use crate::driver::Io;

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

/// One suite wire format: its declarative spec, its cached compiled
/// codec, and the width of its sequence number. Everything else about
/// a suite frame is common to the formats and written once, in
/// [`Frame`].
pub trait Format {
    /// The sequence number as the endpoints hold it: `u8` for ARQ,
    /// `u32` for the window protocols.
    type Seq: Copy + Into<u64> + TryFrom<u64>;

    /// The declarative spec: the interpreted path's codec and the
    /// source the compiled one is lowered from.
    fn spec() -> PacketSpec;

    /// The compiled codec, lowered from [`Format::spec`] once per
    /// process.
    fn codec() -> &'static SuiteCodec;
}

/// The §3.4 stop-and-wait format ([`arq_spec`](crate::arq::arq_spec)),
/// an 8-bit sequence space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arq {}

impl Format for Arq {
    type Seq = u8;

    fn spec() -> PacketSpec {
        crate::arq::arq_spec()
    }

    fn codec() -> &'static SuiteCodec {
        arq_codec()
    }
}

/// The sliding-window format
/// ([`window_spec`](crate::window::window_spec)), a 32-bit sequence
/// space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {}

impl Format for Window {
    type Seq = u32;

    fn spec() -> PacketSpec {
        crate::window::window_spec()
    }

    fn codec() -> &'static SuiteCodec {
        window_codec()
    }
}

/// Frame kind: payload-carrying.
pub(crate) const KIND_DATA: u64 = 1;
/// Frame kind: acknowledgement.
pub(crate) const KIND_ACK: u64 = 2;

/// A decoded, **validated** suite frame in format `F`
/// ([`ArqFrame`](crate::arq::ArqFrame) and
/// [`WindowFrame`](crate::window::WindowFrame)).
///
/// The decoders run the format's full declarative validation, checksum
/// included, so holding a decoded frame is holding the paper's
/// `ChkPacket` certificate. `P` is the payload: owned by default,
/// borrowed from the decoder in what `decode_with` hands a receiver,
/// which copies it only when it keeps it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<F: Format, P = Vec<u8>> {
    /// A payload-carrying frame.
    Data {
        /// Sequence number.
        seq: F::Seq,
        /// Payload bytes.
        payload: P,
    },
    /// An acknowledgement of `seq`. Stop-and-wait and Selective Repeat
    /// read it individually; Go-Back-N reads it cumulatively
    /// ("everything up to and including `seq` received").
    Ack {
        /// Acknowledged sequence number.
        seq: F::Seq,
    },
}

impl<F: Format, P: AsRef<[u8]>> Frame<F, P> {
    /// Encodes to wire bytes (checksum filled in by the spec) via the
    /// interpreted path — see [`Frame::encode_via`] to select.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_via(FramePath::Interpreted)
    }

    /// Encodes to wire bytes through the selected frame path. Both
    /// paths produce byte-identical frames; the compiled one runs the
    /// cached `netdsl-codec` program instead of re-walking the spec.
    pub fn encode_via(&self, path: FramePath) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(path, &mut out);
        out
    }

    /// The one encode body: writes the frame into `out` (cleared
    /// first). On the compiled path a warm `out` takes the frame
    /// without allocating; the interpreted path builds the spec's
    /// owned value tree and copies its encoding out (it is the slow
    /// reference by design).
    fn encode_into(&self, path: FramePath, out: &mut Vec<u8>) {
        let (kind, seq, payload) = match self {
            Frame::Data { seq, payload } => (KIND_DATA, (*seq).into(), payload.as_ref()),
            Frame::Ack { seq } => (KIND_ACK, (*seq).into(), &[][..]),
        };
        match path {
            FramePath::Interpreted => {
                let spec = F::spec();
                let mut v = spec.value();
                v.set("kind", Value::Uint(kind));
                v.set("seq", Value::Uint(seq));
                v.set("payload", Value::Bytes(payload.to_vec()));
                let frame = spec.encode(&v).expect("well-typed frame always encodes");
                out.clear();
                out.extend_from_slice(&frame);
            }
            FramePath::Compiled => {
                let suite = F::codec();
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
        }
    }
}

impl<F: Format> Frame<F> {
    /// Encodes a data frame for a **borrowed** payload into `out`
    /// (cleared first) — the pooled transmit path: no payload clone,
    /// and on the compiled path the frame is written straight into the
    /// caller's (arena) buffer.
    pub fn encode_data_into(path: FramePath, seq: F::Seq, payload: &[u8], out: &mut Vec<u8>) {
        Frame::<F, &[u8]>::Data { seq, payload }.encode_into(path, out);
    }

    /// Encodes an ack frame into `out` (cleared first); see
    /// [`Frame::encode_data_into`].
    pub fn encode_ack_into(path: FramePath, seq: F::Seq, out: &mut Vec<u8>) {
        Frame::<F, &[u8]>::Ack { seq }.encode_into(path, out);
    }

    /// Decodes and validates wire bytes via the interpreted path — see
    /// [`Frame::decode_via`] to select.
    ///
    /// # Errors
    ///
    /// * [`DslError::ChecksumFailed`] for corrupted frames;
    /// * [`DslError::Wire`] for truncation;
    /// * [`DslError::InvalidEnumValue`] for unknown frame kinds.
    pub fn decode(frame: &[u8]) -> Result<Self, DslError> {
        Self::decode_via(FramePath::Interpreted, frame)
    }

    /// Decodes and validates wire bytes through the selected frame
    /// path. Accept/reject verdicts agree between the paths; the
    /// compiled one decodes zero-copy into a thread-local scratch view
    /// and copies only the payload out.
    ///
    /// # Errors
    ///
    /// As for [`Frame::decode`].
    pub fn decode_via(path: FramePath, frame: &[u8]) -> Result<Self, DslError> {
        Self::decode_with(path, frame, |decoded| {
            decoded.map(|f| match f {
                Frame::Data { seq, payload } => Frame::Data {
                    seq,
                    payload: payload.to_vec(),
                },
                Frame::Ack { seq } => Frame::Ack { seq },
            })
        })
    }

    /// The one decode body: decodes and validates like
    /// [`Frame::decode_via`] but hands `f` the frame with its payload
    /// still borrowed — from `frame` on the compiled path (through the
    /// scratch view), from the walker's decoded value on the
    /// interpreted one.
    pub(crate) fn decode_with<R>(
        path: FramePath,
        frame: &[u8],
        f: impl FnOnce(Result<Frame<F, &[u8]>, DslError>) -> R,
    ) -> R {
        match path {
            FramePath::Interpreted => match F::spec().decode(frame) {
                Ok(v) => f(Frame::walked(&v)),
                Err(e) => f(Err(e)),
            },
            FramePath::Compiled => {
                let suite = F::codec();
                f(with_scratch_view(|view| {
                    suite.codec().decode_into(frame, view)?;
                    Frame::checked(
                        view.uint(suite.kind),
                        view.uint(suite.seq),
                        view.bytes(frame, suite.payload),
                    )
                }))
            }
        }
    }

    /// Transmits a data frame for `payload`, encoded straight into a
    /// pooled arena buffer with the payload borrowed (no clone).
    pub(crate) fn send_data(io: &mut Io<'_>, path: FramePath, seq: F::Seq, payload: &[u8]) {
        io.send_with(|buf| Frame::<F>::encode_data_into(path, seq, payload, buf));
    }

    /// Transmits an ack frame, encoded into a pooled arena buffer.
    pub(crate) fn send_ack(io: &mut Io<'_>, path: FramePath, seq: F::Seq) {
        io.send_with(|buf| Frame::<F>::encode_ack_into(path, seq, buf));
    }
}

impl<'p, F: Format> Frame<F, &'p [u8]> {
    /// The frame a walked value holds.
    fn walked(v: &'p PacketValue) -> Result<Self, DslError> {
        Self::checked(v.uint("kind")?, v.uint("seq")?, v.bytes("payload")?)
    }

    /// The frame of a validated `(kind, seq, payload)`.
    fn checked(kind: u64, seq: u64, payload: &'p [u8]) -> Result<Self, DslError> {
        let invalid = |field, value| DslError::Wire(WireError::InvalidValue { field, value });
        let seq = F::Seq::try_from(seq).map_err(|_| invalid("seq", seq))?;
        match kind {
            KIND_DATA => Ok(Frame::Data { seq, payload }),
            KIND_ACK => Ok(Frame::Ack { seq }),
            other => Err(invalid("kind", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
