//! The register-style interpreter over a [`CompiledCodec`] program.
//!
//! **Decode** is zero-copy: one structural pass reads every field into a
//! reusable [`FieldView`] — a register file of integer values plus a
//! span table of bit offsets/widths into the borrowed frame — with
//! constant and enum guards applied inline; a second pass replays the
//! program's deferred checks (length fields, checksums) against the
//! resolved spans. Payload bytes are never copied: [`FieldView::bytes`]
//! returns a slice of the caller's frame.
//!
//! **Encode** writes into a caller-supplied buffer
//! ([`CompiledCodec::encode_into`]) from an indexed [`Values`] table,
//! then patches checksums in place through the streaming
//! [`ChecksumEngine`] — no intermediate allocations once the buffer has
//! grown to the working frame size.
//!
//! **Batches** amortise the one small allocation decode needs (the view
//! itself): [`CompiledCodec::decode_batch`] reuses a single view across
//! every frame and hands each result to a sink.
//!
//! Verdict equivalence with the interpretive
//! [`PacketSpec`](netdsl_core::packet::PacketSpec) walker
//! (accept/reject on decode, byte-identical frames on encode) is pinned
//! by the differential proptest suite in `tests/differential.rs`.

use netdsl_core::packet::{PacketValue, Value};
use netdsl_core::DslError;
use netdsl_wire::checksum::ChecksumEngine;
use netdsl_wire::{BitReader, BitWriter, WireError};

use crate::ir::{CompiledCodec, CoverageIr, FieldIx, Op};

/// Reusable zero-copy decode output: per-field integer registers plus
/// bit spans into the decoded frame. Create once, pass to
/// [`CompiledCodec::decode_into`] per frame.
#[derive(Debug, Clone, Default)]
pub struct FieldView {
    /// Decoded integer per field (0 for byte-run fields).
    regs: Vec<u64>,
    /// Bit offset of each field in the frame.
    offs: Vec<u32>,
    /// Bit width of each field in the frame.
    widths: Vec<u32>,
}

impl FieldView {
    /// An empty view (sized on first decode).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, fields: usize) {
        self.regs.clear();
        self.regs.resize(fields, 0);
        self.offs.clear();
        self.offs.resize(fields, 0);
        self.widths.clear();
        self.widths.resize(fields, 0);
    }

    /// Number of fields resolved by the last decode.
    pub fn field_count(&self) -> usize {
        self.regs.len()
    }

    /// The decoded integer register of field `ix` (0 for byte runs).
    pub fn uint(&self, ix: FieldIx) -> u64 {
        self.regs[usize::from(ix)]
    }

    /// Bit `(offset, width)` of field `ix` in the frame.
    pub fn bit_span(&self, ix: FieldIx) -> (usize, usize) {
        let i = usize::from(ix);
        (self.offs[i] as usize, self.widths[i] as usize)
    }

    /// Byte range `[start, end)` covering field `ix` (sub-byte fields
    /// cover their containing bytes, matching the interpretive layout).
    pub fn byte_range(&self, ix: FieldIx) -> (usize, usize) {
        let (off, width) = self.bit_span(ix);
        (off / 8, (off + width).div_ceil(8))
    }

    /// The bytes of field `ix`, borrowed straight from `frame` — the
    /// zero-copy contract. `frame` must be the slice this view was
    /// decoded from; nothing else holds meaningful spans.
    pub fn bytes<'f>(&self, frame: &'f [u8], ix: FieldIx) -> &'f [u8] {
        let (s, e) = self.byte_range(ix);
        &frame[s..e]
    }

    fn record(&mut self, field: FieldIx, off: usize, width: usize) {
        let i = usize::from(field);
        self.offs[i] = off as u32;
        self.widths[i] = width as u32;
    }
}

/// A decoded frame: the borrowed wire bytes plus an owned [`FieldView`]
/// and the codec for by-name access. Produced by
/// [`CompiledCodec::decode`]; hot paths that want to amortise the view
/// allocation use [`CompiledCodec::decode_into`] or
/// [`CompiledCodec::decode_batch`] directly.
#[derive(Debug, Clone)]
pub struct Frame<'c, 'f> {
    codec: &'c CompiledCodec,
    raw: &'f [u8],
    view: FieldView,
}

impl<'c, 'f> Frame<'c, 'f> {
    /// The wire bytes this frame was decoded from.
    pub fn raw(&self) -> &'f [u8] {
        self.raw
    }

    /// The underlying span table.
    pub fn view(&self) -> &FieldView {
        &self.view
    }

    /// Integer value of the named field (`None` for unknown names or
    /// byte-run fields).
    pub fn uint(&self, name: &str) -> Option<u64> {
        let ix = self.codec.field_index(name)?;
        match self.codec.ops[usize::from(ix)] {
            Op::BytesFixed { .. } | Op::BytesPrefixed { .. } | Op::BytesRest { .. } => None,
            _ => Some(self.view.uint(ix)),
        }
    }

    /// Bytes of the named byte-run field, borrowed from the frame
    /// (`None` for unknown names or integer fields).
    pub fn bytes(&self, name: &str) -> Option<&'f [u8]> {
        let ix = self.codec.field_index(name)?;
        match self.codec.ops[usize::from(ix)] {
            Op::BytesFixed { .. } | Op::BytesPrefixed { .. } | Op::BytesRest { .. } => {
                Some(self.view.bytes(self.raw, ix))
            }
            _ => None,
        }
    }

    /// Materialises an owned [`PacketValue`] (copies byte fields) — the
    /// bridge back to the interpretive representation, used by the
    /// differential tests.
    pub fn to_packet_value(&self) -> PacketValue {
        let mut pv = PacketValue::new();
        for (i, op) in self.codec.ops.iter().enumerate() {
            let name = &self.codec.field_names[i];
            match op {
                Op::BytesFixed { .. } | Op::BytesPrefixed { .. } | Op::BytesRest { .. } => {
                    pv.set(
                        name,
                        Value::Bytes(self.view.bytes(self.raw, i as FieldIx).to_vec()),
                    );
                }
                _ => {
                    pv.set(name, Value::Uint(self.view.uint(i as FieldIx)));
                }
            }
        }
        pv
    }
}

/// Aggregate outcome of one [`CompiledCodec::decode_batch`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Frames examined.
    pub frames: usize,
    /// Frames that decoded and validated.
    pub accepted: usize,
    /// Frames rejected by any structural or semantic check.
    pub rejected: usize,
    /// Total wire bytes examined.
    pub bytes: u64,
}

impl BatchSummary {
    /// Fraction of frames accepted (0 for an empty batch).
    pub fn accept_ratio(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.accepted as f64 / self.frames as f64
        }
    }
}

/// Fields a per-frame table holds inline. Every suite spec fits, so a
/// warm encode allocates nothing; larger specs spill to the heap.
const INLINE_FIELDS: usize = 16;

/// A per-field table of fixed length: inline for codecs of up to
/// [`INLINE_FIELDS`] fields, on the heap beyond.
#[derive(Debug, Clone)]
enum Table<T> {
    Inline([T; INLINE_FIELDS], usize),
    Heap(Vec<T>),
}

impl<T: Copy> Table<T> {
    fn filled(len: usize, fill: T) -> Self {
        if len <= INLINE_FIELDS {
            Table::Inline([fill; INLINE_FIELDS], len)
        } else {
            Table::Heap(vec![fill; len])
        }
    }
}

impl<T> std::ops::Deref for Table<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Table::Inline(items, len) => &items[..*len],
            Table::Heap(items) => items,
        }
    }
}

impl<T> std::ops::DerefMut for Table<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Table::Inline(items, len) => &mut items[..*len],
            Table::Heap(items) => items,
        }
    }
}

/// Indexed value table feeding [`CompiledCodec::encode_into`] — the
/// compiled counterpart of [`PacketValue`], keyed by [`FieldIx`] so the
/// encoder never hashes or compares a name. Byte fields borrow the
/// caller's buffers. Obtain one via [`CompiledCodec::values`] and
/// [`Values::clear`] it between frames; for specs of up to 16 fields it
/// lives entirely inline.
#[derive(Debug, Clone)]
pub struct Values<'v> {
    slots: Table<Slot<'v>>,
}

#[derive(Debug, Clone, Copy)]
enum Slot<'v> {
    Unset,
    Uint(u64),
    Bytes(&'v [u8]),
}

impl<'v> Values<'v> {
    fn new(fields: usize) -> Self {
        Values {
            slots: Table::filled(fields, Slot::Unset),
        }
    }

    /// Sets an integer field.
    pub fn set_uint(&mut self, ix: FieldIx, v: u64) -> &mut Self {
        self.slots[usize::from(ix)] = Slot::Uint(v);
        self
    }

    /// Sets a byte-run field (borrowing the caller's bytes).
    pub fn set_bytes(&mut self, ix: FieldIx, b: &'v [u8]) -> &mut Self {
        self.slots[usize::from(ix)] = Slot::Bytes(b);
        self
    }

    /// Unsets every slot, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.fill(Slot::Unset);
    }

    fn uint(&self, ix: FieldIx, name: &str) -> Result<u64, DslError> {
        match self.slots[usize::from(ix)] {
            Slot::Uint(v) => Ok(v),
            Slot::Bytes(_) => Err(DslError::WrongKind {
                field: name.to_string(),
            }),
            Slot::Unset => Err(DslError::MissingField {
                field: name.to_string(),
            }),
        }
    }

    fn bytes(&self, ix: FieldIx, name: &str) -> Result<&'v [u8], DslError> {
        match self.slots[usize::from(ix)] {
            Slot::Bytes(b) => Ok(b),
            Slot::Uint(_) => Err(DslError::WrongKind {
                field: name.to_string(),
            }),
            Slot::Unset => Err(DslError::MissingField {
                field: name.to_string(),
            }),
        }
    }
}

impl CompiledCodec {
    /// An empty [`Values`] table sized for this codec's fields.
    #[must_use]
    pub fn values(&self) -> Values<'static> {
        Values::new(self.field_count())
    }

    /// Builds a [`Values`] table from a by-name [`PacketValue`]
    /// (borrowing its byte fields). Names that are not fields of this
    /// codec are ignored, mirroring interpretive encode; values for
    /// computed fields are likewise ignored by the encoder itself.
    pub fn values_from<'v>(&self, pv: &'v PacketValue) -> Values<'v> {
        let mut values = Values::new(self.field_count());
        for (name, v) in pv.iter() {
            if let Some(ix) = self.field_index(name) {
                match v {
                    Value::Uint(u) => {
                        values.set_uint(ix, *u);
                    }
                    Value::Bytes(b) => {
                        values.set_bytes(ix, b);
                    }
                }
            }
        }
        values
    }

    /// Decodes and fully validates `frame` into the reusable `view` —
    /// the zero-copy primitive behind [`CompiledCodec::decode`] and
    /// [`CompiledCodec::decode_batch`]. On success the view's registers
    /// and spans describe `frame`; on error its contents are
    /// unspecified.
    ///
    /// # Errors
    ///
    /// The same classes as
    /// [`PacketSpec::decode`](netdsl_core::packet::PacketSpec::decode):
    /// wire errors for
    /// truncation or trailing bytes, [`DslError::ConstMismatch`],
    /// [`DslError::InvalidEnumValue`], [`DslError::LengthFieldMismatch`]
    /// and [`DslError::ChecksumFailed`]. Accept/reject verdicts agree
    /// with the interpretive walker frame-for-frame.
    pub fn decode_into(&self, frame: &[u8], view: &mut FieldView) -> Result<(), DslError> {
        view.reset(self.ops.len());
        if frame.len() < self.min_frame_len {
            // The structural pass would fail partway; fail fast with the
            // same error class (truncation).
            return Err(DslError::Wire(WireError::UnexpectedEnd {
                requested: self.min_frame_len * 8 - frame.len() * 8,
                available: 0,
            }));
        }
        let mut reader = BitReader::new(frame);

        // Pass 1: structural resolution with inline guards.
        for op in &self.ops {
            let off = reader.bit_position();
            match *op {
                Op::Uint { field, bits } => {
                    let v = reader.read_bits(usize::from(bits))?;
                    view.regs[usize::from(field)] = v;
                    view.record(field, off, usize::from(bits));
                }
                Op::Const { field, bits, value } => {
                    let v = reader.read_bits(usize::from(bits))?;
                    view.regs[usize::from(field)] = v;
                    view.record(field, off, usize::from(bits));
                    if v != value {
                        return Err(DslError::ConstMismatch {
                            field: self.field_names[usize::from(field)].clone(),
                            expected: value,
                            found: v,
                        });
                    }
                }
                Op::Enum { field, bits, set } => {
                    let v = reader.read_bits(usize::from(bits))?;
                    view.regs[usize::from(field)] = v;
                    view.record(field, off, usize::from(bits));
                    if self.enum_sets[usize::from(set)].binary_search(&v).is_err() {
                        return Err(DslError::InvalidEnumValue {
                            field: self.field_names[usize::from(field)].clone(),
                            value: v,
                        });
                    }
                }
                Op::Length { field, bits, .. } => {
                    let v = reader.read_bits(usize::from(bits))?;
                    view.regs[usize::from(field)] = v;
                    view.record(field, off, usize::from(bits));
                }
                Op::Checksum { field, kind, .. } => {
                    let bits = kind.width_bits();
                    let v = reader.read_bits(bits)?;
                    view.regs[usize::from(field)] = v;
                    view.record(field, off, bits);
                }
                Op::BytesFixed { field, len } => {
                    reader.read_bytes(len as usize)?;
                    view.record(field, off, len as usize * 8);
                }
                Op::BytesPrefixed {
                    field,
                    prefix,
                    unit,
                    bias,
                    ..
                } => {
                    let n = prefixed_len(
                        view.regs[usize::from(prefix)],
                        unit,
                        bias,
                        &self.field_names[usize::from(prefix)],
                    )?;
                    reader.read_bytes(n)?;
                    view.record(field, off, n * 8);
                }
                Op::BytesRest { field } => {
                    let n = reader.remaining_bits() / 8;
                    reader.read_bytes(n)?;
                    view.record(field, off, n * 8);
                }
            }
        }
        if !reader.is_empty() {
            return Err(DslError::Wire(WireError::LengthMismatch {
                declared: reader.bit_position() / 8,
                actual: frame.len(),
            }));
        }

        // Pass 2: deferred checks over the resolved spans.
        for &op_ix in &self.deferred {
            match self.ops[usize::from(op_ix)] {
                Op::Length {
                    field,
                    cov,
                    unit,
                    bias,
                    ..
                } => {
                    let covered = self.covered_len(cov, view, frame.len()) as u64;
                    let expect = (covered / unit) as i64 + bias;
                    let found = view.regs[usize::from(field)] as i64;
                    if found != expect {
                        return Err(DslError::LengthFieldMismatch {
                            field: self.field_names[usize::from(field)].clone(),
                            declared: found.max(0) as usize,
                            actual: expect.max(0) as usize,
                        });
                    }
                }
                Op::Checksum { field, kind, cov } => {
                    let computed = self.checksum_over(cov, field, kind, view, frame);
                    if computed != view.regs[usize::from(field)] {
                        return Err(DslError::ChecksumFailed {
                            field: self.field_names[usize::from(field)].clone(),
                        });
                    }
                }
                _ => unreachable!("only length/checksum ops are deferred"),
            }
        }
        Ok(())
    }

    /// Decodes and validates `frame`, returning a zero-copy [`Frame`]
    /// with by-name accessors. Allocates one fresh [`FieldView`]; batch
    /// paths prefer [`CompiledCodec::decode_into`] /
    /// [`CompiledCodec::decode_batch`].
    ///
    /// # Errors
    ///
    /// As for [`CompiledCodec::decode_into`].
    pub fn decode<'c, 'f>(&'c self, frame: &'f [u8]) -> Result<Frame<'c, 'f>, DslError> {
        let mut view = FieldView::new();
        self.decode_into(frame, &mut view)?;
        Ok(Frame {
            codec: self,
            raw: frame,
            view,
        })
    }

    /// Decodes every frame of a batch through one reused [`FieldView`],
    /// handing each outcome to `sink` as
    /// `(index, frame, Ok(&view) | Err(&error))`, and returns the
    /// aggregate [`BatchSummary`]. Steady-state this performs no
    /// allocation per frame.
    pub fn decode_batch<'f, I, F>(&self, frames: I, mut sink: F) -> BatchSummary
    where
        I: IntoIterator<Item = &'f [u8]>,
        F: FnMut(usize, &'f [u8], Result<&FieldView, &DslError>),
    {
        let mut view = FieldView::new();
        let mut summary = BatchSummary::default();
        for (i, frame) in frames.into_iter().enumerate() {
            summary.frames += 1;
            summary.bytes += frame.len() as u64;
            match self.decode_into(frame, &mut view) {
                Ok(()) => {
                    summary.accepted += 1;
                    sink(i, frame, Ok(&view));
                }
                Err(e) => {
                    summary.rejected += 1;
                    sink(i, frame, Err(&e));
                }
            }
        }
        summary
    }

    /// Encodes `values` into `out` (cleared first, allocation reused) —
    /// computed fields (constants, lengths, checksums) are filled in by
    /// the program; supplied values for them are ignored.
    ///
    /// # Errors
    ///
    /// The same classes as interpretive encode: [`DslError::MissingField`]
    /// / [`DslError::WrongKind`] for absent or ill-typed values,
    /// [`DslError::LengthFieldMismatch`] for fixed/prefixed length
    /// disagreements, [`DslError::InvalidEnumValue`] for enum
    /// violations, [`DslError::Wire`] for width overflows. Frames
    /// produced for accepted values are byte-identical to
    /// [`PacketSpec::encode`](netdsl_core::packet::PacketSpec::encode).
    pub fn encode_into(&self, values: &Values<'_>, out: &mut Vec<u8>) -> Result<(), DslError> {
        // Pass 0: resolve every field's width and bit offset (op `i`
        // encodes field `i`).
        let mut spans = Table::filled(self.ops.len(), (0u32, 0u32));
        let mut off = 0usize;
        for (span, op) in spans.iter_mut().zip(&self.ops) {
            let width = match *op {
                Op::BytesFixed { field, len } => {
                    let name = &self.field_names[usize::from(field)];
                    let b = values.bytes(field, name)?;
                    if b.len() != len as usize {
                        return Err(DslError::LengthFieldMismatch {
                            field: name.clone(),
                            declared: len as usize,
                            actual: b.len(),
                        });
                    }
                    b.len() * 8
                }
                Op::BytesPrefixed {
                    field,
                    prefix,
                    unit,
                    bias,
                    prefix_is_computed,
                } => {
                    let name = &self.field_names[usize::from(field)];
                    let b = values.bytes(field, name)?;
                    // A caller-supplied prefix must agree with the
                    // payload; a computed (Length) prefix is derived, and
                    // decode re-verifies the relationship from the other
                    // side — mirroring the interpretive encoder.
                    if !prefix_is_computed {
                        let prefix_name = &self.field_names[usize::from(prefix)];
                        let v = values.uint(prefix, prefix_name)?;
                        let expect = prefixed_len(v, unit, bias, prefix_name)?;
                        if expect != b.len() {
                            return Err(DslError::LengthFieldMismatch {
                                field: name.clone(),
                                declared: expect,
                                actual: b.len(),
                            });
                        }
                    }
                    b.len() * 8
                }
                Op::BytesRest { field } => {
                    let name = &self.field_names[usize::from(field)];
                    values.bytes(field, name)?.len() * 8
                }
                _ => op.fixed_bits().expect("non-byte ops are fixed-width"),
            };
            *span = (off as u32, width as u32);
            off += width;
        }
        let frame_len = off / 8;

        // Pass 1: serialise, leaving checksums zeroed.
        let mut writer = BitWriter::from_vec(std::mem::take(out));
        for op in &self.ops {
            match *op {
                Op::Uint { field, bits } => {
                    let name = &self.field_names[usize::from(field)];
                    writer.write_bits(values.uint(field, name)?, usize::from(bits))?;
                }
                Op::Const { bits, value, .. } => {
                    writer.write_bits(value, usize::from(bits))?;
                }
                Op::Enum { field, bits, set } => {
                    let name = &self.field_names[usize::from(field)];
                    let v = values.uint(field, name)?;
                    if self.enum_sets[usize::from(set)].binary_search(&v).is_err() {
                        return Err(DslError::InvalidEnumValue {
                            field: name.clone(),
                            value: v,
                        });
                    }
                    writer.write_bits(v, usize::from(bits))?;
                }
                Op::Length {
                    field,
                    bits,
                    cov,
                    unit,
                    bias,
                } => {
                    let covered = self.covered_len_spans(cov, &spans, frame_len) as u64;
                    let v = (covered / unit) as i64 + bias;
                    if v < 0 {
                        return Err(DslError::LengthFieldMismatch {
                            field: self.field_names[usize::from(field)].clone(),
                            declared: 0,
                            actual: covered as usize,
                        });
                    }
                    writer.write_bits(v as u64, usize::from(bits))?;
                }
                Op::Checksum { kind, .. } => {
                    writer.write_bits(0, kind.width_bits())?;
                }
                Op::BytesFixed { field, .. }
                | Op::BytesPrefixed { field, .. }
                | Op::BytesRest { field } => {
                    let name = &self.field_names[usize::from(field)];
                    writer.write_bytes(values.bytes(field, name)?)?;
                }
            }
        }
        let mut frame = writer.into_bytes();

        // Pass 2: patch checksums in field order. Each one's own bytes
        // are still zero when it is computed (patched only afterwards),
        // so streaming the covered ranges directly implements the
        // "own field zeroed" rule without a scratch buffer.
        for &op_ix in &self.deferred {
            if let Op::Checksum { field, kind, cov } = self.ops[usize::from(op_ix)] {
                let mut engine = ChecksumEngine::new(kind);
                self.for_each_covered_range_spans(cov, &spans, frame_len, |s, e| {
                    engine.update(&frame[s..e]);
                });
                let value = engine.finish();
                let (bit_off, _) = spans[usize::from(field)];
                let s = bit_off as usize / 8;
                let nbytes = kind.width_bits() / 8;
                let be = value.to_be_bytes();
                frame[s..s + nbytes].copy_from_slice(&be[8 - nbytes..]);
            }
        }
        *out = frame;
        Ok(())
    }

    /// Encodes `values` into a fresh frame (see
    /// [`CompiledCodec::encode_into`] for the buffer-reusing form).
    ///
    /// # Errors
    ///
    /// As for [`CompiledCodec::encode_into`].
    pub fn encode(&self, values: &Values<'_>) -> Result<Vec<u8>, DslError> {
        let mut out = Vec::new();
        self.encode_into(values, &mut out)?;
        Ok(out)
    }

    /// Encodes a by-name [`PacketValue`] — the bridge used by the
    /// differential tests and by code migrating from the interpretive
    /// path.
    ///
    /// # Errors
    ///
    /// As for [`CompiledCodec::encode_into`].
    pub fn encode_packet_value(&self, pv: &PacketValue) -> Result<Vec<u8>, DslError> {
        self.encode(&self.values_from(pv))
    }

    /// Streams `f` over the merged byte ranges of coverage `cov`
    /// resolved against a decoded view.
    fn for_each_covered_range(
        &self,
        cov: u16,
        view: &FieldView,
        frame_len: usize,
        f: impl FnMut(usize, usize),
    ) {
        match &self.coverages[usize::from(cov)] {
            CoverageIr::Whole => whole_range(frame_len, f),
            CoverageIr::Fields(ixs) => {
                merge_ranges(ixs.iter().map(|&ix| view.byte_range(ix)), f);
            }
        }
    }

    /// As [`Self::for_each_covered_range`] but over encode-time spans.
    fn for_each_covered_range_spans(
        &self,
        cov: u16,
        spans: &[(u32, u32)],
        frame_len: usize,
        f: impl FnMut(usize, usize),
    ) {
        match &self.coverages[usize::from(cov)] {
            CoverageIr::Whole => whole_range(frame_len, f),
            CoverageIr::Fields(ixs) => {
                merge_ranges(
                    ixs.iter().map(|&ix| {
                        let (off, width) = spans[usize::from(ix)];
                        (
                            off as usize / 8,
                            (off as usize + width as usize).div_ceil(8),
                        )
                    }),
                    f,
                );
            }
        }
    }

    fn covered_len(&self, cov: u16, view: &FieldView, frame_len: usize) -> usize {
        let mut total = 0usize;
        self.for_each_covered_range(cov, view, frame_len, |s, e| total += e - s);
        total
    }

    fn covered_len_spans(&self, cov: u16, spans: &[(u32, u32)], frame_len: usize) -> usize {
        let mut total = 0usize;
        self.for_each_covered_range_spans(cov, spans, frame_len, |s, e| total += e - s);
        total
    }

    /// Computes the checksum for `field` over its coverage with the
    /// field's own bytes zeroed, streaming straight off the frame.
    fn checksum_over(
        &self,
        cov: u16,
        field: FieldIx,
        kind: netdsl_wire::checksum::ChecksumKind,
        view: &FieldView,
        frame: &[u8],
    ) -> u64 {
        let (own_s, own_e) = view.byte_range(field);
        let mut engine = ChecksumEngine::new(kind);
        self.for_each_covered_range(cov, view, frame.len(), |s, e| {
            let zs = own_s.clamp(s, e);
            let ze = own_e.clamp(s, e);
            if ze <= zs {
                engine.update(&frame[s..e]);
            } else {
                engine.update(&frame[s..zs]);
                engine.update_zeros(ze - zs);
                engine.update(&frame[ze..e]);
            }
        });
        engine.finish()
    }
}

/// Byte length of a prefixed run: `value * unit + bias`, with the same
/// overflow/negativity errors as the interpretive `bytes_len`.
fn prefixed_len(value: u64, unit: i64, bias: i64, prefix_name: &str) -> Result<usize, DslError> {
    let v = value as i64;
    let n = v
        .checked_mul(unit)
        .and_then(|x| x.checked_add(bias))
        .ok_or(DslError::LengthFieldMismatch {
            field: prefix_name.to_string(),
            declared: usize::MAX,
            actual: 0,
        })?;
    if n < 0 {
        return Err(DslError::LengthFieldMismatch {
            field: prefix_name.to_string(),
            declared: 0,
            actual: 0,
        });
    }
    Ok(n as usize)
}

fn whole_range(frame_len: usize, mut f: impl FnMut(usize, usize)) {
    f(0, frame_len);
}

/// Folds possibly-overlapping, non-decreasing byte ranges into merged
/// maximal ranges, calling `f` once per merged range. Field indices in
/// a [`CoverageIr::Fields`] are in wire order, so their ranges arrive
/// non-decreasing and one forward pass suffices (mirroring the sort +
/// merge of the interpretive `covered_ranges`).
fn merge_ranges(ranges: impl Iterator<Item = (usize, usize)>, mut f: impl FnMut(usize, usize)) {
    let mut cur: Option<(usize, usize)> = None;
    for (s, e) in ranges {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                f(cs, ce);
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        f(cs, ce);
    }
}
