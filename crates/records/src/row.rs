//! Row encoding/decoding and field access.
//!
//! Three access paths exist deliberately:
//!
//! * [`Row`] — fully decoded values, used by the SQL executor.
//!   [`decode_row`] makes one in one pass over the layout, the fixed part
//!   checked once.
//! * [`RawRecord`] — lazy field extraction straight from encoded record
//!   bytes (decode only the fields actually touched): how
//!   [`Expr::eval`](crate::Expr::eval) reads a stored record, and how the
//!   executor reads a reply row in place — a `GROUP BY`'s key and text, a
//!   residual over a whole record, the fetched fields of a kept one. The Disk
//!   Process's pushed-down predicates go through a
//!   [`Predicate`](crate::Predicate), which compares most fields undecoded.
//! * [`Projection`] — a pushed-down projection compiled once per request,
//!   by which the Disk Process copies field bytes from a stored record into
//!   a virtual block (decode nothing), a number's slot by a copy of its
//!   width.
//!
//! One set of slot readers serves them all: a number's slot, a `CHAR`'s
//! text less its padding, a `VARCHAR`'s text in the tail.

use crate::types::{FieldType, RecordDescriptor};
use crate::value::Value;

/// Errors produced when encoding or decoding records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Value count does not match the descriptor.
    Arity {
        /// Fields in the descriptor.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A value does not fit the declared field type.
    TypeMismatch {
        /// Offending field number.
        field: u16,
    },
    /// NULL supplied for a NOT NULL field.
    NullViolation {
        /// Offending field number.
        field: u16,
    },
    /// Record bytes are malformed / truncated.
    Corrupt,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Arity { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            CodecError::TypeMismatch { field } => write!(f, "type mismatch at field {field}"),
            CodecError::NullViolation { field } => {
                write!(f, "NULL not allowed in field {field}")
            }
            CodecError::Corrupt => write!(f, "corrupt record bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Uniform field access for predicate/expression evaluation.
pub trait RowAccessor {
    /// Value of field `i`. Out-of-range access is a logic error upstream and
    /// may panic.
    fn field(&self, i: u16) -> Value;
    /// Append field `i`'s equality key to `out`: two fields' keys are
    /// equal exactly when [`Value::sql_cmp`] finds their values equal, with
    /// NULL equal to NULL (how `GROUP BY` groups). Integers of every width
    /// share one form, `-0.0` keys as `0.0`, and text keys without its
    /// trailing spaces (PAD SPACE); a key is self-delimiting, so a row's keys
    /// concatenate. A [`Row`] and a [`RawRecord`] build it without
    /// allocating.
    fn eq_key(&self, i: u16, out: &mut Vec<u8>) {
        match self.field_ref(i) {
            FieldRef::Value(v) => value_eq_key(&v, out),
            FieldRef::Text(text) => text_eq_key(text, out),
        }
    }
    /// Field `i` with its text, if any, borrowed where it lies: what
    /// [`RowAccessor::field`] gives, without a `String`. A [`Row`] and a
    /// [`RawRecord`] lend their text; by default the value is copied.
    fn field_ref(&self, i: u16) -> FieldRef<'_> {
        FieldRef::Value(self.field(i))
    }
}

/// A field as a row holds it: text borrowed from the row, or any other
/// value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldRef<'a> {
    /// A number, a boolean or NULL.
    Value(Value),
    /// Text; a `CHAR` less its padding.
    Text(&'a str),
}

fn value_eq_key(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => out.extend_from_slice(&[1, *b as u8]),
        Value::SmallInt(n) => int_eq_key((*n).into(), out),
        Value::Int(n) => int_eq_key((*n).into(), out),
        Value::LargeInt(n) => int_eq_key(*n, out),
        Value::Double(x) => double_eq_key(*x, out),
        Value::Str(s) => text_eq_key(s, out),
    }
}

fn int_eq_key(n: i64, out: &mut Vec<u8>) {
    let [a, b, c, d, e, f, g, h] = n.to_be_bytes();
    out.extend_from_slice(&[2, a, b, c, d, e, f, g, h]);
}

fn double_eq_key(x: f64, out: &mut Vec<u8>) {
    let x = if x == 0.0 { 0.0 } else { x };
    let [a, b, c, d, e, f, g, h] = x.to_bits().to_be_bytes();
    out.extend_from_slice(&[3, a, b, c, d, e, f, g, h]);
}

fn text_eq_key(s: &str, out: &mut Vec<u8>) {
    let s = s.trim_end_matches(' ');
    out.push(4);
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A fully decoded row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row(pub Vec<Value>);

impl Row {
    /// Total wire size of the row's values.
    pub fn wire_size(&self) -> usize {
        self.0.iter().map(Value::wire_size).sum()
    }
}

impl RowAccessor for Row {
    fn field(&self, i: u16) -> Value {
        self.0[i as usize].clone()
    }
    fn field_ref(&self, i: u16) -> FieldRef<'_> {
        match &self.0[i as usize] {
            Value::Str(text) => FieldRef::Text(text),
            v => FieldRef::Value(v.clone()),
        }
    }
}

/// Borrowed-slice row view (usable as a `&dyn RowAccessor`).
pub struct SliceRow<'a>(pub &'a [Value]);

impl RowAccessor for SliceRow<'_> {
    fn field(&self, i: u16) -> Value {
        self.0[i as usize].clone()
    }
}

/// Encode a row of values per `desc`. Validates arity, types, and NOT NULL.
pub fn encode_row(desc: &RecordDescriptor, values: &[Value]) -> Result<Vec<u8>, CodecError> {
    if values.len() != desc.num_fields() {
        return Err(CodecError::Arity {
            expected: desc.num_fields(),
            got: values.len(),
        });
    }
    let mut buf = vec![0u8; desc.bitmap_len() + desc.fixed_size()];
    for (i, v) in values.iter().enumerate() {
        put_value(desc, i as u16, v, &mut buf)?;
    }
    Ok(buf)
}

/// Write `v` as field `i` of the record being built in `out`, which holds
/// its zeroed bitmap and fixed part, then the `VARCHAR` text of the fields
/// before `i`: the null bit or the slot, and the text at the tail's end.
/// Refuses NULL in a NOT NULL field, a value of another type and text
/// longer than the field.
pub(crate) fn put_value(
    desc: &RecordDescriptor,
    i: u16,
    v: &Value,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let idx = i as usize;
    let f = &desc.fields[idx];
    if v.is_null() {
        if !f.nullable {
            return Err(CodecError::NullViolation { field: i });
        }
        out[idx / 8] |= 1 << (idx % 8);
        return Ok(());
    }
    let slot = desc.slot_offset(i);
    let mismatch = CodecError::TypeMismatch { field: i };
    match (f.ty, v) {
        (FieldType::SmallInt, Value::SmallInt(n)) => {
            out[slot..slot + 2].copy_from_slice(&n.to_be_bytes())
        }
        (FieldType::Int, Value::Int(n)) => out[slot..slot + 4].copy_from_slice(&n.to_be_bytes()),
        (FieldType::LargeInt, Value::LargeInt(n)) => {
            out[slot..slot + 8].copy_from_slice(&n.to_be_bytes())
        }
        (FieldType::Double, Value::Double(x)) => {
            out[slot..slot + 8].copy_from_slice(&x.to_be_bytes())
        }
        (FieldType::Char(n), Value::Str(s)) => {
            let n = n as usize;
            if s.len() > n {
                return Err(mismatch);
            }
            out[slot..slot + s.len()].copy_from_slice(s.as_bytes());
            out[slot + s.len()..slot + n].fill(b' ');
        }
        (FieldType::Varchar(n), Value::Str(s)) => {
            if s.len() > n as usize {
                return Err(mismatch);
            }
            put_text(desc, slot, s.as_bytes(), out);
        }
        _ => return Err(mismatch),
    }
    Ok(())
}

/// Append `text` to the tail of the record in `out` and point the
/// `VARCHAR` slot at `slot` to it.
fn put_text(desc: &RecordDescriptor, slot: usize, text: &[u8], out: &mut Vec<u8>) {
    let off = (out.len() - desc.bitmap_len() - desc.fixed_size()) as u16;
    out[slot..slot + 2].copy_from_slice(&off.to_be_bytes());
    out[slot + 2..slot + 4].copy_from_slice(&(text.len() as u16).to_be_bytes());
    out.extend_from_slice(text);
}

/// Write into `out` the record `record` becomes with `changes` — `(field,
/// new value)` pairs, the last of a field's winning — in place: byte for
/// byte what [`encode_row`] makes of the decoded record with the changes
/// applied, with its error for the lowest-numbered field that does not
/// encode, and [`decode_row`]'s error for a record that does not decode.
/// Nothing is decoded: an unchanged field's slot is copied, its `VARCHAR`
/// text laid out again in field order, and a NULL's slot zeroed. A change
/// to a field `desc` does not have is [`CodecError::Corrupt`].
///
/// This is how the Disk Process backs out and redoes a field-compressed
/// update; [`Patch`](crate::Patch) writes a `SET` list's new record with it.
pub fn patch_row(
    desc: &RecordDescriptor,
    record: &[u8],
    changes: &[(u16, Value)],
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    check_row(desc, record)?;
    if changes
        .iter()
        .any(|&(f, _)| f as usize >= desc.num_fields())
    {
        return Err(CodecError::Corrupt);
    }
    write_patched(desc, record, changes, out)
}

/// [`patch_row`] for a `record` [`check_row`] accepts and `changes` to
/// fields `desc` has.
pub(crate) fn write_patched(
    desc: &RecordDescriptor,
    record: &[u8],
    changes: &[(u16, Value)],
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let fixed_end = desc.bitmap_len() + desc.fixed_size();
    out.clear();
    out.resize(fixed_end, 0);
    for (idx, f) in desc.fields.iter().enumerate() {
        let i = idx as u16;
        if let Some((_, v)) = changes.iter().rev().find(|(c, _)| *c == i) {
            put_value(desc, i, v, out)?;
            continue;
        }
        if record[idx / 8] & (1 << (idx % 8)) != 0 {
            put_value(desc, i, &Value::Null, out)?;
            continue;
        }
        let slot = desc.slot_offset(i);
        let width = f.ty.fixed_width();
        match f.ty {
            FieldType::Varchar(n) => {
                let len = u16::from_be_bytes([record[slot + 2], record[slot + 3]]);
                if len > n {
                    return Err(CodecError::TypeMismatch { field: i });
                }
                let off = fixed_end + u16::from_be_bytes([record[slot], record[slot + 1]]) as usize;
                let text = record.get(off..off + len as usize);
                put_text(desc, slot, text.ok_or(CodecError::Corrupt)?, out);
            }
            // A number's slot is its value; a CHAR's is its text padded with
            // the spaces decoding trims and encoding puts back.
            FieldType::SmallInt
            | FieldType::Int
            | FieldType::LargeInt
            | FieldType::Double
            | FieldType::Char(_) => {
                out[slot..slot + width].copy_from_slice(&record[slot..slot + width])
            }
        }
    }
    Ok(())
}

/// The `N` bytes at `at` of a record whose fixed part holds them.
pub(crate) fn load<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(&bytes[at..at + N]);
    out
}

/// Where the fixed part of a record laid out per `desc` ends; a record
/// shorter than that is corrupt.
fn fixed_part(desc: &RecordDescriptor, bytes: &[u8]) -> Result<usize, CodecError> {
    let fixed_end = desc.bitmap_len() + desc.fixed_size();
    if bytes.len() < fixed_end {
        return Err(CodecError::Corrupt);
    }
    Ok(fixed_end)
}

fn is_null(bytes: &[u8], idx: usize) -> bool {
    bytes[idx / 8] & (1 << (idx % 8)) != 0
}

/// Decode all fields of an encoded record: one pass over the layout, the
/// fixed part checked once.
pub fn decode_row(desc: &RecordDescriptor, bytes: &[u8]) -> Result<Row, CodecError> {
    let fixed_end = fixed_part(desc, bytes)?;
    let mut out = Vec::with_capacity(desc.num_fields());
    for (idx, (f, slot)) in desc.slots().enumerate() {
        out.push(match is_null(bytes, idx) {
            true => Value::Null,
            false => value_at(f.ty, bytes, slot, fixed_end)?,
        });
    }
    Ok(Row(out))
}

/// Extract one field from encoded record bytes without decoding the rest.
pub fn extract_field(desc: &RecordDescriptor, bytes: &[u8], i: u16) -> Result<Value, CodecError> {
    let idx = i as usize;
    let f = desc.fields.get(idx).ok_or(CodecError::Corrupt)?;
    let fixed_end = fixed_part(desc, bytes)?;
    if is_null(bytes, idx) {
        return Ok(Value::Null);
    }
    value_at(f.ty, bytes, desc.slot_offset(i), fixed_end)
}

/// Field `i` as it is stored: `None` for NULL, else its slot — or, for a
/// `VARCHAR`, its text. Two records that decode hold the same value of the
/// field, bit for bit, exactly when these are equal (a `CHAR`'s padding is
/// part of its slot, and `-0.0` is not `0.0`). Fails where
/// [`extract_field`] fails, but for a `CHAR` that is not UTF-8.
pub fn field_bytes<'a>(
    desc: &RecordDescriptor,
    bytes: &'a [u8],
    i: u16,
) -> Result<Option<&'a [u8]>, CodecError> {
    let idx = i as usize;
    let f = desc.fields.get(idx).ok_or(CodecError::Corrupt)?;
    let fixed_end = fixed_part(desc, bytes)?;
    if is_null(bytes, idx) {
        return Ok(None);
    }
    let slot = desc.slot_offset(i);
    Ok(Some(match f.ty {
        FieldType::Varchar(_) => varchar_at(bytes, slot, fixed_end)?.as_bytes(),
        ty => &bytes[slot..slot + ty.fixed_width()],
    }))
}

/// The value of a field of type `ty` that is not NULL, its slot at `slot`
/// of a record whose fixed part, ending at `fixed_end`, `bytes` holds.
fn value_at(
    ty: FieldType,
    bytes: &[u8],
    slot: usize,
    fixed_end: usize,
) -> Result<Value, CodecError> {
    Ok(match ty {
        FieldType::SmallInt => Value::SmallInt(i16::from_be_bytes(load(bytes, slot))),
        FieldType::Int => Value::Int(i32::from_be_bytes(load(bytes, slot))),
        FieldType::LargeInt => Value::LargeInt(i64::from_be_bytes(load(bytes, slot))),
        FieldType::Double => Value::Double(f64::from_be_bytes(load(bytes, slot))),
        FieldType::Char(n) => Value::Str(char_at(n, bytes, slot)?.to_owned()),
        FieldType::Varchar(_) => Value::Str(varchar_at(bytes, slot, fixed_end)?.to_owned()),
    })
}

/// [`value_at`] with the text borrowed from the record.
fn field_at(
    ty: FieldType,
    bytes: &[u8],
    slot: usize,
    fixed_end: usize,
) -> Result<FieldRef<'_>, CodecError> {
    Ok(match ty {
        FieldType::Char(n) => FieldRef::Text(char_at(n, bytes, slot)?),
        FieldType::Varchar(_) => FieldRef::Text(varchar_at(bytes, slot, fixed_end)?),
        FieldType::SmallInt | FieldType::Int | FieldType::LargeInt | FieldType::Double => {
            FieldRef::Value(value_at(ty, bytes, slot, fixed_end)?)
        }
    })
}

/// The text of a `CHAR(n)` slot less its padding; it must be UTF-8. A space
/// is no part of a longer UTF-8 sequence, so the slot is UTF-8 exactly when
/// the text less its padding is.
pub(crate) fn char_at(n: u16, bytes: &[u8], slot: usize) -> Result<&str, CodecError> {
    let raw = &bytes[slot..slot + n as usize];
    let text = &raw[..raw.iter().rposition(|&b| b != b' ').map_or(0, |i| i + 1)];
    std::str::from_utf8(text).map_err(|_| CodecError::Corrupt)
}

/// The text a `VARCHAR` slot points to in the tail; it must lie inside the
/// record and be UTF-8.
fn varchar_at(bytes: &[u8], slot: usize, fixed_end: usize) -> Result<&str, CodecError> {
    let [a, b, c, d] = load(bytes, slot);
    let off = fixed_end + u16::from_be_bytes([a, b]) as usize;
    let raw = bytes.get(off..off + u16::from_be_bytes([c, d]) as usize);
    std::str::from_utf8(raw.ok_or(CodecError::Corrupt)?).map_err(|_| CodecError::Corrupt)
}

/// Check that every field of an encoded record decodes, allocating nothing:
/// `Ok` exactly when [`decode_row`] would decode the record, else the error
/// it would give. One pass, as `decode_row` makes.
pub fn check_row(desc: &RecordDescriptor, bytes: &[u8]) -> Result<(), CodecError> {
    let fixed_end = fixed_part(desc, bytes)?;
    for (idx, (f, slot)) in desc.slots().enumerate() {
        if !is_null(bytes, idx) {
            check_slot(f.ty, bytes, slot, fixed_end)?;
        }
    }
    Ok(())
}

/// Check that field `i` of an encoded record decodes, allocating nothing:
/// `Ok` exactly when [`extract_field`] would extract it.
pub fn check_field(desc: &RecordDescriptor, bytes: &[u8], i: u16) -> Result<(), CodecError> {
    let f = desc.fields.get(i as usize).ok_or(CodecError::Corrupt)?;
    let fixed_end = fixed_part(desc, bytes)?;
    match is_null(bytes, i as usize) {
        true => Ok(()),
        false => check_slot(f.ty, bytes, desc.slot_offset(i), fixed_end),
    }
}

/// Does the slot at `slot` of a field of type `ty` that is not NULL decode?
fn check_slot(
    ty: FieldType,
    bytes: &[u8],
    slot: usize,
    fixed_end: usize,
) -> Result<(), CodecError> {
    match ty {
        FieldType::Char(n) => _ = char_at(n, bytes, slot)?,
        FieldType::Varchar(_) => _ = varchar_at(bytes, slot, fixed_end)?,
        FieldType::SmallInt | FieldType::Int | FieldType::LargeInt | FieldType::Double => {}
    }
    Ok(())
}

/// How a projected field's fixed slot is copied, for [`Projection`].
#[derive(Debug, Clone, Copy)]
enum SlotKind {
    /// A number of 2, 4 or 8 bytes: the slot is the value.
    Number2,
    Number4,
    Number8,
    /// `CHAR(n)` of the width: the padded slot is the value, which must be
    /// UTF-8.
    Char(usize),
    /// `VARCHAR`: the slot points into the tail, which is rebuilt.
    Varchar,
}

/// One field of a [`Projection`]: where its slot sits in a stored record
/// and where it goes in the projected row.
#[derive(Debug, Clone)]
struct FieldCopy {
    /// The field's null bit in the stored record: its bitmap byte and bit.
    null_byte: usize,
    null_bit: u8,
    source_slot: usize,
    dest_slot: usize,
    kind: SlotKind,
}

/// Copy the `N`-byte slot at `from` of `record` to `to` of `out`.
fn copy_slot<const N: usize>(record: &[u8], from: usize, out: &mut [u8], to: usize) {
    out[to..to + N].copy_from_slice(&load::<N>(record, from));
}

/// A projection compiled against a record descriptor: the plan by which the
/// Disk Process copies the projected fields' bytes out of a stored record
/// into a virtual block, decoding nothing. Its rows are, byte for byte, what
/// `encode_row(&desc.project(fields), …)` makes of the fields
/// [`extract_field`] extracts, and it refuses exactly the records
/// `extract_field` refuses for one of the projected fields.
#[derive(Debug, Clone)]
pub struct Projection {
    /// Bitmap plus fixed part of a stored record; a shorter one is corrupt.
    source_fixed_end: usize,
    /// Bitmap plus fixed part of a projected row; VARCHAR tails follow.
    dest_fixed_end: usize,
    /// Does a projected field have a tail (so a row's length varies)?
    varchar: bool,
    fields: Vec<FieldCopy>,
}

impl Projection {
    /// Compile the projection of `fields` (field numbers of `desc`, in
    /// output order). A field number `desc` does not have is
    /// [`CodecError::Corrupt`], as it is to [`extract_field`].
    pub fn new(desc: &RecordDescriptor, fields: &[u16]) -> Result<Projection, CodecError> {
        let dest_bitmap = fields.len().div_ceil(8);
        let mut dest_slot = dest_bitmap;
        let mut copies = Vec::with_capacity(fields.len());
        for &f in fields {
            let def = desc.fields.get(f as usize).ok_or(CodecError::Corrupt)?;
            copies.push(FieldCopy {
                null_byte: f as usize / 8,
                null_bit: 1 << (f % 8),
                source_slot: desc.slot_offset(f),
                dest_slot,
                kind: match def.ty {
                    FieldType::SmallInt => SlotKind::Number2,
                    FieldType::Int => SlotKind::Number4,
                    FieldType::LargeInt | FieldType::Double => SlotKind::Number8,
                    FieldType::Char(n) => SlotKind::Char(n as usize),
                    FieldType::Varchar(_) => SlotKind::Varchar,
                },
            });
            dest_slot += def.ty.fixed_width();
        }
        Ok(Projection {
            source_fixed_end: desc.bitmap_len() + desc.fixed_size(),
            dest_fixed_end: dest_slot,
            varchar: copies.iter().any(|f| matches!(f.kind, SlotKind::Varchar)),
            fields: copies,
        })
    }

    /// Does it project no field at all (and so never look inside a record)?
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The length of `record`'s projected row, for a record that holds its
    /// fixed part: the fixed part, and the length of each `VARCHAR` text
    /// that is not NULL (whether or not it lies inside the record).
    fn row_len(&self, record: &[u8]) -> usize {
        let mut len = self.dest_fixed_end;
        if self.varchar && record.len() >= self.source_fixed_end {
            for f in &self.fields {
                if matches!(f.kind, SlotKind::Varchar) && record[f.null_byte] & f.null_bit == 0 {
                    let [_, _, a, b] = load(record, f.source_slot);
                    len += u16::from_be_bytes([a, b]) as usize;
                }
            }
        }
        len
    }

    /// Append the projected row of `record` to `out`; on error `out` is left
    /// as it was. A buffer with room for the row is not grown.
    pub fn project_into(&self, record: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        let base = out.len();
        let done = self.copy_fields(record, out, base);
        if done.is_err() {
            out.truncate(base);
        }
        done
    }

    /// [`Projection::project_into`] behind the row's length as a 2-byte
    /// big-endian prefix — a row as a reply's row block frames it — with
    /// one reservation for both.
    pub fn project_framed(&self, record: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        let at = out.len();
        let len = self.row_len(record);
        out.reserve(2 + len);
        out.extend_from_slice(&(len as u16).to_be_bytes());
        let done = self.copy_fields(record, out, at + 2);
        if done.is_err() {
            out.truncate(at);
        }
        done
    }

    fn copy_fields(&self, record: &[u8], out: &mut Vec<u8>, base: usize) -> Result<(), CodecError> {
        if record.len() < self.source_fixed_end && !self.is_empty() {
            return Err(CodecError::Corrupt);
        }
        // Bitmap and slots start zeroed, which is what a NULL's slot holds.
        out.resize(base + self.dest_fixed_end, 0);
        for (i, f) in self.fields.iter().enumerate() {
            if record[f.null_byte] & f.null_bit != 0 {
                out[base + i / 8] |= 1 << (i % 8);
                continue;
            }
            let (from, to) = (f.source_slot, base + f.dest_slot);
            match f.kind {
                SlotKind::Number2 => copy_slot::<2>(record, from, out, to),
                SlotKind::Number4 => copy_slot::<4>(record, from, out, to),
                SlotKind::Number8 => copy_slot::<8>(record, from, out, to),
                SlotKind::Char(n) => {
                    let slot = &record[from..from + n];
                    std::str::from_utf8(slot).map_err(|_| CodecError::Corrupt)?;
                    out[to..to + n].copy_from_slice(slot);
                }
                SlotKind::Varchar => {
                    let text = varchar_at(record, from, self.source_fixed_end)?;
                    let tail = (out.len() - base - self.dest_fixed_end) as u16;
                    let [a, b] = tail.to_be_bytes();
                    let [c, d] = (text.len() as u16).to_be_bytes();
                    out[to..to + 4].copy_from_slice(&[a, b, c, d]);
                    out.extend_from_slice(text.as_bytes());
                }
            }
        }
        Ok(())
    }
}

/// Lazy field access over encoded record bytes. A field that does not
/// decode reads as NULL; a [`Predicate`](crate::Predicate) refuses such a
/// record instead, and [`check_row`] finds it beforehand.
pub struct RawRecord<'a> {
    /// The record layout.
    pub desc: &'a RecordDescriptor,
    /// Encoded record.
    pub bytes: &'a [u8],
}

impl RowAccessor for RawRecord<'_> {
    fn field(&self, i: u16) -> Value {
        extract_field(self.desc, self.bytes, i).unwrap_or(Value::Null)
    }
    /// Read where the field lies, text borrowed; a field that does not
    /// decode reads as NULL, as it does to [`RowAccessor::field`].
    fn field_ref(&self, i: u16) -> FieldRef<'_> {
        match self.slot(i) {
            Some((ty, slot, fixed_end)) => match field_at(ty, self.bytes, slot, fixed_end) {
                Ok(field) => field,
                Err(_) => FieldRef::Value(Value::Null),
            },
            None => FieldRef::Value(Value::Null),
        }
    }
    /// Keyed from the slot, nothing allocated; a field that does not decode
    /// keys as NULL, as it reads.
    fn eq_key(&self, i: u16, out: &mut Vec<u8>) {
        let Some((ty, slot, fixed_end)) = self.slot(i) else {
            return out.push(0);
        };
        let bytes = self.bytes;
        match ty {
            FieldType::SmallInt => int_eq_key(i16::from_be_bytes(load(bytes, slot)).into(), out),
            FieldType::Int => int_eq_key(i32::from_be_bytes(load(bytes, slot)).into(), out),
            FieldType::LargeInt => int_eq_key(i64::from_be_bytes(load(bytes, slot)), out),
            FieldType::Double => double_eq_key(f64::from_be_bytes(load(bytes, slot)), out),
            FieldType::Char(n) => match char_at(n, bytes, slot) {
                Ok(text) => text_eq_key(text, out),
                Err(_) => out.push(0),
            },
            FieldType::Varchar(_) => match varchar_at(bytes, slot, fixed_end) {
                Ok(text) => text_eq_key(text, out),
                Err(_) => out.push(0),
            },
        }
    }
}

impl RawRecord<'_> {
    /// Field `i`'s type, slot and the end of the fixed part, for a field
    /// that is there: `None` for NULL, a field `desc` lacks and a record
    /// too short for its fixed part.
    fn slot(&self, i: u16) -> Option<(FieldType, usize, usize)> {
        let f = self.desc.fields.get(i as usize)?;
        let fixed_end = fixed_part(self.desc, self.bytes).ok()?;
        if is_null(self.bytes, i as usize) {
            return None;
        }
        Some((f.ty, self.desc.slot_offset(i), fixed_end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FieldDef;

    fn desc() -> RecordDescriptor {
        RecordDescriptor::new(
            vec![
                FieldDef::new("ID", FieldType::Int),
                FieldDef::new("NAME", FieldType::Char(8)),
                FieldDef::nullable("SAL", FieldType::Double),
                FieldDef::nullable("NOTE", FieldType::Varchar(20)),
                FieldDef::nullable("N2", FieldType::Varchar(20)),
            ],
            vec![0],
        )
    }

    fn sample() -> Vec<Value> {
        vec![
            Value::Int(42),
            Value::Str("BOB".into()),
            Value::Double(1234.5),
            Value::Str("hello".into()),
            Value::Str("world!".into()),
        ]
    }

    #[test]
    fn round_trip() {
        let d = desc();
        let bytes = encode_row(&d, &sample()).unwrap();
        let row = decode_row(&d, &bytes).unwrap();
        assert_eq!(row.0, sample());
    }

    #[test]
    fn nulls_round_trip() {
        let d = desc();
        let vals = vec![
            Value::Int(1),
            Value::Str("X".into()),
            Value::Null,
            Value::Null,
            Value::Str("v".into()),
        ];
        let bytes = encode_row(&d, &vals).unwrap();
        assert_eq!(decode_row(&d, &bytes).unwrap().0, vals);
    }

    #[test]
    fn lazy_extraction_matches_decode() {
        let d = desc();
        let bytes = encode_row(&d, &sample()).unwrap();
        for i in 0..d.num_fields() as u16 {
            assert_eq!(
                extract_field(&d, &bytes, i).unwrap(),
                decode_row(&d, &bytes).unwrap().0[i as usize]
            );
        }
    }

    #[test]
    fn char_is_space_padded_and_trimmed() {
        let d = desc();
        let bytes = encode_row(&d, &sample()).unwrap();
        // Raw bytes contain the padded form...
        let slot = d.slot_offset(1);
        assert_eq!(&bytes[slot..slot + 8], b"BOB     ");
        // ... but extraction trims.
        assert_eq!(
            extract_field(&d, &bytes, 1).unwrap(),
            Value::Str("BOB".into())
        );
    }

    #[test]
    fn not_null_enforced() {
        let d = desc();
        let mut vals = sample();
        vals[0] = Value::Null;
        assert_eq!(
            encode_row(&d, &vals),
            Err(CodecError::NullViolation { field: 0 })
        );
    }

    #[test]
    fn arity_and_type_checked() {
        let d = desc();
        assert!(matches!(
            encode_row(&d, &sample()[..3]),
            Err(CodecError::Arity { .. })
        ));
        let mut vals = sample();
        vals[0] = Value::Str("no".into());
        assert_eq!(
            encode_row(&d, &vals),
            Err(CodecError::TypeMismatch { field: 0 })
        );
    }

    #[test]
    fn oversized_strings_rejected() {
        let d = desc();
        let mut vals = sample();
        vals[1] = Value::Str("LONGERTHAN8".into());
        assert!(encode_row(&d, &vals).is_err());
        let mut vals = sample();
        vals[3] = Value::Str("x".repeat(21));
        assert!(encode_row(&d, &vals).is_err());
    }

    #[test]
    fn truncated_bytes_are_corrupt_not_panic() {
        let d = desc();
        let bytes = encode_row(&d, &sample()).unwrap();
        assert_eq!(extract_field(&d, &bytes[..4], 0), Err(CodecError::Corrupt));
    }
}
