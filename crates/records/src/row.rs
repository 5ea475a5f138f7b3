//! Row encoding/decoding and field access.
//!
//! Three access paths exist deliberately:
//!
//! * [`Row`] — fully decoded values, used by the SQL executor.
//! * [`RawRecord`] — lazy field extraction straight from encoded record
//!   bytes (decode only the fields actually touched): how
//!   [`Expr::eval`](crate::Expr::eval) reads a stored record. The Disk
//!   Process's pushed-down predicates go through a
//!   [`Predicate`](crate::Predicate), which compares most fields undecoded.
//! * [`Projection`] — a pushed-down projection compiled once per request,
//!   by which the Disk Process copies field bytes from a stored record into
//!   a virtual block (decode nothing).

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
    /// Number of accessible fields.
    fn width(&self) -> usize;
    /// Append field `i`'s equality key to `out`: two fields' keys are
    /// equal exactly when [`Value::sql_cmp`] finds their values equal, with
    /// NULL equal to NULL (how `GROUP BY` groups). Integers of every width
    /// share one form, `-0.0` keys as `0.0`, and text keys without its
    /// trailing spaces (PAD SPACE); a key is self-delimiting, so a row's keys
    /// concatenate. A [`Row`] and a [`RawRecord`] build it without
    /// allocating.
    fn eq_key(&self, i: u16, out: &mut Vec<u8>) {
        value_eq_key(&self.field(i), out);
    }
}

fn value_eq_key(v: &Value, out: &mut Vec<u8>) {
    let int = |n: i64, out: &mut Vec<u8>| {
        out.push(2);
        out.extend_from_slice(&n.to_be_bytes());
    };
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => out.extend_from_slice(&[1, *b as u8]),
        Value::SmallInt(n) => int((*n).into(), out),
        Value::Int(n) => int((*n).into(), out),
        Value::LargeInt(n) => int(*n, out),
        Value::Double(x) => {
            let x = if *x == 0.0 { 0.0 } else { *x };
            out.push(3);
            out.extend_from_slice(&x.to_bits().to_be_bytes());
        }
        Value::Str(s) => text_eq_key(s, out),
    }
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
    fn width(&self) -> usize {
        self.0.len()
    }
    fn eq_key(&self, i: u16, out: &mut Vec<u8>) {
        value_eq_key(&self.0[i as usize], out);
    }
}

impl RowAccessor for [Value] {
    fn field(&self, i: u16) -> Value {
        self[i as usize].clone()
    }
    fn width(&self) -> usize {
        self.len()
    }
}

/// Borrowed-slice row view (usable as a `&dyn RowAccessor`).
pub struct SliceRow<'a>(pub &'a [Value]);

impl RowAccessor for SliceRow<'_> {
    fn field(&self, i: u16) -> Value {
        self.0[i as usize].clone()
    }
    fn width(&self) -> usize {
        self.0.len()
    }
}

/// Two rows side by side (outer ++ inner), used by the executor for join
/// predicate evaluation.
pub struct ConcatRow<'a, A: ?Sized, B: ?Sized> {
    /// Left (outer) row.
    pub left: &'a A,
    /// Right (inner) row.
    pub right: &'a B,
}

impl<A: RowAccessor + ?Sized, B: RowAccessor + ?Sized> RowAccessor for ConcatRow<'_, A, B> {
    fn field(&self, i: u16) -> Value {
        let lw = self.left.width() as u16;
        if i < lw {
            self.left.field(i)
        } else {
            self.right.field(i - lw)
        }
    }
    fn width(&self) -> usize {
        self.left.width() + self.right.width()
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
fn put_value(
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

/// Decode all fields of an encoded record.
pub fn decode_row(desc: &RecordDescriptor, bytes: &[u8]) -> Result<Row, CodecError> {
    let mut out = Vec::with_capacity(desc.num_fields());
    for i in 0..desc.num_fields() as u16 {
        out.push(extract_field(desc, bytes, i)?);
    }
    Ok(Row(out))
}

/// Extract one field from encoded record bytes without decoding the rest.
pub fn extract_field(desc: &RecordDescriptor, bytes: &[u8], i: u16) -> Result<Value, CodecError> {
    let idx = i as usize;
    if idx >= desc.num_fields() || bytes.len() < desc.bitmap_len() + desc.fixed_size() {
        return Err(CodecError::Corrupt);
    }
    if bytes[idx / 8] & (1 << (idx % 8)) != 0 {
        return Ok(Value::Null);
    }
    let slot = desc.slot_offset(i);
    let f = &desc.fields[idx];
    let take = |n: usize| -> Result<&[u8], CodecError> {
        bytes.get(slot..slot + n).ok_or(CodecError::Corrupt)
    };
    Ok(match f.ty {
        FieldType::SmallInt => Value::SmallInt(i16::from_be_bytes(take(2)?.try_into().unwrap())),
        FieldType::Int => Value::Int(i32::from_be_bytes(take(4)?.try_into().unwrap())),
        FieldType::LargeInt => Value::LargeInt(i64::from_be_bytes(take(8)?.try_into().unwrap())),
        FieldType::Double => Value::Double(f64::from_be_bytes(take(8)?.try_into().unwrap())),
        FieldType::Char(n) => {
            let raw = take(n as usize)?;
            let s = std::str::from_utf8(raw).map_err(|_| CodecError::Corrupt)?;
            Value::Str(s.trim_end_matches(' ').to_string())
        }
        FieldType::Varchar(_) => {
            let hdr = take(4)?;
            let off = u16::from_be_bytes(hdr[0..2].try_into().unwrap()) as usize;
            let len = u16::from_be_bytes(hdr[2..4].try_into().unwrap()) as usize;
            let base = desc.bitmap_len() + desc.fixed_size();
            let raw = bytes
                .get(base + off..base + off + len)
                .ok_or(CodecError::Corrupt)?;
            let s = std::str::from_utf8(raw).map_err(|_| CodecError::Corrupt)?;
            Value::Str(s.to_string())
        }
    })
}

/// Check that every field of an encoded record decodes, allocating nothing:
/// `Ok` exactly when [`decode_row`] would decode the record, else the error
/// it would give.
pub fn check_row(desc: &RecordDescriptor, bytes: &[u8]) -> Result<(), CodecError> {
    (0..desc.num_fields() as u16).try_for_each(|i| field_text(desc, bytes, i).map(|_| ()))
}

/// The text of field `i` as it lies in the record — a `CHAR` less its
/// padding — or `None` for NULL and for a number (whose slot, inside the
/// fixed part, always decodes). Fails where [`extract_field`] fails; it is
/// kept apart from it because `decode_row`, run through one reader shared
/// with this, measured 5–7 % slower (2-core x86-64 VM).
fn field_text<'a>(
    desc: &RecordDescriptor,
    bytes: &'a [u8],
    i: u16,
) -> Result<Option<&'a str>, CodecError> {
    let idx = i as usize;
    let fixed_end = desc.bitmap_len() + desc.fixed_size();
    if idx >= desc.num_fields() || bytes.len() < fixed_end {
        return Err(CodecError::Corrupt);
    }
    if bytes[idx / 8] & (1 << (idx % 8)) != 0 {
        return Ok(None);
    }
    let slot = desc.slot_offset(i);
    let raw = match desc.fields[idx].ty {
        FieldType::Char(n) => bytes.get(slot..slot + n as usize),
        FieldType::Varchar(_) => match bytes[slot..slot + 4] {
            [a, b, c, d] => {
                let off = fixed_end + u16::from_be_bytes([a, b]) as usize;
                bytes.get(off..off + u16::from_be_bytes([c, d]) as usize)
            }
            _ => None,
        },
        FieldType::SmallInt | FieldType::Int | FieldType::LargeInt | FieldType::Double => {
            return Ok(None)
        }
    };
    let text = std::str::from_utf8(raw.ok_or(CodecError::Corrupt)?);
    let text = text.map_err(|_| CodecError::Corrupt)?;
    Ok(Some(match desc.fields[idx].ty {
        FieldType::Char(_) => text.trim_end_matches(' '),
        _ => text,
    }))
}

/// What a projected field's fixed slot holds, for [`Projection`].
#[derive(Debug, Clone, Copy)]
enum SlotKind {
    /// A number: the slot is the value.
    Number,
    /// `CHAR(n)`: the padded slot is the value, which must be UTF-8.
    Char,
    /// `VARCHAR`: the slot points into the tail, which is rebuilt.
    Varchar,
}

/// One field of a [`Projection`]: where its slot sits in a stored record
/// and where it goes in the projected row.
#[derive(Debug, Clone)]
struct FieldCopy {
    /// Field number in the stored record (its null bit).
    source: usize,
    source_slot: usize,
    dest_slot: usize,
    width: usize,
    kind: SlotKind,
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
            let width = def.ty.fixed_width();
            copies.push(FieldCopy {
                source: f as usize,
                source_slot: desc.slot_offset(f),
                dest_slot,
                width,
                kind: match def.ty {
                    FieldType::Char(_) => SlotKind::Char,
                    FieldType::Varchar(_) => SlotKind::Varchar,
                    FieldType::SmallInt
                    | FieldType::Int
                    | FieldType::LargeInt
                    | FieldType::Double => SlotKind::Number,
                },
            });
            dest_slot += width;
        }
        Ok(Projection {
            source_fixed_end: desc.bitmap_len() + desc.fixed_size(),
            dest_fixed_end: dest_slot,
            fields: copies,
        })
    }

    /// Does it project no field at all (and so never look inside a record)?
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Append the projected row of `record` to `out`; on error `out` is left
    /// as it was.
    pub fn project_into(&self, record: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        let base = out.len();
        let done = self.copy_fields(record, out, base);
        if done.is_err() {
            out.truncate(base);
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
            if record[f.source / 8] & (1 << (f.source % 8)) != 0 {
                out[base + i / 8] |= 1 << (i % 8);
                continue;
            }
            let slot = &record[f.source_slot..f.source_slot + f.width];
            let dest = base + f.dest_slot;
            match f.kind {
                SlotKind::Number => out[dest..dest + f.width].copy_from_slice(slot),
                SlotKind::Char => {
                    std::str::from_utf8(slot).map_err(|_| CodecError::Corrupt)?;
                    out[dest..dest + f.width].copy_from_slice(slot);
                }
                SlotKind::Varchar => {
                    let off = u16::from_be_bytes([slot[0], slot[1]]) as usize;
                    let len = u16::from_be_bytes([slot[2], slot[3]]);
                    let start = self.source_fixed_end + off;
                    let text = record
                        .get(start..start + len as usize)
                        .ok_or(CodecError::Corrupt)?;
                    std::str::from_utf8(text).map_err(|_| CodecError::Corrupt)?;
                    let tail = (out.len() - base - self.dest_fixed_end) as u16;
                    out[dest..dest + 2].copy_from_slice(&tail.to_be_bytes());
                    out[dest + 2..dest + 4].copy_from_slice(&len.to_be_bytes());
                    out.extend_from_slice(text);
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
    fn width(&self) -> usize {
        self.desc.num_fields()
    }
    /// Text is keyed where it lies in the record, and a number's value
    /// holds nothing to allocate: nothing is allocated.
    fn eq_key(&self, i: u16, out: &mut Vec<u8>) {
        match field_text(self.desc, self.bytes, i) {
            Ok(Some(text)) => text_eq_key(text, out),
            _ => value_eq_key(&self.field(i), out),
        }
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
    fn concat_row_spans_both_sides() {
        let left = Row(vec![Value::Int(1), Value::Int(2)]);
        let right = Row(vec![Value::Int(3)]);
        let c = ConcatRow {
            left: &left,
            right: &right,
        };
        assert_eq!(c.width(), 3);
        assert_eq!(c.field(0), Value::Int(1));
        assert_eq!(c.field(2), Value::Int(3));
    }

    #[test]
    fn truncated_bytes_are_corrupt_not_panic() {
        let d = desc();
        let bytes = encode_row(&d, &sample()).unwrap();
        assert_eq!(extract_field(&d, &bytes[..4], 0), Err(CodecError::Corrupt));
    }
}
