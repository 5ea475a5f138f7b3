//! Order-preserving key encoding and key ranges.
//!
//! Keys are the currency of the set-oriented FS-DP interface: every
//! `GET^FIRST^VSBB` / `UPDATE^SUBSET^FIRST` message names a *primary key
//! range*, and the continuation re-drive protocol returns the *last
//! processed key* so the File System can re-drive with the remainder of the
//! range. Encoding keys so that byte-wise comparison equals SQL comparison
//! makes all of that (and the B-tree) simple and fast.

use crate::row::{extract_field, CodecError};
use crate::types::{FieldType, RecordDescriptor};
use crate::value::Value;
use std::ops::Bound;

/// Encode one value as an order-preserving byte string, appending to `out`.
///
/// Every component starts with a presence byte (`0x00` = NULL, `0x01` =
/// present) so NULLs sort first; key fields are NOT NULL in practice but the
/// encoding is total so secondary indexes over nullable columns also work.
pub fn encode_key_value(ty: FieldType, v: &Value, out: &mut Vec<u8>) {
    if v.is_null() {
        out.push(0x00);
        return;
    }
    out.push(0x01);
    match (ty, v) {
        (FieldType::SmallInt, _) => {
            let n = v.as_i64().expect("typed") as i16;
            out.extend_from_slice(&((n as u16) ^ 0x8000).to_be_bytes());
        }
        (FieldType::Int, _) => {
            let n = v.as_i64().expect("typed") as i32;
            out.extend_from_slice(&((n as u32) ^ 0x8000_0000).to_be_bytes());
        }
        (FieldType::LargeInt, _) => {
            let n = v.as_i64().expect("typed");
            out.extend_from_slice(&((n as u64) ^ 0x8000_0000_0000_0000).to_be_bytes());
        }
        (FieldType::Double, _) => {
            // SQL finds `-0.0` equal to `0.0`, so they are one key.
            let x = v.as_f64().expect("typed");
            let x = if x == 0.0 { 0.0 } else { x };
            let bits = x.to_bits();
            // Standard IEEE total-order trick: flip all bits of negatives,
            // flip only the sign bit of non-negatives.
            let mapped = if bits & 0x8000_0000_0000_0000 != 0 {
                !bits
            } else {
                bits ^ 0x8000_0000_0000_0000
            };
            out.extend_from_slice(&mapped.to_be_bytes());
        }
        (FieldType::Char(n), Value::Str(s)) => {
            // Fixed width, space padded: padding preserves PAD SPACE order.
            out.extend_from_slice(s.as_bytes());
            out.extend(std::iter::repeat_n(b' ', n as usize - s.len()));
        }
        (FieldType::Varchar(_), Value::Str(s)) => {
            // 0x00 escaping + terminator keeps prefix ordering correct.
            for &b in s.as_bytes() {
                if b == 0x00 {
                    out.extend_from_slice(&[0x00, 0xFF]);
                } else {
                    out.push(b);
                }
            }
            out.extend_from_slice(&[0x00, 0x00]);
        }
        _ => panic!("key value {v:?} does not match type {ty:?}"),
    }
}

/// Encode the key of a record (its `key_fields`, in order) from a slice of
/// field values laid out per the descriptor.
pub fn encode_record_key(desc: &RecordDescriptor, values: &[Value]) -> Vec<u8> {
    let mut out = Vec::new();
    for &k in &desc.key_fields {
        encode_key_value(desc.fields[k as usize].ty, &values[k as usize], &mut out);
    }
    out
}

/// The key of an encoded record, from its key fields alone: what
/// [`encode_record_key`] makes of the decoded row, without decoding the
/// rest of it.
pub fn encode_stored_key(desc: &RecordDescriptor, record: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    for &k in &desc.key_fields {
        let value = extract_field(desc, record, k)?;
        encode_key_value(desc.fields[k as usize].ty, &value, &mut out);
    }
    Ok(out)
}

/// Encode a key from an explicit (type, value) list — used for search keys
/// that constrain only a prefix of the key columns.
pub fn encode_key_prefix(parts: &[(FieldType, Value)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (ty, v) in parts {
        encode_key_value(*ty, v, &mut out);
    }
    out
}

/// An owned bound on an encoded key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OwnedBound {
    /// No bound in this direction.
    Unbounded,
    /// Bound including the key itself.
    Included(Vec<u8>),
    /// Bound excluding the key itself.
    Excluded(Vec<u8>),
}

impl OwnedBound {
    /// View as a `std::ops::Bound<&[u8]>`.
    pub fn as_ref(&self) -> Bound<&[u8]> {
        match self {
            OwnedBound::Unbounded => Bound::Unbounded,
            OwnedBound::Included(k) => Bound::Included(k.as_slice()),
            OwnedBound::Excluded(k) => Bound::Excluded(k.as_slice()),
        }
    }

    /// Approximate wire size for message accounting.
    pub fn wire_size(&self) -> usize {
        1 + match self {
            OwnedBound::Unbounded => 0,
            OwnedBound::Included(k) | OwnedBound::Excluded(k) => k.len(),
        }
    }
}

/// An encoded-key range `[begin, end]` with open/closed/unbounded ends.
///
/// The set-oriented FS-DP request messages carry exactly this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange {
    /// Lower end.
    pub begin: OwnedBound,
    /// Upper end.
    pub end: OwnedBound,
}

impl KeyRange {
    /// The full key space (the paper's `[LOW-VALUE, HIGH-VALUE]`).
    pub fn all() -> Self {
        KeyRange {
            begin: OwnedBound::Unbounded,
            end: OwnedBound::Unbounded,
        }
    }

    /// The single-key range `[key, key]`.
    pub fn point(key: Vec<u8>) -> Self {
        KeyRange {
            begin: OwnedBound::Included(key.clone()),
            end: OwnedBound::Included(key),
        }
    }

    /// All keys starting with `prefix` (the paper's *generic* key subset).
    pub fn prefix(prefix: Vec<u8>) -> Self {
        let end = match prefix_successor(&prefix) {
            Some(hi) => OwnedBound::Excluded(hi),
            None => OwnedBound::Unbounded,
        };
        KeyRange {
            begin: OwnedBound::Included(prefix),
            end,
        }
    }

    /// Does `key` fall inside the range?
    pub fn contains(&self, key: &[u8]) -> bool {
        let lo_ok = match &self.begin {
            OwnedBound::Unbounded => true,
            OwnedBound::Included(b) => key >= b.as_slice(),
            OwnedBound::Excluded(b) => key > b.as_slice(),
        };
        let hi_ok = match &self.end {
            OwnedBound::Unbounded => true,
            OwnedBound::Included(b) => key <= b.as_slice(),
            OwnedBound::Excluded(b) => key < b.as_slice(),
        };
        lo_ok && hi_ok
    }

    /// Is the range definitely empty (no key can satisfy it)?
    pub fn is_empty(&self) -> bool {
        let (lo, lo_incl) = match &self.begin {
            OwnedBound::Unbounded => return false,
            OwnedBound::Included(b) => (b, true),
            OwnedBound::Excluded(b) => (b, false),
        };
        let (hi, hi_incl) = match &self.end {
            OwnedBound::Unbounded => return false,
            OwnedBound::Included(b) => (b, true),
            OwnedBound::Excluded(b) => (b, false),
        };
        match lo.cmp(hi) {
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => !(lo_incl && hi_incl),
            std::cmp::Ordering::Greater => true,
        }
    }

    /// The continuation range after processing up to (and including)
    /// `last_key`: `(last_key, original-end]`. This is the re-drive message's
    /// "new (non-inclusive) begin-key" from the paper.
    pub fn after(&self, last_key: &[u8]) -> KeyRange {
        KeyRange {
            begin: OwnedBound::Excluded(last_key.to_vec()),
            end: self.end.clone(),
        }
    }

    /// Intersect with another range (used to clip a request range to a
    /// partition's key span).
    pub fn intersect(&self, other: &KeyRange) -> KeyRange {
        fn tighter_lo(a: &OwnedBound, b: &OwnedBound) -> OwnedBound {
            match (a, b) {
                (OwnedBound::Unbounded, x) | (x, OwnedBound::Unbounded) => x.clone(),
                (x, y) => {
                    let (kx, ky) = (bound_key(x), bound_key(y));
                    match kx.cmp(ky) {
                        std::cmp::Ordering::Greater => x.clone(),
                        std::cmp::Ordering::Less => y.clone(),
                        std::cmp::Ordering::Equal => {
                            if matches!(x, OwnedBound::Excluded(_)) {
                                x.clone()
                            } else {
                                y.clone()
                            }
                        }
                    }
                }
            }
        }
        fn tighter_hi(a: &OwnedBound, b: &OwnedBound) -> OwnedBound {
            match (a, b) {
                (OwnedBound::Unbounded, x) | (x, OwnedBound::Unbounded) => x.clone(),
                (x, y) => {
                    let (kx, ky) = (bound_key(x), bound_key(y));
                    match kx.cmp(ky) {
                        std::cmp::Ordering::Less => x.clone(),
                        std::cmp::Ordering::Greater => y.clone(),
                        std::cmp::Ordering::Equal => {
                            if matches!(x, OwnedBound::Excluded(_)) {
                                x.clone()
                            } else {
                                y.clone()
                            }
                        }
                    }
                }
            }
        }
        KeyRange {
            begin: tighter_lo(&self.begin, &other.begin),
            end: tighter_hi(&self.end, &other.end),
        }
    }

    /// Approximate wire size for message accounting.
    pub fn wire_size(&self) -> usize {
        self.begin.wire_size() + self.end.wire_size()
    }
}

fn bound_key(b: &OwnedBound) -> &[u8] {
    match b {
        OwnedBound::Included(k) | OwnedBound::Excluded(k) => k,
        OwnedBound::Unbounded => unreachable!("bounded only"),
    }
}

/// The smallest byte string greater than every string with prefix `k`:
/// `k` with its last non-0xFF byte incremented and the tail dropped.
/// Returns `None` when `k` is empty or all 0xFF (no upper bound exists).
fn prefix_successor(k: &[u8]) -> Option<Vec<u8>> {
    let mut out = k.to_vec();
    while let Some(last) = out.last_mut() {
        if *last == 0xFF {
            out.pop();
        } else {
            *last += 1;
            return Some(out);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FieldDef;

    fn key1(ty: FieldType, v: Value) -> Vec<u8> {
        let mut out = Vec::new();
        encode_key_value(ty, &v, &mut out);
        out
    }

    #[test]
    fn integer_order_preserved() {
        let vals = [i32::MIN, -100, -1, 0, 1, 99, i32::MAX];
        let keys: Vec<_> = vals
            .iter()
            .map(|&v| key1(FieldType::Int, Value::Int(v)))
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn double_order_preserved() {
        let vals = [
            f64::NEG_INFINITY,
            -1e100,
            -1.5,
            -0.0,
            0.0,
            2.5,
            1e100,
            f64::INFINITY,
        ];
        let keys: Vec<_> = vals
            .iter()
            .map(|&v| key1(FieldType::Double, Value::Double(v)))
            .collect();
        for (i, w) in keys.windows(2).enumerate() {
            assert!(
                w[0] <= w[1],
                "order broken between {} and {}",
                vals[i],
                vals[i + 1]
            );
        }
    }

    #[test]
    fn null_sorts_first() {
        let n = key1(FieldType::Int, Value::Null);
        let v = key1(FieldType::Int, Value::Int(i32::MIN));
        assert!(n < v);
    }

    #[test]
    fn varchar_prefix_order() {
        let a = key1(FieldType::Varchar(10), Value::Str("AB".into()));
        let b = key1(FieldType::Varchar(10), Value::Str("ABC".into()));
        let c = key1(FieldType::Varchar(10), Value::Str("AC".into()));
        assert!(a < b && b < c);
    }

    #[test]
    fn composite_key_orders_lexicographically() {
        let d = RecordDescriptor::new(
            vec![
                FieldDef::new("A", FieldType::Int),
                FieldDef::new("B", FieldType::Char(4)),
            ],
            vec![0, 1],
        );
        let k1 = encode_record_key(&d, &[Value::Int(1), Value::Str("ZZ".into())]);
        let k2 = encode_record_key(&d, &[Value::Int(2), Value::Str("AA".into())]);
        assert!(k1 < k2, "first key column dominates");
    }

    #[test]
    fn range_contains_and_after() {
        let lo = key1(FieldType::Int, Value::Int(10));
        let hi = key1(FieldType::Int, Value::Int(20));
        let r = KeyRange {
            begin: OwnedBound::Included(lo.clone()),
            end: OwnedBound::Included(hi.clone()),
        };
        let mid = key1(FieldType::Int, Value::Int(15));
        assert!(r.contains(&lo) && r.contains(&mid) && r.contains(&hi));
        assert!(!r.contains(&key1(FieldType::Int, Value::Int(9))));
        let cont = r.after(&mid);
        assert!(!cont.contains(&mid), "re-drive begin-key is non-inclusive");
        assert!(cont.contains(&hi));
    }

    #[test]
    fn range_emptiness() {
        let a = key1(FieldType::Int, Value::Int(5));
        let b = key1(FieldType::Int, Value::Int(3));
        assert!(KeyRange {
            begin: OwnedBound::Included(a.clone()),
            end: OwnedBound::Included(b.clone()),
        }
        .is_empty());
        assert!(KeyRange {
            begin: OwnedBound::Excluded(a.clone()),
            end: OwnedBound::Included(a.clone()),
        }
        .is_empty());
        assert!(!KeyRange::point(a).is_empty());
        assert!(!KeyRange::all().is_empty());
    }

    #[test]
    fn intersect_clips_both_ends() {
        let k = |v| key1(FieldType::Int, Value::Int(v));
        let req = KeyRange {
            begin: OwnedBound::Included(k(5)),
            end: OwnedBound::Included(k(25)),
        };
        let part = KeyRange {
            begin: OwnedBound::Included(k(10)),
            end: OwnedBound::Excluded(k(20)),
        };
        let i = req.intersect(&part);
        assert!(!i.contains(&k(9)));
        assert!(i.contains(&k(10)));
        assert!(i.contains(&k(19)));
        assert!(!i.contains(&k(20)));
        assert!(!i.contains(&k(25)));
    }

    #[test]
    fn prefix_range_covers_extensions() {
        let d = RecordDescriptor::new(
            vec![
                FieldDef::new("A", FieldType::Int),
                FieldDef::new("B", FieldType::Int),
            ],
            vec![0, 1],
        );
        let p = encode_key_prefix(&[(FieldType::Int, Value::Int(7))]);
        let r = KeyRange::prefix(p);
        let in_range = encode_record_key(&d, &[Value::Int(7), Value::Int(123)]);
        let below = encode_record_key(&d, &[Value::Int(6), Value::Int(i32::MAX)]);
        let above = encode_record_key(&d, &[Value::Int(8), Value::Int(i32::MIN)]);
        assert!(r.contains(&in_range));
        assert!(!r.contains(&below));
        assert!(!r.contains(&above));
    }
}
