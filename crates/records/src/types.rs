//! Field types and record descriptors.
//!
//! A [`RecordDescriptor`] plays the role of Tandem's record descriptor: it
//! tells the Disk Process how to find "field number N" inside an encoded
//! record, so that projection and predicate evaluation can happen *at the
//! data source* without materialising whole rows.

use crate::value::Value;

/// Column data types of the 1988 SQL subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// 16-bit integer.
    SmallInt,
    /// 32-bit integer.
    Int,
    /// 64-bit integer.
    LargeInt,
    /// IEEE double.
    Double,
    /// Fixed-length character string, space padded.
    Char(u16),
    /// Variable-length character string with maximum length.
    Varchar(u16),
}

impl FieldType {
    /// Width of this field's slot in the fixed region of a record.
    /// Varchar slots hold a `(offset, len)` pair pointing into the tail.
    pub fn fixed_width(&self) -> usize {
        match *self {
            FieldType::SmallInt => 2,
            FieldType::Int => 4,
            FieldType::LargeInt | FieldType::Double => 8,
            FieldType::Char(n) => n as usize,
            FieldType::Varchar(_) => 4,
        }
    }

    /// Whether a value is of this type (NULL matches any type).
    pub fn admits(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (FieldType::SmallInt, Value::SmallInt(_))
                | (FieldType::Int, Value::Int(_))
                | (FieldType::LargeInt, Value::LargeInt(_))
                | (FieldType::Double, Value::Double(_))
                | (FieldType::Char(_), Value::Str(_))
                | (FieldType::Varchar(_), Value::Str(_))
        )
    }

    /// Coerce `v` into this type if a lossless-enough conversion exists
    /// (integer widening, integer→double, string fitting). Returns `None`
    /// when the value cannot be stored in a column of this type.
    pub fn coerce(&self, v: Value) -> Option<Value> {
        if v.is_null() {
            return Some(Value::Null);
        }
        match self {
            FieldType::SmallInt => {
                let n = v.as_i64()?;
                i16::try_from(n).ok().map(Value::SmallInt)
            }
            FieldType::Int => {
                let n = v.as_i64()?;
                i32::try_from(n).ok().map(Value::Int)
            }
            FieldType::LargeInt => v.as_i64().map(Value::LargeInt),
            FieldType::Double => v.as_f64().map(Value::Double),
            FieldType::Char(n) | FieldType::Varchar(n) => match v {
                Value::Str(s) if s.len() <= *n as usize => Some(Value::Str(s)),
                _ => None,
            },
        }
    }
}

/// A single field (column) definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Column name (upper-cased by the SQL front end).
    pub name: String,
    /// Data type.
    pub ty: FieldType,
    /// Whether NULL is storable.
    pub nullable: bool,
}

impl FieldDef {
    /// Convenience constructor for a non-nullable field.
    pub fn new(name: impl Into<String>, ty: FieldType) -> Self {
        FieldDef {
            name: name.into(),
            ty,
            nullable: false,
        }
    }

    /// Convenience constructor for a nullable field.
    pub fn nullable(name: impl Into<String>, ty: FieldType) -> Self {
        FieldDef {
            name: name.into(),
            ty,
            nullable: true,
        }
    }
}

/// Record layout: an ordered list of fields plus which field numbers form
/// the (primary) key.
///
/// Encoded record layout:
/// ```text
/// [ null bitmap: ceil(n/8) bytes ][ fixed region: one slot per field ][ var tail ]
/// ```
/// Fixed slots have precomputed offsets, so extracting field `i` from raw
/// bytes is O(1) — this is what makes Disk-Process-side field operations
/// cheap.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordDescriptor {
    /// Field definitions, in field-number order.
    pub fields: Vec<FieldDef>,
    /// Field numbers (indices into `fields`) forming the record's key.
    pub key_fields: Vec<u16>,
    /// Precomputed offset of each fixed slot from the start of the fixed
    /// region.
    fixed_offsets: Vec<usize>,
    /// Total size of the fixed region.
    fixed_size: usize,
}

impl RecordDescriptor {
    /// Build a descriptor. `key_fields` are indices into `fields`.
    ///
    /// # Panics
    /// Panics if a key field index is out of range or a key field is
    /// nullable (keys must be NOT NULL, as in the original system).
    pub fn new(fields: Vec<FieldDef>, key_fields: Vec<u16>) -> Self {
        for &k in &key_fields {
            let f = &fields[k as usize];
            assert!(!f.nullable, "key field {} must be NOT NULL", f.name);
        }
        let mut fixed_offsets = Vec::with_capacity(fields.len());
        let mut off = 0usize;
        for f in &fields {
            fixed_offsets.push(off);
            off += f.ty.fixed_width();
        }
        RecordDescriptor {
            fields,
            key_fields,
            fixed_offsets,
            fixed_size: off,
        }
    }

    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// Size of the null bitmap in bytes.
    pub fn bitmap_len(&self) -> usize {
        self.fields.len().div_ceil(8)
    }

    /// Offset of field `i`'s fixed slot from the start of the record.
    pub fn slot_offset(&self, i: u16) -> usize {
        self.bitmap_len() + self.fixed_offsets[i as usize]
    }

    /// Each field with the offset of its fixed slot from the start of the
    /// record, in field order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = (&FieldDef, usize)> {
        let bitmap = self.bitmap_len();
        (self.fields.iter()).zip(self.fixed_offsets.iter().map(move |off| bitmap + off))
    }

    /// Size of the fixed region (excluding bitmap and var tail).
    pub fn fixed_size(&self) -> usize {
        self.fixed_size
    }

    /// Look up a field number by (case-insensitive) name.
    pub fn field_named(&self, name: &str) -> Option<u16> {
        self.fields
            .iter()
            .position(|f| f.name.eq_ignore_ascii_case(name))
            .map(|i| i as u16)
    }

    /// Descriptor describing a projection of this record: the given fields,
    /// in the given order, with no key (projected rows are not keyed).
    pub fn project(&self, field_nums: &[u16]) -> RecordDescriptor {
        let fields = field_nums
            .iter()
            .map(|&i| self.fields[i as usize].clone())
            .collect();
        RecordDescriptor::new(fields, Vec::new())
    }

    /// Serialize to bytes (for persistence in volume file labels).
    pub fn encode_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.fields.len() as u16).to_be_bytes());
        for f in &self.fields {
            out.push(f.nullable as u8);
            let (tag, n): (u8, u16) = match f.ty {
                FieldType::SmallInt => (1, 0),
                FieldType::Int => (2, 0),
                FieldType::LargeInt => (3, 0),
                FieldType::Double => (4, 0),
                FieldType::Char(n) => (5, n),
                FieldType::Varchar(n) => (6, n),
            };
            out.push(tag);
            out.extend_from_slice(&n.to_be_bytes());
            out.extend_from_slice(&(f.name.len() as u16).to_be_bytes());
            out.extend_from_slice(f.name.as_bytes());
        }
        out.extend_from_slice(&(self.key_fields.len() as u16).to_be_bytes());
        for &k in &self.key_fields {
            out.extend_from_slice(&k.to_be_bytes());
        }
        out
    }

    /// Deserialize from [`RecordDescriptor::encode_bytes`] output; returns
    /// the descriptor and the number of bytes consumed.
    ///
    /// # Panics
    /// Panics on malformed bytes (label corruption is a simulation bug).
    pub fn decode_bytes(bytes: &[u8]) -> (RecordDescriptor, usize) {
        let mut pos = 0usize;
        let u16_at = |pos: &mut usize| {
            let v = u16::from_be_bytes(bytes[*pos..*pos + 2].try_into().unwrap());
            *pos += 2;
            v
        };
        let nfields = u16_at(&mut pos) as usize;
        let mut fields = Vec::with_capacity(nfields);
        for _ in 0..nfields {
            let nullable = bytes[pos] != 0;
            let tag = bytes[pos + 1];
            pos += 2;
            let n = u16_at(&mut pos);
            let name_len = u16_at(&mut pos) as usize;
            let name = String::from_utf8(bytes[pos..pos + name_len].to_vec()).unwrap();
            pos += name_len;
            let ty = match tag {
                1 => FieldType::SmallInt,
                2 => FieldType::Int,
                3 => FieldType::LargeInt,
                4 => FieldType::Double,
                5 => FieldType::Char(n),
                6 => FieldType::Varchar(n),
                other => panic!("corrupt descriptor type tag {other}"),
            };
            fields.push(FieldDef { name, ty, nullable });
        }
        let nkeys = u16_at(&mut pos) as usize;
        let mut key_fields = Vec::with_capacity(nkeys);
        for _ in 0..nkeys {
            key_fields.push(u16_at(&mut pos));
        }
        (RecordDescriptor::new(fields, key_fields), pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp() -> RecordDescriptor {
        RecordDescriptor::new(
            vec![
                FieldDef::new("EMPNO", FieldType::Int),
                FieldDef::new("NAME", FieldType::Char(12)),
                FieldDef::nullable("HIRE_DATE", FieldType::Int),
                FieldDef::nullable("SALARY", FieldType::Double),
                FieldDef::nullable("BIO", FieldType::Varchar(100)),
            ],
            vec![0],
        )
    }

    #[test]
    fn offsets_are_cumulative() {
        let d = emp();
        assert_eq!(d.bitmap_len(), 1);
        assert_eq!(d.slot_offset(0), 1);
        assert_eq!(d.slot_offset(1), 5);
        assert_eq!(d.slot_offset(2), 17);
        assert_eq!(d.slot_offset(3), 21);
        assert_eq!(d.slot_offset(4), 29);
        assert_eq!(d.fixed_size(), 4 + 12 + 4 + 8 + 4);
    }

    #[test]
    fn field_lookup_is_case_insensitive() {
        let d = emp();
        assert_eq!(d.field_named("salary"), Some(3));
        assert_eq!(d.field_named("SALARY"), Some(3));
        assert_eq!(d.field_named("nope"), None);
    }

    #[test]
    fn projection_preserves_order() {
        let d = emp();
        let p = d.project(&[1, 2]);
        assert_eq!(p.fields[0].name, "NAME");
        assert_eq!(p.fields[1].name, "HIRE_DATE");
        assert!(p.key_fields.is_empty());
    }

    #[test]
    #[should_panic(expected = "NOT NULL")]
    fn nullable_key_rejected() {
        RecordDescriptor::new(vec![FieldDef::nullable("K", FieldType::Int)], vec![0]);
    }

    #[test]
    fn coercion_rules() {
        assert_eq!(
            FieldType::LargeInt.coerce(Value::Int(7)),
            Some(Value::LargeInt(7))
        );
        assert_eq!(
            FieldType::SmallInt.coerce(Value::Int(70_000)),
            None,
            "overflowing narrow store is rejected"
        );
        assert_eq!(
            FieldType::Double.coerce(Value::Int(2)),
            Some(Value::Double(2.0))
        );
        assert_eq!(FieldType::Char(3).coerce(Value::Str("abcd".into())), None);
        assert_eq!(
            FieldType::Varchar(8).coerce(Value::Str("abcd".into())),
            Some(Value::Str("abcd".into()))
        );
    }

    #[test]
    fn byte_codec_round_trips() {
        let d = emp();
        let bytes = d.encode_bytes();
        let (decoded, used) = RecordDescriptor::decode_bytes(&bytes);
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, d);
        // Layout caches rebuilt correctly.
        assert_eq!(decoded.slot_offset(3), d.slot_offset(3));
    }
}
