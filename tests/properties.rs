//! Randomised tests over the stack's core invariants, driven by a seeded
//! RNG so every run checks the same cases.

use nsql_fs::{FsError, ReplyRow};
use nsql_records::key::{encode_key_value, encode_record_key, encode_stored_key};
use nsql_records::row::{check_row, decode_row, encode_row, extract_field, patch_row, CodecError};
use nsql_records::{
    ArithOp, CmpOp, EvalError, Expr, FieldChanges, FieldDef, FieldType, Kernel, Patch, PatchError,
    Predicate, PredicateError, Projection, RawRecord, RecordDescriptor, Row, RowAccessor, SetList,
    Value,
};
use nsql_sim::SimRng;
use std::cell::Cell;
use std::collections::HashMap;

fn draw_value_for(rng: &mut SimRng, ty: FieldType) -> Value {
    match ty {
        FieldType::SmallInt => {
            Value::SmallInt(rng.between(i16::MIN as i64, i16::MAX as i64) as i16)
        }
        FieldType::Int => Value::Int(rng.between(i32::MIN as i64, i32::MAX as i64) as i32),
        FieldType::LargeInt => Value::LargeInt(rng.next_u64() as i64),
        FieldType::Double => loop {
            let x = f64::from_bits(rng.next_u64());
            if !x.is_nan() {
                // NaN breaks ordering by design.
                break Value::Double(x);
            }
        },
        FieldType::Char(n) => {
            let len = rng.below(n as u64 + 1) as usize;
            let s: String = (0..len)
                .map(|_| (b' ' + rng.below(95) as u8) as char)
                .collect();
            Value::Str(s.trim_end_matches(' ').to_string())
        }
        FieldType::Varchar(n) => {
            let len = rng.below(n as u64 + 1) as usize;
            Value::Str(
                (0..len)
                    .map(|_| (b' ' + rng.below(95) as u8) as char)
                    .collect(),
            )
        }
    }
}

fn test_desc() -> RecordDescriptor {
    RecordDescriptor::new(
        vec![
            FieldDef::new("K", FieldType::Int),
            FieldDef::nullable("A", FieldType::SmallInt),
            FieldDef::nullable("B", FieldType::Double),
            FieldDef::nullable("C", FieldType::Char(16)),
            FieldDef::nullable("D", FieldType::Varchar(32)),
        ],
        vec![0],
    )
}

fn draw_row(rng: &mut SimRng) -> Vec<Value> {
    let d = test_desc();
    d.fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            if i > 0 && rng.chance(0.25) {
                Value::Null
            } else {
                draw_value_for(rng, f.ty)
            }
        })
        .collect()
}

/// Row codec: encode/decode is the identity.
#[test]
fn row_codec_round_trips() {
    let mut rng = SimRng::seed_from(0x201);
    let d = test_desc();
    for _ in 0..256 {
        let row = draw_row(&mut rng);
        let bytes = encode_row(&d, &row).unwrap();
        let decoded = decode_row(&d, &bytes).unwrap();
        assert_eq!(decoded.0, row);
    }
}

/// Key encoding preserves SQL ordering for every scalar type.
#[test]
fn key_encoding_preserves_order() {
    let mut rng = SimRng::seed_from(0x202);
    let enc = |ty: FieldType, v: &Value| {
        let mut out = Vec::new();
        encode_key_value(ty, v, &mut out);
        out
    };
    for _ in 0..256 {
        // Integers.
        let a = rng.between(i32::MIN as i64, i32::MAX as i64) as i32;
        let b = rng.between(i32::MIN as i64, i32::MAX as i64) as i32;
        let (ka, kb) = (
            enc(FieldType::Int, &Value::Int(a)),
            enc(FieldType::Int, &Value::Int(b)),
        );
        assert_eq!(a.cmp(&b), ka.cmp(&kb));
        // Doubles (excluding NaN).
        let (Value::Double(x), Value::Double(y)) = (
            draw_value_for(&mut rng, FieldType::Double),
            draw_value_for(&mut rng, FieldType::Double),
        ) else {
            unreachable!()
        };
        let (kx, ky) = (
            enc(FieldType::Double, &Value::Double(x)),
            enc(FieldType::Double, &Value::Double(y)),
        );
        if x < y {
            assert!(kx < ky);
        }
        if x > y {
            assert!(kx > ky);
        }
        // Varchars order like byte strings.
        let (Value::Str(s), Value::Str(t)) = (
            draw_value_for(&mut rng, FieldType::Varchar(12)),
            draw_value_for(&mut rng, FieldType::Varchar(12)),
        ) else {
            unreachable!()
        };
        let (ks, kt) = (
            enc(FieldType::Varchar(16), &Value::Str(s.clone())),
            enc(FieldType::Varchar(16), &Value::Str(t.clone())),
        );
        assert_eq!(s.as_bytes().cmp(t.as_bytes()), ks.cmp(&kt));
    }
}

/// Composite record keys order like tuples of their key values.
#[test]
fn record_keys_order_like_tuples() {
    let mut rng = SimRng::seed_from(0x203);
    let d = RecordDescriptor::new(
        vec![
            FieldDef::new("X", FieldType::Int),
            FieldDef::new("Y", FieldType::Int),
        ],
        vec![0, 1],
    );
    for _ in 0..256 {
        let (a1, a2) = (
            rng.between(-1000, 999) as i32,
            rng.between(-1000, 999) as i32,
        );
        let (b1, b2) = (
            rng.between(-1000, 999) as i32,
            rng.between(-1000, 999) as i32,
        );
        let ka = encode_record_key(&d, &[Value::Int(a1), Value::Int(a2)]);
        let kb = encode_record_key(&d, &[Value::Int(b1), Value::Int(b2)]);
        assert_eq!((a1, a2).cmp(&(b1, b2)), ka.cmp(&kb));
    }
}

/// What a compiled predicate makes of `record`, in the oracle's terms.
fn compiled_eval(d: &RecordDescriptor, e: &Expr, record: &[u8]) -> Result<Value, PredicateError> {
    Predicate::new(d, e.clone()).eval(d, record)
}

/// The Disk Process's evaluation over raw record bytes — interpreted
/// through `RawRecord` and compiled into a `Predicate` — agrees with
/// evaluation over the fully decoded row.
#[test]
fn raw_and_decoded_evaluation_agree() {
    let mut rng = SimRng::seed_from(0x204);
    let d = test_desc();
    for _ in 0..256 {
        let row = draw_row(&mut rng);
        let lit = rng.between(i16::MIN as i64, i16::MAX as i64) as i16;
        let bytes = encode_row(&d, &row).unwrap();
        let raw = nsql_records::RawRecord {
            desc: &d,
            bytes: &bytes,
        };
        let decoded = Row(row);
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge, CmpOp::Ne] {
            let pred = Expr::field_cmp(1, op, Value::SmallInt(lit));
            assert_eq!(pred.eval(&raw), pred.eval(&decoded));
            assert_eq!(
                compiled_eval(&d, &pred, &bytes),
                Ok(pred.eval(&raw).unwrap())
            );
        }
        // IS NULL too.
        let isnull = Expr::IsNull {
            expr: Box::new(Expr::Field(2)),
            negated: false,
        };
        assert_eq!(isnull.eval(&raw), isnull.eval(&decoded));
        assert_eq!(
            compiled_eval(&d, &isnull, &bytes),
            Ok(isnull.eval(&raw).unwrap())
        );
    }
}

/// Three-valued logic: De Morgan holds under SQL NULL semantics.
#[test]
fn de_morgan_under_three_valued_logic() {
    let v = |x: u8| match x {
        0 => Expr::lit(Value::Bool(false)),
        1 => Expr::lit(Value::Bool(true)),
        _ => Expr::lit(Value::Null),
    };
    let row = Row(vec![]);
    for a in 0u8..3 {
        for b in 0u8..3 {
            let lhs = Expr::Not(Box::new(Expr::and(v(a), v(b))));
            let rhs = Expr::or(Expr::Not(Box::new(v(a))), Expr::Not(Box::new(v(b))));
            assert_eq!(lhs.eval(&row).unwrap(), rhs.eval(&row).unwrap());
        }
    }
    // The same over the compiled connectives: `F<x> = 1` is FALSE, TRUE and
    // unknown on the fields of one stored record.
    let d = RecordDescriptor::new(
        (0..3)
            .map(|i| FieldDef::nullable(format!("F{i}"), FieldType::Int))
            .collect(),
        vec![],
    );
    let record = encode_row(&d, &[Value::Int(0), Value::Int(1), Value::Null]).unwrap();
    let f = |x: u8| Expr::field_cmp(u16::from(x), CmpOp::Eq, Value::Int(1));
    for a in 0u8..3 {
        for b in 0u8..3 {
            let lhs = Expr::Not(Box::new(Expr::and(f(a), f(b))));
            let rhs = Expr::or(Expr::Not(Box::new(f(a))), Expr::Not(Box::new(f(b))));
            let literals = Expr::Not(Box::new(Expr::and(v(a), v(b))));
            let compiled = compiled_eval(&d, &lhs, &record);
            assert_eq!(compiled, compiled_eval(&d, &rhs, &record));
            assert_eq!(compiled, Ok(literals.eval(&row).unwrap()));
        }
    }
}

/// A random schema over all six field types: a NOT NULL key column, the
/// rest nullable.
fn draw_desc(rng: &mut SimRng) -> RecordDescriptor {
    let ncols = 1 + rng.below(11) as usize;
    let mut fields = Vec::new();
    for i in 0..ncols {
        let s = rng.next_u64();
        let ty = match s % 6 {
            0 => FieldType::SmallInt,
            1 => FieldType::Int,
            2 => FieldType::LargeInt,
            3 => FieldType::Double,
            4 => FieldType::Char((s % 40 + 1) as u16),
            _ => FieldType::Varchar((s % 60 + 1) as u16),
        };
        if i == 0 {
            fields.push(FieldDef::new(format!("C{i}"), ty));
        } else {
            fields.push(FieldDef::nullable(format!("C{i}"), ty));
        }
    }
    RecordDescriptor::new(fields, vec![0])
}

/// Descriptor byte-codec round-trips arbitrary schemas.
#[test]
fn descriptor_codec_round_trips() {
    let mut rng = SimRng::seed_from(0x205);
    for _ in 0..256 {
        let d = draw_desc(&mut rng);
        let bytes = d.encode_bytes();
        let (decoded, used) = RecordDescriptor::decode_bytes(&bytes);
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, d);
    }
}

/// `record` damaged: truncated, its VARCHAR slots pointing out of it, or
/// holding a byte no UTF-8 text holds.
fn damage(rng: &mut SimRng, d: &RecordDescriptor, record: &[u8]) -> Vec<u8> {
    let mut damaged = record.to_vec();
    match rng.below(3) {
        0 => damaged.truncate(rng.below(record.len() as u64) as usize),
        1 => {
            let varchars = (0..d.num_fields() as u16)
                .filter(|&f| matches!(d.fields[f as usize].ty, FieldType::Varchar(_)));
            for f in varchars {
                let at = d.slot_offset(f) + 2 * rng.below(2) as usize;
                let wild = (rng.below(2 * record.len() as u64 + 2) as u16).to_be_bytes();
                damaged[at..at + 2].copy_from_slice(&wild);
            }
        }
        _ => {
            let at = rng.below(record.len() as u64) as usize;
            damaged[at] = 0xFF;
        }
    }
    damaged
}

/// The projected fields as `extract_field` reads them, if it reads them all.
fn extract(d: &RecordDescriptor, record: &[u8], fields: &[u16]) -> Option<Vec<Value>> {
    let values = fields.iter().map(|&f| extract_field(d, record, f));
    values.collect::<Result<_, _>>().ok()
}

/// The Disk Process's projection plan copies bytes; what it produces is what
/// extracting the fields and re-encoding them under the projected descriptor
/// produces, and it refuses a damaged record exactly when `extract_field`
/// refuses one of the projected fields.
#[test]
fn projection_plan_matches_extract_and_encode() {
    let mut rng = SimRng::seed_from(0x206);
    let (mut intact, mut refused, mut survived) = (0, 0, 0);
    for _ in 0..512 {
        let d = draw_desc(&mut rng);
        let n = d.num_fields() as u64;
        let row: Vec<Value> = (d.fields.iter().enumerate())
            .map(|(i, f)| match (f.ty, rng.below(4)) {
                (_, 0) if i > 0 => Value::Null,
                // Empty and full strings; CHAR pads what it is short of.
                (FieldType::Char(_) | FieldType::Varchar(_), 1) => Value::Str(String::new()),
                (FieldType::Char(w) | FieldType::Varchar(w), 2) => {
                    Value::Str("x".repeat(w as usize))
                }
                (ty, _) => draw_value_for(&mut rng, ty),
            })
            .collect();
        let record = encode_row(&d, &row).unwrap();
        // Any fields in any order, repeats included, none at all sometimes.
        let fields: Vec<u16> = (0..rng.below(2 * n + 1))
            .map(|_| rng.below(n) as u16)
            .collect();
        let plan = Projection::new(&d, &fields).unwrap();
        assert!(Projection::new(&d, &[n as u16]).is_err(), "no such field");

        let mut block = vec![0xEE; 3];
        plan.project_into(&record, &mut block).unwrap();
        assert_eq!(block[..3], [0xEE; 3], "the plan appends");
        let projected = d.project(&fields);
        let values = extract(&d, &record, &fields).unwrap();
        let expected = encode_row(&projected, &values).unwrap();
        assert_eq!(block[3..], expected[..], "{d:?} {fields:?}");
        intact += 1;

        let damaged = damage(&mut rng, &d, &record);
        let mut block = vec![0xEE; 3];
        let done = plan.project_into(&damaged, &mut block);
        match extract(&d, &damaged, &fields) {
            Some(values) => {
                done.unwrap();
                // Re-encoding also refuses a NULL key and an overlong
                // VARCHAR, which extracting (and so the plan) lets through.
                if let Ok(expected) = encode_row(&projected, &values) {
                    assert_eq!(block[3..], expected[..], "{d:?} {fields:?}");
                }
                survived += 1;
            }
            None => {
                assert_eq!(done, Err(CodecError::Corrupt), "{d:?} {fields:?}");
                assert_eq!(block, [0xEE; 3], "a refused record leaves nothing behind");
                refused += 1;
            }
        }
    }
    assert!(intact == 512 && refused > 100 && survived > 100);
}

/// What the File System reads of a reply row in place agrees with decoding
/// it: `check_row` refuses a damaged record exactly when `decode_row` does,
/// with its error, and so do both doors of a `ReplyRow`; a record's key
/// taken from its key field is the key of its decoded values; and the
/// equality key of each field read from the bytes is the key of the decoded
/// value.
#[test]
fn rows_read_in_place_agree_with_decoded_rows() {
    let mut rng = SimRng::seed_from(0x209);
    let mut refused = 0;
    for _ in 0..512 {
        let d = draw_desc(&mut rng);
        let row: Vec<Value> = (d.fields.iter().enumerate())
            .map(|(i, f)| match (f.ty, rng.below(4)) {
                (_, 0) if i > 0 => Value::Null,
                (ty, _) => draw_value_for(&mut rng, ty),
            })
            .collect();
        let record = encode_row(&d, &row).unwrap();
        for record in [damage(&mut rng, &d, &record), record] {
            let decoded = decode_row(&d, &record);
            assert_eq!(
                check_row(&d, &record),
                decoded.as_ref().map(|_| ()).map_err(Clone::clone)
            );
            let reply = || ReplyRow::new(&d, &record);
            let as_fs = decoded.clone().map_err(|e| FsError::BadRow(e.to_string()));
            // Printed, as a NaN is not equal to itself.
            assert_eq!(format!("{:?}", reply().decode()), format!("{as_fs:?}"));
            let refusal = as_fs.err();
            match reply().checked() {
                Ok(raw) => assert!(refusal.is_none() && raw.bytes == record),
                Err(e) => assert_eq!(Some(e), refusal),
            }
            let Ok(decoded) = decoded else {
                refused += 1;
                continue;
            };
            assert_eq!(
                encode_stored_key(&d, &record),
                Ok(encode_record_key(&d, &decoded.0))
            );
            let raw = RawRecord {
                desc: &d,
                bytes: &record,
            };
            for f in 0..d.num_fields() as u16 {
                let (mut in_place, mut from_value) = (Vec::new(), Vec::new());
                raw.eq_key(f, &mut in_place);
                decoded.eq_key(f, &mut from_value);
                assert_eq!(in_place, from_value, "{d:?} field {f}");
            }
        }
    }
    assert!(refused > 100, "{refused} damaged records refused");
}

/// Random expressions over the whole `Expr` grammar, against one row of one
/// schema: comparisons of a field with a literal of its own type (the row's
/// own value often enough for equality to be met), of any other type, NULL
/// or a boolean, on either side; arithmetic that overflows and divides by
/// zero; `LIKE`, `IN` with a NULL member, `BETWEEN`, `IS NULL`; non-boolean
/// operands under the connectives.
struct ExprGen<'a> {
    rng: &'a mut SimRng,
    d: &'a RecordDescriptor,
    row: &'a [Value],
}

impl ExprGen<'_> {
    fn field(&mut self) -> u16 {
        self.rng.below(self.d.num_fields() as u64) as u16
    }

    /// Zero to divide by, ends of the range to overflow from, and doubles
    /// that do not order.
    const EDGES: [Value; 8] = [
        Value::Int(0),
        Value::SmallInt(-1),
        Value::LargeInt(i64::MAX),
        Value::LargeInt(i64::MIN),
        Value::Double(0.0),
        Value::Double(f64::NAN),
        Value::Double(f64::INFINITY),
        Value::Double(-1.5),
    ];

    fn literal_for(&mut self, f: u16) -> Value {
        let own = &self.row[f as usize];
        match self.rng.below(10) {
            0 => Value::Null,
            1 => Value::Bool(self.rng.chance(0.5)),
            2 | 3 if !own.is_null() => own.clone(),
            4 => {
                let any = self.field();
                draw_value_for(self.rng, self.d.fields[any as usize].ty)
            }
            5 => Self::EDGES[self.rng.below(8) as usize].clone(),
            _ => draw_value_for(self.rng, self.d.fields[f as usize].ty),
        }
    }

    fn lit(&mut self, f: u16) -> Box<Expr> {
        Box::new(Expr::Lit(self.literal_for(f)))
    }

    /// A value: a field, a literal or arithmetic over them.
    fn operand(&mut self, depth: u32) -> Expr {
        match self.rng.below(if depth == 0 { 2 } else { 3 }) {
            0 => Expr::Field(self.field()),
            1 => {
                let f = self.field();
                Expr::Lit(self.literal_for(f))
            }
            _ => {
                let ops = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div];
                let op = ops[self.rng.below(4) as usize];
                let a = self.operand(depth - 1);
                let b = match self.rng.below(2) {
                    0 => Expr::Lit(Self::EDGES[self.rng.below(4) as usize].clone()),
                    _ => self.operand(depth - 1),
                };
                Expr::Arith(Box::new(a), op, Box::new(b))
            }
        }
    }

    fn cmp_op(&mut self) -> CmpOp {
        use CmpOp::*;
        [Eq, Ne, Lt, Le, Gt, Ge][self.rng.below(6) as usize]
    }

    /// A truth value, mostly.
    fn predicate(&mut self, depth: u32) -> Expr {
        let f = self.field();
        let field = Box::new(Expr::Field(f));
        match self.rng.below(if depth == 0 { 7 } else { 12 }) {
            0 => Expr::Cmp(field, self.cmp_op(), self.lit(f)),
            1 => Expr::Cmp(self.lit(f), self.cmp_op(), field),
            2 => Expr::IsNull {
                expr: if self.rng.chance(0.8) {
                    field
                } else {
                    Box::new(self.operand(depth))
                },
                negated: self.rng.chance(0.5),
            },
            3 => Expr::Between {
                expr: field,
                lo: self.lit(f),
                hi: if self.rng.chance(0.9) {
                    self.lit(f)
                } else {
                    Box::new(self.operand(depth))
                },
            },
            4 => {
                let mut list: Vec<Expr> = (0..self.rng.below(4))
                    .map(|_| Expr::Lit(self.literal_for(f)))
                    .collect();
                if self.rng.chance(0.1) {
                    list.push(self.operand(depth));
                }
                Expr::InList(field, list)
            }
            5 => {
                let patterns = ["%", "_%", "a%", "%a%", "", "%  "];
                let pattern = patterns[self.rng.below(6) as usize].to_string();
                Expr::Like(field, pattern)
            }
            6 => {
                let (a, b) = (self.operand(depth), self.operand(depth));
                Expr::Cmp(Box::new(a), self.cmp_op(), Box::new(b))
            }
            7 | 8 => Expr::and(self.predicate(depth - 1), self.predicate(depth - 1)),
            9 => Expr::or(self.predicate(depth - 1), self.predicate(depth - 1)),
            10 => Expr::Not(Box::new(self.predicate(depth - 1))),
            _ => self.operand(depth),
        }
    }
}

/// A record's fields as `extract_field` reads them one by one; one that does
/// not decode reads as NULL and is remembered.
struct FieldByField {
    fields: Vec<Result<Value, CodecError>>,
    read_an_undecodable: Cell<bool>,
}

impl RowAccessor for FieldByField {
    fn field(&self, i: u16) -> Value {
        self.fields[i as usize].clone().unwrap_or_else(|_| {
            self.read_an_undecodable.set(true);
            Value::Null
        })
    }
}

/// Integer ranges and boundary literals on one integer field of `d`, each
/// with whether it must compile to one fused range: `BETWEEN` as the planner
/// ships it, the same-slot `>= AND <=` conjunction (a literal on the left
/// too), literals past the ends of the integers and of the field's type,
/// and a NaN against an integer field. None when `d` has no integer field.
fn ranges_and_boundaries(
    rng: &mut SimRng,
    d: &RecordDescriptor,
    row: &[Value],
) -> Vec<(Expr, bool)> {
    let ints: Vec<u16> = (0..d.num_fields() as u16)
        .filter(|&f| {
            let ty = d.fields[f as usize].ty;
            matches!(
                ty,
                FieldType::SmallInt | FieldType::Int | FieldType::LargeInt
            )
        })
        .collect();
    if ints.is_empty() {
        return Vec::new();
    }
    let f = ints[rng.below(ints.len() as u64) as usize];
    let ty = d.fields[f as usize].ty;
    // Past the field's type: what no value of it reaches.
    let beyond = match ty {
        FieldType::SmallInt => 40_000,
        FieldType::Int => 1 << 40,
        _ => i64::MAX,
    };
    let bound = |rng: &mut SimRng| match (rng.below(6), row[f as usize].as_i64()) {
        (0 | 1, Some(own)) => Value::LargeInt(own.saturating_add(rng.between(-2, 2))),
        (2, _) => Value::LargeInt(if rng.chance(0.5) { i64::MAX } else { i64::MIN }),
        (3, _) => Value::LargeInt(if rng.chance(0.5) { beyond } else { -beyond }),
        _ => draw_value_for(rng, ty),
    };
    let (lo, hi) = (bound(rng), bound(rng));
    let field = || Box::new(Expr::Field(f));
    let lit = |v: &Value| Box::new(Expr::Lit(v.clone()));
    let op = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ][rng.below(6) as usize];
    vec![
        (
            Expr::Between {
                expr: field(),
                lo: lit(&lo),
                hi: lit(&hi),
            },
            true,
        ),
        (
            Expr::and(
                Expr::Cmp(field(), CmpOp::Ge, lit(&lo)),
                Expr::Cmp(field(), CmpOp::Le, lit(&hi)),
            ),
            true,
        ),
        (
            Expr::and(
                Expr::Cmp(lit(&lo), CmpOp::Lt, field()),
                Expr::and(
                    Expr::Cmp(field(), CmpOp::Lt, lit(&hi)),
                    Expr::Cmp(field(), CmpOp::Ne, lit(&lo)),
                ),
            ),
            false,
        ),
        (
            Expr::field_cmp(f, CmpOp::Gt, Value::LargeInt(i64::MAX)),
            true,
        ),
        (
            Expr::field_cmp(f, CmpOp::Lt, Value::LargeInt(i64::MIN)),
            true,
        ),
        (Expr::field_cmp(f, op, Value::LargeInt(beyond)), true),
        (Expr::field_cmp(f, op, Value::LargeInt(-beyond)), true),
        (Expr::field_cmp(f, op, Value::Double(f64::NAN)), false),
    ]
}

/// The compiled predicate is `Expr::eval` over the decoded row: the same
/// value — TRUE, FALSE, unknown, or whatever a non-boolean expression comes
/// to — and the same error, for every expression and every record. The one
/// difference is on purpose: a record too short for its fixed part, or a
/// field the evaluation reads that does not decode, is a corrupt record
/// instead of a NULL.
///
/// Each kernel is held to a floor of evaluations, so that a shape that
/// quietly falls back to the interpreter fails; integer ranges, both as
/// `BETWEEN` and as a conjunction on one field, must fuse into one kernel.
#[test]
fn compiled_and_interpreted_predicates_agree() {
    let mut rng = SimRng::seed_from(0x207);
    let mut ranges = SimRng::seed_from(0x208);
    let (mut values, mut type_errors, mut arithmetic_errors) = (0, 0, 0);
    let (mut corrupt, mut compiled_trees) = (0, 0);
    let mut truths = [0; 3];
    let mut by_kernel: HashMap<Kernel, u32> = HashMap::new();
    for case in 0..4_000 {
        let d = draw_desc(&mut rng);
        let row: Vec<Value> = (d.fields.iter().enumerate())
            .map(|(i, f)| match rng.below(4) {
                0 if i > 0 => Value::Null,
                _ => draw_value_for(&mut rng, f.ty),
            })
            .collect();
        let intact = encode_row(&d, &row).unwrap();
        let depth = rng.below(5) as u32;
        let expr = ExprGen {
            rng: &mut rng,
            d: &d,
            row: &row,
        }
        .predicate(depth);
        let predicate = Predicate::new(&d, expr.clone());
        if predicate.kernels() != [Kernel::Interpreted] {
            compiled_trees += 1;
        }

        // The record as stored, damaged as a projection's is, and with one
        // bit flipped.
        let mut flipped = intact.clone();
        flipped[rng.below(intact.len() as u64) as usize] ^= 1 << rng.below(8);
        let damaged = damage(&mut rng, &d, &intact);
        let extra = ranges_and_boundaries(&mut ranges, &d, &row);
        let exprs = std::iter::once((expr, false)).chain(extra);
        for (expr, fuses) in exprs {
            let predicate = Predicate::new(&d, expr.clone());
            assert_eq!(predicate.eval_cost(), expr.eval_cost());
            let kernels = predicate.kernels();
            if fuses {
                assert_eq!(kernels, [Kernel::IntRange], "case {case}: {expr}");
            }
            for record in [&intact, &damaged, &flipped] {
                let fields = FieldByField {
                    fields: (0..d.num_fields() as u16)
                        .map(|f| extract_field(&d, record, f))
                        .collect(),
                    read_an_undecodable: Cell::new(false),
                };
                let interpreted = expr.eval(&fields);
                let expected = if record.len() < d.bitmap_len() + d.fixed_size()
                    || fields.read_an_undecodable.get()
                {
                    Err(PredicateError::Record(CodecError::Corrupt))
                } else {
                    interpreted.map_err(PredicateError::Eval)
                };
                let got = predicate.eval(&d, record);
                // By their rendering: a NaN is the NaN it is.
                assert_eq!(
                    format!("{got:?}"),
                    format!("{expected:?}"),
                    "case {case}: {expr} over {row:?} as {record:?}"
                );
                assert_eq!(
                    predicate.passes(&d, record).ok(),
                    got.as_ref().ok().map(|v| *v == Value::Bool(true))
                );
                for (i, kernel) in kernels.iter().enumerate() {
                    if !kernels[..i].contains(kernel) {
                        *by_kernel.entry(*kernel).or_default() += 1;
                    }
                }
                match got {
                    Ok(Value::Bool(false)) => truths[0] += 1,
                    Ok(Value::Bool(true)) => truths[1] += 1,
                    Ok(Value::Null) => truths[2] += 1,
                    Ok(_) => values += 1,
                    Err(PredicateError::Eval(EvalError::Type(_))) => type_errors += 1,
                    Err(PredicateError::Eval(_)) => arithmetic_errors += 1,
                    Err(PredicateError::Record(_)) => corrupt += 1,
                }
            }
            // Field by field, the intact record is the decoded row.
            let decoded = expr.eval(&Row(row.clone())).map_err(PredicateError::Eval);
            let got = predicate.eval(&d, &intact);
            assert_eq!(format!("{got:?}"), format!("{decoded:?}"), "case {case}");
        }
    }
    assert!(
        truths.iter().all(|&n| n > 1_000) && values > 100 && corrupt > 500,
        "FALSE/TRUE/unknown {truths:?}, other values {values}, corrupt {corrupt}"
    );
    assert!(
        type_errors > 300 && arithmetic_errors > 50,
        "{type_errors} type errors, {arithmetic_errors} of arithmetic"
    );
    assert!(compiled_trees > 1_500, "{compiled_trees} of 4,000 compiled");
    // Evaluations of a predicate holding each kernel: 79,659 / 12,057 /
    // 573 / 1,218 / 1,287 / 7,707 when the floors were set.
    let floors = [
        (Kernel::IntRange, 60_000),
        (Kernel::Double, 9_000),
        (Kernel::Char, 400),
        (Kernel::In, 900),
        (Kernel::IsNull, 950),
        (Kernel::Interpreted, 5_500),
    ];
    for (kernel, floor) in floors {
        let n = by_kernel.get(&kernel).copied().unwrap_or(0);
        assert!(n >= floor, "{kernel:?}: {n} evaluations, floor {floor}");
    }
}

/// What the decoding path makes of a `SET` list and a CHECK over `record`:
/// `decode_row`, `SetList::apply`, `coerce` in list order, the CHECK over
/// the new row, `encode_row`; the new record and the targets' old and new
/// values.
fn decoding_path(
    d: &RecordDescriptor,
    record: &[u8],
    sets: &SetList,
    check: Option<&Expr>,
) -> Result<(Vec<u8>, FieldChanges, FieldChanges), PatchError> {
    let old = decode_row(d, record).map_err(PatchError::Record)?;
    let assigned = sets.apply(&old).map_err(PatchError::Eval)?;
    let mut after = Vec::new();
    for (f, v) in assigned {
        let fits = d.fields[f as usize].ty.coerce(v);
        after.push((f, fits.ok_or(PatchError::DoesNotFit(f))?));
    }
    let mut new = old.0.clone();
    for (f, v) in &after {
        new[*f as usize] = v.clone();
    }
    if let Some(c) = check {
        if !c.passes(&Row(new.clone())).map_err(PatchError::Eval)? {
            return Err(PatchError::Check);
        }
    }
    let image = encode_row(d, &new).map_err(PatchError::Record)?;
    let before = after.iter().map(|(f, _)| (*f, old.0[*f as usize].clone()));
    Ok((image, before.collect(), after))
}

/// `patch_row` is the decoding path for a list of field changes: decode,
/// change (the last of a field's winning), encode.
fn patched_by_decoding(
    d: &RecordDescriptor,
    record: &[u8],
    changes: &[(u16, Value)],
) -> Result<Vec<u8>, CodecError> {
    let mut row = decode_row(d, record)?.0;
    for (f, v) in changes {
        row[*f as usize] = v.clone();
    }
    encode_row(d, &row)
}

/// A compiled `SET` list changes a record on its bytes as the decoding path
/// does: over random schemas (all six types, NULLs, empty and full
/// `VARCHAR` tails), intact and damaged records, random `SET` lists over
/// the whole expression grammar and random CHECKs, `Patch::apply` gives the
/// same new record, the same old and new field images and the same error.
/// Backing the change out with `patch_row` and the old images gives the
/// record the old row encodes to, redoing it with the new images gives the
/// new record again, and `patch_row` agrees with decoding for any list of
/// changes, repeats and NULLs included.
#[test]
fn patches_agree_with_the_decoding_path() {
    let mut rng = SimRng::seed_from(0x31);
    let mut outcomes: std::collections::BTreeMap<String, u32> = Default::default();
    for case in 0..3_000 {
        let d = draw_desc(&mut rng);
        let n = d.num_fields() as u64;
        let row: Vec<Value> = (d.fields.iter().enumerate())
            .map(|(i, f)| match (f.ty, rng.below(4)) {
                (_, 0) if i > 0 => Value::Null,
                (FieldType::Varchar(_), 1) => Value::Str(String::new()),
                (FieldType::Varchar(w), 2) => Value::Str("x".repeat(w as usize)),
                (ty, _) => draw_value_for(&mut rng, ty),
            })
            .collect();
        let intact = encode_row(&d, &row).unwrap();
        let mut targets: Vec<u16> = (0..n as u16).collect();
        let mut sets = Vec::new();
        for _ in 0..1 + rng.below(n.min(3)) {
            let f = targets.swap_remove(rng.below(targets.len() as u64) as usize);
            let ty = d.fields[f as usize].ty;
            let e = match rng.below(5) {
                0 => Expr::Lit(Value::Null),
                1 => Expr::Field(f),
                2 => Expr::Lit(draw_value_for(&mut rng, ty)),
                _ => {
                    let depth = rng.below(3) as u32;
                    let mut gen = ExprGen {
                        rng: &mut rng,
                        d: &d,
                        row: &row,
                    };
                    gen.operand(depth)
                }
            };
            sets.push((f, e));
        }
        let sets = SetList { sets };
        let check = rng.chance(0.5).then(|| {
            let depth = rng.below(3) as u32;
            let mut gen = ExprGen {
                rng: &mut rng,
                d: &d,
                row: &row,
            };
            gen.predicate(depth)
        });
        let patch = Patch::new(&d, sets.clone(), check.clone()).unwrap();

        let damaged = damage(&mut rng, &d, &intact);
        for record in [&intact, &damaged] {
            let mut image = vec![0xEE; 5];
            let got = patch
                .apply(&d, record, |_| {}, &mut image)
                .map(|(before, after)| (image, before, after));
            let expected = decoding_path(&d, record, &sets, check.as_ref());
            // By their rendering: a NaN is the NaN it is.
            assert_eq!(
                format!("{got:?}"),
                format!("{expected:?}"),
                "case {case}: {sets:?} CHECK {check:?} over {record:?} of {d:?}"
            );
            let outcome = match &got {
                Ok(_) => "changed".to_string(),
                Err(e) => format!("{e:?}").split('(').next().unwrap_or("").to_string(),
            };
            *outcomes.entry(outcome).or_default() += 1;
            let Ok((image, before, after)) = got else {
                continue;
            };
            let patched = |record: &[u8], changes: &[(u16, Value)]| {
                let mut out = Vec::new();
                patch_row(&d, record, changes, &mut out).map(|()| out)
            };
            let old = patched_by_decoding(&d, record, &[]);
            assert_eq!(patched(&image, &before), old, "case {case}: backout");
            if let Ok(old) = old {
                assert_eq!(patched(&old, &after), Ok(image), "case {case}: redo");
            }
        }

        // Any changes, to any field, repeats and NULLs included.
        let changes: Vec<(u16, Value)> = (0..rng.below(2 * n))
            .map(|_| {
                let f = rng.below(n) as u16;
                let ty = d.fields[rng.below(n) as usize].ty;
                let v = match rng.below(3) {
                    0 => Value::Null,
                    1 => draw_value_for(&mut rng, d.fields[f as usize].ty),
                    _ => draw_value_for(&mut rng, ty),
                };
                (f, v)
            })
            .collect();
        for record in [&intact, &damaged] {
            let mut out = vec![0xEE; 2];
            let got = patch_row(&d, record, &changes, &mut out).map(|()| out);
            let expected = patched_by_decoding(&d, record, &changes);
            assert_eq!(got, expected, "case {case}: {changes:?} over {record:?}");
        }
    }
    let seen = |what: &str| outcomes.get(what).copied().unwrap_or(0);
    assert!(seen("changed") > 1_000, "{outcomes:?}");
    for error in ["Record", "Eval", "DoesNotFit", "Check"] {
        assert!(seen(error) > 100, "{outcomes:?}");
    }
}

/// A predicate decided by the Disk Process (pushed down under VSBB, compiled
/// or interpreted there) and the same predicate decided by the executor
/// (`FOR BROWSE RECORD ACCESS` fetches record by record and filters the
/// decoded rows) select the same rows, for every field type.
#[test]
fn pushed_down_and_executor_evaluated_predicates_select_the_same_rows() {
    use nonstop_sql::ClusterBuilder;

    let mut rng = SimRng::seed_from(0x208);
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE T (K INT NOT NULL, S SMALLINT, I INT, L LARGEINT, D DOUBLE PRECISION, \
         C CHAR(6), V VARCHAR(10), PRIMARY KEY (K))",
    )
    .unwrap();
    let texts = ["", "a", "ab", "ab  c", "b", "zz", "M"];
    s.execute("BEGIN WORK").unwrap();
    for k in 0..120 {
        let values = [
            rng.between(-3, 3).to_string(),
            rng.between(-100, 100).to_string(),
            (rng.between(-2, 2) * 5_000_000_000).to_string(),
            format!("{:.2}", rng.between(-20, 20) as f64 / 4.0),
            format!("'{}'", texts[rng.below(7) as usize]),
            format!("'{}'", texts[rng.below(7) as usize]),
        ];
        // One column in five is NULL.
        let values = values.map(|v| match rng.below(5) {
            0 => "NULL".to_string(),
            _ => v,
        });
        let values = values.join(", ");
        s.execute(&format!("INSERT INTO T VALUES ({k}, {values})"))
            .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();

    let predicates = [
        // SMALLINT, INT, LARGEINT: exact against any integer, promoted
        // against a double.
        "S > 0",
        "S <= 1.5",
        "I BETWEEN -50 AND 50",
        "NOT I = 7 AND I <> 8",
        "L IN (5000000000, -10000000000, NULL)",
        "L >= 5000000000",
        "100 > I",
        // DOUBLE.
        "D >= 0.5",
        "D < 2",
        "D BETWEEN -1 AND 1.25",
        // CHAR: PAD SPACE.
        "C = 'ab'",
        "C < 'b'",
        "C IN ('a', 'zz  ')",
        "C IS NOT NULL",
        // VARCHAR and what else the Disk Process interprets.
        "V = 'ab'",
        "V IS NULL",
        "V LIKE 'a%'",
        "S + 1 > I",
        "I = S",
        // Both kinds of leaf under the connectives.
        "S > 0 AND V = 'ab' OR D < 0 AND NOT (C >= 'b' OR L IS NULL)",
    ];
    let mut selected = 0;
    for p in predicates {
        let pushed = s.query(&format!("SELECT K, V FROM T WHERE {p}")).unwrap();
        let browsed = s
            .query(&format!(
                "SELECT K, V FROM T WHERE {p} FOR BROWSE RECORD ACCESS"
            ))
            .unwrap();
        assert_eq!(pushed.rows, browsed.rows, "WHERE {p}");
        assert!(pushed.rows.len() < 120, "WHERE {p} selects every row");
        selected += pushed.rows.len();
    }
    assert!(selected > 500, "{selected} rows selected in all");
}

/// The one aggregation answers alike whether the Disk Processes fold the
/// records they select and the executor merges their partial groups, or
/// the executor folds the decoded rows `FOR BROWSE RECORD ACCESS` reads
/// record by record: random two-partition tables over all six field types
/// (NULLs, padded `CHAR`s, `VARCHAR`s with trailing spaces, `-0.0`,
/// `LARGEINT`s whose `SUM` overflows) and random `COUNT` / `SUM` / `AVG` /
/// `MIN` / `MAX` queries with zero to two grouping columns, with and without
/// a pushed-down predicate and an `ORDER BY` on the output, give the same
/// rows or the same error. Those the plan folds at the source (`DOUBLE`
/// sums and text `SUM`s are folded by the executor) are counted through
/// EXPLAIN, and give the same answer again on a second cluster whose Disk
/// Processes end every request after one to three records, or when its
/// partial groups fill a small reply.
///
/// Every access path feeds the one row source: each such query, bounded on
/// `I` and often filtered on another column too, and random plain row
/// queries (`ORDER BY K`, some computing an overflowing expression) give
/// the same rows or the same error by subset scan, by browse and through a
/// secondary index on `I` — index-only, or fetching base rows under a
/// residual. Those tables hold the first table's rows but for `I`, which
/// an index requires NOT NULL: its values are drawn anew and dealt out in
/// ascending order along `K`, so that every path meets the rows in one
/// order and answers that depend on it (a group's first-seen value, a
/// floating-point sum, an overflow) agree too.
#[test]
fn folded_and_decoded_aggregation_agree() {
    use nonstop_sql::{ClusterBuilder, DiskProcessConfig, Session};

    let domains: [&[&str]; 6] = [
        &["-2", "0", "1", "2"],
        &["-3000", "0", "1000", "3000"],
        &[
            "0",
            "7",
            "-7",
            "5000000000",
            "-5000000000",
            "9223372036854775807",
        ],
        &["0.0", "-0.0", "1.5", "-2.25", "1e300"],
        &["''", "'a'", "'a  '", "'ab'", "'  x'"],
        &["''", "'a'", "'a '", "'ab'", "'b'"],
    ];
    let columns = ["S", "I", "L", "D", "C", "V"];
    let funcs = ["COUNT", "SUM", "AVG", "MIN", "MAX"];
    let predicates = [
        "I > 0",
        "K BETWEEN 10 AND 60",
        "C = 'a'",
        "D >= 0",
        "L IS NOT NULL",
        "S <> 1 OR V = 'a'",
    ];
    // Each bounds the index on I.
    let on_i = [
        "I > 0",
        "I >= -3000",
        "I BETWEEN 0 AND 1000",
        "I = 1000",
        "I < 3000",
    ];
    let outputs = ["K", "S", "I", "L", "D", "C", "V", "I + 1", "L * 2", "D / S"];
    let ddl = |i: &str| {
        format!(
            "(K INT NOT NULL, S SMALLINT, I INT{i}, L LARGEINT, D DOUBLE PRECISION, \
             C CHAR(6), V VARCHAR(8), PRIMARY KEY (K)) \
             PARTITION BY VALUES (40) ON ('$DATA1', '$DATA2')"
        )
    };
    let run = |s: &mut Session, sql: &str| s.query(sql).map(|r| r.rows).map_err(|e| e.to_string());
    // `sql` over U by subset scan and by browse, and over X through its
    // index, with the plan X ran by; the one answer.
    let three_ways = |s: &mut Session, sql: &str, plans: &mut [u32; 2]| {
        let scanned = run(s, sql);
        let browsed = run(s, &format!("{sql} FOR BROWSE RECORD ACCESS"));
        assert_eq!(scanned, browsed, "{sql} FOR BROWSE RECORD ACCESS");
        let indexed = sql.replace(" FROM U", " FROM X");
        // A bounded `K` still makes a scan of it.
        let plan = format!("{:?}", s.query(&format!("EXPLAIN {indexed}")).unwrap());
        if plan.contains("index-only") {
            plans[0] += 1;
        } else if plan.contains("residual filter at executor") {
            plans[1] += 1;
        }
        assert_eq!(scanned, run(s, &indexed), "{indexed}");
        scanned
    };
    let mut rng = SimRng::seed_from(0x29);
    // The index's queries, drawn apart so the first table's are as before.
    let mut rng2 = SimRng::seed_from(0x36);
    let (mut answered, mut failed) = (0, 0);
    let (mut agreed, mut refused, mut plans) = (0, 0, [0; 2]);
    let mut pushed = 0;
    for round in 0..4 {
        let db = ClusterBuilder::new()
            .volume("$DATA1", 0, 1)
            .volume("$DATA2", 0, 2)
            .build();
        let mut s = db.session();
        for (table, i) in [("T", ""), ("U", " NOT NULL"), ("X", " NOT NULL")] {
            s.execute(&format!("CREATE TABLE {table} {}", ddl(i)))
                .unwrap();
        }
        s.execute("CREATE INDEX XI ON X (I)").unwrap();
        let small = ClusterBuilder::new()
            .dp_config(DiskProcessConfig {
                max_records_per_request: 1 + round % 3,
                reply_buffer: 24,
                ..DiskProcessConfig::default()
            })
            .volume("$DATA1", 0, 1)
            .volume("$DATA2", 0, 2)
            .build();
        let mut s2 = small.session();
        s2.execute(&format!("CREATE TABLE T {}", ddl(""))).unwrap();
        s.execute("BEGIN WORK").unwrap();
        let mut rows = Vec::new();
        for k in 0..80 {
            let values = domains.map(|domain| match rng.below(5) {
                0 => "NULL",
                // The largest LARGEINT in one row of twenty.
                _ if domain.len() == 6 && rng.below(4) > 0 => domain[rng.below(5) as usize],
                _ => domain[rng.below(domain.len() as u64) as usize],
            });
            let insert = format!("INSERT INTO T VALUES ({k}, {})", values.join(", "));
            s.execute(&insert).unwrap();
            s2.execute(&insert).unwrap();
            rows.push(values);
        }
        let mut is: Vec<&str> = (0..80)
            .map(|_| domains[1][rng2.below(4) as usize])
            .collect();
        is.sort_by_key(|i| i.parse::<i32>().unwrap());
        for (k, (mut values, i)) in rows.into_iter().zip(is).enumerate() {
            values[1] = i;
            for table in ["U", "X"] {
                let values = values.join(", ");
                s.execute(&format!("INSERT INTO {table} VALUES ({k}, {values})"))
                    .unwrap();
            }
        }
        s.execute("COMMIT WORK").unwrap();

        for _ in 0..40 {
            let mut groups: Vec<&str> = Vec::new();
            for _ in 0..rng.below(3) {
                let c = columns[rng.below(6) as usize];
                if !groups.contains(&c) {
                    groups.push(c);
                }
            }
            let mut items: Vec<String> = groups.iter().map(|g| g.to_string()).collect();
            let mut names = groups.clone();
            let aggs = ["A0", "A1", "A2"];
            for name in &aggs[..1 + rng.below(3) as usize] {
                let func = funcs[rng.below(5) as usize];
                let arg = match rng.below(7) {
                    6 => "*",
                    c => columns[c as usize],
                };
                let arg = if arg == "*" && func != "COUNT" {
                    "I"
                } else {
                    arg
                };
                items.push(format!("{func}({arg}) AS {name}"));
                names.push(name);
            }
            let predicate = rng.chance(0.5).then(|| predicates[rng.below(6) as usize]);
            let mut tail = String::new();
            if !groups.is_empty() {
                tail += &format!(" GROUP BY {}", groups.join(", "));
            }
            if rng.chance(0.5) {
                let name = names[rng.below(names.len() as u64) as usize];
                let desc = if rng.chance(0.5) { " DESC" } else { "" };
                tail += &format!(" ORDER BY {name}{desc}");
            }
            let items = items.join(", ");
            let filter = predicate.map_or(String::new(), |p| format!(" WHERE {p}"));
            let sql = format!("SELECT {items} FROM T{filter}{tail}");
            let folded = run(&mut s, &sql);
            let decoded = run(&mut s, &format!("{sql} FOR BROWSE RECORD ACCESS"));
            assert_eq!(folded, decoded, "{sql}");
            let plan = format!("{:?}", s.query(&format!("EXPLAIN {sql}")).unwrap());
            if plan.contains("SCAN T with AGGREGATE at DP") {
                pushed += 1;
                assert_eq!(folded, run(&mut s2, &sql), "{sql} in small requests");
            }
            match folded {
                Ok(_) => answered += 1,
                Err(_) => failed += 1,
            }

            let mut filter = format!(" WHERE {}", on_i[rng2.below(5) as usize]);
            if let Some(p) = predicate.filter(|_| rng2.chance(0.5)) {
                filter += &format!(" AND ({p})");
            }
            let sql = format!("SELECT {items} FROM U{filter}{tail}");
            match three_ways(&mut s, &sql, &mut plans) {
                Ok(_) => agreed += 1,
                Err(_) => refused += 1,
            }
        }

        // Plain rows, in key order: an output list of stored columns and
        // expressions, or only what the index row carries.
        for _ in 0..30 {
            let carried = rng2.chance(0.3);
            let mut items: Vec<&str> = Vec::new();
            for _ in 0..1 + rng2.below(4) {
                let item = match carried {
                    true => outputs[2 * rng2.below(2) as usize],
                    false => outputs[rng2.below(outputs.len() as u64) as usize],
                };
                if !items.contains(&item) {
                    items.push(item);
                }
            }
            let mut filter = format!(" WHERE {}", on_i[rng2.below(5) as usize]);
            if !carried && rng2.chance(0.6) {
                filter += &format!(" AND ({})", predicates[rng2.below(6) as usize]);
            }
            let sql = format!("SELECT {} FROM U{filter} ORDER BY K", items.join(", "));
            match three_ways(&mut s, &sql, &mut plans) {
                Ok(_) => agreed += 1,
                Err(_) => refused += 1,
            }
        }
    }
    assert!(answered > 100, "{answered} queries answered");
    assert!(failed > 5, "{failed} queries failed");
    assert!(pushed > 100, "{pushed} queries folded at the source");
    assert!(
        agreed > 150 && refused > 40,
        "{agreed} agreed, {refused} refused"
    );
    let [index_only, base_fetch] = plans;
    assert!(
        index_only > 30 && base_fetch > 150,
        "{index_only} index-only, {base_fetch} base fetches"
    );
}

/// End-to-end: a batch of random rows inserted through SQL is exactly what
/// range queries return (checked against a model).
#[test]
fn sql_matches_model_on_random_data() {
    use nonstop_sql::ClusterBuilder;
    use std::collections::BTreeMap;

    for case in 0..12u64 {
        let mut rng = SimRng::seed_from(0x300 + case);
        let n = 1 + rng.below(119) as usize;
        let mut model: BTreeMap<i32, i32> = BTreeMap::new();
        while model.len() < n {
            model.insert(
                rng.between(-500, 499) as i32,
                rng.between(-1000, 999) as i32,
            );
        }

        let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
        let mut s = db.session();
        s.execute("CREATE TABLE M (K INT NOT NULL, V INT NOT NULL, PRIMARY KEY (K))")
            .unwrap();
        s.execute("BEGIN WORK").unwrap();
        for (k, v) in &model {
            s.execute(&format!("INSERT INTO M VALUES ({k}, {v})"))
                .unwrap();
        }
        s.execute("COMMIT WORK").unwrap();

        // Full scan matches.
        let r = s.query("SELECT K, V FROM M").unwrap();
        let got: Vec<(i32, i32)> = r
            .rows
            .iter()
            .map(|row| match (&row.0[0], &row.0[1]) {
                (Value::Int(k), Value::Int(v)) => (*k, *v),
                _ => panic!(),
            })
            .collect();
        let want: Vec<(i32, i32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);

        // A range + predicate matches the model's filter.
        let r = s
            .query("SELECT K FROM M WHERE K BETWEEN -100 AND 100 AND V > 0")
            .unwrap();
        let got: Vec<i32> = r
            .rows
            .iter()
            .map(|row| match row.0[0] {
                Value::Int(k) => k,
                _ => panic!(),
            })
            .collect();
        let want: Vec<i32> = model
            .iter()
            .filter(|(k, v)| (-100..=100).contains(*k) && **v > 0)
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(got, want);
    }
}

#[test]
fn lock_table_and_waits_for_drain_to_zero_after_random_interleavings() {
    use nsql_lock::{LockError, LockManager, LockMode, LockScope, TxnId};

    // Random populations of transactions acquire, queue, deadlock, time
    // out, and finish against a bare lock manager, following the same
    // protocol the Disk Process drives: Conflict -> wait(); Deadlock ->
    // the victim releases everything; WaitTimeout -> ditto. Whatever the
    // interleaving, a fully drained population leaves no held locks, no
    // queued waiters, and no waits-for edges.
    for seed in 0..12u64 {
        let lm = LockManager::new();
        if seed % 2 == 1 {
            // Odd seeds arm a short lock-wait timeout so the timeout
            // path is part of the shuffle too.
            lm.set_wait_timeout(40);
        }
        let mut rng = SimRng::seed_from(0xD00D ^ seed);
        let mut now_us: u64 = 0;
        let mut next_id: u64 = 1;
        let mut active: Vec<TxnId> = (0..6)
            .map(|_| {
                let t = TxnId(next_id);
                next_id += 1;
                t
            })
            .collect();
        let finish = |lm: &LockManager, t: TxnId| {
            lm.release_all(t);
            lm.stop_waiting(t);
        };

        for _ in 0..400 {
            now_us += rng.below(25) + 1;
            let i = rng.below(active.len() as u64) as usize;
            let t = active[i];
            if rng.below(10) == 0 {
                // Commit/abort: drop every trace of the transaction and
                // admit a fresh one so the population stays put.
                finish(&lm, t);
                active[i] = TxnId(next_id);
                next_id += 1;
                continue;
            }
            let file = rng.below(2) as u32;
            let key = vec![rng.below(6) as u8];
            let mode = if rng.below(3) == 0 {
                LockMode::Shared
            } else {
                LockMode::Exclusive
            };
            match lm.acquire(t, file, LockScope::record(key.clone()), mode) {
                Ok(()) => {}
                Err(LockError::Conflict { holder }) => {
                    match lm.wait(t, holder, file, LockScope::record(key), mode, now_us) {
                        Ok(()) => {}
                        Err(LockError::Deadlock { victim } | LockError::WaitTimeout { victim }) => {
                            // The doomed side rolls back; if that is not
                            // us, we simply keep waiting.
                            finish(&lm, victim);
                            if let Some(j) = active.iter().position(|&x| x == victim) {
                                active[j] = TxnId(next_id);
                                next_id += 1;
                            }
                        }
                        Err(LockError::Conflict { .. }) => unreachable!("wait never conflicts"),
                    }
                }
                Err(LockError::Deadlock { victim } | LockError::WaitTimeout { victim }) => {
                    finish(&lm, victim);
                    if let Some(j) = active.iter().position(|&x| x == victim) {
                        active[j] = TxnId(next_id);
                        next_id += 1;
                    }
                }
            }
            // Standing invariant: every wait edge belongs to a queued
            // waiter (granted/doomed entries are purged eagerly).
            assert!(
                lm.wait_edge_count() <= lm.waiting_count(),
                "seed {seed}: dangling waits-for edge"
            );
        }

        // Drain the survivors: the table must come back empty.
        for &t in &active {
            finish(&lm, t);
        }
        assert_eq!(lm.lock_count(), 0, "seed {seed}: leaked held locks");
        assert_eq!(lm.waiting_count(), 0, "seed {seed}: leaked queued waiters");
        assert_eq!(
            lm.wait_edge_count(),
            0,
            "seed {seed}: leaked waits-for edges"
        );
    }
}

// ----------------------------------------------------------------------
// Backout: abort and restart are one function
// ----------------------------------------------------------------------

mod backout {
    use nonstop_sql::{Cluster, ClusterBuilder, Session};
    use nsql_dp::{DpReply, DpRequest, FileId, FileKind};
    use nsql_fs::BlockedInserter;
    use nsql_records::Value;
    use nsql_sim::SimRng;

    const VOLUME: &str = "$DATA1";
    const ROWS: i32 = 120;
    const SLOTS: u64 = 24;

    /// `T (K, V, PAD)` with the even keys below `2 * ROWS`, and a relative
    /// file with every third slot filled: the committed state a script
    /// starts from.
    fn committed_state() -> (Cluster, FileId) {
        let db = ClusterBuilder::new().volume(VOLUME, 0, 1).build();
        let mut s = db.session();
        s.execute(
            "CREATE TABLE T (K INT NOT NULL, V INT NOT NULL, PAD CHAR(8) NOT NULL, \
             PRIMARY KEY (K))",
        )
        .unwrap();
        let created = DpRequest::CreateFile {
            kind: FileKind::Relative { slot_size: 16 },
        };
        let DpReply::FileCreated(rel) = s.fs().send(VOLUME, created).unwrap() else {
            panic!("relative file not created")
        };
        let txn = s.begin().unwrap();
        for k in 0..ROWS {
            s.execute(&format!("INSERT INTO T VALUES ({}, {k}, 'p{k}')", 2 * k))
                .unwrap();
        }
        for slot in (0..SLOTS).step_by(3) {
            let record = format!("slot {slot}").into_bytes();
            s.fs()
                .ens_relative_write(txn, VOLUME, rel, slot, record)
                .unwrap();
        }
        s.commit().unwrap();
        drop(s);
        (db, rel)
    }

    /// Everything both files hold, in key order.
    fn dump(db: &Cluster, rel: FileId) -> (Vec<Vec<Value>>, Vec<Option<Vec<u8>>>) {
        let mut s = db.session();
        let rows = s.query("SELECT * FROM T").unwrap().rows;
        let slots = (0..SLOTS + 8).map(|slot| s.fs().ens_relative_read(VOLUME, rel, slot).unwrap());
        (rows.into_iter().map(|r| r.0).collect(), slots.collect())
    }

    /// A random run of audited writes inside the session's open
    /// transaction: every kind of write request the Disk Process has, some
    /// of them refused (duplicate key, missing slot).
    fn run_script(s: &mut Session<'_>, rel: FileId, rng: &mut SimRng) {
        let txn = s.current_txn().expect("script runs inside a transaction");
        let table = s.open_table("T").unwrap();
        let key = |rng: &mut SimRng| rng.below(2 * ROWS as u64 + 40) as i32;
        for step in 0..40 {
            match rng.below(7) {
                0 => {
                    // INSERT: refused on the keys that exist.
                    let k = key(rng);
                    let _ = s.execute(&format!("INSERT INTO T VALUES ({k}, -1, 'new')"));
                }
                1 => {
                    let sql = format!("UPDATE T SET V = V + {step} WHERE K = {}", key(rng));
                    s.execute(&sql).unwrap();
                }
                2 => {
                    let lo = key(rng);
                    let sql = format!(
                        "UPDATE T SET V = V * 2, PAD = 's{step}' WHERE K BETWEEN {lo} AND {}",
                        lo + 30
                    );
                    s.execute(&sql).unwrap();
                }
                3 => {
                    let lo = key(rng);
                    let sql = format!("DELETE FROM T WHERE K BETWEEN {lo} AND {}", lo + 6);
                    s.execute(&sql).unwrap();
                }
                4 => {
                    // Blocked insert of odd keys: refused as a whole if the
                    // script put one of them there before.
                    let lo = key(rng) | 1;
                    let mut ins = BlockedInserter::new(s.fs(), &table, txn);
                    for k in (lo..lo + 10).step_by(2) {
                        let row = [Value::Int(k), Value::Int(step), Value::Str("blk".into())];
                        ins.push(&row).unwrap();
                    }
                    let _ = ins.flush();
                }
                5 => {
                    let slot = rng.below(SLOTS + 8);
                    let record = format!("step {step}").into_bytes();
                    s.fs()
                        .ens_relative_write(txn, VOLUME, rel, slot, record)
                        .unwrap();
                }
                _ => {
                    // Refused on an empty slot.
                    let slot = rng.below(SLOTS);
                    let _ = s.fs().ens_relative_delete(txn, VOLUME, rel, slot);
                }
            }
        }
    }

    /// The dump after `ROLLBACK WORK`, the dump after a restart with the
    /// transaction left in flight, and the dump taken before the
    /// transaction are the same dump.
    #[test]
    fn abort_and_restart_back_out_identically() {
        for seed in 0..12u64 {
            let (db, rel) = committed_state();
            let before = dump(&db, rel);

            let mut s = db.session();
            s.begin().unwrap();
            run_script(&mut s, rel, &mut SimRng::seed_from(0xBAC0 + seed));
            assert_ne!(
                dump(&db, rel),
                before,
                "seed {seed}: the script changed nothing"
            );
            s.rollback().unwrap();
            assert_eq!(dump(&db, rel), before, "seed {seed}: ROLLBACK WORK");
            drop(s);

            let (db, rel) = committed_state();
            let mut s = db.session();
            s.begin().unwrap();
            run_script(&mut s, rel, &mut SimRng::seed_from(0xBAC0 + seed));
            if seed % 2 == 0 {
                // The loser's pages reach the disk (write-ahead log first)...
                db.dp(VOLUME).pool().flush_all().unwrap();
            } else {
                // ... or only its audit does, carried by another commit.
                let other = format!("UPDATE T SET V = V WHERE K = {}", 2 * ROWS + 100);
                db.session().execute(&other).unwrap();
            }
            db.crash_and_restart(0, 1);
            assert_eq!(dump(&db, rel), before, "seed {seed}: restart");
            drop(s);
        }
    }
}

/// The set interface is one conversation whatever the verb: over random
/// tables, limits and statements it returns what a `BTreeMap` does, and on
/// the wire each touched partition sees one FIRST, then only NEXTs of the
/// same verb.
mod subset_conversation {
    use nonstop_sql::ClusterBuilder;
    use nsql_dp::{DpConfig, ReadLock, SubsetMode};
    use nsql_records::key::encode_record_key;
    use nsql_records::{ArithOp, CmpOp, Expr, KeyRange, OwnedBound, SetList, Value};
    use nsql_sim::{SimRng, TraceEventKind};
    use std::collections::btree_map::{BTreeMap, Entry};
    use std::ops::Bound;

    const KEYS: i32 = 300;
    const VOLUMES: [&str; 3] = ["$DATA1", "$DATA2", "$DATA3"];

    fn bound(rng: &mut SimRng, key: i32) -> Bound<i32> {
        match rng.below(3) {
            0 => Bound::Unbounded,
            1 => Bound::Included(key),
            _ => Bound::Excluded(key),
        }
    }

    #[test]
    fn select_update_delete_match_a_model_and_keep_to_one_conversation() {
        for case in 0..12u64 {
            let mut rng = SimRng::seed_from(0x5c6 + case);
            let partitions = 1 + rng.below(3) as usize;
            let config = DpConfig {
                max_records_per_request: 1 + rng.below(40) as u32,
                reply_buffer: 64 + rng.below(2_000) as usize,
                ..DpConfig::default()
            };
            let mut builder = ClusterBuilder::new().dp_config(config);
            for (cpu, volume) in VOLUMES[..partitions].iter().enumerate() {
                builder = builder.volume(volume, 0, 1 + cpu as u8);
            }
            let db = builder.build();
            let mut s = db.session();
            let layout = match partitions {
                1 => String::new(),
                2 => " PARTITION BY VALUES (150) ON ('$DATA1', '$DATA2')".to_string(),
                _ => {
                    " PARTITION BY VALUES (100, 200) ON ('$DATA1', '$DATA2', '$DATA3')".to_string()
                }
            };
            s.execute(&format!(
                "CREATE TABLE S (K INT NOT NULL, V INT NOT NULL, PAD CHAR(8) NOT NULL, \
                 PRIMARY KEY (K)){layout}"
            ))
            .unwrap();
            let mut model: BTreeMap<i32, i32> = BTreeMap::new();
            s.execute("BEGIN WORK").unwrap();
            for _ in 0..200 {
                let (k, v) = (rng.below(KEYS as u64) as i32, rng.between(-50, 50) as i32);
                if let Entry::Vacant(slot) = model.entry(k) {
                    slot.insert(v);
                    s.execute(&format!("INSERT INTO S VALUES ({k}, {v}, 'pad')"))
                        .unwrap();
                }
            }
            s.execute("COMMIT WORK").unwrap();

            let of = s.open_table("S").unwrap();
            let key = |k: i32| {
                let row = [Value::Int(k), Value::Null, Value::Null];
                encode_record_key(&of.desc, &row)
            };
            let owned = |b: Bound<i32>| match b {
                Bound::Unbounded => OwnedBound::Unbounded,
                Bound::Included(k) => OwnedBound::Included(key(k)),
                Bound::Excluded(k) => OwnedBound::Excluded(key(k)),
            };
            db.sim.trace.enable(100_000);
            for step in 0..8 {
                let lo = rng.below(KEYS as u64) as i32;
                let hi = lo + rng.below((KEYS - lo) as u64 + 1) as i32;
                let bounds = (bound(&mut rng, lo), bound(&mut rng, hi));
                let range = KeyRange {
                    begin: owned(bounds.0),
                    end: owned(bounds.1),
                };
                let floor = rng.between(-60, 40) as i32;
                let predicate =
                    (rng.below(4) > 0).then(|| Expr::field_cmp(1, CmpOp::Gt, Value::Int(floor)));
                let selected = |k: &i32, v: &i32| {
                    let in_range = range.contains(&key(*k));
                    in_range && (predicate.is_none() || *v > floor)
                };
                let cursor = db.sim.trace.cursor();
                let chains = db.sim.hist.redrive_chain.count();

                let verb = rng.below(3);
                let (first, next) = match verb {
                    0 => ("GET^FIRST^VSBB", "GET^NEXT"),
                    1 => ("UPDATE^SUBSET^FIRST", "UPDATE^SUBSET^NEXT"),
                    _ => ("DELETE^SUBSET^FIRST", "DELETE^SUBSET^NEXT"),
                };
                let context = format!("case {case} step {step} {first} {bounds:?} V > {floor}");
                let txn = s.begin().unwrap();
                let fs = s.fs();
                let predicate = predicate.as_ref();
                match verb {
                    0 => {
                        let (mode, lock) = (SubsetMode::Vsbb, ReadLock::Shared);
                        let fields: &[u16] = &[0, 1];
                        let got = fs
                            .scan(Some(txn), &of, &range, predicate, Some(fields), mode, lock)
                            .unwrap();
                        let got: Vec<Vec<Value>> = got.rows.into_iter().map(|r| r.0).collect();
                        let want = model.iter().filter(|(k, v)| selected(k, v));
                        let want: Vec<Vec<Value>> = want
                            .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
                            .collect();
                        assert_eq!(got, want, "{context}");
                    }
                    1 => {
                        let plus_seven = Expr::Arith(
                            Box::new(Expr::Field(1)),
                            ArithOp::Add,
                            Box::new(Expr::lit(Value::Int(7))),
                        );
                        let sets = SetList {
                            sets: vec![(1, plus_seven)],
                        };
                        let changed = fs
                            .update_set(txn, &of, &range, predicate, &sets, None)
                            .unwrap();
                        let hit: Vec<i32> = model
                            .iter()
                            .filter(|(k, v)| selected(k, v))
                            .map(|(k, _)| *k)
                            .collect();
                        assert_eq!(changed, hit.len() as u64, "{context}");
                        for k in hit {
                            *model.get_mut(&k).unwrap() += 7;
                        }
                    }
                    _ => {
                        let deleted = fs.delete_set(txn, &of, &range, predicate).unwrap();
                        let before = model.len();
                        model.retain(|k, v| !selected(k, v));
                        assert_eq!(deleted, (before - model.len()) as u64, "{context}");
                    }
                }
                s.commit().unwrap();

                // On the wire: per touched partition, in partition order,
                // one FIRST and then NEXTs of the same verb only.
                let sent = db
                    .sim
                    .trace
                    .since(cursor)
                    .into_iter()
                    .filter_map(|e| match e.kind {
                        TraceEventKind::Msg { label, to, .. }
                            if label.contains("SUBSET") || label.starts_with("GET^") =>
                        {
                            Some((to, label))
                        }
                        _ => None,
                    });
                let mut conversations: Vec<(String, Vec<String>)> = Vec::new();
                for (to, label) in sent {
                    match conversations.last_mut() {
                        Some((last, labels)) if *last == to => labels.push(label),
                        _ => conversations.push((to, vec![label])),
                    }
                }
                let volumes: Vec<&str> = conversations.iter().map(|(to, _)| to.as_str()).collect();
                let expected: Vec<&str> = of
                    .partitions_for_range(&range)
                    .iter()
                    .map(|(p, _)| p.process.as_str())
                    .collect();
                assert_eq!(volumes, expected, "{context}");
                for (to, labels) in &conversations {
                    assert_eq!(labels[0], first, "{context} on {to}");
                    assert!(
                        labels[1..].iter().all(|l| l == next),
                        "{context} on {to}: {labels:?}"
                    );
                }
                let recorded = db.sim.hist.redrive_chain.count() - chains;
                assert_eq!(recorded, expected.len() as u64, "{context}");
            }

            let left = s.query("SELECT K, V FROM S").unwrap();
            let left: Vec<Vec<Value>> = left.rows.into_iter().map(|r| r.0).collect();
            let want: Vec<Vec<Value>> = model
                .iter()
                .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
                .collect();
            assert_eq!(left, want, "case {case}");
        }
    }
}

/// Every writer keeps the secondary indices in step with the base table:
/// random writes through SQL (`INSERT`, set `UPDATE`s of an indexed column,
/// of an unindexed one and of a column to its own value, `DELETE`) and
/// through the File System (`update_by_key`, `delete_by_key`,
/// `ens_rewrite`, the cursor updater and the blocked inserter), on one or
/// two partitions with both indices on a volume of their own. After each
/// transaction, committed or rolled back, each index holds exactly the
/// entries derived from a dump of the base table; a transaction a unique
/// index refuses, rolled back, leaves the table as it was.
mod index_consistency {
    use nonstop_sql::{ClusterBuilder, Session};
    use nsql_dp::{ReadLock, SubsetMode};
    use nsql_fs::{BlockedInserter, CursorUpdater, FsError, OpenFile};
    use nsql_records::key::encode_record_key;
    use nsql_records::{ArithOp, Expr, KeyRange, Row, SetList, Value};
    use nsql_sim::SimRng;
    use std::collections::BTreeMap;

    const KEYS: u64 = 60;
    /// Values of the uniquely indexed `U`: few enough to collide.
    const UNIQUE: u64 = 150;
    const NAMES: [&str; 4] = ["a", "b", "cc", ""];

    fn name(rng: &mut SimRng) -> Value {
        Value::Str(NAMES[rng.below(4) as usize].to_string())
    }

    fn row(rng: &mut SimRng, k: i32) -> Vec<Value> {
        let u = Value::Int(rng.below(UNIQUE) as i32);
        vec![
            Value::Int(k),
            u,
            name(rng),
            Value::Int(rng.below(10) as i32),
        ]
    }

    fn sql_literal(v: &Value) -> String {
        match v {
            Value::Str(s) => format!("'{s}'"),
            other => other.to_string(),
        }
    }

    /// The base table, in key order.
    fn dump(s: &Session, of: &OpenFile) -> Vec<Vec<Value>> {
        let (mode, lock) = (SubsetMode::Vsbb, ReadLock::None);
        let all = KeyRange::all();
        let scan = s.fs().scan(None, of, &all, None, None, mode, lock).unwrap();
        scan.rows.into_iter().map(|r| r.0).collect()
    }

    /// Each index's entries, as stored and as derived from `base`: the
    /// indexed field, then the base key, in index-key order.
    fn check_indexes(s: &Session, of: &OpenFile, base: &[Vec<Value>], context: &str) {
        for (idx, field) in of.indexes.iter().zip([1usize, 2]) {
            let all = KeyRange::all();
            let mut stored: Vec<Vec<Value>> = Vec::new();
            s.fs()
                .scan_index(None, idx, &all, None, ReadLock::None, |row| {
                    stored.push(row.decode()?.0);
                    Ok(())
                })
                .unwrap();
            let mut derived: Vec<Vec<Value>> = base
                .iter()
                .map(|r| vec![r[field].clone(), r[0].clone()])
                .collect();
            derived.sort_by_cached_key(|r| encode_record_key(&idx.desc, r));
            assert_eq!(stored, derived, "{context}: index {}", idx.name);
        }
    }

    /// The writers `write` takes, by number.
    const WRITERS: [&str; 13] = [
        "INSERT",
        "UPDATE of U",
        "UPDATE of N",
        "UPDATE of V",
        "UPDATE to the same values",
        "DELETE",
        "update_by_key of U",
        "update_by_key of V",
        "delete_by_key",
        "ens_rewrite",
        "CursorUpdater",
        "BlockedInserter",
        "INSERT",
    ];

    /// One random write of the transaction `txn` through `writer`, mostly
    /// of keys `present` before the transaction: what it did, or why it
    /// failed.
    fn write(
        s: &mut Session,
        of: &OpenFile,
        txn: nsql_lock::TxnId,
        present: &[Vec<Value>],
        writer: usize,
        rng: &mut SimRng,
    ) -> Result<String, String> {
        let keys: Vec<i32> = present
            .iter()
            .map(|r| match r[0] {
                Value::Int(k) => k,
                _ => unreachable!("K is an INT"),
            })
            .collect();
        // A key present before the transaction, or absent with `false`;
        // now and then any key.
        let pick = |rng: &mut SimRng, present: bool| loop {
            let k = rng.below(KEYS) as i32;
            if keys.contains(&k) == present || rng.chance(0.2) {
                break k;
            }
        };
        let k = pick(rng, true);
        let key = encode_record_key(&of.desc, &[Value::Int(k), Value::Null, Value::Null]);
        let hi = k + rng.below(12) as i32;
        let err = |e: FsError| e.to_string();
        let sql = |s: &mut Session, text: String| {
            s.execute(&text).map(|_| text).map_err(|e| e.to_string())
        };
        match writer {
            0 | 12 => {
                let k = pick(rng, false);
                let r: Vec<String> = row(rng, k).iter().map(sql_literal).collect();
                sql(s, format!("INSERT INTO X VALUES ({})", r.join(", ")))
            }
            1 => sql(
                s,
                format!("UPDATE X SET U = U + 7 WHERE K BETWEEN {k} AND {hi}"),
            ),
            2 => {
                let n = sql_literal(&name(rng));
                sql(
                    s,
                    format!("UPDATE X SET N = {n} WHERE K BETWEEN {k} AND {hi}"),
                )
            }
            3 => sql(
                s,
                format!("UPDATE X SET V = V + 1 WHERE K BETWEEN {k} AND {hi}"),
            ),
            4 => sql(
                s,
                format!("UPDATE X SET N = N, U = U WHERE K BETWEEN {k} AND {hi}"),
            ),
            5 => sql(
                s,
                format!("DELETE FROM X WHERE K BETWEEN {k} AND {}", k + 2),
            ),
            6 | 7 => {
                let target = if writer == 6 { 1 } else { 3 };
                let plus = Expr::Arith(
                    Box::new(Expr::Field(target)),
                    ArithOp::Add,
                    Box::new(Expr::lit(Value::Int(rng.below(3) as i32))),
                );
                let sets = SetList {
                    sets: vec![(target, plus)],
                };
                let fs = s.fs();
                fs.update_by_key(txn, of, &key, &sets, None)
                    .map(|()| format!("update_by_key {k} field {target}"))
                    .map_err(err)
            }
            8 => {
                let fs = s.fs();
                fs.delete_by_key(txn, of, &key)
                    .map(|()| format!("delete_by_key {k}"))
                    .map_err(err)
            }
            9 => {
                let fs = s.fs();
                let old = fs.read_by_key(Some(txn), of, &key, ReadLock::Shared);
                match old.map_err(err)? {
                    None => Ok(format!("ens_rewrite {k}: absent")),
                    Some(Row(old)) => {
                        let new = if rng.chance(0.3) {
                            old.clone()
                        } else {
                            row(rng, k)
                        };
                        fs.ens_rewrite(txn, of, &old, &new)
                            .map(|()| format!("ens_rewrite {k} to {new:?}"))
                            .map_err(err)
                    }
                }
            }
            10 => {
                let fs = s.fs();
                let (mode, lock) = (SubsetMode::Vsbb, ReadLock::Shared);
                let range = KeyRange::all();
                let rows = fs.scan(Some(txn), of, &range, None, None, mode, lock);
                let rows = rows.map_err(err)?.rows;
                let mut cursor = CursorUpdater::new(fs, of, txn);
                for old in &rows {
                    if rng.chance(0.8) {
                        continue;
                    } else if rng.chance(0.5) {
                        cursor.delete(&old.0).map_err(err)?;
                    } else {
                        let mut new = row(rng, 0);
                        new[0] = old.0[0].clone();
                        if rng.chance(0.3) {
                            new[1] = old.0[1].clone();
                        }
                        cursor.update(&old.0, &new).map_err(err)?;
                    }
                }
                let (updated, deleted) = cursor.flush().map_err(err)?;
                Ok(format!("cursor: {updated} updated, {deleted} deleted"))
            }
            _ => {
                let fs = s.fs();
                let mut inserter = BlockedInserter::new(fs, of, txn);
                let n = 1 + rng.below(4);
                for _ in 0..n {
                    let k = pick(rng, false);
                    inserter.push(&row(rng, k)).map_err(err)?;
                }
                inserter.flush().map_err(err)?;
                Ok(format!("blocked insert of {n}"))
            }
        }
    }

    #[test]
    fn every_writer_keeps_the_indexes_equal_to_the_base_table() {
        let (mut committed, mut refused) = (0, 0);
        let mut committed_by: BTreeMap<&str, u32> = BTreeMap::new();
        for case in 0..6u64 {
            let mut rng = SimRng::seed_from(0x1d3 + case);
            let db = ClusterBuilder::new()
                .volume("$DATA1", 0, 1)
                .volume("$DATA2", 0, 2)
                .volume("$IDX", 0, 3)
                .build();
            let mut s = db.session();
            let layout = if case % 2 == 1 {
                " PARTITION BY VALUES (30) ON ('$DATA1', '$DATA2')"
            } else {
                ""
            };
            s.execute(&format!(
                "CREATE TABLE X (K INT NOT NULL, U INT NOT NULL, N CHAR(4) NOT NULL, V INT NOT NULL, \
                 PRIMARY KEY (K)){layout}"
            ))
            .unwrap();
            s.execute("CREATE UNIQUE INDEX XU ON X (U) ON '$IDX'")
                .unwrap();
            s.execute("CREATE INDEX XN ON X (N) ON '$IDX'").unwrap();
            s.execute("BEGIN WORK").unwrap();
            let mut us: Vec<u64> = (0..UNIQUE).collect();
            for k in 0..KEYS / 2 {
                let u = us.swap_remove(rng.below(us.len() as u64) as usize);
                let n = sql_literal(&name(&mut rng));
                let v = rng.below(10);
                s.execute(&format!("INSERT INTO X VALUES ({}, {u}, {n}, {v})", 2 * k))
                    .unwrap();
            }
            s.execute("COMMIT WORK").unwrap();
            let of = s.open_table("X").unwrap();
            let mut before = dump(&s, &of);
            for step in 0..40 {
                let txn = s.begin().unwrap();
                let mut done = Vec::new();
                let mut failed = None;
                for _ in 0..1 + rng.below(3) {
                    let writer = rng.below(WRITERS.len() as u64) as usize;
                    match write(&mut s, &of, txn, &before, writer, &mut rng) {
                        Ok(what) => done.push((WRITERS[writer], what)),
                        Err(e) => {
                            failed = Some((WRITERS[writer], e));
                            break;
                        }
                    }
                }
                let context = format!("case {case} step {step}: {done:?}, then {failed:?}");
                if failed.is_some() || rng.chance(0.2) {
                    s.rollback().unwrap();
                    let after = dump(&s, &of);
                    assert_eq!(after, before, "{context}: rolled back");
                    // An update cannot repeat a base key: its duplicate is
                    // the unique index's.
                    let updates = [
                        "UPDATE of U",
                        "update_by_key of U",
                        "ens_rewrite",
                        "CursorUpdater",
                    ];
                    if failed.is_some_and(|(w, e)| updates.contains(&w) && e.contains("duplicate"))
                    {
                        refused += 1;
                    }
                } else {
                    s.commit().unwrap();
                    committed += 1;
                    for (writer, _) in &done {
                        *committed_by.entry(writer).or_default() += 1;
                    }
                    before = dump(&s, &of);
                }
                check_indexes(&s, &of, &before, &context);
            }
        }
        // Every writer, each index-touching one included, had its writes
        // committed: a writer that broke the indices by refusing would not.
        let quiet = WRITERS
            .iter()
            .find(|w| committed_by.get(*w).is_none_or(|&n| n < 3));
        assert_eq!(quiet, None, "writes committed per writer: {committed_by:?}");
        assert!(committed > 60, "{committed} transactions committed");
        assert!(refused > 10, "{refused} refused by the unique index");
    }
}
