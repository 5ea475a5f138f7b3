//! Compiled predicates — a shipped [`Expr`] bound once to a record layout.
//!
//! The Disk Process holds the records it filters, so a pushed-down predicate
//! should cost a look at the bytes, not a [`Value`] per field reference. A
//! [`Predicate`] is the selection expression of a subset request compiled
//! against the file's [`RecordDescriptor`], the way a
//! [`Projection`](crate::row::Projection) is: the shapes that decide a scan
//! become a three-valued tree whose leaves are [`Kernel`]s, each reading the
//! null bit and a slot of its width where the record lies. An integer field
//! against integers — one comparison, `BETWEEN`, or a conjunction of them on
//! the one field — is an interval test on one read; a `DOUBLE`, or an
//! integer against a double, compares as a double; a `CHAR` compares its
//! unpadded bytes; `IN` and `IS [NOT] NULL` have kernels of their own.
//! `AND` / `OR` / `NOT` join them. Every other node (arithmetic, `LIKE`,
//! `VARCHAR`, field against field, string against number) stays an [`Expr`]
//! that [`Expr::eval`] interprets over the same bytes. `Expr::eval` is the
//! one interpreter and the compiled tree's oracle: both give the same value
//! and the same error for every record.
//!
//! A referenced field that does not decode (a `VARCHAR` slot pointing past
//! the tail, a `CHAR` slot that is not UTF-8) is an error under either, not
//! a NULL.

use crate::expr::{truth, CmpOp, EvalError, Expr};
use crate::row::{char_at, extract_field, load, CodecError, RowAccessor};
use crate::types::{FieldType, RecordDescriptor};
use crate::value::Value;
use std::cell::Cell;

/// Why a predicate could not be decided for a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredicateError {
    /// The expression failed (type error, division by zero, overflow).
    Eval(EvalError),
    /// The record is too short, or a field the predicate read does not
    /// decode.
    Record(CodecError),
}

impl std::fmt::Display for PredicateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredicateError::Eval(e) => e.fmt(f),
            PredicateError::Record(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PredicateError {}

/// A fixed-width field of a stored record: its null bit and where its slot
/// starts.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The bitmap byte holding the null bit, and the bit.
    byte: usize,
    bit: u8,
    at: usize,
}

/// The width of an integer slot.
#[derive(Debug, Clone, Copy)]
enum IntWidth {
    I16,
    I32,
    I64,
}

/// How a number slot reads as a double.
#[derive(Debug, Clone, Copy)]
enum Num {
    Int(IntWidth),
    Double,
}

/// What a fixed-width field's slot holds.
#[derive(Debug, Clone, Copy)]
enum SlotType {
    Int(IntWidth),
    Double,
    /// Space-padded text of the width, which must be UTF-8.
    Char(u16),
}

impl Slot {
    /// The slot of field `f` and what it holds, if `desc` has the field and
    /// it is fixed-width.
    fn of(desc: &RecordDescriptor, f: u16) -> Option<(Slot, SlotType)> {
        let ty = match desc.fields.get(f as usize)?.ty {
            FieldType::SmallInt => SlotType::Int(IntWidth::I16),
            FieldType::Int => SlotType::Int(IntWidth::I32),
            FieldType::LargeInt => SlotType::Int(IntWidth::I64),
            FieldType::Double => SlotType::Double,
            FieldType::Char(n) => SlotType::Char(n),
            FieldType::Varchar(_) => return None,
        };
        let slot = Slot {
            byte: f as usize / 8,
            bit: 1 << (f % 8),
            at: desc.slot_offset(f),
        };
        Some((slot, ty))
    }

    // The readers below are handed a record that holds its fixed part.

    fn is_null(self, record: &[u8]) -> bool {
        record[self.byte] & self.bit != 0
    }

    fn int(self, width: IntWidth, record: &[u8]) -> i64 {
        match width {
            IntWidth::I16 => i16::from_be_bytes(load(record, self.at)).into(),
            IntWidth::I32 => i32::from_be_bytes(load(record, self.at)).into(),
            IntWidth::I64 => i64::from_be_bytes(load(record, self.at)),
        }
    }

    /// A number as [`Value::sql_cmp`] promotes it against a double.
    fn double(self, num: Num, record: &[u8]) -> f64 {
        match num {
            Num::Int(width) => self.int(width, record) as f64,
            Num::Double => f64::from_be_bytes(load(record, self.at)),
        }
    }

    /// Is the field there (not NULL)? A `CHAR` (`text` is its width) that
    /// is there must decode.
    fn present(self, text: Option<u16>, record: &[u8]) -> Result<bool, PredicateError> {
        if self.is_null(record) {
            return Ok(false);
        }
        if let Some(width) = text {
            self.text(width, record)?;
        }
        Ok(true)
    }

    /// A `CHAR` of `width` less its padding; text that is not UTF-8 does
    /// not decode.
    fn text(self, width: u16, record: &[u8]) -> Result<&[u8], PredicateError> {
        match char_at(width, record, self.at) {
            Ok(text) => Ok(text.as_bytes()),
            Err(e) => Err(PredicateError::Record(e)),
        }
    }
}

/// The integers `op b` admits, as an interval `lo..=hi` (empty when
/// `lo > hi`) and whether the test is to fall outside it.
fn interval(op: CmpOp, b: i64) -> (i64, i64, bool) {
    const EMPTY: (i64, i64, bool) = (1, 0, false);
    match op {
        CmpOp::Eq => (b, b, false),
        CmpOp::Ne => (b, b, true),
        CmpOp::Lt => b.checked_sub(1).map_or(EMPTY, |hi| (i64::MIN, hi, false)),
        CmpOp::Le => (i64::MIN, b, false),
        CmpOp::Gt => b.checked_add(1).map_or(EMPTY, |lo| (lo, i64::MAX, false)),
        CmpOp::Ge => (b, i64::MAX, false),
    }
}

/// The kernel a leaf of a compiled predicate runs on a record's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// An integer field tested against an interval of integers: one
    /// comparison with an integer, `BETWEEN` integers, or a conjunction of
    /// them on one field, fused.
    IntRange,
    /// A number compared as a double: a `DOUBLE` field, or an integer
    /// field against a double.
    Double,
    /// A `CHAR` field against text.
    Char,
    /// `IN` a list of literals.
    In,
    /// `IS [NOT] NULL`.
    IsNull,
    /// A sub-expression left to [`Expr::eval`].
    Interpreted,
}

/// A node of the compiled tree; it evaluates to TRUE, FALSE or unknown.
#[derive(Debug, Clone)]
enum Node {
    /// An integer field in `lo..=hi`, or outside it.
    IntRange {
        slot: Slot,
        width: IntWidth,
        lo: i64,
        hi: i64,
        outside: bool,
    },
    /// `field op literal`, compared as doubles.
    Double {
        slot: Slot,
        num: Num,
        op: CmpOp,
        literal: f64,
    },
    /// `field op literal` on a `CHAR`, both less their trailing spaces
    /// (PAD SPACE).
    Char {
        slot: Slot,
        width: u16,
        op: CmpOp,
        literal: Box<[u8]>,
    },
    /// `field IS [NOT] NULL`; `text` is the width of a `CHAR`, which must
    /// decode.
    IsNull {
        slot: Slot,
        text: Option<u16>,
        negated: bool,
    },
    /// `field IN (literals)`: unknown for a NULL field, else TRUE when the
    /// field equals a member — one leaf per non-NULL member — and unknown
    /// when none does but one compares unknown (`null_member`, a NaN).
    In {
        slot: Slot,
        text: Option<u16>,
        members: Vec<Node>,
        null_member: bool,
    },
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
    /// A sub-expression left to [`Expr::eval`].
    Interpreted(Expr),
}

impl Node {
    /// The leaf for `field op literal`, if the field is fixed-width and the
    /// literal one it is compared with as [`Value::sql_cmp`] compares.
    fn cmp(desc: &RecordDescriptor, field: &Expr, op: CmpOp, literal: &Expr) -> Option<Node> {
        let (Expr::Field(f), Expr::Lit(v)) = (field, literal) else {
            return None;
        };
        let (slot, ty) = Slot::of(desc, *f)?;
        Some(match (ty, v) {
            (SlotType::Int(width), Value::Double(x)) => Node::Double {
                slot,
                num: Num::Int(width),
                op,
                literal: *x,
            },
            (SlotType::Int(width), _) => {
                let (lo, hi, outside) = interval(op, v.as_i64()?);
                Node::IntRange {
                    slot,
                    width,
                    lo,
                    hi,
                    outside,
                }
            }
            (SlotType::Double, _) => Node::Double {
                slot,
                num: Num::Double,
                op,
                literal: v.as_f64()?,
            },
            (SlotType::Char(width), Value::Str(s)) => Node::Char {
                slot,
                width,
                op,
                literal: s.trim_end_matches(' ').as_bytes().into(),
            },
            (SlotType::Char(_), _) => return None,
        })
    }

    /// `a AND b`: two integer ranges on one field are one range.
    fn and(a: Node, b: Node) -> Node {
        match (a, b) {
            (
                Node::IntRange {
                    slot,
                    width,
                    lo,
                    hi,
                    outside: false,
                },
                Node::IntRange {
                    slot: other,
                    lo: lo2,
                    hi: hi2,
                    outside: false,
                    ..
                },
            ) if slot.at == other.at => Node::IntRange {
                slot,
                width,
                lo: lo.max(lo2),
                hi: hi.min(hi2),
                outside: false,
            },
            (a, b) => Node::And(Box::new(a), Box::new(b)),
        }
    }

    /// The node for `e`, or `None` when all of `e` takes the interpreter.
    fn compile(desc: &RecordDescriptor, e: &Expr) -> Option<Node> {
        let cmp = |field: &Expr, op: CmpOp, literal: &Expr| Node::cmp(desc, field, op, literal);
        // A connective is compiled when either side is; the other side
        // becomes an interpreted leaf, evaluated in the same order.
        let side =
            |e: &Expr, node: Option<Node>| node.unwrap_or_else(|| Node::Interpreted(e.clone()));
        let sides = |a: &Expr, b: &Expr| match (Node::compile(desc, a), Node::compile(desc, b)) {
            (None, None) => None,
            (na, nb) => Some((side(a, na), side(b, nb))),
        };
        // A fixed-width field's slot, and the width of a `CHAR`, which must
        // decode to be found NULL or not.
        let present = |field: &Expr| {
            let Expr::Field(f) = field else { return None };
            let (slot, ty) = Slot::of(desc, *f)?;
            let text = match ty {
                SlotType::Char(width) => Some(width),
                SlotType::Int(_) | SlotType::Double => None,
            };
            Some((slot, text))
        };
        match e {
            Expr::Cmp(a, op, b) => cmp(a, *op, b).or_else(|| cmp(b, op.flipped(), a)),
            Expr::IsNull { expr, negated } => {
                let (slot, text) = present(expr)?;
                Some(Node::IsNull {
                    slot,
                    text,
                    negated: *negated,
                })
            }
            // Both bounds read the same field, so the three-valued AND of
            // the two comparisons is BETWEEN's own table.
            Expr::Between { expr, lo, hi } => {
                let (ge, le) = (cmp(expr, CmpOp::Ge, lo)?, cmp(expr, CmpOp::Le, hi)?);
                Some(Node::and(ge, le))
            }
            Expr::InList(field, list) => {
                let (slot, text) = present(field)?;
                let mut null_member = false;
                let mut members = Vec::with_capacity(list.len());
                for item in list {
                    match item {
                        Expr::Lit(Value::Null) => null_member = true,
                        item => members.push(cmp(field, CmpOp::Eq, item)?),
                    }
                }
                Some(Node::In {
                    slot,
                    text,
                    members,
                    null_member,
                })
            }
            Expr::And(a, b) => sides(a, b).map(|(a, b)| Node::and(a, b)),
            Expr::Or(a, b) => sides(a, b).map(|(a, b)| Node::Or(Box::new(a), Box::new(b))),
            Expr::Not(a) => Node::compile(desc, a).map(|a| Node::Not(Box::new(a))),
            Expr::Lit(_) | Expr::Field(_) | Expr::Arith(..) | Expr::Like(..) => None,
        }
    }

    /// Evaluate over `record`, which holds its fixed part, in
    /// [`Expr::eval`]'s order and with its short circuits.
    fn truth(
        &self,
        desc: &RecordDescriptor,
        record: &[u8],
    ) -> Result<Option<bool>, PredicateError> {
        Ok(match self {
            Node::IntRange {
                slot,
                width,
                lo,
                hi,
                outside,
            } => {
                if slot.is_null(record) {
                    return Ok(None);
                }
                let v = slot.int(*width, record);
                Some((*lo <= v && v <= *hi) != *outside)
            }
            Node::Double {
                slot,
                num,
                op,
                literal,
            } => {
                if slot.is_null(record) {
                    return Ok(None);
                }
                let v = slot.double(*num, record);
                v.partial_cmp(literal).map(|ord| op.matches(ord))
            }
            Node::Char {
                slot,
                width,
                op,
                literal,
            } => {
                if slot.is_null(record) {
                    return Ok(None);
                }
                Some(op.matches(slot.text(*width, record)?.cmp(literal)))
            }
            Node::IsNull {
                slot,
                text,
                negated,
            } => Some(slot.present(*text, record)? == *negated),
            Node::In {
                slot,
                text,
                members,
                null_member,
            } => {
                if !slot.present(*text, record)? {
                    return Ok(None);
                }
                let mut unknown = *null_member;
                for member in members {
                    match member.truth(desc, record)? {
                        Some(true) => return Ok(Some(true)),
                        Some(false) => {}
                        None => unknown = true,
                    }
                }
                (!unknown).then_some(false)
            }
            Node::And(a, b) => match a.truth(desc, record)? {
                Some(false) => Some(false),
                a => match (a, b.truth(desc, record)?) {
                    (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
            },
            Node::Or(a, b) => match a.truth(desc, record)? {
                Some(true) => Some(true),
                a => match (a, b.truth(desc, record)?) {
                    (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                },
            },
            Node::Not(a) => a.truth(desc, record)?.map(|b| !b),
            Node::Interpreted(e) => {
                truth(interpret(e, desc, record)?).map_err(PredicateError::Eval)?
            }
        })
    }

    /// Append the kernel of each leaf, left to right.
    fn kernels(&self, out: &mut Vec<Kernel>) {
        match self {
            Node::IntRange { .. } => out.push(Kernel::IntRange),
            Node::Double { .. } => out.push(Kernel::Double),
            Node::Char { .. } => out.push(Kernel::Char),
            Node::IsNull { .. } => out.push(Kernel::IsNull),
            Node::In { .. } => out.push(Kernel::In),
            Node::And(a, b) | Node::Or(a, b) => {
                a.kernels(out);
                b.kernels(out);
            }
            Node::Not(a) => a.kernels(out),
            Node::Interpreted(_) => out.push(Kernel::Interpreted),
        }
    }
}

/// [`Expr::eval`] over the encoded `record`. A field that does not decode
/// fails the evaluation, whatever the expression made of it.
fn interpret(e: &Expr, desc: &RecordDescriptor, record: &[u8]) -> Result<Value, PredicateError> {
    struct Fields<'a> {
        desc: &'a RecordDescriptor,
        record: &'a [u8],
        undecodable: Cell<Option<CodecError>>,
    }
    impl RowAccessor for Fields<'_> {
        fn field(&self, i: u16) -> Value {
            extract_field(self.desc, self.record, i).unwrap_or_else(|e| {
                self.undecodable.set(Some(e));
                Value::Null
            })
        }
    }
    let fields = Fields {
        desc,
        record,
        undecodable: Cell::new(None),
    };
    let value = e.eval(&fields);
    match fields.undecodable.take() {
        Some(e) => Err(PredicateError::Record(e)),
        None => value.map_err(PredicateError::Eval),
    }
}

/// A selection expression compiled against a record descriptor: what a
/// Subset Control Block keeps of the predicate it was sent.
#[derive(Debug, Clone)]
pub struct Predicate {
    /// The expression as shipped: what is charged for, and what is
    /// interpreted when nothing of it compiled.
    expr: Expr,
    /// The compiled tree; `None` when all of `expr` takes the interpreter.
    root: Option<Node>,
    /// Bitmap plus fixed part of a stored record; a shorter one is corrupt.
    fixed_end: usize,
}

impl Predicate {
    /// Compile `expr` against `desc`.
    pub fn new(desc: &RecordDescriptor, expr: Expr) -> Predicate {
        Predicate {
            root: Node::compile(desc, &expr),
            fixed_end: desc.bitmap_len() + desc.fixed_size(),
            expr,
        }
    }

    /// CPU work units of one evaluation: [`Expr::eval_cost`] of the
    /// expression as shipped, whatever it compiled to.
    pub fn eval_cost(&self) -> u64 {
        self.expr.eval_cost()
    }

    /// The kernel of each leaf of the compiled tree, left to right; one
    /// [`Kernel::Interpreted`] when nothing compiled.
    pub fn kernels(&self) -> Vec<Kernel> {
        let mut out = Vec::new();
        match &self.root {
            Some(root) => root.kernels(&mut out),
            None => out.push(Kernel::Interpreted),
        }
        out
    }

    /// Evaluate over `record`, encoded per the descriptor `desc` the
    /// predicate was compiled against: what [`Expr::eval`] gives for the
    /// decoded row.
    pub fn eval(&self, desc: &RecordDescriptor, record: &[u8]) -> Result<Value, PredicateError> {
        self.fixed_part(record)?;
        match &self.root {
            None => interpret(&self.expr, desc, record),
            Some(root) => Ok(root.truth(desc, record)?.map_or(Value::Null, Value::Bool)),
        }
    }

    /// Does `record` pass (evaluate to exactly TRUE)?
    pub fn passes(&self, desc: &RecordDescriptor, record: &[u8]) -> Result<bool, PredicateError> {
        self.fixed_part(record)?;
        match &self.root {
            None => Ok(matches!(
                interpret(&self.expr, desc, record)?,
                Value::Bool(true)
            )),
            Some(root) => Ok(root.truth(desc, record)? == Some(true)),
        }
    }

    /// A record shorter than its fixed part is corrupt.
    fn fixed_part(&self, record: &[u8]) -> Result<(), PredicateError> {
        if record.len() < self.fixed_end {
            return Err(PredicateError::Record(CodecError::Corrupt));
        }
        Ok(())
    }
}
