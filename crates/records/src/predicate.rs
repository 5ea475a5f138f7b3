//! Compiled predicates — a shipped [`Expr`] bound once to a record layout.
//!
//! The Disk Process holds the records it filters, so a pushed-down predicate
//! should cost a look at the bytes, not a [`Value`] per field reference. A
//! [`Predicate`] is the selection expression of a subset request compiled
//! against the file's [`RecordDescriptor`], the way a
//! [`Projection`](crate::row::Projection) is: the shapes that decide a scan
//! — a fixed-width field against a literal, `IS [NOT] NULL`, `BETWEEN`, `IN`,
//! joined by `AND` / `OR` / `NOT` — become a three-valued tree whose leaves
//! read the null bit and the big-endian slot where the record lies. Every
//! other node (arithmetic, `LIKE`, `VARCHAR`, field against field, string
//! against number) stays an [`Expr`] that [`Expr::eval`] interprets over the
//! same bytes. `Expr::eval` is the one interpreter and the compiled tree's
//! oracle: both give the same value and the same error for every record.
//!
//! A referenced field that does not decode (a `VARCHAR` slot pointing past
//! the tail, a `CHAR` slot that is not UTF-8) is an error under either, not
//! a NULL.

use crate::expr::{truth, CmpOp, EvalError, Expr};
use crate::row::{extract_field, CodecError, RowAccessor};
use crate::types::{FieldType, RecordDescriptor};
use crate::value::Value;
use std::cell::Cell;
use std::cmp::Ordering;

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

/// What a fixed-width slot holds.
#[derive(Debug, Clone, Copy)]
enum SlotKind {
    /// A big-endian two's-complement integer of the slot's width.
    Int,
    /// A big-endian IEEE double.
    Double,
    /// Space-padded text, which must be UTF-8.
    Char,
}

/// A fixed-width field of a stored record: its null bit and its slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    field: usize,
    at: usize,
    width: usize,
    kind: SlotKind,
}

/// A field as read from the record, and a literal in the form it is
/// compared in.
#[derive(Debug, Clone)]
enum Operand<T> {
    Null,
    Int(i64),
    Double(f64),
    /// Text less its trailing spaces (PAD SPACE comparison).
    Str(T),
}

fn unpadded(text: &[u8]) -> &[u8] {
    let pad = text.iter().rev().take_while(|&&b| b == b' ').count();
    &text[..text.len() - pad]
}

impl Slot {
    /// The slot of field `f`, if `desc` has it and it is fixed-width.
    fn of(desc: &RecordDescriptor, f: u16) -> Option<Slot> {
        let kind = match desc.fields.get(f as usize)?.ty {
            FieldType::SmallInt | FieldType::Int | FieldType::LargeInt => SlotKind::Int,
            FieldType::Double => SlotKind::Double,
            FieldType::Char(_) => SlotKind::Char,
            FieldType::Varchar(_) => return None,
        };
        Some(Slot {
            field: f as usize,
            at: desc.slot_offset(f),
            width: desc.fields[f as usize].ty.fixed_width(),
            kind,
        })
    }

    /// `v` as this slot's field is compared with it by [`Value::sql_cmp`];
    /// `None` for a literal that takes the interpreter (NULL, a boolean,
    /// text against a number).
    fn literal(&self, v: &Value) -> Option<Operand<Box<[u8]>>> {
        match (self.kind, v) {
            (SlotKind::Int | SlotKind::Double, Value::Double(x)) => Some(Operand::Double(*x)),
            (SlotKind::Int | SlotKind::Double, _) => v.as_i64().map(Operand::Int),
            (SlotKind::Char, Value::Str(s)) => Some(Operand::Str(unpadded(s.as_bytes()).into())),
            (SlotKind::Char, _) => None,
        }
    }

    /// Read the field from `record`, which holds its fixed part.
    fn read<'a>(&self, record: &'a [u8]) -> Result<Operand<&'a [u8]>, CodecError> {
        if record[self.field / 8] & (1 << (self.field % 8)) != 0 {
            return Ok(Operand::Null);
        }
        let slot = &record[self.at..self.at + self.width];
        let bits = || {
            let mut wide = [0u8; 8];
            wide[8 - slot.len()..].copy_from_slice(slot);
            u64::from_be_bytes(wide)
        };
        Ok(match self.kind {
            SlotKind::Int => {
                let unused = 64 - 8 * self.width as u32;
                Operand::Int(((bits() << unused) as i64) >> unused)
            }
            SlotKind::Double => Operand::Double(f64::from_bits(bits())),
            SlotKind::Char => {
                std::str::from_utf8(slot).map_err(|_| CodecError::Corrupt)?;
                Operand::Str(unpadded(slot))
            }
        })
    }
}

/// [`Value::sql_cmp`] on a field read in place and a compiled literal:
/// integers compare exactly, a double on either side promotes the other,
/// text compares by its bytes, and NULL (or a NaN) is unknown.
fn sql_cmp(field: &Operand<&[u8]>, literal: &Operand<Box<[u8]>>) -> Option<Ordering> {
    match (field, literal) {
        (Operand::Int(a), Operand::Int(b)) => Some(a.cmp(b)),
        (Operand::Int(a), Operand::Double(b)) => (*a as f64).partial_cmp(b),
        (Operand::Double(a), Operand::Int(b)) => a.partial_cmp(&(*b as f64)),
        (Operand::Double(a), Operand::Double(b)) => a.partial_cmp(b),
        (Operand::Str(a), Operand::Str(b)) => Some((*a).cmp(b)),
        _ => None,
    }
}

/// A node of the compiled tree; it evaluates to TRUE, FALSE or unknown.
#[derive(Debug, Clone)]
enum Node {
    /// `field op literal`.
    Cmp {
        slot: Slot,
        op: CmpOp,
        literal: Operand<Box<[u8]>>,
    },
    /// `field IS [NOT] NULL`.
    IsNull {
        slot: Slot,
        negated: bool,
    },
    /// `field IN (literals)`.
    In {
        slot: Slot,
        items: Vec<Operand<Box<[u8]>>>,
    },
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
    /// A sub-expression left to [`Expr::eval`].
    Interpreted(Expr),
}

impl Node {
    /// The node for `e`, or `None` when all of `e` takes the interpreter.
    fn compile(desc: &RecordDescriptor, e: &Expr) -> Option<Node> {
        let cmp = |field: &Expr, op: CmpOp, literal: &Expr| match (field, literal) {
            (Expr::Field(f), Expr::Lit(v)) => {
                let slot = Slot::of(desc, *f)?;
                let literal = slot.literal(v)?;
                Some(Node::Cmp { slot, op, literal })
            }
            _ => None,
        };
        // A connective is compiled when either side is; the other side
        // becomes an interpreted leaf, evaluated in the same order.
        let side = |e: &Expr, node: Option<Node>| {
            Box::new(node.unwrap_or_else(|| Node::Interpreted(e.clone())))
        };
        let sides = |a: &Expr, b: &Expr| match (Node::compile(desc, a), Node::compile(desc, b)) {
            (None, None) => None,
            (na, nb) => Some((side(a, na), side(b, nb))),
        };
        match e {
            Expr::Cmp(a, op, b) => cmp(a, *op, b).or_else(|| cmp(b, op.flipped(), a)),
            Expr::IsNull { expr, negated } => match &**expr {
                Expr::Field(f) => Slot::of(desc, *f).map(|slot| Node::IsNull {
                    slot,
                    negated: *negated,
                }),
                _ => None,
            },
            // Both bounds read the same field, so the three-valued AND of
            // the two comparisons is BETWEEN's own table.
            Expr::Between { expr, lo, hi } => {
                let (ge, le) = (cmp(expr, CmpOp::Ge, lo)?, cmp(expr, CmpOp::Le, hi)?);
                Some(Node::And(Box::new(ge), Box::new(le)))
            }
            Expr::InList(e, list) => {
                let Expr::Field(f) = &**e else { return None };
                let slot = Slot::of(desc, *f)?;
                let item = |item: &Expr| match item {
                    Expr::Lit(Value::Null) => Some(Operand::Null),
                    Expr::Lit(v) => slot.literal(v),
                    _ => None,
                };
                let items = list.iter().map(item).collect::<Option<_>>()?;
                Some(Node::In { slot, items })
            }
            Expr::And(a, b) => sides(a, b).map(|(a, b)| Node::And(a, b)),
            Expr::Or(a, b) => sides(a, b).map(|(a, b)| Node::Or(a, b)),
            Expr::Not(a) => Node::compile(desc, a).map(|a| Node::Not(Box::new(a))),
            Expr::Lit(_) | Expr::Field(_) | Expr::Arith(..) | Expr::Like(..) => None,
        }
    }

    /// Evaluate over `record`, in [`Expr::eval`]'s order and with its
    /// short circuits.
    fn truth(
        &self,
        desc: &RecordDescriptor,
        record: &[u8],
    ) -> Result<Option<bool>, PredicateError> {
        let read = |slot: &Slot| slot.read(record).map_err(PredicateError::Record);
        Ok(match self {
            Node::Cmp { slot, op, literal } => {
                sql_cmp(&read(slot)?, literal).map(|ord| op.matches(ord))
            }
            Node::IsNull { slot, negated } => {
                Some(matches!(read(slot)?, Operand::Null) != *negated)
            }
            Node::In { slot, items } => {
                let field = read(slot)?;
                if matches!(field, Operand::Null) {
                    return Ok(None);
                }
                let mut unknown = false;
                for item in items {
                    match sql_cmp(&field, item) {
                        Some(Ordering::Equal) => return Ok(Some(true)),
                        None => unknown = true,
                        Some(_) => {}
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
        fn width(&self) -> usize {
            self.desc.num_fields()
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

    /// Evaluate over `record`, encoded per the descriptor `desc` the
    /// predicate was compiled against: what [`Expr::eval`] gives for the
    /// decoded row.
    pub fn eval(&self, desc: &RecordDescriptor, record: &[u8]) -> Result<Value, PredicateError> {
        if record.len() < self.fixed_end {
            return Err(PredicateError::Record(CodecError::Corrupt));
        }
        match &self.root {
            None => interpret(&self.expr, desc, record),
            Some(root) => Ok(match root.truth(desc, record)? {
                Some(b) => Value::Bool(b),
                None => Value::Null,
            }),
        }
    }

    /// Does `record` pass (evaluate to exactly TRUE)?
    pub fn passes(&self, desc: &RecordDescriptor, record: &[u8]) -> Result<bool, PredicateError> {
        Ok(matches!(self.eval(desc, record)?, Value::Bool(true)))
    }
}
