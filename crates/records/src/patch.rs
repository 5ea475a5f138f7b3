//! Compiled update expressions — a shipped [`SetList`] bound once to a
//! record layout.
//!
//! "Since SQL identifies the fields being updated", the Disk Process
//! changes a record where it lies: a [`Patch`] is the `SET` list of an
//! update request, with its integrity constraint, compiled against the
//! file's [`RecordDescriptor`] the way a [`Predicate`](crate::Predicate) is
//! compiled for its selection expression. It reads the old values from the
//! record's bytes and writes the new record with the slot writer
//! [`patch_row`](crate::row::patch_row) uses: unchanged fields are copied,
//! not decoded and encoded again.
//!
//! The oracle is the decoding path it replaces: `decode_row`, then
//! [`SetList::apply`], `coerce`, the CHECK over the new values and
//! `encode_row`. For every record the patch gives the same new record, the
//! same field images and the same error.

use crate::expr::{EvalError, Expr, SetList};
use crate::row::{check_row, extract_field, write_patched, CodecError, RawRecord, RowAccessor};
use crate::types::RecordDescriptor;
use crate::value::Value;

/// Why a `SET` list could not be compiled, or one record not changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// A target, or a field an expression reads, that the descriptor does
    /// not have.
    NoSuchField(u16),
    /// A field assigned by two members of one list.
    AssignedTwice(u16),
    /// The old record does not decode, or the new one does not encode.
    Record(CodecError),
    /// An update expression, or the CHECK, failed to evaluate.
    Eval(EvalError),
    /// A new value that no conversion fits into its field.
    DoesNotFit(u16),
    /// The CHECK is not TRUE of the new record.
    Check,
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchError::NoSuchField(field) => write!(f, "no field {field} in the record"),
            PatchError::AssignedTwice(field) => write!(f, "field {field} assigned twice"),
            PatchError::Record(e) => e.fmt(f),
            PatchError::Eval(e) => e.fmt(f),
            PatchError::DoesNotFit(field) => write!(f, "value does not fit field {field}"),
            PatchError::Check => write!(f, "integrity constraint violated"),
        }
    }
}

impl std::error::Error for PatchError {}

/// One record's change: each target's old value and its new one, in the
/// order of the `SET` list.
pub type FieldChanges = Vec<(u16, Value)>;

/// A `SET` list and its CHECK compiled against a record descriptor: what a
/// Subset Control Block keeps of the update it was sent.
#[derive(Debug, Clone)]
pub struct Patch {
    sets: SetList,
    check: Option<Expr>,
    /// CPU work units of evaluating the list once, and the CHECK once.
    set_cost: u64,
    check_cost: u64,
}

impl Patch {
    /// Compile `sets` and `check` against `desc`. A target or a field
    /// reference `desc` does not have is [`PatchError::NoSuchField`], a
    /// field assigned twice [`PatchError::AssignedTwice`].
    pub fn new(
        desc: &RecordDescriptor,
        sets: SetList,
        check: Option<Expr>,
    ) -> Result<Patch, PatchError> {
        let width = desc.num_fields();
        let mut missing = None;
        let mut note = |f: u16| {
            if f as usize >= width {
                missing.get_or_insert(f);
            }
        };
        for (n, (target, e)) in sets.sets.iter().enumerate() {
            note(*target);
            e.for_each_field(&mut note);
            if sets.sets[..n].iter().any(|(t, _)| t == target) {
                return Err(PatchError::AssignedTwice(*target));
            }
        }
        if let Some(c) = &check {
            c.for_each_field(&mut note);
        }
        if let Some(f) = missing {
            return Err(PatchError::NoSuchField(f));
        }
        let set_cost = 1 + sets.sets.iter().map(|(_, e)| e.eval_cost()).sum::<u64>() / 2;
        let check_cost = check.as_ref().map_or(0, |c| 1 + c.eval_cost() / 2);
        Ok(Patch {
            sets,
            check,
            set_cost,
            check_cost,
        })
    }

    /// Change `record`, encoded per the descriptor `desc` the patch was
    /// compiled against: the new record is written into `image`, and the
    /// targets' old and new values are returned. `charge` is told the work
    /// units of the list's evaluation once the record is found to decode,
    /// and those of the CHECK before it is evaluated.
    ///
    /// The checks run in the oracle's order: the record decodes; each
    /// expression evaluates, in list order; each value fits its field, in
    /// list order; the CHECK is TRUE; the new record encodes.
    pub fn apply(
        &self,
        desc: &RecordDescriptor,
        record: &[u8],
        mut charge: impl FnMut(u64),
        image: &mut Vec<u8>,
    ) -> Result<(FieldChanges, FieldChanges), PatchError> {
        check_row(desc, record).map_err(PatchError::Record)?;
        charge(self.set_cost);
        let old = RawRecord {
            desc,
            bytes: record,
        };
        let after = assign(desc, &self.sets, &old)?;
        if let Some(c) = &self.check {
            charge(self.check_cost);
            let new = Patched {
                old,
                changes: &after,
            };
            if !c.passes(&new).map_err(PatchError::Eval)? {
                return Err(PatchError::Check);
            }
        }
        write_patched(desc, record, &after, image).map_err(PatchError::Record)?;
        let before = after
            .iter()
            .map(|&(f, _)| Ok((f, extract_field(desc, record, f)?)))
            .collect::<Result<_, CodecError>>()
            .map_err(PatchError::Record)?;
        Ok((before, after))
    }
}

/// The new values `sets` assigns over `old`, a row of the layout `desc`:
/// each expression evaluated, in list order, then each value coerced into
/// its field, in list order.
pub fn assign(
    desc: &RecordDescriptor,
    sets: &SetList,
    old: &dyn RowAccessor,
) -> Result<FieldChanges, PatchError> {
    let mut after = sets.apply(old).map_err(PatchError::Eval)?;
    for (f, v) in &mut after {
        let ty = desc.fields[*f as usize].ty;
        *v = ty
            .coerce(std::mem::replace(v, Value::Null))
            .ok_or(PatchError::DoesNotFit(*f))?;
    }
    Ok(after)
}

/// A stored record with new values in place of some of its fields: what the
/// CHECK of an update reads.
struct Patched<'a> {
    old: RawRecord<'a>,
    changes: &'a [(u16, Value)],
}

impl RowAccessor for Patched<'_> {
    fn field(&self, i: u16) -> Value {
        match self.changes.iter().find(|(f, _)| *f == i) {
            Some((_, v)) => v.clone(),
            None => self.old.field(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ArithOp, CmpOp};
    use crate::row::{decode_row, encode_row};
    use crate::types::{FieldDef, FieldType};

    fn desc() -> RecordDescriptor {
        RecordDescriptor::new(
            vec![
                FieldDef::new("K", FieldType::Int),
                FieldDef::new("BAL", FieldType::Double),
                FieldDef::nullable("NOTE", FieldType::Varchar(8)),
                FieldDef::new("PAD", FieldType::Char(4)),
            ],
            vec![0],
        )
    }

    fn record() -> Vec<u8> {
        let row = [
            Value::Int(7),
            Value::Double(10.0),
            Value::Str("old".into()),
            Value::Str("p".into()),
        ];
        encode_row(&desc(), &row).unwrap()
    }

    fn set(sets: Vec<(u16, Expr)>) -> SetList {
        SetList { sets }
    }

    #[test]
    fn a_list_the_descriptor_cannot_take_is_refused_at_compile_time() {
        let d = desc();
        let lit = || Expr::Lit(Value::Int(3));
        let refused = |sets, check| Patch::new(&d, set(sets), check).err();
        assert_eq!(
            refused(vec![(9, lit())], None),
            Some(PatchError::NoSuchField(9))
        );
        assert_eq!(
            refused(vec![(1, Expr::Field(4))], None),
            Some(PatchError::NoSuchField(4))
        );
        let beyond = Expr::field_cmp(12, CmpOp::Gt, Value::Int(0));
        assert_eq!(
            refused(vec![(1, lit())], Some(beyond)),
            Some(PatchError::NoSuchField(12))
        );
        assert_eq!(
            refused(vec![(1, lit()), (2, Expr::Field(1)), (1, lit())], None),
            Some(PatchError::AssignedTwice(1))
        );
    }

    #[test]
    fn the_new_record_is_what_encoding_the_changed_row_makes() {
        let d = desc();
        let raise = Expr::Arith(
            Box::new(Expr::Field(1)),
            ArithOp::Mul,
            Box::new(Expr::Lit(Value::Int(2))),
        );
        let sets = set(vec![(1, raise), (2, Expr::Lit(Value::Str("new!".into())))]);
        let patch = Patch::new(&d, sets, None).unwrap();
        let mut charged = Vec::new();
        let mut image = vec![0xEE; 99];
        let (before, after) = patch
            .apply(&d, &record(), |u| charged.push(u), &mut image)
            .unwrap();
        let expected = [
            Value::Int(7),
            Value::Double(20.0),
            Value::Str("new!".into()),
            Value::Str("p".into()),
        ];
        assert_eq!(image, encode_row(&d, &expected).unwrap());
        assert_eq!(decode_row(&d, &image).unwrap().0, expected);
        let old_note = Value::Str("old".into());
        assert_eq!(before, vec![(1, Value::Double(10.0)), (2, old_note)]);
        assert_eq!(
            after,
            vec![(1, Value::Double(20.0)), (2, expected[2].clone())]
        );
        // (1 + (3 + 1) / 2) for the list; no CHECK.
        assert_eq!(charged, vec![3]);
    }

    #[test]
    fn each_check_fails_in_its_turn() {
        let d = desc();
        let apply = |sets: Vec<(u16, Expr)>, check: Option<Expr>, record: &[u8]| {
            let patch = Patch::new(&d, set(sets), check).unwrap();
            let mut units = 0;
            let done = patch.apply(&d, record, |u| units += u, &mut Vec::new());
            (done.err(), units)
        };
        let lit = |v: Value| Expr::Lit(v);
        let positive = Some(Expr::field_cmp(1, CmpOp::Gt, Value::Int(0)));
        // A record that does not decode is charged nothing.
        let corrupt = PatchError::Record(CodecError::Corrupt);
        let short = &record()[..3];
        assert_eq!(
            apply(vec![(1, lit(Value::Int(1)))], None, short),
            (Some(corrupt), 0)
        );
        // Evaluation, then fitting, then the CHECK, then encoding.
        let div = Expr::Arith(
            Box::new(Expr::Field(0)),
            ArithOp::Div,
            Box::new(lit(Value::Int(0))),
        );
        let too_long = lit(Value::Str("too long!".into()));
        let eval = PatchError::Eval(EvalError::DivideByZero);
        assert_eq!(
            apply(vec![(2, too_long.clone()), (1, div)], None, &record()),
            (Some(eval), 3)
        );
        assert_eq!(
            apply(vec![(2, too_long)], positive.clone(), &record()),
            (Some(PatchError::DoesNotFit(2)), 1)
        );
        assert_eq!(
            apply(vec![(1, lit(Value::Int(-1)))], positive.clone(), &record()),
            (Some(PatchError::Check), 3)
        );
        let null_pad = PatchError::Record(CodecError::NullViolation { field: 3 });
        assert_eq!(
            apply(vec![(3, lit(Value::Null))], positive, &record()),
            (Some(null_pad), 3)
        );
    }
}
