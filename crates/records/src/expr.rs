//! Bound expressions — the "single-variable queries" shipped to the Disk
//! Process.
//!
//! An [`Expr`] references fields *by field number* within one record
//! descriptor (the paper: fields are "identified by their record descriptor
//! field numbers"). The SQL front end binds column names to numbers at
//! compile time; the Disk Process evaluates the bound form against raw
//! record bytes. Evaluation uses SQL three-valued logic: a predicate admits
//! a record only when it evaluates to exactly `TRUE`.

use crate::row::RowAccessor;
use crate::value::Value;
use std::cmp::Ordering;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Does `ord` satisfy this operator?
    pub fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with sides swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }
}

/// A bound expression over one record.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Lit(Value),
    /// Field reference by record-descriptor field number.
    Field(u16),
    /// Arithmetic.
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    /// Comparison.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Logical AND (three-valued).
    And(Box<Expr>, Box<Expr>),
    /// Logical OR (three-valued).
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT (three-valued).
    Not(Box<Expr>),
    /// `IS NULL` (`negated` = `IS NOT NULL`). Always two-valued.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr BETWEEN lo AND hi`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
    },
    /// `expr IN (list)`.
    InList(Box<Expr>, Vec<Expr>),
    /// `expr LIKE 'pattern'` with `%` and `_` wildcards.
    Like(Box<Expr>, String),
}

/// Evaluation errors (type errors that escaped bind-time checking, division
/// by zero, overflow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Operand types unusable for the operator.
    Type(&'static str),
    /// Division by zero, integer or DOUBLE.
    DivideByZero,
    /// Integer overflow, or a DOUBLE result that is not finite.
    Overflow,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Type(what) => write!(f, "type error: {what}"),
            EvalError::DivideByZero => write!(f, "division by zero"),
            EvalError::Overflow => write!(f, "arithmetic overflow"),
        }
    }
}

impl std::error::Error for EvalError {}

impl Expr {
    /// Shorthand for a literal.
    pub fn lit(v: Value) -> Expr {
        Expr::Lit(v)
    }

    /// Shorthand for `Field(i) op value`.
    pub fn field_cmp(i: u16, op: CmpOp, v: Value) -> Expr {
        Expr::Cmp(Box::new(Expr::Field(i)), op, Box::new(Expr::Lit(v)))
    }

    /// `a AND b`.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// `a OR b`.
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Or(Box::new(a), Box::new(b))
    }

    /// Evaluate against a row.
    pub fn eval(&self, row: &dyn RowAccessor) -> Result<Value, EvalError> {
        match self {
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Field(i) => Ok(row.field(*i)),
            Expr::Arith(a, op, b) => arith(a.eval(row)?, *op, b.eval(row)?),
            Expr::Cmp(a, op, b) => {
                let (va, vb) = (a.eval(row)?, b.eval(row)?);
                Ok(match va.sql_cmp(&vb) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(op.matches(ord)),
                })
            }
            Expr::And(a, b) => {
                // Three-valued AND with short circuit on FALSE.
                match truth(a.eval(row)?)? {
                    Some(false) => Ok(Value::Bool(false)),
                    la => match (la, truth(b.eval(row)?)?) {
                        (_, Some(false)) => Ok(Value::Bool(false)),
                        (Some(true), Some(true)) => Ok(Value::Bool(true)),
                        _ => Ok(Value::Null),
                    },
                }
            }
            Expr::Or(a, b) => match truth(a.eval(row)?)? {
                Some(true) => Ok(Value::Bool(true)),
                la => match (la, truth(b.eval(row)?)?) {
                    (_, Some(true)) => Ok(Value::Bool(true)),
                    (Some(false), Some(false)) => Ok(Value::Bool(false)),
                    _ => Ok(Value::Null),
                },
            },
            Expr::Not(a) => Ok(match truth(a.eval(row)?)? {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            }),
            Expr::IsNull { expr, negated } => {
                let isnull = expr.eval(row)?.is_null();
                Ok(Value::Bool(isnull != *negated))
            }
            Expr::Between { expr, lo, hi } => {
                let v = expr.eval(row)?;
                let ge = Expr::cmp_values(&v, CmpOp::Ge, &lo.eval(row)?);
                let le = Expr::cmp_values(&v, CmpOp::Le, &hi.eval(row)?);
                Ok(match (ge, le) {
                    (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                    (Some(true), Some(true)) => Value::Bool(true),
                    _ => Value::Null,
                })
            }
            Expr::InList(e, list) => {
                let v = e.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    match v.sql_cmp(&item.eval(row)?) {
                        Some(Ordering::Equal) => return Ok(Value::Bool(true)),
                        None => saw_null = true,
                        _ => {}
                    }
                }
                Ok(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(false)
                })
            }
            Expr::Like(e, pattern) => match e.eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Bool(like_match(&s, pattern))),
                _ => Err(EvalError::Type("LIKE requires a string operand")),
            },
        }
    }

    fn cmp_values(a: &Value, op: CmpOp, b: &Value) -> Option<bool> {
        a.sql_cmp(b).map(|ord| op.matches(ord))
    }

    /// Predicate form of evaluation: does the row pass (evaluate to TRUE)?
    pub fn passes(&self, row: &dyn RowAccessor) -> Result<bool, EvalError> {
        Ok(matches!(self.eval(row)?, Value::Bool(true)))
    }

    /// Field numbers referenced by this expression, collected into `out`.
    pub fn collect_fields(&self, out: &mut Vec<u16>) {
        self.for_each_field(&mut |i| out.push(i));
    }

    /// Call `visit` with each field number referenced, left to right.
    pub fn for_each_field(&self, visit: &mut dyn FnMut(u16)) {
        match self {
            Expr::Lit(_) => {}
            Expr::Field(i) => visit(*i),
            Expr::Arith(a, _, b) | Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.for_each_field(visit);
                b.for_each_field(visit);
            }
            Expr::Not(a) | Expr::IsNull { expr: a, .. } | Expr::Like(a, _) => {
                a.for_each_field(visit)
            }
            Expr::Between { expr, lo, hi } => {
                expr.for_each_field(visit);
                lo.for_each_field(visit);
                hi.for_each_field(visit);
            }
            Expr::InList(e, list) => {
                e.for_each_field(visit);
                for item in list {
                    item.for_each_field(visit);
                }
            }
        }
    }

    /// Rewrite field numbers through `map` (old field number → new).
    /// Used when pushing an executor-level predicate (numbered over a join
    /// row or over the base table) down to a projected record layout.
    pub fn remap_fields(&self, map: &dyn Fn(u16) -> u16) -> Expr {
        match self {
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Field(i) => Expr::Field(map(*i)),
            Expr::Arith(a, op, b) => Expr::Arith(
                Box::new(a.remap_fields(map)),
                *op,
                Box::new(b.remap_fields(map)),
            ),
            Expr::Cmp(a, op, b) => Expr::Cmp(
                Box::new(a.remap_fields(map)),
                *op,
                Box::new(b.remap_fields(map)),
            ),
            Expr::And(a, b) => Expr::and(a.remap_fields(map), b.remap_fields(map)),
            Expr::Or(a, b) => Expr::or(a.remap_fields(map), b.remap_fields(map)),
            Expr::Not(a) => Expr::Not(Box::new(a.remap_fields(map))),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.remap_fields(map)),
                negated: *negated,
            },
            Expr::Between { expr, lo, hi } => Expr::Between {
                expr: Box::new(expr.remap_fields(map)),
                lo: Box::new(lo.remap_fields(map)),
                hi: Box::new(hi.remap_fields(map)),
            },
            Expr::InList(e, list) => Expr::InList(
                Box::new(e.remap_fields(map)),
                list.iter().map(|i| i.remap_fields(map)).collect(),
            ),
            Expr::Like(e, p) => Expr::Like(Box::new(e.remap_fields(map)), p.clone()),
        }
    }

    /// Approximate size of this expression in an FS-DP message.
    pub fn wire_size(&self) -> usize {
        1 + match self {
            Expr::Lit(v) => v.wire_size(),
            Expr::Field(_) => 2,
            Expr::Arith(a, _, b) | Expr::Cmp(a, _, b) => 1 + a.wire_size() + b.wire_size(),
            Expr::And(a, b) | Expr::Or(a, b) => a.wire_size() + b.wire_size(),
            Expr::Not(a) | Expr::IsNull { expr: a, .. } => a.wire_size(),
            Expr::Between { expr, lo, hi } => expr.wire_size() + lo.wire_size() + hi.wire_size(),
            Expr::InList(e, list) => {
                e.wire_size() + list.iter().map(Expr::wire_size).sum::<usize>()
            }
            Expr::Like(e, p) => e.wire_size() + 2 + p.len(),
        }
    }

    /// Rough CPU work units to evaluate once (for path-length accounting).
    pub fn eval_cost(&self) -> u64 {
        1 + match self {
            Expr::Lit(_) | Expr::Field(_) => 0,
            Expr::Arith(a, _, b) | Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.eval_cost() + b.eval_cost()
            }
            Expr::Not(a) | Expr::IsNull { expr: a, .. } | Expr::Like(a, _) => a.eval_cost(),
            Expr::Between { expr, lo, hi } => expr.eval_cost() + lo.eval_cost() + hi.eval_cost(),
            Expr::InList(e, list) => e.eval_cost() + list.iter().map(Expr::eval_cost).sum::<u64>(),
        }
    }
}

impl std::fmt::Display for Expr {
    /// Compact rendering with `F<n>` field references (used by EXPLAIN).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Field(i) => write!(f, "F{i}"),
            Expr::Arith(a, op, b) => {
                let sym = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                    ArithOp::Div => "/",
                };
                write!(f, "({a} {sym} {b})")
            }
            Expr::Cmp(a, op, b) => {
                let sym = match op {
                    CmpOp::Eq => "=",
                    CmpOp::Ne => "<>",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                write!(f, "{a} {sym} {b}")
            }
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(a) => write!(f, "NOT ({a})"),
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::Between { expr, lo, hi } => write!(f, "{expr} BETWEEN {lo} AND {hi}"),
            Expr::InList(e, list) => {
                write!(f, "{e} IN (")?;
                for (i, item) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
            Expr::Like(e, p) => write!(f, "{e} LIKE '{p}'"),
        }
    }
}

/// Truth view of a value for 3VL connectives.
pub(crate) fn truth(v: Value) -> Result<Option<bool>, EvalError> {
    match v {
        Value::Bool(b) => Ok(Some(b)),
        Value::Null => Ok(None),
        _ => Err(EvalError::Type("boolean expression expected")),
    }
}

fn arith(a: Value, op: ArithOp, b: Value) -> Result<Value, EvalError> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    // Integer op integer stays integer (widened to LARGEINT); any double
    // operand promotes the result to double.
    if let (Some(x), Some(y)) = (a.as_i64(), b.as_i64()) {
        let r = match op {
            ArithOp::Add => x.checked_add(y),
            ArithOp::Sub => x.checked_sub(y),
            ArithOp::Mul => x.checked_mul(y),
            ArithOp::Div => {
                if y == 0 {
                    return Err(EvalError::DivideByZero);
                }
                x.checked_div(y)
            }
        };
        return r.map(Value::LargeInt).ok_or(EvalError::Overflow);
    }
    let (x, y) = (
        a.as_f64()
            .ok_or(EvalError::Type("numeric operand expected"))?,
        b.as_f64()
            .ok_or(EvalError::Type("numeric operand expected"))?,
    );
    // A DOUBLE fails where an integer would: dividing by zero, or leaving
    // the finite range (an infinity or a NaN is no value a column stores).
    let r = match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div if y == 0.0 => return Err(EvalError::DivideByZero),
        ArithOp::Div => x / y,
    };
    if !r.is_finite() {
        return Err(EvalError::Overflow);
    }
    Ok(Value::Double(r))
}

/// SQL `LIKE` matcher: `%` matches any run, `_` matches one character.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'%') => {
                // Greedy collapse of consecutive %.
                let p = &p[1..];
                if p.is_empty() {
                    return true;
                }
                (0..=s.len()).any(|i| rec(&s[i..], p))
            }
            Some(b'_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(&c) => s.first() == Some(&c) && rec(&s[1..], &p[1..]),
        }
    }
    rec(s.as_bytes(), pattern.as_bytes())
}

/// An update-expression list: `SET field = expr, ...` with expressions over
/// the *old* record values (the paper's "new value for a field in terms of
/// an expression involving only literals and fields of the record at hand").
#[derive(Debug, Clone, PartialEq)]
pub struct SetList {
    /// `(field number, new-value expression)` pairs.
    pub sets: Vec<(u16, Expr)>,
}

impl SetList {
    /// Apply to a decoded row, producing the new values. All expressions see
    /// the old row (simultaneous assignment, per SQL semantics).
    pub fn apply(&self, old: &dyn RowAccessor) -> Result<Vec<(u16, Value)>, EvalError> {
        self.sets
            .iter()
            .map(|(f, e)| Ok((*f, e.eval(old)?)))
            .collect()
    }

    /// Field numbers assigned by this list.
    pub fn target_fields(&self) -> Vec<u16> {
        self.sets.iter().map(|(f, _)| *f).collect()
    }

    /// Approximate wire size in an FS-DP message.
    pub fn wire_size(&self) -> usize {
        self.sets
            .iter()
            .map(|(_, e)| 2 + e.wire_size())
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;

    fn row() -> Row {
        Row(vec![
            Value::Int(10),
            Value::Double(250.5),
            Value::Str("ALICE".into()),
            Value::Null,
        ])
    }

    #[test]
    fn comparison_and_arith() {
        let r = row();
        // F0 + 5 > 14
        let e = Expr::Cmp(
            Box::new(Expr::Arith(
                Box::new(Expr::Field(0)),
                ArithOp::Add,
                Box::new(Expr::lit(Value::Int(5))),
            )),
            CmpOp::Gt,
            Box::new(Expr::lit(Value::Int(14))),
        );
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        let r = row();
        let null_cmp = Expr::field_cmp(3, CmpOp::Eq, Value::Int(1)); // NULL = 1 -> NULL
        assert_eq!(null_cmp.eval(&r).unwrap(), Value::Null);
        // NULL AND FALSE = FALSE
        let e = Expr::and(null_cmp.clone(), Expr::lit(Value::Bool(false)));
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(false));
        // NULL AND TRUE = NULL
        let e = Expr::and(null_cmp.clone(), Expr::lit(Value::Bool(true)));
        assert_eq!(e.eval(&r).unwrap(), Value::Null);
        // NULL OR TRUE = TRUE
        let e = Expr::or(null_cmp.clone(), Expr::lit(Value::Bool(true)));
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
        // NOT NULL = NULL
        assert_eq!(Expr::Not(Box::new(null_cmp)).eval(&r).unwrap(), Value::Null);
        // passes() treats NULL as not-selected
        let p = Expr::field_cmp(3, CmpOp::Eq, Value::Int(1));
        assert!(!p.passes(&r).unwrap());
    }

    #[test]
    fn is_null_is_two_valued() {
        let r = row();
        let e = Expr::IsNull {
            expr: Box::new(Expr::Field(3)),
            negated: false,
        };
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
        let e = Expr::IsNull {
            expr: Box::new(Expr::Field(0)),
            negated: true,
        };
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn between_and_in() {
        let r = row();
        let e = Expr::Between {
            expr: Box::new(Expr::Field(0)),
            lo: Box::new(Expr::lit(Value::Int(5))),
            hi: Box::new(Expr::lit(Value::Int(15))),
        };
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
        let e = Expr::InList(
            Box::new(Expr::Field(0)),
            vec![Expr::lit(Value::Int(9)), Expr::lit(Value::Int(10))],
        );
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
        // IN with NULL in list and no match -> NULL.
        let e = Expr::InList(
            Box::new(Expr::Field(0)),
            vec![Expr::lit(Value::Int(9)), Expr::lit(Value::Null)],
        );
        assert_eq!(e.eval(&r).unwrap(), Value::Null);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("ALICE", "ALICE"));
        assert!(like_match("ALICE", "A%"));
        assert!(like_match("ALICE", "%ICE"));
        assert!(like_match("ALICE", "%LI%"));
        assert!(like_match("ALICE", "_LICE"));
        assert!(like_match("ALICE", "%"));
        assert!(!like_match("ALICE", "B%"));
        assert!(!like_match("ALICE", "ALICE_"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("AXXB", "A%B"));
    }

    #[test]
    fn divide_by_zero_and_overflow() {
        let r = row();
        let e = Expr::Arith(
            Box::new(Expr::Field(0)),
            ArithOp::Div,
            Box::new(Expr::lit(Value::Int(0))),
        );
        assert_eq!(e.eval(&r), Err(EvalError::DivideByZero));
        let e = Expr::Arith(
            Box::new(Expr::lit(Value::LargeInt(i64::MAX))),
            ArithOp::Add,
            Box::new(Expr::lit(Value::Int(1))),
        );
        assert_eq!(e.eval(&r), Err(EvalError::Overflow));
    }

    #[test]
    fn double_arithmetic_fails_where_integer_arithmetic_does() {
        let r = row();
        let arith = |a: Value, op: ArithOp, b: Value| {
            Expr::Arith(Box::new(Expr::lit(a)), op, Box::new(Expr::lit(b))).eval(&r)
        };
        let d = Value::Double;
        // A DOUBLE zero of either sign divides nothing, 0.0 included.
        for zero in [d(0.0), d(-0.0)] {
            let e = Expr::Arith(
                Box::new(Expr::Field(1)),
                ArithOp::Div,
                Box::new(Expr::lit(zero)),
            );
            assert_eq!(e.eval(&r), Err(EvalError::DivideByZero));
        }
        for dividend in [Value::Int(1), d(0.0)] {
            assert_eq!(
                arith(dividend, ArithOp::Div, d(0.0)),
                Err(EvalError::DivideByZero)
            );
        }
        // Out of the finite range by any operator, or from an operand that
        // is an infinity or a NaN.
        for (a, op, b) in [
            (d(1e308), ArithOp::Mul, Value::Int(10)),
            (d(f64::MAX), ArithOp::Add, d(f64::MAX)),
            (d(-f64::MAX), ArithOp::Sub, d(f64::MAX)),
            (d(1e300), ArithOp::Div, d(1e-300)),
            (d(f64::NAN), ArithOp::Add, d(1.0)),
            (d(f64::INFINITY), ArithOp::Mul, d(1.0)),
        ] {
            assert_eq!(arith(a, op, b), Err(EvalError::Overflow));
        }
        // Within it nothing changes, underflow to zero included.
        assert_eq!(arith(d(250.5), ArithOp::Div, d(2.0)), Ok(d(125.25)));
        assert_eq!(arith(d(1e-300), ArithOp::Mul, d(1e-300)), Ok(d(0.0)));
    }

    #[test]
    fn null_arith_propagates() {
        let r = row();
        let e = Expr::Arith(
            Box::new(Expr::Field(3)),
            ArithOp::Mul,
            Box::new(Expr::lit(Value::Int(2))),
        );
        assert_eq!(e.eval(&r).unwrap(), Value::Null);
    }

    #[test]
    fn set_list_sees_old_values() {
        // Simultaneous: SET F0 = F0 + F0, F1 = F0  (F1 gets OLD F0)
        let r = row();
        let s = SetList {
            sets: vec![
                (
                    0,
                    Expr::Arith(
                        Box::new(Expr::Field(0)),
                        ArithOp::Add,
                        Box::new(Expr::Field(0)),
                    ),
                ),
                (1, Expr::Field(0)),
            ],
        };
        let out = s.apply(&r).unwrap();
        assert_eq!(out[0], (0, Value::LargeInt(20)));
        assert_eq!(out[1], (1, Value::Int(10)), "second set sees the OLD F0");
    }

    #[test]
    fn collect_and_remap_fields() {
        let e = Expr::and(
            Expr::field_cmp(2, CmpOp::Eq, Value::Str("X".into())),
            Expr::field_cmp(5, CmpOp::Gt, Value::Int(0)),
        );
        let mut fields = Vec::new();
        e.collect_fields(&mut fields);
        assert_eq!(fields, vec![2, 5]);
        let remapped = e.remap_fields(&|f| f - 2);
        let mut fields = Vec::new();
        remapped.collect_fields(&mut fields);
        assert_eq!(fields, vec![0, 3]);
    }

    #[test]
    fn wire_size_and_cost_positive() {
        let e = Expr::field_cmp(1, CmpOp::Gt, Value::Double(32000.0));
        assert!(e.wire_size() > 8);
        assert!(e.eval_cost() >= 1);
    }
}
