//! Name resolution: AST expressions → bound expressions over field numbers.
//!
//! A [`Scope`] is an ordered list of visible tables; the bound field number
//! of a column is its table's offset plus its position in the table's
//! descriptor. For single-table statements the offset is zero, so bound
//! field numbers coincide with record-descriptor field numbers — exactly
//! the form the Disk Process evaluates.

use crate::ast::{AstExpr, ColumnRef};
use crate::lexer::unescape;
use crate::parser::{int_value, negate};
use nsql_records::{Expr, RecordDescriptor, Value};

/// Binding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindError {
    /// Column not found in any visible table.
    UnknownColumn(String),
    /// Column name matches more than one table.
    Ambiguous(String),
    /// Qualifier does not name a visible table.
    UnknownTable(String),
    /// A template parameter with no literal to stand for.
    Unbound(usize),
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::UnknownColumn(c) => write!(f, "unknown column {c}"),
            BindError::Ambiguous(c) => write!(f, "ambiguous column {c}"),
            BindError::UnknownTable(t) => write!(f, "unknown table or alias {t}"),
            BindError::Unbound(i) => write!(f, "parameter {i} has no value"),
        }
    }
}

impl std::error::Error for BindError {}

/// One literal of a statement text, as the statement cache's scan read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Lit {
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Float(f64),
    /// String literal: its body is `len` bytes at byte `at` of the text,
    /// `''` escapes still doubled.
    Str { at: usize, len: usize },
}

/// What a template's [`AstExpr::Param`]s stand for: one statement text and
/// its literals, in text order.
#[derive(Debug, Clone, Copy)]
pub struct Params<'a> {
    sql: &'a str,
    lits: &'a [Lit],
}

impl<'a> Params<'a> {
    /// No parameters: what a parsed statement, which holds none, binds with.
    pub const NONE: Params<'static> = Params { sql: "", lits: &[] };

    pub(crate) fn new(sql: &'a str, lits: &'a [Lit]) -> Self {
        Params { sql, lits }
    }

    /// Parameter `index`'s value, built as the parser builds the literal:
    /// `Int` or `LargeInt` by magnitude, then negated.
    fn value(&self, index: usize, neg: bool) -> Result<Value, BindError> {
        let v = match self.lits.get(index) {
            Some(Lit::Int(n)) => int_value(*n),
            Some(Lit::Float(x)) => Value::Double(*x),
            Some(&Lit::Str { at, len }) => match self.sql.get(at..at + len) {
                Some(body) => Value::Str(unescape(body)),
                None => return Err(BindError::Unbound(index)),
            },
            None => return Err(BindError::Unbound(index)),
        };
        Ok(if neg { negate(v) } else { v })
    }
}

/// One visible table in a scope.
pub struct ScopeTable<'a> {
    /// Name it answers to (compared ignoring ASCII case).
    pub name: &'a str,
    /// Alias it also answers to.
    pub alias: Option<&'a str>,
    /// Its record layout.
    pub desc: &'a RecordDescriptor,
    /// Field-number offset of its first column in the combined row.
    pub offset: u16,
}

impl ScopeTable<'_> {
    fn answers_to(&self, qualifier: &str) -> bool {
        self.name.eq_ignore_ascii_case(qualifier)
            || self
                .alias
                .is_some_and(|a| a.eq_ignore_ascii_case(qualifier))
    }
}

/// An ordered name scope.
pub struct Scope<'a> {
    /// Visible tables.
    pub tables: Vec<ScopeTable<'a>>,
}

impl<'a> Scope<'a> {
    /// Scope over a single table at offset 0.
    pub fn single(name: &'a str, desc: &'a RecordDescriptor) -> Scope<'a> {
        Scope::over([(name, None, desc)])
    }

    /// Build a multi-table scope from `(name, alias, layout)`; offsets
    /// accumulate in order.
    pub fn over(
        tables: impl IntoIterator<Item = (&'a str, Option<&'a str>, &'a RecordDescriptor)>,
    ) -> Scope<'a> {
        let mut offset = 0u16;
        let tables = tables
            .into_iter()
            .map(|(name, alias, desc)| {
                let t = ScopeTable {
                    name,
                    alias,
                    desc,
                    offset,
                };
                offset += desc.num_fields() as u16;
                t
            })
            .collect();
        Scope { tables }
    }

    /// Resolve a column reference to a combined-row field number. Names
    /// compare ignoring ASCII case; errors spell them upper-cased.
    pub fn resolve(&self, col: &ColumnRef) -> Result<u16, BindError> {
        let cname = || col.column.to_ascii_uppercase();
        match &col.qualifier {
            Some(q) => {
                let t = self
                    .tables
                    .iter()
                    .find(|t| t.answers_to(q))
                    .ok_or_else(|| BindError::UnknownTable(q.to_ascii_uppercase()))?;
                let f = t
                    .desc
                    .field_named(&col.column)
                    .ok_or_else(|| BindError::UnknownColumn(format!("{q}.{}", cname())))?;
                Ok(t.offset + f)
            }
            None => {
                let mut found = None;
                for t in &self.tables {
                    if let Some(f) = t.desc.field_named(&col.column) {
                        if found.is_some() {
                            return Err(BindError::Ambiguous(cname()));
                        }
                        found = Some(t.offset + f);
                    }
                }
                found.ok_or_else(|| BindError::UnknownColumn(cname()))
            }
        }
    }
}

/// Bind a name-based expression into field-number form, each
/// [`AstExpr::Param`] to its value in `params`.
pub fn bind_expr(ast: &AstExpr, scope: &Scope, params: &Params) -> Result<Expr, BindError> {
    let bind = |e: &AstExpr| bind_expr(e, scope, params);
    let boxed = |e: &AstExpr| bind(e).map(Box::new);
    Ok(match ast {
        AstExpr::Lit(v) => Expr::Lit(v.clone()),
        AstExpr::Param { index, neg } => Expr::Lit(params.value(*index, *neg)?),
        AstExpr::Column(c) => Expr::Field(scope.resolve(c)?),
        AstExpr::Arith(a, op, b) => Expr::Arith(boxed(a)?, *op, boxed(b)?),
        AstExpr::Cmp(a, op, b) => Expr::Cmp(boxed(a)?, *op, boxed(b)?),
        AstExpr::And(a, b) => Expr::and(bind(a)?, bind(b)?),
        AstExpr::Or(a, b) => Expr::or(bind(a)?, bind(b)?),
        AstExpr::Not(a) => Expr::Not(boxed(a)?),
        AstExpr::IsNull { expr, negated } => Expr::IsNull {
            expr: boxed(expr)?,
            negated: *negated,
        },
        AstExpr::Between { expr, lo, hi } => Expr::Between {
            expr: boxed(expr)?,
            lo: boxed(lo)?,
            hi: boxed(hi)?,
        },
        AstExpr::InList(e, list) => {
            Expr::InList(boxed(e)?, list.iter().map(bind).collect::<Result<_, _>>()?)
        }
        AstExpr::Like(e, p) => Expr::Like(boxed(e)?, p.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse;
    use nsql_records::{FieldDef, FieldType};

    fn emp() -> RecordDescriptor {
        RecordDescriptor::new(
            vec![
                FieldDef::new("EMPNO", FieldType::Int),
                FieldDef::new("NAME", FieldType::Char(8)),
                FieldDef::new("DEPTNO", FieldType::Int),
            ],
            vec![0],
        )
    }

    fn dept() -> RecordDescriptor {
        RecordDescriptor::new(
            vec![
                FieldDef::new("DEPTNO", FieldType::Int),
                FieldDef::new("DNAME", FieldType::Char(8)),
            ],
            vec![0],
        )
    }

    fn where_of(sql: &str) -> AstExpr {
        let Statement::Select(s) = parse(sql).unwrap() else {
            panic!()
        };
        s.where_clause.unwrap()
    }

    #[test]
    fn single_table_binding() {
        let d = emp();
        let scope = Scope::single("EMP", &d);
        let e = bind_expr(
            &where_of("SELECT * FROM EMP WHERE EMPNO <= 1000 AND NAME = 'X'"),
            &scope,
            &Params::NONE,
        )
        .unwrap();
        let mut fields = Vec::new();
        e.collect_fields(&mut fields);
        assert_eq!(fields, vec![0, 1]);
    }

    #[test]
    fn qualified_and_offset_binding() {
        let (e_desc, d_desc) = (emp(), dept());
        let scope = Scope::over([("EMP", Some("E"), &e_desc), ("DEPT", Some("D"), &d_desc)]);
        let e = bind_expr(
            &where_of("SELECT * FROM EMP E, DEPT D WHERE E.DEPTNO = D.DEPTNO"),
            &scope,
            &Params::NONE,
        )
        .unwrap();
        let mut fields = Vec::new();
        e.collect_fields(&mut fields);
        assert_eq!(fields, vec![2, 3], "DEPT columns offset past EMP's");
    }

    #[test]
    fn ambiguity_detected() {
        let (e_desc, d_desc) = (emp(), dept());
        let scope = Scope::over([("EMP", None, &e_desc), ("DEPT", None, &d_desc)]);
        let err = bind_expr(
            &where_of("SELECT * FROM EMP, DEPT WHERE DEPTNO = 1"),
            &scope,
            &Params::NONE,
        )
        .unwrap_err();
        assert_eq!(err, BindError::Ambiguous("DEPTNO".into()));
        // Unqualified but unique columns bind fine.
        bind_expr(
            &where_of("SELECT * FROM EMP, DEPT WHERE DNAME = 'X'"),
            &scope,
            &Params::NONE,
        )
        .unwrap();
    }

    #[test]
    fn unknown_names_rejected() {
        let d = emp();
        let scope = Scope::single("EMP", &d);
        assert!(matches!(
            bind_expr(
                &where_of("SELECT * FROM EMP WHERE NOPE = 1"),
                &scope,
                &Params::NONE
            ),
            Err(BindError::UnknownColumn(_))
        ));
        assert!(matches!(
            bind_expr(
                &where_of("SELECT * FROM EMP WHERE X.EMPNO = 1"),
                &scope,
                &Params::NONE
            ),
            Err(BindError::UnknownTable(_))
        ));
    }
}
