//! Abstract syntax for the SQL dialect.
//!
//! Name-based expressions ([`AstExpr`]) are bound to record-descriptor
//! field numbers ([`nsql_records::Expr`]) by the planner; the bound form is
//! what travels to the Disk Process. A statement's cached template holds an
//! [`AstExpr::Param`] where its text held a literal.

use nsql_records::{ArithOp, CmpOp, FieldType, Value};

/// A column reference: optional qualifier + column name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    /// Table name or alias (None = unqualified).
    pub qualifier: Option<String>,
    /// Column name.
    pub column: String,
}

/// Unbound (name-based) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// Literal.
    Lit(Value),
    /// A literal lifted out of a cached statement's template: the
    /// `index`-th literal of the statement text, negated when `neg` (the
    /// parser's `-literal` fold). Bound to its value at plan time.
    Param {
        /// Position among the text's literals.
        index: usize,
        /// Negate the value.
        neg: bool,
    },
    /// Column reference.
    Column(ColumnRef),
    /// Arithmetic.
    Arith(Box<AstExpr>, ArithOp, Box<AstExpr>),
    /// Comparison.
    Cmp(Box<AstExpr>, CmpOp, Box<AstExpr>),
    /// AND.
    And(Box<AstExpr>, Box<AstExpr>),
    /// OR.
    Or(Box<AstExpr>, Box<AstExpr>),
    /// NOT.
    Not(Box<AstExpr>),
    /// `IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<AstExpr>,
        /// IS NOT NULL?
        negated: bool,
    },
    /// BETWEEN.
    Between {
        /// Tested expression.
        expr: Box<AstExpr>,
        /// Low bound.
        lo: Box<AstExpr>,
        /// High bound.
        hi: Box<AstExpr>,
    },
    /// IN (list).
    InList(Box<AstExpr>, Vec<AstExpr>),
    /// LIKE pattern.
    Like(Box<AstExpr>, String),
}

/// Aggregate functions: the fold's own, which the Disk Process runs too.
pub use nsql_records::AggFunc;

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// Plain expression with optional alias.
    Expr {
        /// The expression.
        expr: AstExpr,
        /// AS alias.
        alias: Option<String>,
    },
    /// Aggregate call with optional alias. `expr` is `None` for `COUNT(*)`.
    Aggregate {
        /// Function.
        func: AggFunc,
        /// Argument (None = `*`).
        expr: Option<AstExpr>,
        /// AS alias.
        alias: Option<String>,
    },
}

/// A table reference in FROM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Optional alias.
    pub alias: Option<String>,
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort expression (a column in this dialect).
    pub expr: AstExpr,
    /// Descending?
    pub desc: bool,
}

/// SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Select list.
    pub items: Vec<SelectItem>,
    /// FROM tables (joined by nested loops in order).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<AstExpr>,
    /// GROUP BY columns.
    pub group_by: Vec<ColumnRef>,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// Read records through ENSCRIBE-style record-at-a-time access
    /// (`BROWSE RECORD ACCESS` — extension used by experiments to compare
    /// interfaces).
    pub for_browse: bool,
}

/// Column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Data type.
    pub ty: FieldType,
    /// NOT NULL?
    pub not_null: bool,
}

/// CREATE TABLE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// Columns.
    pub columns: Vec<ColumnDef>,
    /// Primary key column names.
    pub primary_key: Vec<String>,
    /// CHECK constraints.
    pub checks: Vec<AstExpr>,
    /// Range partitioning: `(split values, volumes)`. `volumes.len() ==
    /// splits.len() + 1`; empty = single partition on the default volume.
    pub partition: Option<PartitionClause>,
}

/// `PARTITION BY VALUES (v1, v2, ...) ON ('$V1', '$V2', ...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionClause {
    /// Split points on the first primary-key column.
    pub splits: Vec<Value>,
    /// Volume (Disk Process) names, one more than splits.
    pub volumes: Vec<String>,
}

/// CREATE INDEX statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    /// Index name.
    pub name: String,
    /// Base table.
    pub table: String,
    /// Indexed column names.
    pub columns: Vec<String>,
    /// UNIQUE?
    pub unique: bool,
    /// Volume to place the index on (None = same as first partition).
    pub volume: Option<String>,
}

/// INSERT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Explicit column list (empty = declaration order).
    pub columns: Vec<String>,
    /// Row literals.
    pub rows: Vec<Vec<AstExpr>>,
}

/// UPDATE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Target table.
    pub table: String,
    /// SET assignments.
    pub sets: Vec<(String, AstExpr)>,
    /// WHERE predicate.
    pub where_clause: Option<AstExpr>,
}

/// DELETE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Target table.
    pub table: String,
    /// WHERE predicate.
    pub where_clause: Option<AstExpr>,
}

/// Any statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// SELECT.
    Select(Select),
    /// INSERT.
    Insert(Insert),
    /// UPDATE.
    Update(Update),
    /// DELETE.
    Delete(Delete),
    /// CREATE TABLE.
    CreateTable(CreateTable),
    /// CREATE INDEX.
    CreateIndex(CreateIndex),
    /// DROP TABLE.
    DropTable(String),
    /// EXPLAIN: describe the plan of the wrapped statement.
    Explain(Box<Statement>),
    /// EXPLAIN ANALYZE: execute the wrapped statement and describe the plan
    /// annotated with per-operator runtime statistics.
    ExplainAnalyze(Box<Statement>),
    /// BEGIN WORK.
    Begin,
    /// COMMIT WORK.
    Commit,
    /// ROLLBACK WORK.
    Rollback,
}
