//! The query planner.
//!
//! "Although a general SQL predicate can be multi-variable ..., the
//! Executor's File System invocations, mandated by the plan produced by the
//! SQL query compiler, are in terms of a single table, with optional access
//! via a secondary index."
//!
//! Planning therefore decomposes every statement into per-table accesses:
//!
//! 1. the WHERE clause is split into conjuncts;
//! 2. conjuncts referencing a single table become that table's
//!    **single-variable query**, shipped to its Disk Processes;
//! 3. conjuncts on the table's primary-key prefix further become the
//!    **key range** of the set-oriented request;
//! 4. a secondary **index** is chosen when it bounds the scan better than
//!    the primary key does;
//! 5. only the **fields needed upstream** are fetched (projection
//!    pushdown);
//! 6. cross-table conjuncts remain as the executor's join filter.

use crate::ast::{self, AstExpr, Select, SelectItem, Statement};
use crate::bind::{bind_expr, BindError, Params, Scope};
use crate::catalog::{Catalog, CatalogError, TableInfo};
use crate::parser::ParseError;
use nsql_dp::SubsetMode;
use nsql_records::fold::pushable;
use nsql_records::key::encode_key_value;
use nsql_records::{
    CmpOp, Expr, FieldType, KeyRange, OwnedBound, RecordDescriptor, SetList, Value,
};
use std::sync::Arc;

/// Planning errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The statement text did not parse (planning from text).
    Parse(ParseError),
    /// Catalog lookup failed.
    Catalog(CatalogError),
    /// Binding failed.
    Bind(BindError),
    /// Statement shape unsupported or invalid.
    Unsupported(String),
}

impl From<ParseError> for PlanError {
    fn from(e: ParseError) -> Self {
        PlanError::Parse(e)
    }
}

impl From<CatalogError> for PlanError {
    fn from(e: CatalogError) -> Self {
        PlanError::Catalog(e)
    }
}

impl From<BindError> for PlanError {
    fn from(e: BindError) -> Self {
        PlanError::Bind(e)
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Parse(e) => write!(f, "{e}"),
            PlanError::Catalog(e) => write!(f, "{e}"),
            PlanError::Bind(e) => write!(f, "{e}"),
            PlanError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// How one table is accessed.
#[derive(Debug, Clone)]
pub enum AccessPath {
    /// Primary-key-ordered subset scan over a key range with a pushed-down
    /// single-variable query.
    TableScan {
        /// Primary-key range.
        range: KeyRange,
        /// Pushed-down predicate (table-local field numbers).
        pushdown: Option<Expr>,
        /// How the rows travel: `SELECT *` with no predicate via RSBB,
        /// whole records (paper example 2); anything with selection or
        /// projection via VSBB, the fetch list only (example 1).
        mode: SubsetMode,
    },
    /// The old record-at-a-time interface (`FOR BROWSE RECORD ACCESS`, an
    /// experiment extension): every record in one message each, filtered
    /// by the executor's residual.
    Browse,
    /// Access through a secondary index.
    IndexScan {
        /// Index position within the table's index list.
        index: usize,
        /// Index-key range.
        range: KeyRange,
        /// Predicate over the *index row*, pushed to the index's Disk
        /// Process.
        index_pushdown: Option<Expr>,
        /// When every fetched field lies in the index row and the index
        /// answers the whole predicate (no base fetch): the index-row
        /// position of each fetched field, in fetch order.
        index_only: Option<Vec<u16>>,
    },
    /// A one-table aggregate folded where the records lie: a subset scan
    /// whose Disk Process requests each reply with the partial groups of
    /// the records they select, which the executor merges. Chosen for a
    /// `GROUP BY` or global aggregate over a [`AccessPath::TableScan`] when
    /// every aggregate is [`pushable`].
    AggregateScan {
        /// Primary-key range.
        range: KeyRange,
        /// Pushed-down predicate (table-local field numbers).
        pushdown: Option<Expr>,
        /// Grouping fields (table-local), in the plan's group order.
        group_by: Vec<u16>,
        /// Each aggregate over its table-local field (`None` = `*`), in
        /// the plan's order.
        aggs: Vec<(ast::AggFunc, Option<u16>)>,
    },
    /// Scan of a `sys.*` virtual table, served by the executor from the
    /// statement's introspection snapshot — no File System messages.
    SysScan {
        /// Single-variable predicate, evaluated over the full virtual row.
        pushdown: Option<Expr>,
    },
}

/// One table's access within a SELECT plan.
#[derive(Debug, Clone)]
pub struct TableAccess {
    /// The table's catalog entry.
    pub info: Arc<TableInfo>,
    /// Chosen path.
    pub access: AccessPath,
    /// Base-table fields fetched (in ascending order); the table's
    /// contribution to the combined row.
    pub fetch_fields: Vec<u16>,
    /// Residual predicate over whole rows (table field numbering),
    /// evaluated by the executor before it takes the fetched fields: the
    /// table's whole predicate on the paths that cannot push it down
    /// (browse, and an index scan that fetches base rows).
    pub residual: Option<Expr>,
}

/// Aggregate computation description.
#[derive(Debug, Clone)]
pub struct AggPlan {
    /// Group-by positions (combined-row numbering).
    pub group_by: Vec<u16>,
    /// Aggregates: function + argument over the combined row (None = `*`).
    pub aggs: Vec<(ast::AggFunc, Option<Expr>)>,
    /// Output items in SELECT order: `GroupCol(i)` picks `group_by[i]`,
    /// `Agg(i)` picks aggregate i.
    pub output: Vec<AggOutput>,
}

/// One output column of an aggregate query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOutput {
    /// The i-th GROUP BY column.
    GroupCol(usize),
    /// The i-th aggregate.
    Agg(usize),
}

/// How the result's values are taken from a sorted combined row.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// The combined row as fetched is the result row.
    Fetched,
    /// Distinct plain columns of the combined row, in output order: each
    /// value is wanted once, so it moves.
    Columns(Vec<u16>),
    /// Any other output list: one expression per column, evaluated.
    Exprs(Vec<Expr>),
}

/// What a SELECT makes of its joined rows: exactly one of two shapes.
#[derive(Debug, Clone)]
pub enum Shape {
    /// One result row per joined row.
    Rows {
        /// Sort keys over the combined row, applied before projection.
        order_by: Vec<(Expr, bool)>,
        /// The output list.
        project: Projection,
    },
    /// One result row per group.
    Groups {
        /// The aggregation.
        agg: AggPlan,
        /// Sort keys over the output columns.
        order_by: Vec<(Expr, bool)>,
    },
}

impl Shape {
    /// The sort keys of either shape (none: no FastSort).
    pub fn order_by(&self) -> &[(Expr, bool)] {
        match self {
            Shape::Rows { order_by, .. } | Shape::Groups { order_by, .. } => order_by,
        }
    }
}

/// A planned SELECT: everything the executor and EXPLAIN read, decided
/// once.
#[derive(Debug, Clone)]
pub struct SelectPlan {
    /// Table accesses, joined left-to-right by nested loops.
    pub tables: Vec<TableAccess>,
    /// Cross-table filter over the combined row.
    pub join_filter: Option<Expr>,
    /// Column names of the result.
    pub column_names: Vec<String>,
    /// What is made of the joined rows.
    pub shape: Shape,
}

/// A planned UPDATE.
#[derive(Debug, Clone)]
pub struct UpdatePlan {
    /// Target table.
    pub info: Arc<TableInfo>,
    /// Primary-key range.
    pub range: KeyRange,
    /// Pushed-down predicate.
    pub predicate: Option<Expr>,
    /// Bound SET list.
    pub sets: SetList,
    /// Conjoined CHECK constraints (pushed to the Disk Process).
    pub constraint: Option<Expr>,
}

/// A planned DELETE.
#[derive(Debug, Clone)]
pub struct DeletePlan {
    /// Target table.
    pub info: Arc<TableInfo>,
    /// Primary-key range.
    pub range: KeyRange,
    /// Pushed-down predicate.
    pub predicate: Option<Expr>,
}

/// A planned INSERT.
#[derive(Debug, Clone)]
pub struct InsertPlan {
    /// Target table.
    pub info: Arc<TableInfo>,
    /// Fully-evaluated, coerced rows in declaration order.
    pub rows: Vec<Vec<Value>>,
}

/// Any planned statement.
#[derive(Debug, Clone)]
pub enum Plan {
    /// SELECT.
    Select(SelectPlan),
    /// INSERT.
    Insert(InsertPlan),
    /// UPDATE.
    Update(UpdatePlan),
    /// DELETE.
    Delete(DeletePlan),
    /// EXPLAIN of a planned statement.
    Explain(Box<Plan>),
    /// EXPLAIN ANALYZE: execute the planned statement, annotating each
    /// operator with its measured cost.
    ExplainAnalyze(Box<Plan>),
    /// DDL and transaction control execute directly in the session.
    Passthrough(Statement),
}

impl Plan {
    /// Does this plan read any `sys.*` virtual table? The session uses this
    /// to decide whether a statement needs an introspection snapshot.
    pub fn references_sys(&self) -> bool {
        match self {
            Plan::Select(p) => p
                .tables
                .iter()
                .any(|t| matches!(t.access, AccessPath::SysScan { .. })),
            Plan::Explain(inner) | Plan::ExplainAnalyze(inner) => inner.references_sys(),
            Plan::Insert(_) | Plan::Update(_) | Plan::Delete(_) | Plan::Passthrough(_) => false,
        }
    }
}

/// Resolve a FROM-position name: `sys.*` virtual tables first, then the
/// catalog.
fn resolve_table(catalog: &Catalog, name: &str) -> Result<Arc<TableInfo>, PlanError> {
    if crate::sys::is_sys_name(name) {
        return crate::sys::table_info(name).map(Arc::new).ok_or_else(|| {
            PlanError::Catalog(CatalogError::NoSuchTable(name.to_ascii_uppercase()))
        });
    }
    catalog.entry(name).map_err(Into::into)
}

/// Plan a statement against the catalog.
pub fn plan(catalog: &Catalog, stmt: Statement) -> Result<Plan, PlanError> {
    plan_with(catalog, &stmt, &Params::NONE)
}

/// Plan a borrowed statement, binding its parameters (a cached template's
/// lifted literals) to `params`. DDL and transaction control pass through
/// as a copy.
pub(crate) fn plan_with(
    catalog: &Catalog,
    stmt: &Statement,
    params: &Params,
) -> Result<Plan, PlanError> {
    Ok(match stmt {
        Statement::Select(s) => Plan::Select(plan_select(catalog, s, params)?),
        Statement::Insert(i) => Plan::Insert(plan_insert(catalog, i, params)?),
        Statement::Update(u) => Plan::Update(plan_update(catalog, u, params)?),
        Statement::Delete(d) => Plan::Delete(plan_delete(catalog, d, params)?),
        Statement::Explain(inner) => Plan::Explain(Box::new(plan_with(catalog, inner, params)?)),
        Statement::ExplainAnalyze(inner) => {
            Plan::ExplainAnalyze(Box::new(plan_with(catalog, inner, params)?))
        }
        other => Plan::Passthrough(other.clone()),
    })
}

fn range_str(r: &KeyRange) -> String {
    match (&r.begin, &r.end) {
        (OwnedBound::Unbounded, OwnedBound::Unbounded) => "full key space".into(),
        (OwnedBound::Unbounded, _) => "upper-bounded key range".into(),
        (_, OwnedBound::Unbounded) => "lower-bounded key range".into(),
        _ => "bounded key range".into(),
    }
}

/// One-line description of a table's access path, as shown by EXPLAIN and
/// used as the operator label in EXPLAIN ANALYZE.
pub fn describe_access(t: &TableAccess) -> String {
    let name = &t.info.name;
    match &t.access {
        AccessPath::TableScan {
            range,
            pushdown,
            mode,
        } => {
            let mode = match mode {
                SubsetMode::Rsbb => "RSBB",
                SubsetMode::Vsbb => "VSBB",
            };
            let mut line = format!(
                "SCAN {name} via {mode} over {} ({} partition(s))",
                range_str(range),
                t.info.open.partitions_for_range(range).len()
            );
            if let Some(p) = pushdown {
                line.push_str(&format!("; pushdown predicate: {p}"));
            }
            line.push_str(&format!(
                "; project {} field(s) at DP",
                t.fetch_fields.len()
            ));
            line
        }
        AccessPath::AggregateScan {
            range,
            pushdown,
            group_by,
            aggs,
        } => {
            let mut line = format!(
                "SCAN {name} with AGGREGATE at DP over {} ({} partition(s))",
                range_str(range),
                t.info.open.partitions_for_range(range).len()
            );
            if let Some(p) = pushdown {
                line.push_str(&format!("; pushdown predicate: {p}"));
            }
            line.push_str(&format!(
                "; fold {} function(s) by {} group column(s), merge partial groups",
                aggs.len(),
                group_by.len()
            ));
            line
        }
        AccessPath::Browse => {
            format!("SCAN {name} record-at-a-time (BROWSE), filter at executor")
        }
        AccessPath::IndexScan {
            index,
            range,
            index_pushdown,
            index_only,
        } => {
            let idx = &t.info.open.indexes[*index];
            let mut line = format!(
                "INDEX SCAN {name} via {} over {}",
                idx.name,
                range_str(range)
            );
            if let Some(p) = index_pushdown {
                line.push_str(&format!("; index pushdown: {p}"));
            }
            if index_only.is_some() {
                line.push_str("; index-only (no base fetch)");
            } else {
                line.push_str("; fetch base rows by primary key (Figure 2)");
            }
            line
        }
        AccessPath::SysScan { pushdown } => {
            let mut line = format!("SYS SCAN {name} (virtual, snapshot at statement start)");
            if let Some(p) = pushdown {
                line.push_str(&format!("; filter: {p}"));
            }
            line.push_str(&format!("; project {} field(s)", t.fetch_fields.len()));
            line
        }
    }
}

/// The first part of a set write's EXPLAIN line: the `verb^SUBSET`
/// conversation, or — when the write changes an index
/// ([`nsql_fs::OpenFile::write_changes_indexes`]) — the row-at-a-time path
/// the File System runs instead.
fn describe_write(
    verb: &str,
    info: &TableInfo,
    range: &KeyRange,
    sets: Option<&SetList>,
) -> String {
    let range = range_str(range);
    let (name, of) = (&info.name, &info.open);
    if of.write_changes_indexes(sets) {
        let n = of.indexes.len();
        format!(
            "{verb} on {name} row at a time over {range}: rows read via VSBB, \
             then one {verb} by key per row, {n} index(es) maintained"
        )
    } else {
        format!("{verb}^SUBSET on {name} over {range}")
    }
}

/// Human-readable plan description (the EXPLAIN output), one line per step.
pub fn describe(plan: &Plan) -> Vec<String> {
    let mut out = Vec::new();
    match plan {
        Plan::Select(p) => {
            for (i, t) in p.tables.iter().enumerate() {
                let prefix = if i == 0 { "" } else { "NESTED-LOOP JOIN with " };
                out.push(format!("{prefix}{}", describe_access(t)));
                if let Some(r) = &t.residual {
                    out.push(format!("  residual filter at executor: {r}"));
                }
            }
            if let Some(f) = &p.join_filter {
                out.push(format!("JOIN FILTER: {f}"));
            }
            if let Shape::Groups { agg, .. } = &p.shape {
                out.push(format!(
                    "AGGREGATE {} function(s), {} group column(s)",
                    agg.aggs.len(),
                    agg.group_by.len()
                ));
            }
            if !p.shape.order_by().is_empty() {
                out.push("SORT via FastSort".into());
            }
            if !p.column_names.is_empty() {
                out.push(format!("PROJECT -> ({})", p.column_names.join(", ")));
            }
        }
        Plan::Insert(p) => out.push(format!(
            "INSERT {} row(s) into {} ({} index(es) maintained)",
            p.rows.len(),
            p.info.name,
            p.info.open.indexes.len()
        )),
        Plan::Update(p) => {
            let mut line = describe_write("UPDATE", &p.info, &p.range, Some(&p.sets));
            if let Some(pred) = &p.predicate {
                line.push_str(&format!("; pushdown predicate: {pred}"));
            }
            line.push_str(&format!(
                "; {} update expression(s) at DP",
                p.sets.sets.len()
            ));
            if p.constraint.is_some() {
                line.push_str("; CHECK constraint at DP");
            }
            out.push(line);
        }
        Plan::Delete(p) => {
            let mut line = describe_write("DELETE", &p.info, &p.range, None);
            if let Some(pred) = &p.predicate {
                line.push_str(&format!("; pushdown predicate: {pred}"));
            }
            out.push(line);
        }
        Plan::Explain(inner) | Plan::ExplainAnalyze(inner) => return describe(inner),
        Plan::Passthrough(stmt) => out.push(format!("{stmt:?}")),
    }
    out
}

// ----------------------------------------------------------------------
// Conjunct analysis
// ----------------------------------------------------------------------

/// Split an expression into top-level AND conjuncts.
fn conjuncts(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::And(a, b) => {
            conjuncts(*a, out);
            conjuncts(*b, out);
        }
        other => out.push(other),
    }
}

/// Do all fields of `e` fall within `[lo, hi)`?
fn fields_within(e: &Expr, lo: u16, hi: u16) -> bool {
    let mut fields = Vec::new();
    e.collect_fields(&mut fields);
    fields.iter().all(|&f| f >= lo && f < hi)
}

/// A single-column constraint extracted from a conjunct.
#[derive(Debug, Clone)]
enum ColBound {
    Eq(Value),
    Range {
        lo: Option<(Value, bool)>,
        hi: Option<(Value, bool)>,
    },
}

/// Try to read a conjunct as a bound on field `f` (field numbers local).
fn bound_on(e: &Expr, f: u16) -> Option<ColBound> {
    match e {
        Expr::Cmp(a, op, b) => {
            let (field, lit, op) = match (a.as_ref(), b.as_ref()) {
                (Expr::Field(x), Expr::Lit(v)) => (*x, v.clone(), *op),
                (Expr::Lit(v), Expr::Field(x)) => (*x, v.clone(), op.flipped()),
                _ => return None,
            };
            if field != f || lit.is_null() {
                return None;
            }
            Some(match op {
                CmpOp::Eq => ColBound::Eq(lit),
                CmpOp::Lt => ColBound::Range {
                    lo: None,
                    hi: Some((lit, false)),
                },
                CmpOp::Le => ColBound::Range {
                    lo: None,
                    hi: Some((lit, true)),
                },
                CmpOp::Gt => ColBound::Range {
                    lo: Some((lit, false)),
                    hi: None,
                },
                CmpOp::Ge => ColBound::Range {
                    lo: Some((lit, true)),
                    hi: None,
                },
                CmpOp::Ne => return None,
            })
        }
        Expr::Between { expr, lo, hi } => {
            let (Expr::Field(x), Expr::Lit(l), Expr::Lit(h)) =
                (expr.as_ref(), lo.as_ref(), hi.as_ref())
            else {
                return None;
            };
            if *x != f || l.is_null() || h.is_null() {
                return None;
            }
            Some(ColBound::Range {
                lo: Some((l.clone(), true)),
                hi: Some((h.clone(), true)),
            })
        }
        _ => None,
    }
}

/// Build an encoded key range from conjuncts over a key-column sequence:
/// an equality prefix, then at most one range column.
fn key_range_from(
    conj: &[Expr],
    key_cols: &[u16],
    col_type: impl Fn(u16) -> FieldType,
) -> KeyRange {
    let mut prefix = Vec::new();
    // The column after the equality prefix, with the bounds the conjuncts
    // put on it.
    let mut range_col = None;
    for &kc in key_cols {
        let ty = col_type(kc);
        // Find an equality first; otherwise a range ends the prefix walk.
        let mut eq = None;
        let (mut lo, mut hi) = (None, None);
        for c in conj {
            match bound_on(c, kc) {
                Some(ColBound::Eq(v)) => {
                    eq = Some(v);
                    break;
                }
                Some(ColBound::Range { lo: l, hi: h }) => {
                    // Merge multiple range conjuncts on the same column.
                    lo = tighter(lo, l, true);
                    hi = tighter(hi, h, false);
                }
                None => {}
            }
        }
        if let Some(v) = eq {
            if let Some(v) = ty.coerce(v) {
                encode_key_value(ty, &v, &mut prefix);
                continue;
            }
        }
        if lo.is_some() || hi.is_some() {
            range_col = Some((ty, lo, hi));
        }
        break;
    }

    let Some((ty, lo, hi)) = range_col else {
        return if prefix.is_empty() {
            KeyRange::all()
        } else {
            KeyRange::prefix(prefix)
        };
    };
    let begin = match lo {
        None if prefix.is_empty() => OwnedBound::Unbounded,
        None => OwnedBound::Included(prefix.clone()),
        Some((v, incl)) => match ty.coerce(v) {
            None => OwnedBound::Unbounded,
            Some(v) => {
                let mut k = prefix.clone();
                encode_key_value(ty, &v, &mut k);
                if incl {
                    OwnedBound::Included(k)
                } else {
                    OwnedBound::Excluded(k)
                }
            }
        },
    };
    let end = match hi {
        None if prefix.is_empty() => OwnedBound::Unbounded,
        None => KeyRange::prefix(prefix.clone()).end,
        Some((v, incl)) => match ty.coerce(v) {
            None => OwnedBound::Unbounded,
            Some(v) => {
                let mut k = prefix.clone();
                encode_key_value(ty, &v, &mut k);
                if incl {
                    // Inclusive upper bound on a key prefix: extend
                    // to cover any remaining key columns.
                    let mut hi_k = k.clone();
                    hi_k.push(0xFF);
                    OwnedBound::Excluded(hi_k)
                } else {
                    OwnedBound::Excluded(k)
                }
            }
        },
    };
    KeyRange { begin, end }
}

fn tighter(
    a: Option<(Value, bool)>,
    b: Option<(Value, bool)>,
    is_lo: bool,
) -> Option<(Value, bool)> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some((va, ia)), Some((vb, ib))) => match va.sql_cmp(&vb) {
            Some(std::cmp::Ordering::Greater) => Some(if is_lo { (va, ia) } else { (vb, ib) }),
            Some(std::cmp::Ordering::Less) => Some(if is_lo { (vb, ib) } else { (va, ia) }),
            _ => Some((va, ia && ib)),
        },
    }
}

/// AND together a list of expressions.
fn conjoin(mut exprs: Vec<Expr>) -> Option<Expr> {
    let first = exprs.pop()?;
    Some(exprs.into_iter().fold(first, |acc, e| Expr::and(e, acc)))
}

// ----------------------------------------------------------------------
// SELECT planning
// ----------------------------------------------------------------------

/// One output column of a SELECT, bound over the scope.
enum BoundColumn {
    /// A plain expression (a group column, in an aggregate query).
    Plain(Expr),
    /// An aggregate function and its argument (`None` = `*`).
    Agg(ast::AggFunc, Option<Expr>),
}

fn plan_select(catalog: &Catalog, s: &Select, params: &Params) -> Result<SelectPlan, PlanError> {
    if s.from.is_empty() {
        return Err(PlanError::Unsupported("SELECT without FROM".into()));
    }
    // Resolve tables and build the scope over full base rows.
    let infos: Vec<Arc<TableInfo>> = s
        .from
        .iter()
        .map(|t| resolve_table(catalog, &t.table))
        .collect::<Result<_, _>>()?;
    let scope = Scope::over(
        s.from
            .iter()
            .zip(&infos)
            .map(|(tr, info)| (tr.table.as_str(), tr.alias.as_deref(), &info.open.desc)),
    );

    // Bind WHERE and split into per-table and cross-table conjuncts.
    let mut table_conjuncts: Vec<Vec<Expr>> = vec![Vec::new(); infos.len()];
    let mut cross: Vec<Expr> = Vec::new();
    if let Some(w) = &s.where_clause {
        let bound = bind_expr(w, &scope, params)?;
        let mut cs = Vec::new();
        conjuncts(bound, &mut cs);
        for c in cs {
            let mut placed = false;
            for (ti, st) in scope.tables.iter().enumerate() {
                let lo = st.offset;
                let hi = st.offset + st.desc.num_fields() as u16;
                if fields_within(&c, lo, hi) {
                    // Single-variable: remap to table-local numbering.
                    table_conjuncts[ti].push(c.remap_fields(&move |f| f - lo));
                    placed = true;
                    break;
                }
            }
            if !placed {
                cross.push(c);
            }
        }
    }

    // Bind the SELECT items over the scope: each output column's name and
    // what it holds.
    let mut column_names: Vec<String> = Vec::new();
    let mut columns: Vec<BoundColumn> = Vec::new();
    for item in &s.items {
        match item {
            SelectItem::Wildcard => {
                for st in &scope.tables {
                    for (i, f) in st.desc.fields.iter().enumerate() {
                        column_names.push(f.name.clone());
                        columns.push(BoundColumn::Plain(Expr::Field(st.offset + i as u16)));
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                let bound = bind_expr(expr, &scope, params)?;
                column_names.push(alias.clone().unwrap_or_else(|| display_name(expr)));
                columns.push(BoundColumn::Plain(bound));
            }
            SelectItem::Aggregate { func, expr, alias } => {
                let bound = expr
                    .as_ref()
                    .map(|e| bind_expr(e, &scope, params))
                    .transpose()?;
                let name = alias
                    .clone()
                    .unwrap_or_else(|| format!("{func:?}").to_uppercase());
                column_names.push(name);
                columns.push(BoundColumn::Agg(*func, bound));
            }
        }
    }

    let group_fields: Vec<u16> = s
        .group_by
        .iter()
        .map(|c| scope.resolve(c))
        .collect::<Result<_, _>>()?;
    let grouped =
        !group_fields.is_empty() || columns.iter().any(|c| matches!(c, BoundColumn::Agg(..)));

    // Fields each table must deliver: outputs + cross filters + order by +
    // group by + aggregate arguments (a residual reads whole rows, not
    // these).
    let mut needed: Vec<u16> = Vec::new();
    for c in &columns {
        if let BoundColumn::Plain(e) | BoundColumn::Agg(_, Some(e)) = c {
            e.collect_fields(&mut needed);
        }
    }
    for c in &cross {
        c.collect_fields(&mut needed);
    }
    needed.extend(&group_fields);

    // Aggregate queries sort on *output* columns, matched by name; plain
    // queries sort on scope expressions before projection.
    let mut order_by: Vec<(Expr, bool)> = Vec::new();
    let mut agg_output = Vec::new();
    if grouped {
        // Every plain output must be a group column.
        let mut aggs = 0;
        for (name, c) in column_names.iter().zip(&columns) {
            agg_output.push(match c {
                BoundColumn::Agg(..) => {
                    aggs += 1;
                    AggOutput::Agg(aggs - 1)
                }
                BoundColumn::Plain(e) => {
                    let group = match e {
                        Expr::Field(f) => group_fields.iter().position(|g| g == f),
                        _ => None,
                    };
                    AggOutput::GroupCol(group.ok_or_else(|| {
                        PlanError::Unsupported(format!(
                            "non-aggregate output {name} must appear in GROUP BY"
                        ))
                    })?)
                }
            });
        }
        if s.items.iter().any(|i| matches!(i, SelectItem::Wildcard)) {
            return Err(PlanError::Unsupported("SELECT * with GROUP BY".into()));
        }
        for o in &s.order_by {
            let AstExpr::Column(c) = &o.expr else {
                return Err(PlanError::Unsupported(
                    "ORDER BY on aggregates must name output columns".into(),
                ));
            };
            let pos = column_names
                .iter()
                .position(|n| n.eq_ignore_ascii_case(&c.column))
                .ok_or_else(|| {
                    PlanError::Unsupported(format!("ORDER BY column {} not in output", c.column))
                })?;
            order_by.push((Expr::Field(pos as u16), o.desc));
        }
    } else {
        for o in &s.order_by {
            let e = bind_expr(&o.expr, &scope, params)?;
            e.collect_fields(&mut needed);
            order_by.push((e, o.desc));
        }
    }

    // Each table's access path and fetch list, from the fields of it
    // needed upstream (table-local numbers).
    let mut tables = Vec::with_capacity(infos.len());
    for ((info, conj), st) in infos.iter().zip(table_conjuncts).zip(&scope.tables) {
        let (lo, hi) = (st.offset, st.offset + st.desc.num_fields() as u16);
        let fetch = needed.iter().filter(|&&f| f >= lo && f < hi);
        let fetch = fetch.map(|&f| f - lo).collect();
        tables.push(choose_access(Arc::clone(info), conj, fetch, s.for_browse));
    }

    // Scope numbering to combined-row numbering: the tables' fetch lists
    // side by side. Every field an expression reads is fetched, so it sits
    // where it sorts in its table's list.
    let mut remap: Vec<u16> = Vec::new();
    let mut width = 0u16;
    for (t, st) in tables.iter().zip(&scope.tables) {
        let fetch = &t.fetch_fields;
        let at = |f: u16| width + fetch.partition_point(|&x| x < f) as u16;
        remap.extend((0..st.desc.num_fields() as u16).map(at));
        width += fetch.len() as u16;
    }
    let remap_fn = |f: u16| remap[f as usize];
    let combined = |e: Expr| e.remap_fields(&remap_fn);

    let join_filter = conjoin(cross).map(combined);
    let shape = if grouped {
        let aggs = columns.into_iter().filter_map(|c| match c {
            BoundColumn::Agg(func, arg) => Some((func, arg.map(combined))),
            BoundColumn::Plain(_) => None,
        });
        let agg = AggPlan {
            group_by: group_fields.into_iter().map(remap_fn).collect(),
            aggs: aggs.collect(),
            output: agg_output,
        };
        if let ([t], None) = (&mut tables[..], &join_filter) {
            if let Some(at_source) = fold_at_source(t, &agg) {
                t.access = at_source;
            }
        }
        Shape::Groups { agg, order_by }
    } else {
        let exprs = columns.into_iter().filter_map(|c| match c {
            BoundColumn::Plain(e) => Some(combined(e)),
            BoundColumn::Agg(..) => None,
        });
        Shape::Rows {
            order_by: order_by
                .into_iter()
                .map(|(e, d)| (combined(e), d))
                .collect(),
            project: projection(exprs.collect(), width),
        }
    };
    Ok(SelectPlan {
        tables,
        join_filter,
        column_names,
        shape,
    })
}

/// How a plain query's output list `exprs` (over a combined row of `width`
/// fields) is taken from each row.
fn projection(exprs: Vec<Expr>, width: u16) -> Projection {
    let mut columns = Vec::with_capacity(exprs.len());
    let distinct_columns = exprs.iter().all(|e| match e {
        Expr::Field(c) if !columns.contains(c) => {
            columns.push(*c);
            true
        }
        _ => false,
    });
    if !distinct_columns {
        Projection::Exprs(exprs)
    } else if columns.iter().copied().eq(0..width) {
        Projection::Fetched
    } else {
        Projection::Columns(columns)
    }
}

/// Choose how to read `info` given its single-variable conjuncts `conj`
/// and the fields `fetch` needed upstream: the access path, the settled
/// fetch list and the residual, which reads whole rows in table field
/// numbering.
fn choose_access(
    info: Arc<TableInfo>,
    conj: Vec<Expr>,
    mut fetch: Vec<u16>,
    browse: bool,
) -> TableAccess {
    let desc = &info.open.desc;
    settle(&mut fetch, desc);
    let mut residual = None;
    let access = if crate::sys::is_sys_name(&info.name) {
        // Virtual tables: the whole single-variable query evaluates over
        // the snapshot's full rows; nothing to route or push down to a
        // Disk Process.
        AccessPath::SysScan {
            pushdown: conjoin(conj),
        }
    } else if browse {
        // Record-at-a-time experiments read everything and filter at the
        // executor.
        residual = conjoin(conj);
        AccessPath::Browse
    } else {
        let pk_range = key_range_from(&conj, &desc.key_fields, |f| desc.fields[f as usize].ty);
        let pk_bounded =
            pk_range.begin != OwnedBound::Unbounded || pk_range.end != OwnedBound::Unbounded;
        let index = if pk_bounded {
            None
        } else {
            best_index(&info, &conj)
        };
        match index {
            Some(ii) => {
                let idx = &info.open.indexes[ii];
                // Conjuncts over fields the index row carries can be pushed
                // to the index's Disk Process after remapping.
                let in_index = |f: u16| idx.field_of(desc, f);
                let mut index_pushable = Vec::new();
                for c in &conj {
                    let mut fields = Vec::new();
                    c.collect_fields(&mut fields);
                    if fields.iter().all(|&f| in_index(f).is_some()) {
                        // Every field is carried: `f` itself is never kept.
                        index_pushable.push(c.remap_fields(&|f| in_index(f).unwrap_or(f)));
                    }
                }
                let range = key_range_from(&conj, &idx.base_fields, |f| desc.fields[f as usize].ty);
                // Index-only when the index answers the whole predicate
                // and carries every fetched field: the executor projects
                // the fetch list straight out of the index rows.
                let index_only: Option<Vec<u16>> = fetch.iter().map(|&f| in_index(f)).collect();
                let index_only = index_only.filter(|_| index_pushable.len() == conj.len());
                if index_only.is_none() {
                    // Base rows are fetched whole, and the residual reads
                    // them so.
                    residual = conjoin(conj);
                }
                AccessPath::IndexScan {
                    index: ii,
                    range,
                    index_pushdown: conjoin(index_pushable),
                    index_only,
                }
            }
            None => {
                let pushdown = conjoin(conj);
                let mode = if pushdown.is_none() && fetch.len() == desc.num_fields() {
                    SubsetMode::Rsbb
                } else {
                    SubsetMode::Vsbb
                };
                AccessPath::TableScan {
                    range: pk_range,
                    pushdown,
                    mode,
                }
            }
        }
    };
    TableAccess {
        info,
        access,
        fetch_fields: fetch,
        residual,
    }
}

/// The access path that folds `agg` where `t`'s records lie, when `t` is a
/// subset scan and every aggregate is a `*` or a bare field whose partial
/// states merge exactly ([`pushable`]): `agg` over the combined row, which
/// is `t`'s fetch list, mapped to `t`'s own field numbers.
fn fold_at_source(t: &TableAccess, agg: &AggPlan) -> Option<AccessPath> {
    let AccessPath::TableScan {
        range, pushdown, ..
    } = &t.access
    else {
        return None;
    };
    let field = |at: u16| t.fetch_fields.get(at as usize).copied();
    let group_by = agg.group_by.iter().map(|&g| field(g));
    let aggs = agg.aggs.iter().map(|(func, arg)| {
        let arg = match arg {
            None => None,
            Some(Expr::Field(at)) => Some(field(*at)?),
            Some(_) => return None,
        };
        pushable(&t.info.open.desc, *func, arg).then_some((*func, arg))
    });
    Some(AccessPath::AggregateScan {
        range: range.clone(),
        pushdown: pushdown.clone(),
        group_by: group_by.collect::<Option<_>>()?,
        aggs: aggs.collect::<Option<_>>()?,
    })
}

/// The secondary index of `info` that bounds a scan under `conj`: one whose
/// leading column has an equality, else one with a range.
fn best_index(info: &TableInfo, conj: &[Expr]) -> Option<usize> {
    let mut best: Option<(usize, bool)> = None; // (index, is_equality)
    for (ii, idx) in info.open.indexes.iter().enumerate() {
        let lead = idx.base_fields[0];
        for c in conj {
            match bound_on(c, lead) {
                Some(ColBound::Eq(_)) if best.is_none_or(|(_, eq)| !eq) => {
                    best = Some((ii, true));
                }
                Some(ColBound::Range { .. }) if best.is_none() => {
                    best = Some((ii, false));
                }
                _ => {}
            }
        }
    }
    best.map(|(ii, _)| ii)
}

/// A fetch list as the executor receives it: ascending, without repeats,
/// and never empty (a table contributing nothing still needs one field to
/// drive the join: its first key column).
fn settle(fetch: &mut Vec<u16>, desc: &RecordDescriptor) {
    fetch.sort_unstable();
    fetch.dedup();
    if fetch.is_empty() {
        fetch.push(desc.key_fields[0]);
    }
}

fn display_name(e: &AstExpr) -> String {
    match e {
        AstExpr::Column(c) => c.column.to_ascii_uppercase(),
        _ => "EXPR".into(),
    }
}

// ----------------------------------------------------------------------
// DML planning
// ----------------------------------------------------------------------

/// `sys.*` names are rejected in every DML target position.
fn reject_sys_dml(table: &str) -> Result<(), PlanError> {
    if crate::sys::is_sys_name(table) {
        return Err(PlanError::Unsupported("sys.* tables are read-only".into()));
    }
    Ok(())
}

fn plan_insert(
    catalog: &Catalog,
    i: &ast::Insert,
    params: &Params,
) -> Result<InsertPlan, PlanError> {
    reject_sys_dml(&i.table)?;
    let info = catalog.entry(&i.table)?;
    let desc = &info.open.desc;
    // Column positions.
    let positions: Vec<u16> = if i.columns.is_empty() {
        (0..desc.num_fields() as u16).collect()
    } else {
        i.columns
            .iter()
            .map(|c| {
                desc.field_named(c)
                    .ok_or_else(|| PlanError::Catalog(CatalogError::NoSuchColumn(c.clone())))
            })
            .collect::<Result<_, _>>()?
    };
    let empty_scope = Scope { tables: Vec::new() };
    let mut rows = Vec::new();
    for r in &i.rows {
        if r.len() != positions.len() {
            return Err(PlanError::Unsupported(format!(
                "INSERT row has {} values for {} columns",
                r.len(),
                positions.len()
            )));
        }
        let mut row = vec![Value::Null; desc.num_fields()];
        for (expr, &pos) in r.iter().zip(&positions) {
            let bound = bind_expr(expr, &empty_scope, params)
                .map_err(|_| PlanError::Unsupported("INSERT values must be literals".into()))?;
            let v = bound
                .eval(&nsql_records::Row(Vec::new()))
                .map_err(|e| PlanError::Unsupported(format!("bad INSERT value: {e}")))?;
            row[pos as usize] = fit_literal(desc, pos, v)?;
        }
        rows.push(row);
    }
    Ok(InsertPlan { info, rows })
}

/// The literal `v` as column `pos` of `desc` stores it — refused at plan
/// time, before any message is sent, when it does not fit: a value of
/// another type, text longer than the column, NULL in a NOT NULL column.
fn fit_literal(desc: &RecordDescriptor, pos: u16, v: Value) -> Result<Value, PlanError> {
    let f = &desc.fields[pos as usize];
    let fits = f.ty.coerce(v).filter(|v| f.nullable || !v.is_null());
    fits.ok_or_else(|| PlanError::Unsupported(format!("value does not fit column {}", f.name)))
}

fn plan_update(
    catalog: &Catalog,
    u: &ast::Update,
    params: &Params,
) -> Result<UpdatePlan, PlanError> {
    reject_sys_dml(&u.table)?;
    let info = catalog.entry(&u.table)?;
    let desc = &info.open.desc;
    let scope = Scope::single(&info.name, desc);
    let mut sets: Vec<(u16, Expr)> = Vec::new();
    for (col, e) in &u.sets {
        let f = desc
            .field_named(col)
            .ok_or_else(|| PlanError::Catalog(CatalogError::NoSuchColumn(col.clone())))?;
        if sets.iter().any(|(g, _)| *g == f) {
            let name = &desc.fields[f as usize].name;
            return Err(PlanError::Unsupported(format!(
                "column {name} assigned twice"
            )));
        }
        let e = bind_expr(e, &scope, params)?;
        // A literal is checked as INSERT checks it, and shipped as bound:
        // its size on the wire is the request's.
        if let Expr::Lit(v) = &e {
            fit_literal(desc, f, v.clone())?;
        }
        sets.push((f, e));
    }
    let mut conj = Vec::new();
    if let Some(w) = &u.where_clause {
        conjuncts(bind_expr(w, &scope, params)?, &mut conj);
    }
    let range = key_range_from(&conj, &desc.key_fields, |f| desc.fields[f as usize].ty);
    let constraint = conjoin(info.checks.clone());
    Ok(UpdatePlan {
        range,
        predicate: conjoin(conj),
        sets: SetList { sets },
        constraint,
        info,
    })
}

fn plan_delete(
    catalog: &Catalog,
    d: &ast::Delete,
    params: &Params,
) -> Result<DeletePlan, PlanError> {
    reject_sys_dml(&d.table)?;
    let info = catalog.entry(&d.table)?;
    let scope = Scope::single(&info.name, &info.open.desc);
    let mut conj = Vec::new();
    if let Some(w) = &d.where_clause {
        conjuncts(bind_expr(w, &scope, params)?, &mut conj);
    }
    let desc = &info.open.desc;
    let range = key_range_from(&conj, &desc.key_fields, |f| desc.fields[f as usize].ty);
    Ok(DeletePlan {
        range,
        predicate: conjoin(conj),
        info,
    })
}

#[cfg(test)]
mod unit_tests {
    use super::*;
    use nsql_records::key::encode_key_prefix;

    fn k(v: i32) -> Vec<u8> {
        encode_key_prefix(&[(FieldType::Int, Value::Int(v))])
    }

    fn int_range(conj: &[Expr]) -> KeyRange {
        key_range_from(conj, &[0], |_| FieldType::Int)
    }

    #[test]
    fn equality_becomes_prefix_range() {
        let r = int_range(&[Expr::field_cmp(0, CmpOp::Eq, Value::Int(7))]);
        assert!(r.contains(&k(7)));
        assert!(!r.contains(&k(6)));
        assert!(!r.contains(&k(8)));
    }

    #[test]
    fn inequalities_become_bounds() {
        let r = int_range(&[Expr::field_cmp(0, CmpOp::Le, Value::Int(10))]);
        assert!(r.contains(&k(10)));
        assert!(!r.contains(&k(11)));
        assert_eq!(r.begin, OwnedBound::Unbounded);

        let r = int_range(&[Expr::field_cmp(0, CmpOp::Gt, Value::Int(5))]);
        assert!(!r.contains(&k(5)));
        assert!(r.contains(&k(6)));
    }

    #[test]
    fn multiple_bounds_intersect() {
        let r = int_range(&[
            Expr::field_cmp(0, CmpOp::Ge, Value::Int(3)),
            Expr::field_cmp(0, CmpOp::Lt, Value::Int(9)),
            Expr::field_cmp(0, CmpOp::Ge, Value::Int(5)), // tighter low bound
        ]);
        assert!(!r.contains(&k(4)));
        assert!(r.contains(&k(5)));
        assert!(r.contains(&k(8)));
        assert!(!r.contains(&k(9)));
    }

    #[test]
    fn flipped_literal_side_works() {
        // 10 >= F0  is  F0 <= 10
        let e = Expr::Cmp(
            Box::new(Expr::lit(Value::Int(10))),
            CmpOp::Ge,
            Box::new(Expr::Field(0)),
        );
        let r = int_range(&[e]);
        assert!(r.contains(&k(10)));
        assert!(!r.contains(&k(11)));
    }

    #[test]
    fn between_becomes_closed_range() {
        let e = Expr::Between {
            expr: Box::new(Expr::Field(0)),
            lo: Box::new(Expr::lit(Value::Int(2))),
            hi: Box::new(Expr::lit(Value::Int(4))),
        };
        let r = int_range(&[e]);
        for v in [2, 3, 4] {
            assert!(r.contains(&k(v)), "{v}");
        }
        assert!(!r.contains(&k(1)));
        assert!(!r.contains(&k(5)));
    }

    #[test]
    fn unrelated_conjuncts_leave_range_open() {
        let r = int_range(&[Expr::field_cmp(3, CmpOp::Eq, Value::Int(7))]);
        assert_eq!(r, KeyRange::all());
    }

    #[test]
    fn composite_key_equality_prefix_plus_range() {
        // Key (A, B): A = 5 AND B < 9 gives a prefix + upper bound.
        let range = key_range_from(
            &[
                Expr::field_cmp(0, CmpOp::Eq, Value::Int(5)),
                Expr::field_cmp(1, CmpOp::Lt, Value::Int(9)),
            ],
            &[0, 1],
            |_| FieldType::Int,
        );
        let kk = |a: i32, b: i32| {
            encode_key_prefix(&[
                (FieldType::Int, Value::Int(a)),
                (FieldType::Int, Value::Int(b)),
            ])
        };
        assert!(range.contains(&kk(5, 0)));
        assert!(range.contains(&kk(5, 8)));
        assert!(!range.contains(&kk(5, 9)));
        assert!(!range.contains(&kk(4, 0)));
        assert!(!range.contains(&kk(6, 0)));
    }

    #[test]
    fn ne_and_null_do_not_bound() {
        let r = int_range(&[Expr::field_cmp(0, CmpOp::Ne, Value::Int(5))]);
        assert_eq!(r, KeyRange::all());
        let r = int_range(&[Expr::field_cmp(0, CmpOp::Eq, Value::Null)]);
        assert_eq!(r, KeyRange::all());
    }
}
