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
    /// Primary-key-ordered scan over a key range with a pushed-down
    /// single-variable query.
    TableScan {
        /// Primary-key range.
        range: KeyRange,
        /// Pushed-down predicate (table-local field numbers).
        pushdown: Option<Expr>,
        /// Use the old record-at-a-time interface (experiment support).
        browse: bool,
    },
    /// Access through a secondary index.
    IndexScan {
        /// Index position within the table's index list.
        index: usize,
        /// Index-key range.
        range: KeyRange,
        /// Predicate over the *index row*, pushed to the index's Disk
        /// Process.
        index_pushdown: Option<Expr>,
        /// When every fetched field lies in the index row (no base fetch):
        /// the index-row position of each, in fetch order.
        index_only: Option<Vec<u16>>,
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
    /// Residual predicate over the fetched fields (evaluated by the
    /// executor; arises when an index path cannot push everything down).
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

/// A planned SELECT.
#[derive(Debug, Clone)]
pub struct SelectPlan {
    /// Table accesses, joined left-to-right by nested loops.
    pub tables: Vec<TableAccess>,
    /// Cross-table filter over the combined row.
    pub join_filter: Option<Expr>,
    /// Sort keys over the combined row (pre-projection), unless
    /// `order_on_output`.
    pub order_by: Vec<(Expr, bool)>,
    /// Aggregation, if any.
    pub aggregate: Option<AggPlan>,
    /// Output projection over the combined row (ignored when aggregating).
    pub output: Vec<(String, Expr)>,
    /// Column names of the result.
    pub column_names: Vec<String>,
    /// Sort on output columns instead (aggregate queries).
    pub order_on_output: Vec<(usize, bool)>,
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
            browse: false,
        } => {
            let mode =
                if pushdown.is_none() && t.fetch_fields.len() == t.info.open.desc.num_fields() {
                    "RSBB"
                } else {
                    "VSBB"
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
        AccessPath::TableScan { browse: true, .. } => {
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

/// Human-readable plan description (the EXPLAIN output), one line per step.
pub fn describe(plan: &Plan) -> Vec<String> {
    let access_str = describe_access;
    let mut out = Vec::new();
    match plan {
        Plan::Select(p) => {
            for (i, t) in p.tables.iter().enumerate() {
                let prefix = if i == 0 {
                    String::new()
                } else {
                    "NESTED-LOOP JOIN with ".to_string()
                };
                out.push(format!("{prefix}{}", access_str(t)));
                if let Some(r) = &t.residual {
                    out.push(format!("  residual filter at executor: {r}"));
                }
            }
            if let Some(f) = &p.join_filter {
                out.push(format!("JOIN FILTER: {f}"));
            }
            if let Some(a) = &p.aggregate {
                out.push(format!(
                    "AGGREGATE {} function(s), {} group column(s)",
                    a.aggs.len(),
                    a.group_by.len()
                ));
            }
            if !p.order_by.is_empty() || !p.order_on_output.is_empty() {
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
            let mut line = format!(
                "UPDATE^SUBSET on {} over {}",
                p.info.name,
                range_str(&p.range)
            );
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
            let mut line = format!(
                "DELETE^SUBSET on {} over {}",
                p.info.name,
                range_str(&p.range)
            );
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
    let mut range_col_bound: Option<(FieldType, ColBound)> = None;
    for &kc in key_cols {
        let ty = col_type(kc);
        // Find an equality first; otherwise a range ends the prefix walk.
        let mut eq = None;
        let mut rng: Option<ColBound> = None;
        for c in conj {
            match bound_on(c, kc) {
                Some(ColBound::Eq(v)) => {
                    eq = Some(v);
                    break;
                }
                Some(r @ ColBound::Range { .. }) => {
                    // Merge multiple range conjuncts on the same column.
                    rng = Some(match (rng, r) {
                        (None, r) => r,
                        (
                            Some(ColBound::Range { lo: l1, hi: h1 }),
                            ColBound::Range { lo: l2, hi: h2 },
                        ) => ColBound::Range {
                            lo: tighter(l1, l2, true),
                            hi: tighter(h1, h2, false),
                        },
                        (some, _) => some.expect("range"),
                    });
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
        if let Some(r) = rng {
            range_col_bound = Some((ty, r));
        }
        break;
    }

    match range_col_bound {
        None if prefix.is_empty() => KeyRange::all(),
        None => KeyRange::prefix(prefix),
        Some((ty, ColBound::Range { lo, hi })) => {
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
        Some((_, ColBound::Eq(_))) => unreachable!("equalities extend the prefix"),
    }
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

    // Bind SELECT items / ORDER BY / GROUP BY over the scope.
    let mut out_exprs: Vec<(String, Expr)> = Vec::new();
    let mut agg_items: Vec<(ast::AggFunc, Option<Expr>, String)> = Vec::new();
    let mut has_agg = false;
    for item in &s.items {
        match item {
            SelectItem::Wildcard => {
                for st in &scope.tables {
                    for (i, f) in st.desc.fields.iter().enumerate() {
                        out_exprs.push((f.name.clone(), Expr::Field(st.offset + i as u16)));
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                let bound = bind_expr(expr, &scope, params)?;
                let name = alias.clone().unwrap_or_else(|| display_name(expr));
                out_exprs.push((name, bound));
            }
            SelectItem::Aggregate { func, expr, alias } => {
                has_agg = true;
                let bound = expr
                    .as_ref()
                    .map(|e| bind_expr(e, &scope, params))
                    .transpose()?;
                let name = alias
                    .clone()
                    .unwrap_or_else(|| format!("{func:?}").to_uppercase());
                agg_items.push((*func, bound, name));
            }
        }
    }

    let group_fields: Vec<u16> = s
        .group_by
        .iter()
        .map(|c| scope.resolve(c))
        .collect::<Result<_, _>>()?;
    if has_agg || !group_fields.is_empty() {
        // Aggregate query: every plain item must be a group column.
        for (name, e) in &out_exprs {
            match e {
                Expr::Field(f) if group_fields.contains(f) => {}
                _ => {
                    return Err(PlanError::Unsupported(format!(
                        "non-aggregate output {name} must appear in GROUP BY"
                    )))
                }
            }
        }
    }

    // Fields each table must deliver: outputs + cross filters + order by +
    // group by + aggregate arguments + index residuals.
    let mut needed: Vec<u16> = Vec::new();
    for (_, e) in &out_exprs {
        e.collect_fields(&mut needed);
    }
    for c in &cross {
        c.collect_fields(&mut needed);
    }
    // Aggregate queries sort on *output* columns (matched by name later);
    // plain queries sort on scope expressions before projection.
    let is_aggregate_query = has_agg || !group_fields.is_empty();
    let mut bound_order: Vec<(Expr, bool)> = Vec::new();
    if !is_aggregate_query {
        for o in &s.order_by {
            let e = bind_expr(&o.expr, &scope, params)?;
            e.collect_fields(&mut needed);
            bound_order.push((e, o.desc));
        }
    }
    needed.extend(&group_fields);
    for (_, e, _) in &agg_items {
        if let Some(e) = e {
            e.collect_fields(&mut needed);
        }
    }

    // Per-table access paths + fetch lists; build the global remap from
    // scope numbering to combined-row numbering.
    let mut accesses = Vec::new();
    let mut remap: Vec<Option<u16>> = vec![None; scope.width() as usize];
    let mut out_pos = 0u16;
    for (ti, info) in infos.iter().enumerate() {
        let st = &scope.tables[ti];
        let lo = st.offset;
        let nfields = st.desc.num_fields() as u16;
        // Fields of this table needed upstream (table-local numbers).
        let mut fetch: Vec<u16> = needed
            .iter()
            .filter(|&&f| f >= lo && f < lo + nfields)
            .map(|&f| f - lo)
            .collect();
        let access = if crate::sys::is_sys_name(&info.name) {
            // Virtual tables: the whole single-variable query evaluates
            // over the snapshot's full rows; nothing to route or push down
            // to a Disk Process.
            AccessPath::SysScan {
                pushdown: conjoin(table_conjuncts[ti].clone()),
            }
        } else {
            choose_access(info, &table_conjuncts[ti], &mut fetch, s.for_browse)
        };
        settle(&mut fetch, &info.open.desc);
        for (pos, &f) in fetch.iter().enumerate() {
            remap[(lo + f) as usize] = Some(out_pos + pos as u16);
        }
        out_pos += fetch.len() as u16;
        accesses.push((access, fetch));
    }
    let remap_fn =
        |f: u16| -> u16 { remap[f as usize].expect("every needed field was planned for fetch") };

    // Assemble table accesses with residuals.
    let mut tables = Vec::new();
    for ((access, fetch), info) in accesses.into_iter().zip(infos) {
        let residual = match &access {
            // Index scans that fetch base rows apply the table predicate as
            // an executor residual (over the fetched fields).
            AccessPath::IndexScan {
                index_only: None, ..
            }
            | AccessPath::TableScan { browse: true, .. } => {
                let ti = tables.len();
                let local = conjoin(table_conjuncts[ti].clone());
                local.map(|e| {
                    e.remap_fields(&|f| {
                        fetch
                            .iter()
                            .position(|&x| x == f)
                            .expect("residual fields are fetched") as u16
                    })
                })
            }
            _ => None,
        };
        tables.push(TableAccess {
            info,
            access,
            fetch_fields: fetch,
            residual,
        });
    }

    // Residual fields must be fetched: ensure that (browse/index residual
    // fields were collected into `needed` only if used upstream). Re-check:
    // add missing residual fields would complicate remapping; instead the
    // residual for browse/index paths uses the *full* table conjunct set,
    // whose fields we must fetch. Extend fetch lists up front instead:
    // handled below by a validation pass.
    validate_residuals(&tables)?;

    let join_filter = conjoin(cross).map(|e| e.remap_fields(&remap_fn));
    let order_by: Vec<(Expr, bool)> = bound_order
        .into_iter()
        .map(|(e, d)| (e.remap_fields(&remap_fn), d))
        .collect();
    let output: Vec<(String, Expr)> = out_exprs
        .into_iter()
        .map(|(n, e)| (n, e.remap_fields(&remap_fn)))
        .collect();

    // Aggregation plan.
    let aggregate = if is_aggregate_query {
        let group_by: Vec<u16> = group_fields.iter().map(|&f| remap_fn(f)).collect();
        let aggs: Vec<(ast::AggFunc, Option<Expr>)> = agg_items
            .iter()
            .map(|(f, e, _)| (*f, e.as_ref().map(|e| e.remap_fields(&remap_fn))))
            .collect();
        // Output order: walk SELECT items again.
        let mut agg_i = 0usize;
        let mut outputs = Vec::new();
        let mut names = Vec::new();
        let mut plain_i = 0usize;
        for item in &s.items {
            match item {
                SelectItem::Wildcard => {
                    return Err(PlanError::Unsupported("SELECT * with GROUP BY".into()))
                }
                SelectItem::Expr { .. } => {
                    let (name, e) = &output[plain_i];
                    plain_i += 1;
                    let Expr::Field(f) = e else {
                        return Err(PlanError::Unsupported(
                            "grouped output must be a column".into(),
                        ));
                    };
                    let gi = group_by
                        .iter()
                        .position(|g| g == f)
                        .expect("validated above");
                    outputs.push(AggOutput::GroupCol(gi));
                    names.push(name.clone());
                }
                SelectItem::Aggregate { .. } => {
                    outputs.push(AggOutput::Agg(agg_i));
                    names.push(agg_items[agg_i].2.clone());
                    agg_i += 1;
                }
            }
        }
        // ORDER BY on aggregate output: match by column name.
        let mut order_on_output = Vec::new();
        for o in &s.order_by {
            let AstExpr::Column(c) = &o.expr else {
                return Err(PlanError::Unsupported(
                    "ORDER BY on aggregates must name output columns".into(),
                ));
            };
            let pos = names
                .iter()
                .position(|n| n.eq_ignore_ascii_case(&c.column))
                .ok_or_else(|| {
                    PlanError::Unsupported(format!("ORDER BY column {} not in output", c.column))
                })?;
            order_on_output.push((pos, o.desc));
        }
        return Ok(SelectPlan {
            tables,
            join_filter,
            order_by: Vec::new(),
            aggregate: Some(AggPlan {
                group_by,
                aggs,
                output: outputs,
            }),
            output: Vec::new(),
            column_names: names,
            order_on_output,
        });
    } else {
        None
    };

    let column_names = output.iter().map(|(n, _)| n.clone()).collect();
    Ok(SelectPlan {
        tables,
        join_filter,
        order_by,
        aggregate,
        output,
        column_names,
        order_on_output: Vec::new(),
    })
}

/// Choose between the primary-key scan and available indices, extending
/// `fetch` with fields the chosen path needs (e.g. residual fields).
fn choose_access(
    info: &TableInfo,
    conj: &[Expr],
    fetch: &mut Vec<u16>,
    browse: bool,
) -> AccessPath {
    let desc = &info.open.desc;
    if browse {
        // Record-at-a-time experiments read everything and filter at the
        // executor; residual fields must be fetched.
        for c in conj {
            c.collect_fields(fetch);
        }
        return AccessPath::TableScan {
            range: KeyRange::all(),
            pushdown: None,
            browse: true,
        };
    }
    let pk_range = key_range_from(conj, &desc.key_fields, |f| desc.fields[f as usize].ty);
    let pk_bounded =
        pk_range.begin != OwnedBound::Unbounded || pk_range.end != OwnedBound::Unbounded;
    if !pk_bounded {
        // Consider secondary indices: prefer one whose leading column has
        // an equality, then one with a range.
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
        if let Some((ii, _)) = best {
            let idx = &info.open.indexes[ii];
            // Conjuncts over fields the index row carries can be pushed to
            // the index's Disk Process after remapping.
            let in_index = |f: u16| idx.field_of(desc, f);
            let mut index_pushable = Vec::new();
            for c in conj {
                let mut fields = Vec::new();
                c.collect_fields(&mut fields);
                if fields.iter().all(|&f| in_index(f).is_some()) {
                    // Every field is carried: `f` itself is never kept.
                    index_pushable.push(c.remap_fields(&|f| in_index(f).unwrap_or(f)));
                }
            }
            let range = key_range_from(conj, &idx.base_fields, |f| desc.fields[f as usize].ty);
            // Index-only when every fetched field is in the index row: the
            // executor projects the fetch list, settled as the caller would
            // settle it, straight out of the index rows.
            let mut settled = fetch.clone();
            settle(&mut settled, desc);
            let index_only: Option<Vec<u16>> = settled.iter().map(|&f| in_index(f)).collect();
            if index_only.is_some() {
                *fetch = settled;
            } else {
                // Base rows will be fetched whole; residual needs conjunct
                // fields available.
                for c in conj {
                    c.collect_fields(fetch);
                }
            }
            return AccessPath::IndexScan {
                index: ii,
                range,
                index_pushdown: conjoin(index_pushable),
                index_only,
            };
        }
    }
    AccessPath::TableScan {
        range: pk_range,
        pushdown: conjoin(conj.to_vec()),
        browse: false,
    }
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

fn validate_residuals(tables: &[TableAccess]) -> Result<(), PlanError> {
    for t in tables {
        if let Some(r) = &t.residual {
            let mut fields = Vec::new();
            r.collect_fields(&mut fields);
            if fields.iter().any(|&f| f as usize >= t.fetch_fields.len()) {
                return Err(PlanError::Unsupported(
                    "internal: residual references unfetched field".into(),
                ));
            }
        }
    }
    Ok(())
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
