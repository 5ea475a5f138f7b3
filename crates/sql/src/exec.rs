//! The SQL Executor.
//!
//! "The application program's SQL statements invoke the SQL Executor, a set
//! of library routines which run in the application's process environment.
//! The Executor invokes the File System on behalf of the application. Its
//! field-oriented and possibly set-oriented File System calls implement the
//! execution plan of the pre-compiled query."
//!
//! Reads choose the transfer interface per the paper's examples: a scan
//! with selection or projection uses **VSBB**; a bare `SELECT *` scan uses
//! **RSBB**; `FOR BROWSE RECORD ACCESS` (an experiment extension) forces
//! the old record-at-a-time interface.

use crate::ast::AggFunc;
use crate::catalog::Catalog;
use crate::plan::{
    describe_access, AccessPath, AggOutput, AggPlan, DeletePlan, InsertPlan, SelectPlan,
    TableAccess, UpdatePlan,
};
use crate::sort::{fastsort, sort_cmp};
use crate::sys::{SysSnapshot, SysTable};
use nsql_dp::{ReadLock, SubsetMode};
use nsql_fs::{FileSystem, FsError};
use nsql_lock::TxnId;
use nsql_records::{EvalError, Expr, Row, Value};
use nsql_sim::{CpuLayer, Ctr, EntityKind, Mark, Micros, Sim};
use std::collections::HashMap;

/// Measured cost of one plan operator (the EXPLAIN ANALYZE row).
///
/// Operators are timed with contiguous metric snapshots: each operator's
/// delta starts where the previous one ended, so the per-operator FS-DP
/// message counts sum exactly to the statement's global delta.
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Operator description (same text as the EXPLAIN line).
    pub label: String,
    /// Rows the operator produced.
    pub rows: u64,
    /// FS-DP messages (including continuation re-drives) sent while the
    /// operator ran.
    pub msgs_fs_dp: u64,
    /// Disk read operations issued while the operator ran.
    pub disk_reads: u64,
    /// Disk write operations issued while the operator ran.
    pub disk_writes: u64,
    /// Virtual time the operator took.
    pub elapsed_us: Micros,
}

impl OpStats {
    /// The operator that ran on `sim` since `mark`.
    pub fn close(label: String, rows: u64, mark: &Mark, sim: &Sim) -> OpStats {
        let w = mark.close(sim);
        OpStats {
            label,
            rows,
            msgs_fs_dp: w.metrics.msgs_fs_dp,
            disk_reads: w.metrics.disk_reads,
            disk_writes: w.metrics.disk_writes,
            elapsed_us: w.elapsed_us,
        }
    }
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// File System / Disk Process failure.
    Fs(FsError),
    /// Expression evaluation failure.
    Eval(String),
    /// CHECK constraint rejected a row.
    ConstraintViolation,
    /// The statement's transaction was doomed mid-flight (deadlock victim
    /// or lock-wait timeout). Retryable: the client aborts the transaction
    /// and may transparently run it again.
    Doomed(String),
}

impl From<FsError> for ExecError {
    fn from(e: FsError) -> Self {
        match e {
            FsError::Dp(nsql_dp::DpError::ConstraintViolation) => ExecError::ConstraintViolation,
            FsError::Doomed { reason } => ExecError::Doomed(reason),
            other => ExecError::Fs(other),
        }
    }
}

impl From<EvalError> for ExecError {
    fn from(e: EvalError) -> Self {
        ExecError::Eval(e.to_string())
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Fs(e) => write!(f, "{e}"),
            ExecError::Eval(e) => write!(f, "evaluation failed: {e}"),
            ExecError::ConstraintViolation => write!(f, "integrity constraint violated"),
            ExecError::Doomed(reason) => write!(f, "transaction doomed: {reason}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A query result set.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Render as an ASCII table (examples and the REPL-style demos).
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.0.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// The executor: runs plans through a File System instance.
pub struct Executor<'a> {
    /// The requester's File System.
    pub fs: &'a FileSystem,
    /// The shared catalog (row-count statistics updates).
    pub catalog: &'a Catalog,
    /// FastSort parallelism for ORDER BY (the paper's "user option which
    /// directs the SQL compiler to cause the invocation ... of the parallel
    /// sorter"). 1 = serial.
    pub sort_parallelism: u32,
    /// The statement's introspection snapshot, present when the plan reads
    /// `sys.*` virtual tables (captured by the session at statement start).
    pub sys: Option<&'a SysSnapshot>,
}

impl Executor<'_> {
    fn sim(&self) -> &Sim {
        self.fs.sim()
    }

    // ------------------------------------------------------------------
    // SELECT
    // ------------------------------------------------------------------

    /// EXPLAIN ANALYZE: record the operator that ran since the previous one
    /// closed and open the next, so the operators' windows stay contiguous.
    fn close_op(
        &self,
        ops: &mut Option<(&mut Vec<OpStats>, Mark)>,
        label: impl FnOnce() -> String,
        rows: usize,
    ) {
        if let Some((stats, mark)) = ops {
            stats.push(OpStats::close(label(), rows as u64, mark, self.sim()));
            *mark = self.sim().mark();
        }
    }

    /// Execute a SELECT plan.
    pub fn select(&self, plan: &SelectPlan, txn: Option<TxnId>) -> Result<QueryResult, ExecError> {
        self.select_impl(plan, txn, None)
    }

    /// Execute a SELECT plan, measuring each operator (EXPLAIN ANALYZE).
    pub fn select_analyzed(
        &self,
        plan: &SelectPlan,
        txn: Option<TxnId>,
    ) -> Result<(QueryResult, Vec<OpStats>), ExecError> {
        let mut stats = Vec::new();
        let result = self.select_impl(plan, txn, Some(&mut stats))?;
        Ok((result, stats))
    }

    fn select_impl(
        &self,
        plan: &SelectPlan,
        txn: Option<TxnId>,
        stats: Option<&mut Vec<OpStats>>,
    ) -> Result<QueryResult, ExecError> {
        let mut ops = stats.map(|s| (s, self.sim().mark()));
        // Fetch each table's contribution.
        let mut per_table: Vec<Vec<Row>> = Vec::with_capacity(plan.tables.len());
        for (i, t) in plan.tables.iter().enumerate() {
            let rows = self.fetch_table(t, txn)?;
            let prefix = if i == 0 { "" } else { "NESTED-LOOP JOIN with " };
            let label = || format!("{prefix}{}", describe_access(t));
            self.close_op(&mut ops, label, rows.len());
            per_table.push(rows);
        }

        // Nested-loop join (cross product progressively filtered).
        let mut per_table = per_table.into_iter();
        let mut joined: Vec<Row> = per_table.next().unwrap_or_default();
        for batch in per_table {
            let mut next = Vec::new();
            for outer in &joined {
                for inner in &batch {
                    self.sim().cpu_work(CpuLayer::Executor, 1);
                    let mut row = outer.0.clone();
                    row.extend_from_slice(&inner.0);
                    next.push(Row(row));
                }
            }
            joined = next;
        }
        if let Some(f) = &plan.join_filter {
            let mut kept = Vec::with_capacity(joined.len());
            for row in joined {
                self.sim()
                    .cpu_work(CpuLayer::Executor, 1 + f.eval_cost() / 2);
                if f.passes(&row)? {
                    kept.push(row);
                }
            }
            joined = kept;
        }
        if plan.tables.len() > 1 || plan.join_filter.is_some() {
            self.close_op(&mut ops, || "JOIN".into(), joined.len());
        }

        // Aggregate or plain projection.
        let mut result = if let Some(agg) = &plan.aggregate {
            self.aggregate(agg, &joined, &plan.column_names)?
        } else {
            let sorted = fastsort(self.sim(), joined, &plan.order_by, self.sort_parallelism)?;
            let width: usize = plan.tables.iter().map(|t| t.fetch_fields.len()).sum();
            let rows = match plain_columns(&plan.output) {
                // The rows as fetched are the result.
                Some(columns) if columns.iter().copied().eq(0..width) => {
                    self.sim().cpu_work(CpuLayer::Executor, sorted.len() as u64);
                    sorted
                }
                // Each value is wanted once: it moves.
                Some(columns) => {
                    let mut rows = Vec::with_capacity(sorted.len());
                    for mut row in sorted {
                        self.sim().cpu_work(CpuLayer::Executor, 1);
                        let values = columns
                            .iter()
                            .map(|&c| std::mem::replace(&mut row.0[c], Value::Null));
                        rows.push(Row(values.collect()));
                    }
                    rows
                }
                None => {
                    let mut rows = Vec::with_capacity(sorted.len());
                    for row in &sorted {
                        self.sim().cpu_work(CpuLayer::Executor, 1);
                        let mut out = Vec::with_capacity(plan.output.len());
                        for (_, e) in &plan.output {
                            out.push(e.eval(row)?);
                        }
                        rows.push(Row(out));
                    }
                    rows
                }
            };
            QueryResult {
                columns: plan.column_names.clone(),
                rows,
            }
        };

        // ORDER BY over aggregate output.
        if !plan.order_on_output.is_empty() {
            let keys: Vec<(Expr, bool)> = plan
                .order_on_output
                .iter()
                .map(|&(pos, desc)| (Expr::Field(pos as u16), desc))
                .collect();
            result.rows = fastsort(self.sim(), result.rows, &keys, self.sort_parallelism)?;
        }

        let sorted = !plan.order_by.is_empty() || !plan.order_on_output.is_empty();
        let label = match (&plan.aggregate, sorted) {
            (Some(_), true) => "AGGREGATE + SORT + PROJECT",
            (Some(_), false) => "AGGREGATE + PROJECT",
            (None, true) => "SORT + PROJECT",
            (None, false) => "PROJECT",
        };
        self.close_op(&mut ops, || label.into(), result.rows.len());

        self.sim()
            .cluster
            .add(Ctr::RowsReturned, result.rows.len() as u64);
        Ok(result)
    }

    /// Fetch one table's rows per its access path, projected to
    /// `fetch_fields` and filtered by the residual.
    fn fetch_table(&self, t: &TableAccess, txn: Option<TxnId>) -> Result<Vec<Row>, ExecError> {
        let of = &t.info.open;
        let all_fields = t.fetch_fields.len() == of.desc.num_fields();
        // A transaction's reads take shared locks; a bare read takes none.
        let lock = if txn.is_some() {
            ReadLock::Shared
        } else {
            ReadLock::None
        };
        let rows = match &t.access {
            AccessPath::TableScan {
                range,
                pushdown,
                browse: false,
            } => {
                // SELECT * with no predicate travels via RSBB (paper
                // example 2); anything with selection or projection uses
                // VSBB (example 1).
                let (mode, projection) = if pushdown.is_none() && all_fields {
                    (SubsetMode::Rsbb, None)
                } else {
                    (SubsetMode::Vsbb, Some(t.fetch_fields.as_slice()))
                };
                self.fs
                    .scan(txn, of, range, pushdown.as_ref(), projection, mode, lock)?
                    .rows
            }
            AccessPath::TableScan { browse: true, .. } => {
                // Record-at-a-time: read whole records, project + filter
                // locally.
                let mut cur = self.fs.ens_open(of, txn);
                let mut rows = Vec::new();
                while let Some(full) = self.fs.ens_read_next(&mut cur)? {
                    self.sim().cpu_work(CpuLayer::Executor, 1);
                    let projected = Row(t
                        .fetch_fields
                        .iter()
                        .map(|&f| full.0[f as usize].clone())
                        .collect());
                    rows.push(projected);
                }
                rows
            }
            AccessPath::IndexScan {
                index,
                range,
                index_pushdown,
                index_only,
            } => {
                let idx = &of.indexes[*index];
                let entries = self
                    .fs
                    .scan_index(txn, idx, range, index_pushdown.as_ref(), lock)?;
                if *index_only {
                    // Project directly out of index rows.
                    let field_in_index = |base: u16| -> usize {
                        idx.base_fields
                            .iter()
                            .position(|&b| b == base)
                            .or_else(|| {
                                of.desc
                                    .key_fields
                                    .iter()
                                    .position(|&k| k == base)
                                    .map(|p| idx.base_fields.len() + p)
                            })
                            .expect("index-only plan covers all fetched fields")
                    };
                    entries
                        .into_iter()
                        .map(|irow| {
                            Row(t
                                .fetch_fields
                                .iter()
                                .map(|&f| irow.0[field_in_index(f)].clone())
                                .collect())
                        })
                        .collect()
                } else {
                    // Figure 2: fetch each base record by primary key.
                    let mut rows = Vec::new();
                    for irow in &entries {
                        let base_key = idx.base_key_from_index_row(&of.desc, &irow.0);
                        if let Some(full) = self.fs.read_by_key(txn, of, &base_key, lock)? {
                            rows.push(Row(t
                                .fetch_fields
                                .iter()
                                .map(|&f| full.0[f as usize].clone())
                                .collect()));
                        }
                    }
                    rows
                }
            }
            AccessPath::SysScan { pushdown } => {
                let Some(snap) = self.sys else {
                    return Err(ExecError::Eval(format!(
                        "no introspection snapshot for {}",
                        of.name
                    )));
                };
                let table = SysTable::from_name(&of.name)
                    .ok_or_else(|| ExecError::Eval(format!("unknown sys table {}", of.name)))?;
                let mut rows = Vec::new();
                for full in snap.rows(table) {
                    self.sim().cpu_work(CpuLayer::Executor, 1);
                    if let Some(p) = pushdown {
                        if !p.passes(full)? {
                            continue;
                        }
                    }
                    rows.push(Row(t
                        .fetch_fields
                        .iter()
                        .map(|&f| full.0[f as usize].clone())
                        .collect()));
                }
                // Charged after the snapshot was captured, so the bump is
                // part of this statement's own cost (visible to the *next*
                // snapshot), keeping self-observation idempotent.
                self.sim()
                    .measure
                    .entity(EntityKind::Process, "$SYS")
                    .bump(Ctr::SysScans);
                rows
            }
        };
        // Residual filter (browse / base-fetch index paths).
        if let Some(r) = &t.residual {
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                self.sim()
                    .cpu_work(CpuLayer::Executor, 1 + r.eval_cost() / 2);
                if r.passes(&row)? {
                    kept.push(row);
                }
            }
            return Ok(kept);
        }
        Ok(rows)
    }

    fn aggregate(
        &self,
        agg: &AggPlan,
        rows: &[Row],
        names: &[String],
    ) -> Result<QueryResult, ExecError> {
        #[derive(Clone)]
        struct AccState {
            count: u64,
            sum_i: i64,
            sum_f: f64,
            any_float: bool,
            min: Option<Value>,
            max: Option<Value>,
        }
        impl Default for AccState {
            fn default() -> Self {
                AccState {
                    count: 0,
                    sum_i: 0,
                    sum_f: 0.0,
                    any_float: false,
                    min: None,
                    max: None,
                }
            }
        }

        // Groups in first-seen order, found by key; the key of the row at
        // hand is built in one buffer, and only a new group keeps a copy of
        // it and of its grouping values.
        let mut groups: Vec<(Vec<Value>, Vec<AccState>)> = Vec::new();
        let mut by_key: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut key = Vec::new();
        let new_group = |values| (values, vec![AccState::default(); agg.aggs.len()]);
        for row in rows {
            self.sim()
                .cpu_work(CpuLayer::Executor, 1 + agg.aggs.len() as u64);
            let group_vals = || agg.group_by.iter().map(|&g| &row.0[g as usize]);
            key.clear();
            group_key(group_vals(), &mut key);
            let group = match by_key.get(key.as_slice()) {
                Some(&group) => group,
                None => {
                    by_key.insert(key.clone(), groups.len());
                    groups.push(new_group(group_vals().cloned().collect()));
                    groups.len() - 1
                }
            };
            let entry = &mut groups[group];
            for (i, (func, arg)) in agg.aggs.iter().enumerate() {
                let v = match arg {
                    None => Value::Int(1), // COUNT(*)
                    Some(e) => e.eval(row)?,
                };
                if v.is_null() {
                    continue; // NULLs are ignored by aggregates
                }
                let st = &mut entry.1[i];
                st.count += 1;
                match func {
                    AggFunc::Count => {}
                    AggFunc::Sum | AggFunc::Avg => {
                        if let Some(i64v) = v.as_i64() {
                            st.sum_i += i64v;
                            st.sum_f += i64v as f64;
                        } else if let Some(f) = v.as_f64() {
                            st.any_float = true;
                            st.sum_f += f;
                        } else {
                            return Err(ExecError::Eval(
                                "SUM/AVG requires numeric argument".into(),
                            ));
                        }
                    }
                    AggFunc::Min => {
                        if st.min.as_ref().is_none_or(|m| sort_cmp(&v, m).is_lt()) {
                            st.min = Some(v.clone());
                        }
                    }
                    AggFunc::Max => {
                        if st.max.as_ref().is_none_or(|m| sort_cmp(&v, m).is_gt()) {
                            st.max = Some(v.clone());
                        }
                    }
                }
            }
        }
        // A global aggregate over zero rows still yields one row.
        if groups.is_empty() && agg.group_by.is_empty() {
            groups.push(new_group(Vec::new()));
        }

        let mut out_rows = Vec::with_capacity(groups.len());
        for (gvals, states) in &groups {
            let mut out = Vec::with_capacity(agg.output.len());
            for o in &agg.output {
                out.push(match *o {
                    AggOutput::GroupCol(i) => gvals[i].clone(),
                    AggOutput::Agg(i) => {
                        let st = &states[i];
                        match agg.aggs[i].0 {
                            AggFunc::Count => Value::LargeInt(st.count as i64),
                            AggFunc::Sum => {
                                if st.count == 0 {
                                    Value::Null
                                } else if st.any_float {
                                    Value::Double(st.sum_f)
                                } else {
                                    Value::LargeInt(st.sum_i)
                                }
                            }
                            AggFunc::Avg => {
                                if st.count == 0 {
                                    Value::Null
                                } else {
                                    Value::Double(st.sum_f / st.count as f64)
                                }
                            }
                            AggFunc::Min => st.min.clone().unwrap_or(Value::Null),
                            AggFunc::Max => st.max.clone().unwrap_or(Value::Null),
                        }
                    }
                });
            }
            out_rows.push(Row(out));
        }
        Ok(QueryResult {
            columns: names.to_vec(),
            rows: out_rows,
        })
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    /// Execute an INSERT plan; returns the number of rows inserted.
    pub fn insert(&self, plan: &InsertPlan, txn: TxnId) -> Result<u64, ExecError> {
        for row in &plan.rows {
            // CHECK constraints verified before shipping the row.
            for c in &plan.info.checks {
                self.sim()
                    .cpu_work(CpuLayer::Executor, 1 + c.eval_cost() / 2);
                if !c.passes(&nsql_records::SliceRow(row))? {
                    return Err(ExecError::ConstraintViolation);
                }
            }
            self.fs.insert_row(txn, &plan.info.open, row)?;
        }
        self.catalog
            .bump_rows(&plan.info.name, plan.rows.len() as i64);
        Ok(plan.rows.len() as u64)
    }

    /// Execute an UPDATE plan; returns the number of rows updated.
    pub fn update(&self, plan: &UpdatePlan, txn: TxnId) -> Result<u64, ExecError> {
        let n = self.fs.update_set(
            txn,
            &plan.info.open,
            &plan.range,
            plan.predicate.as_ref(),
            &plan.sets,
            plan.constraint.as_ref(),
        )?;
        Ok(n)
    }

    /// Execute a DELETE plan; returns the number of rows deleted.
    pub fn delete(&self, plan: &DeletePlan, txn: TxnId) -> Result<u64, ExecError> {
        let n = self
            .fs
            .delete_set(txn, &plan.info.open, &plan.range, plan.predicate.as_ref())?;
        self.catalog.bump_rows(&plan.info.name, -(n as i64));
        Ok(n)
    }
}

/// The positions `output` selects, when it is a list of distinct plain
/// columns of the fetched row (evaluating one only clones it).
fn plain_columns(output: &[(String, Expr)]) -> Option<Vec<usize>> {
    let mut columns = Vec::with_capacity(output.len());
    for (_, e) in output {
        match e {
            Expr::Field(c) if !columns.contains(&(*c as usize)) => columns.push(*c as usize),
            _ => return None,
        }
    }
    Some(columns)
}

/// Order-insensitive hashable key for grouping values (f64 via bit
/// patterns; strings length-prefixed), appended to `out`.
fn group_key<'a>(vals: impl Iterator<Item = &'a Value>, out: &mut Vec<u8>) {
    for v in vals {
        match v {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(*b as u8);
            }
            Value::SmallInt(n) => {
                out.push(2);
                out.extend_from_slice(&(*n as i64).to_be_bytes());
            }
            Value::Int(n) => {
                out.push(2);
                out.extend_from_slice(&(*n as i64).to_be_bytes());
            }
            Value::LargeInt(n) => {
                out.push(2);
                out.extend_from_slice(&n.to_be_bytes());
            }
            Value::Double(x) => {
                out.push(3);
                out.extend_from_slice(&x.to_bits().to_be_bytes());
            }
            Value::Str(s) => {
                out.push(4);
                out.extend_from_slice(&(s.len() as u32).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}
