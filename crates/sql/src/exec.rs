//! The SQL Executor.
//!
//! "The application program's SQL statements invoke the SQL Executor, a set
//! of library routines which run in the application's process environment.
//! The Executor invokes the File System on behalf of the application. Its
//! field-oriented and possibly set-oriented File System calls implement the
//! execution plan of the pre-compiled query."
//!
//! The executor decides nothing: the plan ([`crate::plan`]) settles each
//! table's access path and transfer interface (RSBB, VSBB or
//! record-at-a-time browse), its residual and the output shape, and the
//! executor runs what it reads there. Whatever the path, one row source
//! ([`Executor::feed`]) hands a table's rows to one consumer: the
//! fetch-list rows a join or a plain SELECT builds, or the aggregation —
//! [`nsql_records::fold`], the fold the Disk Process runs too, which merges
//! the partial groups of an aggregate folded at the source.

use crate::catalog::Catalog;
use crate::plan::{
    describe_access, AccessPath, AggOutput, AggPlan, DeletePlan, InsertPlan, Projection,
    SelectPlan, Shape, TableAccess, UpdatePlan,
};
use crate::sort::fastsort;
use crate::sys::{SysSnapshot, SysTable};
use nsql_dp::{ReadLock, SubsetMode};
use nsql_fs::{FileSystem, FsError, ReplyRow};
use nsql_lock::TxnId;
use nsql_records::{Aggregation, EvalError, FieldRef, Row, RowAccessor, Value};
use nsql_sim::{CpuLayer, Ctr, EntityKind, Mark, Micros, Sim};

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

    /// Fetch every table of `plan` and join them: the combined rows, each
    /// table's fetch and the join measured as operators.
    fn join(
        &self,
        plan: &SelectPlan,
        txn: Option<TxnId>,
        ops: &mut Option<(&mut Vec<OpStats>, Mark)>,
    ) -> Result<Vec<Row>, ExecError> {
        // Fetch each table's contribution.
        let mut per_table: Vec<Vec<Row>> = Vec::with_capacity(plan.tables.len());
        for (i, t) in plan.tables.iter().enumerate() {
            let mut rows = Vec::new();
            self.feed(t, txn, &mut rows)?;
            let prefix = if i == 0 { "" } else { "NESTED-LOOP JOIN with " };
            let label = || format!("{prefix}{}", describe_access(t));
            self.close_op(ops, label, rows.len());
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
            self.close_op(ops, || "JOIN".into(), joined.len());
        }
        Ok(joined)
    }

    fn select_impl(
        &self,
        plan: &SelectPlan,
        txn: Option<TxnId>,
        stats: Option<&mut Vec<OpStats>>,
    ) -> Result<QueryResult, ExecError> {
        let mut ops = stats.map(|s| (s, self.sim().mark()));
        let (rows, label) = match &plan.shape {
            Shape::Rows { order_by, project } => {
                let joined = self.join(plan, txn, &mut ops)?;
                let sorted = fastsort(self.sim(), joined, order_by, self.sort_parallelism)?;
                let label = if order_by.is_empty() {
                    "PROJECT"
                } else {
                    "SORT + PROJECT"
                };
                (self.project(sorted, project)?, label)
            }
            Shape::Groups { agg, order_by } => {
                let groups = self.aggregate(plan, agg, txn, &mut ops)?;
                let sorted = fastsort(self.sim(), groups, order_by, self.sort_parallelism)?;
                let label = if order_by.is_empty() {
                    "AGGREGATE + PROJECT"
                } else {
                    "AGGREGATE + SORT + PROJECT"
                };
                (sorted, label)
            }
        };
        self.close_op(&mut ops, || label.into(), rows.len());

        self.sim().cluster.add(Ctr::RowsReturned, rows.len() as u64);
        Ok(QueryResult {
            columns: plan.column_names.clone(),
            rows,
        })
    }

    /// The result rows of sorted combined `rows`, as `project` takes them.
    fn project(&self, rows: Vec<Row>, project: &Projection) -> Result<Vec<Row>, ExecError> {
        Ok(match project {
            // The rows as fetched are the result.
            Projection::Fetched => {
                self.sim().cpu_work(CpuLayer::Executor, rows.len() as u64);
                rows
            }
            // Each value is wanted once: it moves.
            Projection::Columns(columns) => {
                let mut out = Vec::with_capacity(rows.len());
                for mut row in rows {
                    self.sim().cpu_work(CpuLayer::Executor, 1);
                    let values = columns
                        .iter()
                        .map(|&c| std::mem::replace(&mut row.0[c as usize], Value::Null));
                    out.push(Row(values.collect()));
                }
                out
            }
            Projection::Exprs(exprs) => {
                let mut out = Vec::with_capacity(rows.len());
                for row in &rows {
                    self.sim().cpu_work(CpuLayer::Executor, 1);
                    let mut values = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        values.push(e.eval(row)?);
                    }
                    out.push(Row(values));
                }
                out
            }
        })
    }

    /// Aggregate the rows `plan` reads into one row per group. A one-table
    /// plan's rows are folded as the row source hands them over, or the
    /// partial groups of a fold at the source merged; a join's combined
    /// rows are built first, and those are folded.
    fn aggregate(
        &self,
        plan: &SelectPlan,
        agg: &AggPlan,
        txn: Option<TxnId>,
        ops: &mut Option<(&mut Vec<OpStats>, Mark)>,
    ) -> Result<Vec<Row>, ExecError> {
        let mut aggregation = Aggregation::new(&agg.group_by, &agg.aggs);
        match (plan.tables.as_slice(), &plan.join_filter) {
            ([t], None) => {
                self.feed(t, txn, &mut aggregation)?;
                let taken = aggregation.taken() as usize;
                self.close_op(ops, || describe_access(t), taken);
            }
            _ => {
                for row in &self.join(plan, txn, ops)? {
                    aggregation.fold(row);
                }
            }
        }
        // What the fold would have charged row by row, booked at once:
        // nothing has read the clock since the last operator closed.
        self.sim().cpu_work(CpuLayer::Executor, aggregation.units());
        let width = agg.group_by.len();
        let rows = aggregation.finish()?.into_iter().map(|row| {
            let column = |o: &AggOutput| match *o {
                AggOutput::GroupCol(i) => row[i].clone(),
                AggOutput::Agg(i) => row[width + i].clone(),
            };
            Row(agg.output.iter().map(column).collect())
        });
        Ok(rows.collect())
    }

    /// The one row source of a SELECT: every row `t`'s access path reads,
    /// handed to `sink` in fetch-list numbering. A subset scan's reply rows
    /// are laid out as the fetch list already; every other path reads
    /// whole rows (index rows, for an index-only scan), and those pass the
    /// residual here — read whole, in table field numbering, so a record it
    /// rejects is never decoded — before `sink` takes their fetched
    /// fields. After an evaluation error the residual admits no row but
    /// the access drains; its units (`1 + eval_cost / 2` per row evaluated,
    /// counting the one that failed) and the error come after, as when it
    /// filtered fetched rows.
    fn feed(
        &self,
        t: &TableAccess,
        txn: Option<TxnId>,
        sink: &mut impl Sink,
    ) -> Result<(), ExecError> {
        let of = &t.info.open;
        // A transaction's reads take shared locks; a bare read takes none.
        let lock = match txn {
            Some(_) => ReadLock::Shared,
            None => ReadLock::None,
        };
        let (mut evaluated, mut error) = (0, None);
        let mut offer = |row: &dyn RowAccessor, at: &[u16]| {
            if let Some(residual) = &t.residual {
                if error.is_some() {
                    return;
                }
                evaluated += 1;
                match residual.passes(row) {
                    Ok(true) => {}
                    Ok(false) => return,
                    Err(e) => {
                        error = Some(e);
                        return;
                    }
                }
            }
            sink.take(row, at);
        };
        match &t.access {
            AccessPath::TableScan {
                range,
                pushdown,
                mode,
            } => {
                // RSBB sends whole records, VSBB the fetch list.
                let projection = match mode {
                    SubsetMode::Rsbb => None,
                    SubsetMode::Vsbb => Some(&t.fetch_fields[..]),
                };
                let pushdown = pushdown.as_ref();
                let reply = |row: ReplyRow| sink.take_reply(row);
                self.fs
                    .scan_with(txn, of, range, pushdown, projection, *mode, lock, reply)?;
            }
            AccessPath::AggregateScan {
                range,
                pushdown,
                group_by,
                aggs,
            } => {
                let pushdown = pushdown.as_ref();
                let partial = |row: ReplyRow| sink.take_partial(row);
                self.fs
                    .aggregate_with(txn, of, range, pushdown, group_by, aggs, lock, partial)?;
            }
            AccessPath::Browse => {
                // Record-at-a-time: whole records, filtered here.
                let mut cur = self.fs.ens_open(of, txn);
                while let Some(full) = self.fs.ens_read_next(&mut cur)? {
                    self.sim().cpu_work(CpuLayer::Executor, 1);
                    offer(&full, &t.fetch_fields);
                }
            }
            AccessPath::IndexScan {
                index,
                range,
                index_pushdown,
                index_only,
            } => {
                let idx = &of.indexes[*index];
                let pushdown = index_pushdown.as_ref();
                match index_only {
                    // Project directly out of index rows.
                    Some(at) => self.fs.scan_index(txn, idx, range, pushdown, lock, |row| {
                        offer(&row.checked()?, at);
                        Ok(())
                    })?,
                    // Figure 2: fetch each base record by primary key.
                    None => self
                        .fs
                        .read_via_index(txn, of, idx, range, pushdown, lock, |row| {
                            offer(&row.checked()?, &t.fetch_fields);
                            Ok(())
                        })?,
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
                for full in snap.rows(table) {
                    self.sim().cpu_work(CpuLayer::Executor, 1);
                    if let Some(p) = pushdown {
                        if !p.passes(full)? {
                            continue;
                        }
                    }
                    offer(full, &t.fetch_fields);
                }
                // Charged after the snapshot was captured, so the bump is
                // part of this statement's own cost (visible to the *next*
                // snapshot), keeping self-observation idempotent.
                self.sim()
                    .measure
                    .entity(EntityKind::Process, "$SYS")
                    .bump(Ctr::SysScans);
            }
        }
        if let Some(residual) = t.residual.as_ref().filter(|_| evaluated > 0) {
            let units = evaluated * (1 + residual.eval_cost() / 2);
            self.sim().cpu_work(CpuLayer::Executor, units);
        }
        error.map_or(Ok(()), |e| Err(e.into()))
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

/// Where the row source puts a table's rows: the fetch-list rows a join or
/// a plain SELECT builds, or the aggregation.
trait Sink {
    /// A reply row laid out as the fetch list.
    fn take_reply(&mut self, row: ReplyRow) -> Result<(), FsError>;
    /// A partial group row of a fold at the source.
    fn take_partial(&mut self, row: ReplyRow) -> Result<(), FsError>;
    /// A row whose fetched fields are fields `at` of `row`, in that order.
    fn take(&mut self, row: &dyn RowAccessor, at: &[u16]);
}

/// Rows are built: a reply row decoded, and of any other row only its
/// fetched fields read.
impl Sink for Vec<Row> {
    fn take_reply(&mut self, row: ReplyRow) -> Result<(), FsError> {
        self.push(row.decode()?);
        Ok(())
    }
    /// The plan folds at the source only into an aggregation.
    fn take_partial(&mut self, _: ReplyRow) -> Result<(), FsError> {
        Err(FsError::Protocol(
            "partial groups for a row consumer".into(),
        ))
    }
    fn take(&mut self, row: &dyn RowAccessor, at: &[u16]) {
        self.push(Row(at.iter().map(|&f| row.field(f)).collect()));
    }
}

/// Rows are folded where they lie, and partial groups merged.
impl Sink for Aggregation<'_> {
    fn take_reply(&mut self, row: ReplyRow) -> Result<(), FsError> {
        self.fold(&row.checked()?);
        Ok(())
    }
    fn take_partial(&mut self, row: ReplyRow) -> Result<(), FsError> {
        self.merge(&row.checked()?);
        Ok(())
    }
    fn take(&mut self, row: &dyn RowAccessor, at: &[u16]) {
        self.fold(&Fetched { row, at });
    }
}

/// The fetch-list view of a row that holds more: field `i` is field
/// `at[i]` of `row`.
struct Fetched<'r> {
    row: &'r dyn RowAccessor,
    at: &'r [u16],
}

impl RowAccessor for Fetched<'_> {
    fn field(&self, i: u16) -> Value {
        self.row.field(self.at[i as usize])
    }
    fn eq_key(&self, i: u16, out: &mut Vec<u8>) {
        self.row.eq_key(self.at[i as usize], out)
    }
    fn field_ref(&self, i: u16) -> FieldRef<'_> {
        self.row.field_ref(self.at[i as usize])
    }
}
