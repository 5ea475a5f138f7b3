//! The read-only `sys.*` introspection schema.
//!
//! Tandem argued the paper's numbers from MEASURE; a production SQL system
//! turns that telemetry back on itself and serves it *through SQL*. This
//! module defines the virtual tables — their names, descriptors, and the
//! [`SysSnapshot`] row container the cluster materialises once per
//! statement — while `nsql-core` (which can see the simulator, lock
//! managers, and transaction manager) fills the rows in.
//!
//! Coherence contract: the snapshot is captured after planning and before
//! execution, from mutex/atomic reads only. Capturing advances no clock and
//! bumps no counter, so two back-to-back `SELECT * FROM sys.counters`
//! statements differ exactly by the first statement's own cost.

use crate::catalog::TableInfo;
use nsql_fs::OpenFile;
use nsql_records::{FieldDef, FieldType, RecordDescriptor, Row};

/// The virtual tables of the `sys` schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysTable {
    /// `sys.counters`: every non-zero MEASURE counter of every entity.
    Counters,
    /// `sys.waits`: the attributed-clock wait ledger, one row per category.
    Waits,
    /// `sys.locks`: held locks across all volumes, in grant order.
    Locks,
    /// `sys.lock_waiters`: FIFO lock queues across all volumes.
    LockWaiters,
    /// `sys.histograms`: log2 buckets plus interpolated percentile summary
    /// rows for every always-on histogram.
    Histograms,
    /// `sys.trace`: ring contents (with span ids) behind a companion row
    /// carrying the ring capacity and drop count.
    Trace,
    /// `sys.sessions`: every session the cluster has opened.
    Sessions,
    /// `sys.txns`: every transaction the manager still remembers.
    Txns,
}

impl SysTable {
    /// Every virtual table, in rendering order.
    pub const ALL: [SysTable; 8] = [
        SysTable::Counters,
        SysTable::Waits,
        SysTable::Locks,
        SysTable::LockWaiters,
        SysTable::Histograms,
        SysTable::Trace,
        SysTable::Sessions,
        SysTable::Txns,
    ];

    /// Canonical (upper-cased, dotted) table name.
    pub fn name(self) -> &'static str {
        match self {
            SysTable::Counters => "SYS.COUNTERS",
            SysTable::Waits => "SYS.WAITS",
            SysTable::Locks => "SYS.LOCKS",
            SysTable::LockWaiters => "SYS.LOCK_WAITERS",
            SysTable::Histograms => "SYS.HISTOGRAMS",
            SysTable::Trace => "SYS.TRACE",
            SysTable::Sessions => "SYS.SESSIONS",
            SysTable::Txns => "SYS.TXNS",
        }
    }

    /// Resolve a (case-insensitive) dotted name.
    pub fn from_name(name: &str) -> Option<SysTable> {
        let upper = name.to_ascii_uppercase();
        SysTable::ALL.iter().copied().find(|t| t.name() == upper)
    }

    /// Record layout of the virtual table.
    pub fn descriptor(self) -> RecordDescriptor {
        let s = |name: &str, n: u16| FieldDef::new(name, FieldType::Varchar(n));
        let i = |name: &str| FieldDef::new(name, FieldType::LargeInt);
        let ni = |name: &str| FieldDef::nullable(name, FieldType::LargeInt);
        let fields = match self {
            SysTable::Counters => vec![
                s("ENTITY_KIND", 16),
                s("ENTITY", 64),
                s("COUNTER", 32),
                i("VALUE"),
            ],
            SysTable::Waits => vec![s("CATEGORY", 32), i("US")],
            SysTable::Locks => vec![
                s("VOLUME", 32),
                i("TXN"),
                i("FILE"),
                s("MODE", 16),
                s("SCOPE", 64),
            ],
            SysTable::LockWaiters => vec![
                s("VOLUME", 32),
                i("POS"),
                i("TXN"),
                i("FILE"),
                s("MODE", 16),
                s("SCOPE", 64),
                i("SINCE_US"),
            ],
            SysTable::Histograms => vec![
                s("HIST", 32),
                s("KIND", 16),
                i("LO"),
                i("HI"),
                i("COUNT"),
                ni("P50"),
                ni("P95"),
                ni("P99"),
                ni("P999"),
            ],
            SysTable::Trace => vec![i("SEQ"), i("AT_US"), s("KIND", 32), s("DETAIL", 128)],
            SysTable::Sessions => vec![
                i("SESSION"),
                s("CPU", 16),
                i("STATEMENTS"),
                ni("TXN"),
                i("OPEN"),
            ],
            SysTable::Txns => vec![
                i("TXN"),
                s("STATE", 16),
                i("DOOMED"),
                s("PARTICIPANTS", 128),
            ],
        };
        RecordDescriptor::new(fields, vec![0])
    }
}

/// Is `name` (any case) inside the reserved `sys` schema? True for unknown
/// `sys.` names too, so they fail with a clear error instead of falling
/// through to the catalog.
pub fn is_sys_name(name: &str) -> bool {
    let upper = name.to_ascii_uppercase();
    upper.starts_with("SYS.")
}

/// Synthesise the catalog entry for a `sys.*` name (`None` when the name is
/// outside the schema or not a known virtual table).
pub fn table_info(name: &str) -> Option<TableInfo> {
    let t = SysTable::from_name(name)?;
    Some(TableInfo {
        name: t.name().to_string(),
        // Virtual: the partition routes nowhere (the executor serves rows
        // from the statement's snapshot), but the planner's scope/projection
        // machinery still wants an OpenFile-shaped descriptor.
        open: OpenFile::single(t.name(), t.descriptor(), "$SYS", 0),
        checks: Vec::new(),
    })
}

/// One statement's coherent view of the cluster's telemetry: full rows per
/// virtual table, captured between planning and execution.
#[derive(Debug, Clone, Default)]
pub struct SysSnapshot {
    /// Rows of `sys.counters`.
    pub counters: Vec<Row>,
    /// Rows of `sys.waits`.
    pub waits: Vec<Row>,
    /// Rows of `sys.locks`.
    pub locks: Vec<Row>,
    /// Rows of `sys.lock_waiters`.
    pub lock_waiters: Vec<Row>,
    /// Rows of `sys.histograms`.
    pub histograms: Vec<Row>,
    /// Rows of `sys.trace`.
    pub trace: Vec<Row>,
    /// Rows of `sys.sessions`.
    pub sessions: Vec<Row>,
    /// Rows of `sys.txns`.
    pub txns: Vec<Row>,
}

impl SysSnapshot {
    /// The captured full rows of one virtual table.
    pub fn rows(&self, t: SysTable) -> &[Row] {
        match t {
            SysTable::Counters => &self.counters,
            SysTable::Waits => &self.waits,
            SysTable::Locks => &self.locks,
            SysTable::LockWaiters => &self.lock_waiters,
            SysTable::Histograms => &self.histograms,
            SysTable::Trace => &self.trace,
            SysTable::Sessions => &self.sessions,
            SysTable::Txns => &self.txns,
        }
    }
}
