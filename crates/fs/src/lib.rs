#![warn(missing_docs)]
//! The File System — the client-side library of the FS-DP interface.
//!
//! "The File System is a set of system library routines which ... run in
//! the process environment of the application (client) program." It is the
//! natural locale for the logic that, transparently to the caller:
//!
//! * routes a request to the right **partition** based on the record key;
//! * accesses a base record **via a secondary index** (Figure 2: one
//!   message to the index's Disk Process, one to the base file's);
//! * **maintains secondary indices** consistently with inserts, updates
//!   and deletes of base records.
//!
//! Two APIs are exposed, mirroring the paper:
//!
//! * [`enscribe`] — the old record-at-a-time interface (`READ`, `WRITE`,
//!   `LOCKRECORD`, sequential reads, and real sequential block buffering
//!   with its mandatory file lock);
//! * [`sqlapi`] — the new field/set-oriented interface: VSBB/RSBB subset
//!   scans with the continuation re-drive loop, set-oriented update/delete
//!   fan-out across partitions, update-expression and constraint pushdown,
//!   and the blocked-insert extension.

pub mod enscribe;
pub mod sqlapi;

pub use sqlapi::{BlockedInserter, CursorUpdater, ScanResult};

use nsql_dp::{DpError, DpReply, DpRequest, FileId, RowBlock};
use nsql_msg::{Bus, BusError, CpuId, MsgKind};
use nsql_records::key::{encode_key_value, encode_record_key};
use nsql_records::row::{check_row, decode_row, encode_row, CodecError};
use nsql_records::{KeyRange, RawRecord, RecordDescriptor, Row, RowAccessor, SetList, Value};
use nsql_sim::{CpuLayer, Ctr, EntityKind, Event, MeasureRecord, Sim, Wait};
use std::sync::Arc;

/// Errors surfaced to File System callers.
#[derive(Debug, Clone, PartialEq)]
pub enum FsError {
    /// The Disk Process rejected the request.
    Dp(DpError),
    /// The message system failed (process down / unknown).
    Bus(String),
    /// The row does not match the table's descriptor.
    BadRow(String),
    /// The server stayed unreachable after bounded retries and (where
    /// possible) a path switch; the statement is aborted cleanly.
    Unavailable(String),
    /// The FS-DP conversation violated the re-drive protocol (e.g. a
    /// continuation reply without a Subset Control Block or last key); the
    /// statement is aborted instead of panicking the requester.
    Protocol(String),
    /// The transaction has been doomed (deadlock victim or lock-wait
    /// timeout); the caller must abort it and may transparently retry the
    /// whole transaction. This is the typed, retryable variant client
    /// retry loops match on — never a panic path.
    Doomed {
        /// Why the transaction was doomed (contains `deadlock` or
        /// `timeout`).
        reason: String,
    },
}

impl From<DpError> for FsError {
    fn from(e: DpError) -> Self {
        match e {
            DpError::Deadlock { victim } => FsError::Doomed {
                reason: format!("deadlock victim {victim}"),
            },
            DpError::LockTimeout { victim } => FsError::Doomed {
                reason: format!("lock wait timeout doomed {victim}"),
            },
            other => FsError::Dp(other),
        }
    }
}

impl From<BusError> for FsError {
    fn from(e: BusError) -> Self {
        FsError::Bus(e.to_string())
    }
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::Dp(e) => write!(f, "disk process error: {e}"),
            FsError::Bus(e) => write!(f, "message system error: {e}"),
            FsError::BadRow(e) => write!(f, "bad row: {e}"),
            FsError::Unavailable(e) => write!(f, "server unavailable: {e}"),
            FsError::Protocol(e) => write!(f, "FS-DP protocol violation: {e}"),
            FsError::Doomed { reason } => write!(f, "transaction doomed: {reason}"),
        }
    }
}

impl std::error::Error for FsError {}

/// A reply of a shape the request `verb` cannot have: the statement is
/// aborted instead of panicking the requester.
pub(crate) fn unexpected(verb: &str, reply: &DpReply) -> FsError {
    FsError::Protocol(format!("unexpected reply to {verb}: {reply:?}"))
}

// The bounded virtual-time retry policy the File System applies to FS-DP
// requests that time out or find their path down.

/// Give up (and fail the statement) after this many retries.
pub const MAX_RETRIES: u32 = 6;
/// Initial backoff charged to the virtual clock before a retry.
const RETRY_BACKOFF_US: u64 = 500;
/// Backoff doubles per retry up to this cap.
const MAX_RETRY_BACKOFF_US: u64 = 8_000;

/// One horizontal partition of a file: a Disk Process and the primary-key
/// range it owns.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Disk Process name (`$DATA1`).
    pub process: String,
    /// File id on that volume.
    pub file: FileId,
    /// Primary-key range this partition owns.
    pub range: KeyRange,
}

/// A secondary index: a separate key-sequenced file, possibly on another
/// volume, whose rows are `(indexed fields ..., base primary-key fields)`.
#[derive(Debug, Clone)]
pub struct IndexInfo {
    /// Index name.
    pub name: String,
    /// Disk Process holding the index file.
    pub process: String,
    /// File id of the index file.
    pub file: FileId,
    /// Base-table field numbers the index covers, in index-key order.
    pub base_fields: Vec<u16>,
    /// Unique index?
    pub unique: bool,
    /// Layout of index rows: indexed fields followed by the base table's
    /// primary-key fields.
    pub desc: RecordDescriptor,
}

impl IndexInfo {
    /// Construct the index metadata for `base_fields` of `base`.
    pub fn build(
        name: impl Into<String>,
        process: impl Into<String>,
        file: FileId,
        base: &RecordDescriptor,
        base_fields: Vec<u16>,
        unique: bool,
    ) -> IndexInfo {
        let mut fields = Vec::new();
        for &f in &base_fields {
            fields.push(base.fields[f as usize].clone());
        }
        for &k in &base.key_fields {
            fields.push(base.fields[k as usize].clone());
        }
        // Unique index: key = indexed fields only. Non-unique: the base
        // primary key is appended to the index key to make entries unique.
        let nkeys = if unique {
            base_fields.len()
        } else {
            fields.len()
        };
        let desc = RecordDescriptor::new(fields, (0..nkeys as u16).collect());
        IndexInfo {
            name: name.into(),
            process: process.into(),
            file,
            base_fields,
            unique,
            desc,
        }
    }

    /// Build the index row for a base row.
    pub fn index_row(&self, base: &RecordDescriptor, row: &[Value]) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.desc.num_fields());
        for &f in &self.base_fields {
            out.push(row[f as usize].clone());
        }
        for &k in &base.key_fields {
            out.push(row[k as usize].clone());
        }
        out
    }

    /// Where base field `f` lies in an index row: among the indexed fields,
    /// else among the base key fields after them; `None` when the index
    /// does not carry it.
    pub fn field_of(&self, base: &RecordDescriptor, f: u16) -> Option<u16> {
        let indexed = self.base_fields.iter().position(|&b| b == f);
        let key = || {
            let at = base.key_fields.iter().position(|&k| k == f)?;
            Some(self.base_fields.len() + at)
        };
        indexed.or_else(key).map(|at| at as u16)
    }

    /// The change of this index's entries that a base row's change from
    /// `old` to `new` makes (`None` where there is no row: an insert has no
    /// `old`, a delete no `new`). Nothing changes when the old and the new
    /// index rows are the same bit for bit ([`Value::is_identical`]): a
    /// `0.0` that became `-0.0` is the same key but not the same row.
    pub(crate) fn change(
        &self,
        base: &RecordDescriptor,
        old: Option<&[Value]>,
        new: Option<&[Value]>,
    ) -> Result<IndexChange, FsError> {
        let old = old.map(|row| self.index_row(base, row));
        let new = new.map(|row| self.index_row(base, row));
        if let (Some(old), Some(new)) = (&old, &new) {
            if old.iter().zip(new).all(|(a, b)| a.is_identical(b)) {
                return Ok(IndexChange::default());
            }
        }
        let entry = |irow: Vec<Value>| -> Result<_, FsError> {
            let record = encode_row(&self.desc, &irow).map_err(bad_row)?;
            Ok((encode_record_key(&self.desc, &irow), record))
        };
        Ok(IndexChange {
            delete: old.map(|irow| encode_record_key(&self.desc, &irow)),
            insert: new.map(entry).transpose()?,
        })
    }

    /// Extract the base primary key (encoded) from an index row, decoded
    /// or read where it lies.
    pub fn base_key_from_index_row(
        &self,
        base: &RecordDescriptor,
        irow: &dyn RowAccessor,
    ) -> Vec<u8> {
        let mut key = Vec::new();
        for (i, &k) in base.key_fields.iter().enumerate() {
            let ty = base.fields[k as usize].ty;
            let at = (self.base_fields.len() + i) as u16;
            encode_key_value(ty, &irow.field(at), &mut key);
        }
        key
    }
}

/// What one base-row change does to one index: the old entry goes, then
/// the new one comes.
#[derive(Debug, Default)]
pub(crate) struct IndexChange {
    /// Key of the index entry to delete.
    pub(crate) delete: Option<Vec<u8>>,
    /// Key and record of the index entry to insert.
    pub(crate) insert: Option<(Vec<u8>, Vec<u8>)>,
}

/// An open file (table): the union of its partitions plus its indices.
/// "The file or table is viewed as the sum of all its partitions and
/// secondary indices only from the perspective of the SQL Executor or
/// ENSCRIBE File System invoker."
#[derive(Debug, Clone)]
pub struct OpenFile {
    /// Table name (diagnostics).
    pub name: String,
    /// Record layout.
    pub desc: RecordDescriptor,
    /// Partitions in ascending key order.
    pub partitions: Vec<Partition>,
    /// Secondary indices.
    pub indexes: Vec<IndexInfo>,
}

impl OpenFile {
    /// A single-partition table with no indices.
    pub fn single(
        name: impl Into<String>,
        desc: RecordDescriptor,
        process: impl Into<String>,
        file: FileId,
    ) -> OpenFile {
        OpenFile {
            name: name.into(),
            desc,
            partitions: vec![Partition {
                process: process.into(),
                file,
                range: KeyRange::all(),
            }],
            indexes: Vec::new(),
        }
    }

    /// The position of the partition owning `key`. A key no partition
    /// owns (the ranges of a file built by hand need not cover the key
    /// space) is refused.
    pub(crate) fn partition_of(&self, key: &[u8]) -> Result<usize, FsError> {
        let owner = self.partitions.iter().position(|p| p.range.contains(key));
        owner
            .ok_or_else(|| FsError::Protocol(format!("no partition of {} owns the key", self.name)))
    }

    /// The partition owning `key`, as [`OpenFile::partition_of`] finds it.
    pub fn partition_for(&self, key: &[u8]) -> Result<&Partition, FsError> {
        Ok(&self.partitions[self.partition_of(key)?])
    }

    /// The primary key of a row rewritten from `old` to `new`; a rewrite
    /// that changes it is refused, as the Disk Process refuses an update of
    /// a key field.
    pub(crate) fn rewritten_key(&self, old: &[Value], new: &[Value]) -> Result<Vec<u8>, FsError> {
        let key = encode_record_key(&self.desc, new);
        if key != encode_record_key(&self.desc, old) {
            return Err(FsError::Dp(DpError::KeyUpdateNotAllowed));
        }
        Ok(key)
    }

    /// Does a write that assigns `sets` (an UPDATE), or removes rows
    /// (`None`, a DELETE), change an index of this file? Such a write needs
    /// each old row to keep the index in step: a set write of it runs row
    /// at a time (its rows read via VSBB, then each changed by key), not as
    /// one `UPDATE`/`DELETE` subset conversation. The one place that choice
    /// is made, for the writers and for EXPLAIN.
    pub fn write_changes_indexes(&self, sets: Option<&SetList>) -> bool {
        match sets {
            Some(sets) => {
                let targets = sets.target_fields();
                let touched = |i: &IndexInfo| i.base_fields.iter().any(|f| targets.contains(f));
                self.indexes.iter().any(touched)
            }
            None => !self.indexes.is_empty(),
        }
    }

    /// Partitions overlapping `range`, each with the clipped sub-range.
    pub fn partitions_for_range(&self, range: &KeyRange) -> Vec<(&Partition, KeyRange)> {
        self.partitions
            .iter()
            .filter_map(|p| {
                let clipped = range.intersect(&p.range);
                (!clipped.is_empty()).then_some((p, clipped))
            })
            .collect()
    }
}

/// Source of unique opener ids for sync-ID duplicate suppression. The
/// values only need to be distinct per File System instance within one
/// process; they never influence timing, metrics or traces.
static NEXT_OPENER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// The File System library instance of one requester (application process).
pub struct FileSystem {
    pub(crate) sim: Sim,
    pub(crate) bus: Arc<Bus>,
    /// The CPU the requester runs on (message locality depends on it).
    pub cpu: CpuId,
    /// This opener's identity in every sync ID it issues.
    opener: u64,
    /// Per-opener sync sequence (retries of one request reuse one value).
    sync_seq: std::sync::atomic::AtomicU64,
    /// MEASURE record of the requester's CPU: retries and path switches
    /// are charged to the CPU, not to any one server process.
    rec: Arc<MeasureRecord>,
}

impl FileSystem {
    /// A File System bound to a requester CPU.
    pub fn new(sim: Sim, bus: Arc<Bus>, cpu: CpuId) -> FileSystem {
        let rec = sim.measure.entity(EntityKind::Cpu, &cpu.to_string());
        FileSystem {
            sim,
            bus,
            cpu,
            opener: NEXT_OPENER.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            sync_seq: std::sync::atomic::AtomicU64::new(0),
            rec,
        }
    }

    /// The simulation context (experiments).
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Send one FS-DP request and unwrap the reply. Public for the SQL
    /// catalog (DDL) and the experiment harness; regular data access goes
    /// through the typed methods.
    ///
    /// Every request carries a sync ID, and this is the File System's
    /// recovery chokepoint: on a timeout or a down path it backs off
    /// (bounded, virtual-time), asks the cluster to re-resolve the
    /// volume's primary (backup takeover), and retries the *same* sync ID
    /// so the Disk Process can suppress a duplicate execution. Retries
    /// exhausted surface as [`FsError::Unavailable`] — a statement error,
    /// not a panic.
    pub fn send(&self, to: &str, req: DpRequest) -> Result<DpReply, FsError> {
        self.sim.cpu_work(CpuLayer::FileSystem, 2);
        let kind = if req.is_redrive() {
            MsgKind::Redrive
        } else {
            MsgKind::FsDp
        };
        let size = req.wire_size();
        let label = req.name();
        // The request span: one hop of the statement's causal tree, open
        // across every retry of this logical request. Its identity rides
        // the already-accounted request header so the Disk Process can
        // attach its handling span on the far side of the wire.
        let span = self.sim.span_child(label, &self.cpu);
        let env = nsql_dp::SyncRequest {
            sync: nsql_dp::SyncId {
                opener: self.opener,
                seq: self
                    .sync_seq
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            },
            span: span.header(),
            req,
        };
        let make = move || -> Box<dyn std::any::Any + Send> { Box::new(env.clone()) };
        // The server's record, looked up only when something goes wrong.
        let server_rec = || self.sim.measure.entity(EntityKind::Process, to);
        let mut attempt = 0u32;
        let mut backoff = RETRY_BACKOFF_US;
        loop {
            match self
                .bus
                .request_replayable(self.cpu, to, kind, size, &make, label)
            {
                Ok(resp) => {
                    let reply = match resp.downcast::<DpReply>() {
                        Ok(r) => r,
                        Err(_) => {
                            self.sim
                                .flight_dump(&server_rec(), "protocol violation (bad reply type)");
                            return Err(FsError::Protocol("reply was not a DpReply".to_string()));
                        }
                    };
                    return match reply {
                        // From<DpError> routes doom-class errors (deadlock
                        // victim, lock-wait timeout) to FsError::Doomed.
                        DpReply::Error(e) => Err(FsError::from(e)),
                        ok => Ok(ok),
                    };
                }
                Err(e) if e.is_retriable() && attempt < MAX_RETRIES => {
                    attempt += 1;
                    // Counted now, reported once the backoff is served: a
                    // takeover's postmortem already shows this retry.
                    self.rec.bump(Ctr::RetryBackoffs);
                    let (from, server) = (&*self.rec, server_rec());
                    if matches!(e, BusError::CpuDown(_)) && self.bus.try_path_switch(to) {
                        let resumed = false;
                        self.sim.emit(&server, Event::PathSwitch { from, resumed });
                    }
                    self.sim.clock.advance_in(Wait::Retry, backoff);
                    let retry = Event::Retry {
                        label,
                        attempt,
                        backoff_us: backoff,
                    };
                    self.sim.emit(&server, retry);
                    backoff = (backoff * 2).min(MAX_RETRY_BACKOFF_US);
                }
                Err(e) if e.is_retriable() => {
                    // The server stayed unreachable through the whole retry
                    // budget: dump its flight ring for the postmortem.
                    let server = server_rec();
                    let refused = Event::Refused(format!("{label}: {e}"), attempt.into());
                    self.sim.emit(&server, refused);
                    self.sim.flight_dump(&server, "retries exhausted (FS)");
                    return Err(FsError::Unavailable(e.to_string()));
                }
                Err(e) => return Err(FsError::Bus(e.to_string())),
            }
        }
    }

    /// De-block a reply: hand each row of `block`, in order and as it lies
    /// in the reply, to `take`, which refuses a row that does not decode
    /// ([`ReplyRow`]). The reply costs one charge, booked after the block: a
    /// unit per row handed over, counting one that fails (nothing `take`
    /// does may read the virtual clock).
    pub(crate) fn deblock(
        &self,
        block: &RowBlock,
        mut take: impl FnMut(&[u8]) -> Result<(), FsError>,
    ) -> Result<(), FsError> {
        let mut handed = 0;
        let taken = block.iter().try_for_each(|bytes| {
            handed += 1;
            take(bytes)
        });
        self.sim.cpu_work(CpuLayer::FileSystem, handed);
        taken
    }
}

/// A row that does not decode, as the caller sees it.
pub(crate) fn bad_row(e: CodecError) -> FsError {
    FsError::BadRow(e.to_string())
}

/// A row as a reply carries it, laid out per `desc`. It leaves by one of
/// two doors, which refuse the same rows with the same [`FsError::BadRow`]:
/// [`ReplyRow::decode`] for its values, or [`ReplyRow::checked`] to read
/// it where it lies. Either consumes it: no row is checked and decoded.
pub struct ReplyRow<'a> {
    desc: &'a RecordDescriptor,
    bytes: &'a [u8],
}

// Every reply row crosses into the executor's crate through these: inlined,
// and `checked` matching rather than using `?`, a row costs what
// `check_row` or `decode_row` does. As calls, a 20 k-row `GROUP BY` ran
// about 5 % slower (11–14 ns a row on a 2-core x86-64 VM).
impl<'a> ReplyRow<'a> {
    /// The record `bytes`, laid out per `desc`.
    #[inline]
    pub fn new(desc: &'a RecordDescriptor, bytes: &'a [u8]) -> Self {
        ReplyRow { desc, bytes }
    }

    /// The row's values, in one pass over the layout.
    #[inline]
    pub fn decode(self) -> Result<Row, FsError> {
        decode_row(self.desc, self.bytes).map_err(bad_row)
    }

    /// The row to be read in place, every field found to decode
    /// ([`check_row`], which allocates nothing).
    #[inline]
    pub fn checked(self) -> Result<RawRecord<'a>, FsError> {
        match check_row(self.desc, self.bytes) {
            Ok(()) => Ok(RawRecord {
                desc: self.desc,
                bytes: self.bytes,
            }),
            Err(e) => Err(bad_row(e)),
        }
    }
}

#[cfg(test)]
mod tests;
