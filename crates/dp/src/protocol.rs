//! The FS-DP interface: the messages the File System sends a Disk Process.
//!
//! Two generations coexist, exactly as in the paper:
//!
//! * the **old ENSCRIBE interface** — record-at-a-time reads, writes,
//!   deletes and explicit locking, plus real sequential block buffering
//!   (one physical block copy per message);
//! * the **new NonStop SQL interface** — field- and set-oriented messages
//!   (`GET^FIRST^VSBB`, `GET^NEXT^VSBB`, `UPDATE^SUBSET^FIRST`, ...) that
//!   carry key ranges, selection predicates, projections, update
//!   expressions and integrity constraints down to the Disk Process, with
//!   the continuation re-drive protocol on top.
//!
//! Every request/reply reports its wire size so the message system can
//! account bytes — the paper's central metric.

use nsql_lock::{LockMode, TxnId};
use nsql_records::row::CodecError;
use nsql_records::{AggFunc, Expr, KeyRange, Projection, RecordDescriptor, SetList};
use std::sync::Arc;

/// File identifier within a volume.
pub type FileId = u32;

/// Identifier of a Subset Control Block within a Disk Process.
pub type SubsetId = u64;

/// The duplicate-suppression identity every FS-DP request carries in its
/// header: the requester's opener id plus a per-opener sequence number.
/// Tandem's File System kept exactly this "sync ID" so a server could
/// recognise a retransmission after a lost reply and answer it from saved
/// state instead of re-executing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SyncId {
    /// The opener (one File System instance's session with the server).
    pub opener: u64,
    /// Monotone per-opener request number. Retries of one logical request
    /// reuse the same sequence number.
    pub seq: u64,
}

/// A [`DpRequest`] as it travels on the wire: the request plus its
/// [`SyncId`]. The sync ID rides in the 16-byte request header that
/// [`DpRequest::wire_size`] already accounts for, so carrying it costs no
/// extra message bytes.
#[derive(Debug, Clone)]
pub struct SyncRequest {
    /// Duplicate-suppression identity.
    pub sync: SyncId,
    /// Causal span identity of the request (trace / span / parent). Like the
    /// sync ID it rides in the 16-byte request header that
    /// [`DpRequest::wire_size`] already accounts for, so carrying it costs
    /// no extra message bytes.
    pub span: nsql_sim::SpanHeader,
    /// The request itself.
    pub req: DpRequest,
}

/// How records touched by a read are locked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadLock {
    /// Browse access: no locks (dirty read).
    None,
    /// Shared locks — for VSBB, one *group* lock covering the virtual
    /// block's key span.
    Shared,
}

/// Whether audit records carry full images (ENSCRIBE) or field-compressed
/// images (SQL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMode {
    /// Full record before/after images.
    FullImage,
    /// Field-level before/after images.
    FieldCompressed,
}

/// Read-subset transfer mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubsetMode {
    /// Real sequential block buffering: full records, one physical block's
    /// worth per reply, no selection or projection.
    Rsbb,
    /// Virtual sequential block buffering: the Disk Process builds virtual
    /// blocks of selected, projected data.
    Vsbb,
}

/// The operation of a subset conversation: what the Disk Process does with
/// each record the key range and predicate select. Sent once, in the FIRST
/// request, and kept as received in the Subset Control Block.
#[derive(Debug, Clone)]
pub enum SubsetOp {
    /// Return the records (`GET^FIRST^VSBB` / `GET^FIRST^RSBB`).
    Read {
        /// Enclosing transaction, if any.
        txn: Option<TxnId>,
        /// Projected field numbers (VSBB only; None = whole records).
        projection: Option<Vec<u16>>,
        /// RSBB or VSBB.
        mode: SubsetMode,
        /// Lock behaviour for returned records.
        lock: ReadLock,
    },
    /// Update them in place (`UPDATE^SUBSET^FIRST`).
    Update {
        /// Enclosing transaction.
        txn: TxnId,
        /// Update expressions (`SET BALANCE = BALANCE * 1.07`).
        sets: SetList,
        /// Integrity constraint checked on each new record at the Disk
        /// Process (`CHECK QUANTITY >= 0`).
        constraint: Option<Expr>,
    },
    /// Delete them (`DELETE^SUBSET^FIRST`).
    Delete {
        /// Enclosing transaction.
        txn: TxnId,
    },
    /// Fold them into groups (`AGGREGATE^SUBSET^FIRST`): each request
    /// replies with the partial groups of exactly the records it selected,
    /// one row each, laid out by [`nsql_records::fold::partial_layout`].
    Aggregate {
        /// Enclosing transaction, if any.
        txn: Option<TxnId>,
        /// Lock behaviour for the records folded.
        lock: ReadLock,
        /// Grouping fields.
        group_by: Vec<u16>,
        /// Each aggregate and its field (`None` = `*`); only those
        /// [`nsql_records::fold::pushable`] admits.
        aggs: Vec<(AggFunc, Option<u16>)>,
    },
}

impl SubsetOp {
    /// The verb its re-drives carry.
    pub fn verb(&self) -> SubsetVerb {
        match self {
            SubsetOp::Read { .. } => SubsetVerb::Get,
            SubsetOp::Update { .. } => SubsetVerb::Update,
            SubsetOp::Delete { .. } => SubsetVerb::Delete,
            SubsetOp::Aggregate { .. } => SubsetVerb::Aggregate,
        }
    }
}

/// Which [`SubsetOp`] a re-drive continues: a one-byte tag in the NEXT
/// request (the operation itself stays in the Subset Control Block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubsetVerb {
    /// `GET^NEXT`.
    Get,
    /// `UPDATE^SUBSET^NEXT`.
    Update,
    /// `DELETE^SUBSET^NEXT`.
    Delete,
    /// `AGGREGATE^SUBSET^NEXT`.
    Aggregate,
}

/// A request message on the FS-DP interface.
#[derive(Debug, Clone)]
pub enum DpRequest {
    // ----- administration -----
    /// Create a key-sequenced file on the volume.
    CreateFile {
        /// Record layout, so the Disk Process can evaluate field-level
        /// operations at the data source.
        desc: RecordDescriptor,
    },
    /// Synchronously flush dirty cache (orderly shutdown / checkpoint).
    FlushCache,

    // ----- old ENSCRIBE record-at-a-time interface -----
    /// Read one record by key.
    Read {
        /// Enclosing transaction, if any.
        txn: Option<TxnId>,
        /// Target file.
        file: FileId,
        /// Encoded primary key.
        key: Vec<u8>,
        /// Lock behaviour.
        lock: ReadLock,
    },
    /// Read the single next record after a key (ENSCRIBE record-at-a-time
    /// sequential read: one message per record).
    ReadNext {
        /// Enclosing transaction, if any.
        txn: Option<TxnId>,
        /// Target file.
        file: FileId,
        /// Resume point (None = first record).
        after: Option<Vec<u8>>,
        /// Lock behaviour.
        lock: ReadLock,
    },
    /// Read one physical block's worth of records starting at a key
    /// (ENSCRIBE sequential block buffering; requires a file lock, which
    /// the File System must hold).
    ReadSeqBlock {
        /// Enclosing transaction, if any.
        txn: Option<TxnId>,
        /// Target file.
        file: FileId,
        /// Resume point: records strictly after this key (None = start).
        after: Option<Vec<u8>>,
    },
    /// Insert a record.
    Insert {
        /// Enclosing transaction.
        txn: TxnId,
        /// Target file.
        file: FileId,
        /// Encoded primary key.
        key: Vec<u8>,
        /// Encoded record.
        record: Vec<u8>,
    },
    /// Replace a record with a full new image (ENSCRIBE WRITE).
    UpdateRecord {
        /// Enclosing transaction.
        txn: TxnId,
        /// Target file.
        file: FileId,
        /// Encoded primary key.
        key: Vec<u8>,
        /// Full new record image.
        record: Vec<u8>,
        /// Audit image mode.
        audit: AuditMode,
    },
    /// Delete a record by key.
    DeleteRecord {
        /// Enclosing transaction.
        txn: TxnId,
        /// Target file.
        file: FileId,
        /// Encoded primary key.
        key: Vec<u8>,
    },
    /// Acquire an explicit lock (ENSCRIBE LOCKFILE / LOCKREC; also used by
    /// the File System for SBB's mandatory file lock).
    Lock {
        /// Locking transaction.
        txn: TxnId,
        /// Target file.
        file: FileId,
        /// Key for a record lock, or None for a file lock.
        key: Option<Vec<u8>>,
        /// Mode.
        mode: LockMode,
    },

    // ----- new NonStop SQL field/set-oriented interface -----
    /// `GET^FIRST^VSBB` / `GET^FIRST^RSBB` / `UPDATE^SUBSET^FIRST` /
    /// `DELETE^SUBSET^FIRST`: open a subset conversation. The Disk Process
    /// runs `op` over the selected records of `range` until a limit stops
    /// it, and keeps the request in a Subset Control Block when it does.
    SubsetFirst {
        /// Target file.
        file: FileId,
        /// Primary key range.
        range: KeyRange,
        /// Selection predicate (single-variable query), evaluated per
        /// record at the Disk Process.
        predicate: Option<Expr>,
        /// What to do with each selected record.
        op: SubsetOp,
    },
    /// `GET^NEXT` / `UPDATE^SUBSET^NEXT` / `DELETE^SUBSET^NEXT`:
    /// continuation re-drive. Predicate and operation are *not* re-sent —
    /// they live in the Subset Control Block.
    SubsetNext {
        /// Subset Control Block id from the FIRST reply.
        subset: SubsetId,
        /// Last key processed (the new exclusive begin-key).
        after: Vec<u8>,
        /// The operation the requester believes it is continuing; the Disk
        /// Process refuses a re-drive whose verb is not its SCB's.
        verb: SubsetVerb,
    },
    /// Single-record update with expressions and constraint (the
    /// read-before-write eliminator for point updates).
    UpdatePoint {
        /// Enclosing transaction.
        txn: TxnId,
        /// Target file.
        file: FileId,
        /// Encoded primary key.
        key: Vec<u8>,
        /// Update expressions over the record at hand.
        sets: SetList,
        /// Integrity constraint on the new record.
        constraint: Option<Expr>,
    },
    /// Blocked sequential insert (the paper's *Opportunities for Future
    /// Performance Enhancements*): many records in one message. The File
    /// System must hold a lock on the target key range by prior agreement.
    BlockedInsert {
        /// Enclosing transaction.
        txn: TxnId,
        /// Target file.
        file: FileId,
        /// `(key, record)` pairs in key order.
        records: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// Release a Subset Control Block early (statement closed).
    CloseSubset {
        /// Subset Control Block id.
        subset: SubsetId,
    },
    /// Buffered `UPDATE WHERE CURRENT` (future-work extension): full new
    /// images for records the requester's cursor updated, in one message.
    BlockedUpdate {
        /// Enclosing transaction.
        txn: TxnId,
        /// Target file.
        file: FileId,
        /// `(key, full new record image)` pairs.
        records: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// Buffered `DELETE WHERE CURRENT` (future-work extension).
    BlockedDelete {
        /// Enclosing transaction.
        txn: TxnId,
        /// Target file.
        file: FileId,
        /// Keys of records the cursor deleted.
        keys: Vec<Vec<u8>>,
    },
}

fn opt_len(v: &Option<Vec<u8>>) -> usize {
    1 + v.as_ref().map_or(0, Vec::len)
}

impl DpRequest {
    /// Wire size in bytes for message accounting. Header of 16 bytes plus
    /// variant payload.
    pub fn wire_size(&self) -> usize {
        16 + match self {
            DpRequest::CreateFile { desc } => desc.encode_bytes().len(),
            DpRequest::FlushCache => 0,
            DpRequest::Read { key, .. } => 8 + key.len(),
            DpRequest::ReadNext { after, .. } => 9 + opt_len(after),
            DpRequest::ReadSeqBlock { after, .. } => 8 + opt_len(after),
            DpRequest::Insert { key, record, .. } => 8 + key.len() + record.len(),
            DpRequest::UpdateRecord { key, record, .. } => 9 + key.len() + record.len(),
            DpRequest::DeleteRecord { key, .. } => 8 + key.len(),
            DpRequest::Lock { key, .. } => 9 + opt_len(key),
            DpRequest::SubsetFirst {
                range,
                predicate,
                op,
                ..
            } => {
                range.wire_size()
                    + predicate.as_ref().map_or(1, Expr::wire_size)
                    + match op {
                        SubsetOp::Read { projection, .. } => {
                            10 + projection.as_ref().map_or(1, |p| 1 + 2 * p.len())
                        }
                        SubsetOp::Update {
                            sets, constraint, ..
                        } => 8 + sets.wire_size() + constraint.as_ref().map_or(1, Expr::wire_size),
                        SubsetOp::Delete { .. } => 8,
                        // A function byte and a field number per aggregate.
                        SubsetOp::Aggregate { group_by, aggs, .. } => {
                            10 + 1 + 2 * group_by.len() + 1 + 3 * aggs.len()
                        }
                    }
            }
            DpRequest::SubsetNext { after, .. } => 8 + after.len(),
            DpRequest::UpdatePoint {
                key,
                sets,
                constraint,
                ..
            } => 8 + key.len() + sets.wire_size() + constraint.as_ref().map_or(1, Expr::wire_size),
            DpRequest::BlockedInsert { records, .. } => {
                8 + records
                    .iter()
                    .map(|(k, r)| 4 + k.len() + r.len())
                    .sum::<usize>()
            }
            DpRequest::CloseSubset { .. } => 8,
            DpRequest::BlockedUpdate { records, .. } => {
                8 + records
                    .iter()
                    .map(|(k, r)| 4 + k.len() + r.len())
                    .sum::<usize>()
            }
            DpRequest::BlockedDelete { keys, .. } => {
                8 + keys.iter().map(|k| 2 + k.len()).sum::<usize>()
            }
        }
    }

    /// Short verb name in the paper's style, used to label trace events.
    pub fn name(&self) -> &'static str {
        match self {
            DpRequest::CreateFile { .. } => "CREATE^FILE",
            DpRequest::FlushCache => "FLUSH^CACHE",
            DpRequest::Read { .. } => "READ",
            DpRequest::ReadNext { .. } => "READ^NEXT",
            DpRequest::ReadSeqBlock { .. } => "READ^SEQ^BLOCK",
            DpRequest::Insert { .. } => "INSERT",
            DpRequest::UpdateRecord { .. } => "WRITE",
            DpRequest::DeleteRecord { .. } => "DELETE",
            DpRequest::Lock { .. } => "LOCK",
            DpRequest::SubsetFirst { op, .. } => match op {
                SubsetOp::Read { mode, .. } => match mode {
                    SubsetMode::Vsbb => "GET^FIRST^VSBB",
                    SubsetMode::Rsbb => "GET^FIRST^RSBB",
                },
                SubsetOp::Update { .. } => "UPDATE^SUBSET^FIRST",
                SubsetOp::Delete { .. } => "DELETE^SUBSET^FIRST",
                SubsetOp::Aggregate { .. } => "AGGREGATE^SUBSET^FIRST",
            },
            DpRequest::SubsetNext { verb, .. } => match verb {
                SubsetVerb::Get => "GET^NEXT",
                SubsetVerb::Update => "UPDATE^SUBSET^NEXT",
                SubsetVerb::Delete => "DELETE^SUBSET^NEXT",
                SubsetVerb::Aggregate => "AGGREGATE^SUBSET^NEXT",
            },
            DpRequest::UpdatePoint { .. } => "UPDATE^POINT",
            DpRequest::BlockedInsert { .. } => "BLOCKED^INSERT",
            DpRequest::CloseSubset { .. } => "CLOSE^SUBSET",
            DpRequest::BlockedUpdate { .. } => "BLOCKED^UPDATE",
            DpRequest::BlockedDelete { .. } => "BLOCKED^DELETE",
        }
    }

    /// Is this a continuation re-drive (for message-kind attribution)?
    pub fn is_redrive(&self) -> bool {
        matches!(self, DpRequest::SubsetNext { .. })
    }
}

/// Errors a Disk Process reports to the File System.
#[derive(Debug, Clone, PartialEq)]
pub enum DpError {
    /// No such file on this volume.
    BadFile(FileId),
    /// Record not found.
    NotFound,
    /// Insert of an existing key.
    DuplicateKey,
    /// Lock conflict with another transaction.
    Locked {
        /// Holder of the conflicting lock.
        holder: TxnId,
    },
    /// Waiting for the conflicting holder would deadlock. The youngest
    /// transaction in the cycle is chosen as the victim; when the victim
    /// is the requester itself this error tells it to abort, otherwise the
    /// victim was doomed at the TMF and will learn on its next request.
    Deadlock {
        /// The deadlock victim (youngest transaction in the cycle).
        victim: TxnId,
    },
    /// The requester out-waited the lock-wait timeout budget and has been
    /// bounced from the wait queue; it should abort and retry.
    LockTimeout {
        /// The timed-out requester.
        victim: TxnId,
    },
    /// Integrity constraint rejected the new record.
    ConstraintViolation,
    /// Expression evaluation failed (type error, division by zero, ...).
    EvalFailed(String),
    /// Record/row malformed for the file's descriptor.
    BadRecord(String),
    /// Unknown Subset Control Block (closed, never opened, or freed with
    /// its transaction).
    BadSubset(SubsetId),
    /// A re-drive named a Subset Control Block that holds another
    /// operation; nothing was done.
    WrongVerb {
        /// The Subset Control Block named.
        subset: SubsetId,
        /// The verb the re-drive carried.
        verb: SubsetVerb,
    },
    /// Attempt to update a primary-key field.
    KeyUpdateNotAllowed,
    /// An update's `SET` list assigns, or reads, a field the record does
    /// not have.
    NoSuchField(u16),
    /// An update's `SET` list assigns one field twice.
    AssignedTwice(u16),
    /// The message was none of the protocols a Disk Process speaks.
    UnknownRequest,
}

impl std::fmt::Display for DpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpError::BadFile(id) => write!(f, "no file {id} on this volume"),
            DpError::NotFound => write!(f, "record not found"),
            DpError::DuplicateKey => write!(f, "duplicate key"),
            DpError::Locked { holder } => write!(f, "record locked by {holder}"),
            DpError::Deadlock { victim } => {
                write!(
                    f,
                    "deadlock detected; transaction {victim} chosen as victim"
                )
            }
            DpError::LockTimeout { victim } => {
                write!(f, "lock wait timeout; transaction {victim} doomed")
            }
            DpError::ConstraintViolation => write!(f, "integrity constraint violated"),
            DpError::EvalFailed(e) => write!(f, "expression evaluation failed: {e}"),
            DpError::BadRecord(e) => write!(f, "malformed record: {e}"),
            DpError::BadSubset(id) => write!(f, "unknown subset control block {id}"),
            DpError::WrongVerb { subset, verb } => {
                write!(f, "subset control block {subset} is not a {verb:?} subset")
            }
            DpError::KeyUpdateNotAllowed => write!(f, "primary key fields cannot be updated"),
            DpError::NoSuchField(field) => write!(f, "no field {field} in the record"),
            DpError::AssignedTwice(field) => write!(f, "field {field} assigned twice"),
            DpError::UnknownRequest => write!(f, "unknown message type"),
        }
    }
}

impl std::error::Error for DpError {}

/// The rows of a reply — a real or a virtual sequential block: one buffer
/// per message, each row a 2-byte big-endian length and then its bytes. The
/// Disk Process appends rows to a [`RowBuffer`] as it selects them and the
/// File System de-blocks them in place; a clone shares the buffer, which is
/// how the duplicate-suppression cache keeps a reply it has also handed
/// out.
#[derive(Debug, Clone, Default)]
pub struct RowBlock {
    /// `None` when there are no rows: a reply without rows allocates
    /// nothing.
    bytes: Option<Arc<Vec<u8>>>,
}

impl RowBlock {
    /// Bytes on the wire: the sum of `2 + row.len()` over the rows.
    pub fn wire_len(&self) -> usize {
        self.bytes.as_ref().map_or(0, |b| b.len())
    }

    /// The rows, in the order they were appended.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        let mut rest: &[u8] = self.bytes.as_ref().map_or(&[], |b| b.as_slice());
        std::iter::from_fn(move || {
            let (prefix, after) = rest.split_first_chunk::<2>()?;
            let (row, after) = after.split_at_checked(u16::from_be_bytes(*prefix) as usize)?;
            rest = after;
            Some(row)
        })
    }
}

impl From<RowBuffer> for RowBlock {
    fn from(rows: RowBuffer) -> RowBlock {
        RowBlock {
            bytes: (!rows.bytes.is_empty()).then(|| Arc::new(rows.bytes)),
        }
    }
}

/// The rows of a reply being built, framed as a [`RowBlock`] frames them
/// (a projected row by [`Projection::project_framed`]): each row costs one
/// reservation and one write of its length. Rows are at most a disk block
/// long, well inside the prefix's 64 KB.
#[derive(Debug, Default)]
pub struct RowBuffer {
    bytes: Vec<u8>,
    /// Bytes taken at the first row.
    room: usize,
}

impl RowBuffer {
    /// An empty buffer that takes `room` bytes at its first row: a reply
    /// that stops once its rows reach a budget holds at most the budget and
    /// one row more, so with `room` that much its rows are one allocation,
    /// and a reply without rows still makes none.
    pub(crate) fn with_room(room: usize) -> Self {
        RowBuffer {
            bytes: Vec::new(),
            room,
        }
    }

    fn take_room(&mut self) {
        if self.bytes.capacity() == 0 {
            self.bytes.reserve_exact(self.room);
        }
    }

    /// Append `row` as it is.
    pub fn push(&mut self, row: &[u8]) {
        self.take_room();
        self.bytes.reserve(2 + row.len());
        self.bytes
            .extend_from_slice(&(row.len() as u16).to_be_bytes());
        self.bytes.extend_from_slice(row);
    }

    /// Append the row `plan` projects out of `record`; a record the plan
    /// refuses leaves the buffer as it was.
    pub fn push_projected(&mut self, plan: &Projection, record: &[u8]) -> Result<(), CodecError> {
        self.take_room();
        plan.project_framed(record, &mut self.bytes)
    }

    /// Bytes on the wire so far.
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }
}

/// A reply message on the FS-DP interface.
#[derive(Debug, Clone)]
pub enum DpReply {
    /// Generic success.
    Ok,
    /// File created.
    FileCreated(FileId),
    /// Point-read result.
    Record(Option<Vec<u8>>),
    /// A (real or virtual) sequential block plus re-drive state.
    Subset {
        /// Encoded rows: full records (RSBB) or projected rows (VSBB).
        rows: RowBlock,
        /// Key of the last record *processed* (not necessarily returned) —
        /// the re-drive continuation point.
        last_key: Option<Vec<u8>>,
        /// True when the key range is exhausted (no re-drive needed).
        done: bool,
        /// Subset Control Block id (present on FIRST replies that need
        /// re-driving).
        subset: Option<SubsetId>,
        /// Records examined by this request execution.
        examined: u32,
        /// Records selected/updated/deleted by this request execution.
        affected: u32,
    },
    /// Request failed.
    Error(DpError),
}

impl DpReply {
    /// Wire size in bytes for message accounting.
    pub fn wire_size(&self) -> usize {
        16 + match self {
            DpReply::Ok | DpReply::FileCreated(_) => 8,
            DpReply::Record(r) => 1 + r.as_ref().map_or(0, Vec::len),
            DpReply::Subset { rows, last_key, .. } => {
                rows.wire_len() + 1 + last_key.as_ref().map_or(0, Vec::len) + 10
            }
            DpReply::Error(_) => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_records::row::encode_row;
    use nsql_records::{CmpOp, FieldDef, FieldType, Value};

    #[test]
    fn wire_sizes_scale_with_content() {
        let small = DpRequest::Read {
            txn: None,
            file: 0,
            key: vec![0; 4],
            lock: ReadLock::None,
        };
        let big = DpRequest::Read {
            txn: None,
            file: 0,
            key: vec![0; 64],
            lock: ReadLock::None,
        };
        assert!(big.wire_size() > small.wire_size());

        let with_pred = DpRequest::SubsetFirst {
            file: 0,
            range: KeyRange::all(),
            predicate: Some(Expr::field_cmp(3, CmpOp::Gt, Value::Double(32000.0))),
            op: SubsetOp::Read {
                txn: None,
                projection: Some(vec![1, 2]),
                mode: SubsetMode::Vsbb,
                lock: ReadLock::None,
            },
        };
        let without = DpRequest::SubsetFirst {
            file: 0,
            range: KeyRange::all(),
            predicate: None,
            op: SubsetOp::Read {
                txn: None,
                projection: None,
                mode: SubsetMode::Rsbb,
                lock: ReadLock::None,
            },
        };
        assert!(with_pred.wire_size() > without.wire_size());
    }

    /// One request of every variant — and of each of the eight subset
    /// shapes, which are two variants — with its paper verb, message kind
    /// and wire bytes. `DpRequest::name` is the only place the verbs are
    /// spelled, so this is where they are pinned (the subset sizes as
    /// measured before those variants were folded).
    #[test]
    fn subset_verbs_keep_their_labels_kinds_and_sizes() {
        use nsql_records::{ArithOp, OwnedBound, SetList};
        let first = |predicate, op| DpRequest::SubsetFirst {
            file: 3,
            range: KeyRange {
                begin: OwnedBound::Included(vec![1; 4]),
                end: OwnedBound::Excluded(vec![9; 6]),
            },
            predicate,
            op,
        };
        let next = |verb| DpRequest::SubsetNext {
            subset: 1,
            after: vec![5; 12],
            verb,
        };
        let predicate = || Some(Expr::field_cmp(3, CmpOp::Gt, Value::Double(32000.0)));
        let raise = Expr::Arith(
            Box::new(Expr::Field(2)),
            ArithOp::Mul,
            Box::new(Expr::lit(Value::Double(1.07))),
        );
        let txn = TxnId(7);
        let vsbb = SubsetOp::Read {
            txn: Some(txn),
            projection: Some(vec![1, 2]),
            mode: SubsetMode::Vsbb,
            lock: ReadLock::Shared,
        };
        let rsbb = SubsetOp::Read {
            txn: None,
            projection: None,
            mode: SubsetMode::Rsbb,
            lock: ReadLock::None,
        };
        let update = SubsetOp::Update {
            txn,
            sets: SetList {
                sets: vec![(2, raise.clone())],
            },
            constraint: Some(Expr::field_cmp(2, CmpOp::Ge, Value::Double(0.0))),
        };
        let delete = SubsetOp::Delete { txn };
        let aggregate = SubsetOp::Aggregate {
            txn: Some(txn),
            lock: ReadLock::Shared,
            group_by: vec![1],
            aggs: vec![(AggFunc::Count, None), (AggFunc::Min, Some(2))],
        };
        let verbs = [&vsbb, &rsbb, &update, &delete, &aggregate].map(SubsetOp::verb);
        assert_eq!(
            verbs,
            [
                SubsetVerb::Get,
                SubsetVerb::Get,
                SubsetVerb::Update,
                SubsetVerb::Delete,
                SubsetVerb::Aggregate
            ]
        );
        let (file, key, record) = (3, || vec![1; 4], || vec![2; 40]);
        let pairs = || vec![(key(), record()); 3];
        let sets = || SetList {
            sets: vec![(2, raise.clone())],
        };
        let shapes = [
            (
                DpRequest::CreateFile {
                    desc: RecordDescriptor::new(
                        vec![FieldDef::new("C", FieldType::Char(4))],
                        vec![0],
                    ),
                },
                "CREATE^FILE",
                false,
                29,
            ),
            (DpRequest::FlushCache, "FLUSH^CACHE", false, 16),
            (
                DpRequest::Read {
                    txn: None,
                    file,
                    key: key(),
                    lock: ReadLock::Shared,
                },
                "READ",
                false,
                28,
            ),
            (
                DpRequest::ReadNext {
                    txn: None,
                    file,
                    after: Some(key()),
                    lock: ReadLock::None,
                },
                "READ^NEXT",
                false,
                30,
            ),
            (
                DpRequest::ReadSeqBlock {
                    txn: Some(txn),
                    file,
                    after: None,
                },
                "READ^SEQ^BLOCK",
                false,
                25,
            ),
            (
                DpRequest::Insert {
                    txn,
                    file,
                    key: key(),
                    record: record(),
                },
                "INSERT",
                false,
                68,
            ),
            (
                DpRequest::UpdateRecord {
                    txn,
                    file,
                    key: key(),
                    record: record(),
                    audit: AuditMode::FullImage,
                },
                "WRITE",
                false,
                69,
            ),
            (
                DpRequest::DeleteRecord {
                    txn,
                    file,
                    key: key(),
                },
                "DELETE",
                false,
                28,
            ),
            (
                DpRequest::Lock {
                    txn,
                    file,
                    key: Some(key()),
                    mode: LockMode::Exclusive,
                },
                "LOCK",
                false,
                30,
            ),
            (first(predicate(), vsbb), "GET^FIRST^VSBB", false, 58),
            (first(None, rsbb), "GET^FIRST^RSBB", false, 40),
            (next(SubsetVerb::Get), "GET^NEXT", true, 36),
            (first(predicate(), update), "UPDATE^SUBSET^FIRST", false, 83),
            (next(SubsetVerb::Update), "UPDATE^SUBSET^NEXT", true, 36),
            (first(predicate(), delete), "DELETE^SUBSET^FIRST", false, 51),
            (next(SubsetVerb::Delete), "DELETE^SUBSET^NEXT", true, 36),
            (
                first(predicate(), aggregate),
                "AGGREGATE^SUBSET^FIRST",
                false,
                63,
            ),
            (
                next(SubsetVerb::Aggregate),
                "AGGREGATE^SUBSET^NEXT",
                true,
                36,
            ),
            (
                DpRequest::UpdatePoint {
                    txn,
                    file,
                    key: key(),
                    sets: sets(),
                    constraint: None,
                },
                "UPDATE^POINT",
                false,
                46,
            ),
            (
                DpRequest::BlockedInsert {
                    txn,
                    file,
                    records: pairs(),
                },
                "BLOCKED^INSERT",
                false,
                168,
            ),
            (
                DpRequest::CloseSubset { subset: 1 },
                "CLOSE^SUBSET",
                false,
                24,
            ),
            (
                DpRequest::BlockedUpdate {
                    txn,
                    file,
                    records: pairs(),
                },
                "BLOCKED^UPDATE",
                false,
                168,
            ),
            (
                DpRequest::BlockedDelete {
                    txn,
                    file,
                    keys: vec![key(); 3],
                },
                "BLOCKED^DELETE",
                false,
                42,
            ),
        ];
        let names: std::collections::BTreeSet<&str> = shapes.iter().map(|s| s.1).collect();
        assert_eq!(names.len(), 23, "every verb, once");
        for (request, name, redrive, bytes) in shapes {
            assert_eq!(request.name(), name);
            assert_eq!(request.is_redrive(), redrive, "{name}");
            assert_eq!(request.wire_size(), bytes, "{name}");
        }
    }

    /// A reply's size is its header, its re-drive state and its row block
    /// byte for byte: the literals are what the per-row formula
    /// `Σ(2 + row.len())` gave before the rows shared one buffer.
    #[test]
    fn reply_size_counts_rows() {
        let size = |rows: &[&[u8]], last_key: Option<Vec<u8>>| {
            let mut buffer = RowBuffer::default();
            for row in rows {
                buffer.push(row);
            }
            let block = RowBlock::from(buffer);
            assert!(block.iter().eq(rows.iter().copied()), "de-blocks to rows");
            let reply = DpReply::Subset {
                rows: block,
                last_key,
                done: false,
                subset: Some(1),
                examined: rows.len() as u32,
                affected: rows.len() as u32,
            };
            reply.wire_size()
        };
        let row = &[7u8; 100][..];
        assert_eq!(size(&[], None), 27);
        assert_eq!(size(&[], Some(vec![0; 8])), 35);
        assert_eq!(size(&[row], Some(vec![0; 8])), 137);
        assert_eq!(size(&[row; 10], Some(vec![0; 8])), 1055);
        assert_eq!(size(&[&[], &row[..5], &[9; 300]], None), 338);
    }

    #[test]
    fn a_refused_row_leaves_the_block_as_it_was() {
        let desc = RecordDescriptor::new(vec![FieldDef::new("C", FieldType::Char(4))], vec![0]);
        let plan = Projection::new(&desc, &[0]).unwrap();
        let mut record = encode_row(&desc, &[Value::Str("kept".into())]).unwrap();
        let mut buffer = RowBuffer::default();
        buffer.push_projected(&plan, &record).unwrap();
        // Not UTF-8: the row is refused.
        record[1] = 0xFF;
        assert_eq!(
            buffer.push_projected(&plan, &record),
            Err(CodecError::Corrupt)
        );
        buffer.push(b"also kept");
        let block = RowBlock::from(buffer);
        let rows: Vec<&[u8]> = block.iter().collect();
        assert_eq!(rows, [&b"\0kept"[..], b"also kept"]);
        assert_eq!(block.wire_len(), 2 + 5 + 2 + 9);
        // A clone shares the buffer.
        let shared = block.clone();
        assert!(shared.iter().eq(block.iter()));
        assert_eq!(
            shared.bytes.as_ref().map(Arc::as_ptr),
            block.bytes.as_ref().map(Arc::as_ptr)
        );
    }
}
