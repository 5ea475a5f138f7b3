#![warn(missing_docs)]
//! The Disk Process — the low-level disk file server of the Tandem OS.
//!
//! "The implementation moves a large part of the new SQL function to the
//! server side of the disk I/O subsystem." A [`DiskProcess`] owns one disk
//! volume and integrates every component the paper enumerates:
//!
//! * **record management** — the key-sequenced / relative / entry-sequenced
//!   access methods (`nsql-btree`);
//! * **cache management** — an LRU buffer pool obeying write-ahead log,
//!   with bulk I/O, pre-fetch, and write-behind (`nsql-cache`);
//! * **lock management** — file / record / generic / virtual-block-group
//!   locks (`nsql-lock`);
//! * **transaction support** — audit generation (full-image for ENSCRIBE
//!   requests, field-compressed for SQL requests), per-transaction undo,
//!   participation in TMF's end-transaction protocol, and crash recovery
//!   from the audit trail (`nsql-tmf`).
//!
//! Requests arrive as [`protocol::DpRequest`] messages on the bus. The SQL
//! set-oriented requests evaluate predicates, projections, update
//! expressions and integrity constraints *here*, at the data source, under
//! the continuation re-drive protocol with Subset Control Blocks.

pub mod label;
pub mod protocol;
pub mod store;

pub use label::{FileLabel, VolumeLabel};
pub use protocol::{
    AuditMode, DpError, DpReply, DpRequest, FileId, FileKind, ReadLock, RowBlock, RowBuffer,
    SubsetId, SubsetMode, SubsetOp, SubsetVerb, SyncId, SyncRequest,
};
use store::InProgress;
pub use store::{Allocator, DpStore};

use nsql_btree::relative::RelativeError;
use nsql_btree::{BTreeFile, EntrySequencedFile, RelativeFile, ScanControl, TreeError};
use nsql_cache::{BufferPool, ScanOptions, WalGate};
use nsql_disk::Disk;
use nsql_lock::{LockError, LockManager, LockMode, ScopeRef, TxnId};
use nsql_msg::{Bus, CpuId, MsgKind, Response, Server};
use nsql_records::fold::{partial_layout, partial_row_max, Groups};
use nsql_records::row::{
    check_field, check_row, extract_field, field_bytes, patch_row, CodecError,
};
use nsql_records::{
    AggFunc, Aggregation, Expr, FieldType, KeyRange, OwnedBound, Patch, PatchError, Predicate,
    PredicateError, Projection, RawRecord, RecordDescriptor, SetList,
};
use nsql_sim::sync::Mutex;
use nsql_sim::{
    CostModel, CpuLayer, Ctr, EntityKind, Event, LockWaitEnd, MeasureRecord, Micros, Sim, Wait,
};
use nsql_tmf::audit::FieldImage;
use nsql_tmf::txn::{EndTxnReply, EndTxnRequest};
use nsql_tmf::{AuditBody, AuditRecord, Direction, Trail, TxnManager, VolumeAuditor};
use std::any::Any;
use std::borrow::Cow;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::ops::Bound;
use std::sync::Arc;

/// Tunables of a Disk Process.
#[derive(Debug, Clone)]
pub struct DpConfig {
    /// Buffer-pool capacity in frames.
    pub cache_frames: usize,
    /// Reply (virtual block) buffer size in bytes: a full buffer triggers a
    /// continuation re-drive.
    pub reply_buffer: usize,
    /// Records examined per request execution before a re-drive — the
    /// elapsed/processor-time limit that prevents one set-oriented request
    /// from monopolizing the Disk Process.
    pub max_records_per_request: u32,
    /// Send process-pair checkpoint messages to the backup.
    pub checkpointing: bool,
    /// Run write-behind during idle time after set-oriented requests.
    pub write_behind: bool,
    /// Read sequential strings of blocks with bulk I/O during set-oriented
    /// scans.
    pub bulk_io: bool,
    /// Pre-fetch the next string asynchronously during set-oriented scans.
    pub prefetch: bool,
    /// Lock-wait timeout budget in virtual microseconds; a waiter that
    /// out-waits the budget is bounced with [`DpError::LockTimeout`] so
    /// convoy stragglers abort and retry instead of queueing forever.
    /// `0` disables the timeout (the default).
    pub lock_wait_timeout_us: u64,
}

impl Default for DpConfig {
    fn default() -> Self {
        DpConfig {
            cache_frames: 256,
            reply_buffer: 4096,
            max_records_per_request: 500,
            checkpointing: false,
            write_behind: true,
            bulk_io: true,
            prefetch: true,
            lock_wait_timeout_us: 0,
        }
    }
}

/// WAL gate wired to the audit subsystem: durability comes from the trail;
/// forcing first ships the volume's unsent audit.
struct AuditorGate {
    auditor: Arc<VolumeAuditor>,
    trail: Arc<Trail>,
}

impl WalGate for AuditorGate {
    fn durable(&self, lsn: u64, now: Micros) -> bool {
        lsn == 0 || self.trail.durable_lsn(now) >= lsn
    }
    fn force(&self, lsn: u64, now: Micros) -> Micros {
        self.auditor.send();
        self.trail.force_up_to(lsn, now)
    }
}

/// What a Subset Control Block remembers between re-drives: "these latter
/// were saved in the Subset Control Block which was created by the Disk
/// Process at GET^FIRST time" — the FIRST request less the begin-key, with
/// its predicate and its projection in the form they were compiled to,
/// once, against the file's descriptor. It is freed when its range is
/// exhausted, when the requester closes it, when its transaction ends and
/// when the process crashes.
#[derive(Debug)]
struct Scb {
    file: FileId,
    end: OwnedBound,
    /// The selection predicate, compiled; it keeps the expression as
    /// shipped, which is what a record's evaluation is charged by.
    predicate: Option<Predicate>,
    work: Work,
}

/// A subset's [`SubsetOp`] compiled against the file's descriptor.
#[derive(Debug)]
enum Work {
    /// Return the selected records, whole or through the compiled
    /// projection.
    Read {
        txn: Option<TxnId>,
        mode: SubsetMode,
        lock: ReadLock,
        plan: Option<Projection>,
    },
    /// Change each where it lies.
    Update {
        txn: TxnId,
        patch: Patch,
    },
    Delete {
        txn: TxnId,
    },
    /// Fold them into partial groups, laid out per `layout`.
    Aggregate {
        txn: Option<TxnId>,
        lock: ReadLock,
        group_by: Vec<u16>,
        /// Each aggregate over its bare field, as the fold reads it.
        aggs: Vec<(AggFunc, Option<Expr>)>,
        /// The text fields the fold reads: each must decode.
        text: Vec<u16>,
        layout: RecordDescriptor,
        /// The longest partial row, by which the groups fill a reply.
        row_max: usize,
    },
}

impl Work {
    /// `op` compiled against `desc`: a projection of a field `desc` does
    /// not have is `BadRecord`; an update's `SET` list is refused as
    /// [`compile_patch`] refuses it.
    fn compile(desc: &RecordDescriptor, op: SubsetOp) -> Result<Work, DpError> {
        Ok(match op {
            SubsetOp::Read {
                txn,
                projection,
                mode,
                lock,
            } => {
                let plan = projection.map(|fields| Projection::new(desc, &fields));
                let plan = plan.transpose();
                let plan = plan.map_err(|e| DpError::BadRecord(e.to_string()))?;
                Work::Read {
                    txn,
                    mode,
                    lock,
                    plan,
                }
            }
            SubsetOp::Update {
                txn,
                sets,
                constraint,
            } => Work::Update {
                txn,
                patch: compile_patch(desc, sets, constraint)?,
            },
            SubsetOp::Delete { txn } => Work::Delete { txn },
            SubsetOp::Aggregate {
                txn,
                lock,
                group_by,
                aggs,
            } => {
                let refused = || DpError::BadRecord("aggregate not foldable here".into());
                let layout = partial_layout(desc, &group_by, &aggs).ok_or_else(refused)?;
                let read = group_by
                    .iter()
                    .chain(aggs.iter().filter_map(|(_, f)| f.as_ref()));
                let is_text = |f: &&u16| {
                    let ty = desc.fields[**f as usize].ty;
                    matches!(ty, FieldType::Char(_) | FieldType::Varchar(_))
                };
                let mut text: Vec<u16> = read.filter(is_text).copied().collect();
                text.sort_unstable();
                text.dedup();
                Work::Aggregate {
                    txn,
                    lock,
                    group_by,
                    aggs: aggs
                        .into_iter()
                        .map(|(f, a)| (f, a.map(Expr::Field)))
                        .collect(),
                    text,
                    row_max: partial_row_max(&layout),
                    layout,
                }
            }
        })
    }

    /// The transaction the operation runs in (a browse read has none).
    fn txn(&self) -> Option<TxnId> {
        match self {
            Work::Read { txn, .. } | Work::Aggregate { txn, .. } => *txn,
            Work::Update { txn, .. } | Work::Delete { txn } => Some(*txn),
        }
    }

    /// The verb its re-drives carry.
    fn verb(&self) -> SubsetVerb {
        match self {
            Work::Read { .. } => SubsetVerb::Get,
            Work::Update { .. } => SubsetVerb::Update,
            Work::Delete { .. } => SubsetVerb::Delete,
            Work::Aggregate { .. } => SubsetVerb::Aggregate,
        }
    }
}

/// Replies remembered per opener for duplicate suppression (Tandem kept a
/// similar small "sync block" per opener).
pub const REPLY_CACHE_PER_OPENER: usize = 8;

#[derive(Default)]
struct DpState {
    label: VolumeLabel,
    subsets: HashMap<SubsetId, Arc<Scb>>,
    next_subset: SubsetId,
    /// What each live transaction has logged on this volume, oldest first,
    /// for abort to back out: the file and the audit record's body.
    undo: HashMap<TxnId, Vec<(FileId, AuditBody)>>,
    /// Per-opener cache of the last few `(sync seq, reply)` pairs: a
    /// retransmitted request (lost reply, duplicate delivery) is answered
    /// from here instead of being re-executed. A reply's row block is
    /// shared with the copy that was handed out, not copied.
    replies: HashMap<u64, VecDeque<(u64, DpReply)>>,
}

/// One Disk Process: the server for one disk volume.
pub struct DiskProcess {
    sim: Sim,
    bus: Arc<Bus>,
    /// Process name (`$DATA1`); also the volume name.
    pub name: String,
    cpu: CpuId,
    trail: Arc<Trail>,
    txnmgr: Arc<TxnManager>,
    auditor: Arc<VolumeAuditor>,
    /// The volume's lock table.
    pub locks: LockManager,
    pool: BufferPool,
    alloc: Mutex<Allocator>,
    /// Tunables (mutable for experiment sweeps).
    pub config: Mutex<DpConfig>,
    state: Mutex<DpState>,
    /// MEASURE record for this process.
    rec: Arc<MeasureRecord>,
    /// MEASURE record for this volume's Subset Control Blocks.
    scb_rec: Arc<MeasureRecord>,
    /// Per-open-file MEASURE records (`$VOL#Fn`), created on first touch.
    file_recs: Mutex<HashMap<FileId, Arc<MeasureRecord>>>,
    /// The buffers of the last aggregate request's groups, emptied and
    /// reused by the next: folding allocates only for groups and text
    /// longer than any before.
    fold: Mutex<Groups>,
}

/// Everything a Disk Process plugs into.
#[derive(Clone)]
pub struct DpContext {
    /// Simulation context.
    pub sim: Sim,
    /// Message bus.
    pub bus: Arc<Bus>,
    /// The audit-trail Disk Process.
    pub trail: Arc<Trail>,
    /// The transaction manager.
    pub txnmgr: Arc<TxnManager>,
    /// The cluster-wide LSN sequencer.
    pub lsns: Arc<nsql_tmf::LsnSource>,
}

impl DiskProcess {
    /// Create a Disk Process over a **fresh** volume: formats the label and
    /// registers the process on the bus.
    pub fn format(
        ctx: &DpContext,
        name: &str,
        cpu: CpuId,
        disk: Arc<Disk>,
        config: DpConfig,
    ) -> Arc<DiskProcess> {
        let dp = Self::build(ctx, name, cpu, disk, config, true);
        let label = dp.state.lock().label.clone();
        dp.persist_label(&label);
        ctx.bus.register(name, cpu, dp.clone());
        dp
    }

    /// Open a Disk Process over an **existing** volume (takeover or
    /// restart): reads the label from block 0, rebuilds the allocator, and
    /// registers on the bus. Call [`DiskProcess::recover`] afterwards to
    /// redo/undo from the audit trail.
    pub fn open(
        ctx: &DpContext,
        name: &str,
        cpu: CpuId,
        disk: Arc<Disk>,
        config: DpConfig,
    ) -> Arc<DiskProcess> {
        let dp = Self::build(ctx, name, cpu, disk, config, false);
        {
            let bytes = dp.pool.read(0).expect("volume label unreadable");
            dp.state.lock().label = VolumeLabel::decode(&bytes);
        }
        ctx.bus.register(name, cpu, dp.clone());
        dp
    }

    fn build(
        ctx: &DpContext,
        name: &str,
        cpu: CpuId,
        disk: Arc<Disk>,
        config: DpConfig,
        fresh: bool,
    ) -> Arc<DiskProcess> {
        let auditor = Arc::new(VolumeAuditor::new(
            Arc::clone(&ctx.bus),
            cpu,
            name,
            Arc::clone(&ctx.lsns),
        ));
        let gate = Arc::new(AuditorGate {
            auditor: Arc::clone(&auditor),
            trail: Arc::clone(&ctx.trail),
        });
        let pool = BufferPool::new(
            ctx.sim.clone(),
            Arc::clone(&disk),
            gate,
            config.cache_frames,
        );
        let alloc = if fresh {
            Allocator::new()
        } else {
            Allocator::recovered(disk.len_blocks())
        };
        let locks = LockManager::new();
        locks.set_wait_timeout(config.lock_wait_timeout_us);
        Arc::new(DiskProcess {
            sim: ctx.sim.clone(),
            bus: Arc::clone(&ctx.bus),
            name: name.to_string(),
            cpu,
            trail: Arc::clone(&ctx.trail),
            txnmgr: Arc::clone(&ctx.txnmgr),
            auditor,
            locks,
            pool,
            alloc: Mutex::new(alloc),
            config: Mutex::new(config),
            state: Mutex::new(DpState::default()),
            rec: ctx.sim.measure.entity(EntityKind::Process, name),
            scb_rec: ctx.sim.measure.entity(EntityKind::Scb, name),
            file_recs: Mutex::new(HashMap::new()),
            fold: Mutex::new(Groups::default()),
        })
    }

    /// The buffer pool (tests and experiments).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The CPU this Disk Process runs on.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// Replies remembered for the opener with the most of them (at most
    /// [`REPLY_CACHE_PER_OPENER`]).
    pub fn reply_cache_len(&self) -> usize {
        let replies = &self.state.lock().replies;
        replies.values().map(VecDeque::len).max().unwrap_or(0)
    }

    /// Tune the audit send-buffer threshold (experiment E15's ablation).
    pub fn set_audit_send_threshold(&self, bytes: usize) {
        self.auditor.set_send_threshold(bytes);
    }

    /// Arm (or, with `0`, disarm) the lock-wait timeout at runtime; also
    /// settable at construction via [`DpConfig::lock_wait_timeout_us`].
    pub fn set_lock_wait_timeout(&self, us: u64) {
        self.config.lock().lock_wait_timeout_us = us;
        self.locks.set_wait_timeout(us);
    }

    fn persist_label(&self, label: &VolumeLabel) {
        let bytes = label.encode();
        self.pool.write(0, bytes, 0).expect("label write failed");
        self.pool.flush_all().expect("label flush failed");
    }

    fn scan_options(&self) -> ScanOptions {
        let cfg = self.config.lock();
        ScanOptions {
            bulk: cfg.bulk_io,
            prefetch: cfg.prefetch,
        }
    }

    fn file_label(&self, file: FileId) -> Result<Arc<FileLabel>, DpError> {
        self.state
            .lock()
            .label
            .files
            .get(&file)
            .cloned()
            .ok_or(DpError::BadFile(file))
    }

    fn descriptor<'l>(&self, label: &'l FileLabel) -> Result<&'l RecordDescriptor, DpError> {
        match &label.kind {
            FileKind::KeySequenced(desc) => Ok(desc),
            FileKind::Relative { .. } | FileKind::EntrySequenced => Err(DpError::WrongFileKind),
        }
    }

    fn join_txn(&self, txn: TxnId) {
        self.txnmgr.join(txn, &self.name);
    }

    fn lock(
        &self,
        txn: TxnId,
        file: FileId,
        scope: ScopeRef<'_>,
        mode: LockMode,
    ) -> Result<(), DpError> {
        // `nsql-lint check-locks` runs every branch below under every
        // interleaving of its client scripts.
        //
        // A doomed transaction must not take new locks: fail fast so a
        // deadlock victim chosen while someone *else* was requesting learns
        // its fate on its very next request.
        if self.txnmgr.is_doomed(txn) {
            return Err(DpError::Deadlock { victim: txn });
        }
        // One lock wait, however it ended, is one event.
        let waited = |end| self.sim.emit(&self.rec, Event::LockWait(txn.0, end));
        match self.locks.acquire(txn, file, scope, mode) {
            Ok(()) => Ok(()),
            Err(LockError::Conflict { holder }) => {
                // Queue behind the holder; a closed waits-for cycle dooms
                // its youngest member, an exhausted budget dooms us.
                match self
                    .locks
                    .wait(txn, holder, file, scope, mode, self.sim.now())
                {
                    Err(LockError::Deadlock { victim }) => {
                        waited(LockWaitEnd::Deadlock);
                        if victim == txn {
                            Err(DpError::Deadlock { victim })
                        } else {
                            // The victim is someone younger: doom it at the
                            // TMF so its client aborts and retries, and keep
                            // this (older) requester politely waiting.
                            self.txnmgr.doom(victim);
                            self.locks.stop_waiting(victim);
                            Err(DpError::Locked { holder })
                        }
                    }
                    Err(LockError::WaitTimeout { victim }) => {
                        waited(LockWaitEnd::TimedOut);
                        Err(DpError::LockTimeout { victim })
                    }
                    Ok(()) | Err(LockError::Conflict { .. }) => {
                        waited(LockWaitEnd::Bounced);
                        Err(DpError::Locked { holder })
                    }
                }
            }
            // acquire() only bounces with Conflict; these arms are
            // defensive completeness.
            Err(LockError::Deadlock { victim }) => {
                waited(LockWaitEnd::Deadlock);
                Err(DpError::Deadlock { victim })
            }
            Err(LockError::WaitTimeout { victim }) => {
                waited(LockWaitEnd::TimedOut);
                Err(DpError::LockTimeout { victim })
            }
        }
    }

    /// MEASURE record for one open file on this volume (`$VOL#Fn`).
    fn file_rec(&self, file: FileId) -> Arc<MeasureRecord> {
        let mut recs = self.file_recs.lock();
        Arc::clone(recs.entry(file).or_insert_with(|| {
            self.sim
                .measure
                .entity(EntityKind::File, &format!("{}#F{}", self.name, file))
        }))
    }

    /// Send a process-pair checkpoint to the backup, when enabled.
    fn checkpoint(&self, bytes: usize) {
        if !self.config.lock().checkpointing {
            return;
        }
        let backup = format!("{}-B", self.name);
        let _ = self
            .bus
            .request(self.cpu, &backup, MsgKind::Checkpoint, bytes, Box::new(()));
    }

    // ------------------------------------------------------------------
    // Request dispatch
    // ------------------------------------------------------------------

    fn handle_request(&self, req: DpRequest) -> DpReply {
        self.sim.cpu_work(CpuLayer::DiskProcess, 5);
        self.execute(req).unwrap_or_else(DpReply::Error)
    }

    /// One request's work. A write verb's arm holds only what is its own —
    /// a `SET` list compiled before the record is locked, a blocked insert's
    /// interval lock, its CPU units, its checkpoint bytes and its reply —
    /// and changes each record through [`Self::keyed_change`].
    fn execute(&self, req: DpRequest) -> Result<DpReply, DpError> {
        match req {
            DpRequest::CreateFile { kind } => self.create_file(kind),
            DpRequest::FlushCache => {
                self.pool.flush_all().expect("flush failed");
                Ok(DpReply::Ok)
            }
            DpRequest::Read {
                txn,
                file,
                key,
                lock,
            } => self.read(txn, file, &key, lock),
            DpRequest::ReadNext {
                txn,
                file,
                after,
                lock,
            } => self.read_next(txn, file, after, lock),
            DpRequest::ReadSeqBlock { file, after, .. } => self.read_seq_block(file, after),
            DpRequest::Insert {
                txn,
                file,
                key,
                record,
            } => {
                let (label, checkpoint) = (self.file_label(file)?, Some(64 + record.len()));
                let insert = Change::Insert(record);
                self.write_record(txn, label, Key::Record(key), insert, 4, checkpoint)
            }
            DpRequest::UpdateRecord {
                txn,
                file,
                key,
                record,
                audit,
            } => {
                let (label, checkpoint) = (self.file_label(file)?, Some(64 + record.len()));
                let replace = Change::Replace(record, audit);
                self.write_record(txn, label, Key::Record(key), replace, 4, checkpoint)
            }
            DpRequest::DeleteRecord { txn, file, key } => {
                let label = self.file_label(file)?;
                self.write_record(txn, label, Key::Record(key), Change::Delete, 4, Some(96))
            }
            DpRequest::Lock {
                txn,
                file,
                key,
                mode,
            } => {
                self.join_txn(txn);
                let scope = match &key {
                    Some(k) => ScopeRef::record(k),
                    None => ScopeRef::File,
                };
                self.lock(txn, file, scope, mode).map(|_| DpReply::Ok)
            }
            DpRequest::SubsetFirst {
                file,
                range,
                predicate,
                op,
            } => self.subset_first(file, range, predicate, op),
            DpRequest::SubsetNext {
                subset,
                after,
                verb,
            } => self.subset_next(subset, after, verb),
            DpRequest::UpdatePoint {
                txn,
                file,
                key,
                sets,
                constraint,
            } => {
                let label = self.file_label(file)?;
                let patch = compile_patch(self.descriptor(&label)?, sets, constraint)?;
                // The patch charges its own CPU units.
                let patch = Change::Patch(&patch);
                self.write_record(txn, label, Key::Record(key), patch, 0, Some(96))
            }
            DpRequest::BlockedInsert { txn, file, records } => {
                let (Some((lo, _)), Some((hi, _))) = (records.first(), records.last()) else {
                    return Ok(DpReply::Ok);
                };
                let label = self.file_label(file)?;
                self.join_txn(txn);
                // The whole target key range is locked as a group (by prior
                // agreement with the File System).
                self.lock(txn, file, ScopeRef::interval(lo, hi), LockMode::Exclusive)?;
                let insert = |(key, record)| (Key::Covered(key), Change::Insert(record));
                self.write_blocked(txn, &label, records.into_iter().map(insert))
            }
            DpRequest::CloseSubset { subset } => {
                self.state.lock().subsets.remove(&subset);
                Ok(DpReply::Ok)
            }
            DpRequest::BlockedUpdate { txn, file, records } => {
                let label = self.file_label(file)?;
                self.join_txn(txn);
                let full = |(key, after)| {
                    (
                        Key::Record(key),
                        Change::Replace(after, AuditMode::FullImage),
                    )
                };
                self.write_blocked(txn, &label, records.into_iter().map(full))
            }
            DpRequest::BlockedDelete { txn, file, keys } => {
                let label = self.file_label(file)?;
                self.join_txn(txn);
                let delete = |key| (Key::Record(key), Change::Delete);
                self.write_blocked(txn, &label, keys.into_iter().map(delete))
            }
            DpRequest::RelativeWrite {
                txn,
                file,
                recnum,
                record,
            } => {
                let (label, checkpoint) = (self.file_label(file)?, Some(64 + record.len()));
                let put = Change::Put(record);
                self.write_record(txn, label, Key::Slot(recnum), put, 3, checkpoint)
            }
            DpRequest::RelativeRead { file, recnum } => self.relative_read(file, recnum),
            DpRequest::RelativeDelete { txn, file, recnum } => {
                let label = self.file_label(file)?;
                self.write_record(txn, label, Key::Slot(recnum), Change::Delete, 3, None)
            }
            DpRequest::EntryAppend { file, record } => self.entry_append(file, record),
            DpRequest::EntryRead { file, address } => self.entry_read(file, address),
        }
    }

    fn create_file(&self, kind: FileKind) -> Result<DpReply, DpError> {
        let store = DpStore::new(&self.pool, &self.alloc);
        let anchor = create_structure(&store, &kind);
        let label = {
            let mut st = self.state.lock();
            let id = st.label.next_file;
            st.label.next_file += 1;
            let file = FileLabel { id, kind, anchor };
            st.label.files.insert(id, Arc::new(file));
            st.label.clone()
        };
        self.persist_label(&label);
        Ok(DpReply::FileCreated(label.next_file - 1))
    }

    fn read(
        &self,
        txn: Option<TxnId>,
        file: FileId,
        key: &[u8],
        lock: ReadLock,
    ) -> Result<DpReply, DpError> {
        let label = self.file_label(file)?;
        if let (Some(txn), ReadLock::Shared) = (txn, lock) {
            self.join_txn(txn);
            self.lock(txn, file, ScopeRef::record(key), LockMode::Shared)?;
        }
        let store = DpStore::new(&self.pool, &self.alloc);
        let opened = AuditedFile::new(&store, &label);
        let tree = opened.tree()?;
        self.sim.cpu_work(CpuLayer::DiskProcess, 3);
        let found = tree.get(key);
        if found.is_some() {
            let frec = self.file_rec(file);
            frec.bump(Ctr::RecsExamined);
            frec.bump(Ctr::RecsSelected);
        }
        Ok(DpReply::Record(found))
    }

    /// ENSCRIBE record-at-a-time sequential read: one record per message.
    fn read_next(
        &self,
        txn: Option<TxnId>,
        file: FileId,
        after: Option<Vec<u8>>,
        lock: ReadLock,
    ) -> Result<DpReply, DpError> {
        let label = self.file_label(file)?;
        let store = DpStore::new(&self.pool, &self.alloc);
        let opened = AuditedFile::new(&store, &label);
        let tree = opened.tree()?;
        let start = after.as_deref().map_or(Bound::Unbounded, Bound::Excluded);
        let mut rows = RowBuffer::default();
        let mut found: Option<Vec<u8>> = None;
        tree.scan(start, |k, v| {
            rows.push(v);
            found = Some(k.to_vec());
            ScanControl::Stop
        });
        self.sim.cpu_work(CpuLayer::DiskProcess, 3);
        match found {
            None => Ok(DpReply::Record(None)),
            Some(k) => {
                if let (Some(txn), ReadLock::Shared) = (txn, lock) {
                    self.join_txn(txn);
                    self.lock(txn, file, ScopeRef::record(&k), LockMode::Shared)?;
                }
                let frec = self.file_rec(file);
                frec.bump(Ctr::RecsExamined);
                frec.bump(Ctr::RecsSelected);
                // The caller needs the key to continue; replies carry it in
                // a Subset-shaped message.
                Ok(DpReply::Subset {
                    rows: rows.into(),
                    last_key: Some(k),
                    done: false,
                    subset: None,
                    examined: 1,
                    affected: 1,
                })
            }
        }
    }

    /// ENSCRIBE real sequential block buffering: return one physical
    /// block's worth of whole records. The File System holds the mandatory
    /// file lock.
    fn read_seq_block(&self, file: FileId, after: Option<Vec<u8>>) -> Result<DpReply, DpError> {
        let label = self.file_label(file)?;
        let store = DpStore::new(&self.pool, &self.alloc);
        store.scan.set(self.scan_options());
        let opened = AuditedFile::new(&store, &label);
        let tree = opened.tree()?;
        let block_budget = self.pool.disk().block_size();
        let mut rows = RowBuffer::default();
        let (mut records, mut bytes) = (0u64, 0usize);
        // Last key returned; one buffer reused across the scan.
        let mut last_key: Vec<u8> = Vec::new();
        let mut full = false;
        let start = after.as_deref().map_or(Bound::Unbounded, Bound::Excluded);
        tree.scan(start, |k, v| {
            // A physical block's worth of record bytes, length prefixes
            // aside.
            records += 1;
            bytes += v.len();
            rows.push(v);
            last_key.clear();
            last_key.extend_from_slice(k);
            store.charge(1);
            if bytes >= block_budget {
                full = true;
                ScanControl::Stop
            } else {
                ScanControl::Continue
            }
        });
        store.book();
        let frec = self.file_rec(file);
        frec.add(Ctr::RecsExamined, records);
        frec.add(Ctr::RecsSelected, records);
        Ok(DpReply::Subset {
            rows: rows.into(),
            last_key: (records > 0).then_some(last_key),
            done: !full,
            subset: None,
            examined: 0,
            affected: 0,
        })
    }

    /// The one way a record of an audited file is changed. `body` is the
    /// change: it is logged, the LSN it gets stamps the blocks it dirties,
    /// it is applied to the file's structure, and it — the body itself, not
    /// a copy, less the after-images backout never reads — goes on the
    /// transaction's undo list, from where abort backs it out the way
    /// restart would ([`Self::apply_logged`]). A body of field images is
    /// applied as `image`, the whole new record.
    ///
    /// The structure refuses a change (duplicate key, record too large, not
    /// found) before it writes a block, and the change is logged only just
    /// ahead of its first block write ([`Self::log_ahead`]): a refused
    /// change leaves no audit record and no undo entry.
    fn audited_write<'s>(
        &'s self,
        file: &AuditedFile<'_, 's>,
        txn: TxnId,
        body: AuditBody,
        image: &[u8],
    ) -> Result<(), DpError> {
        // The store view holds the body while the structure applies it, and
        // logs it at the first block write.
        file.store.change.replace(Some(InProgress {
            dp: self,
            txn,
            file: file.label.id,
            body,
            logged: Cell::new(false),
        }));
        let applied = match file.store.change.borrow().as_ref().map(|c| &c.body) {
            Some(AuditBody::Insert { key, record }) => file.write(key, record, BTreeFile::insert),
            Some(AuditBody::UpdateFull { key, after, .. }) => {
                file.write(key, after, BTreeFile::update)
            }
            Some(AuditBody::UpdateFields { key, .. }) => file.write(key, image, BTreeFile::update),
            Some(AuditBody::Delete { key, .. }) => file.delete(key),
            Some(AuditBody::Commit | AuditBody::Abort) | None => {
                Err(DpError::BadRecord("not a record change".into()))
            }
        };
        let change = file.store.change.take();
        applied?;
        if let Some(InProgress { body, logged, .. }) = change {
            debug_assert!(logged.get(), "a change that is applied writes a block");
            self.push_undo(txn, file.label.id, body);
        }
        Ok(())
    }

    /// `body`, logged, goes on `txn`'s undo list, less its after-images.
    fn push_undo(&self, txn: TxnId, file: FileId, mut body: AuditBody) {
        body.forget_after();
        let mut st = self.state.lock();
        st.undo.entry(txn).or_default().push((file, body));
    }

    /// Write-ahead: `body` goes onto the volume's audit buffer and its LSN
    /// onto every block `store` writes from here on. The store view calls
    /// this just before a change's first block write (`DpStore::write`); a
    /// leaf rewrite, as it stages each change.
    pub(crate) fn log_ahead(
        &self,
        store: &DpStore<'_>,
        txn: TxnId,
        file: FileId,
        body: &AuditBody,
    ) {
        let lsn = self.auditor.log(txn, file, body);
        store.lsn.set(lsn);
    }

    /// The one keyed change every write verb makes: [`Self::change_body`],
    /// logged and applied through [`Self::audited_write`].
    fn keyed_change<'s>(
        &'s self,
        txn: TxnId,
        file: &AuditedFile<'_, 's>,
        key: Key,
        scanned: Option<&[u8]>,
        change: Change<'_>,
    ) -> Result<(), DpError> {
        let body = self.change_body(txn, file, key, scanned, change)?;
        self.audited_write(file, txn, body, &file.image.borrow())
    }

    /// What a keyed change is, as an audit body. It locks the record
    /// exclusively, unless `key` lies under the caller's interval lock;
    /// reaches the structure the verb addresses only then (a file of
    /// another kind is `WrongFileKind`; a relative file's header is read
    /// here); and takes the before-image — `scanned`, the record as a
    /// subset scan found it, or else a `get` or slot read. A change audited
    /// as field images leaves the whole new record in `file.image`.
    fn change_body(
        &self,
        txn: TxnId,
        file: &AuditedFile<'_, '_>,
        key: Key,
        scanned: Option<&[u8]>,
        change: Change<'_>,
    ) -> Result<AuditBody, DpError> {
        let (key, lock, relative) = match key {
            Key::Record(key) => (key, true, false),
            Key::Covered(key) => (key, false, false),
            Key::Slot(recnum) => (recnum.to_be_bytes().to_vec(), true, true),
        };
        if lock {
            let scope = ScopeRef::record(&key);
            self.lock(txn, file.label.id, scope, LockMode::Exclusive)?;
        }
        if relative {
            file.relative()?;
        } else {
            file.tree()?;
        }
        let before = || match scanned {
            Some(record) => Ok(Cow::Borrowed(record)),
            None => file.read(&key).map(Cow::Owned),
        };
        let mut image = file.image.borrow_mut();
        Ok(match change {
            Change::Insert(record) => AuditBody::Insert { key, record },
            Change::Put(record) => match file.read(&key) {
                Ok(before) => {
                    let after = record;
                    AuditBody::UpdateFull { key, before, after }
                }
                Err(_) => AuditBody::Insert { key, record },
            },
            Change::Replace(after, AuditMode::FullImage) => {
                let before = before()?.into_owned();
                AuditBody::UpdateFull { key, before, after }
            }
            Change::Replace(record, AuditMode::FieldCompressed) => {
                // Compute which fields changed by comparing images — this is
                // exactly the "costly" ENSCRIBE audit-compression option the
                // paper contrasts with SQL's free field knowledge.
                let desc = self.descriptor(file.label)?;
                let (before, after) = diff_fields(desc, &before()?, &record)
                    .map_err(|e| DpError::BadRecord(e.to_string()))?;
                self.sim
                    .cpu_work(CpuLayer::DiskProcess, desc.num_fields() as u64);
                *image = record;
                AuditBody::UpdateFields { key, before, after }
            }
            Change::Patch(patch) => {
                // Its CPU units are charged as the patch reaches them.
                let charge = |units| self.sim.cpu_work(CpuLayer::DiskProcess, units);
                let desc = self.descriptor(file.label)?;
                let (before, after) = patch.apply(desc, &before()?, charge, &mut image)?;
                AuditBody::UpdateFields { key, before, after }
            }
            Change::Delete => AuditBody::Delete {
                before: before()?.into_owned(),
                key,
            },
        })
    }

    /// A record-at-a-time write: the keyed change, then the verb's CPU
    /// units and the bytes it checkpoints to the backup.
    fn write_record(
        &self,
        txn: TxnId,
        label: Arc<FileLabel>,
        key: Key,
        change: Change<'_>,
        units: u64,
        checkpoint: Option<usize>,
    ) -> Result<DpReply, DpError> {
        self.join_txn(txn);
        let store = DpStore::new(&self.pool, &self.alloc);
        self.keyed_change(txn, &AuditedFile::new(&store, &label), key, None, change)?;
        self.sim.cpu_work(CpuLayer::DiskProcess, units);
        if let Some(bytes) = checkpoint {
            self.checkpoint(bytes);
        }
        Ok(DpReply::Ok)
    }

    /// A blocked (buffered) write: the File System's buffer of changes in
    /// one message — "substantial message traffic savings in the FS-DP
    /// interface" — to a key-sequenced file, 3 CPU units each. Its reply
    /// says every record examined was affected.
    fn write_blocked<'p>(
        &self,
        txn: TxnId,
        label: &FileLabel,
        changes: impl Iterator<Item = (Key, Change<'p>)>,
    ) -> Result<DpReply, DpError> {
        let store = DpStore::new(&self.pool, &self.alloc);
        let opened = AuditedFile::new(&store, label);
        opened.tree()?;
        let mut affected = 0u32;
        for (key, change) in changes {
            self.keyed_change(txn, &opened, key, None, change)?;
            self.sim.cpu_work(CpuLayer::DiskProcess, 3);
            affected += 1;
        }
        // Insert Control Block equivalent: let aged dirty strings go out.
        if self.config.lock().write_behind {
            self.pool.write_behind();
        }
        Ok(DpReply::Subset {
            rows: RowBlock::default(),
            last_key: None,
            done: true,
            subset: None,
            examined: affected,
            affected,
        })
    }

    // ------------------------------------------------------------------
    // Set-oriented execution under the re-drive protocol
    // ------------------------------------------------------------------

    /// FIRST: open a subset conversation. What can be worked out once — the
    /// compiled predicate, the projection plan — is, and it stays with the
    /// operation in the Subset Control Block, which is created when a
    /// re-drive will be needed.
    fn subset_first(
        &self,
        file: FileId,
        range: KeyRange,
        predicate: Option<Expr>,
        op: SubsetOp,
    ) -> Result<DpReply, DpError> {
        let label = self.file_label(file)?;
        let desc = self.descriptor(&label)?;
        let predicate = predicate.map(|expr| Predicate::new(desc, expr));
        let work = Work::compile(desc, op)?;
        let KeyRange { begin, end } = range;
        let scb = Scb {
            file,
            end,
            predicate,
            work,
        };
        let mut reply = self.run_subset(&scb, &label, begin, None)?;
        if let DpReply::Subset {
            done: false,
            subset,
            ..
        } = &mut reply
        {
            let mut st = self.state.lock();
            let id = st.next_subset;
            st.next_subset += 1;
            st.subsets.insert(id, Arc::new(scb));
            self.scb_rec.bump(Ctr::ScbCreated);
            *subset = Some(id);
        }
        Ok(reply)
    }

    /// A re-drive: the SCB's operation, continued after `after`. The verb
    /// must be the operation's own — a requester that mixes up its subsets
    /// is told so before a record is touched, and the SCB stays for the
    /// conversation it belongs to. Past that check the SCB ends with the
    /// range or with the first failure: the requester never re-drives a
    /// failed conversation, and a browse read has no transaction whose end
    /// would free it.
    fn subset_next(
        &self,
        subset: SubsetId,
        after: Vec<u8>,
        verb: SubsetVerb,
    ) -> Result<DpReply, DpError> {
        let scb = self.state.lock().subsets.get(&subset).map(Arc::clone);
        let scb = scb.ok_or(DpError::BadSubset(subset))?;
        if scb.work.verb() != verb {
            return Err(DpError::WrongVerb { subset, verb });
        }
        let begin = OwnedBound::Excluded(after);
        let reply = self
            .file_label(scb.file)
            .and_then(|label| self.run_subset(&scb, &label, begin, Some(subset)));
        if !matches!(reply, Ok(DpReply::Subset { done: false, .. })) {
            self.state.lock().subsets.remove(&subset);
        }
        reply
    }

    /// Execute one request-message's worth of the subset operation `scb`
    /// on the file of `label`, starting at `begin`. `existing` is the SCB id
    /// on re-drives, which keep reporting it until the range is exhausted.
    fn run_subset(
        &self,
        scb: &Scb,
        label: &FileLabel,
        begin: OwnedBound,
        existing: Option<SubsetId>,
    ) -> Result<DpReply, DpError> {
        let desc = self.descriptor(label)?;
        let frec = self.file_rec(scb.file);
        if existing.is_some() {
            self.scb_rec.bump(Ctr::ScbRedrives);
        }
        if let Some(txn) = scb.work.txn() {
            self.join_txn(txn);
        }
        let (reply_buffer, max_records, write_behind) = {
            let cfg = self.config.lock();
            (
                cfg.reply_buffer,
                cfg.max_records_per_request,
                cfg.write_behind,
            )
        };
        // A read fills the reply with (projected) rows, an aggregate with
        // the partial groups of what it folds; a write collects the records
        // to change. A locking read or aggregate group-locks the span of
        // what it selects.
        let shared = |txn: &Option<TxnId>, lock| txn.filter(|_| matches!(lock, ReadLock::Shared));
        let (read, group_lock, plan) = match &scb.work {
            Work::Read {
                mode,
                txn,
                lock,
                plan,
            } => (Some(*mode), shared(txn, *lock), plan.as_ref()),
            Work::Aggregate { txn, lock, .. } => (Some(SubsetMode::Vsbb), shared(txn, *lock), None),
            Work::Update { .. } | Work::Delete { .. } => (None, None, None),
        };
        // The fold of an aggregate, in the buffers the last one left, with
        // its charge per record folded.
        let mut fold = match &scb.work {
            Work::Aggregate {
                group_by,
                aggs,
                text,
                row_max,
                ..
            } => {
                let groups = std::mem::take(&mut *self.fold.lock());
                let fold = Aggregation::with_groups(group_by, aggs, groups);
                Some((fold, 1 + aggs.len() as u64, &text[..], 2 + row_max))
            }
            Work::Read { .. } | Work::Update { .. } | Work::Delete { .. } => None,
        };
        // RSBB replies carry one physical block copy; VSBB virtual blocks
        // use the configured reply buffer.
        let reply_budget = match read {
            Some(SubsetMode::Rsbb) => self.pool.disk().block_size(),
            Some(SubsetMode::Vsbb) | None => reply_buffer,
        };
        // The predicate with its charge per record, and how long a record
        // must be for predicate or projection to find its fields: the fixed
        // part is checked once per record, ahead of both.
        let predicate = scb.predicate.as_ref().map(|p| (p, 1 + p.eval_cost() / 2));
        let looks_inside =
            predicate.is_some() || plan.is_some_and(|p| !p.is_empty()) || fold.is_some();
        let fixed_part = if looks_inside {
            desc.bitmap_len() + desc.fixed_size()
        } else {
            0
        };
        let store = DpStore::new(&self.pool, &self.alloc);
        store.scan.set(self.scan_options());
        let opened = AuditedFile::new(&store, label);
        let tree = opened.tree()?;

        // Phase 1: scan, evaluating the single-variable query per record.
        // A record's CPU units accrue on the store, which books them before
        // the scan's next block access (the disk's timeline is read against
        // the clock) and once more when the scan stops; the counts nothing
        // reads meanwhile are booked after the scan.
        let mut rows = RowBuffer::default();
        let mut matched = Matched::default(); // update/delete candidates
        let mut first_selected: Option<Vec<u8>> = None;
        let (mut examined, mut selected) = (0u32, 0u32);
        // Last key examined; one buffer reused across the scan.
        let mut last_key: Vec<u8> = Vec::new();
        let mut exhausted = true;
        let mut eval_error: Option<DpError> = None;

        tree.scan(begin.as_ref(), |k, v| {
            // Range end check.
            let in_range = match &scb.end {
                OwnedBound::Unbounded => true,
                OwnedBound::Included(e) => k <= e.as_slice(),
                OwnedBound::Excluded(e) => k < e.as_slice(),
            };
            if !in_range {
                return ScanControl::Stop;
            }
            examined += 1;
            let mut fail = |units: u64, e: DpError| {
                store.charge(units);
                eval_error = Some(e);
                ScanControl::Stop
            };
            if v.len() < fixed_part {
                return fail(0, DpError::BadRecord(CodecError::Corrupt.to_string()));
            }
            let mut units = 1;
            let passes = match predicate {
                None => true,
                Some((p, cost)) => {
                    units += cost;
                    match p.passes(desc, v) {
                        Ok(passes) => passes,
                        Err(PredicateError::Eval(e)) => {
                            return fail(cost, DpError::EvalFailed(e.to_string()))
                        }
                        Err(PredicateError::Record(e)) => {
                            return fail(cost, DpError::BadRecord(e.to_string()))
                        }
                    }
                }
            };
            last_key.clear();
            last_key.extend_from_slice(k);
            if passes {
                selected += 1;
                if group_lock.is_some() && first_selected.is_none() {
                    first_selected = Some(k.to_vec());
                }
                match (&mut fold, read, plan) {
                    (Some((fold, per_record, text, _)), _, _) => {
                        let refused = text.iter().find_map(|&f| check_field(desc, v, f).err());
                        if let Some(e) = refused {
                            return fail(units - 1, DpError::BadRecord(e.to_string()));
                        }
                        fold.fold(&RawRecord { desc, bytes: v });
                        units += *per_record;
                    }
                    (None, Some(_), None) => rows.push(v),
                    (None, Some(_), Some(plan)) => {
                        if let Err(e) = rows.push_projected(plan, v) {
                            return fail(units - 1, DpError::BadRecord(e.to_string()));
                        }
                    }
                    (None, None, _) => matched.push(k, v),
                }
            }
            store.charge(units);
            // Partial groups fill a reply as rows do, each counted at the
            // longest it can be.
            let filled = match &fold {
                Some((fold, _, _, row)) => fold.len() * row,
                None => rows.wire_len(),
            };
            if filled >= reply_budget {
                exhausted = false; // full (virtual) block: re-drive
                return ScanControl::Stop;
            }
            if examined >= max_records {
                exhausted = false; // time slice expired: re-drive
                return ScanControl::Stop;
            }
            ScanControl::Continue
        });
        store.book();
        frec.add(Ctr::RecsExamined, examined as u64);
        frec.add(Ctr::RecsSelected, selected as u64);
        if let Some(e) = eval_error {
            return Err(e);
        }
        let last_key = (examined > 0).then_some(last_key);
        if let (Some((mut fold, ..)), Work::Aggregate { layout, .. }) = (fold, &scb.work) {
            let written = fold.each_partial(layout, |row| rows.push(row));
            *self.fold.lock() = fold.into_groups();
            written.map_err(|e| DpError::EvalFailed(e.to_string()))?;
        }

        // Locking: a read subset with locking group-locks the span of the
        // virtual block ("the records of the virtual block are locked as a
        // group").
        if let (Some(txn), Some(lo), Some(hi)) = (group_lock, &first_selected, &last_key) {
            let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            let span = ScopeRef::interval(lo, hi);
            self.lock(txn, scb.file, span, LockMode::Shared)?;
        }

        // Phase 2 (update/delete): change each record selected — every
        // one, or the request fails — from the image the scan found.
        let writer = match &scb.work {
            Work::Read { .. } | Work::Aggregate { .. } => None,
            Work::Update { txn, patch } => Some((*txn, Some(patch))),
            Work::Delete { txn } => Some((*txn, None)),
        };
        if let Some((txn, patch)) = writer {
            self.change_matched(txn, &opened, &matched, patch)?;
        }

        // Idle-time write-behind after set-oriented work.
        if write_behind && read.is_none() {
            self.pool.write_behind();
        }

        Ok(DpReply::Subset {
            rows: rows.into(),
            last_key,
            done: exhausted,
            subset: existing.filter(|_| !exhausted),
            examined,
            affected: selected,
        })
    }

    /// Phase 2 of `UPDATE^SUBSET` / `DELETE^SUBSET`: change each matched
    /// record, a leaf at a time. Each is locked, patched, logged and charged
    /// its 3 units in turn, as [`Self::keyed_change`] would, but a leaf's
    /// changes go into one new image of it ([`BTreeFile::leaf_rewrites`]),
    /// written once — stamped with the last change's LSN — when the records
    /// move on to another leaf, or one fails. A change the leaf cannot take
    /// in place (it would overflow the block or empty the leaf) is made by
    /// [`Self::audited_write`], after the leaf's changes before it, and
    /// splits, frees or rebalances as it always did.
    fn change_matched<'s>(
        &'s self,
        txn: TxnId,
        file: &AuditedFile<'_, 's>,
        matched: &Matched,
        patch: Option<&Patch>,
    ) -> Result<(), DpError> {
        #[cfg(test)]
        if tests::record_at_a_time() {
            return tests::change_each(self, txn, file, matched, patch);
        }
        let mut leaves = file.tree()?.leaf_rewrites();
        let written = matched.iter().try_for_each(|(key, current)| {
            let change = patch.map_or(Change::Delete, Change::Patch);
            let body =
                self.change_body(txn, file, Key::Record(key.to_vec()), Some(current), change)?;
            let image = file.image.borrow();
            if leaves.stage(key, patch.map(|_| image.as_slice())) {
                self.log_ahead(file.store, txn, file.label.id, &body);
                self.push_undo(txn, file.label.id, body);
            } else {
                self.audited_write(file, txn, body, &image)?;
            }
            self.sim.cpu_work(CpuLayer::DiskProcess, 3);
            Ok(())
        });
        leaves.finish();
        written
    }

    // ------------------------------------------------------------------
    // Relative and entry-sequenced access methods
    // ------------------------------------------------------------------

    fn relative_read(&self, file: FileId, recnum: u64) -> Result<DpReply, DpError> {
        let label = self.file_label(file)?;
        let store = DpStore::new(&self.pool, &self.alloc);
        let opened = AuditedFile::new(&store, &label);
        let rel = opened.relative()?;
        self.sim.cpu_work(CpuLayer::DiskProcess, 2);
        Ok(DpReply::Record(rel.read_record(recnum).ok()))
    }

    /// Entry-sequenced appends are non-audited (ENSCRIBE supported
    /// non-audited files); the address is stable for the file's lifetime.
    fn entry_append(&self, file: FileId, record: Vec<u8>) -> Result<DpReply, DpError> {
        let label = self.file_label(file)?;
        if !matches!(label.kind, FileKind::EntrySequenced) {
            return Err(DpError::WrongFileKind);
        }
        let store = DpStore::new(&self.pool, &self.alloc);
        let es = EntrySequencedFile::open(&store, label.anchor);
        let addr = es
            .append(&record)
            .map_err(|e| DpError::BadRecord(e.to_string()))?;
        self.sim.cpu_work(CpuLayer::DiskProcess, 2);
        Ok(DpReply::Appended(addr))
    }

    fn entry_read(&self, file: FileId, address: u64) -> Result<DpReply, DpError> {
        let label = self.file_label(file)?;
        if !matches!(label.kind, FileKind::EntrySequenced) {
            return Err(DpError::WrongFileKind);
        }
        let store = DpStore::new(&self.pool, &self.alloc);
        let es = EntrySequencedFile::open(&store, label.anchor);
        self.sim.cpu_work(CpuLayer::DiskProcess, 2);
        Ok(DpReply::Record(es.read_at(address).ok()))
    }

    // ------------------------------------------------------------------
    // End-of-transaction protocol
    // ------------------------------------------------------------------

    fn handle_end_txn(&self, req: EndTxnRequest) -> EndTxnReply {
        match req {
            EndTxnRequest::Prepare { .. } => {
                // Flush this volume's audit to the trail so the commit
                // record cannot precede it.
                self.auditor.send();
                EndTxnReply::Ok
            }
            EndTxnRequest::Finish { txn, committed } => {
                let undo = {
                    let mut st = self.state.lock();
                    // No SCB outlives its transaction: a re-drive that comes
                    // after this finds no subset, not a finished transaction
                    // to work in.
                    st.subsets.retain(|_, scb| scb.work.txn() != Some(txn));
                    st.undo.remove(&txn)
                };
                if !committed {
                    // Back out newest change first. Each change's audit is
                    // already buffered ahead of every page it touched, so
                    // the backout stamps no LSN of its own.
                    for (file, body) in undo.iter().flatten().rev() {
                        self.apply_logged(*file, body, Direction::Undo, 0);
                    }
                }
                self.locks.release_all(txn);
                if self.config.lock().write_behind {
                    self.pool.write_behind();
                }
                EndTxnReply::Ok
            }
        }
    }

    // ------------------------------------------------------------------
    // Crash simulation and recovery
    // ------------------------------------------------------------------

    /// Simulate a crash of this Disk Process: all in-memory state (cache,
    /// undo lists, subsets) vanishes. The disk keeps whatever was flushed.
    pub fn crash(&self) {
        self.pool.crash();
        self.auditor.crash();
        let doomed: Vec<TxnId> = {
            let mut st = self.state.lock();
            let doomed = st.undo.keys().copied().collect();
            st.subsets.clear();
            st.undo.clear();
            st.replies.clear();
            doomed
        };
        // Transactions whose uncommitted writes died with this process can
        // no longer commit (recovery will undo them); tell TMF.
        for txn in doomed {
            self.txnmgr.doom(txn);
        }
    }

    /// Recover the volume from the durable audit trail: redo winners' work,
    /// undo losers' work (see `nsql_tmf::recovery`). Leaves the volume
    /// consistent and flushed. Reloads the label from disk first.
    pub fn recover(&self) {
        {
            let bytes = self.pool.read(0).expect("volume label unreadable");
            self.state.lock().label = VolumeLabel::decode(&bytes);
        }
        let records = self.trail.durable_records(self.sim.now());
        self.replay(&records, true);
        self.pool.flush_all().expect("recovery flush failed");
    }

    /// Rebuild this volume after a **media failure** (dead unmirrored
    /// drive): the process survived, the platters did not. The drive is
    /// replaced (empty), every file structure is re-created empty with its
    /// id, kind and descriptor preserved from the in-memory label, and the
    /// winners' work is redone from the durable audit trail. Losers are
    /// *not* undone: their in-flight changes never reached a store rebuilt
    /// from scratch, so there is nothing to roll back.
    pub fn media_recover(&self) -> Result<(), nsql_disk::DiskError> {
        let old = self.state.lock().label.clone();
        self.pool.crash();
        self.pool.disk().clear();
        *self.alloc.lock() = Allocator::new();
        let label = {
            let store = DpStore::new(&self.pool, &self.alloc);
            let mut label = VolumeLabel {
                files: Default::default(),
                next_file: old.next_file,
            };
            for (id, f) in &old.files {
                let anchor = create_structure(&store, &f.kind);
                let file = FileLabel {
                    id: *id,
                    kind: f.kind.clone(),
                    anchor,
                };
                label.files.insert(*id, Arc::new(file));
            }
            label
        };
        self.state.lock().label = label.clone();
        let bytes = label.encode();
        self.pool.write(0, bytes, 0)?;
        let records = self.trail.durable_records(self.sim.now());
        self.replay(&records, false);
        self.pool.flush_all()
    }

    /// Scan the durable trail and apply this volume's recovery plan (its
    /// REDO steps only, unless `with_undo`). The scan is charged to
    /// [`Wait::Restart`] on the virtual clock; the replayed page I/O shows
    /// up under its own categories.
    fn replay(&self, records: &[AuditRecord], with_undo: bool) {
        self.sim.clock.advance_in(
            Wait::Restart,
            records.len() as u64 * CostModel::CPU_WORK_UNIT_US,
        );
        self.rec.add(Ctr::RecoveryScanned, records.len() as u64);
        let plan = nsql_tmf::classify(records, &self.name);
        let redo = plan.records(Direction::Redo).count();
        self.rec.add(Ctr::RecoveryRedo, redo as u64);
        if with_undo {
            let undo = plan.steps.len() - redo;
            self.rec.add(Ctr::RecoveryUndo, undo as u64);
        }
        for (rec, direction) in plan.steps {
            if with_undo || direction == Direction::Redo {
                self.apply_logged(rec.file, &rec.body, direction, rec.lsn);
            }
        }
    }

    /// Apply one audit record's `body` to `file` in `direction` — replay's
    /// REDO and UNDO, and the backout of an aborting transaction — stamping
    /// the blocks it dirties with `lsn`. Every application is logical and
    /// idempotent (insert or replace, delete if present, set these fields),
    /// dispatched per file structure, so nothing a well-formed record asks
    /// for can be refused; what is refused all the same is left in the
    /// flight recorder.
    fn apply_logged(&self, file: FileId, body: &AuditBody, direction: Direction, lsn: u64) {
        if let Err(e) = self.try_apply_logged(file, body, direction, lsn) {
            let what = format!("{direction:?} on file {file} refused: {e}");
            self.sim.emit(&self.rec, Event::Refused(what, lsn));
        }
    }

    fn try_apply_logged(
        &self,
        file: FileId,
        body: &AuditBody,
        direction: Direction,
        lsn: u64,
    ) -> Result<(), DpError> {
        use Direction::{Redo, Undo};
        let label = self.file_label(file)?;
        let store = DpStore::new(&self.pool, &self.alloc);
        store.lsn.set(lsn);
        let file = AuditedFile::new(&store, &label);
        match (body, direction) {
            (AuditBody::Insert { key, record }, Redo) => file.write(key, record, BTreeFile::put),
            (AuditBody::Delete { key, before }, Undo) => file.write(key, before, BTreeFile::put),
            (AuditBody::UpdateFull { key, after, .. }, Redo) => {
                file.write(key, after, BTreeFile::put)
            }
            (AuditBody::UpdateFull { key, before, .. }, Undo) => {
                file.write(key, before, BTreeFile::put)
            }
            (AuditBody::Insert { key, .. }, Undo) | (AuditBody::Delete { key, .. }, Redo) => {
                match file.delete(key) {
                    // Delete if present.
                    Err(DpError::NotFound) => Ok(()),
                    done => done,
                }
            }
            (AuditBody::UpdateFields { key, before, after }, _) => {
                let fields = if direction == Redo { after } else { before };
                let desc = self.descriptor(&label)?;
                let current = match file.read(key) {
                    // Set these fields, if the record is there.
                    Err(DpError::NotFound) => return Ok(()),
                    current => current?,
                };
                let mut image = Vec::new();
                patch_row(desc, &current, fields, &mut image)
                    .map_err(|e| DpError::BadRecord(e.to_string()))?;
                file.write(key, &image, BTreeFile::put)
            }
            (AuditBody::Commit | AuditBody::Abort, _) => Ok(()),
        }
    }
}

/// An audited file's structure — key-sequenced or relative; entry-sequenced
/// files are not audited — on a request's store view, opened at its first
/// use: a relative file's header is read then, so a write verb reads it
/// only once it holds its record lock. A request made for one structure
/// reaches it through [`tree`](Self::tree) or [`relative`](Self::relative);
/// the keyed change, backout and replay work on either, a relative record
/// being keyed by its big-endian number.
struct AuditedFile<'r, 's> {
    label: &'r FileLabel,
    store: &'r DpStore<'s>,
    /// `None` for an entry-sequenced file.
    records: OnceCell<Option<Records<'r, 's>>>,
    /// The whole new record of a change audited as field images; one
    /// buffer holds each patched record in turn.
    image: RefCell<Vec<u8>>,
}

enum Records<'r, 's> {
    KeySequenced(BTreeFile<'r, DpStore<'s>>),
    Relative(RelativeFile<'r, DpStore<'s>>),
}

/// How [`AuditedFile::write`] treats a key-sequenced file's existing entry:
/// [`BTreeFile::insert`], [`BTreeFile::update`] or [`BTreeFile::put`].
type TreeWrite<'r, 's> = fn(&BTreeFile<'r, DpStore<'s>>, &[u8], &[u8]) -> Result<(), TreeError>;

impl<'r, 's> AuditedFile<'r, 's> {
    fn new(store: &'r DpStore<'s>, label: &'r FileLabel) -> Self {
        AuditedFile {
            label,
            store,
            records: OnceCell::new(),
            image: RefCell::default(),
        }
    }

    fn records(&self) -> Result<&Records<'r, 's>, DpError> {
        let (store, anchor) = (self.store, self.label.anchor);
        let open = || match &self.label.kind {
            FileKind::KeySequenced(_) => {
                Some(Records::KeySequenced(BTreeFile::open(store, anchor)))
            }
            FileKind::Relative { .. } => Some(Records::Relative(RelativeFile::open(store, anchor))),
            FileKind::EntrySequenced => None,
        };
        let records = self.records.get_or_init(open).as_ref();
        records.ok_or(DpError::WrongFileKind)
    }

    fn tree(&self) -> Result<&BTreeFile<'r, DpStore<'s>>, DpError> {
        match self.records()? {
            Records::KeySequenced(tree) => Ok(tree),
            Records::Relative(_) => Err(DpError::WrongFileKind),
        }
    }

    fn relative(&self) -> Result<&RelativeFile<'r, DpStore<'s>>, DpError> {
        match self.records()? {
            Records::Relative(rel) => Ok(rel),
            Records::KeySequenced(_) => Err(DpError::WrongFileKind),
        }
    }

    /// The record under `key`.
    fn read(&self, key: &[u8]) -> Result<Vec<u8>, DpError> {
        match self.records()? {
            Records::KeySequenced(tree) => tree.get(key).ok_or(DpError::NotFound),
            Records::Relative(rel) => Ok(rel.read_record(recnum(key)?)?),
        }
    }

    /// Store `image` under `key`: into the slot, whatever it held, on a
    /// relative file; the way `tree_write` goes about it on a key-sequenced
    /// one.
    fn write(
        &self,
        key: &[u8],
        image: &[u8],
        tree_write: TreeWrite<'r, 's>,
    ) -> Result<(), DpError> {
        match self.records()? {
            Records::KeySequenced(tree) => Ok(tree_write(tree, key, image)?),
            Records::Relative(rel) => Ok(rel.write_record(recnum(key)?, image)?),
        }
    }

    fn delete(&self, key: &[u8]) -> Result<(), DpError> {
        match self.records()? {
            Records::KeySequenced(tree) => tree.delete(key).map(drop)?,
            Records::Relative(rel) => rel.delete_record(recnum(key)?)?,
        }
        Ok(())
    }
}

/// Where a keyed change lands.
enum Key {
    /// A key-sequenced file's record: the change locks it.
    Record(Vec<u8>),
    /// The same, under the caller's interval lock (a blocked insert's).
    Covered(Vec<u8>),
    /// A relative file's record, by number: the change locks it.
    Slot(u64),
}

/// What a keyed change does to its record.
enum Change<'p> {
    Insert(Vec<u8>),
    /// Replace the record with this image, audited as the mode says: an
    /// ENSCRIBE write or a blocked update.
    Replace(Vec<u8>, AuditMode),
    /// Insert or replace a relative slot's record.
    Put(Vec<u8>),
    /// Change the fields a compiled `SET` list names.
    Patch(&'p Patch),
    Delete,
}

/// Create an empty file structure of `kind`; returns its anchor block.
fn create_structure(store: &DpStore<'_>, kind: &FileKind) -> nsql_btree::BlockNo {
    match kind {
        FileKind::KeySequenced(_) => BTreeFile::create(store),
        FileKind::Relative { slot_size } => RelativeFile::create(store, *slot_size as usize),
        FileKind::EntrySequenced => EntrySequencedFile::create(store),
    }
}

/// The record number a relative file's key stands for.
fn recnum(key: &[u8]) -> Result<u64, DpError> {
    let bytes = key.try_into();
    let bytes = bytes.map_err(|_| DpError::BadRecord("not a record number".into()))?;
    Ok(u64::from_be_bytes(bytes))
}

/// The one reading of what an access method refused.
impl From<TreeError> for DpError {
    fn from(e: TreeError) -> DpError {
        match e {
            TreeError::DuplicateKey => DpError::DuplicateKey,
            TreeError::NotFound => DpError::NotFound,
            TreeError::EntryTooLarge => DpError::BadRecord("record too large".into()),
        }
    }
}

impl From<RelativeError> for DpError {
    fn from(e: RelativeError) -> DpError {
        match e {
            RelativeError::NotFound => DpError::NotFound,
            RelativeError::OutOfRange | RelativeError::RecordTooLarge => {
                DpError::BadRecord(e.to_string())
            }
        }
    }
}

impl DiskProcess {
    /// Handle a request carrying a sync ID: answer retransmissions from the
    /// per-opener reply cache ("duplicate suppression"), execute fresh
    /// requests and remember their reply.
    fn handle_sync(&self, sync: protocol::SyncId, req: DpRequest) -> DpReply {
        if let Some(cached) = self
            .state
            .lock()
            .replies
            .get(&sync.opener)
            .and_then(|q| q.iter().find(|(seq, _)| *seq == sync.seq))
            .map(|(_, reply)| reply.clone())
        {
            // The request already executed; only the reply was lost.
            self.rec.bump(Ctr::DupSuppressed);
            self.sim.cpu_work(CpuLayer::DiskProcess, 1);
            return cached;
        }
        let reply = self.handle_request(req);
        let mut st = self.state.lock();
        let q = st.replies.entry(sync.opener).or_default();
        if q.len() >= REPLY_CACHE_PER_OPENER {
            q.pop_front();
        }
        q.push_back((sync.seq, reply.clone()));
        reply
    }
}

impl Server for DiskProcess {
    fn handle(&self, request: Box<dyn Any + Send>) -> Response {
        let respond = |reply: DpReply| {
            let size = reply.wire_size();
            Response::new(reply, size)
        };
        // Two protocols arrive here: FS-DP requests, each carrying its sync
        // ID, and TMF end-txn calls.
        let request = match request.downcast::<protocol::SyncRequest>() {
            Ok(sreq) => {
                let sreq = *sreq;
                // The DP-side handling span attaches to the identity carried
                // in the request header, so the statement's span tree
                // survives the wire hop (and a duplicate delivery shows up
                // as a second handling span under the same request span).
                let _span = self.sim.span_enter(sreq.span, sreq.req.name(), &self.name);
                return respond(self.handle_sync(sreq.sync, sreq.req));
            }
            Err(original) => original,
        };
        match request.downcast::<EndTxnRequest>() {
            Ok(req) => {
                let reply = self.handle_end_txn(*req);
                Response::new(reply, 4)
            }
            Err(_) => respond(DpReply::Error(DpError::UnknownRequest)),
        }
    }
}

// ----------------------------------------------------------------------
// Field-level helpers
// ----------------------------------------------------------------------

/// An update's `SET` list and CHECK compiled against `desc`. A key field
/// may not be assigned; a list `desc` cannot take is refused
/// (`NoSuchField`, `AssignedTwice`).
fn compile_patch(
    desc: &RecordDescriptor,
    sets: SetList,
    constraint: Option<Expr>,
) -> Result<Patch, DpError> {
    if sets.sets.iter().any(|(f, _)| desc.key_fields.contains(f)) {
        return Err(DpError::KeyUpdateNotAllowed);
    }
    Ok(Patch::new(desc, sets, constraint)?)
}

/// The one reading of what a patch refused.
impl From<PatchError> for DpError {
    fn from(e: PatchError) -> DpError {
        match e {
            PatchError::NoSuchField(f) => DpError::NoSuchField(f),
            PatchError::AssignedTwice(f) => DpError::AssignedTwice(f),
            PatchError::Record(_) | PatchError::DoesNotFit(_) => DpError::BadRecord(e.to_string()),
            PatchError::Eval(e) => DpError::EvalFailed(e.to_string()),
            PatchError::Check => DpError::ConstraintViolation,
        }
    }
}

/// The records a subset write selected, in scan order: each one's key and
/// record end to end in one buffer, behind their two lengths.
#[derive(Default)]
struct Matched(Vec<u8>);

impl Matched {
    fn push(&mut self, key: &[u8], record: &[u8]) {
        let buf = &mut self.0;
        buf.reserve(4 + key.len() + record.len());
        buf.extend_from_slice(&(key.len() as u16).to_be_bytes());
        buf.extend_from_slice(&(record.len() as u16).to_be_bytes());
        buf.extend_from_slice(key);
        buf.extend_from_slice(record);
    }

    /// `(key, record)` of each, in the order they were pushed.
    fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        let mut rest = self.0.as_slice();
        std::iter::from_fn(move || {
            let (&[k0, k1, r0, r1], after) = rest.split_first_chunk::<4>()?;
            let (key, after) = after.split_at_checked(u16::from_be_bytes([k0, k1]) as usize)?;
            let (record, after) = after.split_at_checked(u16::from_be_bytes([r0, r1]) as usize)?;
            rest = after;
            Some((key, record))
        })
    }
}

/// ENSCRIBE audit-compression helper: diff two full images field by field.
/// A field changed when its stored bytes did, so a `0.0` that became
/// `-0.0` is in the images.
fn diff_fields(
    desc: &RecordDescriptor,
    before: &[u8],
    after: &[u8],
) -> Result<(FieldImage, FieldImage), nsql_records::row::CodecError> {
    check_row(desc, before)?;
    check_row(desc, after)?;
    let mut bi = FieldImage::new();
    let mut ai = FieldImage::new();
    for i in 0..desc.num_fields() as u16 {
        if field_bytes(desc, before, i)? != field_bytes(desc, after, i)? {
            bi.push((i, extract_field(desc, before, i)?));
            ai.push((i, extract_field(desc, after, i)?));
        }
    }
    Ok((bi, ai))
}

/// A backup process of a process pair: absorbs checkpoint messages.
pub struct BackupSink;

impl Server for BackupSink {
    fn handle(&self, _request: Box<dyn Any + Send>) -> Response {
        Response::new((), 4)
    }
}

#[cfg(test)]
mod tests;
