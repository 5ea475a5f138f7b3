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
    AuditMode, DpError, DpReply, DpRequest, FileId, FileKind, ReadLock, SubsetId, SubsetMode,
    SyncId, SyncRequest,
};
pub use store::{Allocator, DpStore};

use nsql_btree::{BTreeFile, EntrySequencedFile, RelativeFile, ScanControl, TreeError};
use nsql_cache::{BufferPool, ScanOptions, WalGate};
use nsql_disk::Disk;
use nsql_lock::{LockError, LockManager, LockMode, LockScope, TxnId};
use nsql_msg::{Bus, CpuId, MsgKind, Response, Server};
use nsql_records::row::{decode_row, encode_row, extract_field, RawRecord};
use nsql_records::{Expr, OwnedBound, RecordDescriptor, SetList, Value};
use nsql_sim::sync::Mutex;
use nsql_sim::trace::TraceEventKind;
use nsql_sim::Wait;
use nsql_sim::{CpuLayer, Ctr, EntityKind, MeasureRecord, Micros, Sim};
use nsql_tmf::audit::FieldImage;
use nsql_tmf::txn::{EndTxnReply, EndTxnRequest};
use nsql_tmf::{AuditBody, Trail, TxnManager, VolumeAuditor};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
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

/// Per-transaction undo entry kept by the Disk Process until end-txn.
#[derive(Debug, Clone)]
enum UndoOp {
    Insert {
        file: FileId,
        key: Vec<u8>,
    },
    Delete {
        file: FileId,
        key: Vec<u8>,
        before: Vec<u8>,
    },
    UpdateFull {
        file: FileId,
        key: Vec<u8>,
        before: Vec<u8>,
    },
    UpdateFields {
        file: FileId,
        key: Vec<u8>,
        before: FieldImage,
    },
}

/// What a Subset Control Block remembers between re-drives: "these latter
/// were saved in the Subset Control Block which was created by the Disk
/// Process at GET^FIRST time".
#[derive(Debug, Clone)]
struct Scb {
    txn: Option<TxnId>,
    file: FileId,
    end: OwnedBound,
    predicate: Option<Expr>,
    op: ScbOp,
}

#[derive(Debug, Clone)]
enum ScbOp {
    Read {
        mode: SubsetMode,
        projection: Option<Vec<u16>>,
        lock: ReadLock,
    },
    Update {
        sets: SetList,
        constraint: Option<Expr>,
    },
    Delete,
}

/// Replies remembered per opener for duplicate suppression (Tandem kept a
/// similar small "sync block" per opener).
const REPLY_CACHE_PER_OPENER: usize = 8;

#[derive(Default)]
struct DpState {
    label: VolumeLabel,
    subsets: HashMap<SubsetId, Scb>,
    next_subset: SubsetId,
    undo: HashMap<TxnId, Vec<UndoOp>>,
    /// Per-opener cache of the last few `(sync seq, reply)` pairs: a
    /// retransmitted request (lost reply, duplicate delivery) is answered
    /// from here instead of being re-executed.
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

    fn file_label(&self, file: FileId) -> Result<FileLabel, DpError> {
        self.state
            .lock()
            .label
            .files
            .get(&file)
            .cloned()
            .ok_or(DpError::BadFile(file))
    }

    fn descriptor(&self, label: &FileLabel) -> Result<RecordDescriptor, DpError> {
        match &label.kind {
            FileKind::KeySequenced(desc) => Ok(desc.clone()),
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
        scope: LockScope,
        mode: LockMode,
    ) -> Result<(), DpError> {
        // Every branch below is mirrored by `crates/lint/src/lockmodel.rs`
        // (`nsql-lint check-locks`); a behavioral change here needs the
        // mirror updated in the same PR.
        //
        // A doomed transaction must not take new locks: fail fast so a
        // deadlock victim chosen while someone *else* was requesting learns
        // its fate on its very next request.
        if self.txnmgr.is_doomed(txn) {
            return Err(DpError::Deadlock { victim: txn });
        }
        match self.locks.acquire(txn, file, scope.clone(), mode) {
            Ok(()) => Ok(()),
            Err(LockError::Conflict { holder }) => {
                self.sim.metrics.lock_waits.inc();
                self.rec.bump(Ctr::LockWaits);
                // The blocked-then-bounced hop. Zero-cost by default, but
                // whatever it costs lands in the wait.lock category.
                self.sim
                    .clock
                    .advance_in(Wait::Lock, self.sim.cost.lock_wait_us);
                // Queue behind the holder; a closed waits-for cycle dooms
                // its youngest member, an exhausted budget dooms us.
                match self
                    .locks
                    .wait(txn, holder, file, scope, mode, self.sim.now())
                {
                    Err(LockError::Deadlock { victim }) => {
                        self.sim.metrics.deadlocks.inc();
                        self.rec.bump(Ctr::LockDeadlocks);
                        self.rec.bump(Ctr::DeadlockDetected);
                        self.rec.bump(Ctr::DeadlockVictims);
                        self.sim.trace_emit(|| TraceEventKind::LockWait {
                            txn: txn.0,
                            deadlock: true,
                        });
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
                        self.rec.bump(Ctr::LockWaitTimeouts);
                        self.sim.trace_emit(|| TraceEventKind::LockWait {
                            txn: txn.0,
                            deadlock: false,
                        });
                        Err(DpError::LockTimeout { victim })
                    }
                    Ok(()) | Err(LockError::Conflict { .. }) => {
                        self.sim.trace_emit(|| TraceEventKind::LockWait {
                            txn: txn.0,
                            deadlock: false,
                        });
                        Err(DpError::Locked { holder })
                    }
                }
            }
            // acquire() only bounces with Conflict; these arms are
            // defensive completeness.
            Err(LockError::Deadlock { victim }) => {
                self.sim.metrics.deadlocks.inc();
                self.rec.bump(Ctr::LockDeadlocks);
                self.rec.bump(Ctr::DeadlockDetected);
                self.rec.bump(Ctr::DeadlockVictims);
                self.sim.trace_emit(|| TraceEventKind::LockWait {
                    txn: txn.0,
                    deadlock: true,
                });
                Err(DpError::Deadlock { victim })
            }
            Err(LockError::WaitTimeout { victim }) => {
                self.rec.bump(Ctr::LockWaitTimeouts);
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

    fn push_undo(&self, txn: TxnId, op: UndoOp) {
        self.state.lock().undo.entry(txn).or_default().push(op);
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
        let result = match req {
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
            } => self.insert(txn, file, key, record),
            DpRequest::UpdateRecord {
                txn,
                file,
                key,
                record,
                audit,
            } => self.update_record(txn, file, key, record, audit),
            DpRequest::DeleteRecord { txn, file, key } => self.delete_record(txn, file, key),
            DpRequest::Lock {
                txn,
                file,
                key,
                mode,
            } => {
                self.join_txn(txn);
                let scope = match key {
                    Some(k) => LockScope::record(k),
                    None => LockScope::File,
                };
                self.lock(txn, file, scope, mode).map(|_| DpReply::Ok)
            }
            DpRequest::GetSubsetFirst {
                txn,
                file,
                range,
                predicate,
                projection,
                mode,
                lock,
            } => {
                let scb = Scb {
                    txn,
                    file,
                    end: range.end.clone(),
                    predicate,
                    op: ScbOp::Read {
                        mode,
                        projection,
                        lock,
                    },
                };
                self.run_subset(scb, range.begin, None)
            }
            DpRequest::GetSubsetNext { subset, after }
            | DpRequest::UpdateSubsetNext { subset, after }
            | DpRequest::DeleteSubsetNext { subset, after } => {
                let scb = {
                    let st = self.state.lock();
                    st.subsets
                        .get(&subset)
                        .cloned()
                        .ok_or(DpError::BadSubset(subset))
                };
                match scb {
                    Ok(scb) => {
                        let r = self.run_subset(scb, OwnedBound::Excluded(after), Some(subset));
                        if let Ok(DpReply::Subset { done: true, .. }) = &r {
                            self.state.lock().subsets.remove(&subset);
                        }
                        r
                    }
                    Err(e) => Err(e),
                }
            }
            DpRequest::UpdateSubsetFirst {
                txn,
                file,
                range,
                predicate,
                sets,
                constraint,
            } => {
                let scb = Scb {
                    txn: Some(txn),
                    file,
                    end: range.end.clone(),
                    predicate,
                    op: ScbOp::Update { sets, constraint },
                };
                self.run_subset(scb, range.begin, None)
            }
            DpRequest::DeleteSubsetFirst {
                txn,
                file,
                range,
                predicate,
            } => {
                let scb = Scb {
                    txn: Some(txn),
                    file,
                    end: range.end.clone(),
                    predicate,
                    op: ScbOp::Delete,
                };
                self.run_subset(scb, range.begin, None)
            }
            DpRequest::UpdatePoint {
                txn,
                file,
                key,
                sets,
                constraint,
            } => self.update_point(txn, file, key, sets, constraint),
            DpRequest::BlockedInsert { txn, file, records } => {
                self.blocked_insert(txn, file, records)
            }
            DpRequest::CloseSubset { subset } => {
                self.state.lock().subsets.remove(&subset);
                Ok(DpReply::Ok)
            }
            DpRequest::BlockedUpdate { txn, file, records } => {
                self.blocked_update(txn, file, records)
            }
            DpRequest::BlockedDelete { txn, file, keys } => self.blocked_delete(txn, file, keys),
            DpRequest::RelativeWrite {
                txn,
                file,
                recnum,
                record,
            } => self.relative_write(txn, file, recnum, record),
            DpRequest::RelativeRead { file, recnum } => self.relative_read(file, recnum),
            DpRequest::RelativeDelete { txn, file, recnum } => {
                self.relative_delete(txn, file, recnum)
            }
            DpRequest::EntryAppend { file, record } => self.entry_append(file, record),
            DpRequest::EntryRead { file, address } => self.entry_read(file, address),
        };
        match result {
            Ok(reply) => reply,
            Err(e) => DpReply::Error(e),
        }
    }

    fn create_file(&self, kind: FileKind) -> Result<DpReply, DpError> {
        let store = DpStore::new(&self.pool, &self.alloc);
        let anchor = match &kind {
            FileKind::KeySequenced(_) => BTreeFile::create(&store),
            FileKind::Relative { slot_size } => RelativeFile::create(&store, *slot_size as usize),
            FileKind::EntrySequenced => EntrySequencedFile::create(&store),
        };
        let label = {
            let mut st = self.state.lock();
            let id = st.label.next_file;
            st.label.next_file += 1;
            st.label.files.insert(id, FileLabel { id, kind, anchor });
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
            self.lock(txn, file, LockScope::record(key.to_vec()), LockMode::Shared)?;
        }
        let store = DpStore::new(&self.pool, &self.alloc);
        let tree = BTreeFile::open(&store, label.anchor);
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
        let tree = BTreeFile::open(&store, label.anchor);
        let start = match &after {
            Some(k) => std::ops::Bound::Excluded(k.as_slice()),
            None => std::ops::Bound::Unbounded,
        };
        let mut found: Option<(Vec<u8>, Vec<u8>)> = None;
        tree.scan(start, |k, v| {
            found = Some((k.to_vec(), v.to_vec()));
            ScanControl::Stop
        });
        self.sim.cpu_work(CpuLayer::DiskProcess, 3);
        match found {
            None => Ok(DpReply::Record(None)),
            Some((k, v)) => {
                if let (Some(txn), ReadLock::Shared) = (txn, lock) {
                    self.join_txn(txn);
                    self.lock(txn, file, LockScope::record(k.clone()), LockMode::Shared)?;
                }
                let frec = self.file_rec(file);
                frec.bump(Ctr::RecsExamined);
                frec.bump(Ctr::RecsSelected);
                // The caller needs the key to continue; replies carry it in
                // a Subset-shaped message.
                Ok(DpReply::Subset {
                    rows: vec![v],
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
        let tree = BTreeFile::open(&store, label.anchor);
        let block_budget = self.pool.disk().block_size();
        let mut rows = Vec::new();
        let mut bytes = 0usize;
        let mut last_key: Option<Vec<u8>> = None;
        let mut full = false;
        let start = match &after {
            Some(k) => std::ops::Bound::Excluded(k.as_slice()),
            None => std::ops::Bound::Unbounded,
        };
        tree.scan(start, |k, v| {
            bytes += v.len();
            rows.push(v.to_vec());
            last_key = Some(k.to_vec());
            self.sim.cpu_work(CpuLayer::DiskProcess, 1);
            if bytes >= block_budget {
                full = true;
                ScanControl::Stop
            } else {
                ScanControl::Continue
            }
        });
        let frec = self.file_rec(file);
        frec.add(Ctr::RecsExamined, rows.len() as u64);
        frec.add(Ctr::RecsSelected, rows.len() as u64);
        Ok(DpReply::Subset {
            rows,
            last_key,
            done: !full,
            subset: None,
            examined: 0,
            affected: 0,
        })
    }

    fn insert(
        &self,
        txn: TxnId,
        file: FileId,
        key: Vec<u8>,
        record: Vec<u8>,
    ) -> Result<DpReply, DpError> {
        let label = self.file_label(file)?;
        self.join_txn(txn);
        self.lock(
            txn,
            file,
            LockScope::record(key.clone()),
            LockMode::Exclusive,
        )?;
        let lsn = self.auditor.log(
            txn,
            file,
            AuditBody::Insert {
                key: key.clone(),
                record: record.clone(),
            },
        );
        let store = DpStore::new(&self.pool, &self.alloc);
        store.lsn.set(lsn);
        let tree = BTreeFile::open(&store, label.anchor);
        tree.insert(&key, &record).map_err(|e| match e {
            TreeError::DuplicateKey => DpError::DuplicateKey,
            TreeError::NotFound => DpError::NotFound,
            TreeError::EntryTooLarge => DpError::BadRecord("record too large".into()),
        })?;
        self.sim.cpu_work(CpuLayer::DiskProcess, 4);
        self.push_undo(txn, UndoOp::Insert { file, key });
        self.checkpoint(64 + record.len());
        Ok(DpReply::Ok)
    }

    fn update_record(
        &self,
        txn: TxnId,
        file: FileId,
        key: Vec<u8>,
        record: Vec<u8>,
        audit: AuditMode,
    ) -> Result<DpReply, DpError> {
        let label = self.file_label(file)?;
        self.join_txn(txn);
        self.lock(
            txn,
            file,
            LockScope::record(key.clone()),
            LockMode::Exclusive,
        )?;
        let store = DpStore::new(&self.pool, &self.alloc);
        let tree = BTreeFile::open(&store, label.anchor);
        let before = tree.get(&key).ok_or(DpError::NotFound)?;
        let body = match audit {
            AuditMode::FullImage => AuditBody::UpdateFull {
                key: key.clone(),
                before: before.clone(),
                after: record.clone(),
            },
            AuditMode::FieldCompressed => {
                // Compute which fields changed by comparing images — this is
                // exactly the "costly" ENSCRIBE audit-compression option the
                // paper contrasts with SQL's free field knowledge.
                let desc = self.descriptor(&label)?;
                let (b, a) = diff_fields(&desc, &before, &record)
                    .map_err(|e| DpError::BadRecord(e.to_string()))?;
                self.sim
                    .cpu_work(CpuLayer::DiskProcess, desc.num_fields() as u64);
                AuditBody::UpdateFields {
                    key: key.clone(),
                    before: b,
                    after: a,
                }
            }
        };
        let lsn = self.auditor.log(txn, file, body);
        store.lsn.set(lsn);
        tree.update(&key, &record).map_err(|_| DpError::NotFound)?;
        self.sim.cpu_work(CpuLayer::DiskProcess, 4);
        self.push_undo(txn, UndoOp::UpdateFull { file, key, before });
        self.checkpoint(64 + record.len());
        Ok(DpReply::Ok)
    }

    fn delete_record(&self, txn: TxnId, file: FileId, key: Vec<u8>) -> Result<DpReply, DpError> {
        let label = self.file_label(file)?;
        self.join_txn(txn);
        self.lock(
            txn,
            file,
            LockScope::record(key.clone()),
            LockMode::Exclusive,
        )?;
        let store = DpStore::new(&self.pool, &self.alloc);
        let tree = BTreeFile::open(&store, label.anchor);
        let before = tree.get(&key).ok_or(DpError::NotFound)?;
        let lsn = self.auditor.log(
            txn,
            file,
            AuditBody::Delete {
                key: key.clone(),
                before: before.clone(),
            },
        );
        store.lsn.set(lsn);
        tree.delete(&key).map_err(|_| DpError::NotFound)?;
        self.sim.cpu_work(CpuLayer::DiskProcess, 4);
        self.push_undo(txn, UndoOp::Delete { file, key, before });
        self.checkpoint(96);
        Ok(DpReply::Ok)
    }

    fn update_point(
        &self,
        txn: TxnId,
        file: FileId,
        key: Vec<u8>,
        sets: SetList,
        constraint: Option<Expr>,
    ) -> Result<DpReply, DpError> {
        let label = self.file_label(file)?;
        let desc = self.descriptor(&label)?;
        check_no_key_updates(&desc, &sets)?;
        self.join_txn(txn);
        self.lock(
            txn,
            file,
            LockScope::record(key.clone()),
            LockMode::Exclusive,
        )?;
        let store = DpStore::new(&self.pool, &self.alloc);
        let tree = BTreeFile::open(&store, label.anchor);
        let before_bytes = tree.get(&key).ok_or(DpError::NotFound)?;
        let (new_bytes, before_img, after_img) =
            apply_sets(&self.sim, &desc, &before_bytes, &sets, constraint.as_ref())?;
        let lsn = self.auditor.log(
            txn,
            file,
            AuditBody::UpdateFields {
                key: key.clone(),
                before: before_img.clone(),
                after: after_img,
            },
        );
        store.lsn.set(lsn);
        tree.update(&key, &new_bytes)
            .map_err(|_| DpError::NotFound)?;
        self.push_undo(
            txn,
            UndoOp::UpdateFields {
                file,
                key,
                before: before_img,
            },
        );
        self.checkpoint(96);
        Ok(DpReply::Ok)
    }

    fn blocked_insert(
        &self,
        txn: TxnId,
        file: FileId,
        records: Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<DpReply, DpError> {
        if records.is_empty() {
            return Ok(DpReply::Ok);
        }
        let label = self.file_label(file)?;
        self.join_txn(txn);
        // The whole target key range is locked as a group (by prior
        // agreement with the File System).
        let lo = records.first().expect("nonempty").0.clone();
        let hi = records.last().expect("nonempty").0.clone();
        self.lock(txn, file, LockScope::interval(lo, hi), LockMode::Exclusive)?;
        let store = DpStore::new(&self.pool, &self.alloc);
        let tree = BTreeFile::open(&store, label.anchor);
        let mut affected = 0u32;
        for (key, record) in records {
            let lsn = self.auditor.log(
                txn,
                file,
                AuditBody::Insert {
                    key: key.clone(),
                    record: record.clone(),
                },
            );
            store.lsn.set(lsn);
            tree.insert(&key, &record).map_err(|e| match e {
                TreeError::DuplicateKey => DpError::DuplicateKey,
                _ => DpError::BadRecord(e.to_string()),
            })?;
            self.sim.cpu_work(CpuLayer::DiskProcess, 3);
            self.push_undo(txn, UndoOp::Insert { file, key });
            affected += 1;
        }
        // Insert Control Block equivalent: let aged dirty strings go out.
        if self.config.lock().write_behind {
            self.pool.write_behind();
        }
        Ok(DpReply::Subset {
            rows: Vec::new(),
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

    /// Execute one request-message's worth of a subset operation starting
    /// at `begin`. `existing` is the SCB id on re-drives; on first
    /// executions a Subset Control Block is created when a re-drive will be
    /// needed.
    fn run_subset(
        &self,
        scb: Scb,
        begin: OwnedBound,
        existing: Option<SubsetId>,
    ) -> Result<DpReply, DpError> {
        let label = self.file_label(scb.file)?;
        let desc = self.descriptor(&label)?;
        let frec = self.file_rec(scb.file);
        if existing.is_some() {
            self.scb_rec.bump(Ctr::ScbRedrives);
        }
        if let ScbOp::Update { sets, .. } = &scb.op {
            check_no_key_updates(&desc, sets)?;
        }
        if let Some(txn) = scb.txn {
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
        // RSBB replies carry one physical block copy; VSBB virtual blocks
        // use the configured reply buffer.
        let reply_budget = match &scb.op {
            ScbOp::Read {
                mode: SubsetMode::Rsbb,
                ..
            } => self.pool.disk().block_size(),
            _ => reply_buffer,
        };
        let store = DpStore::new(&self.pool, &self.alloc);
        store.scan.set(self.scan_options());
        let tree = BTreeFile::open(&store, label.anchor);

        // Phase 1: scan, evaluating the single-variable query per record.
        let mut rows: Vec<Vec<u8>> = Vec::new();
        let mut matched: Vec<(Vec<u8>, Vec<u8>)> = Vec::new(); // update/delete candidates
        let mut first_selected: Option<Vec<u8>> = None;
        let mut reply_bytes = 0usize;
        let mut examined = 0u32;
        // Last key examined; one buffer reused across the scan.
        let mut last_key: Vec<u8> = Vec::new();
        let mut exhausted = true;
        let mut eval_error: Option<DpError> = None;
        let is_read = matches!(scb.op, ScbOp::Read { .. });
        let projection = match &scb.op {
            ScbOp::Read { projection, .. } => projection.clone(),
            _ => None,
        };

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
            self.sim.metrics.dp_records_examined.inc();
            frec.bump(Ctr::RecsExamined);
            let raw = RawRecord {
                desc: &desc,
                bytes: v,
            };
            let selected = match &scb.predicate {
                None => true,
                Some(p) => {
                    self.sim
                        .cpu_work(CpuLayer::DiskProcess, 1 + p.eval_cost() / 2);
                    match p.passes(&raw) {
                        Ok(sel) => sel,
                        Err(e) => {
                            eval_error = Some(DpError::EvalFailed(e.to_string()));
                            return ScanControl::Stop;
                        }
                    }
                }
            };
            last_key.clear();
            last_key.extend_from_slice(k);
            if selected {
                self.sim.metrics.dp_records_selected.inc();
                frec.bump(Ctr::RecsSelected);
                if first_selected.is_none() {
                    first_selected = Some(k.to_vec());
                }
                if is_read {
                    let row = match &projection {
                        None => v.to_vec(),
                        Some(fields) => match project_record(&desc, v, fields) {
                            Ok(r) => r,
                            Err(e) => {
                                eval_error = Some(e);
                                return ScanControl::Stop;
                            }
                        },
                    };
                    reply_bytes += row.len() + 2;
                    rows.push(row);
                } else {
                    matched.push((k.to_vec(), v.to_vec()));
                }
            }
            self.sim.cpu_work(CpuLayer::DiskProcess, 1);
            if reply_bytes >= reply_budget {
                exhausted = false; // full (virtual) block: re-drive
                return ScanControl::Stop;
            }
            if examined >= max_records {
                exhausted = false; // time slice expired: re-drive
                return ScanControl::Stop;
            }
            ScanControl::Continue
        });
        if let Some(e) = eval_error {
            return Err(e);
        }
        let last_key = (examined > 0).then_some(last_key);

        // Locking: a read subset with locking group-locks the span of the
        // virtual block ("the records of the virtual block are locked as a
        // group").
        if let (
            ScbOp::Read {
                lock: ReadLock::Shared,
                ..
            },
            Some(txn),
            Some(lo),
            Some(hi),
        ) = (&scb.op, scb.txn, &first_selected, &last_key)
        {
            let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            let span = LockScope::interval(lo.clone(), hi.clone());
            self.lock(txn, scb.file, span, LockMode::Shared)?;
        }

        // Phase 2 (update/delete): apply to the matched records.
        let mut affected = rows.len() as u32;
        match &scb.op {
            ScbOp::Read { .. } => {}
            ScbOp::Update { sets, constraint } => {
                let txn = scb.txn.expect("update subset requires a transaction");
                affected = 0;
                for (key, before_bytes) in &matched {
                    self.lock(
                        txn,
                        scb.file,
                        LockScope::record(key.clone()),
                        LockMode::Exclusive,
                    )?;
                    let (new_bytes, before_img, after_img) =
                        apply_sets(&self.sim, &desc, before_bytes, sets, constraint.as_ref())?;
                    let lsn = self.auditor.log(
                        txn,
                        scb.file,
                        AuditBody::UpdateFields {
                            key: key.clone(),
                            before: before_img.clone(),
                            after: after_img,
                        },
                    );
                    store.lsn.set(lsn);
                    tree.update(key, &new_bytes)
                        .map_err(|_| DpError::NotFound)?;
                    self.push_undo(
                        txn,
                        UndoOp::UpdateFields {
                            file: scb.file,
                            key: key.clone(),
                            before: before_img,
                        },
                    );
                    self.sim.cpu_work(CpuLayer::DiskProcess, 3);
                    affected += 1;
                }
            }
            ScbOp::Delete => {
                let txn = scb.txn.expect("delete subset requires a transaction");
                affected = 0;
                for (key, before_bytes) in &matched {
                    self.lock(
                        txn,
                        scb.file,
                        LockScope::record(key.clone()),
                        LockMode::Exclusive,
                    )?;
                    let lsn = self.auditor.log(
                        txn,
                        scb.file,
                        AuditBody::Delete {
                            key: key.clone(),
                            before: before_bytes.clone(),
                        },
                    );
                    store.lsn.set(lsn);
                    tree.delete(key).map_err(|_| DpError::NotFound)?;
                    self.push_undo(
                        txn,
                        UndoOp::Delete {
                            file: scb.file,
                            key: key.clone(),
                            before: before_bytes.clone(),
                        },
                    );
                    self.sim.cpu_work(CpuLayer::DiskProcess, 3);
                    affected += 1;
                }
            }
        }

        // Idle-time write-behind after set-oriented work.
        if write_behind && !is_read {
            self.pool.write_behind();
        }

        // Subset Control Block management: created at FIRST time when a
        // re-drive will be needed; re-drives keep reporting the same id.
        let subset_id = if exhausted {
            None
        } else {
            match existing {
                Some(id) => Some(id),
                None => {
                    let mut st = self.state.lock();
                    let id = st.next_subset;
                    st.next_subset += 1;
                    st.subsets.insert(id, scb);
                    self.sim.metrics.subset_control_blocks.inc();
                    self.scb_rec.bump(Ctr::ScbCreated);
                    Some(id)
                }
            }
        };

        Ok(DpReply::Subset {
            rows,
            last_key,
            done: exhausted,
            subset: subset_id,
            examined,
            affected,
        })
    }

    // ------------------------------------------------------------------
    // Buffered WHERE CURRENT (future-work extension)
    // ------------------------------------------------------------------

    /// Apply a File-System buffer of cursor updates in one message:
    /// "substantial message traffic savings in the FS-DP interface".
    fn blocked_update(
        &self,
        txn: TxnId,
        file: FileId,
        records: Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<DpReply, DpError> {
        let label = self.file_label(file)?;
        self.join_txn(txn);
        let store = DpStore::new(&self.pool, &self.alloc);
        let tree = BTreeFile::open(&store, label.anchor);
        let mut affected = 0u32;
        for (key, record) in records {
            self.lock(
                txn,
                file,
                LockScope::record(key.clone()),
                LockMode::Exclusive,
            )?;
            let before = tree.get(&key).ok_or(DpError::NotFound)?;
            let lsn = self.auditor.log(
                txn,
                file,
                AuditBody::UpdateFull {
                    key: key.clone(),
                    before: before.clone(),
                    after: record.clone(),
                },
            );
            store.lsn.set(lsn);
            tree.update(&key, &record).map_err(|_| DpError::NotFound)?;
            self.push_undo(txn, UndoOp::UpdateFull { file, key, before });
            self.sim.cpu_work(CpuLayer::DiskProcess, 3);
            affected += 1;
        }
        if self.config.lock().write_behind {
            self.pool.write_behind();
        }
        Ok(DpReply::Subset {
            rows: Vec::new(),
            last_key: None,
            done: true,
            subset: None,
            examined: affected,
            affected,
        })
    }

    /// Apply a File-System buffer of cursor deletes in one message.
    fn blocked_delete(
        &self,
        txn: TxnId,
        file: FileId,
        keys: Vec<Vec<u8>>,
    ) -> Result<DpReply, DpError> {
        let label = self.file_label(file)?;
        self.join_txn(txn);
        let store = DpStore::new(&self.pool, &self.alloc);
        let tree = BTreeFile::open(&store, label.anchor);
        let mut affected = 0u32;
        for key in keys {
            self.lock(
                txn,
                file,
                LockScope::record(key.clone()),
                LockMode::Exclusive,
            )?;
            let before = tree.get(&key).ok_or(DpError::NotFound)?;
            let lsn = self.auditor.log(
                txn,
                file,
                AuditBody::Delete {
                    key: key.clone(),
                    before: before.clone(),
                },
            );
            store.lsn.set(lsn);
            tree.delete(&key).map_err(|_| DpError::NotFound)?;
            self.push_undo(txn, UndoOp::Delete { file, key, before });
            self.sim.cpu_work(CpuLayer::DiskProcess, 3);
            affected += 1;
        }
        if self.config.lock().write_behind {
            self.pool.write_behind();
        }
        Ok(DpReply::Subset {
            rows: Vec::new(),
            last_key: None,
            done: true,
            subset: None,
            examined: affected,
            affected,
        })
    }

    // ------------------------------------------------------------------
    // Relative and entry-sequenced access methods
    // ------------------------------------------------------------------

    fn relative_slot_size(&self, label: &FileLabel) -> Result<u32, DpError> {
        match &label.kind {
            FileKind::Relative { slot_size } => Ok(*slot_size),
            FileKind::KeySequenced(_) | FileKind::EntrySequenced => Err(DpError::WrongFileKind),
        }
    }

    fn relative_write(
        &self,
        txn: TxnId,
        file: FileId,
        recnum: u64,
        record: Vec<u8>,
    ) -> Result<DpReply, DpError> {
        let label = self.file_label(file)?;
        self.relative_slot_size(&label)?;
        self.join_txn(txn);
        let key = recnum.to_be_bytes().to_vec();
        self.lock(
            txn,
            file,
            LockScope::record(key.clone()),
            LockMode::Exclusive,
        )?;
        let store = DpStore::new(&self.pool, &self.alloc);
        let rel = RelativeFile::open(&store, label.anchor);
        let before = rel.read_record(recnum).ok();
        let body = match &before {
            Some(b) => AuditBody::UpdateFull {
                key: key.clone(),
                before: b.clone(),
                after: record.clone(),
            },
            None => AuditBody::Insert {
                key: key.clone(),
                record: record.clone(),
            },
        };
        let lsn = self.auditor.log(txn, file, body);
        store.lsn.set(lsn);
        rel.write_record(recnum, &record)
            .map_err(|e| DpError::BadRecord(e.to_string()))?;
        self.sim.cpu_work(CpuLayer::DiskProcess, 3);
        match before {
            Some(b) => self.push_undo(
                txn,
                UndoOp::UpdateFull {
                    file,
                    key,
                    before: b,
                },
            ),
            None => self.push_undo(txn, UndoOp::Insert { file, key }),
        }
        self.checkpoint(64 + record.len());
        Ok(DpReply::Ok)
    }

    fn relative_read(&self, file: FileId, recnum: u64) -> Result<DpReply, DpError> {
        let label = self.file_label(file)?;
        self.relative_slot_size(&label)?;
        let store = DpStore::new(&self.pool, &self.alloc);
        let rel = RelativeFile::open(&store, label.anchor);
        self.sim.cpu_work(CpuLayer::DiskProcess, 2);
        Ok(DpReply::Record(rel.read_record(recnum).ok()))
    }

    fn relative_delete(&self, txn: TxnId, file: FileId, recnum: u64) -> Result<DpReply, DpError> {
        let label = self.file_label(file)?;
        self.relative_slot_size(&label)?;
        self.join_txn(txn);
        let key = recnum.to_be_bytes().to_vec();
        self.lock(
            txn,
            file,
            LockScope::record(key.clone()),
            LockMode::Exclusive,
        )?;
        let store = DpStore::new(&self.pool, &self.alloc);
        let rel = RelativeFile::open(&store, label.anchor);
        let before = rel.read_record(recnum).map_err(|_| DpError::NotFound)?;
        let lsn = self.auditor.log(
            txn,
            file,
            AuditBody::Delete {
                key: key.clone(),
                before: before.clone(),
            },
        );
        store.lsn.set(lsn);
        rel.delete_record(recnum).map_err(|_| DpError::NotFound)?;
        self.sim.cpu_work(CpuLayer::DiskProcess, 3);
        self.push_undo(txn, UndoOp::Delete { file, key, before });
        Ok(DpReply::Ok)
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
                let undo = self.state.lock().undo.remove(&txn);
                if !committed {
                    if let Some(ops) = undo {
                        for op in ops.into_iter().rev() {
                            self.apply_undo_op(op);
                        }
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

    fn apply_undo_op(&self, op: UndoOp) {
        match op {
            UndoOp::Insert { file, key } => {
                if let Ok(label) = self.file_label(file) {
                    self.kind_delete(&label, &key);
                }
            }
            UndoOp::Delete { file, key, before } | UndoOp::UpdateFull { file, key, before } => {
                if let Ok(label) = self.file_label(file) {
                    self.kind_put(&label, &key, &before);
                }
            }
            UndoOp::UpdateFields { file, key, before } => {
                if let Ok(label) = self.file_label(file) {
                    if let Ok(desc) = self.descriptor(&label) {
                        if let Some(cur) = self.kind_get(&label, &key) {
                            if let Ok(patched) = patch_record(&desc, &cur, &before) {
                                self.kind_put(&label, &key, &patched);
                            }
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Kind-dispatched logical apply (undo and recovery work on both
    // key-sequenced and relative files; entry-sequenced files are
    // non-audited)
    // ------------------------------------------------------------------

    fn kind_get(&self, label: &FileLabel, key: &[u8]) -> Option<Vec<u8>> {
        let store = DpStore::new(&self.pool, &self.alloc);
        match &label.kind {
            FileKind::KeySequenced(_) => BTreeFile::open(&store, label.anchor).get(key),
            FileKind::Relative { .. } => {
                let recnum = u64::from_be_bytes(key.try_into().ok()?);
                RelativeFile::open(&store, label.anchor)
                    .read_record(recnum)
                    .ok()
            }
            FileKind::EntrySequenced => None,
        }
    }

    /// Insert-or-replace, stamped with `lsn` when nonzero.
    fn kind_put_lsn(&self, label: &FileLabel, key: &[u8], bytes: &[u8], lsn: u64) {
        let store = DpStore::new(&self.pool, &self.alloc);
        store.lsn.set(lsn);
        match &label.kind {
            FileKind::KeySequenced(_) => {
                let _ = BTreeFile::open(&store, label.anchor).put(key, bytes);
            }
            FileKind::Relative { .. } => {
                if let Ok(k) = key.try_into() {
                    let recnum = u64::from_be_bytes(k);
                    let _ = RelativeFile::open(&store, label.anchor).write_record(recnum, bytes);
                }
            }
            FileKind::EntrySequenced => {}
        }
    }

    fn kind_put(&self, label: &FileLabel, key: &[u8], bytes: &[u8]) {
        self.kind_put_lsn(label, key, bytes, 0);
    }

    fn kind_delete_lsn(&self, label: &FileLabel, key: &[u8], lsn: u64) {
        let store = DpStore::new(&self.pool, &self.alloc);
        store.lsn.set(lsn);
        match &label.kind {
            FileKind::KeySequenced(_) => {
                let _ = BTreeFile::open(&store, label.anchor).delete(key);
            }
            FileKind::Relative { .. } => {
                if let Ok(k) = key.try_into() {
                    let recnum = u64::from_be_bytes(k);
                    let _ = RelativeFile::open(&store, label.anchor).delete_record(recnum);
                }
            }
            FileKind::EntrySequenced => {}
        }
    }

    fn kind_delete(&self, label: &FileLabel, key: &[u8]) {
        self.kind_delete_lsn(label, key, 0);
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
                let anchor = match &f.kind {
                    FileKind::KeySequenced(_) => BTreeFile::create(&store),
                    FileKind::Relative { slot_size } => {
                        RelativeFile::create(&store, *slot_size as usize)
                    }
                    FileKind::EntrySequenced => EntrySequencedFile::create(&store),
                };
                label.files.insert(
                    *id,
                    FileLabel {
                        id: *id,
                        kind: f.kind.clone(),
                        anchor,
                    },
                );
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

    /// Scan the durable trail and apply the REDO plan (and, when
    /// `with_undo`, the UNDO plan) for this volume. The scan is charged to
    /// [`Wait::Restart`] on the virtual clock; the replayed page I/O shows
    /// up under its own categories.
    fn replay(&self, records: &[nsql_tmf::AuditRecord], with_undo: bool) {
        self.sim.clock.advance_in(
            Wait::Restart,
            records.len() as u64 * self.sim.cost.cpu_work_unit_us,
        );
        self.rec.add(Ctr::RecoveryScanned, records.len() as u64);
        let plan = nsql_tmf::classify(records, &self.name);
        self.rec.add(Ctr::RecoveryRedo, plan.redo.len() as u64);
        for rec in &plan.redo {
            self.apply_logged(rec, true);
        }
        if with_undo {
            self.rec.add(Ctr::RecoveryUndo, plan.undo.len() as u64);
            for rec in &plan.undo {
                self.apply_logged(rec, false);
            }
        }
    }

    /// Apply one trail record in redo (`forward = true`) or undo direction.
    /// All applications are logical and idempotent, dispatched per file
    /// structure.
    fn apply_logged(&self, rec: &nsql_tmf::AuditRecord, forward: bool) {
        let Ok(label) = self.file_label(rec.file) else {
            return;
        };
        match (&rec.body, forward) {
            (AuditBody::Insert { key, record }, true) => {
                self.kind_put_lsn(&label, key, record, rec.lsn);
            }
            (AuditBody::Insert { key, .. }, false) => {
                self.kind_delete_lsn(&label, key, rec.lsn);
            }
            (AuditBody::Delete { key, .. }, true) => {
                self.kind_delete_lsn(&label, key, rec.lsn);
            }
            (AuditBody::Delete { key, before }, false) => {
                self.kind_put_lsn(&label, key, before, rec.lsn);
            }
            (AuditBody::UpdateFull { key, after, .. }, true) => {
                self.kind_put_lsn(&label, key, after, rec.lsn);
            }
            (AuditBody::UpdateFull { key, before, .. }, false) => {
                self.kind_put_lsn(&label, key, before, rec.lsn);
            }
            (AuditBody::UpdateFields { key, after, .. }, true) => {
                self.patch_logged(&label, key, after, rec.lsn);
            }
            (AuditBody::UpdateFields { key, before, .. }, false) => {
                self.patch_logged(&label, key, before, rec.lsn);
            }
            (AuditBody::Commit | AuditBody::Abort, _) => {}
        }
    }

    fn patch_logged(&self, label: &FileLabel, key: &[u8], img: &FieldImage, lsn: u64) {
        let Ok(desc) = self.descriptor(label) else {
            return;
        };
        if let Some(cur) = self.kind_get(label, key) {
            if let Ok(patched) = patch_record(&desc, &cur, img) {
                self.kind_put_lsn(label, key, &patched, lsn);
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
            self.sim.metrics.dp_dup_suppressed.inc();
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
        // Three protocols arrive here: sync-ID-carrying FS-DP requests,
        // bare FS-DP requests, and TMF end-txn calls.
        let request = match request.downcast::<protocol::SyncRequest>() {
            Ok(sreq) => {
                let sreq = *sreq;
                // The DP-side handling span attaches to the identity carried
                // in the request header, so the statement's span tree
                // survives the wire hop (and a duplicate delivery shows up
                // as a second handling span under the same request span).
                let _span = self.sim.span_enter(sreq.span, sreq.req.name(), &self.name);
                let reply = self.handle_sync(sreq.sync, sreq.req);
                let size = reply.wire_size();
                return Response::new(reply, size);
            }
            Err(original) => original,
        };
        let request = match request.downcast::<DpRequest>() {
            Ok(req) => {
                let reply = self.handle_request(*req);
                let size = reply.wire_size();
                return Response::new(reply, size);
            }
            Err(original) => original,
        };
        match request.downcast::<EndTxnRequest>() {
            Ok(req) => {
                let reply = self.handle_end_txn(*req);
                Response::new(reply, 4)
            }
            Err(_) => {
                let reply = DpReply::Error(DpError::UnknownRequest);
                let size = reply.wire_size();
                Response::new(reply, size)
            }
        }
    }
}

// ----------------------------------------------------------------------
// Field-level helpers
// ----------------------------------------------------------------------

/// Project `fields` out of an encoded record into a new encoded row.
fn project_record(
    desc: &RecordDescriptor,
    bytes: &[u8],
    fields: &[u16],
) -> Result<Vec<u8>, DpError> {
    let values: Result<Vec<Value>, _> = fields
        .iter()
        .map(|&f| extract_field(desc, bytes, f))
        .collect();
    let values = values.map_err(|e| DpError::BadRecord(e.to_string()))?;
    let pdesc = desc.project(fields);
    encode_row(&pdesc, &values).map_err(|e| DpError::BadRecord(e.to_string()))
}

/// Evaluate a SetList + constraint against a record: returns the new
/// encoded record plus field-compressed before/after images.
fn apply_sets(
    sim: &Sim,
    desc: &RecordDescriptor,
    before_bytes: &[u8],
    sets: &SetList,
    constraint: Option<&Expr>,
) -> Result<(Vec<u8>, FieldImage, FieldImage), DpError> {
    let row = decode_row(desc, before_bytes).map_err(|e| DpError::BadRecord(e.to_string()))?;
    sim.cpu_work(
        CpuLayer::DiskProcess,
        1 + sets.sets.iter().map(|(_, e)| e.eval_cost()).sum::<u64>() / 2,
    );
    let assignments = sets
        .apply(&row)
        .map_err(|e| DpError::EvalFailed(e.to_string()))?;
    let mut new_values = row.0.clone();
    let mut before_img = FieldImage::new();
    let mut after_img = FieldImage::new();
    for (f, v) in assignments {
        let ty = desc.fields[f as usize].ty;
        let coerced = ty
            .coerce(v)
            .ok_or_else(|| DpError::BadRecord(format!("value does not fit field {f}")))?;
        before_img.push((f, row.0[f as usize].clone()));
        after_img.push((f, coerced.clone()));
        new_values[f as usize] = coerced;
    }
    if let Some(c) = constraint {
        sim.cpu_work(CpuLayer::DiskProcess, 1 + c.eval_cost() / 2);
        let ok = c
            .passes(&nsql_records::SliceRow(&new_values))
            .map_err(|e| DpError::EvalFailed(e.to_string()))?;
        if !ok {
            return Err(DpError::ConstraintViolation);
        }
    }
    let new_bytes = encode_row(desc, &new_values).map_err(|e| DpError::BadRecord(e.to_string()))?;
    Ok((new_bytes, before_img, after_img))
}

/// Patch a field image onto an encoded record.
fn patch_record(
    desc: &RecordDescriptor,
    bytes: &[u8],
    img: &FieldImage,
) -> Result<Vec<u8>, DpError> {
    let mut row = decode_row(desc, bytes).map_err(|e| DpError::BadRecord(e.to_string()))?;
    for (f, v) in img {
        row.0[*f as usize] = v.clone();
    }
    encode_row(desc, &row.0).map_err(|e| DpError::BadRecord(e.to_string()))
}

/// ENSCRIBE audit-compression helper: diff two full images field by field.
fn diff_fields(
    desc: &RecordDescriptor,
    before: &[u8],
    after: &[u8],
) -> Result<(FieldImage, FieldImage), nsql_records::row::CodecError> {
    let b = decode_row(desc, before)?;
    let a = decode_row(desc, after)?;
    let mut bi = FieldImage::new();
    let mut ai = FieldImage::new();
    for (i, (vb, va)) in b.0.iter().zip(&a.0).enumerate() {
        if vb != va {
            bi.push((i as u16, vb.clone()));
            ai.push((i as u16, va.clone()));
        }
    }
    Ok((bi, ai))
}

/// Reject update expressions that assign to primary-key fields.
fn check_no_key_updates(desc: &RecordDescriptor, sets: &SetList) -> Result<(), DpError> {
    for (f, _) in &sets.sets {
        if desc.key_fields.contains(f) {
            return Err(DpError::KeyUpdateNotAllowed);
        }
    }
    Ok(())
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
