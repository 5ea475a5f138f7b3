#![warn(missing_docs)]
//! NonStop SQL reproduction — the public facade.
//!
//! A [`Cluster`] assembles the whole simulated Tandem system of the paper:
//! a message bus, the TMF audit trail and transaction manager, and one
//! [`nsql_dp::DiskProcess`] per disk volume, possibly spread over multiple
//! CPUs and nodes. [`Session`]s execute SQL (and, for baseline
//! comparisons, ENSCRIBE-style record-at-a-time access) against it.
//!
//! ```
//! use nsql_core::ClusterBuilder;
//!
//! let db = ClusterBuilder::new()
//!     .volume("$DATA1", 0, 1)
//!     .volume("$DATA2", 0, 2)
//!     .build();
//! let mut session = db.session();
//! session
//!     .execute("CREATE TABLE EMP (EMPNO INT NOT NULL, NAME CHAR(12) NOT NULL, \
//!               SALARY DOUBLE, PRIMARY KEY (EMPNO))")
//!     .unwrap();
//! session.execute("INSERT INTO EMP VALUES (1, 'BORR', 90000)").unwrap();
//! let r = session.query("SELECT NAME FROM EMP WHERE EMPNO = 1").unwrap();
//! assert_eq!(r.rows.len(), 1);
//! ```

use nsql_disk::Disk;
use nsql_dp::{DiskProcess, DpConfig, DpContext};
use nsql_fs::{FileSystem, OpenFile};
use nsql_lock::TxnId;
use nsql_msg::{Bus, CpuId};
use nsql_records::{Row, Value};
use nsql_sim::sync::{Mutex, RwLock};
use nsql_sim::{Ctr, EntityKind, Event, Histogram, Mark, MetricsSnapshot, Sim, COUNTER_NAMES};
use nsql_sql::ast::Statement;
use nsql_sql::{Catalog, Executor, OpStats, Plan, QueryResult, StatementCache, SysSnapshot};
use nsql_tmf::{CommitTimer, LsnSource, Trail, TxnManager, AUDIT_PROCESS};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

pub use nsql_dp::DpConfig as DiskProcessConfig;
pub use nsql_msg::{Fault, FaultConfig};
pub use nsql_sql::QueryResult as Rows;
pub use nsql_tmf::CommitTimer as GroupCommitTimer;

/// Errors surfaced by [`Session::execute`].
#[derive(Debug, Clone, PartialEq)]
pub struct DbError(pub String);

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DbError {}

fn db_err(e: impl std::fmt::Display) -> DbError {
    DbError(e.to_string())
}

/// `sys.locks` / `sys.lock_waiters` rendering of a lock scope: `FILE`, or
/// the hex-encoded inclusive key interval.
fn render_scope(scope: &nsql_lock::LockScope) -> String {
    match scope {
        nsql_lock::LockScope::File => "FILE".to_string(),
        nsql_lock::LockScope::KeyInterval { lo, hi } => {
            let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
            format!("{}..{}", hex(lo), hex(hi))
        }
    }
}

/// `sys.histograms` rows for one histogram: its occupied log2 buckets
/// (`KIND = 'BUCKET'`, percentile columns NULL), then one `SUMMARY` row
/// with the interpolated p50/p95/p99/p999. The summary row is emitted even
/// when the histogram is empty so every histogram is discoverable.
fn hist_rows(out: &mut Vec<Row>, name: &str, h: &Histogram) {
    for (lo, hi, count) in h.buckets() {
        out.push(Row(vec![
            Value::Str(name.to_string()),
            Value::Str("BUCKET".to_string()),
            Value::LargeInt(lo as i64),
            Value::LargeInt(hi as i64),
            Value::LargeInt(count as i64),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ]));
    }
    out.push(Row(vec![
        Value::Str(name.to_string()),
        Value::Str("SUMMARY".to_string()),
        Value::LargeInt(0),
        Value::LargeInt(h.max() as i64),
        Value::LargeInt(h.count() as i64),
        Value::LargeInt(h.percentile(0.50) as i64),
        Value::LargeInt(h.percentile(0.95) as i64),
        Value::LargeInt(h.percentile(0.99) as i64),
        Value::LargeInt(h.percentile(0.999) as i64),
    ]));
}

/// Result of one SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Rows from a SELECT.
    Rows(QueryResult),
    /// Rows affected by DML.
    Count(u64),
    /// DDL / transaction control completed.
    Done,
}

impl Outcome {
    /// Unwrap a result set.
    pub fn rows(self) -> QueryResult {
        match self {
            Outcome::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    /// Unwrap an affected-row count.
    pub fn count(self) -> u64 {
        match self {
            Outcome::Count(n) => n,
            other => panic!("expected a count, got {other:?}"),
        }
    }
}

struct VolumeSpec {
    name: String,
    cpu: CpuId,
    backup_cpu: Option<CpuId>,
    mirrored: bool,
}

/// Builds a simulated cluster.
pub struct ClusterBuilder {
    dp_config: DpConfig,
    volumes: Vec<VolumeSpec>,
    audit_cpu: CpuId,
}

impl ClusterBuilder {
    /// Start a cluster description.
    pub fn new() -> Self {
        ClusterBuilder {
            dp_config: DpConfig::default(),
            volumes: Vec::new(),
            audit_cpu: CpuId::new(0, 0),
        }
    }

    /// Override the Disk Process tunables for every volume.
    pub fn dp_config(mut self, config: DpConfig) -> Self {
        self.dp_config = config;
        self
    }

    /// Home the audit-trail Disk Process on a specific CPU.
    pub fn audit_on(mut self, node: u8, cpu: u8) -> Self {
        self.audit_cpu = CpuId::new(node, cpu);
        self
    }

    /// Add a mirrored disk volume managed by a Disk Process on
    /// `(node, cpu)`.
    pub fn volume(mut self, name: &str, node: u8, cpu: u8) -> Self {
        self.volumes.push(VolumeSpec {
            name: name.to_string(),
            cpu: CpuId::new(node, cpu),
            backup_cpu: None,
            mirrored: true,
        });
        self
    }

    /// Add an **unmirrored** volume: a single-drive failure is a media
    /// failure, recoverable only by rebuilding from the audit trail
    /// ([`Cluster::media_recover`]).
    pub fn volume_unmirrored(mut self, name: &str, node: u8, cpu: u8) -> Self {
        self.volumes.push(VolumeSpec {
            name: name.to_string(),
            cpu: CpuId::new(node, cpu),
            backup_cpu: None,
            mirrored: false,
        });
        self
    }

    /// Add a volume whose Disk Process restarts on `(backup_node,
    /// backup_cpu)` when its own CPU fails: the File System's path switch
    /// reopens the volume there and recovers it from the audit trail, and
    /// a later failure there moves it back. No backup process runs and
    /// nothing is checkpointed, so until a takeover such a volume costs
    /// exactly what [`Self::volume`] does.
    pub fn volume_with_backup(
        mut self,
        name: &str,
        node: u8,
        cpu: u8,
        backup_node: u8,
        backup_cpu: u8,
    ) -> Self {
        self.volumes.push(VolumeSpec {
            name: name.to_string(),
            cpu: CpuId::new(node, cpu),
            backup_cpu: Some(CpuId::new(backup_node, backup_cpu)),
            mirrored: true,
        });
        self
    }

    /// Assemble the cluster.
    pub fn build(self) -> Cluster {
        let sim = Sim::new();
        let bus = Bus::new(sim.clone());
        let lsns = LsnSource::new();
        let trail = Trail::new(sim.clone(), Arc::clone(&lsns), CommitTimer::default());
        bus.register(AUDIT_PROCESS, self.audit_cpu, trail.clone());
        let txnmgr = TxnManager::new(sim.clone(), Arc::clone(&bus));
        let ctx = DpContext {
            sim: sim.clone(),
            bus: Arc::clone(&bus),
            trail: Arc::clone(&trail),
            txnmgr: Arc::clone(&txnmgr),
            lsns,
        };
        let mut dps = HashMap::new();
        let mut disks = HashMap::new();
        let mut pair_cpus = HashMap::new();
        let mut default_volume = None;
        for spec in &self.volumes {
            let disk = Disk::new(sim.clone(), spec.name.clone(), spec.mirrored);
            if let Some(bcpu) = spec.backup_cpu {
                pair_cpus.insert(spec.name.clone(), (spec.cpu, bcpu));
            }
            let config = self.dp_config.clone();
            let dp = DiskProcess::format(&ctx, &spec.name, spec.cpu, Arc::clone(&disk), config);
            dps.insert(spec.name.clone(), dp);
            disks.insert(spec.name.clone(), disk);
            default_volume.get_or_insert_with(|| spec.name.clone());
        }
        let catalog = Catalog::new(default_volume.unwrap_or_else(|| "$DATA1".into()));
        let dps = Arc::new(DiskProcesses {
            ctx,
            by_volume: RwLock::new(dps),
            disks,
        });
        // The File System's path-switch hook: when a retry hits a down CPU,
        // the bus asks the cluster to re-resolve the volume's primary. If
        // the volume was given a backup CPU, it restarts there and the
        // retry proceeds against the restarted Disk Process.
        {
            let (dps, hook_bus) = (Arc::clone(&dps), Arc::clone(&bus));
            bus.set_path_switch(Arc::new(move |name: &str| {
                let Some(old) = dps.get(name) else {
                    return false;
                };
                if !hook_bus.cpu_is_down(old.cpu()) {
                    // Primary is healthy; nothing to switch.
                    return false;
                }
                let Some(&(primary, backup)) = pair_cpus.get(name) else {
                    return false;
                };
                // Fail over to the pair's other CPU. A CPU that failed
                // earlier is assumed reloaded by the time the pair fails
                // back to it (Tandem operations reload failed CPUs), so
                // repeated crashes ping-pong within the pair.
                let to = if old.cpu() == primary {
                    backup
                } else {
                    primary
                };
                if hook_bus.cpu_is_down(to) {
                    hook_bus.revive_cpu(to);
                }
                dps.replace(name, &old, to);
                true
            }));
        }
        Cluster {
            sim,
            bus,
            trail,
            txnmgr,
            catalog,
            statements: StatementCache::default(),
            dps,
            audit_cpu: self.audit_cpu,
            sort_parallelism: std::sync::atomic::AtomicU32::new(1),
            sessions: Mutex::new(BTreeMap::new()),
            next_session: AtomicU64::new(1),
        }
    }
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Every volume's disk and the Disk Process serving it: what the cluster
/// and the path-switch hook share, so that both replace a Disk Process the
/// one way.
struct DiskProcesses {
    ctx: DpContext,
    by_volume: RwLock<HashMap<String, Arc<DiskProcess>>>,
    disks: HashMap<String, Arc<Disk>>,
}

impl DiskProcesses {
    /// The Disk Process currently serving `volume`.
    fn get(&self, volume: &str) -> Option<Arc<DiskProcess>> {
        self.by_volume.read().get(volume).map(Arc::clone)
    }

    /// Crash `old`, the Disk Process serving `volume`, and open the volume
    /// again on `cpu` with its configuration, its armed lock-wait timeout
    /// and its audit send threshold; the new process recovers from the
    /// durable audit trail before it serves a request.
    fn replace(&self, volume: &str, old: &DiskProcess, cpu: CpuId) {
        old.crash();
        let disk = Arc::clone(&self.disks[volume]);
        let new_dp = DiskProcess::open(&self.ctx, volume, cpu, disk, old.config.clone());
        new_dp.locks.set_wait_timeout(old.locks.wait_timeout());
        new_dp.set_audit_send_threshold(old.audit_send_threshold());
        new_dp.recover();
        self.by_volume.write().insert(volume.to_string(), new_dp);
    }
}

/// A running simulated cluster: the "database".
pub struct Cluster {
    /// Simulation context (clock, cost model, metrics).
    pub sim: Sim,
    /// The message system.
    pub bus: Arc<Bus>,
    /// The audit-trail Disk Process.
    pub trail: Arc<Trail>,
    /// The transaction manager.
    pub txnmgr: Arc<TxnManager>,
    /// The SQL catalog.
    pub catalog: Arc<Catalog>,
    /// One template per statement shape, behind every session's `execute`.
    statements: StatementCache,
    dps: Arc<DiskProcesses>,
    /// CPU the audit-trail Disk Process is homed on.
    audit_cpu: CpuId,
    sort_parallelism: std::sync::atomic::AtomicU32,
    /// Registry behind `sys.sessions`: every session ever opened, by id.
    sessions: Mutex<BTreeMap<u64, SessionInfo>>,
    next_session: AtomicU64,
}

/// One session's `sys.sessions` row.
#[derive(Debug, Clone)]
struct SessionInfo {
    cpu: String,
    statements: u64,
    txn: Option<TxnId>,
    open: bool,
}

impl Cluster {
    /// A single-node, single-volume cluster (quick starts and tests).
    pub fn single_volume() -> Cluster {
        ClusterBuilder::new().volume("$DATA1", 0, 1).build()
    }

    /// Open a session homed on node 0, CPU 0.
    pub fn session(&self) -> Session<'_> {
        self.session_on(0, 0)
    }

    /// Open a session homed on a specific CPU (message locality follows).
    pub fn session_on(&self, node: u8, cpu: u8) -> Session<'_> {
        let cpu = CpuId::new(node, cpu);
        let id = self
            .next_session
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.sessions.lock().insert(
            id,
            SessionInfo {
                cpu: cpu.to_string(),
                statements: 0,
                txn: None,
                open: true,
            },
        );
        Session {
            cluster: self,
            fs: FileSystem::new(self.sim.clone(), Arc::clone(&self.bus), cpu),
            cpu,
            id,
            txn: None,
            last_stats: None,
        }
    }

    fn session_update(&self, id: u64, f: impl FnOnce(&mut SessionInfo)) {
        if let Some(info) = self.sessions.lock().get_mut(&id) {
            f(info);
        }
    }

    /// Snapshot all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.sim.metrics.snapshot()
    }

    /// Re-bound the live trace ring (`sys.trace` reports the bound and the
    /// resulting drop count). Shrinking evicts oldest events into the
    /// dropped tally, exactly as organic overflow would.
    pub fn set_trace_capacity(&self, capacity: usize) {
        self.sim.trace.set_capacity(capacity);
    }

    /// Materialise the `sys.*` virtual tables: one coherent, read-only view
    /// of the cluster's own telemetry, captured between planning and
    /// execution of the statement that reads it.
    ///
    /// Capture is mutex/atomic reads only — it advances no virtual clock and
    /// bumps no counter — so self-observation is idempotent: two
    /// back-to-back `SELECT * FROM sys.counters` statements differ exactly
    /// by the first statement's own cost.
    pub fn sys_snapshot(&self) -> SysSnapshot {
        let mut snap = SysSnapshot::default();
        let sim = &self.sim;

        // sys.counters: every non-zero MEASURE counter of every entity.
        for (kind, name, vals) in sim.measure_snapshot().iter() {
            for (ci, &v) in vals.iter().enumerate() {
                if v > 0 {
                    snap.counters.push(Row(vec![
                        Value::Str(kind.tag().to_string()),
                        Value::Str(name.to_string()),
                        Value::Str(COUNTER_NAMES[ci].to_string()),
                        Value::LargeInt(v as i64),
                    ]));
                }
            }
        }

        // sys.waits: the attributed-clock ledger, one row per category.
        for (w, us) in sim.wait_profile().iter() {
            snap.waits.push(Row(vec![
                Value::Str(w.name().to_string()),
                Value::LargeInt(us as i64),
            ]));
        }

        // sys.locks / sys.lock_waiters: per volume, in grant / FIFO order.
        for vol in self.volumes() {
            let dp = self.dp(&vol);
            for l in dp.locks.held() {
                snap.locks.push(Row(vec![
                    Value::Str(vol.clone()),
                    Value::LargeInt(l.txn.0 as i64),
                    Value::LargeInt(l.file as i64),
                    Value::Str(format!("{:?}", l.mode)),
                    Value::Str(render_scope(&l.scope)),
                ]));
            }
            for (pos, w) in dp.locks.waiters().iter().enumerate() {
                snap.lock_waiters.push(Row(vec![
                    Value::Str(vol.clone()),
                    Value::LargeInt(pos as i64),
                    Value::LargeInt(w.txn.0 as i64),
                    Value::LargeInt(w.file as i64),
                    Value::Str(format!("{:?}", w.mode)),
                    Value::Str(render_scope(&w.scope)),
                    Value::LargeInt(w.since as i64),
                ]));
            }
        }

        // sys.histograms: log2 buckets plus an interpolated summary row.
        hist_rows(&mut snap.histograms, "MSG_BYTES", &sim.hist.msg_bytes);
        hist_rows(
            &mut snap.histograms,
            "STMT_LATENCY_US",
            &sim.hist.stmt_latency_us,
        );
        hist_rows(&mut snap.histograms, "COMMIT_GROUP", &sim.hist.commit_group);
        hist_rows(
            &mut snap.histograms,
            "REDRIVE_CHAIN",
            &sim.hist.redrive_chain,
        );
        for (w, h) in nsql_sim::WAIT_CATEGORIES
            .iter()
            .zip(sim.hist.stmt_wait_us.iter())
        {
            hist_rows(
                &mut snap.histograms,
                &format!("STMT_WAIT_{}", w.short().to_ascii_uppercase()),
                h,
            );
        }

        // sys.trace: a companion row carrying ring capacity + drop count,
        // then the surviving events in sequence order.
        snap.trace.push(Row(vec![
            Value::LargeInt(-1),
            Value::LargeInt(0),
            Value::Str("RING".to_string()),
            Value::Str(format!(
                "capacity={} dropped={} enabled={}",
                sim.trace.capacity(),
                sim.trace.dropped(),
                sim.trace.is_enabled(),
            )),
        ]));
        for e in sim.trace.events() {
            snap.trace.push(Row(vec![
                Value::LargeInt(e.seq as i64),
                Value::LargeInt(e.at as i64),
                Value::Str(e.kind.describe().variant.to_string()),
                Value::Str(format!("{:?}", e.kind)),
            ]));
        }

        // sys.sessions: the registry, by id.
        for (id, info) in self.sessions.lock().iter() {
            snap.sessions.push(Row(vec![
                Value::LargeInt(*id as i64),
                Value::Str(info.cpu.clone()),
                Value::LargeInt(info.statements as i64),
                match info.txn {
                    Some(t) => Value::LargeInt(t.0 as i64),
                    None => Value::Null,
                },
                Value::LargeInt(info.open as i64),
            ]));
        }

        // sys.txns: everything the transaction manager still remembers.
        for (id, state, doomed, parts) in self.txnmgr.snapshot() {
            snap.txns.push(Row(vec![
                Value::LargeInt(id.0 as i64),
                Value::Str(format!("{state:?}")),
                Value::LargeInt(doomed as i64),
                Value::Str(parts.join(",")),
            ]));
        }

        snap
    }

    /// The Disk Process currently serving `volume`.
    pub fn dp(&self, volume: &str) -> Arc<DiskProcess> {
        self.dps
            .get(volume)
            .unwrap_or_else(|| panic!("no volume {volume}"))
    }

    /// The disk behind `volume`.
    pub fn disk(&self, volume: &str) -> Arc<Disk> {
        Arc::clone(&self.dps.disks[volume])
    }

    /// Volume names, sorted.
    pub fn volumes(&self) -> Vec<String> {
        let mut v: Vec<String> = self.dps.by_volume.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Arm the lock-wait timeout on every volume's Disk Process: waiters
    /// older than `us` virtual microseconds are doomed with a typed
    /// lock-timeout error instead of queueing forever (`0` disarms).
    pub fn set_lock_wait_timeout(&self, us: u64) {
        for dp in self.dps.by_volume.read().values() {
            dp.locks.set_wait_timeout(us);
        }
    }

    /// Arm the deterministic fault plane: subsequent FS-DP exchanges are
    /// subject to the seeded drop/duplicate/delay/error schedule in `cfg`.
    pub fn enable_faults(&self, cfg: FaultConfig) {
        self.bus.enable_faults(cfg);
    }

    /// Disarm the fault plane; message exchanges behave normally again.
    pub fn disable_faults(&self) {
        self.bus.disable_faults();
    }

    /// Fault injection: crash `volume`'s Disk Process (losing its cache and
    /// in-flight state) and fail its CPU; a new Disk Process takes over on
    /// `(node, cpu)` after recovering from the audit trail.
    pub fn takeover(&self, volume: &str, node: u8, cpu: u8) {
        let old = self.dp(volume);
        self.bus.fail_cpu(old.cpu());
        self.dps.replace(volume, &old, CpuId::new(node, cpu));
    }

    /// Current FastSort parallelism for ORDER BY.
    pub fn sort_parallelism(&self) -> u32 {
        self.sort_parallelism
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The paper's "user option which directs the SQL compiler to cause the
    /// invocation at execution time of the parallel sorter, FastSort, which
    /// uses multiple processors": set ORDER BY parallelism for all sessions.
    pub fn set_sort_parallelism(&self, ways: u32) {
        self.sort_parallelism
            .store(ways.max(1), std::sync::atomic::Ordering::Relaxed);
    }

    /// The processor-global memory manager's handshake with a volume's
    /// Disk Process: clean dirty buffers (write-behind, WAL-respecting) and
    /// steal up to `frames` clean ones for higher-priority use. Returns the
    /// number of frames stolen.
    pub fn memory_pressure(&self, volume: &str, frames: usize) -> usize {
        let dp = self.dp(volume);
        dp.pool().clean_dirty();
        dp.pool().steal_clean(frames)
    }

    /// Fault injection: crash every Disk Process and the trail's unflushed
    /// buffer (a total power failure), then restart and recover each
    /// volume in place.
    pub fn crash_and_recover_all(&self) {
        self.trail.crash();
        let names = self.volumes();
        for name in &names {
            self.restart_volume(name);
        }
    }

    /// Fault injection: crash one **CPU** and restart everything that was
    /// homed on it, in place.
    ///
    /// Crashing discards all volatile state on the CPU: for each of its
    /// Disk Processes the store pages cached in the buffer pool, the
    /// Subset Control Blocks, the reply cache, the lock table and the
    /// per-transaction undo lists (in-flight transactions are doomed);
    /// when the audit-trail process is homed there, the trail's unflushed
    /// buffer is lost too, and an audit write caught mid-transfer leaves
    /// a **torn tail** that is truncated back to the last whole,
    /// checksum-verified record. Each lost Disk Process is then reopened
    /// on the same CPU and replays the durable prefix of the trail — REDO
    /// for committed transactions, UNDO for in-flight ones — leaving the
    /// volume exactly at its committed pre-crash state.
    pub fn crash_and_restart(&self, node: u8, cpu: u8) {
        let cpu = CpuId::new(node, cpu);
        if self.audit_cpu == cpu {
            self.trail.crash();
            // Every in-flight transaction lost its buffered undo/redo
            // audit with the trail buffer: doom each one and back it out
            // through the (surviving) Disk Processes now, before any of
            // its unprotected volatile updates can reach disk.
            for txn in self.txnmgr.active() {
                self.txnmgr.doom(txn);
                let _ = self.txnmgr.abort(txn, cpu);
            }
        }
        let names = self.volumes();
        for name in &names {
            if self.dp(name).cpu() == cpu {
                self.restart_volume(name);
            }
        }
    }

    /// Crash and reopen one volume's Disk Process in place, recovering
    /// from the durable audit trail.
    fn restart_volume(&self, name: &str) {
        let old = self.dp(name);
        self.dps.replace(name, &old, old.cpu());
    }

    /// Media recovery: replace `volume`'s failed drive(s) and bring the
    /// contents back.
    ///
    /// When a mirrored half survived, the replacement is rebuilt by a
    /// cost-modelled copy-back re-mirror ([`nsql_disk::Disk::repair_drive`])
    /// and the Disk Process is untouched. When the media is wholly dead
    /// (an unmirrored volume, or both halves lost), the drive comes back
    /// *empty* and the Disk Process rebuilds the volume by REDO of the
    /// entire durable audit trail. Committed changes are redone onto the
    /// fresh store; in-flight transactions' changes never reached it, so
    /// nothing is undone.
    pub fn media_recover(&self, volume: &str) -> Result<(), DbError> {
        let disk = self.disk(volume);
        let survivor = disk.media_alive();
        for half in disk.dead_drives() {
            disk.repair_drive(half);
        }
        if survivor {
            return Ok(());
        }
        self.dp(volume).media_recover().map_err(db_err)
    }
}

/// The bus, the processes registered on it and the path-switch hook hold
/// each other through `Arc` cycles; taking them off the bus breaks the
/// cycles, so a dropped cluster frees its memory.
impl Drop for Cluster {
    fn drop(&mut self) {
        self.bus.set_path_switch(Arc::new(|_| false));
        for volume in self.volumes() {
            self.bus.deregister(&volume);
        }
        self.bus.deregister(AUDIT_PROCESS);
    }
}

/// What one statement cost: the statement's measurement window — counter
/// deltas, the virtual time it took and its exact wait decomposition, the
/// per-entity MEASURE deltas and (when tracing is enabled) the trace events
/// it produced.
pub use nsql_sim::Window as QueryStats;

/// One application session: SQL entry point plus the underlying File
/// System for ENSCRIBE-style access.
pub struct Session<'a> {
    cluster: &'a Cluster,
    fs: FileSystem,
    cpu: CpuId,
    /// Registry id behind this session's `sys.sessions` row.
    id: u64,
    txn: Option<TxnId>,
    last_stats: Option<QueryStats>,
}

impl Session<'_> {
    /// The session's File System (for ENSCRIBE access and experiments).
    pub fn fs(&self) -> &FileSystem {
        &self.fs
    }

    /// The CPU this session runs on.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// The enclosing cluster.
    pub fn cluster(&self) -> &Cluster {
        self.cluster
    }

    /// Is an explicit transaction open?
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// The open transaction, if any.
    pub fn current_txn(&self) -> Option<TxnId> {
        self.txn
    }

    /// Open-file metadata for a table (ENSCRIBE-style access).
    pub fn open_table(&self, name: &str) -> Result<OpenFile, DbError> {
        Ok(self.cluster.catalog.table(name).map_err(db_err)?.open)
    }

    /// Begin an explicit transaction (like `BEGIN WORK`).
    pub fn begin(&mut self) -> Result<TxnId, DbError> {
        if self.txn.is_some() {
            return Err(DbError("transaction already open".into()));
        }
        let t = self.cluster.txnmgr.begin();
        self.txn = Some(t);
        self.cluster.session_update(self.id, |i| i.txn = Some(t));
        Ok(t)
    }

    /// Commit the open transaction.
    pub fn commit(&mut self) -> Result<(), DbError> {
        let t = self
            .txn
            .take()
            .ok_or(DbError("no open transaction".into()))?;
        self.cluster.session_update(self.id, |i| i.txn = None);
        self.cluster.txnmgr.commit(t, self.cpu).map_err(db_err)
    }

    /// Roll back the open transaction.
    pub fn rollback(&mut self) -> Result<(), DbError> {
        let t = self
            .txn
            .take()
            .ok_or(DbError("no open transaction".into()))?;
        self.cluster.session_update(self.id, |i| i.txn = None);
        self.cluster.txnmgr.abort(t, self.cpu).map_err(db_err)
    }

    /// Execute one SQL statement. DML outside an explicit transaction
    /// autocommits; inside one, effects become permanent at `COMMIT WORK`.
    ///
    /// The statement's cost (counter delta, virtual time, trace slice) is
    /// captured and available from [`Session::last_stats`] afterwards.
    pub fn execute(&mut self, sql: &str) -> Result<Outcome, DbError> {
        self.cluster.session_update(self.id, |i| i.statements += 1);
        let sim = &self.cluster.sim;
        let mark = sim.mark();
        // The statement's root span: every FS-DP request span opened while
        // it runs becomes a child, so the trace assembles into one tree per
        // statement.
        let cpu = self.cpu;
        let span = sim.span_root(stmt_label(sql), &cpu);
        let out = self.execute_inner(sql, &mark);
        drop(span);
        // The window's ledger delta decomposes its elapsed time exactly —
        // the clock only moves through attributed advances.
        let stats = mark.close(sim);
        sim.emit(&sim.cluster, Event::Statement(&stats));
        self.last_stats = Some(stats);
        out
    }

    /// Cost of the most recently executed statement.
    pub fn last_stats(&self) -> Option<&QueryStats> {
        self.last_stats.as_ref()
    }

    fn execute_inner(&mut self, sql: &str, mark: &Mark) -> Result<Outcome, DbError> {
        let planned = self
            .cluster
            .statements
            .plan(&self.cluster.catalog, sql)
            .map_err(db_err)?;
        // Coherence point for sys.* reads: one snapshot, captured between
        // planning and execution, serves every virtual scan of the
        // statement (capture is pure reads — no clock, no counters).
        let snap = planned
            .references_sys()
            .then(|| self.cluster.sys_snapshot());
        let exec = Executor {
            fs: &self.fs,
            catalog: &self.cluster.catalog,
            sort_parallelism: self.cluster.sort_parallelism(),
            sys: snap.as_ref(),
        };
        match planned {
            Plan::Explain(inner) => {
                let lines = nsql_sql::plan::describe(&inner);
                Ok(Outcome::Rows(QueryResult {
                    columns: vec!["PLAN".into()],
                    rows: lines
                        .into_iter()
                        .map(|l| nsql_records::Row(vec![nsql_records::Value::Str(l)]))
                        .collect(),
                }))
            }
            Plan::ExplainAnalyze(inner) => {
                // Parsing, planning and the sys.* capture move neither
                // clock nor counters, so the statement's own window,
                // closed here, is exactly the analyzed plan's.
                let stats = self.analyze(&exec, *inner)?;
                let window = mark.close(&self.cluster.sim);
                Ok(Outcome::Rows(analyze_result(&stats, &window)))
            }
            Plan::Select(p) => {
                let r = exec.select(&p, self.txn).map_err(db_err)?;
                Ok(Outcome::Rows(r))
            }
            Plan::Insert(p) => self.dml(|txn| exec.insert(&p, txn).map_err(db_err)),
            Plan::Update(p) => self.dml(|txn| exec.update(&p, txn).map_err(db_err)),
            Plan::Delete(p) => self.dml(|txn| exec.delete(&p, txn).map_err(db_err)),
            Plan::Passthrough(stmt) => match stmt {
                Statement::Begin => {
                    self.begin()?;
                    Ok(Outcome::Done)
                }
                Statement::Commit => {
                    self.commit()?;
                    Ok(Outcome::Done)
                }
                Statement::Rollback => {
                    self.rollback()?;
                    Ok(Outcome::Done)
                }
                Statement::CreateTable(t) => {
                    self.cluster
                        .catalog
                        .create_table(&self.fs, &t)
                        .map_err(db_err)?;
                    Ok(Outcome::Done)
                }
                Statement::CreateIndex(ci) => {
                    // Index creation runs in its own transaction.
                    let txn = self.cluster.txnmgr.begin();
                    match self.cluster.catalog.create_index(&self.fs, txn, &ci) {
                        Ok(()) => {
                            self.cluster.txnmgr.commit(txn, self.cpu).map_err(db_err)?;
                            Ok(Outcome::Done)
                        }
                        Err(e) => {
                            let _ = self.cluster.txnmgr.abort(txn, self.cpu);
                            Err(db_err(e))
                        }
                    }
                }
                Statement::DropTable(t) => {
                    self.cluster.catalog.drop_table(&t).map_err(db_err)?;
                    Ok(Outcome::Done)
                }
                other => Err(DbError(format!("cannot execute {other:?}"))),
            },
        }
    }

    /// Execute and unwrap a SELECT.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        match self.execute(sql)? {
            Outcome::Rows(r) => Ok(r),
            other => Err(DbError(format!("expected rows, got {other:?}"))),
        }
    }

    /// Execute the wrapped plan of an `EXPLAIN ANALYZE`, collecting one
    /// [`OpStats`] per operator. DML is measured as a single operator plus,
    /// outside an explicit transaction, a COMMIT operator — so the stages
    /// stay contiguous and their message counts sum to the global delta.
    fn analyze(&self, exec: &Executor<'_>, planned: Plan) -> Result<Vec<OpStats>, DbError> {
        let sim = &self.cluster.sim;
        let dml = |run: &dyn Fn(TxnId) -> Result<u64, DbError>| {
            let label = nsql_sql::plan::describe(&planned).join("; ");
            let statement = |txn| {
                let mark = sim.mark();
                let n = run(txn)?;
                Ok(OpStats::close(label, n, &mark, sim))
            };
            let mut commit_op = None;
            let commit = |txn| {
                let mark = sim.mark();
                self.cluster.txnmgr.commit(txn, self.cpu).map_err(db_err)?;
                commit_op = Some(OpStats::close("COMMIT".into(), 0, &mark, sim));
                Ok(())
            };
            let op = self.autocommit(statement, commit)?;
            Ok(std::iter::once(op).chain(commit_op).collect())
        };
        match &planned {
            Plan::Select(p) => {
                let (_, stats) = exec.select_analyzed(p, self.txn).map_err(db_err)?;
                Ok(stats)
            }
            Plan::Insert(p) => dml(&|txn| exec.insert(p, txn).map_err(db_err)),
            Plan::Update(p) => dml(&|txn| exec.update(p, txn).map_err(db_err)),
            Plan::Delete(p) => dml(&|txn| exec.delete(p, txn).map_err(db_err)),
            _ => Err(DbError(
                "EXPLAIN ANALYZE supports SELECT, INSERT, UPDATE and DELETE".into(),
            )),
        }
    }

    fn dml<F: FnOnce(TxnId) -> Result<u64, DbError>>(&self, f: F) -> Result<Outcome, DbError> {
        let commit = |txn| self.cluster.txnmgr.commit(txn, self.cpu).map_err(db_err);
        self.autocommit(f, commit).map(Outcome::Count)
    }

    /// Run `f` in the session's transaction or, outside one, in a
    /// transaction of its own that `commit` commits once `f` succeeds and
    /// that is aborted if `f` fails. Inside an explicit transaction a failed
    /// statement leaves the transaction open; the caller decides to roll
    /// back.
    fn autocommit<T>(
        &self,
        f: impl FnOnce(TxnId) -> Result<T, DbError>,
        commit: impl FnOnce(TxnId) -> Result<(), DbError>,
    ) -> Result<T, DbError> {
        match self.txn {
            Some(txn) => f(txn),
            None => {
                let txn = self.cluster.txnmgr.begin();
                match f(txn) {
                    Ok(done) => commit(txn).map(|()| done),
                    Err(e) => {
                        let _ = self.cluster.txnmgr.abort(txn, self.cpu);
                        Err(e)
                    }
                }
            }
        }
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        // The registry keeps the row (history is part of the telemetry);
        // `sys.sessions.OPEN` flips to 0.
        self.cluster.session_update(self.id, |i| {
            i.open = false;
            i.txn = None;
        });
    }
}

/// Root-span label for a statement: its leading keyword, uppercased.
fn stmt_label(sql: &str) -> &'static str {
    const LABELS: [&str; 10] = [
        "SELECT", "INSERT", "UPDATE", "DELETE", "EXPLAIN", "BEGIN", "COMMIT", "ROLLBACK", "CREATE",
        "DROP",
    ];
    let kw = sql.split_whitespace().next().unwrap_or("");
    LABELS
        .into_iter()
        .find(|label| label.eq_ignore_ascii_case(kw))
        .unwrap_or("STATEMENT")
}

/// Render per-operator statistics as the EXPLAIN ANALYZE result set,
/// followed by the statement's per-entity MEASURE breakdown (`@kind name`
/// rows: records examined, messages received, disk I/O per entity), a
/// `WAIT <category>` row per wait category plus a `WAIT TOTAL` row (the
/// critical-path decomposition; the categories sum exactly — no tolerance —
/// to the measured window's elapsed virtual time) and — whenever the trace
/// ring overflowed — a `TRACE DROPPED` row so bounded tracing never
/// silently truncates.
fn analyze_result(stats: &[OpStats], window: &QueryStats) -> QueryResult {
    use nsql_records::{Row, Value};
    let (measure, wait, window_us) = (&window.measure, &window.wait, window.elapsed_us);
    let mut rows = Vec::with_capacity(stats.len() + 1 + measure.snap.iter().len());
    let (mut msgs, mut reads, mut writes, mut elapsed) = (0u64, 0u64, 0u64, 0u64);
    for s in stats {
        msgs += s.msgs_fs_dp;
        reads += s.disk_reads;
        writes += s.disk_writes;
        elapsed += s.elapsed_us;
        rows.push(Row(vec![
            Value::Str(s.label.clone()),
            Value::LargeInt(s.rows as i64),
            Value::LargeInt(s.msgs_fs_dp as i64),
            Value::LargeInt(s.disk_reads as i64),
            Value::LargeInt(s.disk_writes as i64),
            Value::LargeInt(s.elapsed_us as i64),
        ]));
    }
    let out_rows = stats.last().map_or(0, |s| s.rows);
    rows.push(Row(vec![
        Value::Str("TOTAL".into()),
        Value::LargeInt(out_rows as i64),
        Value::LargeInt(msgs as i64),
        Value::LargeInt(reads as i64),
        Value::LargeInt(writes as i64),
        Value::LargeInt(elapsed as i64),
    ]));
    for (kind, name, vals) in measure.snap.iter() {
        // The cluster's own record is not a part of the breakdown.
        if kind == EntityKind::Cluster || vals.iter().all(|&v| v == 0) {
            continue;
        }
        let get = |c: Ctr| vals[c as usize];
        rows.push(Row(vec![
            Value::Str(format!("@{} {}", kind.tag(), name)),
            Value::LargeInt(get(Ctr::RecsExamined) as i64),
            Value::LargeInt(get(Ctr::MsgsRecv) as i64),
            Value::LargeInt(get(Ctr::DiskReads) as i64),
            Value::LargeInt(get(Ctr::DiskWrites) as i64),
            Value::LargeInt(0),
        ]));
    }
    for (w, us) in wait.iter() {
        rows.push(Row(vec![
            Value::Str(format!("WAIT {}", w.short())),
            Value::LargeInt(0),
            Value::LargeInt(0),
            Value::LargeInt(0),
            Value::LargeInt(0),
            Value::LargeInt(us as i64),
        ]));
    }
    debug_assert_eq!(wait.total(), window_us, "wait categories must sum exactly");
    rows.push(Row(vec![
        Value::Str("WAIT TOTAL".into()),
        Value::LargeInt(0),
        Value::LargeInt(0),
        Value::LargeInt(0),
        Value::LargeInt(0),
        Value::LargeInt(window_us as i64),
    ]));
    if measure.trace_dropped > 0 {
        rows.push(Row(vec![
            Value::Str("TRACE DROPPED".into()),
            Value::LargeInt(measure.trace_dropped as i64),
            Value::LargeInt(0),
            Value::LargeInt(0),
            Value::LargeInt(0),
            Value::LargeInt(0),
        ]));
    }
    QueryResult {
        columns: vec![
            "OPERATOR".into(),
            "ROWS".into(),
            "MSGS FS-DP".into(),
            "DISK READS".into(),
            "DISK WRITES".into(),
            "ELAPSED US".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests;
