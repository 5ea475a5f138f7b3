//! MEASURE-style per-entity counters and the crash flight recorder.
//!
//! Tandem's published numbers came from the MEASURE subsystem: always-on
//! counter *records* attached to every interesting entity — CPUs, processes,
//! open files, disk volumes, caches, SCBs, transactions — cheap enough to
//! leave running in production and precise enough to argue message-count
//! claims from. This module reproduces that layer for the simulation:
//!
//! * [`MeasureRecord`] — an entity's identity, a fixed array of relaxed
//!   atomic counters (one slot per [`Ctr`]) and its flight ring. Components
//!   hold an `Arc` to their record from construction, so a steady-state bump
//!   is a single relaxed `fetch_add`. This is the only counter store: a
//!   cluster total is the sum the table in [`crate::metrics`] names.
//! * [`MeasureRegistry`] — `(EntityKind, name) → Arc<MeasureRecord>`, kept
//!   sorted so snapshots and reports iterate deterministically.
//! * [`MeasureReport`] — an interval snapshot (plus the trace ring's dropped
//!   count, so truncation is never silent) rendered as aligned text or JSON.
//! * [`FlightRecorder`] — the store of postmortems: a process's small
//!   always-on ring of recent activity (kept on its own record, fed by
//!   [`crate::Sim::emit`]) is dumped together with a full counter snapshot
//!   when the fault plane kills a CPU, TMF dooms a transaction, or a typed
//!   FS error surfaces. Dumps are deterministic per seed, so chaos tests can
//!   assert on the postmortem itself.
//!
//! Counter field names are dotted lowercase (`msgs.sent`, `cache.hits`) and
//! spelled only here: everywhere else a counter is the typed [`Ctr`], and a
//! dotted literal outside `crates/sim` fails `nsql-lint check` the same way
//! a paper verb outside `DpRequest::name` does.

use crate::clock::{Micros, Wait};
use crate::sync::Mutex;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The kind of entity a counter record is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EntityKind {
    /// A (simulated) CPU, named by its `CpuId` rendering (`\0.1`).
    Cpu,
    /// A named process: DP servers (`$DATA1`), the audit trail (`$AUDIT`).
    Process,
    /// An open file partition, named `<volume>#F<file-id>`.
    File,
    /// A disk volume (the physical spindle pair under a DP).
    Volume,
    /// A DP buffer cache, named after its volume.
    Cache,
    /// Subset control blocks, aggregated per DP.
    Scb,
    /// Transactions, aggregated under the single `TMF` record.
    Txn,
    /// The cluster as a whole: the single `cluster` record of what no one
    /// component owns (CPU path length per layer, rows returned, statement
    /// wait totals).
    Cluster,
}

impl EntityKind {
    /// Number of entity kinds.
    pub const COUNT: usize = EntityKind::Cluster as usize + 1;

    /// Short lowercase tag used in reports and JSON.
    pub fn tag(self) -> &'static str {
        match self {
            EntityKind::Cpu => "cpu",
            EntityKind::Process => "process",
            EntityKind::File => "file",
            EntityKind::Volume => "volume",
            EntityKind::Cache => "cache",
            EntityKind::Scb => "scb",
            EntityKind::Txn => "txn",
            EntityKind::Cluster => "cluster",
        }
    }
}

macro_rules! measure_counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// A counter field of a [`MeasureRecord`].
        ///
        /// The discriminant is the slot index; [`Ctr::name`] gives the
        /// canonical dotted field name.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Ctr {
            $($(#[$doc])* $variant,)+
        }

        /// Canonical counter-field names, index-aligned with [`Ctr`].
        pub const COUNTER_NAMES: &[&str] = &[$($name,)+];

        impl Ctr {
            /// Number of counter fields in a record.
            pub const COUNT: usize = COUNTER_NAMES.len();

            /// The canonical dotted field name (`msgs.sent`).
            pub fn name(self) -> &'static str {
                COUNTER_NAMES[self as usize]
            }
        }
    };
}

measure_counters! {
    /// Requests sent by this CPU, answered or lost.
    MsgsSent => "msgs.sent",
    /// Messages received by this entity (server side).
    MsgsRecv => "msgs.recv",
    /// Re-drives of earlier requests: sent, on a CPU; received, on a process.
    MsgsRedrive => "msgs.redrive",
    /// Requests to this process that produced no reply: timed out, or
    /// answered by the fault plane with an injected transport error.
    MsgsLost => "msgs.lost",
    /// The lost requests whose requester waited out its timer.
    MsgsTimedOut => "msgs.timed_out",
    /// Requests sent by this CPU that crossed a node boundary.
    MsgsRemote => "msgs.remote",
    /// FS-DP interface requests sent by this CPU (re-drives included).
    MsgsFsDp => "msgs.fs_dp",
    /// Audit shipments to the audit-trail process sent by this CPU.
    MsgsAudit => "msgs.audit",
    /// Process-pair checkpoint messages sent by this CPU.
    MsgsCheckpoint => "msgs.checkpoint",
    /// Bytes sent (requests out plus replies returned).
    BytesSent => "bytes.sent",
    /// Bytes received (requests in plus replies consumed).
    BytesRecv => "bytes.recv",
    /// Physical read operations on a volume.
    DiskReads => "disk.reads",
    /// Physical write operations on a volume.
    DiskWrites => "disk.writes",
    /// Blocks transferred by reads.
    BlocksRead => "blocks.read",
    /// Blocks transferred by writes.
    BlocksWritten => "blocks.written",
    /// Multi-block bulk-IO strings (>1 block per operation).
    BulkIos => "bulk.ios",
    /// Cache lookups satisfied without disk.
    CacheHits => "cache.hits",
    /// Cache lookups that faulted to disk.
    CacheFaults => "cache.faults",
    /// Frames evicted to make room.
    CacheEvicts => "cache.evicts",
    /// Blocks read ahead by the sequential prefetcher.
    PrefetchReads => "prefetch.reads",
    /// Asynchronous read operations the pre-fetcher issued on a volume.
    PrefetchIos => "prefetch.ios",
    /// Cache hits that had to be satisfied from a pre-fetched block.
    PrefetchHits => "prefetch.hits",
    /// Asynchronous dirty-string writes issued by write-behind.
    WritebehindWrites => "writebehind.writes",
    /// Blocks copied back onto a replaced drive from its surviving mirror.
    RemirrorBlocks => "remirror.blocks",
    /// Records examined by subset scans against a file.
    RecsExamined => "recs.examined",
    /// Records selected (passed predicate) by subset scans.
    RecsSelected => "recs.selected",
    /// Subset control blocks created.
    ScbCreated => "scb.created",
    /// SCB re-positions from re-driven requests after takeover.
    ScbRedrives => "scb.redrives",
    /// Lock acquisitions that could not be granted immediately.
    LockWaits => "lock.waits",
    /// Lock waits refused as deadlocks.
    LockDeadlocks => "lock.deadlocks",
    /// Bounded-backoff retry sleeps on the FS request path.
    RetryBackoffs => "retry.backoffs",
    /// Primary-path failures resolved by switching to the backup.
    PathTakeovers => "path.takeovers",
    /// Transactions committed.
    TxnCommits => "txn.commits",
    /// Transactions aborted.
    TxnAborts => "txn.aborts",
    /// Transactions doomed by TMF after a participant failure.
    TxnDoomed => "txn.doomed",
    /// Audit records this process generated (a data volume's changes; on
    /// the trail, its own commit and abort records).
    AuditRecords => "audit.records",
    /// Bytes of the audit records this process generated.
    AuditBytes => "audit.bytes",
    /// Audit-trail buffer flushes.
    AuditFlushes => "audit.flushes",
    /// Audit flushes forced by a full buffer rather than the commit timer.
    AuditFullFlushes => "audit.full_flushes",
    /// Commits that rode an audit write another commit paid for.
    CommitPiggybacks => "commit.piggybacks",
    /// Retransmitted requests answered from the sync-ID reply cache.
    DupSuppressed => "dup.suppressed",
    /// Faults injected against this entity by the fault plane.
    FaultsInjected => "faults.injected",
    /// Durable audit records scanned during crash recovery.
    RecoveryScanned => "recovery.scanned",
    /// REDO operations applied during crash recovery.
    RecoveryRedo => "recovery.redo",
    /// UNDO operations applied during crash recovery.
    RecoveryUndo => "recovery.undo",
    /// Torn (partially written) trail records truncated during recovery.
    RecoveryTorn => "recovery.torn",
    /// Waits-for cycles found by the Disk Process's deadlock detector.
    DeadlockDetected => "deadlock.detected",
    /// Transactions chosen (youngest in the cycle) and doomed as deadlock
    /// victims.
    DeadlockVictims => "deadlock.victim",
    /// Client-side automatic retries after a victim abort.
    DeadlockRetries => "deadlock.retry",
    /// Convoy stragglers doomed by the virtual-time lock-wait timeout.
    LockWaitTimeouts => "lockwait.timeout",
    /// Transactions that had to queue at the admission-control gate.
    AdmissionQueued => "admission.queued",
    /// `sys.*` virtual-table scans served from an introspection snapshot.
    SysScans => "sys.scans",
    /// Intervals closed by the load engine's virtual-time sampler.
    SamplerIntervals => "sampler.intervals",
    /// CPU work units of the SQL executor / application layer.
    CpuExecutor => "cpu.executor",
    /// CPU work units of the File System.
    CpuFs => "cpu.fs",
    /// CPU work units of the Disk Processes.
    CpuDp => "cpu.dp",
    /// Rows returned to the application.
    RowsReturned => "rows.returned",
    /// Statement virtual time spent in CPU service. This and the eight
    /// after it are the wait categories, in ledger order.
    StmtWaitCpu => "stmt.wait.cpu",
    /// Statement virtual time spent in the message system.
    StmtWaitMsg => "stmt.wait.msg",
    /// Statement virtual time spent waiting on disk I/O.
    StmtWaitDisk => "stmt.wait.disk",
    /// Statement virtual time spent blocked on locks.
    StmtWaitLock => "stmt.wait.lock",
    /// Statement virtual time spent waiting for group commit.
    StmtWaitCommit => "stmt.wait.commit",
    /// Statement virtual time spent in retry backoff.
    StmtWaitRetry => "stmt.wait.retry",
    /// Statement virtual time spent in crash recovery.
    StmtWaitRestart => "stmt.wait.restart",
    /// Statement virtual time spent queued at the admission gate.
    StmtWaitAdmission => "stmt.wait.admission",
    /// Statement virtual time left unattributed (normally 0).
    StmtWaitOther => "stmt.wait.other",
}

/// One entity's record: who it is, a fixed array of relaxed atomic
/// counters, and the flight ring of what recently happened to it.
#[derive(Debug)]
pub struct MeasureRecord {
    name: String,
    counters: [AtomicU64; Ctr::COUNT],
    ring: Mutex<VecDeque<FlightEntry>>,
}

impl MeasureRecord {
    fn new(name: &str) -> Self {
        MeasureRecord {
            name: name.to_string(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The entity's name (`$DATA1`, `\0.1`, `TMF`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Increment counter `c` by one.
    pub fn bump(&self, c: Ctr) {
        self.add(c, 1);
    }

    /// Increment counter `c` by `n`.
    pub fn add(&self, c: Ctr, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of counter `c`.
    pub fn get(&self, c: Ctr) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    fn values(&self) -> [u64; Ctr::COUNT] {
        std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed))
    }

    /// Add `us` to the statement-wait counter of category `w`.
    pub(crate) fn add_stmt_wait(&self, w: Wait, us: u64) {
        self.counters[Ctr::StmtWaitCpu as usize + w.index()].fetch_add(us, Ordering::Relaxed);
    }

    /// Append to the flight ring, evicting the oldest entry when full. The
    /// ring takes its whole (bounded) room with the first entry.
    pub(crate) fn flight(&self, entry: FlightEntry) {
        let mut ring = self.ring.lock();
        if ring.len() == FLIGHT_RING_CAPACITY {
            ring.pop_front();
        }
        let room = FLIGHT_RING_CAPACITY - ring.len();
        ring.reserve_exact(room);
        ring.push_back(entry);
    }
}

/// An entity's identity: the sort key of every snapshot and report.
type EntityKey = (EntityKind, String);

/// The per-simulation registry of entity counter records.
///
/// Lookup takes a mutex, so components fetch their `Arc` once at
/// construction and bump lock-free afterwards. The registry is append-only
/// and kept sorted by `(kind, name)` — deterministic across runs — with
/// `records[i]` belonging to `names[i]`.
#[derive(Debug, Default)]
pub struct MeasureRegistry {
    entities: Mutex<Entities>,
}

#[derive(Debug, Default)]
struct Entities {
    /// Shared with every snapshot; copied only when an entity is added.
    names: Arc<Vec<EntityKey>>,
    records: Vec<Arc<MeasureRecord>>,
}

fn position(names: &[EntityKey], kind: EntityKind, name: &str) -> Result<usize, usize> {
    names.binary_search_by(|(k, n)| (*k, n.as_str()).cmp(&(kind, name)))
}

impl MeasureRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter record for `(kind, name)`.
    pub fn entity(&self, kind: EntityKind, name: &str) -> Arc<MeasureRecord> {
        let mut e = self.entities.lock();
        let at = match position(&e.names, kind, name) {
            Ok(at) => at,
            Err(at) => {
                Arc::make_mut(&mut e.names).insert(at, (kind, name.to_string()));
                e.records.insert(at, Arc::new(MeasureRecord::new(name)));
                at
            }
        };
        Arc::clone(&e.records[at])
    }

    /// What every record counted since `earlier`, as of virtual time `at`:
    /// `snapshot(at).since(earlier)` without the second copy.
    pub fn since(&self, at: Micros, earlier: &MeasureSnapshot) -> MeasureSnapshot {
        let mut now = self.snapshot(at);
        now.subtract(earlier);
        now
    }

    /// Snapshot every record at virtual time `at`.
    pub fn snapshot(&self, at: Micros) -> MeasureSnapshot {
        let e = self.entities.lock();
        MeasureSnapshot {
            at,
            names: Arc::clone(&e.names),
            values: e.records.iter().map(|rec| rec.values()).collect(),
        }
    }
}

/// A point-in-time copy of every entity's counters: the registry's sorted
/// `(kind, name)` list (shared, not copied) and one flat row of counter
/// values per entity, in the same order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MeasureSnapshot {
    /// Virtual time the snapshot was taken.
    pub at: Micros,
    names: Arc<Vec<EntityKey>>,
    values: Vec<[u64; Ctr::COUNT]>,
}

impl MeasureSnapshot {
    /// Every entity's `(kind, name, counter values)`, sorted by
    /// `(kind, name)`.
    pub fn iter(
        &self,
    ) -> impl ExactSizeIterator<Item = (EntityKind, &str, &[u64; Ctr::COUNT])> + '_ {
        self.names
            .iter()
            .zip(&self.values)
            .map(|((kind, name), vals)| (*kind, name.as_str(), vals))
    }

    fn row(&self, kind: EntityKind, name: &str) -> Option<&[u64; Ctr::COUNT]> {
        position(&self.names, kind, name)
            .ok()
            .map(|at| &self.values[at])
    }

    /// Counter `c` of entity `(kind, name)`, zero if the entity is unknown.
    pub fn get(&self, kind: EntityKind, name: &str, c: Ctr) -> u64 {
        self.row(kind, name).map_or(0, |v| v[c as usize])
    }

    /// The rows of the entities of kind number `kind`: one contiguous run,
    /// as the snapshot is sorted by kind.
    fn rows_of(&self, kind: usize) -> &[[u64; Ctr::COUNT]] {
        let before = |kind| self.names.partition_point(|(k, _)| (*k as usize) < kind);
        &self.values[before(kind)..before(kind + 1)]
    }

    /// The rows of each entity kind, indexed by kind.
    pub(crate) fn rows_by_kind(&self) -> [&[[u64; Ctr::COUNT]]; EntityKind::COUNT] {
        std::array::from_fn(|kind| self.rows_of(kind))
    }

    /// Sum of counter `c` over every entity of `kind`.
    pub fn total(&self, kind: EntityKind, c: Ctr) -> u64 {
        let rows = self.rows_of(kind as usize);
        rows.iter().map(|v| v[c as usize]).sum()
    }

    /// The interval delta `self - earlier` (saturating per counter;
    /// entities absent from `earlier` count from zero). Two snapshots of an
    /// unchanged registry share one name list and subtract by position.
    pub fn since(&self, earlier: &MeasureSnapshot) -> MeasureSnapshot {
        let mut delta = self.clone();
        delta.subtract(earlier);
        delta
    }

    fn subtract(&mut self, earlier: &MeasureSnapshot) {
        let positional = Arc::ptr_eq(&self.names, &earlier.names);
        let rows = self.names.iter().zip(&mut self.values);
        for (at, ((kind, name), now)) in rows.enumerate() {
            let then = if positional {
                earlier.values.get(at)
            } else {
                earlier.row(*kind, name)
            };
            if let Some(then) = then {
                for (now, then) in now.iter_mut().zip(then) {
                    *now = now.saturating_sub(*then);
                }
            }
        }
    }

    /// Does any counter of any entity differ from zero?
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|v| v.iter().all(|&c| c == 0))
    }
}

/// A rendered measure interval: counter snapshot plus the trace ring's
/// dropped count (surfaced, never silently truncated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureReport {
    /// The counter values (absolute, or an interval delta via [`since`]).
    ///
    /// [`since`]: MeasureReport::since
    pub snap: MeasureSnapshot,
    /// Events the bounded trace ring evicted unread.
    pub trace_dropped: u64,
}

impl MeasureReport {
    /// Capture the current counters and trace-drop count of `sim`.
    pub fn capture(sim: &crate::Sim) -> MeasureReport {
        MeasureReport {
            snap: sim.measure.snapshot(sim.now()),
            trace_dropped: sim.trace.dropped(),
        }
    }

    /// What `sim` did since `earlier` was captured:
    /// `capture(sim).since(earlier)` without the intermediate copy.
    pub fn capture_since(sim: &crate::Sim, earlier: &MeasureReport) -> MeasureReport {
        MeasureReport {
            snap: sim.measure.since(sim.now(), &earlier.snap),
            trace_dropped: sim.trace.dropped().saturating_sub(earlier.trace_dropped),
        }
    }

    /// The interval report `self - earlier`.
    pub fn since(&self, earlier: &MeasureReport) -> MeasureReport {
        MeasureReport {
            snap: self.snap.since(&earlier.snap),
            trace_dropped: self.trace_dropped.saturating_sub(earlier.trace_dropped),
        }
    }

    /// Render as an aligned text table, one row per entity, listing only
    /// non-zero counters. Zero-only entities are elided.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "MEASURE @ {} µs  ({} entities, trace dropped: {})",
            self.snap.at,
            self.snap.values.len(),
            self.trace_dropped
        );
        let name_w = self
            .snap
            .iter()
            .map(|(_, n, _)| n.len())
            .max()
            .unwrap_or(4)
            .max(4);
        for (kind, name, vals) in self.snap.iter() {
            if vals.iter().all(|&v| v == 0) {
                continue;
            }
            let _ = write!(out, "  [{:<7}] {:<name_w$} ", kind.tag(), name);
            for (i, &v) in vals.iter().enumerate() {
                if v != 0 {
                    let _ = write!(out, " {}={}", COUNTER_NAMES[i], v);
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as one JSON record (the `BENCH_results.json` measure format):
    /// `{"id", "kind": "measure", "at_us", "trace_dropped", "entities"}`
    /// with only non-zero counters listed per entity.
    pub fn to_json(&self, id: &str) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"id\": {}, \"kind\": \"measure\", \"at_us\": {}, \"trace_dropped\": {}, \
             \"entities\": [",
            json_str(id),
            self.snap.at,
            self.trace_dropped
        );
        let mut first_e = true;
        for (kind, name, vals) in self.snap.iter() {
            if vals.iter().all(|&v| v == 0) {
                continue;
            }
            if !first_e {
                out.push_str(", ");
            }
            first_e = false;
            let _ = write!(
                out,
                "{{\"kind\": {}, \"name\": {}, \"counters\": {{",
                json_str(kind.tag()),
                json_str(name)
            );
            let mut first_c = true;
            for (i, &v) in vals.iter().enumerate() {
                if v == 0 {
                    continue;
                }
                if !first_c {
                    out.push_str(", ");
                }
                first_c = false;
                let _ = write!(out, "{}: {}", json_str(COUNTER_NAMES[i]), v);
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// Escape a string as a JSON string literal — the workspace's one escaper:
/// the MEASURE records, the Chrome trace and `nsql_bench`'s tables use it.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ----------------------------------------------------------------------
// Flight recorder
// ----------------------------------------------------------------------

/// Ring capacity per process: enough to reconstruct the last few dozen
/// exchanges before a crash without measurably costing the hot path.
pub const FLIGHT_RING_CAPACITY: usize = 64;

/// Dumps retained before the recorder starts counting instead of keeping
/// (bounds memory under chaos matrices that kill hundreds of CPUs).
pub const MAX_FLIGHT_DUMPS: usize = 64;

/// One entry in a process's flight ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// Virtual time of the event.
    pub at: Micros,
    /// Entry class: `msg`, `fault`, `retry`, `doom`, `error`.
    pub tag: &'static str,
    /// The paper-verb label (borrowed), or a fault action or error
    /// description (built for the entry).
    pub label: Cow<'static, str>,
    /// Tag-dependent detail (request bytes, attempt number, txn id).
    pub a: u64,
    /// Tag-dependent detail (reply bytes, backoff µs).
    pub b: u64,
}

impl FlightEntry {
    fn render(&self) -> String {
        let detail = match self.tag {
            "msg" => format!("req={}B reply={}B", self.a, self.b),
            "retry" => format!("attempt={} backoff={}µs", self.a, self.b),
            "doom" => format!("txn={}", self.a),
            _ => String::new(),
        };
        format!(
            "{:>10} µs  {:<5} {:<28} {}",
            self.at, self.tag, self.label, detail
        )
    }
}

/// A postmortem: one process's ring plus the full counter snapshot at the
/// moment of the triggering event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Virtual time of the trigger.
    pub at: Micros,
    /// The process whose ring was dumped.
    pub process: String,
    /// Why: `cpu down`, `txn doomed`, `fs unavailable`, …
    pub reason: String,
    /// The ring contents, oldest first.
    pub entries: Vec<FlightEntry>,
    /// Counter snapshot at dump time.
    pub counters: MeasureSnapshot,
}

impl FlightDump {
    /// Render the dump as deterministic text (chaos tests compare these
    /// byte-for-byte across same-seed runs).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "==== FLIGHT DUMP @ {} µs  process {}  reason: {} ====",
            self.at, self.process, self.reason
        );
        let _ = writeln!(
            out,
            "  ring ({} entries, oldest first):",
            self.entries.len()
        );
        for e in &self.entries {
            let _ = writeln!(out, "    {}", e.render());
        }
        out.push_str("  counters:\n");
        let report = MeasureReport {
            snap: self.counters.clone(),
            trace_dropped: 0,
        };
        for line in report.render().lines().skip(1) {
            let _ = writeln!(out, "  {line}");
        }
        out
    }
}

/// The retained postmortems (the rings themselves live on the records).
#[derive(Debug, Default)]
pub struct FlightRecorder {
    dumps: Mutex<Vec<FlightDump>>,
    dumps_total: AtomicU64,
}

impl FlightRecorder {
    /// Dump `entity`'s ring with the given counter snapshot. The ring is
    /// left intact (a process can be dumped more than once).
    pub(crate) fn dump(
        &self,
        entity: &MeasureRecord,
        reason: &str,
        at: Micros,
        counters: MeasureSnapshot,
    ) {
        self.dumps_total.fetch_add(1, Ordering::Relaxed);
        let mut dumps = self.dumps.lock();
        if dumps.len() < MAX_FLIGHT_DUMPS {
            dumps.push(FlightDump {
                at,
                process: entity.name.clone(),
                reason: reason.to_string(),
                entries: entity.ring.lock().iter().cloned().collect(),
                counters,
            });
        }
    }

    /// All retained dumps, in trigger order.
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.dumps.lock().clone()
    }

    /// Total dump triggers, including any beyond the retention cap.
    pub fn dumps_total(&self) -> u64 {
        self.dumps_total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;

    #[test]
    fn registry_dedups_and_snapshots_deterministically() {
        let reg = MeasureRegistry::new();
        let a = reg.entity(EntityKind::Process, "$DATA1");
        let b = reg.entity(EntityKind::Process, "$DATA1");
        assert!(Arc::ptr_eq(&a, &b));
        a.bump(Ctr::MsgsRecv);
        b.add(Ctr::BytesRecv, 100);
        reg.entity(EntityKind::Volume, "$DATA1")
            .add(Ctr::DiskReads, 3);
        let snap = reg.snapshot(42);
        assert_eq!(snap.get(EntityKind::Process, "$DATA1", Ctr::MsgsRecv), 1);
        assert_eq!(snap.get(EntityKind::Process, "$DATA1", Ctr::BytesRecv), 100);
        assert_eq!(snap.get(EntityKind::Volume, "$DATA1", Ctr::DiskReads), 3);
        assert_eq!(snap.get(EntityKind::Cpu, "nope", Ctr::MsgsSent), 0);
        // Kinds are distinct even under the same name.
        assert_eq!(snap.iter().len(), 2);
    }

    #[test]
    fn snapshot_delta_saturates_and_handles_new_entities() {
        let reg = MeasureRegistry::new();
        let rec = reg.entity(EntityKind::Cpu, "\\0.0");
        rec.add(Ctr::MsgsSent, 5);
        let before = reg.snapshot(0);
        rec.add(Ctr::MsgsSent, 7);
        reg.entity(EntityKind::Txn, "TMF").bump(Ctr::TxnCommits);
        let delta = reg.snapshot(9).since(&before);
        assert_eq!(delta, reg.since(9, &before), "one pass or two");
        assert_eq!(delta.get(EntityKind::Cpu, "\\0.0", Ctr::MsgsSent), 7);
        assert_eq!(delta.get(EntityKind::Txn, "TMF", Ctr::TxnCommits), 1);
        // Saturation rather than wraparound if a counter ever regressed.
        let zero = before.since(&reg.snapshot(9));
        assert!(zero.is_zero());
    }

    #[test]
    fn report_renders_nonzero_counters_and_dropped() {
        let sim = Sim::new();
        sim.measure
            .entity(EntityKind::Cache, "$DATA1")
            .add(Ctr::CacheHits, 12);
        let report = MeasureReport::capture(&sim);
        let text = report.render();
        assert!(text.contains("[cache  ] $DATA1"), "{text}");
        assert!(text.contains("cache.hits=12"), "{text}");
        assert!(text.contains("trace dropped: 0"), "{text}");
        let json = report.to_json("measure");
        assert!(json.contains("\"id\": \"measure\""), "{json}");
        assert!(json.contains("\"cache.hits\": 12"), "{json}");
        assert!(json.contains("\"trace_dropped\": 0"), "{json}");
    }

    #[test]
    fn counter_names_match_their_shape() {
        assert_eq!(COUNTER_NAMES.len(), Ctr::COUNT);
        assert_eq!(Ctr::MsgsSent.name(), "msgs.sent");
        assert_eq!(Ctr::FaultsInjected.name(), "faults.injected");
        for name in COUNTER_NAMES {
            assert!(
                name.split('.').count() >= 2
                    && name
                        .split('.')
                        .all(|w| !w.is_empty()
                            && w.chars().all(|c| c.is_ascii_lowercase() || c == '_')),
                "counter name `{name}` must be dotted lowercase"
            );
        }
        // The statement-wait counters mirror the wait ledger, in its order.
        for w in crate::WAIT_CATEGORIES {
            let name = COUNTER_NAMES[Ctr::StmtWaitCpu as usize + w.index()];
            assert_eq!(format!("stmt.{}", w.name()), name);
        }
        // Unique.
        let mut sorted: Vec<_> = COUNTER_NAMES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), COUNTER_NAMES.len());
    }

    #[test]
    fn flight_ring_is_bounded_and_dumps_are_ordered() {
        let reg = MeasureRegistry::new();
        let rec = FlightRecorder::default();
        let dp = reg.entity(EntityKind::Process, "$DATA1");
        for i in 0..(FLIGHT_RING_CAPACITY as u64 + 10) {
            dp.flight(FlightEntry {
                at: i,
                tag: "msg",
                label: "GET^NEXT".into(),
                a: 32,
                b: 2048,
            });
        }
        rec.dump(&dp, "cpu down", 99, MeasureSnapshot::default());
        let quiet = reg.entity(EntityKind::Txn, "TMF");
        rec.dump(&quiet, "txn doomed", 100, MeasureSnapshot::default());
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 2);
        assert_eq!(rec.dumps_total(), 2);
        assert_eq!(dumps[0].entries.len(), FLIGHT_RING_CAPACITY);
        // Oldest entries were evicted: the ring starts at entry 10.
        assert_eq!(dumps[0].entries[0].at, 10);
        // A never-recorded entity dumps an empty ring, not a panic.
        assert!(dumps[1].entries.is_empty());
        let text = dumps[0].render();
        assert!(text.contains("reason: cpu down"), "{text}");
        assert!(text.contains("GET^NEXT"), "{text}");
    }
}
