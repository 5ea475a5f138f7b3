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

/// Which counters of a record have moved: bit `c` for counter `c`.
type Moved = u128;

const _: () = assert!(
    Ctr::COUNT <= Moved::BITS as usize,
    "a counter without a bit"
);

/// Words a moved mask takes: in a record's atomics and at the head of each
/// snapshot row, low word first.
const MASK_WORDS: usize = 2;

fn moved_from(words: [u64; MASK_WORDS]) -> Moved {
    Moved::from(words[0]) | Moved::from(words[1]) << 64
}

/// The counters set in `moved`, ascending.
fn moved_counters(mut moved: Moved) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let c = (moved != 0).then(|| moved.trailing_zeros() as usize);
        moved &= moved.wrapping_sub(1);
        c
    })
}

fn moved_len(moved: Moved) -> usize {
    moved.count_ones() as usize
}

/// One entity's record: who it is, a fixed array of relaxed atomic
/// counters with the mask of those that ever moved, and the flight ring of
/// what recently happened to it.
#[derive(Debug)]
pub struct MeasureRecord {
    name: String,
    /// The counters ever added to: a snapshot copies only these. A bit is
    /// set before its counter is first added to, and never cleared.
    moved: [AtomicU64; MASK_WORDS],
    counters: [AtomicU64; Ctr::COUNT],
    ring: Mutex<VecDeque<FlightEntry>>,
}

impl MeasureRecord {
    fn new(name: &str) -> Self {
        MeasureRecord {
            name: name.to_string(),
            moved: std::array::from_fn(|_| AtomicU64::new(0)),
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
        self.add_at(c as usize, n);
    }

    fn add_at(&self, i: usize, n: u64) {
        let (word, bit) = (&self.moved[i / 64], 1u64 << (i % 64));
        // A load first: after its first add a counter never writes the mask.
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
        self.counters[i].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of counter `c`.
    pub fn get(&self, c: Ctr) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    fn moved_words(&self) -> [u64; MASK_WORDS] {
        std::array::from_fn(|w| self.moved[w].load(Ordering::Relaxed))
    }

    /// Append this record's snapshot row to `rows`: its moved mask, then
    /// the values of the counters in it, ascending.
    fn copy_row(&self, rows: &mut Vec<u64>) {
        let words = self.moved_words();
        rows.extend_from_slice(&words);
        for c in moved_counters(moved_from(words)) {
            rows.push(self.counters[c].load(Ordering::Relaxed));
        }
    }

    /// Add `us` to the statement-wait counter of category `w`.
    pub(crate) fn add_stmt_wait(&self, w: Wait, us: u64) {
        self.add_at(Ctr::StmtWaitCpu as usize + w.index(), us);
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

    /// Snapshot every record at virtual time `at`: one allocation, sized
    /// to the counters that have moved.
    pub fn snapshot(&self, at: Micros) -> MeasureSnapshot {
        let e = self.entities.lock();
        let len = e
            .records
            .iter()
            .map(|rec| MASK_WORDS + moved_len(moved_from(rec.moved_words())));
        let mut rows = Vec::with_capacity(len.sum());
        for rec in &e.records {
            rec.copy_row(&mut rows);
        }
        MeasureSnapshot {
            at,
            names: Arc::clone(&e.names),
            rows,
        }
    }
}

/// A point-in-time copy of every entity's counters: the registry's sorted
/// `(kind, name)` list (shared, not copied) and, in the same order, one
/// compact row per entity in a single flat buffer — the entity's moved mask
/// followed by the values of the counters in it, ascending. A counter that
/// never moved is zero and takes no room.
///
/// Equality is by value: two snapshots are equal when they were taken at
/// the same time over the same entities and every counter reads the same,
/// whichever counters either one's masks name.
#[derive(Debug, Clone, Default)]
pub struct MeasureSnapshot {
    /// Virtual time the snapshot was taken.
    pub at: Micros,
    names: Arc<Vec<EntityKey>>,
    rows: Vec<u64>,
}

/// One entity's row of a [`MeasureSnapshot`].
#[derive(Debug, Clone, Copy)]
struct Row<'a> {
    moved: Moved,
    /// The values of the counters in `moved`, ascending.
    values: &'a [u64],
}

impl<'a> Row<'a> {
    /// Counter `c`: zero unless `moved` names it.
    fn get(&self, c: usize) -> u64 {
        let bit: Moved = 1 << c;
        if self.moved & bit == 0 {
            return 0;
        }
        self.values[moved_len(self.moved & (bit - 1))]
    }

    /// `(counter, value)` of every counter the row holds, ascending.
    fn counters(self) -> impl Iterator<Item = (usize, u64)> + 'a {
        moved_counters(self.moved).zip(self.values.iter().copied())
    }

    fn dense(&self) -> [u64; Ctr::COUNT] {
        let mut vals = [0; Ctr::COUNT];
        for (c, v) in self.counters() {
            vals[c] = v;
        }
        vals
    }

    fn is_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }
}

/// The rows of a snapshot's flat buffer, in entity order.
struct Rows<'a> {
    rest: &'a [u64],
    left: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = Row<'a>;

    fn next(&mut self) -> Option<Row<'a>> {
        let (words, rest) = self.rest.split_first_chunk::<MASK_WORDS>()?;
        let moved = moved_from(*words);
        let (values, rest) = rest.split_at_checked(moved_len(moved))?;
        self.rest = rest;
        self.left = self.left.saturating_sub(1);
        Some(Row { moved, values })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl PartialEq for MeasureSnapshot {
    fn eq(&self, other: &MeasureSnapshot) -> bool {
        self.at == other.at
            && self.names == other.names
            && self
                .rows()
                .zip(other.rows())
                .all(|(a, b)| a.dense() == b.dense())
    }
}

impl Eq for MeasureSnapshot {}

impl MeasureSnapshot {
    fn rows(&self) -> Rows<'_> {
        Rows {
            rest: &self.rows,
            left: self.names.len(),
        }
    }

    /// `(kind, name, row)` of every entity, sorted by `(kind, name)`.
    fn entities(&self) -> impl ExactSizeIterator<Item = (EntityKind, &str, Row<'_>)> + '_ {
        let names = self.names.iter();
        names
            .zip(self.rows())
            .map(|((kind, name), row)| (*kind, name.as_str(), row))
    }

    /// Every entity's `(kind, name, counter values)`, sorted by
    /// `(kind, name)`. Each row is expanded to every counter: a reader that
    /// only sums or looks up counters should use [`get`] or [`total`].
    ///
    /// [`get`]: MeasureSnapshot::get
    /// [`total`]: MeasureSnapshot::total
    pub fn iter(
        &self,
    ) -> impl ExactSizeIterator<Item = (EntityKind, &str, [u64; Ctr::COUNT])> + '_ {
        let rows = self.entities();
        rows.map(|(kind, name, row)| (kind, name, row.dense()))
    }

    /// Counter `c` of entity `(kind, name)`, zero if the entity is unknown.
    pub fn get(&self, kind: EntityKind, name: &str, c: Ctr) -> u64 {
        let at = position(&self.names, kind, name).ok();
        at.and_then(|at| self.rows().nth(at))
            .map_or(0, |row| row.get(c as usize))
    }

    /// Sum of counter `c` over every entity of `kind`.
    pub fn total(&self, kind: EntityKind, c: Ctr) -> u64 {
        let of_kind = self.entities().filter(|(k, _, _)| *k == kind);
        of_kind.map(|(_, _, row)| row.get(c as usize)).sum()
    }

    /// Every counter summed over the entities of each kind, indexed by
    /// kind and counter: one pass over the counters that have moved.
    pub(crate) fn sums_by_kind(&self) -> [[u64; Ctr::COUNT]; EntityKind::COUNT] {
        let mut sums = [[0; Ctr::COUNT]; EntityKind::COUNT];
        for (kind, _, row) in self.entities() {
            for (c, v) in row.counters() {
                sums[kind as usize][c] += v;
            }
        }
        sums
    }

    /// The interval delta `self - earlier` (saturating per counter;
    /// entities absent from `earlier` count from zero). Two snapshots of an
    /// unchanged registry share one name list and subtract by position.
    pub fn since(&self, earlier: &MeasureSnapshot) -> MeasureSnapshot {
        let mut delta = self.clone();
        delta.subtract(earlier);
        delta
    }

    /// Subtract `earlier` in place. The result keeps `self`'s rows: a row
    /// whose mask equals the earlier one's subtracts by position, any other
    /// counter by counter.
    fn subtract(&mut self, earlier: &MeasureSnapshot) {
        let positional = Arc::ptr_eq(&self.names, &earlier.names);
        let mut then_rows = earlier.entities().peekable();
        let mut at = 0;
        for (kind, name) in self.names.iter() {
            let Some(words) = self.rows.get(at..).and_then(<[u64]>::first_chunk) else {
                return;
            };
            let moved = moved_from(*words);
            let start = at + MASK_WORDS;
            at = start + moved_len(moved);
            let then = if positional {
                then_rows.next()
            } else {
                let key = (*kind, name.as_str());
                while then_rows.next_if(|(k, n, _)| (*k, *n) < key).is_some() {}
                then_rows.next_if(|(k, n, _)| (*k, *n) == key)
            };
            let (Some((_, _, then)), Some(now)) = (then, self.rows.get_mut(start..at)) else {
                continue;
            };
            if then.moved == moved {
                for (now, then) in now.iter_mut().zip(then.values) {
                    *now = now.saturating_sub(*then);
                }
            } else {
                for (now, c) in now.iter_mut().zip(moved_counters(moved)) {
                    *now = now.saturating_sub(then.get(c));
                }
            }
        }
    }

    /// Does any counter of any entity differ from zero?
    pub fn is_zero(&self) -> bool {
        self.rows().all(|row| row.is_zero())
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
            self.snap.names.len(),
            self.trace_dropped
        );
        let name_w = self.snap.names.iter().map(|(_, n)| n.len());
        let name_w = name_w.max().unwrap_or(4).max(4);
        for (kind, name, row) in self.snap.entities() {
            if row.is_zero() {
                continue;
            }
            let _ = write!(out, "  [{:<7}] {:<name_w$} ", kind.tag(), name);
            for (c, v) in row.counters().filter(|&(_, v)| v != 0) {
                let _ = write!(out, " {}={}", COUNTER_NAMES[c], v);
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
        for (kind, name, row) in self.snap.entities() {
            if row.is_zero() {
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
            for (c, v) in row.counters().filter(|&(_, v)| v != 0) {
                if !first_c {
                    out.push_str(", ");
                }
                first_c = false;
                let _ = write!(out, "{}: {}", json_str(COUNTER_NAMES[c]), v);
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

    /// Every counter of every entity: what a snapshot reads as.
    type Dense = std::collections::BTreeMap<(EntityKind, String), [u64; Ctr::COUNT]>;

    const KINDS: [EntityKind; EntityKind::COUNT] = [
        EntityKind::Cpu,
        EntityKind::Process,
        EntityKind::File,
        EntityKind::Volume,
        EntityKind::Cache,
        EntityKind::Scb,
        EntityKind::Txn,
        EntityKind::Cluster,
    ];

    /// `n` random adds to random entities of `reg`, mirrored in `model`;
    /// a quarter of them add zero. With `grow`, an add may register an
    /// entity; without it, it picks one `model` already has.
    fn random_adds(
        rng: &mut crate::SimRng,
        reg: &MeasureRegistry,
        model: &mut Dense,
        n: usize,
        grow: bool,
    ) {
        for _ in 0..n {
            let key = if grow || model.is_empty() {
                let kind = KINDS[rng.below(KINDS.len() as u64) as usize];
                (kind, format!("e{}", rng.below(4)))
            } else {
                let at = rng.below(model.len() as u64) as usize;
                model.keys().nth(at).unwrap().clone()
            };
            let rec = reg.entity(key.0, &key.1);
            let vals = model.entry(key).or_insert([0; Ctr::COUNT]);
            let by = if rng.below(4) == 0 {
                0
            } else {
                rng.below(1000)
            };
            if rng.below(8) == 0 {
                let w = crate::WAIT_CATEGORIES[rng.below(crate::Wait::COUNT as u64) as usize];
                rec.add_stmt_wait(w, by);
                vals[Ctr::StmtWaitCpu as usize + w.index()] += by;
            } else {
                let c = rng.below(Ctr::COUNT as u64) as usize;
                rec.add_at(c, by);
                vals[c] += by;
            }
        }
    }

    /// `now - then`, saturating, over the entities of `now`.
    fn dense_since(now: &Dense, then: &Dense) -> Dense {
        let delta = now.iter().map(|(key, vals)| {
            let was = then.get(key).copied().unwrap_or([0; Ctr::COUNT]);
            (
                key.clone(),
                std::array::from_fn(|c| vals[c].saturating_sub(was[c])),
            )
        });
        delta.collect()
    }

    /// The text the report rendered when every row held every counter.
    fn dense_render(model: &Dense, at: Micros) -> String {
        let mut out = format!(
            "MEASURE @ {at} µs  ({} entities, trace dropped: 0)\n",
            model.len()
        );
        let name_w = model.keys().map(|(_, n)| n.len()).max().unwrap_or(4).max(4);
        for ((kind, name), vals) in model.iter().filter(|(_, v)| v.iter().any(|&c| c != 0)) {
            out += &format!("  [{:<7}] {:<name_w$} ", kind.tag(), name);
            for (c, v) in vals.iter().enumerate().filter(|(_, &v)| v != 0) {
                out += &format!(" {}={}", COUNTER_NAMES[c], v);
            }
            out.push('\n');
        }
        out
    }

    /// The JSON record the report rendered when every row held every
    /// counter.
    fn dense_json(model: &Dense, at: Micros) -> String {
        let entities = model.iter().filter(|(_, v)| v.iter().any(|&c| c != 0));
        let entities: Vec<String> = entities
            .map(|((kind, name), vals)| {
                let counters = vals.iter().enumerate().filter(|(_, &v)| v != 0);
                let counters: Vec<String> = counters
                    .map(|(c, v)| format!("{}: {}", json_str(COUNTER_NAMES[c]), v))
                    .collect();
                format!(
                    "{{\"kind\": {}, \"name\": {}, \"counters\": {{{}}}}}",
                    json_str(kind.tag()),
                    json_str(name),
                    counters.join(", ")
                )
            })
            .collect();
        format!(
            "{{\"id\": \"m\", \"kind\": \"measure\", \"at_us\": {at}, \"trace_dropped\": 0, \
             \"entities\": [{}]}}",
            entities.join(", ")
        )
    }

    /// Every reader of `snap` agrees with `model`.
    fn assert_reads_as(snap: &MeasureSnapshot, model: &Dense, what: &str) {
        let rows: Vec<_> = snap
            .iter()
            .map(|(k, n, v)| ((k, n.to_string()), v))
            .collect();
        let expected: Vec<_> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(rows, expected, "{what}: iter");
        assert_eq!(snap.iter().len(), model.len(), "{what}: iter().len()");
        // Every counter through the row; through `get` and `total`, every
        // counter a cluster total names (both words of the mask among them).
        let named: Vec<Ctr> = crate::TOTALS
            .iter()
            .flat_map(|(_, _, cs)| cs.to_vec())
            .collect();
        for ((kind, name, row), ((k, n), vals)) in snap.entities().zip(model) {
            assert_eq!((kind, name), (*k, n.as_str()), "{what}");
            let got: [u64; Ctr::COUNT] = std::array::from_fn(|c| row.get(c));
            assert_eq!(got, *vals, "{what}: {name}");
            for &c in &named {
                assert_eq!(snap.get(kind, name, c), vals[c as usize], "{what}: {name}");
            }
        }
        for kind in KINDS {
            for &c in &named {
                let of_kind = model.iter().filter(|((k, _), _)| *k == kind);
                let total: u64 = of_kind.map(|(_, v)| v[c as usize]).sum();
                assert_eq!(snap.total(kind, c), total, "{what}: total {kind:?} {c:?}");
            }
        }
        assert_eq!(snap.get(EntityKind::Cpu, "none", Ctr::MsgsSent), 0);
        let zero = model.values().all(|v| v.iter().all(|&c| c == 0));
        assert_eq!(snap.is_zero(), zero, "{what}: is_zero");
        let totals = crate::MetricsSnapshot::from(snap);
        for ((name, kind, ctrs), (field, got)) in crate::TOTALS.iter().zip(totals.iter()) {
            assert_eq!(*name, field);
            let of_kind = model.iter().filter(|((k, _), _)| k == kind);
            let sum: u64 = of_kind
                .map(|(_, v)| ctrs.iter().map(|&c| v[c as usize]).sum::<u64>())
                .sum();
            assert_eq!(got, sum, "{what}: total {name}");
        }
        let report = MeasureReport {
            snap: snap.clone(),
            trace_dropped: 0,
        };
        assert_eq!(
            report.render(),
            dense_render(model, snap.at),
            "{what}: render"
        );
        assert_eq!(
            report.to_json("m"),
            dense_json(model, snap.at),
            "{what}: json"
        );
    }

    #[test]
    fn compact_snapshots_read_as_every_counter_of_every_entity() {
        let mut by_name = 0;
        for seed in 0..30 {
            let mut rng = crate::SimRng::seed_from(0x3EA5 + seed);
            let reg = MeasureRegistry::new();
            let mut model = Dense::new();
            random_adds(&mut rng, &reg, &mut model, 40, true);
            let then = model.clone();
            let earlier = reg.snapshot(10);
            assert_reads_as(&earlier, &then, "earlier");
            // Half the windows register entities before they close, so
            // their delta subtracts by name, not by position.
            let grow = seed % 2 == 0;
            random_adds(&mut rng, &reg, &mut model, 40, grow);
            let now = reg.snapshot(20);
            assert_reads_as(&now, &model, "now");
            by_name += usize::from(model.len() > then.len());
            let delta = now.since(&earlier);
            assert_reads_as(&delta, &dense_since(&model, &then), "delta");
            assert_eq!(reg.since(20, &earlier), delta, "one pass or two");
            // Backwards: every counter saturates at zero, whichever side's
            // mask names it.
            assert_reads_as(
                &earlier.since(&now),
                &dense_since(&then, &model),
                "backwards",
            );

            // Equality is by value: a registry that reaches the same values
            // through different adds — no zero adds, other counters touched
            // with zero — snapshots equal.
            let other = MeasureRegistry::new();
            for ((kind, name), vals) in &model {
                let rec = other.entity(*kind, name);
                for (c, &v) in vals.iter().enumerate() {
                    if v != 0 || rng.below(10) == 0 {
                        rec.add_at(c, v);
                    }
                }
            }
            assert_eq!(other.snapshot(20), now, "seed {seed}");
            assert_ne!(other.snapshot(21), now, "the time is part of the value");
            let (kind, name) = model.keys().next().unwrap();
            other.entity(*kind, name).add(Ctr::StmtWaitOther, 1);
            assert_ne!(other.snapshot(20), now, "seed {seed}");
        }
        assert!(by_name >= 12, "{by_name} windows grew the registry");
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
