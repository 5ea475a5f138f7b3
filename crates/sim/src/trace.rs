//! Event-level observability on the virtual clock.
//!
//! The paper's argument is stated in observable quantities — FS-DP message
//! counts, bytes per message, bulk-I/O lengths, audit volume. The counters in
//! [`crate::metrics`] give totals; this module gives the *event stream*
//! behind them:
//!
//! * [`TraceRecorder`] — a bounded ring buffer of typed [`TraceEvent`]s,
//!   each stamped with virtual microseconds, written by [`crate::Sim::emit`]
//!   and the span guards. Disabled by default; when disabled, a would-be
//!   record costs a single relaxed atomic load and is never constructed —
//!   its strings included, which the emitters only borrow — so tracing
//!   allocates nothing for experiments that do not ask for it. Because
//!   everything runs on the virtual clock, two identical runs produce
//!   byte-identical event streams.
//! * [`Histogram`] — a log₂-bucketed distribution with p50/p95/p99/max
//!   accessors. The standard set lives in [`Histograms`] (message sizes,
//!   statement latencies, group-commit batch sizes, re-drive chain lengths).
//!   Histograms never touch the clock or the counters, so they are always on.
//! * [`format_sequence`] — renders a trace slice as the paper's
//!   Figure-2-style FS ↔ DP message-sequence diagram, used by tests to
//!   assert message *patterns* rather than just counts.

use crate::clock::{Micros, Wait, WaitProfile};
use crate::sync::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Message category as seen by the tracer (mirrors the message system's
/// accounting classes without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMsgClass {
    /// A request over the FS-DP interface.
    FsDp,
    /// A continuation re-drive of an earlier FS-DP request.
    Redrive,
    /// An audit-buffer send to the audit-trail process.
    Audit,
    /// A process-pair checkpoint message.
    Checkpoint,
    /// Anything else.
    Other,
}

impl TraceMsgClass {
    /// Short tag used by the sequence formatter.
    pub fn tag(self) -> &'static str {
        match self {
            TraceMsgClass::FsDp => "FS-DP",
            TraceMsgClass::Redrive => "FS-DP re-drive",
            TraceMsgClass::Audit => "AUDIT",
            TraceMsgClass::Checkpoint => "CHECKPOINT",
            TraceMsgClass::Other => "MSG",
        }
    }
}

/// What happened: the record format of the trace stream. Records are
/// built by [`crate::Sim::emit`] (from an [`crate::Event`]) and by the span
/// guards, inside the recorder's enabled branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A request/reply message exchange completed.
    Msg {
        /// Accounting class.
        class: TraceMsgClass,
        /// Request name when known (e.g. `GetSubsetFirst`), else empty.
        label: String,
        /// Requesting CPU, rendered `\node.cpu`.
        from: String,
        /// Target process name (e.g. `$DATA1`).
        to: String,
        /// Request bytes on the wire.
        req_bytes: u64,
        /// Reply bytes on the wire.
        reply_bytes: u64,
        /// True when the exchange crossed a node boundary.
        remote: bool,
    },
    /// A disk I/O was issued.
    DiskIo {
        /// Volume name.
        volume: String,
        /// True for writes.
        write: bool,
        /// Blocks transferred (>1 means bulk I/O).
        blocks: u64,
        /// False for asynchronous (write-behind / prefetch) transfers.
        synchronous: bool,
    },
    /// A lock request had to wait (or deadlocked).
    LockWait {
        /// Waiting transaction.
        txn: u64,
        /// True when the wait was resolved by aborting a victim.
        deadlock: bool,
    },
    /// A buffer was evicted from a Disk Process cache.
    CacheEvict {
        /// Number of frames reclaimed.
        frames: u64,
    },
    /// The sequential pre-fetcher issued a bulk read.
    Prefetch {
        /// Blocks fetched ahead of the scan.
        blocks: u64,
    },
    /// The audit trail flushed a group of records to disk.
    AuditFlush {
        /// Records in the flushed group.
        records: u64,
        /// Bytes in the flushed group.
        bytes: u64,
        /// Commits made durable by this flush (the commit group).
        commits: u64,
        /// True when forced by a full buffer rather than the commit timer.
        buffer_full: bool,
    },
    /// A crash caught an audit write mid-transfer: the torn tail of the
    /// write was truncated back to the last whole, checksum-verified
    /// record (`audit.torn`).
    AuditTorn {
        /// Records lost to the torn tail.
        records: u64,
        /// Bytes discarded past the last whole record.
        bytes: u64,
    },
    /// A dead drive of a mirrored volume was replaced and the surviving
    /// mirror copied back onto it (`disk.remirror`). The copy-back is
    /// cost-modelled: `blocks` times the per-block transfer cost.
    Remirror {
        /// Volume name.
        volume: String,
        /// Allocated blocks copied from the surviving mirror.
        blocks: u64,
    },
    /// A transaction committed.
    TxnCommit {
        /// The transaction.
        txn: u64,
    },
    /// A transaction aborted.
    TxnAbort {
        /// The transaction.
        txn: u64,
    },
    /// The fault plane perturbed a message exchange.
    FaultInject {
        /// What was injected.
        action: FaultAction,
        /// Request name when known (e.g. `GetSubsetNext`), else empty.
        label: String,
        /// Target process name.
        to: String,
    },
    /// A requester retried a request after a timeout or down server.
    Retry {
        /// Request name being retried.
        label: String,
        /// Target process name.
        to: String,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
        /// Virtual-time backoff charged before this attempt.
        backoff_us: u64,
    },
    /// The file system re-resolved a volume's primary and rebuilt its
    /// Subset Control Block, resuming a set operation mid-flight.
    PathSwitch {
        /// The volume whose primary was re-resolved.
        to: String,
        /// True when the re-drive resumed after the last confirmed key
        /// (mid-scan); false when the statement restarted from the top.
        resumed: bool,
    },
    /// A causal span opened (statement root, FS-side request, or DP-side
    /// handling). Span identities are allocated from the shared simulation
    /// context, so identical seeded runs produce identical span trees.
    SpanBegin {
        /// Trace (statement) the span belongs to.
        trace: u64,
        /// This span's id (unique per simulation).
        span: u64,
        /// Parent span id (0 for a root span).
        parent: u64,
        /// What the span covers (statement text kind, request verb, ...).
        label: String,
        /// Entity the span executes on (session, DP process name, ...).
        track: String,
    },
    /// A causal span closed. `wait` is the span's inclusive per-category
    /// virtual-time delta; for a root span it decomposes the statement's
    /// elapsed time exactly.
    SpanEnd {
        /// Trace (statement) the span belongs to.
        trace: u64,
        /// The span that closed.
        span: u64,
        /// Entity the span executed on (mirrors its begin event).
        track: String,
        /// Per-category virtual time accrued while the span was open.
        wait: WaitProfile,
    },
}

/// The perturbation a [`TraceEventKind::FaultInject`] event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The message (or its reply) was lost; the requester saw a timeout.
    Drop,
    /// The request was delivered twice (duplicate suppression territory).
    Duplicate,
    /// Delivery was delayed by extra virtual time.
    Delay,
    /// The exchange was failed with an injected transport error.
    Error,
    /// The target's CPU was failed (server crash mid-request).
    Crash,
}

impl FaultAction {
    /// Short tag used by the sequence formatter.
    pub fn tag(self) -> &'static str {
        match self {
            FaultAction::Drop => "drop",
            FaultAction::Duplicate => "duplicate",
            FaultAction::Delay => "delay",
            FaultAction::Error => "error",
            FaultAction::Crash => "crash",
        }
    }
}

/// One timestamped trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number (survives ring eviction; usable as cursor).
    pub seq: u64,
    /// Virtual time of the event.
    pub at: Micros,
    /// The event itself.
    pub kind: TraceEventKind,
}

#[derive(Default)]
struct Ring {
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    events: VecDeque<TraceEvent>,
}

/// Default ring capacity when [`TraceRecorder::enable`] is called via
/// [`TraceRecorder::enable_default`].
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// A bounded ring buffer of trace events.
///
/// Disabled by default. Emission takes a closure, so that when tracing is
/// off the record is never constructed — the only cost is one relaxed atomic
/// load.
#[derive(Default)]
pub struct TraceRecorder {
    enabled: AtomicBool,
    ring: Mutex<Ring>,
}

impl TraceRecorder {
    /// A disabled recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start recording, keeping at most `capacity` events (oldest dropped).
    pub fn enable(&self, capacity: usize) {
        let mut r = self.ring.lock();
        r.capacity = capacity.max(1);
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Start recording with [`DEFAULT_TRACE_CAPACITY`].
    pub fn enable_default(&self) {
        self.enable(DEFAULT_TRACE_CAPACITY);
    }

    /// Stop recording (already-captured events are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Is the recorder currently capturing?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record an event at virtual time `at`. The closure runs only when
    /// recording is enabled.
    pub(crate) fn emit(&self, at: Micros, make: impl FnOnce() -> TraceEventKind) {
        if !self.is_enabled() {
            return;
        }
        let mut r = self.ring.lock();
        let seq = r.next_seq;
        r.next_seq += 1;
        if r.events.len() >= r.capacity {
            r.events.pop_front();
            r.dropped += 1;
        }
        r.events.push_back(TraceEvent {
            seq,
            at,
            kind: make(),
        });
    }

    /// Sequence number the *next* event will get. Capture before a workload
    /// and pass to [`TraceRecorder::since`] for a per-statement slice.
    pub fn cursor(&self) -> u64 {
        self.ring.lock().next_seq
    }

    /// Events with `seq >= cursor` still present in the ring.
    pub fn since(&self, cursor: u64) -> Vec<TraceEvent> {
        self.ring
            .lock()
            .events
            .iter()
            .filter(|e| e.seq >= cursor)
            .cloned()
            .collect()
    }

    /// Every event currently in the ring.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.lock().events.iter().cloned().collect()
    }

    /// Drop all captured events (sequence numbers keep counting up).
    pub fn clear(&self) {
        self.ring.lock().events.clear();
    }

    /// Events evicted by the ring bound since enabling.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Current ring bound (0 until the recorder is first enabled).
    pub fn capacity(&self) -> usize {
        self.ring.lock().capacity
    }

    /// Re-bound the live ring without touching the enabled flag. Shrinking
    /// below the current occupancy evicts the oldest events into the
    /// dropped count, exactly as organic overflow would.
    pub fn set_capacity(&self, capacity: usize) {
        let mut r = self.ring.lock();
        r.capacity = capacity.max(1);
        while r.events.len() > r.capacity {
            r.events.pop_front();
            r.dropped += 1;
        }
    }
}

// ----------------------------------------------------------------------
// Histograms
// ----------------------------------------------------------------------

const BUCKETS: usize = 65; // bucket b holds values with bit-length b; 0 -> 0

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket `b` counts values `v` with `2^(b-1) <= v < 2^b` (bucket 0 counts
/// zeros), so quantiles are exact to within a factor of two — plenty for
/// "is the p95 message 100 bytes or 4 KB?" questions. Recording is lock-free
/// and never touches the virtual clock or the metric counters.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `b` (the largest value it can hold).
fn bucket_hi(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample. The running sum saturates at `u64::MAX` rather
    /// than wrapping, so `mean()` degrades gracefully on absurd inputs.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`); the exact maximum for the last occupied bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let mut last = 0usize;
        for (b, c) in self.buckets.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c > 0 {
                last = b;
                seen += c;
                if seen >= rank {
                    // The max sample is a tighter bound for the top bucket.
                    return if b == bucket_of(self.max()) {
                        self.max()
                    } else {
                        bucket_hi(b)
                    };
                }
            }
        }
        bucket_hi(last)
    }

    /// The `q`-quantile with linear interpolation inside the containing
    /// log₂ bucket (`q` in `[0, 1]`).
    ///
    /// Where [`Histogram::quantile`] answers with the bucket's upper bound
    /// (exact to within 2×), this spreads the bucket's samples uniformly
    /// over `[lo, hi]` and reads off the rank's position — the estimator
    /// latency curves want. Deterministic: pure integer bucket counts in,
    /// one rounded interpolation out. The top occupied bucket is tightened
    /// to the recorded max so `percentile(1.0) == max()`.
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let mut last = 0usize;
        for (b, c) in self.buckets.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c > 0 {
                last = b;
                if seen + c >= rank {
                    let lo = if b == 0 { 0 } else { 1u64 << (b - 1) };
                    let hi = if b == bucket_of(self.max()) {
                        self.max()
                    } else {
                        bucket_hi(b)
                    };
                    // Position of the rank within this bucket, in (0, 1].
                    let frac = (rank - seen) as f64 / c as f64;
                    let span = (hi - lo) as f64;
                    return lo + (frac * span).round() as u64;
                }
                seen += c;
            }
        }
        bucket_hi(last)
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (bucket upper bound).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile (bucket upper bound).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Occupied buckets as `(lo, hi, count)` ranges, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, c)| {
                let c = c.load(Ordering::Relaxed);
                (c > 0).then(|| {
                    let lo = if b == 0 { 0 } else { 1u64 << (b - 1) };
                    (lo, bucket_hi(b), c)
                })
            })
            .collect()
    }
}

/// The standard distributions every cluster records (always on).
#[derive(Debug, Default)]
pub struct Histograms {
    /// Bytes per message exchange (request + reply).
    pub msg_bytes: Histogram,
    /// Virtual microseconds per SQL statement.
    pub stmt_latency_us: Histogram,
    /// Commits made durable per audit flush (group-commit batch size).
    pub commit_group: Histogram,
    /// Messages per FS-DP continuation chain (1 = no re-drive).
    pub redrive_chain: Histogram,
    /// Per-category wait micros per SQL statement, indexed by
    /// [`Wait::index`]. Only non-zero category deltas are recorded, so each
    /// histogram's count is "statements that waited here at all".
    pub stmt_wait_us: [Histogram; Wait::COUNT],
}

impl Histograms {
    /// All-empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-statement wait histogram for one category.
    pub fn stmt_wait(&self, w: Wait) -> &Histogram {
        &self.stmt_wait_us[w.index()]
    }
}

// ----------------------------------------------------------------------
// Figure-2-style sequence formatter
// ----------------------------------------------------------------------

/// Render a trace slice as a message-sequence diagram in the style of the
/// paper's Figure 2 (requester on the left, Disk Processes on the right).
///
/// Message exchanges render as one arrow line each; disk I/O, audit flushes
/// and lock waits render as indented side notes under the exchange that
/// caused them. Example:
///
/// ```text
/// [     512 µs] \0.0 ──GetSubsetFirst(148 B)──▶ $DATA1   ◀──(4052 B reply)── [FS-DP]
///                  · $DATA1 disk read, 8 block(s) (bulk)
/// [    1536 µs] \0.0 ──GetSubsetNext(44 B)──▶ $DATA1   ◀──(4052 B reply)── [FS-DP re-drive]
/// ```
pub fn format_sequence(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        match &e.kind {
            TraceEventKind::Msg {
                class,
                label,
                from,
                to,
                req_bytes,
                reply_bytes,
                remote,
            } => {
                let name = if label.is_empty() { "request" } else { label };
                let net = if *remote { ", remote" } else { "" };
                let _ = writeln!(
                    out,
                    "[{:>8} µs] {from} ──{name}({req_bytes} B)──▶ {to}   ◀──({reply_bytes} B reply)── [{}{net}]",
                    e.at,
                    class.tag(),
                );
            }
            TraceEventKind::DiskIo {
                volume,
                write,
                blocks,
                synchronous,
            } => {
                let _ = writeln!(
                    out,
                    "               · {volume} disk {}, {blocks} block(s){}{}",
                    if *write { "write" } else { "read" },
                    if *blocks > 1 { " (bulk)" } else { "" },
                    if *synchronous { "" } else { " (async)" },
                );
            }
            TraceEventKind::LockWait { txn, deadlock } => {
                let _ = writeln!(
                    out,
                    "               · txn {txn} lock wait{}",
                    if *deadlock { " -> deadlock victim" } else { "" },
                );
            }
            TraceEventKind::CacheEvict { frames } => {
                let _ = writeln!(out, "               · cache evicted {frames} frame(s)");
            }
            TraceEventKind::Prefetch { blocks } => {
                let _ = writeln!(out, "               · prefetch {blocks} block(s) ahead");
            }
            TraceEventKind::AuditFlush {
                records,
                bytes,
                commits,
                buffer_full,
            } => {
                let _ = writeln!(
                    out,
                    "[{:>8} µs] AUDIT flush: {records} record(s), {bytes} B, {commits} commit(s){}",
                    e.at,
                    if *buffer_full { " (buffer full)" } else { "" },
                );
            }
            TraceEventKind::AuditTorn { records, bytes } => {
                let _ = writeln!(
                    out,
                    "[{:>8} µs] AUDIT torn tail: {records} record(s) / {bytes} B truncated",
                    e.at,
                );
            }
            TraceEventKind::Remirror { volume, blocks } => {
                let _ = writeln!(
                    out,
                    "[{:>8} µs]      ⊕ disk.remirror: {volume} copy-back, {blocks} block(s)",
                    e.at,
                );
            }
            TraceEventKind::TxnCommit { txn } => {
                let _ = writeln!(out, "[{:>8} µs] txn {txn} COMMIT", e.at);
            }
            TraceEventKind::TxnAbort { txn } => {
                let _ = writeln!(out, "[{:>8} µs] txn {txn} ABORT", e.at);
            }
            TraceEventKind::FaultInject { action, label, to } => {
                let name = if label.is_empty() { "request" } else { label };
                let _ = writeln!(
                    out,
                    "[{:>8} µs]      ✕ fault: {} {name} ──▶ {to}",
                    e.at,
                    action.tag(),
                );
            }
            TraceEventKind::Retry {
                label,
                to,
                attempt,
                backoff_us,
            } => {
                let name = if label.is_empty() { "request" } else { label };
                let _ = writeln!(
                    out,
                    "[{:>8} µs]      ↻ retry #{attempt}: {name} ──▶ {to} (backoff {backoff_us} µs)",
                    e.at,
                );
            }
            TraceEventKind::PathSwitch { to, resumed } => {
                let _ = writeln!(
                    out,
                    "[{:>8} µs]      ⇄ path switch: {to} SCB rebuilt{}",
                    e.at,
                    if *resumed {
                        ", resumed after last confirmed key"
                    } else {
                        ""
                    },
                );
            }
            TraceEventKind::SpanBegin {
                trace,
                span,
                parent,
                label,
                track,
            } => {
                let _ = writeln!(
                    out,
                    "[{:>8} µs]      ▷ span #{span} open: {label} on {track} (trace {trace}, parent #{parent})",
                    e.at,
                );
            }
            TraceEventKind::SpanEnd { span, wait, .. } => {
                let _ = writeln!(out, "[{:>8} µs]      ◁ span #{span} close: {wait}", e.at);
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// Chrome trace-event export
// ----------------------------------------------------------------------

/// The track (rendered as a Perfetto "process" row) an event belongs to.
fn chrome_track(kind: &TraceEventKind) -> String {
    match kind {
        TraceEventKind::Msg { to, .. }
        | TraceEventKind::FaultInject { to, .. }
        | TraceEventKind::Retry { to, .. }
        | TraceEventKind::PathSwitch { to, .. } => to.clone(),
        TraceEventKind::DiskIo { volume, .. } | TraceEventKind::Remirror { volume, .. } => {
            format!("{volume} (disk)")
        }
        TraceEventKind::CacheEvict { .. } | TraceEventKind::Prefetch { .. } => "cache".into(),
        TraceEventKind::LockWait { .. }
        | TraceEventKind::TxnCommit { .. }
        | TraceEventKind::TxnAbort { .. } => "TMF".into(),
        TraceEventKind::AuditFlush { .. } | TraceEventKind::AuditTorn { .. } => {
            "audit trail".into()
        }
        TraceEventKind::SpanBegin { track, .. } | TraceEventKind::SpanEnd { track, .. } => {
            track.clone()
        }
    }
}

const AUDIT_TORN: &str = "audit.torn";
const DISK_REMIRROR: &str = "disk.remirror";

/// The record names that are dotted like counter names, and so share their
/// registry in `lint.toml`.
pub const DOTTED_RECORD_NAMES: [&str; 2] = [AUDIT_TORN, DISK_REMIRROR];

/// Event name, category, and pre-rendered JSON `args` body.
fn chrome_describe(kind: &TraceEventKind) -> (String, &'static str, String) {
    use crate::measure::json_str as js;
    match kind {
        TraceEventKind::Msg {
            class,
            label,
            from,
            to,
            req_bytes,
            reply_bytes,
            remote,
        } => (
            if label.is_empty() {
                "request".into()
            } else {
                label.clone()
            },
            "msg",
            format!(
                "\"class\": {}, \"from\": {}, \"to\": {}, \"req_bytes\": {req_bytes}, \
                 \"reply_bytes\": {reply_bytes}, \"remote\": {remote}",
                js(class.tag()),
                js(from),
                js(to)
            ),
        ),
        TraceEventKind::DiskIo {
            volume,
            write,
            blocks,
            synchronous,
        } => (
            format!("disk {}", if *write { "write" } else { "read" }),
            "disk",
            format!(
                "\"volume\": {}, \"blocks\": {blocks}, \"synchronous\": {synchronous}",
                js(volume)
            ),
        ),
        TraceEventKind::LockWait { txn, deadlock } => (
            "lock wait".into(),
            "lock",
            format!("\"txn\": {txn}, \"deadlock\": {deadlock}"),
        ),
        TraceEventKind::CacheEvict { frames } => (
            "cache evict".into(),
            "cache",
            format!("\"frames\": {frames}"),
        ),
        TraceEventKind::Prefetch { blocks } => {
            ("prefetch".into(), "cache", format!("\"blocks\": {blocks}"))
        }
        TraceEventKind::AuditFlush {
            records,
            bytes,
            commits,
            buffer_full,
        } => (
            "audit flush".into(),
            "audit",
            format!(
                "\"records\": {records}, \"bytes\": {bytes}, \"commits\": {commits}, \
                 \"buffer_full\": {buffer_full}"
            ),
        ),
        TraceEventKind::AuditTorn { records, bytes } => (
            AUDIT_TORN.into(),
            "audit",
            format!("\"records\": {records}, \"bytes\": {bytes}"),
        ),
        TraceEventKind::Remirror { volume, blocks } => (
            DISK_REMIRROR.into(),
            "disk",
            format!("\"volume\": {}, \"blocks\": {blocks}", js(volume)),
        ),
        TraceEventKind::TxnCommit { txn } => {
            ("txn commit".into(), "txn", format!("\"txn\": {txn}"))
        }
        TraceEventKind::TxnAbort { txn } => ("txn abort".into(), "txn", format!("\"txn\": {txn}")),
        TraceEventKind::FaultInject { action, label, to } => (
            format!("fault: {}", action.tag()),
            "fault",
            format!("\"label\": {}, \"to\": {}", js(label), js(to)),
        ),
        TraceEventKind::Retry {
            label,
            to,
            attempt,
            backoff_us,
        } => (
            format!("retry #{attempt}"),
            "fault",
            format!(
                "\"label\": {}, \"to\": {}, \"backoff_us\": {backoff_us}",
                js(label),
                js(to)
            ),
        ),
        TraceEventKind::PathSwitch { to, resumed } => (
            "path switch".into(),
            "fault",
            format!("\"to\": {}, \"resumed\": {resumed}", js(to)),
        ),
        TraceEventKind::SpanBegin {
            trace,
            span,
            parent,
            label,
            ..
        } => (
            label.clone(),
            "span",
            format!("\"trace\": {trace}, \"span\": {span}, \"parent\": {parent}"),
        ),
        TraceEventKind::SpanEnd {
            trace, span, wait, ..
        } => {
            let mut args = format!("\"trace\": {trace}, \"span\": {span}");
            for (w, us) in wait.iter() {
                let _ = write!(args, ", {}: {us}", js(w.name()));
            }
            ("span end".into(), "span", args)
        }
    }
}

/// Render a trace slice as Chrome trace-event JSON (the `chrome://tracing` /
/// Perfetto interchange format).
///
/// Virtual microseconds map directly onto the format's `ts` field (also
/// microseconds), so the Perfetto timeline *is* the virtual timeline. Each
/// target entity (DP process, volume, the audit trail, TMF) becomes one
/// `pid` track named by a metadata event; every [`TraceEvent`] becomes a
/// thread-scoped instant event carrying its fields as `args` — except causal
/// spans, which render as `B`/`E` duration slices, with a flow-event pair
/// (`ph: "s"`/`"f"`, id = the child span) drawing the causal arrow whenever
/// a span's parent ran on a different track (the FS→DP hop).
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    use crate::measure::json_str as js;
    use std::collections::BTreeMap;
    let mut tracks: BTreeMap<String, u64> = BTreeMap::new();
    let mut span_track: BTreeMap<u64, String> = BTreeMap::new();
    for e in events {
        let n = tracks.len() as u64;
        tracks.entry(chrome_track(&e.kind)).or_insert(n + 1);
        if let TraceEventKind::SpanBegin { span, track, .. } = &e.kind {
            span_track.insert(*span, track.clone());
        }
    }
    // Re-number sorted so pid order is name order, independent of arrival.
    for (i, pid) in tracks.values_mut().enumerate() {
        *pid = i as u64 + 1;
    }
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    let mut first = true;
    for (name, pid) in &tracks {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"name\": {}}}}}",
            js(name)
        );
    }
    for e in events {
        let pid = tracks[&chrome_track(&e.kind)];
        let (name, cat, args) = chrome_describe(&e.kind);
        let ph = match &e.kind {
            TraceEventKind::SpanBegin { .. } => "B",
            TraceEventKind::SpanEnd { .. } => "E",
            _ => "i",
        };
        let scope = if ph == "i" { "\"s\": \"t\", " } else { "" };
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n{{\"name\": {}, \"cat\": \"{cat}\", \"ph\": \"{ph}\", {scope}\"ts\": {}, \
             \"pid\": {pid}, \"tid\": 0, \"args\": {{\"seq\": {}{}{args}}}}}",
            js(&name),
            e.at,
            e.seq,
            if args.is_empty() { "" } else { ", " },
        );
        // Causal arrow: when this span's parent ran on another track, emit a
        // flow pair from the parent's slice to this one (id = child span).
        if let TraceEventKind::SpanBegin {
            span,
            parent,
            track,
            ..
        } = &e.kind
        {
            if *parent != 0 {
                if let Some(ptrack) = span_track.get(parent) {
                    if ptrack != track {
                        let ppid = tracks[ptrack];
                        let _ = write!(
                            out,
                            ",\n{{\"name\": \"span flow\", \"cat\": \"span\", \"ph\": \"s\", \
                             \"id\": {span}, \"ts\": {}, \"pid\": {ppid}, \"tid\": 0}},\
                             \n{{\"name\": \"span flow\", \"cat\": \"span\", \"ph\": \"f\", \
                             \"bp\": \"e\", \"id\": {span}, \"ts\": {}, \"pid\": {pid}, \
                             \"tid\": 0}}",
                            e.at, e.at,
                        );
                    }
                }
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

// ----------------------------------------------------------------------
// Span-tree assembly
// ----------------------------------------------------------------------

/// One node of an assembled causal span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Trace (statement) the span belongs to.
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// Parent span id (0 for a root).
    pub parent: u64,
    /// What the span covers.
    pub label: String,
    /// Entity the span executed on.
    pub track: String,
    /// Virtual time the span opened.
    pub begin: Micros,
    /// Virtual time the span closed (equals `begin` if the end event was
    /// never captured).
    pub end: Micros,
    /// Inclusive per-category virtual time accrued while the span was open.
    pub wait: WaitProfile,
    /// Child spans, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Inclusive elapsed virtual time.
    pub fn elapsed(&self) -> Micros {
        self.end.saturating_sub(self.begin)
    }

    /// Wait attributed to this span but to none of its children — the
    /// span's own critical-path contribution. Children nest strictly inside
    /// their parent on the synchronous bus, so subtracting their inclusive
    /// profiles never underflows.
    pub fn self_wait(&self) -> WaitProfile {
        let mut w = self.wait;
        for c in &self.children {
            w = w - c.wait;
        }
        w
    }
}

/// Assemble the span begin/end events of a trace slice into trees, one root
/// per statement (plus one per orphan whose parent was evicted from the
/// ring). Nodes appear in open order at every level, so identical seeded
/// runs assemble identical trees.
pub fn assemble_spans(events: &[TraceEvent]) -> Vec<SpanNode> {
    use std::collections::HashMap;
    let mut nodes: Vec<Option<SpanNode>> = Vec::new();
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    for e in events {
        match &e.kind {
            TraceEventKind::SpanBegin {
                trace,
                span,
                parent,
                label,
                track,
            } => {
                by_id.insert(*span, nodes.len());
                nodes.push(Some(SpanNode {
                    trace: *trace,
                    span: *span,
                    parent: *parent,
                    label: label.clone(),
                    track: track.clone(),
                    begin: e.at,
                    end: e.at,
                    wait: WaitProfile::default(),
                    children: Vec::new(),
                }));
            }
            TraceEventKind::SpanEnd { span, wait, .. } => {
                if let Some(n) = by_id.get(span).and_then(|&i| nodes[i].as_mut()) {
                    n.end = e.at;
                    n.wait = *wait;
                }
            }
            _ => {}
        }
    }
    // A child always opens after its parent, so walking indices in reverse
    // attaches every subtree before its parent is consumed.
    let mut roots = Vec::new();
    for i in (0..nodes.len()).rev() {
        let Some(node) = nodes[i].take() else {
            continue;
        };
        let attached = node.parent != 0
            && match by_id.get(&node.parent) {
                Some(&p) if p != i => {
                    if let Some(parent) = nodes[p].as_mut() {
                        parent.children.insert(0, node.clone());
                        true
                    } else {
                        false
                    }
                }
                _ => false,
            };
        if !attached {
            roots.insert(0, node);
        }
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(label: &str) -> TraceEventKind {
        TraceEventKind::Msg {
            class: TraceMsgClass::FsDp,
            label: label.into(),
            from: "\\0.0".into(),
            to: "$DATA1".into(),
            req_bytes: 100,
            reply_bytes: 4000,
            remote: false,
        }
    }

    #[test]
    fn disabled_recorder_never_runs_the_closure() {
        let t = TraceRecorder::new();
        let mut ran = false;
        t.emit(0, || {
            ran = true;
            msg("X")
        });
        assert!(!ran);
        assert!(t.events().is_empty());
        assert_eq!(t.cursor(), 0);
    }

    #[test]
    fn ring_is_bounded_and_seq_survives_eviction() {
        let t = TraceRecorder::new();
        t.enable(4);
        for i in 0..10u64 {
            t.emit(i, || msg("X"));
        }
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs.first().unwrap().seq, 6);
        assert_eq!(evs.last().unwrap().seq, 9);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.cursor(), 10);
        assert_eq!(t.since(8).len(), 2);
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        // p50 of 1..=100 lands in bucket [33, 64]; p99 and max in [65, 128],
        // where the true max (100) is the reported bound.
        assert_eq!(h.p50(), 63);
        assert_eq!(h.p99(), 100);
        assert_eq!(h.quantile(1.0), 100);
        assert!(h.buckets().iter().map(|(_, _, c)| c).sum::<u64>() == 100);
    }

    #[test]
    fn percentile_interpolates_within_buckets() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Uniform 1..=100 fills every log2 bucket proportionally, so linear
        // interpolation lands on (nearly) the exact order statistics —
        // unlike quantile(), which answers with bucket upper bounds.
        assert_eq!(h.percentile(0.50), 50);
        assert_eq!(h.percentile(0.95), 95);
        assert_eq!(h.percentile(0.99), 99);
        assert_eq!(h.percentile(0.999), 100);
        assert_eq!(h.percentile(1.0), h.max());
    }

    #[test]
    fn percentile_pinned_on_known_bucket_fill() {
        let h = Histogram::new();
        h.record(0); // bucket 0: [0, 0]
        for _ in 0..4 {
            h.record(10); // bucket 4: [8, 15]
        }
        for _ in 0..5 {
            h.record(1000); // bucket 10: [512, 1023], tightened to max 1000
        }
        assert_eq!(h.percentile(0.1), 0);
        // rank 5 is the last of bucket 4's four samples: frac 4/4 -> hi.
        assert_eq!(h.percentile(0.5), 15);
        // rank 9 sits 4/5 into [512, 1000]: 512 + 0.8 * 488 = 902.
        assert_eq!(h.percentile(0.9), 902);
        assert_eq!(h.percentile(1.0), 1000);
        // A single sample is its own every-percentile.
        let one = Histogram::new();
        one.record(37);
        assert_eq!(one.percentile(0.0), 37);
        assert_eq!(one.percentile(0.5), 37);
        assert_eq!(one.percentile(1.0), 37);
        // Empty histograms report zero.
        assert_eq!(Histogram::new().percentile(0.5), 0);
    }

    #[test]
    fn set_capacity_trims_oldest_into_dropped() {
        let t = TraceRecorder::new();
        t.enable(8);
        for i in 0..8u64 {
            t.emit(i, || msg("X"));
        }
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.capacity(), 8);
        // Shrinking evicts the oldest events, charging the dropped count.
        t.set_capacity(3);
        assert_eq!(t.capacity(), 3);
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs.first().unwrap().seq, 5);
        assert_eq!(t.dropped(), 5);
        // Subsequent emits keep honouring the new bound.
        t.emit(8, || msg("X"));
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.dropped(), 6);
        // Capacity zero clamps to one rather than wedging the ring.
        t.set_capacity(0);
        assert_eq!(t.capacity(), 1);
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn single_sample_histogram_reports_it_everywhere() {
        let h = Histogram::new();
        h.record(37);
        assert_eq!(h.count(), 1);
        // One sample is its own p50, p99, and max (top-bucket tightening).
        assert_eq!(h.p50(), 37);
        assert_eq!(h.p99(), 37);
        assert_eq!(h.quantile(0.0), 37);
        assert_eq!(h.max(), 37);
        assert_eq!(h.buckets(), vec![(32, 63, 1)]);
    }

    #[test]
    fn top_bucket_values_saturate_max_and_p99_consistently() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        // Both land in the open-topped bucket 64; max() and every upper
        // quantile agree on the true max instead of an overflowed bound.
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.p99(), u64::MAX);
        assert_eq!(h.quantile(1.0), h.max());
        assert_eq!(h.buckets(), vec![(1u64 << 63, u64::MAX, 2)]);
        // The running sum saturates instead of wrapping.
        assert_eq!(h.sum(), u64::MAX);
        h.record(100);
        assert_eq!(h.sum(), u64::MAX);
        // A mid-bucket quantile still reports its own bucket's bound.
        assert_eq!(h.quantile(0.0), 127);
    }

    #[test]
    fn chrome_trace_export_shape() {
        let events = vec![
            TraceEvent {
                seq: 0,
                at: 512,
                kind: msg("GetSubsetFirst"),
            },
            TraceEvent {
                seq: 1,
                at: 600,
                kind: TraceEventKind::DiskIo {
                    volume: "$DATA1".into(),
                    write: false,
                    blocks: 8,
                    synchronous: true,
                },
            },
            TraceEvent {
                seq: 2,
                at: 800,
                kind: TraceEventKind::TxnCommit { txn: 7 },
            },
        ];
        let json = chrome_trace(&events);
        // Three tracks, named by metadata events, pids in name order.
        assert!(json.contains("\"name\": \"process_name\""), "{json}");
        assert!(json.contains("\"name\": \"$DATA1\""), "{json}");
        assert!(json.contains("\"name\": \"$DATA1 (disk)\""), "{json}");
        assert!(json.contains("\"name\": \"TMF\""), "{json}");
        // Events carry virtual-time ts and their fields as args.
        assert!(json.contains("\"ts\": 512"), "{json}");
        assert!(
            json.contains("\"name\": \"GetSubsetFirst\", \"cat\": \"msg\""),
            "{json}"
        );
        assert!(json.contains("\"req_bytes\": 100"), "{json}");
        assert!(json.contains("\"blocks\": 8"), "{json}");
        assert!(json.contains("\"txn\": 7"), "{json}");
        // Balanced JSON delimiters (cheap well-formedness check).
        let braces = json.matches('{').count() == json.matches('}').count();
        assert!(braces, "{json}");
    }

    fn span_begin(
        seq: u64,
        at: Micros,
        span: u64,
        parent: u64,
        label: &str,
        track: &str,
    ) -> TraceEvent {
        TraceEvent {
            seq,
            at,
            kind: TraceEventKind::SpanBegin {
                trace: 1,
                span,
                parent,
                label: label.into(),
                track: track.into(),
            },
        }
    }

    fn span_end(seq: u64, at: Micros, span: u64, track: &str, wait: WaitProfile) -> TraceEvent {
        TraceEvent {
            seq,
            at,
            kind: TraceEventKind::SpanEnd {
                trace: 1,
                span,
                track: track.into(),
                wait,
            },
        }
    }

    /// A statement span on the session track with one FS→DP request span
    /// nested inside it, and a DP handling span inside that.
    fn span_fixture() -> Vec<TraceEvent> {
        let mut disk = WaitProfile::default();
        disk.us[Wait::Disk.index()] = 22;
        let mut msg = disk;
        msg.us[Wait::Msg.index()] = 6;
        let mut root = msg;
        root.us[Wait::Cpu.index()] = 3;
        vec![
            span_begin(0, 0, 1, 0, "SELECT", "session 1"),
            span_begin(1, 2, 2, 1, "GetSubsetFirst", "$DATA1"),
            span_begin(2, 5, 3, 2, "GetSubsetFirst handler", "$DATA1"),
            span_end(3, 27, 3, "$DATA1", disk),
            span_end(4, 31, 2, "$DATA1", msg),
            span_end(5, 31, 1, "session 1", root),
        ]
    }

    #[test]
    fn spans_assemble_into_a_tree_with_exact_self_waits() {
        let roots = assemble_spans(&span_fixture());
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!(
            (root.span, root.parent, root.label.as_str()),
            (1, 0, "SELECT")
        );
        assert_eq!(root.elapsed(), 31);
        assert_eq!(
            root.wait.total(),
            31,
            "root profile covers its elapsed time"
        );
        assert_eq!(root.children.len(), 1);
        let req = &root.children[0];
        assert_eq!(req.label, "GetSubsetFirst");
        assert_eq!(req.children.len(), 1);
        let handler = &req.children[0];
        assert_eq!(handler.wait.get(Wait::Disk), 22);
        // Exclusive profiles: the request span's own time is the message hop,
        // the root's own time is its CPU service.
        assert_eq!(req.self_wait().get(Wait::Msg), 6);
        assert_eq!(req.self_wait().get(Wait::Disk), 0);
        assert_eq!(root.self_wait().get(Wait::Cpu), 3);
    }

    #[test]
    fn orphaned_spans_become_roots() {
        // The parent's begin was evicted from the ring: the child still
        // assembles, as a root.
        let evs = span_fixture()[1..].to_vec();
        let roots = assemble_spans(&evs);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].span, 2);
        assert_eq!(roots[0].children.len(), 1);
    }

    #[test]
    fn chrome_trace_renders_spans_with_flow_arrows() {
        let json = chrome_trace(&span_fixture());
        // Spans render as duration slices on their own tracks.
        assert!(
            json.contains("\"name\": \"SELECT\", \"cat\": \"span\", \"ph\": \"B\""),
            "{json}"
        );
        assert!(json.contains("\"ph\": \"E\""), "{json}");
        assert!(json.contains("\"name\": \"session 1\""), "{json}");
        // The cross-track FS→DP hop gets a flow pair keyed by the child span;
        // the same-track DP handler span does not.
        assert!(json.contains("\"ph\": \"s\", \"id\": 2"), "{json}");
        assert!(
            json.contains("\"ph\": \"f\", \"bp\": \"e\", \"id\": 2"),
            "{json}"
        );
        assert!(!json.contains("\"id\": 3"), "{json}");
        // Wait categories ride the end event's args under their lint names.
        assert!(json.contains("\"wait.disk\": 22"), "{json}");
        // Balanced delimiters and one B per E (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches("\"ph\": \"B\"").count(),
            json.matches("\"ph\": \"E\"").count(),
            "{json}"
        );
    }

    #[test]
    fn histogram_zero_bucket() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(1);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 1);
        assert_eq!(h.buckets()[0], (0, 0, 2));
    }

    #[test]
    fn sequence_formatter_shapes() {
        let events = vec![
            TraceEvent {
                seq: 0,
                at: 512,
                kind: msg("GetSubsetFirst"),
            },
            TraceEvent {
                seq: 1,
                at: 600,
                kind: TraceEventKind::DiskIo {
                    volume: "$DATA1".into(),
                    write: false,
                    blocks: 8,
                    synchronous: true,
                },
            },
            TraceEvent {
                seq: 2,
                at: 900,
                kind: msg("GetSubsetNext"),
            },
        ];
        let s = format_sequence(&events);
        assert!(s.contains("──GetSubsetFirst(100 B)──▶ $DATA1"));
        assert!(s.contains("disk read, 8 block(s) (bulk)"));
        let first = s.find("GetSubsetFirst").unwrap();
        let next = s.find("GetSubsetNext").unwrap();
        assert!(first < next, "events render in order");
    }
}
