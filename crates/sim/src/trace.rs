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
//! * [`TraceEventKind::describe`] — what a record says about itself, once:
//!   its kind, Chrome track, name, category, typed fields and Figure-2
//!   line. Every renderer reads it, so a new kind is one arm there.
//! * [`format_sequence`] — renders a trace slice as the paper's
//!   Figure-2-style FS ↔ DP message-sequence diagram, used by tests to
//!   assert message *patterns* rather than just counts; [`chrome_trace`]
//!   renders it for Perfetto.

use crate::clock::{Micros, WaitProfile};
use crate::measure::json_str;
use crate::sync::Mutex;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};

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

    /// Start recording, keeping at most `capacity` events: the ring is
    /// bounded by [`TraceRecorder::set_capacity`], so events already held
    /// beyond it are dropped oldest first.
    pub fn enable(&self, capacity: usize) {
        self.set_capacity(capacity);
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Start recording with [`DEFAULT_TRACE_CAPACITY`].
    pub fn enable_default(&self) {
        self.enable(DEFAULT_TRACE_CAPACITY);
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
// What a record says about itself
// ----------------------------------------------------------------------

/// A typed field of a record, as its Chrome event's `args` carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Field<'a> {
    /// A name (a JSON string).
    Str(&'a str),
    /// A count.
    Num(u64),
    /// A flag.
    Flag(bool),
}

impl fmt::Display for Field<'_> {
    /// The field as a JSON value.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Str(s) => f.write_str(&json_str(s)),
            Field::Num(n) => write!(f, "{n}"),
            Field::Flag(b) => write!(f, "{b}"),
        }
    }
}

/// A record's line in the Figure-2 diagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Line {
    /// A line of its own, stamped with the record's virtual time.
    Stamped(String),
    /// An indented side note under the exchange that caused it.
    Note(String),
}

/// What a record says about itself — the one description that
/// [`format_sequence`], [`chrome_trace`] and `sys.trace` read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Description<'a> {
    /// The record's kind: its variant's name (`sys.trace`'s `KIND`).
    pub variant: &'static str,
    /// The entity it happened on: a Chrome track (a Perfetto process row).
    pub(crate) track: Cow<'a, str>,
    /// Its Chrome event name.
    pub(crate) name: Cow<'a, str>,
    /// Its Chrome event category.
    pub(crate) category: &'static str,
    /// Its typed fields, in the order its Chrome event's `args` list them.
    pub(crate) fields: Vec<(&'static str, Field<'a>)>,
    /// Its line in the Figure-2 diagram.
    pub(crate) line: Line,
}

/// A request's label, or `request` when the sender gave none.
fn or_request(label: &str) -> &str {
    if label.is_empty() {
        "request"
    } else {
        label
    }
}

impl TraceEventKind {
    /// Describe this record. The one place a kind says what it is: a new
    /// kind adds one arm here, and every renderer follows.
    pub fn describe(&self) -> Description<'_> {
        use Field::{Flag, Num, Str};
        use Line::{Note, Stamped};
        match self {
            TraceEventKind::Msg {
                class,
                label,
                from,
                to,
                req_bytes,
                reply_bytes,
                remote,
            } => Description {
                variant: "Msg",
                track: to.into(),
                name: or_request(label).into(),
                category: "msg",
                fields: vec![
                    ("class", Str(class.tag())),
                    ("from", Str(from)),
                    ("to", Str(to)),
                    ("req_bytes", Num(*req_bytes)),
                    ("reply_bytes", Num(*reply_bytes)),
                    ("remote", Flag(*remote)),
                ],
                line: Stamped(format!(
                    "{from} ──{}({req_bytes} B)──▶ {to}   ◀──({reply_bytes} B reply)── [{}{}]",
                    or_request(label),
                    class.tag(),
                    if *remote { ", remote" } else { "" },
                )),
            },
            TraceEventKind::DiskIo {
                volume,
                write,
                blocks,
                synchronous,
            } => {
                let rw = if *write { "write" } else { "read" };
                Description {
                    variant: "DiskIo",
                    track: format!("{volume} (disk)").into(),
                    name: format!("disk {rw}").into(),
                    category: "disk",
                    fields: vec![
                        ("volume", Str(volume)),
                        ("blocks", Num(*blocks)),
                        ("synchronous", Flag(*synchronous)),
                    ],
                    line: Note(format!(
                        "{volume} disk {rw}, {blocks} block(s){}{}",
                        if *blocks > 1 { " (bulk)" } else { "" },
                        if *synchronous { "" } else { " (async)" },
                    )),
                }
            }
            TraceEventKind::LockWait { txn, deadlock } => Description {
                variant: "LockWait",
                track: "TMF".into(),
                name: "lock wait".into(),
                category: "lock",
                fields: vec![("txn", Num(*txn)), ("deadlock", Flag(*deadlock))],
                line: Note(format!(
                    "txn {txn} lock wait{}",
                    if *deadlock { " -> deadlock victim" } else { "" },
                )),
            },
            TraceEventKind::CacheEvict { frames } => Description {
                variant: "CacheEvict",
                track: "cache".into(),
                name: "cache evict".into(),
                category: "cache",
                fields: vec![("frames", Num(*frames))],
                line: Note(format!("cache evicted {frames} frame(s)")),
            },
            TraceEventKind::Prefetch { blocks } => Description {
                variant: "Prefetch",
                track: "cache".into(),
                name: "prefetch".into(),
                category: "cache",
                fields: vec![("blocks", Num(*blocks))],
                line: Note(format!("prefetch {blocks} block(s) ahead")),
            },
            TraceEventKind::AuditFlush {
                records,
                bytes,
                commits,
                buffer_full,
            } => Description {
                variant: "AuditFlush",
                track: "audit trail".into(),
                name: "audit flush".into(),
                category: "audit",
                fields: vec![
                    ("records", Num(*records)),
                    ("bytes", Num(*bytes)),
                    ("commits", Num(*commits)),
                    ("buffer_full", Flag(*buffer_full)),
                ],
                line: Stamped(format!(
                    "AUDIT flush: {records} record(s), {bytes} B, {commits} commit(s){}",
                    if *buffer_full { " (buffer full)" } else { "" },
                )),
            },
            TraceEventKind::AuditTorn { records, bytes } => Description {
                variant: "AuditTorn",
                track: "audit trail".into(),
                name: "audit.torn".into(),
                category: "audit",
                fields: vec![("records", Num(*records)), ("bytes", Num(*bytes))],
                line: Stamped(format!(
                    "AUDIT torn tail: {records} record(s) / {bytes} B truncated"
                )),
            },
            TraceEventKind::Remirror { volume, blocks } => Description {
                variant: "Remirror",
                track: format!("{volume} (disk)").into(),
                name: "disk.remirror".into(),
                category: "disk",
                fields: vec![("volume", Str(volume)), ("blocks", Num(*blocks))],
                line: Stamped(format!(
                    "     ⊕ disk.remirror: {volume} copy-back, {blocks} block(s)"
                )),
            },
            TraceEventKind::TxnCommit { txn } => Description {
                variant: "TxnCommit",
                track: "TMF".into(),
                name: "txn commit".into(),
                category: "txn",
                fields: vec![("txn", Num(*txn))],
                line: Stamped(format!("txn {txn} COMMIT")),
            },
            TraceEventKind::TxnAbort { txn } => Description {
                variant: "TxnAbort",
                track: "TMF".into(),
                name: "txn abort".into(),
                category: "txn",
                fields: vec![("txn", Num(*txn))],
                line: Stamped(format!("txn {txn} ABORT")),
            },
            TraceEventKind::FaultInject { action, label, to } => Description {
                variant: "FaultInject",
                track: to.into(),
                name: format!("fault: {}", action.tag()).into(),
                category: "fault",
                fields: vec![("label", Str(label)), ("to", Str(to))],
                line: Stamped(format!(
                    "     ✕ fault: {} {} ──▶ {to}",
                    action.tag(),
                    or_request(label),
                )),
            },
            TraceEventKind::Retry {
                label,
                to,
                attempt,
                backoff_us,
            } => Description {
                variant: "Retry",
                track: to.into(),
                name: format!("retry #{attempt}").into(),
                category: "fault",
                fields: vec![
                    ("label", Str(label)),
                    ("to", Str(to)),
                    ("backoff_us", Num(*backoff_us)),
                ],
                line: Stamped(format!(
                    "     ↻ retry #{attempt}: {} ──▶ {to} (backoff {backoff_us} µs)",
                    or_request(label),
                )),
            },
            TraceEventKind::PathSwitch { to, resumed } => Description {
                variant: "PathSwitch",
                track: to.into(),
                name: "path switch".into(),
                category: "fault",
                fields: vec![("to", Str(to)), ("resumed", Flag(*resumed))],
                line: Stamped(format!(
                    "     ⇄ path switch: {to} SCB rebuilt{}",
                    if *resumed {
                        ", resumed after last confirmed key"
                    } else {
                        ""
                    },
                )),
            },
            TraceEventKind::SpanBegin {
                trace,
                span,
                parent,
                label,
                track,
            } => Description {
                variant: "SpanBegin",
                track: track.into(),
                name: label.into(),
                category: "span",
                fields: vec![
                    ("trace", Num(*trace)),
                    ("span", Num(*span)),
                    ("parent", Num(*parent)),
                ],
                line: Stamped(format!(
                    "     ▷ span #{span} open: {label} on {track} (trace {trace}, parent #{parent})"
                )),
            },
            TraceEventKind::SpanEnd {
                trace,
                span,
                track,
                wait,
            } => Description {
                variant: "SpanEnd",
                track: track.into(),
                name: "span end".into(),
                category: "span",
                fields: [("trace", Num(*trace)), ("span", Num(*span))]
                    .into_iter()
                    .chain(wait.iter().map(|(w, us)| (w.name(), Num(us))))
                    .collect(),
                line: Stamped(format!("     ◁ span #{span} close: {wait}")),
            },
        }
    }
}

// ----------------------------------------------------------------------
// Figure-2-style sequence formatter
// ----------------------------------------------------------------------

/// Render a trace slice as a message-sequence diagram in the style of the
/// paper's Figure 2 (requester on the left, Disk Processes on the right).
///
/// Message exchanges render as one arrow line each; disk I/O, cache
/// activity and lock waits render as indented side notes under the
/// exchange that caused them, as each record's description says.
/// Example:
///
/// ```text
/// [     512 µs] \0.0 ──GetSubsetFirst(148 B)──▶ $DATA1   ◀──(4052 B reply)── [FS-DP]
///                  · $DATA1 disk read, 8 block(s) (bulk)
/// [    1536 µs] \0.0 ──GetSubsetNext(44 B)──▶ $DATA1   ◀──(4052 B reply)── [FS-DP re-drive]
/// ```
pub fn format_sequence(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let _ = match e.kind.describe().line {
            Line::Stamped(text) => writeln!(out, "[{:>8} µs] {text}", e.at),
            Line::Note(text) => writeln!(out, "               · {text}"),
        };
    }
    out
}

// ----------------------------------------------------------------------
// Chrome trace-event export
// ----------------------------------------------------------------------

/// Render a trace slice as Chrome trace-event JSON (the `chrome://tracing` /
/// Perfetto interchange format).
///
/// Virtual microseconds map directly onto the format's `ts` field (also
/// microseconds), so the Perfetto timeline *is* the virtual timeline. Each
/// track a record describes (DP process, volume, the audit trail, TMF)
/// becomes one `pid` named by a metadata event; every [`TraceEvent`] becomes
/// a thread-scoped instant event carrying its fields as `args` — except
/// causal spans, which render as `B`/`E` duration slices, with a flow-event
/// pair (`ph: "s"`/`"f"`, id = the child span) drawing the causal arrow
/// whenever a span's parent ran on a different track (the FS→DP hop).
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    use std::collections::BTreeMap;
    let described: Vec<Description> = events.iter().map(|e| e.kind.describe()).collect();
    // Tracks numbered in name order, independent of arrival.
    let mut tracks: BTreeMap<&str, u64> = described.iter().map(|d| (&*d.track, 0)).collect();
    for (i, pid) in tracks.values_mut().enumerate() {
        *pid = i as u64 + 1;
    }
    let mut span_track: BTreeMap<u64, &str> = BTreeMap::new();
    for e in events {
        if let TraceEventKind::SpanBegin { span, track, .. } = &e.kind {
            span_track.insert(*span, track);
        }
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
            json_str(name)
        );
    }
    for (e, d) in events.iter().zip(&described) {
        let pid = tracks[&*d.track];
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
            "\n{{\"name\": {}, \"cat\": \"{}\", \"ph\": \"{ph}\", {scope}\"ts\": {}, \
             \"pid\": {pid}, \"tid\": 0, \"args\": {{\"seq\": {}",
            json_str(&d.name),
            d.category,
            e.at,
            e.seq,
        );
        for (key, value) in &d.fields {
            let _ = write!(out, ", \"{key}\": {value}");
        }
        out.push_str("}}");
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
                if let Some(&ptrack) = span_track.get(parent) {
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
    use crate::clock::Wait;

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
    fn re_enabling_with_a_smaller_capacity_trims_the_ring() {
        let t = TraceRecorder::new();
        t.enable(64);
        for i in 0..10u64 {
            t.emit(i, || msg("X"));
        }
        // Enabling bounds the ring as `set_capacity` does: the oldest
        // events beyond the new bound go into the dropped count at once.
        t.enable(4);
        assert_eq!((t.events().len(), t.dropped(), t.capacity()), (4, 6, 4));
        t.emit(10, || msg("X"));
        let evs = t.events();
        assert_eq!(evs.len(), 4, "the ring holds its capacity");
        assert_eq!(evs.first().unwrap().seq, 7);
        assert_eq!(t.dropped(), 7);
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
        // Wait categories ride the end event's args under their dotted names.
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
