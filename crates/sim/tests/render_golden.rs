//! Every trace record renders as recorded.
//!
//! One record of every `TraceEventKind` and every branch its renderers take
//! — read and write, synchronous and asynchronous, bulk, deadlock, buffer
//! full, resumed, remote, an empty label, each `FaultAction` and each
//! `TraceMsgClass` — with the Figure-2 line and the Chrome trace event it
//! renders as. The text was recorded before the renderers read one
//! description per record; a new kind adds one row.

use nsql_sim::TraceEventKind as K;
use nsql_sim::{
    chrome_trace, format_sequence, FaultAction, TraceEvent, TraceMsgClass, Wait, WaitProfile,
};

fn msg(class: TraceMsgClass, label: &str, remote: bool) -> K {
    K::Msg {
        class,
        label: label.into(),
        from: "\\0.0".into(),
        to: "$DATA1".into(),
        req_bytes: 148,
        reply_bytes: 4052,
        remote,
    }
}

fn disk(write: bool, blocks: u64, synchronous: bool) -> K {
    K::DiskIo {
        volume: "$DATA1".into(),
        write,
        blocks,
        synchronous,
    }
}

fn fault(action: FaultAction, label: &str) -> K {
    K::FaultInject {
        action,
        label: label.into(),
        to: "$DATA2".into(),
    }
}

fn retry(label: &str, attempt: u32, backoff_us: u64) -> K {
    K::Retry {
        label: label.into(),
        to: "$DATA2".into(),
        attempt,
        backoff_us,
    }
}

fn span_begin(span: u64, parent: u64, label: &str, track: &str) -> K {
    K::SpanBegin {
        trace: 1,
        span,
        parent,
        label: label.into(),
        track: track.into(),
    }
}

fn span_end(span: u64, track: &str, waits: &[(Wait, u64)]) -> K {
    let mut wait = WaitProfile::default();
    for &(w, us) in waits {
        wait.us[w.index()] = us;
    }
    K::SpanEnd {
        trace: 1,
        span,
        track: track.into(),
        wait,
    }
}

/// `(record, its Figure-2 line, its Chrome trace event)`. Record `i` is
/// stamped `seq = i`, `at = 250 * i` virtual µs.
fn golden() -> Vec<(K, &'static str, &'static str)> {
    use FaultAction::{Crash, Delay, Drop, Duplicate, Error};
    use TraceMsgClass::{Audit, Checkpoint, FsDp, Other, Redrive};
    vec![
        (
            msg(FsDp, "GET^FIRST^VSBB", false),
            r##"[       0 µs] \0.0 ──GET^FIRST^VSBB(148 B)──▶ $DATA1   ◀──(4052 B reply)── [FS-DP]"##,
            r##"{"name": "GET^FIRST^VSBB", "cat": "msg", "ph": "i", "s": "t", "ts": 0, "pid": 1, "tid": 0, "args": {"seq": 0, "class": "FS-DP", "from": "\\0.0", "to": "$DATA1", "req_bytes": 148, "reply_bytes": 4052, "remote": false}}"##,
        ),
        (
            msg(Redrive, "GET^NEXT", true),
            r##"[     250 µs] \0.0 ──GET^NEXT(148 B)──▶ $DATA1   ◀──(4052 B reply)── [FS-DP re-drive, remote]"##,
            r##"{"name": "GET^NEXT", "cat": "msg", "ph": "i", "s": "t", "ts": 250, "pid": 1, "tid": 0, "args": {"seq": 1, "class": "FS-DP re-drive", "from": "\\0.0", "to": "$DATA1", "req_bytes": 148, "reply_bytes": 4052, "remote": true}}"##,
        ),
        (
            msg(Audit, "", false),
            r##"[     500 µs] \0.0 ──request(148 B)──▶ $DATA1   ◀──(4052 B reply)── [AUDIT]"##,
            r##"{"name": "request", "cat": "msg", "ph": "i", "s": "t", "ts": 500, "pid": 1, "tid": 0, "args": {"seq": 2, "class": "AUDIT", "from": "\\0.0", "to": "$DATA1", "req_bytes": 148, "reply_bytes": 4052, "remote": false}}"##,
        ),
        (
            msg(Checkpoint, "CHECKPOINT", true),
            r##"[     750 µs] \0.0 ──CHECKPOINT(148 B)──▶ $DATA1   ◀──(4052 B reply)── [CHECKPOINT, remote]"##,
            r##"{"name": "CHECKPOINT", "cat": "msg", "ph": "i", "s": "t", "ts": 750, "pid": 1, "tid": 0, "args": {"seq": 3, "class": "CHECKPOINT", "from": "\\0.0", "to": "$DATA1", "req_bytes": 148, "reply_bytes": 4052, "remote": true}}"##,
        ),
        (
            msg(Other, "", false),
            r##"[    1000 µs] \0.0 ──request(148 B)──▶ $DATA1   ◀──(4052 B reply)── [MSG]"##,
            r##"{"name": "request", "cat": "msg", "ph": "i", "s": "t", "ts": 1000, "pid": 1, "tid": 0, "args": {"seq": 4, "class": "MSG", "from": "\\0.0", "to": "$DATA1", "req_bytes": 148, "reply_bytes": 4052, "remote": false}}"##,
        ),
        (
            disk(false, 1, true),
            r##"               · $DATA1 disk read, 1 block(s)"##,
            r##"{"name": "disk read", "cat": "disk", "ph": "i", "s": "t", "ts": 1250, "pid": 2, "tid": 0, "args": {"seq": 5, "volume": "$DATA1", "blocks": 1, "synchronous": true}}"##,
        ),
        (
            disk(false, 8, true),
            r##"               · $DATA1 disk read, 8 block(s) (bulk)"##,
            r##"{"name": "disk read", "cat": "disk", "ph": "i", "s": "t", "ts": 1500, "pid": 2, "tid": 0, "args": {"seq": 6, "volume": "$DATA1", "blocks": 8, "synchronous": true}}"##,
        ),
        (
            disk(true, 1, false),
            r##"               · $DATA1 disk write, 1 block(s) (async)"##,
            r##"{"name": "disk write", "cat": "disk", "ph": "i", "s": "t", "ts": 1750, "pid": 2, "tid": 0, "args": {"seq": 7, "volume": "$DATA1", "blocks": 1, "synchronous": false}}"##,
        ),
        (
            disk(true, 16, false),
            r##"               · $DATA1 disk write, 16 block(s) (bulk) (async)"##,
            r##"{"name": "disk write", "cat": "disk", "ph": "i", "s": "t", "ts": 2000, "pid": 2, "tid": 0, "args": {"seq": 8, "volume": "$DATA1", "blocks": 16, "synchronous": false}}"##,
        ),
        (
            K::LockWait {
                txn: 7,
                deadlock: false,
            },
            r##"               · txn 7 lock wait"##,
            r##"{"name": "lock wait", "cat": "lock", "ph": "i", "s": "t", "ts": 2250, "pid": 4, "tid": 0, "args": {"seq": 9, "txn": 7, "deadlock": false}}"##,
        ),
        (
            K::LockWait {
                txn: 8,
                deadlock: true,
            },
            r##"               · txn 8 lock wait -> deadlock victim"##,
            r##"{"name": "lock wait", "cat": "lock", "ph": "i", "s": "t", "ts": 2500, "pid": 4, "tid": 0, "args": {"seq": 10, "txn": 8, "deadlock": true}}"##,
        ),
        (
            K::CacheEvict { frames: 3 },
            r##"               · cache evicted 3 frame(s)"##,
            r##"{"name": "cache evict", "cat": "cache", "ph": "i", "s": "t", "ts": 2750, "pid": 6, "tid": 0, "args": {"seq": 11, "frames": 3}}"##,
        ),
        (
            K::Prefetch { blocks: 8 },
            r##"               · prefetch 8 block(s) ahead"##,
            r##"{"name": "prefetch", "cat": "cache", "ph": "i", "s": "t", "ts": 3000, "pid": 6, "tid": 0, "args": {"seq": 12, "blocks": 8}}"##,
        ),
        (
            K::AuditFlush {
                records: 12,
                bytes: 3072,
                commits: 4,
                buffer_full: false,
            },
            r##"[    3250 µs] AUDIT flush: 12 record(s), 3072 B, 4 commit(s)"##,
            r##"{"name": "audit flush", "cat": "audit", "ph": "i", "s": "t", "ts": 3250, "pid": 5, "tid": 0, "args": {"seq": 13, "records": 12, "bytes": 3072, "commits": 4, "buffer_full": false}}"##,
        ),
        (
            K::AuditFlush {
                records: 40,
                bytes: 16384,
                commits: 0,
                buffer_full: true,
            },
            r##"[    3500 µs] AUDIT flush: 40 record(s), 16384 B, 0 commit(s) (buffer full)"##,
            r##"{"name": "audit flush", "cat": "audit", "ph": "i", "s": "t", "ts": 3500, "pid": 5, "tid": 0, "args": {"seq": 14, "records": 40, "bytes": 16384, "commits": 0, "buffer_full": true}}"##,
        ),
        (
            K::AuditTorn {
                records: 2,
                bytes: 311,
            },
            r##"[    3750 µs] AUDIT torn tail: 2 record(s) / 311 B truncated"##,
            r##"{"name": "audit.torn", "cat": "audit", "ph": "i", "s": "t", "ts": 3750, "pid": 5, "tid": 0, "args": {"seq": 15, "records": 2, "bytes": 311}}"##,
        ),
        (
            K::Remirror {
                volume: "$DATA1".into(),
                blocks: 96,
            },
            r##"[    4000 µs]      ⊕ disk.remirror: $DATA1 copy-back, 96 block(s)"##,
            r##"{"name": "disk.remirror", "cat": "disk", "ph": "i", "s": "t", "ts": 4000, "pid": 2, "tid": 0, "args": {"seq": 16, "volume": "$DATA1", "blocks": 96}}"##,
        ),
        (
            K::TxnCommit { txn: 7 },
            r##"[    4250 µs] txn 7 COMMIT"##,
            r##"{"name": "txn commit", "cat": "txn", "ph": "i", "s": "t", "ts": 4250, "pid": 4, "tid": 0, "args": {"seq": 17, "txn": 7}}"##,
        ),
        (
            K::TxnAbort { txn: 8 },
            r##"[    4500 µs] txn 8 ABORT"##,
            r##"{"name": "txn abort", "cat": "txn", "ph": "i", "s": "t", "ts": 4500, "pid": 4, "tid": 0, "args": {"seq": 18, "txn": 8}}"##,
        ),
        (
            fault(Drop, "GET^NEXT"),
            r##"[    4750 µs]      ✕ fault: drop GET^NEXT ──▶ $DATA2"##,
            r##"{"name": "fault: drop", "cat": "fault", "ph": "i", "s": "t", "ts": 4750, "pid": 3, "tid": 0, "args": {"seq": 19, "label": "GET^NEXT", "to": "$DATA2"}}"##,
        ),
        (
            fault(Duplicate, "UPDATE^SUBSET^FIRST"),
            r##"[    5000 µs]      ✕ fault: duplicate UPDATE^SUBSET^FIRST ──▶ $DATA2"##,
            r##"{"name": "fault: duplicate", "cat": "fault", "ph": "i", "s": "t", "ts": 5000, "pid": 3, "tid": 0, "args": {"seq": 20, "label": "UPDATE^SUBSET^FIRST", "to": "$DATA2"}}"##,
        ),
        (
            fault(Delay, "READ"),
            r##"[    5250 µs]      ✕ fault: delay READ ──▶ $DATA2"##,
            r##"{"name": "fault: delay", "cat": "fault", "ph": "i", "s": "t", "ts": 5250, "pid": 3, "tid": 0, "args": {"seq": 21, "label": "READ", "to": "$DATA2"}}"##,
        ),
        (
            fault(Error, "INSERT"),
            r##"[    5500 µs]      ✕ fault: error INSERT ──▶ $DATA2"##,
            r##"{"name": "fault: error", "cat": "fault", "ph": "i", "s": "t", "ts": 5500, "pid": 3, "tid": 0, "args": {"seq": 22, "label": "INSERT", "to": "$DATA2"}}"##,
        ),
        (
            fault(Crash, ""),
            r##"[    5750 µs]      ✕ fault: crash request ──▶ $DATA2"##,
            r##"{"name": "fault: crash", "cat": "fault", "ph": "i", "s": "t", "ts": 5750, "pid": 3, "tid": 0, "args": {"seq": 23, "label": "", "to": "$DATA2"}}"##,
        ),
        (
            retry("GET^NEXT", 1, 500),
            r##"[    6000 µs]      ↻ retry #1: GET^NEXT ──▶ $DATA2 (backoff 500 µs)"##,
            r##"{"name": "retry #1", "cat": "fault", "ph": "i", "s": "t", "ts": 6000, "pid": 3, "tid": 0, "args": {"seq": 24, "label": "GET^NEXT", "to": "$DATA2", "backoff_us": 500}}"##,
        ),
        (
            retry("", 2, 1000),
            r##"[    6250 µs]      ↻ retry #2: request ──▶ $DATA2 (backoff 1000 µs)"##,
            r##"{"name": "retry #2", "cat": "fault", "ph": "i", "s": "t", "ts": 6250, "pid": 3, "tid": 0, "args": {"seq": 25, "label": "", "to": "$DATA2", "backoff_us": 1000}}"##,
        ),
        (
            K::PathSwitch {
                to: "$DATA1".into(),
                resumed: false,
            },
            r##"[    6500 µs]      ⇄ path switch: $DATA1 SCB rebuilt"##,
            r##"{"name": "path switch", "cat": "fault", "ph": "i", "s": "t", "ts": 6500, "pid": 1, "tid": 0, "args": {"seq": 26, "to": "$DATA1", "resumed": false}}"##,
        ),
        (
            K::PathSwitch {
                to: "$DATA1".into(),
                resumed: true,
            },
            r##"[    6750 µs]      ⇄ path switch: $DATA1 SCB rebuilt, resumed after last confirmed key"##,
            r##"{"name": "path switch", "cat": "fault", "ph": "i", "s": "t", "ts": 6750, "pid": 1, "tid": 0, "args": {"seq": 27, "to": "$DATA1", "resumed": true}}"##,
        ),
        (
            span_begin(1, 0, "SELECT", "session 1"),
            r##"[    7000 µs]      ▷ span #1 open: SELECT on session 1 (trace 1, parent #0)"##,
            r##"{"name": "SELECT", "cat": "span", "ph": "B", "ts": 7000, "pid": 7, "tid": 0, "args": {"seq": 28, "trace": 1, "span": 1, "parent": 0}}"##,
        ),
        (
            span_begin(2, 1, "GET^FIRST^VSBB", "$DATA1"),
            r##"[    7250 µs]      ▷ span #2 open: GET^FIRST^VSBB on $DATA1 (trace 1, parent #1)"##,
            r##"{"name": "GET^FIRST^VSBB", "cat": "span", "ph": "B", "ts": 7250, "pid": 1, "tid": 0, "args": {"seq": 29, "trace": 1, "span": 2, "parent": 1}},
{"name": "span flow", "cat": "span", "ph": "s", "id": 2, "ts": 7250, "pid": 7, "tid": 0},
{"name": "span flow", "cat": "span", "ph": "f", "bp": "e", "id": 2, "ts": 7250, "pid": 1, "tid": 0}"##,
        ),
        (
            span_begin(3, 2, "GET^FIRST^VSBB", "$DATA1"),
            r##"[    7500 µs]      ▷ span #3 open: GET^FIRST^VSBB on $DATA1 (trace 1, parent #2)"##,
            r##"{"name": "GET^FIRST^VSBB", "cat": "span", "ph": "B", "ts": 7500, "pid": 1, "tid": 0, "args": {"seq": 30, "trace": 1, "span": 3, "parent": 2}}"##,
        ),
        (
            span_end(3, "$DATA1", &[(Wait::Disk, 22)]),
            r##"[    7750 µs]      ◁ span #3 close: disk=22us"##,
            r##"{"name": "span end", "cat": "span", "ph": "E", "ts": 7750, "pid": 1, "tid": 0, "args": {"seq": 31, "trace": 1, "span": 3, "wait.cpu": 0, "wait.msg": 0, "wait.disk": 22, "wait.lock": 0, "wait.commit": 0, "wait.retry": 0, "wait.restart": 0, "wait.admission": 0, "wait.other": 0}}"##,
        ),
        (
            span_end(2, "$DATA1", &[]),
            r##"[    8000 µs]      ◁ span #2 close: idle"##,
            r##"{"name": "span end", "cat": "span", "ph": "E", "ts": 8000, "pid": 1, "tid": 0, "args": {"seq": 32, "trace": 1, "span": 2, "wait.cpu": 0, "wait.msg": 0, "wait.disk": 0, "wait.lock": 0, "wait.commit": 0, "wait.retry": 0, "wait.restart": 0, "wait.admission": 0, "wait.other": 0}}"##,
        ),
        (
            span_end(
                1,
                "session 1",
                &[(Wait::Cpu, 3), (Wait::Msg, 6), (Wait::Disk, 22)],
            ),
            r##"[    8250 µs]      ◁ span #1 close: cpu=3us msg=6us disk=22us"##,
            r##"{"name": "span end", "cat": "span", "ph": "E", "ts": 8250, "pid": 7, "tid": 0, "args": {"seq": 33, "trace": 1, "span": 1, "wait.cpu": 3, "wait.msg": 6, "wait.disk": 22, "wait.lock": 0, "wait.commit": 0, "wait.retry": 0, "wait.restart": 0, "wait.admission": 0, "wait.other": 0}}"##,
        ),
    ]
}

fn events() -> Vec<TraceEvent> {
    (0u64..)
        .zip(golden())
        .map(|(seq, (kind, _, _))| TraceEvent {
            seq,
            at: 250 * seq,
            kind,
        })
        .collect()
}

/// The Chrome export's tracks in pid order (pids number the names sorted).
const TRACKS: [&str; 7] = [
    "$DATA1",
    "$DATA1 (disk)",
    "$DATA2",
    "TMF",
    "audit trail",
    "cache",
    "session 1",
];

#[test]
fn every_record_renders_its_recorded_figure_2_line() {
    let expected: String = golden()
        .iter()
        .map(|(_, line, _)| format!("{line}\n"))
        .collect();
    assert_eq!(format_sequence(&events()), expected);
}

#[test]
fn every_record_renders_its_recorded_chrome_event() {
    let mut expected = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    let tracks = TRACKS.iter().enumerate().map(|(i, name)| {
        format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": 0, \
             \"args\": {{\"name\": \"{name}\"}}}}",
            i + 1
        )
    });
    let records = golden().into_iter().map(|(_, _, event)| event.to_string());
    let items: Vec<String> = tracks.chain(records).map(|s| format!("\n{s}")).collect();
    expected.push_str(&items.join(","));
    expected.push_str("\n]}\n");
    assert_eq!(chrome_trace(&events()), expected);
}

/// `sys.trace`'s `KIND` column reads the kind a record's description
/// names: its variant, as the `DETAIL` column's `Debug` layout spells it.
#[test]
fn every_record_describes_its_own_kind() {
    for (kind, _, _) in golden() {
        let variant = kind.describe().variant;
        let debug = format!("{kind:?}");
        assert!(debug.starts_with(&format!("{variant} {{")), "{debug}");
    }
}
