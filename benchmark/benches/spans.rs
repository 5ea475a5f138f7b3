//! Host-time spans recorded by the benchmark around the program's public
//! calls: kept in memory while a traced run executes, reduced to self-time
//! per span name and written out in Chrome trace format when it ends.
//!
//! The program is single-threaded, so the recorder is a thread-local stack.
//! With recording off (every end-to-end run) `enter` costs one flag test.

use crate::harness::now_ns;
use nsql_core::Cluster;
use nsql_msg::{Response, Server};
use nsql_tmf::AUDIT_PROCESS;
use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<u32>,
    /// The operation the span belongs to: all spans of one op share it.
    pub op: u64,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    op: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Start recording into an empty buffer.
pub fn start_recording() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Recorder {
            on: true,
            ..Recorder::default()
        }
    });
}

/// Stop recording and take every span recorded since `start_recording`.
pub fn finish_recording() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut *r.borrow_mut()).spans)
}

/// Closes its span when dropped.
pub struct SpanGuard(Option<u32>);

/// Open a span under the innermost open one.
pub fn enter(name: &'static str) -> SpanGuard {
    open(name, false)
}

/// Open the root span of the next operation.
pub fn enter_op(name: &'static str) -> SpanGuard {
    open(name, true)
}

fn open(name: &'static str, next_op: bool) -> SpanGuard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return SpanGuard(None);
        }
        r.op += u64::from(next_op);
        let id = r.spans.len() as u32;
        let span = Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: r.open.last().copied(),
            op: r.op,
        };
        r.spans.push(span);
        r.open.push(id);
        SpanGuard(Some(id))
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        // `try_with`: a guard dropped during thread teardown must not panic.
        let _ = RECORDER.try_with(|r| {
            let mut r = r.borrow_mut();
            if let Some(span) = r.spans.get_mut(id as usize) {
                span.end_ns = now_ns();
            }
            // Guards drop innermost first, so `id` is the top of the stack.
            r.open.pop();
        });
    }
}

/// A message server that handles every request under a span.
struct TimedServer {
    span: &'static str,
    inner: Arc<dyn Server>,
}

impl Server for TimedServer {
    fn handle(&self, request: Box<dyn Any + Send>) -> Response {
        let _span = enter(self.span);
        self.inner.handle(request)
    }
}

/// Re-register every volume's Disk Process and the audit-trail process
/// under timing wrappers (`dp.handle`, `tmf.trail`), through the public
/// bus. The wrappers add no message and touch no counter, so virtual time
/// and every count stay as they were.
pub fn time_servers(db: &Cluster) {
    let wrap = |process: &str, span: &'static str, inner: Arc<dyn Server>| {
        let cpu = db.bus.cpu_of(process).expect("process is registered");
        db.bus
            .register(process, cpu, Arc::new(TimedServer { span, inner }));
    };
    for volume in db.volumes() {
        wrap(&volume, "dp.handle", db.dp(&volume));
    }
    wrap(AUDIT_PROCESS, "tmf.trail", db.trail.clone());
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub calls: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Self time of each span: its duration minus its children's durations
/// (children never overlap each other on one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.end_ns - s.start_ns;
        }
    }
    own
}

/// The self-time table: calls, inclusive and self nanoseconds by span name.
pub fn self_time_table(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let own = self_times(spans);
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let row = table.entry(s.name).or_default();
        row.calls += 1;
        row.total_ns += s.end_ns - s.start_ns;
        row.self_ns += own;
    }
    table
}

fn roots(spans: &[Span]) -> impl Iterator<Item = u64> + '_ {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
}

/// Total duration of the root spans: what the self times must sum to.
pub fn root_ns(spans: &[Span]) -> u64 {
    roots(spans).sum()
}

/// Durations of the root spans, ascending (per-op host latency).
pub fn root_durations(spans: &[Span]) -> Vec<u64> {
    let mut d: Vec<u64> = roots(spans).collect();
    d.sort_unstable();
    d
}

/// Write the spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete event per span, `ts`/`dur` in microseconds, the op id and the
/// parent's index under `args`, and the self-time table under `selfTime`.
pub fn write_chrome_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"displayTimeUnit\": \"ns\", \"selfTime\": {{")?;
    for (i, (name, row)) in self_time_table(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            row.calls, row.total_ns, row.self_ns
        )?;
    }
    writeln!(out, "}}, \"traceEvents\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let parent = s.parent.map_or(-1, i64::from);
        write!(
            out,
            "{sep}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"op\": {}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.op
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0,100] > stmt [10,90] > dp [20,50], dp [60,80] > trail [65,70]
        let spans = vec![
            span("op", 0, 100, None),
            span("stmt", 10, 90, Some(0)),
            span("dp", 20, 50, Some(1)),
            span("dp", 60, 80, Some(1)),
            span("trail", 65, 70, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 30, 15, 5]);
        let table = self_time_table(&spans);
        assert_eq!(
            table["dp"],
            SelfTime {
                calls: 2,
                total_ns: 50,
                self_ns: 45
            }
        );
        assert_eq!(table["stmt"].self_ns, 30);
    }

    #[test]
    fn self_times_sum_to_the_roots() {
        let spans = vec![
            span("op", 0, 100, None),
            span("stmt", 10, 90, Some(0)),
            span("dp", 20, 50, Some(1)),
            span("op", 100, 140, None),
            span("stmt", 101, 139, Some(3)),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, root_ns(&spans));
        assert_eq!(root_ns(&spans), 140);
        assert_eq!(root_durations(&spans), vec![40, 100]);
    }

    #[test]
    fn recorder_nests_and_shares_op_ids() {
        start_recording();
        {
            let _op = enter_op("op");
            let _stmt = enter("stmt");
            drop(enter("dp"));
            drop(enter("dp"));
        }
        drop(enter_op("op"));
        let spans = finish_recording();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            shape,
            vec![
                ("op", None, 1),
                ("stmt", Some(0), 1),
                ("dp", Some(1), 1),
                ("dp", Some(1), 1),
                ("op", None, 2),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, root_ns(&spans));
        // Recording is off again: nothing is kept.
        drop(enter("late"));
        assert!(finish_recording().is_empty());
    }
}
