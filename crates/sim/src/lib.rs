#![warn(missing_docs)]
//! Deterministic simulation substrate for the NonStop SQL reproduction.
//!
//! The paper's measurements are message counts, message bytes, disk I/O
//! counts, audit volume, and path length ("CPU work"). All of those are
//! counters on per-entity records ([`measure`]) whose sums are the cluster
//! totals ([`Metrics`]), written through one path ([`Sim::emit`]); latency
//! shape is captured by a virtual [`Clock`] advanced according to a
//! [`CostModel`]. Nothing in the system reads wall-clock time, so every
//! experiment is exactly reproducible.

pub mod clock;
pub mod cost;
pub mod event;
pub mod histogram;
pub mod measure;
pub mod metrics;
pub mod rng;
pub mod span;
pub mod sync;
pub mod trace;

pub use clock::{Clock, Micros, Wait, WaitProfile, WAIT_CATEGORIES};
pub use cost::CostModel;
pub use event::{Event, LockWaitEnd, Reply};
pub use histogram::{Histogram, Histograms};
pub use measure::{
    Ctr, EntityKind, FlightDump, FlightEntry, FlightRecorder, MeasureRecord, MeasureRegistry,
    MeasureReport, MeasureSnapshot, COUNTER_NAMES,
};
pub use metrics::{Metrics, MetricsSnapshot, TOTALS};
pub use rng::{SimRng, Zipf};
pub use span::{current_span, SpanAllocator, SpanGuard, SpanHeader};
pub use trace::{
    assemble_spans, chrome_trace, format_sequence, FaultAction, SpanNode, TraceEvent,
    TraceEventKind, TraceMsgClass, TraceRecorder,
};

use std::fmt::Display;
use std::sync::Arc;

/// Shared simulation context handed to every component of a cluster.
///
/// Cloning is cheap (all members are `Arc`s); all clones observe the same
/// virtual time and the same counters.
#[derive(Clone)]
pub struct Sim {
    /// The virtual clock.
    pub clock: Arc<Clock>,
    /// The cost model all components charge against.
    pub cost: CostModel,
    /// The cluster totals, summed from `measure` (see [`metrics`]).
    pub metrics: Metrics,
    /// Event-level trace recorder (off by default; see [`trace`]).
    pub trace: Arc<TraceRecorder>,
    /// Always-on latency/size distributions (see [`histogram`]).
    pub hist: Arc<Histograms>,
    /// MEASURE-style per-entity counter records (see [`measure`]).
    pub measure: Arc<MeasureRegistry>,
    /// The cluster's own record: what no one component owns.
    pub cluster: Arc<MeasureRecord>,
    /// Postmortems of the always-on per-process flight rings (see
    /// [`measure`]).
    pub flight: Arc<FlightRecorder>,
    /// Trace/span id allocator for causal tracing (see [`span`]).
    pub spans: Arc<SpanAllocator>,
}

impl Sim {
    /// Create a simulation context over the 1988-flavoured cost model.
    pub fn new() -> Self {
        let measure = Arc::new(MeasureRegistry::new());
        Sim {
            clock: Arc::new(Clock::new()),
            cost: CostModel,
            metrics: Metrics::new(Arc::clone(&measure)),
            trace: Arc::new(TraceRecorder::new()),
            hist: Arc::new(Histograms::new()),
            cluster: measure.entity(EntityKind::Cluster, "cluster"),
            measure,
            flight: Arc::default(),
            spans: Arc::new(SpanAllocator::new()),
        }
    }

    /// Snapshot every entity's counters at the current virtual time.
    pub fn measure_snapshot(&self) -> MeasureSnapshot {
        self.measure.snapshot(self.now())
    }

    /// Dump `process`'s flight ring with the current counter snapshot —
    /// called by the fault plane, TMF dooming, and typed FS errors.
    pub fn flight_dump(&self, process: &MeasureRecord, reason: &str) {
        self.flight
            .dump(process, reason, self.now(), self.measure_snapshot());
    }

    /// Current virtual time in microseconds.
    pub fn now(&self) -> Micros {
        self.clock.now()
    }

    /// Account for `units` of CPU work in layer `layer`, advancing virtual
    /// time by `units * CostModel::CPU_WORK_UNIT_US`.
    pub fn cpu_work(&self, layer: CpuLayer, units: u64) {
        let layer = match layer {
            CpuLayer::Executor => Ctr::CpuExecutor,
            CpuLayer::FileSystem => Ctr::CpuFs,
            CpuLayer::DiskProcess => Ctr::CpuDp,
        };
        self.cluster.add(layer, units);
        self.clock
            .advance_in(Wait::Cpu, units * CostModel::CPU_WORK_UNIT_US);
    }

    /// Current per-category wait ledger (see [`Clock::profile`]). Two
    /// snapshots subtract to a window's exact latency decomposition.
    pub fn wait_profile(&self) -> WaitProfile {
        self.clock.profile()
    }

    /// Open a measurement window: one capture of everything a before/after
    /// reader subtracts. Pure reads — moves neither clock nor counters.
    pub fn mark(&self) -> Mark {
        Mark {
            wait: self.wait_profile(),
            measure: MeasureReport::capture(self),
            cursor: self.trace.cursor(),
        }
    }

    /// Open a root span for a new statement: fresh trace id, no parent.
    pub fn span_root<'a>(&'a self, label: &str, track: &'a dyn Display) -> SpanGuard<'a> {
        let header = SpanHeader {
            trace: self.spans.trace_id(),
            span: self.spans.span_id(),
            parent: 0,
        };
        SpanGuard::open(self, header, label, track)
    }

    /// Open a span under the innermost open span on this thread — a fresh
    /// root trace when none is open (e.g. utility operations outside a
    /// statement).
    pub fn span_child<'a>(&'a self, label: &str, track: &'a dyn Display) -> SpanGuard<'a> {
        let cur = current_span();
        let header = SpanHeader {
            trace: if cur.span == 0 {
                self.spans.trace_id()
            } else {
                cur.trace
            },
            span: self.spans.span_id(),
            parent: cur.span,
        };
        SpanGuard::open(self, header, label, track)
    }

    /// Open a span under an identity carried on the wire — the Disk Process
    /// side of a request: same trace, parent = the request's span.
    pub fn span_enter<'a>(
        &'a self,
        carried: SpanHeader,
        label: &str,
        track: &'a dyn Display,
    ) -> SpanGuard<'a> {
        let header = SpanHeader {
            trace: carried.trace,
            span: self.spans.span_id(),
            parent: carried.span,
        };
        SpanGuard::open(self, header, label, track)
    }
}

/// The opening edge of a measurement window (see [`Sim::mark`]): the wait
/// ledger, virtual time plus every entity's counters plus the trace ring's
/// dropped count (a [`MeasureReport`]), and the trace cursor.
#[derive(Debug)]
pub struct Mark {
    wait: WaitProfile,
    measure: MeasureReport,
    cursor: u64,
}

impl Mark {
    /// What happened on `sim` since this mark. The mark stays open: closing
    /// it again later yields the longer window.
    pub fn close(&self, sim: &Sim) -> Window {
        let measure = MeasureReport::capture_since(sim, &self.measure);
        Window {
            metrics: MetricsSnapshot::from(&measure.snap),
            elapsed_us: measure.snap.at.saturating_sub(self.measure.snap.at),
            wait: sim.wait_profile() - self.wait,
            trace: sim.trace.since(self.cursor),
            measure,
        }
    }
}

/// What a window of virtual time cost: the deltas between a [`Mark`] and
/// the moment it was closed.
#[derive(Debug, Clone)]
pub struct Window {
    /// Delta of every cluster total over the window: the sums of
    /// `measure`'s entity deltas.
    pub metrics: MetricsSnapshot,
    /// Virtual time the window spans.
    pub elapsed_us: Micros,
    /// Exact decomposition of `elapsed_us` into wait categories: the
    /// per-category virtual-time ledger delta over the window. Its
    /// `total()` equals `elapsed_us` with no tolerance.
    pub wait: WaitProfile,
    /// Trace events emitted during the window (empty when tracing is
    /// disabled or the events were evicted from the ring).
    pub trace: Vec<TraceEvent>,
    /// Per-entity MEASURE counter deltas over the window, with the trace
    /// ring's dropped-event count (never silently truncated).
    pub measure: MeasureReport,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

/// The layer on whose behalf CPU work is being accounted.
///
/// The paper argues that increased path length at *higher* levels (SQL
/// executor) is paid for by savings at the *lower* levels (File System and
/// Disk Process); separating the counters lets experiments show exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuLayer {
    /// SQL executor / application-level requester code.
    Executor,
    /// File System library (client side of the FS-DP interface).
    FileSystem,
    /// Disk Process (server side of the FS-DP interface).
    DiskProcess,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_work_advances_clock_and_counters() {
        let sim = Sim::new();
        let t0 = sim.now();
        sim.cpu_work(CpuLayer::DiskProcess, 10);
        assert_eq!(sim.metrics.snapshot().cpu_dp, 10);
        assert_eq!(sim.now() - t0, 10 * CostModel::CPU_WORK_UNIT_US);
    }

    #[test]
    fn clones_share_state() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.clock.advance(100);
        assert_eq!(sim2.now(), 100);
        sim2.cluster.add(Ctr::RowsReturned, 3);
        assert_eq!(sim.metrics.snapshot().rows_returned, 3);
    }
}
