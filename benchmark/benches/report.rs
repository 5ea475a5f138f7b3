//! Turning a run's observations into the named metrics of `BENCHMARK.json`.
//!
//! Every workload reports the same names. A layer a workload bypasses
//! reports 0 there — that is its prediction (`sql.*` on `contended_load`,
//! `load.*` everywhere else).

use crate::harness::{percentile, ratio, supported_percentile, Metric};
use crate::load::Phase;
use crate::measured::Measured;
use crate::spans::{root_durations, root_ns, self_time_table, self_times, SelfTime};

/// Unit of a time on the virtual clock: microseconds of the modelled
/// system, computed by the cost model, not measured on the host. They
/// repeat to the digit wherever the inputs do.
const VIRT_US: &str = "virt_us";

/// What one invocation prints: the driver's result line, preceded by the
/// same numbers as a table.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failed output checks; empty means correct.
    pub errors: Vec<String>,
    /// Context lines for the table (op and sample counts).
    pub notes: Vec<String>,
}

/// The end-to-end metrics of an untraced run. `virt_ops_per_s` is committed
/// operations per virtual second: over the whole timed section for a
/// closed loop, at saturation for the open loop.
pub fn end_to_end(workload: &'static str, m: Measured, setup_s: f64) -> Report {
    let ops = m.ops as f64;
    let c = &m.counts;
    let virt_ops_per_s = match m.phases.get(crate::load::SATURATED) {
        Some(saturated) => saturated.outcome.tps(),
        None => ratio((m.ops - m.failed) as f64 * 1e6, c.get("virt_us")),
    };
    let host = |name, value, unit| Metric::new(name, value, unit, "host");
    let virt = |name, value, unit| Metric::new(name, value, unit, "virtual");
    let metrics = vec![
        host("setup_s", setup_s, "s"),
        host("wall_ops_per_s", ratio(1e9, m.wall_ns_per_op()), "ops/s"),
        host("cpu_us_per_op", m.cpu_us_per_op(), "us"),
        host("allocs_per_op", ratio(m.host.allocs as f64, ops), "count"),
        host("peak_rss_mb", m.rss_mb, "MB"),
        virt("virt_ops_per_s", virt_ops_per_s, "ops/virt_s"),
        virt(
            "virt_op_p50_us",
            percentile(&m.latencies_us, 50.0) as f64,
            VIRT_US,
        ),
        virt(
            "virt_op_p99_us",
            percentile(&m.latencies_us, 99.0) as f64,
            VIRT_US,
        ),
        virt("msgs_per_op", ratio(c.get("msgs_total"), ops), "count"),
        virt(
            "disk_ios_per_op",
            ratio(c.get("disk_reads") + c.get("disk_writes"), ops),
            "count",
        ),
    ];
    let notes = vec![run_note(&m)];
    Report {
        workload,
        attempted: m.ops,
        failed: m.failed,
        metrics,
        errors: m.errors,
        notes,
    }
}

fn run_note(m: &Measured) -> String {
    let n = m.latencies_us.len();
    let supported = supported_percentile(n).map_or("none".to_string(), |p| format!("p{p}"));
    format!(
        "{} timed ops after {} warm-up, {:.2} s host, {:.1} s virtual; {n} latency samples \
         (highest supported percentile: {supported})",
        m.ops,
        m.warmup,
        m.host.wall_ns as f64 / 1e9,
        m.counts.get("virt_us") / 1e6
    )
}

/// How the traced run of one seed must agree with the untraced one: on
/// virtual time and every count, exactly when the working set fits the
/// cache. Otherwise the cache breaks eviction ties in hash-map order, which
/// differs between two clusters: a few dozen blocks are then evicted, read
/// and pre-fetched differently (at most 21 on any count in sizing runs), so
/// a count may differ by half a percent plus 64.
pub fn agreement(plain: &Measured, traced: &Measured, fits_cache: bool) -> Vec<String> {
    let (tolerance, slack) = if fits_cache { (0.0, 0) } else { (0.005, 64) };
    let mut out: Vec<String> = plain
        .counts
        .differences(&traced.counts, tolerance, slack)
        .into_iter()
        .map(|d| format!("traced run disagrees with untraced on {d}"))
        .collect();
    if (plain.ops, plain.failed) != (traced.ops, traced.failed) {
        out.push(format!(
            "traced run attempted {} and failed {}, untraced {} and {}",
            traced.ops, traced.failed, plain.ops, plain.failed
        ));
    }
    out
}

/// The per-layer metrics: counts (C) and allocator bytes (A) from the
/// untraced run, span self times (S) and per-op host latency from the
/// traced run of the same operations, and the drills (D).
pub fn per_layer(
    workload: &'static str,
    plain: Measured,
    traced: &Measured,
    drills: Vec<Metric>,
    mut errors: Vec<String>,
) -> Report {
    let ops = plain.ops as f64;
    let c = &plain.counts;
    let per_op = |name: &str| ratio(c.get(name), ops);
    let spans = &traced.spans;
    let table = self_time_table(spans);
    let span = |name: &str| table.get(name).copied().unwrap_or(SelfTime::default());
    let self_per_op = |name: &str| ratio(span(name).self_ns as f64, traced.ops as f64);

    let own: u64 = self_times(spans).iter().sum();
    if own != root_ns(spans) {
        errors.push(format!(
            "span self times sum to {own} ns, root spans to {} ns",
            root_ns(spans)
        ));
    }

    let mut metrics = Vec::new();
    macro_rules! push {
        ($name:expr, $value:expr, $unit:expr, $source:expr $(,)?) => {
            metrics.push(Metric::new($name, $value, $unit, $source))
        };
    }
    macro_rules! drill {
        ($prefix:expr) => {
            metrics.extend(
                drills
                    .iter()
                    .filter(|d| d.name.starts_with($prefix))
                    .cloned(),
            )
        };
    }

    // A count, or a wait-ledger entry, of the untraced run per operation.
    macro_rules! count {
        ($name:expr, $count:expr) => {
            push!($name, per_op($count), "count", "C")
        };
    }
    macro_rules! wait {
        ($name:expr, $wait:expr) => {
            push!($name, per_op($wait), VIRT_US, "C")
        };
    }

    drill!("sql.");
    count!("sql.rows_returned_per_op", "rows_returned");

    push!("core.stmt_self_ns", self_per_op("stmt"), "ns", "S");
    drill!("core.");

    drill!("fs.");
    count!("fs.cpu_units_per_op", "cpu_fs");
    count!("fs.retries_per_op", "fs_retries");

    drill!("msg.");
    count!("msg.msgs_fs_dp_per_op", "msgs_fs_dp");
    count!("msg.msgs_audit_per_op", "msgs_audit");
    count!("msg.bytes_per_op", "msg_bytes_total");
    count!("msg.redrives_per_op", "msgs_redrive");
    wait!("msg.virt_wait_us_per_op", "wait.msg");

    push!("dp.handle_self_ns", self_per_op("dp.handle"), "ns", "S");
    push!(
        "dp.handle_calls_per_op",
        ratio(span("dp.handle").calls as f64, traced.ops as f64),
        "count",
        "S",
    );
    count!("dp.records_examined_per_op", "dp_records_examined");
    push!(
        "dp.selectivity",
        ratio(c.get("dp_records_selected"), c.get("dp_records_examined")),
        "ratio",
        "C",
    );
    count!("dp.cpu_units_per_op", "cpu_dp");

    drill!("btree.");

    drill!("cache.");
    let lookups = c.get("cache_hits") + c.get("cache_misses");
    push!(
        "cache.hit_rate",
        ratio(c.get("cache_hits"), lookups),
        "ratio",
        "C"
    );
    push!("cache.lookups_per_op", ratio(lookups, ops), "count", "C");
    count!("cache.steals_per_op", "cache_steals");
    push!(
        "cache.prefetch_hit_rate",
        ratio(c.get("prefetch_hits"), c.get("prefetched_blocks")),
        "ratio",
        "C",
    );
    count!("cache.writebehind_per_op", "writebehind_writes");

    drill!("lock.");
    count!("lock.waits_per_op", "lock_waits");
    push!(
        "lock.deadlocks_per_kop",
        per_op("deadlocks") * 1e3,
        "count",
        "C"
    );
    wait!("lock.virt_wait_us_per_op", "wait.lock");

    push!("tmf.trail_self_ns", self_per_op("tmf.trail"), "ns", "S");
    drill!("tmf.");
    count!("tmf.audit_records_per_op", "audit_records");
    count!("tmf.audit_bytes_per_op", "audit_bytes");
    push!(
        "tmf.commits_per_flush",
        ratio(c.get("txns_committed"), c.get("audit_flushes")),
        "ratio",
        "C",
    );
    count!("tmf.aborts_per_op", "txns_aborted");
    wait!("tmf.virt_commit_wait_us_per_op", "wait.commit");

    drill!("disk.");
    count!("disk.reads_per_op", "disk_reads");
    count!("disk.writes_per_op", "disk_writes");
    count!("disk.blocks_read_per_op", "disk_blocks_read");
    count!("disk.blocks_written_per_op", "disk_blocks_written");
    count!("disk.bulk_ios_per_op", "disk_bulk_ios");
    wait!("disk.virt_wait_us_per_op", "wait.disk");

    drill!("records.");

    drill!("sim.");
    wait!("sim.virt_cpu_us_per_op", "wait.cpu");

    // The open-loop engine: one value per offered rate (`RATES_TPS`).
    push!("load.self_ns", self_per_op("run_load"), "ns", "S");
    let phase = |i: usize| plain.phases.get(i);
    let p99 = |p: Option<&Phase>| p.map_or(0.0, |p| p.p99_us() as f64);
    let tps = |p: Option<&Phase>| p.map_or(0.0, |p| p.outcome.tps());
    push!("load.p99_us_r30", p99(phase(0)), VIRT_US, "C");
    push!("load.p99_us_r55", p99(phase(1)), VIRT_US, "C");
    push!("load.p99_us_r90", p99(phase(2)), VIRT_US, "C");
    push!("load.tps_r30", tps(phase(0)), "ops/virt_s", "C");
    push!("load.tps_r55", tps(phase(1)), "ops/virt_s", "C");
    push!("load.tps_r90", tps(phase(2)), "ops/virt_s", "C");
    let max_rate_ok = plain
        .phases
        .iter()
        .take_while(|p| p.within_limit())
        .last()
        .map_or(0.0, |p| f64::from(p.rate_tps));
    push!("load.max_rate_ok", max_rate_ok, "ops/virt_s", "C");
    let closed_loop = plain.phases.is_empty();
    let tally = |name: &str| {
        if closed_loop {
            0.0
        } else {
            ratio(c.get(name) * 1e3, ops)
        }
    };
    push!(
        "load.retries_per_kop",
        tally("load.deadlock_retries"),
        "count",
        "C"
    );
    push!(
        "load.admission_queued_per_kop",
        tally("load.admission_queued"),
        "count",
        "C"
    );

    // Context for every host metric.
    push!(
        "host.allocs_per_op",
        ratio(plain.host.allocs as f64, ops),
        "count",
        "A",
    );
    push!(
        "host.alloc_bytes_per_op",
        ratio(plain.host.alloc_bytes as f64, ops),
        "count",
        "A",
    );
    // Per-op host latency exists where an op has its own root span.
    let wall = if closed_loop {
        root_durations(spans)
    } else {
        Vec::new()
    };
    let wall_us = |p: f64| percentile(&wall, p) as f64 / 1e3;
    push!("host.wall_op_p50_us", wall_us(50.0), "us", "host");
    push!("host.wall_op_p99_us", wall_us(99.0), "us", "host");
    push!(
        "host.trace_overhead_pct",
        ratio(
            traced.wall_ns_per_op() - plain.wall_ns_per_op(),
            plain.wall_ns_per_op()
        ) * 100.0,
        "%",
        "host",
    );

    let mut notes = vec![format!("untraced: {}", run_note(&plain))];
    notes.push(format!(
        "traced: {} ops, {} spans; self times sum to the root spans ({} ns)",
        traced.ops,
        spans.len(),
        root_ns(spans)
    ));
    for (name, row) in &table {
        notes.push(format!(
            "span {name}: {} calls, {:.0} ns self per op, {:.0} ns total per op",
            row.calls,
            ratio(row.self_ns as f64, traced.ops as f64),
            ratio(row.total_ns as f64, traced.ops as f64)
        ));
    }
    errors.extend(plain.errors.iter().cloned());
    Report {
        workload,
        attempted: plain.ops,
        failed: plain.failed,
        metrics,
        errors,
        notes,
    }
}

impl Report {
    /// Print the table and, as the last line, the driver's result line.
    /// Returns whether the run was correct.
    pub fn print(&self, seed: u64, trace: bool) -> bool {
        let correct = self.errors.is_empty();
        println!(
            "{}  seed {seed}  trace {}  attempted {}  failed {}",
            self.workload,
            u8::from(trace),
            self.attempted,
            self.failed
        );
        for note in &self.notes {
            println!("  # {note}");
        }
        for m in &self.metrics {
            println!(
                "  {:<34} {:>16.4} {:<6} {}",
                m.name, m.value, m.unit, m.source
            );
        }
        for e in &self.errors {
            println!("  CHECK FAILED: {e}");
        }
        println!(
            "{}",
            crate::harness::result_line(correct, self.attempted.max(1), self.failed, &self.metrics)
        );
        correct
    }
}
