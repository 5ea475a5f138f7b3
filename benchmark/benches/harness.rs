//! Harness arithmetic shared by every workload: order statistics, the
//! counting allocator, `/proc` readings, setup timing and the result line.

use nsql_bench::wall_clock::{self, Stopwatch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

// ----------------------------------------------------------------------
// Host clock
// ----------------------------------------------------------------------

/// Host nanoseconds since the first call. Every wall-clock reading in the
/// benchmark goes through `nsql_bench::wall_clock`, the one site
/// `nsql-lint` allows.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Stopwatch> = OnceLock::new();
    (EPOCH.get_or_init(wall_clock::start).elapsed_secs() * 1e9) as u64
}

// ----------------------------------------------------------------------
// Order statistics
// ----------------------------------------------------------------------

/// The candidate percentiles a timing may be reported at, highest first,
/// each with the samples in ten thousand that lie beyond it.
const PERCENTILES: [(f64, usize); 5] = [
    (99.99, 1),
    (99.9, 10),
    (99.0, 100),
    (90.0, 1_000),
    (50.0, 5_000),
];

/// The highest candidate percentile with at least ten samples beyond it,
/// or `None` below twenty samples (not even the median qualifies).
pub fn supported_percentile(samples: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .find(|(_, beyond)| samples * beyond >= 10 * 10_000)
        .map(|&(p, _)| p)
}

/// Exact order statistic of an ascending slice: the smallest sample with at
/// least `p` percent of the samples at or below it (nearest rank). 0 when
/// empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a small set of readings (mean of the middle two when even).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

// ----------------------------------------------------------------------
// Counting allocator
// ----------------------------------------------------------------------

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The binary's global allocator: the system allocator plus two counters.
/// A `realloc` counts as one allocation of the new size.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count(bytes: usize) {
    // Relaxed: statistics only, they publish no other data.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// (allocations, bytes requested) since process start.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// ----------------------------------------------------------------------
// /proc
// ----------------------------------------------------------------------

/// Process CPU seconds. `/proc/self/schedstat` counts the nanoseconds this
/// (single-threaded) process has run; where the kernel lacks it, fall back
/// to user + system time from `/proc/self/stat`, which Linux reports in
/// 10 ms clock ticks (`USER_HZ` is 100 on every supported platform).
pub fn cpu_seconds() -> f64 {
    let run_ns = std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
    if let Some(ns) = run_ns {
        return ns as f64 / 1e9;
    }
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // utime and stime are the 14th and 15th fields of the line, so the 12th
    // and 13th after the parenthesised command name.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick() + tick()) as f64 / 100.0
}

/// Peak resident set (`VmHWM`) in MB from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ----------------------------------------------------------------------
// Host-side deltas over a timed section
// ----------------------------------------------------------------------

/// Host readings at one instant; subtract two to cost a section.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostMark {
    pub wall_ns: u64,
    pub cpu_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl HostMark {
    pub fn now() -> HostMark {
        let (allocs, alloc_bytes) = alloc_counts();
        HostMark {
            wall_ns: now_ns(),
            cpu_s: cpu_seconds(),
            allocs,
            alloc_bytes,
        }
    }

    /// The cost of the section that began at `from` and ends now.
    pub fn since(from: &HostMark) -> HostMark {
        let now = HostMark::now();
        HostMark {
            wall_ns: now.wall_ns - from.wall_ns,
            cpu_s: now.cpu_s - from.cpu_s,
            allocs: now.allocs - from.allocs,
            alloc_bytes: now.alloc_bytes - from.alloc_bytes,
        }
    }

    /// Add a section's cost to this total.
    pub fn add(&mut self, section: &HostMark) {
        self.wall_ns += section.wall_ns;
        self.cpu_s += section.cpu_s;
        self.allocs += section.allocs;
        self.alloc_bytes += section.alloc_bytes;
    }
}

/// Time `build` repeatedly — at least three times and until three seconds
/// have gone by (cheap set-ups need more repeats to read steadily), at most
/// 400 times — and return the median seconds with the last product. The
/// products before it go to `release`.
pub fn timed_setup<T>(mut build: impl FnMut() -> T, mut release: impl FnMut(T)) -> (f64, T) {
    let mut secs = Vec::new();
    let started = now_ns();
    loop {
        let t0 = now_ns();
        let product = build();
        secs.push((now_ns() - t0) as f64 / 1e9);
        let spent = (now_ns() - started) as f64 / 1e9;
        if secs.len() >= 400 || (secs.len() >= 3 && spent >= 3.0) {
            return (median(&mut secs), product);
        }
        release(product);
    }
}

// ----------------------------------------------------------------------
// Results
// ----------------------------------------------------------------------

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Where the number comes from: `host` or `virtual` clock for an
    /// end-to-end metric; for a per-layer metric `C` (the program's own
    /// counters), `S` (span self time), `D` (drill), `A` (the counting
    /// allocator) or `host` (a host timing of the run).
    pub source: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, source: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            source,
        }
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The driver's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A float as a JSON number with all its digits (JSON has no NaN or
/// infinity; those print as 0 and the run's checks fail elsewhere).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(99_999), Some(99.9));
        assert_eq!(supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentile_is_an_exact_order_statistic() {
        let v: Vec<u64> = (1..=1_000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        // Exactly ten samples lie beyond the 99th percentile of 1,000.
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 99.0)).count(), 10);
        assert_eq!(percentile(&v, 100.0), 1_000);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn counting_allocator_sees_each_allocation() {
        // Other test threads allocate too, so the delta is a lower bound.
        let (a0, b0) = alloc_counts();
        let boxes: Vec<Box<[u8; 64]>> = (0..100).map(|_| Box::new([0u8; 64])).collect();
        let (a1, b1) = alloc_counts();
        std::hint::black_box(&boxes);
        assert!(a1 - a0 >= 101, "100 boxes and their vector");
        assert!(b1 - b0 >= 100 * 64 + 100 * 8);
    }

    #[test]
    fn host_mark_costs_a_section() {
        let from = HostMark::now();
        let boxes: Vec<Box<u64>> = (0..10).map(Box::new).collect();
        let section = HostMark::since(&from);
        std::hint::black_box(&boxes);
        assert!(section.allocs >= 11 && section.alloc_bytes >= 160);
        let mut total = HostMark::default();
        total.add(&section);
        total.add(&section);
        assert_eq!(total.allocs, 2 * section.allocs);
        assert_eq!(total.wall_ns, 2 * section.wall_ns);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[
                Metric::new("a_ms", 1.25, "ms", "host"),
                Metric::new("setup_s", 0.5, "s", "host"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "0");
    }

    #[test]
    fn proc_readings_parse() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
