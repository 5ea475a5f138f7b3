//! What one run observed on both clocks, before it is turned into metrics.

use crate::harness::{median, ratio, HostMark};
use nsql_core::Cluster;
use nsql_sim::{Ctr, EntityKind, MetricsSnapshot, WaitProfile};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The program's own counts over the timed operations, by name: every
/// `Cluster::snapshot()` counter, the wait ledger (`wait.*`, virtual µs),
/// pre-fetched blocks, and the open-loop engine's tallies (`load.*`).
/// A flat named list so that two runs can be compared count by count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.0.entry(name).or_default() += n;
    }

    /// A count as a float, ready for a ratio. A name that was never added
    /// is a typo in the benchmark, not a zero.
    pub fn get(&self, name: &str) -> f64 {
        match self.0.get(name) {
            Some(&n) => n as f64,
            None => panic!("no count named {name}"),
        }
    }

    /// The counts on which `self` and `other` differ by more than
    /// `tolerance` of the larger value plus `slack`, as `name: a vs b`.
    pub fn differences(&self, other: &Counts, tolerance: f64, slack: u64) -> Vec<String> {
        let names: std::collections::BTreeSet<&str> =
            self.0.keys().chain(other.0.keys()).copied().collect();
        names
            .into_iter()
            .filter_map(|name| {
                let a = self.0.get(name).copied().unwrap_or(0);
                let b = other.0.get(name).copied().unwrap_or(0);
                let allowed = (a.max(b) as f64 * tolerance).floor() as u64 + slack;
                (a.abs_diff(b) > allowed).then(|| format!("{name}: {a} vs {b}"))
            })
            .collect()
    }
}

/// One run's observations.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Warm-up operations executed before timing.
    pub warmup: u64,
    /// Peak resident set (`VmHWM`, MB) when the warm-up ended: the loaded
    /// database plus a fixed number of operations. Read there and not at
    /// exit because the audit trail keeps every record in memory, so the
    /// peak at exit grows with however many operations fit the time box.
    pub rss_mb: f64,
    /// Timed operations attempted.
    pub ops: u64,
    /// Timed operations that failed, were refused or were given up.
    pub failed: u64,
    /// Host cost of the timed sections.
    pub host: HostMark,
    /// Host cost of each full batch of a closed loop (every batch holds the
    /// same mix of operations); empty for the open loop.
    pub batches: Vec<HostMark>,
    /// The program's counts over the timed operations; `virt_us` among
    /// them is the virtual time they took.
    pub counts: Counts,
    /// Virtual response time per committed operation, ascending.
    pub latencies_us: Vec<u64>,
    /// Spans of the timed operations; empty unless the run was traced.
    pub spans: Vec<crate::spans::Span>,
    /// Per-phase results of the open-loop workload; empty otherwise.
    pub phases: Vec<crate::load::Phase>,
    /// Failed output checks (the run is incorrect when any is present).
    pub errors: Vec<String>,
}

impl Measured {
    /// Host cost per operation, as `cost` reads it from a section: from the
    /// median batch of a closed loop (every batch holds the same mix, so
    /// the median discards the slow spells of a shared machine), from the
    /// total otherwise.
    fn per_op(&self, cost: impl Fn(&HostMark) -> f64) -> f64 {
        if self.batches.is_empty() {
            return ratio(cost(&self.host), self.ops as f64);
        }
        let mut costs: Vec<f64> = self.batches.iter().map(cost).collect();
        median(&mut costs) * self.batches.len() as f64 / self.ops as f64
    }

    /// Host wall nanoseconds per operation.
    pub fn wall_ns_per_op(&self) -> f64 {
        self.per_op(|section| section.wall_ns as f64)
    }

    /// Host CPU microseconds per operation.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.per_op(|section| section.cpu_s * 1e6)
    }
}

/// Keep the first few failures; a broken run would otherwise print one per
/// operation.
pub fn note(errors: &mut Vec<String>, e: String) {
    if errors.len() < 8 {
        errors.push(e);
    }
}

/// The program's counters at one instant of virtual time.
pub struct VirtMark {
    now: u64,
    counters: MetricsSnapshot,
    waits: WaitProfile,
    prefetched: u64,
}

impl VirtMark {
    pub fn now(db: &Cluster) -> VirtMark {
        VirtMark {
            now: db.sim.now(),
            counters: db.snapshot(),
            waits: db.sim.wait_profile(),
            prefetched: db
                .sim
                .measure_snapshot()
                .total(EntityKind::Cache, Ctr::PrefetchReads),
        }
    }

    /// Add what happened on `db` since this mark to `counts`.
    pub fn charge(&self, db: &Cluster, counts: &mut Counts) {
        let end = VirtMark::now(db);
        counts.add("virt_us", end.now - self.now);
        for (name, n) in (end.counters - self.counters).iter() {
            counts.add(name, n);
        }
        for (wait, us) in (end.waits - self.waits).iter() {
            counts.add(wait.name(), us);
        }
        counts.add("prefetched_blocks", end.prefetched - self.prefetched);
    }
}

/// Free a cluster. Dropping one frees nothing: the bus, the processes
/// registered on it and the path-switch hook hold each other through `Arc`
/// cycles. Deregistering through the public bus breaks them, so repeated
/// set-ups do not pile up in `peak_rss_mb`.
pub fn release(db: Cluster) {
    db.bus.set_path_switch(Arc::new(|_| false));
    for volume in db.volumes() {
        db.bus.deregister(&volume);
    }
    db.bus.deregister(nsql_tmf::AUDIT_PROCESS);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differences_name_what_moved() {
        let mut a = Counts::default();
        let mut b = Counts::default();
        a.add("msgs_total", 1_000);
        b.add("msgs_total", 1_000);
        a.add("disk_reads", 10_000);
        b.add("disk_reads", 10_020);
        b.add("only_in_b", 1);
        assert_eq!(
            a.differences(&b, 0.0, 0),
            vec!["disk_reads: 10000 vs 10020", "only_in_b: 0 vs 1"]
        );
        // 20 in 10,020 is inside half a percent; a count that appears from
        // nothing is not, unless the slack covers it.
        assert_eq!(a.differences(&b, 0.005, 0), vec!["only_in_b: 0 vs 1"]);
        assert!(a.differences(&b, 0.0, 20).is_empty());
    }

    #[test]
    #[should_panic(expected = "no count named")]
    fn unknown_count_is_a_bug() {
        Counts::default().get("mgs_total");
    }
}
