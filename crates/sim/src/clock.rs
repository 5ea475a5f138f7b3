//! Virtual clock with critical-path wait attribution.
//!
//! Time is a monotonically non-decreasing count of virtual microseconds.
//! Components advance it as they accrue simulated cost. Multi-stream
//! experiments (e.g. group commit under concurrent arrivals, experiment E7)
//! use [`Clock::advance_to`] to merge per-stream timelines: the clock only
//! ever moves forward.
//!
//! Every advance is attributed to a [`Wait`] category. Because virtual time
//! *only* moves through the methods below, the per-category ledger sums
//! exactly — no tolerance — to the clock reading at all times: a statement's
//! elapsed virtual time decomposes into CPU service, message time, disk I/O,
//! lock wait, group-commit wait, and retry/backoff by construction, not by
//! sampling. [`Clock::profile`] snapshots the ledger; two snapshots subtract
//! to a per-window [`WaitProfile`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Virtual microseconds since simulation start.
pub type Micros = u64;

/// Exhaustive, non-overlapping categories of virtual time.
///
/// Every microsecond the clock moves is charged to exactly one category;
/// the categories of a window therefore sum *exactly* to the window's
/// elapsed time (the EXPLAIN ANALYZE discipline applied to latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Wait {
    /// CPU service: executor / File System / Disk Process path length.
    Cpu,
    /// Message system: request/reply transfer, fault-injected delay, and
    /// virtual-time timeouts spent waiting on a reply that never came.
    Msg,
    /// Disk I/O the requester synchronously waited on (including waiting
    /// for an in-flight pre-fetch to land).
    Disk,
    /// Lock wait: time blocked on a conflicting lock holder.
    Lock,
    /// Group-commit wait: waiting for the audit trail to make the commit
    /// record durable (including WAL-force waits before a dirty steal).
    Commit,
    /// Retry/backoff: File System backoff between retransmissions.
    Retry,
    /// Restart: crash-recovery work — scanning the durable audit trail and
    /// replaying the REDO/UNDO plan after a CPU or media failure.
    Restart,
    /// Admission-control wait: time a transaction spent queued at the
    /// admission gate before it was allowed to begin (overload
    /// backpressure). On the shared clock this only accrues when the gate
    /// itself is the critical path (the system was otherwise idle while a
    /// queued arrival waited); per-transaction queueing delay overlapped
    /// with other terminals' service is reported by the workload engine.
    Admission,
    /// Untagged advances (test drivers, open-loop arrival gaps). Inside a
    /// statement this is zero; it exists so the ledger covers *all* time.
    Other,
}

/// Every category, in ledger order.
pub const WAIT_CATEGORIES: [Wait; Wait::COUNT] = [
    Wait::Cpu,
    Wait::Msg,
    Wait::Disk,
    Wait::Lock,
    Wait::Commit,
    Wait::Retry,
    Wait::Restart,
    Wait::Admission,
    Wait::Other,
];

impl Wait {
    /// Number of categories.
    pub const COUNT: usize = 9;

    /// Position in the ledger.
    pub fn index(self) -> usize {
        match self {
            Wait::Cpu => 0,
            Wait::Msg => 1,
            Wait::Disk => 2,
            Wait::Lock => 3,
            Wait::Commit => 4,
            Wait::Retry => 5,
            Wait::Restart => 6,
            Wait::Admission => 7,
            Wait::Other => 8,
        }
    }

    /// Canonical dotted name — spelled here only (the `trace-label` lint).
    pub fn name(self) -> &'static str {
        match self {
            Wait::Cpu => "wait.cpu",
            Wait::Msg => "wait.msg",
            Wait::Disk => "wait.disk",
            Wait::Lock => "wait.lock",
            Wait::Commit => "wait.commit",
            Wait::Retry => "wait.retry",
            Wait::Restart => "wait.restart",
            Wait::Admission => "wait.admission",
            Wait::Other => "wait.other",
        }
    }

    /// Short label for table rendering (`cpu`, `msg`, ...).
    pub fn short(self) -> &'static str {
        match self {
            Wait::Cpu => "cpu",
            Wait::Msg => "msg",
            Wait::Disk => "disk",
            Wait::Lock => "lock",
            Wait::Commit => "commit",
            Wait::Retry => "retry",
            Wait::Restart => "restart",
            Wait::Admission => "admission",
            Wait::Other => "other",
        }
    }
}

/// A snapshot (or delta) of the per-category time ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitProfile {
    /// Microseconds per category, indexed by [`Wait::index`].
    pub us: [Micros; Wait::COUNT],
}

impl WaitProfile {
    /// Time charged to one category.
    pub fn get(&self, w: Wait) -> Micros {
        self.us[w.index()]
    }

    /// Sum over every category. For a delta taken around a window this
    /// equals the window's elapsed virtual time exactly.
    pub fn total(&self) -> Micros {
        self.us.iter().sum()
    }

    /// Iterate `(category, micros)` pairs in ledger order.
    pub fn iter(&self) -> impl Iterator<Item = (Wait, Micros)> + '_ {
        WAIT_CATEGORIES.iter().map(move |w| (*w, self.get(*w)))
    }
}

impl std::ops::Sub for WaitProfile {
    type Output = WaitProfile;
    fn sub(self, rhs: WaitProfile) -> WaitProfile {
        let mut us = [0u64; Wait::COUNT];
        for (i, slot) in us.iter_mut().enumerate() {
            *slot = self.us[i].saturating_sub(rhs.us[i]);
        }
        WaitProfile { us }
    }
}

impl fmt::Display for WaitProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (w, us) in self.iter() {
            if us == 0 {
                continue;
            }
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}={}us", w.short(), us)?;
            first = false;
        }
        if first {
            write!(f, "idle")?;
        }
        Ok(())
    }
}

/// A monotone virtual clock shared by every component of a simulated cluster.
#[derive(Debug)]
pub struct Clock {
    now_us: AtomicU64,
    waited_us: [AtomicU64; Wait::COUNT],
}

impl Clock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Clock {
            now_us: AtomicU64::new(0),
            waited_us: Default::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Micros {
        self.now_us.load(Ordering::Relaxed)
    }

    /// Advance the clock by `delta` microseconds, charged to [`Wait::Other`].
    /// Product code paths should use [`Clock::advance_in`] with a real
    /// category; this stays for test drivers and arrival-gap generators.
    pub fn advance(&self, delta: Micros) -> Micros {
        self.advance_in(Wait::Other, delta)
    }

    /// Advance the clock by `delta` microseconds charged to category `w`,
    /// returning the new time.
    pub fn advance_in(&self, w: Wait, delta: Micros) -> Micros {
        self.waited_us[w.index()].fetch_add(delta, Ordering::Relaxed);
        self.now_us.fetch_add(delta, Ordering::Relaxed) + delta
    }

    /// Move the clock forward to `t` if `t` is in the future, charged to
    /// [`Wait::Other`]; never moves the clock backwards.
    pub fn advance_to(&self, t: Micros) -> Micros {
        self.advance_to_in(Wait::Other, t)
    }

    /// Move the clock forward to `t` if `t` is in the future, charging the
    /// time actually skipped to category `w`. Returns the (possibly
    /// unchanged) current time.
    pub fn advance_to_in(&self, w: Wait, t: Micros) -> Micros {
        loop {
            let cur = self.now_us.load(Ordering::Relaxed);
            if t <= cur {
                return cur;
            }
            // CAS so the skipped delta is credited exactly once even when
            // two session threads race forward.
            if self
                .now_us
                .compare_exchange(cur, t, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.waited_us[w.index()].fetch_add(t - cur, Ordering::Relaxed);
                return t;
            }
        }
    }

    /// Snapshot the per-category ledger. The invariant
    /// `profile().total() == now()` holds at every quiescent point.
    pub fn profile(&self) -> WaitProfile {
        let mut us = [0u64; Wait::COUNT];
        for (i, slot) in us.iter_mut().enumerate() {
            *slot = self.waited_us[i].load(Ordering::Relaxed);
        }
        WaitProfile { us }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = Clock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(5), 5);
        assert_eq!(c.advance(7), 12);
        assert_eq!(c.now(), 12);
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = Clock::new();
        c.advance(100);
        assert_eq!(c.advance_to(50), 100, "must not move backwards");
        assert_eq!(c.now(), 100);
        assert_eq!(c.advance_to(250), 250);
        assert_eq!(c.now(), 250);
    }

    #[test]
    fn every_advance_is_attributed_and_sums_exactly() {
        let c = Clock::new();
        c.advance_in(Wait::Cpu, 10);
        c.advance_in(Wait::Msg, 20);
        c.advance_to_in(Wait::Disk, 100); // skips 70
        c.advance_to_in(Wait::Disk, 90); // in the past: charges nothing
        c.advance_in(Wait::Retry, 5);
        c.advance(1); // raw advance lands in Other
        let p = c.profile();
        assert_eq!(p.get(Wait::Cpu), 10);
        assert_eq!(p.get(Wait::Msg), 20);
        assert_eq!(p.get(Wait::Disk), 70);
        assert_eq!(p.get(Wait::Lock), 0);
        assert_eq!(p.get(Wait::Retry), 5);
        assert_eq!(p.get(Wait::Other), 1);
        assert_eq!(p.total(), c.now(), "ledger must sum exactly to the clock");
    }

    #[test]
    fn profile_deltas_subtract_and_render() {
        let c = Clock::new();
        c.advance_in(Wait::Cpu, 3);
        let p0 = c.profile();
        c.advance_in(Wait::Cpu, 7);
        c.advance_in(Wait::Commit, 40);
        let d = c.profile() - p0;
        assert_eq!(d.get(Wait::Cpu), 7);
        assert_eq!(d.get(Wait::Commit), 40);
        assert_eq!(d.total(), 47);
        assert_eq!(format!("{d}"), "cpu=7us commit=40us");
        assert_eq!(format!("{}", WaitProfile::default()), "idle");
    }

    #[test]
    fn wait_names_are_canonical() {
        for w in WAIT_CATEGORIES {
            assert!(w.name().starts_with("wait."));
            assert_eq!(WAIT_CATEGORIES[w.index()], w);
        }
    }
}
