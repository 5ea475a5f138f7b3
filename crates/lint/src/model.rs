//! Exhaustive exploration of the FS-DP recovery protocol, on the shipped
//! stack.
//!
//! The paper's FS-DP interface survives a lossy bus and server crashes
//! through sync IDs with a bounded per-opener reply cache (duplicate
//! suppression), bounded backoff with retries that reuse the sync ID,
//! backup takeover via path switch, and Subset Control Block rebuild
//! resuming after the last confirmed key. The chaos suite samples that
//! state space with 8 seeds; this module *exhausts* it, up to a bounded
//! number of injected faults per schedule.
//!
//! There is one primitive, [`run`]: build a fresh [`nsql_core::Cluster`]
//! (a [`KEYS`]-row table, one record per request execution so every row
//! is an exchange), arm the fault plane with a script
//! ([`nsql_msg::FaultConfig::at`]), run a scenario through the File
//! System, observe. Every retry, path switch, reply-cache hit, SCB
//! rebuild, doom and recovery in a run is the product's own code; what
//! is written here is the three scenarios and what must hold after them:
//!
//! * **scan** — `SELECT K, V FROM T`: the client sees keys `1..=KEYS`
//!   exactly once, in order, or the statement fails cleanly with
//!   `Unavailable` — across drops, duplicates, delays, transport errors
//!   and a mid-scan crash (`BadSubset` → rebuild after the last confirmed
//!   key);
//! * **aggregate** — `SELECT COUNT(*), SUM(K) FROM T` folded at the Disk
//!   Process, one partial group per request: the client sees exactly
//!   `(KEYS, 1 + … + KEYS)` or a clean `Unavailable` — a duplicated or
//!   retransmitted request folds nothing twice, and a rebuilt SCB loses
//!   nothing;
//! * **update** — `UPDATE T SET V = V + 1 WHERE K = k` for every key in
//!   one transaction, then commit: a committed transaction applied every
//!   update exactly once, and one that failed, aborted or was doomed left
//!   no effect at all (read back with the faults off).
//!
//! Both also hold the reply cache to its bound. A crashed CPU's volume
//! comes back either way the product can bring it back ([`Repair`]).
//! Schedules are enumerated breadth-first over per-exchange fault choices
//! — no randomness anywhere, so a reported violation is minimal and
//! replayable from its printed schedule.

use crate::stack::{self, VOLUME};
use crate::Broke;
use nsql_core::{Cluster, DiskProcessConfig, FaultConfig};
use nsql_dp::{SyncRequest, REPLY_CACHE_PER_OPENER};
use nsql_fs::{FsError, OpenFile};
pub use nsql_msg::Fault;
use nsql_msg::{Response, Server};
use nsql_records::{KeyRange, Value};
use nsql_tmf::txn::TxnError;
use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The faults the enumeration branches over at every exchange: every
/// decision the plane can take.
pub const FAULTS: [Fault; 6] = [
    Fault::DropRequest,
    Fault::DropReply,
    Fault::Duplicate,
    Fault::Delay(1_000),
    Fault::Error,
    Fault::DownTarget,
];

/// Rows in the table, so keys scanned / point updates per transaction.
pub const KEYS: i32 = 6;

/// What the client does while the faults fall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// One set-oriented read of the whole table.
    Scan,
    /// One aggregate of the whole table, folded at the source.
    Aggregate,
    /// One transaction updating every row, then commit.
    Update,
}

/// How the volume of a CPU that [`Fault::DownTarget`] failed comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repair {
    /// The volume is a process pair: the shipped path-switch hook has the
    /// backup take over on the other CPU.
    Takeover,
    /// A single process: a path-switch hook installed here reloads the CPU
    /// and restarts the volume in place ([`Cluster::crash_and_restart`]).
    Restart,
}

/// The faults of one run: `(exchange number, fault)`, ascending; every
/// other exchange is delivered clean.
pub type Schedule = Vec<(u64, Fault)>;

/// An invariant violation, with the [`Schedule`] that reproduces it.
pub type Violation = crate::Violation<(u64, Fault)>;

/// Result of exhaustively exploring one scenario.
#[derive(Debug, Default)]
pub struct Exploration {
    /// Schedules fully executed.
    pub schedules: u64,
    /// Most eligible exchanges any schedule needed.
    pub max_exchanges: u64,
    /// FS-DP messages the clusters served over all runs (`sim.metrics`) …
    pub msgs_fs_dp: u64,
    /// … retransmissions among them their reply caches answered …
    pub dup_suppressed: u64,
    /// … and path switches their requesters made.
    pub path_switches: u64,
    /// Invariant violations (empty on a healthy protocol).
    pub violations: Vec<Violation>,
}

/// An error no scenario expects is a violation of its own.
fn unexpected(what: &str, e: impl std::fmt::Display) -> Broke {
    ("protocol", format!("{what}: {e}"))
}

/// A Disk Process that cannot recognise a retransmission: every delivery's
/// sync sequence is rewritten to one never seen before, so the reply cache
/// never hits. The negative control of [`negative_control`].
struct Forgetful {
    dp: Arc<dyn Server>,
    fresh: AtomicU64,
}

impl Server for Forgetful {
    fn handle(&self, request: Box<dyn Any + Send>) -> Response {
        match request.downcast::<SyncRequest>() {
            Ok(mut sync) => {
                sync.sync.seq = u64::MAX - self.fresh.fetch_add(1, Ordering::Relaxed);
                self.dp.handle(sync)
            }
            Err(other) => self.dp.handle(other),
        }
    }
}

/// The primitive: a fresh cluster, `schedule` armed, `scenario` run. Says
/// how many eligible exchanges the fault plane was consulted about and what
/// broke, and books what the cluster served on `out`.
fn run(
    (scenario, repair, forgetful): (Scenario, Repair, bool),
    schedule: &Schedule,
    out: &mut Exploration,
) -> (u64, Result<(), Broke>) {
    let dp = DiskProcessConfig {
        max_records_per_request: 1,
        ..DiskProcessConfig::default()
    };
    let (db, of) = match stack::build(repair == Repair::Takeover, dp, KEYS) {
        Ok((db, of)) => (Arc::new(db), of),
        Err(e) => return (0, Err(unexpected("no cluster", e))),
    };
    if repair == Repair::Restart {
        let cluster = Arc::downgrade(&db);
        db.bus.set_path_switch(Arc::new(move |volume: &str| {
            let Some(db) = cluster.upgrade() else {
                return false;
            };
            let cpu = db.dp(volume).cpu();
            if !db.bus.cpu_is_down(cpu) {
                return false;
            }
            db.bus.revive_cpu(cpu);
            db.crash_and_restart(cpu.node.0, cpu.cpu);
            true
        }));
    }
    if forgetful {
        let dp = db.dp(VOLUME);
        let fresh = AtomicU64::new(0);
        db.bus
            .register(VOLUME, dp.cpu(), Arc::new(Forgetful { dp, fresh }));
    }
    db.enable_faults(FaultConfig {
        at: schedule.clone(),
        ..FaultConfig::default()
    });
    let faulted = match scenario {
        Scenario::Scan => scan(&db, &of).map(|()| None),
        Scenario::Aggregate => aggregate(&db, &of).map(|()| None),
        Scenario::Update => update(&db, &of).map(Some),
    };
    let exchanges = db.bus.fault_exchanges();
    db.disable_faults();
    let checked = faulted.and_then(|committed| match committed {
        Some(committed) => read_back(&db, &of, committed),
        None => Ok(()),
    });
    let served = db.snapshot();
    out.msgs_fs_dp += served.msgs_fs_dp;
    out.dup_suppressed += served.dp_dup_suppressed;
    out.path_switches += served.path_switches;
    (exchanges, checked)
}

/// The reply cache is within its bound (checked between statements: it
/// only grows while its process lives).
fn cache_bounded(db: &Cluster) -> Result<(), Broke> {
    let held = db.dp(VOLUME).reply_cache_len();
    if held > REPLY_CACHE_PER_OPENER {
        let detail = format!("reply cache holds {held} entries (bound {REPLY_CACHE_PER_OPENER})");
        return Err(("cache-bounded", detail));
    }
    Ok(())
}

/// The scan scenario, checked on the stream of rows the *client* is handed.
fn scan(db: &Cluster, of: &OpenFile) -> Result<(), Broke> {
    let session = db.session();
    let selected = stack::select_all(session.fs(), of);
    cache_bounded(db)?;
    let seen: Vec<i32> = match selected {
        Ok(rows) => rows.into_iter().map(|(k, _)| k).collect(),
        // Retries exhausted: the statement failed cleanly.
        Err(FsError::Unavailable(_)) => return Ok(()),
        Err(e) => return Err(unexpected("SELECT", e)),
    };
    if !seen.iter().copied().eq(1..=seen.len() as i32) {
        let detail = format!("client observed {seen:?}; expected 1..={KEYS}");
        return Err(("scan-exactly-once", detail));
    }
    if seen.len() as i32 != KEYS {
        let detail = format!("scan reported done after {} of {KEYS} keys", seen.len());
        return Err(("scan-complete", detail));
    }
    Ok(())
}

/// The aggregate scenario, checked on the answer the client is handed.
fn aggregate(db: &Cluster, of: &OpenFile) -> Result<(), Broke> {
    let session = db.session();
    let answer = stack::count_and_sum(session.fs(), of);
    cache_bounded(db)?;
    let answer = match answer {
        Ok(answer) => answer,
        // Retries exhausted: the statement failed cleanly.
        Err(FsError::Unavailable(_)) => return Ok(()),
        Err(e) => return Err(unexpected("SELECT COUNT(*), SUM(K)", e)),
    };
    let exact = [
        Value::LargeInt(KEYS.into()),
        Value::LargeInt((1..=KEYS).sum::<i32>().into()),
    ];
    if answer != exact {
        let detail = format!("client observed {answer:?}; expected {exact:?}");
        return Err(("aggregate-exact", detail));
    }
    Ok(())
}

/// The update scenario; says whether the transaction committed.
fn update(db: &Cluster, of: &OpenFile) -> Result<bool, Broke> {
    let session = db.session();
    let (fs, cpu) = (session.fs(), session.cpu());
    let txn = db.txnmgr.begin();
    let bump = stack::bump();
    for k in 1..=KEYS {
        let row = KeyRange::point(stack::key(of, k));
        match fs.update_set(txn, of, &row, None, &bump, None) {
            Ok(1) => cache_bounded(db)?,
            Ok(n) => return Err(("update-ack", format!("UPDATE of key {k} changed {n} rows"))),
            // Clean statement failures: the server stayed unreachable, or a
            // crash doomed the transaction. The client rolls back.
            Err(FsError::Unavailable(_) | FsError::Doomed { .. }) => {
                let aborted = db.txnmgr.abort(txn, cpu);
                return aborted
                    .map(|()| false)
                    .map_err(|e| unexpected("ROLLBACK", e));
            }
            Err(e) => return Err(unexpected("UPDATE", e)),
        }
    }
    match db.txnmgr.commit(txn, cpu) {
        Ok(()) => Ok(true),
        // TMF refused: a crash took the transaction's writes with it.
        Err(TxnError::Doomed(_)) => Ok(false),
        Err(e) => Err(unexpected("COMMIT", e)),
    }
}

/// With the faults off: a committed update transaction applied every update
/// exactly once, any other left nothing behind.
fn read_back(db: &Cluster, of: &OpenFile, committed: bool) -> Result<(), Broke> {
    let session = db.session();
    let rows = stack::select_all(session.fs(), of).map_err(|e| unexpected("read-back", e))?;
    if !rows.iter().map(|&(k, _)| k).eq(1..=KEYS) {
        return Err(unexpected("read-back", format!("rows {rows:?}")));
    }
    for (k, v) in rows {
        if committed && v != 1 {
            let detail = format!(
                "key {k} applied {v} time(s) in a committed txn; duplicate suppression failed"
            );
            return Err(("update-exactly-once", detail));
        }
        if !committed && v != 0 {
            let detail =
                format!("key {k} still applied {v} time(s) after the txn rolled back; UNDO leaked");
            return Err(("abort-rollback", detail));
        }
    }
    Ok(())
}

/// Run every schedule with at most `depth` injected faults, each exactly
/// once: a schedule is extended by one more fault at every exchange its
/// run went on to make after its last one.
fn explore_with(stack: (Scenario, Repair, bool), depth: usize) -> Exploration {
    let mut out = Exploration::default();
    // Breadth-first, so a violation is always reported with a minimal
    // counterexample (fewest faults, earliest positions) first.
    let mut queue: VecDeque<Schedule> = VecDeque::from([Vec::new()]);
    while let Some(schedule) = queue.pop_front() {
        let (exchanges, checked) = run(stack, &schedule, &mut out);
        out.schedules += 1;
        out.max_exchanges = out.max_exchanges.max(exchanges);
        if schedule.len() < depth {
            let tail = schedule.last().map_or(0, |&(at, _)| at + 1);
            for at in tail..exchanges {
                for fault in FAULTS {
                    let mut next = schedule.clone();
                    next.push((at, fault));
                    queue.push_back(next);
                }
            }
        }
        if let Err((invariant, detail)) = checked {
            out.violations.push(Violation {
                invariant,
                detail,
                schedule,
            });
        }
    }
    out
}

/// Explore `scenario` on the shipped stack under every schedule of at most
/// `depth` faults.
pub fn explore(scenario: Scenario, repair: Repair, depth: usize) -> Exploration {
    explore_with((scenario, repair, false), depth)
}

/// The negative control: the update scenario against a Disk Process that
/// cannot recognise retransmissions must double-apply, and the minimal
/// schedule that shows it is one dropped reply. Returns that violation, or
/// what was found instead.
pub fn negative_control() -> Result<Violation, String> {
    let found = explore_with((Scenario::Update, Repair::Takeover, true), 1).violations;
    let twice = found
        .iter()
        .find(|v| v.invariant == "update-exactly-once")
        .cloned();
    twice.ok_or_else(|| format!("no double apply without duplicate suppression: {found:?}"))
}

/// Render a schedule compactly (`[Deliver ×2, DropReply, DownTarget]`).
pub fn format_schedule(schedule: &[(u64, Fault)]) -> String {
    // What every exchange up to the last fault got, then runs of the same.
    let mut exchanges: Vec<String> = Vec::new();
    for &(at, fault) in schedule {
        exchanges.resize(exchanges.len().max(at as usize), "Deliver".to_string());
        exchanges.push(format!("{fault:?}"));
    }
    let runs = exchanges.chunk_by(|a, b| a == b);
    let render = |run: &[String]| match run.len() {
        1 => run[0].clone(),
        n => format!("{} ×{n}", run[0]),
    };
    format!("[{}]", runs.map(render).collect::<Vec<_>>().join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(scenario: Scenario, repair: Repair, depth: usize) -> Exploration {
        let ex = explore(scenario, repair, depth);
        assert!(ex.violations.is_empty(), "{:?}", ex.violations.first());
        ex
    }

    #[test]
    fn healthy_protocol_has_no_violations_depth_2() {
        let scan = clean(Scenario::Scan, Repair::Takeover, 2);
        assert!(scan.schedules > 100);
        let upd = clean(Scenario::Update, Repair::Takeover, 2);
        assert!(upd.schedules > 100);
        let agg = clean(Scenario::Aggregate, Repair::Takeover, 2);
        assert!(agg.schedules > 100);
        // The shipped stack did the work, its reply cache and its takeover
        // included.
        for ex in [scan, upd, agg] {
            assert!(ex.msgs_fs_dp > ex.schedules);
            assert!(ex.dup_suppressed > 0 && ex.path_switches > 0);
        }
    }

    #[test]
    fn crash_restart_schedules_are_explored_and_clean() {
        // A crash repaired in place — volatile state wiped, the in-flight
        // transaction backed out by recovery from the trail and doomed —
        // satisfies both invariants under every ≤ 2-fault schedule.
        assert!(FAULTS.contains(&Fault::DownTarget));
        let upd = clean(Scenario::Update, Repair::Restart, 2);
        assert!(upd.schedules > 100 && upd.path_switches > 0);
        clean(Scenario::Scan, Repair::Restart, 1);
        clean(Scenario::Aggregate, Repair::Restart, 1);
    }

    #[test]
    fn zero_reply_cache_reproduces_double_apply_deterministically() {
        // Deterministic: the minimal schedule is a single dropped reply —
        // the server executed, and executed the retry again because it did
        // not know it for one.
        let dup = negative_control().unwrap();
        assert_eq!(dup.schedule, vec![(0, Fault::DropReply)]);
        assert_eq!(format_schedule(&dup.schedule), "[DropReply]");
        // And a second run finds the identical counterexample.
        let again = negative_control().unwrap();
        assert_eq!(again.schedule, dup.schedule);
        assert_eq!(again.detail, dup.detail);
    }

    #[test]
    fn retries_exhausted_fail_the_statement_cleanly() {
        // No schedule of three faults exhausts the File System's retry
        // budget. A request lost on its every attempt does.
        let attempts = u64::from(nsql_fs::MAX_RETRIES) + 1;
        let lost: Schedule = (0..attempts).map(|at| (at, Fault::DropRequest)).collect();
        for scenario in [Scenario::Scan, Scenario::Aggregate, Scenario::Update] {
            let mut out = Exploration::default();
            let ran = run((scenario, Repair::Takeover, false), &lost, &mut out);
            assert_eq!(ran, (attempts, Ok(())), "{scenario:?}");
        }
    }

    #[test]
    fn schedule_counts_are_deterministic() {
        let a = explore(Scenario::Scan, Repair::Takeover, 1);
        let b = explore(Scenario::Scan, Repair::Takeover, 1);
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.max_exchanges, b.max_exchanges);
        assert_eq!(a.msgs_fs_dp, b.msgs_fs_dp);
    }

    #[test]
    fn format_schedule_compresses_runs() {
        let s = format_schedule(&[(2, Fault::DropReply), (3, Fault::DownTarget)]);
        assert_eq!(s, "[Deliver ×2, DropReply, DownTarget]");
        let s = format_schedule(&[(0, Fault::Error), (1, Fault::Error), (3, Fault::Delay(7))]);
        assert_eq!(s, "[Error ×2, Deliver, Delay(7)]");
    }

    #[test]
    fn full_depth_exceeds_ten_thousand_schedules() {
        // The CLI's default depth, for the cheaper scenario alone: the rest
        // of its run takes a minute in a debug build (CI runs the CLI).
        let scan = clean(Scenario::Scan, Repair::Takeover, 3);
        assert!(scan.schedules >= 10_000, "only {}", scan.schedules);
    }
}
