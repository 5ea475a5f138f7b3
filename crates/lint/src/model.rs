//! Bounded explicit-state model checking of the FS-DP recovery protocol.
//!
//! PR 2 added the protocol machinery the paper's FS-DP interface needs to
//! survive a lossy bus and server crashes: sync IDs with a bounded
//! per-opener reply cache (duplicate suppression), bounded exponential
//! backoff with retries reusing the sync ID, backup takeover via path
//! switch, and Subset Control Block rebuild resuming after the last
//! confirmed key. The chaos suite samples that state space with 8 seeds;
//! this module *exhausts* it, up to a bounded number of injected faults per
//! schedule.
//!
//! Two small-step models mirror `crates/fs/src/lib.rs::send`,
//! `crates/fs/src/sqlapi.rs::drive_subset` and
//! `crates/dp/src/lib.rs::handle_sync` closely enough that every branch of
//! the real code has a counterpart here:
//!
//! * the **scan model** — a `GET^FIRST` / `GET^NEXT` continuation chain
//!   over `keys` rows, checking the client observes every key exactly once
//!   in order, across drops, duplicates, delays and mid-scan takeover
//!   (`BadSubset` → rebuild after the last confirmed key);
//! * the **update model** — `keys` point updates in one transaction
//!   followed by commit, checking committed effects are exactly-once (the
//!   reply cache suppresses re-execution after a lost reply; TMF dooms the
//!   transaction when its writes die with a crashed primary).
//!
//! Both also check the reply cache never exceeds its configured bound.
//! Schedules are enumerated by deterministic DFS over per-exchange fault
//! choices — no randomness anywhere, so a reported violation is replayable
//! from its printed schedule.

use std::collections::VecDeque;

/// What the fault plane does to one FS-DP exchange (mirrors the `Fault`
/// enum in `crates/msg`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Unperturbed request/reply.
    Deliver,
    /// Request lost before the server saw it; requester times out.
    DropRequest,
    /// Server executed, reply lost; requester times out.
    DropReply,
    /// Request delivered twice (second execution must be suppressed).
    Duplicate,
    /// Delivery delayed (timing-only fault; state-equivalent to Deliver,
    /// kept so schedule counts match the chaos plane's action space).
    Delay,
    /// The primary's CPU fails before handling; its volatile state (reply
    /// cache, SCBs) dies with it. The path switch brings up a backup.
    CpuDown,
    /// The primary's CPU crashes and the same process **restarts in
    /// place**, replaying the audit trail: volatile state (reply cache,
    /// SCBs) is gone, and recovery UNDOes the in-flight transaction's
    /// uncommitted applies (it is doomed) before service resumes.
    Restart,
}

/// The faults the DFS branches over (everything but `Deliver`).
pub const FAULTS: [Action; 6] = [
    Action::DropRequest,
    Action::DropReply,
    Action::Duplicate,
    Action::Delay,
    Action::CpuDown,
    Action::Restart,
];

/// Model parameters.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Keys scanned / point updates applied.
    pub keys: u64,
    /// Maximum injected faults per schedule (the bounded depth).
    pub max_faults: usize,
    /// Reply-cache capacity per opener (the repo's REPLY_CACHE_PER_OPENER).
    pub cache: usize,
    /// Client retry budget per logical request (RetryPolicy::max_retries).
    pub max_retries: u32,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            keys: 6,
            max_faults: 3,
            cache: 8,
            max_retries: 6,
        }
    }
}

/// An invariant violation, with the schedule that reproduces it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: &'static str,
    /// What exactly went wrong.
    pub detail: String,
    /// Fault decisions per exchange index (exchanges past the end were
    /// delivered clean).
    pub schedule: Vec<Action>,
}

/// Result of exhaustively exploring one model.
#[derive(Debug, Default)]
pub struct Exploration {
    /// Schedules fully executed.
    pub schedules: u64,
    /// Most exchanges any schedule needed.
    pub max_exchanges: usize,
    /// Invariant violations (empty on a healthy protocol).
    pub violations: Vec<Violation>,
}

// ----------------------------------------------------------------------
// Shared server model
// ----------------------------------------------------------------------

/// One primary's volatile protocol state. Takeover replaces the whole
/// struct: the reply cache and SCB table die with the CPU, exactly as
/// `DpState` does in `crates/dp`.
#[derive(Debug, Clone, Default)]
struct ServerVolatile {
    /// `(sync seq, reply)` pairs, oldest first (mirrors `DpState::replies`
    /// for the single opener the model needs).
    replies: VecDeque<(u64, Reply)>,
    /// The open SCB: `Some(next key to produce)`.
    scb: Option<u64>,
}

impl ServerVolatile {
    /// Look up a retransmission; mirrors the head of `handle_sync`.
    fn cached(&self, seq: u64) -> Option<Reply> {
        self.replies
            .iter()
            .find(|(s, _)| *s == seq)
            .map(|(_, r)| r.clone())
    }

    /// Remember a reply, bounded; mirrors the tail of `handle_sync`.
    /// Capacity 0 disables the cache entirely (the negative-test knob).
    /// Returns the cache length after insertion for the boundedness check.
    fn remember(&mut self, seq: u64, reply: Reply, cap: usize) -> usize {
        if cap == 0 {
            return 0;
        }
        if self.replies.len() >= cap {
            self.replies.pop_front();
        }
        self.replies.push_back((seq, reply));
        self.replies.len()
    }
}

/// Server replies in the model (a collapsed `DpReply`).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Reply {
    /// A subset block: the key produced, whether the range is exhausted.
    Row { key: u64, done: bool },
    /// Unknown Subset Control Block (after takeover).
    BadSubset,
    /// A point update was applied.
    Applied,
}

/// What the client asked for.
#[derive(Debug, Clone, Copy)]
enum Request {
    /// `GET^FIRST` resuming strictly after `after` (0 = start of range).
    First { after: u64 },
    /// `GET^NEXT` continuation on the open SCB (the resume position is
    /// server-side state, not a request field — that is the point).
    Next,
    /// `UPDATE^POINT` on `key`.
    Update { key: u64 },
}

/// Outcome of one client-level request (after retries).
enum SendOutcome {
    Ok(Reply),
    /// Retries exhausted — the statement fails cleanly (`FsError::Unavailable`).
    Unavailable,
}

/// The deterministic schedule: a prefix of explicit decisions, `Deliver`
/// afterwards. Tracks how many exchanges were consulted.
struct Schedule<'a> {
    prefix: &'a [Action],
    consulted: usize,
}

impl<'a> Schedule<'a> {
    fn next(&mut self) -> Action {
        let a = self
            .prefix
            .get(self.consulted)
            .copied()
            .unwrap_or(Action::Deliver);
        self.consulted += 1;
        a
    }
}

// ----------------------------------------------------------------------
// Execution harness shared by both models
// ----------------------------------------------------------------------

/// Everything mutable during one schedule execution.
struct Run<'a> {
    cfg: ModelConfig,
    sched: Schedule<'a>,
    server: ServerVolatile,
    /// Durable per-key apply counts (survive takeover, as the disk does).
    applied: Vec<u64>,
    /// The in-flight transaction's undo log (mirrors the trail's audit
    /// records for the transaction): one entry per uncommitted apply, in
    /// order. Crash-restart recovery and abort discharge it in reverse.
    undo: Vec<u64>,
    /// Monotone sync sequence (retries reuse the current value).
    next_seq: u64,
    /// TMF doomed the transaction (a primary died holding its writes).
    doomed: bool,
    /// Largest reply-cache length ever observed.
    cache_high_water: usize,
    /// Exchange budget fuse — the model is finite, but a bug in the model
    /// itself must not hang the checker.
    exchanges_left: u32,
}

impl<'a> Run<'a> {
    fn new(cfg: ModelConfig, prefix: &'a [Action]) -> Run<'a> {
        Run {
            cfg,
            sched: Schedule {
                prefix,
                consulted: 0,
            },
            server: ServerVolatile::default(),
            applied: vec![0; cfg.keys as usize + 1],
            undo: Vec::new(),
            next_seq: 0,
            doomed: false,
            cache_high_water: 0,
            exchanges_left: 10_000,
        }
    }

    /// Server-side execution of one delivered request with sync ID `seq` —
    /// the model's `handle_sync` + `handle_request`.
    fn server_handle(&mut self, seq: u64, req: Request) -> Reply {
        if let Some(cached) = self.server.cached(seq) {
            return cached; // duplicate suppression: no re-execution
        }
        let reply = match req {
            Request::First { after } => {
                let key = after + 1;
                let done = key >= self.cfg.keys;
                self.server.scb = (!done).then_some(key + 1);
                self.applied[key as usize] += 1;
                Reply::Row { key, done }
            }
            Request::Next => match self.server.scb {
                None => Reply::BadSubset,
                Some(key) => {
                    let done = key >= self.cfg.keys;
                    self.server.scb = (!done).then_some(key + 1);
                    self.applied[key as usize] += 1;
                    Reply::Row { key, done }
                }
            },
            Request::Update { key } => {
                self.applied[key as usize] += 1;
                self.undo.push(key);
                Reply::Applied
            }
        };
        // BadSubset is answered statelessly in the real DP (the SCB lookup
        // itself failed); everything else goes through the reply cache.
        if reply != Reply::BadSubset {
            let len = self.server.remember(seq, reply.clone(), self.cfg.cache);
            self.cache_high_water = self.cache_high_water.max(len);
        }
        reply
    }

    /// Client-side send with retries — the model's `FileSystem::send`.
    /// `writes_in_flight`: whether a primary crash now strands uncommitted
    /// writes (dooming the transaction, TMF's CPU-failure rule).
    fn send(&mut self, req: Request, writes_in_flight: bool) -> Option<SendOutcome> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut attempt = 0u32;
        loop {
            if self.exchanges_left == 0 {
                return None; // model fuse blown — caller reports it
            }
            self.exchanges_left -= 1;
            match self.sched.next() {
                Action::Deliver | Action::Delay => {
                    return Some(SendOutcome::Ok(self.server_handle(seq, req)));
                }
                Action::Duplicate => {
                    // Two deliveries; the requester sees the second reply.
                    let _ = self.server_handle(seq, req);
                    return Some(SendOutcome::Ok(self.server_handle(seq, req)));
                }
                Action::DropRequest => {
                    // Nothing executed; fall through to the retry path.
                }
                Action::DropReply => {
                    // Executed server-side; only the answer was lost.
                    let _ = self.server_handle(seq, req);
                }
                Action::CpuDown => {
                    // The primary dies before handling: volatile state is
                    // gone. The path switch installs the backup (always
                    // present in the model, as in the process-pair design).
                    // If the dead primary held this transaction's writes,
                    // their undo died with it and TMF dooms the transaction.
                    self.server = ServerVolatile::default();
                    if writes_in_flight && self.applied.iter().any(|&n| n > 0) {
                        self.doomed = true;
                    }
                }
                Action::Restart => {
                    // Crash-restart in place: volatile state is gone AND
                    // recovery replays the trail — the in-flight
                    // transaction is a loser, so its uncommitted applies
                    // are UNDOne (reverse LSN order) before service
                    // resumes, and TMF dooms it.
                    self.server = ServerVolatile::default();
                    if !self.undo.is_empty() {
                        self.doomed = true;
                    }
                    self.rollback();
                }
            }
            // Timeout / down path: bounded retry with the same sync ID.
            attempt += 1;
            if attempt > self.cfg.max_retries {
                return Some(SendOutcome::Unavailable);
            }
        }
    }

    /// Discharge the undo log in reverse: recovery (or abort) rolls back
    /// every uncommitted apply the trail recorded.
    fn rollback(&mut self) {
        while let Some(key) = self.undo.pop() {
            self.applied[key as usize] = self.applied[key as usize].saturating_sub(1);
        }
    }
}

// ----------------------------------------------------------------------
// The two protocol models
// ----------------------------------------------------------------------

/// Outcome of one full schedule execution.
enum RunResult {
    Ok,
    Violation(&'static str, String),
}

/// `(result, exchanges consulted, cache high-water)` from one execution.
type RunOutput = (RunResult, usize, usize);

/// One scan-model execution: `GET^FIRST`, then `GET^NEXT` until done, with
/// the `drive_subset` rebuild on `BadSubset`. The invariant is checked on
/// the stream of keys the *client* observes.
fn run_scan(cfg: ModelConfig, prefix: &[Action]) -> RunOutput {
    let mut run = Run::new(cfg, prefix);
    let mut observed: Vec<u64> = Vec::new();
    let mut last_confirmed = 0u64;
    let mut phase_first = true;
    let mut finished = false;
    loop {
        let req = if phase_first {
            Request::First {
                after: last_confirmed,
            }
        } else {
            Request::Next
        };
        let Some(outcome) = run.send(req, false) else {
            return (
                RunResult::Violation("model-fuse", "exchange budget exhausted".into()),
                run.sched.consulted,
                run.cache_high_water,
            );
        };
        match outcome {
            SendOutcome::Ok(Reply::Row { key, done }) => {
                observed.push(key);
                last_confirmed = key;
                phase_first = false;
                if done {
                    finished = true;
                    break;
                }
            }
            SendOutcome::Ok(Reply::BadSubset) => {
                // Mid-scan takeover: rebuild the SCB, resuming strictly
                // after the last confirmed key (sqlapi::drive_subset).
                phase_first = true;
            }
            SendOutcome::Ok(Reply::Applied) => {
                return (
                    RunResult::Violation("protocol", "Applied reply to a scan request".into()),
                    run.sched.consulted,
                    run.cache_high_water,
                );
            }
            SendOutcome::Unavailable => break, // clean statement failure
        }
    }
    // Exactly-once, in-order delivery to the client: the observed stream
    // must be 1, 2, 3, … with no gap and no repeat; a completed scan must
    // have observed every key.
    for (i, &k) in observed.iter().enumerate() {
        if k != i as u64 + 1 {
            return (
                RunResult::Violation(
                    "scan-exactly-once",
                    format!("client observed {observed:?}; expected 1..=n prefix"),
                ),
                run.sched.consulted,
                run.cache_high_water,
            );
        }
    }
    if finished && observed.len() as u64 != cfg.keys {
        return (
            RunResult::Violation(
                "scan-complete",
                format!(
                    "scan reported done after {} of {} keys",
                    observed.len(),
                    cfg.keys
                ),
            ),
            run.sched.consulted,
            run.cache_high_water,
        );
    }
    (RunResult::Ok, run.sched.consulted, run.cache_high_water)
}

/// One update-model execution: `keys` point updates then commit. Checks
/// committed effects are exactly-once per acknowledged update.
fn run_update(cfg: ModelConfig, prefix: &[Action]) -> RunOutput {
    let mut run = Run::new(cfg, prefix);
    let mut acked: Vec<u64> = Vec::new();
    let mut failed = false;
    for key in 1..=cfg.keys {
        match run.send(Request::Update { key }, true) {
            Some(SendOutcome::Ok(Reply::Applied)) => acked.push(key),
            Some(SendOutcome::Ok(r)) => {
                return (
                    RunResult::Violation("protocol", format!("{r:?} reply to UPDATE^POINT")),
                    run.sched.consulted,
                    run.cache_high_water,
                );
            }
            Some(SendOutcome::Unavailable) => {
                failed = true;
                break;
            }
            None => {
                return (
                    RunResult::Violation("model-fuse", "exchange budget exhausted".into()),
                    run.sched.consulted,
                    run.cache_high_water,
                );
            }
        }
    }
    // Commit: doomed or failed transactions abort (undoing every apply);
    // otherwise the applies become durable.
    let committed = !run.doomed && !failed;
    if committed {
        for key in 1..=cfg.keys as usize {
            let n = run.applied[key];
            let want = u64::from(acked.contains(&(key as u64)));
            if n != want {
                return (
                    RunResult::Violation(
                        "update-exactly-once",
                        format!(
                            "key {key} applied {n} time(s) in a committed txn \
                             (acked: {}); duplicate suppression failed",
                            acked.contains(&(key as u64)),
                        ),
                    ),
                    run.sched.consulted,
                    run.cache_high_water,
                );
            }
        }
    } else {
        // Abort / crash-restart path: rolling back the remaining undo log
        // must leave zero net effect — a transaction that failed (or was
        // doomed by a restart's recovery) contributes nothing durable.
        run.rollback();
        for key in 1..=cfg.keys as usize {
            let n = run.applied[key];
            if n != 0 {
                return (
                    RunResult::Violation(
                        "abort-rollback",
                        format!(
                            "key {key} still applied {n} time(s) after an \
                             aborted txn's rollback; recovery UNDO leaked"
                        ),
                    ),
                    run.sched.consulted,
                    run.cache_high_water,
                );
            }
        }
    }
    (RunResult::Ok, run.sched.consulted, run.cache_high_water)
}

// ----------------------------------------------------------------------
// DFS schedule enumeration
// ----------------------------------------------------------------------

/// Exhaustively explore every schedule with at most `cfg.max_faults`
/// injected faults. Each schedule is executed exactly once: the canonical
/// prefix always ends with a fault, and exchanges past the prefix deliver
/// clean.
fn explore(cfg: ModelConfig, run_one: &dyn Fn(ModelConfig, &[Action]) -> RunOutput) -> Exploration {
    let mut out = Exploration::default();
    // Breadth-first, so a violation is always reported with a minimal
    // counterexample (fewest faults, earliest positions) first.
    let mut queue: VecDeque<Vec<Action>> = VecDeque::from([Vec::new()]);
    while let Some(prefix) = queue.pop_front() {
        let (result, exchanges, cache_high) = run_one(cfg, &prefix);
        out.schedules += 1;
        out.max_exchanges = out.max_exchanges.max(exchanges);
        if let RunResult::Violation(invariant, detail) = result {
            out.violations.push(Violation {
                invariant,
                detail,
                schedule: prefix.clone(),
            });
        }
        // The cache bound is an invariant of every state, not just final ones.
        if cache_high > cfg.cache.max(1) {
            out.violations.push(Violation {
                invariant: "cache-bounded",
                detail: format!(
                    "reply cache reached {cache_high} entries (bound {})",
                    cfg.cache
                ),
                schedule: prefix.clone(),
            });
        }
        let faults_used = prefix
            .iter()
            .filter(|a| !matches!(a, Action::Deliver))
            .count();
        if faults_used < cfg.max_faults {
            // Branch: inject one more fault at every exchange the clean
            // tail touched.
            for pos in prefix.len()..exchanges {
                for &fault in FAULTS.iter() {
                    let mut next = prefix.clone();
                    next.extend(std::iter::repeat_n(Action::Deliver, pos - prefix.len()));
                    next.push(fault);
                    queue.push_back(next);
                }
            }
        }
    }
    out
}

/// Explore the scan model.
pub fn check_scan(cfg: ModelConfig) -> Exploration {
    explore(cfg, &run_scan)
}

/// Explore the update model.
pub fn check_update(cfg: ModelConfig) -> Exploration {
    explore(cfg, &run_update)
}

/// Render a schedule compactly (`[Deliver ×2, DropReply, CpuDown]`).
pub fn format_schedule(schedule: &[Action]) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < schedule.len() {
        let a = schedule[i];
        let mut n = 1usize;
        while i + n < schedule.len() && schedule[i + n] == a {
            n += 1;
        }
        if n > 1 {
            parts.push(format!("{a:?} ×{n}"));
        } else {
            parts.push(format!("{a:?}"));
        }
        i += n;
    }
    format!("[{}]", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_protocol_has_no_violations_depth_2() {
        let cfg = ModelConfig {
            max_faults: 2,
            ..ModelConfig::default()
        };
        let scan = check_scan(cfg);
        assert!(scan.violations.is_empty(), "{:?}", scan.violations.first());
        assert!(scan.schedules > 100);
        let upd = check_update(cfg);
        assert!(upd.violations.is_empty(), "{:?}", upd.violations.first());
        assert!(upd.schedules > 100);
    }

    #[test]
    fn full_depth_exceeds_ten_thousand_schedules() {
        let cfg = ModelConfig::default();
        let scan = check_scan(cfg);
        let upd = check_update(cfg);
        assert!(scan.violations.is_empty(), "{:?}", scan.violations.first());
        assert!(upd.violations.is_empty(), "{:?}", upd.violations.first());
        assert!(
            scan.schedules + upd.schedules >= 10_000,
            "only {} schedules",
            scan.schedules + upd.schedules
        );
    }

    #[test]
    fn zero_reply_cache_reproduces_double_apply_deterministically() {
        let cfg = ModelConfig {
            cache: 0,
            max_faults: 1,
            ..ModelConfig::default()
        };
        let upd = check_update(cfg);
        let dup = upd
            .violations
            .iter()
            .find(|v| v.invariant == "update-exactly-once");
        let Some(dup) = dup else {
            unreachable!("cache=0 must produce a double apply: {:?}", upd.violations)
        };
        // Deterministic: the minimal schedule is a single dropped reply —
        // the server executed, the retry re-executed because nothing was
        // cached.
        assert_eq!(dup.schedule, vec![Action::DropReply]);
        // And a second run finds the identical counterexample.
        let again = check_update(cfg);
        let Some(dup2) = again
            .violations
            .iter()
            .find(|v| v.invariant == "update-exactly-once")
        else {
            unreachable!("determinism lost")
        };
        assert_eq!(dup2.schedule, dup.schedule);
    }

    #[test]
    fn crash_restart_schedules_are_explored_and_clean() {
        // Restart is a first-class fault: every ≤3-fault schedule that
        // includes a server crash-restart (volatile state wiped, recovery
        // rollback of the in-flight txn) must satisfy both invariants.
        assert!(FAULTS.contains(&Action::Restart));
        let with = check_update(ModelConfig::default());
        assert!(with.violations.is_empty(), "{:?}", with.violations.first());
        // A single restart mid-update dooms the txn, so the txn aborts and
        // rollback must leave zero net effect — still violation-free even
        // with the reply cache disabled (restart wipes it anyway).
        let cfg = ModelConfig {
            cache: 0,
            max_faults: 1,
            ..ModelConfig::default()
        };
        let upd = check_update(cfg);
        assert!(upd
            .violations
            .iter()
            .all(|v| v.invariant != "abort-rollback"));
    }

    #[test]
    fn schedule_counts_are_deterministic() {
        let cfg = ModelConfig {
            max_faults: 2,
            ..ModelConfig::default()
        };
        let a = check_scan(cfg);
        let b = check_scan(cfg);
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.max_exchanges, b.max_exchanges);
    }

    #[test]
    fn format_schedule_compresses_runs() {
        let s = format_schedule(&[
            Action::Deliver,
            Action::Deliver,
            Action::DropReply,
            Action::CpuDown,
        ]);
        assert_eq!(s, "[Deliver ×2, DropReply, CpuDown]");
    }
}
