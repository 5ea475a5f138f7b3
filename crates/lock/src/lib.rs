#![warn(missing_docs)]
//! The lock management component of the Disk Process.
//!
//! The paper describes concurrency control "via locking at the file, record,
//! or *generic* (key prefix) level", with SQL's VSBB extending record
//! locking to "a form of virtual block locking in which the records of the
//! virtual block are locked as a group". All four granularities reduce to
//! two shapes:
//!
//! * a **file lock**, covering every record of a file, and
//! * a **key-range lock**, covering an interval of encoded keys — a point
//!   for a record lock, a prefix range for a generic lock, and the span of
//!   a virtual block for a VSBB group lock.
//!
//! The manager is *non-blocking*: a conflicting request returns the holder
//! so the Disk Process can decide to queue, abort, or bounce the request.
//! A waits-for graph detects deadlocks when callers declare waits.
//!
//! Contention survivability (multi-terminal workloads) adds three rules:
//!
//! * **FIFO grant order** — a declared waiter joins a queue; a later
//!   incompatible request is bounced off the queued waiter (not just off
//!   the holder), so convoys drain in arrival order instead of racing on
//!   each release. A transaction that already holds an overlapping lock
//!   (re-acquire, upgrade) bypasses the queue — queue-jumping upgrades
//!   avoid a guaranteed upgrade deadlock.
//! * **Youngest victim** — when a declared wait closes a waits-for cycle,
//!   the *youngest* member of the cycle (highest [`TxnId`]: transaction
//!   ids are assigned in begin order) is chosen as the victim, has its
//!   wait state cleared, and is reported in [`LockError::Deadlock`]; the
//!   caller dooms it so its client aborts, rolls back through the audit
//!   trail, and retries. Aborting the youngest wastes the least work.
//! * **Wait timeout** — with [`LockManager::set_wait_timeout`] armed, a
//!   waiter whose (virtual-time) wait exceeds the budget is bounced with
//!   [`LockError::WaitTimeout`]: convoy stragglers are doomed instead of
//!   waiting forever behind a pathological queue.
//!
//! Locking is strict two-phase: transactions release everything at
//! commit/abort via [`LockManager::release_all`].
//!
//! `nsql-lint check-locks` runs this manager, as shipped, under every
//! interleaving of its client scripts (`crates/lint/src/lockmodel.rs`).

use nsql_sim::sync::Mutex;
use std::collections::HashMap;
use std::fmt;

/// Transaction identifier (assigned by TMF; opaque here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// File identifier within one volume.
pub type FileId = u32;

/// Lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read).
    Shared,
    /// Exclusive (write).
    Exclusive,
}

impl LockMode {
    /// Classic S/X compatibility.
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

/// What a lock covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockScope {
    /// The whole file.
    File,
    /// An inclusive interval of encoded keys. Record locks are degenerate
    /// intervals (`lo == hi`); generic (key-prefix) locks and virtual-block
    /// group locks are wider.
    KeyInterval {
        /// Low end (inclusive).
        lo: Vec<u8>,
        /// High end (inclusive).
        hi: Vec<u8>,
    },
}

impl LockScope {
    /// A record (point) lock.
    pub fn record(key: Vec<u8>) -> Self {
        LockScope::KeyInterval {
            lo: key.clone(),
            hi: key,
        }
    }

    /// A lock over `[lo, hi]` — used for virtual-block group locks.
    pub fn interval(lo: Vec<u8>, hi: Vec<u8>) -> Self {
        assert!(lo <= hi);
        LockScope::KeyInterval { lo, hi }
    }

    /// Do two scopes cover any key in common? File scope overlaps
    /// everything in the same file.
    pub fn overlaps(&self, other: &LockScope) -> bool {
        match (self, other) {
            (LockScope::File, _) | (_, LockScope::File) => true,
            (
                LockScope::KeyInterval { lo: a_lo, hi: a_hi },
                LockScope::KeyInterval { lo: b_lo, hi: b_hi },
            ) => a_lo <= b_hi && b_lo <= a_hi,
        }
    }
}

/// A held lock (internal record; exposed for tests and introspection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeldLock {
    /// Owner.
    pub txn: TxnId,
    /// File the lock is on.
    pub file: FileId,
    /// Coverage.
    pub scope: LockScope,
    /// Mode.
    pub mode: LockMode,
}

/// Why a lock could not be granted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// Conflicts with a lock held (or a grant queued ahead) by `holder`.
    Conflict {
        /// The transaction holding (or queued for) the conflicting lock.
        holder: TxnId,
    },
    /// The wait would close a waits-for cycle. `victim` is the youngest
    /// member of the cycle (highest [`TxnId`]) — possibly, but not
    /// necessarily, the requester — and its wait state has been cleared;
    /// the caller must doom it so the cycle actually dissolves.
    Deadlock {
        /// The youngest transaction in the cycle.
        victim: TxnId,
    },
    /// The waiter exceeded the lock-wait timeout budget and has been
    /// dequeued; the caller should doom it.
    WaitTimeout {
        /// The timed-out waiter itself.
        victim: TxnId,
    },
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Conflict { holder } => write!(f, "lock conflict with {holder}"),
            LockError::Deadlock { victim } => write!(f, "deadlock; victim {victim}"),
            LockError::WaitTimeout { victim } => write!(f, "lock wait timeout; victim {victim}"),
        }
    }
}

impl std::error::Error for LockError {}

/// A queued lock request (FIFO by arrival; `since` is virtual time).
struct Waiter {
    txn: TxnId,
    file: FileId,
    scope: LockScope,
    mode: LockMode,
    since: u64,
}

/// A queued lock request as reported to introspection readers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitingLock {
    /// The blocked requester.
    pub txn: TxnId,
    /// File the request is on.
    pub file: FileId,
    /// Requested coverage.
    pub scope: LockScope,
    /// Requested mode.
    pub mode: LockMode,
    /// Virtual time the request joined the queue.
    pub since: u64,
}

#[derive(Default)]
struct State {
    held: Vec<HeldLock>,
    /// FIFO queue of declared waiters; arrival order is grant order.
    waiters: Vec<Waiter>,
    /// waiter -> holder edges, declared by callers that decide to block.
    waits_for: HashMap<TxnId, TxnId>,
    /// Lock-wait timeout budget in virtual microseconds (0 = disabled).
    timeout_us: u64,
}

/// The per-volume lock manager.
#[derive(Default)]
pub struct LockManager {
    state: Mutex<State>,
}

impl LockManager {
    /// An empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm (or, with `0`, disarm) the lock-wait timeout: a waiter whose
    /// virtual-time wait reaches `us` microseconds is bounced from the
    /// queue with [`LockError::WaitTimeout`] on its next [`Self::wait`].
    pub fn set_wait_timeout(&self, us: u64) {
        self.state.lock().timeout_us = us;
    }

    /// Try to acquire a lock. On success the lock is recorded and any wait
    /// state of `txn` is cleared (re-acquiring a covered lock in the same
    /// or weaker mode is a no-op; a stronger mode upgrades when no other
    /// holder conflicts). Grants are FIFO-fair: a request that would jump
    /// an earlier incompatible queued waiter is bounced off that waiter,
    /// unless the requester already holds an overlapping lock on the file
    /// (upgrades jump the queue — parking an upgrade behind a queued
    /// request for the same key is a guaranteed deadlock).
    pub fn acquire(
        &self,
        txn: TxnId,
        file: FileId,
        scope: LockScope,
        mode: LockMode,
    ) -> Result<(), LockError> {
        let mut st = self.state.lock();
        // Already covered by one of our own locks at sufficient strength?
        let covered = st.held.iter().any(|h| {
            h.txn == txn
                && h.file == file
                && covers(&h.scope, &scope)
                && (h.mode == LockMode::Exclusive || mode == LockMode::Shared)
        });
        if covered {
            st.waiters.retain(|w| w.txn != txn);
            st.waits_for.remove(&txn);
            return Ok(());
        }
        // Conflict scan: any overlapping lock by another txn in an
        // incompatible mode blocks us.
        for h in &st.held {
            if h.txn != txn
                && h.file == file
                && h.scope.overlaps(&scope)
                && !h.mode.compatible(mode)
            {
                return Err(LockError::Conflict { holder: h.txn });
            }
        }
        // FIFO fairness scan: an incompatible waiter queued before us (or
        // before our own queue position) gets the grant first.
        let upgrading = st
            .held
            .iter()
            .any(|h| h.txn == txn && h.file == file && h.scope.overlaps(&scope));
        if !upgrading {
            for w in &st.waiters {
                if w.txn == txn {
                    break; // only arrivals ahead of our own position count
                }
                if w.file == file && w.scope.overlaps(&scope) && !w.mode.compatible(mode) {
                    return Err(LockError::Conflict { holder: w.txn });
                }
            }
        }
        st.held.push(HeldLock {
            txn,
            file,
            scope,
            mode,
        });
        st.waiters.retain(|w| w.txn != txn);
        st.waits_for.remove(&txn);
        Ok(())
    }

    /// Declare that `waiter` is queued behind `holder` for the given lock,
    /// at virtual time `now_us`. The waiter keeps its FIFO position across
    /// repeated polls of the *same* request (a changed request forfeits the
    /// old position). Errors:
    ///
    /// * [`LockError::WaitTimeout`] once the armed timeout budget elapses —
    ///   the waiter is dequeued; the caller should doom it.
    /// * [`LockError::Deadlock`] when the edge closes a waits-for cycle —
    ///   the *youngest* cycle member is the victim and its wait state is
    ///   cleared; when the victim is someone else, the waiter's edge is
    ///   still recorded and it keeps waiting.
    pub fn wait(
        &self,
        waiter: TxnId,
        holder: TxnId,
        file: FileId,
        scope: LockScope,
        mode: LockMode,
        now_us: u64,
    ) -> Result<(), LockError> {
        let mut st = self.state.lock();
        if holder == waiter {
            return Err(LockError::Deadlock { victim: waiter });
        }
        // Find or create the FIFO queue entry.
        let since = match st.waiters.iter_mut().find(|w| w.txn == waiter) {
            Some(w) => {
                if w.file != file || w.scope != scope || w.mode != mode {
                    // A different request forfeits the old queue position.
                    w.file = file;
                    w.scope = scope;
                    w.mode = mode;
                    w.since = now_us;
                }
                w.since
            }
            None => {
                st.waiters.push(Waiter {
                    txn: waiter,
                    file,
                    scope,
                    mode,
                    since: now_us,
                });
                now_us
            }
        };
        let timeout = st.timeout_us;
        if timeout > 0 && now_us.saturating_sub(since) >= timeout {
            st.waiters.retain(|w| w.txn != waiter);
            st.waits_for.remove(&waiter);
            return Err(LockError::WaitTimeout { victim: waiter });
        }
        close_cycle(&mut st, waiter, holder)
    }

    /// Declare that `waiter` intends to wait for `holder` (legacy edge-only
    /// API: no queue entry, no timeout). Returns `Deadlock` with the
    /// youngest cycle member as victim if the new edge closes a cycle,
    /// otherwise records the edge.
    pub fn wait_for(&self, waiter: TxnId, holder: TxnId) -> Result<(), LockError> {
        let mut st = self.state.lock();
        if holder == waiter {
            return Err(LockError::Deadlock { victim: waiter });
        }
        close_cycle(&mut st, waiter, holder)
    }

    /// Remove the wait state of `waiter` (it got the lock or gave up).
    pub fn stop_waiting(&self, waiter: TxnId) {
        let mut st = self.state.lock();
        st.waits_for.remove(&waiter);
        st.waiters.retain(|w| w.txn != waiter);
    }

    /// Release every lock held by `txn` (commit/abort; strict two-phase).
    pub fn release_all(&self, txn: TxnId) {
        let mut st = self.state.lock();
        st.held.retain(|h| h.txn != txn);
        st.waiters.retain(|w| w.txn != txn);
        st.waits_for.remove(&txn);
        st.waits_for.retain(|_, holder| *holder != txn);
    }

    /// Locks currently held by `txn` (for tests/inspection).
    pub fn held_by(&self, txn: TxnId) -> Vec<HeldLock> {
        self.state
            .lock()
            .held
            .iter()
            .filter(|h| h.txn == txn)
            .cloned()
            .collect()
    }

    /// Total number of held locks.
    pub fn lock_count(&self) -> usize {
        self.state.lock().held.len()
    }

    /// Number of queued waiters (leak detector for property tests: must be
    /// zero once every transaction has committed, aborted, or timed out).
    pub fn waiting_count(&self) -> usize {
        self.state.lock().waiters.len()
    }

    /// Number of waits-for edges (leak detector, like
    /// [`Self::waiting_count`]).
    pub fn wait_edge_count(&self) -> usize {
        self.state.lock().waits_for.len()
    }

    /// Snapshot of every held lock, in grant order. A pure read for
    /// introspection (`sys.locks`): no clock, counter, or queue effects.
    pub fn held(&self) -> Vec<HeldLock> {
        self.state.lock().held.clone()
    }

    /// Snapshot of the waiter queue in FIFO (arrival = grant) order. Pure
    /// read for introspection (`sys.lock_waiters`), like [`Self::held`].
    pub fn waiters(&self) -> Vec<WaitingLock> {
        self.state
            .lock()
            .waiters
            .iter()
            .map(|w| WaitingLock {
                txn: w.txn,
                file: w.file,
                scope: w.scope.clone(),
                mode: w.mode,
                since: w.since,
            })
            .collect()
    }

    /// Snapshot of the declared `waiter -> holder` edges, sorted by waiter
    /// for deterministic rendering.
    pub fn wait_edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut edges: Vec<(TxnId, TxnId)> = self
            .state
            .lock()
            .waits_for
            .iter()
            .map(|(w, h)| (*w, *h))
            .collect();
        edges.sort_unstable();
        edges
    }

    /// Would `txn` be able to acquire the lock right now? (No side effects.)
    pub fn can_acquire(&self, txn: TxnId, file: FileId, scope: &LockScope, mode: LockMode) -> bool {
        let st = self.state.lock();
        st.held.iter().all(|h| {
            h.txn == txn || h.file != file || !h.scope.overlaps(scope) || h.mode.compatible(mode)
        })
    }
}

/// Record the `waiter -> holder` edge unless it closes a waits-for cycle;
/// on a cycle, pick the youngest member as victim, clear the victim's wait
/// state (which breaks the cycle), and report `Deadlock`. When the victim
/// is not the waiter, the waiter's edge is still recorded — the cycle is
/// already broken, so the edge is safe and the waiter keeps its place.
fn close_cycle(st: &mut State, waiter: TxnId, holder: TxnId) -> Result<(), LockError> {
    // Walk holder's wait chain; if it reaches `waiter` we have a cycle and
    // `members` holds every transaction on it.
    let mut members = vec![waiter, holder];
    let mut cur = holder;
    let mut hops = 0;
    while let Some(&next) = st.waits_for.get(&cur) {
        if next == waiter {
            let victim = members.iter().copied().fold(waiter, TxnId::max);
            st.waits_for.remove(&victim);
            st.waiters.retain(|w| w.txn != victim);
            if victim != waiter {
                st.waits_for.insert(waiter, holder);
            }
            return Err(LockError::Deadlock { victim });
        }
        members.push(next);
        cur = next;
        hops += 1;
        if hops > st.waits_for.len() {
            break; // defensive: malformed graph
        }
    }
    st.waits_for.insert(waiter, holder);
    Ok(())
}

/// Does scope `outer` cover every key `inner` covers?
fn covers(outer: &LockScope, inner: &LockScope) -> bool {
    match (outer, inner) {
        (LockScope::File, _) => true,
        (LockScope::KeyInterval { .. }, LockScope::File) => false,
        (
            LockScope::KeyInterval { lo: o_lo, hi: o_hi },
            LockScope::KeyInterval { lo: i_lo, hi: i_hi },
        ) => o_lo <= i_lo && i_hi <= o_hi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(b: u8) -> Vec<u8> {
        vec![b]
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        lm.acquire(TxnId(1), 0, LockScope::record(k(5)), LockMode::Shared)
            .unwrap();
        lm.acquire(TxnId(2), 0, LockScope::record(k(5)), LockMode::Shared)
            .unwrap();
        assert_eq!(lm.lock_count(), 2);
    }

    #[test]
    fn exclusive_conflicts_with_any() {
        let lm = LockManager::new();
        lm.acquire(TxnId(1), 0, LockScope::record(k(5)), LockMode::Exclusive)
            .unwrap();
        assert_eq!(
            lm.acquire(TxnId(2), 0, LockScope::record(k(5)), LockMode::Shared),
            Err(LockError::Conflict { holder: TxnId(1) })
        );
        assert_eq!(
            lm.acquire(TxnId(2), 0, LockScope::record(k(5)), LockMode::Exclusive),
            Err(LockError::Conflict { holder: TxnId(1) })
        );
    }

    #[test]
    fn different_keys_dont_conflict() {
        let lm = LockManager::new();
        lm.acquire(TxnId(1), 0, LockScope::record(k(5)), LockMode::Exclusive)
            .unwrap();
        lm.acquire(TxnId(2), 0, LockScope::record(k(6)), LockMode::Exclusive)
            .unwrap();
    }

    #[test]
    fn different_files_dont_conflict() {
        let lm = LockManager::new();
        lm.acquire(TxnId(1), 0, LockScope::File, LockMode::Exclusive)
            .unwrap();
        lm.acquire(TxnId(2), 1, LockScope::File, LockMode::Exclusive)
            .unwrap();
    }

    #[test]
    fn file_lock_blocks_record_locks() {
        let lm = LockManager::new();
        lm.acquire(TxnId(1), 0, LockScope::File, LockMode::Exclusive)
            .unwrap();
        assert!(lm
            .acquire(TxnId(2), 0, LockScope::record(k(1)), LockMode::Shared)
            .is_err());
        // Shared file lock permits shared record locks but not exclusive.
        let lm = LockManager::new();
        lm.acquire(TxnId(1), 0, LockScope::File, LockMode::Shared)
            .unwrap();
        assert!(lm
            .acquire(TxnId(2), 0, LockScope::record(k(1)), LockMode::Shared)
            .is_ok());
        assert!(lm
            .acquire(TxnId(3), 0, LockScope::record(k(2)), LockMode::Exclusive)
            .is_err());
    }

    #[test]
    fn generic_prefix_lock_blocks_interval() {
        // A virtual-block group lock over [10, 20] conflicts with a write
        // to key 15 but not to key 25 — this is experiment E13's mechanism.
        let lm = LockManager::new();
        lm.acquire(
            TxnId(1),
            0,
            LockScope::interval(k(10), k(20)),
            LockMode::Shared,
        )
        .unwrap();
        assert!(lm
            .acquire(TxnId(2), 0, LockScope::record(k(15)), LockMode::Exclusive)
            .is_err());
        assert!(lm
            .acquire(TxnId(2), 0, LockScope::record(k(25)), LockMode::Exclusive)
            .is_ok());
    }

    #[test]
    fn reacquire_is_idempotent_and_upgrade_works() {
        let lm = LockManager::new();
        let t = TxnId(1);
        lm.acquire(t, 0, LockScope::record(k(5)), LockMode::Shared)
            .unwrap();
        lm.acquire(t, 0, LockScope::record(k(5)), LockMode::Shared)
            .unwrap();
        assert_eq!(lm.lock_count(), 1, "covered re-acquire adds nothing");
        // Upgrade to exclusive with no other holder.
        lm.acquire(t, 0, LockScope::record(k(5)), LockMode::Exclusive)
            .unwrap();
        assert!(!lm.can_acquire(TxnId(2), 0, &LockScope::record(k(5)), LockMode::Shared));
        // Upgrade blocked by another shared holder.
        let lm = LockManager::new();
        lm.acquire(TxnId(1), 0, LockScope::record(k(7)), LockMode::Shared)
            .unwrap();
        lm.acquire(TxnId(2), 0, LockScope::record(k(7)), LockMode::Shared)
            .unwrap();
        assert!(lm
            .acquire(TxnId(1), 0, LockScope::record(k(7)), LockMode::Exclusive)
            .is_err());
    }

    #[test]
    fn release_all_frees_everything() {
        let lm = LockManager::new();
        lm.acquire(TxnId(1), 0, LockScope::record(k(1)), LockMode::Exclusive)
            .unwrap();
        lm.acquire(TxnId(1), 1, LockScope::File, LockMode::Shared)
            .unwrap();
        lm.release_all(TxnId(1));
        assert_eq!(lm.lock_count(), 0);
        assert!(lm
            .acquire(TxnId(2), 0, LockScope::record(k(1)), LockMode::Exclusive)
            .is_ok());
    }

    #[test]
    fn deadlock_detected_on_cycle() {
        let lm = LockManager::new();
        // T1 waits for T2, T2 waits for T3: fine.
        lm.wait_for(TxnId(1), TxnId(2)).unwrap();
        lm.wait_for(TxnId(2), TxnId(3)).unwrap();
        // T3 waiting for T1 closes the cycle.
        assert_eq!(
            lm.wait_for(TxnId(3), TxnId(1)),
            Err(LockError::Deadlock { victim: TxnId(3) })
        );
        // After T1 stops waiting, the edge is gone and T3 may wait.
        lm.stop_waiting(TxnId(1));
        lm.wait_for(TxnId(3), TxnId(1)).unwrap();
    }

    #[test]
    fn self_wait_is_deadlock() {
        let lm = LockManager::new();
        assert!(lm.wait_for(TxnId(1), TxnId(1)).is_err());
    }

    #[test]
    fn release_clears_wait_edges() {
        let lm = LockManager::new();
        lm.wait_for(TxnId(1), TxnId(2)).unwrap();
        lm.release_all(TxnId(2));
        // T2 gone: T2->? edges and ?->T2 edges cleared, so no cycle now.
        lm.wait_for(TxnId(2), TxnId(1)).unwrap();
    }

    #[test]
    fn held_by_reports_scopes() {
        let lm = LockManager::new();
        lm.acquire(TxnId(9), 3, LockScope::record(k(5)), LockMode::Exclusive)
            .unwrap();
        let held = lm.held_by(TxnId(9));
        assert_eq!(held.len(), 1);
        assert_eq!(held[0].file, 3);
        assert_eq!(held[0].mode, LockMode::Exclusive);
    }

    #[test]
    fn fifo_queue_bounces_later_arrivals_until_the_head_is_served() {
        let lm = LockManager::new();
        lm.acquire(TxnId(1), 0, LockScope::record(k(5)), LockMode::Exclusive)
            .unwrap();
        // T2 then T3 queue behind T1, in that order.
        lm.wait(
            TxnId(2),
            TxnId(1),
            0,
            LockScope::record(k(5)),
            LockMode::Exclusive,
            10,
        )
        .unwrap();
        lm.wait(
            TxnId(3),
            TxnId(1),
            0,
            LockScope::record(k(5)),
            LockMode::Exclusive,
            20,
        )
        .unwrap();
        assert_eq!(lm.waiting_count(), 2);
        lm.release_all(TxnId(1));
        // T3 must not overtake T2: it bounces off the queued waiter.
        assert_eq!(
            lm.acquire(TxnId(3), 0, LockScope::record(k(5)), LockMode::Exclusive),
            Err(LockError::Conflict { holder: TxnId(2) })
        );
        lm.acquire(TxnId(2), 0, LockScope::record(k(5)), LockMode::Exclusive)
            .unwrap();
        // Granting purged T2's wait state.
        assert_eq!(lm.waiting_count(), 1);
        lm.release_all(TxnId(2));
        lm.acquire(TxnId(3), 0, LockScope::record(k(5)), LockMode::Exclusive)
            .unwrap();
        assert_eq!(lm.waiting_count(), 0);
        assert_eq!(lm.wait_edge_count(), 0);
    }

    #[test]
    fn upgrade_jumps_the_wait_queue() {
        let lm = LockManager::new();
        lm.acquire(TxnId(1), 0, LockScope::record(k(5)), LockMode::Shared)
            .unwrap();
        // T2 queues for an exclusive on the same key.
        lm.wait(
            TxnId(2),
            TxnId(1),
            0,
            LockScope::record(k(5)),
            LockMode::Exclusive,
            0,
        )
        .unwrap();
        // T1's upgrade must not park behind T2 — that would deadlock.
        lm.acquire(TxnId(1), 0, LockScope::record(k(5)), LockMode::Exclusive)
            .unwrap();
    }

    #[test]
    fn youngest_cycle_member_is_the_victim() {
        let lm = LockManager::new();
        // T3 waits for T1; then T1 closing the cycle picks T3 (younger).
        lm.wait_for(TxnId(3), TxnId(1)).unwrap();
        assert_eq!(
            lm.wait_for(TxnId(1), TxnId(3)),
            Err(LockError::Deadlock { victim: TxnId(3) })
        );
        // T3's edge was cleared (cycle broken) and T1's edge recorded, so
        // T1 is genuinely waiting on the doomed T3.
        assert_eq!(lm.wait_edge_count(), 1);
        lm.stop_waiting(TxnId(1));
        assert_eq!(lm.wait_edge_count(), 0);
    }

    #[test]
    fn wait_timeout_bounces_stragglers_and_clears_state() {
        let lm = LockManager::new();
        lm.set_wait_timeout(1000);
        lm.acquire(TxnId(1), 0, LockScope::record(k(5)), LockMode::Exclusive)
            .unwrap();
        let w = |now| {
            lm.wait(
                TxnId(2),
                TxnId(1),
                0,
                LockScope::record(k(5)),
                LockMode::Exclusive,
                now,
            )
        };
        w(100).unwrap();
        w(1000).unwrap(); // 900 elapsed: still under budget
        assert_eq!(w(1100), Err(LockError::WaitTimeout { victim: TxnId(2) }));
        assert_eq!(lm.waiting_count(), 0);
        assert_eq!(lm.wait_edge_count(), 0);
        // A changed request resets the clock (old position forfeited).
        w(2000).unwrap();
        assert!(lm
            .wait(
                TxnId(2),
                TxnId(1),
                0,
                LockScope::record(k(6)),
                LockMode::Exclusive,
                2900,
            )
            .is_ok());
        assert!(lm
            .wait(
                TxnId(2),
                TxnId(1),
                0,
                LockScope::record(k(6)),
                LockMode::Exclusive,
                4000,
            )
            .is_err());
    }

    #[test]
    fn scope_overlap_relations() {
        let a = LockScope::interval(k(1), k(5));
        let b = LockScope::interval(k(5), k(9));
        let c = LockScope::interval(k(6), k(9));
        assert!(a.overlaps(&b), "shared endpoint overlaps");
        assert!(!a.overlaps(&c));
        assert!(LockScope::File.overlaps(&a));
    }
}
