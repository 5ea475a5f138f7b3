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
//! The table is indexed so that a set-oriented statement holding thousands
//! of record locks pays for each new one what it pays with ten held: per
//! file, record locks sit in an ordered map by encoded key (a point request
//! looks up its key, an interval or file request walks the keys it spans),
//! and interval and file locks in a short side list. Every grant carries a
//! sequence number, so [`LockManager::held`] lists grants in grant order
//! and a conflict names the earliest-granted conflicting holder. Each
//! transaction keeps the list of what it was granted, so
//! [`LockManager::release_all`] visits only its own locks. A request names
//! its scope by reference ([`ScopeRef`]); the table copies a key only when
//! it keeps it, and keeps a short key inline.
//!
//! `nsql-lint check-locks` runs this manager, as shipped, under every
//! interleaving of its client scripts (`crates/lint/src/lockmodel.rs`).

use nsql_sim::sync::Mutex;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

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
    /// group locks are wider. An inverted interval (`lo > hi`) covers no
    /// key: it overlaps nothing, so it never conflicts.
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
        LockScope::KeyInterval { lo, hi }
    }

    /// Do two scopes cover any key in common? File scope overlaps
    /// everything in the same file.
    pub fn overlaps(&self, other: &LockScope) -> bool {
        self.as_scope().overlaps(other.as_scope())
    }
}

/// A [`LockScope`] borrowed from the caller's keys: what a request names.
/// The table copies a key only when it keeps it (a new grant, a new or
/// changed queue entry), so a covered re-acquire or a repeated wait copies
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeRef<'k> {
    /// The whole file.
    File,
    /// An inclusive interval of encoded keys (see [`LockScope::KeyInterval`]).
    KeyInterval {
        /// Low end (inclusive).
        lo: &'k [u8],
        /// High end (inclusive).
        hi: &'k [u8],
    },
}

impl<'k> ScopeRef<'k> {
    /// A record (point) lock on `key`.
    pub fn record(key: &'k [u8]) -> Self {
        ScopeRef::KeyInterval { lo: key, hi: key }
    }

    /// A lock over `[lo, hi]`.
    pub fn interval(lo: &'k [u8], hi: &'k [u8]) -> Self {
        ScopeRef::KeyInterval { lo, hi }
    }

    /// The owned scope, for the table to keep.
    fn to_scope(self) -> LockScope {
        match self {
            ScopeRef::File => LockScope::File,
            ScopeRef::KeyInterval { lo, hi } => LockScope::interval(lo.to_vec(), hi.to_vec()),
        }
    }

    /// Does the scope cover no key at all (an inverted interval)?
    fn is_empty(self) -> bool {
        matches!(self, ScopeRef::KeyInterval { lo, hi } if lo > hi)
    }

    /// Do two scopes cover any key in common?
    fn overlaps(self, other: ScopeRef<'_>) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        match (self, other) {
            (ScopeRef::File, _) | (_, ScopeRef::File) => true,
            (
                ScopeRef::KeyInterval { lo: a_lo, hi: a_hi },
                ScopeRef::KeyInterval { lo: b_lo, hi: b_hi },
            ) => a_lo <= b_hi && b_lo <= a_hi,
        }
    }

    /// Does the scope cover every key `inner` covers, and `inner` some key?
    fn covers(self, inner: ScopeRef<'_>) -> bool {
        if inner.is_empty() {
            return false;
        }
        match (self, inner) {
            (ScopeRef::File, _) => true,
            (ScopeRef::KeyInterval { .. }, ScopeRef::File) => false,
            (
                ScopeRef::KeyInterval { lo: o_lo, hi: o_hi },
                ScopeRef::KeyInterval { lo: i_lo, hi: i_hi },
            ) => o_lo <= i_lo && i_hi <= o_hi,
        }
    }
}

/// Anything a request can name its scope with: an owned [`LockScope`], a
/// reference to one, or a [`ScopeRef`].
pub trait AsScope {
    /// The scope, borrowed.
    fn as_scope(&self) -> ScopeRef<'_>;
}

impl AsScope for LockScope {
    fn as_scope(&self) -> ScopeRef<'_> {
        match self {
            LockScope::File => ScopeRef::File,
            LockScope::KeyInterval { lo, hi } => ScopeRef::KeyInterval { lo, hi },
        }
    }
}

impl AsScope for ScopeRef<'_> {
    fn as_scope(&self) -> ScopeRef<'_> {
        *self
    }
}

impl<T: AsScope + ?Sized> AsScope for &T {
    fn as_scope(&self) -> ScopeRef<'_> {
        (**self).as_scope()
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

/// One grant: its owner, its mode and its place in grant order.
#[derive(Clone, Copy)]
struct Grant {
    txn: TxnId,
    mode: LockMode,
    seq: u64,
}

/// Keys up to this length are kept inline (an integer or short CHAR
/// primary key): a record lock on one allocates nothing for its key.
const INLINE_KEY: usize = 22;

/// A transaction holding at least this many record grants in a file, and
/// the only one holding any there, has the file's record index cleared in
/// one call when it releases them. A smaller index is emptied key by key:
/// that is cheap, and it keeps the index's node for the next transaction,
/// where a clear frees it and the next grant allocates it again.
const CLEAR_FROM: usize = 32;

/// An encoded key as the table keeps it: inline when short, otherwise one
/// shared allocation that the owner's list and the index both point at.
#[derive(Clone)]
enum Key {
    Inline(u8, [u8; INLINE_KEY]),
    Shared(Arc<[u8]>),
}

impl Key {
    fn new(bytes: &[u8]) -> Key {
        if bytes.len() > INLINE_KEY {
            return Key::Shared(bytes.into());
        }
        let mut inline = [0; INLINE_KEY];
        inline[..bytes.len()].copy_from_slice(bytes);
        Key::Inline(bytes.len() as u8, inline)
    }

    fn bytes(&self) -> &[u8] {
        match self {
            Key::Inline(len, inline) => &inline[..usize::from(*len)],
            Key::Shared(bytes) => bytes,
        }
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self.bytes()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        self.bytes().cmp(other.bytes())
    }
}

/// Every grant on one record key, in grant order: the first inline, so a
/// key with one holder costs the index nothing beyond its map entry.
struct Holders {
    first: Grant,
    more: Vec<Grant>,
}

impl Holders {
    fn iter(&self) -> impl Iterator<Item = &Grant> {
        std::iter::once(&self.first).chain(&self.more)
    }

    /// Drop `txn`'s grants: how many there were, and whether none are left.
    fn release(&mut self, txn: TxnId) -> (usize, bool) {
        let before = self.more.len();
        self.more.retain(|g| g.txn != txn);
        let mut released = before - self.more.len();
        if self.first.txn == txn {
            released += 1;
            if self.more.is_empty() {
                return (released, true);
            }
            self.first = self.more.remove(0);
        }
        (released, false)
    }
}

/// The locks granted on one file.
#[derive(Default)]
struct FileLocks {
    /// Record (point) locks, by encoded key.
    records: BTreeMap<Key, Holders>,
    /// The grants in `records`: an upgrade adds a second one under a key.
    record_grants: usize,
    /// While a transaction's locks are released: how many of the record
    /// grants are its own.
    releasing: usize,
    /// Interval and file-scope locks, in grant order.
    wide: Vec<(Grant, LockScope)>,
}

impl FileLocks {
    /// Call `visit` with every grant whose scope overlaps `want`, and
    /// whether that scope covers `want`.
    fn overlapping(&self, want: ScopeRef<'_>, mut visit: impl FnMut(&Grant, bool)) {
        match want {
            ScopeRef::File => {
                for grant in self.records.values().flat_map(Holders::iter) {
                    visit(grant, false);
                }
            }
            ScopeRef::KeyInterval { lo, hi } => match lo.cmp(hi) {
                Ordering::Equal => {
                    for grant in self.records.get(lo).into_iter().flat_map(Holders::iter) {
                        visit(grant, true);
                    }
                }
                Ordering::Less => {
                    let span = (Bound::Included(lo), Bound::Included(hi));
                    let spanned = self.records.range::<[u8], _>(span);
                    for grant in spanned.flat_map(|(_, holders)| holders.iter()) {
                        visit(grant, false);
                    }
                }
                Ordering::Greater => {} // an inverted interval covers no key
            },
        }
        overlapping_wide(&self.wide, want, visit);
    }
}

/// [`FileLocks::overlapping`] over the interval and file locks alone.
fn overlapping_wide(
    wide: &[(Grant, LockScope)],
    want: ScopeRef<'_>,
    mut visit: impl FnMut(&Grant, bool),
) {
    for (grant, scope) in wide {
        let scope = scope.as_scope();
        if scope.overlaps(want) {
            visit(grant, scope.covers(want));
        }
    }
}

/// What the grants overlapping a request say about it, seen one by one.
struct Tally {
    txn: TxnId,
    mode: LockMode,
    /// The requester holds a lock covering the request, at least as strong.
    covered: bool,
    /// The requester holds a lock overlapping the request.
    upgrading: bool,
    /// The earliest-granted incompatible grant of another transaction.
    earliest: Option<Grant>,
}

impl Tally {
    fn new(txn: TxnId, mode: LockMode) -> Self {
        Tally {
            txn,
            mode,
            covered: false,
            upgrading: false,
            earliest: None,
        }
    }

    /// A grant whose scope overlaps the request, and whether it covers it.
    fn see(&mut self, grant: &Grant, covers: bool) {
        if grant.txn == self.txn {
            self.upgrading = true;
            self.covered |=
                covers && (grant.mode == LockMode::Exclusive || self.mode == LockMode::Shared);
        } else if !grant.mode.compatible(self.mode)
            && self.earliest.is_none_or(|e| grant.seq < e.seq)
        {
            self.earliest = Some(*grant);
        }
    }

    /// The one lock decision: covered re-acquire, conflict with the
    /// earliest-granted incompatible holder, FIFO bounce off an
    /// incompatible waiter queued ahead (unless the requester already holds
    /// an overlapping lock on the file — upgrades jump the queue), or grant.
    fn verdict(self, waiters: &[WaitingLock], file: FileId, want: ScopeRef<'_>) -> Verdict {
        if self.covered {
            return Verdict::Covered;
        }
        if let Some(grant) = self.earliest {
            return Verdict::Conflict(grant.txn);
        }
        if !self.upgrading {
            // Only arrivals ahead of our own queue position count.
            let ahead = waiters.iter().take_while(|w| w.txn != self.txn);
            for w in ahead {
                if w.file == file
                    && w.scope.as_scope().overlaps(want)
                    && !w.mode.compatible(self.mode)
                {
                    return Verdict::Conflict(w.txn);
                }
            }
        }
        Verdict::Grant
    }
}

/// One entry of a transaction's list of grants: where to find it.
enum Owned {
    Record(FileId, Key),
    Wide(FileId),
}

/// What the table would do with a request.
enum Verdict {
    /// The requester already holds the lock at sufficient strength.
    Covered,
    /// Grantable now.
    Grant,
    /// Blocked by this holder, or by this waiter queued ahead.
    Conflict(TxnId),
}

#[derive(Default)]
struct State {
    files: BTreeMap<FileId, FileLocks>,
    /// Each transaction's grants, for `release_all`.
    owned: BTreeMap<TxnId, Vec<Owned>>,
    /// Emptied grant lists, kept for the next transactions to fill.
    spare: Vec<Vec<Owned>>,
    /// Grants made so far: the next grant's sequence number.
    granted: u64,
    /// Locks held now.
    held: usize,
    /// FIFO queue of declared waiters; arrival order is grant order.
    waiters: Vec<WaitingLock>,
    /// waiter -> holder edges, declared by callers that decide to block.
    waits_for: HashMap<TxnId, TxnId>,
    /// Lock-wait timeout budget in virtual microseconds (0 = disabled).
    timeout_us: u64,
}

impl State {
    /// [`Tally::verdict`] on a request, with no side effects.
    fn decide(&self, txn: TxnId, file: FileId, want: ScopeRef<'_>, mode: LockMode) -> Verdict {
        let mut tally = Tally::new(txn, mode);
        if let Some(locks) = self.files.get(&file) {
            locks.overlapping(want, |grant, covers| tally.see(grant, covers));
        }
        tally.verdict(&self.waiters, file, want)
    }

    /// Decide a request and record the grant when it is one. A record
    /// request looks its key up once, to decide and to grant.
    fn acquire(&mut self, txn: TxnId, file: FileId, want: ScopeRef<'_>, mode: LockMode) -> Verdict {
        let grant = Grant {
            txn,
            mode,
            seq: self.granted,
        };
        let key = match want {
            ScopeRef::KeyInterval { lo, hi } if lo == hi => lo,
            _ => {
                let verdict = self.decide(txn, file, want, mode);
                if let Verdict::Grant = verdict {
                    let locks = self.files.entry(file).or_default();
                    locks.wide.push((grant, want.to_scope()));
                    self.own(txn, Owned::Wide(file));
                }
                return verdict;
            }
        };
        let locks = self.files.entry(file).or_default();
        let slot = locks.records.entry(Key::new(key));
        let mut tally = Tally::new(txn, mode);
        if let Entry::Occupied(holders) = &slot {
            for held in holders.get().iter() {
                tally.see(held, true);
            }
        }
        overlapping_wide(&locks.wide, want, |held, covers| tally.see(held, covers));
        let verdict = tally.verdict(&self.waiters, file, want);
        if let Verdict::Grant = verdict {
            locks.record_grants += 1;
            let key = match slot {
                Entry::Occupied(mut holders) => {
                    holders.get_mut().more.push(grant);
                    holders.key().clone()
                }
                Entry::Vacant(slot) => {
                    let key = slot.key().clone();
                    slot.insert(Holders {
                        first: grant,
                        more: Vec::new(),
                    });
                    key
                }
            };
            self.own(txn, Owned::Record(file, key));
        }
        verdict
    }

    /// Count the grant just recorded, and add it to `txn`'s list.
    fn own(&mut self, txn: TxnId, owned: Owned) {
        self.granted += 1;
        self.held += 1;
        let spare = &mut self.spare;
        let list = self
            .owned
            .entry(txn)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        list.push(owned);
    }

    /// Drop every lock `txn` holds.
    fn release(&mut self, txn: TxnId) {
        let Some(mut list) = self.owned.remove(&txn) else {
            return;
        };
        if list.len() >= CLEAR_FROM {
            self.clear_sole_indexes(&list);
        }
        for owned in list.drain(..) {
            let (file, key) = match owned {
                Owned::Record(file, key) => (file, Some(key)),
                Owned::Wide(file) => (file, None),
            };
            let Some(locks) = self.files.get_mut(&file) else {
                continue;
            };
            match key {
                // The index was cleared: nothing to look up.
                Some(_) if locks.record_grants == 0 => {}
                Some(key) => {
                    // An upgrade's second entry finds its key already gone.
                    if let Entry::Occupied(mut holders) = locks.records.entry(key) {
                        let (released, emptied) = holders.get_mut().release(txn);
                        if emptied {
                            holders.remove();
                        }
                        locks.record_grants -= released;
                        self.held -= released;
                    }
                }
                None => {
                    let before = locks.wide.len();
                    locks.wide.retain(|(grant, _)| grant.txn != txn);
                    self.held -= before - locks.wide.len();
                }
            }
        }
        self.spare.push(list);
    }

    /// Clear, in one call each, the record indexes of the files where
    /// `list` — one transaction's grants — holds every record grant there
    /// is, and at least [`CLEAR_FROM`]. Grants are counted, not keys, so an
    /// upgrade's second grant under a key balances.
    fn clear_sole_indexes(&mut self, list: &[Owned]) {
        for owned in list {
            if let Owned::Record(file, _) = owned {
                if let Some(locks) = self.files.get_mut(file) {
                    locks.releasing += 1;
                }
            }
        }
        for locks in self.files.values_mut() {
            let own = std::mem::take(&mut locks.releasing);
            if own >= CLEAR_FROM && own == locks.record_grants {
                locks.records.clear();
                locks.record_grants = 0;
                self.held -= own;
            }
        }
    }

    /// Clear `txn`'s queue entry and waits-for edge.
    fn stop_waiting(&mut self, txn: TxnId) {
        if !self.waiters.is_empty() {
            self.waiters.retain(|w| w.txn != txn);
        }
        if !self.waits_for.is_empty() {
            self.waits_for.remove(&txn);
        }
    }
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

    /// The armed lock-wait timeout in virtual microseconds (`0`: disarmed).
    pub fn wait_timeout(&self) -> u64 {
        self.state.lock().timeout_us
    }

    /// Try to acquire a lock. On success the lock is recorded and any wait
    /// state of `txn` is cleared (re-acquiring a covered lock in the same
    /// or weaker mode is a no-op; a stronger mode upgrades when no other
    /// holder conflicts). A conflict names the earliest-granted conflicting
    /// holder. Grants are FIFO-fair: a request that would jump an earlier
    /// incompatible queued waiter is bounced off that waiter, unless the
    /// requester already holds an overlapping lock on the file (upgrades
    /// jump the queue — parking an upgrade behind a queued request for the
    /// same key is a guaranteed deadlock).
    pub fn acquire(
        &self,
        txn: TxnId,
        file: FileId,
        scope: impl AsScope,
        mode: LockMode,
    ) -> Result<(), LockError> {
        let want = scope.as_scope();
        let mut st = self.state.lock();
        match st.acquire(txn, file, want, mode) {
            Verdict::Conflict(holder) => return Err(LockError::Conflict { holder }),
            Verdict::Covered | Verdict::Grant => {}
        }
        st.stop_waiting(txn);
        Ok(())
    }

    /// Would [`Self::acquire`] grant (or find covered) this request right
    /// now? The same decision, with no side effects.
    pub fn can_acquire(
        &self,
        txn: TxnId,
        file: FileId,
        scope: impl AsScope,
        mode: LockMode,
    ) -> bool {
        let st = self.state.lock();
        !matches!(
            st.decide(txn, file, scope.as_scope(), mode),
            Verdict::Conflict(_)
        )
    }

    /// Declare that `waiter` is queued behind `holder` for the given lock,
    /// at virtual time `now_us`. The waiter keeps its FIFO position across
    /// repeated polls, also when the request changes: a changed request is
    /// rewritten in place, and only its wait clock restarts. Errors:
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
        scope: impl AsScope,
        mode: LockMode,
        now_us: u64,
    ) -> Result<(), LockError> {
        let want = scope.as_scope();
        let mut st = self.state.lock();
        if holder == waiter {
            return Err(LockError::Deadlock { victim: waiter });
        }
        // Find or create the FIFO queue entry.
        let since = match st.waiters.iter_mut().find(|w| w.txn == waiter) {
            Some(w) => {
                if w.file != file || w.scope.as_scope() != want || w.mode != mode {
                    // A different request keeps the queue position; its
                    // wait clock restarts.
                    w.file = file;
                    w.scope = want.to_scope();
                    w.mode = mode;
                    w.since = now_us;
                }
                w.since
            }
            None => {
                st.waiters.push(WaitingLock {
                    txn: waiter,
                    file,
                    scope: want.to_scope(),
                    mode,
                    since: now_us,
                });
                now_us
            }
        };
        let timeout = st.timeout_us;
        if timeout > 0 && now_us.saturating_sub(since) >= timeout {
            st.stop_waiting(waiter);
            return Err(LockError::WaitTimeout { victim: waiter });
        }
        close_cycle(&mut st, waiter, holder)
    }

    /// Remove the wait state of `waiter` (it got the lock or gave up).
    pub fn stop_waiting(&self, waiter: TxnId) {
        self.state.lock().stop_waiting(waiter);
    }

    /// Release every lock held by `txn` (commit/abort; strict two-phase).
    pub fn release_all(&self, txn: TxnId) {
        let mut st = self.state.lock();
        st.release(txn);
        st.stop_waiting(txn);
        st.waits_for.retain(|_, holder| *holder != txn);
    }

    /// Locks currently held by `txn`, in grant order (for tests/inspection).
    pub fn held_by(&self, txn: TxnId) -> Vec<HeldLock> {
        let mut held = self.held();
        held.retain(|h| h.txn == txn);
        held
    }

    /// Total number of held locks.
    pub fn lock_count(&self) -> usize {
        self.state.lock().held
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
        let st = self.state.lock();
        let mut held = Vec::with_capacity(st.held);
        for (&file, locks) in &st.files {
            for (key, holders) in &locks.records {
                for grant in holders.iter() {
                    let scope = LockScope::record(key.bytes().to_vec());
                    held.push((grant.seq, grant, scope, file));
                }
            }
            for (grant, scope) in &locks.wide {
                held.push((grant.seq, grant, scope.clone(), file));
            }
        }
        held.sort_unstable_by_key(|&(seq, ..)| seq);
        held.into_iter()
            .map(|(_, grant, scope, file)| HeldLock {
                txn: grant.txn,
                file,
                scope,
                mode: grant.mode,
            })
            .collect()
    }

    /// Snapshot of the waiter queue in FIFO (arrival = grant) order. Pure
    /// read for introspection (`sys.lock_waiters`), like [`Self::held`].
    pub fn waiters(&self) -> Vec<WaitingLock> {
        self.state.lock().waiters.clone()
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
            st.stop_waiting(victim);
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

    /// A release that clears a file's record index in one call leaves what
    /// releasing key by key left: only the files where the transaction
    /// held every record grant are cleared, an upgrade's two grants count
    /// as two, and other holders' grants and the grant count stay right.
    #[test]
    fn release_all_clears_only_an_index_its_own_grants_fill() {
        let (one, two) = (TxnId(1), TxnId(2));
        let lm = LockManager::new();
        let key = |i: usize| (i as u32).to_be_bytes().to_vec();
        let grant = |txn, file, i, mode| {
            lm.acquire(txn, file, LockScope::record(key(i)), mode)
                .unwrap()
        };
        // File 0: `one` alone, one key upgraded. File 1: shared with `two`.
        for i in 0..CLEAR_FROM {
            grant(one, 0, i, LockMode::Shared);
            grant(one, 1, i, LockMode::Exclusive);
        }
        grant(one, 0, 3, LockMode::Exclusive);
        grant(two, 1, CLEAR_FROM, LockMode::Exclusive);
        lm.acquire(one, 2, LockScope::File, LockMode::Shared)
            .unwrap();
        assert_eq!(lm.lock_count(), 2 * CLEAR_FROM + 3);
        lm.release_all(one);
        assert_eq!(lm.lock_count(), 1);
        let left = lm.held();
        assert_eq!(left.len(), 1);
        assert_eq!((left[0].txn, left[0].file), (two, 1));
        // Both files take new grants and give them back again.
        for i in 0..CLEAR_FROM {
            grant(one, 0, i, LockMode::Exclusive);
            grant(two, 1, i, LockMode::Exclusive);
        }
        lm.release_all(two);
        assert_eq!(lm.lock_count(), CLEAR_FROM);
        lm.release_all(one);
        assert_eq!(lm.lock_count(), 0);
        assert!(lm.held().is_empty());
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
        assert!(!lm.can_acquire(TxnId(2), 0, LockScope::record(k(5)), LockMode::Shared));
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

    /// `waiter` queues behind `holder` for an exclusive lock on the key
    /// named after the holder, at time 0.
    fn wait(lm: &LockManager, waiter: u64, holder: u64) -> Result<(), LockError> {
        let key = [holder as u8];
        let scope = ScopeRef::record(&key);
        lm.wait(
            TxnId(waiter),
            TxnId(holder),
            0,
            scope,
            LockMode::Exclusive,
            0,
        )
    }

    #[test]
    fn deadlock_detected_on_cycle() {
        let lm = LockManager::new();
        // T1 waits for T2, T2 waits for T3: fine.
        wait(&lm, 1, 2).unwrap();
        wait(&lm, 2, 3).unwrap();
        // T3 waiting for T1 closes the cycle.
        assert_eq!(
            wait(&lm, 3, 1),
            Err(LockError::Deadlock { victim: TxnId(3) })
        );
        // After T1 stops waiting, the edge is gone and T3 may wait.
        lm.stop_waiting(TxnId(1));
        wait(&lm, 3, 1).unwrap();
    }

    #[test]
    fn self_wait_is_deadlock() {
        let lm = LockManager::new();
        assert!(wait(&lm, 1, 1).is_err());
    }

    #[test]
    fn release_clears_wait_edges() {
        let lm = LockManager::new();
        wait(&lm, 1, 2).unwrap();
        lm.release_all(TxnId(2));
        // T2 gone: T2->? edges and ?->T2 edges cleared, so no cycle now.
        wait(&lm, 2, 1).unwrap();
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
        wait(&lm, 3, 1).unwrap();
        assert_eq!(
            wait(&lm, 1, 3),
            Err(LockError::Deadlock { victim: TxnId(3) })
        );
        // T3's wait state was cleared (cycle broken) and T1's edge
        // recorded, so T1 is genuinely waiting on the doomed T3.
        assert_eq!((lm.wait_edge_count(), lm.waiting_count()), (1, 1));
        lm.stop_waiting(TxnId(1));
        assert_eq!((lm.wait_edge_count(), lm.waiting_count()), (0, 0));
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
        // A changed request restarts the clock (and keeps its position).
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
    fn a_changed_request_keeps_its_queue_position() {
        let lm = LockManager::new();
        let five = || LockScope::record(k(5));
        lm.acquire(TxnId(1), 0, five(), LockMode::Exclusive)
            .unwrap();
        lm.wait(TxnId(2), TxnId(1), 0, five(), LockMode::Exclusive, 100)
            .unwrap();
        lm.wait(TxnId(3), TxnId(1), 0, five(), LockMode::Exclusive, 200)
            .unwrap();
        // T2 asks for less; its entry stays ahead of T3's.
        lm.wait(TxnId(2), TxnId(1), 0, five(), LockMode::Shared, 300)
            .unwrap();
        lm.release_all(TxnId(1));
        let write = |t| lm.acquire(TxnId(t), 0, five(), LockMode::Exclusive);
        assert_eq!(write(3), Err(LockError::Conflict { holder: TxnId(2) }));
        assert_eq!(write(4), Err(LockError::Conflict { holder: TxnId(2) }));
        lm.acquire(TxnId(2), 0, five(), LockMode::Shared).unwrap();
        assert_eq!(lm.waiting_count(), 1, "T3 still queued behind T2");
    }

    #[test]
    fn a_conflict_names_the_earliest_granted_holder() {
        // A shared interval granted before a shared record lock inside it:
        // the index finds the record first, the answer is the interval's.
        let lm = LockManager::new();
        let span = LockScope::interval(k(1), k(9));
        lm.acquire(TxnId(1), 0, &span, LockMode::Shared).unwrap();
        lm.acquire(TxnId(2), 0, LockScope::record(k(5)), LockMode::Shared)
            .unwrap();
        let write = |t| lm.acquire(TxnId(t), 0, LockScope::record(k(5)), LockMode::Exclusive);
        assert_eq!(write(3), Err(LockError::Conflict { holder: TxnId(1) }));
        lm.release_all(TxnId(1));
        assert_eq!(write(3), Err(LockError::Conflict { holder: TxnId(2) }));
        // And the other way round: the record lock first.
        lm.acquire(TxnId(1), 0, &span, LockMode::Shared).unwrap();
        assert_eq!(write(3), Err(LockError::Conflict { holder: TxnId(2) }));
        let grant_order: Vec<TxnId> = lm.held().iter().map(|h| h.txn).collect();
        assert_eq!(grant_order, [TxnId(2), TxnId(1)]);
    }

    #[test]
    fn an_inverted_interval_covers_no_key() {
        let lm = LockManager::new();
        let inverted = LockScope::KeyInterval { lo: k(9), hi: k(1) };
        lm.acquire(TxnId(1), 0, &inverted, LockMode::Exclusive)
            .unwrap();
        lm.acquire(TxnId(2), 0, LockScope::File, LockMode::Exclusive)
            .unwrap();
        lm.acquire(TxnId(3), 0, &inverted, LockMode::Exclusive)
            .unwrap();
        assert_eq!(lm.lock_count(), 3);
        assert!(!inverted.overlaps(&LockScope::File));
        lm.release_all(TxnId(1));
        assert_eq!(lm.lock_count(), 2);
    }

    #[test]
    fn can_acquire_answers_what_acquire_would() {
        let lm = LockManager::new();
        let row = LockScope::record(k(5));
        lm.acquire(TxnId(1), 0, &row, LockMode::Shared).unwrap();
        lm.wait(TxnId(2), TxnId(1), 0, &row, LockMode::Exclusive, 0)
            .unwrap();
        // A shared request is compatible with the holder but would jump
        // the queued writer: bounced.
        assert!(!lm.can_acquire(TxnId(3), 0, &row, LockMode::Shared));
        assert!(lm.acquire(TxnId(3), 0, &row, LockMode::Shared).is_err());
        // The holder's covered re-acquire and its upgrade are grantable.
        assert!(lm.can_acquire(TxnId(1), 0, &row, LockMode::Shared));
        assert!(lm.can_acquire(TxnId(1), 0, &row, LockMode::Exclusive));
        // None of which touched the table.
        assert_eq!((lm.lock_count(), lm.waiting_count()), (1, 1));
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
