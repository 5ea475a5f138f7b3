//! Exhaustive exploration of the contention protocol, on the shipped stack.
//!
//! The system's most schedule-sensitive code is the lock plane: a lock
//! manager with FIFO waiter queues and youngest-cycle-member victims
//! (`nsql_lock`), the Disk Process's lock path that dooms a younger victim
//! at the TMF while the older requester keeps waiting (`nsql_dp`), TMF's
//! refusal to commit a doomed transaction (`nsql_tmf`), typed doom
//! propagation through the File System (`nsql_fs`), lock-wait timeouts. The
//! load engine *samples* that state space with a handful of seeds; this
//! module *exhausts* it, as [`crate::model`] does the recovery protocol.
//!
//! None of that code is written down here. A state ([`St`]) is *observed*
//! from a live [`nsql_core::Cluster`] after each action — `held()`,
//! `waiters()` and `wait_edges()` of the volume's lock manager, `is_doomed`
//! of the TMF — and expanded by replaying its action prefix on a fresh
//! cluster and taking one more action. What *is* written here is the
//! **workload** ([`Live`]): scripted clients whose step is
//! `read_by_key(.., Shared)` or `update_by_key`, that re-poll a `Locked`
//! bounce, abort on `Doomed` and retry as a fresh, younger transaction
//! within a budget, commit at the end of their script, and pass a FIFO
//! admission gate whose slot is kept across retries. The load engine's own
//! client is another program with the same manners; `tests/load_sweep.rs`
//! covers it.
//!
//! Exploration is a deterministic BFS over *canonical* states: transaction
//! ids appear only as begin-order rank among live transactions (all the lock
//! manager compares them for), virtual time, LSNs and sync sequences not at
//! all, so the graph is finite. Schedules are counted exactly by path
//! counting; a violation carries the action sequence that [`replay`]s it.
//!
//! Invariants, of every transition and of every quiescent state:
//!
//! * **fifo-no-overtake** — a grant never bypasses an earlier-queued
//!   incompatible waiter (upgrades excepted);
//! * **youngest-victim** — a deadlock verdict's victim is the youngest
//!   member (highest begin rank) of a waits-for cycle the request closed;
//! * **one-victim-per-cycle** — every verdict dooms somebody who was not
//!   doomed yet (dooming must actually dissolve the cycle);
//! * **serializability** — no two live transactions hold incompatible locks
//!   on one item; under strict 2PL that is conflict-serializability;
//! * **doomed-commit** — a doomed transaction never commits;
//! * **drain** — lock state belongs to live transactions only, and at
//!   quiescence lock table, waiter queue, waits-for graph and admission
//!   gate are empty;
//! * **liveness** — no stuck state (no stuck waiter, lost wakeup or lost
//!   admission grant) and no livelock (the state graph is acyclic).
//!
//! "0 violations" must not mean "never got there": [`REACHED`] names the
//! situations the invariants are about, and callers hold their counts above 0.

use crate::stack::{self, VOLUME};
use crate::Broke;
use nsql_core::{Cluster, DiskProcessConfig};
use nsql_dp::{DpError, ReadLock};
use nsql_fs::{FileSystem, FsError, OpenFile};
pub use nsql_lock::LockMode as Mode;
use nsql_lock::{LockScope, TxnId};
use nsql_msg::CpuId;
use nsql_tmf::txn::TxnError;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// An invariant violation with its replayable schedule.
pub type Violation = crate::Violation<Act>;

/// The workload: a script per client slot — `(item, mode)` steps, item `i`
/// being row `i + 1` — and the bounds that keep the graph finite.
#[derive(Debug, Clone)]
pub struct LockModelConfig {
    /// Per-slot scripts: a shared step reads its row, an exclusive one
    /// updates it.
    pub scripts: Vec<Vec<(u8, Mode)>>,
    /// Admission-gate capacity (slots in flight at once).
    pub max_inflight: u8,
    /// Retries per slot after its first attempt.
    pub max_retries: u8,
    /// Lock-wait timeouts the adversary may arm per schedule.
    pub max_timeouts: u8,
}

impl LockModelConfig {
    /// Rows the scripts touch.
    pub fn locks(&self) -> usize {
        let items = self.scripts.iter().flatten().map(|&(item, _)| item);
        items.max().map_or(0, |top| top as usize + 1)
    }

    /// The cycle-heavy configuration: 3 transactions × 3 locks, all admitted
    /// at once. Transaction `i` reads item `i`, updates item `i + 1`, then
    /// updates item `i`: rotated orders make waits-for cycles of three
    /// reachable, each with a reader in it, and end on a queue-jumping
    /// upgrade.
    pub fn cycle() -> LockModelConfig {
        let (s, x) = (Mode::Shared, Mode::Exclusive);
        let script = |i: u8| vec![(i, s), ((i + 1) % 3, x), (i, x)];
        LockModelConfig {
            scripts: (0..3).map(script).collect(),
            max_inflight: 3,
            max_retries: 3,
            max_timeouts: 1,
        }
    }

    /// The convoy configuration: 3 transactions updating the same two items
    /// in the same order through a 2-slot gate. No cycle is reachable, so
    /// every contention event is a pure FIFO convoy — what tells fair queues
    /// from overtaking ones, and admission queueing from open admission.
    pub fn convoy() -> LockModelConfig {
        let script = vec![(0, Mode::Exclusive), (1, Mode::Exclusive)];
        LockModelConfig {
            scripts: vec![script; 3],
            max_inflight: 2,
            max_retries: 2,
            max_timeouts: 2,
        }
    }

    /// The upgrade configuration: 2 transactions that both read the one item
    /// and then update it — the classic upgrade deadlock, a waits-for cycle
    /// of two, which the other configurations cannot reach (no item of
    /// theirs has two readers).
    pub fn upgrade() -> LockModelConfig {
        let script = vec![(0, Mode::Shared), (0, Mode::Exclusive)];
        LockModelConfig {
            scripts: vec![script; 2],
            max_inflight: 2,
            max_retries: 2,
            max_timeouts: 1,
        }
    }
}

/// One scheduler choice. `Arrive`: a client reaches the admission gate
/// (admitted when a slot is free, queued FIFO otherwise). `Poll`: the slot's
/// next protocol action (request / re-poll / begin a retry / commit).
/// `Timeout`: the adversary's fault choice — a waiting slot's re-poll with
/// the lock-wait timeout armed, which bounces it unless the lock has come
/// free (each arming spends the budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Act {
    Arrive(u8),
    Poll(u8),
    Timeout(u8),
}

impl Act {
    fn slot(self) -> u8 {
        match self {
            Act::Arrive(s) | Act::Poll(s) | Act::Timeout(s) => s,
        }
    }
}

impl std::fmt::Display for Act {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Act::Arrive(s) => write!(f, "Arrive(T{s})"),
            Act::Poll(s) => write!(f, "Poll(T{s})"),
            Act::Timeout(s) => write!(f, "Timeout(T{s})"),
        }
    }
}

/// Where a client slot is: not yet at the gate, queued there, executing its
/// script, bounced and queued at the lock manager, aborted and about to try
/// afresh, committed, or out of retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
enum Phase {
    #[default]
    Unarrived,
    Queued,
    Running,
    Waiting,
    Backoff,
    Committed,
    GaveUp,
}

/// One client slot's state.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
struct Slot {
    phase: Phase,
    /// Next script step; past the end means commit next.
    pc: u8,
    /// Attempts begun so far.
    attempt: u8,
    /// Begin-order rank among *live* transactions — all that is kept of a
    /// TMF id; higher = younger; 0 unless live.
    rank: u8,
    /// TMF has doomed the slot's live transaction.
    doomed: bool,
}

impl Slot {
    /// Does this slot currently own a live transaction?
    fn live(&self) -> bool {
        matches!(self.phase, Phase::Running | Phase::Waiting)
    }
}

/// A lock-table or waiter-queue entry. `slot` is the client whose current
/// transaction it belongs to and `item` the row it is on; either is
/// [`STRAY`] when the workload knows of no such thing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Lock {
    slot: u8,
    item: u8,
    exclusive: bool,
}

/// Always a `drain` violation.
const STRAY: u8 = u8::MAX;

impl std::fmt::Display for Lock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "T{}'s {:?} on item {}",
            self.slot,
            self.mode(),
            self.item
        )
    }
}

impl Lock {
    fn mode(self) -> Mode {
        let modes = [Mode::Shared, Mode::Exclusive];
        modes[usize::from(self.exclusive)]
    }

    /// Can the two not be granted together?
    fn conflicts(self, other: Lock) -> bool {
        let together = self.mode().compatible(other.mode());
        self.slot != other.slot && self.item == other.item && !together
    }
}

/// The canonical state: the workload's half (phases, gate, budgets), which
/// the clients below keep, and the lock plane's half (`held`, `waiters`,
/// `waits_for`, ranks, `doomed`), which is only ever observed. Slots are told
/// apart by index (their scripts differ).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
struct St {
    slots: Vec<Slot>,
    /// The lock table, in grant order.
    held: Vec<Lock>,
    /// The waiter queue, in FIFO order.
    waiters: Vec<Lock>,
    /// `waiter slot -> holder slot` edges, sorted.
    waits_for: Vec<(u8, u8)>,
    /// Admission-gate FIFO of queued slots.
    gate: Vec<u8>,
    inflight: u8,
    /// Timeouts the adversary has armed.
    timeouts_used: u8,
}

impl St {
    /// Nobody has arrived.
    fn initial(cfg: &LockModelConfig) -> St {
        let slots = vec![Slot::default(); cfg.scripts.len()];
        St {
            slots,
            ..St::default()
        }
    }

    fn edge_from(&self, waiter: u8) -> Option<u8> {
        let edge = self.waits_for.iter().find(|(w, _)| *w == waiter);
        edge.map(|&(_, h)| h)
    }

    fn live(&self, slot: u8) -> bool {
        self.slots.get(slot as usize).is_some_and(Slot::live)
    }

    /// Does `slot` hold a lock on `item` (so that asking for more is an
    /// upgrade, which jumps the queue)?
    fn holds(&self, slot: u8, item: u8) -> bool {
        self.held.iter().any(|h| (h.slot, h.item) == (slot, item))
    }
}

/// One observed step of the shipped stack.
struct Transition {
    before: St,
    act: Act,
    /// Deadlock verdicts the Disk Process booked during the action.
    verdicts: u64,
    after: St,
}

/// The situations the invariants are about, as [`Exploration::reach`] counts
/// them over the explored transitions: deadlock verdicts on a waits-for
/// cycle of two and of three, verdicts on a request that was upgrading,
/// verdicts whose victim was not the requester, armed timeouts that fired,
/// arrivals that had to queue at the gate.
pub const REACHED: [&str; 6] = [
    "2-cycle verdicts",
    "3-cycle verdicts",
    "upgrade deadlocks",
    "victims other than the requester",
    "timeout bounces",
    "arrivals queued at the gate",
];

/// One explored state: how it was first reached, and where it leads.
#[derive(Debug)]
struct Node {
    st: St,
    parent: Option<(u32, Act)>,
    out: Vec<(Act, u32)>,
    /// No action changes it.
    quiescent: bool,
}

/// Result of exploring one configuration.
#[derive(Debug, Default)]
pub struct Exploration {
    /// Canonical states visited.
    pub states: u64,
    /// Transitions taken (stutter steps excluded).
    pub transitions: u64,
    /// Distinct schedules (root-to-quiescence interleavings) covered by the
    /// explored graph, saturating at `u64::MAX`.
    pub schedules: u64,
    /// Quiescent states reached.
    pub terminals: u64,
    /// Quiescent states in which some slot exhausted its retry budget.
    pub gave_up_terminals: u64,
    /// How often the transitions reached each of [`REACHED`], in its order.
    pub reach: [u64; 6],
    /// FS-DP messages the clusters served over all replays (`sim.metrics`),
    /// and the lock requests among them that had to wait.
    pub served: (u64, u64),
    /// First violation found per invariant, minimal-schedule first.
    pub violations: Vec<Violation>,
    /// Total violating transitions.
    pub violation_count: u64,
    graph: Vec<Node>,
}

// ----------------------------------------------------------------------
// The workload, driving a live cluster
// ----------------------------------------------------------------------

/// A live cluster with the scripted clients on it.
struct Live<'c> {
    cfg: &'c LockModelConfig,
    db: Cluster,
    fs: FileSystem,
    of: OpenFile,
    /// The clients' half of the state, and the lock plane as last observed.
    st: St,
    /// Each slot's current transaction, or its last.
    txns: Vec<Option<TxnId>>,
}

/// Is `act` something its slot's client (or the adversary) can do in `st`?
fn enabled(st: &St, cfg: &LockModelConfig, act: Act) -> bool {
    let Some(slot) = st.slots.get(act.slot() as usize) else {
        return false;
    };
    match act {
        Act::Arrive(_) => slot.phase == Phase::Unarrived,
        Act::Poll(_) => slot.live() || slot.phase == Phase::Backoff,
        Act::Timeout(_) => slot.phase == Phase::Waiting && st.timeouts_used < cfg.max_timeouts,
    }
}

impl<'c> Live<'c> {
    /// A fresh cluster, one row per lockable item, taken through `schedule`.
    fn at(cfg: &'c LockModelConfig, schedule: &[Act]) -> Result<Live<'c>, String> {
        let (db, of) = stack::build(false, DiskProcessConfig::default(), cfg.locks() as i32)?;
        let fs = FileSystem::new(db.sim.clone(), Arc::clone(&db.bus), CpuId::new(0, 0));
        let (st, txns) = (St::initial(cfg), vec![None; cfg.scripts.len()]);
        let mut live = Live {
            cfg,
            db,
            fs,
            of,
            st,
            txns,
        };
        for (i, &act) in schedule.iter().enumerate() {
            let stepped = live.step(act);
            stepped.map_err(|e| format!("step {i}: {e}"))?;
        }
        Ok(live)
    }

    /// Begin a fresh transaction for `slot` at the TMF: the youngest.
    fn begin(&mut self, slot: u8) {
        self.txns[slot as usize] = Some(self.db.txnmgr.begin());
        let s = &mut self.st.slots[slot as usize];
        (s.phase, s.pc, s.attempt) = (Phase::Running, 0, s.attempt + 1);
    }

    /// The slot's transaction is gone: back off (keeping the admission slot)
    /// and run again — or give up past the budget, which frees it.
    fn retry(&mut self, slot: u8) {
        let s = &mut self.st.slots[slot as usize];
        if s.attempt > self.cfg.max_retries {
            s.phase = Phase::GaveUp;
            self.release_gate_slot();
        } else {
            s.phase = Phase::Backoff;
        }
    }

    /// Free one admission slot, or rather hand it straight to the head of
    /// the gate FIFO, which begins at once.
    fn release_gate_slot(&mut self) {
        if self.st.gate.is_empty() {
            self.st.inflight -= 1;
        } else {
            let head = self.st.gate.remove(0);
            self.begin(head);
        }
    }

    /// The slot's next request, or its commit at the end of its script.
    fn poll(&mut self, slot: u8) -> Result<(), String> {
        let txn = self.txns[slot as usize].ok_or("no transaction")?;
        let (of, cpu) = (&self.of, self.fs.cpu);
        let pc = self.st.slots[slot as usize].pc as usize;
        let Some(&(item, mode)) = self.cfg.scripts[slot as usize].get(pc) else {
            match self.db.txnmgr.commit(txn, cpu) {
                Ok(()) => {
                    self.st.slots[slot as usize].phase = Phase::Committed;
                    self.release_gate_slot();
                }
                // TMF refused, and rolled the doomed transaction back.
                Err(TxnError::Doomed(_)) => self.retry(slot),
                Err(e) => return Err(format!("T{slot} commit: {e}")),
            }
            return Ok(());
        };
        let key = stack::key(of, i32::from(item) + 1);
        let sent = match mode {
            Mode::Shared => {
                let read = self.fs.read_by_key(Some(txn), of, &key, ReadLock::Shared);
                read.map(drop)
            }
            Mode::Exclusive => self.fs.update_by_key(txn, of, &key, &stack::bump(), None),
        };
        let s = &mut self.st.slots[slot as usize];
        match sent {
            Ok(()) => (s.phase, s.pc) = (Phase::Running, s.pc + 1),
            // Queued behind a holder: to re-poll.
            Err(FsError::Dp(DpError::Locked { .. })) => s.phase = Phase::Waiting,
            // A deadlock victim — chosen on this very request, or earlier on
            // someone else's — or timed out.
            Err(FsError::Doomed { .. }) => {
                let aborted = self.db.txnmgr.abort(txn, cpu);
                aborted.map_err(|e| format!("T{slot} abort: {e}"))?;
                self.retry(slot);
            }
            Err(e) => return Err(format!("T{slot} step {pc}: {e}")),
        }
        Ok(())
    }

    /// Take one action and observe.
    fn step(&mut self, act: Act) -> Result<(), String> {
        if !enabled(&self.st, self.cfg, act) {
            return Err(format!("action {act} is not enabled"));
        }
        let slot = act.slot();
        match act {
            Act::Arrive(_) if self.st.inflight < self.cfg.max_inflight => {
                self.st.inflight += 1;
                self.begin(slot);
            }
            Act::Arrive(_) => {
                self.st.slots[slot as usize].phase = Phase::Queued;
                self.st.gate.push(slot);
            }
            // Backoff over: a fresh attempt.
            Act::Poll(_) if !self.st.live(slot) => self.begin(slot),
            Act::Poll(_) => self.poll(slot)?,
            Act::Timeout(_) => {
                // One re-poll under a budget any wait has outlasted.
                self.st.timeouts_used += 1;
                self.db.set_lock_wait_timeout(1);
                let polled = self.poll(slot);
                self.db.set_lock_wait_timeout(0);
                polled?
            }
        }
        self.observe();
        Ok(())
    }

    /// [`Self::step`], with what there was to observe before and after it.
    fn transition(&mut self, act: Act) -> Result<Transition, String> {
        let (before, deadlocks) = (self.st.clone(), self.db.snapshot().deadlocks);
        self.step(act)?;
        let verdicts = self.db.snapshot().deadlocks - deadlocks;
        let after = self.st.clone();
        Ok(Transition {
            before,
            act,
            verdicts,
            after,
        })
    }

    /// Read the lock plane's half of the state off the shipped stack.
    fn observe(&mut self) {
        let dp = self.db.dp(VOLUME);
        let stray = |at: Option<usize>| at.map_or(STRAY, |i| i as u8);
        let slot_of = |txn: TxnId| stray(self.txns.iter().position(|t| *t == Some(txn)));
        let rows = 1..=self.cfg.locks() as i32;
        let row = |k| LockScope::record(stack::key(&self.of, k));
        let rows: Vec<LockScope> = rows.map(row).collect();
        let lock = |txn: TxnId, scope: &LockScope, mode: Mode| Lock {
            slot: slot_of(txn),
            item: stray(rows.iter().position(|r| r == scope)),
            exclusive: mode == Mode::Exclusive,
        };
        let held = dp.locks.held();
        let held = held.iter().map(|h| lock(h.txn, &h.scope, h.mode));
        let waiters = dp.locks.waiters();
        let waiters = waiters.iter().map(|w| lock(w.txn, &w.scope, w.mode));
        let edges = dp.locks.wait_edges();
        let edges = edges.iter().map(|&(w, h)| (slot_of(w), slot_of(h)));
        (self.st.held, self.st.waiters) = (held.collect(), waiters.collect());
        self.st.waits_for = edges.collect();
        self.st.waits_for.sort_unstable();
        // Live transactions, oldest first: a TMF id is its begin order.
        let live = |s: &usize| self.st.slots[*s].live();
        let mut live: Vec<(Option<TxnId>, usize)> = (0..self.txns.len())
            .filter(live)
            .map(|s| (self.txns[s], s))
            .collect();
        live.sort_unstable();
        for s in &mut self.st.slots {
            (s.rank, s.doomed) = (0, false);
        }
        for (rank, (txn, s)) in live.into_iter().enumerate() {
            let doomed = txn.is_some_and(|txn| self.db.txnmgr.is_doomed(txn));
            (self.st.slots[s].rank, self.st.slots[s].doomed) = (rank as u8, doomed);
        }
    }
}

// ----------------------------------------------------------------------
// The invariants, over observations
// ----------------------------------------------------------------------

/// The waits-for cycles a request for `want` would close in `st`: for each
/// transaction it would have to wait for — a conflicting holder, or (unless
/// it is upgrading) a conflicting waiter queued ahead of it — the members of
/// the chain from there back to the requester, when there is one.
fn cycles(st: &St, want: Lock) -> Vec<Vec<u8>> {
    let ahead = st.waiters.iter().take_while(|w| w.slot != want.slot);
    let ahead = ahead.filter(|_| !st.holds(want.slot, want.item));
    let blockers = st.held.iter().chain(ahead).filter(|l| l.conflicts(want));
    let chain = |blocker: &Lock| {
        let mut members = vec![want.slot, blocker.slot];
        while let Some(next) = st.edge_from(members[members.len() - 1]) {
            if next == want.slot {
                return Some(members);
            }
            if members.contains(&next) {
                break; // a cycle the requester is not on
            }
            members.push(next);
        }
        None
    };
    blockers.filter_map(chain).collect()
}

/// The invariants of one transition and of the state it leads to; and which
/// of [`REACHED`] (by index) the transition reached.
fn check(cfg: &LockModelConfig, t: &Transition) -> (Vec<Broke>, Vec<usize>) {
    let (mut broke, mut reached) = (Vec::new(), Vec::new());
    let slot = t.act.slot();
    let me = &t.before.slots[slot as usize];
    let then = &t.after.slots[slot as usize];
    // The requester's transaction was live, and the action ended it unhappily.
    let aborted = me.live() && matches!(then.phase, Phase::Backoff | Phase::GaveUp);
    // fifo-no-overtake: what was granted did not bypass an earlier-queued
    // incompatible waiter (upgrades excepted).
    for g in t.after.held.iter().filter(|l| !t.before.held.contains(l)) {
        let ahead = t.before.waiters.iter().take_while(|w| w.slot != g.slot);
        let upgrade = t.before.holds(g.slot, g.item);
        for w in ahead.filter(|w| w.conflicts(*g) && !upgrade) {
            let detail = format!("{g} was granted over the earlier queued {w}");
            broke.push(("fifo-no-overtake", detail));
        }
    }
    // A deadlock verdict: who was shot, and was it the right one?
    let step = cfg.scripts[slot as usize].get(me.pc as usize);
    if let (true, Some(&(item, mode))) = (t.verdicts > 0, step) {
        let exclusive = mode == Mode::Exclusive;
        let closed = cycles(
            &t.before,
            Lock {
                slot,
                item,
                exclusive,
            },
        );
        let rank = |s: &u8| t.before.slots[*s as usize].rank;
        let youngest = |cycle: &[u8]| cycle.iter().copied().max_by_key(rank);
        let newly = |s: &usize| t.after.slots[*s].doomed && !t.before.slots[*s].doomed;
        // A requester that goes down with a verdict is its victim.
        let other = (0..t.after.slots.len()).find(newly).map(|s| s as u8);
        let victim = if aborted { Some(slot) } else { other };
        let cycle = closed.iter().find(|c| youngest(c) == victim);
        match (victim, cycle) {
            // The verdict doomed nobody new: its victim already was, or the
            // doom got lost. Either way the cycle stands.
            (None, _) => {
                let detail = format!(
                    "T{slot}'s request closed the cycle(s) {closed:?} and the verdict doomed \
                     nobody who was not doomed already: the cycle stands"
                );
                broke.push(("one-victim-per-cycle", detail));
            }
            (Some(victim), None) => {
                let detail = format!(
                    "T{slot}'s request closed the cycle(s) {closed:?} and T{victim} (rank {}) \
                     was chosen: not the youngest member of any of them",
                    rank(&victim)
                );
                broke.push(("youngest-victim", detail));
            }
            (Some(victim), Some(cycle)) => {
                let upgrade = t.before.holds(slot, item);
                let found = [cycle.len() == 2, cycle.len() == 3, upgrade, victim != slot];
                reached.extend((0..4).filter(|&i| found[i]));
            }
        }
    }
    if then.phase == Phase::Committed && me.doomed {
        broke.push(("doomed-commit", format!("T{slot} committed while doomed")));
    }
    // An armed timeout bounced a waiter that was not going down anyway.
    let timed_out = matches!(t.act, Act::Timeout(_)) && aborted && !me.doomed;
    reached.extend(timed_out.then_some(4));
    reached.extend((then.phase == Phase::Queued).then_some(5));
    state_invariants(&t.after, &mut broke);
    (broke, reached)
}

/// Invariants of every reachable state (not just quiescent ones).
fn state_invariants(st: &St, broke: &mut Vec<Broke>) {
    // Serializability: with strict 2PL (every effect under a lock held to
    // commit/abort), conflict-serializability of committed effects is
    // exactly "no two live transactions hold incompatible locks on the
    // same item".
    for (i, a) in st.held.iter().enumerate() {
        for b in st.held[i + 1..].iter().filter(|b| b.conflicts(*a)) {
            let detail = format!("{a} and {b} are both held: that breaks 2PL serializability");
            broke.push(("serializability", detail));
        }
    }
    // Lock state must belong to live transactions only.
    for l in st.held.iter().chain(&st.waiters) {
        if !st.live(l.slot) || l.item == STRAY {
            let detail = format!("{l} is held or queued for, and T{} is not live", l.slot);
            broke.push(("drain", detail));
        }
    }
    for &(w, h) in &st.waits_for {
        if !st.live(w) || !st.live(h) {
            let detail = format!("stale waits-for edge T{w}→T{h} references a dead transaction");
            broke.push(("drain", detail));
        }
    }
}

/// Invariants of a quiescent state (no action changes it).
fn quiescent_invariants(st: &St, broke: &mut Vec<Broke>) {
    for (i, s) in st.slots.iter().enumerate() {
        if !matches!(s.phase, Phase::Committed | Phase::GaveUp) {
            let detail = format!(
                "quiescent state leaves T{i} in {:?} (pc {}, attempt {}): stuck waiter or \
                 lost wakeup",
                s.phase, s.pc, s.attempt
            );
            broke.push(("liveness-stuck", detail));
        }
    }
    let lock_state = (st.held.len(), st.waiters.len(), st.waits_for.len());
    if lock_state != (0, 0, 0) {
        let detail =
            format!("quiescent state leaks lock state (held, waiting, edges): {lock_state:?}");
        broke.push(("drain", detail));
    }
    if (st.gate.len(), st.inflight) != (0, 0) {
        let detail = format!(
            "quiescent state leaks admission state: {} queued, {} in flight",
            st.gate.len(),
            st.inflight
        );
        broke.push(("drain", detail));
    }
}

// ----------------------------------------------------------------------
// Exploration
// ----------------------------------------------------------------------

/// All actions, in the deterministic enumeration order.
fn all_actions(cfg: &LockModelConfig) -> Vec<Act> {
    let slots = 0..cfg.scripts.len() as u8;
    let of = |s| [Act::Arrive(s), Act::Poll(s), Act::Timeout(s)];
    slots.flat_map(of).collect()
}

/// `act` taken on a fresh cluster brought to `before` by `prefix`: the
/// transition, unless it leaves the observation as it was (a stutter is not
/// a transition).
fn expand(
    cfg: &LockModelConfig,
    prefix: &[Act],
    before: &St,
    act: Act,
    served: &mut (u64, u64),
) -> Result<Option<Transition>, String> {
    let mut live = Live::at(cfg, prefix)?;
    if live.st != *before {
        return Err("the prefix did not lead to the state it led to before".into());
    }
    let t = live.transition(act)?;
    let counters = live.db.snapshot();
    served.0 += counters.msgs_fs_dp;
    served.1 += counters.lock_waits;
    Ok((t.after != *before).then_some(t))
}

/// Exhaustively explore every interleaving of the configuration by BFS
/// over canonical states. Deterministic: state discovery order, violation
/// order, and all counts depend only on `cfg`.
pub fn explore(cfg: &LockModelConfig) -> Exploration {
    assert!(cfg.max_inflight > 0, "admission gate needs capacity");
    let node = |st, parent| Node {
        st,
        parent,
        out: Vec::new(),
        quiescent: false,
    };
    let mut out = Exploration::default();
    out.graph.push(node(St::initial(cfg), None));
    // Interned states: canonical state -> dense index.
    let mut index: HashMap<St, u32> = HashMap::from([(St::initial(cfg), 0)]);
    // The first violation of each invariant is kept, with its schedule.
    let report = |out: &mut Exploration, broke: Vec<Broke>, schedule: &[Act]| {
        for (invariant, detail) in broke {
            out.violation_count += 1;
            if out.violations.iter().all(|v| v.invariant != invariant) {
                let schedule = schedule.to_vec();
                out.violations.push(Violation {
                    invariant,
                    detail,
                    schedule,
                });
            }
        }
    };
    let mut queue: VecDeque<u32> = VecDeque::from([0u32]);
    while let Some(at) = queue.pop_front() {
        let st = out.graph[at as usize].st.clone();
        let prefix = reconstruct(&out.graph, at);
        let mut moved = false;
        for act in all_actions(cfg) {
            if !enabled(&st, cfg, act) {
                continue;
            }
            let schedule = [prefix.as_slice(), &[act]].concat();
            let t = match expand(cfg, &prefix, &st, act, &mut out.served) {
                Ok(Some(t)) => t,
                Ok(None) => continue,
                // Not the stack's answer to anything a client may do.
                Err(detail) => {
                    report(&mut out, vec![("protocol", detail)], &schedule);
                    continue;
                }
            };
            moved = true;
            out.transitions += 1;
            let (broke, reached) = check(cfg, &t);
            for situation in reached {
                out.reach[situation] += 1;
            }
            // A violating transition is a counterexample, not a state to
            // build on.
            if broke.is_empty() {
                let next = *index.entry(t.after).or_insert_with_key(|after| {
                    out.graph.push(node(after.clone(), Some((at, act))));
                    queue.push_back(out.graph.len() as u32 - 1);
                    out.graph.len() as u32 - 1
                });
                out.graph[at as usize].out.push((act, next));
            }
            report(&mut out, broke, &schedule);
        }
        if !moved {
            out.graph[at as usize].quiescent = true;
            out.terminals += 1;
            let gave_up = st.slots.iter().any(|s| s.phase == Phase::GaveUp);
            out.gave_up_terminals += u64::from(gave_up);
            let mut broke = Vec::new();
            quiescent_invariants(&st, &mut broke);
            report(&mut out, broke, &prefix);
        }
    }
    out.states = out.graph.len() as u64;
    match count_schedules(&out.graph) {
        Ok(schedules) => out.schedules = schedules,
        Err(livelock) => report(&mut out, vec![livelock], &[]),
    }
    out
}

/// Rebuild the action path from the root to `at` via BFS parent pointers.
fn reconstruct(graph: &[Node], mut at: u32) -> Vec<Act> {
    let mut acts = Vec::new();
    while let Some((prev, act)) = graph[at as usize].parent {
        acts.push(act);
        at = prev;
    }
    acts.reverse();
    acts
}

/// Count distinct root-to-quiescence paths through the explored graph by
/// DP in topological order. The graph must be acyclic — attempt counters
/// and script pcs only grow along a path, and the retry and timeout budgets
/// bound them — and a cycle would mean a livelock (an infinite schedule
/// making no progress): a violation of its own.
fn count_schedules(graph: &[Node]) -> Result<u64, Broke> {
    let mut indeg = vec![0u32; graph.len()];
    for &(_, to) in graph.iter().flat_map(|n| &n.out) {
        indeg[to as usize] += 1;
    }
    let mut paths = vec![0u128; graph.len()];
    paths[0] = 1;
    let mut ready: Vec<usize> = (0..graph.len()).filter(|&i| indeg[i] == 0).collect();
    let (mut visited, mut total) = (0, 0u128);
    while let Some(at) = ready.pop() {
        visited += 1;
        if graph[at].quiescent {
            total = total.saturating_add(paths[at]);
        }
        for &(_, to) in &graph[at].out {
            paths[to as usize] = paths[to as usize].saturating_add(paths[at]);
            indeg[to as usize] -= 1;
            if indeg[to as usize] == 0 {
                ready.push(to as usize);
            }
        }
    }
    if visited != graph.len() {
        let detail = format!(
            "{} states sit on a cycle in the canonical state graph: some schedule loops \
             forever without progress",
            graph.len() - visited
        );
        return Err(("liveness-livelock", detail));
    }
    Ok(u64::try_from(total).unwrap_or(u64::MAX))
}

/// Re-execute an exact action sequence on a fresh cluster, returning every
/// invariant violation it raises — the replay half of a printed
/// counterexample. `Err` if the schedule takes a disabled action or the
/// stack answers a client with something no client expects.
pub fn replay(cfg: &LockModelConfig, schedule: &[Act]) -> Result<Vec<Violation>, String> {
    let mut live = Live::at(cfg, &[])?;
    let mut out = Vec::new();
    let mut report = |broke: Vec<Broke>, steps: usize| {
        for (invariant, detail) in broke {
            let schedule = schedule[..steps].to_vec();
            out.push(Violation {
                invariant,
                detail,
                schedule,
            });
        }
    };
    for (i, &act) in schedule.iter().enumerate() {
        let t = live.transition(act);
        let t = t.map_err(|e| format!("step {i}: {e}"))?;
        report(check(cfg, &t).0, i + 1);
    }
    // And where the schedule ends: is it where everything stops?
    let st = &live.st;
    let moves = |act| !matches!(expand(cfg, schedule, st, act, &mut (0, 0)), Ok(None));
    let mut acts = all_actions(cfg).into_iter();
    if !acts.any(|act| enabled(st, cfg, act) && moves(act)) {
        let mut broke = Vec::new();
        quiescent_invariants(st, &mut broke);
        report(broke, schedule.len());
    }
    Ok(out)
}

/// Render a schedule compactly: `Arrive(T0) Poll(T0) Poll(T1) …`.
pub fn format_schedule(schedule: &[Act]) -> String {
    let parts: Vec<String> = schedule.iter().map(|a| a.to_string()).collect();
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Each default configuration is explored once per test run.
    fn explored(name: &str) -> (&'static LockModelConfig, &'static Exploration) {
        type Cached = OnceLock<(LockModelConfig, Exploration)>;
        static CACHE: [Cached; 3] = [Cached::new(), Cached::new(), Cached::new()];
        let (slot, cfg): (_, fn() -> LockModelConfig) = match name {
            "cycle" => (0, LockModelConfig::cycle),
            "convoy" => (1, LockModelConfig::convoy),
            _ => (2, LockModelConfig::upgrade),
        };
        let (cfg, ex) = CACHE[slot].get_or_init(|| (cfg(), explore(&cfg())));
        (cfg, ex)
    }

    fn clean(name: &str) -> &'static Exploration {
        let ex = explored(name).1;
        assert!(ex.violations.is_empty(), "{:?}", ex.violations.first());
        // Strong liveness at default bounds: every transaction commits —
        // no schedule exhausts a retry budget.
        assert_eq!(ex.gave_up_terminals, 0);
        // The shipped stack did the work.
        assert!(ex.served.0 > ex.transitions && ex.served.1 > 0);
        ex
    }

    /// `Arrive(T0) Poll(T1) …`, as [`format_schedule`] prints it.
    fn parse(schedule: &str) -> Vec<Act> {
        let act = |word: &str| {
            let slot = word[word.len() - 2..word.len() - 1].parse().unwrap();
            match &word[..word.len() - 4] {
                "Arrive" => Act::Arrive(slot),
                "Poll" => Act::Poll(slot),
                "Timeout" => Act::Timeout(slot),
                other => panic!("no action {other}"),
            }
        };
        let acts: Vec<Act> = schedule.split_whitespace().map(act).collect();
        assert_eq!(format_schedule(&acts), schedule);
        acts
    }

    /// The last step of `schedule` on the shipped stack, as observed.
    fn last_transition(cfg: &LockModelConfig, schedule: &str) -> Transition {
        let acts = parse(schedule);
        let (&act, prefix) = acts.split_last().unwrap();
        let t = Live::at(cfg, prefix).unwrap().transition(act).unwrap();
        assert_eq!(check(cfg, &t).0, vec![], "the shipped stack is clean here");
        t
    }

    fn trips(cfg: &LockModelConfig, t: &Transition, invariant: &str) {
        let broke = check(cfg, t).0;
        assert!(broke.iter().any(|(i, _)| *i == invariant), "{broke:?}");
    }

    // `(states, transitions, schedules)` of each default configuration:
    // what `lint.toml`'s [model] floors and the tables in EXPERIMENTS.md
    // were measured from. Exploration is deterministic, so they only
    // change when the workload or the shipped lock plane does.
    const CYCLE: (u64, u64, u64) = (4_998, 11_217, 24_432_594);
    const CONVOY: (u64, u64, u64) = (1_105, 2_058, 148_812);
    const UPGRADE: (u64, u64, u64) = (233, 352, 1_598);

    fn size(ex: &Exploration) -> (u64, u64, u64) {
        (ex.states, ex.transitions, ex.schedules)
    }

    /// Which of [`REACHED`] the exploration got to.
    fn reached(ex: &Exploration) -> [bool; 6] {
        ex.reach.map(|n| n > 0)
    }

    // Between them the three reach every situation the invariants are
    // about: "0 violations" does not mean "never got there".

    #[test]
    fn cycle_config_is_clean_and_large() {
        let ex = clean("cycle");
        assert_eq!(size(ex), CYCLE);
        assert_eq!(ex.terminals, 14);
        assert_eq!(reached(ex), [false, true, false, true, true, false]);
    }

    #[test]
    fn convoy_config_is_clean() {
        let ex = clean("convoy");
        assert_eq!(size(ex), CONVOY);
        // Same order everywhere: nothing to deadlock on.
        assert_eq!(reached(ex), [false, false, false, false, true, true]);
    }

    #[test]
    fn upgrade_config_is_clean_and_deadlocks_on_the_upgrade() {
        let ex = clean("upgrade");
        assert_eq!(size(ex), UPGRADE);
        assert_eq!(reached(ex), [true, false, true, true, true, false]);
        assert_eq!(ex.reach[0], ex.reach[2], "{REACHED:?}");
    }

    #[test]
    fn the_floors_are_no_higher_than_what_is_explored() {
        let floors = crate::config::Config::parse(include_str!("../../../lint.toml")).unwrap();
        assert!(floors.lock_min_states <= CYCLE.0 + CONVOY.0 + UPGRADE.0);
        assert!(floors.lock_min_schedules <= CYCLE.2 + CONVOY.2 + UPGRADE.2);
    }

    #[test]
    fn exploration_is_deterministic() {
        let (cfg, a) = explored("upgrade");
        let b = explore(cfg);
        let shape = |ex: &Exploration| -> Vec<(St, Vec<(Act, u32)>)> {
            let node = |n: &Node| (n.st.clone(), n.out.clone());
            ex.graph.iter().map(node).collect()
        };
        assert_eq!(shape(a), shape(&b));
        assert_eq!((a.schedules, a.served), (b.schedules, b.served));
        assert_eq!(a.reach, b.reach);
        // And the same prefix gives the same observation on two clusters.
        let prefix = reconstruct(&a.graph, a.states as u32 - 1);
        let (x, y) = (Live::at(cfg, &prefix), Live::at(cfg, &prefix));
        assert_eq!(x.unwrap().st, y.unwrap().st);
    }

    /// What the deduplication relies on: nothing the fingerprint leaves out
    /// — reply cache, SCBs, row values, clocks, transaction ids — steers the
    /// lock plane. Every state the convoy reaches by a second prefix has,
    /// from that prefix, the successors it has from its first.
    #[test]
    fn a_state_reached_by_two_prefixes_has_one_set_of_successors() {
        let (cfg, ex) = explored("convoy");
        let mut second: Vec<Option<Vec<Act>>> = vec![None; ex.states as usize];
        for (from, node) in ex.graph.iter().enumerate() {
            for &(act, to) in &node.out {
                if ex.graph[to as usize].parent != Some((from as u32, act)) {
                    let mut other = reconstruct(&ex.graph, from as u32);
                    other.push(act);
                    second[to as usize].get_or_insert(other);
                }
            }
        }
        let mut compared = 0;
        for (at, prefix) in second.iter().enumerate() {
            let Some(prefix) = prefix else { continue };
            let st = &ex.graph[at].st;
            for act in all_actions(cfg) {
                if !enabled(st, cfg, act) {
                    continue;
                }
                let next = expand(cfg, prefix, st, act, &mut (0, 0)).unwrap();
                let known = ex.graph[at].out.iter().find(|(a, _)| *a == act);
                let known = known.map(|&(_, to)| &ex.graph[to as usize].st);
                let next = next.map(|t| t.after);
                assert_eq!(
                    next.as_ref(),
                    known,
                    "{act} after {}",
                    format_schedule(prefix)
                );
                compared += 1;
            }
        }
        assert!(
            compared > 500,
            "only {compared} successors had a second prefix"
        );
    }

    #[test]
    fn a_stutter_is_not_a_transition() {
        // T1 is queued behind T0 and polls again: bounced again, nothing to
        // observe, no edge.
        let cfg = LockModelConfig::convoy();
        let prefix = parse("Arrive(T0) Poll(T0) Arrive(T1) Poll(T1)");
        let at = Live::at(&cfg, &prefix).unwrap().st;
        let mut served = (0, 0);
        let again = expand(&cfg, &prefix, &at, Act::Poll(1), &mut served).unwrap();
        assert!(again.is_none());
        assert!(served.0 > 0, "but it was a request, and it was served");
    }

    #[test]
    fn a_cycle_in_the_state_graph_is_a_livelock() {
        // 0 → 1 → 2 → 1: no way to count the schedules through that.
        let node = |to| Node {
            st: St::initial(&LockModelConfig::upgrade()),
            parent: None,
            out: vec![(Act::Poll(0), to)],
            quiescent: false,
        };
        let livelock = count_schedules(&[node(1), node(2), node(1)]).unwrap_err();
        assert_eq!(livelock.0, "liveness-livelock");
    }

    // The three schedules below are the minimal counterexamples the
    // hand-written model printed for its three mutants (a manager that lets
    // a late arrival overtake the queue, one that shoots the oldest cycle
    // member, a Disk Process that drops the doom). The shipped stack takes
    // each of them cleanly; the observation it yields, altered by hand into
    // what the mutant would have shown, trips the invariant.

    const OVERTAKE: &str =
        "Arrive(T0) Poll(T0) Poll(T0) Arrive(T1) Poll(T1) Poll(T0) Arrive(T2) Poll(T2)";
    const OLDEST_VICTIM: &str = "Arrive(T0) Poll(T0) Arrive(T1) Poll(T1) Poll(T0) Arrive(T2) \
                                 Poll(T2) Poll(T1) Poll(T2)";
    const DROP_DOOM: &str = "Arrive(T0) Poll(T0) Arrive(T1) Poll(T1) Poll(T0) Arrive(T2) \
                             Poll(T2) Poll(T2) Poll(T1) Poll(T2)";

    #[test]
    fn overtake_mutation_breaks_fifo() {
        // T1 is queued for item 0 when T0 commits; T2 arrives and asks for
        // it, and is bounced off the queued T1.
        let cfg = LockModelConfig::convoy();
        let mut t = last_transition(&cfg, OVERTAKE);
        assert_eq!(t.after.slots[2].phase, Phase::Waiting);
        let barged = t.after.waiters.pop().unwrap();
        assert_eq!((barged.slot, barged.item), (2, 0));
        t.after.waits_for.retain(|&(w, _)| w != 2);
        // Granted instead, straight past T1.
        t.after.held.push(barged);
        trips(&cfg, &t, "fifo-no-overtake");
    }

    #[test]
    fn oldest_victim_mutation_breaks_victim_choice() {
        // The rotated scripts close the 3-cycle T2→T0→T1 on T2's request,
        // and T2 — the youngest — is shot.
        let cfg = LockModelConfig::cycle();
        let mut t = last_transition(&cfg, OLDEST_VICTIM);
        assert_eq!((t.after.slots[2].phase, t.verdicts), (Phase::Backoff, 1));
        // T0 (rank 0, the oldest) shot instead; T2 bounced and waits on.
        t.after = t.before.clone();
        t.after.slots[2].phase = Phase::Waiting;
        t.after.slots[0].doomed = true;
        trips(&cfg, &t, "youngest-victim");
    }

    #[test]
    fn drop_doom_mutation_revictimizes_the_cycle() {
        // T1's request closes the same 3-cycle; T2 is the victim, is doomed
        // at the TMF, and T1 keeps waiting.
        let cfg = LockModelConfig::cycle();
        let verdict = DROP_DOOM.strip_suffix(" Poll(T2)").unwrap();
        let mut t = last_transition(&cfg, verdict);
        assert_eq!((t.after.slots[1].phase, t.verdicts), (Phase::Waiting, 1));
        assert!(t.after.slots[2].doomed);
        // A verdict, and nobody the worse for it: the cycle stands.
        t.after.slots[2].doomed = false;
        trips(&cfg, &t, "one-victim-per-cycle");
    }

    #[test]
    fn healthy_protocol_is_clean_on_the_mutant_schedules() {
        for (cfg, schedule) in [
            (LockModelConfig::convoy(), OVERTAKE),
            (LockModelConfig::cycle(), OLDEST_VICTIM),
            (LockModelConfig::cycle(), DROP_DOOM),
        ] {
            let replayed = replay(&cfg, &parse(schedule)).unwrap();
            assert!(replayed.is_empty(), "{schedule}: {replayed:?}");
        }
    }

    #[test]
    fn a_doomed_transaction_that_commits_is_caught() {
        // T0 of the convoy is about to commit. Say it had been doomed, and
        // committed all the same.
        let cfg = LockModelConfig::convoy();
        let mut t = last_transition(&cfg, "Arrive(T0) Poll(T0) Poll(T0) Poll(T0)");
        assert_eq!(t.after.slots[0].phase, Phase::Committed);
        t.before.slots[0].doomed = true;
        trips(&cfg, &t, "doomed-commit");
    }

    #[test]
    fn lock_state_that_outlives_its_transaction_is_caught() {
        let cfg = LockModelConfig::convoy();
        let committed = "Arrive(T0) Poll(T0) Poll(T0) Poll(T0)";
        // A lock of the committed T0 left in the table …
        let mut t = last_transition(&cfg, committed);
        t.after.held.push(t.before.held[0]);
        trips(&cfg, &t, "drain");
        // … a lock of a transaction no client is running …
        let mut t = last_transition(&cfg, committed);
        t.after.waiters.push(Lock {
            slot: STRAY,
            ..t.before.held[0]
        });
        trips(&cfg, &t, "drain");
        // … an edge to it …
        let mut t = last_transition(&cfg, "Arrive(T0) Poll(T0) Arrive(T1) Poll(T1)");
        t.after.slots[0].phase = Phase::Committed;
        trips(&cfg, &t, "drain");
        // … and a quiescent state that still holds an admission slot.
        let mut quiet = last_transition(&cfg, committed).after;
        quiet
            .slots
            .iter_mut()
            .for_each(|s| s.phase = Phase::Committed);
        let mut broke = Vec::new();
        quiescent_invariants(&quiet, &mut broke);
        assert_eq!(broke, vec![]);
        quiet.inflight = 1;
        quiescent_invariants(&quiet, &mut broke);
        assert_eq!(broke[0].0, "drain");
    }

    #[test]
    fn replay_checks_where_a_schedule_comes_to_rest() {
        // One client after the other, to the end: nothing left anywhere.
        let cfg = LockModelConfig::upgrade();
        let serial = "Arrive(T0) Poll(T0) Poll(T0) Poll(T0) Arrive(T1) Poll(T1) Poll(T1) Poll(T1)";
        assert!(replay(&cfg, &parse(serial)).unwrap().is_empty());
        let quiet = Live::at(&cfg, &parse(serial)).unwrap().st;
        assert!(all_actions(&cfg)
            .iter()
            .all(|&act| !enabled(&quiet, &cfg, act)));
    }

    #[test]
    fn replay_rejects_disabled_actions() {
        let cfg = LockModelConfig::cycle();
        // Polling a slot that never arrived is not an enabled action.
        assert!(replay(&cfg, &[Act::Poll(0)]).is_err());
    }

    #[test]
    fn format_schedule_is_replay_shaped() {
        let s = format_schedule(&[Act::Arrive(0), Act::Poll(0), Act::Timeout(1)]);
        assert_eq!(s, "Arrive(T0) Poll(T0) Timeout(T1)");
    }
}
