//! Transaction management: identity, state, and the commit/abort protocol.
//!
//! "A transaction mechanism coordinates the atomic commitment of updates by
//! multiple processes in the network" \[Borr1\]. The [`TxnManager`] assigns
//! transaction identifiers, tracks which Disk Processes each transaction
//! touched (*participants*), and drives a simplified presumed-abort
//! two-phase commit:
//!
//! 1. **Prepare** — each participant is asked (by message) to flush its
//!    buffered audit for the transaction to the audit-trail Disk Process
//!    and vote.
//! 2. **Commit** — the commit record is sent to the trail, which group-
//!    commits it; the caller's virtual clock advances to the covering
//!    flush's completion (commit latency includes the group-commit wait).
//! 3. **Finish** — participants are told the outcome so they release locks
//!    (and undo, on abort).
//!
//! Single-participant transactions skip nothing in this model — the message
//! counts are part of what experiments measure.

use crate::trail::{TrailReply, TrailRequest, AUDIT_PROCESS};
use nsql_lock::TxnId;
use nsql_msg::{Bus, CpuId, MsgKind};
use nsql_sim::sync::Mutex;
use nsql_sim::{EntityKind, Event, MeasureRecord, Sim, Wait};
use std::sync::Arc;

/// Transaction states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// In flight.
    Active,
    /// Durably committed.
    Committed,
    /// Rolled back.
    Aborted,
}

/// End-of-transaction messages sent to participant Disk Processes.
#[derive(Debug, Clone, Copy)]
pub enum EndTxnRequest {
    /// Phase 1: flush audit for `txn` and vote.
    Prepare {
        /// The transaction.
        txn: TxnId,
    },
    /// Phase 2: release locks; undo first when `committed` is false.
    Finish {
        /// The transaction.
        txn: TxnId,
        /// Outcome.
        committed: bool,
    },
}

impl EndTxnRequest {
    /// Wire size for message accounting.
    pub fn wire_size(&self) -> usize {
        16
    }
}

/// Participant vote / acknowledgment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndTxnReply {
    /// Prepared / finished.
    Ok,
    /// Participant cannot commit (forces abort).
    VoteAbort,
}

/// Errors from commit processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// Unknown or already-finished transaction.
    BadTxn(TxnId),
    /// A participant voted to abort; the transaction was rolled back.
    ParticipantAborted(String),
    /// Message-system failure talking to a participant or the trail.
    Unreachable(String),
    /// A participant holding the transaction's uncommitted writes crashed;
    /// the transaction can only abort (TMF's CPU-failure rule).
    Doomed(TxnId),
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::BadTxn(t) => write!(f, "transaction {t} is not active"),
            TxnError::ParticipantAborted(p) => write!(f, "participant {p} voted abort"),
            TxnError::Unreachable(p) => write!(f, "cannot reach {p}"),
            TxnError::Doomed(t) => write!(f, "transaction {t} doomed by participant crash"),
        }
    }
}

impl std::error::Error for TxnError {}

struct TxnInfo {
    state: TxnState,
    /// Sorted by name, no duplicates. A plain vector: the manager remembers
    /// every transaction it ever ran, so the per-transaction footprint is
    /// what a long run's memory grows by.
    participants: Vec<String>,
    /// Set when a participant crashed while holding this transaction's
    /// uncommitted writes: commit must fail, only abort is possible.
    doomed: bool,
}

/// The transaction manager (the TMF library side).
pub struct TxnManager {
    sim: Sim,
    bus: Arc<Bus>,
    /// Every transaction ever begun; `TxnId(n)` is entry `n - 1`.
    txns: Mutex<Vec<TxnInfo>>,
    /// Cluster-wide transaction MEASURE record (`txn` entity, "TMF").
    rec: Arc<MeasureRecord>,
}

/// Index of `txn` in the manager's table (ids start at 1; `TxnId(0)` and
/// ids never begun here find nothing).
fn slot(txn: TxnId) -> usize {
    (txn.0 as usize).wrapping_sub(1)
}

/// The entity name transaction counters and the doom flight ring live
/// under: there is one TMF per cluster.
pub const TMF_ENTITY: &str = "TMF";

impl TxnManager {
    /// Create a manager bound to a bus.
    pub fn new(sim: Sim, bus: Arc<Bus>) -> Arc<Self> {
        let rec = sim.measure.entity(EntityKind::Txn, TMF_ENTITY);
        Arc::new(TxnManager {
            sim,
            bus,
            txns: Mutex::new(Vec::new()),
            rec,
        })
    }

    /// Begin a transaction.
    pub fn begin(&self) -> TxnId {
        let mut txns = self.txns.lock();
        txns.push(TxnInfo {
            state: TxnState::Active,
            participants: Vec::new(),
            doomed: false,
        });
        TxnId(txns.len() as u64)
    }

    /// Doom a transaction: a Disk Process crashed while holding its
    /// uncommitted writes (they were lost with the process's volatile
    /// state, and recovery undid anything on disk). A later commit attempt
    /// is turned into an abort; explicit rollback proceeds normally.
    pub fn doom(&self, txn: TxnId) {
        if let Some(info) = self.txns.lock().get_mut(slot(txn)) {
            if info.state == TxnState::Active && !info.doomed {
                info.doomed = true;
                self.sim.emit(&self.rec, Event::TxnDoomed(txn.0));
                self.sim
                    .flight_dump(&self.rec, &format!("transaction {txn} doomed"));
            }
        }
    }

    /// Every transaction still in [`TxnState::Active`], in id order.
    /// Crash-restart uses this when the audit-trail CPU dies: all
    /// in-flight transactions lose their buffered undo/redo audit with
    /// the trail buffer, so each one must be doomed and backed out
    /// through the surviving Disk Processes.
    pub fn active(&self) -> Vec<TxnId> {
        let txns = self.txns.lock();
        let ids = (1..).map(TxnId).zip(txns.iter());
        ids.filter(|(_, i)| i.state == TxnState::Active)
            .map(|(id, _)| id)
            .collect()
    }

    /// Has a participant crash doomed this transaction?
    pub fn is_doomed(&self, txn: TxnId) -> bool {
        self.txns.lock().get(slot(txn)).is_some_and(|i| i.doomed)
    }

    /// Record that `process` (a Disk Process name) did work for `txn`.
    /// Called by Disk Processes on first touch.
    pub fn join(&self, txn: TxnId, process: &str) {
        if let Some(info) = self.txns.lock().get_mut(slot(txn)) {
            let ps = &mut info.participants;
            if let Err(at) = ps.binary_search_by(|p| p.as_str().cmp(process)) {
                ps.insert(at, process.to_string());
            }
        }
    }

    /// State of a transaction (`None` if unknown).
    pub fn state(&self, txn: TxnId) -> Option<TxnState> {
        self.txns.lock().get(slot(txn)).map(|i| i.state)
    }

    /// Snapshot of every transaction the manager still remembers —
    /// including committed and aborted ones — as
    /// `(txn, state, doomed, participants)`, sorted by id. A pure read for
    /// introspection (`sys.txns`).
    pub fn snapshot(&self) -> Vec<(TxnId, TxnState, bool, Vec<String>)> {
        let txns = self.txns.lock();
        let ids = (1..).map(TxnId).zip(txns.iter());
        ids.map(|(id, i)| (id, i.state, i.doomed, i.participants.clone()))
            .collect()
    }

    /// Participants of a transaction (tests/inspection).
    pub fn participants(&self, txn: TxnId) -> Vec<String> {
        self.txns
            .lock()
            .get(slot(txn))
            .map(|i| i.participants.clone())
            .unwrap_or_default()
    }

    fn take_active(&self, txn: TxnId) -> Result<Vec<String>, TxnError> {
        let txns = self.txns.lock();
        match txns.get(slot(txn)) {
            Some(info) if info.state == TxnState::Active => Ok(info.participants.clone()),
            _ => Err(TxnError::BadTxn(txn)),
        }
    }

    fn set_state(&self, txn: TxnId, state: TxnState) {
        if let Some(info) = self.txns.lock().get_mut(slot(txn)) {
            info.state = state;
        }
    }

    /// Commit `txn`, driving prepare / trail-commit / finish from `from`
    /// (the requester's CPU). On success the virtual clock has advanced to
    /// the commit's durability point.
    ///
    /// `nsql-lint check-locks` holds the doomed-refuses-to-commit branch
    /// below to its `doomed-commit` invariant on every schedule it explores.
    pub fn commit(&self, txn: TxnId, from: CpuId) -> Result<(), TxnError> {
        let participants = self.take_active(txn)?;

        // A doomed transaction (participant crash while it held uncommitted
        // writes) cannot commit: its effects were already rolled back by
        // recovery. Turn the commit into an abort.
        if self.is_doomed(txn) {
            self.roll_back(txn, &participants, from);
            return Err(TxnError::Doomed(txn));
        }

        // Phase 1: prepare (flush audit) and collect votes.
        for p in &participants {
            let req = EndTxnRequest::Prepare { txn };
            let reply = self
                .bus
                .request(from, p, MsgKind::Other, req.wire_size(), Box::new(req))
                .map_err(|_| TxnError::Unreachable(p.clone()))?
                .downcast::<EndTxnReply>()
                .map_err(|_| TxnError::Unreachable(p.clone()))?;
            if reply == EndTxnReply::VoteAbort {
                // Presumed abort: roll everyone back.
                self.roll_back(txn, &participants, from);
                return Err(TxnError::ParticipantAborted(p.clone()));
            }
        }

        // Commit record to the trail; wait (in virtual time) for the group
        // commit to cover it.
        let req = TrailRequest::Commit { txn };
        let reply = self
            .bus
            .request(
                from,
                AUDIT_PROCESS,
                MsgKind::Other,
                req.wire_size(),
                Box::new(req),
            )
            .map_err(|_| TxnError::Unreachable(AUDIT_PROCESS.into()))?
            .downcast::<TrailReply>()
            .map_err(|_| TxnError::Unreachable(AUDIT_PROCESS.into()))?;
        if let TrailReply::Committed { completion } = reply {
            self.sim.clock.advance_to_in(Wait::Commit, completion);
        }

        // Phase 2: tell participants to release.
        self.finish_participants(txn, &participants, true, from);
        self.set_state(txn, TxnState::Committed);
        self.sim.emit(&self.rec, Event::TxnCommit(txn.0));
        Ok(())
    }

    /// Abort `txn`: participants undo and release; an abort record is
    /// written lazily.
    pub fn abort(&self, txn: TxnId, from: CpuId) -> Result<(), TxnError> {
        let participants = self.take_active(txn)?;
        self.roll_back(txn, &participants, from);
        Ok(())
    }

    /// Participants undo and release, the trail gets its (lazy) abort
    /// record, and the transaction is booked as aborted.
    fn roll_back(&self, txn: TxnId, participants: &[String], from: CpuId) {
        self.finish_participants(txn, participants, false, from);
        self.trail_abort(txn, from);
        self.set_state(txn, TxnState::Aborted);
        self.sim.emit(&self.rec, Event::TxnAbort(txn.0));
    }

    fn finish_participants(
        &self,
        txn: TxnId,
        participants: &[String],
        committed: bool,
        from: CpuId,
    ) {
        for p in participants {
            let req = EndTxnRequest::Finish { txn, committed };
            // Best effort: a dead participant recovers from the trail later.
            let _ = self
                .bus
                .request(from, p, MsgKind::Other, req.wire_size(), Box::new(req));
        }
    }

    fn trail_abort(&self, txn: TxnId, from: CpuId) {
        let req = TrailRequest::Abort { txn };
        let _ = self.bus.request(
            from,
            AUDIT_PROCESS,
            MsgKind::Other,
            req.wire_size(),
            Box::new(req),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::LsnSource;
    use crate::trail::{CommitTimer, Trail};
    use nsql_msg::{Response, Server};
    use nsql_sim::sync::Mutex as PMutex;
    use nsql_sim::Ctr;
    use std::any::Any;

    /// A fake participant that records the protocol it sees.
    struct FakeDp {
        log: PMutex<Vec<String>>,
        vote_abort: bool,
    }

    impl Server for FakeDp {
        fn handle(&self, request: Box<dyn Any + Send>) -> Response {
            let req = *request.downcast::<EndTxnRequest>().unwrap();
            match req {
                EndTxnRequest::Prepare { txn } => {
                    self.log.lock().push(format!("prepare {txn}"));
                    if self.vote_abort {
                        Response::new(EndTxnReply::VoteAbort, 4)
                    } else {
                        Response::new(EndTxnReply::Ok, 4)
                    }
                }
                EndTxnRequest::Finish { txn, committed } => {
                    self.log
                        .lock()
                        .push(format!("finish {txn} committed={committed}"));
                    Response::new(EndTxnReply::Ok, 4)
                }
            }
        }
    }

    fn setup() -> (Sim, Arc<Bus>, Arc<TxnManager>, Arc<Trail>) {
        let sim = Sim::new();
        let bus = Bus::new(sim.clone());
        let trail = Trail::new(sim.clone(), LsnSource::new(), CommitTimer::Fixed(2_000));
        bus.register(AUDIT_PROCESS, CpuId::new(0, 0), trail.clone());
        let mgr = TxnManager::new(sim.clone(), bus.clone());
        (sim, bus, mgr, trail)
    }

    #[test]
    fn commit_runs_two_phases_and_waits_for_group() {
        let (sim, bus, mgr, _trail) = setup();
        let dp = Arc::new(FakeDp {
            log: PMutex::new(Vec::new()),
            vote_abort: false,
        });
        bus.register("$DATA1", CpuId::new(0, 1), dp.clone());

        let txn = mgr.begin();
        mgr.join(txn, "$DATA1");
        let t0 = sim.now();
        mgr.commit(txn, CpuId::new(0, 0)).unwrap();
        assert!(sim.now() >= t0 + 2_000, "commit waited for the group timer");
        assert_eq!(mgr.state(txn), Some(TxnState::Committed));
        let log = dp.log.lock().clone();
        assert_eq!(log.len(), 2);
        assert!(log[0].starts_with("prepare"));
        assert!(log[1].contains("committed=true"));
        assert_eq!(sim.metrics.snapshot().txns_committed, 1);
    }

    #[test]
    fn participant_veto_aborts() {
        let (sim, bus, mgr, _trail) = setup();
        let dp = Arc::new(FakeDp {
            log: PMutex::new(Vec::new()),
            vote_abort: true,
        });
        bus.register("$DATA1", CpuId::new(0, 1), dp);
        let txn = mgr.begin();
        mgr.join(txn, "$DATA1");
        let err = mgr.commit(txn, CpuId::new(0, 0)).unwrap_err();
        assert!(matches!(err, TxnError::ParticipantAborted(_)));
        assert_eq!(mgr.state(txn), Some(TxnState::Aborted));
        assert_eq!(sim.metrics.snapshot().txns_aborted, 1);
    }

    #[test]
    fn explicit_abort_notifies_participants() {
        let (_sim, bus, mgr, _trail) = setup();
        let dp = Arc::new(FakeDp {
            log: PMutex::new(Vec::new()),
            vote_abort: false,
        });
        bus.register("$DATA1", CpuId::new(0, 1), dp.clone());
        let txn = mgr.begin();
        mgr.join(txn, "$DATA1");
        mgr.abort(txn, CpuId::new(0, 0)).unwrap();
        let log = dp.log.lock().clone();
        assert_eq!(log.len(), 1);
        assert!(log[0].contains("committed=false"));
    }

    #[test]
    fn doom_dumps_the_tmf_flight_ring_once() {
        let (sim, _bus, mgr, _trail) = setup();
        let txn = mgr.begin();
        mgr.doom(txn);
        mgr.doom(txn); // idempotent
        assert!(mgr.is_doomed(txn));
        let dumps = sim.flight.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].process, TMF_ENTITY);
        assert!(dumps[0].reason.contains("doomed"));
        assert_eq!(
            dumps[0]
                .counters
                .get(EntityKind::Txn, TMF_ENTITY, Ctr::TxnDoomed),
            1
        );
        assert_eq!(dumps[0].entries.len(), 1);
        assert_eq!(dumps[0].entries[0].tag, "doom");
    }

    #[test]
    fn double_commit_rejected() {
        let (_sim, _bus, mgr, _trail) = setup();
        let txn = mgr.begin();
        mgr.commit(txn, CpuId::new(0, 0)).unwrap();
        assert_eq!(
            mgr.commit(txn, CpuId::new(0, 0)),
            Err(TxnError::BadTxn(txn))
        );
    }

    #[test]
    fn multi_participant_commit_contacts_all() {
        let (_sim, bus, mgr, _trail) = setup();
        let dp1 = Arc::new(FakeDp {
            log: PMutex::new(Vec::new()),
            vote_abort: false,
        });
        let dp2 = Arc::new(FakeDp {
            log: PMutex::new(Vec::new()),
            vote_abort: false,
        });
        bus.register("$DATA1", CpuId::new(0, 1), dp1.clone());
        bus.register("$DATA2", CpuId::new(1, 0), dp2.clone());
        let txn = mgr.begin();
        mgr.join(txn, "$DATA1");
        mgr.join(txn, "$DATA2");
        assert_eq!(mgr.participants(txn).len(), 2);
        mgr.commit(txn, CpuId::new(0, 0)).unwrap();
        assert_eq!(dp1.log.lock().len(), 2);
        assert_eq!(dp2.log.lock().len(), 2);
    }
}
