//! The contention client, written once: the load engine (`run_load`) and
//! `nsql-lint check-locks` both run it, each with its own scripts and
//! scheduler.
//!
//! Each client runs a script of requests as one TMF transaction at a time,
//! behind a FIFO admission gate whose slot it keeps across retries; a slot
//! it frees goes straight to the head of the queue, which begins at once.
//! A `Locked` bounce leaves it [`Phase::Waiting`] on the same step, to
//! re-poll. A doomed request (deadlock victim, timed-out wait) is aborted,
//! and so is any other error; TMF's refusal to commit a doomed transaction
//! has rolled it back already. Either way the client backs off, to begin
//! afresh as a younger transaction, or gives up once its retries are spent.

use nsql_core::Cluster;
use nsql_dp::DpError;
use nsql_fs::{FileSystem, FsError};
use nsql_lock::TxnId;
use nsql_tmf::txn::TxnError;
use std::collections::VecDeque;

/// Where a client is: not yet at the gate, queued there, executing its
/// script, bounced by a lock, rolled back, committed, or out of retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[allow(missing_docs)]
pub enum Phase {
    #[default]
    Unarrived,
    Queued,
    Running,
    Waiting,
    Backoff,
    Committed,
    GaveUp,
}

/// One client's state; it holds no [`TxnId`], so a canonical state can.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Client {
    /// Where the client is.
    pub phase: Phase,
    /// Next script step; the script's length means commit next.
    pub step: usize,
    /// Attempts begun at the current arrival.
    pub attempt: u32,
}

impl Client {
    /// Does the client own a live transaction?
    pub fn live(&self) -> bool {
        matches!(self.phase, Phase::Running | Phase::Waiting)
    }
}

/// Why [`Clients::poll`] rolled an attempt back.
#[derive(Debug)]
pub enum Rollback {
    /// A request found the transaction doomed, for this reason (it says
    /// `deadlock` or `timeout`).
    Doomed(String),
    /// TMF refused to commit the doomed transaction, and rolled it back.
    CommitRefused,
    /// A request failed otherwise (a fault-plane casualty).
    Request(FsError),
    /// The commit failed otherwise.
    Commit(TxnError),
}

/// What a [`Clients::poll`] did besides moving its client on.
#[derive(Debug, Default)]
pub struct Polled {
    /// The attempt was rolled back, and why.
    pub rollback: Option<Rollback>,
    /// The queued client that the freed gate slot admitted; it has begun.
    pub admitted: Option<usize>,
}

/// The clients and their admission gate. Drivers read the fields; only
/// the methods change them.
#[derive(Debug)]
pub struct Clients {
    /// Each client's protocol state.
    pub clients: Vec<Client>,
    /// Each client's current transaction, or its last.
    pub txns: Vec<Option<TxnId>>,
    /// Clients queued at the gate, in arrival order.
    pub gate: VecDeque<usize>,
    /// Gate slots taken.
    pub inflight: usize,
    capacity: usize,
    retries: u32,
}

impl Clients {
    /// `n` unarrived clients behind a gate of `capacity` slots, each
    /// allowed `retries` retries after its first attempt.
    pub fn new(n: usize, capacity: usize, retries: u32) -> Clients {
        Clients {
            clients: vec![Client::default(); n],
            txns: vec![None; n],
            gate: VecDeque::new(),
            inflight: 0,
            capacity,
            retries,
        }
    }

    /// Client `i` arrives at the gate: it begins its first attempt when a
    /// slot is free (`true`), and queues otherwise.
    pub fn arrive(&mut self, db: &Cluster, i: usize) -> bool {
        self.clients[i].attempt = 0;
        if self.inflight < self.capacity {
            self.inflight += 1;
            self.begin(db, i);
            true
        } else {
            self.clients[i].phase = Phase::Queued;
            self.gate.push_back(i);
            false
        }
    }

    /// Client `i`'s next action: begin afresh after a backoff; `send` its
    /// next step of `steps` (again, after a bounce); or commit after the
    /// last. Clients in other phases have nothing to do.
    pub fn poll<F>(
        &mut self,
        db: &Cluster,
        fs: &FileSystem,
        i: usize,
        steps: usize,
        send: F,
    ) -> Polled
    where
        F: FnOnce(&FileSystem, TxnId, usize) -> Result<(), FsError>,
    {
        let client = self.clients[i];
        if client.phase == Phase::Backoff {
            self.begin(db, i);
            return Polled::default();
        }
        let (true, Some(txn)) = (client.live(), self.txns[i]) else {
            return Polled::default();
        };
        let c = &mut self.clients[i];
        let rollback = if client.step < steps {
            match send(fs, txn, client.step) {
                Ok(()) => {
                    (c.phase, c.step) = (Phase::Running, c.step + 1);
                    return Polled::default();
                }
                Err(FsError::Dp(DpError::Locked { .. })) => {
                    c.phase = Phase::Waiting;
                    return Polled::default();
                }
                Err(FsError::Doomed { reason }) => Some(Rollback::Doomed(reason)),
                Err(e) => Some(Rollback::Request(e)),
            }
        } else {
            match db.txnmgr.commit(txn, fs.cpu) {
                Ok(()) => None,
                Err(TxnError::Doomed(_)) => Some(Rollback::CommitRefused),
                Err(e) => Some(Rollback::Commit(e)),
            }
        };
        if !matches!(rollback, None | Some(Rollback::CommitRefused)) {
            // A transaction the abort cannot reach keeps its locks, and the
            // lock plane shows them.
            let _ = db.txnmgr.abort(txn, fs.cpu);
        }
        c.phase = match rollback {
            None => Phase::Committed,
            Some(_) if c.attempt > self.retries => Phase::GaveUp,
            Some(_) => Phase::Backoff,
        };
        let left = c.phase != Phase::Backoff;
        let admitted = if left { self.release(db) } else { None };
        Polled { rollback, admitted }
    }

    /// Begin a fresh attempt for client `i`: the youngest transaction.
    fn begin(&mut self, db: &Cluster, i: usize) {
        self.txns[i] = Some(db.txnmgr.begin());
        let c = &mut self.clients[i];
        (c.phase, c.step, c.attempt) = (Phase::Running, 0, c.attempt + 1);
    }

    /// A client left the gate: its slot goes to the head of the queue,
    /// which begins at once and is returned.
    fn release(&mut self, db: &Cluster) -> Option<usize> {
        let head = self.gate.pop_front();
        match head {
            Some(j) => self.begin(db, j),
            None => self.inflight -= 1,
        }
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refused_commit_is_retried_and_a_give_up_admits_the_queue() {
        let db = Cluster::single_volume();
        let session = db.session();
        let fs = session.fs();
        let nothing = |_: &FileSystem, _: TxnId, _: usize| Ok(());
        // One slot, one retry: client 1 queues behind client 0.
        let mut clients = Clients::new(2, 1, 1);
        assert!(clients.arrive(&db, 0));
        assert!(!clients.arrive(&db, 1));
        for attempt in 1..=2 {
            assert_eq!(clients.clients[0].attempt, attempt);
            // Doomed after its last step: TMF refuses the commit.
            db.txnmgr.doom(clients.txns[0].unwrap());
            let polled = clients.poll(&db, fs, 0, 0, nothing);
            assert!(matches!(polled.rollback, Some(Rollback::CommitRefused)));
            if attempt == 1 {
                // Backed off, keeping the slot; the next poll begins afresh.
                assert_eq!(polled.admitted, None);
                assert_eq!(clients.clients[0].phase, Phase::Backoff);
                clients.poll(&db, fs, 0, 0, nothing);
            } else {
                // Out of retries: the slot goes to the head of the queue.
                assert_eq!(polled.admitted, Some(1));
                assert_eq!(clients.clients[0].phase, Phase::GaveUp);
            }
        }
        assert_eq!(clients.clients[1].phase, Phase::Running);
        let polled = clients.poll(&db, fs, 1, 0, nothing);
        assert!(polled.rollback.is_none() && polled.admitted.is_none());
        assert_eq!(clients.clients[1].phase, Phase::Committed);
        assert_eq!((clients.gate.len(), clients.inflight), (0, 0));
    }
}
