//! Crash recovery planning from the audit trail.
//!
//! "The dual roles of the backup Disk Process and TMF in maintaining high
//! device availability, fault tolerance, transaction consistency, and
//! robustness to crash are described in \[Borr2\]."
//!
//! Recovery of a volume replays its audit in **one pass in LSN order**:
//!
//! * **winners** — transactions with a commit record on the durable trail —
//!   have each change **redone** where it stands;
//! * **losers** — aborted, or without an outcome record — are **backed
//!   out**, newest change first, right after their last change.
//!
//! A loser's backout cannot wait until the redo pass is over. Its locks
//! fell when it was rolled back, so a later transaction may have committed
//! a change to the same record; applied after that change's redo, the
//! loser's before-image would overwrite it. Right after the loser's last
//! change is the latest point at which it still held every lock on what it
//! changed, so no other transaction's record on those keys can lie between
//! its changes and that point. (In a run without failures its `Abort`
//! record follows at once; after a crash it may follow much later, or not
//! at all, which is why the record's position is not used.)
//!
//! Application is *logical* and idempotent: the Disk Process applies
//! "insert or replace / delete if present / set these fields" through its
//! record-management component (see `nsql-dp`). This module only
//! classifies and orders the work.

use crate::audit::{AuditBody, AuditRecord, Lsn};
use nsql_lock::TxnId;
use std::collections::{HashMap, HashSet};

/// Which way a logged change is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward: bring the record to its after-image.
    Redo,
    /// Backward: bring the record to its before-image.
    Undo,
}

/// The ordered work needed to recover one volume.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPlan<'a> {
    /// Committed transactions found on the trail.
    pub winners: HashSet<TxnId>,
    /// The volume's data records with the direction to apply each in, in
    /// the order to apply them.
    pub steps: Vec<(&'a AuditRecord, Direction)>,
}

impl<'a> RecoveryPlan<'a> {
    /// The records applied in `direction`, in plan order.
    pub fn records(&self, direction: Direction) -> impl Iterator<Item = &'a AuditRecord> + '_ {
        let steps = self.steps.iter().filter(move |(_, d)| *d == direction);
        steps.map(|(r, _)| *r)
    }
}

/// Build the recovery plan for `volume` from the durable trail records.
pub fn classify<'a>(records: &'a [AuditRecord], volume: &str) -> RecoveryPlan<'a> {
    let winners: HashSet<TxnId> = records
        .iter()
        .filter(|r| r.body == AuditBody::Commit)
        .map(|r| r.txn)
        .collect();
    // Volumes ship their audit in batches, so the trail holds each
    // volume's records in LSN order but not the volumes interleaved.
    let mut data: Vec<&AuditRecord> = records
        .iter()
        .filter(|r| !r.body.is_outcome() && r.volume == volume)
        .collect();
    data.sort_by_key(|r| r.lsn);

    // Where each loser's backout goes: at its last change. (Explicitly
    // aborted or in flight at the crash: with strict WAL a loser's changes
    // can only be on disk if their audit is durable, which is exactly the
    // set seen here.)
    let losers = data.iter().filter(|r| !winners.contains(&r.txn));
    let last_change: HashMap<TxnId, Lsn> = losers.map(|r| (r.txn, r.lsn)).collect();
    let mut open: HashMap<TxnId, Vec<&AuditRecord>> = HashMap::new();
    let mut steps = Vec::with_capacity(data.len());
    for r in data {
        let Some(&last) = last_change.get(&r.txn) else {
            steps.push((r, Direction::Redo));
            continue;
        };
        let changes = open.entry(r.txn).or_default();
        changes.push(r);
        if r.lsn == last {
            steps.extend(changes.drain(..).rev().map(|r| (r, Direction::Undo)));
        }
    }
    RecoveryPlan { winners, steps }
}

#[cfg(test)]
mod tests {
    use super::Direction::{Redo, Undo};
    use super::*;

    fn rec(lsn: u64, txn: u64, volume: &str, body: AuditBody) -> AuditRecord {
        AuditRecord {
            lsn,
            txn: TxnId(txn),
            volume: volume.into(),
            file: 0,
            body,
        }
    }

    fn ins(lsn: u64, txn: u64, volume: &str) -> AuditRecord {
        rec(
            lsn,
            txn,
            volume,
            AuditBody::Insert {
                key: vec![lsn as u8],
                record: vec![0],
            },
        )
    }

    /// The plan as `(lsn, direction)` pairs.
    fn order(plan: &RecoveryPlan<'_>) -> Vec<(u64, Direction)> {
        plan.steps.iter().map(|(r, d)| (r.lsn, *d)).collect()
    }

    #[test]
    fn winners_redo_losers_undo() {
        let records = vec![
            ins(1, 1, "$D"),
            ins(2, 2, "$D"),
            rec(3, 1, "", AuditBody::Commit),
            ins(4, 2, "$D"),
            // txn 2 never commits
        ];
        let plan = classify(&records, "$D");
        assert!(plan.winners.contains(&TxnId(1)));
        assert!(!plan.winners.contains(&TxnId(2)));
        assert_eq!(
            order(&plan),
            vec![(1, Redo), (4, Undo), (2, Undo)],
            "a loser is backed out newest change first"
        );
    }

    #[test]
    fn aborted_txns_are_losers() {
        let records = vec![ins(1, 7, "$D"), rec(2, 7, "", AuditBody::Abort)];
        let plan = classify(&records, "$D");
        assert_eq!(order(&plan), vec![(1, Undo)]);
    }

    #[test]
    fn a_loser_is_backed_out_before_later_work_is_redone() {
        // Txn 2 changes two records around a commit of txn 1, is rolled
        // back, and txn 3 then commits a change (LSN 6) to what txn 2 had
        // touched. Txn 2's before-images must go in ahead of LSN 6 — at its
        // own last change, wherever its abort record sits (here: late, as
        // after a crash that doomed it) — and txn 4, in flight at the end,
        // is backed out where it stopped.
        let records = vec![
            ins(1, 1, "$D"),
            ins(2, 2, "$D"),
            rec(3, 1, "", AuditBody::Commit),
            ins(4, 2, "$D"),
            ins(5, 4, "$D"),
            ins(6, 3, "$D"),
            rec(7, 3, "", AuditBody::Commit),
            rec(8, 2, "", AuditBody::Abort),
            ins(9, 4, "$D"),
        ];
        let plan = classify(&records, "$D");
        assert_eq!(
            order(&plan),
            vec![
                (1, Redo),
                (4, Undo),
                (2, Undo),
                (6, Redo),
                (9, Undo),
                (5, Undo)
            ]
        );
        assert_eq!(plan.records(Redo).count(), 2);
        assert_eq!(plan.records(Undo).count(), 4);
    }

    #[test]
    fn other_volumes_filtered_out() {
        let records = vec![
            ins(1, 1, "$D1"),
            ins(2, 1, "$D2"),
            rec(3, 1, "", AuditBody::Commit),
        ];
        let plan = classify(&records, "$D1");
        assert_eq!(order(&plan), vec![(1, Redo)]);
        assert_eq!(plan.steps[0].0.volume, "$D1");
    }

    #[test]
    fn redo_is_lsn_ordered() {
        let records = vec![
            ins(5, 1, "$D"),
            ins(2, 1, "$D"),
            ins(9, 1, "$D"),
            rec(10, 1, "", AuditBody::Commit),
        ];
        let plan = classify(&records, "$D");
        assert_eq!(order(&plan), vec![(2, Redo), (5, Redo), (9, Redo)]);
    }

    #[test]
    fn empty_trail_empty_plan() {
        let plan = classify(&[], "$D");
        assert!(plan.steps.is_empty() && plan.winners.is_empty());
    }
}
