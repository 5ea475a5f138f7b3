//! Randomised invariants of recovery classification and group commit,
//! driven by a seeded RNG for reproducibility.

use nsql_lock::TxnId;
use nsql_sim::{Sim, SimRng};
use nsql_tmf::audit::{AuditBody, AuditRecord};
use nsql_tmf::{classify, CommitTimer, Direction, LsnSource, Trail, TrailReply, TrailRequest};
use std::collections::HashSet;

#[derive(Debug, Clone)]
enum Event {
    Change { txn: u8, volume: bool },
    Commit { txn: u8 },
    Abort { txn: u8 },
}

fn draw_event(rng: &mut SimRng) -> Event {
    let txn = rng.below(8) as u8;
    match rng.below(3) {
        0 => Event::Change {
            txn,
            volume: rng.chance(0.5),
        },
        1 => Event::Commit { txn },
        _ => Event::Abort { txn },
    }
}

/// Classification invariants: redo only winners, undo never winners, volume
/// filtering, winners redone in LSN order, every loser backed out newest
/// change first in one run at its last change, and nothing of another
/// transaction on the same key between a loser's change and its backout.
#[test]
fn classification_invariants() {
    for case in 0..128u64 {
        let mut rng = SimRng::seed_from(0x7AF + case);
        let nevents = 1 + rng.below(120) as usize;
        let mut records = Vec::new();
        let mut lsn = 0u64;
        for _ in 0..nevents {
            lsn += 1;
            records.push(match draw_event(&mut rng) {
                Event::Change { txn, volume } => AuditRecord {
                    lsn,
                    txn: TxnId(txn as u64),
                    volume: if volume { "$A" } else { "$B" }.into(),
                    file: 0,
                    body: AuditBody::Insert {
                        key: vec![lsn as u8],
                        record: vec![1],
                    },
                },
                Event::Commit { txn } => AuditRecord {
                    lsn,
                    txn: TxnId(txn as u64),
                    volume: String::new(),
                    file: 0,
                    body: AuditBody::Commit,
                },
                Event::Abort { txn } => AuditRecord {
                    lsn,
                    txn: TxnId(txn as u64),
                    volume: String::new(),
                    file: 0,
                    body: AuditBody::Abort,
                },
            });
        }
        let committed: HashSet<TxnId> = records
            .iter()
            .filter(|r| matches!(r.body, AuditBody::Commit))
            .map(|r| r.txn)
            .collect();

        for vol in ["$A", "$B"] {
            let plan = classify(&records, vol);
            assert_eq!(&plan.winners, &committed);
            for (r, direction) in &plan.steps {
                assert_eq!(&r.volume, vol);
                let redo = *direction == Direction::Redo;
                assert_eq!(redo, committed.contains(&r.txn));
            }
            let redo: Vec<u64> = plan.records(Direction::Redo).map(|r| r.lsn).collect();
            assert!(redo.windows(2).all(|w| w[0] < w[1]));
            // Every data record for this volume lands in exactly one step.
            let total = records
                .iter()
                .filter(|r| !r.body.is_outcome() && r.volume == vol)
                .count();
            assert_eq!(plan.steps.len(), total);
            // A loser's backout is one unbroken run, newest change first,
            // standing where its last change stood: every redo before the
            // run is older than that change, every redo after it is newer.
            let mut i = 0;
            while i < plan.steps.len() {
                let (first, direction) = plan.steps[i];
                if direction == Direction::Redo {
                    i += 1;
                    continue;
                }
                let run = plan.steps[i..]
                    .iter()
                    .take_while(|(r, d)| *d == Direction::Undo && r.txn == first.txn)
                    .count();
                let lsns: Vec<u64> = plan.steps[i..i + run].iter().map(|(r, _)| r.lsn).collect();
                assert!(lsns.windows(2).all(|w| w[0] > w[1]));
                let all = plan.records(Direction::Undo).filter(|r| r.txn == first.txn);
                assert_eq!(all.count(), run, "one run per loser");
                let redone = |steps: &[(&AuditRecord, Direction)]| -> Vec<u64> {
                    let redo = steps.iter().filter(|(_, d)| *d == Direction::Redo);
                    redo.map(|(r, _)| r.lsn).collect()
                };
                assert!(redone(&plan.steps[..i]).iter().all(|l| *l < first.lsn));
                assert!(redone(&plan.steps[i + run..])
                    .iter()
                    .all(|l| *l > first.lsn));
                i += run;
            }
        }
    }
}

/// Group commit: every commit's reported completion time is at or after its
/// submission, and the trail eventually flushes everything.
#[test]
fn commit_completions_are_causal() {
    for case in 0..64u64 {
        let mut rng = SimRng::seed_from(0xC0117 + case);
        let ncommits = 1 + rng.below(60) as usize;
        let gaps: Vec<u64> = (0..ncommits).map(|_| rng.below(30_000)).collect();
        let sim = Sim::new();
        let trail = Trail::new(sim.clone(), LsnSource::new(), CommitTimer::Fixed(5_000));
        let mut max_completion = 0;
        for (i, gap) in gaps.iter().enumerate() {
            let submit = sim.now();
            let TrailReply::Committed { completion } = trail.apply(TrailRequest::Commit {
                txn: TxnId(i as u64),
            }) else {
                panic!("commit must reply Committed");
            };
            assert!(completion >= submit, "completion before submission");
            max_completion = max_completion.max(completion);
            sim.clock.advance(*gap);
        }
        sim.clock.advance_to(max_completion + 1);
        let durable = trail.durable_records(sim.now());
        let commits = durable
            .iter()
            .filter(|r| matches!(r.body, AuditBody::Commit))
            .count();
        assert_eq!(commits, gaps.len(), "every commit must reach the trail");
    }
}
