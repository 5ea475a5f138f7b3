//! The indexed lock table against a brute-force oracle. Each step draws a
//! request — acquire, wait, stop waiting or release — over point, interval
//! (some inverted) and file scopes on a few files, and predicts its verdict
//! and the table's next `held()` / `waiters()` / `wait_edges()` snapshots
//! by scanning the previous ones in order, as the flat table of grants
//! this index replaced did.

use nsql_lock::{HeldLock, LockError, LockManager, LockMode, LockScope, TxnId, WaitingLock};
use nsql_sim::SimRng;

/// What the table showed before a request.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    held: Vec<HeldLock>,
    waiters: Vec<WaitingLock>,
    edges: Vec<(TxnId, TxnId)>,
}

impl Snapshot {
    fn of(lm: &LockManager) -> Self {
        Snapshot {
            held: lm.held(),
            waiters: lm.waiters(),
            edges: lm.wait_edges(),
        }
    }

    /// `txn`'s queue entry and waits-for edge, gone.
    fn stop_waiting(&mut self, txn: TxnId) {
        self.waiters.retain(|w| w.txn != txn);
        self.edges.retain(|&(w, _)| w != txn);
    }

    fn add_edge(&mut self, waiter: TxnId, holder: TxnId) {
        self.edges.retain(|&(w, _)| w != waiter);
        self.edges.push((waiter, holder));
        self.edges.sort_unstable();
    }
}

/// An interval with `lo > hi` covers no key.
fn empty(scope: &LockScope) -> bool {
    matches!(scope, LockScope::KeyInterval { lo, hi } if lo > hi)
}

fn overlaps(a: &LockScope, b: &LockScope) -> bool {
    if empty(a) || empty(b) {
        return false;
    }
    match (a, b) {
        (LockScope::File, _) | (_, LockScope::File) => true,
        (
            LockScope::KeyInterval { lo: a_lo, hi: a_hi },
            LockScope::KeyInterval { lo: b_lo, hi: b_hi },
        ) => a_lo <= b_hi && b_lo <= a_hi,
    }
}

fn covers(outer: &LockScope, inner: &LockScope) -> bool {
    if empty(inner) {
        return false;
    }
    match (outer, inner) {
        (LockScope::File, _) => true,
        (LockScope::KeyInterval { .. }, LockScope::File) => false,
        (
            LockScope::KeyInterval { lo: o_lo, hi: o_hi },
            LockScope::KeyInterval { lo: i_lo, hi: i_hi },
        ) => o_lo <= i_lo && i_hi <= o_hi,
    }
}

/// The verdict of an acquire, and the snapshot it leaves, from a scan of
/// the one before.
fn expect_acquire(
    before: &Snapshot,
    txn: TxnId,
    file: u32,
    scope: &LockScope,
    mode: LockMode,
) -> (Result<(), LockError>, Snapshot) {
    let mut after = before.clone();
    let mine = |h: &&HeldLock| h.txn == txn && h.file == file;
    let covered = before.held.iter().filter(mine).any(|h| {
        covers(&h.scope, scope) && (h.mode == LockMode::Exclusive || mode == LockMode::Shared)
    });
    if covered {
        after.stop_waiting(txn);
        return (Ok(()), after);
    }
    let conflict = before.held.iter().find(|h| {
        h.txn != txn && h.file == file && overlaps(&h.scope, scope) && !h.mode.compatible(mode)
    });
    if let Some(h) = conflict {
        return (Err(LockError::Conflict { holder: h.txn }), after);
    }
    let upgrading = before
        .held
        .iter()
        .filter(mine)
        .any(|h| overlaps(&h.scope, scope));
    if !upgrading {
        for w in before.waiters.iter().take_while(|w| w.txn != txn) {
            if w.file == file && overlaps(&w.scope, scope) && !w.mode.compatible(mode) {
                return (Err(LockError::Conflict { holder: w.txn }), after);
            }
        }
    }
    after.held.push(HeldLock {
        txn,
        file,
        scope: scope.clone(),
        mode,
    });
    after.stop_waiting(txn);
    (Ok(()), after)
}

/// The verdict of a wait, and the snapshot it leaves.
#[allow(clippy::too_many_arguments)]
fn expect_wait(
    before: &Snapshot,
    waiter: TxnId,
    holder: TxnId,
    file: u32,
    scope: &LockScope,
    mode: LockMode,
    now: u64,
    timeout: u64,
) -> (Result<(), LockError>, Snapshot) {
    let mut after = before.clone();
    if waiter == holder {
        return (Err(LockError::Deadlock { victim: waiter }), after);
    }
    let since = match after.waiters.iter_mut().find(|w| w.txn == waiter) {
        Some(w) => {
            if (w.file, &w.scope, w.mode) != (file, scope, mode) {
                (w.file, w.scope, w.mode, w.since) = (file, scope.clone(), mode, now);
            }
            w.since
        }
        None => {
            after.waiters.push(WaitingLock {
                txn: waiter,
                file,
                scope: scope.clone(),
                mode,
                since: now,
            });
            now
        }
    };
    if timeout > 0 && now - since >= timeout {
        after.stop_waiting(waiter);
        return (Err(LockError::WaitTimeout { victim: waiter }), after);
    }
    // Follow the holder's chain of edges; back at the waiter is a cycle.
    let edge = |from: TxnId| before.edges.iter().find(|&&(w, _)| w == from).map(|e| e.1);
    let (mut members, mut at) = (vec![waiter, holder], holder);
    while let Some(next) = edge(at) {
        if next == waiter {
            let victim = members.into_iter().max().expect("two members");
            after.stop_waiting(victim);
            if victim != waiter {
                after.add_edge(waiter, holder);
            }
            return (Err(LockError::Deadlock { victim }), after);
        }
        if members.contains(&next) {
            break; // a cycle the waiter is not on
        }
        members.push(next);
        at = next;
    }
    after.add_edge(waiter, holder);
    (Ok(()), after)
}

/// One of ten keys of one or two bytes (so some share a prefix).
fn key(rng: &mut SimRng) -> Vec<u8> {
    let k = rng.below(10) as u8;
    if k.is_multiple_of(3) {
        vec![k / 3]
    } else {
        vec![k / 3, k]
    }
}

fn scope(rng: &mut SimRng) -> LockScope {
    match rng.below(10) {
        0..=5 => LockScope::record(key(rng)),
        // Either order: an inverted interval must neither panic nor block.
        6..=8 => LockScope::KeyInterval {
            lo: key(rng),
            hi: key(rng),
        },
        _ => LockScope::File,
    }
}

/// How often each kind of outcome came up across the run.
#[derive(Default, Debug)]
struct Seen {
    granted: u32,
    covered: u32,
    upgrades: u32,
    by_holder: u32,
    by_waiter: u32,
    deadlocks: u32,
    timeouts: u32,
}

#[test]
fn every_verdict_and_snapshot_matches_a_scan_of_the_previous_snapshot() {
    let mut seen = Seen::default();
    for case in 0..120u64 {
        let mut rng = SimRng::seed_from(0x10C4 + case);
        let (files, txns) = (2 + rng.below(2) as u32, 4 + rng.below(3));
        let timeout = if rng.chance(0.5) { 0 } else { 25 };
        let lm = LockManager::new();
        lm.set_wait_timeout(timeout);
        let mut now = 0;
        // The last conflict each transaction met, to wait on.
        let mut blocked: Vec<Option<(TxnId, u32, LockScope, LockMode)>> = vec![None; txns as usize];
        for step in 0..300 {
            let before = Snapshot::of(&lm);
            let txn = TxnId(1 + rng.below(txns));
            let slot = txn.0 as usize - 1;
            now += rng.below(10);
            let (got, verdict, expected) = match rng.below(20) {
                0..=11 => {
                    let (file, scope) = (rng.below(u64::from(files)) as u32, scope(&mut rng));
                    let mode = if rng.chance(0.5) {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    };
                    let (verdict, expected) = expect_acquire(&before, txn, file, &scope, mode);
                    let grantable = lm.can_acquire(txn, file, &scope, mode);
                    assert_eq!(grantable, verdict.is_ok(), "case {case} step {step}");
                    assert_eq!(Snapshot::of(&lm), before, "can_acquire changed the table");
                    match &verdict {
                        Err(LockError::Conflict { holder }) => {
                            let queued = before.waiters.iter().any(|w| w.txn == *holder);
                            let holds = before.held.iter().any(|h| h.txn == *holder);
                            if holds {
                                seen.by_holder += 1;
                            } else {
                                assert!(queued);
                                seen.by_waiter += 1;
                            }
                            blocked[slot] = Some((*holder, file, scope.clone(), mode));
                        }
                        Ok(()) if expected.held.len() == before.held.len() => seen.covered += 1,
                        Ok(()) => {
                            let mine = |h: &&HeldLock| h.txn == txn && h.file == file;
                            if before
                                .held
                                .iter()
                                .filter(mine)
                                .any(|h| overlaps(&h.scope, &scope))
                            {
                                seen.upgrades += 1;
                            }
                            seen.granted += 1;
                        }
                        Err(other) => panic!("acquire answered {other:?}"),
                    }
                    (lm.acquire(txn, file, scope, mode), verdict, expected)
                }
                12..=15 => {
                    // Wait (again) for the holder of the last conflict, or
                    // for someone at random.
                    let (holder, file, scope, mode) = match blocked[slot].clone() {
                        Some(conflict) if rng.chance(0.8) => conflict,
                        _ => (
                            TxnId(1 + rng.below(txns)),
                            rng.below(u64::from(files)) as u32,
                            scope(&mut rng),
                            LockMode::Exclusive,
                        ),
                    };
                    let (verdict, expected) =
                        expect_wait(&before, txn, holder, file, &scope, mode, now, timeout);
                    match verdict {
                        Err(LockError::Deadlock { .. }) => seen.deadlocks += 1,
                        Err(LockError::WaitTimeout { .. }) => seen.timeouts += 1,
                        _ => {}
                    }
                    let got = lm.wait(txn, holder, file, scope, mode, now);
                    (got, verdict, expected)
                }
                16 => {
                    let mut expected = before.clone();
                    expected.stop_waiting(txn);
                    lm.stop_waiting(txn);
                    (Ok(()), Ok(()), expected)
                }
                _ => {
                    let mut expected = before.clone();
                    expected.held.retain(|h| h.txn != txn);
                    expected.stop_waiting(txn);
                    expected.edges.retain(|&(_, h)| h != txn);
                    lm.release_all(txn);
                    (Ok(()), Ok(()), expected)
                }
            };
            let after = Snapshot::of(&lm);
            assert_eq!(got, verdict, "case {case} step {step}");
            assert_eq!(after, expected, "case {case} step {step}");
            assert_eq!(lm.lock_count(), after.held.len());
            assert_eq!(lm.waiting_count(), after.waiters.len());
            assert_eq!(lm.wait_edge_count(), after.edges.len());
            for t in 1..=txns {
                let mine: Vec<_> = after
                    .held
                    .iter()
                    .filter(|h| h.txn == TxnId(t))
                    .cloned()
                    .collect();
                assert_eq!(lm.held_by(TxnId(t)), mine, "held_by keeps grant order");
            }
        }
        for t in 1..=txns {
            lm.release_all(TxnId(t));
        }
        assert_eq!(
            (lm.lock_count(), lm.waiting_count(), lm.wait_edge_count()),
            (0, 0, 0),
            "case {case}: the table drains"
        );
        assert!(lm.held().is_empty() && lm.waiters().is_empty());
    }
    // Every branch of the decision came up, many times.
    let counts = [
        ("grants", seen.granted),
        ("covered re-acquires", seen.covered),
        ("upgrades", seen.upgrades),
        ("conflicts with a holder", seen.by_holder),
        ("bounces off a waiter", seen.by_waiter),
        ("deadlocks", seen.deadlocks),
        ("timeouts", seen.timeouts),
    ];
    for (what, n) in counts {
        assert!(n >= 20, "only {n} {what}: {seen:?}");
    }
}
