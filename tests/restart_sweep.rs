//! Crash-point sweep: crash-and-restart a CPU at every durable-LSN
//! boundary of a seeded DebitCredit run and prove exact committed-state
//! equivalence.
//!
//! For each crash point `i` the harness builds a fresh cluster from the
//! same seed, commits exactly `i` debit-credit transactions, dumps the
//! full committed row set (every table, key order), then crashes the
//! data-volume CPU — discarding all volatile state (cache pages, SCBs,
//! lock table, transaction table) — restarts the Disk Process, replays
//! the durable audit-trail prefix (REDO winners, UNDO losers), and dumps
//! again. The two dumps must be *identical*: not close, not row-count
//! equal — byte-for-byte the same values in the same order.
//!
//! Variants cover: an in-flight uncommitted transaction at crash time
//! (UNDO path), a crash of the audit-trail CPU itself (torn-tail
//! truncation path), rolled-back transactions each followed by a
//! committed one on the same account (UNDO ordered among the REDO), and
//! per-seed determinism (two sweeps from the same seed produce identical
//! state at every crash point).
//!
//! The small smoke sweep runs in the normal test pass; the exhaustive
//! sweep over every commit boundary (and both crash targets) is
//! `#[ignore]`-gated and run by the `restart-sweep` CI job with
//! `--include-ignored`.

use nonstop_sql::workloads::Bank;
use nonstop_sql::{Cluster, ClusterBuilder};
use nsql_records::Value;
use nsql_sim::SimRng;

const SEED: u64 = 0xC0FF_EE00;
const BRANCHES: u32 = 2;
const ACCOUNTS_PER_BRANCH: u32 = 50;

/// Which CPU the sweep crashes.
#[derive(Clone, Copy, Debug, PartialEq)]
enum CrashTarget {
    /// The data volume's CPU: DP volatile state dies, trail survives.
    DataCpu,
    /// The audit trail's CPU: buffered audit dies, tail may tear.
    AuditCpu,
    /// Both, audit first: the worst single-node outage.
    Both,
}

/// A fresh seeded cluster with the bank loaded and `commits` debit-credit
/// transactions committed. Returns the cluster, the bank, and the RNG so
/// callers can continue the *same* deterministic transaction stream.
fn run_to(commits: u32, seed: u64) -> (Cluster, Bank, SimRng) {
    let db = ClusterBuilder::new()
        .volume("$DATA1", 0, 1)
        .audit_on(0, 2)
        .build();
    let bank = Bank::create(&db, BRANCHES, ACCOUNTS_PER_BRANCH, "$DATA1").unwrap();
    let mut rng = SimRng::seed_from(seed);
    bank.batch(&db.session(), Bank::debit_credit_sql, &mut rng, commits)
        .fault_free()
        .unwrap();
    (db, bank, rng)
}

/// Dump the complete committed row set of every bank table, in key order.
/// This is the equivalence witness: recovery is correct iff this dump is
/// identical before and after the crash.
fn dump(db: &Cluster) -> Vec<Vec<Value>> {
    let mut s = db.session();
    let mut out = Vec::new();
    for table in ["BRANCH", "TELLER", "ACCOUNT", "HISTORY"] {
        out.push(vec![Value::Str(format!("== {table} =="))]);
        let r = s.query(&format!("SELECT * FROM {table}")).unwrap();
        out.extend(r.rows.into_iter().map(|row| row.0));
    }
    out
}

fn crash(db: &Cluster, target: CrashTarget) {
    match target {
        CrashTarget::DataCpu => db.crash_and_restart(0, 1),
        CrashTarget::AuditCpu => db.crash_and_restart(0, 2),
        CrashTarget::Both => {
            db.crash_and_restart(0, 2);
            db.crash_and_restart(0, 1);
        }
    }
}

/// One crash point: commit `i` txns, optionally leave one more in flight,
/// crash `target`, and assert exact committed-state equivalence.
fn crash_point(i: u32, in_flight: bool, target: CrashTarget, seed: u64) -> Vec<Vec<Value>> {
    let (db, bank, mut rng) = run_to(i, seed);
    let expected = dump(&db);

    let doomed = if in_flight {
        // Start (but never commit) one more transaction: its updates are
        // volatile + trail-buffered losers the restart must erase.
        let (aid, tid, bid, delta) = bank.draw(&mut rng);
        let txn = db.txnmgr.begin();
        let s = db.session();
        bank.debit_credit_sql(s.fs(), txn, aid, tid, bid, delta)
            .unwrap();
        Some(txn)
    } else {
        None
    };

    crash(&db, target);

    let actual = dump(&db);
    assert_eq!(
        expected, actual,
        "crash point {i} ({target:?}, in_flight={in_flight}): \
         restarted state differs from committed pre-crash state"
    );

    if let Some(txn) = doomed {
        // The in-flight txn must not be able to commit after its writes
        // were discarded by recovery.
        let s = db.session();
        assert!(
            db.txnmgr.commit(txn, s.cpu()).is_err(),
            "crash point {i}: in-flight txn committed after restart"
        );
        // ... and aborting it must not disturb the committed state.
        assert_eq!(dump(&db), actual, "abort after restart changed state");
    }

    // The cluster stays serviceable: one more committed txn, continuing
    // the same stream, round-trips.
    bank.batch(&db.session(), Bank::debit_credit_sql, &mut rng, 1)
        .fault_free()
        .unwrap();

    actual
}

/// Like [`run_to`], but every fifth transaction is rolled back and the next
/// one — committed — works on the same account, teller and branch: the
/// rows the aborted one touched and gave back.
fn run_with_rollbacks(txns: u32, seed: u64) -> Cluster {
    let db = ClusterBuilder::new()
        .volume("$DATA1", 0, 1)
        .audit_on(0, 2)
        .build();
    let bank = Bank::create(&db, BRANCHES, ACCOUNTS_PER_BRANCH, "$DATA1").unwrap();
    let mut rng = SimRng::seed_from(seed);
    let s = db.session();
    let mut again = None;
    for i in 0..txns {
        let drawn = bank.draw(&mut rng);
        let (aid, tid, bid, _) = again.take().unwrap_or(drawn);
        let delta = drawn.3;
        let txn = db.txnmgr.begin();
        bank.debit_credit_sql(s.fs(), txn, aid, tid, bid, delta)
            .unwrap();
        if i % 5 == 4 {
            db.txnmgr.abort(txn, s.cpu()).unwrap();
            again = Some((aid, tid, bid, delta));
        } else {
            db.txnmgr.commit(txn, s.cpu()).unwrap();
        }
    }
    drop(s);
    db
}

/// One crash point of the rollback variant: restart must reproduce the
/// state the run left, rolled-back work gone and what followed it intact.
fn rollback_crash_point(txns: u32, target: CrashTarget) {
    let db = run_with_rollbacks(txns, SEED);
    let expected = dump(&db);
    crash(&db, target);
    assert_eq!(
        expected,
        dump(&db),
        "{txns} txns with rollbacks ({target:?}): restart changed committed state"
    );
    // Restart is idempotent over the same trail.
    crash(&db, target);
    assert_eq!(expected, dump(&db), "{txns} txns: second restart differs");
}

#[test]
fn rolled_back_work_stays_out_and_later_commits_stay_in() {
    // 6: one rollback and the commit after it; 11 and 13: more of them,
    // ending on a commit after a rollback and mid-way between two.
    for txns in [6, 11, 13] {
        rollback_crash_point(txns, CrashTarget::DataCpu);
    }
    rollback_crash_point(11, CrashTarget::Both);
}

#[test]
fn smoke_sweep_small_crash_points() {
    for i in [0, 1, 3] {
        crash_point(i, false, CrashTarget::DataCpu, SEED);
        crash_point(i, true, CrashTarget::DataCpu, SEED);
    }
    crash_point(2, true, CrashTarget::Both, SEED);
}

#[test]
fn audit_cpu_crash_preserves_committed_state() {
    // Crashing the trail's own CPU settles + truncates any torn tail;
    // committed work is durable because commit waits for the flush.
    for i in [1, 4] {
        crash_point(i, false, CrashTarget::AuditCpu, SEED);
        crash_point(i, true, CrashTarget::AuditCpu, SEED);
    }
}

#[test]
fn recovery_counters_account_for_the_replay() {
    use nsql_sim::{Ctr, EntityKind, MeasureReport};
    let (db, _bank, _rng) = run_to(5, SEED);
    let before = db.sim.now();
    db.crash_and_restart(0, 1);
    let m = MeasureReport::capture(&db.sim).snap;
    let scanned = m.get(EntityKind::Process, "$DATA1", Ctr::RecoveryScanned);
    let redo = m.get(EntityKind::Process, "$DATA1", Ctr::RecoveryRedo);
    assert!(scanned > 0, "restart must scan the durable trail");
    assert!(redo > 0, "five committed txns must produce REDO work");
    assert!(redo <= scanned, "cannot redo more records than scanned");
    // Replay is charged to virtual time under the restart wait category.
    assert!(db.sim.now() > before, "recovery must consume virtual time");
}

#[test]
fn per_seed_determinism_across_identical_sweeps() {
    // Two sweeps from the same seed must land on byte-identical state at
    // every crash point; a different seed must diverge (the witness is
    // not vacuous).
    for i in [1, 3] {
        let a = crash_point(i, true, CrashTarget::DataCpu, SEED);
        let b = crash_point(i, true, CrashTarget::DataCpu, SEED);
        assert_eq!(a, b, "seed {SEED:#x} crash point {i} not deterministic");
    }
    let a = crash_point(3, false, CrashTarget::DataCpu, SEED);
    let c = crash_point(3, false, CrashTarget::DataCpu, SEED ^ 1);
    assert_ne!(a, c, "different seeds should produce different histories");
}

#[test]
fn money_is_conserved_across_restart() {
    let (db, bank, _rng) = run_to(8, SEED);
    let before = bank.total_balance(&db).unwrap();
    db.crash_and_restart(0, 1);
    let after = bank.total_balance(&db).unwrap();
    assert_eq!(before.to_bits(), after.to_bits(), "balance drift");
}

/// The exhaustive sweep: every commit boundary from 0 to FULL_SWEEP, with
/// and without an in-flight loser, against every crash target. Run by the
/// `restart-sweep` CI job via `--include-ignored`.
#[test]
#[ignore = "exhaustive; run via the restart-sweep CI job (--include-ignored)"]
fn full_sweep_every_durable_lsn_boundary() {
    const FULL_SWEEP: u32 = 12;
    for target in [
        CrashTarget::DataCpu,
        CrashTarget::AuditCpu,
        CrashTarget::Both,
    ] {
        for i in 0..=FULL_SWEEP {
            crash_point(i, false, target, SEED);
            crash_point(i, true, target, SEED);
        }
        for txns in 5..=2 * FULL_SWEEP {
            rollback_crash_point(txns, target);
        }
    }
}
