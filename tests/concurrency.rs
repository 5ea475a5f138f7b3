//! Concurrency and isolation across sessions.

use nonstop_sql::{Cluster, ClusterBuilder};
use nsql_records::Value;

fn db_with_rows(n: i32) -> Cluster {
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    let mut s = db.session();
    s.execute("CREATE TABLE T (K INT NOT NULL, V INT NOT NULL, PRIMARY KEY (K))")
        .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for k in 0..n {
        s.execute(&format!("INSERT INTO T VALUES ({k}, 0)"))
            .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();
    drop(s);
    db
}

#[test]
fn writers_on_different_records_interleave() {
    let db = db_with_rows(10);
    let mut s1 = db.session();
    let mut s2 = db.session_on(0, 2);
    s1.execute("BEGIN WORK").unwrap();
    s2.execute("BEGIN WORK").unwrap();
    s1.execute("UPDATE T SET V = 1 WHERE K = 1").unwrap();
    s2.execute("UPDATE T SET V = 2 WHERE K = 2").unwrap();
    s1.execute("COMMIT WORK").unwrap();
    s2.execute("COMMIT WORK").unwrap();
    let mut s3 = db.session();
    let r = s3
        .query("SELECT V FROM T WHERE K IN (1, 2) ORDER BY K")
        .unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(1));
    assert_eq!(r.rows[1].0[0], Value::Int(2));
}

#[test]
fn writer_blocked_until_commit_releases() {
    let db = db_with_rows(5);
    let mut s1 = db.session();
    s1.execute("BEGIN WORK").unwrap();
    s1.execute("UPDATE T SET V = 7 WHERE K = 3").unwrap();

    let mut s2 = db.session_on(0, 2);
    s2.execute("BEGIN WORK").unwrap();
    assert!(s2.execute("UPDATE T SET V = 8 WHERE K = 3").is_err());
    // Strict two-phase locking: the conflict persists until s1 ends.
    assert!(s2.execute("UPDATE T SET V = 8 WHERE K = 3").is_err());
    s1.execute("COMMIT WORK").unwrap();
    s2.execute("UPDATE T SET V = 8 WHERE K = 3").unwrap();
    s2.execute("COMMIT WORK").unwrap();
    let mut s3 = db.session();
    let r = s3.query("SELECT V FROM T WHERE K = 3").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(8));
}

#[test]
fn locking_read_blocks_writer_browse_does_not() {
    let db = db_with_rows(20);
    // A transactional (locking) reader scans K <= 10.
    let mut reader = db.session();
    reader.execute("BEGIN WORK").unwrap();
    let r = reader.query("SELECT V FROM T WHERE K <= 10").unwrap();
    assert_eq!(r.rows.len(), 11);

    // A writer inside the scanned span blocks (virtual-block group lock)...
    let mut writer = db.session_on(0, 2);
    writer.execute("BEGIN WORK").unwrap();
    let err = writer
        .execute("UPDATE T SET V = 1 WHERE K = 5")
        .unwrap_err();
    assert!(err.0.contains("locked"), "{err}");
    // ... but outside the span it proceeds.
    writer.execute("UPDATE T SET V = 1 WHERE K = 15").unwrap();
    writer.execute("ROLLBACK WORK").unwrap();
    reader.execute("COMMIT WORK").unwrap();

    // A browsing (non-transactional) reader takes no locks at all.
    let mut w2 = db.session_on(0, 3);
    w2.execute("BEGIN WORK").unwrap();
    w2.execute("UPDATE T SET V = 9 WHERE K = 5").unwrap();
    let mut browse = db.session_on(0, 4);
    let r = browse.query("SELECT V FROM T WHERE K = 5").unwrap();
    // Browse access reads uncommitted data (ENSCRIBE-style dirty read).
    assert_eq!(r.rows[0].0[0], Value::Int(9));
    w2.execute("ROLLBACK WORK").unwrap();
}

#[test]
fn lost_update_prevented() {
    // Two debit transactions against one record must serialize: no lost
    // update under strict 2PL.
    let db = db_with_rows(1);
    let mut s1 = db.session();
    let mut s2 = db.session_on(0, 2);

    s1.execute("BEGIN WORK").unwrap();
    s1.execute("UPDATE T SET V = V + 10 WHERE K = 0").unwrap();
    s2.execute("BEGIN WORK").unwrap();
    // s2's read-modify-write cannot begin until s1 commits.
    assert!(s2.execute("UPDATE T SET V = V + 5 WHERE K = 0").is_err());
    s1.execute("COMMIT WORK").unwrap();
    s2.execute("UPDATE T SET V = V + 5 WHERE K = 0").unwrap();
    s2.execute("COMMIT WORK").unwrap();

    let mut s3 = db.session();
    let r = s3.query("SELECT V FROM T WHERE K = 0").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(15), "both increments applied");
}

#[test]
fn inserts_into_distinct_ranges_coexist_with_blocked_insert_lock() {
    use nsql_fs::BlockedInserter;

    let db = db_with_rows(0);
    let info = db.catalog.table("T").unwrap();
    let s1 = db.session();
    let s2 = db.session_on(0, 2);

    // Txn 1 blocked-inserts keys 0..100 (locking that range as a group);
    // txn 2 inserts above it concurrently.
    let t1 = db.txnmgr.begin();
    let t2 = db.txnmgr.begin();
    {
        let mut ins = BlockedInserter::new(s1.fs(), &info.open, t1);
        for k in 0..100 {
            ins.push(&[Value::Int(k), Value::Int(0)]).unwrap();
        }
        ins.flush().unwrap();
    }
    s2.fs()
        .insert_row(t2, &info.open, &[Value::Int(500), Value::Int(0)])
        .unwrap();
    // A conflicting insert inside txn 1's locked range fails.
    let err = s2
        .fs()
        .insert_row(t2, &info.open, &[Value::Int(50), Value::Int(0)])
        .unwrap_err();
    assert!(matches!(
        err,
        nsql_fs::FsError::Dp(nsql_dp::DpError::Locked { .. })
    ));
    db.txnmgr.commit(t1, s1.cpu()).unwrap();
    db.txnmgr.commit(t2, s2.cpu()).unwrap();

    let mut s3 = db.session();
    let r = s3.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(101));
}

#[test]
fn deadlock_detection_via_waits_for() {
    // The lock manager's waits-for graph catches a cycle when the Disk
    // Process declares waits (driven directly here): each queues for the
    // file the other holds.
    let db = db_with_rows(2);
    let dp = db.dp("$DATA1");
    let (a, b) = (db.txnmgr.begin(), db.txnmgr.begin());
    let wait = |waiter, holder| {
        let file = nsql_lock::ScopeRef::File;
        let mode = nsql_lock::LockMode::Exclusive;
        dp.locks.wait(waiter, holder, 0, file, mode, 0)
    };
    wait(a, b).unwrap();
    let err = wait(b, a).unwrap_err();
    assert!(matches!(err, nsql_lock::LockError::Deadlock { victim } if victim == b));
    assert_eq!(dp.locks.waiting_count(), 1, "the victim left the queue");
    db.txnmgr.abort(b, db.session().cpu()).unwrap();
    db.txnmgr.abort(a, db.session().cpu()).unwrap();
}

#[test]
fn deadlock_victim_chosen_at_the_disk_process() {
    // Classic two-transaction deadlock: s1 holds K=1 and wants K=2; s2
    // holds K=2 and wants K=1. The Disk Process's waits-for graph picks
    // the second waiter as the victim.
    let db = db_with_rows(3);
    let mut s1 = db.session();
    let mut s2 = db.session_on(0, 2);
    s1.execute("BEGIN WORK").unwrap();
    s2.execute("BEGIN WORK").unwrap();
    s1.execute("UPDATE T SET V = 1 WHERE K = 1").unwrap();
    s2.execute("UPDATE T SET V = 2 WHERE K = 2").unwrap();

    // s1 wants K=2: conflict, wait edge s1 -> s2 recorded.
    let e1 = s1.execute("UPDATE T SET V = 1 WHERE K = 2").unwrap_err();
    assert!(e1.0.contains("locked"), "{e1}");
    // s2 wants K=1: closes the cycle -> s2 is the deadlock victim.
    let e2 = s2.execute("UPDATE T SET V = 2 WHERE K = 1").unwrap_err();
    assert!(e2.0.contains("deadlock"), "{e2}");
    assert!(db.snapshot().deadlocks >= 1);

    // The victim rolls back; the survivor retries and completes.
    s2.execute("ROLLBACK WORK").unwrap();
    s1.execute("UPDATE T SET V = 1 WHERE K = 2").unwrap();
    s1.execute("COMMIT WORK").unwrap();
    let mut s3 = db.session();
    let r = s3.query("SELECT V FROM T WHERE K = 2").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(1));
}

#[test]
fn convoy_waiters_are_granted_in_fifo_order() {
    // T1 holds K=1; s2 then s3 queue behind it. The lock manager's FIFO
    // waiter queue means s3 cannot overtake s2 when T1 releases: its
    // retry bounces off the queued waiter ahead, not off a held lock.
    let db = db_with_rows(5);
    let mut s1 = db.session();
    let mut s2 = db.session_on(0, 2);
    let mut s3 = db.session_on(0, 3);
    s1.execute("BEGIN WORK").unwrap();
    s2.execute("BEGIN WORK").unwrap();
    s3.execute("BEGIN WORK").unwrap();
    s1.execute("UPDATE T SET V = 1 WHERE K = 1").unwrap();
    assert!(s2.execute("UPDATE T SET V = 2 WHERE K = 1").is_err());
    assert!(s3.execute("UPDATE T SET V = 3 WHERE K = 1").is_err());

    s1.execute("COMMIT WORK").unwrap();
    // The lock is free, but s3 arrived after s2: fairness bounces it.
    assert!(
        s3.execute("UPDATE T SET V = 3 WHERE K = 1").is_err(),
        "s3 must not overtake the earlier waiter s2"
    );
    // The head of the queue gets the grant...
    s2.execute("UPDATE T SET V = 2 WHERE K = 1").unwrap();
    // ...and s3 keeps waiting behind the new holder until it commits.
    assert!(s3.execute("UPDATE T SET V = 3 WHERE K = 1").is_err());
    s2.execute("COMMIT WORK").unwrap();
    s3.execute("UPDATE T SET V = 3 WHERE K = 1").unwrap();
    s3.execute("COMMIT WORK").unwrap();

    let mut s = db.session();
    let r = s.query("SELECT V FROM T WHERE K = 1").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(3));
}

#[test]
fn three_transaction_cycle_dooms_exactly_the_youngest() {
    use nsql_sim::{Ctr, EntityKind, MeasureReport};
    // A three-party cycle s1 -> s2 -> s3 -> s1 closed by s2 (not by the
    // youngest): the Disk Process dooms the youngest member (s3), the
    // closer keeps waiting, and both survivors run to commit.
    let db = db_with_rows(5);
    let mut s1 = db.session();
    let mut s2 = db.session_on(0, 2);
    let mut s3 = db.session_on(0, 3);
    s1.execute("BEGIN WORK").unwrap();
    s2.execute("BEGIN WORK").unwrap();
    s3.execute("BEGIN WORK").unwrap();
    s1.execute("UPDATE T SET V = 1 WHERE K = 1").unwrap();
    s2.execute("UPDATE T SET V = 2 WHERE K = 2").unwrap();
    s3.execute("UPDATE T SET V = 3 WHERE K = 3").unwrap();

    let before = MeasureReport::capture(&db.sim);
    // Two wait edges, no cycle yet.
    let e = s3.execute("UPDATE T SET V = 3 WHERE K = 1").unwrap_err();
    assert!(e.0.contains("locked"), "{e}");
    let e = s1.execute("UPDATE T SET V = 1 WHERE K = 2").unwrap_err();
    assert!(e.0.contains("locked"), "{e}");
    // s2 closes the cycle. It is not the youngest, so it is spared: the
    // statement reports the lock as still held while s3 is doomed.
    let e = s2.execute("UPDATE T SET V = 2 WHERE K = 3").unwrap_err();
    assert!(e.0.contains("locked"), "{e}");

    let d = MeasureReport::capture(&db.sim).since(&before).snap;
    assert_eq!(
        d.get(EntityKind::Process, "$DATA1", Ctr::DeadlockDetected),
        1,
        "exactly one cycle"
    );
    assert_eq!(
        d.get(EntityKind::Process, "$DATA1", Ctr::DeadlockVictims),
        1,
        "exactly one victim"
    );

    // The victim finds out on its next request and rolls back.
    let e = s3.execute("UPDATE T SET V = 3 WHERE K = 3").unwrap_err();
    assert!(e.0.contains("deadlock"), "{e}");
    s3.execute("ROLLBACK WORK").unwrap();

    // The survivors drain in queue order and commit.
    s2.execute("UPDATE T SET V = 2 WHERE K = 3").unwrap();
    s2.execute("COMMIT WORK").unwrap();
    s1.execute("UPDATE T SET V = 1 WHERE K = 2").unwrap();
    s1.execute("COMMIT WORK").unwrap();

    let mut s = db.session();
    let r = s
        .query("SELECT V FROM T WHERE K IN (1, 2, 3) ORDER BY K")
        .unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(1));
    assert_eq!(r.rows[1].0[0], Value::Int(1)); // s1 won K=2 after s2 released
    assert_eq!(r.rows[2].0[0], Value::Int(2)); // s2 won K=3 after the victim died
}
