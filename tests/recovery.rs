//! Crash-recovery and fault-tolerance scenarios across the whole stack.

use nonstop_sql::sim::{format_sequence, TraceEventKind};
use nonstop_sql::{Cluster, ClusterBuilder, DiskProcessConfig, Fault, FaultConfig};
use nsql_records::Value;

fn db_with_table() -> Cluster {
    let db = ClusterBuilder::new()
        .volume("$DATA1", 0, 1)
        .volume("$DATA2", 0, 2)
        .build();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE T (K INT NOT NULL, V INT NOT NULL, PRIMARY KEY (K)) \
         PARTITION BY VALUES (100) ON ('$DATA1', '$DATA2')",
    )
    .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for k in 0..200 {
        s.execute(&format!("INSERT INTO T VALUES ({k}, {k})"))
            .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();
    drop(s);
    db
}

#[test]
fn crash_preserves_every_committed_row() {
    let db = db_with_table();
    db.crash_and_recover_all();
    let mut s = db.session();
    let r = s.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(200));
    // Spot-check values on both partitions.
    for k in [0, 99, 100, 199] {
        let r = s.query(&format!("SELECT V FROM T WHERE K = {k}")).unwrap();
        assert_eq!(r.rows[0].0[0], Value::Int(k));
    }
}

#[test]
fn crash_undoes_distributed_in_flight_txn() {
    let db = db_with_table();
    let mut s = db.session();
    // A transaction touching BOTH partitions, not committed.
    s.execute("BEGIN WORK").unwrap();
    s.execute("UPDATE T SET V = -1 WHERE K = 50").unwrap(); // $DATA1
    s.execute("UPDATE T SET V = -1 WHERE K = 150").unwrap(); // $DATA2
    db.crash_and_recover_all();

    let mut s2 = db.session();
    for k in [50, 150] {
        let r = s2.query(&format!("SELECT V FROM T WHERE K = {k}")).unwrap();
        assert_eq!(r.rows[0].0[0], Value::Int(k), "partition holding {k}");
    }
}

#[test]
fn repeated_crashes_are_idempotent() {
    let db = db_with_table();
    let mut s = db.session();
    s.execute("UPDATE T SET V = 999 WHERE K = 7").unwrap();
    for _ in 0..3 {
        db.crash_and_recover_all();
    }
    let mut s2 = db.session();
    let r = s2.query("SELECT V FROM T WHERE K = 7").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(999));
    let r = s2.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(200));
}

#[test]
fn work_after_recovery_continues_cleanly() {
    let db = db_with_table();
    db.crash_and_recover_all();
    let mut s = db.session();
    s.execute("INSERT INTO T VALUES (500, 500)").unwrap();
    s.execute("DELETE FROM T WHERE K < 10").unwrap();
    db.crash_and_recover_all();
    let mut s2 = db.session();
    let r = s2.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(200 - 10 + 1));
}

#[test]
fn takeover_with_secondary_index_stays_consistent() {
    let db = ClusterBuilder::new()
        .volume("$DATA1", 0, 1)
        .volume("$IDX", 0, 2)
        .build();
    let mut s = db.session();
    s.execute("CREATE TABLE E (ID INT NOT NULL, DEPT INT NOT NULL, PRIMARY KEY (ID))")
        .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for i in 0..50 {
        s.execute(&format!("INSERT INTO E VALUES ({i}, {})", i % 5))
            .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();
    s.execute("CREATE INDEX E_DEPT ON E (DEPT) ON '$IDX'")
        .unwrap();

    // Fail the base volume's CPU; index volume unaffected.
    db.takeover("$DATA1", 0, 3);
    let r = s.query("SELECT ID FROM E WHERE DEPT = 2").unwrap();
    assert_eq!(r.rows.len(), 10);
    // Updates still maintain the index after takeover.
    s.execute("UPDATE E SET DEPT = 4 WHERE ID = 2").unwrap();
    let r = s.query("SELECT COUNT(*) FROM E WHERE DEPT = 2").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(9));
    let r = s.query("SELECT COUNT(*) FROM E WHERE DEPT = 4").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(11));
}

#[test]
fn commit_is_durable_exactly_at_group_commit() {
    // A committed transaction survives a crash even if data pages never
    // flushed (the audit trail is the durability anchor).
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    let mut s = db.session();
    s.execute("CREATE TABLE T (K INT NOT NULL, PRIMARY KEY (K))")
        .unwrap();
    s.execute("INSERT INTO T VALUES (1)").unwrap();
    // No explicit flush of the data volume: crash now.
    db.crash_and_recover_all();
    let mut s2 = db.session();
    let r = s2.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(
        r.rows[0].0[0],
        Value::LargeInt(1),
        "committed insert must be redone from the trail"
    );
}

#[test]
fn takeover_mid_transaction_dooms_the_in_flight_txn() {
    // TMF's CPU-failure rule: a transaction whose uncommitted writes died
    // with a crashed Disk Process cannot commit — recovery already undid
    // them. Commit turns into an abort; the database stays consistent and
    // new work proceeds on the backup.
    let db = ClusterBuilder::new()
        .volume_with_backup("$DATA1", 0, 1, 0, 3)
        .build();
    let mut s = db.session();
    s.execute("CREATE TABLE T (K INT NOT NULL, V INT NOT NULL, PRIMARY KEY (K))")
        .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for k in 0..20 {
        s.execute(&format!("INSERT INTO T VALUES ({k}, {k})"))
            .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();

    s.execute("BEGIN WORK").unwrap();
    s.execute("UPDATE T SET V = -1 WHERE K = 5").unwrap();
    db.takeover("$DATA1", 0, 3);
    let err = s.execute("COMMIT WORK").unwrap_err();
    assert!(
        err.to_string().contains("doomed"),
        "commit after mid-txn takeover must fail, got: {err}"
    );

    // The update never became visible and the volume serves new work.
    let mut s2 = db.session();
    let r = s2.query("SELECT V FROM T WHERE K = 5").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(5));
    s2.execute("UPDATE T SET V = 77 WHERE K = 5").unwrap();
    let r = s2.query("SELECT V FROM T WHERE K = 5").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(77));
}

#[test]
fn takeover_mid_scan_completes_with_correct_rows() {
    // A Disk Process CPU fails in the middle of a VSBB scan's re-drive
    // chain. The File System retries, the path-switch hook brings the
    // backup up, the rebuilt Subset Control Block resumes after the last
    // confirmed key — and the SQL caller sees exactly the committed rows.
    let db = ClusterBuilder::new()
        .dp_config(DiskProcessConfig {
            max_records_per_request: 10,
            ..Default::default()
        })
        .volume_with_backup("$DATA1", 0, 1, 0, 3)
        .build();
    let mut s = db.session();
    s.execute("CREATE TABLE T (K INT NOT NULL, V INT NOT NULL, PRIMARY KEY (K))")
        .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for k in 0..100 {
        s.execute(&format!("INSERT INTO T VALUES ({k}, {k})"))
            .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();

    db.sim.trace.enable_default();
    let cursor = db.sim.trace.cursor();
    // The 5th eligible FS-DP exchange (mid re-drive chain) crashes the
    // primary's CPU.
    db.enable_faults(FaultConfig {
        at: vec![(4, Fault::DownTarget)],
        ..FaultConfig::with_seed(1)
    });
    let r = s.query("SELECT K FROM T").unwrap();
    db.disable_faults();

    // Exactly the committed row set: every key once, in order.
    assert_eq!(r.rows.len(), 100);
    for (i, row) in r.rows.iter().enumerate() {
        assert_eq!(row.0[0], Value::Int(i as i32));
    }

    // The trace records both halves of the switch: the bus-level takeover
    // and the SCB rebuild that resumed the chain.
    let events = db.sim.trace.since(cursor);
    assert!(
        events
            .iter()
            .any(|e| matches!(&e.kind, TraceEventKind::PathSwitch { resumed: false, .. })),
        "trace must record the path switch"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(&e.kind, TraceEventKind::PathSwitch { resumed: true, .. })),
        "trace must record the resumed re-drive"
    );
    let rendered = format_sequence(&events);
    assert!(
        rendered.contains("path switch"),
        "renderer shows the switch"
    );
    assert!(db.snapshot().path_switches >= 1);
}

#[test]
fn pushed_group_by_is_exact_across_takeover_and_duplicated_redrive() {
    // Each request of an aggregate folded at the source replies with the
    // partial groups of exactly the records it folded. A takeover mid-chain
    // rebuilds the Subset Control Block after the last confirmed key, and
    // a duplicated or retransmitted re-drive is answered from the reply
    // cache: no record is folded twice or lost, and the groups are exact.
    let sql = "SELECT G, COUNT(*) AS N, SUM(V) AS S, MIN(V) AS LO, MAX(V) AS HI \
               FROM T GROUP BY G";
    for fault in [Fault::DownTarget, Fault::Duplicate, Fault::DropReply] {
        let db = ClusterBuilder::new()
            .dp_config(DiskProcessConfig {
                max_records_per_request: 10,
                ..Default::default()
            })
            .volume_with_backup("$DATA1", 0, 1, 0, 3)
            .build();
        let mut s = db.session();
        s.execute("CREATE TABLE T (K INT NOT NULL, G INT NOT NULL, V INT, PRIMARY KEY (K))")
            .unwrap();
        s.execute("BEGIN WORK").unwrap();
        for k in 0..100 {
            let g = (k * 5) % 7;
            s.execute(&format!("INSERT INTO T VALUES ({k}, {g}, {k})"))
                .unwrap();
        }
        s.execute("COMMIT WORK").unwrap();
        let plan = format!("{:?}", s.query(&format!("EXPLAIN {sql}")).unwrap());
        assert!(plan.contains("SCAN T with AGGREGATE at DP"), "{plan}");
        let expected = s.query(&format!("{sql} FOR BROWSE RECORD ACCESS")).unwrap();
        assert_eq!(expected.rows.len(), 7);

        let before = db.snapshot();
        // The 5th eligible exchange is a re-drive in mid-chain.
        db.enable_faults(FaultConfig {
            at: vec![(4, fault)],
            ..FaultConfig::with_seed(1)
        });
        let r = s.query(sql).unwrap();
        db.disable_faults();
        assert_eq!(r, expected, "{fault:?}");
        let after = db.snapshot();
        match fault {
            Fault::DownTarget => assert!(after.path_switches > before.path_switches),
            _ => assert!(
                after.dp_dup_suppressed > before.dp_dup_suppressed,
                "{fault:?} answered from the reply cache"
            ),
        }
    }
}

#[test]
fn media_recovery_rebuilds_a_dead_unmirrored_volume_from_the_trail() {
    let db = ClusterBuilder::new()
        .volume_unmirrored("$DATA1", 0, 1)
        .build();
    let mut s = db.session();
    s.execute("CREATE TABLE T (K INT NOT NULL, V INT NOT NULL, PRIMARY KEY (K))")
        .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for k in 0..50 {
        s.execute(&format!("INSERT INTO T VALUES ({k}, {k})"))
            .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();
    s.execute("UPDATE T SET V = 123 WHERE K = 7").unwrap();
    s.execute("DELETE FROM T WHERE K = 49").unwrap();
    // An in-flight loser at the moment the media dies: its changes must
    // not reappear on the rebuilt store.
    s.execute("BEGIN WORK").unwrap();
    s.execute("UPDATE T SET V = -1 WHERE K = 3").unwrap();

    db.disk("$DATA1").fail_drive(0);
    db.media_recover("$DATA1").unwrap();

    let mut s2 = db.session();
    let r = s2.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(49));
    let r = s2.query("SELECT V FROM T WHERE K = 7").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(123));
    let r = s2.query("SELECT V FROM T WHERE K = 3").unwrap();
    assert_eq!(
        r.rows[0].0[0],
        Value::Int(3),
        "loser redone onto fresh store"
    );
    // The volume serves new committed work after the rebuild.
    s2.execute("INSERT INTO T VALUES (100, 100)").unwrap();
    let r = s2.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(50));
}

#[test]
fn mirrored_repair_remirrors_with_cost_and_trace() {
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    let mut s = db.session();
    s.execute("CREATE TABLE T (K INT NOT NULL, PRIMARY KEY (K))")
        .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for k in 0..100 {
        s.execute(&format!("INSERT INTO T VALUES ({k})")).unwrap();
    }
    s.execute("COMMIT WORK").unwrap();
    db.dp("$DATA1").pool().flush_all().unwrap();

    // Lose one half; service continues on the survivor.
    db.disk("$DATA1").fail_drive(1);
    let r = s.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(100));

    db.sim.trace.enable_default();
    let cursor = db.sim.trace.cursor();
    let waits_before = db.sim.clock.profile();
    let before = db.sim.now();
    db.media_recover("$DATA1").unwrap();

    // The copy-back charged virtual time, attributed to restart waiting.
    assert!(db.sim.now() > before, "re-mirror must consume virtual time");
    let delta = db.sim.clock.profile() - waits_before;
    assert_eq!(
        delta.get(nonstop_sql::sim::Wait::Restart),
        db.sim.now() - before,
        "copy-back time is attributed to wait.restart"
    );
    let events = db.sim.trace.since(cursor);
    let remirror = events
        .iter()
        .find_map(|e| match &e.kind {
            TraceEventKind::Remirror { volume, blocks } => Some((volume.clone(), *blocks)),
            _ => None,
        })
        .expect("repair must emit a disk.remirror trace event");
    assert_eq!(remirror.0, "$DATA1");
    assert!(remirror.1 > 0, "allocated blocks were copied back");
    assert!(format_sequence(&events).contains("disk.remirror"));

    // Data intact and writable afterwards.
    let mut s2 = db.session();
    let r = s2.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(100));
    s2.execute("INSERT INTO T VALUES (500)").unwrap();
}

#[test]
fn aborted_txn_stays_aborted_across_crash() {
    let db = db_with_table();
    let mut s = db.session();
    s.execute("BEGIN WORK").unwrap();
    s.execute("UPDATE T SET V = -5 WHERE K = 20").unwrap();
    s.execute("ROLLBACK WORK").unwrap();
    db.crash_and_recover_all();
    let mut s2 = db.session();
    let r = s2.query("SELECT V FROM T WHERE K = 20").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(20));
}

/// One volume on CPU (0,1), `T (K, V)` holding `(k, 10)` for each of `keys`.
fn db_with_rows(keys: &[i32]) -> Cluster {
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    let mut s = db.session();
    s.execute("CREATE TABLE T (K INT NOT NULL, V INT NOT NULL, PRIMARY KEY (K))")
        .unwrap();
    for k in keys {
        s.execute(&format!("INSERT INTO T VALUES ({k}, 10)"))
            .unwrap();
    }
    drop(s);
    db
}

fn v_of(db: &Cluster, k: i32) -> Value {
    let mut s = db.session();
    let r = s.query(&format!("SELECT V FROM T WHERE K = {k}")).unwrap();
    r.rows[0].0[0].clone()
}

#[test]
fn committed_update_after_an_abort_on_the_same_key_survives_restart() {
    // The aborted update's before-image (10) must go in before the later
    // committed update is redone, not after the whole redo pass.
    let db = db_with_rows(&[1]);
    let mut s = db.session();
    s.execute("BEGIN WORK").unwrap();
    s.execute("UPDATE T SET V = 20 WHERE K = 1").unwrap();
    s.execute("ROLLBACK WORK").unwrap();
    s.execute("UPDATE T SET V = 30 WHERE K = 1").unwrap();
    db.crash_and_restart(0, 1);
    assert_eq!(v_of(&db, 1), Value::Int(30));
    // ... and a second restart replays the same trail to the same state.
    db.crash_and_restart(0, 1);
    assert_eq!(v_of(&db, 1), Value::Int(30));
}

#[test]
fn a_doomed_txn_is_backed_out_where_it_stopped_not_where_its_abort_record_is() {
    // T1's update is on the trail (T2's commit carried it there) when the
    // Disk Process dies; restart backs it out and dooms T1. T3 then commits
    // a change to the same row, and only afterwards does T1's client learn
    // its fate — so T1's abort record lands *after* T3's commit. A second
    // restart must still replay T1's backout ahead of T3's update.
    let db = db_with_rows(&[1, 2]);
    let mut s1 = db.session();
    let mut s2 = db.session();
    s1.execute("BEGIN WORK").unwrap();
    s1.execute("UPDATE T SET V = 20 WHERE K = 1").unwrap();
    s2.execute("UPDATE T SET V = 11 WHERE K = 2").unwrap();
    db.crash_and_restart(0, 1);
    assert_eq!(v_of(&db, 1), Value::Int(10), "in-flight update undone");

    s2.execute("UPDATE T SET V = 30 WHERE K = 1").unwrap();
    let err = s1.execute("COMMIT WORK").unwrap_err();
    assert!(err.to_string().contains("doomed"), "{err}");
    assert_eq!(v_of(&db, 1), Value::Int(30));

    db.crash_and_restart(0, 1);
    assert_eq!(
        v_of(&db, 1),
        Value::Int(30),
        "late abort record clobbered T3"
    );
    assert_eq!(v_of(&db, 2), Value::Int(11));
}

/// `BEGIN; INSERT (1,99)` over an existing row 1, then an update of row 2.
/// Returns the session with the transaction still open, and how many audit
/// records the refused INSERT generated.
fn refused_insert_then_update(db: &Cluster) -> (nonstop_sql::Session<'_>, u64) {
    let mut s = db.session();
    s.execute("BEGIN WORK").unwrap();
    let before = db.snapshot();
    let err = s.execute("INSERT INTO T VALUES (1, 99)").unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");
    let logged = (db.snapshot() - before).audit_records;
    s.execute("UPDATE T SET V = 11 WHERE K = 2").unwrap();
    (s, logged)
}

#[test]
fn refused_insert_is_not_redone_for_a_winner() {
    // Logged before the B-tree could refuse it, the phantom image (1,99)
    // used to be REDOne over the existing row.
    let db = db_with_rows(&[1, 2]);
    let (mut s, logged) = refused_insert_then_update(&db);
    s.execute("COMMIT WORK").unwrap();
    db.crash_and_restart(0, 1);
    assert_eq!(v_of(&db, 1), Value::Int(10));
    assert_eq!(v_of(&db, 2), Value::Int(11));
    assert_eq!(logged, 0, "a refused INSERT must not be logged");
}

#[test]
fn refused_insert_is_not_undone_for_a_loser() {
    // ... and for a loser, UNDO of the phantom insert deleted the row that
    // was there all along.
    let db = db_with_rows(&[1, 2, 3]);
    let (_in_flight, logged) = refused_insert_then_update(&db);
    // Another transaction's commit carries the loser's audit to the trail.
    db.session()
        .execute("UPDATE T SET V = 12 WHERE K = 3")
        .unwrap();
    db.crash_and_restart(0, 1);
    let mut s = db.session();
    let r = s.query("SELECT K, V FROM T").unwrap();
    let rows: Vec<_> = r.rows.into_iter().map(|row| row.0).collect();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(10)],
            vec![Value::Int(3), Value::Int(12)],
        ]
    );
    assert_eq!(logged, 0, "a refused INSERT must not be logged");
}
