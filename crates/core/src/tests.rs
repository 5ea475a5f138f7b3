//! Facade tests: sessions, transactions, fault tolerance at cluster level.

use super::*;
use nsql_records::Value;

fn two_node_cluster() -> Cluster {
    ClusterBuilder::new()
        .volume("$DATA1", 0, 1)
        .volume("$DATA2", 0, 2)
        .volume("$REMOTE", 1, 0)
        .build()
}

#[test]
fn quickstart_flow() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE EMP (EMPNO INT NOT NULL, NAME CHAR(12) NOT NULL, \
         SALARY DOUBLE, PRIMARY KEY (EMPNO))",
    )
    .unwrap();
    assert_eq!(
        s.execute("INSERT INTO EMP VALUES (1, 'BORR', 90000), (2, 'PUTZOLU', 91000)")
            .unwrap()
            .count(),
        2
    );
    let r = s
        .query("SELECT NAME FROM EMP WHERE SALARY > 90500")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].0[0], Value::Str("PUTZOLU".into()));
}

#[test]
fn explicit_transaction_commit_and_rollback() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute("CREATE TABLE T (A INT NOT NULL, B INT, PRIMARY KEY (A))")
        .unwrap();

    s.execute("BEGIN WORK").unwrap();
    s.execute("INSERT INTO T VALUES (1, 10)").unwrap();
    s.execute("INSERT INTO T VALUES (2, 20)").unwrap();
    // Uncommitted data visible within the transaction...
    let r = s.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(2));
    s.execute("COMMIT WORK").unwrap();
    assert!(!s.in_txn());

    s.execute("BEGIN WORK").unwrap();
    s.execute("UPDATE T SET B = 99 WHERE A = 1").unwrap();
    s.execute("ROLLBACK WORK").unwrap();
    let r = s.query("SELECT B FROM T WHERE A = 1").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(10), "rollback undid the update");
}

#[test]
fn autocommit_failure_rolls_back() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute("CREATE TABLE P (ID INT NOT NULL, Q INT NOT NULL, PRIMARY KEY (ID), CHECK (Q >= 0))")
        .unwrap();
    s.execute("INSERT INTO P VALUES (1, 5)").unwrap();
    assert!(s.execute("UPDATE P SET Q = Q - 10").is_err());
    let r = s.query("SELECT Q FROM P WHERE ID = 1").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(5));
}

#[test]
fn distributed_table_across_nodes() {
    let db = two_node_cluster();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE BIG (K INT NOT NULL, V CHAR(8), PRIMARY KEY (K)) \
         PARTITION BY VALUES (100, 200) ON ('$DATA1', '$DATA2', '$REMOTE')",
    )
    .unwrap();
    for k in [50, 150, 250] {
        s.execute(&format!("INSERT INTO BIG VALUES ({k}, 'V{k}')"))
            .unwrap();
    }
    let before = db.snapshot();
    let r = s.query("SELECT K FROM BIG").unwrap();
    assert_eq!(r.rows.len(), 3);
    let d = db.snapshot() - before;
    assert!(d.msgs_remote >= 1, "the $REMOTE partition is on node 1");
}

#[test]
fn takeover_preserves_committed_data() {
    let db = two_node_cluster();
    let mut s = db.session();
    s.execute("CREATE TABLE T (A INT NOT NULL, PRIMARY KEY (A)) ON '$DATA1'")
        .unwrap();
    for i in 0..20 {
        s.execute(&format!("INSERT INTO T VALUES ({i})")).unwrap();
    }
    // Primary CPU dies; backup takes over on CPU 5.
    db.takeover("$DATA1", 0, 5);
    let r = s.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(20));
    // Writes keep working after takeover.
    s.execute("INSERT INTO T VALUES (100)").unwrap();
    let r = s.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(21));
}

#[test]
fn total_crash_recovers_committed_loses_uncommitted() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute("CREATE TABLE T (A INT NOT NULL, B INT, PRIMARY KEY (A))")
        .unwrap();
    for i in 0..10 {
        s.execute(&format!("INSERT INTO T VALUES ({i}, {i})"))
            .unwrap();
    }
    // Leave a transaction in flight at the crash.
    s.execute("BEGIN WORK").unwrap();
    s.execute("UPDATE T SET B = -1 WHERE A = 3").unwrap();
    s.execute("INSERT INTO T VALUES (99, 99)").unwrap();

    db.crash_and_recover_all();
    let mut s2 = db.session();
    let r = s2.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(10), "in-flight insert lost");
    let r = s2.query("SELECT B FROM T WHERE A = 3").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(3), "in-flight update undone");
}

#[test]
fn process_pair_checkpoints_flow() {
    let db = ClusterBuilder::new()
        .volume_with_backup("$DATA1", 0, 1, 0, 2)
        .build();
    let mut s = db.session();
    s.execute("CREATE TABLE T (A INT NOT NULL, PRIMARY KEY (A))")
        .unwrap();
    for i in 0..10 {
        s.execute(&format!("INSERT INTO T VALUES ({i})")).unwrap();
    }
    assert!(
        db.snapshot().msgs_checkpoint >= 10,
        "primary must checkpoint each change to its backup"
    );
}

#[test]
fn sessions_share_the_catalog() {
    let db = Cluster::single_volume();
    let mut s1 = db.session();
    s1.execute("CREATE TABLE SHARED (A INT NOT NULL, PRIMARY KEY (A))")
        .unwrap();
    s1.execute("INSERT INTO SHARED VALUES (7)").unwrap();
    let mut s2 = db.session_on(0, 3);
    let r = s2.query("SELECT A FROM SHARED").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(7));
}

#[test]
fn two_sessions_conflict_on_locks() {
    let db = Cluster::single_volume();
    let mut s1 = db.session();
    s1.execute("CREATE TABLE T (A INT NOT NULL, B INT, PRIMARY KEY (A))")
        .unwrap();
    s1.execute("INSERT INTO T VALUES (1, 0)").unwrap();

    s1.execute("BEGIN WORK").unwrap();
    s1.execute("UPDATE T SET B = 1 WHERE A = 1").unwrap();

    let mut s2 = db.session_on(0, 4);
    s2.execute("BEGIN WORK").unwrap();
    let err = s2.execute("UPDATE T SET B = 2 WHERE A = 1").unwrap_err();
    assert!(err.0.contains("locked"), "{err}");
    s2.execute("ROLLBACK WORK").unwrap();

    s1.execute("COMMIT WORK").unwrap();
    let mut s3 = db.session();
    let r = s3.query("SELECT B FROM T WHERE A = 1").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(1));
}

#[test]
fn session_errors() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    assert!(s.execute("COMMIT WORK").is_err(), "no open txn");
    assert!(s.execute("SELEC 1").is_err(), "parse error");
    s.execute("BEGIN WORK").unwrap();
    assert!(s.execute("BEGIN WORK").is_err(), "nested txn");
    s.execute("ROLLBACK").unwrap();
}

#[test]
fn explain_describes_plans() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE EMP (EMPNO INT NOT NULL, NAME CHAR(12) NOT NULL, \
         DEPT INT NOT NULL, SALARY DOUBLE, PRIMARY KEY (EMPNO))",
    )
    .unwrap();
    s.execute("INSERT INTO EMP VALUES (1, 'A', 1, 10.0)")
        .unwrap();
    s.execute("CREATE INDEX EMP_DEPT ON EMP (DEPT)").unwrap();

    let text = |sql: &str, s: &mut Session| -> String {
        s.query(sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| r.0[0].to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };

    let plan = text(
        "EXPLAIN SELECT NAME FROM EMP WHERE EMPNO <= 1000 AND SALARY > 32000",
        &mut s,
    );
    assert!(plan.contains("VSBB"), "{plan}");
    assert!(plan.contains("pushdown predicate"), "{plan}");
    assert!(plan.contains("upper-bounded key range"), "{plan}");

    let plan = text("EXPLAIN SELECT * FROM EMP", &mut s);
    assert!(plan.contains("RSBB"), "{plan}");

    let plan = text("EXPLAIN SELECT EMPNO, DEPT FROM EMP WHERE DEPT = 3", &mut s);
    assert!(plan.contains("INDEX SCAN"), "{plan}");
    assert!(plan.contains("index-only"), "{plan}");

    let plan = text(
        "EXPLAIN UPDATE EMP SET SALARY = SALARY * 1.07 WHERE SALARY > 0",
        &mut s,
    );
    assert!(plan.contains("UPDATE^SUBSET"), "{plan}");
    assert!(plan.contains("update expression"), "{plan}");

    // EMP has an index: its DELETE runs row at a time, and says so.
    let plan = text("EXPLAIN DELETE FROM EMP WHERE EMPNO = 5", &mut s);
    assert!(plan.contains("DELETE on EMP row at a time"), "{plan}");
}

#[test]
fn explain_names_the_row_at_a_time_write_that_runs() {
    // A write that changes an index needs each old row, so the File System
    // reads the rows and writes them one by one instead of one subset
    // conversation; EXPLAIN and EXPLAIN ANALYZE name the path that runs,
    // and the message counts are that path's.
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE EMP (EMPNO INT NOT NULL, NAME CHAR(12) NOT NULL, \
         DEPT INT NOT NULL, SALARY DOUBLE, PRIMARY KEY (EMPNO))",
    )
    .unwrap();
    for i in 0..10 {
        s.execute(&format!(
            "INSERT INTO EMP VALUES ({i}, 'E{i}', {}, 1.0)",
            i % 3
        ))
        .unwrap();
    }
    s.execute("CREATE INDEX EMP_DEPT ON EMP (DEPT)").unwrap();
    let first_line = |sql: &str, s: &mut Session| s.query(sql).unwrap().rows[0].0[0].to_string();
    for (sql, line, msgs) in [
        (
            "DELETE FROM EMP WHERE EMPNO = 5",
            "DELETE on EMP row at a time over bounded key range: rows read via VSBB, \
             then one DELETE by key per row, 1 index(es) maintained; \
             pushdown predicate: F0 = 5",
            4,
        ),
        (
            "UPDATE EMP SET DEPT = DEPT + 1 WHERE EMPNO < 4",
            "UPDATE on EMP row at a time over upper-bounded key range: rows read via VSBB, \
             then one UPDATE by key per row, 1 index(es) maintained; \
             pushdown predicate: F0 < 4; 1 update expression(s) at DP",
            17,
        ),
        (
            "UPDATE EMP SET SALARY = SALARY + 1 WHERE EMPNO < 4",
            "UPDATE^SUBSET on EMP over upper-bounded key range; \
             pushdown predicate: F0 < 4; 1 update expression(s) at DP",
            1,
        ),
    ] {
        assert_eq!(first_line(&format!("EXPLAIN {sql}"), &mut s), line);
        // Each run is rolled back, so every one finds the same rows.
        s.execute("BEGIN WORK").unwrap();
        let analyzed = first_line(&format!("EXPLAIN ANALYZE {sql}"), &mut s);
        assert!(analyzed.contains(line), "{analyzed}");
        s.execute("ROLLBACK WORK").unwrap();
        s.execute("BEGIN WORK").unwrap();
        s.execute(sql).unwrap();
        let sent = s.last_stats().unwrap().metrics.msgs_fs_dp;
        assert_eq!(sent, msgs, "{sql}");
        s.execute("ROLLBACK WORK").unwrap();
    }
}

#[test]
fn memory_pressure_handshake() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute("CREATE TABLE T (A INT NOT NULL, B CHAR(100), PRIMARY KEY (A))")
        .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for i in 0..500 {
        s.execute(&format!("INSERT INTO T VALUES ({i}, 'X')"))
            .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();
    // Warm the cache, then the memory manager asks for frames back.
    let r = s.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(500));
    // A steal is booked through the one write path, so it reaches the trace.
    db.sim.trace.enable_default();
    let cursor = db.sim.trace.cursor();
    let steals = db.snapshot().cache_steals;
    let stolen = db.memory_pressure("$DATA1", 10);
    assert!(stolen > 0, "clean frames must be stealable");
    assert_eq!(db.snapshot().cache_steals - steals, stolen as u64);
    let evicts: Vec<u64> = db
        .sim
        .trace
        .since(cursor)
        .into_iter()
        .filter_map(|e| match e.kind {
            nsql_sim::TraceEventKind::CacheEvict { frames } => Some(frames),
            _ => None,
        })
        .collect();
    assert_eq!(evicts, [stolen as u64], "the steal's trace record");
    // The database still answers correctly (blocks re-read on demand).
    let r = s.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(500));
}

#[test]
fn dropping_a_cluster_frees_the_bus() {
    let db = ClusterBuilder::new()
        .volume("$DATA1", 0, 1)
        .volume_with_backup("$DATA2", 0, 2, 0, 3)
        .build();
    let mut s = db.session();
    s.execute("CREATE TABLE T (A INT NOT NULL, B INT, PRIMARY KEY (A))")
        .unwrap();
    s.execute("INSERT INTO T VALUES (1, 2)").unwrap();
    drop(s);
    let bus = Arc::downgrade(&db.bus);
    drop(db);
    assert!(
        bus.upgrade().is_none(),
        "the bus must not outlive its cluster"
    );
}

#[test]
fn explain_of_a_cached_shape_shows_its_own_literal() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute("CREATE TABLE EMP (EMPNO INT NOT NULL, SALARY DOUBLE, PRIMARY KEY (EMPNO))")
        .unwrap();
    for salary in ["32000", "41000.5", "-7"] {
        let plan = s
            .query(&format!(
                "EXPLAIN SELECT EMPNO FROM EMP WHERE SALARY > {salary}"
            ))
            .unwrap();
        assert!(
            plan.rows[0].0[0]
                .to_string()
                .contains(&format!("pushdown predicate: F1 > {salary};")),
            "{:?}",
            plan.rows
        );
    }
}

#[test]
fn the_row_count_statistic_follows_dml() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute("CREATE TABLE T (A INT NOT NULL, PRIMARY KEY (A))")
        .unwrap();
    s.execute("INSERT INTO T VALUES (1), (2), (3)").unwrap();
    s.execute("DELETE FROM T WHERE A = 2").unwrap();
    assert_eq!(db.catalog.row_count("t"), Some(2), "names ignore case");
    db.catalog.bump_rows("T", 10);
    assert_eq!(db.catalog.row_count("T"), Some(12));
    assert_eq!(db.catalog.row_count("NOPE"), None);
}

#[test]
fn root_spans_are_labelled_by_the_leading_keyword() {
    assert_eq!(stmt_label("  select * FROM T"), "SELECT");
    assert_eq!(stmt_label("Explain ANALYZE DELETE FROM T"), "EXPLAIN");
    assert_eq!(stmt_label("rollback"), "ROLLBACK");
    assert_eq!(stmt_label("SELECTED"), "STATEMENT");
    assert_eq!(stmt_label(""), "STATEMENT");
}
