//! Aggregate and grouping edge cases over the full stack.

use nonstop_sql::Cluster;
use nsql_records::Value;

fn table(db: &Cluster) {
    let mut s = db.session();
    s.execute(
        "CREATE TABLE M (ID INT NOT NULL, G INT NOT NULL, H INT NOT NULL, \
         X INT, NAME CHAR(8), PRIMARY KEY (ID))",
    )
    .unwrap();
    s.execute(
        "INSERT INTO M VALUES \
         (1, 1, 1, 10, 'B'), (2, 1, 2, NULL, 'A'), (3, 2, 1, 30, 'C'), \
         (4, 2, 2, 40, NULL), (5, 2, 2, 50, 'E')",
    )
    .unwrap();
}

#[test]
fn count_ignores_nulls_count_star_does_not() {
    let db = Cluster::single_volume();
    table(&db);
    let mut s = db.session();
    let r = s
        .query("SELECT COUNT(*), COUNT(X), COUNT(NAME) FROM M")
        .unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(5));
    assert_eq!(r.rows[0].0[1], Value::LargeInt(4), "NULL X ignored");
    assert_eq!(r.rows[0].0[2], Value::LargeInt(4), "NULL NAME ignored");
}

#[test]
fn multi_column_group_by() {
    let db = Cluster::single_volume();
    table(&db);
    let mut s = db.session();
    let r = s
        .query("SELECT G, H, COUNT(*) AS N FROM M GROUP BY G, H ORDER BY G, H")
        .unwrap();
    assert_eq!(r.rows.len(), 4);
    // (2,2) has two members.
    let last = &r.rows[3];
    assert_eq!(last.0[0], Value::Int(2));
    assert_eq!(last.0[1], Value::Int(2));
    assert_eq!(last.0[2], Value::LargeInt(2));
}

#[test]
fn min_max_over_strings_and_sum_avg_over_nullable() {
    let db = Cluster::single_volume();
    table(&db);
    let mut s = db.session();
    let r = s.query("SELECT MIN(NAME), MAX(NAME) FROM M").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Str("A".into()));
    assert_eq!(r.rows[0].0[1], Value::Str("E".into()));
    let r = s.query("SELECT SUM(X), AVG(X) FROM M").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(130));
    assert_eq!(
        r.rows[0].0[1],
        Value::Double(130.0 / 4.0),
        "AVG over non-NULLs"
    );
}

#[test]
fn aggregate_with_predicate_pushdown() {
    let db = Cluster::single_volume();
    table(&db);
    let mut s = db.session();
    let before = db.snapshot();
    let r = s
        .query("SELECT G, SUM(X) AS S FROM M WHERE X > 15 GROUP BY G ORDER BY G")
        .unwrap();
    let m = db.snapshot() - before;
    assert_eq!(r.rows.len(), 1, "only group 2 has X > 15");
    assert_eq!(r.rows[0].0[1], Value::LargeInt(120));
    // The predicate ran at the Disk Process, not the executor.
    assert_eq!(m.dp_records_selected, 3);
}

#[test]
fn order_by_aggregate_output_column() {
    let db = Cluster::single_volume();
    table(&db);
    let mut s = db.session();
    let r = s
        .query("SELECT G, COUNT(*) AS N FROM M GROUP BY G ORDER BY N DESC")
        .unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(2), "bigger group first");
    assert_eq!(r.rows[0].0[1], Value::LargeInt(3));
}

#[test]
fn cursor_updater_spans_partitions() {
    use nsql_fs::CursorUpdater;

    let db = nonstop_sql::ClusterBuilder::new()
        .volume("$DATA1", 0, 1)
        .volume("$DATA2", 0, 2)
        .build();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE T (K INT NOT NULL, V INT NOT NULL, PRIMARY KEY (K)) \
         PARTITION BY VALUES (50) ON ('$DATA1', '$DATA2')",
    )
    .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for k in 0..100 {
        s.execute(&format!("INSERT INTO T VALUES ({k}, 0)"))
            .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();

    let info = db.catalog.table("T").unwrap();
    let txn = db.txnmgr.begin();
    let scan = s
        .fs()
        .scan(
            Some(txn),
            &info.open,
            &nsql_records::KeyRange::all(),
            None,
            None,
            nsql_dp::SubsetMode::Vsbb,
            nsql_dp::ReadLock::Shared,
        )
        .unwrap();
    let before = db.snapshot();
    let mut cur = CursorUpdater::new(s.fs(), &info.open, txn);
    for row in &scan.rows {
        let mut new = row.0.clone();
        new[1] = Value::Int(9);
        cur.update(&row.0, &new).unwrap();
    }
    let (nu, _) = cur.flush().unwrap();
    let m = db.snapshot() - before;
    db.txnmgr.commit(txn, s.cpu()).unwrap();
    assert_eq!(nu, 100);
    assert_eq!(
        m.msgs_fs_dp, 2,
        "one BlockedUpdate message per partition touched"
    );
    let r = s.query("SELECT COUNT(*) FROM T WHERE V = 9").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(100));
}

#[test]
fn abort_metrics_and_trail_abort_records() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute("CREATE TABLE T (K INT NOT NULL, PRIMARY KEY (K))")
        .unwrap();
    s.execute("BEGIN WORK").unwrap();
    s.execute("INSERT INTO T VALUES (1)").unwrap();
    s.execute("ROLLBACK WORK").unwrap();
    assert_eq!(db.snapshot().txns_aborted, 1);
    // Presumed abort: the abort record is lazy — it rides the next flush
    // (here, the group commit of a later transaction).
    s.execute("INSERT INTO T VALUES (2)").unwrap();
    db.sim.clock.advance(10_000_000);
    let records = db.trail.durable_records(db.sim.now());
    assert!(
        records
            .iter()
            .any(|r| matches!(r.body, nsql_tmf::AuditBody::Abort)),
        "abort record missing from the trail"
    );
}

#[test]
fn sum_that_overflows_fails_as_largeint_arithmetic_does() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute("CREATE TABLE L (ID INT NOT NULL, X LARGEINT, PRIMARY KEY (ID))")
        .unwrap();
    s.execute("INSERT INTO L VALUES (1, 9223372036854775807), (2, 1)")
        .unwrap();
    let arithmetic = s.query("SELECT X + 1 FROM L WHERE ID = 1").unwrap_err();
    assert!(arithmetic.to_string().contains("arithmetic overflow"));
    // Folded from the reply bytes, and from rows read record at a time.
    for sql in [
        "SELECT SUM(X) FROM L",
        "SELECT SUM(X) FROM L FOR BROWSE RECORD ACCESS",
    ] {
        let e = s.query(sql).unwrap_err();
        assert_eq!(e.to_string(), arithmetic.to_string(), "{sql}");
    }
    // AVG sums as a double and does not overflow.
    let r = s.query("SELECT AVG(X) FROM L").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Double(i64::MAX as f64 / 2.0));
}

/// An integer `SUM` is exact whatever order the rows come in: only the
/// result is judged against `LARGEINT`. Key order meets `MAX` then 1 (past
/// `LARGEINT` on the way), index order 1, -5 and then `MAX`.
#[test]
fn integer_sum_does_not_depend_on_the_access_path() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute("CREATE TABLE X (K INT NOT NULL, I INT NOT NULL, L LARGEINT, PRIMARY KEY (K))")
        .unwrap();
    s.execute("CREATE INDEX XI ON X (I)").unwrap();
    s.execute("INSERT INTO X VALUES (1, 3, 9223372036854775807), (2, 1, 1), (3, 2, -5)")
        .unwrap();
    let mut plan = |sql: &str| format!("{:?}", s.query(&format!("EXPLAIN {sql}")).unwrap());
    assert!(plan("SELECT SUM(L) FROM X").contains("SCAN X with AGGREGATE at DP"));
    assert!(plan("SELECT SUM(L) FROM X WHERE I > 0").contains("INDEX SCAN X via XI"));
    for sql in [
        "SELECT SUM(L) FROM X",
        "SELECT SUM(L) FROM X FOR BROWSE RECORD ACCESS",
        "SELECT SUM(L) FROM X WHERE I > 0",
    ] {
        let r = s.query(sql).unwrap();
        assert_eq!(
            r.rows[0].0[0],
            Value::LargeInt(9223372036854775803),
            "{sql}"
        );
    }
}

#[test]
fn group_by_double_puts_zero_and_negative_zero_together() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute("CREATE TABLE D (ID INT NOT NULL, V DOUBLE PRECISION, PRIMARY KEY (ID))")
        .unwrap();
    s.execute("INSERT INTO D VALUES (1, 0.0), (2, -0.0), (3, 1.5)")
        .unwrap();
    let equal = s.query("SELECT COUNT(*) FROM D WHERE V = 0.0").unwrap();
    assert_eq!(equal.rows[0].0[0], Value::LargeInt(2));
    for sql in [
        "SELECT V, COUNT(*) AS N FROM D GROUP BY V ORDER BY V",
        "SELECT V, COUNT(*) AS N FROM D GROUP BY V ORDER BY V FOR BROWSE RECORD ACCESS",
    ] {
        let r = s.query(sql).unwrap();
        assert_eq!(r.rows.len(), 2, "{sql}: {:?}", r.rows);
        assert_eq!(r.rows[0].0[1], Value::LargeInt(2), "{sql}");
    }
}
