//! Broader SQL feature coverage over the full stack.

use nonstop_sql::{Cluster, ClusterBuilder};
use nsql_records::Value;

#[test]
fn multi_column_primary_key() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE ORDERS (CUSTNO INT NOT NULL, ORDERNO INT NOT NULL, \
         AMOUNT DOUBLE NOT NULL, PRIMARY KEY (CUSTNO, ORDERNO))",
    )
    .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for c in 0..20 {
        for o in 0..10 {
            s.execute(&format!(
                "INSERT INTO ORDERS VALUES ({c}, {o}, {})",
                (c * 10 + o) as f64
            ))
            .unwrap();
        }
    }
    s.execute("COMMIT WORK").unwrap();

    // Equality on the full key: a point access.
    let before = db.snapshot();
    let r = s
        .query("SELECT AMOUNT FROM ORDERS WHERE CUSTNO = 7 AND ORDERNO = 3")
        .unwrap();
    assert_eq!(r.rows[0].0[0], Value::Double(73.0));
    let m = db.snapshot() - before;
    assert!(
        m.dp_records_examined <= 1,
        "full-key equality must not scan"
    );

    // Equality prefix on the first key column: one customer's orders only.
    let before = db.snapshot();
    let r = s
        .query("SELECT ORDERNO FROM ORDERS WHERE CUSTNO = 7")
        .unwrap();
    assert_eq!(r.rows.len(), 10);
    let m = db.snapshot() - before;
    assert!(
        m.dp_records_examined <= 10,
        "prefix range bounds the scan to the customer, examined {}",
        m.dp_records_examined
    );

    // Prefix equality plus range on the second column.
    let before = db.snapshot();
    let r = s
        .query("SELECT ORDERNO FROM ORDERS WHERE CUSTNO = 7 AND ORDERNO BETWEEN 2 AND 5")
        .unwrap();
    assert_eq!(r.rows.len(), 4);
    let m = db.snapshot() - before;
    assert!(m.dp_records_examined <= 4);

    // Duplicate full key rejected; same first column fine.
    assert!(s.execute("INSERT INTO ORDERS VALUES (7, 3, 1.0)").is_err());
    s.execute("INSERT INTO ORDERS VALUES (7, 99, 1.0)").unwrap();
}

#[test]
fn vsbb_group_locks_accumulate_across_redrives() {
    // A locking scan that re-drives takes one group lock per virtual
    // block; together they cover the whole scanned span.
    let db = ClusterBuilder::new()
        .dp_config(nonstop_sql::DiskProcessConfig {
            max_records_per_request: 25,
            ..nonstop_sql::DiskProcessConfig::default()
        })
        .volume("$DATA1", 0, 1)
        .build();
    let mut s = db.session();
    s.execute("CREATE TABLE T (K INT NOT NULL, V INT NOT NULL, PRIMARY KEY (K))")
        .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for k in 0..100 {
        s.execute(&format!("INSERT INTO T VALUES ({k}, 0)"))
            .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();

    let mut reader = db.session();
    reader.execute("BEGIN WORK").unwrap();
    let r = reader.query("SELECT K FROM T").unwrap();
    assert_eq!(r.rows.len(), 100);
    assert!(
        db.snapshot().msgs_redrive >= 3,
        "the 25-record limit must force re-drives"
    );

    // Every part of the span is covered by some group lock.
    let mut writer = db.session_on(0, 2);
    writer.execute("BEGIN WORK").unwrap();
    for k in [0, 30, 60, 99] {
        let err = writer
            .execute(&format!("UPDATE T SET V = 1 WHERE K = {k}"))
            .unwrap_err();
        assert!(
            err.0.contains("locked") || err.0.contains("deadlock"),
            "key {k} must be covered: {err}"
        );
    }
    writer.execute("ROLLBACK WORK").unwrap();
    reader.execute("COMMIT WORK").unwrap();
}

#[test]
fn parallel_sort_setting_changes_elapsed_only() {
    let run = |ways: u32| -> (u64, u64) {
        let db = Cluster::single_volume();
        let mut s = db.session();
        s.execute("CREATE TABLE T (K INT NOT NULL, R INT NOT NULL, PRIMARY KEY (K))")
            .unwrap();
        s.execute("BEGIN WORK").unwrap();
        for k in 0..2000 {
            s.execute(&format!("INSERT INTO T VALUES ({k}, {})", 2000 - k))
                .unwrap();
        }
        s.execute("COMMIT WORK").unwrap();
        db.set_sort_parallelism(ways);
        let before = db.snapshot();
        let t0 = db.sim.now();
        let r = s.query("SELECT K FROM T ORDER BY R").unwrap();
        assert_eq!(r.rows[0].0[0], Value::Int(1999), "sorted by descending R");
        let m = db.snapshot() - before;
        (m.cpu_executor, db.sim.now() - t0)
    };
    let (work1, time1) = run(1);
    let (work8, time8) = run(8);
    assert_eq!(
        work1, work8,
        "FastSort parallelism must not change path length"
    );
    assert!(time8 < time1, "but it must shorten elapsed time");
}

#[test]
fn arithmetic_in_select_list_and_where() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute("CREATE TABLE P (ID INT NOT NULL, PRICE DOUBLE NOT NULL, QTY INT NOT NULL, PRIMARY KEY (ID))")
        .unwrap();
    s.execute("INSERT INTO P VALUES (1, 2.5, 4), (2, 10.0, 1), (3, 1.0, 100)")
        .unwrap();
    let r = s
        .query("SELECT ID, PRICE * QTY AS TOTAL FROM P WHERE PRICE * QTY > 9 ORDER BY ID")
        .unwrap();
    assert_eq!(r.columns, vec!["ID", "TOTAL"]);
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0].0[1], Value::Double(10.0));
    // Division and subtraction, NULL propagation.
    s.execute("CREATE TABLE N (ID INT NOT NULL, X INT, PRIMARY KEY (ID))")
        .unwrap();
    s.execute("INSERT INTO N VALUES (1, 10), (2, NULL)")
        .unwrap();
    let r = s.query("SELECT X / 2 - 1 FROM N ORDER BY ID").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(4));
    assert_eq!(r.rows[1].0[0], Value::Null);
}

#[test]
fn three_way_join() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute("CREATE TABLE A (ID INT NOT NULL, BID INT NOT NULL, PRIMARY KEY (ID))")
        .unwrap();
    s.execute("CREATE TABLE B (ID INT NOT NULL, CID INT NOT NULL, PRIMARY KEY (ID))")
        .unwrap();
    s.execute("CREATE TABLE C (ID INT NOT NULL, NAME CHAR(8) NOT NULL, PRIMARY KEY (ID))")
        .unwrap();
    for i in 0..5 {
        s.execute(&format!("INSERT INTO A VALUES ({i}, {})", i % 3))
            .unwrap();
        s.execute(&format!("INSERT INTO B VALUES ({i}, {})", i % 2))
            .unwrap();
        s.execute(&format!("INSERT INTO C VALUES ({i}, 'C{i}')"))
            .unwrap();
    }
    let r = s
        .query(
            "SELECT A.ID, C.NAME FROM A, B, C \
             WHERE A.BID = B.ID AND B.CID = C.ID ORDER BY A.ID",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 5);
    // A.ID=0 -> B 0 -> C 0.
    assert_eq!(r.rows[0].0[1], Value::Str("C0".into()));
    // A.ID=1 -> B 1 -> C 1.
    assert_eq!(r.rows[1].0[1], Value::Str("C1".into()));
}

#[test]
fn empty_results_and_edge_predicates() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute("CREATE TABLE T (K INT NOT NULL, PRIMARY KEY (K))")
        .unwrap();
    // Query on an empty table.
    let r = s.query("SELECT * FROM T WHERE K = 5").unwrap();
    assert!(r.rows.is_empty());
    s.execute("INSERT INTO T VALUES (1), (2), (3)").unwrap();
    // Contradictory range.
    let r = s.query("SELECT * FROM T WHERE K > 5 AND K < 3").unwrap();
    assert!(r.rows.is_empty());
    // Update matching nothing.
    assert_eq!(s.execute("DELETE FROM T WHERE K > 100").unwrap().count(), 0);
    // NOT and OR.
    let r = s
        .query("SELECT K FROM T WHERE NOT (K = 2) ORDER BY K")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    let r = s.query("SELECT K FROM T WHERE K = 1 OR K = 3").unwrap();
    assert_eq!(r.rows.len(), 2);
}

/// SQL finds `-0.0` equal to `0.0`, so as a key it is the key of `0.0`; a
/// change of a zero's sign is still a change of the row, which the index
/// holds too.
#[test]
fn negative_zero_keys_as_zero() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute("CREATE TABLE T (K INT NOT NULL, D DOUBLE NOT NULL, PRIMARY KEY (K))")
        .unwrap();
    s.execute("CREATE INDEX TD ON T (D)").unwrap();
    s.execute("INSERT INTO T VALUES (1, 0.0)").unwrap();
    s.execute("INSERT INTO T VALUES (2, 0.0 * -1.0)").unwrap();
    let zeros = |s: &mut nonstop_sql::Session<'_>| {
        let plan = s.query("EXPLAIN SELECT K, D FROM T WHERE D = 0").unwrap();
        assert!(format!("{plan:?}").contains("index-only"), "{plan:?}");
        let r = s.query("SELECT K, D FROM T WHERE D = 0").unwrap();
        let mut rows: Vec<(Value, bool)> = (r.rows.iter())
            .map(|row| match row.0[1] {
                Value::Double(d) => (row.0[0].clone(), d.is_sign_negative()),
                ref other => panic!("D is {other:?}"),
            })
            .collect();
        rows.sort_by_key(|(k, _)| format!("{k}"));
        rows
    };
    // Both zeros are found under the one key, each with its own sign.
    assert_eq!(
        zeros(&mut s),
        [(Value::Int(1), false), (Value::Int(2), true)]
    );
    // Flipping a zero's sign changes the row, and so its index entry.
    s.execute("UPDATE T SET D = D * -1.0 WHERE K = 1").unwrap();
    assert_eq!(
        zeros(&mut s),
        [(Value::Int(1), true), (Value::Int(2), true)]
    );

    // As a primary key, the second zero is a duplicate.
    s.execute("CREATE TABLE P (D DOUBLE NOT NULL, PRIMARY KEY (D))")
        .unwrap();
    s.execute("INSERT INTO P VALUES (0.0)").unwrap();
    assert!(s.execute("INSERT INTO P VALUES (0.0 * -1.0)").is_err());
    assert_eq!(s.query("SELECT D FROM P").unwrap().rows.len(), 1);
}
