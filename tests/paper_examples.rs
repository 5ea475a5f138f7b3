//! The paper's worked examples, end to end, with message-level assertions.
//!
//! *Mapping SQL to FS-DP Interface: Examples* gives three statements; each
//! is executed verbatim here and its FS-DP traffic checked against the
//! message pattern the paper describes.

use nonstop_sql::{Cluster, ClusterBuilder};
use nsql_records::Value;

fn emp_db(rows: i32) -> Cluster {
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE EMP (EMPNO INT NOT NULL, NAME CHAR(12) NOT NULL, \
         HIRE_DATE INT NOT NULL, SALARY DOUBLE NOT NULL, PRIMARY KEY (EMPNO))",
    )
    .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for i in 0..rows {
        let salary = if i % 3 == 0 { 40_000 } else { 20_000 };
        s.execute(&format!(
            "INSERT INTO EMP VALUES ({i}, 'E{i:05}', {}, {salary})",
            1980 + i % 9
        ))
        .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();
    drop(s);
    db
}

#[test]
fn example_1_get_first_vsbb() {
    // SELECT NAME, HIRE_DATE FROM EMP WHERE EMPNO <= 1000 AND SALARY > 32000
    let db = emp_db(3000);
    let mut s = db.session();
    let before = db.snapshot();
    let r = s
        .query("SELECT NAME, HIRE_DATE FROM EMP WHERE EMPNO <= 1000 AND SALARY > 32000")
        .unwrap();
    let m = db.snapshot() - before;

    // EMPNO 0..=1000 with i % 3 == 0: 334 rows.
    assert_eq!(r.rows.len(), 334);
    assert_eq!(r.columns, vec!["NAME", "HIRE_DATE"]);
    // GET^FIRST^VSBB plus GET^NEXT^VSBB re-drives: the predicate and
    // projection go down once; re-drives carry only the continuation key.
    assert!(m.msgs_fs_dp >= 2, "expected at least one re-drive");
    assert_eq!(m.msgs_redrive, m.msgs_fs_dp - 1);
    assert!(m.subset_control_blocks >= 1, "SCB created at FIRST time");
    // The key range bounded the scan: only EMPNO <= 1000 examined.
    assert_eq!(m.dp_records_examined, 1001);
    assert_eq!(m.dp_records_selected, 334);
    // Virtual blocks: far fewer messages than selected rows.
    assert!(m.msgs_fs_dp < 334 / 10);
}

#[test]
fn example_2_get_first_rsbb() {
    // SELECT * FROM EMP;
    let db = emp_db(2000);
    let mut s = db.session();
    let before = db.snapshot();
    let r = s.query("SELECT * FROM EMP").unwrap();
    let m = db.snapshot() - before;

    assert_eq!(r.rows.len(), 2000);
    // No selection or projection: real blocks, one per message, blocking
    // factor ≈ 4096 / ~41-byte records... records here are ~37 B fixed
    // so well over 50 records per block; the message count must reflect
    // block-at-a-time transfer, not record-at-a-time.
    assert!(
        m.msgs_fs_dp < 2000 / 20,
        "RSBB must batch at the blocking factor, got {} messages",
        m.msgs_fs_dp
    );
    assert_eq!(m.dp_records_selected, 2000);
}

#[test]
fn example_3_update_subset() {
    // UPDATE ACCOUNT SET BALANCE = BALANCE * 1.07 WHERE BALANCE > 0;
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE ACCOUNT (ACCTNO INT NOT NULL, BALANCE DOUBLE NOT NULL, \
         PRIMARY KEY (ACCTNO))",
    )
    .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for i in 0..1500 {
        let bal = if i % 2 == 0 { 100.0 } else { -100.0 };
        s.execute(&format!("INSERT INTO ACCOUNT VALUES ({i}, {bal})"))
            .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();

    let before = db.snapshot();
    let n = s
        .execute("UPDATE ACCOUNT SET BALANCE = BALANCE * 1.07 WHERE BALANCE > 0")
        .unwrap()
        .count();
    let m = db.snapshot() - before;

    assert_eq!(n, 750);
    // UPDATE^SUBSET^FIRST + re-drives; no records return to the requester.
    assert!(
        m.msgs_fs_dp <= 5,
        "set-oriented update, got {}",
        m.msgs_fs_dp
    );
    assert_eq!(m.rows_returned, 0);
    // Audit is field-compressed: far less than 750 * record size.
    assert!(m.audit_bytes < 750 * 60);

    let r = s
        .query("SELECT BALANCE FROM ACCOUNT WHERE ACCTNO = 0")
        .unwrap();
    assert_eq!(r.rows[0].0[0], Value::Double(107.0));
    let r = s
        .query("SELECT BALANCE FROM ACCOUNT WHERE ACCTNO = 1")
        .unwrap();
    assert_eq!(r.rows[0].0[0], Value::Double(-100.0));
}

#[test]
fn redrives_do_not_resend_predicate_bytes() {
    // "It specifies the new key range ... but does not re-send the
    // predicate or the projection." A GET^NEXT message must be much
    // smaller than its GET^FIRST.
    use nsql_dp::{DpRequest, SubsetOp, SubsetVerb};
    use nsql_records::{CmpOp, Expr, KeyRange, Value};

    let first = DpRequest::SubsetFirst {
        file: 0,
        range: KeyRange::all(),
        predicate: Some(Expr::and(
            Expr::field_cmp(3, CmpOp::Gt, Value::Double(32000.0)),
            Expr::field_cmp(0, CmpOp::Le, Value::Int(1000)),
        )),
        op: SubsetOp::Read {
            txn: None,
            projection: Some(vec![1, 2]),
            mode: nsql_dp::SubsetMode::Vsbb,
            lock: nsql_dp::ReadLock::None,
        },
    };
    let next = DpRequest::SubsetNext {
        subset: 1,
        after: vec![0u8; 5],
        verb: SubsetVerb::Get,
    };
    assert!(
        next.wire_size() * 2 < first.wire_size(),
        "re-drive must be much smaller: {} vs {}",
        next.wire_size(),
        first.wire_size()
    );
}

#[test]
fn example_1_message_sequence() {
    // The Figure-2-style FS <-> DP conversation for example 1, asserted on
    // the rendered trace: exactly one GET^FIRST^VSBB opens the subset and
    // every subsequent FS-DP message is a GET^NEXT continuation re-drive.
    use nsql_sim::{format_sequence, TraceEventKind, TraceMsgClass};

    let db = emp_db(3000);
    db.sim.trace.enable_default();
    let mut s = db.session();
    s.query("SELECT NAME, HIRE_DATE FROM EMP WHERE EMPNO <= 1000 AND SALARY > 32000")
        .unwrap();
    let events = s.last_stats().unwrap().trace.clone();

    let labels: Vec<(String, TraceMsgClass)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceEventKind::Msg { label, class, .. }
                if matches!(class, TraceMsgClass::FsDp | TraceMsgClass::Redrive) =>
            {
                Some((label.clone(), *class))
            }
            _ => None,
        })
        .collect();
    assert!(labels.len() >= 2);
    assert_eq!(labels[0].0, "GET^FIRST^VSBB");
    assert_eq!(labels[0].1, TraceMsgClass::FsDp);
    for (label, class) in &labels[1..] {
        assert_eq!(label, "GET^NEXT");
        assert_eq!(*class, TraceMsgClass::Redrive);
    }

    let rendered = format_sequence(&events);
    assert!(rendered.contains("GET^FIRST^VSBB"));
    assert!(rendered.contains("$DATA1"));
}

#[test]
fn example_3_message_sequence() {
    // The set-oriented update converses in UPDATE^SUBSET messages only; no
    // record images flow back to the requester, and commit shows up as an
    // audit flush followed by the transaction-commit event.
    use nsql_sim::TraceEventKind;

    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE ACCOUNT (ACCTNO INT NOT NULL, BALANCE DOUBLE NOT NULL, \
         PRIMARY KEY (ACCTNO))",
    )
    .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for i in 0..1500 {
        s.execute(&format!("INSERT INTO ACCOUNT VALUES ({i}, 100.0)"))
            .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();

    db.sim.trace.enable_default();
    s.execute("UPDATE ACCOUNT SET BALANCE = BALANCE * 1.07 WHERE BALANCE > 0")
        .unwrap();
    let events = s.last_stats().unwrap().trace.clone();

    let mut saw_first = false;
    let mut commit_at = None;
    let mut flush_at = None;
    for e in &events {
        match &e.kind {
            TraceEventKind::Msg { label, .. } => {
                if label == "UPDATE^SUBSET^FIRST" {
                    saw_first = true;
                } else if label.starts_with("UPDATE^SUBSET") {
                    assert_eq!(label, "UPDATE^SUBSET^NEXT");
                }
                assert!(
                    !label.starts_with("GET^"),
                    "pure pushdown update must not read records back"
                );
            }
            TraceEventKind::AuditFlush { commits, .. } if *commits > 0 => {
                flush_at.get_or_insert(e.seq);
            }
            TraceEventKind::TxnCommit { .. } => commit_at = Some(e.seq),
            _ => {}
        }
    }
    assert!(saw_first, "UPDATE^SUBSET^FIRST must open the subset");
    let (flush, commit) = (flush_at.expect("group commit"), commit_at.expect("commit"));
    assert!(flush < commit, "audit durable before the commit completes");
}
