//! End-to-end SQL tests: parse → plan → execute over a simulated cluster,
//! statements planned through a statement cache as a cluster plans them.

use crate::ast::Statement;
use crate::cache::StatementCache;
use crate::catalog::Catalog;
use crate::exec::{ExecError, Executor, QueryResult};
use crate::parser::{parse, template};
use crate::plan::{
    describe, plan, AccessPath, AggOutput, Plan, PlanError, Projection, SelectPlan, Shape,
};
use nsql_disk::Disk;
use nsql_dp::{DiskProcess, DpConfig, DpContext, SubsetMode};
use nsql_fs::FileSystem;
use nsql_lock::TxnId;
use nsql_msg::{Bus, CpuId};
use nsql_records::{ArithOp, Expr, Value};
use nsql_sim::{Sim, SimRng};
use nsql_tmf::{CommitTimer, LsnSource, Trail, TxnManager, AUDIT_PROCESS};
use std::sync::Arc;

struct World {
    sim: Sim,
    txnmgr: Arc<TxnManager>,
    catalog: Arc<Catalog>,
    statements: StatementCache,
    fs: FileSystem,
    client: CpuId,
}

fn world() -> World {
    let sim = Sim::new();
    let bus = Bus::new(sim.clone());
    let lsns = LsnSource::new();
    let trail = Trail::new(sim.clone(), Arc::clone(&lsns), CommitTimer::Fixed(1_000));
    bus.register(AUDIT_PROCESS, CpuId::new(0, 3), trail.clone());
    let txnmgr = TxnManager::new(sim.clone(), Arc::clone(&bus));
    let ctx = DpContext {
        sim: sim.clone(),
        bus: Arc::clone(&bus),
        trail,
        txnmgr: Arc::clone(&txnmgr),
        lsns,
    };
    for (i, name) in ["$DATA1", "$DATA2", "$IDX"].iter().enumerate() {
        let disk = Disk::new(sim.clone(), *name, true);
        DiskProcess::format(
            &ctx,
            name,
            CpuId::new(0, 1 + i as u8),
            disk,
            DpConfig::default(),
        );
    }
    let client = CpuId::new(0, 0);
    let fs = FileSystem::new(sim.clone(), Arc::clone(&bus), client);
    World {
        sim,
        txnmgr,
        catalog: Catalog::new("$DATA1"),
        statements: StatementCache::default(),
        fs,
        client,
    }
}

impl World {
    /// Run one statement in its own transaction (autocommit).
    fn run(&self, sql: &str) -> Result<ExecOutcome, String> {
        let planned = self
            .statements
            .plan(&self.catalog, sql)
            .map_err(|e| e.to_string())?;
        let exec = Executor {
            fs: &self.fs,
            catalog: &self.catalog,
            sort_parallelism: 1,
            sys: None,
        };
        match planned {
            Plan::Select(p) => {
                let r = exec.select(&p, None).map_err(|e| e.to_string())?;
                Ok(ExecOutcome::Rows(r))
            }
            Plan::Insert(p) => self.in_txn(|txn| exec.insert(&p, txn)),
            Plan::Update(p) => self.in_txn(|txn| exec.update(&p, txn)),
            Plan::Delete(p) => self.in_txn(|txn| exec.delete(&p, txn)),
            Plan::Passthrough(Statement::CreateTable(t)) => {
                self.catalog
                    .create_table(&self.fs, &t)
                    .map_err(|e| e.to_string())?;
                Ok(ExecOutcome::Count(0))
            }
            Plan::Passthrough(Statement::CreateIndex(ci)) => {
                let txn = self.txnmgr.begin();
                let r = self.catalog.create_index(&self.fs, txn, &ci);
                match r {
                    Ok(()) => {
                        self.txnmgr.commit(txn, self.client).unwrap();
                        Ok(ExecOutcome::Count(0))
                    }
                    Err(e) => {
                        self.txnmgr.abort(txn, self.client).unwrap();
                        Err(e.to_string())
                    }
                }
            }
            Plan::Passthrough(Statement::DropTable(t)) => {
                self.catalog.drop_table(&t).map_err(|e| e.to_string())?;
                Ok(ExecOutcome::Count(0))
            }
            Plan::Explain(_) | Plan::ExplainAnalyze(_) => {
                Err("EXPLAIN handled at the session layer".into())
            }
            Plan::Passthrough(other) => Err(format!("not runnable here: {other:?}")),
        }
    }

    fn in_txn<F: FnOnce(TxnId) -> Result<u64, ExecError>>(
        &self,
        f: F,
    ) -> Result<ExecOutcome, String> {
        let txn = self.txnmgr.begin();
        match f(txn) {
            Ok(n) => {
                self.txnmgr.commit(txn, self.client).unwrap();
                Ok(ExecOutcome::Count(n))
            }
            Err(e) => {
                self.txnmgr.abort(txn, self.client).unwrap();
                Err(e.to_string())
            }
        }
    }

    fn rows(&self, sql: &str) -> QueryResult {
        match self.run(sql).unwrap() {
            ExecOutcome::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    fn count(&self, sql: &str) -> u64 {
        match self.run(sql).unwrap() {
            ExecOutcome::Count(n) => n,
            other => panic!("expected count, got {other:?}"),
        }
    }
}

#[derive(Debug)]
enum ExecOutcome {
    Rows(QueryResult),
    Count(u64),
}

fn setup_emp(w: &World, n: i32) {
    w.run(
        "CREATE TABLE EMP (EMPNO INT NOT NULL, NAME CHAR(12) NOT NULL, \
         DEPT INT NOT NULL, SALARY DOUBLE, PRIMARY KEY (EMPNO)) \
         PARTITION BY VALUES (500) ON ('$DATA1', '$DATA2')",
    )
    .unwrap();
    for i in 0..n {
        let salary = 20_000.0 + (i % 50) as f64 * 500.0;
        w.count(&format!(
            "INSERT INTO EMP VALUES ({i}, 'E{i:05}', {}, {salary})",
            i % 10
        ));
    }
}

#[test]
fn paper_example_1_end_to_end() {
    let w = world();
    setup_emp(&w, 1200);
    let r = w.rows("SELECT NAME, SALARY FROM EMP WHERE EMPNO <= 1000 AND SALARY > 32000");
    assert_eq!(r.columns, vec!["NAME", "SALARY"]);
    // SALARY > 32000 <=> (i % 50) * 500 > 12000 <=> i%50 >= 25.
    let expected = (0..=1000).filter(|i| i % 50 >= 25).count();
    assert_eq!(r.rows.len(), expected);
    for row in &r.rows {
        let Value::Double(s) = row.0[1] else { panic!() };
        assert!(s > 32_000.0);
    }
}

#[test]
fn select_star_and_order_by() {
    let w = world();
    setup_emp(&w, 50);
    let r = w.rows("SELECT * FROM EMP ORDER BY SALARY DESC, EMPNO");
    assert_eq!(r.rows.len(), 50);
    assert_eq!(r.columns.len(), 4);
    let salaries: Vec<f64> = r
        .rows
        .iter()
        .map(|row| match row.0[3] {
            Value::Double(s) => s,
            _ => panic!(),
        })
        .collect();
    assert!(salaries.windows(2).all(|w| w[0] >= w[1]));
}

#[test]
fn paper_example_3_update_with_expression() {
    let w = world();
    w.run(
        "CREATE TABLE ACCOUNT (ACCTNO INT NOT NULL, BALANCE DOUBLE NOT NULL, \
         PRIMARY KEY (ACCTNO))",
    )
    .unwrap();
    for i in 0..100 {
        let bal = if i % 2 == 0 { 100.0 } else { -10.0 };
        w.count(&format!("INSERT INTO ACCOUNT VALUES ({i}, {bal})"));
    }
    let n = w.count("UPDATE ACCOUNT SET BALANCE = BALANCE * 1.07 WHERE BALANCE > 0");
    assert_eq!(n, 50);
    let r = w.rows("SELECT BALANCE FROM ACCOUNT WHERE ACCTNO = 0");
    assert_eq!(r.rows[0].0[0], Value::Double(107.0));
    let r = w.rows("SELECT BALANCE FROM ACCOUNT WHERE ACCTNO = 1");
    assert_eq!(r.rows[0].0[0], Value::Double(-10.0));
}

#[test]
fn check_constraint_blocks_bad_updates_and_inserts() {
    let w = world();
    w.run(
        "CREATE TABLE PART (PARTNO INT NOT NULL, QUANTITY INT NOT NULL, \
         PRIMARY KEY (PARTNO), CHECK (QUANTITY >= 0))",
    )
    .unwrap();
    w.count("INSERT INTO PART VALUES (1, 10)");
    let err = w.run("INSERT INTO PART VALUES (2, -5)").unwrap_err();
    assert!(err.contains("constraint"), "{err}");
    let err = w
        .run("UPDATE PART SET QUANTITY = QUANTITY - 100 WHERE PARTNO = 1")
        .unwrap_err();
    assert!(err.contains("constraint"), "{err}");
    // The failed update rolled back.
    let r = w.rows("SELECT QUANTITY FROM PART WHERE PARTNO = 1");
    assert_eq!(r.rows[0].0[0], Value::Int(10));
}

#[test]
fn aggregates_and_group_by() {
    let w = world();
    setup_emp(&w, 100);
    let r = w.rows("SELECT COUNT(*), MIN(SALARY), MAX(SALARY) FROM EMP");
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].0[0], Value::LargeInt(100));
    let r = w.rows(
        "SELECT DEPT, COUNT(*) AS N, AVG(SALARY) AS AVGSAL FROM EMP GROUP BY DEPT ORDER BY DEPT",
    );
    assert_eq!(r.rows.len(), 10);
    assert_eq!(r.columns, vec!["DEPT", "N", "AVGSAL"]);
    for (i, row) in r.rows.iter().enumerate() {
        assert_eq!(row.0[0], Value::Int(i as i32));
        assert_eq!(row.0[1], Value::LargeInt(10));
    }
}

#[test]
fn aggregate_of_empty_table() {
    let w = world();
    w.run("CREATE TABLE T (A INT NOT NULL, PRIMARY KEY (A))")
        .unwrap();
    let r = w.rows("SELECT COUNT(*), SUM(A) FROM T");
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].0[0], Value::LargeInt(0));
    assert_eq!(r.rows[0].0[1], Value::Null);
}

#[test]
fn point_query_uses_key_range_one_message() {
    let w = world();
    setup_emp(&w, 1000);
    let before = w.sim.metrics.snapshot();
    let r = w.rows("SELECT NAME FROM EMP WHERE EMPNO = 700");
    assert_eq!(r.rows.len(), 1);
    let d = w.sim.metrics.snapshot() - before;
    assert_eq!(d.msgs_fs_dp, 1, "point query must touch one partition once");
    assert!(
        d.dp_records_examined <= 1,
        "key range should bound the scan to the single record"
    );
}

#[test]
fn range_predicate_limits_partition_fanout() {
    let w = world();
    setup_emp(&w, 1000);
    let before = w.sim.metrics.snapshot();
    let r = w.rows("SELECT EMPNO FROM EMP WHERE EMPNO BETWEEN 100 AND 120");
    assert_eq!(r.rows.len(), 21);
    let d = w.sim.metrics.snapshot() - before;
    assert_eq!(d.msgs_fs_dp, 1);
    assert!(d.dp_records_examined <= 22);
}

#[test]
fn index_is_chosen_for_equality_on_indexed_column() {
    let w = world();
    setup_emp(&w, 1000);
    w.run("CREATE INDEX EMP_DEPT ON EMP (DEPT) ON '$IDX'")
        .unwrap();
    // Plan inspection: DEPT = 3 should use the index.
    let stmt = parse("SELECT EMPNO, DEPT FROM EMP WHERE DEPT = 3").unwrap();
    let Plan::Select(p) = plan(&w.catalog, stmt).unwrap() else {
        panic!()
    };
    assert!(
        matches!(
            p.tables[0].access,
            AccessPath::IndexScan {
                index_only: Some(_),
                ..
            }
        ),
        "expected an index-only scan, got {:?}",
        p.tables[0].access
    );
    // And it returns correct rows with few messages.
    let before = w.sim.metrics.snapshot();
    let r = w.rows("SELECT EMPNO, DEPT FROM EMP WHERE DEPT = 3");
    assert_eq!(r.rows.len(), 100);
    for row in &r.rows {
        assert_eq!(row.0[1], Value::Int(3));
    }
    let d = w.sim.metrics.snapshot() - before;
    assert!(
        d.msgs_fs_dp <= 3,
        "index-only scan should take ~1 message, got {}",
        d.msgs_fs_dp
    );
}

#[test]
fn index_with_base_fetch_when_fields_missing() {
    let w = world();
    setup_emp(&w, 200);
    w.run("CREATE INDEX EMP_DEPT ON EMP (DEPT) ON '$IDX'")
        .unwrap();
    let stmt = parse("SELECT NAME, SALARY FROM EMP WHERE DEPT = 7").unwrap();
    let Plan::Select(p) = plan(&w.catalog, stmt).unwrap() else {
        panic!()
    };
    assert!(matches!(
        p.tables[0].access,
        AccessPath::IndexScan {
            index_only: None,
            ..
        }
    ));
    let r = w.rows("SELECT NAME, SALARY FROM EMP WHERE DEPT = 7");
    assert_eq!(r.rows.len(), 20);
}

#[test]
fn an_index_only_scan_keeps_what_the_index_cannot_answer() {
    // SALARY is not in the index row: the index bounds DEPT = 3, but only
    // the base row can answer SALARY > 40000, so the base rows are fetched
    // and the executor applies the whole predicate.
    let w = world();
    setup_emp(&w, 200);
    let sql = "SELECT EMPNO, DEPT FROM EMP WHERE DEPT = 3 AND SALARY > 40000";
    let scanned = w.rows(sql);
    w.run("CREATE INDEX EMP_DEPT ON EMP (DEPT) ON '$IDX'")
        .unwrap();
    let Plan::Select(p) = plan(&w.catalog, parse(sql).unwrap()).unwrap() else {
        panic!()
    };
    let t = &p.tables[0];
    assert!(
        matches!(
            t.access,
            AccessPath::IndexScan {
                index_only: None,
                ..
            }
        ),
        "{:?}",
        t.access
    );
    assert!(t.residual.is_some());
    let indexed = w.rows(sql);
    // i % 10 = 3 and i % 50 > 40: 43, 93, 143 and 193.
    assert_eq!(scanned.rows.len(), 4);
    assert_eq!(indexed.rows, scanned.rows);
}

#[test]
fn the_plan_settles_transfer_residual_and_output_shape() {
    let w = world();
    setup_emp(&w, 10);
    let select = |sql: &str| {
        let Plan::Select(p) = plan(&w.catalog, parse(sql).unwrap()).unwrap() else {
            panic!()
        };
        p
    };
    let rows = |p: &SelectPlan| match &p.shape {
        Shape::Rows { order_by, project } => (order_by.len(), project.clone()),
        Shape::Groups { .. } => panic!("expected rows"),
    };
    let mode = |p: &SelectPlan| match &p.tables[0].access {
        AccessPath::TableScan { mode, .. } => *mode,
        other => panic!("expected a table scan, got {other:?}"),
    };

    // Every field, no predicate: RSBB, and the rows as fetched are the result.
    for sql in [
        "SELECT * FROM EMP",
        "SELECT EMPNO, NAME, DEPT, SALARY FROM EMP",
    ] {
        let p = select(sql);
        assert_eq!(mode(&p), SubsetMode::Rsbb, "{sql}");
        assert_eq!(rows(&p), (0, Projection::Fetched), "{sql}");
    }
    // A projection or a predicate travels by VSBB.
    let p = select("SELECT NAME, EMPNO FROM EMP ORDER BY SALARY");
    assert_eq!(mode(&p), SubsetMode::Vsbb);
    assert_eq!(p.tables[0].fetch_fields, vec![0, 1, 3]);
    assert_eq!(rows(&p), (1, Projection::Columns(vec![1, 0])));
    let p = select("SELECT * FROM EMP WHERE SALARY > 1");
    assert_eq!(mode(&p), SubsetMode::Vsbb);
    assert_eq!(rows(&p).1, Projection::Fetched);
    // A column wanted twice, or computed, is evaluated.
    let p = select("SELECT EMPNO, EMPNO FROM EMP");
    assert_eq!(rows(&p).1, Projection::Exprs(vec![Expr::Field(0); 2]));
    let p = select("SELECT EMPNO + 1 FROM EMP");
    assert!(matches!(rows(&p).1, Projection::Exprs(_)));
    // Browse fetches only what is wanted upstream; the residual reads the
    // whole record, by table field number.
    let p = select("SELECT SALARY FROM EMP WHERE DEPT = 3 FOR BROWSE RECORD ACCESS");
    let t = &p.tables[0];
    assert!(matches!(t.access, AccessPath::Browse));
    assert_eq!(t.fetch_fields, vec![3]);
    assert_eq!(t.residual.as_ref().unwrap().to_string(), "F2 = 3");
    assert_eq!(rows(&p), (0, Projection::Fetched));
    // Groups are sorted on output columns.
    let p = select("SELECT COUNT(*) AS N, DEPT FROM EMP GROUP BY DEPT ORDER BY DEPT DESC");
    let Shape::Groups { agg, order_by } = &p.shape else {
        panic!("expected groups")
    };
    assert_eq!(agg.output, vec![AggOutput::Agg(0), AggOutput::GroupCol(0)]);
    assert_eq!(order_by, &vec![(Expr::Field(1), true)]);
    assert_eq!(p.column_names, vec!["N", "DEPT"]);
}

/// One predicate names the same field in EXPLAIN whichever path applies
/// it: pushed down to a scan, or as the residual of a browse or of an index
/// scan that fetches base rows.
#[test]
fn explain_names_a_predicates_field_alike_on_every_path() {
    let w = world();
    setup_emp(&w, 10);
    let explain = |sql: &str| describe(&plan(&w.catalog, parse(sql).unwrap()).unwrap());
    let sql = "SELECT SALARY FROM EMP WHERE DEPT = 3";
    let residual = "  residual filter at executor: F2 = 3";
    let scan = explain(sql);
    assert!(
        scan[0].contains("; pushdown predicate: F2 = 3;"),
        "{scan:?}"
    );
    let browse = explain(&format!("{sql} FOR BROWSE RECORD ACCESS"));
    assert!(browse[0].contains("(BROWSE)"), "{browse:?}");
    assert_eq!(browse[1], residual);
    w.run("CREATE INDEX EMP_DEPT ON EMP (DEPT) ON '$IDX'")
        .unwrap();
    let fetch = explain(sql);
    assert!(fetch[0].contains("fetch base rows"), "{fetch:?}");
    assert_eq!(fetch[1], residual);
}

#[test]
fn two_table_join() {
    let w = world();
    w.run("CREATE TABLE DEPT (DEPTNO INT NOT NULL, DNAME CHAR(10) NOT NULL, PRIMARY KEY (DEPTNO))")
        .unwrap();
    for d in 0..10 {
        w.count(&format!("INSERT INTO DEPT VALUES ({d}, 'DEPT{d:02}')"));
    }
    setup_emp(&w, 60);
    let r = w.rows(
        "SELECT E.EMPNO, D.DNAME FROM EMP E, DEPT D \
         WHERE E.DEPT = D.DEPTNO AND E.EMPNO < 10 ORDER BY E.EMPNO",
    );
    assert_eq!(r.rows.len(), 10);
    assert_eq!(r.rows[3].0[0], Value::Int(3));
    assert_eq!(r.rows[3].0[1], Value::Str("DEPT03".into()));
}

#[test]
fn delete_with_predicate() {
    let w = world();
    setup_emp(&w, 100);
    let n = w.count("DELETE FROM EMP WHERE DEPT = 4");
    assert_eq!(n, 10);
    let r = w.rows("SELECT COUNT(*) FROM EMP");
    assert_eq!(r.rows[0].0[0], Value::LargeInt(90));
    let r = w.rows("SELECT COUNT(*) FROM EMP WHERE DEPT = 4");
    assert_eq!(r.rows[0].0[0], Value::LargeInt(0));
}

#[test]
fn like_and_in_and_null_predicates() {
    let w = world();
    w.run("CREATE TABLE S (ID INT NOT NULL, NAME VARCHAR(20), PRIMARY KEY (ID))")
        .unwrap();
    w.count("INSERT INTO S VALUES (1, 'ALPHA'), (2, 'BETA'), (3, NULL), (4, 'ALTO')");
    let r = w.rows("SELECT ID FROM S WHERE NAME LIKE 'AL%'");
    assert_eq!(r.rows.len(), 2);
    let r = w.rows("SELECT ID FROM S WHERE NAME IS NULL");
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].0[0], Value::Int(3));
    let r = w.rows("SELECT ID FROM S WHERE ID IN (2, 4, 9)");
    assert_eq!(r.rows.len(), 2);
    // NULL never equals anything.
    let r = w.rows("SELECT ID FROM S WHERE NAME = NULL");
    assert_eq!(r.rows.len(), 0);
}

#[test]
fn browse_access_reads_record_at_a_time() {
    let w = world();
    setup_emp(&w, 300);
    // Same rows either way...
    let fast = w.rows("SELECT EMPNO FROM EMP WHERE SALARY > 40000");
    let before = w.sim.metrics.snapshot();
    let slow = w.rows("SELECT EMPNO FROM EMP WHERE SALARY > 40000 FOR BROWSE RECORD ACCESS");
    let d = w.sim.metrics.snapshot() - before;
    assert_eq!(fast.rows.len(), slow.rows.len());
    // ... but browse access pays one message per record.
    assert!(
        d.msgs_fs_dp >= 300,
        "record-at-a-time should message per record, got {}",
        d.msgs_fs_dp
    );
}

#[test]
fn multi_statement_txn_semantics_via_manager() {
    // Cross-statement transactions are exercised at the session layer in
    // nsql-core; here check that an aborted insert vanishes.
    let w = world();
    setup_emp(&w, 10);
    let txn = w.txnmgr.begin();
    let stmt = parse("INSERT INTO EMP VALUES (999, 'GHOST', 0, 1.0)").unwrap();
    let Plan::Insert(p) = plan(&w.catalog, stmt).unwrap() else {
        panic!()
    };
    let exec = Executor {
        fs: &w.fs,
        catalog: &w.catalog,
        sort_parallelism: 1,
        sys: None,
    };
    exec.insert(&p, txn).unwrap();
    w.txnmgr.abort(txn, w.client).unwrap();
    let r = w.rows("SELECT COUNT(*) FROM EMP WHERE EMPNO = 999");
    assert_eq!(r.rows[0].0[0], Value::LargeInt(0));
}

#[test]
fn unique_index_via_sql() {
    let w = world();
    setup_emp(&w, 20); // DEPT values 0..9 each appear twice
    w.run("CREATE UNIQUE INDEX EMP_NAME ON EMP (NAME) ON '$IDX'")
        .unwrap();
    let err = w
        .run("INSERT INTO EMP VALUES (100, 'E00003', 1, 1.0)")
        .unwrap_err();
    assert!(err.contains("duplicate"), "{err}");
    // Creating a unique index over duplicate data fails.
    let err = w
        .run("CREATE UNIQUE INDEX EMP_D ON EMP (DEPT) ON '$IDX'")
        .unwrap_err();
    assert!(err.contains("duplicate"), "{err}");
    // Index columns are index keys: a nullable one is refused.
    let err = w
        .run("CREATE INDEX EMP_S ON EMP (SALARY) ON '$IDX'")
        .unwrap_err();
    assert!(err.contains("SALARY must be NOT NULL"), "{err}");
}

/// An `UPDATE` that gives an indexed column the value it already has
/// leaves the index entry where it is: the scan, the read of the old row and
/// the base update, and no delete and insert at the index. A new value still
/// moves the entry.
#[test]
fn same_value_update_of_an_indexed_column_leaves_the_index_alone() {
    let w = world();
    setup_emp(&w, 20);
    w.run("CREATE INDEX EMP_NAME ON EMP (NAME) ON '$IDX'")
        .unwrap();
    let cost = |sql: &str| {
        let before = w.sim.metrics.snapshot();
        assert_eq!(w.count(sql), 1, "{sql}");
        let d = w.sim.metrics.snapshot() - before;
        (d.msgs_fs_dp, d.audit_records)
    };
    assert_eq!(cost("UPDATE EMP SET NAME = NAME WHERE EMPNO = 5"), (3, 2));
    assert_eq!(
        cost("UPDATE EMP SET NAME = 'X00005' WHERE EMPNO = 5"),
        (5, 4)
    );
    let r = w.rows("SELECT EMPNO FROM EMP WHERE NAME = 'X00005'");
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].0[0], Value::Int(5));
    let r = w.rows("SELECT EMPNO FROM EMP WHERE NAME = 'E00005'");
    assert!(r.rows.is_empty());
}

/// A column assigned twice in one `SET` list is refused when the statement
/// is planned: no message reaches a Disk Process and nothing changes.
#[test]
fn a_column_assigned_twice_is_refused_at_plan_time() {
    let w = world();
    setup_emp(&w, 5);
    let before = w.sim.metrics.snapshot();
    let err = w
        .run("UPDATE EMP SET DEPT = 1, DEPT = 2 WHERE EMPNO = 3")
        .unwrap_err();
    assert!(err.contains("DEPT assigned twice"), "{err}");
    assert_eq!((w.sim.metrics.snapshot() - before).msgs_fs_dp, 0);
    let r = w.rows("SELECT DEPT FROM EMP WHERE EMPNO = 3");
    assert_eq!(r.rows[0].0[0], Value::Int(3));
}

#[test]
fn result_table_rendering() {
    let w = world();
    setup_emp(&w, 3);
    let r = w.rows("SELECT EMPNO, NAME FROM EMP ORDER BY EMPNO");
    let table = r.to_table();
    assert!(table.contains("EMPNO"));
    assert!(table.contains("E00002"));
}

#[test]
fn errors_surface_cleanly() {
    let w = world();
    assert!(w
        .run("SELECT * FROM NOPE")
        .unwrap_err()
        .contains("no such table"));
    setup_emp(&w, 1);
    assert!(w
        .run("SELECT NOPE FROM EMP")
        .unwrap_err()
        .contains("unknown column"));
    assert!(w
        .run("UPDATE EMP SET EMPNO = 1")
        .unwrap_err()
        .contains("key"));
    assert!(w
        .run("INSERT INTO EMP VALUES (1)")
        .unwrap_err()
        .contains("values"));
}

#[test]
fn doomed_fs_errors_surface_as_typed_exec_doomed() {
    // The retry loop in the workload engine matches on ExecError::Doomed;
    // the From<FsError> impl must preserve the doom reason verbatim.
    let e = crate::exec::ExecError::from(nsql_fs::FsError::Doomed {
        reason: "deadlock victim T7".to_string(),
    });
    assert_eq!(
        e,
        crate::exec::ExecError::Doomed("deadlock victim T7".to_string())
    );
    assert!(e.to_string().contains("deadlock"), "{e}");
    // Constraint violations keep their dedicated variant.
    assert_eq!(
        crate::exec::ExecError::from(nsql_fs::FsError::Dp(nsql_dp::DpError::ConstraintViolation)),
        crate::exec::ExecError::ConstraintViolation
    );
}

// ----------------------------------------------------------------------
// The statement cache
// ----------------------------------------------------------------------

/// Plan `sql` through the cache and as `plan(parse(sql))`: the two must
/// read the same, errors included. Returns the cache's plan.
fn cached(w: &World, sql: &str) -> Result<Plan, PlanError> {
    let got = w.statements.plan(&w.catalog, sql);
    let direct = parse(sql)
        .map_err(PlanError::from)
        .and_then(|stmt| plan(&w.catalog, stmt));
    assert_eq!(format!("{got:?}"), format!("{direct:?}"), "{sql}");
    got
}

/// A table with a column of each of the six field types; `I` can be
/// indexed.
fn all_types(w: &World) {
    w.run(
        "CREATE TABLE T (K INT NOT NULL, S SMALLINT, I INT NOT NULL, L LARGEINT, \
         D DOUBLE PRECISION, C CHAR(8), V VARCHAR(10), PRIMARY KEY (K))",
    )
    .unwrap();
}

#[test]
fn cached_literals_bind_as_the_parser_reads_them() {
    let w = world();
    all_types(&w);
    // The template comes from the first text; the second, of the same
    // shape, is bound from it.
    // Into a column the literal fits (a string into V, a number into D): a
    // literal that does not fit is refused at plan time.
    let bound = |first: &str, second: &str| {
        let col = if second.starts_with('\'') { "V" } else { "D" };
        cached(&w, &format!("UPDATE T SET {col} = {first} WHERE K = 1")).unwrap();
        let Plan::Update(p) =
            cached(&w, &format!("UPDATE T SET {col} = {second} WHERE K = 2")).unwrap()
        else {
            panic!()
        };
        p.sets.sets[0].1.clone()
    };
    let int = |n| Expr::Lit(Value::Int(n));
    let string = |s: &str| Expr::Lit(Value::Str(s.into()));
    assert_eq!(bound("+ -1", "+ -37"), int(-37));
    assert_eq!(bound("- - 1", "- - 5"), int(5));
    assert_eq!(bound("1", "2147483647"), int(i32::MAX));
    assert_eq!(
        bound("1", "2147483648"),
        Expr::Lit(Value::LargeInt(2_147_483_648))
    );
    // LargeInt first, then negated: not Int(i32::MIN).
    assert_eq!(
        bound("-1", "-2147483648"),
        Expr::Lit(Value::LargeInt(-2_147_483_648))
    );
    assert_eq!(bound("1", "2e3"), Expr::Lit(Value::Double(2000.0)));
    assert_eq!(bound("-(1)", "-(4.5)"), Expr::Lit(Value::Double(-4.5)));
    assert_eq!(bound("'a'", "'O''BRIEN'"), string("O'BRIEN"));
    // A negated string is not folded: it stays `0 - 'x'`.
    let zero_minus = |e| Expr::Arith(Box::new(int(0)), ArithOp::Sub, Box::new(e));
    assert_eq!(bound("-'a'", "-'x'"), zero_minus(string("x")));
    assert_eq!(
        bound("- -'a'", "- -'x'"),
        zero_minus(zero_minus(string("x")))
    );
}

#[test]
fn a_like_pattern_is_syntax_and_is_not_templated() {
    let w = world();
    all_types(&w);
    w.count("INSERT INTO T (K, I, V) VALUES (1, 0, 'ALPHA'), (2, 0, 'BETA'), (3, 0, 'OMEGA')");
    for (pattern, rows) in [("A%", 1), ("B%", 1), ("%A", 3), ("A%", 1)] {
        let sql = format!("SELECT K FROM T WHERE V LIKE '{pattern}'");
        assert!(template(&sql).is_err(), "{sql}");
        cached(&w, &sql).unwrap();
        assert_eq!(w.rows(&sql).rows.len(), rows, "{sql}");
    }
}

#[test]
fn in_lists_of_different_lengths_are_different_shapes() {
    let w = world();
    all_types(&w);
    let pushdown = |sql: &str| {
        let Plan::Select(p) = cached(&w, sql).unwrap() else {
            panic!()
        };
        let AccessPath::TableScan {
            pushdown: Some(e), ..
        } = &p.tables[0].access
        else {
            panic!("{:?}", p.tables[0].access)
        };
        e.to_string()
    };
    assert_eq!(pushdown("SELECT K FROM T WHERE I IN (1,2)"), "F2 IN (1, 2)");
    assert_eq!(
        pushdown("SELECT K FROM T WHERE I IN (1,2,3)"),
        "F2 IN (1, 2, 3)"
    );
    assert_eq!(pushdown("SELECT K FROM T WHERE I IN (4,5)"), "F2 IN (4, 5)");
}

#[test]
fn a_cached_shape_follows_the_catalog_across_drop_and_create() {
    let w = world();
    w.run("CREATE TABLE U (A INT NOT NULL, B INT, PRIMARY KEY (A))")
        .unwrap();
    let fetched = |sql: &str| {
        let Plan::Select(p) = cached(&w, sql).unwrap() else {
            panic!()
        };
        let t = &p.tables[0];
        (t.fetch_fields.clone(), t.info.open.desc.num_fields())
    };
    assert_eq!(fetched("SELECT B FROM U WHERE A = 1"), (vec![1], 2));
    w.run("DROP TABLE U").unwrap();
    let ddl = "CREATE TABLE U (A INT NOT NULL, X CHAR(8), B DOUBLE, PRIMARY KEY (A))";
    assert!(template(ddl).is_err(), "DDL is planned as written");
    cached(&w, ddl).unwrap();
    w.run(ddl).unwrap();
    assert_eq!(fetched("SELECT B FROM U WHERE A = 2"), (vec![2], 3));
    // A column the new table lacks fails as planning the text does.
    w.run("DROP TABLE U").unwrap();
    w.run("CREATE TABLE U (A INT NOT NULL, PRIMARY KEY (A))")
        .unwrap();
    let err = cached(&w, "SELECT B FROM U WHERE A = 3").unwrap_err();
    assert_eq!(err.to_string(), "unknown column B");
}

#[test]
fn cache_errors_read_as_parse_errors() {
    let w = world();
    all_types(&w);
    for sql in [
        "SELECT ~ FROM T",
        "SELECT * FROM T WHERE V = 'open",
        "SELECT * FROM T WHERE I = 99999999999999999999",
        "SELECT * FROM",
        "SELEC * FROM T",
        "SELECT * FROM T WHERE V LIKE 7",
        "SELECT NOPE FROM T",
        "SELECT * FROM NOPE WHERE K = 1",
        "INSERT INTO T VALUES (1)",
    ] {
        // Unseen, then seen.
        for _ in 0..2 {
            let err = cached(&w, sql).unwrap_err();
            if let Err(e) = parse(sql) {
                assert_eq!(err.to_string(), e.to_string(), "{sql}");
            }
        }
    }
}

const COLUMNS: [&str; 7] = ["K", "S", "I", "L", "D", "C", "V"];

/// A literal: `shape` decides where it is, its sign and mostly its kind
/// (number, string, NULL), `values` its value, so a text redrawn from the
/// same `shape` seed has other literals and mostly the same shape. Where
/// `values` decides between a string and a number, the two texts are of
/// different shapes that differ in nothing but that literal's kind.
fn literal(shape: &mut SimRng, values: &mut SimRng) -> String {
    let string = match shape.below(8) {
        0 => return "NULL".into(),
        1 => values.chance(0.5),
        2 => true,
        _ => false,
    };
    let value = if string {
        format!("'{}'", ["", "ab", "O''B", "zz "][values.below(4) as usize])
    } else {
        match values.below(4) {
            0 => values.between(0, 40).to_string(),
            1 => (2_147_483_646 + values.between(0, 3)).to_string(),
            2 => format!("{}.{}", values.between(0, 99), values.between(0, 9)),
            _ => format!("{}e{}", values.between(1, 9), values.between(0, 3)),
        }
    };
    let signed = format!(
        "{}{value}",
        ["", "-", "+ ", "- -", "+ -"][shape.below(5) as usize]
    );
    if shape.chance(0.15) {
        format!("-({signed})")
    } else {
        signed
    }
}

fn predicate(shape: &mut SimRng, values: &mut SimRng, depth: u32) -> String {
    let col = COLUMNS[shape.below(7) as usize];
    let op = ["=", "<>", "<", "<=", ">", ">=", "!="][shape.below(7) as usize];
    let not = if shape.chance(0.3) { "NOT " } else { "" };
    match shape.below(if depth > 1 { 6 } else { 9 }) {
        0 => format!("{col} {op} {}", literal(shape, values)),
        1 => format!("{} {op} {col}", literal(shape, values)),
        2 => format!(
            "{col} {not}BETWEEN {} AND {}",
            literal(shape, values),
            literal(shape, values)
        ),
        3 => {
            let list: Vec<String> = (0..=shape.below(3))
                .map(|_| literal(shape, values))
                .collect();
            format!("{col} {not}IN ({})", list.join(", "))
        }
        4 => format!("{col} IS {not}NULL"),
        5 => format!(
            "{col} * {} {op} {}",
            literal(shape, values),
            literal(shape, values)
        ),
        6 => format!("NOT ({})", predicate(shape, values, depth + 1)),
        7 => format!(
            "{} AND {}",
            predicate(shape, values, depth + 1),
            predicate(shape, values, depth + 1)
        ),
        _ => format!(
            "({} OR {})",
            predicate(shape, values, depth + 1),
            predicate(shape, values, depth + 1)
        ),
    }
}

fn dml(shape: &mut SimRng, values: &mut SimRng) -> String {
    let p = predicate(shape, values, 0);
    let text = match shape.below(6) {
        0 => format!("SELECT K, V FROM T WHERE {p}"),
        1 => format!("SELECT I, COUNT(*), SUM(D) FROM T WHERE {p} GROUP BY I"),
        2 => format!(
            "UPDATE T SET D = D * {}, S = {} WHERE {p}",
            literal(shape, values),
            literal(shape, values)
        ),
        3 => format!("DELETE FROM T WHERE {p}"),
        4 => {
            let row: Vec<String> = (0..7).map(|_| literal(shape, values)).collect();
            format!("INSERT INTO T VALUES ({})", row.join(", "))
        }
        _ => format!("SELECT * FROM T WHERE {p} ORDER BY D DESC"),
    };
    if shape.chance(0.2) {
        format!("EXPLAIN {text}")
    } else {
        text
    }
}

/// Cache on vs cache off: for random DML over all six field types the
/// cache's plan is `plan(parse(text))`, errors included. Each skeleton is
/// drawn twice with other literals, so the second text mostly plans from
/// the template the first one left. `UPDATE` refuses at plan time a SET
/// literal that does not fit its column, so about a quarter of the texts
/// fail; 600 skeletons keep both counts above their floors.
#[test]
fn cached_plans_equal_parsed_plans() {
    let w = world();
    all_types(&w);
    w.run("CREATE INDEX T_I ON T (I) ON '$IDX'").unwrap();
    let mut values = SimRng::seed_from(0x2701);
    let (mut planned, mut failed) = (0, 0);
    for case in 0..600 {
        let first = dml(&mut SimRng::seed_from(case), &mut values);
        let second = dml(&mut SimRng::seed_from(case), &mut values);
        for text in [first, second] {
            match cached(&w, &text) {
                Ok(_) => planned += 1,
                Err(_) => failed += 1,
            }
        }
    }
    assert!(
        planned > 800 && failed > 150,
        "{planned} planned, {failed} failed"
    );
}
