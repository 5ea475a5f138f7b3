//! Observability: EXPLAIN ANALYZE attribution, virtual-time tracing, and
//! histogram determinism across the FS-DP stack.

use nonstop_sql::ClusterBuilder;
use nsql_records::Value;
use nsql_sim::format_sequence;
use nsql_workloads::Wisconsin;

fn wisconsin_db(rows: u32) -> nonstop_sql::Cluster {
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    Wisconsin::create(&db, "WISC", rows, &["$DATA1"], 1).unwrap();
    db
}

/// Flush and drop every volume's buffer pool so the next scan pays disk
/// reads (the Wisconsin loader leaves the table fully cached).
fn cold_caches(db: &nonstop_sql::Cluster) {
    for v in db.volumes() {
        let dp = db.dp(&v);
        dp.pool().flush_all().unwrap();
        dp.pool().crash();
    }
}

fn cell_i64(v: &Value) -> i64 {
    match v {
        Value::LargeInt(n) => *n,
        other => panic!("expected LARGEINT, got {other:?}"),
    }
}

/// The acceptance check: per-operator FS-DP message counts of an EXPLAIN
/// ANALYZE sum exactly to the statement's global `msgs_fs_dp` delta.
#[test]
fn explain_analyze_messages_match_global_delta() {
    let db = wisconsin_db(2_000);
    let mut s = db.session();
    let r = s
        .query("EXPLAIN ANALYZE SELECT UNIQUE1, UNIQUE2 FROM WISC WHERE UNIQUE1 < 100")
        .unwrap();
    assert_eq!(
        r.columns,
        vec![
            "OPERATOR",
            "ROWS",
            "MSGS FS-DP",
            "DISK READS",
            "DISK WRITES",
            "ELAPSED US"
        ]
    );
    // One scan operator, one project operator, one TOTAL row, then the
    // per-entity MEASURE breakdown (`@kind name` rows).
    assert!(r.rows.len() > 3);
    let op = |i: usize| match &r.rows[i].0[0] {
        Value::Str(s) => s.clone(),
        other => panic!("expected operator name, got {other:?}"),
    };
    assert!(op(0).starts_with("SCAN WISC via VSBB"), "got {}", op(0));
    assert_eq!(op(1), "PROJECT");
    assert_eq!(op(2), "TOTAL");
    // The selective scan returned 100 rows.
    assert_eq!(cell_i64(&r.rows[0].0[1]), 100);
    assert_eq!(cell_i64(&r.rows[2].0[1]), 100);

    // Per-operator message counts sum to the TOTAL row ...
    let msgs: i64 = (0..2).map(|i| cell_i64(&r.rows[i].0[2])).sum();
    assert_eq!(msgs, cell_i64(&r.rows[2].0[2]));
    // ... and the TOTAL matches the statement's global counter delta.
    let stats = s.last_stats().unwrap();
    assert_eq!(msgs as u64, stats.metrics.msgs_fs_dp);
    assert!(stats.metrics.msgs_fs_dp > 0);
    // Virtual elapsed time is the sum of the operator windows.
    let elapsed: i64 = (0..2).map(|i| cell_i64(&r.rows[i].0[5])).sum();
    assert_eq!(elapsed, cell_i64(&r.rows[2].0[5]));
    assert_eq!(elapsed as u64, stats.elapsed_us);

    // The MEASURE breakdown attributes the statement to its entities: the
    // Disk Process received the FS-DP messages, and the scanned file saw
    // every record examined.
    let entity = |prefix: &str| {
        r.rows[3..]
            .iter()
            .find(|row| matches!(&row.0[0], Value::Str(s) if s.starts_with(prefix)))
            .unwrap_or_else(|| panic!("no `{prefix}` row in the breakdown"))
    };
    let dp_row = entity("@process $DATA1");
    assert_eq!(cell_i64(&dp_row.0[2]), msgs, "DP received every message");
    let file_row = entity("@file $DATA1#F");
    assert!(
        cell_i64(&file_row.0[1]) >= 2_000,
        "the scan examined every record of the file"
    );
}

/// EXPLAIN ANALYZE over DML: one operator for the statement plus a COMMIT
/// operator (autocommit), summing to the global delta.
#[test]
fn explain_analyze_dml_measures_commit() {
    let db = wisconsin_db(500);
    let mut s = db.session();
    let r = s
        .query("EXPLAIN ANALYZE UPDATE WISC SET UNIQUE1 = UNIQUE1 + 0 WHERE UNIQUE2 < 50")
        .unwrap();
    assert!(r.rows.len() >= 3);
    let op0 = match &r.rows[0].0[0] {
        Value::Str(s) => s.clone(),
        _ => panic!(),
    };
    assert!(op0.starts_with("UPDATE^SUBSET on WISC"), "got {op0}");
    assert_eq!(
        r.rows[1].0[0],
        Value::Str("COMMIT".into()),
        "autocommit DML must show its commit cost"
    );
    assert_eq!(cell_i64(&r.rows[0].0[1]), 50); // 50 rows updated
    let msgs: i64 = (0..2).map(|i| cell_i64(&r.rows[i].0[2])).sum();
    assert_eq!(msgs, cell_i64(&r.rows[2].0[2]));
    let stats = s.last_stats().unwrap();
    assert_eq!(msgs as u64, stats.metrics.msgs_fs_dp);
}

/// Plain EXPLAIN still renders the un-annotated plan.
#[test]
fn explain_without_analyze_unchanged() {
    let db = wisconsin_db(100);
    let mut s = db.session();
    let r = s
        .query("EXPLAIN SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 10")
        .unwrap();
    assert_eq!(r.columns, vec!["PLAN"]);
    match &r.rows[0].0[0] {
        Value::Str(line) => assert!(line.starts_with("SCAN WISC via VSBB"), "got {line}"),
        other => panic!("expected plan line, got {other:?}"),
    }
}

/// The opening request an EXPLAIN access line names, and the process it
/// goes to (`None`: the line sends no request).
fn named_request(line: &str) -> Option<(&'static str, &'static str)> {
    let to = if line.contains("INDEX SCAN") {
        "$IDX"
    } else {
        "$DATA1"
    };
    let verb = if line.contains("SYS SCAN") {
        return None;
    } else if line.contains("(BROWSE)") {
        "READ^NEXT"
    } else if line.contains("AGGREGATE at DP") {
        "AGGREGATE^SUBSET^FIRST"
    } else if line.contains("via RSBB") {
        "GET^FIRST^RSBB"
    } else if line.contains("via VSBB") || line.contains("INDEX SCAN") {
        "GET^FIRST^VSBB"
    } else if line.contains("UPDATE^SUBSET") {
        "UPDATE^SUBSET^FIRST"
    } else if line.contains("DELETE^SUBSET") {
        "DELETE^SUBSET^FIRST"
    } else {
        panic!("EXPLAIN line names no access: {line}")
    };
    Some((verb, to))
}

/// For every SELECT shape and every kind of set write, each access line of
/// EXPLAIN names the request that opens that access in the statement's
/// trace: RSBB, VSBB, an aggregate folded at the Disk Process,
/// record-at-a-time browse, the index's Disk Process, no request for
/// `sys.*`, and the row-at-a-time read of a write that keeps an index.
#[test]
fn explain_names_the_request_that_runs() {
    use nsql_sim::{TraceEventKind, TraceMsgClass};

    let db = ClusterBuilder::new()
        .volume("$DATA1", 0, 1)
        .volume("$IDX", 0, 2)
        .build();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE EMP (EMPNO INT NOT NULL, NAME CHAR(12) NOT NULL, \
         DEPT INT NOT NULL, SALARY DOUBLE, PRIMARY KEY (EMPNO))",
    )
    .unwrap();
    s.execute(
        "CREATE TABLE DEPT (DEPTNO INT NOT NULL, DNAME CHAR(8) NOT NULL, PRIMARY KEY (DEPTNO))",
    )
    .unwrap();
    for i in 0..10 {
        s.execute(&format!(
            "INSERT INTO EMP VALUES ({i}, 'E{i}', {}, {i}.5)",
            i % 3
        ))
        .unwrap();
    }
    for d in 0..3 {
        s.execute(&format!("INSERT INTO DEPT VALUES ({d}, 'D{d}')"))
            .unwrap();
    }
    s.execute("CREATE INDEX EMP_DEPT ON EMP (DEPT) ON '$IDX'")
        .unwrap();
    db.sim.trace.enable_default();

    let shapes = [
        "SELECT * FROM EMP",
        "SELECT NAME FROM EMP",
        "SELECT * FROM EMP WHERE SALARY > 4.0",
        "SELECT NAME FROM EMP WHERE SALARY > 4.0 FOR BROWSE RECORD ACCESS",
        "SELECT EMPNO, DEPT FROM EMP WHERE DEPT = 1",
        "SELECT NAME FROM EMP WHERE DEPT = 1",
        "SELECT * FROM sys.sessions",
        "SELECT E.NAME, D.DNAME FROM EMP E, DEPT D WHERE E.DEPT = D.DEPTNO",
        "SELECT DEPT, COUNT(*) FROM EMP GROUP BY DEPT",
        "UPDATE EMP SET SALARY = SALARY + 1 WHERE EMPNO < 4",
        "UPDATE EMP SET DEPT = DEPT + 1 WHERE EMPNO < 4",
        "DELETE FROM EMP WHERE EMPNO = 5",
        "DELETE FROM DEPT WHERE DEPTNO = 2",
    ];
    let mut seen = std::collections::BTreeSet::new();
    for sql in shapes {
        let explain = s.query(&format!("EXPLAIN {sql}")).unwrap();
        let lines: Vec<String> = explain.rows.iter().map(|r| r.0[0].to_string()).collect();
        let access: Vec<&str> = lines
            .iter()
            .map(|l| l.strip_prefix("NESTED-LOOP JOIN with ").unwrap_or(l))
            .filter(|l| !l.starts_with(' ') && !l.starts_with("JOIN FILTER"))
            .filter(|l| {
                !["AGGREGATE", "SORT", "PROJECT"]
                    .iter()
                    .any(|w| l.starts_with(w))
            })
            .collect();
        let named: Vec<_> = access.iter().filter_map(|l| named_request(l)).collect();

        // Run it (a write is rolled back, so every statement sees the
        // same rows) and take its FS-DP requests from the trace.
        s.execute("BEGIN WORK").unwrap();
        s.execute(sql).unwrap();
        let sent: Vec<(String, String)> = s
            .last_stats()
            .unwrap()
            .trace
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::Msg {
                    class: TraceMsgClass::FsDp,
                    label,
                    to,
                    ..
                } => Some((label.clone(), to.clone())),
                _ => None,
            })
            .collect();
        s.execute("ROLLBACK WORK").unwrap();

        // The request that opens each access: a subset FIRST, or the first
        // of a run of record-at-a-time reads.
        let mut opened = Vec::new();
        for (i, (label, to)) in sent.iter().enumerate() {
            let browse_starts = label == "READ^NEXT" && (i == 0 || sent[i - 1].0 != "READ^NEXT");
            if label.contains("FIRST") || browse_starts {
                opened.push((label.as_str(), to.as_str()));
            }
        }
        assert_eq!(
            opened, named,
            "{sql}: EXPLAIN says {lines:#?}, sent {sent:?}"
        );
        if let [line] = access.as_slice() {
            if line.contains("INDEX SCAN") {
                // Only a base fetch reads the base file after the index.
                let base_reads = sent.iter().any(|(l, to)| l == "READ" && to == "$DATA1");
                assert_eq!(base_reads, line.contains("fetch base rows"), "{sql}");
            }
            if line.contains("SYS SCAN") {
                assert!(sent.is_empty(), "{sql}: {sent:?}");
            }
        }
        seen.extend(named.iter().map(|(verb, _)| *verb));
    }
    // Every kind of opening request was exercised.
    assert_eq!(seen.len(), 6, "{seen:?}");
}

/// A statement's captured trace slice contains its FS-DP conversation, and
/// the formatter renders the paper's message-sequence shape.
#[test]
fn statement_trace_slice_renders_sequence() {
    let db = wisconsin_db(2_000);
    db.sim.trace.enable_default();
    let mut s = db.session();
    s.query("SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 500")
        .unwrap();
    let stats = s.last_stats().unwrap();
    assert!(!stats.trace.is_empty());
    let rendered = format_sequence(&stats.trace);
    // GET^FIRST opens the subset, then continuation re-drives follow.
    let first = rendered
        .lines()
        .position(|l| l.contains("GET^FIRST^VSBB"))
        .expect("sequence must open with GET^FIRST^VSBB");
    let next = rendered
        .lines()
        .position(|l| l.contains("GET^NEXT"))
        .expect("bounded reply buffer forces a re-drive");
    assert!(first < next);
    assert!(rendered.contains("$DATA1"));
}

/// Two identical runs produce byte-identical trace streams and identical
/// histogram buckets — the simulation stays deterministic under tracing.
#[test]
fn tracing_is_deterministic() {
    type Buckets = Vec<Vec<(u64, u64, u64)>>;
    fn run() -> (String, Buckets) {
        let db = wisconsin_db(1_000);
        db.sim.trace.enable_default();
        let mut s = db.session();
        s.query("SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 300")
            .unwrap();
        s.execute("UPDATE WISC SET UNIQUE1 = UNIQUE1 + 0 WHERE UNIQUE2 < 20")
            .unwrap();
        let rendered = format_sequence(&db.sim.trace.events());
        let h = &db.sim.hist;
        let buckets = vec![
            h.msg_bytes.buckets(),
            h.stmt_latency_us.buckets(),
            h.commit_group.buckets(),
            h.redrive_chain.buckets(),
        ];
        (rendered, buckets)
    }
    let (seq_a, hist_a) = run();
    let (seq_b, hist_b) = run();
    assert_eq!(seq_a, seq_b);
    assert_eq!(hist_a, hist_b);
    assert!(!seq_a.is_empty());
}

/// Tracing must not perturb the simulation: with tracing on, every counter
/// and the virtual clock land exactly where they do with tracing off.
#[test]
fn tracing_is_zero_cost_when_disabled_and_invisible_when_enabled() {
    fn run(traced: bool) -> (u64, u64, u64, u64) {
        let db = wisconsin_db(1_000);
        if traced {
            db.sim.trace.enable_default();
        }
        let mut s = db.session();
        s.query("SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 300")
            .unwrap();
        s.execute("UPDATE WISC SET UNIQUE1 = UNIQUE1 + 0 WHERE UNIQUE2 < 20")
            .unwrap();
        let m = db.sim.metrics.snapshot();
        (
            db.sim.clock.now(),
            m.msgs_total,
            m.msgs_fs_dp,
            m.disk_reads + m.disk_writes,
        )
    }
    assert_eq!(run(false), run(true));
}

/// Fault-plane events (drop / duplicate / delay / retry) appear in the
/// trace, render in the sequence diagram, and are fully deterministic:
/// identical seeds over identical workloads give byte-identical traces.
#[test]
fn fault_tracing_is_deterministic() {
    use nonstop_sql::FaultConfig;
    fn run(seed: u64) -> (String, u64, u64) {
        let db = wisconsin_db(1_000);
        db.sim.trace.enable_default();
        db.enable_faults(FaultConfig {
            drop: 0.15,
            duplicate: 0.1,
            delay: 0.1,
            ..FaultConfig::with_seed(seed)
        });
        let mut s = db.session();
        s.query("SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 300")
            .unwrap();
        s.execute("UPDATE WISC SET UNIQUE1 = UNIQUE1 + 0 WHERE UNIQUE2 < 20")
            .unwrap();
        db.disable_faults();
        let m = db.sim.metrics.snapshot();
        (
            format_sequence(&db.sim.trace.events()),
            m.faults_injected,
            m.fs_retries,
        )
    }
    let (seq_a, faults_a, retries_a) = run(5);
    let (seq_b, faults_b, retries_b) = run(5);
    assert_eq!(seq_a, seq_b, "same seed must give byte-identical traces");
    assert_eq!((faults_a, retries_a), (faults_b, retries_b));
    assert!(faults_a > 0, "aggressive config must inject something");
    assert!(retries_a > 0, "drops must surface as FS retries");
    assert!(
        seq_a.contains("fault:"),
        "injections render in the sequence"
    );
    assert!(seq_a.contains("retry #"), "retries render in the sequence");
    let (seq_c, ..) = run(6);
    assert_ne!(seq_a, seq_c, "different seeds must differ");
}

/// The per-statement histograms fill in as statements run.
#[test]
fn histograms_observe_statements() {
    let db = wisconsin_db(2_000);
    let mut s = db.session();
    s.query("SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 500")
        .unwrap();
    let h = &db.sim.hist;
    assert!(h.stmt_latency_us.count() > 0);
    assert!(h.msg_bytes.count() > 0);
    // The 500-row VSBB scan needs several reply buffers: a chain > 1.
    assert!(h.redrive_chain.max() > 1);
    assert!(h.stmt_latency_us.percentile(0.99) >= h.stmt_latency_us.percentile(0.50));
}

/// Satellite: the bounded trace ring reports what it evicted. A tiny ring
/// under a large scan must overflow, the drop count must surface in the
/// statement's MEASURE report, and EXPLAIN ANALYZE must render a
/// `TRACE DROPPED` row rather than silently truncating.
#[test]
fn trace_ring_overflow_is_surfaced_not_silent() {
    let db = wisconsin_db(2_000);
    db.sim.trace.enable(2); // 2-event ring: guaranteed overflow
    let mut s = db.session();
    s.query("SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 500")
        .unwrap();
    let stats = s.last_stats().unwrap();
    assert!(
        stats.measure.trace_dropped > 0,
        "a 2-event ring must drop events under a 500-row scan"
    );

    let r = s
        .query("EXPLAIN ANALYZE SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 500")
        .unwrap();
    let dropped_row = r
        .rows
        .iter()
        .find(|row| matches!(&row.0[0], Value::Str(s) if s == "TRACE DROPPED"))
        .expect("overflow must surface as a TRACE DROPPED row");
    assert!(cell_i64(&dropped_row.0[1]) > 0);
}

/// Tentpole: every statement's elapsed virtual time decomposes into the
/// exhaustive wait categories with *exact* summation — no tolerance, no
/// unattributed `other` bucket — and the decomposition is visible from
/// QueryStats, the per-category histograms, and the metric counters.
#[test]
fn statement_wait_profile_sums_exactly_to_elapsed() {
    use nsql_sim::Wait;
    let db = wisconsin_db(2_000);
    cold_caches(&db);
    let mut s = db.session();
    s.query("SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 500")
        .unwrap();
    let select = s.last_stats().unwrap().clone();
    assert_eq!(
        select.wait.total(),
        select.elapsed_us,
        "wait categories must sum exactly to elapsed time: {}",
        select.wait
    );
    assert_eq!(select.wait.get(Wait::Other), 0, "{}", select.wait);
    assert!(select.wait.get(Wait::Msg) > 0, "{}", select.wait);
    assert!(
        select.wait.get(Wait::Disk) > 0,
        "the cold scan must show disk time: {}",
        select.wait
    );

    s.execute("UPDATE WISC SET UNIQUE1 = UNIQUE1 + 0 WHERE UNIQUE2 < 20")
        .unwrap();
    let update = s.last_stats().unwrap().clone();
    assert_eq!(update.wait.total(), update.elapsed_us, "{}", update.wait);
    assert!(
        update.wait.get(Wait::Commit) > 0,
        "autocommit DML must show group-commit time: {}",
        update.wait
    );

    // The same ledger feeds the always-on per-category histograms ...
    let h = &db.sim.hist;
    assert!(h.stmt_wait(Wait::Msg).count() >= 2);
    assert!(h.stmt_wait(Wait::Commit).count() >= 1);
    assert_eq!(h.stmt_wait(Wait::Other).count(), 0);
    assert!(h.stmt_wait(Wait::Disk).percentile(0.999) >= h.stmt_wait(Wait::Disk).percentile(0.50));
    // ... and the metric counters, which reassemble into the same totals.
    let counters = db.sim.metrics.snapshot().stmt_wait();
    assert_eq!(
        counters.get(Wait::Commit),
        select.wait.get(Wait::Commit) + update.wait.get(Wait::Commit)
    );
}

/// Tentpole: EXPLAIN ANALYZE renders the critical-path decomposition as a
/// WAIT PROFILE section — one row per category plus a WAIT TOTAL row whose
/// categories sum exactly to the measured window's elapsed time.
#[test]
fn explain_analyze_renders_exact_wait_profile() {
    let db = wisconsin_db(2_000);
    cold_caches(&db);
    let mut s = db.session();
    let r = s
        .query("EXPLAIN ANALYZE SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 500")
        .unwrap();
    let wait_rows: Vec<(&str, i64)> = r
        .rows
        .iter()
        .filter_map(|row| match &row.0[0] {
            Value::Str(name) if name.starts_with("WAIT ") => {
                Some((name.as_str(), cell_i64(&row.0[5])))
            }
            _ => None,
        })
        .collect();
    // Nine categories, then the total.
    let names: Vec<&str> = wait_rows.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        [
            "WAIT cpu",
            "WAIT msg",
            "WAIT disk",
            "WAIT lock",
            "WAIT commit",
            "WAIT retry",
            "WAIT restart",
            "WAIT admission",
            "WAIT other",
            "WAIT TOTAL"
        ]
    );
    let total = wait_rows.last().unwrap().1;
    let sum: i64 = wait_rows[..9].iter().map(|(_, us)| us).sum();
    assert_eq!(sum, total, "categories must sum exactly to the window");
    // The window is the analyzed statement itself: the operator TOTAL row.
    assert_eq!(total, cell_i64(&r.rows[2].0[5]));
    assert_eq!(wait_rows[6].1, 0, "no crash: nothing lands in WAIT restart");
    assert_eq!(wait_rows[7].1, 0, "no gate here: WAIT admission is empty");
    assert_eq!(wait_rows[8].1, 0, "nothing may land in WAIT other");
    assert!(wait_rows[2].1 > 0, "the cold scan has disk time");
}

/// Tentpole: the span headers carried on every FS-DP request assemble into
/// one causal tree per statement, with exact self-time attribution.
#[test]
fn statement_spans_assemble_into_a_causal_tree() {
    use nsql_sim::{assemble_spans, Wait};
    let db = wisconsin_db(2_000);
    db.sim.trace.enable_default();
    let mut s = db.session();
    s.query("SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 500")
        .unwrap();
    let stats = s.last_stats().unwrap();
    let roots = assemble_spans(&stats.trace);
    assert_eq!(roots.len(), 1, "one statement, one root span");
    let root = &roots[0];
    assert_eq!(root.label, "SELECT");
    assert_eq!(root.parent, 0);
    // The FS-DP conversation hangs off the statement: the opening request
    // and its continuation re-drives, each with the DP-side handling span
    // as a child sharing the statement's trace id.
    assert!(
        root.children.len() > 1,
        "bounded reply buffers force re-drive request spans"
    );
    let first = &root.children[0];
    assert_eq!(first.label, "GET^FIRST^VSBB");
    assert_eq!(first.trace, root.trace);
    assert_eq!(first.children.len(), 1, "the DP handled the request once");
    assert_eq!(first.children[0].track, "$DATA1");
    assert!(root.children.iter().any(|c| c.label == "GET^NEXT"));
    // Inclusive wait of every span sums exactly to its elapsed time, and
    // self-time never goes negative (children are properly nested).
    fn check(n: &nsql_sim::SpanNode) {
        assert_eq!(n.wait.total(), n.elapsed(), "span {}: {}", n.span, n.wait);
        let child_sum: u64 = n.children.iter().map(|c| c.wait.total()).sum();
        assert!(child_sum <= n.wait.total(), "span {}", n.span);
        for c in &n.children {
            check(c);
        }
    }
    check(root);
    // The request spans spend their time in the message system and on
    // disk; the statement's own self-time is executor CPU.
    assert!(first.wait.get(Wait::Msg) > 0);
    assert!(root.self_wait().get(Wait::Cpu) > 0);
}

/// The per-statement MEASURE delta is exactly the statement's own work:
/// a second identical statement produces an identical delta, and an idle
/// statement window produces none for the data volume.
#[test]
fn statement_measure_deltas_are_isolated_and_deterministic() {
    use nsql_sim::{Ctr, EntityKind};
    let db = wisconsin_db(1_000);
    let mut s = db.session();
    s.query("SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 200")
        .unwrap();
    let a = s.last_stats().unwrap().measure.clone();
    s.query("SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 200")
        .unwrap();
    let b = s.last_stats().unwrap().measure.clone();
    assert!(!a.snap.is_zero());
    assert_eq!(
        a.snap.total(EntityKind::Process, Ctr::MsgsRecv),
        b.snap.total(EntityKind::Process, Ctr::MsgsRecv),
        "identical statements must cost identical messages"
    );
    // Cached second run: no more disk reads than the cold first run.
    assert!(
        b.snap.total(EntityKind::Volume, Ctr::DiskReads)
            <= a.snap.total(EntityKind::Volume, Ctr::DiskReads)
    );
}

/// The recovery counters account for a restart's replay — scanned, REDO
/// and UNDO record counts — and render in the MEASURE report under their
/// registered dotted names.
#[test]
fn recovery_counters_are_recorded_and_rendered() {
    use nsql_sim::{Ctr, EntityKind, MeasureReport};
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    let mut s = db.session();
    s.execute("CREATE TABLE T (K INT NOT NULL, V INT NOT NULL, PRIMARY KEY (K))")
        .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for k in 0..20 {
        s.execute(&format!("INSERT INTO T VALUES ({k}, {k})"))
            .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();

    // An in-flight loser whose audit reaches the durable trail: send each
    // record to the trail eagerly, then let a committed writer's group
    // flush carry it to disk.
    db.dp("$DATA1").set_audit_send_threshold(0);
    s.execute("BEGIN WORK").unwrap();
    s.execute("UPDATE T SET V = -1 WHERE K = 3").unwrap();
    let mut s2 = db.session();
    s2.execute("INSERT INTO T VALUES (900, 900)").unwrap();

    let before = MeasureReport::capture(&db.sim);
    db.crash_and_restart(0, 1);
    let delta = MeasureReport::capture(&db.sim).since(&before);
    let get = |c| delta.snap.get(EntityKind::Process, "$DATA1", c);
    let (scanned, redo, undo) = (
        get(Ctr::RecoveryScanned),
        get(Ctr::RecoveryRedo),
        get(Ctr::RecoveryUndo),
    );
    assert!(scanned > 0, "restart must scan the durable trail");
    assert!(redo > 0, "committed records must be redone");
    assert!(undo > 0, "the durable loser record must be undone");
    assert!(redo + undo <= scanned, "replay work is bounded by the scan");

    let text = delta.render();
    for name in ["recovery.scanned", "recovery.redo", "recovery.undo"] {
        assert!(text.contains(name), "{name} missing from MEASURE report");
    }

    // The loser's update is gone; committed state is intact.
    let mut s3 = db.session();
    let r = s3.query("SELECT V FROM T WHERE K = 3").unwrap();
    assert_eq!(r.rows[0].0[0], Value::Int(3));
    let r = s3.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0].0[0], Value::LargeInt(21));
}

/// A contended multi-terminal run bumps every contention-survival counter
/// — deadlock detection/victim/retry, lock-wait timeouts, admission
/// queueing — and the MEASURE report renders them under their registered
/// dotted names.
#[test]
fn contention_counters_are_recorded_and_rendered() {
    use nsql_sim::{Ctr, EntityKind, MeasureReport};
    use nsql_workloads::{run_load, Bank, LoadConfig};
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    db.set_lock_wait_timeout(2_500);
    let bank = Bank::create(&db, 1, 10, "$DATA1").unwrap();

    let before = MeasureReport::capture(&db.sim);
    let cfg = LoadConfig {
        terminals: 12,
        duration_us: 150_000,
        mean_think_us: 600.0, // overload: keeps the admission gate busy
        zipf_theta: 1.2,      // brutal hotspot: convoys and cycles
        max_inflight: 3,
        seed: 5,
        ..LoadConfig::default()
    };
    let out = run_load(&db, &bank, &cfg);
    let delta = MeasureReport::capture(&db.sim).since(&before);

    let dp = |c| delta.snap.get(EntityKind::Process, "$DATA1", c);
    let tmf = |c| delta.snap.get(EntityKind::Txn, "TMF", c);
    assert!(dp(Ctr::DeadlockDetected) > 0, "no cycles detected: {out:?}");
    assert!(dp(Ctr::DeadlockVictims) > 0, "no victims doomed: {out:?}");
    assert!(dp(Ctr::LockWaitTimeouts) > 0, "no convoy timeouts: {out:?}");
    assert!(tmf(Ctr::DeadlockRetries) > 0, "no client retries: {out:?}");
    assert!(tmf(Ctr::AdmissionQueued) > 0, "gate never queued: {out:?}");
    assert_eq!(tmf(Ctr::DeadlockRetries), out.deadlock_retries);
    assert_eq!(tmf(Ctr::AdmissionQueued), out.admission_queued);

    let text = delta.render();
    for name in [
        "deadlock.detected",
        "deadlock.victim",
        "deadlock.retry",
        "lockwait.timeout",
        "admission.queued",
    ] {
        assert!(text.contains(name), "{name} missing from MEASURE report");
    }
}
