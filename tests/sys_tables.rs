//! The `sys.*` introspection schema: SQL-queryable telemetry served
//! through the normal planner/executor path from a coherent
//! statement-start snapshot.

use nonstop_sql::ClusterBuilder;
use nsql_records::Value;
use nsql_workloads::Wisconsin;
use std::collections::BTreeMap;

fn wisconsin_db(rows: u32) -> nonstop_sql::Cluster {
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    Wisconsin::create(&db, "WISC", rows, &["$DATA1"], 1).unwrap();
    db
}

fn cell_i64(v: &Value) -> i64 {
    match v {
        Value::LargeInt(n) => *n,
        other => panic!("expected LARGEINT, got {other:?}"),
    }
}

fn cell_str(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

/// `SELECT * FROM sys.counters` as a `(kind, entity, counter) -> value` map.
fn counters(s: &mut nonstop_sql::Session<'_>) -> BTreeMap<(String, String, String), i64> {
    let r = s.query("SELECT * FROM SYS.COUNTERS").unwrap();
    assert_eq!(r.columns, vec!["ENTITY_KIND", "ENTITY", "COUNTER", "VALUE"]);
    r.rows
        .iter()
        .map(|row| {
            (
                (
                    cell_str(&row.0[0]).to_string(),
                    cell_str(&row.0[1]).to_string(),
                    cell_str(&row.0[2]).to_string(),
                ),
                cell_i64(&row.0[3]),
            )
        })
        .collect()
}

fn diff(
    after: &BTreeMap<(String, String, String), i64>,
    before: &BTreeMap<(String, String, String), i64>,
) -> BTreeMap<(String, String, String), i64> {
    after
        .iter()
        .filter_map(|(k, v)| {
            let d = v - before.get(k).copied().unwrap_or(0);
            (d != 0).then(|| (k.clone(), d))
        })
        .collect()
}

/// Tentpole: the system can observe itself through its own SQL surface,
/// and self-observation is idempotent — the delta between back-to-back
/// `sys.counters` reads is exactly one statement's own cost, so the delta
/// reaches a fixed point immediately.
#[test]
fn sys_counters_self_observation_is_idempotent() {
    let db = wisconsin_db(200);
    let mut s = db.session();
    s.query("SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 10")
        .unwrap();

    let q1 = counters(&mut s);
    let q2 = counters(&mut s);
    let q3 = counters(&mut s);
    let q4 = counters(&mut s);

    // The first sys read makes the `$SYS` entity appear; from then on the
    // set of non-zero counters is stable, so each read costs the same.
    let d32 = diff(&q3, &q2);
    let d43 = diff(&q4, &q3);
    assert_eq!(d32, d43, "steady-state self-cost must be a fixed point");
    assert!(
        !d32.is_empty(),
        "a sys scan is not free (CPU + its own counter)"
    );

    // Exactly one virtual-scan tick per sys statement, attributed to $SYS.
    let key = (
        "process".to_string(),
        "$SYS".to_string(),
        "sys.scans".to_string(),
    );
    assert_eq!(d32.get(&key), Some(&1));
    // The bump is charged *after* the snapshot is captured, so the first
    // read does not see its own tick — only the next one does.
    assert!(
        !q1.contains_key(&key),
        "a read never sees its own scan tick"
    );
    assert_eq!(q2.get(&key), Some(&1));

    // A sys scan exchanges no FS-DP messages: it is served from the
    // statement snapshot, not from a Disk Process.
    let stats = s.last_stats().unwrap();
    assert_eq!(stats.metrics.msgs_fs_dp, 0);
    assert_eq!(stats.metrics.disk_reads, 0);
}

/// What used to exist only as a cluster total is a counter on an entity,
/// so `sys.counters` returns it — and every cluster total can be had from
/// SQL as the sum its definition names.
#[test]
fn sys_counters_carry_what_used_to_be_cluster_only() {
    let db = wisconsin_db(200);
    let mut s = db.session();
    let rows = s
        .query("SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 10")
        .unwrap();
    let totals = db.snapshot();
    let seen = counters(&mut s);
    let get = |kind: &str, entity: &str, counter: &str| {
        let key = (kind.to_string(), entity.to_string(), counter.to_string());
        seen.get(&key).copied().unwrap_or(0) as u64
    };
    assert_eq!(get("cluster", "cluster", "rows.returned"), 10);
    assert_eq!(rows.rows.len(), 10);
    assert_eq!(get("cluster", "cluster", "cpu.dp"), totals.cpu_dp);
    assert_eq!(
        get("cluster", "cluster", "cpu.executor"),
        totals.cpu_executor
    );
    assert!(get("cluster", "cluster", "stmt.wait.cpu") > 0);
    // One requester CPU, so its counters are the totals.
    assert_eq!(get("cpu", "\\0.0", "msgs.fs_dp"), totals.msgs_fs_dp);
    assert!(totals.msgs_fs_dp > 0);
    // The audit volume is an entity like the data volume.
    let (audit, data) = ("$AUDIT", "$DATA1");
    let writes = get("volume", audit, "disk.writes") + get("volume", data, "disk.writes");
    assert_eq!(writes, totals.disk_writes);
    assert!(get("volume", audit, "disk.writes") >= totals.audit_flushes);
}

/// Predicate pushdown works on virtual tables exactly as on real ones.
#[test]
fn sys_scan_pushdown_filters_rows() {
    let db = wisconsin_db(100);
    let mut s = db.session();
    // Warm: make the $SYS entity exist in the snapshot.
    s.query("SELECT * FROM SYS.COUNTERS").unwrap();
    let r = s
        .query("SELECT COUNTER, VALUE FROM SYS.COUNTERS WHERE ENTITY = '$SYS'")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(cell_str(&r.rows[0].0[0]), "sys.scans");
    assert_eq!(cell_i64(&r.rows[0].0[1]), 1);

    // The wait ledger is exhaustive: categories sum to the clock.
    let r = s.query("SELECT CATEGORY, US FROM SYS.WAITS").unwrap();
    let total: i64 = r.rows.iter().map(|row| cell_i64(&row.0[1])).sum();
    assert!(total > 0);
    assert!(r.rows.iter().any(|row| cell_str(&row.0[0]) == "wait.cpu"));
}

/// Identically-seeded clusters answer sys queries byte-identically:
/// introspection runs on the virtual clock like everything else.
#[test]
fn sys_queries_are_deterministic_per_seed() {
    let run = || {
        let db = wisconsin_db(300);
        let mut s = db.session();
        s.query("SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 50")
            .unwrap();
        s.execute("UPDATE WISC SET TEN = 7 WHERE UNIQUE2 = 3")
            .unwrap();
        let mut out = Vec::new();
        for q in [
            "SELECT * FROM SYS.COUNTERS",
            "SELECT * FROM SYS.WAITS",
            "SELECT * FROM SYS.HISTOGRAMS",
            "SELECT * FROM SYS.SESSIONS",
            "SELECT * FROM SYS.TXNS",
            "SELECT * FROM SYS.TRACE",
        ] {
            out.push(s.query(q).unwrap());
        }
        out
    };
    let (a, b) = (run(), run());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.rows, y.rows);
    }
}

/// Satellite: EXPLAIN ANALYZE works on sys queries and its attribution
/// sums exactly — zero FS-DP messages (virtual scan), and the per-category
/// WAIT rows decompose the measured window with no tolerance.
#[test]
fn explain_analyze_of_sys_query_sums_exactly() {
    let db = wisconsin_db(200);
    let mut s = db.session();
    s.query("SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 10")
        .unwrap();
    let r = s
        .query("EXPLAIN ANALYZE SELECT CATEGORY, US FROM SYS.WAITS")
        .unwrap();
    let find = |name: &str| {
        r.rows
            .iter()
            .find(|row| matches!(&row.0[0], Value::Str(s) if s == name))
            .unwrap_or_else(|| panic!("no `{name}` row"))
    };
    let total = find("TOTAL");
    assert_eq!(
        cell_i64(&total.0[2]),
        0,
        "virtual scans exchange no messages"
    );
    assert_eq!(cell_i64(&total.0[3]), 0, "and read no disk");
    let stats = s.last_stats().unwrap();
    assert_eq!(stats.metrics.msgs_fs_dp, 0);

    // WAIT category rows sum exactly to the WAIT TOTAL row.
    let wait_total = cell_i64(&find("WAIT TOTAL").0[5]);
    let sum: i64 = r
        .rows
        .iter()
        .filter(
            |row| matches!(&row.0[0], Value::Str(s) if s.starts_with("WAIT ") && s != "WAIT TOTAL"),
        )
        .map(|row| cell_i64(&row.0[5]))
        .sum();
    assert_eq!(sum, wait_total, "wait decomposition is exact");
}

/// Satellite: under live contention the lock tables show the conflict, and
/// a fresh statement after resolution shows it drained to zero — each read
/// is one coherent snapshot, not a racy accumulation.
#[test]
fn contended_lock_tables_snapshot_then_drain_to_zero() {
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    let mut s1 = db.session();
    s1.execute("CREATE TABLE ACCT (ID INT NOT NULL, BAL DOUBLE, PRIMARY KEY (ID))")
        .unwrap();
    s1.execute("INSERT INTO ACCT VALUES (1, 100)").unwrap();
    s1.execute("INSERT INTO ACCT VALUES (2, 200)").unwrap();

    let mut s2 = db.session();
    let t1 = s1.begin().unwrap();
    s1.execute("UPDATE ACCT SET BAL = 101 WHERE ID = 1")
        .unwrap();
    let t2 = s2.begin().unwrap();
    let blocked = s2.execute("UPDATE ACCT SET BAL = 102 WHERE ID = 1");
    assert!(blocked.is_err(), "second writer must block on the row lock");

    let mut s3 = db.session();
    let locks = s3.query("SELECT * FROM SYS.LOCKS").unwrap();
    assert!(
        locks
            .rows
            .iter()
            .any(|row| cell_i64(&row.0[1]) == t1.0 as i64 && cell_str(&row.0[3]) == "Exclusive"),
        "holder's X lock visible: {:?}",
        locks.rows
    );
    let waiters = s3.query("SELECT * FROM SYS.LOCK_WAITERS").unwrap();
    assert_eq!(waiters.rows.len(), 1, "exactly one FIFO waiter");
    assert_eq!(cell_i64(&waiters.rows[0].0[2]), t2.0 as i64);
    assert_eq!(cell_i64(&waiters.rows[0].0[1]), 0, "queue position 0");

    // Resolve and re-read: both tables drain to zero in one snapshot.
    s1.commit().unwrap();
    s2.rollback().unwrap();
    assert_eq!(s3.query("SELECT * FROM SYS.LOCKS").unwrap().rows.len(), 0);
    assert_eq!(
        s3.query("SELECT * FROM SYS.LOCK_WAITERS")
            .unwrap()
            .rows
            .len(),
        0
    );

    // sys.txns remembers the outcome of both transactions.
    let txns = s3.query("SELECT * FROM SYS.TXNS").unwrap();
    let state_of = |t: u64| {
        txns.rows
            .iter()
            .find(|row| cell_i64(&row.0[0]) == t as i64)
            .map(|row| cell_str(&row.0[1]).to_string())
            .unwrap_or_else(|| panic!("txn {t} missing from sys.txns"))
    };
    assert_eq!(state_of(t1.0), "Committed");
    assert_eq!(state_of(t2.0), "Aborted");
}

/// Satellite: the trace ring's capacity is reconfigurable and its drop
/// count surfaces both in the `sys.trace` companion row and in the
/// existing EXPLAIN ANALYZE `TRACE DROPPED` row.
#[test]
fn trace_capacity_and_drops_surface_in_sys_trace_and_explain() {
    let db = wisconsin_db(500);
    db.sim.trace.enable(64);
    let mut s = db.session();
    s.query("SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 200")
        .unwrap();
    assert!(db.sim.trace.events().len() > 8);

    // Shrink the live ring: evictions land in the dropped tally.
    db.set_trace_capacity(8);
    assert_eq!(db.sim.trace.capacity(), 8);
    let dropped_before = db.sim.trace.dropped();
    assert!(dropped_before > 0, "shrinking must evict into dropped");

    let r = s.query("SELECT * FROM SYS.TRACE").unwrap();
    let ring = &r.rows[0];
    assert_eq!(cell_i64(&ring.0[0]), -1, "companion row leads");
    assert_eq!(cell_str(&ring.0[2]), "RING");
    let detail = cell_str(&ring.0[3]);
    assert!(detail.contains("capacity=8"), "got {detail}");
    // The sys statement's own root span may evict one more event between
    // our reading of the tally and the snapshot; dropped only grows.
    let dropped: u64 = detail
        .split("dropped=")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no dropped tally in {detail}"));
    assert!(dropped >= dropped_before, "got {detail}");
    // At most `capacity` event rows behind the companion row, in seq order.
    assert!(r.rows.len() - 1 <= 8);
    let seqs: Vec<i64> = r.rows[1..].iter().map(|row| cell_i64(&row.0[0])).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    assert_eq!(seqs, sorted);

    // The same overflow surfaces on the statement path as TRACE DROPPED.
    let r = s
        .query("EXPLAIN ANALYZE SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 < 200")
        .unwrap();
    let dropped_row = r
        .rows
        .iter()
        .find(|row| matches!(&row.0[0], Value::Str(s) if s == "TRACE DROPPED"))
        .expect("tiny ring under a real scan must overflow");
    assert!(cell_i64(&dropped_row.0[1]) > 0);
}

/// `sys.sessions` tracks statement counts, open transactions, and closure.
#[test]
fn sys_sessions_track_statements_txns_and_closure() {
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    let mut watcher = db.session();

    let before = watcher.query("SELECT * FROM SYS.SESSIONS").unwrap();
    let my_rows = before.rows.len();
    assert!(my_rows >= 1);

    {
        let mut s = db.session();
        s.begin().unwrap();
        let r = watcher.query("SELECT * FROM SYS.SESSIONS").unwrap();
        assert_eq!(r.rows.len(), my_rows + 1);
        // The new session: 0 statements so far, a live txn, open.
        let row = r.rows.last().unwrap();
        assert_eq!(cell_i64(&row.0[2]), 0);
        assert!(matches!(row.0[3], Value::LargeInt(_)), "txn column set");
        assert_eq!(cell_i64(&row.0[4]), 1);
        s.rollback().unwrap();
    }

    // Dropped: the row stays (history is telemetry) but flips closed.
    let r = watcher.query("SELECT * FROM SYS.SESSIONS").unwrap();
    let row = r.rows.last().unwrap();
    assert_eq!(cell_i64(&row.0[4]), 0, "OPEN flips to 0 on drop");
    assert!(matches!(row.0[3], Value::Null), "txn cleared");

    // The watcher's own statement count advances by one per statement
    // (the count in the snapshot includes the running statement).
    let mine_before = cell_i64(&before.rows[my_rows - 1].0[2]);
    let mine_now = cell_i64(&r.rows[my_rows - 1].0[2]);
    assert_eq!(mine_now, mine_before + 2, "two more statements since");
}

/// `sys.histograms` serves the real log2 buckets and interpolated
/// percentile summaries of the always-on histograms.
#[test]
fn sys_histograms_buckets_and_summary_are_consistent() {
    let db = wisconsin_db(300);
    let mut s = db.session();
    for i in 0..5 {
        s.query(&format!("SELECT UNIQUE1 FROM WISC WHERE UNIQUE1 = {i}"))
            .unwrap();
    }
    let h = &db.sim.hist.stmt_latency_us;
    let expect = (
        h.count() as i64,
        h.percentile(0.50) as i64,
        h.percentile(0.95) as i64,
        h.percentile(0.99) as i64,
        h.percentile(0.999) as i64,
    );
    let r = s
        .query("SELECT * FROM SYS.HISTOGRAMS WHERE HIST = 'STMT_LATENCY_US'")
        .unwrap();
    let summary = r
        .rows
        .iter()
        .find(|row| cell_str(&row.0[1]) == "SUMMARY")
        .expect("summary row always present");
    assert_eq!(cell_i64(&summary.0[4]), expect.0);
    assert_eq!(cell_i64(&summary.0[5]), expect.1);
    assert_eq!(cell_i64(&summary.0[6]), expect.2);
    assert_eq!(cell_i64(&summary.0[7]), expect.3);
    assert_eq!(cell_i64(&summary.0[8]), expect.4);
    // Bucket rows partition the count.
    let bucket_sum: i64 = r
        .rows
        .iter()
        .filter(|row| cell_str(&row.0[1]) == "BUCKET")
        .map(|row| cell_i64(&row.0[4]))
        .sum();
    assert_eq!(bucket_sum, expect.0);
}

/// The sys schema is read-only and unknown sys names fail cleanly.
#[test]
fn sys_tables_reject_dml_and_unknown_names() {
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    let mut s = db.session();
    for sql in [
        "INSERT INTO SYS.COUNTERS VALUES ('a', 'b', 'c', 1)",
        "UPDATE SYS.WAITS SET US = 0",
        "DELETE FROM SYS.TRACE",
    ] {
        let e = s.execute(sql).unwrap_err();
        assert!(e.0.contains("read-only"), "{sql}: {e}");
    }
    let e = s.execute("SELECT * FROM SYS.NOPE").unwrap_err();
    assert!(e.0.contains("SYS.NOPE"), "{e}");
}
