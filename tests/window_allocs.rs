//! Allocation counts as a deterministic proxy for host cost.
//!
//! "A measurement window is a flat copy": a mark and its close must not
//! rebuild a map of cloned entity names, copy only the counters that have
//! moved, and `Session::execute` takes exactly one window per statement.
//!
//! "Parse once per statement shape": a statement whose shape the cluster
//! has seen is planned from its cached template, so a repeated UPDATE has a
//! ceiling.
//!
//! "The audit record is the operation": a set write describes each row's
//! change once — the body it logs is the entry it keeps for backout — so
//! the per-row allocation count of `UPDATE`, `DELETE` and `ROLLBACK WORK`
//! has a ceiling.
//!
//! "A scan touches each row once": the Disk Process copies a selected row's
//! fields from the leaf into the reply's one buffer, and the executor's one
//! row source hands it on once — decoded into the row it moves to the
//! output, or, grouping, folded where it lies with no row built at all.
//! A whole record that a residual reads (an index base fetch) is checked
//! and read in place, and decoded only as far as a kept row's fetched
//! fields. So the per-row allocation count of the `scan_select` statements
//! and of an index base fetch has a ceiling too.
//!
//! "Off builds nothing": spans, events and messages borrow their labels and
//! build owned strings only inside the trace recorder's enabled branch, and
//! a process's flight ring hangs off its own record — so with tracing off
//! the telemetry of a span, a message and a statement allocates nothing.

use nonstop_sql::sim::{Sim, SimRng, SpanHeader};
use nonstop_sql::workloads::{Bank, Wisconsin};
use nonstop_sql::{Cluster, Outcome};
use nsql_msg::{Bus, CpuId, MsgKind, Response, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and bytes requested by this thread (the harness runs
    /// tests on threads of their own, so other tests do not disturb them).
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

// SAFETY: every request is passed to `System` unchanged, so its contract is
// met exactly as `System` meets it; the counter is a plain thread-local
// `Cell` that neither allocates nor has a destructor. `realloc` is left to
// the default, which calls `alloc` and so counts as one.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no counter left; nothing measured
        // runs there.
        let _ = ALLOCS.try_with(|n| {
            let (count, bytes) = n.get();
            n.set((count + 1, bytes + layout.size() as u64));
        });
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` requested while `f` ran.
fn allocs_during<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let after = ALLOCS.with(Cell::get);
    ((after.0 - before.0, after.1 - before.1), out)
}

/// One DebitCredit as the six SQL statements of the `oltp_sql` workload.
fn debit_credit(db: &Cluster, bank: &Bank, rng: &mut SimRng, hid: u32) {
    let (aid, tid, bid, delta) = bank.draw(rng);
    let mut s = db.session();
    for sql in [
        "BEGIN WORK".to_string(),
        format!("UPDATE ACCOUNT SET ABALANCE = ABALANCE + {delta} WHERE AID = {aid}"),
        format!("UPDATE TELLER SET TBALANCE = TBALANCE + {delta} WHERE TID = {tid}"),
        format!("UPDATE BRANCH SET BBALANCE = BBALANCE + {delta} WHERE BID = {bid}"),
        format!("INSERT INTO HISTORY VALUES ({hid}, {aid}, {tid}, {bid}, {delta}, 'H')"),
        "COMMIT WORK".to_string(),
    ] {
        match s.execute(&sql).unwrap() {
            Outcome::Count(1) | Outcome::Done => {}
            other => panic!("{sql}: {other:?}"),
        }
    }
}

#[test]
fn a_window_is_a_flat_copy() {
    let db = Cluster::single_volume();
    let bank = Bank::create(&db, 2, 50, "$DATA1").unwrap();
    let mut rng = SimRng::seed_from(7);
    debit_credit(&db, &bank, &mut rng, 0);
    assert!(!db.sim.trace.is_enabled());

    // Before the positional snapshot: 38 allocations, 20 KB. Before a
    // snapshot copied only the counters each entity has moved: 2
    // allocations, 13,728 bytes (every counter of every entity, twice). Now
    // 2 allocations, 1,072 bytes.
    let ((count, bytes), window) = allocs_during(|| db.sim.mark().close(&db.sim));
    assert!(window.measure.snap.iter().len() >= 8, "a loaded cluster");
    assert!(count <= 6, "mark + close made {count} allocations");
    assert!(bytes < 2_000, "mark + close allocated {bytes} bytes");

    // Before `Session::execute` took one window per statement: 725; before
    // the statement cache planned repeated shapes from their templates: 376;
    // before the Disk Process changed records on their bytes: 298. Now 280.
    let ((count, _), ()) = allocs_during(|| debit_credit(&db, &bank, &mut rng, 1));
    assert!(count <= 280, "one DebitCredit made {count} allocations");
}

#[test]
fn a_repeated_statement_is_planned_from_its_template() {
    let db = Cluster::single_volume();
    let bank = Bank::create(&db, 2, 50, "$DATA1").unwrap();
    let mut s = db.session();
    let mut update = |aid: u32, delta: i32| {
        let sql = format!("UPDATE ACCOUNT SET ABALANCE = ABALANCE + {delta} WHERE AID = {aid}");
        let ((count, _), outcome) = allocs_during(|| s.execute(&sql).unwrap());
        assert_eq!(outcome, Outcome::Count(1), "{sql}");
        count
    };
    // The first text of the shape is parsed into its template.
    update(0, 1);
    update(1, -1);
    assert!(bank.accounts >= 12);
    let most = (2..12).map(|aid| update(aid, -37)).max();
    // 111 or 112 when each statement was lexed, parsed and planned against
    // a deep copy of the table's catalog entry; 74 when its shape was
    // scanned into reused buffers, and only the bind, the key range and the
    // plan's own expressions allocated on the SQL side; now 68, with the
    // Disk Process changing the record on its bytes.
    assert!(most <= Some(68), "one UPDATE made {most:?} allocations");
}

/// Replies to anything with nothing.
struct Echo;

impl Server for Echo {
    fn handle(&self, _request: Box<dyn std::any::Any + Send>) -> Response {
        Response::new((), 8)
    }
}

#[test]
fn telemetry_that_is_off_allocates_nothing() {
    let sim = Sim::new();
    assert!(!sim.trace.is_enabled());
    // This thread's span stack takes its room on the first push.
    drop(sim.span_root("WARM-UP", &"\\0.0"));
    // Was 3 for a span given its track, 4 with the track formatted for it.
    let ((spans, _), ()) = allocs_during(|| {
        let root = sim.span_root("SELECT", &"\\0.0");
        let request = sim.span_child("GET^NEXT", &"\\0.0");
        let carried = SpanHeader {
            parent: root.header().span,
            ..request.header()
        };
        drop(sim.span_enter(carried, "GET^NEXT", &"$DATA1"));
    });
    assert_eq!(spans, 0, "three spans opened and closed");

    let bus = Bus::new(sim.clone());
    bus.register("$ECHO", CpuId::new(0, 1), std::sync::Arc::new(Echo));
    let empty = || -> Box<dyn std::any::Any + Send> { Box::new(()) };
    let request = |n: usize| {
        for _ in 0..n {
            bus.request_replayable(CpuId::new(0, 0), "$ECHO", MsgKind::FsDp, 16, &empty, "READ")
                .unwrap();
        }
    };
    // Fill the flight ring once: it grows to its bound and stays there.
    request(64);
    // Was 2 (the ring's key and the entry's label); the reply's box is the
    // server's, and a `()` in a box is no allocation.
    let ((message, _), ()) = allocs_during(|| request(1));
    assert_eq!(message, 0, "one labelled exchange");

    // One DebitCredit — six statements, four FS-DP messages — made 450
    // allocations when every span, message and statement built its strings
    // first and asked whether tracing was on afterwards; now 380.
    let db = Cluster::single_volume();
    let bank = Bank::create(&db, 2, 50, "$DATA1").unwrap();
    let mut rng = SimRng::seed_from(7);
    debit_credit(&db, &bank, &mut rng, 0);
    let ((count, _), ()) = allocs_during(|| debit_credit(&db, &bank, &mut rng, 1));
    assert!(
        count <= 450 - 60,
        "one DebitCredit made {count} allocations"
    );
}

/// Allocations per row of a set statement: the slope between a 1,000-row
/// and a 3,000-row execution, which cancels the per-statement constant.
fn per_row(mut run: impl FnMut(i32, i32) -> u64) -> f64 {
    let small = run(0, 999);
    let large = run(1000, 3999);
    (large - small) as f64 / 2000.0
}

#[test]
fn set_writes_describe_each_row_once() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE T (K INT NOT NULL, V INT NOT NULL, PAD CHAR(40) NOT NULL, \
         PRIMARY KEY (K))",
    )
    .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for k in 0..4000 {
        s.execute(&format!("INSERT INTO T VALUES ({k}, {k}, 'pad')"))
            .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();

    let mut statement = |sql: String, rows: u64| {
        let ((count, _), outcome) = allocs_during(|| s.execute(&sql).unwrap());
        assert!(matches!(outcome, Outcome::Count(n) if n == rows) || rows == 0);
        count
    };
    let rows = |lo: i32, hi: i32| (hi - lo + 1) as u64;

    // With the undo list cloning the key and the before-image beside the
    // audit record: 20.3 per row; 17.3 when the Disk Process decoded each
    // record to change it; 10.24 when each record lock copied its key four
    // times. Now 6.405.
    let update = per_row(|lo, hi| {
        let sql = format!("UPDATE T SET V = V + 1 WHERE K BETWEEN {lo} AND {hi}");
        statement(sql, rows(lo, hi))
    });
    assert!(update <= 6.41, "UPDATE: {update} allocations per row");

    // Was 20.1 per row (a label and a descriptor cloned per record backed
    // out); 14.1 when each backout decoded the record; now 4.06.
    let rollback = per_row(|lo, hi| {
        statement("BEGIN WORK".into(), 0);
        let sql = format!("UPDATE T SET V = V + 1 WHERE K BETWEEN {lo} AND {hi}");
        statement(sql, rows(lo, hi));
        statement("ROLLBACK WORK".into(), 0)
    });
    assert!(
        rollback <= 4.1,
        "ROLLBACK WORK: {rollback} allocations per row"
    );

    // Was 20.6 per row; 15.0 before the Disk Process kept matched keys and
    // records in one buffer; 13.92 before a record lock kept its key once,
    // inline; now 9.2285.
    let delete = per_row(|lo, hi| {
        let sql = format!("DELETE FROM T WHERE K BETWEEN {lo} AND {hi}");
        statement(sql, rows(lo, hi))
    });
    assert!(delete <= 9.23, "DELETE: {delete} allocations per row");
}

#[test]
fn a_write_that_keeps_an_index_reads_only_keys() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE T (K INT NOT NULL, V INT NOT NULL, PAD CHAR(40) NOT NULL, \
         PRIMARY KEY (K))",
    )
    .unwrap();
    s.execute("CREATE INDEX TV ON T (V)").unwrap();
    s.execute("BEGIN WORK").unwrap();
    for k in 0..4000 {
        s.execute(&format!("INSERT INTO T VALUES ({k}, {k}, 'pad')"))
            .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();

    // An UPDATE of an indexed field reads the qualifying records, then
    // updates each by key and moves its index entry. The read keeps each
    // record's key, encoded from its key field where it lies: was 78.8 per
    // row when each record was decoded whole (a vector and a string) to
    // encode its key again; 76.8, then 71.8 with the record changed on its
    // bytes; 68.8 with the File System evaluating the SET list for the
    // index over the row it read, not a copy, and listing no touched
    // indices; now 53.27, each record lock (base row and index entries)
    // keeping its key once, inline.
    let update = per_row(|lo, hi| {
        let sql = format!("UPDATE T SET V = V + 1 WHERE K BETWEEN {lo} AND {hi}");
        let ((count, _), outcome) = allocs_during(|| s.execute(&sql).unwrap());
        assert_eq!(outcome, Outcome::Count((hi - lo + 1) as u64));
        count
    });
    assert!(
        update <= 53.3,
        "indexed UPDATE: {update} allocations per row"
    );
}

#[test]
fn a_scan_touches_each_row_once() {
    let db = Cluster::single_volume();
    Wisconsin::create(&db, "WISC", 4_000, &["$DATA1"], 7).unwrap();
    let mut s = db.session();
    let mut statement = |sql: String, rows: i32| {
        let ((count, _), outcome) = allocs_during(|| s.execute(&sql).unwrap());
        assert!(matches!(outcome, Outcome::Rows(r) if r.rows.len() == rows as usize));
        count
    };

    // Per returned row (thirteen integers, three strings): the decoded
    // row's vector and its three strings, plus the row's share of its
    // message and leaf block. Was 40.6 when the Disk Process extracted,
    // re-described and re-encoded each row and the executor cloned it
    // twice; now 5.5.
    let range = per_row(|lo, hi| {
        let sql = format!("SELECT * FROM WISC WHERE UNIQUE2 BETWEEN {lo} AND {hi}");
        statement(sql, hi - lo + 1)
    });
    assert!(range <= 10.0, "SELECT * range: {range} per returned row");

    // Per input row (two integers fetched): the row's share of its message
    // and leaf block. Was 13.4 with three more vectors per row in the
    // executor's grouping, 1.05 with a decoded row per input row; now the
    // reply's bytes are folded where they land, 0.05.
    let group_by = per_row(|lo, hi| {
        let sql = format!(
            "SELECT HUNDRED, MIN(THOUSAND) AS M FROM WISC \
             WHERE UNIQUE2 BETWEEN {lo} AND {hi} GROUP BY HUNDRED"
        );
        statement(sql, 100)
    });
    assert!(group_by <= 0.1, "GROUP BY: {group_by} per input row");

    // Grouped by a CHAR(52): the key is read from the reply's bytes, so an
    // input row allocates no string (a group decodes its value once), and
    // what is left is the wider row's share of its message. Was 2.21 with a
    // decoded row and its string per input row; now 0.21.
    let group_by_char = per_row(|lo, hi| {
        let sql = format!(
            "SELECT STRING4, COUNT(*) AS N FROM WISC \
             WHERE UNIQUE2 BETWEEN {lo} AND {hi} GROUP BY STRING4"
        );
        statement(sql, 4)
    });
    assert!(
        group_by_char <= 0.25,
        "GROUP BY CHAR: {group_by_char} per input row"
    );

    // Per selected row of a full scan (UNIQUE1 is a permutation, so the
    // statements differ in what they select, not in what they examine).
    // Was 10.0; now 1.0.
    let filter = per_row(|lo, hi| {
        let sql = format!("SELECT UNIQUE2, UNIQUE1 FROM WISC WHERE UNIQUE1 BETWEEN {lo} AND {hi}");
        statement(sql, hi - lo + 1)
    });
    assert!(filter <= 3.0, "projected filter: {filter} per selected row");
}

/// An index base fetch reads each base record whole, and its residual
/// reads the record where it lies in the reply: a record the residual
/// rejects is checked, never decoded, and only a kept one's fetched fields
/// are.
#[test]
fn a_rejected_record_is_never_decoded() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE T (K INT NOT NULL, V INT NOT NULL, X INT NOT NULL, \
         A CHAR(20) NOT NULL, B CHAR(20) NOT NULL, PRIMARY KEY (K))",
    )
    .unwrap();
    s.execute("CREATE INDEX TV ON T (V)").unwrap();
    s.execute("BEGIN WORK").unwrap();
    for k in 0..4000 {
        s.execute(&format!(
            "INSERT INTO T VALUES ({k}, {k}, {}, 'A{k}', 'B{k}')",
            k % 10
        ))
        .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();

    // Per index entry: its base key and its base record's read, one
    // message each; nine in ten records fail `X = 0`. Was 13.1 when every
    // base record was decoded whole (a vector and two strings) and its
    // fetched fields cloned out before the residual ran; now 7.23.
    let fetched = per_row(|lo, hi| {
        let sql = format!("SELECT K, A FROM T WHERE V BETWEEN {lo} AND {hi} AND X = 0");
        let ((count, _), outcome) = allocs_during(|| s.execute(&sql).unwrap());
        assert!(matches!(outcome, Outcome::Rows(r) if r.rows.len() as i32 == (hi - lo + 1) / 10));
        count
    });
    assert!(fetched <= 7.3, "index base fetch: {fetched} per entry");
}

/// The fold of a `GROUP BY`: after a group's first row, which decodes its
/// grouping values and opens its running states, a row allocates nothing —
/// its key, its bare-field arguments and the MIN and MAX of text are read
/// where the row lies in the reply. With every row in one reply, twice the
/// rows cost only the reply buffer's one more doubling.
#[test]
fn a_grouped_row_folds_without_allocating() {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE G (K INT NOT NULL, G INT NOT NULL, X INT NOT NULL, \
         D DOUBLE NOT NULL, C CHAR(6) NOT NULL, PRIMARY KEY (K))",
    )
    .unwrap();
    s.execute("BEGIN WORK").unwrap();
    for k in 0..200 {
        let (g, x, d, c) = (k % 4, (k * 7) % 13, f64::from(k) * 0.5, (k * 37) % 1000);
        s.execute(&format!(
            "INSERT INTO G VALUES ({k}, {g}, {x}, {d}, 'C{c:04}')"
        ))
        .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();
    let mut grouped = |rows: i32| {
        let sql = format!(
            "SELECT G, COUNT(*) AS N, SUM(X) AS S, AVG(D) AS A, MIN(X) AS LO, \
             MAX(D) AS HI, MIN(C) AS CLO, MAX(C) AS CHI FROM G WHERE K < {rows} GROUP BY G"
        );
        let ((count, _), outcome) = allocs_during(|| s.execute(&sql).unwrap());
        assert!(matches!(outcome, Outcome::Rows(r) if r.rows.len() == 4));
        count
    };
    // The shape's first text is parsed into its template.
    grouped(60);
    let (few, many) = (grouped(60), grouped(120));
    assert!(
        many <= few + 2,
        "60 rows folded: {few} allocations, 120 rows: {many}"
    );
}
