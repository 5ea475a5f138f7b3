//! The experiments of DESIGN.md §4: one registry, one body per entry.
//!
//! [`EXPERIMENTS`] is the only place an experiment is named. `run`,
//! `run_json`, the binary's dispatch and error message, the gate's record
//! ids and the documentation tests all iterate it. To add an experiment:
//! one entry here, one body below, one row in DESIGN.md §4 and its tables
//! in EXPERIMENTS.md — the tests of this module name whichever is missing.
//!
//! Every body builds a fresh deterministic cluster from `crate::fixtures`,
//! runs a workload inside measurement windows, and declares each table as
//! rows plus columns (header and cell accessor together). A body returns
//! `Err` where it cannot report — a failed call or a result check that does
//! not hold — and the binary exits non-zero naming the experiment.

use crate::fixtures::{
    accounts, blocked_insert, canonical_workload, cold_caches, configured, ensure, in_txn, loaded,
    pk, rebalanced, set_arith, table, window, Outcome,
};
use crate::report::{ms, ratio, Table};
use nsql_core::{Cluster, ClusterBuilder, DiskProcessConfig, FaultConfig, GroupCommitTimer};
use nsql_dp::{AuditMode, DpError, DpRequest, ReadLock, SubsetMode};
use nsql_fs::{CursorUpdater, FsError, OpenFile};
use nsql_records::{ArithOp, CmpOp, Expr, FieldType, KeyRange, OwnedBound, SetList, Value};
use nsql_sim::{Ctr, EntityKind, Histogram, MetricsSnapshot, SimRng, Wait, WaitProfile, Window};
use nsql_workloads::{run_load, Bank, LoadConfig, LoadOutcome, Wisconsin};

/// One entry of the registry.
pub struct Experiment {
    /// What the command line calls it.
    pub id: &'static str,
    /// Whether `all` runs it (the chaos matrix and the load grid are run
    /// by name only).
    pub in_all: bool,
    /// Builds the tables, in the order they are printed.
    pub body: Body,
    /// The `BENCH_results.json` record id of each table, for the
    /// experiments the perf gate pins; empty for the rest.
    pub records: &'static [&'static str],
}

/// What an entry runs.
pub type Body = fn() -> Outcome<Vec<Table>>;

/// An experiment of the paper: `all` runs it, and its tables are the
/// `records` the perf gate pins, if any.
const fn paper(id: &'static str, body: Body, records: &'static [&'static str]) -> Experiment {
    Experiment {
        id,
        in_all: true,
        body,
        records,
    }
}

/// A mode run by name only, and not gated.
const fn by_name(id: &'static str, body: Body) -> Experiment {
    Experiment {
        id,
        in_all: false,
        body,
        records: &[],
    }
}

/// Every experiment, in the order `all` prints them.
pub const EXPERIMENTS: &[Experiment] = &[
    paper("e1", e1, &[]),
    paper("e2", e2, &["e2"]),
    paper("e3", e3, &[]),
    paper("e4", e4, &["e4"]),
    paper("e5", e5, &[]),
    paper("e6", e6, &["e6"]),
    paper("e7", e7, &[]),
    paper("e8", e8, &[]),
    paper("e9", e9, &["e9"]),
    paper("e10", e10, &[]),
    paper("e11", e11, &[]),
    paper("e12", e12, &[]),
    paper("e13", e13, &[]),
    paper("e14", e14, &[]),
    paper("e15", e15, &[]),
    paper("e16", e16, &[]),
    paper("e17", e17, &["e17"]),
    paper("e18", e18, &["e18"]),
    paper("e19", e19, &["e19"]),
    paper("e20", e20, &["e20"]),
    paper("e21", e21, &["e21"]),
    paper("e22", e22, &["e22", "e22cdf"]),
    paper("e23", e23, &["e23"]),
    by_name("chaos", crate::chaos::chaos),
    by_name("load", load),
];

impl Experiment {
    /// Run the body; an error names the experiment.
    pub fn tables(&self) -> Result<Vec<Table>, String> {
        (self.body)().map_err(|e| format!("experiment {}: {e}", self.id))
    }

    /// The experiment as text: its tables one after another. Tables that
    /// are records of their own (E22's series and its CDF) are set apart
    /// by a blank line, as whole experiments are in `all`.
    fn text(&self) -> Result<String, String> {
        let rendered: Vec<String> = self.tables()?.iter().map(Table::render).collect();
        Ok(rendered.join(if self.records.len() > 1 { "\n" } else { "" }))
    }
}

/// Run one experiment by its registry id, or with `"all"` every one the
/// registry marks for it. An unknown id is an error that lists the ids.
pub fn run(which: &str) -> Result<String, String> {
    if which == "all" {
        let texts: Result<Vec<String>, String> = EXPERIMENTS
            .iter()
            .filter(|e| e.in_all)
            .map(Experiment::text)
            .collect();
        return Ok(texts?.join("\n"));
    }
    match EXPERIMENTS.iter().find(|e| e.id == which) {
        Some(e) => e.text(),
        None => {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            Err(format!(
                "unknown experiment {which}; try all, or one of {}",
                ids.join(" ")
            ))
        }
    }
}

/// Run the experiments that feed `BENCH_results.json` — those with record
/// ids in the registry — and render them as a JSON array, one record per
/// table, followed by the `measure` record: the full per-entity counter
/// delta of the canonical mixed workload (see EXPERIMENTS.md for the
/// schema). Deterministic per build, so the perf gate diffs it against
/// `BENCH_baseline.json` with zero tolerance.
pub fn run_json() -> Result<String, String> {
    let mut records = Vec::new();
    for e in EXPERIMENTS.iter().filter(|e| !e.records.is_empty()) {
        let tables = e.tables()?;
        if tables.len() != e.records.len() {
            return Err(format!(
                "experiment {}: {} tables for {} record ids",
                e.id,
                tables.len(),
                e.records.len()
            ));
        }
        records.extend(tables.iter().zip(e.records).map(|(t, id)| t.to_json(id)));
    }
    let (_, w) = canonical_workload(false).map_err(|e| format!("measure record: {e}"))?;
    records.push(w.measure.to_json("measure"));
    Ok(format!("[\n{}\n]\n", records.join(",\n")))
}

/// Chrome trace-event JSON (`chrome://tracing` / Perfetto) of the canonical
/// mixed workload, captured with the bounded trace ring at its default
/// capacity. Timestamps are virtual micros.
pub fn trace_json() -> Result<String, String> {
    let (db, _) = canonical_workload(true).map_err(|e| format!("trace: {e}"))?;
    Ok(nsql_sim::chrome_trace(&db.sim.trace.events()))
}

// ----------------------------------------------------------------------
// E1 — Figure 1: architecture, distribution of data and execution
// ----------------------------------------------------------------------

/// Two nodes, four CPUs, a table partitioned across both nodes; shows that
/// execution is distributed and that remote partitions cost remote
/// messages.
fn e1() -> Outcome<Vec<Table>> {
    const VOLUMES: [&str; 4] = ["$DATA1", "$DATA2", "$REMOTE1", "$REMOTE2"];
    let db = ClusterBuilder::new()
        .volume("$DATA1", 0, 1)
        .volume("$DATA2", 0, 2)
        .volume("$REMOTE1", 1, 0)
        .volume("$REMOTE2", 1, 1)
        .build();
    let w = Wisconsin::create(&db, "WISC", 4000, &VOLUMES, 1)?;

    let mut s = db.session();
    let mut partitions = Vec::new();
    for (i, vol) in VOLUMES.iter().enumerate() {
        let lo = i as u32 * 1000;
        let hi = lo + 999;
        let r = s.query(&format!(
            "SELECT COUNT(*) FROM WISC WHERE UNIQUE2 BETWEEN {lo} AND {hi}"
        ))?;
        partitions.push((*vol, r.rows[0].0[0].to_string()));
    }
    let placement = Table::measured(
        "E1 — Figure 1: two-node cluster, table partitioned over 4 volumes",
        &partitions,
        &[
            ("volume", &|p| p.0.into()),
            ("node", &|p| {
                if p.0.starts_with("$R") { "1" } else { "0" }.into()
            }),
            ("rows", &|p| p.1.clone()),
        ],
    );

    let (scan, n) = window(&db, || Ok(w.run_count(&db, &w.q_scan_all())?))?;
    let mut totals = Table::measured(
        "E1 — full scan from a session on node 0",
        &[
            ("rows returned", n.to_string()),
            ("FS-DP messages", scan.metrics.msgs_fs_dp.to_string()),
            (
                "messages crossing nodes",
                scan.metrics.msgs_remote.to_string(),
            ),
            ("virtual elapsed", ms(scan.elapsed_us)),
        ],
        &[("metric", &|r| r.0.into()), ("value", &|r| r.1.clone())],
    );
    totals.note("Half the partitions live on node 1: the requester reaches them only via inter-node messages, which is why the paper pushes selection to the data.");
    Ok(vec![placement, totals])
}

// ----------------------------------------------------------------------
// E2 — record-at-a-time vs RSBB vs VSBB
// ----------------------------------------------------------------------

/// Rows of the table E2 and E18 read.
const READ_ROWS: u32 = 10_000;

/// One sequential-read interface's run over the table.
struct Read {
    label: &'static str,
    w: Window,
    rows: usize,
}

/// The three sequential-read interfaces over a cold [`READ_ROWS`]-row
/// Wisconsin table — record-at-a-time, RSBB, and VSBB with the Wisconsin
/// 10% selection and 2-field projection — each as its window and the rows
/// it returned. E2 reads the windows' cluster totals, E18 their per-entity
/// MEASURE deltas.
fn read_interfaces() -> Outcome<[Read; 3]> {
    let db = Cluster::single_volume();
    Wisconsin::create(&db, "WISC", READ_ROWS, &["$DATA1"], 2)?;
    let session = db.session();
    let of = session.open_table("WISC")?;
    let fs = session.fs();
    let drain = |cur: &mut nsql_fs::enscribe::EnscribeCursor| -> Outcome<usize> {
        let mut n = 0;
        while fs.ens_read_next(cur)?.is_some() {
            n += 1;
        }
        Ok(n)
    };

    // Record-at-a-time (the old ENSCRIBE discipline).
    cold_caches(&db)?;
    let (w, rows) = window(&db, || drain(&mut fs.ens_open(&of, None)))?;
    let rat = Read {
        label: "record-at-a-time",
        w,
        rows,
    };

    // RSBB: one physical block copy per message. The reader's transaction
    // begins and commits outside the window.
    cold_caches(&db)?;
    let txn = db.txnmgr.begin();
    let (w, rows) = window(&db, || drain(&mut fs.ens_open_sbb(&of, txn)?))?;
    db.txnmgr.commit(txn, session.cpu())?;
    let rsbb = Read {
        label: "RSBB (block buffering)",
        w,
        rows,
    };

    // VSBB with a selective predicate and 2-field projection — the
    // Wisconsin selection shape the paper cites.
    cold_caches(&db)?;
    let tenth = Expr::field_cmp(1, CmpOp::Lt, Value::Int(READ_ROWS as i32 / 10));
    let (w, rows) = window(&db, || {
        let scan = fs.scan(
            None,
            &of,
            &KeyRange::all(),
            Some(&tenth),
            Some(&[0, 1]),
            SubsetMode::Vsbb,
            ReadLock::None,
        )?;
        Ok(scan.rows.len())
    })?;
    let vsbb = Read {
        label: "VSBB (10% select + project)",
        w,
        rows,
    };
    Ok([rat, rsbb, vsbb])
}

/// The headline claim: "RSBB gives a factor of three over the record-at-a-
/// time interface. VSBB gives NonStop SQL an additional factor of three
/// over RSBB."
fn e2() -> Outcome<Vec<Table>> {
    let runs = read_interfaces()?;
    let [rat, rsbb, vsbb] = [&runs[0].w, &runs[1].w, &runs[2].w];
    let mut t = Table::measured(
        format!(
            "E2 — sequential read interfaces, {READ_ROWS}-row Wisconsin table (≈208 B records)"
        ),
        &runs,
        &[
            ("interface", &|r| r.label.into()),
            ("rows", &|r| r.rows.to_string()),
            ("FS-DP msgs", &|r| r.w.metrics.msgs_fs_dp.to_string()),
            ("msg bytes", &|r| r.w.metrics.msg_bytes_total.to_string()),
            ("elapsed", &|r| ms(r.w.elapsed_us)),
            ("msgs vs RAT", &|r| {
                ratio(rat.metrics.msgs_fs_dp, r.w.metrics.msgs_fs_dp)
            }),
            ("mean B/msg", &|r| {
                format!("{:.0}", r.w.metrics.mean_bytes_per_message())
            }),
        ],
    );
    t.note(format!(
        "RSBB carries {} over record-at-a-time on raw FS-DP messages (the paper's end-to-end \
         factor of three blends fixed CPU costs); VSBB adds another {} by filtering and \
         projecting at the data source.",
        ratio(rat.metrics.msgs_fs_dp, rsbb.metrics.msgs_fs_dp),
        ratio(rsbb.metrics.msgs_fs_dp, vsbb.metrics.msgs_fs_dp),
    ));
    t.note(format!(
        "Elapsed (virtual) time tells the blended story: {} / {} / {} — ratios {} and {}.",
        ms(rat.elapsed_us),
        ms(rsbb.elapsed_us),
        ms(vsbb.elapsed_us),
        ratio(rat.elapsed_us, rsbb.elapsed_us),
        ratio(rsbb.elapsed_us, vsbb.elapsed_us),
    ));
    Ok(vec![t])
}

// ----------------------------------------------------------------------
// E3 — Wisconsin query suite across interfaces
// ----------------------------------------------------------------------

/// The Wisconsin selections/projections through the SQL planner (VSBB/RSBB
/// chosen automatically) vs the forced record-at-a-time interface.
fn e3() -> Outcome<Vec<Table>> {
    let db = ClusterBuilder::new()
        .volume("$DATA1", 0, 1)
        .volume("$IDX", 0, 2)
        .build();
    let w = Wisconsin::create(&db, "WISC", 10_000, &["$DATA1"], 3)?;
    db.session()
        .execute("CREATE INDEX WISC_U1 ON WISC (UNIQUE1) ON '$IDX'")?;
    let w2 = Wisconsin::create(&db, "WISC2", 10_000, &["$DATA1"], 13)?;
    let queries = [
        ("1% clustered selection", w.q_select_1pct_clustered()),
        ("10% clustered selection", w.q_select_10pct_clustered()),
        ("1% non-clustered (indexed)", w.q_select_1pct_nonclustered()),
        ("1% projection (2 cols)", w.q_project_1pct()),
        ("grouped MIN aggregate", w.q_agg_min_grouped()),
        ("1% join to second relation", w.q_join_1pct(&w2)),
    ];

    /// One query through both interfaces.
    struct Pair {
        name: &'static str,
        rows: usize,
        set: MetricsSnapshot,
        rat: MetricsSnapshot,
    }
    let mut pairs = Vec::new();
    for (name, sql) in queries {
        let mut s = db.session();
        let (set, rows) = window(&db, || Ok(s.query(&sql)?.rows.len()))?;
        let (rat, _) = window(&db, || {
            Ok(s.query(&format!("{sql} FOR BROWSE RECORD ACCESS"))?)
        })?;
        pairs.push(Pair {
            name,
            rows,
            set: set.metrics,
            rat: rat.metrics,
        });
    }
    let mut t = Table::measured(
        "E3 — Wisconsin queries: set-oriented interface vs record-at-a-time",
        &pairs,
        &[
            ("query", &|p| p.name.into()),
            ("rows", &|p| p.rows.to_string()),
            ("msgs (set)", &|p| p.set.msgs_fs_dp.to_string()),
            ("bytes (set)", &|p| p.set.msg_bytes_total.to_string()),
            ("msgs (RAT)", &|p| p.rat.msgs_fs_dp.to_string()),
            ("bytes (RAT)", &|p| p.rat.msg_bytes_total.to_string()),
            ("msg ratio", &|p| ratio(p.rat.msgs_fs_dp, p.set.msgs_fs_dp)),
        ],
    );
    t.note("The selective queries show the VSBB advantage the paper cites on 'many of the Wisconsin benchmark queries'; the indexed non-clustered selection also avoids scanning entirely.");
    Ok(vec![t])
}

// ----------------------------------------------------------------------
// E4 — update-expression pushdown
// ----------------------------------------------------------------------

/// `UPDATE ACCOUNT SET BALANCE = BALANCE * 1.07 WHERE BALANCE > 0` three
/// ways: set-oriented pushdown, per-record pushdown, ENSCRIBE
/// read-then-write.
fn e4() -> Outcome<Vec<Table>> {
    const ACCOUNTS: i32 = 2_000;
    let bank = || accounts("ACCOUNT", "ACCTNO", 84, ACCOUNTS);

    // (a) Set-oriented UPDATE^SUBSET (the paper's example 3).
    let (db, _) = bank()?;
    let mut s = db.session();
    let (subset, updated) = window(&db, || {
        Ok(
            s.execute("UPDATE ACCOUNT SET BALANCE = BALANCE * 1.07 WHERE BALANCE > 0")?
                .count(),
        )
    })?;

    // (b) Per-record update with expression pushdown (1 msg/record).
    let (db, of) = bank()?;
    let s = db.session();
    let interest = set_arith(1, ArithOp::Mul, Value::Double(1.07));
    let (per_record, ()) = window(&db, || {
        in_txn(&s, |txn| {
            for i in 0..ACCOUNTS {
                s.fs().update_by_key(txn, &of, &pk(i), &interest, None)?;
            }
            Ok(())
        })
    })?;

    // (c) ENSCRIBE: READ then WRITE per record, full-image audit.
    let (db, of) = bank()?;
    let s = db.session();
    let (enscribe, ()) = window(&db, || {
        in_txn(&s, |txn| {
            for i in 0..ACCOUNTS {
                let old = s
                    .fs()
                    .ens_read(Some(txn), &of, &pk(i), ReadLock::Shared)?
                    .ok_or("an account that was loaded is gone")?;
                let new = rebalanced(&old.0, |b| b * 1.07)?;
                s.fs().ens_rewrite(txn, &of, &old.0, &new)?;
            }
            Ok(())
        })
    })?;

    let mut t = Table::measured(
        format!("E4 — interest posting over {ACCOUNTS} accounts"),
        &[
            ("UPDATE^SUBSET (set-oriented pushdown)", updated, subset),
            (
                "per-record UPDATE w/ expression",
                ACCOUNTS as u64,
                per_record,
            ),
            ("ENSCRIBE read-then-write", ACCOUNTS as u64, enscribe),
        ],
        &[
            ("method", &|r| r.0.into()),
            ("updated", &|r| r.1.to_string()),
            ("FS-DP msgs", &|r| r.2.metrics.msgs_fs_dp.to_string()),
            ("audit bytes", &|r| r.2.metrics.audit_bytes.to_string()),
            ("elapsed", &|r| ms(r.2.elapsed_us)),
        ],
    );
    t.note("Shipping the update expression eliminates the read-before-write message; shipping the whole subset eliminates the per-record messages too. Field-compressed audit shrinks audit volume alongside.");
    Ok(vec![t])
}

// ----------------------------------------------------------------------
// E5 — Figure 2: access via alternate key
// ----------------------------------------------------------------------

/// Point read and update through a secondary index: the two-message
/// pattern of Figure 2.
fn e5() -> Outcome<Vec<Table>> {
    let db = ClusterBuilder::new()
        .volume("$DATA1", 0, 1)
        .volume("$IDX", 0, 2)
        .build();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE EMP (EMPNO INT NOT NULL, NAME CHAR(12) NOT NULL, \
         SALARY DOUBLE NOT NULL, PRIMARY KEY (EMPNO)) ON '$DATA1'",
    )?;
    for i in 0..500 {
        s.execute(&format!("INSERT INTO EMP VALUES ({i}, 'E{i:05}', 1000)"))?;
    }
    s.execute("CREATE UNIQUE INDEX EMP_NAME ON EMP (NAME) ON '$IDX'")?;

    // Read via alternate key.
    let (read, found) = window(&db, || {
        Ok(s.query("SELECT SALARY FROM EMP WHERE NAME = 'E00123'")?
            .rows
            .len())
    })?;
    ensure!(
        found == 1,
        "E5: the alternate key found {found} rows, not 1"
    );

    // Update via alternate key: find the primary key through the index,
    // then ship the update expression to the base partition.
    let of = s.open_table("EMP")?;
    let idx = &of.indexes[0];
    let name =
        nsql_records::key::encode_key_prefix(&[(FieldType::Char(12), Value::Str("E00123".into()))]);
    let raise = SetList {
        sets: vec![(2, Expr::lit(Value::Double(2000.0)))],
    };
    let (update, ()) = window(&db, || {
        in_txn(&s, |txn| {
            let mut base_key = None;
            let range = KeyRange::prefix(name);
            s.fs()
                .scan_index(Some(txn), idx, &range, None, ReadLock::Shared, |entry| {
                    let entry = entry.checked()?;
                    base_key.get_or_insert_with(|| idx.base_key_from_index_row(&of.desc, &entry));
                    Ok(())
                })?;
            let base_key = base_key.ok_or("E5: no index entry for E00123")?;
            Ok(s.fs().update_by_key(txn, &of, &base_key, &raise, None)?)
        })
    })?;

    let mut t = Table::measured(
        "E5 — Figure 2: operations via alternate (secondary) key",
        &[
            (
                "read via alternate key",
                read,
                "index DP (find primary key) → base DP (read record)",
            ),
            (
                "update via alternate key",
                update,
                "index DP (find primary key) → base DP (update expression)",
            ),
        ],
        &[
            ("operation", &|r| r.0.into()),
            ("FS-DP msgs", &|r| r.1.metrics.msgs_fs_dp.to_string()),
            ("sequence", &|r| r.2.into()),
        ],
    );
    t.note("Exactly the message flow of the paper's Figure 2: the File System first asks the index's Disk Process, then sends the operation to the Disk Process managing the primary-key partition.");
    Ok(vec![t])
}

// ----------------------------------------------------------------------
// E6 — field-compressed audit
// ----------------------------------------------------------------------

/// One-field updates of ~190-byte records, audited with ENSCRIBE full
/// images vs SQL field compression.
fn e6() -> Outcome<Vec<Table>> {
    const UPDATES: i32 = 400;
    let accts = || accounts("ACCT", "ID", 180, UPDATES);
    let mut runs = Vec::new();

    // ENSCRIBE updates: by default full images, optionally with the costly
    // audit-compression option (the DP diffs the before/after images).
    for (label, mode) in [
        ("ENSCRIBE full-record images", AuditMode::FullImage),
        (
            "ENSCRIBE audit-compression option (image diff at DP)",
            AuditMode::FieldCompressed,
        ),
    ] {
        let (db, of) = accts()?;
        let s = db.session();
        let (w, ()) = window(&db, || {
            for i in 0..UPDATES {
                in_txn(&s, |txn| {
                    let old = s
                        .fs()
                        .ens_read(Some(txn), &of, &pk(i), ReadLock::Shared)?
                        .ok_or("an account that was loaded is gone")?;
                    let new = rebalanced(&old.0, |b| b + 1.0)?;
                    s.fs().send(
                        &of.partitions[0].process,
                        DpRequest::UpdateRecord {
                            txn,
                            file: of.partitions[0].file,
                            key: pk(i),
                            record: nsql_records::row::encode_row(&of.desc, &new)?,
                            audit: mode,
                        },
                    )?;
                    Ok(())
                })?;
            }
            Ok(())
        })?;
        runs.push((label, w.metrics));
    }

    // SQL field-compressed updates.
    let (db, of) = accts()?;
    let s = db.session();
    let credit = set_arith(1, ArithOp::Add, Value::Double(1.0));
    let (w, ()) = window(&db, || {
        for i in 0..UPDATES {
            in_txn(&s, |txn| {
                Ok(s.fs().update_by_key(txn, &of, &pk(i), &credit, None)?)
            })?;
        }
        Ok(())
    })?;
    runs.push((
        "SQL field-compressed images (free: syntax names fields)",
        w.metrics,
    ));

    let mut t = Table::measured(
        format!("E6 — audit volume for {UPDATES} one-field updates of ~190 B records (one txn per update)"),
        &runs,
        &[
            ("audit mode", &|r| r.0.into()),
            ("audit bytes", &|r| r.1.audit_bytes.to_string()),
            ("audit msgs to trail", &|r| r.1.msgs_audit.to_string()),
            ("DP CPU work", &|r| r.1.cpu_dp.to_string()),
            ("bytes/update", &|r| format!("{:.0}", r.1.audit_bytes_per_txn())),
        ],
    );
    t.note("SQL syntax names the updated fields, so field-compressed audit is free; ENSCRIBE's optional compression must diff full images at the Disk Process ('its implementation is costly since the identity of the updated fields must be computed by comparing the record before- and after-images') — and the SQL path also saves the read-before-write message.");
    Ok(vec![t])
}

// ----------------------------------------------------------------------
// E7 — group commit and adaptive timers
// ----------------------------------------------------------------------

/// Synthetic commit arrival streams against the audit trail: commits per
/// flush and response time under fixed and adaptive timers.
fn e7() -> Outcome<Vec<Table>> {
    use nsql_tmf::{LsnSource, Trail, TrailReply, TrailRequest};
    const COMMITS: u64 = 500;

    /// One arrival stream: its timer, its inter-arrival gap, the audit
    /// flushes it took and the mean commit latency.
    struct Stream {
        timer: &'static str,
        gap_us: u64,
        flushes: u64,
        mean_latency_us: u64,
    }
    let mut streams = Vec::new();
    for (name, timer) in [
        ("fixed 1 ms", GroupCommitTimer::Fixed(1_000)),
        ("fixed 10 ms", GroupCommitTimer::Fixed(10_000)),
        (
            "adaptive (target 8)",
            GroupCommitTimer::Adaptive {
                min: 500,
                max: 20_000,
                target_group: 8,
            },
        ),
    ] {
        for gap_us in [200u64, 2_000, 20_000] {
            let sim = nsql_sim::Sim::new();
            let trail = Trail::new(sim.clone(), LsnSource::new(), timer);
            let mut total_latency = 0u64;
            for i in 0..COMMITS {
                let submit = sim.now();
                let reply = trail.apply(TrailRequest::Commit {
                    txn: nsql_lock::TxnId(i),
                });
                let TrailReply::Committed { completion } = reply else {
                    return Err("E7: the trail did not answer a commit with Committed".into());
                };
                total_latency += completion.saturating_sub(submit);
                sim.clock.advance(gap_us);
            }
            sim.clock.advance(1_000_000);
            trail.durable_lsn(sim.now()); // settle the final group
            streams.push(Stream {
                timer: name,
                gap_us,
                flushes: sim.metrics.snapshot().audit_flushes,
                mean_latency_us: total_latency / COMMITS,
            });
        }
    }
    let mut t = Table::measured(
        "E7 — group commit: 500 commits at each arrival rate",
        &streams,
        &[
            ("timer", &|s| s.timer.into()),
            ("inter-arrival", &|s| ms(s.gap_us)),
            ("flushes", &|s| s.flushes.to_string()),
            ("commits/flush", &|s| {
                format!("{:.1}", COMMITS as f64 / s.flushes as f64)
            }),
            ("mean latency", &|s| ms(s.mean_latency_us)),
        ],
    );
    t.note("High arrival rates want a long timer (big groups, few audit writes); low rates want a short one (latency). The adaptive timer tracks the arrival rate and gets both — the [Helland] mechanism.");
    Ok(vec![t])
}

// ----------------------------------------------------------------------
// E8 — bulk I/O, pre-fetch, write-behind
// ----------------------------------------------------------------------

/// A cold full-table scan with cache optimizations toggled, plus a subset
/// update with and without write-behind.
fn e8() -> Outcome<Vec<Table>> {
    const ROWS: u32 = 5_000;
    let scan_with = |bulk_io: bool, prefetch: bool| -> Outcome<Window> {
        let db = configured(DiskProcessConfig {
            bulk_io,
            prefetch,
            cache_frames: 64, // smaller than the table: real I/O happens
            ..DiskProcessConfig::default()
        });
        let w = Wisconsin::create(&db, "WISC", ROWS, &["$DATA1"], 4)?;
        cold_caches(&db)?;
        let (scan, n) = window(&db, || Ok(w.run_count(&db, &w.q_scan_all())?))?;
        ensure!(
            n == ROWS as usize,
            "E8a: the scan returned {n} of {ROWS} rows"
        );
        Ok(scan)
    };
    let mut scans = Table::measured(
        format!(
            "E8a — cold sequential scan of {ROWS} rows (~280 blocks), cache optimizations toggled"
        ),
        &[
            ("block-at-a-time", scan_with(false, false)?),
            ("+ bulk I/O", scan_with(true, false)?),
            ("+ bulk I/O + pre-fetch", scan_with(true, true)?),
        ],
        &[
            ("configuration", &|r| r.0.into()),
            ("disk reads", &|r| r.1.metrics.disk_reads.to_string()),
            ("blocks read", &|r| r.1.metrics.disk_blocks_read.to_string()),
            ("blocks/read", &|r| {
                let m = &r.1.metrics;
                format!(
                    "{:.1}",
                    m.disk_blocks_read as f64 / m.disk_reads.max(1) as f64
                )
            }),
            ("prefetch hits", &|r| r.1.metrics.prefetch_hits.to_string()),
            ("elapsed", &|r| ms(r.1.elapsed_us)),
        ],
    );
    scans.note("Advance knowledge of the key span lets the Disk Process read 7-block strings with one positioning delay each, and pre-fetch overlaps those reads with per-record CPU work.");

    // Write-behind: a subset update leaves dirty strings; with write-behind
    // they go out as asynchronous bulk writes during idle time.
    let update_with = |write_behind: bool| -> Outcome<MetricsSnapshot> {
        let db = configured(DiskProcessConfig {
            write_behind,
            ..DiskProcessConfig::default()
        });
        Wisconsin::create(&db, "WISC", ROWS, &["$DATA1"], 4)?;
        let mut s = db.session();
        let (w, _) = window(&db, || {
            Ok(s.execute(&format!(
                "UPDATE WISC SET THOUSAND = THOUSAND + 1 WHERE UNIQUE2 < {}",
                ROWS / 2
            ))?)
        })?;
        Ok(w.metrics)
    };
    let mut updates = Table::measured(
        "E8b — subset update: write-behind of aged dirty strings",
        &[
            ("write-behind off", update_with(false)?),
            ("write-behind on", update_with(true)?),
        ],
        &[
            ("configuration", &|r| r.0.into()),
            ("write-behind writes", &|r| {
                r.1.writebehind_writes.to_string()
            }),
            ("blocks written", &|r| r.1.disk_blocks_written.to_string()),
            ("bulk I/Os", &|r| r.1.disk_bulk_ios.to_string()),
        ],
    );
    updates.note("With write-behind on, strings of sequentially-dirtied blocks whose audit is already durable are written with asynchronous bulk I/O instead of waiting to be stolen one by one.");
    Ok(vec![scans, updates])
}

// ----------------------------------------------------------------------
// E9 — DebitCredit: SQL vs ENSCRIBE
// ----------------------------------------------------------------------

/// The paper's bottom line: "an SQL system which today matches ... the
/// performance of its pre-existing DBMS."
fn e9() -> Outcome<Vec<Table>> {
    const TXNS: u32 = 300;
    let run = |debit| -> Outcome<Window> {
        let db = Cluster::single_volume();
        let bank = Bank::create(&db, 2, 500, "$DATA1")?;
        let s = db.session();
        let (w, _) = window(&db, || {
            Ok(bank
                .batch(&s, debit, &mut SimRng::seed_from(5), TXNS)
                .fault_free()?)
        })?;
        Ok(w)
    };
    let sql = run(Bank::debit_credit_sql)?;
    let ens = run(Bank::debit_credit_enscribe)?;

    // A row is a metric: its name, the decimals it prints with, and how it
    // is read off either run's window.
    type Metric<'a> = (&'a str, usize, &'a dyn Fn(&Window) -> f64);
    let metrics: [Metric; 11] = [
        ("FS-DP messages", 0, &|w| w.metrics.msgs_fs_dp as f64),
        ("message bytes", 0, &|w| w.metrics.msg_bytes_total as f64),
        ("audit bytes", 0, &|w| w.metrics.audit_bytes as f64),
        ("audit messages", 0, &|w| w.metrics.msgs_audit as f64),
        ("disk writes", 0, &|w| w.metrics.disk_writes as f64),
        ("CPU work (executor+FS)", 0, &|w| {
            (w.metrics.cpu_executor + w.metrics.cpu_fs) as f64
        }),
        ("CPU work (Disk Process)", 0, &|w| w.metrics.cpu_dp as f64),
        ("virtual elapsed (µs)", 0, &|w| w.elapsed_us as f64),
        ("mean bytes/message", 1, &|w| {
            w.metrics.mean_bytes_per_message()
        }),
        ("audit bytes/txn", 1, &|w| w.metrics.audit_bytes_per_txn()),
        ("cache hit rate (%)", 1, &|w| {
            100.0 * w.metrics.cache_hit_rate()
        }),
    ];
    let mut t = Table::measured(
        format!("E9 — DebitCredit, {TXNS} transactions (2 branches x 500 accounts)"),
        &metrics,
        &[
            ("metric", &|m| m.0.into()),
            ("NonStop SQL", &|m| format!("{:.*}", m.1, (m.2)(&sql))),
            ("ENSCRIBE", &|m| format!("{:.*}", m.1, (m.2)(&ens))),
            ("SQL/ENSCRIBE", &|m| {
                let (a, b) = ((m.2)(&sql), (m.2)(&ens));
                if b == 0.0 {
                    "-".into()
                } else {
                    format!("{:.2}", a / b)
                }
            }),
        ],
    );
    t.note(format!(
        "Per-transaction virtual time: SQL {} vs ENSCRIBE {} — the SQL path matches the \
         pre-existing DBMS (and beats it on messages and audit volume) exactly as the paper claims.",
        ms(sql.elapsed_us / TXNS as u64),
        ms(ens.elapsed_us / TXNS as u64)
    ));
    Ok(vec![t])
}

// ----------------------------------------------------------------------
// E10 — blocked inserts (future-work extension)
// ----------------------------------------------------------------------

/// Sequential load through per-record inserts vs the blocked-insert
/// interface, then cursor updates and deletes per record vs buffered.
fn e10() -> Outcome<Vec<Table>> {
    const ROWS: u32 = 10_000;
    const COLUMNS: &str = "K INT NOT NULL, V CHAR(80) NOT NULL, PRIMARY KEY (K)";
    let row = |k: u32| vec![Value::Int(k as i32), Value::Str("V".repeat(80))];

    let (db, of) = table("LOAD", COLUMNS)?;
    let s = db.session();
    let (per_record, ()) = window(&db, || {
        in_txn(&s, |txn| {
            for k in 0..ROWS {
                s.fs().insert_row(txn, &of, &row(k))?;
            }
            Ok(())
        })
    })?;
    let (db, of) = table("LOAD", COLUMNS)?;
    let s = db.session();
    let (blocked, ()) = window(&db, || blocked_insert(&s, &of, (0..ROWS).map(row)))?;
    let mut t = Table::measured(
        format!("E10 — sequential load of {ROWS} records"),
        &[
            ("per-record inserts", per_record),
            ("blocked inserts (extension)", blocked),
        ],
        &[
            ("interface", &|r| r.0.into()),
            ("FS-DP msgs", &|r| r.1.metrics.msgs_fs_dp.to_string()),
            ("msg bytes", &|r| r.1.metrics.msg_bytes_total.to_string()),
            ("elapsed", &|r| ms(r.1.elapsed_us)),
        ],
    );
    t.note("The paper's 'Opportunities for Future Performance Enhancements': accumulating sequential inserts in a File System buffer and shipping them in one message reduces message traffic by the blocking factor.");

    // Part 2: UPDATE/DELETE WHERE CURRENT, per-record vs buffered. The
    // window covers the cursor writes only — not the scan that positions
    // the cursor, not the commit — and both cells of a row read it.
    const CURSOR_ROWS: u32 = 2_000;
    let cursor_writes = |buffered: bool| -> Outcome<Window> {
        let (db, of) = loaded("LOAD", COLUMNS, (0..CURSOR_ROWS).map(row))?;
        let s = db.session();
        in_txn(&s, |txn| {
            let scan = s.fs().scan(
                Some(txn),
                &of,
                &KeyRange::all(),
                None,
                None,
                SubsetMode::Vsbb,
                ReadLock::Shared,
            )?;
            let updated = |old: &[Value]| {
                let mut new = old.to_vec();
                new[1] = Value::Str("U".repeat(80));
                new
            };
            let (w, ()) = window(&db, || {
                if buffered {
                    let mut cur = CursorUpdater::new(s.fs(), &of, txn);
                    for (i, r) in scan.rows.iter().enumerate() {
                        if i % 4 == 0 {
                            cur.delete(&r.0)?;
                        } else if i % 2 == 0 {
                            cur.update(&r.0, &updated(&r.0))?;
                        }
                    }
                    cur.flush()?;
                } else {
                    for (i, r) in scan.rows.iter().enumerate() {
                        if i % 4 == 0 {
                            let key = nsql_records::key::encode_record_key(&of.desc, &r.0);
                            s.fs().delete_by_key(txn, &of, &key)?;
                        } else if i % 2 == 0 {
                            s.fs().ens_rewrite(txn, &of, &r.0, &updated(&r.0))?;
                        }
                    }
                }
                Ok(())
            })?;
            Ok(w)
        })
    };
    let mut t2 = Table::measured(
        format!(
            "E10b — cursor writes over {CURSOR_ROWS} rows (update every 2nd, delete every 4th)"
        ),
        &[
            ("per-record WHERE CURRENT", cursor_writes(false)?),
            ("buffered WHERE CURRENT (extension)", cursor_writes(true)?),
        ],
        &[
            ("interface", &|r| r.0.into()),
            ("FS-DP msgs", &|r| r.1.metrics.msgs_fs_dp.to_string()),
            ("elapsed", &|r| ms(r.1.elapsed_us)),
        ],
    );
    t2.note("The paper's second future-work item: cursor updates and deletes accumulate in a File System buffer and ship to each Disk Process in one message.");
    Ok(vec![t, t2])
}

// ----------------------------------------------------------------------
// E11 — continuation re-drive limits
// ----------------------------------------------------------------------

/// Sweep the per-request record limit: total messages vs the longest time
/// one request execution can monopolize the Disk Process.
fn e11() -> Outcome<Vec<Table>> {
    const ROWS: u32 = 10_000;
    let mut sweep = Vec::new();
    for limit in [250u32, 1_000, 5_000, 20_000] {
        let db = configured(DiskProcessConfig {
            max_records_per_request: limit,
            ..DiskProcessConfig::default()
        });
        let w = Wisconsin::create(&db, "WISC", ROWS, &["$DATA1"], 6)?;
        let mut s = db.session();
        // Selective predicate on an unindexed column: the whole table is
        // examined at the Disk Process, little is returned.
        let (scan, n) = window(&db, || {
            let sql = format!("SELECT UNIQUE2 FROM {} WHERE HUNDRED = 50", w.name);
            Ok(s.query(&sql)?.rows.len())
        })?;
        ensure!(
            n == ROWS as usize / 100,
            "E11: limit {limit} returned {n} rows"
        );
        sweep.push((limit, scan.metrics));
    }
    let mut t = Table::measured(
        format!("E11 — re-drive limit sweep over a {ROWS}-row unselective scan"),
        &sweep,
        &[
            ("records/request limit", &|r| r.0.to_string()),
            ("FS-DP msgs", &|r| r.1.msgs_fs_dp.to_string()),
            ("re-drives", &|r| r.1.msgs_redrive.to_string()),
            ("max records per execution", &|r| {
                r.1.dp_records_examined.min(r.0 as u64).to_string()
            }),
        ],
    );
    t.note("Low limits bound how long one set-oriented request occupies the Disk Process (good for concurrent requesters) at the price of re-drive messages; the limit is the paper's elapsed/processor-time limit.");
    Ok(vec![t])
}

// ----------------------------------------------------------------------
// E12 — constraint pushdown
// ----------------------------------------------------------------------

/// `CHECK QUANTITY >= 0` enforced at the Disk Process vs verified by a
/// preliminary read at the requester.
fn e12() -> Outcome<Vec<Table>> {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE PART (PARTNO INT NOT NULL, QUANTITY INT NOT NULL, \
         PRIMARY KEY (PARTNO), CHECK (QUANTITY >= 0))",
    )?;
    for i in 0..100 {
        s.execute(&format!("INSERT INTO PART VALUES ({i}, 10)"))?;
    }
    let of = s.open_table("PART")?;
    let take_one = set_arith(1, ArithOp::Sub, Value::Int(1));
    let in_stock = Expr::field_cmp(1, CmpOp::Ge, Value::Int(0));

    // (a) Constraint shipped with the update: one message.
    let (pushed, ()) = window(&db, || {
        in_txn(&s, |txn| {
            for i in 0..100 {
                s.fs()
                    .update_by_key(txn, &of, &pk(i), &take_one, Some(&in_stock))?;
            }
            Ok(())
        })
    })?;

    // (b) Requester-side verification: read, check locally, then update.
    let (local, ()) = window(&db, || {
        in_txn(&s, |txn| {
            for i in 0..100 {
                let row = s
                    .fs()
                    .read_by_key(Some(txn), &of, &pk(i), ReadLock::Shared)?
                    .ok_or("E12: a part that was inserted is gone")?;
                let Value::Int(q) = row.0[1] else {
                    return Err("E12: QUANTITY is not an INT".into());
                };
                if q > 0 {
                    s.fs().update_by_key(txn, &of, &pk(i), &take_one, None)?;
                }
            }
            Ok(())
        })
    })?;

    // The pushdown really enforces: drive quantity to zero then underflow.
    let txn = db.txnmgr.begin();
    let mut rejected = false;
    for _ in 0..20 {
        match s
            .fs()
            .update_by_key(txn, &of, &pk(0), &take_one, Some(&in_stock))
        {
            Ok(()) => {}
            Err(FsError::Dp(DpError::ConstraintViolation)) => {
                rejected = true;
                break;
            }
            Err(e) => return Err(e.into()),
        }
    }
    db.txnmgr.abort(txn, s.cpu())?;
    ensure!(rejected, "E12: the constraint must eventually reject");

    let mut t = Table::measured(
        "E12 — guarded decrement of PART.QUANTITY (100 updates)",
        &[
            ("CHECK at the Disk Process", pushed.metrics.msgs_fs_dp),
            ("preliminary read at requester", local.metrics.msgs_fs_dp),
        ],
        &[
            ("method", &|r| r.0.into()),
            ("FS-DP msgs", &|r| r.1.to_string()),
            ("msgs/update", &|r| format!("{:.1}", r.1 as f64 / 100.0)),
        ],
    );
    t.note("Enforcing the integrity constraint at the Disk Process 'obviates the need for a preliminary read by the File System for constraint verification prior to an update request via a second message'.");
    Ok(vec![t])
}

// ----------------------------------------------------------------------
// E13 — VSBB locking vs ENSCRIBE SBB locking
// ----------------------------------------------------------------------

/// Concurrent reader and writer: ENSCRIBE SBB's mandatory file lock blocks
/// the writer everywhere; VSBB's virtual-block group lock only covers the
/// scanned span.
fn e13() -> Outcome<Vec<Table>> {
    let build = || -> Outcome<(Cluster, OpenFile)> {
        let (db, of) = table("T", "K INT NOT NULL, V DOUBLE NOT NULL, PRIMARY KEY (K)")?;
        let mut s = db.session();
        for k in 0..200 {
            s.execute(&format!("INSERT INTO T VALUES ({k}, 1.0)"))?;
        }
        drop(s);
        Ok((db, of))
    };
    let nine = SetList {
        sets: vec![(1, Expr::lit(Value::Double(9.0)))],
    };
    // A second session's attempt to update row `k` while the reader's
    // transaction is open.
    let try_write = |db: &Cluster, of: &OpenFile, k: i32| -> Outcome<&'static str> {
        let s = db.session();
        let txn = db.txnmgr.begin();
        let outcome = match s.fs().update_by_key(txn, of, &pk(k), &nine, None) {
            Ok(()) => "proceeds",
            Err(FsError::Dp(DpError::Locked { .. })) => "BLOCKED",
            Err(e) => return Err(e.into()),
        };
        db.txnmgr.abort(txn, s.cpu())?;
        Ok(outcome)
    };
    // With the reader positioned, one write far from what it has read
    // (K = 190) and one inside it (K = 5).
    let writes = |db: &Cluster, of: &OpenFile| -> Outcome<[&'static str; 2]> {
        Ok([try_write(db, of, 190)?, try_write(db, of, 5)?])
    };

    // ENSCRIBE SBB reader (file lock), ten records into the file.
    let (db, of) = build()?;
    let s = db.session();
    let sbb = in_txn(&s, |reader| {
        let mut cur = s.fs().ens_open_sbb(&of, reader)?;
        for _ in 0..10 {
            s.fs().ens_read_next(&mut cur)?;
        }
        writes(&db, &of)
    })?;

    // VSBB reader (virtual-block group lock over K <= 50).
    let (db, of) = build()?;
    let s = db.session();
    let vsbb = in_txn(&s, |reader| {
        let span = KeyRange {
            begin: OwnedBound::Unbounded,
            end: OwnedBound::Included(pk(50)),
        };
        s.fs().scan(
            Some(reader),
            &of,
            &span,
            None,
            Some(&[0]),
            SubsetMode::Vsbb,
            ReadLock::Shared,
        )?;
        writes(&db, &of)
    })?;

    let mut t = Table::measured(
        "E13 — writer concurrency while a sequential reader is active",
        &[
            ("ENSCRIBE SBB (file lock)", sbb),
            ("SQL VSBB (virtual-block group lock)", vsbb),
        ],
        &[
            ("reader interface", &|r| r.0.into()),
            ("write outside scanned span", &|r| r.1[0].into()),
            ("write inside scanned span", &|r| r.1[1].into()),
        ],
    );
    t.note("'The locking restriction under ENSCRIBE (file locking only) which limited the usefulness of SBB has been removed for SQL. Record locking has been extended to a form of virtual block locking.'");
    Ok(vec![t])
}

// ----------------------------------------------------------------------
// E14 — ablation: virtual-block (reply buffer) size
// ----------------------------------------------------------------------

/// Sweep the VSBB reply buffer: bigger virtual blocks mean fewer re-drives
/// but more data per reply and longer DP occupancy per request.
fn e14() -> Outcome<Vec<Table>> {
    const ROWS: u32 = 10_000;
    let mut sweep = Vec::new();
    for reply_buffer in [1_024usize, 4_096, 16_384, 65_536] {
        let db = configured(DiskProcessConfig {
            reply_buffer,
            max_records_per_request: 1_000_000, // isolate the buffer limit
            ..DiskProcessConfig::default()
        });
        let w = Wisconsin::create(&db, "WISC", ROWS, &["$DATA1"], 8)?;
        let mut s = db.session();
        let (scan, n) = window(&db, || {
            let sql = format!("SELECT * FROM {} WHERE UNIQUE1 < {}", w.name, ROWS / 10);
            Ok(s.query(&sql)?.rows.len())
        })?;
        ensure!(
            n == ROWS as usize / 10,
            "E14: a {reply_buffer} B buffer returned {n} rows"
        );
        sweep.push((reply_buffer, scan));
    }
    let mut t = Table::measured(
        format!("E14 — ablation: virtual-block size for a 10% selection over {ROWS} rows"),
        &sweep,
        &[
            ("reply buffer", &|r| format!("{} B", r.0)),
            ("FS-DP msgs", &|r| r.1.metrics.msgs_fs_dp.to_string()),
            ("msg bytes", &|r| r.1.metrics.msg_bytes_total.to_string()),
            ("bytes/msg", &|r| {
                (r.1.metrics.msg_bytes_total / r.1.metrics.msgs_fs_dp.max(1)).to_string()
            }),
            ("elapsed", &|r| ms(r.1.elapsed_us)),
        ],
    );
    t.note("The paper fixes the virtual block at roughly a physical block; the sweep shows the trade: message count falls linearly with buffer size while each reply grows, so the cost per returned byte flattens once fixed message overhead is amortized.");
    Ok(vec![t])
}

// ----------------------------------------------------------------------
// E15 — ablation: audit send-buffer threshold
// ----------------------------------------------------------------------

/// Sweep the Disk Process's audit send buffer: the batching that field
/// compression amplifies.
fn e15() -> Outcome<Vec<Table>> {
    const UPDATES: i32 = 500;
    let credit = set_arith(1, ArithOp::Add, Value::Double(1.0));
    let mut sweep = Vec::new();
    for threshold in [256usize, 1_024, 4_096, 16_384] {
        let (db, of) = loaded(
            "A",
            "K INT NOT NULL, BAL DOUBLE NOT NULL, PRIMARY KEY (K)",
            (0..UPDATES).map(|k| vec![Value::Int(k), Value::Double(1.0)]),
        )?;
        db.dp("$DATA1").set_audit_send_threshold(threshold);
        let s = db.session();
        let (w, ()) = window(&db, || {
            in_txn(&s, |txn| {
                for k in 0..UPDATES {
                    s.fs().update_by_key(txn, &of, &pk(k), &credit, None)?;
                }
                Ok(())
            })
        })?;
        sweep.push((threshold, w.metrics));
    }
    let mut t = Table::measured(
        format!("E15 — ablation: audit send-buffer threshold, {UPDATES} small updates in one txn"),
        &sweep,
        &[
            ("send threshold", &|r| format!("{} B", r.0)),
            ("audit msgs to trail", &|r| r.1.msgs_audit.to_string()),
            ("records/msg", &|r| {
                format!(
                    "{:.1}",
                    r.1.audit_records as f64 / r.1.msgs_audit.max(1) as f64
                )
            }),
        ],
    );
    t.note("Each audit message to the trail carries a batch of records; a bigger send buffer batches more. Field compression effectively multiplies the threshold — the system-wide benefit the paper attributes to smaller audit records.");
    Ok(vec![t])
}

// ----------------------------------------------------------------------
// E16 — FastSort parallelism
// ----------------------------------------------------------------------

/// ORDER BY over a big result with the parallel sorter at 1/2/4/8 ways —
/// the paper's existing exploitation of intra-query parallelism.
fn e16() -> Outcome<Vec<Table>> {
    const ROWS: u32 = 10_000;
    let mut sweep = Vec::new();
    for ways in [1u32, 2, 4, 8] {
        let db = Cluster::single_volume();
        let w = Wisconsin::create(&db, "WISC", ROWS, &["$DATA1"], 16)?;
        db.set_sort_parallelism(ways);
        let mut s = db.session();
        let (sort, n) = window(&db, || {
            let sql = format!("SELECT UNIQUE1, UNIQUE2 FROM {} ORDER BY UNIQUE1", w.name);
            Ok(s.query(&sql)?.rows.len())
        })?;
        ensure!(
            n == ROWS as usize,
            "E16: the {ways}-way sort returned {n} rows"
        );
        sweep.push((ways, sort));
    }
    let mut t = Table::measured(
        format!("E16 — FastSort: ORDER BY over {ROWS} rows at increasing parallelism"),
        &sweep,
        &[
            ("subsort processes", &|r| r.0.to_string()),
            ("executor CPU work", &|r| {
                r.1.metrics.cpu_executor.to_string()
            }),
            ("elapsed", &|r| ms(r.1.elapsed_us)),
        ],
    );
    t.note("FastSort [Tsukerman] 'uses multiple processors and disks if available': the path length (CPU work) is constant while elapsed time shrinks with the subsort fan-out — the intra-query parallelism the paper counts as already exploited.");
    Ok(vec![t])
}

// ----------------------------------------------------------------------
// E17 — fault-rate sweep: message loss vs the FS recovery protocol
// ----------------------------------------------------------------------

/// Message-loss sweep over DebitCredit plus a scan: retries, sync-ID
/// duplicate suppression, re-drive chain length, and virtual-time overhead
/// against the fault-free baseline. Each row runs the identical seeded
/// workload — only the message-loss rate of the fault plane changes; at 0%
/// the plane is never armed.
fn e17() -> Outcome<Vec<Table>> {
    const TXNS: u32 = 150;

    /// One loss rate's run.
    struct Run {
        rate: f64,
        committed: u32,
        w: Window,
        redrive_chain_max: u64,
    }
    let mut runs = Vec::new();
    for rate in [0.0f64, 0.01, 0.02, 0.05] {
        let db = ClusterBuilder::new()
            // A small reply buffer so the closing scan needs a re-drive
            // chain long enough to measure loss stretching it.
            .dp_config(DiskProcessConfig {
                max_records_per_request: 16,
                ..Default::default()
            })
            .volume_with_backup("$DATA1", 0, 1, 0, 3)
            .build();
        let bank = Bank::create(&db, 2, 50, "$DATA1")?;
        let s = db.session();
        if rate > 0.0 {
            db.enable_faults(FaultConfig {
                drop: rate,
                ..FaultConfig::with_seed(17)
            });
        }
        let (w, committed) = window(&db, || {
            let mut rng = SimRng::seed_from(0xE17);
            let batch = bank.batch(&s, Bank::debit_credit_sql, &mut rng, TXNS);
            // A VSBB scan under the same loss rate: lost replies stretch the
            // GET^NEXT re-drive chain, which the retry protocol re-drives from
            // the last confirmed key.
            db.session().query("SELECT COUNT(*) FROM HISTORY")?;
            db.disable_faults();
            Ok(batch.committed)
        })?;
        runs.push(Run {
            rate,
            committed,
            w,
            redrive_chain_max: db.sim.hist.redrive_chain.max(),
        });
    }
    let baseline_us = runs[0].w.elapsed_us.max(1);
    let mut t = Table::measured(
        format!(
            "E17 — fault-rate sweep: {TXNS} DebitCredit txns + HISTORY scan under message loss"
        ),
        &runs,
        &[
            ("message loss", &|r| format!("{:.0}%", r.rate * 100.0)),
            ("committed", &|r| r.committed.to_string()),
            ("FS retries", &|r| r.w.metrics.fs_retries.to_string()),
            ("dup suppressed", &|r| {
                r.w.metrics.dp_dup_suppressed.to_string()
            }),
            ("re-drive chain max", &|r| r.redrive_chain_max.to_string()),
            ("elapsed", &|r| ms(r.w.elapsed_us)),
            ("overhead", &|r| {
                format!("{:.2}x", r.w.elapsed_us as f64 / baseline_us as f64)
            }),
        ],
    );
    t.note("Message loss is absorbed entirely inside the FS retry protocol: every transaction still commits, retries grow with the loss rate, and the Disk Process sync-ID cache answers retransmissions without re-applying updates. The virtual-time overhead stays within a small multiple of the loss-free run because each retry costs one timeout plus a bounded backoff.");
    Ok(vec![t])
}

/// E18 — MEASURE cross-check of the interface ratios. E2's headline ratios
/// re-derived purely from the MEASURE per-entity counter deltas: the Disk
/// Process's own `msgs.recv` counter must tell the same ≈3x / ≈3x story the
/// global metrics tell. Every cell comes from a `MeasureReport` delta
/// around one interface run — no global metrics — so the experiment doubles
/// as an end-to-end check that the per-entity counters attribute work to
/// the right entities.
fn e18() -> Outcome<Vec<Table>> {
    let runs = read_interfaces()?;
    let [rat, rsbb, vsbb] = [&runs[0].w, &runs[1].w, &runs[2].w];

    // Everything below reads one entity's counters out of a delta; the DP
    // process and its volume/file entities all answer to "$DATA1".
    let dp = |w: &Window, c: Ctr| w.measure.snap.get(EntityKind::Process, "$DATA1", c);
    let file = |w: &Window, c: Ctr| w.measure.snap.total(EntityKind::File, c);
    let vol = |w: &Window, c: Ctr| w.measure.snap.get(EntityKind::Volume, "$DATA1", c);
    let mut t = Table::measured(
        format!(
            "E18 — MEASURE cross-check: per-entity counter deltas for the E2 interfaces, \
             {READ_ROWS}-row Wisconsin table"
        ),
        &runs,
        &[
            ("interface", &|r| r.label.into()),
            ("DP msgs recv", &|r| dp(&r.w, Ctr::MsgsRecv).to_string()),
            ("DP bytes recv", &|r| dp(&r.w, Ctr::BytesRecv).to_string()),
            ("recs examined", &|r| {
                file(&r.w, Ctr::RecsExamined).to_string()
            }),
            ("recs selected", &|r| {
                file(&r.w, Ctr::RecsSelected).to_string()
            }),
            ("volume disk reads", &|r| {
                vol(&r.w, Ctr::DiskReads).to_string()
            }),
            ("elapsed", &|r| ms(r.w.elapsed_us)),
            ("msgs vs RAT", &|r| {
                ratio(dp(rat, Ctr::MsgsRecv), dp(&r.w, Ctr::MsgsRecv))
            }),
        ],
    );
    t.note(format!(
        "Measured from the Disk Process's own MEASURE record: RSBB receives {} fewer requests \
         than record-at-a-time and VSBB another {} fewer than RSBB — each carries at least the \
         paper's factor of three, reproduced from per-entity counter deltas alone (the global \
         metrics of E2 agree message for message).",
        ratio(dp(rat, Ctr::MsgsRecv), dp(rsbb, Ctr::MsgsRecv)),
        ratio(dp(rsbb, Ctr::MsgsRecv), dp(vsbb, Ctr::MsgsRecv)),
    ));
    t.note(format!(
        "Blended (virtual elapsed) ratios stay {} and {} — identical to E2, because the MEASURE \
         layer observes the run without perturbing it: always-on counters cost no virtual time.",
        ratio(rat.elapsed_us, rsbb.elapsed_us),
        ratio(rsbb.elapsed_us, vsbb.elapsed_us),
    ));
    t.note(format!(
        "The file entity confirms the DP does the same logical work each time (recs.examined \
         {} / {} / {}), so the ratios are pure interface effects, not workload drift.",
        file(rat, Ctr::RecsExamined),
        file(rsbb, Ctr::RecsExamined),
        file(vsbb, Ctr::RecsExamined),
    ));
    Ok(vec![t])
}

/// E19 — critical-path wait profile: where the elapsed virtual time of the
/// E2/E4/E9 workloads goes, decomposed into exhaustive, non-overlapping
/// categories that sum *exactly* to the elapsed time (no tolerance), plus a
/// chaos variant showing retry/backoff time appearing under injected
/// faults. Every cell is a raw integer of virtual microseconds, so the perf
/// gate catches any hop silently getting slower, per category.
fn e19() -> Outcome<Vec<Table>> {
    /// A workload's ledger, admitted as a row only if it is exact.
    fn profile(label: &'static str, w: &Window) -> Outcome<(&'static str, WaitProfile, u64)> {
        ensure!(
            w.wait.total() == w.elapsed_us,
            "E19 {label}: wait categories sum to {}, elapsed is {}",
            w.wait.total(),
            w.elapsed_us
        );
        ensure!(
            w.wait.get(Wait::Other) == 0,
            "E19 {label}: every microsecond inside a workload must be attributed"
        );
        ensure!(
            w.wait.get(Wait::Restart) == 0,
            "E19 {label}: no crash recovery runs inside these workloads"
        );
        Ok((label, w.wait, w.elapsed_us))
    }
    let mut rows = Vec::new();

    // E2's winning interface: the VSBB 10% selection as one SQL statement.
    // Statement-level profile straight from QueryStats.
    {
        let db = Cluster::single_volume();
        let w = Wisconsin::create(&db, "WISC", 10_000, &["$DATA1"], 2)?;
        cold_caches(&db)?;
        let mut s = db.session();
        s.query(&w.q_select_10pct_clustered())?;
        let stats = s.last_stats().ok_or("E19: the statement left no stats")?;
        rows.push(profile("E2 VSBB scan (10% select)", stats)?);
    }

    // E4's winning method: the set-oriented interest-posting UPDATE.
    {
        let db = Cluster::single_volume();
        Wisconsin::create(&db, "WISC", 2_000, &["$DATA1"], 2)?;
        let mut s = db.session();
        s.execute("UPDATE WISC SET UNIQUE1 = UNIQUE1 + 0 WHERE UNIQUE2 < 200")?;
        let stats = s.last_stats().ok_or("E19: the statement left no stats")?;
        rows.push(profile("E4 set-oriented UPDATE (10%)", stats)?);
    }

    // E9: the DebitCredit batch over the SQL path; the window profile
    // aggregates the per-statement ledgers (group-commit time shows up).
    let bank_run = |faults: Option<FaultConfig>| -> Outcome<(Window, u64)> {
        let db = ClusterBuilder::new()
            .volume_with_backup("$DATA1", 0, 1, 0, 3)
            .build();
        let bank = Bank::create(&db, 2, 500, "$DATA1")?;
        let s = db.session();
        if let Some(cfg) = faults {
            db.enable_faults(cfg);
        }
        let (w, _) = window(&db, || {
            let mut rng = SimRng::seed_from(5);
            Ok(bank.batch(&s, Bank::debit_credit_sql, &mut rng, 100))
        })?;
        db.disable_faults();
        Ok((w, db.snapshot().fs_retries))
    };
    let (w, _) = bank_run(None)?;
    rows.push(profile("E9 DebitCredit x100 (fault-free)", &w)?);
    let (w, retries) = bank_run(Some(FaultConfig {
        drop: 0.08,
        ..FaultConfig::with_seed(21)
    }))?;
    ensure!(
        retries > 0,
        "E19: the chaos variant must exercise FS retries"
    );
    rows.push(profile("E9 DebitCredit x100 (chaos: 8% drops)", &w)?);

    // E19's schema (and its pinned baseline) predates `wait.restart`:
    // the column set stays the original seven, and restart — which only
    // crash recovery can charge — is checked zero instead. E20 owns the
    // restart category.
    let mut t = Table::measured(
        "E19 — critical-path wait profile: exact decomposition of elapsed virtual time (µs)",
        &rows,
        &[
            ("workload", &|r| r.0.into()),
            ("cpu", &|r| r.1.get(Wait::Cpu).to_string()),
            ("msg", &|r| r.1.get(Wait::Msg).to_string()),
            ("disk", &|r| r.1.get(Wait::Disk).to_string()),
            ("lock", &|r| r.1.get(Wait::Lock).to_string()),
            ("commit", &|r| r.1.get(Wait::Commit).to_string()),
            ("retry", &|r| r.1.get(Wait::Retry).to_string()),
            ("other", &|r| r.1.get(Wait::Other).to_string()),
            ("elapsed", &|r| r.2.to_string()),
        ],
    );
    t.note(
        "Each row decomposes the workload's elapsed virtual time into the exhaustive wait \
         categories of the per-statement ledger; the categories sum exactly (no tolerance) to \
         the elapsed column — the EXPLAIN ANALYZE discipline applied to latency.",
    );
    t.note(
        "Under injected message drops the same workload grows a retry column (FS backoff \
         between retransmissions) and its msg share swells with virtual-time timeouts — the \
         breakdown names the hop that got slower, which counters alone cannot.",
    );
    Ok(vec![t])
}

/// E20 — crash-restart recovery cost. The paper's availability story rests
/// on TMF: "transaction audit trails ... are the basis of both transaction
/// UNDO and REDO". This experiment measures what that REDO/UNDO replay
/// costs at restart, as a function of durable trail length, plus the two
/// media-recovery paths (trail rebuild and mirror copy-back). All cells are
/// raw integers (record counts / virtual µs): the perf gate catches
/// recovery silently getting slower with zero tolerance.
fn e20() -> Outcome<Vec<Table>> {
    /// One recovery: what it had to read back and what that cost.
    struct Recovery {
        label: &'static str,
        trail_recs: usize,
        w: Window,
    }
    type Recover<'a> = &'a dyn Fn(&Cluster) -> Outcome<()>;

    // A seeded cluster with `txns` committed DebitCredit transactions
    // (and optionally one in-flight loser with durable audit), measured
    // through the given recovery action.
    let scenario = |label: &'static str,
                    txns: u32,
                    in_flight: bool,
                    mirrored: bool,
                    recover: Recover|
     -> Outcome<Recovery> {
        let b = ClusterBuilder::new();
        let db = if mirrored {
            b.volume("$DATA1", 0, 1)
        } else {
            b.volume_unmirrored("$DATA1", 0, 1)
        }
        .build();
        let bank = Bank::create(&db, 2, 100, "$DATA1")?;
        let s = db.session();
        let mut rng = SimRng::seed_from(0xE20);
        bank.batch(&s, Bank::debit_credit_sql, &mut rng, txns)
            .fault_free()?;
        if in_flight {
            // Its audit reaches the durable trail via an eager send plus
            // one committed writer's group flush — a genuine UNDO load.
            // Fixed, disjoint ids: the loser (branch 0) and the flushing
            // committed txn (branch 1) must not collide on locks.
            db.dp("$DATA1").set_audit_send_threshold(0);
            let loser = db.txnmgr.begin();
            bank.debit_credit_sql(s.fs(), loser, 5, 1, 0, 2.5)?;
            in_txn(&s, |txn| {
                Ok(bank.debit_credit_sql(s.fs(), txn, 150, 15, 1, -1.25)?)
            })?;
        }
        let trail_recs = db.trail.durable_records(db.sim.now()).len();
        let (w, ()) = window(&db, || recover(&db))?;
        Ok(Recovery {
            label,
            trail_recs,
            w,
        })
    };

    let restart: Recover = &|db| {
        db.crash_and_restart(0, 1);
        Ok(())
    };
    let rebuild: Recover = &|db| {
        db.disk("$DATA1").fail_drive(0);
        Ok(db.media_recover("$DATA1")?)
    };
    let remirror: Recover = &|db| {
        db.dp("$DATA1").pool().flush_all()?;
        db.disk("$DATA1").fail_drive(1);
        Ok(db.media_recover("$DATA1")?)
    };
    let recoveries = [
        scenario("restart after 25 txns", 25, false, true, restart)?,
        scenario("restart after 100 txns", 100, false, true, restart)?,
        scenario("restart after 400 txns", 400, false, true, restart)?,
        scenario(
            "restart + in-flight loser (100 txns)",
            100,
            true,
            true,
            restart,
        )?,
        scenario(
            "media rebuild, unmirrored (100 txns)",
            100,
            false,
            false,
            rebuild,
        )?,
        scenario("re-mirror copy-back (100 txns)", 100, false, true, remirror)?,
    ];

    let dp = |r: &Recovery, c: Ctr| r.w.measure.snap.get(EntityKind::Process, "$DATA1", c);
    let mut t = Table::measured(
        "E20 — crash-restart: audit-trail replay cost vs durable trail length (µs)",
        &recoveries,
        &[
            ("scenario", &|r| r.label.into()),
            ("trail recs", &|r| r.trail_recs.to_string()),
            ("scanned", &|r| dp(r, Ctr::RecoveryScanned).to_string()),
            ("redo", &|r| dp(r, Ctr::RecoveryRedo).to_string()),
            ("undo", &|r| dp(r, Ctr::RecoveryUndo).to_string()),
            ("restart us", &|r| r.w.wait.get(Wait::Restart).to_string()),
            ("recovery us", &|r| r.w.elapsed_us.to_string()),
        ],
    );
    t.note(
        "Restart replay cost scales with the durable trail prefix: `scanned` counts every \
         record read back, `redo`/`undo` the winners re-applied and losers rolled back, and \
         `restart us` the virtual time charged to the wait.restart category (CPU replay work \
         plus, for media recovery, the cost-modelled disk transfer).",
    );
    t.note(
        "The two media paths differ structurally: a dead unmirrored volume is rebuilt by REDO \
         of the whole trail onto an empty store, while a mirrored volume's replacement half is \
         a pure sequential copy-back from the survivor (no Disk Process replay at all).",
    );
    Ok(vec![t])
}

/// One cell of a load table: the scenario, its configured horizon, and
/// what the open-loop engine reported.
struct LoadRun {
    label: String,
    duration_us: u64,
    out: LoadOutcome,
}

/// The terminal population every load experiment runs — twelve terminals
/// behind a six-slot admission gate — with the knobs they turn.
fn terminals(seed: u64, duration_us: u64, mean_think_us: f64, zipf_theta: f64) -> LoadConfig {
    LoadConfig {
        terminals: 12,
        duration_us,
        mean_think_us,
        zipf_theta,
        max_inflight: 6,
        seed,
        ..LoadConfig::default()
    }
}

/// Build a fresh cluster + bank, run the open-loop load, and check it
/// (`LoadOutcome::check`): aborted attempts must have rolled back exactly.
fn load_run(
    label: &str,
    cfg: &LoadConfig,
    accounts_per_branch: u32,
    lock_timeout_us: u64,
    faults: Option<FaultConfig>,
) -> Outcome<LoadRun> {
    let db = Cluster::single_volume();
    if lock_timeout_us > 0 {
        db.set_lock_wait_timeout(lock_timeout_us);
    }
    // Ten branches so branch-row updates only occasionally collide; the
    // contention knob is the Zipf hotspot over the account rows, whose
    // population the caller picks (wide bank = load-bound, small bank =
    // contention-bound).
    let bank = Bank::create(&db, 10, accounts_per_branch, "$DATA1")?;
    let opening = bank.total_balance(&db)?;
    if let Some(f) = faults {
        db.enable_faults(f);
    }
    let out = run_load(&db, &bank, cfg);
    db.disable_faults();
    out.check(&db, &bank, opening)
        .map_err(|e| format!("{label}: {e}"))?;
    Ok(LoadRun {
        label: label.to_string(),
        duration_us: cfg.duration_us,
        out,
    })
}

/// The columns E21 and `load` share. tps cells are fixed-precision floats
/// of deterministic virtual-time ratios, so the perf gate diffs them with
/// zero tolerance like the integer cells.
fn load_table(title: &str, runs: &[LoadRun]) -> Table {
    Table::measured(
        title,
        runs,
        &[
            ("scenario", &|r| r.label.clone()),
            ("offered tps", &|r| {
                format!("{:.1}", r.out.offered_tps(r.duration_us))
            }),
            ("tps", &|r| format!("{:.1}", r.out.tps())),
            ("p50 us", &|r| r.out.percentile_us(50.0).to_string()),
            ("p95 us", &|r| r.out.percentile_us(95.0).to_string()),
            ("p99 us", &|r| r.out.percentile_us(99.0).to_string()),
            ("adm wait us", &|r| r.out.admission_wait_us.to_string()),
            ("dl retries", &|r| r.out.deadlock_retries.to_string()),
            ("timeouts", &|r| r.out.lock_timeouts.to_string()),
            ("gave up", &|r| r.out.gave_up.to_string()),
        ],
    )
}

/// E21 — contention survival. N simulated terminals issue DebitCredit with
/// Poisson arrivals and a Zipf-skewed account hotspot, interleaved at FS-DP
/// message granularity so transactions genuinely contend: deadlocks are
/// detected on the waits-for graph, the youngest cycle member is doomed and
/// rolled back via the audit trail, and the client retries with bounded
/// backoff. An admission gate bounds in-flight transactions so overload
/// queues instead of collapsing the lock table.
fn e21() -> Outcome<Vec<Table>> {
    let cfg = |think_us, theta| terminals(0xE21, 400_000, think_us, theta);
    let mut runs = Vec::new();
    // Offered-load sweep at moderate skew: shrinking think time pushes the
    // open-loop arrival rate through saturation.
    for (label, think_us) in [
        ("load: light (think 100ms)", 100_000.0),
        ("load: moderate (think 30ms)", 30_000.0),
        ("load: heavy (think 10ms)", 10_000.0),
        ("load: saturated (think 3ms)", 3_000.0),
    ] {
        runs.push(load_run(label, &cfg(think_us, 0.8), 100, 0, None)?);
    }
    // Skew sweep at fixed offered load on a small hot bank (100 account
    // rows): a steeper Zipf hotspot turns the same arrival rate into
    // convoys and genuine waits-for cycles.
    let hot = |theta| cfg(10_000.0, theta);
    for (label, theta) in [
        ("skew: uniform (theta 0)", 0.0),
        ("skew: mild (theta 0.6)", 0.6),
        ("skew: hot (theta 1.0)", 1.0),
        ("skew: scorching (theta 1.2)", 1.2),
    ] {
        runs.push(load_run(label, &hot(theta), 10, 0, None)?);
    }
    // Lock-wait timeout armed: convoy stragglers are doomed instead of
    // waiting out the hotspot, trading aborts for bounded tail latency.
    runs.push(load_run(
        "timeout armed (2.5ms, theta 1.2)",
        &hot(1.2),
        10,
        2_500,
        None,
    )?);
    // Chaos variant: message drops and delays on top of contention; FS
    // retries and doom-retries compose, and conservation still holds.
    let faults = FaultConfig {
        drop: 0.02,
        delay: 0.02,
        ..FaultConfig::with_seed(0xE21)
    };
    runs.push(load_run(
        "chaos (2% drop, 2% delay, theta 1.0)",
        &hot(1.0),
        10,
        0,
        Some(faults),
    )?);

    let mut t = load_table(
        "E21 — contention survival: throughput and tail latency vs offered load and skew",
        &runs,
    );
    t.note(
        "Open-loop arrivals: each of 12 terminals draws exponential think times, so offered \
         tps rises as think time shrinks while achieved tps saturates at the lock/commit \
         bottleneck — the gap drains into the admission queue (`adm wait us` is the summed \
         per-transaction wait between arrival and gate admission) instead of collapsing the \
         lock table.",
    );
    t.note(
        "Skew turns load into contention: at uniform skew deadlocks are rare, while a \
         theta=1.2 hotspot produces genuine waits-for cycles — each is resolved by dooming \
         the youngest cycle member (rolled back via the audit trail) and retrying it with \
         bounded backoff (`dl retries`). Every row asserts exact money conservation, so every \
         abort demonstrably undid its partial work.",
    );
    Ok(vec![t])
}

/// The exhaustive `experiments load` mode: a full offered-load × skew
/// grid at a longer horizon than the E21 record, for interactive study.
/// Not part of `BENCH_results.json` (CI runs the pinned E21 table).
fn load() -> Outcome<Vec<Table>> {
    let mut runs = Vec::new();
    for (tag, think_us) in [
        ("6ms", 6_000.0),
        ("3ms", 3_000.0),
        ("1.5ms", 1_500.0),
        ("0.75ms", 750.0),
        ("0.4ms", 400.0),
    ] {
        for (skew, theta) in [("0.0", 0.0), ("0.8", 0.8), ("1.2", 1.2)] {
            let cfg = terminals(0xE21, 300_000, think_us, theta);
            let label = format!("think {tag}, theta {skew}");
            runs.push(load_run(&label, &cfg, 20, 0, None)?);
        }
    }
    let mut t = load_table(
        "LOAD — exhaustive contention sweep: offered load x Zipf skew (12 terminals)",
        &runs,
    );
    t.note(
        "The full grid behind E21's two one-dimensional sweeps: every offered-load level \
         crossed with every skew level, at a 300ms virtual horizon. Run via `experiments \
         load`; the CI load-sweep job drives the same engine through the #[ignore]-gated \
         exhaustive tests.",
    );
    Ok(vec![t])
}

/// Run one E22 cell and check it (`LoadOutcome::check`), the sampler's
/// exactness contract included: the intervals tile the run, each windowed
/// wait ledger decomposes its interval's span with no remainder, and the
/// reported bottleneck is the ledger's own argmax. The bank is read only
/// after the run, so the check moves no cell of the record.
fn e22_run(label: &str, cfg: &LoadConfig) -> Outcome<LoadOutcome> {
    let db = Cluster::single_volume();
    let bank = Bank::create(&db, 10, 100, "$DATA1")?;
    let out = run_load(&db, &bank, cfg);
    out.check(&db, &bank, bank.opening_total())
        .map_err(|e| format!("{label}: {e}"))?;
    Ok(out)
}

/// E22 — interval sampler: the open-loop DebitCredit engine with the
/// virtual-time interval sampler on, at three offered-load levels (one bank
/// shape, think time is the knob, sampled every 50ms of virtual time). Both
/// records come from one pass over the cells: (a) the per-interval time
/// series — throughput, latency percentiles, and the windowed wait-ledger
/// bottleneck — and (b) the full log2 latency CDF of each cell.
fn e22() -> Outcome<Vec<Table>> {
    let mut intervals = Vec::new();
    // A CDF row: the cell, what kind of row it is, its four numbers (a
    // bucket's lo / hi / count / cumulative count, or the summary row's
    // four percentiles) and the cumulative share in percent.
    let mut cdf_rows: Vec<(&str, &str, [u64; 4], f64)> = Vec::new();
    for (label, think_us) in [
        ("light (think 100ms)", 100_000.0),
        ("heavy (think 10ms)", 10_000.0),
        ("saturated (think 3ms)", 3_000.0),
    ] {
        let cfg = LoadConfig {
            sample_every_us: 50_000,
            ..terminals(0xE22, 400_000, think_us, 0.8)
        };
        let out = e22_run(label, &cfg)?;
        intervals.extend(
            out.intervals
                .into_iter()
                .enumerate()
                .map(|(i, iv)| (label, i, iv)),
        );
        let h = Histogram::new();
        for &v in &out.latencies_us {
            h.record(v);
        }
        let n = h.count().max(1) as f64;
        let mut cum = 0u64;
        for (lo, hi, count) in h.buckets() {
            cum += count;
            cdf_rows.push((
                label,
                "bucket",
                [lo, hi, count, cum],
                100.0 * cum as f64 / n,
            ));
        }
        let percentiles = [0.50, 0.95, 0.99, 0.999].map(|q| h.percentile(q));
        cdf_rows.push((label, "p50/p95/p99/p999", percentiles, 100.0));
    }

    let mut series = Table::measured(
        "E22 — interval sampler: per-interval throughput, latency, and bottleneck attribution",
        &intervals,
        &[
            ("scenario", &|r| r.0.into()),
            ("ivl", &|r| r.1.to_string()),
            ("start us", &|r| r.2.start_us.to_string()),
            ("span us", &|r| (r.2.end_us - r.2.start_us).to_string()),
            ("arrivals", &|r| r.2.arrivals.to_string()),
            ("commits", &|r| r.2.committed.to_string()),
            ("tps", &|r| format!("{:.1}", r.2.tps())),
            ("p50 us", &|r| r.2.percentile_us(50.0).to_string()),
            ("p95 us", &|r| r.2.percentile_us(95.0).to_string()),
            ("p99 us", &|r| r.2.percentile_us(99.0).to_string()),
            ("top wait", &|r| r.2.top_wait().name().to_string()),
            ("wait us", &|r| {
                r.2.wait_us[r.2.top_wait().index()].to_string()
            }),
            ("top entity", &|r| r.2.top_entity.clone()),
            ("entity ops", &|r| r.2.top_entity_delta.to_string()),
        ],
    );
    series.note(
        "Each row is one closed sampler interval (50ms of virtual time; the last row of a \
         cell is the partial drain tail). `top wait` is the argmax of the interval's windowed \
         wait ledger — the same attributed clock every statement decomposes into — so the \
         bottleneck column sums, with the other categories, to exactly `span us`. `top \
         entity` is the MEASURE entity with the largest counter delta in the window.",
    );
    series.note(
        "Read as a bottleneck report: at every offered load the group-commit timer dominates \
         the windowed ledger (wait.commit), and the busiest entity is the hot data Disk Process \
         in every interval (the audit trail counts the audit it is sent once, as bytes \
         received, not again when it flushes) — shortening think time moves the latency \
         columns, not the bottleneck. The report and the ledger cannot \
         disagree because they are the same numbers.",
    );
    let mut cdf = Table::measured(
        "E22 — latency CDF per offered-load cell (log2 buckets, interpolated percentiles)",
        &cdf_rows,
        &[
            ("scenario", &|r| r.0.into()),
            ("kind", &|r| r.1.into()),
            ("lo us", &|r| r.2[0].to_string()),
            ("hi us", &|r| r.2[1].to_string()),
            ("count", &|r| r.2[2].to_string()),
            ("cum", &|r| r.2[3].to_string()),
            ("cum %", &|r| format!("{:.1}", r.3)),
        ],
    );
    cdf.note(
        "Full latency distribution per cell, not just point percentiles: log2 buckets with \
         cumulative counts, plus a summary row of interpolated p50/p95/p99/p999 \
         (Histogram::percentile spreads each bucket uniformly). Offered load moves the whole \
         curve, not just the tail.",
    );
    Ok(vec![series, cdf])
}

// ----------------------------------------------------------------------
// E23 — aggregation at the source
// ----------------------------------------------------------------------

/// A `GROUP BY` folded at the Disk Process, whose requests reply with the
/// partial groups of what they select, against the plain `SELECT` of the
/// same fields — the rows an executor-side fold reads — over selectivity ×
/// group count on a cold 10,000-row Wisconsin table. The same aggregate
/// over `UNIQUE2 + 0`, which the Disk Process does not fold, reads those
/// rows and folds them in the executor: its elapsed time is the third.
fn e23() -> Outcome<Vec<Table>> {
    const ROWS: u32 = 10_000;
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    Wisconsin::create(&db, "WISC", ROWS, &["$DATA1"], 23)?;
    let mut s = db.session();
    // The load's blocks reach the disk before anything is measured.
    cold_caches(&db)?;
    s.query("SELECT COUNT(*) FROM WISC")?;
    struct Cell {
        query: String,
        groups: usize,
        rows: usize,
        pushed: Window,
        plain: Window,
        executor: Window,
    }
    let selections = [("1%", ROWS / 100), ("10%", ROWS / 10), ("100%", ROWS)];
    let groupings = [None, Some("TEN"), Some("HUNDRED"), Some("THOUSAND")];
    let mut cells = Vec::new();
    for (selected, below) in selections {
        for column in groupings {
            let (field, tail) = match column {
                Some(c) => (format!("{c}, "), format!(" GROUP BY {c}")),
                None => (String::new(), String::new()),
            };
            let filter = format!("FROM WISC WHERE UNIQUE1 < {below}");
            let folded = format!("SELECT {field}COUNT(*), MIN(UNIQUE2) {filter}{tail}");
            let plain = format!("SELECT {field}UNIQUE2 {filter}");
            let by_executor = folded.replace("MIN(UNIQUE2)", "MIN(UNIQUE2 + 0)");
            for (sql, at_dp) in [(&folded, true), (&by_executor, false)] {
                let plan = format!("{:?}", s.query(&format!("EXPLAIN {sql}"))?.rows);
                ensure!(plan.contains("AGGREGATE at DP") == at_dp, "{sql}: {plan}");
            }
            cold_caches(&db)?;
            let (pushed, groups) = window(&db, || Ok(s.query(&folded)?.rows))?;
            cold_caches(&db)?;
            let (plain, rows) = window(&db, || Ok(s.query(&plain)?.rows.len()))?;
            cold_caches(&db)?;
            let (executor, same) = window(&db, || Ok(s.query(&by_executor)?.rows))?;
            // The counts agree (the expression's minimum is another type).
            let counts = |rows: &[nsql_records::Row]| -> Vec<Value> {
                rows.iter().map(|r| r.0[r.0.len() - 2].clone()).collect()
            };
            ensure!(
                counts(&same) == counts(&groups),
                "{by_executor} answers otherwise"
            );
            let groups = groups.len();
            cells.push(Cell {
                query: format!("{selected} by {}", column.unwrap_or("nothing")),
                groups,
                rows,
                pushed,
                plain,
                executor,
            });
        }
    }
    let msgs = |w: &Window| w.metrics.msgs_fs_dp.to_string();
    let bytes = |w: &Window| w.metrics.msg_bytes_total.to_string();
    let mut t = Table::measured(
        "E23 — GROUP BY folded at the Disk Process vs the rows an executor fold reads (10000-row Wisconsin)",
        &cells,
        &[
            ("selected, grouped", &|c| c.query.clone()),
            ("groups", &|c| c.groups.to_string()),
            ("rows", &|c| c.rows.to_string()),
            ("msgs (folded)", &|c| msgs(&c.pushed)),
            ("msgs (rows)", &|c| msgs(&c.plain)),
            ("bytes (folded)", &|c| bytes(&c.pushed)),
            ("bytes (rows)", &|c| bytes(&c.plain)),
            ("elapsed (folded)", &|c| ms(c.pushed.elapsed_us)),
            ("elapsed (rows)", &|c| ms(c.plain.elapsed_us)),
            ("elapsed (executor fold)", &|c| ms(c.executor.elapsed_us)),
        ],
    );
    t.note(
        "Each Disk Process request folds the records it selects and replies with one partial \
         row per group: bytes follow groups × requests, not rows, and the messages are the \
         scan's own — a request still ends at the record budget, or when its partial groups \
         fill the reply, as a thousand groups do here. The fold's CPU moves to the Disk \
         Process, one unit per record and aggregate, as the executor would book it, and each \
         partial row costs the File System and the executor one unit each: against the same \
         aggregate folded by the executor, the elapsed time falls where a request's records \
         share groups, and rises where nearly every record is a group of its own (THOUSAND), \
         whose partial rows outweigh the rows.",
    );
    Ok(vec![t])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The tables of experiment `id`, each body run at most once per test
    /// process however many tests read it.
    fn tables(id: &str) -> &'static [Table] {
        static RUNS: [OnceLock<Vec<Table>>; EXPERIMENTS.len()] =
            [const { OnceLock::new() }; EXPERIMENTS.len()];
        let i = EXPERIMENTS
            .iter()
            .position(|e| e.id == id)
            .unwrap_or_else(|| panic!("no experiment {id}"));
        RUNS[i].get_or_init(|| EXPERIMENTS[i].tables().unwrap())
    }

    /// A cell of the experiment's first table, parsed.
    fn cell<T: std::str::FromStr>(id: &str, row: &str, header: &str) -> T {
        let text = tables(id)[0]
            .cell(row, header)
            .unwrap_or_else(|| panic!("{id}: no cell ({row}, {header})"));
        text.trim_end_matches('x')
            .parse()
            .unwrap_or_else(|_| panic!("{id} ({row}, {header}): cannot parse {text:?}"))
    }

    // Each experiment is smoke-tested for the qualitative shape its report
    // claims; the full tables go to EXPERIMENTS.md.

    #[test]
    fn e2_shape_rsbb_and_vsbb_win() {
        assert!(tables("e2")[0]
            .cell("record-at-a-time", "FS-DP msgs")
            .is_some());
        // RSBB beats record-at-a-time by at least 3x on messages.
        let factor: f64 = cell("e2", "RSBB (block", "msgs vs RAT");
        assert!(factor >= 3.0, "RSBB factor {factor} < 3");
        let vfactor: f64 = cell("e2", "VSBB (10%", "msgs vs RAT");
        assert!(vfactor >= 3.0 * factor, "VSBB must beat RSBB by ≥3x again");
    }

    #[test]
    fn e4_shape_pushdown_wins() {
        let msgs = |row: &str| -> u64 { cell("e4", row, "FS-DP msgs") };
        let subset = msgs("UPDATE^SUBSET");
        let per_record = msgs("per-record UPDATE");
        let enscribe = msgs("ENSCRIBE read-then-write");
        assert!(subset * 10 < per_record);
        assert!(
            per_record * 2 <= enscribe + 1,
            "read-before-write doubles messages"
        );
    }

    #[test]
    fn e5_shape_two_messages() {
        let msgs: u64 = cell("e5", "read via alternate key", "FS-DP msgs");
        assert_eq!(msgs, 2, "Figure 2 is a two-message pattern");
    }

    #[test]
    fn e6_shape_field_compression_shrinks() {
        let full: u64 = cell("e6", "ENSCRIBE full-record", "audit bytes");
        let field: u64 = cell("e6", "SQL field-compressed", "audit bytes");
        assert!(field * 2 < full, "field {field} vs full {full}");
    }

    #[test]
    fn e7_shape_adaptive_groups() {
        let t = &tables("e7")[0];
        assert!(t.cell("adaptive", "commits/flush").is_some());
    }

    #[test]
    fn e9_shape_sql_matches_enscribe() {
        let ratio: f64 = cell("e9", "virtual elapsed", "SQL/ENSCRIBE");
        assert!(
            ratio <= 1.1,
            "SQL path must match or beat ENSCRIBE (ratio {ratio})"
        );
    }

    #[test]
    fn e10_shape_blocking_factor() {
        let msgs = |row: &str| -> u64 { cell("e10", row, "FS-DP msgs") };
        assert!(msgs("per-record inserts") > 50 * msgs("blocked inserts"));
    }

    #[test]
    fn e17_shape_loss_surfaces_as_retries_not_lost_txns() {
        let t = &tables("e17")[0];
        // The fault-free baseline neither retries nor pays overhead.
        assert_eq!(t.cell("0%", "FS retries"), Some("0"));
        assert_eq!(t.cell("0%", "overhead"), Some("1.00x"));
        // Loss surfaces as retries, monotonically with the rate ...
        let r1: u64 = cell("e17", "1%", "FS retries");
        let r5: u64 = cell("e17", "5%", "FS retries");
        assert!(r1 > 0, "1% loss must force at least one retry");
        assert!(r5 > r1, "retries must grow with the rate ({r1} -> {r5})");
        // ... never as lost transactions.
        for rate in ["0%", "1%", "2%", "5%"] {
            assert_eq!(
                t.cell(rate, "committed"),
                Some("150"),
                "every txn commits at {rate}"
            );
        }
    }

    #[test]
    fn e13_shape_vsbb_allows_outside_writer() {
        let t = &tables("e13")[0];
        let (outside, inside) = ("write outside scanned span", "write inside scanned span");
        assert_eq!(t.cell("ENSCRIBE SBB", outside), Some("BLOCKED"));
        assert_eq!(t.cell("ENSCRIBE SBB", inside), Some("BLOCKED"));
        assert_eq!(t.cell("SQL VSBB", outside), Some("proceeds"));
        assert_eq!(t.cell("SQL VSBB", inside), Some("BLOCKED"));
    }

    #[test]
    fn e18_shape_measure_counters_reproduce_the_ratios() {
        let msgs = |row: &str| -> u64 { cell("e18", row, "DP msgs recv") };
        let rat = msgs("record-at-a-time");
        let rsbb = msgs("RSBB (block");
        let vsbb = msgs("VSBB (10%");
        assert!(
            rat >= 3 * rsbb,
            "RSBB ≈3x on DP msgs.recv ({rat} vs {rsbb})"
        );
        assert!(rsbb >= 3 * vsbb, "VSBB ≈3x again ({rsbb} vs {vsbb})");
        // Same logical work each run, straight from the file entity.
        let examined = |row: &str| -> u64 { cell("e18", row, "recs examined") };
        assert_eq!(examined("record-at-a-time"), 10_000);
        assert_eq!(examined("VSBB (10%"), 10_000);
    }

    #[test]
    fn e19_shape_wait_profiles_sum_exactly_and_chaos_shows_retries() {
        let t = &tables("e19")[0];
        assert!(t.cell("E2 VSBB scan", "elapsed").is_some());
        // The chaos variant surfaces retry/backoff time; the fault-free
        // rows have none. Row cells are raw integers, so the perf gate
        // diffs every category with zero tolerance.
        let retry_of = |row: &str| -> u64 { cell("e19", row, "retry") };
        assert_eq!(retry_of("E9 DebitCredit"), 0);
        assert!(retry_of("chaos") > 0, "{}", t.render());
    }

    /// The E10b bug this pins: `FS-DP msgs` came from a window closed
    /// before the commit and `elapsed` from one closed after it. Both now
    /// read one window, so the buffered path's elapsed time no longer
    /// carries a commit that its two messages do not.
    #[test]
    fn e10b_reads_both_cells_from_the_window_before_the_commit() {
        let t = &tables("e10")[1];
        assert_eq!(t.cell("buffered WHERE CURRENT", "FS-DP msgs"), Some("2"));
        assert_eq!(
            t.cell("per-record WHERE CURRENT", "elapsed"),
            Some("812.91 ms")
        );
        assert_eq!(
            t.cell("buffered WHERE CURRENT", "elapsed"),
            Some("91.08 ms")
        );
    }

    #[test]
    fn run_json_record_ids_and_gate_round_trip() {
        let json = run_json().unwrap();
        let doc = crate::gate::parse(&json).unwrap();
        let ids: Vec<&str> = doc
            .as_arr()
            .unwrap()
            .iter()
            .map(|r| r.get("id").and_then(crate::gate::Json::as_str).unwrap())
            .collect();
        // Exactly the registry's record ids, in its order, then `measure`.
        let mut declared: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.records.iter().copied())
            .collect();
        declared.push("measure");
        assert_eq!(ids, declared);
        // The same build's results gate cleanly against themselves, and the
        // measure record carries per-entity counters.
        assert!(crate::gate::perf_gate(&json, &json).is_ok());
        assert!(json.contains("\"kind\": \"measure\""), "{json}");
        assert!(json.contains("\"msgs.recv\""), "{json}");
    }

    #[test]
    fn trace_json_is_a_chrome_trace() {
        let t = trace_json().unwrap();
        assert!(t.contains("\"traceEvents\""), "{t}");
        assert!(t.contains("\"ph\""), "{t}");
        // Causal spans render as duration slices with cross-track flow
        // arrows linking each request span to its DP-side handling span.
        assert!(t.contains("\"ph\": \"B\""), "{t}");
        assert!(t.contains("\"ph\": \"E\""), "{t}");
        assert!(t.contains("\"ph\": \"s\""), "{t}");
        assert!(t.contains("\"ph\": \"f\""), "{t}");
        // And the export stays machine-parseable JSON end to end.
        assert!(crate::gate::parse(&t).is_ok());
    }

    #[test]
    fn an_unknown_id_is_an_error_that_lists_the_registry() {
        let err = run("e99").unwrap_err();
        assert!(err.contains("e99"), "{err}");
        for e in EXPERIMENTS {
            assert!(err.contains(e.id), "{err} does not offer {}", e.id);
        }
    }

    #[test]
    fn a_failing_body_is_an_error_that_names_the_experiment() {
        let e = Experiment {
            id: "e0",
            in_all: false,
            body: || Err("the check did not hold".into()),
            records: &[],
        };
        assert_eq!(
            e.tables().err().as_deref(),
            Some("experiment e0: the check did not hold")
        );
    }

    #[test]
    fn registry_ids_are_unique_and_record_ids_belong_to_all() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|other| other.id != e.id),
                "{} is declared twice",
                e.id
            );
            assert!(
                e.in_all || e.records.is_empty(),
                "{} is gated but not part of `all`",
                e.id
            );
        }
    }

    /// DESIGN.md §4 indexes exactly the experiments `all` runs, in order.
    #[test]
    fn design_index_lists_the_registry() {
        let design = crate::repo_doc("DESIGN.md");
        let section = design
            .split("\n## ")
            .find(|s| s.starts_with("4. Experiment index"))
            .expect("DESIGN.md has a section 4, the experiment index");
        let indexed: Vec<String> = section
            .lines()
            .filter_map(|l| l.strip_prefix("| E"))
            .filter_map(|l| l.split(' ').next())
            .filter(|n| n.chars().all(|c| c.is_ascii_digit()))
            .map(|n| format!("e{n}"))
            .collect();
        let declared: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.in_all)
            .map(|e| e.id)
            .collect();
        assert_eq!(
            indexed, declared,
            "DESIGN.md §4 `Exp` column vs EXPERIMENTS"
        );
    }

    /// EXPERIMENTS.md records every table any registry entry renders.
    #[test]
    fn experiments_md_has_a_heading_for_every_table() {
        let recorded = crate::repo_doc("EXPERIMENTS.md");
        for e in EXPERIMENTS {
            for t in tables(e.id) {
                let heading = format!("\n### {}\n", t.title);
                assert!(
                    recorded.contains(&heading),
                    "EXPERIMENTS.md has no `### {}` (experiment {})",
                    t.title,
                    e.id
                );
            }
        }
    }
}
