//! "Cluster total = Σ entities", for every total, by construction.
//!
//! There is one counter store: the per-entity MEASURE records. A cluster
//! total is *defined* by the `TOTALS` table of `nsql_sim::metrics` as the sum
//! of named counters over the entities of one kind, and this test walks that
//! table — every row, no list of exceptions — after a scenario that visits
//! every way a counter is fed: SQL and ENSCRIBE access (point read,
//! record-at-a-time scan, sequential block buffering), fault mixes with
//! timeouts *and* injected errors, a CPU takeover, a crash-restart, a
//! re-mirror and the load engine.
//!
//! The decisions that made the sums hold, each pinned here:
//!
//! * the audit volume is an entity: `(Volume, $AUDIT)` carries the trail's
//!   writes, so `disk_writes`, `disk_blocks_written` and `disk_bulk_ios`
//!   are Σ volume like the read side always was;
//! * `audit.records` / `audit.bytes` count *generation* only — a data
//!   volume's changes, the trail's own outcome records — and a flush no
//!   longer re-counts what it writes;
//! * `msgs.timed_out` is its own per-process counter; `msgs.lost` keeps
//!   meaning timeouts plus injected errors;
//! * `msgs_total` is Σ CPU `msgs.sent` (a lost request was sent, never
//!   received), and the per-class totals sit beside it on the CPU;
//! * `dp_records_examined` / `_selected` mean what the File entity always
//!   meant — every record a read request looked at, whichever verb — so
//!   `READ`, `READ^NEXT` and `READ^SEQ^BLOCK` count (they did not);
//! * a re-mirror's copy-back is `remirror.blocks`, not one more read and
//!   write of every block on the volume's `blocks.read/written`;
//! * the pre-fetcher's I/Os (`prefetch.ios`, the cluster's
//!   `prefetch_reads`) and the blocks they carried (`prefetch.reads`) have
//!   names of their own.

use nonstop_sql::sim::{Ctr, EntityKind, SimRng, TOTALS};
use nonstop_sql::workloads::load::{run_load, LoadConfig};
use nonstop_sql::workloads::{Bank, Wisconsin};
use nonstop_sql::{Cluster, ClusterBuilder, Fault, FaultConfig};
use nsql_dp::ReadLock;
use nsql_records::key::encode_record_key;
use nsql_records::Value;

/// The cluster total called `name`.
fn total(db: &Cluster, name: &str) -> u64 {
    let totals = db.snapshot();
    let found = totals.iter().find(|(n, _)| *n == name);
    found.expect("a cluster total's name").1
}

fn assert_totals_are_entity_sums(db: &Cluster, phase: &str) {
    let entities = db.sim.measure_snapshot();
    let totals = db.snapshot();
    assert_eq!(totals.iter().count(), TOTALS.len());
    for ((name, value), (defined, kind, counters)) in totals.iter().zip(TOTALS) {
        assert_eq!(name, *defined, "the table is in field order");
        let sum: u64 = counters.iter().map(|&c| entities.total(*kind, c)).sum();
        assert_eq!(value, sum, "{name} after {phase}");
    }
}

fn debit_credits(db: &Cluster, bank: &Bank, txns: u32, seed: u64) {
    let mut rng = SimRng::seed_from(seed);
    bank.batch(&db.session(), Bank::debit_credit_sql, &mut rng, txns);
}

/// `dp_records_examined` over `f`.
fn examined_during(db: &Cluster, f: impl FnOnce()) -> u64 {
    let before = total(db, "dp_records_examined");
    f();
    total(db, "dp_records_examined") - before
}

/// The old interface's three read verbs against ACCOUNT (50 rows).
fn enscribe_reads_count_the_records_they_looked_at(db: &Cluster) {
    let s = db.session();
    let fs = s.fs();
    let account = db.catalog.table("ACCOUNT").unwrap().open;
    let scan = |sbb| {
        let txn = db.txnmgr.begin();
        let mut cur = match sbb {
            true => fs.ens_open_sbb(&account, txn).unwrap(),
            false => fs.ens_open(&account, None),
        };
        while fs.ens_read_next(&mut cur).unwrap().is_some() {}
        db.txnmgr.commit(txn, s.cpu()).unwrap();
    };
    let record_at_a_time = examined_during(db, || scan(false));
    assert_eq!(record_at_a_time, 50, "READ^NEXT, one record a message");
    let block_buffered = examined_during(db, || scan(true));
    assert_eq!(block_buffered, 50, "READ^SEQ^BLOCK, a block a message");
    let mut key = vec![Value::Null; account.desc.num_fields()];
    key[0] = Value::Int(7);
    let key = encode_record_key(&account.desc, &key);
    let point = examined_during(db, || {
        let found = fs.ens_read(None, &account, &key, ReadLock::None);
        assert!(found.unwrap().is_some());
    });
    assert_eq!(point, 1, "READ by key");
}

#[test]
fn every_cluster_total_equals_its_entity_sum() {
    // A cache WISC does not fit, so its scans miss, steal and pre-fetch.
    let db = ClusterBuilder::new()
        .dp_config(nonstop_sql::DiskProcessConfig {
            cache_frames: 64,
            ..Default::default()
        })
        .volume_with_backup("$DATA1", 0, 1, 0, 3)
        .volume("$DATA2", 0, 2)
        .build();
    let bank = Bank::create(&db, 2, 25, "$DATA1").unwrap();
    let wisc = Wisconsin::create(&db, "WISC", 2_000, &["$DATA2"], 2).unwrap();

    debit_credits(&db, &bank, 40, 1);
    wisc.run_count(&db, &wisc.q_select_10pct_clustered())
        .unwrap();
    wisc.run_count(&db, &wisc.q_scan_all()).unwrap();
    enscribe_reads_count_the_records_they_looked_at(&db);
    assert_totals_are_entity_sums(&db, "a fault-free run");

    // The "everything" mix of `tests/chaos.rs`, then its CPU-crash mix so
    // path switches and aborts are not vacuously 0 = 0.
    db.enable_faults(FaultConfig {
        drop: 0.05,
        duplicate: 0.05,
        delay: 0.05,
        error: 0.03,
        ..FaultConfig::with_seed(5)
    });
    debit_credits(&db, &bank, 60, 2);
    db.enable_faults(FaultConfig {
        drop: 0.02,
        at: vec![(31, Fault::DownTarget), (131, Fault::DownTarget)],
        ..FaultConfig::with_seed(1)
    });
    debit_credits(&db, &bank, 40, 3);
    db.disable_faults();
    assert_totals_are_entity_sums(&db, "chaos");
    let entities = db.sim.measure_snapshot();
    let lost = entities.total(EntityKind::Process, Ctr::MsgsLost);
    let timed_out = total(&db, "msgs_timed_out");
    assert!(
        0 < timed_out && timed_out < lost,
        "{timed_out} timeouts and injected errors besides make {lost} lost requests"
    );

    db.crash_and_restart(0, 1);
    debit_credits(&db, &bank, 10, 4);
    assert_totals_are_entity_sums(&db, "crash_and_restart");

    // Lose and replace one half of $DATA2's mirror: the copy-back has its
    // own counter and moves neither the volume's transfer counts nor a total.
    db.dp("$DATA2").pool().flush_all().unwrap();
    db.disk("$DATA2").fail_drive(1);
    let volume = |c| {
        let entities = db.sim.measure_snapshot();
        entities.get(EntityKind::Volume, "$DATA2", c)
    };
    let before = (
        volume(Ctr::BlocksRead),
        volume(Ctr::BlocksWritten),
        db.snapshot(),
    );
    db.media_recover("$DATA2").unwrap();
    let after = (
        volume(Ctr::BlocksRead),
        volume(Ctr::BlocksWritten),
        db.snapshot(),
    );
    assert_eq!(before, after, "a re-mirror is not foreground I/O");
    assert!(volume(Ctr::RemirrorBlocks) > 0, "the copy-back is counted");
    assert_totals_are_entity_sums(&db, "media_recover");

    let out = run_load(
        &db,
        &bank,
        &LoadConfig {
            terminals: 12,
            duration_us: 300_000,
            mean_think_us: 10_000.0,
            zipf_theta: 1.2,
            max_inflight: 6,
            sample_every_us: 50_000,
            seed: 0xE21,
        },
    );
    assert!(out.committed > 0);
    assert_totals_are_entity_sums(&db, "run_load");

    for name in [
        "fs_retries",
        "path_switches",
        "txns_aborted",
        "deadlocks",
        "dp_dup_suppressed",
        "prefetch_reads",
        "writebehind_writes",
        "cache_steals",
        "audit_buffer_full_flushes",
    ] {
        assert!(total(&db, name) > 0, "the scenario must exercise {name}");
    }
}
