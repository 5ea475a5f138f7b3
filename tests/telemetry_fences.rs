//! The telemetry stream is part of the deterministic surface, pinned.
//!
//! One fixed scenario — DebitCredits through the File System and as SQL
//! text, two Wisconsin scans, the `tests/chaos.rs` "everything" fault mix
//! and its CPU-crash mix, one `crash_and_restart` — runs with tracing on.
//! Everything it leaves in the instruments is hashed and compared with
//! literals recorded at the commit before the write path became one
//! `Sim::emit`: a change to *how* events are emitted must leave the event
//! stream, its sequence numbers and span ids, the two renderers' output and
//! every flight ring alone. The counter section of a flight dump may differ
//! only by the entities and counters that commit added or redefined
//! ([`ADDED`]); everything else in it is pinned too.

use nonstop_sql::sim::{chrome_trace, format_sequence, SimRng};
use nonstop_sql::workloads::{Bank, Wisconsin};
use nonstop_sql::{Cluster, ClusterBuilder, Fault, FaultConfig};

/// FNV-1a, as `crates/btree/tests/store_trace.rs` uses.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn debit_credits(db: &Cluster, bank: &Bank, txns: u32, seed: u64) {
    let mut rng = SimRng::seed_from(seed);
    bank.batch(&db.session(), Bank::debit_credit_sql, &mut rng, txns);
}

/// DebitCredits as SQL text, so statement root spans are in the stream.
fn sql_debit_credits(db: &Cluster, bank: &Bank, txns: u32, seed: u64) {
    let mut s = db.session();
    let mut rng = SimRng::seed_from(seed);
    for hid in 0..txns {
        let (aid, tid, bid, delta) = bank.draw(&mut rng);
        for sql in [
            "BEGIN WORK".to_string(),
            format!("UPDATE ACCOUNT SET ABALANCE = ABALANCE + {delta} WHERE AID = {aid}"),
            format!("UPDATE TELLER SET TBALANCE = TBALANCE + {delta} WHERE TID = {tid}"),
            format!("UPDATE BRANCH SET BBALANCE = BBALANCE + {delta} WHERE BID = {bid}"),
            format!(
                "INSERT INTO HISTORY VALUES ({}, {aid}, {tid}, {bid}, {delta}, 'H')",
                1_000_000 + hid
            ),
            "COMMIT WORK".to_string(),
        ] {
            s.execute(&sql).unwrap();
        }
    }
}

/// The scenario; returns the cluster with everything still in its rings.
fn scenario() -> Cluster {
    let db = ClusterBuilder::new()
        .volume_with_backup("$DATA1", 0, 1, 0, 3)
        .volume("$DATA2", 0, 2)
        .build();
    let bank = Bank::create(&db, 2, 25, "$DATA1").unwrap();
    let wisc = Wisconsin::create(&db, "WISC", 2_000, &["$DATA2"], 2).unwrap();
    db.sim.trace.enable(1 << 20);

    debit_credits(&db, &bank, 40, 1);
    sql_debit_credits(&db, &bank, 5, 6);
    wisc.run_count(&db, &wisc.q_select_10pct_clustered())
        .unwrap();
    wisc.run_count(&db, &wisc.q_scan_all()).unwrap();

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

    db.crash_and_restart(0, 1);
    debit_credits(&db, &bank, 10, 4);
    db
}

#[test]
fn the_trace_stream_is_byte_identical() {
    let db = scenario();
    let events = db.sim.trace.events();
    assert_eq!(db.sim.trace.dropped(), 0, "the ring held the whole run");
    let mut hash = FNV_SEED;
    for e in &events {
        fnv(&mut hash, format!("{e:?}\n").as_bytes());
    }
    fnv(&mut hash, format_sequence(&events).as_bytes());
    fnv(&mut hash, chrome_trace(&events).as_bytes());
    assert_eq!((events.len(), hash), (5785, 0xb1b1_342b_febd_2df4));
}

/// Counters (and whole entities) the one-write-path commit added or
/// redefined, as `(entity prefix of the line, counter)`; an empty counter
/// drops the entity's whole line.
const ADDED: &[(&str, &str)] = &[
    ("[cluster]", ""),
    ("[volume ] $AUDIT", ""),
    ("[process] $AUDIT", "audit.records"),
    ("[process] $AUDIT", "audit.bytes"),
    ("[process] $AUDIT", "audit.full_flushes"),
    ("[process] $AUDIT", "commit.piggybacks"),
    ("[cpu", "msgs.remote"),
    ("[cpu", "msgs.fs_dp"),
    ("[cpu", "msgs.audit"),
    ("[cpu", "msgs.checkpoint"),
    ("[cpu", "msgs.redrive"),
    ("[process]", "msgs.timed_out"),
    ("[process]", "dup.suppressed"),
    ("[volume ]", "prefetch.ios"),
    ("[volume ]", "writebehind.writes"),
    ("[cache  ]", "prefetch.hits"),
];

/// A dump's counter section without what [`ADDED`] names.
fn pinned_counters(section: &str) -> String {
    let mut out = String::new();
    for line in section.lines() {
        let dropped = |counter: &str| {
            ADDED
                .iter()
                .any(|(entity, c)| line.trim_start().starts_with(entity) && (*c == counter))
        };
        if dropped("") {
            continue;
        }
        let words = line.split(' ').filter(|w| match w.split_once('=') {
            Some((name, _)) => !dropped(name),
            None => true,
        });
        let kept: Vec<&str> = words.collect();
        if kept.iter().any(|w| w.contains('=')) {
            out.push_str(&kept.join(" "));
            out.push('\n');
        }
    }
    out
}

#[test]
fn flight_rings_are_byte_identical_and_counters_differ_only_where_decided() {
    let db = scenario();
    let dumps = db.sim.flight.dumps();
    let (mut rings, mut counters) = (FNV_SEED, FNV_SEED);
    for d in &dumps {
        let text = d.render();
        let (ring, section) = text
            .split_once("  counters:\n")
            .expect("a dump has a counter section");
        fnv(&mut rings, ring.as_bytes());
        fnv(&mut counters, pinned_counters(section).as_bytes());
    }
    assert_eq!(dumps.len(), 3);
    assert_eq!(rings, 0xcd23_be96_ab80_d186, "the rings");
    assert_eq!(counters, 0x238f_0550_347c_2859, "the pinned counters");
}
