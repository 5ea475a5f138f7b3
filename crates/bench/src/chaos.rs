//! Chaos mode for the bench binary: `experiments chaos`.
//!
//! Runs the bank (DebitCredit) and Wisconsin workloads under seeded fault
//! schedules — 8 seeds x 5 fault mixes — and reports what the recovery
//! protocol absorbed. The invariants of `tests/chaos.rs` are re-asserted
//! here, so a violation aborts the run loudly instead of printing a table:
//! no committed transaction lost, no update applied twice, scans return
//! exactly the committed row set.

use crate::report::Table;
use nsql_core::{ClusterBuilder, Fault, FaultConfig};
use nsql_records::Value;
use nsql_sim::SimRng;
use nsql_workloads::{Bank, Wisconsin};

/// The fixed seed set (also used by the CI chaos job).
pub const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

const BANK_TXNS: u32 = 40;
const WISC_ROWS: u32 = 500;

/// The fault mixes every seed runs under; "crash" layers CPU failures on
/// top of message loss.
fn mixes(seed: u64) -> Vec<(&'static str, FaultConfig)> {
    vec![
        (
            "drop-heavy",
            FaultConfig {
                drop: 0.08,
                ..FaultConfig::with_seed(seed)
            },
        ),
        (
            "duplicate-heavy",
            FaultConfig {
                duplicate: 0.12,
                ..FaultConfig::with_seed(seed)
            },
        ),
        (
            "delay-heavy",
            FaultConfig {
                delay: 0.2,
                delay_us: (100, 5_000),
                ..FaultConfig::with_seed(seed)
            },
        ),
        (
            "everything",
            FaultConfig {
                drop: 0.05,
                duplicate: 0.05,
                delay: 0.05,
                error: 0.03,
                ..FaultConfig::with_seed(seed)
            },
        ),
        (
            "crash",
            FaultConfig {
                drop: 0.02,
                at: vec![
                    (30 + seed, Fault::DownTarget),
                    (130 + seed, Fault::DownTarget),
                ],
                ..FaultConfig::with_seed(seed)
            },
        ),
    ]
}

/// Per-mix aggregate across all seeds.
#[derive(Default)]
struct Agg {
    faults: u64,
    retries: u64,
    dup_suppressed: u64,
    path_switches: u64,
    committed: i64,
    worst_conservation: f64,
    scan_rows: i64,
}

/// One bank run: `BANK_TXNS` debit-credit transactions under `cfg`,
/// committing what succeeds and aborting the rest, then a consistency
/// audit with the fault plane off.
fn bank_run(cfg: FaultConfig, agg: &mut Agg) {
    let db = ClusterBuilder::new()
        .volume_with_backup("$DATA1", 0, 1, 0, 3)
        .build();
    let bank = Bank::create(&db, 2, 25, "$DATA1").unwrap();
    let s = db.session();
    let fs = s.fs();
    let mut rng = SimRng::seed_from(cfg.seed ^ 0xB1);
    db.enable_faults(cfg);
    let mut committed = 0i64;
    let mut expected = 50.0 * 1000.0;
    for _ in 0..BANK_TXNS {
        let (aid, tid, bid, delta) = bank.draw(&mut rng);
        let txn = db.txnmgr.begin();
        match bank.debit_credit_sql(fs, txn, aid, tid, bid, delta) {
            Ok(()) if db.txnmgr.commit(txn, s.cpu()).is_ok() => {
                committed += 1;
                expected += delta;
            }
            Ok(()) => {}
            Err(_) => {
                let _ = db.txnmgr.abort(txn, s.cpu());
            }
        }
    }
    db.disable_faults();
    let err = bank.total_balance(&db).unwrap() - expected;
    assert!(
        err.abs() < 1e-6,
        "chaos: money lost or double-applied ({err:+})"
    );
    let mut s2 = db.session();
    let history = match s2.query("SELECT COUNT(*) FROM HISTORY").unwrap().rows[0].0[0] {
        Value::LargeInt(n) => n,
        ref other => panic!("expected COUNT, got {other:?}"),
    };
    assert_eq!(
        history, committed,
        "chaos: exactly one HISTORY row per committed transaction"
    );
    let m = db.snapshot();
    agg.faults += m.faults_injected;
    agg.retries += m.fs_retries;
    agg.dup_suppressed += m.dp_dup_suppressed;
    agg.path_switches += m.path_switches;
    agg.committed += committed;
    agg.worst_conservation = agg.worst_conservation.max(err.abs());
}

/// One Wisconsin run: a full scan under `cfg` must return exactly the
/// committed row set.
fn wisconsin_run(cfg: FaultConfig, agg: &mut Agg) {
    let db = ClusterBuilder::new()
        .volume_with_backup("$DATA1", 0, 1, 0, 3)
        .build();
    Wisconsin::create(&db, "WISC", WISC_ROWS, &["$DATA1"], 1).unwrap();
    db.enable_faults(cfg);
    let mut s = db.session();
    let r = s.query("SELECT UNIQUE1 FROM WISC").unwrap();
    db.disable_faults();
    let mut seen: Vec<i64> = r
        .rows
        .iter()
        .map(|row| match row.0[0] {
            Value::Int(n) => n as i64,
            ref other => panic!("expected INT, got {other:?}"),
        })
        .collect();
    seen.sort_unstable();
    assert_eq!(
        seen,
        (0..WISC_ROWS as i64).collect::<Vec<_>>(),
        "chaos: scan must return each committed row exactly once"
    );
    let m = db.snapshot();
    agg.faults += m.faults_injected;
    agg.retries += m.fs_retries;
    agg.dup_suppressed += m.dp_dup_suppressed;
    agg.path_switches += m.path_switches;
    agg.scan_rows += seen.len() as i64;
}

/// Run the full chaos matrix and render the per-mix report.
pub fn run_chaos() -> String {
    let mut t = Table::new(
        format!(
            "Chaos — bank ({BANK_TXNS} txns) + Wisconsin ({WISC_ROWS} rows) x {} seeds per mix",
            SEEDS.len()
        ),
        &[
            "fault mix",
            "faults injected",
            "FS retries",
            "dup suppressed",
            "path switches",
            "committed",
            "worst conservation",
            "scan rows ok",
        ],
    );
    let names: Vec<&'static str> = mixes(0).into_iter().map(|(n, _)| n).collect();
    for name in names {
        let mut agg = Agg::default();
        for seed in SEEDS {
            let cfg = mixes(seed)
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, c)| c)
                .unwrap();
            bank_run(cfg.clone(), &mut agg);
            wisconsin_run(cfg, &mut agg);
        }
        t.row(vec![
            name.to_string(),
            agg.faults.to_string(),
            agg.retries.to_string(),
            agg.dup_suppressed.to_string(),
            agg.path_switches.to_string(),
            format!(
                "{}/{}",
                agg.committed,
                BANK_TXNS as i64 * SEEDS.len() as i64
            ),
            format!("{:+.1e}", agg.worst_conservation),
            agg.scan_rows.to_string(),
        ]);
    }
    t.note("Every row re-asserts the fault-tolerance contract: account balances reconcile against the committed deltas, HISTORY holds exactly one row per commit, and the scan returns each committed row exactly once. Crashed-CPU mixes abort (doom) in-flight transactions — the committed column dips — but never lose a committed one.");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slice of the matrix as a smoke test; the bench binary and CI run
    /// the full thing.
    #[test]
    fn chaos_mix_holds_invariants() {
        let mut agg = Agg::default();
        let cfg = mixes(3)
            .into_iter()
            .find(|(n, _)| *n == "everything")
            .map(|(_, c)| c)
            .unwrap();
        bank_run(cfg.clone(), &mut agg);
        wisconsin_run(cfg, &mut agg);
        assert!(agg.faults > 0, "the mix must actually inject faults");
        assert_eq!(agg.scan_rows, WISC_ROWS as i64);
    }
}
