//! Chaos mode for the bench binary: `experiments chaos`.
//!
//! Runs the bank (DebitCredit) and Wisconsin workloads under seeded fault
//! schedules — 8 seeds x 5 fault mixes — and reports what the recovery
//! protocol absorbed. The invariants of `tests/chaos.rs` are re-checked
//! here, so a violation fails the run instead of printing a table:
//! no committed transaction lost, no update applied twice, scans return
//! exactly the committed row set.

use crate::fixtures::{debit_credit_batch, ensure, Outcome};
use crate::report::Table;
use nsql_core::{Cluster, ClusterBuilder, Fault, FaultConfig};
use nsql_records::Value;
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

impl Agg {
    /// Add what the fault plane and the recovery protocol counted on `db`.
    fn absorb(&mut self, db: &Cluster) {
        let m = db.snapshot();
        self.faults += m.faults_injected;
        self.retries += m.fs_retries;
        self.dup_suppressed += m.dp_dup_suppressed;
        self.path_switches += m.path_switches;
    }
}

/// One bank run: `BANK_TXNS` debit-credit transactions under `cfg`,
/// committing what succeeds and aborting the rest, then a consistency
/// audit with the fault plane off.
fn bank_run(cfg: FaultConfig, agg: &mut Agg) -> Outcome<()> {
    let db = ClusterBuilder::new()
        .volume_with_backup("$DATA1", 0, 1, 0, 3)
        .build();
    let bank = Bank::create(&db, 2, 25, "$DATA1")?;
    let s = db.session();
    let seed = cfg.seed ^ 0xB1;
    db.enable_faults(cfg);
    let batch = debit_credit_batch(&s, &bank, Bank::debit_credit_sql, seed, BANK_TXNS);
    db.disable_faults();
    let committed = i64::from(batch.committed);
    let err = bank.total_balance(&db)? - (50.0 * 1000.0 + batch.net_delta);
    ensure!(
        err.abs() < 1e-6,
        "chaos: money lost or double-applied ({err:+})"
    );
    let history = db.session().query("SELECT COUNT(*) FROM HISTORY")?.rows[0].0[0].clone();
    ensure!(
        history == Value::LargeInt(committed),
        "chaos: HISTORY counts {history:?} for {committed} committed transactions"
    );
    agg.absorb(&db);
    agg.committed += committed;
    agg.worst_conservation = agg.worst_conservation.max(err.abs());
    Ok(())
}

/// One Wisconsin run: a full scan under `cfg` must return exactly the
/// committed row set.
fn wisconsin_run(cfg: FaultConfig, agg: &mut Agg) -> Outcome<()> {
    let db = ClusterBuilder::new()
        .volume_with_backup("$DATA1", 0, 1, 0, 3)
        .build();
    Wisconsin::create(&db, "WISC", WISC_ROWS, &["$DATA1"], 1)?;
    db.enable_faults(cfg);
    let r = db.session().query("SELECT UNIQUE1 FROM WISC")?;
    db.disable_faults();
    let mut seen = Vec::new();
    for row in &r.rows {
        let Value::Int(n) = row.0[0] else {
            return Err(format!("chaos: UNIQUE1 is {:?}, not an INT", row.0[0]).into());
        };
        seen.push(n);
    }
    seen.sort_unstable();
    ensure!(
        seen == (0..WISC_ROWS as i32).collect::<Vec<_>>(),
        "chaos: scan must return each committed row exactly once"
    );
    agg.absorb(&db);
    agg.scan_rows += seen.len() as i64;
    Ok(())
}

/// The full chaos matrix as the per-mix report.
pub fn chaos() -> Outcome<Vec<Table>> {
    let mut rows = Vec::new();
    for (i, (name, _)) in mixes(0).into_iter().enumerate() {
        let mut agg = Agg::default();
        for seed in SEEDS {
            let cfg = mixes(seed).remove(i).1;
            bank_run(cfg.clone(), &mut agg)?;
            wisconsin_run(cfg, &mut agg)?;
        }
        rows.push((name, agg));
    }
    let mut t = Table::measured(
        format!(
            "Chaos — bank ({BANK_TXNS} txns) + Wisconsin ({WISC_ROWS} rows) x {} seeds per mix",
            SEEDS.len()
        ),
        &rows,
        &[
            ("fault mix", &|r| r.0.into()),
            ("faults injected", &|r| r.1.faults.to_string()),
            ("FS retries", &|r| r.1.retries.to_string()),
            ("dup suppressed", &|r| r.1.dup_suppressed.to_string()),
            ("path switches", &|r| r.1.path_switches.to_string()),
            ("committed", &|r| {
                format!("{}/{}", r.1.committed, BANK_TXNS as usize * SEEDS.len())
            }),
            ("worst conservation", &|r| {
                format!("{:+.1e}", r.1.worst_conservation)
            }),
            ("scan rows ok", &|r| r.1.scan_rows.to_string()),
        ],
    );
    t.note("Every row re-asserts the fault-tolerance contract: account balances reconcile against the committed deltas, HISTORY holds exactly one row per commit, and the scan returns each committed row exactly once. Crashed-CPU mixes abort (doom) in-flight transactions — the committed column dips — but never lose a committed one.");
    Ok(vec![t])
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
        bank_run(cfg.clone(), &mut agg).unwrap();
        wisconsin_run(cfg, &mut agg).unwrap();
        assert!(agg.faults > 0, "the mix must actually inject faults");
        assert_eq!(agg.scan_rows, WISC_ROWS as i64);
    }
}
