//! The chaos scenarios: the bank (DebitCredit) and Wisconsin workloads under
//! seeded fault mixes, each run checked against the paper's fault-tolerance
//! contract.
//!
//! `tests/chaos.rs` and `experiments chaos` both iterate [`SEEDS`] ×
//! [`mixes`], so a mix added here runs under both. The fault plane drops,
//! duplicates, delays and errors FS-DP messages and crashes Disk Process
//! CPUs; the checks return an error unless
//!
//! * no committed transaction is lost and none is applied twice: account
//!   balances reconcile against the committed deltas, and HISTORY holds
//!   exactly one row per commit;
//! * a scan returns exactly the committed row set.

use crate::bank::{Bank, Batch};
use crate::wisconsin::Wisconsin;
use nsql_core::{Cluster, ClusterBuilder, DbError, Fault, FaultConfig};
use nsql_records::Value;
use nsql_sim::{SimRng, Window};

/// The fixed seed set.
pub const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// The fault mixes every seed runs under, by name. Probabilities are per
/// eligible FS-DP exchange; "crash" takes the primary's CPU down at the
/// 30th and 130th exchanges, on top of light message loss.
pub fn mixes(seed: u64) -> Vec<(&'static str, FaultConfig)> {
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
                at: vec![(30, Fault::DownTarget), (130, Fault::DownTarget)],
                ..FaultConfig::with_seed(seed)
            },
        ),
    ]
}

/// The cluster every chaos run uses: `$DATA1` served from CPU 1 with CPU 3
/// as its backup CPU, so a crashed primary is taken over (restarted on
/// CPU 3).
pub fn cluster() -> Cluster {
    ClusterBuilder::new()
        .volume_with_backup("$DATA1", 0, 1, 0, 3)
        .build()
}

/// What a [`bank_run`] saw.
#[derive(Debug)]
pub struct BankRun {
    /// The transaction loop's outcome.
    pub batch: Batch,
    /// What the loop cost, from the first transaction to the last.
    pub window: Window,
    /// Account total minus what the opening balances and the committed
    /// deltas predict: under 1e-6 in magnitude, or the run is an error.
    pub conservation_error: f64,
}

/// DebitCredit under `cfg`: a 2 × 25 bank loaded on `db`, then `txns`
/// transactions drawn from a generator seeded by the mix, committing what
/// succeeds and aborting the rest. With the fault plane off again, the
/// books must balance.
pub fn bank_run(db: &Cluster, cfg: FaultConfig, txns: u32) -> Result<BankRun, DbError> {
    let bank = Bank::create(db, 2, 25, "$DATA1")?;
    let s = db.session();
    let mut rng = SimRng::seed_from(cfg.seed ^ 0xB1);
    db.enable_faults(cfg);
    let mark = db.sim.mark();
    let batch = bank.batch(&s, Bank::debit_credit_sql, &mut rng, txns);
    let window = mark.close(&db.sim);
    db.disable_faults();
    let conservation_error = books(db, &bank, &batch)?;
    Ok(BankRun {
        batch,
        window,
        conservation_error,
    })
}

/// Check `batch`'s commits against what `bank` holds: the conservation
/// error, or why the books do not balance.
fn books(db: &Cluster, bank: &Bank, batch: &Batch) -> Result<f64, DbError> {
    let error = bank.total_balance(db)? - (bank.opening_total() + batch.net_delta);
    ensure!(
        error.abs() < 1e-6,
        "money lost or double-applied ({error:+})"
    );
    let history = db.session().query("SELECT COUNT(*) FROM HISTORY")?.rows[0].0[0].clone();
    ensure!(
        history == Value::LargeInt(i64::from(batch.committed)),
        "HISTORY counts {history:?} for {} committed transactions",
        batch.committed
    );
    Ok(error)
}

/// A full scan under `cfg` of a `rows`-row Wisconsin table loaded on `db`:
/// it must return each committed row exactly once. Returns the rows
/// scanned.
pub fn wisconsin_run(db: &Cluster, cfg: FaultConfig, rows: u32) -> Result<usize, DbError> {
    Wisconsin::create(db, "WISC", rows, &["$DATA1"], 1)?;
    db.enable_faults(cfg);
    let scanned = db.session().query("SELECT UNIQUE1 FROM WISC");
    db.disable_faults();
    let scanned: Vec<Value> = scanned?.rows.into_iter().map(|r| r.0[0].clone()).collect();
    exactly_once(&scanned, rows)
}

/// `UNIQUE1` values `scanned` must be `0..rows`, each once.
fn exactly_once(scanned: &[Value], rows: u32) -> Result<usize, DbError> {
    let mut seen = Vec::with_capacity(scanned.len());
    for v in scanned {
        let Value::Int(n) = v else {
            return Err(DbError(format!("UNIQUE1 is {v:?}, not an INT")));
        };
        seen.push(i64::from(*n));
    }
    seen.sort_unstable();
    ensure!(
        seen.iter().copied().eq(0..i64::from(rows)),
        "the scan returned {} rows, not each of the {rows} committed rows once",
        seen.len()
    );
    Ok(seen.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn everything(seed: u64) -> FaultConfig {
        mixes(seed)
            .into_iter()
            .find(|(name, _)| *name == "everything")
            .map(|(_, cfg)| cfg)
            .expect("an \"everything\" mix")
    }

    /// One mix of one seed as a smoke test; `tests/chaos.rs` and the bench
    /// binary run the matrix.
    #[test]
    fn chaos_mix_holds_invariants() {
        let db = cluster();
        let run = bank_run(&db, everything(3), 40).unwrap();
        assert!(run.batch.committed > 0);
        assert!(db.snapshot().faults_injected > 0, "the mix injects faults");
        let db = cluster();
        assert_eq!(wisconsin_run(&db, everything(3), 500).unwrap(), 500);
    }

    // The checks can fail: each test below alters one input of a run that
    // checks clean.

    /// A fault-free batch of 20 on a fresh chaos bank, checked clean.
    fn clean_books() -> (Cluster, Bank, Batch) {
        let db = cluster();
        let bank = Bank::create(&db, 2, 25, "$DATA1").unwrap();
        let batch = bank.batch(
            &db.session(),
            Bank::debit_credit_sql,
            &mut SimRng::seed_from(9),
            20,
        );
        let batch = batch.fault_free().unwrap();
        assert_eq!(books(&db, &bank, &batch), Ok(0.0));
        (db, bank, batch)
    }

    #[test]
    fn books_fail_on_a_missing_history_row() {
        let (db, bank, batch) = clean_books();
        let mut s = db.session();
        s.execute("DELETE FROM HISTORY WHERE HID = 7").unwrap();
        let why = books(&db, &bank, &batch).unwrap_err().0;
        assert!(why.contains("HISTORY counts LargeInt(19)"), "{why}");
    }

    #[test]
    fn books_fail_on_a_balance_off_by_one_delta() {
        // A commit the batch counts but the accounts never saw.
        let (db, bank, mut batch) = clean_books();
        batch.net_delta += 250.0;
        let why = books(&db, &bank, &batch).unwrap_err().0;
        assert!(why.contains("money lost or double-applied (-250)"), "{why}");
    }

    #[test]
    fn scan_check_fails_on_a_duplicated_row() {
        let mut scanned: Vec<Value> = (0..500).map(Value::Int).collect();
        assert_eq!(exactly_once(&scanned, 500), Ok(500));
        scanned[499] = Value::Int(498);
        assert!(exactly_once(&scanned, 500).is_err());
        scanned.push(Value::Int(499));
        let why = exactly_once(&scanned, 500).unwrap_err().0;
        assert!(why.contains("returned 501 rows"), "{why}");
    }
}
