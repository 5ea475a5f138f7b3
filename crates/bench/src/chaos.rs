//! Chaos mode for the bench binary: `experiments chaos`.
//!
//! Runs every seed × fault mix of `nsql_workloads::chaos` over the bank
//! (DebitCredit) and Wisconsin workloads and reports, per mix, what the
//! recovery protocol absorbed. The runs check the fault-tolerance contract
//! themselves, so a violation fails the experiment instead of printing a
//! table.

use crate::fixtures::{ensure, Outcome};
use crate::report::Table;
use nsql_core::Cluster;
use nsql_workloads::chaos::{bank_run, cluster, mixes, wisconsin_run, SEEDS};

const BANK_TXNS: u32 = 40;
const WISC_ROWS: u32 = 500;

/// Per-mix aggregate across all seeds.
#[derive(Default)]
struct Agg {
    faults: u64,
    retries: u64,
    dup_suppressed: u64,
    path_switches: u64,
    committed: u32,
    worst_conservation: f64,
    scan_rows: usize,
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

/// The full chaos matrix as the per-mix report.
pub fn chaos() -> Outcome<Vec<Table>> {
    let mut rows = Vec::new();
    for (i, (name, _)) in mixes(0).into_iter().enumerate() {
        let mut agg = Agg::default();
        for seed in SEEDS {
            let cfg = mixes(seed).remove(i).1;
            let crashes = !cfg.at.is_empty();
            let db = cluster();
            let run = bank_run(&db, cfg.clone(), BANK_TXNS)
                .map_err(|e| format!("chaos: seed {seed}, {name}: {e}"))?;
            ensure!(
                !crashes || run.batch.committed < BANK_TXNS,
                "chaos: seed {seed}, {name}: the crashes doomed no in-flight transaction"
            );
            agg.absorb(&db);
            agg.committed += run.batch.committed;
            agg.worst_conservation = agg.worst_conservation.max(run.conservation_error.abs());
            let db = cluster();
            agg.scan_rows += wisconsin_run(&db, cfg, WISC_ROWS)
                .map_err(|e| format!("chaos: seed {seed}, {name}: {e}"))?;
            agg.absorb(&db);
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

    /// EXPERIMENTS.md prints the table `experiments chaos` renders, to the
    /// byte: every seed × mix runs here, checks included.
    #[test]
    fn experiments_md_prints_the_chaos_table() {
        let rendered = chaos().unwrap()[0].render();
        let (heading, body) = rendered
            .split_once("\n\n")
            .expect("a rendered table starts with its heading");
        let md = crate::repo_doc("EXPERIMENTS.md");
        let recorded = md
            .split_once(&format!("{heading}\n\n"))
            .map_or("", |(_, after)| after);
        assert!(
            recorded.starts_with(body),
            "EXPERIMENTS.md does not print what `experiments chaos` does:\n{rendered}"
        );
    }
}
