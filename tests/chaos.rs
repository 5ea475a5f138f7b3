//! Chaos suite: seeded fault schedules over the bank (DebitCredit) and
//! Wisconsin workloads.
//!
//! The fault plane drops, duplicates, delays and errors FS-DP messages —
//! and crashes Disk Process CPUs mid-workload — under a deterministic
//! seeded schedule. The seeds, the mixes and the runs that check the
//! paper's fault-tolerance contract (nothing committed lost, nothing applied
//! twice, scans return exactly the committed row set) are
//! `nsql_workloads::chaos`; `experiments chaos` runs every seed × mix of
//! them, and `crates/bench` holds EXPERIMENTS.md's chaos table to that run.
//! This suite adds what only it checks: crashes doom in-flight work,
//! identical seeds give identical traces, wait ledgers and flight dumps, a
//! scan survives a crash mid-chain, the load engine balances its books
//! under chaos, and the long matrix with crashes on every mix.

use nonstop_sql::sim::format_sequence;
use nonstop_sql::{ClusterBuilder, Fault, FaultConfig};
use nsql_records::Value;
use nsql_workloads::chaos::{bank_run, cluster, mixes, BankRun, SEEDS};
use nsql_workloads::{hot_bank, run_load, LoadConfig, Wisconsin};

/// [`bank_run`] on a fresh chaos cluster; a broken contract fails the test.
fn bank(cfg: FaultConfig, txns: u32, label: &str) -> BankRun {
    bank_run(&cluster(), cfg, txns).unwrap_or_else(|e| panic!("[{label}] {e}"))
}

#[test]
fn bank_survives_primary_crashes() {
    // The crash mix takes the primary's CPU down twice; the path-switch
    // hook brings the pair's other CPU up. In-flight transactions are
    // doomed (abort), committed ones survive recovery.
    for seed in SEEDS {
        let (_, cfg) = mixes(seed)
            .into_iter()
            .find(|(name, _)| *name == "crash")
            .expect("a crash mix");
        let run = bank(cfg, 40, &format!("seed {seed}, crash"));
        assert!(
            run.batch.committed < 40,
            "seed {seed}: crashes must doom at least one in-flight transaction"
        );
    }
}

#[test]
fn scan_survives_mid_chain_crash() {
    // A crash in the middle of the re-drive chain: the rebuilt SCB resumes
    // after the last confirmed key and the row set is still exact.
    for seed in SEEDS {
        let db = ClusterBuilder::new()
            .dp_config(nonstop_sql::DiskProcessConfig {
                max_records_per_request: 64,
                ..Default::default()
            })
            .volume_with_backup("$DATA1", 0, 1, 0, 3)
            .build();
        Wisconsin::create(&db, "WISC", 500, &["$DATA1"], 1).unwrap();
        db.enable_faults(FaultConfig {
            at: vec![(2, Fault::DownTarget)],
            ..FaultConfig::with_seed(seed)
        });
        let mut s = db.session();
        let r = s.query("SELECT COUNT(*) FROM WISC").unwrap();
        db.disable_faults();
        assert_eq!(r.rows[0].0[0], Value::LargeInt(500), "seed {seed}");
        assert!(db.snapshot().path_switches >= 1);
    }
}

#[test]
fn identical_seeds_produce_identical_traces() {
    // The transaction loop's trace, rendered.
    let traced = |cfg: FaultConfig| {
        let db = cluster();
        db.sim.trace.enable_default();
        let run = bank_run(&db, cfg, 25).unwrap();
        (format_sequence(&run.window.trace), run.batch.committed)
    };
    for seed in [3u64, 21] {
        let cfg = || FaultConfig {
            drop: 0.05,
            duplicate: 0.05,
            delay: 0.05,
            ..FaultConfig::with_seed(seed)
        };
        let (a, b) = (traced(cfg()), traced(cfg()));
        assert!(!a.0.is_empty());
        assert_eq!(
            a, b,
            "seed {seed}: same seed must give byte-identical traces"
        );
    }
    // And different seeds must actually differ.
    let drops = |seed| FaultConfig {
        drop: 0.05,
        ..FaultConfig::with_seed(seed)
    };
    assert_ne!(traced(drops(3)).0, traced(drops(4)).0);
}

/// The critical-path ledger is exhaustive and deterministic even while the
/// fault plane is mangling messages: for every seed x mix the per-category
/// wait decomposition of the transaction loop sums *exactly* (no tolerance)
/// to its elapsed virtual time, nothing lands in the `other` bucket, and a
/// rerun of the same seed renders a byte-identical profile.
#[test]
fn wait_profiles_decompose_exactly_and_deterministically_under_chaos() {
    use nsql_sim::Wait;
    let mut retry_time = 0u64;
    for seed in SEEDS {
        for (name, cfg) in mixes(seed) {
            let label = format!("seed {seed}, {name}");
            let a = bank(cfg.clone(), 25, &label).window;
            assert_eq!(
                a.wait.total(),
                a.elapsed_us,
                "[{label}] wait categories must sum exactly to elapsed time: {}",
                a.wait
            );
            assert_eq!(
                a.wait.get(Wait::Other),
                0,
                "[{label}] every microsecond must be attributed: {}",
                a.wait
            );
            let b = bank(cfg, 25, &label).window;
            assert_eq!(
                a.wait.to_string(),
                b.wait.to_string(),
                "[{label}] same seed must give a byte-identical wait profile"
            );
            assert_eq!(a.elapsed_us, b.elapsed_us);
            retry_time += a.wait.get(Wait::Retry);
        }
    }
    // The mixes must actually have made retry/backoff time visible.
    assert!(
        retry_time > 0,
        "drops/errors must surface as Wait::Retry backoff time"
    );
}

/// The long matrix: every seed x every mix, with crashes layered on top of
/// the message chaos, for both workloads. Run in CI via
/// `cargo test --test chaos -- --include-ignored`.
#[test]
#[ignore = "long matrix; CI runs it with --include-ignored"]
fn full_chaos_matrix() {
    for seed in SEEDS {
        for (name, mut cfg) in mixes(seed) {
            cfg.at = vec![
                (50 + seed, Fault::DownTarget),
                (300 + 2 * seed, Fault::DownTarget),
            ];
            bank(
                cfg.clone(),
                80,
                &format!("matrix seed {seed}, {name}+crash"),
            );

            let db = cluster();
            Wisconsin::create(&db, "WISC", 1_000, &["$DATA1"], 1).unwrap();
            db.enable_faults(cfg);
            let mut s = db.session();
            // A write mixed in: the 1% clustered update, then the full scan.
            let _ = s.execute("UPDATE WISC SET UNIQUE1 = UNIQUE1 + 0 WHERE UNIQUE2 < 10");
            let r = s.query("SELECT COUNT(*) FROM WISC").unwrap();
            db.disable_faults();
            assert_eq!(
                r.rows[0].0[0],
                Value::LargeInt(1_000),
                "matrix seed {seed}, {name}: committed row set intact"
            );
        }
    }
}

/// The crash flight recorder is part of the deterministic surface: the
/// same seed produces byte-identical flight dumps — same rings, same
/// reasons, same counter snapshots — so a chaos failure is replayable.
#[test]
fn flight_dumps_are_deterministic_per_seed() {
    fn run(seed: u64) -> String {
        let db = ClusterBuilder::new()
            .dp_config(nonstop_sql::DiskProcessConfig {
                max_records_per_request: 64,
                ..Default::default()
            })
            .volume_with_backup("$DATA1", 0, 1, 0, 3)
            .build();
        Wisconsin::create(&db, "WISC", 500, &["$DATA1"], 1).unwrap();
        db.enable_faults(FaultConfig {
            drop: 0.05,
            at: vec![(2, Fault::DownTarget)],
            ..FaultConfig::with_seed(seed)
        });
        let mut s = db.session();
        let _ = s.query("SELECT COUNT(*) FROM WISC");
        db.disable_faults();
        db.sim
            .flight
            .dumps()
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    }
    for seed in [3u64, 21] {
        let a = run(seed);
        let b = run(seed);
        assert!(
            a.contains("FLIGHT DUMP") && a.contains("cpu down (fault plane)"),
            "seed {seed}: the CPU kill must dump the victim's ring:\n{a}"
        );
        assert!(
            a.contains("msgs.recv"),
            "seed {seed}: the dump must carry the counter snapshot:\n{a}"
        );
        assert_eq!(a, b, "seed {seed}: flight dumps must be deterministic");
    }
}

#[test]
fn contended_load_conserves_money_under_chaos() {
    // The multi-terminal contention engine under an injected fault plane:
    // deadlock victims, lock-wait timeouts, FS retries and doom-retries
    // all compose, and across every seed the books still balance exactly
    // — each aborted attempt provably undid its partial updates, and no
    // lock, waiter or wait edge outlives the run.
    for seed in SEEDS {
        let (db, bank) = hot_bank().expect("bank load");
        db.set_lock_wait_timeout(3_000);
        let opening = bank.total_balance(&db).expect("opening balance");
        db.enable_faults(FaultConfig {
            drop: 0.02,
            duplicate: 0.02,
            delay: 0.03,
            ..FaultConfig::with_seed(seed)
        });
        let out = run_load(&db, &bank, &LoadConfig::contended(seed));
        db.disable_faults();
        assert!(out.committed > 0, "seed {seed}: nothing committed: {out:?}");
        // Every doomed attempt was resolved: it either retried through to
        // a commit or exhausted its bounded budget — never hung.
        out.check(&db, &bank, opening)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}: {out:?}"));
    }
}
