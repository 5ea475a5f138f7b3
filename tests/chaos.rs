//! Chaos suite: seeded fault schedules over the bank (DebitCredit) and
//! Wisconsin workloads.
//!
//! The fault plane drops, duplicates, delays and errors FS-DP messages —
//! and crashes Disk Process CPUs mid-workload — under a deterministic
//! seeded schedule. The invariants checked here are the paper's
//! fault-tolerance contract:
//!
//! * no committed transaction is lost;
//! * no update is applied twice (duplicate delivery and reply-loss retry
//!   are suppressed by the FS-DP sync IDs);
//! * scans return exactly the committed row set;
//! * identical seeds produce identical traces.

use nonstop_sql::sim::format_sequence;
use nonstop_sql::{Cluster, ClusterBuilder, Fault, FaultConfig};
use nsql_records::Value;
use nsql_sim::SimRng;
use nsql_workloads::{Bank, Wisconsin};

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// The fault mixes every seed runs under. Probabilities are per eligible
/// FS-DP exchange.
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
    ]
}

/// Outcome of one bank chaos run.
struct BankOutcome {
    /// Account-balance total minus what the committed deltas predict
    /// (must be ~0: nothing lost, nothing double-applied).
    conservation_error: f64,
    /// Transactions whose commit succeeded.
    committed: i64,
    /// HISTORY rows on disk afterwards.
    history_rows: i64,
    /// Retransmissions answered from the DP reply cache.
    dup_suppressed: u64,
    /// FS-level retries.
    retries: u64,
    /// Rendered trace (empty unless tracing was enabled).
    trace: String,
    /// Per-category wait decomposition of the transaction loop's window.
    wait: nsql_sim::WaitProfile,
    /// Elapsed virtual time of the same window.
    elapsed: u64,
}

/// Run `txns` debit-credit transactions under `cfg`, aborting on any
/// statement error and counting only successful commits. Returns the
/// consistency ledger.
fn bank_run(cfg: FaultConfig, txns: u32, traced: bool) -> BankOutcome {
    let db = ClusterBuilder::new()
        .volume_with_backup("$DATA1", 0, 1, 0, 3)
        .build();
    let bank = Bank::create(&db, 2, 25, "$DATA1").unwrap();
    if traced {
        db.sim.trace.enable_default();
    }
    let s = db.session();
    let fs = s.fs();
    let mut rng = SimRng::seed_from(cfg.seed ^ 0xB1);
    db.enable_faults(cfg);
    let w0 = db.sim.wait_profile();
    let t0 = db.sim.now();
    let mut committed = 0i64;
    let mut expected = 50.0 * 1000.0; // 50 accounts x 1000.0
    for _ in 0..txns {
        let (aid, tid, bid, delta) = bank.draw(&mut rng);
        let txn = db.txnmgr.begin();
        match bank.debit_credit_sql(fs, txn, aid, tid, bid, delta) {
            Ok(()) => {
                if db.txnmgr.commit(txn, s.cpu()).is_ok() {
                    committed += 1;
                    expected += delta;
                }
            }
            Err(_) => {
                let _ = db.txnmgr.abort(txn, s.cpu());
            }
        }
    }
    let wait = db.sim.wait_profile() - w0;
    let elapsed = db.sim.now() - t0;
    db.disable_faults();
    let total = bank.total_balance(&db).unwrap();
    let history_rows = count(&db, "SELECT COUNT(*) FROM HISTORY");
    let m = db.snapshot();
    BankOutcome {
        conservation_error: total - expected,
        committed,
        history_rows,
        dup_suppressed: m.dp_dup_suppressed,
        retries: m.fs_retries,
        trace: if traced {
            format_sequence(&db.sim.trace.events())
        } else {
            String::new()
        },
        wait,
        elapsed,
    }
}

fn count(db: &Cluster, sql: &str) -> i64 {
    let mut s = db.session();
    match s.query(sql).unwrap().rows[0].0[0] {
        Value::LargeInt(n) => n,
        ref other => panic!("expected COUNT, got {other:?}"),
    }
}

fn check_bank(out: &BankOutcome, label: &str) {
    assert!(
        out.conservation_error.abs() < 1e-6,
        "[{label}] money lost or double-applied: {:+}",
        out.conservation_error
    );
    assert_eq!(
        out.history_rows, out.committed,
        "[{label}] exactly one HISTORY row per committed transaction"
    );
}

#[test]
fn bank_conserves_money_under_message_chaos() {
    let mut total_retries = 0u64;
    let mut total_suppressed = 0u64;
    for seed in SEEDS {
        for (name, cfg) in mixes(seed) {
            let out = bank_run(cfg, 40, false);
            check_bank(&out, &format!("seed {seed}, {name}"));
            total_retries += out.retries;
            total_suppressed += out.dup_suppressed;
        }
    }
    // The mixes must actually have exercised the recovery protocol.
    assert!(total_retries > 0, "drops/errors must surface as FS retries");
    assert!(
        total_suppressed > 0,
        "duplicates and reply losses must hit the sync-ID reply cache"
    );
}

#[test]
fn bank_survives_primary_crashes() {
    // The 30th and 130th eligible exchanges crash the primary's CPU; the
    // path-switch hook brings the pair's other CPU up. In-flight
    // transactions are doomed (abort), committed ones survive recovery.
    for seed in SEEDS {
        let cfg = FaultConfig {
            drop: 0.02,
            at: vec![(30, Fault::DownTarget), (130, Fault::DownTarget)],
            ..FaultConfig::with_seed(seed)
        };
        let out = bank_run(cfg, 40, false);
        check_bank(&out, &format!("seed {seed}, crash"));
        assert!(
            out.committed < 40,
            "crashes must doom at least one in-flight transaction"
        );
    }
}

#[test]
fn scans_return_exactly_the_committed_rows_under_chaos() {
    for seed in SEEDS {
        for (name, cfg) in mixes(seed) {
            let db = ClusterBuilder::new()
                .volume_with_backup("$DATA1", 0, 1, 0, 3)
                .build();
            Wisconsin::create(&db, "WISC", 500, &["$DATA1"], 1).unwrap();
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
            let want: Vec<i64> = (0..500).collect();
            assert_eq!(
                seen, want,
                "[seed {seed}, {name}] scan must return each committed row exactly once"
            );
        }
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
    for seed in [3u64, 21] {
        let cfg = || FaultConfig {
            drop: 0.05,
            duplicate: 0.05,
            delay: 0.05,
            ..FaultConfig::with_seed(seed)
        };
        let a = bank_run(cfg(), 25, true);
        let b = bank_run(cfg(), 25, true);
        assert!(!a.trace.is_empty());
        assert_eq!(
            a.trace, b.trace,
            "seed {seed}: same seed must give byte-identical traces"
        );
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.conservation_error, b.conservation_error);
    }
    // And different seeds must actually differ.
    let a = bank_run(
        FaultConfig {
            drop: 0.05,
            ..FaultConfig::with_seed(3)
        },
        25,
        true,
    );
    let b = bank_run(
        FaultConfig {
            drop: 0.05,
            ..FaultConfig::with_seed(4)
        },
        25,
        true,
    );
    assert_ne!(a.trace, b.trace);
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
            let a = bank_run(cfg.clone(), 25, false);
            assert_eq!(
                a.wait.total(),
                a.elapsed,
                "[seed {seed}, {name}] wait categories must sum exactly to elapsed time: {}",
                a.wait
            );
            assert_eq!(
                a.wait.get(Wait::Other),
                0,
                "[seed {seed}, {name}] every microsecond must be attributed: {}",
                a.wait
            );
            let b = bank_run(cfg, 25, false);
            assert_eq!(
                a.wait.to_string(),
                b.wait.to_string(),
                "[seed {seed}, {name}] same seed must give a byte-identical wait profile"
            );
            assert_eq!(a.elapsed, b.elapsed);
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
            let out = bank_run(cfg.clone(), 80, false);
            check_bank(&out, &format!("matrix seed {seed}, {name}+crash"));

            let db = ClusterBuilder::new()
                .volume_with_backup("$DATA1", 0, 1, 0, 3)
                .build();
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
    use nsql_workloads::{run_load, LoadConfig};
    // The multi-terminal contention engine under an injected fault plane:
    // deadlock victims, lock-wait timeouts, FS retries and doom-retries
    // all compose, and across every seed the books still balance exactly
    // — each aborted attempt provably undid its partial updates.
    for seed in SEEDS {
        let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
        db.set_lock_wait_timeout(3_000);
        let bank = Bank::create(&db, 1, 40, "$DATA1").expect("bank load");
        let initial = bank.total_balance(&db).expect("initial balance");
        db.enable_faults(FaultConfig {
            drop: 0.02,
            duplicate: 0.02,
            delay: 0.03,
            ..FaultConfig::with_seed(seed)
        });
        let cfg = LoadConfig {
            terminals: 10,
            duration_us: 150_000,
            mean_think_us: 1_200.0,
            zipf_theta: 1.0,
            max_inflight: 6,
            seed,
            ..LoadConfig::default()
        };
        let out = run_load(&db, &bank, &cfg);
        db.disable_faults();

        assert!(out.committed > 0, "seed {seed}: nothing committed: {out:?}");
        assert_eq!(
            out.arrivals,
            out.committed + out.gave_up,
            "seed {seed}: an arrival vanished: {out:?}"
        );
        // Every doomed attempt was resolved: it either retried through to
        // a commit or exhausted its bounded budget — never hung.
        let total = bank.total_balance(&db).expect("final balance");
        assert!(
            (total - (initial + out.net_delta)).abs() < 1e-6,
            "seed {seed}: money not conserved ({total} vs {initial} + {}): {out:?}",
            out.net_delta
        );
        // The lock plane drained: no held locks or waiters outlive the run.
        let dp = db.dp("$DATA1");
        assert_eq!(dp.locks.lock_count(), 0, "seed {seed}: leaked locks");
        assert_eq!(dp.locks.waiting_count(), 0, "seed {seed}: leaked waiters");
        assert_eq!(dp.locks.wait_edge_count(), 0, "seed {seed}: leaked edges");
    }
}
