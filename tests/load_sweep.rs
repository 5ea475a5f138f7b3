//! Load-sweep suite for the multi-terminal contention engine.
//!
//! The smoke test always runs; the exhaustive offered-load × skew grid is
//! `#[ignore]`-gated and driven by the CI `load-sweep` job with
//! `--include-ignored` (and locally via `cargo test --release --test
//! load_sweep -- --include-ignored`). Every cell must pass
//! `LoadOutcome::check`: complete accounting of arrivals, exact money
//! conservation, a drained lock plane, and internally consistent latency
//! percentiles.

use nsql_workloads::{hot_bank, run_load, LoadConfig};

#[test]
fn load_smoke_contended_cell_survives() {
    let (db, bank) = hot_bank().expect("bank load");
    let opening = bank.total_balance(&db).expect("opening balance");
    let out = run_load(&db, &bank, &LoadConfig::contended(7));
    assert!(out.committed > 0, "{out:?}");
    out.check(&db, &bank, opening)
        .unwrap_or_else(|e| panic!("smoke: {e}: {out:?}"));
}

/// The exhaustive grid: every offered-load level × every skew level ×
/// timeout off/on, on a small hot bank so contention is real. Slow by
/// design; CI runs it with `--include-ignored` in the load-sweep job.
#[test]
#[ignore = "exhaustive sweep; run via --include-ignored (CI load-sweep job)"]
fn load_sweep_exhaustive_grid() {
    for &think_us in &[6_000.0, 2_000.0, 800.0, 400.0] {
        for &theta in &[0.0, 0.6, 1.0, 1.2] {
            for &timeout_us in &[0u64, 2_500] {
                let cfg = LoadConfig {
                    terminals: 12,
                    duration_us: 200_000,
                    mean_think_us: think_us,
                    zipf_theta: theta,
                    max_inflight: 6,
                    seed: 0x5EED,
                    ..LoadConfig::default()
                };
                let label = format!("think {think_us}µs, theta {theta}, timeout {timeout_us}µs");
                let run = || {
                    let (db, bank) = hot_bank().expect("bank load");
                    if timeout_us > 0 {
                        db.set_lock_wait_timeout(timeout_us);
                    }
                    let opening = bank.total_balance(&db).expect("opening balance");
                    let out = run_load(&db, &bank, &cfg);
                    out.check(&db, &bank, opening)
                        .unwrap_or_else(|e| panic!("{label}: {e}: {out:?}"));
                    out
                };
                let out = run();
                assert!(out.committed > 0, "{label}: {out:?}");
                // Determinism: the same cell replays to the same outcome.
                assert_eq!(out, run(), "{label}: sweep cell not reproducible");
            }
        }
    }
}
