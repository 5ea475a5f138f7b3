//! Benchmark harness: regenerates every experiment of DESIGN.md §4.
//!
//! `cargo run -p nsql-bench --bin experiments [--release] [-- e2 e9 ...]`
//! prints the report tables recorded in EXPERIMENTS.md; `-- --json` writes
//! machine-readable records to `BENCH_results.json`; `-- chaos` runs the
//! seeded fault-injection matrix over the bank and Wisconsin workloads;
//! `-- --trace-out trace.json` writes a Chrome trace-event file for the
//! canonical workload; `-- gate [baseline]` is the CI perf gate, diffing
//! fresh results against `BENCH_baseline.json` with zero tolerance on
//! message/IO/MEASURE counters.

pub mod chaos;
pub mod experiments;
mod fixtures;
pub mod gate;
pub mod report;
pub mod wall_clock;

pub use experiments::{run, run_json, trace_json, EXPERIMENTS};
pub use gate::perf_gate;

/// A document at the repository root, for the tests that hold the code and
/// the markdown to each other.
#[cfg(test)]
fn repo_doc(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}
