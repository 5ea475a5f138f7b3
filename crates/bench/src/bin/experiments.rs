//! CLI entry point: print experiment reports.
//!
//! - `<id>...`: run the named experiments of the registry
//!   (`nsql_bench::EXPERIMENTS`), or `all`; no argument means `all`. An
//!   unknown id, or an experiment that fails, prints why and exits 1.
//! - `--json`: also write one machine-readable record per gated table to
//!   `BENCH_results.json` in the current directory.
//! - `--trace-out <path>`: run the canonical traced workload and write a
//!   Chrome trace-event JSON file (load into `chrome://tracing` or
//!   Perfetto; timestamps are virtual microseconds).
//! - `gate [baseline]`: the CI perf gate — run the JSON experiments and
//!   diff every message/IO/MEASURE counter against the checked-in
//!   baseline (default `BENCH_baseline.json`) with zero tolerance.
//!   Exits 1 and prints the per-counter diff on any regression.

use std::process::ExitCode;

fn main() -> ExitCode {
    match cli(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}

fn cli(mut args: Vec<String>) -> Result<ExitCode, String> {
    if args.is_empty() {
        args.push("all".into());
    }
    if args.first().map(String::as_str) == Some("gate") {
        let path = args.get(1).map_or("BENCH_baseline.json", String::as_str);
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| format!("perf gate: cannot read {path}: {e}"))?;
        // The gate's report, pass or fail, goes to stdout.
        return Ok(
            match nsql_bench::perf_gate(&baseline, &nsql_bench::run_json()?) {
                Ok(summary) => {
                    print!("{summary}");
                    ExitCode::SUCCESS
                }
                Err(report) => {
                    print!("{report}");
                    ExitCode::FAILURE
                }
            },
        );
    }

    let write = |path: &str, text: String| {
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
        Ok::<(), String>(())
    };
    if let Some(pos) = args.iter().position(|a| a == "--trace-out") {
        args.remove(pos);
        if pos >= args.len() {
            return Err("--trace-out requires a path".into());
        }
        write(&args.remove(pos), nsql_bench::trace_json()?)?;
    }
    if let Some(pos) = args.iter().position(|a| a == "--json") {
        args.remove(pos);
        write("BENCH_results.json", nsql_bench::run_json()?)?;
    }
    for a in args {
        print!("{}", nsql_bench::run(&a)?);
    }
    Ok(ExitCode::SUCCESS)
}
