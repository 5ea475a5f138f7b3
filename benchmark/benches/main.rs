//! The repo's benchmark: four workloads on two clocks — *host* (what the
//! simulator costs to run) and *virtual* (what the modelled NonStop system
//! would take; the paper's result) — plus, from a separate traced run,
//! per-layer metrics for every crate. See `../README.md`.
//!
//! ```text
//! nsql-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! nsql-benchmark run [--traced] [--seed N] [--seconds S]         every workload, one process each
//! nsql-benchmark check-determinism [--seed N] [--scale F]        counts of two processes, compared
//! ```
//! `--scale F` replaces `--seconds` by fixed operation counts (F × the
//! full-size counts), so that the program's counters repeat.

mod closed;
mod drills;
mod harness;
mod load;
mod measured;
mod oltp;
mod report;
mod scan;
mod setupd;
mod spans;

use closed::{Plan, Workload};
use drills::Shape;
use harness::timed_setup;
use measured::{release, Measured};
use report::Report;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOCATOR: harness::CountingAlloc = harness::CountingAlloc;

/// Workload names, as in `BENCHMARK.json`.
const WORKLOADS: [&str; 4] = [
    oltp::Oltp::NAME,
    scan::Scan::NAME,
    setupd::SetUpdate::NAME,
    load::NAME,
];
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;
/// Share of `--seconds` the untraced half of a traced invocation measures
/// for; the traced re-run of the same operations and the drills take the
/// rest.
const UNTRACED_SHARE: f64 = 0.35;

/// How long to measure: the driver's time box, or fixed counts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Length {
    Seconds(f64),
    Scale(f64),
}

impl Length {
    /// The plan for a workload with this warm-up and full-size operation
    /// count; a traced invocation spends only `share` of a time box on its
    /// untraced half.
    fn plan(self, warmup: u64, full_ops: u64, share: f64) -> Plan {
        match self {
            Length::Seconds(s) => Plan::Timed { seconds: s * share },
            Length::Scale(f) => Plan::Fixed {
                warmup: (warmup as f64 * f).ceil() as u64,
                ops: (full_ops as f64 * f).ceil() as u64,
            },
        }
    }
}

/// One closed-loop workload, untraced (end-to-end metrics) or as an
/// untraced run followed by a traced run of the same operations and the
/// drills (per-layer metrics).
fn closed_loop<W: Workload>(seed: u64, length: Length, trace: bool) -> Report {
    if !trace {
        let (setup_s, (db, mut w)) = timed_setup(|| W::setup(seed), |(db, _)| release(db));
        let m = closed::run(
            &db,
            &mut w,
            seed,
            length.plan(W::WARMUP, W::FULL_OPS, 1.0),
            false,
        );
        return report::end_to_end(W::NAME, m, setup_s);
    }
    let plain = {
        let (db, mut w) = W::setup(seed);
        let plan = length.plan(W::WARMUP, W::FULL_OPS, UNTRACED_SHARE);
        let plain = closed::run(&db, &mut w, seed, plan, false);
        release(db);
        plain
    };
    let (db, mut w) = W::setup(seed);
    spans::time_servers(&db);
    let same_ops = Plan::Fixed {
        warmup: plain.warmup,
        ops: plain.ops,
    };
    let traced = closed::run(&db, &mut w, seed, same_ops, true);
    let shape = w.shape(&db);
    traced_report(W::NAME, plain, &traced, W::FITS_CACHE, &shape)
}

/// What both loops do once the untraced and the traced run are in: check
/// that they agree, write the span file, run the drills.
fn traced_report(
    workload: &'static str,
    plain: Measured,
    traced: &Measured,
    fits_cache: bool,
    shape: &Shape<'_>,
) -> Report {
    let mut errors = report::agreement(&plain, traced, fits_cache);
    errors.extend(traced.errors.iter().cloned());
    errors.extend(write_spans(workload, &traced.spans));
    let drills = drills::run(shape, &plain.counts);
    report::per_layer(workload, plain, traced, drills, errors)
}

/// The open-loop workload, in the same two forms.
fn open_loop(seed: u64, length: Length, trace: bool) -> Report {
    if !trace {
        let (setup_s, (db, _)) = timed_setup(load::setup, |(db, _)| release(db));
        release(db);
        let (m, ..) = load::run(seed, length.plan(load::WARMUP, load::FULL_OPS, 1.0), false);
        return report::end_to_end(load::NAME, m, setup_s);
    }
    let (plain, ..) = load::run(
        seed,
        length.plan(load::WARMUP, load::FULL_OPS, UNTRACED_SHARE),
        false,
    );
    let same_ops = Plan::Fixed {
        warmup: plain.warmup,
        ops: plain.phases[0].target_arrivals,
    };
    let (traced, db, bank) = load::run(seed, same_ops, true);
    let shape = load::shape(&db, &bank);
    traced_report(load::NAME, plain, &traced, true, &shape)
}

/// Write `benchmark/results/<workload>.spans.json` beside the sources.
fn write_spans(workload: &str, spans: &[spans::Span]) -> Option<String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("{workload}.spans.json"));
    spans::write_chrome_trace(&path, spans)
        .err()
        .map(|e| format!("writing {}: {e}", path.display()))
}

fn run_workload(name: &str, seed: u64, length: Length, trace: bool) -> Option<Report> {
    Some(match name {
        oltp::Oltp::NAME => closed_loop::<oltp::Oltp>(seed, length, trace),
        scan::Scan::NAME => closed_loop::<scan::Scan>(seed, length, trace),
        setupd::SetUpdate::NAME => closed_loop::<setupd::SetUpdate>(seed, length, trace),
        load::NAME => open_loop(seed, length, trace),
        _ => return None,
    })
}

// ----------------------------------------------------------------------
// Command line
// ----------------------------------------------------------------------

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    length: Option<Length>,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        command: None,
        workload: None,
        seed: 1,
        length: None,
        trace: false,
    };
    let mut args = args.peekable();
    if args.peek().is_some_and(|a| !a.starts_with("--")) {
        out.command = args.next();
    }
    while let Some(flag) = args.next() {
        if flag == "--traced" {
            out.trace = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<f64, String> {
            match value.parse::<f64>() {
                Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
                _ => Err(format!("{flag} {value}: expected a positive number")),
            }
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value),
            "--seed" => {
                out.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value}: expected a whole number"))?
            }
            "--seconds" => out.length = Some(Length::Seconds(number()?)),
            "--scale" => out.length = Some(Length::Scale(number()?)),
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(out)
}

/// Re-invoke this binary for one workload, so that peak memory and hash
/// seeds are a fresh process's. Returns its standard output.
fn child(
    workload: &str,
    seed: u64,
    length: Length,
    trace: bool,
    capture: bool,
) -> Result<String, String> {
    let (flag, value) = match length {
        Length::Seconds(s) => ("--seconds", s),
        Length::Scale(f) => ("--scale", f),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            flag,
            &value.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(if capture {
            Stdio::piped()
        } else {
            Stdio::inherit()
        })
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) failed: {}",
            u8::from(trace),
            out.status
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// `run`: every workload, each in a fresh process; with `--traced` each is
/// followed by its traced run.
fn run_all(args: &Args) -> Result<(), String> {
    let length = args.length.unwrap_or(Length::Seconds(RUN_SECONDS));
    let mut failures = Vec::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            if let Err(e) = child(workload, args.seed, length, trace, false) {
                failures.push(e);
            }
        }
    }
    println!("{{\"claim\": null}}");
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// The table rows of a traced invocation that must repeat between two
/// processes: the program's own counts (C) and the allocator's (A).
fn repeatable_rows(stdout: &str) -> Vec<(String, String)> {
    stdout
        .lines()
        .filter_map(|line| {
            let cols: Vec<&str> = line.split_whitespace().collect();
            match cols[..] {
                [name, value, _unit, "C" | "A"] => Some((name.to_string(), value.to_string())),
                _ => None,
            }
        })
        .collect()
}

/// `check-determinism`: run each workload's fixed-count traced invocation
/// in two processes and print every count that differs between them.
fn check_determinism(args: &Args) -> Result<(), String> {
    let length = args.length.unwrap_or(Length::Scale(0.1));
    let mut differing = 0;
    for workload in WORKLOADS {
        let first = repeatable_rows(&child(workload, args.seed, length, true, true)?);
        let second = repeatable_rows(&child(workload, args.seed, length, true, true)?);
        if first.len() != second.len() || first.is_empty() {
            return Err(format!("{workload}: the two runs printed different tables"));
        }
        let diffs: Vec<_> = first.iter().zip(&second).filter(|(a, b)| a != b).collect();
        println!(
            "{workload}: {} counts compared, {} differ",
            first.len(),
            diffs.len()
        );
        for ((name, a), (_, b)) in &diffs {
            println!("  {name}: {a} vs {b}");
        }
        differing += diffs.len();
    }
    println!("{differing} counts differ between two processes");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let done = match (args.command.as_deref(), args.workload.as_deref()) {
        (Some("run"), None) => run_all(&args),
        (Some("check-determinism"), None) => check_determinism(&args),
        (None, Some(name)) => {
            let length = args.length.unwrap_or(Length::Seconds(RUN_SECONDS));
            match run_workload(name, args.seed, length, args.trace) {
                Some(report) if report.print(args.seed, args.trace) => Ok(()),
                Some(_) => Err("an output check failed".to_string()),
                None => Err(format!("unknown workload {name}; one of {WORKLOADS:?}")),
            }
        }
        _ => Err(
            "usage: --workload W --seed N --seconds S --trace 0|1 | run [--traced] | \
                  check-determinism"
                .to_string(),
        ),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn driver_form_parses() {
        let a = args("--workload oltp_sql --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.command, None);
        assert_eq!(a.workload.as_deref(), Some("oltp_sql"));
        assert_eq!(a.seed, 7);
        assert_eq!(a.length, Some(Length::Seconds(20.0)));
        assert!(a.trace);
        let a = args("run --traced --scale 0.01").unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.length, Some(Length::Scale(0.01)));
        assert!(a.trace && a.seed == 1);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for line in [
            "--seconds 0",
            "--seconds soon",
            "--scale -1",
            "--seed 1.5",
            "--trace 2",
            "--workload",
            "--ops 5",
        ] {
            assert!(args(line).is_err(), "{line} should be refused");
        }
    }

    #[test]
    fn scale_gives_fixed_counts() {
        assert_eq!(
            Length::Scale(0.01).plan(8_000, 150_000, 0.35),
            Plan::Fixed {
                warmup: 80,
                ops: 1_500
            }
        );
        assert_eq!(
            Length::Seconds(20.0).plan(8_000, 150_000, 0.35),
            Plan::Timed { seconds: 7.0 }
        );
    }

    #[test]
    fn repeatable_rows_are_the_counts() {
        let table = "oltp_sql  seed 1  trace 1  attempted 10  failed 0\n  \
                     # untraced: 10 timed ops\n  \
                     sql.parse_ns    809.2604 ns     D\n  \
                     msg.msgs_fs_dp_per_op    4.0000 count  C\n  \
                     host.alloc_bytes_per_op    274781.3712 count  A\n  \
                     host.wall_op_p50_us    244.6930 us     host\n";
        assert_eq!(
            repeatable_rows(table),
            vec![
                ("msg.msgs_fs_dp_per_op".to_string(), "4.0000".to_string()),
                (
                    "host.alloc_bytes_per_op".to_string(),
                    "274781.3712".to_string()
                ),
            ]
        );
    }

    /// Every `"name": "…"` of `BENCHMARK.json` between `"<key>": [` and the
    /// closing bracket of that list.
    fn names_under(json: &str, key: &str) -> BTreeSet<String> {
        let list = json
            .split_once(&format!("\"{key}\": ["))
            .and_then(|(_, rest)| rest.split_once(']'))
            .map_or("", |(list, _)| list);
        list.split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split_once('"'))
            .map(|(name, _)| name.to_string())
            .collect()
    }

    /// The smoke run: all four workloads at `--scale 0.01`, untraced and
    /// traced, must be correct and report exactly the metrics that
    /// `BENCHMARK.json` declares.
    #[test]
    fn smoke_run_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let declared: BTreeSet<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(names_under(&json, "workloads"), declared);
        for workload in WORKLOADS {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let report = run_workload(workload, 2, Length::Scale(0.01), trace).unwrap();
                assert_eq!(
                    report.errors,
                    Vec::<String>::new(),
                    "{workload} trace {trace}"
                );
                assert!(report.attempted >= 1 && report.failed == 0);
                let reported: BTreeSet<String> =
                    report.metrics.iter().map(|m| m.name.to_string()).collect();
                assert_eq!(reported.len(), report.metrics.len(), "a name is used once");
                assert_eq!(reported, names_under(&json, key), "{workload} {key}");
                for m in &report.metrics {
                    assert!(m.value.is_finite(), "{workload} {}", m.name);
                    let declared_unit =
                        format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
                    assert!(
                        json.contains(&declared_unit),
                        "{declared_unit} not declared"
                    );
                }
            }
        }
    }
}
