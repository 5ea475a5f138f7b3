//! The `nsql-lint` command-line driver.
//!
//! ```text
//! nsql-lint check [--root DIR] [--config FILE] [--update-ratchet]
//! nsql-lint check-protocol [--depth N] [--config FILE]
//! nsql-lint check-locks [--config FILE]
//! ```
//!
//! `check` lints every `.rs` file in the workspace against `lint.toml` and
//! exits non-zero on any violation. `check-protocol` runs the shipped stack
//! under every schedule of at most `--depth` injected faults and exits
//! non-zero if any invariant of the FS-DP recovery protocol breaks — or if
//! its negative control, a Disk Process that cannot recognise a
//! retransmission, fails to break one. `check-locks` runs the shipped lock
//! manager, Disk Process and TMF under every interleaving of its scripted
//! clients. Both hold their coverage to the `[model]` floors of `lint.toml`.

use nsql_lint::config::Config;
use nsql_lint::lockmodel::{self, LockModelConfig};
use nsql_lint::model::{self, Repair, Scenario};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("check-protocol") => cmd_check_protocol(&args[1..]),
        Some("check-locks") => cmd_check_locks(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("usage: nsql-lint <check|check-protocol|check-locks> [options]");
            eprintln!("  check           lint the workspace against lint.toml");
            eprintln!("    --root DIR          workspace root (default: .)");
            eprintln!("    --config FILE       config path (default: <root>/lint.toml)");
            eprintln!("    --update-ratchet    rewrite [ratchet] with current counts");
            eprintln!("  check-protocol  run the shipped FS-DP stack under every fault schedule");
            eprintln!("    --depth N           max injected faults per schedule (default 3)");
            eprintln!(
                "    --config FILE       lint.toml with [model] floors (default: ./lint.toml)"
            );
            eprintln!("  check-locks     run the shipped lock plane under every interleaving");
            eprintln!(
                "    --config FILE       lint.toml with [model] floors (default: ./lint.toml)"
            );
            return if args.is_empty() {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            };
        }
        Some(other) => Err(format!("unknown subcommand `{other}` (try --help)")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("nsql-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Parse `--flag value` pairs plus boolean flags from `args`.
fn parse_opts(
    args: &[String],
    valued: &[&str],
    boolean: &[&str],
) -> Result<std::collections::BTreeMap<String, String>, String> {
    let mut out = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if boolean.contains(&arg.as_str()) {
            out.insert(arg.clone(), "true".to_string());
        } else if valued.contains(&arg.as_str()) {
            let v = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
            out.insert(arg.clone(), v.clone());
        } else {
            return Err(format!("unknown option `{arg}`"));
        }
    }
    Ok(out)
}

fn parse_num(
    opts: &std::collections::BTreeMap<String, String>,
    key: &str,
    default: u64,
) -> Result<u64, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{key} expects an integer, got `{v}`")),
    }
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args, &["--root", "--config"], &["--update-ratchet"])?;
    let root = PathBuf::from(opts.get("--root").map(String::as_str).unwrap_or("."));
    let config_path = opts
        .get("--config")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("lint.toml"));
    let text = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("cannot read {}: {e}", config_path.display()))?;
    let cfg = Config::parse(&text).map_err(|e| e.to_string())?;
    let report = nsql_lint::check_workspace(&root, &cfg)
        .map_err(|e| format!("scanning {}: {e}", root.display()))?;

    if opts.contains_key("--update-ratchet") {
        let mut buckets = report.bucket_counts.clone();
        // Keep hard-zero buckets pinned at zero even if currently clean —
        // the ratchet records policy, not just observation.
        for (k, &ceiling) in &cfg.ratchet {
            if ceiling == 0 {
                buckets.insert(k.clone(), 0);
            }
        }
        let new_section = Config::ratchet_lines(&buckets);
        let updated = replace_ratchet_section(&text, &new_section)?;
        std::fs::write(&config_path, updated)
            .map_err(|e| format!("cannot write {}: {e}", config_path.display()))?;
        println!(
            "nsql-lint: [ratchet] rewritten with {} buckets in {}",
            buckets.len(),
            config_path.display()
        );
    }

    let mut diags = report.diags.clone();
    diags.extend(nsql_lint::zero_ratchet_sites(&root, &cfg, &report));
    diags.extend(nsql_lint::discard_ratchet_sites(&root, &cfg, &report));
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    diags.dedup_by(|a, b| (&a.file, a.line, a.rule, &a.msg) == (&b.file, b.line, b.rule, &b.msg));

    if diags.is_empty() {
        println!(
            "nsql-lint: OK — {} files, {} ratchet buckets, 0 violations",
            report.files,
            report.bucket_counts.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for d in &diags {
            eprintln!("{d}");
        }
        eprintln!(
            "nsql-lint: FAIL — {} violation(s) across {} files scanned",
            diags.len(),
            report.files
        );
        Ok(ExitCode::FAILURE)
    }
}

/// Replace the body of the `[ratchet]` section in `text` with `new_body`,
/// preserving everything before the header and any later section.
fn replace_ratchet_section(text: &str, new_body: &str) -> Result<String, String> {
    let mut out = String::new();
    let mut in_ratchet = false;
    let mut replaced = false;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed == "[ratchet]" {
            out.push_str(line);
            out.push('\n');
            out.push_str(new_body);
            in_ratchet = true;
            replaced = true;
            continue;
        }
        if in_ratchet {
            if trimmed.starts_with('[') {
                in_ratchet = false; // a following section resumes copying
            } else {
                continue; // drop the old ratchet body
            }
        }
        out.push_str(line);
        out.push('\n');
    }
    if !replaced {
        return Err("lint.toml has no [ratchet] section to update".to_string());
    }
    Ok(out)
}

/// The `[model]` coverage floors of `--config` (default `./lint.toml`). A
/// missing file means no floor: ad-hoc invocations outside the workspace
/// root.
fn floors(opts: &std::collections::BTreeMap<String, String>) -> Result<Config, String> {
    let path = opts.get("--config").map_or("lint.toml", String::as_str);
    match std::fs::read_to_string(path) {
        Ok(text) => Config::parse(&text).map_err(|e| e.to_string()),
        Err(_) => Ok(Config::default()),
    }
}

/// Hold `got` to its floor; says so on stderr when it fell below.
fn meets_floor(what: &str, got: u64, floor: u64) -> bool {
    if got < floor {
        eprintln!("COVERAGE: {got} {what} < the floor {floor} (coverage can only grow)");
    }
    got >= floor
}

/// The depth `[model] protocol_min_schedules` was measured at.
const DEFAULT_DEPTH: u64 = 3;

fn cmd_check_protocol(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args, &["--depth", "--config"], &[])?;
    let depth = parse_num(&opts, "--depth", DEFAULT_DEPTH)?;
    let floors = floors(&opts)?;
    println!(
        "nsql-lint check-protocol: depth={depth}, {} rows, every fault of {:?}",
        model::KEYS,
        model::FAULTS
    );

    let (mut schedules, mut failed) = (0u64, false);
    let (mut msgs, mut hits, mut switches) = (0u64, 0u64, 0u64);
    for repair in [Repair::Takeover, Repair::Restart] {
        for scenario in [Scenario::Scan, Scenario::Aggregate, Scenario::Update] {
            let ex = model::explore(scenario, repair, depth as usize);
            println!(
                "  {scenario:?} / {repair:?}: {} schedules run (max {} exchanges), \
                 {} violation(s)",
                ex.schedules,
                ex.max_exchanges,
                ex.violations.len()
            );
            schedules += ex.schedules;
            msgs += ex.msgs_fs_dp;
            hits += ex.dup_suppressed;
            switches += ex.path_switches;
            for v in &ex.violations {
                failed = true;
                eprintln!(
                    "VIOLATION [{}] in {scenario:?} / {repair:?}: {}\n  schedule: {}",
                    v.invariant,
                    v.detail,
                    model::format_schedule(&v.schedule)
                );
            }
        }
    }
    println!(
        "  total: {schedules} schedules; the clusters served {msgs} FS-DP messages, \
         {hits} of them from a reply cache, and switched paths {switches} times"
    );

    // The negative control: found, minimal, and found again.
    match (model::negative_control(), model::negative_control()) {
        (Ok(a), Ok(b)) if a.schedule == b.schedule && a.schedule.len() == 1 => println!(
            "  negative control: without duplicate suppression, [{}] at {} — reproduced twice",
            a.invariant,
            model::format_schedule(&a.schedule)
        ),
        (a, b) => {
            failed = true;
            eprintln!(
                "NEGATIVE CONTROL: expected one minimal double apply twice, got {a:?} and {b:?}"
            );
        }
    }
    if depth == DEFAULT_DEPTH {
        failed |= !meets_floor("schedules", schedules, floors.protocol_min_schedules);
    }
    if failed {
        eprintln!("nsql-lint check-protocol: FAIL");
        Ok(ExitCode::FAILURE)
    } else {
        println!("nsql-lint check-protocol: OK — all invariants hold on every schedule");
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_check_locks(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args, &["--config"], &[])?;
    let floors = floors(&opts)?;
    println!("nsql-lint check-locks: the shipped lock manager, Disk Process and TMF");

    let (mut schedules, mut states, mut failed) = (0u64, 0u64, false);
    let mut reach = [0u64; lockmodel::REACHED.len()];
    let configs = [
        ("cycle", LockModelConfig::cycle()),
        ("convoy", LockModelConfig::convoy()),
        ("upgrade", LockModelConfig::upgrade()),
    ];
    for (name, cfg) in &configs {
        let ex = lockmodel::explore(cfg);
        println!(
            "  {name} ({}T×{}L, gate {}, {} retries, {} timeouts): {} states, {} transitions, \
             {} schedules ({} quiescent, {} gave-up), {} violating transition(s); \
             served {} FS-DP messages, {} lock waits",
            cfg.scripts.len(),
            cfg.locks(),
            cfg.max_inflight,
            cfg.max_retries,
            cfg.max_timeouts,
            ex.states,
            ex.transitions,
            ex.schedules,
            ex.terminals,
            ex.gave_up_terminals,
            ex.violation_count,
            ex.served.0,
            ex.served.1
        );
        schedules = schedules.saturating_add(ex.schedules);
        states += ex.states;
        println!("    reached {:?} of {:?}", ex.reach, lockmodel::REACHED);
        for (n, here) in reach.iter_mut().zip(ex.reach) {
            *n += here;
        }
        for v in &ex.violations {
            failed = true;
            eprintln!(
                "VIOLATION [{}] in {name}: {}\n  schedule: {}",
                v.invariant,
                v.detail,
                lockmodel::format_schedule(&v.schedule)
            );
            // What is printed is what a fresh cluster does again.
            let again = match lockmodel::replay(cfg, &v.schedule) {
                Ok(found) => found.iter().any(|r| r.invariant == v.invariant),
                Err(_) => v.invariant == "protocol",
            };
            if !again && !v.schedule.is_empty() {
                eprintln!("  (replay on a fresh cluster does not reproduce it)");
            }
        }
    }
    println!("  total: {schedules} schedules over {states} states");
    // "0 violations" must not mean "never got there".
    for (n, what) in reach.into_iter().zip(lockmodel::REACHED) {
        failed |= !meets_floor(what, n, 1);
    }
    failed |= !meets_floor("schedules", schedules, floors.lock_min_schedules);
    failed |= !meets_floor("states", states, floors.lock_min_states);
    if failed {
        eprintln!("nsql-lint check-locks: FAIL");
        Ok(ExitCode::FAILURE)
    } else {
        println!("nsql-lint check-locks: OK — all invariants hold on every schedule");
        Ok(ExitCode::SUCCESS)
    }
}
