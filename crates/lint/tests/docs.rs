//! The counts the documents quote are the counts the repository holds.
//!
//! README.md, DESIGN.md §10 and EXPERIMENTS.md each say how many schedules
//! and states the two explorers of the shipped stack cover. Those counts
//! are the `[model]` floors, which the explorers are held to (and which
//! only rise); this test holds the documents to the floors, so a floor
//! that is raised without its three quotations fails here, naming the
//! document and the number. README.md and DESIGN.md §6 also say how many
//! tests the suite runs; a second test holds that number to the `#[test]`
//! attributes in the tree, counted with this crate's own lexer.

use nsql_lint::config::Config;
use nsql_lint::lexer::{tokenize, Tok};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn read(file: &str) -> String {
    std::fs::read_to_string(format!("{ROOT}/{file}")).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// `24583004` as the documents write it: `24,583,004`.
fn grouped(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[test]
fn the_documents_quote_the_floors() {
    let floors = Config::parse(&read("lint.toml")).expect("lint.toml parses");
    let quoted = [
        ("check-protocol schedules", floors.protocol_min_schedules),
        ("check-locks schedules", floors.lock_min_schedules),
        ("check-locks states", floors.lock_min_states),
    ];
    for file in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = read(file);
        for (what, floor) in quoted {
            assert!(floor > 0, "lint.toml has no floor for {what}");
            let number = grouped(floor);
            assert!(
                text.contains(&number),
                "{file} does not say {number} {what}"
            );
        }
    }
    assert_eq!(grouped(6_336), "6,336");
    assert_eq!(grouped(24_583_004), "24,583,004");
    assert_eq!(grouped(999), "999");
}

/// How many `#[name` attributes open in `toks`.
fn attributes(toks: &[Tok], name: &str) -> usize {
    toks.windows(3)
        .filter(|w| w[0].is_punct('#') && w[1].is_punct('[') && w[2].is_ident(name))
        .count()
}

/// The doc-tests in `src`: the code fences of its doc comments that open
/// with no language tag (a `text` block is not compiled).
fn doctests(src: &str) -> usize {
    let (mut open, mut n) = (false, 0);
    for line in src.lines().map(str::trim_start) {
        let doc = line.strip_prefix("///").or(line.strip_prefix("//!"));
        if let Some(tag) = doc.and_then(|d| d.trim().strip_prefix("```")) {
            n += usize::from(!open && tag.is_empty());
            open = !open;
        }
    }
    n
}

/// "N tests)" in README.md and DESIGN.md §6 is what tier-1 runs: every
/// `#[test]` under `crates/`, `tests/` and `src/`, less those that carry
/// `#[ignore]`, plus the doc-tests. (`benchmark/` is a workspace of its
/// own; the walker skips the lint fixtures.)
#[test]
fn the_documents_quote_the_test_count() {
    let root = std::path::Path::new(ROOT);
    let (mut tests, mut ignored) = (0, 0);
    for path in nsql_lint::collect_rs_files(root).expect("the workspace is readable") {
        let rel = path.strip_prefix(root).expect("under the root");
        if ["crates", "tests", "src"]
            .iter()
            .any(|d| rel.starts_with(d))
        {
            let src = std::fs::read_to_string(&path).expect("readable source");
            let toks = tokenize(&src);
            tests += attributes(&toks, "test") + doctests(&src);
            ignored += attributes(&toks, "ignore");
        }
    }
    let quoted = format!("{} tests)", tests - ignored);
    for file in ["README.md", "DESIGN.md"] {
        assert!(
            read(file).contains(&quoted),
            "{file} does not say {quoted}: {tests} #[test] attributes and doc-tests, {ignored} #[ignore]d"
        );
    }
}
