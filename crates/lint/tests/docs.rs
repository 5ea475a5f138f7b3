//! The coverage the documents quote is the coverage `lint.toml` holds.
//!
//! README.md, DESIGN.md §10 and EXPERIMENTS.md each say how many schedules
//! and states the two explorers of the shipped stack cover. Those counts
//! are the `[model]` floors, which the explorers are held to (and which
//! only rise); this test holds the documents to the floors, so a floor
//! that is raised without its three quotations fails here, naming the
//! document and the number.

use nsql_lint::config::Config;

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
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let read = |file: &str| std::fs::read_to_string(format!("{root}/{file}")).expect(file);
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
