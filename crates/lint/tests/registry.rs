//! `lint.toml`'s dotted-name registry is the code's own.
//!
//! `[trace_labels] counters` is what `nsql-lint check` holds every
//! dotted-lowercase string literal against. It is a hand-kept list, so this
//! test keeps it equal — same names, same order — to what the telemetry
//! itself declares: the counter fields, the wait categories and the dotted
//! trace-record names. A counter added to `Ctr` without its registry line
//! (or a line left behind) fails here, naming it.

use nsql_lint::config::Config;
use nsql_sim::trace::DOTTED_RECORD_NAMES;
use nsql_sim::{COUNTER_NAMES, WAIT_CATEGORIES};

#[test]
fn the_counter_registry_is_generated_by_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../lint.toml");
    let text = std::fs::read_to_string(path).expect("lint.toml present");
    let registered = Config::parse(&text)
        .expect("lint.toml parses")
        .counter_names;
    let waits = WAIT_CATEGORIES.iter().map(|w| w.name());
    let declared: Vec<&str> = COUNTER_NAMES
        .iter()
        .copied()
        .chain(waits)
        .chain(DOTTED_RECORD_NAMES)
        .collect();
    assert_eq!(registered, declared);
}
