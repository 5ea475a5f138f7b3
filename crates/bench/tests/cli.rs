//! The `experiments` binary fails loudly: a typo in a CI step must not
//! pass. (It used to print "unknown experiment" and exit 0.)

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

#[test]
fn an_unknown_id_exits_non_zero_and_names_it() {
    let out = experiments(&["e99"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment e99"), "{err}");
    // The ids it offers are the registry's.
    for e in nsql_bench::EXPERIMENTS {
        assert!(err.contains(e.id), "{err} does not offer {}", e.id);
    }
    assert!(out.stdout.is_empty());
}

#[test]
fn a_known_id_before_an_unknown_one_still_fails_the_run() {
    let out = experiments(&["e5", "e99"]);
    assert_eq!(out.status.code(), Some(1));
    let printed = String::from_utf8_lossy(&out.stdout);
    assert!(printed.contains("### E5 — Figure 2"), "{printed}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("e99"));
}

#[test]
fn a_known_id_exits_zero() {
    let out = experiments(&["e5"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty());
}
