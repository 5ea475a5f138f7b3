// Fixture: the paper's verbs spelled where they are declared (linted as
// `crates/dp/src/protocol.rs`), and strings that are not names.

fn labels() -> [&'static str; 4] {
    ["GET^FIRST^VSBB", "UPDATE^SUBSET^FIRST", "plain text, no caret", "lint.toml"]
}
