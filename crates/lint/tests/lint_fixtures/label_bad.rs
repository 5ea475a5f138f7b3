// Fixture: names spelled outside the types that own them — a paper verb
// typed by hand, and a dotted counter name typed by hand.

fn label() -> &'static str {
    "GET^NEXT"
}

fn counter() -> &'static str {
    "msgs.recv"
}
