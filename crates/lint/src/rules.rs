//! The rule engine: repo invariants enforced over the token stream.
//!
//! Six rules, each guarding a mechanism the paper reproduction depends on:
//!
//! * **`wall-clock`** — no `Instant::now` / `SystemTime` / OS randomness
//!   outside the allowlisted helper. Replay determinism, seeded chaos runs
//!   and byte-identical traces all assume the virtual clock is the *only*
//!   clock.
//! * **`panic-ratchet`** — per-path ceilings on `unwrap()` / `expect()` /
//!   `panic!` in non-test code, with hard zero on the FS-DP hot path. The
//!   ceilings live in `lint.toml` and can only go down.
//! * **`wildcard-match`** — no `_ =>` arms in matches over the protocol
//!   enums (`DpRequest`, `DpReply`, …): adding a protocol variant must be
//!   a compile/lint error everywhere it is interpreted, not a silent
//!   default (the `_ => 8` wire-size guess this rule was born from). A
//!   listed name that no non-test `enum` in the workspace declares is an
//!   error too: a stale entry guards nothing.
//! * **`trace-label`** — a name is spelled only by the type that owns it.
//!   In non-test code a paper-verb literal (`GET^FIRST^VSBB` style) outside
//!   `crates/dp/src/protocol.rs`, or a dotted counter-shaped literal
//!   (`msgs.recv` style) outside `crates/sim/`, is an error naming the typed
//!   accessor to use instead (`DpRequest::name`, `Ctr::name`,
//!   `Wait::name`), so traces, counters and tests cannot drift apart on
//!   spelling.
//! * **`result-discard`** — no silent `Result` discards (`let _ = …` /
//!   bare `.ok();`) in the wire-protocol crates: a dropped `Err` on the
//!   FS-DP path is a protocol step that silently never happened. Existing
//!   offenders live under ratcheted per-path ceilings (`[result_discard]`
//!   in `lint.toml`) that, like the panic ratchet, only go down.
//! * **`one-write-path`** — outside `crates/sim`, non-test code reaches no
//!   instrument directly: no `trace_emit(`, no `flight.record(`, no
//!   `.hist.<x>.record(`, no `metrics.<x>.inc(` / `.add(`. Every event goes
//!   through `Sim::emit` and every plain count is an `add` on an entity's
//!   record, so what an event feeds is decided in one place. No baseline:
//!   the count is zero.

use crate::config::Config;
use crate::lexer::{tokenize, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (e.g. `wall-clock`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line (0 when the finding is file-level).
    pub line: usize,
    /// Human-readable explanation.
    pub msg: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.msg
            )
        } else {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.msg)
        }
    }
}

/// The lint result of one source file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations found (ratchet counting is done by the caller).
    pub diags: Vec<Diagnostic>,
    /// `unwrap()/expect()/panic!` occurrences in non-test code.
    pub panic_count: u64,
    /// Silent `Result` discards (`let _ =` / bare `.ok();`) in non-test
    /// code — only counted for files under a `[result_discard]` crate.
    pub discard_count: u64,
    /// Names of the enums this file declares in non-test code.
    pub(crate) enums: Vec<String>,
}

/// Is this path test or bench code (excluded from the ratchet, wildcard and
/// label rules; the wall-clock rule still applies)?
pub fn is_test_path(rel: &str) -> bool {
    let p = rel.replace('\\', "/");
    p.starts_with("tests/")
        || p.contains("/tests/")
        || p.ends_with("/tests.rs")
        || p.contains("/benches/")
        || p.starts_with("examples/")
}

/// Lint one file's source text. `rel` is the workspace-relative path used
/// in diagnostics and for the wall-clock allowlist.
pub fn lint_source(cfg: &Config, rel: &str, src: &str) -> FileReport {
    let mut report = FileReport::default();
    let toks = tokenize(src);
    let test_path = is_test_path(rel);
    let in_test = test_region_mask(&toks);

    wall_clock_rule(cfg, rel, &toks, &mut report);
    if !test_path {
        report.panic_count = panic_count(&toks, &in_test, rel, &mut report);
        wildcard_match_rule(cfg, rel, &toks, &in_test, &mut report);
        trace_label_rule(rel, &toks, &in_test, &mut report);
        one_write_path_rule(rel, &toks, &in_test, &mut report);
        if is_discard_path(cfg, rel) {
            report.discard_count = discard_positions(&toks, &in_test).len() as u64;
        }
        report.enums = toks
            .windows(2)
            .zip(&in_test)
            .filter(|(pair, &test)| !test && pair[0].is_ident("enum"))
            .map(|(pair, _)| pair[1].text.clone())
            .collect();
    }
    report
}

// ----------------------------------------------------------------------
// #[cfg(test)] region detection
// ----------------------------------------------------------------------

/// A boolean per token: is it inside a `#[cfg(test)]`-gated item?
fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            // Skip to the end of the attribute, then blank out the item.
            let attr_end = close_delim(toks, i + 1, '[', ']');
            let item_end = item_end(toks, attr_end);
            for m in mask.iter_mut().take(item_end).skip(i) {
                *m = true;
            }
            i = item_end;
        } else {
            i += 1;
        }
    }
    mask
}

/// Does `# [ cfg ( test ) ]`-style attribute start at token `i`? Also
/// accepts `#[cfg(all(test, …))]` and any `cfg(...)` whose argument list
/// mentions the bare `test` flag.
fn is_cfg_test_attr(toks: &[Tok], i: usize) -> bool {
    if !(toks.get(i).is_some_and(|t| t.is_punct('#'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
        && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
        && toks.get(i + 3).is_some_and(|t| t.is_punct('(')))
    {
        return false;
    }
    let end = close_delim(toks, i + 3, '(', ')');
    toks[i + 4..end.saturating_sub(1)]
        .iter()
        .any(|t| t.is_ident("test"))
}

/// Given `toks[open_at]` is (or precedes) an opening delimiter, return the
/// index one past its matching close. `open_at` may point at the opener.
fn close_delim(toks: &[Tok], open_at: usize, open: char, close: char) -> usize {
    let mut depth = 0i64;
    let mut i = open_at;
    while i < toks.len() {
        if toks[i].is_punct(open) {
            depth += 1;
        } else if toks[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// One past the end of the item starting at `i` (after an attribute): skips
/// further attributes, then either a braced body or a `;`-terminated item.
fn item_end(toks: &[Tok], mut i: usize) -> usize {
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i = close_delim(toks, i + 1, '[', ']');
            continue;
        }
        break;
    }
    let mut j = i;
    let mut depth = 0i64;
    while j < toks.len() {
        if toks[j].is_punct(';') && depth == 0 {
            return j + 1;
        }
        if toks[j].is_punct('{') {
            depth += 1;
        } else if toks[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

// ----------------------------------------------------------------------
// Rule: wall-clock
// ----------------------------------------------------------------------

fn wall_clock_rule(cfg: &Config, rel: &str, toks: &[Tok], report: &mut FileReport) {
    if cfg.wall_clock_allow.iter().any(|a| a == rel) {
        return;
    }
    for t in toks {
        if t.kind == TokKind::Ident && cfg.wall_clock_banned.iter().any(|b| b == &t.text) {
            report.diags.push(Diagnostic {
                rule: "wall-clock",
                file: rel.to_string(),
                line: t.line,
                msg: format!(
                    "`{}` is wall-clock/OS-randomness; use the virtual clock (nsql_sim) or \
                     the sanctioned crates/bench wall_clock helper",
                    t.text
                ),
            });
        }
    }
}

// ----------------------------------------------------------------------
// Rule: panic-ratchet (counting half; ceilings enforced by the caller)
// ----------------------------------------------------------------------

/// The macros that panic: each is a panic site wherever it is invoked.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// The panic site the token at `i` begins, if any: a `panic!`,
/// `unreachable!`, `todo!` or `unimplemented!`, or a `.unwrap()` /
/// `.expect()` call.
fn panic_site(toks: &[Tok], i: usize) -> Option<String> {
    let t = &toks[i];
    let bang = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
    if bang && PANIC_MACROS.iter().any(|m| t.is_ident(m)) {
        return Some(format!("{}!", t.text));
    }
    let method = i > 0 && toks[i - 1].is_punct('.');
    (method && (t.is_ident("unwrap") || t.is_ident("expect"))).then(|| format!(".{}()", t.text))
}

/// Count the panic sites ([`panic_site`]) in non-test tokens. Emits no
/// diagnostics itself (the caller decides which counts are violations).
fn panic_count(toks: &[Tok], in_test: &[bool], _rel: &str, _report: &mut FileReport) -> u64 {
    let sites = (0..toks.len()).filter(|&i| !in_test[i] && panic_site(toks, i).is_some());
    sites.count() as u64
}

/// Line and form of each non-test panic site (for zero-ratchet
/// diagnostics with file:line).
pub fn panic_sites(src: &str) -> Vec<(usize, String)> {
    let toks = tokenize(src);
    let in_test = test_region_mask(&toks);
    let sites = (0..toks.len()).filter(|&i| !in_test[i]);
    sites
        .filter_map(|i| panic_site(&toks, i).map(|form| (toks[i].line, form)))
        .collect()
}

// ----------------------------------------------------------------------
// Rule: wildcard-match
// ----------------------------------------------------------------------

fn wildcard_match_rule(
    cfg: &Config,
    rel: &str,
    toks: &[Tok],
    in_test: &[bool],
    report: &mut FileReport,
) {
    for i in 0..toks.len() {
        if in_test[i] || !toks[i].is_ident("match") {
            continue;
        }
        // Find the match body: the first `{` at zero paren/bracket depth.
        let mut j = i + 1;
        let mut depth = 0i64;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                // A `;` or another `match` before the body means this
                // `match` wasn't an expression head (e.g. an ident named
                // match can't occur — match is a keyword — so this is just
                // a safety stop for malformed input).
                ";" if depth == 0 => {
                    j = toks.len();
                }
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() {
            continue;
        }
        analyze_match_body(cfg, rel, toks, j, report);
    }
}

/// The `[protocol_enums]` names that no enum in `declared` answers to.
pub(crate) fn stale_protocol_enums(cfg: &Config, declared: &BTreeSet<String>) -> Vec<Diagnostic> {
    let stale = cfg.protocol_enums.iter().filter(|n| !declared.contains(*n));
    stale
        .map(|name| Diagnostic {
            rule: "wildcard-match",
            file: "lint.toml".into(),
            line: 0,
            msg: format!(
                "[protocol_enums] names `{name}`, which no enum in the workspace declares: \
                 the entry guards nothing"
            ),
        })
        .collect()
}

/// Walk one match body (opening brace at `open`), splitting top-level arms
/// into pattern/expression, and flag a `_ =>` arm when any arm pattern
/// names a protocol enum.
fn analyze_match_body(cfg: &Config, rel: &str, toks: &[Tok], open: usize, report: &mut FileReport) {
    let end = close_delim(toks, open, '{', '}');
    let mut i = open + 1;
    let mut pattern: Vec<usize> = Vec::new();
    let mut protocol_enum: Option<String> = None;
    let mut wildcard_line: Option<usize> = None;
    let mut in_pattern = true;
    while i + 1 < end {
        let t = &toks[i];
        if in_pattern {
            if t.is_punct('=') && toks.get(i + 1).is_some_and(|n| n.is_punct('>')) {
                // Pattern complete: classify it.
                classify_pattern(cfg, toks, &pattern, &mut protocol_enum, &mut wildcard_line);
                pattern.clear();
                in_pattern = false;
                i += 2;
                continue;
            }
            // Skip grouped parts of the pattern (tuple/struct payloads).
            match t.text.as_str() {
                "(" => {
                    i = close_delim(toks, i, '(', ')');
                    continue;
                }
                "[" => {
                    i = close_delim(toks, i, '[', ']');
                    continue;
                }
                "{" => {
                    i = close_delim(toks, i, '{', '}');
                    continue;
                }
                _ => {}
            }
            pattern.push(i);
            i += 1;
        } else {
            // In the arm expression: it ends at a top-level `,`, or, for a
            // block-bodied arm, at its closing brace.
            match t.text.as_str() {
                "," => {
                    in_pattern = true;
                    i += 1;
                }
                "(" => i = close_delim(toks, i, '(', ')'),
                "[" => i = close_delim(toks, i, '[', ']'),
                "{" => {
                    i = close_delim(toks, i, '{', '}');
                    // A block body may or may not be followed by a comma.
                    if toks.get(i).is_some_and(|n| n.is_punct(',')) {
                        i += 1;
                    }
                    in_pattern = true;
                }
                _ => i += 1,
            }
        }
    }
    if let (Some(enum_name), Some(line)) = (&protocol_enum, wildcard_line) {
        report.diags.push(Diagnostic {
            rule: "wildcard-match",
            file: rel.to_string(),
            line,
            msg: format!(
                "wildcard `_ =>` arm in a match over protocol enum `{enum_name}`; \
                 spell out every variant so new protocol messages fail to compile here"
            ),
        });
    }
}

/// Inspect one arm's pattern tokens: record protocol-enum mentions and
/// wildcard arms.
fn classify_pattern(
    cfg: &Config,
    toks: &[Tok],
    pattern: &[usize],
    protocol_enum: &mut Option<String>,
    wildcard_line: &mut Option<usize>,
) {
    // `_ =>` or `_ if guard =>`: lone underscore leading the pattern.
    if let Some(&first) = pattern.first() {
        let lone =
            toks[first].is_ident("_") && (pattern.len() == 1 || toks[pattern[1]].is_ident("if"));
        if lone {
            *wildcard_line = Some(toks[first].line);
        }
    }
    for (k, &pi) in pattern.iter().enumerate() {
        let t = &toks[pi];
        if t.kind == TokKind::Ident && cfg.protocol_enums.iter().any(|e| e == &t.text) {
            // Require a following `::` so a binding named like the enum
            // doesn't count.
            if let (Some(&a), Some(&b)) = (pattern.get(k + 1), pattern.get(k + 2)) {
                if toks[a].is_punct(':') && toks[b].is_punct(':') {
                    *protocol_enum = Some(t.text.clone());
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Rule: trace-label
// ----------------------------------------------------------------------

/// Paper-verb shape: uppercase words joined by `^` (`GET^FIRST^VSBB`).
fn is_paper_verb(s: &str) -> bool {
    s.contains('^')
        && !s.is_empty()
        && s.split('^')
            .all(|w| !w.is_empty() && w.chars().all(|c| c.is_ascii_uppercase()))
}

/// MEASURE counter-field shape: two or more dotted lowercase segments,
/// each starting with a letter (`msgs.recv`, `cache.hits`). A trailing
/// segment that is a file extension (`lint.toml`, `trace.json`) makes it
/// a path, not a counter.
fn is_counter_name(s: &str) -> bool {
    const EXTENSIONS: &[&str] = &[
        "toml", "json", "jsonl", "rs", "md", "yml", "yaml", "sh", "py", "lock", "txt",
    ];
    let segs: Vec<&str> = s.split('.').collect();
    segs.len() >= 2
        && segs.iter().all(|w| {
            w.starts_with(|c: char| c.is_ascii_lowercase())
                && w.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
        && !matches!(segs.last(), Some(last) if EXTENSIONS.contains(last))
}

/// The one file that spells the paper's verbs (`DpRequest::name`).
const VERB_HOME: &str = "crates/dp/src/protocol.rs";

/// The telemetry's own crate: the one place instruments are written and
/// dotted names spelled (`Ctr::name`, `Wait::name`, the trace records).
const TELEMETRY_CRATE: &str = "crates/sim/";

fn trace_label_rule(rel: &str, toks: &[Tok], in_test: &[bool], report: &mut FileReport) {
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] || t.kind != TokKind::Str {
            continue;
        }
        let msg = if is_paper_verb(&t.text) && rel != VERB_HOME {
            format!(
                "`{}` spells a paper verb outside {VERB_HOME}; take it from the request \
                 (`DpRequest::name`) so every label has one spelling",
                t.text
            )
        } else if is_counter_name(&t.text) && !rel.starts_with(TELEMETRY_CRATE) {
            format!(
                "`{}` spells a dotted name outside {TELEMETRY_CRATE}; take it from its type \
                 (`Ctr::name`, `Wait::name`) so a lookup cannot silently miss",
                t.text
            )
        } else {
            continue;
        };
        report.diags.push(Diagnostic {
            rule: "trace-label",
            file: rel.to_string(),
            line: t.line,
            msg,
        });
    }
}

// ----------------------------------------------------------------------
// Rule: one-write-path
// ----------------------------------------------------------------------

/// Does the token sequence starting at `i` spell `words`, where each word
/// is an identifier or a single punctuation character?
fn spells(toks: &[Tok], i: usize, words: &[&str]) -> bool {
    words
        .iter()
        .enumerate()
        .all(|(k, w)| toks.get(i + k).is_some_and(|t| t.text == *w))
}

/// The instrument a direct write starting at token `i` reaches, if any.
fn direct_instrument_write(toks: &[Tok], i: usize) -> Option<&'static str> {
    let any_ident = |k: usize| toks.get(k).is_some_and(|t| t.kind == TokKind::Ident);
    if spells(toks, i, &["trace_emit", "("]) {
        return Some("trace_emit(");
    }
    if spells(toks, i, &["flight", ".", "record", "("]) {
        return Some("flight.record(");
    }
    if spells(toks, i, &[".", "hist", "."]) && any_ident(i + 3) {
        // `.hist.stmt_wait_us[w.index()].record(`: skip one index group.
        let mut j = i + 4;
        if toks.get(j).is_some_and(|t| t.is_punct('[')) {
            j = close_delim(toks, j, '[', ']');
        }
        if spells(toks, j, &[".", "record", "("]) {
            return Some(".hist.<x>.record(");
        }
    }
    if spells(toks, i, &["metrics", "."])
        && any_ident(i + 2)
        && (spells(toks, i + 3, &[".", "inc", "("]) || spells(toks, i + 3, &[".", "add", "("]))
    {
        return Some("metrics.<x>.inc(/.add(");
    }
    None
}

fn one_write_path_rule(rel: &str, toks: &[Tok], in_test: &[bool], report: &mut FileReport) {
    if rel.starts_with(TELEMETRY_CRATE) {
        return;
    }
    for i in (0..toks.len()).filter(|&i| !in_test[i]) {
        if let Some(what) = direct_instrument_write(toks, i) {
            report.diags.push(Diagnostic {
                rule: "one-write-path",
                file: rel.to_string(),
                line: toks[i].line,
                msg: format!(
                    "`{what}` writes an instrument directly; report the event with \
                     `Sim::emit` (or count on the entity's record) so nsql_sim alone decides \
                     what it feeds"
                ),
            });
        }
    }
}

// ----------------------------------------------------------------------
// Rule: result-discard (counting half; ceilings enforced by the caller)
// ----------------------------------------------------------------------

/// Is this file under one of the `[result_discard] crates` prefixes (the
/// wire-protocol surfaces where silent discards are ratcheted)?
pub fn is_discard_path(cfg: &Config, rel: &str) -> bool {
    cfg.result_discard_crates
        .iter()
        .any(|c| rel == c || rel.starts_with(&format!("{c}/")))
}

/// Positions of silent `Result` discards in non-test tokens: a lone
/// `let _ = …` binding (which drops any `Err` on the floor — a named
/// `_reason` binding does not match) or a bare `.ok();` statement (the
/// `Result` → `Option` → void laundering idiom).
fn discard_positions(toks: &[Tok], in_test: &[bool]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        let t = &toks[i];
        if t.is_ident("let")
            && toks.get(i + 1).is_some_and(|n| n.is_ident("_"))
            && toks.get(i + 2).is_some_and(|n| n.is_punct('='))
        {
            out.push((t.line, "let _ =".to_string()));
        }
        if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_ident("ok"))
            && toks.get(i + 2).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
            && toks.get(i + 4).is_some_and(|n| n.is_punct(';'))
            && ok_is_bare(toks, i)
        {
            out.push((toks[i + 1].line, ".ok();".to_string()));
        }
    }
    out
}

/// Is the `.ok();` ending at the `.` in `toks[dot]` a *bare* expression
/// statement (value dropped), rather than bound or returned
/// (`let before = rel.read(n).ok();` consumes the `Option`)? Walks back to
/// the statement boundary, skipping balanced groups, looking for a
/// consuming `let` / `return` / `=` at statement depth.
fn ok_is_bare(toks: &[Tok], dot: usize) -> bool {
    let mut depth = 0i64;
    let mut j = dot;
    while j > 0 {
        let p = &toks[j - 1];
        if p.kind == TokKind::Punct {
            match p.text.chars().next() {
                Some(')') | Some(']') => depth += 1,
                Some('(') | Some('[') => {
                    if depth == 0 {
                        return true; // opened a group: statement starts here
                    }
                    depth -= 1;
                }
                Some(';') | Some('{') | Some('}') if depth == 0 => return true,
                Some('=') if depth == 0 => return false, // bound or assigned
                _ => {}
            }
        } else if depth == 0 && (p.is_ident("let") || p.is_ident("return")) {
            return false;
        }
        j -= 1;
    }
    true
}

/// Site list for over-ceiling diagnostics (mirrors [`panic_sites`]).
pub fn discard_sites(src: &str) -> Vec<(usize, String)> {
    let toks = tokenize(src);
    let in_test = test_region_mask(&toks);
    discard_positions(&toks, &in_test)
}

/// Enforce the `[result_discard]` ratchet: per-file discard counts sum
/// into each configured path bucket; a covered file under no bucket has an
/// implicit ceiling of zero (new wire-protocol code may not discard at
/// all).
pub fn enforce_discard_ratchet(
    cfg: &Config,
    counts: &BTreeMap<String, u64>,
) -> (Vec<Diagnostic>, BTreeMap<String, u64>) {
    let mut diags = Vec::new();
    let mut actual: BTreeMap<String, u64> = BTreeMap::new();
    for key in cfg.result_discard_ratchet.keys() {
        actual.insert(key.clone(), 0);
    }
    for (file, &n) in counts {
        let mut covered = false;
        for (key, sum) in actual.iter_mut() {
            if file == key || file.starts_with(&format!("{key}/")) {
                *sum += n;
                covered = true;
            }
        }
        if !covered && n > 0 {
            diags.push(Diagnostic {
                rule: "result-discard",
                file: file.clone(),
                line: 0,
                msg: format!(
                    "{n} silent Result discard(s) (`let _ =` / bare `.ok();`) in a \
                     wire-protocol crate with no [result_discard] baseline; handle the \
                     error or match on it explicitly"
                ),
            });
        }
    }
    for (key, &n) in &actual {
        let ceiling = cfg.result_discard_ratchet.get(key).copied().unwrap_or(0);
        if n > ceiling {
            diags.push(Diagnostic {
                rule: "result-discard",
                file: key.clone(),
                line: 0,
                msg: format!(
                    "silent Result discard count {n} exceeds the ratcheted ceiling \
                     {ceiling}; handle the error instead (ceilings only go down)"
                ),
            });
        }
    }
    (diags, actual)
}

// ----------------------------------------------------------------------
// Ratchet enforcement over a whole workspace scan
// ----------------------------------------------------------------------

/// Sum per-file panic counts into each configured ratchet bucket (a file
/// contributes to every key that path-prefixes it) and diff against the
/// ceilings. Files under no bucket are themselves violations, so every new
/// crate must be given a baseline.
pub fn enforce_ratchet(
    cfg: &Config,
    counts: &BTreeMap<String, u64>,
) -> (Vec<Diagnostic>, BTreeMap<String, u64>) {
    let mut diags = Vec::new();
    let mut actual: BTreeMap<String, u64> = BTreeMap::new();
    for key in cfg.ratchet.keys() {
        actual.insert(key.clone(), 0);
    }
    for (file, n) in counts {
        let mut covered = false;
        for (key, sum) in actual.iter_mut() {
            if file == key || file.starts_with(&format!("{key}/")) {
                *sum += n;
                covered = true;
            }
        }
        if !covered {
            diags.push(Diagnostic {
                rule: "panic-ratchet",
                file: file.clone(),
                line: 0,
                msg: "file is not covered by any [ratchet] entry in lint.toml; \
                      add a baseline for its crate"
                    .to_string(),
            });
        }
    }
    for (key, &n) in &actual {
        let ceiling = cfg.ratchet.get(key).copied().unwrap_or(0);
        if n > ceiling {
            diags.push(Diagnostic {
                rule: "panic-ratchet",
                file: key.clone(),
                line: 0,
                msg: format!(
                    "panic-site count {n} exceeds the ratcheted ceiling {ceiling}; \
                     convert the new sites to typed errors (ceilings only go down)"
                ),
            });
        }
    }
    (diags, actual)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> Config {
        Config {
            wall_clock_banned: vec!["Instant".into(), "SystemTime".into(), "thread_rng".into()],
            wall_clock_allow: vec!["allowed/wall_clock.rs".into()],
            protocol_enums: vec!["DpRequest".into(), "DpReply".into(), "FileKind".into()],
            ratchet: BTreeMap::new(),
            result_discard_crates: vec!["proto".into()],
            result_discard_ratchet: BTreeMap::new(),
            ..Config::default()
        }
    }

    #[test]
    fn wall_clock_flags_banned_idents_but_not_strings() {
        let cfg = test_cfg();
        let r = lint_source(&cfg, "x.rs", "let t = Instant::now();");
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].rule, "wall-clock");
        let r = lint_source(&cfg, "x.rs", r#"let s = "Instant::now()"; // Instant"#);
        assert!(r.diags.is_empty());
        let r = lint_source(&cfg, "allowed/wall_clock.rs", "let t = Instant::now();");
        assert!(r.diags.is_empty());
    }

    #[test]
    fn panic_count_skips_cfg_test_modules() {
        let cfg = test_cfg();
        let src = r#"
            fn f(x: Option<u32>) -> u32 { x.unwrap() }
            fn g() { panic!("boom") }
            #[cfg(test)]
            mod tests {
                fn t() { None::<u32>.unwrap(); panic!("fine in tests") }
            }
        "#;
        let r = lint_source(&cfg, "x.rs", src);
        assert_eq!(r.panic_count, 2);
        let sites = panic_sites(src);
        assert_eq!(sites.len(), 2);
    }

    #[test]
    fn every_panicking_macro_is_a_panic_site() {
        let cfg = test_cfg();
        let src = r#"
            fn f(x: u8) -> u8 {
                match x {
                    0 => unreachable!("never zero"),
                    1 => todo!(),
                    2 => unimplemented!("later"),
                    3 => panic!("three"),
                    _ => x.checked_add(1).expect("no overflow"),
                }
            }
            // Not invocations: a path, a name, a method.
            fn g(todo: u8) -> u8 { std::unreachable::<u8>; todo.unimplemented() }
        "#;
        assert_eq!(lint_source(&cfg, "x.rs", src).panic_count, 5);
        let forms: Vec<String> = panic_sites(src).into_iter().map(|(_, f)| f).collect();
        assert_eq!(
            forms,
            [
                "unreachable!",
                "todo!",
                "unimplemented!",
                "panic!",
                ".expect()"
            ]
        );
    }

    #[test]
    fn wildcard_match_needs_both_enum_and_underscore() {
        let cfg = test_cfg();
        // Protocol enum + wildcard → flagged.
        let r = lint_source(
            &cfg,
            "x.rs",
            "fn f(r: DpRequest) -> usize { match r { DpRequest::FlushCache => 0, _ => 8 } }",
        );
        assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
        assert_eq!(r.diags[0].rule, "wildcard-match");
        // Wildcard over a non-protocol enum → fine.
        let r = lint_source(
            &cfg,
            "x.rs",
            "fn f(x: Option<u32>) -> u32 { match x { Some(v) => v, _ => 0 } }",
        );
        assert!(r.diags.is_empty());
        // Protocol enum fully spelled out → fine.
        let r = lint_source(
            &cfg,
            "x.rs",
            "fn f(k: FileKind) -> usize { match k { FileKind::EntrySequenced => 0, \
             FileKind::Relative { .. } => 8 } }",
        );
        assert!(r.diags.is_empty());
        // `other =>` binding is not a wildcard.
        let r = lint_source(
            &cfg,
            "x.rs",
            "fn f(r: DpReply) -> usize { match r { DpReply::Ok => 0, other => 1 } }",
        );
        assert!(r.diags.is_empty());
    }

    #[test]
    fn nested_match_is_analyzed_independently() {
        let cfg = test_cfg();
        // The outer match is exhaustive; the inner FileKind match hides a
        // wildcard — exactly the protocol.rs:369 shape this rule targets.
        let src = "fn f(r: DpRequest) -> usize { match r { \
                   DpRequest::CreateFile { kind } => match kind { \
                   FileKind::KeySequenced(d) => d.len(), _ => 8 }, \
                   DpRequest::FlushCache => 0 } }";
        let r = lint_source(&cfg, "x.rs", src);
        assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
        assert!(r.diags[0].msg.contains("FileKind"));
    }

    #[test]
    fn one_write_path_flags_each_direct_write_outside_the_telemetry_crate() {
        let cfg = test_cfg();
        let src = r#"
            fn f(sim: &Sim) {
                sim.trace_emit(|| kind());
                sim.flight.record("$DATA1", entry());
                sim.hist.msg_bytes.record(8);
                sim.hist.stmt_wait_us[w.index()].record(us);
                sim.metrics.msgs_total.inc();
                self.sim.metrics.audit_bytes.add(size);
            }
            #[cfg(test)]
            mod tests {
                fn t(sim: &Sim) { sim.hist.msg_bytes.record(8); }
            }
        "#;
        let r = lint_source(&cfg, "crates/msg/src/lib.rs", src);
        let lines: Vec<usize> = r.diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![3, 4, 5, 6, 7, 8], "{:?}", r.diags);
        assert!(r.diags.iter().all(|d| d.rule == "one-write-path"));
        // The telemetry crate is where instruments are written.
        assert!(lint_source(&cfg, "crates/sim/src/event.rs", src)
            .diags
            .is_empty());
        // Reads, the one path itself, and a histogram of one's own are fine.
        let ok = r#"
            fn g(sim: &Sim, rec: &MeasureRecord, h: &Histogram) {
                sim.emit(rec, Event::CacheEvict(1));
                rec.add(Ctr::CacheHits, 1);
                let p = sim.hist.msg_bytes.percentile(0.5);
                let m = sim.metrics.snapshot();
                h.record(p + m.msgs_total);
            }
        "#;
        let r = lint_source(&cfg, "crates/cache/src/lib.rs", ok);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
    }

    #[test]
    fn result_discard_counts_bare_drops_only() {
        let cfg = test_cfg();
        // Lone `_` binding and bare `.ok();` in a covered crate count…
        let src = r#"
            fn f() {
                let _ = send();
                send().ok();
            }
            #[cfg(test)]
            mod tests {
                fn t() { let _ = send(); send().ok(); }
            }
        "#;
        let r = lint_source(&cfg, "proto/src/lib.rs", src);
        assert_eq!(r.discard_count, 2, "{:?}", discard_sites(src));
        // …but a named `_reason` binding, a *bound* `.ok()`, a returned
        // `.ok()`, and an `.ok()` consumed inside a call do not.
        let src = r#"
            fn g() -> Option<u32> {
                let _hint = send();
                let before = read(7).ok();
                take(read(9).ok());
                return send().ok();
            }
        "#;
        let r = lint_source(&cfg, "proto/src/lib.rs", src);
        assert_eq!(r.discard_count, 0, "{:?}", discard_sites(src));
        // Outside the covered crates nothing is counted at all.
        let r = lint_source(&cfg, "other/src/lib.rs", "fn f() { let _ = send(); }");
        assert_eq!(r.discard_count, 0);
    }

    #[test]
    fn discard_ratchet_enforces_ceilings_and_implicit_zero() {
        let mut cfg = test_cfg();
        cfg.result_discard_ratchet
            .insert("proto/src/lib.rs".into(), 1);
        let mut counts = BTreeMap::new();
        counts.insert("proto/src/lib.rs".to_string(), 2u64); // over its ceiling of 1
        counts.insert("proto/src/wire.rs".to_string(), 1u64); // no baseline → implicit 0
        counts.insert("proto/src/clean.rs".to_string(), 0u64);
        let (diags, buckets) = enforce_discard_ratchet(&cfg, &counts);
        assert_eq!(buckets.get("proto/src/lib.rs"), Some(&2));
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["result-discard", "result-discard"], "{diags:?}");
        assert!(diags.iter().any(|d| d.file == "proto/src/wire.rs"));
        assert!(diags
            .iter()
            .any(|d| d.msg.contains("exceeds the ratcheted ceiling 1")));
    }

    /// The registry of paper verbs is the file that declares them:
    /// `DpRequest::name` in the protocol module.
    #[test]
    fn trace_labels_check_the_registry() {
        let cfg = test_cfg();
        let verb = r#"let l = "GET^NEXT";"#;
        assert!(lint_source(&cfg, VERB_HOME, verb).diags.is_empty());
        let r = lint_source(&cfg, "crates/fs/src/enscribe.rs", verb);
        assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
        assert_eq!(r.diags[0].rule, "trace-label");
        assert!(r.diags[0].msg.contains("DpRequest::name"), "{}", r.diags[0]);
        // Test code may spell what it checks; non-verb carets are ignored.
        let test = format!("#[cfg(test)]\nmod tests {{ fn t() {{ {verb} }} }}");
        assert!(lint_source(&cfg, "x.rs", &test).diags.is_empty());
        assert!(lint_source(&cfg, "tests/x.rs", verb).diags.is_empty());
        let r = lint_source(&cfg, "x.rs", r#"let l = "a^b";"#);
        assert!(r.diags.is_empty());
    }

    /// The registry of dotted names is the telemetry crate that declares
    /// them: `Ctr::name`, `Wait::name` and the trace records.
    #[test]
    fn counter_names_check_the_same_registry() {
        let cfg = test_cfg();
        let counter = r#"let c = "msgs.recv";"#;
        assert!(lint_source(&cfg, "crates/sim/src/measure.rs", counter)
            .diags
            .is_empty());
        let r = lint_source(&cfg, "crates/bench/src/gate.rs", counter);
        assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
        assert_eq!(r.diags[0].rule, "trace-label");
        assert!(r.diags[0].msg.contains("Ctr::name"), "{}", r.diags[0]);
        // Paths, versions, and rendered ratios are not counter names.
        for ok in [
            r#"let p = "lint.toml";"#,
            r#"let p = "trace.json";"#,
            r#"let v = "0.1.0";"#,
            r#"let x = "1.0x";"#,
            r#"let s = "a.B";"#,
        ] {
            let r = lint_source(&cfg, "x.rs", ok);
            assert!(r.diags.is_empty(), "{ok}: {:?}", r.diags);
        }
    }

    #[test]
    fn ratchet_sums_prefixes_and_flags_increases() {
        let mut cfg = test_cfg();
        cfg.ratchet.insert("crates/dp".into(), 5);
        cfg.ratchet.insert("crates/dp/src/protocol.rs".into(), 0);
        let mut counts = BTreeMap::new();
        counts.insert("crates/dp/src/lib.rs".to_string(), 5u64);
        counts.insert("crates/dp/src/protocol.rs".to_string(), 1u64);
        let (diags, actual) = enforce_ratchet(&cfg, &counts);
        // protocol.rs ceiling 0 violated; crates/dp total 6 > 5 violated too.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(actual.get("crates/dp"), Some(&6));
        // Uncovered files are violations.
        let mut counts = BTreeMap::new();
        counts.insert("crates/new/src/lib.rs".to_string(), 0u64);
        let (diags, _) = enforce_ratchet(&cfg, &counts);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].msg.contains("not covered"));
    }

    #[test]
    fn test_paths_are_exempt_from_ratchet_but_not_wall_clock() {
        let cfg = test_cfg();
        let src = "fn f() { let x = foo().unwrap(); let t = Instant::now(); }";
        let r = lint_source(&cfg, "crates/dp/src/tests.rs", src);
        assert_eq!(r.panic_count, 0);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].rule, "wall-clock");
        assert!(is_test_path("tests/chaos.rs"));
        assert!(is_test_path("crates/lint/tests/fixtures.rs"));
        assert!(!is_test_path("crates/lint/src/lib.rs"));
    }
}
