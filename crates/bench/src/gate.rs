//! The CI perf gate: diff a fresh `run_json()` output against the
//! checked-in `BENCH_baseline.json`.
//!
//! The simulation runs on a virtual clock, so every message, I/O, and
//! MEASURE counter in `BENCH_results.json` is exact per build. The gate
//! therefore compares with **zero tolerance**: any integer cell or counter
//! that moved is a behaviour change, and the author must either fix it or
//! regenerate the baseline in the same commit. Non-integer cells (rendered
//! times, ratios) are ignored — they restate the counters they derive from.
//!
//! The bench crate is dependency-free, so the gate carries its own minimal
//! JSON parser — just the subset `BENCH_results.json` uses.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Unsigned integer content, if this is a non-negative whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn consume(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    match s.chars().next() {
                        Some(c) => {
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                        None => return Err("unterminated string".into()),
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.consume(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

/// One detected regression (or baseline-shape problem).
struct Diff {
    record: String,
    what: String,
}

/// Compare a fresh `run_json()` output against the checked-in baseline.
///
/// Returns `Ok(summary)` when every gated value matches, `Err(report)`
/// listing each difference otherwise. Gated values: every MEASURE counter
/// of the `"measure"` record (and its `trace_dropped`), and every table
/// cell that is a whole number in the baseline — message counts, byte
/// counts, I/O counts, row counts. Rendered times and ratios are skipped.
pub fn perf_gate(baseline_text: &str, current_text: &str) -> Result<String, String> {
    let baseline = parse(baseline_text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let current =
        parse(current_text).map_err(|e| format!("current results are not valid JSON: {e}"))?;

    let index = |doc: &Json, which: &str| -> Result<BTreeMap<String, Json>, String> {
        let arr = doc
            .as_arr()
            .ok_or(format!("{which}: top level is not an array"))?;
        let mut map = BTreeMap::new();
        for rec in arr {
            let id = rec
                .get("id")
                .and_then(Json::as_str)
                .ok_or(format!("{which}: record without an \"id\""))?;
            map.insert(id.to_string(), rec.clone());
        }
        Ok(map)
    };
    let base = index(&baseline, "baseline")?;
    let cur = index(&current, "current")?;

    let mut diffs: Vec<Diff> = Vec::new();
    let mut compared = 0usize;

    for id in base.keys() {
        if !cur.contains_key(id) {
            diffs.push(Diff {
                record: id.clone(),
                what: "record missing from current results".into(),
            });
        }
    }
    for id in cur.keys() {
        if !base.contains_key(id) {
            diffs.push(Diff {
                record: id.clone(),
                what: "record not in baseline (regenerate BENCH_baseline.json)".into(),
            });
        }
    }

    for (id, b) in &base {
        let Some(c) = cur.get(id) else { continue };
        if b.get("kind").and_then(Json::as_str) == Some("measure") {
            compared += diff_measure(id, b, c, &mut diffs);
        } else {
            compared += diff_table(id, b, c, &mut diffs);
        }
    }

    if diffs.is_empty() {
        Ok(format!(
            "perf gate OK: {} records, {} gated values match the baseline exactly\n",
            base.len(),
            compared
        ))
    } else {
        let mut out = format!("perf gate FAILED: {} difference(s)\n", diffs.len());
        for d in &diffs {
            let _ = writeln!(out, "  [{}] {}", d.record, d.what);
        }
        out.push_str(
            "counters are deterministic: fix the regression or regenerate the baseline \
             (cargo run --release -p nsql-bench --bin experiments -- --json && \
             cp BENCH_results.json BENCH_baseline.json)\n",
        );
        Err(out)
    }
}

/// Compare the per-entity counters of two `"measure"` records exactly.
fn diff_measure(id: &str, base: &Json, cur: &Json, diffs: &mut Vec<Diff>) -> usize {
    let mut compared = 0;
    let bd = base.get("trace_dropped").and_then(Json::as_u64);
    let cd = cur.get("trace_dropped").and_then(Json::as_u64);
    compared += 1;
    if bd != cd {
        diffs.push(Diff {
            record: id.into(),
            what: format!("trace_dropped: baseline {bd:?}, current {cd:?}"),
        });
    }

    // (kind, name) -> counter map.
    let entities = |doc: &Json| -> BTreeMap<(String, String), BTreeMap<String, u64>> {
        let mut out = BTreeMap::new();
        for e in doc.get("entities").and_then(Json::as_arr).unwrap_or(&[]) {
            let kind = e.get("kind").and_then(Json::as_str).unwrap_or("?");
            let name = e.get("name").and_then(Json::as_str).unwrap_or("?");
            let mut counters = BTreeMap::new();
            if let Some(Json::Obj(fields)) = e.get("counters") {
                for (k, v) in fields {
                    counters.insert(k.clone(), v.as_u64().unwrap_or(u64::MAX));
                }
            }
            out.insert((kind.to_string(), name.to_string()), counters);
        }
        out
    };
    let be = entities(base);
    let ce = entities(cur);

    let keys: std::collections::BTreeSet<_> = be.keys().chain(ce.keys()).cloned().collect();
    for key in &keys {
        let (kind, name) = key;
        match (be.get(key), ce.get(key)) {
            (Some(_), None) => diffs.push(Diff {
                record: id.into(),
                what: format!("entity {kind} {name}: missing from current"),
            }),
            // The key is in one of the two, so here in the current run.
            (None, _) => diffs.push(Diff {
                record: id.into(),
                what: format!("entity {kind} {name}: not in baseline"),
            }),
            (Some(bc), Some(cc)) => {
                let ctrs: std::collections::BTreeSet<_> =
                    bc.keys().chain(cc.keys()).cloned().collect();
                for ctr in &ctrs {
                    let bv = bc.get(ctr).copied().unwrap_or(0);
                    let cv = cc.get(ctr).copied().unwrap_or(0);
                    compared += 1;
                    if bv != cv {
                        diffs.push(Diff {
                            record: id.into(),
                            what: format!("{kind} {name} {ctr}: baseline {bv}, current {cv}"),
                        });
                    }
                }
            }
        }
    }
    compared
}

/// Compare the integer cells of two table records exactly, row by row.
fn diff_table(id: &str, base: &Json, cur: &Json, diffs: &mut Vec<Diff>) -> usize {
    let mut compared = 0;
    let cols = |doc: &Json| -> Vec<String> {
        doc.get("columns")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|c| c.as_str().map(str::to_string))
            .collect()
    };
    let bcols = cols(base);
    if bcols != cols(cur) {
        diffs.push(Diff {
            record: id.into(),
            what: "column set changed (regenerate the baseline)".into(),
        });
        return compared;
    }
    let rows = |doc: &Json| -> Vec<Json> {
        doc.get("rows")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .to_vec()
    };
    let brows = rows(base);
    let crows = rows(cur);
    if brows.len() != crows.len() {
        diffs.push(Diff {
            record: id.into(),
            what: format!(
                "row count: baseline {}, current {}",
                brows.len(),
                crows.len()
            ),
        });
        return compared;
    }
    let label_col = bcols.first().cloned().unwrap_or_default();
    for (br, cr) in brows.iter().zip(&crows) {
        let label = br.get(&label_col).and_then(Json::as_str).unwrap_or("?");
        for col in &bcols {
            let bv = br.get(col).and_then(Json::as_str).unwrap_or("");
            let cv = cr.get(col).and_then(Json::as_str).unwrap_or("");
            // Gate whole-number cells (counters); the first column is the
            // row label and is gated as identity so rows can't be renamed
            // or reordered silently.
            let gated = col == &label_col || bv.parse::<u64>().is_ok();
            if !gated {
                continue;
            }
            compared += 1;
            if bv != cv {
                diffs.push(Diff {
                    record: id.into(),
                    what: format!(
                        "row \"{label}\" column \"{col}\": baseline \"{bv}\", current \"{cv}\""
                    ),
                });
            }
        }
    }
    compared
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_the_record_shapes() {
        let doc = r#"[{"id": "e2", "columns": ["a", "b"], "rows": [{"a": "x \"q\"", "b": "12"}], "notes": ["µs ≈ 3"]},
                      {"id": "measure", "kind": "measure", "at_us": 120, "trace_dropped": 0,
                       "entities": [{"kind": "process", "name": "$DATA1", "counters": {"msgs.recv": 42}}]}]"#;
        let v = parse(doc).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("id").and_then(Json::as_str), Some("e2"));
        let row = &arr[0].get("rows").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("a").and_then(Json::as_str), Some("x \"q\""));
        let ent = &arr[1].get("entities").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            ent.get("counters")
                .unwrap()
                .get("msgs.recv")
                .and_then(Json::as_u64),
            Some(42)
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("[1] trailing").is_err());
    }

    fn table_rec(id: &str, msgs: &str) -> String {
        format!(
            "{{\"id\": \"{id}\", \"title\": \"t\", \"columns\": [\"interface\", \"msgs\", \"elapsed\"], \
             \"rows\": [{{\"interface\": \"RAT\", \"msgs\": \"{msgs}\", \"elapsed\": \"1.20 ms\"}}], \"notes\": []}}"
        )
    }

    #[test]
    fn gate_passes_on_identical_results() {
        let doc = format!("[{}]", table_rec("e2", "100"));
        let ok = perf_gate(&doc, &doc).unwrap();
        assert!(ok.contains("perf gate OK"), "{ok}");
    }

    #[test]
    fn gate_fails_on_counter_drift_but_not_on_elapsed() {
        let base = format!("[{}]", table_rec("e2", "100"));
        let drifted = format!("[{}]", table_rec("e2", "101"));
        let err = perf_gate(&base, &drifted).unwrap_err();
        assert!(err.contains("column \"msgs\""), "{err}");
        assert!(err.contains("baseline \"100\", current \"101\""), "{err}");

        // Same counters, different rendered time: passes.
        let slow = format!("[{}]", table_rec("e2", "100")).replace("1.20 ms", "9.99 ms");
        assert!(perf_gate(&base, &slow).is_ok());
    }

    #[test]
    fn gate_fails_on_measure_counter_drift() {
        let m = |v: u64| {
            format!(
                "[{{\"id\": \"measure\", \"kind\": \"measure\", \"at_us\": 1, \"trace_dropped\": 0, \
                 \"entities\": [{{\"kind\": \"process\", \"name\": \"$DATA1\", \
                 \"counters\": {{\"msgs.recv\": {v}}}}}]}}]"
            )
        };
        let err = perf_gate(&m(42), &m(43)).unwrap_err();
        assert!(
            err.contains("process $DATA1 msgs.recv: baseline 42, current 43"),
            "{err}"
        );
        assert!(perf_gate(&m(42), &m(42)).is_ok());
    }

    #[test]
    fn gate_fails_on_missing_or_extra_records() {
        let base = format!("[{}, {}]", table_rec("e2", "1"), table_rec("e4", "2"));
        let cur = format!("[{}, {}]", table_rec("e2", "1"), table_rec("e9", "2"));
        let err = perf_gate(&base, &cur).unwrap_err();
        assert!(err.contains("[e4] record missing"), "{err}");
        assert!(err.contains("[e9] record not in baseline"), "{err}");
    }

    /// The table EXPERIMENTS.md prints under `### title`, as the record
    /// `Table::to_json` would have written for it.
    fn recorded_table(md: &str, id: &str, title: &str) -> Json {
        let body = md
            .split(&format!("\n### {title}\n"))
            .nth(1)
            .unwrap_or_else(|| panic!("EXPERIMENTS.md has no table titled `{title}`"));
        let mut lines = body
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .map(|l| {
                let cells = l.trim_matches('|').split('|');
                cells.map(|c| c.trim().to_string()).collect::<Vec<_>>()
            });
        let table = crate::report::Table {
            title: title.to_string(),
            headers: lines.next().expect("a header row"),
            rows: lines.skip(1).collect(), // past the |---| rule
            notes: Vec::new(),
        };
        parse(&table.to_json(id)).unwrap()
    }

    /// Pure text, nothing run: every table record of the checked-in
    /// baseline gates clean against the table of the same title in
    /// EXPERIMENTS.md — same rows in the same order, same whole-number
    /// cells — so the document cannot drift from what CI pins.
    #[test]
    fn experiments_md_prints_the_baseline() {
        let baseline = parse(&crate::repo_doc("BENCH_baseline.json")).unwrap();
        let md = crate::repo_doc("EXPERIMENTS.md");
        let (mut tables, mut compared, mut diffs) = (0, 0, Vec::new());
        for rec in baseline.as_arr().unwrap() {
            if rec.get("kind").and_then(Json::as_str) == Some("measure") {
                continue;
            }
            let id = rec.get("id").and_then(Json::as_str).unwrap();
            let title = rec.get("title").and_then(Json::as_str).unwrap();
            compared += diff_table(id, rec, &recorded_table(&md, id, title), &mut diffs);
            tables += 1;
        }
        let diffs: Vec<String> = diffs
            .iter()
            .map(|d| format!("[{}] {}", d.record, d.what))
            .collect();
        assert!(diffs.is_empty(), "EXPERIMENTS.md vs baseline: {diffs:#?}");
        assert_eq!(tables, 12, "table records in BENCH_baseline.json");
        assert!(compared > 500, "only {compared} cells compared");
    }
}
