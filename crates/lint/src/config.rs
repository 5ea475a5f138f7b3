//! `lint.toml` — the checked-in lint configuration and ratchet table.
//!
//! The file is parsed with a tiny built-in reader (the linter must stay
//! dependency-free to preserve the offline build) that supports exactly the
//! subset the config uses: `[section]` headers, `key = <integer>`,
//! `key = "string"`, and (possibly multi-line) `key = [ "a", "b" ]` arrays,
//! with `#` comments. Keys may be quoted (ratchet entries are paths).

use std::collections::BTreeMap;
use std::fmt;

/// A parse/IO problem with the config file.
#[derive(Debug)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// The linter's configuration, as read from `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Identifiers banned outside the wall-clock allowlist
    /// (`[wall_clock] banned`).
    pub wall_clock_banned: Vec<String>,
    /// Files (workspace-relative) allowed to touch the wall clock
    /// (`[wall_clock] allow`).
    pub wall_clock_allow: Vec<String>,
    /// Enum type names whose matches must not use a `_ =>` arm
    /// (`[protocol_enums] names`).
    pub protocol_enums: Vec<String>,
    /// Ratchet ceilings: path prefix → max panic-site count in
    /// non-test code under that prefix (`[ratchet]`).
    pub ratchet: BTreeMap<String, u64>,
    /// Crate-path prefixes in which silent `Result` discards are banned
    /// (`[result_discard] crates`) — the wire-protocol surfaces.
    pub result_discard_crates: Vec<String>,
    /// Ratcheted allowlist for existing discard offenders: path prefix →
    /// max discard count (`[result_discard]` quoted-path entries). Any
    /// covered file not under one of these prefixes has an implicit
    /// ceiling of zero.
    pub result_discard_ratchet: BTreeMap<String, u64>,
    /// Coverage floor: `check-protocol` at its default depth must run at
    /// least this many schedules (`[model] protocol_min_schedules`). Only
    /// ever raised.
    pub protocol_min_schedules: u64,
    /// Coverage floor: `check-locks` must explore at least this many
    /// distinct schedules across its default configurations
    /// (`[model] lock_min_schedules`). Only ever raised.
    pub lock_min_schedules: u64,
    /// Coverage floor on canonical states explored
    /// (`[model] lock_min_states`).
    pub lock_min_states: u64,
}

impl Config {
    /// Parse the configuration from `lint.toml` text.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((ln, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let (key, mut value) = split_kv(&line, ln)?;
            // Multi-line array: keep consuming lines until the bracket closes.
            if value.starts_with('[') && !array_closed(&value) {
                for (_, cont) in lines.by_ref() {
                    value.push(' ');
                    value.push_str(strip_comment(cont).trim());
                    if array_closed(&value) {
                        break;
                    }
                }
            }
            apply(&mut cfg, &section, &key, &value, ln)?;
        }
        Ok(cfg)
    }

    /// Serialize the `[ratchet]` section body (used by `--update-ratchet`).
    pub fn ratchet_lines(counts: &BTreeMap<String, u64>) -> String {
        let mut out = String::new();
        for (k, v) in counts {
            out.push_str(&format!("\"{k}\" = {v}\n"));
        }
        out
    }
}

/// Strip a trailing `#` comment (not inside a quoted string).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Is a (possibly concatenated) array value bracket-balanced?
fn array_closed(value: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in value.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

/// Split `key = value`, unquoting the key if needed.
fn split_kv(line: &str, ln: usize) -> Result<(String, String), ConfigError> {
    // The `=` separating key and value is the first one outside quotes.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '=' if !in_str => {
                let key = line[..i].trim().trim_matches('"').to_string();
                let value = line[i + 1..].trim().to_string();
                if key.is_empty() || value.is_empty() {
                    return Err(ConfigError(format!("line {}: empty key or value", ln + 1)));
                }
                return Ok((key, value));
            }
            _ => {}
        }
    }
    Err(ConfigError(format!(
        "line {}: expected `key = value`, got `{line}`",
        ln + 1
    )))
}

/// Parse a `[ "a", "b" ]` array value into its string elements.
fn parse_str_array(value: &str, ln: usize) -> Result<Vec<String>, ConfigError> {
    let inner = value
        .trim()
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| ConfigError(format!("line {}: expected an array", ln + 1)))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        let s = part
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| {
                ConfigError(format!(
                    "line {}: array element `{part}` not quoted",
                    ln + 1
                ))
            })?;
        out.push(s.to_string());
    }
    Ok(out)
}

fn apply(
    cfg: &mut Config,
    section: &str,
    key: &str,
    value: &str,
    ln: usize,
) -> Result<(), ConfigError> {
    match (section, key) {
        ("wall_clock", "banned") => cfg.wall_clock_banned = parse_str_array(value, ln)?,
        ("wall_clock", "allow") => cfg.wall_clock_allow = parse_str_array(value, ln)?,
        ("protocol_enums", "names") => cfg.protocol_enums = parse_str_array(value, ln)?,
        ("ratchet", path) => {
            let n: u64 = value.parse().map_err(|_| {
                ConfigError(format!(
                    "line {}: ratchet value for `{path}` is not an integer",
                    ln + 1
                ))
            })?;
            cfg.ratchet.insert(path.to_string(), n);
        }
        ("result_discard", "crates") => cfg.result_discard_crates = parse_str_array(value, ln)?,
        ("result_discard", path) => {
            let n: u64 = value.parse().map_err(|_| {
                ConfigError(format!(
                    "line {}: result_discard ceiling for `{path}` is not an integer",
                    ln + 1
                ))
            })?;
            cfg.result_discard_ratchet.insert(path.to_string(), n);
        }
        ("model", "protocol_min_schedules" | "lock_min_schedules" | "lock_min_states") => {
            let floor = value
                .parse()
                .map_err(|_| ConfigError(format!("line {}: {key} is not an integer", ln + 1)))?;
            match key {
                "protocol_min_schedules" => cfg.protocol_min_schedules = floor,
                "lock_min_schedules" => cfg.lock_min_schedules = floor,
                _ => cfg.lock_min_states = floor,
            }
        }
        _ => {
            return Err(ConfigError(format!(
                "line {}: unknown key `{key}` in section `[{section}]`",
                ln + 1
            )))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_shape() {
        let cfg = Config::parse(
            r#"
# comment
[wall_clock]
banned = ["Instant", "SystemTime"]
allow = ["crates/bench/src/wall_clock.rs"]

[protocol_enums]
names = [
    "DpRequest",
    "DpReply", # trailing comment
]

[ratchet]
"crates/msg" = 0
"crates/dp/src/protocol.rs" = 0
"crates/btree" = 27
"#,
        )
        .map_err(|e| e.to_string())
        .unwrap();
        assert_eq!(cfg.wall_clock_banned, vec!["Instant", "SystemTime"]);
        assert_eq!(cfg.protocol_enums, vec!["DpRequest", "DpReply"]);
        assert_eq!(cfg.ratchet.get("crates/msg"), Some(&0));
        assert_eq!(cfg.ratchet.get("crates/btree"), Some(&27));
    }

    #[test]
    fn parses_result_discard_and_model_sections() {
        let cfg = Config::parse(
            r#"
[result_discard]
crates = ["crates/msg", "crates/dp"]
"crates/dp/src/lib.rs" = 5

[model]
protocol_min_schedules = 22454
lock_min_schedules = 10000
lock_min_states = 1200
"#,
        )
        .map_err(|e| e.to_string())
        .unwrap();
        assert_eq!(cfg.result_discard_crates, vec!["crates/msg", "crates/dp"]);
        assert_eq!(
            cfg.result_discard_ratchet.get("crates/dp/src/lib.rs"),
            Some(&5)
        );
        assert_eq!(cfg.protocol_min_schedules, 22454);
        assert_eq!(cfg.lock_min_schedules, 10000);
        assert_eq!(cfg.lock_min_states, 1200);
    }

    #[test]
    fn rejects_unknown_keys_and_bad_ints() {
        assert!(Config::parse("[wall_clock]\nnope = 3\n").is_err());
        assert!(Config::parse("[ratchet]\n\"x\" = yes\n").is_err());
        assert!(Config::parse("just garbage\n").is_err());
    }
}
