//! The statement cache: each statement *shape* is parsed once.
//!
//! In the paper the SQL compiler turns a statement into a plan once and the
//! Executor's File System calls are "mandated by the plan". Here one scan of
//! a statement's text — the lexer's own [`Scanner`] — yields its *shape*
//! (the token sequence, each literal replaced by a marker of its kind) and
//! its literal values. The first text of a shape is parsed into a
//! *template* whose literals are [`AstExpr::Param`]s; from then on every
//! text of that shape is planned from the template against the live
//! catalog, the binder putting in the text's own literals.
//!
//! The syntax tree is cached, not the plan. A plan derived from the catalog
//! as it is now needs no invalidation when DDL changes a table, and the
//! parts of a plan that depend on the literals — predicate, set-list, key
//! range — would have to be built again for each text anyway.
//!
//! [`AstExpr::Param`]: crate::ast::AstExpr::Param

use crate::ast::Statement;
use crate::bind::{Lit, Params};
use crate::catalog::Catalog;
use crate::lexer::{LexError, Lexeme, Scanner};
use crate::parser::{parse, template};
use crate::plan::{plan, plan_with, Plan, PlanError};
use nsql_sim::sync::Mutex;
use std::collections::HashMap;
use std::fmt::Write;

/// Shapes kept before the cache starts again empty.
const SHAPES: usize = 256;

/// A cluster's statement cache, shared by its sessions.
pub struct StatementCache {
    shapes: Mutex<Shapes>,
}

struct Shapes {
    /// The template of each shape seen; `None` for a shape that does not
    /// template (DDL, a `LIKE` pattern), which is parsed as written.
    templates: HashMap<String, Option<Statement>>,
    /// The shape of the statement at hand; the buffer is reused.
    key: String,
    /// Its literals, in text order; the buffer is reused.
    lits: Vec<Lit>,
}

impl Default for StatementCache {
    fn default() -> Self {
        StatementCache {
            shapes: Mutex::new(Shapes {
                templates: HashMap::new(),
                key: String::new(),
                lits: Vec::new(),
            }),
        }
    }
}

impl StatementCache {
    /// Plan one statement text against the catalog: from its shape's
    /// template when it has one, otherwise as `plan(catalog, parse(sql)?)`.
    /// Any failure on the cached path — a scan, template or bind error —
    /// falls back to the latter, so errors read as they always did.
    pub fn plan(&self, catalog: &Catalog, sql: &str) -> Result<Plan, PlanError> {
        if let Some(planned) = self.plan_cached(catalog, sql) {
            return Ok(planned);
        }
        plan(catalog, parse(sql)?)
    }

    fn plan_cached(&self, catalog: &Catalog, sql: &str) -> Option<Plan> {
        // Held while planning, which reads only the catalog, so the scan's
        // buffers serve every statement.
        let mut shapes = self.shapes.lock();
        let Shapes {
            templates,
            key,
            lits,
        } = &mut *shapes;
        scan(sql, key, lits).ok()?;
        let params = Params::new(sql, lits);
        match templates.get(key.as_str()) {
            Some(t) => plan_with(catalog, t.as_ref()?, &params).ok(),
            None => {
                let t = template(sql).ok();
                let planned = t.as_ref().and_then(|t| plan_with(catalog, t, &params).ok());
                if templates.len() >= SHAPES {
                    templates.clear();
                }
                templates.insert(key.clone(), t);
                planned
            }
        }
    }
}

/// Scan `sql` into its shape `key` and its literals. Two texts share a key
/// only if their tokens are equal but for the literals' values: an
/// identifier is written `"TEXT"` (a bare one upper-cased, as its token
/// is), a numeric literal `#`, a string literal `'` (`-'x'` parses
/// differently from `-1`), punctuation a space and its text.
fn scan(sql: &str, key: &mut String, lits: &mut Vec<Lit>) -> Result<(), LexError> {
    key.clear();
    lits.clear();
    for lexeme in Scanner::new(sql) {
        match lexeme? {
            Lexeme::Ident { text, quoted } => {
                key.push('"');
                if quoted {
                    key.push_str(text);
                } else {
                    key.extend(text.chars().map(|c| c.to_ascii_uppercase()));
                }
                key.push('"');
            }
            Lexeme::Int(n) => {
                key.push('#');
                lits.push(Lit::Int(n));
            }
            Lexeme::Float(x) => {
                key.push('#');
                lits.push(Lit::Float(x));
            }
            Lexeme::Str { body, at } => {
                key.push('\'');
                lits.push(Lit::Str {
                    at,
                    len: body.len(),
                });
            }
            // Writing to a `String` cannot fail.
            Lexeme::Punct(t) => write!(key, " {t}").unwrap_or(()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sql: &str) -> String {
        let (mut key, mut lits) = (String::new(), Vec::new());
        scan(sql, &mut key, &mut lits).unwrap();
        key
    }

    #[test]
    fn a_shape_is_the_tokens_less_the_literal_values() {
        assert_eq!(key("select a from t"), key("SELECT A FROM T"));
        assert_eq!(key("A = 1"), key("A = 2.5e3"));
        assert_ne!(key("A = 1"), key("A = '1'"));
        // Delimited identifiers keep their case, as their tokens do.
        assert_ne!(key("\"a\" = 1"), key("A = 1"));
        assert_eq!(key("\"A\" = 1"), key("A = 1"));
        // Token boundaries are part of the shape.
        assert_ne!(key("A <= 1"), key("A < = 1"));
        assert_ne!(key("AB C"), key("A BC"));
        assert_ne!(key("\"(X\""), key("(X"));
    }

    #[test]
    fn the_scan_records_each_literal_in_text_order() {
        let (mut key, mut lits) = (String::new(), Vec::new());
        scan("V = 'O''B' AND I IN (7, 2.5)", &mut key, &mut lits).unwrap();
        assert_eq!(
            lits,
            [Lit::Str { at: 5, len: 4 }, Lit::Int(7), Lit::Float(2.5)]
        );
    }
}
