//! SQL lexer for the 1988-vintage dialect.

use std::fmt;

/// Lexical tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (upper-cased keywords are matched textually).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Float(f64),
    /// String literal (single quotes, `''` escape).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(n) => write!(f, "{n}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Semi => write!(f, ";"),
            Token::Dot => write!(f, "."),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
        }
    }
}

/// Lexing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for LexError {}

/// Tokenize a SQL string.
pub fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    Scanner::new(input)
        .map(|lexeme| lexeme.map(Lexeme::into_token))
        .collect()
}

/// One token as the scanner reads it, borrowed from the input: scanning
/// allocates nothing. [`lex`] turns each into an owned [`Token`]; the
/// statement cache reads a statement's shape and literals straight off it.
#[derive(Debug)]
pub(crate) enum Lexeme<'a> {
    /// Keyword or identifier as written: a bare one becomes its upper-cased
    /// token, a delimited one (`quoted`, quotes stripped) stays as is.
    Ident { text: &'a str, quoted: bool },
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Float(f64),
    /// String literal: the text between its quotes, `''` escapes still
    /// doubled, starting at byte `at` of the input.
    Str { body: &'a str, at: usize },
    /// Punctuation or an operator: a [`Token`] that carries no text.
    Punct(Token),
}

impl Lexeme<'_> {
    fn into_token(self) -> Token {
        match self {
            Lexeme::Ident {
                text,
                quoted: false,
            } => Token::Ident(text.to_ascii_uppercase()),
            Lexeme::Ident { text, quoted: true } => Token::Ident(text.to_string()),
            Lexeme::Int(n) => Token::Int(n),
            Lexeme::Float(x) => Token::Float(x),
            Lexeme::Str { body, .. } => Token::Str(unescape(body)),
            Lexeme::Punct(t) => t,
        }
    }
}

/// A string literal's value from its body: `''` is one quote, and every
/// other byte is the character of that code point.
pub(crate) fn unescape(body: &str) -> String {
    let mut s = String::with_capacity(body.len());
    let mut bytes = body.bytes();
    while let Some(b) = bytes.next() {
        if b == b'\'' {
            bytes.next();
        }
        s.push(b as char);
    }
    s
}

/// The lexer's scanner: yields one [`Lexeme`] per token, or the error that
/// stops the scan.
pub(crate) struct Scanner<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Scanner { input, pos: 0 }
    }

    fn punct(&mut self, token: Token, len: usize) -> Lexeme<'a> {
        self.pos += len;
        Lexeme::Punct(token)
    }
}

impl<'a> Iterator for Scanner<'a> {
    type Item = Result<Lexeme<'a>, LexError>;

    fn next(&mut self) -> Option<Self::Item> {
        let input = self.input;
        let bytes = input.as_bytes();
        let mut i = self.pos;
        // Whitespace and SQL comments (to end of line).
        loop {
            match bytes.get(i) {
                Some(b' ' | b'\t' | b'\r' | b'\n') => i += 1,
                Some(b'-') if bytes.get(i + 1) == Some(&b'-') => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                }
                Some(_) => break,
                None => {
                    self.pos = i;
                    return None;
                }
            }
        }
        self.pos = i;
        let c = bytes[i] as char;
        Some(Ok(match c {
            '(' => self.punct(Token::LParen, 1),
            ')' => self.punct(Token::RParen, 1),
            ',' => self.punct(Token::Comma, 1),
            ';' => self.punct(Token::Semi, 1),
            '.' => self.punct(Token::Dot, 1),
            '*' => self.punct(Token::Star, 1),
            '+' => self.punct(Token::Plus, 1),
            '-' => self.punct(Token::Minus, 1),
            '/' => self.punct(Token::Slash, 1),
            '=' => self.punct(Token::Eq, 1),
            '!' if bytes.get(i + 1) == Some(&b'=') => self.punct(Token::Ne, 2),
            '<' => match bytes.get(i + 1) {
                Some(b'=') => self.punct(Token::Le, 2),
                Some(b'>') => self.punct(Token::Ne, 2),
                _ => self.punct(Token::Lt, 1),
            },
            '>' if bytes.get(i + 1) == Some(&b'=') => self.punct(Token::Ge, 2),
            '>' => self.punct(Token::Gt, 1),
            '\'' => {
                let at = i + 1;
                i = at;
                loop {
                    match bytes.get(i) {
                        None => {
                            self.pos = bytes.len();
                            return Some(Err(LexError {
                                message: "unterminated string literal".into(),
                                at: i,
                            }));
                        }
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => i += 2,
                        Some(b'\'') => break,
                        Some(_) => i += 1,
                    }
                }
                self.pos = i + 1;
                Lexeme::Str {
                    body: &input[at..i],
                    at,
                }
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    is_float = true;
                    i += 1;
                    if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                        i += 1;
                    }
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                self.pos = i;
                let text = &input[start..i];
                let parsed = if is_float {
                    text.parse().map(Lexeme::Float).map_err(|_| LexError {
                        message: format!("bad numeric literal {text}"),
                        at: start,
                    })
                } else {
                    text.parse().map(Lexeme::Int).map_err(|_| LexError {
                        message: format!("bad integer literal {text}"),
                        at: start,
                    })
                };
                return Some(parsed);
            }
            '"' => {
                // Delimited identifier.
                let start = i + 1;
                i = start;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += 1;
                }
                if i >= bytes.len() {
                    self.pos = bytes.len();
                    return Some(Err(LexError {
                        message: "unterminated delimited identifier".into(),
                        at: start,
                    }));
                }
                self.pos = i + 1;
                Lexeme::Ident {
                    text: &input[start..i],
                    quoted: true,
                }
            }
            'a'..='z' | 'A'..='Z' | '_' | '$' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'$'
                        || bytes[i] == b'^')
                {
                    i += 1;
                }
                self.pos = i;
                Lexeme::Ident {
                    text: &input[start..i],
                    quoted: false,
                }
            }
            other => {
                self.pos = bytes.len();
                return Some(Err(LexError {
                    message: format!("unexpected character {other:?}"),
                    at: i,
                }));
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_uppercase_and_symbols() {
        let toks = lex("select Name, hire_date from EMP where empno <= 1000;").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert_eq!(toks[1], Token::Ident("NAME".into()));
        assert_eq!(toks[2], Token::Comma);
        assert!(toks.contains(&Token::Le));
        assert_eq!(*toks.last().unwrap(), Token::Semi);
    }

    #[test]
    fn numbers_and_strings() {
        let toks = lex("VALUES (42, 1.07, -3, 'O''BRIEN', 2e3)").unwrap();
        assert!(toks.contains(&Token::Int(42)));
        assert!(toks.contains(&Token::Float(1.07)));
        assert!(toks.contains(&Token::Minus));
        assert!(toks.contains(&Token::Str("O'BRIEN".into())));
        assert!(toks.contains(&Token::Float(2000.0)));
    }

    #[test]
    fn comparison_operators() {
        let toks = lex("a <> b != c <= d >= e < f > g = h").unwrap();
        let ops: Vec<&Token> = toks
            .iter()
            .filter(|t| !matches!(t, Token::Ident(_)))
            .collect();
        assert_eq!(
            ops,
            vec![
                &Token::Ne,
                &Token::Ne,
                &Token::Le,
                &Token::Ge,
                &Token::Lt,
                &Token::Gt,
                &Token::Eq
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = lex("SELECT -- the fields\n NAME").unwrap();
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn errors_carry_position() {
        let err = lex("SELECT ~").unwrap_err();
        assert_eq!(err.at, 7);
        assert!(lex("'open").is_err());
    }

    #[test]
    fn volume_names_lex() {
        let toks = lex("ON '$DATA1'").unwrap();
        assert_eq!(toks[1], Token::Str("$DATA1".into()));
    }
}
