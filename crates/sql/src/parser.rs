//! Recursive-descent parser for the SQL dialect.

use crate::ast::*;
use crate::lexer::{lex, LexError, Token};
use nsql_records::{ArithOp, CmpOp, FieldType, Value};

/// Parse errors.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.to_string(),
        }
    }
}

/// Parse one statement (a trailing semicolon is allowed).
pub fn parse(input: &str) -> Result<Statement, ParseError> {
    Parser::new(input, None)?.finish()
}

/// Parse a statement's *template*: every literal read as an expression
/// becomes the [`AstExpr::Param`] numbered by its place among the text's
/// literals, so the template serves every text of the same shape. Fails
/// where a literal is read as syntax (a `LIKE` pattern), and for DDL, which
/// runs once and whose CHECK expressions the catalog binds, not the planner.
pub(crate) fn template(input: &str) -> Result<Statement, ParseError> {
    Parser::new(input, Some(Vec::new()))?.finish()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Template mode: one entry per lifted literal, `true` for a string
    /// (whose negation is `0 - 'x'`, not a folded literal).
    params: Option<Vec<bool>>,
}

fn err(message: String) -> ParseError {
    ParseError { message }
}

/// How an error names the token it found.
fn desc(t: Option<&Token>) -> String {
    t.map_or("<end>".into(), |t| t.to_string())
}

fn expected(what: impl std::fmt::Display, found: Option<&Token>) -> ParseError {
    err(format!("expected {what}, found {}", desc(found)))
}

/// An integer literal's value: `Int` when it fits, `LargeInt` otherwise.
pub(crate) fn int_value(n: i64) -> Value {
    if n.abs() <= i32::MAX as i64 {
        Value::Int(n as i32)
    } else {
        Value::LargeInt(n)
    }
}

/// `-v` for a numeric literal, as the parser folds a negated one; any other
/// value is returned unchanged.
pub(crate) fn negate(v: Value) -> Value {
    match v {
        Value::Int(n) => Value::Int(-n),
        Value::LargeInt(n) => Value::LargeInt(-n),
        Value::Double(x) => Value::Double(-x),
        other => other,
    }
}

impl Parser {
    fn new(input: &str, params: Option<Vec<bool>>) -> Result<Parser, ParseError> {
        Ok(Parser {
            tokens: lex(input)?,
            pos: 0,
            params,
        })
    }

    fn finish(mut self) -> Result<Statement, ParseError> {
        let stmt = self.statement()?;
        self.eat_if(&Token::Semi);
        if self.pos != self.tokens.len() {
            return Err(err(format!("trailing input at token {}", self.peek_desc())));
        }
        Ok(stmt)
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_desc(&self) -> String {
        desc(self.peek())
    }

    fn next(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_if(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat_if(t) {
            Ok(())
        } else {
            Err(expected(t, self.peek()))
        }
    }

    /// Consume a specific keyword.
    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.kw_if(kw) {
            Ok(())
        } else {
            Err(expected(kw, self.peek()))
        }
    }

    /// Consume the keyword if present.
    fn kw_if(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s.clone()),
            other => Err(expected("identifier", other)),
        }
    }

    /// A table name in FROM/INTO position: a bare identifier, or a dotted
    /// `schema.table` pair (used by the `sys.*` introspection schema).
    fn table_name(&mut self) -> Result<String, ParseError> {
        let first = self.ident()?;
        if self.eat_if(&Token::Dot) {
            let second = self.ident()?;
            Ok(format!("{first}.{second}"))
        } else {
            Ok(first)
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        match self.peek() {
            Some(Token::Ident(kw))
                if self.params.is_some() && matches!(kw.as_str(), "CREATE" | "DROP") =>
            {
                Err(err(format!("{kw} is not templated")))
            }
            Some(Token::Ident(kw)) => match kw.as_str() {
                "EXPLAIN" => {
                    self.keyword("EXPLAIN")?;
                    if self.kw_if("ANALYZE") {
                        Ok(Statement::ExplainAnalyze(Box::new(self.statement()?)))
                    } else {
                        Ok(Statement::Explain(Box::new(self.statement()?)))
                    }
                }
                "SELECT" => self.select().map(Statement::Select),
                "INSERT" => self.insert().map(Statement::Insert),
                "UPDATE" => self.update().map(Statement::Update),
                "DELETE" => self.delete().map(Statement::Delete),
                "CREATE" => self.create(),
                "DROP" => {
                    self.keyword("DROP")?;
                    self.keyword("TABLE")?;
                    Ok(Statement::DropTable(self.ident()?))
                }
                "BEGIN" => {
                    self.keyword("BEGIN")?;
                    self.kw_if("WORK");
                    Ok(Statement::Begin)
                }
                "COMMIT" => {
                    self.keyword("COMMIT")?;
                    self.kw_if("WORK");
                    Ok(Statement::Commit)
                }
                "ROLLBACK" => {
                    self.keyword("ROLLBACK")?;
                    self.kw_if("WORK");
                    Ok(Statement::Rollback)
                }
                other => Err(err(format!("unknown statement {other}"))),
            },
            _ => Err(err("empty statement".into())),
        }
    }

    // ---------------- SELECT ----------------

    fn select(&mut self) -> Result<Select, ParseError> {
        self.keyword("SELECT")?;
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        self.keyword("FROM")?;
        let mut from = Vec::new();
        loop {
            let table = self.table_name()?;
            let alias = match self.peek() {
                Some(Token::Ident(s)) if !is_clause_keyword(s) => Some(self.ident()?),
                _ => None,
            };
            from.push(TableRef { table, alias });
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        let where_clause = if self.kw_if("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.kw_if("GROUP") {
            self.keyword("BY")?;
            loop {
                group_by.push(self.column_ref()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.kw_if("ORDER") {
            self.keyword("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.kw_if("DESC") {
                    true
                } else {
                    self.kw_if("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }
        // Extension: `FOR BROWSE RECORD ACCESS` forces the old record-at-a-
        // time interface (experiment support).
        let mut for_browse = false;
        if self.kw_if("FOR") {
            self.keyword("BROWSE")?;
            self.kw_if("RECORD");
            self.kw_if("ACCESS");
            for_browse = true;
        }
        Ok(Select {
            items,
            from,
            where_clause,
            group_by,
            order_by,
            for_browse,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.eat_if(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // Aggregate?
        if let Some(Token::Ident(name)) = self.peek() {
            let func = match name.as_str() {
                "COUNT" => Some(AggFunc::Count),
                "SUM" => Some(AggFunc::Sum),
                "AVG" => Some(AggFunc::Avg),
                "MIN" => Some(AggFunc::Min),
                "MAX" => Some(AggFunc::Max),
                _ => None,
            };
            if let Some(func) = func {
                if self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                    self.pos += 2; // name (
                    let expr = if self.eat_if(&Token::Star) {
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect(&Token::RParen)?;
                    let alias = self.alias_opt()?;
                    return Ok(SelectItem::Aggregate { func, expr, alias });
                }
            }
        }
        let expr = self.expr()?;
        let alias = self.alias_opt()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn alias_opt(&mut self) -> Result<Option<String>, ParseError> {
        if self.kw_if("AS") {
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
    }

    fn column_ref(&mut self) -> Result<ColumnRef, ParseError> {
        let first = self.ident()?;
        if self.eat_if(&Token::Dot) {
            Ok(ColumnRef {
                qualifier: Some(first),
                column: self.ident()?,
            })
        } else {
            Ok(ColumnRef {
                qualifier: None,
                column: first,
            })
        }
    }

    // ---------------- expressions ----------------

    /// expr := or_term (OR or_term)*
    fn expr(&mut self) -> Result<AstExpr, ParseError> {
        let mut lhs = self.and_term()?;
        while self.kw_if("OR") {
            let rhs = self.and_term()?;
            lhs = AstExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_term(&mut self) -> Result<AstExpr, ParseError> {
        let mut lhs = self.not_term()?;
        while self.kw_if("AND") {
            let rhs = self.not_term()?;
            lhs = AstExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_term(&mut self) -> Result<AstExpr, ParseError> {
        if self.kw_if("NOT") {
            Ok(AstExpr::Not(Box::new(self.not_term()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<AstExpr, ParseError> {
        let lhs = self.additive()?;
        // IS [NOT] NULL
        if self.kw_if("IS") {
            let negated = self.kw_if("NOT");
            self.keyword("NULL")?;
            return Ok(AstExpr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        // [NOT] BETWEEN / IN / LIKE
        let negated = self.kw_if("NOT");
        if self.kw_if("BETWEEN") {
            let lo = self.additive()?;
            self.keyword("AND")?;
            let hi = self.additive()?;
            let b = AstExpr::Between {
                expr: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
            };
            return Ok(if negated {
                AstExpr::Not(Box::new(b))
            } else {
                b
            });
        }
        if self.kw_if("IN") {
            self.expect(&Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.additive()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            let e = AstExpr::InList(Box::new(lhs), list);
            return Ok(if negated {
                AstExpr::Not(Box::new(e))
            } else {
                e
            });
        }
        if self.kw_if("LIKE") {
            // The pattern is syntax, compiled as it stands: not liftable.
            let lifting = self.params.is_some();
            let pat = match self.next() {
                Some(Token::Str(s)) if !lifting => s.clone(),
                other => {
                    return Err(err(format!(
                        "LIKE requires a string literal, found {}",
                        desc(other)
                    )))
                }
            };
            let e = AstExpr::Like(Box::new(lhs), pat);
            return Ok(if negated {
                AstExpr::Not(Box::new(e))
            } else {
                e
            });
        }
        if negated {
            return Err(err("NOT must be followed by BETWEEN, IN or LIKE".into()));
        }
        let op = match self.peek() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.additive()?;
        Ok(AstExpr::Cmp(Box::new(lhs), op, Box::new(rhs)))
    }

    fn additive(&mut self) -> Result<AstExpr, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => ArithOp::Add,
                Some(Token::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.multiplicative()?;
            lhs = AstExpr::Arith(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<AstExpr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => ArithOp::Mul,
                Some(Token::Slash) => ArithOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = AstExpr::Arith(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<AstExpr, ParseError> {
        if self.eat_if(&Token::Minus) {
            // Constant-fold negative literals; general negation otherwise.
            let inner = self.unary()?;
            return Ok(match inner {
                AstExpr::Lit(v @ (Value::Int(_) | Value::LargeInt(_) | Value::Double(_))) => {
                    AstExpr::Lit(negate(v))
                }
                AstExpr::Param { index, neg } if !self.string_param(index) => {
                    AstExpr::Param { index, neg: !neg }
                }
                other => AstExpr::Arith(
                    Box::new(AstExpr::Lit(Value::Int(0))),
                    ArithOp::Sub,
                    Box::new(other),
                ),
            });
        }
        if self.eat_if(&Token::Plus) {
            return self.unary();
        }
        self.primary()
    }

    /// Is lifted literal `index` a string?
    fn string_param(&self, index: usize) -> bool {
        self.params
            .as_ref()
            .is_some_and(|p| p.get(index) == Some(&true))
    }

    fn primary(&mut self) -> Result<AstExpr, ParseError> {
        let string = match self.peek() {
            Some(Token::Int(_) | Token::Float(_)) => Some(false),
            Some(Token::Str(_)) => Some(true),
            _ => None,
        };
        if let (Some(string), Some(params)) = (string, &mut self.params) {
            self.pos += 1;
            params.push(string);
            return Ok(AstExpr::Param {
                index: params.len() - 1,
                neg: false,
            });
        }
        match self.next() {
            Some(Token::Int(n)) => Ok(AstExpr::Lit(int_value(*n))),
            Some(Token::Float(x)) => Ok(AstExpr::Lit(Value::Double(*x))),
            Some(Token::Str(s)) => Ok(AstExpr::Lit(Value::Str(s.clone()))),
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                if name == "NULL" {
                    return Ok(AstExpr::Lit(Value::Null));
                }
                let name = name.clone();
                if self.eat_if(&Token::Dot) {
                    let column = self.ident()?;
                    Ok(AstExpr::Column(ColumnRef {
                        qualifier: Some(name),
                        column,
                    }))
                } else {
                    Ok(AstExpr::Column(ColumnRef {
                        qualifier: None,
                        column: name,
                    }))
                }
            }
            other => Err(expected("expression", other)),
        }
    }

    // ---------------- INSERT / UPDATE / DELETE ----------------

    fn insert(&mut self) -> Result<Insert, ParseError> {
        self.keyword("INSERT")?;
        self.keyword("INTO")?;
        let table = self.table_name()?;
        let mut columns = Vec::new();
        if self.eat_if(&Token::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        self.keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            rows.push(row);
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        Ok(Insert {
            table,
            columns,
            rows,
        })
    }

    fn update(&mut self) -> Result<Update, ParseError> {
        self.keyword("UPDATE")?;
        let table = self.table_name()?;
        self.keyword("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&Token::Eq)?;
            let value = self.expr()?;
            sets.push((col, value));
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        let where_clause = if self.kw_if("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Update {
            table,
            sets,
            where_clause,
        })
    }

    fn delete(&mut self) -> Result<Delete, ParseError> {
        self.keyword("DELETE")?;
        self.keyword("FROM")?;
        let table = self.table_name()?;
        let where_clause = if self.kw_if("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Delete {
            table,
            where_clause,
        })
    }

    // ---------------- DDL ----------------

    fn create(&mut self) -> Result<Statement, ParseError> {
        self.keyword("CREATE")?;
        if self.kw_if("TABLE") {
            return self.create_table().map(Statement::CreateTable);
        }
        let unique = self.kw_if("UNIQUE");
        self.keyword("INDEX")?;
        let name = self.ident()?;
        self.keyword("ON")?;
        let table = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.ident()?);
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        let volume = if self.kw_if("ON") {
            Some(self.volume()?)
        } else {
            None
        };
        Ok(Statement::CreateIndex(CreateIndex {
            name,
            table,
            columns,
            unique,
            volume,
        }))
    }

    fn create_table(&mut self) -> Result<CreateTable, ParseError> {
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        let mut checks = Vec::new();
        loop {
            if self.kw_if("PRIMARY") {
                self.keyword("KEY")?;
                self.expect(&Token::LParen)?;
                loop {
                    primary_key.push(self.ident()?);
                    if !self.eat_if(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            } else if self.kw_if("CHECK") {
                self.expect(&Token::LParen)?;
                checks.push(self.expr()?);
                self.expect(&Token::RParen)?;
            } else {
                let col_name = self.ident()?;
                let ty = self.data_type()?;
                let mut not_null = false;
                if self.kw_if("NOT") {
                    self.keyword("NULL")?;
                    not_null = true;
                }
                columns.push(ColumnDef {
                    name: col_name,
                    ty,
                    not_null,
                });
            }
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        let partition = if self.kw_if("PARTITION") {
            self.keyword("BY")?;
            self.keyword("VALUES")?;
            self.expect(&Token::LParen)?;
            let mut splits = Vec::new();
            loop {
                splits.push(match self.next() {
                    Some(Token::Int(n)) => Value::Int(*n as i32),
                    Some(Token::Float(x)) => Value::Double(*x),
                    Some(Token::Str(s)) => Value::Str(s.clone()),
                    other => return Err(expected("split literal", other)),
                });
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            self.keyword("ON")?;
            self.expect(&Token::LParen)?;
            let mut volumes = Vec::new();
            loop {
                volumes.push(self.volume()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            if volumes.len() != splits.len() + 1 {
                return Err(err(format!(
                    "partitioning needs {} volumes for {} splits",
                    splits.len() + 1,
                    splits.len()
                )));
            }
            Some(PartitionClause { splits, volumes })
        } else if self.kw_if("ON") {
            Some(PartitionClause {
                splits: Vec::new(),
                volumes: vec![self.volume()?],
            })
        } else {
            None
        };
        if primary_key.is_empty() {
            return Err(err(format!("table {name} needs a PRIMARY KEY")));
        }
        Ok(CreateTable {
            name,
            columns,
            primary_key,
            checks,
            partition,
        })
    }

    fn data_type(&mut self) -> Result<FieldType, ParseError> {
        let name = self.ident()?;
        match name.as_str() {
            "SMALLINT" => Ok(FieldType::SmallInt),
            "INT" | "INTEGER" => Ok(FieldType::Int),
            "LARGEINT" | "BIGINT" => Ok(FieldType::LargeInt),
            "DOUBLE" => {
                self.kw_if("PRECISION");
                Ok(FieldType::Double)
            }
            "FLOAT" | "REAL" => Ok(FieldType::Double),
            "CHAR" | "CHARACTER" => {
                self.expect(&Token::LParen)?;
                let n = self.int_literal()?;
                self.expect(&Token::RParen)?;
                Ok(FieldType::Char(n as u16))
            }
            "VARCHAR" => {
                self.expect(&Token::LParen)?;
                let n = self.int_literal()?;
                self.expect(&Token::RParen)?;
                Ok(FieldType::Varchar(n as u16))
            }
            "NUMERIC" | "DECIMAL" => {
                // NUMERIC(p[,0]) maps onto LARGEINT in this reproduction.
                if self.eat_if(&Token::LParen) {
                    self.int_literal()?;
                    if self.eat_if(&Token::Comma) {
                        self.int_literal()?;
                    }
                    self.expect(&Token::RParen)?;
                }
                Ok(FieldType::LargeInt)
            }
            other => Err(err(format!("unknown data type {other}"))),
        }
    }

    fn int_literal(&mut self) -> Result<i64, ParseError> {
        match self.next() {
            Some(Token::Int(n)) => Ok(*n),
            other => Err(expected("integer", other)),
        }
    }

    fn volume(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Str(v)) => Ok(v.clone()),
            other => Err(expected("volume name string", other)),
        }
    }
}

fn is_clause_keyword(s: &str) -> bool {
    matches!(
        s,
        "WHERE" | "GROUP" | "ORDER" | "FOR" | "AND" | "OR" | "ON" | "SET" | "FROM"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_1_parses() {
        let stmt = parse("SELECT NAME, HIRE_DATE FROM EMP WHERE EMPNO <= 1000 AND SALARY > 32000;")
            .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from.len(), 1);
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn paper_example_3_parses() {
        let stmt = parse("UPDATE ACCOUNT SET BALANCE = BALANCE * 1.07 WHERE BALANCE > 0").unwrap();
        let Statement::Update(u) = stmt else { panic!() };
        assert_eq!(u.sets.len(), 1);
        assert_eq!(u.sets[0].0, "BALANCE");
        assert!(matches!(u.sets[0].1, AstExpr::Arith(..)));
    }

    #[test]
    fn create_table_with_partitioning() {
        let stmt = parse(
            "CREATE TABLE ACCOUNT (ACCTNO INT NOT NULL, BALANCE DOUBLE, \
             PRIMARY KEY (ACCTNO), CHECK (BALANCE >= 0)) \
             PARTITION BY VALUES (1000, 2000) ON ('$DATA1', '$DATA2', '$DATA3')",
        )
        .unwrap();
        let Statement::CreateTable(t) = stmt else {
            panic!()
        };
        assert_eq!(t.columns.len(), 2);
        assert!(t.columns[0].not_null);
        assert_eq!(t.primary_key, vec!["ACCTNO"]);
        assert_eq!(t.checks.len(), 1);
        let p = t.partition.unwrap();
        assert_eq!(p.splits.len(), 2);
        assert_eq!(p.volumes.len(), 3);
    }

    #[test]
    fn create_table_on_single_volume() {
        let stmt = parse("CREATE TABLE T (A INT NOT NULL, PRIMARY KEY (A)) ON '$DATA2'").unwrap();
        let Statement::CreateTable(t) = stmt else {
            panic!()
        };
        let p = t.partition.unwrap();
        assert!(p.splits.is_empty());
        assert_eq!(p.volumes, vec!["$DATA2"]);
    }

    #[test]
    fn create_index_variants() {
        let stmt = parse("CREATE UNIQUE INDEX I1 ON EMP (NAME) ON '$IDX'").unwrap();
        let Statement::CreateIndex(i) = stmt else {
            panic!()
        };
        assert!(i.unique);
        assert_eq!(i.volume.as_deref(), Some("$IDX"));
        let stmt = parse("CREATE INDEX I2 ON EMP (DEPT, SALARY)").unwrap();
        let Statement::CreateIndex(i) = stmt else {
            panic!()
        };
        assert!(!i.unique);
        assert_eq!(i.columns, vec!["DEPT", "SALARY"]);
    }

    #[test]
    fn insert_multi_row() {
        let stmt = parse("INSERT INTO T (A, B) VALUES (1, 'x'), (2, 'y''z'), (3, NULL)").unwrap();
        let Statement::Insert(i) = stmt else { panic!() };
        assert_eq!(i.columns, vec!["A", "B"]);
        assert_eq!(i.rows.len(), 3);
        assert_eq!(i.rows[1][1], AstExpr::Lit(Value::Str("y'z".into())));
        assert_eq!(i.rows[2][1], AstExpr::Lit(Value::Null));
    }

    #[test]
    fn operator_precedence() {
        // a + b * 2 > 10 AND c = 1 OR d = 2
        let stmt = parse("SELECT * FROM T WHERE A + B * 2 > 10 AND C = 1 OR D = 2").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let AstExpr::Or(lhs, _) = s.where_clause.unwrap() else {
            panic!("OR must be outermost");
        };
        let AstExpr::And(cmp, _) = *lhs else {
            panic!("AND binds tighter than OR");
        };
        let AstExpr::Cmp(add, CmpOp::Gt, _) = *cmp else {
            panic!("comparison below AND");
        };
        let AstExpr::Arith(_, ArithOp::Add, mul) = *add else {
            panic!("addition below comparison");
        };
        assert!(matches!(*mul, AstExpr::Arith(_, ArithOp::Mul, _)));
    }

    #[test]
    fn between_in_like_not() {
        let stmt = parse(
            "SELECT * FROM T WHERE A BETWEEN 1 AND 5 AND B IN (1,2,3) \
             AND NAME LIKE 'AL%' AND C NOT IN (9) AND D IS NOT NULL",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let mut found_between = false;
        let mut found_like = false;
        fn walk(e: &AstExpr, fb: &mut bool, fl: &mut bool) {
            match e {
                AstExpr::Between { .. } => *fb = true,
                AstExpr::Like(..) => *fl = true,
                AstExpr::And(a, b) | AstExpr::Or(a, b) => {
                    walk(a, fb, fl);
                    walk(b, fb, fl);
                }
                AstExpr::Not(a) => walk(a, fb, fl),
                _ => {}
            }
        }
        walk(
            &s.where_clause.unwrap(),
            &mut found_between,
            &mut found_like,
        );
        assert!(found_between && found_like);
    }

    #[test]
    fn aggregates_and_group_by() {
        let stmt = parse(
            "SELECT DEPT, COUNT(*), AVG(SALARY) AS AVGSAL FROM EMP GROUP BY DEPT ORDER BY DEPT DESC",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.items.len(), 3);
        assert!(matches!(
            s.items[1],
            SelectItem::Aggregate {
                func: AggFunc::Count,
                expr: None,
                ..
            }
        ));
        assert_eq!(s.group_by.len(), 1);
        assert!(s.order_by[0].desc);
    }

    #[test]
    fn join_with_aliases_and_qualified_columns() {
        let stmt =
            parse("SELECT E.NAME, D.DNAME FROM EMP E, DEPT D WHERE E.DEPTNO = D.DEPTNO").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[0].alias.as_deref(), Some("E"));
    }

    #[test]
    fn txn_control() {
        assert_eq!(parse("BEGIN WORK").unwrap(), Statement::Begin);
        assert_eq!(parse("COMMIT WORK;").unwrap(), Statement::Commit);
        assert_eq!(parse("ROLLBACK").unwrap(), Statement::Rollback);
    }

    #[test]
    fn negative_literals() {
        let stmt = parse("SELECT * FROM T WHERE A > -5 AND B = -1.5").unwrap();
        let Statement::Select(_) = stmt else { panic!() };
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("SELECT").is_err());
        assert!(parse("SELEC * FROM T").is_err());
        assert!(parse("SELECT * FROM T WHERE").is_err());
        assert!(
            parse("CREATE TABLE T (A INT)").is_err(),
            "missing primary key"
        );
        assert!(parse("SELECT * FROM T extra garbage ,").is_err());
    }

    #[test]
    fn for_browse_extension() {
        let stmt = parse("SELECT * FROM EMP FOR BROWSE RECORD ACCESS").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert!(s.for_browse);
    }
}
