//! The one SQL front end: a spanned lexer and a recursive-descent parser
//! for plain SQL and the declarative **ESTIMATE dialect**, producing one
//! [`Statement`]. Durability statements compile to the typed
//! [`mlss_core::spec::QuerySpec`] IR; plain statements to the engine's
//! [`Expr`] trees.
//!
//! Grammar (keywords case-insensitive, `--` starts a line comment):
//!
//! ```text
//! statement   := (select | insert | create | delete | drop
//!                | ESTIMATE estimate | EXPLAIN ESTIMATE estimate
//!                | SHOW MODELS | SHOW DIAGNOSTICS) [';']
//! select      := SELECT projection FROM ident [WHERE expr]
//!                [ORDER BY ident [ASC | DESC]] [LIMIT integer]
//! projection  := '*' | aggregate '(' ('*' | ident) ')' | ident {',' ident}
//! aggregate   := COUNT | SUM | AVG | MIN | MAX      -- '*' only in COUNT
//! insert      := INSERT INTO ident VALUES row {',' row}
//! row         := '(' expr {',' expr} ')'            -- constant exprs
//! create      := CREATE TABLE ident '(' ident type [NULL]
//!                {',' ident type [NULL]} ')'
//! type        := INT | INTEGER | BIGINT | FLOAT | REAL | DOUBLE
//!              | TEXT | VARCHAR | STRING | BOOL | BOOLEAN
//! delete      := DELETE FROM ident [WHERE expr]
//! drop        := DROP TABLE ident
//! expr        := conj {OR conj}
//! conj        := neg {AND neg}
//! neg         := NOT neg | cmp
//! cmp         := sum [('=' | '<>' | '!=' | '<' | '<=' | '>' | '>=') sum]
//! sum         := term {('+' | '-') term}
//! term        := unary {('*' | '/') unary}
//! unary       := '-' unary | '(' expr ')' | INT | FLOAT | STRING
//!              | TRUE | FALSE | NULL | ident
//! estimate    := DURABILITY OF candidate {',' candidate} WITHIN integer
//!                [USING method_ref] TARGET RE number ['%']
//!                [RANK BY TOP integer ['(' assignments ')']]
//!                [WITH '(' options ')'] [ASYNC | SYNC]
//! candidate   := model_ref [SWEEP ident FROM number TO number STEP number]
//! model_ref   := ident ['(' assignments ')']     -- must include beta=…
//! method_ref  := ident ['(' assignments ')']     -- srs|smlss|mlss|gmlss|auto, levels=…
//! assignments := ident '=' number {',' ident '=' number}
//! options     := ident '=' (number | AUTO) {',' ident '=' (number | AUTO)}
//!                -- threads, batch_width, seed, priority;
//!                -- AUTO is valid only for batch_width
//! number      := ['-' | '+'] (INT | FLOAT)
//! STRING      := "'" {any character, '' for a quote} "'"
//! ```
//!
//! A statement with more than one candidate (an explicit list and/or a
//! `SWEEP` expansion) must carry a `RANK BY TOP k` clause: it parses to a
//! [`RankSpec`] raced under confidence-bound boundary elimination (see
//! `docs/ranking.md`). Ranking options: `confidence=` (0.5–1),
//! `rounds=` (round cap), `round_budget=` (per-arm `g` budget per round).
//! Swept values are rounded to the decimal places written in the `FROM`
//! and `STEP` literals, so `FROM 0.30 … STEP 0.04` yields exactly 0.34,
//! not `0.30 + 0.04` in binary floating point.
//!
//! The parser optionally validates against a catalog of
//! [`ModelSchema`]s, so unknown models, unknown parameters, and
//! out-of-range values are reported with the span of the offending
//! token; without a catalog those checks happen later in the dispatch
//! layer (spanless). Every failure — lexical, syntactic, or semantic,
//! plain SQL or dialect — is a typed [`SpecError`] carrying a byte span.

use crate::expr::{ArithOp, CmpOp, Expr};
use crate::table::Aggregate;
use crate::value::{DataType, Value};
use mlss_core::spec::{
    ExecMode, ExecOptions, Method, ModelSchema, QuerySpec, RankSpec, Span, SpecError,
    SpecErrorKind, DEFAULT_PLAN_LEVELS, MAX_RANK_ARMS,
};
use std::collections::BTreeMap;

/// A parsed statement: plain SQL or the ESTIMATE dialect.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT ...`
    Select(SelectStmt),
    /// `INSERT INTO t VALUES (...), (...)`
    Insert {
        /// Target table.
        table: String,
        /// Literal rows.
        rows: Vec<Vec<Value>>,
    },
    /// `CREATE TABLE t (col TYPE [NULL], ...)`
    CreateTable {
        /// Table name.
        table: String,
        /// Column definitions: (name, type, nullable).
        columns: Vec<(String, DataType, bool)>,
    },
    /// `DELETE FROM t [WHERE ...]`
    Delete {
        /// Target table.
        table: String,
        /// Optional predicate.
        predicate: Option<Expr>,
    },
    /// `DROP TABLE t`
    DropTable {
        /// Table name.
        table: String,
    },
    /// `ESTIMATE DURABILITY …` — run (or submit) the query.
    Estimate(QuerySpec),
    /// `EXPLAIN ESTIMATE DURABILITY …` — return the resolved plan as rows.
    ExplainEstimate(QuerySpec),
    /// `ESTIMATE DURABILITY … RANK BY TOP k` — race the candidate field.
    Rank(RankSpec),
    /// `EXPLAIN` over a ranking statement — the racing plan as rows.
    ExplainRank(RankSpec),
    /// `SHOW MODELS` — the model catalog with per-parameter schemas.
    ShowModels,
    /// `SHOW DIAGNOSTICS` — plan-cache, shard-store, and scheduler-pool
    /// counters as `(component, counter, value)` rows.
    ShowDiagnostics,
}

/// The projection of a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `*`
    All,
    /// Column names.
    Columns(Vec<String>),
    /// A single aggregate.
    Aggregate(Aggregate),
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// What to project.
    pub projection: Projection,
    /// Source table.
    pub table: String,
    /// Optional WHERE predicate.
    pub predicate: Option<Expr>,
    /// Optional ORDER BY (column, descending).
    pub order_by: Option<(String, bool)>,
    /// Optional LIMIT.
    pub limit: Option<usize>,
}

/// Parse one statement of either kind, without a model catalog (a
/// trailing `;` is allowed).
pub fn parse(sql: &str) -> Result<Statement, SpecError> {
    parse_with(sql, None)
}

/// Parse one statement of either kind. `catalog`, when given, validates
/// dialect model names, parameter names, and parameter ranges with spans.
pub fn parse_with(sql: &str, catalog: Option<&[&ModelSchema]>) -> Result<Statement, SpecError> {
    Parser::new(sql, catalog)?.finish(false)
}

/// Parse one dialect statement (`ESTIMATE`, `EXPLAIN`, `SHOW`): the same
/// parser as [`parse_with`], rejecting plain SQL at its first keyword.
pub fn parse_dialect(sql: &str, catalog: Option<&[&ModelSchema]>) -> Result<Statement, SpecError> {
    Parser::new(sql, catalog)?.finish(true)
}

/// Does this statement text start with a dialect keyword (`ESTIMATE`,
/// `EXPLAIN`, `SHOW`)? Lexes only the first token.
pub fn is_dialect(sql: &str) -> bool {
    matches!(
        Lexer { src: sql, pos: 0 }.next(),
        Some(Ok(t)) if t.kind == TokKind::Ident
            && ["ESTIMATE", "EXPLAIN", "SHOW"].iter().any(|k| t.text.eq_ignore_ascii_case(k))
    )
}

fn syntax(message: impl Into<String>, span: Span) -> SpecError {
    SpecError::at(
        SpecErrorKind::Syntax {
            message: message.into(),
        },
        span,
    )
}

// ---------------------------------------------------------------------
// Spanned lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum TokKind {
    /// Keyword or identifier (original case; keywords compare
    /// case-insensitively).
    Ident,
    /// Unsigned numeric literal, already validated as an `f64`.
    Number(f64),
    /// Single-quoted string literal (`text` keeps the quotes).
    Str,
    LParen,
    RParen,
    Comma,
    Semi,
    Percent,
    Plus,
    Minus,
    Star,
    Slash,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

#[derive(Debug, Clone, Copy)]
struct Tok<'s> {
    kind: TokKind,
    /// The token's source text.
    text: &'s str,
    span: Span,
}

/// Yields the tokens of `src` one at a time, skipping whitespace and
/// `--` line comments.
struct Lexer<'s> {
    src: &'s str,
    pos: usize,
}

impl<'s> Iterator for Lexer<'s> {
    type Item = Result<Tok<'s>, SpecError>;

    fn next(&mut self) -> Option<Self::Item> {
        let bytes = self.src.as_bytes();
        loop {
            match bytes.get(self.pos)? {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b'-' if bytes.get(self.pos + 1) == Some(&b'-') => {
                    while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let start = self.pos;
        let next_is = |b: u8| bytes.get(start + 1) == Some(&b);
        let (kind, len) = match bytes[start] {
            b'(' => (TokKind::LParen, 1),
            b')' => (TokKind::RParen, 1),
            b',' => (TokKind::Comma, 1),
            b';' => (TokKind::Semi, 1),
            b'%' => (TokKind::Percent, 1),
            b'+' => (TokKind::Plus, 1),
            b'-' => (TokKind::Minus, 1),
            b'*' => (TokKind::Star, 1),
            b'/' => (TokKind::Slash, 1),
            b'=' => (TokKind::Eq, 1),
            b'!' if next_is(b'=') => (TokKind::Ne, 2),
            b'<' if next_is(b'=') => (TokKind::Le, 2),
            b'<' if next_is(b'>') => (TokKind::Ne, 2),
            b'<' => (TokKind::Lt, 1),
            b'>' if next_is(b'=') => (TokKind::Ge, 2),
            b'>' => (TokKind::Gt, 1),
            b'\'' => return Some(self.string(start)),
            b'0'..=b'9' | b'.' => return Some(self.number(start)),
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let len = bytes[start..]
                    .iter()
                    .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
                    .count();
                (TokKind::Ident, len)
            }
            _ => {
                // Decode the real (possibly multi-byte) character so the
                // message shows it faithfully and the span stays on a
                // char boundary (consumers slice the statement by it).
                let other = self.src[start..].chars().next().expect("in-bounds byte");
                self.pos = bytes.len();
                return Some(Err(syntax(
                    format!("unexpected character '{other}'"),
                    Span::new(start, start + other.len_utf8()),
                )));
            }
        };
        Some(Ok(self.token(kind, start, start + len)))
    }
}

impl<'s> Lexer<'s> {
    fn token(&mut self, kind: TokKind, start: usize, end: usize) -> Tok<'s> {
        self.pos = end;
        Tok {
            kind,
            text: &self.src[start..end],
            span: Span::new(start, end),
        }
    }

    /// `digits ['.' digits] [('e' | 'E') ['+' | '-'] digits]`.
    fn number(&mut self, start: usize) -> Result<Tok<'s>, SpecError> {
        let bytes = self.src.as_bytes();
        let (mut i, mut saw_dot, mut saw_exp) = (start, false, false);
        while let Some(&b) = bytes.get(i) {
            if b.is_ascii_digit() {
                i += 1;
            } else if b == b'.' && !saw_dot && !saw_exp {
                saw_dot = true;
                i += 1;
            } else if (b == b'e' || b == b'E') && !saw_exp {
                saw_exp = true;
                i += 1;
                if matches!(bytes.get(i), Some(b'+' | b'-')) {
                    i += 1;
                }
            } else {
                break;
            }
        }
        let src = self.src;
        let text = &src[start..i];
        let value: f64 = text.parse().map_err(|_| {
            self.pos = bytes.len();
            syntax(format!("bad number '{text}'"), Span::new(start, i))
        })?;
        Ok(self.token(TokKind::Number(value), start, i))
    }

    /// A single-quoted literal; `''` inside it is an escaped quote.
    fn string(&mut self, start: usize) -> Result<Tok<'s>, SpecError> {
        let bytes = self.src.as_bytes();
        let mut i = start + 1;
        loop {
            match bytes.get(i) {
                None => {
                    self.pos = bytes.len();
                    return Err(syntax(
                        "unterminated string literal",
                        Span::new(start, bytes.len()),
                    ));
                }
                Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => i += 2,
                Some(b'\'') => return Ok(self.token(TokKind::Str, start, i + 1)),
                Some(_) => i += 1,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Recursive-descent parser
// ---------------------------------------------------------------------

struct Parser<'s, 'c> {
    src: &'s str,
    tokens: Vec<Tok<'s>>,
    pos: usize,
    catalog: Option<&'c [&'c ModelSchema]>,
}

/// A (possibly signed) numeric literal of the dialect.
#[derive(Debug, Clone, Copy)]
struct Lit<'s> {
    value: f64,
    /// The literal as written, sign included (a `seed` is reparsed from
    /// it losslessly; sweeps read its decimal places).
    text: &'s str,
    span: Span,
}

/// `(name, value)` pairs of an assignment list, in written order.
type Assignments<'s> = Vec<(Tok<'s>, Lit<'s>)>;

impl<'s, 'c> Parser<'s, 'c> {
    /// Lex the whole statement up front, so a lexical error anywhere
    /// wins over a syntax error before it.
    fn new(src: &'s str, catalog: Option<&'c [&'c ModelSchema]>) -> Result<Self, SpecError> {
        Ok(Self {
            src,
            tokens: Lexer { src, pos: 0 }.collect::<Result<_, _>>()?,
            pos: 0,
            catalog,
        })
    }

    /// One statement, an optional `;`, then the end of input.
    fn finish(mut self, dialect_only: bool) -> Result<Statement, SpecError> {
        let stmt = self.statement(dialect_only)?;
        self.eat_opt(TokKind::Semi);
        if let Some(t) = self.peek() {
            return Err(syntax(format!("trailing input '{}'", t.text), t.span));
        }
        Ok(stmt)
    }

    fn peek(&self) -> Option<Tok<'s>> {
        self.tokens.get(self.pos).copied()
    }

    fn here(&self) -> Span {
        self.peek().map_or(Span::at(self.src.len()), |t| t.span)
    }

    /// "expected {what}, found …" at the current token.
    fn expected(&self, what: &str) -> SpecError {
        match self.peek() {
            Some(t) => syntax(format!("expected {what}, found '{}'", t.text), t.span),
            None => syntax(
                format!("expected {what}, found end of statement"),
                self.here(),
            ),
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(t) if t.kind == TokKind::Ident && t.text.eq_ignore_ascii_case(kw))
    }

    fn eat_kw_opt(&mut self, kw: &str) -> bool {
        let hit = self.peek_kw(kw);
        self.pos += hit as usize;
        hit
    }

    fn eat_kw(&mut self, kw: &str) -> Result<(), SpecError> {
        if self.eat_kw_opt(kw) {
            Ok(())
        } else {
            Err(self.expected(kw))
        }
    }

    fn eat_opt(&mut self, kind: TokKind) -> bool {
        let hit = matches!(self.peek(), Some(t) if t.kind == kind);
        self.pos += hit as usize;
        hit
    }

    fn eat(&mut self, kind: TokKind, what: &str) -> Result<Tok<'s>, SpecError> {
        match self.peek() {
            Some(t) if t.kind == kind => {
                self.pos += 1;
                Ok(t)
            }
            _ => Err(self.expected(what)),
        }
    }

    fn ident(&mut self, what: &str) -> Result<Tok<'s>, SpecError> {
        self.eat(TokKind::Ident, what)
    }

    fn name(&mut self, what: &str) -> Result<String, SpecError> {
        Ok(self.ident(what)?.text.to_string())
    }

    /// A dialect number: an optional sign, then a numeric literal.
    fn number(&mut self, what: &str) -> Result<Lit<'s>, SpecError> {
        let start = self.here().start;
        let sign = if self.eat_opt(TokKind::Minus) {
            -1.0
        } else {
            self.eat_opt(TokKind::Plus);
            1.0
        };
        match self.peek() {
            Some(Tok {
                kind: TokKind::Number(v),
                span,
                ..
            }) => {
                self.pos += 1;
                Ok(Lit {
                    value: sign * v,
                    text: &self.src[start..span.end],
                    span: Span::new(start, span.end),
                })
            }
            _ => Err(self.expected(what)),
        }
    }

    fn statement(&mut self, dialect_only: bool) -> Result<Statement, SpecError> {
        if !dialect_only {
            if self.eat_kw_opt("SELECT") {
                return self.select();
            }
            if self.eat_kw_opt("INSERT") {
                return self.insert();
            }
            if self.eat_kw_opt("CREATE") {
                return self.create_table();
            }
            if self.eat_kw_opt("DELETE") {
                self.eat_kw("FROM")?;
                return Ok(Statement::Delete {
                    table: self.name("a table name")?,
                    predicate: self.where_clause()?,
                });
            }
            if self.eat_kw_opt("DROP") {
                self.eat_kw("TABLE")?;
                return Ok(Statement::DropTable {
                    table: self.name("a table name")?,
                });
            }
        }
        if self.eat_kw_opt("SHOW") {
            if self.eat_kw_opt("DIAGNOSTICS") {
                return Ok(Statement::ShowDiagnostics);
            }
            self.eat_kw("MODELS")?;
            return Ok(Statement::ShowModels);
        }
        let explain = self.eat_kw_opt("EXPLAIN");
        if !explain && !dialect_only && !self.peek_kw("ESTIMATE") {
            return Err(self.expected("a statement"));
        }
        self.eat_kw("ESTIMATE")?;
        Ok(match (self.estimate()?, explain) {
            (ParsedEstimate::Single(spec), false) => Statement::Estimate(spec),
            (ParsedEstimate::Single(spec), true) => Statement::ExplainEstimate(spec),
            (ParsedEstimate::Rank(rank), false) => Statement::Rank(rank),
            (ParsedEstimate::Rank(rank), true) => Statement::ExplainRank(rank),
        })
    }

    // ---- plain SQL ---------------------------------------------------

    fn select(&mut self) -> Result<Statement, SpecError> {
        let projection = self.projection()?;
        self.eat_kw("FROM")?;
        let table = self.name("a table name")?;
        let predicate = self.where_clause()?;
        let order_by = if self.eat_kw_opt("ORDER") {
            self.eat_kw("BY")?;
            let col = self.name("a column name")?;
            let desc = self.eat_kw_opt("DESC");
            if !desc {
                self.eat_kw_opt("ASC");
            }
            Some((col, desc))
        } else {
            None
        };
        let limit = if self.eat_kw_opt("LIMIT") {
            match self.peek() {
                Some(
                    t @ Tok {
                        kind: TokKind::Number(_),
                        ..
                    },
                ) if is_integer(t.text) => {
                    self.pos += 1;
                    Some(
                        t.text
                            .parse::<usize>()
                            .map_err(|_| syntax("LIMIT is out of range", t.span))?,
                    )
                }
                _ => return Err(self.expected("a non-negative integer LIMIT")),
            }
        } else {
            None
        };
        Ok(Statement::Select(SelectStmt {
            projection,
            table,
            predicate,
            order_by,
            limit,
        }))
    }

    fn projection(&mut self) -> Result<Projection, SpecError> {
        if self.eat_opt(TokKind::Star) {
            return Ok(Projection::All);
        }
        let is_call = matches!(self.tokens.get(self.pos + 1), Some(t) if t.kind == TokKind::LParen);
        if let Some(&(kw, make)) = AGGREGATES.iter().find(|(kw, _)| self.peek_kw(kw)) {
            if is_call {
                self.pos += 2;
                let agg = match self.peek() {
                    Some(star) if star.kind == TokKind::Star => {
                        if kw != "COUNT" {
                            return Err(syntax(format!("{kw}(*) is not valid"), star.span));
                        }
                        self.pos += 1;
                        Aggregate::CountAll
                    }
                    _ => make(self.name("a column name")?),
                };
                self.eat(TokKind::RParen, "')'")?;
                return Ok(Projection::Aggregate(agg));
            }
        }
        let mut cols = vec![self.name("a column name or '*'")?];
        while self.eat_opt(TokKind::Comma) {
            cols.push(self.name("a column name")?);
        }
        Ok(Projection::Columns(cols))
    }

    fn insert(&mut self) -> Result<Statement, SpecError> {
        self.eat_kw("INTO")?;
        let table = self.name("a table name")?;
        self.eat_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.eat(TokKind::LParen, "'('")?;
            let mut row = vec![self.constant()?];
            while self.eat_opt(TokKind::Comma) {
                row.push(self.constant()?);
            }
            self.eat(TokKind::RParen, "')'")?;
            rows.push(row);
            if !self.eat_opt(TokKind::Comma) {
                return Ok(Statement::Insert { table, rows });
            }
        }
    }

    fn create_table(&mut self) -> Result<Statement, SpecError> {
        self.eat_kw("TABLE")?;
        let table = self.name("a table name")?;
        self.eat(TokKind::LParen, "'('")?;
        let mut columns = Vec::new();
        loop {
            let name = self.name("a column name")?;
            let ty = self.ident("a column type")?;
            let dtype = match ty.text.to_ascii_uppercase().as_str() {
                "INT" | "INTEGER" | "BIGINT" => DataType::Int,
                "FLOAT" | "REAL" | "DOUBLE" => DataType::Float,
                "TEXT" | "VARCHAR" | "STRING" => DataType::Text,
                "BOOL" | "BOOLEAN" => DataType::Bool,
                _ => return Err(syntax(format!("unknown type '{}'", ty.text), ty.span)),
            };
            let nullable = self.eat_kw_opt("NULL");
            columns.push((name, dtype, nullable));
            if !self.eat_opt(TokKind::Comma) {
                break;
            }
        }
        self.eat(TokKind::RParen, "')'")?;
        Ok(Statement::CreateTable { table, columns })
    }

    fn where_clause(&mut self) -> Result<Option<Expr>, SpecError> {
        if self.eat_kw_opt("WHERE") {
            Ok(Some(self.expr()?))
        } else {
            Ok(None)
        }
    }

    /// A `VALUES` entry: any expression without column references,
    /// folded to its value (so `-2.5` and `2 * 3` work).
    fn constant(&mut self) -> Result<Value, SpecError> {
        let start = self.here().start;
        let e = self.expr()?;
        let end = self.tokens[self.pos - 1].span.end;
        crate::schema::Schema::new(vec![])
            .ok()
            .and_then(|empty| e.eval(&empty, &[]).ok())
            .ok_or_else(|| syntax("VALUES entries must be constants", Span::new(start, end)))
    }

    fn expr(&mut self) -> Result<Expr, SpecError> {
        let mut lhs = self.conj()?;
        while self.eat_kw_opt("OR") {
            lhs = lhs.or(self.conj()?);
        }
        Ok(lhs)
    }

    fn conj(&mut self) -> Result<Expr, SpecError> {
        let mut lhs = self.neg()?;
        while self.eat_kw_opt("AND") {
            lhs = lhs.and(self.neg()?);
        }
        Ok(lhs)
    }

    fn neg(&mut self) -> Result<Expr, SpecError> {
        if self.eat_kw_opt("NOT") {
            Ok(self.neg()?.not())
        } else {
            self.cmp()
        }
    }

    fn cmp(&mut self) -> Result<Expr, SpecError> {
        let lhs = self.sum()?;
        let op = match self.peek().map(|t| t.kind) {
            Some(TokKind::Eq) => CmpOp::Eq,
            Some(TokKind::Ne) => CmpOp::Ne,
            Some(TokKind::Lt) => CmpOp::Lt,
            Some(TokKind::Le) => CmpOp::Le,
            Some(TokKind::Gt) => CmpOp::Gt,
            Some(TokKind::Ge) => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        Ok(Expr::Cmp(Box::new(lhs), op, Box::new(self.sum()?)))
    }

    fn sum(&mut self) -> Result<Expr, SpecError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek().map(|t| t.kind) {
                Some(TokKind::Plus) => ArithOp::Add,
                Some(TokKind::Minus) => ArithOp::Sub,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            lhs = Expr::Arith(Box::new(lhs), op, Box::new(self.term()?));
        }
    }

    fn term(&mut self) -> Result<Expr, SpecError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek().map(|t| t.kind) {
                Some(TokKind::Star) => ArithOp::Mul,
                Some(TokKind::Slash) => ArithOp::Div,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            lhs = Expr::Arith(Box::new(lhs), op, Box::new(self.unary()?));
        }
    }

    fn unary(&mut self) -> Result<Expr, SpecError> {
        if self.eat_opt(TokKind::Minus) {
            // Unary minus: 0 - expr.
            let inner = self.unary()?;
            return Ok(Expr::Arith(
                Box::new(Expr::Lit(Value::Int(0))),
                ArithOp::Sub,
                Box::new(inner),
            ));
        }
        if self.eat_opt(TokKind::LParen) {
            let e = self.expr()?;
            self.eat(TokKind::RParen, "')'")?;
            return Ok(e);
        }
        let Some(t) = self.peek() else {
            return Err(self.expected("an expression"));
        };
        let value = match t.kind {
            TokKind::Number(_) if is_integer(t.text) => Value::Int(
                t.text
                    .parse()
                    .map_err(|_| syntax(format!("integer '{}' is out of range", t.text), t.span))?,
            ),
            TokKind::Number(v) => Value::Float(v),
            TokKind::Str => Value::Text(t.text[1..t.text.len() - 1].replace("''", "'")),
            TokKind::Ident if t.text.eq_ignore_ascii_case("TRUE") => Value::Bool(true),
            TokKind::Ident if t.text.eq_ignore_ascii_case("FALSE") => Value::Bool(false),
            TokKind::Ident if t.text.eq_ignore_ascii_case("NULL") => Value::Null,
            TokKind::Ident => {
                self.pos += 1;
                return Ok(Expr::Col(t.text.to_string()));
            }
            _ => return Err(self.expected("an expression")),
        };
        self.pos += 1;
        Ok(Expr::Lit(value))
    }

    // ---- the ESTIMATE dialect ----------------------------------------

    /// `['(' ident '=' number {',' …} ')']` — shared by the model ref, the
    /// method ref, the ranking options, and the WITH options.
    fn assignments(&mut self, what: &'static str) -> Result<Assignments<'s>, SpecError> {
        let mut out: Assignments<'s> = Vec::new();
        if !self.eat_opt(TokKind::LParen) {
            return Ok(out);
        }
        loop {
            let name = self.ident(&format!("a {what} name"))?;
            self.eat(TokKind::Eq, "'='")?;
            // Execution options admit the keyword value `auto`
            // (today: `batch_width=auto`), carried as +∞ so the typed
            // option match below can tell it apart from every real
            // number. Model and method parameters stay numeric-only.
            let value = match self.peek() {
                Some(t)
                    if what == "execution option"
                        && t.kind == TokKind::Ident
                        && t.text.eq_ignore_ascii_case("auto") =>
                {
                    self.pos += 1;
                    Lit {
                        value: f64::INFINITY,
                        text: t.text,
                        span: t.span,
                    }
                }
                _ => self.number(&format!("a value for '{}'", name.text))?,
            };
            if out.iter().any(|(n, _)| n.text == name.text) {
                return Err(SpecError::at(
                    SpecErrorKind::Duplicate {
                        what,
                        name: name.text.to_string(),
                    },
                    name.span,
                ));
            }
            out.push((name, value));
            if !self.eat_opt(TokKind::Comma) {
                break;
            }
        }
        self.eat(TokKind::RParen, "')'")?;
        Ok(out)
    }

    /// One candidate of the `OF` list: a model ref plus an optional
    /// `SWEEP param FROM a TO b STEP s` expansion. Returns the expanded
    /// per-arm `(beta, params)` pairs (one entry when there is no sweep).
    fn candidate(&mut self) -> Result<Cand<'s>, SpecError> {
        // ---- model ref: name(beta=…, overrides…) ---------------------
        let model = self.ident("a model name")?;
        let schema = match self.catalog {
            Some(catalog) => match catalog.iter().find(|s| s.name == model.text) {
                Some(s) => Some(*s),
                None => {
                    return Err(SpecError::at(
                        SpecErrorKind::UnknownModel {
                            name: model.text.to_string(),
                            known: catalog.iter().map(|s| s.name.to_string()).collect(),
                        },
                        model.span,
                    ))
                }
            },
            None => None,
        };
        let mut beta: Option<f64> = None;
        let mut params: BTreeMap<String, f64> = BTreeMap::new();
        for (name, lit) in self.assignments("model parameter")? {
            if name.text == "beta" {
                beta = Some(lit.value);
                continue;
            }
            if let Some(schema) = schema {
                let Some(p) = schema.param(name.text) else {
                    return Err(unknown_param(&model, &name));
                };
                // The schema's own rules (range + int/bool shape), with
                // the value token's span attached.
                p.check(schema.name, lit.value)
                    .map_err(|e| SpecError::at(e.kind, lit.span))?;
            }
            params.insert(name.text.to_string(), lit.value);
        }
        let Some(beta) = beta else {
            return Err(missing("beta", model.span));
        };

        // ---- SWEEP param FROM a TO b STEP s --------------------------
        if !self.peek_kw("SWEEP") {
            return Ok(Cand {
                model,
                arms: vec![(beta, params)],
                sweep_span: None,
            });
        }
        let kw_span = self.here();
        self.eat_kw("SWEEP")?;
        let pname = self.ident("a parameter to sweep")?;
        self.eat_kw("FROM")?;
        let from = self.number("a sweep start")?;
        self.eat_kw("TO")?;
        let to = self.number("a sweep end")?;
        self.eat_kw("STEP")?;
        let step = self.number("a sweep step")?;
        if !(from.value.is_finite() && to.value.is_finite()) {
            return Err(invalid(
                "sweep range",
                "endpoints must be finite",
                from.span,
            ));
        }
        if to.value < from.value {
            return Err(invalid(
                "sweep range",
                format!("end {} is below start {}", to.value, from.value),
                to.span,
            ));
        }
        if !(step.value.is_finite() && step.value > 0.0) {
            return Err(invalid(
                "sweep step",
                format!("must be positive, got {}", step.value),
                step.span,
            ));
        }
        // Count before materializing: a tiny step must fail cleanly, not
        // allocate.
        let count = ((to.value - from.value) / step.value + 1e-9).floor() as usize + 1;
        if count > MAX_RANK_ARMS {
            return Err(invalid(
                "sweep step",
                format!("sweep expands to {count} arms, cap is {MAX_RANK_ARMS}"),
                step.span,
            ));
        }
        let schema_param = if pname.text == "beta" {
            None
        } else if let Some(schema) = schema {
            let Some(p) = schema.param(pname.text) else {
                return Err(unknown_param(&model, &pname));
            };
            Some((schema.name, p))
        } else {
            None
        };
        let places = decimal_places(from.text).max(decimal_places(step.text));
        let mut arms = Vec::with_capacity(count);
        for i in 0..count {
            let value = round_to(from.value + step.value * i as f64, places);
            if let Some((model_name, p)) = schema_param {
                // Attach the sweep-start span: the offending value is
                // generated, not written.
                p.check(model_name, value)
                    .map_err(|e| SpecError::at(e.kind, from.span))?;
            }
            if pname.text == "beta" {
                arms.push((value, params.clone()));
            } else {
                let mut params = params.clone();
                params.insert(pname.text.to_string(), value);
                arms.push((beta, params));
            }
        }
        Ok(Cand {
            model,
            arms,
            sweep_span: Some(kw_span),
        })
    }

    fn estimate(&mut self) -> Result<ParsedEstimate, SpecError> {
        self.eat_kw("DURABILITY")?;
        self.eat_kw("OF")?;

        // ---- candidate list ------------------------------------------
        let mut cands = vec![self.candidate()?];
        // The span that proves this is a multi-candidate statement (and
        // therefore needs RANK BY): the first comma or SWEEP keyword.
        let mut multi_span: Option<Span> = cands[0].sweep_span;
        while let Some(comma) = self.peek().filter(|t| t.kind == TokKind::Comma) {
            self.pos += 1;
            multi_span = multi_span.or(Some(comma.span));
            cands.push(self.candidate()?);
        }

        // ---- WITHIN horizon ------------------------------------------
        if !self.eat_kw_opt("WITHIN") {
            return Err(missing("WITHIN", self.here()));
        }
        let horizon = self.number("a horizon")?;
        let h = horizon.value;
        if !(h.is_finite() && h >= 1.0 && h.fract() == 0.0) {
            return Err(invalid(
                "horizon",
                format!("must be a positive integer, got {h}"),
                horizon.span,
            ));
        }

        // ---- USING method(levels=…) ----------------------------------
        let mut method = Method::Auto;
        let mut levels = DEFAULT_PLAN_LEVELS;
        if self.eat_kw_opt("USING") {
            let name = self.ident("a method name")?;
            method = Method::parse(&name.text.to_ascii_lowercase())
                .map_err(|e| SpecError::at(e.kind, name.span))?;
            for (opt, lit) in self.assignments("method option")? {
                match opt.text {
                    "levels" => levels = int_in(&lit, "levels", 1.0, 64.0)? as usize,
                    _ => return Err(unknown_option(opt)),
                }
            }
        }

        // ---- TARGET RE number [%] ------------------------------------
        if !self.eat_kw_opt("TARGET") {
            return Err(missing("TARGET RE", self.here()));
        }
        self.eat_kw("RE")?;
        let target = self.number("a relative-error target")?;
        let mut target_re = target.value;
        if self.eat_opt(TokKind::Percent) {
            target_re /= 100.0;
        }
        if !(target_re.is_finite() && target_re > 0.0) {
            return Err(invalid(
                "target_re",
                format!("must be positive, got {target_re}"),
                target.span,
            ));
        }

        // ---- RANK BY TOP k [(confidence=…, rounds=…, round_budget=…)] -
        let rank = if self.eat_kw_opt("RANK") {
            self.eat_kw("BY")?;
            self.eat_kw("TOP")?;
            let k = self.number("a top-k count")?;
            if !(k.value.fract() == 0.0 && k.value >= 1.0) {
                return Err(invalid(
                    "top_k",
                    format!("must be a positive integer, got {}", k.value),
                    k.span,
                ));
            }
            let mut confidence = mlss_core::spec::DEFAULT_RANK_CONFIDENCE;
            let mut rounds = mlss_core::spec::DEFAULT_RANK_ROUNDS;
            let mut round_budget = mlss_core::spec::DEFAULT_RANK_ROUND_BUDGET;
            for (opt, lit) in self.assignments("ranking option")? {
                match opt.text {
                    "confidence" if lit.value > 0.5 && lit.value < 1.0 => confidence = lit.value,
                    "confidence" => {
                        let message = format!("must be in (0.5, 1), got {}", lit.value);
                        return Err(invalid("confidence", message, lit.span));
                    }
                    "rounds" => rounds = int_in(&lit, "rounds", 1.0, 10_000.0)? as usize,
                    "round_budget" => {
                        round_budget = int_in(&lit, "round_budget", 1.0, 1e12)? as u64
                    }
                    _ => return Err(unknown_option(opt)),
                }
            }
            Some((k.value as usize, k.span, confidence, rounds, round_budget))
        } else {
            None
        };
        if rank.is_none() {
            if let Some(span) = multi_span {
                // A candidate field without a ranking question is
                // ambiguous — which single estimate would it mean?
                return Err(missing("RANK BY", span));
            }
        }

        // ---- WITH (options) + ASYNC/SYNC -----------------------------
        let options = self.exec_options()?;

        // ---- assemble ------------------------------------------------
        let build_arm = |model: &Tok, beta: f64, params: BTreeMap<String, f64>| {
            let mut spec = QuerySpec::new(model.text, beta, h as u64, target_re);
            spec.params = params;
            spec.method = method;
            spec.levels = levels;
            spec.options = options.clone();
            spec
        };
        let Some((top_k, kspan, confidence, max_rounds, round_budget)) = rank else {
            let cand = cands.into_iter().next().expect("one candidate");
            let (beta, params) = cand.arms.into_iter().next().expect("one arm");
            let spec = build_arm(&cand.model, beta, params);
            spec.validate()?;
            return Ok(ParsedEstimate::Single(spec));
        };
        let mut arms: Vec<QuerySpec> = Vec::new();
        for cand in cands {
            for (beta, params) in cand.arms {
                arms.push(build_arm(&cand.model, beta, params));
            }
        }
        if top_k > arms.len() {
            return Err(invalid(
                "top_k",
                format!(
                    "must be in 1..={} (the candidate field), got {top_k}",
                    arms.len()
                ),
                kspan,
            ));
        }
        let mut rank = RankSpec::new(arms, top_k);
        rank.confidence = confidence;
        rank.max_rounds = max_rounds;
        rank.round_budget = round_budget;
        rank.options = options;
        rank.validate()?;
        Ok(ParsedEstimate::Rank(rank))
    }

    /// `[WITH '(' options ')'] [ASYNC | SYNC]`.
    fn exec_options(&mut self) -> Result<ExecOptions, SpecError> {
        let mut options = ExecOptions::default();
        if self.eat_kw_opt("WITH") {
            if !matches!(self.peek(), Some(t) if t.kind == TokKind::LParen) {
                return Err(syntax("expected '(' after WITH", self.here()));
            }
            for (opt, lit) in self.assignments("execution option")? {
                // `auto` reaches here as +∞ (see `assignments`); only
                // `batch_width` accepts it.
                match opt.text {
                    "threads" => options.threads = int_in(&lit, "threads", 1.0, 4096.0)? as usize,
                    "batch_width" if lit.value.is_infinite() => {
                        options.batch_width = Some(mlss_core::width::AUTO_WIDTH)
                    }
                    "batch_width" => {
                        let width = int_in(&lit, "batch_width", 0.0, 1_048_576.0)?;
                        options.batch_width = Some(width as usize);
                    }
                    "seed" => {
                        // Reparse the literal text: a seed is a full u64
                        // and must not round through f64.
                        let seed = lit.text.parse().map_err(|_| {
                            let message =
                                format!("must be an unsigned integer, got '{}'", lit.text);
                            invalid("seed", message, lit.span)
                        })?;
                        options.seed = Some(seed);
                    }
                    "priority" => options.priority = int_in(&lit, "priority", 0.0, 255.0)? as u8,
                    _ => return Err(unknown_option(opt)),
                }
            }
        }

        // ---- ASYNC / SYNC --------------------------------------------
        if self.eat_kw_opt("ASYNC") {
            options.mode = ExecMode::Async;
        } else {
            self.eat_kw_opt("SYNC");
        }
        Ok(options)
    }
}

fn invalid(field: &'static str, message: impl Into<String>, span: Span) -> SpecError {
    let message = message.into();
    SpecError::at(SpecErrorKind::InvalidValue { field, message }, span)
}

fn missing(clause: &'static str, span: Span) -> SpecError {
    SpecError::at(SpecErrorKind::MissingClause { clause }, span)
}

fn unknown_param(model: &Tok, param: &Tok) -> SpecError {
    let (model, name) = (model.text.to_string(), param.text.to_string());
    SpecError::at(SpecErrorKind::UnknownParam { model, name }, param.span)
}

/// An integer-valued option in `lo..=hi` (an `auto` value arrives as
/// +∞ and is only valid for `batch_width`, which checks it first).
fn int_in(lit: &Lit, field: &'static str, lo: f64, hi: f64) -> Result<f64, SpecError> {
    let v = lit.value;
    if v.fract() == 0.0 && (lo..=hi).contains(&v) {
        return Ok(v);
    }
    let message = if v.is_infinite() {
        "'auto' is only valid for batch_width".to_string()
    } else {
        format!("must be an integer in {lo}..={hi}, got {v}")
    };
    Err(invalid(field, message, lit.span))
}

fn unknown_option(opt: Tok) -> SpecError {
    SpecError::at(
        SpecErrorKind::UnknownOption {
            name: opt.text.to_string(),
        },
        opt.span,
    )
}

/// Is this numeric literal an integer (no fraction, no exponent)?
fn is_integer(text: &str) -> bool {
    text.bytes().all(|b| b.is_ascii_digit())
}

/// Decimal places a numeric literal is written with: `0.30` → 2,
/// `4` → 0, `2.5e-3` → 4.
fn decimal_places(text: &str) -> i32 {
    let (mantissa, exp) = match text.split_once(['e', 'E']) {
        Some((m, e)) => (m, e.parse::<i32>().unwrap_or(0)),
        None => (text, 0),
    };
    let frac = mantissa.split_once('.').map_or(0, |(_, f)| f.len() as i32);
    (frac - exp).max(0)
}

/// Round `v` to `places` decimal places — the nearest `f64` to the
/// decimal a user would write — leaving it alone past `f64` precision.
fn round_to(v: f64, places: i32) -> f64 {
    if places > 15 {
        return v;
    }
    let scale = 10f64.powi(places);
    (v * scale).round() / scale
}

/// What `estimate()` produced: one spec, or a raced candidate field.
enum ParsedEstimate {
    Single(QuerySpec),
    Rank(RankSpec),
}

/// One parsed `OF`-list candidate, already sweep-expanded.
struct Cand<'s> {
    model: Tok<'s>,
    /// Per-arm `(beta, params)` pairs (one entry when there is no sweep).
    arms: Vec<(f64, BTreeMap<String, f64>)>,
    /// Span of the `SWEEP` keyword, if the candidate swept.
    sweep_span: Option<Span>,
}

type AggMaker = fn(String) -> Aggregate;
const AGGREGATES: &[(&str, AggMaker)] = &[
    ("COUNT", Aggregate::Count as AggMaker),
    ("SUM", Aggregate::Sum as AggMaker),
    ("AVG", Aggregate::Avg as AggMaker),
    ("MIN", Aggregate::Min as AggMaker),
    ("MAX", Aggregate::Max as AggMaker),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    fn tokens(sql: &str) -> Vec<TokKind> {
        Lexer { src: sql, pos: 0 }
            .map(|t| t.unwrap().kind)
            .collect()
    }

    fn lex_err(sql: &str) -> SpecError {
        Lexer { src: sql, pos: 0 }
            .find_map(Result::err)
            .expect("lex error")
    }

    #[test]
    fn lexes_operators_numbers_and_strings() {
        use TokKind::*;
        assert_eq!(
            tokens("< <= > >= = <> != + - * / % ( ) , ;"),
            vec![
                Lt, Le, Gt, Ge, Eq, Ne, Ne, Plus, Minus, Star, Slash, Percent, LParen, RParen,
                Comma, Semi
            ]
        );
        // A leading minus is its own token (unary minus is the parser's).
        assert_eq!(
            tokens("42 -7 3.25 1e-4 .5"),
            vec![
                Number(42.0),
                Minus,
                Number(7.0),
                Number(3.25),
                Number(1e-4),
                Number(0.5)
            ]
        );
        assert_eq!(tokens("'it''s' x_1"), vec![Str, Ident]);
        assert_eq!(tokens("SELECT -- hidden\n1"), vec![Ident, Number(1.0)]);
    }

    #[test]
    fn lex_errors_carry_spans() {
        let err = lex_err("SELECT @");
        assert_eq!(err.span, Some(Span::new(7, 8)));
        let err = lex_err("SELECT 'oops");
        assert!(err.to_string().contains("unterminated"));
        assert_eq!(err.span, Some(Span::new(7, 12)));
        // Multi-byte characters keep the span on char boundaries.
        let sql = "SELECT é";
        let span = lex_err(sql).span.unwrap();
        assert_eq!(&sql[span.start..span.end], "é");
    }

    #[test]
    fn is_dialect_routes_on_the_first_token() {
        assert!(is_dialect(
            "ESTIMATE DURABILITY OF x(beta=1) WITHIN 1 TARGET RE 1"
        ));
        assert!(is_dialect("  -- a comment\n explain estimate …"));
        assert!(is_dialect("SHOW MODELS"));
        assert!(!is_dialect("SELECT * FROM t"));
        assert!(!is_dialect("INSERT INTO t VALUES (1)"));
        assert!(!is_dialect("ESTIMATES"));
        assert!(!is_dialect(""));
    }

    // ---- plain SQL ---------------------------------------------------

    #[test]
    fn parses_simple_select() {
        let stmt = parse("SELECT a, b FROM t WHERE a >= 3 ORDER BY b DESC LIMIT 10;").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(
            s.projection,
            Projection::Columns(vec!["a".into(), "b".into()])
        );
        assert_eq!(s.table, "t");
        assert_eq!(s.predicate, Some(col("a").ge(lit(3i64))));
        assert_eq!(s.order_by, Some(("b".into(), true)));
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn parses_star_and_aggregates() {
        let Statement::Select(s) = parse("SELECT * FROM t").unwrap() else {
            panic!()
        };
        assert_eq!(s.projection, Projection::All);
        let Statement::Select(s) = parse("SELECT COUNT(*) FROM t").unwrap() else {
            panic!()
        };
        assert_eq!(s.projection, Projection::Aggregate(Aggregate::CountAll));
        let Statement::Select(s) = parse("SELECT AVG(x) FROM t WHERE x > 0").unwrap() else {
            panic!()
        };
        assert_eq!(
            s.projection,
            Projection::Aggregate(Aggregate::Avg("x".into()))
        );
        // An aggregate keyword without '(' is an ordinary column name.
        let Statement::Select(s) = parse("SELECT count, max FROM t").unwrap() else {
            panic!()
        };
        assert_eq!(
            s.projection,
            Projection::Columns(vec!["count".into(), "max".into()])
        );
    }

    #[test]
    fn parses_insert_multiple_rows() {
        let stmt = parse("INSERT INTO t VALUES (1, 'a', 2.5), (2, 'b''c', -3.0)").unwrap();
        let Statement::Insert { table, rows } = stmt else {
            panic!()
        };
        assert_eq!(table, "t");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Int(1));
        assert_eq!(rows[0][1], Value::Text("a".into()));
        assert_eq!(rows[1][1], Value::Text("b'c".into()));
        assert_eq!(rows[1][2], Value::Float(-3.0));
        // Non-ASCII text survives byte-for-byte.
        let Statement::Insert { rows, .. } = parse("INSERT INTO t VALUES ('τ̂ ≈ é')").unwrap()
        else {
            panic!()
        };
        assert_eq!(rows[0][0], Value::Text("τ̂ ≈ é".into()));
    }

    #[test]
    fn parses_create_table() {
        let stmt =
            parse("CREATE TABLE users (id INT, name TEXT, score FLOAT NULL, ok BOOL)").unwrap();
        let Statement::CreateTable { table, columns } = stmt else {
            panic!()
        };
        assert_eq!(table, "users");
        assert_eq!(columns.len(), 4);
        assert_eq!(columns[2], ("score".into(), DataType::Float, true));
        assert_eq!(columns[0], ("id".into(), DataType::Int, false));
    }

    #[test]
    fn parses_delete_and_drop() {
        assert_eq!(
            parse("DELETE FROM t WHERE x < 0").unwrap(),
            Statement::Delete {
                table: "t".into(),
                predicate: Some(col("x").lt(lit(0i64))),
            }
        );
        assert_eq!(
            parse("DROP TABLE t").unwrap(),
            Statement::DropTable { table: "t".into() }
        );
    }

    #[test]
    fn operator_precedence() {
        let e = match parse("SELECT * FROM t WHERE a + b * 2 > 4 AND NOT c = 1 OR d = 2").unwrap() {
            Statement::Select(s) => s.predicate.unwrap(),
            _ => panic!(),
        };
        let expected = col("a")
            .add(col("b").mul(lit(2i64)))
            .gt(lit(4i64))
            .and(col("c").eq(lit(1i64)).not())
            .or(col("d").eq(lit(2i64)));
        assert_eq!(e, expected);
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(parse("select * from t where x = true").is_ok());
        assert!(parse("Select Count(*) From t").is_ok());
    }

    /// The malformed-plain-SQL span table: every rejection is a spanned
    /// `Syntax` error pointing at the offending bytes ("" = the empty
    /// span at the end of the statement).
    #[test]
    fn malformed_plain_sql_spans_point_at_the_offender() {
        let cases: &[(&str, &str)] = &[
            // Trailing input after a complete statement.
            ("SELECT * FROM t extra", "extra"),
            ("DROP TABLE t; DROP TABLE u", "DROP"),
            // Unterminated string: from the opening quote to the end.
            ("INSERT INTO t VALUES ('oops)", "'oops)"),
            // Bad operators: `==`, `><`, a lone `!`.
            ("SELECT * FROM t WHERE x >< 1", "<"),
            ("SELECT * FROM t WHERE x ! 1", "!"),
            // Missing FROM.
            ("SELECT a, b WHERE a = 1", "WHERE"),
            ("SELECT *", ""),
            ("DELETE t", "t"),
            // Bad column type.
            ("CREATE TABLE t (id INT, name BLOB)", "BLOB"),
            // Empty VALUES.
            ("INSERT INTO t VALUES ()", ")"),
            ("INSERT INTO t VALUES", ""),
            // Non-constant VALUES entry: the whole expression.
            ("INSERT INTO t VALUES (1, a + 1)", "a + 1"),
            // Aggregates: `*` outside COUNT.
            ("SELECT SUM(*) FROM t", "*"),
            // LIMIT needs a non-negative integer.
            ("SELECT * FROM t LIMIT 1.5", "1.5"),
            ("SELECT * FROM t LIMIT -1", "-"),
            // Unknown statement keyword.
            ("UPSERT INTO t VALUES (1)", "UPSERT"),
            // Incomplete expression.
            ("SELECT * FROM t WHERE", ""),
            ("SELECT * FROM t WHERE (x = 1", ""),
            (
                "SELECT * FROM t WHERE x = 99999999999999999999",
                "99999999999999999999",
            ),
        ];
        for (sql, at) in cases {
            let err = parse(sql).expect_err(sql);
            assert!(
                matches!(err.kind, SpecErrorKind::Syntax { .. }),
                "{sql}: {:?}",
                err.kind
            );
            let span = err.span.unwrap_or_else(|| panic!("no span for: {sql}"));
            assert_eq!(&sql[span.start..span.end], *at, "wrong span for: {sql}");
            if at.is_empty() {
                assert_eq!(span.start, sql.len(), "{sql}: not at the end");
            }
        }
        // `==` fails at its second `=`.
        let sql = "SELECT * FROM t WHERE x == 1";
        assert_eq!(parse(sql).unwrap_err().span, Some(Span::new(25, 26)));
    }

    // ---- the ESTIMATE dialect ----------------------------------------

    fn spec_of(sql: &str) -> QuerySpec {
        match parse(sql).unwrap() {
            Statement::Estimate(s) => s,
            other => panic!("expected Estimate, got {other:?}"),
        }
    }

    #[test]
    fn parses_the_headline_statement() {
        let s = spec_of(
            "ESTIMATE DURABILITY OF cpp(beta=500) WITHIN 1000 USING gmlss(levels=5) \
             TARGET RE 0.5% WITH (threads=4, batch_width=64) ASYNC",
        );
        assert_eq!(s.model, "cpp");
        assert_eq!(s.beta, 500.0);
        assert_eq!(s.horizon, 1000);
        assert_eq!(s.method, Method::GMlss);
        assert_eq!(s.levels, 5);
        assert!((s.target_re - 0.005).abs() < 1e-12);
        assert_eq!(s.options.threads, 4);
        assert_eq!(s.options.batch_width, Some(64));
        assert_eq!(s.options.mode, ExecMode::Async);
    }

    #[test]
    fn defaults_fill_in() {
        let s = spec_of("ESTIMATE DURABILITY OF walk(beta=6) WITHIN 60 TARGET RE 0.25");
        assert_eq!(s.method, Method::Auto);
        assert_eq!(s.levels, DEFAULT_PLAN_LEVELS);
        assert_eq!(s.options.threads, 1);
        assert_eq!(s.options.batch_width, None);
        assert_eq!(s.options.seed, None);
        assert_eq!(s.options.mode, ExecMode::Sync);
        assert!(s.params.is_empty());
    }

    #[test]
    fn model_overrides_and_case_insensitive_keywords() {
        let s = spec_of(
            "estimate durability of gbm(beta=560, volatility=0.4, drift=0.1) \
             within 40 using mlss target re 25 % sync;",
        );
        assert_eq!(s.params.get("volatility"), Some(&0.4));
        assert_eq!(s.params.get("drift"), Some(&0.1));
        assert_eq!(s.method, Method::GMlss, "mlss aliases to gmlss");
        assert!((s.target_re - 0.25).abs() < 1e-12);
        // Signed numbers: `-` and `+` prefix a dialect number.
        let s = spec_of("ESTIMATE DURABILITY OF gbm(beta=-5, drift=+0.1) WITHIN 40 TARGET RE 0.25");
        assert_eq!(s.beta, -5.0);
        assert_eq!(s.params.get("drift"), Some(&0.1));
    }

    #[test]
    fn explain_and_show_models() {
        assert!(matches!(
            parse("EXPLAIN ESTIMATE DURABILITY OF walk(beta=5) WITHIN 50 TARGET RE 0.3").unwrap(),
            Statement::ExplainEstimate(_)
        ));
        assert_eq!(parse("SHOW MODELS").unwrap(), Statement::ShowModels);
        assert_eq!(parse("show models;").unwrap(), Statement::ShowModels);
        assert_eq!(
            parse("SHOW DIAGNOSTICS").unwrap(),
            Statement::ShowDiagnostics
        );
        assert_eq!(
            parse("show diagnostics;").unwrap(),
            Statement::ShowDiagnostics
        );
    }

    #[test]
    fn parse_dialect_rejects_plain_sql_at_its_keyword() {
        let sql = "SELECT * FROM results";
        assert!(parse(sql).is_ok());
        let err = parse_dialect(sql, None).unwrap_err();
        assert_eq!(err.span, Some(Span::new(0, 6)));
        assert!(parse_dialect("SHOW MODELS", None).is_ok());
    }

    #[test]
    fn batch_width_auto_parses_to_the_sentinel() {
        let s = spec_of(
            "ESTIMATE DURABILITY OF gbm(beta=560) WITHIN 500 TARGET RE 0.25 \
             WITH (batch_width=auto, threads=2)",
        );
        assert_eq!(s.options.batch_width, Some(mlss_core::width::AUTO_WIDTH));
        assert_eq!(s.options.threads, 2);
        // Case-insensitive, like the keywords.
        let s = spec_of(
            "ESTIMATE DURABILITY OF gbm(beta=560) WITHIN 500 TARGET RE 0.25 \
             WITH (batch_width=AUTO)",
        );
        assert_eq!(s.options.batch_width, Some(mlss_core::width::AUTO_WIDTH));
    }

    #[test]
    fn auto_is_rejected_everywhere_else() {
        // Other execution options don't take `auto`…
        let sql = "ESTIMATE DURABILITY OF gbm(beta=560) WITHIN 500 TARGET RE 0.25 \
             WITH (threads=auto)";
        let err = parse(sql).unwrap_err();
        assert!(matches!(
            err.kind,
            SpecErrorKind::InvalidValue { field: "threads", ref message }
                if message.contains("auto")
        ));
        let err = parse(
            "ESTIMATE DURABILITY OF gbm(beta=560) WITHIN 500 TARGET RE 0.25 WITH (seed=auto)",
        )
        .unwrap_err();
        assert!(matches!(
            err.kind,
            SpecErrorKind::InvalidValue { field: "seed", .. }
        ));
        // …and model parameters are numeric-only (auto is a syntax error
        // there, not a value error).
        assert!(parse("ESTIMATE DURABILITY OF gbm(beta=auto) WITHIN 500 TARGET RE 0.25").is_err());
        // A negative seed is not an unsigned integer.
        let sql = "ESTIMATE DURABILITY OF gbm(beta=560) WITHIN 500 TARGET RE 0.25 WITH (seed=-1)";
        let err = parse(sql).unwrap_err();
        let span = err.span.unwrap();
        assert_eq!(&sql[span.start..span.end], "-1");
    }

    #[test]
    fn spans_point_at_the_offender() {
        let sql = "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 60 TARGET RE 0.25 WITH (bogus=1)";
        let err = parse(sql).unwrap_err();
        assert!(matches!(
            err.kind,
            SpecErrorKind::UnknownOption { ref name } if name == "bogus"
        ));
        let span = err.span.unwrap();
        assert_eq!(&sql[span.start..span.end], "bogus");
    }

    #[test]
    fn missing_beta_is_a_missing_clause() {
        let err = parse("ESTIMATE DURABILITY OF walk WITHIN 60 TARGET RE 0.25").unwrap_err();
        assert!(matches!(
            err.kind,
            SpecErrorKind::MissingClause { clause: "beta" }
        ));
    }

    #[test]
    fn catalog_checks_model_and_params() {
        use mlss_core::spec::ParamSpec;
        let schema = ModelSchema::new(
            "walk",
            "random walk",
            vec![ParamSpec::float("up", 0.3, 0.0, 1.0, "up probability")],
        );
        let catalog = [&schema];
        let err = parse_dialect(
            "ESTIMATE DURABILITY OF nope(beta=1) WITHIN 10 TARGET RE 0.5",
            Some(&catalog),
        )
        .unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::UnknownModel { .. }));
        let err = parse_dialect(
            "ESTIMATE DURABILITY OF walk(beta=1, wat=2) WITHIN 10 TARGET RE 0.5",
            Some(&catalog),
        )
        .unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::UnknownParam { .. }));
        let sql = "ESTIMATE DURABILITY OF walk(beta=1, up=1.5) WITHIN 10 TARGET RE 0.5";
        let err = parse_dialect(sql, Some(&catalog)).unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::ParamOutOfRange { .. }));
        let span = err.span.unwrap();
        assert_eq!(&sql[span.start..span.end], "1.5");
        // Int/bool shape violations get the same spanned treatment.
        let int_schema = ModelSchema::new(
            "lattice",
            "int-param model",
            vec![ParamSpec::int("start", 0.0, -10.0, 10.0, "start")],
        );
        let catalog2 = [&int_schema];
        let sql = "ESTIMATE DURABILITY OF lattice(beta=1, start=1.5) WITHIN 10 TARGET RE 0.5";
        let err = parse_dialect(sql, Some(&catalog2)).unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::ParamWrongType { .. }));
        let span = err.span.unwrap();
        assert_eq!(&sql[span.start..span.end], "1.5");
        assert!(parse_dialect(
            "ESTIMATE DURABILITY OF walk(beta=1, up=0.4) WITHIN 10 TARGET RE 0.5",
            Some(&catalog),
        )
        .is_ok());
    }

    fn rank_of(sql: &str) -> RankSpec {
        match parse(sql).unwrap() {
            Statement::Rank(r) => r,
            other => panic!("expected Rank, got {other:?}"),
        }
    }

    #[test]
    fn rank_by_over_an_explicit_candidate_list() {
        let r = rank_of(
            "ESTIMATE DURABILITY OF walk(beta=6, up=0.3), walk(beta=6, up=0.4), \
             walk(beta=8) WITHIN 50 USING srs TARGET RE 0.5 \
             RANK BY TOP 2 (confidence=0.9, rounds=6, round_budget=20000) \
             WITH (seed=7) ASYNC",
        );
        assert_eq!(r.arms.len(), 3);
        assert_eq!(r.top_k, 2);
        assert!((r.confidence - 0.9).abs() < 1e-12);
        assert_eq!(r.max_rounds, 6);
        assert_eq!(r.round_budget, 20_000);
        assert_eq!(r.options.seed, Some(7));
        assert_eq!(r.options.mode, ExecMode::Async);
        // Labels are the canonical model refs, parallel to the arms.
        assert_eq!(r.labels.len(), 3);
        assert_eq!(r.labels[0], r.arms[0].model_ref());
        assert!(r.labels[0].contains("up=0.3"));
        // Shared clauses land on every arm.
        for arm in &r.arms {
            assert_eq!(arm.horizon, 50);
            assert_eq!(arm.method, Method::Srs);
            assert_eq!(arm.options.seed, Some(7));
        }
    }

    #[test]
    fn rank_by_expands_a_sweep() {
        let r = rank_of(
            "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.30 TO 0.42 STEP 0.04 \
             WITHIN 50 TARGET RE 0.5 RANK BY TOP 1",
        );
        assert_eq!(r.arms.len(), 4);
        for (arm, expected) in r.arms.iter().zip([0.30, 0.34, 0.38, 0.42]) {
            assert!((arm.params["up"] - expected).abs() < 1e-9);
        }
        // Defaults fill in.
        assert_eq!(r.top_k, 1);
        assert!((r.confidence - mlss_core::spec::DEFAULT_RANK_CONFIDENCE).abs() < 1e-12);
        assert_eq!(r.max_rounds, mlss_core::spec::DEFAULT_RANK_ROUNDS);
        assert_eq!(r.round_budget, mlss_core::spec::DEFAULT_RANK_ROUND_BUDGET);
        // `beta` itself is sweepable: it varies the query, not a param.
        let r = rank_of(
            "ESTIMATE DURABILITY OF walk(up=0.4, beta=4) SWEEP beta FROM 4 TO 8 STEP 2 \
             WITHIN 50 TARGET RE 0.5 RANK BY TOP 1",
        );
        assert_eq!(r.arms.len(), 3);
        assert_eq!(
            r.arms.iter().map(|a| a.beta).collect::<Vec<_>>(),
            vec![4.0, 6.0, 8.0]
        );
        // Generated values are the decimals as written, not binary
        // `from + step·i` drift (0.30 + 0.04 = 0.33999999999999997): the
        // simulated parameter and the arm label both read `up=0.34`.
        for (sweep, expected) in [
            ("FROM 0.30 TO 0.42 STEP 0.04", [0.30, 0.34, 0.38, 0.42]),
            ("FROM 0.1 TO 0.4 STEP 0.1", [0.1, 0.2, 0.3, 0.4]),
        ] {
            let r = rank_of(&format!(
                "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up {sweep} \
                 WITHIN 50 TARGET RE 0.5 RANK BY TOP 1"
            ));
            let ups: Vec<f64> = r.arms.iter().map(|a| a.params["up"]).collect();
            assert_eq!(ups, expected, "{sweep}");
            let labels: Vec<String> = expected
                .iter()
                .map(|up| format!("walk(beta=6, up={up})"))
                .collect();
            assert_eq!(r.labels, labels, "{sweep}");
        }
        assert_eq!(decimal_places("2.5e-3"), 4);
        assert_eq!(decimal_places("-4"), 0);
    }

    #[test]
    fn rank_by_renders_back_to_a_parseable_statement() {
        let r = rank_of(
            "ESTIMATE DURABILITY OF walk(beta=6, up=0.3), walk(beta=6, up=0.4) WITHIN 50 \
             TARGET RE 0.5 RANK BY TOP 2 (rounds=6) WITH (seed=9)",
        );
        let rendered = r.render();
        let reparsed = rank_of(&rendered);
        assert_eq!(reparsed.labels, r.labels);
        assert_eq!(reparsed.top_k, r.top_k);
        assert_eq!(reparsed.max_rounds, r.max_rounds);
        assert_eq!(reparsed.options.seed, r.options.seed);
    }

    /// The malformed-`RANK BY` span table: every rejection points its
    /// byte span at the offending token, not the statement head.
    #[test]
    fn malformed_rank_by_spans_point_at_the_offender() {
        let cases: &[(&str, &str)] = &[
            // A candidate field without a ranking question: the span is
            // the first comma — the token that made it a field.
            (
                "ESTIMATE DURABILITY OF walk(beta=6, up=0.3), walk(beta=6, up=0.4) \
                 WITHIN 50 TARGET RE 0.5",
                ",",
            ),
            // …or the SWEEP keyword when the sweep made it a field.
            (
                "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.1 TO 0.3 STEP 0.1 \
                 WITHIN 50 TARGET RE 0.5",
                "SWEEP",
            ),
            // TOP k out of range.
            (
                "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 TARGET RE 0.5 RANK BY TOP 0",
                "0",
            ),
            // TOP k beyond the candidate field.
            (
                "ESTIMATE DURABILITY OF walk(beta=6, up=0.3), walk(beta=6, up=0.4) \
                 WITHIN 50 TARGET RE 0.5 RANK BY TOP 5",
                "5",
            ),
            // Ranking options out of range.
            (
                "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 TARGET RE 0.5 \
                 RANK BY TOP 1 (confidence=1.5)",
                "1.5",
            ),
            (
                "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 TARGET RE 0.5 \
                 RANK BY TOP 1 (rounds=0)",
                "0",
            ),
            (
                "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 TARGET RE 0.5 \
                 RANK BY TOP 1 (round_budget=0.5)",
                "0.5",
            ),
            // Unknown ranking option.
            (
                "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 TARGET RE 0.5 \
                 RANK BY TOP 1 (cadence=3)",
                "cadence",
            ),
            // Sweep range/step violations.
            (
                "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.5 TO 0.3 STEP 0.1 \
                 WITHIN 50 TARGET RE 0.5 RANK BY TOP 1",
                "0.3",
            ),
            (
                "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.1 TO 0.5 STEP 0 \
                 WITHIN 50 TARGET RE 0.5 RANK BY TOP 1",
                "0",
            ),
            // A sweep that would expand past the arm cap fails at the
            // step token, before materializing anything.
            (
                "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0 TO 1 STEP 0.001 \
                 WITHIN 50 TARGET RE 0.5 RANK BY TOP 1",
                "0.001",
            ),
        ];
        for (sql, at) in cases {
            let err = parse(sql).unwrap_err();
            let span = err
                .span
                .unwrap_or_else(|| panic!("no span for: {sql} ({:?})", err.kind));
            assert_eq!(&sql[span.start..span.end], *at, "wrong span for: {sql}");
        }

        // Kind checks for the two clause-level rejections above.
        let err = parse(
            "ESTIMATE DURABILITY OF walk(beta=6, up=0.3), walk(beta=6, up=0.4) \
             WITHIN 50 TARGET RE 0.5",
        )
        .unwrap_err();
        assert!(matches!(
            err.kind,
            SpecErrorKind::MissingClause { clause: "RANK BY" }
        ));
        let err = parse(
            "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 TARGET RE 0.5 \
             RANK BY TOP 1 (cadence=3)",
        )
        .unwrap_err();
        assert!(matches!(
            err.kind,
            SpecErrorKind::UnknownOption { ref name } if name == "cadence"
        ));
    }

    #[test]
    fn sweep_respects_the_schema_catalog() {
        use mlss_core::spec::ParamSpec;
        let schema = ModelSchema::new(
            "walk",
            "random walk",
            vec![ParamSpec::float("up", 0.3, 0.0, 1.0, "up probability")],
        );
        let catalog = [&schema];
        // Unknown sweep parameter, spanned at its name.
        let sql = "ESTIMATE DURABILITY OF walk(beta=6) SWEEP wat FROM 0.1 TO 0.3 STEP 0.1 \
                   WITHIN 50 TARGET RE 0.5 RANK BY TOP 1";
        let err = parse_dialect(sql, Some(&catalog)).unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::UnknownParam { .. }));
        let span = err.span.unwrap();
        assert_eq!(&sql[span.start..span.end], "wat");
        // A generated value outside the schema range is attached to the
        // sweep start (the offending value is generated, not written).
        let sql = "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.8 TO 1.2 STEP 0.2 \
                   WITHIN 50 TARGET RE 0.5 RANK BY TOP 1";
        let err = parse_dialect(sql, Some(&catalog)).unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::ParamOutOfRange { .. }));
        let span = err.span.unwrap();
        assert_eq!(&sql[span.start..span.end], "0.8");
        // In range, the sweep expands cleanly.
        assert!(parse_dialect(
            "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.2 TO 0.4 STEP 0.1 \
             WITHIN 50 TARGET RE 0.5 RANK BY TOP 1",
            Some(&catalog),
        )
        .is_ok());
    }

    #[test]
    fn explain_rank_parses() {
        assert!(matches!(
            parse(
                "EXPLAIN ESTIMATE DURABILITY OF walk(beta=6, up=0.3), walk(beta=6, up=0.4) \
                 WITHIN 50 TARGET RE 0.5 RANK BY TOP 1"
            )
            .unwrap(),
            Statement::ExplainRank(_)
        ));
    }
}
