//! Recursive-descent parser for SQL + Preference SQL.
//!
//! Operator precedence (loosest to tightest): `OR`, `AND`, `NOT`,
//! comparison/`IS`/`BETWEEN`/`IN`/`LIKE`, `+ -`, `* /`, unary `-`, primary.
//!
//! Preference-term precedence inside `PREFERRING` (loosest to tightest):
//! `CASCADE`/`,` (prioritization), `AND` (Pareto), `ELSE` (POS/POS and
//! POS/NEG combinations), base preference. This ordering is dictated by the
//! paper's examples: in `color = 'white' ELSE color = 'yellow' AND age
//! AROUND 40` the `ELSE` groups the two color conditions and the `AND`
//! Pareto-combines the result with the age preference.

use crate::ast::*;
use crate::lexer::Lexer;
use crate::token::{Keyword, Token, TokenKind};
use prefsql_types::{DataType, Error, Result, Value};

/// Parse a single statement (trailing `;` allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut stmts = parse_statements(sql)?;
    match stmts.len() {
        1 => Ok(stmts.pop().expect("len checked")),
        n => Err(Error::Parse(format!("expected one statement, found {n}"))),
    }
}

/// Parse a `;`-separated script.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>> {
    let tokens = Lexer::new(sql).tokenize()?;
    let mut p = Parser::new(tokens);
    let mut out = Vec::new();
    loop {
        while p.eat(&TokenKind::Semicolon) {}
        if p.check(&TokenKind::Eof) {
            break;
        }
        out.push(p.statement()?);
        if !p.check(&TokenKind::Eof) && !p.check(&TokenKind::Semicolon) {
            return Err(p.unexpected("';' or end of input"));
        }
    }
    Ok(out)
}

/// Parse a standalone scalar expression (used in tests and by tools).
pub fn parse_expression(sql: &str) -> Result<Expr> {
    let tokens = Lexer::new(sql).tokenize()?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    p.expect(&TokenKind::Eof)?;
    Ok(e)
}

/// Maximum expression/query nesting depth. Recursive-descent parsing uses
/// one stack frame chain per nesting level; bounding it turns pathological
/// inputs (thousands of parentheses) into a clean parse error instead of a
/// stack overflow.
/// 48 levels keeps worst-case stack use (≈8 frames per level, large
/// `Query` temporaries in debug builds) comfortably inside the default
/// 2 MiB thread stack while being far beyond any real query.
const MAX_DEPTH: u32 = 48;

/// Maximum binary operators (`AND`, `OR`, `+ - * /`) in one expression,
/// counted from its outermost start through everything nested in it.
/// The parser builds a chain of them iteratively, but the tree is as deep
/// as the chain is long, and the binder, the rewriter, the evaluator and
/// `Drop` all recurse over it. Measured on a 2 MiB thread (what
/// `thread::spawn` gives): a release build aborts with a stack overflow
/// between 2 500 and 3 000 chained conjuncts, in every shape tried
/// (WHERE, select list, `CASE`, derived table, either mode). 1 000 leaves
/// a margin of 2.5 there. A debug build's frames are larger: it overflows
/// near 350, and needs 5–6 MiB for 1 000 (the server's workers get 16).
const MAX_CHAIN: u32 = 1_000;

/// The recursive-descent parser.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: u32,
    /// Expressions being parsed, nested in each other.
    open: u32,
    /// Binary operators since the outermost of them began ([`MAX_CHAIN`]).
    links: u32,
}

impl Parser {
    /// Create a parser over a token stream (must end with EOF).
    pub fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            open: 0,
            links: 0,
        }
    }

    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error::Parse(format!(
                "expression/query nesting deeper than {MAX_DEPTH} levels"
            )));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Count one more binary operator of the expression being parsed.
    fn link(&mut self) -> Result<()> {
        self.links += 1;
        if self.links > MAX_CHAIN {
            return Err(Error::Parse(format!(
                "expression with more than {MAX_CHAIN} chained operators"
            )));
        }
        Ok(())
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, off: usize) -> &TokenKind {
        &self.tokens[(self.pos + off).min(self.tokens.len() - 1)].kind
    }

    fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn check(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn check_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if *k == kw)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if self.check_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.unexpected(&kind.to_string()))
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("{kw:?}")))
        }
    }

    fn unexpected(&self, wanted: &str) -> Error {
        let t = &self.tokens[self.pos.min(self.tokens.len() - 1)];
        Error::Parse(format!(
            "expected {wanted}, found {} at line {}, column {}",
            t.kind, t.line, t.col
        ))
    }

    /// Identifier, or keyword used as an identifier is *not* allowed.
    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            _ => Err(self.unexpected("identifier")),
        }
    }

    // ---------------------------------------------------------- statements

    /// Parse one statement.
    pub fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw(Keyword::Explain) {
            let analyze = self.eat_kw(Keyword::Analyze);
            return Ok(Statement::Explain {
                analyze,
                statement: Box::new(self.statement()?),
            });
        }
        match self.peek() {
            TokenKind::Keyword(Keyword::Select) => Ok(Statement::Select(Box::new(self.query()?))),
            TokenKind::Keyword(Keyword::Insert) => self.insert(),
            TokenKind::Keyword(Keyword::Delete) => self.delete(),
            TokenKind::Keyword(Keyword::Update) => self.update(),
            TokenKind::Keyword(Keyword::Create) => self.create(),
            TokenKind::Keyword(Keyword::Drop) => self.drop(),
            TokenKind::Keyword(Keyword::Refresh) => self.refresh(),
            _ => Err(self.unexpected(
                "a statement (SELECT/INSERT/UPDATE/DELETE/CREATE/DROP/REFRESH/EXPLAIN)",
            )),
        }
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Insert)?;
        self.expect_kw(Keyword::Into)?;
        let table = self.ident()?;
        let columns =
            if self.check(&TokenKind::LParen) && matches!(self.peek_at(1), TokenKind::Ident(_)) {
                self.expect(&TokenKind::LParen)?;
                let mut cols = vec![self.ident()?];
                while self.eat(&TokenKind::Comma) {
                    cols.push(self.ident()?);
                }
                self.expect(&TokenKind::RParen)?;
                Some(cols)
            } else {
                None
            };
        let source = if self.eat_kw(Keyword::Values) {
            let mut rows = Vec::new();
            loop {
                self.expect(&TokenKind::LParen)?;
                let mut row = vec![self.expr()?];
                while self.eat(&TokenKind::Comma) {
                    row.push(self.expr()?);
                }
                self.expect(&TokenKind::RParen)?;
                rows.push(row);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else {
            InsertSource::Query(Box::new(self.query()?))
        };
        Ok(Statement::Insert {
            table,
            columns,
            source,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Delete)?;
        self.expect_kw(Keyword::From)?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            table,
            where_clause,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Update)?;
        let table = self.ident()?;
        self.expect_kw(Keyword::Set)?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&TokenKind::Eq)?;
            let value = self.expr()?;
            assignments.push((col, value));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            where_clause,
        })
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Create)?;
        if self.eat_kw(Keyword::Table) {
            let name = self.ident()?;
            self.expect(&TokenKind::LParen)?;
            let mut columns = vec![self.column_def()?];
            while self.eat(&TokenKind::Comma) {
                columns.push(self.column_def()?);
            }
            self.expect(&TokenKind::RParen)?;
            Ok(Statement::CreateTable { name, columns })
        } else if self.eat_kw(Keyword::View) {
            let name = self.ident()?;
            self.expect_kw(Keyword::As)?;
            let query = Box::new(self.query()?);
            Ok(Statement::CreateView { name, query })
        } else if self.eat_kw(Keyword::Materialized) {
            // `PREFERENCE` is optional: `CREATE MATERIALIZED [PREFERENCE] VIEW`.
            self.eat_kw(Keyword::Preference);
            self.expect_kw(Keyword::View)?;
            let name = self.ident()?;
            self.expect_kw(Keyword::As)?;
            let query = Box::new(self.query()?);
            Ok(Statement::CreateMaterializedView { name, query })
        } else if self.check_kw(Keyword::Index) || self.check_kw(Keyword::Unique) {
            self.eat_kw(Keyword::Unique); // accepted, treated as plain index
            self.expect_kw(Keyword::Index)?;
            let name = self.ident()?;
            self.expect_kw(Keyword::On)?;
            let table = self.ident()?;
            self.expect(&TokenKind::LParen)?;
            let mut columns = vec![self.ident()?];
            while self.eat(&TokenKind::Comma) {
                columns.push(self.ident()?);
            }
            self.expect(&TokenKind::RParen)?;
            let mut hash = false;
            if self.eat_kw(Keyword::Using) {
                let method = self.ident()?;
                match method.as_str() {
                    "hash" => hash = true,
                    "btree" => hash = false,
                    other => {
                        return Err(Error::Parse(format!(
                            "unknown index method '{other}' (expected HASH or BTREE)"
                        )))
                    }
                }
            }
            Ok(Statement::CreateIndex {
                name,
                table,
                columns,
                hash,
            })
        } else if self.eat_kw(Keyword::Preference) {
            let name = self.ident()?;
            self.expect_kw(Keyword::As)?;
            let pref = self.preference()?;
            Ok(Statement::CreatePreference { name, pref })
        } else {
            Err(self.unexpected("TABLE, VIEW, INDEX or PREFERENCE after CREATE"))
        }
    }

    fn drop(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Drop)?;
        if self.eat_kw(Keyword::Table) {
            Ok(Statement::DropTable(self.ident()?))
        } else if self.eat_kw(Keyword::View) {
            Ok(Statement::DropView(self.ident()?))
        } else if self.eat_kw(Keyword::Materialized) {
            self.eat_kw(Keyword::Preference);
            self.expect_kw(Keyword::View)?;
            Ok(Statement::DropMaterializedView(self.ident()?))
        } else if self.eat_kw(Keyword::Preference) {
            Ok(Statement::DropPreference(self.ident()?))
        } else {
            Err(self.unexpected("TABLE, VIEW, MATERIALIZED VIEW or PREFERENCE after DROP"))
        }
    }

    fn refresh(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Refresh)?;
        self.expect_kw(Keyword::Materialized)?;
        self.eat_kw(Keyword::Preference);
        self.expect_kw(Keyword::View)?;
        Ok(Statement::RefreshMaterializedView(self.ident()?))
    }

    fn column_def(&mut self) -> Result<ColumnDef> {
        let name = self.ident()?;
        let data_type = self.data_type()?;
        let mut not_null = false;
        loop {
            if self.eat_kw(Keyword::Not) {
                self.expect_kw(Keyword::Null)?;
                not_null = true;
            } else if self.eat_kw(Keyword::Primary) {
                // PRIMARY KEY is accepted and implies NOT NULL; uniqueness
                // enforcement is out of scope for the host engine.
                self.expect_kw(Keyword::Key)?;
                not_null = true;
            } else {
                break;
            }
        }
        Ok(ColumnDef {
            name,
            data_type,
            not_null,
        })
    }

    fn data_type(&mut self) -> Result<DataType> {
        let t = match self.peek() {
            TokenKind::Keyword(Keyword::Integer) | TokenKind::Keyword(Keyword::Int) => {
                DataType::Int
            }
            TokenKind::Keyword(Keyword::Float)
            | TokenKind::Keyword(Keyword::Double)
            | TokenKind::Keyword(Keyword::Numeric) => DataType::Float,
            TokenKind::Keyword(Keyword::Varchar) | TokenKind::Keyword(Keyword::Text) => {
                DataType::Str
            }
            TokenKind::Keyword(Keyword::Boolean) => DataType::Bool,
            TokenKind::Keyword(Keyword::Date) => DataType::Date,
            _ => return Err(self.unexpected("a data type")),
        };
        self.advance();
        // Optional length/precision arguments: VARCHAR(40), NUMERIC(10, 2).
        if self.eat(&TokenKind::LParen) {
            loop {
                match self.advance() {
                    TokenKind::IntLit(_) => {}
                    _ => return Err(self.unexpected("a length/precision integer")),
                }
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        // DOUBLE PRECISION.
        if let TokenKind::Ident(s) = self.peek() {
            if s == "precision" {
                self.advance();
            }
        }
        Ok(t)
    }

    // --------------------------------------------------------------- query

    /// Parse a query block (§2.2.5 of the paper):
    /// `SELECT .. FROM .. [WHERE ..] [PREFERRING ..] [GROUPING ..]
    ///  [BUT ONLY ..] [GROUP BY ..] [HAVING ..] [ORDER BY ..] [LIMIT n]`.
    pub fn query(&mut self) -> Result<Query> {
        self.enter()?;
        let r = self.query_inner();
        self.leave();
        r
    }

    fn query_inner(&mut self) -> Result<Query> {
        self.expect_kw(Keyword::Select)?;
        let distinct = self.eat_kw(Keyword::Distinct);
        let mut select = vec![self.select_item()?];
        while self.eat(&TokenKind::Comma) {
            select.push(self.select_item()?);
        }
        let mut from = Vec::new();
        if self.eat_kw(Keyword::From) {
            from.push(self.table_ref()?);
            while self.eat(&TokenKind::Comma) {
                from.push(self.table_ref()?);
            }
        }
        let where_clause = if self.eat_kw(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        let preferring = if self.eat_kw(Keyword::Preferring) {
            Some(self.preference()?)
        } else {
            None
        };
        let mut grouping = Vec::new();
        if self.eat_kw(Keyword::Grouping) {
            grouping.push(self.expr()?);
            while self.eat(&TokenKind::Comma) {
                grouping.push(self.expr()?);
            }
        }
        let but_only = if self.eat_kw(Keyword::But) {
            self.expect_kw(Keyword::Only)?;
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw(Keyword::Group) {
            self.expect_kw(Keyword::By)?;
            group_by.push(self.expr()?);
            while self.eat(&TokenKind::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_kw(Keyword::Having) {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw(Keyword::Order) {
            self.expect_kw(Keyword::By)?;
            loop {
                let expr = self.expr()?;
                let asc = if self.eat_kw(Keyword::Desc) {
                    false
                } else {
                    self.eat_kw(Keyword::Asc);
                    true
                };
                order_by.push(OrderByItem { expr, asc });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw(Keyword::Limit) {
            match self.advance() {
                TokenKind::IntLit(n) if n >= 0 => Some(n as u64),
                _ => return Err(self.unexpected("a non-negative LIMIT count")),
            }
        } else {
            None
        };
        if grouping.is_empty() && but_only.is_some() && preferring.is_none() {
            return Err(Error::Parse("BUT ONLY requires a PREFERRING clause".into()));
        }
        if !grouping.is_empty() && preferring.is_none() {
            return Err(Error::Parse("GROUPING requires a PREFERRING clause".into()));
        }
        Ok(Query {
            select,
            distinct,
            from,
            where_clause,
            preferring,
            grouping,
            but_only,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `t.*`
        if let (TokenKind::Ident(t), TokenKind::Dot, TokenKind::Star) =
            (self.peek(), self.peek_at(1), self.peek_at(2))
        {
            let t = t.clone();
            self.advance();
            self.advance();
            self.advance();
            return Ok(SelectItem::QualifiedWildcard(t));
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw(Keyword::As) {
            Some(self.ident()?)
        } else if let TokenKind::Ident(_) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_primary()?;
        loop {
            if self.eat_kw(Keyword::Cross) {
                self.expect_kw(Keyword::Join)?;
                let right = self.table_primary()?;
                left = TableRef::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    on: None,
                };
            } else if self.check_kw(Keyword::Join) || self.check_kw(Keyword::Inner) {
                self.eat_kw(Keyword::Inner);
                self.expect_kw(Keyword::Join)?;
                let right = self.table_primary()?;
                self.expect_kw(Keyword::On)?;
                let on = self.expr()?;
                left = TableRef::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    on: Some(on),
                };
            } else {
                return Ok(left);
            }
        }
    }

    fn table_primary(&mut self) -> Result<TableRef> {
        if self.eat(&TokenKind::LParen) {
            let query = Box::new(self.query()?);
            self.expect(&TokenKind::RParen)?;
            self.eat_kw(Keyword::As);
            let alias = self
                .ident()
                .map_err(|_| Error::Parse("a derived table requires an alias".into()))?;
            return Ok(TableRef::Derived { query, alias });
        }
        let name = self.ident()?;
        let alias = if self.eat_kw(Keyword::As) {
            Some(self.ident()?)
        } else if let TokenKind::Ident(_) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef::Named { name, alias })
    }

    // --------------------------------------------------------- expressions

    /// Parse a scalar expression.
    pub fn expr(&mut self) -> Result<Expr> {
        if self.open == 0 {
            self.links = 0;
        }
        self.enter()?;
        self.open += 1;
        let r = self.or_expr();
        self.open -= 1;
        self.leave();
        r
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw(Keyword::Or) {
            self.link()?;
            let right = self.and_expr()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw(Keyword::And) {
            self.link()?;
            let right = self.not_expr()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw(Keyword::Not) {
            self.enter()?;
            let e = self.not_expr();
            // Normalize `NOT EXISTS (...)` into the negated Exists node the
            // rewriter and planner pattern-match on.
            let e = match e {
                Ok(e) => e,
                Err(err) => {
                    self.leave();
                    return Err(err);
                }
            };
            self.leave();
            if let Expr::Exists { query, negated } = e {
                return Ok(Expr::Exists {
                    query,
                    negated: !negated,
                });
            }
            Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            })
        } else {
            self.predicate()
        }
    }

    fn predicate(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // Comparison operators.
        let op = match self.peek() {
            TokenKind::Eq => Some(BinaryOp::Eq),
            TokenKind::NotEq => Some(BinaryOp::NotEq),
            TokenKind::Lt => Some(BinaryOp::Lt),
            TokenKind::LtEq => Some(BinaryOp::LtEq),
            TokenKind::Gt => Some(BinaryOp::Gt),
            TokenKind::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.additive()?;
            return Ok(Expr::binary(left, op, right));
        }
        // IS [NOT] NULL.
        if self.eat_kw(Keyword::Is) {
            let negated = self.eat_kw(Keyword::Not);
            self.expect_kw(Keyword::Null)?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] BETWEEN / IN / LIKE.
        let negated = self.eat_kw(Keyword::Not);
        if self.eat_kw(Keyword::Between) {
            let low = self.additive()?;
            self.expect_kw(Keyword::And)?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw(Keyword::In) {
            self.expect(&TokenKind::LParen)?;
            if self.check_kw(Keyword::Select) {
                let query = Box::new(self.query()?);
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query,
                    negated,
                });
            }
            let mut list = vec![self.expr()?];
            while self.eat(&TokenKind::Comma) {
                list.push(self.expr()?);
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw(Keyword::Like) {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(self.unexpected("BETWEEN, IN or LIKE after NOT"));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinaryOp::Plus,
                TokenKind::Minus => BinaryOp::Minus,
                _ => return Ok(left),
            };
            self.advance();
            self.link()?;
            let right = self.multiplicative()?;
            left = Expr::binary(left, op, right);
        }
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                _ => return Ok(left),
            };
            self.advance();
            self.link()?;
            let right = self.unary()?;
            left = Expr::binary(left, op, right);
        }
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            self.enter()?;
            let e = self.unary();
            self.leave();
            let e = e?;
            // Fold negation of literals so `-3` is a literal, which the
            // preference value lists rely on.
            if let Expr::Literal(v) = &e {
                if let Ok(n) = v.neg() {
                    return Ok(Expr::Literal(n));
                }
            }
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(e),
            });
        }
        if self.eat(&TokenKind::Plus) {
            self.enter()?;
            let r = self.unary();
            self.leave();
            return r;
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::IntLit(v) => {
                self.advance();
                Ok(Expr::Literal(Value::Int(v)))
            }
            TokenKind::FloatLit(v) => {
                self.advance();
                Ok(Expr::Literal(Value::Float(v)))
            }
            TokenKind::StringLit(s) => {
                self.advance();
                Ok(Expr::Literal(Value::Str(s)))
            }
            TokenKind::Keyword(Keyword::Null) => {
                self.advance();
                Ok(Expr::Literal(Value::Null))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.advance();
                Ok(Expr::Literal(Value::Bool(true)))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.advance();
                Ok(Expr::Literal(Value::Bool(false)))
            }
            TokenKind::Keyword(Keyword::Date) => {
                // DATE 'YYYY-MM-DD' literal.
                self.advance();
                match self.advance() {
                    TokenKind::StringLit(s) => {
                        let d = prefsql_types::Date::parse(&s)?;
                        Ok(Expr::Literal(Value::Date(d)))
                    }
                    _ => Err(self.unexpected("a date string after DATE")),
                }
            }
            TokenKind::Keyword(Keyword::Case) => self.case_expr(),
            TokenKind::Keyword(Keyword::Exists) => {
                self.advance();
                self.expect(&TokenKind::LParen)?;
                let query = Box::new(self.query()?);
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::Exists {
                    query,
                    negated: false,
                })
            }
            TokenKind::Keyword(Keyword::Not)
                if matches!(self.peek_at(1), TokenKind::Keyword(Keyword::Exists)) =>
            {
                self.advance();
                self.advance();
                self.expect(&TokenKind::LParen)?;
                let query = Box::new(self.query()?);
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::Exists {
                    query,
                    negated: true,
                })
            }
            // Quality functions and scalar/aggregate functions share
            // call syntax; some use keyword tokens.
            TokenKind::Keyword(kw)
                if matches!(
                    kw,
                    Keyword::Top | Keyword::Level | Keyword::Distance | Keyword::Left
                ) && self.peek_at(1) == &TokenKind::LParen =>
            {
                self.advance();
                let name = format!("{kw:?}").to_ascii_lowercase();
                self.function_call(name)
            }
            TokenKind::LParen => {
                self.advance();
                if self.check_kw(Keyword::Select) {
                    let query = Box::new(self.query()?);
                    self.expect(&TokenKind::RParen)?;
                    return Ok(Expr::ScalarSubquery(query));
                }
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.advance();
                if self.check(&TokenKind::LParen) {
                    return self.function_call(name);
                }
                if self.eat(&TokenKind::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        qualifier: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column {
                    qualifier: None,
                    name,
                })
            }
            _ => Err(self.unexpected("an expression")),
        }
    }

    fn function_call(&mut self, name: String) -> Result<Expr> {
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.check(&TokenKind::RParen) {
            if self.eat(&TokenKind::Star) {
                args.push(Expr::Wildcard);
            } else {
                // DISTINCT inside aggregates is not supported; reject early.
                if self.check_kw(Keyword::Distinct) {
                    return Err(Error::Unsupported(format!(
                        "DISTINCT inside {name}() is not supported"
                    )));
                }
                args.push(self.expr()?);
                while self.eat(&TokenKind::Comma) {
                    args.push(self.expr()?);
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Expr::Function { name, args })
    }

    fn case_expr(&mut self) -> Result<Expr> {
        self.expect_kw(Keyword::Case)?;
        let operand = if self.check_kw(Keyword::When) {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_kw(Keyword::When) {
            let when = self.expr()?;
            self.expect_kw(Keyword::Then)?;
            let then = self.expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(self.unexpected("WHEN"));
        }
        let else_result = if self.eat_kw(Keyword::Else) {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw(Keyword::End)?;
        Ok(Expr::Case {
            operand,
            branches,
            else_result,
        })
    }

    // ----------------------------------------------------- preference terms

    /// Parse a preference term (the body of a PREFERRING clause or of
    /// `CREATE PREFERENCE ... AS`).
    pub fn preference(&mut self) -> Result<PrefExpr> {
        self.enter()?;
        let r = self.cascade_pref();
        self.leave();
        r
    }

    fn cascade_pref(&mut self) -> Result<PrefExpr> {
        let mut parts = vec![self.pareto_pref()?];
        loop {
            if self.eat_kw(Keyword::Cascade) {
                parts.push(self.pareto_pref()?);
            } else if self.check(&TokenKind::Comma) && self.starts_preference(1) {
                // ',' is a CASCADE synonym (paper §2.2.2), but only when a
                // preference term actually follows — the comma could belong
                // to an enclosing context otherwise.
                self.advance();
                parts.push(self.pareto_pref()?);
            } else {
                break;
            }
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("non-empty")
        } else {
            PrefExpr::Prioritized(parts)
        })
    }

    /// Heuristic look-ahead: does a preference term start at offset `off`?
    fn starts_preference(&self, off: usize) -> bool {
        matches!(
            self.peek_at(off),
            TokenKind::Keyword(Keyword::Lowest)
                | TokenKind::Keyword(Keyword::Highest)
                | TokenKind::Keyword(Keyword::Preference)
                | TokenKind::Ident(_)
                | TokenKind::LParen
        )
    }

    fn pareto_pref(&mut self) -> Result<PrefExpr> {
        let mut parts = vec![self.else_pref()?];
        while self.eat_kw(Keyword::And) {
            parts.push(self.else_pref()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("non-empty")
        } else {
            PrefExpr::Pareto(parts)
        })
    }

    fn else_pref(&mut self) -> Result<PrefExpr> {
        let first = self.base_pref()?;
        if !self.eat_kw(Keyword::Else) {
            return Ok(first);
        }
        let second = self.base_pref()?;
        // ELSE combines two POS/NEG-shaped base preferences over the same
        // attribute expression into POS/POS or POS/NEG (paper §2.2.1).
        match (first, second) {
            (
                PrefExpr::Pos {
                    expr: e1,
                    values: v1,
                },
                PrefExpr::Pos {
                    expr: e2,
                    values: v2,
                },
            ) => {
                if e1 != e2 {
                    return Err(Error::Parse(
                        "both sides of ELSE must reference the same attribute".into(),
                    ));
                }
                Ok(PrefExpr::PosPos {
                    expr: e1,
                    first: v1,
                    second: v2,
                })
            }
            (
                PrefExpr::Pos {
                    expr: e1,
                    values: v1,
                },
                PrefExpr::Neg {
                    expr: e2,
                    values: v2,
                },
            ) => {
                if e1 != e2 {
                    return Err(Error::Parse(
                        "both sides of ELSE must reference the same attribute".into(),
                    ));
                }
                Ok(PrefExpr::PosNeg {
                    expr: e1,
                    pos: v1,
                    neg: v2,
                })
            }
            _ => Err(Error::Parse(
                "ELSE combines POS with POS or POS with NEG preferences".into(),
            )),
        }
    }

    fn base_pref(&mut self) -> Result<PrefExpr> {
        if self.eat_kw(Keyword::Lowest) {
            self.expect(&TokenKind::LParen)?;
            let expr = self.expr()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(PrefExpr::Lowest { expr });
        }
        if self.eat_kw(Keyword::Highest) {
            self.expect(&TokenKind::LParen)?;
            let expr = self.expr()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(PrefExpr::Highest { expr });
        }
        if self.eat_kw(Keyword::Preference) {
            return Ok(PrefExpr::Named(self.ident()?));
        }
        if self.check(&TokenKind::LParen) {
            // Either a grouped preference term `(pref CASCADE pref)` or a
            // parenthesized scalar expression `(price + tax) AROUND 100`.
            // Try the preference reading first and backtrack on failure.
            let save = self.pos;
            self.advance();
            if let Ok(p) = self.preference() {
                if self.eat(&TokenKind::RParen) {
                    return Ok(p);
                }
            }
            self.pos = save;
        }
        // Expression-headed base preference.
        let expr = self.additive()?;
        match self.peek().clone() {
            TokenKind::Keyword(Keyword::Around) => {
                self.advance();
                let target = Box::new(self.additive()?);
                Ok(PrefExpr::Around { expr, target })
            }
            TokenKind::Keyword(Keyword::Between) => {
                // Preference BETWEEN uses comma syntax: `BETWEEN low, up`
                // (paper §4.1: `powerconsumption BETWEEN 0, 0.9`). The
                // `BETWEEN low AND up` spelling is also accepted when
                // unambiguous is impossible here (AND means Pareto), so the
                // comma form is required.
                self.advance();
                let low = Box::new(self.additive()?);
                self.expect(&TokenKind::Comma)?;
                let up = Box::new(self.additive()?);
                Ok(PrefExpr::Between { expr, low, up })
            }
            TokenKind::Keyword(Keyword::In) => {
                self.advance();
                let values = self.value_list()?;
                Ok(PrefExpr::Pos { expr, values })
            }
            TokenKind::Keyword(Keyword::Not)
                if matches!(self.peek_at(1), TokenKind::Keyword(Keyword::In)) =>
            {
                self.advance();
                self.advance();
                let values = self.value_list()?;
                Ok(PrefExpr::Neg { expr, values })
            }
            TokenKind::Eq => {
                self.advance();
                let v = self.literal_value()?;
                Ok(PrefExpr::Pos {
                    expr,
                    values: vec![v],
                })
            }
            TokenKind::NotEq => {
                self.advance();
                let v = self.literal_value()?;
                Ok(PrefExpr::Neg {
                    expr,
                    values: vec![v],
                })
            }
            TokenKind::Keyword(Keyword::Explicit) => {
                self.advance();
                self.expect(&TokenKind::LParen)?;
                let mut edges = Vec::new();
                loop {
                    let better = self.literal_value()?;
                    self.expect_kw(Keyword::Better)?;
                    let worse = self.literal_value()?;
                    edges.push((better, worse));
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen)?;
                Ok(PrefExpr::Explicit { expr, edges })
            }
            TokenKind::Keyword(Keyword::Contains) => {
                self.advance();
                let mut terms = Vec::new();
                if self.eat(&TokenKind::LParen) {
                    loop {
                        match self.advance() {
                            TokenKind::StringLit(s) => terms.push(s),
                            _ => return Err(self.unexpected("a string search term")),
                        }
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                } else {
                    match self.advance() {
                        TokenKind::StringLit(s) => terms.push(s),
                        _ => return Err(self.unexpected("a string search term")),
                    }
                }
                Ok(PrefExpr::Contains { expr, terms })
            }
            _ => Err(self.unexpected(
                "a preference constructor (AROUND, BETWEEN, IN, =, <>, EXPLICIT, CONTAINS)",
            )),
        }
    }

    fn value_list(&mut self) -> Result<Vec<Value>> {
        self.expect(&TokenKind::LParen)?;
        let mut values = vec![self.literal_value()?];
        while self.eat(&TokenKind::Comma) {
            values.push(self.literal_value()?);
        }
        self.expect(&TokenKind::RParen)?;
        Ok(values)
    }

    fn literal_value(&mut self) -> Result<Value> {
        let negate = self.eat(&TokenKind::Minus);
        let v = match self.advance() {
            TokenKind::IntLit(v) => Value::Int(v),
            TokenKind::FloatLit(v) => Value::Float(v),
            TokenKind::StringLit(s) => Value::Str(s),
            TokenKind::Keyword(Keyword::Null) => Value::Null,
            TokenKind::Keyword(Keyword::True) => Value::Bool(true),
            TokenKind::Keyword(Keyword::False) => Value::Bool(false),
            _ => return Err(self.unexpected("a literal value")),
        };
        if negate {
            v.neg()
        } else {
            Ok(v)
        }
    }
}
