//! Recursive-descent parser for the query language.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query   := PATTERN SEQ '(' comp (',' comp)* ')'
//!            (WHERE expr)? WITHIN INT (RETURN proj (',' proj)*)?
//! comp    := '!'? IDENT ('|' IDENT)* IDENT
//! proj    := IDENT '.' IDENT
//! expr    := or
//! or      := and (OR and)*
//! and     := not (AND not)*
//! not     := (NOT | '!') not | cmp
//! cmp     := add (('=='|'!='|'<'|'<='|'>'|'>=') add)?
//! add     := mul (('+'|'-') mul)*
//! mul     := unary (('*'|'/') unary)*
//! unary   := '-' unary | primary
//! primary := INT | FLOAT | STR | true | false
//!          | IDENT '.' IDENT | '(' expr ')'
//! ```
//!
//! `or`, `and`, `add` and `mul` are one left-associative loop
//! (`Parser::level`) over their operators; a comparison takes one
//! operator and does not chain.

use sequin_types::Value;

use crate::ast::{ComponentAst, ExprAst, ProjectionAst, QueryAst};
use crate::error::ParseError;
use crate::expr::{BinaryOp, UnaryOp};
use crate::lexer::{tokenize, Token, TokenKind};

/// Parses query text into the raw AST.
pub(crate) fn parse_text(src: &str) -> Result<QueryAst, ParseError> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, ParseError> {
        if self.peek().kind == kind {
            Ok(self.advance())
        } else {
            Err(self.unexpected(&format!("expected {}", kind.describe())))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(String, usize), ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                let off = self.peek().offset;
                self.advance();
                Ok((s, off))
            }
            _ => Err(self.unexpected(&format!("expected {what}"))),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.peek().kind == TokenKind::Eof {
            Ok(())
        } else {
            Err(self.unexpected("expected end of query"))
        }
    }

    fn unexpected(&self, msg: &str) -> ParseError {
        let t = self.peek();
        ParseError::new(t.offset, format!("{msg}, found {}", t.kind.describe()))
    }

    fn query(&mut self) -> Result<QueryAst, ParseError> {
        self.expect(TokenKind::Pattern)?;
        self.expect(TokenKind::Seq)?;
        self.expect(TokenKind::LParen)?;
        let mut components = vec![self.component()?];
        while self.eat(&TokenKind::Comma) {
            components.push(self.component()?);
        }
        self.expect(TokenKind::RParen)?;
        let filter = if self.eat(&TokenKind::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(TokenKind::Within)?;
        let within = match self.peek().kind {
            TokenKind::Int(n) if n >= 0 => {
                self.advance();
                n as u64
            }
            _ => return Err(self.unexpected("expected a non-negative window length")),
        };
        let mut returns = Vec::new();
        if self.eat(&TokenKind::Return) {
            returns.push(self.projection()?);
            while self.eat(&TokenKind::Comma) {
                returns.push(self.projection()?);
            }
        }
        Ok(QueryAst {
            components,
            filter,
            within,
            returns,
        })
    }

    fn component(&mut self) -> Result<ComponentAst, ParseError> {
        let offset = self.peek().offset;
        let negated = self.eat(&TokenKind::Bang) || self.eat(&TokenKind::Not);
        let (first, _) = self.expect_ident("an event type name")?;
        let mut type_names = vec![first];
        while self.eat(&TokenKind::Pipe) {
            let (next, _) = self.expect_ident("an event type name")?;
            type_names.push(next);
        }
        let (var, _) = self.expect_ident("a variable name")?;
        Ok(ComponentAst {
            negated,
            type_names,
            var,
            offset,
        })
    }

    fn projection(&mut self) -> Result<ProjectionAst, ParseError> {
        let (var, offset) = self.expect_ident("a variable name")?;
        self.expect(TokenKind::Dot)?;
        let (field, _) = self.expect_ident("a field name")?;
        Ok(ProjectionAst { var, field, offset })
    }

    fn expr(&mut self) -> Result<ExprAst, ParseError> {
        self.level(&[BinaryOp::Or], |p| {
            p.level(&[BinaryOp::And], Parser::not_expr)
        })
    }

    /// One left-associative precedence level: `next (op next)*` for the
    /// operators `ops`.
    fn level(
        &mut self,
        ops: &[BinaryOp],
        next: impl Fn(&mut Parser) -> Result<ExprAst, ParseError>,
    ) -> Result<ExprAst, ParseError> {
        let mut lhs = next(self)?;
        while let TokenKind::Op(op) = self.peek().kind {
            if !ops.contains(&op) {
                break;
            }
            self.advance();
            lhs = binary(op, lhs, next(self)?);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<ExprAst, ParseError> {
        if self.eat(&TokenKind::Not) || self.eat(&TokenKind::Bang) {
            let inner = self.not_expr()?;
            Ok(ExprAst::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            })
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<ExprAst, ParseError> {
        let lhs = self.add_expr()?;
        match self.peek().kind {
            TokenKind::Op(op) if op.is_comparison() => {
                self.advance();
                Ok(binary(op, lhs, self.add_expr()?))
            }
            _ => Ok(lhs),
        }
    }

    fn add_expr(&mut self) -> Result<ExprAst, ParseError> {
        self.level(&[BinaryOp::Add, BinaryOp::Sub], |p| {
            p.level(&[BinaryOp::Mul, BinaryOp::Div], Parser::unary_expr)
        })
    }

    fn unary_expr(&mut self) -> Result<ExprAst, ParseError> {
        if self.eat(&TokenKind::Op(BinaryOp::Sub)) {
            let inner = self.unary_expr()?;
            Ok(ExprAst::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            })
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<ExprAst, ParseError> {
        let value = match self.peek().kind {
            TokenKind::Int(n) => Value::Int(n),
            TokenKind::Float(x) => Value::Float(x),
            TokenKind::Str(ref s) => Value::str(s.as_str()),
            TokenKind::True => Value::Bool(true),
            TokenKind::False => Value::Bool(false),
            TokenKind::LParen => {
                self.advance();
                let inner = self.expr()?;
                self.expect(TokenKind::RParen)?;
                return Ok(inner);
            }
            TokenKind::Ident(_) => {
                let (var, offset) = self.expect_ident("a variable name")?;
                self.expect(TokenKind::Dot)?;
                let (field, _) = self.expect_ident("a field name")?;
                return Ok(ExprAst::Attr { var, field, offset });
            }
            _ => return Err(self.unexpected("expected an expression")),
        };
        self.advance();
        Ok(ExprAst::Const(value))
    }
}

fn binary(op: BinaryOp, lhs: ExprAst, rhs: ExprAst) -> ExprAst {
    ExprAst::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_query_parses() {
        let q = parse_text("PATTERN SEQ(A a, B b) WITHIN 10").unwrap();
        assert_eq!(q.components.len(), 2);
        assert_eq!(q.within, 10);
        assert!(q.filter.is_none());
        assert!(q.returns.is_empty());
    }

    #[test]
    fn alternation_components() {
        let q = parse_text("PATTERN SEQ(A|B ab, !C|D cd, E e) WITHIN 10").unwrap();
        assert_eq!(
            q.components[0].type_names,
            vec!["A".to_owned(), "B".to_owned()]
        );
        assert!(q.components[1].negated);
        assert_eq!(q.components[1].type_names.len(), 2);
        assert_eq!(q.components[2].type_names, vec!["E".to_owned()]);
    }

    #[test]
    fn alternation_requires_type_after_pipe() {
        assert!(parse_text("PATTERN SEQ(A| ab) WITHIN 10").is_err());
    }

    #[test]
    fn negated_component_with_bang_and_not() {
        let q = parse_text("PATTERN SEQ(A a, !B b, NOT C c, D d) WITHIN 10").unwrap();
        assert!(!q.components[0].negated);
        assert!(q.components[1].negated);
        assert!(q.components[2].negated);
        assert!(!q.components[3].negated);
    }

    #[test]
    fn where_clause_precedence() {
        let q = parse_text(
            "PATTERN SEQ(A a, B b) WHERE a.x + b.y * 2 > 3 AND a.x == b.y OR NOT a.z WITHIN 5",
        )
        .unwrap();
        // top level must be OR
        match q.filter.unwrap() {
            ExprAst::Binary {
                op: BinaryOp::Or,
                lhs,
                rhs,
            } => {
                assert!(matches!(
                    *lhs,
                    ExprAst::Binary {
                        op: BinaryOp::And,
                        ..
                    }
                ));
                assert!(matches!(
                    *rhs,
                    ExprAst::Unary {
                        op: UnaryOp::Not,
                        ..
                    }
                ));
            }
            other => panic!("unexpected tree: {other:?}"),
        }
    }

    #[test]
    fn mul_binds_tighter_than_add() {
        let q = parse_text("PATTERN SEQ(A a) WHERE a.x + a.y * a.z == 0 WITHIN 5").unwrap();
        match q.filter.unwrap() {
            ExprAst::Binary {
                op: BinaryOp::Eq,
                lhs,
                ..
            } => match *lhs {
                ExprAst::Binary {
                    op: BinaryOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(
                        *rhs,
                        ExprAst::Binary {
                            op: BinaryOp::Mul,
                            ..
                        }
                    ));
                }
                other => panic!("unexpected: {other:?}"),
            },
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn return_clause() {
        let q = parse_text("PATTERN SEQ(A a, B b) WITHIN 5 RETURN a.x, b.y").unwrap();
        assert_eq!(q.returns.len(), 2);
        assert_eq!(q.returns[0].var, "a");
        assert_eq!(q.returns[1].field, "y");
    }

    #[test]
    fn parenthesized_expressions() {
        let q = parse_text("PATTERN SEQ(A a) WHERE (a.x + 1) * 2 == 4 WITHIN 5").unwrap();
        match q.filter.unwrap() {
            ExprAst::Binary {
                op: BinaryOp::Eq,
                lhs,
                ..
            } => {
                assert!(matches!(
                    *lhs,
                    ExprAst::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn unary_minus() {
        let q = parse_text("PATTERN SEQ(A a) WHERE a.x > -5 WITHIN 5").unwrap();
        match q.filter.unwrap() {
            ExprAst::Binary {
                op: BinaryOp::Gt,
                rhs,
                ..
            } => {
                assert!(matches!(
                    *rhs,
                    ExprAst::Unary {
                        op: UnaryOp::Neg,
                        ..
                    }
                ));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn string_and_bool_literals() {
        let q = parse_text("PATTERN SEQ(A a) WHERE a.s == 'hi' AND a.b == true WITHIN 5").unwrap();
        assert!(q.filter.is_some());
    }

    #[test]
    fn missing_within_is_error() {
        let err = parse_text("PATTERN SEQ(A a)").unwrap_err();
        assert!(err.to_string().contains("WITHIN"));
    }

    #[test]
    fn negative_window_is_error() {
        assert!(parse_text("PATTERN SEQ(A a) WITHIN -1").is_err());
    }

    #[test]
    fn trailing_garbage_is_error() {
        assert!(parse_text("PATTERN SEQ(A a) WITHIN 5 garbage").is_err());
    }

    #[test]
    fn missing_var_name_is_error() {
        let err = parse_text("PATTERN SEQ(A) WITHIN 5").unwrap_err();
        assert!(err.to_string().contains("variable"));
    }

    #[test]
    fn empty_seq_is_error() {
        assert!(parse_text("PATTERN SEQ() WITHIN 5").is_err());
    }

    #[test]
    fn bare_ident_in_where_is_error() {
        // variables must be dotted: `a` alone is not an expression
        assert!(parse_text("PATTERN SEQ(A a) WHERE a WITHIN 5").is_err());
    }

    #[test]
    fn error_offset_points_at_problem() {
        let src = "PATTERN SEQ(A a) WITHIN x";
        let err = parse_text(src).unwrap_err();
        assert_eq!(err.offset(), src.find('x').unwrap());
    }
}
