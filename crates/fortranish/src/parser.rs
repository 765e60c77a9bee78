//! Recursive-descent parser: one lexed line → one [`Stmt`].

use crate::ast::{BinOp, DeclItem, Dims, Expr, LValue, Named, Stmt, Ty, UnOp};
use crate::error::{FortError, FortErrorKind};
use crate::token::{kw, DotOp, Name, Names, Token};

/// Parse one statement line out of `tokens`, whose names are in `names`.
pub fn parse_tokens(tokens: &[Token], names: &Names, line_no: usize) -> Result<Stmt, FortError> {
    let mut p = Parser {
        toks: tokens,
        names,
        pos: 0,
        line: line_no,
        depth: 0,
    };
    let parsed = p.statement().and_then(|stmt| {
        p.expect_end()?;
        Ok(stmt)
    });
    parsed.map_err(|boxed| *boxed)
}

/// How deep an expression may nest: parentheses, subscripts and argument
/// lists, prefix operators, `**` towers, and the operators of one chain
/// (`A + B + C` is a tree two deep).  The parser descends once per level
/// and everything after it — the bytecode compiler, the oracle's
/// evaluator, the tree's own `Drop` — recurses over the tree it built,
/// some of it on 512 KiB process stacks, and a stack overflow is an
/// abort no `catch_unwind` contains; past the bound a source gets a
/// positioned parse error instead.
pub const MAX_EXPR_DEPTH: usize = 100;

/// What travels through the recursive-descent frames: the error is
/// boxed, so a frame holds an `Expr` and a pointer, not an `Expr` and
/// two `String`s (as `m4.rs` does for its own recursion).
type Parsed<T> = Result<T, Box<FortError>>;

struct Parser<'a> {
    toks: &'a [Token],
    names: &'a Names,
    pos: usize,
    line: usize,
    /// Levels of the expression under construction above the cursor;
    /// see [`MAX_EXPR_DEPTH`].  Not unwound on an error: the first one
    /// ends the statement.
    depth: usize,
}

/// Binding levels of the expression grammar, loosest first:
/// `.OR.` < `.AND.` < `.NOT.` < relational < additive < multiplicative
/// < prefix sign and `**` < atom.
mod level {
    pub const OR: u8 = 1;
    pub const AND: u8 = 2;
    pub const NOT: u8 = 3;
    pub const REL: u8 = 4;
    pub const ADD: u8 = 5;
    pub const MUL: u8 = 6;
    pub const SIGN: u8 = 7;
    pub const ATOM: u8 = 8;
}

/// A binary operator's place in the grammar.
struct Infix {
    op: BinOp,
    /// Its own level: what the expression it builds is.
    level: u8,
    /// The loosest thing its left operand may be.  Above `level` for an
    /// operator that does not chain (`A .LT. B .LT. C` is an error) and
    /// for `**`, whose base is an atom.
    left: u8,
    /// The loosest thing its right operand may be: one above `level` for
    /// a left-associative operator, `level` itself for `**`.
    right: u8,
}

fn infix(token: &Token) -> Option<Infix> {
    use level::*;
    let (op, level, left, right) = match token {
        Token::DotOp(dot) => match BinOp::from_dotop(*dot)? {
            BinOp::Or => (BinOp::Or, OR, OR, AND),
            BinOp::And => (BinOp::And, AND, AND, NOT),
            relational => (relational, REL, ADD, ADD),
        },
        Token::Plus => (BinOp::Add, ADD, ADD, MUL),
        Token::Minus => (BinOp::Sub, ADD, ADD, MUL),
        Token::Star => (BinOp::Mul, MUL, MUL, SIGN),
        Token::Slash => (BinOp::Div, MUL, MUL, SIGN),
        Token::Power => (BinOp::Pow, SIGN, ATOM, SIGN),
        _ => return None,
    };
    Some(Infix {
        op,
        level,
        left,
        right,
    })
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> Box<FortError> {
        Box::new(FortError::at(self.line, FortErrorKind::Parse(msg.into())))
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    /// Step over the next token.
    fn next(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).copied();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token, what: &str) -> Parsed<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Parsed<Name> {
        match self.next() {
            Some(Token::Ident(name)) => Ok(name),
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    fn expect_end(&mut self) -> Parsed<()> {
        if self.pos == self.toks.len() {
            Ok(())
        } else {
            Err(self.err(format!(
                "unexpected trailing tokens: {:?}",
                Named(&self.toks[self.pos..], self.names)
            )))
        }
    }

    fn peek_ident(&self) -> Option<Name> {
        match self.peek() {
            Some(&Token::Ident(name)) => Some(name),
            _ => None,
        }
    }

    // ---- statements -------------------------------------------------------

    fn statement(&mut self) -> Parsed<Stmt> {
        // A keyword, or `None` for any other name, which opens an
        // assignment.
        let first = match self.peek_ident() {
            Some(name) => Some(name).filter(|&n| Names::is_keyword(n)),
            None => return Err(self.err("statement must start with a keyword or variable")),
        };
        match first {
            Some(kw::PROGRAM) => {
                self.next();
                let name = self.expect_ident("program name")?;
                Ok(Stmt::Program(name))
            }
            Some(kw::SUBROUTINE) => {
                self.next();
                let name = self.expect_ident("subroutine name")?;
                let mut params = Vec::new();
                if self.eat(&Token::LParen) && !self.eat(&Token::RParen) {
                    loop {
                        params.push(self.expect_ident("parameter name")?);
                        if self.eat(&Token::RParen) {
                            break;
                        }
                        self.expect(&Token::Comma, "`,` in parameter list")?;
                    }
                }
                Ok(Stmt::Subroutine(name, params))
            }
            Some(kw::END) => {
                self.next();
                match self.peek_ident() {
                    Some(kw::IF) => {
                        self.next();
                        Ok(Stmt::EndIf)
                    }
                    Some(kw::DO) => {
                        self.next();
                        Ok(Stmt::EndDo)
                    }
                    None => Ok(Stmt::EndUnit),
                    Some(other) => {
                        Err(self.err(format!("unexpected `END {}`", self.names.text(other))))
                    }
                }
            }
            Some(kw::ENDIF) => {
                self.next();
                Ok(Stmt::EndIf)
            }
            Some(kw::ENDDO) => {
                self.next();
                Ok(Stmt::EndDo)
            }
            Some(kw::RETURN) => {
                self.next();
                Ok(Stmt::Return)
            }
            Some(kw::STOP) => {
                self.next();
                Ok(Stmt::Stop)
            }
            Some(kw::CONTINUE) => {
                self.next();
                Ok(Stmt::Continue)
            }
            Some(keyword @ (kw::INTEGER | kw::REAL | kw::LOGICAL | kw::DOUBLE)) => {
                self.next();
                if keyword == kw::DOUBLE {
                    // DOUBLE PRECISION
                    if self.peek_ident() == Some(kw::PRECISION) {
                        self.next();
                    }
                }
                let ty = match keyword {
                    kw::INTEGER => Ty::Integer,
                    kw::LOGICAL => Ty::Logical,
                    _ => Ty::Real,
                };
                let items = self.decl_items()?;
                Ok(Stmt::Decl { ty, items })
            }
            Some(kw::COMMON) => {
                self.next();
                self.expect(&Token::Slash, "`/` before COMMON block name")?;
                let block = self.expect_ident("COMMON block name")?;
                self.expect(&Token::Slash, "`/` after COMMON block name")?;
                let items = self.decl_items()?;
                Ok(Stmt::Common { block, items })
            }
            Some(kw::IF) => {
                self.next();
                self.expect(&Token::LParen, "`(` after IF")?;
                let cond = self.expr()?;
                self.expect(&Token::RParen, "`)` after IF condition")?;
                if self.peek_ident() == Some(kw::THEN) {
                    self.next();
                    Ok(Stmt::IfThen(cond))
                } else if matches!(self.peek(), Some(Token::Int(_))) {
                    // Arithmetic IF: IF (e) l1, l2, l3
                    let mut labels = [0u32; 3];
                    for (i, slot) in labels.iter_mut().enumerate() {
                        if i > 0 {
                            self.expect(&Token::Comma, "`,` in arithmetic IF")?;
                        }
                        match self.next() {
                            Some(Token::Int(n)) => {
                                *slot =
                                    u32::try_from(n).map_err(|_| self.err("label out of range"))?
                            }
                            _ => return Err(self.err("expected a label in arithmetic IF")),
                        }
                    }
                    Ok(Stmt::ArithIf(cond, labels[0], labels[1], labels[2]))
                } else if self.peek_ident() == Some(kw::IF) {
                    // Never a simple statement, so not worth a descent
                    // (`IF (A) IF (A) IF (A) …` would be one per IF).
                    Err(self.err("unsupported statement in logical IF"))
                } else {
                    // Logical IF: one simple statement on the same line.
                    let inner = self.statement()?;
                    match inner {
                        Stmt::Assign { .. }
                        | Stmt::Call { .. }
                        | Stmt::Goto(_)
                        | Stmt::Return
                        | Stmt::Stop
                        | Stmt::Continue
                        | Stmt::Print(_) => Ok(Stmt::LogicalIf(cond, Box::new(inner))),
                        _ => Err(self.err("unsupported statement in logical IF")),
                    }
                }
            }
            Some(kw::ELSE) => {
                self.next();
                if self.peek_ident() == Some(kw::IF) {
                    self.next();
                    self.expect(&Token::LParen, "`(` after ELSE IF")?;
                    let cond = self.expr()?;
                    self.expect(&Token::RParen, "`)` after ELSE IF condition")?;
                    if self.peek_ident() == Some(kw::THEN) {
                        self.next();
                    }
                    Ok(Stmt::ElseIf(cond))
                } else {
                    Ok(Stmt::Else)
                }
            }
            Some(kw::ELSEIF) => {
                self.next();
                self.expect(&Token::LParen, "`(` after ELSEIF")?;
                let cond = self.expr()?;
                self.expect(&Token::RParen, "`)` after ELSEIF condition")?;
                if self.peek_ident() == Some(kw::THEN) {
                    self.next();
                }
                Ok(Stmt::ElseIf(cond))
            }
            Some(kw::GO) => {
                self.next();
                if self.peek_ident() == Some(kw::TO) {
                    self.next();
                } else {
                    return Err(self.err("expected `GO TO`"));
                }
                self.goto_label()
            }
            Some(kw::GOTO) => {
                self.next();
                self.goto_label()
            }
            Some(kw::DO) => {
                self.next();
                // DO [label] var = from, to [, step]
                let label = match self.peek() {
                    Some(&Token::Int(n)) => {
                        self.next();
                        Some(u32::try_from(n).map_err(|_| self.err("label out of range"))?)
                    }
                    _ => None,
                };
                let var = self.expect_ident("loop variable")?;
                self.expect(&Token::Equals, "`=` in DO statement")?;
                let from = self.expr()?;
                self.expect(&Token::Comma, "`,` in DO bounds")?;
                let to = self.expr()?;
                let step = if self.eat(&Token::Comma) {
                    Some(self.expr()?)
                } else {
                    None
                };
                Ok(Stmt::Do {
                    label,
                    var,
                    from,
                    to,
                    step,
                })
            }
            Some(kw::CALL) => {
                self.next();
                let name = self.expect_ident("subroutine name")?;
                let mut args = Vec::new();
                if self.eat(&Token::LParen) && !self.eat(&Token::RParen) {
                    loop {
                        args.push(self.expr()?);
                        if self.eat(&Token::RParen) {
                            break;
                        }
                        self.expect(&Token::Comma, "`,` in argument list")?;
                    }
                }
                Ok(Stmt::Call { name, args })
            }
            Some(kw::PRINT) => {
                self.next();
                self.expect(&Token::Star, "`*` after PRINT")?;
                let mut items = Vec::new();
                while self.eat(&Token::Comma) {
                    items.push(self.expr()?);
                }
                Ok(Stmt::Print(items))
            }
            _ => {
                // Assignment.
                let name = self.expect_ident("variable")?;
                let lhs = if self.eat(&Token::LParen) {
                    let mut idx = Vec::new();
                    loop {
                        idx.push(self.expr()?);
                        if self.eat(&Token::RParen) {
                            break;
                        }
                        self.expect(&Token::Comma, "`,` in subscript")?;
                    }
                    LValue::Elem(name, idx)
                } else {
                    LValue::Name(name)
                };
                self.expect(&Token::Equals, "`=` in assignment")?;
                let rhs = self.expr()?;
                Ok(Stmt::Assign { lhs, rhs })
            }
        }
    }

    fn goto_label(&mut self) -> Parsed<Stmt> {
        match self.next() {
            Some(Token::Int(n)) => Ok(Stmt::Goto(
                u32::try_from(n).map_err(|_| self.err("label out of range"))?,
            )),
            _ => Err(self.err("expected a label after GO TO")),
        }
    }

    fn decl_items(&mut self) -> Parsed<Vec<DeclItem>> {
        let mut items = Vec::new();
        loop {
            let name = self.expect_ident("declared name")?;
            let mut dims = [0usize; 3];
            let mut count = 0;
            if self.eat(&Token::LParen) {
                loop {
                    match self.next() {
                        Some(Token::Int(n)) if n > 0 => {
                            dims[count.min(2)] = n as usize;
                            count += 1;
                        }
                        _ => {
                            return Err(
                                self.err("array dimensions must be positive integer literals")
                            )
                        }
                    }
                    if self.eat(&Token::RParen) {
                        break;
                    }
                    self.expect(&Token::Comma, "`,` in dimensions")?;
                }
            }
            let Some(dims) = Dims::new(&dims[..count.min(3)]) else {
                return Err(self.err("at most 2 array dimensions are supported"));
            };
            items.push(DeclItem { name, dims });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(items)
    }

    // ---- expressions (precedence climbing) ---------------------------------

    fn expr(&mut self) -> Parsed<Expr> {
        self.climb(level::OR)
    }

    /// One more level of expression above the cursor, or the error that
    /// says there are too many.
    fn deeper(&mut self) -> Parsed<()> {
        if self.depth == MAX_EXPR_DEPTH {
            return Err(self.err(format!(
                "expression nested more than {MAX_EXPR_DEPTH} levels deep"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    /// An expression none of whose top-level operators binds looser than
    /// `min`: a prefix operator or an atom, then every infix operator
    /// that may take what has been built so far as its left operand.
    /// One frame per nesting level, whichever operators a level holds.
    fn climb(&mut self, min: u8) -> Parsed<Expr> {
        let entered_at = self.depth;
        self.deeper()?;
        // A prefix operator and the level of what it builds: `.NOT.`
        // only where a `.NOT.` expression may stand, a sign anywhere.
        let prefix = match self.peek() {
            Some(Token::DotOp(DotOp::Not)) if min <= level::NOT => {
                Some((Some(UnOp::Not), level::NOT))
            }
            Some(Token::Minus) => Some((Some(UnOp::Neg), level::SIGN)),
            Some(Token::Plus) => Some((None, level::SIGN)),
            _ => None,
        };
        // `built` is the level of `lhs`, i.e. of its outermost operator.
        let (mut lhs, mut built) = match prefix {
            Some((op, level)) => {
                self.next();
                let inner = self.climb(level)?;
                let signed = match op {
                    Some(op) => Expr::Un(op, Box::new(inner)),
                    None => inner,
                };
                (signed, level)
            }
            None => (self.atom()?, level::ATOM),
        };
        while let Some(infix) = self.peek().and_then(infix) {
            if infix.level < min || built < infix.left {
                break;
            }
            self.next();
            let rhs = self.climb(infix.right)?;
            lhs = Expr::Bin(infix.op, Box::new(lhs), Box::new(rhs));
            built = infix.level;
            // Everything parsed so far now hangs one level further down.
            self.deeper()?;
        }
        self.depth = entered_at;
        Ok(lhs)
    }

    fn atom(&mut self) -> Parsed<Expr> {
        match self.next() {
            Some(Token::Int(n)) => Ok(Expr::Int(n)),
            Some(Token::Real(x)) => Ok(Expr::Real(x)),
            Some(Token::Logical(b)) => Ok(Expr::Logical(b)),
            Some(Token::Str(s)) => Ok(Expr::Str(s)),
            Some(Token::LParen) => self.parenthesized(),
            Some(Token::Ident(name)) => self.named(name),
            Some(other) => {
                let msg = format!(
                    "unexpected token Some({:?}) in expression",
                    Named(&other, self.names)
                );
                Err(self.err(msg))
            }
            None => Err(self.err("unexpected token None in expression")),
        }
    }

    // The two atoms that nest, each in a frame of its own: in an
    // unoptimized build a frame holds every local of every arm, and the
    // bound above has to fit a 512 KiB stack there too.

    /// The rest of `( expr )`.
    fn parenthesized(&mut self) -> Parsed<Expr> {
        let e = self.expr()?;
        self.expect(&Token::RParen, "`)`")?;
        Ok(e)
    }

    /// A variable, or with `(` an array element or function reference.
    fn named(&mut self, name: Name) -> Parsed<Expr> {
        if !self.eat(&Token::LParen) {
            return Ok(Expr::Var(name));
        }
        let mut args = Vec::new();
        if !self.eat(&Token::RParen) {
            loop {
                args.push(self.expr()?);
                if self.eat(&Token::RParen) {
                    break;
                }
                self.expect(&Token::Comma, "`,` in subscript or argument list")?;
            }
        }
        Ok(Expr::Index(name, args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_statement;

    /// `s` lexed and parsed as line `line_no`.
    fn parse_at(s: &str, line_no: usize) -> (Result<Stmt, FortError>, Names) {
        let mut names = Names::new();
        let mut toks = Vec::new();
        lex_statement(s, line_no, &mut names, &mut toks).unwrap();
        (parse_tokens(&toks, &names, line_no), names)
    }

    /// `s` parsed, shown with its names as text.
    fn parse(s: &str) -> Stmt {
        parse_at(s, 1).0.unwrap()
    }

    /// `s` parsed and shown as `{:?}` shows it, names as text.
    fn shown(s: &str) -> String {
        let (stmt, names) = parse_at(s, 1);
        format!("{:?}", Named(&stmt.unwrap(), &names))
    }

    #[test]
    fn assignment_and_precedence() {
        let s = parse("X = A + B * C ** 2");
        match s {
            Stmt::Assign { lhs, rhs } => {
                assert!(matches!(lhs, LValue::Name(_)));
                // A + (B * (C ** 2))
                match rhs {
                    Expr::Bin(BinOp::Add, _, r) => match *r {
                        Expr::Bin(BinOp::Mul, _, rr) => {
                            assert!(matches!(*rr, Expr::Bin(BinOp::Pow, _, _)))
                        }
                        other => panic!("expected Mul, got {other:?}"),
                    },
                    other => panic!("expected Add, got {other:?}"),
                }
            }
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn array_element_assignment() {
        let s = parse("A(I, J+1) = 0");
        assert!(matches!(s, Stmt::Assign { lhs: LValue::Elem(_, ref idx), .. } if idx.len() == 2));
    }

    #[test]
    fn if_then_vs_logical_if() {
        assert!(matches!(parse("IF (X .GT. 0) THEN"), Stmt::IfThen(_)));
        assert!(matches!(
            parse("IF (X .GT. 0) GO TO 100"),
            Stmt::LogicalIf(_, _)
        ));
        assert!(matches!(parse("ELSE"), Stmt::Else));
        assert!(matches!(parse("ELSE IF (A .EQ. B) THEN"), Stmt::ElseIf(_)));
        assert!(matches!(parse("END IF"), Stmt::EndIf));
    }

    #[test]
    fn relational_and_logical_operators() {
        let s = parse("OK = (A .LE. B) .AND. .NOT. (C .EQ. D) .OR. E .GE. F");
        // .OR. at the top.
        match s {
            Stmt::Assign { rhs, .. } => assert!(matches!(rhs, Expr::Bin(BinOp::Or, _, _))),
            _ => unreachable!(),
        }
    }

    #[test]
    fn do_statements() {
        assert_eq!(
            shown("DO 100 K = 1, N"),
            r#"Do { label: Some(100), var: "K", from: Int(1), to: Var("N"), step: None }"#
        );
        assert!(matches!(
            parse("DO I = 10, 1, -2"),
            Stmt::Do {
                label: None,
                step: Some(_),
                ..
            }
        ));
        assert!(matches!(parse("END DO"), Stmt::EndDo));
    }

    #[test]
    fn goto_and_continue() {
        assert_eq!(parse("GO TO 42"), Stmt::Goto(42));
        assert_eq!(parse("GOTO 42"), Stmt::Goto(42));
        assert_eq!(parse("CONTINUE"), Stmt::Continue);
    }

    #[test]
    fn call_statements() {
        assert_eq!(
            shown("CALL ZZTSLCK(BARWIN)"),
            r#"Call { name: "ZZTSLCK", args: [Var("BARWIN")] }"#
        );
        assert!(matches!(parse("CALL NOARGS"), Stmt::Call { ref args, .. } if args.is_empty()));
        assert!(matches!(parse("CALL EMPTY()"), Stmt::Call { ref args, .. } if args.is_empty()));
    }

    #[test]
    fn declarations_and_common() {
        let s = parse("INTEGER K, A(10, 20)");
        match s {
            Stmt::Decl { ty, items } => {
                assert_eq!(ty, Ty::Integer);
                assert_eq!(*items[1].dims, [10, 20]);
            }
            _ => unreachable!(),
        }
        assert_eq!(
            shown("COMMON /ZZFENV/ ZZNBAR, A(2)"),
            r#"Common { block: "ZZFENV", items: [DeclItem { name: "ZZNBAR", dims: [] }, DeclItem { name: "A", dims: [2] }] }"#
        );
    }

    #[test]
    fn subroutine_headers() {
        assert_eq!(shown("SUBROUTINE FMAIN"), r#"Subroutine("FMAIN", [])"#);
        assert!(matches!(
            parse("SUBROUTINE WORK(A, N)"),
            Stmt::Subroutine(_, ref p) if p.len() == 2
        ));
        assert!(matches!(parse("PROGRAM ZZDRIVE"), Stmt::Program(_)));
        assert!(matches!(parse("END"), Stmt::EndUnit));
    }

    #[test]
    fn print_statement() {
        assert_eq!(
            shown("PRINT *, 'SUM =', TOTAL"),
            r#"Print([Str("SUM ="), Var("TOTAL")])"#
        );
        assert!(matches!(parse("PRINT *"), Stmt::Print(ref v) if v.is_empty()));
    }

    #[test]
    fn function_call_in_expression() {
        assert_eq!(
            shown("X = MOD(K, 2) + ABS(-3)"),
            r#"Assign { lhs: Name("X"), rhs: Bin(Add, Index("MOD", [Var("K"), Int(2)]), Index("ABS", [Un(Neg, Int(3))])) }"#
        );
    }

    #[test]
    fn power_is_right_associative_with_unary_exponent() {
        let s = parse("X = A ** -2");
        assert!(matches!(
            s,
            Stmt::Assign {
                rhs: Expr::Bin(BinOp::Pow, _, _),
                ..
            }
        ));
    }

    #[test]
    fn errors_report_line() {
        let err = parse_at("IF (X", 7).0.unwrap_err();
        assert_eq!(err.line, Some(7));
    }

    #[test]
    fn errors_quote_tokens_by_their_text() {
        let err = parse_at("X = 1 Y 'Z'", 1).0.unwrap_err();
        assert!(
            err.to_string()
                .contains(r#"unexpected trailing tokens: [Ident("Y"), Str("Z")]"#),
            "{err}"
        );
        let err = parse_at("X = ,", 1).0.unwrap_err();
        assert!(
            err.to_string()
                .contains("unexpected token Some(Comma) in expression"),
            "{err}"
        );
        let err = parse_at("X =", 1).0.unwrap_err();
        assert!(
            err.to_string()
                .contains("unexpected token None in expression"),
            "{err}"
        );
        let err = parse_at("END SUBROUTINE", 1).0.unwrap_err();
        assert!(
            err.to_string().contains("unexpected `END SUBROUTINE`"),
            "{err}"
        );
    }

    #[test]
    fn three_dims_rejected() {
        let err = parse_at("INTEGER A(2,2,2)", 1).0.unwrap_err();
        assert!(err.to_string().contains("at most 2"), "{err}");
        let err = parse_at("INTEGER A(2,2,0)", 1).0.unwrap_err();
        assert!(err.to_string().contains("positive"), "{err}");
    }

    /// Parse `line` on a thread with the stack of a virtual-time pid:
    /// the smallest this parser is run on.
    fn parse_on_a_small_stack(line: String) -> Result<Stmt, FortError> {
        std::thread::Builder::new()
            .stack_size(512 * 1024)
            .spawn(move || {
                let mut names = Names::new();
                let mut toks = Vec::new();
                lex_statement(&line, 9, &mut names, &mut toks)?;
                parse_tokens(&toks, &names, 9)
            })
            .unwrap()
            .join()
            .expect("the parser neither panics nor overflows")
    }

    #[test]
    fn nesting_is_bounded_by_an_error_not_by_the_stack() {
        // Every way the grammar recurses or deepens the tree, `n` times.
        type Shape = fn(usize) -> String;
        let shapes: [(&str, Shape); 6] = [
            ("parentheses", |n| {
                format!("K = {}1{}", "(".repeat(n), ")".repeat(n))
            }),
            ("subscripts", |n| {
                format!("K = {}1{}", "A(".repeat(n), ")".repeat(n))
            }),
            ("signs", |n| format!("K = {}1", "-".repeat(n))),
            ("nots", |n| format!("K = {}X", ".NOT. ".repeat(n))),
            ("powers", |n| format!("K = 1{}", " ** 1".repeat(n))),
            // A chain deepens the tree without deepening the parser: what
            // it would overflow is the compiler, the oracle and `Drop`.
            ("a chain", |n| format!("K = 1{}", " + 1".repeat(n))),
        ];
        for (name, shape) in shapes {
            // The statement's own expression is the first level.
            let fits = parse_on_a_small_stack(shape(MAX_EXPR_DEPTH - 1));
            assert!(fits.is_ok(), "{name} at the bound: {fits:?}");
            for n in [MAX_EXPR_DEPTH, MAX_EXPR_DEPTH + 1, 20_000] {
                let err = parse_on_a_small_stack(shape(n)).expect_err(name);
                assert_eq!(err.line, Some(9), "{name} × {n}");
                assert!(
                    err.to_string().contains("levels deep"),
                    "{name} × {n}: {err}"
                );
            }
        }
        // Logical IFs do not nest at all, so they are refused one deep.
        let ifs = format!("{}K = 1", "IF (.TRUE.) ".repeat(20_000));
        let err = parse_on_a_small_stack(ifs).expect_err("nested logical IFs");
        assert_eq!(err.line, Some(9));
        assert!(err.to_string().contains("logical IF"), "{err}");
    }
}
