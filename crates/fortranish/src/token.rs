//! Tokens of the mini-Fortran subset.

use std::borrow::Cow;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword, uppercased (`TOTAL`, `IF`, `K_SHARED`); the
    /// lexer's keywords borrow their text.
    Ident(Cow<'static, str>),
    /// Integer literal.
    Int(i64),
    /// Real literal (`1.5`, `2.`, `1E-3`).
    Real(f64),
    /// Character literal (only used by PRINT).
    Str(String),
    /// `.TRUE.` / `.FALSE.`
    Logical(bool),
    /// A dotted operator: `.EQ.`, `.AND.`, …
    DotOp(DotOp),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `=`
    Equals,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `**`
    Power,
    /// `/`
    Slash,
}

/// The `.XX.` operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DotOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Not,
}

impl DotOp {
    /// Parse the name between the dots.
    pub fn from_name(name: &str) -> Option<DotOp> {
        Some(match name {
            "EQ" => DotOp::Eq,
            "NE" => DotOp::Ne,
            "LT" => DotOp::Lt,
            "LE" => DotOp::Le,
            "GT" => DotOp::Gt,
            "GE" => DotOp::Ge,
            "AND" => DotOp::And,
            "OR" => DotOp::Or,
            "NOT" => DotOp::Not,
            _ => return None,
        })
    }
}
