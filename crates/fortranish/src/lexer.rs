//! Line lexer for the mini-Fortran subset.
//!
//! The interpreter is deliberately tolerant of column position (the
//! preprocessor emits "fixed-ish" form): a line is
//! `[label] statement`, comments start with `C`, `c`, `*` or `!` in
//! column 1, and blank lines are ignored.
//!
//! A program lexes into one flat token buffer, a table of its
//! significant lines, and one name table: every identifier is
//! upper-cased and interned once, and a token carries its id
//! ([`Name`]), so no token owns text.

use crate::error::{FortError, FortErrorKind};
use crate::token::{DotOp, Name, Names, Token};

/// One significant source line: optional numeric label + its tokens'
/// place in [`Lexed::tokens`].
#[derive(Debug, Clone, PartialEq)]
pub struct LexedLine {
    /// 1-based source line number (for diagnostics).
    pub line_no: usize,
    /// Optional statement label.
    pub label: Option<u32>,
    /// The statement's first token.
    pub start: u32,
    /// One past its last token.
    pub end: u32,
}

/// A lexed program: its names, its tokens, and its lines.
#[derive(Debug, Clone)]
pub struct Lexed {
    /// Every identifier and character literal, interned.
    pub names: Names,
    /// The tokens of every line, back to back.
    pub tokens: Vec<Token>,
    /// The significant lines, in source order.
    pub lines: Vec<LexedLine>,
}

impl Lexed {
    /// The statement tokens of `line`.
    pub fn tokens_of(&self, line: &LexedLine) -> &[Token] {
        &self.tokens[line.start as usize..line.end as usize]
    }
}

/// Whether a line is a comment.
pub fn is_comment(line: &str) -> bool {
    matches!(line.as_bytes().first(), Some(b'C' | b'c' | b'*' | b'!'))
}

/// Lex a whole source into significant lines.
pub fn lex(source: &str) -> Result<Lexed, FortError> {
    let mut names = Names::new();
    // Expanded code runs at about one token per five bytes and one
    // significant line per thirty.
    let mut tokens = Vec::with_capacity(source.len() / 5 + 8);
    let mut lines = Vec::with_capacity(source.len() / 30 + 4);
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        if is_comment(raw) || raw.trim().is_empty() {
            continue;
        }
        let trimmed = raw.trim_start();
        // Leading digits form the statement label.
        let digits = trimmed.bytes().take_while(u8::is_ascii_digit).count();
        let (label, rest) = if digits == 0 {
            (None, trimmed)
        } else {
            let (digits, rest) = trimmed.split_at(digits);
            let label = digits.parse::<u32>().map_err(|_| {
                FortError::at(
                    line_no,
                    FortErrorKind::Lex(format!("label `{digits}` too large")),
                )
            })?;
            (Some(label), rest.trim_start())
        };
        let start = tokens.len() as u32;
        lex_statement(rest, line_no, &mut names, &mut tokens)?;
        let end = tokens.len() as u32;
        if start == end && label.is_none() {
            continue;
        }
        lines.push(LexedLine {
            line_no,
            label,
            start,
            end,
        });
    }
    Ok(Lexed {
        names,
        tokens,
        lines,
    })
}

/// `word` in upper case, if it fits `buf`: enough for every keyword and
/// dotted operator, with no allocation.
fn upper_into<'b>(word: &str, buf: &'b mut [u8; 10]) -> Option<&'b str> {
    let upper = buf.get_mut(..word.len())?;
    upper.copy_from_slice(word.as_bytes());
    upper.make_ascii_uppercase();
    std::str::from_utf8(upper).ok()
}

/// The id of identifier `word`, upper-cased.
fn ident(word: &str, names: &mut Names) -> Name {
    if !word.bytes().any(|c| c.is_ascii_lowercase()) {
        return names.intern(word);
    }
    let mut buf = [0u8; 32];
    match buf.get_mut(..word.len()) {
        Some(upper) => {
            upper.copy_from_slice(word.as_bytes());
            upper.make_ascii_uppercase();
            names.intern(std::str::from_utf8(upper).expect("ASCII"))
        }
        None => names.intern(&word.to_ascii_uppercase()),
    }
}

/// Lex one statement body, appending its tokens to `toks` and its names
/// to `names`.
///
/// The scan is over bytes: every character the subset gives meaning to is
/// ASCII, so an index only ever rests on a character boundary, and text
/// inside a character literal is copied in whole slices.
pub fn lex_statement(
    s: &str,
    line_no: usize,
    names: &mut Names,
    toks: &mut Vec<Token>,
) -> Result<(), FortError> {
    let bytes = s.as_bytes();
    let mut i = 0usize;
    let err = |msg: String| FortError::at(line_no, FortErrorKind::Lex(msg));
    let at = |i: usize| bytes.get(i).copied();
    while i < bytes.len() {
        let simple = match bytes[i] {
            b' ' | b'\t' | b'\r' => {
                i += 1;
                continue;
            }
            b'(' => Some(Token::LParen),
            b')' => Some(Token::RParen),
            b',' => Some(Token::Comma),
            b'=' => Some(Token::Equals),
            b'+' => Some(Token::Plus),
            b'-' => Some(Token::Minus),
            b'/' => Some(Token::Slash),
            _ => None,
        };
        if let Some(token) = simple {
            toks.push(token);
            i += 1;
            continue;
        }
        match bytes[i] {
            b'*' => {
                if at(i + 1) == Some(b'*') {
                    toks.push(Token::Power);
                    i += 2;
                } else {
                    toks.push(Token::Star);
                    i += 1;
                }
            }
            b'\'' => {
                // character literal 'like this' ('' = escaped quote)
                let mut text = String::new();
                i += 1;
                let mut piece = i;
                let name = loop {
                    match at(i) {
                        Some(b'\'') if at(i + 1) == Some(b'\'') => {
                            text.push_str(&s[piece..=i]);
                            i += 2;
                            piece = i;
                        }
                        Some(b'\'') => {
                            let name = if text.is_empty() {
                                names.intern(&s[piece..i])
                            } else {
                                text.push_str(&s[piece..i]);
                                names.intern(&text)
                            };
                            i += 1;
                            break name;
                        }
                        Some(_) => i += 1,
                        None => return Err(err("unterminated character literal".into())),
                    }
                };
                toks.push(Token::Str(name));
            }
            b'.' => {
                // Either a dotted operator/.TRUE./.FALSE., or a real like `.5`.
                if at(i + 1).is_some_and(|c| c.is_ascii_alphabetic()) {
                    let start = i + 1;
                    let mut j = start;
                    while at(j).is_some_and(|c| c.is_ascii_alphabetic()) {
                        j += 1;
                    }
                    let word = &s[start..j];
                    if at(j) != Some(b'.') {
                        return Err(err(format!("malformed dotted operator near `.{word}`")));
                    }
                    i = j + 1;
                    let mut buf = [0; 10];
                    match upper_into(word, &mut buf) {
                        Some("TRUE") => toks.push(Token::Logical(true)),
                        Some("FALSE") => toks.push(Token::Logical(false)),
                        name => match name.and_then(DotOp::from_name) {
                            Some(op) => toks.push(Token::DotOp(op)),
                            None => {
                                return Err(err(format!(
                                    "unknown operator `.{}.`",
                                    word.to_ascii_uppercase()
                                )))
                            }
                        },
                    }
                } else if at(i + 1).is_some_and(|c| c.is_ascii_digit()) {
                    let (tok, next) = lex_number(s, i, line_no)?;
                    toks.push(tok);
                    i = next;
                } else {
                    return Err(err("stray `.`".into()));
                }
            }
            c if c.is_ascii_digit() => {
                let (tok, next) = lex_number(s, i, line_no)?;
                toks.push(tok);
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while at(i).is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                    i += 1;
                }
                toks.push(Token::Ident(ident(&s[start..i], names)));
            }
            _ => {
                let other = s[i..].chars().next().expect("`i` is inside `s`");
                return Err(err(format!("unexpected character `{other}`")));
            }
        }
    }
    Ok(())
}

/// Lex an integer or real literal starting at `start`.
fn lex_number(s: &str, start: usize, line_no: usize) -> Result<(Token, usize), FortError> {
    let bytes = s.as_bytes();
    let at = |i: usize| bytes.get(i).copied();
    let digits_from = |mut i: usize| {
        while at(i).is_some_and(|c| c.is_ascii_digit()) {
            i += 1;
        }
        i
    };
    let mut i = digits_from(start);
    let mut is_real = false;
    // Decimal point — but only if not the start of a dotted operator
    // (`1.EQ.2` must lex as `1` `.EQ.` `2`).
    if at(i) == Some(b'.') {
        let looks_like_dotop = at(i + 1).is_some_and(|c| c.is_ascii_alphabetic()) && {
            let mut j = i + 2;
            while at(j).is_some_and(|c| c.is_ascii_alphabetic()) {
                j += 1;
            }
            at(j) == Some(b'.')
        };
        if !looks_like_dotop {
            is_real = true;
            i = digits_from(i + 1);
        }
    }
    // Exponent.
    let mantissa_end = i;
    if matches!(at(i), Some(b'e' | b'E' | b'd' | b'D')) {
        let mut j = i + 1;
        if matches!(at(j), Some(b'+' | b'-')) {
            j += 1;
        }
        if at(j).is_some_and(|c| c.is_ascii_digit()) {
            is_real = true;
            i = digits_from(j);
        }
    }
    let tok = if is_real {
        // `D` exponents are Fortran's, not Rust's: spell them `E`.
        let mut text = s[start..i].to_string();
        if i > mantissa_end {
            text.replace_range(mantissa_end - start..=mantissa_end - start, "E");
        }
        Token::Real(text.parse::<f64>().map_err(|_| {
            FortError::at(
                line_no,
                FortErrorKind::Lex(format!("bad real literal `{text}`")),
            )
        })?)
    } else {
        let text = &s[start..i];
        Token::Int(text.parse::<i64>().map_err(|_| {
            FortError::at(
                line_no,
                FortErrorKind::Lex(format!("integer literal `{text}` out of range")),
            )
        })?)
    };
    Ok((tok, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tokens of `s`, and the names they index.
    fn lexed(s: &str) -> (Vec<Token>, Names) {
        let mut names = Names::new();
        let mut toks = Vec::new();
        lex_statement(s, 1, &mut names, &mut toks).unwrap();
        (toks, names)
    }

    fn toks(s: &str) -> Vec<Token> {
        lexed(s).0
    }

    fn is_err(s: &str) -> bool {
        lex_statement(s, 1, &mut Names::new(), &mut Vec::new()).is_err()
    }

    #[test]
    fn idents_are_uppercased_and_interned_once() {
        let (toks, names) = lexed("total = k_shared + Total");
        let Token::Ident(total) = toks[0] else {
            panic!("{toks:?}")
        };
        let Token::Ident(k) = toks[2] else {
            panic!("{toks:?}")
        };
        assert_eq!(names.text(total), "TOTAL");
        assert_eq!(names.text(k), "K_SHARED");
        assert_eq!(
            toks,
            vec![
                Token::Ident(total),
                Token::Equals,
                Token::Ident(k),
                Token::Plus,
                Token::Ident(total)
            ]
        );
    }

    #[test]
    fn keywords_have_their_fixed_ids() {
        use crate::token::kw;
        assert_eq!(
            toks("go to 10"),
            vec![Token::Ident(kw::GO), Token::Ident(kw::TO), Token::Int(10)]
        );
    }

    #[test]
    fn numbers_int_and_real() {
        assert_eq!(toks("42"), vec![Token::Int(42)]);
        assert_eq!(toks("1.5"), vec![Token::Real(1.5)]);
        assert_eq!(toks("2."), vec![Token::Real(2.0)]);
        assert_eq!(toks(".25"), vec![Token::Real(0.25)]);
        assert_eq!(toks("1E3"), vec![Token::Real(1000.0)]);
        assert_eq!(toks("2.5E-2"), vec![Token::Real(0.025)]);
        assert_eq!(toks("1D0"), vec![Token::Real(1.0)]);
    }

    #[test]
    fn integer_before_dotop_is_not_a_real() {
        assert_eq!(
            toks("1.EQ.2"),
            vec![Token::Int(1), Token::DotOp(DotOp::Eq), Token::Int(2)]
        );
    }

    #[test]
    fn dotted_operators_and_logicals() {
        let (toks, names) = lexed("A .GE. B .AND. .NOT. .FALSE.");
        let id = |s: &str| Token::Ident(names.get(s).unwrap());
        assert_eq!(
            toks,
            vec![
                id("A"),
                Token::DotOp(DotOp::Ge),
                id("B"),
                Token::DotOp(DotOp::And),
                Token::DotOp(DotOp::Not),
                Token::Logical(false),
            ]
        );
        assert_eq!(lexed(".TRUE.").0, vec![Token::Logical(true)]);
    }

    #[test]
    fn power_vs_star() {
        let (toks, names) = lexed("A ** 2 * B");
        let id = |s: &str| Token::Ident(names.get(s).unwrap());
        assert_eq!(
            toks,
            vec![id("A"), Token::Power, Token::Int(2), Token::Star, id("B")]
        );
    }

    #[test]
    fn string_literals_with_escapes() {
        let (toks, names) = lexed("'it''s' 'plain'");
        let [Token::Str(a), Token::Str(b)] = toks[..] else {
            panic!("{toks:?}")
        };
        assert_eq!((names.text(a), names.text(b)), ("it's", "plain"));
    }

    #[test]
    fn labels_and_comments() {
        let src = "C a comment\n100   CONTINUE\n* another\n      X = 1\n";
        let lexed = lex(src).unwrap();
        assert_eq!(lexed.lines.len(), 2);
        assert_eq!(lexed.lines[0].label, Some(100));
        assert_eq!(
            lexed.tokens_of(&lexed.lines[0]),
            &[Token::Ident(crate::token::kw::CONTINUE)]
        );
        assert_eq!(lexed.lines[1].label, None);
        assert_eq!(lexed.lines[1].line_no, 4);
        assert_eq!(lexed.tokens_of(&lexed.lines[1]).len(), 3);
    }

    #[test]
    fn unknown_operator_is_an_error() {
        assert!(is_err("A .XO. B"));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(is_err("'open"));
    }
}
