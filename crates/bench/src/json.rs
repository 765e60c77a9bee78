//! The harness's one JSON kernel: an ordered [`Json`] value, a pretty
//! writer and a **strict** recursive-descent parser.  Every `BENCH_*.json`
//! artifact is built as a `Json`, rendered, parsed back and checked before
//! it reaches the disk (see [`crate::write_artifact`]), so a malformed or
//! incomplete artifact cannot be written.  Hermetic on purpose: the
//! workspace has no registry dependencies.

use std::fmt::Write as _;

/// Deepest nesting the parser accepts; deeper input is an error, never a
/// stack overflow.
pub const MAX_DEPTH: usize = 64;

/// A JSON value; objects keep insertion order.  There is no `Null`: the
/// harness never emits one, so the parser refuses it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    /// A non-negative integer (every count and nanosecond figure).
    Int(u64),
    /// Any other number; always rendered with a `.` or an exponent so it
    /// reads back as a float.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// `obj! { "key": value, ... }`: an ordered [`Json::Obj`], each value
/// converted through [`Json::from`].
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key.to_string(), $crate::json::Json::from($value))),*])
    };
}

macro_rules! json_from {
    ($($ty:ty => $make:expr),* $(,)?) => {$(
        impl From<$ty> for Json {
            fn from(value: $ty) -> Json {
                $make(value)
            }
        }
    )*};
}
json_from! {
    bool => Json::Bool,
    u64 => Json::Int,
    usize => |n| Json::Int(n as u64),
    &str => |s: &str| Json::Str(s.into()),
    String => Json::Str,
    Vec<Json> => Json::Arr,
}

impl Json {
    /// `x` rounded to `places` decimals — the artifacts report rates and
    /// ratios at a fixed precision, not every measured digit.
    pub fn fixed(x: f64, places: i32) -> Json {
        let scale = 10f64.powi(places);
        Json::Num((x * scale).round() / scale)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing key \"{key}\"")),
            _ => Err(format!("looked up \"{key}\" in a non-object")),
        }
    }

    /// Member `key` as an unsigned integer.
    pub fn int(&self, key: &str) -> Result<u64, String> {
        match self.get(key)? {
            Json::Int(n) => Ok(*n),
            _ => Err(format!("\"{key}\" is not a non-negative integer")),
        }
    }

    /// Member `key` as a number (integer or float).
    pub fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Json::Int(n) => Ok(*n as f64),
            Json::Num(x) => Ok(*x),
            _ => Err(format!("\"{key}\" is not a number")),
        }
    }

    /// Member `key` as a string.
    pub fn text(&self, key: &str) -> Result<&str, String> {
        match self.get(key)? {
            Json::Str(s) => Ok(s),
            _ => Err(format!("\"{key}\" is not a string")),
        }
    }

    /// Member `key` as an array.
    pub fn arr(&self, key: &str) -> Result<&[Json], String> {
        match self.get(key)? {
            Json::Arr(items) => Ok(items),
            _ => Err(format!("\"{key}\" is not an array")),
        }
    }

    /// The pretty rendering, newline-terminated.  Containers holding only
    /// scalars stay on one line; everything else nests by two spaces.
    /// A non-finite [`Json::Num`] is refused: JSON cannot express it.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::new();
        self.write(&mut out, 0)?;
        out.push('\n');
        Ok(out)
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, indent: usize) -> Result<(), String> {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => write!(out, "{n}").expect("write to String"),
            // `{:?}` keeps a `.0` on whole values, so the type survives.
            Json::Num(x) if x.is_finite() => write!(out, "{x:?}").expect("write to String"),
            Json::Num(x) => return Err(format!("non-finite number {x} has no JSON form")),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_members(out, indent, "[]", items.iter().map(|v| (None, v)))?,
            Json::Obj(pairs) => {
                let members = pairs.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_members(out, indent, "{}", members)?
            }
        }
        Ok(())
    }

    /// Parse one JSON document.  Strict: RFC 8259 grammar only, no
    /// trailing commas or garbage, no leading zeros, no duplicate keys,
    /// no lone surrogates, no `null`, nesting bounded by [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { src: text, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return p.err("trailing characters after the document");
        }
        Ok(value)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One container: its members on one line if all are scalars, else one
/// member per line at `indent + 2`.
fn write_members<'a>(
    out: &mut String,
    indent: usize,
    brackets: &str,
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) -> Result<(), String> {
    let flat = members.clone().all(|(_, v)| v.is_scalar());
    let line_break = |out: &mut String, pad: usize| {
        if flat {
            out.push(' ');
        } else {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', pad));
        }
    };
    out.push_str(&brackets[..1]);
    let mut empty = true;
    for (key, value) in members {
        if !empty {
            out.push(',');
        }
        empty = false;
        line_break(out, indent + 2);
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, indent + 2)?;
    }
    if !empty {
        line_break(out, indent);
    }
    out.push_str(&brackets[1..]);
    Ok(())
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.src[self.pos..].starts_with(lit);
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            return self.err("nesting deeper than MAX_DEPTH");
        }
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.members(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut pairs: Vec<(String, Json)> = Vec::new();
                self.members(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    if pairs.iter().any(|(k, _)| *k == key) {
                        return p.err(&format!("duplicate key \"{key}\""));
                    }
                    p.skip_ws();
                    if !p.eat(":") {
                        return p.err("expected `:` after a key");
                    }
                    pairs.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(pairs))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    /// The inside of a container: `member`s separated by `,` up to `close`.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            member(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.err("expected `,` or a closing bracket"),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.err("expected a string");
        }
        let mut out = String::new();
        loop {
            let Some(c) = self.src[self.pos..].chars().next() else {
                return self.err("unterminated string");
            };
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => out.push(self.escape()?),
                c if (c as u32) < 0x20 => return self.err("raw control character in a string"),
                c => out.push(c),
            }
        }
    }

    /// The character named by the escape whose `\` was just consumed.
    fn escape(&mut self) -> Result<char, String> {
        let esc = self.peek();
        self.pos += 1;
        Ok(match esc {
            Some(c @ (b'"' | b'\\' | b'/')) => c as char,
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.eat("\\u") {
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return self.err("bad \\u escape (unpaired surrogate)");
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                match char::from_u32(code) {
                    Some(c) => c,
                    None => return self.err("bad \\u escape (unpaired surrogate)"),
                }
            }
            _ => return self.err("unknown or unterminated escape"),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.src.get(self.pos..self.pos + 4);
        match digits.filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit())) {
            Some(d) => {
                self.pos += 4;
                Ok(u32::from_str_radix(d, 16).expect("four hex digits"))
            }
            None => self.err("bad \\u escape"),
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut integral = !self.eat("-");
        let leading = self.digits();
        if leading == 0 || (leading > 1 && self.src.as_bytes()[self.pos - leading] == b'0') {
            return self.err("expected digits without a leading zero");
        }
        if self.eat(".") {
            integral = false;
            if self.digits() == 0 {
                return self.err("expected a digit after `.`");
            }
        }
        if self.eat("e") || self.eat("E") {
            integral = false;
            let _ = self.eat("+") || self.eat("-");
            if self.digits() == 0 {
                return self.err("expected a digit in the exponent");
            }
        }
        let text = &self.src[start..self.pos];
        match (
            integral.then(|| text.parse().ok()).flatten(),
            text.parse::<f64>(),
        ) {
            (Some(n), _) => Ok(Json::Int(n)),
            (None, Ok(x)) if x.is_finite() => Ok(Json::Num(x)),
            _ => self.err("number out of range"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_parser_round_trip_nested_values() {
        let doc = obj! {
            "jobs": 20u64,
            "whole": Json::Num(12.0),
            "ratio": Json::fixed(-2.71519, 2),
            "tiny": Json::Num(1e-9),
            "huge": Json::Num(1e21),
            "ok": true,
            "name": "tab\there \"quoted\" \\ \u{1} é 🦀",
            "empty": Vec::new(),
            "machines": vec![
                obj! { "machine": "Cray-2", "n": u64::MAX },
                obj! { "peaks": vec![Json::Int(1), Json::Int(2)] },
            ],
        };
        let text = doc.render().unwrap();
        assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
        // A whole float keeps its decimal point, so it stays a float.
        assert!(text.contains("\"whole\": 12.0"), "{text}");
        assert!(text.contains("\"ratio\": -2.72"), "{text}");
        // Scalar-only containers stay on one line.
        assert!(text.contains("{ \"machine\": \"Cray-2\", \"n\": 18446744073709551615 }"));
        assert!(text.contains("\"peaks\": [ 1, 2 ]"), "{text}");
    }

    #[test]
    fn writer_refuses_non_finite_numbers() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = obj! { "rate": vec![Json::Num(x)] };
            assert!(doc.render().is_err(), "{x}");
        }
    }

    #[test]
    fn parser_accepts_the_whole_grammar() {
        let doc = Json::parse(" {\"a\":[1,-2,3.5e+2,0,-0.0],\"s\":\"\\u00e9\\ud83e\\udd80\\/\"} ")
            .unwrap();
        assert_eq!(
            doc.arr("a").unwrap(),
            [
                Json::Int(1),
                Json::Num(-2.0),
                Json::Num(350.0),
                Json::Int(0),
                Json::Num(0.0)
            ]
        );
        assert_eq!(doc.text("s").unwrap(), "é🦀/");
        assert!(doc.int("s").is_err() && doc.get("missing").is_err());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for (bad, why) in [
            ("[1, 2,]", "trailing comma in an array"),
            ("{\"a\": 1,}", "trailing comma in an object"),
            ("\"abc", "unterminated string"),
            ("\"abc\\", "unterminated escape"),
            ("\"\\u12g4\"", "bad \\u escape"),
            ("\"\\u12\"", "short \\u escape"),
            ("\"\\ud800\"", "lone high surrogate"),
            ("\"\\udc00\"", "lone low surrogate"),
            ("\"\\x41\"", "unknown escape"),
            ("\"a\nb\"", "raw control character"),
            ("{\"a\": 1, \"a\": 2}", "duplicate key"),
            ("{\"a\": 1} x", "trailing garbage"),
            ("[1] [2]", "two documents"),
            ("012", "leading zero"),
            ("-01.5", "leading zero after a sign"),
            ("1.", "no digit after the point"),
            (".5", "no integer part"),
            ("1e", "empty exponent"),
            ("-", "bare sign"),
            ("1e999", "out of range"),
            ("null", "null"),
            ("NaN", "NaN"),
            ("{a: 1}", "unquoted key"),
            ("{\"a\" 1}", "missing colon"),
            ("[1 2]", "missing comma"),
            ("[", "unclosed array"),
            ("", "empty input"),
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {why}: {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 2)).is_err());
        assert!(Json::parse(&nest(1_000_000)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(1_000_000)).is_err());
    }
}
