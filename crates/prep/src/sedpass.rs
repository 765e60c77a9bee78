//! Phase 1 — the `sed` pass.
//!
//! §4.3: "The stream editor sed translates the Force syntax into
//! parameterized function macros."  This module is that stream editor: a
//! line-oriented rewriter that recognizes the Force statement forms and
//! emits `ZZ…(args)` macro calls for the m4 phase, leaving every other
//! line (ordinary Fortran) untouched.
//!
//! Statement forms recognized (keywords are case-insensitive; `[..]`
//! optional):
//!
//! ```text
//! Force <name> of <np> ident <me>
//! Forcesub <name>[(<args>)] of <np> ident <me>
//! Externf <name>
//! End declarations
//! Join
//! Barrier                      / End barrier
//! Critical <lockvar>           / End critical [<lockvar>]
//! Presched DO <label> <v> = <e1>, <e2> [, <e3>]
//! <label> End presched DO
//! Selfsched DO <label> <v> = <e1>, <e2> [, <e3>]
//! <label> End selfsched DO
//! Presched DO2 <label> <v1> = <e1>, <e2> [, <e3>] ; <v2> = <f1>, <f2> [, <f3>]
//! <label> End presched DO2     (likewise Selfsched DO2)
//! [Presched|Selfsched] Pcase   / Usect / Csect (<cond>) / End pcase
//! Produce <var> = <expr>
//! Consume <var> into <dest>
//! Copy <var> into <dest>
//! Void <var>
//! Isfull(<var>)                (expression form, rewritten in place)
//! Shared <type> <decls>
//! Private <type> <decls>
//! Async <type> <decls>
//! ```
//!
//! Comment lines (`C`, `c`, `*`, `!` in column 1) pass through unchanged.
//!
//! The macros generate names of their own next to the user's: everything
//! starting with `ZZ`, `<var>ZZE`/`<var>ZZF` for an asynchronous
//! variable's lock pair, and `BARWIN`, `BARWOT` and `LOOP<label>` for the
//! barrier and loop locks.  A user identifier in that namespace is
//! rejected here, with its line, instead of aliasing a generated name at
//! run time.  Fortran folds case, so these are reserved in either case.
//!
//! User text also reaches both m4 passes unquoted, and m4 does *not* fold
//! case: `len`, `incr`, `lock`, … are macro calls, `LEN` is a variable.
//! An identifier spelled exactly like a name of the fixed macro tables is
//! rejected too, instead of being rewritten without a word.

use std::borrow::Cow;
use std::sync::OnceLock;

use force_machdep::MachineId;

use crate::m4::{builtin_macros, NameSet};
use crate::machdep_macros::machine_macros;
use crate::macros::statement_macros;

/// Errors from the sed pass, with 1-based source line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SedError {
    /// 1-based line number in the Force source.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for SedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SedError {}

/// Translate a whole Force source file into macro-call form.
pub fn sed_pass(source: &str) -> Result<String, SedError> {
    let mut out = String::with_capacity(source.len() + 256);
    for (idx, line) in source.lines().enumerate() {
        let translated = translate_line(line).map_err(|message| SedError {
            line: idx + 1,
            message,
        })?;
        out.push_str(&translated);
        out.push('\n');
    }
    Ok(out)
}

/// Translate one line; ordinary Fortran passes through.
fn translate_line(line: &str) -> Result<Cow<'_, str>, String> {
    // Comments pass through untouched.
    if matches!(
        line.chars().next(),
        Some('C') | Some('c') | Some('*') | Some('!')
    ) {
        return Ok(Cow::Borrowed(line));
    }
    if let Some((name, why)) = reserved_identifier(line) {
        return Err(match why {
            Reserved::Generated => format!(
                "identifier `{name}` is in the preprocessor's generated namespace \
                 (names starting with `ZZ` or ending in `ZZE`/`ZZF`, and `BARWIN`, \
                 `BARWOT` and `LOOP<label>`, are reserved in either case)"
            ),
            Reserved::Macro => format!(
                "identifier `{name}` is the name of an m4 macro and would be expanded \
                 as one (m4 names are case-sensitive: the upper-case spelling `{}` is \
                 an ordinary variable)",
                name.to_ascii_uppercase()
            ),
        });
    }
    // The full/empty state *test* (§3.4 "the state can also be tested")
    // is an expression-level form: rewrite `Isfull(X)` to the machine
    // macro `zzisfull(X)` wherever it appears.
    let line = rewrite_isfull(line);
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(line);
    }

    // A leading numeric label (needed for `<label> End … DO`).
    let (label, rest) = split_label(trimmed);
    let mut words = Words::new(rest);

    let first = match words.peek_word() {
        Some(w) => w.to_ascii_uppercase(),
        None => return Ok(line),
    };

    let translated = match first.as_str() {
        "FORCE" => {
            words.next_word();
            let name = words.expect_ident("program name")?;
            words.expect_keyword("of")?;
            let np = words.expect_ident("process count variable")?;
            words.expect_keyword("ident")?;
            let me = words.expect_ident("process id variable")?;
            words.expect_end()?;
            Some(format!("ZZFORCE({name}, {np}, {me})"))
        }
        "FORCESUB" => {
            words.next_word();
            let name = words.expect_ident("subroutine name")?;
            let args = words.maybe_paren_group();
            words.expect_keyword("of")?;
            let np = words.expect_ident("process count variable")?;
            words.expect_keyword("ident")?;
            let me = words.expect_ident("process id variable")?;
            words.expect_end()?;
            Some(format!("ZZFORCESUB({name}, `{args}', {np}, {me})"))
        }
        "EXTERNF" => {
            words.next_word();
            let name = words.expect_ident("subroutine name")?;
            words.expect_end()?;
            Some(format!("ZZEXTERNF({name})"))
        }
        "JOIN" => {
            words.next_word();
            words.expect_end()?;
            Some("ZZJOIN".to_string())
        }
        "BARRIER" => {
            words.next_word();
            words.expect_end()?;
            Some("ZZBARRIER".to_string())
        }
        "CRITICAL" => {
            words.next_word();
            let var = words.expect_ident("lock variable")?;
            words.expect_end()?;
            Some(format!("ZZCRITICAL({var})"))
        }
        "PRODUCE" => {
            words.next_word();
            let var = words.expect_async_ref("asynchronous variable")?;
            let rest = words.rest().trim();
            let expr = rest
                .strip_prefix('=')
                .ok_or_else(|| "expected `=` after Produce variable".to_string())?
                .trim();
            if expr.is_empty() {
                return Err("Produce needs an expression".to_string());
            }
            Some(format!("ZZPRODUCE({var}, `{expr}')"))
        }
        "CONSUME" => {
            words.next_word();
            let var = words.expect_async_ref("asynchronous variable")?;
            words.expect_keyword("into")?;
            let dest = words.expect_ident("destination variable")?;
            words.expect_end()?;
            Some(format!("ZZCONSUME({var}, {dest})"))
        }
        "COPY" => {
            words.next_word();
            let var = words.expect_async_ref("asynchronous variable")?;
            words.expect_keyword("into")?;
            let dest = words.expect_ident("destination variable")?;
            words.expect_end()?;
            Some(format!("ZZCOPYF({var}, {dest})"))
        }
        "VOID" => {
            words.next_word();
            let var = words.expect_async_ref("asynchronous variable")?;
            words.expect_end()?;
            Some(format!("ZZVOID({var})"))
        }
        "SHARED" | "PRIVATE" | "ASYNC" => {
            words.next_word();
            let ty = words.expect_type()?;
            let decls = words.rest().trim().to_string();
            if decls.is_empty() {
                return Err(format!("{first} declaration lists no variables"));
            }
            if let Some(array) = overflowing_array(&decls) {
                return Err(format!(
                    "array `{array}` is too large: its element count overflows a {}-bit word",
                    usize::BITS
                ));
            }
            Some(format!("ZZ{first}({ty}, `{decls}')"))
        }
        "PRESCHED" | "SELFSCHED" => {
            words.next_word();
            let second = words.expect_word("DO, DO2 or Pcase")?.to_ascii_uppercase();
            match second.as_str() {
                "DO" => {
                    let label = words.expect_label()?;
                    let (control, sched) = split_schedule_suffix(words.rest())?;
                    if first == "PRESCHED" && !matches!(sched, ScheduleSuffix::None) {
                        return Err(
                            "CHUNK/GUIDED scheduling applies only to Selfsched DO".to_string()
                        );
                    }
                    let (var, e1, e2, e3) = parse_do_control(&control)?;
                    match sched {
                        ScheduleSuffix::None => Some(format!(
                            "ZZ{first}DO({label}, {var}, `{e1}', `{e2}', `{e3}')"
                        )),
                        ScheduleSuffix::Chunk(n) => Some(format!(
                            "ZZSELFSCHEDDOC({label}, {var}, `{e1}', `{e2}', `{e3}', `{n}')"
                        )),
                        ScheduleSuffix::Guided => Some(format!(
                            "ZZSELFSCHEDDOG({label}, {var}, `{e1}', `{e2}', `{e3}')"
                        )),
                    }
                }
                "DO2" => {
                    // Doubly nested loop over index *pairs* (§3.3):
                    //   Presched DO2 10 I = 1, N ; J = 1, M [, step]
                    let label = words.expect_label()?;
                    let rest = words.rest();
                    let (outer, inner) = rest
                        .split_once(';')
                        .ok_or_else(|| "DO2 needs two index sets separated by `;`".to_string())?;
                    let (v1, a1, b1, c1) = parse_do_control(outer)?;
                    let (v2, a2, b2, c2) = parse_do_control(inner)?;
                    Some(format!(
                        "ZZ{first}DO2({label}, {v1}, `{a1}', `{b1}', `{c1}', {v2}, `{a2}', `{b2}', `{c2}')"
                    ))
                }
                "PCASE" => Some(format!(
                    "ZZPCASE({})",
                    if first == "PRESCHED" { "P" } else { "S" }
                )),
                other => {
                    return Err(format!(
                        "expected DO, DO2 or Pcase after {first}, found `{other}`"
                    ))
                }
            }
        }
        "PCASE" => {
            words.next_word();
            words.expect_end()?;
            Some("ZZPCASE(P)".to_string())
        }
        "USECT" => {
            words.next_word();
            words.expect_end()?;
            Some("ZZUSECT".to_string())
        }
        "CSECT" => {
            words.next_word();
            let cond = words.rest().trim();
            let inner = cond
                .strip_prefix('(')
                .and_then(|c| c.strip_suffix(')'))
                .ok_or_else(|| "Csect needs a parenthesized condition".to_string())?;
            Some(format!("ZZCSECT(`{inner}')"))
        }
        "END" => {
            words.next_word();
            let what = words.expect_word("construct name")?.to_ascii_uppercase();
            match what.as_str() {
                "DECLARATIONS" => {
                    words.expect_end()?;
                    Some("ZZENDDECL".to_string())
                }
                "BARRIER" => {
                    words.expect_end()?;
                    Some("ZZENDBARRIER".to_string())
                }
                "CRITICAL" => {
                    let var = words.next_word().unwrap_or_default();
                    Some(format!("ZZENDCRITICAL({var})"))
                }
                "PCASE" => {
                    words.expect_end()?;
                    Some("ZZENDPCASE".to_string())
                }
                "PRESCHED" | "SELFSCHED" => {
                    let kw = words.expect_word("DO or DO2")?.to_ascii_uppercase();
                    if kw != "DO" && kw != "DO2" {
                        return Err(format!("expected DO or DO2, found `{kw}`"));
                    }
                    words.expect_end()?;
                    let label =
                        label.ok_or_else(|| format!("End {what} {kw} needs its loop label"))?;
                    return Ok(Cow::Owned(format!("ZZEND{what}{kw}({label})")));
                }
                // `END IF`, `END DO` etc. are ordinary Fortran.
                _ => None,
            }
        }
        _ => None,
    };

    match translated {
        Some(t) => {
            if let Some(label) = label {
                Err(format!(
                    "unexpected statement label {label} on a Force statement"
                ))
            } else {
                Ok(Cow::Owned(t))
            }
        }
        None => Ok(line),
    }
}

/// Why a user may not use an identifier.
enum Reserved {
    /// The macros generate this name (Fortran folds case, so either case
    /// collides).
    Generated,
    /// m4 would take it for a macro call (exactly this spelling).
    Macro,
}

/// Every name of the fixed macro tables — the builtins, the statement
/// macros, each personality's machine layer — collected once.
fn fixed_macro_names() -> &'static NameSet<&'static str> {
    static NAMES: OnceLock<NameSet<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| {
        let machine_layers = MachineId::all().into_iter().map(machine_macros);
        [builtin_macros(), statement_macros()]
            .into_iter()
            .chain(machine_layers)
            .flat_map(|table| table.names())
            .collect()
    })
}

/// The first identifier on `line` that the user may not use, and why
/// (`PUZZLE`, `BUZZ`, `LOOPS` and `LEN` are ordinary names).  Quoted text
/// is not scanned.
/// The first `NAME(d1, …)` of a declaration list whose integer
/// dimensions multiply past `usize::MAX` (a dimension that is not an
/// integer literal is the pipeline's to reject, with its own message).
fn overflowing_array(decls: &str) -> Option<&str> {
    let mut rest = decls;
    while let Some(open) = rest.find('(') {
        let close = open + rest[open..].find(')')?;
        let words = rest[open + 1..close]
            .split(',')
            .filter_map(|d| d.trim().parse::<usize>().ok())
            .try_fold(1usize, usize::checked_mul);
        if words.is_none() {
            let start = rest[..open].rfind(',').map_or(0, |i| i + 1);
            return Some(rest[start..=close].trim());
        }
        rest = &rest[close + 1..];
    }
    None
}

fn reserved_identifier(line: &str) -> Option<(&str, Reserved)> {
    let word_char = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut rest = line;
    loop {
        let start = rest.find(|c: char| word_char(c) || c == '\'' || c == '"')?;
        rest = &rest[start..];
        let first = rest.chars().next()?;
        if !word_char(first) {
            // Skip to the closing quote (a doubled quote just starts the
            // next literal); an unterminated literal ends the scan.
            let close = rest[1..].find(first)?;
            rest = &rest[close + 2..];
            continue;
        }
        let end = rest.find(|c: char| !word_char(c)).unwrap_or(rest.len());
        let (word, tail) = rest.split_at(end);
        rest = tail;
        if first.is_ascii_digit() {
            continue;
        }
        let starts_with = |prefix: &str| {
            word.len() >= prefix.len() && word[..prefix.len()].eq_ignore_ascii_case(prefix)
        };
        let ends_with = |suffix: &str| {
            word.len() >= suffix.len()
                && word[word.len() - suffix.len()..].eq_ignore_ascii_case(suffix)
        };
        let loop_lock =
            starts_with("LOOP") && word.len() > 4 && word[4..].bytes().all(|b| b.is_ascii_digit());
        if starts_with("ZZ")
            || ends_with("ZZE")
            || ends_with("ZZF")
            || word.eq_ignore_ascii_case("BARWIN")
            || word.eq_ignore_ascii_case("BARWOT")
            || loop_lock
        {
            return Some((word, Reserved::Generated));
        }
        if fixed_macro_names().contains(word) {
            return Some((word, Reserved::Macro));
        }
    }
}

/// Rewrite case-insensitive `Isfull(` tokens to the machine-layer macro
/// `zzisfull(`.  Token-boundary aware (an identifier like `XISFULL(` is
/// left alone).  A line without the token — nearly every line — is
/// handed back as it came.
fn rewrite_isfull(line: &str) -> Cow<'_, str> {
    let bytes = line.as_bytes();
    let word_byte = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = String::new();
    // `line[copied..]` is not in `out` yet.
    let mut copied = 0;
    let mut i = 0;
    while i + 6 <= bytes.len() {
        let is_kw = bytes[i..i + 6].eq_ignore_ascii_case(b"isfull")
            && (i == 0 || !word_byte(bytes[i - 1]))
            && line[i + 6..].trim_start().starts_with('(');
        if is_kw {
            out.push_str(&line[copied..i]);
            out.push_str("zzisfull");
            i += 6;
            copied = i;
        } else {
            i += 1;
        }
    }
    if copied == 0 {
        return Cow::Borrowed(line);
    }
    out.push_str(&line[copied..]);
    Cow::Owned(out)
}

/// Split a leading numeric label off a trimmed line.
fn split_label(s: &str) -> (Option<&str>, &str) {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    if end == 0 {
        (None, s)
    } else {
        (Some(&s[..end]), s[end..].trim_start())
    }
}

/// An optional scheduling suffix on `Selfsched DO`: `CHUNK <n>` claims
/// `n` trips per visit to the shared index (at least one: a literal
/// below 1 is an error, a run-time chunk is clamped), `GUIDED` uses
/// tapering chunks.  Absent, the paper's one-trip selfscheduling applies.
enum ScheduleSuffix {
    None,
    Chunk(String),
    Guided,
}

/// Split a trailing `CHUNK <tok>` or `GUIDED` keyword off the DO-control
/// text.  The keywords are case-insensitive and must stand as their own
/// trailing words; anything else stays part of the bounds expressions.
/// A chunk that claims no trip would have every process claim nothing
/// forever, so an integer literal below 1 is an error and any other
/// chunk becomes `MAX(1, tok)`, as a guided chunk is clamped.
fn split_schedule_suffix(s: &str) -> Result<(String, ScheduleSuffix), String> {
    let t = s.trim_end();
    if let Some(head) = strip_last_word(t, "GUIDED") {
        return Ok((head.to_string(), ScheduleSuffix::Guided));
    }
    if let Some(ws) = t.rfind(char::is_whitespace) {
        let (head, tok) = (t[..ws].trim_end(), t[ws..].trim());
        if let Some(head2) = strip_last_word(head, "CHUNK") {
            let chunk = match tok.parse::<i64>() {
                Ok(n) if n < 1 => {
                    return Err(format!("CHUNK {tok}: a chunk claims at least one trip"))
                }
                Ok(_) => tok.to_string(),
                Err(_) => format!("MAX(1, {tok})"),
            };
            return Ok((head2.to_string(), ScheduleSuffix::Chunk(chunk)));
        }
    }
    Ok((t.to_string(), ScheduleSuffix::None))
}

/// Strip an ASCII keyword standing as the final whitespace-separated
/// word of `s` (case-insensitive); `None` if it is not there.
fn strip_last_word<'a>(s: &'a str, word: &str) -> Option<&'a str> {
    let n = word.len();
    if s.len() <= n || !s.is_char_boundary(s.len() - n) {
        return None;
    }
    let (head, tail) = s.split_at(s.len() - n);
    if tail.eq_ignore_ascii_case(word) && head.ends_with(char::is_whitespace) {
        Some(head.trim_end())
    } else {
        None
    }
}

/// Parse the `V = E1, E2 [, E3]` DO-control after the label.
fn parse_do_control(s: &str) -> Result<(&str, &str, &str, &str), String> {
    let (var, rhs) = s
        .split_once('=')
        .ok_or_else(|| "DO statement needs `var = e1, e2[, e3]`".to_string())?;
    let var = var.trim();
    if !is_ident(var) {
        return Err(format!("`{var}` is not a valid loop variable"));
    }
    let mut bounds = top_level_items(rhs);
    match (bounds.next(), bounds.next(), bounds.next(), bounds.next()) {
        (Some(e1), Some(e2), e3, None) => Ok((var, e1, e2, e3.unwrap_or("1"))),
        _ => Err(format!(
            "DO control needs 2 or 3 bounds, found {}",
            top_level_items(rhs).count()
        )),
    }
}

/// The items of a comma list, trimmed, the empty ones left out.  Commas
/// nested in parentheses do not split: `A(1,2), B` has two items.
pub(crate) fn top_level_items(list: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(list);
    std::iter::from_fn(move || loop {
        let s = rest?;
        let mut depth = 0usize;
        let comma = s.bytes().position(|b| {
            match b {
                b'(' => depth += 1,
                b')' => depth = depth.saturating_sub(1),
                _ => {}
            }
            b == b',' && depth == 0
        });
        let item = match comma {
            Some(at) => {
                rest = Some(&s[at + 1..]);
                &s[..at]
            }
            None => {
                rest = None;
                s
            }
        };
        let item = item.trim();
        if !item.is_empty() {
            return Some(item);
        }
    })
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A tiny word scanner over one statement.
struct Words<'a> {
    rest: &'a str,
}

impl<'a> Words<'a> {
    fn new(s: &'a str) -> Self {
        Words { rest: s.trim() }
    }

    fn peek_word(&self) -> Option<&'a str> {
        let s = self.rest.trim_start();
        if s.is_empty() {
            return None;
        }
        let end = s
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(s.len());
        if end == 0 {
            None
        } else {
            Some(&s[..end])
        }
    }

    fn next_word(&mut self) -> Option<&'a str> {
        let s = self.rest.trim_start();
        let w = {
            let end = s
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(s.len());
            if end == 0 {
                return None;
            }
            &s[..end]
        };
        self.rest = &s[w.len()..];
        Some(w)
    }

    fn expect_word(&mut self, what: &str) -> Result<&'a str, String> {
        self.next_word()
            .ok_or_else(|| format!("expected {what}, found end of statement"))
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, String> {
        let w = self.expect_word(what)?;
        if is_ident(w) {
            Ok(w.to_string())
        } else {
            Err(format!("expected {what}, found `{w}`"))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), String> {
        let w = self.expect_word(kw)?;
        if w.eq_ignore_ascii_case(kw) {
            Ok(())
        } else {
            Err(format!("expected `{kw}`, found `{w}`"))
        }
    }

    fn expect_label(&mut self) -> Result<String, String> {
        let w = self.expect_word("statement label")?;
        if w.chars().all(|c| c.is_ascii_digit()) && !w.is_empty() {
            Ok(w.to_string())
        } else {
            Err(format!("expected a numeric label, found `{w}`"))
        }
    }

    fn expect_type(&mut self) -> Result<String, String> {
        let w = self.expect_word("type name")?.to_ascii_uppercase();
        match w.as_str() {
            "INTEGER" | "REAL" | "LOGICAL" => Ok(w),
            other => Err(format!("unsupported declaration type `{other}`")),
        }
    }

    /// An asynchronous variable reference: `C` or `C(subscripts)`.
    fn expect_async_ref(&mut self, what: &str) -> Result<String, String> {
        let name = self.expect_ident(what)?;
        let s = self.rest.trim_start();
        if s.starts_with('(') {
            let subs = self.maybe_paren_group();
            Ok(format!("{name}({subs})"))
        } else {
            Ok(name)
        }
    }

    fn expect_end(&mut self) -> Result<(), String> {
        if self.rest.trim().is_empty() {
            Ok(())
        } else {
            Err(format!("unexpected trailing text `{}`", self.rest.trim()))
        }
    }

    fn rest(&self) -> &'a str {
        self.rest
    }

    /// Consume a parenthesized group immediately following, returning its
    /// inner text ("" if absent).
    fn maybe_paren_group(&mut self) -> String {
        let s = self.rest.trim_start();
        if !s.starts_with('(') {
            return String::new();
        }
        let mut depth = 0usize;
        for (i, c) in s.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        let inner = &s[1..i];
                        self.rest = &s[i + 1..];
                        return inner.trim().to_string();
                    }
                }
                _ => {}
            }
        }
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(line: &str) -> String {
        translate_line(line).unwrap().into_owned()
    }

    #[test]
    fn force_header() {
        assert_eq!(
            one("      Force MAIN of NP ident ME"),
            "ZZFORCE(MAIN, NP, ME)"
        );
    }

    #[test]
    fn forcesub_with_and_without_args() {
        assert_eq!(
            one("      Forcesub WORK(A, N) of NP ident ME"),
            "ZZFORCESUB(WORK, `A, N', NP, ME)"
        );
        assert_eq!(
            one("      Forcesub NOP of NP ident ME"),
            "ZZFORCESUB(NOP, `', NP, ME)"
        );
    }

    #[test]
    fn selfsched_do_statement() {
        assert_eq!(
            one("      Selfsched DO 100 K = START, LAST, INCR"),
            "ZZSELFSCHEDDO(100, K, `START', `LAST', `INCR')"
        );
        assert_eq!(one("100   End Selfsched DO"), "ZZENDSELFSCHEDDO(100)");
    }

    #[test]
    fn selfsched_do_chunk_and_guided_suffixes() {
        assert_eq!(
            one("      Selfsched DO 100 K = 1, N CHUNK 4"),
            "ZZSELFSCHEDDOC(100, K, `1', `N', `1', `4')"
        );
        // A chunk known only at run time claims at least one trip.
        assert_eq!(
            one("      Selfsched DO 7 K = 1, 20, 2 chunk NC"),
            "ZZSELFSCHEDDOC(7, K, `1', `20', `2', `MAX(1, NC)')"
        );
        // A literal one that claims none is an error.
        for chunk in ["0", "-3"] {
            let line = format!("      Selfsched DO 8 K = 1, N CHUNK {chunk}");
            let err = translate_line(&line).unwrap_err();
            assert!(err.contains("at least one trip"), "{err}");
        }
        assert_eq!(
            one("      Selfsched DO 9 K = 1, N GUIDED"),
            "ZZSELFSCHEDDOG(9, K, `1', `N', `1')"
        );
        // The end statement is the plain one either way.
        assert_eq!(one("100   End Selfsched DO"), "ZZENDSELFSCHEDDO(100)");
        // Presched is static by definition: the suffixes are an error.
        assert!(translate_line("      Presched DO 10 I = 1, N CHUNK 4").is_err());
        assert!(translate_line("      Presched DO 10 I = 1, N GUIDED").is_err());
        // An identifier merely *containing* the keyword stays a bound.
        assert_eq!(
            one("      Selfsched DO 5 K = 1, NGUIDED"),
            "ZZSELFSCHEDDO(5, K, `1', `NGUIDED', `1')"
        );
    }

    #[test]
    fn presched_do_default_increment() {
        assert_eq!(
            one("      Presched DO 10 I = 1, N"),
            "ZZPRESCHEDDO(10, I, `1', `N', `1')"
        );
        assert_eq!(one("10    End presched DO"), "ZZENDPRESCHEDDO(10)");
    }

    #[test]
    fn do_bounds_may_be_expressions() {
        assert_eq!(
            one("      Presched DO 20 I = J+1, MIN(N, M), 2"),
            "ZZPRESCHEDDO(20, I, `J+1', `MIN(N, M)', `2')"
        );
    }

    #[test]
    fn barrier_and_critical() {
        assert_eq!(one("      Barrier"), "ZZBARRIER");
        assert_eq!(one("      End barrier"), "ZZENDBARRIER");
        assert_eq!(one("      Critical LCK"), "ZZCRITICAL(LCK)");
        assert_eq!(one("      End critical LCK"), "ZZENDCRITICAL(LCK)");
        assert_eq!(one("      End critical"), "ZZENDCRITICAL()");
    }

    #[test]
    fn produce_consume_void_copy() {
        assert_eq!(one("      Produce C = K + 1"), "ZZPRODUCE(C, `K + 1')");
        assert_eq!(one("      Consume C into T"), "ZZCONSUME(C, T)");
        assert_eq!(one("      Copy C into T"), "ZZCOPYF(C, T)");
        assert_eq!(one("      Void C"), "ZZVOID(C)");
    }

    #[test]
    fn declarations() {
        assert_eq!(
            one("      Shared INTEGER TOTAL, A(10)"),
            "ZZSHARED(INTEGER, `TOTAL, A(10)')"
        );
        assert_eq!(one("      Private REAL X"), "ZZPRIVATE(REAL, `X')");
        assert_eq!(one("      Async INTEGER C"), "ZZASYNC(INTEGER, `C')");
        assert_eq!(one("      End declarations"), "ZZENDDECL");
    }

    #[test]
    fn an_array_too_large_to_count_is_rejected_at_its_line() {
        let err = sed_pass(
            "      Force M of NP ident ME\n      Shared INTEGER X, A(4294967296, 4294967296)\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.message
                .contains("`A(4294967296, 4294967296)` is too large"),
            "{err}"
        );
        assert_eq!(overflowing_array("A(10, 20), B(N, 3), C"), None);
        assert_eq!(
            overflowing_array("B, C(4294967296,4294967296), D(2)"),
            Some("C(4294967296,4294967296)")
        );
        assert_eq!(
            overflowing_array("E(18446744073709551615, 2)"),
            Some("E(18446744073709551615, 2)")
        );
    }

    #[test]
    fn pcase_family() {
        assert_eq!(one("      Pcase"), "ZZPCASE(P)");
        assert_eq!(one("      Presched Pcase"), "ZZPCASE(P)");
        assert_eq!(one("      Selfsched Pcase"), "ZZPCASE(S)");
        assert_eq!(one("      Usect"), "ZZUSECT");
        assert_eq!(one("      Csect (N .GT. 0)"), "ZZCSECT(`N .GT. 0')");
        assert_eq!(one("      End pcase"), "ZZENDPCASE");
    }

    #[test]
    fn join_and_externf() {
        assert_eq!(one("      Join"), "ZZJOIN");
        assert_eq!(one("      Externf WORK"), "ZZEXTERNF(WORK)");
    }

    #[test]
    fn plain_fortran_passes_through() {
        let lines = [
            "      TOTAL = TOTAL + K",
            "      IF (K .GT. 0) THEN",
            "      END IF",
            "100   CONTINUE",
            "      CALL WORK(A, N)",
            "      END DO",
            "",
        ];
        for l in lines {
            assert_eq!(one(l), l, "line should pass through: {l}");
        }
    }

    #[test]
    fn comments_pass_through_even_if_force_like() {
        assert_eq!(one("C     Barrier"), "C     Barrier");
        assert_eq!(one("* Join"), "* Join");
        assert_eq!(one("! Critical X"), "! Critical X");
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(one("      BARRIER"), "ZZBARRIER");
        assert_eq!(one("      barrier"), "ZZBARRIER");
        assert_eq!(
            one("      selfsched do 5 k = 1, 3"),
            "ZZSELFSCHEDDO(5, k, `1', `3', `1')"
        );
    }

    #[test]
    fn whole_file_reports_line_numbers() {
        let src = "      Force M of NP ident ME\n      Consume C\n";
        let err = sed_pass(src).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("into"), "{}", err.message);
    }

    #[test]
    fn end_do_without_label_is_an_error() {
        let err = translate_line("      End selfsched DO").unwrap_err();
        assert!(err.contains("label"), "{err}");
    }

    #[test]
    fn bad_do_control_is_an_error() {
        assert!(translate_line("      Presched DO 10 I = 1").is_err());
        assert!(translate_line("      Presched DO 10 = 1, 2").is_err());
        assert!(translate_line("      Presched DO xx I = 1, 2").is_err());
    }

    #[test]
    fn do2_statements() {
        assert_eq!(
            one("      Selfsched DO2 100 I = 1, N ; J = 1, M"),
            "ZZSELFSCHEDDO2(100, I, `1', `N', `1', J, `1', `M', `1')"
        );
        assert_eq!(
            one("      Presched DO2 20 I = 2, 8, 2 ; J = 9, 1, -3"),
            "ZZPRESCHEDDO2(20, I, `2', `8', `2', J, `9', `1', `-3')"
        );
        assert_eq!(one("100   End selfsched DO2"), "ZZENDSELFSCHEDDO2(100)");
        assert_eq!(one("20    End presched DO2"), "ZZENDPRESCHEDDO2(20)");
        assert!(translate_line("      Presched DO2 5 I = 1, 2").is_err());
    }

    #[test]
    fn generated_namespace_is_reserved() {
        for (line, name) in [
            ("      Shared INTEGER VZZE", "VZZE"),
            ("      Private INTEGER ZZT", "ZZT"),
            ("      X = Y + czzf(3)", "czzf"),
            ("      CALL zzinitl(L)", "zzinitl"),
        ] {
            let err = translate_line(line).unwrap_err();
            assert!(err.contains(&format!("`{name}`")), "{line}: {err}");
        }
        for line in [
            "      PUZZLE = BUZZ + FIZZ_E",
            "      PRINT *, 'ZZT and VZZE', 'it''s'",
            "      X = 1ZZE",
            "C     ZZT in a comment",
            "      PRINT *, \"ZZF",
        ] {
            assert_eq!(one(line), line);
        }
        let err =
            sed_pass("      Force M of NP ident ME\n      Private INTEGER ZZT\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn macro_names_are_reserved_as_spelled() {
        // m4 does not fold case: the lower-case spelling is a macro call.
        for name in ["len", "incr", "define", "dnl", "lock", "unlock"] {
            let err = translate_line(&format!("      TOTAL = 3 + {name}")).unwrap_err();
            assert!(err.contains(&format!("`{name}`")), "{err}");
            let upper = name.to_ascii_uppercase();
            assert!(err.contains(&format!("spelling `{upper}`")), "{err}");
            let line = format!("      TOTAL = 3 + {upper}");
            assert_eq!(one(&line), line);
        }
        // Fortran does: a generated name collides in either case.
        for name in ["BARWIN", "barwot", "Loop100", "LOOP7"] {
            let err = translate_line(&format!("      Shared INTEGER {name}")).unwrap_err();
            assert!(err.contains(&format!("`{name}`")), "{err}");
            assert!(err.contains("generated namespace"), "{err}");
        }
        for line in [
            "      LOOPS = LOOP + LOOP_1 + UNLOCKED + Lock1",
            "      PRINT *, 'len of lock', \"incr\"",
            "C     define(`x', `y') in a comment",
        ] {
            assert_eq!(one(line), line);
        }
        // The set is read off the tables, so it holds their every name.
        assert!(fixed_macro_names().len() >= 21 + 34 + 7);
    }

    #[test]
    fn split_top_commas_respects_parens() {
        assert_eq!(
            top_level_items("A(1,2), B, MAX(C, D)").collect::<Vec<_>>(),
            vec!["A(1,2)", "B", "MAX(C, D)"]
        );
    }
}

#[cfg(test)]
mod isfull_tests {
    use super::translate_line;

    #[test]
    fn isfull_rewrites_token_boundary_aware() {
        assert_eq!(
            translate_line("      IF (Isfull(C)) THEN").unwrap(),
            "      IF (zzisfull(C)) THEN"
        );
        assert_eq!(
            translate_line("      X = ISFULL (C)").unwrap(),
            "      X = zzisfull (C)"
        );
        // not at a token boundary, or no call parentheses: untouched
        assert_eq!(
            translate_line("      XISFULL(C) = 1").unwrap(),
            "      XISFULL(C) = 1"
        );
        assert_eq!(
            translate_line("      ISFULLY = 1").unwrap(),
            "      ISFULLY = 1"
        );
    }

    #[test]
    fn isfull_survives_non_ascii_text() {
        // must not panic on multi-byte characters (found by proptest)
        let weird = "      X = 1 ! caf\u{e9} \u{108f0} isfull(";
        let _ = translate_line(weird);
        let _ = super::sed_pass("'\u{e9}\"`\u{108f0}M isfull(x)\n");
    }
}

/// Regressions pinning UTF-8 safety.  A proptest shrinker once reduced a
/// sed-pass crash candidate to the two-character line `"Σ`; everything
/// here must stay panic-free whatever the translation outcome.
#[cfg(test)]
mod utf8_regressions {
    use super::{sed_pass, translate_line};

    #[test]
    fn quoted_sigma_line_translates_without_panicking() {
        // The shrunk proptest seed: a double quote followed by a
        // multi-byte character.  Slicing with a *char* index instead of a
        // byte offset would split Σ (0xCE 0xA3) in half and panic.
        let _ = translate_line("\"\u{3a3}");
        let _ = sed_pass("\"\u{3a3}\n");
        let _ = sed_pass("      X = \"\u{3a3}\n");
    }

    #[test]
    fn multibyte_text_flows_through_paren_groups() {
        // maybe_paren_group walks char_indices (byte offsets) and slices
        // the inner text; multi-byte argument content must come out whole.
        assert_eq!(
            translate_line("      Forcesub W(caf\u{e9}\u{3a3}x, \u{6f22}\u{5b57}) of NP ident ME")
                .unwrap(),
            "ZZFORCESUB(W, `caf\u{e9}\u{3a3}x, \u{6f22}\u{5b57}', NP, ME)"
        );
        // A multi-byte char directly against the closing paren exercises
        // the `&s[1..i]` / `&s[i + 1..]` boundary slices.
        assert_eq!(
            translate_line("      Critical LCK").unwrap(),
            "ZZCRITICAL(LCK)"
        );
        assert_eq!(
            translate_line("      Produce C(\u{3a3}) = \u{3a3}+1").unwrap(),
            "ZZPRODUCE(C(\u{3a3}), `\u{3a3}+1')"
        );
    }

    #[test]
    fn multibyte_noise_never_panics_the_word_scanner() {
        // The Words scanner (expect_word / expect_ident / bounds parsing)
        // searches by byte index; mixed-width noise around every keyword
        // position must fail cleanly or pass through, never panic.
        for line in [
            "      Force \u{3a3} of NP ident ME",
            "      Selfsched DO 10 \u{3a3} = 1, \u{6f22}",
            "      Critical \u{e9}\u{3a3}",
            "      Produce \u{3a3} = 1",
            "      Copy \u{3a3} into \u{6f22}",
            "\u{3a3}\"\u{3a3}'\u{3a3}`\u{3a3}",
        ] {
            let _ = translate_line(line);
            let _ = sed_pass(&format!("{line}\n"));
        }
    }
}
