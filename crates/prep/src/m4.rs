//! A from-scratch m4-subset macro processor.
//!
//! §4.3: "The stream editor sed translates the Force syntax into
//! parameterized function macros.  Then the macro processor m4 replaces
//! the function macros with Fortran code and the language extensions
//! supporting parallel programming."
//!
//! This engine implements the m4 semantics the Force macro set needs:
//!
//! * `define(name, body)` / `undefine` / `defn` / `pushdef` / `popdef`;
//! * argument substitution `$0`–`$9`, `$#`, `$*`;
//! * quoting with `` ` `` and `'` (one quote level stripped per scan);
//! * conditionals `ifdef` and multi-branch `ifelse`;
//! * arithmetic `incr`, `decr`, `eval` (integer `+ - * / % ( )`);
//! * `dnl` (discard to end of line);
//! * the Force *utility macros* of §4.2 — "returning the first element of
//!   a list, storing and retrieving definitions, concatenating and
//!   truncating arguments, and deletion of dimensions for common
//!   declarations": `zzfirst`, `zzrest`, `zzconcat`, `zzstripdims`,
//!   plus stateful recording builtins (`zzrecord`, `zzgensym`) standing in
//!   for m4's divert/define bookkeeping tricks.
//!
//! Macro results are recursively rescanned (with a depth limit that turns
//! runaway recursion into an error instead of a hang).
//!
//! # Tables and overlay
//!
//! The definitions every run starts from — the builtins here, the
//! statement macros of [`crate::macros`], one machine layer of
//! [`crate::machdep_macros`] — never change, so each set is a
//! `MacroTable` built once per process, its bodies already split at
//! their `$` parameters.  An [`M4`] holds references to the tables
//! installed into it and owns only an *overlay*: what the run itself
//! defines (`ZZUNIT`, the per-label `ZZDO…` names, `pushdef` stacks), the
//! recording lists and the gensym counter.
//!
//! # Bytes, not characters
//!
//! The scanner walks `&str` bytes.  Everything m4 gives meaning to — the
//! quotes, parentheses, comma, `$`, newline and the `[A-Za-z0-9_]` of a
//! name — is ASCII, and an ASCII byte inside UTF-8 text is always a whole
//! character, never part of a longer one.  Every slice is therefore cut
//! at character boundaries, and multi-byte text travels inside the plain
//! runs between delimiters untouched.

use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

use crate::sedpass::top_level_items;

/// A hasher for the short ASCII names m4 looks up once per identifier it
/// scans: a word at a time, multiply and rotate, and a final mix so that
/// the low bits a table indexes by depend on every byte.  The names are
/// the program's own, so the flooding a keyed hasher defends against is
/// not a concern here.
#[derive(Default, Clone, Copy)]
pub(crate) struct NameHasher(u64);

impl NameHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for NameHasher {
    /// A name that fits 16 bytes is read as two (overlapping) words.
    fn write(&mut self, b: &[u8]) {
        let n = b.len();
        let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("eight bytes"));
        let half = |i: usize| u64::from(u32::from_le_bytes(b[i..i + 4].try_into().expect("four")));
        self.add(n as u64);
        let (x, y) = match n {
            0 => (0, 0),
            1..=3 => (
                u64::from(b[0]) | u64::from(b[n / 2]) << 8 | u64::from(b[n - 1]) << 16,
                0,
            ),
            4..=7 => (half(0), half(n - 4)),
            _ => {
                let mut i = 0;
                while i + 16 < n {
                    self.add(word(i));
                    i += 8;
                }
                (word(i), word(n - 8))
            }
        };
        self.add(x);
        self.add(y);
    }

    fn write_u8(&mut self, b: u8) {
        self.add(u64::from(b));
    }

    fn finish(&self) -> u64 {
        let h = self.0;
        (h ^ (h >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ (h >> 29)
    }
}

/// A map keyed by names, hashed with [`NameHasher`].
pub(crate) type NameMap<K, V> = HashMap<K, V, BuildHasherDefault<NameHasher>>;

/// A set of names, hashed with [`NameHasher`].
pub(crate) type NameSet<K> = HashSet<K, BuildHasherDefault<NameHasher>>;

/// Maximum rescan depth before reporting runaway recursion.
const MAX_DEPTH: usize = 200;

/// Errors from macro expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum M4Error {
    /// Quote or parenthesis never closed.
    Unterminated(&'static str),
    /// Macro recursion exceeded the depth limit (`MAX_DEPTH`).
    RecursionLimit(String),
    /// A builtin was called with unusable arguments.
    BadArguments {
        builtin: &'static str,
        detail: String,
    },
}

impl fmt::Display for M4Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            M4Error::Unterminated(what) => write!(f, "unterminated {what}"),
            M4Error::RecursionLimit(name) => {
                write!(f, "macro recursion limit exceeded while expanding `{name}`")
            }
            M4Error::BadArguments { builtin, detail } => {
                write!(f, "bad arguments to `{builtin}`: {detail}")
            }
        }
    }
}

impl std::error::Error for M4Error {}

/// What the engine's own functions return.  The error travels boxed: in a
/// debug build every `?` keeps several copies of its `Result` in the
/// frame, and the two functions that recurse, [`M4::scan`] and
/// [`M4::call`], have to fit `MAX_DEPTH` levels into a small stack.
type Expansion<T> = Result<T, Box<M4Error>>;

/// What a `$x` in a macro body stands for.
#[derive(Clone, Copy)]
enum Param {
    /// `$0`: the macro's own name.
    Name,
    /// `$1`–`$9`, counted from zero.
    Arg(u8),
    /// `$#`: the number of arguments.
    Count,
    /// `$*`: all arguments, comma-separated.
    All,
}

/// A text macro's replacement, split once when it is defined: its literal
/// segments are the stretches of `text` between the two-byte parameters
/// listed in `params`.
struct Body {
    text: String,
    /// `(offset of the `$`, what it stands for)`, ascending.
    params: Vec<(usize, Param)>,
}

impl Body {
    fn parse(text: &str) -> Body {
        let bytes = text.as_bytes();
        let mut params = Vec::new();
        let mut i = 0;
        while i + 1 < bytes.len() {
            let param = match (bytes[i], bytes[i + 1]) {
                (b'$', b'0') => Some(Param::Name),
                (b'$', d @ b'1'..=b'9') => Some(Param::Arg(d - b'1')),
                (b'$', b'#') => Some(Param::Count),
                (b'$', b'*') => Some(Param::All),
                _ => None,
            };
            match param {
                Some(param) => {
                    params.push((i, param));
                    i += 2;
                }
                None => i += 1,
            }
        }
        Body {
            text: text.to_string(),
            params,
        }
    }

    /// Append the body to `out` with the call's name and arguments in
    /// place of its parameters.
    fn substitute(&self, name: &str, args: &Args, out: &mut String) {
        let mut at = 0;
        for &(offset, param) in &self.params {
            out.push_str(&self.text[at..offset]);
            match param {
                Param::Name => out.push_str(name),
                Param::Arg(n) => out.push_str(args.get(usize::from(n))),
                Param::Count => push_int(out, args.len()),
                Param::All => args.join_into(out),
            }
            at = offset + 2;
        }
        out.push_str(&self.text[at..]);
    }
}

fn push_int(out: &mut String, n: impl fmt::Display) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{n}");
}

/// The expanded arguments of one macro call, back to back in one buffer.
#[derive(Default)]
struct Args {
    text: String,
    /// Where each argument ends in `text`.
    ends: Vec<usize>,
}

impl Args {
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Argument `i`; empty past the last, m4's rule for a missing one.
    fn get(&self, i: usize) -> &str {
        match self.ends.get(i) {
            Some(&end) => &self.text[i.checked_sub(1).map_or(0, |prev| self.ends[prev])..end],
            None => "",
        }
    }

    fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Append the arguments to `out`, comma-separated (`$*`).
    fn join_into(&self, out: &mut String) {
        for (n, arg) in self.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str(arg);
        }
    }

    fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }
}

/// The built-in functions.
#[derive(Clone, Copy)]
enum Builtin {
    Define,
    Undefine,
    Defn,
    Pushdef,
    Popdef,
    Ifdef,
    Ifelse,
    Incr,
    Decr,
    Eval,
    Dnl,
    Len,
    First,
    Rest,
    Concat,
    /// `zzstripdims` and `zzname`.
    StripDims,
    Record,
    Gensym,
    DeclRec,
    Subs,
}

const BUILTINS: &[(&str, Builtin)] = &[
    ("define", Builtin::Define),
    ("undefine", Builtin::Undefine),
    ("defn", Builtin::Defn),
    ("pushdef", Builtin::Pushdef),
    ("popdef", Builtin::Popdef),
    ("ifdef", Builtin::Ifdef),
    ("ifelse", Builtin::Ifelse),
    ("incr", Builtin::Incr),
    ("decr", Builtin::Decr),
    ("eval", Builtin::Eval),
    ("dnl", Builtin::Dnl),
    ("len", Builtin::Len),
    ("zzfirst", Builtin::First),
    ("zzrest", Builtin::Rest),
    ("zzconcat", Builtin::Concat),
    ("zzstripdims", Builtin::StripDims),
    ("zzrecord", Builtin::Record),
    ("zzgensym", Builtin::Gensym),
    ("zzdeclrec", Builtin::DeclRec),
    ("zzname", Builtin::StripDims),
    ("zzsubs", Builtin::Subs),
];

/// A macro definition: replacement text or a built-in function.
enum Def {
    Text(Body),
    Builtin(Builtin),
}

/// The bit that stands for `name`'s first byte in an `initials` mask.  A
/// name the scanner can meet starts with one of `[A-Za-z_]`, all inside
/// `'A'..='z'`; every other name shares the top bit.
fn initial_bit(name: &str) -> u64 {
    match name.as_bytes().first() {
        Some(&b @ b'A'..=b'z') => 1 << (b - b'A'),
        _ => 1 << 63,
    }
}

/// An immutable set of definitions, built once per process and shared by
/// every [`M4`] it is installed into.
pub(crate) struct MacroTable {
    defs: NameMap<&'static str, Def>,
    /// [`initial_bit`] of every name in `defs`: most identifiers of a
    /// Fortran text are ruled out by their first letter, before any hash.
    initials: u64,
}

impl MacroTable {
    /// A table of text macros, `(name, body)`.
    pub(crate) fn new<B: AsRef<str>>(macros: &[(&'static str, B)]) -> MacroTable {
        MacroTable::from_defs(
            macros
                .iter()
                .map(|(name, body)| (*name, Def::Text(Body::parse(body.as_ref())))),
        )
    }

    fn from_defs(defs: impl Iterator<Item = (&'static str, Def)>) -> MacroTable {
        let defs: NameMap<_, _> = defs.collect();
        let initials = defs.keys().fold(0, |mask, name| mask | initial_bit(name));
        MacroTable { defs, initials }
    }

    /// The names this table defines, in no particular order.
    pub(crate) fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.defs.keys().copied()
    }

    fn get(&self, name: &str) -> Option<&Def> {
        (self.initials & initial_bit(name) != 0)
            .then(|| self.defs.get(name))
            .flatten()
    }
}

/// The builtins: the table every engine starts with.
pub(crate) fn builtin_macros() -> &'static MacroTable {
    static TABLE: OnceLock<MacroTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        MacroTable::from_defs(BUILTINS.iter().map(|&(name, b)| (name, Def::Builtin(b))))
    })
}

/// One entry of an overlay stack: a definition the run made, or the fixed
/// one a `pushdef`/`popdef` found underneath.
enum Local {
    Own(Def),
    Fixed(&'static Def),
}

impl Local {
    fn def(&self) -> &Def {
        match self {
            Local::Own(def) => def,
            Local::Fixed(def) => def,
        }
    }
}

/// The macro processor state of one run.
pub struct M4 {
    /// The fixed definitions installed into this engine, oldest first; a
    /// later table's definition of a name wins.
    tables: Vec<&'static MacroTable>,
    /// What the run defined itself: name -> definition stack (top =
    /// active; pushdef/popdef).  An entry shadows every table — an empty
    /// stack too, which is a name the run undefined.
    overlay: NameMap<String, Vec<Local>>,
    /// [`initial_bit`] of every name `overlay` has held.
    overlay_initials: u64,
    /// Recording lists (`zzrecord`): ordered, deduplicated.
    lists: NameMap<String, Vec<String>>,
    gensym: u64,
    /// The buffers of finished calls, kept for the next call.
    spare_args: Vec<Args>,
    spare_text: Vec<String>,
}

impl Default for M4 {
    fn default() -> Self {
        Self::new()
    }
}

impl M4 {
    /// A fresh engine with the builtins registered.
    pub fn new() -> Self {
        M4 {
            tables: vec![builtin_macros()],
            overlay: NameMap::default(),
            overlay_initials: 0,
            lists: NameMap::default(),
            gensym: 0,
            spare_args: Vec::new(),
            spare_text: Vec::new(),
        }
    }

    /// Add a fixed set of definitions, as if each had just been
    /// [`define`](Self::define)d.
    pub(crate) fn install(&mut self, table: &'static MacroTable) {
        if !self.overlay.is_empty() {
            for name in table.names() {
                self.overlay.remove(name);
            }
        }
        self.tables.push(table);
    }

    /// Define (or redefine) a text macro programmatically.
    pub fn define(&mut self, name: &str, body: &str) {
        let stack = self.stack_mut(name);
        stack.clear();
        stack.push(Local::Own(Def::Text(Body::parse(body))));
    }

    /// Whether `name` is currently defined.
    pub fn is_defined(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    /// The items recorded under `list` by `zzrecord`, in first-recorded
    /// order.
    pub fn recorded(&self, list: &str) -> &[String] {
        self.lists.get(list).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Expand `input` fully.
    pub fn expand(&mut self, input: &str) -> Result<String, M4Error> {
        let mut out = String::with_capacity(2 * input.len());
        match self.scan(input, 0, &mut out) {
            Ok(()) => Ok(out),
            Err(e) => Err(*e),
        }
    }

    /// `name`'s definition in the installed tables.
    fn fixed(&self, name: &str) -> Option<&'static Def> {
        self.tables.iter().rev().find_map(|table| table.get(name))
    }

    /// `name`'s active definition.
    fn lookup(&self, name: &str) -> Option<&Def> {
        if self.overlay_initials & initial_bit(name) != 0 {
            if let Some(stack) = self.overlay.get(name) {
                return stack.last().map(Local::def);
            }
        }
        self.fixed(name)
    }

    /// `name`'s overlay stack; the first time the run touches a name, the
    /// stack starts from the name's fixed definition, if it has one.
    fn stack_mut(&mut self, name: &str) -> &mut Vec<Local> {
        if !self.overlay.contains_key(name) {
            let fixed = self.fixed(name).map(Local::Fixed);
            self.overlay_initials |= initial_bit(name);
            self.overlay
                .insert(name.to_string(), fixed.into_iter().collect());
        }
        self.overlay
            .get_mut(name)
            .expect("present or just inserted")
    }

    /// Append the expansion of `input` to `out`.
    fn scan(&mut self, input: &str, depth: usize, out: &mut String) -> Expansion<()> {
        if depth > MAX_DEPTH {
            return Err(too_deep(input).into());
        }
        let bytes = input.as_bytes();
        // `input[plain..i]` is scanned text that passes through as it is.
        let (mut i, mut plain) = (0, 0);
        while i < bytes.len() {
            match bytes[i] {
                b'`' => {
                    // Quoted text: copy verbatim, stripping one quote level.
                    let close = quote_end(bytes, i)?;
                    out.push_str(&input[plain..i]);
                    out.push_str(&input[i + 1..close]);
                    i = close + 1;
                    plain = i;
                }
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                    let start = i;
                    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    let name = &input[start..i];
                    if self.is_defined(name) {
                        out.push_str(&input[plain..start]);
                        i = self.call(name, input, i, depth, out)?;
                        plain = i;
                    }
                }
                _ => i += 1,
            }
        }
        out.push_str(&input[plain..]);
        Ok(())
    }

    /// Expand one call of the macro `name`, which ends at `input[after]`:
    /// expand its arguments, if a `(` follows at once, append its
    /// rescanned replacement to `out`, and return where the scan resumes.
    ///
    /// This and [`scan`](Self::scan) are the recursion: 200 levels of them
    /// have to fit a 512 KiB stack in a debug build, so what does not
    /// recurse lives in functions of its own, off their frames.
    fn call(
        &mut self,
        name: &str,
        input: &str,
        after: usize,
        depth: usize,
        out: &mut String,
    ) -> Expansion<usize> {
        let mut args = self.spare_args.pop().unwrap_or_default();
        let next = self.expand_args(input, after, depth, &mut args)?;
        let mut text = self.spare_text.pop().unwrap_or_default();
        self.replacement(name, &args, next > after, depth, &mut text, out)?;
        if !text.is_empty() {
            self.scan(&text, depth + 1, out)?;
        }
        args.clear();
        text.clear();
        self.spare_args.push(args);
        self.spare_text.push(text);
        // `dnl` handling: swallow to end of line.
        Ok(if name == "dnl" {
            line_end(input.as_bytes(), next)
        } else {
            next
        })
    }

    /// Expand the argument list that opens at `input[open]`, if one does,
    /// into `args`; returns where the call ends.
    fn expand_args(
        &mut self,
        input: &str,
        open: usize,
        depth: usize,
        args: &mut Args,
    ) -> Expansion<usize> {
        let bytes = input.as_bytes();
        if bytes.get(open) != Some(&b'(') {
            return Ok(open);
        }
        // First the whole list, so that an unclosed one is reported before
        // any argument has run; then `ends[k]` turns from where the raw
        // argument ends in `input` into where the expanded one ends in
        // `args.text`.
        delimit_args(bytes, open, &mut args.ends)?;
        let mut start = open + 1;
        for k in 0..args.ends.len() {
            let end = args.ends[k];
            self.scan(input[start..end].trim_start(), depth + 1, &mut args.text)?;
            args.ends[k] = args.text.len();
            start = end + 1;
        }
        Ok(start)
    }

    /// What a call of `name` with `args` is replaced by, appended to
    /// `text` for the rescan.
    fn replacement(
        &mut self,
        name: &str,
        args: &Args,
        parenthesised: bool,
        depth: usize,
        text: &mut String,
        out: &mut String,
    ) -> Expansion<()> {
        // The definition is looked up once the arguments have run: they
        // may have redefined the macro they are arguments of.
        let builtin = match self.lookup(name) {
            Some(Def::Text(body)) => {
                body.substitute(name, args, text);
                return Ok(());
            }
            Some(Def::Builtin(builtin)) => *builtin,
            // Or undefined it: then it is a name like any other, followed
            // by parenthesised text.
            None => {
                out.push_str(name);
                if parenthesised {
                    out.push('(');
                    args.join_into(out);
                    out.push(')');
                }
                return Ok(());
            }
        };
        self.builtin(builtin, args, depth, text)
    }

    /// Run a builtin; what it expands to is appended to `out`.
    fn builtin(
        &mut self,
        builtin: Builtin,
        args: &Args,
        depth: usize,
        out: &mut String,
    ) -> Expansion<()> {
        let arg = |i: usize| args.get(i);
        match builtin {
            Builtin::Define => {
                if !arg(0).is_empty() {
                    self.define(arg(0), arg(1));
                }
            }
            Builtin::Pushdef => {
                let def = Local::Own(Def::Text(Body::parse(arg(1))));
                self.stack_mut(arg(0)).push(def);
            }
            Builtin::Popdef => {
                self.stack_mut(arg(0)).pop();
            }
            Builtin::Undefine => self.stack_mut(arg(0)).clear(),
            Builtin::Defn => {
                // Return quoted so the definition is not re-expanded here.
                out.push('`');
                if let Some(Def::Text(body)) = self.lookup(arg(0)) {
                    out.push_str(&body.text);
                }
                out.push('\'');
            }
            Builtin::Ifdef => out.push_str(if self.is_defined(arg(0)) {
                arg(1)
            } else {
                arg(2)
            }),
            Builtin::Ifelse => {
                // ifelse(a, b, then [, a2, b2, then2]... [, else])
                let mut i = 0;
                while args.len() >= i + 3 {
                    if arg(i) == arg(i + 1) {
                        out.push_str(arg(i + 2));
                        break;
                    }
                    if args.len() == i + 4 {
                        out.push_str(arg(i + 3));
                        break;
                    }
                    i += 3;
                }
            }
            Builtin::Incr => push_int(
                out,
                checked("incr", parse_int("incr", arg(0))?.checked_add(1))?,
            ),
            Builtin::Decr => push_int(
                out,
                checked("decr", parse_int("decr", arg(0))?.checked_sub(1))?,
            ),
            Builtin::Eval => push_int(out, eval_expr(arg(0), depth)?),
            Builtin::Dnl => {}
            Builtin::Len => push_int(out, arg(0).chars().count()),
            // First element of a comma list (commas inside parentheses
            // do not split, so `A(10,10), B` has first element `A(10,10)`).
            Builtin::First => out.push_str(top_level_items(arg(0)).next().unwrap_or_default()),
            // The list with its first element removed.
            Builtin::Rest => {
                for (n, item) in top_level_items(arg(0)).skip(1).enumerate() {
                    if n > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(item);
                }
            }
            Builtin::Concat => out.push_str(&args.text),
            Builtin::StripDims => out.push_str(strip_dims(arg(0))),
            Builtin::Subs => {
                // The subscript part of a variable reference: `C(I)` ->
                // `(I)`, `C` -> `` (empty).
                let a = arg(0).trim();
                if let Some(p) = a.find('(') {
                    out.push_str(&a[p..]);
                }
            }
            Builtin::Record => {
                let item = arg(1).trim();
                let list = self.list_mut(arg(0));
                if !item.is_empty() && !list.iter().any(|have| have == item) {
                    list.push(item.to_string());
                }
            }
            Builtin::Gensym => {
                self.gensym += 1;
                out.push_str(arg(0));
                push_int(out, self.gensym);
            }
            Builtin::DeclRec => {
                // Record one declaration list: `zzdeclrec(class, type, decls)`
                // appends `unit|class|type|item` to the `decls` list for each
                // top-level comma-separated item, where `unit` is the current
                // text definition of `ZZUNIT`.
                let unit = match self.lookup("ZZUNIT") {
                    Some(Def::Text(body)) => body.text.clone(),
                    _ => {
                        return Err(Box::new(M4Error::BadArguments {
                            builtin: "zzdeclrec",
                            detail: "no Force unit is open (missing Force/Forcesub header)".into(),
                        }))
                    }
                };
                let (class, ty) = (arg(0), arg(1));
                let list = self.list_mut("decls");
                for item in top_level_items(arg(2)) {
                    let entry = format!("{unit}|{class}|{ty}|{item}");
                    if !list.contains(&entry) {
                        list.push(entry);
                    }
                }
            }
        }
        Ok(())
    }

    /// The recording list `name`, created on first use.
    fn list_mut(&mut self, name: &str) -> &mut Vec<String> {
        if !self.lists.contains_key(name) {
            self.lists.insert(name.to_string(), Vec::new());
        }
        self.lists.get_mut(name).expect("present or just inserted")
    }
}

/// The error for text that would be scanned past [`MAX_DEPTH`].
fn too_deep(input: &str) -> M4Error {
    M4Error::RecursionLimit(input.chars().take(32).collect())
}

/// The offset just past the line that `bytes[from]` is on.
fn line_end(bytes: &[u8], from: usize) -> usize {
    match bytes[from..].iter().position(|&b| b == b'\n') {
        Some(newline) => from + newline + 1,
        None => bytes.len(),
    }
}

/// Where the quote that opens at `bytes[open]` closes: the offset of the
/// matching `'`.
fn quote_end(bytes: &[u8], open: usize) -> Expansion<usize> {
    debug_assert_eq!(bytes[open], b'`');
    let mut depth = 1usize;
    for (i, &b) in bytes.iter().enumerate().skip(open + 1) {
        match b {
            b'`' => depth += 1,
            b'\'' => {
                depth -= 1;
                if depth == 0 {
                    return Ok(i);
                }
            }
            _ => {}
        }
    }
    Err(Box::new(M4Error::Unterminated("quote")))
}

/// Delimit the argument list that opens at `bytes[open]`: push the offset
/// of every argument's end — each top-level comma, then the closing `)`.
/// Commas inside nested parentheses or quotes do not split.
fn delimit_args(bytes: &[u8], open: usize, ends: &mut Vec<usize>) -> Expansion<()> {
    debug_assert_eq!(bytes[open], b'(');
    let (mut paren, mut quote) = (1usize, 0usize);
    for (i, &b) in bytes.iter().enumerate().skip(open + 1) {
        match b {
            b'`' => quote += 1,
            b'\'' if quote > 0 => quote -= 1,
            b'(' if quote == 0 => paren += 1,
            b')' if quote == 0 => {
                paren -= 1;
                if paren == 0 {
                    ends.push(i);
                    return Ok(());
                }
            }
            b',' if quote == 0 && paren == 1 => ends.push(i),
            _ => {}
        }
    }
    Err(Box::new(M4Error::Unterminated("argument list")))
}

fn parse_int(builtin: &'static str, s: &str) -> Result<i64, M4Error> {
    s.trim().parse::<i64>().map_err(|_| M4Error::BadArguments {
        builtin,
        detail: format!("`{s}` is not an integer"),
    })
}

/// The result of checked `i64` arithmetic on a builtin's arguments.
fn checked(builtin: &'static str, result: Option<i64>) -> Result<i64, M4Error> {
    result.ok_or_else(|| M4Error::BadArguments {
        builtin,
        detail: "integer overflow".into(),
    })
}

/// "Deletion of dimensions for common declarations": `A(10,20)` -> `A`.
fn strip_dims(decl: &str) -> &str {
    match decl.find('(') {
        Some(p) => decl[..p].trim(),
        None => decl.trim(),
    }
}

/// Minimal integer expression evaluator for `eval` (`+ - * / % ( )`,
/// unary minus), called `depth` levels into the macro recursion.  It
/// recurses once per open parenthesis or unary minus, on the stack that
/// recursion is already on, so both draw on the one budget of
/// [`MAX_DEPTH`] levels — and a level here must not cost more than one
/// there: errors are built and arithmetic is done in functions of their
/// own, off the frames that recurse.
fn eval_expr(s: &str, depth: usize) -> Expansion<i64> {
    #[cold]
    fn bad(detail: String) -> Box<M4Error> {
        Box::new(M4Error::BadArguments {
            builtin: "eval",
            detail,
        })
    }
    fn apply(op: u8, a: i64, b: i64) -> Expansion<i64> {
        let result = match op {
            b'+' => a.checked_add(b),
            b'-' => a.checked_sub(b),
            b'*' => a.checked_mul(b),
            b'/' if b == 0 => return Err(bad("division by zero".into())),
            b'/' => a.checked_div(b),
            _ if b == 0 => return Err(bad("modulo by zero".into())),
            _ => a.checked_rem(b),
        };
        result.ok_or_else(|| bad("integer overflow".into()))
    }
    struct P<'a> {
        s: &'a [u8],
        i: usize,
        /// Levels of recursion the current atom is in: the call's, plus
        /// the parentheses and unary minuses open around it.
        depth: usize,
    }
    impl P<'_> {
        fn peek(&mut self) -> Option<u8> {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
            self.s.get(self.i).copied()
        }
        fn expr(&mut self) -> Expansion<i64> {
            let mut v = self.term()?;
            while let Some(op @ (b'+' | b'-')) = self.peek() {
                self.i += 1;
                v = apply(op, v, self.term()?)?;
            }
            Ok(v)
        }
        fn term(&mut self) -> Expansion<i64> {
            let mut v = self.atom()?;
            while let Some(op @ (b'*' | b'/' | b'%')) = self.peek() {
                self.i += 1;
                v = apply(op, v, self.atom()?)?;
            }
            Ok(v)
        }
        fn atom(&mut self) -> Expansion<i64> {
            let opener = self.peek();
            if !matches!(opener, Some(b'-' | b'(')) {
                return self.literal();
            }
            if self.depth >= MAX_DEPTH {
                return Err(bad(format!(
                    "parentheses and signs nested past the recursion limit of {MAX_DEPTH}"
                )));
            }
            self.i += 1;
            self.depth += 1;
            let v = if opener == Some(b'-') {
                apply(b'-', 0, self.atom()?)
            } else {
                let v = self.expr()?;
                if self.peek() != Some(b')') {
                    return Err(Box::new(M4Error::Unterminated("parenthesis in eval")));
                }
                self.i += 1;
                Ok(v)
            };
            self.depth -= 1;
            v
        }
        fn literal(&mut self) -> Expansion<i64> {
            let start = self.i;
            while self.i < self.s.len() && self.s[self.i].is_ascii_digit() {
                self.i += 1;
            }
            if self.i == start {
                let all = String::from_utf8_lossy(self.s);
                return Err(bad(format!("unexpected input in `{all}`")));
            }
            let digits = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII digits");
            digits.parse().map_err(|_| bad("integer overflow".into()))
        }
    }
    let mut p = P {
        s: s.as_bytes(),
        i: 0,
        depth,
    };
    let v = p.expr()?;
    if p.peek().is_some() {
        return Err(bad(format!("trailing input in `{s}`")));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp(src: &str) -> String {
        M4::new().expand(src).unwrap()
    }

    #[test]
    fn plain_text_passes_through() {
        assert_eq!(exp("hello world 123"), "hello world 123");
    }

    #[test]
    fn define_and_expand() {
        assert_eq!(exp("define(`X', `42')X + X"), "42 + 42");
    }

    #[test]
    fn define_with_arguments() {
        assert_eq!(exp("define(`ADD', `$1 + $2')ADD(a, b)"), "a + b");
    }

    #[test]
    fn dollar_zero_hash_star() {
        // `$0` must be quoted in the body or the rescan would re-expand
        // the macro's own name — the same discipline real m4 requires.
        assert_eq!(exp("define(`M', ``$0':$#:$*')M(x, y)"), "M:2:x,y");
    }

    #[test]
    fn quoting_defers_expansion() {
        assert_eq!(exp("define(`A', `1')`A' A"), "A 1");
    }

    #[test]
    fn nested_quotes_strip_one_level() {
        assert_eq!(exp("``double''"), "`double'");
    }

    #[test]
    fn macros_rescan_their_result() {
        assert_eq!(exp("define(`A', `B')define(`B', `final')A"), "final");
    }

    #[test]
    fn arguments_are_expanded_before_substitution() {
        assert_eq!(exp("define(`ID', `$1')define(`V', `7')ID(V)"), "7");
    }

    #[test]
    fn ifdef_branches() {
        assert_eq!(exp("define(`Y', `1')ifdef(`Y', `yes', `no')"), "yes");
        assert_eq!(exp("ifdef(`NOPE', `yes', `no')"), "no");
    }

    #[test]
    fn ifelse_multibranch() {
        let src = "define(`K', `b')ifelse(K, `a', `A', K, `b', `B', `other')";
        assert_eq!(exp(src), "B");
        assert_eq!(exp("ifelse(`x', `y', `eq', `ne')"), "ne");
        assert_eq!(exp("ifelse(`x', `x', `eq', `ne')"), "eq");
    }

    #[test]
    fn incr_decr_eval() {
        assert_eq!(exp("incr(4) decr(4)"), "5 3");
        assert_eq!(exp("eval(2 + 3 * 4)"), "14");
        assert_eq!(exp("eval((2 + 3) * -2)"), "-10");
        assert_eq!(exp("eval(17 % 5)"), "2");
    }

    #[test]
    fn eval_division_by_zero_is_an_error() {
        assert!(matches!(
            M4::new().expand("eval(1/0)"),
            Err(M4Error::BadArguments { .. })
        ));
    }

    /// `eval(` + `levels` × `open` + `1` + `levels` × `close` + `)`.
    fn nested_eval(open: &str, close: &str, levels: usize) -> String {
        format!("eval({}1{})", open.repeat(levels), close.repeat(levels))
    }

    /// Run `test` on the 512 KiB stack of a virtual-time pid.
    fn on_a_small_stack(test: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(512 * 1024)
            .spawn(test)
            .expect("spawn")
            .join()
            .expect("no overflow, no panic");
    }

    #[test]
    fn eval_nesting_is_bounded_like_macro_recursion() {
        // The shapes that recurse — `((((…`, `----…` and their mix — at
        // the limit, one past it, and at a few hundred kilobytes.
        on_a_small_stack(|| {
            for (open, close) in [("(", ")"), ("-", ""), ("-(", ")")] {
                let levels = MAX_DEPTH / open.len();
                assert_eq!(exp(&nested_eval(open, close, levels)), "1", "{open}");
                for levels in [levels + 1, 100_000] {
                    let err = M4::new().expand(&nested_eval(open, close, levels));
                    assert!(
                        matches!(
                            err,
                            Err(M4Error::BadArguments {
                                builtin: "eval",
                                ..
                            })
                        ),
                        "{levels} of `{open}`: {err:?}"
                    );
                }
            }
        });
    }

    #[test]
    fn eval_nesting_and_macro_recursion_share_one_budget() {
        // `R(n)` calls itself n deep and evaluates at the bottom: however
        // the levels are split between the two recursions, the answer is
        // the value or an error, and the stack holds.
        on_a_small_stack(|| {
            let mut deepest_answer = 0;
            for n in 0..=MAX_DEPTH {
                for levels in [MAX_DEPTH / 2, MAX_DEPTH] {
                    let mut m4 = M4::new();
                    let bottom = nested_eval("(", ")", levels);
                    m4.define("R", &format!("ifelse($1, 0, `{bottom}', `R(decr($1))')"));
                    match m4.expand(&format!("R({n})")) {
                        Ok(value) => {
                            assert_eq!(value, "1", "R({n}), {levels} levels");
                            deepest_answer = deepest_answer.max(n);
                        }
                        Err(M4Error::BadArguments {
                            builtin: "eval", ..
                        })
                        | Err(M4Error::RecursionLimit(_)) => {}
                        Err(other) => panic!("R({n}), {levels} levels: {other}"),
                    }
                }
            }
            assert!(deepest_answer > 0, "some of the mixes do fit");
        });
    }

    #[test]
    fn dnl_discards_rest_of_line() {
        assert_eq!(exp("keep dnl this vanishes\nnext"), "keep next");
    }

    #[test]
    fn pushdef_popdef_stack() {
        let src = "define(`A', `one')pushdef(`A', `two')A popdef(`A')A";
        assert_eq!(exp(src), "two one");
    }

    #[test]
    fn defn_retrieves_quoted_definition() {
        let src = "define(`A', `body')define(`B', defn(`A'))B";
        assert_eq!(exp(src), "body");
    }

    #[test]
    fn utility_first_and_rest() {
        assert_eq!(exp("zzfirst(`a, b, c')"), "a");
        assert_eq!(exp("zzrest(`a, b, c')"), "b, c");
        assert_eq!(exp("zzfirst(`only')"), "only");
        assert_eq!(exp("zzrest(`only')"), "");
        // parentheses protect inner commas
        assert_eq!(exp("zzfirst(`A(10,10), B')"), "A(10,10)");
        assert_eq!(exp("zzrest(`A(10,10), B, C(1,2)')"), "B, C(1,2)");
    }

    #[test]
    fn zzdeclrec_requires_an_open_unit() {
        let mut m4 = M4::new();
        assert!(matches!(
            m4.expand("zzdeclrec(`shared', `INTEGER', `X')"),
            Err(M4Error::BadArguments { .. })
        ));
        m4.define("ZZUNIT", "MAIN");
        m4.expand("zzdeclrec(`shared', `INTEGER', `X, A(3,4)')")
            .unwrap();
        assert_eq!(
            m4.recorded("decls"),
            &[
                "MAIN|shared|INTEGER|X".to_string(),
                "MAIN|shared|INTEGER|A(3,4)".to_string()
            ]
        );
    }

    #[test]
    fn utility_concat_and_stripdims() {
        assert_eq!(exp("zzconcat(`K', `_shared')"), "K_shared");
        assert_eq!(exp("zzstripdims(`A(10,20)')"), "A");
        assert_eq!(exp("zzstripdims(`X')"), "X");
    }

    #[test]
    fn recording_lists_are_ordered_and_deduped() {
        let mut m4 = M4::new();
        m4.expand("zzrecord(`L', `A')zzrecord(`L', `B')zzrecord(`L', `A')")
            .unwrap();
        assert_eq!(m4.recorded("L"), &["A".to_string(), "B".to_string()]);
        assert!(m4.recorded("NONE").is_empty());
    }

    #[test]
    fn gensym_is_monotonic() {
        let mut m4 = M4::new();
        let out = m4.expand("zzgensym(`T') zzgensym(`T')").unwrap();
        assert_eq!(out, "T1 T2");
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(matches!(
            M4::new().expand("`never closed"),
            Err(M4Error::Unterminated("quote"))
        ));
    }

    #[test]
    fn unterminated_args_are_an_error() {
        assert!(matches!(
            M4::new().expand("define(`A', `x')A(1, 2"),
            Err(M4Error::Unterminated("argument list"))
        ));
    }

    #[test]
    fn runaway_recursion_is_detected() {
        let mut m4 = M4::new();
        m4.define("LOOP", "LOOP");
        assert!(matches!(m4.expand("LOOP"), Err(M4Error::RecursionLimit(_))));
    }

    #[test]
    fn nested_macro_calls_in_arguments() {
        let src = "define(`A', `<$1>')define(`B', `[$1]')A(B(x))";
        assert_eq!(exp(src), "<[x]>");
    }

    #[test]
    fn commas_inside_nested_parens_do_not_split_args() {
        let src = "define(`F', `$#')F((a,b), c)";
        assert_eq!(exp(src), "2");
    }

    #[test]
    fn multiline_bodies_expand() {
        let src = "define(`BLOCK', `line one\nline two')BLOCK";
        assert_eq!(exp(src), "line one\nline two");
    }

    #[test]
    fn undefine_removes() {
        assert_eq!(exp("define(`A', `1')undefine(`A')A"), "A");
    }

    #[test]
    fn recursive_counting_macro_terminates() {
        // A classic m4 pattern: recursion with ifelse termination.
        let src = "define(`COUNT', `ifelse($1, `0', `', `$1 COUNT(decr($1))')')COUNT(3)";
        assert_eq!(exp(src).trim(), "3 2 1");
    }
}
