//! Tokens of the mini-Fortran subset, and the name table they index.

/// An identifier (upper-cased) or a character literal of one program,
/// interned: an index into that program's [`Names`].  The parser, the
/// symbol tables and the bytecode compiler carry names as these ids and
/// read the text only to build a message or match a mnemonic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(pub u32);

/// The keywords, interned first and in this order by every [`Names`],
/// so that a keyword is known by its id: [`kw`] names them.
const KEYWORDS: [&str; 24] = [
    "CALL",
    "COMMON",
    "CONTINUE",
    "DO",
    "DOUBLE",
    "ELSE",
    "ELSEIF",
    "END",
    "ENDDO",
    "ENDIF",
    "GO",
    "GOTO",
    "IF",
    "INTEGER",
    "LOGICAL",
    "PRECISION",
    "PRINT",
    "PROGRAM",
    "REAL",
    "RETURN",
    "STOP",
    "SUBROUTINE",
    "THEN",
    "TO",
];

/// The ids of the keywords, in [`KEYWORDS`] order.
pub(crate) mod kw {
    use super::Name;

    pub const CALL: Name = Name(0);
    pub const COMMON: Name = Name(1);
    pub const CONTINUE: Name = Name(2);
    pub const DO: Name = Name(3);
    pub const DOUBLE: Name = Name(4);
    pub const ELSE: Name = Name(5);
    pub const ELSEIF: Name = Name(6);
    pub const END: Name = Name(7);
    pub const ENDDO: Name = Name(8);
    pub const ENDIF: Name = Name(9);
    pub const GO: Name = Name(10);
    pub const GOTO: Name = Name(11);
    pub const IF: Name = Name(12);
    pub const INTEGER: Name = Name(13);
    pub const LOGICAL: Name = Name(14);
    pub const PRECISION: Name = Name(15);
    pub const PRINT: Name = Name(16);
    pub const PROGRAM: Name = Name(17);
    pub const REAL: Name = Name(18);
    pub const RETURN: Name = Name(19);
    pub const STOP: Name = Name(20);
    pub const SUBROUTINE: Name = Name(21);
    pub const THEN: Name = Name(22);
    pub const TO: Name = Name(23);
}

/// One program's names: every distinct text once, in one buffer, found
/// by an open-addressed hash table of ids.
#[derive(Debug, Clone)]
pub struct Names {
    /// All texts, back to back.
    text: String,
    /// `(start, end)` of each name's text, by id.
    spans: Vec<(u32, u32)>,
    /// Each name's hash, by id (a grown table is refilled from these).
    hashes: Vec<u32>,
    /// `id + 1` per slot, 0 for an empty one; a power of two long.
    slots: Vec<u32>,
}

impl Default for Names {
    fn default() -> Names {
        Names::new()
    }
}

/// A multiplicative hash of a name: names are short, so one that fits
/// 16 bytes is read as two (overlapping) words, and the table holds one
/// program's names only.
fn hash(b: &[u8]) -> u32 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let n = b.len();
    let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("eight bytes"));
    let half = |i: usize| u64::from(u32::from_le_bytes(b[i..i + 4].try_into().expect("four")));
    let mut h = (n as u64).wrapping_mul(K);
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
                h = (h.rotate_left(5) ^ word(i)).wrapping_mul(K);
                i += 8;
            }
            (word(i), word(n - 8))
        }
    };
    h = (h.rotate_left(5) ^ x).wrapping_mul(K);
    h = (h.rotate_left(5) ^ y).wrapping_mul(K);
    (h >> 32) as u32 ^ h as u32
}

impl Names {
    /// A table holding the keywords, at the ids `kw` gives them, with
    /// room for a program's names.
    pub fn new() -> Names {
        let mut names = Names::with_room(128);
        for keyword in KEYWORDS {
            names.intern(keyword);
        }
        names
    }

    /// A table with no names in it, and room for `names` of them before
    /// it grows.
    pub fn with_room(names: usize) -> Names {
        Names {
            text: String::with_capacity(names * 8),
            spans: Vec::with_capacity(names),
            hashes: Vec::with_capacity(names),
            slots: vec![0; (names * 2).next_power_of_two().max(8)],
        }
    }

    /// The texts alone, to be read by id and never added to.
    pub fn freeze(mut self) -> Texts {
        self.text.shrink_to_fit();
        Texts {
            text: self.text,
            ends: self.spans.iter().map(|&(_, end)| end).collect(),
        }
    }

    /// How many names there are; ids run below it.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the table is empty (it never is: it holds the keywords).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The text of `name`.
    pub fn text(&self, name: Name) -> &str {
        let (start, end) = self.spans[name.0 as usize];
        &self.text[start as usize..end as usize]
    }

    fn bytes(&self, name: Name) -> &[u8] {
        let (start, end) = self.spans[name.0 as usize];
        &self.text.as_bytes()[start as usize..end as usize]
    }

    /// Whether `name` is one of the keywords.
    pub fn is_keyword(name: Name) -> bool {
        (name.0 as usize) < KEYWORDS.len()
    }

    /// The slot `text` (of hash `h`) is in, or the empty one it would go to.
    fn slot(&self, text: &str, h: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        loop {
            match self.slots[i] {
                0 => return i,
                id if self.bytes(Name(id - 1)) == text.as_bytes() => return i,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The id of `text`, if it is a name here.
    pub fn get(&self, text: &str) -> Option<Name> {
        match self.slots[self.slot(text, hash(text.as_bytes()))] {
            0 => None,
            id => Some(Name(id - 1)),
        }
    }

    /// The id of `text`, added if it is new.
    pub fn intern(&mut self, text: &str) -> Name {
        let h = hash(text.as_bytes());
        let i = self.slot(text, h);
        if self.slots[i] != 0 {
            return Name(self.slots[i] - 1);
        }
        let id = self.spans.len() as u32;
        let start = self.text.len() as u32;
        self.text.push_str(text);
        self.spans.push((start, self.text.len() as u32));
        self.hashes.push(h);
        self.slots[i] = id + 1;
        // At most half full.
        if self.spans.len() * 2 > self.slots.len() {
            self.grow();
        }
        Name(id)
    }

    fn grow(&mut self) {
        let len = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(len, 0);
        let mask = len - 1;
        for (id, &h) in self.hashes.iter().enumerate() {
            let mut i = h as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = id as u32 + 1;
        }
    }
}

/// A frozen [`Names`]: every text in one buffer and where each ends,
/// indexed by id.
#[derive(Debug, Default)]
pub struct Texts {
    text: String,
    ends: Vec<u32>,
}

impl Texts {
    /// Heap bytes held, for the expansion cache's accounting.
    pub fn heap_bytes(&self) -> usize {
        force_prep::weigh::str_bytes(&self.text) + force_prep::weigh::vec_bytes(&self.ends)
    }
}

impl std::ops::Index<usize> for Texts {
    type Output = str;

    fn index(&self, id: usize) -> &str {
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.text[start..self.ends[id] as usize]
    }
}

/// A lexical token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token {
    /// Identifier or keyword, uppercased (`TOTAL`, `IF`, `K_SHARED`).
    Ident(Name),
    /// Integer literal.
    Int(i64),
    /// Real literal (`1.5`, `2.`, `1E-3`).
    Real(f64),
    /// Character literal (only used by PRINT), its text interned.
    Str(Name),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_sit_at_their_ids() {
        let names = Names::new();
        for (i, keyword) in KEYWORDS.iter().enumerate() {
            assert_eq!(names.get(keyword), Some(Name(i as u32)));
        }
        assert_eq!(names.text(kw::TO), "TO");
        assert_eq!(names.text(kw::CALL), "CALL");
    }

    #[test]
    fn a_name_is_interned_once_and_survives_growth() {
        let mut names = Names::new();
        let ids: Vec<Name> = (0..1000).map(|i| names.intern(&format!("V{i}"))).collect();
        for (i, &id) in ids.iter().enumerate() {
            let text = format!("V{i}");
            assert_eq!(names.intern(&text), id);
            assert_eq!(names.get(&text), Some(id));
            assert_eq!(names.text(id), text);
        }
        assert_eq!(names.get("W"), None);
        assert!(!Names::is_keyword(ids[0]));
        let texts = names.freeze();
        assert_eq!(&texts[0], "CALL");
        assert_eq!(&texts[ids[999].0 as usize], "V999");
    }
}
