//! Program structure: units, symbols and resolved statements — what the
//! load path's *resolve* step makes of the parse.
//!
//! [`Program::compile`] lexes the source (one name table, one token
//! buffer), parses each line into a statement, splits the statements
//! into units and resolves every unit: a dense symbol table indexed by
//! name id, the shared-block layout, and the checks on its control flow
//! (block `IF`s and `DO`s nest, labels are unique, every `GO TO` lands).
//! What comes out is still statements: the bytecode compiler
//! ([`crate::bytecode::compile`]) lowers them to instructions, and the
//! reference interpreter ([`crate::oracle`]) to its own op form.

use std::collections::HashMap;

use crate::ast::{DeclItem, Dims, Expr, LValue, Named, Stmt, Ty};
use crate::error::{FortError, FortErrorKind};
use crate::lexer::{lex, Lexed};
use crate::parser::parse_tokens;
use crate::token::{Name, Names};

/// Where a symbol's storage lives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Storage {
    /// Process-private storage in the unit's frame; `base` is the first
    /// word of possibly several (arrays).
    Local {
        /// First word in the frame.
        base: usize,
    },
    /// Shared storage: a named block plus a word offset within it.
    Shared {
        /// Block name (a COMMON block, or a Force shared variable's own
        /// one-variable block); one allocation per block, shared by its
        /// members.
        block: Name,
        /// Word offset within the block.
        offset: usize,
    },
    /// The process identifier (`ident` variable of the Force header).
    PseudoMe,
    /// The force size (`of` variable of the Force header).
    PseudoNp,
    /// Subroutine dummy argument `i`.
    Arg(usize),
}

/// A resolved symbol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Symbol {
    /// Value type.
    pub ty: Ty,
    /// Array dimensions (empty = scalar; column-major, 1-based).
    pub dims: Dims,
    /// Storage class.
    pub storage: Storage,
}

impl Symbol {
    /// Total words of storage.
    pub fn words(&self) -> usize {
        self.dims.words()
    }
}

/// A unit's symbol table: a slot per name of the program, by id.
#[derive(Debug, Clone)]
pub struct Symbols {
    slots: Vec<Option<Symbol>>,
}

impl Symbols {
    fn new(names: usize) -> Symbols {
        Symbols {
            slots: vec![None; names],
        }
    }

    /// The symbol `name` resolves to in the unit, if any.
    pub fn get(&self, name: Name) -> Option<&Symbol> {
        self.slots.get(name.0 as usize)?.as_ref()
    }

    /// Whether `name` is a symbol of the unit.
    pub fn contains(&self, name: Name) -> bool {
        self.get(name).is_some()
    }

    /// Every symbol of the unit, by name id.
    pub fn iter(&self) -> impl Iterator<Item = (Name, &Symbol)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, s)| Some((Name(id as u32), s.as_ref()?)))
    }

    fn insert(&mut self, name: Name, symbol: Symbol) {
        self.slots[name.0 as usize] = Some(symbol);
    }
}

/// One statement of a unit's body, with its line and label.
#[derive(Debug)]
pub struct Line {
    /// 1-based source line number.
    pub line_no: usize,
    /// Optional statement label.
    pub label: Option<u32>,
    /// The statement.
    pub stmt: Stmt,
}

/// One program unit, resolved.
#[derive(Debug)]
pub struct Unit {
    /// Unit name.
    pub name: Name,
    /// Whether this is the PROGRAM (driver) unit.
    pub is_program: bool,
    /// Dummy argument names, in order.
    pub params: Vec<Name>,
    /// Symbol table.
    pub symbols: Symbols,
    /// The statements between the header and `END`.
    pub body: Vec<Line>,
    /// Size of the process-private frame in words.
    pub frame_words: usize,
    /// Every label a `GO TO` (plain, logical or arithmetic) names,
    /// sorted.
    pub goto_targets: Vec<u32>,
}

impl Unit {
    /// Whether some `GO TO` of the unit jumps to `label`.
    pub fn is_goto_target(&self, label: u32) -> bool {
        self.goto_targets.binary_search(&label).is_ok()
    }
}

/// A resolved program: its names, all units and the shared-block
/// geometry.
#[derive(Debug)]
pub struct Program {
    /// Every name of the program; ids index it.
    pub names: Names,
    /// The units, in source order.
    pub units: Vec<Unit>,
    /// The PROGRAM unit's name, if present.
    pub program_unit: Option<Name>,
    /// Shared blocks: name → total words (consistent across units).  The
    /// COMMON blocks come first, in the order the units declare them,
    /// then the Force shared variables by name.
    pub shared_blocks: Vec<(String, usize)>,
    /// The index in `shared_blocks` of each name that is a block, by id;
    /// `u32::MAX` for the rest.
    block_index: Vec<u32>,
}

/// The shared blocks as the units declare them.
struct Blocks {
    /// `(block, words)` in declaration order.
    order: Vec<(Name, usize)>,
    /// Index in `order` by name id, `u32::MAX` for none.
    index: Vec<u32>,
}

impl Blocks {
    fn words(&self, block: Name) -> Option<usize> {
        match self.index.get(block.0 as usize) {
            Some(&i) if i != u32::MAX => Some(self.order[i as usize].1),
            _ => None,
        }
    }

    fn add(&mut self, block: Name, words: usize) {
        let id = block.0 as usize;
        if id >= self.index.len() {
            self.index.resize(id + 1, u32::MAX);
        }
        self.index[id] = self.order.len() as u32;
        self.order.push((block, words));
    }
}

impl Program {
    /// Compile source text.  `shared_names` are the Force shared/async
    /// variables (global by name); `ZZPENV` COMMON members become the
    /// process-id / force-size pseudo variables.
    pub fn compile(
        source: &str,
        shared_names: &HashMap<String, usize>,
    ) -> Result<Program, FortError> {
        let Lexed {
            mut names,
            tokens,
            lines,
        } = lex(source)?;
        let mut stmts = Vec::with_capacity(lines.len());
        for line in &lines {
            let tokens = &tokens[line.start as usize..line.end as usize];
            stmts.push(Line {
                line_no: line.line_no,
                label: line.label,
                stmt: parse_tokens(tokens, &names, line.line_no)?,
            });
        }
        drop((tokens, lines));
        // The Force shared variables the source names, by id; one it does
        // not name is never looked up.
        let mut shared_words = vec![None; names.len()];
        for (name, &words) in shared_names {
            if let Some(id) = names.get(name) {
                shared_words[id.0 as usize] = Some(words);
            }
        }

        // Split into units.
        let mut units: Vec<Unit> = Vec::new();
        let mut program_unit = None;
        let mut blocks = Blocks {
            order: Vec::new(),
            index: vec![u32::MAX; names.len()],
        };
        let mut stmts = stmts.into_iter();
        while let Some(header) = stmts.next() {
            let line_no = header.line_no;
            let (name, params, is_program) = match header.stmt {
                Stmt::Program(n) => (n, Vec::new(), true),
                Stmt::Subroutine(n, p) => (n, p, false),
                other => {
                    return Err(FortError::at(
                        line_no,
                        FortErrorKind::Structure(format!(
                            "statement outside any program unit: {:?}",
                            Named(&other, &names)
                        )),
                    ))
                }
            };
            // The body runs to the matching END.
            let mut body = Vec::new();
            let mut ended = false;
            for line in stmts.by_ref() {
                if matches!(line.stmt, Stmt::EndUnit) {
                    ended = true;
                    break;
                }
                body.push(line);
            }
            if !ended {
                return Err(FortError::at(
                    line_no,
                    FortErrorKind::Structure(format!("unit {} has no END", names.text(name))),
                ));
            }
            let unit = resolve_unit(
                name,
                params,
                is_program,
                body,
                &names,
                &shared_words,
                &mut blocks,
            )?;
            if is_program {
                if program_unit.is_some() {
                    return Err(FortError::at(
                        line_no,
                        FortErrorKind::Structure("more than one PROGRAM unit".into()),
                    ));
                }
                program_unit = Some(name);
            }
            if units.iter().any(|u| u.name == name) {
                return Err(FortError::at(
                    line_no,
                    FortErrorKind::Structure(format!("duplicate unit {}", names.text(name))),
                ));
            }
            units.push(unit);
        }
        if units.is_empty() {
            return Err(FortError::general(FortErrorKind::Structure(
                "source contains no program units".into(),
            )));
        }
        // Force shared variables are one-variable blocks, after the COMMON
        // blocks and by name: the layout of the shared region, and with it
        // every block id in the bytecode, must not follow the hasher.
        let mut shared: Vec<(&String, &usize)> = shared_names.iter().collect();
        shared.sort_unstable();
        for (name, &words) in shared {
            let id = names.intern(name);
            match blocks.words(id) {
                Some(w) if w != words => {
                    return Err(FortError::general(FortErrorKind::Structure(format!(
                        "shared variable {name} has inconsistent sizes"
                    ))))
                }
                Some(_) => {}
                None => blocks.add(id, words),
            }
        }
        let mut block_index = blocks.index;
        block_index.resize(names.len(), u32::MAX);
        let shared_blocks = blocks
            .order
            .iter()
            .map(|&(b, words)| (names.text(b).to_string(), words))
            .collect();
        Ok(Program {
            names,
            units,
            program_unit,
            shared_blocks,
            block_index,
        })
    }

    /// The text of `name`.
    pub fn name(&self, name: Name) -> &str {
        self.names.text(name)
    }

    /// Look up a unit by name.
    pub fn unit(&self, name: &str) -> Option<&Unit> {
        self.unit_named(self.names.get(name)?)
    }

    /// Look up a unit by name id.
    pub fn unit_named(&self, name: Name) -> Option<&Unit> {
        self.units.iter().find(|u| u.name == name)
    }

    /// The index in [`shared_blocks`](Self::shared_blocks) of the block
    /// `block` names, if it is one.
    pub fn block_index(&self, block: Name) -> Option<u16> {
        match self.block_index.get(block.0 as usize) {
            Some(&i) if i != u32::MAX => Some(i as u16),
            _ => None,
        }
    }
}

fn resolve_unit(
    name: Name,
    params: Vec<Name>,
    is_program: bool,
    body: Vec<Line>,
    names: &Names,
    shared_words: &[Option<usize>],
    blocks: &mut Blocks,
) -> Result<Unit, FortError> {
    let text = |n: Name| names.text(n);
    let unit = text(name);

    // ---- pass 1: declarations -------------------------------------------
    let mut decls: Vec<Option<(Ty, Dims)>> = vec![None; names.len()];
    let mut declared: Vec<Name> = Vec::new();
    for line in &body {
        if let Stmt::Decl { ty, items } = &line.stmt {
            for it in items {
                let slot = &mut decls[it.name.0 as usize];
                if slot.is_some() {
                    return Err(FortError::at(
                        line.line_no,
                        FortErrorKind::Structure(format!(
                            "{} declared twice in {unit}",
                            text(it.name)
                        )),
                    ));
                }
                *slot = Some((*ty, it.dims));
                declared.push(it.name);
            }
        }
    }
    let ty_of = |n: Name| {
        decls[n.0 as usize].unwrap_or_else(|| (Ty::implicit_for(text(n)), Dims::default()))
    };

    // ---- pass 2: symbol table ---------------------------------------------
    let mut symbols = Symbols::new(names.len());
    // Dummy arguments first.
    for (i, &p) in params.iter().enumerate() {
        let (ty, dims) = ty_of(p);
        symbols.insert(
            p,
            Symbol {
                ty,
                dims,
                storage: Storage::Arg(i),
            },
        );
    }
    // COMMON members.
    for line in &body {
        let Stmt::Common { block, items } = &line.stmt else {
            continue;
        };
        common_members(*block, items, line.line_no, &ty_of, names, &mut symbols, blocks)?;
    }
    // Declared names not yet placed: Force shared variables are global by
    // name, everything else is a process-private local.
    let mut frame_words = 0usize;
    declared.sort_unstable_by(|&a, &b| text(a).cmp(text(b))); // deterministic layout
    for n in declared {
        if symbols.contains(n) {
            continue;
        }
        let (ty, dims) = ty_of(n);
        let words = dims.words();
        let storage = if let Some(shared_words) = shared_words[n.0 as usize] {
            if shared_words != words {
                return Err(FortError::general(FortErrorKind::Structure(format!(
                    "shared variable {}: unit {unit} declares {words} words, elsewhere {shared_words}",
                    text(n)
                ))));
            }
            Storage::Shared {
                block: n,
                offset: 0,
            }
        } else {
            let base = frame_words;
            frame_words += words;
            Storage::Local { base }
        };
        symbols.insert(n, Symbol { ty, dims, storage });
    }

    // ---- pass 3: control flow ---------------------------------------------
    let goto_targets = check_flow(&body, unit)?;

    // Implicit locals: names used but never declared (scalars only).
    let mut seen = vec![false; names.len()];
    let mut implicit: Vec<Name> = Vec::new();
    for line in &body {
        stmt_names(&line.stmt, &mut |n| {
            let seen = &mut seen[n.0 as usize];
            if !*seen && !symbols.contains(n) {
                *seen = true;
                implicit.push(n);
            }
        });
    }
    implicit.sort_unstable_by(|&a, &b| text(a).cmp(text(b)));
    for n in implicit {
        let t = text(n);
        if crate::intrinsics::is_intrinsic_function(t)
            || crate::intrinsics::is_intrinsic_subroutine(t)
        {
            continue;
        }
        let storage = if let Some(w) = shared_words[n.0 as usize] {
            if w != 1 {
                return Err(FortError::general(FortErrorKind::Structure(format!(
                    "shared array {t} used without declaration in {unit}"
                ))));
            }
            Storage::Shared {
                block: n,
                offset: 0,
            }
        } else {
            let base = frame_words;
            frame_words += 1;
            Storage::Local { base }
        };
        symbols.insert(
            n,
            Symbol {
                ty: Ty::implicit_for(t),
                dims: Dims::default(),
                storage,
            },
        );
    }

    Ok(Unit {
        name,
        is_program,
        params,
        symbols,
        body,
        frame_words,
        goto_targets,
    })
}

/// Place the members of `COMMON /block/ items`, declared at `line_no`.
fn common_members(
    block: Name,
    items: &[DeclItem],
    line_no: usize,
    ty_of: &dyn Fn(Name) -> (Ty, Dims),
    names: &Names,
    symbols: &mut Symbols,
    blocks: &mut Blocks,
) -> Result<(), FortError> {
    if names.text(block) == "ZZPENV" {
        // the private environment: (me, np)
        for (i, it) in items.iter().enumerate() {
            let storage = match i {
                0 => Storage::PseudoMe,
                1 => Storage::PseudoNp,
                _ => {
                    return Err(FortError::at(
                        line_no,
                        FortErrorKind::Structure("COMMON /ZZPENV/ has exactly two members".into()),
                    ))
                }
            };
            symbols.insert(
                it.name,
                Symbol {
                    ty: Ty::Integer,
                    dims: Dims::default(),
                    storage,
                },
            );
        }
        return Ok(());
    }
    let mut offset = 0usize;
    for it in items {
        let (ty, mut dims) = ty_of(it.name);
        if !it.dims.is_empty() {
            dims = it.dims;
        }
        symbols.insert(
            it.name,
            Symbol {
                ty,
                dims,
                storage: Storage::Shared { block, offset },
            },
        );
        offset += dims.words();
    }
    match blocks.words(block) {
        Some(w) if w != offset => Err(FortError::at(
            line_no,
            FortErrorKind::Structure(format!(
                "COMMON /{}/ declared with {offset} words here but {w} elsewhere",
                names.text(block)
            )),
        )),
        Some(_) => Ok(()),
        None => {
            blocks.add(block, offset);
            Ok(())
        }
    }
}

/// Check a unit body's control flow, in statement order: every block
/// `IF` and `DO` closes, in order and once, no label is defined twice,
/// every `GO TO` names a label of the unit.  Returns the labels the
/// `GO TO`s name, sorted.
fn check_flow(body: &[Line], unit: &str) -> Result<Vec<u32>, FortError> {
    let structure = |line_no: usize, msg: &str| {
        FortError::at(line_no, FortErrorKind::Structure(msg.to_string()))
    };
    let mut labels: Vec<u32> = Vec::new();
    // Per open block IF: whether a false branch is still pending (no
    // ELSE yet).
    let mut ifs: Vec<bool> = Vec::new();
    // Per open DO: its terminal label.
    let mut dos: Vec<Option<u32>> = Vec::new();
    // `(label, line)` per GO TO, in statement order.
    let mut gotos: Vec<(u32, usize)> = Vec::new();
    for line in body {
        let line_no = line.line_no;
        if let Some(label) = line.label {
            if labels.contains(&label) {
                return Err(structure(line_no, &format!("duplicate label {label}")));
            }
            labels.push(label);
        }
        let mut stmt = &line.stmt;
        if let Stmt::LogicalIf(_, inner) = stmt {
            stmt = inner;
        }
        match stmt {
            Stmt::Goto(l) => gotos.push((*l, line_no)),
            Stmt::ArithIf(_, neg, zero, pos) => {
                gotos.extend([(*neg, line_no), (*zero, line_no), (*pos, line_no)]);
            }
            Stmt::IfThen(_) => ifs.push(true),
            Stmt::ElseIf(_) => match ifs.last() {
                None => return Err(structure(line_no, "ELSE IF without IF")),
                Some(false) => return Err(structure(line_no, "ELSE IF after ELSE")),
                Some(true) => {}
            },
            Stmt::Else => match ifs.last_mut() {
                None => return Err(structure(line_no, "ELSE without IF")),
                Some(false) => return Err(structure(line_no, "second ELSE in one IF block")),
                Some(pending) => *pending = false,
            },
            Stmt::EndIf => {
                if ifs.pop().is_none() {
                    return Err(structure(line_no, "END IF without IF"));
                }
            }
            Stmt::Do { label, .. } => dos.push(*label),
            Stmt::EndDo => match dos.pop() {
                None => return Err(structure(line_no, "END DO without DO")),
                Some(Some(_)) => {
                    return Err(structure(
                        line_no,
                        "labeled DO must end at its label, not END DO",
                    ))
                }
                Some(None) => {}
            },
            Stmt::Program(_) | Stmt::Subroutine(_, _) | Stmt::EndUnit => {
                return Err(structure(line_no, "unit header inside a unit body"))
            }
            _ => {}
        }
        // Labeled DO loops terminating at this line close.
        while line.label.is_some() && dos.last() == Some(&line.label) {
            dos.pop();
        }
    }
    if !ifs.is_empty() {
        return Err(FortError::general(FortErrorKind::Structure(format!(
            "unit {unit}: IF block not closed by END IF"
        ))));
    }
    if !dos.is_empty() {
        return Err(FortError::general(FortErrorKind::Structure(format!(
            "unit {unit}: DO loop not closed"
        ))));
    }
    let mut targets = Vec::with_capacity(gotos.len());
    for (label, line_no) in gotos {
        if !labels.contains(&label) {
            return Err(structure(line_no, &format!("GO TO unknown label {label}")));
        }
        targets.push(label);
    }
    targets.sort_unstable();
    targets.dedup();
    Ok(targets)
}

/// Every name a statement's expressions and assignment targets refer to
/// (not a called subroutine's, nor a declaration's).
fn stmt_names(stmt: &Stmt, f: &mut impl FnMut(Name)) {
    fn expr(e: &Expr, f: &mut impl FnMut(Name)) {
        match e {
            Expr::Var(n) => f(*n),
            Expr::Index(n, args) => {
                f(*n);
                for a in args {
                    expr(a, f);
                }
            }
            Expr::Un(_, a) => expr(a, f),
            Expr::Bin(_, a, b) => {
                expr(a, f);
                expr(b, f);
            }
            _ => {}
        }
    }
    match stmt {
        Stmt::Assign { lhs, rhs } => {
            match lhs {
                LValue::Name(n) => f(*n),
                LValue::Elem(n, idx) => {
                    f(*n);
                    for e in idx {
                        expr(e, f);
                    }
                }
            }
            expr(rhs, f);
        }
        Stmt::IfThen(c) | Stmt::ElseIf(c) | Stmt::ArithIf(c, ..) => expr(c, f),
        Stmt::LogicalIf(c, inner) => {
            expr(c, f);
            stmt_names(inner, f);
        }
        Stmt::Do {
            var,
            from,
            to,
            step,
            ..
        } => {
            f(*var);
            expr(from, f);
            expr(to, f);
            if let Some(step) = step {
                expr(step, f);
            }
        }
        Stmt::Call { args: items, .. } | Stmt::Print(items) => {
            for e in items {
                expr(e, f);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Program {
        Program::compile(src, &HashMap::new()).unwrap()
    }

    /// The symbol `name` of unit `unit`.
    fn symbol(p: &Program, unit: &str, name: &str) -> Symbol {
        *p.unit(unit)
            .unwrap()
            .symbols
            .get(p.names.get(name).unwrap())
            .unwrap()
    }

    #[test]
    fn splits_units() {
        let p = compile(
            "      PROGRAM MAIN\n      X = 1\n      END\n      SUBROUTINE SUB(A)\n      RETURN\n      END\n",
        );
        assert_eq!(p.units.len(), 2);
        assert_eq!(p.program_unit.map(|n| p.name(n)), Some("MAIN"));
        let params: Vec<&str> = p.unit("SUB").unwrap().params.iter().map(|&n| p.name(n)).collect();
        assert_eq!(params, ["A"]);
    }

    #[test]
    fn common_blocks_are_positional_and_sized() {
        let p = compile(
            "      SUBROUTINE A\n      INTEGER X, Y(4)\n      COMMON /BLK/ X, Y\n      END\n",
        );
        let blk = p.names.get("BLK").unwrap();
        assert_eq!(
            symbol(&p, "A", "X").storage,
            Storage::Shared {
                block: blk,
                offset: 0
            }
        );
        assert_eq!(
            symbol(&p, "A", "Y").storage,
            Storage::Shared {
                block: blk,
                offset: 1
            }
        );
        assert_eq!(p.shared_blocks, vec![("BLK".to_string(), 5)]);
        assert_eq!(p.block_index(blk), Some(0));
    }

    #[test]
    fn inconsistent_common_sizes_rejected() {
        let err = Program::compile(
            "      SUBROUTINE A\n      INTEGER X(2)\n      COMMON /B/ X\n      END\n      SUBROUTINE C\n      INTEGER X(3)\n      COMMON /B/ X\n      END\n",
            &HashMap::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("words"), "{err}");
    }

    #[test]
    fn zzpenv_members_become_pseudo_vars() {
        let p = compile(
            "      SUBROUTINE A\n      INTEGER ME, NP\n      COMMON /ZZPENV/ ME, NP\n      END\n",
        );
        assert_eq!(symbol(&p, "A", "ME").storage, Storage::PseudoMe);
        assert_eq!(symbol(&p, "A", "NP").storage, Storage::PseudoNp);
    }

    #[test]
    fn force_shared_names_resolve_globally() {
        let mut shared = HashMap::new();
        shared.insert("TOTAL".to_string(), 1);
        shared.insert("UNSEEN".to_string(), 3);
        let p = Program::compile(
            "      SUBROUTINE A\n      INTEGER TOTAL\n      TOTAL = 1\n      END\n",
            &shared,
        )
        .unwrap();
        assert_eq!(
            symbol(&p, "A", "TOTAL").storage,
            Storage::Shared {
                block: p.names.get("TOTAL").unwrap(),
                offset: 0
            }
        );
        assert_eq!(
            p.shared_blocks,
            [("TOTAL".to_string(), 1), ("UNSEEN".to_string(), 3)]
        );
    }

    #[test]
    fn the_shared_layout_does_not_follow_the_hasher() {
        // Each compile gets a map of its own, as each `Engine` load does,
        // and so an iteration order of its own.
        let source = "\
      Force FMAIN of NP ident ME
      Shared REAL X(64), Y(64), DOT
      Shared INTEGER A, B, C, D
      End declarations
      Join
";
        let exp = force_prep::preprocess(source, force_machdep::MachineId::EncoreMultimax).unwrap();
        let layouts: std::collections::HashSet<Vec<(String, usize)>> = (0..10)
            .map(|_| {
                let shared: HashMap<String, usize> = exp
                    .decls
                    .iter()
                    .filter(|d| d.class != force_prep::VarClass::Private)
                    .map(|d| (d.name.clone(), d.words()))
                    .collect();
                Program::compile(&exp.code, &shared).unwrap().shared_blocks
            })
            .collect();
        assert_eq!(layouts.len(), 1, "{layouts:?}");
    }

    #[test]
    fn a_statement_outside_a_unit_is_quoted_by_its_text() {
        let err = Program::compile("      X(2) = 'A'\n", &HashMap::new()).unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(
            err.to_string().contains(
                r#"statement outside any program unit: Assign { lhs: Elem("X", [Int(2)]), rhs: Str("A") }"#
            ),
            "{err}"
        );
        let err = Program::compile("      INTEGER K(3)\n", &HashMap::new()).unwrap_err();
        assert!(
            err.to_string().contains(
                r#"Decl { ty: Integer, items: [DeclItem { name: "K", dims: [3] }] }"#
            ),
            "{err}"
        );
    }

    #[test]
    fn unknown_label_is_an_error() {
        let err = Program::compile(
            "      SUBROUTINE A\n      GO TO 99\n      END\n",
            &HashMap::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown label"), "{err}");
    }

    #[test]
    fn unclosed_if_is_an_error() {
        let err = Program::compile(
            "      SUBROUTINE A\n      IF (X .GT. 0) THEN\n      END\n",
            &HashMap::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("not closed"), "{err}");
    }

    #[test]
    fn a_second_else_is_an_error_not_a_panic() {
        // Found by `tests/frontend_fuzz.rs` (`ring` mutation 222): the
        // first ELSE leaves no false branch to patch.
        for (arm, expect) in [
            ("ELSE", "second ELSE"),
            ("ELSE IF (X .LT. 0) THEN", "ELSE IF after ELSE"),
        ] {
            let src = format!(
                "      SUBROUTINE A\n      IF (X .GT. 0) THEN\n      ELSE\n      {arm}\n      END IF\n      END\n"
            );
            let err = Program::compile(&src, &HashMap::new()).unwrap_err();
            assert_eq!(err.line, Some(4), "{err}");
            assert!(err.to_string().contains(expect), "{err}");
        }
    }

    #[test]
    fn implicit_locals_get_fortran_types() {
        let p =
            compile("      SUBROUTINE A\n      KOUNT = KOUNT + 1\n      XVAL = 1.5\n      END\n");
        assert_eq!(symbol(&p, "A", "KOUNT").ty, Ty::Integer);
        assert_eq!(symbol(&p, "A", "XVAL").ty, Ty::Real);
        assert!(p.unit("A").unwrap().frame_words >= 2);
    }

    #[test]
    fn duplicate_labels_rejected() {
        let err = Program::compile(
            "      SUBROUTINE A\n10    CONTINUE\n10    CONTINUE\n      END\n",
            &HashMap::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate label"), "{err}");
    }

    #[test]
    fn goto_targets_are_the_labels_jumped_to() {
        let p = compile(
            "      SUBROUTINE A\n      IF (X) 10, 20, 10\n10    CONTINUE\n20    IF (X .GT. 0) GO TO 30\n30    CONTINUE\n      END\n",
        );
        assert_eq!(p.unit("A").unwrap().goto_targets, [10, 20, 30]);
    }
}
