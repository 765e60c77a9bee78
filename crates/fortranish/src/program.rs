//! Program structure: units, symbols, and executable op streams.
//!
//! Each program unit's statements are flattened into a vector of [`Op`]s
//! with resolved jump targets: block `IF`/`ELSE`/`END IF` and both `DO`
//! forms compile to conditional jumps, labels map to op indices, and
//! `GO TO` is a direct jump — which is exactly the control flow the
//! Force macro expansions rely on.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::{BinOp, DeclItem, Expr, LValue, Stmt, Ty};
use crate::error::{FortError, FortErrorKind};
use crate::lexer::lex;
use crate::parser::parse_tokens;

/// Where a symbol's storage lives.
#[derive(Debug, Clone, PartialEq)]
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
        block: Arc<str>,
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
#[derive(Debug, Clone, PartialEq)]
pub struct Symbol {
    /// Value type.
    pub ty: Ty,
    /// Array dimensions (empty = scalar; column-major, 1-based).
    pub dims: Vec<usize>,
    /// Storage class.
    pub storage: Storage,
}

impl Symbol {
    /// Total words of storage.
    pub fn words(&self) -> usize {
        self.dims.iter().product::<usize>().max(1)
    }
}

/// One executable operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Evaluate and store.
    Assign(LValue, Expr),
    /// Jump to the target if the condition is false.
    JumpIfFalse(Expr, usize),
    /// Unconditional jump.
    Jump(usize),
    /// Subroutine call (user unit or intrinsic).
    Call(String, Vec<Expr>),
    /// List-directed print.
    Print(Vec<Expr>),
    /// Return from the unit.
    Return,
    /// Stop the process.
    Stop,
    /// No operation (labels, CONTINUE).
    Nop,
}

/// One program unit, compiled.
#[derive(Debug)]
pub struct Unit {
    /// Unit name.
    pub name: String,
    /// Whether this is the PROGRAM (driver) unit.
    pub is_program: bool,
    /// Dummy argument names, in order.
    pub params: Vec<String>,
    /// Symbol table.
    pub symbols: HashMap<String, Symbol>,
    /// Executable ops.
    pub ops: Vec<Op>,
    /// Source line of each op (diagnostics).
    pub op_lines: Vec<usize>,
    /// Size of the process-private frame in words.
    pub frame_words: usize,
}

/// A compiled program: all units plus shared-block geometry.
#[derive(Debug)]
pub struct Program {
    /// Units by name.
    pub units: HashMap<String, Unit>,
    /// The PROGRAM unit's name, if present.
    pub program_unit: Option<String>,
    /// Shared blocks: name → total words (consistent across units).
    pub shared_blocks: Vec<(String, usize)>,
}

impl Program {
    /// Compile source text.  `shared_names` are the Force shared/async
    /// variables (global by name); `ZZPENV` COMMON members become the
    /// process-id / force-size pseudo variables.
    pub fn compile(
        source: &str,
        shared_names: &HashMap<String, usize>,
    ) -> Result<Program, FortError> {
        // The parser moves names and literals out of the tokens; what is
        // left of a line is its number, its label and its statement.
        let lines = lex(source)?;
        let mut stmts = Vec::with_capacity(lines.len());
        for mut line in lines {
            let stmt = parse_tokens(&mut line.tokens, line.line_no)?;
            stmts.push(Line {
                line_no: line.line_no,
                label: line.label,
                stmt,
            });
        }

        // Split into units.
        let mut units = HashMap::new();
        let mut program_unit = None;
        let mut blocks: HashMap<String, usize> = HashMap::new();
        let mut block_order: Vec<String> = Vec::new();
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
                            "statement outside any program unit: {other:?}"
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
                    FortErrorKind::Structure(format!("unit {name} has no END")),
                ));
            }
            let unit = compile_unit(
                name.clone(),
                params,
                is_program,
                body,
                shared_names,
                &mut blocks,
                &mut block_order,
            )?;
            if is_program {
                if program_unit.is_some() {
                    return Err(FortError::at(
                        line_no,
                        FortErrorKind::Structure("more than one PROGRAM unit".into()),
                    ));
                }
                program_unit = Some(name.clone());
            }
            match units.entry(name) {
                Entry::Occupied(unit) => {
                    return Err(FortError::at(
                        line_no,
                        FortErrorKind::Structure(format!("duplicate unit {}", unit.key())),
                    ))
                }
                Entry::Vacant(slot) => slot.insert(unit),
            };
        }
        if units.is_empty() {
            return Err(FortError::general(FortErrorKind::Structure(
                "source contains no program units".into(),
            )));
        }
        // Force shared variables are one-variable blocks.
        for (name, words) in shared_names {
            let block = blocks.entry(name.clone()).or_insert(*words);
            if *block != *words {
                return Err(FortError::general(FortErrorKind::Structure(format!(
                    "shared variable {name} has inconsistent sizes"
                ))));
            }
            if !block_order.contains(name) {
                block_order.push(name.clone());
            }
        }
        let shared_blocks = block_order.iter().map(|b| (b.clone(), blocks[b])).collect();
        Ok(Program {
            units,
            program_unit,
            shared_blocks,
        })
    }

    /// Look up a unit.
    pub fn unit(&self, name: &str) -> Option<&Unit> {
        self.units.get(name)
    }
}

/// One parsed line: what is left of it once its tokens are spent.
struct Line {
    line_no: usize,
    label: Option<u32>,
    stmt: Stmt,
}

struct DoFrame {
    terminal: Option<u32>,
    var: String,
    step: Expr,
    head: usize,
    exit_patch: usize,
}

struct IfFrame {
    false_patch: usize,
    end_patches: Vec<usize>,
}

fn compile_unit(
    name: String,
    params: Vec<String>,
    is_program: bool,
    mut body: Vec<Line>,
    shared_names: &HashMap<String, usize>,
    blocks: &mut HashMap<String, usize>,
    block_order: &mut Vec<String>,
) -> Result<Unit, FortError> {
    // ---- pass 1: declarations -------------------------------------------
    // The declared names and dimensions move out of their statements: the
    // third pass only wants a placeholder op from a declaration.
    let mut decls: HashMap<String, (Ty, Vec<usize>)> = HashMap::new();
    let mut commons: Vec<(String, Vec<DeclItem>, usize)> = Vec::new(); // (block, items, line)
    for line in &mut body {
        match &mut line.stmt {
            Stmt::Decl { ty, items } => {
                for it in std::mem::take(items) {
                    match decls.entry(it.name) {
                        Entry::Occupied(first) => {
                            return Err(FortError::at(
                                line.line_no,
                                FortErrorKind::Structure(format!(
                                    "{} declared twice in {name}",
                                    first.key()
                                )),
                            ))
                        }
                        Entry::Vacant(slot) => slot.insert((*ty, it.dims)),
                    };
                }
            }
            Stmt::Common { block, items } => {
                commons.push((std::mem::take(block), std::mem::take(items), line.line_no));
            }
            _ => {}
        }
    }

    let ty_of = |n: &str| -> (Ty, Vec<usize>) {
        decls
            .get(n)
            .cloned()
            .unwrap_or_else(|| (Ty::implicit_for(n), Vec::new()))
    };

    // ---- pass 2: symbol table ---------------------------------------------
    let mut symbols: HashMap<String, Symbol> = HashMap::new();
    // Dummy arguments first.
    for (i, p) in params.iter().enumerate() {
        let (ty, dims) = ty_of(p);
        symbols.insert(
            p.clone(),
            Symbol {
                ty,
                dims,
                storage: Storage::Arg(i),
            },
        );
    }
    // COMMON members.
    for (block, items, line_no) in commons {
        if block == "ZZPENV" {
            // the private environment: (me, np)
            for (i, it) in items.into_iter().enumerate() {
                let storage = match i {
                    0 => Storage::PseudoMe,
                    1 => Storage::PseudoNp,
                    _ => {
                        return Err(FortError::at(
                            line_no,
                            FortErrorKind::Structure(
                                "COMMON /ZZPENV/ has exactly two members".into(),
                            ),
                        ))
                    }
                };
                symbols.insert(
                    it.name,
                    Symbol {
                        ty: Ty::Integer,
                        dims: Vec::new(),
                        storage,
                    },
                );
            }
            continue;
        }
        let block: Arc<str> = block.into();
        let mut offset = 0usize;
        for it in items {
            let (ty, mut dims) = ty_of(&it.name);
            if !it.dims.is_empty() {
                dims = it.dims;
            }
            let words = dims.iter().product::<usize>().max(1);
            symbols.insert(
                it.name,
                Symbol {
                    ty,
                    dims,
                    storage: Storage::Shared {
                        block: Arc::clone(&block),
                        offset,
                    },
                },
            );
            offset += words;
        }
        match blocks.get(&*block) {
            Some(&w) if w != offset => {
                return Err(FortError::at(
                    line_no,
                    FortErrorKind::Structure(format!(
                        "COMMON /{block}/ declared with {offset} words here but {w} elsewhere"
                    )),
                ))
            }
            Some(_) => {}
            None => {
                blocks.insert(block.to_string(), offset);
                block_order.push(block.to_string());
            }
        }
    }
    // Declared names not yet placed: Force shared variables are global by
    // name, everything else is a process-private local.
    let mut frame_words = 0usize;
    let mut declared: Vec<(String, (Ty, Vec<usize>))> = decls.into_iter().collect();
    declared.sort_unstable_by(|a, b| a.0.cmp(&b.0)); // deterministic layout
    for (n, (ty, dims)) in declared {
        if symbols.contains_key(&n) {
            continue;
        }
        let words = dims.iter().product::<usize>().max(1);
        let storage = if let Some(&shared_words) = shared_names.get(&n) {
            if shared_words != words {
                return Err(FortError::general(FortErrorKind::Structure(format!(
                    "shared variable {n}: unit {name} declares {words} words, elsewhere {shared_words}"
                ))));
            }
            Storage::Shared {
                block: n.as_str().into(),
                offset: 0,
            }
        } else {
            let base = frame_words;
            frame_words += words;
            Storage::Local { base }
        };
        symbols.insert(n, Symbol { ty, dims, storage });
    }

    // ---- pass 3: ops ----------------------------------------------------------
    let mut ops: Vec<Op> = Vec::with_capacity(body.len() + 1);
    let mut op_lines: Vec<usize> = Vec::with_capacity(body.len() + 1);
    let mut labels: HashMap<u32, usize> = HashMap::new();
    let mut gotos: Vec<(usize, u32, usize)> = Vec::new(); // (op idx, label, line)
    let mut if_stack: Vec<IfFrame> = Vec::new();
    let mut do_stack: Vec<DoFrame> = Vec::new();

    // Hidden loop-variable names are not needed: DO re-evaluates bounds,
    // which we document as a (benign) deviation from F77 trip counts.

    let last_line = body.last().map(|l| l.line_no).unwrap_or(0);
    for line in body {
        let line_no = line.line_no;
        if let Some(label) = line.label {
            if labels.insert(label, ops.len()).is_some() {
                return Err(FortError::at(
                    line_no,
                    FortErrorKind::Structure(format!("duplicate label {label}")),
                ));
            }
        }
        emit_stmt(
            line.stmt,
            line_no,
            &mut ops,
            &mut op_lines,
            &mut gotos,
            &mut if_stack,
            &mut do_stack,
        )?;
        // Close labeled DO loops terminating at this line.
        while let Some(frame) = do_stack.last() {
            match (frame.terminal, line.label) {
                (Some(t), Some(l)) if t == l => {
                    let frame = do_stack.pop().expect("frame present");
                    emit_do_close(frame, &mut ops, &mut op_lines, line_no);
                }
                _ => break,
            }
        }
    }

    if !if_stack.is_empty() {
        return Err(FortError::general(FortErrorKind::Structure(format!(
            "unit {name}: IF block not closed by END IF"
        ))));
    }
    if !do_stack.is_empty() {
        return Err(FortError::general(FortErrorKind::Structure(format!(
            "unit {name}: DO loop not closed"
        ))));
    }

    // Implicit return at unit end.
    ops.push(Op::Return);
    op_lines.push(last_line);

    // Resolve GOTOs.
    for (op_idx, label, line_no) in gotos {
        let target = *labels.get(&label).ok_or_else(|| {
            FortError::at(
                line_no,
                FortErrorKind::Structure(format!("GO TO unknown label {label}")),
            )
        })?;
        match &mut ops[op_idx] {
            Op::Jump(t) | Op::JumpIfFalse(_, t) => *t = target,
            other => unreachable!("goto fixup on {other:?}"),
        }
    }

    // Collect implicit locals used but never declared (scalars only).
    let mut implicit: Vec<&str> = Vec::new();
    for op in &ops {
        collect_names(op, &mut |n| {
            if !symbols.contains_key(n) && !implicit.contains(&n) {
                implicit.push(n);
            }
        });
    }
    implicit.sort_unstable();
    for n in implicit {
        if crate::intrinsics::is_intrinsic_function(n)
            || crate::intrinsics::is_intrinsic_subroutine(n)
        {
            continue;
        }
        let storage = if let Some(&w) = shared_names.get(n) {
            if w != 1 {
                return Err(FortError::general(FortErrorKind::Structure(format!(
                    "shared array {n} used without declaration in {name}"
                ))));
            }
            Storage::Shared {
                block: n.into(),
                offset: 0,
            }
        } else {
            let base = frame_words;
            frame_words += 1;
            Storage::Local { base }
        };
        symbols.insert(
            n.to_string(),
            Symbol {
                ty: Ty::implicit_for(n),
                dims: Vec::new(),
                storage,
            },
        );
    }

    Ok(Unit {
        name,
        is_program,
        params,
        symbols,
        ops,
        op_lines,
        frame_words,
    })
}

/// Emit ops for one statement; its expressions move into the ops.
fn emit_stmt(
    stmt: Stmt,
    line_no: usize,
    ops: &mut Vec<Op>,
    op_lines: &mut Vec<usize>,
    gotos: &mut Vec<(usize, u32, usize)>,
    if_stack: &mut Vec<IfFrame>,
    do_stack: &mut Vec<DoFrame>,
) -> Result<(), FortError> {
    let push = |op: Op, ops: &mut Vec<Op>, op_lines: &mut Vec<usize>| {
        ops.push(op);
        op_lines.push(line_no);
    };
    match stmt {
        Stmt::Decl { .. } | Stmt::Common { .. } => {
            // declarations emit a placeholder so labels on them still work
            push(Op::Nop, ops, op_lines);
        }
        Stmt::Continue => push(Op::Nop, ops, op_lines),
        Stmt::Assign { lhs, rhs } => push(Op::Assign(lhs, rhs), ops, op_lines),
        Stmt::Call { name, args } => push(Op::Call(name, args), ops, op_lines),
        Stmt::Print(items) => push(Op::Print(items), ops, op_lines),
        Stmt::Return => push(Op::Return, ops, op_lines),
        Stmt::Stop => push(Op::Stop, ops, op_lines),
        Stmt::Goto(l) => {
            gotos.push((ops.len(), l, line_no));
            push(Op::Jump(usize::MAX), ops, op_lines);
        }
        Stmt::ArithIf(e, l_neg, l_zero, l_pos) => {
            // Branch on sign.  The expression is evaluated up to twice;
            // expressions in this subset are side-effect free.
            let lt = Expr::Bin(BinOp::Lt, Box::new(e.clone()), Box::new(Expr::Int(0)));
            let eq = Expr::Bin(BinOp::Eq, Box::new(e), Box::new(Expr::Int(0)));
            // if !(e < 0) skip over the negative jump
            let skip1 = ops.len();
            push(Op::JumpIfFalse(lt, usize::MAX), ops, op_lines);
            gotos.push((ops.len(), l_neg, line_no));
            push(Op::Jump(usize::MAX), ops, op_lines);
            let here = ops.len();
            patch(ops, skip1, here);
            let skip2 = ops.len();
            push(Op::JumpIfFalse(eq, usize::MAX), ops, op_lines);
            gotos.push((ops.len(), l_zero, line_no));
            push(Op::Jump(usize::MAX), ops, op_lines);
            let here = ops.len();
            patch(ops, skip2, here);
            gotos.push((ops.len(), l_pos, line_no));
            push(Op::Jump(usize::MAX), ops, op_lines);
        }
        Stmt::IfThen(cond) => {
            if_stack.push(IfFrame {
                false_patch: ops.len(),
                end_patches: Vec::new(),
            });
            push(Op::JumpIfFalse(cond, usize::MAX), ops, op_lines);
        }
        Stmt::ElseIf(cond) => {
            let frame = if_stack.last_mut().ok_or_else(|| {
                FortError::at(
                    line_no,
                    FortErrorKind::Structure("ELSE IF without IF".into()),
                )
            })?;
            if frame.false_patch == usize::MAX {
                return Err(FortError::at(
                    line_no,
                    FortErrorKind::Structure("ELSE IF after ELSE".into()),
                ));
            }
            // end-jump for the previous arm
            frame.end_patches.push(ops.len());
            push(Op::Jump(usize::MAX), ops, op_lines);
            // previous false branch lands here
            let here = ops.len();
            patch(ops, frame.false_patch, here);
            frame.false_patch = ops.len();
            push(Op::JumpIfFalse(cond, usize::MAX), ops, op_lines);
        }
        Stmt::Else => {
            let frame = if_stack.last_mut().ok_or_else(|| {
                FortError::at(line_no, FortErrorKind::Structure("ELSE without IF".into()))
            })?;
            if frame.false_patch == usize::MAX {
                return Err(FortError::at(
                    line_no,
                    FortErrorKind::Structure("second ELSE in one IF block".into()),
                ));
            }
            frame.end_patches.push(ops.len());
            push(Op::Jump(usize::MAX), ops, op_lines);
            let here = ops.len();
            patch(ops, frame.false_patch, here);
            // mark "no pending false branch" with a Nop target patching to end
            frame.false_patch = usize::MAX;
        }
        Stmt::EndIf => {
            let frame = if_stack.pop().ok_or_else(|| {
                FortError::at(
                    line_no,
                    FortErrorKind::Structure("END IF without IF".into()),
                )
            })?;
            let here = ops.len();
            if frame.false_patch != usize::MAX {
                patch(ops, frame.false_patch, here);
            }
            for p in frame.end_patches {
                patch(ops, p, here);
            }
            push(Op::Nop, ops, op_lines);
        }
        Stmt::LogicalIf(cond, inner) => {
            let patch_idx = ops.len();
            push(Op::JumpIfFalse(cond, usize::MAX), ops, op_lines);
            emit_stmt(*inner, line_no, ops, op_lines, gotos, if_stack, do_stack)?;
            let here = ops.len();
            patch(ops, patch_idx, here);
        }
        Stmt::Do {
            label,
            var,
            from,
            to,
            step,
        } => {
            let step = step.unwrap_or(Expr::Int(1));
            push(Op::Assign(LValue::Name(var.clone()), from), ops, op_lines);
            let head = ops.len();
            let cond = do_condition(&var, to, &step);
            let exit_patch = ops.len();
            push(Op::JumpIfFalse(cond, usize::MAX), ops, op_lines);
            do_stack.push(DoFrame {
                terminal: label,
                var,
                step,
                head,
                exit_patch,
            });
        }
        Stmt::EndDo => {
            let frame = do_stack.pop().ok_or_else(|| {
                FortError::at(
                    line_no,
                    FortErrorKind::Structure("END DO without DO".into()),
                )
            })?;
            if frame.terminal.is_some() {
                return Err(FortError::at(
                    line_no,
                    FortErrorKind::Structure("labeled DO must end at its label, not END DO".into()),
                ));
            }
            emit_do_close(frame, ops, op_lines, line_no);
        }
        Stmt::Program(_) | Stmt::Subroutine(_, _) | Stmt::EndUnit => {
            return Err(FortError::at(
                line_no,
                FortErrorKind::Structure("unit header inside a unit body".into()),
            ))
        }
    }
    Ok(())
}

/// `(step > 0 .AND. var <= to) .OR. (step < 0 .AND. var >= to)`
/// Recognize the exact condition shape emitted by [`do_condition`]:
/// `(STEP > 0 .AND. VAR <= TO) .OR. (STEP < 0 .AND. VAR >= TO)`.
///
/// The bytecode compiler uses this to fuse a structured DO-loop head
/// into a single trip-continuation instruction (which delegates the
/// completion test to `force-core`'s schedule range rule) instead of
/// re-evaluating the seven-node boolean tree — with `TO` and `STEP`
/// evaluated once per check rather than twice.  Returns
/// `(var, to, step)` on a match.
pub(crate) fn match_do_condition(e: &Expr) -> Option<(&Expr, &Expr, &Expr)> {
    use BinOp::{And, Ge, Gt, Le, Lt, Or};
    let is_zero = |e: &Expr| matches!(e, Expr::Int(0));
    let Expr::Bin(Or, up, down) = e else {
        return None;
    };
    let Expr::Bin(And, gt, le) = &**up else {
        return None;
    };
    let Expr::Bin(And, lt, ge) = &**down else {
        return None;
    };
    let Expr::Bin(Gt, s1, z1) = &**gt else {
        return None;
    };
    let Expr::Bin(Le, v1, t1) = &**le else {
        return None;
    };
    let Expr::Bin(Lt, s2, z2) = &**lt else {
        return None;
    };
    let Expr::Bin(Ge, v2, t2) = &**ge else {
        return None;
    };
    (is_zero(z1) && is_zero(z2) && s1 == s2 && v1 == v2 && t1 == t2)
        .then_some((&**v1, &**t1, &**s1))
}

fn do_condition(var: &str, to: Expr, step: &Expr) -> Expr {
    let v = || Box::new(Expr::Var(var.to_string()));
    let s = || Box::new(step.clone());
    Expr::Bin(
        BinOp::Or,
        Box::new(Expr::Bin(
            BinOp::And,
            Box::new(Expr::Bin(BinOp::Gt, s(), Box::new(Expr::Int(0)))),
            Box::new(Expr::Bin(BinOp::Le, v(), Box::new(to.clone()))),
        )),
        Box::new(Expr::Bin(
            BinOp::And,
            Box::new(Expr::Bin(BinOp::Lt, s(), Box::new(Expr::Int(0)))),
            Box::new(Expr::Bin(BinOp::Ge, v(), Box::new(to))),
        )),
    )
}

fn emit_do_close(frame: DoFrame, ops: &mut Vec<Op>, op_lines: &mut Vec<usize>, line_no: usize) {
    let DoFrame {
        var,
        step,
        head,
        exit_patch,
        ..
    } = frame;
    ops.push(Op::Assign(
        LValue::Name(var.clone()),
        Expr::Bin(BinOp::Add, Box::new(Expr::Var(var)), Box::new(step)),
    ));
    op_lines.push(line_no);
    ops.push(Op::Jump(head));
    op_lines.push(line_no);
    let here = ops.len();
    patch(ops, exit_patch, here);
}

fn patch(ops: &mut [Op], idx: usize, target: usize) {
    match &mut ops[idx] {
        Op::Jump(t) | Op::JumpIfFalse(_, t) => *t = target,
        other => unreachable!("patch on {other:?}"),
    }
}

/// Walk all identifiers referenced by an op.
fn collect_names<'a>(op: &'a Op, f: &mut impl FnMut(&'a str)) {
    fn expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a str)) {
        match e {
            Expr::Var(n) => f(n),
            Expr::Index(n, args) => {
                f(n);
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
    match op {
        Op::Assign(lhs, rhs) => {
            match lhs {
                LValue::Name(n) => f(n),
                LValue::Elem(n, idx) => {
                    f(n);
                    for e in idx {
                        expr(e, f);
                    }
                }
            }
            expr(rhs, f);
        }
        Op::JumpIfFalse(e, _) => expr(e, f),
        Op::Call(_, args) => {
            for a in args {
                expr(a, f);
            }
        }
        Op::Print(items) => {
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

    #[test]
    fn splits_units() {
        let p = compile(
            "      PROGRAM MAIN\n      X = 1\n      END\n      SUBROUTINE SUB(A)\n      RETURN\n      END\n",
        );
        assert_eq!(p.units.len(), 2);
        assert_eq!(p.program_unit.as_deref(), Some("MAIN"));
        assert!(p.unit("SUB").unwrap().params == vec!["A"]);
    }

    #[test]
    fn common_blocks_are_positional_and_sized() {
        let p = compile(
            "      SUBROUTINE A\n      INTEGER X, Y(4)\n      COMMON /BLK/ X, Y\n      END\n",
        );
        let u = p.unit("A").unwrap();
        assert_eq!(
            u.symbols["X"].storage,
            Storage::Shared {
                block: "BLK".into(),
                offset: 0
            }
        );
        assert_eq!(
            u.symbols["Y"].storage,
            Storage::Shared {
                block: "BLK".into(),
                offset: 1
            }
        );
        assert_eq!(p.shared_blocks, vec![("BLK".to_string(), 5)]);
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
        let u = p.unit("A").unwrap();
        assert_eq!(u.symbols["ME"].storage, Storage::PseudoMe);
        assert_eq!(u.symbols["NP"].storage, Storage::PseudoNp);
    }

    #[test]
    fn force_shared_names_resolve_globally() {
        let mut shared = HashMap::new();
        shared.insert("TOTAL".to_string(), 1);
        let p = Program::compile(
            "      SUBROUTINE A\n      INTEGER TOTAL\n      TOTAL = 1\n      END\n",
            &shared,
        )
        .unwrap();
        let u = p.unit("A").unwrap();
        assert_eq!(
            u.symbols["TOTAL"].storage,
            Storage::Shared {
                block: "TOTAL".into(),
                offset: 0
            }
        );
        assert!(p.shared_blocks.contains(&("TOTAL".to_string(), 1)));
    }

    #[test]
    fn block_if_compiles_to_jumps() {
        let p = compile(
            "      SUBROUTINE A\n      IF (X .GT. 0) THEN\n      Y = 1\n      ELSE\n      Y = 2\n      END IF\n      END\n",
        );
        let u = p.unit("A").unwrap();
        // JumpIfFalse, Assign, Jump, Assign, Nop(endif), Return
        assert!(matches!(u.ops[0], Op::JumpIfFalse(_, 3)));
        assert!(matches!(u.ops[2], Op::Jump(4)));
    }

    #[test]
    fn labeled_do_closes_at_its_label() {
        let p = compile(
            "      SUBROUTINE A\n      DO 10 I = 1, 3\n      X = X + I\n10    CONTINUE\n      END\n",
        );
        let u = p.unit("A").unwrap();
        // Assign I=1; head: JumpIfFalse -> exit; Assign X; Nop(10); I=I+1; Jump head; Return
        assert!(matches!(u.ops[1], Op::JumpIfFalse(_, 6)));
        assert!(matches!(u.ops[5], Op::Jump(1)));
    }

    #[test]
    fn nested_labeled_dos_share_a_terminal() {
        let p = compile(
            "      SUBROUTINE A\n      DO 10 I = 1, 3\n      DO 10 J = 1, 3\n      X = X + 1\n10    CONTINUE\n      END\n",
        );
        // Both frames close; program compiles and ends with Return.
        let u = p.unit("A").unwrap();
        assert!(matches!(u.ops.last(), Some(Op::Return)));
    }

    #[test]
    fn arithmetic_if_branches_on_sign() {
        let p = compile(
            "      SUBROUTINE A\n      X = -2\n      IF (X) 10, 20, 30\n10    Y = 1\n      RETURN\n20    Y = 2\n      RETURN\n30    Y = 3\n      END\n",
        );
        let u = p.unit("A").unwrap();
        // compiles with resolved jumps; last op is the implicit Return
        assert!(matches!(u.ops.last(), Some(Op::Return)));
        assert!(u
            .ops
            .iter()
            .all(|op| !matches!(op, Op::Jump(t) if *t == usize::MAX)));
    }

    #[test]
    fn goto_resolves_labels() {
        let p =
            compile("      SUBROUTINE A\n      GO TO 20\n      X = 1\n20    CONTINUE\n      END\n");
        let u = p.unit("A").unwrap();
        assert!(matches!(u.ops[0], Op::Jump(2)));
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
        let u = p.unit("A").unwrap();
        assert_eq!(u.symbols["KOUNT"].ty, Ty::Integer);
        assert_eq!(u.symbols["XVAL"].ty, Ty::Real);
        assert!(u.frame_words >= 2);
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
}
