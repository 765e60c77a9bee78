//! Bytecode lowering of the fortranish front end: a flat instruction
//! stream with *resolved storage slots* plus a small stack VM.
//!
//! The tree-walking interpreter (now [`crate::oracle`], the reference
//! this VM is tested against) re-resolves every name against the unit's
//! symbol table on every access and re-walks the expression tree on
//! every evaluation.  This module compiles each
//! program unit once — scalar reads become `LoadLocal`/`LoadShared` with
//! baked-in slots, the seven-node boolean tree the front end builds for
//! a structured `DO` head fuses into a single `Instr::DoCheck` whose
//! completion test is delegated to `force-core`'s schedule range rule
//! ([`ForceRange::in_bounds`], the §4.2 `(incr > 0 ∧ k ≤ last) ∨
//! (incr < 0 ∧ k ≥ last)` test) — and the VM executes the result.
//!
//! The scalar INTEGER statements the macros emit on every trip are one
//! instruction each, in *operand form*: an `Opnd` — a constant, a
//! frame slot, a shared scalar or `ME`/`NP` — is read in place, with no
//! value-stack traffic.  `X = a` is a `MoveInt`, `X = a op b` (`+ − ×`)
//! a `SetInt`, and `IF (a .rel. b) THEN`, `IF (…) GO TO l` and a loop
//! head stepping by a constant a `BranchInt`.  Only statically INTEGER
//! scalars that are not dummy arguments are operands; the compiler picks
//! one emission per statement, and every other one keeps the stack code.
//! Every shared word, fused or not, is read and written through
//! `VmProc::load_word`/`store_word`.
//!
//! Semantics are bit-for-bit those of the tree-walker; the differential
//! tests (`tests/native_vs_interpreter.rs`'s executor matrix and
//! `tests/support`'s `run_checked`) hold the two to identical outputs,
//! `OpStats` and error text.
//! To that end the compiler is *infallible*: every error the tree-walker
//! would raise at execution time (unknown variable, scalar subscripted,
//! machine mismatch, …) compiles to code that raises the same error at
//! the same execution point — never to a compile-time rejection, which
//! would change *when* a fault surfaces.  All ZZ* runtime services
//! delegate to the single service layer in [`crate::engine`], so lock
//! semantics, stats charging and fault attribution cannot drift.

use std::sync::Arc;

use force_core::schedule::ForceRange;
use force_machdep::{fault, FullEmptyState, LockKind};
use force_prep::weigh::{str_bytes, strings_bytes, vec_bytes};

use crate::ast::{BinOp, Expr, LValue, Stmt, Ty, UnOp};
use crate::engine::{
    aini_service, check_fork_mnemonic, check_hardware_fe, check_isfull_machine, check_vendor_locks,
    eval_binop, hep_construct, hep_consume, hep_copy, hep_produce, init_lock_service, int_binop,
    isfull_value, link_service, lock_mnemonic, lock_service, num_cmp, shpg_service, spawn_force,
    strt0_service, voidl_service, ArgVal, Flow, PooledHolds, ProcLock, Rt, SharedState,
};
use crate::error::FortError;
use crate::intrinsics;
use crate::program::{Line, Program, Storage, Symbol, Symbols, Unit};
use crate::token::{Name, Names, Texts};
use crate::value::Value;

// ---- instruction set -------------------------------------------------

/// One VM instruction.  String payloads are interned in
/// [`CompiledProgram::names`]; jump targets are instruction offsets
/// within the unit.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Instr {
    /// Unconditional jump.
    Jump(u32),
    /// Pop a LOGICAL; jump if false.
    JumpIfFalse(u32),
    /// Fused structured-DO head: pops `to`, `var`, `step` and jumps past
    /// the loop body unless the trip continues (§4.2 completion test).
    /// Both spellings of the head compile to it: `IF (<head>) THEN` and
    /// the negated `IF (.NOT. (<head>)) GO TO exit`, whose `GO TO` it
    /// absorbs.  A head whose step is a non-zero INTEGER constant and
    /// whose variable and bound are operands is a [`BranchInt`] instead.
    ///
    /// [`BranchInt`]: Instr::BranchInt
    DoCheck(u32),
    /// Compare-and-branch on two INTEGER operands: jump to `t` if
    /// `a rel b` holds.  `IF (a .rel. b) THEN` jumps on the negated
    /// relation; `IF (a .rel. b) GO TO l` and `IF (.NOT. (…)) GO TO l`
    /// absorb their `GO TO`; a DO head stepping up by a constant exits on
    /// `var .GT. bound`, stepping down on `var .LT. bound`.
    BranchInt {
        a: Opnd,
        b: Opnd,
        rel: BinOp,
        t: u32,
    },
    /// `dst = src`: an INTEGER scalar assigned an INTEGER operand.
    MoveInt {
        dst: Opnd,
        src: Opnd,
    },
    /// `dst = a op b`, `op` one of `+ − ×` on INTEGER operands, wrapping
    /// as [`int_binop`] does.
    SetInt {
        dst: Opnd,
        a: Opnd,
        b: Opnd,
        op: BinOp,
    },
    ConstInt(i64),
    ConstReal(f64),
    ConstLog(bool),
    /// Push the process id / force size.
    LoadMe,
    LoadNp,
    /// Push a private scalar from its frame slot.
    LoadLocal(u32),
    /// Push a shared scalar (block index + word offset within it).
    LoadShared {
        block: u16,
        offset: u32,
        ty: Ty,
    },
    /// Push a dummy-argument scalar; the binding's kind is checked
    /// dynamically exactly as the tree-walker does.
    LoadArgScalar {
        arg: u16,
        name: u32,
    },
    /// Pop, convert to `ty`, store into a private frame slot.
    StoreLocal {
        base: u32,
        ty: Ty,
    },
    /// Pop, convert to `ty`, store into shared storage.
    StoreShared {
        block: u16,
        offset: u32,
        ty: Ty,
    },
    /// Pop, store through a dummy argument (dynamic binding checks;
    /// `declared` is the callee-declared type, converted-through first
    /// for error parity with the tree-walker).
    StoreArgScalar {
        arg: u16,
        name: u32,
        declared: Ty,
    },
    /// Pop, convert to `ty`, push (conversion-error parity only).
    Convert(Ty),
    /// Subscript step for a statically-dimensioned array: pops the index
    /// value, then the running offset accumulator; bounds-checks
    /// subscript `k` against `dim` and pushes the advanced accumulator.
    IdxCheck {
        k: u8,
        dim: u32,
        stride: u32,
        name: u32,
    },
    /// Subscript step for an argument-bound array (dimensions read from
    /// the binding at run time).
    IdxCheckArg {
        arg: u16,
        k: u8,
        name: u32,
    },
    /// Head of an argument-bound element access: checks the binding is
    /// an array reference with `nidx` dimensions and pushes the offset
    /// accumulator seed.
    ArgElemCheck {
        arg: u16,
        nidx: u8,
        name: u32,
    },
    /// Pop the accumulator; push the element of a private array.
    LoadElemLocal {
        base: u32,
    },
    /// Pop the accumulator, then the value; store into a private array.
    StoreElemLocal {
        base: u32,
        ty: Ty,
    },
    LoadElemShared {
        block: u16,
        offset: u32,
        ty: Ty,
    },
    StoreElemShared {
        block: u16,
        offset: u32,
        ty: Ty,
    },
    /// Pop the accumulator; push the element behind an array argument.
    LoadElemArg {
        arg: u16,
    },
    StoreElemArg {
        arg: u16,
    },
    Neg,
    Not,
    /// Pop `b`, then `a`; push `a op b`.  Two INTEGERs add, subtract,
    /// multiply and compare inline; everything else goes through
    /// [`eval_binop`].
    Bin(BinOp),
    /// Intrinsic function call: pops `argc` values.
    CallFn {
        name: u32,
        argc: u8,
    },
    /// Append a literal to the PRINT line being built.
    PrintStr(u32),
    /// Pop a value and append its display form to the PRINT line.
    PrintVal,
    /// Emit the assembled PRINT line.
    PrintFlush,
    Return,
    Stop,
    /// Raise a runtime error whose condition was decidable at compile
    /// time — placed exactly where the tree-walker would raise it.
    Fail(u32),

    // -- argument binding and user calls --
    /// Bind a shared scalar/array base by reference.
    ArgShared {
        block: u16,
        offset: u32,
        ty: Ty,
        dims: u32,
    },
    /// Pop the accumulator; bind one shared array element by reference.
    ArgSharedElem {
        block: u16,
        offset: u32,
        ty: Ty,
    },
    /// Pop the accumulator; rebind an element of an array argument.
    ArgArgElem {
        arg: u16,
    },
    /// Pop a value; bind it by value (read-only in the callee).
    ArgValue,
    /// Forward the caller's binding `arg` unchanged.
    ArgForward(u16),
    /// Bind a program-unit name (spawn intrinsics).
    ArgUnit(u32),
    /// Call a user unit with the last `argc` bindings.
    CallUser {
        unit: u32,
        argc: u8,
    },

    // -- ZZ* runtime services (shared service layer in `engine`) --
    /// Pop the newest binding; it must be shared storage (service
    /// argument `argn` of mnemonic `name`) — push it as a *place*.
    SvcPlace {
        name: u32,
        argn: u8,
    },
    /// The executing machine's locks must be of `kind`: emitted ahead of
    /// a lock argument whose binding could fail, so that a mismatch is
    /// reported first.
    SvcVendorCheck(LockKind),
    /// A lock mnemonic (`ZZTSLCK`, `ZZOSUNL`, …) in one dispatch: the
    /// vendor-lock check, the lock variable's place, then the operation
    /// (`is_lock` acquires, otherwise releases).
    Lock {
        kind: LockKind,
        is_lock: bool,
        at: LockAt,
    },
    SvcInitLock {
        keep_locked: bool,
        user_pool: bool,
    },
    SvcAini,
    SvcVoidl,
    SvcHwCheck,
    /// Pop the value, then the place: produce into a full/empty cell.
    SvcHepProduce,
    /// Pop the place; push the consumed value.
    SvcHepConsume,
    SvcHepCopy,
    SvcHepVoid,
    SvcStrt0,
    SvcLink,
    SvcShpg,
    SvcForkCheck(u32),
    /// Create the force: run `unit` on `nproc` VM processes.
    Fork {
        unit: u32,
    },
    SvcIsFullCheck(u32),
    /// Pop the place; push its full/empty snapshot.
    IsFullValue(u32),
}

/// Where an [`Instr::Lock`] finds its lock variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LockAt {
    /// A shared scalar (`BARWIN`, `LOOP100`, a critical's name), traced
    /// by the name `name`.
    Var { block: u16, offset: u32, name: u32 },
    /// An element of a shared lock array (an async array's `…ZZE(I)`):
    /// pops the offset accumulator its subscripts left.
    Elem { block: u16, offset: u32 },
    /// Any other argument, bound by the generic code and popped from the
    /// places by `SvcPlace`; `name` is the argument's, when it is a name.
    Place { name: Option<u32> },
}

// One instruction is two words; a fused instruction must not make every
// other one bigger.
const _: () = assert!(std::mem::size_of::<Instr>() == 16);

/// An operand of an operand-form instruction, unpacked.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Term {
    Const(i64),
    /// A private frame slot.
    Local(u32),
    /// A shared scalar: block index and word offset within it.
    Shared {
        block: u16,
        offset: u32,
    },
    Me,
    Np,
}

/// An INTEGER operand of an operand-form instruction ([`Instr::MoveInt`],
/// [`Instr::SetInt`], [`Instr::BranchInt`]), read or written in place with
/// no value-stack traffic.  It is packed into one word, its kind in the
/// top two bits, so that three operands and a jump target fit in an
/// instruction: a constant of 30 bits, a frame slot below 2³⁰, a shared
/// scalar in one of the first 2¹⁴ blocks at an offset below 2¹⁶.  A
/// statement with an operand that does not fit keeps its stack code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Opnd(u32);

impl Opnd {
    const PAYLOAD: u32 = (1 << 30) - 1;
    const CONST: u32 = 0;
    const LOCAL: u32 = 1 << 30;
    const SHARED: u32 = 2 << 30;
    const ENV: u32 = 3 << 30;
    /// A shared operand's offset bits; its block has the rest.
    const OFFSET_BITS: u32 = 16;

    fn pack(o: Term) -> Option<Opnd> {
        let fits = |x: u32, bits: u32| x < 1 << bits;
        Some(Opnd(match o {
            Term::Const(n) => {
                if !(-(1 << 29)..1 << 29).contains(&n) {
                    return None;
                }
                Self::CONST | (n as u32 & Self::PAYLOAD)
            }
            Term::Local(slot) if fits(slot, 30) => Self::LOCAL | slot,
            Term::Shared { block, offset }
                if fits(u32::from(block), 30 - Self::OFFSET_BITS)
                    && fits(offset, Self::OFFSET_BITS) =>
            {
                Self::SHARED | u32::from(block) << Self::OFFSET_BITS | offset
            }
            Term::Me => Self::ENV,
            Term::Np => Self::ENV | 1,
            Term::Local(_) | Term::Shared { .. } => return None,
        }))
    }

    #[inline(always)]
    fn unpack(self) -> Term {
        let payload = self.0 & Self::PAYLOAD;
        match self.0 & !Self::PAYLOAD {
            // The payload's top bit is the sign: shift it into place.
            Self::CONST => Term::Const(i64::from((self.0 << 2) as i32 >> 2)),
            Self::LOCAL => Term::Local(payload),
            Self::SHARED => Term::Shared {
                block: (payload >> Self::OFFSET_BITS) as u16,
                offset: payload & ((1 << Self::OFFSET_BITS) - 1),
            },
            _ if payload == 0 => Term::Me,
            _ => Term::Np,
        }
    }
}

/// One compiled unit.
#[derive(Debug)]
pub(crate) struct CUnit {
    pub(crate) name: String,
    /// Declared dummy-argument count (checked at call time).
    pub(crate) params: u16,
    pub(crate) frame_words: u32,
    /// Typed-zero initialization runs: `(base, words, ty)`.
    pub(crate) locals_init: Vec<(u32, u32, Ty)>,
    pub(crate) code: Vec<Instr>,
    /// Source line of each instruction, read only when one raises an
    /// error.
    pub(crate) lines: Vec<u32>,
}

/// A whole program, lowered.  Built once per expansion and shared by
/// every engine loaded from it through the expansion's payload slot; it
/// is resident for as long as the expansion is — in a bounded
/// `ExpansionCache` until evicted, and beyond that while any engine
/// holds it.
#[derive(Debug)]
pub struct CompiledProgram {
    /// Units sorted by name (binary-searchable, deterministic layout).
    pub(crate) units: Vec<CUnit>,
    /// Shared block names in declaration order; instruction `block`
    /// fields index this table.
    pub(crate) blocks: Vec<String>,
    /// Interned strings (error messages, dynamic-lookup names).
    pub(crate) names: Texts,
    /// Interned dimension vectors for array-base argument bindings.
    pub(crate) dims_tables: Vec<Vec<usize>>,
}

impl CompiledProgram {
    /// Index of a unit by name.
    pub(crate) fn unit_index(&self, name: &str) -> Option<usize> {
        self.units
            .binary_search_by(|u| u.name.as_str().cmp(name))
            .ok()
    }

    /// Estimated heap bytes, for the expansion cache's accounting.
    pub(crate) fn heap_bytes(&self) -> usize {
        let units: usize = self
            .units
            .iter()
            .map(|u| {
                str_bytes(&u.name)
                    + vec_bytes(&u.locals_init)
                    + vec_bytes(&u.code)
                    + vec_bytes(&u.lines)
            })
            .sum();
        vec_bytes(&self.units)
            + units
            + strings_bytes(&self.blocks)
            + self.names.heap_bytes()
            + vec_bytes(&self.dims_tables)
            + self.dims_tables.iter().map(vec_bytes).sum::<usize>()
    }
}

// ---- compiler --------------------------------------------------------

struct Compiler<'p> {
    program: &'p Program,
    /// Each unit's index in the compiled program, by name id;
    /// `u32::MAX` for a name that is not a unit.
    unit_ids: Vec<u32>,
    /// The compiled program's names and messages.
    names: Names,
    /// Each program name's id in `names`, by its id in the program;
    /// `u32::MAX` until it is interned.
    name_ids: Vec<u32>,
    dims_tables: Vec<Vec<usize>>,
}

/// Per-unit code emission state.
struct Emit<'p> {
    symbols: &'p Symbols,
    code: Vec<Instr>,
    lines: Vec<u32>,
}

impl<'p> Emit<'p> {
    /// Append `i`; its index.
    fn push(&mut self, i: Instr, line: usize) -> usize {
        self.code.push(i);
        self.lines.push(line as u32);
        self.code.len() - 1
    }

    /// A symbol of the unit: borrowed from the program, not from `self`,
    /// so code can be emitted while it is held.
    fn symbol(&self, name: Name) -> Option<&'p Symbol> {
        self.symbols.get(name)
    }

    /// Point the jump at `at` to the next instruction to be emitted.
    fn land(&mut self, at: usize) {
        let here = self.code.len() as u32;
        aim(&mut self.code[at], here);
    }
}

/// Set the target of the jump `i`.
fn aim(i: &mut Instr, target: u32) {
    match i {
        Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::DoCheck(t) | Instr::BranchInt { t, .. } => {
            *t = target
        }
        other => unreachable!("jump target set on {other:?}"),
    }
}

/// Where a forward branch goes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Target {
    /// Past what the branch guards — its `IF` block's next arm, a logical
    /// `IF`'s statement, a `DO`'s body: the caller lands it.
    Past,
    /// The end of the enclosing block `IF`.
    IfEnd,
    /// The statement labelled so.
    Label(u32),
}

/// An open block `IF`.
struct IfFrame {
    /// The branch to the next arm, not yet landed.
    false_patch: Option<usize>,
    /// The jumps to the block's end.
    end_patches: Vec<usize>,
}

/// An open `DO`.
struct DoFrame<'u> {
    terminal: Option<u32>,
    var: Name,
    step: &'u Expr,
    /// The loop head's first instruction.
    head: u32,
    /// The head's exit branch.
    exit: usize,
}

/// A unit's jumps while its code is emitted.
#[derive(Default)]
struct Jumps<'u> {
    /// `(label, instruction)` per labelled statement.
    labels: Vec<(u32, u32)>,
    /// `(jump, label)` per jump to a label.
    gotos: Vec<(usize, u32)>,
    ifs: Vec<IfFrame>,
    dos: Vec<DoFrame<'u>>,
}

impl Jumps<'_> {
    /// Record where the branch at `at` goes; the branch itself if its
    /// target is [`Target::Past`], for the caller to land.
    fn record(&mut self, at: usize, target: Target) -> Option<usize> {
        match target {
            Target::Past => return Some(at),
            Target::IfEnd => self
                .ifs
                .last_mut()
                .expect("an IF block is open")
                .end_patches
                .push(at),
            Target::Label(l) => self.gotos.push((at, l)),
        }
        None
    }

    /// Whether `line` ends the innermost open `DO`.
    fn closes_do(&self, line: &Line) -> bool {
        line.label.is_some() && self.dos.last().map(|d| d.terminal) == Some(line.label)
    }
}

/// `1`, the step of a `DO` that names none.
static ONE: Expr = Expr::Int(1);

/// Lower a resolved program to bytecode.  Infallible by design: statically
/// detectable runtime errors become `Instr::Fail` at their execution
/// point, preserving the tree-walker's fault timing.
pub fn compile(program: &Program) -> CompiledProgram {
    let names = program.names.len();
    let mut order: Vec<&Unit> = program.units.iter().collect();
    order.sort_unstable_by(|a, b| program.name(a.name).cmp(program.name(b.name)));
    let mut unit_ids = vec![u32::MAX; names];
    for (i, u) in order.iter().enumerate() {
        unit_ids[u.name.0 as usize] = i as u32;
    }
    let mut c = Compiler {
        program,
        unit_ids,
        names: Names::with_room(32),
        name_ids: vec![u32::MAX; names],
        dims_tables: Vec::new(),
    };
    let units = order.iter().map(|u| c.compile_unit(u)).collect();
    CompiledProgram {
        units,
        blocks: program
            .shared_blocks
            .iter()
            .map(|(n, _)| n.clone())
            .collect(),
        names: c.names.freeze(),
        dims_tables: c.dims_tables,
    }
}

/// A §4.2 loop head the compiler fuses into one [`Instr::DoCheck`].
struct DoHead<'u> {
    var: &'u Expr,
    to: &'u Expr,
    step: &'u Expr,
    /// Where the loop leaves to.
    exit: Target,
    /// The head is spelled `IF (.NOT. (<head>)) GO TO exit` (a
    /// prescheduled DO): the `DoCheck` absorbs the `GO TO`.
    negated: bool,
}

/// The loop head `IF (cond)` opens, if any; `after` is where the `GO TO`
/// after the test goes, when the test may absorb it.
///
/// The fused check evaluates step, variable and bound and only then
/// compares; the tree compares the step with zero *before* it evaluates
/// the bound.  The two agree on every error only when that comparison
/// cannot fail — an INTEGER step ([`always_integer`]) — so any other
/// step keeps the tree's shape.
fn do_head<'u>(symbols: &Symbols, cond: &'u Expr, after: Option<Target>) -> Option<DoHead<'u>> {
    let int_step = |step: &Expr| always_integer(step, symbols);
    if let Some((var, to, step)) = cond.as_do_condition() {
        return int_step(step).then_some(DoHead {
            var,
            to,
            step,
            exit: Target::Past,
            negated: false,
        });
    }
    let Expr::Un(UnOp::Not, inner) = cond else {
        return None;
    };
    let (var, to, step) = inner.as_do_condition()?;
    let exit = after?;
    int_step(step).then_some(DoHead {
        var,
        to,
        step,
        exit,
        negated: true,
    })
}

/// Where the `IF` at `body[i]` jumps when its test holds, if that is a
/// jump its branch can absorb: the test is followed by a jump and jumps
/// past it, and nothing else jumps to it.  That is an empty first arm
/// before `ELSE`/`ELSE IF` (the arm's jump to the block's end) and a
/// first arm that is one `GO TO` before `END IF`.
fn after_if(unit: &Unit, jumps: &Jumps<'_>, i: usize) -> Option<Target> {
    let body = &unit.body;
    // A `DO` closing on the `IF`'s own line comes between.
    if jumps.closes_do(&body[i]) {
        return None;
    }
    let next = body.get(i + 1)?;
    if next.label.is_some_and(|l| unit.is_goto_target(l)) {
        return None;
    }
    match &next.stmt {
        Stmt::Else | Stmt::ElseIf(_) => Some(Target::IfEnd),
        Stmt::Goto(l)
            if !jumps.closes_do(next)
                && matches!(body.get(i + 2).map(|l| &l.stmt), Some(Stmt::EndIf)) =>
        {
            Some(Target::Label(*l))
        }
        _ => None,
    }
}

/// `(a, rel, b)` such that `cond` holds exactly when `a rel b` does, if
/// `cond` is a comparison under any number of `.NOT.`s and `a` and `b`
/// are INTEGERs — the caller's to check: two INTEGERs compare totally,
/// which is what lets a `.NOT.` invert the relation.
fn int_comparison(cond: &Expr) -> Option<(&Expr, BinOp, &Expr)> {
    use BinOp::{Eq, Ge, Gt, Le, Lt, Ne};
    match cond {
        Expr::Bin(rel @ (Eq | Ne | Lt | Le | Gt | Ge), a, b) => Some((a, *rel, b)),
        Expr::Un(UnOp::Not, inner) => {
            let (a, rel, b) = int_comparison(inner)?;
            Some((a, negated(rel), b))
        }
        _ => None,
    }
}

/// The relation that holds between two INTEGERs exactly when `rel` does
/// not.
fn negated(rel: BinOp) -> BinOp {
    match rel {
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        BinOp::Lt => BinOp::Ge,
        BinOp::Ge => BinOp::Lt,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        other => unreachable!("{other:?} is not a relation"),
    }
}

/// The value of an INTEGER literal, negated or not.
fn int_constant(x: &Expr) -> Option<i64> {
    match x {
        Expr::Int(n) => Some(*n),
        Expr::Un(UnOp::Neg, a) => match **a {
            Expr::Int(n) => Some(-n),
            _ => None,
        },
        _ => None,
    }
}

/// Whether `x` evaluates to an INTEGER or to an error, never to another
/// type: literals, INTEGER variables and elements of the unit's own
/// storage (an argument's binding may hold any type), `ME`/`NP`, and
/// `+ − × ÷` and negation of those.
fn always_integer(x: &Expr, symbols: &Symbols) -> bool {
    match x {
        Expr::Int(_) => true,
        Expr::Var(n) | Expr::Index(n, _) => symbols
            .get(*n)
            .is_some_and(|s| s.ty == Ty::Integer && !matches!(s.storage, Storage::Arg(_))),
        Expr::Un(UnOp::Neg, a) => always_integer(a, symbols),
        Expr::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div, a, b) => {
            always_integer(a, symbols) && always_integer(b, symbols)
        }
        _ => false,
    }
}

impl<'p> Compiler<'p> {
    /// The `names` index of program name `n`.
    fn intern(&mut self, n: Name) -> u32 {
        let slot = &mut self.name_ids[n.0 as usize];
        if *slot == u32::MAX {
            *slot = self.names.intern(self.program.name(n)).0;
        }
        *slot
    }

    /// The `names` index of a message.
    fn intern_text(&mut self, s: String) -> u32 {
        self.names.intern(&s).0
    }

    fn intern_dims(&mut self, dims: &[usize]) -> u32 {
        if let Some(i) = self.dims_tables.iter().position(|d| d == dims) {
            return i as u32;
        }
        self.dims_tables.push(dims.to_vec());
        (self.dims_tables.len() - 1) as u32
    }

    /// The compiled index of unit `n`, if `n` names a unit.
    fn unit_id(&self, n: Name) -> Option<u32> {
        Some(self.unit_ids[n.0 as usize]).filter(|&u| u != u32::MAX)
    }

    fn text(&self, n: Name) -> &'p str {
        self.program.name(n)
    }

    fn compile_unit(&mut self, unit: &'p Unit) -> CUnit {
        let mut e = Emit {
            symbols: &unit.symbols,
            code: Vec::with_capacity(unit.body.len() * 2 + 1),
            lines: Vec::with_capacity(unit.body.len() * 2 + 1),
        };
        let mut j = Jumps::default();
        // The statement's jump was absorbed by the branch before it.
        let mut absorbed = false;
        for (i, line) in unit.body.iter().enumerate() {
            let line_no = line.line_no;
            if let Some(label) = line.label {
                j.labels.push((label, e.code.len() as u32));
            }
            let skip = std::mem::take(&mut absorbed);
            match &line.stmt {
                Stmt::IfThen(cond) => {
                    j.ifs.push(IfFrame {
                        false_patch: None,
                        end_patches: Vec::new(),
                    });
                    let after = after_if(unit, &j, i);
                    let (past, absorbs) = self.branch(&mut e, &mut j, cond, after, line_no);
                    j.ifs.last_mut().expect("pushed").false_patch = past;
                    absorbed = absorbs;
                }
                Stmt::ElseIf(cond) => {
                    if !skip {
                        self.next_arm(&mut e, &mut j, line_no);
                    }
                    let after = after_if(unit, &j, i);
                    let (past, absorbs) = self.branch(&mut e, &mut j, cond, after, line_no);
                    j.ifs.last_mut().expect("checked").false_patch = past;
                    absorbed = absorbs;
                }
                Stmt::Else => {
                    if !skip {
                        self.next_arm(&mut e, &mut j, line_no);
                    }
                }
                Stmt::EndIf => {
                    let frame = j.ifs.pop().expect("checked");
                    for at in frame.false_patch.into_iter().chain(frame.end_patches) {
                        e.land(at);
                    }
                }
                Stmt::LogicalIf(cond, inner) => {
                    let after = match **inner {
                        Stmt::Goto(l) => Some(Target::Label(l)),
                        _ => None,
                    };
                    let (past, absorbs) = self.branch(&mut e, &mut j, cond, after, line_no);
                    if !absorbs {
                        self.simple(&mut e, &mut j, inner, line_no);
                    }
                    if let Some(at) = past {
                        e.land(at);
                    }
                }
                Stmt::ArithIf(x, neg, zero, pos) => {
                    self.arith_if(&mut e, &mut j, x, [*neg, *zero, *pos], line_no)
                }
                Stmt::Do {
                    label,
                    var,
                    from,
                    to,
                    step,
                } => {
                    let step = step.as_ref().unwrap_or(&ONE);
                    let frame = self.do_head(&mut e, *var, from, to, step, line_no);
                    j.dos.push(DoFrame {
                        terminal: *label,
                        ..frame
                    });
                }
                Stmt::EndDo => {
                    let frame = j.dos.pop().expect("checked");
                    self.close_do(&mut e, frame, line_no);
                }
                Stmt::Goto(_) if skip => {}
                other => self.simple(&mut e, &mut j, other, line_no),
            }
            // Close labeled DO loops terminating at this line.
            while j.closes_do(line) {
                let frame = j.dos.pop().expect("checked");
                self.close_do(&mut e, frame, line_no);
            }
        }
        // Implicit return at unit end.
        let last_line = unit.body.last().map(|l| l.line_no).unwrap_or(0);
        e.push(Instr::Return, last_line);
        j.labels.sort_unstable();
        for (at, label) in j.gotos {
            let i = j
                .labels
                .binary_search_by_key(&label, |&(l, _)| l)
                .expect("every GO TO lands: checked when resolved");
            aim(&mut e.code[at], j.labels[i].1);
        }
        let mut locals_init = Vec::new();
        for (_, sym) in unit.symbols.iter() {
            if let Storage::Local { base } = sym.storage {
                if sym.ty != Ty::Integer {
                    locals_init.push((base as u32, sym.words() as u32, sym.ty));
                }
            }
        }
        locals_init.sort_unstable_by_key(|&(base, ..)| base);
        // Resident for as long as the expansion is: give back the slack.
        e.code.shrink_to_fit();
        e.lines.shrink_to_fit();
        CUnit {
            name: self.text(unit.name).to_string(),
            params: unit.params.len() as u16,
            frame_words: unit.frame_words as u32,
            locals_init,
            code: e.code,
            lines: e.lines,
        }
    }

    /// A statement with no control flow of its own, or a `GO TO`.
    fn simple(&mut self, e: &mut Emit<'_>, j: &mut Jumps<'_>, stmt: &Stmt, line: usize) {
        match stmt {
            Stmt::Decl { .. } | Stmt::Common { .. } | Stmt::Continue => {}
            Stmt::Assign { lhs, rhs } => self.assign(e, lhs, rhs, line),
            Stmt::Print(items) => {
                for it in items {
                    match it {
                        Expr::Str(s) => {
                            let id = self.intern(*s);
                            e.push(Instr::PrintStr(id), line);
                        }
                        other => {
                            self.expr(e, other, line);
                            e.push(Instr::PrintVal, line);
                        }
                    }
                }
                e.push(Instr::PrintFlush, line);
            }
            Stmt::Return => {
                e.push(Instr::Return, line);
            }
            Stmt::Stop => {
                e.push(Instr::Stop, line);
            }
            Stmt::Call { name, args } => self.call(e, *name, args, line),
            Stmt::Goto(l) => {
                let at = e.push(Instr::Jump(0), line);
                j.gotos.push((at, *l));
            }
            other => unreachable!("{other:?} is not a simple statement"),
        }
    }

    /// The jump to the end of the open `IF` block that closes its arm,
    /// and the previous arm's branch landed after it.
    fn next_arm(&mut self, e: &mut Emit<'_>, j: &mut Jumps<'_>, line: usize) {
        let at = e.push(Instr::Jump(0), line);
        let frame = j.ifs.last_mut().expect("checked");
        frame.end_patches.push(at);
        if let Some(past) = frame.false_patch.take() {
            e.land(past);
        }
    }

    /// `IF (cond)`: code that goes on when `cond` holds and branches
    /// otherwise — or, when the branch absorbs the jump after the test
    /// (`after`), branches to that jump's target when `cond` holds.
    /// Returns the branch if it goes [`Target::Past`], for the caller to
    /// land, and whether it absorbed the jump.
    fn branch(
        &mut self,
        e: &mut Emit<'_>,
        j: &mut Jumps<'_>,
        cond: &Expr,
        after: Option<Target>,
        line: usize,
    ) -> (Option<usize>, bool) {
        let head = do_head(e.symbols, cond, after);
        let fused = match &head {
            Some(head) => self.int_head(e, head),
            None => self.int_branch(e, cond, after),
        };
        if let Some((branch, target, absorbs)) = fused {
            let at = e.push(branch, line);
            return (j.record(at, target), absorbs);
        }
        if let Some(head) = head {
            // Tree evaluation order of the condition's first error: step,
            // then var, then to.
            self.expr(e, head.step, line);
            self.expr(e, head.var, line);
            self.expr(e, head.to, line);
            let at = e.push(Instr::DoCheck(0), line);
            return (j.record(at, head.exit), head.negated);
        }
        if *cond == Expr::Logical(true) {
            // `IF (.TRUE.) THEN` (a Pcase `Usect`) never jumps: it
            // compiles to nothing.
            return (None, false);
        }
        self.expr(e, cond, line);
        (Some(e.push(Instr::JumpIfFalse(0), line)), false)
    }

    /// `IF (x) neg, zero, pos`: a branch on `x < 0`, one on `x = 0`,
    /// then the jump to `pos`.  `x` is evaluated up to twice; expressions
    /// in this subset are side-effect free.
    fn arith_if(
        &mut self,
        e: &mut Emit<'_>,
        j: &mut Jumps<'_>,
        x: &Expr,
        to: [u32; 3],
        line: usize,
    ) {
        let zero = Expr::Int(0);
        for (rel, label) in [(BinOp::Lt, to[0]), (BinOp::Eq, to[1])] {
            if let Some(branch) = self.branch_int(e, x, rel, &zero) {
                let at = e.push(branch, line);
                j.gotos.push((at, label));
                continue;
            }
            self.expr(e, x, line);
            e.push(Instr::ConstInt(0), line);
            e.push(Instr::Bin(rel), line);
            let past = e.push(Instr::JumpIfFalse(0), line);
            let at = e.push(Instr::Jump(0), line);
            j.gotos.push((at, label));
            e.land(past);
        }
        let at = e.push(Instr::Jump(0), line);
        j.gotos.push((at, to[2]));
    }

    /// `DO var = from, to, step`: the first assignment, then the head;
    /// the frame's exit branch is still to land.
    fn do_head<'u>(
        &mut self,
        e: &mut Emit<'_>,
        var: Name,
        from: &Expr,
        to: &'u Expr,
        step: &'u Expr,
        line: usize,
    ) -> DoFrame<'u> {
        self.assign(e, &LValue::Name(var), from, line);
        let head = e.code.len() as u32;
        let var_expr = Expr::Var(var);
        let exit = if always_integer(step, e.symbols) {
            let fused = DoHead {
                var: &var_expr,
                to,
                step,
                exit: Target::Past,
                negated: false,
            };
            match self.int_head(e, &fused) {
                Some((branch, ..)) => e.push(branch, line),
                None => {
                    self.expr(e, step, line);
                    self.expr(e, &var_expr, line);
                    self.expr(e, to, line);
                    e.push(Instr::DoCheck(0), line)
                }
            }
        } else {
            // The §4.2 test as the tree spells it.
            let cond = Expr::do_condition(var, to, step);
            self.expr(e, &cond, line);
            e.push(Instr::JumpIfFalse(0), line)
        };
        DoFrame {
            terminal: None,
            var,
            step,
            head,
            exit,
        }
    }

    /// The end of a `DO`'s body: `var = var + step`, the jump back to the
    /// head, and the head's exit landed after it.
    fn close_do(&mut self, e: &mut Emit<'_>, frame: DoFrame<'_>, line: usize) {
        let var = Expr::Var(frame.var);
        match self.int_set(e, frame.var, BinOp::Add, &var, frame.step) {
            Some(set) => {
                e.push(set, line);
            }
            None => {
                self.expr(e, &var, line);
                self.expr(e, frame.step, line);
                e.push(Instr::Bin(BinOp::Add), line);
                self.store(e, frame.var, None, line);
            }
        }
        e.push(Instr::Jump(frame.head), line);
        e.land(frame.exit);
    }

    /// `lhs = rhs`: one operand-form instruction when it fits, else the
    /// value's code and a store.
    fn assign(&mut self, e: &mut Emit<'_>, lhs: &LValue, rhs: &Expr, line: usize) {
        match self.int_assign(e, lhs, rhs) {
            Some(assign) => {
                e.push(assign, line);
            }
            None => {
                self.expr(e, rhs, line);
                match lhs {
                    LValue::Name(n) => self.store(e, *n, None, line),
                    LValue::Elem(n, idx) => self.store(e, *n, Some(idx), line),
                }
            }
        }
    }

    fn fail(&mut self, e: &mut Emit<'_>, msg: String, line: usize) {
        let id = self.intern_text(msg);
        e.push(Instr::Fail(id), line);
    }

    /// `(block, offset)` of a symbol in a known shared block.
    fn shared_place(&self, sym: &Symbol) -> Option<(u16, u32)> {
        match sym.storage {
            Storage::Shared { block, offset } => {
                self.program.block_index(block).map(|b| (b, offset as u32))
            }
            _ => None,
        }
    }

    // -- operand form --

    /// The INTEGER scalar `n` of the unit as an operand: a frame slot, a
    /// shared scalar of a known block, `ME` or `NP` — not a dummy
    /// argument, whose binding may hold any type or none.
    fn int_scalar(&self, e: &Emit<'_>, n: Name) -> Option<Opnd> {
        let sym = e.symbol(n)?;
        if sym.ty != Ty::Integer || !sym.dims.is_empty() {
            return None;
        }
        Opnd::pack(match sym.storage {
            Storage::Local { base } => Term::Local(u32::try_from(base).ok()?),
            Storage::Shared { .. } => {
                let (block, offset) = self.shared_place(sym)?;
                Term::Shared { block, offset }
            }
            Storage::PseudoMe => Term::Me,
            Storage::PseudoNp => Term::Np,
            Storage::Arg(_) => return None,
        })
    }

    /// `x` as an INTEGER operand, if it is one: a literal or an INTEGER
    /// scalar ([`int_scalar`](Self::int_scalar)).  Reading one fails only
    /// where `LoadShared` would, with the same error.
    fn operand(&self, e: &Emit<'_>, x: &Expr) -> Option<Opnd> {
        match x {
            Expr::Var(n) => self.int_scalar(e, *n),
            _ => Opnd::pack(Term::Const(int_constant(x)?)),
        }
    }

    /// `X = a` or `X = a op b` in one instruction, when `X` is an INTEGER
    /// scalar in a slot or a shared block, `a` and `b` are INTEGER
    /// operands and `op` is `+ − ×`.
    fn int_assign(&self, e: &Emit<'_>, lhs: &LValue, rhs: &Expr) -> Option<Instr> {
        let LValue::Name(n) = lhs else {
            return None;
        };
        match rhs {
            Expr::Bin(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul), a, b) => {
                self.int_set(e, *n, *op, a, b)
            }
            src => Some(Instr::MoveInt {
                dst: self.int_dst(e, *n)?,
                src: self.operand(e, src)?,
            }),
        }
    }

    /// `n` as the destination of an operand-form assignment.
    fn int_dst(&self, e: &Emit<'_>, n: Name) -> Option<Opnd> {
        let dst = self.int_scalar(e, n)?;
        matches!(dst.unpack(), Term::Local(_) | Term::Shared { .. }).then_some(dst)
    }

    /// `n = a op b` as one [`Instr::SetInt`].
    fn int_set(&self, e: &Emit<'_>, n: Name, op: BinOp, a: &Expr, b: &Expr) -> Option<Instr> {
        Some(Instr::SetInt {
            dst: self.int_dst(e, n)?,
            a: self.operand(e, a)?,
            b: self.operand(e, b)?,
            op,
        })
    }

    /// `if a rel b then jump`, on two INTEGER operands; the target is
    /// set when it is known.
    fn branch_int(&self, e: &Emit<'_>, a: &Expr, rel: BinOp, b: &Expr) -> Option<Instr> {
        Some(Instr::BranchInt {
            a: self.operand(e, a)?,
            b: self.operand(e, b)?,
            rel,
            t: 0,
        })
    }

    /// A loop head as one [`Instr::BranchInt`], where it exits and
    /// whether that absorbs the `GO TO` after it, when its step is a
    /// non-zero INTEGER constant and its variable and bound are INTEGER
    /// operands: the §4.2 test with the step's sign known, so the trip
    /// goes on while `var ≤ to` stepping up and `var ≥ to` stepping down.
    fn int_head(&self, e: &Emit<'_>, head: &DoHead<'_>) -> Option<(Instr, Target, bool)> {
        let exit_if = match int_constant(head.step)? {
            0 => return None,
            1.. => BinOp::Gt,
            _ => BinOp::Lt,
        };
        let branch = self.branch_int(e, head.var, exit_if, head.to)?;
        Some((branch, head.exit, head.negated))
    }

    /// `IF (cond)` as one [`Instr::BranchInt`], where it goes and whether
    /// that absorbs the jump after it (`after`), when `cond` compares two
    /// INTEGER operands.
    fn int_branch(
        &self,
        e: &Emit<'_>,
        cond: &Expr,
        after: Option<Target>,
    ) -> Option<(Instr, Target, bool)> {
        let (a, rel, b) = int_comparison(cond)?;
        match after {
            Some(target) => Some((self.branch_int(e, a, rel, b)?, target, true)),
            None => Some((self.branch_int(e, a, negated(rel), b)?, Target::Past, false)),
        }
    }

    fn block_id(&mut self, e: &mut Emit<'_>, block: Name, line: usize) -> Option<u16> {
        match self.program.block_index(block) {
            Some(i) => Some(i),
            None => {
                // The tree-walker's `block_base` raises this when the
                // symbol is touched.
                let msg = format!("unknown shared block {}", self.text(block));
                self.fail(e, msg, line);
                None
            }
        }
    }

    // -- expressions --

    fn expr(&mut self, e: &mut Emit<'_>, x: &Expr, line: usize) {
        match x {
            Expr::Int(n) => {
                e.push(Instr::ConstInt(*n), line);
            }
            Expr::Real(v) => {
                e.push(Instr::ConstReal(*v), line);
            }
            Expr::Logical(b) => {
                e.push(Instr::ConstLog(*b), line);
            }
            Expr::Str(_) => self.fail(
                e,
                "character data are only allowed in PRINT lists".into(),
                line,
            ),
            Expr::Var(n) => self.read_scalar(e, *n, line),
            Expr::Index(n, idx) => {
                let n = *n;
                let is_array = e.symbol(n).is_some_and(|s| !s.dims.is_empty());
                let text = self.text(n);
                if is_array {
                    self.elem_load(e, n, idx, line);
                } else if e.symbols.contains(n) {
                    self.fail(e, format!("{text} is a scalar but was subscripted"), line);
                } else if text == "ZZISFL" || text == "ZZHISF" {
                    let id = self.intern(n);
                    e.push(Instr::SvcIsFullCheck(id), line);
                    self.svc_place(e, n, idx, 0, line);
                    e.push(Instr::IsFullValue(id), line);
                } else {
                    for a in idx {
                        self.expr(e, a, line);
                    }
                    let id = self.intern(n);
                    e.push(
                        Instr::CallFn {
                            name: id,
                            argc: idx.len() as u8,
                        },
                        line,
                    );
                }
            }
            Expr::Un(op, a) => {
                self.expr(e, a, line);
                e.push(
                    match op {
                        UnOp::Neg => Instr::Neg,
                        UnOp::Not => Instr::Not,
                    },
                    line,
                );
            }
            Expr::Bin(op, a, b) => {
                // The tree-walker evaluates both operands
                // unconditionally (no short-circuit) — so does the VM.
                self.expr(e, a, line);
                self.expr(e, b, line);
                e.push(Instr::Bin(*op), line);
            }
        }
    }

    fn read_scalar(&mut self, e: &mut Emit<'_>, n: Name, line: usize) {
        let text = self.text(n);
        let Some(sym) = e.symbol(n) else {
            return self.fail(e, format!("unknown variable {text}"), line);
        };
        if !sym.dims.is_empty() {
            return self.fail(e, format!("array {text} used without subscripts"), line);
        }
        match sym.storage {
            Storage::Local { base } => {
                e.push(Instr::LoadLocal(base as u32), line);
            }
            Storage::Shared { block, offset } => {
                let (off, ty) = (offset as u32, sym.ty);
                if let Some(b) = self.block_id(e, block, line) {
                    e.push(
                        Instr::LoadShared {
                            block: b,
                            offset: off,
                            ty,
                        },
                        line,
                    );
                }
            }
            Storage::PseudoMe => {
                e.push(Instr::LoadMe, line);
            }
            Storage::PseudoNp => {
                e.push(Instr::LoadNp, line);
            }
            Storage::Arg(i) => {
                let id = self.intern(n);
                e.push(
                    Instr::LoadArgScalar {
                        arg: i as u16,
                        name: id,
                    },
                    line,
                );
            }
        }
    }

    /// Emit the accumulator seed + interleaved index-eval/bounds-check
    /// chain for a statically-dimensioned array.  Returns false if a
    /// `Fail` was emitted instead (dimension-count mismatch).
    fn static_elem_chain(
        &mut self,
        e: &mut Emit<'_>,
        n: Name,
        dims: &[usize],
        idx: &[Expr],
        line: usize,
    ) -> bool {
        if idx.len() != dims.len() {
            let msg = format!(
                "{} has {} dimension(s) but {} subscript(s) given",
                self.text(n),
                dims.len(),
                idx.len()
            );
            self.fail(e, msg, line);
            return false;
        }
        e.push(Instr::ConstInt(0), line);
        let name = self.intern(n);
        let mut stride = 1usize;
        for (k, (ix, &d)) in idx.iter().zip(dims.iter()).enumerate() {
            self.expr(e, ix, line);
            e.push(
                Instr::IdxCheck {
                    k: k as u8,
                    dim: d as u32,
                    stride: stride as u32,
                    name,
                },
                line,
            );
            stride *= d;
        }
        true
    }

    /// Emit the dynamic chain for an argument-bound array.
    fn arg_elem_chain(&mut self, e: &mut Emit<'_>, arg: usize, n: Name, idx: &[Expr], line: usize) {
        let name = self.intern(n);
        e.push(
            Instr::ArgElemCheck {
                arg: arg as u16,
                nidx: idx.len() as u8,
                name,
            },
            line,
        );
        for (k, ix) in idx.iter().enumerate() {
            self.expr(e, ix, line);
            e.push(
                Instr::IdxCheckArg {
                    arg: arg as u16,
                    k: k as u8,
                    name,
                },
                line,
            );
        }
    }

    /// Element load for an array symbol (declared dims non-empty).
    fn elem_load(&mut self, e: &mut Emit<'_>, n: Name, idx: &[Expr], line: usize) {
        let sym = e
            .symbol(n)
            .expect("callers checked that the symbol is an array");
        if let Storage::Arg(i) = sym.storage {
            self.arg_elem_chain(e, i, n, idx, line);
            e.push(Instr::LoadElemArg { arg: i as u16 }, line);
            return;
        }
        if !self.static_elem_chain(e, n, &sym.dims, idx, line) {
            return;
        }
        match sym.storage {
            Storage::Local { base } => {
                e.push(Instr::LoadElemLocal { base: base as u32 }, line);
            }
            Storage::Shared { block, offset } => {
                let (off, ty) = (offset as u32, sym.ty);
                if let Some(b) = self.block_id(e, block, line) {
                    e.push(
                        Instr::LoadElemShared {
                            block: b,
                            offset: off,
                            ty,
                        },
                        line,
                    );
                }
            }
            _ => unreachable!("array storage"),
        }
    }

    // -- stores (value already on the stack) --

    /// Store into `n`, or into its element `idx` when there is one.
    fn store(&mut self, e: &mut Emit<'_>, n: Name, idx: Option<&[Expr]>, line: usize) {
        let text = self.text(n);
        let Some(idx) = idx else {
            let Some(sym) = e.symbol(n) else {
                return self.fail(e, format!("unknown variable {text}"), line);
            };
            if !sym.dims.is_empty() {
                return self.fail(e, format!("array {text} assigned without subscripts"), line);
            }
            match sym.storage {
                Storage::Local { base } => {
                    e.push(
                        Instr::StoreLocal {
                            base: base as u32,
                            ty: sym.ty,
                        },
                        line,
                    );
                }
                Storage::Shared { block, offset } => {
                    let (off, ty) = (offset as u32, sym.ty);
                    if let Some(b) = self.block_id(e, block, line) {
                        e.push(
                            Instr::StoreShared {
                                block: b,
                                offset: off,
                                ty,
                            },
                            line,
                        );
                    }
                }
                Storage::PseudoMe | Storage::PseudoNp => {
                    // The tree-walker converts first, then rejects
                    // the store — conversion errors win.
                    e.push(Instr::Convert(sym.ty), line);
                    self.fail(
                        e,
                        format!("{text} (process environment) is read-only"),
                        line,
                    );
                }
                Storage::Arg(i) => {
                    let id = self.intern(n);
                    e.push(
                        Instr::StoreArgScalar {
                            arg: i as u16,
                            name: id,
                            declared: sym.ty,
                        },
                        line,
                    );
                }
            }
            return;
        };
        let Some(sym) = e.symbol(n) else {
            return self.fail(e, format!("unknown array {text}"), line);
        };
        if let Storage::Arg(i) = sym.storage {
            self.arg_elem_chain(e, i, n, idx, line);
            e.push(Instr::StoreElemArg { arg: i as u16 }, line);
            return;
        }
        if sym.dims.is_empty() {
            return self.fail(e, format!("{text} is a scalar but was subscripted"), line);
        }
        if !self.static_elem_chain(e, n, &sym.dims, idx, line) {
            return;
        }
        match sym.storage {
            Storage::Local { base } => {
                e.push(
                    Instr::StoreElemLocal {
                        base: base as u32,
                        ty: sym.ty,
                    },
                    line,
                );
            }
            Storage::Shared { block, offset } => {
                let (off, ty) = (offset as u32, sym.ty);
                if let Some(b) = self.block_id(e, block, line) {
                    e.push(
                        Instr::StoreElemShared {
                            block: b,
                            offset: off,
                            ty,
                        },
                        line,
                    );
                }
            }
            _ => unreachable!("array storage"),
        }
    }

    // -- argument binding --

    fn bind_arg(&mut self, e: &mut Emit<'_>, a: &Expr, line: usize) {
        match a {
            Expr::Var(n) => {
                let n = *n;
                if self.unit_id(n).is_some() {
                    let id = self.intern(n);
                    e.push(Instr::ArgUnit(id), line);
                    return;
                }
                let Some(sym) = e.symbol(n) else {
                    let msg = format!("unknown variable {}", self.text(n));
                    return self.fail(e, msg, line);
                };
                match sym.storage {
                    Storage::Shared { block, offset } => {
                        let (off, ty) = (offset as u32, sym.ty);
                        let dims = self.intern_dims(&sym.dims);
                        if let Some(b) = self.block_id(e, block, line) {
                            e.push(
                                Instr::ArgShared {
                                    block: b,
                                    offset: off,
                                    ty,
                                    dims,
                                },
                                line,
                            );
                        }
                    }
                    Storage::Local { base } => {
                        if sym.dims.is_empty() {
                            e.push(Instr::LoadLocal(base as u32), line);
                            e.push(Instr::ArgValue, line);
                        } else {
                            let msg =
                                format!("cannot pass private array {} by reference", self.text(n));
                            self.fail(e, msg, line);
                        }
                    }
                    Storage::PseudoMe => {
                        e.push(Instr::LoadMe, line);
                        e.push(Instr::ArgValue, line);
                    }
                    Storage::PseudoNp => {
                        e.push(Instr::LoadNp, line);
                        e.push(Instr::ArgValue, line);
                    }
                    Storage::Arg(i) => {
                        e.push(Instr::ArgForward(i as u16), line);
                    }
                }
            }
            Expr::Index(n, idx) => {
                let n = *n;
                let Some(sym) = e.symbol(n).filter(|s| !s.dims.is_empty()) else {
                    self.expr(e, a, line);
                    e.push(Instr::ArgValue, line);
                    return;
                };
                match sym.storage {
                    Storage::Arg(i) => {
                        self.arg_elem_chain(e, i, n, idx, line);
                        e.push(Instr::ArgArgElem { arg: i as u16 }, line);
                    }
                    Storage::Local { base } => {
                        if self.static_elem_chain(e, n, &sym.dims, idx, line) {
                            e.push(Instr::LoadElemLocal { base: base as u32 }, line);
                            e.push(Instr::ArgValue, line);
                        }
                    }
                    Storage::Shared { block, offset } => {
                        let (off, ty) = (offset as u32, sym.ty);
                        if self.static_elem_chain(e, n, &sym.dims, idx, line) {
                            if let Some(b) = self.block_id(e, block, line) {
                                e.push(
                                    Instr::ArgSharedElem {
                                        block: b,
                                        offset: off,
                                        ty,
                                    },
                                    line,
                                );
                            }
                        }
                    }
                    _ => unreachable!("array storage"),
                }
            }
            other => {
                self.expr(e, other, line);
                e.push(Instr::ArgValue, line);
            }
        }
    }

    /// Bind service argument `i` and require it to be a shared place.
    fn svc_place(&mut self, e: &mut Emit<'_>, svc: Name, args: &[Expr], i: usize, line: usize) {
        match args.get(i) {
            None => {
                let msg = format!("{} is missing argument {}", self.text(svc), i + 1);
                self.fail(e, msg, line)
            }
            Some(a) => {
                self.bind_arg(e, a, line);
                let id = self.intern(svc);
                e.push(
                    Instr::SvcPlace {
                        name: id,
                        argn: i as u8,
                    },
                    line,
                );
            }
        }
    }

    /// Bind a lock mnemonic's argument for its `Instr::Lock`.  A shared
    /// scalar — every lock the macros name but an async array's — rides
    /// in the instruction; anything else is bound as `svc_place` binds
    /// it, after a vendor check, so that a machine mismatch is still the
    /// first error.
    fn lock_at(
        &mut self,
        e: &mut Emit<'_>,
        mnemonic: Name,
        kind: LockKind,
        args: &[Expr],
        line: usize,
    ) -> LockAt {
        let arg = args.first();
        if let Some(&Expr::Var(n)) = arg {
            let place = e.symbol(n).and_then(|s| self.shared_place(s));
            if let (None, Some((block, offset))) = (self.unit_id(n), place) {
                let name = self.intern(n);
                return LockAt::Var {
                    block,
                    offset,
                    name,
                };
            }
        }
        e.push(Instr::SvcVendorCheck(kind), line);
        if let Some(Expr::Index(n, idx)) = arg {
            let sym = e.symbol(*n).filter(|s| !s.dims.is_empty());
            if let Some((sym, (block, offset))) = sym.and_then(|s| Some((s, self.shared_place(s)?)))
            {
                // A subscript-count mismatch compiles to a `Fail`, as in
                // the generic binding, and the `Lock` after it is never
                // reached.
                return if self.static_elem_chain(e, *n, &sym.dims, idx, line) {
                    LockAt::Elem { block, offset }
                } else {
                    LockAt::Place { name: None }
                };
            }
        }
        self.svc_place(e, mnemonic, args, 0, line);
        let name = match arg {
            Some(&Expr::Var(n)) => Some(self.intern(n)),
            _ => None,
        };
        LockAt::Place { name }
    }

    // -- calls --

    fn call(&mut self, e: &mut Emit<'_>, name: Name, args: &[Expr], line: usize) {
        if let Some(unit) = self.unit_id(name) {
            for a in args {
                self.bind_arg(e, a, line);
            }
            e.push(
                Instr::CallUser {
                    unit,
                    argc: args.len() as u8,
                },
                line,
            );
            return;
        }
        let text = self.text(name);
        if let Some((kind, is_lock)) = lock_mnemonic(text) {
            let at = self.lock_at(e, name, kind, args, line);
            e.push(Instr::Lock { kind, is_lock, at }, line);
            return;
        }
        match text {
            "ZZINITL" | "ZZINITK" | "ZZINITU" => {
                self.svc_place(e, name, args, 0, line);
                e.push(
                    Instr::SvcInitLock {
                        keep_locked: text == "ZZINITK",
                        user_pool: text == "ZZINITU",
                    },
                    line,
                );
            }
            "ZZAINI" => {
                self.svc_place(e, name, args, 0, line);
                self.svc_place(e, name, args, 1, line);
                e.push(Instr::SvcAini, line);
            }
            "ZZVOIDL" => {
                self.svc_place(e, name, args, 0, line);
                self.svc_place(e, name, args, 1, line);
                e.push(Instr::SvcVoidl, line);
            }
            "ZZHPRD" | "ZZHCON" | "ZZHVD" | "ZZHCPY" => {
                e.push(Instr::SvcHwCheck, line);
                self.svc_place(e, name, args, 0, line);
                match text {
                    "ZZHPRD" => match args.get(1) {
                        Some(v) => {
                            self.expr(e, v, line);
                            e.push(Instr::SvcHepProduce, line);
                        }
                        None => self.fail(e, format!("{text} is missing argument 2"), line),
                    },
                    "ZZHCON" | "ZZHCPY" => {
                        e.push(
                            if text == "ZZHCON" {
                                Instr::SvcHepConsume
                            } else {
                                Instr::SvcHepCopy
                            },
                            line,
                        );
                        // The destination resolves *after* the transfer,
                        // exactly as the tree-walker orders it.
                        match args.get(1) {
                            Some(Expr::Var(n)) => self.store(e, *n, None, line),
                            Some(Expr::Index(n, idx)) => self.store(e, *n, Some(idx), line),
                            Some(_) => self.fail(e, "destination must be a variable".into(), line),
                            None => self.fail(e, format!("{text} is missing argument 2"), line),
                        }
                    }
                    _ => {
                        e.push(Instr::SvcHepVoid, line);
                    }
                }
            }
            "ZZSTRT0" => {
                e.push(Instr::SvcStrt0, line);
            }
            "ZZLINK" => {
                e.push(Instr::SvcLink, line);
            }
            "ZZSHPG" => {
                e.push(Instr::SvcShpg, line);
            }
            "ZZFORKJ" | "ZZSFORK" | "ZZSPAWN" => {
                let id = self.intern(name);
                e.push(Instr::SvcForkCheck(id), line);
                match args.first() {
                    Some(&Expr::Var(n)) if self.unit_id(n).is_some() => {
                        let unit = self.unit_id(n).expect("checked");
                        e.push(Instr::Fork { unit }, line);
                    }
                    _ => self.fail(e, format!("{text} needs a program unit to execute"), line),
                }
            }
            other => self.fail(e, format!("CALL to unknown subroutine `{other}`"), line),
        }
    }
}

// ---- VM --------------------------------------------------------------

/// The §4.2 trip-continuation test for a fused DO head.  All-integer
/// bounds delegate to the schedule range rule in `force-core`; mixed
/// types fall back to the coercing comparisons the boolean tree would
/// perform, in its evaluation order (step sign first).
fn do_continues(var: Value, to: Value, step: Value, line: usize) -> Result<bool, FortError> {
    if let (Value::Int(k), Value::Int(last), Value::Int(incr)) = (var, to, step) {
        if incr != 0 {
            return Ok(ForceRange {
                start: k,
                last,
                incr,
            }
            .in_bounds(k));
        }
        return Ok(false);
    }
    use std::cmp::Ordering::{Greater, Less};
    let cs = num_cmp(step, Value::Int(0), line)?;
    let ck = num_cmp(var, to, line)?;
    Ok((cs == Greater && ck != Greater) || (cs == Less && ck != Less))
}

/// Back-edges between two looks at the cancellation token.
const CANCEL_CHECK_STRIDE: u32 = 1024;

/// The line an instruction gives an error it raises.  Lines are 1-based,
/// so no real one is 0: [`VmProc::exec`] puts the faulting instruction's
/// line, from the unit's table, in its place — which keeps the table off
/// the dispatch path.
const HERE: usize = 0;

/// One VM process: the bytecode counterpart of the oracle's `Proc`.
pub(crate) struct VmProc<'r, 'e> {
    rt: &'r Rt<'e>,
    cp: &'r CompiledProgram,
    me: i64,
    np: i64,
    /// Shared region + per-block bases, resolved on first shared touch
    /// (preserving the Sequent's designate-at-first-use failure timing)
    /// and then cached for the process's lifetime.
    shared: Option<(Arc<SharedState>, Vec<usize>)>,
    /// The lock variables this process has used, sorted by shared offset
    /// and resolved once each ([`Rt::resolve_lock`]); unallocated until
    /// the first lock operation.  It cannot go stale: locks are created
    /// by the generated driver before it forks, never inside a force, and
    /// the table dies with the process.
    locks: Vec<(usize, ProcLock)>,
    /// The HEP full/empty tags this process has used, the same way.
    tags: Vec<(usize, Arc<FullEmptyState>)>,
    /// The pooled user locks this process holds.
    holds: PooledHolds<'e>,
}

/// Where `offset` sits in a per-process table sorted by offset, resolved
/// and inserted on first use.
fn slot_of<T>(
    table: &mut Vec<(usize, T)>,
    offset: usize,
    resolve: impl FnOnce() -> Result<T, FortError>,
) -> Result<usize, FortError> {
    table
        .binary_search_by_key(&offset, |(o, _)| *o)
        .or_else(|at| {
            table.insert(at, (offset, resolve()?));
            Ok(at)
        })
}

impl<'r, 'e> VmProc<'r, 'e> {
    pub(crate) fn new(rt: &'r Rt<'e>, cp: &'r CompiledProgram, me: i64, np: i64) -> Self {
        VmProc {
            rt,
            cp,
            me,
            np,
            shared: None,
            locks: Vec::new(),
            tags: Vec::new(),
            holds: PooledHolds::new(rt),
        }
    }

    /// This process's entry for the lock variable at `offset`, as an
    /// index into `locks`.
    fn lock_slot(&mut self, offset: usize) -> Result<usize, FortError> {
        let rt = self.rt;
        slot_of(&mut self.locks, offset, || rt.resolve_lock(offset, HERE))
    }

    /// This process's entry for the full/empty cell at `offset`, as an
    /// index into `tags` (the caller also borrows the shared region).
    fn tag_at(&mut self, offset: usize) -> usize {
        let rt = self.rt;
        slot_of(&mut self.tags, offset, || Ok(rt.tag_handle(offset)))
            .expect("a tag always resolves")
    }

    fn shared_ref(&mut self) -> Result<&(Arc<SharedState>, Vec<usize>), FortError> {
        if self.shared.is_none() {
            let state = self.rt.shared(HERE)?;
            let mut bases = Vec::with_capacity(self.cp.blocks.len());
            for b in &self.cp.blocks {
                bases.push(*state.bases.get(b).ok_or_else(|| {
                    FortError::runtime(HERE, format!("unknown shared block {b}"))
                })?);
            }
            self.shared = Some((state, bases));
        }
        Ok(self.shared.as_ref().expect("just set"))
    }

    /// Absolute shared word offset of `(block, offset)`.
    fn shared_off(&mut self, block: u16, offset: u32) -> Result<usize, FortError> {
        let (_, bases) = self.shared_ref()?;
        Ok(bases[block as usize] + offset as usize)
    }

    /// Read a shared word.  With [`store_word`](Self::store_word), the
    /// one place the VM touches shared memory, whichever instruction
    /// asks.
    fn load_word(&mut self, off: usize, ty: Ty) -> Result<Value, FortError> {
        let (state, _) = self.shared_ref()?;
        Ok(Value::from_bits(state.region.load_raw(off), ty))
    }

    fn store_word(&mut self, off: usize, bits: u64) -> Result<(), FortError> {
        let (state, _) = self.shared_ref()?;
        state.region.store_raw(off, bits);
        Ok(())
    }

    /// The value of an INTEGER operand.  A shared one resolves the region
    /// as `LoadShared` does, so it fails where and as that would.
    #[inline(always)]
    fn read(&mut self, o: Opnd, locals: &[Value]) -> Result<i64, FortError> {
        let v = match o.unpack() {
            Term::Const(n) => return Ok(n),
            Term::Local(slot) => locals[slot as usize],
            Term::Shared { block, offset } => {
                let off = self.shared_off(block, offset)?;
                self.load_word(off, Ty::Integer)?
            }
            Term::Me => return Ok(self.me),
            Term::Np => return Ok(self.np),
        };
        match v {
            Value::Int(n) => Ok(n),
            other => unreachable!("an INTEGER scalar holds {other:?}"),
        }
    }

    /// Store an INTEGER into an operand-form destination: a frame slot
    /// or a shared scalar.
    #[inline(always)]
    fn write(&mut self, dst: Opnd, v: Value, locals: &mut [Value]) -> Result<(), FortError> {
        match dst.unpack() {
            Term::Local(slot) => locals[slot as usize] = v,
            Term::Shared { block, offset } => {
                let off = self.shared_off(block, offset)?;
                self.store_word(off, v.to_bits())?;
            }
            other => unreachable!("{other:?} is not a destination"),
        }
        Ok(())
    }

    /// Execute a unit to completion.  An error one of its instructions
    /// raised leaves with that instruction's line.
    pub(crate) fn exec(&mut self, unit: usize, args: &[ArgVal<'r>]) -> Result<Flow, FortError> {
        let u = &self.cp.units[unit];
        let mut pc = 0usize;
        self.run(u, args, &mut pc).map_err(move |mut e| {
            if e.line == Some(HERE) {
                e.line = Some(u.lines[pc] as usize);
            }
            e
        })
    }

    /// The dispatch loop of [`exec`](Self::exec), leaving `pc` at the
    /// instruction that raised an error.
    #[inline(always)]
    fn run(
        &mut self,
        u: &'r CUnit,
        args: &[ArgVal<'r>],
        pc: &mut usize,
    ) -> Result<Flow, FortError> {
        let cp = self.cp;
        let mut locals = vec![Value::Int(0); u.frame_words as usize];
        for &(base, words, ty) in &u.locals_init {
            for w in 0..words {
                locals[(base + w) as usize] = Value::zero(ty);
            }
        }
        let mut stack: Vec<Value> = Vec::with_capacity(16);
        let mut argstack: Vec<ArgVal<'r>> = Vec::new();
        let mut places: Vec<(usize, Ty)> = Vec::new();
        let mut parts: Vec<String> = Vec::new();
        let code = &u.code;
        let mut until_check = CANCEL_CHECK_STRIDE;
        macro_rules! pop {
            () => {
                stack.pop().expect("value stack underflow")
            };
        }
        // Take a branch.  Every loop closes with a backward branch, fused
        // or not; a body that never blocks observes cancellation here, so
        // a deadline can end it.
        macro_rules! branch {
            ($t:expr) => {{
                let t = $t as usize;
                if t <= *pc {
                    until_check -= 1;
                    if until_check == 0 {
                        until_check = CANCEL_CHECK_STRIDE;
                        fault::check_cancel();
                    }
                }
                *pc = t;
                continue;
            }};
        }
        while *pc < code.len() {
            #[cfg(test)]
            tests::dispatched(u.lines[*pc]);
            match &code[*pc] {
                Instr::Jump(t) => branch!(*t),
                Instr::JumpIfFalse(t) => {
                    if !pop!().as_log(HERE)? {
                        branch!(*t);
                    }
                }
                Instr::DoCheck(t) => {
                    let to = pop!();
                    let var = pop!();
                    let step = pop!();
                    if !do_continues(var, to, step, HERE)? {
                        branch!(*t);
                    }
                }
                Instr::BranchInt { a, b, rel, t } => {
                    let x = self.read(*a, &locals)?;
                    let y = self.read(*b, &locals)?;
                    if int_binop(*rel, x, y) == Some(Value::Log(true)) {
                        branch!(*t);
                    }
                }
                Instr::MoveInt { dst, src } => {
                    let v = self.read(*src, &locals)?;
                    self.write(*dst, Value::Int(v), &mut locals)?;
                }
                Instr::SetInt { dst, a, b, op } => {
                    let x = self.read(*a, &locals)?;
                    let y = self.read(*b, &locals)?;
                    let v = int_binop(*op, x, y).expect("+ − × of two INTEGERs");
                    self.write(*dst, v, &mut locals)?;
                }
                Instr::ConstInt(n) => stack.push(Value::Int(*n)),
                Instr::ConstReal(x) => stack.push(Value::Real(*x)),
                Instr::ConstLog(b) => stack.push(Value::Log(*b)),
                Instr::LoadMe => stack.push(Value::Int(self.me)),
                Instr::LoadNp => stack.push(Value::Int(self.np)),
                Instr::LoadLocal(slot) => stack.push(locals[*slot as usize]),
                Instr::LoadShared { block, offset, ty } => {
                    let off = self.shared_off(*block, *offset)?;
                    let v = self.load_word(off, *ty)?;
                    stack.push(v);
                }
                Instr::LoadArgScalar { arg, name } => match args[*arg as usize] {
                    ArgVal::Value(v) => stack.push(v),
                    ArgVal::Shared { offset, ty, dims } => {
                        if !dims.is_empty() {
                            return Err(FortError::runtime(
                                HERE,
                                format!(
                                    "array argument {} used without subscripts",
                                    &cp.names[*name as usize]
                                ),
                            ));
                        }
                        let v = self.load_word(offset, ty)?;
                        stack.push(v);
                    }
                    ArgVal::Unit(u) => {
                        return Err(FortError::runtime(
                            HERE,
                            format!("unit name {u} used as a value"),
                        ))
                    }
                },
                Instr::StoreLocal { base, ty } => {
                    locals[*base as usize] = pop!().convert_to(*ty, HERE)?;
                }
                Instr::StoreShared { block, offset, ty } => {
                    let v = pop!().convert_to(*ty, HERE)?;
                    let off = self.shared_off(*block, *offset)?;
                    self.store_word(off, v.to_bits())?;
                }
                Instr::StoreArgScalar {
                    arg,
                    name,
                    declared,
                } => {
                    let value = pop!();
                    // Error parity: the tree-walker converts to the
                    // callee-declared type before dispatching on the
                    // binding (the result is then recomputed from the
                    // binding's own type).
                    value.convert_to(*declared, HERE)?;
                    let n = &cp.names[*name as usize];
                    match args[*arg as usize] {
                        ArgVal::Shared { offset, ty, dims } => {
                            if !dims.is_empty() {
                                return Err(FortError::runtime(
                                    HERE,
                                    format!("array argument {n} assigned without subscripts"),
                                ));
                            }
                            let v = value.convert_to(ty, HERE)?;
                            self.store_word(offset, v.to_bits())?;
                        }
                        ArgVal::Value(_) => {
                            return Err(FortError::runtime(
                                HERE,
                                format!("argument {n} was passed by value and is read-only"),
                            ))
                        }
                        ArgVal::Unit(_) => {
                            return Err(FortError::runtime(
                                HERE,
                                format!("cannot assign to unit name {n}"),
                            ))
                        }
                    }
                }
                Instr::Convert(ty) => {
                    let v = pop!().convert_to(*ty, HERE)?;
                    stack.push(v);
                }
                Instr::IdxCheck {
                    k,
                    dim,
                    stride,
                    name,
                } => {
                    let i = pop!().as_int(HERE)?;
                    let acc = pop!().as_int(HERE)?;
                    if i < 1 || i as u64 > *dim as u64 {
                        return Err(FortError::runtime(
                            HERE,
                            format!(
                                "subscript {} of {} is {i}, outside 1..{dim}",
                                *k as usize + 1,
                                &cp.names[*name as usize]
                            ),
                        ));
                    }
                    stack.push(Value::Int(acc + (i - 1) * *stride as i64));
                }
                Instr::IdxCheckArg { arg, k, name } => {
                    let i = pop!().as_int(HERE)?;
                    let acc = pop!().as_int(HERE)?;
                    let dims = match args[*arg as usize] {
                        ArgVal::Shared { dims, .. } => dims,
                        _ => unreachable!("checked by ArgElemCheck"),
                    };
                    let d = dims[*k as usize];
                    if i < 1 || i as usize > d {
                        return Err(FortError::runtime(
                            HERE,
                            format!(
                                "subscript {} of {} is {i}, outside 1..{d}",
                                *k as usize + 1,
                                &cp.names[*name as usize]
                            ),
                        ));
                    }
                    let stride: usize = dims[..*k as usize].iter().product();
                    stack.push(Value::Int(acc + (i - 1) * stride as i64));
                }
                Instr::ArgElemCheck { arg, nidx, name } => {
                    let n = &cp.names[*name as usize];
                    match args[*arg as usize] {
                        ArgVal::Shared { dims, .. } => {
                            if dims.is_empty() {
                                return Err(FortError::runtime(
                                    HERE,
                                    format!("scalar argument {n} was subscripted"),
                                ));
                            }
                            if *nidx as usize != dims.len() {
                                return Err(FortError::runtime(
                                    HERE,
                                    format!(
                                        "{n} has {} dimension(s) but {nidx} subscript(s) given",
                                        dims.len(),
                                    ),
                                ));
                            }
                        }
                        _ => {
                            return Err(FortError::runtime(
                                HERE,
                                format!("argument {n} is not an array reference"),
                            ))
                        }
                    }
                    stack.push(Value::Int(0));
                }
                Instr::LoadElemLocal { base } => {
                    let acc = pop!().as_int(HERE)? as usize;
                    stack.push(locals[*base as usize + acc]);
                }
                Instr::StoreElemLocal { base, ty } => {
                    let acc = pop!().as_int(HERE)? as usize;
                    let v = pop!().convert_to(*ty, HERE)?;
                    locals[*base as usize + acc] = v;
                }
                Instr::LoadElemShared { block, offset, ty } => {
                    let acc = pop!().as_int(HERE)? as usize;
                    let off = self.shared_off(*block, *offset)? + acc;
                    let v = self.load_word(off, *ty)?;
                    stack.push(v);
                }
                Instr::StoreElemShared { block, offset, ty } => {
                    let acc = pop!().as_int(HERE)? as usize;
                    let v = pop!().convert_to(*ty, HERE)?;
                    let off = self.shared_off(*block, *offset)? + acc;
                    self.store_word(off, v.to_bits())?;
                }
                Instr::LoadElemArg { arg } => {
                    let acc = pop!().as_int(HERE)? as usize;
                    let (offset, ty) = match args[*arg as usize] {
                        ArgVal::Shared { offset, ty, .. } => (offset, ty),
                        _ => unreachable!("checked by ArgElemCheck"),
                    };
                    let v = self.load_word(offset + acc, ty)?;
                    stack.push(v);
                }
                Instr::StoreElemArg { arg } => {
                    let acc = pop!().as_int(HERE)? as usize;
                    let v = pop!();
                    let (offset, ty) = match args[*arg as usize] {
                        ArgVal::Shared { offset, ty, .. } => (offset, ty),
                        _ => unreachable!("checked by ArgElemCheck"),
                    };
                    let v = v.convert_to(ty, HERE)?;
                    self.store_word(offset + acc, v.to_bits())?;
                }
                Instr::Neg => {
                    let v = match pop!() {
                        Value::Int(n) => Value::Int(n.wrapping_neg()),
                        Value::Real(x) => Value::Real(-x),
                        Value::Log(_) => {
                            return Err(FortError::runtime(HERE, "cannot negate a LOGICAL"))
                        }
                    };
                    stack.push(v);
                }
                Instr::Not => {
                    let b = pop!().as_log(HERE)?;
                    stack.push(Value::Log(!b));
                }
                Instr::Bin(op) => {
                    let b = pop!();
                    let a = stack.last_mut().expect("value stack underflow");
                    let inline = match (*a, b) {
                        (Value::Int(x), Value::Int(y)) => int_binop(*op, x, y),
                        _ => None,
                    };
                    *a = match inline {
                        Some(v) => v,
                        None => eval_binop(*op, *a, b, HERE)?,
                    };
                }
                Instr::CallFn { name, argc } => {
                    let split = stack.len() - *argc as usize;
                    let v = intrinsics::eval_function(
                        &cp.names[*name as usize],
                        &stack[split..],
                        HERE,
                        self.me,
                        self.np,
                    )?;
                    stack.truncate(split);
                    stack.push(v);
                }
                Instr::PrintStr(s) => parts.push(cp.names[*s as usize].to_string()),
                Instr::PrintVal => {
                    let v = pop!();
                    parts.push(v.display());
                }
                Instr::PrintFlush => {
                    self.rt
                        .prints
                        .lock()
                        .push(std::mem::take(&mut parts).join(" "));
                }
                Instr::Return => return Ok(Flow::Normal),
                Instr::Stop => return Ok(Flow::Stop),
                Instr::Fail(msg) => {
                    return Err(FortError::runtime(
                        HERE,
                        cp.names[*msg as usize].to_string(),
                    ))
                }

                Instr::ArgShared {
                    block,
                    offset,
                    ty,
                    dims,
                } => {
                    let off = self.shared_off(*block, *offset)?;
                    argstack.push(ArgVal::Shared {
                        offset: off,
                        ty: *ty,
                        dims: &cp.dims_tables[*dims as usize],
                    });
                }
                Instr::ArgSharedElem { block, offset, ty } => {
                    let acc = pop!().as_int(HERE)? as usize;
                    let off = self.shared_off(*block, *offset)? + acc;
                    argstack.push(ArgVal::Shared {
                        offset: off,
                        ty: *ty,
                        dims: &[],
                    });
                }
                Instr::ArgArgElem { arg } => {
                    let acc = pop!().as_int(HERE)? as usize;
                    let (offset, ty) = match args[*arg as usize] {
                        ArgVal::Shared { offset, ty, .. } => (offset, ty),
                        _ => unreachable!("checked by ArgElemCheck"),
                    };
                    argstack.push(ArgVal::Shared {
                        offset: offset + acc,
                        ty,
                        dims: &[],
                    });
                }
                Instr::ArgValue => {
                    let v = pop!();
                    argstack.push(ArgVal::Value(v));
                }
                Instr::ArgForward(i) => argstack.push(args[*i as usize]),
                Instr::ArgUnit(n) => argstack.push(ArgVal::Unit(&cp.names[*n as usize])),
                Instr::CallUser { unit, argc } => {
                    let split = argstack.len() - *argc as usize;
                    let callee = &cp.units[*unit as usize];
                    if callee.params != u16::from(*argc) {
                        return Err(FortError::runtime(
                            HERE,
                            format!(
                                "{} expects {} argument(s), got {argc}",
                                callee.name, callee.params,
                            ),
                        ));
                    }
                    let flow = self.exec(*unit as usize, &argstack[split..])?;
                    argstack.truncate(split);
                    if let Flow::Stop = flow {
                        return Ok(Flow::Stop);
                    }
                }

                Instr::SvcPlace { name, argn } => match argstack.pop().expect("service binding") {
                    ArgVal::Shared { offset, ty, .. } => places.push((offset, ty)),
                    _ => {
                        return Err(FortError::runtime(
                            HERE,
                            format!(
                                "{} argument {} must be a shared variable",
                                &cp.names[*name as usize],
                                *argn as usize + 1
                            ),
                        ))
                    }
                },
                Instr::SvcVendorCheck(kind) => {
                    check_vendor_locks(self.rt.engine.machine(), *kind, HERE)?;
                }
                Instr::Lock { kind, is_lock, at } => {
                    // The steps of the quartet this replaces, in its
                    // order: vendor check, bind, place, operate.  (An
                    // element or another argument passed the check
                    // already, in the `SvcVendorCheck` ahead of its
                    // binding; passing it again costs a comparison.)
                    check_vendor_locks(self.rt.engine.machine(), *kind, HERE)?;
                    let (offset, name) = match *at {
                        LockAt::Var {
                            block,
                            offset,
                            name,
                        } => (self.shared_off(block, offset)?, Some(name)),
                        LockAt::Elem { block, offset } => {
                            let acc = pop!().as_int(HERE)? as usize;
                            (self.shared_off(block, offset)? + acc, None)
                        }
                        LockAt::Place { name } => (places.pop().expect("service place").0, name),
                    };
                    let slot = self.lock_slot(offset)?;
                    let name = name.map(|i| &cp.names[i as usize]);
                    let lock = &self.locks[slot].1;
                    lock_service(self.rt, &mut self.holds, offset, lock, *is_lock, name, HERE)?;
                }
                Instr::SvcInitLock {
                    keep_locked,
                    user_pool,
                } => {
                    let (offset, _) = places.pop().expect("service place");
                    init_lock_service(self.rt, offset, *keep_locked, *user_pool);
                }
                Instr::SvcAini => {
                    let (f, _) = places.pop().expect("service place");
                    let (e, _) = places.pop().expect("service place");
                    aini_service(self.rt, e, f);
                }
                Instr::SvcVoidl => {
                    let (f, _) = places.pop().expect("service place");
                    let (e, _) = places.pop().expect("service place");
                    let e = self.lock_slot(e)?;
                    let e = Arc::clone(&self.locks[e].1.handle);
                    let f = self.lock_slot(f)?;
                    voidl_service(&e, &self.locks[f].1.handle);
                }
                Instr::SvcHwCheck => {
                    check_hardware_fe(self.rt.engine.machine(), HERE)?;
                }
                Instr::SvcHepProduce => {
                    let value = pop!();
                    let (offset, ty) = places.pop().expect("service place");
                    let tag = self.tag_at(offset);
                    self.shared_ref()?;
                    let (state, _) = self.shared.as_ref().expect("just resolved");
                    let _c = fault::enter(hep_construct("ZZHPRD"));
                    let v = value.convert_to(ty, HERE)?;
                    hep_produce(state, &self.tags[tag].1, offset, v.to_bits());
                }
                Instr::SvcHepConsume | Instr::SvcHepCopy => {
                    let copy = matches!(&code[*pc], Instr::SvcHepCopy);
                    let (offset, ty) = places.pop().expect("service place");
                    let tag = self.tag_at(offset);
                    self.shared_ref()?;
                    let (state, _) = self.shared.as_ref().expect("just resolved");
                    let tag = &self.tags[tag].1;
                    let _c = fault::enter(hep_construct(if copy { "ZZHCPY" } else { "ZZHCON" }));
                    let v = if copy {
                        hep_copy(state, tag, offset, ty)
                    } else {
                        hep_consume(state, tag, offset, ty)
                    };
                    stack.push(v);
                }
                Instr::SvcHepVoid => {
                    let (offset, _) = places.pop().expect("service place");
                    let tag = self.tag_at(offset);
                    self.shared_ref()?;
                    let _c = fault::enter(hep_construct("ZZHVD"));
                    self.tags[tag].1.void();
                }
                Instr::SvcStrt0 => strt0_service(self.rt, HERE)?,
                Instr::SvcLink => link_service(self.rt, HERE)?,
                Instr::SvcShpg => shpg_service(self.rt, HERE)?,
                Instr::SvcForkCheck(n) => {
                    check_fork_mnemonic(self.rt.engine.machine(), &cp.names[*n as usize], HERE)?;
                }
                Instr::Fork { unit } => {
                    let np = self.rt.run.plane().nproc();
                    let rt = self.rt;
                    let target = *unit as usize;
                    spawn_force(rt, HERE, &|pid| {
                        let mut p = VmProc::new(rt, cp, pid as i64, np as i64);
                        p.exec(target, &[]).map(|_| ())
                    })?;
                }
                Instr::SvcIsFullCheck(n) => {
                    check_isfull_machine(self.rt.engine.machine(), &cp.names[*n as usize], HERE)?;
                }
                Instr::IsFullValue(n) => {
                    let (offset, _) = places.pop().expect("service place");
                    let v = isfull_value(self.rt, &cp.names[*n as usize], offset, HERE)?;
                    stack.push(v);
                }
            }
            *pc += 1;
        }
        Ok(Flow::Normal)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::HashMap;

    use std::fmt::Write as _;

    use force_machdep::{Machine, MachineId};
    use force_prep::preprocess;

    use super::{compile, CompiledProgram, Instr, LockAt};
    use crate::engine::Engine;
    use crate::program::Program;

    thread_local! {
        /// The lines of the instructions this thread dispatched, while a
        /// test records them.
        static DISPATCHED: RefCell<Option<Vec<u32>>> = const { RefCell::new(None) };
    }

    pub(super) fn dispatched(line: u32) {
        DISPATCHED.with(|d| {
            if let Some(lines) = d.borrow_mut().as_mut() {
                lines.push(line);
            }
        });
    }

    /// A one-process run of `source` on `id` (driver and pid 0 both run
    /// on this thread): its expansion's lines, and how many instructions
    /// were dispatched on each.
    fn dispatches(source: &str, id: MachineId) -> (Vec<String>, HashMap<usize, usize>) {
        let expanded = preprocess(source, id).unwrap();
        let engine = Engine::from_expanded(&expanded, Machine::new(id)).unwrap();
        DISPATCHED.with(|d| *d.borrow_mut() = Some(Vec::new()));
        let run = engine.run(1);
        let lines = DISPATCHED
            .with(|d| d.borrow_mut().take())
            .expect("recording");
        run.unwrap_or_else(|e| panic!("{}: {e}", id.name()));
        let mut per_line = HashMap::new();
        for line in lines {
            *per_line.entry(line as usize).or_default() += 1;
        }
        let code = expanded.code.lines().map(str::to_string).collect();
        (code, per_line)
    }

    /// The instruction at `i` with every name id zeroed, and the names
    /// those ids stand for: a listing that does not depend on the order
    /// names were interned in.
    fn without_names(i: &Instr, cp: &CompiledProgram) -> (Instr, Vec<String>) {
        let mut i = i.clone();
        let mut ids = Vec::new();
        {
            let mut take = |id: &mut u32| ids.push(std::mem::take(id));
            match &mut i {
                Instr::LoadArgScalar { name, .. }
                | Instr::StoreArgScalar { name, .. }
                | Instr::IdxCheck { name, .. }
                | Instr::IdxCheckArg { name, .. }
                | Instr::ArgElemCheck { name, .. }
                | Instr::CallFn { name, .. }
                | Instr::SvcPlace { name, .. }
                | Instr::Lock {
                    at: LockAt::Var { name, .. } | LockAt::Place { name: Some(name) },
                    ..
                } => take(name),
                Instr::PrintStr(name)
                | Instr::Fail(name)
                | Instr::ArgUnit(name)
                | Instr::SvcForkCheck(name)
                | Instr::SvcIsFullCheck(name)
                | Instr::IsFullValue(name) => take(name),
                _ => {}
            }
        }
        let names = ids
            .iter()
            .map(|&id| cp.names[id as usize].to_string())
            .collect();
        (i, names)
    }

    /// Every unit of `cp`, an instruction a line with its source line and
    /// the names it refers to as text, then the tables the instructions
    /// index.
    fn listing(cp: &CompiledProgram) -> String {
        let mut out = String::new();
        for u in &cp.units {
            let _ = writeln!(
                out,
                "unit {} params {} frame {} init {:?}",
                u.name, u.params, u.frame_words, u.locals_init
            );
            for (i, line) in u.code.iter().zip(&u.lines) {
                let (i, names) = without_names(i, cp);
                let _ = writeln!(out, "  {line:>4} {i:?} {names:?}");
            }
        }
        let _ = writeln!(out, "blocks {:?}\ndims {:?}", cp.blocks, cp.dims_tables);
        out
    }

    /// The front-end corpus of `tests/support/corpus.rs`, the examples
    /// among them.
    const CORPUS: [(&str, &str); 14] = [
        ("sum", include_str!("../../../examples/force_src/sum.force")),
        (
            "dotprod",
            include_str!("../../../examples/force_src/dotprod.force"),
        ),
        (
            "pipeline",
            include_str!("../../../examples/force_src/pipeline.force"),
        ),
        (
            "ksum",
            include_str!("../../../tests/support/corpus/ksum.force"),
        ),
        (
            "fill",
            include_str!("../../../tests/support/corpus/fill.force"),
        ),
        (
            "ring",
            include_str!("../../../tests/support/corpus/ring.force"),
        ),
        (
            "sect",
            include_str!("../../../tests/support/corpus/sect.force"),
        ),
        (
            "grid",
            include_str!("../../../tests/support/corpus/grid.force"),
        ),
        (
            "subs",
            include_str!("../../../tests/support/corpus/subs.force"),
        ),
        (
            "sched",
            include_str!("../../../tests/support/corpus/sched.force"),
        ),
        (
            "do2",
            include_str!("../../../tests/support/corpus/do2.force"),
        ),
        (
            "pcase",
            include_str!("../../../tests/support/corpus/pcase.force"),
        ),
        (
            "async_scalar",
            include_str!("../../../tests/support/corpus/async_scalar.force"),
        ),
        (
            "async_array",
            include_str!("../../../tests/support/corpus/async_array.force"),
        ),
    ];

    /// FNV-1a, 64 bits.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The listing of every corpus program on every machine, digested.
    /// A change to how the front end builds the code — not to what code
    /// it builds — must leave it alone.  To see what moved, print
    /// `listing` for both sides and compare.
    #[test]
    fn the_compiled_corpus_is_pinned() {
        const PINNED: u64 = 0x800d_12f5_0206_2fe5;
        let mut all = String::new();
        for (name, source) in CORPUS {
            for id in MachineId::all() {
                let exp = preprocess(source, id).unwrap();
                let shared: HashMap<String, usize> = exp
                    .decls
                    .iter()
                    .filter(|d| d.class != force_prep::VarClass::Private)
                    .map(|d| (d.name.clone(), d.words()))
                    .collect();
                let program = Program::compile(&exp.code, &shared).unwrap();
                let _ = writeln!(all, "== {name} {}", id.name());
                all.push_str(&listing(&compile(&program)));
            }
        }
        let digest = fnv1a(all.as_bytes());
        assert_eq!(digest, PINNED, "compiled corpus digest {digest:#018x}");
    }

    /// What one trip of each macro idiom costs the VM, in instructions
    /// dispatched.  The pins may fall, never rise: a macro edit that
    /// stops an idiom from compiling to its fused form fails here, not
    /// only in the benchmark.  Before the fused forms they read 17 (18
    /// on the exit trip), 14, 4, 4 and 34; before the operand forms 4,
    /// 8, 1, 1, 22, 9 and 4.
    #[test]
    fn one_trip_of_each_idiom_dispatches_no_more_than_its_pin() {
        const PRESCHED_HEAD: usize = 1;
        const SELFSCHED_CLAIM: usize = 4;
        const CRITICAL_ENTER: usize = 1;
        const CRITICAL_EXIT: usize = 1;
        const FULL_BARRIER: usize = 10;
        const EMPTY_DO_TRIP: usize = 3;
        const SHARED_SUM: usize = 1;
        const TRIPS: usize = 5;
        let source = "\
      Force FMAIN of NP ident ME
      Shared INTEGER TOTAL
      Private INTEGER K, J, N
      End declarations
      Presched DO 10 J = 1, 5
      TOTAL = TOTAL + J
10    End presched DO
      Selfsched DO 100 K = 1, 5
      Critical LCK
      TOTAL = TOTAL + K
      End critical
100   End selfsched DO
      N = 5
      DO 20 K = 1, N
20    CONTINUE
      Join
";
        for id in MachineId::all() {
            let (code, per_line) = dispatches(source, id);
            let line = |text: &str| {
                1 + code
                    .iter()
                    .position(|l| l.contains(text))
                    .unwrap_or_else(|| panic!("no `{text}` in the expansion"))
            };
            let count = |first: usize, last: usize| -> usize {
                (first..=last).filter_map(|l| per_line.get(&l)).sum()
            };
            // At one process every trip is this process's, and the head
            // and the claim run once more to find the loop done.
            let head = line("IF (.NOT. (");
            let barrier = line("C prescheduled loop exit barrier");
            let idioms = [
                ("Presched head", count(head, head), TRIPS + 1, PRESCHED_HEAD),
                (
                    "Selfsched claim",
                    count(line("LCK(LOOP100)"), line("UNL(LOOP100)")),
                    TRIPS + 1,
                    SELFSCHED_CLAIM,
                ),
                (
                    "Critical enter",
                    count(line("LCK(LCK)"), line("LCK(LCK)")),
                    TRIPS,
                    CRITICAL_ENTER,
                ),
                (
                    "Critical exit",
                    count(line("UNL(LCK)"), line("UNL(LCK)")),
                    TRIPS,
                    CRITICAL_EXIT,
                ),
                (
                    "ZZFULLBAR",
                    count(barrier + 1, line("C loop entry code") - 1),
                    1,
                    FULL_BARRIER,
                ),
                (
                    "TOTAL = TOTAL + K",
                    count(line("TOTAL = TOTAL + K"), line("TOTAL = TOTAL + K")),
                    TRIPS,
                    SHARED_SUM,
                ),
                // The first value of `K` is one more dispatch, on the
                // head's line.
                (
                    "Empty DO",
                    count(line("DO 20 K"), line("20    CONTINUE")),
                    TRIPS + 1,
                    EMPTY_DO_TRIP,
                ),
            ];
            for (idiom, dispatched, trips, pin) in idioms {
                assert!(
                    dispatched <= pin * trips,
                    "{}: {idiom} dispatched {dispatched} instructions in {trips} trips, \
                     pinned at {pin} a trip",
                    id.name()
                );
            }
        }
    }
}
