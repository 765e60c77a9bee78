//! The reference interpreter: a tree-walker over the resolved
//! [`Program`], kept as the *oracle* the differential tests compare the
//! production executor (the bytecode VM, [`crate::bytecode`]) against.
//!
//! It lowers each unit's statements to its own op form ([`Op`]): block
//! `IF`/`ELSE`/`END IF` and both `DO` forms become conditional jumps,
//! labels map to op indices, and `GO TO` is a direct jump — exactly the
//! control flow the Force macro expansions rely on.  Nothing else walks
//! ops: the VM's load compiles instructions from the statements.  The
//! oracle re-resolves every name against the unit's symbol table on
//! every access and re-walks the expression tree on every evaluation —
//! slow, and as close to the language definition as code gets.  Nothing on the
//! serve path names this module: an [`Engine`] runs a program exactly one
//! way, and an [`Oracle`] is something a test builds next to it.
//!
//! The oracle owns its AST and an ordinary [`Engine`] session.  A run
//! goes through that session's one run routine (reset, ambient stats,
//! runtime state, observables) and every ZZ* mnemonic through the one
//! service layer in [`crate::engine`]; only the closure that executes
//! the driver unit differs, so the two executors cannot drift in
//! anything but evaluation itself.

use std::cell::RefCell;
use std::sync::Arc;

use force_machdep::{fault, Machine, RunOptions};
use force_prep::ExpandedProgram;

use crate::ast::{BinOp, Expr, LValue, Stmt, Ty, UnOp};
use crate::engine::{
    aini_service, check_fork_mnemonic, check_hardware_fe, check_isfull_machine, check_vendor_locks,
    eval_binop, hep_construct, hep_consume, hep_copy, hep_produce, init_lock_service, isfull_value,
    link_service, lock_mnemonic, lock_service, shpg_service, spawn_force, strt0_service,
    voidl_service, ArgVal, Engine, Flow, PooledHolds, Rt, RunOutput,
};
use crate::error::FortError;
use crate::intrinsics;
use crate::program::{Program, Storage, Symbol, Unit};
use crate::token::Name;
use crate::value::Value;

/// A program loaded for the reference interpreter.
pub struct Oracle {
    /// The resolved program the tree-walker executes; the oracle's own.
    program: Program,
    /// Each unit's ops, in the order of `program.units`.
    code: Vec<Code>,
    /// The session the runs go through (shared region, lock and tag
    /// tables, fault plane, pool) — the same type the serve path uses.
    engine: Engine,
}

impl Oracle {
    /// Load a preprocessed program onto a machine, as
    /// [`Engine::from_expanded`] does, and parse the AST to walk.
    pub fn from_expanded(
        exp: &ExpandedProgram,
        machine: Arc<Machine>,
    ) -> Result<Oracle, FortError> {
        let engine = Engine::from_expanded(exp, machine)?;
        let program = Program::compile(&exp.code, &engine.shared_names())?;
        let code = program.units.iter().map(lower).collect();
        Ok(Oracle {
            program,
            code,
            engine,
        })
    }

    /// The underlying session, for what is configured or read on it
    /// (`set_pool`, `fault_plane`, `last_job_profile`, …).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Run the driver under the tree-walker with explicit per-run
    /// options: [`Engine::run_with`] with the other executor.
    pub fn run_with(&self, nproc: usize, options: RunOptions) -> Result<RunOutput, FortError> {
        self.engine.run_driver(nproc, options, |rt, driver| {
            let proc = Proc::new(rt, &self.program, &self.code, -1, nproc as i64);
            let driver = self.program.names.get(driver);
            let driver = driver.and_then(|d| proc.unit_index(d)).expect("driver unit");
            proc.exec(driver, Vec::new()).map(|_| ())
        })
    }
}

/// One interpreter process.
struct Proc<'r, 'e> {
    rt: &'r Rt<'e>,
    program: &'r Program,
    code: &'r [Code],
    me: i64,
    np: i64,
    /// The pooled user locks this process holds.
    holds: RefCell<PooledHolds<'e>>,
}

/// Per-call frame.
struct Frame<'u> {
    unit: &'u Unit,
    locals: Vec<Value>,
    args: Vec<ArgVal<'u>>,
}

impl<'u> Frame<'u> {
    fn new(unit: &'u Unit, args: Vec<ArgVal<'u>>) -> Frame<'u> {
        let mut locals = vec![Value::Int(0); unit.frame_words];
        for (_, sym) in unit.symbols.iter() {
            if let Storage::Local { base } = sym.storage {
                for w in 0..sym.words() {
                    locals[base + w] = Value::zero(sym.ty);
                }
            }
        }
        Frame { unit, locals, args }
    }
}

impl<'r, 'e> Proc<'r, 'e> {
    fn new(rt: &'r Rt<'e>, program: &'r Program, code: &'r [Code], me: i64, np: i64) -> Self {
        Proc {
            rt,
            program,
            code,
            me,
            np,
            holds: RefCell::new(PooledHolds::new(rt)),
        }
    }

    /// The index of unit `name`, if it is one.
    fn unit_index(&self, name: Name) -> Option<usize> {
        self.program.units.iter().position(|u| u.name == name)
    }

    /// The text of `name`.
    fn text(&self, name: Name) -> &'r str {
        self.program.name(name)
    }

    /// Execute unit `u` to completion.
    fn exec(&self, u: usize, args: Vec<ArgVal<'r>>) -> Result<Flow, FortError> {
        let code = &self.code[u];
        let mut frame = Frame::new(&self.program.units[u], args);
        let mut pc = 0usize;
        while pc < code.ops.len() {
            let line = code.op_lines[pc];
            match &code.ops[pc] {
                Op::Nop => pc += 1,
                Op::Jump(t) => pc = *t,
                Op::JumpIfFalse(cond, t) => {
                    if self.eval(&mut frame, cond, line)?.as_log(line)? {
                        pc += 1;
                    } else {
                        pc = *t;
                    }
                }
                Op::Assign(lhs, rhs) => {
                    let v = self.eval(&mut frame, rhs, line)?;
                    self.assign(&mut frame, lhs, v, line)?;
                    pc += 1;
                }
                Op::Print(items) => {
                    let mut parts = Vec::with_capacity(items.len());
                    for it in items {
                        match it {
                            Expr::Str(s) => parts.push(self.text(*s).to_string()),
                            e => parts.push(self.eval(&mut frame, e, line)?.display()),
                        }
                    }
                    self.rt.prints.lock().push(parts.join(" "));
                    pc += 1;
                }
                Op::Return => return Ok(Flow::Normal),
                Op::Stop => return Ok(Flow::Stop),
                Op::Call(name, call_args) => match self.call(&mut frame, *name, call_args, line)? {
                    Flow::Stop => return Ok(Flow::Stop),
                    Flow::Normal => pc += 1,
                },
            }
        }
        Ok(Flow::Normal)
    }

    // ---- calls ---------------------------------------------------------

    fn call(
        &self,
        frame: &mut Frame<'r>,
        name: Name,
        args: &'r [Expr],
        line: usize,
    ) -> Result<Flow, FortError> {
        if let Some(u) = self.unit_index(name) {
            let mut bound = Vec::with_capacity(args.len());
            for a in args {
                bound.push(self.bind_arg(frame, a, line)?);
            }
            let unit = &self.program.units[u];
            if unit.params.len() != bound.len() {
                return Err(FortError::runtime(
                    line,
                    format!(
                        "{} expects {} argument(s), got {}",
                        self.text(name),
                        unit.params.len(),
                        bound.len()
                    ),
                ));
            }
            return self.exec(u, bound);
        }
        self.intrinsic_call(frame, name, args, line)
    }

    /// Bind one actual argument.
    fn bind_arg<'a>(
        &self,
        frame: &mut Frame<'r>,
        arg: &'a Expr,
        line: usize,
    ) -> Result<ArgVal<'a>, FortError>
    where
        'r: 'a,
    {
        match arg {
            Expr::Var(n) => {
                let n = *n;
                if self.unit_index(n).is_some() {
                    return Ok(ArgVal::Unit(self.text(n)));
                }
                let text = self.text(n);
                match frame.unit.symbols.get(n) {
                    Some(sym) => match &sym.storage {
                        Storage::Shared { block, offset } => {
                            let base = self.block_base(*block, line)?;
                            Ok(ArgVal::Shared {
                                offset: base + offset,
                                ty: sym.ty,
                                dims: &sym.dims,
                            })
                        }
                        Storage::Local { base } => {
                            if sym.dims.is_empty() {
                                Ok(ArgVal::Value(frame.locals[*base]))
                            } else {
                                Err(FortError::runtime(
                                    line,
                                    format!("cannot pass private array {text} by reference"),
                                ))
                            }
                        }
                        Storage::PseudoMe => Ok(ArgVal::Value(Value::Int(self.me))),
                        Storage::PseudoNp => Ok(ArgVal::Value(Value::Int(self.np))),
                        Storage::Arg(i) => Ok(frame.args[*i]),
                    },
                    None => Err(FortError::runtime(line, format!("unknown variable {text}"))),
                }
            }
            Expr::Index(n, idx) => {
                // Element reference if n is an array symbol; otherwise an
                // expression value.
                let is_array = frame
                    .unit
                    .symbols
                    .get(*n)
                    .is_some_and(|s| !s.dims.is_empty());
                if is_array {
                    let (offset, ty) = self.array_elem(frame, *n, idx, line)?;
                    match offset {
                        ElemPlace::Shared(o) => Ok(ArgVal::Shared {
                            offset: o,
                            ty,
                            dims: &[],
                        }),
                        ElemPlace::Local(slot) => Ok(ArgVal::Value(frame.locals[slot])),
                    }
                } else {
                    Ok(ArgVal::Value(self.eval(frame, arg, line)?))
                }
            }
            other => Ok(ArgVal::Value(self.eval(frame, other, line)?)),
        }
    }

    // ---- runtime services (the machine layer's intrinsic subroutines) ----

    fn intrinsic_call(
        &self,
        frame: &mut Frame<'r>,
        name: Name,
        args: &'r [Expr],
        line: usize,
    ) -> Result<Flow, FortError> {
        let name = self.text(name);
        let machine = self.rt.engine.machine();
        if let Some((kind, is_lock)) = lock_mnemonic(name) {
            check_vendor_locks(machine, kind, line)?;
            let offset = self.shared_offset_arg(frame, args, 0, name, line)?;
            let var_name = match args.first() {
                Some(Expr::Var(n)) => Some(self.text(*n)),
                _ => None,
            };
            let lock = self.rt.resolve_lock(offset, line)?;
            let mut holds = self.holds.borrow_mut();
            lock_service(self.rt, &mut holds, offset, &lock, is_lock, var_name, line)?;
            return Ok(Flow::Normal);
        }
        match name {
            "ZZINITL" | "ZZINITK" | "ZZINITU" => {
                let offset = self.shared_offset_arg(frame, args, 0, name, line)?;
                init_lock_service(self.rt, offset, name == "ZZINITK", name == "ZZINITU");
                Ok(Flow::Normal)
            }
            "ZZAINI" => {
                let e = self.shared_offset_arg(frame, args, 0, name, line)?;
                let f = self.shared_offset_arg(frame, args, 1, name, line)?;
                aini_service(self.rt, e, f);
                Ok(Flow::Normal)
            }
            "ZZVOIDL" => {
                let e_off = self.shared_offset_arg(frame, args, 0, name, line)?;
                let f_off = self.shared_offset_arg(frame, args, 1, name, line)?;
                let e = self.rt.lock_handle(e_off, line)?;
                voidl_service(&e, &self.rt.lock_handle(f_off, line)?);
                Ok(Flow::Normal)
            }
            "ZZHPRD" | "ZZHCON" | "ZZHVD" | "ZZHCPY" => {
                check_hardware_fe(machine, line)?;
                let (offset, ty) = self.shared_place_arg(frame, args, 0, name, line)?;
                let tag = self.rt.tag_handle(offset);
                let state = self.rt.shared(line)?;
                let _c = fault::enter(hep_construct(name));
                match name {
                    "ZZHPRD" => {
                        let v = self.eval(frame, &args[1], line)?.convert_to(ty, line)?;
                        hep_produce(&state, &tag, offset, v.to_bits());
                    }
                    "ZZHCON" => {
                        let v = hep_consume(&state, &tag, offset, ty);
                        let dest = lvalue_of(&args[1], line)?;
                        self.assign(frame, &dest, v, line)?;
                    }
                    "ZZHCPY" => {
                        let v = hep_copy(&state, &tag, offset, ty);
                        let dest = lvalue_of(&args[1], line)?;
                        self.assign(frame, &dest, v, line)?;
                    }
                    "ZZHVD" => tag.void(),
                    _ => unreachable!(),
                }
                Ok(Flow::Normal)
            }
            "ZZSTRT0" => {
                strt0_service(self.rt, line)?;
                Ok(Flow::Normal)
            }
            "ZZLINK" => {
                link_service(self.rt, line)?;
                Ok(Flow::Normal)
            }
            "ZZSHPG" => {
                shpg_service(self.rt, line)?;
                Ok(Flow::Normal)
            }
            "ZZFORKJ" | "ZZSFORK" | "ZZSPAWN" => {
                check_fork_mnemonic(machine, name, line)?;
                let unit = match args.first() {
                    Some(Expr::Var(n)) => self.unit_index(*n),
                    _ => None,
                };
                let Some(unit) = unit else {
                    return Err(FortError::runtime(
                        line,
                        format!("{name} needs a program unit to execute"),
                    ));
                };
                let np = self.rt.run.plane().nproc();
                spawn_force(self.rt, line, &|pid| {
                    let p = Proc::new(self.rt, self.program, self.code, pid as i64, np as i64);
                    p.exec(unit, Vec::new()).map(|_| ())
                })?;
                Ok(Flow::Normal)
            }
            other => Err(FortError::runtime(
                line,
                format!("CALL to unknown subroutine `{other}`"),
            )),
        }
    }

    /// Resolve intrinsic argument `i` to a shared word offset.
    fn shared_offset_arg(
        &self,
        frame: &mut Frame<'r>,
        args: &[Expr],
        i: usize,
        name: &str,
        line: usize,
    ) -> Result<usize, FortError> {
        self.shared_place_arg(frame, args, i, name, line)
            .map(|(o, _)| o)
    }

    /// Resolve intrinsic argument `i` to shared storage (offset + type).
    fn shared_place_arg(
        &self,
        frame: &mut Frame<'r>,
        args: &[Expr],
        i: usize,
        name: &str,
        line: usize,
    ) -> Result<(usize, Ty), FortError> {
        let arg = args.get(i).ok_or_else(|| {
            FortError::runtime(line, format!("{name} is missing argument {}", i + 1))
        })?;
        match self.bind_arg(frame, arg, line)? {
            ArgVal::Shared { offset, ty, .. } => Ok((offset, ty)),
            _ => Err(FortError::runtime(
                line,
                format!("{name} argument {} must be a shared variable", i + 1),
            )),
        }
    }

    fn block_base(&self, block: Name, line: usize) -> Result<usize, FortError> {
        let block = self.text(block);
        let state = self.rt.shared(line)?;
        state
            .bases
            .get(block)
            .copied()
            .ok_or_else(|| FortError::runtime(line, format!("unknown shared block {block}")))
    }

    // ---- expression evaluation -------------------------------------------

    fn eval(&self, frame: &mut Frame<'r>, expr: &Expr, line: usize) -> Result<Value, FortError> {
        match expr {
            Expr::Int(n) => Ok(Value::Int(*n)),
            Expr::Real(x) => Ok(Value::Real(*x)),
            Expr::Logical(b) => Ok(Value::Log(*b)),
            Expr::Str(_) => Err(FortError::runtime(
                line,
                "character data are only allowed in PRINT lists",
            )),
            Expr::Var(n) => self.read_scalar(frame, *n, line),
            Expr::Index(n, idx) => {
                let (n, text) = (*n, self.text(*n));
                let is_array = frame
                    .unit
                    .symbols
                    .get(n)
                    .is_some_and(|s| !s.dims.is_empty());
                if is_array {
                    let (place, ty) = self.array_elem(frame, n, idx, line)?;
                    match place {
                        ElemPlace::Shared(o) => {
                            let state = self.rt.shared(line)?;
                            Ok(Value::from_bits(state.region.load_raw(o), ty))
                        }
                        ElemPlace::Local(slot) => Ok(frame.locals[slot]),
                    }
                } else if frame.unit.symbols.contains(n) {
                    Err(FortError::runtime(
                        line,
                        format!("{text} is a scalar but was subscripted"),
                    ))
                } else if text == "ZZISFL" || text == "ZZHISF" {
                    // Full/empty state test (§3.4): needs the *address* of
                    // its argument, not its value.
                    self.eval_isfull(frame, text, idx, line)
                } else {
                    let mut vals = Vec::with_capacity(idx.len());
                    for a in idx {
                        vals.push(self.eval(frame, a, line)?);
                    }
                    intrinsics::eval_function(text, &vals, line, self.me, self.np)
                }
            }
            Expr::Un(op, a) => {
                let v = self.eval(frame, a, line)?;
                match op {
                    UnOp::Neg => match v {
                        Value::Int(n) => Ok(Value::Int(n.wrapping_neg())),
                        Value::Real(x) => Ok(Value::Real(-x)),
                        Value::Log(_) => Err(FortError::runtime(line, "cannot negate a LOGICAL")),
                    },
                    UnOp::Not => Ok(Value::Log(!v.as_log(line)?)),
                }
            }
            Expr::Bin(op, a, b) => {
                let va = self.eval(frame, a, line)?;
                let vb = self.eval(frame, b, line)?;
                eval_binop(*op, va, vb, line)
            }
        }
    }

    /// `ZZISFL(XZZE)` / `ZZHISF(X)`: test an asynchronous variable's
    /// full/empty state.  A snapshot — the state may change immediately
    /// after, exactly as on the original machines.
    fn eval_isfull(
        &self,
        frame: &mut Frame<'r>,
        name: &str,
        args: &[Expr],
        line: usize,
    ) -> Result<Value, FortError> {
        check_isfull_machine(self.rt.engine.machine(), name, line)?;
        let (offset, _ty) = self.shared_place_arg(frame, args, 0, name, line)?;
        isfull_value(self.rt, name, offset, line)
    }

    fn read_scalar(&self, frame: &Frame<'_>, n: Name, line: usize) -> Result<Value, FortError> {
        let name = self.text(n);
        let sym = frame
            .unit
            .symbols
            .get(n)
            .ok_or_else(|| FortError::runtime(line, format!("unknown variable {name}")))?;
        if !sym.dims.is_empty() {
            return Err(FortError::runtime(
                line,
                format!("array {name} used without subscripts"),
            ));
        }
        match &sym.storage {
            Storage::Local { base } => Ok(frame.locals[*base]),
            Storage::Shared { block, offset } => {
                let base = self.block_base(*block, line)?;
                let state = self.rt.shared(line)?;
                Ok(Value::from_bits(
                    state.region.load_raw(base + offset),
                    sym.ty,
                ))
            }
            Storage::PseudoMe => Ok(Value::Int(self.me)),
            Storage::PseudoNp => Ok(Value::Int(self.np)),
            Storage::Arg(i) => match &frame.args[*i] {
                ArgVal::Value(v) => Ok(*v),
                ArgVal::Shared { offset, ty, dims } => {
                    if !dims.is_empty() {
                        return Err(FortError::runtime(
                            line,
                            format!("array argument {name} used without subscripts"),
                        ));
                    }
                    let state = self.rt.shared(line)?;
                    Ok(Value::from_bits(state.region.load_raw(*offset), *ty))
                }
                ArgVal::Unit(u) => Err(FortError::runtime(
                    line,
                    format!("unit name {u} used as a value"),
                )),
            },
        }
    }

    // ---- assignment ----------------------------------------------------------

    fn assign(
        &self,
        frame: &mut Frame<'r>,
        lhs: &LValue,
        value: Value,
        line: usize,
    ) -> Result<(), FortError> {
        match lhs {
            LValue::Name(n) => {
                let (sym, n) = (frame.unit.symbols.get(*n).copied(), self.text(*n));
                let sym =
                    sym.ok_or_else(|| FortError::runtime(line, format!("unknown variable {n}")))?;
                if !sym.dims.is_empty() {
                    return Err(FortError::runtime(
                        line,
                        format!("array {n} assigned without subscripts"),
                    ));
                }
                let v = value.convert_to(sym.ty, line)?;
                match &sym.storage {
                    Storage::Local { base } => {
                        frame.locals[*base] = v;
                        Ok(())
                    }
                    Storage::Shared { block, offset } => {
                        let base = self.block_base(*block, line)?;
                        let state = self.rt.shared(line)?;
                        state.region.store_raw(base + offset, v.to_bits());
                        Ok(())
                    }
                    Storage::PseudoMe | Storage::PseudoNp => Err(FortError::runtime(
                        line,
                        format!("{n} (process environment) is read-only"),
                    )),
                    Storage::Arg(i) => match &frame.args[*i] {
                        ArgVal::Shared { offset, ty, dims } => {
                            if !dims.is_empty() {
                                return Err(FortError::runtime(
                                    line,
                                    format!("array argument {n} assigned without subscripts"),
                                ));
                            }
                            let v = value.convert_to(*ty, line)?;
                            let state = self.rt.shared(line)?;
                            state.region.store_raw(*offset, v.to_bits());
                            Ok(())
                        }
                        ArgVal::Value(_) => Err(FortError::runtime(
                            line,
                            format!("argument {n} was passed by value and is read-only"),
                        )),
                        ArgVal::Unit(_) => Err(FortError::runtime(
                            line,
                            format!("cannot assign to unit name {n}"),
                        )),
                    },
                }
            }
            LValue::Elem(n, idx) => {
                let (place, ty) = self.array_elem(frame, *n, idx, line)?;
                let v = value.convert_to(ty, line)?;
                match place {
                    ElemPlace::Shared(o) => {
                        let state = self.rt.shared(line)?;
                        state.region.store_raw(o, v.to_bits());
                    }
                    ElemPlace::Local(slot) => frame.locals[slot] = v,
                }
                Ok(())
            }
        }
    }

    /// Resolve an array element to its storage place.
    fn array_elem(
        &self,
        frame: &mut Frame<'r>,
        n: Name,
        idx: &[Expr],
        line: usize,
    ) -> Result<(ElemPlace, Ty), FortError> {
        let name = self.text(n);
        let sym: Symbol = *frame
            .unit
            .symbols
            .get(n)
            .ok_or_else(|| FortError::runtime(line, format!("unknown array {name}")))?;
        let (dims, ty) = (&sym.dims, sym.ty);
        // Arg-bound arrays carry their own dims.
        if let Storage::Arg(i) = sym.storage {
            let arg = frame.args[i];
            return match arg {
                ArgVal::Shared { offset, ty, dims } => {
                    if dims.is_empty() {
                        return Err(FortError::runtime(
                            line,
                            format!("scalar argument {name} was subscripted"),
                        ));
                    }
                    let off = self.elem_offset(frame, dims, idx, name, line)?;
                    Ok((ElemPlace::Shared(offset + off), ty))
                }
                _ => Err(FortError::runtime(
                    line,
                    format!("argument {name} is not an array reference"),
                )),
            };
        }
        if dims.is_empty() {
            return Err(FortError::runtime(
                line,
                format!("{name} is a scalar but was subscripted"),
            ));
        }
        let off = self.elem_offset(frame, dims, idx, name, line)?;
        match &sym.storage {
            Storage::Local { base } => Ok((ElemPlace::Local(base + off), ty)),
            Storage::Shared { block, offset } => {
                let base = self.block_base(*block, line)?;
                Ok((ElemPlace::Shared(base + offset + off), ty))
            }
            _ => unreachable!("array storage"),
        }
    }

    /// Column-major, 1-based element offset with bounds checking.
    fn elem_offset(
        &self,
        frame: &mut Frame<'r>,
        dims: &[usize],
        idx: &[Expr],
        name: &str,
        line: usize,
    ) -> Result<usize, FortError> {
        if idx.len() != dims.len() {
            return Err(FortError::runtime(
                line,
                format!(
                    "{name} has {} dimension(s) but {} subscript(s) given",
                    dims.len(),
                    idx.len()
                ),
            ));
        }
        let mut off = 0usize;
        let mut stride = 1usize;
        for (k, (e, &d)) in idx.iter().zip(dims.iter()).enumerate() {
            let i = self.eval(frame, e, line)?.as_int(line)?;
            if i < 1 || i as usize > d {
                return Err(FortError::runtime(
                    line,
                    format!("subscript {} of {name} is {i}, outside 1..{d}", k + 1),
                ));
            }
            off += (i as usize - 1) * stride;
            stride *= d;
        }
        Ok(off)
    }
}

/// Storage place of one array element.
enum ElemPlace {
    Shared(usize),
    Local(usize),
}

/// Interpret an expression as an assignment target (for ZZHCON etc.).
fn lvalue_of(e: &Expr, line: usize) -> Result<LValue, FortError> {
    match e {
        Expr::Var(n) => Ok(LValue::Name(*n)),
        Expr::Index(n, idx) => Ok(LValue::Elem(*n, idx.clone())),
        _ => Err(FortError::runtime(line, "destination must be a variable")),
    }
}

// ---- the op form -------------------------------------------------------

/// One executable operation.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// Evaluate and store.
    Assign(LValue, Expr),
    /// Jump to the target if the condition is false.
    JumpIfFalse(Expr, usize),
    /// Unconditional jump.
    Jump(usize),
    /// Subroutine call (user unit or intrinsic).
    Call(Name, Vec<Expr>),
    /// List-directed print.
    Print(Vec<Expr>),
    /// Return from the unit.
    Return,
    /// Stop the process.
    Stop,
    /// No operation (labels, CONTINUE).
    Nop,
}

/// One unit's ops, with resolved jump targets.
#[derive(Debug)]
struct Code {
    ops: Vec<Op>,
    /// Source line of each op (diagnostics).
    op_lines: Vec<usize>,
}

struct DoFrame {
    terminal: Option<u32>,
    var: Name,
    step: Expr,
    head: usize,
    exit_patch: usize,
}

struct IfFrame {
    false_patch: usize,
    end_patches: Vec<usize>,
}

/// Lower a unit's statements to ops.  [`Program::compile`] checked the
/// unit's control flow, so every block closes and every label lands.
fn lower(unit: &Unit) -> Code {
    let mut code = Code {
        ops: Vec::with_capacity(unit.body.len() + 1),
        op_lines: Vec::with_capacity(unit.body.len() + 1),
    };
    let mut labels: Vec<(u32, usize)> = Vec::new();
    let mut gotos: Vec<(usize, u32)> = Vec::new(); // (op idx, label)
    let mut if_stack: Vec<IfFrame> = Vec::new();
    let mut do_stack: Vec<DoFrame> = Vec::new();

    // Hidden loop-variable names are not needed: DO re-evaluates bounds,
    // which we document as a (benign) deviation from F77 trip counts.

    for line in &unit.body {
        let line_no = line.line_no;
        if let Some(label) = line.label {
            labels.push((label, code.ops.len()));
        }
        emit_stmt(
            &line.stmt,
            line_no,
            &mut code,
            &mut gotos,
            &mut if_stack,
            &mut do_stack,
        );
        // Close labeled DO loops terminating at this line.
        while line.label.is_some() && do_stack.last().map(|f| f.terminal) == Some(line.label) {
            let frame = do_stack.pop().expect("frame present");
            emit_do_close(frame, &mut code, line_no);
        }
    }

    // Implicit return at unit end.
    let last_line = unit.body.last().map(|l| l.line_no).unwrap_or(0);
    code.ops.push(Op::Return);
    code.op_lines.push(last_line);

    // Resolve GOTOs.
    for (op_idx, label) in gotos {
        let &(_, target) = labels
            .iter()
            .find(|&&(l, _)| l == label)
            .expect("checked when resolved");
        patch(&mut code.ops, op_idx, target);
    }
    code
}

/// Emit ops for one statement.
fn emit_stmt(
    stmt: &Stmt,
    line_no: usize,
    code: &mut Code,
    gotos: &mut Vec<(usize, u32)>,
    if_stack: &mut Vec<IfFrame>,
    do_stack: &mut Vec<DoFrame>,
) {
    let push = |op: Op, code: &mut Code| {
        code.ops.push(op);
        code.op_lines.push(line_no);
    };
    match stmt {
        Stmt::Decl { .. } | Stmt::Common { .. } => {
            // declarations emit a placeholder so labels on them still work
            push(Op::Nop, code);
        }
        Stmt::Continue => push(Op::Nop, code),
        Stmt::Assign { lhs, rhs } => push(Op::Assign(lhs.clone(), rhs.clone()), code),
        Stmt::Call { name, args } => push(Op::Call(*name, args.clone()), code),
        Stmt::Print(items) => push(Op::Print(items.clone()), code),
        Stmt::Return => push(Op::Return, code),
        Stmt::Stop => push(Op::Stop, code),
        Stmt::Goto(l) => {
            gotos.push((code.ops.len(), *l));
            push(Op::Jump(usize::MAX), code);
        }
        Stmt::ArithIf(e, l_neg, l_zero, l_pos) => {
            // Branch on sign.  The expression is evaluated up to twice;
            // expressions in this subset are side-effect free.
            let sign = |rel| Expr::Bin(rel, Box::new(e.clone()), Box::new(Expr::Int(0)));
            for (rel, label) in [(BinOp::Lt, *l_neg), (BinOp::Eq, *l_zero)] {
                // if !(e rel 0) skip over the jump
                let skip = code.ops.len();
                push(Op::JumpIfFalse(sign(rel), usize::MAX), code);
                gotos.push((code.ops.len(), label));
                push(Op::Jump(usize::MAX), code);
                let here = code.ops.len();
                patch(&mut code.ops, skip, here);
            }
            gotos.push((code.ops.len(), *l_pos));
            push(Op::Jump(usize::MAX), code);
        }
        Stmt::IfThen(cond) => {
            if_stack.push(IfFrame {
                false_patch: code.ops.len(),
                end_patches: Vec::new(),
            });
            push(Op::JumpIfFalse(cond.clone(), usize::MAX), code);
        }
        Stmt::ElseIf(cond) => {
            let frame = if_stack.last_mut().expect("checked when resolved");
            // end-jump for the previous arm
            frame.end_patches.push(code.ops.len());
            push(Op::Jump(usize::MAX), code);
            // previous false branch lands here
            let here = code.ops.len();
            patch(&mut code.ops, frame.false_patch, here);
            frame.false_patch = code.ops.len();
            push(Op::JumpIfFalse(cond.clone(), usize::MAX), code);
        }
        Stmt::Else => {
            let frame = if_stack.last_mut().expect("checked when resolved");
            frame.end_patches.push(code.ops.len());
            push(Op::Jump(usize::MAX), code);
            let here = code.ops.len();
            patch(&mut code.ops, frame.false_patch, here);
            // no pending false branch: END IF patches only the end jumps
            frame.false_patch = usize::MAX;
        }
        Stmt::EndIf => {
            let frame = if_stack.pop().expect("checked when resolved");
            let here = code.ops.len();
            if frame.false_patch != usize::MAX {
                patch(&mut code.ops, frame.false_patch, here);
            }
            for p in frame.end_patches {
                patch(&mut code.ops, p, here);
            }
            push(Op::Nop, code);
        }
        Stmt::LogicalIf(cond, inner) => {
            let patch_idx = code.ops.len();
            push(Op::JumpIfFalse(cond.clone(), usize::MAX), code);
            emit_stmt(inner, line_no, code, gotos, if_stack, do_stack);
            let here = code.ops.len();
            patch(&mut code.ops, patch_idx, here);
        }
        Stmt::Do {
            label,
            var,
            from,
            to,
            step,
        } => {
            let step = step.clone().unwrap_or(Expr::Int(1));
            push(Op::Assign(LValue::Name(*var), from.clone()), code);
            let head = code.ops.len();
            let cond = Expr::do_condition(*var, to, &step);
            push(Op::JumpIfFalse(cond, usize::MAX), code);
            do_stack.push(DoFrame {
                terminal: *label,
                var: *var,
                step,
                head,
                exit_patch: head,
            });
        }
        Stmt::EndDo => {
            let frame = do_stack.pop().expect("checked when resolved");
            emit_do_close(frame, code, line_no);
        }
        Stmt::Program(_) | Stmt::Subroutine(_, _) | Stmt::EndUnit => {
            unreachable!("checked when resolved: no unit header inside a unit body")
        }
    }
}

fn emit_do_close(frame: DoFrame, code: &mut Code, line_no: usize) {
    let DoFrame {
        var,
        step,
        head,
        exit_patch,
        ..
    } = frame;
    code.ops.push(Op::Assign(
        LValue::Name(var),
        Expr::Bin(BinOp::Add, Box::new(Expr::Var(var)), Box::new(step)),
    ));
    code.op_lines.push(line_no);
    code.ops.push(Op::Jump(head));
    code.op_lines.push(line_no);
    let here = code.ops.len();
    patch(&mut code.ops, exit_patch, here);
}

fn patch(ops: &mut [Op], idx: usize, target: usize) {
    match &mut ops[idx] {
        Op::Jump(t) | Op::JumpIfFalse(_, t) => *t = target,
        other => unreachable!("patch on {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    /// The ops of unit `A` of `src`.
    fn ops(src: &str) -> Vec<Op> {
        let p = Program::compile(src, &HashMap::new()).unwrap();
        lower(p.unit("A").unwrap()).ops
    }

    #[test]
    fn block_if_compiles_to_jumps() {
        let ops = ops(
            "      SUBROUTINE A\n      IF (X .GT. 0) THEN\n      Y = 1\n      ELSE\n      Y = 2\n      END IF\n      END\n",
        );
        // JumpIfFalse, Assign, Jump, Assign, Nop(endif), Return
        assert!(matches!(ops[0], Op::JumpIfFalse(_, 3)));
        assert!(matches!(ops[2], Op::Jump(4)));
    }

    #[test]
    fn labeled_do_closes_at_its_label() {
        let ops = ops(
            "      SUBROUTINE A\n      DO 10 I = 1, 3\n      X = X + I\n10    CONTINUE\n      END\n",
        );
        // Assign I=1; head: JumpIfFalse -> exit; Assign X; Nop(10); I=I+1; Jump head; Return
        assert!(matches!(ops[1], Op::JumpIfFalse(_, 6)));
        assert!(matches!(ops[5], Op::Jump(1)));
    }

    #[test]
    fn nested_labeled_dos_share_a_terminal() {
        let ops = ops(
            "      SUBROUTINE A\n      DO 10 I = 1, 3\n      DO 10 J = 1, 3\n      X = X + 1\n10    CONTINUE\n      END\n",
        );
        // Both frames close; program compiles and ends with Return.
        assert!(matches!(ops.last(), Some(Op::Return)));
    }

    #[test]
    fn arithmetic_if_branches_on_sign() {
        let ops = ops(
            "      SUBROUTINE A\n      X = -2\n      IF (X) 10, 20, 30\n10    Y = 1\n      RETURN\n20    Y = 2\n      RETURN\n30    Y = 3\n      END\n",
        );
        // compiles with resolved jumps; last op is the implicit Return
        assert!(matches!(ops.last(), Some(Op::Return)));
        assert!(ops
            .iter()
            .all(|op| !matches!(op, Op::Jump(t) if *t == usize::MAX)));
    }

    #[test]
    fn goto_resolves_labels() {
        let ops = ops("      SUBROUTINE A\n      GO TO 20\n      X = 1\n20    CONTINUE\n      END\n");
        assert!(matches!(ops[0], Op::Jump(2)));
    }
}
