//! The reference interpreter: a tree-walker over the parsed
//! [`Program`], kept as the *oracle* the differential tests compare the
//! production executor (the bytecode VM, [`crate::bytecode`]) against.
//!
//! It re-resolves every name against the unit's symbol table on every
//! access and re-walks the expression tree on every evaluation — slow,
//! and as close to the language definition as code gets.  Nothing on the
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

use crate::ast::{Expr, LValue, Ty, UnOp};
use crate::engine::{
    aini_service, check_fork_mnemonic, check_hardware_fe, check_isfull_machine, check_vendor_locks,
    eval_binop, hep_construct, hep_consume, hep_copy, hep_produce, init_lock_service, isfull_value,
    link_service, lock_mnemonic, lock_service, shpg_service, spawn_force, strt0_service,
    voidl_service, ArgVal, Engine, Flow, PooledHolds, Rt, RunOutput,
};
use crate::error::FortError;
use crate::intrinsics;
use crate::program::{Op, Program, Storage, Symbol, Unit};
use crate::value::Value;

/// A program loaded for the reference interpreter.
pub struct Oracle {
    /// The AST the tree-walker executes; the oracle's own.
    program: Program,
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
        Ok(Oracle { program, engine })
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
            let proc = Proc::new(rt, &self.program, -1, nproc as i64);
            let driver = self.program.unit(driver).expect("driver unit");
            proc.exec(driver, Vec::new()).map(|_| ())
        })
    }
}

/// One interpreter process.
struct Proc<'r, 'e> {
    rt: &'r Rt<'e>,
    program: &'r Program,
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
        for sym in unit.symbols.values() {
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
    fn new(rt: &'r Rt<'e>, program: &'r Program, me: i64, np: i64) -> Self {
        Proc {
            rt,
            program,
            me,
            np,
            holds: RefCell::new(PooledHolds::new(rt)),
        }
    }

    /// Execute a unit to completion.
    fn exec(&self, unit: &'r Unit, args: Vec<ArgVal<'r>>) -> Result<Flow, FortError> {
        let mut frame = Frame::new(unit, args);
        let mut pc = 0usize;
        while pc < unit.ops.len() {
            let line = unit.op_lines[pc];
            match &unit.ops[pc] {
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
                            Expr::Str(s) => parts.push(s.clone()),
                            e => parts.push(self.eval(&mut frame, e, line)?.display()),
                        }
                    }
                    self.rt.prints.lock().push(parts.join(" "));
                    pc += 1;
                }
                Op::Return => return Ok(Flow::Normal),
                Op::Stop => return Ok(Flow::Stop),
                Op::Call(name, call_args) => match self.call(&mut frame, name, call_args, line)? {
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
        name: &str,
        args: &'r [Expr],
        line: usize,
    ) -> Result<Flow, FortError> {
        if self.program.units.contains_key(name) {
            let mut bound = Vec::with_capacity(args.len());
            for a in args {
                bound.push(self.bind_arg(frame, a, line)?);
            }
            let unit = self.program.unit(name).expect("checked");
            if unit.params.len() != bound.len() {
                return Err(FortError::runtime(
                    line,
                    format!(
                        "{name} expects {} argument(s), got {}",
                        unit.params.len(),
                        bound.len()
                    ),
                ));
            }
            return self.exec(unit, bound);
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
                if self.program.units.contains_key(n) {
                    return Ok(ArgVal::Unit(n));
                }
                match frame.unit.symbols.get(n) {
                    Some(sym) => match &sym.storage {
                        Storage::Shared { block, offset } => {
                            let base = self.block_base(block, line)?;
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
                                    format!("cannot pass private array {n} by reference"),
                                ))
                            }
                        }
                        Storage::PseudoMe => Ok(ArgVal::Value(Value::Int(self.me))),
                        Storage::PseudoNp => Ok(ArgVal::Value(Value::Int(self.np))),
                        Storage::Arg(i) => Ok(frame.args[*i]),
                    },
                    None => Err(FortError::runtime(line, format!("unknown variable {n}"))),
                }
            }
            Expr::Index(n, idx) => {
                // Element reference if n is an array symbol; otherwise an
                // expression value.
                let is_array = frame
                    .unit
                    .symbols
                    .get(n)
                    .is_some_and(|s| !s.dims.is_empty());
                if is_array {
                    let (offset, ty) = self.array_elem(frame, n, idx, line)?;
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
        name: &str,
        args: &'r [Expr],
        line: usize,
    ) -> Result<Flow, FortError> {
        let machine = self.rt.engine.machine();
        if let Some((kind, is_lock)) = lock_mnemonic(name) {
            check_vendor_locks(machine, kind, line)?;
            let offset = self.shared_offset_arg(frame, args, 0, name, line)?;
            let var_name = match args.first() {
                Some(Expr::Var(n)) => Some(n.as_str()),
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
                let unit_name = match args.first() {
                    Some(Expr::Var(n)) if self.program.units.contains_key(n) => n.clone(),
                    _ => {
                        return Err(FortError::runtime(
                            line,
                            format!("{name} needs a program unit to execute"),
                        ))
                    }
                };
                let unit = self.program.unit(&unit_name).expect("checked");
                let np = self.rt.run.plane().nproc();
                spawn_force(self.rt, line, &|pid| {
                    let p = Proc::new(self.rt, self.program, pid as i64, np as i64);
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

    fn block_base(&self, block: &str, line: usize) -> Result<usize, FortError> {
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
            Expr::Var(n) => self.read_scalar(frame, n, line),
            Expr::Index(n, idx) => {
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
                } else if frame.unit.symbols.contains_key(n) {
                    Err(FortError::runtime(
                        line,
                        format!("{n} is a scalar but was subscripted"),
                    ))
                } else if n == "ZZISFL" || n == "ZZHISF" {
                    // Full/empty state test (§3.4): needs the *address* of
                    // its argument, not its value.
                    self.eval_isfull(frame, n, idx, line)
                } else {
                    let mut vals = Vec::with_capacity(idx.len());
                    for a in idx {
                        vals.push(self.eval(frame, a, line)?);
                    }
                    intrinsics::eval_function(n, &vals, line, self.me, self.np)
                }
            }
            Expr::Un(op, a) => {
                let v = self.eval(frame, a, line)?;
                match op {
                    UnOp::Neg => match v {
                        Value::Int(n) => Ok(Value::Int(-n)),
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

    fn read_scalar(&self, frame: &Frame<'_>, name: &str, line: usize) -> Result<Value, FortError> {
        let sym = frame
            .unit
            .symbols
            .get(name)
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
                let base = self.block_base(block, line)?;
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
                let sym = frame
                    .unit
                    .symbols
                    .get(n)
                    .ok_or_else(|| FortError::runtime(line, format!("unknown variable {n}")))?
                    .clone();
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
                        let base = self.block_base(block, line)?;
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
                let (place, ty) = self.array_elem(frame, n, idx, line)?;
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
        name: &str,
        idx: &[Expr],
        line: usize,
    ) -> Result<(ElemPlace, Ty), FortError> {
        let sym: Symbol = frame
            .unit
            .symbols
            .get(name)
            .ok_or_else(|| FortError::runtime(line, format!("unknown array {name}")))?
            .clone();
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
        let dims = dims.clone();
        let off = self.elem_offset(frame, &dims, idx, name, line)?;
        match &sym.storage {
            Storage::Local { base } => Ok((ElemPlace::Local(base + off), ty)),
            Storage::Shared { block, offset } => {
                let base = self.block_base(block, line)?;
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
        Expr::Var(n) => Ok(LValue::Name(n.clone())),
        Expr::Index(n, idx) => Ok(LValue::Elem(n.clone(), idx.clone())),
        _ => Err(FortError::runtime(line, "destination must be a variable")),
    }
}
