//! AST of the mini-Fortran subset.  Names are ids into the program's
//! [`Names`]; [`Named`] shows a node with its names as text.

use std::fmt;

use crate::token::{DotOp, Name, Names, Token};

/// Fortran types supported by the substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// 64-bit signed integer.
    Integer,
    /// 64-bit float (REAL here is double precision; the substrate has one
    /// word size).
    Real,
    /// Logical.
    Logical,
}

impl Ty {
    /// Parse a type keyword.
    pub fn from_keyword(kw: &str) -> Option<Ty> {
        Some(match kw {
            "INTEGER" => Ty::Integer,
            "REAL" | "DOUBLE" => Ty::Real,
            "LOGICAL" => Ty::Logical,
            _ => return None,
        })
    }

    /// Fortran implicit typing: I–N integer, the rest real.
    pub fn implicit_for(name: &str) -> Ty {
        match name.chars().next() {
            Some(c @ 'I'..='N') => {
                let _ = c;
                Ty::Integer
            }
            _ => Ty::Real,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical `.NOT.`.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// Map a dotted operator to a binary operator (`.NOT.` is unary).
    pub fn from_dotop(op: DotOp) -> Option<BinOp> {
        Some(match op {
            DotOp::Eq => BinOp::Eq,
            DotOp::Ne => BinOp::Ne,
            DotOp::Lt => BinOp::Lt,
            DotOp::Le => BinOp::Le,
            DotOp::Gt => BinOp::Gt,
            DotOp::Ge => BinOp::Ge,
            DotOp::And => BinOp::And,
            DotOp::Or => BinOp::Or,
            DotOp::Not => return None,
        })
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// Logical literal.
    Logical(bool),
    /// Character literal (PRINT lists only).
    Str(Name),
    /// Scalar variable reference.
    Var(Name),
    /// `NAME(e, …)` — an array element or a function call; which one is
    /// decided against the symbol table at execution.
    Index(Name, Vec<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// The §4.2 test of a structured `DO` head:
    /// `(step > 0 .AND. var <= to) .OR. (step < 0 .AND. var >= to)`.
    pub(crate) fn do_condition(var: Name, to: &Expr, step: &Expr) -> Expr {
        let v = || Box::new(Expr::Var(var));
        let s = || Box::new(step.clone());
        let t = || Box::new(to.clone());
        let zero = || Box::new(Expr::Int(0));
        Expr::Bin(
            BinOp::Or,
            Box::new(Expr::Bin(
                BinOp::And,
                Box::new(Expr::Bin(BinOp::Gt, s(), zero())),
                Box::new(Expr::Bin(BinOp::Le, v(), t())),
            )),
            Box::new(Expr::Bin(
                BinOp::And,
                Box::new(Expr::Bin(BinOp::Lt, s(), zero())),
                Box::new(Expr::Bin(BinOp::Ge, v(), t())),
            )),
        )
    }

    /// `(var, to, step)` if this is the shape [`Expr::do_condition`]
    /// builds — as the macros spell a loop head in an `IF` too.
    pub(crate) fn as_do_condition(&self) -> Option<(&Expr, &Expr, &Expr)> {
        use BinOp::{And, Ge, Gt, Le, Lt, Or};
        let is_zero = |e: &Expr| matches!(e, Expr::Int(0));
        let Expr::Bin(Or, up, down) = self else {
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
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Scalar variable.
    Name(Name),
    /// Array element.
    Elem(Name, Vec<Expr>),
}

/// Literal array dimensions, at most two (empty = scalar), held inline.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Dims {
    len: u8,
    dims: [usize; 2],
}

impl Dims {
    /// The dimensions `dims`, if there are at most two and their product
    /// fits a `usize`.
    pub fn new(dims: &[usize]) -> Option<Dims> {
        let mut out = Dims::default();
        for &d in dims {
            *out.dims.get_mut(out.len as usize)? = d;
            out.len += 1;
        }
        out.checked_words().map(|_| out)
    }

    fn checked_words(&self) -> Option<usize> {
        self.iter()
            .try_fold(1usize, |words, &d| words.checked_mul(d))
    }

    /// Total words of storage ([`Dims::new`] has checked that the product
    /// fits).
    pub fn words(&self) -> usize {
        self.checked_words().unwrap_or(usize::MAX).max(1)
    }
}

impl std::ops::Deref for Dims {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.dims[..self.len as usize]
    }
}

impl fmt::Debug for Dims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One declared item: name plus literal dimensions (empty = scalar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeclItem {
    /// Variable name.
    pub name: Name,
    /// Array dimensions.
    pub dims: Dims,
}

/// One parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `PROGRAM name`
    Program(Name),
    /// `SUBROUTINE name(params…)`
    Subroutine(Name, Vec<Name>),
    /// `END` (unit terminator)
    EndUnit,
    /// `RETURN`
    Return,
    /// `STOP`
    Stop,
    /// `CONTINUE`
    Continue,
    /// Type declaration.
    Decl {
        /// The declared type.
        ty: Ty,
        /// The declared items.
        items: Vec<DeclItem>,
    },
    /// `COMMON /block/ items`
    Common {
        /// Block name.
        block: Name,
        /// Members, in order.
        items: Vec<DeclItem>,
    },
    /// Assignment.
    Assign {
        /// Target.
        lhs: LValue,
        /// Source expression.
        rhs: Expr,
    },
    /// `IF (cond) THEN`
    IfThen(Expr),
    /// `ELSE IF (cond) THEN`
    ElseIf(Expr),
    /// `ELSE`
    Else,
    /// `END IF`
    EndIf,
    /// `IF (cond) stmt`
    LogicalIf(Expr, Box<Stmt>),
    /// Arithmetic IF: `IF (e) l1, l2, l3` — branch on sign.
    ArithIf(Expr, u32, u32, u32),
    /// `GO TO label`
    Goto(u32),
    /// `DO [label] var = from, to [, step]`
    Do {
        /// Terminal label (`None` for `DO … END DO`).
        label: Option<u32>,
        /// Loop variable.
        var: Name,
        /// Initial value.
        from: Expr,
        /// Bound.
        to: Expr,
        /// Step (default 1).
        step: Option<Expr>,
    },
    /// `END DO`
    EndDo,
    /// `CALL name(args…)`
    Call {
        /// Subroutine name.
        name: Name,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// `PRINT *, items`
    Print(Vec<Expr>),
}

/// A node shown as `{:?}` shows it, with each [`Name`] as its text: how
/// a message quotes source.
pub struct Named<'a, T: ?Sized>(pub &'a T, pub &'a Names);

impl<'a, T: ?Sized> Named<'a, T> {
    fn with<'b, U: ?Sized>(&self, node: &'b U) -> Named<'b, U>
    where
        'a: 'b,
    {
        Named(node, self.1)
    }

    fn text(&self, name: Name) -> &'a str {
        self.1.text(name)
    }
}

impl fmt::Debug for Named<'_, Token> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Token::Ident(n) => f.debug_tuple("Ident").field(&self.text(*n)).finish(),
            Token::Str(n) => f.debug_tuple("Str").field(&self.text(*n)).finish(),
            other => other.fmt(f),
        }
    }
}

impl fmt::Debug for Named<'_, [Token]> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.0.iter().map(|t| self.with(t)))
            .finish()
    }
}

impl fmt::Debug for Named<'_, [Expr]> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.0.iter().map(|e| self.with(e)))
            .finish()
    }
}

impl fmt::Debug for Named<'_, Expr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Expr::Str(n) => f.debug_tuple("Str").field(&self.text(*n)).finish(),
            Expr::Var(n) => f.debug_tuple("Var").field(&self.text(*n)).finish(),
            Expr::Index(n, args) => f
                .debug_tuple("Index")
                .field(&self.text(*n))
                .field(&self.with(&args[..]))
                .finish(),
            Expr::Un(op, a) => f
                .debug_tuple("Un")
                .field(op)
                .field(&self.with(&**a))
                .finish(),
            Expr::Bin(op, a, b) => f
                .debug_tuple("Bin")
                .field(op)
                .field(&self.with(&**a))
                .field(&self.with(&**b))
                .finish(),
            other => other.fmt(f),
        }
    }
}

impl fmt::Debug for Named<'_, LValue> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            LValue::Name(n) => f.debug_tuple("Name").field(&self.text(*n)).finish(),
            LValue::Elem(n, idx) => f
                .debug_tuple("Elem")
                .field(&self.text(*n))
                .field(&self.with(&idx[..]))
                .finish(),
        }
    }
}

impl fmt::Debug for Named<'_, DeclItem> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeclItem")
            .field("name", &self.text(self.0.name))
            .field("dims", &self.0.dims)
            .finish()
    }
}

impl fmt::Debug for Named<'_, [DeclItem]> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.0.iter().map(|it| self.with(it)))
            .finish()
    }
}

impl fmt::Debug for Named<'_, Stmt> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = |ns: &[Name]| ns.iter().map(|&n| self.text(n)).collect::<Vec<_>>();
        match self.0 {
            Stmt::Program(n) => f.debug_tuple("Program").field(&self.text(*n)).finish(),
            Stmt::Subroutine(n, params) => f
                .debug_tuple("Subroutine")
                .field(&self.text(*n))
                .field(&names(params))
                .finish(),
            Stmt::EndUnit => f.write_str("EndUnit"),
            Stmt::Return => f.write_str("Return"),
            Stmt::Stop => f.write_str("Stop"),
            Stmt::Continue => f.write_str("Continue"),
            Stmt::Decl { ty, items } => f
                .debug_struct("Decl")
                .field("ty", ty)
                .field("items", &self.with(&items[..]))
                .finish(),
            Stmt::Common { block, items } => f
                .debug_struct("Common")
                .field("block", &self.text(*block))
                .field("items", &self.with(&items[..]))
                .finish(),
            Stmt::Assign { lhs, rhs } => f
                .debug_struct("Assign")
                .field("lhs", &self.with(lhs))
                .field("rhs", &self.with(rhs))
                .finish(),
            Stmt::IfThen(c) => f.debug_tuple("IfThen").field(&self.with(c)).finish(),
            Stmt::ElseIf(c) => f.debug_tuple("ElseIf").field(&self.with(c)).finish(),
            Stmt::Else => f.write_str("Else"),
            Stmt::EndIf => f.write_str("EndIf"),
            Stmt::LogicalIf(c, inner) => f
                .debug_tuple("LogicalIf")
                .field(&self.with(c))
                .field(&self.with(&**inner))
                .finish(),
            Stmt::ArithIf(e, a, b, c) => f
                .debug_tuple("ArithIf")
                .field(&self.with(e))
                .field(a)
                .field(b)
                .field(c)
                .finish(),
            Stmt::Goto(l) => f.debug_tuple("Goto").field(l).finish(),
            Stmt::Do {
                label,
                var,
                from,
                to,
                step,
            } => f
                .debug_struct("Do")
                .field("label", label)
                .field("var", &self.text(*var))
                .field("from", &self.with(from))
                .field("to", &self.with(to))
                .field("step", &step.as_ref().map(|s| self.with(s)))
                .finish(),
            Stmt::EndDo => f.write_str("EndDo"),
            Stmt::Call { name, args } => f
                .debug_struct("Call")
                .field("name", &self.text(*name))
                .field("args", &self.with(&args[..]))
                .finish(),
            Stmt::Print(items) => f
                .debug_tuple("Print")
                .field(&self.with(&items[..]))
                .finish(),
        }
    }
}
