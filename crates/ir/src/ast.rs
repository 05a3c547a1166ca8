//! Abstract syntax of the kernel IR.
//!
//! The IR models OpenCL C kernels closely enough that the paper's LLVM-level
//! precision transformations have direct equivalents: buffer parameters with
//! an element precision, scalar parameters, structured loops and branches,
//! loads/stores, float arithmetic, explicit `convert_*` casts, and
//! polymorphic float literals (which adopt the precision of their context,
//! as C literals do under implicit conversion).

use crate::types::{Precision, ScalarType};
use crate::value::{CmpOp, FloatBinOp, UnaryFn};

/// Identifier for kernel parameters, locals and loop variables.
pub type Ident = String;

/// How a kernel accesses a buffer parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Access {
    /// Only loaded from.
    Read,
    /// Only stored to.
    Write,
    /// Both loaded and stored.
    ReadWrite,
}

impl Access {
    /// `true` if loads are allowed.
    #[must_use]
    pub const fn readable(self) -> bool {
        matches!(self, Access::Read | Access::ReadWrite)
    }

    /// `true` if stores are allowed.
    #[must_use]
    pub const fn writable(self) -> bool {
        matches!(self, Access::Write | Access::ReadWrite)
    }
}

/// A type annotation that may refer to a buffer's element type.
///
/// `ElemOf` is how kernels keep accumulator locals and scalar parameters in
/// lock-step with the precision of the memory objects they feed: when the
/// retype pass changes a buffer's element precision, every `ElemOf` use
/// follows automatically — the same effect as the paper's LLVM pass
/// rewriting dependent value types.
///
/// Like [`Expr`] and [`Stmt`], it is generic over how names are written:
/// source kernels use [`Ident`]s, and the type checker's resolved form
/// replaces each with the index of its binding.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TypeRef<N = Ident> {
    /// A fixed scalar type.
    Concrete(ScalarType),
    /// The element type of the named buffer parameter.
    ElemOf(N),
}

impl<N> From<ScalarType> for TypeRef<N> {
    fn from(t: ScalarType) -> TypeRef<N> {
        TypeRef::Concrete(t)
    }
}

impl<N> From<Precision> for TypeRef<N> {
    fn from(p: Precision) -> TypeRef<N> {
        TypeRef::Concrete(ScalarType::Float(p))
    }
}

/// A kernel parameter.
#[derive(Clone, Debug, PartialEq)]
pub enum Param {
    /// A global-memory buffer of floats.
    Buffer {
        /// Parameter name.
        name: Ident,
        /// Element precision.
        elem: Precision,
        /// Declared access mode.
        access: Access,
    },
    /// A scalar argument (problem sizes, alpha/beta coefficients, …).
    Scalar {
        /// Parameter name.
        name: Ident,
        /// Type, possibly tied to a buffer's element type.
        ty: TypeRef,
    },
}

impl Param {
    /// The parameter's name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Param::Buffer { name, .. } | Param::Scalar { name, .. } => name,
        }
    }
}

/// An expression, generic over how names are written (see [`TypeRef`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr<N = Ident> {
    /// A polymorphic float literal: adopts the precision of its context
    /// (binop sibling, declared local type, or stored-to buffer), defaulting
    /// to double when unconstrained — like a C literal under implicit
    /// conversion.
    FloatConst(f64),
    /// An integer literal.
    IntConst(i64),
    /// A local variable, loop variable, or scalar parameter.
    Var(N),
    /// `get_global_id(dim)`.
    GlobalId(usize),
    /// `buf[index]` — yields the buffer's element type.
    Load {
        /// Buffer parameter name.
        buf: N,
        /// Element index (integer expression).
        index: Box<Expr<N>>,
    },
    /// A unary math operation at the operand's precision.
    Unary {
        /// The function.
        op: UnaryFn,
        /// Operand.
        arg: Box<Expr<N>>,
    },
    /// A binary arithmetic operation at the promoted operand precision.
    Bin {
        /// The operator.
        op: FloatBinOp,
        /// Left operand.
        lhs: Box<Expr<N>>,
        /// Right operand.
        rhs: Box<Expr<N>>,
    },
    /// A comparison, yielding `bool`.
    Cmp {
        /// The comparison.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr<N>>,
        /// Right operand.
        rhs: Box<Expr<N>>,
    },
    /// An explicit conversion (`convert_half(x)`, `(double)x`, `(long)x`).
    Cast {
        /// Target type (`Bool` is not permitted).
        to: TypeRef<N>,
        /// Operand.
        arg: Box<Expr<N>>,
    },
    /// `cond ? then : els`, operands promoted like a binary op.
    Select {
        /// Condition (boolean expression).
        cond: Box<Expr<N>>,
        /// Value when true.
        then: Box<Expr<N>>,
        /// Value when false.
        els: Box<Expr<N>>,
    },
}

impl<N> Expr<N> {
    /// Whether this expression's float precision is still
    /// context-determined: a literal, or math over literals only (the type
    /// checker's `WeakFloat`). Both engines resolve such an operand
    /// against its sibling's precision.
    #[must_use]
    pub fn is_weak_float(&self) -> bool {
        match self {
            Expr::FloatConst(_) => true,
            Expr::Unary { arg, .. } => arg.is_weak_float(),
            Expr::Bin { lhs, rhs, .. } => lhs.is_weak_float() && rhs.is_weak_float(),
            Expr::Select { then, els, .. } => then.is_weak_float() && els.is_weak_float(),
            _ => false,
        }
    }
}

/// A statement, generic over how names are written (see [`TypeRef`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt<N = Ident> {
    /// Declares (and initializes) a local variable.
    Let {
        /// Variable name.
        name: N,
        /// Declared type; inferred from `value` when `None`.
        ty: Option<TypeRef<N>>,
        /// Initializer.
        value: Expr<N>,
    },
    /// Reassigns an existing local (converts to its declared type).
    Assign {
        /// Variable name.
        name: N,
        /// New value.
        value: Expr<N>,
    },
    /// `buf[index] = value` — converts to the buffer's element type.
    Store {
        /// Buffer parameter name.
        buf: N,
        /// Element index.
        index: Expr<N>,
        /// Stored value.
        value: Expr<N>,
    },
    /// `for (long var = start; var < end; ++var) body`.
    For {
        /// Loop variable (scoped to the body).
        var: N,
        /// Inclusive start (integer expression).
        start: Expr<N>,
        /// Exclusive end (integer expression).
        end: Expr<N>,
        /// Loop body.
        body: Vec<Stmt<N>>,
    },
    /// `if (cond) { then } else { els }`.
    If {
        /// Condition.
        cond: Expr<N>,
        /// True branch.
        then_body: Vec<Stmt<N>>,
        /// False branch (may be empty).
        else_body: Vec<Stmt<N>>,
    },
}

/// A kernel: name, parameters, and a structured body executed once per
/// work-item of the launch NDRange.
#[derive(Clone, Debug, PartialEq)]
pub struct Kernel {
    /// Kernel name (unique within a [`Program`]).
    pub name: Ident,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

impl Kernel {
    /// Looks up a parameter by name.
    #[must_use]
    pub fn param(&self, name: &str) -> Option<&Param> {
        self.params.iter().find(|p| p.name() == name)
    }

    /// The element precision of the named buffer parameter.
    #[must_use]
    pub fn buffer_elem(&self, name: &str) -> Option<Precision> {
        match self.param(name)? {
            Param::Buffer { elem, .. } => Some(*elem),
            Param::Scalar { .. } => None,
        }
    }

    /// Resolves a [`TypeRef`] against this kernel's parameter table, or
    /// `None` when an `ElemOf` target is not a buffer parameter (a kernel
    /// the type checker rejects).
    #[must_use]
    pub fn resolve(&self, ty: &TypeRef) -> Option<ScalarType> {
        match ty {
            TypeRef::Concrete(t) => Some(*t),
            TypeRef::ElemOf(buf) => self.buffer_elem(buf).map(ScalarType::Float),
        }
    }

    /// Names of all buffer parameters, in declaration order.
    #[must_use]
    pub fn buffer_names(&self) -> Vec<&str> {
        self.params
            .iter()
            .filter_map(|p| match p {
                Param::Buffer { name, .. } => Some(name.as_str()),
                Param::Scalar { .. } => None,
            })
            .collect()
    }
}

/// A program: an ordered collection of kernels that a host application
/// launches (possibly several times each).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program {
    /// Program name (used in reports).
    pub name: Ident,
    /// The kernels.
    pub kernels: Vec<Kernel>,
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new(name: impl Into<Ident>) -> Program {
        Program {
            name: name.into(),
            kernels: Vec::new(),
        }
    }

    /// Adds a kernel, returning `self` for chaining.
    #[must_use]
    pub fn with_kernel(mut self, kernel: Kernel) -> Program {
        self.kernels.push(kernel);
        self
    }

    /// Looks up a kernel by name.
    #[must_use]
    pub fn kernel(&self, name: &str) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Mutable lookup by name.
    pub fn kernel_mut(&mut self, name: &str) -> Option<&mut Kernel> {
        self.kernels.iter_mut().find(|k| k.name == name)
    }
}

/// Calls `f` on every statement of `stmts`, nested bodies included,
/// in program order (each statement before its nested bodies).
pub fn visit_stmts<'a, N>(stmts: &'a [Stmt<N>], f: &mut impl FnMut(&'a Stmt<N>)) {
    for s in stmts {
        f(s);
        match s {
            Stmt::For { body, .. } => visit_stmts(body, f),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                visit_stmts(then_body, f);
                visit_stmts(else_body, f);
            }
            Stmt::Let { .. } | Stmt::Assign { .. } | Stmt::Store { .. } => {}
        }
    }
}

/// Calls `f` on `e` and every sub-expression of it, depth-first.
pub fn visit_expr<'a, N>(e: &'a Expr<N>, f: &mut impl FnMut(&'a Expr<N>)) {
    f(e);
    match e {
        Expr::FloatConst(_) | Expr::IntConst(_) | Expr::Var(_) | Expr::GlobalId(_) => {}
        Expr::Load { index, .. } => visit_expr(index, f),
        Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => visit_expr(arg, f),
        Expr::Bin { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
            visit_expr(lhs, f);
            visit_expr(rhs, f);
        }
        Expr::Select { cond, then, els } => {
            visit_expr(cond, f);
            visit_expr(then, f);
            visit_expr(els, f);
        }
    }
}

/// Walks every expression in a statement list, depth-first.
pub fn visit_exprs<'a, N>(stmts: &'a [Stmt<N>], f: &mut impl FnMut(&'a Expr<N>)) {
    visit_stmts(stmts, &mut |s| match s {
        Stmt::Let { value, .. } | Stmt::Assign { value, .. } => visit_expr(value, f),
        Stmt::Store { index, value, .. } => {
            visit_expr(index, f);
            visit_expr(value, f);
        }
        Stmt::For { start, end, .. } => {
            visit_expr(start, f);
            visit_expr(end, f);
        }
        Stmt::If { cond, .. } => visit_expr(cond, f),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    #[test]
    fn access_predicates() {
        assert!(Access::Read.readable() && !Access::Read.writable());
        assert!(!Access::Write.readable() && Access::Write.writable());
        assert!(Access::ReadWrite.readable() && Access::ReadWrite.writable());
    }

    #[test]
    fn kernel_lookup_and_resolution() {
        let k = Kernel {
            name: "k".into(),
            params: vec![
                Param::Buffer {
                    name: "a".into(),
                    elem: Precision::Single,
                    access: Access::Read,
                },
                Param::Scalar {
                    name: "alpha".into(),
                    ty: TypeRef::ElemOf("a".into()),
                },
            ],
            body: vec![],
        };
        assert_eq!(k.buffer_elem("a"), Some(Precision::Single));
        assert_eq!(k.buffer_elem("alpha"), None);
        assert_eq!(
            k.resolve(&TypeRef::ElemOf("a".into())),
            Some(ScalarType::Float(Precision::Single))
        );
        assert_eq!(k.buffer_names(), vec!["a"]);
        assert!(k.param("missing").is_none());
    }

    #[test]
    fn resolving_elem_of_non_buffer_is_none() {
        let k = Kernel {
            name: "k".into(),
            params: vec![Param::Scalar {
                name: "n".into(),
                ty: ScalarType::Int.into(),
            }],
            body: vec![],
        };
        assert_eq!(k.resolve(&TypeRef::ElemOf("ghost".into())), None);
        assert_eq!(k.resolve(&TypeRef::ElemOf("n".into())), None);
    }

    #[test]
    fn program_kernel_lookup() {
        let p = Program::new("prog").with_kernel(Kernel {
            name: "a".into(),
            params: vec![],
            body: vec![],
        });
        assert!(p.kernel("a").is_some());
        assert!(p.kernel("b").is_none());
    }

    #[test]
    fn visit_exprs_reaches_nested_expressions() {
        let body = vec![for_(
            "i",
            int(0),
            var("n"),
            vec![store("c", var("i"), load("a", var("i")) + flit(1.0))],
        )];
        let mut loads = 0;
        let mut consts = 0;
        visit_exprs(&body, &mut |e| match e {
            Expr::Load { .. } => loads += 1,
            Expr::FloatConst(_) | Expr::IntConst(_) => consts += 1,
            _ => {}
        });
        assert_eq!(loads, 1);
        assert_eq!(consts, 2); // int(0) and flit(1.0)
    }
}
