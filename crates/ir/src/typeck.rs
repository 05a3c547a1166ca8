//! Type checking and name resolution for kernels and programs.
//!
//! The checker validates a kernel against its *current* parameter table, so
//! it doubles as the post-condition of every precision-rewriting pass: a
//! retyped or cast-inserted kernel must still check.
//!
//! It is also the IR's one name resolver. Checking builds a `Resolved`
//! form: a slot table with one entry per parameter, local, loop variable
//! and unbound use, and the kernel body with every name replaced by its
//! slot. The VM compiler, the disjoint-write analysis, the range analysis
//! and the verifier all index that table instead of keeping their own
//! scopes; only the reference interpreter still resolves names itself.

use crate::ast::{visit_stmts, Access, Expr, Ident, Kernel, Param, Program, Stmt, TypeRef};
use crate::types::{Precision, ScalarType};
use crate::value::{promote, UnaryFn};
use core::fmt;
use std::collections::{HashMap, HashSet};

/// A type error, with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    kernel: String,
    pub(crate) message: String,
    pub(crate) cause: Cause,
}

/// What a [`TypeError`] is about, in the terms of the execution engines'
/// typed errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Cause {
    /// A variable is used or assigned but bound by nothing.
    Unbound(Ident),
    /// A buffer position (load, store, `ElemOf`) names no buffer.
    NotABuffer(Ident),
    /// Any other violation.
    Kind,
}

impl TypeError {
    fn new(kernel: &str, cause: Cause, message: impl Into<String>) -> TypeError {
        TypeError {
            kernel: kernel.to_owned(),
            message: message.into(),
            cause,
        }
    }

    /// The kernel in which the error occurred.
    #[must_use]
    pub fn kernel(&self) -> &str {
        &self.kernel
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "type error in kernel `{}`: {}",
            self.kernel, self.message
        )
    }
}

impl std::error::Error for TypeError {}

/// The inferred type of an expression; float literals are *weak* until
/// context pins them to a precision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InferTy {
    /// A definite scalar type.
    Known(ScalarType),
    /// A float of context-determined precision.
    WeakFloat,
}

impl InferTy {
    /// `true` for any float (weak or known) or int — i.e. usable in
    /// arithmetic.
    #[must_use]
    pub fn is_numeric(self) -> bool {
        !matches!(self, InferTy::Known(ScalarType::Bool))
    }

    /// Resolves a weak float to `double`, mirroring C literal semantics
    /// when no context constrains it.
    #[must_use]
    pub fn resolved(self) -> ScalarType {
        match self {
            InferTy::Known(t) => t,
            InferTy::WeakFloat => ScalarType::Float(Precision::Double),
        }
    }
}

/// Type-checks a whole program.
///
/// # Errors
///
/// Returns the first [`TypeError`] found: duplicate kernel names, or any
/// kernel-level error from [`check_kernel`].
pub fn check_program(program: &Program) -> Result<(), TypeError> {
    let mut seen = HashSet::new();
    for k in &program.kernels {
        if !seen.insert(k.name.as_str()) {
            return Err(TypeError::new(
                &k.name,
                Cause::Kind,
                "duplicate kernel name in program",
            ));
        }
        check_kernel(k)?;
    }
    Ok(())
}

/// Type-checks a single kernel.
///
/// # Errors
///
/// Returns the first [`TypeError`] for: duplicate parameter names,
/// dangling `ElemOf` references, boolean parameters, unbound variables,
/// loads/stores violating the declared access mode, non-integer indices
/// or loop bounds, non-boolean conditions, booleans in arithmetic,
/// assignment to loop variables or parameters, or redeclaration of a
/// live local.
pub fn check_kernel(kernel: &Kernel) -> Result<(), TypeError> {
    Resolved::checked(kernel).map(drop)
}

/// Index of a binding in [`Resolved::slots`].
pub(crate) type Slot = usize;

/// What a slot binds.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum SlotKind {
    /// A buffer parameter.
    Buffer(Access),
    /// A scalar parameter, with its declared type.
    Scalar(TypeRef<Slot>),
    /// A `let`-declared local.
    Local,
    /// A loop variable.
    LoopVar,
    /// A use of a name that nothing binds (a kernel the checker rejects).
    Unbound,
}

/// One slot of a [`Resolved`] kernel.
#[derive(Clone, Debug)]
pub(crate) struct SlotInfo {
    pub(crate) name: Ident,
    /// The binding's type; a buffer's is its element type. Meaningful
    /// only when the kernel checks.
    pub(crate) ty: ScalarType,
    pub(crate) kind: SlotKind,
}

/// A kernel with every name resolved to a slot.
///
/// Parameters take slots `0..params.len()` in declaration order; every
/// `let`, loop variable and unbound use gets a fresh slot of its own, so
/// a shadowing `let` never shares a slot with the binding it hides.
#[derive(Clone, Debug)]
pub(crate) struct Resolved {
    pub(crate) slots: Vec<SlotInfo>,
    pub(crate) body: Vec<Stmt<Slot>>,
    /// The first type error, in the checker's walk order.
    pub(crate) error: Option<TypeError>,
}

impl Resolved {
    /// Resolves every name of `kernel`, recording the first type error
    /// but walking on, so every unbound use still gets its slot.
    pub(crate) fn new(kernel: &Kernel) -> Resolved {
        let mut r = Resolver {
            kernel,
            slots: Vec::new(),
            scopes: vec![HashMap::new()],
            error: None,
        };
        // Every parameter slot exists before any `ElemOf` resolves.
        for p in &kernel.params {
            match p {
                Param::Buffer { name, elem, access } => {
                    r.push(name, ScalarType::Float(*elem), SlotKind::Buffer(*access))
                }
                Param::Scalar { name, .. } => r.push(
                    name,
                    ScalarType::Int,
                    SlotKind::Scalar(ScalarType::Int.into()),
                ),
            };
        }
        let mut names = HashSet::new();
        for (slot, p) in kernel.params.iter().enumerate() {
            if !names.insert(p.name()) {
                r.bad(format!("duplicate parameter `{}`", p.name()));
            }
            if let Param::Scalar { name, ty } = p {
                let (ty, t) = r.type_ref(ty, |m| format!("parameter `{name}`: {m}"));
                if t == ScalarType::Bool {
                    r.bad(format!("parameter `{name}` declares a boolean type"));
                }
                r.slots[slot].ty = t;
                r.slots[slot].kind = SlotKind::Scalar(ty);
            }
        }
        let body = r.block(&kernel.body);
        Resolved {
            slots: r.slots,
            body,
            error: r.error,
        }
    }

    /// The resolved form of a kernel that type-checks.
    pub(crate) fn checked(kernel: &Kernel) -> Result<Resolved, TypeError> {
        let mut r = Resolved::new(kernel);
        match r.error.take() {
            Some(e) => Err(e),
            None => Ok(r),
        }
    }

    /// The scalar type a resolved type reference denotes.
    pub(crate) fn ty(&self, t: &TypeRef<Slot>) -> ScalarType {
        match t {
            TypeRef::Concrete(t) => *t,
            TypeRef::ElemOf(buf) => self.slots[*buf].ty,
        }
    }

    /// The element precision of a buffer slot.
    pub(crate) fn elem(&self, buf: Slot) -> Precision {
        self.slots[buf].ty.precision().unwrap_or(Precision::Double)
    }
}

/// Slots assigned (not `let`-bound) anywhere in `stmts`, nested bodies
/// included.
pub(crate) fn assigned_slots(stmts: &[Stmt<Slot>]) -> HashSet<Slot> {
    let mut out = HashSet::new();
    visit_stmts(stmts, &mut |s| {
        if let Stmt::Assign { name, .. } = s {
            out.insert(*name);
        }
    });
    out
}

struct Resolver<'k> {
    kernel: &'k Kernel,
    slots: Vec<SlotInfo>,
    scopes: Vec<HashMap<&'k str, Slot>>,
    error: Option<TypeError>,
}

impl<'k> Resolver<'k> {
    /// Records a type error unless an earlier one already stands.
    fn fail(&mut self, cause: Cause, message: impl Into<String>) {
        if self.error.is_none() {
            self.error = Some(TypeError::new(&self.kernel.name, cause, message));
        }
    }

    /// [`Resolver::fail`] with [`Cause::Kind`].
    fn bad(&mut self, message: impl Into<String>) {
        self.fail(Cause::Kind, message);
    }

    fn push(&mut self, name: &str, ty: ScalarType, kind: SlotKind) -> Slot {
        self.slots.push(SlotInfo {
            name: name.to_owned(),
            ty,
            kind,
        });
        self.slots.len() - 1
    }

    /// The parameter slot of `name`, else a fresh unbound slot.
    fn param(&mut self, name: &str) -> Slot {
        match self.kernel.params.iter().position(|p| p.name() == name) {
            Some(slot) => slot,
            None => self.push(
                name,
                ScalarType::Float(Precision::Double),
                SlotKind::Unbound,
            ),
        }
    }

    /// Innermost local or loop variable named `name`, else its parameter,
    /// else a fresh unbound slot.
    fn lookup(&mut self, name: &str) -> Slot {
        match self.scopes.iter().rev().find_map(|s| s.get(name)) {
            Some(&slot) => slot,
            None => self.param(name),
        }
    }

    fn declare(&mut self, name: &'k str, ty: ScalarType, kind: SlotKind) -> Slot {
        if self.kernel.param(name).is_some() {
            self.bad(format!("`{name}` shadows a kernel parameter"));
        }
        let slot = self.push(name, ty, kind);
        let top = self.scopes.len() - 1;
        if self.scopes[top].insert(name, slot).is_some() {
            self.bad(format!("redeclaration of `{name}` in the same scope"));
        }
        slot
    }

    /// Resolves a buffer reference; `context` words the error when `buf`
    /// is not a buffer parameter.
    fn buffer(&mut self, buf: &str, context: impl FnOnce(String) -> String) -> Slot {
        let slot = self.param(buf);
        match self.slots[slot].kind {
            SlotKind::Buffer(_) => {}
            SlotKind::Scalar(_) => self.fail(
                Cause::NotABuffer(buf.to_owned()),
                context(format!("`{buf}` is a scalar, not a buffer")),
            ),
            _ => self.fail(
                Cause::NotABuffer(buf.to_owned()),
                context(format!("unknown buffer `{buf}`")),
            ),
        }
        slot
    }

    fn type_ref(
        &mut self,
        ty: &TypeRef,
        context: impl FnOnce(String) -> String,
    ) -> (TypeRef<Slot>, ScalarType) {
        match ty {
            TypeRef::Concrete(t) => (TypeRef::Concrete(*t), *t),
            TypeRef::ElemOf(buf) => {
                let slot = self.buffer(buf, context);
                (TypeRef::ElemOf(slot), self.slots[slot].ty)
            }
        }
    }

    fn block(&mut self, stmts: &'k [Stmt]) -> Vec<Stmt<Slot>> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn scoped(&mut self, stmts: &'k [Stmt]) -> Vec<Stmt<Slot>> {
        self.scopes.push(HashMap::new());
        let body = self.block(stmts);
        self.scopes.pop();
        body
    }

    fn stmt(&mut self, stmt: &'k Stmt) -> Stmt<Slot> {
        match stmt {
            Stmt::Let { name, ty, value } => {
                let (value, vt) = self.infer(value);
                if !vt.is_numeric() {
                    self.bad(format!("local `{name}` initialized with a boolean"));
                }
                let (ty, declared) = match ty {
                    Some(t) => {
                        let (t, declared) = self.type_ref(t, |m| format!("local `{name}`: {m}"));
                        (Some(t), declared)
                    }
                    None => (None, vt.resolved()),
                };
                let name = self.declare(name, declared, SlotKind::Local);
                Stmt::Let { name, ty, value }
            }
            Stmt::Assign { name, value } => {
                let (value, vt) = self.infer(value);
                let slot = self.lookup(name);
                let target = &self.slots[slot];
                match target.kind {
                    SlotKind::Local => {
                        if target.ty == ScalarType::Bool || !vt.is_numeric() {
                            self.bad(format!("assignment to `{name}` mixes bool and number"));
                        }
                    }
                    SlotKind::LoopVar => {
                        self.bad(format!("cannot assign to loop variable `{name}`"));
                    }
                    SlotKind::Buffer(_) | SlotKind::Scalar(_) => {
                        self.bad(format!("cannot assign to parameter `{name}`"));
                    }
                    SlotKind::Unbound => self.fail(
                        Cause::Unbound(name.clone()),
                        format!("assignment to undeclared `{name}`"),
                    ),
                }
                Stmt::Assign { name: slot, value }
            }
            Stmt::Store { buf, index, value } => {
                let slot = self.param(buf);
                match self.slots[slot].kind {
                    SlotKind::Buffer(access) if access.writable() => {}
                    SlotKind::Buffer(_) => {
                        self.bad(format!("store to read-only buffer `{buf}`"));
                    }
                    _ => self.fail(
                        Cause::NotABuffer(buf.clone()),
                        format!("store to unknown buffer `{buf}`"),
                    ),
                }
                let index = self.expect_int(index, "store index");
                let (value, vt) = self.infer(value);
                if !vt.is_numeric() {
                    self.bad(format!("storing a boolean into `{buf}`"));
                }
                Stmt::Store {
                    buf: slot,
                    index,
                    value,
                }
            }
            Stmt::For {
                var,
                start,
                end,
                body,
            } => {
                let start = self.expect_int(start, "loop start");
                let end = self.expect_int(end, "loop end");
                self.scopes.push(HashMap::new());
                let var = self.declare(var, ScalarType::Int, SlotKind::LoopVar);
                let body = self.block(body);
                self.scopes.pop();
                Stmt::For {
                    var,
                    start,
                    end,
                    body,
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let (cond, ct) = self.infer(cond);
                if ct != InferTy::Known(ScalarType::Bool) {
                    self.bad("if condition is not a boolean");
                }
                Stmt::If {
                    cond,
                    then_body: self.scoped(then_body),
                    else_body: self.scoped(else_body),
                }
            }
        }
    }

    fn expect_int(&mut self, e: &'k Expr, what: &str) -> Expr<Slot> {
        let (e, t) = self.infer(e);
        if t != InferTy::Known(ScalarType::Int) {
            self.bad(format!("{what} must be an integer, found {t:?}"));
        }
        e
    }

    fn boxed(&mut self, e: &'k Expr) -> (Box<Expr<Slot>>, InferTy) {
        let (e, t) = self.infer(e);
        (Box::new(e), t)
    }

    fn infer(&mut self, e: &'k Expr) -> (Expr<Slot>, InferTy) {
        use InferTy::Known;
        match e {
            Expr::FloatConst(v) => (Expr::FloatConst(*v), InferTy::WeakFloat),
            Expr::IntConst(v) => (Expr::IntConst(*v), Known(ScalarType::Int)),
            Expr::GlobalId(dim) => {
                if *dim > 2 {
                    self.bad(format!("get_global_id({dim}) exceeds 3 dimensions"));
                }
                (Expr::GlobalId(*dim), Known(ScalarType::Int))
            }
            Expr::Var(name) => {
                let slot = self.lookup(name);
                match self.slots[slot].kind {
                    SlotKind::Buffer(_) => self.fail(
                        Cause::Unbound(name.clone()),
                        format!("buffer `{name}` used as a scalar"),
                    ),
                    SlotKind::Unbound => self.fail(
                        Cause::Unbound(name.clone()),
                        format!("unbound variable `{name}`"),
                    ),
                    _ => {}
                }
                (Expr::Var(slot), Known(self.slots[slot].ty))
            }
            Expr::Load { buf, index } => {
                let slot = self.param(buf);
                match self.slots[slot].kind {
                    SlotKind::Buffer(access) if !access.readable() => {
                        self.bad(format!("load from write-only buffer `{buf}`"));
                    }
                    SlotKind::Buffer(_) => {}
                    _ => self.fail(
                        Cause::NotABuffer(buf.clone()),
                        format!("load from unknown buffer `{buf}`"),
                    ),
                }
                let index = Box::new(self.expect_int(index, "load index"));
                let t = Known(self.slots[slot].ty);
                (Expr::Load { buf: slot, index }, t)
            }
            Expr::Unary { op, arg } => {
                let (arg, at) = self.boxed(arg);
                if !at.is_numeric() {
                    self.bad("math function applied to a boolean");
                }
                let t = match (op, at) {
                    // sqrt/exp/log of an int computes in double.
                    (UnaryFn::Neg | UnaryFn::Fabs, _) => at,
                    (_, Known(ScalarType::Int)) => Known(ScalarType::Float(Precision::Double)),
                    (_, other) => other,
                };
                (Expr::Unary { op: *op, arg }, t)
            }
            Expr::Bin { op, lhs, rhs } => {
                let (lhs, lt) = self.boxed(lhs);
                let (rhs, rt) = self.boxed(rhs);
                let t = self.promote(lt, rt);
                (Expr::Bin { op: *op, lhs, rhs }, t)
            }
            Expr::Cmp { op, lhs, rhs } => {
                let (lhs, lt) = self.boxed(lhs);
                let (rhs, rt) = self.boxed(rhs);
                self.promote(lt, rt); // validates numeric operands
                (Expr::Cmp { op: *op, lhs, rhs }, Known(ScalarType::Bool))
            }
            Expr::Cast { to, arg } => {
                let (arg, at) = self.boxed(arg);
                if !at.is_numeric() {
                    self.bad("cast applied to a boolean");
                }
                if *to == TypeRef::Concrete(ScalarType::Bool) {
                    self.bad("cast to bool is not allowed");
                }
                let (to, t) = self.type_ref(to, |m| m);
                (Expr::Cast { to, arg }, Known(t))
            }
            Expr::Select { cond, then, els } => {
                let (cond, ct) = self.boxed(cond);
                if ct != Known(ScalarType::Bool) {
                    self.bad("select condition is not a boolean");
                }
                let (then, tt) = self.boxed(then);
                let (els, et) = self.boxed(els);
                // Arms must agree in kind (both integer or both float):
                // a mixed select would need a branch-dependent conversion.
                let int_arm = |t: InferTy| t == Known(ScalarType::Int);
                if int_arm(tt) != int_arm(et) {
                    self.bad("select arms mix integer and float");
                }
                let t = self.promote(tt, et);
                (Expr::Select { cond, then, els }, t)
            }
        }
    }

    fn promote(&mut self, a: InferTy, b: InferTy) -> InferTy {
        use InferTy::{Known, WeakFloat};
        use ScalarType::{Bool, Float, Int};
        match (a, b) {
            (Known(Bool), _) | (_, Known(Bool)) => {
                self.bad("boolean operand in arithmetic");
                Known(Float(Precision::Double))
            }
            (Known(x), Known(y)) => Known(promote(x.precision(), y.precision()).map_or(Int, Float)),
            (WeakFloat, Known(Float(x))) | (Known(Float(x)), WeakFloat) => Known(Float(x)),
            // A weak literal against an int computes in double (C rules).
            (WeakFloat, Known(Int)) | (Known(Int), WeakFloat) => Known(Float(Precision::Double)),
            (WeakFloat, WeakFloat) => WeakFloat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Access;
    use crate::dsl::*;

    fn simple_kernel(body: Vec<Stmt>) -> Kernel {
        kernel("k")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("c", Precision::Single, Access::Write)
            .int_param("n")
            .float_param_like("alpha", "a")
            .body(body)
    }

    #[test]
    fn valid_kernel_checks() {
        let k = simple_kernel(vec![
            let_("i", global_id(0)),
            if_(
                lt(var("i"), var("n")),
                vec![store(
                    "c",
                    var("i"),
                    var("alpha") * load("a", var("i")) + flit(1.0),
                )],
            ),
        ]);
        check_kernel(&k).unwrap();
    }

    #[test]
    fn load_from_write_only_buffer_fails() {
        let k = simple_kernel(vec![let_("x", load("c", int(0)))]);
        let e = check_kernel(&k).unwrap_err();
        assert!(e.to_string().contains("write-only"), "{e}");
    }

    #[test]
    fn store_to_read_only_buffer_fails() {
        let k = simple_kernel(vec![store("a", int(0), flit(1.0))]);
        let e = check_kernel(&k).unwrap_err();
        assert!(e.to_string().contains("read-only"), "{e}");
    }

    #[test]
    fn float_index_fails() {
        let k = simple_kernel(vec![let_("x", load("a", flit(0.0)))]);
        assert!(check_kernel(&k).is_err());
    }

    #[test]
    fn unbound_variable_fails() {
        let k = simple_kernel(vec![let_("x", var("ghost"))]);
        let e = check_kernel(&k).unwrap_err();
        assert!(e.to_string().contains("unbound"), "{e}");
        assert_eq!(e.kernel(), "k");
    }

    #[test]
    fn assignment_to_loop_var_fails() {
        let k = simple_kernel(vec![for_("i", int(0), int(4), vec![assign("i", int(0))])]);
        assert!(check_kernel(&k).is_err());
    }

    #[test]
    fn loop_scopes_isolate_locals() {
        // `x` declared inside the loop is not visible after it.
        let k = simple_kernel(vec![
            for_("i", int(0), int(4), vec![let_("x", flit(0.0))]),
            assign("x", flit(1.0)),
        ]);
        let e = check_kernel(&k).unwrap_err();
        assert!(e.to_string().contains("undeclared"), "{e}");
    }

    #[test]
    fn redeclaration_in_same_scope_fails() {
        let k = simple_kernel(vec![let_("x", flit(0.0)), let_("x", flit(1.0))]);
        assert!(check_kernel(&k).is_err());
    }

    #[test]
    fn shadowing_a_parameter_fails() {
        let k = simple_kernel(vec![let_("n", int(0))]);
        assert!(check_kernel(&k).is_err());
    }

    #[test]
    fn non_bool_condition_fails() {
        let k = simple_kernel(vec![if_(var("n"), vec![])]);
        assert!(check_kernel(&k).is_err());
    }

    #[test]
    fn weak_literal_adopts_buffer_precision() {
        // a[i] (double) + 1.0 → double; c stores single: fine (implicit
        // store conversion), and the checker accepts the mixed store.
        let k = simple_kernel(vec![
            let_("i", global_id(0)),
            store("c", var("i"), load("a", var("i")) + flit(1.0)),
        ]);
        check_kernel(&k).unwrap();
    }

    #[test]
    fn elem_of_unknown_buffer_in_param_fails() {
        let k = kernel("k").float_param_like("alpha", "ghost").body(vec![]);
        let e = check_kernel(&k).unwrap_err();
        assert!(e.to_string().contains("unknown buffer"), "{e}");
    }

    #[test]
    fn duplicate_kernel_names_fail_program_check() {
        let p = Program::new("p")
            .with_kernel(simple_kernel(vec![]))
            .with_kernel(simple_kernel(vec![]));
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn duplicate_param_names_fail() {
        let k = kernel("k").int_param("n").int_param("n").body(vec![]);
        assert!(check_kernel(&k).is_err());
    }

    #[test]
    fn cast_to_bool_fails() {
        let k = simple_kernel(vec![let_(
            "x",
            Expr::Cast {
                to: TypeRef::Concrete(ScalarType::Bool),
                arg: Box::new(int(1)),
            },
        )]);
        assert!(check_kernel(&k).is_err());
    }

    #[test]
    fn select_promotes_operands() {
        let k = simple_kernel(vec![
            let_("i", global_id(0)),
            let_(
                "x",
                select(lt(var("i"), var("n")), load("a", var("i")), flit(0.0)),
            ),
        ]);
        check_kernel(&k).unwrap();
    }

    #[test]
    fn shadowing_lets_and_reused_loop_names_get_fresh_slots() {
        // Parameters are slots 0..4: a, c, n, alpha.
        let k = simple_kernel(vec![
            let_("x", flit(0.0)), // slot 4
            for_(
                "i", // slot 5
                int(0),
                var("n"),
                vec![
                    let_ty("x", Precision::Single, var("x")), // slot 6, reads 4
                    assign("x", var("x") + flit(1.0)),        // 6 = 6 + 1
                    for_("i", int(0), int(2), vec![assign("x", var("x"))]), // slot 7
                ],
            ),
            store("c", int(0), var("x")), // reads 4
        ]);
        let r = Resolved::checked(&k).unwrap();
        let slots: Vec<_> = r
            .slots
            .iter()
            .map(|s| (s.name.as_str(), s.ty, s.kind.clone()))
            .collect();
        let f = |p| ScalarType::Float(p);
        assert_eq!(
            slots[4..],
            [
                ("x", f(Precision::Double), SlotKind::Local),
                ("i", ScalarType::Int, SlotKind::LoopVar),
                ("x", f(Precision::Single), SlotKind::Local),
                ("i", ScalarType::Int, SlotKind::LoopVar),
            ]
        );
        let (mut defs, mut uses) = (Vec::new(), Vec::new());
        crate::ast::visit_stmts(&r.body, &mut |s| match s {
            Stmt::Let { name, .. } | Stmt::Assign { name, .. } | Stmt::For { var: name, .. } => {
                defs.push(*name);
            }
            _ => {}
        });
        crate::ast::visit_exprs(&r.body, &mut |e| {
            if let Expr::Var(s) = e {
                uses.push(*s);
            }
        });
        assert_eq!(defs, [4, 5, 6, 6, 7, 6]);
        assert_eq!(uses, [2, 4, 6, 6, 4]);
    }
}
