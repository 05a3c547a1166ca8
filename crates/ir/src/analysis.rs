//! Static operation-count analysis.
//!
//! [`count_launch`] computes the [`OpCounts`] a launch *will* incur without
//! touching any float data: an abstract interpretation that tracks integers
//! exactly (global ids, loop variables, scalar arguments) and floats only by
//! precision. For every kernel whose control flow is integer-driven — all of
//! Polybench — the result is bit-identical to the dynamic counts returned by
//! [`crate::interp::run_kernel`], which the test-suite checks.
//!
//! Two optimizations keep the analysis cheap:
//!
//! * a `for` loop whose body's control expressions do not depend on the loop
//!   variable is counted once and scaled by the trip count;
//! * a kernel whose control expressions do not depend on the global id is
//!   counted for one work-item and scaled by the NDRange size.
//!
//! The only approximation is data-dependent control flow: an `if` whose
//! condition involves float data counts its *heavier* branch. (A
//! mixed-precision `select` always converts its narrower arm, in both
//! engines, so it needs no approximation.)

use crate::ast::{Expr, Kernel, Param, Stmt, TypeRef};
use crate::counts::OpCounts;
use crate::interp::{ArgValue, Launch};
use crate::types::{Precision, ScalarType};
use crate::value::{FloatBinOp, UnaryFn};
use core::fmt;
use std::collections::{HashMap, HashSet};

/// An error from the static analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// A scalar parameter had no argument in the launch.
    MissingArg(String),
    /// A loop bound could not be resolved to an integer (data-dependent).
    DataDependentBound(String),
    /// An identifier was used before any binding introduced it. The type
    /// checker rejects such kernels; a malformed kernel that skipped it
    /// must surface a typed error here, never a panic.
    UnboundVar(String),
    /// A load/store target or `ElemOf` reference does not name a buffer
    /// parameter.
    NotABuffer(String),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::MissingArg(n) => write!(f, "no value for scalar parameter `{n}`"),
            AnalysisError::DataDependentBound(k) => {
                write!(f, "kernel `{k}` has a data-dependent loop bound")
            }
            AnalysisError::UnboundVar(n) => write!(f, "`{n}` is used before being bound"),
            AnalysisError::NotABuffer(n) => write!(f, "`{n}` does not name a buffer parameter"),
        }
    }
}

/// Resolves a [`TypeRef`] without panicking: a dangling `ElemOf` is a
/// typed error, not a crash.
fn resolve_ty(kernel: &Kernel, ty: &TypeRef) -> Result<ScalarType, AnalysisError> {
    match ty {
        TypeRef::Concrete(t) => Ok(*t),
        TypeRef::ElemOf(buf) => kernel
            .buffer_elem(buf)
            .map(ScalarType::Float)
            .ok_or_else(|| AnalysisError::NotABuffer(buf.clone())),
    }
}

impl std::error::Error for AnalysisError {}

/// An abstract runtime value.
#[derive(Clone, Copy, Debug, PartialEq)]
enum AbsVal {
    /// An exactly known integer.
    Int(i64),
    /// A float of known precision, unknown value.
    Float(Precision),
    /// A boolean, known when `Some`.
    Bool(Option<bool>),
}

impl AbsVal {
    fn precision(self) -> Option<Precision> {
        match self {
            AbsVal::Float(p) => Some(p),
            _ => None,
        }
    }
}

/// Statically counts the operations of one kernel launch.
///
/// # Errors
///
/// Returns [`AnalysisError`] when a scalar argument is missing or a loop
/// bound depends on float data. The kernel must already type-check.
pub fn count_launch(kernel: &Kernel, launch: &Launch) -> Result<OpCounts, AnalysisError> {
    let mut scalars = HashMap::new();
    for p in &kernel.params {
        if let Param::Scalar { name, ty } = p {
            let arg = launch
                .args
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| AnalysisError::MissingArg(name.clone()))?;
            let v = match (resolve_ty(kernel, ty)?, arg) {
                (ScalarType::Int, ArgValue::Int(v)) => AbsVal::Int(v),
                (ScalarType::Float(p), _) => AbsVal::Float(p),
                (ScalarType::Int, ArgValue::Float(_)) => {
                    return Err(AnalysisError::MissingArg(name.clone()))
                }
                (ScalarType::Bool, _) => AbsVal::Bool(None),
            };
            scalars.insert(name.clone(), v);
        }
    }

    let deps = control_deps(&kernel.body);
    let uniform_over_items = !deps.contains(GID0) && !deps.contains(GID1);

    let mut ai = Absint {
        kernel,
        scalars,
        scopes: Vec::new(),
        gid: [0, 0],
    };

    if uniform_over_items {
        let one = ai.item()?;
        Ok(one.scaled(launch.items() as u64))
    } else {
        let mut total = OpCounts::new();
        // Row uniformity: if only gid(0) matters, count one row and scale
        // by the number of rows (and vice versa).
        let needs0 = deps.contains(GID0);
        let needs1 = deps.contains(GID1);
        let (nx, ny) = (launch.global[0], launch.global[1]);
        match (needs0, needs1) {
            (true, false) => {
                for gx in 0..nx {
                    ai.gid = [gx as i64, 0];
                    total += ai.item()?;
                }
                total = total.scaled(ny as u64);
            }
            (false, true) => {
                for gy in 0..ny {
                    ai.gid = [0, gy as i64];
                    total += ai.item()?;
                }
                total = total.scaled(nx as u64);
            }
            _ => {
                for gy in 0..ny {
                    for gx in 0..nx {
                        ai.gid = [gx as i64, gy as i64];
                        total += ai.item()?;
                    }
                }
            }
        }
        Ok(total)
    }
}

const GID0: &str = "%gid0";
const GID1: &str = "%gid1";

/// Free identifiers of an expression (`%gid0`/`%gid1` for global ids).
fn free_vars(e: &Expr, out: &mut HashSet<String>) {
    match e {
        Expr::FloatConst(_) | Expr::IntConst(_) => {}
        Expr::Var(n) => {
            out.insert(n.clone());
        }
        Expr::GlobalId(d) => {
            out.insert(if *d == 0 { GID0 } else { GID1 }.to_owned());
        }
        Expr::Load { index, .. } => free_vars(index, out),
        Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => free_vars(arg, out),
        Expr::Bin { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
            free_vars(lhs, out);
            free_vars(rhs, out);
        }
        Expr::Select { cond, then, els } => {
            free_vars(cond, out);
            free_vars(then, out);
            free_vars(els, out);
        }
    }
}

/// The set of variables (transitively) feeding any control expression
/// (loop bound, `if` condition, `select` condition) in `body`.
fn control_deps(body: &[Stmt]) -> HashSet<String> {
    // Gather direct control-expression variables and def→use edges.
    let mut control = HashSet::new();
    let mut defs: Vec<(String, HashSet<String>)> = Vec::new();

    fn walk(
        stmts: &[Stmt],
        control: &mut HashSet<String>,
        defs: &mut Vec<(String, HashSet<String>)>,
    ) {
        for s in stmts {
            match s {
                Stmt::Let { name, value, .. } | Stmt::Assign { name, value } => {
                    let mut fv = HashSet::new();
                    free_vars(value, &mut fv);
                    collect_select_conds(value, control);
                    defs.push((name.clone(), fv));
                }
                Stmt::Store { index, value, .. } => {
                    collect_select_conds(index, control);
                    collect_select_conds(value, control);
                }
                Stmt::For {
                    start, end, body, ..
                } => {
                    free_vars(start, control);
                    free_vars(end, control);
                    collect_select_conds(start, control);
                    collect_select_conds(end, control);
                    walk(body, control, defs);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    free_vars(cond, control);
                    collect_select_conds(cond, control);
                    walk(then_body, control, defs);
                    walk(else_body, control, defs);
                }
            }
        }
    }

    fn collect_select_conds(e: &Expr, control: &mut HashSet<String>) {
        match e {
            Expr::Select { cond, then, els } => {
                free_vars(cond, control);
                collect_select_conds(cond, control);
                collect_select_conds(then, control);
                collect_select_conds(els, control);
            }
            Expr::Load { index, .. } => collect_select_conds(index, control),
            Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => collect_select_conds(arg, control),
            Expr::Bin { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
                collect_select_conds(lhs, control);
                collect_select_conds(rhs, control);
            }
            _ => {}
        }
    }

    walk(body, &mut control, &mut defs);

    // Transitive closure: a variable feeding a control-relevant variable is
    // itself control-relevant.
    loop {
        let mut changed = false;
        for (name, fv) in &defs {
            if control.contains(name) {
                for v in fv {
                    changed |= control.insert(v.clone());
                }
            }
        }
        if !changed {
            break;
        }
    }
    control
}

struct Absint<'k> {
    kernel: &'k Kernel,
    scalars: HashMap<String, AbsVal>,
    scopes: Vec<HashMap<&'k str, AbsVal>>,
    gid: [i64; 2],
}

impl<'k> Absint<'k> {
    fn item(&mut self) -> Result<OpCounts, AnalysisError> {
        self.scopes.clear();
        self.scopes.push(HashMap::new());
        let mut counts = OpCounts::new();
        let body: &'k [Stmt] = &self.kernel.body;
        self.block(body, &mut counts)?;
        Ok(counts)
    }

    fn err_bound(&self) -> AnalysisError {
        AnalysisError::DataDependentBound(self.kernel.name.clone())
    }

    fn lookup(&self, name: &str) -> Result<AbsVal, AnalysisError> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Ok(*v);
            }
        }
        self.scalars
            .get(name)
            .copied()
            .ok_or_else(|| AnalysisError::UnboundVar(name.to_owned()))
    }

    /// The innermost scope. The stack is never empty while a body is
    /// analyzed ([`Absint::item`] seeds it), but a typed fallback beats a
    /// panic in a serving worker.
    fn top_scope(&mut self) -> &mut HashMap<&'k str, AbsVal> {
        if self.scopes.is_empty() {
            self.scopes.push(HashMap::new());
        }
        let top = self.scopes.len() - 1;
        &mut self.scopes[top]
    }

    fn block(&mut self, stmts: &'k [Stmt], counts: &mut OpCounts) -> Result<(), AnalysisError> {
        for s in stmts {
            self.stmt(s, counts)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &'k Stmt, counts: &mut OpCounts) -> Result<(), AnalysisError> {
        match stmt {
            Stmt::Let { name, ty, value } => {
                let declared = match ty {
                    Some(t) => Some(resolve_ty(self.kernel, t)?),
                    None => None,
                };
                let hint = declared.and_then(|t| match t {
                    ScalarType::Float(p) => Some(p),
                    _ => None,
                });
                let mut v = self.eval(value, hint, counts)?;
                if let Some(t) = declared {
                    v = self.coerce(v, t, counts);
                }
                self.top_scope().insert(name.as_str(), v);
                Ok(())
            }
            Stmt::Assign { name, value } => {
                let current = self.lookup(name)?;
                let hint = current.precision();
                let v = self.eval(value, hint, counts)?;
                let target = match current {
                    AbsVal::Int(_) => ScalarType::Int,
                    AbsVal::Float(p) => ScalarType::Float(p),
                    AbsVal::Bool(_) => ScalarType::Bool,
                };
                let v = self.coerce(v, target, counts);
                for scope in self.scopes.iter_mut().rev() {
                    if let Some(slot) = scope.get_mut(name.as_str()) {
                        *slot = v;
                        return Ok(());
                    }
                }
                // Bound in `scalars` only: assignment to a parameter, which
                // the type checker rejects — surface it as typed, not fatal.
                Err(AnalysisError::UnboundVar(name.clone()))
            }
            Stmt::Store { buf, index, value } => {
                let elem = self
                    .kernel
                    .buffer_elem(buf)
                    .ok_or_else(|| AnalysisError::NotABuffer(buf.clone()))?;
                let _ = self.eval(index, None, counts)?;
                let v = self.eval(value, Some(elem), counts)?;
                if v.precision() != Some(elem) {
                    counts.converts += 1;
                }
                counts.at_mut(elem).stores += 1;
                Ok(())
            }
            Stmt::For {
                var,
                start,
                end,
                body,
            } => {
                let AbsVal::Int(s) = self.eval(start, None, counts)? else {
                    return Err(self.err_bound());
                };
                let AbsVal::Int(e) = self.eval(end, None, counts)? else {
                    return Err(self.err_bound());
                };
                let trips = (e - s).max(0) as u64;
                counts.int_ops += 2 * trips;
                if trips == 0 {
                    return Ok(());
                }
                // One pass scaled by the trip count is exact when no
                // control decision depends on the loop variable and the
                // body reassigns no outer integer: such a variable would
                // change from trip to trip, and its value after the loop
                // would be one trip's worth off.
                let mut assigned = HashSet::new();
                assigned_vars(body, &mut assigned);
                let uniform = !control_deps(body).contains(var.as_str())
                    && !assigned
                        .iter()
                        .any(|n| matches!(self.lookup(n), Ok(AbsVal::Int(_))));
                self.scopes.push(HashMap::new());
                let result = (|| {
                    if uniform {
                        self.top_scope().insert(var.as_str(), AbsVal::Int(s));
                        let mut one = OpCounts::new();
                        self.block(body, &mut one)?;
                        *counts += one.scaled(trips);
                        Ok(())
                    } else {
                        for i in s..e {
                            self.top_scope().insert(var.as_str(), AbsVal::Int(i));
                            self.block(body, counts)?;
                        }
                        Ok(())
                    }
                })();
                self.scopes.pop();
                result
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond, None, counts)?;
                match c {
                    AbsVal::Bool(Some(b)) => {
                        self.scopes.push(HashMap::new());
                        let r = if b {
                            self.block(then_body, counts)
                        } else {
                            self.block(else_body, counts)
                        };
                        self.scopes.pop();
                        r
                    }
                    _ => {
                        // Data-dependent branch: count the heavier side.
                        let mut t = OpCounts::new();
                        self.scopes.push(HashMap::new());
                        let rt = self.block(then_body, &mut t);
                        self.scopes.pop();
                        rt?;
                        let mut e = OpCounts::new();
                        self.scopes.push(HashMap::new());
                        let re = self.block(else_body, &mut e);
                        self.scopes.pop();
                        re?;
                        let wt = t.total_flops() + t.converts + t.int_ops;
                        let we = e.total_flops() + e.converts + e.int_ops;
                        *counts += if we > wt { e } else { t };
                        Ok(())
                    }
                }
            }
        }
    }

    fn coerce(&self, v: AbsVal, target: ScalarType, counts: &mut OpCounts) -> AbsVal {
        match (v, target) {
            (AbsVal::Bool(_), _) | (_, ScalarType::Bool) => v,
            (AbsVal::Int(_), ScalarType::Int) => v,
            (AbsVal::Int(_), ScalarType::Float(p)) => {
                counts.converts += 1;
                AbsVal::Float(p)
            }
            (AbsVal::Float(_), ScalarType::Int) => {
                counts.converts += 1;
                // Value unknown: integer becomes data-dependent. Use 0 as a
                // placeholder; using it in a bound raises an error later.
                AbsVal::Bool(None)
            }
            (AbsVal::Float(q), ScalarType::Float(p)) => {
                if q != p {
                    counts.converts += 1;
                }
                AbsVal::Float(p)
            }
        }
    }

    fn eval(
        &mut self,
        e: &'k Expr,
        hint: Option<Precision>,
        counts: &mut OpCounts,
    ) -> Result<AbsVal, AnalysisError> {
        match e {
            Expr::FloatConst(_) => Ok(AbsVal::Float(hint.unwrap_or(Precision::Double))),
            Expr::IntConst(v) => Ok(AbsVal::Int(*v)),
            Expr::GlobalId(d) => Ok(AbsVal::Int(if *d < 2 { self.gid[*d] } else { 0 })),
            Expr::Var(name) => self.lookup(name),
            Expr::Load { buf, index } => {
                let _ = self.eval(index, None, counts)?;
                let elem = self
                    .kernel
                    .buffer_elem(buf)
                    .ok_or_else(|| AnalysisError::NotABuffer(buf.clone()))?;
                counts.at_mut(elem).loads += 1;
                Ok(AbsVal::Float(elem))
            }
            Expr::Unary { op, arg } => {
                let v = self.eval(arg, hint, counts)?;
                match v {
                    AbsVal::Float(p) => {
                        let slot = counts.at_mut(p);
                        match op {
                            UnaryFn::Neg | UnaryFn::Fabs => slot.add_sub += 1,
                            _ => slot.special += 1,
                        }
                        Ok(AbsVal::Float(p))
                    }
                    AbsVal::Int(x) => {
                        counts.int_ops += 1;
                        match op {
                            UnaryFn::Neg => Ok(AbsVal::Int(x.wrapping_neg())),
                            UnaryFn::Fabs => Ok(AbsVal::Int(x.wrapping_abs())),
                            _ => Ok(AbsVal::Float(Precision::Double)),
                        }
                    }
                    AbsVal::Bool(_) => Ok(v),
                }
            }
            Expr::Bin { op, lhs, rhs } => {
                let (a, b) = self.eval_pair(lhs, rhs, hint, counts)?;
                match (a, b) {
                    (AbsVal::Int(x), AbsVal::Int(y)) => {
                        counts.int_ops += 1;
                        Ok(AbsVal::Int(apply_int(*op, x, y)))
                    }
                    _ => {
                        let p = promoted_abs(a, b);
                        counts_for_bin(*op, p, counts);
                        Ok(AbsVal::Float(p))
                    }
                }
            }
            Expr::Cmp { op, lhs, rhs } => {
                let (a, b) = self.eval_pair(lhs, rhs, None, counts)?;
                match (a, b) {
                    (AbsVal::Int(x), AbsVal::Int(y)) => {
                        counts.int_ops += 1;
                        Ok(AbsVal::Bool(Some(match op {
                            crate::value::CmpOp::Lt => x < y,
                            crate::value::CmpOp::Le => x <= y,
                            crate::value::CmpOp::Gt => x > y,
                            crate::value::CmpOp::Ge => x >= y,
                            crate::value::CmpOp::Eq => x == y,
                            crate::value::CmpOp::Ne => x != y,
                        })))
                    }
                    _ => {
                        counts.at_mut(promoted_abs(a, b)).cmp += 1;
                        Ok(AbsVal::Bool(None))
                    }
                }
            }
            Expr::Cast { to, arg } => {
                let v = self.eval(arg, None, counts)?;
                let to = resolve_ty(self.kernel, to)?;
                Ok(self.coerce(v, to, counts))
            }
            Expr::Select { cond, then, els } => {
                let c = self.eval(cond, None, counts)?;
                let (a, b) = self.eval_pair(then, els, hint, counts)?;
                match (a, b) {
                    (AbsVal::Int(x), AbsVal::Int(y)) => Ok(match c {
                        AbsVal::Bool(Some(true)) => AbsVal::Int(x),
                        AbsVal::Bool(Some(false)) => AbsVal::Int(y),
                        _ => AbsVal::Bool(None),
                    }),
                    _ => {
                        // Mixed-precision arms convert the narrower arm,
                        // branch-independently (matches the interpreter).
                        if a.precision() != b.precision() {
                            counts.converts += 1;
                        }
                        Ok(AbsVal::Float(promoted_abs(a, b)))
                    }
                }
            }
        }
    }

    fn eval_pair(
        &mut self,
        lhs: &'k Expr,
        rhs: &'k Expr,
        hint: Option<Precision>,
        counts: &mut OpCounts,
    ) -> Result<(AbsVal, AbsVal), AnalysisError> {
        let lw = expr_is_weak(lhs);
        let rw = expr_is_weak(rhs);
        if lw && !rw {
            let b = self.eval(rhs, hint, counts)?;
            let a = self.eval(lhs, b.precision(), counts)?;
            Ok((a, b))
        } else if rw && !lw {
            let a = self.eval(lhs, hint, counts)?;
            let b = self.eval(rhs, a.precision(), counts)?;
            Ok((a, b))
        } else {
            let a = self.eval(lhs, hint, counts)?;
            let b = self.eval(rhs, hint, counts)?;
            Ok((a, b))
        }
    }
}

fn expr_is_weak(e: &Expr) -> bool {
    match e {
        Expr::FloatConst(_) => true,
        Expr::Unary { arg, .. } => expr_is_weak(arg),
        Expr::Bin { lhs, rhs, .. } => expr_is_weak(lhs) && expr_is_weak(rhs),
        Expr::Select { then, els, .. } => expr_is_weak(then) && expr_is_weak(els),
        _ => false,
    }
}

fn promoted_abs(a: AbsVal, b: AbsVal) -> Precision {
    match (a.precision(), b.precision()) {
        (Some(x), Some(y)) => x.max(y),
        (Some(x), None) | (None, Some(x)) => x,
        (None, None) => Precision::Double,
    }
}

fn counts_for_bin(op: FloatBinOp, p: Precision, counts: &mut OpCounts) {
    let slot = counts.at_mut(p);
    match op {
        FloatBinOp::Add | FloatBinOp::Sub | FloatBinOp::Min | FloatBinOp::Max => slot.add_sub += 1,
        FloatBinOp::Mul => slot.mul += 1,
        FloatBinOp::Div => slot.div += 1,
    }
}

fn apply_int(op: FloatBinOp, x: i64, y: i64) -> i64 {
    match op {
        FloatBinOp::Add => x.wrapping_add(y),
        FloatBinOp::Sub => x.wrapping_sub(y),
        FloatBinOp::Mul => x.wrapping_mul(y),
        FloatBinOp::Div => {
            if y == 0 {
                0
            } else {
                x.wrapping_div(y)
            }
        }
        FloatBinOp::Min => x.min(y),
        FloatBinOp::Max => x.max(y),
    }
}

// ---------------------------------------------------------------------------
// Disjoint-write analysis (data-parallel safety)
// ---------------------------------------------------------------------------

/// Verdict of the disjoint-write analysis: may a launch of this kernel be
/// partitioned into NDRange chunks that execute concurrently?
///
/// The analysis proves (conservatively) that every store a work-item
/// performs hits only locations indexed *injectively* by its global id —
/// the row-major `c[i*n + j]` shape every Polybench kernel has. Kernels
/// with data-dependent store indices, or whose stored buffers are read
/// through indices the analysis cannot express, are `Unproven` and must
/// run sequentially.
///
/// The verdict is launch-independent; index coefficients stay symbolic in
/// the kernel's integer arguments and are resolved per launch by
/// [`WriteSummary::resolve`].
#[derive(Clone, Debug)]
pub enum ParallelSafety {
    /// Every store index is affine in the global id; per-launch
    /// disjointness is decided by [`WriteSummary::resolve`].
    Disjoint(WriteSummary),
    /// Disjointness could not be proven; execution must stay sequential.
    Unproven(&'static str),
}

/// A symbolic integer over the kernel's integer scalar parameters.
///
/// Mirrors the kernel's own expression tree node-for-node over `+`, `-`,
/// `*`, so its exact (checked) evaluation agrees with the VM's wrapping
/// evaluation whenever the true value fits in `i64`: wrapping arithmetic
/// is a ring homomorphism onto `Z/2^64`, and a representable true value
/// pins the wrapped one.
#[derive(Clone, Debug, PartialEq)]
enum Sym {
    Const(i64),
    Arg(String),
    Add(Box<Sym>, Box<Sym>),
    Sub(Box<Sym>, Box<Sym>),
    Mul(Box<Sym>, Box<Sym>),
}

impl Sym {
    fn eval(&self, args: &[(String, ArgValue)]) -> Option<i64> {
        match self {
            Sym::Const(v) => Some(*v),
            Sym::Arg(n) => match args.iter().rev().find(|(name, _)| name == n) {
                Some((_, ArgValue::Int(v))) => Some(*v),
                _ => None,
            },
            Sym::Add(a, b) => a.eval(args)?.checked_add(b.eval(args)?),
            Sym::Sub(a, b) => a.eval(args)?.checked_sub(b.eval(args)?),
            Sym::Mul(a, b) => a.eval(args)?.checked_mul(b.eval(args)?),
        }
    }
}

/// A buffer index affine in the global id: `c0*gid0 + c1*gid1 + b`, with
/// symbolic coefficients (`None` means a coefficient of zero).
#[derive(Clone, Debug)]
struct AffineIdx {
    c0: Option<Sym>,
    c1: Option<Sym>,
    b: Sym,
}

impl AffineIdx {
    fn constant(v: i64) -> AffineIdx {
        AffineIdx {
            c0: None,
            c1: None,
            b: Sym::Const(v),
        }
    }

    fn gid(dim: usize) -> AffineIdx {
        let unit = Some(Sym::Const(1));
        match dim {
            0 => AffineIdx {
                c0: unit,
                c1: None,
                b: Sym::Const(0),
            },
            1 => AffineIdx {
                c0: None,
                c1: unit,
                b: Sym::Const(0),
            },
            _ => AffineIdx::constant(0),
        }
    }

    /// `true` when both global-id coefficients are zero.
    fn is_pure(&self) -> bool {
        self.c0.is_none() && self.c1.is_none()
    }
}

fn sym_add(a: Option<Sym>, b: Option<Sym>) -> Option<Sym> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => Some(Sym::Add(Box::new(x), Box::new(y))),
    }
}

fn sym_sub(a: Option<Sym>, b: Option<Sym>) -> Option<Sym> {
    match (a, b) {
        (x, None) => x,
        (None, Some(y)) => Some(Sym::Sub(Box::new(Sym::Const(0)), Box::new(y))),
        (Some(x), Some(y)) => Some(Sym::Sub(Box::new(x), Box::new(y))),
    }
}

fn affine_add(a: &AffineIdx, b: &AffineIdx) -> AffineIdx {
    AffineIdx {
        c0: sym_add(a.c0.clone(), b.c0.clone()),
        c1: sym_add(a.c1.clone(), b.c1.clone()),
        b: Sym::Add(Box::new(a.b.clone()), Box::new(b.b.clone())),
    }
}

fn affine_sub(a: &AffineIdx, b: &AffineIdx) -> AffineIdx {
    AffineIdx {
        c0: sym_sub(a.c0.clone(), b.c0.clone()),
        c1: sym_sub(a.c1.clone(), b.c1.clone()),
        b: Sym::Sub(Box::new(a.b.clone()), Box::new(b.b.clone())),
    }
}

fn affine_neg(a: &AffineIdx) -> AffineIdx {
    affine_sub(&AffineIdx::constant(0), a)
}

/// `a * k` where `k` has no global-id component.
fn affine_scale(a: &AffineIdx, k: &Sym) -> AffineIdx {
    let scale = |c: &Option<Sym>| {
        c.as_ref()
            .map(|s| Sym::Mul(Box::new(s.clone()), Box::new(k.clone())))
    };
    AffineIdx {
        c0: scale(&a.c0),
        c1: scale(&a.c1),
        b: Sym::Mul(Box::new(a.b.clone()), Box::new(k.clone())),
    }
}

/// Abstract value of the disjoint-write walker: an affine integer index
/// or an opaque value (floats, loop variables, loaded data, …).
#[derive(Clone, Debug)]
enum PVal {
    Affine(AffineIdx),
    Opaque,
}

/// The affine access footprint of every *stored* buffer of a kernel.
///
/// Launch-independent: coefficients are symbolic in the kernel's integer
/// arguments. [`WriteSummary::resolve`] instantiates them for one launch
/// and decides whether contiguous NDRange chunks write disjoint index
/// ranges.
#[derive(Clone, Debug)]
pub struct WriteSummary {
    bufs: Vec<BufSites>,
}

#[derive(Clone, Debug)]
struct BufSites {
    name: String,
    /// Every store *and* load site of the buffer (loads are constrained
    /// too: a chunk may only read locations no other chunk writes).
    sites: Vec<AffineIdx>,
}

/// Per-buffer access record accumulated by the walker.
#[derive(Default)]
struct BufRecord {
    stored: bool,
    opaque_store: bool,
    opaque_load: bool,
    sites: Vec<AffineIdx>,
}

/// Variables assigned (not `let`-bound) anywhere in `stmts`, transitively.
fn assigned_vars(stmts: &[Stmt], out: &mut HashSet<String>) {
    for s in stmts {
        match s {
            Stmt::Assign { name, .. } => {
                out.insert(name.clone());
            }
            Stmt::Let { .. } | Stmt::Store { .. } => {}
            Stmt::For { body, .. } => assigned_vars(body, out),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                assigned_vars(then_body, out);
                assigned_vars(else_body, out);
            }
        }
    }
}

struct ParWalk<'k> {
    kernel: &'k Kernel,
    scopes: Vec<HashMap<String, PVal>>,
    bufs: HashMap<String, BufRecord>,
}

impl ParWalk<'_> {
    fn top(&mut self) -> &mut HashMap<String, PVal> {
        if self.scopes.is_empty() {
            self.scopes.push(HashMap::new());
        }
        let top = self.scopes.len() - 1;
        &mut self.scopes[top]
    }

    fn lookup(&self, name: &str) -> PVal {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return v.clone();
            }
        }
        match self.kernel.param(name) {
            Some(Param::Scalar { ty, .. }) => match resolve_ty(self.kernel, ty) {
                Ok(ScalarType::Int) => PVal::Affine(AffineIdx {
                    c0: None,
                    c1: None,
                    b: Sym::Arg(name.to_owned()),
                }),
                _ => PVal::Opaque,
            },
            _ => PVal::Opaque,
        }
    }

    /// Forgets what is known about `name` (it is about to be mutated by a
    /// loop body or a branch).
    fn invalidate(&mut self, name: &str) {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = PVal::Opaque;
                return;
            }
        }
        // A parameter (or unbound name): shadow it in the root scope so
        // later lookups see the invalidation.
        if self.scopes.is_empty() {
            self.scopes.push(HashMap::new());
        }
        self.scopes[0].insert(name.to_owned(), PVal::Opaque);
    }

    fn set(&mut self, name: &str, v: PVal) {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = v;
                return;
            }
        }
        if self.scopes.is_empty() {
            self.scopes.push(HashMap::new());
        }
        self.scopes[0].insert(name.to_owned(), v);
    }

    fn record_store(&mut self, buf: &str, idx: PVal) {
        let rec = self.bufs.entry(buf.to_owned()).or_default();
        rec.stored = true;
        match idx {
            PVal::Affine(a) => rec.sites.push(a),
            PVal::Opaque => rec.opaque_store = true,
        }
    }

    fn record_load(&mut self, buf: &str, idx: PVal) {
        let rec = self.bufs.entry(buf.to_owned()).or_default();
        match idx {
            PVal::Affine(a) => rec.sites.push(a),
            PVal::Opaque => rec.opaque_load = true,
        }
    }

    fn walk(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Let { name, ty, value } => {
                let v = self.eval(value);
                // A declared non-int type makes the binding opaque (float
                // coercion loses the index structure).
                let v = match ty {
                    Some(t) => match resolve_ty(self.kernel, t) {
                        Ok(ScalarType::Int) => v,
                        _ => PVal::Opaque,
                    },
                    None => v,
                };
                self.top().insert(name.clone(), v);
            }
            Stmt::Assign { name, value } => {
                let v = self.eval(value);
                self.set(name, v);
            }
            Stmt::Store { buf, index, value } => {
                let iv = self.eval(index);
                let _ = self.eval(value); // records loads inside the value
                self.record_store(buf, iv);
            }
            Stmt::For {
                var,
                start,
                end,
                body,
            } => {
                let _ = self.eval(start);
                let _ = self.eval(end);
                // One conservative pass over the body: anything it assigns
                // is unknown across iterations, as is the loop variable.
                let mut assigned = HashSet::new();
                assigned_vars(body, &mut assigned);
                for n in &assigned {
                    self.invalidate(n);
                }
                self.scopes.push(HashMap::new());
                self.top().insert(var.clone(), PVal::Opaque);
                self.walk(body);
                self.scopes.pop();
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let _ = self.eval(cond);
                // Walk each branch against a private copy of the
                // environment (sites accumulate in `self.bufs` across
                // both), then forget anything either branch assigns.
                let saved = self.scopes.clone();
                self.scopes.push(HashMap::new());
                self.walk(then_body);
                self.scopes.clone_from(&saved);
                self.scopes.push(HashMap::new());
                self.walk(else_body);
                self.scopes = saved;
                let mut assigned = HashSet::new();
                assigned_vars(then_body, &mut assigned);
                assigned_vars(else_body, &mut assigned);
                for n in &assigned {
                    self.invalidate(n);
                }
            }
        }
    }

    fn eval(&mut self, e: &Expr) -> PVal {
        match e {
            Expr::IntConst(v) => PVal::Affine(AffineIdx::constant(*v)),
            Expr::FloatConst(_) => PVal::Opaque,
            Expr::GlobalId(d) => PVal::Affine(AffineIdx::gid(*d)),
            Expr::Var(n) => self.lookup(n),
            Expr::Load { buf, index } => {
                let iv = self.eval(index);
                self.record_load(buf, iv);
                PVal::Opaque
            }
            Expr::Unary { op, arg } => {
                let v = self.eval(arg);
                match (op, v) {
                    (UnaryFn::Neg, PVal::Affine(a)) => PVal::Affine(affine_neg(&a)),
                    _ => PVal::Opaque,
                }
            }
            Expr::Cast { to, arg } => {
                let v = self.eval(arg);
                match resolve_ty(self.kernel, to) {
                    Ok(ScalarType::Int) => v,
                    _ => PVal::Opaque,
                }
            }
            Expr::Bin { op, lhs, rhs } => {
                let a = self.eval(lhs);
                let b = self.eval(rhs);
                let (PVal::Affine(a), PVal::Affine(b)) = (a, b) else {
                    return PVal::Opaque;
                };
                match op {
                    FloatBinOp::Add => PVal::Affine(affine_add(&a, &b)),
                    FloatBinOp::Sub => PVal::Affine(affine_sub(&a, &b)),
                    FloatBinOp::Mul => {
                        if b.is_pure() {
                            PVal::Affine(affine_scale(&a, &b.b))
                        } else if a.is_pure() {
                            PVal::Affine(affine_scale(&b, &a.b))
                        } else {
                            PVal::Opaque
                        }
                    }
                    FloatBinOp::Div | FloatBinOp::Min | FloatBinOp::Max => PVal::Opaque,
                }
            }
            Expr::Cmp { lhs, rhs, .. } => {
                let _ = self.eval(lhs);
                let _ = self.eval(rhs);
                PVal::Opaque
            }
            Expr::Select { cond, then, els } => {
                let _ = self.eval(cond);
                let _ = self.eval(then);
                let _ = self.eval(els);
                PVal::Opaque
            }
        }
    }
}

/// Runs the disjoint-write analysis over one kernel.
///
/// The result is launch-independent and intended to be computed once at
/// compile time (see `CompiledKernel` in [`crate::vm`]); per-launch
/// disjointness is then decided by [`WriteSummary::resolve`].
#[must_use]
pub fn parallel_safety(kernel: &Kernel) -> ParallelSafety {
    let mut w = ParWalk {
        kernel,
        scopes: vec![HashMap::new()],
        bufs: HashMap::new(),
    };
    w.walk(&kernel.body);

    let mut bufs = Vec::new();
    for (name, rec) in w.bufs {
        if !rec.stored {
            continue;
        }
        if rec.opaque_store {
            return ParallelSafety::Unproven("a store index is not affine in the global id");
        }
        if rec.opaque_load {
            return ParallelSafety::Unproven("a stored buffer is loaded at a non-affine index");
        }
        bufs.push(BufSites {
            name,
            sites: rec.sites,
        });
    }
    // Deterministic order (HashMap iteration is not).
    bufs.sort_by(|a, b| a.name.cmp(&b.name));
    ParallelSafety::Disjoint(WriteSummary { bufs })
}

/// One stored buffer's launch-resolved access pattern. For a chunk of the
/// partition axis `[u0, u1)` the buffer's accessed index range is
/// `[min(c*u0, c*(u1-1)) + off_lo, max(c*u0, c*(u1-1)) + off_hi]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolvedBuf {
    name: String,
    c: i64,
    off_lo: i64,
    off_hi: i64,
}

impl ResolvedBuf {
    /// The buffer parameter name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The inclusive index interval accessed by partition-axis values
    /// `[u0, u1)`, or `None` on arithmetic overflow. `u0 < u1` required.
    #[must_use]
    pub fn interval(&self, u0: usize, u1: usize) -> Option<(i64, i64)> {
        let a = self.c.checked_mul(i64::try_from(u0).ok()?)?;
        let b = self
            .c
            .checked_mul(i64::try_from(u1.checked_sub(1)?).ok()?)?;
        Some((
            a.min(b).checked_add(self.off_lo)?,
            a.max(b).checked_add(self.off_hi)?,
        ))
    }
}

/// A launch-resolved partition proof: chunking the NDRange into
/// contiguous runs of the partition axis gives every chunk a disjoint
/// write interval in every stored buffer.
#[derive(Clone, Debug)]
pub struct ChunkPlan {
    along_rows: bool,
    bufs: Vec<ResolvedBuf>,
}

impl ChunkPlan {
    /// `true` when the partition axis is `gid(1)` (row chunks); `false`
    /// when it is `gid(0)` (only used for 1-D launches).
    #[must_use]
    pub fn along_rows(&self) -> bool {
        self.along_rows
    }

    /// The stored buffers, in deterministic (name) order.
    #[must_use]
    pub fn buffers(&self) -> &[ResolvedBuf] {
        &self.bufs
    }
}

impl WriteSummary {
    /// Instantiates the summary for one launch and checks that contiguous
    /// chunks of the partition axis write disjoint, monotone index
    /// intervals in every stored buffer. Returns `None` (sequential
    /// fallback) when any coefficient cannot be resolved to an integer,
    /// any arithmetic overflows, sites of one buffer disagree on their
    /// global-id coefficients, or the per-axis stride does not dominate
    /// the in-chunk spread.
    #[must_use]
    pub fn resolve(&self, launch: &Launch) -> Option<ChunkPlan> {
        let (nx, ny) = (launch.global[0], launch.global[1]);
        let along_rows = ny >= 2;
        let mut bufs = Vec::with_capacity(self.bufs.len());
        for b in &self.bufs {
            // All sites of a stored buffer must agree on (c0, c1); the
            // constant terms may differ (their span widens the interval).
            let mut first: Option<(i64, i64)> = None;
            let (mut b_min, mut b_max) = (i64::MAX, i64::MIN);
            for site in &b.sites {
                let c0 = match &site.c0 {
                    Some(s) => s.eval(&launch.args)?,
                    None => 0,
                };
                let c1 = match &site.c1 {
                    Some(s) => s.eval(&launch.args)?,
                    None => 0,
                };
                match first {
                    None => first = Some((c0, c1)),
                    Some(f) if f != (c0, c1) => return None,
                    Some(_) => {}
                }
                let bv = site.b.eval(&launch.args)?;
                b_min = b_min.min(bv);
                b_max = b_max.max(bv);
            }
            let Some((c0, c1)) = first else {
                // A stored buffer with no sites cannot occur; be safe.
                return None;
            };
            // Contribution of the non-partition axis: gid(0) spans
            // [0, nx) under row chunking; gid(1) is pinned to 0 when the
            // launch is 1-D.
            let (c_axis, other_span) = if along_rows {
                let w = i64::try_from(nx.checked_sub(1)?).ok()?;
                (c1, c0.checked_mul(w)?)
            } else {
                (c0, 0)
            };
            let off_lo = other_span.min(0).checked_add(b_min)?;
            let off_hi = other_span.max(0).checked_add(b_max)?;
            // Adjacent partition-axis values must map to disjoint
            // intervals: the stride dominates the in-chunk spread.
            let spread = off_hi.checked_sub(off_lo)?;
            if c_axis == 0 || c_axis.checked_abs()? <= spread {
                return None;
            }
            bufs.push(ResolvedBuf {
                name: b.name.clone(),
                c: c_axis,
                off_lo,
                off_hi,
            });
        }
        Some(ChunkPlan { along_rows, bufs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FloatVec;
    use crate::ast::Access;
    use crate::ast::TypeRef;
    use crate::dsl::*;
    use crate::interp::{run_kernel, BufferMap};
    use crate::typeck::check_kernel;

    /// Runs both the interpreter and the analysis and asserts identical
    /// counts.
    fn assert_counts_match(kernel: &Kernel, launch: &Launch, buffers: &mut BufferMap) {
        check_kernel(kernel).unwrap();
        let dynamic = run_kernel(kernel, buffers, launch).unwrap();
        let stat = count_launch(kernel, launch).unwrap();
        assert_eq!(stat, dynamic, "static and dynamic counts must agree");
    }

    #[test]
    fn matmul_counts_match_interpreter() {
        let n = 6usize;
        let k = kernel("mm")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("b", Precision::Single, Access::Read)
            .buffer("c", Precision::Double, Access::ReadWrite)
            .int_param("n")
            .body(vec![
                let_("i", global_id(1)),
                let_("j", global_id(0)),
                if_(
                    lt(var("i"), var("n")),
                    vec![
                        let_acc("acc", "c", flit(0.0)),
                        for_(
                            "kk",
                            int(0),
                            var("n"),
                            vec![add_assign(
                                "acc",
                                load("a", var("i") * var("n") + var("kk"))
                                    * load("b", var("kk") * var("n") + var("j")),
                            )],
                        ),
                        store("c", var("i") * var("n") + var("j"), var("acc")),
                    ],
                ),
            ]);
        let mut bufs = BufferMap::new();
        bufs.insert(
            "a".into(),
            FloatVec::from_f64_slice(&vec![1.0; n * n], Precision::Double),
        );
        bufs.insert(
            "b".into(),
            FloatVec::from_f64_slice(&vec![1.0; n * n], Precision::Single),
        );
        bufs.insert("c".into(), FloatVec::zeros(n * n, Precision::Double));
        let launch = Launch::two_d(n, n).arg_int("n", n as i64);
        assert_counts_match(&k, &launch, &mut bufs);
    }

    #[test]
    fn guarded_launch_counts_match() {
        // Launch wider than n: the guard is false for some items; the
        // analysis resolves the integer condition exactly per item.
        let k = kernel("guarded")
            .buffer("c", Precision::Single, Access::Write)
            .int_param("n")
            .body(vec![
                let_("i", global_id(0)),
                if_(
                    lt(var("i"), var("n")),
                    vec![store("c", var("i"), flit(1.0))],
                ),
            ]);
        let mut bufs = BufferMap::new();
        bufs.insert("c".into(), FloatVec::zeros(5, Precision::Single));
        let launch = Launch::one_d(13).arg_int("n", 5);
        assert_counts_match(&k, &launch, &mut bufs);
    }

    #[test]
    fn triangular_loop_counts_match() {
        // Inner loop bound depends on the outer loop variable.
        let n = 7usize;
        let k = kernel("tri")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::ReadWrite)
            .int_param("n")
            .body(vec![
                let_("i", global_id(0)),
                let_acc("acc", "c", flit(0.0)),
                for_(
                    "j",
                    var("i") + int(1),
                    var("n"),
                    vec![add_assign("acc", load("a", var("j")))],
                ),
                store("c", var("i"), var("acc")),
            ]);
        let mut bufs = BufferMap::new();
        bufs.insert(
            "a".into(),
            FloatVec::from_f64_slice(&vec![1.0; n], Precision::Double),
        );
        bufs.insert("c".into(), FloatVec::zeros(n, Precision::Double));
        let launch = Launch::one_d(n).arg_int("n", n as i64);
        assert_counts_match(&k, &launch, &mut bufs);
    }

    #[test]
    fn casts_and_mixed_precision_counts_match() {
        let k = kernel("mix")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("c", Precision::Half, Access::Write)
            .body(vec![
                let_("i", global_id(0)),
                let_("x", cast(Precision::Half, load("a", var("i")))),
                store("c", var("i"), sqrt(var("x")) * var("x") + flit(1.0)),
            ]);
        let mut bufs = BufferMap::new();
        bufs.insert(
            "a".into(),
            FloatVec::from_f64_slice(&[4.0; 3], Precision::Double),
        );
        bufs.insert("c".into(), FloatVec::zeros(3, Precision::Half));
        assert_counts_match(&k, &Launch::one_d(3), &mut bufs);
    }

    #[test]
    fn data_dependent_branch_takes_heavier_side() {
        let k = kernel("dd")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![
                let_("i", global_id(0)),
                let_("x", load("a", var("i"))),
                if_else(
                    gt(var("x"), flit(0.0)),
                    vec![store("c", var("i"), var("x") * var("x") + flit(1.0))],
                    vec![store("c", var("i"), var("x"))],
                ),
            ]);
        check_kernel(&k).unwrap();
        let counts = count_launch(&k, &Launch::one_d(4)).unwrap();
        // The heavier branch has 1 mul + 1 add per item.
        assert_eq!(counts.at(Precision::Double).mul, 4);
        assert_eq!(counts.at(Precision::Double).add_sub, 4);
    }

    #[test]
    fn data_dependent_bound_is_an_error() {
        let k = kernel("bad")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![
                let_ty(
                    "m",
                    ScalarType::Int,
                    Expr::Cast {
                        to: TypeRef::Concrete(ScalarType::Int),
                        arg: Box::new(load("a", int(0))),
                    },
                ),
                for_("j", int(0), var("m"), vec![store("c", var("j"), flit(0.0))]),
            ]);
        check_kernel(&k).unwrap();
        let err = count_launch(&k, &Launch::one_d(1)).unwrap_err();
        assert!(matches!(err, AnalysisError::DataDependentBound(_)), "{err}");
    }

    #[test]
    fn missing_arg_is_reported() {
        let k = kernel("k").int_param("n").body(vec![]);
        let err = count_launch(&k, &Launch::one_d(1)).unwrap_err();
        assert!(matches!(err, AnalysisError::MissingArg(_)));
    }

    #[test]
    fn unbound_var_is_a_typed_error_not_a_panic() {
        // Malformed kernel that skips the type checker: a serving worker
        // must get a typed error back, never a panic.
        let k = kernel("loose")
            .buffer("c", Precision::Single, Access::Write)
            .body(vec![store("c", int(0), var("ghost"))]);
        let err = count_launch(&k, &Launch::one_d(1)).unwrap_err();
        assert!(
            matches!(err, AnalysisError::UnboundVar(ref n) if n == "ghost"),
            "{err}"
        );
    }

    #[test]
    fn store_through_non_buffer_is_a_typed_error_not_a_panic() {
        let k = kernel("loose2")
            .int_param("n")
            .body(vec![store("n", int(0), flit(1.0))]);
        let launch = Launch::one_d(1).arg_int("n", 1);
        let err = count_launch(&k, &launch).unwrap_err();
        assert!(
            matches!(err, AnalysisError::NotABuffer(ref n) if n == "n"),
            "{err}"
        );
    }

    #[test]
    fn dangling_elem_of_is_a_typed_error_not_a_panic() {
        let k = kernel("loose3")
            .buffer("c", Precision::Single, Access::Write)
            .body(vec![store(
                "c",
                int(0),
                Expr::Cast {
                    to: TypeRef::ElemOf("ghost".into()),
                    arg: Box::new(flit(1.0)),
                },
            )]);
        let err = count_launch(&k, &Launch::one_d(1)).unwrap_err();
        assert!(
            matches!(err, AnalysisError::NotABuffer(ref n) if n == "ghost"),
            "{err}"
        );
    }

    #[test]
    fn uniform_kernel_is_scaled_not_iterated() {
        // No control dependence on ids: per-item counts times items.
        let k = kernel("u")
            .buffer("a", Precision::Single, Access::Read)
            .buffer("c", Precision::Single, Access::Write)
            .body(vec![
                let_("i", global_id(0)),
                store("c", var("i"), load("a", var("i")) * flit(2.0)),
            ]);
        check_kernel(&k).unwrap();
        let counts = count_launch(&k, &Launch::one_d(1_000_000)).unwrap();
        assert_eq!(counts.at(Precision::Single).mul, 1_000_000);
        assert_eq!(counts.at(Precision::Single).loads, 1_000_000);
    }

    fn gemm_kernel() -> Kernel {
        kernel("mm")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("b", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::ReadWrite)
            .int_param("n")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                let_acc("acc", "c", flit(0.0)),
                for_(
                    "kk",
                    int(0),
                    var("n"),
                    vec![add_assign(
                        "acc",
                        load("a", var("i") * var("n") + var("kk"))
                            * load("b", var("kk") * var("n") + var("j")),
                    )],
                ),
                store("c", var("i") * var("n") + var("j"), var("acc")),
            ])
    }

    #[test]
    fn gemm_store_pattern_is_provably_disjoint() {
        let k = gemm_kernel();
        let ParallelSafety::Disjoint(summary) = parallel_safety(&k) else {
            panic!("row-major gemm store must be provably disjoint");
        };
        let n = 6usize;
        let launch = Launch::two_d(n, n).arg_int("n", n as i64);
        let plan = summary.resolve(&launch).expect("resolvable");
        assert!(plan.along_rows());
        assert_eq!(plan.buffers().len(), 1, "only `c` is stored");
        let c = &plan.buffers()[0];
        assert_eq!(c.name(), "c");
        // Row chunks [0,3) and [3,6) must occupy disjoint intervals.
        let (lo1, hi1) = c.interval(0, 3).unwrap();
        let (lo2, hi2) = c.interval(3, 6).unwrap();
        assert!(hi1 < lo2, "chunk intervals overlap: {hi1} vs {lo2}");
        assert!(lo1 >= 0 && (hi2 as usize) < n * n, "within the buffer");
    }

    #[test]
    fn data_dependent_store_index_is_unproven() {
        let k = kernel("scatter")
            .buffer("idx", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![
                let_("i", global_id(0)),
                let_ty(
                    "t",
                    ScalarType::Int,
                    Expr::Cast {
                        to: TypeRef::Concrete(ScalarType::Int),
                        arg: Box::new(load("idx", var("i"))),
                    },
                ),
                store("c", var("t"), flit(1.0)),
            ]);
        assert!(matches!(parallel_safety(&k), ParallelSafety::Unproven(_)));
    }

    #[test]
    fn loop_variable_store_index_is_unproven() {
        let k = kernel("rowfill")
            .buffer("c", Precision::Double, Access::Write)
            .int_param("n")
            .body(vec![for_(
                "j",
                int(0),
                var("n"),
                vec![store("c", var("j"), flit(0.0))],
            )]);
        assert!(matches!(parallel_safety(&k), ParallelSafety::Unproven(_)));
    }

    #[test]
    fn loading_a_stored_buffer_at_a_foreign_index_is_unproven() {
        // c[i] = c[i+1] — the load races with a neighbouring item's store.
        // The load *is* affine, but with a different constant term; that
        // widens the interval spread, so resolve() still proves row
        // disjointness only when the stride dominates. With stride 1 the
        // spread (1) is not dominated, so resolution must fail.
        let k = kernel("shift")
            .buffer("c", Precision::Double, Access::ReadWrite)
            .body(vec![
                let_("i", global_id(0)),
                store("c", var("i"), load("c", var("i") + int(1))),
            ]);
        let ParallelSafety::Disjoint(summary) = parallel_safety(&k) else {
            panic!("affine sites are summarizable");
        };
        assert!(summary.resolve(&Launch::one_d(8)).is_none());
    }

    #[test]
    fn mismatched_store_sites_fail_resolution() {
        // The `tri` shape: stores at i*n+j and j*n+i disagree on their
        // global-id coefficients, so no chunking along either axis is
        // disjoint.
        let k = kernel("tri")
            .buffer("c", Precision::Single, Access::ReadWrite)
            .int_param("n")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                if_else(
                    lt(var("i"), var("j")),
                    vec![store("c", var("i") * var("n") + var("j"), flit(1.0))],
                    vec![store("c", var("j") * var("n") + var("i"), flit(2.0))],
                ),
            ]);
        let ParallelSafety::Disjoint(summary) = parallel_safety(&k) else {
            panic!("both sites are affine");
        };
        let launch = Launch::two_d(9, 9).arg_int("n", 9);
        assert!(summary.resolve(&launch).is_none());
    }

    #[test]
    fn one_d_stores_resolve_along_columns() {
        let k = kernel("scale")
            .buffer("x", Precision::Double, Access::Read)
            .buffer("y", Precision::Double, Access::Write)
            .body(vec![
                let_("i", global_id(0)),
                store("y", var("i"), load("x", var("i")) * flit(2.0)),
            ]);
        let ParallelSafety::Disjoint(summary) = parallel_safety(&k) else {
            panic!("unit-stride store must be disjoint");
        };
        let plan = summary.resolve(&Launch::one_d(16)).expect("resolvable");
        assert!(!plan.along_rows());
        let y = &plan.buffers()[0];
        assert_eq!(y.interval(0, 8).unwrap(), (0, 7));
        assert_eq!(y.interval(8, 16).unwrap(), (8, 15));
    }

    #[test]
    fn guarded_saxpy_resolves_with_symbolic_bounds() {
        // The guard `if (i < n)` over-approximates: the store site is
        // recorded unconditionally, which is sound (actual writes are a
        // subset of the summarized set).
        let k = kernel("saxpy")
            .buffer("x", Precision::Double, Access::Read)
            .buffer("y", Precision::Double, Access::ReadWrite)
            .float_param_like("a", "x")
            .int_param("n")
            .body(vec![
                let_("i", global_id(0)),
                if_(
                    lt(var("i"), var("n")),
                    vec![store(
                        "y",
                        var("i"),
                        var("a") * load("x", var("i")) + load("y", var("i")),
                    )],
                ),
            ]);
        let ParallelSafety::Disjoint(summary) = parallel_safety(&k) else {
            panic!("guarded unit-stride store must be disjoint");
        };
        let launch = Launch::one_d(64).arg_float("a", 2.0).arg_int("n", 40);
        let plan = summary.resolve(&launch).expect("resolvable");
        // The full-range interval covers the launch width, not just n:
        // the executor's bounds pre-check rejects it against len 40 and
        // falls back to sequential execution (which reports the guard's
        // true behaviour).
        assert_eq!(plan.buffers()[0].interval(0, 64).unwrap(), (0, 63));
    }
}
