//! Disjoint-write analysis: may a launch run as concurrent NDRange chunks?
//!
//! [`parallel_safety`] walks a kernel once and proves, conservatively, that
//! every store a work-item performs hits only locations indexed
//! *injectively* by its global id, and that every stored buffer is loaded
//! only at indices affine in the global id. The verdict is launch-independent: index
//! coefficients stay symbolic in the kernel's integer arguments, and
//! [`WriteSummary::resolve`] decides per launch whether the work-items
//! split into disjoint row or column chunks ([`ChunkPlan`]). The VM
//! computes the verdict once at compile time and runs chunks on threads
//! only when the resolved plan exists.

use crate::ast::{Expr, Kernel, Stmt};
use crate::interp::{ArgValue, Launch};
use crate::typeck::{assigned_slots, Resolved, Slot, SlotKind};
use crate::types::ScalarType;
use crate::value::{FloatBinOp, UnaryFn};

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
#[derive(Clone, Default)]
struct BufRecord {
    stored: bool,
    opaque_store: bool,
    opaque_load: bool,
    sites: Vec<AffineIdx>,
}

struct ParWalk<'r> {
    r: &'r Resolved,
    /// Abstract value per slot.
    vals: Vec<PVal>,
    /// Access record per slot (only buffer slots are ever touched).
    bufs: Vec<BufRecord>,
}

impl ParWalk<'_> {
    fn record_store(&mut self, buf: Slot, idx: PVal) {
        let rec = &mut self.bufs[buf];
        rec.stored = true;
        match idx {
            PVal::Affine(a) => rec.sites.push(a),
            PVal::Opaque => rec.opaque_store = true,
        }
    }

    fn record_load(&mut self, buf: Slot, idx: PVal) {
        let rec = &mut self.bufs[buf];
        match idx {
            PVal::Affine(a) => rec.sites.push(a),
            PVal::Opaque => rec.opaque_load = true,
        }
    }

    /// Forgets what is known about every slot `stmts` assigns (they are
    /// about to be mutated by a loop body or a branch).
    fn invalidate(&mut self, stmts: &[Stmt<Slot>]) {
        for s in assigned_slots(stmts) {
            self.vals[s] = PVal::Opaque;
        }
    }

    fn walk(&mut self, stmts: &[Stmt<Slot>]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt<Slot>) {
        match s {
            Stmt::Let { name, ty, value } => {
                let v = self.eval(value);
                // A declared non-int type makes the binding opaque (float
                // coercion loses the index structure).
                self.vals[*name] = match ty {
                    Some(t) if self.r.ty(t) != ScalarType::Int => PVal::Opaque,
                    _ => v,
                };
            }
            Stmt::Assign { name, value } => {
                self.vals[*name] = self.eval(value);
            }
            Stmt::Store { buf, index, value } => {
                let iv = self.eval(index);
                let _ = self.eval(value); // records loads inside the value
                self.record_store(*buf, iv);
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
                self.invalidate(body);
                self.vals[*var] = PVal::Opaque;
                self.walk(body);
                // The body may run zero times or many, so after the loop
                // its assignments are unknown too.
                self.invalidate(body);
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
                let saved = self.vals.clone();
                self.walk(then_body);
                self.vals.clone_from(&saved);
                self.walk(else_body);
                self.vals = saved;
                self.invalidate(then_body);
                self.invalidate(else_body);
            }
        }
    }

    fn eval(&mut self, e: &Expr<Slot>) -> PVal {
        match e {
            Expr::IntConst(v) => PVal::Affine(AffineIdx::constant(*v)),
            Expr::FloatConst(_) => PVal::Opaque,
            Expr::GlobalId(d) => PVal::Affine(AffineIdx::gid(*d)),
            Expr::Var(s) => self.vals[*s].clone(),
            Expr::Load { buf, index } => {
                let iv = self.eval(index);
                self.record_load(*buf, iv);
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
                if self.r.ty(to) == ScalarType::Int {
                    v
                } else {
                    PVal::Opaque
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

/// Runs the disjoint-write analysis over one kernel. A kernel the type
/// checker rejects is `Unproven`.
///
/// The result is launch-independent and intended to be computed once at
/// compile time (see `CompiledKernel` in [`crate::vm`]); per-launch
/// disjointness is then decided by [`WriteSummary::resolve`].
#[must_use]
pub fn parallel_safety(kernel: &Kernel) -> ParallelSafety {
    match Resolved::checked(kernel) {
        Ok(r) => parallel_safety_of(&r),
        Err(_) => ParallelSafety::Unproven("the kernel does not type-check"),
    }
}

/// [`parallel_safety`] of an already resolved, type-correct kernel.
pub(crate) fn parallel_safety_of(r: &Resolved) -> ParallelSafety {
    // Integer scalar parameters are symbolic; everything else starts
    // opaque (locals and loop variables are bound before any use).
    let vals = r
        .slots
        .iter()
        .map(|s| match s.kind {
            SlotKind::Scalar(_) if s.ty == ScalarType::Int => PVal::Affine(AffineIdx {
                c0: None,
                c1: None,
                b: Sym::Arg(s.name.clone()),
            }),
            _ => PVal::Opaque,
        })
        .collect();
    let mut w = ParWalk {
        r,
        vals,
        bufs: vec![BufRecord::default(); r.slots.len()],
    };
    w.walk(&r.body);

    let mut bufs = Vec::new();
    for (slot, rec) in w.bufs.into_iter().enumerate() {
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
            name: r.slots[slot].name.clone(),
            sites: rec.sites,
        });
    }
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
    use crate::ast::{Access, TypeRef};
    use crate::dsl::*;
    use crate::types::Precision;

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
    fn an_index_assigned_only_inside_a_loop_is_unproven() {
        // `m = gid0` inside the loop, yet at `n = 0` the loop never runs
        // and every work-item writes `c[0]`.
        let k = kernel("zero_trip")
            .buffer("c", Precision::Double, Access::ReadWrite)
            .int_param("n")
            .body(vec![
                let_("m", int(0)),
                for_("kk", int(0), var("n"), vec![assign("m", global_id(0))]),
                store("c", var("m"), load("c", var("m")) + flit(1.0)),
            ]);
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
