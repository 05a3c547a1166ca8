//! Differential fuzzing: random well-typed kernels must behave
//! identically under the tree-walking interpreter and the bytecode VM,
//! sequential and parallel (bit-identical buffers and operation counts),
//! and must survive a print/parse round trip unchanged.
//!
//! The generator reaches the corners binary16 rounding depends on:
//! literals that overflow to infinity or land in the subnormal range
//! (whose sums and products make NaNs), and uncast integer operands of
//! float arithmetic with magnitudes past 2048, where rounding the integer
//! to binary16 changes it. Stored elements compare by bit pattern, so a
//! NaN payload or a sign that differs is a divergence too.

use prescaler_ir::dsl::*;
use prescaler_ir::interp::{run_kernel, BufferMap, Launch};
use prescaler_ir::parse::parse_kernel;
use prescaler_ir::print::kernel_to_string;
use prescaler_ir::typeck::check_kernel;
use prescaler_ir::vm::{compile_kernel, VmScratch};
use prescaler_ir::{Access, Expr, FloatVec, Kernel, Precision, ScalarType, Stmt};
use proptest::prelude::*;
use std::cell::RefCell;

const BUF_LEN: i64 = 17;

/// Clamps an arbitrary integer expression into `[0, BUF_LEN)` so loads
/// and stores are always in bounds.
fn clamped(e: Expr) -> Expr {
    min2(max2(e, int(0)), int(BUF_LEN - 1))
}

fn arb_precision() -> impl Strategy<Value = Precision> {
    prop_oneof![
        Just(Precision::Half),
        Just(Precision::Single),
        Just(Precision::Double),
    ]
}

/// Integer expressions. `in_loop` enables the loop variable `k`; the
/// integer local `m` (declared first in every body) is always in scope.
fn arb_int_expr(depth: u32, in_loop: bool) -> BoxedStrategy<Expr> {
    let mut leaves = vec![
        (-3i64..20).prop_map(int).boxed(),
        Just(global_id(0)).boxed(),
        Just(global_id(1)).boxed(),
        Just(var("n")).boxed(),
        Just(var("m")).boxed(),
    ];
    if in_loop {
        leaves.push(Just(var("k")).boxed());
    }
    let leaf = proptest::strategy::Union::new(leaves);
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_int_expr(depth - 1, in_loop);
    prop_oneof![
        4 => leaf,
        2 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a + b),
        1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a * b),
        1 => (sub.clone(), sub).prop_map(|(a, b)| min2(a, b)),
    ]
    .boxed()
}

/// Float expressions. May reference the scalar `alpha` and loads from
/// `a`/`b`; the locals `t0`/`t1` only once `locals` is true (they are
/// declared at the top of the body).
/// Float literals: mostly small, plus magnitudes that overflow binary16
/// (±7e4), sit in its subnormal range (±3e-6), or span its whole range.
fn arb_float_lit() -> BoxedStrategy<Expr> {
    prop_oneof![
        6 => (-4.0f64..4.0).prop_map(flit),
        1 => prop_oneof![Just(7e4), Just(-7e4), Just(3e-6), Just(-3e-6)].prop_map(flit),
        1 => (-7e4f64..7e4).prop_map(flit),
    ]
    .boxed()
}

/// Integer operands for float arithmetic, offset up to ±70000 so that
/// rounding them to binary16 (exact only up to 2048) matters.
fn arb_wide_int_expr(in_loop: bool) -> BoxedStrategy<Expr> {
    (arb_int_expr(1, in_loop), -70_000i64..70_000)
        .prop_map(|(i, c)| i + int(c))
        .boxed()
}

fn arb_float_expr(depth: u32, in_loop: bool, locals: bool) -> BoxedStrategy<Expr> {
    let mut leaves = vec![
        arb_float_lit(),
        Just(var("alpha")).boxed(),
        arb_int_expr(1, in_loop)
            .prop_map(|i| load("a", clamped(i)))
            .boxed(),
        arb_int_expr(1, in_loop)
            .prop_map(|i| load("b", clamped(i)))
            .boxed(),
    ];
    if locals {
        leaves.push(Just(var("t0")).boxed());
        leaves.push(Just(var("t1")).boxed());
    }
    let leaf = proptest::strategy::Union::new(leaves);
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_float_expr(depth - 1, in_loop, locals);
    let isub = arb_int_expr(1, in_loop);
    let wide = arb_wide_int_expr(in_loop);
    prop_oneof![
        4 => leaf,
        2 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a + b),
        2 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a * b),
        1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a - b),
        1 => sub.clone().prop_map(fabs),
        1 => sub.clone().prop_map(|a| sqrt(fabs(a))),
        1 => (arb_precision(), sub.clone()).prop_map(|(p, a)| cast(p, a)),
        // Select with a float condition: both engines evaluate both arms.
        1 => (sub.clone(), sub.clone(), sub.clone())
            .prop_map(|(c, a, b)| select(gt(c, flit(0.5)), a, b)),
        // Int/float mixing through arithmetic.
        1 => (isub, sub.clone()).prop_map(|(i, f)| f * cast(Precision::Double, i)),
        // Uncast ints promote to the float operand's precision.
        1 => (wide.clone(), sub.clone()).prop_map(|(i, f)| f * i),
        1 => (wide, sub).prop_map(|(i, f)| i + f),
    ]
    .boxed()
}

/// Reassigns the integer local `m`, kept in `[-3, 9]` so loops bounded
/// by it stay short.
fn arb_assign_m(in_loop: bool) -> BoxedStrategy<Stmt> {
    arb_int_expr(1, in_loop)
        .prop_map(|e| assign("m", min2(max2(e, int(-3)), int(9))))
        .boxed()
}

/// A loop or `if` whose body declares an inner `let` shadowing one of the
/// outer locals `t0`/`t1`/`m` at a random precision or kind, assigns to
/// the shadow and stores it, followed by a store of the outer local: the
/// two bindings must stay apart in both engines.
fn arb_shadow(in_loop: bool) -> BoxedStrategy<Vec<Stmt>> {
    let shadow_ty = prop_oneof![
        Just(ScalarType::Int),
        arb_precision().prop_map(ScalarType::Float),
    ];
    (
        (prop_oneof![Just("t0"), Just("t1"), Just("m")], shadow_ty),
        (arb_int_expr(1, in_loop), arb_float_expr(1, in_loop, true)),
        (-3i64..4, arb_float_lit()),
        (0..BUF_LEN, 0..BUF_LEN),
        (any::<bool>(), arb_int_expr(0, in_loop), 1i64..4),
    )
        .prop_map(
            |((name, ty), (iinit, finit), (step, scale), (at, after), (as_loop, s, trips))| {
                // The initializer still reads the outer binding.
                let (init, update) = match ty {
                    ScalarType::Int => (iinit, var(name) + int(step)),
                    _ => (finit, var(name) * scale),
                };
                let body = vec![
                    let_ty(name, ty, init),
                    assign(name, update),
                    store("b", int(at), var(name)),
                ];
                let block = if as_loop {
                    for_("k", s.clone(), s + int(trips), body)
                } else {
                    if_else(lt(s, int(3)), body, vec![])
                };
                vec![block, store("b", int(after), var(name))]
            },
        )
        .boxed()
}

/// Statements (bounded nesting). Only integer `if` conditions, so the
/// static analysis stays exact.
fn arb_stmts(depth: u32, in_loop: bool) -> BoxedStrategy<Vec<Stmt>> {
    let store_stmt = (arb_int_expr(1, in_loop), arb_float_expr(2, in_loop, true))
        .prop_map(|(i, v)| store("b", clamped(i), v));
    let assign0 = arb_float_expr(2, in_loop, true).prop_map(|v| assign("t0", v));
    let assign1 = arb_float_expr(2, in_loop, true).prop_map(|v| assign("t1", v));
    let assign_m = arb_assign_m(in_loop);
    if depth == 0 {
        return proptest::collection::vec(
            prop_oneof![3 => store_stmt, 1 => assign0, 1 => assign1, 1 => assign_m],
            1..3,
        )
        .boxed();
    }
    let body = arb_stmts(depth - 1, true);
    let ibody = arb_stmts(depth - 1, in_loop);
    let for_stmt = (arb_int_expr(0, in_loop), 1i64..4, body.clone()).prop_map(|(s, trips, b)| {
        // Bounds may be negative → empty loops are exercised too.
        for_("k", s.clone(), s + int(trips), b)
    });
    // A loop bounded by `m` whose body moves `m` first: the end bound is
    // read once, before the first trip, so the trip count must not follow.
    let for_m_stmt = (arb_int_expr(0, in_loop), -2i64..3, body).prop_map(|(s, step, b)| {
        let mut stmts = vec![assign("m", var("m") + int(step))];
        stmts.extend(b);
        for_("k", s, var("m"), stmts)
    });
    let if_stmt = (
        arb_int_expr(1, in_loop),
        arb_int_expr(1, in_loop),
        ibody.clone(),
        ibody.clone(),
    )
        .prop_map(|(x, y, t, e)| if_else(lt(x, y), t, e));
    let one = |s: Stmt| vec![s];
    proptest::collection::vec(
        prop_oneof![
            3 => store_stmt.prop_map(one),
            1 => assign0.prop_map(one),
            1 => assign1.prop_map(one),
            1 => assign_m.prop_map(one),
            1 => for_stmt.prop_map(one),
            1 => for_m_stmt.prop_map(one),
            1 => if_stmt.prop_map(one),
            1 => arb_shadow(in_loop),
        ],
        1..4,
    )
    .prop_map(|blocks| blocks.concat())
    .boxed()
}

/// A complete random kernel over two buffers with random precisions.
fn arb_kernel() -> impl Strategy<Value = Kernel> {
    (
        arb_precision(),
        arb_precision(),
        arb_float_expr(1, false, false),
        arb_float_expr(1, false, false),
        arb_stmts(2, false),
        0i64..6,
    )
        .prop_map(|(pa, pb, init0, init1, stmts, m0)| {
            let mut body = vec![
                let_("m", var("n") - int(m0)),
                let_ty("t0", pa, init0),
                let_ty("t1", pb, init1),
            ];
            body.extend(stmts);
            kernel("fuzz")
                .buffer("a", pa, Access::Read)
                .buffer("b", pb, Access::ReadWrite)
                .int_param("n")
                .float_param_like("alpha", "a")
                .body(body)
        })
}

/// Element `i`'s raw bit pattern at the buffer's own precision.
fn elem_bits(v: &FloatVec, i: usize) -> u64 {
    match v {
        FloatVec::F16(xs) => u64::from(xs[i].to_bits()),
        FloatVec::F32(xs) => u64::from(xs[i].to_bits()),
        FloatVec::F64(xs) => xs[i].to_bits(),
    }
}

fn buffers(pa: Precision, pb: Precision) -> BufferMap {
    let mut m = BufferMap::new();
    let xs: Vec<f64> = (0..BUF_LEN)
        .map(|i| (i as f64 * 0.71).sin() * 3.0)
        .collect();
    let ys: Vec<f64> = (0..BUF_LEN)
        .map(|i| (i as f64 * 0.37).cos() * 2.0)
        .collect();
    m.insert("a".into(), FloatVec::from_f64_slice(&xs, pa));
    m.insert("b".into(), FloatVec::from_f64_slice(&ys, pb));
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engines_agree_on_random_kernels(k in arb_kernel()) {
        check_kernel(&k).expect("generated kernels are well-typed");
        let pa = k.buffer_elem("a").unwrap();
        let pb = k.buffer_elem("b").unwrap();
        let launch = Launch::two_d(5, 2).arg_int("n", 7).arg_float("alpha", 1.25);

        let mut bufs_i = buffers(pa, pb);
        let counts_i = run_kernel(&k, &mut bufs_i, &launch).expect("interp runs");

        let compiled = compile_kernel(&k).expect("well-typed kernels compile");
        let mut bufs_v = buffers(pa, pb);
        // One scratch reused across all proptest cases on this thread —
        // the VM's pooled-allocation contract, exercised under fuzzing.
        thread_local! {
            static SCRATCH: RefCell<VmScratch> = RefCell::new(VmScratch::new());
        }
        let counts_v = SCRATCH
            .with(|s| compiled.run_with_scratch(&mut bufs_v, &launch, &mut s.borrow_mut()))
            .expect("vm runs");

        prop_assert_eq!(counts_i, counts_v, "dynamic counts diverge");

        // The parallel entry point must agree bit-for-bit as well, whether
        // it engages chunked execution or falls back to sequential.
        let mut bufs_p = buffers(pa, pb);
        let counts_p = SCRATCH
            .with(|s| compiled.run_parallel(&mut bufs_p, &launch, &mut s.borrow_mut(), 4))
            .expect("parallel vm runs");
        prop_assert_eq!(counts_i, counts_p, "parallel counts diverge");
        for name in ["a", "b"] {
            let x = &bufs_v[name];
            let y = &bufs_p[name];
            for i in 0..x.len() {
                prop_assert_eq!(
                    elem_bits(x, i), elem_bits(y, i),
                    "parallel buffer {}[{}]: seq {} vs par {}", name, i, x.get(i), y.get(i)
                );
            }
        }
        for name in ["a", "b"] {
            let x = &bufs_i[name];
            let y = &bufs_v[name];
            prop_assert_eq!(x.len(), y.len());
            for i in 0..x.len() {
                prop_assert_eq!(
                    elem_bits(x, i), elem_bits(y, i),
                    "buffer {}[{}]: interp {} vs vm {}", name, i, x.get(i), y.get(i)
                );
            }
        }

        // Printer/parser round trip: printing is a fixed point, and the
        // reparsed kernel behaves identically.
        let printed = kernel_to_string(&k);
        let reparsed = parse_kernel(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        check_kernel(&reparsed).expect("reparsed kernel type-checks");
        prop_assert_eq!(
            kernel_to_string(&reparsed),
            printed.clone(),
            "printing is not idempotent"
        );
        let mut bufs_r = buffers(pa, pb);
        let counts_r = run_kernel(&reparsed, &mut bufs_r, &launch).expect("reparsed runs");
        prop_assert_eq!(counts_r, counts_i, "reparsed kernel counts diverge");
        for name in ["a", "b"] {
            let x = &bufs_i[name];
            let y = &bufs_r[name];
            for i in 0..x.len() {
                prop_assert_eq!(
                    elem_bits(x, i), elem_bits(y, i),
                    "reparsed buffer {}[{}]: {} vs {}", name, i, x.get(i), y.get(i)
                );
            }
        }
    }
}
