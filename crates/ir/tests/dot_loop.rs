//! Targeted differential tests for the VM's fused reduction loop: a
//! counted loop whose whole body is `acc += x[..] * y[..]` runs as one
//! instruction, over typed slices when every index stays in bounds and
//! one step at a time otherwise. Generated loops put the loop variable in
//! each slot of the row-major index `a*b + c` (and in two slots, including
//! the nonlinear `k*k`), use negative, zero and overflowing strides, empty
//! and negative trip counts, first or last indices out of bounds, every
//! storage precision for both loads and the accumulator, and data with
//! NaNs, infinities, subnormals and values whose binary16 product
//! overflows.
//!
//! The interpreter is the reference: buffers compare by bit pattern,
//! counts exactly, and errors exactly (with the partial writes the
//! failing launch left behind). The parallel entry point must match the
//! sequential one the same way, including a loop that reads the stored
//! buffer through the chunk's carved segment.

use prescaler_ir::dsl::*;
use prescaler_ir::interp::{run_kernel, BufferMap, ExecError, Launch};
use prescaler_ir::typeck::check_kernel;
use prescaler_ir::vm::{compile_kernel, ParallelSafety, VmScratch};
use prescaler_ir::{Access, Expr, FloatVec, Kernel, OpCounts, Precision};
use proptest::prelude::*;

/// Length of the loaded buffers `x` and `y`.
const LEN: i64 = 96;
/// Work-items per launch: enough for the parallel executor to chunk.
const ITEMS: usize = 64;

/// Where the loop variable `k` sits in an operand's index `a*b + c`.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// `k*s + base`: stride `s`.
    A,
    /// `s*k + base`: stride `s`.
    B,
    /// `base*one + k`: stride 1.
    C,
    /// `k*s + k`: stride `s + 1`.
    AC,
    /// `base*one + s`: stride 0.
    Fixed,
    /// `k*k + base`: not affine in `k`.
    Square,
}

/// Operand `p`'s index, over its stride parameter `{p}s` and its
/// per-item base `{p}b` (the parameter `{p}0` plus the global id).
fn index(p: &str, slot: Slot) -> Expr {
    let (s, b) = (var(format!("{p}s")), var(format!("{p}b")));
    match slot {
        Slot::A => var("k") * s + b,
        Slot::B => s * var("k") + b,
        Slot::C => b * var("one") + var("k"),
        Slot::AC => var("k") * s + var("k"),
        Slot::Fixed => b * var("one") + s,
        Slot::Square => var("k") * var("k") + b,
    }
}

/// `out[i] = out[i] + Σ_{k in s..e} x[ix(k)] * y[iy(k)]`, accumulated at
/// `out`'s precision. With `carved`, the second operand reads the stored
/// buffer itself at `out[i*one + zero]`.
fn dot_kernel(
    px: Precision,
    py: Precision,
    po: Precision,
    sx: Slot,
    sy: Slot,
    carved: bool,
) -> Kernel {
    let y = if carved {
        load("out", var("i") * var("one") + var("zero"))
    } else {
        load("y", index("y", sy))
    };
    let mut k = kernel("dot")
        .buffer("x", px, Access::Read)
        .buffer("y", py, Access::Read)
        .buffer("out", po, Access::ReadWrite);
    for p in ["s", "e", "one", "zero", "xs", "x0", "ys", "y0"] {
        k = k.int_param(p);
    }
    k.body(vec![
        let_("i", global_id(0)),
        let_("xb", var("x0") + var("i")),
        let_("yb", var("y0") + var("i")),
        let_acc("acc", "out", load("out", var("i"))),
        for_(
            "k",
            var("s"),
            var("e"),
            vec![add_assign("acc", load("x", index("x", sx)) * y)],
        ),
        store("out", var("i"), var("acc")),
    ])
}

fn arb_precision() -> impl Strategy<Value = Precision> {
    prop_oneof![
        Just(Precision::Half),
        Just(Precision::Single),
        Just(Precision::Double),
    ]
}

fn arb_slot() -> impl Strategy<Value = Slot> {
    prop_oneof![
        3 => Just(Slot::A),
        2 => Just(Slot::B),
        3 => Just(Slot::C),
        1 => Just(Slot::AC),
        1 => Just(Slot::Fixed),
        1 => Just(Slot::Square),
    ]
}

/// Strides: mostly small (either sign, zero included), sometimes large
/// enough that the wrapping index arithmetic overflows or the stride does
/// not fit `isize`.
fn arb_stride() -> impl Strategy<Value = i64> {
    prop_oneof![
        8 => -3i64..4,
        1 => prop_oneof![
            Just(i64::MAX),
            Just(i64::MIN),
            Just(1i64 << 62),
            Just(-(1i64 << 62)),
            Just(LEN),
        ],
    ]
}

/// Bases: mostly inside the buffers, sometimes before or past them.
fn arb_base() -> impl Strategy<Value = i64> {
    prop_oneof![
        6 => 0i64..LEN - ITEMS as i64,
        1 => -8i64..0,
        1 => LEN - ITEMS as i64..LEN + 4,
    ]
}

/// Data for the loaded and accumulated buffers: ordinary values plus
/// signed zeros, infinities, NaNs of both signs and several payloads,
/// subnormals of every precision, values that overflow binary16 when
/// stored, and values whose binary16 product overflows.
fn arb_data(len: usize) -> impl Strategy<Value = Vec<f64>> {
    let special = prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(f64::from_bits(0x7FF0_0000_0000_0001)),
        Just(f64::from_bits(0xFFF4_0000_0000_0000)),
        Just(1e-310),
        Just(-1e-40),
        Just(3e-6),
        Just(-6e-8),
        Just(7e4),
        Just(300.0),
        Just(-257.0),
        Just(65504.0),
        Just(1e39),
    ];
    proptest::collection::vec(prop_oneof![6 => -4.0f64..4.0, 1 => special], len..len + 1)
}

/// Element `i`'s raw bit pattern at the buffer's own precision.
fn elem_bits(v: &FloatVec, i: usize) -> u64 {
    match v {
        FloatVec::F16(xs) => u64::from(xs[i].to_bits()),
        FloatVec::F32(xs) => u64::from(xs[i].to_bits()),
        FloatVec::F64(xs) => xs[i].to_bits(),
    }
}

fn assert_same_buffers(expected: &BufferMap, actual: &BufferMap, what: &str) {
    for name in ["x", "y", "out"] {
        let (a, b) = (&expected[name], &actual[name]);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(
                elem_bits(a, i),
                elem_bits(b, i),
                "{what}: {name}[{i}] = {} vs {}",
                a.get(i),
                b.get(i)
            );
        }
    }
}

/// One generated case: precisions, slots, launch arguments and data.
#[derive(Clone, Debug)]
struct Case {
    prec: (Precision, Precision, Precision),
    slots: (Slot, Slot),
    /// `s`, `e`.
    range: (i64, i64),
    /// `xs`, `x0`, `ys`, `y0`.
    operands: (i64, i64, i64, i64),
    data: (Vec<f64>, Vec<f64>, Vec<f64>),
}

fn arb_case() -> impl Strategy<Value = Case> {
    let range = prop_oneof![
        // Ordinary, empty and negative trip counts around zero.
        6 => (-4i64..8, -3i64..12).prop_map(|(s, t)| (s, s + t)),
        // A late start: with a 2^62 stride the exact first index is past
        // i64 while the wrapped one is back in bounds.
        1 => (3i64..6).prop_map(|s| (s, s + 1)),
    ];
    (
        (arb_precision(), arb_precision(), arb_precision()),
        (arb_slot(), arb_slot()),
        range,
        (arb_stride(), arb_base(), arb_stride(), arb_base()),
        (
            arb_data(LEN as usize),
            arb_data(LEN as usize),
            arb_data(ITEMS),
        ),
    )
        .prop_map(|(prec, slots, range, operands, data)| Case {
            prec,
            slots,
            range,
            operands,
            data,
        })
}

impl Case {
    fn kernel(&self, carved: bool) -> Kernel {
        let (px, py, po) = self.prec;
        dot_kernel(px, py, po, self.slots.0, self.slots.1, carved)
    }

    /// The loop fuses when the accumulator is at least as wide as the
    /// product; a narrower one rounds each sum back with a `Cvt`, so the
    /// body is not a lone in-place step.
    fn fused(&self, carved: bool) -> usize {
        let (px, py, po) = self.prec;
        let py = if carved { po } else { py };
        usize::from(po >= px.max(py))
    }

    fn buffers(&self) -> BufferMap {
        let (px, py, po) = self.prec;
        let mut m = BufferMap::new();
        m.insert("x".into(), FloatVec::from_f64_slice(&self.data.0, px));
        m.insert("y".into(), FloatVec::from_f64_slice(&self.data.1, py));
        m.insert("out".into(), FloatVec::from_f64_slice(&self.data.2, po));
        m
    }

    fn launch(&self) -> Launch {
        let (xs, x0, ys, y0) = self.operands;
        Launch::one_d(ITEMS)
            .arg_int("s", self.range.0)
            .arg_int("e", self.range.1)
            .arg_int("one", 1)
            .arg_int("zero", 0)
            .arg_int("xs", xs)
            .arg_int("x0", x0)
            .arg_int("ys", ys)
            .arg_int("y0", y0)
    }
}

/// Runs `k` through the interpreter, the sequential VM and the parallel
/// VM at 2 and 4 threads, asserting identical results, counts, errors
/// and (partial) buffer contents, and that `k` compiled to `fused`
/// whole-loop instructions.
fn assert_engines_agree(k: &Kernel, fused: usize, bufs: &BufferMap, launch: &Launch) {
    check_kernel(k).expect("generated kernels are well-typed");
    let compiled = compile_kernel(k).expect("well-typed kernels compile");
    assert_eq!(compiled.fused_loops(), fused, "fused reduction loops");

    let mut reference = bufs.clone();
    let expected: Result<OpCounts, ExecError> = run_kernel(k, &mut reference, launch);

    let mut seq = bufs.clone();
    let got = compiled.run(&mut seq, launch);
    assert_eq!(got, expected, "VM vs interpreter");
    assert_same_buffers(&reference, &seq, "VM vs interpreter");

    let mut scratch = VmScratch::new();
    for threads in [2, 4] {
        let mut par = bufs.clone();
        let got = compiled.run_parallel(&mut par, launch, &mut scratch, threads);
        assert_eq!(got, expected, "parallel VM at {threads} threads");
        assert_same_buffers(&reference, &par, "parallel VM");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fused_reduction_loops_match_the_interpreter(case in arb_case()) {
        assert_engines_agree(&case.kernel(false), case.fused(false), &case.buffers(), &case.launch());
    }

    #[test]
    fn fused_loops_over_carved_segments_match_sequential(case in arb_case()) {
        // Reading `out` at the item's own element keeps the launch
        // provably disjoint, so it runs chunked with `out` carved.
        let k = case.kernel(true);
        let launch = case.launch();
        let compiled = compile_kernel(&k).unwrap();
        let ParallelSafety::Disjoint(summary) = compiled.parallel_safety() else {
            panic!("a carved read at the item's own element is disjoint");
        };
        prop_assert!(summary.resolve(&launch).is_some(), "the launch chunks");
        assert_engines_agree(&k, case.fused(true), &case.buffers(), &launch);
    }
}

#[test]
fn every_slot_and_precision_pair_fuses_and_matches() {
    // A deterministic sweep of every operand slot pair and every
    // (x, y, accumulator) precision triple, in bounds and with the last
    // index one past the end of `x`.
    let slots = [
        Slot::A,
        Slot::B,
        Slot::C,
        Slot::AC,
        Slot::Fixed,
        Slot::Square,
    ];
    let data = |len: usize, salt: f64| -> Vec<f64> {
        (0..len)
            .map(|i| match i % 11 {
                0 => f64::NAN,
                3 => 300.0,
                5 => 3e-6,
                7 => -0.0,
                _ => ((i as f64 + salt) * 0.61).sin() * 5.0,
            })
            .collect()
    };
    for px in Precision::ALL {
        for py in Precision::ALL {
            for po in Precision::ALL {
                for &sx in &slots {
                    for &sy in &slots {
                        for (range, x0) in [
                            ((0, 4), 1),
                            ((1, 5), 0),
                            ((-2, 3), 2),
                            ((0, 5), 29),
                            ((0, 3), -1),
                        ] {
                            let case = Case {
                                prec: (px, py, po),
                                slots: (sx, sy),
                                range,
                                operands: (1, x0, -1, 8),
                                data: (
                                    data(LEN as usize, 0.0),
                                    data(LEN as usize, 0.5),
                                    data(ITEMS, 0.25),
                                ),
                            };
                            assert_engines_agree(
                                &case.kernel(false),
                                case.fused(false),
                                &case.buffers(),
                                &case.launch(),
                            );
                        }
                    }
                }
            }
        }
    }
}
