//! Differential test: the bytecode VM and the reference tree-walking
//! interpreter must produce bit-identical results across the entire
//! benchmark suite, at every storage precision and with in-kernel casts,
//! and charge the same virtual time (the `Timeline` is built from the
//! kernels' `OpCounts`, so equal timelines pin the counts per app).

use prescaler_ir::vm::compile_kernel;
use prescaler_ir::{FloatVec, Precision};
use prescaler_ocl::{HostApp, Outputs, ScalingSpec, Session, Timeline};
use prescaler_polybench::{BenchKind, PolyApp};
use prescaler_sim::SystemModel;
use std::collections::{BTreeMap, HashMap};

fn run_with(app: &PolyApp, spec: &ScalingSpec, use_interp: bool) -> (Outputs, Timeline) {
    let mut session = Session::new(SystemModel::system1(), app.program(), spec.clone());
    session.set_use_interpreter(use_interp);
    let outputs = app.run(&mut session).expect("benchmark runs");
    (outputs, session.timeline())
}

/// Element `i`'s raw bit pattern at the buffer's own precision.
fn elem_bits(v: &FloatVec, i: usize) -> u64 {
    match v {
        FloatVec::F16(xs) => u64::from(xs[i].to_bits()),
        FloatVec::F32(xs) => u64::from(xs[i].to_bits()),
        FloatVec::F64(xs) => xs[i].to_bits(),
    }
}

fn assert_engines_agree(app: &PolyApp, spec: &ScalingSpec) {
    let (vm, vm_time) = run_with(app, spec, false);
    let (interp, interp_time) = run_with(app, spec, true);
    assert_eq!(vm.len(), interp.len());
    for ((n1, d1), (n2, d2)) in vm.iter().zip(&interp) {
        assert_eq!(n1, n2);
        assert_eq!(d1.len(), d2.len());
        assert_eq!(d1.precision(), d2.precision());
        for i in 0..d1.len() {
            // Bit patterns, NaN payloads and signs included: both engines
            // run the same pinned NaN-propagation rule.
            assert_eq!(
                elem_bits(d1, i),
                elem_bits(d2, i),
                "{}: output `{n1}`[{i}] diverged: VM {} vs interpreter {}",
                app.name(),
                d1.get(i),
                d2.get(i)
            );
        }
    }
    assert_eq!(
        vm_time,
        interp_time,
        "{}: virtual time diverged between VM and interpreter",
        app.name()
    );
}

#[test]
fn all_benchmarks_agree_at_baseline() {
    for kind in BenchKind::ALL {
        let app = PolyApp::tiny(kind);
        assert_engines_agree(&app, &ScalingSpec::baseline());
    }
}

#[test]
fn all_benchmarks_agree_fully_scaled_to_single() {
    for kind in BenchKind::ALL {
        let app = PolyApp::tiny(kind);
        let mut spec = ScalingSpec::baseline();
        // Scale every object the profiler would see. Labels are stable,
        // so collect them from a quick baseline run.
        let mut s = Session::new(SystemModel::system1(), app.program(), spec.clone());
        app.run(&mut s).expect("baseline");
        for obj in &s.log().objects {
            spec = spec.with_target(&obj.label, Precision::Single);
        }
        assert_engines_agree(&app, &spec);
    }
}

#[test]
fn all_benchmarks_agree_fully_scaled_to_half() {
    for kind in BenchKind::ALL {
        let app = PolyApp::tiny(kind);
        let mut spec = ScalingSpec::baseline();
        let mut s = Session::new(SystemModel::system1(), app.program(), spec.clone());
        app.run(&mut s).expect("baseline");
        for obj in &s.log().objects {
            spec = spec.with_target(&obj.label, Precision::Half);
        }
        assert_engines_agree(&app, &spec);
    }
}

#[test]
fn in_kernel_casts_agree() {
    for kind in [
        BenchKind::Gemm,
        BenchKind::Atax,
        BenchKind::Corr,
        BenchKind::Fdtd2d,
    ] {
        let app = PolyApp::tiny(kind);
        let mut spec = ScalingSpec::baseline();
        // Lower every kernel's every buffer param to single, in-kernel.
        for kernel in &app.program().kernels {
            let mut map = BTreeMap::new();
            for b in kernel.buffer_names() {
                map.insert(b.to_owned(), Precision::Single);
            }
            spec.in_kernel.insert(kernel.name.clone(), map);
        }
        assert_engines_agree(&app, &spec);
    }
}

#[test]
fn mixed_precision_objects_agree() {
    // Alternate precisions across objects to exercise promotion paths.
    for kind in BenchKind::ALL {
        let app = PolyApp::tiny(kind);
        let mut s = Session::new(
            SystemModel::system1(),
            app.program(),
            ScalingSpec::baseline(),
        );
        app.run(&mut s).expect("baseline");
        let mut spec = ScalingSpec::baseline();
        for (i, obj) in s.log().objects.iter().enumerate() {
            let p = match i % 3 {
                0 => Precision::Double,
                1 => Precision::Single,
                _ => Precision::Half,
            };
            spec = spec.with_target(&obj.label, p);
        }
        assert_engines_agree(&app, &spec);
    }
}

#[test]
fn shipped_reduction_loops_fuse_into_one_instruction() {
    // Kernels whose inner loop is one in-place dot-product step run each
    // such loop as a single VM instruction; every other shipped kernel
    // has none (SYR2K's step has two products, the vector kernels load a
    // plain `x[j]`, the stencils have no reduction loop).
    let expected: HashMap<&str, usize> = [
        ("gemm", 1),
        ("mm2_k1", 1),
        ("mm2_k2", 1),
        ("mm3_k1", 1),
        ("mm3_k2", 1),
        ("mm3_k3", 1),
        ("syrk", 1),
        ("corr_compute", 1),
        ("covar_compute", 1),
    ]
    .into_iter()
    .collect();
    let mut seen = 0;
    for kind in BenchKind::ALL {
        for kernel in &PolyApp::tiny(kind).program().kernels {
            let compiled = compile_kernel(kernel).expect("shipped kernels compile");
            let want = expected.get(kernel.name.as_str()).copied().unwrap_or(0);
            assert_eq!(
                compiled.fused_loops(),
                want,
                "fused loops in `{}`",
                kernel.name
            );
            seen += usize::from(want > 0);
        }
    }
    assert_eq!(seen, expected.len(), "every expected kernel is shipped");
}
