//! Matrix-multiplication family: GEMM, 2MM, 3MM, SYRK, SYR2K.

use crate::bench::PolyApp;
use crate::spec::Dims;
use prescaler_ir::dsl::*;
use prescaler_ir::{Access, Expr, Precision, Program};
use prescaler_ocl::{KernelArg, OclError, Outputs, Session};

/// `i * w + j` as an index expression.
pub(crate) fn idx2(i: Expr, j: Expr, w: Expr) -> Expr {
    i * w + j
}

/// A plain `c = a × b` matmul kernel over square `n×n` matrices, with the
/// standard launch guards.
pub(crate) fn matmul_kernel(name: &str, a: &str, b: &str, c: &str) -> prescaler_ir::Kernel {
    kernel(name)
        .buffer(a, Precision::Double, Access::Read)
        .buffer(b, Precision::Double, Access::Read)
        .buffer(c, Precision::Double, Access::Write)
        .int_param("n")
        .body(vec![
            let_("j", global_id(0)),
            let_("i", global_id(1)),
            if_(
                lt(var("i"), var("n")),
                vec![if_(
                    lt(var("j"), var("n")),
                    vec![
                        let_acc("acc", c, flit(0.0)),
                        for_(
                            "k",
                            int(0),
                            var("n"),
                            vec![add_assign(
                                "acc",
                                load(a, idx2(var("i"), var("k"), var("n")))
                                    * load(b, idx2(var("k"), var("j"), var("n"))),
                            )],
                        ),
                        store(c, idx2(var("i"), var("j"), var("n")), var("acc")),
                    ],
                )],
            ),
        ])
}

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

pub(crate) fn gemm_program() -> Program {
    Program::new("GEMM").with_kernel(
        kernel("gemm")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("b", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::ReadWrite)
            .float_param_like("alpha", "c")
            .float_param_like("beta", "c")
            .int_param("ni")
            .int_param("nj")
            .int_param("nk")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                if_(
                    lt(var("i"), var("ni")),
                    vec![if_(
                        lt(var("j"), var("nj")),
                        vec![
                            let_acc("acc", "c", flit(0.0)),
                            for_(
                                "k",
                                int(0),
                                var("nk"),
                                vec![add_assign(
                                    "acc",
                                    load("a", idx2(var("i"), var("k"), var("nk")))
                                        * load("b", idx2(var("k"), var("j"), var("nj"))),
                                )],
                            ),
                            store(
                                "c",
                                idx2(var("i"), var("j"), var("nj")),
                                var("alpha") * var("acc")
                                    + var("beta") * load("c", idx2(var("i"), var("j"), var("nj"))),
                            ),
                        ],
                    )],
                ),
            ]),
    )
}

pub(crate) fn gemm_run(s: &mut Session, d: &Dims, app: &PolyApp) -> Result<Outputs, OclError> {
    let (ni, nj, nk) = (d.ni, d.nj, d.nk);
    let a = s.create_buffer("A", ni * nk, Precision::Double)?;
    let b = s.create_buffer("B", nk * nj, Precision::Double)?;
    let c = s.create_buffer("C", ni * nj, Precision::Double)?;
    s.enqueue_write(a, &app.input("A", ni * nk))?;
    s.enqueue_write(b, &app.input("B", nk * nj))?;
    s.enqueue_write(c, &app.input("C", ni * nj))?;
    s.launch_kernel(
        "gemm",
        [nj, ni],
        &[
            ("a", KernelArg::Buffer(a)),
            ("b", KernelArg::Buffer(b)),
            ("c", KernelArg::Buffer(c)),
            ("alpha", KernelArg::Float(1.5)),
            ("beta", KernelArg::Float(1.2)),
            ("ni", KernelArg::Int(ni as i64)),
            ("nj", KernelArg::Int(nj as i64)),
            ("nk", KernelArg::Int(nk as i64)),
        ],
    )?;
    Ok(vec![("C".to_owned(), s.enqueue_read(c)?)])
}

// ---------------------------------------------------------------------------
// 2MM: C = A×B, E = C×D
// ---------------------------------------------------------------------------

pub(crate) fn twomm_program() -> Program {
    Program::new("2MM")
        .with_kernel(matmul_kernel("mm2_k1", "a", "b", "c"))
        .with_kernel(matmul_kernel("mm2_k2", "c", "d", "e"))
}

pub(crate) fn twomm_run(s: &mut Session, d: &Dims, app: &PolyApp) -> Result<Outputs, OclError> {
    let n = d.ni;
    let a = s.create_buffer("A", n * n, Precision::Double)?;
    let b = s.create_buffer("B", n * n, Precision::Double)?;
    let c = s.create_buffer("C", n * n, Precision::Double)?;
    let dd = s.create_buffer("D", n * n, Precision::Double)?;
    let e = s.create_buffer("E", n * n, Precision::Double)?;
    s.enqueue_write(a, &app.input("A", n * n))?;
    s.enqueue_write(b, &app.input("B", n * n))?;
    s.enqueue_write(dd, &app.input("D", n * n))?;
    let nn = KernelArg::Int(n as i64);
    s.launch_kernel(
        "mm2_k1",
        [n, n],
        &[
            ("a", KernelArg::Buffer(a)),
            ("b", KernelArg::Buffer(b)),
            ("c", KernelArg::Buffer(c)),
            ("n", nn.clone()),
        ],
    )?;
    s.launch_kernel(
        "mm2_k2",
        [n, n],
        &[
            ("c", KernelArg::Buffer(c)),
            ("d", KernelArg::Buffer(dd)),
            ("e", KernelArg::Buffer(e)),
            ("n", nn),
        ],
    )?;
    Ok(vec![("E".to_owned(), s.enqueue_read(e)?)])
}

// ---------------------------------------------------------------------------
// 3MM: E = A×B, F = C×D, G = E×F
// ---------------------------------------------------------------------------

pub(crate) fn threemm_program() -> Program {
    Program::new("3MM")
        .with_kernel(matmul_kernel("mm3_k1", "a", "b", "e"))
        .with_kernel(matmul_kernel("mm3_k2", "c", "d", "f"))
        .with_kernel(matmul_kernel("mm3_k3", "e", "f", "g"))
}

pub(crate) fn threemm_run(s: &mut Session, d: &Dims, app: &PolyApp) -> Result<Outputs, OclError> {
    let n = d.ni;
    let a = s.create_buffer("A", n * n, Precision::Double)?;
    let b = s.create_buffer("B", n * n, Precision::Double)?;
    let c = s.create_buffer("C", n * n, Precision::Double)?;
    let dd = s.create_buffer("D", n * n, Precision::Double)?;
    let e = s.create_buffer("E", n * n, Precision::Double)?;
    let f = s.create_buffer("F", n * n, Precision::Double)?;
    let g = s.create_buffer("G", n * n, Precision::Double)?;
    for (id, tag) in [(a, "A"), (b, "B"), (c, "C"), (dd, "D")] {
        s.enqueue_write(id, &app.input(tag, n * n))?;
    }
    let nn = KernelArg::Int(n as i64);
    s.launch_kernel(
        "mm3_k1",
        [n, n],
        &[
            ("a", KernelArg::Buffer(a)),
            ("b", KernelArg::Buffer(b)),
            ("e", KernelArg::Buffer(e)),
            ("n", nn.clone()),
        ],
    )?;
    s.launch_kernel(
        "mm3_k2",
        [n, n],
        &[
            ("c", KernelArg::Buffer(c)),
            ("d", KernelArg::Buffer(dd)),
            ("f", KernelArg::Buffer(f)),
            ("n", nn.clone()),
        ],
    )?;
    s.launch_kernel(
        "mm3_k3",
        [n, n],
        &[
            ("e", KernelArg::Buffer(e)),
            ("f", KernelArg::Buffer(f)),
            ("g", KernelArg::Buffer(g)),
            ("n", nn),
        ],
    )?;
    Ok(vec![("G".to_owned(), s.enqueue_read(g)?)])
}

// ---------------------------------------------------------------------------
// SYRK: C = β·C + α·A·Aᵀ
// ---------------------------------------------------------------------------

pub(crate) fn syrk_program() -> Program {
    Program::new("SYRK").with_kernel(
        kernel("syrk")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::ReadWrite)
            .float_param_like("alpha", "c")
            .float_param_like("beta", "c")
            .int_param("n")
            .int_param("m")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                if_(
                    lt(var("i"), var("n")),
                    vec![if_(
                        lt(var("j"), var("n")),
                        vec![
                            let_acc("acc", "c", flit(0.0)),
                            for_(
                                "k",
                                int(0),
                                var("m"),
                                vec![add_assign(
                                    "acc",
                                    load("a", idx2(var("i"), var("k"), var("m")))
                                        * load("a", idx2(var("j"), var("k"), var("m"))),
                                )],
                            ),
                            store(
                                "c",
                                idx2(var("i"), var("j"), var("n")),
                                var("beta") * load("c", idx2(var("i"), var("j"), var("n")))
                                    + var("alpha") * var("acc"),
                            ),
                        ],
                    )],
                ),
            ]),
    )
}

pub(crate) fn syrk_run(s: &mut Session, d: &Dims, app: &PolyApp) -> Result<Outputs, OclError> {
    let (n, m) = (d.ni, d.nj);
    let a = s.create_buffer("A", n * m, Precision::Double)?;
    let c = s.create_buffer("C", n * n, Precision::Double)?;
    s.enqueue_write(a, &app.input("A", n * m))?;
    s.enqueue_write(c, &app.input("C", n * n))?;
    s.launch_kernel(
        "syrk",
        [n, n],
        &[
            ("a", KernelArg::Buffer(a)),
            ("c", KernelArg::Buffer(c)),
            ("alpha", KernelArg::Float(1.5)),
            ("beta", KernelArg::Float(1.2)),
            ("n", KernelArg::Int(n as i64)),
            ("m", KernelArg::Int(m as i64)),
        ],
    )?;
    Ok(vec![("C".to_owned(), s.enqueue_read(c)?)])
}

// ---------------------------------------------------------------------------
// SYR2K: C = β·C + α·A·Bᵀ + α·B·Aᵀ
// ---------------------------------------------------------------------------

pub(crate) fn syr2k_program() -> Program {
    Program::new("SYR2K").with_kernel(
        kernel("syr2k")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("b", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::ReadWrite)
            .float_param_like("alpha", "c")
            .float_param_like("beta", "c")
            .int_param("n")
            .int_param("m")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                if_(
                    lt(var("i"), var("n")),
                    vec![if_(
                        lt(var("j"), var("n")),
                        vec![
                            let_acc("acc", "c", flit(0.0)),
                            for_(
                                "k",
                                int(0),
                                var("m"),
                                vec![add_assign(
                                    "acc",
                                    load("a", idx2(var("i"), var("k"), var("m")))
                                        * load("b", idx2(var("j"), var("k"), var("m")))
                                        + load("b", idx2(var("i"), var("k"), var("m")))
                                            * load("a", idx2(var("j"), var("k"), var("m"))),
                                )],
                            ),
                            store(
                                "c",
                                idx2(var("i"), var("j"), var("n")),
                                var("beta") * load("c", idx2(var("i"), var("j"), var("n")))
                                    + var("alpha") * var("acc"),
                            ),
                        ],
                    )],
                ),
            ]),
    )
}

pub(crate) fn syr2k_run(s: &mut Session, d: &Dims, app: &PolyApp) -> Result<Outputs, OclError> {
    let (n, m) = (d.ni, d.nj);
    let a = s.create_buffer("A", n * m, Precision::Double)?;
    let b = s.create_buffer("B", n * m, Precision::Double)?;
    let c = s.create_buffer("C", n * n, Precision::Double)?;
    s.enqueue_write(a, &app.input("A", n * m))?;
    s.enqueue_write(b, &app.input("B", n * m))?;
    s.enqueue_write(c, &app.input("C", n * n))?;
    s.launch_kernel(
        "syr2k",
        [n, n],
        &[
            ("a", KernelArg::Buffer(a)),
            ("b", KernelArg::Buffer(b)),
            ("c", KernelArg::Buffer(c)),
            ("alpha", KernelArg::Float(1.5)),
            ("beta", KernelArg::Float(1.2)),
            ("n", KernelArg::Int(n as i64)),
            ("m", KernelArg::Int(m as i64)),
        ],
    )?;
    Ok(vec![("C".to_owned(), s.enqueue_read(c)?)])
}

/// Reference GEMM in plain Rust, matching the kernel's accumulation order
/// exactly (used by tests to pin down bit-exactness of the baseline).
#[allow(dead_code)] // exercised by unit tests only
#[allow(clippy::too_many_arguments)] // mirrors the kernel signature
#[must_use]
pub fn gemm_reference(
    a: &[f64],
    b: &[f64],
    c: &[f64],
    ni: usize,
    nj: usize,
    nk: usize,
    alpha: f64,
    beta: f64,
) -> Vec<f64> {
    let mut out = vec![0.0; ni * nj];
    for i in 0..ni {
        for j in 0..nj {
            let mut acc = 0.0;
            for k in 0..nk {
                acc += a[i * nk + k] * b[k * nj + j];
            }
            out[i * nj + j] = alpha * acc + beta * c[i * nj + j];
        }
    }
    out
}
