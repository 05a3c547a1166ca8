//! Matrix-vector family: ATAX, BICG, MVT, GESUMMV — the data-intensive
//! half of the suite (O(N²) data, O(N²) work).

use crate::apps::linalg::idx2;
use crate::bench::PolyApp;
use crate::spec::Dims;
use prescaler_ir::dsl::*;
use prescaler_ir::{Access, Kernel, Precision, Program};
use prescaler_ocl::{KernelArg, OclError, Outputs, Session};

/// A row-wise matrix-vector kernel: `out[i] = Σ_j mat[i][j] * vec[j]`
/// (or the transposed access when `transposed`).
fn matvec_kernel(name: &str, mat: &str, vin: &str, vout: &str, transposed: bool) -> Kernel {
    let load_elem = if transposed {
        load(mat, idx2(var("j"), var("i"), var("n")))
    } else {
        load(mat, idx2(var("i"), var("j"), var("n")))
    };
    kernel(name)
        .buffer(mat, Precision::Double, Access::Read)
        .buffer(vin, Precision::Double, Access::Read)
        .buffer(vout, Precision::Double, Access::Write)
        .int_param("n")
        .body(vec![
            let_("i", global_id(0)),
            if_(
                lt(var("i"), var("n")),
                vec![
                    let_acc("acc", vout, flit(0.0)),
                    for_(
                        "j",
                        int(0),
                        var("n"),
                        vec![add_assign("acc", load_elem * load(vin, var("j")))],
                    ),
                    store(vout, var("i"), var("acc")),
                ],
            ),
        ])
}

// ---------------------------------------------------------------------------
// ATAX: y = Aᵀ(Ax)
// ---------------------------------------------------------------------------

pub(crate) fn atax_program() -> Program {
    Program::new("ATAX")
        .with_kernel(matvec_kernel("atax_k1", "a", "x", "tmp", false))
        .with_kernel(matvec_kernel("atax_k2", "a", "tmp", "y", true))
}

pub(crate) fn atax_run(s: &mut Session, d: &Dims, app: &PolyApp) -> Result<Outputs, OclError> {
    let n = d.ni;
    let a = s.create_buffer("A", n * n, Precision::Double)?;
    let x = s.create_buffer("X", n, Precision::Double)?;
    let tmp = s.create_buffer("TMP", n, Precision::Double)?;
    let y = s.create_buffer("Y", n, Precision::Double)?;
    s.enqueue_write(a, &app.input("A", n * n))?;
    s.enqueue_write(x, &app.input("X", n))?;
    let nn = KernelArg::Int(n as i64);
    s.launch_kernel(
        "atax_k1",
        [n, 1],
        &[
            ("a", KernelArg::Buffer(a)),
            ("x", KernelArg::Buffer(x)),
            ("tmp", KernelArg::Buffer(tmp)),
            ("n", nn.clone()),
        ],
    )?;
    s.launch_kernel(
        "atax_k2",
        [n, 1],
        &[
            ("a", KernelArg::Buffer(a)),
            ("tmp", KernelArg::Buffer(tmp)),
            ("y", KernelArg::Buffer(y)),
            ("n", nn),
        ],
    )?;
    Ok(vec![("Y".to_owned(), s.enqueue_read(y)?)])
}

// ---------------------------------------------------------------------------
// BICG: q = A p, s = Aᵀ r
// ---------------------------------------------------------------------------

pub(crate) fn bicg_program() -> Program {
    Program::new("BICG")
        .with_kernel(matvec_kernel("bicg_k1", "a", "p", "q", false))
        .with_kernel(matvec_kernel("bicg_k2", "a", "r", "s", true))
}

pub(crate) fn bicg_run(s: &mut Session, d: &Dims, app: &PolyApp) -> Result<Outputs, OclError> {
    let n = d.ni;
    let a = s.create_buffer("A", n * n, Precision::Double)?;
    let p = s.create_buffer("P", n, Precision::Double)?;
    let r = s.create_buffer("R", n, Precision::Double)?;
    let q = s.create_buffer("Q", n, Precision::Double)?;
    let sv = s.create_buffer("S", n, Precision::Double)?;
    s.enqueue_write(a, &app.input("A", n * n))?;
    s.enqueue_write(p, &app.input("P", n))?;
    s.enqueue_write(r, &app.input("R", n))?;
    let nn = KernelArg::Int(n as i64);
    s.launch_kernel(
        "bicg_k1",
        [n, 1],
        &[
            ("a", KernelArg::Buffer(a)),
            ("p", KernelArg::Buffer(p)),
            ("q", KernelArg::Buffer(q)),
            ("n", nn.clone()),
        ],
    )?;
    s.launch_kernel(
        "bicg_k2",
        [n, 1],
        &[
            ("a", KernelArg::Buffer(a)),
            ("r", KernelArg::Buffer(r)),
            ("s", KernelArg::Buffer(sv)),
            ("n", nn),
        ],
    )?;
    Ok(vec![
        ("Q".to_owned(), s.enqueue_read(q)?),
        ("S".to_owned(), s.enqueue_read(sv)?),
    ])
}

// ---------------------------------------------------------------------------
// MVT: x1 += A y1, x2 += Aᵀ y2
// ---------------------------------------------------------------------------

fn mvt_kernel(name: &str, xv: &str, yv: &str, transposed: bool) -> Kernel {
    let load_elem = if transposed {
        load("a", idx2(var("j"), var("i"), var("n")))
    } else {
        load("a", idx2(var("i"), var("j"), var("n")))
    };
    kernel(name)
        .buffer("a", Precision::Double, Access::Read)
        .buffer(xv, Precision::Double, Access::ReadWrite)
        .buffer(yv, Precision::Double, Access::Read)
        .int_param("n")
        .body(vec![
            let_("i", global_id(0)),
            if_(
                lt(var("i"), var("n")),
                vec![
                    let_acc("acc", xv, load(xv, var("i"))),
                    for_(
                        "j",
                        int(0),
                        var("n"),
                        vec![add_assign("acc", load_elem * load(yv, var("j")))],
                    ),
                    store(xv, var("i"), var("acc")),
                ],
            ),
        ])
}

pub(crate) fn mvt_program() -> Program {
    Program::new("MVT")
        .with_kernel(mvt_kernel("mvt_k1", "x1", "y1", false))
        .with_kernel(mvt_kernel("mvt_k2", "x2", "y2", true))
}

pub(crate) fn mvt_run(s: &mut Session, d: &Dims, app: &PolyApp) -> Result<Outputs, OclError> {
    let n = d.ni;
    let a = s.create_buffer("A", n * n, Precision::Double)?;
    let x1 = s.create_buffer("X1", n, Precision::Double)?;
    let x2 = s.create_buffer("X2", n, Precision::Double)?;
    let y1 = s.create_buffer("Y1", n, Precision::Double)?;
    let y2 = s.create_buffer("Y2", n, Precision::Double)?;
    s.enqueue_write(a, &app.input("A", n * n))?;
    s.enqueue_write(x1, &app.input("X1", n))?;
    s.enqueue_write(x2, &app.input("X2", n))?;
    s.enqueue_write(y1, &app.input("Y1", n))?;
    s.enqueue_write(y2, &app.input("Y2", n))?;
    let nn = KernelArg::Int(n as i64);
    s.launch_kernel(
        "mvt_k1",
        [n, 1],
        &[
            ("a", KernelArg::Buffer(a)),
            ("x1", KernelArg::Buffer(x1)),
            ("y1", KernelArg::Buffer(y1)),
            ("n", nn.clone()),
        ],
    )?;
    s.launch_kernel(
        "mvt_k2",
        [n, 1],
        &[
            ("a", KernelArg::Buffer(a)),
            ("x2", KernelArg::Buffer(x2)),
            ("y2", KernelArg::Buffer(y2)),
            ("n", nn),
        ],
    )?;
    Ok(vec![
        ("X1".to_owned(), s.enqueue_read(x1)?),
        ("X2".to_owned(), s.enqueue_read(x2)?),
    ])
}

// ---------------------------------------------------------------------------
// GESUMMV: y = α·A·x + β·B·x
// ---------------------------------------------------------------------------

pub(crate) fn gesummv_program() -> Program {
    Program::new("GESUMMV").with_kernel(
        kernel("gesummv")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("b", Precision::Double, Access::Read)
            .buffer("x", Precision::Double, Access::Read)
            .buffer("y", Precision::Double, Access::Write)
            .buffer("tmp", Precision::Double, Access::Write)
            .float_param_like("alpha", "y")
            .float_param_like("beta", "y")
            .int_param("n")
            .body(vec![
                let_("i", global_id(0)),
                if_(
                    lt(var("i"), var("n")),
                    vec![
                        let_acc("t", "tmp", flit(0.0)),
                        let_acc("u", "y", flit(0.0)),
                        for_(
                            "j",
                            int(0),
                            var("n"),
                            vec![
                                add_assign(
                                    "t",
                                    load("a", idx2(var("i"), var("j"), var("n")))
                                        * load("x", var("j")),
                                ),
                                add_assign(
                                    "u",
                                    load("b", idx2(var("i"), var("j"), var("n")))
                                        * load("x", var("j")),
                                ),
                            ],
                        ),
                        store("tmp", var("i"), var("t")),
                        store(
                            "y",
                            var("i"),
                            var("alpha") * var("t") + var("beta") * var("u"),
                        ),
                    ],
                ),
            ]),
    )
}

pub(crate) fn gesummv_run(s: &mut Session, d: &Dims, app: &PolyApp) -> Result<Outputs, OclError> {
    let n = d.ni;
    let a = s.create_buffer("A", n * n, Precision::Double)?;
    let b = s.create_buffer("B", n * n, Precision::Double)?;
    let x = s.create_buffer("X", n, Precision::Double)?;
    let y = s.create_buffer("Y", n, Precision::Double)?;
    let tmp = s.create_buffer("TMP", n, Precision::Double)?;
    s.enqueue_write(a, &app.input("A", n * n))?;
    s.enqueue_write(b, &app.input("B", n * n))?;
    s.enqueue_write(x, &app.input("X", n))?;
    s.launch_kernel(
        "gesummv",
        [n, 1],
        &[
            ("a", KernelArg::Buffer(a)),
            ("b", KernelArg::Buffer(b)),
            ("x", KernelArg::Buffer(x)),
            ("y", KernelArg::Buffer(y)),
            ("tmp", KernelArg::Buffer(tmp)),
            ("alpha", KernelArg::Float(1.5)),
            ("beta", KernelArg::Float(1.2)),
            ("n", KernelArg::Int(n as i64)),
        ],
    )?;
    Ok(vec![("Y".to_owned(), s.enqueue_read(y)?)])
}
