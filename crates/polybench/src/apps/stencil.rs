//! Stencil family: 2DCONV, 3DCONV, FDTD-2D.

use crate::apps::linalg::idx2;
use crate::bench::PolyApp;
use crate::spec::Dims;
use prescaler_ir::dsl::*;
use prescaler_ir::{Access, Expr, Precision, Program};
use prescaler_ocl::{KernelArg, OclError, Outputs, Session};

// ---------------------------------------------------------------------------
// 2DCONV: 3×3 stencil with the standard Polybench coefficients.
// ---------------------------------------------------------------------------

fn a2(i: Expr, j: Expr) -> Expr {
    load("a", idx2(i, j, var("nj")))
}

pub(crate) fn twodconv_program() -> Program {
    let i = || var("i");
    let j = || var("j");
    let one = || int(1);
    let body = flit(0.2) * a2(i() - one(), j() - one())
        + flit(0.5) * a2(i() - one(), j())
        + flit(-0.8) * a2(i() - one(), j() + one())
        + flit(-0.3) * a2(i(), j() - one())
        + flit(0.6) * a2(i(), j())
        + flit(-0.9) * a2(i(), j() + one())
        + flit(0.4) * a2(i() + one(), j() - one())
        + flit(0.7) * a2(i() + one(), j())
        + flit(0.1) * a2(i() + one(), j() + one());
    Program::new("2DCONV").with_kernel(
        kernel("conv2d")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("b", Precision::Double, Access::Write)
            .int_param("ni")
            .int_param("nj")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                if_(
                    gt(var("i"), int(0)),
                    vec![if_(
                        lt(var("i"), var("ni") - int(1)),
                        vec![if_(
                            gt(var("j"), int(0)),
                            vec![if_(
                                lt(var("j"), var("nj") - int(1)),
                                vec![store("b", idx2(var("i"), var("j"), var("nj")), body)],
                            )],
                        )],
                    )],
                ),
            ]),
    )
}

pub(crate) fn twodconv_run(s: &mut Session, d: &Dims, app: &PolyApp) -> Result<Outputs, OclError> {
    let (ni, nj) = (d.ni, d.nj);
    let a = s.create_buffer("A", ni * nj, Precision::Double)?;
    let b = s.create_buffer("B", ni * nj, Precision::Double)?;
    s.enqueue_write(a, &app.input("A", ni * nj))?;
    s.launch_kernel(
        "conv2d",
        [nj, ni],
        &[
            ("a", KernelArg::Buffer(a)),
            ("b", KernelArg::Buffer(b)),
            ("ni", KernelArg::Int(ni as i64)),
            ("nj", KernelArg::Int(nj as i64)),
        ],
    )?;
    Ok(vec![("B".to_owned(), s.enqueue_read(b)?)])
}

// ---------------------------------------------------------------------------
// 3DCONV: 11-point stencil over a cube, 2-D launch with a depth loop.
// ---------------------------------------------------------------------------

fn a3(i: Expr, j: Expr, k: Expr) -> Expr {
    load("a", (i * var("nj") + j) * var("nk") + k)
}

pub(crate) fn threedconv_program() -> Program {
    let i = || var("i");
    let j = || var("j");
    let k = || var("k");
    let one = || int(1);
    let body = flit(2.0) * a3(i() - one(), j() - one(), k() - one())
        + flit(0.5) * a3(i(), j() - one(), k() - one())
        + flit(-0.8) * a3(i() + one(), j() - one(), k() - one())
        + flit(-0.3) * a3(i() - one(), j(), k())
        + flit(0.6) * a3(i(), j(), k())
        + flit(-0.9) * a3(i() + one(), j(), k())
        + flit(0.4) * a3(i() - one(), j() + one(), k() + one())
        + flit(0.7) * a3(i(), j() + one(), k() + one())
        + flit(0.1) * a3(i() + one(), j() + one(), k() + one())
        + flit(-0.2) * a3(i(), j(), k() - one())
        + flit(0.3) * a3(i(), j(), k() + one());
    Program::new("3DCONV").with_kernel(
        kernel("conv3d")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("b", Precision::Double, Access::Write)
            .int_param("ni")
            .int_param("nj")
            .int_param("nk")
            .body(vec![
                let_("k", global_id(0)),
                let_("j", global_id(1)),
                if_(
                    gt(var("j"), int(0)),
                    vec![if_(
                        lt(var("j"), var("nj") - int(1)),
                        vec![if_(
                            gt(var("k"), int(0)),
                            vec![if_(
                                lt(var("k"), var("nk") - int(1)),
                                vec![for_(
                                    "i",
                                    int(1),
                                    var("ni") - int(1),
                                    vec![store(
                                        "b",
                                        (var("i") * var("nj") + var("j")) * var("nk") + var("k"),
                                        body,
                                    )],
                                )],
                            )],
                        )],
                    )],
                ),
            ]),
    )
}

pub(crate) fn threedconv_run(
    s: &mut Session,
    d: &Dims,
    app: &PolyApp,
) -> Result<Outputs, OclError> {
    let (ni, nj, nk) = (d.ni, d.nj, d.nk);
    let len = ni * nj * nk;
    let a = s.create_buffer("A", len, Precision::Double)?;
    let b = s.create_buffer("B", len, Precision::Double)?;
    s.enqueue_write(a, &app.input("A", len))?;
    s.launch_kernel(
        "conv3d",
        [nk, nj],
        &[
            ("a", KernelArg::Buffer(a)),
            ("b", KernelArg::Buffer(b)),
            ("ni", KernelArg::Int(ni as i64)),
            ("nj", KernelArg::Int(nj as i64)),
            ("nk", KernelArg::Int(nk as i64)),
        ],
    )?;
    Ok(vec![("B".to_owned(), s.enqueue_read(b)?)])
}

// ---------------------------------------------------------------------------
// FDTD-2D: ey/ex/hz updates over TMAX time steps.
//
// Shapes: ex is ni×(nj+1), ey is (ni+1)×nj, hz is ni×nj, fict is tmax.
// ---------------------------------------------------------------------------

pub(crate) fn fdtd2d_program() -> Program {
    let ey_kernel = kernel("fdtd_ey")
        .buffer("fict", Precision::Double, Access::Read)
        .buffer("ey", Precision::Double, Access::ReadWrite)
        .buffer("hz", Precision::Double, Access::Read)
        .int_param("ni")
        .int_param("nj")
        .int_param("t")
        .body(vec![
            let_("j", global_id(0)),
            let_("i", global_id(1)),
            if_(
                lt(var("j"), var("nj")),
                vec![if_else(
                    cmp(prescaler_ir::CmpOp::Eq, var("i"), int(0)),
                    vec![store("ey", var("j"), load("fict", var("t")))],
                    vec![if_(
                        lt(var("i"), var("ni")),
                        vec![store(
                            "ey",
                            idx2(var("i"), var("j"), var("nj")),
                            load("ey", idx2(var("i"), var("j"), var("nj")))
                                - flit(0.5)
                                    * (load("hz", idx2(var("i"), var("j"), var("nj")))
                                        - load("hz", idx2(var("i") - int(1), var("j"), var("nj")))),
                        )],
                    )],
                )],
            ),
        ]);

    let ex_kernel = kernel("fdtd_ex")
        .buffer("ex", Precision::Double, Access::ReadWrite)
        .buffer("hz", Precision::Double, Access::Read)
        .int_param("ni")
        .int_param("nj")
        .body(vec![
            let_("j", global_id(0)),
            let_("i", global_id(1)),
            if_(
                lt(var("i"), var("ni")),
                vec![if_(
                    gt(var("j"), int(0)),
                    vec![if_(
                        lt(var("j"), var("nj")),
                        vec![store(
                            "ex",
                            idx2(var("i"), var("j"), var("nj") + int(1)),
                            load("ex", idx2(var("i"), var("j"), var("nj") + int(1)))
                                - flit(0.5)
                                    * (load("hz", idx2(var("i"), var("j"), var("nj")))
                                        - load("hz", idx2(var("i"), var("j") - int(1), var("nj")))),
                        )],
                    )],
                )],
            ),
        ]);

    let hz_kernel = kernel("fdtd_hz")
        .buffer("ex", Precision::Double, Access::Read)
        .buffer("ey", Precision::Double, Access::Read)
        .buffer("hz", Precision::Double, Access::ReadWrite)
        .int_param("ni")
        .int_param("nj")
        .body(vec![
            let_("j", global_id(0)),
            let_("i", global_id(1)),
            if_(
                lt(var("i"), var("ni")),
                vec![if_(
                    lt(var("j"), var("nj")),
                    vec![store(
                        "hz",
                        idx2(var("i"), var("j"), var("nj")),
                        load("hz", idx2(var("i"), var("j"), var("nj")))
                            - flit(0.7)
                                * (load(
                                    "ex",
                                    idx2(var("i"), var("j") + int(1), var("nj") + int(1)),
                                ) - load("ex", idx2(var("i"), var("j"), var("nj") + int(1)))
                                    + load("ey", idx2(var("i") + int(1), var("j"), var("nj")))
                                    - load("ey", idx2(var("i"), var("j"), var("nj")))),
                    )],
                )],
            ),
        ]);

    Program::new("FDTD-2D")
        .with_kernel(ey_kernel)
        .with_kernel(ex_kernel)
        .with_kernel(hz_kernel)
}

pub(crate) fn fdtd2d_run(s: &mut Session, d: &Dims, app: &PolyApp) -> Result<Outputs, OclError> {
    let (ni, nj, tmax) = (d.ni, d.nj, d.tmax.max(1));
    let fict = s.create_buffer("FICT", tmax, Precision::Double)?;
    let ex = s.create_buffer("EX", ni * (nj + 1), Precision::Double)?;
    let ey = s.create_buffer("EY", (ni + 1) * nj, Precision::Double)?;
    let hz = s.create_buffer("HZ", ni * nj, Precision::Double)?;
    s.enqueue_write(fict, &app.input("FICT", tmax))?;
    s.enqueue_write(ex, &app.input("EX", ni * (nj + 1)))?;
    s.enqueue_write(ey, &app.input("EY", (ni + 1) * nj))?;
    s.enqueue_write(hz, &app.input("HZ", ni * nj))?;
    for t in 0..tmax {
        s.launch_kernel(
            "fdtd_ey",
            [nj, ni],
            &[
                ("fict", KernelArg::Buffer(fict)),
                ("ey", KernelArg::Buffer(ey)),
                ("hz", KernelArg::Buffer(hz)),
                ("ni", KernelArg::Int(ni as i64)),
                ("nj", KernelArg::Int(nj as i64)),
                ("t", KernelArg::Int(t as i64)),
            ],
        )?;
        s.launch_kernel(
            "fdtd_ex",
            [nj + 1, ni],
            &[
                ("ex", KernelArg::Buffer(ex)),
                ("hz", KernelArg::Buffer(hz)),
                ("ni", KernelArg::Int(ni as i64)),
                ("nj", KernelArg::Int(nj as i64)),
            ],
        )?;
        s.launch_kernel(
            "fdtd_hz",
            [nj, ni],
            &[
                ("ex", KernelArg::Buffer(ex)),
                ("ey", KernelArg::Buffer(ey)),
                ("hz", KernelArg::Buffer(hz)),
                ("ni", KernelArg::Int(ni as i64)),
                ("nj", KernelArg::Int(nj as i64)),
            ],
        )?;
    }
    Ok(vec![("HZ".to_owned(), s.enqueue_read(hz)?)])
}
