//! Statistics family: CORR (correlation matrix) and COVAR (covariance
//! matrix) — compute-intensive with triangular kernels.

use crate::apps::linalg::idx2;
use crate::bench::PolyApp;
use crate::spec::Dims;
use prescaler_ir::dsl::*;
use prescaler_ir::{Access, Precision, Program};
use prescaler_ocl::{KernelArg, OclError, Outputs, Session};

/// Column-mean kernel: `mean[j] = Σ_i data[i][j] / float_n`.
fn mean_kernel(name: &str) -> prescaler_ir::Kernel {
    kernel(name)
        .buffer("data", Precision::Double, Access::Read)
        .buffer("mean", Precision::Double, Access::Write)
        .float_param_like("float_n", "mean")
        .int_param("m")
        .int_param("n")
        .body(vec![
            let_("j", global_id(0)),
            if_(
                lt(var("j"), var("m")),
                vec![
                    let_acc("acc", "mean", flit(0.0)),
                    for_(
                        "i",
                        int(0),
                        var("n"),
                        vec![add_assign(
                            "acc",
                            load("data", idx2(var("i"), var("j"), var("m"))),
                        )],
                    ),
                    store("mean", var("j"), var("acc") / var("float_n")),
                ],
            ),
        ])
}

// ---------------------------------------------------------------------------
// CORR
// ---------------------------------------------------------------------------

pub(crate) fn corr_program() -> Program {
    let std_kernel = kernel("corr_std")
        .buffer("data", Precision::Double, Access::Read)
        .buffer("mean", Precision::Double, Access::Read)
        .buffer("stddev", Precision::Double, Access::Write)
        .float_param_like("float_n", "stddev")
        .float_param_like("eps", "stddev")
        .int_param("m")
        .int_param("n")
        .body(vec![
            let_("j", global_id(0)),
            if_(
                lt(var("j"), var("m")),
                vec![
                    let_acc("acc", "stddev", flit(0.0)),
                    for_(
                        "i",
                        int(0),
                        var("n"),
                        vec![
                            let_acc(
                                "dv",
                                "stddev",
                                load("data", idx2(var("i"), var("j"), var("m")))
                                    - load("mean", var("j")),
                            ),
                            add_assign("acc", var("dv") * var("dv")),
                        ],
                    ),
                    let_acc("sd", "stddev", sqrt(var("acc") / var("float_n"))),
                    store(
                        "stddev",
                        var("j"),
                        select(le(var("sd"), var("eps")), flit(1.0), var("sd")),
                    ),
                ],
            ),
        ]);

    let reduce_kernel = kernel("corr_reduce")
        .buffer("data", Precision::Double, Access::ReadWrite)
        .buffer("mean", Precision::Double, Access::Read)
        .buffer("stddev", Precision::Double, Access::Read)
        .float_param_like("float_n", "data")
        .int_param("m")
        .int_param("n")
        .body(vec![
            let_("j", global_id(0)),
            let_("i", global_id(1)),
            if_(
                lt(var("i"), var("n")),
                vec![if_(
                    lt(var("j"), var("m")),
                    vec![store(
                        "data",
                        idx2(var("i"), var("j"), var("m")),
                        (load("data", idx2(var("i"), var("j"), var("m"))) - load("mean", var("j")))
                            / (sqrt(var("float_n")) * load("stddev", var("j"))),
                    )],
                )],
            ),
        ]);

    let compute_kernel = kernel("corr_compute")
        .buffer("data", Precision::Double, Access::Read)
        .buffer("symmat", Precision::Double, Access::Write)
        .int_param("m")
        .int_param("n")
        .body(vec![
            let_("j1", global_id(0)),
            if_else(
                lt(var("j1"), var("m") - int(1)),
                vec![
                    store("symmat", idx2(var("j1"), var("j1"), var("m")), flit(1.0)),
                    for_(
                        "j2",
                        var("j1") + int(1),
                        var("m"),
                        vec![
                            let_acc("acc", "symmat", flit(0.0)),
                            for_(
                                "i",
                                int(0),
                                var("n"),
                                vec![add_assign(
                                    "acc",
                                    load("data", idx2(var("i"), var("j1"), var("m")))
                                        * load("data", idx2(var("i"), var("j2"), var("m"))),
                                )],
                            ),
                            store("symmat", idx2(var("j1"), var("j2"), var("m")), var("acc")),
                            store("symmat", idx2(var("j2"), var("j1"), var("m")), var("acc")),
                        ],
                    ),
                ],
                vec![if_(
                    cmp(prescaler_ir::CmpOp::Eq, var("j1"), var("m") - int(1)),
                    vec![store(
                        "symmat",
                        idx2(var("j1"), var("j1"), var("m")),
                        flit(1.0),
                    )],
                )],
            ),
        ]);

    Program::new("CORR")
        .with_kernel(mean_kernel("corr_mean"))
        .with_kernel(std_kernel)
        .with_kernel(reduce_kernel)
        .with_kernel(compute_kernel)
}

pub(crate) fn corr_run(s: &mut Session, d: &Dims, app: &PolyApp) -> Result<Outputs, OclError> {
    let (m, n) = (d.ni, d.nj);
    let data = s.create_buffer("DATA", n * m, Precision::Double)?;
    let mean = s.create_buffer("MEAN", m, Precision::Double)?;
    let stddev = s.create_buffer("STD", m, Precision::Double)?;
    let symmat = s.create_buffer("SYMMAT", m * m, Precision::Double)?;
    s.enqueue_write(data, &app.input("DATA", n * m))?;
    let float_n = KernelArg::Float(n as f64);
    let mm = KernelArg::Int(m as i64);
    let nn = KernelArg::Int(n as i64);
    s.launch_kernel(
        "corr_mean",
        [m, 1],
        &[
            ("data", KernelArg::Buffer(data)),
            ("mean", KernelArg::Buffer(mean)),
            ("float_n", float_n.clone()),
            ("m", mm.clone()),
            ("n", nn.clone()),
        ],
    )?;
    s.launch_kernel(
        "corr_std",
        [m, 1],
        &[
            ("data", KernelArg::Buffer(data)),
            ("mean", KernelArg::Buffer(mean)),
            ("stddev", KernelArg::Buffer(stddev)),
            ("float_n", float_n.clone()),
            ("eps", KernelArg::Float(0.1)),
            ("m", mm.clone()),
            ("n", nn.clone()),
        ],
    )?;
    s.launch_kernel(
        "corr_reduce",
        [m, n],
        &[
            ("data", KernelArg::Buffer(data)),
            ("mean", KernelArg::Buffer(mean)),
            ("stddev", KernelArg::Buffer(stddev)),
            ("float_n", float_n),
            ("m", mm.clone()),
            ("n", nn.clone()),
        ],
    )?;
    s.launch_kernel(
        "corr_compute",
        [m, 1],
        &[
            ("data", KernelArg::Buffer(data)),
            ("symmat", KernelArg::Buffer(symmat)),
            ("m", mm),
            ("n", nn),
        ],
    )?;
    Ok(vec![("SYMMAT".to_owned(), s.enqueue_read(symmat)?)])
}

// ---------------------------------------------------------------------------
// COVAR
// ---------------------------------------------------------------------------

pub(crate) fn covar_program() -> Program {
    let reduce_kernel = kernel("covar_reduce")
        .buffer("data", Precision::Double, Access::ReadWrite)
        .buffer("mean", Precision::Double, Access::Read)
        .int_param("m")
        .int_param("n")
        .body(vec![
            let_("j", global_id(0)),
            let_("i", global_id(1)),
            if_(
                lt(var("i"), var("n")),
                vec![if_(
                    lt(var("j"), var("m")),
                    vec![store(
                        "data",
                        idx2(var("i"), var("j"), var("m")),
                        load("data", idx2(var("i"), var("j"), var("m"))) - load("mean", var("j")),
                    )],
                )],
            ),
        ]);

    let compute_kernel = kernel("covar_compute")
        .buffer("data", Precision::Double, Access::Read)
        .buffer("symmat", Precision::Double, Access::Write)
        .int_param("m")
        .int_param("n")
        .body(vec![
            let_("j1", global_id(0)),
            if_(
                lt(var("j1"), var("m")),
                vec![for_(
                    "j2",
                    var("j1"),
                    var("m"),
                    vec![
                        let_acc("acc", "symmat", flit(0.0)),
                        for_(
                            "i",
                            int(0),
                            var("n"),
                            vec![add_assign(
                                "acc",
                                load("data", idx2(var("i"), var("j1"), var("m")))
                                    * load("data", idx2(var("i"), var("j2"), var("m"))),
                            )],
                        ),
                        store("symmat", idx2(var("j1"), var("j2"), var("m")), var("acc")),
                        store("symmat", idx2(var("j2"), var("j1"), var("m")), var("acc")),
                    ],
                )],
            ),
        ]);

    Program::new("COVAR")
        .with_kernel(mean_kernel("covar_mean"))
        .with_kernel(reduce_kernel)
        .with_kernel(compute_kernel)
}

pub(crate) fn covar_run(s: &mut Session, d: &Dims, app: &PolyApp) -> Result<Outputs, OclError> {
    let (m, n) = (d.ni, d.nj);
    let data = s.create_buffer("DATA", n * m, Precision::Double)?;
    let mean = s.create_buffer("MEAN", m, Precision::Double)?;
    let symmat = s.create_buffer("SYMMAT", m * m, Precision::Double)?;
    s.enqueue_write(data, &app.input("DATA", n * m))?;
    let mm = KernelArg::Int(m as i64);
    let nn = KernelArg::Int(n as i64);
    s.launch_kernel(
        "covar_mean",
        [m, 1],
        &[
            ("data", KernelArg::Buffer(data)),
            ("mean", KernelArg::Buffer(mean)),
            ("float_n", KernelArg::Float(n as f64)),
            ("m", mm.clone()),
            ("n", nn.clone()),
        ],
    )?;
    s.launch_kernel(
        "covar_reduce",
        [m, n],
        &[
            ("data", KernelArg::Buffer(data)),
            ("mean", KernelArg::Buffer(mean)),
            ("m", mm.clone()),
            ("n", nn.clone()),
        ],
    )?;
    s.launch_kernel(
        "covar_compute",
        [m, 1],
        &[
            ("data", KernelArg::Buffer(data)),
            ("symmat", KernelArg::Buffer(symmat)),
            ("m", mm),
            ("n", nn),
        ],
    )?;
    Ok(vec![("SYMMAT".to_owned(), s.enqueue_read(symmat)?)])
}
