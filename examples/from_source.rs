//! An application authored as OpenCL-C-like *source text*: parsed to the
//! IR, type-checked, driven through the runtime, tuned by PreScaler, and
//! the chosen configuration printed back as generated kernel source —
//! the paper's "PreScaler receives a target OpenCL source code" flow.
//!
//! ```text
//! cargo run --release --example from_source
//! ```

use prescaler_core::{PreScaler, SystemInspector};
use prescaler_ir::parse::parse_program;
use prescaler_ir::passes::retype_buffers;
use prescaler_ir::print::kernel_to_string;
use prescaler_ir::typeck::check_program;
use prescaler_ir::{FloatVec, Precision, Program};
use prescaler_ocl::{HostApp, KernelArg, OclError, Outputs, Session};
use prescaler_sim::SystemModel;
use std::collections::HashMap;

const SOURCE: &str = r"
// program: dot-and-norm

__kernel void dot_rows(const __global double* m, const __global double* v,
                       __global double* out, long n) {
    long i = get_global_id(0);
    if (i < n) {
        double acc = 0.0;
        for (long j = 0; j < n; ++j) {
            acc = acc + (m[(i * n) + j] * v[j]);
        }
        out[i] = acc;
    }
}

__kernel void normalize(__global double* out, double scale, long n) {
    long i = get_global_id(0);
    if (i < n) {
        out[i] = (out[i] * scale) / sqrt((1.0 + fabs(out[i])));
    }
}
";

struct DotAndNorm {
    program: Program,
    n: usize,
}

impl HostApp for DotAndNorm {
    fn name(&self) -> &str {
        "dot-and-norm"
    }

    fn identity(&self) -> u64 {
        // The source and the input formulas are fixed; only `n` varies.
        self.n as u64
    }

    fn program(&self) -> Program {
        self.program.clone()
    }

    fn run(&self, session: &mut Session) -> Result<Outputs, OclError> {
        let n = self.n;
        let m = session.create_buffer("M", n * n, Precision::Double)?;
        let v = session.create_buffer("V", n, Precision::Double)?;
        let out = session.create_buffer("OUT", n, Precision::Double)?;
        let ms: Vec<f64> = (0..n * n).map(|i| ((i % 97) as f64) / 97.0).collect();
        let vs: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) / 13.0).collect();
        session.enqueue_write(m, &FloatVec::from_f64_slice(&ms, Precision::Double))?;
        session.enqueue_write(v, &FloatVec::from_f64_slice(&vs, Precision::Double))?;
        session.launch_kernel(
            "dot_rows",
            [n, 1],
            &[
                ("m", KernelArg::Buffer(m)),
                ("v", KernelArg::Buffer(v)),
                ("out", KernelArg::Buffer(out)),
                ("n", KernelArg::Int(n as i64)),
            ],
        )?;
        session.launch_kernel(
            "normalize",
            [n, 1],
            &[
                ("out", KernelArg::Buffer(out)),
                ("scale", KernelArg::Float(0.125)),
                ("n", KernelArg::Int(n as i64)),
            ],
        )?;
        Ok(vec![("OUT".to_owned(), session.enqueue_read(out)?)])
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse and check the source.
    let program = parse_program(SOURCE)?;
    check_program(&program)?;
    println!(
        "parsed program `{}` with {} kernels",
        program.name,
        program.kernels.len()
    );

    // 2. Tune it.
    let app = DotAndNorm {
        program,
        n: 1 << 11,
    };
    let system = SystemModel::system3();
    let db = SystemInspector::inspect(&system);
    let tuned = PreScaler::new(&system, &db, 0.9).tune(&app)?;
    println!(
        "\n{}: {:.2}x speedup at quality {:.4} ({} trials)\n",
        system.name,
        tuned.speedup(),
        tuned.eval.quality,
        tuned.trials
    );

    // 3. Emit the precision-scaled kernel source the configuration implies
    //    (what the paper's LLVM backend would generate).
    let retype: HashMap<String, Precision> = [("m", "M"), ("v", "V"), ("out", "OUT")]
        .into_iter()
        .filter_map(|(param, label)| {
            let obj = tuned
                .profile
                .scaling_order
                .iter()
                .find(|o| o.label == label)?;
            Some((
                param.to_owned(),
                tuned.config.target_for(label, obj.original),
            ))
        })
        .collect();
    for k in &app.program().kernels {
        let scaled = retype_buffers(k, &retype);
        println!("{}", kernel_to_string(&scaled));
    }
    Ok(())
}
