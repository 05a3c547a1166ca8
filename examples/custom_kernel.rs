//! Bring-your-own application: write a kernel in the IR DSL, drive it
//! through the mini OpenCL runtime, and let PreScaler tune it — the
//! workflow the paper's appendix describes for "other OpenCL applications".
//!
//! The application here is a Jacobi-style smoothing filter: repeated
//! neighbour averaging over a 1-D field, a pattern whose values stay
//! small, so aggressive precision scaling is safe.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use prescaler_core::{PreScaler, SystemInspector};
use prescaler_ir::dsl::*;
use prescaler_ir::{Access, FloatVec, Precision, Program};
use prescaler_ocl::{HostApp, KernelArg, OclError, Outputs, Session};
use prescaler_sim::SystemModel;

/// A five-point smoothing filter applied `steps` times.
struct Smoother {
    n: usize,
    steps: usize,
}

impl HostApp for Smoother {
    fn name(&self) -> &str {
        "smoother"
    }

    fn identity(&self) -> u64 {
        // The kernel and the initial field are fixed; only the field size
        // and the step count configure a run.
        ((self.n as u64) << 32) ^ self.steps as u64
    }

    fn program(&self) -> Program {
        // out[i] = 0.25*in[i-1] + 0.5*in[i] + 0.25*in[i+1], edges kept.
        let k = kernel("smooth")
            .buffer("input", Precision::Double, Access::Read)
            .buffer("output", Precision::Double, Access::Write)
            .int_param("n")
            .body(vec![
                let_("i", global_id(0)),
                if_else(
                    gt(var("i"), int(0)),
                    vec![if_else(
                        lt(var("i"), var("n") - int(1)),
                        vec![store(
                            "output",
                            var("i"),
                            flit(0.25) * load("input", var("i") - int(1))
                                + flit(0.5) * load("input", var("i"))
                                + flit(0.25) * load("input", var("i") + int(1)),
                        )],
                        vec![store("output", var("i"), load("input", var("i")))],
                    )],
                    vec![store("output", var("i"), load("input", var("i")))],
                ),
            ]);
        Program::new("smoother").with_kernel(k)
    }

    fn run(&self, session: &mut Session) -> Result<Outputs, OclError> {
        let a = session.create_buffer("FIELD_A", self.n, Precision::Double)?;
        let b = session.create_buffer("FIELD_B", self.n, Precision::Double)?;
        let init: Vec<f64> = (0..self.n).map(|i| (i as f64 * 0.01).sin().abs()).collect();
        session.enqueue_write(a, &FloatVec::from_f64_slice(&init, Precision::Double))?;
        session.enqueue_write(b, &FloatVec::zeros(self.n, Precision::Double))?;

        // Ping-pong between the two fields.
        let (mut src, mut dst) = (a, b);
        for _ in 0..self.steps {
            session.launch_kernel(
                "smooth",
                [self.n, 1],
                &[
                    ("input", KernelArg::Buffer(src)),
                    ("output", KernelArg::Buffer(dst)),
                    ("n", KernelArg::Int(self.n as i64)),
                ],
            )?;
            std::mem::swap(&mut src, &mut dst);
        }
        Ok(vec![("FIELD".to_owned(), session.enqueue_read(src)?)])
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = Smoother {
        n: 1 << 20,
        steps: 8,
    };

    // Print the kernel as the OpenCL-C-like source the IR pretty-printer
    // generates — what PreScaler's code generation would emit.
    println!("{}", prescaler_ir::print::program_to_string(&app.program()));

    let system = SystemModel::system2(); // the DGX Station: fast FP16
    let db = SystemInspector::inspect(&system);
    let tuned = PreScaler::new(&system, &db, 0.95).tune(&app)?;

    println!(
        "smoother on {}: {:.2}x speedup, quality {:.4}, {} trials",
        system.name,
        tuned.speedup(),
        tuned.eval.quality,
        tuned.trials
    );
    for obj in &tuned.profile.scaling_order {
        println!(
            "  {:<8} {} -> {}",
            obj.label,
            obj.original,
            tuned.config.target_for(&obj.label, obj.original)
        );
    }
    Ok(())
}
