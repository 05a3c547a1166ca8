//! Kernel-execution micro-benchmark: the VM per precision, sequential vs
//! data-parallel.
//!
//! Times a gemm-class kernel (provably disjoint stores, the shape the
//! disjoint-write analysis certifies) through `CompiledKernel` with every
//! buffer at f64, f32 and f16 in turn — most search trials and served
//! requests run at reduced precision, so the f16 row is the one users
//! wait on. Each precision is timed at 1 thread and at each parallel
//! budget, asserting bit-identical outputs and counts, and the results go
//! to `BENCH_kernel.json` at the repo root. `ns_per_iter` divides the
//! sequential time by the n³ inner-loop iterations. The speedup column is
//! honest for the machine the benchmark ran on: `host_cores` records how
//! much hardware parallelism was actually available, so a 1-core host
//! reporting ~1.0x is expected, not a regression.
//!
//! Usage: `cargo run --release -p prescaler-bench --bin bench_kernel
//! [iterations]` (default 5; wall-time is the minimum over iterations).

use prescaler_ir::dsl::*;
use prescaler_ir::interp::{BufferMap, Launch};
use prescaler_ir::vm::{compile_kernel, CompiledKernel, ParallelSafety, VmScratch};
use prescaler_ir::{Access, FloatVec, Kernel, Precision};
use std::time::Instant;

const N: i64 = 96;

fn gemm_kernel(n: i64, p: Precision) -> (Kernel, BufferMap, Launch) {
    let k = kernel("gemm")
        .buffer("a", p, Access::Read)
        .buffer("b", p, Access::Read)
        .buffer("c", p, Access::Write)
        .int_param("n")
        .body(vec![
            let_("j", global_id(0)),
            let_("i", global_id(1)),
            let_acc("acc", "c", flit(0.0)),
            for_(
                "k",
                int(0),
                var("n"),
                vec![add_assign(
                    "acc",
                    load("a", var("i") * var("n") + var("k"))
                        * load("b", var("k") * var("n") + var("j")),
                )],
            ),
            store("c", var("i") * var("n") + var("j"), var("acc")),
        ]);
    let nn = n as usize;
    let mut bufs = BufferMap::new();
    let xs: Vec<f64> = (0..nn * nn).map(|i| (i as f64 * 0.001).sin()).collect();
    bufs.insert("a".into(), FloatVec::from_f64_slice(&xs, p));
    bufs.insert("b".into(), FloatVec::from_f64_slice(&xs, p));
    bufs.insert("c".into(), FloatVec::zeros(nn * nn, p));
    let launch = Launch::two_d(nn, nn).arg_int("n", n);
    (k, bufs, launch)
}

/// Minimum wall time in microseconds over `iters` runs at `threads`
/// (1 = sequential), with the last run's buffers.
fn time_at(
    compiled: &CompiledKernel,
    bufs: &BufferMap,
    launch: &Launch,
    scratch: &mut VmScratch,
    threads: usize,
    iters: usize,
) -> (f64, BufferMap) {
    let mut best = f64::INFINITY;
    let mut out = bufs.clone();
    for _ in 0..iters {
        let mut m = bufs.clone();
        let t0 = Instant::now();
        if threads <= 1 {
            compiled.run_with_scratch(&mut m, launch, scratch).unwrap();
        } else {
            compiled
                .run_parallel(&mut m, launch, scratch, threads)
                .unwrap();
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        out = m;
    }
    (best, out)
}

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let inner_iters = (N * N * N) as f64;

    let mut rows = Vec::new();
    for (p, tag) in [
        (Precision::Double, "f64"),
        (Precision::Single, "f32"),
        (Precision::Half, "f16"),
    ] {
        let (k, bufs, launch) = gemm_kernel(N, p);
        let compiled = compile_kernel(&k).expect("gemm compiles");
        assert!(
            matches!(compiled.parallel_safety(), ParallelSafety::Disjoint(_)),
            "gemm stores must be provably disjoint"
        );
        let mut scratch = VmScratch::new();

        // Warm-up.
        let _ = time_at(&compiled, &bufs, &launch, &mut scratch, 1, 1);

        let (seq_us, seq_out) = time_at(&compiled, &bufs, &launch, &mut scratch, 1, iters);
        let ns_per_iter = seq_us * 1e3 / inner_iters;
        println!("gemm{N} {tag} sequential: {seq_us:.3} us ({ns_per_iter:.2} ns/iter)");

        let mut parallel = Vec::new();
        for threads in [2usize, 4, 8] {
            let (par_us, par_out) =
                time_at(&compiled, &bufs, &launch, &mut scratch, threads, iters);
            assert!(
                seq_out["c"] == par_out["c"],
                "{tag} parallel output must be bit-identical at {threads} threads"
            );
            let speedup = seq_us / par_us;
            println!("gemm{N} {tag} parallel x{threads}: {par_us:.3} us ({speedup:.2}x)");
            parallel.push(format!(
                "        {{ \"threads\": {threads}, \"us\": {par_us:.3}, \"speedup\": {speedup:.3} }}"
            ));
        }
        rows.push(format!(
            "    {{\n      \"precision\": \"{tag}\",\n      \"sequential_us\": {seq_us:.3},\n      \"ns_per_iter\": {ns_per_iter:.3},\n      \"parallel\": [\n{}\n      ]\n    }}",
            parallel.join(",\n")
        ));
    }

    let json = format!(
        "{{\n  \"benchmark\": \"kernel/gemm{N}\",\n  \"host_cores\": {host_cores},\n  \"iterations\": {iters},\n  \"precisions\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernel.json");
    std::fs::write(&path, &json).expect("write BENCH_kernel.json");
    println!("wrote {}", path.display());
}
