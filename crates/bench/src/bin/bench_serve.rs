//! Serving throughput benchmark: `Server::serve` at 1, 2 and 8 workers.
//!
//! Serves the overloaded trace of the `serve_under_load` example — an
//! all-Half GEMM-16 under input drift and overload bursts, arrivals ~1.7×
//! faster than the device serves, a 2-deep admission queue and a 4×
//! service-time deadline — on a fresh guard per run, timing the `serve`
//! call alone. For each worker count it records the minimum wall time over
//! the iterations, the throughput over every arrival (served or shed) at
//! that minimum, and the speculation counters (deterministic, like the
//! outcomes). It asserts the three outcome digests and counter sets are
//! equal and that no session speculates more requests than arrived, then
//! writes `BENCH_serve.json` at the repo root with `host_cores`, so a
//! worker-count speedup is read against the hardware that produced it.
//!
//! Usage: `cargo run --release -p prescaler-bench --bin bench_serve
//! [iterations]` (default 5; wall-time is the minimum over iterations).

use prescaler_guard::{speculate, Guard, GuardPolicy};
use prescaler_ir::Precision;
use prescaler_ocl::ScalingSpec;
use prescaler_polybench::{BenchKind, Dims, InputSet, PolyApp};
use prescaler_serve::{ArrivalTrace, ServeConfig, ServeRun, Server};
use prescaler_sim::{FaultPlan, SystemModel};
use std::time::Instant;

/// The `serve_under_load` example's default fault seed.
const SEED: u64 = 1;
const BASE_ARRIVALS: usize = 40;

fn gemm(gain: f64) -> PolyApp {
    PolyApp::new(BenchKind::Gemm, Dims::square(16), InputSet::Random, 7).with_input_gain(gain)
}

/// Minimum `serve` wall time in milliseconds over `iters` sessions, each
/// on a fresh guard and fresh fault streams, with the last session's run.
fn time_sessions(
    system: &SystemModel,
    tuned: &ScalingSpec,
    trace: &ArrivalTrace,
    config: ServeConfig,
    iters: usize,
) -> (f64, ServeRun) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..iters {
        let system = system.clone().with_faults(system.faults.fork_fresh());
        let guard = Guard::new(&gemm(1.0), &system, tuned.clone(), GuardPolicy::default())
            .expect("guard for gemm16");
        let server = Server::new(guard, config);
        let t0 = Instant::now();
        let run = server.serve(trace, gemm);
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(run);
    }
    (best, last.expect("at least one iteration"))
}

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5)
        .max(1);
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let tuned = ScalingSpec::baseline()
        .with_target("A", Precision::Half)
        .with_target("B", Precision::Half)
        .with_target("C", Precision::Half);
    let plan = FaultPlan::seeded(SEED)
        .with_input_drift(0.3, 2.0)
        .with_overload_burst(0.25, 3);
    let system = SystemModel::system1().with_faults(plan);
    let service = speculate(&system.without_faults(), &tuned, 0, gemm)
        .result
        .expect("service-time probe")
        .1
        .timeline
        .total();
    let trace = ArrivalTrace::generate(SEED, BASE_ARRIVALS, service * 0.6, &system.faults);
    let arrivals = trace.len();

    let mut rows = Vec::new();
    let mut reference: Option<ServeRun> = None;
    for workers in [1usize, 2, 8] {
        let config = ServeConfig {
            queue_capacity: 2,
            deadline: service * 4.0,
            workers,
            overload_shed_tolerance: 4,
        };
        let (min_ms, run) = time_sessions(&system, &tuned, &trace, config, iters);
        let spec = run.speculation;
        let sum = &run.report.summary;
        assert!(
            spec.speculated <= sum.arrivals,
            "{spec:?} over {} arrivals",
            sum.arrivals
        );
        if let Some(r) = &reference {
            assert_eq!(
                r.report.outcome_digest, run.report.outcome_digest,
                "outcomes must not depend on the worker count"
            );
            assert_eq!(
                r.speculation, spec,
                "speculation counters are deterministic"
            );
        }
        let rps = arrivals as f64 / (min_ms / 1e3);
        println!(
            "serve x{workers}: {min_ms:.3} ms ({rps:.0} requests/s); {} served, {} shed; speculated {}, reused {}, recomputed {}",
            sum.served,
            sum.shed(),
            spec.speculated,
            spec.reused,
            spec.recomputed
        );
        rows.push(format!(
            "    {{ \"workers\": {workers}, \"min_ms\": {min_ms:.3}, \"requests_per_s\": {rps:.1}, \"served\": {}, \"shed\": {}, \"speculated\": {}, \"reused\": {}, \"recomputed\": {} }}",
            sum.served,
            sum.shed(),
            spec.speculated,
            spec.reused,
            spec.recomputed
        ));
        reference.get_or_insert(run);
    }
    let digest = reference.map_or(0, |r| r.report.outcome_digest);

    let json = format!(
        "{{\n  \"benchmark\": \"serve/serve_under_load\",\n  \"host_cores\": {host_cores},\n  \"iterations\": {iters},\n  \"arrivals\": {arrivals},\n  \"outcome_digest\": \"{digest:016x}\",\n  \"workers\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    std::fs::write(&path, &json).expect("write BENCH_serve.json");
    println!("wrote {}", path.display());
}
