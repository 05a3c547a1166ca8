//! Serving under load: the README's multi-worker serving quickstart.
//!
//! A half-precision GEMM configuration serves a seeded arrival trace
//! through the `prescaler-serve` front-end while the fault plan injects
//! drifting inputs *and* overload bursts. The session demonstrates the
//! overload contract end to end:
//!
//! * every arrival is accounted for — served, or rejected with a typed
//!   `ServeError` (queue full / deadline / shutting down / device lost);
//! * the bounded admission queue never exceeds its capacity;
//! * admitted requests keep full TOQ-or-fallback guard semantics, and
//!   sustained shedding raises the guard's revalidation request instead
//!   of demoting precision;
//! * per-request outcomes are **bit-identical at any worker count** —
//!   the example serves the same trace at 1, 2, and 8 workers and diffs
//!   the outcome streams;
//! * the workers speculate only requests the admission sweep reaches —
//!   never more than arrived — and the printed speculation counters
//!   (speculated / reused / recomputed) are worker-count invariant too.
//!
//! ```text
//! cargo run --release --example serve_under_load
//! PRESCALER_FAULT_SEED=2 cargo run --release --example serve_under_load
//! PRESCALER_SERVE_WORKERS=8 cargo run --release --example serve_under_load
//! ```
//!
//! With `PRESCALER_SERVE_WORKERS` set, only that worker count runs and
//! the outcome digest is printed for cross-process diffing (the CI
//! stress step runs 1/2/8 and compares the digests).

use prescaler_guard::{Guard, GuardPolicy};
use prescaler_ir::Precision;
use prescaler_ocl::ScalingSpec;
use prescaler_polybench::{BenchKind, Dims, InputSet, PolyApp};
use prescaler_serve::{ArrivalTrace, ServeConfig, ServeRun, Server};
use prescaler_sim::{FaultPlan, SimTime, SystemModel};

fn gemm(gain: f64) -> PolyApp {
    PolyApp::new(BenchKind::Gemm, Dims::square(16), InputSet::Random, 7).with_input_gain(gain)
}

fn serve_at(
    workers: usize,
    system: &SystemModel,
    tuned: &ScalingSpec,
    trace: &ArrivalTrace,
    deadline: SimTime,
) -> Result<ServeRun, prescaler_ocl::OclError> {
    let guard = Guard::new(&gemm(1.0), system, tuned.clone(), GuardPolicy::default())?;
    let config = ServeConfig {
        queue_capacity: 2,
        deadline,
        workers,
        overload_shed_tolerance: 4,
    };
    let server = Server::new(guard, config);
    let run = server.serve(trace, gemm);

    let s = &run.report.summary;
    println!(
        "workers={workers}: {} arrivals -> {} served ({} degraded), shed {} queue-full + {} deadline + {} shutdown, {} device-lost; peak queue {} (bound {}), makespan {:.3}s",
        s.arrivals,
        s.served,
        s.degraded_served,
        s.shed_queue_full,
        s.shed_deadline,
        s.shed_shutdown,
        s.failed_device_lost,
        s.peak_queue_depth,
        config.queue_capacity,
        s.makespan_secs,
    );

    let spec = &run.speculation;
    println!(
        "workers={workers}: speculated {} of {} arrivals, reused {}, recomputed {}",
        spec.speculated, s.arrivals, spec.reused, spec.recomputed,
    );

    // The overload contract, self-asserted.
    assert_eq!(s.accounted(), s.arrivals, "every arrival has a typed fate");
    assert!(
        spec.speculated <= s.arrivals,
        "at most one speculation per arrival"
    );
    assert_eq!(
        spec.reused + spec.recomputed,
        s.served + s.shed_deadline + s.failed_device_lost,
        "every request reaching the deadline test uses or recomputes one speculation"
    );
    assert!(
        s.peak_queue_depth <= config.queue_capacity as u64,
        "bounded queue"
    );
    assert!(s.shed() > 0, "this trace is built to overload the queue");
    if s.shed_queue_full + s.shed_deadline >= config.overload_shed_tolerance {
        assert!(
            s.overload_revalidation && server.guard().revalidation_due(),
            "sustained shedding must demand revalidation"
        );
    }
    assert_eq!(
        run.report.guard.demotions, 0,
        "overload never demotes precision (quality is not shed)"
    );
    for outcome in &run.outcomes {
        if let Ok(served) = &outcome.result {
            if let Some(q) = served.canary_quality {
                assert!(
                    q >= 0.9 || run.report.guard.fallback,
                    "TOQ-or-fallback for every admitted request"
                );
            }
        }
    }
    Ok(run)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::var("PRESCALER_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);

    let tuned = ScalingSpec::baseline()
        .with_target("A", Precision::Half)
        .with_target("B", Precision::Half)
        .with_target("C", Precision::Half);

    // Drifting inputs + arrival spikes: every fourth base arrival (in
    // expectation) brings up to 3 extra same-instant requests.
    let plan = FaultPlan::seeded(seed)
        .with_input_drift(0.3, 2.0)
        .with_overload_burst(0.25, 3);
    let system = SystemModel::system1().with_faults(plan);

    // Size the trace against the device: arrivals land ~1.7x faster than
    // the device can serve, so the bounded queue must shed.
    let probe = prescaler_guard::speculate(&system.without_faults(), &tuned, 0, gemm);
    let service = probe
        .result
        .map_err(|e| format!("probe run failed: {e}"))?
        .1
        .timeline
        .total();
    let trace = ArrivalTrace::generate(seed, 40, service * 0.6, &system.faults);
    let deadline = service * 4.0;
    println!(
        "trace: {} requests ({} burst extras), mean service {:.4}s, deadline {:.4}s\n",
        trace.len(),
        trace.burst_extras(),
        service.as_secs(),
        deadline.as_secs(),
    );

    if let Some(workers) = std::env::var("PRESCALER_SERVE_WORKERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        let run = serve_at(workers, &system, &tuned, &trace, deadline)?;
        println!("outcome digest: {:016x}", run.report.outcome_digest);
        return Ok(());
    }

    let one = serve_at(1, &system, &tuned, &trace, deadline)?;
    let two = serve_at(2, &system, &tuned, &trace, deadline)?;
    let eight = serve_at(8, &system, &tuned, &trace, deadline)?;
    assert_eq!(
        one.outcomes, two.outcomes,
        "1 vs 2 workers must be bit-identical"
    );
    assert_eq!(
        one.outcomes, eight.outcomes,
        "1 vs 8 workers must be bit-identical"
    );
    assert_eq!(one.report.outcome_digest, eight.report.outcome_digest);
    assert_eq!(
        one.speculation, eight.speculation,
        "speculation counters are deterministic"
    );
    println!(
        "\nper-request outcomes bit-identical at 1/2/8 workers (digest {:016x})",
        one.report.outcome_digest
    );
    Ok(())
}
