//! The `serve_drift` workload: guarded serving of an all-Half GEMM over a
//! seeded open-loop arrival trace with input-drift and overload-burst
//! faults, at `host_cores` workers.

use crate::layers::{self, ProbeInputs};
use crate::report::{median, ms_since, quantile, record_op_percentiles, Report};
use crate::spans::Tracer;
use crate::{journal_dir, timed_setup, Args};
use prescaler_core::{InspectorDb, ServeSummary, SystemInspector};
use prescaler_guard::{Guard, GuardPolicy};
use prescaler_ir::Precision;
use prescaler_ocl::{HostApp, ScalingSpec};
use prescaler_polybench::{BenchKind, Dims, InputSet, PolyApp};
use prescaler_serve::{ArrivalTrace, ServeConfig, ServeRun, Server};
use prescaler_sim::{FaultPlan, SystemModel};
use std::time::Instant;

/// GEMM side of every served request.
const SERVE_N: usize = 48;
/// Base arrivals of the trace; overload bursts add about half as many.
const BASE_ARRIVALS: usize = 200;
/// Base arrivals of the short trace the serve probe uses on the tuning
/// workloads.
const PROBE_ARRIVALS: usize = 24;

fn gemm(seed: u64, gain: f64) -> PolyApp {
    PolyApp::new(
        BenchKind::Gemm,
        Dims::square(SERVE_N),
        InputSet::Random,
        seed,
    )
    .with_input_gain(gain)
}

fn all_half() -> ScalingSpec {
    ScalingSpec::baseline()
        .with_target("A", Precision::Half)
        .with_target("B", Precision::Half)
        .with_target("C", Precision::Half)
}

/// Drifting inputs (30% of runs, up to 2× gain) and arrival spikes (a
/// quarter of base arrivals bring up to 3 same-instant extras).
fn faults(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_input_drift(0.3, 2.0)
        .with_overload_burst(0.25, 3)
}

/// A trace whose arrivals land about 1.7× faster than the device serves
/// `spec`, so the bounded queue must shed; and the matching policy.
fn trace_and_config(
    system: &SystemModel,
    spec: &ScalingSpec,
    app: &PolyApp,
    seed: u64,
    base: usize,
) -> Result<(ArrivalTrace, ServeConfig), String> {
    let probe = prescaler_guard::speculate(&system.without_faults(), spec, 0, |g| {
        app.clone().with_input_gain(g)
    });
    let service = probe
        .result
        .map_err(|e| format!("service-time probe of {}: {e}", app.name()))?
        .1
        .timeline
        .total();
    let trace = ArrivalTrace::generate(seed, base, service * 0.6, &system.faults);
    let config = ServeConfig {
        queue_capacity: 2,
        deadline: service * 4.0,
        workers: layers::host_cores(),
        overload_shed_tolerance: 4,
    };
    Ok((trace, config))
}

/// One serving session on a fresh guard (and fresh fault streams);
/// returns the run and the wall time of `Server::serve` alone.
fn session(
    tr: &Tracer,
    system: &SystemModel,
    app: &PolyApp,
    spec: &ScalingSpec,
    trace: &ArrivalTrace,
    config: ServeConfig,
) -> Result<(ServeRun, f64), String> {
    let system = system.clone().with_faults(system.faults.fork_fresh());
    let guard = tr
        .span("guard.new", || {
            Guard::new(app, &system, spec.clone(), GuardPolicy::default())
        })
        .map_err(|e| format!("guard for {}: {e}", app.name()))?;
    let server = Server::new(guard, config);
    let t0 = Instant::now();
    let run = tr.span("serve.serve", || {
        server.serve(trace, |g| app.clone().with_input_gain(g))
    });
    Ok((run, ms_since(t0)))
}

fn check_session(run: &ServeRun, reference: Option<&ServeRun>) -> Vec<String> {
    let s = &run.report.summary;
    let mut f = Vec::new();
    if s.accounted() != s.arrivals {
        f.push(format!(
            "{} of {} arrivals accounted for",
            s.accounted(),
            s.arrivals
        ));
    }
    match reference {
        Some(r) if r.report.outcome_digest != run.report.outcome_digest => {
            f.push("outcome digest differs from the 1-worker reference".into());
        }
        Some(r) if !same_counts(&r.report.summary, s) => {
            f.push(format!(
                "serve counters {s:?} differ from the reference {:?}",
                r.report.summary
            ));
        }
        Some(_) => {}
        None => f.push("no 1-worker reference".into()),
    }
    f
}

fn same_counts(a: &ServeSummary, b: &ServeSummary) -> bool {
    (
        a.arrivals,
        a.served,
        a.shed(),
        a.degraded_served,
        a.peak_queue_depth,
    ) == (
        b.arrivals,
        b.served,
        b.shed(),
        b.degraded_served,
        b.peak_queue_depth,
    )
}

struct Setup {
    system: SystemModel,
    db: InspectorDb,
    app: PolyApp,
    trace: ArrivalTrace,
    config: ServeConfig,
}

/// Inspector DB, the faulty system, the trace, one guard construction and
/// a warm-up speculation.
fn setup(seed: u64) -> Result<Setup, String> {
    let system = SystemModel::system1().with_faults(faults(seed));
    let db = SystemInspector::inspect(&system.without_faults());
    let app = gemm(seed, 1.0);
    let (trace, config) = trace_and_config(&system, &all_half(), &app, seed, BASE_ARRIVALS)?;
    Guard::new(&app, &system, all_half(), GuardPolicy::default())
        .map_err(|e| format!("guard for {}: {e}", app.name()))?;
    Ok(Setup {
        system,
        db,
        app,
        trace,
        config,
    })
}

pub fn serve_drift(args: &Args, tr: &Tracer, rep: &mut Report) -> Result<(), String> {
    let s = timed_setup(rep, || setup(args.seed))?;
    let spec = all_half();
    let off = Tracer::new(false);

    let reference = session(
        &off,
        &s.system,
        &s.app,
        &spec,
        &s.trace,
        s.config.with_workers(1),
    );
    let (reference, one_worker_ms) = match reference {
        Ok((run, ms)) => {
            rep.op(check_session(&run, Some(&run)));
            (Some(run), ms)
        }
        Err(e) => {
            rep.op(vec![e]);
            (None, f64::NAN)
        }
    };

    let (mut session_ms, mut last) = (Vec::new(), None);
    let mut arrivals = 0u64;
    let t_start = Instant::now();
    while session_ms.is_empty() || t_start.elapsed().as_secs_f64() < args.seconds {
        match session(&off, &s.system, &s.app, &spec, &s.trace, s.config) {
            Ok((run, ms)) => {
                rep.op(check_session(&run, reference.as_ref()));
                session_ms.push(ms);
                arrivals += run.report.summary.arrivals;
                last = Some(run);
            }
            Err(e) => {
                rep.op(vec![e]);
                break;
            }
        }
    }
    // Throughput over the serve calls alone: the fresh guard each
    // session gets is set-up, not serving.
    let serve_s = session_ms.iter().sum::<f64>() / 1e3;
    let rps = arrivals as f64 / serve_s;
    rep.value("serve_rps", rps, "1/s");
    rep.value("items_per_s", rps, "1/s");
    rep.value("serve_ms.p50", median(&session_ms), "ms");
    rep.value("serve_ms.p90", quantile(&session_ms, 0.9), "ms");
    record_op_percentiles(rep, std::slice::from_ref(&session_ms));
    rep.value("serve_ms.samples", session_ms.len() as f64, "count");
    if let Some(run) = &last {
        let sum = &run.report.summary;
        let g = &run.report.guard;
        rep.value("arrivals", sum.arrivals as f64, "count");
        rep.value(
            "shed_share",
            sum.shed() as f64 / sum.arrivals as f64,
            "share",
        );
        rep.value(
            "degraded_share",
            sum.degraded_served as f64 / sum.served.max(1) as f64,
            "share",
        );
        rep.value(
            "guard.canary_share",
            g.canary_runs as f64 / g.runs.max(1) as f64,
            "share",
        );
        rep.value(
            "serve.peak_queue_depth",
            sum.peak_queue_depth as f64,
            "count",
        );
        rep.value(
            "serve.workers_speedup",
            one_worker_ms / median(&session_ms),
            "x",
        );
    }
    layers::check_vm_parallel(&off, rep);

    if tr.on() {
        match tr.span("bench.session", || {
            session(tr, &s.system, &s.app, &spec, &s.trace, s.config)
        }) {
            Ok((run, _)) => rep.op(check_session(&run, reference.as_ref())),
            Err(e) => rep.op(vec![e]),
        }
        let dir = journal_dir()?;
        let clean = s.system.without_faults();
        layers::probe_all(
            tr,
            rep,
            &ProbeInputs {
                system: &clean,
                db: &s.db,
                apps: std::slice::from_ref(&s.app),
                spec: &spec,
                seed: args.seed,
                journal_dir: &dir,
            },
        );
        // The untraced passes time `Server::serve` alone, so the traced
        // pass is the first `serve.serve` span (the session's just above).
        layers::record_trace(rep, tr, "serve.serve", &session_ms);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
}

/// Serves a short trace of `app` under `spec` at 1 worker and at
/// `host_cores` workers; returns the speed-up of the second over the
/// first and the peak queue depth.
pub fn probe_sessions(
    tr: &Tracer,
    clean: &SystemModel,
    app: &PolyApp,
    spec: &ScalingSpec,
    seed: u64,
) -> Result<(f64, u64), String> {
    let system = clean.clone().with_faults(faults(seed));
    let (trace, config) = trace_and_config(&system, spec, app, seed, PROBE_ARRIVALS)?;
    let (one, one_ms) = session(tr, &system, app, spec, &trace, config.with_workers(1))?;
    let (many, many_ms) = session(tr, &system, app, spec, &trace, config)?;
    if one.report.outcome_digest != many.report.outcome_digest {
        return Err(format!(
            "{}: serve outcomes depend on the worker count",
            app.name()
        ));
    }
    Ok((one_ms / many_ms, many.report.summary.peak_queue_depth))
}
