//! Seeded property suite for overload-safe serving (`prescaler-serve`).
//!
//! Generated cases sweep apps × seeds × worker counts × overload plans
//! (arrival bursts, input drift, device loss, tight queues, tight
//! deadlines) and pin the serving front-end's four contracts:
//!
//! * **(a) Worker-count bit-identity**: the same `(seed, trace, policy)`
//!   yields bit-identical per-request outcomes — and outcome digests —
//!   at 1, 2, and 8 workers.
//! * **(b) TOQ-or-fallback for every admitted request**: a canary-scored
//!   run below TOQ is always answered by guard action (demotion en route
//!   to recovery, or the sticky baseline fallback); quality is never
//!   silently shed.
//! * **(c) Typed rejections**: every arrival is accounted for by exactly
//!   one outcome — served, or one of the four `ServeError`s — and a
//!   device loss drains the remainder of the session as `ShuttingDown`.
//! * **(d) Bounded queue memory**: the admission queue's high-water mark
//!   never exceeds its configured capacity.
//! * **(e) Speculation is invisible**: every session equals a
//!   speculation-free reference sweep that applies the documented
//!   admission rules (DESIGN.md § Serving under load) one request at a
//!   time — outcomes, digest, summary and guard summary alike — and never
//!   speculates more requests than arrived. Throttle and bandwidth-drop
//!   faults vary the service time per request, so the server's admission
//!   planner mispredicts and has to iterate.
//!
//! The CI fault matrix re-runs this suite under several values of
//! `PRESCALER_FAULT_SEED`; the seed is mixed into every generated fault
//! plan so each matrix row explores a distinct replayable fault universe.

use prescaler_core::{GuardSummary, ServeSummary};
use prescaler_guard::{speculate, Guard, GuardPolicy};
use prescaler_ir::Precision;
use prescaler_ocl::{run_app, ScalingSpec};
use prescaler_polybench::{BenchKind, Dims, InputSet, PolyApp};
use prescaler_serve::{
    output_digest, spec_digest, ArrivalTrace, RequestOutcome, ServeConfig, ServeError, ServeRun,
    ServedRequest, Server,
};
use prescaler_sim::{FaultPlan, SimTime, SystemModel};
use proptest::prelude::*;

const TOQ: f64 = 0.9;

fn matrix_seed() -> u64 {
    std::env::var("PRESCALER_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn mixed(seed: u64) -> u64 {
    seed ^ matrix_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn app_for(kind: BenchKind, n: usize, seed: u64) -> PolyApp {
    PolyApp::new(kind, Dims::square(n), InputSet::Random, seed)
}

/// A tuned-like spec: every memory object of the app scaled to half.
fn half_spec(app: &PolyApp) -> ScalingSpec {
    let clean = SystemModel::system1();
    let (_, log) = run_app(app, &clean, &ScalingSpec::baseline()).unwrap();
    let mut spec = ScalingSpec::baseline();
    for obj in &log.objects {
        spec = spec.with_target(&obj.label, Precision::Half);
    }
    spec
}

fn arb_kind() -> impl Strategy<Value = BenchKind> {
    prop_oneof![Just(BenchKind::Gemm), Just(BenchKind::Atax)]
}

/// One generated serving scenario: the app, its fault plan, and the
/// admission and quality policy.
struct Case {
    kind: BenchKind,
    n: usize,
    app_seed: u64,
    plan: FaultPlan,
    capacity: usize,
    deadline: SimTime,
    toq: f64,
}

impl Case {
    fn app(&self, gain: f64) -> PolyApp {
        app_for(self.kind, self.n, self.app_seed).with_input_gain(gain)
    }

    fn guard(&self) -> Guard {
        let app = self.app(1.0);
        let system = SystemModel::system1().with_faults(self.plan.clone());
        Guard::new(
            &app,
            &system,
            half_spec(&app),
            GuardPolicy::with_toq(self.toq),
        )
        .unwrap()
    }

    fn config(&self, workers: usize) -> ServeConfig {
        ServeConfig {
            queue_capacity: self.capacity,
            deadline: self.deadline,
            workers,
            overload_shed_tolerance: 5,
        }
    }

    /// Serves the trace at the given worker count.
    fn serve(&self, workers: usize, trace: &ArrivalTrace) -> ServeRun {
        let server = Server::new(self.guard(), self.config(workers));
        let run = server.serve(trace, |gain| self.app(gain));
        // Overload-to-revalidation is part of the shed-work-not-quality
        // contract; check it while the server is still in scope.
        if run.report.summary.overload_revalidation {
            assert!(server.guard().revalidation_due());
        }
        run
    }

    /// The app's service time on the clean device under its Half spec.
    fn clean_service(&self) -> SimTime {
        let app = self.app(1.0);
        let probe = speculate(&SystemModel::system1(), &half_spec(&app), 0, |g| {
            self.app(g)
        });
        probe.result.unwrap().1.timeline.total()
    }

    /// Serves the trace with the speculation-free reference.
    fn reference(&self, trace: &ArrivalTrace) -> Reference {
        reference_serve(self.guard(), &self.config(1), trace, |gain| self.app(gain))
    }
}

/// What the speculation-free reference sweep produced.
struct Reference {
    outcomes: Vec<RequestOutcome>,
    outcome_digest: u64,
    summary: ServeSummary,
    guard: GuardSummary,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(h: u64, v: u64) -> u64 {
    v.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The documented outcome digest: FNV-1a over each request's id, then its
/// served record or its rejection tag, in arrival order.
fn digest_of(outcomes: &[RequestOutcome]) -> u64 {
    outcomes.iter().fold(FNV_OFFSET, |h, o| {
        let h = fnv(h, o.id);
        match &o.result {
            Ok(s) => [
                0,
                s.spec_digest,
                s.output_digest,
                s.started.as_secs().to_bits(),
                s.completed.as_secs().to_bits(),
                u64::from(s.degraded),
                s.canary_quality.map_or(u64::MAX, f64::to_bits),
            ]
            .into_iter()
            .fold(h, fnv),
            Err(e) => fnv(h, u64::from(e.tag())),
        }
    })
}

/// A speculation-free reference server: the admission rules of DESIGN.md
/// § Serving under load, applied one arrival at a time, serving every
/// admitted request with `Guard::run_forked(id, app, None)`. The exact
/// service time the deadline test needs comes from executing the request
/// under the live spec first — execution is pure, so that is the time the
/// served run takes.
fn reference_serve(
    mut guard: Guard,
    config: &ServeConfig,
    trace: &ArrivalTrace,
    app_at: impl Fn(f64) -> PolyApp,
) -> Reference {
    let mut summary = ServeSummary {
        arrivals: trace.len() as u64,
        ..ServeSummary::default()
    };
    let mut outcomes = Vec::new();
    // Start times of admitted requests not yet on the device.
    let mut waiting: Vec<SimTime> = Vec::new();
    let mut device_free = SimTime::ZERO;
    let mut draining = false;
    for req in &trace.requests {
        let t = req.arrival;
        waiting.retain(|&s| s > t);
        let result = if draining {
            Err(ServeError::ShuttingDown)
        } else if waiting.len() >= config.queue_capacity {
            Err(ServeError::QueueFull)
        } else {
            let started = t.max(device_free);
            let budget_end = t + config.deadline;
            let probe = speculate(guard.system(), guard.active_spec(), req.id, &app_at);
            let hopeless = match &probe.result {
                Ok((_, log)) => started + log.timeline.total() > budget_end,
                Err(_) => started > budget_end,
            };
            if hopeless {
                Err(ServeError::DeadlineExceeded)
            } else {
                match guard.run_forked(req.id, &app_at, None) {
                    Ok(v) => Ok(ServedRequest {
                        id: req.id,
                        arrival: t,
                        started,
                        completed: started + v.timeline.total(),
                        degraded: v.degraded,
                        canary_quality: v.canary_quality,
                        spec_digest: spec_digest(guard.active_spec()),
                        output_digest: output_digest(&v.outputs),
                    }),
                    Err(_) => Err(ServeError::DeviceLost),
                }
            }
        };
        match &result {
            Ok(s) => {
                summary.served += 1;
                summary.busy_secs += (s.completed - s.started).as_secs();
                summary.makespan_secs = s.completed.as_secs();
                summary.degraded_served += u64::from(s.degraded);
                device_free = s.completed;
                if s.started > t {
                    waiting.push(s.started);
                }
                summary.peak_queue_depth = summary.peak_queue_depth.max(waiting.len() as u64);
            }
            Err(ServeError::QueueFull) => summary.shed_queue_full += 1,
            Err(ServeError::DeadlineExceeded) => summary.shed_deadline += 1,
            Err(ServeError::ShuttingDown) => summary.shed_shutdown += 1,
            Err(ServeError::DeviceLost) => {
                summary.failed_device_lost += 1;
                draining = true;
            }
        }
        let sheds = summary.shed_queue_full + summary.shed_deadline;
        if config.overload_shed_tolerance > 0
            && sheds >= config.overload_shed_tolerance
            && !summary.overload_revalidation
        {
            guard.report_overload();
            summary.overload_revalidation = true;
        }
        outcomes.push(RequestOutcome {
            id: req.id,
            arrival: t,
            result,
        });
    }
    Reference {
        outcome_digest: digest_of(&outcomes),
        outcomes,
        summary,
        guard: guard.report().summary(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    #[test]
    fn serving_contracts_hold_under_overload(
        kind in arb_kind(),
        n in 4usize..10,
        app_seed in 0u64..1000,
        plan_seed in 0u64..1000,
        burst in prop_oneof![Just((0.0, 0u64)), Just((0.4, 3u64)), Just((1.0, 5u64))],
        drift in prop_oneof![Just((0.0, 0.0)), Just((0.4, 3.0))],
        loss_rate in prop_oneof![Just(0.0), Just(0.0), Just(0.08)],
        throttle in prop_oneof![Just((0.0, 0.0)), Just((0.6, 0.9))],
        bandwidth_drop in prop_oneof![Just((0.0, 0.0)), Just((0.5, 0.6))],
        capacity in 1usize..4,
        requests in 6usize..14,
        pressure in prop_oneof![Just(0.5), Just(1.5)],
        deadline_factor in prop_oneof![Just(2.5), Just(8.0)],
    ) {
        let (burst_rate, burst_size) = burst;
        let (drift_rate, drift_mag) = drift;
        let plan = FaultPlan::seeded(mixed(plan_seed))
            .with_overload_burst(burst_rate, burst_size)
            .with_input_drift(drift_rate, drift_mag)
            .with_device_loss(loss_rate)
            .with_throttle(throttle.0, throttle.1)
            .with_bandwidth_drop(bandwidth_drop.0, bandwidth_drop.1);

        // Size arrivals and deadlines against the device's clean service
        // time so every generated scenario is meaningfully loaded.
        let app = app_for(kind, n, app_seed);
        let tuned = half_spec(&app);
        let clean = SystemModel::system1();
        let probe = speculate(&clean, &tuned, 0, |g| app_for(kind, n, app_seed).with_input_gain(g));
        let service = probe.result.unwrap().1.timeline.total();
        let trace = ArrivalTrace::generate(
            mixed(plan_seed ^ 0xA5A5),
            requests,
            service * pressure,
            &plan,
        );
        let deadline = service * deadline_factor;

        let case = Case { kind, n, app_seed, plan, capacity, deadline, toq: TOQ };

        // (a) Bit-identical per-request outcomes at 1, 2, and 8 workers.
        let runs: Vec<ServeRun> = [1usize, 2, 8].iter().map(|&w| case.serve(w, &trace)).collect();
        prop_assert_eq!(&runs[0].outcomes, &runs[1].outcomes, "1 vs 2 workers");
        prop_assert_eq!(&runs[0].outcomes, &runs[2].outcomes, "1 vs 8 workers");
        prop_assert_eq!(runs[0].report.outcome_digest, runs[1].report.outcome_digest);
        prop_assert_eq!(runs[0].report.outcome_digest, runs[2].report.outcome_digest);
        prop_assert_eq!(&runs[0].report.summary, &runs[2].report.summary);
        prop_assert_eq!(&runs[0].report.guard, &runs[2].report.guard);

        // (e) Every worker count equals the speculation-free reference,
        // and none speculates more requests than arrived.
        let reference = case.reference(&trace);
        for run in &runs {
            prop_assert_eq!(&run.outcomes, &reference.outcomes);
            prop_assert_eq!(run.report.outcome_digest, reference.outcome_digest);
            prop_assert_eq!(&run.report.summary, &reference.summary);
            prop_assert_eq!(&run.report.guard, &reference.guard);
            prop_assert!(
                run.speculation.speculated <= run.report.summary.arrivals,
                "{:?} over {} arrivals",
                run.speculation,
                run.report.summary.arrivals
            );
        }

        let run = &runs[0];
        let sum = &run.report.summary;

        // (c) Every arrival has exactly one typed fate; totals reconcile.
        prop_assert_eq!(sum.arrivals, trace.len() as u64);
        prop_assert_eq!(sum.accounted(), sum.arrivals, "no silent drops");
        prop_assert_eq!(run.outcomes.len(), trace.len());
        let mut seen_loss = false;
        let mut served_count = 0u64;
        for outcome in &run.outcomes {
            match &outcome.result {
                Ok(served) => {
                    prop_assert!(!seen_loss, "nothing serves after a device loss");
                    prop_assert!(served.completed >= served.started);
                    prop_assert!(served.started >= served.arrival);
                    prop_assert!(
                        served.completed <= outcome.arrival + deadline + SimTime::from_secs(1e-12),
                        "an admitted request finishes inside its budget"
                    );
                    served_count += 1;
                }
                Err(ServeError::DeviceLost) => seen_loss = true,
                Err(ServeError::ShuttingDown) => {
                    prop_assert!(seen_loss, "only a loss drains this session");
                }
                Err(ServeError::QueueFull | ServeError::DeadlineExceeded) => {
                    prop_assert!(!seen_loss);
                }
            }
        }
        prop_assert_eq!(served_count, sum.served);

        // (d) Bounded queue memory.
        prop_assert!(
            sum.peak_queue_depth <= capacity as u64,
            "queue bound violated: {} > {}",
            sum.peak_queue_depth,
            capacity
        );

        // (b) TOQ-or-fallback for every admitted request: a canary score
        // below TOQ is always met with guard action, never ignored.
        for outcome in &run.outcomes {
            if let Ok(served) = &outcome.result {
                if let Some(q) = served.canary_quality {
                    prop_assert!(
                        q >= TOQ
                            || run.report.guard.demotions > 0
                            || run.report.guard.fallback,
                        "below-TOQ canary ({q}) with no guard response"
                    );
                }
            }
        }
        // Quality is never shed for throughput: overload alone (no drift,
        // no loss, no throttle or bandwidth drop — the system drifts that
        // may fail over) demotes nothing and serves nothing degraded.
        if drift_rate == 0.0 && loss_rate == 0.0 && throttle.0 == 0.0 && bandwidth_drop.0 == 0.0 {
            prop_assert_eq!(run.report.guard.demotions, 0);
            prop_assert_eq!(sum.degraded_served, 0);
        }
    }
}

/// The serving front-end is exactly as replayable as the rest of the
/// stack: the same (seed, trace, policy) twice is the same session,
/// outcome stream and digest included.
#[test]
fn repeat_sessions_are_bit_identical() {
    let mut case = Case {
        kind: BenchKind::Gemm,
        n: 8,
        app_seed: 7,
        plan: FaultPlan::seeded(mixed(77))
            .with_overload_burst(0.5, 4)
            .with_input_drift(0.3, 2.0),
        capacity: 2,
        deadline: SimTime::ZERO,
        toq: TOQ,
    };
    let service = case.clean_service();
    case.deadline = service * 4.0;
    let trace = ArrivalTrace::generate(9, 20, service, &case.plan);
    assert_eq!(case.serve(2, &trace), case.serve(2, &trace));
}

/// A TOQ that no Half run of the app meets makes the guard's canaries
/// demote objects mid-session, so speculations made under the starting
/// spec go stale: the sweep must recompute them inline and still equal
/// the speculation-free reference at every worker count.
#[test]
fn stale_speculations_recompute_inline_and_match_the_reference() {
    let mut case = Case {
        kind: BenchKind::Gemm,
        n: 8,
        app_seed: 7,
        plan: FaultPlan::seeded(mixed(31))
            .with_overload_burst(0.3, 2)
            .with_bandwidth_drop(0.5, 0.6),
        capacity: 3,
        deadline: SimTime::ZERO,
        toq: 0.999_99,
    };
    let service = case.clean_service();
    case.deadline = service * 8.0;
    let trace = ArrivalTrace::generate(mixed(31), 30, service * 1.2, &case.plan);
    let reference = case.reference(&trace);
    assert!(reference.guard.demotions > 0, "{:?}", reference.guard);
    for workers in [1usize, 2, 8] {
        let run = case.serve(workers, &trace);
        assert_eq!(run.outcomes, reference.outcomes, "{workers} workers");
        assert_eq!(run.report.outcome_digest, reference.outcome_digest);
        assert_eq!(run.report.summary, reference.summary);
        assert_eq!(run.report.guard, reference.guard);
        let spec = run.speculation;
        assert!(spec.recomputed > 0, "a moved spec must recompute: {spec:?}");
        assert!(spec.speculated <= run.report.summary.arrivals, "{spec:?}");
    }
}
