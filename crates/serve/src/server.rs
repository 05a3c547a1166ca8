//! The serving front-end: bounded admission, deadline budgets, load
//! shedding, and a speculative multi-worker execution pool over a shared
//! guarded session.
//!
//! # Determinism
//!
//! The simulated system has **one** device, so admission, queueing and
//! deadline semantics are computed by a sequential discrete-event sweep
//! over the arrival trace in virtual time — the single logical service
//! line. Worker threads are pure *physical* parallelism: they execute
//! requests speculatively ([`prescaler_guard::speculate`] is a pure
//! function of the forked fault stream and the active spec) and the
//! sweep replays each speculation through [`Guard::run_forked`], which
//! reuses it only if its assumptions still hold. Outcomes therefore
//! depend only on `(seed, trace, config policy)` — never on the worker
//! count — which is what the cross-worker-count bit-identity tests pin.
//!
//! # Admission planning
//!
//! Most arrivals of an overloaded trace are shed `QueueFull`, a decision
//! that never reads a speculation, so the workers speculate only the
//! requests the sweep will hand a speculation to. A fixed-point planner
//! runs the sweep's own admission rule (`Admission`) over the trace —
//! actual service times for speculated requests, the last known one for
//! the rest — and speculates the planned requests it has not speculated
//! yet, until a round adds none. Each request is speculated at most
//! once; a request the plan missed or mispredicted is recomputed inline
//! by the sweep, bit-identically, so the plan affects wall-clock only.
//!
//! # Shedding policy
//!
//! Overload sheds *work*, never *quality*: a rejected request gets a
//! typed [`ServeError`]; an admitted request always runs under the full
//! guard (TOQ-or-fallback). Sustained shedding raises the guard's
//! revalidation machinery ([`Guard::report_overload`]) instead of
//! demoting precision to buy throughput.

use crate::error::ServeError;
use crate::trace::{ArrivalTrace, Request};
use prescaler_core::report::{ServeReport, ServeSummary};
use prescaler_core::SpecSnapshot;
use prescaler_faults::hash::Fnv1a;
use prescaler_guard::{speculate, Guard, PreparedRun, SharedGuard};
use prescaler_ocl::{HostApp, OclError, Outputs, ScalingSpec};
use prescaler_sim::{SimTime, SystemModel};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Admission and scheduling policy of a serving session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeConfig {
    /// Bound on requests waiting for the device. An arrival that finds
    /// the waiting room at capacity is rejected
    /// [`ServeError::QueueFull`] — queue memory is bounded by
    /// construction, overload can only produce rejections.
    pub queue_capacity: usize,
    /// Per-request completion budget, charged against the virtual
    /// timeline from arrival: queue wait plus on-device service time
    /// must fit inside it or the request is shed before launch.
    pub deadline: SimTime,
    /// Physical worker threads executing requests speculatively. Affects
    /// wall-clock only; per-request outcomes are invariant to it.
    pub workers: usize,
    /// After this many load-shedding rejections (queue-full plus
    /// deadline), the session reports sustained overload to the guard,
    /// raising its revalidation request. `0` disables the signal.
    pub overload_shed_tolerance: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 8,
            deadline: SimTime::from_secs(1.0),
            workers: 1,
            overload_shed_tolerance: 0,
        }
    }
}

impl ServeConfig {
    /// A config with the given worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> ServeConfig {
        self.workers = workers;
        self
    }
}

/// The record of one request served to completion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServedRequest {
    /// The request's trace id.
    pub id: u64,
    /// Virtual arrival time.
    pub arrival: SimTime,
    /// Virtual time service began (arrival, or when the device freed).
    pub started: SimTime,
    /// Virtual completion time.
    pub completed: SimTime,
    /// Whether the run served a degraded (demoted or fallback) config.
    pub degraded: bool,
    /// Canary-scored quality of the run, when one was taken.
    pub canary_quality: Option<f64>,
    /// Canonical digest of the configuration in effect when the run
    /// completed (the spec served, after any same-run fallback).
    pub spec_digest: u64,
    /// Digest of the run's host-visible output bits.
    pub output_digest: u64,
}

/// The outcome of one request: served, or rejected with a typed error.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestOutcome {
    /// The request's trace id.
    pub id: u64,
    /// Virtual arrival time.
    pub arrival: SimTime,
    /// Served record, or the typed rejection.
    pub result: Result<ServedRequest, ServeError>,
}

/// Host-side speculation work of one serving session. Deterministic:
/// it depends on the same inputs as the outcomes, never on the worker
/// count (a panicked worker's lost speculations aside).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpeculationStats {
    /// Requests executed speculatively on the worker threads; at most
    /// one speculation per arrival.
    pub speculated: u64,
    /// Requests whose deadline test and guarded run used their
    /// speculation.
    pub reused: u64,
    /// Requests the sweep executed inline because their speculation was
    /// missing or ran under a spec the guard has since moved off.
    pub recomputed: u64,
}

/// Everything a serving session produced: the per-request outcome rows
/// (arrival order), the aggregate report, and the speculation counters.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRun {
    /// Per-request outcomes in arrival order.
    pub outcomes: Vec<RequestOutcome>,
    /// Aggregate counters, guard summary, and the outcome digest.
    pub report: ServeReport,
    /// How much speculative work the session did and how much of it the
    /// sweep used. Every request that reaches the deadline test is
    /// either `reused` or `recomputed`.
    pub speculation: SpeculationStats,
}

/// The single service line's bounded waiting room in virtual time: the
/// admission rule the sweep applies and the planner predicts with.
struct Admission {
    /// Start times of admitted requests still waiting for the device.
    /// Its length never exceeds `capacity`: that is checked *before*
    /// every admission.
    waiting: VecDeque<SimTime>,
    /// When the device finishes the last committed request.
    device_free: SimTime,
    capacity: usize,
    deadline: SimTime,
}

impl Admission {
    fn new(config: &ServeConfig) -> Admission {
        Admission {
            waiting: VecDeque::new(),
            device_free: SimTime::ZERO,
            capacity: config.queue_capacity,
            deadline: config.deadline,
        }
    }

    /// An arrival at `t`: retires the waiters whose service has started
    /// by `t`, then rejects the arrival if the room is still full, or
    /// returns the virtual time its service would start.
    fn arrive(&mut self, t: SimTime) -> Result<SimTime, ServeError> {
        while self.waiting.front().is_some_and(|&s| s <= t) {
            self.waiting.pop_front();
        }
        if self.waiting.len() >= self.capacity {
            return Err(ServeError::QueueFull);
        }
        Ok(t.max(self.device_free))
    }

    /// Deadline budget on the virtual timeline: queue wait plus the
    /// production service time must fit. For a run that will fail
    /// (`service` unknowable) the wait alone decides.
    fn misses_deadline(
        &self,
        arrival: SimTime,
        started: SimTime,
        service: Option<SimTime>,
    ) -> bool {
        let budget_end = arrival + self.deadline;
        match service {
            Some(s) => started + s > budget_end,
            None => started > budget_end,
        }
    }

    /// Commits an admitted request to the device; returns the queue depth
    /// it leaves.
    fn commit(&mut self, arrival: SimTime, started: SimTime, completed: SimTime) -> usize {
        self.device_free = completed;
        if started > arrival {
            self.waiting.push_back(started);
        }
        self.waiting.len()
    }
}

/// A request's speculation as the planner tracks it.
enum Slot {
    /// Not speculated.
    Pending,
    /// Speculated, but its worker panicked before storing the result.
    Lost,
    /// Speculated under the session's starting spec.
    Ready(Box<PreparedRun>),
}

impl Slot {
    /// Hands the speculation to the sweep, if there is one.
    fn take(&mut self) -> Option<PreparedRun> {
        match std::mem::replace(self, Slot::Lost) {
            Slot::Ready(p) => Some(*p),
            _ => None,
        }
    }
}

/// Canonical digest of a scaling spec (via its snapshot form, so equal
/// specs always digest equally).
#[must_use]
pub fn spec_digest(spec: &ScalingSpec) -> u64 {
    let json = serde_json::to_string(&SpecSnapshot::of(spec)).unwrap_or_default();
    Fnv1a::new().write(json.as_bytes()).finish()
}

/// Digest of an output set's exact bit patterns.
#[must_use]
pub fn output_digest(outputs: &Outputs) -> u64 {
    let mut h = Fnv1a::new();
    for (label, data) in outputs {
        h.write(label.as_bytes());
        for i in 0..data.len() {
            h.write_u64(data.get(i).to_bits());
        }
    }
    h.finish()
}

/// A multi-worker serving front-end over one guarded session.
pub struct Server {
    guard: SharedGuard,
    config: ServeConfig,
}

impl Server {
    /// Wraps a guard for serving under `config`.
    #[must_use]
    pub fn new(guard: Guard, config: ServeConfig) -> Server {
        Server {
            guard: SharedGuard::new(guard),
            config,
        }
    }

    /// The shared guard handle (for inspection or revalidation turns).
    #[must_use]
    pub fn guard(&self) -> &SharedGuard {
        &self.guard
    }

    /// The session's config.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Serves an arrival trace to completion and returns every
    /// per-request outcome plus the aggregate report.
    ///
    /// Phase 1 plans admission over the trace and fans the planned
    /// requests out to `config.workers` threads that execute them
    /// speculatively against a snapshot of the active configuration.
    /// Phase 2 sweeps the trace once in arrival order, making every
    /// admission/deadline/shedding decision on the virtual timeline and
    /// replaying the speculations through the guard — reusing a
    /// speculation only when its assumptions held, so a stale or missing
    /// (or panicked-away) speculation merely costs a recompute, never a
    /// different outcome.
    pub fn serve<A: HostApp>(
        &self,
        trace: &ArrivalTrace,
        app_at: impl Fn(f64) -> A + Sync,
    ) -> ServeRun {
        let n = trace.len();
        let mut slots = self.speculate_planned(trace, &app_at);
        let mut speculation = SpeculationStats {
            speculated: slots.iter().filter(|s| !matches!(s, Slot::Pending)).count() as u64,
            ..SpeculationStats::default()
        };
        let mut summary = ServeSummary {
            arrivals: n as u64,
            ..ServeSummary::default()
        };
        let mut outcomes = Vec::with_capacity(n);
        let mut digest = Fnv1a::new();
        let mut admission = Admission::new(&self.config);
        let mut shutting_down = false;

        for (req, slot) in trace.requests.iter().zip(&mut slots) {
            let t = req.arrival;
            let result = if shutting_down {
                Err(ServeError::ShuttingDown)
            } else {
                admission.arrive(t).and_then(|started| {
                    self.admit(
                        req,
                        started,
                        &admission,
                        slot.take(),
                        &app_at,
                        &mut speculation,
                    )
                })
            };

            match &result {
                Ok(served) => {
                    summary.served += 1;
                    summary.busy_secs += (served.completed - served.started).as_secs();
                    summary.makespan_secs = served.completed.as_secs();
                    if served.degraded {
                        summary.degraded_served += 1;
                    }
                    let depth = admission.commit(t, served.started, served.completed);
                    summary.peak_queue_depth = summary.peak_queue_depth.max(depth as u64);
                }
                Err(ServeError::QueueFull) => summary.shed_queue_full += 1,
                Err(ServeError::DeadlineExceeded) => summary.shed_deadline += 1,
                Err(ServeError::ShuttingDown) => summary.shed_shutdown += 1,
                Err(ServeError::DeviceLost) => {
                    summary.failed_device_lost += 1;
                    // Fatal: drain the session. Everything still queued or
                    // yet to arrive is rejected with a typed error.
                    shutting_down = true;
                }
            }

            // Sustained overload: shed work, never quality — tell the
            // guard to demand a system-aware re-tune (raised once).
            let sheds = summary.shed_queue_full + summary.shed_deadline;
            if self.config.overload_shed_tolerance > 0
                && sheds >= self.config.overload_shed_tolerance
                && !summary.overload_revalidation
            {
                self.guard.with(Guard::report_overload);
                summary.overload_revalidation = true;
            }

            digest.write_u64(req.id);
            match &result {
                Ok(s) => digest
                    .write_u64(0)
                    .write_u64(s.spec_digest)
                    .write_u64(s.output_digest)
                    .write_u64(s.started.as_secs().to_bits())
                    .write_u64(s.completed.as_secs().to_bits())
                    .write_u64(u64::from(s.degraded))
                    .write_u64(s.canary_quality.map_or(u64::MAX, f64::to_bits)),
                Err(e) => digest.write_u64(u64::from(e.tag())),
            };
            outcomes.push(RequestOutcome {
                id: req.id,
                arrival: t,
                result,
            });
        }

        let report = ServeReport {
            summary,
            guard: self.guard.summary(),
            outcome_digest: digest.finish(),
            workers: self.config.workers.max(1) as u64,
            seed: trace.seed,
        };
        ServeRun {
            outcomes,
            report,
            speculation,
        }
    }

    /// Phase 1: plan → speculate the planned set, to a fixed point.
    ///
    /// Each round replays the admission rule over the trace under the
    /// snapshot spec and collects the requests that reach the deadline
    /// test without a speculation; those are speculated in parallel and
    /// the next round plans with their actual service times. A request
    /// enters at most one batch, so there are at most `trace.len()`
    /// speculations, and the loop ends once a round collects nothing.
    fn speculate_planned<A: HostApp>(
        &self,
        trace: &ArrivalTrace,
        app_at: &(impl Fn(f64) -> A + Sync),
    ) -> Vec<Slot> {
        let snapshot = self.guard.active_spec();
        let system = self.guard.with(|g| g.system().clone());
        let mut slots: Vec<Slot> = trace.requests.iter().map(|_| Slot::Pending).collect();
        loop {
            let batch = self.plan(trace, &slots);
            if batch.is_empty() {
                return slots;
            }
            let preps = self.speculate_batch(&system, &snapshot, trace, &batch, app_at);
            for (i, prep) in batch.into_iter().zip(preps) {
                slots[i] = prep.map_or(Slot::Lost, |p| Slot::Ready(Box::new(p)));
            }
        }
    }

    /// One planning round: the indices of the requests that reach the
    /// deadline test with no speculation yet. A speculated request plans
    /// with its actual service time, an unspeculated one with the last
    /// service time the round has seen. The round stops at a failed or
    /// lost speculation, or at an unspeculated request with nothing to
    /// estimate from: from there on the sweep's own course decides.
    fn plan(&self, trace: &ArrivalTrace, slots: &[Slot]) -> Vec<usize> {
        let mut admission = Admission::new(&self.config);
        let mut last_service = None;
        let mut batch = Vec::new();
        for (i, (req, slot)) in trace.requests.iter().zip(slots).enumerate() {
            let t = req.arrival;
            let Ok(started) = admission.arrive(t) else {
                continue;
            };
            let service = match slot {
                Slot::Ready(prep) => match &prep.result {
                    Ok((_, log)) => log.timeline.total(),
                    Err(_) => break,
                },
                Slot::Lost => break,
                Slot::Pending => {
                    batch.push(i);
                    match last_service {
                        Some(s) => s,
                        None => break,
                    }
                }
            };
            last_service = Some(service);
            if !admission.misses_deadline(t, started, Some(service)) {
                admission.commit(t, started, started + service);
            }
        }
        batch
    }

    /// Speculates `batch` on up to `config.workers` threads; a `None`
    /// marks a speculation whose worker panicked.
    fn speculate_batch<A: HostApp>(
        &self,
        system: &SystemModel,
        spec: &ScalingSpec,
        trace: &ArrivalTrace,
        batch: &[usize],
        app_at: &(impl Fn(f64) -> A + Sync),
    ) -> Vec<Option<PreparedRun>> {
        let out: Vec<Mutex<Option<PreparedRun>>> = batch.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.config.workers.clamp(1, batch.len().max(1));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = batch.get(k) else {
                            break;
                        };
                        let prep = speculate(system, spec, trace.requests[i].id, app_at);
                        *out[k].lock().unwrap_or_else(PoisonError::into_inner) = Some(prep);
                    })
                })
                .collect();
            for h in handles {
                // A panicked worker forfeits its remaining speculations;
                // the sweep recomputes them inline and the pool keeps going.
                let _ = h.join();
            }
        });
        out.into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }

    /// Deadline admission plus guarded execution of one request that
    /// found room in the queue and would start at `started`.
    fn admit<A: HostApp>(
        &self,
        req: &Request,
        started: SimTime,
        admission: &Admission,
        prepared: Option<PreparedRun>,
        app_at: &impl Fn(f64) -> A,
        speculation: &mut SpeculationStats,
    ) -> Result<ServedRequest, ServeError> {
        let (id, arrival) = (req.id, req.arrival);
        // Validate the speculation against the *current* active spec; a
        // breaker may have moved it since the snapshot was taken.
        let prep = match prepared {
            Some(p) if p.spec == self.guard.active_spec() => {
                speculation.reused += 1;
                p
            }
            _ => {
                speculation.recomputed += 1;
                self.guard
                    .with(|g| speculate(g.system(), g.active_spec(), id, app_at))
            }
        };

        // The predicted production service time decides the deadline.
        // The canary a run may trigger executes on the clean twin — a
        // different logical device — so it never occupies the queue's
        // device or counts against any request's budget.
        let predicted = prep
            .result
            .as_ref()
            .ok()
            .map(|(_, log)| log.timeline.total());
        if admission.misses_deadline(arrival, started, predicted) {
            return Err(ServeError::DeadlineExceeded);
        }

        match self.guard.with(|g| g.run_forked(id, app_at, Some(prep))) {
            Ok(v) => {
                let sd = spec_digest(&self.guard.active_spec());
                Ok(ServedRequest {
                    id,
                    arrival,
                    started,
                    completed: started + v.timeline.total(),
                    degraded: v.degraded,
                    canary_quality: v.canary_quality,
                    spec_digest: sd,
                    output_digest: output_digest(&v.outputs),
                })
            }
            // The device died serving this request — or the guard's
            // last-resort baseline retry died too, which means the
            // runtime cannot serve at all: either way the session is
            // over. The triggering request reports the loss; the caller
            // drains the rest as `ShuttingDown`.
            Err(OclError::DeviceLost { .. }) | Err(_) => Err(ServeError::DeviceLost),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ArrivalTrace;
    use prescaler_faults::FaultPlan;
    use prescaler_guard::GuardPolicy;
    use prescaler_ir::Precision;
    use prescaler_polybench::{BenchKind, Dims, InputSet, PolyApp};
    use prescaler_sim::SystemModel;

    fn gemm_app() -> PolyApp {
        PolyApp::new(BenchKind::Gemm, Dims::square(12), InputSet::Random, 7)
    }

    fn half_spec() -> ScalingSpec {
        let mut spec = ScalingSpec::baseline();
        for label in ["A", "B", "C"] {
            spec = spec.with_target(label, Precision::Half);
        }
        spec
    }

    fn guard_on(system: &SystemModel) -> Guard {
        Guard::new(&gemm_app(), system, half_spec(), GuardPolicy::default()).unwrap()
    }

    /// Service time of one clean request on system1's device, measured.
    fn service_secs(system: &SystemModel) -> f64 {
        let prep = speculate(system, &half_spec(), 0, |g| gemm_app().with_input_gain(g));
        prep.result.unwrap().1.timeline.total().as_secs()
    }

    /// The speculation counters' invariants: at most one speculation per
    /// arrival, and exactly one used-or-recomputed speculation per
    /// request that reached the deadline test.
    fn assert_speculation_accounted(run: &ServeRun) {
        let (spec, sum) = (&run.speculation, &run.report.summary);
        assert!(
            spec.speculated <= sum.arrivals,
            "{spec:?} over {} arrivals",
            sum.arrivals
        );
        assert_eq!(
            spec.reused + spec.recomputed,
            sum.served + sum.shed_deadline + sum.failed_device_lost,
            "{spec:?} vs {sum:?}"
        );
    }

    #[test]
    fn outcomes_are_invariant_to_worker_count() {
        let plan = FaultPlan::seeded(41).with_input_drift(0.3, 2.0);
        let system = SystemModel::system1().with_faults(plan);
        let s = service_secs(&system);
        let trace = ArrivalTrace::generate(41, 20, SimTime::from_secs(s * 0.8), &system.faults);
        let mut runs = Vec::new();
        for workers in [1usize, 2, 8] {
            let config = ServeConfig {
                queue_capacity: 3,
                deadline: SimTime::from_secs(s * 4.0),
                workers,
                overload_shed_tolerance: 0,
            };
            let server = Server::new(guard_on(&system), config);
            let run = server.serve(&trace, |g| gemm_app().with_input_gain(g));
            assert_speculation_accounted(&run);
            assert_speculation_accounted(&run);
            runs.push(run);
        }
        assert_eq!(runs[0].outcomes, runs[1].outcomes, "1 vs 2 workers");
        assert_eq!(runs[0].outcomes, runs[2].outcomes, "1 vs 8 workers");
        assert_eq!(runs[0].report.outcome_digest, runs[2].report.outcome_digest);
        assert_eq!(runs[0].report.summary, runs[2].report.summary);
        assert_eq!(runs[0].speculation, runs[2].speculation);
    }

    #[test]
    fn every_arrival_is_accounted_and_queue_stays_bounded() {
        let system = SystemModel::system1();
        let s = service_secs(&system);
        // Arrivals ~5x faster than service: sustained pressure.
        let trace = ArrivalTrace::generate(3, 30, SimTime::from_secs(s / 5.0), &system.faults);
        let config = ServeConfig {
            queue_capacity: 2,
            deadline: SimTime::from_secs(s * 100.0),
            workers: 2,
            overload_shed_tolerance: 0,
        };
        let server = Server::new(guard_on(&system), config);
        let run = server.serve(&trace, |g| gemm_app().with_input_gain(g));
        assert_speculation_accounted(&run);
        let sum = &run.report.summary;
        assert_eq!(sum.arrivals, 30);
        assert_eq!(sum.accounted(), sum.arrivals, "no silent drops");
        assert!(sum.shed_queue_full > 0, "pressure must shed: {sum:?}");
        assert!(sum.served > 0, "the device still serves at capacity");
        assert!(
            sum.peak_queue_depth <= config.queue_capacity as u64,
            "queue bound violated: {} > {}",
            sum.peak_queue_depth,
            config.queue_capacity
        );
    }

    #[test]
    fn hopeless_deadlines_shed_before_launch() {
        let system = SystemModel::system1();
        let s = service_secs(&system);
        let trace = ArrivalTrace::generate(5, 10, SimTime::from_secs(s * 2.0), &system.faults);
        // Half a service time of budget: nothing can ever finish.
        let config = ServeConfig {
            queue_capacity: 4,
            deadline: SimTime::from_secs(s * 0.5),
            workers: 2,
            overload_shed_tolerance: 0,
        };
        let server = Server::new(guard_on(&system), config);
        let run = server.serve(&trace, |g| gemm_app().with_input_gain(g));
        assert_speculation_accounted(&run);
        let sum = &run.report.summary;
        assert_eq!(sum.served, 0);
        assert_eq!(sum.shed_deadline, 10, "all shed before launch: {sum:?}");
        assert_eq!(server.guard().summary().runs, 0, "nothing launched");
    }

    #[test]
    fn device_loss_fails_the_request_and_drains_the_session() {
        let plan = FaultPlan::seeded(2).with_device_loss(1.0);
        let system = SystemModel::system1().with_faults(plan);
        let clean = SystemModel::system1();
        let s = service_secs(&clean);
        let trace = ArrivalTrace::generate(2, 6, SimTime::from_secs(s), &system.faults);
        let server = Server::new(
            guard_on(&system),
            ServeConfig {
                deadline: SimTime::from_secs(s * 50.0),
                ..ServeConfig::default()
            },
        );
        let run = server.serve(&trace, |g| gemm_app().with_input_gain(g));
        assert_speculation_accounted(&run);
        assert_eq!(
            run.outcomes[0].result,
            Err(ServeError::DeviceLost),
            "the first admitted request reports the loss"
        );
        for o in &run.outcomes[1..] {
            assert_eq!(o.result, Err(ServeError::ShuttingDown));
        }
        assert!(
            server.guard().revalidation_due(),
            "loss demands revalidation"
        );
    }

    #[test]
    fn sustained_shedding_reports_overload_not_demotion() {
        let burst = FaultPlan::seeded(6).with_overload_burst(1.0, 4);
        let system = SystemModel::system1().with_faults(burst);
        let s = service_secs(&SystemModel::system1());
        let trace = ArrivalTrace::generate(6, 12, SimTime::from_secs(s * 0.5), &system.faults);
        assert!(trace.burst_extras() > 0, "burst plan must spike the trace");
        let config = ServeConfig {
            queue_capacity: 1,
            deadline: SimTime::from_secs(s * 3.0),
            workers: 2,
            overload_shed_tolerance: 3,
        };
        let server = Server::new(guard_on(&system), config);
        let run = server.serve(&trace, |g| gemm_app().with_input_gain(g));
        assert_speculation_accounted(&run);
        let sum = &run.report.summary;
        assert!(
            sum.shed() >= 3,
            "burst against capacity 1 must shed: {sum:?}"
        );
        assert!(sum.overload_revalidation);
        assert!(server.guard().revalidation_due());
        assert_eq!(
            run.report.guard.demotions, 0,
            "overload must never demote precision"
        );
        // Every admitted request still got full guard semantics.
        for o in &run.outcomes {
            if let Ok(served) = &o.result {
                if let Some(q) = served.canary_quality {
                    assert!(q >= 0.9 || run.report.guard.fallback, "TOQ-or-fallback");
                }
            }
        }
    }

    /// A constant service time makes the planner's estimate exact: the
    /// second planning round finds every admitted request, nothing the
    /// sweep sheds `QueueFull` is ever executed, and nothing is
    /// recomputed inline — the shape of the `serve_drift` benchmark.
    #[test]
    fn constant_service_speculates_exactly_the_served_requests() {
        let plan = FaultPlan::seeded(1)
            .with_input_drift(0.3, 2.0)
            .with_overload_burst(0.25, 3);
        let system = SystemModel::system1().with_faults(plan);
        let s = service_secs(&SystemModel::system1());
        let trace = ArrivalTrace::generate(1, 40, SimTime::from_secs(s * 0.6), &system.faults);
        let mut stats = Vec::new();
        for workers in [1usize, 2] {
            let config = ServeConfig {
                queue_capacity: 2,
                deadline: SimTime::from_secs(s * 4.0),
                workers,
                overload_shed_tolerance: 4,
            };
            let server = Server::new(guard_on(&system), config);
            let run = server.serve(&trace, |g| gemm_app().with_input_gain(g));
            assert_speculation_accounted(&run);
            let sum = &run.report.summary;
            assert!(sum.shed_queue_full > 0, "the trace must overload: {sum:?}");
            assert_eq!(sum.shed_deadline + sum.failed_device_lost, 0, "{sum:?}");
            assert_eq!(
                run.speculation.speculated, sum.served,
                "{:?}",
                run.speculation
            );
            assert_eq!(run.speculation.recomputed, 0, "{:?}", run.speculation);
            stats.push(run.speculation);
        }
        assert_eq!(stats[0], stats[1], "counters are worker-count invariant");
    }
}
