//! Seeded arrival traces. A trace is the serving session's entire
//! schedule, fixed up front in virtual time: worker threads never race
//! the clock, they race through a list — which is what makes per-request
//! outcomes a pure function of `(seed, trace, policy)` and therefore
//! bit-identical at any worker count.

use prescaler_faults::hash::{splitmix64, unit};
use prescaler_faults::FaultPlan;
use prescaler_sim::SimTime;

/// Salt mixed into the fault-plan fork that drives overload bursts, so a
/// trace never advances (or depends on) the serving session's streams.
const BURST_FORK_SALT: u64 = 0x5E2B_E515_7261_CE00;

/// A uniform draw in `(0, 1]` — never zero, so `ln` stays finite. Exact:
/// [`unit`] is a multiple of 2^-53 below 1, so adding 2^-53 rounds nothing.
fn unit_open(bits: u64) -> f64 {
    unit(bits) + 1.0 / (1u64 << 53) as f64
}

/// One request in an arrival trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Arrival-order index, the request's identity (and its fault-stream
    /// fork salt) for the whole session.
    pub id: u64,
    /// Virtual arrival time.
    pub arrival: SimTime,
    /// Whether this request is an extra injected by an
    /// [`prescaler_faults::FaultKind::OverloadBurst`] spike rather than a
    /// base arrival.
    pub burst_extra: bool,
}

/// A seeded, replayable arrival schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrivalTrace {
    /// Requests in arrival order (ties broken by id).
    pub requests: Vec<Request>,
    /// The seed the trace was generated from.
    pub seed: u64,
}

impl ArrivalTrace {
    /// Generates a trace of `base` arrivals with exponential interarrival
    /// gaps of the given mean, then lets the fault plan's
    /// `OverloadBurst` stream inject extra same-instant arrivals after
    /// each base one. The plan is forked first, so generating a trace
    /// draws nothing from the serving session's own fault streams, and
    /// the same `(seed, base, mean, fault config)` always yields the same
    /// trace. With bursts disabled the trace has exactly `base` requests.
    #[must_use]
    pub fn generate(
        seed: u64,
        base: usize,
        mean_interarrival: SimTime,
        faults: &FaultPlan,
    ) -> ArrivalTrace {
        let bursts = faults.fork(BURST_FORK_SALT ^ seed);
        let mut state = splitmix64(seed ^ 0xA1EA_11A7_0F15_E3D5);
        let mut requests = Vec::with_capacity(base);
        let mut t = SimTime::ZERO;
        let mut id = 0u64;
        for _ in 0..base {
            state = splitmix64(state);
            let gap = -mean_interarrival.as_secs() * unit_open(state).ln();
            t += SimTime::from_secs(gap);
            requests.push(Request {
                id,
                arrival: t,
                burst_extra: false,
            });
            id += 1;
            // An arrival spike: the burst's extras land at the same
            // virtual instant, pressuring the admission queue.
            for _ in 0..bursts.overload_burst() {
                requests.push(Request {
                    id,
                    arrival: t,
                    burst_extra: true,
                });
                id += 1;
            }
        }
        ArrivalTrace { requests, seed }
    }

    /// Total requests, burst extras included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace holds no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Requests injected by overload bursts.
    #[must_use]
    pub fn burst_extras(&self) -> usize {
        self.requests.iter().filter(|r| r.burst_extra).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_sorted() {
        let plan = FaultPlan::seeded(9).with_overload_burst(0.5, 4);
        let a = ArrivalTrace::generate(7, 40, SimTime::from_millis(5.0), &plan);
        let b = ArrivalTrace::generate(7, 40, SimTime::from_millis(5.0), &plan);
        assert_eq!(a, b, "same inputs, same trace");
        for w in a.requests.windows(2) {
            assert!(w[0].arrival <= w[1].arrival, "arrivals must be ordered");
            assert_eq!(w[0].id + 1, w[1].id, "ids are dense in arrival order");
        }
        assert!(a.burst_extras() > 0, "rate 0.5 over 40 slots must spike");
        let c = ArrivalTrace::generate(8, 40, SimTime::from_millis(5.0), &plan);
        assert_ne!(a, c, "a different seed moves the schedule");
    }

    #[test]
    fn inert_plan_injects_no_extras() {
        let plan = FaultPlan::none();
        let trace = ArrivalTrace::generate(3, 25, SimTime::from_millis(2.0), &plan);
        assert_eq!(trace.len(), 25);
        assert_eq!(trace.burst_extras(), 0);
    }

    #[test]
    fn trace_generation_leaves_the_plan_untouched() {
        let plan = FaultPlan::seeded(5).with_overload_burst(1.0, 3);
        let before = plan.overload_burst();
        // Regenerate from a fresh identically-seeded plan: if generate()
        // advanced the parent's counters, this draw would differ.
        let plan2 = FaultPlan::seeded(5).with_overload_burst(1.0, 3);
        let _ = ArrivalTrace::generate(1, 100, SimTime::from_millis(1.0), &plan2);
        assert_eq!(before, plan2.overload_burst());
    }
}
