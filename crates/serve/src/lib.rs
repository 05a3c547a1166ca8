//! Overload-safe concurrent serving for guarded PreScaler sessions.
//!
//! The tuner certifies a [`prescaler_ocl::ScalingSpec`] once; the guard
//! (`prescaler-guard`) keeps its quality honest run by run. This crate
//! adds the layer above both: a **serving front-end** that takes a
//! seeded arrival trace and pushes it through a shared guarded session
//! with production semantics —
//!
//! * **Bounded admission with typed backpressure.** A fixed-capacity
//!   waiting queue; an arrival that finds it full is rejected with
//!   [`ServeError::QueueFull`]. Overload can never grow memory without
//!   bound or silently drop a request — every request's fate is a typed
//!   per-request outcome.
//! * **Deadline budgets on the virtual timeline.** Each request carries
//!   a completion budget from its arrival instant; a request whose queue
//!   wait plus predicted service time cannot fit is shed *before launch*
//!   with [`ServeError::DeadlineExceeded`]. Canary/verify runs execute
//!   on the clean twin of the system — a different logical device — so
//!   an in-flight canary never blocks the queue past a budget.
//! * **Shed work, never quality.** Every admitted request is served
//!   through the full guard: TOQ-or-fallback semantics always hold.
//!   Sustained shedding reports overload to the guard
//!   ([`prescaler_guard::Guard::report_overload`]), raising its
//!   revalidation request — precision is never demoted to buy
//!   throughput.
//! * **Deterministic replay at any worker count.** Worker threads are
//!   physical parallelism only: they execute requests speculatively from
//!   per-request forked fault streams (the `TrialEngine` trick extended
//!   to serving) and a sequential virtual-time sweep replays every
//!   decision. An admission plan limits speculation to the requests the
//!   sweep will reach, at most one per arrival ([`SpeculationStats`]).
//!   The same `(seed, trace, policy)` yields bit-identical per-request
//!   outcomes at 1, 2, or 8 workers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod server;
mod trace;

pub use error::ServeError;
pub use server::{
    output_digest, spec_digest, RequestOutcome, ServeConfig, ServeRun, ServedRequest, Server,
    SpeculationStats,
};
pub use trace::{ArrivalTrace, Request};
