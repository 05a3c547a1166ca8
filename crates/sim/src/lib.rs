//! A deterministic heterogeneous CPU/GPU/PCIe system simulator.
//!
//! PreScaler's decisions are driven by *system characteristics*: FP16/32/64
//! throughput per GPU generation, PCIe bandwidth, host conversion speed
//! under various SIMD sets, thread-dispatch and enqueue latencies. This
//! crate models all of them on a virtual clock:
//!
//! * [`gpu`] — GPU roofline model over the paper's Table 1 throughputs;
//! * [`cpu`] — host conversion costs per SIMD level, thread overheads;
//! * [`pcie`] — interconnect bandwidth/latency (x16 vs x8);
//! * [`convert`] — the five conversion shapes of the paper's Fig. 3 as
//!   [`convert::TransferPlan`]s: cost model *and* functional execution;
//! * [`system`] — the paper's Table 3 systems as ready-made presets.
//!
//! # Example
//!
//! ```
//! use prescaler_sim::convert::{Direction, HostMethod, TransferPlan};
//! use prescaler_sim::SystemModel;
//! use prescaler_ir::Precision;
//!
//! let system = SystemModel::system1();
//! // Send 4M doubles to the device as singles, converting on 20 threads.
//! let plan = TransferPlan::host_scaled(
//!     Direction::HtoD,
//!     Precision::Double,
//!     Precision::Single,
//!     HostMethod::Multithread { threads: 20 },
//! );
//! let cost = plan.time(&system, 4 << 20);
//! assert!(cost.total() > prescaler_sim::SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convert;
pub mod cpu;
pub mod gpu;
pub mod pcie;
pub mod system;
pub mod time;

pub use convert::{Direction, HostMethod, TransferCost, TransferPlan};
pub use cpu::{CpuModel, SimdLevel};
pub use gpu::{ComputeCapability, GpuModel, ThroughputTable};
pub use pcie::PcieModel;
pub use prescaler_faults::{hash, Corruption, FaultConfig, FaultKind, FaultPlan, Poison};
pub use system::SystemModel;
pub use time::SimTime;
