//! Whole-system models and the paper's Table 3 presets.

use crate::cpu::{CpuModel, SimdLevel};
use crate::gpu::{ComputeCapability, GpuModel};
use crate::pcie::PcieModel;
use crate::time::SimTime;
use prescaler_faults::hash::Fnv1a;
use prescaler_faults::FaultPlan;
use serde::{Deserialize, Serialize};

/// A heterogeneous CPU+GPU system.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SystemModel {
    /// Display name ("System 1").
    pub name: String,
    /// Host CPU.
    pub cpu: CpuModel,
    /// GPU device.
    pub gpu: GpuModel,
    /// Host↔device interconnect.
    pub pcie: PcieModel,
    /// Latency of one OpenCL enqueue API call (bounds pipelining chunk
    /// counts and small transfers).
    pub enqueue_latency: SimTime,
    /// Injected-fault plan; inert by default. Clones of the model share
    /// the plan's deterministic fault stream.
    pub faults: FaultPlan,
}

impl SystemModel {
    /// Paper System 1: Xeon E5-2640 v4 + NVIDIA Titan Xp (cc 6.1), PCIe
    /// 3.0 x16.
    #[must_use]
    pub fn system1() -> SystemModel {
        SystemModel {
            name: "System 1 (Xeon E5-2640v4 + Titan Xp)".into(),
            cpu: CpuModel {
                name: "Xeon E5-2640 v4".into(),
                cores: 10,
                threads: 20,
                clock_ghz: 3.4,
                simd: SimdLevel::Avx2,
                thread_spawn_base: SimTime::from_micros(8.0),
                thread_spawn_per_thread: SimTime::from_micros(1.0),
            },
            gpu: GpuModel {
                name: "Titan Xp".into(),
                compute_capability: ComputeCapability::Cc61,
                sms: 30,
                clock_ghz: 1.582,
                mem_bandwidth_gbps: 547.0,
                global_mem_bytes: 12 << 30,
                launch_latency: SimTime::from_micros(6.0),
                load_miss_rate: 1.0 / 16.0,
            },
            pcie: PcieModel::gen3(16),
            enqueue_latency: SimTime::from_micros(8.0),
            faults: FaultPlan::none(),
        }
    }

    /// Paper System 2: Xeon E5-2698 v4 + NVIDIA Tesla V100 (cc 7.0) — the
    /// DGX Station.
    #[must_use]
    pub fn system2() -> SystemModel {
        SystemModel {
            name: "System 2 (Xeon E5-2698v4 + Tesla V100)".into(),
            cpu: CpuModel {
                name: "Xeon E5-2698 v4".into(),
                cores: 20,
                threads: 40,
                clock_ghz: 3.6,
                simd: SimdLevel::Avx2,
                thread_spawn_base: SimTime::from_micros(8.0),
                thread_spawn_per_thread: SimTime::from_micros(1.0),
            },
            gpu: GpuModel {
                name: "Tesla V100".into(),
                compute_capability: ComputeCapability::Cc70,
                sms: 80,
                clock_ghz: 1.380,
                mem_bandwidth_gbps: 900.0,
                global_mem_bytes: 16 << 30,
                launch_latency: SimTime::from_micros(6.0),
                load_miss_rate: 1.0 / 16.0,
            },
            pcie: PcieModel::gen3(16),
            enqueue_latency: SimTime::from_micros(8.0),
            faults: FaultPlan::none(),
        }
    }

    /// Paper System 3: Xeon Gold 5115 + NVIDIA RTX 2080 Ti (cc 7.5), with
    /// AVX-512 on the host.
    #[must_use]
    pub fn system3() -> SystemModel {
        SystemModel {
            name: "System 3 (Xeon Gold 5115 + RTX 2080 Ti)".into(),
            cpu: CpuModel {
                name: "Xeon Gold 5115".into(),
                cores: 10,
                threads: 20,
                clock_ghz: 3.4,
                simd: SimdLevel::Avx512,
                thread_spawn_base: SimTime::from_micros(8.0),
                thread_spawn_per_thread: SimTime::from_micros(1.0),
            },
            gpu: GpuModel {
                name: "RTX 2080 Ti".into(),
                compute_capability: ComputeCapability::Cc75,
                sms: 68,
                clock_ghz: 1.545,
                mem_bandwidth_gbps: 616.0,
                global_mem_bytes: 11 << 30,
                launch_latency: SimTime::from_micros(6.0),
                load_miss_rate: 1.0 / 16.0,
            },
            pcie: PcieModel::gen3(16),
            enqueue_latency: SimTime::from_micros(8.0),
            faults: FaultPlan::none(),
        }
    }

    /// All three paper systems.
    #[must_use]
    pub fn paper_systems() -> Vec<SystemModel> {
        vec![
            SystemModel::system1(),
            SystemModel::system2(),
            SystemModel::system3(),
        ]
    }

    /// A copy with a different PCIe lane count (the paper's §5.4
    /// bandwidth-adaptivity experiment).
    #[must_use]
    pub fn with_pcie_lanes(mut self, lanes: u8) -> SystemModel {
        self.pcie = self.pcie.with_lanes(lanes);
        self.name = format!("{} @ {}", self.name, self.pcie.label());
        self
    }

    /// A copy running under the given fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> SystemModel {
        self.faults = faults;
        self
    }

    /// A copy with faults disabled — the clean reference system used for
    /// oracle runs and final acceptance checks.
    #[must_use]
    pub fn without_faults(&self) -> SystemModel {
        let mut clean = self.clone();
        clean.faults = FaultPlan::none();
        clean
    }

    /// A stable fingerprint of the *hardware* this model describes.
    ///
    /// Tuning decisions are only valid on the system they were made for
    /// (the paper's crossovers move between systems), so persisted specs
    /// carry this fingerprint and refuse to load against foreign
    /// hardware. The hash covers every timing-relevant hardware field —
    /// CPU, GPU, interconnect, enqueue latency — and deliberately
    /// excludes the display `name` (a relabel is not a hardware change)
    /// and the injected [`FaultPlan`] (drift is a *condition* of the same
    /// hardware, handled by revalidation, not a different system).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let cpu = &self.cpu;
        let gpu = &self.gpu;
        Fnv1a::new()
            .write(cpu.name.as_bytes())
            .write_u64(u64::from(cpu.cores))
            .write_u64(u64::from(cpu.threads))
            .write_u64(cpu.clock_ghz.to_bits())
            .write_u64(cpu.simd as u64)
            .write_u64(cpu.thread_spawn_base.as_secs().to_bits())
            .write_u64(cpu.thread_spawn_per_thread.as_secs().to_bits())
            .write(gpu.name.as_bytes())
            .write(gpu.compute_capability.version().as_bytes())
            .write_u64(u64::from(gpu.sms))
            .write_u64(gpu.clock_ghz.to_bits())
            .write_u64(gpu.mem_bandwidth_gbps.to_bits())
            .write_u64(gpu.global_mem_bytes)
            .write_u64(gpu.launch_latency.as_secs().to_bits())
            .write_u64(gpu.load_miss_rate.to_bits())
            .write_u64(u64::from(self.pcie.generation))
            .write_u64(u64::from(self.pcie.lanes))
            .write_u64(self.pcie.latency.as_secs().to_bits())
            .write_u64(self.enqueue_latency.as_secs().to_bits())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prescaler_ir::Precision;

    #[test]
    fn presets_match_table3_headlines() {
        let s1 = SystemModel::system1();
        assert_eq!(s1.cpu.cores, 10);
        assert_eq!(s1.gpu.sms, 30);
        assert_eq!(s1.gpu.compute_capability.version(), "6.1");

        let s2 = SystemModel::system2();
        assert_eq!(s2.cpu.cores, 20);
        assert_eq!(s2.gpu.sms, 80);
        assert_eq!(s2.gpu.compute_capability.version(), "7.0");

        let s3 = SystemModel::system3();
        assert_eq!(s3.cpu.simd, SimdLevel::Avx512);
        assert_eq!(s3.gpu.compute_capability.version(), "7.5");
    }

    #[test]
    fn system1_half_is_a_trap_system2_half_is_fast() {
        let s1 = SystemModel::system1();
        let s2 = SystemModel::system2();
        assert!(s1.gpu.flops(Precision::Half) < s1.gpu.flops(Precision::Double));
        assert!(s2.gpu.flops(Precision::Half) > s2.gpu.flops(Precision::Double));
    }

    #[test]
    fn system3_gains_most_from_leaving_double() {
        // FP64 is 2/cycle/SM on cc 7.5, and FP16 runs at 128: the
        // half-to-double throughput ratio is the largest of the three
        // systems, which is why the paper's Fig. 9 shows the biggest
        // PreScaler speedup there.
        let ratio = |s: &SystemModel| s.gpu.flops(Precision::Half) / s.gpu.flops(Precision::Double);
        let r1 = ratio(&SystemModel::system1());
        let r2 = ratio(&SystemModel::system2());
        let r3 = ratio(&SystemModel::system3());
        assert!(r3 > r1 && r3 > r2, "r1={r1} r2={r2} r3={r3}");
    }

    #[test]
    fn lane_override_renames_and_narrows() {
        let s = SystemModel::system1().with_pcie_lanes(8);
        assert_eq!(s.pcie.lanes, 8);
        assert!(s.name.contains("x8"));
    }

    #[test]
    fn fingerprint_tracks_hardware_not_labels_or_faults() {
        let s1 = SystemModel::system1();
        assert_eq!(s1.fingerprint(), SystemModel::system1().fingerprint());
        assert_ne!(s1.fingerprint(), SystemModel::system2().fingerprint());
        assert_ne!(s1.fingerprint(), SystemModel::system3().fingerprint());
        // A lane change is a hardware change...
        assert_ne!(
            s1.fingerprint(),
            SystemModel::system1().with_pcie_lanes(8).fingerprint()
        );
        // ...but a relabel or an injected fault plan is not.
        let mut renamed = SystemModel::system1();
        renamed.name = "same metal, new sticker".into();
        assert_eq!(s1.fingerprint(), renamed.fingerprint());
        let drifting =
            SystemModel::system1().with_faults(FaultPlan::seeded(9).with_throttle(0.5, 0.3));
        assert_eq!(s1.fingerprint(), drifting.fingerprint());
    }

    #[test]
    fn all_three_presets_are_listed() {
        let all = SystemModel::paper_systems();
        assert_eq!(all.len(), 3);
        assert!(all[0].name.starts_with("System 1"));
        assert!(all[2].name.starts_with("System 3"));
    }
}
