//! Scaling specifications — the mechanism the runtime consults when
//! executing API calls.
//!
//! A [`ScalingSpec`] is the runtime-side representation of one precision
//! configuration: per memory object, the device storage precision and the
//! transfer plans; per kernel, an optional in-kernel cast map. The policy
//! that *chooses* these values is the decision maker in `prescaler-core`;
//! the runtime only applies them, mirroring the paper's link-time
//! interposition split (Table 2).

use prescaler_ir::Precision;
use prescaler_sim::{Direction, HostMethod};
use std::collections::BTreeMap;

/// How one transfer leg converts: wire type plus host-side method.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanChoice {
    /// Element type on the wire. Equal to the destination type for plain
    /// host-side scaling, to the source type for device-side scaling, and
    /// distinct from both for transient conversion.
    pub intermediate: Precision,
    /// How the host-side conversion leg executes.
    pub host_method: HostMethod,
}

impl PlanChoice {
    /// Host-side direct conversion using a multithreaded loop.
    #[must_use]
    pub fn host_direct(
        direction: Direction,
        src: Precision,
        dst: Precision,
        threads: usize,
    ) -> PlanChoice {
        PlanChoice {
            intermediate: match direction {
                Direction::HtoD => dst,
                Direction::DtoH => src,
            },
            host_method: HostMethod::Multithread { threads },
        }
    }
}

/// A complete runtime scaling configuration.
///
/// Objects or kernels absent from the maps run unscaled. The empty spec is
/// the baseline program. Every map is ordered by label, so a spec always
/// iterates in one canonical order: fingerprints, digests and snapshots
/// encode it as they walk it, without sorting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScalingSpec {
    /// Device storage precision per memory-object label.
    pub object_targets: BTreeMap<String, Precision>,
    /// HtoD transfer plan per object label.
    pub write_plans: BTreeMap<String, PlanChoice>,
    /// DtoH transfer plan per object label.
    pub read_plans: BTreeMap<String, PlanChoice>,
    /// In-kernel compute precision per kernel → per buffer param
    /// (the Precimonious-style baseline; empty for memory-object scaling).
    pub in_kernel: BTreeMap<String, BTreeMap<String, Precision>>,
}

impl ScalingSpec {
    /// The baseline (identity) configuration.
    #[must_use]
    pub fn baseline() -> ScalingSpec {
        ScalingSpec::default()
    }

    /// `true` if no scaling at all is configured.
    #[must_use]
    pub fn is_baseline(&self) -> bool {
        self.object_targets.is_empty()
            && self.write_plans.is_empty()
            && self.read_plans.is_empty()
            && self.in_kernel.is_empty()
    }

    /// Sets the device precision of one object.
    #[must_use]
    pub fn with_target(mut self, label: impl Into<String>, p: Precision) -> ScalingSpec {
        self.object_targets.insert(label.into(), p);
        self
    }

    /// Sets the HtoD plan of one object.
    #[must_use]
    pub fn with_write_plan(mut self, label: impl Into<String>, plan: PlanChoice) -> ScalingSpec {
        self.write_plans.insert(label.into(), plan);
        self
    }

    /// Sets the DtoH plan of one object.
    #[must_use]
    pub fn with_read_plan(mut self, label: impl Into<String>, plan: PlanChoice) -> ScalingSpec {
        self.read_plans.insert(label.into(), plan);
        self
    }

    /// The device storage precision for an object originally of
    /// `declared` precision.
    #[must_use]
    pub fn target_for(&self, label: &str, declared: Precision) -> Precision {
        self.object_targets.get(label).copied().unwrap_or(declared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_empty() {
        let s = ScalingSpec::baseline();
        assert!(s.is_baseline());
        assert_eq!(s.target_for("A", Precision::Double), Precision::Double);
    }

    #[test]
    fn builders_accumulate() {
        let s = ScalingSpec::baseline()
            .with_target("A", Precision::Half)
            .with_write_plan(
                "A",
                PlanChoice::host_direct(Direction::HtoD, Precision::Double, Precision::Half, 20),
            );
        assert!(!s.is_baseline());
        assert_eq!(s.target_for("A", Precision::Double), Precision::Half);
        assert_eq!(s.target_for("B", Precision::Double), Precision::Double);
        assert_eq!(
            s.write_plans["A"].intermediate,
            Precision::Half,
            "direct host scaling wires the destination type"
        );
    }

    #[test]
    fn host_direct_dtoh_wires_source_type() {
        let p = PlanChoice::host_direct(Direction::DtoH, Precision::Half, Precision::Double, 4);
        assert_eq!(p.intermediate, Precision::Half);
    }
}
