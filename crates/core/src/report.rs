//! Report extraction: the type and conversion-method distributions the
//! paper plots in Fig. 9(d,e), Fig. 11(b,c) and Fig. 12(b,c) — plus the
//! durable [`TunedSnapshot`] form of a tuning result ([`Tuned::save`] /
//! [`Tuned::load`]).

use crate::profiler::AppProfile;
use crate::search::Tuned;
use prescaler_ir::Precision;
use prescaler_ocl::{PlanChoice, ScalingSpec};
use prescaler_persist::{snapshot, PersistError};
use prescaler_sim::HostMethod;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// How many memory objects ended up at each precision.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypeDistribution {
    /// Objects stored as binary16.
    pub half: usize,
    /// Objects stored as binary32.
    pub single: usize,
    /// Objects left at binary64.
    pub double: usize,
}

impl TypeDistribution {
    /// Total objects.
    #[must_use]
    pub fn total(&self) -> usize {
        self.half + self.single + self.double
    }

    /// Fraction of objects at the given precision.
    #[must_use]
    pub fn fraction(&self, p: Precision) -> f64 {
        let n = self.total().max(1) as f64;
        (match p {
            Precision::Half => self.half,
            Precision::Single => self.single,
            Precision::Double => self.double,
        }) as f64
            / n
    }
}

/// How the transfer events of a configuration convert (paper Fig. 9(e)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConversionDistribution {
    /// Transfers with no conversion at all.
    pub none: usize,
    /// Host-side single-loop conversions.
    pub host_loop: usize,
    /// Host-side multithreaded conversions.
    pub host_multithread: usize,
    /// Pipelined conversion+transfer.
    pub pipelined: usize,
    /// Device-side conversions.
    pub device: usize,
    /// Transient conversions (wire type distinct from both endpoints).
    pub transient: usize,
}

impl ConversionDistribution {
    /// Total transfer events classified.
    #[must_use]
    pub fn total(&self) -> usize {
        self.none
            + self.host_loop
            + self.host_multithread
            + self.pipelined
            + self.device
            + self.transient
    }

    /// Number of events that perform some conversion.
    #[must_use]
    pub fn converting(&self) -> usize {
        self.total() - self.none
    }
}

/// Extracts the per-object type distribution of a configuration.
#[must_use]
pub fn type_distribution(profile: &AppProfile, spec: &ScalingSpec) -> TypeDistribution {
    let mut dist = TypeDistribution::default();
    for obj in &profile.scaling_order {
        match spec.target_for(&obj.label, obj.original) {
            Precision::Half => dist.half += 1,
            Precision::Single => dist.single += 1,
            Precision::Double => dist.double += 1,
        }
    }
    dist
}

/// Extracts the conversion-method distribution over the configuration's
/// transfer events.
#[must_use]
pub fn conversion_distribution(profile: &AppProfile, spec: &ScalingSpec) -> ConversionDistribution {
    let mut dist = ConversionDistribution::default();
    for obj in &profile.scaling_order {
        let target = spec.target_for(&obj.label, obj.original);
        if obj.written {
            classify(
                &mut dist,
                obj.original,
                target,
                spec.write_plans.get(&obj.label).copied(),
                true,
            );
        }
        if obj.read_back {
            classify(
                &mut dist,
                target,
                obj.original,
                spec.read_plans.get(&obj.label).copied(),
                false,
            );
        }
    }
    dist
}

fn classify(
    dist: &mut ConversionDistribution,
    src: Precision,
    dst: Precision,
    plan: Option<prescaler_ocl::PlanChoice>,
    htod: bool,
) {
    let Some(plan) = plan else {
        if src == dst {
            dist.none += 1;
        } else {
            dist.host_loop += 1; // runtime default for scaled-but-unplanned
        }
        return;
    };
    if src == dst && plan.intermediate == src {
        dist.none += 1;
        return;
    }
    let transient = plan.intermediate != src && plan.intermediate != dst;
    if transient {
        dist.transient += 1;
        return;
    }
    // Direct conversion: device-side when the wire carries the *far* end's
    // type (source for HtoD, destination for DtoH).
    let device_side = if htod {
        plan.intermediate == src
    } else {
        plan.intermediate == dst
    };
    if device_side && src != dst {
        dist.device += 1;
        return;
    }
    match plan.host_method {
        HostMethod::Loop => dist.host_loop += 1,
        HostMethod::Multithread { .. } => dist.host_multithread += 1,
        HostMethod::Pipelined { .. } => dist.pipelined += 1,
    }
}

/// Summary of one guarded-serving session (`prescaler-guard`): how the
/// runtime quality sentinel behaved over a sequence of production runs.
/// Lives here, next to the other report rows, so persisted experiment
/// reports can embed it without the core depending on the guard crate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct GuardSummary {
    /// Production runs served.
    pub runs: u64,
    /// Full-precision canary runs executed.
    pub canary_runs: u64,
    /// Virtual seconds spent on canary runs (the guard's overhead).
    pub canary_secs: f64,
    /// Per-object precision demotions applied.
    pub demotions: u64,
    /// Per-object precision re-promotions after recovery.
    pub promotions: u64,
    /// Runs served with at least one object demoted (or in fallback).
    pub degraded_runs: u64,
    /// Virtual seconds of production time spent degraded.
    pub degraded_secs: f64,
    /// Whether the global breaker fell back to the full-precision
    /// baseline configuration.
    pub fallback: bool,
    /// Quality of the last canary-scored run, if any was taken.
    pub final_quality: Option<f64>,
}

/// Aggregate counters of one `prescaler-serve` serving session: how many
/// requests arrived, how many were served, and exactly why every other
/// one was shed. Every arrival is accounted for by exactly one counter —
/// overload may reject work, but never silently drops it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeSummary {
    /// Requests that arrived, including overload-burst extras.
    pub arrivals: u64,
    /// Requests admitted and served to completion with a quality verdict.
    pub served: u64,
    /// Requests rejected at admission because the bounded queue was full.
    pub shed_queue_full: u64,
    /// Requests shed before launch because their deadline budget could
    /// not be met.
    pub shed_deadline: u64,
    /// Requests rejected after the session began shutting down.
    pub shed_shutdown: u64,
    /// Requests that failed because the device was lost mid-service.
    pub failed_device_lost: u64,
    /// Served requests that ran while the guard was degraded (at least
    /// one object demoted, or the sticky baseline fallback engaged).
    pub degraded_served: u64,
    /// High-water mark of the admission queue (never exceeds the bound).
    pub peak_queue_depth: u64,
    /// Virtual seconds the device spent serving admitted requests.
    pub busy_secs: f64,
    /// Virtual completion time of the last served request.
    pub makespan_secs: f64,
    /// Whether sustained overload raised the guard's revalidation flag
    /// (shed work, never quality: overload asks for a re-tune instead of
    /// demoting precision).
    pub overload_revalidation: bool,
}

impl ServeSummary {
    /// Requests shed with a typed rejection (admission or deadline or
    /// shutdown), excluding device-loss failures.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline + self.shed_shutdown
    }

    /// Total requests accounted for across all outcome counters. Equal to
    /// [`ServeSummary::arrivals`] in any correct session.
    #[must_use]
    pub fn accounted(&self) -> u64 {
        self.served + self.shed() + self.failed_device_lost
    }
}

/// Full report of a serving session: the aggregate counters, the guard's
/// own summary after the run, and a canonical FNV-1a digest of the
/// per-request outcome stream. Equal digests mean bit-identical
/// per-request outcomes — the cross-worker-count determinism check diffs
/// exactly this value. Lives here, next to [`GuardSummary`], so persisted
/// experiment reports can embed it without depending on the serve crate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Aggregate outcome counters.
    pub summary: ServeSummary,
    /// The guard's cumulative summary at the end of the session.
    pub guard: GuardSummary,
    /// Canonical digest of the per-request outcome stream (spec served,
    /// quality verdict, typed rejection — in arrival order).
    pub outcome_digest: u64,
    /// Physical worker threads the session ran with. Informational only:
    /// outcomes and digest are invariant to it.
    pub workers: u64,
    /// Seed of the arrival trace the session replayed.
    pub seed: u64,
}

/// A complete per-benchmark result row (one bar group in Fig. 9/10).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResultRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Technique name ("Baseline", "In-Kernel", "PFP", "PreScaler").
    pub technique: String,
    /// Total virtual time in seconds.
    pub time_secs: f64,
    /// Kernel-only virtual time in seconds.
    pub kernel_secs: f64,
    /// Speedup over baseline.
    pub speedup: f64,
    /// Output quality.
    pub quality: f64,
    /// Application executions charged to the technique's search.
    pub trials: usize,
    /// Evaluations answered from the trial-engine memo cache instead of
    /// a real execution (0 for techniques that never repeat a spec).
    pub cache_hits: usize,
    /// Candidates rejected by the static precision-safety analysis
    /// without a trial (0 for techniques that don't consult it).
    pub pruned_static: usize,
    /// Final object type distribution.
    pub types: TypeDistribution,
    /// Final conversion-method distribution.
    pub conversions: ConversionDistribution,
}

/// One `label → precision` assignment of a [`SpecSnapshot`], sorted by
/// label so serialization is canonical (byte-identical for equal specs).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TargetEntry {
    /// Memory-object label.
    pub label: String,
    /// Storage precision chosen for it.
    pub precision: Precision,
}

/// One transfer-plan assignment of a [`SpecSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanEntry {
    /// Memory-object label.
    pub label: String,
    /// Wire (intermediate) precision of the transfer.
    pub intermediate: Precision,
    /// Host-side conversion method.
    pub host_method: HostMethod,
}

/// One in-kernel cast of a [`SpecSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelCastEntry {
    /// Kernel name.
    pub kernel: String,
    /// Parameter name.
    pub param: String,
    /// Compute precision the parameter is cast to.
    pub precision: Precision,
}

/// A [`ScalingSpec`] in canonical (sorted-entry) serialized form. The
/// spec's maps serialize as sorted entry lists, so two equal specs always
/// produce byte-identical snapshots — the property the crash-resume
/// acceptance diff relies on.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SpecSnapshot {
    /// Per-object storage precisions (sorted by label).
    pub targets: Vec<TargetEntry>,
    /// Host→device transfer plans (sorted by label).
    pub write_plans: Vec<PlanEntry>,
    /// Device→host transfer plans (sorted by label).
    pub read_plans: Vec<PlanEntry>,
    /// In-kernel compute casts (sorted by kernel, then parameter).
    pub in_kernel: Vec<KernelCastEntry>,
}

impl SpecSnapshot {
    /// Canonical snapshot of a spec.
    #[must_use]
    pub fn of(spec: &ScalingSpec) -> SpecSnapshot {
        let plans = |map: &BTreeMap<String, PlanChoice>| {
            map.iter()
                .map(|(label, plan)| PlanEntry {
                    label: label.clone(),
                    intermediate: plan.intermediate,
                    host_method: plan.host_method,
                })
                .collect()
        };
        SpecSnapshot {
            targets: spec
                .object_targets
                .iter()
                .map(|(label, &precision)| TargetEntry {
                    label: label.clone(),
                    precision,
                })
                .collect(),
            write_plans: plans(&spec.write_plans),
            read_plans: plans(&spec.read_plans),
            in_kernel: spec
                .in_kernel
                .iter()
                .flat_map(|(kernel, casts)| {
                    casts.iter().map(|(param, &precision)| KernelCastEntry {
                        kernel: kernel.clone(),
                        param: param.clone(),
                        precision,
                    })
                })
                .collect(),
        }
    }

    /// Reconstructs the spec the snapshot was taken from.
    #[must_use]
    pub fn to_spec(&self) -> ScalingSpec {
        let mut spec = ScalingSpec::baseline();
        for t in &self.targets {
            spec.object_targets.insert(t.label.clone(), t.precision);
        }
        for p in &self.write_plans {
            spec.write_plans.insert(
                p.label.clone(),
                PlanChoice {
                    intermediate: p.intermediate,
                    host_method: p.host_method,
                },
            );
        }
        for p in &self.read_plans {
            spec.read_plans.insert(
                p.label.clone(),
                PlanChoice {
                    intermediate: p.intermediate,
                    host_method: p.host_method,
                },
            );
        }
        for c in &self.in_kernel {
            spec.in_kernel
                .entry(c.kernel.clone())
                .or_default()
                .insert(c.param.clone(), c.precision);
        }
        spec
    }
}

/// The durable form of a [`Tuned`] result: the chosen configuration and
/// every number the acceptance criteria compare, in canonical order.
/// Equal tuning results serialize to byte-identical snapshots.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TunedSnapshot {
    /// The chosen configuration, canonicalized.
    pub config: SpecSnapshot,
    /// Total virtual time of the chosen configuration, in seconds.
    pub time_secs: f64,
    /// Kernel-only virtual time, in seconds.
    pub kernel_secs: f64,
    /// Output quality vs the full-precision reference.
    pub quality: f64,
    /// Baseline total time in seconds (speedup denominator).
    pub baseline_secs: f64,
    /// Charged trials.
    pub trials: usize,
    /// Memo-cache hits.
    pub cache_hits: usize,
    /// Candidates rejected statically, without a trial.
    pub pruned_static: usize,
    /// The target output quality the run was tuned against.
    pub toq: f64,
    /// Hardware fingerprint of the system the spec was tuned on —
    /// checked on load so a snapshot can never silently serve decisions
    /// made for different hardware.
    pub system_fingerprint: u64,
}

impl Tuned {
    /// The durable snapshot of this result.
    #[must_use]
    pub fn snapshot(&self) -> TunedSnapshot {
        TunedSnapshot {
            config: SpecSnapshot::of(&self.config),
            time_secs: self.eval.time.as_secs(),
            kernel_secs: self.eval.kernel_time.as_secs(),
            quality: self.eval.quality,
            baseline_secs: self.baseline_time.as_secs(),
            trials: self.trials,
            cache_hits: self.cache_hits,
            pruned_static: self.pruned_static,
            toq: self.toq,
            system_fingerprint: self.system_fingerprint,
        }
    }

    /// Persists the result atomically under the checksummed snapshot
    /// container — the artifact a resumed tune is diffed against.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures as [`PersistError::Io`].
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        let json = serde_json::to_string(&self.snapshot())
            .map_err(|e| PersistError::Decode(e.to_string()))?;
        snapshot::save(path, snapshot::KIND_TUNED, json.as_bytes())
    }

    /// Loads a previously saved result snapshot, verifying the container
    /// (magic, version, kind, CRCs) *and* that the snapshot was tuned on
    /// `system`'s hardware before decoding is trusted — a spec tuned on
    /// another system must be a typed error, never a silently mis-served
    /// configuration.
    ///
    /// # Errors
    ///
    /// The container's taxonomy (truncation, checksum, kind, version
    /// mismatches), [`PersistError::Decode`] for malformed payloads, and
    /// [`PersistError::ContextMismatch`] when the snapshot's system
    /// fingerprint is not `system`'s.
    pub fn load(
        path: &Path,
        system: &prescaler_sim::SystemModel,
    ) -> Result<TunedSnapshot, PersistError> {
        let snap = Tuned::load_unchecked(path)?;
        let expected = system.fingerprint();
        if snap.system_fingerprint != expected {
            return Err(PersistError::ContextMismatch {
                expected,
                got: snap.system_fingerprint,
            });
        }
        Ok(snap)
    }

    /// [`Tuned::load`] without the system-fingerprint check — for
    /// cross-system reporting tools that inspect foreign snapshots on
    /// purpose. Serving paths should always use the checked load.
    ///
    /// # Errors
    ///
    /// The container's taxonomy plus [`PersistError::Decode`].
    pub fn load_unchecked(path: &Path) -> Result<TunedSnapshot, PersistError> {
        let payload = snapshot::load(path, snapshot::KIND_TUNED)?;
        serde_json::from_slice(&payload).map_err(|e| PersistError::Decode(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::profile_app;
    use prescaler_ocl::PlanChoice;
    use prescaler_polybench::{BenchKind, PolyApp};
    use prescaler_sim::SystemModel;

    fn gemm_profile() -> AppProfile {
        profile_app(&PolyApp::tiny(BenchKind::Gemm), &SystemModel::system1()).unwrap()
    }

    #[test]
    fn baseline_distribution_is_all_double_no_conversion() {
        let profile = gemm_profile();
        let spec = ScalingSpec::baseline();
        let t = type_distribution(&profile, &spec);
        assert_eq!(t.double, 3);
        assert_eq!(t.half + t.single, 0);
        assert_eq!(t.fraction(Precision::Double), 1.0);
        let c = conversion_distribution(&profile, &spec);
        assert_eq!(c.none, 4, "3 writes + 1 read, all unconverted");
        assert_eq!(c.converting(), 0);
    }

    #[test]
    fn scaled_objects_classify_by_method() {
        let profile = gemm_profile();
        let spec = ScalingSpec::baseline()
            .with_target("A", Precision::Single)
            .with_write_plan(
                "A",
                PlanChoice {
                    intermediate: Precision::Single,
                    host_method: HostMethod::Multithread { threads: 20 },
                },
            )
            .with_target("B", Precision::Single)
            .with_write_plan(
                "B",
                PlanChoice {
                    intermediate: Precision::Double, // wire carries source → device converts
                    host_method: HostMethod::Loop,
                },
            )
            .with_target("C", Precision::Half)
            .with_write_plan(
                "C",
                PlanChoice {
                    intermediate: Precision::Half,
                    host_method: HostMethod::Pipelined {
                        threads: 20,
                        chunks: 8,
                    },
                },
            )
            .with_read_plan(
                "C",
                PlanChoice {
                    intermediate: Precision::Single, // half → (single wire) → double
                    host_method: HostMethod::Loop,
                },
            );
        let t = type_distribution(&profile, &spec);
        assert_eq!((t.half, t.single, t.double), (1, 2, 0));
        let c = conversion_distribution(&profile, &spec);
        assert_eq!(c.host_multithread, 1, "A");
        assert_eq!(c.device, 1, "B");
        assert_eq!(c.pipelined, 1, "C write");
        assert_eq!(c.transient, 1, "C read through single");
        assert_eq!(c.none, 0);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn tuned_snapshot_round_trips_bit_exactly() {
        use crate::inspector::SystemInspector;
        use crate::search::PreScaler;
        let system = SystemModel::system1();
        let db = SystemInspector::inspect(&system);
        let tuned = PreScaler::new(&system, &db, 0.9)
            .tune(&PolyApp::tiny(BenchKind::Gemm))
            .unwrap();
        let dir = std::env::temp_dir().join("prescaler_tuned_snapshot");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gemm.snap");
        tuned.save(&path).unwrap();
        let loaded = Tuned::load(&path, &system).unwrap();
        assert_eq!(loaded, tuned.snapshot());
        assert_eq!(loaded.config.to_spec(), tuned.config);
        assert_eq!(
            loaded.time_secs.to_bits(),
            tuned.eval.time.as_secs().to_bits()
        );
        assert_eq!(loaded.quality.to_bits(), tuned.eval.quality.to_bits());
        // Saving the same result twice is byte-identical on disk.
        let first = std::fs::read(&path).unwrap();
        tuned.save(&path).unwrap();
        assert_eq!(first, std::fs::read(&path).unwrap());
        // A wrong-kind load is a typed error, not a misparse.
        assert!(matches!(
            crate::inspector::InspectorDb::load(&path),
            Err(PersistError::WrongKind { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tuned_snapshot_refuses_a_foreign_system() {
        use crate::inspector::SystemInspector;
        use crate::search::PreScaler;
        let system1 = SystemModel::system1();
        let db = SystemInspector::inspect(&system1);
        let tuned = PreScaler::new(&system1, &db, 0.9)
            .tune(&PolyApp::tiny(BenchKind::Gemm))
            .unwrap();
        let dir = std::env::temp_dir().join("prescaler_tuned_foreign");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gemm.snap");
        tuned.save(&path).unwrap();
        // A spec tuned on System 1 must not load for System 2's hardware…
        let system2 = SystemModel::system2();
        let err = Tuned::load(&path, &system2).unwrap_err();
        match err {
            PersistError::ContextMismatch { expected, got } => {
                assert_eq!(expected, system2.fingerprint());
                assert_eq!(got, system1.fingerprint());
            }
            other => panic!("expected ContextMismatch, got {other}"),
        }
        // …but a relabeled or drifting copy of System 1 is the same metal.
        let mut relabeled = SystemModel::system1();
        relabeled.name = "System 1 (relabeled)".into();
        assert!(Tuned::load(&path, &relabeled).is_ok());
        // The unchecked load stays available for cross-system reporting.
        assert!(Tuned::load_unchecked(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unplanned_scaled_transfer_counts_as_host_loop() {
        let profile = gemm_profile();
        let spec = ScalingSpec::baseline().with_target("A", Precision::Single);
        let c = conversion_distribution(&profile, &spec);
        assert_eq!(c.host_loop, 1);
    }
}
