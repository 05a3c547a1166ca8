//! The paper's comparison techniques: In-Kernel scaling (Precimonious-
//! style exhaustive kernel-level search) and Program-level Full Precision
//! (PFP). Both evaluate candidates through the shared [`TrialEngine`], so
//! report paths that run several techniques on one app reuse the
//! profiling run and any overlapping measurements.

use crate::engine::TrialEngine;
use crate::profiler::AppProfile;
use crate::search::Evaluation;
use prescaler_ir::Precision;
use prescaler_ocl::{Event, PlanChoice, ScalingSpec};
use prescaler_sim::{Direction, HostMethod};
use std::collections::{BTreeMap, HashMap};

/// Outcome of a baseline technique's search.
#[derive(Clone, Debug)]
pub struct TechniqueOutcome {
    /// Chosen configuration.
    pub config: ScalingSpec,
    /// Its evaluation.
    pub eval: Evaluation,
    /// Trials charged by this technique (excluding the shared profiling
    /// run and any evaluation already paid for through the engine cache).
    pub trials: usize,
}

fn baseline_eval(profile: &AppProfile) -> Evaluation {
    Evaluation {
        time: profile.baseline_time,
        kernel_time: profile.log.timeline.kernel,
        quality: 1.0,
    }
}

// ---------------------------------------------------------------------------
// PFP
// ---------------------------------------------------------------------------

/// Program-level Full Precision: every memory object gets the same type;
/// all types are tested, with both a host-side multithreaded conversion
/// (threads = logical cores) and a device-side conversion considered
/// (paper §5.1). The best TOQ-passing configuration wins. A candidate
/// that cannot run is pruned; the baseline fallback always remains.
#[must_use]
pub fn pfp(engine: &TrialEngine, toq: f64) -> TechniqueOutcome {
    let profile = engine.profile();
    let threads = engine.system().cpu.threads as usize;
    let mut best = TechniqueOutcome {
        config: ScalingSpec::baseline(),
        eval: baseline_eval(profile),
        trials: 0,
    };
    let mut trials = 0usize;

    let mut candidates = Vec::new();
    for target in [Precision::Single, Precision::Half] {
        for device_side in [false, true] {
            let mut spec = ScalingSpec::baseline();
            for obj in &profile.scaling_order {
                if obj.original == target {
                    continue;
                }
                spec = spec.with_target(&obj.label, target);
                if obj.written {
                    let choice = if device_side {
                        PlanChoice {
                            intermediate: obj.original,
                            host_method: HostMethod::Loop,
                        }
                    } else {
                        PlanChoice::host_direct(Direction::HtoD, obj.original, target, threads)
                    };
                    spec = spec.with_write_plan(&obj.label, choice);
                }
                if obj.read_back {
                    let choice = if device_side {
                        PlanChoice {
                            intermediate: obj.original,
                            host_method: HostMethod::Loop,
                        }
                    } else {
                        PlanChoice::host_direct(Direction::DtoH, target, obj.original, threads)
                    };
                    spec = spec.with_read_plan(&obj.label, choice);
                }
            }
            candidates.push(spec);
        }
    }

    engine.prefetch(&candidates);
    for spec in candidates {
        let (eval, charged) = engine.trial(&spec);
        trials += usize::from(charged);
        let Some(eval) = eval else {
            continue; // unrunnable uniform config: pruned
        };
        if eval.quality >= toq && eval.time < best.eval.time {
            best = TechniqueOutcome {
                config: spec,
                eval,
                trials: 0,
            };
        }
    }
    best.trials = trials;
    best
}

// ---------------------------------------------------------------------------
// In-Kernel
// ---------------------------------------------------------------------------

/// In-Kernel scaling: type conversions are inserted *inside* kernels while
/// memory objects and transfers stay at full precision. All per-object
/// compute-precision assignments are tested exhaustively (the paper's
/// "to ensure fair performance gain, we test all possible configurations"),
/// with monotone pruning: once an assignment fails TOQ, every strictly
/// lower-precision refinement of it is skipped, and `max_trials` caps
/// pathological cases. An assignment that cannot run is skipped.
#[must_use]
pub fn in_kernel(engine: &TrialEngine, toq: f64, max_trials: usize) -> TechniqueOutcome {
    let profile = engine.profile();
    // Which kernels bind which objects, by parameter name.
    let mut kernel_params: HashMap<String, Vec<(String, String)>> = HashMap::new();
    for e in &profile.log.events {
        if let Event::KernelLaunch { kernel, args, .. } = e {
            kernel_params
                .entry(kernel.clone())
                .or_insert_with(|| args.clone());
        }
    }
    let labels: Vec<String> = profile
        .scaling_order
        .iter()
        .map(|o| o.label.clone())
        .collect();

    // Enumerate assignments label → precision, most precise first.
    let choices = [Precision::Double, Precision::Single, Precision::Half];
    let total = 3usize.pow(labels.len() as u32);
    let mut failed: Vec<Vec<u8>> = Vec::new();
    let mut best = TechniqueOutcome {
        config: ScalingSpec::baseline(),
        eval: baseline_eval(profile),
        trials: 0,
    };
    let mut trials = 0usize;

    'outer: for idx in 1..total {
        if trials >= max_trials {
            break;
        }
        // Decode base-3 digits: 0 = double, 1 = single, 2 = half.
        let mut digits = vec![0u8; labels.len()];
        let mut v = idx;
        for d in &mut digits {
            *d = (v % 3) as u8;
            v /= 3;
        }
        // Monotone pruning: skip refinements of known failures.
        for f in &failed {
            if digits.iter().zip(f).all(|(d, fd)| d >= fd) {
                continue 'outer;
            }
        }

        let mut spec = ScalingSpec::baseline();
        for (kernel, params) in &kernel_params {
            let mut map = BTreeMap::new();
            for (param, label) in params {
                // A kernel argument bound to an object the profiler never
                // saw: leave that parameter at full precision.
                let Some(li) = labels.iter().position(|l| l == label) else {
                    continue;
                };
                let p = choices[digits[li] as usize];
                if p != Precision::Double {
                    map.insert(param.clone(), p);
                }
            }
            if !map.is_empty() {
                spec.in_kernel.insert(kernel.clone(), map);
            }
        }
        if spec.in_kernel.is_empty() {
            continue;
        }
        let (eval, charged) = engine.trial(&spec);
        trials += usize::from(charged);
        let Some(eval) = eval else {
            continue; // unrunnable assignment: skipped, not generalized
        };
        if eval.quality < toq {
            failed.push(digits);
            continue;
        }
        if eval.time < best.eval.time {
            best = TechniqueOutcome {
                config: spec,
                eval,
                trials: 0,
            };
        }
    }
    best.trials = trials;
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::profile_app;
    use prescaler_polybench::{BenchKind, InputSet, PolyApp};
    use prescaler_sim::SystemModel;

    fn setup(kind: BenchKind, scale: f64) -> (SystemModel, PolyApp, AppProfile) {
        let system = SystemModel::system1();
        let app = PolyApp::scaled(kind, InputSet::Default, scale);
        let profile = profile_app(&app, &system).unwrap();
        (system, app, profile)
    }

    #[test]
    fn pfp_improves_over_baseline_when_single_is_safe() {
        let (system, app, profile) = setup(BenchKind::Gemm, 0.4);
        let engine = TrialEngine::new(&app, &system, &profile);
        let out = pfp(&engine, 0.9);
        assert!(out.eval.quality >= 0.9);
        assert!(
            out.eval.time < profile.baseline_time,
            "PFP must beat baseline here"
        );
        assert!(out.trials >= 2 && out.trials <= 4, "{}", out.trials);
        // Uniform: all scaled objects share one precision.
        let types: std::collections::HashSet<_> = out.config.object_targets.values().collect();
        assert!(types.len() <= 1);
    }

    #[test]
    fn in_kernel_finds_a_valid_config_with_few_trials() {
        let (system, app, profile) = setup(BenchKind::Gemm, 0.05);
        let engine = TrialEngine::new(&app, &system, &profile);
        let out = in_kernel(&engine, 0.9, 100);
        assert!(out.eval.quality >= 0.9);
        assert!(out.trials >= 1);
        // Buffers stay full precision: in-kernel scaling never retargets
        // memory objects.
        assert!(out.config.object_targets.is_empty());
    }

    #[test]
    fn in_kernel_cannot_help_data_bound_apps() {
        // For a transfer-dominated app the in-kernel technique cannot
        // shrink transfers, so its gains are capped by the small kernel
        // fraction (the paper's §5.2 observation).
        let (system, app, profile) = setup(BenchKind::Atax, 0.4);
        let engine = TrialEngine::new(&app, &system, &profile);
        let ik = in_kernel(&engine, 0.9, 100);
        let speedup = profile.baseline_time / ik.eval.time;
        assert!(
            speedup < 1.10,
            "In-Kernel speedup {speedup} on ATAX should be marginal"
        );
        assert!(ik.eval.quality >= 0.9);
    }

    #[test]
    fn trial_cap_is_respected() {
        let (system, app, profile) = setup(BenchKind::ThreeMM, 0.03);
        let engine = TrialEngine::new(&app, &system, &profile);
        let out = in_kernel(&engine, 0.9, 5);
        assert!(out.trials <= 5);
    }

    #[test]
    fn techniques_share_one_engine_without_extra_executions() {
        // Running PFP twice over one engine answers the second pass
        // entirely from the memo cache.
        let (system, app, profile) = setup(BenchKind::Gemm, 0.05);
        let engine = TrialEngine::new(&app, &system, &profile);
        let first = pfp(&engine, 0.9);
        let executions = engine.stats().executions;
        let second = pfp(&engine, 0.9);
        assert_eq!(engine.stats().executions, executions, "no re-execution");
        assert_eq!(second.trials, 0, "second pass charges nothing");
        assert_eq!(first.config, second.config);
        assert_eq!(first.eval.time, second.eval.time);
    }
}
