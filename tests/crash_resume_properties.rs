//! Crash-resume property suite: a durable tune killed at **every** trial
//! boundary — under every tear mode a dying `write(2)` can leave behind —
//! must resume from its journal to a `Tuned` bit-identical to the
//! uninterrupted run, re-charging zero completed trials.
//!
//! The CI fault matrix re-runs this suite under several values of
//! `PRESCALER_FAULT_SEED`, so the recovery guarantee is pinned per fault
//! universe, not just on the clean path.

use prescaler_core::recovery::{tune_durable, tune_durable_with_crash, DurableReport};
use prescaler_core::{PreScaler, SystemInspector, TuneError, Tuned};
use prescaler_faults::{CrashPoint, TearMode};
use prescaler_ocl::HostApp;
use prescaler_persist::PersistError;
use prescaler_polybench::{BenchKind, InputSet, PolyApp};
use prescaler_sim::{FaultPlan, SystemModel};
use std::path::PathBuf;

/// Matrix seed from the environment, mixed into every plan seed so the
/// CI fault matrix explores distinct universes per row.
fn matrix_seed() -> u64 {
    std::env::var("PRESCALER_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn mixed(seed: u64) -> u64 {
    seed ^ matrix_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "prescaler_crash_resume_{}_{}",
        std::process::id(),
        matrix_seed()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.wal"))
}

/// Every observable field of [`Tuned`] must match to the bit.
fn assert_bit_identical(tag: &str, a: &Tuned, b: &Tuned) {
    assert_eq!(a.config, b.config, "{tag}: chosen config diverged");
    assert_eq!(
        a.eval.time.as_secs().to_bits(),
        b.eval.time.as_secs().to_bits(),
        "{tag}: eval time diverged"
    );
    assert_eq!(
        a.eval.kernel_time.as_secs().to_bits(),
        b.eval.kernel_time.as_secs().to_bits(),
        "{tag}: kernel time diverged"
    );
    assert_eq!(
        a.eval.quality.to_bits(),
        b.eval.quality.to_bits(),
        "{tag}: quality diverged"
    );
    assert_eq!(
        a.baseline_time.as_secs().to_bits(),
        b.baseline_time.as_secs().to_bits(),
        "{tag}: baseline diverged"
    );
    assert_eq!(a.trials, b.trials, "{tag}: charged-trial count diverged");
    assert_eq!(a.cache_hits, b.cache_hits, "{tag}: cache hits diverged");
}

/// The tear a crash at boundary `k` injects — cycling through all three
/// modes, with tear sizes covering 1..=36 (strictly inside one record).
fn tear_for(k: u64) -> TearMode {
    let bytes = 1 + (k % 36) as u32;
    match k % 3 {
        0 => TearMode::Clean,
        1 => TearMode::Truncate { bytes },
        _ => TearMode::Garbage { bytes },
    }
}

struct Case {
    kind: BenchKind,
    plan: FaultPlan,
    toq: f64,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            kind: BenchKind::Gemm,
            plan: FaultPlan::none(),
            toq: 0.9,
        },
        Case {
            kind: BenchKind::Atax,
            plan: FaultPlan::seeded(mixed(7))
                .with_transfer_failures(0.05)
                .with_clock_noise(0.2),
            toq: 0.9,
        },
        Case {
            kind: BenchKind::Bicg,
            plan: FaultPlan::seeded(mixed(23))
                .with_launch_failures(0.04)
                .with_buffer_corruption(0.02),
            toq: 0.95,
        },
        Case {
            kind: BenchKind::Mvt,
            plan: FaultPlan::seeded(mixed(41)).with_clock_noise(0.35),
            toq: 0.9,
        },
    ]
}

/// Interrupt one case's tune at every trial boundary and resume each
/// time, returning how many kill-and-resume cycles were exercised.
fn drill_case(idx: usize, case: &Case) -> u64 {
    let system = SystemModel::system1().with_faults(case.plan.clone());
    let db = SystemInspector::inspect(&system);
    let tuner = PreScaler::new(&system, &db, case.toq);
    let app = PolyApp::tiny(case.kind);
    let tag = format!("case{idx}_{}", app.name());

    // Uninterrupted reference run (its own journal, never killed).
    let ref_path = temp_journal(&format!("{tag}_ref"));
    std::fs::remove_file(&ref_path).ok();
    let reference = tune_durable(&tuner, &app, &ref_path).expect("reference tune");
    let executions = reference.stats.executions as u64;
    assert!(executions >= 3, "{tag}: too few executions to drill");

    for boundary in 1..=executions {
        let path = temp_journal(&format!("{tag}_b{boundary}"));
        std::fs::remove_file(&path).ok();
        let crash = CrashPoint::at(boundary).with_tear(tear_for(boundary));
        let killed =
            tune_durable_with_crash(&tuner, &app, &path, Some(crash)).expect("journal opens fresh");
        assert!(
            killed.is_none(),
            "{tag}: boundary {boundary} <= {executions} must kill the run"
        );

        let resumed: DurableReport = tune_durable(&tuner, &app, &path).expect("resume after crash");
        assert_bit_identical(
            &format!("{tag} boundary {boundary}"),
            &reference.tuned,
            &resumed.tuned,
        );
        // Zero completed trials re-charged: every replayed record is
        // answered from the cache, so the resumed run re-executes only
        // what the (possibly torn) journal had not made durable.
        assert_eq!(
            resumed.stats.executions as u64 + resumed.replayed as u64,
            executions,
            "{tag}: boundary {boundary} re-executed a journaled trial"
        );
        match tear_for(boundary) {
            // An intact journal holds exactly `boundary` records.
            TearMode::Clean => assert_eq!(
                resumed.replayed as u64, boundary,
                "{tag}: boundary {boundary} replay count"
            ),
            // A torn tail loses exactly the final record; garbage after
            // a clean record loses nothing (the scan drops the junk).
            TearMode::Truncate { .. } => assert_eq!(
                resumed.replayed as u64,
                boundary - 1,
                "{tag}: boundary {boundary} torn replay count"
            ),
            TearMode::Garbage { .. } => {
                assert_eq!(
                    resumed.replayed as u64, boundary,
                    "{tag}: boundary {boundary} garbage replay count"
                );
                assert!(
                    resumed.recovery.repaired(),
                    "{tag}: garbage tail must be repaired"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    // A boundary past the last execution never fires: the run completes
    // with the crash still armed and matches the reference.
    let path = temp_journal(&format!("{tag}_past"));
    std::fs::remove_file(&path).ok();
    let crash = CrashPoint::at(executions + 5);
    let report = tune_durable_with_crash(&tuner, &app, &path, Some(crash))
        .expect("journal opens fresh")
        .expect("crash past the end never fires");
    assert_bit_identical(&format!("{tag} past-end"), &reference.tuned, &report.tuned);

    std::fs::remove_file(&ref_path).ok();
    std::fs::remove_file(&path).ok();
    executions
}

#[test]
fn every_trial_boundary_resumes_bit_identically() {
    let mut drills = 0;
    for (idx, case) in cases().iter().enumerate() {
        drills += drill_case(idx, case);
    }
    assert!(
        drills >= 25,
        "expected a substantive boundary sweep per seed, got {drills}"
    );
}

/// Seeded crash points (the ci.sh smoke path) must also resume cleanly:
/// a batch of seeds derived from the matrix seed, each killing one tune
/// at a seeded boundary with a seeded tear.
#[test]
fn seeded_crash_points_resume_bit_identically() {
    let system = SystemModel::system1();
    let db = SystemInspector::inspect(&system);
    let tuner = PreScaler::new(&system, &db, 0.9);
    let app = PolyApp::tiny(BenchKind::Gemm);

    let ref_path = temp_journal("seeded_ref");
    std::fs::remove_file(&ref_path).ok();
    let reference = tune_durable(&tuner, &app, &ref_path).expect("reference tune");
    let executions = reference.stats.executions as u64;

    for s in 0..12u64 {
        let path = temp_journal(&format!("seeded_{s}"));
        std::fs::remove_file(&path).ok();
        let crash = CrashPoint::seeded(mixed(s), executions);
        let killed =
            tune_durable_with_crash(&tuner, &app, &path, Some(crash)).expect("journal opens fresh");
        assert!(killed.is_none(), "seeded boundary lands within the run");
        let resumed = tune_durable(&tuner, &app, &path).expect("resume");
        assert_bit_identical(&format!("seed {s}"), &reference.tuned, &resumed.tuned);
        assert_eq!(
            resumed.stats.executions as u64 + resumed.replayed as u64,
            executions,
            "seed {s}: a journaled trial was re-executed"
        );
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&ref_path).ok();
}

/// A journal is bound to the app's full configuration, not its name: a
/// GEMM journal at other dims, inputs or gain is a foreign context and
/// must be refused, never replayed into the tune.
#[test]
fn same_name_other_configuration_is_a_foreign_journal() {
    let system = SystemModel::system1();
    let db = SystemInspector::inspect(&system);
    let tuner = PreScaler::new(&system, &db, 0.9);
    let recorded = PolyApp::scaled(BenchKind::Gemm, InputSet::Random, 0.02);
    let others = [
        PolyApp::scaled(BenchKind::Gemm, InputSet::Default, 0.08),
        PolyApp::scaled(BenchKind::Gemm, InputSet::Random, 0.08),
        PolyApp::scaled(BenchKind::Gemm, InputSet::Default, 0.02),
        recorded.clone().with_input_gain(4.0),
    ];
    for (i, other) in others.iter().enumerate() {
        assert_eq!(other.name(), recorded.name());
        let path = temp_journal(&format!("identity_{i}"));
        std::fs::remove_file(&path).ok();
        tune_durable(&tuner, &recorded, &path).expect("recording tune");
        match tune_durable(&tuner, other, &path) {
            Err(TuneError::Persist(PersistError::ContextMismatch { .. })) => {}
            Err(e) => panic!("case {i}: expected a context mismatch, got {e}"),
            Ok(r) => panic!(
                "case {i}: replayed {} records of a foreign configuration",
                r.replayed
            ),
        }
        // The recorded configuration itself still resumes.
        let resumed = tune_durable(&tuner, &recorded, &path).expect("same context resumes");
        assert!(resumed.replayed > 0, "case {i}: nothing replayed");
        std::fs::remove_file(&path).ok();
    }
}
