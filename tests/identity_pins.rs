//! Byte-stability pins for every deterministic identity the reproduction
//! checks its equivalences with: hardware fingerprints, app identities,
//! generated inputs, trial-engine context fingerprints and spec
//! fingerprints (as fault-fork salts), decision digests, arrival traces,
//! retry jitter, and the serving front-end's spec and output digests.
//!
//! Each value is recorded as a literal. A refactor of the hashing or
//! stream code must leave every one of them unchanged: a journal, a
//! persisted snapshot or a recorded benchmark digest written before the
//! refactor must still match after it.

use prescaler_core::baselines::in_kernel;
use prescaler_core::{profile_app, Evaluation, PreScaler, SystemInspector, TrialEngine, Tuned};
use prescaler_guard::{Guard, GuardPolicy};
use prescaler_ir::Precision;
use prescaler_ocl::{run_app, HostApp, PlanChoice, RetryPolicy, ScalingSpec};
use prescaler_polybench::{BenchKind, Dims, InputSet, PolyApp};
use prescaler_serve::{output_digest, spec_digest, ArrivalTrace, ServeConfig, Server};
use prescaler_sim::{FaultPlan, HostMethod, SimTime, SystemModel};

/// FNV-1a over the little-endian bytes of each word — kept local so the
/// pins do not depend on the hasher they guard.
fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

fn check(what: &str, got: u64, want: u64) -> bool {
    if got == want {
        true
    } else {
        eprintln!("{what}: got {got:#018x}, pinned {want:#018x}");
        false
    }
}

#[test]
fn system_fingerprints_are_pinned() {
    let ok = [
        check(
            "system1",
            SystemModel::system1().fingerprint(),
            0x0aeb_4f59_dea6_9c41,
        ),
        check(
            "system2",
            SystemModel::system2().fingerprint(),
            0xf2c4_14bb_f740_3a07,
        ),
        check(
            "system3",
            SystemModel::system3().fingerprint(),
            0x7e4b_7f25_cf1b_ba48,
        ),
    ];
    assert!(ok.iter().all(|&b| b), "a system fingerprint moved");
}

#[test]
fn app_identities_are_pinned() {
    let tiny = PolyApp::tiny(BenchKind::Gemm);
    let other = PolyApp::new(
        BenchKind::Gemm,
        Dims {
            ni: 5,
            nj: 6,
            nk: 7,
            tmax: 2,
        },
        InputSet::Image,
        0xC60_2020,
    )
    .with_input_gain(1.5);
    let ok = [
        check("tiny gemm", tiny.identity(), 0x4864_ba74_c5e0_c878),
        check("other gemm", other.identity(), 0x6ad5_b2d3_7f1f_b2f9),
    ];
    assert!(ok.iter().all(|&b| b), "an app identity moved");
}

#[test]
fn generated_inputs_and_baseline_outputs_are_pinned() {
    let system = SystemModel::system1();
    let mut words = Vec::new();
    for kind in BenchKind::ALL {
        for input in InputSet::ALL {
            let app = PolyApp::tiny(kind).with_input(input);
            let (outputs, _) = run_app(&app, &system, &ScalingSpec::baseline()).unwrap();
            for (_, data) in &outputs {
                words.extend(data.iter_f64().map(f64::to_bits));
            }
        }
    }
    assert!(check(
        "baseline outputs",
        fold(words),
        0xf5bb_368b_e352_3c0b
    ));
}

/// A spec with every map populated: each object stored at half with a
/// pipelined write plan and a looped read plan, and every kernel computing
/// at single in-kernel.
fn full_spec(app: &PolyApp, labels: &[String]) -> ScalingSpec {
    let plan = |intermediate, host_method| PlanChoice {
        intermediate,
        host_method,
    };
    let mut spec = ScalingSpec::baseline();
    for label in labels {
        spec = spec
            .with_target(label, Precision::Half)
            .with_write_plan(
                label,
                plan(
                    Precision::Single,
                    HostMethod::Pipelined {
                        threads: 4,
                        chunks: 2,
                    },
                ),
            )
            .with_read_plan(label, plan(Precision::Half, HostMethod::Loop));
    }
    for kernel in &app.program().kernels {
        let casts = kernel
            .buffer_names()
            .iter()
            .map(|b| ((*b).to_owned(), Precision::Single))
            .collect();
        spec.in_kernel.insert(kernel.name.clone(), casts);
    }
    spec
}

fn eval_words(eval: Option<Evaluation>) -> [u64; 3] {
    eval.map_or([u64::MAX; 3], |e| {
        [
            e.time.as_secs().to_bits(),
            e.kernel_time.as_secs().to_bits(),
            e.quality.to_bits(),
        ]
    })
}

/// Tunes `app` with the sequential engine and returns the tuned result
/// plus one fold over the engine's context fingerprint, the decision
/// digest, the in-kernel baseline's chosen spec and evaluation, and a
/// trial of [`full_spec`] (whose spec fingerprint salts its fault fork).
fn tune(app: &PolyApp, system: &SystemModel) -> (Tuned, u64) {
    let db = SystemInspector::inspect(system);
    let profile = profile_app(app, system).expect("baseline profiling");
    let labels: Vec<String> = profile
        .log
        .objects
        .iter()
        .map(|o| o.label.clone())
        .collect();
    let engine = TrialEngine::with_speculation(app, system, &profile, false);
    let tuned = PreScaler::new(system, &db, 0.9).tune_with_engine(&engine);
    let ik = in_kernel(&engine, 0.9, 40);
    let full = full_spec(app, &labels);
    let mut words = vec![
        engine.context_fingerprint(),
        tuned.decision_digest(),
        spec_digest(&ik.config),
        spec_digest(&full),
    ];
    words.extend(eval_words(Some(ik.eval)));
    words.extend(eval_words(engine.trial(&full).0));
    let mut full_tuned = tuned.clone();
    full_tuned.config = full;
    words.push(full_tuned.decision_digest());
    (tuned, fold(words))
}

fn engine_digest(system: &SystemModel) -> u64 {
    fold(
        [BenchKind::Gemm, BenchKind::Atax, BenchKind::Corr]
            .into_iter()
            .map(|kind| tune(&PolyApp::tiny(kind), system).1),
    )
}

#[test]
fn engine_fingerprints_and_decisions_are_pinned() {
    let clean = SystemModel::system1();
    let faulty = clean.clone().with_faults(
        FaultPlan::seeded(0x51DE)
            .with_transfer_failures(0.2)
            .with_clock_noise(0.05),
    );
    let ok = [
        check("clean engine", engine_digest(&clean), 0x4ecd_5625_8fd4_4288),
        check(
            "faulty engine",
            engine_digest(&faulty),
            0xa248_b70d_45f0_bcbf,
        ),
    ];
    assert!(ok.iter().all(|&b| b), "an engine identity moved");
}

#[test]
fn arrivals_and_retry_jitter_are_pinned() {
    let faults = FaultPlan::seeded(3).with_overload_burst(0.3, 2);
    let trace = ArrivalTrace::generate(11, 24, SimTime::from_micros(50.0), &faults);
    let arrivals = fold(trace.requests.iter().flat_map(|r| {
        [
            r.id,
            r.arrival.as_secs().to_bits(),
            u64::from(r.burst_extra),
        ]
    }));
    let policy = RetryPolicy::default().with_jitter_salt(0xBEEF);
    let backoff = fold((1..=4).map(|a| policy.backoff_for(a).as_secs().to_bits()));
    let ok = [
        check("arrivals", arrivals, 0x631b_3b33_1c52_0f6c),
        check("backoff", backoff, 0x742e_6d01_a5ff_2811),
    ];
    assert!(ok.iter().all(|&b| b), "a stream moved");
}

#[test]
fn served_request_digests_are_pinned() {
    let system = SystemModel::system1();
    let app = PolyApp::tiny(BenchKind::Corr);
    let (tuned, _) = tune(&app, &system);
    let guard = Guard::new(&app, &system, tuned.config, GuardPolicy::with_toq(0.9)).unwrap();
    let server = Server::new(guard, ServeConfig::default());
    let trace = ArrivalTrace::generate(5, 3, SimTime::from_secs(0.01), &FaultPlan::none());
    let run = server.serve(&trace, |gain| {
        PolyApp::tiny(BenchKind::Corr).with_input_gain(gain)
    });
    let served = run.outcomes[0]
        .result
        .as_ref()
        .expect("first request served");
    let (outputs, _) = run_app(&app, &system, &ScalingSpec::baseline()).unwrap();
    let ok = [
        check("spec digest", served.spec_digest, 0x456b_72d9_fc9d_42e3),
        check("output digest", served.output_digest, 0xbdec_ae5d_79a3_ef06),
        check(
            "outcome digest",
            run.report.outcome_digest,
            0xf23c_c41e_dccf_3611,
        ),
        check(
            "baseline output digest",
            output_digest(&outputs),
            0x4627_76ec_a065_9c8a,
        ),
    ];
    assert!(ok.iter().all(|&b| b), "a serving digest moved");
}
