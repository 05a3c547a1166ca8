//! Host data path fault isolation: a `PolyApp` generates each input once
//! and shares it across runs, so buffer corruption must land on the
//! device copy a transfer makes and never on the cached host input.
//!
//! Each app runs under `FaultPlan::with_buffer_corruption(1.0)` — every
//! transfer poisoned — and then clean on the same instance. The clean run
//! must equal a fresh instance's clean run bit for bit: outputs,
//! `Timeline` and the `WriteStats` recorded at each write. The CI fault
//! matrix re-runs this suite under several values of
//! `PRESCALER_FAULT_SEED`, which moves the poisoned element.

use prescaler_ir::{FloatVec, Precision};
use prescaler_ocl::{run_app, Outputs, ProfileLog, ScalingSpec};
use prescaler_polybench::{BenchKind, PolyApp};
use prescaler_sim::{FaultPlan, SystemModel};

fn matrix_seed() -> u64 {
    std::env::var("PRESCALER_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn bits(data: &FloatVec) -> Vec<u64> {
    data.iter_f64().map(f64::to_bits).collect()
}

fn assert_same_run(tag: &str, a: &(Outputs, ProfileLog), b: &(Outputs, ProfileLog)) {
    assert_eq!(a.0.len(), b.0.len(), "{tag}: output count");
    for ((name, x), (_, y)) in a.0.iter().zip(&b.0) {
        assert_eq!(bits(x), bits(y), "{tag}: output {name}");
    }
    assert_eq!(a.1.timeline, b.1.timeline, "{tag}: timeline");
    let stats = |log: &ProfileLog| -> Vec<_> {
        log.objects
            .iter()
            .map(|o| (o.label.clone(), o.host_written))
            .collect()
    };
    assert_eq!(stats(&a.1), stats(&b.1), "{tag}: write stats");
}

#[test]
fn corruption_hits_the_device_copy_never_the_cached_input() {
    let clean = SystemModel::system1();
    let poisoned = clean
        .clone()
        .with_faults(FaultPlan::seeded(0x5EED ^ matrix_seed()).with_buffer_corruption(1.0));
    for kind in BenchKind::ALL {
        let shared = PolyApp::tiny(kind);
        let baseline = ScalingSpec::baseline();
        let labels: Vec<String> = run_app(&shared, &clean, &baseline)
            .unwrap()
            .1
            .objects
            .into_iter()
            .map(|o| o.label)
            .collect();
        // Direct and host-scaled transfers both make the device copy the
        // poison lands on.
        let half = labels.iter().fold(ScalingSpec::baseline(), |spec, label| {
            spec.with_target(label, Precision::Half)
        });
        for spec in [&baseline, &half] {
            let (faulty, _) = run_app(&shared, &poisoned, spec).unwrap();
            let after = run_app(&shared, &clean, spec).unwrap();
            let fresh = run_app(&PolyApp::tiny(kind), &clean, spec).unwrap();
            assert_same_run(&format!("{kind}"), &after, &fresh);
            assert_ne!(faulty, after.0, "{kind}: the corruption never fired");
        }
    }
}
