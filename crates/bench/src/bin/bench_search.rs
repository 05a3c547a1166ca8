//! Decision-search micro-benchmark with trial-engine accounting.
//!
//! Times the full tune pipeline on the same small GEMM the criterion
//! `decision_search` bench uses, reports the trial engine's charged
//! trials and cache hit-rate for one tune, and writes everything to
//! `BENCH_search.json` next to the repo root. The pre-trial-engine
//! number is carried along as `before_us_other_host`: it was measured on
//! a different machine, so it is history, not a baseline for `after_us`,
//! and no speedup is derived from it.
//!
//! Usage: `cargo run --release -p prescaler-bench --bin bench_search
//! [iterations]` (default 5; wall-time is the minimum over iterations,
//! the right statistic on a noisy shared host).

use prescaler_core::{profile_app, PreScaler, SystemInspector, TrialEngine};
use prescaler_polybench::{BenchKind, InputSet, PolyApp};
use prescaler_sim::SystemModel;
use std::time::Instant;

/// `search/tune_gemm_small` us/iter recorded by criterion at the commit
/// before the trial engine + VM fast path landed (sample_size 10), on a
/// different host than any later run: not comparable with `after_us`.
const BEFORE_US_OTHER_HOST: f64 = 1_096_957.863;

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    let system = SystemModel::system1();
    let db = SystemInspector::inspect(&system);
    let app = PolyApp::scaled(BenchKind::Gemm, InputSet::Default, 0.08);
    let tuner = PreScaler::new(&system, &db, 0.9);

    // Warm-up run (page in code, fill allocator pools).
    let warm = tuner.tune(&app).expect("tune");

    let mut runs_us = Vec::with_capacity(iters);
    for i in 0..iters {
        let t0 = Instant::now();
        let tuned = tuner.tune(&app).expect("tune");
        let us = t0.elapsed().as_secs_f64() * 1e6;
        assert_eq!(tuned.config, warm.config, "tune must be deterministic");
        println!(
            "run {}: {us:.3} us  (trials {}, cache hits {})",
            i + 1,
            tuned.trials,
            tuned.cache_hits
        );
        runs_us.push(us);
    }
    let after_us = runs_us.iter().copied().fold(f64::INFINITY, f64::min);

    // Engine accounting for a single tune, measured directly on a fresh
    // engine so the stats are not conflated with the timing loop.
    let profile = profile_app(&app, &system).expect("profile");
    let engine = TrialEngine::new(&app, &system, &profile);
    let tuned = tuner.tune_with_engine(&engine);
    let stats = engine.stats();
    let asks = stats.charged + stats.cache_hits;
    let hit_rate = if asks == 0 {
        0.0
    } else {
        stats.cache_hits as f64 / asks as f64
    };

    let runs_json = runs_us
        .iter()
        .map(|u| format!("{u:.3}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"benchmark\": \"search/tune_gemm_small\",\n  \"before_us_other_host\": {BEFORE_US_OTHER_HOST:.3},\n  \"after_us\": {after_us:.3},\n  \"runs_us\": [{runs_json}],\n  \"trials\": {},\n  \"cache_hits\": {},\n  \"cache_hit_rate\": {hit_rate:.4},\n  \"executions\": {}\n}}\n",
        tuned.trials,
        tuned.cache_hits,
        stats.executions,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_search.json");
    std::fs::write(&path, &json).expect("write BENCH_search.json");

    println!();
    println!("tune_gemm_small: {after_us:.3} us (min of {iters})");
    println!(
        "one tune: {} charged trials, {} cache hits ({:.1}% hit rate), {} kernel executions",
        tuned.trials,
        tuned.cache_hits,
        hit_rate * 100.0,
        stats.executions
    );
    println!("wrote {}", path.display());
}
