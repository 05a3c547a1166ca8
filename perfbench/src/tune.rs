//! The two tuning workloads: `tune_compute` (cold, non-durable tunes of
//! O(n³) apps) and `tune_data_durable` (journal-backed tunes of O(n²)
//! apps, each followed by a resume from its finished journal).

use crate::layers::{self, ProbeInputs};
use crate::report::{geomean, median, ms_since, quantile, record_op_percentiles, Report};
use crate::spans::Tracer;
use crate::{journal_dir, timed_setup, Args};
use prescaler_core::{
    profile_app, InspectorDb, PreScaler, SystemInspector, TrialEngine, TrialStats, Tuned,
};
use prescaler_ocl::{run_app, HostApp, ScalingSpec};
use prescaler_persist::TrialJournal;
use prescaler_polybench::{BenchKind, InputSet, PolyApp};
use prescaler_sim::SystemModel;
use std::path::Path;
use std::time::Instant;

/// Target output quality of every tune (the paper's default).
pub const TOQ: f64 = 0.9;

const COMPUTE_APPS: [BenchKind; 7] = [
    BenchKind::Gemm,
    BenchKind::TwoMM,
    BenchKind::ThreeMM,
    BenchKind::Syrk,
    BenchKind::Syr2k,
    BenchKind::Corr,
    BenchKind::Covar,
];
const COMPUTE_SCALE: f64 = 0.08;

const DATA_APPS: [BenchKind; 4] = [
    BenchKind::Atax,
    BenchKind::Bicg,
    BenchKind::Gesummv,
    BenchKind::Mvt,
];
const DATA_SCALE: f64 = 0.5;

/// Element count of the data apps' largest memory object (an `n × n`
/// matrix), the array size of the conversion probe on every workload.
pub fn data_apps_largest_object() -> usize {
    DATA_APPS
        .iter()
        .map(|k| {
            let d = k.dims(DATA_SCALE);
            d.ni * d.nj
        })
        .max()
        .expect("non-empty app list")
}

struct Setup {
    system: SystemModel,
    db: InspectorDb,
    apps: Vec<PolyApp>,
}

/// Inspector DB, apps and their inputs, and one full-precision warm-up
/// run of every app.
fn setup(kinds: &[BenchKind], scale: f64, seed: u64) -> Result<Setup, String> {
    let system = SystemModel::system1();
    let db = SystemInspector::inspect(&system);
    let apps: Vec<PolyApp> = kinds
        .iter()
        .map(|&k| PolyApp::new(k, k.dims(scale), InputSet::Default, seed))
        .collect();
    for app in &apps {
        run_app(app, &system, &ScalingSpec::baseline())
            .map_err(|e| format!("warm-up run of {}: {e}", app.name()))?;
    }
    Ok(Setup { system, db, apps })
}

/// Work counters of one tune. They must repeat exactly between passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counts {
    digest: u64,
    stats: TrialStats,
}

/// Charged executions over all executions: the share of the engine's
/// work (speculation included) that the search used. Each engine charges
/// one trial it never executes, the seeded baseline, so `engines` is
/// subtracted from `charged`.
pub fn useful_share(s: &TrialStats, engines: usize) -> f64 {
    s.charged.saturating_sub(engines) as f64 / s.executions.max(1) as f64
}

pub fn pruned_share(s: &TrialStats) -> f64 {
    s.pruned_static as f64 / (s.pruned_static + s.charged).max(1) as f64
}

/// The decision of a tune made without speculation and without static
/// pruning — the reference every timed tune must reproduce.
fn reference_digest(tuner: &PreScaler, app: &PolyApp, system: &SystemModel) -> Result<u64, String> {
    let profile = profile_app(app, system).map_err(|e| format!("profile {}: {e}", app.name()))?;
    let engine = TrialEngine::with_speculation(app, system, &profile, false);
    Ok(tuner
        .without_static_prune()
        .tune_with_engine(&engine)
        .decision_digest())
}

fn references(rep: &mut Report, tuner: &PreScaler, s: &Setup) -> Vec<Option<u64>> {
    s.apps
        .iter()
        .map(|app| match reference_digest(tuner, app, &s.system) {
            Ok(d) => {
                rep.op(Vec::new());
                Some(d)
            }
            Err(e) => {
                rep.op(vec![e]);
                None
            }
        })
        .collect()
}

/// Checks one tune against TOQ, its baseline, the reference decision and
/// the first pass's counters.
fn check_tune(
    name: &str,
    tuned: &Tuned,
    counts: Counts,
    reference: Option<u64>,
    first: &mut Option<Counts>,
) -> Vec<String> {
    let mut f = Vec::new();
    if tuned.eval.quality < tuned.toq {
        f.push(format!(
            "{name}: quality {} below TOQ {}",
            tuned.eval.quality, tuned.toq
        ));
    }
    if tuned.eval.time > tuned.baseline_time {
        f.push(format!(
            "{name}: tuned configuration slower than its baseline"
        ));
    }
    if reference != Some(counts.digest) {
        f.push(format!(
            "{name}: decision differs from the sequential unpruned reference"
        ));
    }
    match first {
        Some(c) if *c != counts => f.push(format!(
            "{name}: counters {counts:?} differ from first pass {c:?}"
        )),
        Some(_) => {}
        None => *first = Some(counts),
    }
    f
}

/// One cold tune: profile, engine, search (what `PreScaler::tune` does),
/// with the engine kept so its counters can be read.
fn tune_once(
    tr: &Tracer,
    tuner: &PreScaler,
    app: &PolyApp,
    system: &SystemModel,
) -> Result<(Tuned, TrialStats), String> {
    tr.span("bench.tune", || {
        let profile = tr
            .span("profiler.profile_app", || profile_app(app, system))
            .map_err(|e| format!("profile {}: {e}", app.name()))?;
        let engine = TrialEngine::new(app, system, &profile);
        let tuned = tr.span("engine.search", || tuner.tune_with_engine(&engine));
        Ok((tuned, engine.stats()))
    })
}

/// Per-app results carried across passes: the first pass's counters
/// (which every later pass must repeat) and the latest tune.
struct PassState {
    firsts: Vec<Option<Counts>>,
    last: Vec<Option<Tuned>>,
}

impl PassState {
    fn new(apps: usize) -> PassState {
        PassState {
            firsts: vec![None; apps],
            last: vec![None; apps],
        }
    }

    /// Records the per-pass sums of every app's counters and the paper's
    /// figures of merit; returns the latest tunes.
    fn record(&self, rep: &mut Report) -> Vec<Tuned> {
        let mut sum = TrialStats::default();
        for c in self.firsts.iter().flatten() {
            sum.charged += c.stats.charged;
            sum.cache_hits += c.stats.cache_hits;
            sum.executions += c.stats.executions;
            sum.pruned_static += c.stats.pruned_static;
        }
        rep.value("charged_trials", sum.charged as f64, "count");
        rep.value("engine.charged", sum.charged as f64, "count");
        rep.value("engine.cache_hits", sum.cache_hits as f64, "count");
        rep.value("engine.executions", sum.executions as f64, "count");
        rep.value(
            "engine.useful_share",
            useful_share(&sum, self.firsts.len()),
            "share",
        );
        rep.value("static_prune.pruned", sum.pruned_static as f64, "count");
        rep.value("static_prune.pruned_share", pruned_share(&sum), "share");
        let tuned: Vec<Tuned> = self.last.iter().flatten().cloned().collect();
        let speedups: Vec<f64> = tuned.iter().map(Tuned::speedup).collect();
        rep.value("speedup_geomean", geomean(&speedups), "x");
        tuned
    }
}

/// Records the tune-time percentiles over the fixed app mix (every pass
/// tunes each app once), each app's median, and the throughput.
/// `op_ms.*` are left to the caller, which chooses the series they cover.
fn record_timing(rep: &mut Report, apps: &[PolyApp], op_ms: &[Vec<f64>], wall_s: f64) {
    for (app, ms) in apps.iter().zip(op_ms) {
        rep.value(format!("tune_ms.{}.p50", app.name()), median(ms), "ms");
    }
    let all: Vec<f64> = op_ms.concat();
    rep.value("tune_ms.p50", median(&all), "ms");
    rep.value("tune_ms.p90", quantile(&all, 0.9), "ms");
    rep.value("tune_ms.samples", all.len() as f64, "count");
    rep.value("tunes_per_s", all.len() as f64 / wall_s, "1/s");
    rep.value("items_per_s", all.len() as f64 / wall_s, "1/s");
}

pub fn tune_compute(args: &Args, tr: &Tracer, rep: &mut Report) -> Result<(), String> {
    let s = timed_setup(rep, || setup(&COMPUTE_APPS, COMPUTE_SCALE, args.seed))?;
    let tuner = PreScaler::new(&s.system, &s.db, TOQ);
    let refs = references(rep, &tuner, &s);
    let mut st = PassState::new(s.apps.len());

    let pass = |tr: &Tracer, rep: &mut Report, st: &mut PassState, op_ms: &mut [Vec<f64>]| {
        for (i, app) in s.apps.iter().enumerate() {
            let t0 = Instant::now();
            let out = tune_once(tr, &tuner, app, &s.system);
            op_ms[i].push(ms_since(t0));
            match out {
                Ok((tuned, stats)) => {
                    let counts = Counts {
                        digest: tuned.decision_digest(),
                        stats,
                    };
                    rep.op(check_tune(
                        app.name(),
                        &tuned,
                        counts,
                        refs[i],
                        &mut st.firsts[i],
                    ));
                    st.last[i] = Some(tuned);
                }
                Err(e) => rep.op(vec![e]),
            }
        }
    };

    let off = Tracer::new(false);
    let (mut op_ms, mut pass_ms) = (vec![Vec::new(); s.apps.len()], Vec::new());
    let t_start = Instant::now();
    while pass_ms.is_empty() || t_start.elapsed().as_secs_f64() < args.seconds {
        let p0 = Instant::now();
        pass(&off, rep, &mut st, &mut op_ms);
        pass_ms.push(ms_since(p0));
    }
    let wall_s = t_start.elapsed().as_secs_f64();
    record_timing(rep, &s.apps, &op_ms, wall_s);
    record_op_percentiles(rep, &op_ms);
    let tuned = st.record(rep);
    layers::check_vm_parallel(&off, rep);

    if tr.on() {
        tr.span("bench.pass", || {
            pass(tr, rep, &mut st, &mut vec![Vec::new(); s.apps.len()]);
        });
        let dir = journal_dir()?;
        let spec = tuned
            .first()
            .map_or_else(ScalingSpec::baseline, |t| t.config.clone());
        layers::probe_all(
            tr,
            rep,
            &ProbeInputs {
                system: &s.system,
                db: &s.db,
                apps: &s.apps,
                spec: &spec,
                seed: args.seed,
                journal_dir: &dir,
            },
        );
        layers::record_trace(rep, tr, "bench.pass", &pass_ms);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
}

/// The outcome of one durable tune.
struct Durable {
    tuned: Tuned,
    stats: TrialStats,
    replayed: usize,
}

/// A durable tune: the public steps `tune_durable` takes (profile,
/// engine, journal open and replay, search), each in its own span. Only
/// `tune_durable`'s crash-drill panic hook and `catch_unwind` are left
/// out; no crash point is armed here, so they would never fire.
fn durable_once(
    tr: &Tracer,
    tuner: &PreScaler,
    app: &PolyApp,
    path: &Path,
) -> Result<Durable, String> {
    let name = app.name();
    let system = tuner.system();
    let profile = tr
        .span("profiler.profile_app", || profile_app(app, system))
        .map_err(|e| format!("profile {name}: {e}"))?;
    let mut engine = TrialEngine::new(app, system, &profile);
    let (journal, recovery) = tr
        .span("persist.open", || {
            TrialJournal::open(path, engine.context_fingerprint())
        })
        .map_err(|e| format!("open journal of {name}: {e}"))?;
    let replayed = tr.span("engine.replay", || {
        engine.attach_journal(journal, &recovery.records)
    });
    let tuned = tr.span("engine.search", || tuner.tune_with_engine(&engine));
    Ok(Durable {
        tuned,
        stats: engine.stats(),
        replayed,
    })
}

pub fn tune_data_durable(args: &Args, tr: &Tracer, rep: &mut Report) -> Result<(), String> {
    let s = timed_setup(rep, || setup(&DATA_APPS, DATA_SCALE, args.seed))?;
    let tuner = PreScaler::new(&s.system, &s.db, TOQ);
    let refs = references(rep, &tuner, &s);
    let dir = journal_dir()?;
    let mut st = PassState::new(s.apps.len());

    let pass = |tr: &Tracer,
                rep: &mut Report,
                st: &mut PassState,
                cold_ms: &mut [Vec<f64>],
                resume_ms: &mut [Vec<f64>]| {
        for (i, app) in s.apps.iter().enumerate() {
            let name = app.name();
            let path = dir.join(format!("{name}.wal"));
            let _ = std::fs::remove_file(&path);
            let t0 = Instant::now();
            let cold = tr.span("bench.durable_tune", || {
                durable_once(tr, &tuner, app, &path)
            });
            cold_ms[i].push(ms_since(t0));
            let cold = match cold {
                Ok(c) => c,
                Err(e) => {
                    rep.op(vec![e]);
                    continue;
                }
            };
            let counts = Counts {
                digest: cold.tuned.decision_digest(),
                stats: cold.stats,
            };
            let mut f = check_tune(name, &cold.tuned, counts, refs[i], &mut st.firsts[i]);
            if cold.replayed != 0 {
                f.push(format!(
                    "{name}: fresh journal replayed {} records",
                    cold.replayed
                ));
            }
            rep.op(f);

            let t0 = Instant::now();
            let resumed = tr.span("bench.durable_resume", || {
                durable_once(tr, &tuner, app, &path)
            });
            resume_ms[i].push(ms_since(t0));
            let mut f = Vec::new();
            match resumed {
                Ok(r) => {
                    if r.tuned.decision_digest() != counts.digest {
                        f.push(format!(
                            "{name}: resumed decision differs from the cold one"
                        ));
                    }
                    if r.stats.executions != 0 {
                        f.push(format!(
                            "{name}: resume ran {} executions",
                            r.stats.executions
                        ));
                    }
                    if r.replayed != cold.stats.executions {
                        f.push(format!(
                            "{name}: resume replayed {} records of {} cold executions",
                            r.replayed, cold.stats.executions
                        ));
                    }
                }
                Err(e) => f.push(e),
            }
            rep.op(f);
            st.last[i] = Some(cold.tuned);
        }
    };

    let off = Tracer::new(false);
    let (mut cold_ms, mut resume_ms, mut pass_ms) = (
        vec![Vec::new(); s.apps.len()],
        vec![Vec::new(); s.apps.len()],
        Vec::new(),
    );
    let t_start = Instant::now();
    while pass_ms.is_empty() || t_start.elapsed().as_secs_f64() < args.seconds {
        let p0 = Instant::now();
        pass(&off, rep, &mut st, &mut cold_ms, &mut resume_ms);
        pass_ms.push(ms_since(p0));
    }
    let wall_s = t_start.elapsed().as_secs_f64();
    record_timing(rep, &s.apps, &cold_ms, wall_s);
    for (app, ms) in s.apps.iter().zip(&resume_ms) {
        rep.value(format!("resume_ms.{}.p50", app.name()), median(ms), "ms");
    }
    let all_resumes: Vec<f64> = resume_ms.concat();
    rep.value("resume_ms.p50", median(&all_resumes), "ms");
    rep.value("resume_ms.samples", all_resumes.len() as f64, "count");
    // The gated percentiles cover the write path (cold tunes) and the
    // read path (resumes) alike: one series per app and path.
    record_op_percentiles(rep, &[cold_ms, resume_ms].concat());
    let tuned = st.record(rep);
    layers::check_vm_parallel(&off, rep);

    if tr.on() {
        tr.span("bench.pass", || {
            pass(
                tr,
                rep,
                &mut st,
                &mut vec![Vec::new(); s.apps.len()],
                &mut vec![Vec::new(); s.apps.len()],
            );
        });
        let spec = tuned
            .first()
            .map_or_else(ScalingSpec::baseline, |t| t.config.clone());
        layers::probe_all(
            tr,
            rep,
            &ProbeInputs {
                system: &s.system,
                db: &s.db,
                apps: &s.apps,
                spec: &spec,
                seed: args.seed,
                journal_dir: &dir,
            },
        );
        layers::record_trace(rep, tr, "bench.pass", &pass_ms);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
