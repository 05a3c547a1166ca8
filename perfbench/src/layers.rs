//! Layer probes of the traced run.
//!
//! Each probe times calls into one layer's public functions on the
//! workload's own apps, inside spans named after the layer. The workload
//! body (in `tune.rs` / `serve.rs`) records what it measures first; a
//! probe fills only the metrics the body left unset, so every workload
//! reports every per-layer metric.

use crate::report::{median, ms_since, quantile, Report};
use crate::serve;
use crate::spans::{self, Tracer};
use prescaler_core::{
    profile_app, tune_durable, AppProfile, InspectorDb, PreScaler, StaticAnalysis, SystemInspector,
    TrialEngine,
};
use prescaler_guard::{Guard, GuardPolicy};
use prescaler_ir::dsl::{
    add_assign, flit, for_, global_id, int, kernel, let_, let_acc, load, store, var,
};
use prescaler_ir::interp::{BufferMap, Launch};
use prescaler_ir::vm::{compile_kernel, VmScratch};
use prescaler_ir::{
    passes, verify_program, Access, FloatVec, Kernel, OpCounts, Param, Precision, Program,
};
use prescaler_ocl::{run_app_threaded, Event, HostApp, ProfileLog, ScalingSpec};
use prescaler_persist::TrialJournal;
use prescaler_polybench::{output_quality, PolyApp};
use prescaler_sim::convert::convert_parallel;
use prescaler_sim::SystemModel;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

const PRECISIONS: [(Precision, &str); 3] = [
    (Precision::Double, "double"),
    (Precision::Single, "single"),
    (Precision::Half, "half"),
];

/// Side of the gemm kernel the VM probes run.
const VM_N: usize = 96;

/// Journal appends timed by the persist probe (records are re-appended
/// cyclically until this many are timed, so the p99 has samples beyond it).
const APPENDS: usize = 200;

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// What the probes run on: the workload's apps on the clean system, and
/// a scaled configuration of the first app for the persist, guard and
/// serve probes.
pub struct ProbeInputs<'a> {
    pub system: &'a SystemModel,
    pub db: &'a InspectorDb,
    pub apps: &'a [PolyApp],
    pub spec: &'a ScalingSpec,
    pub seed: u64,
    pub journal_dir: &'a Path,
}

/// The baseline configuration with every memory object of `log` at `p`.
fn uniform_spec(log: &ProfileLog, p: Precision) -> ScalingSpec {
    log.objects.iter().fold(ScalingSpec::baseline(), |spec, o| {
        spec.with_target(o.label.clone(), p)
    })
}

/// Runs every probe and records the per-layer metrics it measures.
pub fn probe_all(tr: &Tracer, rep: &mut Report, inp: &ProbeInputs) {
    tr.span("bench.probes", || {
        probe_inspector(tr, rep, inp);
        let Some(profiles) = probe_profiler_and_analysis(tr, rep, inp) else {
            return;
        };
        probe_ocl(tr, rep, inp, &profiles);
        probe_compile(tr, rep, inp);
        probe_vm(tr, rep);
        probe_convert(tr, rep);
        probe_persist(tr, rep, inp, &profiles[0]);
        probe_guard_and_serve(tr, rep, inp);
    });
}

fn set_if_absent(rep: &mut Report, name: &str, v: f64, unit: &'static str) {
    if rep.get(name).is_none() {
        rep.value(name, v, unit);
    }
}

fn probe_inspector(tr: &Tracer, rep: &mut Report, inp: &ProbeInputs) {
    for _ in 0..3 {
        std::hint::black_box(tr.span("inspector.inspect", || SystemInspector::inspect(inp.system)));
    }
    let ms = spans::durations_ms(&tr.spans(), "inspector.inspect");
    rep.value("inspector.inspect_ms", median(&ms), "ms");
}

/// Profiles every app, and runs the static analysis over each profile;
/// returns the profiles, or `None` when one app could not be profiled.
fn probe_profiler_and_analysis(
    tr: &Tracer,
    rep: &mut Report,
    inp: &ProbeInputs,
) -> Option<Vec<AppProfile>> {
    let mut profiles = Vec::new();
    for app in inp.apps {
        let program = app.program();
        match tr.span("profiler.profile_app", || profile_app(app, inp.system)) {
            Ok(profile) => {
                for _ in 0..5 {
                    std::hint::black_box(tr.span("static_prune.analysis", || {
                        StaticAnalysis::of(&program, &profile)
                    }));
                }
                profiles.push(profile);
            }
            Err(e) => {
                rep.op(vec![format!("profile {}: {e}", app.name())]);
                return None;
            }
        }
    }
    rep.op(Vec::new());
    let all = tr.spans();
    rep.value(
        "profiler.profile_ms",
        median(&spans::durations_ms(&all, "profiler.profile_app")),
        "ms",
    );
    let us: Vec<f64> = spans::durations_ms(&all, "static_prune.analysis")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    rep.value("static_prune.analysis_us", median(&us), "us");
    Some(profiles)
}

/// Uniform-precision runs of every app at 1 and `host_cores` threads:
/// wall time per precision, launches, operation counts, and the quality
/// scorer on the half-precision outputs.
fn probe_ocl(tr: &Tracer, rep: &mut Report, inp: &ProbeInputs, profiles: &[AppProfile]) {
    let cores = host_cores();
    let mut failures = Vec::new();
    let mut launches = 0u64;
    let mut score_us = Vec::new();
    for (p, tag) in PRECISIONS {
        let (mut ms_par, mut ms_seq, mut flops) = (0.0, 0.0, 0u64);
        for (app, profile) in inp.apps.iter().zip(profiles) {
            let spec = uniform_spec(&profile.log, p);
            let mut counts: Vec<Vec<OpCounts>> = Vec::new();
            for threads in [1, cores] {
                let t0 = Instant::now();
                let run = tr.span("ocl.run_app", || {
                    run_app_threaded(app, inp.system, &spec, threads)
                });
                let ms = ms_since(t0);
                let (outputs, log) = match run {
                    Ok(r) => r,
                    Err(e) => {
                        failures.push(format!(
                            "{} all-{tag} at {threads} threads: {e}",
                            app.name()
                        ));
                        continue;
                    }
                };
                let launch_counts: Vec<OpCounts> = log
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        Event::KernelLaunch { counts, .. } => Some(**counts),
                        Event::Transfer { .. } => None,
                    })
                    .collect();
                if threads == cores {
                    ms_par += ms;
                    flops += launch_counts.iter().map(|c| c.at(p).flops()).sum::<u64>();
                    if p == Precision::Double {
                        launches += launch_counts.len() as u64;
                    }
                    if p == Precision::Half {
                        for _ in 0..20 {
                            let t0 = Instant::now();
                            std::hint::black_box(tr.span("quality.output_quality", || {
                                output_quality(&profile.reference, &outputs)
                            }));
                            score_us.push(ms_since(t0) * 1e3);
                        }
                    }
                } else {
                    ms_seq += ms;
                }
                counts.push(launch_counts);
            }
            if counts.len() == 2 && counts[0] != counts[1] {
                failures.push(format!(
                    "{} all-{tag}: OpCounts differ between 1 and {cores} threads",
                    app.name()
                ));
            }
        }
        rep.value(format!("ocl.run_ms.{tag}"), ms_par, "ms");
        rep.value(format!("ocl.run_ms_1t.{tag}"), ms_seq, "ms");
        rep.value(format!("ir.ops.{tag}"), flops as f64, "count");
    }
    rep.op(failures);
    rep.value("ocl.launches", launches as f64, "count");
    rep.value("quality.score_us", median(&score_us), "us");
}

/// Verifies and compiles every app's program retyped to each precision.
fn probe_compile(tr: &Tracer, rep: &mut Report, inp: &ProbeInputs) {
    let mut failures = Vec::new();
    let mut us = Vec::new();
    for app in inp.apps {
        let program = app.program();
        for (p, tag) in PRECISIONS {
            let retyped = Program {
                name: program.name.clone(),
                kernels: program.kernels.iter().map(|k| retype_all(k, p)).collect(),
            };
            let t0 = Instant::now();
            tr.span("ir.compile", || {
                std::hint::black_box(verify_program(&retyped));
                for k in &retyped.kernels {
                    if let Err(e) = compile_kernel(k) {
                        failures.push(format!("{} {} at {tag}: {e}", app.name(), k.name));
                    }
                }
            });
            us.push(ms_since(t0) * 1e3);
        }
    }
    rep.op(failures);
    rep.value("ir.compile_us", median(&us), "us");
}

fn retype_all(k: &Kernel, p: Precision) -> Kernel {
    let map: HashMap<String, Precision> = k
        .params
        .iter()
        .filter_map(|param| match param {
            Param::Buffer { name, .. } => Some((name.to_string(), p)),
            _ => None,
        })
        .collect();
    passes::retype_buffers(k, &map)
}

/// A gemm kernel over `n × n` buffers at precision `p`, with its inputs.
fn gemm_kernel(n: usize, p: Precision) -> (Kernel, BufferMap, Launch) {
    let k = kernel("gemm")
        .buffer("a", p, Access::Read)
        .buffer("b", p, Access::Read)
        .buffer("c", p, Access::Write)
        .int_param("n")
        .body(vec![
            let_("j", global_id(0)),
            let_("i", global_id(1)),
            let_acc("acc", "c", flit(0.0)),
            for_(
                "k",
                int(0),
                var("n"),
                vec![add_assign(
                    "acc",
                    load("a", var("i") * var("n") + var("k"))
                        * load("b", var("k") * var("n") + var("j")),
                )],
            ),
            store("c", var("i") * var("n") + var("j"), var("acc")),
        ]);
    let xs: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.001).sin()).collect();
    let mut bufs = BufferMap::new();
    bufs.insert("a".into(), FloatVec::from_f64_slice(&xs, p));
    bufs.insert("b".into(), FloatVec::from_f64_slice(&xs, p));
    bufs.insert("c".into(), FloatVec::zeros(n * n, p));
    let launch = Launch::two_d(n, n).arg_int("n", i64::try_from(n).expect("small n"));
    (k, bufs, launch)
}

/// Runs gemm`VM_N` at double precision sequentially and with
/// `run_parallel` on every core, and checks that outputs and `OpCounts`
/// are bit-identical. Returns the two wall times in ms when they agree.
pub fn check_vm_parallel(tr: &Tracer, rep: &mut Report) -> Option<(f64, f64)> {
    let (k, bufs, launch) = gemm_kernel(VM_N, Precision::Double);
    let compiled = match compile_kernel(&k) {
        Ok(c) => c,
        Err(e) => {
            rep.op(vec![format!("gemm{VM_N} does not compile: {e}")]);
            return None;
        }
    };
    let mut scratch = VmScratch::new();
    let (mut seq_ms, mut par_ms) = (Vec::new(), Vec::new());
    let mut failures = Vec::new();
    for _ in 0..5 {
        let mut seq = bufs.clone();
        let t0 = Instant::now();
        let c_seq = tr.span("ir.vm_seq", || {
            compiled.run_with_scratch(&mut seq, &launch, &mut scratch)
        });
        seq_ms.push(ms_since(t0));
        let mut par = bufs.clone();
        let t0 = Instant::now();
        let c_par = tr.span("ir.vm_parallel", || {
            compiled.run_parallel(&mut par, &launch, &mut scratch, host_cores())
        });
        par_ms.push(ms_since(t0));
        match (c_seq, c_par) {
            (Ok(a), Ok(b)) if a == b && seq["c"] == par["c"] => {}
            (Ok(_), Ok(_)) => {
                failures.push(format!("gemm{VM_N} run_parallel differs from sequential"));
            }
            (Err(e), _) | (_, Err(e)) => failures.push(format!("gemm{VM_N}: {e}")),
        }
    }
    let ok = failures.is_empty();
    rep.op(failures);
    ok.then(|| (median(&seq_ms), median(&par_ms)))
}

fn probe_vm(tr: &Tracer, rep: &mut Report) {
    let iters = (VM_N * VM_N * VM_N) as f64;
    let mut failures = Vec::new();
    for (p, tag) in PRECISIONS {
        let (k, bufs, launch) = gemm_kernel(VM_N, p);
        let Ok(compiled) = compile_kernel(&k) else {
            failures.push(format!("gemm{VM_N} at {tag} does not compile"));
            continue;
        };
        let mut scratch = VmScratch::new();
        let mut ns = Vec::new();
        for _ in 0..5 {
            let mut m = bufs.clone();
            let t0 = Instant::now();
            if let Err(e) = tr.span("ir.vm_seq", || {
                compiled.run_with_scratch(&mut m, &launch, &mut scratch)
            }) {
                failures.push(format!("gemm{VM_N} at {tag}: {e}"));
            }
            ns.push(ms_since(t0) * 1e6 / iters);
        }
        rep.value(format!("ir.vm_ns_per_iter.{tag}"), median(&ns), "ns");
    }
    rep.op(failures);
    if let Some((seq, par)) = check_vm_parallel(tr, rep) {
        rep.value("ir.vm_parallel_speedup", seq / par, "x");
    }
}

fn probe_convert(tr: &Tracer, rep: &mut Report) {
    let n = crate::tune::data_apps_largest_object();
    let cores = host_cores();
    let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 1000.0).collect();
    let f64s = FloatVec::from_f64_slice(&xs, Precision::Double);
    let f32s = f64s.converted(Precision::Single);
    let f16s = f64s.converted(Precision::Half);
    let cases = [
        ("f64_to_f32", &f64s, Precision::Single),
        ("f32_to_f64", &f32s, Precision::Double),
        ("f64_to_f16", &f64s, Precision::Half),
        ("f16_to_f64", &f16s, Precision::Double),
    ];
    for (tag, src, dst) in cases {
        let mut ns = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            std::hint::black_box(
                tr.span("sim.convert_parallel", || convert_parallel(src, dst, cores)),
            );
            ns.push(ms_since(t0) * 1e6 / n as f64);
        }
        rep.value(format!("sim.convert_ns_per_elem.{tag}"), median(&ns), "ns");
    }
}

/// A durable tune of the first app, then timed opens of the finished
/// journal and timed appends of its records into a fresh journal.
fn probe_persist(tr: &Tracer, rep: &mut Report, inp: &ProbeInputs, profile: &AppProfile) {
    let app = &inp.apps[0];
    let path = inp.journal_dir.join("probe.wal");
    let copy = inp.journal_dir.join("probe-append.wal");
    let mut failures = Vec::new();
    let _ = std::fs::remove_file(&path);
    let tuner = PreScaler::new(inp.system, inp.db, crate::tune::TOQ);
    let report = match tr.span("engine.tune_durable", || tune_durable(&tuner, app, &path)) {
        Ok(r) => r,
        Err(e) => {
            rep.op(vec![format!("probe durable tune of {}: {e}", app.name())]);
            return;
        }
    };
    let stats = report.stats;
    set_if_absent(rep, "engine.charged", stats.charged as f64, "count");
    set_if_absent(rep, "engine.cache_hits", stats.cache_hits as f64, "count");
    set_if_absent(rep, "engine.executions", stats.executions as f64, "count");
    set_if_absent(
        rep,
        "engine.useful_share",
        crate::tune::useful_share(&stats, 1),
        "share",
    );
    set_if_absent(
        rep,
        "static_prune.pruned",
        stats.pruned_static as f64,
        "count",
    );
    set_if_absent(
        rep,
        "static_prune.pruned_share",
        crate::tune::pruned_share(&stats),
        "share",
    );

    let context = TrialEngine::new(app, inp.system, profile).context_fingerprint();
    let (mut records, mut open_ms) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        match tr.span("persist.open", || TrialJournal::open(&path, context)) {
            Ok((_, recovery)) => records = recovery.records,
            Err(e) => failures.push(format!("open probe journal: {e}")),
        }
        open_ms.push(ms_since(t0));
    }
    rep.value("persist.open_ms", median(&open_ms), "ms");
    rep.value("persist.records", records.len() as f64, "count");
    if records.len() != stats.executions {
        failures.push(format!(
            "probe journal holds {} records for {} executions",
            records.len(),
            stats.executions
        ));
    }
    let mut us = Vec::with_capacity(APPENDS);
    match TrialJournal::create(&copy, context) {
        Ok(mut journal) if !records.is_empty() => {
            for rec in records.iter().cycle().take(APPENDS) {
                let t0 = Instant::now();
                if let Err(e) = tr.span("persist.append", || journal.append(rec)) {
                    failures.push(format!("append: {e}"));
                    break;
                }
                us.push(ms_since(t0) * 1e3);
            }
        }
        Ok(_) => failures.push("probe journal is empty".into()),
        Err(e) => failures.push(format!("create append journal: {e}")),
    }
    rep.value("persist.append_us.p50", median(&us), "us");
    rep.value("persist.append_us.p99", quantile(&us, 0.99), "us");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&copy);
    rep.op(failures);
}

fn probe_guard_and_serve(tr: &Tracer, rep: &mut Report, inp: &ProbeInputs) {
    let app = &inp.apps[0];
    let app_at = |gain: f64| app.clone().with_input_gain(gain);
    let mut failures = Vec::new();
    match Guard::new(app, inp.system, inp.spec.clone(), GuardPolicy::default()) {
        Ok(mut guard) => {
            for _ in 0..12 {
                if let Err(e) = tr.span("guard.run_production", || guard.run_production(app_at)) {
                    failures.push(format!("guard run of {}: {e}", app.name()));
                }
            }
            let g = guard.report().summary();
            set_if_absent(
                rep,
                "guard.canary_share",
                g.canary_runs as f64 / g.runs.max(1) as f64,
                "share",
            );
        }
        Err(e) => failures.push(format!("guard for {}: {e}", app.name())),
    }
    rep.value(
        "guard.run_ms",
        median(&spans::durations_ms(&tr.spans(), "guard.run_production")),
        "ms",
    );

    for salt in 0..12 {
        let run = tr.span("serve.speculate", || {
            prescaler_guard::speculate(inp.system, inp.spec, salt, app_at)
        });
        if let Err(e) = run.result {
            failures.push(format!("speculate {}: {e}", app.name()));
        }
    }
    rep.value(
        "serve.speculate_ms",
        median(&spans::durations_ms(&tr.spans(), "serve.speculate")),
        "ms",
    );

    if rep.get("serve.workers_speedup").is_none() {
        match serve::probe_sessions(tr, inp.system, app, inp.spec, inp.seed) {
            Ok((speedup, peak)) => {
                rep.value("serve.workers_speedup", speedup, "x");
                rep.value("serve.peak_queue_depth", peak as f64, "count");
            }
            Err(e) => failures.push(e),
        }
    }
    rep.op(failures);
}

/// Records the traced pass — the first span named `pass` — against the
/// untraced passes: its wall time, the tracing overhead, and the share of
/// its interval the layer spans cover. Also records the layer self times
/// of the whole traced section, probes included.
pub fn record_trace(rep: &mut Report, tr: &Tracer, pass: &str, untraced_pass_ms: &[f64]) {
    let spans = tr.spans();
    rep.value("trace.spans", spans.len() as f64, "count");
    if let Some(p) = spans.iter().find(|s| s.name == pass) {
        let traced = p.ns() as f64 / 1e6;
        let untraced = median(untraced_pass_ms);
        rep.value("trace.traced_pass_ms", traced, "ms");
        rep.value("trace.untraced_pass_ms", untraced, "ms");
        rep.value("trace.overhead_ms", traced - untraced, "ms");
        rep.value(
            "trace.layer_share",
            spans::layer_coverage(&spans, p.start_ns, p.end_ns),
            "share",
        );
    } else {
        rep.op(vec![format!("the traced pass left no {pass} span")]);
    }
    let by_layer = spans::layer_self_ms(&spans);
    for layer in [
        "bench",
        "inspector",
        "profiler",
        "static_prune",
        "engine",
        "ocl",
        "ir",
        "sim",
        "quality",
        "persist",
        "guard",
        "serve",
    ] {
        rep.value(
            format!("{layer}.self_ms"),
            by_layer.get(layer).copied().unwrap_or(0.0),
            "ms",
        );
    }
    rep.value("host.cores", host_cores() as f64, "count");
    rep.value(
        "host.exec_threads",
        prescaler_ocl::default_exec_threads() as f64,
        "count",
    );
}
