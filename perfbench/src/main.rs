//! End-to-end and per-layer benchmark of the PreScaler reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tune_compute --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `tune_compute` — cold `PreScaler::tune` of seven O(n³) Polybench
//!   apps at scale 0.08;
//! * `tune_data_durable` — journal-backed `tune_durable` of four O(n²)
//!   apps at scale 0.5 from a fresh journal, then a resume from the
//!   finished journal;
//! * `serve_drift` — `Server::serve` of an all-Half GEMM over a seeded
//!   arrival trace with input-drift and overload-burst faults.
//!
//! Every run sets up the workload several times (reporting the median
//! set-up time), makes its reference results outside the timed region,
//! runs whole passes of the workload with tracing off for `--seconds`,
//! and checks every output. With `--trace 1` it then repeats one pass
//! with spans recorded around each layer call, runs the layer probes and
//! reports the per-layer metrics instead of the end-to-end ones.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed correctness
//! check makes the exit code 1.

mod layers;
mod report;
mod serve;
mod spans;
mod tune;

use report::Report;
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Set-ups per run; the reported `setup_s` is their median.
const SETUP_REPS: usize = 7;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Scratch directory for journals and the written trace, inside the
/// checkout the benchmark runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// A per-process directory for trial journals under the benchmark's
/// scratch directory.
pub fn journal_dir() -> Result<PathBuf, String> {
    let dir = out_dir().join(format!("journals-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <tune_compute|tune_data_durable|serve_drift> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut rep = Report::default();
    let ran = match args.workload.as_str() {
        "tune_compute" => tune::tune_compute(&args, &tracer, &mut rep),
        "tune_data_durable" => tune::tune_data_durable(&args, &tracer, &mut rep),
        "serve_drift" => serve::serve_drift(&args, &tracer, &mut rep),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::from(2);
    }
    rep.value("peak_rss_mb", report::peak_rss_mb(), "MB");

    if args.trace {
        let dir = out_dir();
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans::to_json(&tracer.spans())));
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("spans written to {}", path.display());
    }
    rep.print(args.trace);
    if rep.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs `setup` [`SETUP_REPS`] times, records the median wall time as
/// `setup_s` and returns the last result.
pub fn timed_setup<T>(
    rep: &mut Report,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = std::time::Instant::now();
        last = Some(setup()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    rep.value("setup_s", report::median(&secs), "s");
    Ok(last.expect("SETUP_REPS > 0"))
}
