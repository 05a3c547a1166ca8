//! Metric collection, the correctness gate, and the result line.

use serde::Deserialize;
use std::collections::BTreeMap;

#[derive(Deserialize)]
struct Metric {
    name: String,
}

#[derive(Deserialize)]
struct Definitions {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

/// The metric names `BENCHMARK.json` lists: its `end_to_end` metrics
/// (printed with `--trace 0`; every workload reports each of them, see
/// `README.md` for what an "item" and an "op" are on each workload) or
/// its `per_layer` metrics (printed with `--trace 1`).
fn metric_names(trace: bool) -> Result<Vec<String>, String> {
    let defs: Definitions = serde_json::from_str(include_str!("../../BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = if trace {
        defs.per_layer
    } else {
        defs.end_to_end
    };
    Ok(list.into_iter().map(|m| m.name).collect())
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Records one attempted operation and the checks it failed (none
    /// when it succeeded).
    pub fn op(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }

    /// Records a metric value.
    pub fn value(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Prints every metric as a table, every failed check, and then the
    /// result line.
    pub fn print(&mut self, trace: bool) {
        for (name, (v, unit)) in &self.values {
            println!("{name:<40} {v:>16.6} {unit}");
        }
        let wanted = metric_names(trace).unwrap_or_else(|e| {
            self.op(vec![e]);
            Vec::new()
        });
        let missing: Vec<String> = wanted
            .iter()
            .filter(|n| !self.values.contains_key(*n))
            .map(|n| format!("metric {n} was not measured"))
            .collect();
        self.op(missing);
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_rate {error_rate} ({} of {} operations failed)",
            self.failed, self.attempted
        );
        let metrics: Vec<String> = wanted
            .iter()
            .filter_map(|n| {
                let (v, unit) = self.values.get(n)?;
                Some(format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*v)
                ))
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (`q` in `[0, 1]`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `op_ms.p50` and `op_ms.p90`: each app's percentile of its op times,
/// combined as a geometric mean over the apps, so every app of a fixed
/// mix weighs the same. (A percentile of the pooled mix would track the
/// one app whose times sit at that rank.)
pub fn record_op_percentiles(rep: &mut Report, op_ms: &[Vec<f64>]) {
    for (name, q) in [("op_ms.p50", 0.5), ("op_ms.p90", 0.9)] {
        let per_app: Vec<f64> = op_ms.iter().map(|ms| quantile(ms, q)).collect();
        rep.value(name, geomean(&per_app), "ms");
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Wall milliseconds since `t0`.
pub fn ms_since(t0: std::time::Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }
}
