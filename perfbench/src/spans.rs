//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into each layer's public
//! functions from the benchmark's own code: a span records its name, its
//! start and end (nanoseconds since the recorder was created) and the span
//! that was open when it started. Nothing is written until the run ends.
//! A disabled recorder runs the wrapped call and records nothing, so the
//! timed (untraced) runs execute the same code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Durations in milliseconds of every span with this exact name.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e6)
        .collect()
}

/// Total length of the union of `[start, end)` intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of each span: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.ns() - union_ns(c))
        .collect()
}

/// Self time per layer, in milliseconds.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Share of the interval `[start_ns, end_ns)` covered by spans of any
/// layer other than `bench` (the benchmark's own grouping spans).
pub fn layer_coverage(spans: &[Span], start_ns: u64, end_ns: u64) -> f64 {
    let covered = union_ns(
        spans
            .iter()
            .filter(|s| s.layer() != "bench")
            .map(|s| (s.start_ns.max(start_ns), s.end_ns.min(end_ns)))
            .filter(|(s, e)| s < e)
            .collect(),
    );
    covered as f64 / end_ns.saturating_sub(start_ns).max(1) as f64
}

/// The spans as a JSON array.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            s.name, s.start_ns, s.end_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.op", 0, 100, None),
            span("engine.search", 10, 50, Some(0)),
            span("persist.open", 40, 70, Some(0)),
            span("ir.vm", 20, 30, Some(1)),
        ];
        assert_eq!(self_ns(&spans), vec![40, 30, 30, 10]);
        let by_layer = layer_self_ms(&spans);
        assert!((by_layer["bench"] - 40e-6).abs() < 1e-12);
        assert!((layer_coverage(&spans, 0, 100) - 0.6).abs() < 1e-12);
        // Only the part of a span inside the interval counts.
        assert!((layer_coverage(&spans, 45, 95) - 0.5).abs() < 1e-12);
    }
}
