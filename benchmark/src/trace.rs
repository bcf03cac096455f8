//! Spans recorded in memory around every public call a workload makes,
//! written out when the run ends.
//!
//! The spans sit in the benchmark, outside the program: each one times a
//! call into a layer's entry point, so a layer's self time is its span's
//! duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use agemul_conformance::Json;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's trace origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The request or operation the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder for one thread. A disarmed tracer runs the closure and
/// records nothing.
pub struct Tracer {
    armed: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(armed: bool, origin: Instant) -> Self {
        Tracer {
            armed,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.armed {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Calls and summed self time (seconds) per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64)> {
    let mut child_secs = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_secs[p] += s.secs();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_secs) {
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += s.secs() - children;
    }
    out
}

/// Mean self time per call of `name`, in seconds (0 when never called).
pub fn mean_self_secs(times: &BTreeMap<&'static str, (u64, f64)>, name: &str) -> f64 {
    times
        .get(name)
        .map_or(0.0, |&(calls, secs)| secs / calls.max(1) as f64)
}

/// Share of busy time spent inside layer calls: summed self time of every
/// span outside the benchmark's own `bench.*` spans, over `busy_secs`.
pub fn attributed_share(times: &BTreeMap<&'static str, (u64, f64)>, busy_secs: f64) -> f64 {
    let layer: f64 = times
        .iter()
        .filter(|(name, _)| !name.starts_with("bench."))
        .map(|(_, &(_, secs))| secs)
        .sum();
    layer / busy_secs
}

/// The spans as a JSON array (times in microseconds).
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_us".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("end_us".into(), Json::Num(s.end_ns as f64 / 1e3)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("request".into(), Json::UInt(s.request)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("bench.job", 7, |t| {
            t.span("core.profile", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        let times = self_times(&spans);
        let (calls, profile) = times["core.profile"];
        assert_eq!(calls, 1);
        assert!(profile >= 0.005);
        let (_, job_self) = times["bench.job"];
        assert!(job_self < profile, "the child's time is not the parent's");
        let busy = spans[0].secs();
        let share = attributed_share(&times, busy);
        assert!(share > 0.5 && share <= 1.0 + 1e-9, "{share}");
    }

    #[test]
    fn disarmed_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("core.profile", 0, |_| 3), 3);
        assert!(t.into_spans().is_empty());
    }
}
