//! In-memory spans around the calls the benchmark makes into each
//! layer. A span's name is `<layer>.<call>`; spans of one cell, case,
//! campaign or pass share a group id. Nothing is written until the
//! run ends.

use sfence_harness::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// The root span of one timed pass. Its self time is the part of the
/// pass no layer span covers.
pub const PASS: &str = "bench.pass";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// `sim.run` -> `sim`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span recorder. A disabled tracer runs the closures and records
/// nothing, so traced and untraced passes share one code path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    group: u64,
    /// Time spent in [`Tracer::off_clock`] since the last
    /// [`Tracer::take_off_clock_ns`].
    off_clock_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            group: 0,
            off_clock_ns: 0,
        }
    }

    /// Run `f` inside a span called `name`, and keep its time out of
    /// the pass sample (a check that must run mid-pass).
    pub fn off_clock<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let t0 = Instant::now();
        let out = self.span(name, f);
        self.off_clock_ns += t0.elapsed().as_nanos() as u64;
        out
    }

    /// Off-clock time since the last call, in ns.
    pub fn take_off_clock_ns(&mut self) -> u64 {
        std::mem::take(&mut self.off_clock_ns)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tag the spans opened from now on with `group`.
    pub fn group(&mut self, group: u64) {
        self.group = group;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            group: self.group,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in ns: each span's duration minus the time
    /// its direct children cover (children never overlap: one thread
    /// records them in order).
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(children);
        }
        out
    }

    /// Summed duration of every span called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .field("name", s.name)
                        .field("group", s.group)
                        .field("start_ns", s.start_ns)
                        .field("end_ns", s.end_ns)
                        .field(
                            "parent",
                            match s.parent {
                                Some(p) => Json::UInt(p as u64),
                                None => Json::Null,
                            },
                        )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.span(PASS, |t| {
            t.span("sim.run", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let by_layer = t.self_ns_by_layer();
        assert!(by_layer["sim"] >= 5_000_000);
        assert!(by_layer["bench"] < by_layer["sim"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.total_ns("sim.run"), by_layer["sim"]);

        let mut off = Tracer::new(false);
        assert_eq!(off.span(PASS, |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
