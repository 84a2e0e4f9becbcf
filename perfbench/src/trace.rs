//! Host-time measurement: sample sets with percentiles, and the span
//! recorder the traced run wraps around each call into a layer.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (the program itself carries no instrumentation), kept in memory, and
//! summarised when the run ends.

use std::time::Instant;

/// Wall-clock samples in one unit (the caller's choice).
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Nearest-rank percentile, `p` in (0, 1]; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = (p * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// Splits samples recorded round-robin over `m` sources into one set
    /// per source.
    pub fn strided(&self, m: usize) -> Vec<Samples> {
        let mut out = vec![Samples::default(); m];
        for (k, &v) in self.0.iter().enumerate() {
            out[k % m].push(v);
        }
        out
    }
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
}

/// In-memory span recorder: `enter` opens a span under the innermost open
/// one, `exit` closes it.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[must_use]
pub struct SpanId(usize);

impl Tracer {
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: Instant::now(),
            end: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        let end = Instant::now();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        self.spans[id.0].end = Some(end);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    fn duration_ms(s: &Span) -> f64 {
        s.end
            .map_or(0.0, |e| e.duration_since(s.start).as_secs_f64() * 1e3)
    }

    /// Durations of every closed span called `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self
            .spans
            .iter()
            .filter(|s| s.name == name && s.end.is_some())
        {
            out.push(Self::duration_ms(s));
        }
        out
    }

    /// Sums, per parent span called `parent`, the durations of its
    /// descendants called `name`; one sample per parent, in ms. Used to
    /// report a layer's cost per pass over a workload's matrix set.
    pub fn per_parent_ms(&self, parent: &str, name: &str) -> Samples {
        let mut totals: Vec<(usize, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == parent && s.end.is_some() {
                totals.push((i, 0.0));
            }
        }
        for s in self.spans.iter().filter(|s| s.name == name) {
            let mut up = s.parent;
            while let Some(p) = up {
                if let Some(t) = totals.iter_mut().find(|(i, _)| *i == p) {
                    t.1 += Self::duration_ms(s);
                    break;
                }
                up = self.spans[p].parent;
            }
        }
        let mut out = Samples::default();
        for (_, t) in totals {
            out.push(t);
        }
        out
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
