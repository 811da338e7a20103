//! Span recording for the traced run.
//!
//! Spans are taken from the benchmark's own code, around calls into one
//! layer's public functions: a name (`layer.stage`), start and end relative
//! to the recorder's origin, the enclosing span, and the request the work
//! belongs to. They stay in memory and are written out when the run ends.
//! A disabled recorder runs the closures and records nothing, so the same
//! code path serves the measured (untraced) and traced runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Single-threaded span recorder.
#[derive(Debug)]
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
            spans: RefCell::default(),
            open: RefCell::default(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` for `request`, nested under the
    /// innermost open span.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let now = self.origin.elapsed();
            spans.push(Span {
                name,
                start: now,
                end: now,
                parent,
                request,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.origin.elapsed();
        out
    }

    /// Records a span whose interval was measured elsewhere (e.g. the queue
    /// wait a server reports for a request), under `parent` when given.
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        start: Instant,
        len: Duration,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start = start.saturating_duration_since(self.origin);
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start,
            end: start + len,
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover, summed over all spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let spans = self.spans.borrow();
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (s, covered) in spans.iter().zip(&child_time) {
            *out.entry(s.name).or_default() += s.duration().saturating_sub(*covered);
        }
        out
    }

    /// Share of the time of root spans named `root` that no child span
    /// covers.
    pub fn unattributed_share(&self, root: &str) -> f64 {
        let spans = self.spans.borrow();
        let mut total = Duration::ZERO;
        let mut covered = Duration::ZERO;
        for (idx, s) in spans.iter().enumerate() {
            if s.name != root {
                continue;
            }
            total += s.duration();
            covered += spans
                .iter()
                .filter(|c| c.parent == Some(idx))
                .map(Span::duration)
                .sum::<Duration>()
                .min(s.duration());
        }
        if total.is_zero() {
            0.0
        } else {
            1.0 - covered.as_secs_f64() / total.as_secs_f64()
        }
    }

    /// The spans and their per-name self times as a JSON document.
    pub fn to_json(&self, stamp: &str) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"stamp\": {stamp},\n\"self_ms\": {{");
        for (n, (name, d)) in self.self_times().iter().enumerate() {
            let sep = if n == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {:.6}", d.as_secs_f64() * 1e3);
        }
        out.push_str("},\n\"spans\": [\n");
        for (n, s) in self.spans.borrow().iter().enumerate() {
            let sep = if n == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {n}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
