//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! simulator's public functions; nothing inside the simulator is
//! instrumented. A disabled recorder times nothing, so the untraced run
//! pays only a branch per call site.

use std::time::Instant;

/// One timed call: `parent` is the index of the enclosing phase span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name (`core.step`, `mc.feed_churn`, …).
    pub name: &'static str,
    /// Enclosing phase, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Whether other spans were recorded inside this one.
    pub is_phase: bool,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans of one operation when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records (`true`) or only runs the calls (`false`).
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a phase span; calls made until [`Recorder::end`] become its
    /// children.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            is_phase: true,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open phase.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Times `f` as a leaf span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_named(f, |_| name)
    }

    /// Times `f` as a leaf span whose name is chosen from its result
    /// (used to classify feed windows by what happened during them).
    pub fn span_named<R>(
        &mut self,
        f: impl FnOnce() -> R,
        name: impl FnOnce(&R) -> &'static str,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name: name(&r),
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
            is_phase: false,
        });
        r
    }

    /// Every recorded span, in start order of leaves and phases.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed seconds of the leaf spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.leaves(name).map(Span::secs).fold(0.0, |a, b| a + b)
    }

    /// Durations of the leaf spans named `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.leaves(name).map(Span::secs).collect()
    }

    fn leaves<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| !s.is_phase && s.name == name)
    }

    /// Share of the phase named `phase` covered by its leaf spans.
    pub fn coverage(&self, phase: &str) -> f64 {
        let Some(root) = self
            .spans
            .iter()
            .position(|s| s.is_phase && s.name == phase)
        else {
            return 0.0;
        };
        let covered = self
            .spans
            .iter()
            .filter(|s| !s.is_phase && s.parent == Some(root))
            .map(Span::secs)
            .fold(0.0, |a, b| a + b);
        let total = self.spans[root].secs();
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_runs_calls_and_records_nothing() {
        let mut rec = Recorder::new(false);
        rec.begin("op");
        assert_eq!(rec.span("x", || 7), 7);
        rec.end();
        assert!(rec.spans().is_empty());
        assert_eq!(rec.coverage("op"), 0.0);
    }

    #[test]
    fn leaves_nest_under_phases_and_cover_them() {
        let mut rec = Recorder::new(true);
        rec.begin("op");
        rec.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.span_named(|| 3, |&n| if n > 2 { "big" } else { "small" });
        rec.end();
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans[0].is_phase && spans[0].parent.is_none());
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].name, "big");
        assert_eq!(rec.durations_s("a").len(), 1);
        let c = rec.coverage("op");
        assert!(c > 0.5 && c <= 1.0, "coverage {c}");
    }
}
