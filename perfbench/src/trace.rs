//! Host-time spans for the traced run.
//!
//! A span is a named host-time interval around one call the benchmark
//! makes into the system, or one step of its own loop. Spans nest by
//! parent index; the spans of one request share its request id. They
//! stay in memory until the run ends, when [`write_tsv`] writes them out
//! and [`summarize`] folds them into per-name totals and self times (a
//! span's duration minus the part its direct children cover).
//!
//! With tracing off every method is a branch on one `bool`, so the same
//! loop code serves the traced and the untraced passes.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span covers (`"execute"`, `"gen"`, `"race_get"`, ...).
    pub name: &'static str,
    /// Request id shared by every span of one request (0 = none).
    pub req: u64,
    /// Index of the enclosing span in the same thread's list, or [`ROOT`].
    pub parent: u32,
    /// Host ns since the pass epoch.
    pub start_ns: u64,
    /// Host ns since the pass epoch.
    pub end_ns: u64,
}

/// Per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span nested in the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: now,
            end_ns: now,
        });
    }

    /// Close the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let i = self.open.pop().expect("every exit pairs with an enter");
        self.spans[i as usize].end_ns = now;
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    /// The recorded spans (all closed).
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open: {:?}", self.open);
        self.spans
    }
}

/// Totals for one span name across every thread.
#[derive(Debug, Clone, Default)]
pub struct SpanStat {
    /// Spans of this name.
    pub count: u64,
    /// Sum of durations, host ns.
    pub total_ns: u64,
    /// Sum of self times, host ns.
    pub self_ns: u64,
    /// Every duration, sorted ascending (for percentiles).
    pub durations: Vec<u64>,
}

impl SpanStat {
    /// Mean duration, host ns (0 when no span was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Duration percentile `q` in `[0, 1]`, host ns.
    pub fn percentile_ns(&self, q: f64) -> f64 {
        crate::pass::percentile(&self.durations, q) as f64
    }
}

/// Fold per-thread span lists into per-name totals and self times.
pub fn summarize(threads: &[Vec<Span>]) -> BTreeMap<&'static str, SpanStat> {
    let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, covered) in spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(*covered);
            e.durations.push(dur);
        }
    }
    for e in out.values_mut() {
        e.durations.sort_unstable();
    }
    out
}

/// Spans written per thread; the rest are summarized but not written,
/// which keeps the file near 10 MB.
pub const MAX_WRITTEN: usize = 250_000;

/// Write each thread's first [`MAX_WRITTEN`] spans, one tab-separated
/// line each: `thread idx parent req name start_ns end_ns`.
pub fn write_tsv(path: &Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\tidx\tparent\treq\tname\tstart_ns\tend_ns")?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate().take(MAX_WRITTEN) {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{t}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            Span {
                name: "a",
                req: 1,
                parent: ROOT,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "b",
                req: 1,
                parent: 0,
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "c",
                req: 1,
                parent: 1,
                start_ns: 15,
                end_ns: 35,
            },
            Span {
                name: "b",
                req: 1,
                parent: 0,
                start_ns: 50,
                end_ns: 60,
            },
        ];
        let s = summarize(&[spans]);
        assert_eq!(s["a"].self_ns, 60);
        assert_eq!(s["b"].count, 2);
        assert_eq!(s["b"].self_ns, 10 + 10);
        assert_eq!(s["c"].self_ns, 20);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.enter("x", 1);
        t.exit();
        assert!(t.into_spans().is_empty());
    }
}
