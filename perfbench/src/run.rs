//! One benchmark run: the passes it makes and the report it prints.
//!
//! Untraced (`--trace 0`): set-up is repeated [`SETUP_REPEATS`] times
//! and its median reported; the last set-up is followed by the timed
//! closed loop of `--seconds` host seconds with the recording planes on.
//!
//! Traced (`--trace 1`): three window-only passes of the same seed. The
//! first runs with the planes on and no spans; the second records spans
//! (the difference between the two is the tracing overhead); the third
//! runs with the planes off and then times the host ladder. On a
//! single-thread workload all three must produce identical virtual
//! windows: neither the planes nor the spans may cost virtual time.

use std::path::PathBuf;
use std::time::Duration;

use telemetry::Json;

use crate::layers::{per_layer_value, LayerInputs, Merged, END_TO_END, PER_LAYER};
use crate::pass::{median, ClientWindow, PassOut, PassSpec, Timed};
use crate::trace;
use crate::workloads::Workload;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Host seconds of the timed loop.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
}

/// What a run prints.
#[derive(Debug)]
pub struct Report {
    /// No correctness check failed.
    pub correct: bool,
    /// Requests attempted, over every pass.
    pub attempted: u64,
    /// Requests failed, over every pass.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Correctness problems.
    pub problems: Vec<String>,
}

impl Report {
    fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            lines: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn absorb(&mut self, p: &mut PassOut) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.problems.append(&mut p.problems);
    }

    fn finish(mut self) -> Self {
        self.correct = self.problems.is_empty() && self.failed == 0;
        self
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                (
                    n.to_string(),
                    Json::obj(vec![
                        ("value", Json::F(*v)),
                        ("unit", Json::S(u.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::U(self.attempted.max(1))),
            ("failed", Json::U(self.failed)),
            ("metrics", Json::O(metrics)),
        ])
        .render()
    }
}

/// Run `w` as `args` asks.
pub fn run(w: &Workload, args: &Args) -> Report {
    if args.trace {
        traced(w, args)
    } else {
        untraced(w, args)
    }
}

fn untraced(w: &Workload, args: &Args) -> Report {
    let mut rep = Report::new();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        let mut p = w.pass(&PassSpec {
            seed: args.seed,
            planes: true,
            trace: false,
            timed: None,
            ladder: false,
        });
        setups.push(p.setup_s);
        rep.absorb(&mut p);
    }
    let timed = Timed {
        min_host: Duration::from_secs(args.seconds),
    };
    let mut p = w.pass(&PassSpec {
        seed: args.seed,
        planes: true,
        trace: false,
        timed: Some(timed),
        ladder: false,
    });
    setups.push(p.setup_s);
    let m = Merged::of(&p.windows);
    let host_ops = median(&p.slice_rates);
    let success = 1.0 - p.failed as f64 / p.attempted.max(1) as f64;
    rep.absorb(&mut p);
    let values = [
        m.v_rate,
        m.latency_mean_us(1.0),
        m.latency_mean_us(0.05),
        m.wire_rts_per_op(),
        m.commit_ratio(),
        success,
        host_ops,
        median(&setups),
        peak_rss_mib(),
    ];
    for (e, v) in END_TO_END.iter().zip(values) {
        rep.metrics.push((e.name, v, e.unit));
    }
    rep.lines.push(format!(
        "{}: {} window requests: latency p50 {} us, p99 {} us, p99.9 {} us ({} beyond), slowest 5% = {} requests; \
         host rate over {} slices of 0.5 s, {:.0}/s before scaling to the reference host; set-up x{}",
        args.workload,
        m.latencies.len(),
        m.latency_us(0.5),
        m.latency_us(0.99),
        m.latency_us(0.999),
        m.latencies.len() / 1000,
        m.latencies.len() / 20,
        p.slice_rates.len(),
        median(&p.raw_slice_rates),
        setups.len(),
    ));
    rep.finish()
}

fn traced(w: &Workload, args: &Args) -> Report {
    let mut rep = Report::new();
    let window_only = Some(Timed {
        min_host: Duration::ZERO,
    });
    let spec = |planes, trace, ladder| PassSpec {
        seed: args.seed,
        planes,
        trace,
        timed: window_only,
        ladder,
    };
    let mut on = w.pass(&spec(true, false, false));
    let mut traced = w.pass(&spec(true, true, false));
    let mut off = w.pass(&spec(false, false, true));

    if w.single_thread() {
        let view = |p: &PassOut| {
            p.windows
                .iter()
                .map(ClientWindow::virtual_view)
                .collect::<Vec<_>>()
        };
        if view(&on) != view(&off) {
            rep.problems
                .push("virtual window differs with the recording planes off".into());
        }
        if on.windows != traced.windows {
            rep.problems
                .push("virtual window differs with host spans on".into());
        }
    }
    let m = Merged::of(&on.windows);
    let reqs = m.requests as f64;
    let host_share = if on.window_host_s > 0.0 {
        (on.window_host_s - off.window_host_s) / on.window_host_s
    } else {
        0.0
    };
    let trace_overhead = reqs / on.window_host_s - reqs / traced.window_host_s;
    let spans = trace::summarize(&traced.spans);
    let path = spans_path(&args.workload);
    if let Err(e) = trace::write_tsv(&path, &traced.spans) {
        rep.problems
            .push(format!("could not write {}: {e}", path.display()));
    }
    let ladder = off
        .ladder
        .take()
        .expect("the planes-off pass runs the ladder");
    let inputs = LayerInputs {
        window: &m,
        spans: &spans,
        ladder: &ladder,
        host_share,
        trace_overhead,
        bytes_per_user_byte: on.bytes_per_user_byte,
    };
    rep.lines.push(format!(
        "{}: spans written to {}",
        args.workload,
        path.display()
    ));
    rep.lines.push(format!(
        "{:<14} {:>9} {:>12} {:>12}",
        "span", "count", "mean ns", "self ns/span"
    ));
    for (name, s) in &spans {
        rep.lines.push(format!(
            "{name:<14} {:>9} {:>12.0} {:>12.0}",
            s.count,
            s.mean_ns(),
            s.self_ns as f64 / s.count as f64
        ));
    }
    rep.lines.push(format!(
        "{:<26} {:>14} {:<9} {:<9} {} -> {}",
        "metric", "value", "unit", "layer", "source", "moves"
    ));
    for l in &PER_LAYER {
        let v = per_layer_value(l.name, &inputs);
        rep.metrics.push((l.name, v, l.unit));
        rep.lines.push(format!(
            "{:<26} {:>14.4} {:<9} {:<9} {} -> {}",
            l.name, v, l.unit, l.layer, l.source, l.moves
        ));
    }
    for p in [&mut on, &mut traced, &mut off] {
        rep.absorb(p);
    }
    rep.finish()
}

/// Where the traced run writes its spans: `out/` beside the benchmark's
/// manifest, inside the checkout.
fn spans_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}.tsv"))
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
