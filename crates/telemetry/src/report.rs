//! Machine-readable experiment reports.
//!
//! Every `exp_*` binary builds one [`Report`] — config in `meta`, one
//! entry per table row in `rows`, and a small `headline` of the metrics
//! worth tracking across PRs — then calls [`Report::write`]. That emits
//! `results/<experiment>.json` and folds the headline into the repo-wide
//! `BENCH_summary.json`, which maps experiment name → headline and is
//! kept sorted by name so the file is diffable and independent of the
//! order experiments were run in. Nothing here consults wall-clock time:
//! identical runs produce byte-identical files.

use std::path::Path;

use crate::hist::HistSnapshot;
use crate::json::Json;
use crate::live::{Gauge, HealthSnapshot};
use crate::span::{bucket_name, PhaseSnapshot, OTHER_BUCKET};
use crate::timeseries::{Metric, SeriesSnapshot};
use crate::watchdog::{AlertEvent, AlertKind, AlertState};
use crate::window::Windowed;

/// Schema version stamped into every report, bumped on breaking changes.
/// v2: every report carries a top-level `timeseries` section
/// ([`series_json`]) with per-window metric counts on the virtual clock.
/// v3: every report carries mandatory `health` ([`health_json`]) and
/// `alerts` ([`alerts_json`]) sections — empty but well-formed when the
/// experiment wires no live plane.
/// v4: every report carries a mandatory `forensics` section
/// ([`crate::forensics::forensics_json`]) — blame-share histogram plus
/// worst-K exemplars, empty but well-formed when forensics is unwired.
/// v5: every report carries a mandatory `utilization` section
/// ([`crate::utilization::utilization_json`]) — per-memory-node
/// occupancy/bandwidth windows, page-range heat top-K, session/phase
/// splits, and imbalance indices; empty but well-formed when the
/// utilization plane is unwired.
pub const SCHEMA_VERSION: u64 = 5;

/// One experiment's machine-readable output.
#[derive(Debug, Clone)]
pub struct Report {
    experiment: String,
    title: String,
    meta: Vec<(String, Json)>,
    rows: Vec<Json>,
    timeseries: Option<Json>,
    health: Option<Json>,
    alerts: Option<Json>,
    forensics: Option<Json>,
    utilization: Option<Json>,
    headline: Vec<(String, Json)>,
}

impl Report {
    /// Start a report; `experiment` becomes the JSON file stem (use the
    /// binary name, e.g. `"exp_c1_cache_ratio"`).
    pub fn new(experiment: &str, title: &str) -> Self {
        Self {
            experiment: experiment.to_string(),
            title: title.to_string(),
            meta: Vec::new(),
            rows: Vec::new(),
            timeseries: None,
            health: None,
            alerts: None,
            forensics: None,
            utilization: None,
            headline: Vec::new(),
        }
    }

    /// Attach a config/setup value (node counts, zipf theta, ...).
    pub fn meta(&mut self, key: &str, value: Json) -> &mut Self {
        self.meta.push((key.to_string(), value));
        self
    }

    /// Append one sweep point. `label` names the row (e.g. `"cache=0.20"`);
    /// `metrics` are its measured values.
    pub fn row(&mut self, label: &str, metrics: Vec<(&str, Json)>) -> &mut Self {
        let mut members = vec![("label".to_string(), Json::S(label.to_string()))];
        members.extend(metrics.into_iter().map(|(k, v)| (k.to_string(), v)));
        self.rows.push(Json::O(members));
        self
    }

    /// Set a headline metric — the cross-PR trajectory lives on these.
    pub fn headline(&mut self, key: &str, value: Json) -> &mut Self {
        self.headline.push((key.to_string(), value));
        self
    }

    /// Install the report's `timeseries` section (the flagship run's
    /// windowed series, rendered by [`series_json`]). Idempotent: the
    /// last call wins.
    pub fn timeseries(&mut self, section: Json) -> &mut Self {
        self.timeseries = Some(section);
        self
    }

    /// Install the report's `health` section (the flagship run's merged
    /// gauge plane, rendered by [`health_json`]). Idempotent: the last
    /// call wins.
    pub fn health(&mut self, section: Json) -> &mut Self {
        self.health = Some(section);
        self
    }

    /// Install the report's `alerts` section (the watchdog log over the
    /// flagship run, rendered by [`alerts_json`]). Idempotent: the last
    /// call wins.
    pub fn alerts(&mut self, section: Json) -> &mut Self {
        self.alerts = Some(section);
        self
    }

    /// Install the report's `forensics` section (blame-share histogram
    /// plus worst-K exemplars, rendered by
    /// [`crate::forensics::forensics_json`]). Idempotent: the last call
    /// wins.
    pub fn forensics(&mut self, section: Json) -> &mut Self {
        self.forensics = Some(section);
        self
    }

    /// Install the report's `utilization` section (per-node fabric
    /// load, heat top-K, and imbalance indices, rendered by
    /// [`crate::utilization::utilization_json`]). Idempotent: the last
    /// call wins.
    pub fn utilization(&mut self, section: Json) -> &mut Self {
        self.utilization = Some(section);
        self
    }

    /// The full report document. The schema-v3 `health`/`alerts`,
    /// schema-v4 `forensics`, and schema-v5 `utilization` sections are
    /// mandatory: experiments that wire no live plane, forensics, or
    /// utilization capture get well-formed empty sections rather than
    /// missing keys, so every consumer can rely on their presence.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("schema_version".to_string(), Json::U(SCHEMA_VERSION)),
            ("experiment".to_string(), Json::S(self.experiment.clone())),
            ("title".to_string(), Json::S(self.title.clone())),
            ("meta".to_string(), Json::O(self.meta.clone())),
            ("rows".to_string(), Json::A(self.rows.clone())),
        ];
        if let Some(ts) = &self.timeseries {
            members.push(("timeseries".to_string(), ts.clone()));
        }
        let health = self.health.clone().unwrap_or_else(|| health_json(&HealthSnapshot::empty()));
        members.push(("health".to_string(), health));
        let alerts = self.alerts.clone().unwrap_or_else(|| alerts_json(&[]));
        members.push(("alerts".to_string(), alerts));
        let forensics = self
            .forensics
            .clone()
            .unwrap_or_else(|| crate::forensics::forensics_json(&crate::forensics::ForensicsSnapshot::empty()));
        members.push(("forensics".to_string(), forensics));
        let utilization = self.utilization.clone().unwrap_or_else(|| {
            crate::utilization::utilization_json(&crate::utilization::UtilSnapshot::empty())
        });
        members.push(("utilization".to_string(), utilization));
        members.push(("headline".to_string(), Json::O(self.headline.clone())));
        Json::O(members)
    }

    /// Write `results_dir/<experiment>.json` and merge the headline into
    /// `summary_path` (created if absent). Returns the report path.
    pub fn write(
        &self,
        results_dir: &Path,
        summary_path: &Path,
    ) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(results_dir)?;
        let path = results_dir.join(format!("{}.json", self.experiment));
        std::fs::write(&path, self.to_json().render_pretty(2))?;
        merge_summary(summary_path, &self.experiment, Json::O(self.headline.clone()))?;
        Ok(path)
    }
}

/// Replace `experiment`'s entry in the summary file, keeping entries
/// from other experiments and sorting by name for run-order independence.
pub fn merge_summary(summary_path: &Path, experiment: &str, headline: Json) -> std::io::Result<()> {
    let mut entries: Vec<(String, Json)> = match std::fs::read_to_string(summary_path) {
        Ok(text) => match Json::parse(&text) {
            Ok(Json::O(members)) => members
                .into_iter()
                .find(|(k, _)| k == "experiments")
                .and_then(|(_, v)| match v {
                    Json::O(exps) => Some(exps),
                    _ => None,
                })
                .unwrap_or_default(),
            // A corrupt summary is rebuilt rather than propagated.
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    entries.retain(|(k, _)| k != experiment);
    entries.push((experiment.to_string(), headline));
    entries.sort_by(|(a, _), (b, _)| a.cmp(b));
    let doc = Json::obj(vec![
        ("schema_version", Json::U(SCHEMA_VERSION)),
        ("experiments", Json::O(entries)),
    ]);
    std::fs::write(summary_path, doc.render_pretty(2))
}

/// Histogram snapshot → JSON: count, mean, min/max, and the standard
/// percentile ladder, all in virtual nanoseconds.
pub fn hist_json(h: &HistSnapshot) -> Json {
    let (p50, p95, p99, p999) = h.percentiles();
    Json::obj(vec![
        ("count", Json::U(h.count())),
        ("mean_ns", Json::F(h.mean())),
        ("min_ns", Json::U(h.min())),
        ("p50_ns", Json::U(p50)),
        ("p95_ns", Json::U(p95)),
        ("p99_ns", Json::U(p99)),
        ("p999_ns", Json::U(p999)),
        ("max_ns", Json::U(h.max())),
    ])
}

/// Windowed series → the report `timeseries` section. Emits the window
/// geometry, explicit window starts (so validators can check
/// monotonicity and coverage against `makespan_ns`), per-window counts
/// for every metric that fired, and per-metric totals (so per-window
/// counts can be checked against the run's aggregates).
pub fn series_json(s: &SeriesSnapshot, makespan_ns: u64) -> Json {
    let starts = Json::A((0..s.len()).map(|i| Json::U(s.window_start_ns(i))).collect());
    let mut metrics = Vec::new();
    let mut totals = Vec::new();
    for m in Metric::ALL {
        let total = s.total(m);
        if total == 0 {
            continue;
        }
        metrics.push((
            m.name().to_string(),
            Json::A(s.series(m).into_iter().map(Json::U).collect()),
        ));
        totals.push((m.name().to_string(), Json::U(total)));
    }
    Json::obj(vec![
        ("window_ns", Json::U(s.window_ns)),
        ("windows", Json::U(s.len() as u64)),
        ("makespan_ns", Json::U(makespan_ns)),
        ("window_starts_ns", starts),
        ("metrics", Json::O(metrics)),
        ("totals", Json::O(totals)),
    ])
}

/// Rebuild a [`SeriesSnapshot`] from a parsed `timeseries` section —
/// the read side of [`series_json`], used by tests and validators that
/// re-run the analysis over committed reports.
pub fn series_from_json(section: &Json) -> Option<SeriesSnapshot> {
    let column = |name: &str| Metric::from_name(name).map(|m| m as usize);
    windows_from_json(section, "metrics", column, Json::as_u64)
}

/// The shared read side of the windowed sections: `section[columns]`
/// maps column names to per-window arrays of `window_ns`/`windows`
/// geometry; columns the section omits stay zero.
fn windows_from_json<T: Copy + Default, const N: usize>(
    section: &Json,
    columns: &str,
    column: impl Fn(&str) -> Option<usize>,
    value: impl Fn(&Json) -> Option<T>,
) -> Option<Windowed<[T; N]>> {
    let window_ns = section.get("window_ns")?.as_u64()?;
    let n = section.get("windows")?.as_u64()? as usize;
    let mut windows = vec![[T::default(); N]; n];
    if let Some(Json::O(members)) = section.get(columns) {
        for (name, arr) in members {
            let col = column(name)?;
            let values = arr.as_array()?;
            if values.len() != n {
                return None;
            }
            for (w, v) in windows.iter_mut().zip(values) {
                w[col] = value(v)?;
            }
        }
    }
    Some(Windowed { window_ns, windows })
}

/// Merged gauge plane → the report `health` section. Emits the window
/// geometry, per-window *net deltas* for every gauge that moved (the
/// mergeable encoding), and a per-gauge level summary (final/min/max
/// window-end levels) so readers and validators get levels without
/// redoing the prefix sums. An empty snapshot renders as the
/// well-formed zero-window section every schema-v3 report carries.
pub fn health_json(h: &HealthSnapshot) -> Json {
    let mut deltas = Vec::new();
    let mut levels = Vec::new();
    for g in Gauge::ALL {
        if h.deltas(g).iter().all(|&d| d == 0) {
            continue;
        }
        deltas.push((
            g.name().to_string(),
            Json::A(h.deltas(g).into_iter().map(Json::I).collect()),
        ));
        levels.push((
            g.name().to_string(),
            Json::obj(vec![
                ("final", Json::I(h.final_level(g))),
                ("min", Json::I(h.min_level(g))),
                ("max", Json::I(h.max_level(g))),
            ]),
        ));
    }
    Json::obj(vec![
        ("window_ns", Json::U(h.window_ns)),
        ("windows", Json::U(h.len() as u64)),
        ("deltas", Json::O(deltas)),
        ("levels", Json::O(levels)),
    ])
}

/// Rebuild a [`HealthSnapshot`] from a parsed `health` section — the
/// read side of [`health_json`], used by validators.
pub fn health_from_json(section: &Json) -> Option<HealthSnapshot> {
    let column = |name: &str| Gauge::from_name(name).map(|g| g as usize);
    windows_from_json(section, "deltas", column, Json::as_i64)
}

/// Watchdog log → the report `alerts` section: the event count and the
/// full typed log in sequence order. Deterministic rendering — same
/// run, byte-identical section.
pub fn alerts_json(events: &[AlertEvent]) -> Json {
    let rendered = events
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("seq", Json::U(e.seq)),
                ("kind", Json::S(e.kind.name().to_string())),
                ("state", Json::S(e.state.name().to_string())),
                ("at_ns", Json::U(e.at_ns)),
                ("value", Json::F(e.value)),
                ("threshold", Json::F(e.threshold)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("count", Json::U(events.len() as u64)),
        ("events", Json::A(rendered)),
    ])
}

/// Rebuild the typed alert log from a parsed `alerts` section — the
/// read side of [`alerts_json`], used by validators.
pub fn alerts_from_json(section: &Json) -> Option<Vec<AlertEvent>> {
    let events = section.get("events")?.as_array()?;
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        let state = match e.get("state")?.as_str()? {
            "open" => AlertState::Open,
            "clear" => AlertState::Clear,
            _ => return None,
        };
        out.push(AlertEvent {
            seq: e.get("seq")?.as_u64()?,
            kind: AlertKind::from_name(e.get("kind")?.as_str()?)?,
            state,
            at_ns: e.get("at_ns")?.as_u64()?,
            value: e.get("value")?.as_f64()?,
            threshold: e.get("threshold")?.as_f64()?,
        });
    }
    Some(out)
}

/// Phase snapshot → JSON: per-phase `{ns, share, verbs, wire_rts}` for
/// every bucket (including `other`), shares summing to 1.0.
pub fn phases_json(p: &PhaseSnapshot) -> Json {
    let total = p.total_ns();
    let members = (0..=OTHER_BUCKET)
        .map(|i| {
            let share = if total == 0 {
                0.0
            } else {
                p.ns[i] as f64 / total as f64
            };
            (
                bucket_name(i).to_string(),
                Json::obj(vec![
                    ("ns", Json::U(p.ns[i])),
                    ("share", Json::F(share)),
                    ("verbs", Json::U(p.verbs[i])),
                    ("wire_rts", Json::U(p.wire_rts[i])),
                ]),
            )
        })
        .collect();
    Json::O(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::span::{Phase, PhaseTracker, Sample};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("telemetry-report-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn report_round_trips_and_is_deterministic() {
        let dir = tmpdir("rt");
        let summary = dir.join("BENCH_summary.json");
        let mut r = Report::new("exp_test", "a test");
        r.meta("nodes", Json::U(4));
        r.row("point0", vec![("tps", Json::F(123.5))]);
        r.headline("tps", Json::F(123.5));
        let path = r.write(&dir, &summary).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&first).unwrap();
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("exp_test"));
        assert_eq!(doc.get("rows").unwrap().as_array().unwrap().len(), 1);
        // Identical second write → byte-identical files.
        r.write(&dir, &summary).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_merges_and_sorts() {
        let dir = tmpdir("merge");
        let summary = dir.join("BENCH_summary.json");
        merge_summary(&summary, "exp_b", Json::obj(vec![("tps", Json::U(1))])).unwrap();
        merge_summary(&summary, "exp_a", Json::obj(vec![("tps", Json::U(2))])).unwrap();
        // Overwrite exp_b; exp_a must survive, order must be sorted.
        merge_summary(&summary, "exp_b", Json::obj(vec![("tps", Json::U(3))])).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&summary).unwrap()).unwrap();
        let exps = doc.get("experiments").unwrap();
        match exps {
            Json::O(members) => {
                let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(names, ["exp_a", "exp_b"]);
            }
            _ => panic!("experiments is not an object"),
        }
        assert_eq!(
            exps.get("exp_b").unwrap().get("tps").unwrap().as_u64(),
            Some(3)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hist_json_has_percentile_ladder() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let j = hist_json(&h.snapshot());
        assert_eq!(j.get("count").unwrap().as_u64(), Some(1000));
        assert!(j.get("p99_ns").unwrap().as_u64().unwrap() >= 970);
    }

    #[test]
    fn series_json_round_trips_and_skips_silent_metrics() {
        use crate::timeseries::{Metric, SeriesRecorder};
        let r = SeriesRecorder::new();
        r.enable(100);
        r.note(50, Metric::Commits, 3);
        r.note(250, Metric::Commits, 1);
        r.note(250, Metric::WireRts, 7);
        let snap = r.snapshot();
        let j = series_json(&snap, 260);
        assert_eq!(j.get("window_ns").unwrap().as_u64(), Some(100));
        assert_eq!(j.get("windows").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("makespan_ns").unwrap().as_u64(), Some(260));
        let starts = j.get("window_starts_ns").unwrap().as_array().unwrap();
        assert_eq!(starts.len(), 3);
        assert_eq!(starts[2].as_u64(), Some(200));
        // Metrics that never fired are omitted.
        assert!(j.get("metrics").unwrap().get("cache_hits").is_none());
        assert_eq!(
            j.get("totals").unwrap().get("commits").unwrap().as_u64(),
            Some(4)
        );
        // Parse side reconstructs the identical snapshot.
        let parsed = Json::parse(&j.render_pretty(2)).unwrap();
        assert_eq!(series_from_json(&parsed), Some(snap));
    }

    #[test]
    fn every_report_carries_wellformed_health_and_alerts() {
        let r = Report::new("exp_plain", "no live plane wired");
        let doc = r.to_json();
        assert_eq!(doc.get("schema_version").unwrap().as_u64(), Some(SCHEMA_VERSION));
        let health = doc.get("health").expect("health is mandatory in v3");
        assert_eq!(health.get("windows").unwrap().as_u64(), Some(0));
        assert_eq!(health_from_json(health), Some(HealthSnapshot::empty()));
        let alerts = doc.get("alerts").expect("alerts is mandatory in v3");
        assert_eq!(alerts.get("count").unwrap().as_u64(), Some(0));
        assert_eq!(alerts_from_json(alerts), Some(vec![]));
        let forensics = doc.get("forensics").expect("forensics is mandatory in v4");
        let sum = crate::forensics::forensics_from_json(forensics).expect("well-formed");
        assert_eq!(sum.txns, 0);
        assert!(sum.worst.is_empty());
        let util = doc.get("utilization").expect("utilization is mandatory in v5");
        let u = crate::utilization::utilization_from_json(util).expect("well-formed");
        assert!(u.is_empty());
        assert_eq!(util.get("windows").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn health_json_round_trips_and_skips_idle_gauges() {
        use crate::live::GaugeRecorder;
        let g = GaugeRecorder::new();
        g.enable(100);
        g.add(10, Gauge::LocksHeld, 1);
        g.add(150, Gauge::LocksHeld, 1);
        g.add(260, Gauge::LocksHeld, -2);
        let snap = g.snapshot();
        let j = health_json(&snap);
        assert_eq!(j.get("window_ns").unwrap().as_u64(), Some(100));
        assert!(j.get("deltas").unwrap().get("pool_resident").is_none());
        let lh = j.get("levels").unwrap().get("locks_held").unwrap();
        assert_eq!(lh.get("final").unwrap().as_i64(), Some(0));
        assert_eq!(lh.get("max").unwrap().as_i64(), Some(2));
        let parsed = Json::parse(&j.render_pretty(2)).unwrap();
        assert_eq!(health_from_json(&parsed), Some(snap));
    }

    #[test]
    fn alerts_json_round_trips_the_typed_log() {
        let events = vec![
            AlertEvent {
                seq: 0,
                kind: AlertKind::ThroughputDip,
                state: AlertState::Open,
                at_ns: 4_096,
                value: 12.5,
                threshold: 50.0,
            },
            AlertEvent {
                seq: 1,
                kind: AlertKind::ThroughputDip,
                state: AlertState::Clear,
                at_ns: 9_216,
                value: 80.0,
                threshold: 50.0,
            },
        ];
        let j = alerts_json(&events);
        assert_eq!(j.get("count").unwrap().as_u64(), Some(2));
        let parsed = Json::parse(&j.render_pretty(2)).unwrap();
        assert_eq!(alerts_from_json(&parsed), Some(events));
    }

    #[test]
    fn phases_json_shares_sum_to_one() {
        let t = PhaseTracker::new();
        t.enter(Phase::PageFetch, Sample { ns: 0, verbs: 0, wire_rts: 0 });
        t.exit(Sample { ns: 70, verbs: 3, wire_rts: 2 });
        t.flush(Sample { ns: 100, verbs: 3, wire_rts: 2 });
        let j = phases_json(&t.snapshot());
        let total: f64 = match &j {
            Json::O(members) => members
                .iter()
                .map(|(_, v)| v.get("share").unwrap().as_f64().unwrap())
                .sum(),
            _ => unreachable!(),
        };
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(
            j.get("page_fetch").unwrap().get("ns").unwrap().as_u64(),
            Some(70)
        );
        assert_eq!(j.get("other").unwrap().get("ns").unwrap().as_u64(), Some(30));
    }
}
