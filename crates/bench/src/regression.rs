//! The CI perf-regression gate: compare a freshly generated
//! `BENCH_summary.json` against a committed baseline with one-sided
//! tolerance bands. Every workload in this repo runs on the virtual
//! clock. The 15 single-threaded experiments (c1, c4–c9, c13, e1, f1,
//! o1–o5) reproduce byte for byte at equal scale, so for them a breach
//! means a real change to round trips, batching, or protocol behaviour,
//! not noise. The other 8 (a1, c2, c3, c10, c11, c12, f2, f3) drive
//! real threads whose interleaving moves their headlines by a few
//! percent between same-seed runs, so for them a breach can be jitter.
//!
//! Gated metrics (only regressions trip; improvements pass silently):
//!
//! | metric                          | direction     | band  |
//! |---------------------------------|---------------|-------|
//! | `tps`, `*_tps`                  | higher better | −5%   |
//! | `wire_rts_per_txn`              | lower better  | +2%   |
//! | `p99_ns`                        | lower better  | +10%  |
//! | `critical_path_wire_share`      | lower better  | +10%  |
//! | `time_to_recovery_ns`           | lower better  | +25%  |
//! | `dip_depth`                     | lower better  | +25%  |
//!
//! `time_to_recovery_ns` and `dip_depth` come out of the windowed
//! time-series (one window of quantization either way), so their bands
//! are wider than the scalar metrics'.
//!
//! Experiments present in the baseline but absent from the fresh
//! summary also fail the gate: a silently vanished experiment is the
//! easiest way to fake green.

use telemetry::Json;

/// Which way "better" points for a gated metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput); regression = drop below band.
    HigherBetter,
    /// Smaller is better (latency, round trips); regression = rise
    /// above band.
    LowerBetter,
}

/// The band for a headline metric, or `None` if the metric is not
/// gated (counters, shares, and shape metrics vary legitimately).
pub fn band_for(metric: &str) -> Option<(Direction, f64)> {
    if metric == "tps" || metric.ends_with("_tps") {
        Some((Direction::HigherBetter, 0.05))
    } else if metric == "wire_rts_per_txn" {
        Some((Direction::LowerBetter, 0.02))
    } else if metric == "p99_ns" || metric == "critical_path_wire_share" {
        Some((Direction::LowerBetter, 0.10))
    } else if metric == "time_to_recovery_ns" || metric == "dip_depth" {
        Some((Direction::LowerBetter, 0.25))
    } else {
        None
    }
}

/// One tripped band.
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    /// Experiment the metric belongs to.
    pub experiment: String,
    /// Metric name.
    pub metric: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// The value the band allowed (worst acceptable).
    pub allowed: f64,
}

impl std::fmt::Display for Breach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}: fresh {:.4} vs baseline {:.4} (allowed {:.4})",
            self.experiment, self.metric, self.fresh, self.baseline, self.allowed
        )
    }
}

/// Outcome of a baseline-vs-fresh comparison.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct GateOutcome {
    /// Bands tripped.
    pub breaches: Vec<Breach>,
    /// `experiment` or `experiment/metric` entries gated in the
    /// baseline but missing from the fresh summary.
    pub missing: Vec<String>,
    /// Gated metrics compared and found inside their bands.
    pub checked: usize,
}

impl GateOutcome {
    /// True when the gate passes.
    pub fn ok(&self) -> bool {
        self.breaches.is_empty() && self.missing.is_empty()
    }
}

fn experiments(summary: &Json) -> Option<&Vec<(String, Json)>> {
    match summary.get("experiments") {
        Some(Json::O(members)) => Some(members),
        _ => None,
    }
}

/// Compare two parsed `BENCH_summary.json` documents.
pub fn compare(baseline: &Json, fresh: &Json) -> Result<GateOutcome, String> {
    let base_exps = experiments(baseline).ok_or("baseline has no `experiments` object")?;
    let fresh_root = experiments(fresh).ok_or("fresh summary has no `experiments` object")?;
    let mut out = GateOutcome::default();
    for (exp, base_metrics) in base_exps {
        let base_metrics = match base_metrics {
            Json::O(m) => m,
            _ => continue,
        };
        let gated: Vec<_> = base_metrics
            .iter()
            .filter_map(|(k, v)| {
                band_for(k).and_then(|band| v.as_f64().map(|b| (k, b, band)))
            })
            .collect();
        if gated.is_empty() {
            continue;
        }
        let Some(fresh_metrics) = fresh_root.iter().find(|(k, _)| k == exp).map(|(_, v)| v)
        else {
            out.missing.push(exp.clone());
            continue;
        };
        for (metric, base, (dir, tol)) in gated {
            let Some(fresh_v) = fresh_metrics.get(metric).and_then(Json::as_f64) else {
                out.missing.push(format!("{exp}/{metric}"));
                continue;
            };
            let allowed = match dir {
                Direction::HigherBetter => base * (1.0 - tol),
                Direction::LowerBetter => base * (1.0 + tol),
            };
            let breached = match dir {
                Direction::HigherBetter => fresh_v < allowed,
                Direction::LowerBetter => fresh_v > allowed,
            };
            if breached {
                out.breaches.push(Breach {
                    experiment: exp.clone(),
                    metric: metric.clone(),
                    baseline: base,
                    fresh: fresh_v,
                    allowed,
                });
            } else {
                out.checked += 1;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(rows: &[(&str, &[(&str, f64)])]) -> Json {
        Json::obj(vec![(
            "experiments",
            Json::O(
                rows.iter()
                    .map(|(exp, metrics)| {
                        (
                            exp.to_string(),
                            Json::O(
                                metrics
                                    .iter()
                                    .map(|(k, v)| (k.to_string(), Json::F(*v)))
                                    .collect(),
                            ),
                        )
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn identical_summaries_pass() {
        let s = summary(&[("e1", &[("tps", 1000.0), ("p99_ns", 5000.0), ("steals", 3.0)])]);
        let out = compare(&s, &s).unwrap();
        assert!(out.ok());
        assert_eq!(out.checked, 2); // steals is not gated
    }

    #[test]
    fn small_drift_inside_bands_passes() {
        let base = summary(&[("e1", &[("tps", 1000.0), ("wire_rts_per_txn", 2.0)])]);
        let fresh = summary(&[("e1", &[("tps", 960.0), ("wire_rts_per_txn", 2.03)])]);
        assert!(compare(&base, &fresh).unwrap().ok());
    }

    #[test]
    fn tps_drop_beyond_band_fails() {
        let base = summary(&[("e1", &[("tps", 1000.0)])]);
        let fresh = summary(&[("e1", &[("tps", 940.0)])]);
        let out = compare(&base, &fresh).unwrap();
        assert_eq!(out.breaches.len(), 1);
        assert_eq!(out.breaches[0].metric, "tps");
    }

    #[test]
    fn improvements_pass_even_when_large() {
        let base = summary(&[("e1", &[("tps", 1000.0), ("p99_ns", 5000.0)])]);
        let fresh = summary(&[("e1", &[("tps", 2000.0), ("p99_ns", 2000.0)])]);
        assert!(compare(&base, &fresh).unwrap().ok());
    }

    #[test]
    fn p99_and_wire_rts_rises_fail() {
        let base = summary(&[("e1", &[("p99_ns", 5000.0), ("wire_rts_per_txn", 2.0)])]);
        let fresh = summary(&[("e1", &[("p99_ns", 5600.0), ("wire_rts_per_txn", 2.1)])]);
        assert_eq!(compare(&base, &fresh).unwrap().breaches.len(), 2);
    }

    #[test]
    fn time_to_recovery_gates_chaos_runs() {
        let base = summary(&[("c13", &[("time_to_recovery_ns", 4_000_000.0)])]);
        let inside = summary(&[("c13", &[("time_to_recovery_ns", 4_900_000.0)])]);
        assert!(compare(&base, &inside).unwrap().ok());
        let outside = summary(&[("c13", &[("time_to_recovery_ns", 5_100_000.0)])]);
        let out = compare(&base, &outside).unwrap();
        assert_eq!(out.breaches.len(), 1);
        assert_eq!(out.breaches[0].metric, "time_to_recovery_ns");
    }

    #[test]
    fn dip_depth_gates_reshard_runs() {
        let base = summary(&[("e1", &[("dip_depth", 0.40)])]);
        let inside = summary(&[("e1", &[("dip_depth", 0.49)])]);
        assert!(compare(&base, &inside).unwrap().ok());
        let outside = summary(&[("e1", &[("dip_depth", 0.51)])]);
        let out = compare(&base, &outside).unwrap();
        assert_eq!(out.breaches.len(), 1);
        assert_eq!(out.breaches[0].metric, "dip_depth");
    }

    #[test]
    fn critical_path_wire_share_rise_fails() {
        let base = summary(&[("o4", &[("critical_path_wire_share", 0.50)])]);
        let inside = summary(&[("o4", &[("critical_path_wire_share", 0.54)])]);
        assert!(compare(&base, &inside).unwrap().ok());
        let outside = summary(&[("o4", &[("critical_path_wire_share", 0.56)])]);
        let out = compare(&base, &outside).unwrap();
        assert_eq!(out.breaches.len(), 1);
        assert_eq!(out.breaches[0].metric, "critical_path_wire_share");
    }

    #[test]
    fn vanished_experiment_or_metric_fails() {
        let base = summary(&[
            ("e1", &[("tps", 1000.0)] as &[_]),
            ("e2", &[("pre_tps", 500.0)] as &[_]),
        ]);
        let fresh = summary(&[("e2", &[("steals", 1.0)])]);
        let out = compare(&base, &fresh).unwrap();
        assert!(!out.ok());
        assert_eq!(out.missing, vec!["e1".to_string(), "e2/pre_tps".to_string()]);
    }

    #[test]
    fn ungated_experiments_are_skipped_entirely() {
        let base = summary(&[("e1", &[("lost_writes", 0.0)])]);
        let fresh = summary(&[]);
        assert!(compare(&base, &fresh).unwrap().ok());
    }
}
