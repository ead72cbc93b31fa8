//! # bench — experiment harnesses for every figure and claim in the paper
//!
//! Each `exp_*` binary regenerates one experiment from DESIGN.md §4
//! (`cargo run --release -p bench --bin exp_<id>`); Criterion
//! microbenchmarks for the hot substrate paths live in `benches/`.
//!
//! This library holds the shared measurement machinery:
//!
//! * [`lockstep`] — drive N logically concurrent virtual clients from one
//!   real thread, interleaving their operations so shared
//!   [`rdma_sim::clock::SharedTimeline`]s see realistic arrival patterns
//!   (sequential per-client loops would serialize behind device tails);
//! * [`run_cluster_workload`] — the real-thread driver for
//!   message-passing architectures (3b coherence, 3c 2PC): every session
//!   runs its share and keeps serving peers until the fleet is done;
//! * [`table`] — fixed-width table printing so experiment output reads
//!   like the paper's tables.

pub mod chaos;
pub mod config;
pub mod heatmap;
pub mod observatory;
pub mod regression;
pub mod reshard;

use std::sync::atomic::{AtomicUsize, Ordering};

use dsmdb::{AbortCause, Cluster, Op, Session, TxnError};
use rdma_sim::{
    ContentionSnapshot, Endpoint, HealthSnapshot, HistSnapshot, PhaseSnapshot, SeriesSnapshot,
    UtilSnapshot, DEFAULT_WINDOW_NS,
};

pub use config::scale_down;
pub use telemetry::{
    sparkline, AlertEvent, AlertKind, AlertState, ForensicsSnapshot, Gauge, Metric, Watchdog,
    WatchdogConfig,
};

/// Flight-recorder ring depth [`run_cluster_workload`] gives each
/// session: deep enough to hold any single transaction's event chain
/// (forensics only reads back the current txn's events), shallow enough
/// to stay cheap at thousands of sessions.
pub const WORKLOAD_TRACE_RING: usize = 1024;

/// Drive `clients` virtual clients in lockstep for `rounds` rounds. The
/// closure runs one operation for one client; returns the makespan (max
/// virtual clock) in nanoseconds.
pub fn lockstep<F>(eps: &[Endpoint], rounds: usize, mut f: F) -> u64
where
    F: FnMut(usize, &Endpoint),
{
    for _ in 0..rounds {
        for (i, ep) in eps.iter().enumerate() {
            f(i, ep);
        }
    }
    eps.iter().map(|e| e.clock().now_ns()).max().unwrap_or(0)
}

/// Typed abort-cause taxonomy. Every aborted attempt is classified by
/// *why* it aborted, so experiment reports can show the abort mix
/// shifting (e.g. validation failures giving way to lock timeouts as
/// contention rises) instead of one opaque count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AbortCauses {
    /// A no-wait lock was held by someone else for the whole retry
    /// budget (`lock-busy`, and the sharded engine's local lock table).
    pub lock_busy: u64,
    /// The lock holder never released within the bounded-retry budget
    /// (likely crashed or stalled).
    pub lock_timeout: u64,
    /// Commit-time validation failed: OCC read-set drift, TSO/MVCC
    /// version conflicts.
    pub validation_fail: u64,
    /// A lease expired mid-transaction and another worker stole the
    /// lock; the ex-owner must not commit.
    pub lease_stolen: u64,
    /// A node the transaction must reach is down (typed
    /// [`TxnError::NodeUnavailable`]).
    pub node_unavailable: u64,
    /// A transient fabric fault leaked past the DSM retry budget.
    pub transient: u64,
    /// Anything else (unclassified CC labels, infrastructure errors).
    pub other: u64,
}

impl AbortCauses {
    /// Tally one failed attempt under its typed cause (the mapping
    /// lives in [`TxnError::cause`], shared with the per-window series).
    pub fn classify(&mut self, e: &TxnError) {
        match e.cause() {
            AbortCause::LockBusy => self.lock_busy += 1,
            AbortCause::LockTimeout => self.lock_timeout += 1,
            AbortCause::ValidationFail => self.validation_fail += 1,
            AbortCause::LeaseStolen => self.lease_stolen += 1,
            AbortCause::NodeUnavailable => self.node_unavailable += 1,
            AbortCause::Transient => self.transient += 1,
            AbortCause::Other => self.other += 1,
        }
    }

    /// Total aborted attempts across all causes.
    pub fn total(&self) -> u64 {
        self.lock_busy
            + self.lock_timeout
            + self.validation_fail
            + self.lease_stolen
            + self.node_unavailable
            + self.transient
            + self.other
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, o: &AbortCauses) {
        self.lock_busy += o.lock_busy;
        self.lock_timeout += o.lock_timeout;
        self.validation_fail += o.validation_fail;
        self.lease_stolen += o.lease_stolen;
        self.node_unavailable += o.node_unavailable;
        self.transient += o.transient;
        self.other += o.other;
    }
}

/// Every mergeable telemetry plane of one run, folded across the
/// sessions and endpoints that fed it. A harness that feeds one plane
/// from an extra source (a health-only endpoint, say) merges into that
/// plane's field directly.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// End-to-end transaction latency distribution (virtual ns),
    /// committed and aborted attempts alike.
    pub latency: HistSnapshot,
    /// Per-phase virtual-time/verb attribution.
    pub phases: PhaseSnapshot,
    /// Hot-key/wait-for/coherence contention profile.
    pub contention: ContentionSnapshot,
    /// Windowed time-series (commits, aborts by cause, verbs, cache,
    /// locks).
    pub series: SeriesSnapshot,
    /// Gauge health plane (net deltas of sessions in flight, locks
    /// held, pool occupancy, outstanding verbs, membership epoch).
    pub health: HealthSnapshot,
    /// Tail-latency forensics: blame-share histogram plus the worst-K
    /// exemplar reservoir.
    pub forensics: ForensicsSnapshot,
    /// Fabric-utilization plane: per-memory-node windowed load,
    /// page-range heat top-K, and session/phase splits.
    pub utilization: UtilSnapshot,
}

impl TelemetrySnapshot {
    /// The planes an endpoint records: contention, series, health and
    /// utilization (each empty while its recorder is off).
    pub(crate) fn of_endpoint(ep: &Endpoint) -> Self {
        Self {
            contention: ep.contention_snapshot(),
            series: ep.series_snapshot(),
            health: ep.health_snapshot(),
            utilization: ep.utilization_snapshot(),
            ..Self::default()
        }
    }

    /// Everything a session recorded: its endpoint's planes plus
    /// latency, phases and forensics.
    pub(crate) fn of_session(s: &Session) -> Self {
        Self {
            latency: s.latency(),
            phases: s.phases(),
            forensics: s.forensics_snapshot(),
            ..Self::of_endpoint(s.endpoint())
        }
    }

    /// Compact sparkline of the windowed commit rate (empty when the
    /// series was not recorded).
    pub fn tps_sparkline(&self, max_chars: usize) -> String {
        sparkline(&self.series.rate_per_sec(Metric::Commits), max_chars)
    }

    /// Replay the series and health planes through the online watchdog
    /// with thresholds `cfg`; `samples` (`(virtual end ns, latency ns)`
    /// per txn) feed the windowed-p99 rule. Empty when the series was
    /// not recorded. The replay is deterministic bookkeeping over
    /// closed windows, so it cannot change any measured number.
    pub fn watchdog_log(
        &self,
        cfg: WatchdogConfig,
        samples: Option<&[(u64, u64)]>,
    ) -> Vec<AlertEvent> {
        if self.series.is_empty() {
            return Vec::new();
        }
        telemetry::watchdog::run_over(cfg, &self.series, Some(&self.health), samples)
    }

    /// Fold `o` in, plane by plane. Every plane's merge is associative
    /// and commutative, so fold order never shows in the result.
    pub fn merge(&mut self, o: &TelemetrySnapshot) {
        self.latency.merge(&o.latency);
        self.phases.merge(&o.phases);
        self.contention.merge(&o.contention);
        self.series.merge(&o.series);
        self.health.merge(&o.health);
        self.forensics.merge(&o.forensics);
        self.utilization.merge(&o.utilization);
    }
}

/// Outcome of a cluster workload run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Committed transactions across all sessions.
    pub commits: u64,
    /// Aborted attempts, by typed cause.
    pub aborts: AbortCauses,
    /// Makespan: max session virtual time, ns.
    pub makespan_ns: u64,
    /// Sum of round trips (verbs) across sessions.
    pub round_trips: u64,
    /// Round trips actually paid on the wire: verbs minus the ops that
    /// rode along in doorbell groups behind their leader.
    pub wire_round_trips: u64,
    /// Concurrent sessions that fed the run (nodes x threads) — the
    /// watchdog's lock-wait budget denominator.
    pub sessions: u32,
    /// Every telemetry plane merged across sessions; the utilization
    /// plane carries occupancy stamps.
    pub telemetry: TelemetrySnapshot,
}

impl WorkloadResult {
    /// Committed transactions per virtual second.
    pub fn tps(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.commits as f64 * 1e9 / self.makespan_ns as f64
        }
    }

    /// Abort ratio over all attempts.
    pub fn abort_rate(&self) -> f64 {
        let aborts = self.aborts.total();
        let total = self.commits + aborts;
        if total == 0 {
            0.0
        } else {
            aborts as f64 / total as f64
        }
    }

    /// Mean round trips (verbs) per committed transaction.
    pub fn rts_per_txn(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.round_trips as f64 / self.commits as f64
        }
    }

    /// Mean *wire* round trips per committed transaction (doorbell
    /// batching collapses a group of verbs into one of these).
    pub fn wire_rts_per_txn(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.wire_round_trips as f64 / self.commits as f64
        }
    }

    /// Transaction-latency percentile ladder `(p50, p95, p99, p999)`,
    /// virtual ns.
    pub fn latency_percentiles(&self) -> (u64, u64, u64, u64) {
        self.telemetry.latency.percentiles()
    }

    /// Fold another session's result in: counts add, the makespan
    /// takes the max.
    fn merge(&mut self, o: &WorkloadResult) {
        self.commits += o.commits;
        self.aborts.merge(&o.aborts);
        self.makespan_ns = self.makespan_ns.max(o.makespan_ns);
        self.round_trips += o.round_trips;
        self.wire_round_trips += o.wire_round_trips;
        self.sessions += o.sessions;
        self.telemetry.merge(&o.telemetry);
    }
}

/// Run `txns_per_session` transactions on every session of `cluster`
/// using real worker threads (needed whenever sessions must answer each
/// other: coherence acks, 2PC votes). `gen` produces the ops for session
/// `(node, thread)`'s `i`-th transaction; aborted transactions retry
/// until they commit (counted).
pub fn run_cluster_workload<G>(
    cluster: &std::sync::Arc<Cluster>,
    txns_per_session: usize,
    gen: G,
) -> WorkloadResult
where
    G: Fn(usize, usize, usize) -> Vec<Op> + Sync,
{
    let nodes = cluster.config().compute_nodes;
    let threads = cluster.config().threads_per_node;
    let total_workers = nodes * threads;
    let finished = AtomicUsize::new(0);
    let mut out = std::thread::scope(|sc| {
        let workers: Vec<_> = (0..nodes)
            .flat_map(|n| (0..threads).map(move |t| (n, t)))
            .map(|(n, t)| {
                let cluster = cluster.clone();
                let gen = &gen;
                let finished = &finished;
                sc.spawn(move || {
                    let mut s: Session = cluster.session(n, t);
                    enable_series(std::slice::from_ref(s.endpoint()));
                    // Stable worker id (1-based; 0 = untagged) for the
                    // by-session heat split.
                    s.endpoint().set_util_session((n * threads + t + 1) as u64);
                    s.endpoint().enable_flight_recorder(WORKLOAD_TRACE_RING);
                    s.enable_forensics(config::EXEMPLARS);
                    let mut mine = WorkloadResult { sessions: 1, ..WorkloadResult::default() };
                    for i in 0..txns_per_session {
                        let ops = gen(n, t, i);
                        loop {
                            match s.execute(&ops) {
                                Ok(_) => {
                                    mine.commits += 1;
                                    break;
                                }
                                Err(e @ TxnError::Aborted(_)) => {
                                    mine.aborts.classify(&e);
                                    s.serve_pending(8);
                                    // Real-thread fairness: give the lock
                                    // holder a chance instead of spinning
                                    // it off the CPU.
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("workload failed: {e}"),
                            }
                        }
                    }
                    finished.fetch_add(1, Ordering::Release);
                    while finished.load(Ordering::Acquire) < total_workers {
                        if !s.serve_pending(16) {
                            std::thread::yield_now();
                        }
                    }
                    s.serve_pending(usize::MAX >> 1);
                    mine.makespan_ns = s.endpoint().clock().now_ns();
                    let snap = s.endpoint().stats();
                    mine.round_trips = snap.round_trips();
                    mine.wire_round_trips = snap.wire_round_trips();
                    mine.telemetry = TelemetrySnapshot::of_session(&s);
                    mine
                })
            })
            .collect();
        let mut out = WorkloadResult::default();
        for w in workers {
            out.merge(&w.join().expect("workload session panicked"));
        }
        out
    });
    // Occupancy is allocator state, not fabric flow: stamp it onto the
    // merged snapshot from the layer that owns the memory nodes (cold
    // groups get idle tracks, which is what imbalance-over-occupancy
    // needs to see).
    let layer = cluster.layer();
    for g in 0..layer.group_count() {
        let primary = layer.group_primary(g);
        let stats = primary.alloc_stats();
        out.telemetry
            .utilization
            .stamp_occupancy(primary.id() as u64, stats.capacity, stats.allocated);
    }
    out
}

/// Turn on windowed time-series sampling and gauge health (default
/// width) on every endpoint of an endpoint-level run. Sampling reads
/// the virtual clock but never advances it, so enabling this cannot
/// perturb the run.
pub fn enable_series(eps: &[Endpoint]) {
    for ep in eps {
        ep.enable_timeseries(DEFAULT_WINDOW_NS);
        ep.enable_health(DEFAULT_WINDOW_NS);
        ep.enable_utilization(DEFAULT_WINDOW_NS);
    }
}

/// Merge the telemetry planes recorded by `eps` (for runs that drive
/// endpoints directly instead of going through
/// [`run_cluster_workload`]). Occupancy is not stamped here — callers
/// that own the allocators stamp it onto the utilization plane.
pub fn merged(eps: &[Endpoint]) -> TelemetrySnapshot {
    let mut m = TelemetrySnapshot::default();
    for ep in eps {
        m.merge(&TelemetrySnapshot::of_endpoint(ep));
    }
    m
}

/// Machine-readable experiment output: every `exp_*` binary builds a
/// [`telemetry::Report`] alongside its printed table and calls
/// [`report::emit`], which writes `results/<experiment>.json` and folds
/// the headline into `results/BENCH_summary.json`.
pub mod report {
    use std::path::PathBuf;

    pub use telemetry::report::{
        alerts_from_json, alerts_json, health_from_json, health_json, hist_json, phases_json,
        series_from_json, series_json,
    };
    pub use telemetry::{
        forensics_from_json, forensics_json, move_plan_from_json, move_plan_json,
        utilization_from_json, utilization_json, Json, Report,
    };

    use crate::{AbortCauses, TelemetrySnapshot, WatchdogConfig, WorkloadResult};

    /// Where reports land: `$BENCH_RESULTS_DIR`, defaulting to
    /// `results/` under the current directory.
    pub fn results_dir() -> PathBuf {
        crate::config::results_dir()
    }

    /// Write `report` and merge its headline into `BENCH_summary.json`.
    pub fn emit(report: &Report) {
        let dir = results_dir();
        let summary = dir.join("BENCH_summary.json");
        match report.write(&dir, &summary) {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write report: {e}"),
        }
    }

    /// Per-cause abort tally as a JSON object (fixed key order).
    pub fn abort_causes_json(a: &AbortCauses) -> Json {
        Json::obj(vec![
            ("lock_busy", Json::U(a.lock_busy)),
            ("lock_timeout", Json::U(a.lock_timeout)),
            ("validation_fail", Json::U(a.validation_fail)),
            ("lease_stolen", Json::U(a.lease_stolen)),
            ("node_unavailable", Json::U(a.node_unavailable)),
            ("transient", Json::U(a.transient)),
            ("other", Json::U(a.other)),
        ])
    }

    /// The standard metrics object for one workload run: throughput,
    /// aborts (total + per-cause), round trips, the latency ladder, the
    /// phase breakdown, and the contention profile.
    pub fn workload_json(r: &WorkloadResult) -> Json {
        Json::obj(vec![
            ("commits", Json::U(r.commits)),
            ("aborts", Json::U(r.aborts.total())),
            ("abort_rate", Json::F(r.abort_rate())),
            ("abort_causes", abort_causes_json(&r.aborts)),
            ("makespan_ns", Json::U(r.makespan_ns)),
            ("tps", Json::F(r.tps())),
            ("rts_per_txn", Json::F(r.rts_per_txn())),
            ("wire_rts_per_txn", Json::F(r.wire_rts_per_txn())),
            ("latency", hist_json(&r.telemetry.latency)),
            ("phases", phases_json(&r.telemetry.phases)),
            ("contention", r.telemetry.contention.to_json()),
        ])
    }

    /// Install the standard headline block for the run the experiment
    /// considers its flagship configuration: tps, the latency ladder
    /// through p999 and max (p99 alone hides the exemplars the
    /// forensics section exists for), wire round trips per txn, and
    /// phase shares — and attach the flagship run's windowed
    /// time-series, health plane, watchdog alert log, and forensics as
    /// the report's schema-v3/v4 sections.
    pub fn standard_headline(rep: &mut Report, r: &WorkloadResult) {
        let t = &r.telemetry;
        let (p50, _p95, p99, p999) = t.latency.percentiles();
        rep.headline("tps", Json::F(r.tps()));
        rep.headline("p50_ns", Json::U(p50));
        rep.headline("p99_ns", Json::U(p99));
        rep.headline("p999_ns", Json::U(p999));
        rep.headline("max_ns", Json::U(t.latency.max()));
        rep.headline("wire_rts_per_txn", Json::F(r.wire_rts_per_txn()));
        rep.headline("phases", phases_json(&t.phases));
        attach_planes(rep, t, r.makespan_ns, r.sessions);
        rep.forensics(forensics_json(&t.forensics));
        rep.utilization(utilization_json(&t.utilization));
    }

    /// Attach a flagship run's windowed planes: the series (spanning
    /// `makespan_ns`), the gauge health plane, and a default-threshold
    /// watchdog replay over both, with `sessions` as the lock-wait
    /// budget denominator. Flagship runs only: per-row series would
    /// multiply report size without adding a claim.
    pub fn attach_planes(rep: &mut Report, t: &TelemetrySnapshot, makespan_ns: u64, sessions: u32) {
        let cfg = WatchdogConfig::new(t.series.window_ns, sessions);
        rep.timeseries(series_json(&t.series, makespan_ns));
        rep.health(health_json(&t.health));
        rep.alerts(alerts_json(&t.watchdog_log(cfg, None)));
    }

    /// [`attach_planes`] for an endpoint-level flagship run (one
    /// "session" per endpoint), plus the merged utilization.
    pub fn attach_endpoint_planes(
        rep: &mut Report,
        eps: &[rdma_sim::Endpoint],
        makespan_ns: u64,
    ) {
        let t = crate::merged(eps);
        attach_planes(rep, &t, makespan_ns, eps.len() as u32);
        rep.utilization(utilization_json(&t.utilization));
    }
}

/// Fixed-width table printing.
pub mod table {
    /// Print a header row plus separator.
    pub fn header(cols: &[&str]) {
        let row = cols
            .iter()
            .map(|c| format!("{c:>14}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!("{row}");
        println!("{}", "-".repeat(row.len()));
    }

    /// Print one data row.
    pub fn row(cells: &[String]) {
        println!(
            "{}",
            cells
                .iter()
                .map(|c| format!("{c:>14}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    /// Format helpers.
    pub fn f2(x: f64) -> String {
        format!("{x:.2}")
    }
    /// One-decimal float.
    pub fn f1(x: f64) -> String {
        format!("{x:.1}")
    }
    /// Integer with thousands grouping.
    pub fn n(x: u64) -> String {
        let s = x.to_string();
        let mut out = String::new();
        for (i, c) in s.chars().rev().enumerate() {
            if i > 0 && i % 3 == 0 {
                out.push(',');
            }
            out.push(c);
        }
        out.chars().rev().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmdb::{Architecture, CcProtocol, ClusterConfig};
    use rdma_sim::NetworkProfile;

    #[test]
    fn lockstep_returns_max_clock() {
        let fabric = rdma_sim::Fabric::new(NetworkProfile::zero());
        let eps: Vec<Endpoint> = (0..3).map(|_| fabric.endpoint()).collect();
        let makespan = lockstep(&eps, 10, |i, ep| ep.charge_local((i as u64 + 1) * 10));
        assert_eq!(makespan, 10 * 30);
    }

    #[test]
    fn run_cluster_workload_counts_commits() {
        let cluster = Cluster::build(ClusterConfig {
            compute_nodes: 2,
            threads_per_node: 1,
            n_records: 32,
            payload_size: 16,
            profile: NetworkProfile::rdma_cx6(),
            architecture: Architecture::NoCacheNoShard,
            cc: CcProtocol::Occ,
            ..Default::default()
        })
        .unwrap();
        let r = run_cluster_workload(&cluster, 50, |n, _t, i| {
            vec![Op::Rmw {
                key: ((n * 50 + i) % 32) as u64,
                delta: 1,
            }]
        });
        assert_eq!(r.commits, 100);
        assert!(r.makespan_ns > 0);
        assert!(r.tps() > 0.0);
        // The merged series must agree with the aggregate counters.
        let (series, health) = (&r.telemetry.series, &r.telemetry.health);
        assert_eq!(series.total(Metric::Commits), r.commits);
        assert_eq!(series.total(Metric::Aborts), r.aborts.total());
        assert!(!r.telemetry.tps_sparkline(24).is_empty());
        // The health plane rode along: sessions entered and left, and
        // the cluster-level gauges return to zero at the end.
        assert_eq!(r.sessions, 2);
        assert!(!health.is_empty());
        assert_eq!(health.final_level(Gauge::SessionsInFlight), 0);
        assert_eq!(health.final_level(Gauge::LocksHeld), 0);
        assert!(health.min_level(Gauge::SessionsInFlight) >= 0);
        assert!(health.max_level(Gauge::SessionsInFlight) >= 1);
    }

    #[test]
    fn table_number_grouping() {
        assert_eq!(table::n(1_234_567), "1,234,567");
        assert_eq!(table::n(42), "42");
    }
}
