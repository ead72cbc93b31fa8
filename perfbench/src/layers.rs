//! The metrics: what each one is, where it is read, and, for per-layer
//! metrics, which end-to-end metric on which workload it should move.
//!
//! These tables are the source of truth; `BENCHMARK.json` lists the
//! same names, units and directions, and a test keeps them in step.

use std::collections::BTreeMap;

use rdma_sim::Phase;
use telemetry::forensics::Blame;

use crate::ladder::{self, Ladder};
use crate::pass::{percentile, ClientWindow, Marks, BUCKETS};
use crate::trace::SpanStat;

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// What it is.
    pub what: &'static str,
}

/// Every end-to-end metric, in output order.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "v_tput_ops",
        unit: "1/s",
        better: "higher",
        what: "requests completed per virtual second over the window",
    },
    EndToEnd {
        name: "v_lat_mean_us",
        unit: "us",
        better: "lower",
        what: "mean virtual request latency, first attempt to commit",
    },
    EndToEnd {
        name: "v_lat_tail_us",
        unit: "us",
        better: "lower",
        what: "mean virtual latency of the slowest 5% of requests",
    },
    EndToEnd {
        name: "wire_rts_per_op",
        unit: "rts/op",
        better: "lower",
        what: "wire round trips per request; a doorbell group counts once",
    },
    EndToEnd {
        name: "commit_ratio",
        unit: "ratio",
        better: "higher",
        what: "committed attempts / attempts (1 - abort rate)",
    },
    EndToEnd {
        name: "success_ratio",
        unit: "ratio",
        better: "higher",
        what: "requests that completed correctly / requests attempted (1 - fail rate)",
    },
    EndToEnd {
        name: "host_ops_per_s",
        unit: "1/s",
        better: "higher",
        what: "median over 0.5 s host slices of requests completed, planes on, scaled to the reference host",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        what: "median host seconds of build + load + warm-up",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        what: "peak resident memory of the process",
    },
];

/// A per-layer metric and the end-to-end metric it should move.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Layer (crate) it measures.
    pub layer: &'static str,
    /// Public function it is read from.
    pub source: &'static str,
    /// End-to-end metric and workload it should move.
    pub moves: &'static str,
}

macro_rules! lm {
    ($name:literal, $unit:literal, $better:literal, $layer:literal, $source:literal, $moves:literal) => {
        LayerMetric {
            name: $name,
            unit: $unit,
            better: $better,
            layer: $layer,
            source: $source,
            moves: $moves,
        }
    };
}

/// Every per-layer metric, in output order. Window figures are virtual
/// and taken over the same window as the end-to-end ones.
pub const PER_LAYER: [LayerMetric; 48] = [
    lm!(
        "verbs_per_op",
        "verbs/op",
        "lower",
        "rdma-sim",
        "Endpoint::stats round_trips",
        "wire_rts_per_op on onesided_oltp"
    ),
    lm!(
        "cas_fail_ratio",
        "ratio",
        "lower",
        "rdma-sim",
        "Endpoint::stats cas_failures/cas",
        "commit_ratio on onesided_oltp"
    ),
    lm!(
        "doorbell_batch_mean",
        "verbs",
        "higher",
        "rdma-sim",
        "StatsSnapshot::mean_batch_size",
        "wire_rts_per_op on cached_readmostly"
    ),
    lm!(
        "bytes_per_op",
        "B/op",
        "lower",
        "rdma-sim",
        "StatsSnapshot::total_bytes",
        "wire_rts_per_op on cached_readmostly"
    ),
    lm!(
        "msgs_per_op",
        "msgs/op",
        "lower",
        "rdma-sim",
        "Endpoint::stats sends+recvs",
        "v_tput_ops on sharded_2pc"
    ),
    lm!(
        "lock_acquire_vshare",
        "share",
        "lower",
        "txn",
        "Endpoint::phase_snapshot LockAcquire ns",
        "v_tput_ops and v_lat_tail_us on onesided_oltp"
    ),
    lm!(
        "lock_verbs_per_op",
        "verbs/op",
        "lower",
        "txn",
        "Endpoint::phase_snapshot LockAcquire verbs",
        "v_tput_ops on onesided_oltp"
    ),
    lm!(
        "lock_wait_ns_per_op",
        "ns/op",
        "lower",
        "txn",
        "Endpoint::contention_snapshot wait_ns_total",
        "v_lat_tail_us on onesided_oltp"
    ),
    lm!(
        "aborts_lock_busy",
        "count",
        "lower",
        "txn",
        "Session::execute Err cause LockBusy",
        "commit_ratio on onesided_oltp"
    ),
    lm!(
        "aborts_lock_timeout",
        "count",
        "lower",
        "txn",
        "Session::execute Err cause LockTimeout",
        "commit_ratio on onesided_oltp"
    ),
    lm!(
        "aborts_validation",
        "count",
        "lower",
        "txn",
        "Session::execute Err cause ValidationFail",
        "commit_ratio on onesided_oltp"
    ),
    lm!(
        "aborts_other",
        "count",
        "lower",
        "txn",
        "Session::execute Err, every other cause",
        "commit_ratio on sharded_2pc"
    ),
    lm!(
        "twopc_vshare",
        "share",
        "lower",
        "txn",
        "Endpoint::phase_snapshot TwoPcPrepare+TwoPcDecide ns",
        "v_lat_mean_us on sharded_2pc"
    ),
    lm!(
        "hit_rate",
        "ratio",
        "higher",
        "buffer",
        "Endpoint::series_snapshot CacheHits/(CacheHits+CacheMisses)",
        "v_tput_ops and wire_rts_per_op on cached_readmostly"
    ),
    lm!(
        "cache_hits",
        "count",
        "higher",
        "buffer",
        "Endpoint::series_snapshot CacheHits",
        "v_tput_ops on cached_readmostly"
    ),
    lm!(
        "cache_misses",
        "count",
        "lower",
        "buffer",
        "Endpoint::series_snapshot CacheMisses",
        "wire_rts_per_op on cached_readmostly"
    ),
    lm!(
        "evictions_per_op",
        "1/op",
        "lower",
        "buffer",
        "Endpoint::series_snapshot Evictions",
        "wire_rts_per_op on cached_readmostly"
    ),
    lm!(
        "writebacks_per_op",
        "1/op",
        "lower",
        "buffer",
        "Endpoint::series_snapshot Writebacks",
        "wire_rts_per_op on cached_readmostly"
    ),
    lm!(
        "page_fetch_vshare",
        "share",
        "lower",
        "buffer",
        "Endpoint::phase_snapshot PageFetch ns",
        "v_tput_ops on cached_readmostly"
    ),
    lm!(
        "cross_shard_share",
        "share",
        "lower",
        "dsmdb",
        "Session::stats cross_shard",
        "v_tput_ops on sharded_2pc"
    ),
    lm!(
        "served_subtxns_per_op",
        "1/op",
        "lower",
        "dsmdb",
        "Session::stats served_subtxns",
        "v_tput_ops on sharded_2pc"
    ),
    lm!(
        "execute_host_ns_p50",
        "ns",
        "lower",
        "dsmdb",
        "span around Session::execute (the index calls on index_kv)",
        "host_ops_per_s on every workload"
    ),
    lm!(
        "execute_host_ns_p99",
        "ns",
        "lower",
        "dsmdb",
        "span around Session::execute (the index calls on index_kv)",
        "host_ops_per_s on every workload"
    ),
    lm!(
        "race_get_host_ns",
        "ns",
        "lower",
        "index",
        "ladder: RaceHash::get",
        "host_ops_per_s on index_kv"
    ),
    lm!(
        "race_put_host_ns",
        "ns",
        "lower",
        "index",
        "ladder: RaceHash::put",
        "host_ops_per_s on index_kv"
    ),
    lm!(
        "btree_scan_host_ns",
        "ns",
        "lower",
        "index",
        "ladder: RemoteBTree::scan of 16",
        "host_ops_per_s on index_kv"
    ),
    lm!(
        "verbs_per_get",
        "verbs",
        "lower",
        "index",
        "ladder: Endpoint::stats over RaceHash::get",
        "wire_rts_per_op on index_kv"
    ),
    lm!(
        "verbs_per_scan",
        "verbs",
        "lower",
        "index",
        "ladder: Endpoint::stats over RemoteBTree::scan",
        "wire_rts_per_op on index_kv"
    ),
    lm!(
        "bytes_per_user_byte",
        "ratio",
        "lower",
        "memnode",
        "DsmLayer::pool_stats allocated (MemoryNode::alloc_stats)",
        "peak_rss_mib on every workload"
    ),
    lm!(
        "blame_lock_wait",
        "share",
        "lower",
        "blame",
        "Session::forensics_snapshot lock_wait",
        "v_lat_tail_us on onesided_oltp and sharded_2pc"
    ),
    lm!(
        "blame_remote_fetch",
        "share",
        "lower",
        "blame",
        "Session::forensics_snapshot remote_fetch",
        "v_lat_tail_us on onesided_oltp and sharded_2pc"
    ),
    lm!(
        "blame_two_pc",
        "share",
        "lower",
        "blame",
        "Session::forensics_snapshot two_pc",
        "v_lat_tail_us on sharded_2pc"
    ),
    lm!(
        "blame_backoff_retry",
        "share",
        "lower",
        "blame",
        "Session::forensics_snapshot backoff_retry",
        "v_lat_tail_us on onesided_oltp"
    ),
    lm!(
        "blame_local_compute",
        "share",
        "lower",
        "blame",
        "Session::forensics_snapshot local_compute",
        "v_lat_tail_us on onesided_oltp and sharded_2pc"
    ),
    lm!(
        "host_share",
        "share",
        "lower",
        "telemetry",
        "window host time with the recording planes on vs off",
        "host_ops_per_s on every workload"
    ),
    lm!(
        "trace_overhead_ops_per_s",
        "1/s",
        "lower",
        "perfbench",
        "untraced minus traced window throughput",
        "none: the traced run's own cost"
    ),
    lm!(
        "gen_host_ns_per_op",
        "ns",
        "lower",
        "workload",
        "span around the request generator",
        "host_ops_per_s on every workload"
    ),
    lm!(
        "ladder_calib_ns",
        "ns",
        "lower",
        "host",
        "ladder: pure-CPU loop",
        "none: calibrates the host"
    ),
    lm!(
        "ladder_read_ns",
        "ns",
        "lower",
        "rdma-sim",
        "ladder: Endpoint::read 64 B",
        "host_ops_per_s on onesided_oltp"
    ),
    lm!(
        "ladder_write_ns",
        "ns",
        "lower",
        "rdma-sim",
        "ladder: Endpoint::write 64 B",
        "host_ops_per_s on onesided_oltp"
    ),
    lm!(
        "ladder_cas_ns",
        "ns",
        "lower",
        "rdma-sim",
        "ladder: Endpoint::cas",
        "host_ops_per_s on onesided_oltp"
    ),
    lm!(
        "ladder_dsm_read16_ns",
        "ns",
        "lower",
        "dsm",
        "ladder: DsmLayer::read x16 of 64 B",
        "host_ops_per_s on onesided_oltp"
    ),
    lm!(
        "ladder_dsm_batch16_ns",
        "ns",
        "lower",
        "dsm",
        "ladder: DsmLayer::read_batch of 16x64 B",
        "host_ops_per_s on cached_readmostly"
    ),
    lm!(
        "ladder_pool_hit_ns",
        "ns",
        "lower",
        "buffer",
        "ladder: BufferPool::read_page hit",
        "host_ops_per_s on cached_readmostly"
    ),
    lm!(
        "ladder_lock_ns",
        "ns",
        "lower",
        "txn",
        "ladder: ExclusiveLock acquire+release",
        "host_ops_per_s on onesided_oltp"
    ),
    lm!(
        "ladder_2pl_ns",
        "ns",
        "lower",
        "txn",
        "ladder: TwoPhaseLocking::execute of one key",
        "host_ops_per_s on onesided_oltp"
    ),
    lm!(
        "ladder_mailbox_ns",
        "ns",
        "lower",
        "rdma-sim",
        "ladder: Endpoint::send + try_recv",
        "host_ops_per_s on sharded_2pc"
    ),
    lm!(
        "window_requests",
        "count",
        "higher",
        "perfbench",
        "requests in the virtual window",
        "none: the sample count behind every window figure"
    ),
];

/// Every client's window folded together.
#[derive(Debug, Clone, Default)]
pub struct Merged {
    /// Requests finished.
    pub requests: u64,
    /// Requests committed.
    pub completed: u64,
    /// Attempts made.
    pub attempts: u64,
    /// Aborted attempts by cause.
    pub aborts: [u64; 7],
    /// Every latency, sorted, virtual ns.
    pub latencies: Vec<u64>,
    /// Counter growth, summed over clients.
    pub delta: Marks,
    /// Sum over clients of requests per virtual second.
    pub v_rate: f64,
}

impl Merged {
    /// Fold `windows`.
    pub fn of(windows: &[ClientWindow]) -> Merged {
        let mut m = Merged::default();
        for w in windows {
            m.requests += w.requests;
            m.completed += w.completed;
            m.attempts += w.attempts;
            for (a, b) in m.aborts.iter_mut().zip(&w.aborts) {
                *a += b;
            }
            m.latencies.extend_from_slice(&w.latencies);
            m.delta.add(&w.delta);
            if w.delta.vclock_ns > 0 {
                m.v_rate += w.requests as f64 * 1e9 / w.delta.vclock_ns as f64;
            }
        }
        m.latencies.sort_unstable();
        m
    }

    fn per_op(&self, x: u64) -> f64 {
        ratio(x, self.requests)
    }

    fn phase_share(&self, phases: &[Phase]) -> f64 {
        let total: u64 = self.delta.phase_ns[..BUCKETS].iter().sum();
        ratio(
            phases
                .iter()
                .map(|p| self.delta.phase_ns[*p as usize])
                .sum(),
            total,
        )
    }

    fn blame_share(&self, b: Blame) -> f64 {
        ratio(
            self.delta.planes.blame_ns[b as usize],
            self.delta.planes.blame_ns.iter().sum(),
        )
    }

    /// Virtual latency percentile, microseconds.
    pub fn latency_us(&self, q: f64) -> f64 {
        percentile(&self.latencies, q) as f64 / 1e3
    }

    /// Mean virtual latency of the slowest `frac` of requests (all of
    /// them for `frac = 1`), microseconds. The deterministic cost model
    /// gives most requests one of a few exact latencies, so percentiles
    /// repeat across seeds; these means move with the request mix.
    pub fn latency_mean_us(&self, frac: f64) -> f64 {
        let n = self.latencies.len();
        let k = ((n as f64 * frac).ceil() as usize).clamp(1, n.max(1));
        let tail = &self.latencies[n.saturating_sub(k)..];
        tail.iter().map(|&x| x as f64).sum::<f64>() / k as f64 / 1e3
    }

    /// Wire round trips per request.
    pub fn wire_rts_per_op(&self) -> f64 {
        self.per_op(self.delta.stats.wire_round_trips())
    }

    /// Committed attempts / attempts.
    pub fn commit_ratio(&self) -> f64 {
        ratio(self.completed, self.attempts)
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Inputs of the per-layer metrics, gathered by the traced run.
pub struct LayerInputs<'a> {
    /// The planes-on untraced window.
    pub window: &'a Merged,
    /// Span totals of the traced pass.
    pub spans: &'a BTreeMap<&'static str, SpanStat>,
    /// The host ladder.
    pub ladder: &'a Ladder,
    /// Host share of the recording planes.
    pub host_share: f64,
    /// Untraced minus traced window throughput, requests per host second.
    pub trace_overhead: f64,
    /// DSM bytes allocated per user byte.
    pub bytes_per_user_byte: f64,
}

/// The value of per-layer metric `name`.
pub fn per_layer_value(name: &str, x: &LayerInputs) -> f64 {
    let w = x.window;
    let s = &w.delta.stats;
    let cache = &w.delta.planes.cache;
    let span = |n: &str| x.spans.get(n);
    match name {
        "verbs_per_op" => w.per_op(s.round_trips()),
        "cas_fail_ratio" => ratio(s.cas_failures, s.cas),
        "doorbell_batch_mean" => s.mean_batch_size(),
        "bytes_per_op" => w.per_op(s.total_bytes()),
        "msgs_per_op" => w.per_op(s.sends + s.recvs),
        "lock_acquire_vshare" => w.phase_share(&[Phase::LockAcquire]),
        "lock_verbs_per_op" => w.per_op(w.delta.phase_verbs[Phase::LockAcquire as usize]),
        "lock_wait_ns_per_op" => w.per_op(w.delta.lock_wait_ns),
        "aborts_lock_busy" => w.aborts[0] as f64,
        "aborts_lock_timeout" => w.aborts[1] as f64,
        "aborts_validation" => w.aborts[2] as f64,
        "aborts_other" => w.aborts[3..].iter().sum::<u64>() as f64,
        "twopc_vshare" => w.phase_share(&[Phase::TwoPcPrepare, Phase::TwoPcDecide]),
        "hit_rate" => ratio(cache[0], cache[0] + cache[1]),
        "cache_hits" => cache[0] as f64,
        "cache_misses" => cache[1] as f64,
        "evictions_per_op" => w.per_op(cache[2]),
        "writebacks_per_op" => w.per_op(cache[3]),
        "page_fetch_vshare" => w.phase_share(&[Phase::PageFetch]),
        "cross_shard_share" => w.per_op(w.delta.cross_shard),
        "served_subtxns_per_op" => w.per_op(w.delta.served_subtxns),
        "execute_host_ns_p50" => span("execute").map_or(0.0, |s| s.percentile_ns(0.5)),
        "execute_host_ns_p99" => span("execute").map_or(0.0, |s| s.percentile_ns(0.99)),
        "bytes_per_user_byte" => x.bytes_per_user_byte,
        "blame_lock_wait" => w.blame_share(Blame::LockWait),
        "blame_remote_fetch" => w.blame_share(Blame::RemoteFetch),
        "blame_two_pc" => w.blame_share(Blame::TwoPc),
        "blame_backoff_retry" => w.blame_share(Blame::BackoffRetry),
        "blame_local_compute" => w.blame_share(Blame::LocalCompute),
        "host_share" => x.host_share,
        "trace_overhead_ops_per_s" => x.trace_overhead,
        "gen_host_ns_per_op" => span("gen").map_or(0.0, SpanStat::mean_ns),
        "window_requests" => w.requests as f64,
        n if ladder::RUNGS.contains(&n) => x.ladder.get(n),
        _ => panic!("per-layer metric {name} has no source"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_per_layer_metric_has_a_source_and_a_unique_name() {
        let window = Merged::default();
        let spans = BTreeMap::new();
        let ladder = Ladder::default();
        let x = LayerInputs {
            window: &window,
            spans: &spans,
            ladder: &ladder,
            host_share: 0.0,
            trace_overhead: 0.0,
            bytes_per_user_byte: 0.0,
        };
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        for m in &PER_LAYER {
            assert!(per_layer_value(m.name, &x).is_finite(), "{}", m.name);
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
        for rung in ladder::RUNGS {
            assert!(
                PER_LAYER.iter().any(|m| m.name == rung),
                "ladder rung {rung} unreported"
            );
        }
    }
}
