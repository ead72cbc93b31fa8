//! What one pass of a workload is asked to do and what it brings back.
//!
//! A pass builds the system, loads it, warms it up (together: set-up),
//! then runs a closed loop. Every client's first `window` requests form
//! the *virtual window*: all virtual-time figures are taken over it, so
//! they depend on the seed alone and never on how fast the host ran.
//! Host throughput is counted over the whole timed loop in fixed host
//! slices, and the pass keeps going until both the window is complete
//! and `min_host` has elapsed.

use std::time::{Duration, Instant};

use dsmdb::{AbortCause, Session};
use rdma_sim::{Endpoint, Metric, PhaseSnapshot, StatsSnapshot};

use crate::ladder::Ladder;
use crate::trace::Span;

/// Retry budget: a request fails once it has aborted [`MAX_ATTEMPTS`]
/// times *and* been in flight for [`REQUEST_TIMEOUT`] of host time. The
/// count bounds the round-robin workloads, whose retries wait for their
/// next turn; the time bounds the threaded ones, whose retries spin while
/// the peer holding the lock may be descheduled.
pub const MAX_ATTEMPTS: u32 = 64;

/// See [`MAX_ATTEMPTS`].
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(1);

/// Host slice width for the throughput median.
pub const SLICE: Duration = Duration::from_millis(500);

/// Iterations of one calibration burst (about 1 ms).
pub const CALIB_ITERS: u64 = 500_000;

/// Host ns one calibration burst takes on the reference host (a 2.1 GHz
/// x86-64 core at rest); host throughput is scaled to that speed.
pub const CALIB_REF_NS: f64 = 850_000.0;

/// Run `iters` steps of a dependent multiply-xorshift chain and return
/// the host ns they took: a pure-CPU yardstick for how fast the host is
/// running right now.
pub fn calibrate(iters: u64) -> u64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..iters {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as u64
}

/// Flight-recorder ring per session, as `bench::run_cluster_workload` sets it.
pub const TRACE_RING: usize = 1024;

/// Worst-K forensics exemplars per session, as
/// `bench::run_cluster_workload` sets it.
pub const EXEMPLARS: usize = 8;

/// The timed part of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Keep the closed loop running at least this long (host time).
    pub min_host: Duration,
}

/// What one pass does.
#[derive(Debug, Clone, Copy)]
pub struct PassSpec {
    /// Workload seed.
    pub seed: u64,
    /// Turn the recording planes on, as `bench::run_cluster_workload` does.
    pub planes: bool,
    /// Record host spans.
    pub trace: bool,
    /// `None` = set-up only.
    pub timed: Option<Timed>,
    /// Run the host ladder after the timed loop.
    pub ladder: bool,
}

/// Turn on the recording planes of one session exactly as
/// `bench::run_cluster_workload` does.
pub fn enable_planes(s: &mut Session, worker: u64) {
    enable_endpoint_planes(s.endpoint(), worker);
    s.enable_forensics(EXEMPLARS);
}

/// The endpoint half of [`enable_planes`], for endpoint-level clients.
pub fn enable_endpoint_planes(ep: &Endpoint, worker: u64) {
    ep.enable_timeseries(rdma_sim::DEFAULT_WINDOW_NS);
    ep.enable_health(rdma_sim::DEFAULT_WINDOW_NS);
    ep.enable_utilization(rdma_sim::DEFAULT_WINDOW_NS);
    ep.set_util_session(worker);
    ep.enable_flight_recorder(TRACE_RING);
}

/// Index of an abort cause in [`ClientWindow::aborts`].
pub fn cause_index(c: AbortCause) -> usize {
    match c {
        AbortCause::LockBusy => 0,
        AbortCause::LockTimeout => 1,
        AbortCause::ValidationFail => 2,
        AbortCause::LeaseStolen => 3,
        AbortCause::NodeUnavailable => 4,
        AbortCause::Transient => 5,
        AbortCause::Other => 6,
    }
}

/// Phase buckets, including the unspanned one.
pub const BUCKETS: usize = telemetry::PHASE_BUCKETS + 1;

/// Cumulative counters of one client at an instant. Differences of two
/// marks give the client's work over an interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Marks {
    /// Virtual clock, ns.
    pub vclock_ns: u64,
    /// Verb counters.
    pub stats: StatsSnapshot,
    /// Virtual ns per phase bucket.
    pub phase_ns: [u64; BUCKETS],
    /// Verbs per phase bucket.
    pub phase_verbs: [u64; BUCKETS],
    /// Lock-wait virtual ns (contention probe, always on).
    pub lock_wait_ns: u64,
    /// Cross-shard transactions coordinated (3c).
    pub cross_shard: u64,
    /// Sub-transactions served for other nodes (3c).
    pub served_subtxns: u64,
    /// Planes-only counters: [`PlaneMarks`].
    pub planes: PlaneMarks,
}

/// Counters that only the recording planes keep (zero with them off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaneMarks {
    /// Buffer-pool hits, misses, evictions, write-backs (series).
    pub cache: [u64; 4],
    /// Forensics blame ns per bucket.
    pub blame_ns: [u64; telemetry::forensics::BLAME_KINDS],
}

impl Marks {
    /// Read every counter of `ep` (and `session`, when the client has one).
    pub fn take(ep: &Endpoint, session: Option<&Session>) -> Marks {
        let phases: PhaseSnapshot = ep.phase_snapshot();
        let mut planes = PlaneMarks::default();
        if ep.timeseries_enabled() {
            let s = ep.series_snapshot();
            planes.cache = [
                s.total(Metric::CacheHits),
                s.total(Metric::CacheMisses),
                s.total(Metric::Evictions),
                s.total(Metric::Writebacks),
            ];
        }
        let (cross_shard, served_subtxns) = match session {
            Some(s) => {
                planes.blame_ns = s.forensics_snapshot().blame_ns;
                (s.stats().cross_shard, s.stats().served_subtxns)
            }
            None => (0, 0),
        };
        Marks {
            vclock_ns: ep.clock().now_ns(),
            stats: ep.stats(),
            phase_ns: phases.ns,
            phase_verbs: phases.verbs,
            lock_wait_ns: ep.contention_snapshot().wait_ns_total,
            cross_shard,
            served_subtxns,
            planes,
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &Marks) -> Marks {
        let sub = |a: u64, b: u64| a - b;
        let subs = |a: &[u64], b: &[u64], out: &mut [u64]| {
            for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
                *o = x - y;
            }
        };
        let (a, b) = (&self.stats, &earlier.stats);
        let stats = StatsSnapshot {
            reads: sub(a.reads, b.reads),
            writes: sub(a.writes, b.writes),
            cas: sub(a.cas, b.cas),
            faa: sub(a.faa, b.faa),
            sends: sub(a.sends, b.sends),
            recvs: sub(a.recvs, b.recvs),
            bytes_read: sub(a.bytes_read, b.bytes_read),
            bytes_written: sub(a.bytes_written, b.bytes_written),
            bytes_sent: sub(a.bytes_sent, b.bytes_sent),
            bytes_recvd: sub(a.bytes_recvd, b.bytes_recvd),
            cas_failures: sub(a.cas_failures, b.cas_failures),
            doorbells: sub(a.doorbells, b.doorbells),
            coalesced: sub(a.coalesced, b.coalesced),
        };
        let mut out = Marks {
            vclock_ns: sub(self.vclock_ns, earlier.vclock_ns),
            stats,
            lock_wait_ns: sub(self.lock_wait_ns, earlier.lock_wait_ns),
            cross_shard: sub(self.cross_shard, earlier.cross_shard),
            served_subtxns: sub(self.served_subtxns, earlier.served_subtxns),
            ..Marks::default()
        };
        subs(&self.phase_ns, &earlier.phase_ns, &mut out.phase_ns);
        subs(
            &self.phase_verbs,
            &earlier.phase_verbs,
            &mut out.phase_verbs,
        );
        subs(
            &self.planes.cache,
            &earlier.planes.cache,
            &mut out.planes.cache,
        );
        subs(
            &self.planes.blame_ns,
            &earlier.planes.blame_ns,
            &mut out.planes.blame_ns,
        );
        out
    }

    /// Fold another client's growth into this one (the virtual clock
    /// field keeps the longest interval).
    pub fn add(&mut self, o: &Marks) {
        let adds = |a: &mut [u64], b: &[u64]| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        };
        self.vclock_ns = self.vclock_ns.max(o.vclock_ns);
        self.stats = self.stats + o.stats;
        adds(&mut self.phase_ns, &o.phase_ns);
        adds(&mut self.phase_verbs, &o.phase_verbs);
        self.lock_wait_ns += o.lock_wait_ns;
        self.cross_shard += o.cross_shard;
        self.served_subtxns += o.served_subtxns;
        adds(&mut self.planes.cache, &o.planes.cache);
        adds(&mut self.planes.blame_ns, &o.planes.blame_ns);
    }
}

/// One client's virtual window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientWindow {
    /// Requests finished (committed or failed).
    pub requests: u64,
    /// Requests committed.
    pub completed: u64,
    /// Attempts made (committed + aborted).
    pub attempts: u64,
    /// Aborted attempts by [`cause_index`].
    pub aborts: [u64; 7],
    /// Virtual latency of every request, first attempt to commit, ns
    /// (`u64::MAX` for a failed request: it misses every limit).
    pub latencies: Vec<u64>,
    /// Counter growth over the window.
    pub delta: Marks,
}

impl ClientWindow {
    /// The fields that must not change when the recording planes are
    /// switched off (planes-only counters cleared).
    pub fn virtual_view(&self) -> ClientWindow {
        let mut v = self.clone();
        v.delta.planes = PlaneMarks::default();
        v
    }
}

/// Window accounting of one client: open at the start of the timed loop,
/// closed when its `target`-th request finishes.
#[derive(Debug, Default)]
pub struct WindowAcc {
    target: u64,
    start: Option<Marks>,
    acc: ClientWindow,
    closed: bool,
    /// Host instant the window closed.
    pub closed_at: Option<Instant>,
}

impl WindowAcc {
    /// Open a window of `target` requests at `marks`.
    pub fn open(target: u64, marks: Marks) -> Self {
        Self {
            target,
            start: Some(marks),
            closed: target == 0,
            ..Self::default()
        }
    }

    /// Whether the window is active (open and not yet full).
    pub fn active(&self) -> bool {
        self.start.is_some() && !self.closed
    }

    /// Whether the window has collected its requests.
    pub fn closed(&self) -> bool {
        self.closed
    }

    /// Whether the window was ever opened (the pass was timed).
    pub fn opened(&self) -> bool {
        self.start.is_some()
    }

    /// Count one aborted attempt of an in-window request.
    pub fn note_abort(&mut self, cause: AbortCause) {
        if self.active() {
            self.acc.attempts += 1;
            self.acc.aborts[cause_index(cause)] += 1;
        }
    }

    /// Count one finished request; `take` reads the end marks when this
    /// request fills the window.
    pub fn note_finish(&mut self, latency_ns: Option<u64>, take: impl FnOnce() -> Marks) {
        if !self.active() {
            return;
        }
        self.acc.requests += 1;
        match latency_ns {
            Some(l) => {
                self.acc.completed += 1;
                self.acc.attempts += 1;
                self.acc.latencies.push(l);
            }
            None => self.acc.latencies.push(u64::MAX),
        }
        if self.acc.requests == self.target {
            let end = take();
            self.acc.delta = end.since(self.start.as_ref().expect("window opened"));
            self.closed = true;
            self.closed_at = Some(Instant::now());
        }
    }

    /// The finished window.
    pub fn finish(self) -> ClientWindow {
        assert!(self.closed, "window read before it filled");
        self.acc
    }
}

/// Requests finished per fixed host slice since the loop started, with
/// a calibration burst timed at the start of each slice. One per thread.
#[derive(Debug, Clone)]
pub struct Slices {
    t0: Instant,
    counts: Vec<u64>,
    calib_ns: Vec<u64>,
    /// Host instant the client stopped starting new requests.
    pub stopped: Option<Instant>,
}

impl Slices {
    /// Start counting at `t0`.
    pub fn new(t0: Instant) -> Self {
        Self {
            t0,
            counts: Vec::new(),
            calib_ns: Vec::new(),
            stopped: None,
        }
    }

    /// Count one finished request now.
    #[inline]
    pub fn note(&mut self) {
        let i = (self.t0.elapsed().as_nanos() / SLICE.as_nanos()) as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
            self.calib_ns.resize(i + 1, 0);
            self.calib_ns[i] = calibrate(CALIB_ITERS);
        }
        self.counts[i] += 1;
    }

    /// Sum the per-thread counts and return, for every slice that lies
    /// wholly inside every thread's loop, the rate in requests per host
    /// second, raw and scaled to the reference host speed by the slice's
    /// calibration bursts (median over threads).
    pub fn rates(all: &[Slices]) -> (Vec<f64>, Vec<f64>) {
        let full = all
            .iter()
            .map(|s| {
                let end = s.stopped.map_or(s.t0.elapsed(), |t| t - s.t0);
                (end.as_nanos() / SLICE.as_nanos()) as usize
            })
            .min()
            .unwrap_or(0);
        (0..full)
            .map(|i| {
                let n: u64 = all
                    .iter()
                    .map(|s| s.counts.get(i).copied().unwrap_or(0))
                    .sum();
                let calib: Vec<f64> = all
                    .iter()
                    .filter_map(|s| s.calib_ns.get(i).copied())
                    .filter(|&c| c > 0)
                    .map(|c| c as f64)
                    .collect();
                let raw = n as f64 / SLICE.as_secs_f64();
                (raw, raw * median(&calib) / CALIB_REF_NS)
            })
            .unzip()
    }
}

/// Everything one pass brings back.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Build + load + warm-up, host seconds.
    pub setup_s: f64,
    /// Per-client virtual windows (empty for a set-up-only pass).
    pub windows: Vec<ClientWindow>,
    /// Host seconds from loop start until the last window closed.
    pub window_host_s: f64,
    /// Host throughput per full slice, requests per second, scaled to the
    /// reference host speed.
    pub slice_rates: Vec<f64>,
    /// The same, unscaled.
    pub raw_slice_rates: Vec<f64>,
    /// Requests started in the timed loop.
    pub attempted: u64,
    /// Requests that failed (retry budget, error, or wrong result).
    pub failed: u64,
    /// Correctness problems found (empty = correct).
    pub problems: Vec<String>,
    /// Host spans, one list per thread (traced passes only).
    pub spans: Vec<Vec<Span>>,
    /// Host ladder (when asked for).
    pub ladder: Option<Ladder>,
    /// DSM bytes allocated per byte of user data.
    pub bytes_per_user_byte: f64,
}

/// Order statistic at quantile `q` of sorted `v` (nearest rank).
pub fn percentile(v: &[u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.999), 999);
        assert_eq!(percentile(&v, 1.0), 1000);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
