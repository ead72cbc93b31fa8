//! Windowed time-series over the virtual clock.
//!
//! Aggregates answer "how much"; the paper's availability and
//! elasticity claims are about "when": the shape of the throughput dip
//! when a node dies and how fast it climbs back. This module supplies
//! the missing primitive — a registry of named counters sampled into
//! fixed-width *virtual-time* windows:
//!
//! * [`Metric`] — the closed set of tracked counters (commits, aborts
//!   by cause, per-verb counts, wire RTs, bytes, cache hits/misses,
//!   lock waits/steals, epoch bumps). A closed enum keeps every window
//!   a flat `[u64; METRICS]` — no hashing, no allocation per record.
//! * [`SeriesRecorder`] / [`SeriesSnapshot`] — the [`crate::window`]
//!   recorder and snapshot over a flat `[u64; METRICS]` window, folded
//!   by addition. Recording reads the caller-supplied virtual timestamp
//!   but never advances any clock, so sampling is free in virtual time:
//!   a run with the recorder on and off produces the identical
//!   timeline. Width doubling and the exact, order-free merge are the
//!   window module's.

pub use crate::window::MAX_WINDOWS;
use crate::window::{Recorder, Windowed};

/// Number of tracked metrics (length of a window vector).
pub const METRICS: usize = 27;

/// Default window width for experiment harnesses, virtual ns. Short
/// runs get fine-grained curves; long runs auto-coarsen by doubling.
pub const DEFAULT_WINDOW_NS: u64 = 16_384;

/// One tracked counter. The discriminant is the window-vector index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Committed transactions.
    Commits = 0,
    /// Aborted attempts, all causes.
    Aborts = 1,
    /// Aborts: no-wait lock busy for the whole retry budget.
    AbortsLockBusy = 2,
    /// Aborts: lock holder never released within the bounded retry.
    AbortsLockTimeout = 3,
    /// Aborts: commit-time validation failure (OCC/TSO/MVCC).
    AbortsValidation = 4,
    /// Aborts: lease expired mid-txn and the lock was stolen.
    AbortsLeaseStolen = 5,
    /// Aborts: a required node is down (typed unavailability).
    AbortsNodeUnavailable = 6,
    /// Aborts: a transient fabric fault leaked past the DSM retries.
    AbortsTransient = 7,
    /// Aborts: everything unclassified.
    AbortsOther = 8,
    /// One-sided READ verbs.
    Reads = 9,
    /// One-sided WRITE verbs.
    Writes = 10,
    /// Compare-and-swap verbs.
    Cas = 11,
    /// Fetch-and-add verbs.
    Faa = 12,
    /// Two-sided SEND verbs.
    Sends = 13,
    /// Two-sided RECV completions.
    Recvs = 14,
    /// Round trips actually paid on the wire (doorbell riders excluded).
    WireRts = 15,
    /// Payload bytes put on the wire (sender side; RECVs not re-counted).
    BytesWire = 16,
    /// Buffer-pool hits.
    CacheHits = 17,
    /// Buffer-pool misses.
    CacheMisses = 18,
    /// Dirty-frame write-backs.
    Writebacks = 19,
    /// Virtual ns spent waiting on lock/latch words.
    LockWaitNs = 20,
    /// Lock/latch wait events.
    LockWaits = 21,
    /// Expired leases stolen from their owner.
    LockSteals = 22,
    /// Membership epoch bumps.
    EpochBumps = 23,
    /// Coherence invalidations (writer fanout + pages dropped).
    Invals = 24,
    /// Buffer-pool frames evicted to make room.
    Evictions = 25,
    /// Bytes copied to a new home by the live-migration copier.
    MigratedBytes = 26,
}

impl Metric {
    /// Every metric, in window-vector order.
    pub const ALL: [Metric; METRICS] = [
        Metric::Commits,
        Metric::Aborts,
        Metric::AbortsLockBusy,
        Metric::AbortsLockTimeout,
        Metric::AbortsValidation,
        Metric::AbortsLeaseStolen,
        Metric::AbortsNodeUnavailable,
        Metric::AbortsTransient,
        Metric::AbortsOther,
        Metric::Reads,
        Metric::Writes,
        Metric::Cas,
        Metric::Faa,
        Metric::Sends,
        Metric::Recvs,
        Metric::WireRts,
        Metric::BytesWire,
        Metric::CacheHits,
        Metric::CacheMisses,
        Metric::Writebacks,
        Metric::LockWaitNs,
        Metric::LockWaits,
        Metric::LockSteals,
        Metric::EpochBumps,
        Metric::Invals,
        Metric::Evictions,
        Metric::MigratedBytes,
    ];

    /// Stable JSON/registry name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Commits => "commits",
            Metric::Aborts => "aborts",
            Metric::AbortsLockBusy => "aborts_lock_busy",
            Metric::AbortsLockTimeout => "aborts_lock_timeout",
            Metric::AbortsValidation => "aborts_validation",
            Metric::AbortsLeaseStolen => "aborts_lease_stolen",
            Metric::AbortsNodeUnavailable => "aborts_node_unavailable",
            Metric::AbortsTransient => "aborts_transient",
            Metric::AbortsOther => "aborts_other",
            Metric::Reads => "reads",
            Metric::Writes => "writes",
            Metric::Cas => "cas",
            Metric::Faa => "faa",
            Metric::Sends => "sends",
            Metric::Recvs => "recvs",
            Metric::WireRts => "wire_rts",
            Metric::BytesWire => "bytes_wire",
            Metric::CacheHits => "cache_hits",
            Metric::CacheMisses => "cache_misses",
            Metric::Writebacks => "writebacks",
            Metric::LockWaitNs => "lock_wait_ns",
            Metric::LockWaits => "lock_waits",
            Metric::LockSteals => "lock_steals",
            Metric::EpochBumps => "epoch_bumps",
            Metric::Invals => "invals",
            Metric::Evictions => "evictions",
            Metric::MigratedBytes => "migrated_bytes",
        }
    }

    /// Reverse of [`Metric::name`].
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL.iter().copied().find(|m| m.name() == name)
    }
}

/// One counter window: a flat vector indexed by [`Metric`].
type Window = [u64; METRICS];

/// Per-thread windowed counter collector (see [`crate::window`]).
/// Disabled until [`Recorder::enable`]; recording while disabled is a
/// no-op, so instrumented layers can call unconditionally.
pub type SeriesRecorder = Recorder<Window>;

/// An immutable windowed counter series; the mergeable cross-thread
/// result. Merging adds per-window vectors after width alignment.
pub type SeriesSnapshot = Windowed<Window>;

impl Recorder<Window> {
    /// Add `delta` to `metric` in the window covering virtual time
    /// `now_ns`. Never advances any clock.
    #[inline]
    pub fn note(&self, now_ns: u64, metric: Metric, delta: u64) {
        if delta != 0 {
            self.record(now_ns, |w| w[metric as usize] += delta);
        }
    }
}

impl Windowed<Window> {
    /// `metric`'s count in window `i`.
    pub fn get(&self, i: usize, metric: Metric) -> u64 {
        self.windows[i][metric as usize]
    }

    /// `metric` summed over the whole series.
    pub fn total(&self, metric: Metric) -> u64 {
        self.windows.iter().map(|w| w[metric as usize]).sum()
    }

    /// `metric`'s per-window counts.
    pub fn series(&self, metric: Metric) -> Vec<u64> {
        self.windows.iter().map(|w| w[metric as usize]).collect()
    }

    /// `metric` as a per-window rate (events per virtual second).
    pub fn rate_per_sec(&self, metric: Metric) -> Vec<f64> {
        if self.window_ns == 0 {
            return Vec::new();
        }
        let scale = 1e9 / self.window_ns as f64;
        self.windows
            .iter()
            .map(|w| w[metric as usize] as f64 * scale)
            .collect()
    }

    /// Per-window ratio `num / (num + den)` (e.g. cache hit rate);
    /// windows where both are zero yield 0.
    pub fn share_per_window(&self, num: Metric, den: Metric) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| {
                let n = w[num as usize] as f64;
                let d = w[den as usize] as f64;
                if n + d == 0.0 {
                    0.0
                } else {
                    n / (n + d)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = SeriesRecorder::new();
        r.note(100, Metric::Commits, 1);
        assert!(!r.enabled());
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn windows_bucket_by_virtual_time() {
        let r = SeriesRecorder::new();
        r.enable(100);
        r.note(0, Metric::Commits, 1);
        r.note(99, Metric::Commits, 1);
        r.note(100, Metric::Commits, 1);
        r.note(350, Metric::Aborts, 2);
        let s = r.snapshot();
        assert_eq!(s.window_ns, 100);
        assert_eq!(s.len(), 4);
        assert_eq!(s.series(Metric::Commits), [2, 1, 0, 0]);
        assert_eq!(s.get(3, Metric::Aborts), 2);
        assert_eq!(s.total(Metric::Commits), 3);
        assert_eq!(s.window_start_ns(3), 300);
    }

    #[test]
    fn overflow_doubles_width_without_losing_counts() {
        let r = SeriesRecorder::new();
        r.enable(10);
        // One count per window across 4x the cap: forces two doublings.
        for i in 0..(4 * MAX_WINDOWS as u64) {
            r.note(i * 10, Metric::Reads, 1);
        }
        let s = r.snapshot();
        assert_eq!(s.window_ns, 40);
        assert_eq!(s.len(), MAX_WINDOWS);
        assert_eq!(s.total(Metric::Reads), 4 * MAX_WINDOWS as u64);
        assert!(s.series(Metric::Reads).iter().all(|&c| c == 4));
    }

    #[test]
    fn clear_restores_base_width() {
        let r = SeriesRecorder::new();
        r.enable(10);
        r.note(10 * (MAX_WINDOWS as u64 + 1), Metric::Reads, 1);
        assert_eq!(r.snapshot().window_ns, 20);
        r.clear();
        assert_eq!(r.snapshot().window_ns, 10);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn merge_aligns_mismatched_widths_exactly() {
        let fine = SeriesRecorder::new();
        fine.enable(50);
        fine.note(0, Metric::Commits, 1);
        fine.note(60, Metric::Commits, 1);
        fine.note(199, Metric::Commits, 1);
        let coarse = SeriesRecorder::new();
        coarse.enable(100);
        coarse.note(150, Metric::Commits, 5);
        let mut a = fine.snapshot();
        a.merge(&coarse.snapshot());
        let mut b = coarse.snapshot();
        b.merge(&fine.snapshot());
        assert_eq!(a, b, "merge must be commutative");
        assert_eq!(a.window_ns, 100);
        assert_eq!(a.series(Metric::Commits), [2, 6]);
        assert_eq!(a.total(Metric::Commits), 8);
    }

    #[test]
    fn merge_identity_and_rates() {
        let r = SeriesRecorder::new();
        r.enable(1_000);
        r.note(500, Metric::Commits, 10);
        let mut s = r.snapshot();
        s.merge(&SeriesSnapshot::empty());
        let mut e = SeriesSnapshot::empty();
        e.merge(&s);
        assert_eq!(s, e);
        assert_eq!(s.rate_per_sec(Metric::Commits), [1e7]);
    }

    #[test]
    fn share_per_window_is_a_hit_rate() {
        let r = SeriesRecorder::new();
        r.enable(10);
        r.note(0, Metric::CacheHits, 3);
        r.note(0, Metric::CacheMisses, 1);
        r.note(15, Metric::CacheHits, 2);
        let s = r.snapshot();
        assert_eq!(s.share_per_window(Metric::CacheHits, Metric::CacheMisses), [0.75, 1.0]);
    }

    #[test]
    fn metric_names_round_trip() {
        for m in Metric::ALL {
            assert_eq!(Metric::from_name(m.name()), Some(m));
        }
        assert_eq!(Metric::from_name("no_such_metric"), None);
    }
}
