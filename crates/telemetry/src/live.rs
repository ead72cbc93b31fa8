//! Streaming gauges over the virtual clock — the *live* metrics plane.
//!
//! Counters ([`crate::timeseries`]) answer "how many happened"; gauges
//! answer "how many are there *right now*": sessions in flight, locks
//! currently held, resident/dirty pool pages, verbs outstanding on the
//! wire, the membership epoch. The autoscaler and watchdog need levels,
//! not totals, and levels are what a post-hoc counter series cannot
//! reconstruct once the run is over.
//!
//! **Delta encoding.** A gauge window stores the *net signed change*
//! (`i64`) of each gauge inside that window, never the level itself.
//! Net deltas are additive, so per-node [`HealthSnapshot`]s merge by
//! per-window vector addition exactly like the counter series —
//! associative, commutative, and lossless — and the level at any window
//! boundary is recovered as a prefix sum. Storing levels instead would
//! break the merge (max-of-sums ≠ sum-of-maxes); storing deltas makes
//! "snapshot of deltas == full snapshot" a theorem rather than a hope,
//! and `health_prop.rs` proptests it anyway.
//!
//! **Virtual-time cost.** Recording reads the caller-supplied virtual
//! timestamp and never advances any clock: a run with gauges on and off
//! produces the identical timeline (asserted by `exp_o3_watchdog`).
//!
//! Width handling is [`crate::window`]'s, shared with the counter
//! series: doubling folds adjacent windows, which is exact because net
//! deltas are additive.

use crate::window::{Recorder, Windowed};
use std::cell::Cell;

/// Number of tracked gauges (length of a gauge window vector).
pub const GAUGES: usize = 7;

/// One tracked level. The discriminant is the window-vector index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Sessions currently inside `execute` (admitted, not yet retired).
    SessionsInFlight = 0,
    /// Lock/latch words currently held via the txn lock table.
    LocksHeld = 1,
    /// Pages currently resident in the buffer pool.
    PoolResident = 2,
    /// Resident pages currently dirty (write-back mode).
    PoolDirty = 3,
    /// Verbs issued but not yet completed on this endpoint.
    VerbsOutstanding = 4,
    /// Membership epoch bumps observed (level = epochs advanced).
    MembershipEpoch = 5,
    /// Page-range migrations currently in their dual-ownership window.
    MigrationInFlight = 6,
}

impl Gauge {
    /// Every gauge, in window-vector order.
    pub const ALL: [Gauge; GAUGES] = [
        Gauge::SessionsInFlight,
        Gauge::LocksHeld,
        Gauge::PoolResident,
        Gauge::PoolDirty,
        Gauge::VerbsOutstanding,
        Gauge::MembershipEpoch,
        Gauge::MigrationInFlight,
    ];

    /// Stable JSON/registry name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::SessionsInFlight => "sessions_in_flight",
            Gauge::LocksHeld => "locks_held",
            Gauge::PoolResident => "pool_resident",
            Gauge::PoolDirty => "pool_dirty",
            Gauge::VerbsOutstanding => "verbs_outstanding",
            Gauge::MembershipEpoch => "membership_epoch",
            Gauge::MigrationInFlight => "migration_in_flight",
        }
    }

    /// Reverse of [`Gauge::name`].
    pub fn from_name(name: &str) -> Option<Gauge> {
        Gauge::ALL.iter().copied().find(|g| g.name() == name)
    }
}

/// One gauge window: net signed deltas indexed by [`Gauge`].
type GaugeWindow = [i64; GAUGES];

/// Per-thread gauge collector: a [`crate::window`] recorder of net
/// deltas plus the running levels. Disabled (width 0) until
/// [`GaugeRecorder::enable`]; recording while disabled is a no-op, so
/// instrumented layers can call unconditionally.
#[derive(Debug, Default)]
pub struct GaugeRecorder {
    windows: Recorder<GaugeWindow>,
    /// Running levels (sum of all deltas recorded since enable).
    levels: Cell<GaugeWindow>,
}

impl GaugeRecorder {
    /// A recorder that ignores everything until enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn sampling on with `width_ns`-wide windows (0 turns it off).
    /// Drops any previously recorded windows and zeroes the levels.
    pub fn enable(&self, width_ns: u64) {
        self.windows.enable(width_ns);
        self.levels.set([0; GAUGES]);
    }

    /// Whether sampling is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.windows.enabled()
    }

    /// Current level of `gauge` (sum of recorded deltas).
    pub fn level(&self, gauge: Gauge) -> i64 {
        self.levels.get()[gauge as usize]
    }

    /// Add the signed `delta` to `gauge` in the window covering virtual
    /// time `now_ns`. Never advances any clock.
    #[inline]
    pub fn add(&self, now_ns: u64, gauge: Gauge, delta: i64) {
        if delta != 0 {
            self.windows.record(now_ns, |w| {
                w[gauge as usize] += delta;
                let mut levels = self.levels.get();
                levels[gauge as usize] += delta;
                self.levels.set(levels);
            });
        }
    }

    /// Drop all windows, zero the levels, restore the base width.
    pub fn clear(&self) {
        self.windows.clear();
        self.levels.set([0; GAUGES]);
    }

    /// Copy out the recorded health series (empty when disabled).
    pub fn snapshot(&self) -> HealthSnapshot {
        self.windows.snapshot()
    }
}

/// An immutable windowed gauge series (net deltas per window); the
/// mergeable per-node health result. Entry `i` holds the net signed
/// gauge changes inside `[i*window_ns, (i+1)*window_ns)`; merging adds
/// them, so levels of the merged snapshot are the sums of per-node
/// levels.
pub type HealthSnapshot = Windowed<GaugeWindow>;

impl Windowed<GaugeWindow> {
    /// Net change of `gauge` inside window `i`.
    pub fn delta(&self, i: usize, gauge: Gauge) -> i64 {
        self.windows[i][gauge as usize]
    }

    /// `gauge`'s per-window net deltas.
    pub fn deltas(&self, gauge: Gauge) -> Vec<i64> {
        self.windows.iter().map(|w| w[gauge as usize]).collect()
    }

    /// `gauge`'s level at the *end* of each window (prefix sums of the
    /// net deltas, starting from level 0 at virtual time 0).
    pub fn levels(&self, gauge: Gauge) -> Vec<i64> {
        let mut level = 0i64;
        self.windows
            .iter()
            .map(|w| {
                level += w[gauge as usize];
                level
            })
            .collect()
    }

    /// `gauge`'s level after the last recorded window.
    pub fn final_level(&self, gauge: Gauge) -> i64 {
        self.windows.iter().map(|w| w[gauge as usize]).sum()
    }

    /// Smallest window-end level of `gauge` (0 for an empty snapshot).
    pub fn min_level(&self, gauge: Gauge) -> i64 {
        self.levels(gauge).into_iter().min().unwrap_or(0)
    }

    /// Largest window-end level of `gauge` (0 for an empty snapshot).
    pub fn max_level(&self, gauge: Gauge) -> i64 {
        self.levels(gauge).into_iter().max().unwrap_or(0)
    }

    /// The incremental delta from an earlier snapshot `prev` of the
    /// same recorder to `self`: a snapshot such that
    /// `prev.merge(&delta) == self`. This is the wire encoding a node
    /// streams between health samples — applying every delta in order
    /// (or any order: merge is commutative) reconstructs the full
    /// snapshot exactly.
    pub fn delta_since(&self, prev: &HealthSnapshot) -> HealthSnapshot {
        let mut out = self.clone();
        if prev.is_empty() {
            return out;
        }
        // Widths only grow over a recorder's lifetime, so the earlier
        // snapshot is never coarser than the later one.
        let mut p = prev.clone();
        p.coarsen_to(out.window_ns);
        for (dst, src) in out.windows.iter_mut().zip(p.windows.iter()) {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d -= s;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::MAX_WINDOWS;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = GaugeRecorder::new();
        r.add(100, Gauge::LocksHeld, 1);
        assert!(!r.enabled());
        assert!(r.snapshot().is_empty());
        assert_eq!(r.level(Gauge::LocksHeld), 0);
    }

    #[test]
    fn windows_hold_net_deltas_and_levels_are_prefix_sums() {
        let r = GaugeRecorder::new();
        r.enable(100);
        r.add(0, Gauge::SessionsInFlight, 1);
        r.add(50, Gauge::SessionsInFlight, 1);
        r.add(99, Gauge::SessionsInFlight, -1);
        r.add(250, Gauge::SessionsInFlight, -1);
        let s = r.snapshot();
        assert_eq!(s.deltas(Gauge::SessionsInFlight), [1, 0, -1]);
        assert_eq!(s.levels(Gauge::SessionsInFlight), [1, 1, 0]);
        assert_eq!(s.final_level(Gauge::SessionsInFlight), 0);
        assert_eq!(s.max_level(Gauge::SessionsInFlight), 1);
        assert_eq!(s.min_level(Gauge::SessionsInFlight), 0);
        assert_eq!(r.level(Gauge::SessionsInFlight), 0);
    }

    #[test]
    fn overflow_doubles_width_without_losing_deltas() {
        let r = GaugeRecorder::new();
        r.enable(10);
        for i in 0..(4 * MAX_WINDOWS as u64) {
            r.add(i * 10, Gauge::PoolResident, 1);
        }
        let s = r.snapshot();
        assert_eq!(s.window_ns, 40);
        assert_eq!(s.len(), MAX_WINDOWS);
        assert_eq!(s.final_level(Gauge::PoolResident), 4 * MAX_WINDOWS as i64);
        assert!(s.deltas(Gauge::PoolResident).iter().all(|&d| d == 4));
    }

    #[test]
    fn merge_aligns_widths_and_adds_levels() {
        let a = GaugeRecorder::new();
        a.enable(50);
        a.add(0, Gauge::LocksHeld, 1);
        a.add(60, Gauge::LocksHeld, 1);
        a.add(199, Gauge::LocksHeld, -1);
        let b = GaugeRecorder::new();
        b.enable(100);
        b.add(150, Gauge::LocksHeld, 3);
        let mut ab = a.snapshot();
        ab.merge(&b.snapshot());
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot());
        assert_eq!(ab, ba, "merge must be commutative");
        // At width 100 both of a's acquires (t=0, t=60) coalesce into
        // window 0; its release and b's +3 land in window 1.
        assert_eq!(ab.window_ns, 100);
        assert_eq!(ab.deltas(Gauge::LocksHeld), [2, 2]);
        assert_eq!(ab.levels(Gauge::LocksHeld), [2, 4]);
    }

    #[test]
    fn merge_identity() {
        let r = GaugeRecorder::new();
        r.enable(100);
        r.add(10, Gauge::PoolDirty, 2);
        let mut s = r.snapshot();
        s.merge(&HealthSnapshot::empty());
        let mut e = HealthSnapshot::empty();
        e.merge(&s);
        assert_eq!(s, e);
    }

    #[test]
    fn merge_of_two_empties_stays_the_identity() {
        let mut a = HealthSnapshot::empty();
        a.merge(&HealthSnapshot::empty());
        assert!(a.is_empty());
        assert_eq!(a.window_ns, 0);
        for g in Gauge::ALL {
            assert_eq!(a.final_level(g), 0);
            assert_eq!(a.min_level(g), 0);
            assert_eq!(a.max_level(g), 0);
        }
    }

    #[test]
    fn merge_single_window_inputs_adds_without_padding() {
        let a = GaugeRecorder::new();
        a.enable(100);
        a.add(10, Gauge::LocksHeld, 2);
        let b = GaugeRecorder::new();
        b.enable(100);
        b.add(90, Gauge::LocksHeld, 3);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        // Two single-window snapshots of the same width merge into one
        // window — no phantom trailing windows appear.
        assert_eq!(m.len(), 1);
        assert_eq!(m.deltas(Gauge::LocksHeld), [5]);
        assert_eq!(m.final_level(Gauge::LocksHeld), 5);
    }

    #[test]
    fn merge_zero_delta_windows_change_nothing_but_geometry() {
        let a = GaugeRecorder::new();
        a.enable(100);
        a.add(50, Gauge::PoolResident, 7);
        let mut m = a.snapshot();
        // A snapshot whose windows exist but net to zero (acquire and
        // release inside each window) must not disturb any level...
        let z = GaugeRecorder::new();
        z.enable(100);
        for w in 0..3u64 {
            z.add(w * 100 + 1, Gauge::PoolResident, 4);
            z.add(w * 100 + 2, Gauge::PoolResident, -4);
        }
        let zs = z.snapshot();
        assert_eq!(zs.len(), 3);
        m.merge(&zs);
        assert_eq!(m.deltas(Gauge::PoolResident), [7, 0, 0]);
        assert_eq!(m.final_level(Gauge::PoolResident), 7);
        assert_eq!(m.max_level(Gauge::PoolResident), 7);
        // ...and the merged length covers the longer of the two inputs.
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn delta_since_round_trips_through_merge() {
        let r = GaugeRecorder::new();
        r.enable(100);
        r.add(0, Gauge::VerbsOutstanding, 1);
        r.add(40, Gauge::VerbsOutstanding, -1);
        let early = r.snapshot();
        r.add(150, Gauge::VerbsOutstanding, 1);
        r.add(320, Gauge::MembershipEpoch, 1);
        let late = r.snapshot();
        let delta = late.delta_since(&early);
        let mut rebuilt = early.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, late);
    }

    #[test]
    fn delta_since_survives_width_doubling() {
        let r = GaugeRecorder::new();
        r.enable(10);
        r.add(5, Gauge::PoolResident, 1);
        let early = r.snapshot();
        assert_eq!(early.window_ns, 10);
        // Push the recorder past MAX_WINDOWS so the width doubles.
        r.add(10 * (MAX_WINDOWS as u64 + 1), Gauge::PoolResident, 1);
        let late = r.snapshot();
        assert_eq!(late.window_ns, 20);
        let delta = late.delta_since(&early);
        let mut rebuilt = early.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, late);
    }

    #[test]
    fn clear_restores_base_width_and_zero_levels() {
        let r = GaugeRecorder::new();
        r.enable(10);
        r.add(10 * (MAX_WINDOWS as u64 + 1), Gauge::LocksHeld, 5);
        assert_eq!(r.snapshot().window_ns, 20);
        r.clear();
        assert_eq!(r.snapshot().window_ns, 10);
        assert!(r.snapshot().is_empty());
        assert_eq!(r.level(Gauge::LocksHeld), 0);
    }

    #[test]
    fn gauge_names_round_trip() {
        for g in Gauge::ALL {
            assert_eq!(Gauge::from_name(g.name()), Some(g));
        }
        assert_eq!(Gauge::from_name("no_such_gauge"), None);
    }
}
