//! The one windowing primitive behind every virtual-time plane.
//!
//! The counter series ([`crate::timeseries`]), the gauge health plane
//! ([`crate::live`]) and the per-node utilization tracks
//! ([`crate::utilization`]) all bucket events into fixed-width windows
//! of virtual time and merge across sessions. The width policy lives
//! here, once:
//!
//! * **Doubling.** A recorder starts at its configured base width and
//!   doubles it (folding adjacent windows) whenever an event lands past
//!   [`MAX_WINDOWS`], so memory stays bounded without losing an event.
//! * **Coarsening.** [`Windowed::coarsen_to`] re-buckets to any multiple
//!   of the current width.
//! * **Merging.** [`Windowed::merge`] aligns both sides to the least
//!   common multiple of their widths, then folds window by window.
//!
//! A plane supplies only its window type and that type's [`Fold`]:
//! addition for the `u64` counters and the `i64` gauge deltas,
//! add-or-max for [`crate::utilization::UtilWindow`].
//!
//! **Why this is exact.** An event at virtual time `t` lands in window
//! `t / width`, and widths only grow by integer factors, so
//! `floor(floor(t/w)/f) == floor(t/(w*f))`: folding later is the same
//! as having recorded coarse from the start. As long as the fold is
//! associative and commutative with `Default` as its identity (sums and
//! maxima both are), merging per-session windows in any order equals
//! one recorder that saw every event — even when the sessions doubled
//! their widths at different points.

use std::cell::{Cell, RefCell};
use std::ops::AddAssign;

/// Hard cap on windows held by one recorder; crossing it doubles the
/// window width.
pub const MAX_WINDOWS: usize = 512;

/// The per-window columns of one plane. `absorb` must be associative
/// and commutative, with `Default` as its identity.
pub trait Fold: Copy + Default {
    /// Fold `other` into `self`.
    fn absorb(&mut self, other: &Self);
}

/// Additive columns: the `u64` counters and the `i64` gauge deltas.
impl<T: Copy + AddAssign, const N: usize> Fold for [T; N]
where
    [T; N]: Default,
{
    #[inline]
    fn absorb(&mut self, other: &Self) {
        for (d, &s) in self.iter_mut().zip(other) {
            *d += s;
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Least common multiple of two window widths: the width two planes
/// align to before they are folded together.
pub(crate) fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

/// How many `from_ns` windows make one `to_ns` window. Panics unless
/// `to_ns` is a multiple of `from_ns`.
pub(crate) fn factor(from_ns: u64, to_ns: u64) -> usize {
    assert!(
        to_ns.is_multiple_of(from_ns),
        "coarsen_to({to_ns}) not a multiple of {from_ns}"
    );
    (to_ns / from_ns) as usize
}

/// Fold every run of `factor` adjacent windows into one, in place.
/// Exact: each window only moves into the coarser window containing it.
#[cold]
pub(crate) fn coarsen_track<W: Fold>(track: &mut Vec<W>, factor: usize) {
    if factor <= 1 {
        return;
    }
    let len = track.len().div_ceil(factor);
    for i in 0..len {
        let start = i * factor;
        let mut acc = track[start];
        for w in &track[start + 1..(start + factor).min(track.len())] {
            acc.absorb(w);
        }
        track[i] = acc;
    }
    track.truncate(len);
}

/// Fold `src` into `dst` window by window (same width), growing `dst`
/// to cover `src`.
pub(crate) fn absorb_track<W: Fold>(dst: &mut Vec<W>, src: &[W]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), W::default());
    }
    for (d, s) in dst.iter_mut().zip(src) {
        d.absorb(s);
    }
}

/// A recorder's window width: the configured base, doubled on demand.
/// Width 0 means the recorder is off.
#[derive(Debug, Default)]
pub(crate) struct Width {
    base_ns: Cell<u64>,
    ns: Cell<u64>,
}

impl Width {
    /// Configure (and restart from) `width_ns`.
    pub(crate) fn set(&self, width_ns: u64) {
        self.base_ns.set(width_ns);
        self.ns.set(width_ns);
    }

    /// Current width, virtual ns.
    #[inline]
    pub(crate) fn get(&self) -> u64 {
        self.ns.get()
    }

    /// Restore the configured base width.
    pub(crate) fn reset(&self) {
        self.ns.set(self.base_ns.get());
    }

    /// The window covering `now_ns`, and the factor every track of the
    /// recorder must first be coarsened by (1 = unchanged): the width
    /// doubles until the window index fits under [`MAX_WINDOWS`].
    /// The width must be non-zero.
    #[inline(always)]
    pub(crate) fn slot(&self, now_ns: u64) -> (usize, usize) {
        let idx = now_ns / self.ns.get();
        if idx < MAX_WINDOWS as u64 {
            (idx as usize, 1)
        } else {
            self.grow(now_ns)
        }
    }

    /// The doubling half of [`Width::slot`], kept out of line: it runs
    /// once per doubling, the fast path once per recorded event.
    #[cold]
    #[inline(never)]
    fn grow(&self, now_ns: u64) -> (usize, usize) {
        let width = self.ns.get();
        let mut grown = width;
        while now_ns / grown >= MAX_WINDOWS as u64 {
            grown *= 2;
        }
        self.ns.set(grown);
        ((now_ns / grown) as usize, (grown / width) as usize)
    }
}

/// Per-thread collector of one windowed track. Off (width 0) until
/// [`Recorder::enable`]; recording while off is a no-op, so
/// instrumented layers can call unconditionally.
#[derive(Debug, Default)]
pub struct Recorder<W> {
    width: Width,
    windows: RefCell<Vec<W>>,
}

impl<W: Fold> Recorder<W> {
    /// A recorder that ignores everything until enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn sampling on with `width_ns`-wide windows (0 turns it off).
    /// Drops any previously recorded windows.
    pub fn enable(&self, width_ns: u64) {
        self.width.set(width_ns);
        self.windows.borrow_mut().clear();
    }

    /// Whether sampling is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.width.get() != 0
    }

    /// Apply `fold` to the window covering virtual time `now_ns`,
    /// doubling the width first if the run outgrew [`MAX_WINDOWS`].
    /// Never advances any clock.
    // Always inlined: every verb records several events, and with a
    // plain `#[inline]` the verb path kept this out of line, costing
    // 4-18 ns per verb with the planes on.
    #[inline(always)]
    pub fn record(&self, now_ns: u64, fold: impl FnOnce(&mut W)) {
        if !self.enabled() {
            return;
        }
        let (idx, factor) = self.width.slot(now_ns);
        let mut windows = self.windows.borrow_mut();
        if factor > 1 {
            coarsen_track(&mut windows, factor);
        }
        if windows.len() <= idx {
            windows.resize(idx + 1, W::default());
        }
        fold(&mut windows[idx]);
    }

    /// Drop all windows and restore the configured base width.
    pub fn clear(&self) {
        self.width.reset();
        self.windows.borrow_mut().clear();
    }

    /// Copy out the recorded windows (empty when disabled).
    pub fn snapshot(&self) -> Windowed<W> {
        Windowed {
            window_ns: self.width.get(),
            windows: self.windows.borrow().clone(),
        }
    }
}

/// An immutable windowed track; the mergeable cross-thread result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Windowed<W> {
    /// Window width, virtual ns (0 only for the empty snapshot).
    pub window_ns: u64,
    /// Contiguous windows from virtual time 0; window `i` covers
    /// `[i*window_ns, (i+1)*window_ns)`.
    pub windows: Vec<W>,
}

impl<W: Fold> Windowed<W> {
    /// The identity for [`Windowed::merge`].
    pub fn empty() -> Self {
        Self {
            window_ns: 0,
            windows: Vec::new(),
        }
    }

    /// No windows recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Start of window `i`, virtual ns.
    pub fn window_start_ns(&self, i: usize) -> u64 {
        i as u64 * self.window_ns
    }

    /// Re-bucket to `new_width` (a multiple of the current width).
    pub fn coarsen_to(&mut self, new_width: u64) {
        if self.window_ns == new_width || self.is_empty() {
            self.window_ns = new_width.max(self.window_ns);
            return;
        }
        coarsen_track(&mut self.windows, factor(self.window_ns, new_width));
        self.window_ns = new_width;
    }

    /// Fold `other` into `self`. Widths align to their least common
    /// multiple first, so the operation is associative, commutative,
    /// and lossless.
    pub fn merge(&mut self, other: &Self) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        let target = lcm(self.window_ns, other.window_ns);
        self.coarsen_to(target);
        if other.window_ns == target {
            absorb_track(&mut self.windows, &other.windows);
        } else {
            let mut o = other.clone();
            o.coarsen_to(target);
            absorb_track(&mut self.windows, &o.windows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_doubles_until_the_index_fits() {
        let w = Width::default();
        w.set(10);
        assert_eq!(w.slot(5_110), (511, 1));
        assert_eq!(w.slot(5_120), (256, 2));
        assert_eq!(w.get(), 20);
        assert_eq!(w.slot(4 * 5_120), (512 / 2, 4));
        assert_eq!(w.get(), 80);
        w.reset();
        assert_eq!(w.get(), 10);
    }

    #[test]
    fn coarsen_track_folds_runs_including_a_short_tail() {
        let mut t = vec![[1u64], [2], [3], [4], [5]];
        coarsen_track(&mut t, 2);
        assert_eq!(t, [[3], [7], [5]]);
        coarsen_track(&mut t, 4);
        assert_eq!(t, [[15]]);
    }

    #[test]
    fn merge_aligns_to_the_lcm() {
        let a = Windowed {
            window_ns: 20,
            windows: vec![[1u64], [1], [1]],
        };
        let b = Windowed {
            window_ns: 30,
            windows: vec![[5u64], [5]],
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.window_ns, 60);
        assert_eq!(ab.windows, [[13u64]]);
        assert_eq!(lcm(20, 30), 60);
    }
}
