//! Property test for the one windowing primitive every windowed plane
//! shares: for a random base width, random events that force several
//! width doublings, and a random split of those events across
//! sessions, merging the per-session snapshots in any order equals one
//! single-threaded recorder — window for window. Checked for an
//! additive column (the counter and gauge planes) and for a max-folded
//! column (the utilization plane's `queue_hwm_ns`).

use proptest::prelude::*;
use telemetry::window::{Fold, Recorder, Windowed, MAX_WINDOWS};

const SESSIONS: usize = 4;

/// A max-folded column, like a per-window high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Max(u64);

impl Fold for Max {
    fn absorb(&mut self, other: &Self) {
        self.0 = self.0.max(other.0);
    }
}

/// One generated event: (virtual time, value, session, merge-order key).
type Event = (u64, u64, usize, u64);

fn record<W: Fold>(base: u64, events: &[&Event], cell: fn(u64) -> W) -> Windowed<W> {
    let r = Recorder::new();
    r.enable(base);
    for &&(t, v, ..) in events {
        r.record(t, |w: &mut W| w.absorb(&cell(v)));
    }
    r.snapshot()
}

/// The body lives outside the `proptest!` macro: large bodies blow the
/// macro recursion limit.
fn check<W: Fold + PartialEq + std::fmt::Debug>(
    base: u64,
    mut events: Vec<Event>,
    cell: fn(u64) -> W,
) -> Result<(), String> {
    // Virtual clocks are monotone per producer; sorting mirrors that.
    events.sort_by_key(|&(t, ..)| t);
    let all: Vec<&Event> = events.iter().collect();
    let reference = record(base, &all, cell);

    // Each session sees only its own events, so sessions whose clocks
    // stop early keep a finer width than the longest-running one.
    let mut per: Vec<(Windowed<W>, u64)> = (0..SESSIONS)
        .map(|sess| {
            let mine: Vec<&Event> = events.iter().filter(|e| e.2 == sess).collect();
            let key = mine.first().map_or(sess as u64, |e| e.3);
            (record(base, &mine, cell), key)
        })
        .collect();

    // Any order: a generated permutation, its reverse, and a tree.
    per.sort_by_key(|&(_, k)| k);
    let mut shuffled = Windowed::empty();
    for (s, _) in &per {
        shuffled.merge(s);
    }
    let mut reversed = Windowed::empty();
    for (s, _) in per.iter().rev() {
        reversed.merge(s);
    }
    let mut left = per[0].0.clone();
    left.merge(&per[1].0);
    let mut right = per[2].0.clone();
    right.merge(&per[3].0);
    left.merge(&right);

    prop_assert_eq!(&shuffled, &reference);
    prop_assert_eq!(&reversed, &reference);
    prop_assert_eq!(&left, &reference);
    prop_assert!(reference.len() <= MAX_WINDOWS);
    Ok(())
}

fn events() -> impl Strategy<Value = Vec<Event>> {
    // Up to 2^22 ns against base widths as small as 8 ns: up to ten
    // doublings past MAX_WINDOWS.
    proptest::collection::vec(
        (0u64..1 << 22, 1u64..1_000, 0usize..SESSIONS, any::<u64>()),
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn additive_column_merges_order_free_and_lossless(base in 8u64..64, events in events()) {
        check(base, events, |v| [v])?;
    }

    #[test]
    fn max_column_merges_order_free_and_lossless(base in 8u64..64, events in events()) {
        check(base, events, Max)?;
    }
}
