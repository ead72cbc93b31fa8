//! The host ladder: host ns per public call of each layer, timed on the
//! workload's own DSM layer after its timed loop.
//!
//! Each rung calls one public function in a tight loop; the figure is
//! the median over [`REPS`] repetitions of the mean ns per call. The
//! ladder's endpoint has the recording planes on, as the workload's
//! sessions do. A pure-CPU calibration rung lets figures from different
//! hosts be compared as ratios.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use buffer::{BufferPool, ClockPolicy, WriteMode};
use dsm::{DsmLayer, GlobalAddr};
use index::{RaceHash, RemoteBTree};
use rdma_sim::Endpoint;
use txn::{ConcurrencyControl, DirectIo, ExclusiveLock, Op, RecordTable, TwoPhaseLocking, TxnCtx};

use crate::pass::{calibrate, enable_endpoint_planes, median, CALIB_ITERS};

/// Repetitions per rung.
pub const REPS: usize = 9;

/// Calls per repetition.
const CALLS: u64 = 2_000;

/// Mailbox id the ladder registers (outside the engine's id ranges).
const LADDER_MAILBOX: u64 = 0x7AD0_0000_0000;

/// Keys of the small indexes built when the workload has none.
const SMALL_INDEX_KEYS: u64 = 4_096;

/// Indexes to time instead of building small ones.
pub struct IndexRefs<'a> {
    /// The workload's hash index.
    pub hash: &'a RaceHash,
    /// The workload's B+tree.
    pub tree: &'a RemoteBTree,
    /// Keys `1..=keys` are present in both.
    pub keys: u64,
}

/// Every rung's result, in [`RUNGS`] order.
#[derive(Debug, Clone, Default)]
pub struct Ladder {
    /// `(name, value)` per rung.
    pub rungs: Vec<(&'static str, f64)>,
}

impl Ladder {
    /// The value of rung `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.rungs
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Rung names, in the order [`run`] fills them.
pub const RUNGS: [&str; 15] = [
    "ladder_calib_ns",
    "ladder_read_ns",
    "ladder_write_ns",
    "ladder_cas_ns",
    "ladder_dsm_read16_ns",
    "ladder_dsm_batch16_ns",
    "ladder_pool_hit_ns",
    "ladder_lock_ns",
    "ladder_2pl_ns",
    "ladder_mailbox_ns",
    "race_get_host_ns",
    "race_put_host_ns",
    "btree_scan_host_ns",
    "verbs_per_get",
    "verbs_per_scan",
];

/// Median over [`REPS`] of the mean host ns per call of `f(i)`.
fn per_call_ns(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&reps)
}

/// Verbs per call of `f(i)` over `calls` calls.
fn verbs_per_call(ep: &Endpoint, calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let before = ep.stats().round_trips();
    for i in 0..calls {
        f(i);
    }
    (ep.stats().round_trips() - before) as f64 / calls as f64
}

/// Time every rung on `layer`. Index rungs use `index` when given,
/// else small indexes built on `layer`.
pub fn run(layer: &Arc<DsmLayer>, index: Option<IndexRefs>) -> Ladder {
    let ep = layer.fabric().endpoint();
    enable_endpoint_planes(&ep, 0x1AD);
    let mut rungs = Vec::with_capacity(RUNGS.len());
    let mut push = |name: &'static str, v: f64| rungs.push((name, v));

    push(
        "ladder_calib_ns",
        per_call_ns(1, |_| {
            black_box(calibrate(CALIB_ITERS));
        }) / CALIB_ITERS as f64,
    );

    let cell = layer.alloc(4096).expect("ladder cell fits");
    let (node, off) = (cell.node(), cell.offset());
    let mut buf = [0u8; 64];
    push(
        "ladder_read_ns",
        per_call_ns(CALLS, |_| ep.read(node, off, &mut buf).expect("read")),
    );
    push(
        "ladder_write_ns",
        per_call_ns(CALLS, |_| ep.write(node, off, &buf).expect("write")),
    );
    push(
        "ladder_cas_ns",
        per_call_ns(CALLS, |_| {
            black_box(ep.cas(node, off, 0, 0).expect("cas"));
        }),
    );

    let addrs: Vec<GlobalAddr> = (0..16).map(|i| cell.offset_by(128 + i * 64)).collect();
    let mut page = vec![0u8; 16 * 64];
    push(
        "ladder_dsm_read16_ns",
        per_call_ns(CALLS / 16, |_| {
            for (a, dst) in addrs.iter().zip(page.chunks_exact_mut(64)) {
                layer.read(&ep, *a, dst).expect("dsm read");
            }
        }),
    );
    push(
        "ladder_dsm_batch16_ns",
        per_call_ns(CALLS / 16, |_| {
            let mut reqs: Vec<(GlobalAddr, &mut [u8])> = addrs
                .iter()
                .copied()
                .zip(page.chunks_exact_mut(64))
                .collect();
            layer.read_batch(&ep, &mut reqs).expect("dsm batch read");
        }),
    );

    let pool = BufferPool::new(
        layer.clone(),
        64,
        64,
        Box::new(ClockPolicy::new(64)),
        WriteMode::WriteThrough,
    );
    pool.read_page(&ep, cell, &mut buf).expect("pool warm-up");
    push(
        "ladder_pool_hit_ns",
        per_call_ns(CALLS, |_| {
            black_box(pool.read_page(&ep, cell, &mut buf).expect("pool hit"));
        }),
    );

    let lock = cell.offset_by(8);
    push(
        "ladder_lock_ns",
        per_call_ns(CALLS, |_| {
            ExclusiveLock::acquire(layer, &ep, lock, 0x1AD, 0).expect("ladder lock is free");
            ExclusiveLock::release(layer, &ep, lock).expect("ladder lock is held");
        }),
    );

    let table = RecordTable::create(layer, 1024, 64, 1).expect("ladder table fits");
    let ctx = TxnCtx {
        ep: &ep,
        table: &table,
        io: &DirectIo,
        worker_tag: 0x1AD,
    };
    let tpl = TwoPhaseLocking::exclusive();
    push(
        "ladder_2pl_ns",
        per_call_ns(CALLS, |i| {
            tpl.execute(
                &ctx,
                &[Op::Rmw {
                    key: i % 1024,
                    delta: 1,
                }],
            )
            .expect("uncontended 2PL commits");
        }),
    );

    let mailbox = layer.fabric().mailboxes().register(LADDER_MAILBOX);
    push(
        "ladder_mailbox_ns",
        per_call_ns(CALLS, |_| {
            ep.send(LADDER_MAILBOX, LADDER_MAILBOX, vec![0u8; 32])
                .expect("send");
            black_box(ep.try_recv(&mailbox).expect("the message just sent"));
        }),
    );
    layer.fabric().mailboxes().unregister(LADDER_MAILBOX);

    let small;
    let idx = match index {
        Some(refs) => refs,
        None => {
            small = small_indexes(layer, &ep);
            IndexRefs {
                hash: &small.0,
                tree: &small.1,
                keys: SMALL_INDEX_KEYS,
            }
        }
    };
    let key = |i: u64| (i * 7919) % idx.keys + 1;
    push(
        "race_get_host_ns",
        per_call_ns(CALLS, |i| {
            black_box(idx.hash.get(&ep, key(i)).expect("get"));
        }),
    );
    push(
        "race_put_host_ns",
        per_call_ns(CALLS, |i| {
            idx.hash.put(&ep, key(i), i).expect("put");
        }),
    );
    push(
        "btree_scan_host_ns",
        per_call_ns(CALLS / 4, |i| {
            black_box(idx.tree.scan(&ep, key(i), 16).expect("scan"));
        }),
    );
    push(
        "verbs_per_get",
        verbs_per_call(&ep, CALLS, |i| {
            black_box(idx.hash.get(&ep, key(i)).expect("get"));
        }),
    );
    push(
        "verbs_per_scan",
        verbs_per_call(&ep, CALLS / 4, |i| {
            black_box(idx.tree.scan(&ep, key(i), 16).expect("scan"));
        }),
    );
    debug_assert!(rungs.iter().map(|r| r.0).eq(RUNGS));
    Ladder { rungs }
}

fn small_indexes(layer: &Arc<DsmLayer>, ep: &Endpoint) -> (RaceHash, RemoteBTree) {
    let (hash, _) = RaceHash::create(layer, 10, 0x1AD).expect("ladder hash fits");
    let (tree, _) = RemoteBTree::create(layer, true, 0x1AD).expect("ladder tree fits");
    for k in 1..=SMALL_INDEX_KEYS {
        hash.put(ep, k, k).expect("ladder preload put");
        tree.insert(ep, k, k).expect("ladder preload insert");
    }
    (hash, tree)
}
