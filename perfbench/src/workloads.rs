//! The four workloads and why each exists.
//!
//! | workload | shape | what it exercises |
//! |---|---|---|
//! | `onesided_oltp` | Fig. 3a, 2PL exclusive, 8 sessions round-robin on one thread | every access is a remote verb plus an RDMA lock: `rdma-sim`, `dsm` and `txn` locks do the work, `buffer` and 2PC none |
//! | `cached_readmostly` | Fig. 3c on one node (owner-local), 4 sessions round-robin | the `buffer` hit path and doorbell-batched misses; data 10x the cache |
//! | `sharded_2pc` | Fig. 3c, 2 nodes x 1 thread | the only message path: 2PC prepare/decide, mailboxes, `serve_pending` |
//! | `index_kv` | one thread over a RACE hash and a cached-internal B+tree | the `index` layer, which no other workload touches |
//!
//! The single-thread workloads repeat their virtual metrics exactly for
//! a seed. `sharded_2pc` does not: its two sessions run on real threads
//! and mailboxes deliver in real arrival order, so which message a
//! session sees first is decided in host time.

use dsmdb::{Architecture, CcProtocol, ClusterConfig};
use rdma_sim::NetworkProfile;

use crate::kvload::KvWorkload;
use crate::pass::{PassOut, PassSpec};
use crate::txnload::{Mix, TxnWorkload};

/// Workload names, in report order.
pub const NAMES: [&str; 4] = [
    "onesided_oltp",
    "cached_readmostly",
    "sharded_2pc",
    "index_kv",
];

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// A `dsmdb` transaction workload.
    Txn(TxnWorkload),
    /// The index key-value workload.
    Kv(KvWorkload),
}

impl Workload {
    /// Run one pass.
    pub fn pass(&self, spec: &PassSpec) -> PassOut {
        match self {
            Workload::Txn(w) => w.pass(spec),
            Workload::Kv(w) => w.pass(spec),
        }
    }

    /// Whether every client runs on one thread (virtual time repeats).
    pub fn single_thread(&self) -> bool {
        match self {
            Workload::Txn(w) => w.config.compute_nodes == 1,
            Workload::Kv(_) => true,
        }
    }

    /// The same workload with every count divided by `div` (tests).
    pub fn scaled(self, div: u64) -> Workload {
        match self {
            Workload::Txn(mut w) => {
                w.config.n_records /= div;
                w.config.cache_frames =
                    (w.config.cache_frames / div as usize).max(w.config.pool_shards);
                w.warmup /= div;
                w.window /= div;
                Workload::Txn(w)
            }
            Workload::Kv(mut w) => {
                w.keys /= div;
                w.warmup /= div;
                w.window /= div;
                Workload::Kv(w)
            }
        }
    }
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    let cx6 = NetworkProfile::rdma_cx6();
    Some(match name {
        "onesided_oltp" => Workload::Txn(TxnWorkload {
            config: ClusterConfig {
                compute_nodes: 1,
                threads_per_node: 8,
                memory_nodes: 2,
                n_records: 131_072,
                payload_size: 64,
                profile: cx6,
                architecture: Architecture::NoCacheNoShard,
                cc: CcProtocol::TplExclusive,
                ..ClusterConfig::default()
            },
            mix: Mix::Zipf {
                ops: 8,
                read_pct: 50,
                theta: 0.99,
            },
            antagonist: true,
            warmup: 500,
            window: 50_000,
        }),
        "cached_readmostly" => Workload::Txn(TxnWorkload {
            config: ClusterConfig {
                compute_nodes: 1,
                threads_per_node: 4,
                memory_nodes: 2,
                n_records: 65_536,
                payload_size: 256,
                cache_frames: 6_554,
                profile: cx6,
                architecture: Architecture::CacheShard,
                cc: CcProtocol::TplExclusive,
                ..ClusterConfig::default()
            },
            mix: Mix::Zipf {
                ops: 16,
                read_pct: 95,
                theta: 0.99,
            },
            antagonist: false,
            warmup: 2_000,
            window: 100_000,
        }),
        "sharded_2pc" => Workload::Txn(TxnWorkload {
            config: ClusterConfig {
                compute_nodes: 2,
                threads_per_node: 1,
                memory_nodes: 2,
                n_records: 32_768,
                payload_size: 64,
                cache_frames: 16_384,
                profile: cx6,
                architecture: Architecture::CacheShard,
                cc: CcProtocol::TplExclusive,
                ..ClusterConfig::default()
            },
            mix: Mix::Transfer { cross_pct: 20 },
            antagonist: false,
            warmup: 20_000,
            window: 500_000,
        }),
        "index_kv" => Workload::Kv(KvWorkload {
            keys: 65_536,
            theta: 0.99,
            get_pct: 90,
            put_pct: 5,
            scan_len: 16,
            warmup: 20_000,
            window: 400_000,
        }),
        _ => return None,
    })
}
