//! Criterion microbenchmarks for the simulator's hot paths.
//!
//! These measure *real* (wall-clock) cost of the substrate — how fast the
//! simulation itself executes — complementing the `exp_*` binaries, which
//! report *virtual-time* (modeled) results. Run with
//! `cargo bench -p bench`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;

use buffer::{all_policies, BufferPool, WriteMode};
use dsm::{DsmConfig, DsmLayer};
use index::{RaceHash, RemoteBTree};
use rdma_sim::{Fabric, NetworkProfile};
use txn::{ConcurrencyControl, DirectIo, ExclusiveLock, Occ, Op, SharedExclusiveLock, TwoPhaseLocking, TxnCtx};

fn layer() -> Arc<DsmLayer> {
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 2,
            capacity_per_node: 32 << 20,
            ..Default::default()
        },
    )
}

fn bench_verbs(c: &mut Criterion) {
    let l = layer();
    let ep = l.fabric().endpoint();
    let addr = l.alloc(4096).unwrap();
    let mut group = c.benchmark_group("verbs");
    let mut buf = [0u8; 64];
    group.bench_function("read_64B", |b| {
        b.iter(|| l.read(&ep, addr, &mut buf).unwrap())
    });
    group.bench_function("write_64B", |b| {
        b.iter(|| l.write(&ep, addr, &buf).unwrap())
    });
    group.bench_function("cas", |b| b.iter(|| l.cas(&ep, addr, 0, 0).unwrap()));
    group.bench_function("faa", |b| b.iter(|| l.faa(&ep, addr, 1).unwrap()));
    group.finish();
}

fn bench_locks(c: &mut Criterion) {
    let l = layer();
    let ep = l.fabric().endpoint();
    let excl = l.alloc(8).unwrap();
    let sh = l.alloc(16).unwrap();
    let mut group = c.benchmark_group("locks");
    group.bench_function("exclusive_acq_rel", |b| {
        b.iter(|| {
            ExclusiveLock::acquire(&l, &ep, excl, 1, 0).unwrap();
            ExclusiveLock::release(&l, &ep, excl).unwrap();
        })
    });
    group.bench_function("shared_excl_acq_rel", |b| {
        b.iter(|| {
            SharedExclusiveLock::acquire_shared(&l, &ep, sh, 0).unwrap();
            SharedExclusiveLock::release_shared(&l, &ep, sh, 0).unwrap();
        })
    });
    group.finish();
}

fn bench_cc(c: &mut Criterion) {
    let l = layer();
    let table = txn::RecordTable::create(&l, 1024, 64, 1).unwrap();
    let ep = l.fabric().endpoint();
    let ctx = TxnCtx {
        ep: &ep,
        table: &table,
        io: &DirectIo,
        worker_tag: 1,
    };
    let mut group = c.benchmark_group("cc");
    let tpl = TwoPhaseLocking::exclusive();
    let occ = Occ::new();
    let mut i = 0u64;
    group.bench_function("2pl_rmw", |b| {
        b.iter(|| {
            i = (i + 1) % 1024;
            tpl.execute(&ctx, &[Op::Rmw { key: i, delta: 1 }]).unwrap()
        })
    });
    group.bench_function("occ_rmw", |b| {
        b.iter(|| {
            i = (i + 1) % 1024;
            occ.execute(&ctx, &[Op::Rmw { key: i, delta: 1 }]).unwrap()
        })
    });
    group.finish();
}

fn bench_buffer_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer_hit_path");
    for policy in all_policies(256) {
        let name = policy.name();
        let l = layer();
        let pool = BufferPool::new(l.clone(), 64, 256, policy, WriteMode::WriteThrough);
        let ep = l.fabric().endpoint();
        let addr = l.alloc(64).unwrap();
        let mut buf = [0u8; 64];
        pool.read_page(&ep, addr, &mut buf).unwrap(); // warm
        group.bench_function(name, |b| {
            b.iter(|| pool.read_page(&ep, addr, &mut buf).unwrap())
        });
    }
    group.finish();
}

fn bench_indexes(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_lookup");
    {
        let l = layer();
        let (t, _) = RemoteBTree::create(&l, true, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in 0..10_000u64 {
            t.insert(&ep, k, k).unwrap();
        }
        let mut i = 0u64;
        group.bench_function("btree_cached", |b| {
            b.iter(|| {
                i = (i + 7) % 10_000;
                t.search(&ep, i).unwrap()
            })
        });
    }
    // Depth 14 is the directory size of perfbench's `index_kv` (16,384
    // buckets): a lookup whose host cost grew with the directory shows
    // up as a gap between the two cases.
    for (name, depth) in [("race_hash", 8), ("race_hash_depth14", 14)] {
        let l = layer();
        let (h, _) = RaceHash::create(&l, depth, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in 1..=10_000u64 {
            h.put(&ep, k, k).unwrap();
        }
        let mut i = 1u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                i = i % 10_000 + 1;
                h.get(&ep, i).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_multi_get(c: &mut Criterion) {
    const K: usize = 16;
    let l = layer();
    let ep = l.fabric().endpoint();
    let addrs: Vec<_> = (0..K).map(|_| l.alloc(64).unwrap()).collect();
    let mut group = c.benchmark_group("multi_get_16x64B");
    let mut buf = vec![0u8; K * 64];
    group.bench_function("sequential", |b| {
        b.iter(|| {
            for (addr, dst) in addrs.iter().zip(buf.chunks_exact_mut(64)) {
                l.read(&ep, *addr, dst).unwrap();
            }
        })
    });
    group.bench_function("doorbell_batched", |b| {
        b.iter(|| {
            let mut reqs: Vec<_> = addrs
                .iter()
                .copied()
                .zip(buf.chunks_exact_mut(64).map(|s| &mut s[..]))
                .collect();
            l.read_batch(&ep, &mut reqs).unwrap()
        })
    });
    group.finish();
}

fn bench_pool_striping(c: &mut Criterion) {
    use std::time::Instant;
    const PAGES: usize = 1024;
    let mut group = c.benchmark_group("pool_hit_contention");
    for shards in [1usize, 8] {
        let l = layer();
        let pool = Arc::new(BufferPool::new_striped(
            l.clone(),
            64,
            PAGES,
            shards,
            |cap| Box::new(buffer::ClockPolicy::new(cap)),
            WriteMode::WriteThrough,
        ));
        let addrs: Vec<_> = (0..PAGES).map(|_| l.alloc(64).unwrap()).collect();
        let addrs = Arc::new(addrs);
        {
            // Warm: every page resident, so the measured path is pure hits.
            let ep = l.fabric().endpoint();
            let mut buf = [0u8; 64];
            for a in addrs.iter() {
                pool.read_page(&ep, *a, &mut buf).unwrap();
            }
        }
        for threads in [1usize, 4, 8, 16] {
            let id = format!("{shards}shard_{threads}thr");
            group.bench_function(&id, |b| {
                b.iter_custom(|iters| {
                    let per_thread = (iters as usize / threads).max(1);
                    let start = Instant::now();
                    std::thread::scope(|sc| {
                        for t in 0..threads {
                            let pool = pool.clone();
                            let addrs = addrs.clone();
                            let l = l.clone();
                            sc.spawn(move || {
                                let ep = l.fabric().endpoint();
                                let mut buf = [0u8; 64];
                                let mut x = t as u64 + 1;
                                for _ in 0..per_thread {
                                    // xorshift: cheap thread-private page pick
                                    x ^= x << 13;
                                    x ^= x >> 7;
                                    x ^= x << 17;
                                    let a = addrs[(x as usize) % PAGES];
                                    pool.read_page(&ep, a, &mut buf).unwrap();
                                }
                            });
                        }
                    });
                    let elapsed = start.elapsed();
                    // Normalise to the requested iteration count so the
                    // reported per-op time is comparable across thread
                    // counts.
                    let done = (per_thread * threads) as u32;
                    elapsed * iters as u32 / done.max(1)
                })
            });
        }
    }
    group.finish();
}

fn bench_erasure(c: &mut Criterion) {
    let cfg = dsm::ErasureConfig {
        data_shards: 4,
        parity_shards: 2,
    };
    let data = vec![0xA5u8; 4096];
    let mut group = c.benchmark_group("erasure");
    group.bench_function("encode_4k_4+2", |b| {
        b.iter(|| dsm::erasure::encode(cfg, &data))
    });
    let shards: Vec<Option<Vec<u8>>> = dsm::erasure::encode(cfg, &data)
        .into_iter()
        .map(Some)
        .collect();
    let mut lost = shards.clone();
    lost[1] = None;
    lost[4] = None;
    group.bench_function("decode_2_lost", |b| {
        b.iter_batched(
            || lost.clone(),
            |s| dsm::erasure::decode(cfg, &s).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_verbs,
    bench_locks,
    bench_cc,
    bench_buffer_policies,
    bench_multi_get,
    bench_pool_striping,
    bench_indexes,
    bench_erasure
);
criterion_main!(benches);
