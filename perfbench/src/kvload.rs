//! The index workload: a key-value mix over DSM-resident indexes.
//!
//! One client on one thread drives a RACE hash and a Sherman-style
//! B+tree with cached internal nodes, both preloaded with every key.
//! A request is one of: a hash `get`, a `put` of a fresh value to both
//! indexes, or a B+tree `scan`. The client keeps a local model of every
//! key's value; each `get` and `scan` result is checked against it, and
//! after the run every key is read back from both indexes.

use std::time::Instant;

use dsm::{DsmConfig, DsmLayer};
use index::{RaceHash, RemoteBTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdma_sim::{Endpoint, Fabric, NetworkProfile};
use workload::ZipfGenerator;

use crate::ladder::{self, IndexRefs};
use crate::pass::{enable_endpoint_planes, Marks, PassOut, PassSpec, Slices, WindowAcc};
use crate::trace::Tracer;
use crate::txnload::stream_seed;

/// Correctness messages kept per pass (the count is always exact).
const MAX_MESSAGES: usize = 8;

/// The index workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct KvWorkload {
    /// Keys `1..=keys` preloaded into both indexes.
    pub keys: u64,
    /// Zipf skew of the key choice.
    pub theta: f64,
    /// Share of hash gets, percent.
    pub get_pct: u32,
    /// Share of puts to both indexes, percent (the rest are scans).
    pub put_pct: u32,
    /// Keys per B+tree scan.
    pub scan_len: usize,
    /// Warm-up requests (part of set-up).
    pub warmup: u64,
    /// Virtual-window requests.
    pub window: u64,
}

/// Initial value of `key`.
fn initial(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// One request, as drawn by [`KvGen`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Hash lookup.
    Get(u64),
    /// Write `value` under the key in both indexes.
    Put(u64, u64),
    /// B+tree range scan from the key.
    Scan(u64),
}

/// The index workload's request generator.
pub struct KvGen<'a> {
    rng: StdRng,
    zipf: &'a ZipfGenerator,
    w: KvWorkload,
}

impl<'a> KvGen<'a> {
    /// The stream of `seed`.
    pub fn new(w: KvWorkload, zipf: &'a ZipfGenerator, seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(stream_seed(seed, 0)),
            zipf,
            w,
        }
    }

    /// Draw the next request.
    pub fn draw(&mut self) -> KvOp {
        let key = workload::zipf::scramble(self.zipf.next(&mut self.rng), self.w.keys) + 1;
        let r = self.rng.gen_range(0..100);
        if r < self.w.get_pct {
            KvOp::Get(key)
        } else if r < self.w.get_pct + self.w.put_pct {
            KvOp::Put(key, self.rng.gen::<u64>())
        } else {
            KvOp::Scan(key)
        }
    }
}

struct Kv<'a> {
    w: KvWorkload,
    hash: RaceHash,
    tree: RemoteBTree,
    model: Vec<u64>,
    ep: Endpoint,
    gen: KvGen<'a>,
    started: u64,
    failed: u64,
    problems: Vec<String>,
    window: WindowAcc,
    slices: Option<Slices>,
}

impl Kv<'_> {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.problems.len() < MAX_MESSAGES {
            self.problems.push(msg);
        }
    }

    /// Issue one request, check its result, and account it.
    fn step(&mut self, tr: &mut Tracer) {
        self.started += 1;
        let req = self.started;
        tr.enter("attempt", req);
        let op = tr.span("gen", req, || self.gen.draw());
        let t0 = self.ep.clock().now_ns();
        tr.enter("execute", req);
        let result = match op {
            KvOp::Get(k) => {
                let got = tr.span("race_get", req, || self.hash.get(&self.ep, k));
                match got {
                    Ok(Some(v)) if v == self.model[k as usize] => Ok(()),
                    Ok(v) => Err(format!(
                        "get({k}) = {v:?}, last put {}",
                        self.model[k as usize]
                    )),
                    Err(e) => Err(format!("get({k}) failed: {e}")),
                }
            }
            KvOp::Put(k, v) => {
                let h = tr.span("race_put", req, || self.hash.put(&self.ep, k, v));
                let t = tr.span("btree_insert", req, || self.tree.insert(&self.ep, k, v));
                self.model[k as usize] = v;
                h.and(t).map_err(|e| format!("put({k}) failed: {e}"))
            }
            KvOp::Scan(k) => {
                let got = tr.span("btree_scan", req, || {
                    self.tree.scan(&self.ep, k, self.w.scan_len)
                });
                match got {
                    Ok(rows) => {
                        let want: Vec<(u64, u64)> = (k..=self.w.keys)
                            .take(self.w.scan_len)
                            .map(|key| (key, self.model[key as usize]))
                            .collect();
                        if rows == want {
                            Ok(())
                        } else {
                            Err(format!(
                                "scan({k}) returned {} rows unlike the model",
                                rows.len()
                            ))
                        }
                    }
                    Err(e) => Err(format!("scan({k}) failed: {e}")),
                }
            }
        };
        tr.exit();
        let latency = match result {
            Ok(()) => Some(self.ep.clock().now_ns() - t0),
            Err(msg) => {
                self.fail(msg);
                None
            }
        };
        let ep = &self.ep;
        self.window.note_finish(latency, || {
            tr.span("snapshot", req, || Marks::take(ep, None))
        });
        if let Some(s) = self.slices.as_mut() {
            s.note();
        }
        tr.exit();
    }

    /// Read every key back from both indexes.
    fn check(&mut self) {
        for k in 1..=self.w.keys {
            let want = Some(self.model[k as usize]);
            let h = self.hash.get(&self.ep, k).map_err(|e| e.to_string());
            let t = self.tree.search(&self.ep, k).map_err(|e| e.to_string());
            if h != Ok(want) || t != Ok(want) {
                self.fail(format!(
                    "readback of key {k}: hash {h:?}, tree {t:?}, last put {want:?}"
                ));
            }
        }
    }
}

impl KvWorkload {
    /// Run one pass.
    pub fn pass(&self, spec: &PassSpec) -> PassOut {
        let epoch = Instant::now();
        let mut tr = Tracer::new(spec.trace, epoch);
        let mut out = PassOut::default();
        tr.enter("setup", 0);
        let (layer, hash, tree) = tr.span("build", 0, || {
            let fabric = Fabric::new(NetworkProfile::rdma_cx6());
            let layer = DsmLayer::build(
                &fabric,
                DsmConfig {
                    memory_nodes: 2,
                    capacity_per_node: 32 << 20,
                    ..DsmConfig::default()
                },
            );
            let depth = (self.keys / 4).max(2).ilog2();
            let (hash, _) = RaceHash::create(&layer, depth, 1).expect("hash index fits");
            let (tree, _) = RemoteBTree::create(&layer, true, 1).expect("tree index fits");
            (layer, hash, tree)
        });
        let model = tr.span("load", 0, || {
            let ep = layer.fabric().endpoint();
            let mut model = vec![0u64; self.keys as usize + 1];
            for k in 1..=self.keys {
                model[k as usize] = initial(k);
                hash.put(&ep, k, initial(k)).expect("preload put");
                tree.insert(&ep, k, initial(k)).expect("preload insert");
            }
            model
        });
        let zipf = ZipfGenerator::new(self.keys, self.theta);
        let ep = layer.fabric().endpoint();
        if spec.planes {
            enable_endpoint_planes(&ep, 1);
        }
        let mut kv = Kv {
            w: *self,
            hash,
            tree,
            model,
            ep,
            gen: KvGen::new(*self, &zipf, spec.seed),
            started: 0,
            failed: 0,
            problems: Vec::new(),
            window: WindowAcc::default(),
            slices: None,
        };
        tr.enter("warmup", 0);
        for _ in 0..self.warmup {
            kv.step(&mut tr);
        }
        tr.exit();
        tr.exit();
        out.setup_s = epoch.elapsed().as_secs_f64();

        if let Some(timed) = spec.timed {
            let t0 = Instant::now();
            kv.started = 0;
            kv.window = tr.span("snapshot", 0, || {
                WindowAcc::open(self.window, Marks::take(&kv.ep, None))
            });
            kv.slices = Some(Slices::new(t0));
            while !kv.window.closed() || t0.elapsed() < timed.min_host {
                kv.step(&mut tr);
            }
            if let Some(s) = kv.slices.as_mut() {
                s.stopped = Some(Instant::now());
            }
            out.window_host_s = kv.window.closed_at.map_or(0.0, |t| (t - t0).as_secs_f64());
        }
        tr.span("verify", 0, || kv.check());
        out.attempted = kv.started;
        out.failed = kv.failed;
        out.problems = std::mem::take(&mut kv.problems);
        if let Some(s) = kv.slices.take() {
            (out.raw_slice_rates, out.slice_rates) = Slices::rates(&[s]);
            out.windows.push(std::mem::take(&mut kv.window).finish());
        }
        let user = self.keys as f64 * 16.0;
        out.bytes_per_user_byte = layer.pool_stats().allocated as f64 / user;
        if spec.ladder {
            let refs = IndexRefs {
                hash: &kv.hash,
                tree: &kv.tree,
                keys: self.keys,
            };
            out.ladder = Some(ladder::run(&layer, Some(refs)));
        }
        out.spans.push(tr.into_spans());
        out
    }
}
