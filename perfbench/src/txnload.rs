//! The transaction workloads: closed-loop clients on `dsmdb` sessions.
//!
//! Every client owns one [`Session`] and keeps exactly one request in
//! flight: it issues the next request only when the previous one has
//! committed or failed. An aborted attempt is retried on the client's
//! next turn, up to [`MAX_ATTEMPTS`] attempts.
//!
//! Single-node workloads run every session round-robin on one thread,
//! so their virtual time repeats exactly for a seed. Multi-node
//! workloads run one thread per session, because 2PC needs the peer
//! to answer while the coordinator waits.
//!
//! Every record starts at [`INITIAL`]; every committed transaction adds
//! its deltas to the client's ledger, and after the run the sum of all
//! records must equal `records * INITIAL` plus the ledgers.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dsmdb::{Cluster, ClusterConfig, Op, Session, TxnError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdma_sim::Endpoint;
use txn::ExclusiveLock;
use workload::ZipfGenerator;

use crate::ladder;
use crate::pass::{
    enable_planes, Marks, PassOut, PassSpec, Slices, WindowAcc, MAX_ATTEMPTS, REQUEST_TIMEOUT,
};
use crate::trace::{Span, Tracer};

/// Starting value of every record's counter.
pub const INITIAL: i64 = 1_000_000;

/// Lock-word tag of the antagonist (outside the session tag range).
const ANTAGONIST_TAG: u64 = 0xA11;

/// How a client draws its transactions.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// `ops` distinct keys, Zipf(`theta`) over the table; each op is a
    /// Read with `read_pct`% odds, else a +1 read-modify-write.
    Zipf {
        ops: usize,
        read_pct: u32,
        theta: f64,
    },
    /// A −1/+1 transfer between two distinct keys drawn uniformly; with
    /// `cross_pct`% odds the second key lies in the other node's shard.
    Transfer { cross_pct: u32 },
}

/// One transaction workload.
#[derive(Debug, Clone, Copy)]
pub struct TxnWorkload {
    /// Cluster shape: architecture, CC, sizes, sessions.
    pub config: ClusterConfig,
    /// Transaction mix.
    pub mix: Mix,
    /// Whether a deterministic holder squats on one Zipf-hot lock per
    /// round (round-robin workloads only).
    pub antagonist: bool,
    /// Warm-up requests per client (part of set-up).
    pub warmup: u64,
    /// Virtual-window requests per client.
    pub window: u64,
}

impl TxnWorkload {
    /// Clients in the pass.
    pub fn clients(&self) -> usize {
        self.config.compute_nodes * self.config.threads_per_node
    }

    /// Run one pass.
    pub fn pass(&self, spec: &PassSpec) -> PassOut {
        if self.config.compute_nodes == 1 {
            self.round_robin(spec)
        } else {
            self.threaded(spec)
        }
    }

    fn zipf(&self) -> Option<ZipfGenerator> {
        match self.mix {
            Mix::Zipf { theta, .. } => Some(ZipfGenerator::new(self.config.n_records, theta)),
            Mix::Transfer { .. } => None,
        }
    }

    fn build(&self, tr: &mut Tracer) -> Arc<Cluster> {
        let cluster = tr.span("build", 0, || {
            Cluster::build(self.config).expect("cluster builds")
        });
        tr.span("load", 0, || load(&cluster))
            .expect("initial load fits the table");
        cluster
    }

    /// All sessions of the single compute node, round-robin on this thread.
    fn round_robin(&self, spec: &PassSpec) -> PassOut {
        let epoch = Instant::now();
        let mut tr = Tracer::new(spec.trace, epoch);
        let mut out = PassOut::default();
        tr.enter("setup", 0);
        let cluster = self.build(&mut tr);
        let zipf = self.zipf();
        let mut clients: Vec<Client> = (0..self.clients())
            .map(|t| {
                let mut s = cluster.session(0, t);
                if spec.planes {
                    enable_planes(&mut s, t as u64 + 1);
                }
                let gen = Gen::new(&self.mix, zipf.as_ref(), &cluster, spec.seed, t, 0);
                Client::new(s, gen, t as u64)
            })
            .collect();
        let antagonist = self.antagonist.then(|| Antagonist {
            ep: cluster.fabric().endpoint(),
            cluster: &cluster,
            zipf: zipf.as_ref().expect("the antagonist draws Zipf keys"),
            seed: spec.seed,
        });
        let mut round = 0u64;
        tr.enter("warmup", 0);
        rr_loop(
            &mut clients,
            antagonist.as_ref(),
            &mut round,
            &mut tr,
            &mut None,
            |c| c.parts.started < self.warmup,
        );
        tr.exit();
        tr.exit();
        out.setup_s = epoch.elapsed().as_secs_f64();

        if let Some(timed) = spec.timed {
            let t0 = Instant::now();
            tr.enter("snapshot", 0);
            for c in &mut clients {
                c.open_window(self.window);
            }
            tr.exit();
            let mut slices = Some(Slices::new(t0));
            rr_loop(
                &mut clients,
                antagonist.as_ref(),
                &mut round,
                &mut tr,
                &mut slices,
                |c| !c.parts.window.closed() || t0.elapsed() < timed.min_host,
            );
            (out.raw_slice_rates, out.slice_rates) = Slices::rates(&[slices.expect("timed")]);
            out.window_host_s = clients
                .iter()
                .filter_map(|c| c.parts.window.closed_at)
                .max()
                .map_or(0.0, |t| (t - t0).as_secs_f64());
        }
        let ledger: i64 = clients.iter().map(|c| c.parts.ledger).sum();
        for c in clients {
            c.parts.finish_into(&mut out);
        }
        self.check_and_measure(&cluster, ledger, spec, &mut tr, &mut out);
        out.spans.push(tr.into_spans());
        out
    }

    /// One thread per session; peers answer 2PC while they wait.
    fn threaded(&self, spec: &PassSpec) -> PassOut {
        let epoch = Instant::now();
        let mut tr = Tracer::new(spec.trace, epoch);
        let mut out = PassOut::default();
        tr.enter("setup", 0);
        let cluster = self.build(&mut tr);
        tr.exit();
        let n = self.clients();
        let warmed = AtomicUsize::new(0);
        let go = AtomicBool::new(false);
        let start: OnceLock<Instant> = OnceLock::new();
        let finished = AtomicUsize::new(0);
        let zipf = self.zipf();
        let results: Vec<ThreadOut> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let (cluster, zipf) = (&cluster, zipf.as_ref());
                    let (warmed, go, start, finished) = (&warmed, &go, &start, &finished);
                    sc.spawn(move || {
                        let node = i / self.config.threads_per_node;
                        let thread = i % self.config.threads_per_node;
                        let mut tr = Tracer::new(spec.trace, epoch);
                        let mut s = cluster.session(node, thread);
                        if spec.planes {
                            enable_planes(&mut s, i as u64 + 1);
                        }
                        let gen = Gen::new(&self.mix, zipf, cluster, spec.seed, i, node);
                        let mut c = Client::new(s, gen, i as u64);
                        let mut slices = None;
                        tr.enter("warmup", 0);
                        while c.parts.started < self.warmup || !c.idle() {
                            c.step_serving(&mut tr, &mut slices);
                        }
                        tr.exit();
                        warmed.fetch_add(1, Ordering::AcqRel);
                        while !go.load(Ordering::Acquire) {
                            c.serve(&mut tr);
                        }
                        if let Some(timed) = spec.timed {
                            let t0 = *start.get().expect("start is set before go");
                            tr.span("snapshot", 0, || c.open_window(self.window));
                            slices = Some(Slices::new(t0));
                            while !c.idle()
                                || !c.parts.window.closed()
                                || t0.elapsed() < timed.min_host
                            {
                                c.step_serving(&mut tr, &mut slices);
                            }
                        }
                        if let Some(sl) = slices.as_mut() {
                            sl.stopped = Some(Instant::now());
                        }
                        // Keep answering peers until every session is done.
                        finished.fetch_add(1, Ordering::AcqRel);
                        while finished.load(Ordering::Acquire) < n {
                            c.serve(&mut tr);
                        }
                        c.session.serve_pending(usize::MAX >> 1);
                        let apply_failures = c.session.stats().apply_failures;
                        ThreadOut {
                            client: c.parts,
                            slices,
                            spans: tr.into_spans(),
                            apply_failures,
                        }
                    })
                })
                .collect();
            while warmed.load(Ordering::Acquire) < n {
                std::thread::yield_now();
            }
            out.setup_s = epoch.elapsed().as_secs_f64();
            start.set(Instant::now()).expect("start is set once");
            go.store(true, Ordering::Release);
            handles
                .into_iter()
                .map(|h| h.join().expect("session thread panicked"))
                .collect()
        });
        let t0 = start.get().copied();
        let mut slices = Vec::new();
        let mut ledger = 0;
        for r in results {
            if r.apply_failures > 0 {
                out.problems.push(format!(
                    "{} decided 2PC write-backs failed",
                    r.apply_failures
                ));
            }
            if let (Some(t0), Some(at)) = (t0, r.client.window.closed_at) {
                out.window_host_s = out.window_host_s.max((at - t0).as_secs_f64());
            }
            ledger += r.client.ledger;
            r.client.finish_into(&mut out);
            slices.extend(r.slices);
            out.spans.push(r.spans);
        }
        if spec.timed.is_some() {
            (out.raw_slice_rates, out.slice_rates) = Slices::rates(&slices);
        }
        self.check_and_measure(&cluster, ledger, spec, &mut tr, &mut out);
        out.spans.insert(0, tr.into_spans());
        out
    }

    fn check_and_measure(
        &self,
        cluster: &Arc<Cluster>,
        ledger: i64,
        spec: &PassSpec,
        tr: &mut Tracer,
        out: &mut PassOut,
    ) {
        if let Err(e) = tr.span("verify", 0, || check_conservation(cluster, ledger)) {
            out.problems.push(e);
        }
        let user = self.config.n_records as f64 * self.config.payload_size as f64;
        out.bytes_per_user_byte = cluster.layer().pool_stats().allocated as f64 / user;
        if spec.ladder {
            out.ladder = Some(ladder::run(cluster.layer(), None));
        }
    }
}

/// Spread `seed` into an independent stream per client.
pub(crate) fn stream_seed(seed: u64, client: u64) -> u64 {
    let mut x = seed ^ client.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-client request generator.
pub struct Gen<'a> {
    rng: StdRng,
    mix: Mix,
    zipf: Option<&'a ZipfGenerator>,
    records: u64,
    own: (u64, u64),
    other: Option<(u64, u64)>,
}

impl<'a> Gen<'a> {
    /// The generator of client `client` on compute node `node`; shard
    /// bounds come from the cluster's public shard map.
    pub fn new(
        mix: &Mix,
        zipf: Option<&'a ZipfGenerator>,
        cluster: &Cluster,
        seed: u64,
        client: usize,
        node: usize,
    ) -> Self {
        let nodes = cluster.config().compute_nodes;
        let range = |n: usize| cluster.shard_map().owned_ranges(n)[0];
        Self {
            rng: StdRng::seed_from_u64(stream_seed(seed, client as u64)),
            mix: *mix,
            zipf,
            records: cluster.config().n_records,
            own: range(node),
            other: (nodes > 1).then(|| range((node + 1) % nodes)),
        }
    }

    /// Draw the next transaction and the sum of its deltas.
    pub fn draw(&mut self) -> (Vec<Op>, i64) {
        match self.mix {
            Mix::Zipf { ops, read_pct, .. } => {
                let zipf = self.zipf.expect("a Zipf mix has a generator");
                let mut keys: Vec<u64> = Vec::with_capacity(ops);
                while keys.len() < ops {
                    let k = workload::zipf::scramble(zipf.next(&mut self.rng), self.records);
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
                let mut delta = 0;
                let ops = keys
                    .into_iter()
                    .map(|key| {
                        if self.rng.gen_range(0..100) < read_pct {
                            Op::Read(key)
                        } else {
                            delta += 1;
                            Op::Rmw { key, delta: 1 }
                        }
                    })
                    .collect();
                (ops, delta)
            }
            Mix::Transfer { cross_pct } => {
                let (lo, hi) = self.own;
                let a = self.rng.gen_range(lo..hi);
                let cross = self.rng.gen_range(0..100) < cross_pct;
                let b = match self.other {
                    Some((olo, ohi)) if cross => self.rng.gen_range(olo..ohi),
                    _ => loop {
                        let b = self.rng.gen_range(lo..hi);
                        if b != a {
                            break b;
                        }
                    },
                };
                (
                    vec![Op::Rmw { key: a, delta: -1 }, Op::Rmw { key: b, delta: 1 }],
                    0,
                )
            }
        }
    }
}

/// The request a client has in flight.
struct Pending {
    ops: Vec<Op>,
    delta: i64,
    attempts: u32,
    t0_ns: u64,
    since: Instant,
    req: u64,
}

/// One closed-loop client.
struct Client<'a> {
    session: Session,
    gen: Gen<'a>,
    parts: ClientParts,
    cur: Option<Pending>,
    id: u64,
}

/// Counters a client hands back when the pass ends.
#[derive(Debug, Default)]
struct ClientParts {
    started: u64,
    failed: u64,
    ledger: i64,
    problems: Vec<String>,
    window: WindowAcc,
}

impl ClientParts {
    fn finish_into(self, out: &mut PassOut) {
        out.attempted += self.started;
        out.failed += self.failed;
        out.problems.extend(self.problems);
        if self.window.opened() {
            out.windows.push(self.window.finish());
        }
    }
}

struct ThreadOut {
    client: ClientParts,
    slices: Option<Slices>,
    spans: Vec<Span>,
    apply_failures: u64,
}

impl<'a> Client<'a> {
    fn new(session: Session, gen: Gen<'a>, id: u64) -> Self {
        Self {
            session,
            gen,
            parts: ClientParts::default(),
            cur: None,
            id,
        }
    }

    /// No request in flight.
    fn idle(&self) -> bool {
        self.cur.is_none()
    }

    /// Start the timed loop: restart the counters, open the window.
    fn open_window(&mut self, target: u64) {
        self.parts.started = 0;
        self.parts.failed = 0;
        self.parts.window = WindowAcc::open(
            target,
            Marks::take(self.session.endpoint(), Some(&self.session)),
        );
    }

    /// Make one attempt at the current request, drawing a new one first
    /// when idle. Returns whether the attempt aborted and will be retried.
    fn step(&mut self, tr: &mut Tracer) -> bool {
        if self.cur.is_none() {
            self.parts.started += 1;
            let req = (self.id << 40) | self.parts.started;
            tr.enter("attempt", req);
            let (ops, delta) = tr.span("gen", req, || self.gen.draw());
            let t0_ns = self.session.endpoint().clock().now_ns();
            self.cur = Some(Pending {
                ops,
                delta,
                attempts: 0,
                t0_ns,
                since: Instant::now(),
                req,
            });
        } else {
            tr.enter("attempt", self.cur.as_ref().map_or(0, |p| p.req));
        }
        let p = self.cur.as_mut().expect("a request is in flight");
        p.attempts += 1;
        tr.enter("execute", p.req);
        let r = self.session.execute(&p.ops);
        tr.exit();
        let retry = match r {
            Ok(_) => {
                let lat = self.session.endpoint().clock().now_ns() - p.t0_ns;
                self.parts.ledger += p.delta;
                self.finish(Some(lat), tr);
                false
            }
            Err(e @ (TxnError::Aborted(_) | TxnError::NodeUnavailable { .. })) => {
                self.parts.window.note_abort(e.cause());
                if p.attempts >= MAX_ATTEMPTS && p.since.elapsed() >= REQUEST_TIMEOUT {
                    let msg = format!("request gave up after {} attempts: {e}", p.attempts);
                    self.parts.problems.push(msg);
                    self.finish(None, tr);
                    false
                } else {
                    true
                }
            }
            Err(e) => {
                self.parts.problems.push(format!("request failed: {e}"));
                self.finish(None, tr);
                false
            }
        };
        tr.exit();
        retry
    }

    fn finish(&mut self, latency: Option<u64>, tr: &mut Tracer) {
        let p = self.cur.take().expect("a request is in flight");
        if latency.is_none() {
            self.parts.failed += 1;
        }
        let session = &self.session;
        self.parts.window.note_finish(latency, || {
            tr.span("snapshot", p.req, || {
                Marks::take(session.endpoint(), Some(session))
            })
        });
    }

    /// [`Client::step`] for a threaded client: after an abort, serve
    /// peers and yield, as `bench::run_cluster_workload` does.
    fn step_serving(&mut self, tr: &mut Tracer, slices: &mut Option<Slices>) {
        if self.step(tr) {
            self.serve(tr);
        } else if let Some(s) = slices.as_mut() {
            s.note();
        }
    }

    fn serve(&mut self, tr: &mut Tracer) {
        let served = tr.span("serve", 0, || self.session.serve_pending(8));
        if !served {
            std::thread::yield_now();
        }
    }
}

/// Sits on the exclusive lock of one Zipf-drawn key for a whole round,
/// so lock waits and `lock_busy` aborts occur from a single thread.
struct Antagonist<'a> {
    ep: Endpoint,
    cluster: &'a Cluster,
    zipf: &'a ZipfGenerator,
    seed: u64,
}

impl Antagonist<'_> {
    fn squat(&self, round: u64) -> u64 {
        let mut rng = StdRng::seed_from_u64(stream_seed(self.seed ^ 0xA11A, round));
        let n = self.cluster.config().n_records;
        let key = workload::zipf::scramble(self.zipf.next(&mut rng), n);
        self.cluster
            .fabric()
            .announce_trace(ANTAGONIST_TAG, (ANTAGONIST_TAG << 32) | (round + 1));
        let lock = self.cluster.table().lock_addr(key);
        ExclusiveLock::acquire(self.cluster.layer(), &self.ep, lock, ANTAGONIST_TAG, 0)
            .expect("every lock is free between rounds");
        key
    }

    fn release(&self, key: u64) {
        let lock = self.cluster.table().lock_addr(key);
        ExclusiveLock::release(self.cluster.layer(), &self.ep, lock)
            .expect("the antagonist owns its squat");
        self.cluster.fabric().retire_trace(ANTAGONIST_TAG);
    }
}

/// Round-robin closed loop: every round, each client that is busy or
/// `may_start` a request makes one attempt. Ends when every client is
/// idle and none may start.
fn rr_loop(
    clients: &mut [Client],
    antagonist: Option<&Antagonist>,
    round: &mut u64,
    tr: &mut Tracer,
    slices: &mut Option<Slices>,
    may_start: impl Fn(&Client) -> bool,
) {
    loop {
        let squat = antagonist.map(|a| tr.span("antagonist", 0, || a.squat(*round)));
        let mut any = false;
        for c in clients.iter_mut() {
            if c.idle() && !may_start(c) {
                if let Some(s) = slices.as_mut() {
                    s.stopped.get_or_insert_with(Instant::now);
                }
                continue;
            }
            any = true;
            if !c.step(tr) {
                if let Some(s) = slices.as_mut() {
                    s.note();
                }
            }
        }
        if let (Some(a), Some(key)) = (antagonist, squat) {
            tr.span("antagonist", 0, || a.release(key));
        }
        *round += 1;
        if !any {
            return;
        }
    }
}

/// Write [`INITIAL`] into every record's counter.
fn load(cluster: &Cluster) -> dsm::DsmResult<()> {
    let ep = cluster.fabric().endpoint();
    let mut buf = vec![0u8; cluster.config().payload_size];
    buf[..8].copy_from_slice(&INITIAL.to_le_bytes());
    for k in 0..cluster.config().n_records {
        cluster
            .layer()
            .write(&ep, cluster.table().payload_addr(k, 0), &buf)?;
    }
    Ok(())
}

/// The sum of all counters must equal the initial total plus every
/// committed delta.
fn check_conservation(cluster: &Cluster, ledger: i64) -> Result<(), String> {
    let ep = cluster.fabric().endpoint();
    let mut buf = [0u8; 8];
    let mut sum: i64 = 0;
    for k in 0..cluster.config().n_records {
        cluster
            .layer()
            .read(&ep, cluster.table().payload_addr(k, 0), &mut buf)
            .map_err(|e| format!("readback of key {k} failed: {e}"))?;
        sum += i64::from_le_bytes(buf) - INITIAL;
    }
    if sum == ledger {
        Ok(())
    } else {
        Err(format!(
            "conservation broken: records moved by {sum}, committed deltas sum to {ledger}"
        ))
    }
}
