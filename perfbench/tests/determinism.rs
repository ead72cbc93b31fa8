//! Determinism and consistency of the benchmark itself.
//!
//! The single-thread workloads must give identical virtual windows for a
//! seed, with or without the recording planes, and a different seed must
//! change the request stream. `sharded_2pc` is exempt from the identity
//! checks: its two sessions run on real threads and mailboxes deliver in
//! real arrival order, so its virtual figures vary until sessions are
//! driven by a virtual-time executor (ROADMAP item 1). Its test checks
//! only that the run is correct.

use std::time::Duration;

use dsmdb::Cluster;
use perfbench::kvload::KvGen;
use perfbench::layers::{END_TO_END, PER_LAYER};
use perfbench::pass::{ClientWindow, PassOut, PassSpec, Timed};
use perfbench::txnload::Gen;
use perfbench::workloads::{self, Workload};
use telemetry::Json;
use workload::ZipfGenerator;

/// Sizes divided by this keep a pass well under a second in release.
const DIV: u64 = 64;

fn small(name: &str) -> Workload {
    workloads::by_name(name)
        .expect("known workload")
        .scaled(DIV)
}

fn window_pass(w: &Workload, seed: u64, planes: bool) -> PassOut {
    let timed = Some(Timed {
        min_host: Duration::ZERO,
    });
    let out = w.pass(&PassSpec {
        seed,
        planes,
        trace: false,
        timed,
        ladder: false,
    });
    assert!(out.problems.is_empty(), "{:?}", out.problems);
    assert_eq!(out.failed, 0);
    out
}

fn views(p: &PassOut) -> Vec<ClientWindow> {
    p.windows.iter().map(ClientWindow::virtual_view).collect()
}

#[test]
fn single_thread_workloads_repeat_their_virtual_window() {
    for name in ["onesided_oltp", "cached_readmostly", "index_kv"] {
        let w = small(name);
        assert!(w.single_thread(), "{name}");
        let a = window_pass(&w, 7, true);
        let b = window_pass(&w, 7, true);
        assert!(!a.windows.is_empty() && a.windows[0].requests > 0, "{name}");
        assert_eq!(a.windows, b.windows, "{name}: same seed, different window");
        let off = window_pass(&w, 7, false);
        assert_eq!(
            views(&a),
            views(&off),
            "{name}: the recording planes cost virtual time"
        );
        let other = window_pass(&w, 8, true);
        assert_ne!(
            a.windows, other.windows,
            "{name}: the seed did not change the window"
        );
    }
}

#[test]
fn a_different_seed_changes_the_key_stream() {
    let Workload::Txn(w) = small("onesided_oltp") else {
        panic!("onesided_oltp is a txn workload")
    };
    let cluster = Cluster::build(w.config).expect("small cluster builds");
    let zipf = ZipfGenerator::new(w.config.n_records, 0.99);
    let stream = |seed| {
        let mut g = Gen::new(&w.mix, Some(&zipf), &cluster, seed, 0, 0);
        (0..64).map(|_| g.draw().0).collect::<Vec<_>>()
    };
    assert_eq!(stream(1), stream(1));
    assert_ne!(stream(1), stream(2));

    let Workload::Kv(kv) = small("index_kv") else {
        panic!("index_kv is a kv workload")
    };
    let zipf = ZipfGenerator::new(kv.keys, kv.theta);
    let stream = |seed| {
        let mut g = KvGen::new(kv, &zipf, seed);
        (0..64).map(|_| g.draw()).collect::<Vec<_>>()
    };
    assert_eq!(stream(1), stream(1));
    assert_ne!(stream(1), stream(2));
}

#[test]
fn sharded_2pc_conserves_money_but_is_exempt_from_identity() {
    let w = small("sharded_2pc");
    assert!(!w.single_thread());
    let out = window_pass(&w, 3, true);
    assert_eq!(out.windows.len(), 2);
    let cross: u64 = out.windows.iter().map(|c| c.delta.cross_shard).sum();
    assert!(
        cross > 0,
        "the window must coordinate cross-shard transactions"
    );
}

#[test]
fn benchmark_json_lists_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let table = |rows: Vec<(&str, &str, &str)>| -> Vec<(String, String, String)> {
        rows.into_iter()
            .map(|(a, b, c)| (a.into(), b.into(), c.into()))
            .collect()
    };
    assert_eq!(
        list("end_to_end"),
        table(
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, m.better))
                .collect()
        )
    );
    assert_eq!(
        list("per_layer"),
        table(
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, m.better))
                .collect()
        )
    );
    let names: Vec<String> = list("workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(names, workloads::NAMES);
}
