//! # perfbench — the repository benchmark
//!
//! One command runs one workload against the DSM-DB simulator through
//! its public crates (`dsmdb` clusters and sessions, `txn`, `buffer`,
//! `dsm`, `rdma-sim` endpoints, `index`, and the telemetry snapshots)
//! and prints every end-to-end metric with its unit, or, in the traced
//! run, every per-layer metric with the end-to-end metric it should
//! move. The system has two clocks and both are measured: *virtual*
//! time, the paper's metric, and *host* time, what the simulator costs.
//!
//! Every workload is a closed loop on at most two threads. See
//! [`workloads`] for why each exists and [`layers`] for the metrics.

pub mod kvload;
pub mod ladder;
pub mod layers;
pub mod pass;
pub mod run;
pub mod trace;
pub mod txnload;
pub mod workloads;
