//! # perfbench — the repository benchmark
//!
//! Measures the host cost of the simulation stack on three workloads,
//! end to end (`--trace 0`) and split by layer (`--trace 1`). README.md
//! in this directory documents the workloads, the metrics and how to
//! run it.

pub mod gauges;
pub mod host;
pub mod measure;
pub mod timed;
pub mod workload;
