//! The performance ledger: four seeded workloads over the U-tree stack,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one. `README.md` has the workload table, the metric glossary
//! and how to read a trace; `../BENCHMARK.json` is the contract.

pub mod check;
pub mod cli;
pub mod data;
pub mod env;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workloads;
