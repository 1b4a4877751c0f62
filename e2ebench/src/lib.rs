//! End-to-end config-to-artifact benchmark for NVMExplorer-RS.
//!
//! One command runs a workload through every real user path as a child
//! process — `run`, `run` with a JSONL sink, `run --connect` to a warm
//! `nvmx-serve`, a leased `nvmx-coordinator` plus `replay`, and `run
//! --store` cold and warm — and byte-diffs every artifact against an
//! in-process reference. A separate traced run (`--trace 1`) calls the
//! layers' public functions in-process, in the order the binaries call
//! them, with a span around each call, and reports per-layer self times
//! and counters. See `e2ebench/README.md`.

pub mod check;
pub mod gen;
pub mod host;
pub mod layers;
pub mod paths;
pub mod procs;
pub mod stats;
pub mod trace;
