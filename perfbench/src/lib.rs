//! A seeded, oracle-checked benchmark of the DualTable engine.
//!
//! Three workloads (`grid_edit`, `tpch_scan`, `served_point`) each run a
//! fixed statement script generated from a seed against a fresh
//! environment. Untraced runs report end-to-end metrics; traced runs
//! attribute time and work to the engine's modules from outside, by
//! timing calls into their public functions and reading their public
//! counters. See `perfbench/README.md`.

pub mod config;
pub mod inproc;
pub mod layers;
pub mod model;
pub mod oracle;
pub mod script;
pub mod served;
pub mod stats;
pub mod trace;
