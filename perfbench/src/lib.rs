//! The pcdlb benchmark: four seeded molecular-dynamics workloads run
//! closed-loop, one simulation at a time, with every output checked.
//!
//! - [`workload`] generates each workload's `RunConfig` from a seed.
//! - [`run`] runs one simulation, summarizes its deterministic figures and
//!   checks its output against the serial oracle.
//! - [`measure`] times set-up and whole runs for a time budget.
//! - [`host`] is the fixed reference kernel that gauges the host's speed.
//! - [`layers`] times calls into each crate's public functions.
//! - [`stats`] holds medians, timing loops and the JSON result line.

pub mod host;
pub mod layers;
pub mod measure;
pub mod run;
pub mod stats;
pub mod workload;
