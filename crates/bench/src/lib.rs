//! Experiment harness for the `ipsketch` reproduction.
//!
//! Each submodule of [`experiments`] regenerates one evaluation artifact of the paper
//! (a figure's series or a table's rows); the binaries in `src/bin/` print them to
//! stdout and optionally write CSV files under `target/experiments/`.  The Criterion
//! benchmarks in `benches/` measure sketching/estimation throughput and the ablations
//! called out in `DESIGN.md`.
//!
//! Every experiment has a [`Scale`]: `Quick` runs in seconds and is
//! used by default (and by the benches and tests), `Paper` uses the paper's full
//! parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;

pub use experiments::Scale;
