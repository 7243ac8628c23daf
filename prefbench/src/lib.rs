//! `prefbench` — the layered end-to-end benchmark of the Preference SQL
//! stack. One command, named metrics, named workloads, per-layer numbers
//! taken from outside the layers. See `README.md` in this directory and
//! `BENCHMARK.json` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod golden;
pub mod json;
pub mod metrics;
pub mod resultfile;
pub mod run;
pub mod trace;
pub mod util;
pub mod workload;
