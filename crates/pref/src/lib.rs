//! # prefsql-pref
//!
//! The preference model of the paper (§2.1–§2.2): preferences as **strict
//! partial orders** over attribute values.
//!
//! * [`BasePref`] — every built-in base preference type (`AROUND`,
//!   `BETWEEN`, `LOWEST`, `HIGHEST`, `POS`, `NEG`, `POS/POS`, `POS/NEG`,
//!   `EXPLICIT`, `CONTAINS`) with its *better-than* relation and the
//!   scores and levels its quality is measured in (§2.2.3) — the
//!   value-level oracle the cell kernel is tested against;
//! * [`Preference`] — complex preferences assembled with **Pareto
//!   accumulation** (`AND`) and **prioritization** (`CASCADE`) over *slot
//!   vectors* (the base-preference expressions of a tuple, pre-evaluated
//!   by the engine), compiled once into the dominance kernel's normal
//!   form: a CASCADE chain of Pareto groups;
//! * [`score`] — scored dominance: a candidate is lowered once into a
//!   [`ScoreMatrix`] row of `f64` cells, and every dominance test of every
//!   selection below, spilled and incremental ones included, reads cells,
//!   as do the quality functions `TOP`, `LEVEL` and `DISTANCE`
//!   ([`Preference::quality`], §2.2.3);
//! * [`bmo`] — the Best-Matches-Only query model (§2.2.5) under
//!   `GROUPING` ([`bmo_grouped_scored`]);
//! * [`algo`] — the maximal-set selection: one window, three ways to
//!   drive it. The perfect-match pre-pass and the block-nested-loops
//!   window \[BKS01\] are the one rule every BMO runs — serially, across
//!   scoped OS threads above [`PARALLEL_CUTOFF`] candidates
//!   ([`choose_degree`]), or spilled; the paper's abstract nested-loop
//!   selection method (§3.2) stays beside it as [`SkylineAlgo::Naive`],
//!   the oracle (measurements: the `a1_micro_kernel` table of the
//!   `algo_micro` bench, recorded in CHANGES.md);
//! * [`external`] — the spilled drive: \[BKS01\]'s multi-pass BNL with a
//!   window bounded in bytes and spill-to-disk overflow runs
//!   ([`ExternalSkyline`]), running the same probe step;
//! * [`incremental`] — the skyline delta algebra behind
//!   `MATERIALIZED PREFERENCE VIEW` ([`ViewSkyline`]): the winner list over
//!   a view's score rows is kept equal to the BMO result across
//!   INSERT/DELETE/UPDATE, testing only the rows a change can expose.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod base;
pub mod bmo;
pub mod compose;
pub mod external;
pub mod incremental;
pub mod score;

pub use algo::{
    choose_degree, maximal_parallel, maximal_scored, maximal_with_threads, SkylineAlgo,
    PARALLEL_CUTOFF,
};
pub use base::BasePref;
pub use bmo::{bmo_grouped, bmo_grouped_scored};
pub use compose::{PrefNode, Preference};
pub use external::{ExternalSkyline, SpillMetrics};
pub use incremental::ViewSkyline;
pub use score::ScoreMatrix;
