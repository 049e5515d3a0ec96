//! The dataset-search application of the paper (Section 1.2).
//!
//! Given a query table, a data scientist wants to find other tables in a data lake that
//! (1) are *joinable* with it and (2) are *related* to it — without materializing any
//! joins.  The paper shows that the relevant post-join statistics (join size, SUM, MEAN,
//! post-join inner product, and from those correlation) are all inner products between
//! vector representations of the tables (Figures 2 and 3), so inner-product sketches
//! answer these queries from precomputed per-table summaries.
//!
//! * [`vectorize`] — the Figure 3 reduction: a table column becomes a key-indicator
//!   vector `x_1[K]`, a value vector `x_V`, and a squared-value vector `x_{V²}`.
//! * [`exact`] — ground-truth post-join statistics computed by actually joining.
//! * [`estimate`] — the same statistics estimated from sketches only.
//! * [`index`] — a [`SketchIndex`] that pre-sketches every column
//!   of a data lake and answers joinability / correlation queries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod estimate;
pub mod exact;
pub mod index;
pub mod vectorize;

pub use error::JoinError;
pub use estimate::{ColumnNormPartials, JoinEstimator, SketchedColumn};
pub use exact::{exact_join_statistics, JoinStatistics};
pub use index::{CascadeStats, ColumnId, RankedColumn, SketchIndex, DEFAULT_CASCADE_CONFIDENCE};
pub use vectorize::ColumnVectors;
