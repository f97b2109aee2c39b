//! Content-keyed partition caching.
//!
//! Temporal partitioning is the expensive stage of the flow — the exact ILP
//! re-solves a branch-and-bound model that can dwarf everything around it —
//! yet [`FlowSession::explore`](crate::flow::FlowSession::explore), the §4
//! [`DctExperiment`](crate::casestudy::DctExperiment) and the bench harness
//! all pose *identical* partitioning problems over and over: same graph,
//! same board, same options. [`PartitionCache`] memoizes those solves under
//! the whole problem statement
//! (`graph + architecture + strategy configuration → PartitionedDesign`,
//! rendered by [`statement_key`](crate::flow::statement_key)), so each
//! distinct problem is solved once per process no matter how many sessions,
//! explorations or tables ask for it.
//!
//! It is an instance of the workspace's one memo table, [`Memo`] (see
//! [`sparcs_estimate::cache`] for its keying, locking and eviction
//! contract), holding designs behind [`Arc`]. Strategies opt in through
//! [`PartitionStrategy::config_key`](crate::flow::PartitionStrategy::config_key);
//! one that cannot describe its configuration stays uncached.

use sparcs_core::PartitionedDesign;
pub use sparcs_estimate::cache::{CacheKey, CacheStats, Memo};
use std::sync::Arc;

/// The `problem statement → PartitionedDesign` memo.
/// [`crate::flow`] and [`crate::casestudy`] route through its process-wide
/// [`Memo::global`] instance by default.
pub type PartitionCache = Memo<CacheKey, Arc<PartitionedDesign>>;
