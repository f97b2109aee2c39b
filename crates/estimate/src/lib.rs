//! # sparcs-estimate — behavior-level estimation for reconfigurable synthesis
//!
//! The DAC'99 flow starts with *task estimation*: a high-level-synthesis
//! estimator (the authors' DSS system) derives, for every task of the
//! behavior task graph, the FPGA resources `R(t)` and execution delay `D(t)`
//! it would need on the target device, honoring a user clock-width
//! constraint. This crate reproduces that engine:
//!
//! * [`arch`] — target architecture parameters (`R_max`, `M_max`, `CT`, and
//!   the host↔memory transfer delay `D_m`) with presets for the paper's
//!   XC4044/WildForce-class board and the conjectured XC6000 board.
//! * [`opgraph`] — operation-level data-flow graphs describing a task's
//!   internals (the granularity below the task graph).
//! * [`library`] — a component library characterized for XC4000-class
//!   devices: cost and delay of adders, multipliers, registers, … by bit
//!   width, plus floorplan-overhead modeling.
//! * [`schedule`] — resource-constrained list scheduling of operation graphs
//!   (the mechanism behind cycle-count estimation).
//! * [`estimator`] — ties the above together into [`TaskEstimate`]s.
//! * [`paper`] — the *paper-calibrated* backend that reports the exact §4
//!   constants (70/180 CLBs, 68 cycles @ 50 ns, …) for table-fidelity runs.
//!
//! # Example
//!
//! ```
//! use sparcs_estimate::{estimator::Estimator, library::ComponentLibrary, opgraph::OpGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = ComponentLibrary::xc4000();
//! let est = Estimator::new(lib, 100 /* max clock ns */);
//! let vp = OpGraph::vector_product(4, 8, 9);
//! let e = est.estimate(&vp)?;
//! assert!(e.resources.clbs > 0 && e.delay_ns > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod cache;
pub mod estimator;
pub mod explore;
pub mod library;
pub mod opgraph;
pub mod paper;
pub mod schedule;

pub use arch::Architecture;
pub use estimator::{EstimateCache, EstimateError, Estimator, TaskEstimate};
pub use library::ComponentLibrary;
pub use opgraph::{OpGraph, OpId, OpKind};

/// SplitMix64 — the workspace's one deterministic 64-bit mixer. It lives
/// in this crate because both the host stream generator
/// (`sparcs_rtr::stream`, which re-exports it) and the multilevel
/// coarsener's tie-break build on `sparcs_estimate`.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
