//! Physical implementations of the recursive operator ϕ over a materialised
//! base.
//!
//! The algebra fixes *what* ϕ computes; how to compute it is an engineering
//! choice (Section 8.2 surveys the design space). The engine dispatches
//! exactly one function here — [`frontier::phi_frontier`], for every base it
//! has to materialise; a base that is a label scan or a join chain of label
//! scans is never materialised and goes to the lazy `pathalg-pmr` kernel
//! instead (see [`crate::exec`]). Both take the same input — a set of base
//! paths:
//!
//! * [`phi_seminaive`] — re-export of the frontier-based fixpoint from
//!   `pathalg-core`, the executable specification every dispatched path is
//!   checked against, and the §8.2 ablation baseline.
//! * [`frontier::phi_frontier`] — the per-source frontier engine
//!   (DESIGN.md §7): indexes the base by first node and expands one source
//!   at a time, in ascending node order.

pub mod frontier;

use pathalg_core::error::AlgebraError;
use pathalg_core::ops::recursive::{recursive, PathSemantics, RecursionConfig};
use pathalg_core::pathset::PathSet;

/// The semi-naïve fixpoint (delegates to `pathalg-core`).
pub fn phi_seminaive(
    semantics: PathSemantics,
    base: &PathSet,
    config: &RecursionConfig,
) -> Result<PathSet, AlgebraError> {
    recursive(semantics, base, config)
}
