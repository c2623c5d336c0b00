//! Physical implementations of the recursive operator ϕ over a materialised
//! base.
//!
//! The algebra fixes *what* ϕ computes; how to compute it is an engineering
//! choice (Section 8.2 surveys the design space). The engine dispatches
//! exactly one function here — [`frontier::phi_frontier`], for every base it
//! has to materialise; a base that is a label scan or a join chain of label
//! scans is never materialised and goes to the lazy `pathalg-pmr` kernel
//! instead (see [`crate::exec`]). The frontier engine indexes the base by
//! first node and expands one source at a time, in ascending node order
//! (DESIGN.md §7). `pathalg_core::ops::recursive::recursive`, the semi-naïve
//! fixpoint over the same base, is the executable specification it is
//! checked against, and the §8.2 ablation baseline.

pub mod frontier;
