//! The lazy form of a set of paths.
//!
//! Every operator of the algebra is defined over *sets of paths*, but nothing
//! forces an implementation to hold the whole set in memory at once: a path
//! multiset can equally be represented by a generator that produces the same
//! paths, in the same canonical order, on demand. [`LazyPathStream`] is that
//! generator (the `pathalg-pmr` crate's path-multiset representation
//! implements it), so that slicing operators can pull only the paths they
//! keep instead of forcing full materialisation.

use crate::error::AlgebraError;
use crate::path::Path;

/// A pull-based producer of paths in *canonical order*.
///
/// The canonical order is the one the engine's materialised frontier
/// evaluation uses: sources in ascending node order, and within one source
/// level by level (so path length is non-decreasing per source). Consumers —
/// the slicing helpers in [`crate::slice`] and the engine's lazy pipeline —
/// rely on this contract to reproduce the materialised operators byte for
/// byte while stopping early.
///
/// Streams are fallible: the same bounds that abort a materialised
/// evaluation ([`AlgebraError::RecursionLimitExceeded`],
/// [`AlgebraError::ResultLimitExceeded`]) surface from `next_batch` when the
/// enumeration reaches them. A stream that stops before the offending region
/// never observes the error — that output-sensitivity is the point of the
/// representation.
pub trait LazyPathStream {
    /// Produces up to `max` further paths in canonical order. An empty vector
    /// means the stream is exhausted.
    fn next_batch(&mut self, max: usize) -> Result<Vec<Path>, AlgebraError>;
}
