//! The projection operator π (Section 5.3, Algorithm 1).
//!
//! `π(#P, #G, #A)(SS)` turns a solution space back into a set of paths by
//! taking the first `#P` partitions, within each the first `#G` groups, and
//! within each of those the first `#A` paths — where "first" is with respect
//! to the ranking function `△` installed by the order-by operator (ties keep
//! the original, deterministic order; sorts are stable, matching the paper's
//! remark that sorting is unnecessary when no order-by was applied).
//!
//! Each `#` component is either `*` (all) or a positive integer
//! ([`Take::All`] / [`Take::Count`]).

use crate::error::AlgebraError;
use crate::pathset::PathSet;
use crate::solution_space::SolutionSpace;
use std::fmt;

/// One component of a projection parameter: `*` or a positive integer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Take {
    /// `*`: take every element.
    All,
    /// Take the first `k` elements (must be ≥ 1).
    Count(usize),
}

impl Take {
    fn limit(&self, available: usize) -> usize {
        match self {
            Take::All => available,
            Take::Count(k) => (*k).min(available),
        }
    }

    /// Validates the component (a count of zero is rejected, matching the
    /// paper's requirement of a *positive* integer).
    pub fn validate(&self) -> Result<(), AlgebraError> {
        match self {
            Take::Count(0) => Err(AlgebraError::InvalidArgument(
                "projection counts must be positive integers".into(),
            )),
            _ => Ok(()),
        }
    }
}

impl fmt::Display for Take {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Take::All => write!(f, "*"),
            Take::Count(k) => write!(f, "{k}"),
        }
    }
}

/// The full projection parameter `(#P, #G, #A)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProjectionSpec {
    /// Number of partitions to return.
    pub partitions: Take,
    /// Number of groups per partition to return.
    pub groups: Take,
    /// Number of paths per group to return.
    pub paths: Take,
}

impl ProjectionSpec {
    /// `π(*,*,*)`: return everything.
    pub fn all() -> Self {
        Self {
            partitions: Take::All,
            groups: Take::All,
            paths: Take::All,
        }
    }

    /// Builds a spec from the three components.
    pub fn new(partitions: Take, groups: Take, paths: Take) -> Self {
        Self {
            partitions,
            groups,
            paths,
        }
    }

    /// Validates all three components.
    pub fn validate(&self) -> Result<(), AlgebraError> {
        self.partitions.validate()?;
        self.groups.validate()?;
        self.paths.validate()
    }

    /// The per-group path limit as a pushdown bound: `Some(k)` for
    /// `π(…,…,k)`, `None` for `π(…,…,*)`. Lazy pipelines
    /// ([`crate::slice`]) stop enumerating a group once it holds this many
    /// paths.
    pub fn path_limit(&self) -> Option<usize> {
        match self.paths {
            Take::All => None,
            Take::Count(k) => Some(k),
        }
    }

    /// The partition limit as a pushdown bound: `Some(k)` for `π(k,…,…)`.
    pub fn partition_limit(&self) -> Option<usize> {
        match self.partitions {
            Take::All => None,
            Take::Count(k) => Some(k),
        }
    }

    /// True if the spec keeps every group of every kept partition whole —
    /// the precondition for pushing the remaining limits into a lazy
    /// enumeration (group limits interleave with length levels and are not
    /// streamable).
    pub(crate) fn keeps_groups_whole(&self) -> bool {
        self.groups == Take::All
    }
}

impl fmt::Display for ProjectionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.partitions, self.groups, self.paths)
    }
}

/// Evaluates `π(spec)(input)` following Algorithm 1 (ascending △ order).
pub fn projection(spec: &ProjectionSpec, input: &SolutionSpace) -> PathSet {
    let mut out = PathSet::new();

    // Line 2: sort partitions by △ (stable, so ties keep insertion order).
    let mut partition_order: Vec<usize> = (0..input.partition_count()).collect();
    partition_order.sort_by_key(|&pi| input.partition_rank(pi));
    let max_p = spec.partitions.limit(partition_order.len());

    for &pi in partition_order.iter().take(max_p) {
        // Lines 7-8: the groups of P, sorted by △.
        let mut group_order: Vec<usize> = input.partitions()[pi].groups.clone();
        group_order.sort_by_key(|&gi| input.group_rank(gi));
        let max_g = spec.groups.limit(group_order.len());

        for &gi in group_order.iter().take(max_g) {
            // Lines 13-14: the paths of G, sorted by △.
            let mut path_order: Vec<usize> = input.groups()[gi].paths.clone();
            path_order.sort_by_key(|&xi| input.path_rank(xi));
            let max_a = spec.paths.limit(path_order.len());

            for &xi in path_order.iter().take(max_a) {
                out.insert(input.path(xi).clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::ops::group_by::{group_by, GroupKey};
    use crate::ops::order_by::{order_by, OrderKey};
    use crate::ops::recursive::{recursive, PathSemantics, RecursionConfig};
    use crate::ops::selection::selection;
    use crate::path::Path;
    use pathalg_graph::fixtures::figure1::Figure1;

    fn trails(f: &Figure1) -> PathSet {
        let knows = selection(
            &f.graph,
            &Condition::edge_label(1, "Knows"),
            &PathSet::edges(&f.graph),
        );
        recursive(PathSemantics::Trail, &knows, &RecursionConfig::default()).unwrap()
    }

    #[test]
    fn project_all_returns_every_path() {
        let f = Figure1::new();
        let paths = trails(&f);
        let ss = group_by(GroupKey::SourceTarget, &paths);
        let out = projection(&ProjectionSpec::all(), &ss);
        assert_eq!(out, paths);
    }

    #[test]
    fn figure5_pipeline_returns_one_shortest_path_per_endpoint_pair() {
        // π(*,*,1)(τA(γST(ϕTrail(σ Knows (Edges(G)))))) — the Section 5 example.
        let f = Figure1::new();
        let ss = order_by(
            OrderKey::Path,
            &group_by(GroupKey::SourceTarget, &trails(&f)),
        );
        let spec = ProjectionSpec::new(Take::All, Take::All, Take::Count(1));
        let out = projection(&spec, &ss);
        // One path per endpoint pair; 9 pairs in the full trail set.
        assert_eq!(out.len(), 9);
        // The paper lists {p1, p3, p5, p7, p9, p11, p13} for the 7 partitions
        // it shows; all of those must be present and each must be the
        // shortest of its endpoint pair.
        let expected = [
            Path::edge(&f.graph, f.e1), // p1
            Path::edge(&f.graph, f.e1)
                .concat(&Path::edge(&f.graph, f.e2))
                .unwrap(), // p3
            Path::edge(&f.graph, f.e1)
                .concat(&Path::edge(&f.graph, f.e4))
                .unwrap(), // p5
            Path::edge(&f.graph, f.e2)
                .concat(&Path::edge(&f.graph, f.e3))
                .unwrap(), // p7
            Path::edge(&f.graph, f.e2), // p9
            Path::edge(&f.graph, f.e4), // p11
            Path::edge(&f.graph, f.e3)
                .concat(&Path::edge(&f.graph, f.e4))
                .unwrap(), // p13
        ];
        for p in &expected {
            assert!(out.contains(p), "missing {}", p.display_ids());
        }
        // Every returned path is the minimum length of its group.
        for p in out.iter() {
            let pair_paths: Vec<_> = trails(&f)
                .iter()
                .filter(|q| q.first() == p.first() && q.last() == p.last())
                .map(|q| q.len())
                .collect();
            assert_eq!(p.len(), *pair_paths.iter().min().unwrap());
        }
    }

    #[test]
    fn taking_one_path_without_order_by_returns_first_inserted() {
        let f = Figure1::new();
        let paths = trails(&f);
        let ss = group_by(GroupKey::Empty, &paths);
        let spec = ProjectionSpec::new(Take::All, Take::All, Take::Count(1));
        let out = projection(&spec, &ss);
        assert_eq!(out.len(), 1);
        // Without τ, △ is 1 everywhere, so the stable sort keeps insertion
        // order and the first trail inserted wins.
        assert_eq!(out.iter().next().unwrap(), paths.iter().next().unwrap());
    }

    #[test]
    fn counts_larger_than_available_return_all() {
        let f = Figure1::new();
        let paths = trails(&f);
        let ss = group_by(GroupKey::SourceTarget, &paths);
        let spec = ProjectionSpec::new(Take::Count(100), Take::Count(100), Take::Count(100));
        assert_eq!(projection(&spec, &ss), paths);
    }

    #[test]
    fn partition_and_group_limits_apply() {
        let f = Figure1::new();
        let paths = trails(&f);
        // γL: 1 partition, 4 length groups. τG sorts groups by their length.
        let ss = order_by(OrderKey::Group, &group_by(GroupKey::Length, &paths));
        // Take only the first group (shortest length = 1): the 4 Knows edges.
        let spec = ProjectionSpec::new(Take::All, Take::Count(1), Take::All);
        let out = projection(&spec, &ss);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|p| p.len() == 1));
        // Take the first 2 groups: lengths 1 and 2.
        let spec = ProjectionSpec::new(Take::All, Take::Count(2), Take::All);
        let out = projection(&spec, &ss);
        assert!(out.iter().all(|p| p.len() <= 2));
    }

    #[test]
    fn partition_limit_with_partition_ordering() {
        let f = Figure1::new();
        let paths = trails(&f);
        // γST + τP: partitions ranked by their shortest path length.
        let ss = order_by(
            OrderKey::Partition,
            &group_by(GroupKey::SourceTarget, &paths),
        );
        let spec = ProjectionSpec::new(Take::Count(1), Take::All, Take::All);
        let out = projection(&spec, &ss);
        // The chosen partition is one whose MinL(P) = 1 (several tie; stable
        // order keeps the first such endpoint pair inserted).
        assert!(!out.is_empty());
        let min_len = out.iter().map(|p| p.len()).min().unwrap();
        assert_eq!(min_len, 1);
        // All returned paths share the same endpoints (one partition of γST).
        let first = out.iter().next().unwrap();
        assert!(out
            .iter()
            .all(|p| p.first() == first.first() && p.last() == first.last()));
    }

    #[test]
    fn empty_solution_space_projects_to_empty_set() {
        let ss = group_by(GroupKey::SourceTarget, &PathSet::new());
        assert!(projection(&ProjectionSpec::all(), &ss).is_empty());
    }

    #[test]
    fn spec_validation_rejects_zero_counts() {
        assert!(ProjectionSpec::new(Take::Count(0), Take::All, Take::All)
            .validate()
            .is_err());
        assert!(ProjectionSpec::new(Take::All, Take::Count(0), Take::All)
            .validate()
            .is_err());
        assert!(ProjectionSpec::new(Take::All, Take::All, Take::Count(0))
            .validate()
            .is_err());
        assert!(ProjectionSpec::all().validate().is_ok());
        assert!(
            ProjectionSpec::new(Take::Count(3), Take::Count(1), Take::Count(2))
                .validate()
                .is_ok()
        );
    }

    #[test]
    fn display_formats_like_the_paper() {
        assert_eq!(ProjectionSpec::all().to_string(), "(*,*,*)");
        assert_eq!(
            ProjectionSpec::new(Take::All, Take::Count(1), Take::Count(5)).to_string(),
            "(*,1,5)"
        );
    }
}
