//! The group-by operator γψ (Section 5.1, Table 4).
//!
//! `γψ(S)` turns a set of paths into a solution space whose partitions and
//! groups are determined by the parameter ψ:
//!
//! | ψ | partitions | groups per partition |
//! |---|---|---|
//! | ∅ | 1 | 1 |
//! | S | one per source | 1 |
//! | T | one per target | 1 |
//! | L | 1 | one per length |
//! | ST | one per (source, target) | 1 |
//! | SL | one per source | one per length |
//! | TL | one per target | one per length |
//! | STL | one per (source, target) | one per length |
//!
//! Every `△` value is initialised to 1 — the group-by operator imposes no
//! order; that is the order-by operator's job.

use crate::fasthash::FastMap;
use crate::pathset::PathSet;
use crate::solution_space::{Group, GroupingKey, Partition, SolutionSpace};
use std::fmt;

/// The grouping parameter ψ.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// ψ = ∅: a single partition with a single group.
    Empty,
    /// ψ = S: partition by source.
    Source,
    /// ψ = T: partition by target.
    Target,
    /// ψ = L: a single partition, grouped by length.
    Length,
    /// ψ = ST: partition by (source, target).
    SourceTarget,
    /// ψ = SL: partition by source, grouped by length.
    SourceLength,
    /// ψ = TL: partition by target, grouped by length.
    TargetLength,
    /// ψ = STL: partition by (source, target), grouped by length.
    SourceTargetLength,
}

impl GroupKey {
    /// All eight grouping parameters, in the order of Table 4.
    pub const ALL: [GroupKey; 8] = [
        GroupKey::Empty,
        GroupKey::Source,
        GroupKey::Target,
        GroupKey::Length,
        GroupKey::SourceTarget,
        GroupKey::SourceLength,
        GroupKey::TargetLength,
        GroupKey::SourceTargetLength,
    ];

    /// True if the partition key includes the source node.
    pub fn partitions_by_source(&self) -> bool {
        matches!(
            self,
            GroupKey::Source
                | GroupKey::SourceTarget
                | GroupKey::SourceLength
                | GroupKey::SourceTargetLength
        )
    }

    /// True if the partition key includes the target node.
    pub fn partitions_by_target(&self) -> bool {
        matches!(
            self,
            GroupKey::Target
                | GroupKey::SourceTarget
                | GroupKey::TargetLength
                | GroupKey::SourceTargetLength
        )
    }

    /// True if groups within a partition are keyed by path length.
    pub fn groups_by_length(&self) -> bool {
        matches!(
            self,
            GroupKey::Length
                | GroupKey::SourceLength
                | GroupKey::TargetLength
                | GroupKey::SourceTargetLength
        )
    }

    /// The key whose predicates ([`GroupKey::partitions_by_source`],
    /// [`GroupKey::partitions_by_target`], [`GroupKey::groups_by_length`])
    /// are the given flags; no flag set is ψ = ∅.
    pub fn from_flags(source: bool, target: bool, length: bool) -> GroupKey {
        match (source, target, length) {
            (false, false, false) => GroupKey::Empty,
            (true, false, false) => GroupKey::Source,
            (false, true, false) => GroupKey::Target,
            (false, false, true) => GroupKey::Length,
            (true, true, false) => GroupKey::SourceTarget,
            (true, false, true) => GroupKey::SourceLength,
            (false, true, true) => GroupKey::TargetLength,
            (true, true, true) => GroupKey::SourceTargetLength,
        }
    }

    /// The paper's textual name for the parameter (∅, S, T, L, ST, SL, TL, STL).
    pub fn symbol(&self) -> &'static str {
        match self {
            GroupKey::Empty => "∅",
            GroupKey::Source => "S",
            GroupKey::Target => "T",
            GroupKey::Length => "L",
            GroupKey::SourceTarget => "ST",
            GroupKey::SourceLength => "SL",
            GroupKey::TargetLength => "TL",
            GroupKey::SourceTargetLength => "STL",
        }
    }
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// Evaluates `γψ(input)`, producing a solution space.
///
/// Partitions and groups appear in first-occurrence order of the input paths,
/// which keeps the result deterministic; since every `△` is 1, this order is
/// only a tie-break for the downstream projection.
pub fn group_by(key: GroupKey, input: &PathSet) -> SolutionSpace {
    let paths: Vec<_> = input.iter().cloned().collect();

    // Partition key and group key per path.
    let mut partitions: Vec<Partition> = Vec::new();
    let mut groups: Vec<Group> = Vec::new();
    let mut partition_index: FastMap<(Option<u32>, Option<u32>), usize> = FastMap::default();
    let mut group_index: FastMap<(usize, Option<usize>), usize> = FastMap::default();

    for (idx, path) in paths.iter().enumerate() {
        let source = key.partitions_by_source().then(|| path.first());
        let target = key.partitions_by_target().then(|| path.last());
        let length = key.groups_by_length().then(|| path.len());

        let pkey = (source.map(|n| n.0), target.map(|n| n.0));
        let pidx = *partition_index.entry(pkey).or_insert_with(|| {
            partitions.push(Partition {
                key: GroupingKey {
                    source,
                    target,
                    length: None,
                },
                groups: Vec::new(),
            });
            partitions.len() - 1
        });

        let gidx = *group_index.entry((pidx, length)).or_insert_with(|| {
            groups.push(Group {
                key: GroupingKey {
                    source,
                    target,
                    length,
                },
                partition: pidx,
                paths: Vec::new(),
            });
            partitions[pidx].groups.push(groups.len() - 1);
            groups.len() - 1
        });

        groups[gidx].paths.push(idx);
    }

    SolutionSpace::new(paths, groups, partitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::ops::recursive::{recursive, PathSemantics, RecursionConfig};
    use crate::ops::selection::selection;
    use pathalg_graph::fixtures::figure1::Figure1;

    /// ϕTrail(σ label(edge(1))="Knows" (Edges(G))) — the path set of Table 5.
    fn trails(f: &Figure1) -> PathSet {
        let knows = selection(
            &f.graph,
            &Condition::edge_label(1, "Knows"),
            &PathSet::edges(&f.graph),
        );
        recursive(PathSemantics::Trail, &knows, &RecursionConfig::default()).unwrap()
    }

    #[test]
    fn empty_key_gives_one_partition_one_group() {
        let f = Figure1::new();
        let ss = group_by(GroupKey::Empty, &trails(&f));
        assert_eq!(ss.partition_count(), 1);
        assert_eq!(ss.group_count(), 1);
        assert_eq!(ss.path_count(), 12);
        ss.validate().unwrap();
    }

    #[test]
    fn source_target_matches_table5_shape() {
        // Table 5: γST over the 10 trails listed in the paper gives 7
        // partitions, each with a single group. Our trail set additionally
        // contains the two trails starting at n3 with target n2/n3 the paper
        // omits from its excerpt, giving 9 endpoint pairs in total.
        let f = Figure1::new();
        let ss = group_by(GroupKey::SourceTarget, &trails(&f));
        assert_eq!(ss.partition_count(), 9);
        assert_eq!(ss.group_count(), 9);
        for p in ss.partitions() {
            assert_eq!(p.groups.len(), 1);
        }
        // Every group's members share source and target.
        for g in ss.groups() {
            let s = g.key.source.unwrap();
            let t = g.key.target.unwrap();
            for &pi in &g.paths {
                assert_eq!(ss.path(pi).first(), s);
                assert_eq!(ss.path(pi).last(), t);
            }
        }
        ss.validate().unwrap();
    }

    #[test]
    fn source_key_partitions_by_first_node() {
        let f = Figure1::new();
        let ss = group_by(GroupKey::Source, &trails(&f));
        // Trails start at n1, n2 or n3.
        assert_eq!(ss.partition_count(), 3);
        assert_eq!(ss.group_count(), 3);
        for g in ss.groups() {
            assert!(g.key.target.is_none());
            assert!(g.key.length.is_none());
        }
        ss.validate().unwrap();
    }

    #[test]
    fn target_key_partitions_by_last_node() {
        let f = Figure1::new();
        let ss = group_by(GroupKey::Target, &trails(&f));
        // Trails end at n2, n3 or n4.
        assert_eq!(ss.partition_count(), 3);
        ss.validate().unwrap();
    }

    #[test]
    fn length_key_groups_by_length_in_one_partition() {
        let f = Figure1::new();
        let ss = group_by(GroupKey::Length, &trails(&f));
        assert_eq!(ss.partition_count(), 1);
        // Trail lengths present: 1, 2, 3, 4.
        assert_eq!(ss.group_count(), 4);
        for g in ss.groups() {
            let l = g.key.length.unwrap();
            for &pi in &g.paths {
                assert_eq!(ss.path(pi).len(), l);
            }
        }
        ss.validate().unwrap();
    }

    #[test]
    fn source_target_length_is_the_finest_partitioning() {
        let f = Figure1::new();
        let paths = trails(&f);
        let st = group_by(GroupKey::SourceTarget, &paths);
        let stl = group_by(GroupKey::SourceTargetLength, &paths);
        assert_eq!(st.partition_count(), stl.partition_count());
        assert!(stl.group_count() >= st.group_count());
        // Each STL group is length-homogeneous.
        for g in stl.groups() {
            let lens: std::collections::HashSet<_> =
                g.paths.iter().map(|&i| stl.path(i).len()).collect();
            assert_eq!(lens.len(), 1);
        }
        stl.validate().unwrap();
    }

    #[test]
    fn sl_and_tl_combine_partitioning_and_length_groups() {
        let f = Figure1::new();
        let paths = trails(&f);
        let sl = group_by(GroupKey::SourceLength, &paths);
        assert_eq!(sl.partition_count(), 3);
        assert!(sl.group_count() > sl.partition_count());
        let tl = group_by(GroupKey::TargetLength, &paths);
        assert_eq!(tl.partition_count(), 3);
        for g in tl.groups() {
            assert!(g.key.target.is_some());
            assert!(g.key.length.is_some());
            assert!(g.key.source.is_none());
        }
        sl.validate().unwrap();
        tl.validate().unwrap();
    }

    #[test]
    fn all_keys_preserve_every_path_exactly_once() {
        let f = Figure1::new();
        let paths = trails(&f);
        for key in GroupKey::ALL {
            let ss = group_by(key, &paths);
            assert_eq!(ss.path_count(), paths.len(), "γ{key} lost paths");
            let assigned: usize = ss.groups().iter().map(|g| g.paths.len()).sum();
            assert_eq!(assigned, paths.len(), "γ{key} duplicated or dropped paths");
            ss.validate().unwrap();
        }
    }

    #[test]
    fn initial_ranks_are_all_one() {
        let f = Figure1::new();
        let ss = group_by(GroupKey::SourceTarget, &trails(&f));
        for i in 0..ss.path_count() {
            assert_eq!(ss.path_rank(i), 1);
        }
        for i in 0..ss.group_count() {
            assert_eq!(ss.group_rank(i), 1);
        }
        for i in 0..ss.partition_count() {
            assert_eq!(ss.partition_rank(i), 1);
        }
    }

    #[test]
    fn empty_input_produces_empty_space() {
        let ss = group_by(GroupKey::SourceTarget, &PathSet::new());
        assert_eq!(ss.path_count(), 0);
        assert_eq!(ss.group_count(), 0);
        assert_eq!(ss.partition_count(), 0);
    }

    #[test]
    fn table4_organisation_summary() {
        // Reproduces Table 4 qualitatively: which keys give N partitions and
        // which give M groups per partition.
        let f = Figure1::new();
        let paths = trails(&f);
        let n_endpoints_sources = 3;
        let check = |key: GroupKey, parts: usize, multi_group: bool| {
            let ss = group_by(key, &paths);
            assert_eq!(ss.partition_count(), parts, "γ{key}");
            let any_multi = ss.partitions().iter().any(|p| p.groups.len() > 1);
            assert_eq!(any_multi, multi_group, "γ{key}");
        };
        check(GroupKey::Empty, 1, false);
        check(GroupKey::Source, n_endpoints_sources, false);
        check(GroupKey::Target, 3, false);
        check(GroupKey::Length, 1, true);
        check(GroupKey::SourceTarget, 9, false);
        check(GroupKey::SourceLength, 3, true);
        check(GroupKey::TargetLength, 3, true);
        check(GroupKey::SourceTargetLength, 9, true);
    }

    #[test]
    fn symbols_match_the_paper() {
        assert_eq!(GroupKey::Empty.symbol(), "∅");
        assert_eq!(GroupKey::SourceTargetLength.symbol(), "STL");
        assert_eq!(GroupKey::SourceLength.to_string(), "SL");
    }
}
