//! Solution spaces (Definition 5.1).
//!
//! A solution space organises a set of paths into *groups*, which are in turn
//! organised into *partitions*; a ranking function `△` assigns a positive
//! integer to every path, group and partition, which the order-by operator
//! uses to impose a (virtual) order and the projection operator uses when
//! slicing.
//!
//! Formally `SS = (S, G, P, α, β, △)` with `α : S → G`, `β : G → P` total
//! functions. The representation below stores the two assignment functions as
//! index vectors so the operators can traverse partition → groups → paths
//! without hashing.

use crate::path::Path;
use pathalg_graph::ids::NodeId;
use std::fmt;

/// The key identifying a partition or a group, i.e. the values of
/// source/target/length the group-by operator partitioned on.
///
/// `None` components mean the corresponding attribute was not part of the
/// grouping key (e.g. `γS` partitions only by source).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct GroupingKey {
    /// The common `First(p)` of the member paths, if grouped by source.
    pub source: Option<NodeId>,
    /// The common `Last(p)` of the member paths, if grouped by target.
    pub target: Option<NodeId>,
    /// The common `Len(p)` of the member paths, if grouped by length.
    pub length: Option<usize>,
}

/// A group: a set of paths sharing a grouping key, belonging to one partition.
#[derive(Clone, Debug)]
pub struct Group {
    /// The key shared by the member paths.
    pub key: GroupingKey,
    /// Index of the partition this group belongs to (the function β).
    pub partition: usize,
    /// Indices (into the solution space's path table) of the member paths.
    pub paths: Vec<usize>,
}

/// A partition: a set of groups sharing a partition key.
#[derive(Clone, Debug)]
pub struct Partition {
    /// The key shared by the member groups (length component always `None`).
    pub key: GroupingKey,
    /// Indices of the member groups.
    pub groups: Vec<usize>,
}

/// A solution space `SS = (S, G, P, α, β, △)`.
#[derive(Clone, Debug)]
pub struct SolutionSpace {
    paths: Vec<Path>,
    groups: Vec<Group>,
    partitions: Vec<Partition>,
    path_rank: Vec<u64>,
    group_rank: Vec<u64>,
    partition_rank: Vec<u64>,
}

impl SolutionSpace {
    /// Builds a solution space from its parts. Ranks (△) are initialised to 1
    /// for every element, i.e. no virtual order, exactly as the group-by
    /// operator prescribes.
    pub fn new(paths: Vec<Path>, groups: Vec<Group>, partitions: Vec<Partition>) -> Self {
        let path_rank = vec![1; paths.len()];
        let group_rank = vec![1; groups.len()];
        let partition_rank = vec![1; partitions.len()];
        Self {
            paths,
            groups,
            partitions,
            path_rank,
            group_rank,
            partition_rank,
        }
    }

    /// The groups `G`.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// The partitions `P`.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Number of paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The path with the given index.
    pub fn path(&self, idx: usize) -> &Path {
        &self.paths[idx]
    }

    /// `△` of a path.
    pub(crate) fn path_rank(&self, idx: usize) -> u64 {
        self.path_rank[idx]
    }

    /// `△` of a group.
    pub(crate) fn group_rank(&self, idx: usize) -> u64 {
        self.group_rank[idx]
    }

    /// `△` of a partition.
    pub(crate) fn partition_rank(&self, idx: usize) -> u64 {
        self.partition_rank[idx]
    }

    /// Sets `△` of a path (used by the order-by operator).
    pub(crate) fn set_path_rank(&mut self, idx: usize, rank: u64) {
        self.path_rank[idx] = rank;
    }

    /// Sets `△` of a group.
    pub(crate) fn set_group_rank(&mut self, idx: usize, rank: u64) {
        self.group_rank[idx] = rank;
    }

    /// Sets `△` of a partition.
    pub(crate) fn set_partition_rank(&mut self, idx: usize, rank: u64) {
        self.partition_rank[idx] = rank;
    }

    /// `MinL(G)`: the length of the shortest path in group `group_idx`.
    pub fn min_len_of_group(&self, group_idx: usize) -> usize {
        self.groups[group_idx]
            .paths
            .iter()
            .map(|&p| self.paths[p].len())
            .min()
            .unwrap_or(0)
    }

    /// `MinL(P)`: the minimum `MinL(G)` over the groups of partition
    /// `partition_idx`.
    pub fn min_len_of_partition(&self, partition_idx: usize) -> usize {
        self.partitions[partition_idx]
            .groups
            .iter()
            .map(|&g| self.min_len_of_group(g))
            .min()
            .unwrap_or(0)
    }

    /// Checks the structural invariants of Definition 5.1: every path belongs
    /// to exactly one group, every group to exactly one partition, groups are
    /// non-empty and partitions are non-empty.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen_paths = vec![0usize; self.paths.len()];
        for (gi, g) in self.groups.iter().enumerate() {
            if g.paths.is_empty() {
                return Err(format!("group {gi} is empty"));
            }
            if g.partition >= self.partitions.len() {
                return Err(format!(
                    "group {gi} references unknown partition {}",
                    g.partition
                ));
            }
            if !self.partitions[g.partition].groups.contains(&gi) {
                return Err(format!(
                    "group {gi} is not listed by its partition {}",
                    g.partition
                ));
            }
            for &p in &g.paths {
                if p >= self.paths.len() {
                    return Err(format!("group {gi} references unknown path {p}"));
                }
                seen_paths[p] += 1;
            }
        }
        for (pi, part) in self.partitions.iter().enumerate() {
            if part.groups.is_empty() {
                return Err(format!("partition {pi} is empty"));
            }
            for &g in &part.groups {
                if self.groups[g].partition != pi {
                    return Err(format!(
                        "partition {pi} lists group {g} owned by another partition"
                    ));
                }
            }
        }
        for (p, count) in seen_paths.iter().enumerate() {
            if *count != 1 {
                return Err(format!(
                    "path {p} belongs to {count} groups (α must be total and single-valued)"
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Display for SolutionSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SolutionSpace {{ paths: {}, groups: {}, partitions: {} }}",
            self.path_count(),
            self.group_count(),
            self.partition_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalg_graph::fixtures::figure1::Figure1;

    fn tiny_space(f: &Figure1) -> SolutionSpace {
        // Two partitions; the first has one group of two paths, the second one
        // group of one path.
        let p_a = Path::edge(&f.graph, f.e1);
        let p_b = Path::edge(&f.graph, f.e1)
            .concat(&Path::edge(&f.graph, f.e2))
            .unwrap();
        let p_c = Path::edge(&f.graph, f.e4);
        let groups = vec![
            Group {
                key: GroupingKey {
                    source: Some(f.n1),
                    ..Default::default()
                },
                partition: 0,
                paths: vec![0, 1],
            },
            Group {
                key: GroupingKey {
                    source: Some(f.n2),
                    ..Default::default()
                },
                partition: 1,
                paths: vec![2],
            },
        ];
        let partitions = vec![
            Partition {
                key: GroupingKey {
                    source: Some(f.n1),
                    ..Default::default()
                },
                groups: vec![0],
            },
            Partition {
                key: GroupingKey {
                    source: Some(f.n2),
                    ..Default::default()
                },
                groups: vec![1],
            },
        ];
        SolutionSpace::new(vec![p_a, p_b, p_c], groups, partitions)
    }

    #[test]
    fn counts_and_initial_ranks() {
        let f = Figure1::new();
        let ss = tiny_space(&f);
        assert_eq!(ss.path_count(), 3);
        assert_eq!(ss.group_count(), 2);
        assert_eq!(ss.partition_count(), 2);
        for i in 0..3 {
            assert_eq!(ss.path_rank(i), 1);
        }
        assert_eq!(ss.group_rank(0), 1);
        assert_eq!(ss.partition_rank(1), 1);
        ss.validate().unwrap();
        assert!(ss.to_string().contains("paths: 3"));
    }

    #[test]
    fn alpha_and_beta_are_total() {
        let f = Figure1::new();
        let ss = tiny_space(&f);
        assert_eq!(ss.groups()[0].paths, [0, 1]);
        assert_eq!(ss.groups()[1].paths, [2]);
        assert_eq!(ss.groups()[0].partition, 0);
        assert_eq!(ss.groups()[1].partition, 1);
    }

    #[test]
    fn min_len_functions() {
        let f = Figure1::new();
        let ss = tiny_space(&f);
        assert_eq!(ss.min_len_of_group(0), 1);
        assert_eq!(ss.min_len_of_group(1), 1);
        assert_eq!(ss.min_len_of_partition(0), 1);
        assert_eq!(ss.min_len_of_partition(1), 1);
    }

    #[test]
    fn ranks_are_mutable() {
        let f = Figure1::new();
        let mut ss = tiny_space(&f);
        ss.set_path_rank(1, 7);
        ss.set_group_rank(0, 3);
        ss.set_partition_rank(1, 9);
        assert_eq!(ss.path_rank(1), 7);
        assert_eq!(ss.group_rank(0), 3);
        assert_eq!(ss.partition_rank(1), 9);
    }

    #[test]
    fn validate_catches_broken_invariants() {
        let f = Figure1::new();
        // A path assigned to two groups.
        let p = Path::edge(&f.graph, f.e1);
        let groups = vec![
            Group {
                key: GroupingKey::default(),
                partition: 0,
                paths: vec![0],
            },
            Group {
                key: GroupingKey::default(),
                partition: 0,
                paths: vec![0],
            },
        ];
        let partitions = vec![Partition {
            key: GroupingKey::default(),
            groups: vec![0, 1],
        }];
        let ss = SolutionSpace::new(vec![p.clone()], groups, partitions);
        assert!(ss.validate().is_err());

        // An empty group.
        let groups = vec![Group {
            key: GroupingKey::default(),
            partition: 0,
            paths: vec![],
        }];
        let partitions = vec![Partition {
            key: GroupingKey::default(),
            groups: vec![0],
        }];
        let ss = SolutionSpace::new(vec![p], groups, partitions);
        assert!(ss.validate().is_err());
    }
}
