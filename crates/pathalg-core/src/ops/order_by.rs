//! The order-by operator τθ (Section 5.2, Table 6).
//!
//! `τθ(SS)` rewrites the ranking function `△` of a solution space:
//!
//! | θ | △′(P) | △′(G) | △′(p) |
//! |---|---|---|---|
//! | P | MinL(P) | △(G) | △(p) |
//! | G | △(P) | MinL(G) | △(p) |
//! | A | △(P) | △(G) | Len(p) |
//! | PG | MinL(P) | MinL(G) | △(p) |
//! | PA | MinL(P) | △(G) | Len(p) |
//! | GA | △(P) | MinL(G) | Len(p) |
//! | PGA | MinL(P) | MinL(G) | Len(p) |
//!
//! The operator does not physically reorder anything — it only installs the
//! "virtual order" the projection operator will sort by.

use crate::solution_space::SolutionSpace;
use std::fmt;

/// The ordering parameter θ.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OrderKey {
    /// θ = P: order partitions by the length of their shortest path.
    Partition,
    /// θ = G: order groups (within each partition) by their shortest path.
    Group,
    /// θ = A: order paths (within each group) by length.
    Path,
    /// θ = PG.
    PartitionGroup,
    /// θ = PA.
    PartitionPath,
    /// θ = GA.
    GroupPath,
    /// θ = PGA.
    PartitionGroupPath,
}

impl OrderKey {
    /// All seven ordering parameters of Table 6.
    pub const ALL: [OrderKey; 7] = [
        OrderKey::Partition,
        OrderKey::Group,
        OrderKey::Path,
        OrderKey::PartitionGroup,
        OrderKey::PartitionPath,
        OrderKey::GroupPath,
        OrderKey::PartitionGroupPath,
    ];

    /// True if θ includes `P` (partitions are ranked by MinL).
    pub fn orders_partitions(&self) -> bool {
        matches!(
            self,
            OrderKey::Partition
                | OrderKey::PartitionGroup
                | OrderKey::PartitionPath
                | OrderKey::PartitionGroupPath
        )
    }

    /// True if θ includes `G` (groups are ranked by MinL).
    pub fn orders_groups(&self) -> bool {
        matches!(
            self,
            OrderKey::Group
                | OrderKey::PartitionGroup
                | OrderKey::GroupPath
                | OrderKey::PartitionGroupPath
        )
    }

    /// True if θ includes `A` (paths are ranked by length).
    pub fn orders_paths(&self) -> bool {
        matches!(
            self,
            OrderKey::Path
                | OrderKey::PartitionPath
                | OrderKey::GroupPath
                | OrderKey::PartitionGroupPath
        )
    }

    /// The key whose predicates ([`OrderKey::orders_partitions`],
    /// [`OrderKey::orders_groups`], [`OrderKey::orders_paths`]) are the
    /// given flags; `None` when no flag is set (θ is never empty).
    pub fn from_flags(partition: bool, group: bool, path: bool) -> Option<OrderKey> {
        Some(match (partition, group, path) {
            (false, false, false) => return None,
            (true, false, false) => OrderKey::Partition,
            (false, true, false) => OrderKey::Group,
            (false, false, true) => OrderKey::Path,
            (true, true, false) => OrderKey::PartitionGroup,
            (true, false, true) => OrderKey::PartitionPath,
            (false, true, true) => OrderKey::GroupPath,
            (true, true, true) => OrderKey::PartitionGroupPath,
        })
    }

    /// True if θ ranks *only* paths (θ = A). This is the one ordering a lazy
    /// enumeration can absorb for free: the canonical enumeration order is
    /// already length-non-decreasing within every source segment, so the
    /// stable rank sort of the projection is the identity on single-source
    /// groups (see [`crate::slice`]).
    pub(crate) fn ranks_only_paths(&self) -> bool {
        *self == OrderKey::Path
    }

    /// The paper's symbol for the parameter.
    pub fn symbol(&self) -> &'static str {
        match self {
            OrderKey::Partition => "P",
            OrderKey::Group => "G",
            OrderKey::Path => "A",
            OrderKey::PartitionGroup => "PG",
            OrderKey::PartitionPath => "PA",
            OrderKey::GroupPath => "GA",
            OrderKey::PartitionGroupPath => "PGA",
        }
    }
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// Evaluates `τθ(input)`, returning the solution space with the ranking
/// function `△` updated according to Table 6.
pub fn order_by(key: OrderKey, input: &SolutionSpace) -> SolutionSpace {
    let mut out = input.clone();
    if key.orders_partitions() {
        for pi in 0..out.partition_count() {
            let rank = out.min_len_of_partition(pi) as u64;
            out.set_partition_rank(pi, rank);
        }
    }
    if key.orders_groups() {
        for gi in 0..out.group_count() {
            let rank = out.min_len_of_group(gi) as u64;
            out.set_group_rank(gi, rank);
        }
    }
    if key.orders_paths() {
        for xi in 0..out.path_count() {
            let rank = out.path(xi).len() as u64;
            out.set_path_rank(xi, rank);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::ops::group_by::{group_by, GroupKey};
    use crate::ops::recursive::{recursive, PathSemantics, RecursionConfig};
    use crate::ops::selection::selection;
    use crate::pathset::PathSet;
    use pathalg_graph::fixtures::figure1::Figure1;

    fn table5_space(f: &Figure1) -> SolutionSpace {
        let knows = selection(
            &f.graph,
            &Condition::edge_label(1, "Knows"),
            &PathSet::edges(&f.graph),
        );
        let trails = recursive(PathSemantics::Trail, &knows, &RecursionConfig::default()).unwrap();
        group_by(GroupKey::SourceTarget, &trails)
    }

    #[test]
    fn from_flags_inverts_the_key_predicates() {
        for key in GroupKey::ALL {
            let flags = (
                key.partitions_by_source(),
                key.partitions_by_target(),
                key.groups_by_length(),
            );
            assert_eq!(GroupKey::from_flags(flags.0, flags.1, flags.2), key);
        }
        for key in OrderKey::ALL {
            let flags = (
                key.orders_partitions(),
                key.orders_groups(),
                key.orders_paths(),
            );
            assert_eq!(OrderKey::from_flags(flags.0, flags.1, flags.2), Some(key));
        }
        assert_eq!(OrderKey::from_flags(false, false, false), None);
    }

    #[test]
    fn tau_a_ranks_paths_by_length_only() {
        let f = Figure1::new();
        let ss = order_by(OrderKey::Path, &table5_space(&f));
        for i in 0..ss.path_count() {
            assert_eq!(ss.path_rank(i), ss.path(i).len() as u64);
        }
        // Groups and partitions keep their neutral rank.
        for i in 0..ss.group_count() {
            assert_eq!(ss.group_rank(i), 1);
        }
        for i in 0..ss.partition_count() {
            assert_eq!(ss.partition_rank(i), 1);
        }
    }

    #[test]
    fn tau_p_ranks_partitions_by_min_length() {
        let f = Figure1::new();
        let ss = order_by(OrderKey::Partition, &table5_space(&f));
        for pi in 0..ss.partition_count() {
            assert_eq!(ss.partition_rank(pi), ss.min_len_of_partition(pi) as u64);
        }
        for i in 0..ss.path_count() {
            assert_eq!(ss.path_rank(i), 1);
        }
    }

    #[test]
    fn tau_g_ranks_groups_by_min_length() {
        let f = Figure1::new();
        let ss = order_by(OrderKey::Group, &table5_space(&f));
        for gi in 0..ss.group_count() {
            assert_eq!(ss.group_rank(gi), ss.min_len_of_group(gi) as u64);
        }
    }

    #[test]
    fn combined_keys_update_each_level() {
        let f = Figure1::new();
        let base = table5_space(&f);
        let pga = order_by(OrderKey::PartitionGroupPath, &base);
        for pi in 0..pga.partition_count() {
            assert_eq!(pga.partition_rank(pi), pga.min_len_of_partition(pi) as u64);
        }
        for gi in 0..pga.group_count() {
            assert_eq!(pga.group_rank(gi), pga.min_len_of_group(gi) as u64);
        }
        for xi in 0..pga.path_count() {
            assert_eq!(pga.path_rank(xi), pga.path(xi).len() as u64);
        }

        let pa = order_by(OrderKey::PartitionPath, &base);
        for gi in 0..pa.group_count() {
            assert_eq!(pa.group_rank(gi), 1, "PA must not touch group ranks");
        }
        let ga = order_by(OrderKey::GroupPath, &base);
        for pi in 0..ga.partition_count() {
            assert_eq!(
                ga.partition_rank(pi),
                1,
                "GA must not touch partition ranks"
            );
        }
        let pg = order_by(OrderKey::PartitionGroup, &base);
        for xi in 0..pg.path_count() {
            assert_eq!(pg.path_rank(xi), 1, "PG must not touch path ranks");
        }
    }

    #[test]
    fn order_by_does_not_change_structure() {
        let f = Figure1::new();
        let base = table5_space(&f);
        let out = order_by(OrderKey::PartitionGroupPath, &base);
        assert_eq!(out.path_count(), base.path_count());
        assert_eq!(out.group_count(), base.group_count());
        assert_eq!(out.partition_count(), base.partition_count());
        out.validate().unwrap();
    }

    #[test]
    fn order_by_is_idempotent() {
        let f = Figure1::new();
        let once = order_by(OrderKey::PartitionGroupPath, &table5_space(&f));
        let twice = order_by(OrderKey::PartitionGroupPath, &once);
        for i in 0..once.path_count() {
            assert_eq!(once.path_rank(i), twice.path_rank(i));
        }
        for i in 0..once.group_count() {
            assert_eq!(once.group_rank(i), twice.group_rank(i));
        }
        for i in 0..once.partition_count() {
            assert_eq!(once.partition_rank(i), twice.partition_rank(i));
        }
    }

    #[test]
    fn key_predicates_and_symbols() {
        assert!(OrderKey::PartitionGroupPath.orders_partitions());
        assert!(OrderKey::PartitionGroupPath.orders_groups());
        assert!(OrderKey::PartitionGroupPath.orders_paths());
        assert!(!OrderKey::Path.orders_partitions());
        assert!(!OrderKey::Partition.orders_paths());
        assert_eq!(OrderKey::Path.symbol(), "A");
        assert_eq!(OrderKey::PartitionGroup.to_string(), "PG");
        assert_eq!(OrderKey::ALL.len(), 7);
    }
}
