//! Recognition and streaming evaluation of *sliceable* γ/τ/π pipelines.
//!
//! The γ → τ → π pipelines GQL selectors translate to (Table 7) often keep
//! only a few paths per partition — `π(*,*,k)` — while the recursive operator
//! underneath can produce exponentially many. This module recognises the
//! pipeline shapes whose result is fully determined by a *prefix* of the
//! canonical enumeration order (the contract stated on `pathalg_pmr::Pmr`)
//! so that a lazy enumeration can evaluate them without materialising the
//! whole closure:
//!
//! * [`PlanExpr::sliceable_pipeline`] — the shape recogniser. It accepts
//!   `π(spec)(τA?(γψ(ϕsem(base))))` where ψ ∈ {∅, S, ST}, the order-by is
//!   absent or ranks paths by length (`τA`), groups are taken whole, and at
//!   least one of the partition/path components actually slices. These are
//!   exactly the shapes where "first k in canonical order per group" equals
//!   the materialised projection: γ's groups collect paths in enumeration
//!   order, canonical order is length-non-decreasing within each source, and
//!   ψ ∈ {∅, S, ST} keeps every group inside a single source segment, so the
//!   stable rank sort of Algorithm 1 is the identity.
//! * [`SliceCollector`] — the incremental kept-set builder: fed paths in
//!   canonical order it reproduces `π(spec)(τ?(γψ(...)))` byte for byte and
//!   reports when the kept set is complete (single-partition keys after k
//!   paths; partition-limited specs once every kept group is full).
//!   `Pmr::sliced` drives it and layers a reachability-aware early stop on
//!   top.

use crate::condition::{Accessor, CompareOp, Condition, Position};
use crate::expr::PlanExpr;
use crate::fasthash::FastMap;
use crate::ops::group_by::GroupKey;
use crate::ops::recursive::PathSemantics;
use crate::pathset::PathSet;
use pathalg_graph::ids::NodeId;

/// The slicing parameters pushed down into a lazy enumeration: which grouping
/// the projection slices along and how many elements each level keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceSpec {
    /// The grouping parameter ψ of the pipeline (∅, S or ST).
    pub group_key: GroupKey,
    /// Paths kept per group (`π(…,…,k)`), `None` for `*`.
    pub per_group: Option<usize>,
    /// Partitions kept (`π(k,…,…)`), `None` for `*`. Only recognised when no
    /// order-by ranks partitions, so "first k" is first-occurrence order.
    pub max_partitions: Option<usize>,
    /// True when the pipeline contains `τA` (paths ranked by length). The
    /// kept set is the same either way — canonical order is already
    /// length-sorted within each group — but the flag documents the original
    /// pipeline in traces.
    pub ordered_by_length: bool,
}

/// A recognised sliceable pipeline: the slicing parameters plus the ϕ
/// operator it slices over and the endpoint-σ sitting between γ and ϕ (if
/// any).
#[derive(Clone, Copy, Debug)]
pub struct SlicePlan<'a> {
    /// The slicing parameters.
    pub spec: SliceSpec,
    /// The path semantics of the recursive operator.
    pub semantics: PathSemantics,
    /// The base expression of the recursive operator (the operand of ϕ).
    pub base: &'a PlanExpr,
    /// A selection between γ and ϕ (`γψ(σc(ϕ(…)))`), recognised so the
    /// engine can push endpoint predicates into the enumeration. A plan
    /// whose filter does not split into first/last parts is *recognised* but
    /// not lazily *eligible* — see [`SlicePlan::lazy_eligible`].
    pub filter: Option<&'a Condition>,
}

impl SlicePlan<'_> {
    /// True if this pipeline can actually be evaluated lazily under the
    /// given recursion bounds: the ϕ base must be a label scan or a join
    /// chain of label scans (the shapes the PMR expands without
    /// materialising), any filter between γ and ϕ must split into pure
    /// first-node/last-node predicates (so it can be pushed into the
    /// enumeration as a source restriction and a target mask), and unbounded
    /// Walk is excluded because its infinite-answer detection requires
    /// driving the full expansion. This is the single eligibility predicate
    /// of the engine's strategy chooser.
    pub fn lazy_eligible(&self, recursion: &crate::ops::recursive::RecursionConfig) -> bool {
        self.base.label_scan_chain().is_some()
            && self.filter.is_none_or(|c| c.endpoint_split().is_some())
            && (self.semantics != PathSemantics::Walk || recursion.max_length.is_some())
    }
}

impl PlanExpr {
    /// Recognises a sliceable `π(τA?(γψ(ϕ(…))))` pipeline rooted at this
    /// expression (see the module docs for the exact conditions). Returns
    /// `None` when the plan must be evaluated by materialising.
    pub fn sliceable_pipeline(&self) -> Option<SlicePlan<'_>> {
        let PlanExpr::Projection { spec, input } = self else {
            return None;
        };
        if !spec.keeps_groups_whole() {
            return None;
        }
        let per_group = spec.path_limit();
        let max_partitions = spec.partition_limit();
        // π(*,*,*) slices nothing; materialising is as good as streaming.
        if per_group.is_none() && max_partitions.is_none() {
            return None;
        }
        let (ordered_by_length, grouped) = match input.as_ref() {
            PlanExpr::OrderBy { key, input } => {
                if !key.ranks_only_paths() {
                    return None;
                }
                (true, input.as_ref())
            }
            other => (false, other),
        };
        // A partition limit is only "first k in occurrence order" when no τ
        // ranks partitions; τA leaves partition ranks at 1, so first-occurrence
        // order still decides — but combined with a partition limit we keep
        // the conservative rule simple and require no order-by at all.
        if max_partitions.is_some() && ordered_by_length {
            return None;
        }
        let PlanExpr::GroupBy { key, input } = grouped else {
            return None;
        };
        match key {
            GroupKey::Empty | GroupKey::Source | GroupKey::SourceTarget => {}
            _ => return None,
        }
        // γ∅ collects every source into one group, so length order is global
        // — canonical order is only length-sorted per source.
        if *key == GroupKey::Empty && ordered_by_length {
            return None;
        }
        // An endpoint filter may sit between γ and ϕ (the shape every
        // filtered selector query compiles to); σ preserves enumeration
        // order, so slicing the filtered stream equals filtering after
        // materialisation.
        let (filter, recursive) = match input.as_ref() {
            PlanExpr::Selection { condition, input } => (Some(condition), input.as_ref()),
            other => (None, other),
        };
        let PlanExpr::Recursive { semantics, input } = recursive else {
            return None;
        };
        Some(SlicePlan {
            spec: SliceSpec {
                group_key: *key,
                per_group,
                max_partitions,
                ordered_by_length,
            },
            semantics: *semantics,
            base: input,
            filter,
        })
    }

    /// Recognises `σ_{label(edge(1)) = ℓ}(Edges(G))` — the shape every
    /// `[:ℓ+]` pattern compiles its base relation to — and returns `ℓ`.
    pub fn label_scan_target(&self) -> Option<&str> {
        let PlanExpr::Selection { condition, input } = self else {
            return None;
        };
        if !matches!(**input, PlanExpr::Edges) {
            return None;
        }
        let Condition::Compare {
            accessor: Accessor::EdgeLabel(Position::Index(1)),
            op: CompareOp::Eq,
            value,
        } = condition
        else {
            return None;
        };
        value.as_str()
    }

    /// Recognises a join tree whose every leaf is a label scan —
    /// `σℓ1(E) ⋈ … ⋈ σℓk(E)` in any association — and returns the labels in
    /// concatenation order. This is the shape every `(:ℓ1/…/:ℓk)+` pattern
    /// compiles its base relation to; a single label scan yields a one-label
    /// chain. The join output order is association-independent (left-deep
    /// and right-deep trees both enumerate `(e1, …, ek)` lexicographically),
    /// which is what lets the lazy arena join reproduce it from the flat
    /// hop list alone.
    pub fn label_scan_chain(&self) -> Option<Vec<&str>> {
        match self {
            PlanExpr::Join { left, right } => {
                let mut chain = left.label_scan_chain()?;
                chain.extend(right.label_scan_chain()?);
                Some(chain)
            }
            _ => self.label_scan_target().map(|l| vec![l]),
        }
    }
}

/// Whether a slice collector can still accept paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SliceState {
    /// Further paths may still be kept.
    Open,
    /// The kept set is complete; no future path (in canonical order) can be
    /// kept, so enumeration may stop.
    Complete,
}

/// The incremental kept-set builder behind the `pathalg-pmr` crate's
/// reachability-aware sliced evaluation: groups paths by the partition key
/// in first-occurrence order, caps each group at `per_group`, ignores
/// partitions beyond `max_partitions`, and reports when the kept set cannot
/// grow any more.
pub struct SliceCollector {
    spec: SliceSpec,
    groups: Vec<(PartitionKey, Vec<crate::path::Path>)>,
    index: FastMap<PartitionKey, usize>,
    /// Number of kept groups still below the `per_group` cap — kept
    /// incrementally so completion checks are O(1) per offered path.
    unfilled: usize,
}

/// The partition identity under ψ ∈ {∅, S, ST}: the source and/or target
/// component of the grouping key (both `None` for γ∅).
pub type PartitionKey = (Option<NodeId>, Option<NodeId>);

impl SliceCollector {
    /// Creates an empty collector for `spec`.
    pub fn new(spec: &SliceSpec) -> Self {
        Self {
            spec: *spec,
            groups: Vec::new(),
            index: FastMap::default(),
            unfilled: 0,
        }
    }

    /// The partition key of a path from `first` to `last` under the
    /// collector's grouping parameter.
    pub fn key(&self, first: NodeId, last: NodeId) -> PartitionKey {
        let by = self.spec.group_key;
        (
            by.partitions_by_source().then_some(first),
            by.partitions_by_target().then_some(last),
        )
    }

    /// Offers the next path in canonical order; keeps or skips it and reports
    /// whether the kept set is now complete.
    pub fn offer(&mut self, path: crate::path::Path) -> SliceState {
        let key = self.key(path.first(), path.last());
        let gi = match self.index.get(&key) {
            Some(&gi) => gi,
            None => {
                if self
                    .spec
                    .max_partitions
                    .is_some_and(|kp| self.groups.len() >= kp)
                {
                    return self.state();
                }
                self.groups.push((key, Vec::new()));
                self.index.insert(key, self.groups.len() - 1);
                if self.spec.per_group.is_some() {
                    self.unfilled += 1;
                }
                self.groups.len() - 1
            }
        };
        let cap = self.spec.per_group;
        let members = &mut self.groups[gi].1;
        if cap.is_none_or(|k| members.len() < k) {
            members.push(path);
            if cap.is_some_and(|k| members.len() == k) {
                self.unfilled -= 1;
            }
        }
        self.state()
    }

    /// True once the kept set cannot grow: every kept group is full and no
    /// new partition may be admitted. O(1) via the `unfilled` counter.
    fn state(&self) -> SliceState {
        if self.spec.per_group.is_none() {
            return SliceState::Open;
        }
        let all_full = self.unfilled == 0;
        let partitions_closed = match self.spec.group_key {
            // γ∅: there is only ever one partition.
            GroupKey::Empty => !self.groups.is_empty(),
            _ => self
                .spec
                .max_partitions
                .is_some_and(|kp| self.groups.len() >= kp),
        };
        if all_full && partitions_closed {
            SliceState::Complete
        } else {
            SliceState::Open
        }
    }

    /// Number of partitions discovered so far.
    pub fn partition_count(&self) -> usize {
        self.groups.len()
    }

    /// True if the group of `key` already holds `per_group` paths (always
    /// false when no per-group cap is set).
    pub fn group_is_full(&self, key: &PartitionKey) -> bool {
        match (self.spec.per_group, self.index.get(key)) {
            (Some(k), Some(&gi)) => self.groups[gi].1.len() >= k,
            _ => false,
        }
    }

    /// True if the next path with this key would actually be kept (rather
    /// than skipped as a duplicate beyond the group cap or as a partition
    /// beyond the partition limit). Producers use this to avoid
    /// materialising paths that are about to be discarded.
    pub fn would_keep(&self, key: &PartitionKey) -> bool {
        match self.index.get(key) {
            Some(&gi) => self
                .spec
                .per_group
                .is_none_or(|k| self.groups[gi].1.len() < k),
            None => self.accepts_new_partition(),
        }
    }

    /// True if a path with this key could still be kept.
    pub fn accepts_new_partition(&self) -> bool {
        self.spec
            .max_partitions
            .is_none_or(|kp| self.groups.len() < kp)
    }

    /// Assembles the kept paths: partitions in first-occurrence order, paths
    /// within each group in canonical order — exactly the output order of
    /// Algorithm 1 on these pipeline shapes.
    pub fn finish(self) -> PathSet {
        let mut out = PathSet::new();
        for (_, members) in self.groups {
            out.extend(members);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::ops::order_by::OrderKey;
    use crate::ops::projection::{ProjectionSpec, Take};
    use crate::ops::recursive::{recursive, RecursionConfig};
    use crate::ops::selection::selection;
    use crate::path::Path;
    use pathalg_graph::fixtures::figure1::Figure1;

    fn scan(label: &str) -> PlanExpr {
        PlanExpr::edges().select(Condition::edge_label(1, label))
    }

    #[test]
    fn recognises_the_selector_pipelines() {
        // SHORTEST k: π(*,*,k)(τA(γST(ϕ(scan)))).
        let plan = scan("Knows")
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::SourceTarget)
            .order_by(OrderKey::Path)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(2)));
        let sliced = plan.sliceable_pipeline().unwrap();
        assert_eq!(sliced.spec.group_key, GroupKey::SourceTarget);
        assert_eq!(sliced.spec.per_group, Some(2));
        assert_eq!(sliced.spec.max_partitions, None);
        assert!(sliced.spec.ordered_by_length);
        assert_eq!(sliced.semantics, PathSemantics::Trail);
        assert_eq!(sliced.base.label_scan_target(), Some("Knows"));

        // ANY: π(*,*,1)(γST(ϕ(scan))) — no order-by.
        let plan = scan("Knows")
            .recursive(PathSemantics::Shortest)
            .group_by(GroupKey::SourceTarget)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
        let sliced = plan.sliceable_pipeline().unwrap();
        assert!(!sliced.spec.ordered_by_length);
        assert_eq!(sliced.spec.per_group, Some(1));

        // Extended form: 2 PARTITIONS, 3 PATHS, no order.
        let plan = scan("Knows")
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::Source)
            .project(ProjectionSpec::new(
                Take::Count(2),
                Take::All,
                Take::Count(3),
            ));
        let sliced = plan.sliceable_pipeline().unwrap();
        assert_eq!(sliced.spec.max_partitions, Some(2));
        assert_eq!(sliced.spec.per_group, Some(3));
    }

    #[test]
    fn rejects_non_sliceable_shapes() {
        let phi = scan("Knows").recursive(PathSemantics::Trail);
        // π(*,*,*) slices nothing.
        assert!(phi
            .clone()
            .group_by(GroupKey::SourceTarget)
            .project(ProjectionSpec::all())
            .sliceable_pipeline()
            .is_none());
        // Group limits are not streamable.
        assert!(phi
            .clone()
            .group_by(GroupKey::SourceTargetLength)
            .project(ProjectionSpec::new(Take::All, Take::Count(1), Take::All))
            .sliceable_pipeline()
            .is_none());
        // Length-keyed groups span levels.
        assert!(phi
            .clone()
            .group_by(GroupKey::Length)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)))
            .sliceable_pipeline()
            .is_none());
        // γ∅ + τA orders globally; canonical order is per-source.
        assert!(phi
            .clone()
            .group_by(GroupKey::Empty)
            .order_by(OrderKey::Path)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)))
            .sliceable_pipeline()
            .is_none());
        // Order keys other than A rank groups/partitions.
        assert!(phi
            .clone()
            .group_by(GroupKey::SourceTarget)
            .order_by(OrderKey::PartitionGroupPath)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)))
            .sliceable_pipeline()
            .is_none());
    }

    #[test]
    fn endpoint_filters_between_gamma_and_phi_are_recognised() {
        use crate::ops::recursive::RecursionConfig;
        let phi = || scan("Knows").recursive(PathSemantics::Trail);
        let take1 = || ProjectionSpec::new(Take::All, Take::All, Take::Count(1));
        // An endpoint σ is recognised and lazily eligible…
        let plan = phi()
            .select(Condition::first_property("name", "Moe").and(Condition::last_label("Person")))
            .group_by(GroupKey::SourceTarget)
            .project(take1());
        let sliced = plan.sliceable_pipeline().unwrap();
        assert!(sliced.filter.is_some());
        assert!(sliced.lazy_eligible(&RecursionConfig::default()));
        // …a non-endpoint σ (interior node) is recognised but not eligible…
        let plan = phi()
            .select(Condition::node_property(2, "name", "Moe"))
            .group_by(GroupKey::SourceTarget)
            .project(take1());
        let sliced = plan.sliceable_pipeline().unwrap();
        assert!(sliced.filter.is_some());
        assert!(!sliced.lazy_eligible(&RecursionConfig::default()));
        // …and an ∨ mixing both endpoints cannot be split either.
        let plan = phi()
            .select(Condition::first_label("Person").or(Condition::last_label("Person")))
            .group_by(GroupKey::SourceTarget)
            .project(take1());
        assert!(!plan
            .sliceable_pipeline()
            .unwrap()
            .lazy_eligible(&RecursionConfig::default()));
    }

    #[test]
    fn label_scan_chains_are_recognised_in_any_association() {
        let a = || scan("Likes");
        let b = || scan("Has_creator");
        let c = || scan("Knows");
        assert_eq!(
            a().join(b()).label_scan_chain(),
            Some(vec!["Likes", "Has_creator"])
        );
        assert_eq!(
            a().join(b()).join(c()).label_scan_chain(),
            Some(vec!["Likes", "Has_creator", "Knows"])
        );
        assert_eq!(
            a().join(b().join(c())).label_scan_chain(),
            Some(vec!["Likes", "Has_creator", "Knows"])
        );
        assert_eq!(c().label_scan_chain(), Some(vec!["Knows"]));
        // Non-scan leaves break the chain.
        assert!(a().join(PlanExpr::edges()).label_scan_chain().is_none());
        assert!(a()
            .join(b().select(Condition::first_label("Person")))
            .label_scan_chain()
            .is_none());
        assert!(PlanExpr::nodes().label_scan_chain().is_none());
    }

    #[test]
    fn label_scan_detection_matches_the_compiled_shape() {
        assert_eq!(scan("Knows").label_scan_target(), Some("Knows"));
        assert_eq!(
            PlanExpr::edges()
                .select(Condition::edge_label(2, "Knows"))
                .label_scan_target(),
            None
        );
        assert_eq!(
            PlanExpr::nodes()
                .select(Condition::edge_label(1, "Knows"))
                .label_scan_target(),
            None
        );
        assert_eq!(PlanExpr::edges().label_scan_target(), None);
    }

    /// The materialised trail closure of the Knows subgraph, in a canonical
    /// per-source, level-ordered sequence.
    fn canonical_trails(f: &Figure1) -> Vec<Path> {
        let base = selection(
            &f.graph,
            &Condition::edge_label(1, "Knows"),
            &PathSet::edges(&f.graph),
        );
        let closure = recursive(PathSemantics::Trail, &base, &RecursionConfig::default()).unwrap();
        let mut v: Vec<Path> = closure.into_vec();
        // Source-major, level-ordered: the canonical-order contract.
        v.sort_by_key(|p| (p.first(), p.len()));
        v
    }

    #[test]
    fn collector_completes_as_soon_as_the_kept_set_is_full() {
        let f = Figure1::new();
        let canonical = canonical_trails(&f);
        assert!(canonical.len() > 2);
        // γ∅, first 2 paths: the second offer completes the kept set, so a
        // canonical-order producer can stop pulling right there.
        let spec = SliceSpec {
            group_key: GroupKey::Empty,
            per_group: Some(2),
            max_partitions: None,
            ordered_by_length: false,
        };
        let mut collector = SliceCollector::new(&spec);
        let states: Vec<SliceState> = canonical
            .iter()
            .take(2)
            .map(|p| collector.offer(p.clone()))
            .collect();
        assert_eq!(states, [SliceState::Open, SliceState::Complete]);
        let out = collector.finish();
        assert_eq!(out.as_slice(), &canonical[..2]);
    }
}
