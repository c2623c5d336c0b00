//! Recognition of *sliceable* γ/τ/π pipelines.
//!
//! The γ → τ → π pipelines GQL selectors translate to (Table 7) often keep
//! only a few paths per partition — `π(*,*,k)` — while the recursive operator
//! underneath can produce exponentially many. [`PlanExpr::sliceable_pipeline`]
//! recognises the pipeline shapes whose result is fully determined by the
//! canonical enumeration order (the contract stated on `pathalg_pmr::Pmr`),
//! read one source at a time, so that a lazy enumeration can evaluate them
//! without materialising the whole closure:
//!
//! * `π(spec)(τA?(γψ(σ?(ϕsem(base)))))` where ψ ∈ {∅, S, ST}, the order-by is
//!   absent or ranks paths by length (`τA`), groups are taken whole, and the
//!   projection slices (or, under γST, regroups by target): "first k in
//!   canonical order per group" is the materialised projection, because γ
//!   collects paths in enumeration order, canonical order is
//!   length-non-decreasing within each source, and ψ ∈ {∅, S, ST} keeps
//!   every group inside a single source segment, so the stable rank sort of
//!   Algorithm 1 is the identity.
//! * `π(*,k,*)(τG(γSTL(σ?(ϕsem(base)))))` — ALL SHORTEST and SHORTEST k
//!   GROUP: a pair's groups are its path lengths, and since a source's
//!   paths come length by length, its first k groups are the paths of its
//!   first k lengths, in canonical order.
//!
//! The `pathalg-pmr` crate's slice collector evaluates the recognised
//! [`SliceSpec`] over a kernel's stream.

use crate::condition::{Accessor, CompareOp, Condition, Position};
use crate::expr::PlanExpr;
use crate::ops::group_by::GroupKey;
use crate::ops::order_by::OrderKey;
use crate::ops::projection::Take;
use crate::ops::recursive::PathSemantics;

/// The slicing parameters pushed down into a lazy enumeration: which grouping
/// the projection slices along and how many elements each level keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceSpec {
    /// The grouping parameter ψ of the pipeline (∅, S, ST or STL).
    pub group_key: GroupKey,
    /// Paths kept per group (`π(…,…,k)`), `None` for `*`.
    pub per_group: Option<usize>,
    /// Partitions kept (`π(k,…,…)`), `None` for `*`. Only recognised when no
    /// order-by ranks partitions, so "first k" is first-occurrence order.
    pub max_partitions: Option<usize>,
    /// Groups kept per partition (`π(…,k,…)`), `None` for `*`. Only
    /// recognised under `τG(γSTL)`, where a partition `(s, t)`'s groups are
    /// its path lengths, ascending: the paths of its first k lengths.
    pub max_groups: Option<usize>,
    /// True when the pipeline contains a τ: `τA` ranking paths by length, or
    /// `τG` ranking γSTL's length groups. The kept set is the same either
    /// way — canonical order is already length-sorted within each source —
    /// but the flag documents the original pipeline in traces.
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
    /// Recognises a sliceable pipeline rooted at this expression (see the
    /// module docs for the exact shapes). Returns `None` when the plan must
    /// be evaluated by materialising.
    pub fn sliceable_pipeline(&self) -> Option<SlicePlan<'_>> {
        let PlanExpr::Projection { spec, input } = self else {
            return None;
        };
        let (order, grouped) = match input.as_ref() {
            PlanExpr::OrderBy { key, input } => (Some(*key), input.as_ref()),
            other => (None, other),
        };
        let PlanExpr::GroupBy { key, input } = grouped else {
            return None;
        };
        let per_group = spec.path_limit();
        let max_partitions = spec.partition_limit();
        let max_groups = match key {
            GroupKey::SourceTargetLength => {
                let Take::Count(k) = spec.groups else {
                    return None;
                };
                if order != Some(OrderKey::Group) || per_group.is_some() || max_partitions.is_some()
                {
                    return None;
                }
                Some(k)
            }
            GroupKey::Empty | GroupKey::Source | GroupKey::SourceTarget => {
                if !spec.keeps_groups_whole() || order.is_some_and(|o| !o.ranks_only_paths()) {
                    return None;
                }
                // π(*,*,*) leaves the stream as it is, except that γST
                // regroups each source's paths by target.
                if per_group.is_none() && max_partitions.is_none() && *key != GroupKey::SourceTarget
                {
                    return None;
                }
                // τA leaves partition ranks at 1, so a partition limit still
                // takes first-occurrence order — but the rule stays simple:
                // a partition limit takes no order-by at all. And γ∅ collects
                // every source into one group, so τA would order it globally,
                // while canonical order is only length-sorted per source.
                if order.is_some() && (max_partitions.is_some() || *key == GroupKey::Empty) {
                    return None;
                }
                None
            }
            _ => return None,
        };
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
                max_groups,
                ordered_by_length: order.is_some(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::ops::order_by::OrderKey;
    use crate::ops::projection::{ProjectionSpec, Take};

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

        // ALL SHORTEST WALK's optimized form: π(*,*,*)(γST(ϕSHORTEST)), a
        // regrouping by target with nothing sliced.
        let plan = scan("Knows")
            .recursive(PathSemantics::Shortest)
            .group_by(GroupKey::SourceTarget)
            .project(ProjectionSpec::all());
        let sliced = plan.sliceable_pipeline().unwrap();
        assert_eq!(
            (sliced.spec.per_group, sliced.spec.max_groups),
            (None, None)
        );

        // SHORTEST 2 GROUP: π(*,2,*)(τG(γSTL(ϕ))), the paths of each pair's
        // two shortest lengths.
        let plan = scan("Knows")
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::SourceTargetLength)
            .order_by(OrderKey::Group)
            .project(ProjectionSpec::new(Take::All, Take::Count(2), Take::All));
        let sliced = plan.sliceable_pipeline().unwrap();
        assert_eq!(sliced.spec.group_key, GroupKey::SourceTargetLength);
        assert_eq!(sliced.spec.max_groups, Some(2));
        assert_eq!(sliced.spec.per_group, None);
        assert!(sliced.spec.ordered_by_length);

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
        // π(*,*,*) over γ∅ or γS leaves the stream as it is: nothing to
        // slice.
        for key in [GroupKey::Empty, GroupKey::Source] {
            assert!(phi
                .clone()
                .group_by(key)
                .project(ProjectionSpec::all())
                .sliceable_pipeline()
                .is_none());
        }
        // Group limits are streamed only as γSTL's lengths ranked by τG.
        assert!(phi
            .clone()
            .group_by(GroupKey::SourceTargetLength)
            .project(ProjectionSpec::new(Take::All, Take::Count(1), Take::All))
            .sliceable_pipeline()
            .is_none());
        assert!(phi
            .clone()
            .group_by(GroupKey::SourceLength)
            .order_by(OrderKey::Group)
            .project(ProjectionSpec::new(Take::All, Take::Count(1), Take::All))
            .sliceable_pipeline()
            .is_none());
        assert!(phi
            .clone()
            .group_by(GroupKey::SourceTargetLength)
            .order_by(OrderKey::Group)
            .project(ProjectionSpec::new(
                Take::All,
                Take::Count(1),
                Take::Count(1)
            ))
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
            .select(Condition::Compare {
                accessor: Accessor::NodeProperty(Position::Index(2), "name".into()),
                op: CompareOp::Eq,
                value: "Moe".into(),
            })
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
}
