//! Plan normalisation and cache-key fingerprinting for the query service.
//!
//! A long-lived service (`pathalg-server`'s `QueryService`) caches planning
//! work keyed by the *logical plan*, so two queries that compile to
//! semantically identical plans must map to the same cache key even when
//! their plan trees differ syntactically. Two sources of benign syntactic
//! divergence exist in this algebra:
//!
//! * **α-equivalence.** Variable names (`?x`, `?friend`) never reach the
//!   IR — [`QueryIr::to_plan`](crate::ir::QueryIr::to_plan) emits
//!   positional accessors only — so α-equivalent queries already produce
//!   structurally identical [`PlanExpr`] trees and need no extra handling.
//! * **Join association.** ⋈ is associative (path concatenation), and the
//!   enumeration order of a join's output is association-independent (see
//!   [`PlanExpr::label_scan_chain`]), so `(a ⋈ b) ⋈ c` and `a ⋈ (b ⋈ c)`
//!   are the same plan. `normalize_plan` rewrites every join tree into
//!   its canonical **left-deep** association, preserving operand order
//!   (⋈ is *not* commutative).
//!
//! [`plan_cache_key`] then fingerprints the normalised tree together with
//! the recursion bounds the plan would run under — bounds change both
//! results (`max_paths`) and strategy decisions, so they are part of the
//! key, not of the cached value. The key carries the full canonical form
//! alongside the 64-bit hash: lookups compare both, so a fingerprint
//! collision can never alias two distinct plans to one cache entry.

use pathalg_core::expr::PlanExpr;
use pathalg_core::ops::recursive::RecursionConfig;

/// A collision-proof plan-cache key: a 64-bit FNV-1a fingerprint for cheap
/// bucketing plus the canonical rendering it was computed from. Equality
/// compares both, so plans whose fingerprints collide still occupy distinct
/// cache entries.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// FNV-1a fingerprint of [`PlanKey::canonical`].
    pub hash: u64,
    /// The canonical form: the normalised plan (debug rendering, which is
    /// injective over plan trees) plus the recursion bounds.
    pub canonical: String,
}

impl std::fmt::Display for PlanKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.hash)
    }
}

/// Rewrites a plan into its canonical form: every join tree is re-associated
/// left-deep (operand order preserved — ⋈ concatenates, so it is associative
/// but not commutative); all other operators are normalised recursively and
/// left intact. The normalised plan is semantically identical to the input —
/// same result paths, same enumeration order — and every association of the
/// same join sequence normalises to the same tree.
pub(crate) fn normalize_plan(plan: &PlanExpr) -> PlanExpr {
    match plan {
        PlanExpr::Nodes => PlanExpr::Nodes,
        PlanExpr::Edges => PlanExpr::Edges,
        PlanExpr::Selection { condition, input } => PlanExpr::Selection {
            condition: condition.clone(),
            input: Box::new(normalize_plan(input)),
        },
        PlanExpr::Join { .. } => {
            let mut operands = Vec::new();
            flatten_joins(plan, &mut operands);
            let mut iter = operands.into_iter();
            let first = iter.next().expect("a join has at least two operands");
            iter.fold(first, |acc, rhs| acc.join(rhs))
        }
        PlanExpr::Union { left, right } => PlanExpr::Union {
            left: Box::new(normalize_plan(left)),
            right: Box::new(normalize_plan(right)),
        },
        PlanExpr::Recursive { semantics, input } => PlanExpr::Recursive {
            semantics: *semantics,
            input: Box::new(normalize_plan(input)),
        },
        PlanExpr::GroupBy { key, input } => PlanExpr::GroupBy {
            key: *key,
            input: Box::new(normalize_plan(input)),
        },
        PlanExpr::OrderBy { key, input } => PlanExpr::OrderBy {
            key: *key,
            input: Box::new(normalize_plan(input)),
        },
        PlanExpr::Projection { spec, input } => PlanExpr::Projection {
            spec: *spec,
            input: Box::new(normalize_plan(input)),
        },
    }
}

/// Collects the non-join operands of a join tree in concatenation order,
/// normalising each.
fn flatten_joins(plan: &PlanExpr, out: &mut Vec<PlanExpr>) {
    match plan {
        PlanExpr::Join { left, right } => {
            flatten_joins(left, out);
            flatten_joins(right, out);
        }
        other => out.push(normalize_plan(other)),
    }
}

/// Computes the service-level cache key of a plan under the given recursion
/// bounds: normalise, render canonically, fingerprint. See the module docs
/// for what the key does and does not identify.
pub fn plan_cache_key(plan: &PlanExpr, recursion: &RecursionConfig) -> PlanKey {
    let canonical = format!(
        "{:?} [max_length={:?} max_paths={:?}]",
        normalize_plan(plan),
        recursion.max_length,
        recursion.max_paths
    );
    PlanKey {
        hash: fnv1a(canonical.as_bytes()),
        canonical,
    }
}

/// 64-bit FNV-1a over a byte string — small, dependency-free, and stable
/// across runs and platforms (unlike `DefaultHasher`, whose seeds vary).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lower_to_checked_plan, parse_query};
    use pathalg_core::condition::Condition;
    use pathalg_core::ops::recursive::PathSemantics;

    fn scan(label: &str) -> PlanExpr {
        PlanExpr::edges().select(Condition::edge_label(1, label))
    }

    #[test]
    fn join_association_normalises_to_one_tree() {
        let a = || scan("Likes");
        let b = || scan("Has_creator");
        let c = || scan("Knows");
        let left_deep = a().join(b()).join(c());
        let right_deep = a().join(b().join(c()));
        let mixed = a().join(b()).join(c());
        let norm = normalize_plan(&left_deep);
        assert_eq!(norm, normalize_plan(&right_deep));
        assert_eq!(norm, normalize_plan(&mixed));
        // The canonical association is left-deep.
        assert_eq!(norm, left_deep);
        // Operand order is preserved: ⋈ is not commutative.
        assert_ne!(
            normalize_plan(&a().join(b())),
            normalize_plan(&b().join(a()))
        );
    }

    #[test]
    fn normalisation_recurses_through_every_operator() {
        let deep = a_pipeline(scan("Likes").join(scan("Has_creator").join(scan("Knows"))));
        let flat = a_pipeline(scan("Likes").join(scan("Has_creator")).join(scan("Knows")));
        assert_eq!(normalize_plan(&deep), normalize_plan(&flat));
    }

    fn a_pipeline(base: PlanExpr) -> PlanExpr {
        use pathalg_core::ops::group_by::GroupKey;
        use pathalg_core::ops::projection::{ProjectionSpec, Take};
        base.recursive(PathSemantics::Simple)
            .group_by(GroupKey::SourceTarget)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)))
    }

    #[test]
    fn cache_keys_separate_semantics_bounds_and_shapes() {
        let cfg = RecursionConfig::default();
        let trail = scan("Knows").recursive(PathSemantics::Trail);
        let simple = scan("Knows").recursive(PathSemantics::Simple);
        assert_ne!(plan_cache_key(&trail, &cfg), plan_cache_key(&simple, &cfg));
        // Different bounds change the key even for the same plan.
        let bounded = RecursionConfig {
            max_paths: Some(10),
            ..cfg
        };
        assert_ne!(
            plan_cache_key(&trail, &cfg),
            plan_cache_key(&trail, &bounded)
        );
        // Identical plans agree.
        assert_eq!(plan_cache_key(&trail, &cfg), plan_cache_key(&trail, &cfg));
    }

    #[test]
    fn alpha_equivalent_queries_share_a_key() {
        let cfg = RecursionConfig::default();
        let q1 = parse_query("MATCH ANY SHORTEST TRAIL p = (?x)-[(:Knows)+]->(?y)").unwrap();
        let q2 =
            parse_query("MATCH ANY SHORTEST TRAIL route = (?from)-[(:Knows)+]->(?to)").unwrap();
        let k1 = plan_cache_key(&lower_to_checked_plan(&q1).unwrap(), &cfg);
        let k2 = plan_cache_key(&lower_to_checked_plan(&q2).unwrap(), &cfg);
        assert_eq!(k1, k2);
    }

    #[test]
    fn fingerprint_is_stable_and_keys_are_displayable() {
        let cfg = RecursionConfig::default();
        let key = plan_cache_key(&scan("Knows").recursive(PathSemantics::Trail), &cfg);
        let again = plan_cache_key(&scan("Knows").recursive(PathSemantics::Trail), &cfg);
        assert_eq!(key.hash, again.hash);
        assert_eq!(format!("{key}").len(), 16);
    }
}
