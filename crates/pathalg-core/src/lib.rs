//! # pathalg-core — the path algebra
//!
//! This crate is the paper's primary contribution: an algebra whose operators
//! take sets of paths as input and produce sets of paths (or, for the extended
//! operators, *solution spaces*) as output, making paths first-class citizens
//! of the query-processing pipeline.
//!
//! The crate is organised to mirror the paper:
//!
//! | Paper section | Module |
//! |---|---|
//! | §2.2 Paths, §3.1 path operators | [`path`] |
//! | Sets of paths (the algebra's carrier) | [`pathset`] |
//! | §3.1 Selection conditions | [`condition`] |
//! | §3.1 Core algebra: σ, ⋈, ∪ | [`ops::selection`], [`ops::join`], [`ops::union`] |
//! | §4 Recursive algebra: ϕ (Walk/Trail/Acyclic/Simple/Shortest) | [`ops::recursive`] |
//! | §5 Solution spaces (Def. 5.1) | [`solution_space`] |
//! | §5.1 Group-by γψ (Table 4) | [`ops::group_by`] |
//! | §5.2 Order-by τθ (Table 6) | [`ops::order_by`] |
//! | §5.3 Projection π (Algorithm 1) | [`ops::projection`] |
//! | Evaluation trees / logical plans (Figs. 2–6) | [`expr`], [`eval`], [`display`] |
//! | §6 GQL selectors & restrictors (Tables 1, 2, 7) | [`gql`] |
//! | §7.3 Query optimization | [`optimizer`] |
//!
//! All operators are *closed over sets of paths*: the output of any expression
//! can be consumed by any other expression, which is the composability the
//! paper emphasises.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod condition;
pub mod display;
pub mod error;
pub mod eval;
pub mod expr;
pub mod fasthash;
pub mod gql;
pub mod obs;
pub mod ops;
pub mod optimizer;
pub mod path;
pub mod pathset;
pub mod plan;
pub mod slice;
pub mod solution_space;

pub use condition::{Accessor, CompareOp, Condition, Position};
pub use error::AlgebraError;
pub use eval::{EvalConfig, EvalOutput, EvalStats, Evaluator};
pub use expr::PlanExpr;
pub use gql::{Restrictor, Selector};
pub use obs::{LatencyHistogram, Stage, StageSpans, WorkCounters};
pub use ops::group_by::GroupKey;
pub use ops::order_by::OrderKey;
pub use ops::projection::{ProjectionSpec, Take};
pub use ops::recursive::PathSemantics;
pub use path::Path;
pub use pathset::PathSet;
pub use slice::{SlicePlan, SliceSpec};
pub use solution_space::SolutionSpace;
