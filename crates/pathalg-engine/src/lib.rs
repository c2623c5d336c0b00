//! # pathalg-engine — executing path-algebra plans
//!
//! The paper deliberately leaves the algorithms for each operator out of scope
//! ("to build a reference implementation, one only needs to specify an
//! algorithm for each operator", Section 7.2). This crate supplies those
//! algorithms and ties the whole stack together:
//!
//! * [`exec`] — [`exec::EngineEvaluator`], the engine-level plan
//!   interpreter, serial per query: every ϕ runs on `pathalg-pmr`'s kernel,
//!   over the label CSRs of a scan or join chain, or over the indexed paths
//!   of any other base, evaluated first (DESIGN.md §8). The semi-naïve
//!   fixpoint of `pathalg-core` is the §8.2 ablation baseline and the test
//!   oracle every ϕ is cross-checked against.
//! * [`cost`] — a simple cardinality/cost model over
//!   [`pathalg_graph::stats::GraphStats`], the ingredient Section 7.3 says a
//!   cost-based optimizer needs, the closure estimator behind admission
//!   control and `EXPLAIN` ([`cost::estimate_plan_closures`]), and
//!   [`cost::choose_pipeline_impl`], which recognises the slicing γ/τ/π
//!   pipelines the kernel evaluates with their limits pushed in
//!   (DESIGN.md §8).
//! * [`baseline`] — end-to-end evaluation of a parsed query with the
//!   classical automaton-product algorithm instead of the algebra, used as an
//!   independent correctness oracle and benchmark comparator.
//! * [`runner`] — [`runner::QueryRunner`]: parse → type-check → optimize →
//!   evaluate, the "reference implementation of GQL / SQL-PGQ" the paper
//!   sketches, over [`runner::Planner`], the plan stage the query service
//!   shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cost;
pub mod exec;
pub mod runner;

pub use exec::{EngineEvaluator, ExecutionConfig};
pub use runner::{PlannedQuery, Planner, QueryResult, QueryRunner, RunnerConfig};
