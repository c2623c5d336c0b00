//! # pathalg — Path-based Algebraic Foundations of Graph Query Languages
//!
//! A from-scratch Rust implementation of the path algebra of Angles, Bonifati,
//! García and Vrgoč (EDBT 2025, arXiv:2407.04823), together with every substrate
//! the algebra needs to run end to end:
//!
//! * [`graph`] — the property-graph data model (Definition 2.1), its CSR
//!   adjacency, synthetic graph generators, and the paper's Figure 1 fixture.
//! * [`algebra`] — paths, selection conditions, the core algebra (σ, ⋈, ∪), the
//!   recursive operator ϕ under Walk/Trail/Acyclic/Simple/Shortest semantics,
//!   solution spaces, group-by / order-by / projection, logical plans and the
//!   rule-based optimizer, plus the GQL selector/restrictor mapping of Table 7.
//! * [`rpq`] — regular path expressions, NFA construction, the regex →
//!   algebra compiler, and the classical automaton-product baseline.
//! * [`parser`] — the extended-GQL surface syntax of Section 7.1 and the logical
//!   plan generator of Section 7.2.
//! * [`pmr`] — compact path-multiset representations: the closure of a label
//!   scan or label chain as a step arena with lazy, canonical-order top-k
//!   enumeration (DESIGN.md §8).
//! * [`engine`] — physical operators and restrictor-specific algorithms, graph
//!   statistics, and the end-to-end query runner (parse → optimize → execute).
//! * [`server`] — the long-lived query service: plan cache, in-flight
//!   deduplication of identical concurrent queries, admission control, and a
//!   line-oriented unix-socket protocol (DESIGN.md §11).
//!
//! ## Quickstart
//!
//! ```
//! use pathalg::prelude::*;
//!
//! // The paper's Figure 1 graph: a social-network snippet from LDBC SNB.
//! let graph = figure1_graph();
//!
//! // MATCH ANY SHORTEST TRAIL p = (x)-[:Knows]->+(y)   (Section 5 example)
//! let query = "MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p = (?x)-[(:Knows)+]->(?y) \
//!              GROUP BY SOURCE TARGET ORDER BY PATH";
//! let result = QueryRunner::new(&graph).run(query).unwrap();
//! assert!(!result.paths().is_empty());
//! for p in result.paths() {
//!     println!("{}", p.display(&graph));
//! }
//! ```
//!
//! See the `examples/` directory for larger, domain-specific programs and
//! `DESIGN.md` / `EXPERIMENTS.md` for the mapping between the paper's tables
//! and figures and the code that regenerates them.

pub use pathalg_core as algebra;
pub use pathalg_engine as engine;
pub use pathalg_graph as graph;
pub use pathalg_parser as parser;
pub use pathalg_pmr as pmr;
pub use pathalg_rpq as rpq;
pub use pathalg_server as server;

/// A convenience prelude bringing the most commonly used types into scope.
pub mod prelude {
    pub use pathalg_core::condition::Condition;
    pub use pathalg_core::expr::PlanExpr;
    pub use pathalg_core::gql::{Restrictor, Selector};
    pub use pathalg_core::ops::group_by::GroupKey;
    pub use pathalg_core::ops::order_by::OrderKey;
    pub use pathalg_core::ops::recursive::PathSemantics;
    pub use pathalg_core::path::Path;
    pub use pathalg_core::pathset::PathSet;
    pub use pathalg_core::solution_space::SolutionSpace;
    pub use pathalg_engine::runner::{QueryResult, QueryRunner};
    pub use pathalg_graph::fixtures::figure1::figure1_graph;
    pub use pathalg_graph::graph::{GraphBuilder, PropertyGraph};
    pub use pathalg_graph::ids::{EdgeId, NodeId};
    pub use pathalg_graph::value::Value;
    pub use pathalg_pmr::Pmr;
    pub use pathalg_rpq::regex::LabelRegex;
}
