//! # pathalg-parser — the multi-surface query front-end
//!
//! Section 7.1 of the paper extends the GQL path-query grammar so that every
//! operator of the path algebra can be written in a declarative query, and
//! Section 7.2 describes a parser that turns such queries into logical plans.
//! This crate is that component in Rust — and since the front-end redesign it
//! accepts **three** surfaces, all funnelled through one serializable,
//! α-canonical intermediate representation ([`QueryIr`], version
//! `query_ir_v1`) and one checked lowering ([`lower_to_checked_plan`]):
//!
//! * **Extended GQL** ([`parse_query`], §7.1 grammar):
//!   `MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p = (?x)-[(:Knows)*]->(?y)
//!    GROUP BY TARGET ORDER BY PATH`
//!   — with the standard selector form (`MATCH ANY SHORTEST TRAIL …`, §2.3)
//!   accepted alongside.
//! * **Datalog-ish RPQ rules** ([`rpq_surface`]):
//!   `reach(x, y) :- (:Knows)+, trail, any_shortest.`
//! * **Raw JSON IR** ([`QueryIr::from_json_str`]): versioned `query_ir_v1`
//!   documents, round-trippable byte-for-byte via [`QueryIr::to_json_string`].
//!
//! [`parse_surface`] dispatches on a [`QuerySurface`] tag. Because every
//! surface lowers through the same IR and the same plan generator, the same
//! logical query — however it is written — produces structurally equal plans
//! and therefore the same plan-cache key ([`plan_cache_key`]), the same
//! admission decision, and one deduplicated in-flight evaluation.
//!
//! ```
//! use pathalg_parser::{parse_surface, parse_query, QuerySurface};
//!
//! let gql = parse_query(
//!     "MATCH ANY SHORTEST TRAIL p = (?x)-[(:Knows)+]->(?y)",
//! ).unwrap();
//! let rule = parse_surface(
//!     QuerySurface::Rpq,
//!     "reach(x, y) :- (:Knows)+, trail, any_shortest.",
//! ).unwrap();
//! assert_eq!(gql, rule);
//! assert!(gql.to_plan().to_string().starts_with("π(*,*,1)(τA(γST("));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod ir;
pub mod json;
pub(crate) mod lexer;
pub mod normalize;
pub mod parser;
pub mod plan_gen;
pub mod rpq_surface;
pub mod surface;
pub use ir::{lower_to_checked_plan, IrOutput, QueryIr};
pub use json::{parse_json, Json};
pub use normalize::{plan_cache_key, PlanKey};
pub use parser::parse_query;
pub use surface::{parse_surface, parse_to_checked_plan, QuerySurface};
