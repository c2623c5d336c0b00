//! # pathalg-server — a long-lived query service over the path algebra
//!
//! Every other crate in this workspace is a library a caller drives one
//! query at a time: each run re-parses, re-plans, and re-derives strategy
//! decisions. This crate is the serving layer that makes the paper's algebra
//! answer *concurrent* traffic against one shared graph (DESIGN.md §11):
//!
//! * **One plan stage** — the service owns an `Arc`-shared, immutable
//!   [`PropertyGraph`](pathalg_graph::graph::PropertyGraph) and the engine's
//!   [`Planner`](pathalg_engine::runner::Planner) over it, the plan stage
//!   `QueryRunner` uses too; the graph's statistics are computed once, and
//!   an epoch bump only purges cached plans.
//! * **Plan cache** — a bounded LRU keyed by (normalised plan fingerprint,
//!   epoch) stores the optimized plan and its closure estimates, so repeat
//!   queries skip parse and plan entirely ([`cache`]).
//! * **In-flight deduplication** — a wait-map coalesces concurrent identical
//!   queries: one leader evaluates and renders the answer's wire bytes once,
//!   all waiters share the `Arc`-ed outcome ([`service`]).
//! * **Admission control** — per-request quotas tighten the recursion
//!   bounds, and the §9 closure estimator rejects predicted blow-ups with a
//!   typed [`AdmissionError`] before any enumeration starts ([`error`]).
//! * **Typed wire protocol** — requests and responses are typed
//!   ([`Request`] / [`Response`]); the line-oriented text form exists only
//!   at the socket boundary. `QUERY` lines carry an optional surface tag
//!   (`GQL`, `RPQ`, `IR` — see [`pathalg_parser::QuerySurface`]), and every
//!   surface funnels through the same checked IR lowering, so the same
//!   logical query shares one cached plan and one in-flight evaluation no
//!   matter how it was written ([`protocol`]); `repro serve` wires it to a
//!   CLI.
//!
//! ```
//! use pathalg_server::{QueryService, CacheStatus};
//! use pathalg_graph::fixtures::figure1::figure1_graph;
//! use std::sync::Arc;
//!
//! let service = QueryService::with_defaults(Arc::new(figure1_graph()));
//! let cold = service.submit("MATCH ANY SHORTEST TRAIL p = (?x)-[(:Knows)+]->(?y)").unwrap();
//! let warm = service.submit("MATCH ANY SHORTEST TRAIL p = (?x)-[(:Knows)+]->(?y)").unwrap();
//! assert_eq!(cold.cache, CacheStatus::Miss);
//! assert_eq!(warm.cache, CacheStatus::Hit);
//! assert_eq!(cold.outcome.canonical_lines(), warm.outcome.canonical_lines());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod metrics;
pub mod protocol;
pub mod service;
pub mod trace;
pub use error::{AdmissionError, ServiceError};
pub use metrics::{Metrics, MetricsSnapshot};
pub use protocol::{
    handle_line, serve, Client, PathLines, QueryReply, Request, Response, ServerHandle,
};
pub use service::{CacheStatus, DedupRole, FailAction, QueryService, ServiceConfig};
