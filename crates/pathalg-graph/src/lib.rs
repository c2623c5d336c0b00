//! # pathalg-graph — the property-graph substrate
//!
//! This crate implements the property-graph data model of Definition 2.1 of
//! *Path-based Algebraic Foundations of Graph Query Languages* (Angles,
//! Bonifati, García, Vrgoč — EDBT 2025), together with everything the path
//! algebra needs from the storage layer:
//!
//! * [`ids`] — strongly-typed node / edge / object identifiers.
//! * [`value`] — property values (the set `V` of the paper) and the
//!   comparison selection conditions use.
//! * [`property`] — property maps (the partial function ν).
//! * [`graph`] — the [`graph::PropertyGraph`] itself (`N`, `E`, ρ, λ, ν`), its
//!   builder, and lookup accessors.
//! * [`csr`] — Compressed-Sparse-Row adjacency (the representation Oracle
//!   PGX uses), the graph's one adjacency format: every graph holds one CSR
//!   per edge label, built once, and together they hold every edge.
//! * `posting` — the node-property posting index behind
//!   [`graph::PropertyGraph::nodes_with_property_value`], built per key on
//!   first use.
//! * [`stats`] — label-frequency and degree statistics feeding the optimizer's
//!   cost model.
//! * [`generator`] — deterministic synthetic graph generators (LDBC-SNB-shaped,
//!   Erdős–Rényi labelled, cycles, chains, grids) used by tests and benches.
//! * [`fixtures`] — the exact graph of the paper's Figure 1.
//!
//! The crate has no knowledge of paths or the algebra; that lives in
//! `pathalg-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod fixtures;
#[cfg(feature = "generators")]
pub mod generator;
pub mod graph;
pub mod ids;
mod posting;
pub mod property;
pub mod stats;
pub mod value;

pub use graph::{GraphBuilder, PropertyGraph};
pub use ids::{EdgeId, NodeId, ObjectId};
pub use value::Value;
