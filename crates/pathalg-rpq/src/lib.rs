//! # pathalg-rpq — regular path queries
//!
//! Regular path queries (RPQs) are the pattern language underneath GQL and
//! SQL/PGQ path patterns (Section 2.3 of the paper): an expression of the
//! form `(x, regex, y)` where `regex` is a regular expression over edge
//! labels. This crate provides everything the algebra needs to work with
//! them:
//!
//! * [`regex`] — the label-regular-expression AST ([`regex::LabelRegex`]):
//!   labels, concatenation (`/`), alternation (`|`), Kleene star/plus,
//!   optionality, and bounded repetition.
//! * [`parse`] — a parser for the GQL-flavoured surface syntax used in the
//!   paper, e.g. `(:Knows+)|(:Likes/:Has_creator)*`.
//! * [`nfa`] — a Thompson-style construction producing an ε-free
//!   `nfa::Nfa`, plus the word-membership check used for testing.
//! * [`compile`] — translation from a regex to a path-algebra expression
//!   (a [`pathalg_core::expr::PlanExpr`]), the way Figures 2–4 of the paper
//!   turn `Knows+` and `(Likes/Has_creator)*` into σ/⋈/∪/ϕ trees.
//! * [`automaton_eval`] — the classical automaton-product evaluation
//!   (Section 8.2's "automata-based approaches"): a BFS over the product of
//!   the graph and the NFA that returns the witnessing paths. It is the
//!   baseline the engine crate compares the algebraic evaluation against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod automaton_eval;
pub mod compile;
pub mod nfa;
pub mod parse;
pub mod regex;

pub use compile::compile_to_algebra;
pub use parse::parse_regex;
pub use regex::LabelRegex;
