//! The unified multi-surface front door.
//!
//! Three surfaces produce the same [`QueryIr`]:
//!
//! * [`QuerySurface::Gql`] — the extended-GQL grammar of Section 7.1
//!   ([`crate::parse_query`]);
//! * [`QuerySurface::Rpq`] — the datalog-ish rule syntax
//!   (`crate::rpq_surface::parse_rpq`);
//! * [`QuerySurface::Ir`] — raw JSON `query_ir_v1` documents
//!   ([`QueryIr::from_json_str`]).
//!
//! [`parse_surface`] dispatches on the surface tag, and
//! [`parse_to_checked_plan`] chains the one checked lowering
//! ([`crate::ir::lower_to_checked_plan`]) behind it. Because the IR is
//! α-canonical and the lowering deterministic, the same logical query written
//! in any surface yields structurally equal plans — and therefore the same
//! plan-cache key, the same admission decision and one in-flight evaluation.

use crate::error::ParseError;
use crate::ir::{lower_to_checked_plan, QueryIr};
use crate::parser::parse_query;
use crate::rpq_surface::parse_rpq;
use pathalg_core::error::AlgebraError;
use pathalg_core::expr::PlanExpr;
use std::fmt;

/// Which textual surface a query was written in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QuerySurface {
    /// The extended-GQL grammar (`MATCH … = (?x)-[…]->(?y) …`).
    Gql,
    /// The datalog-ish RPQ rule syntax (`reach(x, y) :- :Knows+, trail.`).
    Rpq,
    /// A raw JSON `query_ir_v1` document.
    Ir,
}

impl QuerySurface {
    /// Every surface, in wire-tag order.
    pub const ALL: [QuerySurface; 3] = [QuerySurface::Gql, QuerySurface::Rpq, QuerySurface::Ir];

    /// The wire tag used by the server protocol (`QUERY GQL …`).
    pub fn tag(self) -> &'static str {
        match self {
            QuerySurface::Gql => "GQL",
            QuerySurface::Rpq => "RPQ",
            QuerySurface::Ir => "IR",
        }
    }

    /// Zero-based position of the surface in [`QuerySurface::ALL`] — the
    /// index per-surface metric arrays are keyed by.
    pub fn index(self) -> usize {
        match self {
            QuerySurface::Gql => 0,
            QuerySurface::Rpq => 1,
            QuerySurface::Ir => 2,
        }
    }

    /// Lowercase label used in metric expositions (`surface="gql"`).
    pub fn metric_label(self) -> &'static str {
        match self {
            QuerySurface::Gql => "gql",
            QuerySurface::Rpq => "rpq",
            QuerySurface::Ir => "ir",
        }
    }

    /// Parses a wire tag back into a surface (case-insensitive).
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag.to_ascii_uppercase().as_str() {
            "GQL" => Some(QuerySurface::Gql),
            "RPQ" => Some(QuerySurface::Rpq),
            "IR" => Some(QuerySurface::Ir),
            _ => None,
        }
    }
}

impl fmt::Display for QuerySurface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A parse failure from any surface, tagged with the surface it came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SurfaceError {
    /// The surface whose parser rejected the text.
    pub surface: QuerySurface,
    /// The underlying parse error message (with position where available).
    pub message: String,
}

impl fmt::Display for SurfaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} surface: {}", self.surface, self.message)
    }
}

impl std::error::Error for SurfaceError {}

impl SurfaceError {
    fn new(surface: QuerySurface, message: impl fmt::Display) -> Self {
        Self {
            surface,
            message: message.to_string(),
        }
    }
}

impl From<(QuerySurface, ParseError)> for SurfaceError {
    fn from((surface, e): (QuerySurface, ParseError)) -> Self {
        SurfaceError::new(surface, e)
    }
}

/// Parses `text` under the given surface into the shared [`QueryIr`].
pub fn parse_surface(surface: QuerySurface, text: &str) -> Result<QueryIr, SurfaceError> {
    match surface {
        QuerySurface::Gql => parse_query(text).map_err(|e| SurfaceError::new(surface, e)),
        QuerySurface::Rpq => parse_rpq(text).map_err(|e| SurfaceError::new(surface, e)),
        QuerySurface::Ir => QueryIr::from_json_str(text).map_err(|e| SurfaceError::new(surface, e)),
    }
}

/// Parses `text` under the given surface and lowers it through the one
/// checked pipeline. The error type distinguishes a surface-level parse
/// failure from a typed IR-validation failure.
pub fn parse_to_checked_plan(
    surface: QuerySurface,
    text: &str,
) -> Result<PlanExpr, SurfaceParseOrLowerError> {
    let ir = parse_surface(surface, text).map_err(SurfaceParseOrLowerError::Parse)?;
    lower_to_checked_plan(&ir).map_err(SurfaceParseOrLowerError::Lower)
}

/// Either stage of [`parse_to_checked_plan`] can fail: the surface parser or
/// the checked lowering.
#[derive(Clone, Debug, PartialEq)]
pub enum SurfaceParseOrLowerError {
    /// The surface parser rejected the text.
    Parse(SurfaceError),
    /// The IR failed validation or the plan failed to type-check.
    Lower(AlgebraError),
}

impl fmt::Display for SurfaceParseOrLowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SurfaceParseOrLowerError::Parse(e) => e.fmt(f),
            SurfaceParseOrLowerError::Lower(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SurfaceParseOrLowerError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::plan_cache_key;
    use pathalg_core::ops::recursive::RecursionConfig;

    const GQL: &str =
        "MATCH ANY SHORTEST TRAIL p = (?x {name:\"Moe\"})-[(:Likes/:Has_creator)+]->(?y)";
    const RPQ: &str = "reach(x {name:\"Moe\"}, y) :- (:Likes/:Has_creator)+, trail, any_shortest.";

    fn ir_doc() -> String {
        parse_surface(QuerySurface::Gql, GQL)
            .unwrap()
            .to_json_string()
    }

    #[test]
    fn all_three_surfaces_produce_the_same_ir_and_plan_key() {
        let gql = parse_surface(QuerySurface::Gql, GQL).unwrap();
        let rpq = parse_surface(QuerySurface::Rpq, RPQ).unwrap();
        let ir = parse_surface(QuerySurface::Ir, &ir_doc()).unwrap();
        assert_eq!(gql, rpq);
        assert_eq!(gql, ir);

        let recursion = RecursionConfig::default();
        let keys: Vec<_> = [&gql, &rpq, &ir]
            .iter()
            .map(|q| plan_cache_key(&lower_to_checked_plan(q).unwrap(), &recursion))
            .collect();
        assert_eq!(keys[0], keys[1]);
        assert_eq!(keys[0], keys[2]);
    }

    #[test]
    fn surface_tags_round_trip() {
        for surface in QuerySurface::ALL {
            assert_eq!(QuerySurface::from_tag(surface.tag()), Some(surface));
            assert_eq!(
                QuerySurface::from_tag(&surface.tag().to_lowercase()),
                Some(surface)
            );
        }
        assert_eq!(QuerySurface::from_tag("SQL"), None);
    }

    #[test]
    fn errors_are_tagged_with_their_surface() {
        let e = parse_surface(QuerySurface::Gql, "MASH ALL").unwrap_err();
        assert_eq!(e.surface, QuerySurface::Gql);
        assert!(e.to_string().starts_with("GQL surface:"), "{e}");

        let e = parse_surface(QuerySurface::Rpq, "nope").unwrap_err();
        assert_eq!(e.surface, QuerySurface::Rpq);

        let e = parse_surface(QuerySurface::Ir, "{}").unwrap_err();
        assert_eq!(e.surface, QuerySurface::Ir);
        assert!(e.message.contains("version"), "{e}");
    }

    #[test]
    fn checked_lowering_distinguishes_parse_from_validation_failures() {
        let parse_err = parse_to_checked_plan(QuerySurface::Rpq, "nope").unwrap_err();
        assert!(matches!(parse_err, SurfaceParseOrLowerError::Parse(_)));

        // Structurally valid JSON, semantically invalid IR: selector + group_by.
        let mut ir = parse_surface(QuerySurface::Gql, GQL).unwrap();
        ir.group_by = Some(pathalg_core::ops::group_by::GroupKey::Target);
        let lower_err = parse_to_checked_plan(QuerySurface::Ir, &ir.to_json_string()).unwrap_err();
        assert!(matches!(lower_err, SurfaceParseOrLowerError::Lower(_)));
    }
}
