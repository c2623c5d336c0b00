//! Errors produced while building or evaluating algebra expressions.

use std::fmt;

/// Errors raised by the algebra operators and the plan evaluator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlgebraError {
    /// Two paths were concatenated whose endpoints do not meet
    /// (`Last(p1) ≠ First(p2)`).
    ConcatenationMismatch {
        /// Last node of the left path.
        left_last: String,
        /// First node of the right path.
        right_first: String,
    },
    /// A path referenced a node or edge that does not belong to the graph, or
    /// whose endpoints do not line up with ρ.
    InvalidPath(String),
    /// The recursive operator under Walk semantics did not reach a fixpoint
    /// within the configured bound (the "unsolvability" the paper notes for
    /// cyclic graphs).
    RecursionLimitExceeded {
        /// The configured iteration / length bound.
        bound: usize,
        /// Number of paths accumulated when the bound was hit.
        paths_so_far: usize,
    },
    /// The evaluator exceeded the configured cap on intermediate result size.
    ResultLimitExceeded {
        /// The configured cap.
        limit: usize,
    },
    /// An operator received an input of the wrong kind, e.g. an order-by
    /// applied directly to a set of paths instead of a solution space.
    TypeMismatch {
        /// The operator that failed.
        operator: &'static str,
        /// What the operator expected.
        expected: &'static str,
        /// What it received.
        found: &'static str,
    },
    /// A selection condition referenced a position outside the path
    /// (e.g. `edge(3)` on a path of length 1). Conditions evaluate to false in
    /// that case; this error is only produced by strict validation helpers.
    PositionOutOfRange {
        /// The 1-based position referenced.
        position: usize,
        /// The length of the path.
        path_len: usize,
    },
    /// Generic invalid-argument error (e.g. `k = 0` for a `SHORTEST k` selector).
    InvalidArgument(String),
    /// A query IR failed validation while lowering to a plan — the typed
    /// rejection the unified front-end raises for any surface (GQL, the RPQ
    /// surface, raw JSON IR) whose lowered plan is structurally unsound.
    IrValidation {
        /// The IR field (or lowering stage) that failed, e.g. `"output"` or
        /// `"plan"`.
        field: &'static str,
        /// What was wrong with it.
        message: String,
    },
    /// The evaluation's deadline passed before enumeration finished. Raised
    /// cooperatively at the [`crate::budget::CancelToken`] check sites, so
    /// the error surfaces within one enumeration level / source of the
    /// deadline firing.
    DeadlineExceeded,
    /// The evaluation was cancelled via [`crate::budget::CancelToken`]
    /// before enumeration finished.
    Cancelled,
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::ConcatenationMismatch {
                left_last,
                right_first,
            } => write!(
                f,
                "cannot concatenate paths: last node {left_last} does not match first node {right_first}"
            ),
            AlgebraError::InvalidPath(msg) => write!(f, "invalid path: {msg}"),
            AlgebraError::RecursionLimitExceeded { bound, paths_so_far } => write!(
                f,
                "recursive operator did not converge within bound {bound} ({paths_so_far} paths accumulated); \
                 use a restricted semantics (trail/acyclic/simple/shortest) or raise the walk bound"
            ),
            AlgebraError::ResultLimitExceeded { limit } => {
                write!(f, "intermediate result exceeded the configured limit of {limit} paths")
            }
            AlgebraError::TypeMismatch {
                operator,
                expected,
                found,
            } => write!(f, "{operator} expected {expected} but received {found}"),
            AlgebraError::PositionOutOfRange { position, path_len } => write!(
                f,
                "position {position} is out of range for a path of length {path_len}"
            ),
            AlgebraError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            AlgebraError::IrValidation { field, message } => {
                write!(f, "invalid query IR at {field}: {message}")
            }
            AlgebraError::DeadlineExceeded => {
                write!(f, "deadline exceeded before evaluation finished")
            }
            AlgebraError::Cancelled => write!(f, "evaluation cancelled"),
        }
    }
}

impl std::error::Error for AlgebraError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_useful_messages() {
        let e = AlgebraError::RecursionLimitExceeded {
            bound: 10,
            paths_so_far: 123,
        };
        let msg = e.to_string();
        assert!(msg.contains("bound 10"));
        assert!(msg.contains("123"));

        let e = AlgebraError::TypeMismatch {
            operator: "order-by",
            expected: "a solution space",
            found: "a set of paths",
        };
        assert!(e.to_string().contains("order-by"));

        let e = AlgebraError::ConcatenationMismatch {
            left_last: "n2".into(),
            right_first: "n5".into(),
        };
        assert!(e.to_string().contains("n2"));
        assert!(e.to_string().contains("n5"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_e: &E) {}
        assert_err(&AlgebraError::InvalidArgument("k must be positive".into()));
    }
}
