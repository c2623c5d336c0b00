//! Regular expressions over edge labels.
//!
//! The grammar corresponds to the path-pattern fragment the paper uses:
//! single labels, concatenation (`/` in GQL syntax), alternation (`|`),
//! Kleene star (`*`), Kleene plus (`+`), optionality (`?`) and bounded
//! repetition (`{m,n}` — provided because real GQL supports quantifiers and
//! it falls out naturally).

use std::fmt;

/// A regular expression over edge labels.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum LabelRegex {
    /// Matches the empty word (a path of length zero).
    Epsilon,
    /// Matches a single edge carrying the given label.
    Label(String),
    /// Matches a single edge carrying *any* label (GQL's `-[]->`).
    AnyLabel,
    /// Concatenation `a / b`.
    Concat(Box<LabelRegex>, Box<LabelRegex>),
    /// Alternation `a | b`.
    Alt(Box<LabelRegex>, Box<LabelRegex>),
    /// Kleene star `a*` (zero or more).
    Star(Box<LabelRegex>),
    /// Kleene plus `a+` (one or more).
    Plus(Box<LabelRegex>),
    /// Optional `a?` (zero or one).
    Optional(Box<LabelRegex>),
    /// Bounded repetition `a{min,max}`.
    Repeat {
        /// The repeated expression.
        inner: Box<LabelRegex>,
        /// Minimum number of repetitions.
        min: usize,
        /// Maximum number of repetitions (`None` = unbounded).
        max: Option<usize>,
    },
}

impl LabelRegex {
    /// A single label.
    pub fn label(l: impl Into<String>) -> Self {
        LabelRegex::Label(l.into())
    }

    /// `self / other`.
    pub fn then(self, other: LabelRegex) -> Self {
        LabelRegex::Concat(Box::new(self), Box::new(other))
    }

    /// `self | other`.
    pub fn or(self, other: LabelRegex) -> Self {
        LabelRegex::Alt(Box::new(self), Box::new(other))
    }

    /// `self*`.
    pub fn star(self) -> Self {
        LabelRegex::Star(Box::new(self))
    }

    /// `self+`.
    pub fn plus(self) -> Self {
        LabelRegex::Plus(Box::new(self))
    }

    /// `self?`.
    pub fn optional(self) -> Self {
        LabelRegex::Optional(Box::new(self))
    }

    /// `self{min,max}`.
    pub fn repeat(self, min: usize, max: Option<usize>) -> Self {
        LabelRegex::Repeat {
            inner: Box::new(self),
            min,
            max,
        }
    }

    /// True if the expression can match the empty word (a zero-length path).
    pub(crate) fn is_nullable(&self) -> bool {
        match self {
            LabelRegex::Epsilon => true,
            LabelRegex::Label(_) | LabelRegex::AnyLabel => false,
            LabelRegex::Concat(a, b) => a.is_nullable() && b.is_nullable(),
            LabelRegex::Alt(a, b) => a.is_nullable() || b.is_nullable(),
            LabelRegex::Star(_) | LabelRegex::Optional(_) => true,
            LabelRegex::Plus(a) => a.is_nullable(),
            LabelRegex::Repeat { inner, min, .. } => *min == 0 || inner.is_nullable(),
        }
    }

    /// True if a word (sequence of labels) belongs to the language of the
    /// expression. Implemented directly on the syntax tree (no automaton);
    /// used as a test oracle for the NFA construction and the
    /// automaton-product evaluation.
    #[cfg(test)]
    pub fn matches(&self, word: &[&str]) -> bool {
        match self {
            LabelRegex::Epsilon => word.is_empty(),
            LabelRegex::Label(l) => word.len() == 1 && word[0] == l,
            LabelRegex::AnyLabel => word.len() == 1,
            LabelRegex::Concat(a, b) => {
                (0..=word.len()).any(|i| a.matches(&word[..i]) && b.matches(&word[i..]))
            }
            LabelRegex::Alt(a, b) => a.matches(word) || b.matches(word),
            LabelRegex::Star(a) => {
                if word.is_empty() {
                    return true;
                }
                // Try every non-empty prefix matched by `a`, recurse on the rest.
                (1..=word.len()).any(|i| a.matches(&word[..i]) && self.matches(&word[i..]))
            }
            LabelRegex::Plus(a) => (1..=word.len()).any(|i| {
                a.matches(&word[..i])
                    && (word.len() == i || LabelRegex::Star(a.clone()).matches(&word[i..]))
            }),
            LabelRegex::Optional(a) => word.is_empty() || a.matches(word),
            LabelRegex::Repeat { inner, min, max } => {
                fn rec(
                    inner: &LabelRegex,
                    word: &[&str],
                    done: usize,
                    min: usize,
                    max: Option<usize>,
                ) -> bool {
                    if word.is_empty() {
                        return done >= min;
                    }
                    if let Some(m) = max {
                        if done >= m {
                            return false;
                        }
                    }
                    (1..=word.len()).any(|i| {
                        inner.matches(&word[..i]) && rec(inner, &word[i..], done + 1, min, max)
                    }) || (done >= min && word.is_empty())
                }
                if word.is_empty() {
                    *min == 0 || inner.is_nullable()
                } else {
                    rec(inner, word, 0, *min, *max)
                }
            }
        }
    }
}

impl fmt::Display for LabelRegex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelRegex::Epsilon => write!(f, "ε"),
            LabelRegex::Label(l) => write!(f, ":{l}"),
            LabelRegex::AnyLabel => write!(f, ":_"),
            LabelRegex::Concat(a, b) => write!(f, "({a}/{b})"),
            LabelRegex::Alt(a, b) => write!(f, "({a}|{b})"),
            LabelRegex::Star(a) => write!(f, "({a})*"),
            LabelRegex::Plus(a) => write!(f, "({a})+"),
            LabelRegex::Optional(a) => write!(f, "({a})?"),
            LabelRegex::Repeat { inner, min, max } => match max {
                Some(m) => write!(f, "({inner}){{{min},{m}}}"),
                None => write!(f, "({inner}){{{min},}}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knows_or_outer() -> LabelRegex {
        // (:Knows+)|(:Likes/:Has_creator)*
        LabelRegex::label("Knows")
            .plus()
            .or(LabelRegex::label("Likes")
                .then(LabelRegex::label("Has_creator"))
                .star())
    }

    #[test]
    fn builders_and_display() {
        let re = knows_or_outer();
        assert_eq!(re.to_string(), "((:Knows)+|((:Likes/:Has_creator))*)");
    }

    #[test]
    fn nullability() {
        assert!(LabelRegex::Epsilon.is_nullable());
        assert!(!LabelRegex::label("Knows").is_nullable());
        assert!(LabelRegex::label("Knows").star().is_nullable());
        assert!(!LabelRegex::label("Knows").plus().is_nullable());
        assert!(LabelRegex::label("Knows").optional().is_nullable());
        assert!(knows_or_outer().is_nullable()); // the star side is nullable
        assert!(LabelRegex::label("a").repeat(0, Some(3)).is_nullable());
        assert!(!LabelRegex::label("a").repeat(1, Some(3)).is_nullable());
        assert!(!LabelRegex::label("a")
            .then(LabelRegex::label("b"))
            .is_nullable());
    }

    #[test]
    fn direct_matching_single_labels_and_concat() {
        let re = LabelRegex::label("Likes").then(LabelRegex::label("Has_creator"));
        assert!(re.matches(&["Likes", "Has_creator"]));
        assert!(!re.matches(&["Likes"]));
        assert!(!re.matches(&["Has_creator", "Likes"]));
        assert!(!re.matches(&[]));
        assert!(LabelRegex::AnyLabel.matches(&["anything"]));
        assert!(!LabelRegex::AnyLabel.matches(&[]));
    }

    #[test]
    fn direct_matching_kleene_operators() {
        let knows_plus = LabelRegex::label("Knows").plus();
        assert!(!knows_plus.matches(&[]));
        assert!(knows_plus.matches(&["Knows"]));
        assert!(knows_plus.matches(&["Knows", "Knows", "Knows"]));
        assert!(!knows_plus.matches(&["Knows", "Likes"]));

        let outer_star = LabelRegex::label("Likes")
            .then(LabelRegex::label("Has_creator"))
            .star();
        assert!(outer_star.matches(&[]));
        assert!(outer_star.matches(&["Likes", "Has_creator"]));
        assert!(outer_star.matches(&["Likes", "Has_creator", "Likes", "Has_creator"]));
        assert!(!outer_star.matches(&["Likes"]));
        assert!(!outer_star.matches(&["Likes", "Likes"]));
    }

    #[test]
    fn direct_matching_alternation_and_optional() {
        let re = knows_or_outer();
        assert!(re.matches(&["Knows"]));
        assert!(re.matches(&["Knows", "Knows"]));
        assert!(re.matches(&["Likes", "Has_creator"]));
        assert!(re.matches(&[])); // via the starred branch
        assert!(!re.matches(&["Knows", "Likes", "Has_creator"]));

        let opt = LabelRegex::label("a").optional();
        assert!(opt.matches(&[]));
        assert!(opt.matches(&["a"]));
        assert!(!opt.matches(&["a", "a"]));
    }

    #[test]
    fn direct_matching_bounded_repetition() {
        let re = LabelRegex::label("a").repeat(2, Some(3));
        assert!(!re.matches(&[]));
        assert!(!re.matches(&["a"]));
        assert!(re.matches(&["a", "a"]));
        assert!(re.matches(&["a", "a", "a"]));
        assert!(!re.matches(&["a", "a", "a", "a"]));

        let open = LabelRegex::label("a").repeat(2, None);
        assert!(open.matches(&["a", "a", "a", "a", "a"]));
        assert!(!open.matches(&["a"]));
    }
}
