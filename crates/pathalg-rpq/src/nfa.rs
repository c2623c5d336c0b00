//! Nondeterministic finite automata over edge labels.
//!
//! The automaton-based RPQ evaluation of Section 8.2 "traverses the graph
//! while tracking the states of an automaton constructed from the regular
//! expression". `Nfa::from_regex` builds that automaton with the classical
//! Thompson construction and immediately eliminates ε-transitions, so the
//! product construction in [`crate::automaton_eval`] only ever deals with
//! labelled transitions.

use crate::regex::LabelRegex;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// A transition symbol: a concrete label or the "any label" wildcard.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum Symbol {
    /// Matches edges with exactly this label.
    Label(String),
    /// Matches any edge regardless of label.
    Any,
}

impl Symbol {
    /// True if an edge label (possibly absent) matches this symbol.
    pub fn matches(&self, edge_label: Option<&str>) -> bool {
        match self {
            Symbol::Any => true,
            Symbol::Label(l) => edge_label == Some(l.as_str()),
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Symbol::Label(l) => write!(f, ":{l}"),
            Symbol::Any => write!(f, ":_"),
        }
    }
}

/// An ε-free nondeterministic finite automaton over edge labels.
#[derive(Clone, Debug)]
pub(crate) struct Nfa {
    /// transitions[s] = list of (symbol, target state).
    transitions: Vec<Vec<(Symbol, usize)>>,
    start: usize,
    accepting: Vec<bool>,
}

/// Intermediate Thompson fragment with ε-transitions.
struct ThompsonNfa {
    transitions: Vec<Vec<(Symbol, usize)>>,
    epsilon: Vec<Vec<usize>>,
}

impl ThompsonNfa {
    fn new() -> Self {
        Self {
            transitions: Vec::new(),
            epsilon: Vec::new(),
        }
    }

    fn add_state(&mut self) -> usize {
        self.transitions.push(Vec::new());
        self.epsilon.push(Vec::new());
        self.transitions.len() - 1
    }

    fn add_edge(&mut self, from: usize, symbol: Symbol, to: usize) {
        self.transitions[from].push((symbol, to));
    }

    fn add_eps(&mut self, from: usize, to: usize) {
        self.epsilon[from].push(to);
    }

    /// Builds the fragment for `re`, returning its (start, accept) states.
    fn build(&mut self, re: &LabelRegex) -> (usize, usize) {
        match re {
            LabelRegex::Epsilon => {
                let s = self.add_state();
                let t = self.add_state();
                self.add_eps(s, t);
                (s, t)
            }
            LabelRegex::Label(l) => {
                let s = self.add_state();
                let t = self.add_state();
                self.add_edge(s, Symbol::Label(l.clone()), t);
                (s, t)
            }
            LabelRegex::AnyLabel => {
                let s = self.add_state();
                let t = self.add_state();
                self.add_edge(s, Symbol::Any, t);
                (s, t)
            }
            LabelRegex::Concat(a, b) => {
                let (sa, ta) = self.build(a);
                let (sb, tb) = self.build(b);
                self.add_eps(ta, sb);
                (sa, tb)
            }
            LabelRegex::Alt(a, b) => {
                let s = self.add_state();
                let t = self.add_state();
                let (sa, ta) = self.build(a);
                let (sb, tb) = self.build(b);
                self.add_eps(s, sa);
                self.add_eps(s, sb);
                self.add_eps(ta, t);
                self.add_eps(tb, t);
                (s, t)
            }
            LabelRegex::Star(a) => {
                let s = self.add_state();
                let t = self.add_state();
                let (sa, ta) = self.build(a);
                self.add_eps(s, sa);
                self.add_eps(s, t);
                self.add_eps(ta, sa);
                self.add_eps(ta, t);
                (s, t)
            }
            LabelRegex::Plus(a) => {
                let (sa, ta) = self.build(a);
                let t = self.add_state();
                self.add_eps(ta, sa);
                self.add_eps(ta, t);
                (sa, t)
            }
            LabelRegex::Optional(a) => {
                let s = self.add_state();
                let t = self.add_state();
                let (sa, ta) = self.build(a);
                self.add_eps(s, sa);
                self.add_eps(s, t);
                self.add_eps(ta, t);
                (s, t)
            }
            LabelRegex::Repeat { inner, min, max } => {
                // Expand bounded repetition by unrolling: min mandatory copies
                // followed by (max - min) optional copies, or a star if open.
                let mut expanded = if *min == 0 {
                    LabelRegex::Epsilon
                } else {
                    let mut e = (**inner).clone();
                    for _ in 1..*min {
                        e = e.then((**inner).clone());
                    }
                    e
                };
                match max {
                    None => {
                        expanded = expanded.then((**inner).clone().star());
                    }
                    Some(m) => {
                        for _ in *min..*m {
                            expanded = expanded.then((**inner).clone().optional());
                        }
                    }
                }
                self.build(&expanded)
            }
        }
    }

    fn epsilon_closure(&self, states: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut closure = states.clone();
        let mut queue: VecDeque<usize> = states.iter().copied().collect();
        while let Some(s) = queue.pop_front() {
            for &t in &self.epsilon[s] {
                if closure.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        closure
    }
}

impl Nfa {
    /// Builds an ε-free NFA recognising the language of `re`.
    pub(crate) fn from_regex(re: &LabelRegex) -> Self {
        let mut thompson = ThompsonNfa::new();
        let (start, accept) = thompson.build(re);

        // Eliminate ε-transitions: state s gets the labelled transitions of
        // every state in its ε-closure, and is accepting if its closure
        // contains the accept state.
        let n = thompson.transitions.len();
        let mut transitions = vec![Vec::new(); n];
        let mut accepting = vec![false; n];
        for s in 0..n {
            let closure = thompson.epsilon_closure(&BTreeSet::from([s]));
            if closure.contains(&accept) {
                accepting[s] = true;
            }
            for &c in &closure {
                for (sym, t) in &thompson.transitions[c] {
                    let entry = (sym.clone(), *t);
                    if !transitions[s].contains(&entry) {
                        transitions[s].push(entry);
                    }
                }
            }
        }

        Self {
            transitions,
            start,
            accepting,
        }
    }

    /// Number of states.
    pub(crate) fn state_count(&self) -> usize {
        self.transitions.len()
    }

    /// The start state.
    pub fn start(&self) -> usize {
        self.start
    }

    /// True if `state` is accepting.
    pub(crate) fn is_accepting(&self, state: usize) -> bool {
        self.accepting[state]
    }

    /// The outgoing transitions of `state`.
    pub(crate) fn transitions_from(&self, state: usize) -> &[(Symbol, usize)] {
        &self.transitions[state]
    }

    /// The successor states of `state` for an edge carrying `label`.
    pub fn step(&self, state: usize, label: Option<&str>) -> Vec<usize> {
        self.transitions[state]
            .iter()
            .filter(|(sym, _)| sym.matches(label))
            .map(|&(_, t)| t)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_regex;

    fn nfa(s: &str) -> Nfa {
        Nfa::from_regex(&parse_regex(s).unwrap())
    }

    /// True if the automaton accepts the given word of labels.
    fn accepts(nfa: &Nfa, word: &[&str]) -> bool {
        let mut current: BTreeSet<usize> = BTreeSet::from([nfa.start]);
        for &label in word {
            let mut next = BTreeSet::new();
            for &s in &current {
                for t in nfa.step(s, Some(label)) {
                    next.insert(t);
                }
            }
            if next.is_empty() {
                return false;
            }
            current = next;
        }
        current.iter().any(|&s| nfa.accepting[s])
    }

    #[test]
    fn accepts_agrees_with_direct_matching_on_paper_expressions() {
        let patterns = [
            ":Knows+",
            "(:Knows+)|(:Likes/:Has_creator)*",
            "Knows|(Knows/Knows)",
            "(:Likes/:Has_creator)+",
            "a{2,3}",
            "a?/b*",
        ];
        let words: Vec<Vec<&str>> = vec![
            vec![],
            vec!["Knows"],
            vec!["Knows", "Knows"],
            vec!["Likes"],
            vec!["Likes", "Has_creator"],
            vec!["Likes", "Has_creator", "Likes", "Has_creator"],
            vec!["Knows", "Likes", "Has_creator"],
            vec!["a"],
            vec!["a", "a"],
            vec!["a", "a", "a"],
            vec!["a", "a", "a", "a"],
            vec!["a", "b"],
            vec!["b", "b", "b"],
        ];
        for pattern in patterns {
            let re = parse_regex(pattern).unwrap();
            let nfa = Nfa::from_regex(&re);
            for word in &words {
                assert_eq!(
                    accepts(&nfa, word),
                    re.matches(word),
                    "pattern {pattern} word {word:?}"
                );
            }
        }
    }

    #[test]
    fn knows_plus_requires_at_least_one_edge() {
        let a = nfa(":Knows+");
        assert!(!accepts(&a, &[]));
        assert!(accepts(&a, &["Knows"]));
        assert!(accepts(&a, &["Knows", "Knows", "Knows"]));
        assert!(!accepts(&a, &["Likes"]));
        assert!(!accepts(&a, &["Knows", "Likes"]));
    }

    #[test]
    fn star_accepts_empty_word() {
        let a = nfa("(:Likes/:Has_creator)*");
        assert!(accepts(&a, &[]));
        assert!(accepts(&a, &["Likes", "Has_creator"]));
        assert!(!accepts(&a, &["Likes"]));
        assert!(!accepts(&a, &["Has_creator", "Likes"]));
    }

    #[test]
    fn any_label_wildcard() {
        let a = nfa(":_+");
        assert!(accepts(&a, &["Knows"]));
        assert!(accepts(&a, &["whatever", "other"]));
        assert!(!accepts(&a, &[]));
        assert!(Symbol::Any.matches(None));
        assert!(Symbol::Any.matches(Some("x")));
        assert!(Symbol::Label("x".into()).matches(Some("x")));
        assert!(!Symbol::Label("x".into()).matches(Some("y")));
        assert!(!Symbol::Label("x".into()).matches(None));
    }

    #[test]
    fn step_and_accessors() {
        let a = nfa(":Knows");
        assert!(a.state_count() >= 2);
        let start = a.start();
        assert!(!a.is_accepting(start));
        let next = a.step(start, Some("Knows"));
        assert_eq!(next.len(), 1);
        assert!(a.is_accepting(next[0]));
        assert!(a.step(start, Some("Likes")).is_empty());
        assert!(a.step(start, None).is_empty());
        assert!(!a.transitions_from(start).is_empty());
    }

    #[test]
    fn alphabet_lists_distinct_symbols() {
        let a = nfa("(:Knows+)|(:Likes/:Has_creator)*");
        let mut alphabet: Vec<Symbol> = (0..a.state_count())
            .flat_map(|s| a.transitions_from(s).iter().map(|(sym, _)| sym.clone()))
            .collect();
        alphabet.sort();
        alphabet.dedup();
        assert_eq!(alphabet.len(), 3);
        assert!(alphabet.contains(&Symbol::Label("Knows".into())));
        assert!(alphabet.contains(&Symbol::Label("Likes".into())));
        assert!(alphabet.contains(&Symbol::Label("Has_creator".into())));
        assert_eq!(Symbol::Label("Knows".into()).to_string(), ":Knows");
        assert_eq!(Symbol::Any.to_string(), ":_");
    }

    #[test]
    fn epsilon_regex_accepts_only_the_empty_word() {
        let a = Nfa::from_regex(&crate::regex::LabelRegex::Epsilon);
        assert!(accepts(&a, &[]));
        assert!(!accepts(&a, &["x"]));
    }

    #[test]
    fn bounded_repetition_is_unrolled_correctly() {
        let a = nfa("a{2,4}");
        assert!(!accepts(&a, &["a"]));
        assert!(accepts(&a, &["a", "a"]));
        assert!(accepts(&a, &["a", "a", "a", "a"]));
        assert!(!accepts(&a, &["a", "a", "a", "a", "a"]));
        let a = nfa("a{0,2}");
        assert!(accepts(&a, &[]));
        assert!(accepts(&a, &["a", "a"]));
        assert!(!accepts(&a, &["a", "a", "a"]));
        let a = nfa("a{3,}");
        assert!(!accepts(&a, &["a", "a"]));
        assert!(accepts(&a, &["a", "a", "a", "a", "a", "a"]));
    }
}
