//! Sets of paths — the carrier of the algebra.
//!
//! Every core and recursive operator takes sets of paths and returns a set of
//! paths; the union operator "eliminates duplicates" (Section 1), so the
//! carrier is a genuine set. [`PathSet`] keeps insertion order (so evaluation
//! is deterministic and plans are easy to debug) while giving O(1) membership
//! checks through an auxiliary hash set, built on the first `insert` or
//! `contains`: a set made of paths already known distinct
//! ([`PathSet::from_distinct`]) and only read in order never hashes one.

use crate::fasthash::{FastBuild, FastSet};
use crate::path::Path;
use pathalg_graph::graph::PropertyGraph;
use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

/// An insertion-ordered, duplicate-free collection of [`Path`]s.
#[derive(Clone, Debug, Default)]
pub struct PathSet {
    paths: Vec<Path>,
    /// Every path of `paths`, once the first `insert` or `contains` needs it.
    index: OnceLock<FastSet<Path>>,
}

impl PathSet {
    /// Creates an empty set of paths.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set with capacity for `n` paths.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            paths: Vec::with_capacity(n),
            index: OnceLock::new(),
        }
    }

    /// The set of `paths`, which the caller knows to be pairwise distinct
    /// (a kernel drain proves it), in their order. No path is hashed until
    /// the set is first probed or extended. Distinctness is checked in
    /// debug builds only.
    pub fn from_distinct(paths: Vec<Path>) -> Self {
        debug_assert!(
            {
                let mut seen = FastSet::default();
                paths.iter().all(|p| seen.insert(p))
            },
            "PathSet::from_distinct given a repeated path"
        );
        Self {
            paths,
            index: OnceLock::new(),
        }
    }

    /// The membership index, built over the paths so far on first use.
    fn index(&self) -> &FastSet<Path> {
        self.index.get_or_init(|| {
            let mut index =
                HashSet::with_capacity_and_hasher(self.paths.capacity(), FastBuild::default());
            index.extend(self.paths.iter().cloned());
            index
        })
    }

    /// The `Nodes(G)` atom: all paths of length zero.
    pub fn nodes(graph: &PropertyGraph) -> Self {
        let mut set = Self::with_capacity(graph.node_count());
        for n in graph.nodes() {
            set.insert(Path::node(n));
        }
        set
    }

    /// The `Edges(G)` atom: all paths of length one.
    pub fn edges(graph: &PropertyGraph) -> Self {
        let mut set = Self::with_capacity(graph.edge_count());
        for e in graph.edges() {
            set.insert(Path::edge(graph, e));
        }
        set
    }

    /// Inserts a path; returns `true` if the path was not already present.
    ///
    /// Single hash per call: `HashSet::insert` already reports membership, so
    /// the index is probed once, and the clone it keeps is a shared-handle
    /// bump, not a copy of the id sequences.
    pub fn insert(&mut self, path: Path) -> bool {
        self.index();
        let index = self.index.get_mut().expect("index() initialised it");
        if index.insert(path.clone()) {
            self.paths.push(path);
            true
        } else {
            false
        }
    }

    /// True if the set contains `path`.
    pub fn contains(&self, path: &Path) -> bool {
        self.index().contains(path)
    }

    /// Number of paths in the set.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True if the set contains no paths.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Iterates over the paths in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Path> {
        self.paths.iter()
    }

    /// The paths as a slice, in insertion order.
    pub fn as_slice(&self) -> &[Path] {
        &self.paths
    }

    /// Consumes the set and returns the paths in insertion order.
    pub fn into_vec(self) -> Vec<Path> {
        self.paths
    }

    /// Extends the set with the paths of an iterator, skipping duplicates.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = Path>) {
        for p in iter {
            self.insert(p);
        }
    }

    /// Returns a new set sorted by `(Len, First, Last, ids)` — a deterministic
    /// canonical order handy for comparing result sets in tests.
    pub fn sorted(&self) -> Vec<Path> {
        let mut v = self.paths.clone();
        v.sort_by(|a, b| {
            a.len()
                .cmp(&b.len())
                .then(a.first().cmp(&b.first()))
                .then(a.last().cmp(&b.last()))
                .then(a.cmp(b))
        });
        v
    }

    /// True if the two sets contain exactly the same paths (order-insensitive).
    pub(crate) fn set_eq(&self, other: &PathSet) -> bool {
        self.len() == other.len() && self.paths.iter().all(|p| other.contains(p))
    }
}

impl FromIterator<Path> for PathSet {
    fn from_iter<I: IntoIterator<Item = Path>>(iter: I) -> Self {
        let mut set = PathSet::new();
        set.extend(iter);
        set
    }
}

impl IntoIterator for PathSet {
    type Item = Path;
    type IntoIter = std::vec::IntoIter<Path>;
    fn into_iter(self) -> Self::IntoIter {
        self.paths.into_iter()
    }
}

impl<'a> IntoIterator for &'a PathSet {
    type Item = &'a Path;
    type IntoIter = std::slice::Iter<'a, Path>;
    fn into_iter(self) -> Self::IntoIter {
        self.paths.iter()
    }
}

impl PartialEq for PathSet {
    fn eq(&self, other: &Self) -> bool {
        self.set_eq(other)
    }
}

impl Eq for PathSet {}

impl fmt::Display for PathSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{ // {} paths", self.len())?;
        for p in &self.paths {
            writeln!(f, "  {}", p.display_ids())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalg_graph::fixtures::figure1::Figure1;

    #[test]
    fn nodes_and_edges_atoms_match_the_graph() {
        let f = Figure1::new();
        let nodes = PathSet::nodes(&f.graph);
        let edges = PathSet::edges(&f.graph);
        assert_eq!(nodes.len(), 7);
        assert_eq!(edges.len(), 11);
        assert!(nodes.iter().all(|p| p.is_empty()));
        assert!(edges.iter().all(|p| p.len() == 1));
        assert!(nodes.contains(&Path::node(f.n3)));
        assert!(edges.contains(&Path::edge(&f.graph, f.e7)));
    }

    #[test]
    fn insert_deduplicates() {
        let f = Figure1::new();
        let mut set = PathSet::new();
        assert!(set.insert(Path::edge(&f.graph, f.e1)));
        assert!(!set.insert(Path::edge(&f.graph, f.e1)));
        assert!(set.insert(Path::node(f.n1)));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn a_set_of_distinct_paths_indexes_itself_on_first_use() {
        let f = Figure1::new();
        let paths = vec![Path::node(f.n3), Path::edge(&f.graph, f.e1)];
        let mut set = PathSet::from_distinct(paths.clone());
        assert_eq!(set.as_slice(), paths.as_slice());
        assert!(set.index.get().is_none(), "nothing hashed before a probe");
        assert!(set.contains(&Path::node(f.n3)));
        assert!(!set.insert(Path::edge(&f.graph, f.e1)));
        assert!(set.insert(Path::node(f.n1)));
        assert_eq!(set.len(), 3);
        let mut extended = PathSet::from_distinct(paths);
        assert!(
            !extended.insert(Path::node(f.n3)),
            "the first insert indexes"
        );
        assert_eq!(extended.len(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "repeated path")]
    fn from_distinct_rejects_a_repeat_in_debug_builds() {
        let f = Figure1::new();
        PathSet::from_distinct(vec![Path::node(f.n1), Path::node(f.n1)]);
    }

    #[test]
    fn insertion_order_is_preserved() {
        let f = Figure1::new();
        let mut set = PathSet::new();
        set.insert(Path::node(f.n3));
        set.insert(Path::node(f.n1));
        set.insert(Path::node(f.n2));
        let order: Vec<_> = set.iter().map(|p| p.first()).collect();
        assert_eq!(order, vec![f.n3, f.n1, f.n2]);
    }

    #[test]
    fn set_equality_ignores_order() {
        let f = Figure1::new();
        let a: PathSet = [Path::node(f.n1), Path::node(f.n2)].into_iter().collect();
        let b: PathSet = [Path::node(f.n2), Path::node(f.n1)].into_iter().collect();
        let c: PathSet = [Path::node(f.n1)].into_iter().collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sorted_orders_by_length_then_endpoints() {
        let f = Figure1::new();
        let long = Path::edge(&f.graph, f.e1)
            .concat(&Path::edge(&f.graph, f.e2))
            .unwrap();
        let set: PathSet = [long.clone(), Path::node(f.n5), Path::edge(&f.graph, f.e1)]
            .into_iter()
            .collect();
        let sorted = set.sorted();
        assert_eq!(sorted[0].len(), 0);
        assert_eq!(sorted[1].len(), 1);
        assert_eq!(sorted[2], long);
    }

    #[test]
    fn empty_set_properties() {
        let set = PathSet::new();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert_eq!(set.sorted(), Vec::<Path>::new());
    }

    #[test]
    fn display_lists_every_path() {
        let f = Figure1::new();
        let set: PathSet = [Path::node(f.n1), Path::edge(&f.graph, f.e1)]
            .into_iter()
            .collect();
        let text = set.to_string();
        assert!(text.contains("2 paths"));
        assert!(text.contains("(n0)"));
    }

    #[test]
    fn into_iterators_work() {
        let f = Figure1::new();
        let set: PathSet = [Path::node(f.n1), Path::node(f.n2)].into_iter().collect();
        let by_ref: Vec<_> = (&set).into_iter().collect();
        assert_eq!(by_ref.len(), 2);
        let owned: Vec<_> = set.into_iter().collect();
        assert_eq!(owned.len(), 2);
    }
}
