//! The node-property posting index: `(key, value) → nodes`, the access path
//! an anchored endpoint condition such as `first.name = "Moe"` reads instead
//! of evaluating the condition on every node.
//!
//! Each property key has one list of the nodes that carry an `Int` or a
//! `Str` under it, sorted by `(value, id)` with every `Int` before every
//! `Str`: 4 bytes per indexed (node, key) pair. The values are not copied;
//! a lookup is two `partition_point`s that read them in place from the
//! nodes' [`PropertyMap`](crate::property::PropertyMap)s. Nothing is built
//! with the graph: the key set is collected on the first lookup and each
//! key's list on the first lookup of that key, so a workload that never
//! anchors on a property never pays for the index.
//!
//! A lookup answers exactly what `Value::compare(..) == Some(Equal)` decides
//! (the equality of selection conditions), or declines:
//!
//! * a `Str` constant equals only the `Str` values equal to it — always
//!   answered;
//! * an `Int` constant equals the `Int` values equal to it, and also any
//!   `Float` numerically equal to it (`Int(2)` equals `Float(2.0)`, and ints
//!   beyond 2⁵³ compare through `f64`) — answered only when no node carries
//!   a `Float` under the key;
//! * `Null`, `Bool` and `Float` constants are declined.

use crate::graph::NodeData;
use crate::ids::NodeId;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A value the posting lists order: the derived order puts every `Int`
/// before every `Str`, and orders each kind as `Value::compare` does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Indexed<'v> {
    Int(i64),
    Str(&'v str),
}

impl<'v> Indexed<'v> {
    fn of(value: &'v Value) -> Option<Self> {
        match value {
            Value::Int(i) => Some(Indexed::Int(*i)),
            Value::Str(s) => Some(Indexed::Str(s)),
            Value::Null | Value::Bool(_) | Value::Float(_) => None,
        }
    }
}

/// One key's postings.
#[derive(Clone, Debug)]
struct KeyPostings {
    /// The nodes carrying an `Int` or a `Str` under the key, by (value, id).
    nodes: Box<[NodeId]>,
    /// True if some node carries a `Float` under the key, which an `Int`
    /// constant may equal although the list leaves it out.
    has_float: bool,
}

/// The node-property posting index of one graph (see the module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct NodePostings {
    /// Every key some node carries, each with its list, built on first use.
    keys: OnceLock<HashMap<String, OnceLock<KeyPostings>>>,
}

impl NodePostings {
    /// The nodes whose property `key` equals `value` under `Value::compare`,
    /// in id order, or `None` when the index cannot answer that exactly.
    pub(crate) fn lookup<'g>(
        &'g self,
        nodes: &'g [NodeData],
        key: &str,
        value: &Value,
    ) -> Option<&'g [NodeId]> {
        let probe = Indexed::of(value)?;
        let keys = self.keys.get_or_init(|| collect_keys(nodes));
        let Some(cell) = keys.get(key) else {
            // No node carries the key, so no node's value equals `value`.
            return Some(&[]);
        };
        let postings = cell.get_or_init(|| build(nodes, key));
        if matches!(probe, Indexed::Int(_)) && postings.has_float {
            return None;
        }
        let at = |n: NodeId| {
            nodes[n.index()]
                .properties
                .get(key)
                .and_then(Indexed::of)
                .expect("a posting's node carries an Int or a Str under its key")
        };
        let list = &postings.nodes;
        let start = list.partition_point(|&n| at(n) < probe);
        let len = list[start..].partition_point(|&n| at(n) == probe);
        Some(&list[start..start + len])
    }
}

/// Every property key some node carries, each with an unbuilt list.
fn collect_keys(nodes: &[NodeData]) -> HashMap<String, OnceLock<KeyPostings>> {
    let mut keys = HashMap::new();
    for node in nodes {
        for (key, _) in node.properties.iter() {
            if !keys.contains_key(key) {
                keys.insert(key.to_owned(), OnceLock::new());
            }
        }
    }
    keys
}

/// The postings of `key`: one pass over the nodes, one sort.
fn build(nodes: &[NodeData], key: &str) -> KeyPostings {
    let mut has_float = false;
    let mut entries: Vec<(Indexed<'_>, NodeId)> = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        match node.properties.get(key) {
            Some(Value::Float(_)) => has_float = true,
            Some(value) => {
                if let Some(indexed) = Indexed::of(value) {
                    entries.push((indexed, NodeId(i as u32)));
                }
            }
            None => {}
        }
    }
    entries.sort_unstable();
    KeyPostings {
        nodes: entries.into_iter().map(|(_, n)| n).collect(),
        has_float,
    }
}

#[cfg(test)]
mod tests {
    use crate::graph::GraphBuilder;
    use crate::ids::NodeId;
    use crate::value::Value;
    use std::cmp::Ordering;

    /// Every answered lookup is exactly the scan under `Value::compare`, and
    /// only the constants the rule names are declined.
    #[test]
    fn lookups_equal_the_compare_scan_or_decline() {
        let big = (1i64 << 53) + 1;
        let mut b = GraphBuilder::new();
        for v in [
            Value::str("b"),
            Value::Int(2),
            Value::str("a"),
            Value::Int(big),
            Value::Null,
            Value::Bool(true),
            Value::str("b"),
            Value::Int(-1),
        ] {
            b.add_node("N", [("k", v.clone()), ("f", v)]);
        }
        b.add_node("N", [("f", Value::Float(2.0))]);
        b.add_node("N", [("f", Value::Float(f64::NAN))]);
        let g = b.build();
        let scan = |key: &str, value: &Value| -> Vec<NodeId> {
            g.nodes()
                .filter(|&n| {
                    g.property(n, key)
                        .is_some_and(|v| v.compare(value) == Some(Ordering::Equal))
                })
                .collect()
        };
        for value in [
            Value::str("a"),
            Value::str("b"),
            Value::str("c"),
            Value::Int(2),
            Value::Int(big),
            Value::Int(big - 1),
            Value::Int(-1),
        ] {
            let found = g.nodes_with_property_value("k", &value);
            assert_eq!(found, Some(scan("k", &value).as_slice()), "k = {value}");
        }
        // Under `f` a Float lives beside the ints: an Int constant may equal
        // it (Int(2) = Float(2.0)), so Int lookups decline; Str ones do not.
        assert_eq!(g.nodes_with_property_value("f", &Value::Int(2)), None);
        assert_eq!(scan("f", &Value::Int(2)), [NodeId(1), NodeId(8)]);
        let b_nodes = scan("f", &Value::str("b"));
        assert_eq!(
            g.nodes_with_property_value("f", &Value::str("b")),
            Some(b_nodes.as_slice())
        );
        for value in [Value::Null, Value::Bool(true), Value::Float(2.0)] {
            assert_eq!(g.nodes_with_property_value("k", &value), None, "{value}");
        }
        // A key no node carries: answered, empty.
        assert_eq!(
            g.nodes_with_property_value("missing", &Value::str("a")),
            Some(&[][..])
        );
    }
}
