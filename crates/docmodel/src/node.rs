//! Schema-free document trees.
//!
//! A [`Node`] is either a scalar [`Value`], a sequence of nodes, or an
//! ordered map from field names to nodes. Maps use `BTreeMap` so that the
//! set of paths and the binary encoding of a document are deterministic —
//! which the storage codec, indexes, and tests all rely on.

use std::collections::BTreeMap;

use crate::path::{Path, PathStep};
use crate::value::Value;

/// One node of a document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A scalar leaf.
    Value(Value),
    /// An ordered sequence (JSON array, repeated XML element, list column).
    Seq(Vec<Node>),
    /// An ordered map (JSON object, relational row, e-mail headers).
    Map(BTreeMap<String, Node>),
}

impl Node {
    /// An empty map node, the usual starting point for builders.
    pub fn empty_map() -> Node {
        Node::Map(BTreeMap::new())
    }

    /// Wrap a scalar.
    pub fn scalar(v: impl Into<Value>) -> Node {
        Node::Value(v.into())
    }

    /// Build a map node from `(name, node)` pairs.
    pub fn map<I: IntoIterator<Item = (String, Node)>>(fields: I) -> Node {
        Node::Map(fields.into_iter().collect())
    }

    /// Build a sequence node.
    pub fn seq<I: IntoIterator<Item = Node>>(items: I) -> Node {
        Node::Seq(items.into_iter().collect())
    }

    /// The scalar at this node, if it is a leaf.
    pub fn as_value(&self) -> Option<&Value> {
        match self {
            Node::Value(v) => Some(v),
            _ => None,
        }
    }

    /// The map at this node, if it is a map.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Node>> {
        match self {
            Node::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The sequence at this node, if it is a sequence.
    pub fn as_seq(&self) -> Option<&[Node]> {
        match self {
            Node::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Resolve a [`Path`] from this node. Returns `None` if any step is
    /// missing or of the wrong kind.
    pub fn get(&self, path: &Path) -> Option<&Node> {
        let mut cur = self;
        for step in path.steps() {
            match (cur, step) {
                (Node::Map(m), PathStep::Field(name)) => cur = m.get(name)?,
                (Node::Seq(s), PathStep::Index(i)) => cur = s.get(*i)?,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// Convenience: resolve a dotted path string like `"claim.vehicle.make"`.
    pub fn get_str_path(&self, dotted: &str) -> Option<&Node> {
        self.get(&Path::parse(dotted))
    }

    /// Insert (or overwrite) `node` at `path`, creating intermediate maps
    /// and extending sequences with `Null` as needed. Used by builders and
    /// by the annotation engine when deriving new annotation documents.
    pub fn set(&mut self, path: &Path, node: Node) {
        fn set_rec(cur: &mut Node, steps: &[PathStep], node: Node) {
            match steps.split_first() {
                None => *cur = node,
                Some((PathStep::Field(name), rest)) => {
                    if !matches!(cur, Node::Map(_)) {
                        *cur = Node::empty_map();
                    }
                    if let Node::Map(m) = cur {
                        let child = m
                            .entry(name.clone())
                            .or_insert_with(|| Node::Value(Value::Null));
                        set_rec(child, rest, node);
                    }
                }
                Some((PathStep::Index(i), rest)) => {
                    if !matches!(cur, Node::Seq(_)) {
                        *cur = Node::Seq(Vec::new());
                    }
                    if let Node::Seq(s) = cur {
                        while s.len() <= *i {
                            s.push(Node::Value(Value::Null));
                        }
                        set_rec(&mut s[*i], rest, node);
                    }
                }
            }
        }
        set_rec(self, path.steps(), node);
    }

    /// Enumerate every `(path, value)` leaf pair in the subtree, in
    /// deterministic order. This is the primitive behind the paper's
    /// "indexes each document by its values as well as its structures
    /// (e.g., every path in the document)".
    pub fn leaves(&self) -> Vec<(Path, &Value)> {
        let mut out = Vec::new();
        let mut stack = vec![(Path::root(), self)];
        while let Some((path, node)) = stack.pop() {
            match node {
                Node::Value(v) => out.push((path, v)),
                Node::Seq(s) => {
                    for (i, child) in s.iter().enumerate().rev() {
                        stack.push((path.child_index(i), child));
                    }
                }
                Node::Map(m) => {
                    for (k, child) in m.iter().rev() {
                        stack.push((path.child_field(k), child));
                    }
                }
            }
        }
        out
    }

    /// The leaf values whose path's [`Path::structural_form`] is exactly
    /// `structural`, in [`Node::leaves`] order: `leaves()` filtered on the
    /// structural form, without building a `Path` or a `String` per leaf.
    /// Only the branches whose rendering so far is a prefix of
    /// `structural` are walked, and map keys holding `.`, `[` or `]`
    /// resolve exactly as their rendering reads.
    pub fn values_at<'a>(&'a self, structural: &'a str) -> impl Iterator<Item = &'a Value> + 'a {
        ValuesAt {
            pattern: structural,
            next: Some((self, 0)),
            pending: Vec::new(),
        }
    }

    /// Enumerate every distinct structural path (field steps only, sequence
    /// indexes collapsed to `[]`), used by the path index and the schema
    /// mapper. Returned sorted and de-duplicated.
    pub fn structure_paths(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .leaves()
            .into_iter()
            .map(|(p, _)| p.structural_form())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Total number of scalar leaves in the subtree.
    pub fn leaf_count(&self) -> usize {
        match self {
            Node::Value(_) => 1,
            Node::Seq(s) => s.iter().map(Node::leaf_count).sum(),
            Node::Map(m) => m.values().map(Node::leaf_count).sum(),
        }
    }

    /// Maximum depth of the subtree (a lone scalar has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Node::Value(_) => 1,
            Node::Seq(s) => 1 + s.iter().map(Node::depth).max().unwrap_or(0),
            Node::Map(m) => 1 + m.values().map(Node::depth).max().unwrap_or(0),
        }
    }

    /// Concatenate every string leaf in document order, separated by single
    /// spaces. This is the text the full-text indexer and annotators see for
    /// a document.
    pub fn full_text(&self) -> String {
        let mut buf = String::new();
        for (_, v) in self.leaves() {
            if let Value::Str(s) = v {
                if !buf.is_empty() {
                    buf.push(' ');
                }
                buf.push_str(s);
            }
        }
        buf
    }
}

/// The iterator [`Node::values_at`] returns: a depth-first walk whose
/// frames are `(node, bytes of the pattern its path renders to)`.
struct ValuesAt<'a> {
    pattern: &'a str,
    /// The frame to visit next; kept out of `pending` so a walk down a
    /// single branch never touches the heap.
    next: Option<(&'a Node, usize)>,
    /// Later siblings, nearest on top.
    pending: Vec<(&'a Node, usize)>,
}

impl<'a> ValuesAt<'a> {
    /// Queue `children` (given last first) so the first is visited next.
    fn descend(&mut self, children: impl Iterator<Item = (&'a Node, usize)>) {
        for child in children {
            if let Some(later) = self.next.replace(child) {
                self.pending.push(later);
            }
        }
    }
}

impl<'a> Iterator for ValuesAt<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        let pattern = self.pattern;
        loop {
            let (node, pos) = self.next.take().or_else(|| self.pending.pop())?;
            let rest = &pattern[pos..];
            match node {
                Node::Value(v) if rest.is_empty() => return Some(v),
                Node::Value(_) => {}
                // An index step renders as `[]`.
                Node::Seq(items) if rest.starts_with("[]") => {
                    self.descend(items.iter().rev().map(|c| (c, pos + 2)));
                }
                Node::Seq(_) => {}
                Node::Map(m) => {
                    // A field step renders as `.name`, or as `name` while
                    // nothing has been rendered yet.
                    let (body, at) = match rest.strip_prefix('.') {
                        Some(body) if pos > 0 => (body, pos + 1),
                        _ if pos > 0 => continue,
                        _ => (rest, pos),
                    };
                    // A field is followed by the end, `.` or `[` — unless
                    // it is the empty name with nothing rendered before
                    // it, which renders to nothing and may be followed by
                    // anything. Every candidate name is a prefix of
                    // `body`, so longest first is reverse key order.
                    let cuts = std::iter::once(body.len()).chain(
                        body.bytes()
                            .enumerate()
                            .rev()
                            .filter(|&(c, b)| b == b'.' || b == b'[' || (c == 0 && pos == 0))
                            .map(|(c, _)| c),
                    );
                    self.descend(cuts.filter_map(|c| m.get(&body[..c]).map(|n| (n, at + c))));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Node {
        Node::map([
            ("name".to_string(), Node::scalar("Ada")),
            (
                "orders".to_string(),
                Node::seq([
                    Node::map([
                        ("sku".to_string(), Node::scalar("A-1")),
                        ("qty".to_string(), Node::scalar(2i64)),
                    ]),
                    Node::map([
                        ("sku".to_string(), Node::scalar("B-2")),
                        ("qty".to_string(), Node::scalar(5i64)),
                    ]),
                ]),
            ),
        ])
    }

    #[test]
    fn get_resolves_nested_paths() {
        let doc = sample();
        let v = doc
            .get_str_path("orders[1].sku")
            .unwrap()
            .as_value()
            .unwrap();
        assert_eq!(v, &Value::Str("B-2".into()));
        assert!(doc.get_str_path("orders[2].sku").is_none());
        assert!(doc.get_str_path("name.sub").is_none());
    }

    #[test]
    fn set_creates_intermediate_structure() {
        let mut n = Node::empty_map();
        n.set(&Path::parse("a.b[2].c"), Node::scalar(7i64));
        assert_eq!(
            n.get_str_path("a.b[2].c").unwrap().as_value().unwrap(),
            &Value::Int(7)
        );
        // Slots 0 and 1 were padded with nulls.
        assert_eq!(
            n.get_str_path("a.b[0]").unwrap().as_value().unwrap(),
            &Value::Null
        );
    }

    #[test]
    fn set_overwrites_existing() {
        let mut n = sample();
        n.set(&Path::parse("name"), Node::scalar("Grace"));
        assert_eq!(
            n.get_str_path("name").unwrap().as_value().unwrap().as_str(),
            Some("Grace")
        );
    }

    #[test]
    fn leaves_enumerates_in_document_order() {
        let doc = sample();
        let leaves = doc.leaves();
        let paths: Vec<String> = leaves.iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(
            paths,
            vec![
                "name",
                "orders[0].qty",
                "orders[0].sku",
                "orders[1].qty",
                "orders[1].sku"
            ]
        );
    }

    #[test]
    fn structure_paths_collapse_indexes() {
        let doc = sample();
        assert_eq!(
            doc.structure_paths(),
            vec!["name", "orders[].qty", "orders[].sku"]
        );
    }

    #[test]
    fn values_at_follows_the_structural_rendering() {
        let doc = sample();
        let at = |n: &Node, p: &str| n.values_at(p).cloned().collect::<Vec<Value>>();
        assert_eq!(at(&doc, "orders[].qty"), vec![Value::Int(2), Value::Int(5)]);
        assert_eq!(at(&doc, "name"), vec![Value::Str("Ada".into())]);
        assert!(at(&doc, "orders").is_empty(), "a branch is not a leaf");
        assert!(at(&doc, "orders[].qt").is_empty());
        // Keys that hold path syntax resolve by their rendering: a key
        // `a.b` and the path `a`→`b` both render `a.b`; `[]` as a key
        // renders `.[]`, not an index; an empty key at the root renders
        // to nothing.
        let tricky = Node::map([
            ("a.b".to_string(), Node::scalar(1i64)),
            (
                "a".to_string(),
                Node::map([
                    ("b".to_string(), Node::scalar(2i64)),
                    ("[]".to_string(), Node::scalar(3i64)),
                ]),
            ),
            (
                "".to_string(),
                Node::map([("c".to_string(), Node::scalar(4i64))]),
            ),
            ("x[".to_string(), Node::seq([Node::scalar(5i64)])),
        ]);
        assert_eq!(at(&tricky, "a.b"), vec![Value::Int(2), Value::Int(1)]);
        assert_eq!(at(&tricky, "a.[]"), vec![Value::Int(3)]);
        assert!(at(&tricky, "a[]").is_empty());
        assert_eq!(at(&tricky, "c"), vec![Value::Int(4)]);
        assert_eq!(at(&tricky, "x[[]"), vec![Value::Int(5)]);
        for (path, value) in tricky.leaves() {
            let form = path.structural_form();
            assert!(at(&tricky, &form).contains(value), "{form}");
        }
    }

    #[test]
    fn leaf_count_and_depth() {
        let doc = sample();
        assert_eq!(doc.leaf_count(), 5);
        assert_eq!(doc.depth(), 4); // map -> seq -> map -> value
        assert_eq!(Node::scalar(1i64).depth(), 1);
    }

    #[test]
    fn full_text_concatenates_string_leaves() {
        let doc = sample();
        assert_eq!(doc.full_text(), "Ada A-1 B-2");
    }
}
