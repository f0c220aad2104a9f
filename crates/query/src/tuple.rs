//! Runtime tuples flowing between operators.
//!
//! Operators exchange [`Tuple`]s: a set of alias→document bindings (one
//! binding per joined input). Final SELECT output is a [`Row`] of named
//! scalar values.

use std::collections::BTreeMap;
use std::sync::Arc;

use impliance_docmodel::{Document, Value};

/// Pseudo-path resolving to the bound document's id (see [`Tuple::key`]).
pub const PSEUDO_ID: &str = "_id";
/// Pseudo-path resolving to the tuple's retrieval score.
pub const PSEUDO_SCORE: &str = "_score";

/// An intermediate tuple: one document bound per query alias.
#[derive(Debug, Clone)]
pub struct Tuple {
    /// alias → bound document. `Arc` so joins don't deep-copy bodies.
    pub bindings: BTreeMap<String, Arc<Document>>,
    /// Retrieval score attached by `IndexScan` / `Fusion`; `None` for
    /// tuples that never passed through a scoring operator.
    pub score: Option<f64>,
}

impl Tuple {
    /// A tuple with one binding.
    pub fn single(alias: &str, doc: Arc<Document>) -> Tuple {
        Tuple {
            bindings: BTreeMap::from([(alias.to_string(), doc)]),
            score: None,
        }
    }

    /// Attach a retrieval score (builder style).
    pub fn with_score(mut self, score: f64) -> Tuple {
        self.score = Some(score);
        self
    }

    /// Combine two tuples (disjoint alias sets). The score, if any side
    /// carries one, survives the join (left side wins when both do).
    pub fn join(&self, other: &Tuple) -> Tuple {
        let mut bindings = self.bindings.clone();
        for (k, v) in &other.bindings {
            bindings.insert(k.clone(), Arc::clone(v));
        }
        Tuple {
            bindings,
            score: self.score.or(other.score),
        }
    }

    /// The first leaf value at `path` within the document bound to
    /// `alias`, used as join/sort/group key. Returns `Null` when absent so
    /// sorting stays total. Two pseudo-paths expose retrieval metadata to
    /// projections and sorts: `"_id"` is the bound document's id and
    /// `"_score"` is the tuple's retrieval score.
    pub fn key(&self, alias: &str, structural_path: &str) -> Value {
        if structural_path == PSEUDO_SCORE {
            return self.score.map(Value::Float).unwrap_or(Value::Null);
        }
        if structural_path == PSEUDO_ID {
            return self
                .bindings
                .get(alias)
                .map(|doc| Value::Int(doc.id().0 as i64))
                .unwrap_or(Value::Null);
        }
        self.bindings
            .get(alias)
            .and_then(|doc| doc.root().values_at(structural_path).next())
            .cloned()
            .unwrap_or(Value::Null)
    }

    /// The single bound document, for single-alias pipelines.
    pub fn sole(&self) -> Option<&Arc<Document>> {
        if self.bindings.len() == 1 {
            self.bindings.values().next()
        } else {
            None
        }
    }
}

/// A final result row of named scalar values.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Output column name → value.
    pub columns: BTreeMap<String, Value>,
}

impl Row {
    /// Construct from pairs.
    pub fn from_pairs<I: IntoIterator<Item = (String, Value)>>(pairs: I) -> Row {
        Row {
            columns: pairs.into_iter().collect(),
        }
    }

    /// Value of a column (Null when absent).
    pub fn get(&self, name: &str) -> &Value {
        self.columns.get(name).unwrap_or(&Value::Null)
    }

    /// Render as a stable single-line string (tests and the figures
    /// harness).
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .columns
            .iter()
            .map(|(k, v)| format!("{k}={}", v.render()))
            .collect();
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_docmodel::{DocId, DocumentBuilder, SourceFormat};

    fn doc(id: u64) -> Arc<Document> {
        Arc::new(
            DocumentBuilder::new(DocId(id), SourceFormat::Json, "c")
                .field("x", id as i64)
                .build(),
        )
    }

    #[test]
    fn single_and_join() {
        let t1 = Tuple::single("a", doc(1));
        let t2 = Tuple::single("b", doc(2));
        let j = t1.join(&t2);
        assert_eq!(j.bindings.len(), 2);
        assert_eq!(j.key("a", "x"), Value::Int(1));
        assert_eq!(j.key("b", "x"), Value::Int(2));
        assert_eq!(j.key("c", "x"), Value::Null);
        assert_eq!(j.key("a", "missing"), Value::Null);
    }

    #[test]
    fn sole_only_for_single_binding() {
        let t1 = Tuple::single("a", doc(1));
        assert!(t1.sole().is_some());
        let j = t1.join(&Tuple::single("b", doc(2)));
        assert!(j.sole().is_none());
    }

    #[test]
    fn score_survives_joins_and_pseudo_paths_resolve() {
        let t = Tuple::single("a", doc(7)).with_score(1.5);
        assert_eq!(t.key("a", "_score"), Value::Float(1.5));
        assert_eq!(t.key("a", "_id"), Value::Int(7));
        let j = t.join(&Tuple::single("b", doc(2)));
        assert_eq!(j.score, Some(1.5));
        assert_eq!(j.key("b", "_id"), Value::Int(2));
        // unscored tuples expose Null, keeping sorts total
        assert_eq!(Tuple::single("a", doc(1)).key("a", "_score"), Value::Null);
        assert_eq!(Tuple::single("a", doc(1)).key("x", "_id"), Value::Null);
    }

    #[test]
    fn row_rendering() {
        let r = Row::from_pairs([
            ("make".to_string(), Value::Str("Volvo".into())),
            ("n".to_string(), Value::Int(3)),
        ]);
        assert_eq!(r.render(), "make=Volvo n=3");
        assert_eq!(r.get("missing"), &Value::Null);
    }
}
