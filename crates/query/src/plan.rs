//! The logical algebra.
//!
//! A [`LogicalPlan`] is a tree of the operations §2.2 enumerates —
//! search/query, composition (joins), and aggregation — over uniform
//! documents. A planner (the simple one, or C1's cost-based baseline)
//! rewrites the tree by choosing physical strategies (`JoinAlgo`,
//! index-backed scans) before execution.

use impliance_storage::{AggFunc, Predicate};

/// Physical join algorithm choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Planner has not chosen yet (executor defaults to hash).
    Unspecified,
    /// For each left tuple, probe the value index of the right collection.
    IndexedNestedLoop,
    /// Build a hash table on the smaller side, probe with the other.
    Hash,
}

/// One aggregate output item.
#[derive(Debug, Clone, PartialEq)]
pub struct AggItem {
    /// Function to compute.
    pub func: AggFunc,
    /// Operand structural path within the (single) input alias; `None`
    /// for `Count`.
    pub operand: Option<String>,
    /// Output column name.
    pub output: String,
}

/// Sort specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// `alias.path` qualified structural path.
    pub alias: String,
    /// Structural path within the alias.
    pub path: String,
    /// Descending order if set.
    pub descending: bool,
}

/// A logical query plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a collection's latest documents, with optional storage-side
    /// predicate (push-down) and binding alias.
    Scan {
        /// Collection to scan (`None` scans everything).
        collection: Option<String>,
        /// Predicate executed at the storage node when push-down is on.
        predicate: Option<Predicate>,
        /// Alias the documents bind to.
        alias: String,
        /// If set, the planner chose an index lookup (structural path +
        /// operation encoded in the predicate) rather than a full scan.
        use_value_index: bool,
    },
    /// Scored top-k text retrieval via the inverted index: emits tuples
    /// carrying a BM25 score, ordered score-descending, that flow through
    /// the rest of the pipeline like any other source.
    IndexScan {
        /// Query text (analyzed with the document pipeline).
        query: String,
        /// Restrict matching to a structural path.
        path: Option<String>,
        /// Top-k bound when the scan feeds a pure search (enables
        /// early-terminating evaluation); `None` retrieves all matches,
        /// e.g. when a structured filter sits above the scan.
        k: Option<usize>,
        /// Alias the hit documents bind to.
        alias: String,
        /// OR semantics (any term matches) instead of the default AND.
        any_term: bool,
        /// Positional phrase match instead of bag-of-words scoring.
        phrase: bool,
        /// Drop hits outside this collection (hybrid queries scoped to
        /// one collection).
        collection: Option<String>,
    },
    /// Reciprocal-rank fusion of the text score carried by input tuples
    /// with a structured ranking (sort keys, or document recency when
    /// empty). Emits the top `k` tuples re-scored by the fused value.
    Fusion {
        /// Input plan (tuples should carry text scores).
        input: Box<LogicalPlan>,
        /// Fused top-k bound.
        k: usize,
        /// Weight of the text ranking.
        text_weight: f64,
        /// Weight of the structured ranking.
        struct_weight: f64,
        /// RRF smoothing constant (typically 60).
        rrf_k: f64,
        /// Structured ranking keys; empty ranks by document id
        /// descending (recency proxy).
        keys: Vec<SortKey>,
    },
    /// Filter tuples by a predicate over one alias.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Alias the predicate applies to.
        alias: String,
        /// The predicate.
        predicate: Predicate,
    },
    /// Equi-join two inputs on alias.path = alias.path.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Left key: (alias, structural path).
        left_key: (String, String),
        /// Right key: (alias, structural path).
        right_key: (String, String),
        /// Physical algorithm (planner's choice).
        algo: JoinAlgo,
    },
    /// Group by a key and compute aggregates (single-alias input).
    GroupAgg {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group key: (alias, structural path); `None` = one global group.
        group_by: Option<(String, String)>,
        /// Aggregates to compute.
        aggs: Vec<AggItem>,
    },
    /// Project tuples to output rows of `alias.path` columns.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output columns: (alias, structural path, output name).
        columns: Vec<(String, String, String)>,
    },
    /// Sort tuples.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys, most significant first.
        keys: Vec<SortKey>,
    },
    /// Keep the first `n` tuples.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row cap.
        n: usize,
    },
    /// Graph connection query over join indexes (§3.2.1: "given two pieces
    /// of data, we should be able to ask how they are connected").
    GraphConnect {
        /// First document id.
        a: u64,
        /// Second document id.
        b: u64,
        /// Hop bound.
        max_hops: usize,
    },
}

impl LogicalPlan {
    /// The plan under a request-level limit: a pipeline `Limit` at the
    /// root, so it benefits from early termination and the top-K sort
    /// fast path. Borrowed unchanged when there is no limit.
    pub fn with_limit(&self, limit: Option<usize>) -> std::borrow::Cow<'_, LogicalPlan> {
        match limit {
            Some(n) => std::borrow::Cow::Owned(LogicalPlan::Limit {
                input: Box::new(self.clone()),
                n,
            }),
            None => std::borrow::Cow::Borrowed(self),
        }
    }

    /// Does the plan contain a limit anywhere above its joins? The simple
    /// planner uses this as its "top-k workload" signal.
    pub fn has_limit(&self) -> bool {
        match self {
            LogicalPlan::Limit { .. } => true,
            LogicalPlan::Fusion { .. } => true, // fused top-k
            LogicalPlan::IndexScan { k, .. } => k.is_some(), // bounded search
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::GroupAgg { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. } => input.has_limit(),
            _ => false,
        }
    }

    /// Compact single-line rendering for plan-shape assertions.
    pub fn describe(&self) -> String {
        match self {
            LogicalPlan::Scan {
                collection,
                predicate,
                use_value_index,
                ..
            } => {
                let c = collection.as_deref().unwrap_or("*");
                let how = if *use_value_index { "index" } else { "scan" };
                let p = if predicate.is_some() { "+pred" } else { "" };
                format!("{how}({c}{p})")
            }
            LogicalPlan::IndexScan {
                query, k, phrase, ..
            } => {
                let how = if *phrase { "phrase" } else { "search" };
                match k {
                    Some(k) => format!("{how}('{query}',k={k})"),
                    None => format!("{how}('{query}')"),
                }
            }
            LogicalPlan::Fusion { input, k, .. } => {
                format!("fuse{k}({})", input.describe())
            }
            LogicalPlan::Filter { input, .. } => format!("filter({})", input.describe()),
            LogicalPlan::Join {
                left, right, algo, ..
            } => {
                let a = match algo {
                    JoinAlgo::Unspecified => "join",
                    JoinAlgo::IndexedNestedLoop => "inlj",
                    JoinAlgo::Hash => "hashjoin",
                };
                format!("{a}({},{})", left.describe(), right.describe())
            }
            LogicalPlan::GroupAgg { input, .. } => format!("agg({})", input.describe()),
            LogicalPlan::Project { input, .. } => format!("project({})", input.describe()),
            LogicalPlan::Sort { input, .. } => format!("sort({})", input.describe()),
            LogicalPlan::Limit { input, n } => format!("limit{n}({})", input.describe()),
            LogicalPlan::GraphConnect { a, b, .. } => format!("connect({a},{b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_docmodel::Value;

    fn scan(c: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            collection: Some(c.to_string()),
            predicate: None,
            alias: c.to_string(),
            use_value_index: false,
        }
    }

    #[test]
    fn describe_and_has_limit() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan("a")),
                right: Box::new(scan("b")),
                left_key: ("a".into(), "x".into()),
                right_key: ("b".into(), "x".into()),
                algo: JoinAlgo::Hash,
            }),
            n: 10,
        };
        assert_eq!(plan.describe(), "limit10(hashjoin(scan(a),scan(b)))");
        assert!(plan.has_limit());
    }

    #[test]
    fn has_limit_spots_bounded_index_scans() {
        let mut plan = LogicalPlan::IndexScan {
            query: "q".into(),
            path: None,
            k: Some(5),
            alias: "d".into(),
            any_term: false,
            phrase: false,
            collection: None,
        };
        assert!(plan.has_limit());
        assert_eq!(plan.describe(), "search('q',k=5)");
        if let LogicalPlan::IndexScan { k, .. } = &mut plan {
            *k = None;
        }
        assert!(!plan.has_limit()); // unbounded scan retrieves everything
        assert_eq!(plan.describe(), "search('q')");
        assert!(!scan("a").has_limit());
        let fused = LogicalPlan::Fusion {
            input: Box::new(plan),
            k: 3,
            text_weight: 1.0,
            struct_weight: 1.0,
            rrf_k: 60.0,
            keys: vec![],
        };
        assert!(fused.has_limit());
        assert_eq!(fused.describe(), "fuse3(search('q'))");
    }

    #[test]
    fn describe_marks_predicates_and_indexes() {
        let p = LogicalPlan::Scan {
            collection: Some("c".into()),
            predicate: Some(Predicate::Eq("x".into(), Value::Int(1))),
            alias: "c".into(),
            use_value_index: true,
        };
        assert_eq!(p.describe(), "index(c+pred)");
    }
}
