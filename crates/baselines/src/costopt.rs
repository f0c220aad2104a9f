//! The cost-based optimizer the paper argues against (§3.3).
//!
//! Built so experiment C1 can compare the two designs honestly. It needs
//! statistics, so it pays for its own `ANALYZE` ([`CostOptimizer::analyze`]
//! folds per-path histograms, distinct-value estimates and per-collection
//! counts out of documents the caller read through the appliance); it
//! spends more time planning; and it produces better plans *when its
//! statistics are fresh* and worse ones when they are stale, which is
//! where the simple planner's predictability wins. The appliance itself
//! keeps no such statistics: a put folds nothing.

use std::collections::HashMap;

use impliance_docmodel::{Document, Value};
use impliance_query::{JoinAlgo, LogicalPlan};
use impliance_storage::Predicate;

/// Per-operator cost constants (arbitrary units: one sequential document
/// visit = 1).
const COST_SEQ_DOC: f64 = 1.0;
const COST_INDEX_PROBE: f64 = 3.0;
const COST_HASH_BUILD: f64 = 1.5;
const COST_HASH_PROBE: f64 = 1.0;
const COST_SORT_FACTOR: f64 = 1.2;

/// A fixed-width histogram over a numeric path's observed range. Buckets
/// adapt by widening: when a value falls outside the current range the
/// histogram rescales (halving resolution) rather than re-reading data.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create a histogram with `n` buckets spanning an initial guess range.
    pub fn new(n: usize) -> Histogram {
        Histogram {
            lo: 0.0,
            hi: 1.0,
            buckets: vec![0; n.max(2)],
            total: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.total == 0 {
            self.lo = v;
            self.hi = v + 1.0;
        }
        while v < self.lo || v >= self.hi {
            self.rescale(v);
        }
        let idx = (((v - self.lo) / (self.hi - self.lo)) * self.buckets.len() as f64) as usize;
        let idx = idx.min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.total += 1;
    }

    fn rescale(&mut self, toward: f64) {
        // Double the range toward the out-of-range value, merging bucket
        // pairs to keep counts approximately placed.
        let width = self.hi - self.lo;
        let (new_lo, new_hi) = if toward < self.lo {
            (self.lo - width, self.hi)
        } else {
            (self.lo, self.hi + width)
        };
        let n = self.buckets.len();
        let mut merged = vec![0u64; n];
        for (i, &c) in self.buckets.iter().enumerate() {
            // old bucket center
            let center = self.lo + (i as f64 + 0.5) * width / n as f64;
            let j = (((center - new_lo) / (new_hi - new_lo)) * n as f64) as usize;
            merged[j.min(n - 1)] += c;
        }
        self.lo = new_lo;
        self.hi = new_hi;
        self.buckets = merged;
    }

    /// Estimate the fraction of observations ≤ `v` (cumulative frequency).
    pub fn cdf(&self, v: f64) -> f64 {
        if self.total == 0 {
            return 0.5;
        }
        if v < self.lo {
            return 0.0;
        }
        if v >= self.hi {
            return 1.0;
        }
        let n = self.buckets.len() as f64;
        let pos = (v - self.lo) / (self.hi - self.lo) * n;
        let full = pos.floor() as usize;
        let mut acc: u64 = self.buckets[..full].iter().sum();
        // linear interpolation inside the partial bucket
        let frac = pos - pos.floor();
        acc += (self.buckets.get(full).copied().unwrap_or(0) as f64 * frac) as u64;
        acc as f64 / self.total as f64
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// A small fixed-register cardinality estimator (HyperLogLog with 256
/// registers), used for distinct-value estimates per path.
#[derive(Debug, Clone)]
pub struct DistinctEstimator {
    registers: [u8; 256],
}

impl Default for DistinctEstimator {
    fn default() -> Self {
        DistinctEstimator {
            registers: [0; 256],
        }
    }
}

impl DistinctEstimator {
    /// Fold in one rendered value.
    pub fn observe(&mut self, s: &str) {
        let h = fnv64(s.as_bytes());
        let idx = (h & 0xff) as usize;
        let rest = h >> 8;
        let rank = (rest.trailing_zeros() + 1).min(56) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Estimated distinct count.
    pub fn estimate(&self) -> f64 {
        let m = 256.0_f64;
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m {
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Statistics for one structural path.
#[derive(Debug, Clone)]
pub struct PathStats {
    /// Leaves observed at this path.
    pub count: u64,
    /// Histogram over numeric observations.
    pub histogram: Histogram,
    /// Distinct-value estimator over rendered values.
    pub distinct: DistinctEstimator,
}

impl Default for PathStats {
    fn default() -> Self {
        PathStats {
            count: 0,
            histogram: Histogram::new(32),
            distinct: DistinctEstimator::default(),
        }
    }
}

impl PathStats {
    /// Fold one leaf value in.
    pub fn observe(&mut self, v: &Value) {
        self.count += 1;
        if let Some(n) = v.as_f64() {
            self.histogram.observe(n);
        }
        self.distinct.observe(&v.render());
    }

    /// Estimated selectivity of an equality predicate on this path.
    pub fn eq_selectivity(&self) -> f64 {
        1.0 / self.distinct.estimate().max(1.0)
    }

    /// Estimated selectivity of `path < v`.
    pub fn lt_selectivity(&self, v: &Value) -> f64 {
        match v.as_f64() {
            Some(n) => self.histogram.cdf(n),
            None => 0.33, // non-numeric guess
        }
    }
}

/// The statistics-driven optimizer: a snapshot of what `ANALYZE` saw.
#[derive(Debug, Default)]
pub struct CostOptimizer {
    /// Documents analyzed.
    docs: u64,
    /// Documents per collection (cardinalities).
    collection_counts: HashMap<String, u64>,
    /// Per-structural-path statistics.
    paths: HashMap<String, PathStats>,
}

/// A plan annotated with its estimated cost.
#[derive(Debug)]
pub struct CostedPlan {
    /// The chosen plan.
    pub plan: LogicalPlan,
    /// Estimated total cost in abstract units.
    pub estimated_cost: f64,
    /// Estimated output cardinality.
    pub estimated_rows: f64,
}

impl CostOptimizer {
    /// `ANALYZE`: fold every leaf of `docs` into per-path statistics and
    /// count documents per collection. The snapshot never changes after
    /// this; statistics go stale as the data moves on.
    pub fn analyze<'a>(docs: impl IntoIterator<Item = &'a Document>) -> CostOptimizer {
        let mut opt = CostOptimizer::default();
        for doc in docs {
            opt.docs += 1;
            *opt.collection_counts
                .entry(doc.collection().to_string())
                .or_default() += 1;
            for (path, value) in doc.leaves() {
                opt.paths
                    .entry(path.structural_form())
                    .or_default()
                    .observe(value);
            }
        }
        opt
    }

    fn collection_card(&self, collection: Option<&str>) -> f64 {
        match collection {
            Some(c) => self.collection_counts.get(c).copied().unwrap_or(0) as f64,
            None => self.docs as f64,
        }
        .max(1.0)
    }

    /// Estimated selectivity of a predicate using path statistics.
    pub fn selectivity(&self, predicate: &Predicate) -> f64 {
        let eq = |path: &str| self.paths.get(path).map(PathStats::eq_selectivity);
        let lt = |path: &str, v: &Value| self.paths.get(path).map(|s| s.lt_selectivity(v));
        match predicate {
            Predicate::True => 1.0,
            Predicate::Eq(path, _) => eq(path).unwrap_or(0.1),
            Predicate::Ne(path, _) => 1.0 - eq(path).unwrap_or(0.1),
            Predicate::Lt(path, v) | Predicate::Le(path, v) => lt(path, v).unwrap_or(0.33),
            Predicate::Gt(path, v) | Predicate::Ge(path, v) => 1.0 - lt(path, v).unwrap_or(0.67),
            Predicate::Contains(_, _) => 0.1,
            Predicate::Exists(path) => self
                .paths
                .get(path)
                .map(|s| s.count as f64 / self.docs.max(1) as f64)
                .unwrap_or(0.5),
            Predicate::CollectionIs(_) | Predicate::FormatIs(_) => 0.5,
            Predicate::And(ps) => ps.iter().map(|p| self.selectivity(p)).product(),
            Predicate::Or(ps) => {
                let none: f64 = ps.iter().map(|p| 1.0 - self.selectivity(p)).product();
                1.0 - none
            }
            Predicate::Not(p) => 1.0 - self.selectivity(p),
        }
        .clamp(0.0, 1.0)
    }

    /// Optimize a plan: choose access paths and join algorithms by
    /// estimated cost.
    pub fn optimize(&self, plan: LogicalPlan) -> CostedPlan {
        match plan {
            LogicalPlan::Scan {
                collection,
                predicate,
                alias,
                ..
            } => {
                let base = self.collection_card(collection.as_deref());
                let sel = predicate
                    .as_ref()
                    .map(|p| self.selectivity(p))
                    .unwrap_or(1.0);
                let out_rows = (base * sel).max(0.0);
                // choose index scan for selective equality predicates
                let eq_index_possible = matches!(&predicate, Some(Predicate::Eq(_, _)));
                let seq_cost = base * COST_SEQ_DOC;
                let idx_cost = out_rows * COST_INDEX_PROBE + 1.0;
                let use_value_index = eq_index_possible && idx_cost < seq_cost;
                CostedPlan {
                    plan: LogicalPlan::Scan {
                        collection,
                        predicate,
                        alias,
                        use_value_index,
                    },
                    estimated_cost: if use_value_index { idx_cost } else { seq_cost },
                    estimated_rows: out_rows,
                }
            }
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
                ..
            } => {
                let l = self.optimize(*left);
                let r = self.optimize(*right);
                // join selectivity from distinct counts of the key paths
                let distinct = self
                    .paths
                    .get(&right_key.1)
                    .map(|s| s.distinct.estimate())
                    .unwrap_or(10.0)
                    .max(1.0);
                let out_rows = (l.estimated_rows * r.estimated_rows / distinct).max(0.0);
                let right_is_plain_scan = matches!(
                    &r.plan,
                    LogicalPlan::Scan {
                        predicate: None,
                        ..
                    }
                );
                let hash_cost = l.estimated_cost
                    + r.estimated_cost
                    + l.estimated_rows.min(r.estimated_rows) * COST_HASH_BUILD
                    + l.estimated_rows.max(r.estimated_rows) * COST_HASH_PROBE;
                let inlj_cost = l.estimated_cost + l.estimated_rows * COST_INDEX_PROBE;
                let (algo, cost) = if right_is_plain_scan && inlj_cost < hash_cost {
                    (JoinAlgo::IndexedNestedLoop, inlj_cost)
                } else {
                    (JoinAlgo::Hash, hash_cost)
                };
                CostedPlan {
                    plan: LogicalPlan::Join {
                        left: Box::new(l.plan),
                        right: Box::new(r.plan),
                        left_key,
                        right_key,
                        algo,
                    },
                    estimated_cost: cost,
                    estimated_rows: out_rows,
                }
            }
            LogicalPlan::Filter {
                input,
                alias,
                predicate,
            } => {
                let i = self.optimize(*input);
                let sel = self.selectivity(&predicate);
                CostedPlan {
                    estimated_cost: i.estimated_cost + i.estimated_rows * 0.1,
                    estimated_rows: i.estimated_rows * sel,
                    plan: LogicalPlan::Filter {
                        input: Box::new(i.plan),
                        alias,
                        predicate,
                    },
                }
            }
            LogicalPlan::GroupAgg {
                input,
                group_by,
                aggs,
            } => {
                let i = self.optimize(*input);
                let groups = group_by
                    .as_ref()
                    .and_then(|(_, p)| self.paths.get(p))
                    .map(|s| s.distinct.estimate())
                    .unwrap_or(1.0);
                CostedPlan {
                    estimated_cost: i.estimated_cost + i.estimated_rows,
                    estimated_rows: groups,
                    plan: LogicalPlan::GroupAgg {
                        input: Box::new(i.plan),
                        group_by,
                        aggs,
                    },
                }
            }
            LogicalPlan::Project { input, columns } => {
                let i = self.optimize(*input);
                CostedPlan {
                    estimated_cost: i.estimated_cost,
                    estimated_rows: i.estimated_rows,
                    plan: LogicalPlan::Project {
                        input: Box::new(i.plan),
                        columns,
                    },
                }
            }
            LogicalPlan::Sort { input, keys } => {
                let i = self.optimize(*input);
                let n = i.estimated_rows.max(2.0);
                CostedPlan {
                    estimated_cost: i.estimated_cost + COST_SORT_FACTOR * n * n.log2(),
                    estimated_rows: i.estimated_rows,
                    plan: LogicalPlan::Sort {
                        input: Box::new(i.plan),
                        keys,
                    },
                }
            }
            LogicalPlan::Limit { input, n } => {
                let i = self.optimize(*input);
                CostedPlan {
                    estimated_cost: i.estimated_cost,
                    estimated_rows: i.estimated_rows.min(n as f64),
                    plan: LogicalPlan::Limit {
                        input: Box::new(i.plan),
                        n,
                    },
                }
            }
            LogicalPlan::Fusion {
                input,
                k,
                text_weight,
                struct_weight,
                rrf_k,
                keys,
            } => {
                let i = self.optimize(*input);
                let n = i.estimated_rows.max(2.0);
                CostedPlan {
                    estimated_cost: i.estimated_cost + COST_SORT_FACTOR * n * n.log2(),
                    estimated_rows: i.estimated_rows.min(k as f64),
                    plan: LogicalPlan::Fusion {
                        input: Box::new(i.plan),
                        k,
                        text_weight,
                        struct_weight,
                        rrf_k,
                        keys,
                    },
                }
            }
            other @ (LogicalPlan::IndexScan { .. } | LogicalPlan::GraphConnect { .. }) => {
                CostedPlan {
                    plan: other,
                    estimated_cost: 10.0,
                    estimated_rows: 10.0,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_docmodel::{DocId, DocumentBuilder, SourceFormat};

    fn analyzed(n: u64) -> CostOptimizer {
        let docs: Vec<Document> = (0..n)
            .map(|i| {
                DocumentBuilder::new(DocId(i), SourceFormat::Json, "orders")
                    .field("amount", (i % 100) as i64)
                    .field("cust", format!("C-{}", i % 10))
                    .build()
            })
            .collect();
        CostOptimizer::analyze(&docs)
    }

    fn scan(pred: Option<Predicate>) -> LogicalPlan {
        LogicalPlan::Scan {
            collection: Some("orders".into()),
            predicate: pred,
            alias: "o".into(),
            use_value_index: false,
        }
    }

    #[test]
    fn histogram_cdf_uniform() {
        let mut h = Histogram::new(32);
        for i in 0..1000 {
            h.observe(i as f64);
        }
        let mid = h.cdf(500.0);
        assert!((mid - 0.5).abs() < 0.1, "cdf(500)={mid}");
        assert_eq!(h.cdf(-1.0), 0.0);
        assert_eq!(h.cdf(2000.0), 1.0);
    }

    #[test]
    fn histogram_rescales_for_outliers() {
        let mut h = Histogram::new(16);
        h.observe(1.0);
        h.observe(1_000_000.0);
        h.observe(-1_000_000.0);
        assert_eq!(h.total(), 3);
        assert!(h.cdf(0.0) > 0.0);
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let mut h = Histogram::new(8);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn distinct_estimator_in_range() {
        let mut d = DistinctEstimator::default();
        for i in 0..10_000 {
            d.observe(&format!("value-{i}"));
        }
        let est = d.estimate();
        assert!(est > 7_000.0 && est < 13_000.0, "estimate {est}");
    }

    #[test]
    fn distinct_estimator_small_counts() {
        let mut d = DistinctEstimator::default();
        for i in 0..10 {
            d.observe(&format!("v{i}"));
            d.observe(&format!("v{i}")); // duplicates don't inflate
        }
        let est = d.estimate();
        assert!(est > 5.0 && est < 20.0, "estimate {est}");
    }

    #[test]
    fn analyze_folds_every_leaf_and_counts_collections() {
        let opt = analyzed(100);
        let amount = &opt.paths["amount"];
        assert_eq!(amount.count, 100);
        assert!(amount.eq_selectivity() < 0.05);
        let lt = amount.lt_selectivity(&Value::Int(50));
        assert!((lt - 0.5).abs() < 0.15, "lt_selectivity {lt}");
        assert_eq!(opt.collection_card(Some("orders")), 100.0);
        assert_eq!(opt.collection_card(None), 100.0);
        assert!(!opt.paths.contains_key("missing"));
    }

    #[test]
    fn selectivity_estimates_are_sane() {
        let opt = analyzed(1000);
        let eq = opt.selectivity(&Predicate::Eq("cust".into(), Value::Str("C-1".into())));
        assert!(eq > 0.05 && eq < 0.2, "~1/10 expected, got {eq}");
        let lt = opt.selectivity(&Predicate::Lt("amount".into(), Value::Int(50)));
        assert!((lt - 0.5).abs() < 0.15, "~0.5 expected, got {lt}");
        let and = opt.selectivity(&Predicate::And(vec![
            Predicate::Eq("cust".into(), Value::Str("C-1".into())),
            Predicate::Lt("amount".into(), Value::Int(50)),
        ]));
        assert!(and < eq, "conjunction is more selective");
    }

    #[test]
    fn selective_eq_uses_index_unselective_scans() {
        let opt = analyzed(10_000);
        // cust has ~10 distinct values over 10k docs: sel 0.1 → 1000 rows;
        // index probes (3.0 each) = 3000 < 10k seq cost → index
        let p = opt.optimize(scan(Some(Predicate::Eq(
            "cust".into(),
            Value::Str("C-1".into()),
        ))));
        assert!(
            p.plan.describe().starts_with("index("),
            "{}",
            p.plan.describe()
        );
    }

    #[test]
    fn join_algorithm_chosen_by_cost() {
        let opt = analyzed(1000);
        let join = LogicalPlan::Join {
            left: Box::new(scan(Some(Predicate::Eq(
                "cust".into(),
                Value::Str("C-1".into()),
            )))),
            right: Box::new(LogicalPlan::Scan {
                collection: Some("orders".into()),
                predicate: None,
                alias: "r".into(),
                use_value_index: false,
            }),
            left_key: ("o".into(), "cust".into()),
            right_key: ("r".into(), "cust".into()),
            algo: JoinAlgo::Unspecified,
        };
        let p = opt.optimize(join);
        // selective left (≈100 rows) probing an index beats hashing 1000
        assert!(p.plan.describe().contains("inlj"), "{}", p.plan.describe());
        assert!(p.estimated_cost > 0.0);
        assert!(p.estimated_rows > 0.0);
    }

    #[test]
    fn unselective_join_prefers_hash() {
        let opt = analyzed(1000);
        let join = LogicalPlan::Join {
            left: Box::new(scan(None)),
            right: Box::new(LogicalPlan::Scan {
                collection: Some("orders".into()),
                predicate: Some(Predicate::Gt("amount".into(), Value::Int(-1))),
                alias: "r".into(),
                use_value_index: false,
            }),
            left_key: ("o".into(), "cust".into()),
            right_key: ("r".into(), "cust".into()),
            algo: JoinAlgo::Unspecified,
        };
        let p = opt.optimize(join);
        assert!(
            p.plan.describe().contains("hashjoin"),
            "{}",
            p.plan.describe()
        );
    }

    #[test]
    fn costs_compose_through_operators() {
        let opt = analyzed(100);
        let bare = opt.optimize(scan(None)).estimated_cost;
        let sorted = opt
            .optimize(LogicalPlan::Sort {
                input: Box::new(scan(None)),
                keys: vec![],
            })
            .estimated_cost;
        assert!(sorted > bare);
    }
}
