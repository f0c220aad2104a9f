//! Predicate and projection push-down.
//!
//! §3.1: "higher-level functionality like aggregation and predicate
//! application can be more easily 'pushed down' closer to the storage for
//! early data reduction." This module defines the request language a data
//! node accepts — a filter, a projection and a visibility rule — and
//! evaluates it *inside* the storage engine, so only reduced data crosses
//! the (simulated) network. Aggregation runs above the scan, in the query
//! layer's operators; [`AggValue`] is the partial state they share.
//! [`ScanMetrics`] records bytes scanned vs. bytes returned; experiment C2
//! compares the two with push-down on and off.

use impliance_docmodel::{Document, Node, Value};

use crate::columnar::CmpOp;
use crate::partition::Visible;
use crate::segment::{PathZone, ZoneMap};

/// The total-order rank of a value, mirroring `Value::total_cmp`: values
/// of different ranks compare by rank alone (Null < Bool < numeric <
/// Str < Bytes), which is what lets zone maps and columnar kernels turn
/// cross-rank comparisons into constants.
pub fn value_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 2,
        Value::Str(_) => 3,
        Value::Bytes(_) => 4,
    }
}

/// A document-level predicate over structural paths.
///
/// Path operands are *structural* forms (`orders[].sku`): a comparison is
/// true if **any** leaf whose structural path matches satisfies it —
/// existential semantics, the natural choice for schema-free documents.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (full scan).
    True,
    /// Leaf equals value.
    Eq(String, Value),
    /// Leaf differs from value (existential: some matching leaf differs).
    Ne(String, Value),
    /// Leaf less than value.
    Lt(String, Value),
    /// Leaf less than or equal.
    Le(String, Value),
    /// Leaf greater than value.
    Gt(String, Value),
    /// Leaf greater than or equal.
    Ge(String, Value),
    /// String leaf contains the given substring (case-insensitive).
    Contains(String, String),
    /// A leaf exists at the structural path.
    Exists(String),
    /// Document belongs to the named collection.
    CollectionIs(String),
    /// Document was ingested from the named format (see
    /// `SourceFormat::name`).
    FormatIs(String),
    /// All of the sub-predicates hold.
    And(Vec<Predicate>),
    /// Any of the sub-predicates holds.
    Or(Vec<Predicate>),
    /// The sub-predicate does not hold.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Evaluate against a document.
    pub fn matches(&self, doc: &Document) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Eq(p, v) => any_leaf(doc, p, |leaf| leaf.query_eq(v)),
            Predicate::Ne(p, v) => any_leaf(doc, p, |leaf| !leaf.query_eq(v)),
            Predicate::Lt(p, v) => any_leaf(doc, p, |leaf| leaf.total_cmp(v).is_lt()),
            Predicate::Le(p, v) => any_leaf(doc, p, |leaf| leaf.total_cmp(v).is_le()),
            Predicate::Gt(p, v) => any_leaf(doc, p, |leaf| leaf.total_cmp(v).is_gt()),
            Predicate::Ge(p, v) => any_leaf(doc, p, |leaf| leaf.total_cmp(v).is_ge()),
            Predicate::Contains(p, needle) => {
                let needle = needle.to_ascii_lowercase();
                any_leaf(doc, p, |leaf| {
                    leaf.as_str()
                        .map(|s| s.to_ascii_lowercase().contains(&needle))
                        .unwrap_or(false)
                })
            }
            Predicate::Exists(p) => any_leaf(doc, p, |_| true),
            Predicate::CollectionIs(c) => doc.collection() == c,
            Predicate::FormatIs(f) => doc.format().name() == f,
            Predicate::And(ps) => ps.iter().all(|p| p.matches(doc)),
            Predicate::Or(ps) => ps.iter().any(|p| p.matches(doc)),
            Predicate::Not(p) => !p.matches(doc),
        }
    }

    /// The structural paths this predicate consults (used by the optimizer
    /// to pick indexes and by statistics-based selectivity estimation).
    pub fn referenced_paths(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_paths(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Conservative zone-map test: `true` means **no** document in the
    /// summarized segment can satisfy the predicate, so the segment may
    /// be skipped before decryption/decompression. `false` means
    /// "unknown — scan it". Soundness contract: this must never return
    /// `true` for a segment containing a matching document; it freely
    /// returns `false` for segments containing none.
    pub fn prunes_zone(&self, zone: &ZoneMap) -> bool {
        match self {
            // `Not`, collection and format tests are document-level —
            // zone maps summarize leaf values only, so never prune.
            Predicate::True
            | Predicate::CollectionIs(_)
            | Predicate::FormatIs(_)
            | Predicate::Not(_) => false,
            Predicate::Exists(p) => !zone.paths.contains_key(p),
            Predicate::Eq(p, v) => cmp_prunes(zone, p, CmpOp::Eq, v),
            Predicate::Ne(p, v) => cmp_prunes(zone, p, CmpOp::Ne, v),
            Predicate::Lt(p, v) => cmp_prunes(zone, p, CmpOp::Lt, v),
            Predicate::Le(p, v) => cmp_prunes(zone, p, CmpOp::Le, v),
            Predicate::Gt(p, v) => cmp_prunes(zone, p, CmpOp::Gt, v),
            Predicate::Ge(p, v) => cmp_prunes(zone, p, CmpOp::Ge, v),
            Predicate::Contains(p, needle) => match zone.paths.get(p) {
                None => true,
                Some(z) => contains_prunes(z, needle),
            },
            Predicate::And(ps) => ps.iter().any(|p| p.prunes_zone(zone)),
            // An empty Or matches nothing, and `all` on empty is true —
            // which is exactly the right answer.
            Predicate::Or(ps) => ps.iter().all(|p| p.prunes_zone(zone)),
        }
    }

    fn collect_paths<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::Eq(p, _)
            | Predicate::Ne(p, _)
            | Predicate::Lt(p, _)
            | Predicate::Le(p, _)
            | Predicate::Gt(p, _)
            | Predicate::Ge(p, _)
            | Predicate::Contains(p, _)
            | Predicate::Exists(p) => out.push(p),
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_paths(out);
                }
            }
            Predicate::Not(p) => p.collect_paths(out),
            _ => {}
        }
    }
}

fn any_leaf(doc: &Document, structural: &str, f: impl Fn(&Value) -> bool) -> bool {
    doc.root().values_at(structural).any(f)
}

/// A comparison predicate prunes a segment iff no populated value class
/// at the path could contain a satisfying leaf.
fn cmp_prunes(zone: &ZoneMap, path: &str, op: CmpOp, lit: &Value) -> bool {
    let z = match zone.paths.get(path) {
        // No leaf at the path anywhere in the segment: the existential
        // comparison is false for every document.
        None => return true,
        Some(z) => z,
    };
    let classes = [
        (0u8, z.nulls),
        (1, z.bools),
        (2, z.numerics),
        (3, z.strings),
        (4, z.bytes),
    ];
    !classes
        .iter()
        .any(|&(rank, count)| count > 0 && class_may_match(z, rank, op, lit))
}

/// Could *some* value of the given rank class stored at this path satisfy
/// `op` against `lit`? Errs toward `true` wherever the zone does not
/// track enough to decide.
fn class_may_match(z: &PathZone, class_rank: u8, op: CmpOp, lit: &Value) -> bool {
    let lit_rank = value_rank(lit);
    if class_rank != lit_rank {
        // Cross-rank comparisons are a constant of the ranks.
        return op.admits(class_rank.cmp(&lit_rank));
    }
    match class_rank {
        // Null vs Null is exactly Equal.
        0 => op.admits(std::cmp::Ordering::Equal),
        // Bool and Bytes values are not summarized — assume possible.
        1 | 4 => true,
        2 => {
            let f = lit.as_f64().unwrap_or(f64::NAN);
            let (min, max) = match (z.min, z.max) {
                (Some(min), Some(max)) => (min, max),
                _ => return true,
            };
            match op {
                CmpOp::Eq => min.total_cmp(&f).is_le() && max.total_cmp(&f).is_ge(),
                // Every numeric equals `lit` only when the range collapses
                // onto it; otherwise some value differs.
                CmpOp::Ne => !(min.total_cmp(&f).is_eq() && max.total_cmp(&f).is_eq()),
                CmpOp::Lt => min.total_cmp(&f).is_lt(),
                CmpOp::Le => min.total_cmp(&f).is_le(),
                CmpOp::Gt => max.total_cmp(&f).is_gt(),
                CmpOp::Ge => max.total_cmp(&f).is_ge(),
            }
        }
        3 => {
            let s = match lit.as_str() {
                Some(s) => s,
                None => return true,
            };
            match &z.dict {
                // Too many distinct strings to have kept them all.
                None => true,
                Some(dict) => dict.iter().any(|d| op.admits(d.as_str().cmp(s))),
            }
        }
        _ => true,
    }
}

fn contains_prunes(z: &PathZone, needle: &str) -> bool {
    if z.strings == 0 {
        // `Contains` only ever matches `as_str` values.
        return true;
    }
    match &z.dict {
        None => false,
        Some(dict) => {
            let needle = needle.to_ascii_lowercase();
            !dict
                .iter()
                .any(|d| d.to_ascii_lowercase().contains(&needle))
        }
    }
}

/// Which parts of matching documents to return.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Projection {
    /// Return full documents.
    #[default]
    All,
    /// Return only the listed structural paths (a pruned copy of each
    /// document). Early data reduction for the network.
    Paths(Vec<String>),
    /// Return only document ids (e.g. when an index or join will fetch
    /// bodies later).
    IdsOnly,
}

/// Aggregate functions computable at the storage node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Count of matching documents.
    Count,
    /// Sum of a numeric path.
    Sum,
    /// Minimum value of a path.
    Min,
    /// Maximum value of a path.
    Max,
    /// Arithmetic mean of a numeric path.
    Avg,
}

/// Partial aggregate state, combinable across partitions and nodes — the
/// classic two-phase (local/global) aggregation the paper's grid nodes
/// perform.
#[derive(Debug, Clone, PartialEq)]
pub struct AggValue {
    /// Number of contributing leaves/documents.
    pub count: u64,
    /// Running sum (numeric aggregates).
    pub sum: f64,
    /// Running minimum.
    pub min: Option<Value>,
    /// Running maximum.
    pub max: Option<Value>,
}

impl Default for AggValue {
    fn default() -> Self {
        AggValue {
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }
}

impl AggValue {
    /// Fold one observed value into the state.
    pub fn observe(&mut self, v: &Value) {
        self.count += 1;
        if let Some(n) = v.as_f64() {
            self.sum += n;
        }
        match &self.min {
            None => self.min = Some(v.clone()),
            Some(m) if v.total_cmp(m).is_lt() => self.min = Some(v.clone()),
            _ => {}
        }
        match &self.max {
            None => self.max = Some(v.clone()),
            Some(m) if v.total_cmp(m).is_gt() => self.max = Some(v.clone()),
            _ => {}
        }
    }

    /// Merge another partial state into this one (global phase).
    pub fn merge(&mut self, other: &AggValue) {
        self.count += other.count;
        self.sum += other.sum;
        if let Some(m) = &other.min {
            match &self.min {
                None => self.min = Some(m.clone()),
                Some(cur) if m.total_cmp(cur).is_lt() => self.min = Some(m.clone()),
                _ => {}
            }
        }
        if let Some(m) = &other.max {
            match &self.max {
                None => self.max = Some(m.clone()),
                Some(cur) if m.total_cmp(cur).is_gt() => self.max = Some(m.clone()),
                _ => {}
            }
        }
    }

    /// Final scalar result for the requested function.
    pub fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => Value::Float(self.sum),
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
        }
    }
}

/// A complete scan request: which version of each document, filter, then
/// project.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScanRequest {
    /// Filter evaluated at the storage node.
    pub predicate: Option<Predicate>,
    /// Projection applied to survivors.
    pub projection: Projection,
    /// Which version of each document the scan sees: a pinned epoch (see
    /// `crate::epoch`), a timestamp, or by default the unpinned latest.
    pub visible: Visible,
}

impl ScanRequest {
    /// A full unfiltered scan.
    pub fn full() -> ScanRequest {
        ScanRequest::default()
    }

    /// A filtered scan.
    pub fn filtered(p: Predicate) -> ScanRequest {
        ScanRequest {
            predicate: Some(p),
            ..ScanRequest::default()
        }
    }
}

/// Byte-level accounting of a scan, the observable for experiment C2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanMetrics {
    /// Documents examined.
    pub docs_scanned: u64,
    /// Documents that satisfied the predicate.
    pub docs_matched: u64,
    /// Encoded bytes read from segments/memtables.
    pub bytes_scanned: u64,
    /// Encoded bytes of the result (what would cross the network).
    pub bytes_returned: u64,
    /// Segments skipped whole via zone maps (never decrypted or
    /// decompressed).
    pub segments_skipped: u64,
    /// Segments whose block was actually loaded and scanned.
    pub segments_scanned: u64,
}

impl ScanMetrics {
    /// Merge metrics from another partition/node.
    pub fn merge(&mut self, other: &ScanMetrics) {
        self.docs_scanned += other.docs_scanned;
        self.docs_matched += other.docs_matched;
        self.bytes_scanned += other.bytes_scanned;
        self.bytes_returned += other.bytes_returned;
        self.segments_skipped += other.segments_skipped;
        self.segments_scanned += other.segments_scanned;
    }
}

/// The result of a scan: documents or ids, plus metrics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScanResult {
    /// Matching (possibly projected) documents; empty for `IdsOnly`.
    pub documents: Vec<Document>,
    /// Matching ids (populated for `IdsOnly`).
    pub ids: Vec<impliance_docmodel::DocId>,
    /// Scan accounting.
    pub metrics: ScanMetrics,
}

impl ScanResult {
    /// Merge a partition-local result into a global one.
    pub fn merge(&mut self, mut other: ScanResult) {
        self.documents.append(&mut other.documents);
        self.ids.append(&mut other.ids);
        self.metrics.merge(&other.metrics);
    }
}

/// Project a document onto the listed structural paths, producing the
/// pruned copy that would travel over the network.
pub fn project(doc: &Document, paths: &[String]) -> Document {
    let mut root = Node::empty_map();
    for (path, value) in doc.leaves() {
        if paths.contains(&path.structural_form()) {
            root.set(&path, Node::Value(value.clone()));
        }
    }
    // Rebuild with same identity/metadata but pruned body.
    let pruned = Document::new(
        doc.id(),
        doc.format(),
        doc.collection().to_string(),
        doc.ingested_at(),
        root,
    );
    advance_to_version(pruned, doc)
}

fn advance_to_version(mut pruned: Document, original: &Document) -> Document {
    while pruned.version() < original.version() {
        let body = pruned.root().clone();
        pruned = pruned.new_version(body, original.ingested_at());
    }
    pruned
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_docmodel::{DocId, DocumentBuilder, SourceFormat};

    fn doc(amount: i64, make: &str) -> Document {
        DocumentBuilder::new(DocId(amount as u64), SourceFormat::Json, "claims")
            .field("claim.amount", amount)
            .field("claim.vehicle.make", make)
            .field("claim.notes", format!("Repair for {make} bumper"))
            .build()
    }

    #[test]
    fn comparison_predicates() {
        let d = doc(1500, "Volvo");
        assert!(Predicate::Eq("claim.amount".into(), Value::Int(1500)).matches(&d));
        assert!(Predicate::Gt("claim.amount".into(), Value::Int(1000)).matches(&d));
        assert!(!Predicate::Lt("claim.amount".into(), Value::Int(1000)).matches(&d));
        assert!(Predicate::Ge("claim.amount".into(), Value::Int(1500)).matches(&d));
        assert!(Predicate::Le("claim.amount".into(), Value::Float(1500.0)).matches(&d));
        assert!(Predicate::Ne("claim.vehicle.make".into(), Value::Str("Saab".into())).matches(&d));
    }

    #[test]
    fn contains_is_case_insensitive() {
        let d = doc(1, "Volvo");
        assert!(Predicate::Contains("claim.notes".into(), "volvo".into()).matches(&d));
        assert!(!Predicate::Contains("claim.notes".into(), "tesla".into()).matches(&d));
        // non-string leaf never matches contains
        assert!(!Predicate::Contains("claim.amount".into(), "1".into()).matches(&d));
    }

    #[test]
    fn exists_collection_format() {
        let d = doc(1, "Volvo");
        assert!(Predicate::Exists("claim.vehicle.make".into()).matches(&d));
        assert!(!Predicate::Exists("claim.vehicle.year".into()).matches(&d));
        assert!(Predicate::CollectionIs("claims".into()).matches(&d));
        assert!(!Predicate::CollectionIs("mail".into()).matches(&d));
        assert!(Predicate::FormatIs("json".into()).matches(&d));
    }

    #[test]
    fn boolean_combinators() {
        let d = doc(1500, "Volvo");
        let p = Predicate::And(vec![
            Predicate::Gt("claim.amount".into(), Value::Int(1000)),
            Predicate::Or(vec![
                Predicate::Eq("claim.vehicle.make".into(), Value::Str("Saab".into())),
                Predicate::Eq("claim.vehicle.make".into(), Value::Str("Volvo".into())),
            ]),
        ]);
        assert!(p.matches(&d));
        assert!(!Predicate::Not(Box::new(p)).matches(&d));
    }

    #[test]
    fn existential_semantics_over_sequences() {
        let d = DocumentBuilder::new(DocId(1), SourceFormat::Json, "orders")
            .node(
                "items",
                impliance_docmodel::Node::seq([
                    impliance_docmodel::Node::map([(
                        "sku".to_string(),
                        impliance_docmodel::Node::scalar("A-1"),
                    )]),
                    impliance_docmodel::Node::map([(
                        "sku".to_string(),
                        impliance_docmodel::Node::scalar("B-2"),
                    )]),
                ]),
            )
            .build();
        assert!(Predicate::Eq("items[].sku".into(), Value::Str("B-2".into())).matches(&d));
        assert!(!Predicate::Eq("items[].sku".into(), Value::Str("C-3".into())).matches(&d));
    }

    #[test]
    fn referenced_paths_dedup() {
        let p = Predicate::And(vec![
            Predicate::Eq("a".into(), Value::Int(1)),
            Predicate::Not(Box::new(Predicate::Gt("a".into(), Value::Int(0)))),
            Predicate::Exists("b".into()),
        ]);
        assert_eq!(p.referenced_paths(), vec!["a", "b"]);
    }

    #[test]
    fn projection_prunes_paths() {
        let d = doc(1500, "Volvo");
        let p = project(&d, &["claim.amount".into()]);
        assert!(p.get_str_path("claim.amount").is_some());
        assert!(p.get_str_path("claim.vehicle.make").is_none());
        assert_eq!(p.id(), d.id());
    }

    #[test]
    fn projection_preserves_version() {
        let d = doc(1, "Volvo");
        let d2 = d.new_version(d.root().clone(), 9);
        let p = project(&d2, &["claim.amount".into()]);
        assert_eq!(p.version(), d2.version());
    }

    #[test]
    fn agg_value_observe_and_merge() {
        let mut a = AggValue::default();
        a.observe(&Value::Int(10));
        a.observe(&Value::Int(20));
        let mut b = AggValue::default();
        b.observe(&Value::Int(5));
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.finish(AggFunc::Sum), Value::Float(35.0));
        assert_eq!(a.finish(AggFunc::Min), Value::Int(5));
        assert_eq!(a.finish(AggFunc::Max), Value::Int(20));
        assert_eq!(a.finish(AggFunc::Avg), Value::Float(35.0 / 3.0));
    }

    #[test]
    fn avg_of_nothing_is_null() {
        let a = AggValue::default();
        assert_eq!(a.finish(AggFunc::Avg), Value::Null);
        assert_eq!(a.finish(AggFunc::Count), Value::Int(0));
    }

    #[test]
    fn zone_pruning_is_sound_and_useful() {
        use crate::memtable::Memtable;
        use crate::segment::Segment;

        let mut m = Memtable::new();
        let docs: Vec<Document> = (0..10)
            .map(|i| doc(100 + i * 40, if i % 2 == 0 { "Volvo" } else { "Saab" }))
            .collect();
        for d in &docs {
            m.put(d);
        }
        let seg = Segment::seal(m.drain(), false);
        let zone = seg.zone_map().expect("zone map").clone();

        let amount = "claim.amount".to_string();
        let make = "claim.vehicle.make".to_string();
        let cases = [
            // (predicate, expected prune)
            (Predicate::Ge(amount.clone(), Value::Int(1000)), true),
            (Predicate::Ge(amount.clone(), Value::Int(300)), false),
            (Predicate::Lt(amount.clone(), Value::Int(100)), true),
            (Predicate::Le(amount.clone(), Value::Int(100)), false),
            (Predicate::Eq(make.clone(), Value::Str("BMW".into())), true),
            (
                Predicate::Eq(make.clone(), Value::Str("Saab".into())),
                false,
            ),
            (Predicate::Contains(make.clone(), "bmw".into()), true),
            (Predicate::Contains(make.clone(), "VOL".into()), false),
            (Predicate::Exists("claim.missing".into()), true),
            (Predicate::Exists(amount.clone()), false),
            (Predicate::Ne("claim.missing".into(), Value::Int(1)), true),
            (Predicate::Ne(amount.clone(), Value::Int(100)), false),
            // Nothing orders below Null; nothing orders above Bytes here.
            (Predicate::Lt(amount.clone(), Value::Null), true),
            (Predicate::Gt(amount.clone(), Value::Bytes(vec![0])), true),
            // Document-level predicates never prune.
            (Predicate::CollectionIs("nope".into()), false),
            (
                Predicate::Not(Box::new(Predicate::Exists(amount.clone()))),
                false,
            ),
            (
                Predicate::And(vec![
                    Predicate::Eq(make.clone(), Value::Str("Saab".into())),
                    Predicate::Ge(amount.clone(), Value::Int(1000)),
                ]),
                true,
            ),
            (
                Predicate::Or(vec![
                    Predicate::Eq(make.clone(), Value::Str("Saab".into())),
                    Predicate::Ge(amount.clone(), Value::Int(1000)),
                ]),
                false,
            ),
            (Predicate::Or(vec![]), true),
        ];
        for (pred, want) in &cases {
            assert_eq!(pred.prunes_zone(&zone), *want, "prune of {pred:?}");
            if pred.prunes_zone(&zone) {
                // Soundness: a pruned segment contains no matching doc.
                assert!(
                    docs.iter().all(|d| !pred.matches(d)),
                    "{pred:?} pruned a segment with matches"
                );
            }
        }
    }

    #[test]
    fn scan_result_merge_combines_documents_and_metrics() {
        let mut a = ScanResult::default();
        a.documents.push(doc(1, "Volvo"));
        a.metrics.docs_scanned = 10;
        let mut b = ScanResult::default();
        b.documents.push(doc(2, "Saab"));
        b.metrics.docs_scanned = 5;
        a.merge(b);
        assert_eq!(a.documents.len(), 2);
        assert_eq!(a.metrics.docs_scanned, 15);
    }
}
