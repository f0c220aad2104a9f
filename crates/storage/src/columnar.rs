//! Columnar pages: typed column vectors decoded straight from storage.
//!
//! The row pipeline moves `Vec<Tuple>` batches where every predicate and
//! projection walks `Document::leaves()` per tuple. A [`ColumnPage`] is
//! the column-at-a-time alternative: for a fixed set of structural paths
//! it carries one typed vector per path (i64 / f64 / dictionary-encoded
//! strings / mixed values) plus a validity bitmask, and keeps the decoded
//! documents as a row-view escape hatch for operators (and predicate
//! shapes) that are not vectorized yet.
//!
//! Semantics are bit-for-bit those of the row path:
//!
//! * a validity bit is set iff the document has **at least one** leaf at
//!   the path; the stored value is the **first** such leaf (exactly what
//!   `Tuple::key` returns);
//! * a column is typed `Int`/`Float`/`Str` only when every valid slot
//!   holds exactly that `Value` variant, so [`Column::value_at`]
//!   reconstructs the original variant (`Int(5)` renders `5`,
//!   `Float(5.0)` renders `5.0` — the distinction survives);
//! * documents with *several* leaves at a path are flagged `multi_leaf`;
//!   comparison kernels fall back to the existential `Predicate::matches`
//!   for those columns, so vectorization never changes an answer.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use impliance_docmodel::{Document, Value};

use crate::pushdown::{value_rank, Predicate, ScanMetrics};

/// Distinct-string cap under which a page column is dictionary-encoded.
pub const PAGE_DICT_MAX: usize = 256;

/// A packed validity / selection bitmask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmask {
    words: Vec<u64>,
    len: usize,
}

impl Bitmask {
    /// All-zero mask of `len` bits.
    pub fn zeros(len: usize) -> Bitmask {
        Bitmask {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-one mask of `len` bits.
    pub fn ones(len: usize) -> Bitmask {
        let mut m = Bitmask::zeros(len);
        for w in &mut m.words {
            *w = u64::MAX;
        }
        m.clear_tail();
        m
    }

    /// Build from a per-index closure.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Bitmask {
        let mut m = Bitmask::zeros(len);
        for i in 0..len {
            if f(i) {
                m.set(i);
            }
        }
        m
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` (false when out of range).
    pub fn get(&self, i: usize) -> bool {
        i < self.len && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize) {
        if i < self.len {
            self.words[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// `self &= other` (lengths must match).
    pub fn and_assign(&mut self, other: &Bitmask) {
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= *b;
        }
    }

    /// `self |= other` (lengths must match).
    pub fn or_assign(&mut self, other: &Bitmask) {
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
        }
    }

    /// Bitwise complement within `len`.
    pub fn not(&self) -> Bitmask {
        let mut m = Bitmask {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        m.clear_tail();
        m
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The typed storage behind one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVec {
    /// Every valid slot is `Value::Int`.
    Int(Vec<i64>),
    /// Every valid slot is `Value::Float`.
    Float(Vec<f64>),
    /// Every valid slot is `Value::Str`, dictionary-encoded: `codes[i]`
    /// indexes `dict`.
    Str { dict: Vec<String>, codes: Vec<u32> },
    /// Anything else (mixed variants, timestamps, null-valued leaves).
    Mixed(Vec<Value>),
}

/// One structural path's values across a page of documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Structural path (e.g. `orders[].amount`).
    pub path: String,
    /// Typed values; slots where `validity` is unset hold placeholders.
    pub values: ColumnVec,
    /// Bit `i` set iff document `i` has a leaf at `path`.
    pub validity: Bitmask,
    /// Some document in the page has more than one leaf at `path`;
    /// comparison kernels must fall back to existential row evaluation.
    pub multi_leaf: bool,
}

impl Column {
    /// Reconstruct the first-leaf value for row `i` (`Null` when absent),
    /// exactly mirroring `Tuple::key`.
    pub fn value_at(&self, i: usize) -> Value {
        if !self.validity.get(i) {
            return Value::Null;
        }
        match &self.values {
            ColumnVec::Int(vs) => Value::Int(vs[i]),
            ColumnVec::Float(vs) => Value::Float(vs[i]),
            ColumnVec::Str { dict, codes } => dict
                .get(codes[i] as usize)
                .map(|s| Value::Str(s.clone()))
                .unwrap_or(Value::Null),
            ColumnVec::Mixed(vs) => vs[i].clone(),
        }
    }

    /// True when the column is dictionary-encoded.
    pub fn is_dictionary(&self) -> bool {
        matches!(self.values, ColumnVec::Str { .. })
    }
}

/// A page of documents decoded column-wise.
#[derive(Debug, Clone, Default)]
pub struct ColumnPage {
    /// Rows in the page.
    pub len: usize,
    /// Row view: the matching documents, in scan order. Operators that
    /// need whole documents (joins, doc output) read these.
    pub docs: Vec<Arc<Document>>,
    /// One column per requested structural path, in request order.
    pub columns: Vec<Column>,
    /// Storage-side accounting for the page (includes zone-map skips).
    pub metrics: ScanMetrics,
}

impl ColumnPage {
    /// True when the page holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column for `path`, if it was requested.
    pub fn column(&self, path: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.path == path)
    }

    /// Drop all rows past `n` (limit enforcement).
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        self.docs.truncate(n);
        for col in &mut self.columns {
            match &mut col.values {
                ColumnVec::Int(v) => v.truncate(n),
                ColumnVec::Float(v) => v.truncate(n),
                ColumnVec::Str { codes, .. } => codes.truncate(n),
                ColumnVec::Mixed(v) => v.truncate(n),
            }
            let kept = col.validity.clone();
            col.validity = Bitmask::from_fn(n, |i| kept.get(i));
        }
        self.len = n;
    }

    /// Compact the page to the rows whose bit is set in `keep` (the
    /// selection produced by [`ColumnPage::eval_mask`]), preserving row
    /// order. Dictionary columns keep their dictionary; metrics are not
    /// carried (the caller merged them before masking).
    pub fn gather(&self, keep: &Bitmask) -> ColumnPage {
        let idx: Vec<usize> = (0..self.len).filter(|&i| keep.get(i)).collect();
        let columns = self
            .columns
            .iter()
            .map(|col| {
                let values = match &col.values {
                    ColumnVec::Int(vs) => ColumnVec::Int(idx.iter().map(|&i| vs[i]).collect()),
                    ColumnVec::Float(vs) => ColumnVec::Float(idx.iter().map(|&i| vs[i]).collect()),
                    ColumnVec::Str { dict, codes } => ColumnVec::Str {
                        dict: dict.clone(),
                        codes: idx.iter().map(|&i| codes[i]).collect(),
                    },
                    ColumnVec::Mixed(vs) => {
                        ColumnVec::Mixed(idx.iter().map(|&i| vs[i].clone()).collect())
                    }
                };
                Column {
                    path: col.path.clone(),
                    values,
                    validity: Bitmask::from_fn(idx.len(), |j| col.validity.get(idx[j])),
                    multi_leaf: col.multi_leaf,
                }
            })
            .collect();
        ColumnPage {
            len: idx.len(),
            docs: idx.iter().map(|&i| Arc::clone(&self.docs[i])).collect(),
            columns,
            metrics: ScanMetrics::default(),
        }
    }

    /// Evaluate a predicate over the page, one bit per row. Kernels run
    /// column-at-a-time where a single-leaf typed column exists; every
    /// other shape (multi-leaf paths, unprojected paths) falls back to
    /// the row-wise `Predicate::matches`, so the mask is always exact.
    pub fn eval_mask(&self, pred: &Predicate) -> Bitmask {
        match pred {
            Predicate::True => Bitmask::ones(self.len),
            Predicate::And(ps) => {
                let mut m = Bitmask::ones(self.len);
                for p in ps {
                    m.and_assign(&self.eval_mask(p));
                }
                m
            }
            Predicate::Or(ps) => {
                let mut m = Bitmask::zeros(self.len);
                for p in ps {
                    m.or_assign(&self.eval_mask(p));
                }
                m
            }
            Predicate::Not(p) => self.eval_mask(p).not(),
            Predicate::CollectionIs(c) => {
                Bitmask::from_fn(self.len, |i| self.docs[i].collection() == c)
            }
            Predicate::FormatIs(f) => {
                Bitmask::from_fn(self.len, |i| self.docs[i].format().name() == f)
            }
            Predicate::Exists(path) => match self.column(path) {
                // Validity is "≥1 leaf at path" — exact even multi-leaf.
                Some(col) => col.validity.clone(),
                None => self.fallback_mask(pred),
            },
            Predicate::Eq(path, v) => self.cmp_or_fallback(pred, path, CmpOp::Eq, v),
            Predicate::Ne(path, v) => self.cmp_or_fallback(pred, path, CmpOp::Ne, v),
            Predicate::Lt(path, v) => self.cmp_or_fallback(pred, path, CmpOp::Lt, v),
            Predicate::Le(path, v) => self.cmp_or_fallback(pred, path, CmpOp::Le, v),
            Predicate::Gt(path, v) => self.cmp_or_fallback(pred, path, CmpOp::Gt, v),
            Predicate::Ge(path, v) => self.cmp_or_fallback(pred, path, CmpOp::Ge, v),
            Predicate::Contains(path, needle) => match self.column(path) {
                Some(col) if !col.multi_leaf => self.contains_mask(col, needle),
                _ => self.fallback_mask(pred),
            },
        }
    }

    fn fallback_mask(&self, pred: &Predicate) -> Bitmask {
        Bitmask::from_fn(self.len, |i| pred.matches(&self.docs[i]))
    }

    fn cmp_or_fallback(&self, pred: &Predicate, path: &str, op: CmpOp, lit: &Value) -> Bitmask {
        match self.column(path) {
            Some(col) if !col.multi_leaf => self.cmp_mask(col, op, lit),
            _ => self.fallback_mask(pred),
        }
    }

    fn cmp_mask(&self, col: &Column, op: CmpOp, lit: &Value) -> Bitmask {
        let lit_rank = value_rank(lit);
        match &col.values {
            ColumnVec::Int(vs) => {
                if lit_rank == 2 {
                    let lf = lit.as_f64().unwrap_or(f64::NAN);
                    Bitmask::from_fn(self.len, |i| {
                        col.validity.get(i) && op.admits((vs[i] as f64).total_cmp(&lf))
                    })
                } else {
                    self.rank_const_mask(col, op, 2, lit_rank)
                }
            }
            ColumnVec::Float(vs) => {
                if lit_rank == 2 {
                    let lf = lit.as_f64().unwrap_or(f64::NAN);
                    Bitmask::from_fn(self.len, |i| {
                        col.validity.get(i) && op.admits(vs[i].total_cmp(&lf))
                    })
                } else {
                    self.rank_const_mask(col, op, 2, lit_rank)
                }
            }
            ColumnVec::Str { dict, codes } => {
                if let Value::Str(s) = lit {
                    // One comparison per dictionary entry, then a table
                    // lookup per row.
                    let table: Vec<bool> =
                        dict.iter().map(|d| op.admits(d.as_str().cmp(s))).collect();
                    Bitmask::from_fn(self.len, |i| {
                        col.validity.get(i)
                            && table.get(codes[i] as usize).copied().unwrap_or(false)
                    })
                } else {
                    self.rank_const_mask(col, op, 3, lit_rank)
                }
            }
            ColumnVec::Mixed(vs) => Bitmask::from_fn(self.len, |i| {
                col.validity.get(i) && op.admits(vs[i].total_cmp(lit))
            }),
        }
    }

    /// Cross-rank comparison: the ordering is a constant of the ranks, so
    /// the mask is either the validity mask or empty.
    fn rank_const_mask(&self, col: &Column, op: CmpOp, col_rank: u8, lit_rank: u8) -> Bitmask {
        if op.admits(col_rank.cmp(&lit_rank)) {
            col.validity.clone()
        } else {
            Bitmask::zeros(self.len)
        }
    }

    fn contains_mask(&self, col: &Column, needle: &str) -> Bitmask {
        let needle = needle.to_ascii_lowercase();
        match &col.values {
            // Non-string values have no `as_str` — never match.
            ColumnVec::Int(_) | ColumnVec::Float(_) => Bitmask::zeros(self.len),
            ColumnVec::Str { dict, codes } => {
                let table: Vec<bool> = dict
                    .iter()
                    .map(|d| d.to_ascii_lowercase().contains(&needle))
                    .collect();
                Bitmask::from_fn(self.len, |i| {
                    col.validity.get(i) && table.get(codes[i] as usize).copied().unwrap_or(false)
                })
            }
            ColumnVec::Mixed(vs) => Bitmask::from_fn(self.len, |i| {
                col.validity.get(i)
                    && vs[i]
                        .as_str()
                        .map(|s| s.to_ascii_lowercase().contains(&needle))
                        .unwrap_or(false)
            }),
        }
    }
}

/// A comparison operator over the document total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==` under `Value::query_eq`.
    Eq,
    /// `!=` under `Value::query_eq`.
    Ne,
    /// `<` under `Value::total_cmp`.
    Lt,
    /// `<=` under `Value::total_cmp`.
    Le,
    /// `>` under `Value::total_cmp`.
    Gt,
    /// `>=` under `Value::total_cmp`.
    Ge,
}

impl CmpOp {
    /// Does an ordering outcome satisfy the operator?
    pub fn admits(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// Accumulates one document at a time into typed columns.
pub struct ColumnPageBuilder {
    paths: Vec<String>,
    docs: Vec<Arc<Document>>,
    staged: Vec<StagedColumn>,
}

struct StagedColumn {
    values: Vec<Value>,
    validity: Vec<bool>,
    multi_leaf: bool,
}

impl ColumnPageBuilder {
    /// A builder for the given structural paths (duplicates collapse to
    /// one column).
    pub fn new(paths: &[String]) -> ColumnPageBuilder {
        let mut unique: Vec<String> = Vec::with_capacity(paths.len());
        for p in paths {
            if !unique.contains(p) {
                unique.push(p.clone());
            }
        }
        let staged = unique
            .iter()
            .map(|_| StagedColumn {
                values: Vec::new(),
                validity: Vec::new(),
                multi_leaf: false,
            })
            .collect();
        ColumnPageBuilder {
            paths: unique,
            docs: Vec::new(),
            staged,
        }
    }

    /// Rows staged so far.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when no rows are staged.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Append one document: each column's slot takes the first leaf at its
    /// path (`Node::values_at`, in `leaves()` order), and a second leaf
    /// there marks the column multi-leaf.
    pub fn push(&mut self, doc: Arc<Document>) {
        for (path, col) in self.paths.iter().zip(&mut self.staged) {
            let mut values = doc.root().values_at(path);
            let first = values.next();
            col.validity.push(first.is_some());
            col.values.push(first.cloned().unwrap_or(Value::Null));
            col.multi_leaf |= values.next().is_some();
        }
        self.docs.push(doc);
    }

    /// Freeze into a typed page. Each column specializes to `Int`,
    /// `Float`, or dictionary `Str` only when every valid slot holds that
    /// exact variant; everything else stays `Mixed`.
    pub fn finish(self) -> ColumnPage {
        let len = self.docs.len();
        let columns = self
            .paths
            .into_iter()
            .zip(self.staged)
            .map(|(path, staged)| {
                let validity = Bitmask::from_fn(len, |i| staged.validity[i]);
                let values = type_column(&staged);
                Column {
                    path,
                    values,
                    validity,
                    multi_leaf: staged.multi_leaf,
                }
            })
            .collect();
        ColumnPage {
            len,
            docs: self.docs,
            columns,
            metrics: ScanMetrics::default(),
        }
    }
}

fn type_column(staged: &StagedColumn) -> ColumnVec {
    let mut any_valid = false;
    let mut all_int = true;
    let mut all_float = true;
    let mut all_str = true;
    for (v, &valid) in staged.values.iter().zip(&staged.validity) {
        if !valid {
            continue;
        }
        any_valid = true;
        all_int &= matches!(v, Value::Int(_));
        all_float &= matches!(v, Value::Float(_));
        all_str &= matches!(v, Value::Str(_));
    }
    if !any_valid {
        return ColumnVec::Mixed(staged.values.clone());
    }
    if all_int {
        return ColumnVec::Int(
            staged
                .values
                .iter()
                .map(|v| v.as_i64().unwrap_or(0))
                .collect(),
        );
    }
    if all_float {
        return ColumnVec::Float(
            staged
                .values
                .iter()
                .map(|v| match v {
                    Value::Float(f) => *f,
                    _ => 0.0,
                })
                .collect(),
        );
    }
    if all_str {
        let mut dict: Vec<String> = Vec::new();
        let mut lookup: HashMap<String, u32> = HashMap::new();
        let mut codes = Vec::with_capacity(staged.values.len());
        for (v, &valid) in staged.values.iter().zip(&staged.validity) {
            let s = match (valid, v) {
                (true, Value::Str(s)) => s.as_str(),
                _ => {
                    codes.push(0u32);
                    continue;
                }
            };
            let code = match lookup.get(s) {
                Some(&c) => c,
                None => {
                    let c = dict.len() as u32;
                    dict.push(s.to_string());
                    lookup.insert(s.to_string(), c);
                    if dict.len() > PAGE_DICT_MAX {
                        return ColumnVec::Mixed(staged.values.clone());
                    }
                    c
                }
            };
            codes.push(code);
        }
        return ColumnVec::Str { dict, codes };
    }
    ColumnVec::Mixed(staged.values.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_docmodel::{DocId, DocumentBuilder, SourceFormat};

    fn doc(id: u64, amount: i64, make: &str) -> Arc<Document> {
        Arc::new(
            DocumentBuilder::new(DocId(id), SourceFormat::Json, "cars")
                .field("amount", amount)
                .field("make", make)
                .build(),
        )
    }

    fn page(n: i64) -> ColumnPage {
        let mut b = ColumnPageBuilder::new(&["amount".to_string(), "make".to_string()]);
        for i in 0..n {
            b.push(doc(i as u64, i, if i % 2 == 0 { "Volvo" } else { "Saab" }));
        }
        b.finish()
    }

    #[test]
    fn bitmask_ops() {
        let mut a = Bitmask::zeros(70);
        a.set(0);
        a.set(69);
        assert!(a.get(0) && a.get(69) && !a.get(1));
        assert_eq!(a.count_ones(), 2);
        let n = a.not();
        assert_eq!(n.count_ones(), 68);
        assert!(!n.get(0) && n.get(1));
        let ones = Bitmask::ones(70);
        assert_eq!(ones.count_ones(), 70);
    }

    #[test]
    fn typed_columns_and_dictionary() {
        let p = page(10);
        let amount = p.column("amount").expect("amount column");
        assert!(matches!(amount.values, ColumnVec::Int(_)));
        let make = p.column("make").expect("make column");
        match &make.values {
            ColumnVec::Str { dict, .. } => assert_eq!(dict.len(), 2),
            other => panic!("expected dictionary column, got {other:?}"),
        }
        assert!(make.is_dictionary());
        assert_eq!(amount.value_at(3), Value::Int(3));
        assert_eq!(make.value_at(0), Value::Str("Volvo".into()));
    }

    #[test]
    fn masks_match_row_semantics() {
        let p = page(10);
        let preds = [
            Predicate::Ge("amount".into(), Value::Int(5)),
            Predicate::Eq("make".into(), Value::Str("Saab".into())),
            Predicate::Contains("make".into(), "vol".into()),
            Predicate::Not(Box::new(Predicate::Lt("amount".into(), Value::Int(3)))),
            Predicate::Exists("missing".into()),
            Predicate::Ne("amount".into(), Value::Int(4)),
            Predicate::Or(vec![]),
            Predicate::And(vec![
                Predicate::Gt("amount".into(), Value::Int(2)),
                Predicate::CollectionIs("cars".into()),
            ]),
        ];
        for pred in &preds {
            let mask = p.eval_mask(pred);
            for i in 0..p.len {
                assert_eq!(
                    mask.get(i),
                    pred.matches(&p.docs[i]),
                    "row {i} disagrees for {pred:?}"
                );
            }
        }
    }

    #[test]
    fn null_and_mixed_columns_stay_exact() {
        let mut b = ColumnPageBuilder::new(&["x".to_string()]);
        b.push(Arc::new(
            DocumentBuilder::new(DocId(1), SourceFormat::Json, "c")
                .field("x", 1i64)
                .build(),
        ));
        b.push(Arc::new(
            DocumentBuilder::new(DocId(2), SourceFormat::Json, "c")
                .field("x", 2.5f64)
                .build(),
        ));
        b.push(Arc::new(
            DocumentBuilder::new(DocId(3), SourceFormat::Json, "c")
                .field("y", 3i64)
                .build(),
        ));
        let p = b.finish();
        let col = p.column("x").expect("x column");
        assert!(matches!(col.values, ColumnVec::Mixed(_)));
        assert_eq!(col.value_at(0), Value::Int(1));
        assert_eq!(col.value_at(1), Value::Float(2.5));
        assert_eq!(col.value_at(2), Value::Null);
        let mask = p.eval_mask(&Predicate::Gt("x".into(), Value::Int(0)));
        assert!(mask.get(0) && mask.get(1) && !mask.get(2));
    }

    #[test]
    fn truncate_drops_rows_everywhere() {
        let mut p = page(8);
        p.truncate(3);
        assert_eq!(p.len, 3);
        assert_eq!(p.docs.len(), 3);
        for c in &p.columns {
            assert_eq!(c.validity.len(), 3);
        }
        p.truncate(10); // no-op past the end
        assert_eq!(p.len, 3);
    }
}
