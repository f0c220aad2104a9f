//! The query templates the workloads send and the oracles their answers
//! are checked against.
//!
//! Expected values are derived from the generated inputs of the seed in
//! use, never written down: SQL answers are recomputed by the harness from
//! the inputs, text answers are compared with a full-scoring evaluation
//! (limit = every live document, so neither the bounded heap nor MaxScore
//! pruning takes part), and the hybrid ranking is re-fused by the harness
//! from those full hits and the inputs.

use std::collections::{HashMap, HashSet};

use impliance_core::{FusionSpec, Impliance, QueryRequest, QueryResponse};
use impliance_docmodel::Value;
use impliance_index::{search_phrase, search_topk, SearchQuery};
use impliance_query::Row;

use crate::gen::{
    Claim, Customer, Doc, Kind, Order, Rng, ACTIONS, CITIES, DETAILS, FIRST_NAMES, FREQ_TERMS,
    MAKES, PARTNERS, PARTS, PRODUCTS, SURNAMES, TOPICS,
};
use crate::store::Store;

/// The eight fixed statements of `sql_analytics`, in cycle order.
pub const SQL_TEMPLATES: [(&str, &str); 8] = [
    (
        "wide",
        "SELECT claimant, amount, city FROM claims WHERE amount >= 500",
    ),
    (
        "selective",
        "SELECT claimant, amount FROM claims WHERE amount >= 4900",
    ),
    ("count", "SELECT COUNT(*) FROM claims"),
    (
        "group",
        "SELECT city, SUM(amount) AS total, COUNT(*) AS n FROM claims GROUP BY city",
    ),
    (
        "nested",
        "SELECT vehicle.make, COUNT(*) AS n FROM claims WHERE vehicle.year >= 2003 \
         GROUP BY vehicle.make",
    ),
    (
        "topn",
        "SELECT claim_no, amount FROM claims ORDER BY amount DESC LIMIT 10",
    ),
    (
        "join",
        "SELECT c.city, COUNT(*) AS n, SUM(o.total) AS total FROM orders o \
         JOIN customers c ON o.cust = c.code GROUP BY c.city",
    ),
    (
        "contains",
        "SELECT claimant FROM claims WHERE notes CONTAINS 'windshield'",
    ),
];

/// The ten templates of `text_search`, in cycle order.
pub const TEXT_TEMPLATES: [&str; 10] = [
    "freq1",
    "mid1",
    "rare2",
    "and3",
    "or3",
    "field2",
    "phrase",
    "mail3",
    "mid1_k100",
    "hybrid_rrf",
];

/// The five foreground templates of `mixed_ops`, in cycle order.
pub const MIXED_TEMPLATES: [&str; 5] = [
    "point_orders",
    "point_customers",
    "limit100",
    "selective",
    "text_mid1",
];

const HYBRID_SQL: &str =
    "SELECT claim_no, amount FROM claims WHERE amount >= 2500 ORDER BY amount DESC";
const HYBRID_MIN_AMOUNT: i64 = 2_500;
const LIMIT100_SQL: &str = "SELECT claimant, amount FROM claims LIMIT 100";

/// The statement of a SQL template: one of the eight, or `limit100`.
pub fn sql_statement(template: &str) -> &'static str {
    SQL_TEMPLATES
        .iter()
        .chain(&[("limit100", LIMIT100_SQL)])
        .find(|(name, _)| *name == template)
        .map(|(_, sql)| *sql)
        .expect("a SQL template name")
}

/// A keyword request, kept in the harness's own terms so the same value
/// drives the appliance, the direct index probe and the oracle.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TextQuery {
    pub text: String,
    pub path: Option<&'static str>,
    pub any_term: bool,
    pub phrase: bool,
    pub k: usize,
}

/// One request with what its answer is checked against.
#[derive(Debug, Clone)]
pub enum Ask {
    /// A statement whose exact answer the SQL oracle knows by template.
    Sql(&'static str),
    PointOrder(i64),
    PointCustomer(u32),
    Text(TextQuery),
    /// Match on the claims' notes fused with `amount DESC` (RRF), top `k`.
    Hybrid(TextQuery),
}

impl Ask {
    pub fn request(&self) -> QueryRequest {
        match self {
            Ask::Sql(t) => QueryRequest::builder(sql_statement(t)).build(),
            Ask::PointOrder(id) => QueryRequest::builder(format!(
                "SELECT sku, total FROM orders WHERE order_id = {id}"
            ))
            .build(),
            Ask::PointCustomer(code) => QueryRequest::builder(format!(
                "SELECT name, city FROM customers WHERE code = 'C-{code}'"
            ))
            .build(),
            Ask::Text(q) => text_builder(QueryRequest::builder(""), q).build(),
            Ask::Hybrid(q) => text_builder(QueryRequest::builder(HYBRID_SQL), q)
                .fusion(FusionSpec::default())
                .build(),
        }
    }
}

fn text_builder(
    b: impliance_core::QueryRequestBuilder,
    q: &TextQuery,
) -> impliance_core::QueryRequestBuilder {
    let mut b = b
        .match_text(q.path.unwrap_or("*"), q.text.clone())
        .top_k(q.k);
    if q.any_term {
        b = b.any_term();
    }
    if q.phrase {
        b = b.phrase();
    }
    b
}

/// Draws the parameters of the text templates from the vocabulary by
/// frequency class, so each cycle asks distinct requests.
pub struct TextDraw(Rng);

impl TextDraw {
    pub fn new(seed: u64) -> TextDraw {
        TextDraw(Rng::new(seed, 7))
    }

    pub fn ask(&mut self, template: &str) -> Ask {
        let r = &mut self.0;
        let q = |text: String, path, any_term, phrase, k| TextQuery {
            text,
            path,
            any_term,
            phrase,
            k,
        };
        let low = |r: &mut Rng| {
            let detail = r.pick(DETAILS);
            detail.split(' ').next().unwrap_or(detail).to_lowercase()
        };
        match template {
            "freq1" => Ask::Text(q(r.pick(FREQ_TERMS).into(), None, false, false, 10)),
            "mid1" | "text_mid1" => Ask::Text(q(r.pick(PARTS).into(), None, false, false, 10)),
            "mid1_k100" => Ask::Text(q(r.pick(PARTS).into(), None, false, false, 100)),
            "rare2" => {
                let text = format!("{} {}", r.pick(FIRST_NAMES), r.pick(SURNAMES));
                Ask::Text(q(text, None, false, false, 10))
            }
            "and3" => {
                let text = format!("{} {} {}", r.pick(PARTS), r.pick(MAKES), r.pick(CITIES));
                Ask::Text(q(text, None, false, false, 10))
            }
            "or3" => {
                let text = format!("{} {} {}", r.pick(SURNAMES), low(r), r.pick(PARTS));
                Ask::Text(q(text, None, true, false, 10))
            }
            "field2" => {
                let text = format!("{} {}", r.pick(PARTS), r.pick(ACTIONS));
                Ask::Text(q(text, Some("notes"), false, false, 10))
            }
            // A name directly before "filed": a phrase only a handful of
            // claims hold. The phrase evaluation stops collecting at 4·k
            // matches in hash order, so only a phrase rarer than that has
            // one right answer to compare with.
            "phrase" => {
                let text = format!("{} {} filed", r.pick(FIRST_NAMES), r.pick(SURNAMES));
                Ask::Text(q(text, Some("notes"), false, true, 10))
            }
            "mail3" => {
                let partner = r.pick(PARTNERS);
                let text = format!(
                    "{} {} {}",
                    partner.split(' ').next().unwrap_or(partner),
                    r.pick(TOPICS),
                    r.pick(PRODUCTS)
                );
                Ask::Text(q(text, None, false, false, 10))
            }
            _ => {
                let text = format!("{} {}", r.pick(PARTS), r.pick(ACTIONS));
                Ask::Hybrid(q(text, Some("notes"), false, false, 10))
            }
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0.below(n)
    }
}

/// The interactive mix `mixed_ops` reads with, also asked of a freshly
/// loaded store by `bulk_ingest`: two point lookups, a LIMIT, a selective
/// filter and a keyword search.
pub struct InteractiveMix(TextDraw);

impl InteractiveMix {
    pub fn new(seed: u64) -> InteractiveMix {
        InteractiveMix(TextDraw::new(seed))
    }

    /// The `i`-th request of the mix, a [`MIXED_TEMPLATES`]`[i % 5]`.
    pub fn next(&mut self, i: usize, oracle: &Oracle) -> Ask {
        match MIXED_TEMPLATES[i % MIXED_TEMPLATES.len()] {
            "point_orders" => {
                Ask::PointOrder(100_000 + self.0.below(oracle.orders().max(1) as u64) as i64)
            }
            "point_customers" => {
                Ask::PointCustomer(self.0.below(oracle.customers().max(1) as u64) as u32)
            }
            "text_mid1" => self.0.ask("text_mid1"),
            "limit100" => Ask::Sql("limit100"),
            _ => Ask::Sql("selective"),
        }
    }
}

// ---------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn canon(v: &Value) -> String {
    match v {
        // aggregates come back as floats; every measure here is integral
        Value::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => format!("{}", *f as i64),
        other => other.render(),
    }
}

/// `name=value` pairs in column-name order: the form both the expected
/// rows and the returned rows are reduced to.
fn canon_row(row: &Row) -> String {
    let parts: Vec<String> = row
        .columns
        .iter()
        .map(|(k, v)| format!("{k}={}", canon(v)))
        .collect();
    parts.join(" ")
}

/// Row count and an order-independent checksum of a row set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowSet {
    pub count: usize,
    pub checksum: u64,
}

impl RowSet {
    fn of<I: IntoIterator<Item = String>>(rows: I) -> RowSet {
        rows.into_iter().fold(RowSet::default(), |acc, r| RowSet {
            count: acc.count + 1,
            checksum: acc.checksum.wrapping_add(fnv1a(&r)),
        })
    }
}

/// What the harness knows about the loaded inputs, reduced to what the
/// checks need.
pub struct Oracle {
    claims: Vec<Claim>,
    orders: Vec<Order>,
    customers: Vec<Customer>,
    /// Claim stored under each document id.
    claim_by_id: HashMap<u64, usize>,
    sql: HashMap<&'static str, RowSet>,
    top_amounts: Vec<i64>,
    claim_pairs: HashSet<(i64, i64)>,
    limit_rows: HashSet<String>,
    /// Requests already compared with their reference answer.
    seen: HashSet<String>,
}

fn group_rows<K: Ord + std::fmt::Display>(
    groups: std::collections::BTreeMap<K, (i64, i64)>,
    with_total: bool,
) -> Vec<String> {
    groups
        .into_iter()
        .map(|(k, (n, total))| {
            if with_total {
                format!("group={k} n={n} total={total}")
            } else {
                format!("group={k} n={n}")
            }
        })
        .collect()
}

/// Every fixed statement's answer, recomputed from the inputs.
fn fixed_answers(
    c: &[Claim],
    orders: &[Order],
    customers: &[Customer],
) -> HashMap<&'static str, RowSet> {
    use std::collections::BTreeMap;
    let mut sql = HashMap::new();
    sql.insert(
        "wide",
        RowSet::of(c.iter().filter(|c| c.amount >= 500).map(|c| {
            format!(
                "amount={} city={} claimant={}",
                c.amount, c.city, c.claimant
            )
        })),
    );
    sql.insert(
        "selective",
        RowSet::of(
            c.iter()
                .filter(|c| c.amount >= 4_900)
                .map(|c| format!("amount={} claimant={}", c.amount, c.claimant)),
        ),
    );
    sql.insert("count", RowSet::of([format!("count={}", c.len())]));
    let mut by_city: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
    for x in c {
        let e = by_city.entry(x.city).or_default();
        e.0 += 1;
        e.1 += x.amount;
    }
    sql.insert("group", RowSet::of(group_rows(by_city, true)));
    let mut by_make: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
    for x in c.iter().filter(|c| c.year >= 2003) {
        by_make.entry(x.make).or_default().0 += 1;
    }
    sql.insert("nested", RowSet::of(group_rows(by_make, false)));
    let city_of: HashMap<u32, &str> = customers.iter().map(|c| (c.code, c.city)).collect();
    let mut joined: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
    for o in orders {
        if let Some(city) = city_of.get(&o.cust) {
            let e = joined.entry(city).or_default();
            e.0 += 1;
            e.1 += o.total;
        }
    }
    sql.insert("join", RowSet::of(group_rows(joined, true)));
    sql.insert(
        "contains",
        RowSet::of(
            c.iter()
                .filter(|c| c.notes().to_ascii_lowercase().contains("windshield"))
                .map(|c| format!("claimant={}", c.claimant)),
        ),
    );
    sql
}

impl Oracle {
    pub fn new(store: &Store) -> Oracle {
        let mut claims = Vec::new();
        let mut orders = Vec::new();
        let mut customers = Vec::new();
        let mut claim_by_id = HashMap::new();
        for (doc, id) in store.docs.iter().zip(&store.ids) {
            let Some(id) = id else { continue };
            match doc {
                Doc::Claim(c) => {
                    claim_by_id.insert(id.0, claims.len());
                    claims.push(c.clone());
                }
                Doc::Order(o) => orders.push(o.clone()),
                Doc::Customer(c) => customers.push(c.clone()),
                Doc::Call(_) | Doc::Mail(_) => {}
            }
        }
        let mut top_amounts: Vec<i64> = claims.iter().map(|c| c.amount).collect();
        top_amounts.sort_unstable_by(|a, b| b.cmp(a));
        top_amounts.truncate(10);
        Oracle {
            sql: fixed_answers(&claims, &orders, &customers),
            top_amounts,
            claim_pairs: claims.iter().map(|c| (c.claim_no, c.amount)).collect(),
            limit_rows: claims
                .iter()
                .map(|c| format!("amount={} claimant={}", c.amount, c.claimant))
                .collect(),
            seen: HashSet::new(),
            claims,
            orders,
            customers,
            claim_by_id,
        }
    }

    pub fn customers(&self) -> usize {
        self.customers.len()
    }

    pub fn orders(&self) -> usize {
        self.orders.len()
    }

    /// Check one answer. Cheap properties (row count, ordering) are
    /// checked on every execution; the full comparison with the reference
    /// answer runs the first time a distinct request is seen. `grown` is
    /// the number of claims ingested since the oracle was built (only
    /// `mixed_ops` writes while it reads), which widens the checks on
    /// statements whose answers may have gained rows.
    pub fn check(
        &mut self,
        imp: &Impliance,
        ask: &Ask,
        resp: &QueryResponse,
        grown: Option<&Growth>,
    ) -> Result<(), String> {
        let first = self.seen.insert(format!("{ask:?}"));
        match ask {
            Ask::Sql(t) => self.check_sql(t, resp.rows(), first, grown),
            Ask::PointOrder(id) => {
                let o = usize::try_from(id - 100_000)
                    .ok()
                    .and_then(|i| self.orders.get(i))
                    .ok_or_else(|| format!("no such order {id}"))?;
                expect_rows(resp.rows(), &[format!("sku={} total={}", o.sku, o.total)])
            }
            Ask::PointCustomer(code) => {
                let c = self
                    .customers
                    .get(*code as usize)
                    .ok_or_else(|| format!("no such customer {code}"))?;
                expect_rows(resp.rows(), &[format!("city={} name={}", c.city, c.name)])
            }
            Ask::Text(q) => {
                let got = scored_rows(resp.rows())?;
                check_order(&got)?;
                if grown.is_some() || !first {
                    return Ok(()); // the index moves under a writer: no fixed reference
                }
                let (want, total) = reference_hits(imp, q);
                if q.phrase && total >= 4 * q.k {
                    return Ok(()); // see `TextDraw::ask`: no single right answer
                }
                if got == want[..want.len().min(q.k)] {
                    Ok(())
                } else {
                    Err(format!("{q:?}: got {got:?}, want {want:?}"))
                }
            }
            Ask::Hybrid(q) => {
                let got: Vec<i64> = resp
                    .rows()
                    .iter()
                    .filter_map(|r| r.get("claim_no").as_i64())
                    .collect();
                if !first {
                    return if got.len() <= q.k {
                        Ok(())
                    } else {
                        Err(format!("{} rows for top {}", got.len(), q.k))
                    };
                }
                let want = self.fused_claims(imp, q);
                if got == want {
                    Ok(())
                } else {
                    Err(format!("{q:?}: got {got:?}, want {want:?}"))
                }
            }
        }
    }

    fn check_sql(
        &self,
        template: &str,
        rows: &[Row],
        first: bool,
        grown: Option<&Growth>,
    ) -> Result<(), String> {
        match template {
            "topn" => {
                let got: Vec<i64> = rows
                    .iter()
                    .filter_map(|r| r.get("amount").as_i64())
                    .collect();
                if got != self.top_amounts {
                    return Err(format!("topn amounts {got:?}, want {:?}", self.top_amounts));
                }
                for r in rows {
                    let pair = (
                        r.get("claim_no").as_i64().unwrap_or(-1),
                        r.get("amount").as_i64().unwrap_or(-1),
                    );
                    if !self.claim_pairs.contains(&pair) {
                        return Err(format!("topn row {pair:?} is no claim"));
                    }
                }
                Ok(())
            }
            "limit100" => {
                let want = self.claims.len().min(100);
                if rows.len() != want {
                    return Err(format!("limit100: {} rows, want {want}", rows.len()));
                }
                if first && grown.is_none() {
                    if let Some(bad) = rows
                        .iter()
                        .map(canon_row)
                        .find(|r| !self.limit_rows.contains(r))
                    {
                        return Err(format!("limit100 row {bad:?} is no claim"));
                    }
                }
                Ok(())
            }
            _ => {
                let want = self
                    .sql
                    .get(template)
                    .ok_or_else(|| format!("no oracle for {template}"))?;
                if let Some(g) = grown {
                    // only `selective` runs beside the writer
                    let hi = want.count + g.selective_rows();
                    return if (want.count..=hi).contains(&rows.len()) {
                        Ok(())
                    } else {
                        Err(format!(
                            "{template}: {} rows outside {}..={hi}",
                            rows.len(),
                            want.count
                        ))
                    };
                }
                if rows.len() != want.count {
                    return Err(format!(
                        "{template}: {} rows, want {}",
                        rows.len(),
                        want.count
                    ));
                }
                if first && RowSet::of(rows.iter().map(canon_row)) != *want {
                    return Err(format!("{template}: row checksum differs"));
                }
                Ok(())
            }
        }
    }

    /// Re-fuse the hybrid answer: full text hits on the notes, kept where
    /// the claim's amount passes the filter, ranked by reciprocal-rank
    /// fusion of (score desc, id asc) with (amount desc, id asc).
    fn fused_claims(&self, imp: &Impliance, q: &TextQuery) -> Vec<i64> {
        let (hits, _) = reference_hits(imp, q);
        let kept: Vec<(u64, &Claim)> = hits
            .iter()
            .filter_map(|(id, _)| {
                let c = &self.claims[*self.claim_by_id.get(id)?];
                (c.amount >= HYBRID_MIN_AMOUNT).then_some((*id, c))
            })
            .collect();
        // `hits` is already (score desc, id asc): position = text rank
        let mut by_amount: Vec<usize> = (0..kept.len()).collect();
        by_amount.sort_by(|&a, &b| {
            kept[b]
                .1
                .amount
                .cmp(&kept[a].1.amount)
                .then(kept[a].0.cmp(&kept[b].0))
        });
        let f = FusionSpec::default();
        let mut fused: Vec<f64> = (0..kept.len())
            .map(|rank| f.text_weight / (f.rrf_k + (rank + 1) as f64))
            .collect();
        for (rank, &i) in by_amount.iter().enumerate() {
            fused[i] += f.struct_weight / (f.rrf_k + (rank + 1) as f64);
        }
        let mut order: Vec<usize> = (0..kept.len()).collect();
        order.sort_by(|&a, &b| {
            fused[b]
                .total_cmp(&fused[a])
                .then(kept[a].0.cmp(&kept[b].0))
        });
        order
            .into_iter()
            .take(q.k)
            .map(|i| kept[i].1.claim_no)
            .collect()
    }
}

/// Claims the `mixed_ops` writer has handed over since the oracle was
/// built (noted before the hand-over, so it is never behind a reader).
#[derive(Debug, Default)]
pub struct Growth {
    selective: std::sync::atomic::AtomicUsize,
}

impl Growth {
    pub fn note(&self, doc: &Doc) {
        if matches!(doc, Doc::Claim(c) if c.amount >= 4_900) {
            self.selective
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    fn selective_rows(&self) -> usize {
        self.selective.load(std::sync::atomic::Ordering::SeqCst)
    }
}

fn expect_rows(rows: &[Row], want: &[String]) -> Result<(), String> {
    let got: Vec<String> = rows.iter().map(canon_row).collect();
    if got == want {
        Ok(())
    } else {
        Err(format!("got {got:?}, want {want:?}"))
    }
}

fn scored_rows(rows: &[Row]) -> Result<Vec<(u64, f64)>, String> {
    rows.iter()
        .map(|r| match (r.get("id"), r.get("score")) {
            (Value::Int(id), Value::Float(s)) => Ok((*id as u64, *s)),
            _ => Err(format!("row without id and score: {}", r.render())),
        })
        .collect()
}

/// Score descending, ties by ascending id.
fn check_order(hits: &[(u64, f64)]) -> Result<(), String> {
    match hits
        .windows(2)
        .find(|w| w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 >= w[1].0))
    {
        Some(w) => Err(format!("hits out of order: {w:?}")),
        None => Ok(()),
    }
}

/// Every match of `q`, fully scored, best first; and how many there are.
pub fn reference_hits(imp: &Impliance, q: &TextQuery) -> (Vec<(u64, f64)>, usize) {
    let idx = imp.text_index();
    let all = (idx.live_docs() as usize).max(1);
    let hits = if q.phrase {
        // impliance-lint: allow(L13) bench-only oracle, must bypass the pipeline under test
        search_phrase(idx, &q.text, q.path, all)
    } else {
        // impliance-lint: allow(L13) bench-only oracle, must bypass the pipeline under test
        search_topk(idx, &index_query(q, all)).0
    };
    let total = hits.len();
    (hits.into_iter().map(|h| (h.id.0, h.score)).collect(), total)
}

/// `q` as the index's own query type, with result bound `limit`.
pub fn index_query(q: &TextQuery, limit: usize) -> SearchQuery {
    let mut sq = SearchQuery::new(q.text.clone(), limit);
    if q.any_term {
        sq = sq.any_term();
    }
    if let Some(p) = q.path {
        sq = sq.within(p);
    }
    sq
}

/// Per-collection `COUNT(*)` through the query interface.
pub fn count_rows(imp: &Impliance, kind: Kind) -> Result<usize, String> {
    let sql = format!("SELECT COUNT(*) FROM {}", kind.collection());
    let resp = imp
        .query(QueryRequest::builder(sql).build())
        .map_err(|e| e.to_string())?;
    resp.rows()
        .first()
        .and_then(|r| r.get("count").as_i64())
        .map(|n| n as usize)
        .ok_or_else(|| format!("no count for {}", kind.collection()))
}
