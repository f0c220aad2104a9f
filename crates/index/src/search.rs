//! BM25 top-k keyword search over the inverted index.
//!
//! §3.2.1: "The first [query interface] is keyword-driven search, and can
//! immediately be used out of the box." Search supports AND/OR semantics,
//! optional restriction to a structural path, and returns the top-k hits
//! by BM25 — the "top-k results" retrieval characteristic the simple
//! planner exploits (§3.3).

use std::collections::BinaryHeap;
use std::collections::{HashMap, HashSet};

use impliance_docmodel::DocId;

use crate::inverted::{DocOrdinal, InvertedIndex};
use crate::tokenize::tokenize_query;

/// How multiple query terms combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchMode {
    /// Every term must occur (conjunctive).
    #[default]
    And,
    /// Any term may occur (disjunctive).
    Or,
}

/// A keyword query.
#[derive(Debug, Clone)]
pub struct SearchQuery {
    /// Raw query text; analyzed with the document pipeline.
    pub text: String,
    /// Term combination semantics.
    pub mode: SearchMode,
    /// Restrict matching to one structural path, if set.
    pub path: Option<String>,
    /// Maximum hits returned.
    pub limit: usize,
}

impl SearchQuery {
    /// Conjunctive top-`limit` query over all paths.
    pub fn new(text: impl Into<String>, limit: usize) -> SearchQuery {
        SearchQuery {
            text: text.into(),
            mode: SearchMode::And,
            path: None,
            limit,
        }
    }

    /// Switch to disjunctive semantics.
    pub fn any_term(mut self) -> SearchQuery {
        self.mode = SearchMode::Or;
        self
    }

    /// Restrict to a structural path.
    pub fn within(mut self, path: impl Into<String>) -> SearchQuery {
        self.path = Some(path.into());
        self
    }
}

/// One search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Matching document.
    pub id: DocId,
    /// BM25 relevance score (higher is better).
    pub score: f64,
}

const BM25_K1: f64 = 1.2;
const BM25_B: f64 = 0.75;

/// Evaluation statistics from [`search_topk`]: how much of the candidate
/// space the bounded-heap / upper-bound evaluation actually touched. The
/// query pipeline folds these into `ExecStats` so top-k early termination
/// is observable, not assumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopKStats {
    /// Candidates whose BM25 score was fully accumulated.
    pub candidates_scored: usize,
    /// Matching candidates never scored because their best-possible score
    /// (sum of remaining per-term upper bounds, MaxScore-style) could not
    /// reach the current k-th best accumulated score. Disjunctive mode
    /// only — conjunctive candidates are confined to the rarest term's
    /// postings and all survive to scoring.
    pub candidates_pruned: usize,
    /// Documents satisfying the query semantics (scored + pruned).
    pub total_matched: usize,
}

impl TopKStats {
    /// True when the evaluation did less work than scoring every match:
    /// either upper-bound pruning fired, or more documents matched than
    /// the bounded heap retained.
    pub fn early_terminated(&self, k: usize) -> bool {
        self.candidates_pruned > 0 || self.total_matched > k
    }
}

/// Execute a query against an index, returning hits ordered by descending
/// score (ties broken by ascending id for determinism).
pub fn search(index: &InvertedIndex, query: &SearchQuery) -> Vec<SearchHit> {
    search_topk(index, query).0
}

/// Top-k BM25 evaluation with upper-bound pruning and honest stats.
///
/// Terms are processed in descending order of their score upper bound
/// `idf * (k1 + 1)`. Once at least `limit` candidates have accumulated
/// partial scores and the sum of the remaining terms' upper bounds falls
/// below the k-th best partial score, a document first appearing in a
/// later postings list provably cannot reach the top-k and is skipped
/// (counted in [`TopKStats::candidates_pruned`]); already-seen candidates
/// keep accumulating, so the result is exact — identical hits, scores,
/// and tie order to scoring every match.
pub fn search_topk(index: &InvertedIndex, query: &SearchQuery) -> (Vec<SearchHit>, TopKStats) {
    let mut stats = TopKStats::default();
    let terms = tokenize_query(&query.text);
    if terms.is_empty() || query.limit == 0 {
        return (Vec::new(), stats);
    }
    let n = f64::from(index.live_docs()).max(1.0);
    let avgdl = index.avg_doc_len().max(1.0);

    // Per-term postings with idf and the per-term score upper bound
    // idf * (k1 + 1) — the supremum of the tf-normalization factor.
    struct TermList {
        idf: f64,
        ub: f64,
        postings: Vec<crate::postings::Posting>,
    }
    let mut lists: Vec<TermList> = Vec::with_capacity(terms.len());
    for term in &terms {
        let postings = index.postings(term, query.path.as_deref());
        let df = postings.len() as f64;
        if df == 0.0 {
            if query.mode == SearchMode::And {
                return (Vec::new(), stats); // a conjunctive term with no postings
            }
            continue;
        }
        let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
        lists.push(TermList {
            idf,
            ub: idf * (BM25_K1 + 1.0),
            postings,
        });
    }
    if lists.is_empty() {
        return (Vec::new(), stats);
    }
    let needed = lists.len();
    match query.mode {
        // Conjunctive: candidates are confined to the rarest term's
        // postings; process that list first so later terms only update
        // the (small) existing candidate set.
        SearchMode::And => lists.sort_by(|a, b| a.postings.len().cmp(&b.postings.len())),
        // Disjunctive: highest upper bound first, so the k-th best
        // partial score grows fast and tail terms prune hard.
        SearchMode::Or => lists.sort_by(|a, b| b.ub.total_cmp(&a.ub)),
    }
    // tail_ub[i] = sum of upper bounds of lists i.. (what a candidate
    // first appearing at list i could still score, at most).
    let mut tail_ub = vec![0.0f64; needed + 1];
    for i in (0..needed).rev() {
        tail_ub[i] = tail_ub[i + 1] + lists[i].ub;
    }

    let mut scores: HashMap<DocOrdinal, (f64, usize)> = HashMap::new();
    let mut pruned: HashSet<DocOrdinal> = HashSet::new();
    for (i, list) in lists.iter().enumerate() {
        // Threshold for admitting NEW candidates at this list: the k-th
        // best partial score so far (a lower bound on the k-th best final
        // score). Valid only once `limit` candidates exist.
        let theta = if query.mode == SearchMode::Or && i > 0 && scores.len() >= query.limit {
            let mut partials: Vec<f64> = scores.values().map(|(s, _)| *s).collect();
            partials.sort_unstable_by(|a, b| b.total_cmp(a));
            Some(partials[query.limit - 1])
        } else {
            None
        };
        for p in &list.postings {
            let is_new = !scores.contains_key(&p.ordinal);
            if is_new {
                match query.mode {
                    // AND: docs outside the rarest term's postings are
                    // non-matches, not candidates.
                    SearchMode::And if i > 0 => continue,
                    // OR: a new candidate here tops out at tail_ub[i];
                    // below theta it provably misses the top-k.
                    SearchMode::Or => {
                        if let Some(t) = theta {
                            if tail_ub[i] < t && pruned.insert(p.ordinal) {
                                continue;
                            } else if pruned.contains(&p.ordinal) {
                                continue;
                            }
                        }
                    }
                    _ => {}
                }
            }
            let tf = f64::from(p.tf());
            let dl = f64::from(index.doc_len(p.ordinal));
            let norm = tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl));
            let entry = scores.entry(p.ordinal).or_insert((0.0, 0));
            entry.0 += list.idf * norm;
            entry.1 += 1;
        }
    }

    // Top-k selection with a bounded min-heap.
    #[derive(PartialEq)]
    struct HeapEntry(f64, DocOrdinal);
    impl Eq for HeapEntry {}
    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // min-heap by score, then *max* by ordinal so that the heap
            // evicts higher ordinals first on ties (keeps lowest ids).
            other.0.total_cmp(&self.0).then(self.1.cmp(&other.1))
        }
    }

    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(query.limit + 1);
    for (&ord, &(score, matched)) in &scores {
        if query.mode == SearchMode::And && matched < needed {
            continue;
        }
        stats.total_matched += 1;
        stats.candidates_scored += 1;
        heap.push(HeapEntry(score, ord));
        if heap.len() > query.limit {
            heap.pop();
        }
    }
    stats.candidates_pruned = pruned.len();
    stats.total_matched += pruned.len();

    let mut hits: Vec<SearchHit> = heap
        .into_iter()
        .filter_map(|HeapEntry(score, ord)| {
            index.resolve(ord).map(|(id, _)| SearchHit { id, score })
        })
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    (hits, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_docmodel::{DocumentBuilder, SourceFormat};

    fn index_with(texts: &[&str]) -> InvertedIndex {
        let idx = InvertedIndex::new(4);
        for (i, t) in texts.iter().enumerate() {
            let d = DocumentBuilder::new(DocId(i as u64), SourceFormat::Text, "t")
                .field("body", *t)
                .build();
            idx.index_document(&d);
        }
        idx
    }

    #[test]
    fn and_requires_all_terms() {
        let idx = index_with(&["volvo bumper", "volvo hood", "saab bumper"]);
        let hits = search(&idx, &SearchQuery::new("volvo bumper", 10));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, DocId(0));
    }

    #[test]
    fn or_accepts_any_term() {
        let idx = index_with(&["volvo bumper", "volvo hood", "saab bumper"]);
        let hits = search(&idx, &SearchQuery::new("volvo bumper", 10).any_term());
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn missing_term_conjunctive_returns_empty() {
        let idx = index_with(&["volvo bumper"]);
        assert!(search(&idx, &SearchQuery::new("volvo tesla", 10)).is_empty());
    }

    #[test]
    fn rare_terms_score_higher() {
        // "common" in all docs; "rare" only in doc 2.
        let idx = index_with(&["common words", "common words", "common rare words"]);
        let hits = search(&idx, &SearchQuery::new("common rare", 10).any_term());
        assert_eq!(hits[0].id, DocId(2), "doc with rare term must rank first");
    }

    #[test]
    fn limit_caps_results_keeping_best() {
        let idx = index_with(&[
            "apple apple apple",
            "apple apple filler filler filler filler",
            "apple filler filler filler filler filler filler",
        ]);
        let hits = search(&idx, &SearchQuery::new("apple", 2));
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, DocId(0), "highest tf, shortest doc first");
    }

    #[test]
    fn path_restriction() {
        let idx = InvertedIndex::new(4);
        let d = DocumentBuilder::new(DocId(1), SourceFormat::Json, "c")
            .field("title", "annual report")
            .field("body", "fraud detected in claims")
            .build();
        idx.index_document(&d);
        assert_eq!(
            search(&idx, &SearchQuery::new("fraud", 10).within("body")).len(),
            1
        );
        assert!(search(&idx, &SearchQuery::new("fraud", 10).within("title")).is_empty());
    }

    #[test]
    fn empty_query_or_zero_limit() {
        let idx = index_with(&["something"]);
        assert!(search(&idx, &SearchQuery::new("", 10)).is_empty());
        assert!(search(&idx, &SearchQuery::new("something", 0)).is_empty());
    }

    #[test]
    fn results_are_deterministic_on_ties() {
        let idx = index_with(&["same text", "same text", "same text"]);
        let hits = search(&idx, &SearchQuery::new("same", 3));
        let ids: Vec<u64> = hits.iter().map(|h| h.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn topk_equals_full_scoring_and_prunes() {
        // 100 docs all contain the ubiquitous "alpha"; every 7th also has
        // the rare "beta". With k=5 the rare term's list fills the heap
        // first and the tail upper bound prunes the alpha-only docs.
        let texts: Vec<String> = (0..100)
            .map(|i| {
                if i % 7 == 0 {
                    format!("alpha beta doc{i}")
                } else {
                    format!("alpha doc{i}")
                }
            })
            .collect();
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let idx = index_with(&refs);
        let full = search(&idx, &SearchQuery::new("alpha beta", 100).any_term());
        let (topk, stats) = search_topk(&idx, &SearchQuery::new("alpha beta", 5).any_term());
        assert_eq!(topk.len(), 5);
        for (a, b) in topk.iter().zip(full.iter()) {
            assert_eq!(a.id, b.id);
            assert!((a.score - b.score).abs() < 1e-12);
        }
        assert!(stats.candidates_pruned > 0, "tail term must prune");
        assert_eq!(stats.total_matched, 100);
        assert!(stats.early_terminated(5));
    }

    #[test]
    fn topk_stats_conjunctive_counts_matches() {
        let idx = index_with(&["volvo bumper", "volvo hood", "volvo bumper rear"]);
        let (hits, stats) = search_topk(&idx, &SearchQuery::new("volvo bumper", 1));
        assert_eq!(hits.len(), 1);
        assert_eq!(stats.total_matched, 2);
        assert_eq!(stats.candidates_pruned, 0);
        assert!(stats.early_terminated(1), "2 matched, heap kept 1");
    }

    #[test]
    fn updated_documents_searched_at_latest_version() {
        let idx = InvertedIndex::new(4);
        let d = DocumentBuilder::new(DocId(1), SourceFormat::Text, "t")
            .field("body", "draft wording")
            .build();
        idx.index_document(&d);
        let d2 = d.new_version(
            impliance_docmodel::Node::map([(
                "body".into(),
                impliance_docmodel::Node::scalar("final wording"),
            )]),
            1,
        );
        idx.index_document(&d2);
        assert!(search(&idx, &SearchQuery::new("draft", 10)).is_empty());
        assert_eq!(search(&idx, &SearchQuery::new("final", 10)).len(), 1);
    }
}

/// Exact-phrase search using token positions. A document matches when the
/// query's tokens occur at consecutive analyzed positions (stopword slots
/// included, so "jack *of* all trades" matches with `of` unindexed).
/// Hits are scored by phrase occurrence count, ties by ascending id.
///
/// Positions are document-global but contiguous per leaf, so phrases
/// match within a single field value — the intuitive behaviour.
pub fn search_phrase(
    index: &InvertedIndex,
    phrase: &str,
    path: Option<&str>,
    limit: usize,
) -> Vec<SearchHit> {
    let tokens = crate::tokenize::tokenize(phrase);
    if tokens.is_empty() || limit == 0 {
        return Vec::new();
    }
    if tokens.len() == 1 {
        let mut q = SearchQuery::new(tokens[0].text.clone(), limit);
        if let Some(p) = path {
            q = q.within(p.to_string());
        }
        return search(index, &q);
    }
    // The first term's postings arrive in ascending ordinal order and are
    // walked in that order; the other terms are probed by ordinal.
    let first = index.postings(&tokens[0].text, path);
    if first.is_empty() {
        return Vec::new();
    }
    let mut rest: Vec<HashMap<DocOrdinal, Vec<u32>>> = Vec::new();
    for t in &tokens[1..] {
        let postings = index.postings(&t.text, path);
        if postings.is_empty() {
            return Vec::new();
        }
        rest.push(
            postings
                .into_iter()
                .map(|p| (p.ordinal, p.positions))
                .collect(),
        );
    }
    // Every matching document is counted before any is dropped: the
    // ranking below is by occurrence count, which no prefix of the
    // candidates bounds.
    let mut out: Vec<SearchHit> = Vec::new();
    for p in &first {
        let occurrences = p
            .positions
            .iter()
            .filter(|&&base| {
                tokens[1..].iter().zip(&rest).all(|(t, positions)| {
                    let want = base + t.position - tokens[0].position;
                    positions
                        .get(&p.ordinal)
                        .is_some_and(|ps| ps.binary_search(&want).is_ok())
                })
            })
            .count();
        if occurrences == 0 {
            continue;
        }
        if let Some((id, _)) = index.resolve(p.ordinal) {
            out.push(SearchHit {
                id,
                score: occurrences as f64,
            });
        }
    }
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    out.truncate(limit);
    out
}

#[cfg(test)]
mod phrase_tests {
    use super::*;
    use impliance_docmodel::{DocumentBuilder, SourceFormat};

    fn index_with(texts: &[&str]) -> InvertedIndex {
        let idx = InvertedIndex::new(4);
        for (i, t) in texts.iter().enumerate() {
            let d = DocumentBuilder::new(DocId(i as u64), SourceFormat::Text, "t")
                .field("body", *t)
                .build();
            idx.index_document(&d);
        }
        idx
    }

    #[test]
    fn phrase_requires_adjacency() {
        let idx = index_with(&[
            "total cost ownership matters",
            "the cost was total nonsense ownership",
            "low total cost today",
        ]);
        let hits = search_phrase(&idx, "total cost", None, 10);
        let ids: Vec<u64> = hits.iter().map(|h| h.id.0).collect();
        assert_eq!(ids, vec![0, 2], "doc 1 has both words but not adjacent");
    }

    #[test]
    fn phrase_spans_dropped_stopwords() {
        // "of" is a stopword: unindexed, but its position slot remains, so
        // any single word may fill it (standard stopword-slot semantics) —
        // while a different word count cannot.
        let idx = index_with(&[
            "jack of all trades",
            "jack likes all trades",
            "jack of nearly all trades",
        ]);
        let hits = search_phrase(&idx, "jack of all trades", None, 10);
        let ids: Vec<u64> = hits.iter().map(|h| h.id.0).collect();
        assert_eq!(
            ids,
            vec![0, 1],
            "one-word slot matches; two-word gap does not"
        );
    }

    #[test]
    fn phrase_counts_occurrences_for_ranking() {
        let idx = index_with(&["red car and red car again", "one red car only"]);
        let hits = search_phrase(&idx, "red car", None, 10);
        assert_eq!(hits[0].id, DocId(0));
        assert_eq!(hits[0].score, 2.0);
        assert_eq!(hits[1].score, 1.0);
    }

    #[test]
    fn phrase_top_hit_survives_many_weaker_matches() {
        // 240 documents hold the phrase once, one holds it three times:
        // with far more than `limit` matches the best hit must still win,
        // and the same request must answer the same on every index.
        let mut texts = vec!["one red car only"; 240];
        texts[137] = "red car beside a red car behind a red car";
        for build in 0..20 {
            let hits = search_phrase(&index_with(&texts), "red car", None, 1);
            assert_eq!(hits.len(), 1);
            assert_eq!(hits[0].id, DocId(137), "index build {build}");
            assert_eq!(hits[0].score, 3.0);
        }
    }

    #[test]
    fn phrase_respects_path_restriction() {
        let idx = InvertedIndex::new(4);
        let d = DocumentBuilder::new(DocId(1), SourceFormat::Json, "c")
            .field("title", "quarterly earnings call")
            .field("body", "the earnings were discussed on the call")
            .build();
        idx.index_document(&d);
        assert_eq!(
            search_phrase(&idx, "earnings call", Some("title"), 10).len(),
            1
        );
        assert!(search_phrase(&idx, "earnings call", Some("body"), 10).is_empty());
    }

    #[test]
    fn phrase_does_not_cross_field_boundaries() {
        let idx = InvertedIndex::new(4);
        let d = DocumentBuilder::new(DocId(1), SourceFormat::Json, "c")
            .field("a", "ends with alpha")
            .field("b", "beta starts here")
            .build();
        idx.index_document(&d);
        assert!(search_phrase(&idx, "alpha beta", None, 10).is_empty());
    }

    #[test]
    fn single_word_phrase_degenerates_to_term_search() {
        let idx = index_with(&["solo word"]);
        assert_eq!(search_phrase(&idx, "solo", None, 10).len(), 1);
        assert!(search_phrase(&idx, "", None, 10).is_empty());
    }
}
