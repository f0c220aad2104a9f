//! Keyword-search candidate retrieval for embedders.
//!
//! Everything outside `crates/query` reaches text search through this
//! module or through the full query pipeline (`IndexScan` behind
//! `Impliance::query`) — direct calls into `impliance_index::search` are
//! denied by clippy (`disallowed-methods` in the root `clippy.toml`) so
//! that scoring, top-k semantics, and the `query.search.*` observability
//! counters stay on one code path.

use impliance_index::{InvertedIndex, SearchHit};

/// Top-`limit` BM25-scored candidates matching **every** term of `query`
/// (conjunctive semantics, the historical default). Deterministic order:
/// score descending, then doc id ascending.
pub fn keyword_candidates(index: &InvertedIndex, query: &str, limit: usize) -> Vec<SearchHit> {
    let (hits, _stats, _k) =
        crate::batch::run_index_search(index, query, None, false, false, Some(limit));
    hits
}

/// Like [`keyword_candidates`] but matching **any** term (disjunctive).
pub fn keyword_candidates_any(index: &InvertedIndex, query: &str, limit: usize) -> Vec<SearchHit> {
    let (hits, _stats, _k) =
        crate::batch::run_index_search(index, query, None, true, false, Some(limit));
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_docmodel::{DocId, DocumentBuilder, SourceFormat};

    fn corpus() -> InvertedIndex {
        let idx = InvertedIndex::new(4);
        for (id, notes) in [
            (1u64, "bumper cracked badly"),
            (2, "bumper scratched"),
            (3, "windshield cracked"),
        ] {
            let d = DocumentBuilder::new(DocId(id), SourceFormat::Json, "claims")
                .field("notes", notes)
                .build();
            idx.index_document(&d);
        }
        idx
    }

    #[test]
    fn conjunctive_by_default_disjunctive_on_request() {
        let idx = corpus();
        let and: Vec<u64> = keyword_candidates(&idx, "bumper cracked", 10)
            .into_iter()
            .map(|h| h.id.0)
            .collect();
        assert_eq!(and, vec![1]);
        let mut or: Vec<u64> = keyword_candidates_any(&idx, "bumper cracked", 10)
            .into_iter()
            .map(|h| h.id.0)
            .collect();
        or.sort_unstable();
        assert_eq!(or, vec![1, 2, 3]);
    }

    #[test]
    fn limit_caps_candidates() {
        let idx = corpus();
        assert_eq!(keyword_candidates_any(&idx, "bumper cracked", 2).len(), 2);
    }
}
