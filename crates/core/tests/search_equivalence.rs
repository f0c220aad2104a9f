//! Property battery for the hybrid retrieval pipeline: the `IndexScan`
//! operator behind `QueryRequest::match_text(..).top_k(k)` must return
//! exactly the brute-force BM25 top-k — same documents, same scores, same
//! deterministic tie order (score descending, doc id ascending) — across
//! every combination of pipeline batch size {1, 64, 1024}, morsel workers
//! {1, 2, 8}, and k {1, 10, all}, in both conjunctive and disjunctive
//! mode.
//!
//! The oracle calls the index crate's `search_topk` directly with
//! `limit = live docs` (full scoring, no bounded-heap or upper-bound
//! pruning possible) and truncates — an evaluation path the operator's
//! early-termination machinery never takes, so agreement is meaningful.
//! The oracle call is allowed past clippy's `disallowed-methods` for this.

use proptest::prelude::*;

use impliance_core::{ApplianceConfig, Impliance, Input, NoFaults, QueryRequest, Stage};
use impliance_docmodel::Value;
use impliance_index::search::{search_topk, SearchQuery};

const VOCAB: &[&str] = &[
    "bumper",
    "hood",
    "damage",
    "scratch",
    "dent",
    "windshield",
    "claim",
    "minor",
    "severe",
    "corrosion",
];

const BATCH_SIZES: &[usize] = &[1, 64, 1024];
const WORKER_COUNTS: &[usize] = &[1, 2, 8];

/// Debug builds run proptest cases slower; keep the battery small there
/// and let `--release` run the full set.
const fn cases(release: u32) -> u32 {
    if cfg!(debug_assertions) {
        release / 4 + 2
    } else {
        release
    }
}

fn seeded(docs: &[Vec<usize>]) -> Impliance {
    let imp = Impliance::boot(ApplianceConfig::default());
    for words in docs {
        let notes: Vec<&str> = words.iter().map(|&w| VOCAB[w]).collect();
        imp.ingest(Input::Json(
            "claims",
            &format!(r#"{{"notes": "{}"}}"#, notes.join(" ")),
        ))
        .expect("ingest");
    }
    imp.maintain(Stage::Index, None, &NoFaults);
    imp
}

/// Brute-force reference: score every match (limit = live docs means the
/// bounded heap never evicts and the MaxScore bound never prunes), then
/// take the first k of the (score desc, id asc) order.
fn oracle(imp: &Impliance, query: &str, any_term: bool, k: usize) -> Vec<(i64, f64)> {
    let idx = imp.text_index();
    let all = (idx.live_docs() as usize).max(1);
    let mut q = SearchQuery::new(query, all);
    if any_term {
        q = q.any_term();
    }
    #[allow(clippy::disallowed_methods, reason = "the index is the oracle here")]
    let (hits, _stats) = search_topk(idx, &q);
    hits.into_iter()
        .take(k)
        .map(|h| (h.id.0 as i64, h.score))
        .collect()
}

/// Pipeline under test: the redesigned query API down through IndexScan.
/// Returns the scored rows and whether the response reported a top-k
/// early termination.
fn pipeline(
    imp: &Impliance,
    query: &str,
    any_term: bool,
    k: usize,
    batch: usize,
    workers: usize,
) -> (Vec<(i64, f64)>, bool) {
    let mut builder = QueryRequest::builder("")
        .match_text("*", query)
        .top_k(k)
        .batch_size(batch)
        .parallelism(workers);
    if any_term {
        builder = builder.any_term();
    }
    let resp = imp.query(builder.build()).expect("query");
    let early = resp.exec_stats().early_terminations > 0;
    let rows = resp
        .rows()
        .iter()
        .map(|row| {
            let Value::Int(id) = row.get("id") else {
                panic!("row without integer id: {row:?}");
            };
            let Value::Float(score) = row.get("score") else {
                panic!("row without float score: {row:?}");
            };
            (*id, *score)
        })
        .collect();
    (rows, early)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    #[test]
    fn index_scan_topk_equals_brute_force(
        docs in proptest::collection::vec(
            proptest::collection::vec(0usize..VOCAB.len(), 1..12),
            1..40,
        ),
        query_words in proptest::collection::vec(0usize..VOCAB.len(), 1..3),
        any_term in any::<bool>(),
    ) {
        let imp = seeded(&docs);
        let query: Vec<&str> = query_words.iter().map(|&w| VOCAB[w]).collect();
        let query = query.join(" ");
        // The oracle scores every match and truncates, so one full
        // evaluation serves every k.
        let all = oracle(&imp, &query, any_term, docs.len());
        let matched = all.len();
        for &k in &[1usize, 10, docs.len()] {
            let want = all[..k.min(matched)].to_vec();
            for &batch in BATCH_SIZES {
                for &workers in WORKER_COUNTS {
                    let (got, early) = pipeline(&imp, &query, any_term, k, batch, workers);
                    // A bounded k — more matches than k — must be seen
                    // to cut work in the response's own stats.
                    prop_assert!(
                        early || matched <= k,
                        "k={} of {} matches reported no early termination",
                        k,
                        matched
                    );
                    prop_assert_eq!(
                        &got,
                        &want,
                        "k={} batch={} workers={} any_term={} query={:?}",
                        k,
                        batch,
                        workers,
                        any_term,
                        query
                    );
                }
            }
        }
    }

    // Ties are broken by ascending doc id at every k, not just when the
    // whole result set is requested: identical documents score
    // identically, so any prefix of the ranking is id-sorted within a
    // score class.
    #[test]
    fn tie_order_is_deterministic_across_identical_documents(
        copies in 2usize..12,
        k in 1usize..6,
    ) {
        let docs: Vec<Vec<usize>> = (0..copies).map(|_| vec![0, 2]).collect();
        let imp = seeded(&docs);
        for &batch in BATCH_SIZES {
            for &workers in WORKER_COUNTS {
                let (got, _) = pipeline(&imp, "bumper damage", false, k, batch, workers);
                prop_assert_eq!(got.len(), k.min(copies));
                let ids: Vec<i64> = got.iter().map(|(id, _)| *id).collect();
                let mut sorted = ids.clone();
                sorted.sort_unstable();
                prop_assert_eq!(&ids, &sorted, "equal scores break ties by id asc");
                for window in got.windows(2) {
                    prop_assert!(window[0].1 >= window[1].1);
                }
            }
        }
    }
}
