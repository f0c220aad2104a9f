//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;

/// Debug builds run ~10x slower; scale case counts so `cargo test` stays
/// fast while `--release` runs the full battery.
const fn cases(release: u32) -> u32 {
    if cfg!(debug_assertions) {
        release / 8 + 4
    } else {
        release
    }
}

use impliance::docmodel::{json, DocId, Document, Node, Path, SourceFormat, Value};
use impliance::index::{InvertedIndex, PathValueIndex};
use impliance::storage::{codec, compress, Predicate};

// ---------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // finite floats only: JSON cannot carry NaN/Inf
        (-1e12f64..1e12f64).prop_map(Value::Float),
        "[a-zA-Z0-9 _.-]{0,24}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
        any::<i64>().prop_map(Value::Timestamp),
    ]
}

fn arb_node() -> impl Strategy<Value = Node> {
    let leaf = arb_value().prop_map(Node::Value);
    leaf.prop_recursive(3, 48, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..5).prop_map(Node::Seq),
            proptest::collection::btree_map("[a-z][a-z0-9_]{0,8}", inner, 0..5).prop_map(Node::Map),
        ]
    })
}

/// Trees whose map keys collide with the path syntax: `.`, `[`, `]` and
/// the empty key, from a two-letter alphabet so that renderings meet.
fn arb_tricky_node() -> impl Strategy<Value = Node> {
    let leaf = (0i64..4).prop_map(|i| Node::Value(Value::Int(i)));
    leaf.prop_recursive(4, 40, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Node::Seq),
            proptest::collection::btree_map("[ab.\\[\\]]{0,3}", inner, 0..4).prop_map(Node::Map),
        ]
    })
}

fn arb_document() -> impl Strategy<Value = Document> {
    (
        any::<u64>(),
        0u8..7,
        "[a-z]{1,10}",
        any::<i64>(),
        arb_node(),
    )
        .prop_map(|(id, fmt, collection, ts, root)| {
            let format = match fmt {
                0 => SourceFormat::RelationalRow,
                1 => SourceFormat::Json,
                2 => SourceFormat::Csv,
                3 => SourceFormat::Text,
                4 => SourceFormat::Email,
                5 => SourceFormat::KeyValue,
                _ => SourceFormat::Binary,
            };
            Document::new(DocId(id), format, collection, ts, root)
        })
}

// ---------------------------------------------------------------------
// codec invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(128)))]

    #[test]
    fn codec_roundtrips_any_document(doc in arb_document()) {
        let encoded = codec::encode_document_vec(&doc);
        let (back, consumed) = codec::decode_document(&encoded, 0).unwrap();
        prop_assert_eq!(consumed, encoded.len());
        prop_assert_eq!(back, doc);
    }

    #[test]
    fn codec_never_panics_on_corruption(doc in arb_document(), flips in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..4)) {
        let mut encoded = codec::encode_document_vec(&doc);
        for (idx, byte) in flips {
            let i = idx.index(encoded.len());
            encoded[i] ^= byte;
        }
        // must either decode to something or error — never panic
        let _ = codec::decode_document(&encoded, 0);
    }

    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        codec::write_varint(&mut buf, v);
        let (back, used) = codec::read_varint(&buf, 0).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(used, buf.len());
    }

    #[test]
    fn zigzag_roundtrip(v in any::<i64>()) {
        prop_assert_eq!(codec::unzigzag(codec::zigzag(v)), v);
    }
}

// ---------------------------------------------------------------------
// compression invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(96)))]

    #[test]
    fn lz_roundtrips_any_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let z = compress::lz_compress(&data);
        prop_assert_eq!(compress::lz_decompress(&z).unwrap(), data);
    }

    #[test]
    fn rle_roundtrips_any_bytes(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let z = compress::rle_compress(&data);
        prop_assert_eq!(compress::rle_decompress(&z).unwrap(), data);
    }
}

// ---------------------------------------------------------------------
// JSON invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(128)))]

    #[test]
    fn json_emit_parse_roundtrip(node in arb_node()) {
        let text = json::emit(&node);
        let back = json::parse(&text).unwrap();
        prop_assert_eq!(back, node);
    }

    #[test]
    fn json_pretty_equals_compact(node in arb_node()) {
        let compact = json::parse(&json::emit(&node)).unwrap();
        let pretty = json::parse(&json::emit_pretty(&node)).unwrap();
        prop_assert_eq!(compact, pretty);
    }

    #[test]
    fn json_parser_never_panics(input in "\\PC{0,64}") {
        let _ = json::parse(&input);
    }
}

// ---------------------------------------------------------------------
// path invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(128)))]

    #[test]
    fn path_parse_display_roundtrip(
        fields in proptest::collection::vec("[a-z][a-z0-9_]{0,6}", 1..5),
        indexes in proptest::collection::vec(proptest::option::of(0usize..20), 1..5),
    ) {
        // build a syntactically valid path string
        let mut s = String::new();
        for (i, f) in fields.iter().enumerate() {
            if i > 0 {
                s.push('.');
            }
            s.push_str(f);
            if let Some(Some(idx)) = indexes.get(i) {
                s.push_str(&format!("[{idx}]"));
            }
        }
        let p = Path::parse(&s);
        prop_assert_eq!(p.to_string(), s);
    }

    #[test]
    fn path_parse_never_panics(s in "\\PC{0,40}") {
        let _ = Path::parse(&s);
    }

    #[test]
    fn structural_form_is_exact_form_with_collapsed_indexes(
        fields in proptest::collection::vec("[a-z]{1,5}", 1..4),
        idx in 0usize..100,
    ) {
        let exact = format!("{}[{}]", fields.join("."), idx);
        let p = Path::parse(&exact);
        prop_assert_eq!(p.structural_form(), format!("{}[]", fields.join(".")));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(1024)))]

    // The resolver walks only the branches whose rendering is a prefix of
    // the path; it must pick exactly the leaves, in order, that rendering
    // every leaf's path would — map keys holding `.`, `[` or `]`, empty
    // keys and nested sequences included.
    #[test]
    fn values_at_is_leaves_filtered_on_structural_form(
        node in arb_tricky_node(),
        pick in any::<prop::sample::Index>(),
        cut in any::<prop::sample::Index>(),
        noise in "[ab.\\[\\]]{0,6}",
    ) {
        let leaves = node.leaves();
        let forms: Vec<String> = leaves.iter().map(|(p, _)| p.structural_form()).collect();
        let mut paths = vec![noise];
        if !forms.is_empty() {
            let form = forms[pick.index(forms.len())].clone();
            let prefix: String = form.chars().take(cut.index(form.len() + 1)).collect();
            paths.extend([form, prefix]);
        }
        for path in &paths {
            let want: Vec<*const Value> = leaves
                .iter()
                .zip(&forms)
                .filter(|(_, f)| *f == path)
                .map(|((_, v), _)| *v as *const Value)
                .collect();
            let got: Vec<*const Value> = node.values_at(path).map(|v| v as *const Value).collect();
            prop_assert_eq!(got, want, "path {:?}", path);
        }
    }
}

// ---------------------------------------------------------------------
// value ordering invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(256)))]

    #[test]
    fn value_total_cmp_is_total_and_antisymmetric(a in arb_value(), b in arb_value()) {
        use std::cmp::Ordering;
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        if ab == Ordering::Equal {
            prop_assert!(a.query_eq(&b));
        }
    }

    #[test]
    fn value_total_cmp_is_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        let mut vals = [a, b, c];
        vals.sort_by(|x, y| x.total_cmp(y));
        prop_assert!(vals[0].total_cmp(&vals[1]).is_le());
        prop_assert!(vals[1].total_cmp(&vals[2]).is_le());
        prop_assert!(vals[0].total_cmp(&vals[2]).is_le());
    }
}

// ---------------------------------------------------------------------
// index/predicate consistency: the value index agrees with brute force
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    #[test]
    fn value_index_agrees_with_predicate_scan(
        amounts in proptest::collection::vec(0i64..50, 1..40),
        probe in 0i64..50,
    ) {
        let index = PathValueIndex::new();
        let mut docs = Vec::new();
        for (i, a) in amounts.iter().enumerate() {
            let d = Document::new(
                DocId(i as u64),
                SourceFormat::Json,
                "c",
                0,
                Node::map([("amount".to_string(), Node::scalar(*a))]),
            );
            index.index_document(&d);
            docs.push(d);
        }
        // equality
        let from_index = index.lookup_eq("amount", &Value::Int(probe));
        let pred = Predicate::Eq("amount".into(), Value::Int(probe));
        let from_scan: Vec<DocId> =
            docs.iter().filter(|d| pred.matches(d)).map(|d| d.id()).collect();
        prop_assert_eq!(from_index, from_scan);
        // range
        let lo = Value::Int(probe.saturating_sub(10));
        let hi = Value::Int(probe);
        let from_index = index.lookup_range("amount", Some(&lo), Some(&hi));
        let pred = Predicate::And(vec![
            Predicate::Ge("amount".into(), lo),
            Predicate::Le("amount".into(), hi),
        ]);
        let from_scan: Vec<DocId> =
            docs.iter().filter(|d| pred.matches(d)).map(|d| d.id()).collect();
        prop_assert_eq!(from_index, from_scan);
    }

    #[test]
    fn search_finds_exactly_documents_containing_all_terms(
        bodies in proptest::collection::vec(
            proptest::collection::vec("[a-d]{3}", 1..6), 1..12),
        term_doc in any::<prop::sample::Index>(),
    ) {
        let index = InvertedIndex::new(4);
        let mut docs = Vec::new();
        for (i, words) in bodies.iter().enumerate() {
            let text = words.join(" ");
            let d = Document::new(
                DocId(i as u64),
                SourceFormat::Text,
                "t",
                0,
                Node::map([("body".to_string(), Node::scalar(text.clone()))]),
            );
            index.index_document(&d);
            docs.push((d, words.clone()));
        }
        // probe with a term that exists somewhere
        let probe = &bodies[term_doc.index(bodies.len())][0];
        #[allow(clippy::disallowed_methods, reason = "the index is the oracle here")]
        let hits = impliance::index::search::search(
            &index,
            &impliance::index::SearchQuery::new(probe.clone(), 100),
        );
        let expected: std::collections::BTreeSet<u64> = docs
            .iter()
            .filter(|(_, words)| words.contains(probe))
            .map(|(d, _)| d.id().0)
            .collect();
        let got: std::collections::BTreeSet<u64> = hits.iter().map(|h| h.id.0).collect();
        prop_assert_eq!(got, expected);
    }
}

// ---------------------------------------------------------------------
// storage engine invariant: scan sees exactly the latest versions
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    #[test]
    fn storage_scan_returns_latest_of_every_chain(
        updates in proptest::collection::vec((0u64..10, 0i64..1000), 1..60),
        seal in 1usize..20,
    ) {
        use impliance::storage::{ScanRequest, StorageEngine, StorageOptions};
        let engine = StorageEngine::new(StorageOptions {
            partitions: 3,
            seal_threshold: seal,
            compression: true, encryption_key: None });
        let mut expected: std::collections::HashMap<u64, i64> = Default::default();
        let mut latest_docs: std::collections::HashMap<u64, Document> = Default::default();
        for (id, value) in updates {
            let next = match latest_docs.get(&id) {
                None => Document::new(
                    DocId(id),
                    SourceFormat::Json,
                    "c",
                    0,
                    Node::map([("x".to_string(), Node::scalar(value))]),
                ),
                Some(prev) => prev.new_version(
                    Node::map([("x".to_string(), Node::scalar(value))]),
                    0,
                ),
            };
            engine.put(&next).unwrap();
            latest_docs.insert(id, next);
            expected.insert(id, value);
        }
        let result = engine.scan(&ScanRequest::full()).unwrap();
        let got: std::collections::HashMap<u64, i64> = result
            .documents
            .iter()
            .map(|d| {
                (
                    d.id().0,
                    d.get_str_path("x").unwrap().as_value().unwrap().as_i64().unwrap(),
                )
            })
            .collect();
        prop_assert_eq!(got, expected);
    }
}

// ---------------------------------------------------------------------
// XML and tokenizer robustness
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(128)))]

    #[test]
    fn xml_parser_never_panics(input in "\\PC{0,80}") {
        let _ = impliance::docmodel::xml::parse(&input);
    }

    #[test]
    fn xml_well_formed_simple_docs_parse(
        tag in "[a-z]{1,8}",
        attr in "[a-z]{1,6}",
        attr_val in "[a-zA-Z0-9 ]{0,12}",
        text in "[a-zA-Z0-9 .,]{0,40}",
    ) {
        let xml = format!("<{tag} {attr}=\"{attr_val}\">{text}</{tag}>");
        let node = impliance::docmodel::xml::parse(&xml).unwrap();
        // the attribute (or the collapsed element) is reachable
        let attr_path = format!("{tag}.@{attr}");
        let reachable =
            node.get_str_path(&attr_path).is_some() || node.get_str_path(&tag).is_some();
        prop_assert!(reachable, "unreachable paths in parsed xml");
    }

    #[test]
    fn tokenizer_never_panics_and_positions_increase(input in "\\PC{0,120}") {
        let tokens = impliance::index::tokenize(&input);
        for w in tokens.windows(2) {
            prop_assert!(w[0].position < w[1].position);
        }
    }

    #[test]
    fn phrase_hits_are_a_subset_of_and_search(
        bodies in proptest::collection::vec(
            proptest::collection::vec("[a-c]{2}", 2..6), 2..10),
    ) {
        let index = InvertedIndex::new(4);
        for (i, words) in bodies.iter().enumerate() {
            let d = Document::new(
                DocId(i as u64),
                SourceFormat::Text,
                "t",
                0,
                Node::map([("body".to_string(), Node::scalar(words.join(" ")))]),
            );
            index.index_document(&d);
        }
        // take the first two words of doc 0 as the phrase
        let phrase = format!("{} {}", bodies[0][0], bodies[0][1]);
        #[allow(clippy::disallowed_methods, reason = "the index is the oracle here")]
        let phrase_hits: std::collections::BTreeSet<u64> =
            impliance::index::search_phrase(&index, &phrase, None, 100)
                .into_iter()
                .map(|h| h.id.0)
                .collect();
        #[allow(clippy::disallowed_methods, reason = "the index is the oracle here")]
        let and_hits: std::collections::BTreeSet<u64> = impliance::index::search::search(
            &index,
            &impliance::index::SearchQuery::new(phrase.clone(), 100),
        )
        .into_iter()
        .map(|h| h.id.0)
        .collect();
        let subset = phrase_hits.is_subset(&and_hits);
        prop_assert!(subset, "phrase hits must be a subset of AND hits");
        prop_assert!(phrase_hits.contains(&0), "doc 0 contains its own phrase");
    }
}
