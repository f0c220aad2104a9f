//! The executor's mode matrix: for random corpora, every plan the
//! generators in `common` produce returns exactly the serial reference's
//! rows, in the same order, at every point of batch {1,3,64,1024} ×
//! workers {1,2,8} × columnar {off,on} × {unpinned, pinned snapshot}
//! (see `common::assert_matrix`). Running as one tree on the calling
//! thread or once per morsel inside the exchange is a pure speedup —
//! morsel-order reassembly must reproduce the serial tuple sequence
//! bit-for-bit (sums here are integer-derived, so even aggregate rows
//! are exact). The cluster is one more axis of the same matrix: the same
//! plan families on a 3-data-node cluster, healthy and under a seeded
//! kill + drop schedule, return the single-box reference's rows.
//! `pipeline_equivalence.rs` checks the reference itself against oracles.

mod common;

use proptest::prelude::*;

use common::*;
use impliance::docmodel::{DocId, DocumentBuilder, SourceFormat, Value};
use impliance::query::{execute_plan_opts, ExecutionContext, JoinAlgo, LogicalPlan};
use impliance::storage::{AggFunc, Predicate};

fn int_doc(id: usize, collection: &str, fields: &[(&str, i64)]) -> impliance::docmodel::Document {
    let mut b = DocumentBuilder::new(DocId(id as u64), SourceFormat::Json, collection);
    for (name, value) in fields {
        b = b.field(name, *value);
    }
    b.build()
}

/// `l` documents keyed `k` (with a payload `v`), `r` documents keyed `k`.
fn join_fixture(left: &[(i64, i64)], right_keys: &[i64]) -> Fixture {
    let f = Fixture::new(3, 8);
    for (i, (k, v)) in left.iter().enumerate() {
        f.put(&int_doc(i, "l", &[("k", *k), ("v", *v)]));
    }
    for (i, k) in right_keys.iter().enumerate() {
        f.put(&int_doc(1000 + i, "r", &[("k", *k)]));
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    // Scan + filter + project: the bread-and-butter streaming shape, over
    // single-partition stores (nothing to fan out) and partitioned ones.
    #[test]
    fn parallel_filter_project_equals_serial(
        amounts in proptest::collection::vec(0i64..100, 1..80),
        threshold in 0i64..100,
        partitions in 1usize..6,
        seal in 4usize..32,
    ) {
        let f = Fixture::new(partitions, seal);
        for (i, a) in amounts.iter().enumerate() {
            f.put(&int_doc(i, "c", &[("amount", *a)]));
        }
        let pred = Predicate::Ge("amount".into(), Value::Int(threshold));
        // `_id` is a pseudo-path: the bound document's id in every mode
        let plan = project(filter(scan("c"), "c", pred), &["amount", "_id"]);
        assert_matrix(f, &[("filter_project", &plan)], None);
    }

    // Multi-conjunct filters go through an adaptive chain per operator
    // tree; conjunctions are order-independent, so rows must not change.
    #[test]
    fn parallel_adaptive_filter_chain_equals_serial(
        pairs in proptest::collection::vec((0i64..50, 0i64..50), 1..80),
        lo in 0i64..50,
        hi in 0i64..50,
    ) {
        let f = Fixture::new(3, 8);
        for (i, (a, b)) in pairs.iter().enumerate() {
            f.put(&int_doc(i, "c", &[("a", *a), ("b", *b)]));
        }
        let pred = Predicate::And(vec![
            Predicate::Ge("a".into(), Value::Int(lo)),
            Predicate::Le("b".into(), Value::Int(hi)),
        ]);
        let plan = filter(scan("c"), "c", pred);
        assert_matrix(f, &[("adaptive_filter", &plan)], None);
    }

    // Partitioned group/aggregate with a merge phase: integer-derived
    // sums and counts merge exactly.
    #[test]
    fn parallel_group_agg_equals_serial(
        rows in proptest::collection::vec((0u8..5, 0i64..100), 0..80),
        partitions in 1usize..6,
    ) {
        let f = Fixture::new(partitions, 8);
        for (i, (tag, amount)) in rows.iter().enumerate() {
            f.put(
                &DocumentBuilder::new(DocId(i as u64), SourceFormat::Json, "c")
                    .field("tag", format!("t{tag}"))
                    .field("amount", *amount)
                    .build(),
            );
        }
        let plan = group_agg(scan("c"), "tag", vec![
            agg(AggFunc::Sum, Some("amount"), "total"),
            agg(AggFunc::Count, None, "n"),
            agg(AggFunc::Min, Some("amount"), "lo"),
            agg(AggFunc::Max, Some("amount"), "hi"),
        ]);
        assert_matrix(f, &[("group_agg", &plan)], None);
    }

    // All three join algorithms: hash joins probe a shared table from
    // every morsel; sort-merge and indexed-NL have no split, run as one
    // tree and must still answer identically.
    #[test]
    fn parallel_joins_equal_serial(
        left_keys in proptest::collection::vec(0i64..5, 1..30),
        right_keys in proptest::collection::vec(0i64..5, 1..30),
    ) {
        let left: Vec<(i64, i64)> = left_keys.iter().map(|k| (*k, 0)).collect();
        let f = join_fixture(&left, &right_keys);
        let plans = JOIN_ALGOS.map(|algo| (format!("join_{algo:?}"), join(scan("r"), algo)));
        let labelled: Vec<(&str, &_)> = plans.iter().map(|(l, p)| (l.as_str(), p)).collect();
        assert_matrix(f, &labelled, None);
    }

    // Filter over a hash join (the probe spine carries a residual filter
    // above the join) — exercises a multi-operator morsel tree.
    #[test]
    fn parallel_filter_over_join_equals_serial(
        left in proptest::collection::vec((0i64..4, 0i64..50), 1..40),
        right_keys in proptest::collection::vec(0i64..4, 1..20),
        threshold in 0i64..50,
    ) {
        let f = join_fixture(&left, &right_keys);
        let pred = Predicate::Ge("v".into(), Value::Int(threshold));
        let plan = filter(join(scan("r"), JoinAlgo::Hash), "l", pred);
        assert_matrix(f, &[("filter_over_join", &plan)], None);
    }

    // Sort + limit: per-morsel top-K buffers merged by one stable root
    // sort must reproduce the serial order — on unique keys (`u`) and,
    // including ties, on deliberately non-unique ones (`x`).
    #[test]
    fn parallel_sort_limit_equals_serial(
        amounts in proptest::collection::vec(0i64..50, 1..80),
        n in 1usize..20,
        descending in any::<bool>(),
        partitions in 1usize..6,
    ) {
        let f = Fixture::new(partitions, 8);
        for (i, a) in amounts.iter().enumerate() {
            f.put(&int_doc(i, "c", &[("x", *a), ("u", a * 100 + i as i64)]));
        }
        let ties = sort_limit("x", descending, n);
        let unique = sort_limit("u", descending, n);
        assert_matrix(f, &[("sort_limit_ties", &ties), ("sort_limit_unique", &unique)], None);
    }

    // Null-heavy and dictionary-encoded columns through every mode:
    // validity masks and page dictionaries must not change any row.
    #[test]
    fn parallel_columnar_nulls_and_dictionaries_equal_serial(
        rows in proptest::collection::vec((any::<bool>(), 0u8..4, 0i64..50), 1..80),
        pick in 0u8..4,
        threshold in 0i64..50,
        partitions in 1usize..6,
        seal in 4usize..32,
    ) {
        let f = Fixture::new(partitions, seal);
        // `amount` is present on roughly half the documents; the rest
        // decode as Null in the column's validity mask.
        for (i, (present, tag, a)) in rows.iter().enumerate() {
            let b = DocumentBuilder::new(DocId(i as u64), SourceFormat::Json, "c")
                .field("tag", format!("t{tag}")); // low cardinality → dict
            let b = if *present { b.field("amount", *a) } else { b };
            f.put(&b.build());
        }
        let picked = Value::Str(format!("t{pick}"));
        let dict_project = project(
            filter(scan("c"), "c", Predicate::Eq("tag".into(), picked.clone())),
            &["tag", "amount"],
        );
        let null_project = project(
            filter(scan("c"), "c", Predicate::Lt("amount".into(), Value::Int(threshold))),
            &["amount", "missing"],
        );
        let null_agg = group_agg(scan("c"), "tag", vec![
            agg(AggFunc::Sum, Some("amount"), "total"),
            agg(AggFunc::Count, None, "n"),
        ]);
        let dict_agg = group_agg(
            filter(scan("c"), "c", Predicate::Ne("tag".into(), picked)),
            "tag",
            vec![agg(AggFunc::Count, None, "n"), agg(AggFunc::Max, Some("amount"), "hi")],
        );
        assert_matrix(
            f,
            &[
                ("columnar_dict_project", &dict_project),
                ("columnar_null_project", &null_project),
                ("columnar_null_agg", &null_agg),
                ("columnar_dict_agg", &dict_agg),
            ],
            None,
        );
    }

    // Request-level limit on a bare scan: the merged prefix must equal
    // the serial prefix exactly (morsel-order concatenation).
    #[test]
    fn parallel_request_limit_prefix_equals_serial(
        amounts in proptest::collection::vec(0i64..100, 1..80),
        n in 0usize..90,
        partitions in 1usize..6,
    ) {
        let f = Fixture::new(partitions, 8);
        for (i, a) in amounts.iter().enumerate() {
            f.put(&int_doc(i, "c", &[("amount", *a)]));
        }
        let plan = scan("c");
        let (limited, m) = run(&f, &plan, REFERENCE, Some(n));
        prop_assert_eq!(limited.len(), n.min(amounts.len()));
        prop_assert_eq!(m.rows_out as usize, limited.len());
        let unlimited = render(&run(&f, &plan, REFERENCE, None).0);
        prop_assert_eq!(render(&limited), unlimited[..limited.len()].to_vec());
        assert_matrix(f, &[("request_limit", &plan)], Some(n));
    }

    // A hash join whose build side is itself a filtered scan: every
    // worker count returns the same rows, and the storage work is the
    // probe scan plus ONE build scan — the exchange builds the table once
    // and every morsel probes it.
    #[test]
    fn parallel_join_scans_a_filtered_build_side_exactly_once(
        left in proptest::collection::vec((0i64..5, 0i64..50), 1..40),
        right_keys in proptest::collection::vec(0i64..5, 1..30),
        keep in 0i64..5,
    ) {
        let f = join_fixture(&left, &right_keys);
        let build = filter(scan("r"), "r", Predicate::Le("k".into(), Value::Int(keep)));
        let plan = join(build.clone(), JoinAlgo::Hash);
        let scanned = |plan: &_, workers| {
            let (out, m) = run(&f, plan, Mode { workers, ..REFERENCE }, None);
            (render(&out), m.scan.docs_scanned)
        };
        let probe = scan("l");
        let (probe_docs, build_docs) = (scanned(&probe, 1).1, scanned(&build, 1).1);
        let (serial_rows, _) = scanned(&plan, 1);
        for workers in WORKER_COUNTS {
            let (rows, docs_scanned) = scanned(&plan, workers);
            prop_assert_eq!(&rows, &serial_rows, "workers {}", workers);
            prop_assert_eq!(docs_scanned, probe_docs + build_docs, "workers {}", workers);
        }
    }

    // The cluster axis: every plan family, on a healthy 3-node cluster and
    // on one that loses a node (plus 20 % of its traffic) mid-query, returns
    // the single-box reference's rows — in the reference's order where the
    // plan defines one (group-by output, a sort on a unique key), as a
    // multiset otherwise, and for a bare request limit as many rows, all
    // of them real. Replica failover recomputes the dead node's share
    // exactly once, aggregates and join build sides included.
    #[test]
    fn cluster_plans_equal_the_single_box_healthy_and_under_faults(
        rows in proptest::collection::vec((0u8..5, 0i64..100, 0i64..4), 1..60),
        right_keys in proptest::collection::vec(0i64..4, 1..12),
        threshold in 0i64..100,
        keep in 0i64..4,
        n in 1usize..20,
        seed in any::<u64>(),
        kill_after in 7u64..30,
    ) {
        let f = Fixture::new(3, 8);
        for (i, (tag, amount, k)) in rows.iter().enumerate() {
            f.put(
                &DocumentBuilder::new(DocId(i as u64), SourceFormat::Json, "c")
                    .field("tag", format!("t{tag}"))
                    .field("amount", *amount)
                    .field("u", amount * 100 + i as i64)
                    .build(),
            );
            f.put(&int_doc(500 + i, "l", &[("k", *k), ("v", *amount)]));
        }
        for (i, k) in right_keys.iter().enumerate() {
            f.put(&int_doc(1000 + i, "r", &[("k", *k)]));
        }
        let pred = Predicate::Ge("amount".into(), Value::Int(threshold));
        let build = filter(scan("r"), "r", Predicate::Le("k".into(), Value::Int(keep)));
        let ordered = [
            ("group_agg", group_agg(scan("c"), "tag", vec![
                agg(AggFunc::Sum, Some("amount"), "total"),
                agg(AggFunc::Count, None, "n"),
                agg(AggFunc::Min, Some("amount"), "lo"),
                agg(AggFunc::Max, Some("amount"), "hi"),
            ])),
            ("sort_limit_unique", sort_limit("u", true, n)),
        ];
        let unordered = [
            ("filter_project", project(filter(scan("c"), "c", pred), &["amount", "_id"])),
            ("filtered_build_join", LogicalPlan::Project {
                input: Box::new(join(build, JoinAlgo::Hash)),
                columns: vec![
                    ("l".into(), "_id".into(), "l".into()),
                    ("l".into(), "v".into(), "v".into()),
                    ("r".into(), "_id".into(), "r".into()),
                ],
            }),
        ];
        let corpus = f.corpus();
        for faults in [Faults::Healthy, Faults::KillAndDrops { seed, kill_after }] {
            for (label, plan) in &ordered {
                let reference = render(&run(&f, plan, REFERENCE, None).0);
                let got = render(&run_cluster(3, &corpus, plan, None, faults).output);
                prop_assert_eq!(got, reference, "{} under {:?}", label, faults);
            }
            for (label, plan) in &unordered {
                let mut reference = render(&run(&f, plan, REFERENCE, None).0);
                let mut got = render(&run_cluster(3, &corpus, plan, None, faults).output);
                reference.sort();
                got.sort();
                prop_assert_eq!(got, reference, "{} under {:?}", label, faults);
            }
            let everything = render(&run(&f, &scan("c"), REFERENCE, None).0);
            let limited = render(&run_cluster(3, &corpus, &scan("c"), Some(n), faults).output);
            prop_assert_eq!(limited.len(), n.min(everything.len()), "request_limit under {:?}", faults);
            let distinct: std::collections::BTreeSet<&String> = limited.iter().collect();
            prop_assert_eq!(distinct.len(), limited.len(), "a limited row came back twice");
            prop_assert!(limited.iter().all(|id| everything.contains(id)));
        }
    }

    // Hybrid search on the cluster: a scored index scan under a structured
    // filter, cut to the top k. On one data node the shard's BM25
    // statistics are the global ones, so ids, scores and order must equal
    // the single box's.
    #[test]
    fn one_node_cluster_hybrid_top_k_equals_the_single_box(
        docs in proptest::collection::vec((0u8..4, 0i64..50), 1..50),
        threshold in 0i64..50,
        k in 1usize..12,
    ) {
        const WORDS: [&str; 4] = ["bumper", "bumper bumper dent", "hood", "bumper scratch hood"];
        let f = Fixture::new(3, 8);
        for (i, (w, amount)) in docs.iter().enumerate() {
            f.put(
                &DocumentBuilder::new(DocId(i as u64), SourceFormat::Json, "c")
                    .field("notes", WORDS[*w as usize])
                    .field("amount", *amount)
                    .build(),
            );
        }
        let hits = LogicalPlan::IndexScan {
            query: "bumper".into(),
            path: None,
            k: None,
            alias: "c".into(),
            any_term: false,
            phrase: false,
            collection: Some("c".into()),
        };
        let pred = Predicate::Ge("amount".into(), Value::Int(threshold));
        let plan = project(filter(hits, "c", pred), &["_id", "_score", "amount"]);
        let reference = render(&run(&f, &plan, REFERENCE, Some(k)).0);
        let got = run_cluster(1, &f.corpus(), &plan, Some(k), Faults::Healthy);
        prop_assert_eq!(render(&got.output), reference);
        prop_assert_eq!(got.metrics.index_lookups, 1);
    }

    // A deadline of zero never pulls a batch: both drivers flag the
    // answer degraded and return a (here empty) prefix of the serial rows.
    #[test]
    fn zero_deadline_degrades_to_a_prefix_of_the_serial_answer(
        amounts in proptest::collection::vec(0i64..100, 1..80),
        partitions in 1usize..6,
    ) {
        let f = Fixture::new(partitions, 8);
        for (i, a) in amounts.iter().enumerate() {
            f.put(&int_doc(i, "c", &[("amount", *a)]));
        }
        let plans = [
            scan("c"),
            project(scan("c"), &["amount"]),
            sort_limit("amount", false, 5),
            group_agg(scan("c"), "amount", vec![agg(AggFunc::Count, None, "n")]),
        ];
        for plan in &plans {
            let serial = render(&run(&f, plan, REFERENCE, None).0);
            for workers in WORKER_COUNTS {
                let opts = ExecutionContext {
                    deadline: Some(std::time::Duration::ZERO),
                    ..ExecutionContext::with_batch_size(8)
                }
                .parallelism(workers);
                let (out, m) = execute_plan_opts(&f.ctx(true, None), plan, &opts).unwrap();
                prop_assert!(m.deadline_exceeded, "workers {}: not flagged degraded", workers);
                let got = render(&out);
                prop_assert!(got.len() <= serial.len());
                prop_assert_eq!(&got[..], &serial[..got.len()], "workers {}", workers);
            }
        }
    }
}
