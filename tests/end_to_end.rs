//! End-to-end integration: the full Figure 1 pipeline across every crate.

use impliance::core::{
    views, ApplianceConfig, At, Impliance, Input, NoFaults, QueryRequest, QueryResponse, Stage,
};
use impliance::docmodel::{DocId, Node, Value, Version};
use impliance_bench::Corpus;

/// A top-10 keyword search.
fn search(imp: &Impliance, terms: &str) -> QueryResponse {
    let request = QueryRequest::builder("").match_text("*", terms).top_k(10);
    imp.query(request.build()).unwrap()
}

#[test]
fn stewing_pot_full_lifecycle() {
    let imp = Impliance::boot(ApplianceConfig::default());
    let mut corpus = Corpus::new(1);

    // ingest five formats without preparation
    let schema = Corpus::po_schema();
    let mut order_ids = Vec::new();
    for _ in 0..100 {
        order_ids.push(
            imp.ingest(Input::Row(&schema, corpus.purchase_order_row(10)))
                .unwrap()[0],
        );
    }
    for _ in 0..100 {
        imp.ingest(Input::Text("transcripts", &corpus.transcript()))
            .unwrap();
    }
    for _ in 0..50 {
        imp.ingest(Input::Email("mail", &corpus.email())).unwrap();
    }
    for _ in 0..50 {
        imp.ingest(Input::Json("claims", &corpus.claim_json()))
            .unwrap();
    }
    imp.ingest(Input::Csv(
        "stores",
        "city,manager\nSeattle,Ada Lovelace\nAustin,Alan Turing\n",
    ))
    .unwrap();

    // SQL immediately
    let n = imp.sql("SELECT COUNT(*) AS n FROM orders").unwrap();
    assert_eq!(n.rows()[0].get("n"), &Value::Int(100));

    // aggregation across the uniform model
    let sums = imp
        .sql("SELECT cust, SUM(total) AS t FROM orders GROUP BY cust")
        .unwrap();
    assert_eq!(sums.rows().len(), 10);

    // background phases
    imp.maintain(Stage::All, None, &NoFaults);
    assert_eq!(imp.status().index_backlog, 0);
    assert_eq!(imp.status().discovery_backlog, 0);

    // keyword search across formats
    assert!(!search(&imp, "transcript").is_empty());
    assert!(
        !search(&imp, "agreement").is_empty(),
        "email bodies searchable"
    );

    // discovery produced annotations, views, and relationships
    let stats = imp.status().discovery;
    assert!(stats.annotations > 0);
    assert!(stats.relationships > 0);
    assert!(!views::entity_view(&imp).unwrap().0.is_empty());
    assert!(!views::sentiment_view(&imp).unwrap().0.is_empty());

    // annotations are ordinary SQL-visible collections
    let ann = imp
        .sql("SELECT COUNT(*) AS n FROM annotations.entities")
        .unwrap();
    assert!(ann.rows()[0].get("n").as_i64().unwrap() > 0);

    // zero admin operations for all of the above
    assert_eq!(imp.status().admin_ops, 0);
}

#[test]
fn versioning_is_end_to_end_consistent() {
    let imp = Impliance::boot(ApplianceConfig::default());
    let id = imp
        .ingest(Input::Json(
            "claims",
            r#"{"amount": 100, "notes": "original assessment text"}"#,
        ))
        .unwrap()[0];
    imp.maintain(Stage::All, None, &NoFaults);
    assert_eq!(search(&imp, "original").len(), 1);

    // three updates
    for (i, word) in ["revised", "amended", "final"].iter().enumerate() {
        let mut root = imp.get(id).unwrap().unwrap().root().clone();
        root.set(
            &impliance::docmodel::Path::parse("notes"),
            Node::scalar(format!("{word} assessment text")),
        );
        root.set(
            &impliance::docmodel::Path::parse("amount"),
            Node::scalar(100 + (i as i64 + 1) * 10),
        );
        imp.update(id, root).unwrap();
    }
    imp.maintain(Stage::All, None, &NoFaults);

    // search tracks only the latest version
    assert!(search(&imp, "original").is_empty());
    assert_eq!(search(&imp, "final").len(), 1);
    // SQL sees latest values
    let out = imp.sql("SELECT amount FROM claims").unwrap();
    assert_eq!(out.rows()[0].get("amount"), &Value::Int(130));
    // all four versions remain readable
    assert_eq!(imp.versions(id).len(), 4);
    let v1 = imp.get_at(id, At::Version(Version(1))).unwrap().unwrap();
    assert!(v1.full_text().contains("original"));
    // the value index tracks the latest version only
    assert!(imp
        .value_index()
        .lookup_eq("amount", &Value::Int(100))
        .is_empty());
    assert_eq!(
        imp.value_index().lookup_eq("amount", &Value::Int(130)),
        vec![id]
    );
}

#[test]
fn cross_silo_composition_with_discovered_links() {
    let imp = Impliance::boot(ApplianceConfig::default());
    // a claim and a transcript that mention the same person
    let claim = imp
        .ingest(Input::Json(
            "claims",
            r#"{"claimant": "Wendy Rivera", "amount": 900, "notes": "Wendy Rivera filed for hood damage"}"#,
        ))
        .unwrap()[0];
    let transcript = imp
        .ingest(Input::Text(
            "transcripts",
            "Wendy Rivera called; she is unhappy about the delay",
        ))
        .unwrap()[0];
    let unrelated = imp
        .ingest(Input::Text(
            "transcripts",
            "routine systems check, nothing to report",
        ))
        .unwrap()[0];
    imp.maintain(Stage::All, None, &NoFaults);

    // the discovered same-person relationship composes the two silos
    let path = imp
        .connect(claim, transcript, 2)
        .expect("claim ↔ transcript via person");
    assert_eq!(path.first(), Some(&claim));
    assert_eq!(path.last(), Some(&transcript));
    assert!(imp.connect(claim, unrelated, 2).is_none());

    // closure from the claim pulls in the transcript but not noise
    let closure = imp.closure(claim, &["same-person"], 3);
    assert!(closure.contains(&transcript));
    assert!(!closure.contains(&unrelated));
}

#[test]
fn guided_search_session_over_live_appliance() {
    let imp = Impliance::boot(ApplianceConfig::default());
    for (make, city, note) in [
        ("Volvo", "Seattle", "bumper cracked"),
        ("Volvo", "Austin", "bumper scratched"),
        ("Saab", "Seattle", "bumper bent"),
        ("Saab", "Austin", "hood dented"),
    ] {
        imp.ingest(Input::Json(
            "claims",
            &format!(r#"{{"make": "{make}", "city": "{city}", "notes": "{note}"}}"#),
        ))
        .unwrap();
    }
    imp.maintain(Stage::All, None, &NoFaults);
    let mut s = imp.session();
    s.keywords("bumper");
    assert_eq!(s.results().len(), 3);
    s.drill_down("city", Value::Str("Seattle".into()));
    assert_eq!(s.results().len(), 2);
    s.drill_across("city", Value::Str("Austin".into()));
    assert_eq!(s.results().len(), 1);
    assert!(s.undo());
    assert_eq!(s.results().len(), 3);
}

#[test]
fn schema_free_means_heterogeneous_rows_coexist() {
    // schema evolution/chaos: same collection, three different shapes
    let imp = Impliance::boot(ApplianceConfig::default());
    imp.ingest(Input::Json(
        "events",
        r#"{"kind": "click", "x": 10, "y": 20}"#,
    ))
    .unwrap();
    imp.ingest(Input::Json(
        "events",
        r#"{"kind": "purchase", "sku": "BX-1", "total": 9.5}"#,
    ))
    .unwrap();
    imp.ingest(Input::Json(
        "events",
        r#"{"kind": "error", "trace": ["a", "b"], "fatal": true}"#,
    ))
    .unwrap();

    let all = imp.sql("SELECT COUNT(*) AS n FROM events").unwrap();
    assert_eq!(all.rows()[0].get("n"), &Value::Int(3));
    let clicks = imp
        .sql("SELECT * FROM events WHERE kind = 'click'")
        .unwrap();
    assert_eq!(clicks.len(), 1);
    let fatal = imp.sql("SELECT * FROM events WHERE fatal = true").unwrap();
    assert_eq!(fatal.len(), 1);
    // structural paths were discovered per shape
    let dims = imp.value_index().path_census();
    assert!(dims.iter().any(|(p, _)| p == "trace[]"));
}

#[test]
fn mini_rdbms_agrees_with_impliance_on_relational_answers() {
    use impliance::baselines::{ColumnType, MiniRdbms, TableSchema};
    // the same rows in both systems must produce the same aggregates
    let imp = Impliance::boot(ApplianceConfig::default());
    let mut db = MiniRdbms::new();
    db.create_table(TableSchema {
        name: "orders".into(),
        columns: vec![
            ("order_id".into(), ColumnType::Int),
            ("cust".into(), ColumnType::Text),
            ("sku".into(), ColumnType::Text),
            ("qty".into(), ColumnType::Int),
            ("total".into(), ColumnType::Float),
        ],
    });
    let schema = Corpus::po_schema();
    let mut corpus = Corpus::new(5);
    for _ in 0..200 {
        let row = corpus.purchase_order_row(8);
        db.insert("orders", row.clone()).unwrap();
        imp.ingest(Input::Row(&schema, row)).unwrap();
    }
    let db_sums = db.sum_group_by("orders", "cust", "total").unwrap();
    let imp_out = imp
        .sql("SELECT cust, SUM(total) AS t FROM orders GROUP BY cust")
        .unwrap();
    assert_eq!(imp_out.rows().len(), db_sums.len());
    for row in imp_out.rows() {
        let cust = row.get("group").render();
        let total = row.get("t").as_f64().unwrap();
        let expected = db_sums[&cust];
        assert!(
            (total - expected).abs() < 1e-6,
            "{cust}: {total} vs {expected}"
        );
    }
}

#[test]
fn ingest_is_usable_from_multiple_threads() {
    use std::sync::Arc;
    let imp = Arc::new(Impliance::boot(ApplianceConfig::default()));
    let mut handles = Vec::new();
    for t in 0..4 {
        let imp = Arc::clone(&imp);
        handles.push(std::thread::spawn(move || {
            let mut corpus = Corpus::new(100 + t);
            for _ in 0..100 {
                imp.ingest(Input::Text("transcripts", &corpus.transcript()))
                    .unwrap();
            }
        }));
    }
    // concurrent background work while ingesting
    for _ in 0..10 {
        imp.maintain(Stage::Index, Some(20), &NoFaults);
        imp.maintain(Stage::Discovery, Some(10), &NoFaults);
    }
    for h in handles {
        h.join().unwrap();
    }
    imp.maintain(Stage::All, None, &NoFaults);
    assert_eq!(imp.status().discovery.docs_processed, 400);
    let out = imp.sql("SELECT COUNT(*) AS n FROM transcripts").unwrap();
    assert_eq!(out.rows()[0].get("n"), &Value::Int(400));
}

#[test]
fn doc_ids_never_collide_between_ingest_and_annotations() {
    let imp = Impliance::boot(ApplianceConfig::default());
    let mut ids: Vec<DocId> = Vec::new();
    let mut corpus = Corpus::new(17);
    for _ in 0..50 {
        ids.push(
            imp.ingest(Input::Text("transcripts", &corpus.transcript()))
                .unwrap()[0],
        );
    }
    imp.maintain(Stage::All, None, &NoFaults);
    for _ in 0..50 {
        ids.push(
            imp.ingest(Input::Text("transcripts", &corpus.transcript()))
                .unwrap()[0],
        );
    }
    imp.maintain(Stage::All, None, &NoFaults);
    let mut all = ids.clone();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), ids.len(), "ingested ids are unique");
    // annotation ids come from the same allocator, so they are disjoint
    let ann = imp
        .sql("SELECT COUNT(*) AS n FROM annotations.entities")
        .unwrap();
    assert!(ann.rows()[0].get("n").as_i64().unwrap() > 0);
}
