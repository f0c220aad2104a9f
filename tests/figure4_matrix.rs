//! Figure 4 as an executable claim: each system class must actually
//! exhibit the capability envelope the comparison attributes to it — both
//! the positives (it can) and the negatives (it genuinely cannot).

use impliance::baselines::{
    Capability, ColumnType, ContentStore, FsStore, InfoSystem, MiniRdbms, TableSchema,
    ALL_CAPABILITIES,
};
use impliance::core::{ApplianceConfig, At, Impliance, Input, NoFaults, QueryRequest, Stage};
use impliance::docmodel::Value;

#[test]
fn impliance_dominates_the_capability_matrix() {
    let imp = Impliance::boot(ApplianceConfig::default());
    for cap in ALL_CAPABILITIES {
        assert!(imp.supports(*cap), "impliance must support {}", cap.name());
    }
    assert_eq!(imp.power_score(), 1.0);
}

#[test]
fn rdbms_power_matches_its_envelope() {
    let db = MiniRdbms::new();
    assert!(db.supports(Capability::StructuredJoin));
    assert!(db.supports(Capability::Aggregation));
    assert!(!db.supports(Capability::KeywordSearch));
    assert!(!db.supports(Capability::SchemaFreeIngest));
    // and the envelope is enforced, not just declared: inserting without
    // a schema fails
    let mut db = MiniRdbms::new();
    assert!(db.insert("nothing", vec![Value::Int(1)]).is_err());
}

#[test]
fn content_store_cannot_search_content() {
    let mut cs = ContentStore::new();
    cs.register_template(&["author"]);
    cs.store(
        b"the word zanzibar lives in the content",
        &[("author", "ada")],
    )
    .unwrap();
    // metadata search works; content search does not exist
    assert_eq!(cs.search_metadata("author", "ada").len(), 1);
    assert!(cs.search_metadata("author", "zanzibar").is_empty());
    assert!(!cs.supports(Capability::KeywordSearch));
}

#[test]
fn fs_store_full_scan_is_the_only_query() {
    let mut fs = FsStore::new();
    for i in 0..100 {
        fs.put(
            &format!("f{i}"),
            format!("file number {i} content").as_bytes(),
        );
    }
    let before = fs.bytes_scanned();
    let hits = fs.grep("number 42");
    assert_eq!(hits.len(), 1);
    // every byte of every file was touched — the cost Figure 4's "low
    // querying power" point encodes
    assert!(fs.bytes_scanned() - before > 2000);
}

#[test]
fn tco_ordering_matches_figure4() {
    // same workload; the admin-ops ledgers must order as the paper claims:
    // impliance < content store < rdbms
    let imp = Impliance::boot(ApplianceConfig::default());
    imp.ingest(Input::Json("orders", r#"{"cust": "C-1", "total": 10.5}"#))
        .unwrap();
    imp.ingest(Input::Text("docs", "free text content needs no catalog"))
        .unwrap();

    let mut db = MiniRdbms::new();
    db.create_table(TableSchema {
        name: "orders".into(),
        columns: vec![
            ("cust".into(), ColumnType::Text),
            ("total".into(), ColumnType::Float),
        ],
    });
    db.create_index("orders", "cust").unwrap();
    db.insert("orders", vec![Value::Str("C-1".into()), Value::Float(10.5)])
        .unwrap();

    let mut cs = ContentStore::new();
    cs.register_template(&["kind"]);
    cs.store(b"free text content", &[("kind", "doc")]).unwrap();

    assert_eq!(imp.admin_ops(), 0);
    assert_eq!(cs.admin_ops(), 1);
    assert_eq!(db.admin_ops(), 2);
}

#[test]
fn impliance_actually_performs_each_claimed_capability() {
    // spot-check the claims the matrix makes for impliance, end to end
    let imp = Impliance::boot(ApplianceConfig::default());
    let a = imp
        .ingest(Input::Json("claims", r#"{"claimant": "Grace Hopper", "amount": 500, "notes": "Grace Hopper happy in Seattle"}"#))
        .unwrap()[0];
    let b = imp
        .ingest(Input::Text(
            "transcripts",
            "Grace Hopper called about claim follow-up",
        ))
        .unwrap()[0];
    imp.maintain(Stage::All, None, &NoFaults);

    // keyword search over content
    let keyword = QueryRequest::builder("").match_text("*", "claim").top_k(10);
    assert!(!imp.query(keyword.build()).unwrap().is_empty());
    // range query
    assert_eq!(
        imp.sql("SELECT * FROM claims WHERE amount > 100")
            .unwrap()
            .docs()
            .len(),
        1
    );
    // graph connection
    assert!(imp.connect(a, b, 2).is_some());
    // automatic annotation
    assert!(imp.status().discovery.annotations >= 2);
    // faceted navigation
    assert!(!imp.facet("claimant").values.is_empty());
    // time travel (the update retires the old body from live indexes,
    // but the old version stays readable)
    imp.update(a, impliance::docmodel::Node::empty_map())
        .unwrap();
    assert!(imp
        .get_at(a, At::Version(impliance::docmodel::Version(1)))
        .unwrap()
        .is_some());
    assert!(
        imp.facet("claimant").values.is_empty(),
        "live facets track latest versions"
    );
}
