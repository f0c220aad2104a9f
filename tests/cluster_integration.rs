//! Cluster-level integration: Figure 3 behaviours across crates
//! (cluster runtime + storage + query dist + virt recovery).

use impliance::cluster::NodeKind;
use impliance::core::{ApplianceConfig, ClusterImpliance, Impliance, Input, QueryRequest};
use impliance::docmodel::{RelationalSchema, Value};
use impliance_bench::Corpus;

fn config(data: usize, grid: usize, replication: usize) -> ApplianceConfig {
    ApplianceConfig {
        data_nodes: data,
        grid_nodes: grid,
        cluster_nodes: 3,
        replication,
        seal_threshold: 64,
        ..ApplianceConfig::default()
    }
}

fn load_orders(app: &ClusterImpliance, n: usize, seed: u64) {
    let mut corpus = Corpus::new(seed);
    for _ in 0..n {
        app.ingest(Input::Json("orders", &corpus.order_json(20)))
            .unwrap();
    }
}

fn visible_orders(app: &ClusterImpliance) -> usize {
    app.sql("SELECT * FROM orders").unwrap().len()
}

/// Both handles map every input format through the same code: fed the
/// same inputs, the cluster stores what the single box stores — the same
/// ids, the same live document count, the same rows per collection.
#[test]
fn cluster_ingests_every_format_like_the_single_box() {
    let schema = RelationalSchema::new("orders", &["id", "total"]);
    let inputs = || {
        [
            Input::Json("claims", r#"{"amount": 1500, "make": "Volvo"}"#),
            Input::Text("notes", "Grace Hopper reported a broken bumper"),
            Input::Email(
                "mail",
                "From: ada@example.com\nSubject: claim\n\nSee attached.",
            ),
            Input::Xml("forms", "<claim><amount>7</amount></claim>"),
            Input::Binary("media", &[0, 159, 146], &[("title", "photo")]),
            Input::Kv("sensors", &[("temp", "21.5")]),
            Input::Row(&schema, vec![Value::Int(1), Value::Float(99.5)]),
            Input::Csv("people", "name,age\nAda,36\nGrace,45\n"),
        ]
    };
    let single = Impliance::boot(ApplianceConfig::default());
    let cluster = ClusterImpliance::boot(config(3, 1, 2));
    for (a, b) in inputs().into_iter().zip(inputs()) {
        assert_eq!(single.ingest(a).unwrap(), cluster.ingest(b).unwrap());
    }
    assert_eq!(cluster.doc_count(), single.storage().live_docs());
    for c in [
        "claims", "notes", "mail", "forms", "media", "sensors", "orders", "people",
    ] {
        let count = format!("SELECT COUNT(*) AS n FROM {c}");
        let n = single.sql(&count).unwrap().rows()[0].get("n").clone();
        assert_eq!(cluster.sql(&count).unwrap().rows()[0].get("n"), &n, "{c}");
        assert_ne!(n, Value::Int(0), "{c}");
    }
}

#[test]
fn distributed_answers_match_across_cluster_sizes() {
    // the same workload on 1, 2, and 6 data nodes must agree exactly
    let mut reference: Option<Vec<(String, f64)>> = None;
    for d in [1usize, 2, 6] {
        let app = ClusterImpliance::boot(config(d, 2, 1));
        load_orders(&app, 300, 42);
        let groups = app
            .sql("SELECT cust, SUM(amount) AS total FROM orders GROUP BY cust")
            .unwrap();
        let result: Vec<(String, f64)> = groups
            .rows()
            .iter()
            .map(|r| (r.get("cust").render(), r.get("total").as_f64().unwrap()))
            .collect();
        assert_eq!(result.len(), 20, "one group per customer");
        match &reference {
            None => reference = Some(result),
            Some(r) => assert_eq!(r, &result, "answers must not depend on cluster size ({d})"),
        }
    }
}

#[test]
fn pushdown_reduces_traffic_at_any_scale() {
    for d in [2usize, 4] {
        let app = ClusterImpliance::boot(config(d, 1, 1));
        load_orders(&app, 500, 7);
        app.runtime().network().reset_metrics();
        app.sql("SELECT * FROM orders WHERE amount > 950").unwrap();
        let push = app.runtime().network().metrics().bytes;
        app.runtime().network().reset_metrics();
        assert_eq!(visible_orders(&app), 500);
        let full = app.runtime().network().metrics().bytes;
        assert!(push * 3 < full, "d={d}: pushdown {push} vs full {full}");
    }
}

#[test]
fn replicated_cluster_survives_sequential_failures() {
    let app = ClusterImpliance::boot(config(6, 1, 3));
    load_orders(&app, 600, 9);
    let data_nodes = app.runtime().nodes_of_kind(NodeKind::Data);
    // kill two of six nodes, one at a time
    for victim in &data_nodes[..2] {
        let report = app.kill_data_node(*victim).unwrap();
        assert_eq!(report.docs_lost, 0, "replication 3 survives two failures");
        assert_eq!(visible_orders(&app), 600, "after killing {victim:?}");
    }
}

#[test]
fn unreplicated_cluster_loses_data_on_failure() {
    // the negative control: replication 1 must actually lose documents
    let app = ClusterImpliance::boot(config(4, 1, 1));
    load_orders(&app, 400, 10);
    let victim = app.runtime().nodes_of_kind(NodeKind::Data)[0];
    assert_eq!(visible_orders(&app), 400);
    let report = app.kill_data_node(victim).unwrap();
    assert!(report.docs_lost > 0);
    assert_eq!(visible_orders(&app), 400 - report.docs_lost);
}

#[test]
fn pipeline_query_spans_all_three_node_kinds() {
    let app = ClusterImpliance::boot(config(3, 2, 1));
    load_orders(&app, 200, 11);
    let req = QueryRequest::builder(
        "SELECT cust, AVG(amount) AS mean FROM orders WHERE amount >= 0 GROUP BY cust",
    );
    let committed = app.pipeline_query(req.build()).unwrap();
    assert_eq!(committed, 20);
    // the consistency group holds exactly one commit with all members
    assert_eq!(app.group().log().len(), 1);
    assert_eq!(app.group().alive_members().len(), 3);
}

#[test]
fn grid_nodes_scale_compute_independently_of_data() {
    let app = ClusterImpliance::boot(config(1, 4, 1));
    // 8 compute tasks over 4 grid nodes complete and balance
    let handles: Vec<_> = (0..8)
        .map(|_| {
            app.runtime()
                .submit_to_kind(NodeKind::Grid, 0, |ctx| ctx.id)
                .unwrap()
        })
        .collect();
    let mut used = std::collections::HashSet::new();
    for h in handles {
        used.insert(h.join().unwrap());
    }
    assert!(
        used.len() >= 3,
        "work crew should spread over the grid: {used:?}"
    );
}

#[test]
fn distributed_join_agrees_with_expected_cardinality() {
    let app = ClusterImpliance::boot(config(3, 2, 1));
    load_orders(&app, 100, 12);
    for i in 0..20u64 {
        app.ingest(Input::Json(
            "customers",
            &format!(r#"{{"code": "C-{i}", "name": "N{i}"}}"#),
        ))
        .unwrap();
    }
    let joined = app
        .sql("SELECT o.cust, c.code, c.name FROM orders o JOIN customers c ON o.cust = c.code")
        .unwrap();
    assert_eq!(joined.rows().len(), 100);
    assert!(joined.rows().iter().all(|r| r.get("cust") == r.get("code")));
}
