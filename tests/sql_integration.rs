//! SQL surface integration: parser → simple planner → executor against a
//! live appliance, checked against independently computed answers.

use impliance::core::{ApplianceConfig, Impliance, Input};
use impliance::docmodel::{RelationalSchema, Value};

fn fixture() -> Impliance {
    let imp = Impliance::boot(ApplianceConfig::default());
    let orders = RelationalSchema::new("orders", &["id", "cust", "amount", "priority"]);
    let customers = RelationalSchema::new("customers", &["code", "name", "city"]);
    let rows: &[(i64, &str, i64, bool)] = &[
        (1, "C-1", 100, true),
        (2, "C-1", 250, false),
        (3, "C-2", 50, true),
        (4, "C-2", 175, false),
        (5, "C-3", 900, true),
    ];
    for (id, cust, amount, priority) in rows {
        imp.ingest(Input::Row(
            &orders,
            vec![
                Value::Int(*id),
                Value::Str(cust.to_string()),
                Value::Int(*amount),
                Value::Bool(*priority),
            ],
        ))
        .unwrap();
    }
    for (code, name, city) in [
        ("C-1", "Ada", "Seattle"),
        ("C-2", "Grace", "Austin"),
        ("C-3", "Alan", "Seattle"),
    ] {
        imp.ingest(Input::Row(
            &customers,
            vec![
                Value::Str(code.into()),
                Value::Str(name.into()),
                Value::Str(city.into()),
            ],
        ))
        .unwrap();
    }
    imp
}

#[test]
fn select_star_and_projection() {
    let imp = fixture();
    assert_eq!(imp.sql("SELECT * FROM orders").unwrap().docs().len(), 5);
    let out = imp
        .sql("SELECT cust, amount FROM orders WHERE amount >= 175")
        .unwrap();
    assert_eq!(out.rows().len(), 3);
    for row in out.rows() {
        assert!(row.get("amount").as_i64().unwrap() >= 175);
        assert!(!row.get("cust").is_null());
    }
}

#[test]
fn where_combinations() {
    let imp = fixture();
    let out = imp
        .sql("SELECT id FROM orders WHERE cust = 'C-1' AND amount > 150")
        .unwrap();
    assert_eq!(out.rows().len(), 1);
    assert_eq!(out.rows()[0].get("id"), &Value::Int(2));
    let bools = imp
        .sql("SELECT id FROM orders WHERE priority = true")
        .unwrap();
    assert_eq!(bools.rows().len(), 3);
    let ne = imp
        .sql("SELECT id FROM orders WHERE cust != 'C-1'")
        .unwrap();
    assert_eq!(ne.rows().len(), 3);
}

#[test]
fn group_by_aggregates() {
    let imp = fixture();
    let out = imp
        .sql("SELECT cust, SUM(amount) AS total, COUNT(*) AS n, MAX(amount) AS hi FROM orders GROUP BY cust")
        .unwrap();
    assert_eq!(out.rows().len(), 3);
    let c1 = out
        .rows()
        .iter()
        .find(|r| r.get("group") == &Value::Str("C-1".into()))
        .unwrap();
    assert_eq!(c1.get("total"), &Value::Float(350.0));
    assert_eq!(c1.get("n"), &Value::Int(2));
    assert_eq!(c1.get("hi"), &Value::Int(250));
}

#[test]
fn global_aggregates_without_group() {
    let imp = fixture();
    let out = imp
        .sql("SELECT COUNT(*) AS n, AVG(amount) AS avg FROM orders")
        .unwrap();
    assert_eq!(out.rows().len(), 1);
    assert_eq!(out.rows()[0].get("n"), &Value::Int(5));
    assert_eq!(out.rows()[0].get("avg"), &Value::Float(295.0));
}

#[test]
fn joins_project_both_sides() {
    let imp = fixture();
    let out = imp
        .sql("SELECT c.name AS name, o.amount AS amount FROM orders o JOIN customers c ON o.cust = c.code")
        .unwrap();
    assert_eq!(out.rows().len(), 5);
    let ada_total: i64 = out
        .rows()
        .iter()
        .filter(|r| r.get("name") == &Value::Str("Ada".into()))
        .map(|r| r.get("amount").as_i64().unwrap())
        .sum();
    assert_eq!(ada_total, 350);
}

#[test]
fn join_then_group() {
    let imp = fixture();
    let out = imp
        .sql("SELECT c.city, SUM(o.amount) AS total FROM orders o JOIN customers c ON o.cust = c.code GROUP BY c.city")
        .unwrap();
    assert_eq!(out.rows().len(), 2);
    let seattle = out
        .rows()
        .iter()
        .find(|r| r.get("group") == &Value::Str("Seattle".into()))
        .unwrap();
    assert_eq!(seattle.get("total"), &Value::Float(1250.0)); // C-1 (350) + C-3 (900)
}

#[test]
fn order_by_and_limit() {
    let imp = fixture();
    let out = imp
        .sql("SELECT id, amount FROM orders ORDER BY amount DESC LIMIT 2")
        .unwrap();
    assert_eq!(out.rows().len(), 2);
    assert_eq!(out.rows()[0].get("amount"), &Value::Int(900));
    assert_eq!(out.rows()[1].get("amount"), &Value::Int(250));
    let asc = imp
        .sql("SELECT amount FROM orders ORDER BY amount LIMIT 1")
        .unwrap();
    assert_eq!(asc.rows()[0].get("amount"), &Value::Int(50));
}

#[test]
fn order_by_aggregate_output_column() {
    let imp = fixture();
    let out = imp
        .sql("SELECT cust, SUM(amount) AS total FROM orders GROUP BY cust ORDER BY total DESC LIMIT 1")
        .unwrap();
    assert_eq!(out.rows().len(), 1);
    assert_eq!(out.rows()[0].get("group"), &Value::Str("C-3".into()));
}

#[test]
fn contains_over_text_content() {
    let imp = fixture();
    imp.ingest(Input::Text("notes", "suspicious duplicate claim spotted"))
        .unwrap();
    imp.ingest(Input::Text("notes", "all clear today")).unwrap();
    let out = imp
        .sql("SELECT * FROM notes WHERE body CONTAINS 'duplicate'")
        .unwrap();
    assert_eq!(out.docs().len(), 1);
}

#[test]
fn sql_errors_are_reported_not_panicked() {
    let imp = fixture();
    for bad in [
        "SELECT",
        "SELECT * FROM",
        "SELECT * FROM orders WHERE",
        "SELECT * FROM orders LIMIT many",
        "FROM orders SELECT *",
        "SELECT * FROM a JOIN b", // missing ON
    ] {
        assert!(imp.sql(bad).is_err(), "{bad:?} should fail");
    }
}

#[test]
fn queries_span_heterogeneous_documents_in_one_collection() {
    let imp = fixture();
    // a JSON document lands in the same collection as the relational rows
    imp.ingest(Input::Json(
        "orders",
        r#"{"id": 99, "cust": "C-1", "amount": 10, "channel": "web"}"#,
    ))
    .unwrap();
    let out = imp
        .sql("SELECT SUM(amount) AS t FROM orders GROUP BY cust")
        .unwrap();
    assert_eq!(out.rows().len(), 3);
    let web = imp
        .sql("SELECT id FROM orders WHERE channel = 'web'")
        .unwrap();
    assert_eq!(web.rows().len(), 1);
}
