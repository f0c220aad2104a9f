//! §2.1.1 — Exploiting Customer Relationship Management.
//!
//! "Ideally, the company would capture the customers' words and extract
//! from them what products they know about, might be interested in, and
//! even their opinion of the company's products."
//!
//! This example ingests call-center transcripts alongside the customer
//! master data, lets discovery extract product mentions and sentiment,
//! and then answers the CRM question: *which products do unhappy
//! customers talk about, and who are they?*
//!
//! ```text
//! cargo run --example call_center
//! ```

use std::collections::BTreeMap;

use impliance::core::{views, ApplianceConfig, Impliance, Input, NoFaults, Stage};
use impliance::docmodel::Value;
use impliance_bench::Corpus;

fn main() {
    let imp = Impliance::boot(ApplianceConfig::default());
    let mut corpus = Corpus::new(2024);

    // customer master data (structured) + transcripts (unstructured)
    let schema = Corpus::customer_schema();
    for code in 0..50 {
        imp.ingest(Input::Row(&schema, corpus.customer_row(code)))
            .unwrap();
    }
    for _ in 0..400 {
        imp.ingest(Input::Text("transcripts", &corpus.transcript()))
            .unwrap();
    }
    println!(
        "ingested 50 customer rows + 400 transcripts (admin ops: {})",
        imp.status().admin_ops
    );

    // background discovery: entities (products, persons) + sentiment
    imp.maintain(Stage::All, None, &NoFaults);
    let stats = imp.status().discovery;
    println!(
        "discovery: {} docs processed, {} mentions, {} relationships",
        stats.docs_processed, stats.mentions, stats.relationships
    );

    // Question 1: what is the overall mood of our callers?
    let (sentiment, _) = views::sentiment_view(&imp).unwrap();
    let mut moods: BTreeMap<String, usize> = BTreeMap::new();
    for row in &sentiment {
        *moods.entry(row.get("label").render()).or_insert(0) += 1;
    }
    println!("\ncaller sentiment: {moods:?}");

    // Question 2: which products do *unhappy* callers mention?
    let (entities, _) = views::entity_view(&imp).unwrap();
    let negative_subjects: Vec<i64> = sentiment
        .iter()
        .filter(|r| r.get("label") == &Value::Str("negative".into()))
        .filter_map(|r| r.get("subject").as_i64())
        .collect();
    let mut complained_products: BTreeMap<String, usize> = BTreeMap::new();
    for e in &entities {
        if e.get("kind") == &Value::Str("product_code".into()) {
            if let Some(subj) = e.get("subject").as_i64() {
                if negative_subjects.contains(&subj) {
                    *complained_products
                        .entry(e.get("text").render())
                        .or_insert(0) += 1;
                }
            }
        }
    }
    let mut ranked: Vec<(String, usize)> = complained_products.into_iter().collect();
    ranked.sort_by_key(|r| std::cmp::Reverse(r.1));
    println!("\nproducts mentioned in negative calls (top 5):");
    for (product, n) in ranked.iter().take(5) {
        println!("  {product}: {n} complaint call(s)");
    }

    // Question 3: guided search — drill into unhappy calls interactively.
    let mut session = imp.session();
    session.keywords("refund");
    println!(
        "\nguided search 'refund' → {} calls",
        session.results().len()
    );
    let dims = session.suggest_dimensions(3);
    println!("suggested drill-down dimensions: {dims:?}");

    // Question 4: find the callers the discovery engine recognized in
    // *both* a transcript and the master data (cross-silo resolution).
    let same_person_links = entities
        .iter()
        .filter(|e| e.get("kind") == &Value::Str("person".into()))
        .count();
    println!("\nperson mentions available for cross-silo resolution: {same_person_links}");
}
