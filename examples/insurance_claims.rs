//! §2.1.2 — Integrating Content and Data.
//!
//! "Insurance companies looking for fraudulent claims need to find the
//! names of procedures or pharmaceuticals within the text of claim forms
//! … and relate that to known, structured information … compared with
//! reference data from similar accidents to determine if the repair
//! estimate is excessive."
//!
//! This example ingests semi-structured claims, aggregates reference
//! statistics per vehicle make, and flags claims whose estimates are
//! excessive versus their peer group — the systematized analysis the
//! paper says today lives in "dozens of applications".
//!
//! ```text
//! cargo run --example insurance_claims
//! ```

use impliance::core::{ApplianceConfig, Impliance, Input, NoFaults, QueryRequest, Stage};
use impliance::docmodel::Value;
use impliance::facet::RollupLevel;
use impliance_bench::Corpus;

fn main() {
    let imp = Impliance::boot(ApplianceConfig::default());
    let mut corpus = Corpus::new(7);
    for _ in 0..600 {
        imp.ingest(Input::Json("claims", &corpus.claim_json()))
            .unwrap();
    }
    // one suspicious outlier claim
    imp.ingest(Input::Json(
        "claims",
        r#"{"claimant": "Victor Quinn", "city": "Miami", "amount": 48000,
            "vehicle": {"make": "Saab", "year": 1999},
            "notes": "Damage to the bumper; estimate covers parts and labor."}"#,
    ))
    .unwrap();
    imp.maintain(Stage::All, None, &NoFaults);

    // 1. Reference data: average estimate per make (SQL aggregation).
    let out = imp
        .query(QueryRequest::builder("SELECT vehicle.make, AVG(amount) AS avg_amount, COUNT(*) AS n FROM claims GROUP BY vehicle.make").build())
        .unwrap();
    println!("reference statistics per make:");
    let mut averages = std::collections::BTreeMap::new();
    for row in out.rows() {
        println!("  {}", row.render());
        if let (make, Some(avg)) = (row.get("group").render(), row.get("avg_amount").as_f64()) {
            averages.insert(make, avg);
        }
    }

    // 2. Flag excessive estimates: claims 5x over their make's average.
    println!("\nclaims flagged as excessive (>5x make average):");
    let all = imp
        .query(
            QueryRequest::builder("SELECT claimant, vehicle.make AS make, amount FROM claims")
                .build(),
        )
        .unwrap();
    let mut flagged = 0;
    for row in all.rows() {
        let make = row.get("make").render();
        let amount = row.get("amount").as_f64().unwrap_or(0.0);
        if let Some(avg) = averages.get(&make) {
            if amount > avg * 5.0 {
                println!(
                    "  {} — {} claim of ${amount} (make avg ${avg:.0})",
                    row.get("claimant").render(),
                    make
                );
                flagged += 1;
            }
        }
    }
    println!("  → {flagged} flagged");

    // 3. Content search inside the claim text, joined back to structure:
    //    find bumper claims over $3000 (content + data in one query).
    let out = imp
        .query(QueryRequest::builder("SELECT claimant, amount FROM claims WHERE notes CONTAINS 'bumper' AND amount > 3000").build())
        .unwrap();
    println!(
        "\nbumper claims over $3000: {} (content+data join)",
        out.rows().len()
    );

    // 4. Facets over discovered structure: damage distribution by city.
    let facet = imp.facet("city");
    println!("\nclaims by city:");
    for v in facet.values.iter().take(5) {
        println!("  {}: {}", v.label, v.count);
    }

    // 5. OLAP over time — ingestion dates roll up by month (§3.2.1's
    //    "aspects from traditional OLAP").
    let rollup = imp
        .rollup("claims", "_none", None, RollupLevel::Month)
        .unwrap();
    println!(
        "\ntime rollup buckets (claims carry no timestamp leaf): {}",
        rollup.len()
    );

    // 6. Cross-document discovery: claimants appearing in multiple claims
    //    (possible fraud ring) surface as same-person relationships.
    let stats = imp.status().discovery;
    println!(
        "\ndiscovery: {} relationships (incl. same-person links across claims)",
        stats.relationships
    );
    let sample = imp
        .query(
            QueryRequest::builder(
                "SELECT claimant FROM claims WHERE vehicle.make = 'Saab' LIMIT 3",
            )
            .build(),
        )
        .unwrap();
    println!("sample Saab claimants:");
    for row in sample.rows() {
        if row.get("claimant") != &Value::Null {
            println!("  {}", row.get("claimant").render());
        }
    }
}
