//! Quickstart: boot an appliance, throw data of every shape at it, and
//! query it — no schema, no indexes to pick, no knobs.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use impliance::core::{ApplianceConfig, Impliance, Input, NoFaults, QueryRequest, Stage};
use impliance::docmodel::{RelationalSchema, Value};

fn main() {
    // 1. Boot: operational out of the box (§3.1). Zero admin decisions.
    let imp = Impliance::boot(ApplianceConfig::default());

    // 2. Ingest anything through one door — the "stewing pot" (§2.2).
    let schema = RelationalSchema::new("products", &["sku", "price"]);
    for input in [
        Input::Json(
            "claims",
            r#"{"claimant": "Grace Hopper", "amount": 1500,
                "vehicle": {"make": "Volvo", "year": 2004},
                "notes": "Damage to the bumper; Grace Hopper was quite unhappy about the delay."}"#,
        ),
        Input::Text(
            "transcripts",
            "Call from Grace Hopper in Seattle about product BX-1042; she is happy with the fix, thanks!",
        ),
        Input::Row(&schema, vec![Value::Str("BX-1042".into()), Value::Float(29.95)]),
        Input::Csv("stores", "city,manager\nSeattle,Ada Lovelace\nAustin,Alan Turing\n"),
    ] {
        imp.ingest(input).unwrap();
    }

    // 3. SQL works immediately — the relational row "can immediately be
    //    queried by SQL" (Figure 2).
    let out = imp
        .query(QueryRequest::builder("SELECT price FROM products WHERE sku = 'BX-1042'").build())
        .unwrap();
    println!("SQL price lookup     → {}", out.rows()[0].render());

    // 4. Background phases enrich answers: text indexing, then discovery.
    imp.maintain(Stage::All, None, &NoFaults); // a real deployment runs this in the background

    // 5. Keyword search, out of the box (§3.2.1).
    let keyword = QueryRequest::builder("")
        .match_text("*", "bumper unhappy")
        .top_k(5);
    let hits = imp.query(keyword.build()).unwrap().hits();
    println!("keyword search       → {} hit(s)", hits.len());

    // 6. Discovered annotations exposed as relational views (Figure 2).
    let (entities, _) = impliance::core::views::entity_view(&imp).unwrap();
    println!(
        "entity view          → {} extracted mention rows",
        entities.len()
    );
    for row in entities.iter().take(4) {
        println!("                       {}", row.render());
    }

    // 7. The graph interface: how are two pieces of data connected
    //    (§3.2.1)? The claim and the transcript share Grace Hopper.
    let claim_id = impliance::docmodel::DocId(1);
    let transcript_id = impliance::docmodel::DocId(2);
    match imp.connect(claim_id, transcript_id, 3) {
        Some(path) => println!(
            "graph connection     → {} hop(s): {:?}",
            path.len() - 1,
            path.iter().map(|d| d.0).collect::<Vec<_>>()
        ),
        None => println!("graph connection     → not connected"),
    }

    // 8. Faceted guided search (§3.2.1).
    let mut session = imp.session();
    session.keywords("grace");
    println!(
        "guided search        → {} result(s) for 'grace'",
        session.results().len()
    );
    let dims = imp.facet_dimensions(1, 20);
    println!("discovered facets    → {dims:?}");

    // 9. The TCO observable: how many human decisions did all of this take?
    println!("admin operations     → {}", imp.status().admin_ops);
}
