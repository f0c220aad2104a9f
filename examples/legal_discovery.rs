//! §2.1.3 — Legal Compliance.
//!
//! "The court-ordered discovery process often requires each litigant to
//! locate and preserve broad classes of information … the relevance of
//! data may be due to indirect contractual relationships such as
//! partnerships with other enterprises and may require determining the
//! transitive closure of relationships extracted from the content."
//!
//! This example ingests an e-mail archive and contracts, lets discovery
//! extract organizations and link documents mentioning the same entity,
//! then answers a discovery request: *find and preserve everything
//! transitively connected to Acme Widgets Inc.* — and demonstrates that
//! preservation holds even when a document is later edited (immutable
//! versions, §4).
//!
//! ```text
//! cargo run --example legal_discovery
//! ```

use impliance::core::{ApplianceConfig, At, Impliance, Input, NoFaults, QueryRequest, Stage};
use impliance::docmodel::{Node, Version};
use impliance_bench::Corpus;

fn main() {
    let imp = Impliance::boot(ApplianceConfig::default());
    let mut corpus = Corpus::new(99);

    // the enterprise archive: e-mail + contract snippets (text)
    let mut ids = Vec::new();
    for _ in 0..300 {
        ids.push(imp.ingest(Input::Email("mail", &corpus.email())).unwrap()[0]);
    }
    let contract = imp
        .ingest(Input::Text(
            "contracts",
            "Master supply agreement between Acme Widgets Inc. and Initech LLC, \
             executed Jan 5, 2006 in Austin. Product line BX-1042 is covered.",
        ))
        .unwrap()[0];
    imp.maintain(Stage::All, None, &NoFaults);

    // 1. Locate: keyword search across the whole archive, any format.
    let sweep = QueryRequest::builder("")
        .match_text("*", "Acme agreement")
        .top_k(20)
        .build();
    let hits = imp.query(sweep).unwrap().hits();
    println!(
        "keyword sweep for 'Acme agreement' → {} documents",
        hits.len()
    );

    // 2. Expand: transitive closure over discovered relationships from
    //    the contract (same-organization links across e-mails).
    let closure = imp.closure(contract, &["same-organization", "same-product_code"], 4);
    println!(
        "transitive closure from the contract → {} documents to preserve",
        closure.len()
    );

    // 3. How is a given e-mail connected to the contract? (§3.2.1's
    //    connection query.)
    let mut connected = 0;
    for &id in ids.iter().take(50) {
        if imp.connect(contract, id, 3).is_some() {
            connected += 1;
        }
    }
    println!("e-mails (of first 50) connected to the contract within 3 hops: {connected}");

    // 4. Preserve: even if someone edits the contract, the original
    //    version remains readable — litigation hold by construction.
    let original = imp.get(contract).unwrap().unwrap();
    imp.update(
        contract,
        Node::map([("body".into(), Node::scalar("redacted"))]),
    )
    .unwrap();
    let held = imp
        .get_at(contract, At::Version(Version(1)))
        .unwrap()
        .unwrap();
    assert_eq!(held.full_text(), original.full_text());
    println!(
        "contract edited to v{}, but v1 still readable ({} chars preserved)",
        imp.versions(contract).len(),
        held.full_text().len()
    );

    // 5. Audit surface: every version of the contract on record.
    println!(
        "versions on record for the contract: {:?}",
        imp.versions(contract)
    );

    // 6. Proactive compliance: entity view gives auditors a relational
    //    surface over *content* without any application rewrite.
    let (entities, freshness) = impliance::core::views::entity_view(&imp).unwrap();
    let orgs = entities
        .into_iter()
        .filter(|r| r.get("kind").render() == "organization")
        .count();
    println!(
        "organization mentions available to the audit view: {orgs} (freshness {:.2})",
        freshness.ratio()
    );
}
