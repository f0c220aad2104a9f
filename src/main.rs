//! The Impliance shell: an interactive front end to a single-box
//! appliance instance.
//!
//! ```text
//! cargo run --release --bin impliance
//! impliance> ingest json claims {"claimant": "Grace Hopper", "amount": 1500}
//! impliance> sql SELECT claimant FROM claims WHERE amount > 1000
//! impliance> drain
//! impliance> search hopper
//! ```
//!
//! Type `help` inside the shell for the full command list.

use std::io::{BufRead, Write};

use impliance::core::{ApplianceConfig, Impliance, Input, NoFaults, QueryRequest, Stage};
use impliance::docmodel::DocId;

fn main() {
    let imp = Impliance::boot(ApplianceConfig::default());
    println!("Impliance appliance — operational out of the box. Type 'help' for commands.");
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        print!("impliance> ");
        std::io::stdout().flush().ok();
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        if input == "quit" || input == "exit" {
            break;
        }
        if let Err(message) = dispatch(&imp, input) {
            println!("error: {message}");
        }
    }
}

fn dispatch(imp: &Impliance, input: &str) -> Result<(), String> {
    let (command, rest) = input.split_once(' ').unwrap_or((input, ""));
    match command {
        "help" => {
            println!(
                "commands:\n\
                 \x20 ingest json <collection> <json>   ingest a JSON document\n\
                 \x20 ingest text <collection> <text>   ingest plain text\n\
                 \x20 ingest xml <collection> <xml>     ingest XML\n\
                 \x20 sql <statement>                   run SQL (SELECT ...)\n\
                 \x20 search <terms>                    keyword search (top 10)\n\
                 \x20 phrase <words>                    exact-phrase search\n\
                 \x20 guided <terms path:value ...>     guided faceted search\n\
                 \x20 facets [path]                     facet dimensions / counts\n\
                 \x20 connect <id> <id>                 how are two docs connected?\n\
                 \x20 lineage <id>                      provenance of a document\n\
                 \x20 drain                             run background indexing+discovery\n\
                 \x20 status (or stats)                 storage, epochs, backlogs, accounting\n\
                 \x20 demo                              load a small demo corpus\n\
                 \x20 quit"
            );
            Ok(())
        }
        "ingest" => {
            let (format, rest) = rest.split_once(' ').ok_or("usage: ingest <format> ...")?;
            let (collection, body) = rest
                .split_once(' ')
                .ok_or("usage: ingest <format> <collection> <body>")?;
            let input = match format {
                "json" => Input::Json(collection, body),
                "text" => Input::Text(collection, body),
                "xml" => Input::Xml(collection, body),
                "email" => Input::Email(collection, body),
                other => return Err(format!("unknown format {other}")),
            };
            for id in imp.ingest(input).map_err(|e| e.to_string())? {
                println!("ingested {id} (background analysis pending — run 'drain')");
            }
            Ok(())
        }
        "sql" => {
            let out = imp
                .sql(input.strip_prefix("sql ").unwrap_or(rest))
                .map_err(|e| e.to_string())?;
            match &out {
                impliance::query::QueryOutput::Rows(rows) => {
                    for row in rows.iter().take(25) {
                        println!("{}", row.render());
                    }
                    println!("({} row(s))", rows.len());
                }
                impliance::query::QueryOutput::Docs(docs) => {
                    for d in docs.iter().take(10) {
                        println!(
                            "{} [{}] {}",
                            d.id(),
                            d.collection(),
                            impliance::docmodel::json::emit(d.root())
                        );
                    }
                    println!("({} document(s))", docs.len());
                }
                impliance::query::QueryOutput::Path(p) => println!("{p:?}"),
            }
            Ok(())
        }
        "search" | "phrase" => {
            let request = QueryRequest::builder("").match_text("*", rest).top_k(10);
            let request = if command == "phrase" {
                request.phrase()
            } else {
                request
            };
            let resp = imp.query(request.build()).map_err(|e| e.to_string())?;
            for hit in resp.hits() {
                let doc = imp.get(hit.id).map_err(|e| e.to_string())?;
                let snippet: String = doc
                    .map(|d| d.full_text().chars().take(70).collect())
                    .unwrap_or_default();
                println!("{} (score {:.3}) {}", hit.id, hit.score, snippet);
            }
            Ok(())
        }
        "guided" => {
            let mut session = imp.session();
            impliance::facet::apply_guided_query(&mut session, rest);
            let results = session.results();
            println!(
                "{} result(s): {:?}",
                results.len(),
                results.iter().take(10).collect::<Vec<_>>()
            );
            for dim in session.suggest_dimensions(3) {
                println!("  drill-down suggestion: {dim}");
            }
            Ok(())
        }
        "facets" => {
            if rest.is_empty() {
                println!("{:?}", imp.facet_dimensions(2, 30));
            } else {
                for v in imp.facet(rest).values.iter().take(15) {
                    println!("{}: {}", v.label, v.count);
                }
            }
            Ok(())
        }
        "connect" => {
            let mut parts = rest.split_whitespace();
            let a: u64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or("connect <id> <id>")?;
            let b: u64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or("connect <id> <id>")?;
            match imp.connect(DocId(a), DocId(b), 4) {
                Some(path) => println!("connected: {path:?}"),
                None => println!("not connected within 4 hops"),
            }
            Ok(())
        }
        "lineage" => {
            let id: u64 = rest.trim().parse().map_err(|_| "lineage <id>")?;
            let lineage = impliance::core::audit::lineage(imp, DocId(id));
            for entry in lineage.map_err(|e| e.to_string())? {
                println!("{entry:?}");
            }
            Ok(())
        }
        "drain" => {
            imp.maintain(Stage::All, None, &NoFaults);
            let s = imp.status().discovery;
            println!(
                "background work drained: {} docs analyzed, {} annotations, {} relationships",
                s.docs_processed, s.annotations, s.relationships
            );
            Ok(())
        }
        "status" | "stats" => {
            let s = imp.status();
            let storage = imp.storage();
            println!(
                "storage:   epoch {}  live docs {}  versions {}  stored {} bytes\n\
                 index:     watermark {}  backlog {}\n\
                 discovery: watermark {}  backlog {}  {:?}\n\
                 workload:  {:?}\n\
                 admin ops: {}",
                s.storage_epoch,
                storage.live_docs(),
                storage.total_versions(),
                storage.stored_bytes(),
                s.index_epoch,
                s.index_backlog,
                s.annotation_epoch,
                s.discovery_backlog,
                s.discovery,
                s.workload,
                s.admin_ops
            );
            Ok(())
        }
        "demo" => {
            for input in [
                Input::Json(
                    "claims",
                    r#"{"claimant": "Grace Hopper", "amount": 1500, "vehicle": {"make": "Volvo"}, "notes": "bumper damage, Grace Hopper very unhappy"}"#,
                ),
                Input::Json(
                    "claims",
                    r#"{"claimant": "Alan Turing", "amount": 320, "vehicle": {"make": "Saab"}, "notes": "mirror fix, quick and great service"}"#,
                ),
                Input::Text(
                    "transcripts",
                    "Call from Grace Hopper in Seattle about product BX-1042, requesting refund",
                ),
                Input::Email(
                    "mail",
                    "From: ada@example.com\nSubject: Acme Widgets Inc. contract\n\nRenewal confirmed for BX-1042.",
                ),
            ] {
                imp.ingest(input).map_err(|e| e.to_string())?;
            }
            imp.maintain(Stage::All, None, &NoFaults);
            println!(
                "demo corpus loaded and analyzed; try: sql SELECT claimant, amount FROM claims"
            );
            Ok(())
        }
        other => Err(format!("unknown command {other} (try 'help')")),
    }
}
