//! CLI for the Impliance invariant checker.
//!
//! ```text
//! cargo run -p impliance-analysis -- check                    # gate: fail on any finding
//! cargo run -p impliance-analysis -- check --json-out out.json --root /path/to/ws
//! cargo run -p impliance-analysis -- explain L9               # rationale + heuristics for a lint
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use impliance_analysis::report::Json;
use impliance_analysis::{analyze_workspace, Diagnostic, LintConfig, LintId, Workspace};

fn usage() -> ExitCode {
    eprintln!(
        "usage: impliance-analysis check [--root DIR] [--json-out FILE]\n\
         \x20      impliance-analysis explain <{}>\n\
         \n\
         check    scan the workspace, fail on any finding\n\
         explain  print a lint's rationale, detection heuristics, and suppression syntax\n\
         \n\
         Enforced invariants:\n\
         {}",
        LintId::ALL.map(|l| l.as_str()).join("|"),
        LintId::ALL
            .iter()
            .map(|l| format!("  {l}: {}\n", l.description()))
            .collect::<String>()
    );
    ExitCode::from(2)
}

fn explain(id: LintId) -> ExitCode {
    println!("{id}: {}\n", id.description());
    println!("Why it matters:\n{}\n", id.rationale());
    println!("How it is detected:\n{}\n", id.heuristics());
    println!("Suppression:\n{}", id.suppression());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut command: Option<String> = None;
    let mut explain_id: Option<LintId> = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "check" if command.is_none() => command = Some("check".into()),
            "explain" if command.is_none() => {
                command = Some("explain".into());
                match iter.next().and_then(|s| LintId::parse(s)) {
                    Some(id) => explain_id = Some(id),
                    None => {
                        eprintln!("impliance-analysis: explain takes a lint id");
                        return usage();
                    }
                }
            }
            "--root" => match iter.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--json-out" => match iter.next() {
                Some(file) => json_out = Some(PathBuf::from(file)),
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    match (command.as_deref(), explain_id) {
        (Some("explain"), Some(id)) => return explain(id),
        (Some("check"), _) => {}
        _ => return usage(),
    }

    let root = root.unwrap_or_else(find_workspace_root);
    let config = LintConfig::impliance(&root);

    let analysis = match analyze_workspace(&config) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("impliance-analysis: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let diags = &analysis.diagnostics;
    let report_path = write_report(&root, json_out, diags, &analysis.workspace);

    println!(
        "impliance-analysis: scanned workspace at {}",
        root.display()
    );
    for id in LintId::ALL {
        println!(
            "  {id} ({}): {} finding(s)",
            id.description(),
            diags.iter().filter(|d| d.id == id).count()
        );
    }
    if let Some(p) = report_path {
        println!("  report: {}", p.display());
    }

    if diags.is_empty() {
        println!("OK: no invariant violations");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nViolations:");
        for d in diags {
            eprintln!("{}", d.render());
        }
        eprintln!(
            "\nFAIL: {} violation(s). Fix them, or annotate with \
             `// impliance-lint: allow(Lx)` and a justification. \
             `cargo run -p impliance-analysis -- explain <Lx>` prints each lint's \
             rationale and heuristics.",
            diags.len()
        );
        ExitCode::from(1)
    }
}

/// Walk up from CWD to the first directory holding a `[workspace]`
/// Cargo.toml; fall back to CWD.
fn find_workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.clone();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent.to_path_buf(),
            None => return cwd,
        }
    }
}

/// Emit `analysis_report.json` (machine-readable mirror of the run,
/// including the serialized call graph and per-finding witness paths).
fn write_report(
    root: &std::path::Path,
    json_out: Option<PathBuf>,
    diags: &[Diagnostic],
    workspace: &Workspace,
) -> Option<PathBuf> {
    let path = json_out.unwrap_or_else(|| root.join("analysis_report.json"));

    let diag_json = |d: &Diagnostic| {
        let mut obj = BTreeMap::new();
        obj.insert("id".to_string(), Json::Str(d.id.as_str().to_string()));
        obj.insert("file".to_string(), Json::Str(d.file.clone()));
        obj.insert("line".to_string(), Json::Num(d.line as f64));
        obj.insert("signature".to_string(), Json::Str(d.signature.clone()));
        obj.insert("message".to_string(), Json::Str(d.message.clone()));
        obj.insert("suggestion".to_string(), Json::Str(d.suggestion.clone()));
        if !d.witness.is_empty() {
            obj.insert(
                "witness".to_string(),
                Json::Arr(d.witness.iter().map(|s| Json::Str(s.clone())).collect()),
            );
        }
        Json::Obj(obj)
    };

    let mut per_lint: BTreeMap<String, Json> = BTreeMap::new();
    for id in LintId::ALL {
        let n = diags.iter().filter(|d| d.id == id).count();
        per_lint.insert(id.as_str().to_string(), Json::Num(n as f64));
    }

    let mut totals = BTreeMap::new();
    totals.insert("findings".to_string(), Json::Num(diags.len() as f64));
    totals.insert("per_lint".to_string(), Json::Obj(per_lint));

    let mut doc = BTreeMap::new();
    doc.insert(
        "tool".to_string(),
        Json::Str("impliance-analysis".to_string()),
    );
    doc.insert("version".to_string(), Json::Num(3.0));
    doc.insert("totals".to_string(), Json::Obj(totals));
    doc.insert(
        "diagnostics".to_string(),
        Json::Arr(diags.iter().map(diag_json).collect()),
    );
    doc.insert(
        "callgraph".to_string(),
        workspace.graph.to_json(&workspace.table),
    );
    doc.insert(
        "invariants".to_string(),
        Json::Obj(
            LintId::ALL
                .iter()
                .map(|l| {
                    (
                        l.as_str().to_string(),
                        Json::Str(l.description().to_string()),
                    )
                })
                .collect(),
        ),
    );

    match std::fs::write(&path, Json::Obj(doc).pretty()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!(
                "impliance-analysis: warning: could not write {}: {e}",
                path.display()
            );
            None
        }
    }
}
