//! The fixture workspace under `tests/fixtures/ws` carries deliberate
//! violations of every invariant this crate still checks; the scan over
//! it is asserted both structurally and against the golden JSON report.

use std::path::PathBuf;
use std::process::Command;

use impliance_analysis::{lint_workspace, LintConfig, LintId};

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

#[test]
fn fixture_trips_each_invariant() {
    let config = LintConfig::impliance(fixture_root());
    let diags = lint_workspace(&config).expect("fixture scan");
    let count = |id| diags.iter().filter(|d| d.id == id).count();
    assert_eq!(count(LintId::L7), 1, "diags: {diags:?}");
    assert_eq!(count(LintId::L9), 1, "diags: {diags:?}");
    assert_eq!(count(LintId::L10), 1, "diags: {diags:?}");
    assert_eq!(count(LintId::L11), 2, "diags: {diags:?}");
    assert_eq!(count(LintId::L12), 2, "diags: {diags:?}");

    // deterministic output contract: sorted by (file, line, lint id)
    let keys: Vec<(&str, u32, LintId)> = diags
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.id))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "diagnostics are sorted");

    // L7 fires inside the #[cfg(test)] module — test code is NOT exempt —
    // while the handled `?` chain in the same file stays silent
    let l7 = diags
        .iter()
        .find(|d| d.id == LintId::L7)
        .expect("an L7 diag");
    assert_eq!(l7.file, "crates/query/src/dist.rs");
    assert!(
        l7.message.contains("`submit_to`"),
        "L7 names the chain root: {}",
        l7.message
    );

    // L9: the unwrap in the docmodel crate is flagged at the panic site,
    // with a witness path from the entry point
    let l9 = diags
        .iter()
        .find(|d| d.id == LintId::L9)
        .expect("an L9 diag");
    assert_eq!(l9.file, "crates/docmodel/src/shred.rs");
    assert!(
        l9.message.contains("Impliance::query"),
        "L9 names the entry point: {}",
        l9.message
    );
    assert!(
        l9.witness
            .first()
            .is_some_and(|s| s.contains("Impliance::query")),
        "witness starts at the entry: {:?}",
        l9.witness
    );
    assert!(
        l9.witness.last().is_some_and(|s| s.contains("unwrap")),
        "witness ends at the panic site: {:?}",
        l9.witness
    );

    // L10: the clone inside the operator pull loop only — the identical
    // clone in the non-operator helper stays silent
    let l10 = diags
        .iter()
        .find(|d| d.id == LintId::L10)
        .expect("an L10 diag");
    assert_eq!(l10.file, "crates/query/src/fold.rs");
    assert!(
        l10.message.contains("FoldOp::next_batch"),
        "L10 names the operator impl: {}",
        l10.message
    );

    // L11: the guard held across the transitively-blocking call, with a
    // witness walking down to the transmit sink; and the guard held
    // across a direct channel send, not the send after the drop
    let l11: Vec<_> = diags.iter().filter(|d| d.id == LintId::L11).collect();
    let gossip = l11
        .iter()
        .find(|d| d.file == "crates/cluster/src/gossip.rs")
        .expect("the gossip L11");
    assert!(
        gossip.message.contains("`guard`") && gossip.message.contains("Network::transmit"),
        "L11 names the guard and the sink: {}",
        gossip.message
    );
    assert!(
        gossip.witness.iter().any(|s| s.contains("flush_round")),
        "witness includes the intermediate callee: {:?}",
        gossip.witness
    );
    let relay = l11
        .iter()
        .find(|d| d.file == "crates/cluster/src/relay.rs")
        .expect("the relay L11");
    assert!(
        relay.message.contains("`log`") && relay.message.contains("channel send"),
        "L11 names the guard and the channel op: {}",
        relay.message
    );
    assert_eq!(relay.line, 18);

    // L12 fires in both directions: the undocumented recorded metric at
    // its call site, the dead documented metric at its DESIGN.md line
    let l12: Vec<_> = diags.iter().filter(|d| d.id == LintId::L12).collect();
    assert!(
        l12.iter()
            .any(|d| d.file == "crates/annotate/src/obs_hooks.rs"
                && d.message.contains("fixture.annotate.phantom_hits")),
        "undocumented recorded metric: {l12:?}"
    );
    assert!(
        l12.iter()
            .any(|d| d.file == "DESIGN.md" && d.message.contains("fixture.dead.gauge")),
        "documented-but-dead metric: {l12:?}"
    );
}

#[test]
fn checker_binary_fails_on_fixture_with_golden_report() {
    let out_path = std::env::temp_dir().join(format!(
        "impliance-fixture-report-{}.json",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_impliance-analysis"))
        .args(["check", "--root"])
        .arg(fixture_root())
        .arg("--json-out")
        .arg(&out_path)
        .output()
        .expect("run checker binary");

    assert_eq!(
        output.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    for id in LintId::ALL {
        let tag = format!("[{id}]");
        assert!(stderr.contains(&tag), "stderr names {tag}: {stderr}");
    }
    assert!(
        stderr.contains("witness:"),
        "interprocedural findings render their witness path: {stderr}"
    );

    // the JSON report (diagnostics with witness paths, the serialized
    // call graph) matches the committed golden byte-for-byte (both are
    // produced by the same deterministic pretty-printer)
    let got = std::fs::read_to_string(&out_path).expect("report written");
    let _ = std::fs::remove_file(&out_path);
    let golden = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_report.json"),
    )
    .expect("golden present");
    assert_eq!(got, golden, "report drifted from tests/golden_report.json");
}

#[test]
fn renamed_observability_heading_fails_the_check() {
    // a clean tree whose DESIGN.md lost its `## Observability` heading:
    // the docs<->metrics gate must fail, not pass with no contract
    let tmp = std::env::temp_dir().join(format!("impliance-l12-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let hooks = "crates/annotate/src/obs_hooks.rs";
    std::fs::create_dir_all(tmp.join(hooks).parent().expect("parent")).expect("mkdir");
    std::fs::copy(fixture_root().join(hooks), tmp.join(hooks)).expect("copy");
    let design = std::fs::read_to_string(fixture_root().join("DESIGN.md")).expect("design");
    let renamed = design.replace("## Observability", "## Metrics");
    std::fs::write(tmp.join("DESIGN.md"), renamed).expect("write design");

    let output = Command::new(env!("CARGO_BIN_EXE_impliance-analysis"))
        .args(["check", "--root"])
        .arg(&tmp)
        .arg("--json-out")
        .arg(tmp.join("report.json"))
        .output()
        .expect("run checker binary");
    let _ = std::fs::remove_dir_all(&tmp);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("DESIGN.md:1: [L12]") && stderr.contains("names no metric"),
        "the finding names the empty contract: {stderr}"
    );
}
