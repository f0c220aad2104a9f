//! `result.json` and `--compare`.
//!
//! Every invocation appends its runs to `<out>/result.json`, so ten runs
//! of one commit into one directory make one file with ten runs per
//! workload; `--compare a/result.json b/result.json` then reads parent
//! and change side by side.

use std::collections::BTreeMap;
use std::path::Path;

use impliance_docmodel::{json, Node, Value};

use crate::metrics::{Metrics, END_TO_END, EXACT};
use crate::stats::{quartiles, Samples};

/// One finished run of one workload.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// What the contract's last line carries: every end-to-end metric of
    /// an untraced run, every per-layer metric of a traced one.
    pub contract: Metrics,
    /// Everything measured, for the printed lines and `result.json`.
    pub all: Metrics,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn text(s: &str) -> Node {
    Node::scalar(Value::Str(s.to_string()))
}

fn number(v: f64) -> Node {
    Node::scalar(Value::Float(if v.is_finite() { v } else { 0.0 }))
}

fn metrics_node(metrics: &Metrics, with_samples: bool) -> Node {
    Node::map(metrics.iter().map(|(name, m)| {
        let mut fields = vec![
            ("value".to_string(), number(m.value)),
            ("unit".to_string(), text(m.unit)),
        ];
        if let (true, Some(n)) = (with_samples, m.samples) {
            fields.push(("samples".to_string(), Node::scalar(n as i64)));
        }
        (name.clone(), Node::map(fields))
    }))
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
pub fn contract_line(run: &RunResult) -> String {
    json::emit(&Node::map([
        ("correct".to_string(), Node::scalar(run.correct())),
        (
            "attempted".to_string(),
            Node::scalar(run.attempted.max(1) as i64),
        ),
        ("failed".to_string(), Node::scalar(run.failed as i64)),
        ("metrics".to_string(), metrics_node(&run.contract, false)),
    ]))
}

fn run_node(run: &RunResult) -> Node {
    Node::map([
        ("workload".to_string(), text(&run.workload)),
        ("seed".to_string(), Node::scalar(run.seed as i64)),
        ("seconds".to_string(), number(run.seconds)),
        ("traced".to_string(), Node::scalar(run.traced)),
        ("correct".to_string(), Node::scalar(run.correct())),
        ("attempted".to_string(), Node::scalar(run.attempted as i64)),
        ("failed".to_string(), Node::scalar(run.failed as i64)),
        (
            "failures".to_string(),
            Node::seq(run.failures.iter().map(|f| text(f))),
        ),
        ("metrics".to_string(), metrics_node(&run.all, true)),
    ])
}

/// The checked-out commit, read from `.git` without running anything;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Append `runs` to `<out>/result.json`, creating it if needed.
pub fn append(out: &Path, runs: &[RunResult]) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let path = out.join("result.json");
    let mut all: Vec<Node> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| json::parse(&s).ok())
        .and_then(|n| n.get_str_path("runs")?.as_seq().map(<[Node]>::to_vec))
        .unwrap_or_default();
    all.extend(runs.iter().map(run_node));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = Node::map([
        ("host_cores".to_string(), Node::scalar(cores as i64)),
        ("commit".to_string(), text(&commit())),
        ("runs".to_string(), Node::seq(all)),
    ]);
    std::fs::write(path, json::emit_pretty(&doc) + "\n")
}

/// Every value of every metric in a `result.json`, keyed by workload and
/// metric name, each with the seed of the run it came from.
type Table = BTreeMap<(String, String), Vec<(i64, f64)>>;

fn read(path: &Path) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = root
        .get_str_path("runs")
        .and_then(|n| n.as_seq())
        .ok_or_else(|| format!("{}: no runs", path.display()))?;
    let mut table = Table::new();
    for run in runs.iter().filter_map(Node::as_map) {
        let leaf = |k: &str| run.get(k).and_then(|n| n.as_value());
        let (Some(workload), Some(seed), Some(metrics)) = (
            leaf("workload").and_then(|v| v.as_str()),
            leaf("seed").and_then(|v| v.as_i64()),
            run.get("metrics").and_then(|n| n.as_map()),
        ) else {
            continue;
        };
        for (name, metric) in metrics {
            let value = metric
                .get_str_path("value")
                .and_then(|n| n.as_value())
                .and_then(|v| v.as_f64());
            if let Some(v) = value {
                table
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push((seed, v));
            }
        }
    }
    Ok(table)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The parent's own runs spread wider than the bound, and the change
    /// did not beat every one of them: the data cannot tell.
    Unresolved,
}

/// Judge one end-to-end metric: `a` the parent's runs, `b` the change's.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let med = |v: &[f64]| v.iter().copied().collect::<Samples>().median();
    let (ma, mb) = (med(a), med(b));
    let worse_by = if higher_is_better { ma - mb } else { mb - ma } / ma.abs().max(1e-12);
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let (q1, q3) = quartiles(a);
    let spread = (q3 - q1) / ma.abs().max(1e-12);
    let beats = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let clean_win = a.iter().all(|&pa| b.iter().all(|&pb| beats(pb, pa)));
    if spread > bound && !clean_win {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Print one row per workload × metric; `Ok(true)` when nothing regressed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (read(a)?, read(b)?);
    let mut clean = true;
    println!("workload metric verdict parent_median change_median unit bound");
    for ((workload, name), runs_a) in &a {
        let Some(runs_b) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let values = |runs: &[(i64, f64)]| runs.iter().map(|r| r.1).collect::<Vec<f64>>();
        if let Some(e) = END_TO_END.iter().find(|e| e.name == name) {
            let (va, vb) = (values(runs_a), values(runs_b));
            let verdict = judge(&va, &vb, e.higher_is_better, e.bound);
            clean &= verdict != Verdict::Regressed;
            let med = |v: &[f64]| v.iter().copied().collect::<Samples>().median();
            println!(
                "{workload} {name} {} {} {} {} {}",
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                med(&va),
                med(&vb),
                e.unit,
                e.bound
            );
        }
        // A count made by the program must be identical wherever the two
        // sides ran the same seed; `mixed_ops` has two threads and timers,
        // so its counts need not repeat.
        let exact = EXACT.contains(&name.as_str()) || name == "stored_bytes_per_user_byte";
        if exact && workload != "mixed_ops" {
            let mut by_seed: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
            for (seed, v) in runs_a.iter().chain(runs_b) {
                if runs_a.iter().any(|r| r.0 == *seed) && runs_b.iter().any(|r| r.0 == *seed) {
                    by_seed.entry(*seed).or_default().push(*v);
                }
            }
            for (seed, vs) in by_seed {
                let same = vs.iter().all(|v| *v == vs[0]);
                clean &= same;
                let verdict = if same { "ok" } else { "regressed" };
                println!("{workload} {name} {verdict} seed={seed} {vs:?} exact");
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_median_worse_by_more_than_the_bound_regresses() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(&parent, &[105.0; 5], false, 0.10), Verdict::Ok);
        assert_eq!(judge(&parent, &[111.0; 5], false, 0.10), Verdict::Regressed);
        // direction: for a rate, lower is the worse side
        assert_eq!(judge(&parent, &[89.0; 5], true, 0.10), Verdict::Regressed);
        assert_eq!(judge(&parent, &[111.0; 5], true, 0.10), Verdict::Ok);
    }

    #[test]
    fn a_wide_parent_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0];
        assert_eq!(judge(&noisy, &[101.0; 8], false, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &[60.0; 8], false, 0.10), Verdict::Ok);
    }

    #[test]
    fn result_json_round_trips_through_append_and_read() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/impbench-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut all = Metrics::new();
        crate::metrics::put(&mut all, "queries_per_s", 12.5, "1/s");
        let run = |traced| RunResult {
            workload: "sql_analytics".into(),
            seed: 42,
            seconds: 1.0,
            traced,
            attempted: 10,
            failed: 0,
            failures: vec![],
            contract: all.clone(),
            all: all.clone(),
        };
        append(&dir, &[run(false)]).expect("first append");
        append(&dir, &[run(false), run(true)]).expect("second append");
        let table = read(&dir.join("result.json")).expect("reads back");
        let key = ("sql_analytics".to_string(), "queries_per_s".to_string());
        assert_eq!(table[&key], vec![(42, 12.5); 3]);
        let line = contract_line(&run(false));
        assert!(
            line.contains(r#""correct":true"#) && line.contains(r#""failed":0"#),
            "{line}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
