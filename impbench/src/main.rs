//! `impbench`: one seeded benchmark of the Impliance appliance.
//!
//! Four workloads (`bulk_ingest`, `sql_analytics`, `text_search`,
//! `mixed_ops`), ten end-to-end metrics measured with tracing off, and a
//! traced repeat that attributes the time to the layers underneath from
//! outside them. See `README.md` beside this crate for every name and why
//! it is there.
//!
//! ```text
//! impbench --workload <name|all> --seed <u64> [--seconds <n>] [--trace [0|1]]
//!          [--out <dir>] [--smoke]
//! impbench --compare <a/result.json> <b/result.json>
//! ```

mod gen;
mod metrics;
mod probes;
mod queries;
mod report;
mod stats;
mod store;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use metrics::{put, put_n, Metrics};
use report::RunResult;
use trace::Tracer;
use workloads::{Scale, WORKLOADS};

/// Length of a measured section when `--seconds` is not given; also what
/// `BENCHMARK.json` passes.
pub const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: impbench --workload <{}|all> --seed <u64> [--seconds <n>] [--trace [0|1]] \
         [--out <dir>] [--smoke]\n       impbench --compare <a/result.json> <b/result.json>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("target/impbench"),
        smoke: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = it.next().unwrap_or_else(|| usage()),
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seconds" => {
                args.seconds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .unwrap_or_else(|| usage());
            }
            "--trace" => {
                // a bare flag for people, `--trace 0|1` for the driver
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => args.out = it.next().map(PathBuf::from).unwrap_or_else(|| usage()),
            "--smoke" => args.smoke = true,
            "--compare" => match (it.next(), it.next()) {
                (Some(a), Some(b)) => args.compare = Some((a.into(), b.into())),
                _ => usage(),
            },
            _ => usage(),
        }
    }
    if args.compare.is_none() && args.workload != "all" && !WORKLOADS.contains(&&*args.workload) {
        usage();
    }
    args
}

/// Run one workload: an untraced pass for the end-to-end metrics and, when
/// asked, a traced repeat plus the probe pass for the per-layer ones.
fn run_workload(workload: &str, seed: u64, scale: Scale, traced: bool, out: &Path) -> RunResult {
    let origin = Instant::now();
    let scale = Scale {
        // the traced run is about layers; one set-up is enough for it
        setups: if traced { 1 } else { scale.setups },
        ..scale
    };
    let mut off = Tracer::new(false, origin, 1);
    let pass = workloads::run(workload, seed, &scale, &mut off).unwrap_or_else(|| usage());
    let end_to_end = metrics::end_to_end(&pass);
    let mut all = end_to_end.clone();
    all.extend(metrics::extras(&pass));
    let untraced_qps = end_to_end.get("queries_per_s").map_or(0.0, |m| m.value);
    let mut tally = pass.tally;
    drop((pass.store, pass.oracle)); // free the appliance before the repeat

    let mut layers = Metrics::new();
    if traced {
        let mut on = Tracer::new(true, origin, 1);
        let pass = workloads::run(workload, seed, &scale, &mut on).unwrap_or_else(|| usage());
        let q = &pass.tally.query_ms;
        let traced_qps = pass.tally.queries_per_s();
        put_n(&mut layers, "core.query.p99_ms", q.p(0.99), "ms", q.len());
        let late = &pass.tally.late_ms;
        put_n(
            &mut layers,
            "bench.generator_late_p95_ms",
            late.p(0.95),
            "ms",
            late.len(),
        );
        put(
            &mut layers,
            "bench.trace_overhead_pct",
            (untraced_qps - traced_qps) / untraced_qps.max(1e-12) * 100.0,
            "%",
        );
        let probe_fails = probes::run(&pass, seed, &mut on, &mut layers).0;
        metrics::from_spans(on.spans(), &mut layers);
        tally.attempted += pass.tally.attempted;
        tally.failed += pass.tally.failed + probe_fails.len() as u64;
        tally.failures.extend(pass.tally.failures);
        tally.failures.extend(probe_fails);
        // spans go to disk only now, after everything measured has ended
        let file = out.join(format!("trace-{workload}.jsonl"));
        if let Err(e) =
            std::fs::create_dir_all(out).and_then(|()| trace::write_jsonl(&file, on.spans()))
        {
            eprintln!("impbench: cannot write {}: {e}", file.display());
            tally.failed += 1;
        }
        all.extend(layers.clone());
    }

    for (name, m) in &all {
        let samples = m.samples.map(|n| format!(" n={n}")).unwrap_or_default();
        println!("{workload} {name} {} {}{samples}", m.value, m.unit);
    }
    for failure in &tally.failures {
        eprintln!("impbench: {workload}: FAILED {failure}");
    }
    let contract = if traced { layers } else { end_to_end };
    RunResult {
        workload: workload.to_string(),
        seed,
        seconds: scale.seconds,
        traced,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        contract,
        all,
    }
}

fn main() {
    let args = parse_args();
    if let Some((a, b)) = &args.compare {
        match report::compare(a, b) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => {
                eprintln!("impbench: {e}");
                std::process::exit(2);
            }
        }
    }
    if args.workload == "all" {
        std::process::exit(run_each_in_its_own_process());
    }
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full(args.seconds)
    };
    let run = run_workload(&args.workload, args.seed, scale, args.trace, &args.out);
    let mut wrong = !run.correct();
    if let Err(e) = report::append(&args.out, std::slice::from_ref(&run)) {
        eprintln!(
            "impbench: cannot write result.json under {}: {e}",
            args.out.display()
        );
        wrong = true;
    }
    // the last line of standard output is the machine-readable result
    println!("{}", report::contract_line(&run));
    if wrong {
        std::process::exit(1);
    }
}

/// `--workload all`: this command once per workload, each in a process of
/// its own, so that peak memory, allocator state and lazy statics of one
/// workload never reach the next (the same isolation the driver's
/// one-workload invocations have). Returns the exit code: 1 if any failed.
fn run_each_in_its_own_process() -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("impbench: cannot find my own executable: {e}");
            return 2;
        }
    };
    let rest: Vec<String> = std::env::args().skip(1).collect();
    let mut code = 0;
    for workload in WORKLOADS {
        let mut args = rest.clone();
        if let Some(i) = args.iter().position(|a| a == "--workload") {
            args[i + 1] = workload.to_string();
        }
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(status) if status.success() => {}
            Ok(_) => code = 1,
            Err(e) => {
                eprintln!("impbench: cannot run {workload}: {e}");
                code = 1;
            }
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    fn declared_per_layer() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root = impliance_docmodel::json::parse(&text).expect("BENCHMARK.json parses");
        let mut names: Vec<String> = root
            .get_str_path("per_layer")
            .and_then(|n| n.as_seq())
            .expect("per_layer list")
            .iter()
            .filter_map(|m| {
                m.get_str_path("name")?
                    .as_value()?
                    .as_str()
                    .map(str::to_string)
            })
            .collect();
        names.sort();
        names
    }

    /// All four workloads at 1/50 scale with checks on, traced, so every
    /// code path of the benchmark runs; and the metric names that come out
    /// are exactly the ones `BENCHMARK.json` declares.
    #[test]
    fn smoke_runs_every_workload_with_checks_on() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/impbench-smoke-test");
        let declared = declared_per_layer();
        for workload in WORKLOADS {
            let run = run_workload(workload, 42, Scale::smoke(), true, &out);
            assert_eq!(run.failed, 0, "{workload}: {:?}", run.failures);
            assert!(run.attempted > 0);
            let emitted: Vec<String> = run.contract.keys().cloned().collect();
            assert_eq!(emitted, declared, "{workload}: per-layer metric names");
            for e in &END_TO_END {
                let m = run
                    .all
                    .get(e.name)
                    .unwrap_or_else(|| panic!("{workload}: no {}", e.name));
                assert!(m.value > 0.0, "{workload}: {} is {}", e.name, m.value);
                assert_eq!(m.unit, e.unit);
            }
            assert!(out.join(format!("trace-{workload}.jsonl")).exists());
        }
    }
}
