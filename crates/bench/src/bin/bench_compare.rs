//! BENCH-COMPARE — diff a regenerated `BENCH_*.json` against its committed
//! baseline.
//!
//! Usage: `bench_compare <baseline.json> <candidate.json> [--threshold 0]`
//!
//! Compares every numeric leaf under the `"metrics"` object (the
//! deterministic simulated-device numbers — see the schema in
//! `sero-bench`'s crate docs). `"host"` wall times and `"device"` geometry
//! never participate. Exits with:
//!
//! * `0` — every shared metric within the threshold;
//! * `1` — a metric drifted beyond the threshold, or a metric exists in
//!   only one file (an explicit `MISSING` failure: a silently dropped or
//!   renamed metric must not pass as "nothing drifted");
//! * `2` — usage errors and **schema mismatches**: unreadable files, a
//!   missing `"schema"`/`"bench"`/`"metrics"` field, or the two files
//!   disagreeing on schema version or benchmark name (comparing
//!   `BENCH_scrub.json` against `BENCH_registry.json` is a harness bug,
//!   not a drift).
//!
//! CI runs this as a blocking step at `--threshold 0` (also the
//! default): the compared numbers are deterministic, so any drift fails
//! the build.

use sero_bench::json::Json;
use sero_bench::row;
use std::process::ExitCode;

struct BenchDoc {
    schema: String,
    bench: String,
    metrics: Vec<(String, f64)>,
}

fn load_doc(path: &str) -> Result<BenchDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: no \"schema\" string"))?
        .to_string();
    let bench = doc
        .get("bench")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: no \"bench\" string"))?
        .to_string();
    let metrics_node = doc
        .get("metrics")
        .ok_or_else(|| format!("{path}: no \"metrics\" object"))?;
    let mut metrics = Vec::new();
    metrics_node.flatten_numbers("", &mut metrics);
    Ok(BenchDoc {
        schema,
        bench,
        metrics,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = 0.0f64;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--threshold" {
            match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) => threshold = t,
                None => {
                    eprintln!("--threshold needs a number");
                    return ExitCode::from(2);
                }
            }
        } else {
            files.push(arg.clone());
        }
    }
    let [baseline_path, candidate_path] = files.as_slice() else {
        eprintln!("usage: bench_compare <baseline.json> <candidate.json> [--threshold 0]");
        return ExitCode::from(2);
    };

    let (baseline_doc, candidate_doc) = match (load_doc(baseline_path), load_doc(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("error: {err}");
            }
            return ExitCode::from(2);
        }
    };
    if baseline_doc.schema != candidate_doc.schema {
        eprintln!(
            "error: schema mismatch: baseline {baseline_path} is \"{}\", candidate {candidate_path} is \"{}\"",
            baseline_doc.schema, candidate_doc.schema
        );
        return ExitCode::from(2);
    }
    if baseline_doc.bench != candidate_doc.bench {
        eprintln!(
            "error: bench mismatch: baseline {baseline_path} is \"{}\", candidate {candidate_path} is \"{}\" — comparing different benchmarks",
            baseline_doc.bench, candidate_doc.bench
        );
        return ExitCode::from(2);
    }
    let (baseline, candidate) = (baseline_doc.metrics, candidate_doc.metrics);

    println!(
        "comparing metrics: {candidate_path} vs baseline {baseline_path} (threshold +/-{:.0}%)\n",
        threshold * 100.0
    );
    let widths = [26, 14, 14, 10, 8];
    println!(
        "{}",
        row(
            &["metric", "baseline", "candidate", "delta", "status"],
            &widths
        )
    );

    let mut drifted = 0usize;
    let mut missing = 0usize;
    let mut keys: Vec<&String> = baseline.iter().map(|(k, _)| k).collect();
    for (k, _) in &candidate {
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    for key in keys {
        let base = baseline.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
        let cand = candidate.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
        let (base_s, cand_s, delta_s, status) = match (base, cand) {
            (Some(b), Some(c)) => {
                let rel = (c - b).abs() / b.abs().max(1e-12);
                let ok = rel <= threshold;
                if !ok {
                    drifted += 1;
                }
                (
                    format!("{b:.4}"),
                    format!("{c:.4}"),
                    format!("{:+.1}%", (c - b) / b.abs().max(1e-12) * 100.0),
                    if ok { "ok" } else { "DRIFT" },
                )
            }
            (b, c) => {
                // A metric present in only one file is an explicit
                // failure, never a silent skip: a renamed or dropped
                // metric would otherwise sail through as "no drift".
                missing += 1;
                (
                    b.map_or("-".into(), |v| format!("{v:.4}")),
                    c.map_or("-".into(), |v| format!("{v:.4}")),
                    "-".into(),
                    "MISSING",
                )
            }
        };
        println!(
            "{}",
            row(&[key, &base_s, &cand_s, &delta_s, status], &widths)
        );
    }

    if drifted == 0 && missing == 0 {
        println!("\nall metrics within +/-{:.0}%", threshold * 100.0);
        ExitCode::SUCCESS
    } else {
        println!(
            "\n{drifted} metric(s) drifted beyond +/-{:.0}%, {missing} missing metric(s) (present in only one file)",
            threshold * 100.0
        );
        ExitCode::FAILURE
    }
}
