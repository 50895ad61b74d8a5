//! `e2e`: the served-path benchmark of the SERO stack.
//!
//! It formats a 65,536-block (32 MiB) device, builds one workload's
//! starting state through the command door, serves it with the default
//! reactor on a second thread, and drives it from this thread over
//! loopback with two connections. Every answer is checked. It prints
//! every metric as `name value unit`, then, as the last line, one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! e2e --workload <read_hot|ingest_seal|meta_churn> [--seed <u64>]
//!     [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Untraced, it reports the end-to-end metrics; with `--trace 1`, the
//! per-layer metrics, and it writes the spans to
//! `e2e_trace_<workload>.json` in the working directory. See the
//! README beside this package for the definitions.

mod gen;
mod measure;
mod trace;
mod wire;

use gen::{Model, Workload};
use measure::{median, peak_rss_mib, percentile, Metric, Report, CLOCK_TICKS_PER_S};
use sero_proto::{ErrorCode, Request, Response, WireVerdict};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use wire::{build_fs, run_phase, Checker, Plan, Served};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Untraced warm-up before the measured slices.
const WARMUP: Duration = Duration::from_secs(1);
/// Responses per measured slice: enough for ten samples beyond the
/// slice's p99. Each timing metric is the median over the slices, so a
/// few seconds of interference from other tenants cannot move it.
const SLICE_REQUESTS: u64 = 1000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match args.peek().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        trace = true;
                        continue;
                    }
                };
                args.next();
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "e2e: {e}\nusage: e2e --workload <read_hot|ingest_seal|meta_churn> \
                 [--seed <u64>] [--seconds <n>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "e2e: workload {} seed {} seconds {} trace {} cores {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let model = Model::new(args.workload, args.seed);
    let population = model.population();
    let report = if args.trace {
        trace::run(&model, &population, args.seconds)
    } else {
        untraced(&model, &population, args.seconds)
    };
    report.print();
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn untraced(model: &Model, population: &[Request], seconds: f64) -> Report {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut served: Option<Served> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = served.take() {
            old.stop();
        }
        let t0 = Instant::now();
        served = Some(Served::start(build_fs(population), model));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut served = served.expect("at least one set-up");

    let mut checker = Checker::new(model);
    let plan = Plan {
        warmup: WARMUP,
        measure: Duration::from_secs_f64(seconds),
        slice_requests: Some(SLICE_REQUESTS),
    };
    let phase = run_phase(&mut served.clients, &served.cfs, &mut checker, &plan, None);
    let gate = final_gate(&mut served, model, &checker);
    served.stop();

    let mut problem = checker.first_problem.clone();
    let (gate_ok, gate_calls) = match gate {
        Ok(calls) => (true, calls),
        Err(e) => {
            problem.get_or_insert(e);
            (false, 0)
        }
    };
    let attempted = phase.sent + gate_calls;
    let failed = checker.errors + phase.transport_failures;
    let per_slice = |f: &dyn Fn(&wire::Slice) -> f64| {
        let values: Vec<f64> = phase.slices.iter().map(f).collect();
        median(&values)
    };
    let us = |ns: u64| ns as f64 / 1e3;
    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new(
            "ops_per_s",
            per_slice(&|s| s.ops as f64 / s.wall_s()),
            "req/s",
        ),
        Metric::new(
            "p50_us",
            per_slice(&|s| us(percentile(&s.latencies_ns, 0.50))),
            "us",
        ),
        Metric::new(
            "p99_us",
            per_slice(&|s| us(percentile(&s.latencies_ns, 0.99))),
            "us",
        ),
        Metric::new(
            "cpu_us_per_op",
            per_slice(&|s| {
                (s.end.cpu_ticks - s.start.cpu_ticks) as f64 / CLOCK_TICKS_PER_S * 1e6
                    / s.ops as f64
            }),
            "us",
        ),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];

    let measured = phase.measured;
    let mut extra = vec![
        Metric::new(
            "error_rate",
            failed as f64 / attempted.max(1) as f64,
            "fraction",
        ),
        Metric::new("measured_requests", measured as f64, "count"),
        Metric::new("measured_slices", phase.slices.len() as f64, "count"),
        Metric::new(
            "min_slice_samples",
            phase.slices.iter().map(|s| s.ops).min().unwrap_or(0) as f64,
            "count",
        ),
    ];
    if let Some((start, end)) = &phase.counters {
        let delta = wire::Delta::between(start, end);
        let n = measured.max(1) as f64;
        extra.push(Metric::new(
            "device_ops_per_s",
            n / ((end.device_ns - start.device_ns) as f64 / 1e9),
            "req/device-s",
        ));
        extra.push(Metric::new(
            "media.dots_sensed_per_op",
            delta.probe.mrb as f64 / n,
            "count",
        ));
        extra.extend(delta.probe_counts(n));
        extra.extend(delta.admission_counts(n));
        extra.extend(delta.fs_counts(n));
    }
    let correct = checker.wrong == 0 && gate_ok && !phase.slices.is_empty();
    if phase.slices.is_empty() {
        problem.get_or_insert_with(|| "the streams ran out before measuring began".to_string());
    }
    Report {
        metrics,
        extra,
        attempted,
        failed,
        correct,
        problem,
    }
}

/// The workload's end-of-run correctness gate, over the wire. Returns
/// the requests it sent.
fn final_gate(served: &mut Served, model: &Model, checker: &Checker) -> Result<u64, String> {
    let client = &mut served.clients[0];
    let mut call = |req: Request| {
        client
            .call(&req)
            .map_err(|e| format!("transport failure in the final gate: {e}"))
    };
    match model.workload {
        Workload::ReadHot => Ok(0),
        Workload::IngestSeal => {
            // Tamper drill: raw-write one protected data block of one
            // sealed line behind the protocol's back.
            let (Some((victim, line)), Some((witness, witness_line))) = (
                checker.sealed.first().cloned(),
                checker.sealed.last().cloned(),
            ) else {
                return Err("the phase sealed no file to drill on".to_string());
            };
            if victim == witness {
                return Err("the drill needs two sealed files".to_string());
            }
            served.cfs.with_fs(|fs| {
                fs.device_mut()
                    .probe_mut()
                    .mws(line.start + 2, &[0xEE; 512])
                    .map(|_| ())
                    .map_err(|e| format!("raw write failed: {e}"))
            })?;
            match call(Request::Verify { name: victim })? {
                Response::Error(e) if e.code == ErrorCode::TamperDetected => {}
                other => return Err(format!("a tampered line answered {other:?}")),
            }
            match call(Request::Verify { name: witness })? {
                Response::Verified(WireVerdict::Intact { line, .. }) if line == witness_line => {
                    Ok(2)
                }
                other => Err(format!("an untouched sealed line answered {other:?}")),
            }
        }
        Workload::MetaChurn => {
            let mut listed = Vec::new();
            let mut cursor = None;
            let mut calls = 0;
            loop {
                calls += 1;
                match call(Request::List { cursor, limit: 0 })? {
                    Response::Names { names, next } => {
                        listed.extend(names);
                        match next {
                            Some(next) => cursor = Some(next),
                            None => break,
                        }
                    }
                    other => return Err(format!("the final listing answered {other:?}")),
                }
            }
            let expected = model.final_names(served.clients.iter().map(|c| &c.stream));
            if listed != expected {
                return Err(format!(
                    "the final listing has {} names, the model {}",
                    listed.len(),
                    expected.len()
                ));
            }
            Ok(calls)
        }
    }
}
