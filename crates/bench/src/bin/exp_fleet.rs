//! EXP-FLEET — foreground latency and detection latency under
//! fleet-coordinated background scrub across four devices.
//!
//! PR 4 made one device's pass polite; this experiment coordinates
//! passes across a *fleet*. Four file systems each serve an open-loop
//! stream of mixed read/overwrite traffic
//! ([`sero_workload::MixedTrafficWorkload`], one decorrelated stream per
//! device) while a [`sero_core::fleet::FleetScheduler`] drains all four
//! passes in the idle gaps:
//!
//! * passes are **staggered** — at most `MAX_CONCURRENT` run at once;
//! * budgets are **adaptive** — each device's grant derives from its
//!   [`sero_core::device::LoadProbe`] idle measurement, re-divided from
//!   one global per-quantum allowance on every round;
//! * ordering is **suspicion-first** — one device is tampered *and*
//!   flagged (a refused overwrite of a frozen file) up front, so its
//!   pass is admitted first and granted first, and must complete before
//!   any clean peer's.
//!
//! Two phases on clones of the same populated fleet: **off** (no scrub;
//! the latency baseline) and **fleet** (coordinated scrub). A request's
//! latency is `completion − arrival` on its own device clock; the fleet
//! p99 aggregates all four devices. The acceptance bar: fleet p99 ≤
//! 1.15× the no-scrub p99 while every pass completes with evidence
//! byte-identical to exclusive per-device passes and the flagged
//! device's pass finishes first.
//!
//! Emits `BENCH_fleet.json` (schema `sero-bench/v1`, compared
//! **blocking** in CI) and `fleet_trace.json` (per-member pass trace +
//! latency tails; uploaded as a CI artifact, never compared).
//! `SERO_BENCH_FAST=1` shrinks the traffic streams for CI.

use sero_bench::json::Json;
use sero_bench::{
    apply_ops, bench_out_path, device_clock_ns as clock, fast_mode,
    idle_device_until as idle_until, ns_to_us as us, percentile_ns as percentile, row,
    trace_out_path,
};
use sero_core::device::SeroDevice;
use sero_core::fleet::{FleetConfig, FleetScheduler, FleetSliceOutcome};
use sero_core::scrub::{ScrubConfig, ScrubReport};
use sero_fs::fs::{FsConfig, SeroFs};
use sero_workload::MixedTrafficWorkload;
use std::time::Instant;

const SEED: u64 = 20080617;

/// Fleet size: the acceptance criteria ask for ≥ 4 devices.
const DEVICES: usize = 4;

/// The member tampered + flagged up front (suspicion-first must finish
/// its pass before any clean peer's).
const VICTIM: usize = 2;

/// Fixed inter-arrival time of foreground requests on each device clock
/// (same 80%-utilisation reasoning as `exp_sched`).
const INTERARRIVAL_NS: u64 = 160_000_000; // 160 ms

/// The fleet pass starts at this per-device op index — mid-traffic, the
/// way a fleet-wide verification cron fires on serving stores.
const SCRUB_START_OP: usize = 20;

/// At most this many member passes in flight at once.
const MAX_CONCURRENT: usize = 2;

/// Fleet quantum and global per-quantum scrub allowance. The global
/// budget is deliberately *less* than `DEVICES ×` the adaptive ceiling,
/// so the grant walk's priority actually bites.
const QUANTUM_NS: u64 = 10_000_000;
const GLOBAL_BUDGET_NS: u64 = 12_000_000;

struct PhaseResult {
    /// Per-request latencies across the whole fleet, device ns.
    latencies: Vec<u128>,
    /// Per member: device time from fleet-scrub start to pass completion.
    done_ns: Vec<Option<u128>>,
}

/// Replays per-device `traffic` open-loop on every member, granting the
/// fleet scrub slices in each device's idle gap (retune once per round,
/// then per-member ticks — the per-fs request-loop shape).
fn run_phase(
    fleet: &mut [SeroFs],
    traffic: &[Vec<sero_workload::Op>],
    mut scrub: Option<&mut FleetScheduler>,
    config: &FleetConfig,
) -> PhaseResult {
    let ops = traffic[0].len();
    let t_start: Vec<u128> = fleet.iter().map(clock).collect();
    let mut latencies = Vec::with_capacity(DEVICES * ops);
    let mut scrub_started: Vec<Option<u128>> = vec![None; DEVICES];
    let mut done_ns: Vec<Option<u128>> = vec![None; DEVICES];

    let note_done = |sc: &FleetScheduler,
                     fleet: &[SeroFs],
                     started: &[Option<u128>],
                     done: &mut Vec<Option<u128>>| {
        for d in 0..DEVICES {
            if done[d].is_none()
                && sc.member_state(d) == sero_core::fleet::FleetMemberState::Complete
            {
                done[d] = Some(clock(&fleet[d]) - started[d].unwrap_or(0));
            }
        }
    };

    // The index drives every device's arrival schedule, not just the
    // traffic lookup — iterating `traffic` would invert the round/device
    // nesting the open-loop model needs.
    #[allow(clippy::needless_range_loop)]
    for i in 0..ops {
        if let Some(sc) = scrub.as_deref_mut().filter(|_| i >= SCRUB_START_OP) {
            let loads: Vec<_> = fleet.iter().map(|fs| *fs.device().load_probe()).collect();
            sc.retune(&loads);
        }
        for d in 0..DEVICES {
            let arrival = t_start[d] + (i as u128 + 1) * INTERARRIVAL_NS as u128;
            if let Some(sc) = scrub.as_deref_mut().filter(|_| i >= SCRUB_START_OP) {
                scrub_started[d].get_or_insert_with(|| clock(&fleet[d]));
                while !sc.is_complete() && clock(&fleet[d]) < arrival {
                    match sc
                        .tick_member(d, fleet[d].device_mut())
                        .expect("fleet slice failed")
                    {
                        FleetSliceOutcome::Ran { .. } => {}
                        FleetSliceOutcome::Throttled { resume_at_ns } => {
                            if resume_at_ns >= arrival {
                                break; // quantum reopens after the request
                            }
                            idle_until(&mut fleet[d], resume_at_ns);
                        }
                        // Starved / waiting members just serve foreground;
                        // the budget or slot frees on a later round.
                        FleetSliceOutcome::Starved
                        | FleetSliceOutcome::Waiting
                        | FleetSliceOutcome::Paused
                        | FleetSliceOutcome::Idle => break,
                    }
                }
                note_done(sc, fleet, &scrub_started, &mut done_ns);
            }
            idle_until(&mut fleet[d], arrival);
            let stats = apply_ops(&mut fleet[d], std::slice::from_ref(&traffic[d][i]), 0);
            assert_eq!(stats.refused, 0, "steady-state traffic never refused");
            latencies.push(clock(&fleet[d]) - arrival);
        }
    }

    // Traffic over: drain the remaining passes on idle devices.
    if let Some(sc) = scrub {
        for d in 0..DEVICES {
            scrub_started[d].get_or_insert_with(|| clock(&fleet[d]));
        }
        let mut guard = 0usize;
        while !sc.is_complete() {
            guard += 1;
            assert!(guard < 1_000_000, "fleet drain failed to converge");
            for (d, outcome) in sc.tick(fleet).expect("fleet slice failed") {
                match outcome {
                    FleetSliceOutcome::Throttled { resume_at_ns } => {
                        idle_until(&mut fleet[d], resume_at_ns);
                    }
                    FleetSliceOutcome::Starved => {
                        let target = clock(&fleet[d]) + config.quantum_ns as u128;
                        idle_until(&mut fleet[d], target);
                    }
                    _ => {}
                }
            }
            note_done(sc, fleet, &scrub_started, &mut done_ns);
        }
        note_done(sc, fleet, &scrub_started, &mut done_ns);
    }
    PhaseResult { latencies, done_ns }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fast = fast_mode();
    // Geometry and population match in both modes so seek costs and pass
    // lengths match; fast mode shrinks only the traffic streams.
    let device_blocks: u64 = 8_192;
    let workload = MixedTrafficWorkload {
        archival_files: 96,
        archival_bytes: 5 * 1024,
        hot_files: 8,
        hot_bytes: 4 * 1024,
        operations: if fast { 96 } else { 240 },
        read_fraction: 0.7,
    };
    let config = FleetConfig {
        quantum_ns: QUANTUM_NS,
        global_budget_ns: GLOBAL_BUDGET_NS,
        max_concurrent: MAX_CONCURRENT,
        ..FleetConfig::default()
    };

    println!(
        "EXP-FLEET: {} devices x {} MiB, {} heated lines each, {} ops/device every {} ms{}\n",
        DEVICES,
        device_blocks * 512 / (1024 * 1024),
        workload.archival_files,
        workload.operations,
        INTERARRIVAL_NS / 1_000_000,
        if fast { " (fast mode)" } else { "" },
    );

    // --- populate one fleet, clone per phase -----------------------------
    let host_setup = Instant::now();
    let mut base: Vec<SeroFs> = Vec::with_capacity(DEVICES);
    for d in 0..DEVICES {
        let mut fs = SeroFs::format(SeroDevice::with_blocks(device_blocks), FsConfig::default())?;
        let seed = MixedTrafficWorkload::device_seed(SEED, d);
        apply_ops(&mut fs, &workload.setup_ops(seed), 1_199_145_600);
        base.push(fs);
    }
    // Tamper one archival line on the victim behind the protocol's back,
    // AND flag it through the protocol (a refused overwrite of frozen
    // data) so the fleet's suspicion snapshot sees the device as hot.
    let victim_file = format!("archive-{:04}", workload.archival_files / 2);
    let victim_line = base[VICTIM]
        .stat(&victim_file)?
        .heated
        .expect("archival files are heated");
    base[VICTIM]
        .device_mut()
        .probe_mut()
        .mws(victim_line.start() + 1, &[0xEE; 512])?;
    assert!(base[VICTIM]
        .write(
            &victim_file,
            b"rewrite history",
            sero_fs::alloc::WriteClass::Normal
        )
        .is_err());
    let setup_ms = host_setup.elapsed().as_secs_f64() * 1e3;

    // The exclusive-pass reference evidence, per device, on clones.
    let exclusive: Vec<ScrubReport> = base
        .clone()
        .iter_mut()
        .map(|fs| fs.scrub(&ScrubConfig::with_workers(1)).expect("scrub"))
        .collect();

    let traffic: Vec<Vec<sero_workload::Op>> = (0..DEVICES)
        .map(|d| workload.traffic_ops(MixedTrafficWorkload::device_seed(SEED, d)))
        .collect();

    // --- phase 1: scrub off ----------------------------------------------
    let mut fleet_off = base.clone();
    let host_off = Instant::now();
    let off = run_phase(&mut fleet_off, &traffic, None, &config);
    let off_host_ms = host_off.elapsed().as_secs_f64() * 1e3;

    // --- phase 2: coordinated fleet scrub --------------------------------
    let mut fleet_on = base.clone();
    let mut scrub = FleetScheduler::start(fleet_on.iter().map(SeroFs::device), config)?;
    let host_fleet = Instant::now();
    let fleet = run_phase(&mut fleet_on, &traffic, Some(&mut scrub), &config);
    let fleet_host_ms = host_fleet.elapsed().as_secs_f64() * 1e3;

    // Every pass completed, staggered under the ceiling, with evidence
    // identical to the exclusive per-device passes.
    assert!(scrub.is_complete());
    let peak = scrub.peak_active();
    assert!(
        peak <= MAX_CONCURRENT,
        "stagger ceiling breached: {peak} concurrent passes"
    );
    let mut tampered_total = 0;
    for (d, expected) in exclusive.iter().enumerate() {
        let report = scrub.member_report(d).expect("every member admitted");
        assert_eq!(
            report.outcomes, expected.outcomes,
            "member {d} evidence diverged from its exclusive pass"
        );
        tampered_total += report.summary.tampered;
        assert_eq!(fleet_on[d].device().scrub_epoch(), 1);
    }
    assert_eq!(tampered_total, 1, "exactly the planted evidence");
    let completion = scrub.completion_order().to_vec();
    assert_eq!(
        completion[0], VICTIM,
        "suspicion-first must finish the flagged device's pass first"
    );

    let p50_off = percentile(&off.latencies, 0.50);
    let p99_off = percentile(&off.latencies, 0.99);
    let p50_fleet = percentile(&fleet.latencies, 0.50);
    let p99_fleet = percentile(&fleet.latencies, 0.99);
    let max_off = *off.latencies.iter().max().expect("ops");
    let max_fleet = *fleet.latencies.iter().max().expect("ops");
    let ratio = p99_fleet as f64 / p99_off as f64;
    let victim_done_ms = fleet.done_ns[VICTIM].expect("victim pass completed") as f64 / 1e6;
    let last_done_ms = fleet
        .done_ns
        .iter()
        .map(|d| d.expect("all passes completed"))
        .max()
        .unwrap() as f64
        / 1e6;

    let widths = [18, 14, 14, 12, 12];
    println!(
        "{}",
        row(
            &["phase", "p50 latency", "p99 latency", "max", "ops"],
            &widths
        )
    );
    for (name, lat, p50, p99, max) in [
        ("scrub off", &off.latencies, p50_off, p99_off, max_off),
        (
            "scrub fleet",
            &fleet.latencies,
            p50_fleet,
            p99_fleet,
            max_fleet,
        ),
    ] {
        println!(
            "{}",
            row(
                &[
                    name,
                    &format!("{:.0} us", us(p50)),
                    &format!("{:.0} us", us(p99)),
                    &format!("{:.0} us", us(max)),
                    &format!("{}", lat.len()),
                ],
                &widths
            )
        );
    }
    println!(
        "\n  p99 inflation: fleet {ratio:.3}x (bar: <= 1.15x) : {}",
        if ratio <= 1.15 { "PASS" } else { "FAIL" }
    );
    println!(
        "  passes: victim done {victim_done_ms:.1} ms, last done {last_done_ms:.1} ms, \
         completion order {completion:?}, peak concurrency {peak}"
    );

    let doc = Json::obj()
        .set("schema", "sero-bench/v1")
        .set("bench", "fleet")
        .set("fast_mode", fast)
        .set(
            "device",
            Json::obj()
                .set("devices", DEVICES)
                .set("blocks", device_blocks)
                .set("bytes", device_blocks * 512)
                .set("heated_lines", workload.archival_files)
                .set("hot_files", workload.hot_files)
                .set("operations", workload.operations)
                .set("interarrival_ns", INTERARRIVAL_NS)
                .set("quantum_ns", QUANTUM_NS)
                .set("global_budget_ns", GLOBAL_BUDGET_NS)
                .set("max_concurrent", MAX_CONCURRENT),
        )
        .set(
            "metrics",
            Json::obj()
                .set("p50_off_us", us(p50_off))
                .set("p99_off_us", us(p99_off))
                .set("p50_fleet_us", us(p50_fleet))
                .set("p99_fleet_us", us(p99_fleet))
                .set("p99_fleet_over_off", ratio)
                .set("max_off_us", us(max_off))
                .set("max_fleet_us", us(max_fleet))
                .set("victim_pass_ms", victim_done_ms)
                .set("last_pass_ms", last_done_ms)
                .set("victim_finished_first", u64::from(completion[0] == VICTIM))
                .set("peak_active", peak)
                .set(
                    "lines_verified",
                    exclusive.iter().map(|r| r.summary.lines).sum::<usize>(),
                )
                .set("tampered", tampered_total),
        )
        .set(
            "host",
            Json::obj()
                .set("setup_ms", setup_ms)
                .set("off_ms", off_host_ms)
                .set("fleet_ms", fleet_host_ms),
        );
    let path = bench_out_path("fleet");
    std::fs::write(&path, doc.render())?;
    println!("  wrote {}", path.display());

    // The fleet trace: per-member pass records plus the fleet latency
    // tails — a CI artifact for humans, never compared.
    let members: Vec<Json> = (0..DEVICES)
        .map(|d| {
            let progress = scrub.member_progress(d).expect("admitted");
            Json::obj()
                .set("member", d)
                .set("flagged", u64::from(d == VICTIM))
                .set("slices", progress.slices)
                .set("verified", progress.verified)
                .set("tampered", progress.tampered)
                .set("scrub_device_ms", progress.scrub_device_ns as f64 / 1e6)
                .set(
                    "done_ms",
                    fleet.done_ns[d].map_or(-1.0, |ns| ns as f64 / 1e6),
                )
        })
        .collect();
    let trace = Json::obj()
        .set("schema", "sero-bench-trace/v1")
        .set("bench", "fleet")
        .set(
            "completion_order",
            Json::Arr(completion.iter().map(|&d| Json::from(d as u64)).collect()),
        )
        .set("members", Json::Arr(members))
        .set(
            "latency_us",
            Json::obj()
                .set("p50", us(p50_fleet))
                .set("p90", us(percentile(&fleet.latencies, 0.90)))
                .set("p99", us(p99_fleet))
                .set("max", us(max_fleet)),
        );
    let trace_path = trace_out_path("fleet_trace.json");
    std::fs::write(&trace_path, trace.render())?;
    println!("  wrote {}", trace_path.display());

    assert!(
        ratio <= 1.15,
        "fleet scrub inflated foreground p99 by {ratio:.3}x (> 1.15x bar)"
    );
    Ok(())
}
