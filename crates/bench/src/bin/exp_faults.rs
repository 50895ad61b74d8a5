//! EXP-FAULTS — foreground latency and scrub completion under a
//! calibrated transient-fault rate.
//!
//! PR 8's robustness claim in numbers: the bounded re-read retry that
//! absorbs transient device faults must cost *bounded* degradation, not
//! a wedge and not a cliff. Two clones of one populated file system
//! replay the identical mixed read/overwrite traffic — one fault-free,
//! one with a seeded [`sero_probe::faults::FaultPlan`] armed (transient
//! read faults, correctable write dots, sled stalls) — and then each
//! runs a full scrub pass. The fault plan is calibrated so faults
//! actually fire (asserted via `fault_stats`) while staying below the
//! quarantine threshold: every operation still answers correctly, the
//! final namespaces and registries are byte-identical, and the p99 /
//! scrub-completion inflation stays under the 2x acceptance bar.
//!
//! All compared numbers are deterministic simulated-device time: the
//! fault plan draws from its own seeded RNG stream, so the same traffic
//! meets the same faults on every host. Emits `BENCH_faults.json`
//! (schema `sero-bench/v1`, compared **blocking** and exactly in CI).
//! `SERO_BENCH_FAST=1` shrinks the traffic stream for CI.

use sero_bench::json::Json;
use sero_bench::{
    apply_ops, bench_out_path, device_clock_ns as clock, fast_mode, ns_to_us as us,
    percentile_ns as percentile, row,
};
use sero_core::device::SeroDevice;
use sero_core::scrub::{scrub_device, ScrubConfig};
use sero_fs::fs::{FsConfig, SeroFs};
use sero_probe::faults::FaultPlan;
use sero_workload::MixedTrafficWorkload;
use std::time::Instant;

const SEED: u64 = 20080226;
const FAULT_SEED: u64 = 0xFA17_2008;

/// The calibrated transient-fault rates: high enough that a replay meets
/// hundreds of faults (the `read_faults > 0` assertion has huge margin),
/// low enough that three consecutive faults on one read — the quarantine
/// threshold under the default retry budget — is effectively impossible.
const READ_FAULT_PPM: u32 = 8_000; // 0.8% of sector reads fail once
const WRITE_FAULT_PPM: u32 = 4_000; // 0.4% of writes land 2 rotted dots
const WRITE_FAULT_DOTS: usize = 2; // well inside RS correction
const STALL_PPM: u32 = 20_000; // 2% of seeks stall the sled
const STALL_NS: u64 = 5_000_000; // 5 ms per stall

fn plan() -> FaultPlan {
    FaultPlan::none()
        .seed(FAULT_SEED)
        .transient_reads(READ_FAULT_PPM, 1)
        .transient_writes(WRITE_FAULT_PPM, WRITE_FAULT_DOTS)
        .stalls(STALL_PPM, STALL_NS)
}

/// Replays `traffic` closed-loop, returning per-op device-clock latency.
fn replay(fs: &mut SeroFs, traffic: &[sero_workload::Op]) -> Vec<u128> {
    let mut latencies = Vec::with_capacity(traffic.len());
    for op in traffic {
        let t0 = clock(fs);
        let stats = apply_ops(fs, std::slice::from_ref(op), 0);
        assert_eq!(stats.refused, 0, "steady-state traffic never refused");
        latencies.push(clock(fs) - t0);
    }
    latencies
}

/// Full scrub pass, returning (device ms, lines verified, tampered).
///
/// One worker, pinned: the default sizes the pool from the host's
/// `available_parallelism()`, and the parallel pass's device time is the
/// slowest worker's, so the baseline would track the host's core count.
fn scrub(fs: &mut SeroFs) -> (f64, usize, usize) {
    let t0 = clock(fs);
    let report = scrub_device(fs.device_mut(), &ScrubConfig::with_workers(1)).expect("scrub pass");
    let ms = (clock(fs) - t0) as f64 / 1e6;
    let tampered = report.tampered_lines().count();
    (ms, report.outcomes.len(), tampered)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fast = fast_mode();
    let device_blocks: u64 = 8_192;
    let workload = MixedTrafficWorkload {
        archival_files: 96,
        archival_bytes: 5 * 1024,
        hot_files: 10,
        hot_bytes: 4 * 1024,
        operations: if fast { 160 } else { 400 },
        read_fraction: 0.7,
    };

    println!(
        "EXP-FAULTS: {} MiB device, {} heated lines, {} ops, faults {}ppm read / {}ppm write / {}ppm stall{}\n",
        device_blocks * 512 / (1024 * 1024),
        workload.archival_files,
        workload.operations,
        READ_FAULT_PPM,
        WRITE_FAULT_PPM,
        STALL_PPM,
        if fast { " (fast mode)" } else { "" },
    );

    // --- populate once, clone per phase ---------------------------------
    let host_setup = Instant::now();
    let mut base = SeroFs::format(SeroDevice::with_blocks(device_blocks), FsConfig::default())?;
    apply_ops(&mut base, &workload.setup_ops(SEED), 1_199_145_600);
    let setup_ms = host_setup.elapsed().as_secs_f64() * 1e3;
    let traffic = workload.traffic_ops(SEED);

    // --- phase 1: fault-free twin ----------------------------------------
    let mut clean = base.clone();
    let host_clean = Instant::now();
    let clean_lat = replay(&mut clean, &traffic);
    let (clean_scrub_ms, clean_lines, clean_tampered) = scrub(&mut clean);
    let clean_host_ms = host_clean.elapsed().as_secs_f64() * 1e3;

    // --- phase 2: same traffic under the armed fault plan ----------------
    let mut faulted = base.clone();
    faulted.device_mut().probe_mut().arm_faults(plan());
    let host_faulted = Instant::now();
    let faulted_lat = replay(&mut faulted, &traffic);
    let (faulted_scrub_ms, faulted_lines, faulted_tampered) = scrub(&mut faulted);
    let faulted_host_ms = host_faulted.elapsed().as_secs_f64() * 1e3;
    let stats = faulted
        .device()
        .probe()
        .fault_stats()
        .expect("plan is armed");

    // The calibration worked: faults fired, and the retry budget absorbed
    // every one of them — nothing reached quarantine, nothing degraded.
    assert!(stats.read_faults > 0, "fault plan never fired");
    assert!(stats.stalls > 0, "stall plan never fired");
    assert_eq!(faulted.device().quarantined_count(), 0);
    assert!(!faulted.is_degraded());

    // Same answers as the twin: namespace, bytes, and line registry.
    let names = clean.list();
    assert_eq!(names, faulted.list(), "namespaces diverged under faults");
    for name in &names {
        assert_eq!(
            clean.read(name).expect("clean read"),
            faulted.read(name).expect("faulted read"),
            "bytes diverged under faults: {name}"
        );
    }
    let registry = |fs: &SeroFs| -> Vec<_> {
        fs.device()
            .heated_lines()
            .map(|r| (r.line, r.flagged))
            .collect()
    };
    assert_eq!(registry(&clean), registry(&faulted));
    assert_eq!(clean_lines, faulted_lines);
    assert_eq!(clean_tampered, 0);
    assert_eq!(faulted_tampered, 0);

    let p50_clean = percentile(&clean_lat, 0.50);
    let p99_clean = percentile(&clean_lat, 0.99);
    let p50_faulted = percentile(&faulted_lat, 0.50);
    let p99_faulted = percentile(&faulted_lat, 0.99);
    let p99_ratio = p99_faulted as f64 / p99_clean as f64;
    let scrub_ratio = faulted_scrub_ms / clean_scrub_ms;

    let widths = [14, 14, 14, 16, 14];
    println!(
        "{}",
        row(
            &[
                "phase",
                "p50 latency",
                "p99 latency",
                "scrub done",
                "faults"
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "fault-free",
                &format!("{:.0} us", us(p50_clean)),
                &format!("{:.0} us", us(p99_clean)),
                &format!("{clean_scrub_ms:.1} ms"),
                "0",
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "faulted",
                &format!("{:.0} us", us(p50_faulted)),
                &format!("{:.0} us", us(p99_faulted)),
                &format!("{faulted_scrub_ms:.1} ms"),
                &format!(
                    "{}r/{}w/{}s",
                    stats.read_faults, stats.write_faults, stats.stalls
                ),
            ],
            &widths
        )
    );
    println!(
        "\n  degradation: p99 {p99_ratio:.2}x, scrub completion {scrub_ratio:.2}x (bar: <= 2x) : {}",
        if p99_ratio <= 2.0 && scrub_ratio <= 2.0 {
            "PASS"
        } else {
            "FAIL"
        }
    );
    println!(
        "  {} lines verified both ways, 0 tampered, 0 quarantined — identical registries",
        clean_lines
    );

    let doc = Json::obj()
        .set("schema", "sero-bench/v1")
        .set("bench", "faults")
        .set("fast_mode", fast)
        .set(
            "device",
            Json::obj()
                .set("blocks", device_blocks)
                .set("bytes", device_blocks * 512)
                .set("heated_lines", workload.archival_files)
                .set("hot_files", workload.hot_files)
                .set("operations", workload.operations)
                .set("read_fault_ppm", u64::from(READ_FAULT_PPM))
                .set("write_fault_ppm", u64::from(WRITE_FAULT_PPM))
                .set("stall_ppm", u64::from(STALL_PPM))
                .set("stall_ns", STALL_NS),
        )
        .set(
            "metrics",
            Json::obj()
                .set("p50_clean_us", us(p50_clean))
                .set("p99_clean_us", us(p99_clean))
                .set("p50_faulted_us", us(p50_faulted))
                .set("p99_faulted_us", us(p99_faulted))
                .set("p99_faulted_over_clean", p99_ratio)
                .set("scrub_clean_ms", clean_scrub_ms)
                .set("scrub_faulted_ms", faulted_scrub_ms)
                .set("scrub_faulted_over_clean", scrub_ratio)
                .set("read_faults", stats.read_faults)
                .set("write_faults", stats.write_faults)
                .set("stalls", stats.stalls)
                .set("quarantined", faulted.device().quarantined_count())
                .set("lines_verified", clean_lines)
                .set("tampered", faulted_tampered),
        )
        .set(
            "host",
            Json::obj()
                .set("setup_ms", setup_ms)
                .set("clean_ms", clean_host_ms)
                .set("faulted_ms", faulted_host_ms),
        );
    let path = bench_out_path("faults");
    std::fs::write(&path, doc.render())?;
    println!("  wrote {}", path.display());

    assert!(
        p99_ratio <= 2.0,
        "transient faults inflated foreground p99 by {p99_ratio:.2}x (> 2x bar)"
    );
    assert!(
        scrub_ratio <= 2.0,
        "transient faults inflated scrub completion by {scrub_ratio:.2}x (> 2x bar)"
    );
    Ok(())
}
