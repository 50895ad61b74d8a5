//! EXP-CONCURRENCY — queue depth against the one-at-a-time schedule.
//!
//! A [`ConcurrentFs`] window runs its requests through the admission
//! scheduler ([`sero_core::admission`]) instead of executing them one at
//! a time. This experiment measures what that buys on the only axis a
//! one-sled device has — **device time** — and proves it costs nothing
//! on the axis that matters most, the tamper evidence.
//!
//! * **Depth sweep** (the compared `"metrics"`): the same shuffled read
//!   script replays against identical file systems at queue depths 1, 2,
//!   4 and 8 ([`ConcurrentFs::handle_batch`] models `n` clients arriving
//!   within one window). Depth 1 *is* the one-at-a-time schedule: one
//!   op per batch, nothing to merge. Deeper queues let the
//!   admission scheduler coalesce reads into elevator sweeps; the sweep's
//!   simulated device nanoseconds are the metric. `throughput_x8` — the
//!   depth-1 over depth-8 device time — is asserted **≥ 2.5×**, the PR's
//!   acceptance bar. Every depth must produce byte-identical responses.
//! * **Scrub interleaving**: a budgeted scrub pass ticks between read
//!   batches at depth 8, with one heated line tampered mid-workload. The
//!   identical request sequence replays serialized (depth 1); both runs
//!   must find the planted evidence, answer every read and verify
//!   byte-identically, and finish with byte-identical line registries —
//!   the "evidence ≡ serialized schedule" invariant, asserted here on
//!   top of the `concurrency_props` proptests.
//!
//! Emits `BENCH_concurrency.json` (schema `sero-bench/v1`, compared
//! **blocking** in CI). Every phase is deterministic, so `SERO_BENCH_FAST=1`
//! changes nothing but the `fast_mode` flag.

use sero_bench::json::Json;
use sero_bench::{bench_out_path, device_clock_ns, fast_mode, row};
use sero_core::device::{LineRecord, SeroDevice};
use sero_fs::concurrent::ConcurrentFs;
use sero_fs::fs::{FsConfig, SeroFs};
use sero_proto::{ErrorCode, Request, Response, WireClass, WireSchedState};

/// Small hot files: one data block each, so the depth sweep is dominated
/// by head movement (the thing queue depth can actually save) rather
/// than by streaming the payloads themselves.
const HOT_FILES: usize = 384;
const HOT_BYTES: usize = 400;

/// Archival files heated (and one tampered) for the scrub phase.
const ARCHIVE_FILES: usize = 16;
const ARCHIVE_BYTES: usize = 1100;

/// Reads in the depth-sweep script.
const SWEEP_OPS: usize = 192;

/// Device-time budget per scrub slice in the interleaved phase.
const SCRUB_BUDGET_NS: u64 = 300_000;

const DEVICE_BLOCKS: u64 = 8192;

/// Deterministic shuffle source.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn hot_name(i: usize) -> String {
    format!("hot-{i:03}")
}

fn archive_name(i: usize) -> String {
    format!("arch-{i:02}")
}

/// A fresh file system with the benchmark population: hot single-block
/// files spread along the log, plus the archival set for the scrub phase.
fn build_fs() -> ConcurrentFs {
    let fs = SeroFs::format(SeroDevice::with_blocks(DEVICE_BLOCKS), FsConfig::default())
        .expect("format succeeds");
    let cfs = ConcurrentFs::new(fs);
    for i in 0..HOT_FILES {
        let resp = cfs.handle(Request::Create {
            name: hot_name(i),
            data: vec![i as u8 + 1; HOT_BYTES],
            class: WireClass::Normal,
        });
        assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
    }
    for i in 0..ARCHIVE_FILES {
        let resp = cfs.handle(Request::Create {
            name: archive_name(i),
            data: vec![0x40 | i as u8; ARCHIVE_BYTES],
            class: WireClass::Archival,
        });
        assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
    }
    cfs
}

/// The shuffled read script every depth replays identically.
fn read_script(ops: usize) -> Vec<Request> {
    let mut lcg = Lcg(0x5EC0_2008);
    (0..ops)
        .map(|_| Request::Read {
            name: hot_name((lcg.next() % HOT_FILES as u64) as usize),
        })
        .collect()
}

/// Replays `script` at the given queue depth; returns (device ns,
/// responses, merged reads, deduplicated blocks).
fn run_depth(depth: usize, script: &[Request]) -> (u128, Vec<Response>, u64, u64) {
    let cfs = build_fs();
    // Population leaves the sled at the log head, far past the hot set.
    // Park it at track 0 so every depth starts from the same resting
    // position and the metric measures the steady-state schedule, not one
    // shared warm-up seek.
    cfs.with_fs(|fs| fs.device_mut().probe_mut().park_at(0));
    let start = cfs.with_fs(|fs| device_clock_ns(fs));
    let mut responses = Vec::with_capacity(script.len());
    for window in script.chunks(depth) {
        responses.extend(cfs.handle_batch(window.to_vec()));
    }
    let elapsed = cfs.with_fs(|fs| device_clock_ns(fs)) - start;
    let stats = cfs.admission_stats();
    (elapsed, responses, stats.reads_merged, stats.blocks_deduped)
}

/// One scrub-interleaved replay at the given depth: heat the archive,
/// tamper one line raw, start a budgeted pass, then alternate read
/// windows with scrub ticks until the pass completes. Returns the
/// foreground responses, the post-scrub verify responses, the final
/// registry, the tick count, and the phase's device ns.
fn run_scrub_phase(
    depth: usize,
    script: &[Request],
) -> (Vec<Response>, Vec<Response>, Vec<LineRecord>, u64, u128) {
    let cfs = build_fs();
    let mut lines = Vec::new();
    for i in 0..ARCHIVE_FILES {
        match cfs.handle(Request::Heat {
            name: archive_name(i),
            metadata: b"exp-concurrency".to_vec(),
            timestamp: 1_199_145_600 + i as u64,
        }) {
            Response::Heated { line } => lines.push(line.to_line().expect("wire line")),
            other => panic!("heat refused: {other:?}"),
        }
    }
    // The §5 insider rewrites one protected block through the raw probe.
    cfs.with_fs(|fs| {
        fs.device_mut()
            .probe_mut()
            .mws(lines[ARCHIVE_FILES / 2].start() + 1, &[0xEE; 512])
            .expect("raw write");
    });
    cfs.with_fs(|fs| fs.device_mut().probe_mut().park_at(0));
    let start = cfs.with_fs(|fs| device_clock_ns(fs));
    match cfs.handle(Request::ScrubStart {
        budget_ns: SCRUB_BUDGET_NS,
        quantum_ns: 0,
        incremental: false,
    }) {
        Response::ScrubStarted { pending, .. } => assert_eq!(pending as usize, ARCHIVE_FILES),
        other => panic!("scrub start refused: {other:?}"),
    }

    let mut responses = Vec::new();
    let mut ticks = 0u64;
    let mut cursor = 0usize;
    loop {
        let window: Vec<Request> = (0..8)
            .map(|_| {
                let req = script[cursor % script.len()].clone();
                cursor += 1;
                req
            })
            .collect();
        for chunk in window.chunks(depth) {
            responses.extend(cfs.handle_batch(chunk.to_vec()));
        }
        ticks += 1;
        assert!(ticks < 10_000, "budgeted pass failed to converge");
        match cfs.handle(Request::ScrubTick) {
            Response::ScrubTicked { status, .. } => {
                if status.state == WireSchedState::Complete {
                    assert_eq!(status.verified as usize, ARCHIVE_FILES);
                    assert_eq!(status.tampered, 1, "the planted evidence must be found");
                    break;
                }
            }
            other => panic!("scrub tick refused: {other:?}"),
        }
    }
    let elapsed = cfs.with_fs(|fs| device_clock_ns(fs)) - start;

    let verdicts: Vec<Response> = (0..ARCHIVE_FILES)
        .map(|i| {
            cfs.handle(Request::Verify {
                name: archive_name(i),
            })
        })
        .collect();
    let mut registry: Vec<LineRecord> =
        cfs.with_fs(|fs| fs.device().heated_lines().cloned().collect());
    registry.sort_by_key(|r| r.line.start());
    (responses, verdicts, registry, ticks, elapsed)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fast = fast_mode();
    println!(
        "EXP-CONCURRENCY: {HOT_FILES} hot files, {SWEEP_OPS}-op script, depths 1/2/4/8{}\n",
        if fast { " (fast mode)" } else { "" },
    );

    // --- depth sweep ------------------------------------------------------
    let script = read_script(SWEEP_OPS);
    let depths = [1usize, 2, 4, 8];
    let mut device_ns = Vec::new();
    let mut baseline_responses: Option<Vec<Response>> = None;
    let mut merged_at_8 = (0u64, 0u64);
    let widths = [8, 14, 14, 12, 12];
    println!(
        "{}",
        row(
            &["depth", "device ms", "ops/dev-s", "merged", "deduped"],
            &widths
        )
    );
    for &depth in &depths {
        let (ns, responses, merged, deduped) = run_depth(depth, &script);
        match &baseline_responses {
            None => baseline_responses = Some(responses),
            Some(base) => assert_eq!(
                base, &responses,
                "depth {depth} changed a response — merging must be invisible"
            ),
        }
        if depth == 8 {
            merged_at_8 = (merged, deduped);
        }
        println!(
            "{}",
            row(
                &[
                    &format!("{depth}"),
                    &format!("{:.2}", ns as f64 / 1e6),
                    &format!("{:.0}", SWEEP_OPS as f64 / (ns as f64 / 1e9)),
                    &format!("{merged}"),
                    &format!("{deduped}"),
                ],
                &widths
            )
        );
        device_ns.push(ns);
    }
    let ratio = |d: usize| {
        device_ns[0] as f64 / device_ns[depths.iter().position(|&x| x == d).unwrap()] as f64
    };
    let (x2, x4, x8) = (ratio(2), ratio(4), ratio(8));
    println!("\n  depth-8 throughput: {x8:.2}x the one-at-a-time schedule (bar: >= 2.5x)");
    assert!(
        x8 >= 2.5,
        "admission merging must clear the 2.5x acceptance bar, got {x8:.2}x"
    );

    // --- scrub interleaving ----------------------------------------------
    let (fg8, verdicts8, registry8, ticks8, scrub8_ns) = run_scrub_phase(8, &script);
    let (fg1, verdicts1, registry1, ticks1, scrub1_ns) = run_scrub_phase(1, &script);
    assert_eq!(
        fg8, fg1,
        "foreground responses must match the serialized schedule"
    );
    assert_eq!(
        verdicts8, verdicts1,
        "verify verdicts must match the serialized schedule"
    );
    assert_eq!(
        registry8, registry1,
        "the line registry — the tamper evidence — must be byte-identical"
    );
    let tampered = verdicts8
        .iter()
        .filter(|v| matches!(v, Response::Error(e) if e.code == ErrorCode::TamperDetected))
        .count();
    assert_eq!(tampered, 1, "exactly the planted line is tampered");
    println!(
        "  scrub interleaved at depth 8: {ticks8} ticks, {:.2} ms device \
         (serial: {ticks1} ticks, {:.2} ms); evidence identical, 1 tampered line found",
        scrub8_ns as f64 / 1e6,
        scrub1_ns as f64 / 1e6,
    );

    let doc = Json::obj()
        .set("schema", "sero-bench/v1")
        .set("bench", "concurrency")
        .set("fast_mode", fast)
        .set(
            "device",
            Json::obj()
                .set("blocks", DEVICE_BLOCKS)
                .set("hot_files", HOT_FILES)
                .set("hot_bytes", HOT_BYTES)
                .set("archive_files", ARCHIVE_FILES)
                .set("archive_bytes", ARCHIVE_BYTES)
                .set("sweep_ops", SWEEP_OPS)
                .set("scrub_budget_ns", SCRUB_BUDGET_NS),
        )
        .set(
            "metrics",
            Json::obj()
                .set("depth_1_device_ms", device_ns[0] as f64 / 1e6)
                .set("depth_2_device_ms", device_ns[1] as f64 / 1e6)
                .set("depth_4_device_ms", device_ns[2] as f64 / 1e6)
                .set("depth_8_device_ms", device_ns[3] as f64 / 1e6)
                .set("throughput_x2", x2)
                .set("throughput_x4", x4)
                .set("throughput_x8", x8)
                .set("reads_merged_at_8", merged_at_8.0)
                .set("blocks_deduped_at_8", merged_at_8.1)
                .set("scrub_depth8_device_ms", scrub8_ns as f64 / 1e6)
                .set("scrub_serial_device_ms", scrub1_ns as f64 / 1e6)
                .set("scrub_ticks_depth8", ticks8)
                .set("scrub_ticks_serial", ticks1)
                .set("lines_verified", ARCHIVE_FILES)
                .set("tampered", 1u64)
                .set("evidence_identical", 1u64),
        );
    let path = bench_out_path("concurrency");
    std::fs::write(&path, doc.render())?;
    println!("\n  wrote {}", path.display());
    Ok(())
}
