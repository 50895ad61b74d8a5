//! Shared helpers for the SERO experiment regenerators.
//!
//! Every figure and table of the paper has a binary in `src/bin/` that
//! regenerates it (see `DESIGN.md` for the index); Criterion benches in
//! `benches/` measure the implementation itself. This library holds the
//! bits they share: fixed-width table printing, ASCII sparklines for scan
//! data, the workload driver that replays [`sero_workload::Op`] streams
//! against a file system, and the [`json`] machinery behind the
//! machine-readable `BENCH_*.json` baselines.
//!
//! # The `BENCH_*.json` schema (`sero-bench/v1`)
//!
//! The perf-baseline binaries (`exp_scrub`, `exp_bulk_io`, `exp_registry`,
//! `exp_sched`, `exp_fleet`, `exp_served`, `exp_faults`, `exp_metadata`)
//! each emit one JSON document, written to the current
//! directory (override with `SERO_BENCH_OUT_DIR`). Committed baselines
//! live in `benchmarks/` at the repo root; CI regenerates the files with
//! `SERO_BENCH_FAST=1` and runs `bench_compare` against the committed
//! copies. The shape:
//!
//! ```json
//! {
//!   "schema": "sero-bench/v1",
//!   "bench": "scrub",                // or "bulk_io"
//!   "fast_mode": true,               // SERO_BENCH_FAST was set
//!   "device": { ... },               // workload geometry: blocks, bytes,
//!                                    // heated_lines / extent_blocks, workers
//!   "metrics": { ... },              // DETERMINISTIC simulated-device
//!                                    // numbers: *_device_ms, speedup,
//!                                    // ops/sec, mib_per_s — the compared set
//!   "host": { ... }                  // host wall-clock milliseconds;
//!                                    // informational only, never compared
//! }
//! ```
//!
//! ## Compare policy: what blocks CI, and at what threshold
//!
//! Only numeric leaves under `"metrics"` participate in the
//! [`bench_compare`](../bench_compare/index.html) ±threshold check (a
//! metric present in only one file is an explicit `MISSING` failure, and
//! two documents disagreeing on `"schema"` or `"bench"` abort the compare
//! with exit code 2). Everything in `"metrics"` derives from the simulated
//! device clock ([`sero_probe::timing::SimClock`]) and deterministic
//! seeds, so a regeneration on any host reproduces the committed numbers
//! exactly; `"host"` captures real wall time for humans and is expected
//! to vary.
//!
//! That split is also the CI gating policy. The **metric allowlist** —
//! everything the blocking compare sees — is exactly the numeric leaves
//! of `"metrics"`; the **threshold** is zero (`--threshold 0`). The
//! allowlisted numbers are deterministic, so a regeneration either
//! reproduces the committed baseline bit for bit or something changed
//! what the simulated device does: an extra seek, a different line
//! count, a moved RNG stream. Any drift therefore blocks, and the
//! `bench-baselines` CI job runs `bench_compare` as a **blocking** step.
//! A tolerance would only hide such changes: at ±20% a change could add
//! 19% device time, or change how many lines a pass verifies, and stay
//! green. The fix for a failing compare is either to repair the change
//! or to regenerate, in the same change, only the baselines that moved,
//! and say why each value moved. Wall-clock numbers stay non-blocking by
//! construction — they live under `"host"`, which the compare never
//! reads, and the Criterion `bench-smoke` job that does measure host time
//! keeps its `continue-on-error`. Non-JSON artifacts (the `exp_sched`
//! scheduler trace `sched_trace.json`, the `exp_fleet` fleet trace
//! `fleet_trace.json`) are uploaded for humans and never compared.
//!
//! Per-bench metric keys:
//!
//! * `bench = "scrub"` — `serial_device_ms` (one-line-at-a-time
//!   [`sero_core::device::SeroDevice::verify_line`] loop),
//!   `parallel_device_ms` (sharded [`sero_core::scrub::scrub_device`] with
//!   seek-aware shard parking), `speedup` (their ratio; the ≥ 3×
//!   acceptance bar), `lines`, `lines_per_s`, `mib_per_s` (protected data
//!   re-hashed per simulated second, parallel path), `intact`, `tampered`,
//!   plus the epoch-based incremental pass over a small delta of freshly
//!   heated lines (one of them tampered): `incremental_device_ms`,
//!   `incremental_verified` / `incremental_skipped` /
//!   `incremental_tampered`, and `incremental_reduction` (full-pass lines
//!   over incremental lines; the ≥ 10× acceptance bar).
//! * `bench = "bulk_io"` — `read_loop_device_ms` / `read_extent_device_ms`
//!   / `read_speedup`, the `write_*` triple of the same shape,
//!   `read_mib_per_s` / `write_mib_per_s` (extent path), `blocks_per_op`.
//! * `bench = "registry"` — `crawl_device_ms` (per-block
//!   [`sero_core::device::SeroDevice::rebuild_registry_crawl`], one seek
//!   per block), `batched_device_ms` (the streamed sieve of
//!   [`sero_core::device::SeroDevice::rebuild_registry`]), `speedup`
//!   (their ratio; the ≥ 3× acceptance bar), `refresh_device_ms`
//!   (incremental [`sero_core::device::SeroDevice::refresh_registry`] on
//!   the populated registry), `lines_found`, `suspicious_blocks` (planted
//!   forged + shredded evidence), `crawl_seeks` / `batched_seeks`.
//! * `bench = "fleet"` — foreground and detection latency under
//!   fleet-coordinated scrub ([`sero_core::fleet::FleetScheduler`] over 4
//!   mounted file systems, staggered passes +
//!   adaptive budgets from each device's
//!   [`sero_core::device::LoadProbe`]): `p50_off_us` / `p99_off_us`
//!   (no-scrub baseline, latencies pooled across the fleet),
//!   `p50_fleet_us` / `p99_fleet_us`, `p99_fleet_over_off` (the ≤ 1.15×
//!   acceptance bar), `max_off_us` / `max_fleet_us` (worst stalls),
//!   `victim_pass_ms` (device time until the tampered+flagged member's
//!   pass completed — the fleet's detection latency) and `last_pass_ms`
//!   (until the final pass completed), `victim_finished_first` (1 iff the
//!   flagged device's pass completed before every clean peer's — the
//!   suspicion-first guarantee, asserted), `peak_active` (must stay ≤ the
//!   configured stagger ceiling, asserted), `lines_verified` (fleet-wide),
//!   `tampered` (the planted evidence, byte-identical to exclusive
//!   per-device passes, asserted).
//! * `bench = "sched"` — foreground latency under background scrub
//!   ([`sero_core::sched::ScrubScheduler`] driven over a mounted
//!   [`sero_fs::fs::SeroFs`] between requests of mixed open-loop
//!   traffic): `p50_off_us` / `p99_off_us` (no scrub baseline),
//!   `p99_greedy_us` (stop-the-world pass), `p50_budgeted_us` /
//!   `p99_budgeted_us` (budgeted slices), `p99_budgeted_over_off` (the
//!   ≤ 2× acceptance bar) and `p99_greedy_over_off`, `max_greedy_us` /
//!   `max_budgeted_us` (worst-case stalls), `scrub_completion_greedy_ms`
//!   / `scrub_completion_budgeted_ms` (pass completion under load),
//!   `budgeted_slices` / `budgeted_throttled_ticks`, `lines_verified`,
//!   `tampered` (the planted evidence both phases must find).
//! * `bench = "served"` — the served path (`exp_served`): queue depth
//!   through the reactor's locked
//!   [`sero_fs::concurrent::ConcurrentFs::handle_batch`] window, on the
//!   simulated device clock. Each phase runs once on its own population.
//!   * Ready-set sweep: one shuffled 192-read script replayed at ready-set
//!     sizes 1/2/4/8/16, each window encoded to frames, fed through
//!     [`sero_proto::frame::FrameAssembler`] in deterministically varied
//!     chunks and dispatched as one batch (ready set 1 *is* the
//!     one-at-a-time schedule): `ready_{1,2,4,8,16}_device_ms`,
//!     `throughput_x{2,4,8,16}` (`throughput_x8` carries the ≥ 2.5×
//!     acceptance bar, asserted), `ready_8_ops_per_device_s`,
//!     `reads_merged_at_8` / `blocks_deduped_at_8` (from
//!     `admission_stats()`), `frames_reassembled` / `reassembly_chunks`.
//!   * Window formation: `windows_formed` (5). For n = 1/2/4/8/16, n
//!     clients each write one `Read` frame before the daemon's reactor
//!     starts; exactly one admission batch of n must run, with device
//!     time and responses equal to in-process `handle_batch` of the same
//!     requests on a twin (asserted).
//!   * Scrub interleave: a budgeted pass ticking between depth-8 read
//!     windows with one line tampered, replayed serially:
//!     `scrub_depth8_device_ms` / `scrub_serial_device_ms`,
//!     `scrub_ticks_depth8` / `scrub_ticks_serial`,
//!     `scrub_lines_verified`, `scrub_tampered` (exactly the planted line,
//!     asserted), `scrub_evidence_identical` (1 iff responses, verdicts
//!     and the sorted line registry match across schedules, asserted).
//!   * Wire command replay: creates, a read/write mix, heating,
//!     verification and a budgeted scrub through the full encode → decode
//!     → `SeroFs::handle` round trip: `replay_commands`,
//!     `replay_wire_bytes` / `replay_request_bytes` /
//!     `replay_response_bytes`, `replay_bytes_per_command`,
//!     `replay_framing_overhead_ppm` (the 14-byte frame header+CRC each
//!     way), `replay_device_ms`, `replay_commands_per_device_s`,
//!     `replay_scrub_ticks` / `replay_scrub_throttled`,
//!     `replay_lines_verified`, `replay_errors` (0, asserted).
//!   * Framed tamper drill: `framed_tampered` (asserted).
//!   * Reactor ≡ in-process: `wire_script_commands` and
//!     `responses_identical` (1 iff the script, raw-write tamper and
//!     detecting verify included, answers byte-for-byte the same over a
//!     socket against the reactor as through
//!     [`sero_fs::fs::SeroFs::handle`], asserted).
//!
//!   It writes no `"host"` block: host time belongs to the `e2e`
//!   benchmark. The keys replace three earlier baselines:
//!
//!   | earlier key | `served` key |
//!   |---|---|
//!   | concurrency `depth_{1,2,4,8}_device_ms` | `ready_{1,2,4,8}_device_ms` |
//!   | concurrency `throughput_x{2,4,8}` | `throughput_x{2,4,8}` |
//!   | concurrency `reads_merged_at_8`, `blocks_deduped_at_8` | same |
//!   | concurrency `scrub_*_device_ms`, `scrub_ticks_*` | same |
//!   | concurrency `lines_verified`, `tampered`, `evidence_identical` | `scrub_` + key |
//!   | server `replay_device_ms` | same |
//!   | server `commands`, `wire_bytes`, `request_bytes`, `response_bytes`, `bytes_per_command`, `framing_overhead_ppm`, `commands_per_device_s`, `scrub_ticks`, `scrub_throttled`, `lines_verified`, `errors` | `replay_` + key |
//!   | reactor `ready_*_device_ms`, `throughput_x*`, `frames_reassembled`, `reassembly_chunks`, `wire_script_commands`, `responses_identical` | same |
//!   | reactor `sim_depth8_ops_per_device_s` | `ready_8_ops_per_device_s` |
//!   | reactor `tampered` | `framed_tampered` |
//! * `bench = "faults"` — bounded degradation under a calibrated
//!   transient-fault rate (`exp_faults`): two clones of one populated
//!   file system replay identical mixed traffic, one with a seeded
//!   [`sero_probe::faults::FaultPlan`] armed (transient read faults
//!   absorbed by the device retry budget, correctable write dots, sled
//!   stalls), then each runs a full scrub pass:
//!   `p50_clean_us` / `p99_clean_us` / `p50_faulted_us` /
//!   `p99_faulted_us`, `p99_faulted_over_clean` and
//!   `scrub_faulted_over_clean` (both carry the ≤ 2× acceptance bar,
//!   asserted), `scrub_clean_ms` / `scrub_faulted_ms`, the fired fault
//!   counts `read_faults` / `write_faults` / `stalls` (nonzero,
//!   asserted — the calibration proof), `quarantined` (0, asserted:
//!   transient faults never reach quarantine), `lines_verified`,
//!   `tampered` (0; namespaces, bytes, and line registries are
//!   asserted identical to the fault-free twin).
//! * `bench = "metadata"` — namespace scale on the PR 10 LSM index
//!   (`exp_metadata`): a [`sero_index::MetaIndex`] bulk-load sweep at
//!   4k/16k/64k entries (1M too outside fast mode) over a counted
//!   [`sero_index::VecStore`], a tamper byte-identity workload replayed
//!   on pre-index and indexed [`sero_fs::fs::FsConfig`] layouts with
//!   identical data geometry, and a 10k-name listing paged through
//!   `handle` + [`sero_proto::frame::encode_response`]:
//!   `open_reads_{4k,16k,64k}` (page reads to reopen the index — equal
//!   at every scale, the constant-mount-cost bar, asserted),
//!   `lookup_avg_reads_{4k,16k,64k}` and `lookup_growth` (average point
//!   -lookup page reads and their top-over-base ratio; the sublinearity
//!   bar — ≤ 4× across a 16×/256× namespace growth — asserted),
//!   `bloom_skips_{4k,16k,64k}` (segment probes pruned by the bloom
//!   filters), `tamper_identical` (1 iff every verify verdict, digest,
//!   timestamp, and protected line byte matches across the two
//!   layouts, asserted) and `tampered_found` (exactly the planted §5
//!   rewrite, asserted), `list_frames` (≥ 2, asserted: a 10k-name
//!   listing must paginate), `max_frame_bytes` (every frame under the
//!   1 MiB cap, asserted), `names_listed`, and `fs10k_mount_reads`
//!   (sector reads to remount the 10k-file system — bounded by the
//!   metadata regions, never per-inode probing, asserted). The full
//!   (non-fast) run adds the `_1m` keys; the committed baseline is the
//!   fast set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use sero_fs::alloc::WriteClass;
use sero_fs::fs::SeroFs;
use sero_workload::Op;

/// True when `SERO_BENCH_FAST` asks for reduced-size bench runs (the CI
/// smoke/baseline mode). Mirrors the criterion shim's switch.
pub fn fast_mode() -> bool {
    std::env::var_os("SERO_BENCH_FAST").is_some_and(|v| v != "0")
}

/// Where a `BENCH_<name>.json` document should be written: the directory
/// named by `SERO_BENCH_OUT_DIR`, defaulting to the current directory.
pub fn bench_out_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::var_os("SERO_BENCH_OUT_DIR").unwrap_or_else(|| ".".into());
    std::path::PathBuf::from(dir).join(format!("BENCH_{name}.json"))
}

/// Where a non-compared artifact (e.g. the `exp_sched` scheduler trace)
/// should be written: same directory rules as [`bench_out_path`], but the
/// file name is taken verbatim so the `BENCH_*.json` namespace stays
/// reserved for comparable baselines.
pub fn trace_out_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::var_os("SERO_BENCH_OUT_DIR").unwrap_or_else(|| ".".into());
    std::path::PathBuf::from(dir).join(name)
}

/// The current device-clock time of a file system, ns.
pub fn device_clock_ns(fs: &SeroFs) -> u128 {
    fs.device().probe().clock().elapsed_ns()
}

/// Idles `fs`'s device forward to `target_ns` on its own clock (no-op
/// when the clock is already past it) — the open-loop experiment
/// drivers' "wait for the next arrival".
pub fn idle_device_until(fs: &mut SeroFs, target_ns: u128) {
    let now = device_clock_ns(fs);
    if target_ns > now {
        fs.device_mut()
            .probe_mut()
            .advance_clock((target_ns - now) as u64);
    }
}

/// The `p`-th percentile (`0 < p ≤ 1`) of a latency sample, by the
/// ceil-index convention the committed `BENCH_sched.json` /
/// `BENCH_fleet.json` percentiles were generated with — shared so the
/// two baselines can never silently disagree about what "p99" means.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile_ns(latencies: &[u128], p: f64) -> u128 {
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Nanoseconds to microseconds, for the `*_us` metric keys.
pub fn ns_to_us(ns: u128) -> f64 {
    ns as f64 / 1e3
}

/// Prints a row of fixed-width cells.
pub fn row(cells: &[&str], widths: &[usize]) -> String {
    let mut out = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        out.push_str(&format!("{cell:<width$} "));
    }
    out.trim_end().to_string()
}

/// Renders `values` as a one-line unicode sparkline.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| BARS[(((v - min) / span) * 7.0).round() as usize])
        .collect()
}

/// Downsamples `values` to at most `n` points by block averaging.
pub fn downsample(values: &[f64], n: usize) -> Vec<f64> {
    if values.len() <= n {
        return values.to_vec();
    }
    let chunk = values.len().div_ceil(n);
    values
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// Replay statistics from [`apply_ops`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Operations applied successfully.
    pub applied: u64,
    /// Operations refused by the file system (e.g. writes to heated
    /// files) — the workload generator avoids these, so normally 0.
    pub refused: u64,
}

/// Replays a workload stream against `fs`.
///
/// # Panics
///
/// Panics on unexpected file-system errors (the experiment devices are
/// sized so the workloads fit).
pub fn apply_ops(fs: &mut SeroFs, ops: &[Op], timestamp: u64) -> ReplayStats {
    let mut stats = ReplayStats::default();
    for op in ops {
        let outcome = match op {
            Op::Create {
                name,
                data,
                archival,
            } => {
                let class = if *archival {
                    WriteClass::Archival
                } else {
                    WriteClass::Normal
                };
                fs.create(name, data, class).map(|_| ())
            }
            Op::Overwrite { name, data } => fs.write(name, data, WriteClass::Normal),
            Op::Delete { name } => fs.remove(name),
            Op::Read { name } => fs.read(name).map(|_| ()),
            Op::Heat { name, metadata } => fs.heat(name, metadata.clone(), timestamp).map(|_| ()),
        };
        match outcome {
            Ok(()) => stats.applied += 1,
            Err(sero_fs::error::FsError::ReadOnlyFile { .. }) => stats.refused += 1,
            Err(e) => panic!("workload op failed: {e} ({op:?})"),
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use sero_core::device::SeroDevice;
    use sero_fs::fs::FsConfig;
    use sero_workload::{AuditLogWorkload, Workload};

    #[test]
    fn sparkline_shapes() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }

    #[test]
    fn downsample_preserves_level() {
        let data: Vec<f64> = (0..100).map(|_| 5.0).collect();
        let ds = downsample(&data, 10);
        assert!(ds.len() <= 10);
        assert!(ds.iter().all(|&v| (v - 5.0).abs() < 1e-9));
    }

    #[test]
    fn replay_runs_clean() {
        let mut fs = SeroFs::format(SeroDevice::with_blocks(1024), FsConfig::default()).unwrap();
        let ops = AuditLogWorkload::small().ops(5);
        let stats = apply_ops(&mut fs, &ops, 0);
        assert_eq!(stats.refused, 0);
        assert_eq!(stats.applied as usize, ops.len());
    }

    #[test]
    fn row_formats() {
        assert_eq!(row(&["a", "bb"], &[3, 3]), "a   bb");
    }

    #[test]
    fn percentile_uses_the_ceil_index_convention() {
        let sample: Vec<u128> = (1..=100).collect();
        assert_eq!(percentile_ns(&sample, 0.50), 50);
        assert_eq!(percentile_ns(&sample, 0.99), 99);
        assert_eq!(percentile_ns(&sample, 1.0), 100);
        assert_eq!(percentile_ns(&[42], 0.99), 42);
        // Order-insensitive: the helper sorts its own copy.
        assert_eq!(percentile_ns(&[9, 1, 5], 0.5), 5);
    }
}
