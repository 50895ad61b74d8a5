//! Whole-device scrub: parallel verification of every heated line.
//!
//! The paper's §5.2 defence assumes whole-device verification is routine —
//! "a fsck style scan of the medium would definitely recover (albeit
//! slowly) all the heated files" — and its capacity arithmetic (100 nm
//! pitch ⇒ 10 Gbit/cm²) makes *slowly* a real problem: at device scale a
//! serial [`SeroDevice::verify_line`] crawl leaves the probe array mostly
//! idle. Real probe-storage hardware is massively parallel (the µSPAM has
//! one tip per track group), so a scrub controller can shard the heated
//! lines over independent probe controllers and verify them concurrently.
//!
//! [`scrub_device`] models exactly that: the registered heated lines are
//! split into contiguous shards, each shard is verified by a worker thread
//! on its own clone of the device (clones share no state, mirroring
//! per-region controllers with private channels and clocks), and the
//! results are merged into a per-line [`VerifyOutcome`] report plus a
//! device-wide [`ScrubSummary`]. Two times fall out:
//!
//! * **serial device time** — the sum of all workers' busy time: what the
//!   one-line-at-a-time loop would have cost;
//! * **parallel device time** — the maximum over workers: what the sharded
//!   scrub costs wall-clock on the device. The originating device's clock
//!   advances by this amount.
//!
//! Their ratio is the scrub speedup reported by `exp_scrub` and tracked in
//! `BENCH_scrub.json`. Verification outcomes are *identical* to the serial
//! loop: sharding changes who reads a line, never what is read (the 26 dB
//! default read channel makes detection deterministic in practice, and the
//! property tests in `tests/bulk_io_props.rs` pin this equivalence).
//!
//! Scrubbing is also **epoch-based**: every completed pass advances the
//! device's scrub epoch and stamps each verified line with it. An
//! [`ScrubMode::Incremental`] pass then verifies only the *delta* — lines
//! heated or rediscovered since the last completed pass, plus every
//! *flagged* line (prior tamper evidence, refused protocol accesses) — and
//! reports the rest as skipped, so routine re-scrubs under live traffic
//! cost device time proportional to what changed, not to the archive.
//! Because silently tampered already-verified lines are invisible to the
//! delta, incremental configs periodically fall back to a full pass
//! (every [`ScrubConfig::full_every`]-th epoch). Tampered lines stay
//! flagged, so their evidence reappears in every following incremental
//! report until an operator-sanctioned pass finds them intact again.
//! Shard assignment is seek-aware: each worker's cloned actuator starts
//! parked at its shard's first track (a per-region controller rests in its
//! region), so the farthest shard no longer pays a long cold seek.
//!
//! This module is the *exclusive* pass — it assumes nothing else touches
//! the device while it runs. Verification interleaved with live
//! foreground traffic goes through [`crate::sched::ScrubScheduler`]
//! (budgeted slices); the served stack runs those slices inside its
//! batch window, under the one lock every request takes
//! (`docs/ARCHITECTURE.md` has the full model).
//!
//! # Examples
//!
//! ```
//! use sero_core::device::SeroDevice;
//! use sero_core::line::Line;
//! use sero_core::scrub::{scrub_device, ScrubConfig};
//!
//! let mut dev = SeroDevice::with_blocks(64);
//! for start in [0u64, 8, 16] {
//!     let line = Line::new(start, 3)?;
//!     for pba in line.data_blocks() {
//!         dev.write_block(pba, &[pba as u8; 512])?;
//!     }
//!     dev.heat_line(line, vec![], 0)?;
//! }
//! let report = scrub_device(&mut dev, &ScrubConfig::with_workers(2))?;
//! assert_eq!(report.summary.lines, 3);
//! assert_eq!(report.summary.intact, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::device::{SeroDevice, SeroError};
use crate::line::Line;
use crate::tamper::VerifyOutcome;
use sero_probe::sector::SECTOR_DATA_BYTES;

/// How much of the registry a scrub pass verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScrubMode {
    /// Verify every registered heated line.
    #[default]
    Full,
    /// Verify only the lines heated (or rediscovered) since the last
    /// completed pass, plus every *flagged* line — lines with prior tamper
    /// evidence or refused protocol accesses. Falls back to a full pass
    /// every [`ScrubConfig::full_every`]-th epoch, and on a device with no
    /// completed pass yet.
    Incremental,
}

/// Tuning knobs for [`scrub_device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubConfig {
    /// Number of worker shards, a parameter of the modelled device, never
    /// of the host. `1` (the default; `0` means the same) verifies in place
    /// without cloning the device, so the device clock advances by the sum
    /// over lines. More workers verify their shards on clones, and the
    /// clock advances by the slowest shard's time.
    pub workers: usize,
    /// Full or incremental verification (default: full).
    pub mode: ScrubMode,
    /// In incremental mode, force a full pass every `full_every`-th epoch
    /// so silently tampered already-verified lines cannot hide forever
    /// (`0` disables the fallback). Default: 8.
    pub full_every: u64,
}

impl Default for ScrubConfig {
    fn default() -> ScrubConfig {
        ScrubConfig {
            workers: 1,
            mode: ScrubMode::Full,
            full_every: 8,
        }
    }
}

impl ScrubConfig {
    /// A full-pass config with an explicit worker count.
    pub fn with_workers(workers: usize) -> ScrubConfig {
        ScrubConfig {
            workers,
            ..ScrubConfig::default()
        }
    }

    /// An incremental config with an explicit worker count.
    pub fn incremental(workers: usize) -> ScrubConfig {
        ScrubConfig {
            workers,
            mode: ScrubMode::Incremental,
            ..ScrubConfig::default()
        }
    }

    /// The worker count actually used for `lines` heated lines.
    pub fn effective_workers(&self, lines: usize) -> usize {
        self.workers.clamp(1, lines.max(1))
    }

    /// The mode epoch `epoch` actually runs in: incremental requests fall
    /// back to a full pass on the periodic `full_every` boundary and when
    /// no pass has completed yet (everything is unverified anyway).
    pub fn effective_mode(&self, epoch: u64, completed_passes: u64) -> ScrubMode {
        match self.mode {
            ScrubMode::Full => ScrubMode::Full,
            ScrubMode::Incremental
                if completed_passes == 0
                    || (self.full_every != 0 && epoch % self.full_every == 0) =>
            {
                ScrubMode::Full
            }
            ScrubMode::Incremental => ScrubMode::Incremental,
        }
    }
}

/// One line's scrub result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineScrub {
    /// The heated line verified.
    pub line: Line,
    /// What verification found.
    pub outcome: VerifyOutcome,
}

/// Device-wide totals of one scrub pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubSummary {
    /// Heated lines verified.
    pub lines: usize,
    /// Lines whose data matched their heated hash.
    pub intact: usize,
    /// Lines with tamper evidence.
    pub tampered: usize,
    /// Registered lines whose hash block scanned blank (should not happen
    /// on a healthy registry; counted rather than dropped).
    pub not_heated: usize,
    /// Registered lines an incremental pass skipped because the last
    /// completed pass already covered them (always 0 for a full pass).
    pub skipped: usize,
    /// The epoch this pass completed as (1-based).
    pub epoch: u64,
    /// The mode the pass actually ran in (an incremental request reports
    /// [`ScrubMode::Full`] on its periodic fallback epochs).
    pub mode: ScrubMode,
    /// Bytes of protected data re-hashed.
    pub data_bytes: u64,
    /// Worker shards used.
    pub workers: usize,
    /// Simulated device time of the sharded scrub: max busy time over
    /// workers. The device clock advances by this much.
    pub device_ns: u128,
    /// Simulated device time a serial verify loop would have spent: the
    /// sum of all workers' busy time.
    pub serial_device_ns: u128,
    /// Host wall-clock nanoseconds the scrub took (informational; noisy).
    pub host_ns: u128,
}

impl ScrubSummary {
    /// Device-time speedup of the sharded scrub over the serial loop.
    pub fn parallel_speedup(&self) -> f64 {
        if self.device_ns == 0 {
            1.0
        } else {
            self.serial_device_ns as f64 / self.device_ns as f64
        }
    }

    /// True when no line showed tamper evidence.
    pub fn is_clean(&self) -> bool {
        self.tampered == 0
    }
}

/// Full scrub output: per-line outcomes (in address order) plus totals.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrubReport {
    /// Per-line outcomes, sorted by line start address.
    pub outcomes: Vec<LineScrub>,
    /// Device-wide totals.
    pub summary: ScrubSummary,
}

impl ScrubReport {
    /// The lines that showed tamper evidence.
    pub fn tampered_lines(&self) -> impl Iterator<Item = &LineScrub> {
        self.outcomes.iter().filter(|l| l.outcome.is_tampered())
    }
}

/// The work list a pass running in `mode` verifies: every registered line
/// for a [`ScrubMode::Full`] pass, or — incrementally — only the delta:
/// lines never verified by a completed pass (`verified_epoch == 0`,
/// i.e. heated or rediscovered since), plus every *flagged* line. Shared
/// by [`scrub_device`] and the background [`crate::sched::ScrubScheduler`]
/// so the two can never disagree about what a pass covers.
pub fn pass_work_list(dev: &SeroDevice, mode: ScrubMode) -> Vec<Line> {
    dev.heated_lines()
        .filter(|r| mode == ScrubMode::Full || r.verified_epoch == 0 || r.flagged)
        .map(|r| r.line)
        .collect()
}

/// Tallies per-line outcomes into `summary`'s counters (`lines`,
/// `intact`/`tampered`/`not_heated`, `data_bytes`). Shared by
/// [`scrub_device`] and the background scheduler's report assembly so the
/// two can never drift.
pub(crate) fn tally_outcomes(outcomes: &[LineScrub], summary: &mut ScrubSummary) {
    for scrubbed in outcomes {
        summary.lines += 1;
        summary.data_bytes += (scrubbed.line.len() - 1) * SECTOR_DATA_BYTES as u64;
        match &scrubbed.outcome {
            VerifyOutcome::Intact { .. } => summary.intact += 1,
            VerifyOutcome::Tampered(_) => summary.tampered += 1,
            VerifyOutcome::NotHeated => summary.not_heated += 1,
        }
    }
}

/// Verifies every registered heated line, sharded over
/// `config`-many worker threads (see the module docs for the model).
///
/// The registry is the work list: call
/// [`SeroDevice::rebuild_registry`] / [`SeroDevice::refresh_registry`]
/// first if the device was just attached. The device clock advances by the
/// parallel elapsed time.
///
/// Each worker clones the full device, so host memory scales with
/// `workers × device size` and host wall time does not improve on small
/// hosts — the win is in *device* time. A read-only share is not an
/// option: the five-step `erb` protocol physically inverts and restores
/// dots, so verification mutates the medium (and its channel RNG and
/// clock) even though it leaves the data unchanged.
///
/// # Errors
///
/// Only infrastructure failures propagate (a registered line out of
/// range); tamper findings are data in the report.
pub fn scrub_device(dev: &mut SeroDevice, config: &ScrubConfig) -> Result<ScrubReport, SeroError> {
    let host_start = std::time::Instant::now();
    let epoch = dev.scrub_epoch() + 1;
    let mode = config.effective_mode(epoch, dev.scrub_epoch());

    // The work list: everything, or — incrementally — only lines heated or
    // rediscovered since the last completed pass (verified_epoch 0) plus
    // every flagged line.
    let registered = dev.heated_lines().count();
    let lines = pass_work_list(dev, mode);
    let workers = config.effective_workers(lines.len());

    let mut summary = ScrubSummary {
        workers,
        epoch,
        mode,
        skipped: registered - lines.len(),
        ..ScrubSummary::default()
    };
    if lines.is_empty() {
        dev.complete_scrub_pass(epoch);
        summary.host_ns = host_start.elapsed().as_nanos();
        return Ok(ScrubReport {
            outcomes: Vec::new(),
            summary,
        });
    }

    // Contiguous shards: each worker owns an address range, so its seeks
    // stay short — the same locality argument as the fs cleaner's.
    // Ceil-division chunking can yield fewer shards than requested
    // workers; the summary reports what actually ran.
    let chunk = lines.len().div_ceil(workers);
    let shards: Vec<Vec<Line>> = lines.chunks(chunk).map(<[Line]>::to_vec).collect();
    let workers = shards.len();
    summary.workers = workers;
    let base_ns = dev.probe().clock().elapsed_ns();

    let mut busy_ns: Vec<u128> = Vec::with_capacity(shards.len());
    let mut outcomes: Vec<LineScrub> = Vec::with_capacity(lines.len());

    if workers <= 1 {
        // In-place single-worker pass: this is the serial reference the
        // sharded path is benchmarked against, so it keeps the device's
        // real actuator position (no free parking).
        for line in lines {
            let outcome = dev.verify_line(line)?;
            outcomes.push(LineScrub { line, outcome });
        }
        busy_ns.push(dev.probe().clock().elapsed_ns() - base_ns);
    } else {
        let shared: &SeroDevice = dev;
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|shard| {
                    scope.spawn(move || -> Result<(u128, Vec<LineScrub>), SeroError> {
                        let mut local = shared.clone();
                        // Each worker models an independent probe-region
                        // controller whose resting position is inside its
                        // region: park at the shard's first track so the
                        // farthest shard no longer pays a long cold seek
                        // before its first verify.
                        if let Some(first) = shard.first() {
                            local.probe_mut().park_at(first.hash_block());
                        }
                        let mut out = Vec::with_capacity(shard.len());
                        for line in shard {
                            let outcome = local.verify_line(line)?;
                            out.push(LineScrub { line, outcome });
                        }
                        Ok((local.probe().clock().elapsed_ns() - base_ns, out))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scrub worker panicked"))
                .collect::<Vec<_>>()
        });
        for result in results {
            let (ns, shard_outcomes) = result?;
            busy_ns.push(ns);
            outcomes.extend(shard_outcomes);
        }
        let elapsed = busy_ns.iter().copied().max().unwrap_or(0);
        dev.probe_mut().advance_clock(elapsed as u64);
    }

    outcomes.sort_by_key(|l| l.line.start());
    tally_outcomes(&outcomes, &mut summary);
    for scrubbed in &outcomes {
        // Stamp the pass outcome: intact lines are covered until re-flagged
        // or re-heated; tampered (and blank-scanning) lines stay flagged so
        // every following incremental pass keeps reporting their evidence.
        dev.stamp_scrubbed(
            scrubbed.line,
            epoch,
            !matches!(scrubbed.outcome, VerifyOutcome::Intact { .. }),
        );
    }
    dev.complete_scrub_pass(epoch);
    summary.device_ns = busy_ns.iter().copied().max().unwrap_or(0);
    summary.serial_device_ns = busy_ns.iter().sum();
    summary.host_ns = host_start.elapsed().as_nanos();
    Ok(ScrubReport { outcomes, summary })
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: u64 = 1_199_145_600;

    fn heated_device(blocks: u64, order: u32, lines: usize) -> (SeroDevice, Vec<Line>) {
        let mut dev = SeroDevice::with_blocks(blocks);
        let len = 1u64 << order;
        let mut heated = Vec::new();
        for i in 0..lines as u64 {
            let line = Line::new(i * len, order).unwrap();
            for pba in line.data_blocks() {
                dev.write_block(pba, &[pba as u8; 512]).unwrap();
            }
            dev.heat_line(line, vec![], T0 + i).unwrap();
            heated.push(line);
        }
        (dev, heated)
    }

    #[test]
    fn scrub_matches_serial_verify() {
        let (mut dev, lines) = heated_device(128, 3, 8);
        // Tamper with two lines in different ways.
        dev.probe_mut()
            .mws(lines[2].start() + 1, &[0xBB; 512])
            .unwrap();
        let cell = dev.probe().electrical_cell_dot(lines[5].hash_block(), 0);
        dev.probe_mut().ewb(cell);
        dev.probe_mut().ewb(cell + 1);

        let mut serial_dev = dev.clone();
        let serial: Vec<(Line, VerifyOutcome)> = lines
            .iter()
            .map(|&line| (line, serial_dev.verify_line(line).unwrap()))
            .collect();
        let report = scrub_device(&mut dev, &ScrubConfig::with_workers(3)).unwrap();

        assert_eq!(report.outcomes.len(), serial.len());
        for (scrubbed, (line, outcome)) in report.outcomes.iter().zip(serial.iter()) {
            assert_eq!(scrubbed.line, *line);
            assert_eq!(&scrubbed.outcome, outcome, "divergence on {line}");
        }
        assert_eq!(report.summary.tampered, 2);
        assert_eq!(report.summary.intact, 6);
        assert_eq!(report.tampered_lines().count(), 2);
    }

    #[test]
    fn sharded_scrub_is_faster_in_device_time() {
        let (mut dev, _) = heated_device(128, 3, 8);
        let report = scrub_device(&mut dev, &ScrubConfig::with_workers(4)).unwrap();
        assert_eq!(report.summary.workers, 4);
        assert!(
            report.summary.parallel_speedup() > 2.0,
            "speedup {} with 4 workers",
            report.summary.parallel_speedup()
        );
        assert!(report.summary.device_ns < report.summary.serial_device_ns);
    }

    #[test]
    fn scrub_advances_the_device_clock_by_parallel_time() {
        let (mut dev, _) = heated_device(64, 3, 4);
        let before = dev.probe().clock().elapsed_ns();
        let report = scrub_device(&mut dev, &ScrubConfig::with_workers(2)).unwrap();
        let advanced = dev.probe().clock().elapsed_ns() - before;
        assert_eq!(advanced, report.summary.device_ns);
    }

    #[test]
    fn single_worker_runs_in_place() {
        let (mut dev, lines) = heated_device(64, 2, 4);
        let report = scrub_device(&mut dev, &ScrubConfig::with_workers(1)).unwrap();
        assert_eq!(report.summary.lines, lines.len());
        assert_eq!(report.summary.device_ns, report.summary.serial_device_ns);
        assert!((report.summary.parallel_speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_registry_scrubs_cleanly() {
        let mut dev = SeroDevice::with_blocks(16);
        let report = scrub_device(&mut dev, &ScrubConfig::default()).unwrap();
        assert_eq!(report.summary.lines, 0);
        assert!(report.summary.is_clean());
        assert!(report.outcomes.is_empty());
    }

    #[test]
    fn worker_counts_clamp_sensibly() {
        let cfg = ScrubConfig::with_workers(16);
        assert_eq!(cfg.effective_workers(3), 3, "never more workers than lines");
        assert_eq!(cfg.effective_workers(0), 1);
        // The default is one worker whatever the host, so a default pass
        // costs the same device time everywhere.
        assert_eq!(ScrubConfig::default().effective_workers(100), 1);
        assert_eq!(ScrubConfig::with_workers(0).effective_workers(100), 1);
    }

    #[test]
    fn summary_reports_actual_shard_count() {
        // 6 lines over 4 requested workers: ceil-chunking yields 3 shards
        // of 2 — the summary must say 3, not 4.
        let (mut dev, _) = heated_device(64, 3, 6);
        let report = scrub_device(&mut dev, &ScrubConfig::with_workers(4)).unwrap();
        assert_eq!(report.summary.workers, 3);
    }

    #[test]
    fn summary_counts_bytes() {
        let (mut dev, _) = heated_device(64, 3, 2);
        let report = scrub_device(&mut dev, &ScrubConfig::with_workers(2)).unwrap();
        assert_eq!(report.summary.data_bytes, 2 * 7 * 512);
    }

    #[test]
    fn incremental_scrub_verifies_only_the_delta() {
        let (mut dev, _) = heated_device(256, 3, 8);
        let full = scrub_device(&mut dev, &ScrubConfig::with_workers(2)).unwrap();
        assert_eq!((full.summary.epoch, full.summary.skipped), (1, 0));
        assert_eq!(dev.scrub_epoch(), 1);

        // Nothing changed: the next incremental pass verifies nothing.
        let idle = scrub_device(&mut dev, &ScrubConfig::incremental(2)).unwrap();
        assert_eq!(idle.summary.mode, ScrubMode::Incremental);
        assert_eq!((idle.summary.lines, idle.summary.skipped), (0, 8));
        assert_eq!(dev.scrub_epoch(), 2);

        // Heat two new lines: only they are verified.
        for i in 8..10u64 {
            let line = Line::new(i * 8, 3).unwrap();
            for pba in line.data_blocks() {
                dev.write_block(pba, &[pba as u8; 512]).unwrap();
            }
            dev.heat_line(line, vec![], T0).unwrap();
        }
        let delta = scrub_device(&mut dev, &ScrubConfig::incremental(2)).unwrap();
        assert_eq!((delta.summary.lines, delta.summary.skipped), (2, 8));
        assert!(delta.summary.is_clean());
        assert!(delta.outcomes.iter().all(|l| l.line.start() >= 64,));
    }

    #[test]
    fn refused_write_flags_line_for_incremental_reverify() {
        let (mut dev, lines) = heated_device(64, 3, 4);
        scrub_device(&mut dev, &ScrubConfig::with_workers(2)).unwrap();

        // A refused write into a frozen line is suspicious activity…
        assert!(dev.write_block(lines[2].start() + 1, &[0u8; 512]).is_err());
        let report = scrub_device(&mut dev, &ScrubConfig::incremental(2)).unwrap();
        assert_eq!(report.summary.lines, 1, "only the flagged line re-verified");
        assert_eq!(report.outcomes[0].line, lines[2]);
        assert!(report.outcomes[0].outcome.is_intact());

        // …and an intact verdict clears the flag again.
        let idle = scrub_device(&mut dev, &ScrubConfig::incremental(2)).unwrap();
        assert_eq!(idle.summary.lines, 0);
    }

    #[test]
    fn tampered_line_stays_flagged_and_reappears_every_pass() {
        let (mut dev, lines) = heated_device(64, 3, 4);
        scrub_device(&mut dev, &ScrubConfig::with_workers(2)).unwrap();
        dev.probe_mut()
            .mws(lines[1].start() + 1, &[0xAA; 512])
            .unwrap();
        // The rewrite bypassed the protocol, so pass 2 (incremental) cannot
        // see it — that is exactly what the full_every fallback is for.
        let blind = scrub_device(&mut dev, &ScrubConfig::incremental(2)).unwrap();
        assert_eq!(blind.summary.tampered, 0);

        // A full pass finds it and flags it…
        let caught = scrub_device(&mut dev, &ScrubConfig::with_workers(2)).unwrap();
        assert_eq!(caught.summary.tampered, 1);
        // …and every later incremental pass keeps reporting the evidence.
        for _ in 0..2 {
            let report = scrub_device(&mut dev, &ScrubConfig::incremental(2)).unwrap();
            assert_eq!(report.summary.lines, 1);
            assert_eq!(report.summary.tampered, 1);
            assert_eq!(report.outcomes[0].line, lines[1]);
        }
    }

    #[test]
    fn incremental_falls_back_to_full_on_schedule() {
        let (mut dev, _) = heated_device(64, 3, 4);
        let mut config = ScrubConfig::incremental(2);
        config.full_every = 3;
        // Epoch 1: no completed pass yet → full.
        let first = scrub_device(&mut dev, &config).unwrap();
        assert_eq!(
            (first.summary.mode, first.summary.lines),
            (ScrubMode::Full, 4)
        );
        // Epoch 2: incremental, nothing to do.
        let second = scrub_device(&mut dev, &config).unwrap();
        assert_eq!(second.summary.mode, ScrubMode::Incremental);
        assert_eq!(second.summary.lines, 0);
        // Epoch 3: the periodic full pass re-verifies everything.
        let third = scrub_device(&mut dev, &config).unwrap();
        assert_eq!(
            (third.summary.mode, third.summary.lines),
            (ScrubMode::Full, 4)
        );

        // full_every = 0 disables the fallback entirely.
        config.full_every = 0;
        for _ in 0..4 {
            let report = scrub_device(&mut dev, &config).unwrap();
            assert_eq!(report.summary.mode, ScrubMode::Incremental);
            assert_eq!(report.summary.lines, 0);
        }
    }

    #[test]
    fn parked_workers_pay_no_cold_seek() {
        // A population far from track 0: without parking, every worker's
        // clone starts at the device's resting position and the farthest
        // shard pays the longest first seek. Parked workers start on their
        // shard's first track, so per-shard busy time loses that cold seek.
        let (mut dev, lines) = heated_device(4096, 3, 64);
        let report = scrub_device(&mut dev, &ScrubConfig::with_workers(4)).unwrap();
        assert_eq!(report.summary.workers, 4);

        // Reference: one unparked worker verifying only the farthest shard.
        let mut far_dev = dev.clone();
        far_dev.probe_mut().park_at(0);
        let shard: Vec<Line> = lines[48..].to_vec();
        let base = far_dev.probe().clock().elapsed_ns();
        for &line in &shard {
            far_dev.verify_line(line).unwrap();
        }
        let unparked_ns = far_dev.probe().clock().elapsed_ns() - base;

        let cold_seek_ns = {
            let cost = *dev.probe().cost_model();
            (lines[48].hash_block()) * cost.t_step_ns + cost.t_settle_ns
        };
        assert!(
            report.summary.device_ns + u128::from(cold_seek_ns) / 2 <= unparked_ns,
            "parked shard time {} should be well under unparked {} (cold seek {})",
            report.summary.device_ns,
            unparked_ns,
            cold_seek_ns
        );
    }
}
