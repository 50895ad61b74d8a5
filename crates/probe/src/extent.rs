//! Batched multi-block extent I/O — the bulk fast path of the device.
//!
//! Bit-patterned-media practice reads and decodes whole tracks in bulk;
//! per-block APIs waste most of that bandwidth on actuation. A call to
//! [`ProbeDevice::mrs`] pays a full seek (steps **plus settle time**) for
//! every block, even when the next block sits on the adjacent track row.
//! The extent operations here amortize that per-call setup:
//!
//! * one head-of-range seek, then a settle-free [`Actuator::step_row`]
//!   between consecutive blocks — the sled never comes to rest;
//! * one shared raw buffer and cost-model evaluation per call instead of
//!   per block (host-side amortization);
//! * per-block `Result`s, so a damaged block in the middle of an extent is
//!   reported without aborting the rest of the transfer.
//!
//! On the default cost model a sequential extent read is ~1.6× faster in
//! device time than the equivalent `mrs` loop (60 µs seek+settle vs 10 µs
//! streaming step per block); `BENCH_bulk_io.json` tracks the exact ratio.
//!
//! [`Actuator::step_row`]: crate::actuator::Actuator::step_row
//!
//! # Examples
//!
//! ```
//! use sero_probe::device::ProbeDevice;
//!
//! let mut dev = ProbeDevice::builder().blocks(16).build();
//! let blocks = [[0x5au8; 512]; 4];
//! dev.write_blocks(8, &blocks)?;
//! let read = dev.read_blocks(8, 4)?;
//! for sector in read {
//!     assert_eq!(sector?.data, [0x5au8; 512]);
//! }
//! # Ok::<(), sero_probe::sector::SectorError>(())
//! ```

use crate::device::{ProbeDevice, WriteReport};
use crate::sector::{DecodedSector, SectorError, SECTOR_DATA_BYTES};

impl ProbeDevice {
    fn check_extent(&self, start: u64, count: u64) -> Result<(), SectorError> {
        let end = start.checked_add(count).ok_or(SectorError::OutOfRange {
            pba: u64::MAX,
            blocks: self.block_count(),
        })?;
        if end > self.block_count() {
            return Err(SectorError::OutOfRange {
                pba: end - 1,
                blocks: self.block_count(),
            });
        }
        Ok(())
    }

    /// Reads the extent `[start, start + count)`, returning one `Result`
    /// per block. See the module docs for the amortization model.
    ///
    /// # Errors
    ///
    /// [`SectorError::OutOfRange`] when the extent exceeds the device.
    pub fn read_blocks(
        &mut self,
        start: u64,
        count: u64,
    ) -> Result<Vec<Result<DecodedSector, SectorError>>, SectorError> {
        let mut out = Vec::with_capacity(count as usize);
        self.read_block_runs_with(&[(start, count)], |_, sector| {
            out.push(sector);
            true
        })?;
        Ok(out)
    }

    /// Streams `blocks` contiguously onto the medium starting at `start`
    /// (flags 0), handing each block's [`WriteReport`] to `sink` as it
    /// lands. `sink` returns `false` to stop the transfer — the remaining
    /// blocks are left untouched and uncharged, which is how callers
    /// reproduce the per-block loop's stop-at-first-failure semantics.
    ///
    /// # Errors
    ///
    /// [`SectorError::OutOfRange`] when the extent exceeds the device.
    pub fn write_blocks_with<F>(
        &mut self,
        start: u64,
        blocks: &[[u8; SECTOR_DATA_BYTES]],
        mut sink: F,
    ) -> Result<(), SectorError>
    where
        F: FnMut(u64, WriteReport) -> bool,
    {
        self.check_extent(start, blocks.len() as u64)?;
        if blocks.is_empty() {
            return Ok(());
        }
        self.seek_block(start);
        for (i, data) in blocks.iter().enumerate() {
            let pba = start + i as u64;
            if i > 0 {
                let ns = self.actuator.step_row();
                self.clock.advance(ns);
            }
            let report = self.write_sector_here(pba, 0, data);
            if !sink(pba, report) {
                break;
            }
        }
        Ok(())
    }

    /// Writes `blocks` contiguously starting at `start` (flags 0), paying
    /// one seek for the whole extent. Returns one [`WriteReport`] per
    /// block, in order.
    ///
    /// # Errors
    ///
    /// [`SectorError::OutOfRange`] when the extent exceeds the device.
    pub fn write_blocks(
        &mut self,
        start: u64,
        blocks: &[[u8; SECTOR_DATA_BYTES]],
    ) -> Result<Vec<WriteReport>, SectorError> {
        let mut reports = Vec::with_capacity(blocks.len());
        self.write_blocks_with(start, blocks, |_, report| {
            reports.push(report);
            true
        })?;
        Ok(reports)
    }

    // --- queue-aware staging ------------------------------------------------
    //
    // The admission scheduler (sero-core) merges queued foreground requests
    // into one elevator sweep per batch. Reading run by run pays a full
    // seek (steps + settle) at the head of *every* run; when a batch spans
    // several scattered-but-ascending runs, the sled can instead keep
    // moving over the gaps — the same settle-free streaming trick
    // `ers_blocks_at` uses for hash blocks, applied to magnetic extents.
    // A single extent is the one-run case.

    /// Streams several ascending extent runs in one sweep: a single
    /// head-of-batch seek, then settle-free [`Actuator::stream_rows`] over
    /// the gaps between runs (a run behind the sled falls back to a seek).
    /// `runs` are `(start, count)` pairs. `sink` receives
    /// `(pba, Result<DecodedSector, _>)` per block, one decoded sector at a
    /// time — no intermediate collection, so callers that fold the data
    /// (digest computation, checksum scans) never copy a block — and
    /// returns `false` to stop the whole sweep: remaining blocks are
    /// neither read nor charged. Per-block decode failures are delivered
    /// through `sink`, not returned.
    ///
    /// [`Actuator::stream_rows`]: crate::actuator::Actuator::stream_rows
    ///
    /// # Errors
    ///
    /// [`SectorError::OutOfRange`] when any run exceeds the device,
    /// checked up front before any I/O.
    pub fn read_block_runs_with<F>(
        &mut self,
        runs: &[(u64, u64)],
        mut sink: F,
    ) -> Result<(), SectorError>
    where
        F: FnMut(u64, Result<DecodedSector, SectorError>) -> bool,
    {
        for &(start, count) in runs {
            self.check_extent(start, count)?;
        }
        let mut first = true;
        for &(start, count) in runs {
            if count == 0 {
                continue;
            }
            if first {
                self.seek_block(start);
                first = false;
            } else {
                self.stream_to_block(start);
            }
            for pba in start..start + count {
                if pba > start {
                    let ns = self.actuator.step_row();
                    self.clock.advance(ns);
                }
                let sector = self.read_sector_here(pba);
                if !sink(pba, sector) {
                    return Ok(());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device(blocks: u64) -> ProbeDevice {
        ProbeDevice::builder().blocks(blocks).build()
    }

    fn payload(seed: u8) -> [u8; SECTOR_DATA_BYTES] {
        let mut d = [0u8; SECTOR_DATA_BYTES];
        for (i, b) in d.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(31).wrapping_add(seed);
        }
        d
    }

    #[test]
    fn extent_round_trip_matches_loop() {
        let mut batch = device(32);
        let mut serial = device(32);
        let blocks: Vec<[u8; SECTOR_DATA_BYTES]> = (0..8).map(|i| payload(i as u8)).collect();

        let reports = batch.write_blocks(4, &blocks).unwrap();
        assert!(reports.iter().all(|r| r.unwritable_dots == 0));
        for (i, data) in blocks.iter().enumerate() {
            serial.mws(4 + i as u64, data).unwrap();
        }

        let via_extent = batch.read_blocks(4, 8).unwrap();
        for (i, sector) in via_extent.into_iter().enumerate() {
            let want = serial.mrs(4 + i as u64).unwrap();
            assert_eq!(sector.unwrap().data, want.data);
        }
    }

    #[test]
    fn extent_reads_are_cheaper_than_seek_loop() {
        let mut batch = device(64);
        let mut serial = device(64);
        let blocks: Vec<[u8; SECTOR_DATA_BYTES]> = (0..32).map(|i| payload(i as u8)).collect();
        batch.write_blocks(0, &blocks).unwrap();
        for (i, data) in blocks.iter().enumerate() {
            serial.mws(i as u64, data).unwrap();
        }

        let t0 = batch.clock().elapsed_ns();
        batch.read_blocks(0, 32).unwrap();
        let extent_ns = batch.clock().elapsed_ns() - t0;

        let t0 = serial.clock().elapsed_ns();
        for pba in 0..32 {
            serial.mrs(pba).unwrap();
        }
        let loop_ns = serial.clock().elapsed_ns() - t0;

        assert!(
            extent_ns * 3 < loop_ns * 2,
            "extent {extent_ns} ns should beat the loop {loop_ns} ns by >1.5x"
        );
    }

    #[test]
    fn bad_block_reported_without_aborting_extent() {
        let mut dev = device(8);
        let blocks: Vec<[u8; SECTOR_DATA_BYTES]> = (0..4).map(payload).collect();
        dev.write_blocks(0, &blocks).unwrap();
        dev.shred(2).unwrap();
        let read = dev.read_blocks(0, 4).unwrap();
        assert!(read[0].is_ok() && read[1].is_ok() && read[3].is_ok());
        assert!(read[2].is_err(), "shredded block must surface its error");
    }

    #[test]
    fn early_stop_skips_remaining_cost() {
        let mut dev = device(8);
        let blocks: Vec<[u8; SECTOR_DATA_BYTES]> = (0..8).map(payload).collect();
        dev.write_blocks(0, &blocks).unwrap();
        let mut seen = 0u64;
        let before = dev.counters().mrs;
        dev.read_block_runs_with(&[(0, 8)], |_, _| {
            seen += 1;
            seen < 3
        })
        .unwrap();
        assert_eq!(seen, 3);
        assert_eq!(dev.counters().mrs - before, 3, "untouched blocks not read");
    }

    #[test]
    fn out_of_range_extent_rejected() {
        let mut dev = device(8);
        assert!(dev.read_blocks(4, 5).is_err());
        assert!(dev.read_blocks(0, 9).is_err());
        assert!(dev.write_blocks(7, &[payload(0); 2]).is_err());
        // Boundary-exact extents are fine.
        assert!(dev.write_blocks(6, &[payload(0); 2]).is_ok());
        assert!(dev.read_blocks(0, 8).is_ok());
        // Empty extents are trivially fine.
        assert!(dev.read_blocks(8, 0).is_ok());
    }

    #[test]
    fn run_sweep_matches_per_extent_reads() {
        let mut swept = device(64);
        let mut serial = device(64);
        for dev in [&mut swept, &mut serial] {
            for run in [4u64, 20, 40] {
                let blocks: Vec<[u8; SECTOR_DATA_BYTES]> =
                    (0..4).map(|i| payload((run + i) as u8)).collect();
                dev.write_blocks(run, &blocks).unwrap();
            }
        }

        let runs = [(4u64, 4u64), (20, 4), (40, 4)];
        let mut via_sweep = Vec::new();
        swept
            .read_block_runs_with(&runs, |pba, sector| {
                via_sweep.push((pba, sector.unwrap().data));
                true
            })
            .unwrap();
        let mut via_extents = Vec::new();
        for &(start, count) in &runs {
            serial
                .read_block_runs_with(&[(start, count)], |pba, sector| {
                    via_extents.push((pba, sector.unwrap().data));
                    true
                })
                .unwrap();
        }
        assert_eq!(via_sweep, via_extents);
    }

    #[test]
    fn run_sweep_is_cheaper_than_per_run_seeks() {
        let mut swept = device(256);
        let mut serial = device(256);
        let runs: Vec<(u64, u64)> = (0..8).map(|i| (i * 30, 4)).collect();
        for dev in [&mut swept, &mut serial] {
            for &(start, count) in &runs {
                let blocks: Vec<[u8; SECTOR_DATA_BYTES]> =
                    (0..count).map(|i| payload((start + i) as u8)).collect();
                dev.write_blocks(start, &blocks).unwrap();
            }
        }

        let t0 = swept.clock().elapsed_ns();
        let seeks0 = swept.counters().seeks;
        swept.read_block_runs_with(&runs, |_, _| true).unwrap();
        let sweep_ns = swept.clock().elapsed_ns() - t0;
        assert_eq!(
            swept.counters().seeks - seeks0,
            1,
            "one seek for the whole ascending batch"
        );

        let t0 = serial.clock().elapsed_ns();
        for &(start, count) in &runs {
            serial
                .read_block_runs_with(&[(start, count)], |_, _| true)
                .unwrap();
        }
        let per_run_ns = serial.clock().elapsed_ns() - t0;
        assert!(
            sweep_ns < per_run_ns,
            "sweep {sweep_ns} ns should beat per-run seeks {per_run_ns} ns"
        );
    }

    #[test]
    fn run_sweep_rejects_out_of_range_up_front() {
        let mut dev = device(8);
        let before = dev.counters().mrs;
        assert!(dev
            .read_block_runs_with(&[(0, 2), (6, 4)], |_, _| true)
            .is_err());
        assert_eq!(dev.counters().mrs, before, "no I/O before validation");
    }

    #[test]
    fn counters_match_loop_semantics() {
        let mut dev = device(8);
        let blocks: Vec<[u8; SECTOR_DATA_BYTES]> = (0..4).map(payload).collect();
        dev.write_blocks(0, &blocks).unwrap();
        let c = dev.counters();
        assert_eq!(c.mws, 4);
        assert_eq!(c.seeks, 1, "one seek for the whole extent");
        dev.read_blocks(0, 4).unwrap();
        assert_eq!(dev.counters().mrs, 4);
        assert_eq!(dev.counters().seeks, 2);
    }
}
