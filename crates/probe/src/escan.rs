//! Batched electrical extent scans — bulk `ers`/`ews` fast paths.
//!
//! PR 2 gave the *magnetic* side extent transfers ([`crate::extent`]); the
//! registry scan and the heat burn still paid one full seek (steps **plus
//! settle**) per [`ProbeDevice::ers`] / [`ProbeDevice::ews`] call. That is
//! exactly the access pattern of the paper's §5.2 recovery story — "a fsck
//! style scan of the medium would definitely recover, albeit slowly, all
//! the heated files" — so at device scale the electrical crawl dominates
//! mount and scrub time. Bit-patterned-media practice streams whole track
//! groups under the head instead; these operations model that:
//!
//! * one head-of-range seek, then settle-free [`Actuator`] row streaming
//!   between blocks — including across *gaps* between scattered ascending
//!   targets (the sled sweeps over uninteresting tracks without stopping);
//! * per-block [`Scan`] / [`EwsReport`] results, so a damaged or tampered
//!   block is reported in its scan without aborting the rest of the run
//!   (tamper findings are data, never errors);
//! * a prefix sieve ([`ProbeDevice::ers_sieve_blocks_with`]) that probes
//!   every block's 16-cell prefix in one sweep and escalates candidates
//!   to a full scan in place, so registry scans stop paying a full seek
//!   for every pre-probe.
//!
//! On the default cost model a streamed electrical scan saves the 50 µs
//! settle per block; `BENCH_registry.json` tracks the end-to-end ratio for
//! a whole-device registry rebuild (≥3× is the acceptance bar).
//!
//! [`Actuator`]: crate::actuator::Actuator
//!
//! # Examples
//!
//! ```
//! use sero_probe::device::ProbeDevice;
//!
//! let mut dev = ProbeDevice::builder().blocks(16).build();
//! dev.ews_blocks(&[(3u64, vec![true, false]), (9, vec![false, true])])?;
//! let scans = dev.ers_blocks_at(&[3, 9])?;
//! assert!(scans.iter().all(|s| s.tampered_cells().is_empty()));
//! # Ok::<(), sero_probe::sector::SectorError>(())
//! ```

use crate::device::{EwsReport, ProbeDevice};
use crate::sector::SectorError;
use sero_codec::manchester::Scan;

impl ProbeDevice {
    fn check_escan_extent(&self, start: u64, count: u64) -> Result<(), SectorError> {
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

    /// Streams prefix probes of `prefix_cells` Manchester cells over the
    /// extent `[start, start + count)`, escalating interesting blocks to a
    /// full electrical scan *on the spot* — the sled is already on their
    /// track, so the escalation pays no movement at all (the crawl it
    /// replaces re-seeks for the full read). `is_candidate` inspects each
    /// prefix [`Scan`]; when it returns `true` the remaining cells are
    /// probed and the full scan is handed to `full_sink`. This is the
    /// registry scan's primitive: sieve the device in one sweep, decode
    /// only the blocks that can be line heads or evidence.
    ///
    /// # Errors
    ///
    /// [`SectorError::OutOfRange`] when the extent exceeds the device.
    ///
    /// # Panics
    ///
    /// Panics when `prefix_cells` exceeds
    /// [`ELECTRICAL_CELLS`](crate::sector::ELECTRICAL_CELLS).
    pub fn ers_sieve_blocks_with<P, F>(
        &mut self,
        start: u64,
        count: u64,
        prefix_cells: usize,
        mut is_candidate: P,
        mut full_sink: F,
    ) -> Result<(), SectorError>
    where
        P: FnMut(u64, &Scan) -> bool,
        F: FnMut(u64, Scan),
    {
        self.check_escan_extent(start, count)?;
        if count == 0 {
            return Ok(());
        }
        self.seek_block(start);
        for pba in start..start + count {
            if pba > start {
                self.stream_to_block(pba);
            }
            let prefix = self.ers_cells_here(pba, prefix_cells);
            if is_candidate(pba, &prefix) {
                let full = self.ers_cells_here(pba, crate::sector::ELECTRICAL_CELLS);
                full_sink(pba, full);
            }
        }
        Ok(())
    }

    /// Reads the electrical area of each block in `pbas` (in order),
    /// returning one [`Scan`] per address. Ascending runs pay one seek at
    /// the first target and then *sweep* the sled over the gaps without
    /// settling; a target behind the current position falls back to a full
    /// seek. This is how registry scans full-read their scattered
    /// candidate blocks and how batched heats read their hash blocks back.
    ///
    /// # Errors
    ///
    /// [`SectorError::OutOfRange`] when any address exceeds the device
    /// (checked up front, before any I/O).
    pub fn ers_blocks_at(&mut self, pbas: &[u64]) -> Result<Vec<Scan>, SectorError> {
        for &pba in pbas {
            self.check_pba(pba)?;
        }
        let mut out = Vec::with_capacity(pbas.len());
        for (i, &pba) in pbas.iter().enumerate() {
            if i == 0 {
                self.seek_block(pba);
            } else {
                self.stream_to_block(pba);
            }
            out.push(self.ers_cells_here(pba, crate::sector::ELECTRICAL_CELLS));
        }
        Ok(out)
    }

    /// Burns each `(pba, bits)` entry electrically, in order, returning one
    /// [`EwsReport`] per entry. Ascending targets pay one seek at the first
    /// entry and sweep settle-free over the gaps between hash blocks — the
    /// bulk fast path for heating a batch of lines.
    ///
    /// # Errors
    ///
    /// [`SectorError::OutOfRange`] when any address exceeds the device
    /// (checked up front, before any dot is heated).
    ///
    /// # Panics
    ///
    /// Panics when any entry's bits exceed the electrical area — a caller
    /// bug, not a device condition.
    pub fn ews_blocks<B: AsRef<[bool]>>(
        &mut self,
        writes: &[(u64, B)],
    ) -> Result<Vec<EwsReport>, SectorError> {
        for (pba, _) in writes {
            self.check_pba(*pba)?;
        }
        let mut out = Vec::with_capacity(writes.len());
        for (i, (pba, bits)) in writes.iter().enumerate() {
            if i == 0 {
                self.seek_block(*pba);
            } else {
                self.stream_to_block(*pba);
            }
            out.push(self.ews_here(*pba, bits.as_ref()));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::device::ProbeDevice;
    use crate::sector::{SectorError, ELECTRICAL_CELLS};

    fn device(blocks: u64) -> ProbeDevice {
        ProbeDevice::builder().blocks(blocks).build()
    }

    fn bits(seed: usize, len: usize) -> Vec<bool> {
        (0..len).map(|i| (i * 7 + seed) % 3 == 0).collect()
    }

    /// A prefix-only sieve: 16-cell probes over the extent, nothing
    /// escalated.
    fn prefix_sweep(dev: &mut ProbeDevice, start: u64, count: u64) -> Result<(), SectorError> {
        dev.ers_sieve_blocks_with(start, count, 16, |_, _| false, |_, _| {})
    }

    #[test]
    fn ews_blocks_matches_ews_loop() {
        let mut batch = device(32);
        let mut serial = device(32);
        let writes: Vec<(u64, Vec<bool>)> = [2u64, 3, 9, 20]
            .into_iter()
            .enumerate()
            .map(|(i, pba)| (pba, bits(i, 64)))
            .collect();

        let reports = batch.ews_blocks(&writes).unwrap();
        for (pba, b) in &writes {
            let report = serial.ews(*pba, b).unwrap();
            let batched = &reports[writes.iter().position(|(p, _)| p == pba).unwrap()];
            assert_eq!(batched, &report, "block {pba}");
        }
        // The media agree cell for cell.
        for (pba, b) in &writes {
            let a = batch.ers(*pba).unwrap();
            let s = serial.ers(*pba).unwrap();
            assert_eq!(a, s, "block {pba}");
            let decoded: Vec<bool> = a.cells()[..b.len()]
                .iter()
                .map(|c| c.value().unwrap())
                .collect();
            assert_eq!(&decoded, b);
        }
    }

    #[test]
    fn streamed_scan_is_cheaper_than_seek_loop() {
        let mut batch = device(64);
        let mut serial = device(64);

        let t0 = batch.clock().elapsed_ns();
        prefix_sweep(&mut batch, 0, 64).unwrap();
        let batch_ns = batch.clock().elapsed_ns() - t0;

        let t0 = serial.clock().elapsed_ns();
        for pba in 0..64 {
            serial.ers_cells(pba, 16).unwrap();
        }
        let serial_ns = serial.clock().elapsed_ns() - t0;

        assert!(
            batch_ns * 3 < serial_ns,
            "streamed {batch_ns} ns should beat the seek loop {serial_ns} ns by >3x"
        );
        assert_eq!(batch.counters().seeks, 1, "one seek for the whole extent");
        assert_eq!(serial.counters().seeks, 64);
    }

    #[test]
    fn scattered_ascending_targets_sweep_without_settle() {
        // Hash blocks 16 tracks apart: the sweep pays 16 steps per gap,
        // the seek loop pays 16 steps + settle per gap.
        let targets = [0u64, 16, 32, 48];
        let mut sweep = device(64);
        let mut seeks = device(64);
        for &pba in &targets {
            sweep.ews(pba, &bits(1, 32)).unwrap();
            seeks.ews(pba, &bits(1, 32)).unwrap();
        }

        let t0 = sweep.clock().elapsed_ns();
        let swept = sweep.ers_blocks_at(&targets).unwrap();
        let sweep_ns = sweep.clock().elapsed_ns() - t0;

        let t0 = seeks.clock().elapsed_ns();
        let mut serial = Vec::new();
        for &pba in &targets {
            serial.push(seeks.ers(pba).unwrap());
        }
        let serial_ns = seeks.clock().elapsed_ns() - t0;

        assert_eq!(swept, serial, "sweeping changes timing, never data");
        assert!(
            sweep_ns < serial_ns,
            "sweep {sweep_ns} vs seeks {serial_ns}"
        );
    }

    #[test]
    fn descending_target_falls_back_to_a_seek() {
        let mut dev = device(16);
        dev.ews(2, &bits(0, 16)).unwrap();
        dev.ews(10, &bits(1, 16)).unwrap();
        let scans = dev.ers_blocks_at(&[10, 2]).unwrap();
        assert_eq!(scans.len(), 2);
        assert_eq!(dev.counters().seeks, 2 + 2, "backwards hop re-seeks");
    }

    #[test]
    fn damaged_block_reported_in_scan_not_as_error() {
        let mut dev = device(8);
        dev.ews(1, &bits(0, 32)).unwrap();
        dev.shred(2).unwrap();
        let scans = dev.ers_blocks_at(&[0, 1, 2, 3]).unwrap();
        assert!(scans[0].cells().iter().all(|c| c.value().is_none()));
        assert!(scans[1].tampered_cells().is_empty(), "clean payload");
        assert!(
            !scans[2].tampered_cells().is_empty(),
            "shredded block scans as HH evidence"
        );
        assert!(scans[3].tampered_cells().is_empty());
    }

    #[test]
    fn sieve_escalates_in_place_without_extra_movement() {
        let mut dev = device(32);
        dev.ews(5, &bits(0, 64)).unwrap();
        dev.ews(20, &bits(1, 64)).unwrap();

        let mut full_scans = Vec::new();
        let steps_before = dev.counters().seeks;
        dev.ers_sieve_blocks_with(
            0,
            32,
            16,
            |_, prefix| prefix.blank_cells().len() != 16,
            |pba, scan| full_scans.push((pba, scan)),
        )
        .unwrap();
        assert_eq!(dev.counters().seeks - steps_before, 1, "one sweep");
        assert_eq!(full_scans.len(), 2);
        assert_eq!(full_scans[0].0, 5);
        assert_eq!(full_scans[1].0, 20);
        // The escalated scans decode exactly like standalone full reads.
        let mut reference = device(32);
        reference.ews(5, &bits(0, 64)).unwrap();
        reference.ews(20, &bits(1, 64)).unwrap();
        assert_eq!(full_scans[0].1, reference.ers(5).unwrap());
        assert_eq!(full_scans[1].1, reference.ers(20).unwrap());
    }

    #[test]
    fn out_of_range_extents_rejected_up_front() {
        let mut dev = device(8);
        assert!(prefix_sweep(&mut dev, 4, 5).is_err());
        assert!(prefix_sweep(&mut dev, 0, 9).is_err());
        assert!(dev.ers_blocks_at(&[0, 8]).is_err());
        let before = dev.counters().ers;
        assert!(dev
            .ews_blocks(&[(7u64, bits(0, 4)), (9, bits(0, 4))])
            .is_err());
        assert_eq!(dev.counters().ers, before, "no I/O before the refusal");
        assert_eq!(dev.counters().ewb, 0);
        // Boundary-exact and empty extents are fine.
        assert!(prefix_sweep(&mut dev, 0, 8).is_ok());
        assert!(prefix_sweep(&mut dev, 8, 0).is_ok());
        assert!(dev.ers_blocks_at(&[]).is_ok());
    }

    #[test]
    fn full_scan_helpers_agree_with_ers_cells_bound() {
        let mut dev = device(4);
        dev.ews(1, &bits(2, ELECTRICAL_CELLS)).unwrap();
        let batch = dev.clone().ers_blocks_at(&[1]).unwrap();
        let single = dev.ers(1).unwrap();
        assert_eq!(batch[0], single);
    }
}
