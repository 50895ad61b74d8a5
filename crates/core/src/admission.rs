//! Sharded actuator queues and the admission scheduler — the concurrent
//! foreground core.
//!
//! A single sled serves every request, so "concurrency" on a SERO device
//! can never mean parallel head movement; it means **queue depth**: while
//! one request is in flight, others arrive, and a scheduler that sees the
//! whole queue can serve it in far less device time than first-come
//! first-served. This module supplies that machinery to `sero-fs`'s
//! batch window (and anything else driving a [`SeroDevice`]):
//!
//! * [`RegionMap`] — divides the medium into fixed-span regions, one
//!   staging queue per region (held inside [`AdmissionQueues`]).
//! * [`AdmissionQueues::submit`] — stages a foreground op ([`FgOp`]) on
//!   its region's queue and hands back a [`Ticket`].
//! * [`AdmissionQueues::take_batch`] — drains every queue in one elevator
//!   sweep starting from the region under the sled. **The batch order is
//!   the serialized schedule**: executing the batch is, by construction,
//!   equivalent to executing its ops one at a time in exactly that order.
//! * [`AdmissionQueues::execute_batch`] — runs a batch, coalescing each
//!   run of consecutive reads into one sorted, deduplicated sweep
//!   ([`SeroDevice::read_blocks_sweep`]); verifies run one at a time
//!   between the runs.
//!
//! Only reads and verifies are admitted: they are the ops a batch window
//! submits. Writes and heats execute through the file system in arrival
//! order.
//!
//! # Why merging preserves the serialized schedule
//!
//! Only *consecutive* reads merge, so a verify between two reads keeps
//! its place in the schedule. Within a merged run reads commute. Protocol
//! violations (a read touching a hash block) are screened per-op before
//! any merge and executed individually, so their error *and* their
//! flag-the-line side effect land exactly as the serial schedule would
//! have landed them. If a merged sweep fails, the run falls back to
//! per-op execution; reads do not mutate, so the retry converges on the
//! serial outcome. This module's unit tests pin the merge against a
//! one-at-a-time oracle, and the `concurrency_props` proptests drive
//! arbitrary read, write, verify and scrub scripts through `sero-fs`'s
//! batch window: responses and tamper evidence byte-identical to the
//! serialized schedule.
//!
//! # Examples
//!
//! ```
//! use sero_core::admission::{AdmissionQueues, FgOp, FgResult};
//! use sero_core::device::SeroDevice;
//!
//! let mut dev = SeroDevice::with_blocks(64);
//! dev.write_block(3, &[7u8; 512])?;
//! let mut q = AdmissionQueues::new(64, 4);
//! let a = q.submit(FgOp::Read { pbas: vec![3] });
//! let b = q.submit(FgOp::Read { pbas: vec![40] });
//! let sled = q.region_map().region_of(dev.probe().position_block());
//! let batch = q.take_batch(sled);
//! let results = q.execute_batch(&mut dev, batch);
//! assert_eq!(results.len(), 2);
//! assert!(matches!(&results[0], (t, FgResult::Data(d)) if *t == a && d[0][0] == 7));
//! assert!(matches!(&results[1], (t, _) if *t == b));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::device::{SeroDevice, SeroError};
use crate::line::Line;
use crate::tamper::VerifyOutcome;
use sero_probe::sector::SECTOR_DATA_BYTES;
use std::collections::{HashMap, VecDeque};

/// Identifies one submitted op; results come back as `(Ticket, FgResult)`.
pub type Ticket = u64;

/// A foreground operation staged for admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FgOp {
    /// Read the given blocks (returned in request order).
    Read {
        /// Target addresses, in the order the caller wants them back.
        pbas: Vec<u64>,
    },
    /// Verify a heated line.
    Verify {
        /// The line to verify.
        line: Line,
    },
}

impl FgOp {
    /// The address that decides which region queue stages this op.
    fn anchor(&self) -> u64 {
        match self {
            FgOp::Read { pbas } => pbas.first().copied().unwrap_or(0),
            FgOp::Verify { line } => line.start(),
        }
    }
}

/// The outcome of one admitted op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FgResult {
    /// Sectors read, in the op's request order.
    Data(Vec<[u8; SECTOR_DATA_BYTES]>),
    /// The verification verdict (tamper findings are data, not errors).
    Verified(VerifyOutcome),
    /// The op failed with a protocol or device error.
    Failed(SeroError),
}

/// Divides `blocks` into `regions` fixed-span regions — one staging queue
/// (conceptually: one sled neighbourhood) per region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionMap {
    blocks: u64,
    regions: u32,
    span: u64,
}

impl RegionMap {
    /// A map of `regions` equal spans over a `blocks`-block device.
    ///
    /// # Panics
    ///
    /// Panics on zero blocks or zero regions — caller bugs, not device
    /// conditions.
    pub fn new(blocks: u64, regions: u32) -> RegionMap {
        assert!(blocks > 0, "a region map needs a non-empty device");
        assert!(regions > 0, "a region map needs at least one region");
        let regions = regions.min(u32::try_from(blocks).unwrap_or(u32::MAX));
        RegionMap {
            blocks,
            regions,
            span: blocks.div_ceil(regions as u64),
        }
    }

    /// Number of regions.
    pub fn regions(&self) -> u32 {
        self.regions
    }

    /// Blocks per region (the last region may be shorter).
    pub fn span(&self) -> u64 {
        self.span
    }

    /// The region containing `pba` (out-of-range addresses clamp to the
    /// last region; range errors surface at execution, not staging).
    pub fn region_of(&self, pba: u64) -> u32 {
        ((pba.min(self.blocks - 1)) / self.span) as u32
    }
}

/// Counters describing what admission merged — the bench's evidence that
/// queue depth actually turned into bulk transfers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Ops staged via [`AdmissionQueues::submit`].
    pub submitted: u64,
    /// Ops executed to completion.
    pub executed: u64,
    /// Batches drained.
    pub batches: u64,
    /// Read ops that shared a coalesced sweep with at least one other.
    pub reads_merged: u64,
    /// Always zero: admission stages no writes. Kept so existing struct
    /// literals and counter deltas still build.
    pub writes_merged: u64,
    /// Always zero: admission stages no heats. Kept for the same reason
    /// as `writes_merged`.
    pub heats_merged: u64,
    /// Blocks that were requested more than once in a coalesced read and
    /// transferred only once.
    pub blocks_deduped: u64,
    /// Merged groups that fell back to per-op execution after a mid-sweep
    /// failure.
    pub fallbacks: u64,
}

/// Per-region staging queues plus the admission scheduler that drains and
/// merges them. See the [module docs](self) for the model.
#[derive(Debug)]
pub struct AdmissionQueues {
    map: RegionMap,
    queues: Vec<VecDeque<(Ticket, FgOp)>>,
    next_ticket: Ticket,
    pending: usize,
    stats: AdmissionStats,
}

impl AdmissionQueues {
    /// Queues for a `blocks`-block device sharded into `regions` regions.
    pub fn new(blocks: u64, regions: u32) -> AdmissionQueues {
        let map = RegionMap::new(blocks, regions);
        AdmissionQueues {
            map,
            queues: (0..map.regions()).map(|_| VecDeque::new()).collect(),
            next_ticket: 0,
            pending: 0,
            stats: AdmissionStats::default(),
        }
    }

    /// The region map in force.
    pub fn region_map(&self) -> &RegionMap {
        &self.map
    }

    /// Ops staged and not yet taken.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Merge counters so far.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Stages `op` on its region's queue and returns its ticket.
    pub fn submit(&mut self, op: FgOp) -> Ticket {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let region = self.map.region_of(op.anchor()) as usize;
        self.queues[region].push_back((ticket, op));
        self.pending += 1;
        self.stats.submitted += 1;
        ticket
    }

    /// Drains every staged op in one elevator sweep: regions from
    /// `start_region` upward, wrapping to the low regions last; FIFO
    /// within a region. The returned order **is** the serialized schedule
    /// the batch's execution is equivalent to.
    pub fn take_batch(&mut self, start_region: u32) -> Vec<(Ticket, FgOp)> {
        let n = self.queues.len();
        let start = (start_region as usize).min(n - 1);
        let mut batch = Vec::with_capacity(self.pending);
        for i in 0..n {
            let region = (start + i) % n;
            batch.extend(self.queues[region].drain(..));
        }
        self.pending = 0;
        if !batch.is_empty() {
            self.stats.batches += 1;
        }
        batch
    }

    /// Executes `batch` against `dev`, coalescing runs of consecutive
    /// reads into bulk sweeps, and returns `(ticket, result)` in schedule
    /// order. Results (and every registry side effect: flags, verified
    /// epochs) are equivalent to executing the ops one at a time in batch
    /// order.
    pub fn execute_batch(
        &mut self,
        dev: &mut SeroDevice,
        batch: Vec<(Ticket, FgOp)>,
    ) -> Vec<(Ticket, FgResult)> {
        let mut out = Vec::with_capacity(batch.len());
        let mut reads: Vec<(Ticket, Vec<u64>)> = Vec::new();
        for (ticket, op) in batch {
            match op {
                FgOp::Read { pbas } => reads.push((ticket, pbas)),
                FgOp::Verify { line } => {
                    self.flush_reads(dev, &mut reads, &mut out);
                    out.push((ticket, verify_one(dev, line)));
                    self.stats.executed += 1;
                }
            }
        }
        self.flush_reads(dev, &mut reads, &mut out);
        out
    }

    /// Coalesces a run of reads into one sorted, deduplicated sweep.
    /// Protocol violators (hash-block touches) run individually first so
    /// their flag side effects match the serial schedule.
    fn flush_reads(
        &mut self,
        dev: &mut SeroDevice,
        group: &mut Vec<(Ticket, Vec<u64>)>,
        out: &mut Vec<(Ticket, FgResult)>,
    ) {
        let group = std::mem::take(group);
        let mut clean: Vec<(Ticket, Vec<u64>)> = Vec::with_capacity(group.len());
        for (ticket, pbas) in group {
            let violates = pbas
                .iter()
                .any(|&p| dev.line_of(p).is_some_and(|l| l.hash_block() == p));
            if violates {
                out.push((ticket, read_one(dev, &pbas)));
                self.stats.executed += 1;
            } else {
                clean.push((ticket, pbas));
            }
        }
        match clean.len() {
            0 => {}
            1 => {
                let (ticket, pbas) = clean.pop().expect("len checked");
                out.push((ticket, read_one(dev, &pbas)));
                self.stats.executed += 1;
            }
            _ => {
                let mut union: Vec<u64> =
                    clean.iter().flat_map(|(_, p)| p.iter().copied()).collect();
                let requested = union.len() as u64;
                union.sort_unstable();
                union.dedup();
                self.stats.blocks_deduped += requested - union.len() as u64;
                match dev.read_blocks_sweep(&union) {
                    Ok(sectors) => {
                        let by_pba: HashMap<u64, [u8; SECTOR_DATA_BYTES]> =
                            union.iter().copied().zip(sectors).collect();
                        for (ticket, pbas) in clean {
                            let data = pbas.iter().map(|p| by_pba[p]).collect();
                            out.push((ticket, FgResult::Data(data)));
                            self.stats.executed += 1;
                            self.stats.reads_merged += 1;
                        }
                    }
                    Err(_) => {
                        // Re-run per op so each reports the error (or data)
                        // the serial schedule would have; reads don't mutate,
                        // so the retry is free of side effects.
                        self.stats.fallbacks += 1;
                        for (ticket, pbas) in clean {
                            out.push((ticket, read_one(dev, &pbas)));
                            self.stats.executed += 1;
                        }
                    }
                }
            }
        }
    }
}

fn read_one(dev: &mut SeroDevice, pbas: &[u64]) -> FgResult {
    match dev.read_blocks(pbas) {
        Ok(sectors) => FgResult::Data(sectors),
        Err(e) => FgResult::Failed(e),
    }
}

fn verify_one(dev: &mut SeroDevice, line: Line) -> FgResult {
    match dev.verify_line(line) {
        Ok(outcome) => FgResult::Verified(outcome),
        Err(e) => FgResult::Failed(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Executes `ops` strictly one at a time in order — the reference
    /// serialized schedule the admission path is proven equivalent to.
    fn execute_serial(dev: &mut SeroDevice, ops: &[FgOp]) -> Vec<FgResult> {
        ops.iter()
            .map(|op| match op {
                FgOp::Read { pbas } => read_one(dev, pbas),
                FgOp::Verify { line } => verify_one(dev, *line),
            })
            .collect()
    }

    fn pattern(seed: u8) -> [u8; SECTOR_DATA_BYTES] {
        let mut d = [0u8; SECTOR_DATA_BYTES];
        for (i, b) in d.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(13).wrapping_add(seed);
        }
        d
    }

    /// A device with two heated lines (at 16 and 32, order 2) and data in
    /// the low WMRM blocks.
    fn staged_device() -> SeroDevice {
        let mut dev = SeroDevice::with_blocks(128);
        for pba in 0..8 {
            dev.write_block(pba, &pattern(pba as u8)).unwrap();
        }
        for start in [16u64, 32] {
            let line = Line::new(start, 2).unwrap();
            for pba in line.data_blocks() {
                dev.write_block(pba, &pattern(start as u8)).unwrap();
            }
            dev.heat_line(line, vec![start as u8], start).unwrap();
        }
        dev
    }

    fn drain(q: &mut AdmissionQueues, dev: &mut SeroDevice) -> Vec<(Ticket, FgResult)> {
        let start = q.region_map().region_of(dev.probe().position_block());
        let batch = q.take_batch(start);
        q.execute_batch(dev, batch)
    }

    #[test]
    fn tickets_come_back_in_schedule_order_with_results() {
        let mut dev = staged_device();
        let mut q = AdmissionQueues::new(128, 4);
        let r = q.submit(FgOp::Read { pbas: vec![0, 1] });
        let v = q.submit(FgOp::Verify {
            line: Line::new(16, 2).unwrap(),
        });
        let far = q.submit(FgOp::Read { pbas: vec![33] });
        let start = q.region_map().region_of(dev.probe().position_block());
        let batch = q.take_batch(start);
        let schedule: Vec<Ticket> = batch.iter().map(|&(t, _)| t).collect();
        let results = q.execute_batch(&mut dev, batch);
        assert_eq!(
            results.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            schedule,
            "results come back in batch order"
        );
        let by_ticket: HashMap<Ticket, &FgResult> = results.iter().map(|(t, r)| (*t, r)).collect();
        assert!(matches!(by_ticket[&r], FgResult::Data(d) if d.len() == 2));
        assert!(matches!(by_ticket[&far], FgResult::Data(d) if d.len() == 1));
        assert!(
            matches!(
                by_ticket[&v],
                FgResult::Verified(VerifyOutcome::Intact { .. })
            ),
            "{:?}",
            by_ticket[&v]
        );
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn coalesced_reads_match_serial_and_dedup_hot_blocks() {
        let ops = vec![
            FgOp::Read {
                pbas: vec![0, 1, 2],
            },
            FgOp::Read {
                pbas: vec![1, 2, 3],
            },
            FgOp::Read { pbas: vec![5, 0] },
        ];
        let mut serial_dev = staged_device();
        let serial = execute_serial(&mut serial_dev, &ops);

        let mut dev = staged_device();
        let mut q = AdmissionQueues::new(128, 4);
        for op in &ops {
            q.submit(op.clone());
        }
        let batch = q.take_batch(0);
        let merged: Vec<FgResult> = q
            .execute_batch(&mut dev, batch)
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(merged, serial);
        assert_eq!(q.stats().reads_merged, 3);
        assert_eq!(q.stats().blocks_deduped, 3, "1, 2 and 0 repeat");
    }

    #[test]
    fn hash_block_read_is_screened_and_still_flags_the_line() {
        let mut dev = staged_device();
        let line = Line::new(16, 2).unwrap();
        let mut q = AdmissionQueues::new(128, 4);
        let bad = q.submit(FgOp::Read {
            pbas: vec![line.hash_block()],
        });
        let good = q.submit(FgOp::Read { pbas: vec![0] });
        let results = drain(&mut q, &mut dev);
        let by_ticket: HashMap<Ticket, &FgResult> = results.iter().map(|(t, r)| (*t, r)).collect();
        assert!(matches!(
            by_ticket[&bad],
            FgResult::Failed(SeroError::HashBlockAccess { .. })
        ));
        assert!(matches!(by_ticket[&good], FgResult::Data(_)));
        let record = dev.heated_lines().find(|r| r.line == line).unwrap();
        assert!(record.flagged, "the refused access must flag the line");
    }

    #[test]
    fn elevator_sweep_starts_at_the_sled_region() {
        let mut q = AdmissionQueues::new(128, 4);
        let far = q.submit(FgOp::Read { pbas: vec![2] }); // region 0
        let near = q.submit(FgOp::Read { pbas: vec![70] }); // region 2
        let batch = q.take_batch(2);
        assert_eq!(
            batch.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![near, far],
            "sweep starts under the sled and wraps"
        );
    }

    #[test]
    fn deep_queue_beats_fifo_device_time() {
        // Scattered single-block reads over a large device: FIFO pays a
        // long seek per op, the admission sweep pays roughly one pass.
        let blocks = 16 * 1024;
        let mut fifo = SeroDevice::with_blocks(blocks);
        let mut admitted = SeroDevice::with_blocks(blocks);
        let targets: Vec<u64> = (0..8u64).map(|i| (i * 5741 + 997) % blocks).collect();
        let ops: Vec<FgOp> = targets
            .iter()
            .map(|&p| FgOp::Read { pbas: vec![p] })
            .collect();

        let t0 = fifo.probe().clock().elapsed_ns();
        execute_serial(&mut fifo, &ops);
        let fifo_ns = fifo.probe().clock().elapsed_ns() - t0;

        let mut q = AdmissionQueues::new(blocks, 8);
        for op in &ops {
            q.submit(op.clone());
        }
        let t0 = admitted.probe().clock().elapsed_ns();
        let batch = q.take_batch(0);
        q.execute_batch(&mut admitted, batch);
        let merged_ns = admitted.probe().clock().elapsed_ns() - t0;

        assert!(
            merged_ns * 2 < fifo_ns,
            "depth-8 admission {merged_ns} ns should halve FIFO {fifo_ns} ns"
        );
    }
}
