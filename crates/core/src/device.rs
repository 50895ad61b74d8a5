//! The SERO device: WMRM storage whose parts become tamper-evident RO.
//!
//! [`SeroDevice`] wraps the probe device with the protocol §3 of the paper
//! requires:
//!
//! * **Proper read/write segregation** — "magnetically written data must
//!   only be read magnetically and … electrically written data must only be
//!   read electrically". Magnetic access to a registered hash block is a
//!   protocol violation; writes to any block of a heated line are refused
//!   (the line is read-only now).
//! * **heat a line** — the paper's atomic four-step sequence: read the data
//!   blocks, hash them *with their physical addresses*, burn the Manchester
//!   encoding of the hash (plus Figure 3 metadata) into block 0, and verify
//!   it reads back.
//! * **verify a line** — recompute the hash and compare against the heated
//!   one, reporting physical and cryptographic [`Evidence`] rather than a
//!   bare boolean.
//! * **registry recovery** — the hash-block payload is self-describing, so
//!   a full device scan rebuilds the registry after restart, directory
//!   destruction, or bulk erasure (§5.2's fsck argument).
//!
//! # Examples
//!
//! ```
//! use sero_core::device::SeroDevice;
//! use sero_core::line::Line;
//!
//! let mut dev = SeroDevice::with_blocks(16);
//! let line = Line::new(8, 2)?; // blocks 8..12
//! for pba in line.data_blocks() {
//!     dev.write_block(pba, &[pba as u8; 512])?;
//! }
//! dev.heat_line(line, b"quarterly audit".to_vec(), 1_199_145_600)?;
//! assert!(dev.verify_line(line)?.is_intact());
//! // The line is read-only now.
//! assert!(dev.write_block(9, &[0u8; 512]).is_err());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::faults::RetryPolicy;
use crate::layout::{HashBlockPayload, PayloadError};
use crate::line::{Line, LineError};
use crate::tamper::{Evidence, TamperReport, VerifyOutcome};
use core::fmt;
use sero_codec::crc32::crc32;
use sero_codec::manchester::Scan;
use sero_crypto::{Digest, Sha256};
use sero_probe::device::ProbeDevice;
use sero_probe::sector::{DecodedSector, SectorError, SECTOR_DATA_BYTES};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Domain-separation tag for line digests.
const LINE_HASH_DOMAIN: &[u8] = b"SERO-line-v1";

/// Errors surfaced by the SERO device layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeroError {
    /// An underlying sector-level failure.
    Sector(SectorError),
    /// An invalid line description.
    Line(LineError),
    /// Magnetic access to a heated hash block — the protocol forbids
    /// reading electrical data magnetically.
    HashBlockAccess {
        /// The hash block address.
        pba: u64,
    },
    /// Write refused: the block belongs to a heated (read-only) line.
    ReadOnly {
        /// The protecting line.
        line: Line,
        /// The refused block.
        pba: u64,
    },
    /// The requested line overlaps an already heated line without being
    /// identical to it.
    OverlapsHeatedLine {
        /// The requested line.
        line: Line,
        /// The registered line it collides with.
        existing: Line,
    },
    /// A data block could not be read while computing the line hash.
    DataUnreadable {
        /// The failing block.
        pba: u64,
        /// The device error.
        source: SectorError,
    },
    /// Step 4 of the heat operation failed: the hash does not read back
    /// (conflicting earlier heat, damaged cells, …). The medium now carries
    /// the physical evidence.
    HeatVerifyFailed {
        /// The line being heated.
        line: Line,
        /// What the read-back produced.
        reason: String,
    },
    /// A magnetic write did not take on some dots — unexpected heat damage
    /// in a supposedly writable block.
    WriteDegraded {
        /// The block written.
        pba: u64,
        /// Number of dots that refused the write.
        unwritable_dots: usize,
    },
    /// A serialized scrub-state record failed to parse (bad magic,
    /// truncated, or CRC mismatch).
    BadScrubState {
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for SeroError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeroError::Sector(e) => write!(f, "sector error: {e}"),
            SeroError::Line(e) => write!(f, "line error: {e}"),
            SeroError::HashBlockAccess { pba } => {
                write!(
                    f,
                    "magnetic access to heated hash block {pba} violates the protocol"
                )
            }
            SeroError::ReadOnly { line, pba } => {
                write!(f, "block {pba} is read-only: protected by heated {line}")
            }
            SeroError::OverlapsHeatedLine { line, existing } => {
                write!(f, "{line} overlaps already heated {existing}")
            }
            SeroError::DataUnreadable { pba, source } => {
                write!(f, "data block {pba} unreadable while hashing: {source}")
            }
            SeroError::HeatVerifyFailed { line, reason } => {
                write!(f, "heat verification failed for {line}: {reason}")
            }
            SeroError::WriteDegraded {
                pba,
                unwritable_dots,
            } => {
                write!(
                    f,
                    "write to block {pba} degraded: {unwritable_dots} unwritable dots"
                )
            }
            SeroError::BadScrubState { reason } => {
                write!(f, "scrub state unusable: {reason}")
            }
        }
    }
}

impl std::error::Error for SeroError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SeroError::Sector(e) => Some(e),
            SeroError::Line(e) => Some(e),
            SeroError::DataUnreadable { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SectorError> for SeroError {
    fn from(e: SectorError) -> SeroError {
        SeroError::Sector(e)
    }
}

impl From<LineError> for SeroError {
    fn from(e: LineError) -> SeroError {
        SeroError::Line(e)
    }
}

/// Splits an address list into maximal runs of consecutive ascending
/// blocks, returned as `(start, count)` pairs in input order. The batch
/// I/O paths use this to turn scattered block lists into extent transfers.
///
/// # Examples
///
/// ```
/// use sero_core::device::contiguous_runs;
///
/// assert_eq!(contiguous_runs(&[4, 5, 6, 9, 10, 2]), vec![(4, 3), (9, 2), (2, 1)]);
/// assert!(contiguous_runs(&[]).is_empty());
/// ```
pub fn contiguous_runs(pbas: &[u64]) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &pba in pbas {
        match runs.last_mut() {
            Some((start, count)) if start.checked_add(*count) == Some(pba) => *count += 1,
            _ => runs.push((pba, 1)),
        }
    }
    runs
}

/// Lightweight foreground-load estimate, fed by the protocol block-I/O
/// paths ([`SeroDevice::read_block`], [`SeroDevice::write_block`] and
/// their batched forms) and read by scrub-budget controllers.
///
/// Each successful foreground request is one *arrival*; the probe keeps
/// exponentially weighted moving averages of the inter-arrival gap and of
/// the per-request busy time, both on the simulated device clock. Their
/// ratio is the observed utilisation, and `1 − utilisation` is the idle
/// fraction an adaptive scrub budget
/// ([`crate::fleet::AdaptiveBudget`]) may soak up. Verification traffic
/// (scrub's [`SeroDevice::verify_line`]) is deliberately *not* counted —
/// the scrub must never mistake its own load for foreground demand and
/// throttle itself into starvation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadProbe {
    arrivals: u64,
    last_arrival_ns: u128,
    ewma_gap_ns: u64,
    ewma_busy_ns: u64,
}

impl LoadProbe {
    /// EWMA weight: `new = (3·old + sample) / 4`, seeded by the first
    /// sample — the same quarter-weight the slice-cost estimator in
    /// [`crate::sched`] uses.
    fn ewma(old: u64, sample: u64) -> u64 {
        if old == 0 {
            sample
        } else {
            (3 * old + sample) / 4
        }
    }

    /// Records one foreground request spanning `[start_ns, end_ns]` on
    /// the device clock.
    pub(crate) fn note(&mut self, start_ns: u128, end_ns: u128) {
        if self.arrivals > 0 && start_ns > self.last_arrival_ns {
            let gap = (start_ns - self.last_arrival_ns) as u64;
            self.ewma_gap_ns = Self::ewma(self.ewma_gap_ns, gap);
        }
        self.ewma_busy_ns = Self::ewma(self.ewma_busy_ns, (end_ns - start_ns) as u64);
        self.last_arrival_ns = start_ns;
        self.arrivals += 1;
    }

    /// Foreground requests observed since attach.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// EWMA of the gap between consecutive foreground arrivals, device ns
    /// (`0` until two arrivals have been seen).
    pub fn ewma_gap_ns(&self) -> u64 {
        self.ewma_gap_ns
    }

    /// EWMA of per-request device busy time, ns (`0` before the first
    /// arrival).
    pub fn ewma_busy_ns(&self) -> u64 {
        self.ewma_busy_ns
    }

    /// Observed foreground utilisation in `[0, 1]`: EWMA busy time over
    /// EWMA inter-arrival gap. A device that has seen fewer than two
    /// arrivals reports `0.0` (idle until proven busy); a gap shorter
    /// than the work it delivers saturates at `1.0`.
    pub fn utilization(&self) -> f64 {
        if self.arrivals < 2 || self.ewma_gap_ns == 0 {
            return 0.0;
        }
        (self.ewma_busy_ns as f64 / self.ewma_gap_ns as f64).min(1.0)
    }
}

/// A registered heated line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineRecord {
    /// The heated line.
    pub line: Line,
    /// Heat timestamp from the payload.
    pub timestamp: u64,
    /// The digest burned into the hash block.
    pub digest: Digest,
    /// The scrub epoch this line was last verified in (`0` = never
    /// verified by a completed scrub pass — freshly heated or freshly
    /// rediscovered). Incremental scrubs use this to skip lines already
    /// covered by the last pass.
    pub verified_epoch: u64,
    /// Suspicious-activity flag: set when verification found tamper
    /// evidence or when a refused protocol access (write into the line,
    /// magnetic read of its hash block) touched it. Flagged lines are
    /// re-verified by every incremental scrub until a pass finds them
    /// intact.
    pub flagged: bool,
}

/// Result of a full-device registry rebuild.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistryScan {
    /// Lines recovered from valid hash blocks.
    pub lines_found: usize,
    /// Already-registered lines whose blocks the incremental scan skipped
    /// (always 0 for a full [`SeroDevice::rebuild_registry`]).
    pub lines_skipped: usize,
    /// Blocks whose electrical area is written but tampered or malformed —
    /// each one is standing evidence.
    pub suspicious_blocks: Vec<u64>,
    /// Pairs of discovered lines that overlap. Two valid hash payloads can
    /// only overlap if someone heated a line *inside* an existing one — the
    /// §5.1 splitting/coalescing attack — so every pair is evidence.
    pub overlapping_lines: Vec<(Line, Line)>,
}

/// Outcome of [`SeroDevice::import_scrub_state`]: how much persisted
/// scrub bookkeeping could actually be applied to the live registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubStateRestore {
    /// Records applied: the line is registered with the same coordinates
    /// and digest, so its epoch/flag were restored.
    pub restored: usize,
    /// Records whose line is registered but with a different digest (the
    /// line was replaced since the state was saved) — left unverified.
    pub stale: usize,
    /// Records naming lines the registry does not know — skipped.
    pub unknown: usize,
}

/// Capacity accounting of a SERO device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeroStats {
    /// Total blocks on the device.
    pub total_blocks: u64,
    /// Blocks inside heated (read-only) lines, hash blocks included.
    pub read_only_blocks: u64,
    /// Blocks still available for write-many use.
    pub wmrm_blocks: u64,
    /// Number of heated lines.
    pub heated_lines: usize,
}

/// Number of leading Manchester cells the registry pre-probe reads: hash
/// payloads are prefix-contiguous, so an all-blank prefix means a blank
/// block at a fraction of the full `ers` cost.
pub const REGISTRY_PREFIX_CELLS: usize = 16;

/// Magic framing a serialized scrub-state record ("SEPC").
const SCRUB_STATE_MAGIC: u32 = 0x53455043;

/// Version byte of the scrub-state record format.
const SCRUB_STATE_VERSION: u8 = 1;

/// A tamper-evident SERO storage device.
#[derive(Debug, Clone)]
pub struct SeroDevice {
    probe: ProbeDevice,
    registry: BTreeMap<u64, LineRecord>,
    /// Number of completed scrub passes (see [`crate::scrub`]); epoch `N`
    /// means `N` passes have finished since attach.
    scrub_epoch: u64,
    /// Foreground arrival/busy estimate for adaptive scrub budgets.
    load: LoadProbe,
    /// Bounded-retry policy for transient sector faults.
    retry: RetryPolicy,
    /// Blocks that exhausted their retries — suspect hardware the layers
    /// above must route around (see [`crate::faults`]).
    quarantined: BTreeSet<u64>,
}

impl SeroDevice {
    /// Wraps an existing probe device.
    pub fn new(probe: ProbeDevice) -> SeroDevice {
        SeroDevice {
            probe,
            registry: BTreeMap::new(),
            scrub_epoch: 0,
            load: LoadProbe::default(),
            retry: RetryPolicy::default(),
            quarantined: BTreeSet::new(),
        }
    }

    /// Convenience constructor: a default probe device with `blocks`
    /// 512-byte blocks.
    pub fn with_blocks(blocks: u64) -> SeroDevice {
        SeroDevice::new(ProbeDevice::builder().blocks(blocks).build())
    }

    /// Number of blocks.
    pub fn block_count(&self) -> u64 {
        self.probe.block_count()
    }

    /// The underlying probe device (clock, counters, medium inspection).
    pub fn probe(&self) -> &ProbeDevice {
        &self.probe
    }

    /// Mutable access to the underlying probe device.
    ///
    /// This deliberately bypasses every SERO protocol check — it is the
    /// §5 threat model's "connect it to a laptop with the appropriate
    /// interface". Normal clients never need it.
    pub fn probe_mut(&mut self) -> &mut ProbeDevice {
        &mut self.probe
    }

    /// The registered heated lines, in address order.
    pub fn heated_lines(&self) -> impl Iterator<Item = &LineRecord> {
        self.registry.values()
    }

    /// The heated line containing `pba`, if any is registered.
    pub fn line_of(&self, pba: u64) -> Option<Line> {
        self.registry
            .range(..=pba)
            .next_back()
            .map(|(_, r)| r.line)
            .filter(|l| l.contains(pba))
    }

    /// True when `pba` may no longer be written through the SERO protocol.
    pub fn is_read_only(&self, pba: u64) -> bool {
        self.line_of(pba).is_some()
    }

    /// Capacity accounting: how much of the device has aged into RO.
    pub fn stats(&self) -> SeroStats {
        let ro: u64 = self.registry.values().map(|r| r.line.len()).sum();
        SeroStats {
            total_blocks: self.block_count(),
            read_only_blocks: ro,
            wmrm_blocks: self.block_count() - ro,
            heated_lines: self.registry.len(),
        }
    }

    /// Number of completed scrub passes over this device.
    pub fn scrub_epoch(&self) -> u64 {
        self.scrub_epoch
    }

    /// The foreground-load estimate scrub-budget controllers read (see
    /// [`LoadProbe`]).
    #[must_use]
    pub fn load_probe(&self) -> &LoadProbe {
        &self.load
    }

    // --- fault tolerance --------------------------------------------------

    /// The bounded-retry policy in force for transient sector faults.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Replaces the retry policy (see [`crate::faults::RetryPolicy`]).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = RetryPolicy::attempts(policy.max_attempts);
    }

    /// Blocks that exhausted their retries, in address order.
    pub fn quarantined_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.quarantined.iter().copied()
    }

    /// Number of quarantined blocks.
    pub fn quarantined_count(&self) -> u64 {
        self.quarantined.len() as u64
    }

    /// True when `pba` has been quarantined.
    pub fn is_quarantined(&self, pba: u64) -> bool {
        self.quarantined.contains(&pba)
    }

    /// True when any block is quarantined — the trigger for the file
    /// system's degraded mode (serve reads and `Verify`, refuse writes).
    pub fn is_degraded(&self) -> bool {
        !self.quarantined.is_empty()
    }

    /// Clears `pba` from quarantine after out-of-band repair (or a scrub
    /// pass that found the region healthy again). Returns whether the
    /// block was quarantined.
    pub fn clear_quarantine(&mut self, pba: u64) -> bool {
        self.quarantined.remove(&pba)
    }

    /// Quarantines `pba` after exhausted retries: the block is recorded
    /// suspect and, if it lies inside a registered line, the line is
    /// flagged so the next incremental scrub chases it — the same delta
    /// refused protocol accesses feed.
    fn quarantine_block(&mut self, pba: u64) {
        self.quarantined.insert(pba);
        if let Some(line) = self.line_of(pba) {
            self.flag_line(line);
        }
    }

    /// Bounded re-read of `pba` after a first failure `first`: up to
    /// `retry.max_attempts` total tries, returning the first success or
    /// the last error. Each attempt pays its own seek — a retry is a real
    /// sled trip, not a free replay.
    fn retry_read(&mut self, pba: u64, first: SectorError) -> Result<DecodedSector, SectorError> {
        let mut last = first;
        for _ in 1..self.retry.max_attempts {
            match self.probe.mrs(pba) {
                Ok(sector) => return Ok(sector),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Bounded re-write of `pba` after a degraded first attempt reporting
    /// `first_dots` unwritable dots. Magnetic writes are idempotent, so a
    /// rewrite of the same data is safe; returns `Ok` once a clean report
    /// comes back, or the final [`SeroError::WriteDegraded`].
    fn retry_write(
        &mut self,
        pba: u64,
        data: &[u8; SECTOR_DATA_BYTES],
        first_dots: usize,
    ) -> Result<(), SeroError> {
        let mut dots = first_dots;
        for _ in 1..self.retry.max_attempts {
            match self.probe.mws(pba, data) {
                Ok(report) if report.unwritable_dots == 0 => return Ok(()),
                Ok(report) => dots = report.unwritable_dots,
                Err(e) => return Err(SeroError::Sector(e)),
            }
        }
        Err(SeroError::WriteDegraded {
            pba,
            unwritable_dots: dots,
        })
    }

    /// Marks `line` as suspicious: the next incremental scrub will
    /// re-verify it even though it was covered by the last pass. The
    /// protocol paths call this automatically on refused accesses; external
    /// monitors (an intrusion detector, the file system) may call it for
    /// anything else they find fishy. Returns whether a registered line was
    /// actually flagged.
    pub fn flag_line(&mut self, line: Line) -> bool {
        match self.registry.get_mut(&line.start()) {
            Some(record) if record.line == line => {
                record.flagged = true;
                true
            }
            _ => false,
        }
    }

    /// Stamps a line's scrub bookkeeping after a completed pass verified
    /// it: records the epoch and the (possibly cleared) suspicion flag.
    pub(crate) fn stamp_scrubbed(&mut self, line: Line, epoch: u64, flagged: bool) {
        if let Some(record) = self.registry.get_mut(&line.start()) {
            if record.line == line {
                record.verified_epoch = epoch;
                record.flagged = flagged;
            }
        }
    }

    /// Advances the completed-pass counter (called by the scrub controller
    /// when a pass finishes).
    pub(crate) fn complete_scrub_pass(&mut self, epoch: u64) {
        self.scrub_epoch = self.scrub_epoch.max(epoch);
    }

    /// Serializes the scrub bookkeeping — the completed-pass epoch plus
    /// every line's `verified_epoch`/`flagged` and a digest prefix to
    /// guard against replaced lines — into a self-checking byte record
    /// (magic ‖ version ‖ payload ‖ CRC-32).
    ///
    /// The registry itself is recovered from the *medium* (the hash-block
    /// payloads are physically self-describing), but those payloads are
    /// burned once and immutable, so the mutable scrub bookkeeping has to
    /// live elsewhere: `sero-fs` embeds this record in its rewritable
    /// WMRM checkpoint and feeds it back through
    /// [`SeroDevice::import_scrub_state`] after a remount, so the next
    /// incremental scrub resumes from the persisted delta instead of
    /// falling back to a full pass.
    ///
    /// The record is an *availability* optimization, not an integrity
    /// root: an attacker who forges it can at most delay re-verification
    /// of a line until the next [`crate::scrub::ScrubConfig::full_every`]
    /// full pass, exactly the window the incremental design already
    /// accepts.
    ///
    /// Only *informative* records are exported: a line with
    /// `verified_epoch == 0 && !flagged` is exactly what a registry
    /// rebuild produces anyway, so persisting it would say nothing.
    pub fn export_scrub_state(&self) -> Vec<u8> {
        self.export_scrub_state_capped(usize::MAX)
    }

    /// [`SeroDevice::export_scrub_state`] bounded to `max_bytes`: when
    /// the informative records do not all fit (a fixed checkpoint region,
    /// say), the export degrades by *dropping* records instead of
    /// overflowing — flagged lines are kept in preference to merely
    /// verified ones (losing a flag loses evidence-chasing state; losing
    /// a verified record merely costs one redundant re-verify), and a cap
    /// too small for even the empty record yields an empty `Vec` (no
    /// state; the next pass runs full).
    pub fn export_scrub_state_capped(&self, max_bytes: usize) -> Vec<u8> {
        const HEADER_BYTES: usize = 4 + 1 + 8 + 4;
        const RECORD_BYTES: usize = 8 + 1 + 8 + 1 + 8;
        const CRC_BYTES: usize = 4;
        if max_bytes < HEADER_BYTES + CRC_BYTES {
            return Vec::new();
        }
        let mut records: Vec<&LineRecord> = self
            .registry
            .values()
            .filter(|r| r.verified_epoch != 0 || r.flagged)
            .collect();
        let max_records = (max_bytes - HEADER_BYTES - CRC_BYTES) / RECORD_BYTES;
        if records.len() > max_records {
            records.sort_by_key(|r| (!r.flagged, r.line.start()));
            records.truncate(max_records);
            records.sort_by_key(|r| r.line.start());
        }
        let mut buf = Vec::with_capacity(HEADER_BYTES + records.len() * RECORD_BYTES + CRC_BYTES);
        buf.extend_from_slice(&SCRUB_STATE_MAGIC.to_le_bytes());
        buf.push(SCRUB_STATE_VERSION);
        buf.extend_from_slice(&self.scrub_epoch.to_le_bytes());
        buf.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for record in records {
            buf.extend_from_slice(&record.line.start().to_le_bytes());
            buf.push(record.line.order() as u8);
            buf.extend_from_slice(&record.verified_epoch.to_le_bytes());
            buf.push(record.flagged as u8);
            buf.extend_from_slice(&record.digest.as_bytes()[..8]);
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Applies a record produced by [`SeroDevice::export_scrub_state`] to
    /// the live registry: restores `verified_epoch`/`flagged` for every
    /// line still registered with the same coordinates and digest prefix,
    /// and advances the completed-pass epoch to the persisted value.
    /// Call *after* the registry is populated (mount's
    /// [`SeroDevice::refresh_registry`]); lines the record does not match
    /// stay unverified and are simply due in the next pass.
    ///
    /// # Errors
    ///
    /// [`SeroError::BadScrubState`] when the record is truncated, carries
    /// the wrong magic/version, or fails its CRC — the caller should
    /// treat that as "no usable state" and let the next pass run full.
    pub fn import_scrub_state(&mut self, bytes: &[u8]) -> Result<ScrubStateRestore, SeroError> {
        let bad = |reason: &str| SeroError::BadScrubState {
            reason: reason.to_string(),
        };
        if bytes.len() < 4 + 1 + 8 + 4 + 4 {
            return Err(bad("record truncated"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("4"));
        if crc32(body) != stored_crc {
            return Err(bad("crc mismatch"));
        }
        if u32::from_le_bytes(body[..4].try_into().expect("4")) != SCRUB_STATE_MAGIC {
            return Err(bad("bad magic"));
        }
        if body[4] != SCRUB_STATE_VERSION {
            return Err(bad("unknown version"));
        }
        let epoch = u64::from_le_bytes(body[5..13].try_into().expect("8"));
        let count = u32::from_le_bytes(body[13..17].try_into().expect("4")) as usize;
        const RECORD_BYTES: usize = 8 + 1 + 8 + 1 + 8;
        if body.len() != 17 + count * RECORD_BYTES {
            return Err(bad("length disagrees with record count"));
        }
        let mut restore = ScrubStateRestore::default();
        for i in 0..count {
            let at = 17 + i * RECORD_BYTES;
            let start = u64::from_le_bytes(body[at..at + 8].try_into().expect("8"));
            let order = body[at + 8] as u32;
            let verified_epoch = u64::from_le_bytes(body[at + 9..at + 17].try_into().expect("8"));
            let flagged = body[at + 17] != 0;
            let digest8 = &body[at + 18..at + 26];
            match self.registry.get_mut(&start) {
                Some(record) if record.line.order() == order => {
                    if &record.digest.as_bytes()[..8] == digest8 {
                        record.verified_epoch = verified_epoch;
                        record.flagged = record.flagged || flagged;
                        restore.restored += 1;
                    } else {
                        restore.stale += 1;
                    }
                }
                Some(_) => restore.stale += 1,
                None => restore.unknown += 1,
            }
        }
        self.scrub_epoch = self.scrub_epoch.max(epoch);
        Ok(restore)
    }

    /// Inserts or refreshes a registry record, preserving the scrub
    /// bookkeeping of an existing identical line (re-verifying a line must
    /// not reset its epoch; re-heating or replacing it must).
    fn register(&mut self, line: Line, timestamp: u64, digest: Digest, reset_epoch: bool) {
        let entry = self
            .registry
            .entry(line.start())
            .or_insert_with(|| LineRecord {
                line,
                timestamp,
                digest,
                verified_epoch: 0,
                flagged: false,
            });
        if entry.line != line || reset_epoch {
            entry.verified_epoch = 0;
            entry.flagged = false;
        }
        entry.line = line;
        entry.timestamp = timestamp;
        entry.digest = digest;
    }

    /// Reads a WMRM or heated-data block magnetically: a
    /// [`SeroDevice::read_blocks`] batch of one.
    ///
    /// # Errors
    ///
    /// [`SeroError::HashBlockAccess`] for registered hash blocks (the
    /// protocol requires `ers` there); the refused line is flagged for the
    /// next incremental scrub. Sector errors otherwise.
    pub fn read_block(&mut self, pba: u64) -> Result<[u8; SECTOR_DATA_BYTES], SeroError> {
        Ok(self.read_blocks(&[pba])?[0])
    }

    /// Writes a block magnetically: a [`SeroDevice::write_blocks`] batch of
    /// one.
    ///
    /// # Errors
    ///
    /// [`SeroError::ReadOnly`] inside heated lines (the refused line is
    /// flagged for the next incremental scrub — an attempted write into
    /// frozen data is exactly the activity a scrub should chase);
    /// [`SeroError::WriteDegraded`] when heat damage kept dots from
    /// accepting the write; sector errors otherwise.
    pub fn write_block(
        &mut self,
        pba: u64,
        data: &[u8; SECTOR_DATA_BYTES],
    ) -> Result<(), SeroError> {
        self.write_blocks(&[pba], std::slice::from_ref(data))
    }

    /// Refuses a line that runs past the end of the device.
    fn check_line(&self, line: Line) -> Result<(), SeroError> {
        if line.end() > self.block_count() {
            return Err(SeroError::Sector(SectorError::OutOfRange {
                pba: line.end() - 1,
                blocks: self.block_count(),
            }));
        }
        Ok(())
    }

    /// Refuses magnetic access to registered hash blocks, up front and
    /// before any I/O; the refused line is flagged for the next
    /// incremental scrub.
    fn refuse_hash_blocks(&mut self, pbas: &[u64]) -> Result<(), SeroError> {
        for &pba in pbas {
            if let Some(line) = self.line_of(pba) {
                if line.hash_block() == pba {
                    self.flag_line(line);
                    return Err(SeroError::HashBlockAccess { pba });
                }
            }
        }
        Ok(())
    }

    /// Streams the extent `[start, start + count)` into `sink`, one sector
    /// at a time. A failing block is retried alone; once it recovers it is
    /// delivered in place and the stream resumes right after it. A block
    /// whose retries run out is quarantined and handed to `lost`: an `Err`
    /// from `lost` stops the stream there, `Ok` carries on past the block.
    fn stream_extent(
        &mut self,
        start: u64,
        count: u64,
        mut sink: impl FnMut(u64, &[u8; SECTOR_DATA_BYTES]),
        mut lost: impl FnMut(u64, SectorError) -> Result<(), SeroError>,
    ) -> Result<(), SeroError> {
        let mut done = 0u64;
        while done < count {
            let mut failure: Option<(u64, SectorError)> = None;
            self.probe
                .read_block_runs_with(
                    &[(start + done, count - done)],
                    |pba, sector| match sector {
                        Ok(sector) => {
                            sink(pba, &sector.data);
                            true
                        }
                        Err(e) => {
                            failure = Some((pba, e));
                            false
                        }
                    },
                )?;
            let Some((pba, first)) = failure else {
                break;
            };
            done = pba - start + 1;
            match self.retry_read(pba, first) {
                Ok(sector) => sink(pba, &sector.data),
                Err(e) => {
                    self.quarantine_block(pba);
                    lost(pba, e)?;
                }
            }
        }
        Ok(())
    }

    /// Reads many blocks magnetically, batching consecutive addresses into
    /// extent transfers (one seek per run instead of one per block).
    ///
    /// The returned sectors are in `pbas` order. Addresses need not be
    /// sorted or contiguous; each maximal ascending run becomes one
    /// transfer. A faulting block is retried alone and the stream resumes
    /// after it; a block that exhausts its retries is quarantined.
    ///
    /// # Errors
    ///
    /// [`SeroError::HashBlockAccess`] if *any* requested block is a
    /// registered hash block (checked up front, before any I/O; the
    /// refused line is flagged for the next incremental scrub);
    /// a run past the end of the device fails with `OutOfRange` before it
    /// is read, quarantining nothing; a block that exhausts its retries
    /// aborts the batch with its sector error.
    pub fn read_blocks(&mut self, pbas: &[u64]) -> Result<Vec<[u8; SECTOR_DATA_BYTES]>, SeroError> {
        self.refuse_hash_blocks(pbas)?;
        let t0 = self.probe.clock().elapsed_ns();
        let mut out = Vec::with_capacity(pbas.len());
        for (start, count) in contiguous_runs(pbas) {
            self.stream_extent(
                start,
                count,
                |_, data| out.push(*data),
                |_, e| Err(SeroError::Sector(e)),
            )?;
        }
        // One batched request is one foreground arrival, however many
        // extents it spanned.
        self.load.note(t0, self.probe.clock().elapsed_ns());
        Ok(out)
    }

    /// Reads many blocks like [`SeroDevice::read_blocks`], but serves
    /// *all* the extent runs in one elevator sweep, in whichever
    /// direction starts nearer the sled: ascending, one head-of-batch
    /// seek then settle-free streaming over the gaps between runs; or
    /// descending, run by run from the top, so a batch that follows an
    /// ascending one needs no cross-span backtrack seek. Consecutive
    /// queue batches therefore alternate direction like a real elevator.
    /// This is the admission scheduler's coalesced-read path — callers
    /// pass the sorted, deduplicated union of a whole queue batch;
    /// sectors come back in `pbas` order either way.
    ///
    /// # Errors
    ///
    /// Same contract as [`SeroDevice::read_blocks`]: hash-block touches
    /// are refused (and flagged) up front; sector errors abort at the
    /// failing block.
    pub fn read_blocks_sweep(
        &mut self,
        pbas: &[u64],
    ) -> Result<Vec<[u8; SECTOR_DATA_BYTES]>, SeroError> {
        self.refuse_hash_blocks(pbas)?;
        let t0 = self.probe.clock().elapsed_ns();
        let runs = contiguous_runs(pbas);
        let descending = match (runs.first(), runs.last()) {
            (Some(&(first, _)), Some(&(last_start, last_len))) => {
                let pos = self.probe.position_block();
                pos.abs_diff(last_start + last_len - 1) < pos.abs_diff(first)
            }
            _ => false,
        };
        let mut by_pba: HashMap<u64, [u8; SECTOR_DATA_BYTES]> = HashMap::with_capacity(pbas.len());
        let mut failure: Option<(u64, SectorError)> = None;
        fn drain(
            by_pba: &mut HashMap<u64, [u8; SECTOR_DATA_BYTES]>,
            failure: &mut Option<(u64, SectorError)>,
            pba: u64,
            sector: Result<DecodedSector, SectorError>,
        ) -> bool {
            match sector {
                Ok(sector) => {
                    by_pba.insert(pba, sector.data);
                    true
                }
                Err(e) => {
                    *failure = Some((pba, e));
                    false
                }
            }
        }
        if descending {
            // Top-down: each run is its own short descent (a seek per
            // run, ascending streaming within it); total travel is one
            // span instead of a backtrack seek plus a full sweep.
            for run in runs.iter().rev() {
                self.probe
                    .read_block_runs_with(std::slice::from_ref(run), |pba, sector| {
                        drain(&mut by_pba, &mut failure, pba, sector)
                    })?;
                if failure.is_some() {
                    break;
                }
            }
        } else {
            self.probe.read_block_runs_with(&runs, |pba, sector| {
                drain(&mut by_pba, &mut failure, pba, sector)
            })?;
        }
        // Recovery: retry the failing block alone, then sweep whatever is
        // still missing (the aborted tail) in ascending runs. Only a block
        // that exhausts its retries aborts the batch, quarantined, as in
        // `read_blocks`.
        while let Some((pba, first)) = failure.take() {
            match self.retry_read(pba, first) {
                Ok(sector) => {
                    by_pba.insert(pba, sector.data);
                }
                Err(e) => {
                    self.quarantine_block(pba);
                    return Err(SeroError::Sector(e));
                }
            }
            let missing: Vec<u64> = pbas
                .iter()
                .copied()
                .filter(|p| !by_pba.contains_key(p))
                .collect();
            if missing.is_empty() {
                break;
            }
            self.probe
                .read_block_runs_with(&contiguous_runs(&missing), |pba, sector| {
                    drain(&mut by_pba, &mut failure, pba, sector)
                })?;
        }
        let out = pbas.iter().map(|p| by_pba[p]).collect();
        self.load.note(t0, self.probe.clock().elapsed_ns());
        Ok(out)
    }

    /// Writes many blocks magnetically, batching consecutive addresses
    /// into extent transfers. `data[i]` lands on `pbas[i]`.
    ///
    /// # Errors
    ///
    /// [`SeroError::ReadOnly`] if *any* target sits in a heated line
    /// (checked up front, before any block is written; the refused line is
    /// flagged for the next incremental scrub);
    /// [`SeroError::WriteDegraded`] at the first block that stays degraded
    /// past its retries (quarantined); sector errors otherwise.
    ///
    /// # Panics
    ///
    /// Panics when `pbas` and `data` differ in length — a caller bug, not
    /// a device condition.
    pub fn write_blocks(
        &mut self,
        pbas: &[u64],
        data: &[[u8; SECTOR_DATA_BYTES]],
    ) -> Result<(), SeroError> {
        assert_eq!(
            pbas.len(),
            data.len(),
            "write_blocks needs one sector per address"
        );
        for &pba in pbas {
            if let Some(line) = self.line_of(pba) {
                self.flag_line(line);
                return Err(SeroError::ReadOnly { line, pba });
            }
        }
        let t0 = self.probe.clock().elapsed_ns();
        let mut offset = 0usize;
        for (start, count) in contiguous_runs(pbas) {
            let count = count as usize;
            let run_data = &data[offset..offset + count];
            // Stream the run; a degraded block is rewritten alone (the
            // write is idempotent) and the stream resumes after it. Only
            // a block that stays degraded past its retries stops the
            // transfer — quarantined, trailing blocks untouched.
            let mut done = 0usize;
            while done < count {
                let mut degraded: Option<(u64, usize)> = None;
                self.probe.write_blocks_with(
                    start + done as u64,
                    &run_data[done..],
                    |pba, report| {
                        if report.unwritable_dots > 0 {
                            degraded = Some((pba, report.unwritable_dots));
                            return false;
                        }
                        true
                    },
                )?;
                match degraded {
                    None => break,
                    Some((pba, dots)) => {
                        done = (pba - start) as usize;
                        if let Err(e) = self.retry_write(pba, &run_data[done], dots) {
                            self.quarantine_block(pba);
                            return Err(e);
                        }
                        done += 1;
                    }
                }
            }
            offset += count;
        }
        // One batched request is one foreground arrival.
        self.load.note(t0, self.probe.clock().elapsed_ns());
        Ok(())
    }

    /// Computes the line digest: SHA-256 over a domain tag, the line
    /// coordinates, and each data block's physical address and contents —
    /// "a secure hash … of the blocks and their addresses" (§3).
    ///
    /// The data blocks are streamed through the hasher directly from the
    /// probe's extent read — one seek for the whole line, no intermediate
    /// per-block copies. A faulting block is retried alone and, on
    /// recovery, hashed in place so the digest stays position-exact.
    ///
    /// # Errors
    ///
    /// [`SeroError::DataUnreadable`] when a data block exhausts its retries
    /// (it is quarantined and the transfer stops there).
    pub fn compute_line_digest(&mut self, line: Line) -> Result<Digest, SeroError> {
        self.digest_line(line, |pba, source| {
            Err(SeroError::DataUnreadable { pba, source })
        })
    }

    /// Streams `line`'s data blocks through the line hash (see
    /// [`SeroDevice::compute_line_digest`]); a block that exhausts its
    /// retries is left out of the hash and handed to `lost`, as in
    /// `stream_extent`.
    fn digest_line(
        &mut self,
        line: Line,
        lost: impl FnMut(u64, SectorError) -> Result<(), SeroError>,
    ) -> Result<Digest, SeroError> {
        let mut hasher = Sha256::new();
        hasher.update(LINE_HASH_DOMAIN);
        hasher.update(&[line.order() as u8]);
        hasher.update(&line.start().to_le_bytes());
        self.stream_extent(
            line.start() + 1,
            line.len() - 1,
            |pba, data| {
                hasher.update(&pba.to_le_bytes());
                hasher.update(data);
            },
            lost,
        )?;
        Ok(hasher.finalize())
    }

    /// Heats `line`: the paper's atomic sequence — read, hash, burn,
    /// verify. On success the line is registered read-only and the payload
    /// is returned. This is a [`SeroDevice::heat_lines`] batch of one.
    ///
    /// Re-heating a line whose data is unchanged is harmless and
    /// idempotent; re-heating with changed data fails verification and
    /// leaves `HH` evidence on the medium.
    ///
    /// # Errors
    ///
    /// See [`SeroError`]; notably [`SeroError::OverlapsHeatedLine`] for
    /// straddling requests and [`SeroError::HeatVerifyFailed`] when the
    /// read-back check of step 4 fails.
    pub fn heat_line(
        &mut self,
        line: Line,
        metadata: Vec<u8>,
        timestamp: u64,
    ) -> Result<HashBlockPayload, SeroError> {
        self.heat_lines(vec![(line, metadata, timestamp)])
            .pop()
            .expect("one request, one result")
    }

    /// Verifies `line` against its heated hash.
    ///
    /// # Errors
    ///
    /// Only infrastructure failures (line out of range) are errors; every
    /// tamper finding is reported in the [`VerifyOutcome`].
    pub fn verify_line(&mut self, line: Line) -> Result<VerifyOutcome, SeroError> {
        self.check_line(line)?;
        let mut report = TamperReport::new(line);

        let scan = self.probe.ers(line.hash_block())?;
        let payload = match HashBlockPayload::from_scan(&scan) {
            Ok(p) => p,
            Err(PayloadError::Blank) => return Ok(VerifyOutcome::NotHeated),
            Err(PayloadError::Tampered { cells }) => {
                report.push(Evidence::TamperedHashCells { cells });
                self.flag_line(line);
                return Ok(VerifyOutcome::Tampered(report));
            }
            Err(e) => {
                report.push(Evidence::MalformedHashBlock {
                    reason: e.to_string(),
                });
                self.flag_line(line);
                return Ok(VerifyOutcome::Tampered(report));
            }
        };

        if payload.line() != line {
            report.push(Evidence::RelocatedPayload {
                claimed: payload.line(),
                actual: line,
            });
            self.flag_line(line);
            return Ok(VerifyOutcome::Tampered(report));
        }

        // Recompute the digest, collecting unreadable blocks as evidence.
        // A faulting block is retried alone before any evidence is minted —
        // a transient fault must not masquerade as tampering — and only a
        // block that exhausts its retries becomes `UnreadableDataBlock`
        // evidence (and quarantined hardware); the stream carries on past
        // it so every such block is reported.
        let computed = self.digest_line(line, |pba, e| {
            report.push(Evidence::UnreadableDataBlock {
                pba,
                reason: e.to_string(),
            });
            Ok(())
        })?;
        if report.is_tampered() {
            self.flag_line(line);
            return Ok(VerifyOutcome::Tampered(report));
        }
        if computed != *payload.digest() {
            report.push(Evidence::HashMismatch {
                stored: *payload.digest(),
                computed,
            });
            self.flag_line(line);
            return Ok(VerifyOutcome::Tampered(report));
        }

        // Verified: make sure the registry knows this line. An existing
        // record keeps its scrub epoch — a spot verify is not a pass.
        self.register(line, payload.timestamp(), computed, false);
        Ok(VerifyOutcome::Intact { payload })
    }

    /// Steps 1–2 of the heat protocol for one request: range and overlap
    /// validation, the streamed digest read, and payload assembly — no
    /// medium mutation yet.
    fn stage_heat(
        &mut self,
        line: Line,
        metadata: Vec<u8>,
        timestamp: u64,
    ) -> Result<HashBlockPayload, SeroError> {
        self.check_line(line)?;
        for record in self.registry.values() {
            if record.line.overlaps(&line) && record.line != line {
                return Err(SeroError::OverlapsHeatedLine {
                    line,
                    existing: record.line,
                });
            }
        }
        let digest = self.compute_line_digest(line)?;
        HashBlockPayload::new(line, digest, timestamp, metadata).map_err(|e| {
            SeroError::HeatVerifyFailed {
                line,
                reason: e.to_string(),
            }
        })
    }

    /// Steps 3–4 for a group of staged disjoint ascending requests: burn
    /// every hash block in one streaming [`sero_probe`] `ews_blocks` sweep,
    /// read them all back in one `ers_blocks_at` sweep, and register the
    /// survivors. Fills `results` at each staged request's index.
    fn flush_heat_batch(
        &mut self,
        staged: &mut Vec<(usize, Line, HashBlockPayload)>,
        results: &mut [Option<Result<HashBlockPayload, SeroError>>],
    ) {
        if staged.is_empty() {
            return;
        }
        let burns: Vec<(u64, Vec<bool>)> = staged
            .iter()
            .map(|(_, line, payload)| (line.hash_block(), payload.to_bits()))
            .collect();
        if let Err(e) = self.probe.ews_blocks(&burns) {
            for (i, _, _) in staged.drain(..) {
                results[i] = Some(Err(SeroError::Sector(e.clone())));
            }
            return;
        }
        let hash_blocks: Vec<u64> = staged
            .iter()
            .map(|(_, line, _)| line.hash_block())
            .collect();
        let scans = match self.probe.ers_blocks_at(&hash_blocks) {
            Ok(scans) => scans,
            Err(e) => {
                for (i, _, _) in staged.drain(..) {
                    results[i] = Some(Err(SeroError::Sector(e.clone())));
                }
                return;
            }
        };
        for ((i, line, payload), scan) in staged.drain(..).zip(scans) {
            results[i] = Some(match HashBlockPayload::from_scan(&scan) {
                Ok(read_back) if read_back == payload => {
                    self.register(line, payload.timestamp(), *payload.digest(), true);
                    Ok(payload)
                }
                Ok(read_back) => Err(SeroError::HeatVerifyFailed {
                    line,
                    reason: format!(
                        "read-back payload disagrees (heated at {} for {})",
                        read_back.timestamp(),
                        read_back.line()
                    ),
                }),
                Err(e) => Err(SeroError::HeatVerifyFailed {
                    line,
                    reason: e.to_string(),
                }),
            });
        }
    }

    /// Heats a batch of lines with the bulk electrical fast path, returning
    /// per-request results in request order.
    ///
    /// Consecutive requests whose lines are disjoint and ascending are
    /// *staged*: validated and digested first, then all their hash blocks
    /// are burned in one streaming `ews` sweep and read back in one
    /// streaming `ers` sweep, paying two sled trips for the whole group
    /// instead of two seeks per line. A request that is not strictly after
    /// the previous staged line flushes the group first, so outcomes and
    /// registry state match the serial [`SeroDevice::heat_line`] loop
    /// request for request. Bulk heats of many lines (the scrub and
    /// registry benchmarks) call this directly; every other producer heats
    /// one line at a time through [`SeroDevice::heat_line`], which is a
    /// batch of one.
    pub fn heat_lines(
        &mut self,
        requests: Vec<(Line, Vec<u8>, u64)>,
    ) -> Vec<Result<HashBlockPayload, SeroError>> {
        let mut results: Vec<Option<Result<HashBlockPayload, SeroError>>> =
            requests.iter().map(|_| None).collect();
        let mut staged: Vec<(usize, Line, HashBlockPayload)> = Vec::new();
        for (i, (line, metadata, timestamp)) in requests.into_iter().enumerate() {
            if staged
                .last()
                .is_some_and(|(_, prev, _)| line.start() < prev.end())
            {
                self.flush_heat_batch(&mut staged, &mut results);
            }
            match self.stage_heat(line, metadata, timestamp) {
                Ok(payload) => staged.push((i, line, payload)),
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        self.flush_heat_batch(&mut staged, &mut results);
        results
            .into_iter()
            .map(|r| r.expect("every request resolved"))
            .collect()
    }

    /// Physically shreds every block of `line` — the §8 retention
    /// mechanism: "physically destroy the expired data by precise local
    /// heating". The line's registry entry (if any) is retained: the shred
    /// leaves all-`HH` cells behind, so verification keeps reporting what
    /// happened rather than pretending the line never existed.
    ///
    /// # Errors
    ///
    /// Sector-level errors for out-of-range lines.
    pub fn shred_line(&mut self, line: Line) -> Result<(), SeroError> {
        self.check_line(line)?;
        for pba in line.blocks() {
            self.probe.shred(pba)?;
        }
        Ok(())
    }

    /// Scans one block's electrical area and decodes a payload if present.
    ///
    /// # Errors
    ///
    /// Sector-level errors only; payload findings are in the `Result`'s
    /// `Ok` layer.
    pub fn scan_block(
        &mut self,
        pba: u64,
    ) -> Result<Result<HashBlockPayload, PayloadError>, SeroError> {
        let scan = self.probe.ers(pba)?;
        Ok(HashBlockPayload::from_scan(&scan))
    }

    /// Drops every in-memory line record — simulating a restart (or an
    /// attacker clearing volatile state) without touching the medium. The
    /// physical truth is recoverable with
    /// [`SeroDevice::rebuild_registry`].
    pub fn forget_registry(&mut self) {
        self.registry.clear();
    }

    /// Rebuilds the registry from scratch by scanning every block — the
    /// recovery path after restart or after an attacker "clears the
    /// directory structure" (§5.2: a fsck-style scan recovers all heated
    /// files, slowly). The scan runs on the batched electrical fast path
    /// (see [`SeroDevice::refresh_registry`]).
    ///
    /// # Errors
    ///
    /// Propagates sector-level errors (out-of-range cannot occur here).
    pub fn rebuild_registry(&mut self) -> Result<RegistryScan, SeroError> {
        self.registry.clear();
        self.refresh_registry()
    }

    /// The per-block reference rebuild: [`SeroDevice::rebuild_registry`]
    /// with the one-seek-per-block crawl of
    /// [`SeroDevice::refresh_registry_crawl`]. Result-identical to the
    /// batched path but pays a full seek (and settle) per block —
    /// `exp_registry` benchmarks the two against each other and the
    /// property tests pin the equivalence. Built only for tests and under
    /// the `oracle` feature.
    ///
    /// # Errors
    ///
    /// Propagates sector-level errors (out-of-range cannot occur here).
    #[cfg(any(test, feature = "oracle"))]
    pub fn rebuild_registry_crawl(&mut self) -> Result<RegistryScan, SeroError> {
        self.registry.clear();
        self.refresh_registry_crawl()
    }

    /// Admits one fully scanned candidate head into the registry, or files
    /// it as evidence. Shared by the batched and crawl scan paths so their
    /// results cannot drift apart.
    fn admit_scanned_block(
        &mut self,
        pba: u64,
        payload: Result<HashBlockPayload, PayloadError>,
        result: &mut RegistryScan,
    ) {
        match payload {
            Ok(payload) => {
                // Trust only payloads physically located at their own
                // hash block and describing a line that fits the
                // device — a forged payload claiming a line that runs
                // off the end could otherwise poison the registry and
                // error every later scrub.
                if payload.line().hash_block() == pba && payload.line().end() <= self.block_count()
                {
                    self.register(payload.line(), payload.timestamp(), *payload.digest(), true);
                    result.lines_found += 1;
                } else {
                    result.suspicious_blocks.push(pba);
                }
            }
            Err(PayloadError::Blank) => {}
            Err(_) => result.suspicious_blocks.push(pba),
        }
    }

    /// Flags every overlapping pair of registered lines as
    /// splitting/coalescing evidence — overlapping valid lines are
    /// physically impossible through the protocol.
    fn collect_overlaps(&self, result: &mut RegistryScan) {
        let lines: Vec<Line> = self.registry.values().map(|r| r.line).collect();
        for (i, a) in lines.iter().enumerate() {
            for b in lines.iter().skip(i + 1) {
                if a.overlaps(b) {
                    result.overlapping_lines.push((*a, *b));
                }
            }
        }
    }

    /// Incrementally refreshes the registry on the batched electrical fast
    /// path: blocks covered by already-registered lines are skipped
    /// outright (their hash payloads were validated when they entered the
    /// registry), and each remaining WMRM gap is *sieved* in one
    /// settle-free sweep ([`sero_probe`]'s `ers_sieve_blocks_with`): one
    /// seek per gap, a prefix probe per block, and candidate heads
    /// escalated to a full scan on the spot — the sled is already on their
    /// track, so no second sweep and no re-seek. On a mostly-blank device
    /// this cuts the dominant per-block cost from seek + settle + probe to
    /// step + probe (`BENCH_registry.json` tracks the ratio); on a
    /// populated registry it additionally shrinks the scan to the unheated
    /// remainder — the mount-time fast path.
    ///
    /// # Errors
    ///
    /// Propagates sector-level errors (out-of-range cannot occur here).
    pub fn refresh_registry(&mut self) -> Result<RegistryScan, SeroError> {
        let mut result = RegistryScan::default();
        // Snapshot the lines known *before* the scan: only those may be
        // skipped. Lines discovered during this scan get their interior
        // blocks probed exactly like a full rebuild would, so rebuild ≡
        // clear + refresh.
        let known: Vec<Line> = self.registry.values().map(|r| r.line).collect();
        let mut next_known = known.iter().copied().peekable();

        // Pure bookkeeping first: split the device into known-line skips
        // and unknown gaps, walking exactly like the reference crawl.
        let mut gaps: Vec<(u64, u64)> = Vec::new();
        let mut gap_start = 0u64;
        let mut pba = 0u64;
        while pba < self.block_count() {
            while next_known.peek().is_some_and(|l| l.end() <= pba) {
                next_known.next();
            }
            match next_known.peek() {
                Some(&line) if line.contains(pba) => {
                    if pba > gap_start {
                        gaps.push((gap_start, pba - gap_start));
                    }
                    result.lines_skipped += 1;
                    pba = line.end();
                    gap_start = pba;
                    next_known.next();
                }
                Some(&line) => pba = line.start().min(self.block_count()),
                None => pba = self.block_count(),
            }
        }
        if self.block_count() > gap_start {
            gaps.push((gap_start, self.block_count() - gap_start));
        }

        // One streamed sieve per gap: payloads are prefix-contiguous, so a
        // block whose first cells are all blank cannot be a line head (and
        // a tampered head shows up in the prefix too). Candidates are
        // escalated to a full scan on the spot — the sled is already on
        // their track — so the whole gap costs one seek plus one sweep.
        let mut full_scans: Vec<(u64, Scan)> = Vec::new();
        for &(start, count) in &gaps {
            self.probe.ers_sieve_blocks_with(
                start,
                count,
                REGISTRY_PREFIX_CELLS,
                |_, prefix| prefix.blank_cells().len() != REGISTRY_PREFIX_CELLS,
                |pba, scan| full_scans.push((pba, scan)),
            )?;
        }
        for (pba, scan) in full_scans {
            self.admit_scanned_block(pba, HashBlockPayload::from_scan(&scan), &mut result);
        }
        self.collect_overlaps(&mut result);
        Ok(result)
    }

    /// The per-block reference refresh: identical decisions to
    /// [`SeroDevice::refresh_registry`], but every pre-probe and candidate
    /// scan pays its own full seek. Kept as the benchmark baseline and the
    /// property-test oracle for the batched path, so it is built only for
    /// tests and under the `oracle` feature.
    ///
    /// # Errors
    ///
    /// Propagates sector-level errors (out-of-range cannot occur here).
    #[cfg(any(test, feature = "oracle"))]
    pub fn refresh_registry_crawl(&mut self) -> Result<RegistryScan, SeroError> {
        let mut result = RegistryScan::default();
        let known: Vec<Line> = self.registry.values().map(|r| r.line).collect();
        let mut next_known = known.iter().copied().peekable();

        let mut pba = 0u64;
        while pba < self.block_count() {
            while next_known.peek().is_some_and(|l| l.end() <= pba) {
                next_known.next();
            }
            if let Some(&line) = next_known.peek() {
                if line.contains(pba) {
                    result.lines_skipped += 1;
                    pba = line.end();
                    next_known.next();
                    continue;
                }
            }
            let prefix = self.probe.ers_cells(pba, REGISTRY_PREFIX_CELLS)?;
            if prefix.blank_cells().len() == REGISTRY_PREFIX_CELLS {
                pba += 1;
                continue;
            }
            let payload = self.scan_block(pba)?;
            self.admit_scanned_block(pba, payload, &mut result);
            pba += 1;
        }
        self.collect_overlaps(&mut result);
        Ok(result)
    }
}

/// The identity lend, so [`crate::fleet::FleetScheduler`] drives bare
/// devices and anything wrapping one through the same loop.
impl AsMut<SeroDevice> for SeroDevice {
    fn as_mut(&mut self) -> &mut SeroDevice {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_device(blocks: u64) -> SeroDevice {
        let mut dev = SeroDevice::with_blocks(blocks);
        for pba in 0..blocks {
            dev.write_block(pba, &[pba as u8; SECTOR_DATA_BYTES])
                .unwrap();
        }
        dev
    }

    const T0: u64 = 1_199_145_600; // 2008-01-01

    #[test]
    fn heat_then_verify_intact() {
        let mut dev = filled_device(16);
        let line = Line::new(8, 2).unwrap();
        let payload = dev.heat_line(line, b"meta".to_vec(), T0).unwrap();
        assert_eq!(payload.line(), line);
        let outcome = dev.verify_line(line).unwrap();
        assert!(outcome.is_intact(), "{outcome:?}");
        assert_eq!(dev.stats().read_only_blocks, 4);
        assert_eq!(dev.stats().heated_lines, 1);
    }

    #[test]
    fn data_blocks_still_readable_after_heat() {
        // §3: "Blocks 1..2^N−1 of a heated line can still be read
        // magnetically, hence efficiently, and as often as needed."
        let mut dev = filled_device(16);
        let line = Line::new(4, 2).unwrap();
        dev.heat_line(line, vec![], T0).unwrap();
        for pba in line.data_blocks() {
            assert_eq!(dev.read_block(pba).unwrap(), [pba as u8; 512]);
        }
    }

    #[test]
    fn hash_block_magnetic_access_forbidden() {
        let mut dev = filled_device(8);
        let line = Line::new(0, 2).unwrap();
        dev.heat_line(line, vec![], T0).unwrap();
        assert!(matches!(
            dev.read_block(0),
            Err(SeroError::HashBlockAccess { pba: 0 })
        ));
    }

    #[test]
    fn heated_line_is_read_only() {
        let mut dev = filled_device(8);
        let line = Line::new(4, 2).unwrap();
        dev.heat_line(line, vec![], T0).unwrap();
        for pba in line.blocks() {
            assert!(dev.is_read_only(pba));
            assert!(matches!(
                dev.write_block(pba, &[0u8; 512]),
                Err(SeroError::ReadOnly { .. })
            ));
        }
        assert!(!dev.is_read_only(3));
        dev.write_block(3, &[9u8; 512]).unwrap();
    }

    #[test]
    fn reheat_unchanged_line_is_idempotent() {
        let mut dev = filled_device(8);
        let line = Line::new(0, 2).unwrap();
        let first = dev.heat_line(line, b"m".to_vec(), T0).unwrap();
        let second = dev.heat_line(line, b"m".to_vec(), T0).unwrap();
        assert_eq!(first, second);
        assert!(dev.verify_line(line).unwrap().is_intact());
    }

    #[test]
    fn reheat_with_different_metadata_fails_and_marks() {
        let mut dev = filled_device(8);
        let line = Line::new(0, 2).unwrap();
        dev.heat_line(line, b"original".to_vec(), T0).unwrap();
        let err = dev
            .heat_line(line, b"rewrite!".to_vec(), T0 + 5)
            .unwrap_err();
        assert!(matches!(err, SeroError::HeatVerifyFailed { .. }));
        // The conflicting heat left HH cells behind.
        let outcome = dev.verify_line(line).unwrap();
        let report = outcome.report().expect("tampered");
        assert!(report
            .evidence()
            .iter()
            .any(|e| e.kind() == "hash-cells-HH"));
    }

    #[test]
    fn overlapping_heat_rejected() {
        let mut dev = filled_device(16);
        dev.heat_line(Line::new(0, 3).unwrap(), vec![], T0).unwrap();
        let err = dev
            .heat_line(Line::new(4, 2).unwrap(), vec![], T0)
            .unwrap_err();
        assert!(matches!(err, SeroError::OverlapsHeatedLine { .. }));
    }

    #[test]
    fn verify_detects_magnetic_data_rewrite() {
        // §5.1 "mwb inode/data": changing magnetically written data is
        // detected by the verify operation.
        let mut dev = filled_device(16);
        let line = Line::new(8, 2).unwrap();
        dev.heat_line(line, vec![], T0).unwrap();
        // The attacker bypasses the SERO layer and rewrites block 9 via the
        // raw probe device.
        dev.probe_mut().mws(9, &[0xEE; 512]).unwrap();
        let outcome = dev.verify_line(line).unwrap();
        let report = outcome.report().expect("tampered");
        assert!(report
            .evidence()
            .iter()
            .any(|e| e.kind() == "hash-mismatch"));
    }

    #[test]
    fn verify_not_heated_for_blank_line() {
        let mut dev = filled_device(8);
        let line = Line::new(4, 2).unwrap();
        assert_eq!(dev.verify_line(line).unwrap(), VerifyOutcome::NotHeated);
    }

    #[test]
    fn out_of_range_line_rejected() {
        let mut dev = filled_device(8);
        let line = Line::new(8, 2).unwrap();
        assert!(dev.heat_line(line, vec![], T0).is_err());
        assert!(dev.verify_line(line).is_err());
    }

    #[test]
    fn registry_rebuild_recovers_lines() {
        let mut dev = filled_device(32);
        let lines = [
            Line::new(0, 2).unwrap(),
            Line::new(8, 3).unwrap(),
            Line::new(24, 1).unwrap(),
        ];
        for (i, &line) in lines.iter().enumerate() {
            dev.heat_line(line, format!("line-{i}").into_bytes(), T0 + i as u64)
                .unwrap();
        }
        // Simulate restart: forget everything.
        dev.registry.clear();
        assert!(!dev.is_read_only(0));
        let scan = dev.rebuild_registry().unwrap();
        assert_eq!(scan.lines_found, 3);
        assert!(scan.suspicious_blocks.is_empty());
        for line in lines {
            assert!(dev.is_read_only(line.start()));
            assert!(dev.verify_line(line).unwrap().is_intact());
        }
    }

    #[test]
    fn out_of_range_reads_never_degrade_the_device() {
        let mut dev = SeroDevice::with_blocks(64);
        for result in [dev.read_block(64), dev.read_blocks(&[64]).map(|v| v[0])] {
            assert!(matches!(
                result,
                Err(SeroError::Sector(SectorError::OutOfRange { pba: 64, .. }))
            ));
        }
        assert_eq!(dev.quarantined_count(), 0, "no block 64 to quarantine");
        assert!(!dev.is_degraded());
    }

    #[test]
    fn line_of_finds_containing_line() {
        let mut dev = filled_device(16);
        let line = Line::new(8, 3).unwrap();
        dev.heat_line(line, vec![], T0).unwrap();
        assert_eq!(dev.line_of(8), Some(line));
        assert_eq!(dev.line_of(15), Some(line));
        assert_eq!(dev.line_of(7), None);
        assert_eq!(dev.line_of(0), None);
    }

    #[test]
    fn stats_track_aging() {
        // §8: "over the lifetime of the device, the read/write area
        // gradually shrinks".
        let mut dev = filled_device(32);
        assert_eq!(dev.stats().wmrm_blocks, 32);
        dev.heat_line(Line::new(0, 3).unwrap(), vec![], T0).unwrap();
        assert_eq!(dev.stats().wmrm_blocks, 24);
        dev.heat_line(Line::new(16, 3).unwrap(), vec![], T0)
            .unwrap();
        assert_eq!(dev.stats().wmrm_blocks, 16);
        assert_eq!(dev.stats().read_only_blocks, 16);
    }

    #[test]
    fn error_display_nonempty() {
        let line = Line::new(0, 1).unwrap();
        for e in [
            SeroError::HashBlockAccess { pba: 1 },
            SeroError::ReadOnly { line, pba: 1 },
            SeroError::OverlapsHeatedLine {
                line,
                existing: line,
            },
            SeroError::HeatVerifyFailed {
                line,
                reason: "x".into(),
            },
            SeroError::WriteDegraded {
                pba: 0,
                unwritable_dots: 3,
            },
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn torn_heat_is_recoverable_by_reheating() {
        // Power loss mid-heat: only a prefix of the payload's cells were
        // burned. Because heating identical cells is idempotent, re-running
        // the heat with unchanged data completes the pattern and the line
        // verifies — the operation is crash-safe.
        let mut dev = filled_device(8);
        let line = Line::new(0, 2).unwrap();
        let digest = dev.compute_line_digest(line).unwrap();
        let payload =
            crate::layout::HashBlockPayload::new(line, digest, T0, b"meta".to_vec()).unwrap();
        let bits = payload.to_bits();

        // The torn write: only the first 40% of the cells land.
        let partial = &bits[..bits.len() * 2 / 5];
        dev.probe_mut().ews(line.hash_block(), partial).unwrap();

        // Before recovery the block reads as malformed (torn) — evidence,
        // not a valid line.
        match dev.scan_block(0).unwrap() {
            Err(crate::layout::PayloadError::Malformed { .. }) => {}
            other => panic!("torn heat should scan malformed, got {other:?}"),
        }

        // Recovery: run the same heat again (same data, same timestamp,
        // same metadata). Prefix cells re-heat idempotently.
        let healed = dev.heat_line(line, b"meta".to_vec(), T0).unwrap();
        assert_eq!(healed, payload);
        assert!(dev.verify_line(line).unwrap().is_intact());
    }

    #[test]
    fn torn_heat_with_changed_data_still_fails_loudly() {
        // If the data changed between the torn heat and the retry, the
        // retry conflicts with the burned prefix and leaves HH evidence.
        let mut dev = filled_device(8);
        let line = Line::new(0, 2).unwrap();
        let digest = dev.compute_line_digest(line).unwrap();
        let payload = crate::layout::HashBlockPayload::new(line, digest, T0, vec![]).unwrap();
        let bits = payload.to_bits();
        dev.probe_mut()
            .ews(line.hash_block(), &bits[..bits.len() / 2])
            .unwrap();

        // Data block rewritten before the retry.
        dev.probe_mut().mws(1, &[0xCC; 512]).unwrap();
        let err = dev.heat_line(line, vec![], T0).unwrap_err();
        assert!(matches!(err, SeroError::HeatVerifyFailed { .. }));
        let outcome = dev.verify_line(line).unwrap();
        assert!(outcome.is_tampered());
    }

    #[test]
    fn batch_read_matches_single_block_loop() {
        let mut dev = filled_device(32);
        dev.heat_line(Line::new(8, 2).unwrap(), vec![], T0).unwrap();
        // A scattered list spanning a heated-line boundary (data blocks of
        // the heated line are still magnetically readable).
        let pbas = [2u64, 3, 4, 9, 10, 11, 20, 7];
        let batch = dev.read_blocks(&pbas).unwrap();
        let mut serial = dev.clone();
        for (i, &pba) in pbas.iter().enumerate() {
            assert_eq!(batch[i], serial.read_block(pba).unwrap(), "pba {pba}");
        }
    }

    #[test]
    fn batch_read_refuses_hash_block_upfront() {
        let mut dev = filled_device(16);
        dev.heat_line(Line::new(4, 2).unwrap(), vec![], T0).unwrap();
        let before = dev.probe().counters().mrs;
        let err = dev.read_blocks(&[0, 1, 4]).unwrap_err();
        assert!(matches!(err, SeroError::HashBlockAccess { pba: 4 }));
        assert_eq!(dev.probe().counters().mrs, before, "no I/O before refusal");
    }

    #[test]
    fn batch_write_round_trips_and_respects_read_only() {
        let mut dev = filled_device(16);
        let pbas = [2u64, 3, 4, 8];
        let data: Vec<[u8; SECTOR_DATA_BYTES]> = (0..4)
            .map(|i| [0xA0 + i as u8; SECTOR_DATA_BYTES])
            .collect();
        dev.write_blocks(&pbas, &data).unwrap();
        for (i, &pba) in pbas.iter().enumerate() {
            assert_eq!(dev.read_block(pba).unwrap(), data[i]);
        }
        dev.heat_line(Line::new(8, 1).unwrap(), vec![], T0).unwrap();
        let err = dev.write_blocks(&[2, 9], &data[..2]).unwrap_err();
        assert!(matches!(err, SeroError::ReadOnly { pba: 9, .. }));
        // The up-front check means block 2 was not touched either.
        assert_eq!(dev.read_block(2).unwrap(), data[0]);
    }

    #[test]
    fn batch_write_stops_at_first_degraded_block() {
        let mut dev = filled_device(16);
        // Vandalise a few dots of block 5's data area so a magnetic write
        // reports unwritable dots there (no heated line registered).
        for k in 0..4 {
            let dot = dev.probe().block_first_dot(5)
                + sero_probe::sector::DATA_AREA_FIRST_DOT as u64
                + k * 16;
            dev.probe_mut().ewb(dot);
        }
        let data: Vec<[u8; SECTOR_DATA_BYTES]> = (0..3)
            .map(|i| [0xC0 + i as u8; SECTOR_DATA_BYTES])
            .collect();
        let err = dev.write_blocks(&[4, 5, 6], &data).unwrap_err();
        assert!(matches!(err, SeroError::WriteDegraded { pba: 5, .. }));
        // The block before the failure was written; the block after was
        // not touched — exactly where the single-block loop would stop.
        assert_eq!(dev.read_block(4).unwrap(), data[0]);
        assert_eq!(dev.read_block(6).unwrap(), [6u8; SECTOR_DATA_BYTES]);
    }

    #[test]
    fn heat_lines_batch_verifies_line_by_line() {
        let mut dev = filled_device(32);
        let lines = [Line::new(0, 2).unwrap(), Line::new(8, 2).unwrap()];
        let results = dev.heat_lines(vec![
            (lines[0], b"a".to_vec(), T0),
            (lines[1], b"b".to_vec(), T0 + 1),
        ]);
        assert!(results.iter().all(|r| r.is_ok()));
        for line in lines {
            assert!(dev.verify_line(line).unwrap().is_intact());
        }
        // Tamper one line; only it flips.
        dev.probe_mut().mws(9, &[0xEE; 512]).unwrap();
        assert!(dev.verify_line(lines[0]).unwrap().is_intact());
        assert!(dev.verify_line(lines[1]).unwrap().is_tampered());
    }

    #[test]
    fn refresh_registry_skips_known_lines() {
        let mut dev = filled_device(64);
        let lines = [Line::new(0, 3).unwrap(), Line::new(16, 3).unwrap()];
        for &line in &lines {
            dev.heat_line(line, vec![], T0).unwrap();
        }
        // Full rebuild cost from scratch.
        let mut cold = dev.clone();
        cold.registry.clear();
        let erb_before = cold.probe().counters().erb;
        let scan = cold.rebuild_registry().unwrap();
        assert_eq!((scan.lines_found, scan.lines_skipped), (2, 0));
        let full_cost = cold.probe().counters().erb - erb_before;

        // Incremental refresh on the populated registry.
        let erb_before = dev.probe().counters().erb;
        let scan = dev.refresh_registry().unwrap();
        assert_eq!((scan.lines_found, scan.lines_skipped), (0, 2));
        let incr_cost = dev.probe().counters().erb - erb_before;
        assert!(
            incr_cost < full_cost,
            "incremental {incr_cost} erb should be below full {full_cost}"
        );
        // The registry still knows both lines and they still verify.
        for line in lines {
            assert!(dev.verify_line(line).unwrap().is_intact());
        }
    }

    #[test]
    fn refresh_registry_discovers_new_lines() {
        let mut dev = filled_device(32);
        dev.heat_line(Line::new(0, 2).unwrap(), vec![], T0).unwrap();
        dev.refresh_registry().unwrap();
        // A second line heated behind the registry's back (e.g. via a
        // clone that was written elsewhere).
        let mut other = dev.clone();
        other.registry.clear();
        other
            .heat_line(Line::new(16, 2).unwrap(), vec![], T0)
            .unwrap();
        *dev.probe_mut() = other.probe().clone();
        let scan = dev.refresh_registry().unwrap();
        assert_eq!((scan.lines_found, scan.lines_skipped), (1, 1));
        assert!(dev.is_read_only(16));
    }

    #[test]
    fn contiguous_runs_splits_correctly() {
        assert_eq!(contiguous_runs(&[1, 2, 3]), vec![(1, 3)]);
        assert_eq!(contiguous_runs(&[3, 2, 1]), vec![(3, 1), (2, 1), (1, 1)]);
        assert_eq!(contiguous_runs(&[5]), vec![(5, 1)]);
        assert_eq!(contiguous_runs(&[7, 8, 8]), vec![(7, 2), (8, 1)]);
        // Pointers near the address-space end must not overflow the
        // run-extension arithmetic.
        assert_eq!(contiguous_runs(&[u64::MAX, 0]), vec![(u64::MAX, 1), (0, 1)]);
    }

    #[test]
    fn registry_rejects_payload_overrunning_device() {
        // 80-block device; an attacker burns a well-formed payload at the
        // aligned block 64 claiming an order-5 line (64..96, overruns).
        let mut dev = filled_device(80);
        let line = Line::new(64, 5).unwrap();
        let payload = HashBlockPayload::new(line, digest_of(b"forged"), T0, vec![]).unwrap();
        dev.probe_mut().ews(64, &payload.to_bits()).unwrap();

        let scan = dev.rebuild_registry().unwrap();
        assert_eq!(scan.lines_found, 0, "overrunning line must not register");
        assert!(scan.suspicious_blocks.contains(&64));
        assert!(!dev.is_read_only(64));
    }

    fn digest_of(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    #[test]
    fn batched_rebuild_matches_crawl_with_forged_and_shredded_blocks() {
        let mut dev = filled_device(80);
        for (i, &(start, order)) in [(0u64, 2u32), (16, 3), (40, 1)].iter().enumerate() {
            dev.heat_line(Line::new(start, order).unwrap(), vec![i as u8], T0)
                .unwrap();
        }
        // A forged payload claiming a line that overruns the 80-block
        // device (64..96)…
        let forged = Line::new(64, 5).unwrap();
        let payload = HashBlockPayload::new(forged, digest_of(b"forged"), T0, vec![]).unwrap();
        dev.probe_mut().ews(64, &payload.to_bits()).unwrap();
        // …and a shredded block (all-HH evidence).
        dev.probe_mut().shred(70).unwrap();

        let mut crawl_dev = dev.clone();
        let batched = dev.rebuild_registry().unwrap();
        let crawl = crawl_dev.rebuild_registry_crawl().unwrap();
        assert_eq!(batched, crawl, "batched scan diverged from the crawl");
        assert_eq!(batched.lines_found, 3);
        assert_eq!(batched.suspicious_blocks, vec![64, 70]);
        assert_eq!(
            dev.registry, crawl_dev.registry,
            "identical registries either way"
        );
    }

    #[test]
    fn batched_rebuild_is_cheaper_than_crawl() {
        let mut dev = filled_device(128);
        dev.heat_line(Line::new(0, 3).unwrap(), vec![], T0).unwrap();
        let mut crawl_dev = dev.clone();

        let t0 = dev.probe().clock().elapsed_ns();
        dev.rebuild_registry().unwrap();
        let batched_ns = dev.probe().clock().elapsed_ns() - t0;

        let t0 = crawl_dev.probe().clock().elapsed_ns();
        crawl_dev.rebuild_registry_crawl().unwrap();
        let crawl_ns = crawl_dev.probe().clock().elapsed_ns() - t0;

        assert!(
            batched_ns * 3 < crawl_ns,
            "batched {batched_ns} ns should beat the crawl {crawl_ns} ns by >3x"
        );
    }

    #[test]
    fn batched_heat_lines_matches_serial_heat_line() {
        let mut batch_dev = filled_device(64);
        let mut serial_dev = batch_dev.clone();
        let lines = [
            Line::new(0, 2).unwrap(),
            Line::new(8, 3).unwrap(),
            Line::new(32, 2).unwrap(),
        ];
        let requests: Vec<(Line, Vec<u8>, u64)> = lines
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, vec![i as u8], T0 + i as u64))
            .collect();

        let batched = batch_dev.heat_lines(requests.clone());
        let serial: Vec<_> = requests
            .into_iter()
            .map(|(l, m, t)| serial_dev.heat_line(l, m, t))
            .collect();
        assert_eq!(batched, serial);
        assert_eq!(batch_dev.registry, serial_dev.registry);
        // The batch paid two sweeps (burn + read-back) instead of two
        // seeks per line, on top of one digest extent read per line.
        assert!(batch_dev.probe().counters().seeks < serial_dev.probe().counters().seeks);
        for &line in &lines {
            assert!(batch_dev.verify_line(line).unwrap().is_intact());
        }
    }

    #[test]
    fn heat_lines_flushes_on_non_ascending_and_overlapping_requests() {
        let mut dev = filled_device(64);
        let a = Line::new(8, 2).unwrap();
        let inside_a = Line::new(8, 1).unwrap();
        let before_a = Line::new(0, 2).unwrap();
        let results = dev.heat_lines(vec![
            (a, vec![], T0),
            (inside_a, vec![], T0), // overlaps the just-staged line
            (before_a, vec![], T0), // non-ascending, forces its own group
        ]);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(SeroError::OverlapsHeatedLine { .. })
        ));
        assert!(results[2].is_ok());
        assert!(dev.verify_line(a).unwrap().is_intact());
        assert!(dev.verify_line(before_a).unwrap().is_intact());
    }

    #[test]
    fn refused_accesses_flag_the_line() {
        let mut dev = filled_device(32);
        let line = Line::new(8, 2).unwrap();
        dev.heat_line(line, vec![], T0).unwrap();
        assert!(!dev.heated_lines().next().unwrap().flagged);

        assert!(dev.write_block(9, &[0u8; 512]).is_err());
        assert!(dev.heated_lines().next().unwrap().flagged);

        // flag_line is also the external-monitor hook.
        let mut fresh = filled_device(32);
        fresh.heat_line(line, vec![], T0).unwrap();
        assert!(fresh.read_block(line.hash_block()).is_err());
        assert!(fresh.heated_lines().next().unwrap().flagged);
        assert!(!fresh.flag_line(Line::new(0, 1).unwrap()), "unregistered");
    }

    #[test]
    fn scrub_state_round_trips_across_forget_and_rebuild() {
        let mut dev = filled_device(64);
        let lines = [Line::new(0, 3).unwrap(), Line::new(16, 3).unwrap()];
        for &line in &lines {
            dev.heat_line(line, vec![], T0).unwrap();
        }
        crate::scrub::scrub_device(&mut dev, &crate::scrub::ScrubConfig::with_workers(1)).unwrap();
        // A third line heated after the pass, and a flag raised on the
        // second: the incremental delta pre-detach is {line[1], new}.
        let fresh = Line::new(32, 3).unwrap();
        dev.heat_line(fresh, vec![], T0).unwrap();
        assert!(dev.write_block(lines[1].start() + 1, &[0u8; 512]).is_err());
        let state = dev.export_scrub_state();

        // Detach: all volatile bookkeeping gone; remount rebuilds the
        // registry (epochs reset) and imports the persisted state.
        dev.forget_registry();
        dev.rebuild_registry().unwrap();
        assert!(dev.heated_lines().all(|r| r.verified_epoch == 0));
        assert_eq!(dev.scrub_epoch(), 1, "epoch counter itself survives");
        let restore = dev.import_scrub_state(&state).unwrap();
        // Two informative records restored; the freshly heated line's
        // all-default record (epoch 0, unflagged) is not exported at all.
        assert_eq!(restore.restored, 2);
        assert_eq!((restore.stale, restore.unknown), (0, 0));

        // The restored delta matches the pre-detach delta exactly.
        let delta = crate::scrub::pass_work_list(&dev, crate::scrub::ScrubMode::Incremental);
        assert_eq!(delta, vec![lines[1], fresh]);
    }

    #[test]
    fn capped_scrub_state_drops_records_but_keeps_flags() {
        let mut dev = filled_device(128);
        let lines: Vec<Line> = (0..8).map(|i| Line::new(i * 8, 3).unwrap()).collect();
        for &line in &lines {
            dev.heat_line(line, vec![], T0).unwrap();
        }
        crate::scrub::scrub_device(&mut dev, &crate::scrub::ScrubConfig::with_workers(1)).unwrap();
        assert!(dev.write_block(lines[6].start() + 1, &[0u8; 512]).is_err());

        // Room for only two of the eight informative records.
        let state = dev.export_scrub_state_capped(17 + 2 * 26 + 4);
        dev.forget_registry();
        dev.rebuild_registry().unwrap();
        let restore = dev.import_scrub_state(&state).unwrap();
        assert_eq!(restore.restored, 2);
        // The flagged line survived the cap; dropped lines just land in
        // the next incremental delta (safe degradation).
        let flagged = dev.heated_lines().find(|r| r.line == lines[6]).unwrap();
        assert!(flagged.flagged);
        assert_eq!(flagged.verified_epoch, 1);

        // A cap below even the empty record yields no state at all.
        assert!(dev.export_scrub_state_capped(10).is_empty());
    }

    #[test]
    fn scrub_state_import_rejects_corruption_and_skips_stale_lines() {
        let mut dev = filled_device(64);
        dev.heat_line(Line::new(0, 3).unwrap(), vec![], T0).unwrap();
        crate::scrub::scrub_device(&mut dev, &crate::scrub::ScrubConfig::with_workers(1)).unwrap();
        let mut state = dev.export_scrub_state();

        // A flipped payload byte fails the CRC.
        state[10] ^= 0xFF;
        assert!(matches!(
            dev.import_scrub_state(&state),
            Err(SeroError::BadScrubState { .. })
        ));
        assert!(dev.import_scrub_state(&[1, 2, 3]).is_err(), "truncated");

        // A record for a line the registry no longer knows is counted,
        // not applied; a digest mismatch is stale.
        state[10] ^= 0xFF;
        let mut target = {
            let mut d = filled_device(64);
            // Different data under the same coordinates => different digest.
            d.write_block(1, &[0xAB; 512]).unwrap();
            d.heat_line(Line::new(0, 3).unwrap(), vec![], T0).unwrap();
            d
        };
        let restore = target.import_scrub_state(&state).unwrap();
        assert_eq!(restore.restored, 0);
        assert_eq!(restore.stale, 1);
        assert_eq!(
            target
                .heated_lines()
                .find(|r| r.line.start() == 0)
                .unwrap()
                .verified_epoch,
            0,
            "stale record must not mark the replacement line verified"
        );
    }

    #[test]
    fn load_probe_counts_foreground_not_scrub() {
        let mut dev = filled_device(64);
        let after_fill = dev.load_probe().arrivals();
        assert_eq!(after_fill, 64, "every write_block is one arrival");
        assert!(dev.load_probe().ewma_busy_ns() > 0);
        assert!(dev.load_probe().ewma_gap_ns() > 0);

        // Scrub-side verification must not masquerade as foreground.
        let line = Line::new(0, 3).unwrap();
        dev.heat_line(line, vec![], T0).unwrap();
        let arrivals = dev.load_probe().arrivals();
        dev.verify_line(line).unwrap();
        assert_eq!(dev.load_probe().arrivals(), arrivals, "verify not counted");

        // A batched request is one arrival, however many blocks it moves.
        dev.read_blocks(&[16, 17, 18, 40]).unwrap();
        assert_eq!(dev.load_probe().arrivals(), arrivals + 1);
        let u = dev.load_probe().utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
    }

    #[test]
    fn load_probe_utilization_tracks_duty_cycle() {
        // Back-to-back requests (no idle gaps) read as saturated; the
        // same requests spread over long idle gaps read as mostly idle.
        let mut busy = SeroDevice::with_blocks(64);
        for pba in 0..32 {
            busy.write_block(pba, &[1u8; 512]).unwrap();
        }
        assert!(busy.load_probe().utilization() > 0.9);

        let mut idle = SeroDevice::with_blocks(64);
        for pba in 0..32 {
            idle.write_block(pba, &[1u8; 512]).unwrap();
            idle.probe_mut().advance_clock(100_000_000); // 100 ms of idle
        }
        assert!(idle.load_probe().utilization() < 0.1);

        // A fresh device has seen nothing and claims full idleness.
        assert_eq!(SeroDevice::with_blocks(8).load_probe().utilization(), 0.0);
    }

    #[test]
    fn shredded_line_fails_verification_with_evidence() {
        let mut dev = filled_device(8);
        let line = Line::new(4, 2).unwrap();
        dev.heat_line(line, vec![], T0).unwrap();
        dev.shred_line(line).unwrap();
        let outcome = dev.verify_line(line).unwrap();
        let report = outcome.report().expect("shred is loud");
        assert!(report
            .evidence()
            .iter()
            .any(|e| e.kind() == "hash-cells-HH"));
    }
}
