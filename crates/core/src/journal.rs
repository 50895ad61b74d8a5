//! A heatable instruction journal — §8's self-securing storage hook.
//!
//! The paper: "the idea of self-securing storage takes the view that the
//! storage system should place only limited trust in the host that
//! controls it … Thus the storage system itself maintains a log of the
//! instructions it is given … Our approach could strengthen the defences
//! of a self-securing storage device because **the logs can be heated**."
//!
//! [`InstructionJournal`] appends operation records into the data blocks
//! of a reserved region; whenever a line's worth of blocks fills, the line
//! is heated — from then on that slice of history is physically immutable.
//! After any compromise, [`InstructionJournal::replay`] reconstructs the
//! sealed history from the bare medium and verifies every batch.
//!
//! # Examples
//!
//! ```
//! use sero_core::device::SeroDevice;
//! use sero_core::journal::{InstructionJournal, JournalEntry};
//!
//! let mut dev = SeroDevice::with_blocks(64);
//! let mut journal = InstructionJournal::new(32, 32, 2)?;
//! journal.record(&mut dev, JournalEntry::new(1, "host-a", "WRITE lba 7"))?;
//! journal.seal(&mut dev, 100)?; // force-seal the partial batch
//! let (batches, findings) = journal.verify_all(&mut dev)?;
//! assert_eq!(batches, 1);
//! assert!(findings.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::device::{SeroDevice, SeroError};
use crate::line::{Line, LineError};
use crate::scrub::ScrubSummary;
use core::fmt;
use sero_probe::sector::SECTOR_DATA_BYTES;

/// Magic marking a journal block ("SJRN" truncated).
const JOURNAL_MAGIC: u32 = 0x534A524E;

/// Maximum operation-text bytes per entry.
pub const MAX_OP_BYTES: usize = 200;

/// Maximum actor-name bytes per entry.
pub const MAX_ACTOR_BYTES: usize = 40;

/// One logged instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// When the instruction arrived (seconds since the epoch).
    pub timestamp: u64,
    /// Which host/principal issued it.
    pub actor: String,
    /// The instruction itself, free text.
    pub operation: String,
}

impl JournalEntry {
    /// Builds an entry, truncating oversized fields.
    pub fn new(timestamp: u64, actor: &str, operation: &str) -> JournalEntry {
        JournalEntry {
            timestamp,
            actor: actor.chars().take(MAX_ACTOR_BYTES).collect(),
            operation: operation.chars().take(MAX_OP_BYTES).collect(),
        }
    }

    fn encoded_len(&self) -> usize {
        8 + 1 + self.actor.len() + 2 + self.operation.len()
    }
}

impl fmt::Display for JournalEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[t={}] {}: {}",
            self.timestamp, self.actor, self.operation
        )
    }
}

/// Errors from the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The reserved region is exhausted: all lines sealed.
    RegionFull,
    /// Bad region geometry (not line-aligned or too small).
    BadRegion {
        /// Explanation.
        reason: String,
    },
    /// Device failure.
    Device(SeroError),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::RegionFull => f.write_str("journal region exhausted"),
            JournalError::BadRegion { reason } => write!(f, "bad journal region: {reason}"),
            JournalError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SeroError> for JournalError {
    fn from(e: SeroError) -> JournalError {
        JournalError::Device(e)
    }
}

impl From<LineError> for JournalError {
    fn from(e: LineError) -> JournalError {
        JournalError::BadRegion {
            reason: e.to_string(),
        }
    }
}

/// An append-only, incrementally heated instruction log.
#[derive(Debug, Clone)]
pub struct InstructionJournal {
    region_start: u64,
    region_blocks: u64,
    order: u32,
    /// Index of the next line slot to seal.
    next_slot: u64,
    /// Entries not yet flushed to a block.
    pending: Vec<JournalEntry>,
    /// Blocks already written within the open line.
    open_blocks: u64,
    sealed: Vec<Line>,
}

impl InstructionJournal {
    /// Creates a journal over `region_blocks` blocks starting at
    /// `region_start`, sealing batches as lines of order `order`.
    ///
    /// # Errors
    ///
    /// [`JournalError::BadRegion`] unless the region is aligned to and a
    /// multiple of the line size.
    pub fn new(
        region_start: u64,
        region_blocks: u64,
        order: u32,
    ) -> Result<InstructionJournal, JournalError> {
        let line_len = 1u64 << order;
        if region_start % line_len != 0 || region_blocks % line_len != 0 || region_blocks == 0 {
            return Err(JournalError::BadRegion {
                reason: format!(
                    "region {region_start}+{region_blocks} not aligned to 2^{order} lines"
                ),
            });
        }
        Ok(InstructionJournal {
            region_start,
            region_blocks,
            order,
            next_slot: 0,
            pending: Vec::new(),
            open_blocks: 0,
            sealed: Vec::new(),
        })
    }

    /// Lines sealed so far.
    pub fn sealed_lines(&self) -> &[Line] {
        &self.sealed
    }

    /// Entries buffered but not yet durable.
    pub fn pending_entries(&self) -> usize {
        self.pending.len()
    }

    fn current_line(&self) -> Result<Line, JournalError> {
        let line_len = 1u64 << self.order;
        let start = self.region_start + self.next_slot * line_len;
        if start + line_len > self.region_start + self.region_blocks {
            return Err(JournalError::RegionFull);
        }
        Ok(Line::new(start, self.order)?)
    }

    /// Records one instruction. Entries are buffered until a block fills,
    /// then flushed; when the open line's last data block flushes, the
    /// line is heated automatically. Returns the sealed line when that
    /// happens.
    ///
    /// # Errors
    ///
    /// [`JournalError::RegionFull`] once every line is sealed; device
    /// errors.
    pub fn record(
        &mut self,
        dev: &mut SeroDevice,
        entry: JournalEntry,
    ) -> Result<Option<Line>, JournalError> {
        // Would this entry overflow the current block? Flush first.
        let used: usize = 6 + self
            .pending
            .iter()
            .map(JournalEntry::encoded_len)
            .sum::<usize>();
        if used + entry.encoded_len() > SECTOR_DATA_BYTES {
            self.flush_block(dev)?;
        }
        self.pending.push(entry);

        // Seal if the line just completed.
        let line = self.current_line()?;
        if self.open_blocks == line.data_len() {
            return Ok(Some(
                self.seal(dev, self.pending.last().map_or(0, |e| e.timestamp))?,
            ));
        }
        Ok(None)
    }

    fn flush_block(&mut self, dev: &mut SeroDevice) -> Result<(), JournalError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let line = self.current_line()?;
        let target = line.start() + 1 + self.open_blocks;
        let mut block = [0u8; SECTOR_DATA_BYTES];
        block[..4].copy_from_slice(&JOURNAL_MAGIC.to_le_bytes());
        block[4..6].copy_from_slice(&(self.pending.len() as u16).to_le_bytes());
        let mut pos = 6;
        for e in &self.pending {
            block[pos..pos + 8].copy_from_slice(&e.timestamp.to_le_bytes());
            pos += 8;
            block[pos] = e.actor.len() as u8;
            pos += 1;
            block[pos..pos + e.actor.len()].copy_from_slice(e.actor.as_bytes());
            pos += e.actor.len();
            block[pos..pos + 2].copy_from_slice(&(e.operation.len() as u16).to_le_bytes());
            pos += 2;
            block[pos..pos + e.operation.len()].copy_from_slice(e.operation.as_bytes());
            pos += e.operation.len();
        }
        dev.write_block(target, &block)?;
        self.pending.clear();
        self.open_blocks += 1;
        Ok(())
    }

    /// Seals the open batch now: flushes pending entries, zero-fills the
    /// line's remaining blocks, heats the line.
    ///
    /// # Errors
    ///
    /// [`JournalError::RegionFull`]; device errors.
    pub fn seal(&mut self, dev: &mut SeroDevice, timestamp: u64) -> Result<Line, JournalError> {
        self.flush_block(dev)?;
        let line = self.current_line()?;
        for pba in line.start() + 1 + self.open_blocks..line.end() {
            dev.write_block(pba, &[0u8; SECTOR_DATA_BYTES])?;
        }
        dev.heat_line(line, b"instruction journal batch".to_vec(), timestamp)?;
        self.sealed.push(line);
        self.next_slot += 1;
        self.open_blocks = 0;
        Ok(line)
    }

    /// Verifies every sealed batch; returns (intact count, findings).
    ///
    /// # Errors
    ///
    /// Device errors only.
    pub fn verify_all(
        &mut self,
        dev: &mut SeroDevice,
    ) -> Result<(usize, Vec<String>), JournalError> {
        let mut intact = 0;
        let mut findings = Vec::new();
        for &line in &self.sealed {
            match dev.verify_line(line)? {
                crate::tamper::VerifyOutcome::Intact { .. } => intact += 1,
                other => findings.push(format!("{line}: {other:?}")),
            }
        }
        Ok((intact, findings))
    }

    /// Records the completion of a scrub pass as a sealed-history audit
    /// entry: "who verified what, when" becomes tamper-evident alongside
    /// the host instructions. It is the sealing primitive for a pass
    /// summary from [`crate::scrub::scrub_device`] or
    /// [`crate::sched::ScrubScheduler`], but no scrub driver seals its
    /// passes yet: neither the schedulers nor the file system call it.
    ///
    /// # Errors
    ///
    /// [`JournalError::RegionFull`]; device errors.
    pub fn record_scrub_pass(
        &mut self,
        dev: &mut SeroDevice,
        summary: &ScrubSummary,
        timestamp: u64,
    ) -> Result<Option<Line>, JournalError> {
        let entry = JournalEntry::new(
            timestamp,
            "scrub",
            &format!(
                "SCRUB epoch={} mode={:?} verified={} skipped={} tampered={} device_ns={}",
                summary.epoch,
                summary.mode,
                summary.lines,
                summary.skipped,
                summary.tampered,
                summary.device_ns
            ),
        );
        self.record(dev, entry)
    }

    /// Reconstructs all sealed history directly from the medium — works
    /// with zero in-memory state, after any host compromise.
    ///
    /// # Errors
    ///
    /// Device errors only; undecodable blocks are skipped.
    pub fn replay(
        dev: &mut SeroDevice,
        region_start: u64,
        region_blocks: u64,
    ) -> Result<Vec<JournalEntry>, JournalError> {
        dev.rebuild_registry()?;
        let lines: Vec<Line> = dev
            .heated_lines()
            .map(|r| r.line)
            .filter(|l| l.start() >= region_start && l.end() <= region_start + region_blocks)
            .collect();
        let mut out = Vec::new();
        for line in lines {
            for pba in line.data_blocks() {
                let Ok(sector) = dev.probe_mut().mrs(pba) else {
                    continue;
                };
                let data = sector.data;
                if u32::from_le_bytes(data[..4].try_into().expect("4")) != JOURNAL_MAGIC {
                    continue;
                }
                let count = u16::from_le_bytes(data[4..6].try_into().expect("2")) as usize;
                let mut pos = 6;
                for _ in 0..count {
                    if pos + 11 > SECTOR_DATA_BYTES {
                        break;
                    }
                    let timestamp = u64::from_le_bytes(data[pos..pos + 8].try_into().expect("8"));
                    pos += 8;
                    let alen = data[pos] as usize;
                    pos += 1;
                    let actor = String::from_utf8_lossy(&data[pos..pos + alen]).into_owned();
                    pos += alen;
                    let olen =
                        u16::from_le_bytes(data[pos..pos + 2].try_into().expect("2")) as usize;
                    pos += 2;
                    let operation = String::from_utf8_lossy(&data[pos..pos + olen]).into_owned();
                    pos += olen;
                    out.push(JournalEntry {
                        timestamp,
                        actor,
                        operation,
                    });
                }
            }
        }
        out.sort_by_key(|e| e.timestamp);
        Ok(out)
    }
}

/// A bounds-checked pager over a reserved WMRM block range — the
/// rewritable journal-region primitive under the fs metadata index's
/// WAL/segment region.
///
/// The one semantic it adds over raw block access: *virgin sectors read
/// as zeros*. A patterned-media sector that was never magnetically
/// written decodes as noise ([`SeroError::Sector`]); for a journal
/// region that is simply "nothing here yet", so this pager maps it to a
/// zero page instead of an error. Every other device failure (a heated
/// block inside the region, out-of-range addresses) stays loud.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WmrmRegion {
    start: u64,
    blocks: u64,
}

impl WmrmRegion {
    /// A pager over `blocks` WMRM blocks starting at `start`.
    ///
    /// # Errors
    ///
    /// [`JournalError::BadRegion`] for an empty region.
    pub fn new(start: u64, blocks: u64) -> Result<WmrmRegion, JournalError> {
        if blocks == 0 {
            return Err(JournalError::BadRegion {
                reason: "WMRM region needs at least one block".to_string(),
            });
        }
        Ok(WmrmRegion { start, blocks })
    }

    /// First block of the region.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Blocks (= pages) in the region.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Reads one page; a virgin (never-written) sector reads as zeros.
    ///
    /// # Errors
    ///
    /// [`JournalError::BadRegion`] for a page outside the region; device
    /// errors other than a virgin-sector decode.
    pub fn read_page(
        &self,
        dev: &mut SeroDevice,
        page: u64,
    ) -> Result<[u8; SECTOR_DATA_BYTES], JournalError> {
        if page >= self.blocks {
            return Err(JournalError::BadRegion {
                reason: format!("page {page} outside a {}-block region", self.blocks),
            });
        }
        match dev.read_block(self.start + page) {
            Ok(data) => Ok(data),
            Err(SeroError::Sector(_)) => Ok([0u8; SECTOR_DATA_BYTES]),
            Err(e) => Err(e.into()),
        }
    }

    /// Writes one page.
    ///
    /// # Errors
    ///
    /// [`JournalError::BadRegion`] for a page outside the region; device
    /// errors (a heated block inside the region refuses the write).
    pub fn write_page(
        &self,
        dev: &mut SeroDevice,
        page: u64,
        data: &[u8; SECTOR_DATA_BYTES],
    ) -> Result<(), JournalError> {
        if page >= self.blocks {
            return Err(JournalError::BadRegion {
                reason: format!("page {page} outside a {}-block region", self.blocks),
            });
        }
        dev.write_block(self.start + page, data)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SeroDevice, InstructionJournal) {
        let dev = SeroDevice::with_blocks(64);
        let journal = InstructionJournal::new(32, 32, 2).unwrap();
        (dev, journal)
    }

    #[test]
    fn wmrm_region_pages_round_trip_and_virgin_reads_zero() {
        let mut dev = SeroDevice::with_blocks(64);
        let region = WmrmRegion::new(8, 4).unwrap();
        // Virgin pages read as zeros, not as a sector error.
        assert_eq!(
            region.read_page(&mut dev, 0).unwrap(),
            [0u8; SECTOR_DATA_BYTES]
        );
        let mut page = [0u8; SECTOR_DATA_BYTES];
        page[..4].copy_from_slice(b"SWAL");
        region.write_page(&mut dev, 2, &page).unwrap();
        assert_eq!(region.read_page(&mut dev, 2).unwrap(), page);
        // Bounds are enforced on both sides of the API.
        assert!(matches!(
            region.read_page(&mut dev, 4),
            Err(JournalError::BadRegion { .. })
        ));
        assert!(matches!(
            region.write_page(&mut dev, 4, &page),
            Err(JournalError::BadRegion { .. })
        ));
        assert!(WmrmRegion::new(0, 0).is_err());
    }

    #[test]
    fn record_and_seal_round_trip() {
        let (mut dev, mut journal) = setup();
        for i in 0..5 {
            journal
                .record(
                    &mut dev,
                    JournalEntry::new(i, "host-a", &format!("WRITE lba {i}")),
                )
                .unwrap();
        }
        journal.seal(&mut dev, 5).unwrap();
        assert_eq!(journal.sealed_lines().len(), 1);
        let (intact, findings) = journal.verify_all(&mut dev).unwrap();
        assert_eq!(intact, 1);
        assert!(findings.is_empty());
    }

    #[test]
    fn auto_seal_when_line_fills() {
        let (mut dev, mut journal) = setup();
        // Entries of ~60 bytes: ~8 per block; line order 2 -> 3 data
        // blocks; so ~25 entries force an automatic seal.
        let mut sealed = None;
        for i in 0..200 {
            let entry = JournalEntry::new(i, "host-b", "READ lba 00000000 len 4096 flags none");
            if let Some(line) = journal.record(&mut dev, entry).unwrap() {
                sealed = Some((i, line));
                break;
            }
        }
        let (at, line) = sealed.expect("line should have filled");
        assert!(at > 8, "several blocks of entries before sealing");
        assert!(dev.verify_line(line).unwrap().is_intact());
    }

    #[test]
    fn replay_recovers_history_from_bare_medium() {
        let (mut dev, mut journal) = setup();
        let mut written = Vec::new();
        for i in 0..12 {
            let e = JournalEntry::new(i, "ceo-laptop", &format!("DELETE file {i}"));
            written.push(e.clone());
            journal.record(&mut dev, e).unwrap();
        }
        journal.seal(&mut dev, 99).unwrap();

        // Host compromise: all in-memory state gone; replay from medium.
        let replayed = InstructionJournal::replay(&mut dev, 32, 32).unwrap();
        assert_eq!(replayed, written);
    }

    #[test]
    fn tampering_with_sealed_batch_detected() {
        let (mut dev, mut journal) = setup();
        journal
            .record(&mut dev, JournalEntry::new(1, "host", "SHRED everything"))
            .unwrap();
        let line = journal.seal(&mut dev, 1).unwrap();
        // The embarrassed operator rewrites the journal block raw.
        dev.probe_mut().mws(line.start() + 1, &[0u8; 512]).unwrap();
        let (intact, findings) = journal.verify_all(&mut dev).unwrap();
        assert_eq!(intact, 0);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn region_exhaustion_reported() {
        let mut dev = SeroDevice::with_blocks(64);
        // Region of exactly one order-2 line.
        let mut journal = InstructionJournal::new(32, 4, 2).unwrap();
        journal
            .record(&mut dev, JournalEntry::new(1, "h", "op"))
            .unwrap();
        journal.seal(&mut dev, 1).unwrap();
        let err = journal
            .record(&mut dev, JournalEntry::new(2, "h", "op"))
            .unwrap_err();
        assert_eq!(err, JournalError::RegionFull);
    }

    #[test]
    fn bad_region_rejected() {
        assert!(InstructionJournal::new(33, 32, 2).is_err()); // misaligned
        assert!(InstructionJournal::new(32, 30, 2).is_err()); // not a multiple
        assert!(InstructionJournal::new(32, 0, 2).is_err());
    }

    #[test]
    fn device_errors_keep_their_source_chain() {
        let inner = SeroError::HashBlockAccess { pba: 40 };
        let err = JournalError::Device(inner.clone());
        // The wrapped device error stays reachable for error-report
        // walkers, and its text survives in the Display.
        let source = std::error::Error::source(&err).expect("Device carries a source");
        assert_eq!(source.to_string(), inner.to_string());
        assert!(err.to_string().contains(&inner.to_string()));
        assert!(std::error::Error::source(&JournalError::RegionFull).is_none());
    }

    #[test]
    fn scrub_pass_audit_entry_round_trips() {
        let (mut dev, mut journal) = setup();
        let line = Line::new(0, 2).unwrap();
        for pba in line.data_blocks() {
            dev.write_block(pba, &[3u8; 512]).unwrap();
        }
        dev.heat_line(line, vec![], 7).unwrap();
        let report =
            crate::scrub::scrub_device(&mut dev, &crate::scrub::ScrubConfig::with_workers(1))
                .unwrap();
        journal
            .record_scrub_pass(&mut dev, &report.summary, 8)
            .unwrap();
        journal.seal(&mut dev, 8).unwrap();

        let replayed = InstructionJournal::replay(&mut dev, 32, 32).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].actor, "scrub");
        assert!(replayed[0].operation.starts_with("SCRUB epoch=1"));
        assert!(replayed[0].operation.contains("verified=1"));
    }

    #[test]
    fn oversized_fields_truncated() {
        let e = JournalEntry::new(0, &"a".repeat(100), &"b".repeat(500));
        assert_eq!(e.actor.len(), MAX_ACTOR_BYTES);
        assert_eq!(e.operation.len(), MAX_OP_BYTES);
        assert!(!e.to_string().is_empty());
    }
}
