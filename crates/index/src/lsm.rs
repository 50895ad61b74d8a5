//! The LSM engine: memtable, CRC-framed WAL, double-slotted manifest,
//! and levelled compaction over immutable segments.
//!
//! Durability contract, in write order:
//!
//! 1. Every mutation appends one CRC-framed record to the WAL region and
//!    mirrors itself into the memtable. Records carry the WAL
//!    *generation*.
//! 2. A flush writes the memtable as a fresh level-0 segment (plus any
//!    compaction outputs) to pages that are free under the *current*
//!    manifest, bumps the generation, then commits a new manifest to the
//!    alternate slot. Only after the manifest is durable are the
//!    replaced segments' pages returned to the free pool.
//! 3. Opening reads both manifest slots, adopts the highest valid
//!    sequence, and replays the bounded WAL tail: records of an older
//!    generation are already in segments and are skipped; the first
//!    malformed record ends the replay (a torn tail is reported, never
//!    applied). A crash at any point therefore recovers to the last
//!    committed manifest plus a prefix of the live WAL — never a partial
//!    index.

use crate::segment::{build_segment, unpack_data_page, Entry, SegmentHeader};
use crate::{
    BlockStore, IndexError, IndexGeometry, MANIFEST_SLOT_PAGES, MAX_KEY_BYTES, MAX_VALUE_BYTES,
    PAGE_BYTES,
};
use sero_codec::crc32::crc32;
use std::collections::BTreeMap;

/// Magic framing a manifest slot ("SMFT").
pub const MANIFEST_MAGIC: u32 = 0x534D_4654;

/// Magic opening every WAL record ("SWAL").
pub const WAL_MAGIC: u32 = 0x5357_414C;

/// Compaction levels.
pub const LEVELS: usize = 3;

/// Segments a non-bottom level may hold before it is merged down.
const LEVEL_FANOUT: usize = 4;

/// Memtable entries that force a flush even with WAL headroom.
const MEMTABLE_MAX_ENTRIES: usize = 1024;

/// Fixed bytes of a WAL record around key and value.
const WAL_RECORD_OVERHEAD: usize = 4 + 8 + 2 + 2 + 4;

/// Tombstone sentinel in a WAL record's `vlen` field.
const WAL_TOMBSTONE: u16 = 0xFFFF;

/// One sealed segment as the manifest tracks it. The header (fences +
/// bloom) loads lazily on first lookup and is cached.
#[derive(Debug, Clone)]
struct Segment {
    start_page: u64,
    pages: u64,
    entry_count: u64,
    header: Option<(u64, SegmentHeader)>,
}

/// What [`MetaIndex::open`] found while replaying the WAL tail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// WAL records of the live generation applied to the memtable.
    pub wal_replayed: u64,
    /// True when the replay ended at a half-written or damaged record
    /// (the torn tail was discarded; everything before it applied).
    pub torn_tail: bool,
}

/// Work counters, for benches and acceptance assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Memtable flushes into level-0 segments.
    pub flushes: u64,
    /// Level merges performed.
    pub compactions: u64,
    /// Segment probes answered "definitely absent" by a bloom filter
    /// without touching a data page.
    pub bloom_skips: u64,
}

/// The LSM metadata index over a [`BlockStore`].
///
/// All methods borrow the store per call, so an owner can keep the
/// index state and the storage in one struct without self-references
/// (the file system passes an adapter over its reserved device region).
#[derive(Debug, Clone)]
pub struct MetaIndex {
    geom: IndexGeometry,
    seq: u64,
    wal_gen: u64,
    wal_off: usize,
    wal_buf: Vec<u8>,
    memtable: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    levels: Vec<Vec<Segment>>,
    free: Vec<(u64, u64)>,
    stats: IndexStats,
    /// Set while a failed flush leaves the memtable owing the heap a
    /// segment: the next mutation retries that flush before it logs
    /// anything.
    flush_owed: bool,
}

impl MetaIndex {
    /// Formats a fresh index over the region: invalidates both manifest
    /// slots and the WAL head, then commits an empty manifest.
    ///
    /// # Errors
    ///
    /// [`IndexError::Geometry`] when the store is smaller than the
    /// geometry; store errors.
    pub fn format<S: BlockStore>(
        store: &mut S,
        geom: IndexGeometry,
    ) -> Result<MetaIndex, IndexError> {
        if store.page_count() < geom.pages {
            return Err(IndexError::Geometry {
                reason: format!(
                    "store holds {} pages, geometry needs {}",
                    store.page_count(),
                    geom.pages
                ),
            });
        }
        let zero = [0u8; PAGE_BYTES];
        for page in 0..2 * MANIFEST_SLOT_PAGES {
            store.write_page(page, &zero)?;
        }
        // Zero the whole WAL, not just its head: open() reads every WAL
        // page, and on physical media a never-written page is a sector
        // error, not a page of zeros. Formatting is the one moment the
        // region is touched wholesale, so make every page it will ever
        // read well-defined here.
        for i in 0..geom.wal_pages {
            store.write_page(geom.wal_start() + i, &zero)?;
        }
        let mut index = MetaIndex {
            geom,
            seq: 0,
            wal_gen: 1,
            wal_off: 0,
            wal_buf: vec![0u8; geom.wal_pages as usize * PAGE_BYTES],
            memtable: BTreeMap::new(),
            levels: vec![Vec::new(); LEVELS],
            free: vec![(geom.heap_start(), geom.heap_pages())],
            stats: IndexStats::default(),
            flush_owed: false,
        };
        index.write_manifest(store)?;
        Ok(index)
    }

    /// Opens an existing index: reads both manifest slots, adopts the
    /// newest valid one, and replays the bounded WAL tail. Cost is
    /// manifest + WAL region, independent of how many entries the
    /// segments hold.
    ///
    /// # Errors
    ///
    /// [`IndexError::Corrupt`] when neither slot holds a valid manifest
    /// or the winning manifest names overlapping segments; store errors.
    pub fn open<S: BlockStore>(
        store: &mut S,
        geom: IndexGeometry,
    ) -> Result<(MetaIndex, OpenReport), IndexError> {
        let a = Self::try_read_manifest(store, geom, 0)?;
        let b = Self::try_read_manifest(store, geom, 1)?;
        let (seq, wal_gen, raw_levels) = match (a, b) {
            (Some(a), Some(b)) => {
                if a.0 >= b.0 {
                    a
                } else {
                    b
                }
            }
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => {
                return Err(IndexError::Corrupt {
                    reason: "no valid manifest in either slot (region not formatted?)".to_string(),
                })
            }
        };

        // Rebuild the free pool: heap pages not covered by a live segment.
        let heap_start = geom.heap_start();
        let mut occupied = vec![false; geom.heap_pages() as usize];
        for level in &raw_levels {
            for &(start, pages, _) in level {
                for p in start..start + pages {
                    let slot = (p - heap_start) as usize;
                    if occupied[slot] {
                        return Err(IndexError::Corrupt {
                            reason: format!("manifest names overlapping segments at page {p}"),
                        });
                    }
                    occupied[slot] = true;
                }
            }
        }
        let mut free = Vec::new();
        let mut run_start = None;
        for (i, used) in occupied.iter().enumerate() {
            match (used, run_start) {
                (false, None) => run_start = Some(i),
                (true, Some(s)) => {
                    free.push((heap_start + s as u64, (i - s) as u64));
                    run_start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = run_start {
            free.push((heap_start + s as u64, (occupied.len() - s) as u64));
        }

        let levels = raw_levels
            .into_iter()
            .map(|segs| {
                segs.into_iter()
                    .map(|(start_page, pages, entry_count)| Segment {
                        start_page,
                        pages,
                        entry_count,
                        header: None,
                    })
                    .collect()
            })
            .collect();

        let mut wal_buf = vec![0u8; geom.wal_pages as usize * PAGE_BYTES];
        for (i, chunk) in wal_buf.chunks_mut(PAGE_BYTES).enumerate() {
            chunk.copy_from_slice(&store.read_page(geom.wal_start() + i as u64)?);
        }

        let mut index = MetaIndex {
            geom,
            seq,
            wal_gen,
            wal_off: 0,
            wal_buf,
            memtable: BTreeMap::new(),
            levels,
            free,
            stats: IndexStats::default(),
            flush_owed: false,
        };
        let report = index.replay_wal();
        Ok((index, report))
    }

    /// Applies the live-generation WAL prefix to the memtable.
    fn replay_wal(&mut self) -> OpenReport {
        let mut report = OpenReport::default();
        let cap = self.wal_buf.len();
        let mut off = 0usize;
        loop {
            if off + WAL_RECORD_OVERHEAD > cap {
                break;
            }
            let magic = u32::from_le_bytes(self.wal_buf[off..off + 4].try_into().expect("4"));
            if magic == 0 {
                break; // clean end: never-written tail
            }
            if magic != WAL_MAGIC {
                report.torn_tail = true;
                break;
            }
            let gen = u64::from_le_bytes(self.wal_buf[off + 4..off + 12].try_into().expect("8"));
            if gen != self.wal_gen {
                break; // stale records from before the last flush
            }
            let klen = u16::from_le_bytes(self.wal_buf[off + 12..off + 14].try_into().expect("2"))
                as usize;
            let vlen_raw =
                u16::from_le_bytes(self.wal_buf[off + 14..off + 16].try_into().expect("2"));
            let vlen = if vlen_raw == WAL_TOMBSTONE {
                0
            } else {
                vlen_raw as usize
            };
            if klen > MAX_KEY_BYTES || vlen > MAX_VALUE_BYTES {
                report.torn_tail = true;
                break;
            }
            let total = WAL_RECORD_OVERHEAD + klen + vlen;
            if off + total > cap {
                report.torn_tail = true;
                break;
            }
            let body_end = off + 16 + klen + vlen;
            let stored =
                u32::from_le_bytes(self.wal_buf[body_end..body_end + 4].try_into().expect("4"));
            if stored != crc32(&self.wal_buf[off..body_end]) {
                report.torn_tail = true;
                break;
            }
            let key = self.wal_buf[off + 16..off + 16 + klen].to_vec();
            let value = if vlen_raw == WAL_TOMBSTONE {
                None
            } else {
                Some(self.wal_buf[off + 16 + klen..body_end].to_vec())
            };
            self.memtable.insert(key, value);
            report.wal_replayed += 1;
            off += total;
        }
        self.wal_off = off;
        report
    }

    /// Inserts or replaces `key`. `Ok` means the record is in the WAL; an
    /// error means nothing was logged.
    ///
    /// # Errors
    ///
    /// [`IndexError::Oversize`] past the entry limits;
    /// [`IndexError::RegionFull`] and store errors when the flush that
    /// must make room for the record fails. Once a flush has failed,
    /// every later mutation retries it first and fails the same way
    /// until it succeeds.
    pub fn put<S: BlockStore>(
        &mut self,
        store: &mut S,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), IndexError> {
        if key.len() > MAX_KEY_BYTES || value.len() > MAX_VALUE_BYTES {
            return Err(IndexError::Oversize {
                key_len: key.len(),
                value_len: value.len(),
            });
        }
        self.append_wal(store, key, Some(value))?;
        self.memtable.insert(key.to_vec(), Some(value.to_vec()));
        self.maybe_flush(store);
        Ok(())
    }

    /// Removes `key` (a tombstone until compaction drops it).
    ///
    /// # Errors
    ///
    /// As [`MetaIndex::put`].
    pub fn delete<S: BlockStore>(&mut self, store: &mut S, key: &[u8]) -> Result<(), IndexError> {
        if key.len() > MAX_KEY_BYTES {
            return Err(IndexError::Oversize {
                key_len: key.len(),
                value_len: 0,
            });
        }
        self.append_wal(store, key, None)?;
        self.memtable.insert(key.to_vec(), None);
        self.maybe_flush(store);
        Ok(())
    }

    /// Point lookup: memtable first, then every segment newest-first,
    /// bloom filters pruning segments that definitely lack the key.
    ///
    /// # Errors
    ///
    /// [`IndexError::Corrupt`] when a consulted page fails its CRC;
    /// store errors.
    pub fn get<S: BlockStore>(
        &mut self,
        store: &mut S,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>, IndexError> {
        if let Some(v) = self.memtable.get(key) {
            return Ok(v.clone());
        }
        for li in 0..LEVELS {
            for si in (0..self.levels[li].len()).rev() {
                self.ensure_header(store, li, si)?;
                let page_no = {
                    let seg = &self.levels[li][si];
                    let (header_pages, header) = seg.header.as_ref().expect("loaded above");
                    if !header.bloom.contains(key) {
                        self.stats.bloom_skips += 1;
                        continue;
                    }
                    let idx = header.fences.partition_point(|f| f.as_slice() <= key);
                    if idx == 0 {
                        continue; // below the segment's first key
                    }
                    seg.start_page + header_pages + (idx as u64 - 1)
                };
                let page = store.read_page(page_no)?;
                let entries = unpack_data_page(&page)?;
                if let Some((_, v)) = entries.iter().find(|(k, _)| k.as_slice() == key) {
                    return Ok(v.clone());
                }
            }
        }
        Ok(None)
    }

    /// True unless `key` is *definitely* absent: present in the memtable
    /// or admitted by at least one segment's bloom filter. Used by the
    /// property suite to pin "zero false negatives".
    ///
    /// # Errors
    ///
    /// Header-load errors.
    pub fn bloom_may_contain<S: BlockStore>(
        &mut self,
        store: &mut S,
        key: &[u8],
    ) -> Result<bool, IndexError> {
        if self.memtable.contains_key(key) {
            return Ok(true);
        }
        for li in 0..LEVELS {
            for si in 0..self.levels[li].len() {
                self.ensure_header(store, li, si)?;
                let (_, header) = self.levels[li][si].header.as_ref().expect("loaded above");
                if header.bloom.contains(key) {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Every live key-value pair, merged across memtable and all levels
    /// (tombstones applied). This is the full-scan path — hydration and
    /// tests, not point lookups.
    ///
    /// # Errors
    ///
    /// Corruption or store errors while reading segments.
    #[allow(clippy::type_complexity)]
    pub fn scan_all<S: BlockStore>(
        &mut self,
        store: &mut S,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>, IndexError> {
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for li in (0..LEVELS).rev() {
            for si in 0..self.levels[li].len() {
                for (k, v) in Self::read_all_entries(store, &self.levels[li][si])? {
                    merged.insert(k, v);
                }
            }
        }
        for (k, v) in &self.memtable {
            merged.insert(k.clone(), v.clone());
        }
        Ok(merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect())
    }

    /// Flushes the memtable into a level-0 segment, compacts overflowing
    /// levels, resets the WAL generation, and commits a new manifest.
    /// A no-op when the memtable is empty.
    ///
    /// A flush is all or nothing. When it fails before the manifest
    /// commits, the segments and free pages roll back to the committed
    /// manifest and the memtable stays as it was; the untouched WAL still
    /// holds every acknowledged record, so `get`, `scan_all` and a reopen
    /// see them all.
    ///
    /// # Errors
    ///
    /// [`IndexError::RegionFull`] when the heap cannot host the new
    /// segment or a compaction output; store errors.
    pub fn flush<S: BlockStore>(&mut self, store: &mut S) -> Result<(), IndexError> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let committed = (
            self.levels_snapshot(),
            self.free.clone(),
            self.seq,
            self.wal_gen,
        );
        let entries: Vec<Entry> = std::mem::take(&mut self.memtable).into_iter().collect();
        let pending_free = match self.write_flush(store, &entries) {
            Ok(pending_free) => pending_free,
            Err(e) => {
                (self.levels, self.free, self.seq, self.wal_gen) = committed;
                self.memtable = entries.into_iter().collect();
                self.flush_owed = true;
                return Err(e);
            }
        };
        self.stats.flushes += 1;
        self.flush_owed = false;
        self.wal_off = 0;
        // With the manifest committed, zero the WAL so stale frames from
        // the retired generation can never sit past the new tail. Replay
        // would stop at them anyway (generation mismatch), but a fresh
        // frame that happens to end mid-old-frame would otherwise make
        // the garbage after it look like a torn tail. The order matters:
        // a crash before the manifest landed must still find the old
        // generation's frames intact, and a crash mid-zeroing replays
        // zeros (clean empty tail) against the new manifest.
        self.wal_buf.fill(0);
        for i in 0..self.geom.wal_pages {
            let page = [0u8; PAGE_BYTES];
            store.write_page(self.geom.wal_start() + i, &page)?;
        }
        // Only now are the replaced segments' pages reusable: a crash
        // before the manifest landed must leave the old ones readable.
        for (start, pages) in pending_free {
            self.free_extent(start, pages);
        }
        Ok(())
    }

    /// The pre-commit half of [`MetaIndex::flush`]: writes `entries` as a
    /// level-0 segment, compacts overflowing levels, and commits the
    /// manifest of the next WAL generation. Returns the extents the new
    /// manifest retired.
    fn write_flush<S: BlockStore>(
        &mut self,
        store: &mut S,
        entries: &[Entry],
    ) -> Result<Vec<(u64, u64)>, IndexError> {
        let seg = self.write_segment(store, entries, 0)?;
        self.levels[0].push(seg);
        let mut pending_free: Vec<(u64, u64)> = Vec::new();
        if self.levels[0].len() > LEVEL_FANOUT {
            self.compact(store, 0, &mut pending_free)?;
            if self.levels[1].len() > LEVEL_FANOUT {
                self.compact(store, 1, &mut pending_free)?;
            }
        }
        self.wal_gen += 1;
        self.write_manifest(store)?;
        Ok(pending_free)
    }

    /// The segment lists without their cached headers: the cheap
    /// snapshot a failed flush rolls back to.
    fn levels_snapshot(&self) -> Vec<Vec<Segment>> {
        self.levels
            .iter()
            .map(|level| {
                level
                    .iter()
                    .map(|seg| Segment {
                        header: None,
                        ..*seg
                    })
                    .collect()
            })
            .collect()
    }

    /// Work counters.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// The committed manifest sequence number.
    pub fn manifest_seq(&self) -> u64 {
        self.seq
    }

    /// The live WAL generation.
    pub fn wal_generation(&self) -> u64 {
        self.wal_gen
    }

    /// Bytes of live WAL records.
    pub fn wal_bytes(&self) -> usize {
        self.wal_off
    }

    /// Entries buffered in the memtable.
    pub fn memtable_entries(&self) -> usize {
        self.memtable.len()
    }

    /// Live segments per level.
    pub fn level_segment_counts(&self) -> [usize; LEVELS] {
        let mut out = [0usize; LEVELS];
        for (i, level) in self.levels.iter().enumerate() {
            out[i] = level.len();
        }
        out
    }

    /// Heap pages held by live segments.
    pub fn segment_pages(&self) -> u64 {
        self.levels.iter().flatten().map(|s| s.pages).sum()
    }

    /// Entries across all live segments (tombstones included).
    pub fn segment_entries(&self) -> u64 {
        self.levels.iter().flatten().map(|s| s.entry_count).sum()
    }

    /// Flushes a full memtable. The mutation that filled it is already
    /// durable in the WAL, so a failed flush is not that mutation's
    /// error: the flush stays owed and the next mutation retries it.
    fn maybe_flush<S: BlockStore>(&mut self, store: &mut S) {
        if self.memtable.len() >= MEMTABLE_MAX_ENTRIES {
            let _ = self.flush(store);
        }
    }

    /// Appends one record, flushing first when a flush is owed or the WAL
    /// region is full. Logs nothing on error.
    fn append_wal<S: BlockStore>(
        &mut self,
        store: &mut S,
        key: &[u8],
        value: Option<&[u8]>,
    ) -> Result<(), IndexError> {
        let vlen = value.map_or(0, <[u8]>::len);
        let total = WAL_RECORD_OVERHEAD + key.len() + vlen;
        if self.flush_owed || self.wal_off + total > self.wal_buf.len() {
            self.flush(store)?;
        }
        if self.wal_off + total > self.wal_buf.len() {
            return Err(IndexError::RegionFull {
                needed_pages: total.div_ceil(PAGE_BYTES) as u64,
                free_pages: ((self.wal_buf.len() - self.wal_off) / PAGE_BYTES) as u64,
            });
        }
        let off = self.wal_off;
        self.wal_buf[off..off + 4].copy_from_slice(&WAL_MAGIC.to_le_bytes());
        self.wal_buf[off + 4..off + 12].copy_from_slice(&self.wal_gen.to_le_bytes());
        self.wal_buf[off + 12..off + 14].copy_from_slice(&(key.len() as u16).to_le_bytes());
        let vlen_raw = value.map_or(WAL_TOMBSTONE, |v| v.len() as u16);
        self.wal_buf[off + 14..off + 16].copy_from_slice(&vlen_raw.to_le_bytes());
        self.wal_buf[off + 16..off + 16 + key.len()].copy_from_slice(key);
        if let Some(v) = value {
            self.wal_buf[off + 16 + key.len()..off + 16 + key.len() + vlen].copy_from_slice(v);
        }
        let body_end = off + 16 + key.len() + vlen;
        let crc = crc32(&self.wal_buf[off..body_end]);
        self.wal_buf[body_end..body_end + 4].copy_from_slice(&crc.to_le_bytes());
        self.wal_off = off + total;

        let first = off / PAGE_BYTES;
        let last = (self.wal_off - 1) / PAGE_BYTES;
        for p in first..=last {
            let mut page = [0u8; PAGE_BYTES];
            page.copy_from_slice(&self.wal_buf[p * PAGE_BYTES..(p + 1) * PAGE_BYTES]);
            store.write_page(self.geom.wal_start() + p as u64, &page)?;
        }
        Ok(())
    }

    /// Merges `level` down into `level + 1`. Non-bottom outputs are
    /// *tiered*: only `level`'s segments merge, and the result is pushed
    /// as one more segment so the deeper level can accumulate toward its
    /// own trigger. When the output is the bottom level the merge is
    /// *levelled* — every bottom segment joins the inputs — because
    /// tombstones are dropped there, and that is only sound when no
    /// older copy of a key can survive beneath the output. Freed input
    /// extents are *deferred* to `pending_free`.
    fn compact<S: BlockStore>(
        &mut self,
        store: &mut S,
        level: usize,
        pending_free: &mut Vec<(u64, u64)>,
    ) -> Result<(), IndexError> {
        self.stats.compactions += 1;
        let output_is_bottom = level + 1 == LEVELS - 1;
        // Oldest data first, newer overwrites: anything in the deeper
        // level is strictly older than `level`, and each level's list is
        // ordered oldest → newest.
        let mut inputs: Vec<Segment> = if output_is_bottom {
            self.levels[level + 1].drain(..).collect()
        } else {
            Vec::new()
        };
        inputs.append(&mut self.levels[level]);
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for seg in &inputs {
            for (k, v) in Self::read_all_entries(store, seg)? {
                merged.insert(k, v);
            }
        }
        let drop_tombstones = output_is_bottom;
        let out: Vec<Entry> = merged
            .into_iter()
            .filter(|(_, v)| !(drop_tombstones && v.is_none()))
            .collect();
        if !out.is_empty() {
            let seg = self.write_segment(store, &out, (level + 1) as u8)?;
            self.levels[level + 1].push(seg);
        }
        for seg in inputs {
            pending_free.push((seg.start_page, seg.pages));
        }
        Ok(())
    }

    /// Builds and writes a segment to freshly allocated pages.
    fn write_segment<S: BlockStore>(
        &mut self,
        store: &mut S,
        entries: &[Entry],
        level: u8,
    ) -> Result<Segment, IndexError> {
        let (pages, header) = build_segment(entries, level);
        let n = pages.len() as u64;
        let start = self.alloc_extent(n)?;
        for (i, page) in pages.iter().enumerate() {
            store.write_page(start + i as u64, page)?;
        }
        let header_pages = n - header.data_pages as u64;
        Ok(Segment {
            start_page: start,
            pages: n,
            entry_count: header.entry_count,
            header: Some((header_pages, header)),
        })
    }

    /// Loads and caches a segment's header (fences + bloom).
    fn ensure_header<S: BlockStore>(
        &mut self,
        store: &mut S,
        li: usize,
        si: usize,
    ) -> Result<(), IndexError> {
        if self.levels[li][si].header.is_some() {
            return Ok(());
        }
        let start = self.levels[li][si].start_page;
        let total_pages = self.levels[li][si].pages;
        let first = store.read_page(start)?;
        let body_len = SegmentHeader::peek_body_len(&first)?;
        let header_pages = SegmentHeader::frame_pages(body_len);
        let mut framed = first.to_vec();
        for p in 1..header_pages {
            framed.extend_from_slice(&store.read_page(start + p)?);
        }
        let header = SegmentHeader::decode(&framed)?;
        if header_pages + header.data_pages as u64 != total_pages {
            return Err(IndexError::Corrupt {
                reason: format!(
                    "segment at page {start} sizes disagree: {header_pages} header + {} data vs {total_pages} total",
                    header.data_pages
                ),
            });
        }
        self.levels[li][si].header = Some((header_pages, header));
        Ok(())
    }

    /// Reads every entry of a segment, in key order.
    fn read_all_entries<S: BlockStore>(
        store: &mut S,
        seg: &Segment,
    ) -> Result<Vec<Entry>, IndexError> {
        let first = store.read_page(seg.start_page)?;
        let body_len = SegmentHeader::peek_body_len(&first)?;
        let header_pages = SegmentHeader::frame_pages(body_len);
        let mut out = Vec::with_capacity(seg.entry_count as usize);
        for p in header_pages..seg.pages {
            let page = store.read_page(seg.start_page + p)?;
            out.extend(unpack_data_page(&page)?);
        }
        Ok(out)
    }

    /// First-fit allocation of `n` contiguous heap pages.
    fn alloc_extent(&mut self, n: u64) -> Result<u64, IndexError> {
        for i in 0..self.free.len() {
            let (start, len) = self.free[i];
            if len >= n {
                if len == n {
                    self.free.remove(i);
                } else {
                    self.free[i] = (start + n, len - n);
                }
                return Ok(start);
            }
        }
        Err(IndexError::RegionFull {
            needed_pages: n,
            free_pages: self.free.iter().map(|&(_, len)| len).sum(),
        })
    }

    /// Returns an extent to the pool, coalescing neighbours.
    fn free_extent(&mut self, start: u64, len: u64) {
        self.free.push((start, len));
        self.free.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.free.len());
        for &(s, l) in &self.free {
            match merged.last_mut() {
                Some((ms, ml)) if *ms + *ml == s => *ml += l,
                _ => merged.push((s, l)),
            }
        }
        self.free = merged;
    }

    /// Commits the next manifest to the alternate slot.
    fn write_manifest<S: BlockStore>(&mut self, store: &mut S) -> Result<(), IndexError> {
        self.seq += 1;
        let mut body = Vec::new();
        body.extend_from_slice(&self.seq.to_le_bytes());
        body.extend_from_slice(&self.wal_gen.to_le_bytes());
        body.push(LEVELS as u8);
        for level in &self.levels {
            body.extend_from_slice(&(level.len() as u32).to_le_bytes());
            for seg in level {
                body.extend_from_slice(&seg.start_page.to_le_bytes());
                body.extend_from_slice(&seg.pages.to_le_bytes());
                body.extend_from_slice(&seg.entry_count.to_le_bytes());
            }
        }
        let mut framed = Vec::with_capacity(12 + body.len());
        framed.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
        framed.extend_from_slice(&body);
        framed.extend_from_slice(&crc32(&framed).to_le_bytes());
        let slot_bytes = MANIFEST_SLOT_PAGES as usize * PAGE_BYTES;
        if framed.len() > slot_bytes {
            return Err(IndexError::Geometry {
                reason: format!(
                    "manifest of {} bytes exceeds the {slot_bytes}-byte slot",
                    framed.len()
                ),
            });
        }
        framed.resize(slot_bytes, 0);
        let slot_start = (self.seq % 2) * MANIFEST_SLOT_PAGES;
        for (i, chunk) in framed.chunks(PAGE_BYTES).enumerate() {
            let mut page = [0u8; PAGE_BYTES];
            page.copy_from_slice(chunk);
            store.write_page(slot_start + i as u64, &page)?;
        }
        Ok(())
    }

    /// Decodes one manifest slot; `None` for anything invalid.
    #[allow(clippy::type_complexity)]
    fn try_read_manifest<S: BlockStore>(
        store: &mut S,
        geom: IndexGeometry,
        slot: u64,
    ) -> Result<Option<(u64, u64, Vec<Vec<(u64, u64, u64)>>)>, IndexError> {
        let slot_start = slot * MANIFEST_SLOT_PAGES;
        let mut framed = Vec::with_capacity(MANIFEST_SLOT_PAGES as usize * PAGE_BYTES);
        for p in 0..MANIFEST_SLOT_PAGES {
            framed.extend_from_slice(&store.read_page(slot_start + p)?);
        }
        if u32::from_le_bytes(framed[..4].try_into().expect("4")) != MANIFEST_MAGIC {
            return Ok(None);
        }
        let body_len = u32::from_le_bytes(framed[4..8].try_into().expect("4")) as usize;
        if 12 + body_len > framed.len() {
            return Ok(None);
        }
        let stored = u32::from_le_bytes(framed[8 + body_len..12 + body_len].try_into().expect("4"));
        if stored != crc32(&framed[..8 + body_len]) {
            return Ok(None);
        }
        let body = &framed[8..8 + body_len];
        if body.len() < 17 || body[16] as usize != LEVELS {
            return Ok(None);
        }
        let seq = u64::from_le_bytes(body[..8].try_into().expect("8"));
        let wal_gen = u64::from_le_bytes(body[8..16].try_into().expect("8"));
        let mut pos = 17usize;
        let mut levels = Vec::with_capacity(LEVELS);
        for _ in 0..LEVELS {
            if pos + 4 > body.len() {
                return Ok(None);
            }
            let count = u32::from_le_bytes(body[pos..pos + 4].try_into().expect("4")) as usize;
            pos += 4;
            if count > 4096 || pos + count * 24 > body.len() {
                return Ok(None);
            }
            let mut segs = Vec::with_capacity(count);
            for _ in 0..count {
                let start = u64::from_le_bytes(body[pos..pos + 8].try_into().expect("8"));
                let pages = u64::from_le_bytes(body[pos + 8..pos + 16].try_into().expect("8"));
                let entries = u64::from_le_bytes(body[pos + 16..pos + 24].try_into().expect("8"));
                pos += 24;
                if pages == 0 || start < geom.heap_start() || start + pages > geom.pages {
                    return Ok(None);
                }
                segs.push((start, pages, entries));
            }
            levels.push(segs);
        }
        Ok(Some((seq, wal_gen, levels)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecStore;

    fn fresh(pages: u64) -> (VecStore, MetaIndex) {
        let geom = IndexGeometry::for_pages(pages).unwrap();
        let mut store = VecStore::new(pages);
        let index = MetaIndex::format(&mut store, geom).unwrap();
        (store, index)
    }

    fn key(i: u32) -> Vec<u8> {
        format!("k/{i:06}").into_bytes()
    }

    fn val(i: u32) -> Vec<u8> {
        format!("value-{i}-{}", "x".repeat((i % 23) as usize)).into_bytes()
    }

    #[test]
    fn put_get_across_flush_and_compaction() {
        let (mut store, mut index) = fresh(8192);
        for i in 0..6000 {
            index.put(&mut store, &key(i), &val(i)).unwrap();
        }
        assert!(index.stats().flushes > 0, "6000 entries must have flushed");
        assert!(index.stats().compactions > 0, "levels must have merged");
        for i in (0..6000).step_by(37) {
            assert_eq!(index.get(&mut store, &key(i)).unwrap(), Some(val(i)));
        }
        assert_eq!(index.get(&mut store, b"k/absent").unwrap(), None);
    }

    #[test]
    fn delete_masks_older_segments() {
        let (mut store, mut index) = fresh(2048);
        for i in 0..1500 {
            index.put(&mut store, &key(i), &val(i)).unwrap();
        }
        index.delete(&mut store, &key(7)).unwrap();
        index.flush(&mut store).unwrap();
        assert_eq!(index.get(&mut store, &key(7)).unwrap(), None);
        assert_eq!(index.get(&mut store, &key(8)).unwrap(), Some(val(8)));
        let scan = index.scan_all(&mut store).unwrap();
        assert_eq!(scan.len(), 1499);
        assert!(!scan.iter().any(|(k, _)| k == &key(7)));
    }

    #[test]
    fn reopen_replays_bounded_wal_tail() {
        let (mut store, mut index) = fresh(1024);
        for i in 0..40 {
            index.put(&mut store, &key(i), &val(i)).unwrap();
        }
        let seq = index.manifest_seq();
        drop(index);

        store.reset_counters();
        let geom = IndexGeometry::for_pages(1024).unwrap();
        let (mut reopened, report) = MetaIndex::open(&mut store, geom).unwrap();
        assert!(!report.torn_tail);
        assert!(report.wal_replayed > 0);
        assert_eq!(reopened.manifest_seq(), seq);
        // Open cost: both manifest slots + the WAL region, nothing else.
        assert!(
            store.reads() <= 2 * MANIFEST_SLOT_PAGES + geom.wal_pages,
            "open read {} pages",
            store.reads()
        );
        for i in 0..40 {
            assert_eq!(reopened.get(&mut store, &key(i)).unwrap(), Some(val(i)));
        }
    }

    #[test]
    fn torn_wal_tail_recovers_to_prefix() {
        let (mut store, mut index) = fresh(1024);
        for i in 0..30 {
            index.put(&mut store, &key(i), &val(i)).unwrap();
        }
        let wal_off = index.wal_bytes();
        assert!(wal_off > 0);
        let geom = IndexGeometry::for_pages(1024).unwrap();
        // Corrupt the last record's CRC byte.
        let page = geom.wal_start() + ((wal_off - 1) / PAGE_BYTES) as u64;
        store.corrupt_byte(page, (wal_off - 1) % PAGE_BYTES);
        drop(index);

        let (mut reopened, report) = MetaIndex::open(&mut store, geom).unwrap();
        assert!(report.torn_tail, "the damaged tail must be reported");
        assert_eq!(reopened.get(&mut store, &key(0)).unwrap(), Some(val(0)));
        assert_eq!(reopened.get(&mut store, &key(29)).unwrap(), None);
    }

    #[test]
    fn flipped_segment_byte_is_typed_corruption() {
        let (mut store, mut index) = fresh(1024);
        for i in 0..200 {
            index.put(&mut store, &key(i), &val(i)).unwrap();
        }
        index.flush(&mut store).unwrap();
        // Find a heap page holding segment data and flip a byte in it.
        let geom = IndexGeometry::for_pages(1024).unwrap();
        let mut hit = None;
        for page in geom.heap_start()..geom.pages {
            let data = store.read_page(page).unwrap();
            if data.iter().any(|&b| b != 0) {
                hit = Some(page);
            }
        }
        let page = hit.expect("segments were written");
        store.corrupt_byte(page, 100);
        drop(index);
        let (mut reopened, _) = MetaIndex::open(&mut store, geom).unwrap();
        let mut saw_corrupt = false;
        for i in 0..200 {
            match reopened.get(&mut store, &key(i)) {
                Ok(_) => {}
                Err(IndexError::Corrupt { .. }) => saw_corrupt = true,
                Err(e) => panic!("wrong error type: {e}"),
            }
        }
        assert!(saw_corrupt, "the flipped byte must surface as Corrupt");
    }

    #[test]
    fn manifest_survives_one_vandalized_slot() {
        let (mut store, mut index) = fresh(1024);
        for i in 0..50 {
            index.put(&mut store, &key(i), &val(i)).unwrap();
        }
        index.flush(&mut store).unwrap();
        let live_slot = index.manifest_seq() % 2;
        let dead_slot = 1 - live_slot;
        for p in 0..MANIFEST_SLOT_PAGES {
            store.corrupt_byte(dead_slot * MANIFEST_SLOT_PAGES + p, 0);
        }
        drop(index);
        let geom = IndexGeometry::for_pages(1024).unwrap();
        let (mut reopened, _) = MetaIndex::open(&mut store, geom).unwrap();
        assert_eq!(reopened.get(&mut store, &key(49)).unwrap(), Some(val(49)));
    }

    #[test]
    fn unformatted_region_is_typed_corruption() {
        let mut store = VecStore::new(64);
        let geom = IndexGeometry::for_pages(64).unwrap();
        assert!(matches!(
            MetaIndex::open(&mut store, geom),
            Err(IndexError::Corrupt { .. })
        ));
    }

    #[test]
    fn heap_exhaustion_is_typed() {
        let geom = IndexGeometry::new(IndexGeometry::MIN_PAGES, 2).unwrap();
        let mut store = VecStore::new(geom.pages);
        let mut index = MetaIndex::format(&mut store, geom).unwrap();
        let mut err = None;
        for i in 0..100_000 {
            let big = vec![(i % 251) as u8; MAX_VALUE_BYTES];
            match index.put(&mut store, &key(i), &big) {
                Ok(()) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(IndexError::RegionFull { .. })));
    }

    #[test]
    fn full_region_keeps_every_acknowledged_entry() {
        let (mut store, mut index) = fresh(64);
        let value = |i: u32| vec![(i % 251) as u8; 60];
        let mut acked: Vec<u32> = Vec::new();
        let first_err = loop {
            let i = acked.len() as u32;
            assert!(i < 100_000, "a 64-page region must fill");
            match index.put(&mut store, &key(i), &value(i)) {
                Ok(()) => acked.push(i),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(first_err, IndexError::RegionFull { .. }),
            "{first_err:?}"
        );

        // Every later mutation fails typed and logs nothing.
        let wal = index.wal_bytes();
        for i in 0..8 {
            let put = index.put(&mut store, &key(900_000 + i), &value(i));
            assert!(matches!(put, Err(IndexError::RegionFull { .. })), "{put:?}");
            let delete = index.delete(&mut store, &key(acked[i as usize]));
            assert!(
                matches!(delete, Err(IndexError::RegionFull { .. })),
                "{delete:?}"
            );
        }
        assert_eq!(index.wal_bytes(), wal);

        let expected: Vec<(Vec<u8>, Vec<u8>)> = acked.iter().map(|&i| (key(i), value(i))).collect();
        let geom = IndexGeometry::for_pages(64).unwrap();
        let (mut reopened, _) = MetaIndex::open(&mut store, geom).unwrap();
        for index in [&mut index, &mut reopened] {
            for (k, v) in &expected {
                assert_eq!(index.get(&mut store, k).unwrap().as_ref(), Some(v));
            }
            assert_eq!(index.scan_all(&mut store).unwrap(), expected);
        }
    }

    #[test]
    fn oversize_entries_rejected() {
        let (mut store, mut index) = fresh(64);
        let e = index
            .put(&mut store, &[0u8; MAX_KEY_BYTES + 1], b"v")
            .unwrap_err();
        assert!(matches!(e, IndexError::Oversize { .. }));
        let e = index
            .put(&mut store, b"k", &[0u8; MAX_VALUE_BYTES + 1])
            .unwrap_err();
        assert!(matches!(e, IndexError::Oversize { .. }));
        assert!(index.delete(&mut store, &[0u8; MAX_KEY_BYTES + 1]).is_err());
    }

    #[test]
    fn tombstones_dropped_at_bottom_level() {
        let (mut store, mut index) = fresh(8192);
        for i in 0..2000 {
            index.put(&mut store, &key(i), &val(i)).unwrap();
        }
        for i in 0..2000 {
            index.delete(&mut store, &key(i)).unwrap();
        }
        // Force enough flushes to push everything through the levels.
        for round in 0..30 {
            index
                .put(&mut store, format!("pad/{round}").as_bytes(), b"p")
                .unwrap();
            index.flush(&mut store).unwrap();
        }
        let live: u64 = index.segment_entries();
        assert!(
            live < 2000,
            "bottom-level merges must shed tombstoned pairs, kept {live}"
        );
        assert_eq!(index.get(&mut store, &key(123)).unwrap(), None);
    }

    #[test]
    fn bloom_skips_accumulate() {
        let (mut store, mut index) = fresh(2048);
        for i in 0..1500 {
            index.put(&mut store, &key(i), &val(i)).unwrap();
        }
        index.flush(&mut store).unwrap();
        for i in 0..500 {
            let miss = format!("absent/{i}");
            assert_eq!(index.get(&mut store, miss.as_bytes()).unwrap(), None);
        }
        assert!(
            index.stats().bloom_skips > 0,
            "misses must be pruned by blooms"
        );
    }

    #[test]
    fn scan_all_matches_inserted_state() {
        let (mut store, mut index) = fresh(2048);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for i in 0..1200 {
            index.put(&mut store, &key(i), &val(i)).unwrap();
            model.insert(key(i), val(i));
            if i % 5 == 0 {
                index.delete(&mut store, &key(i)).unwrap();
                model.remove(&key(i));
            }
        }
        let scan = index.scan_all(&mut store).unwrap();
        let expect: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(scan, expect);
    }
}
