//! The SERO log-structured file system.
//!
//! §4 of the paper asks "what properties a high performance,
//! tamper-evident file system should have so that it can serve a SERO
//! device" and answers with an LFS-style design: cluster writes, cluster
//! *heat-candidates*, never copy heated lines, and let the hash machinery
//! provide tamper evidence. [`SeroFs`] implements that design:
//!
//! * Files are written log-style into segments through the
//!   [`Allocator`]'s clustering policy.
//! * [`SeroFs::heat`] relocates a file into a fresh aligned line
//!   (hash ‖ inode ‖ data), heats it, and the file becomes immutable —
//!   its blocks can never again be moved, so placement happened exactly
//!   once, in the right place ("lines are heated in the right place,
//!   avoiding the need to copy them").
//! * The cleaner (see [`crate::cleaner`]) reclaims dead blocks but skips
//!   heated segments.
//! * A checkpoint region persists the directory and inode map;
//!   [`crate::fsck`] recovers heated files even with the checkpoint
//!   destroyed.
//!
//! # Examples
//!
//! ```
//! use sero_fs::fs::{FsConfig, SeroFs};
//! use sero_fs::alloc::WriteClass;
//! use sero_core::device::SeroDevice;
//!
//! let dev = SeroDevice::with_blocks(256);
//! let mut fs = SeroFs::format(dev, FsConfig::default())?;
//! fs.create("trial-balance.csv", b"assets,1000", WriteClass::Archival)?;
//! let line = fs.heat("trial-balance.csv", b"2008 audit".to_vec(), 0)?;
//! assert!(fs.verify("trial-balance.csv")?.is_intact());
//! assert_eq!(fs.read("trial-balance.csv")?, b"assets,1000");
//! assert!(line.len() >= 4);
//! # Ok::<(), sero_fs::error::FsError>(())
//! ```

use crate::alloc::{Allocator, BlockUse, ClusterPolicy, WriteClass};
use crate::error::FsError;
use crate::inode::{FileKind, Inode, MAX_BLOCKS, MAX_FILE_BYTES, MAX_NAME_BYTES, NDIRECT};
use crate::meta;
use sero_codec::crc32::crc32;
use sero_core::device::{ScrubStateRestore, SeroDevice};
use sero_core::journal::{JournalError, WmrmRegion};
use sero_core::line::{Line, MAX_ORDER};
use sero_core::sched::ScrubScheduler;
use sero_core::scrub::{scrub_device, ScrubConfig, ScrubReport};
use sero_core::tamper::VerifyOutcome;
use sero_index::{
    BlockStore, IndexError, IndexGeometry, IndexStats, MetaIndex, OpenReport, PAGE_BYTES,
};
use sero_probe::sector::SECTOR_DATA_BYTES;
use std::collections::{BTreeMap, BTreeSet};

/// Checkpoint magic ("SCKP").
const CHECKPOINT_MAGIC: u32 = 0x53434B50;

// One index page maps onto one device sector.
const _: () = assert!(PAGE_BYTES == SECTOR_DATA_BYTES);

/// File-system configuration, persisted in the checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsConfig {
    /// Blocks per segment.
    pub segment_blocks: u64,
    /// Blocks reserved for the checkpoint (must fit one segment).
    pub checkpoint_blocks: u64,
    /// Blocks reserved, immediately after the checkpoint, for the LSM
    /// metadata index. `0` disables the index: the directory and inode
    /// map then live in the checkpoint itself (the legacy v2 layout),
    /// which caps the namespace at what `checkpoint_blocks` can hold.
    pub index_blocks: u64,
    /// Allocation clustering policy.
    pub policy: ClusterPolicy,
}

impl Default for FsConfig {
    fn default() -> FsConfig {
        FsConfig {
            segment_blocks: 64,
            checkpoint_blocks: 16,
            index_blocks: 0,
            policy: ClusterPolicy::HeatAffinity,
        }
    }
}

impl FsConfig {
    /// The default configuration with the metadata index enabled: the
    /// rest of segment 0 (48 blocks) becomes the index region, the
    /// checkpoint shrinks to superblock-scale state, and the namespace
    /// is no longer bounded by `checkpoint_blocks`. Size `index_blocks`
    /// up for large devices — the region must hold every directory
    /// entry and inode record.
    pub fn indexed() -> FsConfig {
        FsConfig {
            index_blocks: 48,
            ..FsConfig::default()
        }
    }
}

/// Aggregate operation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsStats {
    /// Files created.
    pub files_created: u64,
    /// Files removed.
    pub files_removed: u64,
    /// Data blocks written (excluding cleaner traffic).
    pub blocks_written: u64,
    /// Data blocks read.
    pub blocks_read: u64,
    /// Files heated.
    pub heats: u64,
    /// Cleaner invocations.
    pub cleaner_runs: u64,
    /// Live blocks the cleaner copied.
    pub cleaner_copied: u64,
    /// Dead blocks the cleaner reclaimed.
    pub cleaner_reclaimed: u64,
    /// Segments the cleaner skipped because heat pinned them.
    pub cleaner_skipped_heated: u64,
}

/// Metadata returned by [`SeroFs::stat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileInfo {
    /// Inode number.
    pub ino: u64,
    /// Size in bytes.
    pub size: u64,
    /// Protecting line, when heated.
    pub heated: Option<Line>,
    /// Number of data blocks.
    pub blocks: usize,
    /// Modification time.
    pub mtime: u64,
    /// True when the file system is in degraded mode (quarantined blocks
    /// on the device): reads and verification are served, writes refused.
    pub degraded: bool,
}

/// The SERO-aware log-structured file system.
#[derive(Debug, Clone)]
pub struct SeroFs {
    pub(crate) dev: SeroDevice,
    pub(crate) config: FsConfig,
    pub(crate) alloc: Allocator,
    pub(crate) inodes: BTreeMap<u64, Inode>,
    /// ino → block address of the inode's main block on the device.
    pub(crate) inode_loc: BTreeMap<u64, u64>,
    /// ino → block address of the inode's indirect block, if written.
    pub(crate) indirect_loc: BTreeMap<u64, u64>,
    pub(crate) directory: BTreeMap<String, u64>,
    pub(crate) next_ino: u64,
    pub(crate) stats: FsStats,
    /// What [`SeroFs::mount`] restored from the checkpoint's persisted
    /// scrub state (`None` for a freshly formatted fs or a rejected record).
    pub(crate) scrub_restore: Option<ScrubStateRestore>,
    /// The scrub pass driven through the command API
    /// ([`SeroFs::handle`](crate::serve)), when one has been started.
    pub(crate) service_scrub: Option<ScrubScheduler>,
    /// The metadata index, when the configuration reserves a region.
    pub(crate) index: Option<MetaIndex>,
    /// Write-back page cache over the index region. Index reads fill it;
    /// index writes land here and are flushed to the device by
    /// [`SeroFs::sync`], so per-operation device traffic is unchanged by
    /// the index.
    pub(crate) index_cache: BTreeMap<u64, [u8; PAGE_BYTES]>,
    /// Cached index pages not yet written to the device.
    pub(crate) index_dirty: BTreeSet<u64>,
    /// What opening the index observed at mount.
    pub(crate) index_open: Option<OpenReport>,
}

/// Adapts the reserved WMRM index region to the index's [`BlockStore`]
/// through the file system's write-back page cache.
struct FsIndexStore<'a> {
    dev: &'a mut SeroDevice,
    region: WmrmRegion,
    cache: &'a mut BTreeMap<u64, [u8; PAGE_BYTES]>,
    dirty: &'a mut BTreeSet<u64>,
}

impl BlockStore for FsIndexStore<'_> {
    fn page_count(&self) -> u64 {
        self.region.blocks()
    }

    fn read_page(&mut self, page: u64) -> Result<[u8; PAGE_BYTES], IndexError> {
        if let Some(data) = self.cache.get(&page) {
            return Ok(*data);
        }
        let data = self
            .region
            .read_page(self.dev, page)
            .map_err(|e| IndexError::Store {
                reason: e.to_string(),
            })?;
        self.cache.insert(page, data);
        Ok(data)
    }

    fn write_page(&mut self, page: u64, data: &[u8; PAGE_BYTES]) -> Result<(), IndexError> {
        if page >= self.region.blocks() {
            return Err(IndexError::Store {
                reason: format!(
                    "page {page} outside the {}-page index region",
                    self.region.blocks()
                ),
            });
        }
        self.cache.insert(page, *data);
        self.dirty.insert(page);
        Ok(())
    }
}

/// Maps index failures into the file system's error vocabulary: an
/// exhausted index region is a space problem, everything else is a
/// metadata-integrity problem.
fn index_err(e: IndexError) -> FsError {
    match e {
        IndexError::RegionFull {
            needed_pages,
            free_pages,
        } => FsError::NoSpace {
            needed: needed_pages,
            free: free_pages,
        },
        other => FsError::Corrupt {
            reason: format!("metadata index: {other}"),
        },
    }
}

impl SeroFs {
    /// Formats `dev` with a fresh, empty file system.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupt`] for nonsensical configurations; device errors
    /// while writing the initial checkpoint.
    pub fn format(dev: SeroDevice, config: FsConfig) -> Result<SeroFs, FsError> {
        if config.segment_blocks == 0
            || dev.block_count() % config.segment_blocks != 0
            || config.checkpoint_blocks > config.segment_blocks
            || config.checkpoint_blocks == 0
            || config.checkpoint_blocks + config.index_blocks > dev.block_count()
        {
            return Err(FsError::Corrupt {
                reason: "configuration does not tile the device".to_string(),
            });
        }
        if config.index_blocks > 0 {
            // Fail loudly on an unusable geometry before touching the device.
            IndexGeometry::for_pages(config.index_blocks).map_err(|e| FsError::Corrupt {
                reason: format!("index region: {e}"),
            })?;
        }
        let alloc = Allocator::new(
            dev.block_count(),
            config.segment_blocks,
            config.checkpoint_blocks,
            config.index_blocks,
            config.policy,
        );
        let mut fs = SeroFs {
            dev,
            config,
            alloc,
            inodes: BTreeMap::new(),
            inode_loc: BTreeMap::new(),
            indirect_loc: BTreeMap::new(),
            directory: BTreeMap::new(),
            next_ino: 1,
            stats: FsStats::default(),
            scrub_restore: None,
            service_scrub: None,
            index: None,
            index_cache: BTreeMap::new(),
            index_dirty: BTreeSet::new(),
            index_open: None,
        };
        if config.index_blocks > 0 {
            let geom = IndexGeometry::for_pages(config.index_blocks).expect("validated above");
            let region = Self::index_region(&config).expect("index_blocks > 0");
            let mut store = FsIndexStore {
                dev: &mut fs.dev,
                region,
                cache: &mut fs.index_cache,
                dirty: &mut fs.index_dirty,
            };
            fs.index = Some(MetaIndex::format(&mut store, geom).map_err(index_err)?);
        }
        fs.flush_index_pages()?;
        fs.write_checkpoint()?;
        Ok(fs)
    }

    /// Mounts an existing file system, reconstructing all in-memory state
    /// from the checkpoint, the metadata index (or, for unindexed file
    /// systems, the inode blocks), and a physical scan for heated lines.
    ///
    /// An indexed mount never probes per-file device blocks: the
    /// checkpoint carries only superblock-scale state, and the directory
    /// and inode map are hydrated from the index — manifest, a bounded
    /// WAL tail, and the index's own segments.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupt`] when the checkpoint, the index, or an inode
    /// fails to parse.
    pub fn mount(mut dev: SeroDevice) -> Result<SeroFs, FsError> {
        let (config, mut next_ino, mut inode_loc, mut directory, scrub_state) =
            Self::read_checkpoint(&mut dev)?;
        let mut alloc = Allocator::new(
            dev.block_count(),
            config.segment_blocks,
            config.checkpoint_blocks,
            config.index_blocks,
            config.policy,
        );

        // Physical truth first: rediscover heated lines. The incremental
        // path skips blocks of lines the registry already knows, so a
        // remount of a long-lived device scans only the WMRM remainder.
        dev.refresh_registry()?;
        let records: Vec<_> = dev.heated_lines().cloned().collect();
        for record in &records {
            alloc.pin_line(record.line);
            alloc.set_use(record.line.hash_block(), BlockUse::HashBlock);
        }

        // Restore the persisted scrub bookkeeping from the checkpoint: the
        // rediscovered lines start with `verified_epoch == 0`, which would
        // force the next incremental scrub into a full pass; the imported
        // state marks everything the last completed pass covered, so a
        // remount resumes with the same delta it had before detach. A
        // record that fails validation (e.g. written by a newer format
        // version) is "no usable state", never a mount failure — the data
        // stays accessible and the next pass simply runs full.
        let scrub_restore = dev.import_scrub_state(&scrub_state).ok();

        let mut inodes = BTreeMap::new();
        let mut indirect_loc = BTreeMap::new();
        let mut index = None;
        let mut index_cache = BTreeMap::new();
        let mut index_dirty = BTreeSet::new();
        let mut index_open = None;

        if config.index_blocks > 0 {
            // Indexed mount: hydrate the namespace from the index —
            // manifest + bounded WAL tail + index segments — and never
            // probe per-file inode blocks on the device.
            let geom = IndexGeometry::for_pages(config.index_blocks).map_err(index_err)?;
            let region = Self::index_region(&config).expect("index_blocks > 0");
            let mut store = FsIndexStore {
                dev: &mut dev,
                region,
                cache: &mut index_cache,
                dirty: &mut index_dirty,
            };
            let (mut idx, report) = MetaIndex::open(&mut store, geom).map_err(index_err)?;
            let entries = idx.scan_all(&mut store).map_err(index_err)?;
            let mut record_chunks: BTreeMap<u64, Vec<(u8, Vec<u8>)>> = BTreeMap::new();
            for (key, value) in entries {
                if let Some(raw_name) = key.strip_prefix(b"d/") {
                    let name =
                        String::from_utf8(raw_name.to_vec()).map_err(|_| FsError::Corrupt {
                            reason: "index directory name is not UTF-8".to_string(),
                        })?;
                    let ino: [u8; 8] =
                        value.as_slice().try_into().map_err(|_| FsError::Corrupt {
                            reason: format!("index directory entry for {name:?} is not a u64"),
                        })?;
                    directory.insert(name, u64::from_le_bytes(ino));
                } else if let Some(rest) = key.strip_prefix(b"i/") {
                    if rest.len() != 9 {
                        return Err(FsError::Corrupt {
                            reason: "malformed inode-record key in index".to_string(),
                        });
                    }
                    let ino = u64::from_be_bytes(rest[..8].try_into().expect("8"));
                    record_chunks.entry(ino).or_default().push((rest[8], value));
                } else {
                    return Err(FsError::Corrupt {
                        reason: "unknown key family in metadata index".to_string(),
                    });
                }
            }
            for (ino, mut parts) in record_chunks {
                parts.sort_by_key(|(chunk, _)| *chunk);
                if parts.iter().enumerate().any(|(i, (c, _))| *c as usize != i) {
                    return Err(FsError::Corrupt {
                        reason: format!("inode {ino} record chunks are not contiguous"),
                    });
                }
                let values: Vec<Vec<u8>> = parts.into_iter().map(|(_, v)| v).collect();
                let record = meta::decode_record(&meta::assemble_record(&values)?)?;
                if record.inode.ino != ino {
                    return Err(FsError::Corrupt {
                        reason: format!("inode record {ino} names ino {}", record.inode.ino),
                    });
                }
                if let Some(loc) = record.inode_loc {
                    alloc.set_use(loc, BlockUse::InodeBlock { ino });
                    inode_loc.insert(ino, loc);
                }
                if let Some(loc) = record.indirect_loc {
                    alloc.set_use(loc, BlockUse::Indirect { ino });
                    indirect_loc.insert(ino, loc);
                }
                for &b in &record.inode.blocks {
                    alloc.set_use(b, BlockUse::Data { ino });
                }
                // The checkpoint can trail the index by one sync; never
                // hand out an ino the index already knows.
                next_ino = next_ino.max(ino + 1);
                inodes.insert(ino, record.inode);
            }
            index = Some(idx);
            index_open = Some(report);
        } else {
            // Legacy mount: load inodes from the checkpoint's inode map
            // and mark their blocks.
            for (&ino, &block) in &inode_loc {
                let sector = dev.probe_mut().mrs(block).map_err(|e| FsError::Corrupt {
                    reason: format!("inode block {block} unreadable: {e}"),
                })?;
                let (mut inode, indirect_ptr) = Inode::decode(&sector.data)?;
                let total = {
                    // decode() returns direct prefix only; recover the count.
                    let declared = inode.blocks.len();
                    if let Some(ptr) = indirect_ptr {
                        // re-read count from size? The encoding stores n_blocks
                        // explicitly; decode kept only the direct prefix, so
                        // fetch the indirect block and extend.
                        let ind = dev.probe_mut().mrs(ptr).map_err(|e| FsError::Corrupt {
                            reason: format!("indirect block {ptr} unreadable: {e}"),
                        })?;
                        let n = (inode.size as usize).div_ceil(SECTOR_DATA_BYTES);
                        inode.attach_indirect(&ind.data, n)?;
                        indirect_loc.insert(ino, ptr);
                        alloc.set_use(ptr, BlockUse::Indirect { ino });
                        n
                    } else {
                        declared
                    }
                };
                debug_assert_eq!(inode.blocks.len(), total.max(inode.blocks.len()));
                alloc.set_use(block, BlockUse::InodeBlock { ino });
                for &b in &inode.blocks {
                    alloc.set_use(b, BlockUse::Data { ino });
                }
                inodes.insert(ino, inode);
            }
        }

        Ok(SeroFs {
            dev,
            config,
            alloc,
            inodes,
            inode_loc,
            indirect_loc,
            directory,
            next_ino,
            stats: FsStats::default(),
            scrub_restore,
            service_scrub: None,
            index,
            index_cache,
            index_dirty,
            index_open,
        })
    }

    // --- accessors --------------------------------------------------------

    /// The underlying SERO device.
    pub fn device(&self) -> &SeroDevice {
        &self.dev
    }

    /// Mutable device access — the §5 threat model's raw interface, for
    /// attack drills and experiments only. Application code should go
    /// through the typed operations or the [`SeroFs::handle`] command
    /// API; mutating the device underneath the file system bypasses
    /// allocator and directory bookkeeping (that being the point, for
    /// attack modelling).
    pub fn device_mut(&mut self) -> &mut SeroDevice {
        &mut self.dev
    }

    /// Consumes the file system, returning the device (for remount tests).
    pub fn into_device(self) -> SeroDevice {
        self.dev
    }

    /// Operation statistics.
    pub fn stats(&self) -> FsStats {
        self.stats
    }

    /// The configuration in force.
    pub fn config(&self) -> FsConfig {
        self.config
    }

    /// True when this file system carries a metadata index.
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// What opening the index observed at mount (`None` for an unindexed
    /// file system or a freshly formatted one): WAL records replayed and
    /// whether a torn tail was truncated back to the last durable record.
    pub fn index_open_report(&self) -> Option<OpenReport> {
        self.index_open
    }

    /// Index runtime counters (flushes, compactions, bloom skips), when
    /// an index is present.
    pub fn index_stats(&self) -> Option<IndexStats> {
        self.index.as_ref().map(|i| i.stats())
    }

    /// Resolves `name` through the on-index lookup path — memtable, then
    /// bloom-filtered segments — rather than the in-memory directory.
    /// Returns the inode number, or `None` when the index is absent or
    /// has no such entry. This is the probe `exp_metadata` uses to
    /// assert point-lookup cost.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupt`] for index corruption; device errors.
    pub fn index_lookup(&mut self, name: &str) -> Result<Option<u64>, FsError> {
        let key = meta::dir_key(name);
        let Some((index, mut store)) = self.index_parts() else {
            return Ok(None);
        };
        match index.get(&mut store, &key).map_err(index_err)? {
            None => Ok(None),
            Some(bytes) => {
                let arr: [u8; 8] = bytes.as_slice().try_into().map_err(|_| FsError::Corrupt {
                    reason: format!("index directory entry for {name:?} is not a u64"),
                })?;
                Ok(Some(u64::from_le_bytes(arr)))
            }
        }
    }

    // --- metadata index plumbing -----------------------------------------

    /// The reserved index region, when the configuration has one.
    fn index_region(config: &FsConfig) -> Option<WmrmRegion> {
        (config.index_blocks > 0).then(|| {
            WmrmRegion::new(config.checkpoint_blocks, config.index_blocks)
                .expect("non-empty index region")
        })
    }

    /// Splits the borrow: the index plus a [`BlockStore`] over the
    /// device and the write-back cache.
    fn index_parts(&mut self) -> Option<(&mut MetaIndex, FsIndexStore<'_>)> {
        let region = Self::index_region(&self.config)?;
        let index = self.index.as_mut()?;
        Some((
            index,
            FsIndexStore {
                dev: &mut self.dev,
                region,
                cache: &mut self.index_cache,
                dirty: &mut self.index_dirty,
            },
        ))
    }

    /// Upserts `name → ino` into the index.
    fn index_record_dirent(&mut self, name: &str, ino: u64) -> Result<(), FsError> {
        let key = meta::dir_key(name);
        let Some((index, mut store)) = self.index_parts() else {
            return Ok(());
        };
        index
            .put(&mut store, &key, &ino.to_le_bytes())
            .map_err(index_err)
    }

    /// Upserts `ino`'s chunked inode record into the index. `fresh`
    /// skips the stale-chunk deletes a brand-new record cannot need.
    fn index_record_file(&mut self, ino: u64, fresh: bool) -> Result<(), FsError> {
        if self.index.is_none() {
            return Ok(());
        }
        let chunks = {
            let inode = self.inodes.get(&ino).expect("recorded inode exists");
            meta::chunk_record(&meta::encode_record(
                inode,
                self.inode_loc.get(&ino).copied(),
                self.indirect_loc.get(&ino).copied(),
            ))
        };
        let written = chunks.len() as u8;
        let (index, mut store) = self.index_parts().expect("index present");
        for (i, chunk) in chunks.iter().enumerate() {
            index
                .put(&mut store, &meta::ino_key(ino, i as u8), chunk)
                .map_err(index_err)?;
        }
        if !fresh {
            // A shrunken record must not leave stale continuation chunks
            // behind for mount to assemble.
            for stale in written..meta::MAX_RECORD_CHUNKS {
                index
                    .delete(&mut store, &meta::ino_key(ino, stale))
                    .map_err(index_err)?;
            }
        }
        Ok(())
    }

    /// Drops `name` and `ino`'s record from the index.
    fn index_forget_file(&mut self, ino: u64, name: &str) -> Result<(), FsError> {
        let dkey = meta::dir_key(name);
        let Some((index, mut store)) = self.index_parts() else {
            return Ok(());
        };
        index.delete(&mut store, &dkey).map_err(index_err)?;
        for chunk in 0..meta::MAX_RECORD_CHUNKS {
            index
                .delete(&mut store, &meta::ino_key(ino, chunk))
                .map_err(index_err)?;
        }
        Ok(())
    }

    /// Writes every dirty cached index page to the device — called from
    /// [`SeroFs::sync`], keeping index durability on the same cadence as
    /// the checkpoint.
    fn flush_index_pages(&mut self) -> Result<(), FsError> {
        let Some(region) = Self::index_region(&self.config) else {
            return Ok(());
        };
        let dirty: Vec<u64> = self.index_dirty.iter().copied().collect();
        for page in dirty {
            let data = self.index_cache.get(&page).expect("dirty page is cached");
            region
                .write_page(&mut self.dev, page, data)
                .map_err(|e| match e {
                    JournalError::Device(d) => FsError::Device(d),
                    other => FsError::Corrupt {
                        reason: format!("index flush: {other}"),
                    },
                })?;
        }
        self.index_dirty.clear();
        Ok(())
    }

    /// Free blocks available for new data.
    pub fn free_blocks(&self) -> u64 {
        self.alloc.free_blocks()
    }

    /// Names of all files.
    pub fn list(&self) -> Vec<String> {
        self.directory.keys().cloned().collect()
    }

    /// True when `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.directory.contains_key(name)
    }

    /// Per-segment heated fractions — the §4.1 bimodality measurement.
    pub fn segment_heated_fractions(&self) -> Vec<f64> {
        self.alloc
            .segments()
            .iter()
            .map(|s| s.heated_fraction())
            .collect()
    }

    /// Number of segments containing at least one heated block.
    pub fn heat_touched_segments(&self) -> usize {
        self.alloc
            .segments()
            .iter()
            .filter(|s| s.heated > 0)
            .count()
    }

    /// Number of *mixed* segments: segments carrying both heated lines and
    /// live rewritable data. Mixed segments are what defeat the paper's
    /// bimodality — the cleaner must visit them for their live data yet can
    /// never fully reclaim them.
    pub fn mixed_segments(&self) -> usize {
        self.alloc
            .segments()
            .iter()
            .filter(|s| s.heated > 0 && s.live > 0)
            .count()
    }

    /// Bimodality score in [0, 1]: the fraction of heat-touched segments
    /// that are *pure* (no live rewritable data alongside the heat). 1.0
    /// is the paper's ideal — "only mostly heated segments and mostly
    /// unheated segments".
    pub fn bimodality_score(&self) -> f64 {
        let touched = self.heat_touched_segments();
        if touched == 0 {
            return 1.0;
        }
        1.0 - self.mixed_segments() as f64 / touched as f64
    }

    /// Live movable blocks currently sitting in heat-touched segments.
    /// This is exactly the traffic the cleaner will eventually have to
    /// copy *because* heat and live data share segments — the bandwidth
    /// §4.1's bimodality is designed to save.
    pub fn stranded_live_blocks(&self) -> u64 {
        self.alloc
            .segments()
            .iter()
            .filter(|s| s.heated > 0)
            .map(|s| s.live)
            .sum()
    }

    /// Metadata for `name`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`].
    pub fn stat(&self, name: &str) -> Result<FileInfo, FsError> {
        let inode = self.lookup(name)?;
        Ok(FileInfo {
            ino: inode.ino,
            size: inode.size,
            heated: inode.heated,
            blocks: inode.blocks.len(),
            mtime: inode.mtime,
            degraded: self.is_degraded(),
        })
    }

    /// True when the underlying device has quarantined blocks. In
    /// degraded mode the file system keeps serving reads, `stat`, `list`,
    /// `verify`, and scrubs, but refuses mutating operations with
    /// [`FsError::Degraded`] — an archive that can no longer write
    /// trustworthily must stay readable and auditable, never wedge.
    pub fn is_degraded(&self) -> bool {
        self.dev.is_degraded()
    }

    fn check_degraded(&mut self) -> Result<(), FsError> {
        if self.dev.is_degraded() {
            return Err(FsError::Degraded {
                quarantined_blocks: self.dev.quarantined_count(),
            });
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Result<&Inode, FsError> {
        let ino = self.directory.get(name).ok_or_else(|| FsError::NotFound {
            name: name.to_string(),
        })?;
        self.inodes.get(ino).ok_or_else(|| FsError::Corrupt {
            reason: format!("directory names ino {ino} with no inode"),
        })
    }

    // --- data path ---------------------------------------------------------

    fn alloc_block_or_clean(&mut self, class: WriteClass) -> Result<u64, FsError> {
        if let Some(b) = self.alloc.alloc_block(class) {
            return Ok(b);
        }
        self.run_cleaner(usize::MAX)?;
        self.alloc.alloc_block(class).ok_or(FsError::NoSpace {
            needed: 1,
            free: self.alloc.free_blocks(),
        })
    }

    fn write_data_blocks(
        &mut self,
        data: &[u8],
        class: WriteClass,
        ino: u64,
    ) -> Result<Vec<u64>, FsError> {
        let n = data.len().div_ceil(SECTOR_DATA_BYTES).max(1);
        // Allocate (and claim) all targets first, then push the data
        // through the batch write path: the allocator clusters, so most
        // files land as one or two contiguous extents and pay one seek
        // each. Claiming at allocation time matters — an unclaimed block
        // is still `Free` to the allocator's wrap-around sweep.
        let mut blocks = Vec::with_capacity(n);
        for _ in 0..n {
            let block = self.alloc_block_or_clean(class)?;
            self.alloc.set_use(block, BlockUse::Data { ino });
            blocks.push(block);
        }
        let mut sectors = Vec::with_capacity(n);
        for chunk_idx in 0..n {
            let mut sector = [0u8; SECTOR_DATA_BYTES];
            let from = chunk_idx * SECTOR_DATA_BYTES;
            let to = ((chunk_idx + 1) * SECTOR_DATA_BYTES).min(data.len());
            if from < data.len() {
                sector[..to - from].copy_from_slice(&data[from..to]);
            }
            sectors.push(sector);
        }
        self.dev.write_blocks(&blocks, &sectors)?;
        self.stats.blocks_written += n as u64;
        Ok(blocks)
    }

    /// Creates `name` with `data`, using `class` as the §4.1 clustering
    /// hint, and returns the inode number.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`], [`FsError::BadName`],
    /// [`FsError::FileTooLarge`], [`FsError::NoSpace`], device errors.
    pub fn create(&mut self, name: &str, data: &[u8], class: WriteClass) -> Result<u64, FsError> {
        self.check_degraded()?;
        if name.is_empty() || name.len() > MAX_NAME_BYTES {
            return Err(FsError::BadName {
                name: name.to_string(),
            });
        }
        if self.directory.contains_key(name) {
            return Err(FsError::Exists {
                name: name.to_string(),
            });
        }
        if data.len() > MAX_FILE_BYTES {
            return Err(FsError::FileTooLarge {
                size: data.len(),
                max: MAX_FILE_BYTES,
            });
        }
        let ino = self.next_ino;
        self.next_ino += 1;
        let blocks = self.write_data_blocks(data, class, ino)?;
        let mut inode = Inode::new(ino, name, FileKind::Regular);
        inode.size = data.len() as u64;
        inode.blocks = blocks;
        self.inodes.insert(ino, inode);
        self.directory.insert(name.to_string(), ino);
        // Record the file in the metadata index, inode record first: the
        // directory entry commits the name, so an index that refuses
        // either (region full) leaves no name without its record. The
        // create then fails cleanly, and no phantom file survives in the
        // in-memory maps.
        if let Err(e) = self
            .index_record_file(ino, true)
            .and_then(|()| self.index_record_dirent(name, ino))
        {
            self.directory.remove(name);
            if let Some(inode) = self.inodes.remove(&ino) {
                for b in inode.blocks {
                    self.alloc.set_use(b, BlockUse::Dead);
                }
            }
            return Err(e);
        }
        self.stats.files_created += 1;
        Ok(ino)
    }

    /// Reads the full contents of `name`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`]; device errors (an unreadable block of a
    /// heated file is tamper evidence — surfaced by [`SeroFs::verify`]).
    pub fn read(&mut self, name: &str) -> Result<Vec<u8>, FsError> {
        let (blocks, size) = {
            let inode = self.lookup(name)?;
            (inode.blocks.clone(), inode.size as usize)
        };
        let sectors = self.dev.read_blocks(&blocks)?;
        self.stats.blocks_read += blocks.len() as u64;
        let mut out = Vec::with_capacity(blocks.len() * SECTOR_DATA_BYTES);
        for sector in &sectors {
            out.extend_from_slice(sector);
        }
        out.truncate(size);
        Ok(out)
    }

    /// Overwrites `name` with `data`.
    ///
    /// # Errors
    ///
    /// [`FsError::ReadOnlyFile`] for heated files — "once an area has been
    /// heated, it can no longer be rewritten with impunity" (§8). The
    /// refused line is flagged on the device so the next incremental scrub
    /// re-verifies it: an overwrite attempt on frozen data is exactly the
    /// activity a scrub should chase.
    pub fn write(&mut self, name: &str, data: &[u8], class: WriteClass) -> Result<(), FsError> {
        self.check_degraded()?;
        let ino = {
            let inode = self.lookup(name)?;
            if let Some(line) = inode.heated {
                self.dev.flag_line(line);
                return Err(FsError::ReadOnlyFile {
                    name: name.to_string(),
                    line,
                });
            }
            inode.ino
        };
        if data.len() > MAX_FILE_BYTES {
            return Err(FsError::FileTooLarge {
                size: data.len(),
                max: MAX_FILE_BYTES,
            });
        }
        let new_blocks = self.write_data_blocks(data, class, ino)?;
        let inode = self.inodes.get_mut(&ino).expect("looked up");
        let old_blocks = std::mem::replace(&mut inode.blocks, new_blocks);
        inode.size = data.len() as u64;
        inode.mtime += 1;
        for b in old_blocks {
            self.alloc.set_use(b, BlockUse::Dead);
        }
        self.index_record_file(ino, false)?;
        Ok(())
    }

    /// Removes `name`.
    ///
    /// # Errors
    ///
    /// [`FsError::ReadOnlyFile`] for heated files: §5.2 — `rm` "implies
    /// writing the inode, which will be tamper-evident", so the protocol
    /// refuses outright and flags the line for the next incremental scrub.
    pub fn remove(&mut self, name: &str) -> Result<(), FsError> {
        self.check_degraded()?;
        let ino = {
            let inode = self.lookup(name)?;
            if let Some(line) = inode.heated {
                self.dev.flag_line(line);
                return Err(FsError::ReadOnlyFile {
                    name: name.to_string(),
                    line,
                });
            }
            inode.ino
        };
        // Index first: a refused removal (region full) must not free
        // blocks the index still maps to the name.
        self.index_forget_file(ino, name)?;
        let inode = self.inodes.remove(&ino).expect("looked up");
        for b in inode.blocks {
            self.alloc.set_use(b, BlockUse::Dead);
        }
        if let Some(loc) = self.inode_loc.remove(&ino) {
            self.alloc.set_use(loc, BlockUse::Dead);
        }
        if let Some(loc) = self.indirect_loc.remove(&ino) {
            self.alloc.set_use(loc, BlockUse::Dead);
        }
        self.directory.remove(name);
        self.stats.files_removed += 1;
        Ok(())
    }

    // --- heat & verify ------------------------------------------------------

    /// Heats `name`: relocates the file into a fresh aligned line laid out
    /// as `hash ‖ inode ‖ [indirect] ‖ data`, heats the line, and marks the
    /// file immutable. Returns the line. Idempotent for already-heated
    /// files.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] when no aligned line can be found even after
    /// cleaning; device errors from the heat protocol.
    pub fn heat(&mut self, name: &str, metadata: Vec<u8>, timestamp: u64) -> Result<Line, FsError> {
        let ino = {
            let inode = self.lookup(name)?;
            if let Some(line) = inode.heated {
                return Ok(line); // idempotent (and safe while degraded)
            }
            inode.ino
        };
        self.check_degraded()?;
        let (old_blocks, size, needs_indirect) = {
            let inode = &self.inodes[&ino];
            (
                inode.blocks.clone(),
                inode.size,
                inode.blocks.len() > NDIRECT,
            )
        };

        // Line layout: hash + inode + (indirect) + data.
        let total = 2 + needs_indirect as u64 + old_blocks.len() as u64;
        let order = (64 - (total - 1).leading_zeros()).max(1);
        if order > MAX_ORDER {
            return Err(FsError::FileTooLarge {
                size: size as usize,
                max: MAX_FILE_BYTES,
            });
        }
        let line = match self.alloc.alloc_line(order, WriteClass::Archival) {
            Some(l) => l,
            None => {
                self.run_cleaner(usize::MAX)?;
                self.alloc
                    .alloc_line(order, WriteClass::Archival)
                    .ok_or(FsError::NoSpace {
                        needed: 1 << order,
                        free: self.alloc.free_blocks(),
                    })?
            }
        };

        // Copy data into the line: batch-read the scattered source blocks,
        // batch-write the contiguous target extent.
        let inode_block = line.start() + 1;
        let indirect_block = needs_indirect.then_some(line.start() + 2);
        let data_start = line.start() + 2 + needs_indirect as u64;
        let contents = self.dev.read_blocks(&old_blocks)?;
        let new_blocks: Vec<u64> = (0..old_blocks.len() as u64)
            .map(|i| data_start + i)
            .collect();
        self.dev.write_blocks(&new_blocks, &contents)?;
        for &target in &new_blocks {
            self.alloc.set_use(target, BlockUse::Data { ino });
        }

        // Zero-fill the line's slack: the heat operation hashes every
        // block of the line, so all of them must be formatted. Slack
        // blocks are pinned by the heat and never allocatable again.
        let slack: Vec<u64> = (data_start + old_blocks.len() as u64..line.end()).collect();
        self.dev
            .write_blocks(&slack, &vec![[0u8; SECTOR_DATA_BYTES]; slack.len()])?;
        for &block in &slack {
            self.alloc.set_use(block, BlockUse::Dead);
        }

        // Write the updated inode inside the line.
        {
            let inode = self.inodes.get_mut(&ino).expect("looked up");
            inode.blocks = new_blocks;
            inode.heated = Some(line);
        }
        let inode = &self.inodes[&ino];
        let (main, indirect) = inode.encode(indirect_block)?;
        self.dev.write_block(inode_block, &main)?;
        self.alloc
            .set_use(inode_block, BlockUse::InodeBlock { ino });
        if let (Some(ind_data), Some(ind_block)) = (indirect, indirect_block) {
            self.dev.write_block(ind_block, &ind_data)?;
            self.alloc.set_use(ind_block, BlockUse::Indirect { ino });
        }

        // Burn the hash.
        self.dev.heat_line(line, metadata, timestamp)?;
        self.alloc.pin_line(line);
        self.alloc.set_use(line.hash_block(), BlockUse::HashBlock);

        // Retire the old copies and stale locations.
        for b in old_blocks {
            self.alloc.set_use(b, BlockUse::Dead);
        }
        if let Some(loc) = self.inode_loc.insert(ino, inode_block) {
            self.alloc.set_use(loc, BlockUse::Dead);
        }
        if let Some(old) = self.indirect_loc.remove(&ino) {
            self.alloc.set_use(old, BlockUse::Dead);
        }
        if let Some(ind) = indirect_block {
            self.indirect_loc.insert(ino, ind);
        }
        // The record changed shape in every way that matters: heated
        // line, relocated data blocks, in-line inode location.
        self.index_record_file(ino, false)?;
        self.stats.heats += 1;
        Ok(line)
    }

    /// Verifies the heated line protecting `name`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`]; [`FsError::ReadOnlyFile`] is *not* an error
    /// here — unheated files simply return
    /// [`VerifyOutcome::NotHeated`].
    pub fn verify(&mut self, name: &str) -> Result<VerifyOutcome, FsError> {
        let line = match self.lookup(name)?.heated {
            Some(line) => line,
            None => return Ok(VerifyOutcome::NotHeated),
        };
        Ok(self.dev.verify_line(line)?)
    }

    /// Scrubs the whole device: verifies every heated line (files and raw
    /// application lines alike), sharded over parallel workers — the §5.2
    /// fsck argument made routine. Pass a [`ScrubConfig`] in
    /// [`ScrubMode::Incremental`](sero_core::scrub::ScrubMode::Incremental)
    /// to verify only the delta since the last completed pass (lines
    /// heated since then, plus lines flagged by tamper evidence or refused
    /// writes). See [`sero_core::scrub`] for the model and the report
    /// shape.
    ///
    /// # Errors
    ///
    /// Infrastructure failures only; tamper findings are data in the
    /// report.
    pub fn scrub(&mut self, config: &ScrubConfig) -> Result<ScrubReport, FsError> {
        Ok(scrub_device(&mut self.dev, config)?)
    }

    /// Convenience for routine background verification under live traffic:
    /// an incremental [`SeroFs::scrub`] with the default worker count and
    /// full-pass fallback cadence.
    ///
    /// # Errors
    ///
    /// Infrastructure failures only; tamper findings are data in the
    /// report.
    pub fn scrub_incremental(&mut self) -> Result<ScrubReport, FsError> {
        self.scrub(&ScrubConfig::incremental(0))
    }

    /// What [`SeroFs::mount`] restored from the checkpoint's persisted
    /// scrub state: `None` for a freshly formatted fs (or a rejected
    /// scrub-state record), otherwise the restore counts. When lines were
    /// restored, the next [`SeroFs::scrub_incremental`] verifies only the
    /// pre-detach delta instead of falling back to a full pass.
    pub fn scrub_restore(&self) -> Option<ScrubStateRestore> {
        self.scrub_restore
    }

    // --- checkpoint ----------------------------------------------------------

    /// Flushes dirty inodes to the log and writes the checkpoint.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupt`] when the namespace outgrows the checkpoint
    /// region; device errors.
    pub fn sync(&mut self) -> Result<(), FsError> {
        // Write every unheated inode that has no on-device home (or whose
        // cached home is stale). Heated inodes already live in their lines.
        let inos: Vec<u64> = self.inodes.keys().copied().collect();
        let mut relocated = Vec::new();
        for ino in inos {
            let inode = &self.inodes[&ino];
            if inode.heated.is_some() && self.inode_loc.contains_key(&ino) {
                continue;
            }
            let prev_main = self.inode_loc.get(&ino).copied();
            let prev_ind = self.indirect_loc.get(&ino).copied();
            let needs_indirect = inode.blocks.len() > NDIRECT;
            let ind_block = if needs_indirect {
                Some(match self.indirect_loc.get(&ino) {
                    Some(&b) => b,
                    None => self.alloc_block_or_clean(WriteClass::Normal)?,
                })
            } else {
                None
            };
            let inode = &self.inodes[&ino];
            let (main, indirect) = inode.encode(ind_block)?;
            let main_block = match self.inode_loc.get(&ino) {
                Some(&b) if !self.alloc.is_heated(b) => b,
                _ => self.alloc_block_or_clean(WriteClass::Normal)?,
            };
            self.dev.write_block(main_block, &main)?;
            self.alloc.set_use(main_block, BlockUse::InodeBlock { ino });
            self.inode_loc.insert(ino, main_block);
            if let (Some(data), Some(block)) = (indirect, ind_block) {
                self.dev.write_block(block, &data)?;
                self.alloc.set_use(block, BlockUse::Indirect { ino });
                self.indirect_loc.insert(ino, block);
            }
            if prev_main != Some(main_block) || prev_ind != ind_block {
                relocated.push(ino);
            }
        }
        // Inodes that moved get their index records refreshed so an
        // indexed mount marks the right blocks live — then the dirty
        // index pages hit the device before the checkpoint that a crash
        // would recover through.
        for ino in relocated {
            self.index_record_file(ino, false)?;
        }
        self.flush_index_pages()?;
        self.write_checkpoint()
    }

    fn write_checkpoint(&mut self) -> Result<(), FsError> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&CHECKPOINT_MAGIC.to_le_bytes());
        let indexed = self.index.is_some();
        // Version 2 carries the whole namespace; version 3 is
        // superblock-scale because the namespace lives in the metadata
        // index — the checkpoint then stays O(1) no matter how many files
        // exist, which is the whole point of indexing.
        buf.push(if indexed { 3u8 } else { 2u8 });
        buf.extend_from_slice(&self.config.segment_blocks.to_le_bytes());
        buf.extend_from_slice(&self.config.checkpoint_blocks.to_le_bytes());
        if indexed {
            buf.extend_from_slice(&self.config.index_blocks.to_le_bytes());
        }
        buf.push(match self.config.policy {
            ClusterPolicy::HeatAffinity => 1,
            ClusterPolicy::Naive => 2,
        });
        buf.extend_from_slice(&self.next_ino.to_le_bytes());
        if !indexed {
            buf.extend_from_slice(&(self.inode_loc.len() as u32).to_le_bytes());
            for (&ino, &block) in &self.inode_loc {
                buf.extend_from_slice(&ino.to_le_bytes());
                buf.extend_from_slice(&block.to_le_bytes());
            }
            buf.extend_from_slice(&(self.directory.len() as u32).to_le_bytes());
            for (name, &ino) in &self.directory {
                buf.extend_from_slice(&ino.to_le_bytes());
                buf.push(name.len() as u8);
                buf.extend_from_slice(name.as_bytes());
            }
        }
        // The device's scrub bookkeeping rides the checkpoint, so a
        // remount resumes incremental scrubbing instead of a full pass.
        // The export is capped to whatever headroom the fixed checkpoint
        // region has left after the namespace — under pressure it drops
        // records (those lines just re-verify next pass) rather than
        // pushing the checkpoint past its region and failing sync.
        let capacity = (self.config.checkpoint_blocks as usize) * SECTOR_DATA_BYTES - 8;
        let scrub_budget = capacity.saturating_sub(buf.len() + 4 + 4);
        let scrub_state = self.dev.export_scrub_state_capped(scrub_budget);
        buf.extend_from_slice(&(scrub_state.len() as u32).to_le_bytes());
        buf.extend_from_slice(&scrub_state);
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());

        // A namespace too large for the region is a typed, recoverable
        // error: nothing has been written yet, so the previous checkpoint
        // on the device is still whole and the mountable state is exactly
        // what it was before this sync.
        if buf.len() > capacity {
            return Err(FsError::CheckpointOverflow {
                bytes: buf.len(),
                capacity,
            });
        }

        // Prefix with total length, then chunk into the region.
        let mut framed = Vec::with_capacity(buf.len() + 8);
        framed.extend_from_slice(&(buf.len() as u64).to_le_bytes());
        framed.extend_from_slice(&buf);
        for (i, chunk) in framed.chunks(SECTOR_DATA_BYTES).enumerate() {
            let mut sector = [0u8; SECTOR_DATA_BYTES];
            sector[..chunk.len()].copy_from_slice(chunk);
            self.dev.write_block(i as u64, &sector)?;
        }
        Ok(())
    }

    #[allow(clippy::type_complexity)]
    fn read_checkpoint(
        dev: &mut SeroDevice,
    ) -> Result<
        (
            FsConfig,
            u64,
            BTreeMap<u64, u64>,
            BTreeMap<String, u64>,
            Vec<u8>,
        ),
        FsError,
    > {
        let first = dev.read_block(0)?;
        // The length prefix sits outside the CRC, so bound it by the
        // region before reading past sector 0. The region size is the
        // record's own checkpoint-size field (body bytes 13..21, inside
        // sector 0, and CRC-checked below), capped by the device.
        let total = u64::from_le_bytes(first[..8].try_into().expect("8"));
        let region_blocks =
            u64::from_le_bytes(first[8 + 13..8 + 21].try_into().expect("8")).min(dev.block_count());
        let capacity = region_blocks
            .saturating_mul(SECTOR_DATA_BYTES as u64)
            .saturating_sub(8);
        if total > capacity {
            return Err(FsError::Corrupt {
                reason: format!("checkpoint length {total} exceeds its {capacity}-byte region"),
            });
        }
        let total = total as usize;
        let mut framed = first[8..].to_vec();
        let mut next_block = 1u64;
        while framed.len() < total {
            framed.extend_from_slice(&dev.read_block(next_block)?);
            next_block += 1;
        }
        framed.truncate(total);
        let buf = framed;
        if buf.len() < 4 + 1 + 8 + 8 + 1 + 8 + 4 + 4 + 4 {
            return Err(FsError::Corrupt {
                reason: "checkpoint too short".to_string(),
            });
        }
        let stored_crc = u32::from_le_bytes(buf[buf.len() - 4..].try_into().expect("4"));
        let body = &buf[..buf.len() - 4];
        if crc32(body) != stored_crc {
            return Err(FsError::Corrupt {
                reason: "checkpoint crc mismatch".to_string(),
            });
        }
        let mut r = CheckpointReader { body, pos: 0 };
        if r.u32("magic")? != CHECKPOINT_MAGIC {
            return Err(FsError::Corrupt {
                reason: "bad checkpoint magic".to_string(),
            });
        }
        let version = r.u8("version")?;
        if !(2..=3).contains(&version) {
            return Err(FsError::Corrupt {
                reason: format!("unknown checkpoint version {version}"),
            });
        }
        let segment_blocks = r.u64("segment size")?;
        let checkpoint_blocks = r.u64("checkpoint size")?;
        // v3 (indexed) records the index region size; v2 predates it.
        let index_blocks = if version == 3 {
            r.u64("index size")?
        } else {
            0
        };
        let policy = match r.u8("policy")? {
            1 => ClusterPolicy::HeatAffinity,
            2 => ClusterPolicy::Naive,
            other => {
                return Err(FsError::Corrupt {
                    reason: format!("unknown policy byte {other}"),
                })
            }
        };
        let next_ino = r.u64("next inode number")?;
        let mut inode_loc = BTreeMap::new();
        let mut directory = BTreeMap::new();
        // v3 checkpoints are superblock-scale: the namespace lives in the
        // metadata index, so there are no inode-location or directory
        // sections to parse here. Counts and name lengths are untrusted
        // (CRC32 is no MAC), so every read below is bounds-checked.
        if version == 2 {
            for _ in 0..r.u32("inode count")? {
                let ino = r.u64("inode table")?;
                inode_loc.insert(ino, r.u64("inode table")?);
            }
            for _ in 0..r.u32("directory count")? {
                let ino = r.u64("directory entry")?;
                let len = r.u8("directory entry")? as usize;
                let name = r.take(len, "directory name")?.to_vec();
                let name = String::from_utf8(name).map_err(|_| FsError::Corrupt {
                    reason: "directory name not UTF-8".to_string(),
                })?;
                directory.insert(name, ino);
            }
        }
        let len = r.u32("scrub-state section")? as usize;
        let scrub_state = r.take(len, "scrub-state section")?.to_vec();
        Ok((
            FsConfig {
                segment_blocks,
                checkpoint_blocks,
                index_blocks,
                policy,
            },
            next_ino,
            inode_loc,
            directory,
            scrub_state,
        ))
    }

    /// Number of data blocks a file of `bytes` occupies (helper for sizing
    /// experiments).
    pub fn blocks_for(bytes: usize) -> usize {
        bytes.div_ceil(SECTOR_DATA_BYTES).clamp(1, MAX_BLOCKS)
    }
}

/// A bounds-checked cursor over a checkpoint body: every read names the
/// field it wanted, so a forged count or length is a typed
/// [`FsError::Corrupt`], never an out-of-range slice.
struct CheckpointReader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> CheckpointReader<'a> {
    fn take(&mut self, n: usize, field: &str) -> Result<&'a [u8], FsError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.body.len())
            .ok_or_else(|| FsError::Corrupt {
                reason: format!("checkpoint {field} truncated"),
            })?;
        let bytes = &self.body[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }

    fn u8(&mut self, field: &str) -> Result<u8, FsError> {
        Ok(self.take(1, field)?[0])
    }

    fn u32(&mut self, field: &str) -> Result<u32, FsError> {
        Ok(u32::from_le_bytes(
            self.take(4, field)?.try_into().expect("4"),
        ))
    }

    fn u64(&mut self, field: &str) -> Result<u64, FsError> {
        Ok(u64::from_le_bytes(
            self.take(8, field)?.try_into().expect("8"),
        ))
    }
}

/// Lends the device to the core scrub drivers, so a
/// [`ScrubScheduler`] or [`sero_core::fleet::FleetScheduler`] runs over
/// mounted file systems exactly as over bare devices. A scrub pass only
/// verifies heated lines (and advances the device's scrub bookkeeping);
/// it never touches the allocator, directory or inode map. Call
/// [`SeroFs::sync`] after a pass completes to persist the advanced
/// epochs into the checkpoint.
///
/// ```
/// use sero_core::device::SeroDevice;
/// use sero_core::fleet::{FleetConfig, FleetScheduler};
/// use sero_core::sched::{SchedConfig, ScrubScheduler};
/// use sero_fs::alloc::WriteClass;
/// use sero_fs::fs::{FsConfig, SeroFs};
///
/// let mut fleet = Vec::new();
/// for i in 0..2u8 {
///     let mut fs = SeroFs::format(SeroDevice::with_blocks(512), FsConfig::default())?;
///     fs.create("ledger.csv", &[i; 2000], WriteClass::Archival)?;
///     fs.heat("ledger.csv", vec![], 0)?;
///     fleet.push(fs);
/// }
///
/// // One device: grant the pass bounded slices between foreground requests.
/// let fs = &mut fleet[0];
/// let mut scrub = ScrubScheduler::start(fs.device(), SchedConfig::default());
/// while !scrub.is_complete() {
///     fs.read("ledger.csv")?; // … serve foreground traffic here …
///     scrub.run_slice(fs.device_mut())?;
/// }
/// assert!(scrub.report().summary.is_clean());
///
/// // A fleet: one coordinated pass per member.
/// let devices = fleet.iter().map(SeroFs::device);
/// let mut pass = FleetScheduler::start(devices, FleetConfig::default())?;
/// pass.run_to_completion(&mut fleet)?;
/// assert!(pass.is_complete());
/// // Member 0 has now finished two passes, member 1 its first.
/// for (fs, epoch) in fleet.iter_mut().zip([2, 1]) {
///     assert_eq!(fs.device().scrub_epoch(), epoch);
///     fs.sync()?; // persist the advanced epochs
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
impl AsMut<SeroDevice> for SeroFs {
    fn as_mut(&mut self) -> &mut SeroDevice {
        &mut self.dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sero_core::fleet::{FleetConfig, FleetScheduler};
    use sero_core::sched::{SchedConfig, SchedState};
    use sero_core::scrub::ScrubMode;

    fn populated_fs() -> SeroFs {
        let mut fs = SeroFs::format(SeroDevice::with_blocks(1024), FsConfig::default()).unwrap();
        for i in 0..6 {
            let name = format!("frozen-{i}");
            fs.create(&name, &vec![i as u8; 3000], WriteClass::Archival)
                .unwrap();
            fs.heat(&name, vec![], 100 + i as u64).unwrap();
        }
        for i in 0..3 {
            fs.create(
                &format!("hot-{i}"),
                &vec![0xA0 + i; 2000],
                WriteClass::Normal,
            )
            .unwrap();
        }
        fs
    }

    /// A fleet of populated file systems whose member 2 is tampered
    /// behind the protocol's back and flagged by a refused write, so
    /// suspicion-first ordering has something to rank.
    fn fleet_with_flagged_victim() -> Vec<SeroFs> {
        let mut fleet: Vec<SeroFs> = (0..3).map(|_| populated_fs()).collect();
        let victim_line = fleet[2].stat("frozen-1").unwrap().heated.unwrap();
        fleet[2]
            .device_mut()
            .probe_mut()
            .mws(victim_line.start() + 2, &[0xEE; 512])
            .unwrap();
        assert!(fleet[2]
            .write("frozen-1", b"rewrite", WriteClass::Normal)
            .is_err());
        fleet
    }

    fn two_wide_fleet() -> FleetConfig {
        FleetConfig {
            max_concurrent: 2,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn background_scrub_interleaves_with_foreground_traffic() {
        let mut fs = populated_fs();
        let mut scrub =
            ScrubScheduler::start(fs.device(), SchedConfig::slice_budget(1_000_000).unwrap());
        let mut foreground_ops = 0;
        while !scrub.is_complete() {
            // Foreground keeps reading and rewriting between slices.
            fs.read("frozen-2").unwrap();
            fs.write(
                "hot-1",
                &vec![foreground_ops as u8; 2000],
                WriteClass::Normal,
            )
            .unwrap();
            foreground_ops += 1;
            scrub.run_slice(fs.device_mut()).unwrap();
            assert!(foreground_ops < 1000, "scrub never completed");
        }
        let report = scrub.report();
        assert_eq!(report.summary.lines, 6);
        assert!(report.summary.is_clean());
        assert!(
            scrub.trace().len() > 1,
            "budget should force several slices"
        );
        assert_eq!(fs.device().scrub_epoch(), 1);
    }

    #[test]
    fn remount_restores_persisted_epochs_for_incremental_scrub() {
        let mut fs = populated_fs();
        // Complete a pass in the background, then persist via sync.
        let mut scrub = ScrubScheduler::start(fs.device(), SchedConfig::greedy());
        while !scrub.is_complete() {
            scrub.run_slice(fs.device_mut()).unwrap();
        }
        // A post-pass delta: one new heated file, one refused write.
        fs.create("late", &[9u8; 3000], WriteClass::Archival)
            .unwrap();
        let late_line = fs.heat("late", vec![], 999).unwrap();
        let frozen_line = fs.stat("frozen-4").unwrap().heated.unwrap();
        assert!(fs
            .write("frozen-4", b"rewrite history", WriteClass::Normal)
            .is_err());
        fs.sync().unwrap();

        // Detach: drop all volatile state, remount from the bare device.
        let mut dev = fs.into_device();
        dev.forget_registry();
        let mut fs = SeroFs::mount(dev).unwrap();
        let restore = fs.scrub_restore().expect("v2 checkpoint carries state");
        // Six verified lines restored (the flagged one among them); the
        // late line's all-default record is not exported at all.
        assert_eq!(restore.restored, 6);
        assert_eq!((restore.stale, restore.unknown), (0, 0));

        // The remounted incremental pass covers exactly the pre-detach
        // delta — no full-pass fallback.
        let report = fs.scrub_incremental().unwrap();
        assert_eq!(report.summary.mode, ScrubMode::Incremental);
        assert_eq!(report.summary.lines, 2);
        assert_eq!(report.summary.skipped, 5);
        let verified: Vec<Line> = report.outcomes.iter().map(|o| o.line).collect();
        assert!(verified.contains(&late_line));
        assert!(verified.contains(&frozen_line));
    }

    #[test]
    fn fleet_pass_covers_every_member_with_identical_evidence() {
        let mut fleet = fleet_with_flagged_victim();
        let exclusive: Vec<_> = fleet
            .clone()
            .iter_mut()
            .map(|fs| fs.scrub(&ScrubConfig::with_workers(1)).unwrap())
            .collect();

        let mut scrub =
            FleetScheduler::start(fleet.iter().map(SeroFs::device), two_wide_fleet()).unwrap();
        scrub.run_to_completion(&mut fleet).unwrap();
        assert!(scrub.is_complete());
        assert_eq!(
            scrub.completion_order()[0],
            2,
            "suspicious member's pass finishes first"
        );
        assert!(scrub.peak_active() <= 2);
        for (i, expected) in exclusive.iter().enumerate() {
            let report = scrub.member_report(i).unwrap();
            assert_eq!(report.outcomes, expected.outcomes, "member {i}");
            assert_eq!(fleet[i].device().scrub_epoch(), 1);
        }
        assert_eq!(scrub.progress().tampered, 1);

        // Epochs persist per member through the usual sync path.
        for fs in &mut fleet {
            fs.sync().unwrap();
        }
    }

    #[test]
    fn fleet_loop_runs_identically_over_file_systems_and_bare_devices() {
        let mut fleet = fleet_with_flagged_victim();
        let mut devs: Vec<SeroDevice> = fleet.iter().map(|fs| fs.device().clone()).collect();

        let mut over_fs =
            FleetScheduler::start(fleet.iter().map(SeroFs::device), two_wide_fleet()).unwrap();
        over_fs.run_to_completion(&mut fleet).unwrap();
        let mut over_devs = FleetScheduler::start(devs.iter(), two_wide_fleet()).unwrap();
        over_devs.run_to_completion(&mut devs).unwrap();

        assert!(over_fs.is_complete() && over_devs.is_complete());
        assert_eq!(over_fs.reports(), over_devs.reports());
        assert_eq!(over_fs.completion_order(), over_devs.completion_order());
        assert_eq!(over_fs.completion_order()[0], 2, "suspicion-first ran");
        assert_eq!(over_fs.progress().tampered, 1);
        for (fs, dev) in fleet.iter().zip(&devs) {
            assert_eq!(
                fs.device().probe().clock().elapsed_ns(),
                dev.probe().clock().elapsed_ns()
            );
            assert_eq!(fs.device().scrub_epoch(), dev.scrub_epoch());
        }
    }

    #[test]
    fn cancelled_background_pass_keeps_fs_consistent() {
        let mut fs = populated_fs();
        let mut scrub = ScrubScheduler::start(fs.device(), SchedConfig::slice_budget(1).unwrap());
        scrub.run_slice(fs.device_mut()).unwrap();
        scrub.cancel();
        assert_eq!(scrub.state(), SchedState::Cancelled);
        assert_eq!(fs.device().scrub_epoch(), 0, "no completed pass");
        // A later exclusive scrub covers everything.
        let report = fs.scrub(&ScrubConfig::default()).unwrap();
        assert_eq!(report.summary.lines, 6);
    }

    #[test]
    fn indexed_format_mount_round_trips_namespace() {
        let mut fs = SeroFs::format(SeroDevice::with_blocks(1024), FsConfig::indexed()).unwrap();
        assert!(fs.has_index());
        for i in 0..8 {
            fs.create(
                &format!("file-{i}"),
                &vec![i as u8; 1500],
                WriteClass::Normal,
            )
            .unwrap();
        }
        fs.write("file-3", &[0x33; 4000], WriteClass::Normal)
            .unwrap();
        fs.heat("file-5", vec![], 77).unwrap();
        fs.remove("file-6").unwrap();
        fs.sync().unwrap();
        let expected: Vec<String> = fs.list().into_iter().collect();
        let heated = fs.stat("file-5").unwrap().heated;
        assert!(heated.is_some());

        let mut fs = SeroFs::mount(fs.into_device()).unwrap();
        assert!(fs.has_index());
        assert!(
            !fs.device().is_degraded(),
            "index reads must never touch virgin sectors (quarantine bait)"
        );
        let report = fs.index_open_report().expect("indexed mount reports");
        assert!(!report.torn_tail, "clean shutdown leaves no torn WAL tail");
        assert_eq!(fs.list().into_iter().collect::<Vec<_>>(), expected);
        assert_eq!(fs.stat("file-5").unwrap().heated, heated);
        assert_eq!(fs.read("file-3").unwrap(), vec![0x33; 4000]);
        assert!(matches!(fs.stat("file-6"), Err(FsError::NotFound { .. })));
        // Point lookups go through the LSM, not the in-memory directory.
        let ino = fs.index_lookup("file-0").unwrap().expect("file-0 indexed");
        assert_eq!(Some(&ino), fs.directory.get("file-0"));
        assert_eq!(fs.index_lookup("no-such-file").unwrap(), None);
    }

    #[test]
    fn indexed_mount_reads_no_inode_blocks() {
        let mut fs = SeroFs::format(SeroDevice::with_blocks(1024), FsConfig::indexed()).unwrap();
        for i in 0..24 {
            fs.create(
                &format!("probe-{i}"),
                &vec![i as u8; 900],
                WriteClass::Normal,
            )
            .unwrap();
        }
        fs.sync().unwrap();
        // Sabotage one synced inode block on the device. A legacy mount
        // would decode it and fail; an indexed mount never reads it.
        let victim = *fs.inode_loc.get(&fs.directory["probe-7"]).unwrap();
        let mut dev = fs.into_device();
        dev.write_block(victim, &[0xFF; SECTOR_DATA_BYTES]).unwrap();

        let before = dev.probe().counters().mrs;
        let fs = SeroFs::mount(dev).unwrap();
        let mount_reads = fs.device().probe().counters().mrs - before;
        let metadata_blocks = fs.config().checkpoint_blocks + fs.config().index_blocks;
        assert!(
            mount_reads <= metadata_blocks,
            "indexed mount read {mount_reads} sectors, more than the \
             {metadata_blocks}-block metadata regions — it probed inode blocks"
        );
        assert_eq!(fs.stat("probe-7").unwrap().size, 900);
        assert_eq!(fs.list().len(), 24);
    }

    #[test]
    fn checkpoint_overflow_is_typed_and_previous_checkpoint_survives() {
        // A deliberately tiny checkpoint region: 2 blocks ≈ 1 KiB.
        let config = FsConfig {
            segment_blocks: 64,
            checkpoint_blocks: 2,
            index_blocks: 0,
            policy: ClusterPolicy::HeatAffinity,
        };
        let mut fs = SeroFs::format(SeroDevice::with_blocks(1024), config).unwrap();
        for i in 0..3 {
            fs.create(&format!("early-{i}"), &[i as u8; 600], WriteClass::Normal)
                .unwrap();
        }
        fs.sync().unwrap();

        for i in 0..30 {
            fs.create(
                &format!("late-{i:0>40}"),
                &[i as u8; 600],
                WriteClass::Normal,
            )
            .unwrap();
        }
        let err = fs.sync().unwrap_err();
        match err {
            FsError::CheckpointOverflow { bytes, capacity } => {
                assert!(bytes > capacity, "{bytes} vs {capacity}");
                assert_eq!(capacity, 2 * SECTOR_DATA_BYTES - 8);
            }
            other => panic!("expected CheckpointOverflow, got {other:?}"),
        }

        // Nothing was written: the device still mounts to the last
        // successfully synced namespace.
        let fs = SeroFs::mount(fs.into_device()).unwrap();
        let names = fs.list();
        assert_eq!(names.len(), 3);
        assert!(names.iter().all(|n| n.starts_with("early-")));

        // The same workload fits trivially under an indexed format: the
        // checkpoint stays superblock-scale no matter the file count.
        let mut fs = SeroFs::format(SeroDevice::with_blocks(1024), FsConfig::indexed()).unwrap();
        for i in 0..3 {
            fs.create(&format!("early-{i}"), &[i as u8; 600], WriteClass::Normal)
                .unwrap();
        }
        for i in 0..30 {
            fs.create(
                &format!("late-{i:0>40}"),
                &[i as u8; 600],
                WriteClass::Normal,
            )
            .unwrap();
        }
        fs.sync().unwrap();
        let fs2 = SeroFs::mount(fs.into_device()).unwrap();
        assert_eq!(fs2.list().len(), 33);
    }

    #[test]
    fn unindexed_checkpoints_remain_version_2() {
        // The legacy (index-free) configuration must keep writing v2
        // checkpoints byte-compatible with pre-index releases: mount the
        // checkpoint, then re-read it raw and check the version byte.
        let mut fs = SeroFs::format(SeroDevice::with_blocks(512), FsConfig::default()).unwrap();
        fs.create("plain", b"contents", WriteClass::Normal).unwrap();
        fs.sync().unwrap();
        let mut dev = fs.into_device();
        let first = dev.read_block(0).unwrap();
        // Layout: u64 length ‖ u32 magic ‖ version byte.
        assert_eq!(first[12], 2, "unindexed checkpoints stay at version 2");
        let fs = SeroFs::mount(dev).unwrap();
        assert!(!fs.has_index());
        assert_eq!(fs.list(), vec!["plain".to_string()]);
    }
}
