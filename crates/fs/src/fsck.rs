//! fsck-style recovery of heated files from the bare medium.
//!
//! §5.2 of the paper: "Assume that the attacker clears the directory
//! structure, then a fsck style scan of the medium would definitely
//! recover (albeit slowly) all the heated files." This module is that
//! scan. It needs *no* checkpoint, no directory, and no in-memory state:
//! heated lines are found physically (their hash blocks are
//! self-describing), each line's second block is parsed as an inode (the
//! name is embedded there), and the data blocks are read back and
//! verified against the heated hash.
//!
//! # Examples
//!
//! ```
//! use sero_fs::fs::{FsConfig, SeroFs};
//! use sero_fs::alloc::WriteClass;
//! use sero_fs::fsck;
//! use sero_core::device::SeroDevice;
//!
//! let mut fs = SeroFs::format(SeroDevice::with_blocks(256), FsConfig::default())?;
//! fs.create("evidence.log", b"2008-01-01 transfer 1M", WriteClass::Archival)?;
//! fs.heat("evidence.log", vec![], 0)?;
//!
//! // The attacker destroys every mutable structure…
//! let mut dev = fs.into_device();
//! // …but the heated file is still recoverable, verified, by name.
//! let recovered = fsck::recover_heated_files(&mut dev)?;
//! assert_eq!(recovered.len(), 1);
//! assert_eq!(recovered[0].name, "evidence.log");
//! assert_eq!(recovered[0].data, b"2008-01-01 transfer 1M");
//! assert!(recovered[0].intact);
//! # Ok::<(), sero_fs::error::FsError>(())
//! ```

use crate::error::FsError;
use crate::inode::Inode;
use sero_core::device::{contiguous_runs, SeroDevice};
use sero_core::line::Line;
use sero_probe::sector::SECTOR_DATA_BYTES;

/// A heated file pulled off the bare medium.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredFile {
    /// Name embedded in the recovered inode.
    pub name: String,
    /// Inode number.
    pub ino: u64,
    /// File contents (truncated to the recorded size).
    pub data: Vec<u8>,
    /// The protecting line.
    pub line: Line,
    /// Whether the line verified intact against its heated hash.
    pub intact: bool,
}

/// Scans the whole device and recovers every heated file.
///
/// Lines that carry a valid hash payload but no parseable inode are
/// skipped (they may be application lines heated through the raw device
/// API rather than file-system files).
///
/// # Errors
///
/// Only infrastructure failures; unreadable data blocks mark the file
/// `intact = false` with whatever bytes could be salvaged.
pub fn recover_heated_files(dev: &mut SeroDevice) -> Result<Vec<RecoveredFile>, FsError> {
    dev.rebuild_registry().map_err(FsError::Device)?;
    let records: Vec<_> = dev.heated_lines().cloned().collect();
    let mut out = Vec::new();

    for record in records {
        let line = record.line;
        if line.data_len() < 1 {
            continue;
        }
        // Block start+1 should hold the inode.
        let inode_sector = match dev.probe_mut().mrs(line.start() + 1) {
            Ok(s) => s,
            Err(_) => continue,
        };
        let (mut inode, indirect_ptr) = match Inode::decode(&inode_sector.data) {
            Ok(x) => x,
            Err(_) => continue, // not a file-system line
        };
        if let Some(ptr) = indirect_ptr {
            if let Ok(ind) = dev.probe_mut().mrs(ptr) {
                let total = (inode.size as usize).div_ceil(SECTOR_DATA_BYTES);
                let _ = inode.attach_indirect(&ind.data, total);
            }
        }

        // Heated file data is contiguous inside its line, so the raw reads
        // collapse into (usually) one extent transfer per file.
        let mut data = Vec::with_capacity(inode.blocks.len() * SECTOR_DATA_BYTES);
        let mut readable = true;
        for (start, count) in contiguous_runs(&inode.blocks) {
            // An out-of-range pointer in a crafted/damaged inode makes the
            // whole extent invalid — salvage what was read so far rather
            // than aborting the recovery of every other file.
            let extent = dev
                .probe_mut()
                .read_block_runs_with(&[(start, count)], |_, sector| match sector {
                    Ok(sector) => {
                        data.extend_from_slice(&sector.data);
                        true
                    }
                    Err(_) => {
                        readable = false;
                        false
                    }
                });
            if extent.is_err() {
                readable = false;
            }
            if !readable {
                break;
            }
        }
        data.truncate(inode.size as usize);

        let intact = readable
            && dev
                .verify_line(line)
                .map(|o| o.is_intact())
                .unwrap_or(false);
        out.push(RecoveredFile {
            name: inode.name.clone(),
            ino: inode.ino,
            data,
            line,
            intact,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::WriteClass;
    use crate::fs::{FsConfig, SeroFs};
    use rand::SeedableRng;

    fn setup() -> SeroFs {
        SeroFs::format(SeroDevice::with_blocks(512), FsConfig::default()).unwrap()
    }

    #[test]
    fn recovers_multiple_files_after_total_metadata_loss() {
        let mut fs = setup();
        for i in 0..3 {
            let name = format!("audit-{i}.log");
            let data = vec![i as u8 + 1; 700 + i * 512];
            fs.create(&name, &data, WriteClass::Archival).unwrap();
            fs.heat(&name, vec![], i as u64).unwrap();
        }
        fs.create("scratch", b"unheated", WriteClass::Normal)
            .unwrap();

        // Attacker wipes the checkpoint region.
        let mut dev = fs.into_device();
        for b in 0..16 {
            dev.probe_mut().mws(b, &[0u8; 512]).unwrap();
        }

        let mut recovered = recover_heated_files(&mut dev).unwrap();
        recovered.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(recovered.len(), 3, "only the heated files survive");
        for (i, r) in recovered.iter().enumerate() {
            assert_eq!(r.name, format!("audit-{i}.log"));
            assert_eq!(r.data, vec![i as u8 + 1; 700 + i * 512]);
            assert!(r.intact);
        }
    }

    #[test]
    fn recovery_flags_tampered_files() {
        let mut fs = setup();
        fs.create("ledger", &[7u8; 1024], WriteClass::Archival)
            .unwrap();
        let line = fs.heat("ledger", vec![], 0).unwrap();
        let mut dev = fs.into_device();
        // Attacker rewrites a protected data block through the raw device.
        dev.probe_mut().mws(line.start() + 2, &[0u8; 512]).unwrap();
        let recovered = recover_heated_files(&mut dev).unwrap();
        assert_eq!(recovered.len(), 1);
        assert!(!recovered[0].intact, "tampering must be flagged");
    }

    #[test]
    fn recovery_survives_bulk_erase() {
        // §5.2: bulk erasure clears magnetic data, so file *contents* are
        // gone — but the heated hash blocks still prove what existed.
        let mut fs = setup();
        fs.create("contract", &[3u8; 2048], WriteClass::Archival)
            .unwrap();
        fs.heat("contract", vec![], 0).unwrap();
        let mut dev = fs.into_device();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        dev.probe_mut().medium_mut().bulk_erase(&mut rng);

        let mut fresh = dev.clone();
        let scan = fresh.rebuild_registry().unwrap();
        assert_eq!(scan.lines_found, 1, "heated line still discoverable");
        // The recovered file will not verify (data destroyed), but the
        // evidence that a heated line existed is intact.
        let recovered = recover_heated_files(&mut fresh).unwrap();
        for r in &recovered {
            assert!(!r.intact);
        }
    }

    #[test]
    fn crafted_out_of_range_inode_does_not_abort_recovery() {
        // A real heated file plus a raw heated line whose "inode" block
        // carries pointers far outside the device. Recovery must salvage
        // the crafted entry as tampered (or skip it) without erroring, and
        // still return the real file intact.
        let mut fs = setup();
        fs.create("real.log", &[5u8; 1024], WriteClass::Archival)
            .unwrap();
        fs.heat("real.log", vec![], 0).unwrap();

        let line = sero_core::line::Line::new(256, 2).unwrap();
        for pba in line.data_blocks() {
            fs.device_mut().write_block(pba, &[0u8; 512]).unwrap();
        }
        let mut evil = Inode::new(77, "evil", crate::inode::FileKind::Regular);
        evil.size = 512;
        evil.blocks = vec![u64::MAX - 7];
        let (encoded, _) = evil.encode(None).unwrap();
        fs.device_mut()
            .write_block(line.start() + 1, &encoded)
            .unwrap();
        fs.device_mut().heat_line(line, vec![], 1).unwrap();

        let mut dev = fs.into_device();
        let recovered = recover_heated_files(&mut dev).unwrap();
        let real = recovered
            .iter()
            .find(|r| r.name == "real.log")
            .expect("real file recovered despite the crafted inode");
        assert!(real.intact);
        assert_eq!(real.data, vec![5u8; 1024]);
        if let Some(evil) = recovered.iter().find(|r| r.name == "evil") {
            assert!(!evil.intact, "out-of-range pointers cannot verify");
        }
    }

    #[test]
    fn non_fs_lines_skipped_gracefully() {
        let mut fs = setup();
        fs.create("file", b"data", WriteClass::Normal).unwrap();
        // Heat a raw device line that is not a file (no inode layout).
        let line = sero_core::line::Line::new(256, 2).unwrap();
        for pba in line.data_blocks() {
            fs.device_mut().write_block(pba, &[9u8; 512]).unwrap();
        }
        fs.device_mut().heat_line(line, vec![], 0).unwrap();
        let mut dev = fs.into_device();
        let recovered = recover_heated_files(&mut dev).unwrap();
        assert!(recovered.is_empty(), "raw lines are not files");
    }
}
