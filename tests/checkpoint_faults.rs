//! Fault injection against the checkpoint path, in the discipline of
//! `scrub_state_faults`: whatever a torn write or bit rot does to the
//! checkpoint region — flipped bytes, a truncated multi-block write, a
//! corrupted length prefix — `SeroFs::mount` must answer with a typed
//! [`FsError::Corrupt`] (or a typed device error), or mount a *complete*
//! file system. It must never come up silently partial. Corruption
//! confined to the embedded scrub-state section is the one sanctioned
//! fallback: the mount succeeds with the namespace intact and the next
//! scrub simply runs a full pass.

use proptest::prelude::*;
use sero::codec::crc32::crc32;
use sero::core::device::SeroDevice;
use sero::core::scrub::{scrub_device, ScrubConfig};
use sero::fs::alloc::WriteClass;
use sero::fs::error::FsError;
use sero::fs::fs::{FsConfig, SeroFs};
use sero::probe::device::ProbeDevice;
use sero::probe::SECTOR_DATA_BYTES;
use std::collections::BTreeMap;

const T0: u64 = 1_199_145_600;

fn pattern(n: u64, salt: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (n as u8).wrapping_mul(167).wrapping_add(j as u8) ^ salt)
        .collect()
}

/// A formatted file system with one heated archival file, `nfiles`
/// normal files, a completed scrub pass, and the checkpoint synced.
/// Returns the cold medium (probe clone) plus the expected namespace.
fn synced_fs(seed: u64, salt: u8, nfiles: usize) -> (ProbeDevice, BTreeMap<String, Vec<u8>>) {
    let probe = ProbeDevice::builder().blocks(256).seed(seed).build();
    let mut fs = SeroFs::format(SeroDevice::new(probe), FsConfig::default()).unwrap();
    let mut expect = BTreeMap::new();
    let ledger = pattern(99, salt, 1400);
    fs.create("ledger", &ledger, WriteClass::Archival).unwrap();
    fs.heat("ledger", vec![salt], T0).unwrap();
    expect.insert("ledger".to_string(), ledger);
    for i in 0..nfiles {
        let name = format!("file-{i}");
        let body = pattern(i as u64, salt, 300 + 97 * i);
        fs.create(&name, &body, WriteClass::Normal).unwrap();
        expect.insert(name, body);
    }
    scrub_device(fs.device_mut(), &ScrubConfig::default()).unwrap();
    fs.sync().unwrap();
    (fs.device().probe().clone(), expect)
}

/// The checkpoint exactly as it sits in the region: 8-byte length prefix
/// plus `total` bytes of record, reassembled across blocks.
fn read_framed(probe: &mut ProbeDevice) -> Vec<u8> {
    let first = probe.mrs(0).unwrap().data;
    let total = u64::from_le_bytes(first[..8].try_into().unwrap()) as usize;
    let mut framed = first.to_vec();
    let mut next = 1u64;
    while framed.len() < 8 + total {
        framed.extend_from_slice(&probe.mrs(next).unwrap().data);
        next += 1;
    }
    framed.truncate(8 + total);
    framed
}

fn write_framed(probe: &mut ProbeDevice, framed: &[u8]) {
    for (i, chunk) in framed.chunks(SECTOR_DATA_BYTES).enumerate() {
        let mut sector = [0u8; SECTOR_DATA_BYTES];
        sector[..chunk.len()].copy_from_slice(chunk);
        probe.mws(i as u64, &sector).unwrap();
    }
}

/// Mutates the checkpoint *body* and re-seals it with a valid CRC and
/// length prefix — for reaching the typed parse errors that sit behind
/// the CRC check.
fn rewrite_checkpoint(probe: &mut ProbeDevice, mutate: impl FnOnce(&mut Vec<u8>)) {
    let framed = read_framed(probe);
    let buf = &framed[8..];
    let mut body = buf[..buf.len() - 4].to_vec();
    mutate(&mut body);
    let crc = crc32(&body);
    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(&((body.len() + 4) as u64).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc.to_le_bytes());
    write_framed(probe, &out);
}

/// Offsets of a v2 body's variable-length fields, which follow magic,
/// version, geometry, policy and next_ino.
struct Offsets {
    inode_count: usize,
    dirent_count: usize,
    /// Each directory entry's name-length byte.
    name_lens: Vec<usize>,
    /// The scrub-state section's length field.
    scrub_len: usize,
}

fn offsets(body: &[u8]) -> Offsets {
    let inode_count = 4 + 1 + 8 + 8 + 1 + 8;
    let n_inodes = u32::from_le_bytes(body[inode_count..inode_count + 4].try_into().unwrap());
    let dirent_count = inode_count + 4 + n_inodes as usize * 16;
    let n_dirents = u32::from_le_bytes(body[dirent_count..dirent_count + 4].try_into().unwrap());
    let mut pos = dirent_count + 4;
    let mut name_lens = Vec::new();
    for _ in 0..n_dirents {
        pos += 8;
        name_lens.push(pos);
        pos += 1 + body[pos] as usize;
    }
    Offsets {
        inode_count,
        dirent_count,
        name_lens,
        scrub_len: pos,
    }
}

fn try_mount(probe: &ProbeDevice) -> Result<SeroFs, FsError> {
    SeroFs::mount(SeroDevice::new(probe.clone()))
}

/// A mount that comes up at all must come up COMPLETE: the full
/// namespace, every byte of every file.
fn assert_intact(fs: &mut SeroFs, expect: &BTreeMap<String, Vec<u8>>) {
    let mut names = fs.list();
    names.sort();
    let want: Vec<String> = expect.keys().cloned().collect();
    assert_eq!(names, want, "partial namespace after mount");
    for (name, body) in expect {
        assert_eq!(&fs.read(name).unwrap(), body, "wrong bytes in {name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A byte flipped anywhere in the persisted checkpoint — length
    /// prefix, header, tables, scrub section, or CRC — yields a typed
    /// mount error or a fully intact mount. Never a partial one.
    #[test]
    fn flipped_checkpoint_bytes_mount_typed_or_fully_intact(
        seed in any::<u64>(),
        salt in any::<u8>(),
        nfiles in 1usize..4,
        flip_at in any::<proptest::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let (mut probe, expect) = synced_fs(seed, salt, nfiles);
        let framed = read_framed(&mut probe);
        let at = flip_at.index(framed.len());
        let block = (at / SECTOR_DATA_BYTES) as u64;
        let mut sector = probe.mrs(block).unwrap().data;
        sector[at % SECTOR_DATA_BYTES] ^= xor;
        probe.mws(block, &sector).unwrap();

        match try_mount(&probe) {
            Err(FsError::Corrupt { .. }) | Err(FsError::Device(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
            Ok(mut fs) => assert_intact(&mut fs, &expect),
        }
    }

    /// A torn multi-block checkpoint write — a prefix persisted, the
    /// tail of the region left zeroed — is rejected whole, never
    /// reassembled into a shorter-but-plausible record.
    #[test]
    fn torn_checkpoint_tail_is_rejected_whole(
        seed in any::<u64>(),
        salt in any::<u8>(),
        nfiles in 1usize..4,
        cut_at in any::<proptest::sample::Index>(),
    ) {
        let (mut probe, expect) = synced_fs(seed, salt, nfiles);
        let framed = read_framed(&mut probe);
        let cut = cut_at.index(framed.len());
        let mut torn = framed.clone();
        for b in &mut torn[cut..] {
            *b = 0;
        }
        write_framed(&mut probe, &torn);

        match try_mount(&probe) {
            Err(FsError::Corrupt { .. }) | Err(FsError::Device(_)) => {
                prop_assert!(cut < framed.len(), "untouched checkpoint must mount");
            }
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
            Ok(mut fs) => assert_intact(&mut fs, &expect),
        }
    }
}

/// The no-fault control: a pristine remount restores the namespace, the
/// data, and the persisted scrub bookkeeping.
#[test]
fn pristine_remount_restores_namespace_and_scrub_state() {
    let (probe, expect) = synced_fs(42, 7, 3);
    let mut fs = try_mount(&probe).expect("pristine checkpoint must mount");
    assert_intact(&mut fs, &expect);
    assert!(
        fs.scrub_restore().is_some(),
        "v2 checkpoint carries scrub state across the remount"
    );
}

/// Each corrupt field behind the CRC reaches its own typed reason — the
/// parser names what it refused. The checkpoint region is rewritable and
/// CRC32 is no MAC, so forged namespace counts and name lengths must be
/// typed errors too, never a read past the record.
#[test]
fn each_corrupt_field_yields_its_typed_reason() {
    type Mutation = fn(&mut Vec<u8>);
    let cases: [(&str, Mutation); 7] = [
        ("magic", |b| b[0] ^= 0xFF),
        ("version", |b| b[4] = 9),
        ("version", |b| b[4] = 1),
        ("policy", |b| b[4 + 1 + 8 + 8] = 7),
        ("inode", |b| {
            let p = offsets(b).inode_count;
            b[p..p + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }),
        ("directory", |b| {
            let p = offsets(b).dirent_count;
            b[p..p + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }),
        ("directory name", |b| {
            // The last entry's name runs past everything after it.
            let p = *offsets(b).name_lens.last().expect("a directory entry");
            b[p] = u8::MAX;
        }),
    ];
    for (needle, mutate) in cases {
        let (mut probe, _) = synced_fs(1, 1, 1);
        rewrite_checkpoint(&mut probe, mutate);
        match try_mount(&probe) {
            Err(FsError::Corrupt { reason }) => {
                assert!(reason.contains(needle), "reason {reason:?} names {needle}")
            }
            other => panic!("expected Corrupt naming {needle}, got {other:?}"),
        }
    }
}

/// A hostile scrub-section length cannot read past the record: it is a
/// typed truncation error, not an overread or a panic.
#[test]
fn ballooned_scrub_length_is_truncation_not_overread() {
    let (mut probe, _) = synced_fs(3, 3, 1);
    rewrite_checkpoint(&mut probe, |b| {
        let p = offsets(b).scrub_len;
        b[p..p + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    });
    match try_mount(&probe) {
        Err(FsError::Corrupt { reason }) => {
            assert!(reason.contains("scrub-state"), "{reason}")
        }
        other => panic!("expected truncated scrub section, got {other:?}"),
    }
}

/// The length prefix sits outside the CRC: a forged one is refused
/// against the checkpoint region before any block past it is read, so
/// mount never buffers data blocks as checkpoint bytes.
#[test]
fn ballooned_length_prefix_is_refused_before_reading_past_the_region() {
    for forged in [17 * SECTOR_DATA_BYTES as u64, 200_000, u64::MAX] {
        let (mut probe, _) = synced_fs(4, 4, 1);
        let mut sector = probe.mrs(0).unwrap().data;
        sector[..8].copy_from_slice(&forged.to_le_bytes());
        probe.mws(0, &sector).unwrap();
        match try_mount(&probe) {
            Err(FsError::Corrupt { reason }) => {
                assert!(reason.contains("checkpoint length"), "{reason}")
            }
            other => panic!("expected Corrupt for length {forged}, got {other:?}"),
        }
    }
}

/// Corruption confined to the scrub-state payload (checkpoint CRC still
/// valid) is the sanctioned degraded path: the mount SUCCEEDS with the
/// namespace intact, the bad record is rejected whole, and the next
/// scrub falls back to a full pass — never a mount failure, never a
/// partially applied restore.
#[test]
fn corrupt_scrub_payload_is_a_clean_fallback_never_a_mount_failure() {
    let (mut probe, expect) = synced_fs(5, 9, 2);
    rewrite_checkpoint(&mut probe, |b| {
        let p = offsets(b).scrub_len;
        let len = u32::from_le_bytes(b[p..p + 4].try_into().unwrap()) as usize;
        assert!(len > 0, "a scrubbed heated line must export state");
        for byte in &mut b[p + 4..p + 4 + len] {
            *byte ^= 0xA5;
        }
    });
    let mut fs = try_mount(&probe).expect("scrub-state corruption must never fail the mount");
    assert_intact(&mut fs, &expect);
    assert!(
        fs.scrub_restore().is_none(),
        "a corrupt record is rejected whole, not partially applied"
    );
}
