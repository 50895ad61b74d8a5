//! Property tests for the metadata index and its file-system integration.
//!
//! The LSM index is the authority for the namespace once a file system is
//! formatted with [`FsConfig::indexed`], so it gets the oracle treatment:
//! arbitrary op scripts against a `BTreeMap` reference model, arbitrary
//! WAL corruption with prefix-recovery guarantees, arbitrary segment
//! corruption with typed-error-or-correct-data guarantees, and the bloom
//! filters' zero-false-negative contract.

use proptest::prelude::*;
use sero::core::device::SeroDevice;
use sero::fs::alloc::WriteClass;
use sero::fs::error::FsError;
use sero::fs::fs::{FsConfig, SeroFs};
use sero::fs::inode::MAX_NAME_BYTES;
use sero::index::{IndexGeometry, MetaIndex, VecStore};
use sero::proto::{Request, Response, MAX_PAYLOAD_BYTES};
use std::collections::{BTreeMap, BTreeSet};

const INDEX_PAGES: u64 = 512;

fn pool_key(k: u8) -> Vec<u8> {
    format!("key-{:02}", k % 24).into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any script of put/delete/get/flush/reopen against the index agrees
    /// with a `BTreeMap` oracle at every observation point.
    #[test]
    fn index_agrees_with_btreemap_oracle(
        ops in proptest::collection::vec(
            (0u8..10, any::<u8>(), 0usize..64, any::<u8>()),
            1..80,
        ),
    ) {
        let mut store = VecStore::new(INDEX_PAGES);
        let geom = IndexGeometry::for_pages(INDEX_PAGES).unwrap();
        let mut idx = MetaIndex::format(&mut store, geom).unwrap();
        let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for (tag, key, len, byte) in ops {
            let key = pool_key(key);
            match tag {
                0..=4 => {
                    let value = vec![byte; len];
                    idx.put(&mut store, &key, &value).unwrap();
                    oracle.insert(key, value);
                }
                5 | 6 => {
                    idx.delete(&mut store, &key).unwrap();
                    oracle.remove(&key);
                }
                7 => idx.flush(&mut store).unwrap(),
                8 => {
                    // Reopen from the bare store: the WAL tail plus the
                    // manifest must reconstruct the exact same state.
                    drop(idx);
                    let (reopened, report) = MetaIndex::open(&mut store, geom).unwrap();
                    prop_assert!(!report.torn_tail, "clean close left a torn tail");
                    idx = reopened;
                }
                _ => {
                    let got = idx.get(&mut store, &key).unwrap();
                    prop_assert_eq!(got.as_ref(), oracle.get(&key));
                }
            }
        }
        let scanned = idx.scan_all(&mut store).unwrap();
        prop_assert_eq!(
            scanned,
            oracle.into_iter().collect::<Vec<_>>(),
            "scan_all must equal the oracle, sorted"
        );
    }

    /// A flipped byte anywhere in the WAL region loses at most a suffix
    /// of the unflushed tail: reopening succeeds, everything the manifest
    /// references survives intact, and the WAL records that do apply are
    /// a strict prefix of the post-flush writes.
    #[test]
    fn torn_wal_tail_recovers_to_a_prefix(
        n_base in 1usize..20,
        n_post in 1usize..20,
        page_pick in any::<proptest::sample::Index>(),
        offset in 0usize..512,
    ) {
        let mut store = VecStore::new(INDEX_PAGES);
        let geom = IndexGeometry::for_pages(INDEX_PAGES).unwrap();
        let mut idx = MetaIndex::format(&mut store, geom).unwrap();
        for i in 0..n_base {
            idx.put(&mut store, format!("base-{i:02}").as_bytes(), &[0xB0, i as u8])
                .unwrap();
        }
        idx.flush(&mut store).unwrap();
        for i in 0..n_post {
            idx.put(&mut store, format!("post-{i:02}").as_bytes(), &[0xC0, i as u8])
                .unwrap();
        }
        drop(idx);

        // Corrupt one byte somewhere in the WAL region — a torn tail, a
        // damaged length field, a flipped CRC, or a miss into virgin pages.
        let wal_pages = (geom.heap_start() - geom.wal_start()) as usize;
        let page = geom.wal_start() + page_pick.index(wal_pages) as u64;
        store.corrupt_byte(page, offset);

        let (mut idx, _report) = MetaIndex::open(&mut store, geom)
            .expect("WAL corruption must never make the index unopenable");
        for i in 0..n_base {
            let got = idx.get(&mut store, format!("base-{i:02}").as_bytes()).unwrap();
            prop_assert_eq!(
                got,
                Some(vec![0xB0, i as u8]),
                "manifest-referenced data lost to a WAL flip"
            );
        }
        let mut applied = Vec::new();
        for i in 0..n_post {
            match idx.get(&mut store, format!("post-{i:02}").as_bytes()).unwrap() {
                Some(v) => {
                    prop_assert_eq!(v, vec![0xC0, i as u8]);
                    applied.push(true);
                }
                None => applied.push(false),
            }
        }
        let survivors = applied.iter().filter(|&&a| a).count();
        prop_assert!(
            applied[..survivors].iter().all(|&a| a),
            "recovered WAL records must be a prefix, got {applied:?}"
        );
    }

    /// A flipped byte in the segment heap yields either a typed error or
    /// the correct answer — never a panic, never silently wrong data.
    #[test]
    fn flipped_segment_byte_is_typed_or_harmless(
        n_keys in 8usize..60,
        page_pick in any::<proptest::sample::Index>(),
        offset in 0usize..512,
    ) {
        let mut store = VecStore::new(INDEX_PAGES);
        let geom = IndexGeometry::for_pages(INDEX_PAGES).unwrap();
        let mut idx = MetaIndex::format(&mut store, geom).unwrap();
        let mut oracle = BTreeMap::new();
        for i in 0..n_keys {
            let key = format!("seg-{i:03}").into_bytes();
            let value = vec![i as u8; 1 + i % 40];
            idx.put(&mut store, &key, &value).unwrap();
            oracle.insert(key, value);
        }
        idx.flush(&mut store).unwrap();
        prop_assert!(idx.segment_pages() > 0, "flush must seal a segment");
        drop(idx);

        let heap_pages = (INDEX_PAGES - geom.heap_start()) as usize;
        let page = geom.heap_start() + page_pick.index(heap_pages) as u64;
        store.corrupt_byte(page, offset);

        match MetaIndex::open(&mut store, geom) {
            Err(_) => {} // typed rejection at open is fine
            Ok((mut idx, _)) => {
                for (key, value) in &oracle {
                    match idx.get(&mut store, key) {
                        Err(_) => {} // typed rejection at read is fine
                        Ok(got) => prop_assert_eq!(
                            got.as_ref(),
                            Some(value),
                            "corrupt segment served wrong data for {:?}",
                            String::from_utf8_lossy(key)
                        ),
                    }
                }
            }
        }
    }

    /// Bloom filters never produce a false negative: every key ever put
    /// (deleted or not — tombstones are entries too) answers "maybe".
    #[test]
    fn blooms_have_zero_false_negatives(
        keys in proptest::collection::vec(any::<u8>(), 4..48),
        deletes in proptest::collection::vec(any::<u8>(), 0..12),
    ) {
        let mut store = VecStore::new(INDEX_PAGES);
        let geom = IndexGeometry::for_pages(INDEX_PAGES).unwrap();
        let mut idx = MetaIndex::format(&mut store, geom).unwrap();
        let inserted: BTreeSet<Vec<u8>> = keys.iter().map(|&k| pool_key(k)).collect();
        for key in &inserted {
            idx.put(&mut store, key, b"v").unwrap();
        }
        for &k in &deletes {
            idx.delete(&mut store, &pool_key(k)).unwrap();
        }
        idx.flush(&mut store).unwrap();
        for key in &inserted {
            prop_assert!(
                idx.bloom_may_contain(&mut store, key).unwrap(),
                "false negative for {:?}",
                String::from_utf8_lossy(key)
            );
        }
    }

    /// An indexed file system survives any op script with remounts in the
    /// middle: after every remount the namespace, contents, and heated
    /// flags match a reference model.
    #[test]
    fn indexed_fs_scripts_survive_remounts(
        ops in proptest::collection::vec(
            (0u8..12, any::<u8>(), 1usize..1200, any::<u8>()),
            1..32,
        ),
    ) {
        let mut fs =
            SeroFs::format(SeroDevice::with_blocks(2048), FsConfig::indexed()).unwrap();
        let mut files: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let mut heated: BTreeSet<String> = BTreeSet::new();
        let mut clock = 1u64;

        for (tag, name, len, byte) in ops {
            let name = format!("f{}", name % 8);
            clock += 1;
            match tag {
                0..=3 => match files.entry(name.clone()) {
                    std::collections::btree_map::Entry::Occupied(_) => {
                        prop_assert!(matches!(
                            fs.create(&name, &[byte], WriteClass::Normal),
                            Err(FsError::Exists { .. })
                        ));
                    }
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        let data = vec![byte; len];
                        fs.create(&name, &data, WriteClass::Normal).unwrap();
                        slot.insert(data);
                    }
                },
                4..=6 => {
                    if heated.contains(&name) {
                        prop_assert!(matches!(
                            fs.write(&name, &[byte], WriteClass::Normal),
                            Err(FsError::ReadOnlyFile { .. })
                        ));
                    } else if files.contains_key(&name) {
                        let data = vec![byte ^ 0x55; len];
                        fs.write(&name, &data, WriteClass::Normal).unwrap();
                        files.insert(name, data);
                    }
                }
                7 | 8 => {
                    if files.contains_key(&name) && !heated.contains(&name) {
                        fs.remove(&name).unwrap();
                        files.remove(&name);
                    }
                }
                9 => {
                    // Heat sparingly: every heated line permanently
                    // freezes blocks on the simulated medium.
                    if files.contains_key(&name) && !heated.contains(&name) && heated.len() < 3 {
                        fs.heat(&name, vec![], clock).unwrap();
                        heated.insert(name);
                    }
                }
                _ => {
                    fs.sync().unwrap();
                    fs = SeroFs::mount(fs.into_device()).unwrap();
                    prop_assert!(fs.has_index());
                }
            }
        }

        fs.sync().unwrap();
        let mut fs = SeroFs::mount(fs.into_device()).unwrap();
        let names: Vec<String> = files.keys().cloned().collect();
        prop_assert_eq!(fs.list(), names);
        for (name, data) in &files {
            prop_assert_eq!(&fs.read(name).unwrap(), data, "contents of {}", name);
            let info = fs.stat(name).unwrap();
            prop_assert_eq!(
                info.heated.is_some(),
                heated.contains(name),
                "heated flag of {}",
                name
            );
        }
    }
}

/// A full index region is a typed `NoSpace`, never a lost entry or a
/// panic. After the first refusal, creates, removes and syncs answer
/// typed errors (or succeed), every acknowledged name still resolves
/// through the index, a refused name never does, and the device still
/// mounts with every name that a successful sync made durable. Short
/// and 45-byte names fill the region at different records of a create.
#[test]
fn full_index_region_refuses_typed_and_keeps_acknowledged_names() {
    for pad in [0, 39] {
        fill_index_region(|i| format!("{i:05}-{}", "n".repeat(pad)));
    }
}

/// True for `Ok`, false for the typed `NoSpace`; panics on anything else.
fn accepted<T>(r: Result<T, FsError>) -> bool {
    match r {
        Ok(_) => true,
        Err(FsError::NoSpace { .. }) => false,
        Err(e) => panic!("untyped failure after the index filled: {e}"),
    }
}

fn fill_index_region(name: impl Fn(usize) -> String) {
    let mut fs = SeroFs::format(SeroDevice::with_blocks(4096), FsConfig::indexed()).unwrap();
    let payload = |i: usize| vec![i as u8; 300];
    let mut created: Vec<String> = Vec::new();
    let mut durable = 0;
    loop {
        let i = created.len();
        assert!(i < 10_000, "the index region must fill");
        if !accepted(fs.create(&name(i), &payload(i), WriteClass::Normal)) {
            assert!(fs.index_lookup(&name(i)).unwrap().is_none());
            break;
        }
        created.push(name(i));
        if created.len() % 8 == 0 {
            if !accepted(fs.sync()) {
                break;
            }
            durable = created.len();
        }
    }
    assert!(durable >= 8, "the region filled before the first sync");

    for (i, n) in created.iter().enumerate() {
        assert!(fs.index_lookup(n).unwrap().is_some(), "{n} lost");
        assert_eq!(fs.read(n).unwrap(), payload(i));
    }
    let mut removed = BTreeSet::new();
    for i in 0..4 {
        let extra = name(created.len() + 1 + i);
        accepted(fs.create(&extra, &payload(i), WriteClass::Normal));
        if accepted(fs.remove(&created[i])) {
            removed.insert(created[i].clone());
        } else {
            assert_eq!(fs.read(&created[i]).unwrap(), payload(i));
        }
        accepted(fs.sync());
    }

    let mut remounted = SeroFs::mount(fs.device().clone()).unwrap();
    for n in remounted.list() {
        assert!(created.contains(&n), "phantom {n} after remount");
    }
    for (i, n) in created.iter().enumerate().take(durable) {
        if !removed.contains(n) {
            assert_eq!(remounted.read(n).unwrap(), payload(i), "{n} after remount");
        }
    }
}

/// The `List` page the wire must answer, from the `BTreeMap` model: the
/// names after `cursor` (exclusive, so a removed cursor still resumes),
/// at most `limit` of them (`0` = no caller cap), stopping before the
/// name whose 4-byte length prefix and bytes would push the page past
/// half a frame payload (the first name always goes in), and `next` =
/// the page's last name exactly when names remain after the page.
fn model_page(model: &BTreeMap<String, u64>, cursor: Option<&str>, limit: u32) -> Response {
    let tail: Vec<&String> = model
        .keys()
        .filter(|n| cursor.is_none_or(|c| n.as_str() > c))
        .collect();
    let mut names: Vec<String> = Vec::new();
    let mut bytes = 0;
    for name in &tail {
        bytes += 4 + name.len();
        let capped = limit != 0 && names.len() == limit as usize;
        if capped || (bytes > MAX_PAYLOAD_BYTES / 2 && !names.is_empty()) {
            break;
        }
        names.push(name.to_string());
    }
    let next = if names.len() < tail.len() {
        names.last().cloned()
    } else {
        None
    };
    Response::Names { names, next }
}

fn list_page(fs: &mut SeroFs, cursor: Option<&str>, limit: u32) -> Response {
    fs.handle(Request::List {
        cursor: cursor.map(str::to_string),
        limit,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Wire `List` pages equal the model's pages while creates and
    /// removes (the cursor name itself included) run between pages, on
    /// both metadata layouts. Besides resuming from the walk's own
    /// cursor, scripts list from a cursor past the last name, with
    /// `limit 0`, and with `limit` = the namespace size, so the page ends
    /// exactly at the last name and `next` must be `None`.
    #[test]
    fn list_pages_agree_with_btreemap_model(
        ops in proptest::collection::vec((0u8..10, any::<u8>(), 0u32..6), 1..64),
    ) {
        for config in [FsConfig::default(), FsConfig::indexed()] {
            let mut fs = SeroFs::format(SeroDevice::with_blocks(1024), config).unwrap();
            let mut model: BTreeMap<String, u64> = BTreeMap::new();
            let mut cursor: Option<String> = None;
            for &(tag, k, limit) in &ops {
                // Mixed widths ("f7", "f07", "f007") interleave in sort order.
                let name = format!("f{:0w$}", k % 24, w = 1 + usize::from(k / 24) % 3);
                let (at, limit) = match tag {
                    0..=2 => {
                        if let std::collections::btree_map::Entry::Vacant(slot) = model.entry(name) {
                            let ino = fs.create(slot.key(), &[k], WriteClass::Normal).unwrap();
                            slot.insert(ino);
                        }
                        continue;
                    }
                    3 => {
                        if model.remove(&name).is_some() {
                            fs.remove(&name).unwrap();
                        }
                        continue;
                    }
                    4 => {
                        if let Some(c) = cursor.as_deref().filter(|c| model.contains_key(*c)) {
                            fs.remove(c).unwrap();
                            model.remove(c);
                        }
                        continue;
                    }
                    5..=7 => (cursor.clone(), limit),
                    8 => (Some("~".to_string()), limit),
                    _ => (None, model.len() as u32),
                };
                let got = list_page(&mut fs, at.as_deref(), limit);
                let want = model_page(&model, at.as_deref(), limit);
                prop_assert_eq!(&got, &want, "cursor {:?} limit {}", at, limit);
                if let Response::Names { next, .. } = got {
                    if tag <= 7 {
                        cursor = next;
                    }
                }
            }
        }
    }
}

/// Pages of maximum-length names break at the byte budget, not at the
/// caller's larger `limit`, and the walk resumes past its cursor after
/// the cursor name and its successor are removed — on both layouts.
#[test]
fn list_pages_break_at_the_byte_budget() {
    let fits = MAX_PAYLOAD_BYTES / 2 / (4 + MAX_NAME_BYTES);
    let count = fits + 3;
    let index_blocks = 8192;
    for config in [
        FsConfig::default(),
        FsConfig {
            index_blocks,
            ..FsConfig::indexed()
        },
    ] {
        let blocks =
            (config.checkpoint_blocks + index_blocks + count as u64 + 512).next_multiple_of(64);
        let mut fs = SeroFs::format(SeroDevice::with_blocks(blocks), config).unwrap();
        let mut model: BTreeMap<String, u64> = BTreeMap::new();
        for i in 0..count {
            let name = format!("{i:05}-{}", "b".repeat(MAX_NAME_BYTES - 6));
            let ino = fs.create(&name, &[], WriteClass::Normal).unwrap();
            model.insert(name, ino);
        }
        let limit = count as u32;
        let first = list_page(&mut fs, None, limit);
        assert_eq!(first, model_page(&model, None, limit));
        let Response::Names { names, next } = first else {
            unreachable!()
        };
        assert_eq!(
            names.len(),
            fits,
            "the byte budget, not the limit, ends the page"
        );
        let cursor = next.expect("names remain after a budget break");
        let successor = model.keys().nth(fits).unwrap().clone();
        for gone in [&cursor, &successor] {
            fs.remove(gone).unwrap();
            model.remove(gone);
        }
        let second = list_page(&mut fs, Some(&cursor), 0);
        assert_eq!(second, model_page(&model, Some(&cursor), 0));
        assert!(matches!(second, Response::Names { ref names, next: None } if names.len() == 2));
    }
}
