//! Cross-layer properties of background scrub scheduling and persisted
//! scrub epochs: a budgeted, paused, resumed, arbitrarily-sliced
//! background pass must produce byte-identical tamper evidence to an
//! uninterrupted exclusive pass, and the epochs a detach would forget
//! must survive the journey through the persisted scrub state — the
//! device's exported record, which the fs checkpoint carries — so a
//! remount's incremental delta is exactly the pre-detach delta. The
//! fs-level tests drive the core [`ScrubScheduler`] over a mounted
//! [`SeroFs`] directly.

use proptest::prelude::*;
use sero::core::device::SeroDevice;
use sero::core::line::Line;
use sero::core::sched::{SchedConfig, ScrubScheduler, SliceOutcome};
use sero::core::scrub::{pass_work_list, scrub_device, ScrubConfig, ScrubMode};
use sero::fs::alloc::WriteClass;
use sero::fs::fs::{FsConfig, SeroFs};

fn pattern(pba: u64, salt: u8) -> [u8; 512] {
    let mut s = [0u8; 512];
    for (j, b) in s.iter_mut().enumerate() {
        *b = (pba as u8).wrapping_mul(131).wrapping_add(j as u8) ^ salt;
    }
    s
}

/// Heats `slots` order-3 lines (8 blocks each) on a fresh device.
fn heated_device(seed: u64, salt: u8, slots: &[u64]) -> (SeroDevice, Vec<Line>) {
    let mut dev = SeroDevice::new(
        sero::probe::device::ProbeDevice::builder()
            .blocks(256)
            .seed(seed)
            .build(),
    );
    let mut lines = Vec::new();
    for &slot in slots {
        let line = Line::new(slot * 8, 3).unwrap();
        for pba in line.data_blocks() {
            dev.write_block(pba, &pattern(pba, salt)).unwrap();
        }
        dev.heat_line(line, vec![salt], 1_199_145_600 + slot)
            .unwrap();
        lines.push(line);
    }
    (dev, lines)
}

/// Drives `sched` to completion, pausing/resuming at `pause_every` slices
/// and idling through throttle windows.
fn drain_with_pauses(sched: &mut ScrubScheduler, dev: &mut SeroDevice, pause_every: usize) {
    let mut since_pause = 0usize;
    let mut guard = 0usize;
    while !sched.is_complete() {
        guard += 1;
        assert!(guard < 100_000, "scheduler failed to converge");
        if pause_every != 0 && since_pause >= pause_every {
            sched.pause();
            // A paused pass refuses slices without touching the device.
            assert_eq!(sched.run_slice(dev).unwrap(), SliceOutcome::Paused);
            sched.resume();
            since_pause = 0;
        }
        match sched.run_slice(dev).unwrap() {
            SliceOutcome::Ran { .. } => since_pause += 1,
            SliceOutcome::Throttled { resume_at_ns } => {
                let now = dev.probe().clock().elapsed_ns();
                dev.probe_mut().advance_clock((resume_at_ns - now) as u64);
            }
            other => panic!("unexpected slice outcome {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A budgeted/paused/resumed background pass — arbitrary budget,
    /// quantum, and pause cadence, with random tampering planted first —
    /// reports byte-identical tamper evidence to an uninterrupted
    /// exclusive pass over a clone, and advances the same epoch.
    #[test]
    fn interrupted_background_pass_equals_exclusive_pass(
        seed in any::<u64>(),
        salt in any::<u8>(),
        raw_slots in proptest::collection::vec(0u64..16, 2..10),
        victims in proptest::collection::vec(0usize..10, 0..3),
        budget_us in prop_oneof![Just(0u64), 200..5_000u64],
        quantum_factor in 1u64..8,
        pause_every in 0usize..4,
    ) {
        let slots: std::collections::BTreeSet<u64> = raw_slots.into_iter().collect();
        let slots: Vec<u64> = slots.into_iter().collect();
        let (mut dev, lines) = heated_device(seed, salt, &slots);
        // Plant tamper evidence: raw rewrites of some data blocks.
        for &v in &victims {
            let line = lines[v % lines.len()];
            dev.probe_mut().mws(line.start() + 1 + (v as u64 % 7), &[0xAA; 512]).unwrap();
        }

        let mut exclusive_dev = dev.clone();
        let exclusive = scrub_device(&mut exclusive_dev, &ScrubConfig::default()).unwrap();

        let budget_ns = budget_us * 1_000;
        let config = if budget_ns == 0 {
            SchedConfig::greedy()
        } else {
            SchedConfig::budgeted(budget_ns, budget_ns * quantum_factor).unwrap()
        };
        let mut sched = ScrubScheduler::start(&dev, config);
        drain_with_pauses(&mut sched, &mut dev, pause_every);
        let report = sched.report();

        // Byte-identical evidence: same outcomes (sorted by address), the
        // same per-line Evidence payloads inside, same totals.
        prop_assert_eq!(&report.outcomes, &exclusive.outcomes);
        prop_assert_eq!(report.summary.lines, exclusive.summary.lines);
        prop_assert_eq!(report.summary.tampered, exclusive.summary.tampered);
        prop_assert_eq!(report.summary.epoch, exclusive.summary.epoch);
        prop_assert_eq!(dev.scrub_epoch(), exclusive_dev.scrub_epoch());

        // And the two devices agree on what the *next* incremental pass
        // owes: flagged (tampered) lines, nothing else.
        prop_assert_eq!(
            pass_work_list(&dev, ScrubMode::Incremental),
            pass_work_list(&exclusive_dev, ScrubMode::Incremental)
        );
    }

    /// Persisted scrub state round-trips through the device's exported
    /// record across detach/attach: the remounted incremental delta is
    /// exactly the pre-detach delta, for any split of the population
    /// into scrubbed / freshly-heated / flagged lines.
    #[test]
    fn persisted_epochs_survive_detach(
        seed in any::<u64>(),
        salt in any::<u8>(),
        raw_initial in proptest::collection::vec(0u64..12, 1..6),
        raw_late in proptest::collection::vec(12u64..20, 0..4),
        flag_pick in 0usize..64,
        flag_some in any::<bool>(),
    ) {
        let initial: std::collections::BTreeSet<u64> = raw_initial.into_iter().collect();
        let initial: Vec<u64> = initial.into_iter().collect();
        let (mut dev, lines) = heated_device(seed, salt, &initial);

        // Epoch 1 covers the initial population…
        scrub_device(&mut dev, &ScrubConfig::default()).unwrap();
        // …then a delta lands: late heats plus maybe a refused write.
        let late: std::collections::BTreeSet<u64> = raw_late.into_iter().collect();
        for &slot in &late {
            let line = Line::new(slot * 8, 3).unwrap();
            for pba in line.data_blocks() {
                dev.write_block(pba, &pattern(pba, salt)).unwrap();
            }
            dev.heat_line(line, vec![], 1).unwrap();
        }
        if flag_some {
            let line = lines[flag_pick % lines.len()];
            prop_assert!(dev.write_block(line.start() + 1, &[0u8; 512]).is_err());
        }

        let delta_before = pass_work_list(&dev, ScrubMode::Incremental);
        let epoch_before = dev.scrub_epoch();

        // Export, detach onto a fresh attach of the same medium (epoch 0,
        // empty registry), rebuild, restore: the epoch and flags below can
        // only come from the exported record.
        let state = dev.export_scrub_state();
        let mut dev = SeroDevice::new(dev.probe().clone());
        prop_assert_eq!(dev.scrub_epoch(), 0);
        dev.rebuild_registry().unwrap();
        let restore = dev.import_scrub_state(&state).unwrap();
        // Only informative records persist: the verified initial lines
        // (late heats are epoch-0/unflagged, exactly the rebuild default).
        prop_assert_eq!(restore.restored, initial.len());

        prop_assert_eq!(dev.scrub_epoch(), epoch_before);
        prop_assert_eq!(pass_work_list(&dev, ScrubMode::Incremental), delta_before);
    }
}

/// The acceptance-criteria integration test: a remount after detach
/// performs an *incremental* pass (persisted epochs via the fs
/// checkpoint), not a full one — and a v2-checkpoint fs round-trips all
/// of directory, inodes, and scrub bookkeeping.
#[test]
fn remount_after_detach_scrubs_incrementally() {
    let mut fs = SeroFs::format(SeroDevice::with_blocks(2048), FsConfig::default()).unwrap();
    for i in 0..10 {
        let name = format!("ledger-{i:02}");
        fs.create(&name, &vec![i as u8; 4000], WriteClass::Archival)
            .unwrap();
        fs.heat(
            &name,
            format!("q{i}").into_bytes(),
            1_199_145_600 + i as u64,
        )
        .unwrap();
    }
    // Background pass covers everything; sync persists the epochs.
    let mut scrub = ScrubScheduler::start(fs.device(), SchedConfig::default());
    while !scrub.is_complete() {
        match scrub.run_slice(fs.device_mut()).unwrap() {
            SliceOutcome::Throttled { resume_at_ns } => {
                let now = fs.device().probe().clock().elapsed_ns();
                fs.device_mut()
                    .probe_mut()
                    .advance_clock((resume_at_ns - now) as u64);
            }
            SliceOutcome::Ran { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(fs.device().scrub_epoch(), 1);

    // Post-pass delta: one new heated file.
    fs.create("late-addendum", &[7u8; 2000], WriteClass::Archival)
        .unwrap();
    let late = fs.heat("late-addendum", vec![], 999).unwrap();
    fs.sync().unwrap();

    // Detach (drop every byte of volatile state), then remount.
    let mut dev = fs.into_device();
    dev.forget_registry();
    let mut fs = SeroFs::mount(dev).unwrap();
    assert_eq!(fs.scrub_restore().unwrap().restored, 10);
    assert_eq!(fs.list().len(), 11);
    assert_eq!(fs.read("ledger-03").unwrap(), vec![3u8; 4000]);

    // The remounted pass is incremental and covers only the delta.
    let report = fs.scrub_incremental().unwrap();
    assert_eq!(report.summary.mode, ScrubMode::Incremental);
    assert_eq!(report.summary.lines, 1);
    assert_eq!(report.outcomes[0].line, late);
    assert_eq!(report.summary.skipped, 10);
    assert!(report.summary.is_clean());

    // Counterfactual: a device that lost the persisted state (a fresh
    // SERO wrapper over the same medium, no checkpoint import) falls back
    // to a full pass on its next incremental request — all 11 lines.
    let mut cold = SeroDevice::new(fs.device().probe().clone());
    cold.rebuild_registry().unwrap();
    let full = scrub_device(&mut cold, &ScrubConfig::incremental(1)).unwrap();
    assert_eq!(full.summary.mode, ScrubMode::Full);
    assert_eq!(full.summary.lines, 11);
}

/// Cancelling a background fs pass mid-flight must leave the completed
/// epoch untouched (the cancelled-pass regression from the satellite
/// list, at the fs layer).
#[test]
fn cancelled_fs_pass_keeps_epoch_and_next_pass_covers_remainder() {
    let mut fs = SeroFs::format(SeroDevice::with_blocks(1024), FsConfig::default()).unwrap();
    for i in 0..6 {
        let name = format!("doc-{i}");
        fs.create(&name, &vec![i as u8; 3000], WriteClass::Archival)
            .unwrap();
        fs.heat(&name, vec![], i as u64).unwrap();
    }
    let mut scrub = ScrubScheduler::start(fs.device(), SchedConfig::slice_budget(1).unwrap());
    scrub.run_slice(fs.device_mut()).unwrap();
    scrub.cancel();
    assert_eq!(fs.device().scrub_epoch(), 0, "cancelled pass never counts");
    let verified = scrub.report().outcomes.len();
    assert_eq!(verified, 1);

    // The next pass (epoch 1) covers all six lines: nothing was lost,
    // nothing double-counted.
    let report = fs.scrub(&ScrubConfig::default()).unwrap();
    assert_eq!((report.summary.epoch, report.summary.lines), (1, 6));
}
