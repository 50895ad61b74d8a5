//! Cross-layer properties of the bulk I/O fast path: extent transfers
//! must be byte-identical to the single-block loops they replace —
//! including across heated-line boundaries and over bad blocks — and the
//! parallel scrub must report exactly the tamper evidence the serial
//! `verify_line` loop reports.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sero::core::device::SeroDevice;
use sero::core::line::Line;
use sero::core::scrub::{scrub_device, ScrubConfig};
use sero::probe::device::ProbeDevice;

fn pattern(pba: u64, salt: u8) -> [u8; 512] {
    let mut s = [0u8; 512];
    for (j, b) in s.iter_mut().enumerate() {
        *b = (pba as u8).wrapping_mul(97).wrapping_add(j as u8) ^ salt;
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Probe-level extent reads agree with the mrs loop block for block,
    /// including bad (shredded) blocks, which must error in both paths
    /// without poisoning their neighbours.
    #[test]
    fn probe_extent_read_matches_loop(
        seed in any::<u64>(),
        start in 0u64..8,
        count in 1u64..24,
        shred_offset in 0u64..24,
    ) {
        prop_assume!(start + count <= 32);
        let mut dev = ProbeDevice::builder().blocks(32).seed(seed).build();
        for pba in 0..32 {
            dev.mws(pba, &pattern(pba, seed as u8)).unwrap();
        }
        if shred_offset < count {
            dev.shred(start + shred_offset).unwrap();
        }

        let mut loop_dev = dev.clone();
        let batched = dev.read_blocks(start, count).unwrap();
        prop_assert_eq!(batched.len(), count as usize);
        for (i, sector) in batched.into_iter().enumerate() {
            let pba = start + i as u64;
            match (sector, loop_dev.mrs(pba)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a.data, b.data, "block {}", pba),
                (Err(_), Err(_)) => prop_assert_eq!(Some(shred_offset), Some(i as u64)),
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "batch {:?} vs loop {:?} at block {pba}",
                        a.map(|s| s.erased_bytes),
                        b.map(|s| s.erased_bytes)
                    )))
                }
            }
        }
    }

    /// Probe-level extent writes leave the medium byte-identical to the
    /// mws loop writing the same data.
    #[test]
    fn probe_extent_write_matches_loop(
        seed in any::<u64>(),
        start in 0u64..8,
        count in 1usize..24,
    ) {
        prop_assume!(start as usize + count <= 32);
        let sectors: Vec<[u8; 512]> = (0..count)
            .map(|i| pattern(start + i as u64, seed as u8))
            .collect();

        let mut batch_dev = ProbeDevice::builder().blocks(32).seed(seed).build();
        let mut loop_dev = ProbeDevice::builder().blocks(32).seed(seed).build();
        batch_dev.write_blocks(start, &sectors).unwrap();
        for (i, data) in sectors.iter().enumerate() {
            loop_dev.mws(start + i as u64, data).unwrap();
        }
        for i in 0..count as u64 {
            let a = batch_dev.mrs(start + i).unwrap().data;
            let b = loop_dev.mrs(start + i).unwrap().data;
            prop_assert_eq!(a, b, "block {}", start + i);
            prop_assert_eq!(a, sectors[i as usize], "round trip at {}", start + i);
        }
    }

    /// Protocol-level batch reads across a heated-line boundary return
    /// exactly what read_block returns, and batch writes refuse read-only
    /// targets exactly like write_block.
    #[test]
    fn device_batch_respects_heated_lines(
        order in 1u32..3,
        slot in 0u64..3,
        salt in any::<u8>(),
    ) {
        let mut dev = SeroDevice::with_blocks(32);
        for pba in 0..32 {
            dev.write_block(pba, &pattern(pba, salt)).unwrap();
        }
        let len = 1u64 << order;
        let line = Line::new(8 + slot * len, order).unwrap();
        dev.heat_line(line, vec![], 0).unwrap();

        // A scattered list spanning WMRM space and the line's data blocks.
        let pbas: Vec<u64> = (0..32)
            .filter(|&pba| pba != line.hash_block())
            .collect();
        let batched = dev.read_blocks(&pbas).unwrap();
        let mut loop_dev = dev.clone();
        for (i, &pba) in pbas.iter().enumerate() {
            prop_assert_eq!(batched[i], loop_dev.read_block(pba).unwrap(), "block {}", pba);
        }

        // Including the hash block errs exactly like the loop does.
        prop_assert!(dev.read_blocks(&[0, line.hash_block()]).is_err());
        prop_assert!(loop_dev.read_block(line.hash_block()).is_err());

        // Writes into the heated line are refused up front.
        let err = dev.write_blocks(&[0, line.start() + 1], &[pattern(0, salt); 2]);
        prop_assert!(err.is_err());
        prop_assert_eq!(dev.read_block(0).unwrap(), pattern(0, salt), "nothing written");
    }

    /// A refused request touches nothing: for every refusal (an address
    /// past the end, a write into a heated line, a magnetic touch of a
    /// hash block, a heat overlapping or past the end) the medium and the
    /// clock are exactly as before, whatever the rest of the batch named.
    #[test]
    fn refused_requests_touch_nothing(
        kind in 0u8..6,
        picks in proptest::collection::vec(0u64..64, 0..6),
        at in any::<usize>(),
        beyond in 64u64..200,
        salt in any::<u8>(),
    ) {
        const BLOCKS: u64 = 64;
        let mut dev = SeroDevice::with_blocks(BLOCKS);
        for pba in 0..BLOCKS {
            dev.write_block(pba, &pattern(pba, salt)).unwrap();
        }
        let line = Line::new(16, 2).unwrap();
        dev.heat_line(line, vec![], 0).unwrap();
        // In-range addresses outside the heated line, for the rest of the
        // batch, and the one address that gets the batch refused.
        let inside = line.start()..line.end();
        let mut pbas: Vec<u64> = picks
            .iter()
            .map(|&p| if inside.contains(&p) { p + 8 } else { p })
            .collect();
        let culprit = match kind {
            0..=2 => beyond,
            3 => line.start() + 1,
            _ => line.hash_block(),
        };
        pbas.insert(at % (pbas.len() + 1), culprit);
        let medium = dev.probe().medium().clone();
        let clock = dev.probe().clock();
        let refused = match kind {
            0 | 3 => dev.write_blocks(&pbas, &vec![pattern(0, !salt); pbas.len()]).is_err(),
            1 | 4 => dev.read_blocks(&pbas).is_err(),
            2 => dev.read_blocks_sweep(&pbas).is_err(),
            _ => {
                let overlapping = Line::new(16, 3).unwrap();
                let past_end = Line::new(BLOCKS, 1 + (at % 3) as u32).unwrap();
                dev.heat_line(overlapping, vec![], 1).is_err()
                    && dev.heat_line(past_end, vec![], 1).is_err()
                    && dev.read_blocks_sweep(&pbas).is_err()
            }
        };
        prop_assert!(refused, "kind {} batch {:?} was not refused", kind, pbas);
        prop_assert!(dev.probe().medium() == &medium, "kind {} changed the medium", kind);
        prop_assert_eq!(dev.probe().clock(), clock, "kind {} advanced the clock", kind);
    }

    /// The parallel scrub reports the same per-line outcome — the same
    /// evidence — as the serial verify_line loop, for any mix of intact,
    /// magnetically rewritten, and hash-vandalised lines.
    #[test]
    fn parallel_scrub_equals_serial_verify(
        workers in 2usize..5,
        rewrite_victim in 0u64..6,
        vandal_victim in 0u64..6,
        salt in any::<u8>(),
    ) {
        let mut dev = SeroDevice::with_blocks(64);
        let lines: Vec<Line> = (0..6).map(|i| Line::new(i * 8, 3).unwrap()).collect();
        for &line in &lines {
            for pba in line.data_blocks() {
                dev.write_block(pba, &pattern(pba, salt)).unwrap();
            }
            dev.heat_line(line, vec![], 0).unwrap();
        }
        // Attack 1: rewrite a protected data block through the raw probe.
        dev.probe_mut()
            .mws(lines[rewrite_victim as usize].start() + 2, &pattern(99, !salt))
            .unwrap();
        // Attack 2: burn extra dots into a hash block's first cell.
        let hash = lines[vandal_victim as usize].hash_block();
        let dot = dev.probe().electrical_cell_dot(hash, 0);
        dev.probe_mut().ewb(dot);
        dev.probe_mut().ewb(dot + 1);

        let mut serial_dev = dev.clone();
        let serial: Vec<_> = lines
            .iter()
            .map(|&line| (line, serial_dev.verify_line(line).unwrap()))
            .collect();
        let report = scrub_device(&mut dev, &ScrubConfig::with_workers(workers)).unwrap();

        prop_assert_eq!(report.outcomes.len(), serial.len());
        for (scrubbed, (line, outcome)) in report.outcomes.iter().zip(serial.iter()) {
            prop_assert_eq!(scrubbed.line, *line);
            prop_assert_eq!(&scrubbed.outcome, outcome, "evidence diverged on {}", line);
        }
        let expected_tampered = if rewrite_victim == vandal_victim { 1 } else { 2 };
        prop_assert_eq!(report.summary.tampered, expected_tampered);
        prop_assert_eq!(report.summary.lines, 6);
    }
}
