//! Sensing a run of dots: the per-dot oracle path and the exact-channel
//! word path behind the sector primitives.
//!
//! `read_sector_here` (`mrs`) and `ers_cells_here` (`ers`) sense through
//! here. The per-dot path runs [`ReadChannel::detect`] once per dot, as
//! the five-step `erb` and the Figure 2 coin flip prescribe. On a channel
//! whose decisions are exact ([`ReadChannel::decisions_are_exact`]) the
//! word path reads the medium's two planes a word at a time instead and
//! only advances the RNG by the words `detect` would have drawn, so the
//! clock, counters, RNG stream and every result stay those of the per-dot
//! path:
//!
//! * an intact dot reads its own bit, at 2 words per `detect` (0 when
//!   σ = 0): 2 per `mrs` dot and 6 per `erb`, whose three reads all agree
//!   and whose double inversion restores the dot;
//! * a heated dot reads weak, which costs `detect`'s 4 words (2 when
//!   σ = 0) plus the coin of the weak read: 5 in all, and `erb` stops
//!   there. `mrs` keeps the coin's value, because it lands in an erased
//!   byte the decoder still reads.
//!
//! Noisy channels keep the per-dot path.
//!
//! [`ReadChannel::detect`]: sero_media::mfm::ReadChannel::detect
//! [`ReadChannel::decisions_are_exact`]: sero_media::mfm::ReadChannel::decisions_are_exact

use crate::device::ProbeDevice;
use crate::sector::{DATA_AREA_DOTS, SECTOR_DOTS, SECTOR_TOTAL_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// Words in one sector's run of dots (the last one half full).
pub(crate) const SECTOR_WORDS: usize = SECTOR_DOTS.div_ceil(64);

/// Words in one electrical area.
const AREA_WORDS: usize = DATA_AREA_DOTS / 64;

/// A sensed sector: its raw bytes and the bytes that held a weak dot.
pub(crate) struct SensedSector {
    pub(crate) raw: [u8; SECTOR_TOTAL_BYTES],
    erased: [usize; SECTOR_TOTAL_BYTES],
    erased_len: usize,
}

impl SensedSector {
    /// Byte offsets that arrived as erasures, ascending.
    pub(crate) fn erased(&self) -> &[usize] {
        &self.erased[..self.erased_len]
    }

    fn new() -> SensedSector {
        SensedSector {
            raw: [0; SECTOR_TOTAL_BYTES],
            erased: [0; SECTOR_TOTAL_BYTES],
            erased_len: 0,
        }
    }

    fn erase(&mut self, byte: usize) {
        self.erased[self.erased_len] = byte;
        self.erased_len += 1;
    }
}

impl ProbeDevice {
    /// Senses the sector whose first dot is `first`, on the word path when
    /// `exact` (the caller checked the channel) and per dot otherwise.
    pub(crate) fn sense_sector(&mut self, first: u64, exact: bool) -> SensedSector {
        let mut out = SensedSector::new();
        if exact {
            let mut mag = [0u64; SECTOR_WORDS];
            let mut heat = [0u64; SECTOR_WORDS];
            let any_heated = self
                .medium
                .read_run(first, SECTOR_DOTS, &mut mag, &mut heat);
            let intact = self.channel.detect_draws(false);
            let heated = self.channel.detect_draws(true);
            // A heated dot reads weak, so `read_bit_raw` flips its coin.
            self.replay_run(SECTOR_DOTS, &heat, intact, heated, |rng, j| {
                let coin: bool = rng.random();
                mag[j / 64] |= u64::from(coin) << (j % 64);
            });
            words_to_bytes(&mag, &mut out.raw);
            if any_heated {
                let mut weak = [0u8; SECTOR_TOTAL_BYTES];
                words_to_bytes(&heat, &mut weak);
                for (byte, _) in weak.iter().enumerate().filter(|(_, &w)| w != 0) {
                    out.erase(byte);
                }
            }
        } else {
            for byte_idx in 0..SECTOR_TOTAL_BYTES {
                let mut byte = 0u8;
                let mut weak = false;
                for bit in 0..8 {
                    let (b, w) = self.read_bit_raw(first + (byte_idx * 8 + bit) as u64);
                    if b {
                        byte |= 1 << (7 - bit);
                    }
                    weak |= w;
                }
                out.raw[byte_idx] = byte;
                if weak {
                    out.erase(byte_idx);
                }
            }
        }
        out
    }

    /// Probes the run of `flags.len()` dots from `base` with the five-step
    /// `erb`, setting each flag when its dot reads heated: on the word path
    /// when `exact`, per dot otherwise.
    pub(crate) fn sense_heat_flags(&mut self, base: u64, flags: &mut [bool], exact: bool) {
        if !exact {
            for (offset, flag) in flags.iter_mut().enumerate() {
                *flag = self.erb_raw(base + offset as u64).is_heated();
            }
            return;
        }
        let dots = flags.len();
        let mut mag = [0u64; AREA_WORDS];
        let mut heat = [0u64; AREA_WORDS];
        self.medium.read_run(base, dots, &mut mag, &mut heat);
        // An intact dot passes all three reads of `erb`; a heated one
        // stops at the first, which reads weak and flips its coin.
        let intact = 3 * self.channel.detect_draws(false);
        let heated = self.channel.detect_draws(true) + 1;
        let words = dots.div_ceil(64);
        self.replay_run(dots, &heat[..words], intact, heated, |_, _| {});
        for (j, flag) in flags.iter_mut().enumerate() {
            *flag = heat[j / 64] >> (j % 64) & 1 == 1;
        }
    }

    /// Advances the channel RNG over a run of `len` dots in dot order, as
    /// the per-dot path would: `intact` words for each intact dot, and for
    /// heated dot `j` of the run `heated` words, then `last(rng, j)` for
    /// any draw whose value the caller keeps.
    fn replay_run(
        &mut self,
        len: usize,
        heat: &[u64],
        intact: u64,
        heated: u64,
        mut last: impl FnMut(&mut StdRng, usize),
    ) {
        let rng = &mut self.rng;
        for (k, &word) in heat.iter().enumerate() {
            let dots = (len - 64 * k).min(64);
            let mut done = 0;
            let mut rest = word;
            while rest != 0 {
                let j = rest.trailing_zeros() as usize;
                skip_draws(rng, intact * (j - done) as u64 + heated);
                last(rng, 64 * k + j);
                done = j + 1;
                rest &= rest - 1;
            }
            skip_draws(rng, intact * (dots - done) as u64);
        }
    }
}

fn skip_draws(rng: &mut StdRng, words: u64) {
    for _ in 0..words {
        rng.next_u64();
    }
}

/// Unpacks dot words into sector bytes: dot `8i + b` is bit `7 − b` of
/// byte `i` (the sector's most-significant-first order).
pub(crate) fn words_to_bytes(words: &[u64], bytes: &mut [u8]) {
    for (chunk, word) in bytes.chunks_mut(8).zip(words) {
        chunk.copy_from_slice(&word.reverse_bits().to_be_bytes()[..chunk.len()]);
    }
}

/// Packs sector bytes into dot words, the inverse of [`words_to_bytes`].
pub(crate) fn bytes_to_words(bytes: &[u8], words: &mut [u64]) {
    for (word, chunk) in words.iter_mut().zip(bytes.chunks(8)) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        *word = u64::from_be_bytes(buf).reverse_bits();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sector::{DATA_AREA_FIRST_DOT, ELECTRICAL_CELLS, SECTOR_DATA_BYTES};
    use proptest::prelude::*;
    use sero_media::mfm::{ReadChannel, NOISE_BOUND_SIGMAS};
    use sero_media::thermal::ThermalModel;

    const BLOCKS: u64 = 6;

    /// An exact channel from per-mille parameters: threshold, leakage
    /// below it, and σ anywhere up to the largest exact value.
    fn exact_channel(threshold: u64, leakage: u64, sigma: u64) -> ReadChannel {
        let threshold = threshold as f64 / 1000.0;
        let leakage = threshold * leakage as f64 / 1000.0;
        let room = (1.0 - threshold).min(threshold - leakage) / NOISE_BOUND_SIGMAS;
        ReadChannel::new(
            1.0,
            room * 0.999 * sigma as f64 / 1000.0,
            leakage,
            threshold,
        )
    }

    /// A device on `channel` with every block written, then damaged:
    /// `heats` heat dots (each `(block, dot in footprint)`), a few of them
    /// rebuilt by FIB, and `burns` hash-block heats through `ewb` on a
    /// marginal thermal design, which disturbs neighbours.
    fn damaged_device(
        channel: ReadChannel,
        seed: u64,
        heats: &[(u64, u64)],
        rebuilds: usize,
        burns: &[u64],
    ) -> ProbeDevice {
        let mut dev = ProbeDevice::builder()
            .blocks(BLOCKS)
            .channel(channel)
            .thermal(ThermalModel::marginal(100.0))
            .seed(seed)
            .build();
        for pba in 0..BLOCKS {
            let data: [u8; SECTOR_DATA_BYTES] =
                core::array::from_fn(|i| (i as u64 * 31 + pba * 7 + seed) as u8);
            dev.mws(pba, &data).unwrap();
        }
        for &(pba, dot) in heats {
            let first = dev.block_first_dot(pba % BLOCKS);
            dev.medium_mut().heat(first + dot % SECTOR_DOTS as u64);
        }
        for &(pba, dot) in heats.iter().take(rebuilds) {
            let first = dev.block_first_dot(pba % BLOCKS);
            dev.medium_mut()
                .fib_reconstruct(first + dot % SECTOR_DOTS as u64, dot & 1 == 1);
        }
        for &cell in burns {
            let dot = dev.electrical_cell_dot(cell % BLOCKS, (cell / BLOCKS) as usize % 64);
            dev.ewb(dot);
        }
        dev
    }

    /// The device's state that later operations can see.
    fn observe(dev: &mut ProbeDevice) -> (u128, crate::timing::OpCounters, [u64; 4]) {
        let next = core::array::from_fn(|_| dev.rng.next_u64());
        (dev.clock().elapsed_ns(), *dev.counters(), next)
    }

    /// Damage: heated dots spread over the device, few enough per sector
    /// that some sectors still decode and some do not.
    fn heats() -> impl Strategy<Value = Vec<(u64, u64)>> {
        proptest::collection::vec((0u64..BLOCKS, any::<u64>()), 0..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `mrs` on the word path equals the per-dot oracle: bytes,
        /// erasure list, decoded sector or error (corrected symbols
        /// included), clock, counters and the next RNG outputs.
        #[test]
        fn mrs_word_path_matches_the_per_dot_oracle(
            params in (300u64..700, 0u64..1000, 0u64..=1000),
            seed in any::<u64>(),
            heats in heats(),
            rebuilds in 0usize..6,
            burns in proptest::collection::vec(any::<u64>(), 0..8),
        ) {
            let channel = exact_channel(params.0, params.1, params.2);
            prop_assert!(channel.decisions_are_exact());
            let dev = damaged_device(channel, seed, &heats, rebuilds, &burns);
            for pba in 0..BLOCKS {
                let (mut word, mut oracle) = (dev.clone(), dev.clone());
                let first = dev.block_first_dot(pba);
                let fast = word.sense_sector(first, true);
                let slow = oracle.sense_sector(first, false);
                prop_assert_eq!(&fast.raw[..], &slow.raw[..]);
                prop_assert_eq!(fast.erased(), slow.erased());
                prop_assert_eq!(observe(&mut word), observe(&mut oracle));

                let (mut word, mut oracle) = (dev.clone(), dev.clone());
                word.seek_block(pba);
                oracle.seek_block(pba);
                let fast = word.read_sector_sensing(pba, true);
                let slow = oracle.read_sector_sensing(pba, false);
                prop_assert_eq!(fast, slow);
                prop_assert_eq!(observe(&mut word), observe(&mut oracle));
            }
        }

        /// `ers` and its prefix probe on the word path equal the per-dot
        /// oracle: the `Scan`, clock, counters, next RNG outputs, and a
        /// medium the probe left as it found it.
        #[test]
        fn ers_word_path_matches_the_per_dot_oracle(
            params in (300u64..700, 0u64..1000, 0u64..=1000),
            seed in any::<u64>(),
            heats in heats(),
            rebuilds in 0usize..6,
            burns in proptest::collection::vec(any::<u64>(), 0..8),
            payload in proptest::collection::vec(any::<bool>(), 0..96),
            cells in 0usize..=ELECTRICAL_CELLS,
        ) {
            let channel = exact_channel(params.0, params.1, params.2);
            let mut dev = damaged_device(channel, seed, &heats, rebuilds, &burns);
            dev.ews(seed % BLOCKS, &payload).unwrap();
            for pba in 0..BLOCKS {
                for cells in [ELECTRICAL_CELLS, cells] {
                    let (mut word, mut oracle) = (dev.clone(), dev.clone());
                    let fast = word.ers_cells_sensing(pba, cells, true);
                    let slow = oracle.ers_cells_sensing(pba, cells, false);
                    prop_assert_eq!(fast, slow);
                    prop_assert!(word.medium() == dev.medium());
                    prop_assert!(oracle.medium() == dev.medium());
                    prop_assert_eq!(observe(&mut word), observe(&mut oracle));
                }
            }
        }

        /// `mws` writes a word at a time: heated dots refuse their bit and
        /// are counted, exactly as per-dot `mwb` writes of the encoded
        /// sector, and the medium ends up the same.
        #[test]
        fn mws_word_path_matches_per_dot_writes(
            seed in any::<u64>(),
            heats in heats(),
            pba in 0u64..BLOCKS,
            fill in any::<u8>(),
        ) {
            let mut dev = damaged_device(ReadChannel::default(), seed, &heats, 0, &[]);
            let mut oracle = dev.medium().clone();
            let data = [fill; SECTOR_DATA_BYTES];
            let raw = dev.codec.encode(pba, &data);
            let first = dev.block_first_dot(pba);
            let mut refused = 0;
            for (i, &byte) in raw.iter().enumerate() {
                for bit in 0..8 {
                    if !oracle.write_mag(first + (i * 8 + bit) as u64, byte >> (7 - bit) & 1 == 1) {
                        refused += 1;
                    }
                }
            }
            let report = dev.mws(pba, &data).unwrap();
            prop_assert_eq!(report.unwritable_dots, refused);
            prop_assert!(dev.medium() == &oracle);
        }
    }

    #[test]
    fn words_and_bytes_round_trip_in_sector_order() {
        let bytes: Vec<u8> = (0..SECTOR_TOTAL_BYTES)
            .map(|i| (i * 37 + 11) as u8)
            .collect();
        let mut words = [0u64; SECTOR_WORDS];
        bytes_to_words(&bytes, &mut words);
        // Dot 8i + b is bit 7 − b of byte i.
        for dot in [0usize, 7, 8, 63, 64, 4_703] {
            let want = bytes[dot / 8] >> (7 - dot % 8) & 1;
            assert_eq!(
                words[dot / 64] >> (dot % 64) & 1,
                u64::from(want),
                "dot {dot}"
            );
        }
        let mut back = [0u8; SECTOR_TOTAL_BYTES];
        words_to_bytes(&words, &mut back);
        assert_eq!(&back[..], &bytes[..]);
    }

    #[test]
    fn electrical_area_sits_mid_word_on_odd_blocks() {
        // The word path must handle runs that do not start on a word.
        let dev = ProbeDevice::builder().blocks(2).build();
        assert_ne!(
            (dev.block_first_dot(1) + DATA_AREA_FIRST_DOT as u64) % 64,
            0
        );
    }
}
